//! Property tests: a node's route index is observationally identical to a
//! naive linear scan of the node's routes.
//!
//! Resolution ([`Simulator::resolve_route`], the forwarding hot path's
//! lookup) must return exactly what the reference scan returns — same
//! `Route`, including the longest-prefix tie-break — for any table, any
//! query order, and across route insertion and removal, which rebuild the
//! index. Resolution reads the route list alone: node and link admin flaps
//! change nothing it answers, and nothing is invalidated by them.

use netsim::node::Route;
use netsim::topology::Fabric;
use netsim::{LinkConfig, NodeId, Simulator};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// A compact generator domain: prefixes and destinations drawn from a small
/// address pool so random tables actually match random destinations.
fn v4(a: u8, b: u8, c: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(10, a, b, c))
}

fn v6(x: u16, y: u16) -> IpAddr {
    IpAddr::V6(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, x, y))
}

/// Whether `word` draws from the host pool: eight addresses per family,
/// so exact routes on one address repeat and destinations hit them.
fn in_host_pool(word: u64) -> bool {
    (word >> 2) & 3 == 0
}

/// Decodes one random `u64` into an address: from the host pool, or from
/// the wide pool every prefix is drawn from. Both families interleave, so
/// family filtering is always exercised.
fn decode_dst(word: u64) -> IpAddr {
    let (a, b, c) = ((word >> 8) as u8 & 0x3, (word >> 16) as u8 & 0x3, (word >> 24) as u8);
    let (a, b, c) = if in_host_pool(word) { (0, 0, c & 0x7) } else { (a, b, c) };
    if word & 1 == 0 {
        v4(a, b, c)
    } else {
        v6(u16::from(a), u16::from(c))
    }
}

/// Decodes one random `u64` into a route `(prefix, length, interface 0 or
/// 1)`. A host-pool route is exact: full-length (/32, /128), so host routes
/// repeat on one address with different interfaces, or one time in four
/// over-width (v4 /33–/40, v6 /129–/136), which outranks them. Any other
/// is a prefix of v4 /0–/32 or v6 /96–/128.
fn decode_route(word: u64) -> (IpAddr, u8, usize) {
    let prefix = decode_dst(word);
    let full = if prefix.is_ipv4() { 32 } else { 128 };
    let draw = (word >> 32) as u8;
    let len = if !in_host_pool(word) {
        full - draw % 33
    } else if draw.is_multiple_of(4) {
        full + 1 + (draw / 4) % 8
    } else {
        full
    };
    (prefix, len, (word >> 1) as usize & 1)
}

/// Builds a simulator with one routed node holding `table` and a couple of
/// p2p-linked interfaces (so link-admin flaps touch real attachments).
fn build(table: &[u64]) -> (Simulator, NodeId, netsim::LinkId) {
    let mut sim = Simulator::new(7);
    let node = sim.add_node("n");
    let peer = sim.add_node("peer");
    let a = sim.add_iface(node, vec![v4(200, 0, 1)]);
    let b = sim.add_iface(peer, vec![v4(200, 0, 2)]);
    let link = sim.connect_p2p(a, b, LinkConfig::default()).expect("fresh ifaces");
    sim.add_iface(node, vec![v4(200, 0, 3)]);
    for word in table {
        add(&mut sim, node, decode_route(*word));
    }
    (sim, node, link)
}

/// Adds `(prefix, length, interface)` on `node`.
fn add(sim: &mut Simulator, node: NodeId, (prefix, len, iface): (IpAddr, u8, usize)) {
    let iface = sim.node(node).ifaces()[iface];
    sim.add_route(node, prefix, len, iface);
}

/// The oracle: a naive linear scan of the node's routes (`filter` +
/// `max_by_key`, which keeps the last of equal prefix lengths).
fn oracle(sim: &Simulator, node: NodeId, dst: IpAddr) -> Option<Route> {
    let routes = sim.node(node).routes().iter();
    routes.filter(|r| r.matches(dst)).max_by_key(|r| r.prefix_len).copied()
}

/// Every destination of `dsts` resolves on `node` as the oracle does.
fn agrees(sim: &Simulator, node: NodeId, dsts: &[u64], when: &str) {
    for word in dsts {
        let dst = decode_dst(*word);
        prop_assert_eq!(sim.resolve_route(node, dst), oracle(sim, node, dst), "dst {dst} {when}");
    }
}

proptest! {
    /// Resolution equals the oracle for every destination, in any query
    /// order, on tables with and without full-length routes (scanned or
    /// indexed) — and repeated queries stay consistent.
    #[test]
    fn cache_matches_naive_scan(
        table in collection::vec(any::<u64>(), 0..40),
        dsts in collection::vec(any::<u64>(), 1..64),
    ) {
        let (sim, node, _link) = build(&table);
        agrees(&sim, node, &dsts, "on the first query");
        agrees(&sim, node, &dsts, "on the second query");
    }

    /// Inserting a route mid-stream rebuilds the index: post-insertion
    /// resolutions match a fresh naive scan (more-specific routes take
    /// over, equal lengths keep the naive tie-break).
    #[test]
    fn cache_sees_route_insertion(
        table in collection::vec(any::<u64>(), 0..40),
        dsts in collection::vec(any::<u64>(), 1..32),
        added in any::<u64>(),
    ) {
        let (mut sim, node, _link) = build(&table);
        agrees(&sim, node, &dsts, "before the insertion");
        let route = decode_route(added);
        add(&mut sim, node, route);
        agrees(&sim, node, &dsts, &format!("after inserting {}/{}", route.0, route.1));
    }

    /// Removing a route rebuilds the index the same way — one picked from
    /// the table, then both of two equal host routes.
    #[test]
    fn cache_sees_route_removal(
        table in collection::vec(any::<u64>(), 1..40),
        dsts in collection::vec(any::<u64>(), 1..32),
        victim in any::<u64>(),
        pair in any::<u64>(),
    ) {
        let (mut sim, node, _link) = build(&table);
        let host = decode_dst(pair & !0b1100);
        let full = if host.is_ipv4() { 32 } else { 128 };
        add(&mut sim, node, (host, full, 0));
        add(&mut sim, node, (host, full, 1));
        agrees(&sim, node, &dsts, "before any removal");
        let routes = sim.node(node).routes().to_vec();
        let r = routes[(victim as usize) % routes.len()];
        let removed = sim.remove_route(node, r.prefix, r.prefix_len);
        prop_assert!(removed >= 1);
        agrees(&sim, node, &dsts, &format!("after removing {}/{}", r.prefix, r.prefix_len));
        sim.remove_route(node, host, full);
        agrees(&sim, node, &dsts, &format!("after removing {host}/{full}"));
    }

    /// Node and link admin flaps leave every answer as it was: resolution
    /// reads the route list alone, and a flap touches nothing it reads.
    #[test]
    fn admin_flaps_leave_resolution_alone(
        table in collection::vec(any::<u64>(), 0..40),
        dsts in collection::vec(any::<u64>(), 1..32),
    ) {
        let (mut sim, node, link) = build(&table);
        agrees(&sim, node, &dsts, "before the flaps");
        sim.set_node_admin(node, false);
        agrees(&sim, node, &dsts, "with the node down");
        sim.set_node_admin(node, true);
        sim.set_link_admin(link, false);
        sim.set_link_admin(link, true);
        agrees(&sim, node, &dsts, "after the flaps");
    }
}

/// A star of 40,000 hosts puts 80,000 host routes on its root, past what
/// any fixed-size memo of answers could keep. Each address resolves to its
/// own host route, out of the root's interface on the host's link, on a
/// first pass and on a second.
#[test]
fn a_forty_thousand_host_star_root_resolves_every_address_to_its_host() {
    let mut sim = Simulator::new(7);
    let mut star = Fabric::star(&mut sim, "star");
    let members: Vec<_> = (0..40_000)
        .map(|d| {
            let node = sim.add_node(format!("dev{d}"));
            star.attach_dev(&mut sim, d, node, LinkConfig::default())
        })
        .collect();
    let root = star.root();
    assert_eq!(sim.node(root).routes().len(), 80_000);
    let root_ifaces = sim.node(root).ifaces().to_vec();
    for pass in ["first", "second"] {
        for (m, &egress) in members.iter().zip(&root_ifaces) {
            for (addr, len) in [(m.addr_v4, 32), (m.addr_v6, 128)] {
                let expect = Route { prefix: addr, prefix_len: len, iface: egress };
                assert_eq!(sim.resolve_route(root, addr), Some(expect), "{pass} pass");
            }
        }
    }
}
