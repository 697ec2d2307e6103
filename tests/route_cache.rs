//! Property tests: the epoch-invalidated route cache is observationally
//! identical to the naive linear `route_for` scan.
//!
//! The cached fast path ([`Simulator::resolve_route`]) must return exactly
//! what the reference scan returns — same `Route`, including the
//! longest-prefix tie-break — for any table, any query order, and across
//! invalidations (route insertion/removal, node and link admin flaps).

use netsim::node::Route;
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

/// Decodes one random `u64` into a route over the pool; interleaves both
/// families so family filtering is always exercised.
fn decode_route(word: u64) -> (IpAddr, u8) {
    let a = (word >> 8) as u8 & 0x3;
    let b = (word >> 16) as u8 & 0x3;
    let c = (word >> 24) as u8 & 0xFF;
    if word & 1 == 0 {
        let len = (word >> 32) as u8 % 33; // 0..=32
        (v4(a, b, c), len)
    } else {
        let len = 96 + ((word >> 32) as u8 % 33); // 96..=128: varies low bits
        (v6(u16::from(a), u16::from(c)), len)
    }
}

/// Decodes one random `u64` into a destination from the same pool.
fn decode_dst(word: u64) -> IpAddr {
    let a = (word >> 8) as u8 & 0x3;
    let b = (word >> 16) as u8 & 0x3;
    let c = (word >> 24) as u8 & 0xFF;
    if word & 1 == 0 {
        v4(a, b, c)
    } else {
        v6(u16::from(a), u16::from(c))
    }
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
    let extra = sim.add_iface(node, vec![v4(200, 0, 3)]);
    let ifaces = [a, extra];
    for (i, word) in table.iter().enumerate() {
        let (prefix, len) = decode_route(*word);
        sim.add_route(node, prefix, len, ifaces[i % ifaces.len()]);
    }
    (sim, node, link)
}

/// The oracle: the node's naive linear scan (`filter` + `max_by_key`).
fn oracle(sim: &Simulator, node: NodeId, dst: IpAddr) -> Option<Route> {
    sim.node(node).route_for(dst)
}

proptest! {
    /// Cached resolution equals the oracle for every destination, in any
    /// query order, on tables both below and above the small-table bypass
    /// threshold — and repeated queries (cache hits) stay consistent.
    #[test]
    fn cache_matches_naive_scan(
        table in collection::vec(any::<u64>(), 0..40),
        dsts in collection::vec(any::<u64>(), 1..64),
    ) {
        let (mut sim, node, _link) = build(&table);
        for word in &dsts {
            let dst = decode_dst(*word);
            let expect = oracle(&sim, node, dst);
            prop_assert_eq!(sim.resolve_route(node, dst), expect, "dst {dst}");
            // Second query hits the cache; must not change the answer.
            prop_assert_eq!(sim.resolve_route(node, dst), expect, "dst {dst} (cached)");
        }
    }

    /// Inserting a route mid-stream invalidates: post-insertion resolutions
    /// match a fresh naive scan (more-specific routes take over, equal
    /// lengths keep the naive tie-break).
    #[test]
    fn cache_sees_route_insertion(
        table in collection::vec(any::<u64>(), 0..40),
        dsts in collection::vec(any::<u64>(), 1..32),
        added in any::<u64>(),
    ) {
        let (mut sim, node, _link) = build(&table);
        // Warm the cache on every destination first.
        for word in &dsts {
            let dst = decode_dst(*word);
            let _ = sim.resolve_route(node, dst);
        }
        let (prefix, len) = decode_route(added);
        let iface = sim.node(node).ifaces()[0];
        sim.add_route(node, prefix, len, iface);
        for word in &dsts {
            let dst = decode_dst(*word);
            prop_assert_eq!(
                sim.resolve_route(node, dst),
                oracle(&sim, node, dst),
                "dst {dst} after inserting {prefix}/{len}"
            );
        }
    }

    /// Removing a route invalidates the same way.
    #[test]
    fn cache_sees_route_removal(
        table in collection::vec(any::<u64>(), 1..40),
        dsts in collection::vec(any::<u64>(), 1..32),
        victim in any::<u64>(),
    ) {
        let (mut sim, node, _link) = build(&table);
        for word in &dsts {
            let _ = sim.resolve_route(node, decode_dst(*word));
        }
        // Remove one existing route (picked by index), not a random one.
        let routes = sim.node(node).routes().to_vec();
        let r = routes[(victim as usize) % routes.len()];
        let removed = sim.remove_route(node, r.prefix, r.prefix_len);
        prop_assert!(removed >= 1);
        for word in &dsts {
            let dst = decode_dst(*word);
            prop_assert_eq!(
                sim.resolve_route(node, dst),
                oracle(&sim, node, dst),
                "dst {dst} after removing {}/{}",
                r.prefix,
                r.prefix_len
            );
        }
    }

    /// Node and link admin flaps keep cache and oracle in agreement
    /// (resolution is admin-agnostic today; the flap must at minimum not
    /// desynchronize the cache).
    #[test]
    fn cache_survives_admin_flaps(
        table in collection::vec(any::<u64>(), 0..40),
        dsts in collection::vec(any::<u64>(), 1..32),
    ) {
        let (mut sim, node, link) = build(&table);
        for word in &dsts {
            let _ = sim.resolve_route(node, decode_dst(*word));
        }
        sim.set_node_admin(node, false);
        for word in &dsts {
            let dst = decode_dst(*word);
            prop_assert_eq!(sim.resolve_route(node, dst), oracle(&sim, node, dst));
        }
        sim.set_node_admin(node, true);
        sim.set_link_admin(link, false);
        sim.set_link_admin(link, true);
        for word in &dsts {
            let dst = decode_dst(*word);
            prop_assert_eq!(sim.resolve_route(node, dst), oracle(&sim, node, dst));
        }
    }
}
