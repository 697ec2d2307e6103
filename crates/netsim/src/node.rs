//! Nodes, interfaces, and routing.
//!
//! Node state lives in a struct-of-arrays arena (`Nodes`): every hot
//! field (`up`, `forwarding`, rx counters, route tables) is a dense
//! parallel `Vec` indexed by [`NodeId::index`], so the forwarding loop
//! walks flat arrays instead of pointer-chasing through a `Vec` of
//! heap-owning structs, and names are interned `u32` ids rather than
//! per-node `String`s. See DESIGN.md "Memory layout at scale".

use crate::digest::StateHasher;
use crate::fastmap::FastBuildHasher;
use crate::ids::{AppId, ChannelId, IfaceId, LinkId, NodeId};
use crate::intern::{NameId, NameInterner};
use std::cell::OnceCell;
use std::hash::BuildHasher;
use std::net::IpAddr;

/// How an interface is attached to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// One side of a point-to-point link.
    P2p {
        /// The link.
        link: LinkId,
        /// Which endpoint of the link this interface is (0 or 1).
        side: usize,
    },
    /// A station on a shared Wi-Fi-like channel.
    Wifi {
        /// The channel.
        channel: ChannelId,
        /// Station index within the channel.
        station: usize,
    },
}

/// A network interface installed on a node.
#[derive(Debug, Clone)]
pub struct Iface {
    pub(crate) node: NodeId,
    pub(crate) addrs: Vec<IpAddr>,
    pub(crate) attachment: Option<Attachment>,
    /// IPv6/IPv4 multicast groups this interface has joined.
    pub(crate) multicast_groups: Vec<IpAddr>,
}

impl Iface {
    /// The node that owns this interface.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// How the interface is attached, if at all.
    pub fn attachment(&self) -> Option<Attachment> {
        self.attachment
    }

    /// Folds the interface's state into a checkpoint digest.
    pub(crate) fn state_digest(&self, h: &mut StateHasher) {
        h.write_usize(self.node.index());
        h.write_usize(self.addrs.len());
        for a in &self.addrs {
            h.write_ip(*a);
        }
        match self.attachment {
            None => h.write_bytes(&[0]),
            Some(Attachment::P2p { link, side }) => {
                h.write_bytes(&[1]);
                h.write_usize(link.index());
                h.write_usize(side);
            }
            Some(Attachment::Wifi { channel, station }) => {
                h.write_bytes(&[2]);
                h.write_usize(channel.index());
                h.write_usize(station);
            }
        }
        h.write_usize(self.multicast_groups.len());
        for g in &self.multicast_groups {
            h.write_ip(*g);
        }
    }
}

/// A static route: destination prefix → egress interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Prefix base address.
    pub prefix: IpAddr,
    /// Prefix length in bits.
    pub prefix_len: u8,
    /// Interface packets matching the prefix leave through.
    pub iface: IfaceId,
}

impl Route {
    /// Whether `addr` falls inside this route's prefix. Addresses of a
    /// different family never match.
    pub fn matches(&self, addr: IpAddr) -> bool {
        prefix_contains(self.prefix, self.prefix_len, addr)
    }
}

/// Whether `addr` is inside `prefix/len`.
pub fn prefix_contains(prefix: IpAddr, len: u8, addr: IpAddr) -> bool {
    match (prefix, addr) {
        (IpAddr::V4(p), IpAddr::V4(a)) => {
            let len = u32::from(len).min(32);
            if len == 0 {
                return true;
            }
            let mask = u32::MAX << (32 - len);
            (u32::from(p) & mask) == (u32::from(a) & mask)
        }
        (IpAddr::V6(p), IpAddr::V6(a)) => {
            let len = u32::from(len).min(128);
            if len == 0 {
                return true;
            }
            let mask = u128::MAX << (128 - len);
            (u128::from(p) & mask) == (u128::from(a) & mask)
        }
        _ => false,
    }
}

/// Ephemeral UDP port range (IANA dynamic ports).
pub(crate) const EPHEMERAL_RANGE: std::ops::RangeInclusive<u16> = 49152..=u16::MAX;

/// A node's routing state: the route list, and an exact index derived from
/// it on the first lookup after an edit.
///
/// The index answers what the naive `filter(..).max_by_key(prefix_len)`
/// scan of `routes` answers, for any table: the longest matching prefix,
/// the later insertion among equals. Resolution reads nothing but the
/// routes, so only `push` and `remove` reset it; admin flaps leave it be.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouteTable {
    /// Routes in insertion order: what the table is.
    routes: Vec<Route>,
    /// Built by the first lookup after an edit. `None` inside the cell for
    /// a table with no full-length route (every edge host: a default route
    /// or two), whose lookup scans `routes`.
    index: OnceCell<Option<Box<RouteIndex>>>,
}

// One table per node in the arena; edge hosts pay for the cell, not an index.
const _: () = assert!(std::mem::size_of::<RouteTable>() <= 40);

/// Positions into a [`RouteTable`]'s `routes`, split by prefix length.
#[derive(Debug, Clone)]
struct RouteIndex {
    /// Open-addressed and linearly probed, at most half full: for each
    /// address with a full-length route (/32 for v4, /128 for v6), the
    /// position of the last one inserted, in the slot its `FastHasher`
    /// hash picks or the first free one after it; `EMPTY` elsewhere.
    hosts: Box<[u32]>,
    /// Positions of every other route, in insertion order: a lookup scans
    /// them.
    others: Box<[u32]>,
}

/// A free slot of [`RouteIndex::hosts`].
const EMPTY: u32 = u32::MAX;

/// Whether `route` is full-length (/32 for v4, /128 for v6): it matches
/// its own prefix address alone, so one hash probe finds it. An over-width
/// route (a v4 /40) matches one address too but outranks it, so it stays
/// with the others.
fn is_host_route(route: &Route) -> bool {
    let full = if route.prefix.is_ipv4() { 32 } else { 128 };
    route.prefix_len == full
}

impl RouteIndex {
    /// The index of `routes`, or `None` when none is full-length.
    fn build(routes: &[Route]) -> Option<Box<RouteIndex>> {
        let host_count = routes.iter().filter(|r| is_host_route(r)).count();
        if host_count == 0 {
            return None;
        }
        assert!(routes.len() < EMPTY as usize, "positions fit below the free-slot mark");
        let mut hosts = vec![EMPTY; (2 * host_count).next_power_of_two()].into_boxed_slice();
        let mut others = Vec::with_capacity(routes.len() - host_count);
        for (pos, route) in routes.iter().enumerate() {
            if is_host_route(route) {
                // A later route on the same address takes the slot over.
                hosts[slot(&hosts, routes, route.prefix)] = pos as u32;
            } else {
                others.push(pos as u32);
            }
        }
        Some(Box::new(RouteIndex { hosts, others: others.into_boxed_slice() }))
    }

    /// The longer of `dst`'s host route and its best other match; the
    /// later insertion where they tie.
    fn lookup(&self, routes: &[Route], dst: IpAddr) -> Option<u32> {
        let rank = |pos: u32| (routes[pos as usize].prefix_len, pos);
        let mut best = self.hosts[slot(&self.hosts, routes, dst)];
        for &pos in self.others.iter() {
            if (best == EMPTY || rank(pos) > rank(best)) && routes[pos as usize].matches(dst) {
                best = pos;
            }
        }
        (best != EMPTY).then_some(best)
    }
}

/// The slot of `hosts` holding `addr`'s host route, or the free slot it
/// would go in. The table is at most half full, so a free slot always
/// ends the probe.
fn slot(hosts: &[u32], routes: &[Route], addr: IpAddr) -> usize {
    let mask = hosts.len() - 1;
    let mut slot = FastBuildHasher::default().hash_one(addr) as usize & mask;
    loop {
        let pos = hosts[slot];
        if pos == EMPTY || routes[pos as usize].prefix == addr {
            return slot;
        }
        slot = (slot + 1) & mask;
    }
}

impl RouteTable {
    pub(crate) fn push(&mut self, route: Route) {
        self.routes.push(route);
        self.index.take();
    }

    /// Removes every route matching (prefix, prefix_len); returns how many
    /// were removed.
    pub(crate) fn remove(&mut self, prefix: IpAddr, prefix_len: u8) -> usize {
        let before = self.routes.len();
        self.routes
            .retain(|r| !(r.prefix == prefix && r.prefix_len == prefix_len));
        self.index.take();
        before - self.routes.len()
    }

    /// The routes in insertion order.
    pub(crate) fn as_slice(&self) -> &[Route] {
        &self.routes
    }

    /// The route packets for `dst` leave by: the longest matching prefix,
    /// the later-inserted route among equals. One hash probe plus a scan
    /// of the table's other routes once an index exists; a scan of the
    /// whole table when it has no full-length route.
    pub(crate) fn lookup(&self, dst: IpAddr) -> Option<Route> {
        let routes = &self.routes;
        match self.index.get_or_init(|| RouteIndex::build(routes)) {
            Some(index) => index.lookup(routes, dst).map(|pos| routes[pos as usize]),
            None => routes.iter().filter(|r| r.matches(dst)).max_by_key(|r| r.prefix_len).copied(),
        }
    }

    /// Folds the routing state into a checkpoint digest: the route list,
    /// in insertion order, which fixes the tie-break. The index is left
    /// out: it follows from the list.
    pub(crate) fn state_digest(&self, h: &mut StateHasher) {
        h.write_usize(self.routes.len());
        for r in &self.routes {
            h.write_ip(r.prefix);
            h.write_bytes(&[r.prefix_len]);
            h.write_usize(r.iface.index());
        }
    }
}

/// A node's UDP port bindings: port → owning application, stored as a
/// vec sorted by port.
///
/// Nodes bind a handful of ports at most, so a sorted vec beats a hash
/// map: one heap allocation of a few entries instead of a hash table per
/// node (whose header + minimum table dominated the arena row at 100k
/// devices), and iteration is deterministic port order for free.
#[derive(Debug, Clone, Default)]
pub struct PortMap(Vec<(u16, AppId)>);

impl PortMap {
    fn search(&self, port: u16) -> Result<usize, usize> {
        self.0.binary_search_by_key(&port, |e| e.0)
    }

    /// Whether `port` is bound.
    pub fn contains_key(&self, port: &u16) -> bool {
        self.search(*port).is_ok()
    }

    /// The application bound to `port`, if any.
    pub fn get(&self, port: &u16) -> Option<&AppId> {
        self.search(*port).ok().map(|i| &self.0[i].1)
    }

    pub(crate) fn insert(&mut self, port: u16, owner: AppId) {
        match self.search(port) {
            Ok(i) => self.0[i].1 = owner,
            Err(i) => self.0.insert(i, (port, owner)),
        }
    }

    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&u16, &mut AppId) -> bool) {
        self.0.retain_mut(|(p, a)| keep(p, a));
    }

    /// Bindings in ascending port order.
    pub fn iter(&self) -> impl Iterator<Item = (&u16, &AppId)> {
        self.0.iter().map(|(p, a)| (p, a))
    }

    /// Whether no port is bound.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of bound ports.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Struct-of-arrays arena holding every node's state in dense parallel
/// vectors indexed by [`NodeId::index`].
///
/// The forwarding fast path reads `up` / `forwarding` / `routes` as flat
/// arrays; stats sampling reads `rx_packets` / `rx_bytes` without dragging
/// route tables or bind maps through cache. Names are interned: the arena
/// stores a 4-byte [`NameId`] per node and one shared string pool, so node
/// identity checks are `u32` compares and no hot struct owns a `String`.
///
/// The arena as a whole is `Clone` — `Simulator::fork` deep-copies the
/// parallel vectors in one pass each.
#[derive(Debug, Default, Clone)]
pub(crate) struct Nodes {
    names: NameInterner,
    pub(crate) name_ids: Vec<NameId>,
    pub(crate) up: Vec<bool>,
    /// Whether the node forwards unicast packets not addressed to it.
    pub(crate) forwarding: Vec<bool>,
    /// Whether the node relays multicast out of all other interfaces
    /// (models the LAN fabric / DHCPv6 relay behaviour of the simulated
    /// Internet segment in the paper's topology).
    pub(crate) forward_multicast: Vec<bool>,
    pub(crate) ifaces: Vec<Vec<IfaceId>>,
    pub(crate) routes: Vec<RouteTable>,
    pub(crate) udp_binds: Vec<PortMap>,
    pub(crate) next_ephemeral_port: Vec<u16>,
    /// Packets received and addressed to the node (any transport).
    pub(crate) rx_packets: Vec<u64>,
    /// Wire bytes received and addressed to the node.
    pub(crate) rx_bytes: Vec<u64>,
    /// First v4 address across the node's interfaces, in install order —
    /// memoized because interface address lists are append-only.
    pub(crate) first_v4: Vec<Option<IpAddr>>,
    /// First v6 address, same memoization.
    pub(crate) first_v6: Vec<Option<IpAddr>>,
}

impl Nodes {
    /// Appends a node with every field at its default; returns its index.
    pub(crate) fn push(&mut self, name: &str) -> usize {
        let idx = self.name_ids.len();
        let name_id = self.names.intern(name);
        self.name_ids.push(name_id);
        self.up.push(true);
        self.forwarding.push(false);
        self.forward_multicast.push(false);
        self.ifaces.push(Vec::new());
        self.routes.push(RouteTable::default());
        self.udp_binds.push(PortMap::default());
        self.next_ephemeral_port.push(*EPHEMERAL_RANGE.start());
        self.rx_packets.push(0);
        self.rx_bytes.push(0);
        self.first_v4.push(None);
        self.first_v6.push(None);
        idx
    }

    pub(crate) fn len(&self) -> usize {
        self.name_ids.len()
    }

    /// Resolves a node's interned name.
    pub(crate) fn name(&self, idx: usize) -> &str {
        self.names.resolve(self.name_ids[idx])
    }

    /// Records a newly installed interface address, maintaining the
    /// per-family first-address memo (`node_addr`'s fast path).
    pub(crate) fn note_addr(&mut self, idx: usize, addr: IpAddr) {
        let slot = match addr {
            IpAddr::V4(_) => &mut self.first_v4[idx],
            IpAddr::V6(_) => &mut self.first_v6[idx],
        };
        if slot.is_none() {
            *slot = Some(addr);
        }
    }

    /// Allocates the next free ephemeral UDP port on node `idx`.
    ///
    /// # Panics
    ///
    /// Panics once every port in the 49152..=65535 range is bound: the
    /// scan is bounded to one full wrap of the range rather than spinning
    /// forever.
    pub(crate) fn alloc_ephemeral_port(&mut self, idx: usize) -> u16 {
        let span = usize::from(*EPHEMERAL_RANGE.end() - *EPHEMERAL_RANGE.start()) + 1;
        for _ in 0..span {
            let p = self.next_ephemeral_port[idx];
            self.next_ephemeral_port[idx] = if p == *EPHEMERAL_RANGE.end() {
                *EPHEMERAL_RANGE.start()
            } else {
                p + 1
            };
            if !self.udp_binds[idx].contains_key(&p) {
                return p;
            }
        }
        panic!(
            "node {:?}: ephemeral UDP port space exhausted (all {span} ports in \
             {}..={} are bound)",
            self.name(idx),
            EPHEMERAL_RANGE.start(),
            EPHEMERAL_RANGE.end()
        );
    }

    /// Folds one node's mutable state into a checkpoint digest — the exact
    /// byte sequence the pre-arena per-struct digest produced, so
    /// checkpoints taken before and after the layout change agree. UDP
    /// binds are visited in sorted port order so the digest never depends
    /// on map iteration order.
    pub(crate) fn node_digest(&self, idx: usize, h: &mut StateHasher) {
        h.write_str(self.name(idx));
        h.write_bool(self.up[idx]);
        h.write_bool(self.forwarding[idx]);
        h.write_bool(self.forward_multicast[idx]);
        h.write_usize(self.ifaces[idx].len());
        for i in &self.ifaces[idx] {
            h.write_usize(i.index());
        }
        self.routes[idx].state_digest(h);
        let mut binds: Vec<(u16, AppId)> =
            self.udp_binds[idx].iter().map(|(p, a)| (*p, *a)).collect();
        binds.sort_unstable_by_key(|(p, _)| *p);
        h.write_usize(binds.len());
        for (port, app) in binds {
            h.write_u32(u32::from(port));
            h.write_usize(app.node.index());
            h.write_usize(app.slot());
        }
        h.write_u32(u32::from(self.next_ephemeral_port[idx]));
        h.write_u64(self.rx_packets[idx]);
        h.write_u64(self.rx_bytes[idx]);
    }
}

/// A read-only view of one node in the arena — the public face of the
/// struct-of-arrays layout, returned by `Simulator::node`.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    nodes: &'a Nodes,
    idx: usize,
}

impl<'a> NodeRef<'a> {
    pub(crate) fn new(nodes: &'a Nodes, idx: usize) -> Self {
        NodeRef { nodes, idx }
    }

    /// The node's human-readable name.
    pub fn name(&self) -> &'a str {
        self.nodes.name(self.idx)
    }

    /// Whether the node is up (participating in the network).
    pub(crate) fn is_up(&self) -> bool {
        self.nodes.up[self.idx]
    }

    /// Interfaces installed on this node.
    pub fn ifaces(&self) -> &'a [IfaceId] {
        &self.nodes.ifaces[self.idx]
    }

    /// The node's routes in insertion order.
    pub fn routes(&self) -> &'a [Route] {
        self.nodes.routes[self.idx].as_slice()
    }

    /// Live UDP port bindings (port → owning app).
    pub fn udp_binds(&self) -> &'a PortMap {
        &self.nodes.udp_binds[self.idx]
    }

    /// Wire bytes received and addressed to this node.
    pub fn rx_bytes(&self) -> u64 {
        self.nodes.rx_bytes[self.idx]
    }
}

impl std::fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRef")
            .field("name", &self.name())
            .field("up", &self.is_up())
            .field("ifaces", &self.ifaces().len())
            .field("routes", &self.routes().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn v4(a: u8, b: u8, c: u8, d: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(a, b, c, d))
    }

    fn route(prefix: IpAddr, prefix_len: u8, iface: usize) -> Route {
        Route {
            prefix,
            prefix_len,
            iface: IfaceId::from_index(iface),
        }
    }

    #[test]
    fn prefix_match_v4() {
        assert!(prefix_contains(v4(10, 0, 0, 0), 8, v4(10, 1, 2, 3)));
        assert!(!prefix_contains(v4(10, 0, 0, 0), 8, v4(11, 1, 2, 3)));
        assert!(prefix_contains(v4(10, 0, 1, 0), 24, v4(10, 0, 1, 200)));
        assert!(!prefix_contains(v4(10, 0, 1, 0), 24, v4(10, 0, 2, 1)));
        // Zero-length prefix matches everything in-family.
        assert!(prefix_contains(v4(0, 0, 0, 0), 0, v4(192, 168, 1, 1)));
    }

    #[test]
    fn prefix_match_v6() {
        let p = IpAddr::V6(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 0));
        let inside = IpAddr::V6(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 0x42));
        let outside = IpAddr::V6(Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 1));
        assert!(prefix_contains(p, 16, inside));
        assert!(!prefix_contains(p, 16, outside));
    }

    #[test]
    fn prefix_never_matches_cross_family() {
        let p6 = IpAddr::V6(Ipv6Addr::UNSPECIFIED);
        assert!(!prefix_contains(p6, 0, v4(1, 2, 3, 4)));
        assert!(!prefix_contains(v4(0, 0, 0, 0), 0, p6));
    }

    fn iface_of(t: &RouteTable, dst: IpAddr) -> Option<usize> {
        t.lookup(dst).map(|r| r.iface.index())
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = RouteTable::default();
        t.push(route(v4(10, 0, 0, 0), 8, 0));
        t.push(route(v4(10, 0, 5, 0), 24, 1));
        assert_eq!(iface_of(&t, v4(10, 0, 5, 9)), Some(1));
        assert_eq!(iface_of(&t, v4(10, 0, 6, 9)), Some(0));
        assert_eq!(iface_of(&t, v4(192, 168, 0, 1)), None);
        // No full-length route, so no index: the lookup scanned.
        assert!(t.index.get().is_some_and(Option::is_none));
    }

    #[test]
    fn the_index_ranks_host_routes_among_the_others() {
        let mut t = RouteTable::default();
        t.push(route(v4(10, 0, 0, 0), 8, 0));
        t.push(route(v4(10, 0, 5, 9), 32, 1));
        t.push(route(v4(10, 0, 5, 0), 24, 2));
        // The host route outranks the covering prefixes inserted around it.
        assert_eq!(iface_of(&t, v4(10, 0, 5, 9)), Some(1));
        assert_eq!(iface_of(&t, v4(10, 0, 5, 8)), Some(2));
        let index = t.index.get().and_then(Option::as_deref).expect("a host route builds one");
        assert_eq!(index.others[..], [0, 2]);
        assert_eq!(index.hosts.len(), 2, "one host route, at most half full");
        // An over-width route on the address outranks it; removing it
        // hands the address back.
        t.push(route(v4(10, 0, 5, 9), 40, 3));
        assert_eq!(iface_of(&t, v4(10, 0, 5, 9)), Some(3));
        assert_eq!(t.remove(v4(10, 0, 5, 9), 40), 1);
        assert_eq!(iface_of(&t, v4(10, 0, 5, 9)), Some(1));
    }

    #[test]
    fn the_last_of_equal_host_routes_wins_until_removed() {
        let mut t = RouteTable::default();
        let host = IpAddr::V6(Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, 7));
        for i in 0..3 {
            t.push(route(host, 128, i));
            assert_eq!(iface_of(&t, host), Some(i), "an edit resets the index");
        }
        assert_eq!(t.remove(host, 128), 3);
        assert_eq!(iface_of(&t, host), None);
    }

    #[test]
    fn ephemeral_ports_skip_bound() {
        let mut nodes = Nodes::default();
        let idx = nodes.push("h");
        nodes.udp_binds[idx].insert(
            49152,
            AppId {
                node: NodeId::from_index(0),
                slot: 0,
            },
        );
        assert_eq!(nodes.alloc_ephemeral_port(idx), 49153);
        assert_eq!(nodes.alloc_ephemeral_port(idx), 49154);
    }

    #[test]
    #[should_panic(expected = "ephemeral UDP port space exhausted")]
    fn ephemeral_port_exhaustion_panics_instead_of_spinning() {
        let mut nodes = Nodes::default();
        let idx = nodes.push("h");
        let owner = AppId {
            node: NodeId::from_index(0),
            slot: 0,
        };
        for p in EPHEMERAL_RANGE {
            nodes.udp_binds[idx].insert(p, owner);
        }
        let _ = nodes.alloc_ephemeral_port(idx);
    }

    #[test]
    fn arena_digest_covers_every_hot_field() {
        let digest_of = |nodes: &Nodes| {
            let mut h = StateHasher::new();
            for idx in 0..nodes.len() {
                nodes.node_digest(idx, &mut h);
            }
            h.finish()
        };
        let mut nodes = Nodes::default();
        let idx = nodes.push("r");
        let base = digest_of(&nodes);
        nodes.forwarding[idx] = true;
        let with_fwd = digest_of(&nodes);
        assert_ne!(base, with_fwd);
        nodes.rx_packets[idx] += 1;
        assert_ne!(with_fwd, digest_of(&nodes));
        // Identical construction sequences digest identically.
        let mut again = Nodes::default();
        let j = again.push("r");
        again.forwarding[j] = true;
        again.rx_packets[j] += 1;
        assert_eq!(digest_of(&nodes), digest_of(&again));
    }
}
