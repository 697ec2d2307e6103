//! Nodes, interfaces, and routing.
//!
//! Node state lives in a struct-of-arrays arena ([`Nodes`]): every hot
//! field (`up`, `forwarding`, rx counters, route tables) is a dense
//! parallel `Vec` indexed by [`NodeId::index`], so the forwarding loop
//! walks flat arrays instead of pointer-chasing through a `Vec` of
//! heap-owning structs, and names are interned `u32` ids rather than
//! per-node `String`s. See DESIGN.md "Memory layout at scale".

use crate::digest::StateHasher;
use crate::fastmap::FastMap;
use crate::ids::{AppId, ChannelId, IfaceId, LinkId, NodeId};
use crate::intern::{NameId, NameInterner};
use std::collections::VecDeque;
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

/// Largest number of cached destination resolutions per node. At the cap
/// the cache evicts its *oldest* entry (FIFO) instead of growing without
/// bound — a scanner sweeping the whole address space churns the cache but
/// never thrashes the steady-state working set the way the old
/// clear-everything policy did on 100k-node routers.
const ROUTE_CACHE_CAP: usize = 65_536;

/// Tables at or below this size skip the cache and scan directly: edge
/// hosts (one default route per family) dominate the node count, and
/// matching their handful of prefixes costs what a cache probe would
/// (11-15 ns against 12-14 ns) without allocating a cache per host.
const SMALL_TABLE_SCAN: usize = 8;

/// Ephemeral UDP port range (IANA dynamic ports).
pub(crate) const EPHEMERAL_RANGE: std::ops::RangeInclusive<u16> = 49152..=u16::MAX;

/// A node's routing state: the route list, a lazily-sorted
/// longest-prefix-match table, and an epoch-invalidated resolution cache.
///
/// Steady-state forwarding resolves a destination with a single
/// [`FastMap`] probe. Any mutation (route add/remove) or admin transition
/// on an attached link or the node itself bumps `epoch`; the next lookup
/// notices the stale `cache_epoch`, discards every cached resolution, and
/// re-sorts the match table if routes changed.
#[derive(Debug, Clone)]
pub(crate) struct RouteTable {
    /// Routes in insertion order — the reference (naive) scan uses these.
    routes: Vec<Route>,
    /// Match order for the fast path: *indices* into `routes`, prefix
    /// length descending, and later insertion first among equal lengths —
    /// the first matching entry is exactly what the naive
    /// `filter(..).max_by_key(prefix_len)` scan returns (`max_by_key`
    /// keeps the *last* maximal element on ties). Indices instead of
    /// cloned `Route`s: a backbone router's table holds one entry per
    /// device, and duplicating it doubled route memory at 100k devices.
    sorted: Vec<u32>,
    sorted_stale: bool,
    /// Bumped on every route mutation and relevant admin change.
    epoch: u64,
    /// Resolution cache, allocated on first use. Edge hosts (a default
    /// route or two, under [`SMALL_TABLE_SCAN`]) never build one, so the
    /// arena row carries one pointer instead of a map + queue header.
    cache: Option<Box<RouteCache>>,
    /// Eviction threshold; `ROUTE_CACHE_CAP` outside tests.
    cache_cap: usize,
}

/// The memoized fast path of a [`RouteTable`]: destination → resolution
/// under a given epoch, with FIFO eviction at `cache_cap`.
#[derive(Debug, Clone, Default)]
struct RouteCache {
    /// Epoch the cache (and the table's sort order) were built under.
    epoch: u64,
    map: FastMap<IpAddr, Option<Route>>,
    /// Cached destinations in insertion order: the FIFO eviction queue.
    /// Invariant: exactly the keys of `map`, oldest first (inserts only
    /// happen on a miss, and epoch invalidation clears both together).
    order: VecDeque<IpAddr>,
}

impl Default for RouteTable {
    fn default() -> Self {
        RouteTable {
            routes: Vec::new(),
            sorted: Vec::new(),
            sorted_stale: false,
            epoch: 0,
            cache: None,
            cache_cap: ROUTE_CACHE_CAP,
        }
    }
}

impl RouteTable {
    pub(crate) fn push(&mut self, route: Route) {
        self.routes.push(route);
        self.sorted_stale = true;
        self.invalidate();
    }

    /// Removes every route matching (prefix, prefix_len); returns how many
    /// were removed.
    pub(crate) fn remove(&mut self, prefix: IpAddr, prefix_len: u8) -> usize {
        let before = self.routes.len();
        self.routes
            .retain(|r| !(r.prefix == prefix && r.prefix_len == prefix_len));
        let removed = before - self.routes.len();
        if removed > 0 {
            self.sorted_stale = true;
            self.invalidate();
        }
        removed
    }

    /// Discards cached resolutions (epoch bump). Called on route mutation
    /// and on node/link admin transitions.
    pub(crate) fn invalidate(&mut self) {
        self.epoch += 1;
    }

    /// The routes in insertion order.
    pub(crate) fn as_slice(&self) -> &[Route] {
        &self.routes
    }

    /// The reference resolution: linear filter + max scan. Kept as the
    /// observable-behaviour oracle for the cached fast path.
    pub(crate) fn lookup_naive(&self, dst: IpAddr) -> Option<Route> {
        self.routes
            .iter()
            .filter(|r| r.matches(dst))
            .max_by_key(|r| r.prefix_len)
            .copied()
    }

    /// The fast path: one cache probe in steady state; on miss, a scan of
    /// the sorted match table memoized under the current epoch. Small
    /// tables bypass the cache entirely — see [`SMALL_TABLE_SCAN`]. At
    /// capacity the oldest cached resolution is evicted (deterministic
    /// FIFO over the insertion queue).
    pub(crate) fn lookup(&mut self, dst: IpAddr) -> Option<Route> {
        if self.routes.len() <= SMALL_TABLE_SCAN {
            return self.lookup_naive(dst);
        }
        let epoch = self.epoch;
        let cache = self.cache.get_or_insert_with(|| {
            // A fresh cache's epoch deliberately mismatches the table's so
            // the first probe takes the rebuild path below.
            Box::new(RouteCache {
                epoch: epoch.wrapping_add(1),
                ..RouteCache::default()
            })
        });
        if cache.epoch != self.epoch {
            cache.map.clear();
            cache.order.clear();
            if self.sorted_stale {
                self.sorted.clear();
                self.sorted.extend(0..self.routes.len() as u32);
                // Stable sort by descending prefix length preserves
                // insertion order inside each length class; scanning in
                // reverse therefore prefers later-inserted routes, the
                // naive scan's tie-break.
                let routes = &self.routes;
                self.sorted.sort_by(|&a, &b| {
                    routes[b as usize]
                        .prefix_len
                        .cmp(&routes[a as usize].prefix_len)
                });
                self.sorted_stale = false;
            }
            cache.epoch = self.epoch;
        }
        if let Some(cached) = cache.map.get(&dst) {
            return *cached;
        }
        let resolved = Self::lookup_sorted(&self.sorted, &self.routes, dst);
        if cache.map.len() >= self.cache_cap {
            if let Some(oldest) = cache.order.pop_front() {
                cache.map.remove(&oldest);
            }
        }
        cache.map.insert(dst, resolved);
        cache.order.push_back(dst);
        resolved
    }

    /// Folds the behavior-bearing routing state into a checkpoint digest:
    /// the route list (in insertion order, which fixes the tie-break) and
    /// the invalidation epoch. The memoized cache is deliberately excluded
    /// — it is observationally transparent, and its contents follow
    /// deterministically from the lookups performed.
    pub(crate) fn state_digest(&self, h: &mut StateHasher) {
        h.write_usize(self.routes.len());
        for r in &self.routes {
            h.write_ip(r.prefix);
            h.write_bytes(&[r.prefix_len]);
            h.write_usize(r.iface.index());
        }
        h.write_u64(self.epoch);
    }

    /// Longest-prefix match over the sorted index table: within each
    /// prefix length class (descending), the later-inserted route wins.
    /// An associated fn over the two slices so `lookup` can call it while
    /// holding a mutable borrow of the cache.
    fn lookup_sorted(sorted: &[u32], routes: &[Route], dst: IpAddr) -> Option<Route> {
        let mut class_start = 0;
        while class_start < sorted.len() {
            let len = routes[sorted[class_start] as usize].prefix_len;
            let class_end = class_start
                + sorted[class_start..]
                    .iter()
                    .take_while(|&&i| routes[i as usize].prefix_len == len)
                    .count();
            if let Some(hit) = sorted[class_start..class_end]
                .iter()
                .rev()
                .map(|&i| routes[i as usize])
                .find(|r| r.matches(dst))
            {
                return Some(hit);
            }
            class_start = class_end;
        }
        None
    }

    #[cfg(test)]
    fn set_cache_cap(&mut self, cap: usize) {
        self.cache_cap = cap;
    }

    #[cfg(test)]
    fn cache_contains(&self, dst: IpAddr) -> bool {
        self.cache.as_ref().is_some_and(|c| c.map.contains_key(&dst))
    }

    #[cfg(test)]
    fn cache_len(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.map.len())
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

    /// Longest-prefix-match route lookup — the reference linear scan.
    ///
    /// This is the semantic oracle; the simulator's forwarding path uses
    /// the epoch-cached `RouteTable::lookup`, which is proven
    /// observationally identical by `tests/route_cache.rs`.
    pub fn route_for(&self, dst: IpAddr) -> Option<Route> {
        self.nodes.routes[self.idx].lookup_naive(dst)
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

    #[test]
    fn longest_prefix_wins() {
        let mut t = RouteTable::default();
        t.push(route(v4(10, 0, 0, 0), 8, 0));
        t.push(route(v4(10, 0, 5, 0), 24, 1));
        assert_eq!(
            t.lookup_naive(v4(10, 0, 5, 9)).map(|r| r.iface),
            Some(IfaceId::from_index(1))
        );
        assert_eq!(
            t.lookup_naive(v4(10, 0, 6, 9)).map(|r| r.iface),
            Some(IfaceId::from_index(0))
        );
        assert!(t.lookup_naive(v4(192, 168, 0, 1)).is_none());
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
    fn cached_lookup_matches_naive_and_survives_invalidation() {
        let mut t = RouteTable::default();
        t.push(route(v4(10, 0, 0, 0), 8, 0));
        t.push(route(v4(10, 0, 5, 0), 24, 1));
        let probes = [v4(10, 0, 5, 9), v4(10, 0, 6, 9), v4(192, 168, 0, 1)];
        for dst in probes {
            assert_eq!(t.lookup(dst), t.lookup_naive(dst), "{dst}");
            // Second probe exercises the cache-hit path.
            assert_eq!(t.lookup(dst), t.lookup_naive(dst), "{dst} (hit)");
        }
        // A more specific route inserted later must evict stale resolutions.
        t.push(route(v4(10, 0, 5, 9), 32, 2));
        assert_eq!(
            t.lookup(v4(10, 0, 5, 9)).map(|r| r.iface),
            Some(IfaceId::from_index(2))
        );
        // Removing it restores the previous resolution.
        assert_eq!(t.remove(v4(10, 0, 5, 9), 32), 1);
        assert_eq!(
            t.lookup(v4(10, 0, 5, 9)).map(|r| r.iface),
            Some(IfaceId::from_index(1))
        );
    }

    #[test]
    fn equal_length_tie_break_prefers_later_insertion_like_naive() {
        let mut t = RouteTable::default();
        for i in 0..3usize {
            t.push(route(v4(10, 0, 0, 0), 8, i));
        }
        let naive = t.lookup_naive(v4(10, 1, 2, 3));
        assert_eq!(naive.map(|r| r.iface), Some(IfaceId::from_index(2)));
        assert_eq!(t.lookup(v4(10, 1, 2, 3)), naive);
    }

    #[test]
    fn cache_evicts_oldest_entry_first_in_fifo_order() {
        let mut t = RouteTable::default();
        // One covering route plus filler /32s to exceed SMALL_TABLE_SCAN so
        // the cache actually engages.
        t.push(route(v4(10, 0, 0, 0), 8, 0));
        for i in 0..SMALL_TABLE_SCAN as u8 {
            t.push(route(v4(172, 16, 0, i), 32, 1));
        }
        t.set_cache_cap(4);
        let d = |i: u8| v4(10, 0, 0, i);
        for i in 1..=4 {
            t.lookup(d(i));
        }
        assert_eq!(t.cache_len(), 4);
        // A cache hit must not refresh FIFO position (FIFO, not LRU).
        t.lookup(d(1));
        assert_eq!(t.cache_len(), 4);
        // Fifth distinct destination evicts the oldest entry — d(1), even
        // though it was just re-probed.
        t.lookup(d(5));
        assert_eq!(t.cache_len(), 4);
        assert!(!t.cache_contains(d(1)));
        for i in 2..=5 {
            assert!(t.cache_contains(d(i)), "d({i}) should survive");
        }
        // Next insert evicts d(2), then d(3): strict insertion order.
        t.lookup(d(6));
        assert!(!t.cache_contains(d(2)));
        t.lookup(d(7));
        assert!(!t.cache_contains(d(3)));
        assert!(t.cache_contains(d(4)));
        // Evicted destinations still resolve correctly on re-probe.
        assert_eq!(t.lookup(d(1)), t.lookup_naive(d(1)));
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
