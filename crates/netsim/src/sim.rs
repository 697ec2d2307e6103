//! The discrete-event simulator: event queue, world state, and the [`Ctx`]
//! handle through which applications act.

use crate::app::Application;
use std::any::Any;
use crate::digest::StateHasher;
use crate::equeue::{EventQueue, TimeOrderedQueue};
use crate::fastmap::FastMap;
use crate::filter::{FilterRule, FilterStack};
use crate::fork::{ForkClone, ForkMap, ForkableCall, ForkableFn};
use crate::ids::{AppId, ChannelId, IfaceId, LinkId, NodeId};
use crate::link::{LinkConfig, P2pLink};
use crate::node::{Attachment, Iface, NodeRef, Nodes, Route};
use crate::packet::{self, Packet, Payload, TransportProto};
use crate::stats::{DropReason, Stats, TraceHook, TraceKind, TraceRecord};
use crate::tcp::{ConnId, TcpAction, TcpError, TcpStack};
use crate::time::{tx_delay, SimTime};
use crate::wifi::{WifiChannel, WifiConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::{IpAddr, SocketAddr};
use std::time::Duration;
use telemetry::{Category, Telemetry};

/// Errors surfaced by simulator configuration and socket operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// A UDP port was already bound on the node.
    PortInUse,
    /// The node has no address of the required family.
    NoAddress,
    /// An interface was already attached to a link or channel.
    AlreadyAttached,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::PortInUse => f.write_str("port is already bound"),
            NetError::NoAddress => f.write_str("node has no address of the required family"),
            NetError::AlreadyAttached => f.write_str("interface is already attached"),
        }
    }
}

impl std::error::Error for NetError {}

/// Decision of an ingress filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVerdict {
    /// Let the packet through.
    Allow,
    /// Drop the packet (counted as [`DropReason::Filtered`]).
    Drop,
}

/// Folds one pending event into a checkpoint digest. Every variant gets a
/// distinct tag; 8 is unused, and renumbering 9 would change the digest
/// of every stored checkpoint.
fn digest_event(h: &mut StateHasher, event: &Event) {
    match event {
        Event::AppStart(app) => {
            h.write_bytes(&[0]);
            h.write_usize(app.node().index());
            h.write_usize(app.slot());
        }
        Event::Timer { app, token } => {
            h.write_bytes(&[1]);
            h.write_usize(app.node().index());
            h.write_usize(app.slot());
            h.write_u64(*token);
        }
        Event::TxComplete { link, side, gen } => {
            h.write_bytes(&[2]);
            h.write_usize(link.index());
            h.write_usize(*side);
            h.write_u64(*gen);
        }
        Event::Deliver { iface, packet, epoch } => {
            h.write_bytes(&[3]);
            h.write_usize(iface.index());
            packet.state_digest(h);
            match epoch {
                None => h.write_bool(false),
                Some((link, e)) => {
                    h.write_bool(true);
                    h.write_usize(link.index());
                    h.write_u64(*e);
                }
            }
        }
        Event::WifiAttempt { chan, station } => {
            h.write_bytes(&[4]);
            h.write_usize(chan.index());
            h.write_usize(*station);
        }
        Event::WifiTxComplete { chan, station, gen } => {
            h.write_bytes(&[5]);
            h.write_usize(chan.index());
            h.write_usize(*station);
            h.write_u64(*gen);
        }
        Event::TcpRto { node, conn, seq } => {
            h.write_bytes(&[6]);
            h.write_usize(node.index());
            h.write_u64(*conn);
            h.write_u64(*seq);
        }
        Event::SetNode { node, up } => {
            h.write_bytes(&[7]);
            h.write_usize(node.index());
            h.write_bool(*up);
        }
        Event::Forkable(call) => {
            h.write_bytes(&[9]);
            h.write_str(call.digest_label());
        }
    }
}

enum Event {
    AppStart(AppId),
    Timer { app: AppId, token: u64 },
    TxComplete { link: LinkId, side: usize, gen: u64 },
    /// `epoch` is `Some((link, link_epoch_at_tx))` for frames in flight on a
    /// point-to-point link; a link-down flap bumps the link's epoch, so the
    /// pending delivery detects it went stale and drops instead of
    /// delivering. Loopback and Wi-Fi deliveries carry `None`.
    Deliver { iface: IfaceId, packet: Packet, epoch: Option<(LinkId, u64)> },
    WifiAttempt { chan: ChannelId, station: usize },
    WifiTxComplete { chan: ChannelId, station: usize, gen: u64 },
    TcpRto { node: NodeId, conn: u64, seq: u64 },
    SetNode { node: NodeId, up: bool },
    /// A scheduled callback: explicit captured data plus a `fn` pointer,
    /// so a pending call can be deep-cloned into a fork (see
    /// [`crate::fork`]).
    Forkable(Box<dyn ForkableCall>),
}

impl Event {
    /// Deep-clones a pending event into a forked world: every variant is
    /// plain data except `Forkable`, which clones through the map.
    fn fork(&self, map: &ForkMap) -> Event {
        match self {
            Event::AppStart(app) => Event::AppStart(*app),
            Event::Timer { app, token } => Event::Timer { app: *app, token: *token },
            Event::TxComplete { link, side, gen } => {
                Event::TxComplete { link: *link, side: *side, gen: *gen }
            }
            Event::Deliver { iface, packet, epoch } => {
                Event::Deliver { iface: *iface, packet: packet.clone(), epoch: *epoch }
            }
            Event::WifiAttempt { chan, station } => {
                Event::WifiAttempt { chan: *chan, station: *station }
            }
            Event::WifiTxComplete { chan, station, gen } => {
                Event::WifiTxComplete { chan: *chan, station: *station, gen: *gen }
            }
            Event::TcpRto { node, conn, seq } => {
                Event::TcpRto { node: *node, conn: *conn, seq: *seq }
            }
            Event::SetNode { node, up } => Event::SetNode { node: *node, up: *up },
            Event::Forkable(call) => Event::Forkable(call.fork(map)),
        }
    }
}

/// The discrete-event network simulator.
///
/// Owns the world: nodes, interfaces, links, channels, applications, and the
/// event queue. Deterministic for a given seed and configuration.
///
/// # Examples
///
/// ```
/// use netsim::{Simulator, SimTime};
///
/// let mut sim = Simulator::new(42);
/// let a = sim.add_node("a");
/// assert_eq!(sim.node(a).name(), "a");
/// sim.run_until(SimTime::from_secs(1));
/// assert_eq!(sim.now(), SimTime::from_secs(1));
/// ```
pub struct Simulator {
    now: SimTime,
    queue: EventQueue<Event>,
    seq: u64,
    next_packet_id: u64,
    /// Struct-of-arrays node arena: hot fields (`up`, `forwarding`, route
    /// tables, rx counters) are dense parallel vectors indexed by
    /// `NodeId::index`, names are interned `u32` ids. See node.rs.
    nodes: Nodes,
    ifaces: Vec<Iface>,
    links: Vec<P2pLink>,
    channels: Vec<WifiChannel>,
    apps: Vec<Vec<Option<Box<dyn Application>>>>,
    /// Per-node TCP stacks, allocated on first use (an incoming
    /// segment, a listen, or a connect). UDP-only nodes — the vast
    /// majority of a 100k-device world — pay one pointer here instead
    /// of an inline stack of map headers.
    tcp: Vec<Option<Box<TcpStack>>>,
    addr_index: FastMap<IpAddr, IfaceId>,
    rng: SmallRng,
    /// Separate stream for injected wired-link loss draws: loss faults
    /// perturb only this RNG, so enabling them never shifts the jitter /
    /// backoff / churn draws of the main event stream. Only consulted when
    /// a link's `loss_probability` is nonzero.
    fault_rng: SmallRng,
    stats: Stats,
    trace: Option<TraceHook>,
    telemetry: Telemetry,
    /// Overflow-sweep count already reported to the flight recorder.
    reported_sweeps: u64,
    buffered_now: u64,
    /// Deployed defense rules per node; each stack sees every packet
    /// arriving at its node, transit traffic included. Kept ordered so
    /// the `netsim.filters` digest layer walks nodes deterministically.
    node_filters: BTreeMap<NodeId, FilterStack>,
    /// Simulator-global source blocklist enforced by
    /// [`FilterRule::Blocklist`] rules; honeypot applications feed it.
    blocklist: BTreeSet<IpAddr>,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("channels", &self.channels.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl Simulator {
    /// Creates an empty simulator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            seq: 0,
            next_packet_id: 1,
            nodes: Nodes::default(),
            ifaces: Vec::new(),
            links: Vec::new(),
            channels: Vec::new(),
            apps: Vec::new(),
            tcp: Vec::new(),
            addr_index: FastMap::default(),
            rng: SmallRng::seed_from_u64(seed),
            fault_rng: SmallRng::seed_from_u64(seed ^ 0xFA17),
            stats: Stats::default(),
            trace: None,
            telemetry: Telemetry::disabled(),
            reported_sweeps: 0,
            buffered_now: 0,
            node_filters: BTreeMap::new(),
            blocklist: BTreeSet::new(),
        }
    }

    /// Appends a filter rule to the node's defense stack. Rules survive
    /// [`Simulator::fork`] and fold into the `netsim.filters` checkpoint
    /// digest layer; they run in push order and the first drop wins.
    pub fn push_node_filter(&mut self, node: NodeId, rule: FilterRule) {
        self.node_filters.entry(node).or_default().push(rule);
    }

    /// Removes every filter rule from the node.
    pub fn clear_node_filters(&mut self, node: NodeId) {
        self.node_filters.remove(&node);
    }

    /// Number of filter rules deployed on the node.
    pub fn node_filter_count(&self, node: NodeId) -> usize {
        self.node_filters.get(&node).map_or(0, FilterStack::len)
    }

    /// Adds an address to the simulator-global source blocklist enforced
    /// by [`FilterRule::Blocklist`] rules. Returns `true` if the address
    /// was newly inserted.
    pub fn blocklist_insert(&mut self, addr: IpAddr) -> bool {
        self.blocklist.insert(addr)
    }

    /// Number of addresses on the global blocklist.
    pub fn blocklist_len(&self) -> usize {
        self.blocklist.len()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The simulator's random-number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Reseeds the fault-injection RNG (wired-link loss draws). A fault
    /// plan's own seed folds in here so two plans with different seeds
    /// sample different loss patterns under the same simulation seed.
    pub fn reseed_fault_rng(&mut self, seed: u64) {
        self.fault_rng = SmallRng::seed_from_u64(seed);
    }

    /// Reseeds the main RNG stream. Divergence-point seeding for forks:
    /// the simulator does not retain its construction seed, so the caller
    /// derives the fork's stream from its own configuration (e.g.
    /// `sim_seed ^ fork_seed ^ LAYER_TAG`) and installs it here.
    pub fn reseed_rng(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
    }

    /// Installs a packet trace hook (a Wireshark-lite observer).
    pub fn set_trace(&mut self, hook: TraceHook) {
        self.trace = Some(hook);
    }

    /// Installs the telemetry handle; the simulator emits flight-recorder
    /// events (drops, Wi-Fi contention, retransmits, queue sweeps, admin
    /// transitions) through it. The default handle is disabled and the
    /// emission sites cost one branch each.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry handle (disabled unless [`Simulator::set_telemetry`]
    /// was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    // ----- topology construction -------------------------------------------------

    /// Adds a node with the given name.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let name = name.into();
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(&name);
        self.apps.push(Vec::new());
        self.tcp.push(None);
        id
    }

    /// Returns a read-only view of a node in the arena.
    ///
    /// # Panics
    ///
    /// Accessors panic if `id` was not returned by [`Simulator::add_node`].
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        NodeRef::new(&self.nodes, id.index())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node's TCP stack, allocated on first touch. A freshly
    /// materialized stack behaves identically to one allocated at
    /// `add_node` time (counters start at their initial values either
    /// way), so laziness never shows up in traces or digests.
    fn tcp_stack_mut(&mut self, node: NodeId) -> &mut TcpStack {
        self.tcp[node.index()].get_or_insert_with(|| Box::new(TcpStack::new(node)))
    }

    /// Enables or disables unicast forwarding (router behaviour) on a node.
    pub(crate) fn set_forwarding(&mut self, node: NodeId, enabled: bool) {
        self.nodes.forwarding[node.index()] = enabled;
    }

    /// Enables or disables multicast relaying on a node. A multicast relay
    /// re-emits multicast packets out of every interface except the ingress
    /// one, modelling the LAN fabric of the paper's simulated network (the
    /// DHCPv6 exploit path needs multicast to reach all Devs).
    pub(crate) fn set_multicast_relay(&mut self, node: NodeId, enabled: bool) {
        self.nodes.forward_multicast[node.index()] = enabled;
    }

    /// Installs an interface with the given addresses on a node.
    pub fn add_iface(&mut self, node: NodeId, addrs: Vec<IpAddr>) -> IfaceId {
        let id = IfaceId::from_index(self.ifaces.len());
        for addr in &addrs {
            // The local-delivery fast path resolves ownership through this
            // index, so an address must belong to exactly one interface.
            assert!(
                self.addr_index.insert(*addr, id).is_none(),
                "address {addr} assigned to two interfaces"
            );
            self.nodes.note_addr(node.index(), *addr);
        }
        self.ifaces.push(Iface {
            node,
            addrs,
            attachment: None,
            multicast_groups: Vec::new(),
        });
        self.nodes.ifaces[node.index()].push(id);
        id
    }

    /// Returns an interface by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Simulator::add_iface`].
    pub fn iface(&self, id: IfaceId) -> &Iface {
        &self.ifaces[id.index()]
    }

    /// Connects two interfaces with a point-to-point link.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::AlreadyAttached`] if either interface is already
    /// attached.
    pub fn connect_p2p(
        &mut self,
        a: IfaceId,
        b: IfaceId,
        config: LinkConfig,
    ) -> Result<LinkId, NetError> {
        if self.ifaces[a.index()].attachment.is_some()
            || self.ifaces[b.index()].attachment.is_some()
        {
            return Err(NetError::AlreadyAttached);
        }
        let id = LinkId::from_index(self.links.len());
        self.links.push(P2pLink::new(config, a, b));
        self.ifaces[a.index()].attachment = Some(Attachment::P2p { link: id, side: 0 });
        self.ifaces[b.index()].attachment = Some(Attachment::P2p { link: id, side: 1 });
        Ok(id)
    }

    /// Creates a shared Wi-Fi-like channel.
    pub fn add_wifi_channel(&mut self, config: WifiConfig) -> ChannelId {
        let id = ChannelId::from_index(self.channels.len());
        self.channels.push(WifiChannel::new(config));
        id
    }

    /// Attaches an interface as a station on a Wi-Fi channel.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::AlreadyAttached`] if the interface is attached.
    pub fn attach_wifi(&mut self, iface: IfaceId, chan: ChannelId) -> Result<usize, NetError> {
        if self.ifaces[iface.index()].attachment.is_some() {
            return Err(NetError::AlreadyAttached);
        }
        let station = self.channels[chan.index()].add_station(iface);
        self.ifaces[iface.index()].attachment = Some(Attachment::Wifi { channel: chan, station });
        Ok(station)
    }

    /// Applies application-level egress shaping to a station: successive
    /// transmission starts are spaced as if the station sent at `rate_bps`,
    /// while each frame still occupies the medium at the PHY rate. Models
    /// the paper's rate-limited Raspberry Pis (100–500 kbps).
    ///
    /// # Panics
    ///
    /// Panics if `iface` is not attached to `chan`.
    pub fn set_wifi_station_shaping(&mut self, chan: ChannelId, iface: IfaceId, rate_bps: u64) {
        let station = self.channels[chan.index()]
            .station_of(iface)
            .expect("iface must be attached to the channel");
        self.channels[chan.index()].set_station_shaping(station, rate_bps);
    }

    /// Designates a station interface as the channel's gateway (the access
    /// point / router uplink): unicast frames whose destination is not a
    /// station on the channel are handed to the gateway for forwarding.
    pub fn set_wifi_gateway(&mut self, chan: ChannelId, iface: IfaceId) {
        let station = self.channels[chan.index()]
            .station_of(iface)
            .expect("gateway iface must be attached to the channel");
        self.channels[chan.index()].gateway = Some(station);
    }

    /// Adds a static route on a node.
    pub fn add_route(&mut self, node: NodeId, prefix: IpAddr, prefix_len: u8, iface: IfaceId) {
        self.nodes.routes[node.index()].push(Route {
            prefix,
            prefix_len,
            iface,
        });
    }

    /// Adds default routes (both families) out of `iface`.
    pub fn add_default_route(&mut self, node: NodeId, iface: IfaceId) {
        self.add_route(node, IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED), 0, iface);
        self.add_route(node, IpAddr::V6(std::net::Ipv6Addr::UNSPECIFIED), 0, iface);
    }

    /// Removes every route on `node` matching `prefix`/`prefix_len` exactly,
    /// returning how many were removed. The node's route cache is
    /// invalidated if anything changed.
    pub fn remove_route(&mut self, node: NodeId, prefix: IpAddr, prefix_len: u8) -> usize {
        self.nodes.routes[node.index()].remove(prefix, prefix_len)
    }

    /// Resolves the egress route for `dst` on `node` exactly as the
    /// forwarding hot path does: through the epoch-invalidated route cache
    /// ([`NodeRef::route_for`] is the reference linear scan tests compare
    /// it with).
    pub fn resolve_route(&mut self, node: NodeId, dst: IpAddr) -> Option<Route> {
        self.nodes.routes[node.index()].lookup(dst)
    }

    /// First address of the given family on any of the node's interfaces
    /// (in interface install order). Interface address lists are
    /// append-only, so the arena memoizes the answer per family.
    pub(crate) fn node_addr(&self, node: NodeId, want_v6: bool) -> Option<IpAddr> {
        if want_v6 {
            self.nodes.first_v6[node.index()]
        } else {
            self.nodes.first_v4[node.index()]
        }
    }

    /// Resolves which node owns `addr`, if any.
    pub fn node_by_addr(&self, addr: IpAddr) -> Option<NodeId> {
        self.addr_index.get(&addr).map(|i| self.ifaces[i.index()].node)
    }

    // ----- applications ----------------------------------------------------------

    /// Installs an application on a node; its `on_start` runs at the current
    /// simulated time once the event loop reaches it.
    pub fn install_app(&mut self, node: NodeId, app: Box<dyn Application>) -> AppId {
        let slot = self.apps[node.index()].len() as u32;
        let id = AppId { node, slot };
        self.apps[node.index()].push(Some(app));
        self.schedule(self.now, Event::AppStart(id));
        id
    }

    /// Downcasts an installed application to its concrete type.
    pub fn app_ref<T: Application>(&self, id: AppId) -> Option<&T> {
        let app = self.apps.get(id.node.index())?.get(id.slot())?.as_deref()?;
        (app as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable variant of [`Simulator::app_ref`].
    pub fn app_mut<T: Application>(&mut self, id: AppId) -> Option<&mut T> {
        let app = self
            .apps
            .get_mut(id.node.index())?
            .get_mut(id.slot())?
            .as_deref_mut()?;
        (app as &mut dyn Any).downcast_mut::<T>()
    }

    /// Removes an application from its node. Its UDP binds are released;
    /// pending timers for it are silently dropped when they fire.
    pub fn remove_app(&mut self, id: AppId) {
        if let Some(slot) = self
            .apps
            .get_mut(id.node.index())
            .and_then(|v| v.get_mut(id.slot()))
        {
            *slot = None;
        }
        self.nodes.udp_binds[id.node.index()].retain(|_, owner| *owner != id);
        // A dead process's sockets do not linger: close its connections
        // (FIN notifies the peers) and release its listeners. On a node
        // that is already down the stack was reset, so nothing escapes.
        let actions = match self.tcp[id.node.index()].as_mut() {
            Some(stack) => stack.close_owned_by(id),
            None => Vec::new(),
        };
        self.process_tcp_actions(id.node, actions);
    }

    // ----- node administration ---------------------------------------------------

    /// Takes a node down or brings it up immediately, flushing transport
    /// state and notifying its applications. Prefer
    /// [`Simulator::schedule_node_admin`] from within application callbacks.
    pub fn set_node_admin(&mut self, node: NodeId, up: bool) {
        let idx = node.index();
        if self.nodes.up[idx] == up {
            return;
        }
        self.nodes.up[idx] = up;
        // Admin flaps invalidate the node's route cache: resolution itself
        // does not read admin state today, but keeping the cache's epoch in
        // lockstep with topology-affecting changes is cheap and means a
        // future admin-aware lookup cannot silently serve stale entries.
        self.nodes.routes[idx].invalidate();
        self.telemetry.record_event(
            self.now.as_nanos(),
            Some(node.index() as u32),
            Category::NodeAdmin,
            || {
                format!(
                    "{} {}",
                    self.nodes.name(node.index()),
                    if up { "up" } else { "down" }
                )
            },
        );
        if !up {
            // Flush egress queues on all attached links/channels.
            let ifaces = self.nodes.ifaces[node.index()].clone();
            for iface in ifaces {
                match self.ifaces[iface.index()].attachment {
                    Some(Attachment::P2p { link, .. }) => {
                        let before = self.links[link.index()].buffered_bytes();
                        let n = self.links[link.index()].flush();
                        let after = self.links[link.index()].buffered_bytes();
                        self.adjust_buffered(before, after);
                        for _ in 0..n {
                            self.stats.record_drop(DropReason::NodeDown);
                        }
                    }
                    Some(Attachment::Wifi { channel, station }) => {
                        let before = self.channels[channel.index()].buffered_bytes();
                        let n = self.channels[channel.index()].flush_station(station);
                        let after = self.channels[channel.index()].buffered_bytes();
                        self.adjust_buffered(before, after);
                        for _ in 0..n {
                            self.stats.record_drop(DropReason::NodeDown);
                        }
                    }
                    None => {}
                }
            }
            if let Some(stack) = self.tcp[node.index()].as_mut() {
                stack.reset_all();
            }
        }
        let app_count = self.apps[node.index()].len();
        for slot in 0..app_count {
            let id = AppId {
                node,
                slot: slot as u32,
            };
            self.with_app(id, |app, ctx| {
                if up {
                    app.on_node_up(ctx);
                } else {
                    app.on_node_down(ctx);
                }
            });
        }
    }

    /// Schedules a node up/down transition at the current time (processed as
    /// its own event, safe to call from application callbacks).
    pub(crate) fn schedule_node_admin(&mut self, node: NodeId, up: bool) {
        self.schedule(self.now, Event::SetNode { node, up });
    }

    // ----- link administration (fault injection) --------------------------------

    /// Takes a point-to-point link down or brings it back up.
    ///
    /// Going down drops every queued frame (counted as
    /// [`DropReason::LinkDown`]) and bumps the link's epoch so frames
    /// already in flight are dropped at their would-be delivery instant
    /// instead of arriving after the flap. While down, everything offered
    /// to the link is dropped at enqueue. Going up restores service for
    /// frames transmitted from then on.
    pub fn set_link_admin(&mut self, link: LinkId, up: bool) {
        let l = &mut self.links[link.index()];
        if l.admin_up == up {
            return;
        }
        l.admin_up = up;
        // Invalidate both endpoint nodes' route caches (see set_node_admin).
        for side in 0..2 {
            let iface = self.links[link.index()].endpoints[side];
            let node = self.ifaces[iface.index()].node;
            self.nodes.routes[node.index()].invalidate();
        }
        let l = &mut self.links[link.index()];
        let mut flushed = 0;
        if !up {
            l.epoch += 1;
            let before = l.buffered_bytes();
            flushed = l.flush();
            let after = self.links[link.index()].buffered_bytes();
            self.adjust_buffered(before, after);
            for _ in 0..flushed {
                self.stats.record_drop(DropReason::LinkDown);
            }
        }
        self.telemetry.record_event(
            self.now.as_nanos(),
            None,
            Category::LinkAdmin,
            || {
                if up {
                    format!("link {} admin up", link.index())
                } else {
                    format!("link {} admin down ({flushed} queued frames dropped)", link.index())
                }
            },
        );
    }

    /// Sets the per-frame corruption/loss probability of a point-to-point
    /// link at runtime (fault injection). Clamped to `[0, 1]` at draw time;
    /// the loss RNG is only consulted while the probability is nonzero.
    pub fn set_link_loss(&mut self, link: LinkId, probability: f64) {
        self.links[link.index()].config.loss_probability = probability;
        self.telemetry.record_event(
            self.now.as_nanos(),
            None,
            Category::LinkAdmin,
            || format!("link {} loss probability set to {probability}", link.index()),
        );
    }

    /// The point-to-point links attached to `node`'s interfaces, in
    /// interface order (a star member's single access link comes first).
    pub fn node_p2p_links(&self, node: NodeId) -> Vec<LinkId> {
        self.nodes.ifaces[node.index()]
            .iter()
            .filter_map(|i| match self.ifaces[i.index()].attachment {
                Some(Attachment::P2p { link, .. }) => Some(link),
                _ => None,
            })
            .collect()
    }

    /// Schedules a callback at `at`: `data` plus a plain `fn` pointer
    /// rather than an opaque closure, so the pending call can be
    /// deep-cloned by [`Simulator::fork`]. `label` is a stable name folded
    /// into event-queue digests (and shown in debug output).
    pub fn schedule_forkable_call<T: ForkClone + 'static>(
        &mut self,
        at: SimTime,
        label: &'static str,
        data: T,
        f: fn(&mut Simulator, T),
    ) {
        self.schedule(at, Event::Forkable(Box::new(ForkableFn { data, f, label })));
    }

    /// Schedules a forkable callback `after` from now (see
    /// [`Simulator::schedule_forkable_call`]).
    pub fn schedule_forkable_call_after<T: ForkClone + 'static>(
        &mut self,
        after: Duration,
        label: &'static str,
        data: T,
        f: fn(&mut Simulator, T),
    ) {
        self.schedule_forkable_call(self.now + after, label, data, f);
    }

    // ----- run loop ----------------------------------------------------------------

    fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at.max(self.now), seq, event);
    }

    /// Runs the event loop until `horizon`; the clock ends exactly at
    /// `horizon` even if the queue drains early.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some((time, _)) = self.queue.peek_key() {
            if time > horizon {
                break;
            }
            let (time, _, event) = self.queue.pop().expect("peeked entry exists");
            self.now = time;
            self.stats.events_executed += 1;
            self.handle(event);
            if self.telemetry.records_events() {
                let sweeps = self.queue.overflow_sweeps();
                if sweeps != self.reported_sweeps {
                    let delta = sweeps - self.reported_sweeps;
                    self.reported_sweeps = sweeps;
                    self.telemetry.record_event(self.now.as_nanos(), None, Category::QueueSweep, || {
                        format!("{delta} overdue overflow events swept (lifetime {sweeps})")
                    });
                }
            }
        }
        if self.now < horizon {
            self.now = horizon;
        }
    }

    /// Largest number of events that were ever pending simultaneously.
    pub fn peak_pending_events(&self) -> usize {
        self.queue.peak_len()
    }

    /// Per-layer determinism digests of everything the simulator owns,
    /// as `(layer name, digest)` pairs in a fixed order.
    ///
    /// This is the core of checkpoint verification: a checkpoint stores
    /// these digests at save time, and resume recomputes them after
    /// replaying to the checkpoint instant. Layers are digested
    /// separately so a mismatch names the diverging subsystem (queue,
    /// nodes, links, wifi, tcp, rng, stats, or apps) instead of a single
    /// opaque "state differs".
    pub fn state_digests(&self) -> Vec<(&'static str, u64)> {
        let mut layers = Vec::with_capacity(8);

        // Event queue: entries are visited in arbitrary internal order, so
        // digest each one into a sub-hash and sort by the (time, seq) total
        // order before folding.
        let mut entries: Vec<(u64, u64, u64)> = Vec::with_capacity(self.queue.len());
        self.queue.for_each_entry(|time, seq, event| {
            let mut sub = StateHasher::new();
            digest_event(&mut sub, event);
            entries.push((time, seq, sub.finish()));
        });
        entries.sort_unstable_by_key(|&(time, seq, _)| (time, seq));
        let mut h = StateHasher::new();
        h.write_usize(entries.len());
        for (time, seq, digest) in entries {
            h.write_u64(time);
            h.write_u64(seq);
            h.write_u64(digest);
        }
        layers.push(("netsim.queue", h.finish()));

        // Nodes: walked through the arena, emitting per node the exact byte
        // sequence the pre-arena per-struct digest produced.
        let mut h = StateHasher::new();
        h.write_usize(self.nodes.len());
        for idx in 0..self.nodes.len() {
            self.nodes.node_digest(idx, &mut h);
        }
        h.write_usize(self.ifaces.len());
        for iface in &self.ifaces {
            iface.state_digest(&mut h);
        }
        layers.push(("netsim.nodes", h.finish()));

        let mut h = StateHasher::new();
        h.write_usize(self.links.len());
        for link in &self.links {
            link.state_digest(&mut h);
        }
        layers.push(("netsim.links", h.finish()));

        let mut h = StateHasher::new();
        h.write_usize(self.channels.len());
        for chan in &self.channels {
            chan.state_digest(&mut h);
        }
        layers.push(("netsim.wifi", h.finish()));

        let mut h = StateHasher::new();
        h.write_usize(self.tcp.len());
        for (i, stack) in self.tcp.iter().enumerate() {
            match stack {
                Some(s) => s.state_digest(&mut h),
                // A never-touched stack digests as a fresh one: lazy
                // allocation is invisible to the determinism surface.
                None => TcpStack::new(NodeId::from_index(i)).state_digest(&mut h),
            }
        }
        layers.push(("netsim.tcp", h.finish()));

        // RNG streams plus the deterministic counters they advance with.
        let mut h = StateHasher::new();
        for w in self.rng.state_words() {
            h.write_u64(w);
        }
        for w in self.fault_rng.state_words() {
            h.write_u64(w);
        }
        h.write_u64(self.seq);
        h.write_u64(self.next_packet_id);
        h.write_u64(self.now.as_nanos());
        layers.push(("netsim.rng", h.finish()));

        let mut h = StateHasher::new();
        let s = &self.stats;
        for v in [
            s.packets_sent,
            s.packets_delivered,
            s.bytes_delivered,
            s.dropped_queue_overflow,
            s.dropped_node_down,
            s.dropped_ttl,
            s.dropped_no_route,
            s.dropped_port_unreachable,
            s.wifi_collisions,
            s.dropped_wifi_retries,
            s.dropped_wifi_loss,
            s.dropped_filtered,
            s.dropped_link_down,
            s.dropped_link_loss,
            s.peak_buffered_bytes,
            s.events_executed,
        ] {
            h.write_u64(v);
        }
        h.write_u64(self.buffered_now);
        h.write_u64(self.reported_sweeps);
        layers.push(("netsim.stats", h.finish()));

        let mut h = StateHasher::new();
        for (node_idx, slots) in self.apps.iter().enumerate() {
            for (slot, app) in slots.iter().enumerate() {
                if let Some(app) = app {
                    h.write_usize(node_idx);
                    h.write_usize(slot);
                    h.write_str(app.name());
                    app.state_digest(&mut h);
                }
            }
        }
        layers.push(("apps", h.finish()));

        // Defense rules and the global blocklist.
        let mut h = StateHasher::new();
        h.write_usize(self.node_filters.len());
        for (node, stack) in &self.node_filters {
            h.write_usize(node.index());
            stack.state_digest(&mut h);
        }
        h.write_usize(self.blocklist.len());
        for addr in &self.blocklist {
            h.write_ip(*addr);
        }
        layers.push(("netsim.filters", h.finish()));

        layers
    }

    /// Deep-clones the live world into an independent simulator — the
    /// in-memory fork behind checkpoint-forked scenario trees. The fork
    /// shares nothing mutable with the parent: nodes, links, channels,
    /// transport stacks, both RNG streams (at their exact positions), and
    /// every pending event are duplicated; applications are cloned through
    /// their own [`Application::fork`], translating shared handles via
    /// `map`. The fork starts with tracing and telemetry disabled — the
    /// caller installs fresh handles (a forked recorder continues at the
    /// parent's event count).
    ///
    /// # Errors
    ///
    /// Fails — naming the obstacle — when the world holds state that
    /// cannot be cloned: an application whose [`Application::fork`]
    /// returns `None`.
    pub fn fork(&self, map: &ForkMap) -> Result<Simulator, String> {
        let queue = self.queue.clone_with(|event| event.fork(map));
        let mut apps: Vec<Vec<Option<Box<dyn Application>>>> = Vec::with_capacity(self.apps.len());
        for (node_idx, slots) in self.apps.iter().enumerate() {
            let mut forked = Vec::with_capacity(slots.len());
            for (slot, app) in slots.iter().enumerate() {
                match app {
                    None => forked.push(None),
                    Some(app) => match app.fork(map) {
                        Some(clone) => forked.push(Some(clone)),
                        None => {
                            return Err(format!(
                                "cannot fork: application '{}' (node {node_idx}, slot {slot}) \
                                 does not implement fork",
                                app.name()
                            ))
                        }
                    },
                }
            }
            apps.push(forked);
        }
        Ok(Simulator {
            now: self.now,
            queue,
            seq: self.seq,
            next_packet_id: self.next_packet_id,
            nodes: self.nodes.clone(),
            ifaces: self.ifaces.clone(),
            links: self.links.clone(),
            channels: self.channels.clone(),
            apps,
            tcp: self.tcp.clone(),
            addr_index: self.addr_index.clone(),
            // SmallRng is plain state; Clone resumes the exact stream
            // position, so a seed-0 fork draws identically to the parent.
            rng: self.rng.clone(),
            fault_rng: self.fault_rng.clone(),
            stats: self.stats.clone(),
            trace: None,
            telemetry: Telemetry::disabled(),
            reported_sweeps: self.reported_sweeps,
            buffered_now: self.buffered_now,
            node_filters: self.node_filters.clone(),
            blocklist: self.blocklist.clone(),
        })
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::AppStart(id) => {
                self.with_app(id, |app, ctx| app.on_start(ctx));
            }
            Event::Timer { app, token } => {
                self.with_app(app, |app, ctx| app.on_timer(ctx, token));
            }
            Event::TxComplete { link, side, gen } => self.on_tx_complete(link, side, gen),
            Event::Deliver { iface, packet, epoch } => self.on_deliver(iface, packet, epoch),
            Event::WifiAttempt { chan, station } => self.on_wifi_attempt(chan, station),
            Event::WifiTxComplete { chan, station, gen } => {
                self.on_wifi_tx_complete(chan, station, gen)
            }
            Event::TcpRto { node, conn, seq } => {
                let actions = self.tcp_stack_mut(node).on_rto(conn, seq);
                if !actions.is_empty() {
                    self.telemetry.record_event(
                        self.now.as_nanos(),
                        Some(node.index() as u32),
                        Category::TcpRetransmit,
                        || format!("conn {conn} rto fired for seq {seq}"),
                    );
                }
                self.process_tcp_actions(node, actions);
            }
            Event::SetNode { node, up } => self.set_node_admin(node, up),
            Event::Forkable(call) => call.call(self),
        }
    }

    fn with_app(&mut self, id: AppId, f: impl FnOnce(&mut dyn Application, &mut Ctx<'_>)) {
        let Some(slot) = self
            .apps
            .get_mut(id.node.index())
            .and_then(|v| v.get_mut(id.slot()))
        else {
            return;
        };
        let Some(mut app) = slot.take() else {
            return;
        };
        let mut ctx = Ctx { sim: self, app_id: id, removed: false };
        f(app.as_mut(), &mut ctx);
        let removed = ctx.removed;
        if removed {
            self.remove_app(id);
        } else if let Some(slot) = self
            .apps
            .get_mut(id.node.index())
            .and_then(|v| v.get_mut(id.slot()))
        {
            *slot = Some(app);
        }
    }

    /// Offers a packet event to the capture the telemetry handle owns,
    /// then to the tap: the two are independent observers.
    fn trace(&mut self, kind: TraceKind, node: NodeId, pkt: &Packet) {
        if !self.telemetry.captures_packets() && self.trace.is_none() {
            return;
        }
        let rec = TraceRecord::for_packet(self.now, kind, node, pkt);
        self.telemetry.capture_packet(|| rec.capture_record());
        if let Some(hook) = self.trace.as_mut() {
            hook(&rec);
        }
    }

    fn drop_packet(&mut self, reason: DropReason, node: NodeId, pkt: &Packet) {
        self.stats.record_drop(reason);
        self.telemetry.record_event(
            self.now.as_nanos(),
            Some(node.index() as u32),
            Category::LinkDrop,
            || {
                format!(
                    "{} pkt {} {} -> {} ({}B)",
                    reason.as_str(),
                    pkt.id,
                    pkt.src,
                    pkt.dst,
                    pkt.wire_bytes()
                )
            },
        );
        self.trace(TraceKind::Dropped(reason), node, pkt);
    }

    // ----- send path ----------------------------------------------------------------

    /// Sends a fully-formed packet from `node` (assigns a packet id, routes,
    /// and transmits). Applications normally use the [`Ctx`] helpers instead.
    pub fn send_from_node(&mut self, node: NodeId, mut packet: Packet) {
        packet.id = self.next_packet_id;
        self.next_packet_id += 1;
        self.stats.packets_sent += 1;
        self.trace(TraceKind::Sent, node, &packet);
        self.route_and_transmit(node, packet, None);
    }

    fn is_local_addr(&self, node: NodeId, addr: IpAddr) -> bool {
        // One index probe + a `u32` node-id compare, instead of scanning
        // the node's interface address lists. `add_iface` asserts each
        // address belongs to exactly one interface, so the probe is
        // authoritative.
        self.addr_index
            .get(&addr)
            .map_or(false, |i| self.ifaces[i.index()].node == node)
    }

    fn joined_multicast(&self, node: NodeId, group: IpAddr) -> bool {
        self.nodes.ifaces[node.index()]
            .iter()
            .any(|i| self.ifaces[i.index()].multicast_groups.contains(&group))
    }

    fn route_and_transmit(&mut self, node: NodeId, packet: Packet, ingress: Option<IfaceId>) {
        if !self.nodes.up[node.index()] {
            self.drop_packet(DropReason::NodeDown, node, &packet);
            return;
        }
        if packet.is_multicast() {
            let ifaces = self.nodes.ifaces[node.index()].clone();
            for iface in ifaces {
                if Some(iface) == ingress {
                    continue;
                }
                if self.ifaces[iface.index()].attachment.is_some() {
                    self.transmit_on_iface(iface, packet.clone());
                }
            }
            return;
        }
        let dst = packet.dst.ip();
        if self.is_local_addr(node, dst) {
            // Loopback delivery through the event queue (no reentrancy).
            let iface = self.nodes.ifaces[node.index()].first().copied();
            if let Some(iface) = iface {
                self.schedule(self.now, Event::Deliver { iface, packet, epoch: None });
            }
            return;
        }
        self.transmit_via_route(node, packet);
    }

    /// Routes a unicast packet the caller knows is not for `node`, itself up.
    fn transmit_via_route(&mut self, node: NodeId, packet: Packet) {
        match self.resolve_route(node, packet.dst.ip()) {
            Some(route) => self.transmit_on_iface(route.iface, packet),
            None => self.drop_packet(DropReason::NoRoute, node, &packet),
        }
    }

    fn transmit_on_iface(&mut self, iface: IfaceId, packet: Packet) {
        let node = self.ifaces[iface.index()].node;
        match self.ifaces[iface.index()].attachment {
            None => self.drop_packet(DropReason::NoRoute, node, &packet),
            Some(Attachment::P2p { link, side }) => {
                if !self.links[link.index()].admin_up {
                    self.drop_packet(DropReason::LinkDown, node, &packet);
                    return;
                }
                let before = self.links[link.index()].buffered_bytes();
                let result = self.links[link.index()].enqueue(side, packet);
                let after = self.links[link.index()].buffered_bytes();
                self.adjust_buffered(before, after);
                match result {
                    Ok(true) => self.start_tx(link, side),
                    Ok(false) => {}
                    Err(p) => self.drop_packet(DropReason::QueueOverflow, node, &p),
                }
            }
            Some(Attachment::Wifi { channel, station }) => {
                let before = self.channels[channel.index()].buffered_bytes();
                let result = self.channels[channel.index()].enqueue(station, packet);
                let after = self.channels[channel.index()].buffered_bytes();
                self.adjust_buffered(before, after);
                match result {
                    Ok(()) => self.maybe_schedule_wifi_attempt(channel, station),
                    Err(p) => self.drop_packet(DropReason::QueueOverflow, node, &p),
                }
            }
        }
    }

    /// Records an incremental change to total buffered bytes and updates the
    /// high-water mark (the basis of Table I's attack-memory column).
    fn adjust_buffered(&mut self, before: u64, after: u64) {
        self.buffered_now = self.buffered_now + after - before.min(self.buffered_now + after);
        // The expression above is `buffered_now + after - before`, guarded
        // against underflow when a flush shrank state we never accounted.
        if self.buffered_now > self.stats.peak_buffered_bytes {
            self.stats.peak_buffered_bytes = self.buffered_now;
        }
    }

    /// Current bytes buffered across all link and channel queues.
    pub fn buffered_bytes(&self) -> u64 {
        self.buffered_now
    }

    /// Bytes currently queued on the point-to-point links attached to
    /// `node` (both directions). The telemetry sampler uses this to track
    /// per-node access-link congestion (e.g. the TServer uplink during the
    /// attack window).
    pub fn node_link_buffered_bytes(&self, node: NodeId) -> u64 {
        self.nodes.ifaces[node.index()]
            .iter()
            .filter_map(|i| match self.ifaces[i.index()].attachment {
                Some(Attachment::P2p { link, .. }) => {
                    Some(self.links[link.index()].buffered_bytes())
                }
                _ => None,
            })
            .sum()
    }

    fn start_tx(&mut self, link: LinkId, side: usize) {
        let l = &mut self.links[link.index()];
        l.dirs[side].tx_gen += 1;
        let gen = l.dirs[side].tx_gen;
        let epoch = l.epoch;
        let Some(head) = l.head(side) else { return };
        let wire = u64::from(head.wire_bytes());
        let rate = l.config.rate_bps;
        let prop = l.config.delay;
        let jitter_max = l.config.jitter;
        let loss_p = l.config.loss_probability;
        let peer = l.peer(side);
        let packet = head.clone();
        let txd = tx_delay(wire, rate);
        let jitter = if jitter_max.is_zero() {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.rng.gen_range(0..=jitter_max.as_nanos() as u64))
        };
        if self.telemetry.records_events() {
            let node = self.ifaces[self.links[link.index()].endpoint(side).index()].node;
            let pid = packet.id;
            self.telemetry.record_event(
                self.now.as_nanos(),
                Some(node.index() as u32),
                Category::LinkTx,
                || format!("link {} side {side} pkt {pid} {wire}B", link.index()),
            );
        }
        self.schedule(self.now + txd, Event::TxComplete { link, side, gen });
        // Injected wired loss mirrors the Wi-Fi loss model: the frame
        // occupies the transmitter for its full serialization time but is
        // corrupted on the wire and never arrives. The draw comes from the
        // dedicated fault RNG and only happens when the probability is
        // nonzero, so loss-free links leave every RNG stream untouched.
        if loss_p > 0.0 && self.fault_rng.gen_bool(loss_p.clamp(0.0, 1.0)) {
            let node = self.ifaces[self.links[link.index()].endpoint(side).index()].node;
            self.drop_packet(DropReason::LinkLoss, node, &packet);
            return;
        }
        self.schedule(
            self.now + txd + prop + jitter,
            Event::Deliver { iface: peer, packet, epoch: Some((link, epoch)) },
        );
    }

    fn on_tx_complete(&mut self, link: LinkId, side: usize, gen: u64) {
        if self.links[link.index()].dirs[side].tx_gen != gen {
            return; // stale event from before a flush
        }
        let before = self.links[link.index()].buffered_bytes();
        let _ = self.links[link.index()].pop_head(side);
        let has_next = self.links[link.index()].tx_complete(side).is_some();
        let after = self.links[link.index()].buffered_bytes();
        self.adjust_buffered(before, after);
        if has_next {
            self.start_tx(link, side);
        }
    }

    // ----- wifi ----------------------------------------------------------------------

    fn maybe_schedule_wifi_attempt(&mut self, chan: ChannelId, station: usize) {
        let c = &mut self.channels[chan.index()];
        let st = &mut c.stations[station];
        if st.attempt_pending || st.queue.is_empty() {
            return;
        }
        st.attempt_pending = true;
        let cw = c.cw_for_retries(c.stations[station].retries);
        let backoff_slots = self.rng.gen_range(0..cw);
        let c = &self.channels[chan.index()];
        let base_nanos = c
            .busy_until_nanos
            .max(self.now.as_nanos())
            .max(c.stations[station].next_allowed_tx_nanos);
        let at = SimTime::from_nanos(base_nanos)
            + c.config.difs
            + c.config.slot * backoff_slots;
        if self.telemetry.records_events() {
            let node = self.ifaces[c.stations[station].iface.index()].node;
            self.telemetry.record_event(
                self.now.as_nanos(),
                Some(node.index() as u32),
                Category::WifiBackoff,
                || {
                    format!(
                        "chan {} station {station} backoff {backoff_slots}/{cw} slots, attempt at {}ns",
                        chan.index(),
                        at.as_nanos()
                    )
                },
            );
        }
        self.schedule(at, Event::WifiAttempt { chan, station });
    }

    fn on_wifi_attempt(&mut self, chan: ChannelId, station: usize) {
        let medium_busy = {
            let c = &mut self.channels[chan.index()];
            c.stations[station].attempt_pending = false;
            if c.stations[station].queue.is_empty() {
                return;
            }
            c.busy_until_nanos > self.now.as_nanos()
        };
        // Medium busy: defer and retry after it frees (not a collision).
        if medium_busy {
            self.maybe_schedule_wifi_attempt(chan, station);
            return;
        }
        let node = {
            let iface = self.channels[chan.index()].stations[station].iface;
            self.ifaces[iface.index()].node
        };
        if !self.nodes.up[node.index()] {
            let before = self.channels[chan.index()].buffered_bytes();
            let n = self.channels[chan.index()].flush_station(station);
            let after = self.channels[chan.index()].buffered_bytes();
            self.adjust_buffered(before, after);
            for _ in 0..n {
                self.stats.record_drop(DropReason::NodeDown);
            }
            return;
        }
        let (collided, retries_exceeded) = {
            let c = &mut self.channels[chan.index()];
            let contenders = c.contenders();
            let cw = c.cw_for_retries(c.stations[station].retries);
            let p = c.collision_probability(contenders, cw);
            let collided = self.rng.gen_bool(p.clamp(0.0, 1.0));
            if collided {
                c.stations[station].retries += 1;
                let exceeded = c.stations[station].retries > c.config.max_retries;
                if exceeded {
                    c.stations[station].retries = 0;
                }
                (true, exceeded)
            } else {
                (false, false)
            }
        };
        if collided {
            self.stats.wifi_collisions += 1;
            self.telemetry.record_event(
                self.now.as_nanos(),
                Some(node.index() as u32),
                Category::WifiCollision,
                || {
                    format!(
                        "chan {} station {station} collided (retries exceeded: {retries_exceeded})",
                        chan.index()
                    )
                },
            );
            if retries_exceeded {
                let before = self.channels[chan.index()].buffered_bytes();
                let popped = self.channels[chan.index()].pop_head(station);
                let after = self.channels[chan.index()].buffered_bytes();
                self.adjust_buffered(before, after);
                if let Some(pkt) = popped {
                    self.drop_packet(DropReason::WifiRetryLimit, node, &pkt);
                }
            }
            self.maybe_schedule_wifi_attempt(chan, station);
            return;
        }
        // Successful medium acquisition: transmit the head frame.
        let (packet, txd, prop, gen) = {
            let c = &mut self.channels[chan.index()];
            c.stations[station].tx_gen += 1;
            c.stations[station].in_flight = true;
            let gen = c.stations[station].tx_gen;
            let head = c.head(station).expect("nonempty queue").clone();
            let txd = tx_delay(u64::from(head.wire_bytes()), c.config.rate_bps);
            let prop = c.config.delay;
            c.busy_until_nanos = (self.now + txd).as_nanos();
            (head, txd, prop, gen)
        };
        self.schedule(self.now + txd, Event::WifiTxComplete { chan, station, gen });
        self.deliver_wifi_frame(chan, station, packet, txd + prop);
    }

    fn deliver_wifi_frame(
        &mut self,
        chan: ChannelId,
        from_station: usize,
        packet: Packet,
        after: Duration,
    ) {
        let loss_p = self.channels[chan.index()].config.loss_probability;
        let deliver_to: Vec<IfaceId> = if packet.is_multicast() {
            self.channels[chan.index()]
                .stations
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != from_station)
                .map(|(_, s)| s.iface)
                .collect()
        } else {
            let dst_iface = self.addr_index.get(&packet.dst.ip()).copied();
            let c = &self.channels[chan.index()];
            let target = dst_iface
                .filter(|i| c.station_of(*i).is_some())
                .or_else(|| c.gateway.map(|g| c.stations[g].iface))
                .filter(|i| c.station_of(*i) != Some(from_station));
            target.into_iter().collect()
        };
        let node = self.ifaces[self.channels[chan.index()].stations[from_station].iface.index()].node;
        if deliver_to.is_empty() {
            self.drop_packet(DropReason::NoRoute, node, &packet);
            return;
        }
        for iface in deliver_to {
            if loss_p > 0.0 && self.rng.gen_bool(loss_p.clamp(0.0, 1.0)) {
                self.drop_packet(DropReason::WifiLoss, node, &packet);
                continue;
            }
            self.schedule(
                self.now + after,
                Event::Deliver {
                    iface,
                    packet: packet.clone(),
                    epoch: None,
                },
            );
        }
    }

    fn on_wifi_tx_complete(&mut self, chan: ChannelId, station: usize, gen: u64) {
        {
            let c = &mut self.channels[chan.index()];
            if c.stations[station].tx_gen != gen {
                return; // stale
            }
        }
        let before = self.channels[chan.index()].buffered_bytes();
        {
            let c = &mut self.channels[chan.index()];
            let popped = c.pop_head(station);
            c.stations[station].retries = 0;
            c.stations[station].in_flight = false;
            // Egress shaping: space transmission starts at the shaped rate
            // (the frame occupied the medium at the PHY rate; its *start*
            // was `tx_delay(wire, phy)` ago).
            if let (Some(pkt), Some(shape)) = (popped, c.stations[station].shaping_rate_bps) {
                let wire = u64::from(pkt.wire_bytes());
                let phy_txd = tx_delay(wire, c.config.rate_bps);
                let start_nanos = self.now.as_nanos().saturating_sub(phy_txd.as_nanos() as u64);
                let next = SimTime::from_nanos(start_nanos) + tx_delay(wire, shape);
                c.stations[station].next_allowed_tx_nanos = next.as_nanos();
            }
        }
        let after = self.channels[chan.index()].buffered_bytes();
        self.adjust_buffered(before, after);
        self.maybe_schedule_wifi_attempt(chan, station);
        // Other stations whose attempts deferred during busy reschedule on
        // their own pending events.
    }

    // ----- receive path ----------------------------------------------------------------

    fn on_deliver(&mut self, iface: IfaceId, mut packet: Packet, epoch: Option<(LinkId, u64)>) {
        let node = self.ifaces[iface.index()].node;
        // A frame transmitted before a link-down flap must not arrive after
        // it: the flap bumped the link epoch, so the stamp this delivery
        // carries no longer matches and the frame is charged to the flap.
        if let Some((link, stamped)) = epoch {
            if self.links[link.index()].epoch != stamped {
                self.drop_packet(DropReason::LinkDown, node, &packet);
                return;
            }
        }
        if !self.nodes.up[node.index()] {
            self.drop_packet(DropReason::NodeDown, node, &packet);
            return;
        }
        if let Some(stack) = self.node_filters.get_mut(&node) {
            if stack.verdict(&packet, self.now, &self.blocklist) == FilterVerdict::Drop {
                self.drop_packet(DropReason::Filtered, node, &packet);
                return;
            }
        }
        let dst = packet.dst.ip();
        if packet.is_multicast() {
            if self.joined_multicast(node, dst) {
                self.deliver_up(node, packet.clone());
            }
            if self.nodes.forward_multicast[node.index()] && packet.ttl > 1 {
                packet.ttl -= 1;
                self.trace(TraceKind::Forwarded, node, &packet);
                self.route_and_transmit(node, packet, Some(iface));
            }
            return;
        }
        if self.is_local_addr(node, dst) {
            self.deliver_up(node, packet);
            return;
        }
        if self.nodes.forwarding[node.index()] {
            if packet.ttl <= 1 {
                self.drop_packet(DropReason::TtlExpired, node, &packet);
                return;
            }
            packet.ttl -= 1;
            self.trace(TraceKind::Forwarded, node, &packet);
            // `dst` was just probed: not ours. One `addr_index` probe a hop.
            self.transmit_via_route(node, packet);
            return;
        }
        self.drop_packet(DropReason::NoRoute, node, &packet);
    }

    fn deliver_up(&mut self, node: NodeId, packet: Packet) {
        self.nodes.rx_packets[node.index()] += 1;
        self.nodes.rx_bytes[node.index()] += u64::from(packet.wire_bytes());
        match packet.proto {
            TransportProto::Udp => {
                let port = packet.dst.port();
                match self.nodes.udp_binds[node.index()].get(&port).copied() {
                    Some(app) => {
                        self.stats.packets_delivered += 1;
                        self.stats.bytes_delivered += u64::from(packet.wire_bytes());
                        self.trace(TraceKind::Delivered, node, &packet);
                        self.with_app(app, |a, ctx| a.on_packet(ctx, &packet));
                    }
                    None => self.drop_packet(DropReason::PortUnreachable, node, &packet),
                }
            }
            TransportProto::Tcp => {
                self.stats.packets_delivered += 1;
                self.stats.bytes_delivered += u64::from(packet.wire_bytes());
                self.trace(TraceKind::Delivered, node, &packet);
                let actions = self.tcp_stack_mut(node).on_segment(&packet);
                self.process_tcp_actions(node, actions);
            }
        }
    }

    fn process_tcp_actions(&mut self, node: NodeId, actions: Vec<TcpAction>) {
        for action in actions {
            match action {
                TcpAction::Send(pkt) => self.send_from_node(node, pkt),
                TcpAction::Event(app, ev) => {
                    self.with_app(app, |a, ctx| a.on_tcp(ctx, ev));
                }
                TcpAction::SetRto { conn, seq, after } => {
                    self.schedule(self.now + after, Event::TcpRto { node, conn, seq });
                }
            }
        }
    }
}

/// The context handle applications use to act on the world.
///
/// A `Ctx` is passed to every [`Application`] callback. It exposes the
/// simulated clock, RNG, sockets, timers, and node administration.
pub struct Ctx<'a> {
    sim: &'a mut Simulator,
    app_id: AppId,
    removed: bool,
}

impl fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx").field("app", &self.app_id).finish()
    }
}

impl Ctx<'_> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// The simulator RNG (deterministic per seed).
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.sim.rng
    }

    /// This application's id.
    pub fn app_id(&self) -> AppId {
        self.app_id
    }

    /// The node this application runs on.
    pub fn node_id(&self) -> NodeId {
        self.app_id.node
    }

    /// Whether this node is currently up.
    pub fn node_is_up(&self) -> bool {
        self.sim.nodes.up[self.app_id.node.index()]
    }

    /// This node's first address of the requested family.
    pub fn my_addr(&self, want_v6: bool) -> Option<IpAddr> {
        self.sim.node_addr(self.app_id.node, want_v6)
    }

    /// Escape hatch: the underlying simulator (for orchestration apps such
    /// as churn controllers that administer other nodes).
    pub fn sim(&mut self) -> &mut Simulator {
        self.sim
    }

    // ----- UDP -----

    /// Binds a UDP port to this application.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PortInUse`] if another app bound the port.
    pub fn udp_bind(&mut self, port: u16) -> Result<(), NetError> {
        let binds = &mut self.sim.nodes.udp_binds[self.app_id.node.index()];
        if binds.contains_key(&port) {
            return Err(NetError::PortInUse);
        }
        binds.insert(port, self.app_id);
        Ok(())
    }

    /// Binds an ephemeral UDP port and returns it.
    pub fn udp_bind_ephemeral(&mut self) -> u16 {
        let idx = self.app_id.node.index();
        let port = self.sim.nodes.alloc_ephemeral_port(idx);
        self.sim.nodes.udp_binds[idx].insert(port, self.app_id);
        port
    }

    /// Sends a UDP datagram from `src_port` to `dst`. The source address is
    /// chosen to match the destination family.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoAddress`] if the node has no address of the
    /// destination's family.
    pub fn udp_send(
        &mut self,
        src_port: u16,
        dst: SocketAddr,
        payload: Payload,
        payload_bytes: u32,
    ) -> Result<(), NetError> {
        let src_ip = self
            .sim
            .node_addr(self.app_id.node, dst.is_ipv6())
            .ok_or(NetError::NoAddress)?;
        let pkt = Packet::udp(
            SocketAddr::new(src_ip, src_port),
            dst,
            payload,
            payload_bytes,
        );
        self.sim.send_from_node(self.app_id.node, pkt);
        Ok(())
    }

    /// Sends a fully-formed packet from this node — the raw-socket
    /// analogue, used by flood vectors that forge TCP segments.
    pub fn send_raw(&mut self, packet: Packet) {
        let node = self.app_id.node;
        self.sim.send_from_node(node, packet);
    }

    /// Joins a multicast group on all of this node's interfaces.
    pub fn join_multicast(&mut self, group: IpAddr) {
        debug_assert!(packet::is_multicast(group), "not a multicast group");
        let ifaces = self.sim.nodes.ifaces[self.app_id.node.index()].clone();
        for iface in ifaces {
            let groups = &mut self.sim.ifaces[iface.index()].multicast_groups;
            if !groups.contains(&group) {
                groups.push(group);
            }
        }
    }

    // ----- timers -----

    /// Schedules `on_timer(token)` after `after`.
    pub fn set_timer(&mut self, after: Duration, token: u64) {
        let at = self.sim.now + after;
        self.sim.schedule(at, Event::Timer { app: self.app_id, token });
    }

    // ----- tcp-lite -----

    /// Listens for inbound connections on `port`.
    ///
    /// # Errors
    ///
    /// Returns [`TcpError::PortInUse`] if another app is listening.
    pub fn tcp_listen(&mut self, port: u16) -> Result<(), TcpError> {
        self.sim.tcp_stack_mut(self.app_id.node).listen(port, self.app_id)
    }

    /// Initiates a connection to `peer`; completion is signalled with
    /// [`TcpEvent::Connected`] or [`TcpEvent::ConnectFailed`].
    ///
    /// [`TcpEvent::Connected`]: crate::tcp::TcpEvent::Connected
    /// [`TcpEvent::ConnectFailed`]: crate::tcp::TcpEvent::ConnectFailed
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoAddress`] if the node has no address of the
    /// peer's family.
    pub fn tcp_connect(&mut self, peer: SocketAddr) -> Result<ConnId, NetError> {
        let local = self
            .sim
            .node_addr(self.app_id.node, peer.is_ipv6())
            .ok_or(NetError::NoAddress)?;
        let node = self.app_id.node;
        let (conn, actions) = self.sim.tcp_stack_mut(node).connect(self.app_id, local, peer);
        self.sim.process_tcp_actions(node, actions);
        Ok(conn)
    }

    /// Sends a message on an established connection.
    ///
    /// # Errors
    ///
    /// Returns [`TcpError::NotConnected`] if the connection is not
    /// established.
    pub fn tcp_send(&mut self, conn: ConnId, payload: Payload, bytes: u32) -> Result<(), TcpError> {
        let node = self.app_id.node;
        let actions = self.sim.tcp_stack_mut(node).send(conn, payload, bytes)?;
        self.sim.process_tcp_actions(node, actions);
        Ok(())
    }

    /// Closes a connection (best-effort FIN).
    pub fn tcp_close(&mut self, conn: ConnId) {
        let node = self.app_id.node;
        let actions = self.sim.tcp_stack_mut(node).close(conn);
        self.sim.process_tcp_actions(node, actions);
    }

    /// Whether a connection is currently established.
    pub fn tcp_is_established(&self, conn: ConnId) -> bool {
        self.sim.tcp[self.app_id.node.index()]
            .as_ref()
            .is_some_and(|s| s.is_established(conn))
    }

    // ----- process / node management -----

    /// Installs a new application on `node`, starting it immediately.
    pub fn spawn_app(&mut self, node: NodeId, app: Box<dyn Application>) -> AppId {
        self.sim.install_app(node, app)
    }

    /// Removes this application after the current callback returns.
    pub fn exit(&mut self) {
        self.removed = true;
    }

    /// Removes another application immediately.
    pub fn kill_app(&mut self, id: AppId) {
        if id == self.app_id {
            self.removed = true;
        } else {
            self.sim.remove_app(id);
        }
    }

    /// Schedules a node up/down transition (takes effect as its own event).
    pub fn set_node_admin(&mut self, node: NodeId, up: bool) {
        self.sim.schedule_node_admin(node, up);
    }

    // ----- telemetry -----

    /// The run's telemetry handle (disabled unless one was installed with
    /// [`Simulator::set_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        self.sim.telemetry()
    }

    /// Records a flight-recorder event stamped with the current simulated
    /// time and this application's node. `detail` only runs when the
    /// recorder is live.
    pub fn record_event(&self, category: Category, detail: impl FnOnce() -> String) {
        self.sim.telemetry.record_event(
            self.sim.now.as_nanos(),
            Some(self.app_id.node.index() as u32),
            category,
            detail,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpEvent;
    use std::net::Ipv4Addr;

    fn v4(d: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, d))
    }

    /// Two hosts joined by one link; a sender app and a counting sink.
    struct Harness {
        sim: Simulator,
        a: NodeId,
        b: NodeId,
    }

    fn two_hosts(rate_bps: u64) -> Harness {
        let mut sim = Simulator::new(7);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let ia = sim.add_iface(a, vec![v4(1)]);
        let ib = sim.add_iface(b, vec![v4(2)]);
        sim.connect_p2p(
            ia,
            ib,
            LinkConfig::new(rate_bps, Duration::from_millis(1)),
        )
        .expect("fresh ifaces");
        sim.add_default_route(a, ia);
        sim.add_default_route(b, ib);
        Harness { sim, a, b }
    }

    #[test]
    #[should_panic(expected = "address 10.0.0.1 assigned to two interfaces")]
    fn one_address_cannot_sit_on_two_interfaces() {
        // Checked in release builds too (`cargo test --release`): the
        // local-delivery probe trusts `addr_index` to be one-to-one.
        let mut h = two_hosts(1_000_000);
        h.sim.add_iface(h.b, vec![v4(1)]);
    }

    #[derive(Default)]
    struct Sink {
        packets: u64,
        bytes: u64,
    }

    impl Application for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.udp_bind(9).expect("bind sink port");
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, packet: &Packet) {
            self.packets += 1;
            self.bytes += u64::from(packet.wire_bytes());
        }
    }

    struct Blaster {
        dst: SocketAddr,
        count: u32,
        interval: Duration,
        sent: u32,
    }

    impl Application for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.udp_bind(1000).expect("bind");
            ctx.set_timer(Duration::ZERO, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if self.sent >= self.count {
                return;
            }
            self.sent += 1;
            ctx.udp_send(1000, self.dst, Payload::empty(), 100)
                .expect("send");
            ctx.set_timer(self.interval, 0);
        }
    }

    #[test]
    fn udp_delivery_end_to_end() {
        let mut h = two_hosts(1_000_000);
        let sink = h.sim.install_app(h.b, Box::new(Sink::default()));
        h.sim.install_app(
            h.a,
            Box::new(Blaster {
                dst: SocketAddr::new(v4(2), 9),
                count: 10,
                interval: Duration::from_millis(10),
                sent: 0,
            }),
        );
        h.sim.run_until(SimTime::from_secs(2));
        let s = h.sim.app_ref::<Sink>(sink).expect("sink exists");
        assert_eq!(s.packets, 10);
        assert_eq!(h.sim.stats().packets_delivered, 10);
    }

    #[test]
    fn slow_link_limits_throughput() {
        // 100 kbps link; offer ~10x that for one second.
        let mut h = two_hosts(100_000);
        let sink = h.sim.install_app(h.b, Box::new(Sink::default()));
        h.sim.install_app(
            h.a,
            Box::new(Blaster {
                dst: SocketAddr::new(v4(2), 9),
                count: 1000,
                interval: Duration::from_millis(1),
                sent: 0,
            }),
        );
        h.sim.run_until(SimTime::from_secs(1));
        let s = h.sim.app_ref::<Sink>(sink).expect("sink");
        // 100 kbps for 1 s = 12.5 kB; each packet is 128 wire bytes => ~97.
        assert!(s.packets < 120, "got {}", s.packets);
        assert!(s.packets > 60, "got {}", s.packets);
        assert!(h.sim.stats().dropped_queue_overflow > 0);
    }

    #[test]
    fn node_down_drops_traffic_and_up_restores() {
        let mut h = two_hosts(1_000_000);
        let sink = h.sim.install_app(h.b, Box::new(Sink::default()));
        h.sim.install_app(
            h.a,
            Box::new(Blaster {
                dst: SocketAddr::new(v4(2), 9),
                count: 100,
                interval: Duration::from_millis(20),
                sent: 0,
            }),
        );
        let b = h.b;
        for (at_ms, up) in [(500, false), (1200, true)] {
            h.sim.schedule_forkable_call(
                SimTime::from_millis(at_ms),
                "test.set_node_admin",
                (b, up),
                |sim, (node, up)| sim.set_node_admin(node, up),
            );
        }
        h.sim.run_until(SimTime::from_secs(3));
        let s = h.sim.app_ref::<Sink>(sink).expect("sink");
        assert!(s.packets < 100, "some packets must be lost while down");
        assert!(h.sim.stats().dropped_node_down > 0);
        assert!(s.packets > 40, "delivery must resume after up");
    }

    #[test]
    fn tcp_connect_and_exchange() {
        struct Server {
            got: Vec<u32>,
        }
        impl Application for Server {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.tcp_listen(23).expect("listen");
            }
            fn on_tcp(&mut self, ctx: &mut Ctx<'_>, ev: TcpEvent) {
                if let TcpEvent::Data { conn, payload, .. } = ev {
                    let v = *payload.get::<u32>().expect("u32");
                    self.got.push(v);
                    ctx.tcp_send(conn, Payload::new(v + 1), 4).expect("reply");
                }
            }
        }
        struct Client {
            server: SocketAddr,
            reply: Option<u32>,
        }
        impl Application for Client {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.tcp_connect(self.server).expect("connect");
            }
            fn on_tcp(&mut self, ctx: &mut Ctx<'_>, ev: TcpEvent) {
                match ev {
                    TcpEvent::Connected { conn } => {
                        ctx.tcp_send(conn, Payload::new(41u32), 4).expect("send");
                    }
                    TcpEvent::Data { payload, .. } => {
                        self.reply = Some(*payload.get::<u32>().expect("u32"));
                    }
                    _ => {}
                }
            }
        }
        let mut h = two_hosts(1_000_000);
        let srv = h.sim.install_app(h.b, Box::new(Server { got: vec![] }));
        let cli = h.sim.install_app(
            h.a,
            Box::new(Client {
                server: SocketAddr::new(v4(2), 23),
                reply: None,
            }),
        );
        h.sim.run_until(SimTime::from_secs(2));
        assert_eq!(h.sim.app_ref::<Server>(srv).expect("srv").got, vec![41]);
        assert_eq!(h.sim.app_ref::<Client>(cli).expect("cli").reply, Some(42));
    }

    #[test]
    fn forwarding_via_router() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node("a");
        let r = sim.add_node("r");
        let b = sim.add_node("b");
        sim.set_forwarding(r, true);
        let ia = sim.add_iface(a, vec![v4(1)]);
        let ra = sim.add_iface(r, vec![IpAddr::V4(Ipv4Addr::new(10, 0, 1, 1))]);
        let rb = sim.add_iface(r, vec![IpAddr::V4(Ipv4Addr::new(10, 0, 2, 1))]);
        let ib = sim.add_iface(b, vec![v4(2)]);
        sim.connect_p2p(ia, ra, LinkConfig::default()).expect("a-r");
        sim.connect_p2p(rb, ib, LinkConfig::default()).expect("r-b");
        sim.add_default_route(a, ia);
        sim.add_default_route(b, ib);
        sim.add_route(r, v4(1), 32, ra);
        sim.add_route(r, v4(2), 32, rb);
        let sink = sim.install_app(b, Box::new(Sink::default()));
        sim.install_app(
            a,
            Box::new(Blaster {
                dst: SocketAddr::new(v4(2), 9),
                count: 5,
                interval: Duration::from_millis(5),
                sent: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<Sink>(sink).expect("sink").packets, 5);
    }

    #[test]
    fn multicast_reaches_joined_nodes_via_relay() {
        struct McastSink {
            group: IpAddr,
            got: u64,
        }
        impl Application for McastSink {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.join_multicast(self.group);
                ctx.udp_bind(547).expect("bind");
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: &Packet) {
                self.got += 1;
            }
        }
        let group = packet::all_dhcp_agents_v6();
        let mut sim = Simulator::new(1);
        let atk = sim.add_node("attacker");
        let r = sim.add_node("router");
        sim.set_forwarding(r, true);
        sim.set_multicast_relay(r, true);
        let d1 = sim.add_node("dev1");
        let d2 = sim.add_node("dev2");
        let v6 = |x: u16| IpAddr::V6(std::net::Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 0, x));
        let ia = sim.add_iface(atk, vec![v6(1)]);
        let r0 = sim.add_iface(r, vec![v6(0xff)]);
        let r1 = sim.add_iface(r, vec![IpAddr::V6(std::net::Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 1, 0xff))]);
        let r2 = sim.add_iface(r, vec![IpAddr::V6(std::net::Ipv6Addr::new(0xfd00, 0, 0, 0, 0, 0, 2, 0xff))]);
        let i1 = sim.add_iface(d1, vec![v6(0x10)]);
        let i2 = sim.add_iface(d2, vec![v6(0x11)]);
        sim.connect_p2p(ia, r0, LinkConfig::default()).expect("atk-r");
        sim.connect_p2p(r1, i1, LinkConfig::default()).expect("r-d1");
        sim.connect_p2p(r2, i2, LinkConfig::default()).expect("r-d2");
        sim.add_default_route(atk, ia);
        sim.add_default_route(d1, i1);
        sim.add_default_route(d2, i2);
        let s1 = sim.install_app(d1, Box::new(McastSink { group, got: 0 }));
        let s2 = sim.install_app(d2, Box::new(McastSink { group, got: 0 }));
        struct McastSender {
            group: IpAddr,
        }
        impl Application for McastSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.udp_bind(546).expect("bind");
                ctx.udp_send(
                    546,
                    SocketAddr::new(self.group, 547),
                    Payload::empty(),
                    200,
                )
                .expect("send");
            }
        }
        sim.install_app(atk, Box::new(McastSender { group }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<McastSink>(s1).expect("s1").got, 1);
        assert_eq!(sim.app_ref::<McastSink>(s2).expect("s2").got, 1);
    }

    #[test]
    fn wifi_channel_carries_traffic() {
        let mut sim = Simulator::new(3);
        let chan = sim.add_wifi_channel(WifiConfig {
            rate_bps: 1_000_000,
            ..WifiConfig::default()
        });
        let a = sim.add_node("sta-a");
        let b = sim.add_node("sta-b");
        let ia = sim.add_iface(a, vec![v4(1)]);
        let ib = sim.add_iface(b, vec![v4(2)]);
        sim.attach_wifi(ia, chan).expect("attach a");
        sim.attach_wifi(ib, chan).expect("attach b");
        sim.add_default_route(a, ia);
        sim.add_default_route(b, ib);
        let sink = sim.install_app(b, Box::new(Sink::default()));
        sim.install_app(
            a,
            Box::new(Blaster {
                dst: SocketAddr::new(v4(2), 9),
                count: 20,
                interval: Duration::from_millis(5),
                sent: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<Sink>(sink).expect("sink").packets, 20);
    }

    #[test]
    fn wifi_loss_drops_frames() {
        let mut sim = Simulator::new(3);
        let chan = sim.add_wifi_channel(WifiConfig {
            rate_bps: 10_000_000,
            loss_probability: 1.0,
            ..WifiConfig::default()
        });
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let ia = sim.add_iface(a, vec![v4(1)]);
        let ib = sim.add_iface(b, vec![v4(2)]);
        sim.attach_wifi(ia, chan).expect("attach");
        sim.attach_wifi(ib, chan).expect("attach");
        sim.add_default_route(a, ia);
        let sink = sim.install_app(b, Box::new(Sink::default()));
        sim.install_app(
            a,
            Box::new(Blaster {
                dst: SocketAddr::new(v4(2), 9),
                count: 5,
                interval: Duration::from_millis(5),
                sent: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<Sink>(sink).expect("sink").packets, 0);
        assert_eq!(sim.stats().dropped_wifi_loss, 5);
    }

    #[test]
    fn wifi_queue_overflow_is_a_traced_drop() {
        use std::cell::RefCell;
        use std::rc::Rc;
        // A station queue with room for one 528-byte frame; two sends at
        // one instant, so the second finds it full.
        let mut sim = Simulator::new(3);
        let chan = sim.add_wifi_channel(WifiConfig {
            queue_capacity_bytes: 600,
            ..WifiConfig::default()
        });
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let ia = sim.add_iface(a, vec![v4(1)]);
        let ib = sim.add_iface(b, vec![v4(2)]);
        sim.attach_wifi(ia, chan).expect("attach");
        sim.attach_wifi(ib, chan).expect("attach");
        sim.add_default_route(a, ia);
        let drops = Rc::new(RefCell::new(Vec::new()));
        let tap = Rc::clone(&drops);
        sim.set_trace(Box::new(move |r| {
            if let TraceKind::Dropped(reason) = r.kind {
                tap.borrow_mut().push((reason, r.packet_id, r.node));
            }
        }));
        let src = SocketAddr::new(v4(1), 1000);
        let dst = SocketAddr::new(v4(2), 9);
        for _ in 0..2 {
            sim.send_from_node(a, Packet::udp(src, dst, Payload::empty(), 500));
        }
        assert_eq!(*drops.borrow(), vec![(DropReason::QueueOverflow, 2, a)]);
        assert_eq!(sim.stats().dropped_queue_overflow, 1);
    }

    #[test]
    fn timer_tokens_are_delivered() {
        struct Timers {
            fired: Vec<u64>,
        }
        impl Application for Timers {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_millis(20), 2);
                ctx.set_timer(Duration::from_millis(10), 1);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        let id = sim.install_app(n, Box::new(Timers { fired: vec![] }));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<Timers>(id).expect("app").fired, vec![1, 2]);
    }

    #[test]
    fn app_exit_removes_it() {
        struct OneShot;
        impl Application for OneShot {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.udp_bind(77).expect("bind");
                ctx.exit();
            }
        }
        let mut sim = Simulator::new(1);
        let n = sim.add_node("n");
        let id = sim.install_app(n, Box::new(OneShot));
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.app_ref::<OneShot>(id).is_none());
        // Port was released.
        assert!(sim.node(n).udp_binds().is_empty());
    }

    #[test]
    fn trace_hook_sees_packets() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let records = Rc::new(RefCell::new(Vec::new()));
        let sink_records = Rc::clone(&records);
        let mut h = two_hosts(1_000_000);
        h.sim.set_trace(Box::new(move |r| {
            sink_records.borrow_mut().push(r.kind);
        }));
        h.sim.install_app(h.b, Box::new(Sink::default()));
        h.sim.install_app(
            h.a,
            Box::new(Blaster {
                dst: SocketAddr::new(v4(2), 9),
                count: 1,
                interval: Duration::from_millis(5),
                sent: 0,
            }),
        );
        h.sim.run_until(SimTime::from_secs(1));
        let kinds = records.borrow();
        assert!(kinds.contains(&TraceKind::Sent));
        assert!(kinds.contains(&TraceKind::Delivered));
    }

    #[test]
    fn determinism_same_seed_same_stats() {
        let run = |seed: u64| {
            let mut h = two_hosts(50_000);
            h.sim = {
                let mut sim = Simulator::new(seed);
                let a = sim.add_node("a");
                let b = sim.add_node("b");
                let ia = sim.add_iface(a, vec![v4(1)]);
                let ib = sim.add_iface(b, vec![v4(2)]);
                sim.connect_p2p(ia, ib, LinkConfig::new(50_000, Duration::from_millis(2)))
                    .expect("link");
                sim.add_default_route(a, ia);
                sim.add_default_route(b, ib);
                sim
            };
            h.a = NodeId::from_index(0);
            h.b = NodeId::from_index(1);
            h.sim.install_app(h.b, Box::new(Sink::default()));
            h.sim.install_app(
                h.a,
                Box::new(Blaster {
                    dst: SocketAddr::new(v4(2), 9),
                    count: 200,
                    interval: Duration::from_millis(3),
                    sent: 0,
                }),
            );
            h.sim.run_until(SimTime::from_secs(2));
            h.sim.stats().clone()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Simulator::new(0);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn ttl_expires_in_routing_loop() {
        // Two routers pointing default routes at each other.
        let mut sim = Simulator::new(1);
        let r1 = sim.add_node("r1");
        let r2 = sim.add_node("r2");
        sim.set_forwarding(r1, true);
        sim.set_forwarding(r2, true);
        let i1 = sim.add_iface(r1, vec![v4(1)]);
        let i2 = sim.add_iface(r2, vec![v4(2)]);
        sim.connect_p2p(i1, i2, LinkConfig::default()).expect("link");
        sim.add_default_route(r1, i1);
        sim.add_default_route(r2, i2);
        struct LoopSender;
        impl Application for LoopSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.udp_bind(5).expect("bind");
                // Address that neither router owns.
                ctx.udp_send(
                    5,
                    SocketAddr::new(IpAddr::V4(Ipv4Addr::new(99, 9, 9, 9)), 9),
                    Payload::empty(),
                    10,
                )
                .expect("send");
            }
        }
        sim.install_app(r1, Box::new(LoopSender));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.stats().dropped_ttl, 1);
    }

    /// Sends `count` UDP packets a → b and lets them arrive.
    fn send_to_b(sim: &mut Simulator, a: NodeId, count: usize) {
        for _ in 0..count {
            let packet = Packet::new(
                SocketAddr::new(v4(1), 1000),
                SocketAddr::new(v4(2), 9),
                TransportProto::Udp,
                Payload::empty(),
                28,
                100,
            );
            sim.send_from_node(a, packet);
        }
        sim.run_until(sim.now() + Duration::from_secs(1));
    }

    fn filters_digest(sim: &Simulator) -> u64 {
        let layers = sim.state_digests();
        layers.iter().find(|(layer, _)| *layer == "netsim.filters").expect("layer").1
    }

    /// Drops every second arrival: the count is state a verdict depends on.
    #[derive(Debug, Clone, Default)]
    struct EveryOther {
        seen: u64,
    }

    impl crate::filter::PacketFilter for EveryOther {
        fn verdict(&mut self, _packet: &Packet, _now: SimTime) -> FilterVerdict {
            self.seen += 1;
            if self.seen.is_multiple_of(2) {
                FilterVerdict::Drop
            } else {
                FilterVerdict::Allow
            }
        }
        fn fork(&self) -> Box<dyn crate::filter::PacketFilter> {
            Box::new(self.clone())
        }
        fn state_digest(&self, h: &mut StateHasher) {
            h.write_u64(self.seen);
        }
    }

    #[test]
    fn custom_filter_state_is_digested_and_forks_independently() {
        let Harness { mut sim, a, b } = two_hosts(1_000_000);
        sim.push_node_filter(b, FilterRule::Custom(Box::new(EveryOther::default())));
        let fresh = filters_digest(&sim);
        send_to_b(&mut sim, a, 3);
        assert_eq!(sim.stats().dropped_filtered, 1, "second of three arrivals dropped");
        assert_ne!(filters_digest(&sim), fresh, "the filter's count is in the digest");

        let mut fork = sim.fork(&ForkMap::new()).expect("a world with a custom filter forks");
        assert_eq!(filters_digest(&fork), filters_digest(&sim));
        // The parent's fourth arrival is dropped; the fork's copy has not
        // seen it, and drops its own fourth arrival the same way.
        send_to_b(&mut sim, a, 1);
        assert_eq!(sim.stats().dropped_filtered, 2);
        assert_eq!(fork.stats().dropped_filtered, 1);
        assert_ne!(filters_digest(&fork), filters_digest(&sim));
        send_to_b(&mut fork, a, 1);
        assert_eq!(fork.stats().dropped_filtered, 2);
        assert_eq!(filters_digest(&fork), filters_digest(&sim));
    }

    /// Adding the `Custom` rule kind must not move the digest of worlds
    /// that deploy none: stored checkpoints keep verifying.
    #[test]
    fn filters_digest_of_plain_rules_is_pinned() {
        let Harness { mut sim, a, b } = two_hosts(1_000_000);
        sim.push_node_filter(
            b,
            FilterRule::RateLimit {
                rate_bps: 8_000,
                burst_bytes: 200,
                buckets: BTreeMap::new(),
            },
        );
        sim.push_node_filter(b, FilterRule::EgressBlock { dst: v4(9), port: Some(80) });
        sim.push_node_filter(a, FilterRule::Blocklist);
        sim.blocklist_insert(v4(7));
        send_to_b(&mut sim, a, 2);
        assert_eq!(sim.stats().dropped_filtered, 1, "burst admits one 128-byte packet");
        assert_eq!(filters_digest(&sim), 6028806669543305158);
    }
}
