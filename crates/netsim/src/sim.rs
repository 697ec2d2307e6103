//! The simulator kernel: the clock, the event queue and one dispatch loop.
//!
//! What an event *does* lives in the layer that owns it — [`crate::link`],
//! [`crate::wifi`], `forward`, `transport`, [`crate::app`] — as an
//! `impl Simulator` block beside that layer's state, drop exits and digest.
//! The kernel's own fields are private: a layer can only `schedule`.

use crate::app::{AppEvent, Application};
use crate::digest::StateHasher;
use crate::equeue::{EventQueue, TimeOrderedQueue};
use crate::fastmap::FastMap;
use crate::filter::FilterStack;
use crate::fork::{ForkClone, ForkMap, ForkableCall, ForkableFn};
use crate::forward::ForwardEvent;
use crate::ids::{IfaceId, NodeId};
use crate::link::{LinkEvent, P2pLink};
use crate::node::{Iface, NodeRef, Nodes};
use crate::stats::Stats;
use crate::tcp::TcpStack;
use crate::time::SimTime;
use crate::transport::TransportEvent;
use crate::wifi::{WifiChannel, WifiEvent};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::IpAddr;
use std::time::Duration;
use telemetry::Telemetry;

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

/// A pending event, grouped by the layer that schedules and handles it.
pub(crate) enum Event {
    Link(LinkEvent),
    Wifi(WifiEvent),
    Forward(ForwardEvent),
    Transport(TransportEvent),
    App(AppEvent),
    /// A scheduled callback: explicit captured data plus a `fn` pointer,
    /// so a pending call can be deep-cloned into a fork (see
    /// [`crate::fork`]).
    Forkable(Box<dyn ForkableCall>),
}

// Most events are copied through a wheel bucket on their way out of the
// queue: a regrouping must not grow them.
const _: () = assert!(std::mem::size_of::<Event>() <= 56);

impl Event {
    /// Deep-clones a pending event into a forked world: every layer's
    /// events are plain data; only `Forkable` clones through the map.
    fn fork(&self, map: &ForkMap) -> Event {
        match self {
            Event::Link(e) => Event::Link(*e),
            Event::Wifi(e) => Event::Wifi(*e),
            Event::Forward(e) => Event::Forward(e.clone()),
            Event::Transport(e) => Event::Transport(*e),
            Event::App(e) => Event::App(*e),
            Event::Forkable(call) => Event::Forkable(call.fork(map)),
        }
    }

    /// Folds one pending event into a checkpoint digest. Every variant
    /// writes a distinct tag first — `app` 0, 1, 7; `link` 2; `forward` 3;
    /// `wifi` 4, 5; `transport` 6; 8 is unused — and renumbering one would
    /// change the digest of every stored checkpoint.
    fn digest(&self, h: &mut StateHasher) {
        match self {
            Event::Link(e) => e.digest(h),
            Event::Wifi(e) => e.digest(h),
            Event::Forward(e) => e.digest(h),
            Event::Transport(e) => e.digest(h),
            Event::App(e) => e.digest(h),
            Event::Forkable(call) => {
                h.write_bytes(&[9]);
                h.write_str(call.digest_label());
            }
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
    pub(crate) next_packet_id: u64,
    /// The struct-of-arrays node arena (see [`crate::node`]).
    pub(crate) nodes: Nodes,
    pub(crate) ifaces: Vec<Iface>,
    pub(crate) links: Vec<P2pLink>,
    pub(crate) channels: Vec<WifiChannel>,
    pub(crate) apps: Vec<Vec<Option<Box<dyn Application>>>>,
    /// Per-node TCP stacks, allocated on first use: UDP-only nodes — most
    /// of a 100k-device world — pay one pointer here.
    pub(crate) tcp: Vec<Option<Box<TcpStack>>>,
    pub(crate) addr_index: FastMap<IpAddr, IfaceId>,
    pub(crate) rng: SmallRng,
    /// Separate stream for injected wired-link loss draws: loss faults
    /// perturb only this RNG, so enabling them never shifts the jitter /
    /// backoff / churn draws of the main event stream. Only consulted when
    /// a link's `loss_probability` is nonzero.
    pub(crate) fault_rng: SmallRng,
    pub(crate) stats: Stats,
    /// Flight recorder and packet capture: the one way anything observes
    /// the world from outside.
    pub(crate) telemetry: Telemetry,
    /// Deployed defense rules per node; each stack sees every packet
    /// arriving at its node, transit traffic included. Kept ordered so
    /// the `netsim.filters` digest layer walks nodes deterministically.
    pub(crate) node_filters: BTreeMap<NodeId, FilterStack>,
    /// Simulator-global source blocklist enforced by
    /// [`crate::FilterRule::Blocklist`] rules; honeypot applications feed it.
    pub(crate) blocklist: BTreeSet<IpAddr>,
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
            telemetry: Telemetry::disabled(),
            node_filters: BTreeMap::new(),
            blocklist: BTreeSet::new(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Current bytes buffered across all link and channel queues.
    pub fn buffered_bytes(&self) -> u64 {
        self.stats.buffered_bytes()
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

    /// Installs the telemetry handle; the simulator emits flight-recorder
    /// events (drops, Wi-Fi contention, retransmits, admin transitions)
    /// and packet-capture records (every send, delivery, forward and
    /// drop) through it. The default handle is disabled and the
    /// emission sites cost one branch each.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry handle (disabled unless [`Simulator::set_telemetry`]
    /// was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

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

    /// The one way an event enters the queue (never before now).
    pub(crate) fn schedule(&mut self, at: SimTime, event: Event) {
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
        }
        if self.now < horizon {
            self.now = horizon;
        }
    }

    /// Hands an event to the layer that owns it.
    fn handle(&mut self, event: Event) {
        match event {
            Event::Link(e) => self.on_link_event(e),
            Event::Wifi(e) => self.on_wifi_event(e),
            Event::Forward(e) => self.on_forward_event(e),
            Event::Transport(e) => self.on_transport_event(e),
            Event::App(e) => self.on_app_event(e),
            Event::Forkable(call) => call.call(self),
        }
    }

    /// Largest number of events that were ever pending simultaneously.
    pub fn peak_pending_events(&self) -> usize {
        self.queue.peak_len()
    }

    /// `netsim.queue`: entries are visited in arbitrary internal order, so
    /// each one is digested into a sub-hash and sorted by the (time, seq)
    /// total order before folding.
    pub(crate) fn queue_digest(&self) -> u64 {
        let mut entries: Vec<(u64, u64, u64)> = Vec::with_capacity(self.queue.len());
        self.queue.for_each_entry(|time, seq, event| {
            let mut sub = StateHasher::new();
            event.digest(&mut sub);
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
        h.finish()
    }

    /// `netsim.rng`: both streams and the counters they advance with.
    pub(crate) fn rng_digest(&self) -> u64 {
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
        h.finish()
    }

    /// `netsim.stats`: the counters.
    pub(crate) fn stats_digest(&self) -> u64 {
        let mut h = StateHasher::new();
        self.stats.state_digest(&mut h);
        h.finish()
    }

    /// Deep-clones the live world into an independent simulator — the
    /// in-memory fork behind checkpoint-forked scenario trees. The fork
    /// shares nothing mutable with the parent: nodes, links, channels,
    /// transport stacks, both RNG streams (at their exact positions), and
    /// every pending event are duplicated; applications are cloned through
    /// their own [`Application::fork`], translating shared handles via
    /// `map`. The fork starts with telemetry disabled — the caller
    /// installs a fresh handle (a forked recorder continues at the
    /// parent's event count).
    ///
    /// # Errors
    ///
    /// Fails — naming the obstacle — when the world holds state that
    /// cannot be cloned: an application whose [`Application::fork`]
    /// returns `None`.
    pub fn fork(&self, map: &ForkMap) -> Result<Simulator, String> {
        Ok(Simulator {
            now: self.now,
            queue: self.queue.clone_with(|event| event.fork(map)),
            seq: self.seq,
            next_packet_id: self.next_packet_id,
            nodes: self.nodes.clone(),
            ifaces: self.ifaces.clone(),
            links: self.links.clone(),
            channels: self.channels.clone(),
            apps: self.fork_apps(map)?,
            tcp: self.tcp.clone(),
            addr_index: self.addr_index.clone(),
            // SmallRng is plain state; Clone resumes the exact stream
            // position, so a seed-0 fork draws identically to the parent.
            rng: self.rng.clone(),
            fault_rng: self.fault_rng.clone(),
            stats: self.stats.clone(),
            telemetry: Telemetry::disabled(),
            node_filters: self.node_filters.clone(),
            blocklist: self.blocklist.clone(),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ids::{AppId, ChannelId, LinkId};
    use crate::link::LinkConfig;
    use crate::packet::{Packet, Payload};
    use crate::Ctx;
    use std::net::{Ipv4Addr, SocketAddr};

    pub(crate) fn v4(d: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, d))
    }

    /// Two hosts (10.0.0.1, 10.0.0.2) joined by one link: the world most
    /// layers' unit tests run in.
    pub(crate) struct Harness {
        pub(crate) sim: Simulator,
        pub(crate) a: NodeId,
        pub(crate) b: NodeId,
    }

    pub(crate) fn two_hosts(rate_bps: u64) -> Harness {
        two_hosts_with(7, LinkConfig::new(rate_bps, Duration::from_millis(1)))
    }

    pub(crate) fn two_hosts_with(seed: u64, link: LinkConfig) -> Harness {
        let mut sim = Simulator::new(seed);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let ia = sim.add_iface(a, vec![v4(1)]);
        let ib = sim.add_iface(b, vec![v4(2)]);
        sim.connect_p2p(ia, ib, link).expect("fresh ifaces");
        sim.add_default_route(a, ia);
        sim.add_default_route(b, ib);
        Harness { sim, a, b }
    }

    /// A telemetry handle with only the packet capture on, unfiltered.
    pub(crate) fn capturing() -> Telemetry {
        Telemetry::from_config(&telemetry::TelemetryConfig { capture: true, ..Default::default() })
    }

    /// Every captured record as `(kind, packet id, node)`, in capture order.
    pub(crate) fn captured(sim: &Simulator) -> Vec<(&'static str, u64, NodeId)> {
        let row = |r: &telemetry::CaptureRecord| {
            (r.kind, r.packet_id, NodeId::from_index(r.node as usize))
        };
        sim.telemetry().with_capture(|c| c.records().iter().map(row).collect()).expect("capturing")
    }

    /// Counts what arrives on UDP port 9.
    #[derive(Default)]
    pub(crate) struct Sink {
        pub(crate) packets: u64,
        pub(crate) bytes: u64,
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

    /// Sends `count` 100-byte datagrams to port 9 of `to`, one an `interval`.
    pub(crate) struct Blaster {
        dst: SocketAddr,
        count: u32,
        interval: Duration,
        sent: u32,
    }

    impl Blaster {
        pub(crate) fn new(to: IpAddr, count: u32, interval: Duration) -> Self {
            Blaster { dst: SocketAddr::new(to, 9), count, interval, sent: 0 }
        }
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
    fn determinism_same_seed_same_stats() {
        let run = |seed: u64| {
            let mut h = two_hosts_with(seed, LinkConfig::new(50_000, Duration::from_millis(2)));
            h.sim.install_app(h.b, Box::new(Sink::default()));
            h.sim.install_app(h.a, Box::new(Blaster::new(v4(2), 200, Duration::from_millis(3))));
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

    /// The sentence in [`Event::digest`]'s doc comment, executable: one
    /// event of each variant, alone in a fresh world's queue at t = 1 s,
    /// digests to the `netsim.queue` value the commit before the kernel
    /// was split printed for it, and leads with the tag named here.
    #[test]
    fn event_digest_tags_and_bytes_are_pinned() {
        let app = AppId { node: NodeId::from_index(1), slot: 2 };
        let (link, chan) = (LinkId::from_index(3), ChannelId::from_index(2));
        let addr = |d, port| SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, d)), port);
        let mut packet = Packet::udp(addr(1, 1000), addr(2, 9), Payload::empty(), 100);
        packet.id = 11;
        let deliver = ForwardEvent::Deliver {
            iface: IfaceId::from_index(5),
            packet: packet.clone(),
            epoch: Some((link, 6)),
        };
        let call = ForkableFn { data: 0u64, f: |_, _| {}, label: "test.pin" };
        // (tag, event, the fields folded after the tag, parent's digest)
        type Fields = Box<dyn Fn(&mut StateHasher)>;
        let ids = |a: usize, b: usize, rest: Vec<u64>| -> Fields {
            Box::new(move |h| {
                h.write_usize(a);
                h.write_usize(b);
                rest.iter().for_each(|v| h.write_u64(*v));
            })
        };
        let pinned: Vec<(u8, Event, Fields, u64)> = vec![
            (0, Event::App(AppEvent::Start(app)), ids(1, 2, vec![]), 7677244399478375331),
            (1, Event::App(AppEvent::Timer { app, token: 7 }), ids(1, 2, vec![7]), 1094506944150363737),
            (
                2,
                Event::Link(LinkEvent::TxComplete { link, side: 1, gen: 4 }),
                ids(3, 1, vec![4]),
                12354283717757255472,
            ),
            (
                3,
                Event::Forward(deliver),
                Box::new(move |h| {
                    h.write_usize(5);
                    packet.state_digest(h);
                    h.write_bool(true);
                    h.write_usize(3);
                    h.write_u64(6);
                }),
                10197754359538652289,
            ),
            (4, Event::Wifi(WifiEvent::Attempt { chan, station: 3 }), ids(2, 3, vec![]), 16629618836173769149),
            (
                5,
                Event::Wifi(WifiEvent::TxComplete { chan, station: 3, gen: 8 }),
                ids(2, 3, vec![8]),
                17024440584856261626,
            ),
            (
                6,
                Event::Transport(TransportEvent::Rto { node: app.node, conn: 9, seq: 10 }),
                Box::new(|h| {
                    h.write_usize(1);
                    h.write_u64(9);
                    h.write_u64(10);
                }),
                6753887434700543060,
            ),
            (
                7,
                Event::App(AppEvent::SetNode { node: app.node, up: false }),
                Box::new(|h| {
                    h.write_usize(1);
                    h.write_bool(false);
                }),
                13724060277860336759,
            ),
            (9, Event::Forkable(Box::new(call)), Box::new(|h| h.write_str("test.pin")), 9953283052557235161),
        ];
        for (tag, event, fields, queue_digest) in pinned {
            let mut by_name = StateHasher::new();
            by_name.write_bytes(&[tag]);
            fields(&mut by_name);
            let mut sub = StateHasher::new();
            event.digest(&mut sub);
            assert_eq!(sub.finish(), by_name.finish(), "tag {tag}: renumbered or reordered");
            let mut sim = Simulator::new(0);
            sim.schedule(SimTime::from_secs(1), event);
            assert_eq!(sim.queue_digest(), queue_digest, "tag {tag}: stored checkpoints stop verifying");
        }
    }
}
