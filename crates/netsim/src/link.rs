//! Point-to-point links with serialization delay, propagation delay, and
//! drop-tail queues.
//!
//! A [`P2pLink`] joins exactly two interfaces. Each direction has an
//! independent transmitter: while a frame is being serialized the direction
//! is *busy* and further frames wait in a bounded FIFO queue; frames that
//! arrive at a full queue are dropped (drop-tail). This finite-rate,
//! finite-buffer model is what produces the congestion-driven non-linearity
//! the paper reports in Figure 2.
//!
//! The serialization state machine (`TxComplete` is its one event), wired
//! loss, the admin flaps and the `netsim.links` digest live here beside
//! the queues; no state field is visible outside this module.

use crate::digest::StateHasher;
use crate::forward::ForwardEvent;
use crate::ids::{IfaceId, LinkId, NodeId};
use crate::node::Attachment;
use crate::packet::Packet;
use crate::sim::{Event, NetError, Simulator};
use crate::stats::{DropReason, Stats};
use crate::time::tx_delay;
use rand::Rng;
use std::collections::VecDeque;
use std::time::Duration;
use telemetry::Category;

/// Configuration of one point-to-point link (applies to both directions).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Serialization rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Maximum bytes that may wait in each direction's queue.
    pub queue_capacity_bytes: u64,
    /// Random per-packet delay variation: each delivery is delayed by an
    /// extra `U[0, jitter]` (queueing noise along the abstracted Internet
    /// path the link stands for). Zero by default.
    pub jitter: Duration,
    /// Probability that a frame is corrupted on the wire and never arrives
    /// (the wired analogue of Wi-Fi's `loss_probability`; fault injection
    /// raises it at runtime). The frame still occupies the transmitter for
    /// its full serialization time. Zero by default, and the loss RNG is
    /// only consulted when nonzero, so a zero-loss link is draw-for-draw
    /// identical to a link built before this field existed.
    pub loss_probability: f64,
}

impl LinkConfig {
    /// A link with the given rate and delay and the default 64 KiB queue.
    pub fn new(rate_bps: u64, delay: Duration) -> Self {
        LinkConfig {
            rate_bps,
            delay,
            queue_capacity_bytes: 64 * 1024,
            jitter: Duration::ZERO,
            loss_probability: 0.0,
        }
    }

    /// Overrides the queue capacity, in bytes.
    pub fn with_queue_capacity(mut self, bytes: u64) -> Self {
        self.queue_capacity_bytes = bytes;
        self
    }

    /// Adds random per-packet delay variation of up to `jitter`.
    pub fn with_jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::new(100_000_000, Duration::from_millis(1))
    }
}

/// One direction of a point-to-point link.
#[derive(Debug, Default, Clone)]
struct LinkDirection {
    queue: VecDeque<Packet>,
    /// Bytes waiting behind the frame in flight (which is not counted).
    queued_bytes: u64,
    busy: bool,
    /// Transmission generation, used to ignore stale `TxComplete` events
    /// after a flush (node churn) invalidated the transmitter state.
    tx_gen: u64,
}

/// A full-duplex point-to-point link between two interfaces.
#[derive(Debug, Clone)]
pub struct P2pLink {
    config: LinkConfig,
    endpoints: [IfaceId; 2],
    dirs: [LinkDirection; 2],
    /// Administrative state: a down link drops everything offered to it
    /// (fault injection; node churn flushes queues but leaves links up).
    admin_up: bool,
    /// Link epoch, bumped on every admin-down. Delivery events scheduled
    /// over this link carry the epoch they were transmitted under; a
    /// mismatch at delivery time means the frame was on the wire when the
    /// link was cut, so it is dropped instead of delivered.
    epoch: u64,
}

impl P2pLink {
    fn new(config: LinkConfig, a: IfaceId, b: IfaceId) -> Self {
        // Queues start unallocated: most links of a 100k-device world
        // never queue a frame, and an eager buffer is ~8 KiB per link.
        P2pLink {
            config,
            endpoints: [a, b],
            dirs: [LinkDirection::default(), LinkDirection::default()],
            admin_up: true,
            epoch: 0,
        }
    }

    /// The interface opposite the given side.
    fn peer(&self, side: usize) -> IfaceId {
        self.endpoints[1 - side]
    }

    /// The epoch frames transmitted now are stamped with (see the field).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Attempts to queue `packet` for transmission from `side`.
    ///
    /// Returns `Ok(true)` if the transmitter was idle and the caller must
    /// start serialization now, `Ok(false)` if the packet was queued behind
    /// an ongoing transmission, and `Err(packet)` if the queue overflowed.
    fn enqueue(&mut self, side: usize, packet: Packet, stats: &mut Stats) -> Result<bool, Packet> {
        let dir = &mut self.dirs[side];
        if !dir.busy {
            dir.busy = true;
            dir.queue.push_front(packet);
            return Ok(true);
        }
        let bytes = u64::from(packet.wire_bytes());
        if dir.queued_bytes + bytes > self.config.queue_capacity_bytes {
            return Err(packet);
        }
        dir.queued_bytes += bytes;
        stats.queued(bytes);
        dir.queue.push_back(packet);
        Ok(false)
    }

    /// Serialization of `side`'s head frame finished: retires it; the next
    /// frame, if any, stops counting as waiting. Returns whether one starts.
    fn tx_complete(&mut self, side: usize, stats: &mut Stats) -> bool {
        let dir = &mut self.dirs[side];
        dir.queue.pop_front();
        match dir.queue.front() {
            Some(next) => {
                let bytes = u64::from(next.wire_bytes());
                dir.queued_bytes -= bytes;
                stats.dequeued(bytes);
            }
            None => dir.busy = false,
        }
        dir.busy
    }

    /// Bytes currently waiting (both directions), excluding the frame in
    /// flight.
    pub fn buffered_bytes(&self) -> u64 {
        self.dirs[0].queued_bytes + self.dirs[1].queued_bytes
    }

    /// Empties both directions (e.g. when an endpoint node goes down) and
    /// hands back every discarded frame with the interface it waited at.
    /// A frame mid-serialization is *not* among them: it is already on
    /// the wire and will be accounted for by its pending delivery event.
    pub(crate) fn flush(&mut self, stats: &mut Stats) -> Vec<(IfaceId, Packet)> {
        let mut flushed = Vec::new();
        for (dir, at) in self.dirs.iter_mut().zip(self.endpoints) {
            let in_flight = usize::from(dir.busy);
            flushed.extend(dir.queue.drain(..).skip(in_flight).map(|p| (at, p)));
            stats.dequeued(dir.queued_bytes);
            dir.queued_bytes = 0;
            dir.busy = false;
            dir.tx_gen += 1;
        }
        flushed
    }
}

/// The link layer's event: a direction's head frame finished serializing.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LinkEvent {
    TxComplete { link: LinkId, side: usize, gen: u64 },
}

impl LinkEvent {
    pub(crate) fn digest(&self, h: &mut StateHasher) {
        let LinkEvent::TxComplete { link, side, gen } = *self;
        h.write_bytes(&[2]);
        h.write_usize(link.index());
        h.write_usize(side);
        h.write_u64(gen);
    }
}

impl Simulator {
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
        if !up {
            l.epoch += 1;
        }
        let endpoints = l.endpoints;
        // Either endpoint names the link: the flush empties both directions.
        let flushed = if up { 0 } else { self.flush_iface(endpoints[0], DropReason::LinkDown) };
        self.telemetry.record_event(
            self.now().as_nanos(),
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
            self.now().as_nanos(),
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

    /// Bytes currently queued on the point-to-point links attached to
    /// `node` (both directions). The telemetry sampler uses this to track
    /// per-node access-link congestion (e.g. the TServer uplink during the
    /// attack window).
    pub fn node_link_buffered_bytes(&self, node: NodeId) -> u64 {
        let links = self.node_p2p_links(node);
        links.iter().map(|l| self.links[l.index()].buffered_bytes()).sum()
    }

    /// The point-to-point arm of transmission: `packet` leaves `node`.
    pub(crate) fn link_transmit(&mut self, link: LinkId, side: usize, node: NodeId, packet: Packet) {
        let l = &mut self.links[link.index()];
        if !l.admin_up {
            self.drop_packet(DropReason::LinkDown, node, &packet);
            return;
        }
        match l.enqueue(side, packet, &mut self.stats) {
            Ok(true) => self.start_tx(link, side),
            Ok(false) => {}
            Err(p) => self.drop_packet(DropReason::QueueOverflow, node, &p),
        }
    }

    fn start_tx(&mut self, link: LinkId, side: usize) {
        let l = &mut self.links[link.index()];
        l.dirs[side].tx_gen += 1;
        let gen = l.dirs[side].tx_gen;
        let epoch = l.epoch;
        let Some(head) = l.dirs[side].queue.front() else { return };
        let wire = u64::from(head.wire_bytes());
        let prop = l.config.delay;
        let jitter_max = l.config.jitter;
        let loss_p = l.config.loss_probability;
        let peer = l.peer(side);
        let node = self.ifaces[l.endpoints[side].index()].node;
        let packet = head.clone();
        let txd = tx_delay(wire, l.config.rate_bps);
        let jitter = if jitter_max.is_zero() {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.rng.gen_range(0..=jitter_max.as_nanos() as u64))
        };
        let now = self.now();
        self.schedule(now + txd, Event::Link(LinkEvent::TxComplete { link, side, gen }));
        // Injected wired loss mirrors the Wi-Fi loss model: the frame
        // occupies the transmitter for its full serialization time but is
        // corrupted on the wire and never arrives. The draw comes from the
        // dedicated fault RNG and only happens when the probability is
        // nonzero, so loss-free links leave every RNG stream untouched.
        if loss_p > 0.0 && self.fault_rng.gen_bool(loss_p.clamp(0.0, 1.0)) {
            self.drop_packet(DropReason::LinkLoss, node, &packet);
            return;
        }
        self.schedule(
            now + txd + prop + jitter,
            Event::Forward(ForwardEvent::Deliver { iface: peer, packet, epoch: Some((link, epoch)) }),
        );
    }

    pub(crate) fn on_link_event(&mut self, event: LinkEvent) {
        let LinkEvent::TxComplete { link, side, gen } = event;
        let l = &mut self.links[link.index()];
        if l.dirs[side].tx_gen != gen {
            return; // stale event from before a flush
        }
        if l.tx_complete(side, &mut self.stats) {
            self.start_tx(link, side);
        }
    }

    /// `netsim.links`: every link's mutable state — per-direction queue
    /// contents (head first — the in-flight frame), busy flags,
    /// generations, admin state, epoch, and the loss probability (mutable
    /// at runtime by fault injection).
    pub(crate) fn links_digest(&self) -> u64 {
        let mut h = StateHasher::new();
        h.write_usize(self.links.len());
        for l in &self.links {
            h.write_usize(l.endpoints[0].index());
            h.write_usize(l.endpoints[1].index());
            h.write_f64(l.config.loss_probability);
            for dir in &l.dirs {
                h.write_usize(dir.queue.len());
                for pkt in &dir.queue {
                    pkt.state_digest(&mut h);
                }
                h.write_u64(dir.queued_bytes);
                h.write_bool(dir.busy);
                h.write_u64(dir.tx_gen);
            }
            h.write_bool(l.admin_up);
            h.write_u64(l.epoch);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;
    use crate::SimTime;
    use std::net::{IpAddr, Ipv4Addr, SocketAddr};

    fn pkt(bytes: u32) -> Packet {
        let a = SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)), 1);
        let b = SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)), 2);
        Packet::udp(a, b, Payload::empty(), bytes.saturating_sub(crate::packet::DEFAULT_HEADER_BYTES))
    }

    fn link(queue_bytes: u64) -> P2pLink {
        P2pLink::new(
            LinkConfig::new(1_000_000, Duration::from_millis(1)).with_queue_capacity(queue_bytes),
            IfaceId::from_index(0),
            IfaceId::from_index(1),
        )
    }

    #[test]
    fn idle_transmitter_starts_immediately() {
        let mut l = link(1000);
        assert!(matches!(l.enqueue(0, pkt(100), &mut Stats::default()), Ok(true)));
        assert!(l.dirs[0].busy);
    }

    #[test]
    fn busy_transmitter_queues() {
        let (mut l, mut stats) = (link(1000), Stats::default());
        assert!(matches!(l.enqueue(0, pkt(100), &mut stats), Ok(true)));
        assert!(matches!(l.enqueue(0, pkt(100), &mut stats), Ok(false)));
        assert_eq!(l.buffered_bytes(), 100);
        assert_eq!(stats.buffered_bytes(), 100, "the frame in flight is not waiting");
    }

    #[test]
    fn overflow_drops() {
        let (mut l, mut stats) = (link(150), Stats::default());
        assert!(matches!(l.enqueue(0, pkt(100), &mut stats), Ok(true)));
        assert!(matches!(l.enqueue(0, pkt(100), &mut stats), Ok(false)));
        // queue holds 100 bytes; adding another 100 exceeds the 150-byte cap
        assert!(l.enqueue(0, pkt(100), &mut stats).is_err());
        assert_eq!(stats.buffered_bytes(), 100, "a refused frame was never counted");
    }

    #[test]
    fn tx_complete_advances_queue() {
        let (mut l, mut stats) = (link(1000), Stats::default());
        let _ = l.enqueue(0, pkt(100), &mut stats);
        let _ = l.enqueue(0, pkt(200), &mut stats);
        assert_eq!(l.dirs[0].queue[0].wire_bytes(), 100);
        assert!(l.tx_complete(0, &mut stats));
        assert_eq!(l.buffered_bytes(), 0); // next frame now in flight
        assert_eq!(stats.buffered_bytes(), 0);
        assert_eq!(l.dirs[0].queue[0].wire_bytes(), 200);
        assert!(!l.tx_complete(0, &mut stats));
        assert!(!l.dirs[0].busy);
    }

    #[test]
    fn directions_are_independent() {
        let (mut l, mut stats) = (link(1000), Stats::default());
        assert!(matches!(l.enqueue(0, pkt(100), &mut stats), Ok(true)));
        assert!(matches!(l.enqueue(1, pkt(100), &mut stats), Ok(true)));
    }

    #[test]
    fn flush_clears_everything_but_counts_only_waiting_frames() {
        let (mut l, mut stats) = (link(10_000), Stats::default());
        let _ = l.enqueue(0, pkt(100), &mut stats); // in flight on side 0
        let _ = l.enqueue(0, pkt(100), &mut stats); // waiting on side 0
        let _ = l.enqueue(1, pkt(100), &mut stats); // in flight on side 1
        // Only the waiting frame is a flush-drop; the two in-flight frames
        // are accounted for by their pending delivery events.
        let flushed = l.flush(&mut stats);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].0, IfaceId::from_index(0), "it waited at side 0's interface");
        assert_eq!((l.buffered_bytes(), stats.buffered_bytes()), (0, 0));
        assert!(!l.dirs[0].busy && !l.dirs[1].busy);
    }

    #[test]
    fn peer_maps_sides() {
        let l = link(0);
        assert_eq!(l.peer(0), IfaceId::from_index(1));
        assert_eq!(l.peer(1), IfaceId::from_index(0));
    }

    #[test]
    fn slow_link_limits_throughput() {
        use crate::sim::tests::{two_hosts, v4, Blaster, Sink};
        // 100 kbps link; offer ~10x that for one second.
        let mut h = two_hosts(100_000);
        let sink = h.sim.install_app(h.b, Box::new(Sink::default()));
        h.sim.install_app(h.a, Box::new(Blaster::new(v4(2), 1000, Duration::from_millis(1))));
        h.sim.run_until(SimTime::from_secs(1));
        let s = h.sim.app_ref::<Sink>(sink).expect("sink");
        // 100 kbps for 1 s = 12.5 kB; each packet is 128 wire bytes => ~97.
        assert!(s.packets < 120, "got {}", s.packets);
        assert!(s.packets > 60, "got {}", s.packets);
        assert!(h.sim.stats().dropped_queue_overflow > 0);
    }
}
