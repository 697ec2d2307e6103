//! Point-to-point links with serialization delay, propagation delay, and
//! drop-tail queues.
//!
//! A [`P2pLink`] joins exactly two interfaces. Each direction has an
//! independent transmitter: while a frame is being serialized the direction
//! is *busy* and further frames wait in a bounded FIFO queue; frames that
//! arrive at a full queue are dropped (drop-tail). This finite-rate,
//! finite-buffer model is what produces the congestion-driven non-linearity
//! the paper reports in Figure 2.

use crate::ids::IfaceId;
use crate::packet::Packet;
use std::collections::VecDeque;
use std::time::Duration;

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
pub(crate) struct LinkDirection {
    pub queue: VecDeque<Packet>,
    pub queued_bytes: u64,
    pub busy: bool,
    /// Transmission generation, used to ignore stale `TxComplete` events
    /// after a flush (node churn) invalidated the transmitter state.
    pub tx_gen: u64,
}

/// A full-duplex point-to-point link between two interfaces.
#[derive(Debug, Clone)]
pub struct P2pLink {
    pub(crate) config: LinkConfig,
    pub(crate) endpoints: [IfaceId; 2],
    pub(crate) dirs: [LinkDirection; 2],
    /// Administrative state: a down link drops everything offered to it
    /// (fault injection; node churn flushes queues but leaves links up).
    pub(crate) admin_up: bool,
    /// Link epoch, bumped on every admin-down. Delivery events scheduled
    /// over this link carry the epoch they were transmitted under; a
    /// mismatch at delivery time means the frame was on the wire when the
    /// link was cut, so it is dropped instead of delivered.
    pub(crate) epoch: u64,
}

impl P2pLink {
    pub(crate) fn new(config: LinkConfig, a: IfaceId, b: IfaceId) -> Self {
        // Queues start unallocated and grow on first congestion. Most links
        // in a 100k-device world never queue a single frame (access links
        // are idle or uncongested), so eager `with_capacity` buffers were
        // the dominant resident-memory term at scale — ~8 KiB per link that
        // only drop-tail hot spots ever used.
        P2pLink {
            config,
            endpoints: [a, b],
            dirs: [LinkDirection::default(), LinkDirection::default()],
            admin_up: true,
            epoch: 0,
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// The interface on the given side (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `side` is not 0 or 1.
    pub fn endpoint(&self, side: usize) -> IfaceId {
        self.endpoints[side]
    }

    /// The interface opposite the given side.
    pub(crate) fn peer(&self, side: usize) -> IfaceId {
        self.endpoints[1 - side]
    }

    /// Attempts to queue `packet` for transmission from `side`.
    ///
    /// Returns `Ok(true)` if the transmitter was idle and the caller must
    /// start serialization now, `Ok(false)` if the packet was queued behind
    /// an ongoing transmission, and `Err(packet)` if the queue overflowed.
    pub(crate) fn enqueue(&mut self, side: usize, packet: Packet) -> Result<bool, Packet> {
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
        dir.queue.push_back(packet);
        Ok(false)
    }

    /// Takes the packet at the head of `side`'s queue (the one whose
    /// serialization is starting or has just finished).
    pub(crate) fn pop_head(&mut self, side: usize) -> Option<Packet> {
        let dir = &mut self.dirs[side];
        let pkt = dir.queue.pop_front()?;
        Some(pkt)
    }

    /// The packet currently at the head of `side`'s queue (in flight if the
    /// direction is busy).
    pub(crate) fn head(&self, side: usize) -> Option<&Packet> {
        self.dirs[side].queue.front()
    }

    /// Called when serialization of the head packet finished; returns the
    /// next packet to serialize, if any, and updates busy state.
    pub(crate) fn tx_complete(&mut self, side: usize) -> Option<&Packet> {
        let dir = &mut self.dirs[side];
        match dir.queue.front() {
            Some(next) => {
                dir.queued_bytes = dir.queued_bytes.saturating_sub(u64::from(next.wire_bytes()));
                Some(&dir.queue[0])
            }
            None => {
                dir.busy = false;
                None
            }
        }
    }

    /// Bytes currently waiting (both directions), excluding the frame in
    /// flight.
    pub fn buffered_bytes(&self) -> u64 {
        self.dirs[0].queued_bytes + self.dirs[1].queued_bytes
    }

    /// Folds the link's mutable state into a checkpoint digest: per-
    /// direction queue contents (head first — the in-flight frame), busy
    /// flags, generations, admin state, epoch, and the loss probability
    /// (mutable at runtime by fault injection).
    pub(crate) fn state_digest(&self, h: &mut crate::digest::StateHasher) {
        h.write_usize(self.endpoints[0].index());
        h.write_usize(self.endpoints[1].index());
        h.write_f64(self.config.loss_probability);
        for dir in &self.dirs {
            h.write_usize(dir.queue.len());
            for pkt in &dir.queue {
                pkt.state_digest(h);
            }
            h.write_u64(dir.queued_bytes);
            h.write_bool(dir.busy);
            h.write_u64(dir.tx_gen);
        }
        h.write_bool(self.admin_up);
        h.write_u64(self.epoch);
    }

    /// Drops all queued packets (e.g. when an endpoint node goes down);
    /// returns how many packets were discarded. A frame mid-serialization
    /// is *not* counted: it is already on the wire and will be accounted
    /// for by its pending delivery event.
    pub(crate) fn flush(&mut self) -> usize {
        let mut n = 0;
        for dir in &mut self.dirs {
            let in_flight = usize::from(dir.busy && !dir.queue.is_empty());
            n += dir.queue.len() - in_flight;
            dir.queue.clear();
            dir.queued_bytes = 0;
            dir.busy = false;
            dir.tx_gen += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;
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
        assert!(matches!(l.enqueue(0, pkt(100)), Ok(true)));
        assert!(l.dirs[0].busy);
    }

    #[test]
    fn busy_transmitter_queues() {
        let mut l = link(1000);
        assert!(matches!(l.enqueue(0, pkt(100)), Ok(true)));
        assert!(matches!(l.enqueue(0, pkt(100)), Ok(false)));
        assert_eq!(l.buffered_bytes(), 100);
    }

    #[test]
    fn overflow_drops() {
        let mut l = link(150);
        assert!(matches!(l.enqueue(0, pkt(100)), Ok(true)));
        assert!(matches!(l.enqueue(0, pkt(100)), Ok(false)));
        // queue holds 100 bytes; adding another 100 exceeds the 150-byte cap
        assert!(l.enqueue(0, pkt(100)).is_err());
    }

    #[test]
    fn tx_complete_advances_queue() {
        let mut l = link(1000);
        let _ = l.enqueue(0, pkt(100));
        let _ = l.enqueue(0, pkt(200));
        let head = l.pop_head(0).expect("head");
        assert_eq!(head.wire_bytes(), 100);
        assert!(l.tx_complete(0).is_some());
        assert_eq!(l.buffered_bytes(), 0); // next frame now in flight
        let head = l.pop_head(0).expect("head");
        assert_eq!(head.wire_bytes(), 200);
        assert!(l.tx_complete(0).is_none());
        assert!(!l.dirs[0].busy);
    }

    #[test]
    fn directions_are_independent() {
        let mut l = link(1000);
        assert!(matches!(l.enqueue(0, pkt(100)), Ok(true)));
        assert!(matches!(l.enqueue(1, pkt(100)), Ok(true)));
    }

    #[test]
    fn flush_clears_everything_but_counts_only_waiting_frames() {
        let mut l = link(10_000);
        let _ = l.enqueue(0, pkt(100)); // in flight on side 0
        let _ = l.enqueue(0, pkt(100)); // waiting on side 0
        let _ = l.enqueue(1, pkt(100)); // in flight on side 1
        // Only the waiting frame is a flush-drop; the two in-flight frames
        // are accounted for by their pending delivery events.
        assert_eq!(l.flush(), 1);
        assert_eq!(l.buffered_bytes(), 0);
        assert!(!l.dirs[0].busy && !l.dirs[1].busy);
    }

    #[test]
    fn peer_maps_sides() {
        let l = link(0);
        assert_eq!(l.peer(0), IfaceId::from_index(1));
        assert_eq!(l.peer(1), IfaceId::from_index(0));
        assert_eq!(l.endpoint(0), IfaceId::from_index(0));
    }
}
