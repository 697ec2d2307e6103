//! Shared-medium (Wi-Fi-like) channel with simplified CSMA/CA contention.
//!
//! Used by the hardware-reference world (`--topology wifi`, Fig. 4's second
//! arm) to model the paper's physical setup: Raspberry-Pi Devs associated to
//! a Netgear router over 802.11. The model is a *simplified DCF*: one station
//! transmits at a time, stations sense the medium and defer, and each
//! transmission attempt collides with probability derived from the number of
//! concurrently contending stations (a slotted-contention approximation).
//! Collisions double the contention window and retry up to a limit, after
//! which the frame is dropped. No per-slot PHY state is simulated.
//!
//! What the model does and does not reproduce: each station's goodput
//! falls as stations are added (they share one medium), but a collision
//! costs no airtime — only the attempting station backs off, the medium
//! stays free and nobody else loses a frame — and every deferral draws a
//! fresh backoff. Aggregate goodput therefore *rises* with station count
//! (0.687 of the PHY rate at one saturated station, 0.893 at 100), where
//! 802.11's DCF falls (Bianchi: 0.686 → 0.459). ROADMAP item 11 tracks
//! the slot-synchronous DCF that fixes this.
//!
//! Backoff, collisions, shaping and frame delivery (`Attempt` and
//! `TxComplete` are the layer's events) and the `netsim.wifi` digest live
//! here beside the queues; no state field is visible outside this module.

use crate::digest::StateHasher;
use crate::forward::ForwardEvent;
use crate::ids::{ChannelId, IfaceId, NodeId};
use crate::node::Attachment;
use crate::packet::Packet;
use crate::sim::{Event, NetError, Simulator};
use crate::stats::{DropReason, Stats};
use crate::time::{tx_delay, SimTime};
use rand::Rng;
use std::collections::VecDeque;
use std::time::Duration;

/// Configuration of a shared Wi-Fi-like channel.
#[derive(Debug, Clone, PartialEq)]
pub struct WifiConfig {
    /// PHY rate in bits per second (shared by all stations).
    pub rate_bps: u64,
    /// Propagation delay to any station.
    pub delay: Duration,
    /// Contention slot time.
    pub slot: Duration,
    /// DIFS (sensing gap before contention).
    pub difs: Duration,
    /// Minimum contention window (slots).
    pub cw_min: u32,
    /// Maximum contention window (slots).
    pub cw_max: u32,
    /// Retransmission attempts before a frame is dropped.
    pub max_retries: u32,
    /// Independent per-frame random loss probability (interference).
    pub loss_probability: f64,
    /// Maximum bytes queued per station.
    pub queue_capacity_bytes: u64,
}

impl Default for WifiConfig {
    fn default() -> Self {
        WifiConfig {
            rate_bps: 54_000_000,
            delay: Duration::from_micros(3),
            slot: Duration::from_micros(9),
            difs: Duration::from_micros(34),
            cw_min: 16,
            cw_max: 1024,
            max_retries: 7,
            loss_probability: 0.0,
            queue_capacity_bytes: 256 * 1024,
        }
    }
}

/// Per-station transmitter state.
#[derive(Debug, Default, Clone)]
struct Station {
    iface: IfaceId,
    queue: VecDeque<Packet>,
    /// Bytes in `queue`, the frame on the air included.
    queued_bytes: u64,
    retries: u32,
    /// Whether a `WifiAttempt` event is already scheduled for this station.
    attempt_pending: bool,
    /// Whether the head frame is currently on the air (its delivery event
    /// is scheduled; it must not be double-counted by a flush).
    in_flight: bool,
    /// Transmission generation, used to ignore stale `WifiTxComplete`
    /// events after a flush invalidated the transmitter state.
    tx_gen: u64,
    /// Application-level egress shaping rate in bps (`None` = unshaped).
    /// Frames still serialize at the PHY rate; shaping spaces successive
    /// transmissions (token-bucket with zero burst) — how the paper's lab
    /// limits its Raspberry Pis to IoT data rates.
    shaping_rate_bps: Option<u64>,
    /// Earliest simulated time (nanos) the next transmission may start,
    /// per the shaping rate.
    next_allowed_tx_nanos: u64,
}

/// A shared channel joining many station interfaces, optionally with a
/// designated gateway (access-point/router uplink) station.
#[derive(Debug, Clone)]
pub struct WifiChannel {
    config: WifiConfig,
    stations: Vec<Station>,
    /// Station index acting as the gateway for off-channel destinations.
    gateway: Option<usize>,
    /// Simulated time (nanos) until which the medium is busy.
    busy_until_nanos: u64,
}

impl WifiChannel {
    fn new(config: WifiConfig) -> Self {
        WifiChannel {
            config,
            stations: Vec::new(),
            gateway: None,
            busy_until_nanos: 0,
        }
    }

    fn add_station(&mut self, iface: IfaceId) -> usize {
        // The queue starts unallocated: an eager one is ~8 KiB per idle
        // station.
        self.stations.push(Station {
            iface,
            ..Station::default()
        });
        self.stations.len() - 1
    }

    /// Number of stations that currently have frames to send.
    fn contenders(&self) -> usize {
        self.stations.iter().filter(|s| !s.queue.is_empty()).count()
    }

    /// Collision probability for one attempt given `n` contenders, using a
    /// slotted-contention approximation: the attempt succeeds only if no
    /// other contender picked the same backoff slot out of `cw` slots.
    fn collision_probability(&self, contenders: usize, cw: u32) -> f64 {
        if contenders <= 1 {
            return 0.0;
        }
        let p_other_same_slot = 1.0 / f64::from(cw.max(1));
        1.0 - (1.0 - p_other_same_slot).powi(contenders as i32 - 1)
    }

    /// Current contention window for a station given its retry count.
    fn cw_for_retries(&self, retries: u32) -> u32 {
        (self.config.cw_min << retries.min(16)).min(self.config.cw_max)
    }

    /// Queues a frame at `station`, or hands it back when the station's
    /// queue has no room for it.
    fn enqueue(&mut self, station: usize, packet: Packet, stats: &mut Stats) -> Result<(), Packet> {
        let cap = self.config.queue_capacity_bytes;
        let st = &mut self.stations[station];
        let bytes = u64::from(packet.wire_bytes());
        if st.queued_bytes + bytes > cap {
            return Err(packet);
        }
        st.queued_bytes += bytes;
        stats.queued(bytes);
        st.queue.push_back(packet);
        Ok(())
    }

    /// Removes and returns the frame at the head of `station`'s queue.
    fn pop_head(&mut self, station: usize, stats: &mut Stats) -> Option<Packet> {
        let st = &mut self.stations[station];
        let pkt = st.queue.pop_front()?;
        let bytes = u64::from(pkt.wire_bytes());
        st.queued_bytes -= bytes;
        stats.dequeued(bytes);
        Some(pkt)
    }

    /// Bytes buffered across all stations.
    pub fn buffered_bytes(&self) -> u64 {
        self.stations.iter().map(|s| s.queued_bytes).sum()
    }

    /// Empties `station`'s queue and resets its transmitter; hands back
    /// each discarded frame with the station's interface (not a frame on
    /// the air — its delivery event accounts for it).
    pub(crate) fn flush_station(&mut self, station: usize, stats: &mut Stats) -> Vec<(IfaceId, Packet)> {
        let st = &mut self.stations[station];
        let (at, in_flight) = (st.iface, usize::from(st.in_flight));
        let flushed = st.queue.drain(..).skip(in_flight).map(|p| (at, p)).collect();
        stats.dequeued(st.queued_bytes);
        st.queued_bytes = 0;
        st.retries = 0;
        st.attempt_pending = false;
        st.in_flight = false;
        st.tx_gen += 1;
        flushed
    }

    /// Resolves the station index that owns `iface`, if any.
    fn station_of(&self, iface: IfaceId) -> Option<usize> {
        self.stations.iter().position(|s| s.iface == iface)
    }
}

/// The Wi-Fi layer's events: a backoff ran out; a frame left the air.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WifiEvent {
    Attempt { chan: ChannelId, station: usize },
    TxComplete { chan: ChannelId, station: usize, gen: u64 },
}

impl WifiEvent {
    pub(crate) fn digest(&self, h: &mut StateHasher) {
        match *self {
            WifiEvent::Attempt { chan, station } => {
                h.write_bytes(&[4]);
                h.write_usize(chan.index());
                h.write_usize(station);
            }
            WifiEvent::TxComplete { chan, station, gen } => {
                h.write_bytes(&[5]);
                h.write_usize(chan.index());
                h.write_usize(station);
                h.write_u64(gen);
            }
        }
    }
}

impl Simulator {
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
        let c = &mut self.channels[chan.index()];
        let station = c.station_of(iface).expect("iface must be attached to the channel");
        c.stations[station].shaping_rate_bps = Some(rate_bps);
    }

    /// Designates a station interface as the channel's gateway (the access
    /// point / router uplink): unicast frames whose destination is not a
    /// station on the channel are handed to the gateway for forwarding.
    pub fn set_wifi_gateway(&mut self, chan: ChannelId, iface: IfaceId) {
        let c = &mut self.channels[chan.index()];
        c.gateway = Some(c.station_of(iface).expect("gateway iface must be attached to the channel"));
    }

    /// The Wi-Fi arm of transmission: `packet` leaves `node`.
    pub(crate) fn wifi_transmit(&mut self, chan: ChannelId, station: usize, node: NodeId, packet: Packet) {
        match self.channels[chan.index()].enqueue(station, packet, &mut self.stats) {
            Ok(()) => self.maybe_schedule_wifi_attempt(chan, station),
            Err(p) => self.drop_packet(DropReason::QueueOverflow, node, &p),
        }
    }

    fn maybe_schedule_wifi_attempt(&mut self, chan: ChannelId, station: usize) {
        let now = self.now();
        let c = &mut self.channels[chan.index()];
        let st = &mut c.stations[station];
        if st.attempt_pending || st.queue.is_empty() {
            return;
        }
        st.attempt_pending = true;
        let cw = c.cw_for_retries(c.stations[station].retries);
        let backoff_slots = self.rng.gen_range(0..cw);
        let st = &c.stations[station];
        let base_nanos = c.busy_until_nanos.max(now.as_nanos()).max(st.next_allowed_tx_nanos);
        let at = SimTime::from_nanos(base_nanos) + c.config.difs + c.config.slot * backoff_slots;
        self.schedule(at, Event::Wifi(WifiEvent::Attempt { chan, station }));
    }

    fn on_wifi_attempt(&mut self, chan: ChannelId, station: usize) {
        let now = self.now();
        let c = &mut self.channels[chan.index()];
        c.stations[station].attempt_pending = false;
        if c.stations[station].queue.is_empty() {
            return;
        }
        // Medium busy: defer and retry after it frees (not a collision).
        if c.busy_until_nanos > now.as_nanos() {
            self.maybe_schedule_wifi_attempt(chan, station);
            return;
        }
        let iface = c.stations[station].iface;
        let node = self.ifaces[iface.index()].node;
        if !self.nodes.up[node.index()] {
            self.flush_iface(iface, DropReason::NodeDown);
            return;
        }
        let cw = c.cw_for_retries(c.stations[station].retries);
        let p = c.collision_probability(c.contenders(), cw);
        if self.rng.gen_bool(p.clamp(0.0, 1.0)) {
            let st = &mut c.stations[station];
            st.retries += 1;
            let retries_exceeded = st.retries > c.config.max_retries;
            self.stats.wifi_collisions += 1;
            if retries_exceeded {
                st.retries = 0;
                if let Some(pkt) = c.pop_head(station, &mut self.stats) {
                    self.drop_packet(DropReason::WifiRetryLimit, node, &pkt);
                }
            }
            self.maybe_schedule_wifi_attempt(chan, station);
            return;
        }
        // Successful medium acquisition: transmit the head frame.
        let st = &mut c.stations[station];
        st.tx_gen += 1;
        st.in_flight = true;
        let gen = st.tx_gen;
        let packet = st.queue.front().expect("nonempty queue").clone();
        let txd = tx_delay(u64::from(packet.wire_bytes()), c.config.rate_bps);
        let prop = c.config.delay;
        c.busy_until_nanos = (now + txd).as_nanos();
        self.schedule(now + txd, Event::Wifi(WifiEvent::TxComplete { chan, station, gen }));
        self.deliver_wifi_frame(chan, station, packet, txd + prop);
    }

    fn deliver_wifi_frame(
        &mut self,
        chan: ChannelId,
        from_station: usize,
        packet: Packet,
        after: Duration,
    ) {
        let c = &self.channels[chan.index()];
        let loss_p = c.config.loss_probability;
        let deliver_to: Vec<IfaceId> = if packet.is_multicast() {
            c.stations
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != from_station)
                .map(|(_, s)| s.iface)
                .collect()
        } else {
            let dst_iface = self.addr_index.get(&packet.dst.ip()).copied();
            let target = dst_iface
                .filter(|i| c.station_of(*i).is_some())
                .or_else(|| c.gateway.map(|g| c.stations[g].iface))
                .filter(|i| c.station_of(*i) != Some(from_station));
            target.into_iter().collect()
        };
        let node = self.ifaces[c.stations[from_station].iface.index()].node;
        if deliver_to.is_empty() {
            self.drop_packet(DropReason::NoRoute, node, &packet);
            return;
        }
        for iface in deliver_to {
            if loss_p > 0.0 && self.rng.gen_bool(loss_p.clamp(0.0, 1.0)) {
                self.drop_packet(DropReason::WifiLoss, node, &packet);
                continue;
            }
            let deliver = ForwardEvent::Deliver { iface, packet: packet.clone(), epoch: None };
            self.schedule(self.now() + after, Event::Forward(deliver));
        }
    }

    fn on_wifi_tx_complete(&mut self, chan: ChannelId, station: usize, gen: u64) {
        let now = self.now();
        let c = &mut self.channels[chan.index()];
        if c.stations[station].tx_gen != gen {
            return; // stale
        }
        let popped = c.pop_head(station, &mut self.stats);
        let st = &mut c.stations[station];
        st.retries = 0;
        st.in_flight = false;
        // Egress shaping: space transmission starts at the shaped rate
        // (the frame occupied the medium at the PHY rate; its *start*
        // was `tx_delay(wire, phy)` ago).
        if let (Some(pkt), Some(shape)) = (popped, st.shaping_rate_bps) {
            let wire = u64::from(pkt.wire_bytes());
            let phy_txd = tx_delay(wire, c.config.rate_bps);
            let start_nanos = now.as_nanos().saturating_sub(phy_txd.as_nanos() as u64);
            let next = SimTime::from_nanos(start_nanos) + tx_delay(wire, shape);
            st.next_allowed_tx_nanos = next.as_nanos();
        }
        // Other stations whose attempts deferred during busy reschedule on
        // their own pending events.
        self.maybe_schedule_wifi_attempt(chan, station);
    }

    pub(crate) fn on_wifi_event(&mut self, event: WifiEvent) {
        match event {
            WifiEvent::Attempt { chan, station } => self.on_wifi_attempt(chan, station),
            WifiEvent::TxComplete { chan, station, gen } => self.on_wifi_tx_complete(chan, station, gen),
        }
    }

    /// `netsim.wifi`: every channel's contention state — each station's
    /// queue, retry/backoff bookkeeping and shaping state, the gateway
    /// designation, and the medium-busy horizon.
    pub(crate) fn wifi_digest(&self) -> u64 {
        let mut h = StateHasher::new();
        h.write_usize(self.channels.len());
        for c in &self.channels {
            h.write_usize(c.stations.len());
            for st in &c.stations {
                h.write_usize(st.iface.index());
                h.write_usize(st.queue.len());
                for pkt in &st.queue {
                    pkt.state_digest(&mut h);
                }
                h.write_u64(st.queued_bytes);
                h.write_u32(st.retries);
                h.write_bool(st.attempt_pending);
                h.write_bool(st.in_flight);
                h.write_u64(st.tx_gen);
                h.write_option(st.shaping_rate_bps, StateHasher::write_u64);
                h.write_u64(st.next_allowed_tx_nanos);
            }
            h.write_option(c.gateway, StateHasher::write_usize);
            h.write_u64(c.busy_until_nanos);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;
    use crate::sim::tests::{captured, capturing, v4, Blaster, Sink};
    use std::net::{IpAddr, Ipv4Addr, SocketAddr};

    fn pkt() -> Packet {
        let a = SocketAddr::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)), 1);
        Packet::udp(a, a, Payload::empty(), 100)
    }

    fn chan(n: usize) -> WifiChannel {
        let mut c = WifiChannel::new(WifiConfig::default());
        for i in 0..n {
            c.add_station(IfaceId::from_index(i));
        }
        c
    }

    #[test]
    fn collision_probability_grows_with_contenders() {
        let c = chan(0);
        let p1 = c.collision_probability(1, 16);
        let p2 = c.collision_probability(2, 16);
        let p10 = c.collision_probability(10, 16);
        assert_eq!(p1, 0.0);
        assert!(p2 > 0.0);
        assert!(p10 > p2);
        assert!(p10 < 1.0);
    }

    #[test]
    fn collision_probability_shrinks_with_larger_cw() {
        let c = chan(0);
        assert!(c.collision_probability(5, 1024) < c.collision_probability(5, 16));
    }

    #[test]
    fn cw_doubles_and_saturates() {
        let c = chan(0);
        assert_eq!(c.cw_for_retries(0), 16);
        assert_eq!(c.cw_for_retries(1), 32);
        assert_eq!(c.cw_for_retries(10), 1024);
    }

    #[test]
    fn enqueue_respects_capacity() {
        let mut c = WifiChannel::new(WifiConfig {
            queue_capacity_bytes: 200,
            ..WifiConfig::default()
        });
        c.add_station(IfaceId::from_index(0));
        let mut stats = Stats::default();
        assert!(c.enqueue(0, pkt(), &mut stats).is_ok());
        assert!(c.enqueue(0, pkt(), &mut stats).is_err());
        assert_eq!(stats.buffered_bytes(), c.buffered_bytes(), "a refused frame was never counted");
    }

    #[test]
    fn contenders_counts_nonempty_queues() {
        let (mut c, mut stats) = (chan(3), Stats::default());
        assert_eq!(c.contenders(), 0);
        c.enqueue(0, pkt(), &mut stats).expect("room");
        c.enqueue(2, pkt(), &mut stats).expect("room");
        assert_eq!(c.contenders(), 2);
    }

    #[test]
    fn flush_station_clears_state() {
        let (mut c, mut stats) = (chan(1), Stats::default());
        c.enqueue(0, pkt(), &mut stats).expect("room");
        c.stations[0].retries = 3;
        assert_eq!(c.flush_station(0, &mut stats).len(), 1);
        assert_eq!((c.buffered_bytes(), stats.buffered_bytes()), (0, 0));
        assert_eq!(c.stations[0].retries, 0);
    }

    #[test]
    fn station_of_resolves() {
        let c = chan(2);
        assert_eq!(c.station_of(IfaceId::from_index(1)), Some(1));
        assert_eq!(c.station_of(IfaceId::from_index(9)), None);
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
        sim.install_app(a, Box::new(Blaster::new(v4(2), 20, Duration::from_millis(5))));
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
        sim.install_app(a, Box::new(Blaster::new(v4(2), 5, Duration::from_millis(5))));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.app_ref::<Sink>(sink).expect("sink").packets, 0);
        assert_eq!(sim.stats().dropped_wifi_loss, 5);
    }

    #[test]
    fn wifi_queue_overflow_is_a_traced_drop() {
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
        sim.set_telemetry(capturing());
        let src = SocketAddr::new(v4(1), 1000);
        let dst = SocketAddr::new(v4(2), 9);
        for _ in 0..2 {
            sim.send_from_node(a, Packet::udp(src, dst, Payload::empty(), 500));
        }
        let dropped = |r: &(&str, u64, NodeId)| r.0.starts_with("dropped");
        let drops: Vec<_> = captured(&sim).into_iter().filter(dropped).collect();
        assert_eq!(drops, [("dropped:queue_overflow", 2, a)]);
        assert_eq!(sim.stats().dropped_queue_overflow, 1);
    }
}
