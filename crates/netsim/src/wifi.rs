//! Shared-medium (Wi-Fi-like) channel with simplified CSMA/CA contention.
//!
//! Used by the hardware-reference world (`--topology wifi`, Fig. 4's second
//! arm) to model the paper's physical setup: Raspberry-Pi Devs associated to
//! a Netgear router over 802.11. The model is a *simplified DCF*: one station
//! transmits at a time, stations sense the medium and defer, and each
//! transmission attempt collides with probability derived from the number of
//! concurrently contending stations (a slotted-contention approximation).
//! Collisions double the contention window and retry up to a limit, after
//! which the frame is dropped. This reproduces the throughput degradation a
//! real shared medium exhibits as station count grows, without simulating
//! per-slot PHY state.

use crate::ids::IfaceId;
use crate::packet::Packet;
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
pub(crate) struct Station {
    pub iface: IfaceId,
    pub queue: VecDeque<Packet>,
    pub queued_bytes: u64,
    pub retries: u32,
    /// Whether a `WifiAttempt` event is already scheduled for this station.
    pub attempt_pending: bool,
    /// Whether the head frame is currently on the air (its delivery event
    /// is scheduled; it must not be double-counted by a flush).
    pub in_flight: bool,
    /// Transmission generation, used to ignore stale `WifiTxComplete`
    /// events after a flush invalidated the transmitter state.
    pub tx_gen: u64,
    /// Application-level egress shaping rate in bps (`None` = unshaped).
    /// Frames still serialize at the PHY rate; shaping spaces successive
    /// transmissions (token-bucket with zero burst) — how the paper's lab
    /// limits its Raspberry Pis to IoT data rates.
    pub shaping_rate_bps: Option<u64>,
    /// Earliest simulated time (nanos) the next transmission may start,
    /// per the shaping rate.
    pub next_allowed_tx_nanos: u64,
}

/// A shared channel joining many station interfaces, optionally with a
/// designated gateway (access-point/router uplink) station.
#[derive(Debug, Clone)]
pub struct WifiChannel {
    pub(crate) config: WifiConfig,
    pub(crate) stations: Vec<Station>,
    /// Station index acting as the gateway for off-channel destinations.
    pub(crate) gateway: Option<usize>,
    /// Simulated time (nanos) until which the medium is busy.
    pub(crate) busy_until_nanos: u64,
}

impl WifiChannel {
    pub(crate) fn new(config: WifiConfig) -> Self {
        WifiChannel {
            config,
            stations: Vec::new(),
            gateway: None,
            busy_until_nanos: 0,
        }
    }

    /// The channel configuration.
    pub fn config(&self) -> &WifiConfig {
        &self.config
    }

    pub(crate) fn add_station(&mut self, iface: IfaceId) -> usize {
        // The per-station queue starts unallocated and grows on first
        // contention; preallocating for the byte cap cost ~8 KiB per idle
        // station at scale.
        self.stations.push(Station {
            iface,
            ..Station::default()
        });
        self.stations.len() - 1
    }

    /// Sets application-level egress shaping for a station.
    pub(crate) fn set_station_shaping(&mut self, station: usize, rate_bps: u64) {
        self.stations[station].shaping_rate_bps = Some(rate_bps);
    }

    /// Number of stations that currently have frames to send.
    pub(crate) fn contenders(&self) -> usize {
        self.stations.iter().filter(|s| !s.queue.is_empty()).count()
    }

    /// Collision probability for one attempt given `n` contenders, using a
    /// slotted-contention approximation: the attempt succeeds only if no
    /// other contender picked the same backoff slot out of `cw` slots.
    pub(crate) fn collision_probability(&self, contenders: usize, cw: u32) -> f64 {
        if contenders <= 1 {
            return 0.0;
        }
        let p_other_same_slot = 1.0 / f64::from(cw.max(1));
        1.0 - (1.0 - p_other_same_slot).powi(contenders as i32 - 1)
    }

    /// Current contention window for a station given its retry count.
    pub(crate) fn cw_for_retries(&self, retries: u32) -> u32 {
        (self.config.cw_min << retries.min(16)).min(self.config.cw_max)
    }

    /// Queues a frame at `station`, or hands it back when the station's
    /// queue has no room for it.
    pub(crate) fn enqueue(&mut self, station: usize, packet: Packet) -> Result<(), Packet> {
        let cap = self.config.queue_capacity_bytes;
        let st = &mut self.stations[station];
        let bytes = u64::from(packet.wire_bytes());
        if st.queued_bytes + bytes > cap {
            return Err(packet);
        }
        st.queued_bytes += bytes;
        st.queue.push_back(packet);
        Ok(())
    }

    /// The frame at the head of `station`'s queue.
    pub(crate) fn head(&self, station: usize) -> Option<&Packet> {
        self.stations[station].queue.front()
    }

    /// Removes and returns the frame at the head of `station`'s queue.
    pub(crate) fn pop_head(&mut self, station: usize) -> Option<Packet> {
        let st = &mut self.stations[station];
        let pkt = st.queue.pop_front()?;
        st.queued_bytes = st.queued_bytes.saturating_sub(u64::from(pkt.wire_bytes()));
        Some(pkt)
    }

    /// Bytes buffered across all stations.
    pub fn buffered_bytes(&self) -> u64 {
        self.stations.iter().map(|s| s.queued_bytes).sum()
    }

    /// Drops all frames queued at `station`; returns how many were dropped
    /// (a frame on the air is excluded — its delivery event accounts for
    /// it).
    pub(crate) fn flush_station(&mut self, station: usize) -> usize {
        let st = &mut self.stations[station];
        let in_flight = usize::from(st.in_flight && !st.queue.is_empty());
        let n = st.queue.len() - in_flight;
        st.queue.clear();
        st.queued_bytes = 0;
        st.retries = 0;
        st.attempt_pending = false;
        st.in_flight = false;
        st.tx_gen += 1;
        n
    }

    /// Folds the channel's contention state into a checkpoint digest:
    /// every station's queue, retry/backoff bookkeeping, shaping state,
    /// the gateway designation, and the medium-busy horizon.
    pub(crate) fn state_digest(&self, h: &mut crate::digest::StateHasher) {
        h.write_usize(self.stations.len());
        for st in &self.stations {
            h.write_usize(st.iface.index());
            h.write_usize(st.queue.len());
            for pkt in &st.queue {
                pkt.state_digest(h);
            }
            h.write_u64(st.queued_bytes);
            h.write_u32(st.retries);
            h.write_bool(st.attempt_pending);
            h.write_bool(st.in_flight);
            h.write_u64(st.tx_gen);
            match st.shaping_rate_bps {
                None => h.write_bool(false),
                Some(r) => {
                    h.write_bool(true);
                    h.write_u64(r);
                }
            }
            h.write_u64(st.next_allowed_tx_nanos);
        }
        match self.gateway {
            None => h.write_bool(false),
            Some(g) => {
                h.write_bool(true);
                h.write_usize(g);
            }
        }
        h.write_u64(self.busy_until_nanos);
    }

    /// Resolves the station index that owns `iface`, if any.
    pub(crate) fn station_of(&self, iface: IfaceId) -> Option<usize> {
        self.stations.iter().position(|s| s.iface == iface)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Payload;
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
        assert!(c.enqueue(0, pkt()).is_ok());
        assert!(c.enqueue(0, pkt()).is_err());
    }

    #[test]
    fn contenders_counts_nonempty_queues() {
        let mut c = chan(3);
        assert_eq!(c.contenders(), 0);
        c.enqueue(0, pkt()).expect("room");
        c.enqueue(2, pkt()).expect("room");
        assert_eq!(c.contenders(), 2);
    }

    #[test]
    fn flush_station_clears_state() {
        let mut c = chan(1);
        c.enqueue(0, pkt()).expect("room");
        c.stations[0].retries = 3;
        assert_eq!(c.flush_station(0), 1);
        assert_eq!(c.buffered_bytes(), 0);
        assert_eq!(c.stations[0].retries, 0);
    }

    #[test]
    fn station_of_resolves() {
        let c = chan(2);
        assert_eq!(c.station_of(IfaceId::from_index(1)), Some(1));
        assert_eq!(c.station_of(IfaceId::from_index(9)), None);
    }
}
