//! Global simulation statistics and the reasons a packet can be dropped.

use crate::digest::StateHasher;

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// A drop-tail queue overflowed.
    QueueOverflow,
    /// The destination or a transit node was down.
    NodeDown,
    /// The TTL/hop limit reached zero.
    TtlExpired,
    /// No route to the destination.
    NoRoute,
    /// No application bound to the destination port.
    PortUnreachable,
    /// The shared medium dropped the frame after exhausting retries.
    WifiRetryLimit,
    /// Random wireless loss (interference).
    WifiLoss,
    /// An ingress filter (deployed defense) rejected the packet.
    Filtered,
    /// The link was administratively down (fault injection): frames queued
    /// or in flight at the flap, or offered while the link stayed down.
    LinkDown,
    /// Random corruption/loss on a wired link (fault injection; the wired
    /// analogue of [`DropReason::WifiLoss`]).
    LinkLoss,
}

impl DropReason {
    /// Every reason, in declaration order. Kept in sync with the enum by
    /// the exhaustive matches in [`Stats::record_drop`],
    /// [`Stats::drop_count`], `DropReason::capture_kind`, and the
    /// `every_reason_has_a_counter` test.
    pub const ALL: [DropReason; 10] = [
        DropReason::QueueOverflow,
        DropReason::NodeDown,
        DropReason::TtlExpired,
        DropReason::NoRoute,
        DropReason::PortUnreachable,
        DropReason::WifiRetryLimit,
        DropReason::WifiLoss,
        DropReason::Filtered,
        DropReason::LinkDown,
        DropReason::LinkLoss,
    ];

    /// The packet capture's `kind` for a drop: `dropped:<name>`. The one
    /// table of reason names — [`DropReason::as_str`] slices the prefix
    /// off — kept as whole `'static` strings so a capture record owns no
    /// heap memory.
    pub(crate) fn capture_kind(self) -> &'static str {
        match self {
            DropReason::QueueOverflow => "dropped:queue_overflow",
            DropReason::NodeDown => "dropped:node_down",
            DropReason::TtlExpired => "dropped:ttl_expired",
            DropReason::NoRoute => "dropped:no_route",
            DropReason::PortUnreachable => "dropped:port_unreachable",
            DropReason::WifiRetryLimit => "dropped:wifi_retry_limit",
            DropReason::WifiLoss => "dropped:wifi_loss",
            DropReason::Filtered => "dropped:filtered",
            DropReason::LinkDown => "dropped:link_down",
            DropReason::LinkLoss => "dropped:link_loss",
        }
    }

    /// Stable lowercase name: the capture kind without its `dropped:`.
    pub fn as_str(self) -> &'static str {
        &self.capture_kind()["dropped:".len()..]
    }
}

/// Aggregate counters maintained by the simulator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Packets handed to the network layer by applications.
    pub packets_sent: u64,
    /// Packets delivered to an application or sink.
    pub packets_delivered: u64,
    /// Payload+header bytes delivered to applications.
    pub bytes_delivered: u64,
    /// Drops due to queue overflow.
    pub dropped_queue_overflow: u64,
    /// Drops because a node was down.
    pub dropped_node_down: u64,
    /// Drops due to TTL expiry.
    pub dropped_ttl: u64,
    /// Drops because no route matched.
    pub dropped_no_route: u64,
    /// Drops because no socket was bound to the destination port.
    pub dropped_port_unreachable: u64,
    /// Frames lost to Wi-Fi collisions (individual collision events).
    pub wifi_collisions: u64,
    /// Frames dropped after exhausting Wi-Fi retries.
    pub dropped_wifi_retries: u64,
    /// Frames dropped to random wireless loss.
    pub dropped_wifi_loss: u64,
    /// Packets rejected by ingress filters (deployed defenses).
    pub dropped_filtered: u64,
    /// Frames dropped because their link was administratively down.
    pub dropped_link_down: u64,
    /// Frames lost to injected corruption on a wired link.
    pub dropped_link_loss: u64,
    /// Peak bytes buffered in link/channel queues at any instant.
    pub peak_buffered_bytes: u64,
    /// Total events executed.
    pub events_executed: u64,
    /// Bytes waiting in link and station queues right now, kept by
    /// [`Stats::queued`] and [`Stats::dequeued`] alone.
    buffered_bytes: u64,
}

impl Stats {
    /// Total packets dropped for any reason.
    ///
    /// For unicast-only workloads, `packets_sent ==
    /// packets_delivered + total_dropped()` (packet conservation; frames
    /// in flight during a node flush are charged to their eventual
    /// delivery outcome, not to the flush). Multicast breaks the equality
    /// by design: one sent packet may be delivered at many nodes.
    pub fn total_dropped(&self) -> u64 {
        DropReason::ALL.iter().map(|&reason| self.drop_count(reason)).sum()
    }

    /// Charges one drop to its per-reason counter. Every drop site in
    /// the simulator (link queues, Wi-Fi, routing, filters, admin
    /// flushes) goes through here; the match is deliberately exhaustive
    /// so a new [`DropReason`] without a counter fails to compile.
    pub(crate) fn record_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::QueueOverflow => self.dropped_queue_overflow += 1,
            DropReason::NodeDown => self.dropped_node_down += 1,
            DropReason::TtlExpired => self.dropped_ttl += 1,
            DropReason::NoRoute => self.dropped_no_route += 1,
            DropReason::PortUnreachable => self.dropped_port_unreachable += 1,
            DropReason::WifiRetryLimit => self.dropped_wifi_retries += 1,
            DropReason::WifiLoss => self.dropped_wifi_loss += 1,
            DropReason::Filtered => self.dropped_filtered += 1,
            DropReason::LinkDown => self.dropped_link_down += 1,
            DropReason::LinkLoss => self.dropped_link_loss += 1,
        }
    }

    /// A queue took `bytes` in. Every link and station queue mutator
    /// reports here or to [`Stats::dequeued`] as it changes its own count:
    /// the one place buffered bytes and their high-water mark (Table I's
    /// attack-memory column) move.
    pub(crate) fn queued(&mut self, bytes: u64) {
        self.buffered_bytes += bytes;
        self.peak_buffered_bytes = self.peak_buffered_bytes.max(self.buffered_bytes);
    }

    /// A queue let `bytes` go (transmitted, dropped or flushed).
    pub(crate) fn dequeued(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.buffered_bytes, "queue released bytes it never reported");
        self.buffered_bytes -= bytes;
    }

    /// Bytes waiting in link and station queues right now.
    pub(crate) fn buffered_bytes(&self) -> u64 {
        self.buffered_bytes
    }

    /// Folds every digested counter, in the order stored checkpoints
    /// were written with (`wifi_collisions` sits among the drops).
    pub(crate) fn state_digest(&self, h: &mut StateHasher) {
        for v in [
            self.packets_sent,
            self.packets_delivered,
            self.bytes_delivered,
            self.dropped_queue_overflow,
            self.dropped_node_down,
            self.dropped_ttl,
            self.dropped_no_route,
            self.dropped_port_unreachable,
            self.wifi_collisions,
            self.dropped_wifi_retries,
            self.dropped_wifi_loss,
            self.dropped_filtered,
            self.dropped_link_down,
            self.dropped_link_loss,
            self.peak_buffered_bytes,
            self.events_executed,
            self.buffered_bytes,
        ] {
            h.write_u64(v);
        }
    }

    /// The counter for one reason (read side of [`Stats::record_drop`]).
    pub fn drop_count(&self, reason: DropReason) -> u64 {
        match reason {
            DropReason::QueueOverflow => self.dropped_queue_overflow,
            DropReason::NodeDown => self.dropped_node_down,
            DropReason::TtlExpired => self.dropped_ttl,
            DropReason::NoRoute => self.dropped_no_route,
            DropReason::PortUnreachable => self.dropped_port_unreachable,
            DropReason::WifiRetryLimit => self.dropped_wifi_retries,
            DropReason::WifiLoss => self.dropped_wifi_loss,
            DropReason::Filtered => self.dropped_filtered,
            DropReason::LinkDown => self.dropped_link_down,
            DropReason::LinkLoss => self.dropped_link_loss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_dropped_sums_all_reasons() {
        let mut s = Stats::default();
        for reason in DropReason::ALL {
            s.record_drop(reason);
        }
        assert_eq!(s.total_dropped(), DropReason::ALL.len() as u64);
    }

    /// Compile-time guard: adding a `DropReason` variant forces updates
    /// here, in `ALL`, and in the `record_drop`/`drop_count`/`as_str`
    /// matches before the crate builds again.
    #[test]
    fn every_reason_has_a_counter() {
        fn listed(reason: DropReason) {
            match reason {
                DropReason::QueueOverflow
                | DropReason::NodeDown
                | DropReason::TtlExpired
                | DropReason::NoRoute
                | DropReason::PortUnreachable
                | DropReason::WifiRetryLimit
                | DropReason::WifiLoss
                | DropReason::Filtered
                | DropReason::LinkDown
                | DropReason::LinkLoss => {
                    assert!(DropReason::ALL.contains(&reason), "{reason:?} missing from ALL")
                }
            }
        }
        let mut s = Stats::default();
        for (i, reason) in DropReason::ALL.into_iter().enumerate() {
            listed(reason);
            assert_eq!(s.drop_count(reason), 0);
            for _ in 0..=i {
                s.record_drop(reason);
            }
            assert_eq!(s.drop_count(reason), i as u64 + 1, "{reason:?} counter wired");
            assert!(!reason.as_str().is_empty());
            assert_eq!(reason.capture_kind(), format!("dropped:{}", reason.as_str()));
        }
        let expected: u64 = (1..=DropReason::ALL.len() as u64).sum();
        assert_eq!(s.total_dropped(), expected, "total_dropped sums every counter");
    }

    #[test]
    fn default_stats_are_zero() {
        let s = Stats::default();
        assert_eq!(s.packets_sent, 0);
        assert_eq!(s.total_dropped(), 0);
    }

    /// `buffered_bytes()` is exactly the bytes the queues hold, at every
    /// pause of a world that exercises every queue mutator: four stations
    /// shaped to 500 kbps overrun their station queues and, together, the
    /// 1 Mbps link behind the access point; a station and that link flap
    /// with frames queued, and the link loses frames for a second.
    #[test]
    fn queue_accounting_is_exact_at_every_pause() {
        use crate::sim::tests::{Blaster, Sink};
        use crate::topology::Fabric;
        use crate::{LinkConfig, SimTime, Simulator, WifiConfig};
        use std::time::Duration;

        let mut sim = Simulator::new(11);
        let mut cell = Fabric::wifi(&mut sim, "ap", WifiConfig::default());
        let server = sim.add_node("server");
        let bottleneck = LinkConfig::new(1_000_000, Duration::from_millis(2));
        let to = cell.attach_core(&mut sim, server, bottleneck).addr_v4;
        sim.install_app(server, Box::new(Sink::default()));
        let shaped = LinkConfig::new(500_000, Duration::ZERO);
        let stations: Vec<_> = (0..4)
            .map(|i| {
                let dev = sim.add_node(format!("dev-{i}"));
                cell.attach_dev(&mut sim, i, dev, shaped.clone());
                sim.install_app(dev, Box::new(Blaster::new(to, 1500, Duration::from_millis(1))));
                dev
            })
            .collect();
        let link = sim.node_p2p_links(server)[0];
        let at = |ms| SimTime::from_millis(ms);
        sim.schedule_forkable_call(at(500), "test.loss", link, |sim, l| sim.set_link_loss(l, 0.3));
        sim.schedule_forkable_call(at(1500), "test.loss", link, |sim, l| sim.set_link_loss(l, 0.0));
        for (ms, up) in [(1050, false), (1600, true)] {
            let flap = (stations[1], up);
            sim.schedule_forkable_call(at(ms), "test.node", flap, |sim, (n, up)| sim.set_node_admin(n, up));
        }
        for (ms, up) in [(2030, false), (2500, true)] {
            sim.schedule_forkable_call(at(ms), "test.link", (link, up), |sim, (l, up)| sim.set_link_admin(l, up));
        }

        let mut busiest = 0;
        for pause in 1..=60 {
            sim.run_until(at(pause * 100));
            let queued = sim.links.iter().map(|l| l.buffered_bytes()).sum::<u64>()
                + sim.channels.iter().map(|c| c.buffered_bytes()).sum::<u64>();
            assert_eq!(sim.buffered_bytes(), queued, "at {pause}00 ms");
            assert!(queued <= sim.stats().peak_buffered_bytes, "at {pause}00 ms");
            busiest = busiest.max(queued);
        }
        let s = sim.stats();
        assert!(busiest > 100_000, "queues must have been busy, peaked at {busiest} B");
        for reason in [
            DropReason::QueueOverflow,
            DropReason::NodeDown,
            DropReason::LinkDown,
            DropReason::LinkLoss,
        ] {
            assert!(s.drop_count(reason) > 0, "{reason:?} must have happened");
        }
        assert_eq!(sim.buffered_bytes(), 0, "drained by 6 s");
    }
}
