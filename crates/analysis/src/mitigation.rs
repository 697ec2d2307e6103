//! Deployable DDoS mitigations — the paper's primary use case: "researchers
//! can also utilize DDoSim to implement and evaluate defense strategies
//! against these attacks in the simulated environment, measuring their
//! effectiveness in mitigating or preventing exploits" (§I).
//!
//! Two network-level defenses are provided:
//!
//! * [`RateLimiter`] — a per-source token bucket (the classic volumetric
//!   mitigation), deployed as a structured [`netsim::FilterRule`];
//! * [`ModelFilter`] — drops traffic from sources a trained
//!   [`LogisticRegression`] detector flags, re-scoring each source every
//!   window (an ML-in-the-loop defense), deployed as a
//!   [`netsim::FilterRule::Custom`].

use crate::classify::LogisticRegression;
use crate::features::FeatureExtractor;
use netsim::{FilterVerdict, Packet, PacketFilter, SimTime, StateHasher, TransportProto};
use std::collections::BTreeSet;
use std::net::IpAddr;
use std::time::Duration;

/// A per-source token-bucket rate limiter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimiter {
    /// Sustained allowance per source, bits per second.
    pub rate_bps: u64,
    /// Burst allowance per source, bytes.
    pub burst_bytes: u64,
}

impl Default for RateLimiter {
    fn default() -> Self {
        RateLimiter {
            rate_bps: 64_000,
            burst_bytes: 16 * 1024,
        }
    }
}

impl RateLimiter {
    /// Builds the deployable rule: a [`netsim::FilterRule::RateLimit`]
    /// for [`netsim::Simulator::push_node_filter`]. Structured rules are
    /// plain data, so the deployed limiter survives a fork or checkpoint.
    pub fn into_rule(self) -> netsim::FilterRule {
        netsim::FilterRule::RateLimit {
            rate_bps: self.rate_bps,
            burst_bytes: self.burst_bytes,
            buckets: std::collections::BTreeMap::new(),
        }
    }
}

/// An ML-in-the-loop filter: accumulates per-source flow features over a
/// window, scores each source with the trained detector at the window
/// boundary, and drops packets from flagged sources in the next window.
#[derive(Debug, Clone)]
pub struct ModelFilter {
    /// The trained detector.
    model: LogisticRegression,
    window: Duration,
    /// Probability threshold above which a source is blocked.
    threshold: f64,
    /// What the current window has seen so far.
    extractor: FeatureExtractor,
    /// Sources flagged at the last window boundary.
    blocked: BTreeSet<IpAddr>,
    current_window: u64,
}

impl ModelFilter {
    /// A filter that scores sources every `window` and blocks those the
    /// model rates at or above `threshold`.
    pub fn new(model: LogisticRegression, window: Duration, threshold: f64) -> Self {
        ModelFilter {
            model,
            window,
            threshold,
            extractor: FeatureExtractor::new(window),
            blocked: BTreeSet::new(),
            current_window: 0,
        }
    }

    /// Builds the deployable rule for
    /// [`netsim::Simulator::push_node_filter`].
    pub fn into_rule(self) -> netsim::FilterRule {
        netsim::FilterRule::Custom(Box::new(self))
    }
}

impl PacketFilter for ModelFilter {
    fn verdict(&mut self, packet: &Packet, now: SimTime) -> FilterVerdict {
        let w = (now.as_secs_f64() / self.window.as_secs_f64()) as u64;
        if w > self.current_window {
            // Window rolled over: score what we saw and reset.
            let seen = std::mem::replace(&mut self.extractor, FeatureExtractor::new(self.window));
            self.blocked = seen
                .finish()
                .into_iter()
                .filter(|f| self.model.predict_probability(&f.vector()) >= self.threshold)
                .map(|f| f.src)
                .collect();
            self.current_window = w;
        }
        // Record this packet for the next scoring round.
        let udp = packet.proto == TransportProto::Udp;
        self.extractor.push(now, packet.src.ip(), packet.dst.port(), udp, packet.wire_bytes());
        if self.blocked.contains(&packet.src.ip()) {
            FilterVerdict::Drop
        } else {
            FilterVerdict::Allow
        }
    }

    fn fork(&self) -> Box<dyn PacketFilter> {
        Box::new(self.clone())
    }

    fn state_digest(&self, h: &mut StateHasher) {
        self.model.state_digest(h);
        h.write_u64(self.window.as_nanos() as u64);
        h.write_f64(self.threshold);
        self.extractor.state_digest(h);
        h.write_usize(self.blocked.len());
        for src in &self.blocked {
            h.write_ip(*src);
        }
        h.write_u64(self.current_window);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Payload;
    use std::net::SocketAddr;

    fn pkt(src_last: u8, bytes: u32) -> Packet {
        Packet::new(
            SocketAddr::new(IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, src_last)), 1),
            SocketAddr::new(IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 9)), 80),
            TransportProto::Udp,
            Payload::empty(),
            28,
            bytes.saturating_sub(28),
        )
    }

    /// Deploys the limiter on a filter stack and returns its verdict
    /// function.
    fn deploy(limiter: RateLimiter) -> impl FnMut(&Packet, SimTime) -> FilterVerdict {
        let mut stack = netsim::FilterStack::default();
        stack.push(limiter.into_rule());
        let blocklist = std::collections::BTreeSet::new();
        move |p, t| stack.verdict(p, t, &blocklist)
    }

    #[test]
    fn rate_limiter_allows_within_budget() {
        let mut f = deploy(RateLimiter {
            rate_bps: 80_000, // 10 kB/s
            burst_bytes: 1_000,
        });
        // One 540-byte packet per second is well under budget.
        for s in 0..10 {
            let verdict = f(&pkt(1, 540), SimTime::from_secs(s));
            assert_eq!(verdict, FilterVerdict::Allow, "second {s}");
        }
    }

    #[test]
    fn rate_limiter_drops_floods_but_not_other_sources() {
        let mut f = deploy(RateLimiter {
            rate_bps: 80_000,
            burst_bytes: 1_000,
        });
        // Source 1 floods within one instant: burst exhausts quickly.
        let mut dropped = 0;
        for _ in 0..50 {
            if f(&pkt(1, 540), SimTime::from_secs(1)) == FilterVerdict::Drop {
                dropped += 1;
            }
        }
        assert!(dropped > 40, "flood mostly dropped, got {dropped}");
        // Source 2 is unaffected (independent bucket).
        assert_eq!(f(&pkt(2, 540), SimTime::from_secs(1)), FilterVerdict::Allow);
    }

    #[test]
    fn rate_limiter_refills_over_time() {
        let mut f = deploy(RateLimiter {
            rate_bps: 80_000,
            burst_bytes: 600,
        });
        assert_eq!(f(&pkt(1, 540), SimTime::from_secs(0)), FilterVerdict::Allow);
        assert_eq!(f(&pkt(1, 540), SimTime::from_secs(0)), FilterVerdict::Drop);
        // After a second, 10 kB of tokens accrued (capped at burst 600).
        assert_eq!(f(&pkt(1, 540), SimTime::from_secs(1)), FilterVerdict::Allow);
    }

    #[test]
    fn zero_rate_admits_only_the_initial_burst() {
        // rate_bps = 0: the bucket never refills, so exactly the initial
        // burst passes and everything after is dropped forever.
        let mut f = deploy(RateLimiter {
            rate_bps: 0,
            burst_bytes: 1_080, // two 540-byte packets
        });
        assert_eq!(f(&pkt(1, 540), SimTime::from_secs(0)), FilterVerdict::Allow);
        assert_eq!(f(&pkt(1, 540), SimTime::from_secs(0)), FilterVerdict::Allow);
        assert_eq!(f(&pkt(1, 540), SimTime::from_secs(0)), FilterVerdict::Drop);
        // Even hours later nothing has refilled.
        assert_eq!(f(&pkt(1, 540), SimTime::from_secs(3600)), FilterVerdict::Drop);
    }

    #[test]
    fn burst_exhaustion_is_exact() {
        // The burst is an exact byte budget: a packet that fits passes,
        // the first packet that would overdraw is dropped, and the budget
        // does not leak across the drop (tokens are only spent on Allow).
        let mut f = deploy(RateLimiter {
            rate_bps: 0,
            burst_bytes: 1_000,
        });
        let t = SimTime::from_secs(0);
        assert_eq!(f(&pkt(1, 600), t), FilterVerdict::Allow, "600 spent, 400 left");
        assert_eq!(f(&pkt(1, 600), t), FilterVerdict::Drop, "600 > 400 remaining");
        // The failed 600-byte packet spent nothing: a 400-byte one fits.
        assert_eq!(f(&pkt(1, 400), t), FilterVerdict::Allow, "exact remainder fits");
        assert_eq!(f(&pkt(1, 29), t), FilterVerdict::Drop, "budget now empty");
    }

    #[test]
    fn refill_is_deterministic_across_identical_runs() {
        // Two identically-configured limiters fed the identical packet
        // schedule (the same-seed case: deterministic sims present the
        // same arrival sequence) must agree on every verdict.
        let run = || -> Vec<FilterVerdict> {
            let mut f = deploy(RateLimiter {
                rate_bps: 24_000, // 3 kB/s — under the ~4.9 kB/s offered per source
                burst_bytes: 2_000,
            });
            let mut verdicts = Vec::new();
            for i in 0..200u64 {
                let t = SimTime::from_millis(i * 37);
                let src = (i % 3) as u8 + 1;
                verdicts.push(f(&pkt(src, 540), t));
            }
            verdicts
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same schedule, same verdicts");
        assert!(a.contains(&FilterVerdict::Drop), "schedule exercises drops");
        assert!(a.contains(&FilterVerdict::Allow), "schedule exercises allows");
    }

    #[test]
    fn model_filter_blocks_flagged_sources_after_a_window() {
        use crate::classify::{synthetic_dataset, LogisticRegression, TrainConfig};
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let model =
            LogisticRegression::train(&synthetic_dataset(200, &mut rng), TrainConfig::default());
        let mut stack = netsim::FilterStack::default();
        stack.push(ModelFilter::new(model, Duration::from_secs(1), 0.5).into_rule());
        let blocklist = std::collections::BTreeSet::new();
        let mut f = |p: &Packet, t| stack.verdict(p, t, &blocklist);
        // Window 0: a flood from source 1 (100 × 540B constant-size).
        for i in 0..100 {
            let t = SimTime::from_millis(i * 10);
            let _ = f(&pkt(1, 540), t);
        }
        // Window 1: the source should now be blocked.
        let verdict = f(&pkt(1, 540), SimTime::from_millis(1500));
        assert_eq!(verdict, FilterVerdict::Drop, "flood source blocked after scoring");
    }
}
