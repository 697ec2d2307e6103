//! Forkable filter rules — the one defense mechanism a node has.
//!
//! Every deployed defense is a [`FilterRule`] in its node's
//! [`FilterStack`]: state the simulator owns, applies on every packet
//! arrival, clones on fork, and digests per layer (`netsim.filters`).
//!
//! Three plain-data rule kinds cover the defenses in `ddosim.scenario/1`:
//!
//! * [`FilterRule::RateLimit`] — per-source token buckets, the structured
//!   port of `analysis::mitigation::RateLimiter` (same refill and cost
//!   semantics, byte-for-byte).
//! * [`FilterRule::EgressBlock`] — ISP-style egress filtering: a router
//!   drops traffic toward a victim address (optionally one port).
//! * [`FilterRule::Blocklist`] — drops packets whose *source* is on the
//!   simulator-global blocklist, which honeypot nodes feed at runtime.
//!
//! Anything else (`analysis::ModelFilter`'s windowed ML detector, say)
//! implements [`PacketFilter`] and deploys as [`FilterRule::Custom`].

use crate::digest::StateHasher;
use crate::ids::NodeId;
use crate::packet::Packet;
use crate::sim::Simulator;
use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::net::IpAddr;

/// Decision of an ingress filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVerdict {
    /// Let the packet through.
    Allow,
    /// Drop the packet (counted as [`crate::DropReason::Filtered`]).
    Drop,
}

/// Token-bucket state for one source address inside a
/// [`FilterRule::RateLimit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    /// Bytes currently available.
    pub tokens: f64,
    /// Instant of the last refill.
    pub last: SimTime,
}

/// A defense with state of its own, deployed as [`FilterRule::Custom`].
/// The three methods are what every rule owes the simulator: a verdict
/// per arriving packet, a deep copy for [`crate::Simulator::fork`], and
/// its state folded into the `netsim.filters` digest.
pub trait PacketFilter: std::fmt::Debug {
    /// Decides one packet arriving at the node at `now`.
    fn verdict(&mut self, packet: &Packet, now: SimTime) -> FilterVerdict;
    /// Deep-copies the filter, state included, for a forked world.
    fn fork(&self) -> Box<dyn PacketFilter>;
    /// Folds every field a future verdict depends on into `h`.
    fn state_digest(&self, h: &mut StateHasher);
}

impl Clone for Box<dyn PacketFilter> {
    fn clone(&self) -> Self {
        self.fork()
    }
}

/// One filter rule. `Clone` gives fork support and the digest below pins
/// it into the `netsim.filters` checkpoint layer.
#[derive(Debug, Clone)]
pub enum FilterRule {
    /// Per-source token-bucket rate limiting. A packet spends
    /// `wire_bytes()` tokens from its source's bucket; buckets refill at
    /// `rate_bps / 8` bytes per second up to `burst_bytes`.
    RateLimit {
        /// Sustained rate in bits per second. Zero admits nothing beyond
        /// the initial burst.
        rate_bps: u64,
        /// Bucket capacity in bytes (also the initial fill).
        burst_bytes: u64,
        /// Live per-source buckets (keyed and digested in address order).
        buckets: BTreeMap<IpAddr, TokenBucket>,
    },
    /// Drop every packet destined to `dst` (optionally only one `port`).
    /// Deployed on router nodes this is ISP egress filtering: attack
    /// traffic dies at the provider edge instead of the victim's link.
    EgressBlock {
        /// Victim address the filter protects.
        dst: IpAddr,
        /// Restrict the block to one destination port (`None` = all).
        port: Option<u16>,
    },
    /// Drop packets whose *source* address is on the simulator-global
    /// blocklist (see [`crate::Simulator::blocklist_insert`]); honeypots
    /// feed that list as scanners touch them.
    Blocklist,
    /// A defense carrying its own state and logic.
    Custom(Box<dyn PacketFilter>),
}

impl FilterRule {
    fn verdict(
        &mut self,
        packet: &Packet,
        now: SimTime,
        blocklist: &BTreeSet<IpAddr>,
    ) -> FilterVerdict {
        match self {
            FilterRule::RateLimit { rate_bps, burst_bytes, buckets } => {
                let burst = *burst_bytes as f64;
                let bucket = buckets
                    .entry(packet.src.ip())
                    .or_insert(TokenBucket { tokens: burst, last: now });
                let elapsed = now.saturating_since(bucket.last).as_secs_f64();
                let rate_bytes = *rate_bps as f64 / 8.0;
                bucket.tokens = (bucket.tokens + elapsed * rate_bytes).min(burst);
                bucket.last = now;
                let cost = f64::from(packet.wire_bytes());
                if bucket.tokens >= cost {
                    bucket.tokens -= cost;
                    FilterVerdict::Allow
                } else {
                    FilterVerdict::Drop
                }
            }
            FilterRule::EgressBlock { dst, port } => {
                let hit = packet.dst.ip() == *dst
                    && port.map_or(true, |p| packet.dst.port() == p);
                if hit {
                    FilterVerdict::Drop
                } else {
                    FilterVerdict::Allow
                }
            }
            FilterRule::Blocklist => {
                if blocklist.contains(&packet.src.ip()) {
                    FilterVerdict::Drop
                } else {
                    FilterVerdict::Allow
                }
            }
            FilterRule::Custom(filter) => filter.verdict(packet, now),
        }
    }

    fn state_digest(&self, h: &mut StateHasher) {
        match self {
            FilterRule::RateLimit { rate_bps, burst_bytes, buckets } => {
                h.write_bytes(&[1]);
                h.write_u64(*rate_bps);
                h.write_u64(*burst_bytes);
                h.write_usize(buckets.len());
                for (src, bucket) in buckets {
                    h.write_ip(*src);
                    h.write_f64(bucket.tokens);
                    h.write_u64(bucket.last.as_nanos());
                }
            }
            FilterRule::EgressBlock { dst, port } => {
                h.write_bytes(&[2]);
                h.write_ip(*dst);
                h.write_option(*port, |h, p| h.write_u64(u64::from(p)));
            }
            FilterRule::Blocklist => h.write_bytes(&[3]),
            FilterRule::Custom(filter) => {
                h.write_bytes(&[4]);
                filter.state_digest(h);
            }
        }
    }
}

/// The ordered rule stack deployed on one node. Rules are consulted in
/// push order; the first [`FilterVerdict::Drop`] wins.
#[derive(Debug, Clone, Default)]
pub struct FilterStack {
    rules: Vec<FilterRule>,
}

impl FilterStack {
    /// Appends a rule to the stack.
    pub fn push(&mut self, rule: FilterRule) {
        self.rules.push(rule);
    }

    /// Number of rules deployed.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the stack holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Runs the packet through every rule in push order.
    pub fn verdict(
        &mut self,
        packet: &Packet,
        now: SimTime,
        blocklist: &BTreeSet<IpAddr>,
    ) -> FilterVerdict {
        for rule in &mut self.rules {
            if rule.verdict(packet, now, blocklist) == FilterVerdict::Drop {
                return FilterVerdict::Drop;
            }
        }
        FilterVerdict::Allow
    }

    /// Folds the stack into a checkpoint digest.
    pub fn state_digest(&self, h: &mut StateHasher) {
        h.write_usize(self.rules.len());
        for rule in &self.rules {
            rule.state_digest(h);
        }
    }
}

impl Simulator {
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

    /// `netsim.filters`: defense rules and the global blocklist.
    pub(crate) fn filters_digest(&self) -> u64 {
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
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fork::ForkMap;
    use crate::packet::{Payload, TransportProto};
    use crate::sim::tests::{two_hosts, v4, Harness};
    use std::net::SocketAddr;
    use std::time::Duration;

    fn pkt(src: &str, dst: &str, payload_bytes: u32) -> Packet {
        Packet::new(
            src.parse::<SocketAddr>().unwrap(),
            dst.parse::<SocketAddr>().unwrap(),
            TransportProto::Udp,
            Payload::empty(),
            28,
            payload_bytes,
        )
    }

    fn no_blocklist() -> BTreeSet<IpAddr> {
        BTreeSet::new()
    }

    #[test]
    fn rate_limit_allows_burst_then_drops() {
        let mut stack = FilterStack::default();
        stack.push(FilterRule::RateLimit {
            rate_bps: 8_000, // 1000 bytes/s
            burst_bytes: 1_000,
            buckets: BTreeMap::new(),
        });
        let bl = no_blocklist();
        let t0 = SimTime::ZERO;
        // 1000-byte burst admits two 500-byte packets, then drops.
        let p = pkt("10.0.0.1:5000", "10.0.9.9:80", 472); // 472 + 28 header = 500 wire
        assert_eq!(stack.verdict(&p, t0, &bl), FilterVerdict::Allow);
        assert_eq!(stack.verdict(&p, t0, &bl), FilterVerdict::Allow);
        assert_eq!(stack.verdict(&p, t0, &bl), FilterVerdict::Drop);
        // After a second, 1000 bytes refilled: two more packets fit.
        let t1 = SimTime::from_secs(1);
        assert_eq!(stack.verdict(&p, t1, &bl), FilterVerdict::Allow);
        assert_eq!(stack.verdict(&p, t1, &bl), FilterVerdict::Allow);
        assert_eq!(stack.verdict(&p, t1, &bl), FilterVerdict::Drop);
    }

    #[test]
    fn rate_limit_buckets_are_per_source() {
        let mut stack = FilterStack::default();
        stack.push(FilterRule::RateLimit {
            rate_bps: 0,
            burst_bytes: 500,
            buckets: BTreeMap::new(),
        });
        let bl = no_blocklist();
        let a = pkt("10.0.0.1:5000", "10.0.9.9:80", 472);
        let b = pkt("10.0.0.2:5000", "10.0.9.9:80", 472);
        assert_eq!(stack.verdict(&a, SimTime::ZERO, &bl), FilterVerdict::Allow);
        assert_eq!(stack.verdict(&a, SimTime::ZERO, &bl), FilterVerdict::Drop);
        // A different source still has its full burst.
        assert_eq!(stack.verdict(&b, SimTime::ZERO, &bl), FilterVerdict::Allow);
    }

    #[test]
    fn egress_block_matches_dst_and_port() {
        let mut stack = FilterStack::default();
        stack.push(FilterRule::EgressBlock { dst: "10.0.9.9".parse().unwrap(), port: Some(80) });
        let bl = no_blocklist();
        let hit = pkt("10.0.0.1:5000", "10.0.9.9:80", 100);
        let other_port = pkt("10.0.0.1:5000", "10.0.9.9:53", 100);
        let other_dst = pkt("10.0.0.1:5000", "10.0.9.8:80", 100);
        assert_eq!(stack.verdict(&hit, SimTime::ZERO, &bl), FilterVerdict::Drop);
        assert_eq!(stack.verdict(&other_port, SimTime::ZERO, &bl), FilterVerdict::Allow);
        assert_eq!(stack.verdict(&other_dst, SimTime::ZERO, &bl), FilterVerdict::Allow);
    }

    #[test]
    fn blocklist_rule_consults_shared_set() {
        let mut stack = FilterStack::default();
        stack.push(FilterRule::Blocklist);
        let mut bl = no_blocklist();
        let p = pkt("10.0.0.1:5000", "10.0.9.9:80", 100);
        assert_eq!(stack.verdict(&p, SimTime::ZERO, &bl), FilterVerdict::Allow);
        bl.insert("10.0.0.1".parse().unwrap());
        assert_eq!(stack.verdict(&p, SimTime::ZERO, &bl), FilterVerdict::Drop);
    }

    #[test]
    fn digest_tracks_bucket_state() {
        let mut stack = FilterStack::default();
        stack.push(FilterRule::RateLimit {
            rate_bps: 8_000,
            burst_bytes: 1_000,
            buckets: BTreeMap::new(),
        });
        let before = {
            let mut h = StateHasher::new();
            stack.state_digest(&mut h);
            h.finish()
        };
        let bl = no_blocklist();
        let p = pkt("10.0.0.1:5000", "10.0.9.9:80", 100);
        stack.verdict(&p, SimTime::ZERO, &bl);
        let after = {
            let mut h = StateHasher::new();
            stack.state_digest(&mut h);
            h.finish()
        };
        assert_ne!(before, after, "spending tokens must change the digest");
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

    /// Drops every second arrival: the count is state a verdict depends on.
    #[derive(Debug, Clone, Default)]
    struct EveryOther {
        seen: u64,
    }

    impl PacketFilter for EveryOther {
        fn verdict(&mut self, _packet: &Packet, _now: SimTime) -> FilterVerdict {
            self.seen += 1;
            if self.seen.is_multiple_of(2) {
                FilterVerdict::Drop
            } else {
                FilterVerdict::Allow
            }
        }
        fn fork(&self) -> Box<dyn PacketFilter> {
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
        let fresh = sim.filters_digest();
        send_to_b(&mut sim, a, 3);
        assert_eq!(sim.stats().dropped_filtered, 1, "second of three arrivals dropped");
        assert_ne!(sim.filters_digest(), fresh, "the filter's count is in the digest");

        let mut fork = sim.fork(&ForkMap::new()).expect("a world with a custom filter forks");
        assert_eq!(fork.filters_digest(), sim.filters_digest());
        // The parent's fourth arrival is dropped; the fork's copy has not
        // seen it, and drops its own fourth arrival the same way.
        send_to_b(&mut sim, a, 1);
        assert_eq!(sim.stats().dropped_filtered, 2);
        assert_eq!(fork.stats().dropped_filtered, 1);
        assert_ne!(fork.filters_digest(), sim.filters_digest());
        send_to_b(&mut fork, a, 1);
        assert_eq!(fork.stats().dropped_filtered, 2);
        assert_eq!(fork.filters_digest(), sim.filters_digest());
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
        assert_eq!(sim.filters_digest(), 6028806669543305158);
        let layers = sim.state_digests();
        assert_eq!(layers[8], ("netsim.filters", 6028806669543305158));
    }
}
