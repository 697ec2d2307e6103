//! Deterministic state digests.
//!
//! Checkpoint verification needs a cheap, stable fingerprint of each
//! simulator layer: the checkpoint stores one digest per layer, and resume
//! replays the world and recomputes them. A mismatch names the diverging
//! layer instead of letting a silently-wrong resume masquerade as the
//! original run.
//!
//! [`StateHasher`] is FNV-1a over 64 bits — not cryptographic, but
//! platform-independent, allocation-free, and byte-stable, which is all a
//! determinism self-check needs. Every input is folded byte-by-byte in a
//! fixed order, so two equal states always produce equal digests and the
//! digest of a layer never depends on hash-map iteration order (callers
//! must feed entries in a sorted, canonical order).
//!
//! Each layer digests itself beside its state; [`Simulator::state_digests`]
//! only lists them.

use crate::sim::Simulator;

/// Incremental FNV-1a (64-bit) hasher for simulator state digests.
///
/// # Examples
///
/// ```
/// use netsim::digest::StateHasher;
///
/// let mut h = StateHasher::new();
/// h.write_u64(42);
/// h.write_str("tserver");
/// let a = h.finish();
///
/// let mut h = StateHasher::new();
/// h.write_u64(42);
/// h.write_str("tserver");
/// assert_eq!(h.finish(), a);
/// ```
#[derive(Debug, Clone)]
pub struct StateHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl StateHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StateHasher { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the digest.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a string, length-prefixed so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Folds a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Folds an optional value: a presence flag, then the value by `write`.
    pub fn write_option<T>(&mut self, v: Option<T>, write: impl FnOnce(&mut Self, T)) {
        self.write_bool(v.is_some());
        if let Some(v) = v {
            write(self, v);
        }
    }

    /// Folds an `f64` by its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds an IP address, family-tagged so `10.0.0.1` ≠ `::a00:1`.
    pub fn write_ip(&mut self, addr: std::net::IpAddr) {
        match addr {
            std::net::IpAddr::V4(a) => {
                self.write_bytes(&[4]);
                self.write_bytes(&a.octets());
            }
            std::net::IpAddr::V6(a) => {
                self.write_bytes(&[6]);
                self.write_bytes(&a.octets());
            }
        }
    }

    /// The accumulated 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StateHasher {
    fn default() -> Self {
        StateHasher::new()
    }
}

impl Simulator {
    /// Per-layer determinism digests of everything the simulator owns,
    /// as `(layer name, digest)` pairs in a fixed order.
    ///
    /// This is the core of checkpoint verification: a checkpoint stores
    /// these digests at save time, and resume recomputes them after
    /// replaying to the checkpoint instant. Layers are digested
    /// separately so a mismatch names the diverging subsystem instead of
    /// a single opaque "state differs".
    pub fn state_digests(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("netsim.queue", self.queue_digest()),
            ("netsim.nodes", self.nodes_digest()),
            ("netsim.links", self.links_digest()),
            ("netsim.wifi", self.wifi_digest()),
            ("netsim.tcp", self.tcp_digest()),
            ("netsim.rng", self.rng_digest()),
            ("netsim.stats", self.stats_digest()),
            ("apps", self.apps_digest()),
            ("netsim.filters", self.filters_digest()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_inputs_equal_digests() {
        let digest = |vals: &[u64]| {
            let mut h = StateHasher::new();
            for &v in vals {
                h.write_u64(v);
            }
            h.finish()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 3, 2]));
    }

    #[test]
    fn strings_are_length_prefixed() {
        let digest = |parts: &[&str]| {
            let mut h = StateHasher::new();
            for p in parts {
                h.write_str(p);
            }
            h.finish()
        };
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
    }

    #[test]
    fn empty_digest_is_the_offset_basis() {
        assert_eq!(StateHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
