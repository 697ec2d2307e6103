//! Deterministic fast hashing for hot-path maps.
//!
//! `std::collections::HashMap`'s default hasher is SipHash-1-3 seeded from
//! process-random state: robust against adversarial keys, but slower than
//! needed for the simulator's trusted, fixed-shape keys (ports, connection
//! ids, socket addresses), and its iteration order varies run to run. The
//! hot demux paths instead use [`FastMap`] / [`FastSet`], backed by the
//! FxHash multiply-rotate construction (the rustc hasher) plus an
//! avalanching [`finish`](Hasher::finish), implemented in-tree because the
//! build is offline.
//!
//! **Distribution contract:** hashbrown picks a key's bucket from the
//! *low* bits of the hash and its 7-bit control tag from the *top* bits,
//! while a multiply only carries input bits *upward*. The keys hashed here
//! vary in their high bytes (`10.x.y.z` and `fd00::n` as little-endian
//! words, 16-byte-aligned pointers), so the raw FxHash product gave every
//! address in a world the same low bits: 4,028 allocator addresses shared 2
//! home slots and a `get` cost 294 ns (1.55 µs at 20,000 keys, 28 ns under
//! SipHash) — a linear scan. `finish` therefore folds the 128-bit product
//! `hash × SEED` onto itself, so every input bit reaches both ends (6 ns
//! and 9 ns at those sizes); the tests below hold each key population the
//! simulator hashes to that. DESIGN.md "Deterministic hashing" has the
//! whole table.
//!
//! **Determinism rule:** [`FastHasher`] has no per-process seed, so hashes
//! — and therefore map iteration order — are identical across runs and
//! builds on the same target. Even so, hot-path code must never iterate a
//! `FastMap` in an order that feeds the event schedule; anything ordered
//! that reaches the wire must be sorted by a stable key first (see
//! DESIGN.md "Scale").

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (64-bit golden-ratio-derived constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher: rotate, xor, multiply per word, and one
/// fold-multiply at the end (see the module docs for why).
///
/// Not collision-resistant against adversarial input — fine here, since
/// every key the simulator hashes is generated by the simulator itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let wide = u128::from(self.hash) * u128::from(SEED);
        (wide >> 64) as u64 ^ wide as u64
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// Deterministic builder for [`FastHasher`] (no per-process seed).
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` with the deterministic fast hasher — the hot-path map type.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` with the deterministic fast hasher.
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashes_are_stable_within_a_process() {
        // Same value, two independently built hashers: identical output
        // (no RandomState). Cross-run stability follows from the absence
        // of any seed source.
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"socket"), hash_of(&"socket"));
        let addr: std::net::SocketAddr = "10.0.0.1:80".parse().expect("addr");
        assert_eq!(hash_of(&addr), hash_of(&addr));
    }

    #[test]
    fn the_mixing_is_pinned() {
        // A deliberate change to `add`/`finish` updates this literal; an
        // accidental one shows up here first.
        let addr = std::net::IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(hash_of(&addr), 7_101_595_767_754_662_149);
    }

    /// Distribution gate (counts only, no clocks): places `hashes` the way
    /// hashbrown would — home slot from the low bits at the mask a table of
    /// that many keys uses, control tag from the top 7 bits — and checks the
    /// keys spread over slots, tags and 16-slot probe groups.
    fn assert_spreads(population: &str, hashes: &[u64]) {
        let n = hashes.len();
        let mask = (n as u64 * 8 / 7).next_power_of_two() - 1;
        let slots: BTreeSet<u64> = hashes.iter().map(|h| h & mask).collect();
        let tags: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        let mut groups = std::collections::BTreeMap::new();
        for h in hashes {
            *groups.entry((h & mask) / 16).or_insert(0usize) += 1;
        }
        let fullest = groups.values().max().copied().unwrap_or(0);
        assert!(
            slots.len() * 2 >= n,
            "{population}: {n} keys share {} home slots",
            slots.len()
        );
        assert!(
            tags.len() >= 100,
            "{population}: {} distinct tags",
            tags.len()
        );
        assert!(
            fullest <= 64,
            "{population}: one group is home to {fullest} keys"
        );
    }

    fn allocator_addrs(pairs: usize) -> Vec<std::net::IpAddr> {
        let mut alloc = crate::topology::AddrAllocator::new();
        (0..pairs)
            .flat_map(|_| {
                let (v4, v6) = alloc.next_pair();
                [v4, v6]
            })
            .collect()
    }

    fn hashes_of<T: Hash>(keys: impl IntoIterator<Item = T>) -> Vec<u64> {
        keys.into_iter().map(|k| hash_of(&k)).collect()
    }

    #[test]
    fn allocator_addresses_spread() {
        // `addr_index` and `RouteCache::map` keys. The raw FxHash product
        // scored 2 home slots here at every size.
        for pairs in [500, 5_000, 50_000] {
            assert_spreads(
                &format!("{} allocator addresses", pairs * 2),
                &hashes_of(allocator_addrs(pairs)),
            );
        }
    }

    #[test]
    fn tcp_demux_keys_spread() {
        // `by_tuple` on a server: (listening port, remote socket address),
        // every remote counting its ports up from the ephemeral base — each
        // remote's first connection, then eight per v4 remote. (Many
        // connections from one remote, v4 or v6:
        // `many_connections_from_one_remote_spread`.)
        let remotes = allocator_addrs(500);
        let tuple = |ip, port| (80u16, std::net::SocketAddr::new(ip, port));
        assert_spreads(
            "by_tuple, one connection per remote",
            &hashes_of(remotes.iter().map(|&ip| tuple(ip, 49152))),
        );
        let v4 = remotes.iter().filter(|ip| ip.is_ipv4());
        assert_spreads(
            "by_tuple, eight connections per v4 remote",
            &hashes_of(v4.flat_map(|&ip| (49152..49160).map(move |port| tuple(ip, port)))),
        );
        // ... and on a client: (ephemeral local port, the server).
        let server = tuple(remotes[0], 80).1;
        assert_spreads(
            "by_tuple, client side",
            &hashes_of((49152..50152u16).map(|port| (port, server))),
        );
        // `Conn::unacked`: sequential ids.
        assert_spreads("conn ids", &hashes_of(1..=10_000u64));
        // `listeners`: ports.
        assert_spreads("ports", &hashes_of(1..=u16::MAX));
    }

    /// `by_tuple` on a server holding k connections from one remote, its
    /// ports counting up from the ephemeral base. `add`'s 5-bit rotate was
    /// suspected of landing the `fd00::n` host byte on the port's low bits,
    /// so that k ports collide k-fold; instead they take as many home
    /// buckets as a random hash would, m(1 − e^(−k/m)) at the mask m a
    /// table of k keys uses, for v6 as for v4.
    #[test]
    fn many_connections_from_one_remote_spread() {
        for remote in ["fd00::7", "10.0.0.7"] {
            let ip: std::net::IpAddr = remote.parse().expect("addr");
            for k in [1_024u16, 16_384] {
                let m = (u64::from(k) * 8 / 7).next_power_of_two();
                let buckets: BTreeSet<u64> = (0..k)
                    .map(|i| hash_of(&(80u16, std::net::SocketAddr::new(ip, 49152 + i))) & (m - 1))
                    .collect();
                let random = m as f64 * (1.0 - (-f64::from(k) / m as f64).exp());
                assert!(
                    buckets.len() as f64 >= 0.9 * random,
                    "{k} connections from {remote} take {} home buckets of {m}; a random hash takes {random:.0}",
                    buckets.len()
                );
            }
        }
    }

    #[test]
    fn fork_map_pointers_spread() {
        // `ForkMap` keys are heap addresses: low 4 bits always zero.
        assert_spreads(
            "16-byte-aligned pointers",
            &hashes_of((0..10_000usize).map(|i| 0x7f3a_5c00_0000 + i * 16)),
        );
    }

    #[test]
    fn interned_name_keys_spread() {
        // `NameInterner::dedup` is keyed by the name's hash.
        let keys = (0..100_000).map(|d| crate::intern::NameInterner::hash(&format!("dev-{d}")));
        assert_spreads("interned names", &hashes_of(keys));
    }

    #[test]
    fn distinct_keys_usually_differ() {
        // Sanity: the hasher actually mixes (1000 sequential ints, no dupes).
        let mut seen = BTreeSet::new();
        for i in 0..1000u64 {
            seen.insert(hash_of(&i));
        }
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn unaligned_byte_tails_hash_differently() {
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2, 4][..]));
        assert_ne!(hash_of(&b"abcdefgh1"[..]), hash_of(&b"abcdefgh2"[..]));
    }

    #[test]
    fn fastmap_basic_ops() {
        let mut m: FastMap<u16, u32> = FastMap::default();
        m.insert(80, 1);
        m.insert(443, 2);
        assert_eq!(m.get(&80), Some(&1));
        assert_eq!(m.remove(&443), Some(2));
        assert!(m.remove(&443).is_none());
        let mut s: FastSet<u64> = FastSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }
}
