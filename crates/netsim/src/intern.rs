//! Deterministic string interning for node names.
//!
//! At 100k+ devices, per-node owned `String`s are a real cost: 24 bytes of
//! inline `Vec` header plus a separate heap allocation per node, dragged
//! through cache every time the hot path touches the node arena. The
//! interner packs every name into one append-only byte buffer and hands out
//! dense `u32` ids, so the arena stores 4 bytes per node and name equality
//! is an integer compare.
//!
//! **Determinism rule:** ids are assigned in first-intern order and the
//! buffer is append-only, so the same sequence of `intern` calls yields the
//! same ids, the same buffer bytes, and the same `resolve` results on every
//! run. The dedup index uses the seed-free [`FastHasher`], and hash
//! collisions fall back to a byte compare — ids never depend on hash
//! iteration order.

use std::hash::Hasher;

use crate::fastmap::{FastHasher, FastMap};

/// Dense handle for an interned name. `Copy`, 4 bytes, compares as `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub(crate) u32);

impl NameId {
    /// The id as a dense index into the interner's span table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only, deduplicating string pool.
///
/// Cloning an interner (for [`Simulator::fork`](crate::Simulator::fork))
/// copies the buffer and spans verbatim, so forked worlds resolve ids to
/// identical bytes.
#[derive(Debug, Default, Clone)]
pub struct NameInterner {
    /// All interned names, concatenated.
    buf: String,
    /// `(offset, len)` into `buf`, indexed by `NameId`.
    spans: Vec<(u32, u32)>,
    /// FastHasher(name) -> candidate ids (collision chain; compare bytes).
    dedup: FastMap<u64, Vec<NameId>>,
}

impl NameInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn hash(name: &str) -> u64 {
        let mut h = FastHasher::default();
        h.write(name.as_bytes());
        h.finish()
    }

    /// Intern `name`, returning its id. Re-interning an identical string
    /// returns the original id (flyweight: one buffer copy per distinct
    /// name, however many nodes share it).
    pub fn intern(&mut self, name: &str) -> NameId {
        let key = Self::hash(name);
        if let Some(candidates) = self.dedup.get(&key) {
            for &id in candidates {
                if self.resolve(id) == name {
                    return id;
                }
            }
        }
        let offset = u32::try_from(self.buf.len()).expect("interner buffer < 4 GiB");
        let len = u32::try_from(name.len()).expect("name < 4 GiB");
        self.buf.push_str(name);
        let id = NameId(u32::try_from(self.spans.len()).expect("< 2^32 names"));
        self.spans.push((offset, len));
        self.dedup.entry(key).or_default().push(id);
        id
    }

    /// Resolve an id back to its string. Panics on an id from a different
    /// interner generation (out of range).
    #[inline]
    pub fn resolve(&self, id: NameId) -> &str {
        let (offset, len) = self.spans[id.index()];
        &self.buf[offset as usize..(offset + len) as usize]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no names have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_roundtrip() {
        let mut pool = NameInterner::new();
        let a = pool.intern("backbone");
        let b = pool.intern("dev-0");
        assert_eq!(pool.resolve(a), "backbone");
        assert_eq!(pool.resolve(b), "dev-0");
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn duplicate_names_share_an_id() {
        let mut pool = NameInterner::new();
        let a = pool.intern("router");
        let b = pool.intern("router");
        assert_eq!(a, b);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn ids_are_insertion_ordered_and_stable() {
        // Two interners fed the same sequence assign the same ids: the
        // determinism surface node digests rely on.
        let names = ["a", "dev-1", "a", "dev-2", "dev-1", ""];
        let mut p1 = NameInterner::new();
        let mut p2 = NameInterner::new();
        let ids1: Vec<NameId> = names.iter().map(|n| p1.intern(n)).collect();
        let ids2: Vec<NameId> = names.iter().map(|n| p2.intern(n)).collect();
        assert_eq!(ids1, ids2);
        assert_eq!(ids1[0], ids1[2]);
        assert_eq!(ids1[1], ids1[4]);
        assert_eq!(p1.resolve(ids1[5]), "");
    }

    #[test]
    fn clone_preserves_resolution() {
        let mut pool = NameInterner::new();
        let a = pool.intern("tserver");
        let forked = pool.clone();
        assert_eq!(forked.resolve(a), "tserver");
    }
}
