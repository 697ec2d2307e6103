//! The simulator's event queue: a two-level hierarchical timing wheel
//! whose drained bucket is a sorted run, with one heap for what neither
//! level can hold.
//!
//! # Why not a plain `BinaryHeap`
//!
//! The hot path of a discrete-event network simulator is `push`/`pop` on the
//! future-event set. A binary heap pays `O(log n)` per push with poor cache
//! locality once `n` reaches the hundreds of thousands of pending events a
//! large botnet scenario produces (as the whole queue it read +70 % `wall_s`
//! on `flood_star`: EXPERIMENTS.md "Closing the queue question"). Most
//! events, however, are scheduled a short, bounded time into the future
//! (transmission completions, MAC slots, per-packet timers), and nearly all
//! of the rest a bounded few seconds ahead (retransmission timeouts, flood
//! ticks, C&C pings, churn timers), which is the access pattern timing
//! wheels exploit (Varghese & Lauck's hierarchical wheel):
//!
//! * **level 0**, a ring of [`NUM_BUCKETS`] buckets, each spanning
//!   [`BUCKET_SPAN_NANOS`] nanoseconds, holds the ≈ 67 ms from the cursor
//!   on — a push appends to its bucket's list, `O(1)`;
//! * when the cursor reaches a bucket its events become the **run**: sorted
//!   once by `(time, seq)`, popped from one end, never inserted into — one
//!   small sort and `O(1)` pops where a heap would sift every event twice;
//! * **level 1**, a ring of [`NUM_SLOTS`] slots, each spanning
//!   [`SLOT_SPAN_NANOS`] (one whole level 0, ≈ 67 ms), holds what lies
//!   beyond level 0, up to ≈ 68.7 s past the end of the cursor's slot.
//!   Pushes are `O(1)` too; when the cursor enters a slot, its events
//!   **cascade** into level-0 buckets, each event once;
//! * one **heap** holds the rest: a push below the cursor (into the span
//!   of the bucket being consumed — so a dense burst stays `O(log n)` an
//!   event; binary-inserting these into the run was measured,
//!   EXPERIMENTS.md "Where a flood packet's time goes": a link-saturation
//!   replay fell 64 %) and a push beyond level 1's horizon.
//!   `peek_key`/`pop` take the smaller of the run's head and the heap's,
//!   so a heap event never moves once pushed.
//!
//! # Determinism
//!
//! Events are totally ordered by `(time, seq)` where `seq` is the
//! scheduling sequence number the simulator assigns monotonically. Two
//! events at the same tick therefore pop in the order they were scheduled —
//! the invariant the replaced `BinaryHeap<Reverse<Entry>>` provided and the
//! property tests in `tests/queue_equivalence.rs` lock in: for any schedule
//! (including same-tick ties and pushes interleaved with pops), the wheel
//! pops in exactly the order of a plain binary heap over `(time, seq)`,
//! the reference model that test keeps.
//!
//! Structural invariant: level-0 events lie in
//! `[bucket_base, bucket_base + SLOT_SPAN_NANOS)`, level-1 events in
//! `[bucket_base + SLOT_SPAN_NANOS, slot_base + NUM_SLOTS · SLOT_SPAN_NANOS)`,
//! run events below `bucket_base`, heap events anywhere; `slot_base` is
//! the end of the slot that holds `bucket_base`. Each level is a ring of
//! 1024 lists, one per bucket or slot, indexed by absolute time
//! (`time >> 16` and `time >> 26`, modulo 1024), so a window that moves
//! never re-files what it holds. `settle` stops as soon as the run is
//! non-empty or the heap's minimum is below `bucket_base`: every wheel
//! event then sorts after one of the two heads, so the smaller head is the
//! global minimum. Otherwise it drains the next non-empty bucket into the
//! run. A slot is cascaded when the cursor
//! enters it, before any bucket of it is drained: level 0 may already hold
//! the slot's early part, and what level 1 holds of the slot, pushed when
//! that part was further off, can sort before a bucket pushed since. The
//! cursor never passes a non-empty slot, so a cascade always takes exactly
//! the slot the cursor enters.
//! `bucket_base` is always a bucket-span multiple (or saturated at
//! `u64::MAX`) and only advances.
//!
//! Placement rule: when level 0 is empty, `settle` moves the cursor to the
//! earlier of two points, the start of the next non-empty slot (which
//! cascades) or just past the heap's minimum, rather than leaving it
//! behind. Order needs neither; speed does — what is scheduled a few ms
//! after that event then lands in level 0, and what is scheduled seconds
//! after it in level 1, not the heap (without the move `flood_star` read
//! 0.43 → 0.70 s). `wheel_empty_move_keeps_near_pushes_in_the_wheel` and
//! `timers_of_a_quarter_to_a_whole_second_land_in_level_one` pin it.
//!
//! # Buffers
//!
//! What the queue holds is bounded by what is pending, not by its history.
//! Both levels keep their events in `CHUNK`-event chunks of one arena, a
//! bucket's or slot's list of chunks filled in order. Draining a bucket
//! into the run and cascading a slot into buckets are one operation: each
//! event leaves its chunk, and each emptied chunk goes to the one free
//! list, which any bucket or slot reuses — a cascade refills the chunks it
//! has just freed. So the arena grows like a heap's buffer, to the most
//! chunks the wheel ever held at once, whichever buckets and slots were
//! busy, and no list keeps a buffer sized by its busiest turn. (A `Vec` per
//! bucket had to give a large buffer back after each drain, and still kept
//! about 6,300 entries of capacity in a world that never held 1,000
//! events: EXPERIMENTS.md "One ring for both wheel levels".) The lists
//! are not allocated until a level's first push, so a world that never
//! schedules past 67 ms — and a fork of one — pays nothing for level 1.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width: buckets span 2^16 ns ≈ 65.5 µs.
const BUCKET_BITS: u32 = 16;
/// Width of one level-0 bucket in nanoseconds.
pub const BUCKET_SPAN_NANOS: u64 = 1 << BUCKET_BITS;
/// Number of buckets in level 0 (must stay a power of two); together they
/// span exactly one level-1 slot, ≈ 67 ms.
pub const NUM_BUCKETS: usize = 1024;
const BUCKET_MASK: usize = NUM_BUCKETS - 1;
/// log2 of the slot width: a slot spans all of level 0, 2^26 ns.
const SLOT_BITS: u32 = BUCKET_BITS + NUM_BUCKETS.trailing_zeros();
/// Width of one level-1 slot in nanoseconds (≈ 67.1 ms).
pub const SLOT_SPAN_NANOS: u64 = 1 << SLOT_BITS;
/// Number of slots in level 1 (must stay a power of two); level 1 covers
/// the ≈ 68.7 s after the current slot.
pub const NUM_SLOTS: usize = 1024;
const SLOT_MASK: usize = NUM_SLOTS - 1;
/// How far level 1 reaches past `slot_base`.
const LEVEL1_SPAN_NANOS: u64 = SLOT_SPAN_NANOS * NUM_SLOTS as u64;
/// Events per chunk of the arena.
const CHUNK: usize = 4;
/// The end of a chunk list.
const NO_CHUNK: u32 = u32::MAX;

// One `Ring` type serves both levels, so they have as many lists.
const _: () = assert!(NUM_SLOTS == NUM_BUCKETS);

fn bucket_index(nanos: u64) -> usize {
    (nanos >> BUCKET_BITS) as usize & BUCKET_MASK
}

fn slot_index(nanos: u64) -> usize {
    (nanos >> SLOT_BITS) as usize & SLOT_MASK
}

/// Index of the first set bit of `words` at or after bit `from`.
fn first_set(words: &[u64], from: usize) -> Option<usize> {
    let mut word = from / 64;
    let mut bits = words.get(word)? & (u64::MAX << (from % 64));
    while bits == 0 {
        word += 1;
        bits = *words.get(word)?;
    }
    Some(word * 64 + bits.trailing_zeros() as usize)
}

/// An event plus its total-order key. Ordering ignores the payload.
struct Keyed<T> {
    time_nanos: u64,
    seq: u64,
    item: T,
}

impl<T> Keyed<T> {
    fn key(&self) -> (u64, u64) {
        (self.time_nanos, self.seq)
    }
}

impl<T> PartialEq for Keyed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Keyed<T> {}
impl<T> PartialOrd for Keyed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Keyed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The queue's interface, so equivalence tests and benchmarks can drive it
/// and a reference model through one code path.
pub trait TimeOrderedQueue<T> {
    /// Inserts an event with its `(time, seq)` key.
    fn push(&mut self, time: SimTime, seq: u64, item: T);
    /// Key of the earliest event without removing it.
    fn peek_key(&mut self) -> Option<(SimTime, u64)>;
    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<(SimTime, u64, T)>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Every wheel event's storage: fixed-size chunks of one buffer, reused
/// through one free list whichever bucket or slot is busy, so the buffer
/// grows like a heap's, to the most chunks the wheel ever held at once.
struct Arena<T> {
    /// Chunk `c` is `chunks[c * CHUNK..][..CHUNK]`; a free chunk and the
    /// unfilled end of a list's last chunk hold `None`.
    chunks: Vec<Option<Keyed<T>>>,
    /// The chunk after `c` in its list, or in the free list.
    next: Vec<u32>,
    /// Head of the free list.
    free: u32,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena { chunks: Vec::new(), next: Vec::new(), free: NO_CHUNK }
    }
}

impl<T> Arena<T> {
    /// A chunk from the free list, or a new one at the end.
    fn new_chunk(&mut self) -> u32 {
        let chunk = match self.free {
            NO_CHUNK => {
                self.chunks.resize_with(self.chunks.len() + CHUNK, || None);
                self.next.push(NO_CHUNK);
                u32::try_from(self.next.len() - 1).expect("fewer than 2^32 chunks")
            }
            free => {
                self.free = self.next[free as usize];
                free
            }
        };
        self.next[chunk as usize] = NO_CHUNK;
        chunk
    }
}

/// One bucket's or slot's events: a list of arena chunks, filled in order.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY_LIST: List = List { head: NO_CHUNK, tail: NO_CHUNK, len: 0 };

/// One wheel level: a ring of lists over the arena, list `i` holding the
/// events of bucket (or slot) `i`.
#[derive(Default)]
struct Ring {
    /// `NUM_BUCKETS` lists, or none before the first push.
    lists: Vec<List>,
    /// Bit `i` is set iff `lists[i]` is non-empty.
    occupied: [u64; NUM_BUCKETS / 64],
    /// Events in all lists.
    len: usize,
}

impl Ring {
    /// Appends `e` to list `index`.
    fn push<T>(&mut self, arena: &mut Arena<T>, index: usize, e: Keyed<T>) {
        if self.lists.is_empty() {
            self.lists = vec![EMPTY_LIST; NUM_BUCKETS];
        }
        let list = &mut self.lists[index];
        let at = list.len as usize % CHUNK;
        if at == 0 {
            let chunk = arena.new_chunk();
            match list.tail {
                NO_CHUNK => list.head = chunk,
                tail => arena.next[tail as usize] = chunk,
            }
            list.tail = chunk;
        }
        arena.chunks[list.tail as usize * CHUNK + at] = Some(e);
        list.len += 1;
        self.occupied[index / 64] |= 1 << (index % 64);
        self.len += 1;
    }

    /// Empties list `index` through `f`, in push order: each event straight
    /// from its chunk, and each chunk to the free list once it is handed
    /// on, so what `f` pushes into the other ring may reuse it.
    fn take<T>(&mut self, arena: &mut Arena<T>, index: usize, mut f: impl FnMut(&mut Arena<T>, Keyed<T>)) {
        let Some(list) = self.lists.get_mut(index) else {
            return;
        };
        let List { head, len, .. } = std::mem::replace(list, EMPTY_LIST);
        self.occupied[index / 64] &= !(1 << (index % 64));
        self.len -= len as usize;
        let (mut chunk, mut left) = (head, len as usize);
        while left > 0 {
            let start = chunk as usize * CHUNK;
            for at in start..start + left.min(CHUNK) {
                let e = arena.chunks[at].take().expect("a list's chunks are filled in order");
                f(arena, e);
            }
            left = left.saturating_sub(CHUNK);
            let next = arena.next[chunk as usize];
            arena.next[chunk as usize] = arena.free;
            arena.free = chunk;
            chunk = next;
        }
    }

    /// A copy holding the same events in the same lists, in the same order
    /// within each, pushed into `to` through `f`.
    fn clone_into<T>(&self, from: &Arena<T>, to: &mut Arena<T>, mut f: impl FnMut(&Keyed<T>) -> Keyed<T>) -> Ring {
        let mut clone = Ring::default();
        for (index, list) in self.lists.iter().enumerate() {
            let (mut chunk, mut left) = (list.head, list.len as usize);
            while left > 0 {
                for e in from.chunks[chunk as usize * CHUNK..][..left.min(CHUNK)].iter().flatten() {
                    clone.push(to, index, f(e));
                }
                left = left.saturating_sub(CHUNK);
                chunk = from.next[chunk as usize];
            }
        }
        clone
    }
}

/// The production event queue: two wheel levels + sorted run + one heap.
pub struct EventQueue<T> {
    /// The last drained bucket, sorted *descending* by `(time, seq)` so that
    /// `Vec::pop` yields its minimum; never inserted into.
    run: Vec<Keyed<T>>,
    /// Level 0: list `bucket_index(t)` holds the events at `t` in
    /// `[bucket_base, bucket_base + SLOT_SPAN_NANOS)`.
    buckets: Ring,
    /// Start (nanos) of the bucket at the cursor; multiple of the bucket span.
    bucket_base: u64,
    /// Level 1: list `slot_index(t)` holds the events at `t` past level 0
    /// and before `slot_base + LEVEL1_SPAN_NANOS`.
    slots: Ring,
    /// End (nanos) of the slot holding `bucket_base`: where level 1 starts.
    slot_base: u64,
    /// Both levels' events.
    arena: Arena<T>,
    /// Events pushed below `bucket_base` or beyond level 1's horizon.
    heap: BinaryHeap<Reverse<Keyed<T>>>,
    len: usize,
    peak_len: usize,
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("peak_len", &self.peak_len)
            .field("bucket_base", &self.bucket_base)
            .finish_non_exhaustive()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue with its wheel positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            buckets: Ring::default(),
            bucket_base: 0,
            slots: Ring::default(),
            slot_base: SLOT_SPAN_NANOS,
            arena: Arena::default(),
            heap: BinaryHeap::new(),
            len: 0,
            peak_len: 0,
        }
    }

    /// Largest number of events that were ever pending simultaneously.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Visits every pending entry as `(time_nanos, seq, &item)`, in
    /// arbitrary order (run, both wheel levels, then the heap).
    /// Checkpoint digests collect the entries and sort by `(time, seq)`;
    /// the queue's own pop order is never derived from this.
    pub fn for_each_entry(&self, mut f: impl FnMut(u64, u64, &T)) {
        let wheel = self.arena.chunks.iter().flatten();
        let heap = self.heap.iter().map(|Reverse(e)| e);
        for e in self.run.iter().chain(wheel).chain(heap) {
            f(e.time_nanos, e.seq, &e.item);
        }
    }

    /// Structural clone: maps every pending item through `f`, keeping the
    /// cursor (`bucket_base`, `slot_base`), the run, per-bucket and per-slot
    /// placement and `peak_len` exactly, so the fork's future pushes land
    /// where the parent's would.
    pub fn clone_with(&self, mut f: impl FnMut(&T) -> T) -> Self {
        let mut clone_keyed = |e: &Keyed<T>| Keyed {
            time_nanos: e.time_nanos,
            seq: e.seq,
            item: f(&e.item),
        };
        let mut arena = Arena::default();
        let buckets = self.buckets.clone_into(&self.arena, &mut arena, &mut clone_keyed);
        let slots = self.slots.clone_into(&self.arena, &mut arena, &mut clone_keyed);
        // The heap's internal arrangement after re-pushing may differ from
        // the parent's, but keys are unique (the simulator never reuses a
        // seq), so pop order — the only observable — is identical.
        let run = self.run.iter().map(&mut clone_keyed).collect();
        let heap = self.heap.iter().map(|Reverse(e)| Reverse(clone_keyed(e))).collect();
        EventQueue {
            run,
            buckets,
            bucket_base: self.bucket_base,
            slots,
            slot_base: self.slot_base,
            arena,
            heap,
            len: self.len,
            peak_len: self.peak_len,
        }
    }

    /// Start of the first non-empty slot at or after `slot_base`, the start
    /// of level 1. The ring wraps: the slots below `slot_base`'s index come
    /// last.
    fn next_slot_start(&self) -> Option<u64> {
        let (first, occupied) = (slot_index(self.slot_base), &self.slots.occupied);
        let index = first_set(occupied, first).or_else(|| first_set(occupied, 0))?;
        let ahead = index.wrapping_sub(first) & SLOT_MASK;
        Some(self.slot_base + ahead as u64 * SLOT_SPAN_NANOS)
    }

    /// Moves the cursor forward to `base`. Crossing into a later slot
    /// cascades that slot into buckets; the slots in between must be empty.
    fn advance_to(&mut self, base: u64) {
        self.bucket_base = base;
        if base < self.slot_base {
            return;
        }
        let slot_start = base & !(SLOT_SPAN_NANOS - 1);
        self.slot_base = slot_start.saturating_add(SLOT_SPAN_NANOS);
        let (buckets, slot_base) = (&mut self.buckets, self.slot_base);
        self.slots.take(&mut self.arena, slot_index(slot_start), |arena, e| {
            debug_assert!(e.time_nanos >= base && e.time_nanos < slot_base);
            buckets.push(arena, bucket_index(e.time_nanos), e);
        });
    }

    /// Makes the smaller of the run's head and the heap's the global
    /// minimum (see the module docs). Returns `false` iff the queue is empty.
    fn settle(&mut self) -> bool {
        let heap_min = self.heap.peek().map(|Reverse(e)| e.time_nanos);
        if !self.run.is_empty() || heap_min.is_some_and(|t| t < self.bucket_base) {
            return true;
        }
        if self.buckets.len == 0 {
            // The placement rule: the earlier of the next non-empty slot
            // and just past the heap's minimum. A `bucket_base` saturated
            // at u64::MAX may not pass the minimum; it is still the
            // smallest event left.
            match (self.next_slot_start(), heap_min) {
                (None, None) => return false,
                (Some(slot), None) => self.advance_to(slot),
                (Some(slot), Some(min)) if min >= slot => self.advance_to(slot),
                (_, Some(min)) => {
                    let past = (min & !(BUCKET_SPAN_NANOS - 1)).saturating_add(BUCKET_SPAN_NANOS);
                    self.advance_to(past);
                    return true;
                }
            }
        }
        // Make the next populated bucket the run and move the cursor past
        // it. Bits from the cursor's index up are the rest of its slot; the
        // bits below it, the next slot.
        let index = match first_set(&self.buckets.occupied, bucket_index(self.bucket_base)) {
            Some(index) => index,
            None => {
                // What level 0 holds lies in the next slot: enter it, and
                // cascade it, before draining any of it.
                self.advance_to(self.slot_base);
                first_set(&self.buckets.occupied, 0).expect("level 0 holds an event")
            }
        };
        let run = &mut self.run;
        self.buckets.take(&mut self.arena, index, |_, e| run.push(e));
        self.run.sort_unstable_by(|a, b| b.cmp(a));
        let start = (self.bucket_base & !(SLOT_SPAN_NANOS - 1)) + index as u64 * BUCKET_SPAN_NANOS;
        self.advance_to(start.saturating_add(BUCKET_SPAN_NANOS));
        true
    }

    /// Whether the run's head sorts before the heap's (keys are unique).
    fn run_is_next(&self) -> bool {
        match (self.run.last(), self.heap.peek()) {
            (Some(run), Some(Reverse(heap))) => run < heap,
            (run, _) => run.is_some(),
        }
    }
}

impl<T> TimeOrderedQueue<T> for EventQueue<T> {
    fn push(&mut self, time: SimTime, seq: u64, item: T) {
        let e = Keyed { time_nanos: time.as_nanos(), seq, item };
        let t = e.time_nanos;
        if t >= self.bucket_base && t < self.bucket_base.saturating_add(SLOT_SPAN_NANOS) {
            self.buckets.push(&mut self.arena, bucket_index(t), e);
        } else if t >= self.slot_base && t < self.slot_base.saturating_add(LEVEL1_SPAN_NANOS) {
            self.slots.push(&mut self.arena, slot_index(t), e);
        } else {
            self.heap.push(Reverse(e));
        }
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if !self.settle() {
            return None;
        }
        let next = if self.run_is_next() {
            self.run.last()
        } else {
            self.heap.peek().map(|Reverse(e)| e)
        };
        next.map(|e| (SimTime::from_nanos(e.time_nanos), e.seq))
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if !self.settle() {
            return None;
        }
        let next = if self.run_is_next() {
            self.run.pop()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        };
        let e = next.expect("settled queue holds an event");
        self.len -= 1;
        Some((SimTime::from_nanos(e.time_nanos), e.seq, e.item))
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some((t, s, v)) = q.pop() {
            out.push((t.as_nanos(), s, v));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(50), 2, 0u32);
        q.push(SimTime::from_nanos(10), 1, 1);
        q.push(SimTime::from_nanos(50), 0, 2);
        q.push(SimTime::from_nanos(10), 3, 3);
        let order: Vec<u32> = drain(&mut q).into_iter().map(|(_, _, v)| v).collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn spans_buckets_slots_and_heap() {
        let mut q = EventQueue::new();
        // One event per region: run (once the cursor reaches it), level 0,
        // level 1, heap.
        let slot = SLOT_SPAN_NANOS * 3 + 17;
        let far = LEVEL1_SPAN_NANOS * 3 + 17;
        q.push(SimTime::from_nanos(far), 0, 0u32);
        q.push(SimTime::from_nanos(slot), 1, 1);
        q.push(SimTime::from_nanos(5), 2, 2);
        q.push(SimTime::from_nanos(BUCKET_SPAN_NANOS * 4 + 3), 3, 3);
        assert_eq!((q.len(), q.buckets.len, q.slots.len, q.heap.len()), (4, 2, 1, 1));
        let popped = drain(&mut q);
        assert_eq!(
            popped,
            vec![(5, 2, 2), (BUCKET_SPAN_NANOS * 4 + 3, 3, 3), (slot, 1, 1), (far, 0, 0)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn push_below_cursor_still_pops_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(BUCKET_SPAN_NANOS * 10), 0, 0u32);
        assert_eq!(q.pop().map(|(t, ..)| t.as_nanos()), Some(BUCKET_SPAN_NANOS * 10));
        // The cursor has advanced past bucket 10; a (clamped) push at an
        // earlier nanosecond must still come out before later events.
        q.push(SimTime::from_nanos(BUCKET_SPAN_NANOS * 12), 1, 1);
        q.push(SimTime::from_nanos(3), 2, 2);
        assert_eq!(q.pop().map(|(.., v)| v), Some(2));
        assert_eq!(q.pop().map(|(.., v)| v), Some(1));
    }

    #[test]
    fn far_events_pop_in_order() {
        let mut q = EventQueue::new();
        // All beyond level 0 (three in level 1, two beyond its horizon), in
        // reverse order.
        let (span, level1) = (SLOT_SPAN_NANOS, LEVEL1_SPAN_NANOS);
        let times = [level1 * 2 + 1, level1 + 9, span * 9 + 100, span * 5 + 7, span * 5 + 3];
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(*t), i as u64, i as u32);
        }
        let popped = drain(&mut q);
        let expected: Vec<_> = (0..5u32).rev().map(|i| (times[i as usize], u64::from(i), i)).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(SimTime::from_nanos((i * 7919) % 1000), i, i as u32);
        }
        while let Some(key) = q.peek_key() {
            let (t, s, _) = q.pop().expect("peeked");
            assert_eq!(key, (t, s));
        }
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(SimTime::from_nanos(i), i, ());
        }
        for _ in 0..5 {
            q.pop();
        }
        q.push(SimTime::from_nanos(0), 11, ());
        assert_eq!(q.peak_len(), 10);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn near_max_times_do_not_wrap() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(u64::MAX - 1), 0, 0u32);
        q.push(SimTime::from_nanos(u64::MAX), 1, 1);
        q.push(SimTime::from_nanos(0), 2, 2);
        let popped = drain(&mut q);
        assert_eq!(popped.len(), 3);
        assert_eq!(popped[0].2, 2);
        assert_eq!(popped[1].2, 0);
        assert_eq!(popped[2].2, 1);
    }

    #[test]
    fn overdue_overflow_pops_before_later_wheel_events() {
        // Regression: X parks beyond level 1's horizon, in the heap; the
        // cursor moves on, so a later push Y > X fits level 1; cascading
        // and draining Y's slot carries the cursor past X. X must still
        // pop first.
        let mut q = EventQueue::new();
        let x = SLOT_SPAN_NANOS + LEVEL1_SPAN_NANOS + 5;
        q.push(SimTime::from_nanos(x), 0, 0u32); // beyond the horizon → heap
        q.push(SimTime::from_nanos(SLOT_SPAN_NANOS * 10), 1, 1);
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.pop().map(|(.., v)| v), Some(1));
        // The horizon is now nine slots further out: Y lands in level 1.
        q.push(SimTime::from_nanos(x + BUCKET_SPAN_NANOS * 5), 2, 2);
        assert_eq!(q.slots.len, 1);
        assert_eq!(q.pop().map(|(.., v)| v), Some(0), "X pops before Y");
        assert_eq!(q.pop().map(|(.., v)| v), Some(2));
    }

    #[test]
    fn clone_with_preserves_order_and_counters() {
        let mut q = EventQueue::new();
        let slot = SLOT_SPAN_NANOS * 2;
        let far = LEVEL1_SPAN_NANOS * 2;
        for (seq, t) in [far, 5, BUCKET_SPAN_NANOS * 3, slot + 9, 1].iter().enumerate() {
            q.push(SimTime::from_nanos(*t), seq as u64, seq as u32);
        }
        // Pop a couple to advance the cursor, then push more so every region
        // (heap below the cursor and beyond the horizon, both levels) is
        // populated.
        q.pop();
        q.pop();
        q.push(SimTime::from_nanos(2), 10, 10);
        q.push(SimTime::from_nanos(far * 3), 11, 11);
        q.push(SimTime::from_nanos(slot * 7), 12, 12);

        let mut cloned = q.clone_with(|v| *v);
        assert_eq!(cloned.len(), q.len());
        assert_eq!(cloned.peak_len(), q.peak_len());
        assert_eq!(cloned.slots.occupied, q.slots.occupied);
        assert_eq!(drain(&mut cloned), drain(&mut q));
    }

    #[test]
    fn wheel_empty_move_keeps_near_pushes_in_the_wheel() {
        // A far event pops from an otherwise empty queue — an idle world's
        // next churn timer. What it schedules a few ms later must land in
        // level 0: left at zero, the cursor would send it to the heap.
        let mut q = EventQueue::new();
        let far = LEVEL1_SPAN_NANOS * 3 + 12_345;
        q.push(SimTime::from_nanos(far), 0, 0u32);
        assert_eq!(q.pop().map(|(t, ..)| t.as_nanos()), Some(far));
        for (seq, ms) in [1u64, 3, 20, 60].into_iter().enumerate() {
            q.push(SimTime::from_nanos(far + ms * 1_000_000), seq as u64 + 1, 0);
        }
        assert_eq!((q.buckets.len, q.slots.len, q.heap.len()), (4, 0, 0));
        assert_eq!(drain(&mut q).len(), 4);
    }

    #[test]
    fn timers_of_a_quarter_to_a_whole_second_land_in_level_one() {
        // A flood tick (250 ms), a tcp-lite RTO (1 s) and one a slot after
        // the tick go to level 1, from time zero and after the cursor has
        // moved past a far event, and pop in order through their cascades.
        let far = LEVEL1_SPAN_NANOS * 3 + 12_345;
        for now in [0, far] {
            let mut q = EventQueue::new();
            if now > 0 {
                q.push(SimTime::from_nanos(now), 0, 0u32);
                q.pop();
            }
            let ms = [1_000u64, 250, 250 + 67];
            for (seq, ms) in ms.into_iter().enumerate() {
                q.push(SimTime::from_nanos(now + ms * 1_000_000), seq as u64 + 1, 0);
            }
            assert_eq!((q.buckets.len, q.slots.len, q.heap.len()), (0, 3, 0));
            let popped: Vec<u64> = drain(&mut q).into_iter().map(|(t, ..)| (t - now) / 1_000_000).collect();
            assert_eq!(popped, [250, 317, 1_000]);
        }
    }

    #[test]
    fn the_arena_follows_what_is_pending() {
        // 100,000 events pass through both levels in groups of `CHUNK + 1`
        // at one tick each, eight groups pending at once: every fifth pop
        // schedules a group 3 ms on (level 0) or 300 ms on (level 1, so it
        // cascades), and the wheel reuses the chunks of what it drained.
        const GROUP: usize = CHUNK + 1;
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        let mut push_group = |q: &mut EventQueue<u32>, nanos: u64| {
            for _ in 0..GROUP {
                q.push(SimTime::from_nanos(nanos), seq, 0);
                seq += 1;
            }
        };
        for g in 0..8 {
            push_group(&mut q, g * 1_000_000);
        }
        for popped in 1..=100_000 {
            let (t, ..) = q.pop().expect("eight groups stay pending");
            if popped % GROUP == 0 {
                let ahead = if popped % (2 * GROUP) == 0 { 3_000_000 } else { 300_000_000 };
                push_group(&mut q, t.as_nanos() + ahead);
            }
        }
        // A list of n events takes n / CHUNK full chunks and at most one
        // part-filled one. Every non-empty list holds at least one whole
        // group, so at most peak / GROUP lists hold a part-filled chunk. A
        // take adds two: the chunk it has drained but not yet freed, and
        // the group it is moving, which straddles two lists meanwhile.
        let peak = q.peak_len();
        assert_eq!(peak, 8 * GROUP);
        let bound = peak / CHUNK + peak / GROUP + 2;
        let chunks = q.arena.next.len();
        assert!(chunks <= bound, "{chunks} chunks for at most {peak} pending events (bound {bound})");
    }

    #[test]
    fn reference_queue_agrees_on_a_mixed_schedule() {
        let mut wheel = EventQueue::new();
        let times = [0u64, 5, 5, 70_000, 70_000, 1 << 30, (1 << 30) + 1, 3];
        let mut reference: Vec<(u64, u64, u32)> = Vec::new();
        for (seq, t) in times.iter().enumerate() {
            wheel.push(SimTime::from_nanos(*t), seq as u64, seq as u32);
            reference.push((*t, seq as u64, seq as u32));
        }
        reference.sort_unstable_by_key(|&(time, seq, _)| (time, seq));
        assert_eq!(drain(&mut wheel), reference);
    }
}
