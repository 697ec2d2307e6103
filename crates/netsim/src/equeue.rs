//! The simulator's event queue: a bucketed calendar queue whose drained
//! bucket is a sorted run, with one heap for every event outside the
//! wheel's window.
//!
//! # Why not a plain `BinaryHeap`
//!
//! The hot path of a discrete-event network simulator is `push`/`pop` on the
//! future-event set. A binary heap pays `O(log n)` per push with poor cache
//! locality once `n` reaches the hundreds of thousands of pending events a
//! large botnet scenario produces (as the whole queue it read +70 % `wall_s`
//! on `flood_star`: EXPERIMENTS.md "Closing the queue question"). Most
//! events, however, are scheduled a short, bounded time into the future
//! (transmission completions, MAC slots, per-packet timers), which is the
//! access pattern calendar queues exploit:
//!
//! * a ring of [`NUM_BUCKETS`] buckets, each spanning [`BUCKET_SPAN_NANOS`]
//!   nanoseconds, covers the near future — pushes into the wheel are a plain
//!   `Vec::push`, `O(1)` and cache-friendly;
//! * when the cursor reaches a bucket its events become the **run**: sorted
//!   once by `(time, seq)`, popped from one end, never inserted into — one
//!   small sort and `O(1)` pops where a heap would sift every event twice
//!   (61–98 % of a benchmark workload's events come this way, 2–6 a bucket);
//! * one **heap** holds everything outside the wheel's window: a push below
//!   the cursor (into the span of the bucket being consumed — so a dense
//!   burst stays `O(log n)` an event; binary-inserting these into the run
//!   was measured, EXPERIMENTS.md "Where a flood packet's time goes": a
//!   link-saturation replay fell 64 %) and a push beyond the wheel horizon
//!   (long RTOs, churn timers). `peek_key`/`pop` take the smaller of the
//!   run's head and the heap's, so an event never moves between regions
//!   once pushed.
//!
//! # Determinism
//!
//! Events are totally ordered by `(time, seq)` where `seq` is the
//! scheduling sequence number the simulator assigns monotonically. Two
//! events at the same tick therefore pop in the order they were scheduled —
//! the invariant the replaced `BinaryHeap<Reverse<Entry>>` provided and the
//! property tests in `tests/queue_equivalence.rs` lock in: for any schedule
//! (including same-tick ties and pushes interleaved with pops), the calendar
//! queue pops in exactly the order of a plain binary heap over `(time, seq)`,
//! the reference model that test keeps.
//!
//! Structural invariant: wheel events are `>= bucket_base`, run events
//! `< bucket_base`, heap events anywhere. `settle` stops as soon as the run
//! is non-empty or the heap's minimum is below `bucket_base`: every wheel
//! event then sorts after one of the two heads, so the smaller head is the
//! global minimum. Otherwise it drains the next non-empty bucket into the
//! run. `bucket_base` is always a bucket-span multiple and only advances.
//!
//! Placement rule: when the wheel is empty, `settle` moves the cursor just
//! past the heap's minimum rather than leaving it behind. Order does not
//! need it; speed does — what is scheduled a few ms after that event then
//! lands in the wheel, not the heap (without it `flood_star` read 0.43 →
//! 0.70 s). `wheel_empty_move_keeps_near_pushes_in_the_wheel` pins it.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width: buckets span 2^16 ns ≈ 65.5 µs.
const BUCKET_BITS: u32 = 16;
/// Width of one calendar bucket in nanoseconds.
pub const BUCKET_SPAN_NANOS: u64 = 1 << BUCKET_BITS;
/// Number of buckets in the ring (must stay a power of two); the wheel
/// covers ≈ 67 ms of near future.
pub const NUM_BUCKETS: usize = 1024;
const BUCKET_MASK: usize = NUM_BUCKETS - 1;

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

/// The production event queue: calendar wheel + sorted run + one heap.
pub struct EventQueue<T> {
    /// The last drained bucket, sorted *descending* by `(time, seq)` so that
    /// `Vec::pop` yields its minimum; never inserted into.
    run: Vec<Keyed<T>>,
    /// Ring of near-future buckets; `buckets[head]` starts at `bucket_base`.
    buckets: Vec<Vec<Keyed<T>>>,
    head: usize,
    /// Start (nanos) of the bucket at `head`; multiple of the bucket span.
    bucket_base: u64,
    /// Total events currently in `buckets`.
    wheel_len: usize,
    /// Events pushed below `bucket_base` or beyond the wheel horizon.
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
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, Vec::new);
        EventQueue {
            run: Vec::new(),
            buckets,
            head: 0,
            bucket_base: 0,
            wheel_len: 0,
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
    /// arbitrary order (run, wheel buckets, then the heap).
    /// Checkpoint digests collect the entries and sort by `(time, seq)`;
    /// the queue's own pop order is never derived from this.
    pub fn for_each_entry(&self, mut f: impl FnMut(u64, u64, &T)) {
        let heap = self.heap.iter().map(|Reverse(e)| e);
        for e in self.run.iter().chain(self.buckets.iter().flatten()).chain(heap) {
            f(e.time_nanos, e.seq, &e.item);
        }
    }

    /// Structural clone: maps every pending item through `f`, keeping the
    /// cursor (`head`, `bucket_base`), the run, per-bucket placement and
    /// `peak_len` exactly, so the fork's future pushes land where the
    /// parent's would.
    pub fn clone_with(&self, mut f: impl FnMut(&T) -> T) -> Self {
        let mut clone_keyed = |e: &Keyed<T>| Keyed {
            time_nanos: e.time_nanos,
            seq: e.seq,
            item: f(&e.item),
        };
        // The heap's internal arrangement after re-pushing may differ from
        // the parent's, but keys are unique (the simulator never reuses a
        // seq), so pop order — the only observable — is identical.
        let run = self.run.iter().map(&mut clone_keyed).collect();
        let buckets = self
            .buckets
            .iter()
            .map(|bucket| bucket.iter().map(&mut clone_keyed).collect())
            .collect();
        let heap = self.heap.iter().map(|Reverse(e)| Reverse(clone_keyed(e))).collect();
        EventQueue {
            run,
            buckets,
            head: self.head,
            bucket_base: self.bucket_base,
            wheel_len: self.wheel_len,
            heap,
            len: self.len,
            peak_len: self.peak_len,
        }
    }

    /// Makes the smaller of the run's head and the heap's the global
    /// minimum (see the module docs). Returns `false` iff the queue is empty.
    fn settle(&mut self) -> bool {
        let heap_min = self.heap.peek().map(|Reverse(e)| e.time_nanos);
        if !self.run.is_empty() || heap_min.is_some_and(|t| t < self.bucket_base) {
            return true;
        }
        if self.wheel_len == 0 {
            // The placement rule. A `bucket_base` saturated at u64::MAX may
            // not pass the minimum; it is still the smallest event left.
            let Some(min) = heap_min else {
                return false;
            };
            self.bucket_base = (min & !(BUCKET_SPAN_NANOS - 1)).saturating_add(BUCKET_SPAN_NANOS);
            return true;
        }
        // Advance the cursor to the next populated bucket and make it the
        // run (copied: the bucket keeps its own buffer). Bounded by
        // NUM_BUCKETS steps.
        loop {
            let bucket = &mut self.buckets[self.head];
            let drained = !bucket.is_empty();
            if drained {
                self.wheel_len -= bucket.len();
                self.run.append(bucket);
                self.run.sort_unstable_by(|a, b| b.cmp(a));
            }
            self.head = (self.head + 1) & BUCKET_MASK;
            self.bucket_base = self.bucket_base.saturating_add(BUCKET_SPAN_NANOS);
            if drained {
                return true;
            }
        }
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
        let offset = e.time_nanos.checked_sub(self.bucket_base).map(|d| d >> BUCKET_BITS);
        match offset {
            Some(offset) if offset < NUM_BUCKETS as u64 => {
                self.buckets[(self.head + offset as usize) & BUCKET_MASK].push(e);
                self.wheel_len += 1;
            }
            _ => self.heap.push(Reverse(e)),
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
    fn spans_buckets_and_heap() {
        let mut q = EventQueue::new();
        // One event per region: run (once the cursor reaches it), wheel, heap.
        let far = BUCKET_SPAN_NANOS * (NUM_BUCKETS as u64) * 3 + 17;
        q.push(SimTime::from_nanos(far), 0, 0u32);
        q.push(SimTime::from_nanos(5), 1, 1);
        q.push(SimTime::from_nanos(BUCKET_SPAN_NANOS * 4 + 3), 2, 2);
        assert_eq!(q.len(), 3);
        let popped = drain(&mut q);
        assert_eq!(
            popped,
            vec![(5, 1, 1), (BUCKET_SPAN_NANOS * 4 + 3, 2, 2), (far, 0, 0)]
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
        let span = BUCKET_SPAN_NANOS * NUM_BUCKETS as u64;
        // All far beyond the initial wheel horizon, in reverse order.
        for (i, t) in [span * 9 + 100, span * 5 + 7, span * 5 + 3].iter().enumerate() {
            q.push(SimTime::from_nanos(*t), i as u64, i as u32);
        }
        let popped = drain(&mut q);
        assert_eq!(
            popped,
            vec![
                (span * 5 + 3, 2, 2),
                (span * 5 + 7, 1, 1),
                (span * 9 + 100, 0, 0)
            ]
        );
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
        // Regression: X parks beyond the wheel horizon; the cursor moves on,
        // so a later push Y > X fits the wheel; draining Y's bucket carries
        // the cursor past X. X must still pop first.
        let wheel_span = BUCKET_SPAN_NANOS * NUM_BUCKETS as u64;
        let mut q = EventQueue::new();
        let x = wheel_span + 5;
        q.push(SimTime::from_nanos(x), 0, 0u32); // beyond horizon → heap
        q.push(SimTime::from_nanos(BUCKET_SPAN_NANOS * 10), 1, 1);
        assert_eq!(q.pop().map(|(.., v)| v), Some(1));
        // The horizon is now 11 buckets further out: Y lands in the wheel.
        q.push(SimTime::from_nanos(x + BUCKET_SPAN_NANOS * 5), 2, 2);
        assert_eq!(q.pop().map(|(.., v)| v), Some(0), "X pops before Y");
        assert_eq!(q.pop().map(|(.., v)| v), Some(2));
    }

    #[test]
    fn clone_with_preserves_order_and_counters() {
        let mut q = EventQueue::new();
        let far = BUCKET_SPAN_NANOS * NUM_BUCKETS as u64 * 2;
        for (seq, t) in [far, 5, BUCKET_SPAN_NANOS * 3, far + 9, 1].iter().enumerate() {
            q.push(SimTime::from_nanos(*t), seq as u64, seq as u32);
        }
        // Pop a couple to advance the cursor, then push more so every region
        // (heap below the cursor and beyond the horizon, wheel) is populated.
        q.pop();
        q.pop();
        q.push(SimTime::from_nanos(2), 10, 10);
        q.push(SimTime::from_nanos(far * 3), 11, 11);

        let mut cloned = q.clone_with(|v| *v);
        assert_eq!(cloned.len(), q.len());
        assert_eq!(cloned.peak_len(), q.peak_len());
        assert_eq!(drain(&mut cloned), drain(&mut q));
    }

    #[test]
    fn wheel_empty_move_keeps_near_pushes_in_the_wheel() {
        // A far event pops from an otherwise empty queue — an idle world's
        // next churn timer. What it schedules a few ms later must land in
        // the wheel: left at zero, the cursor would send it to the heap.
        let mut q = EventQueue::new();
        let far = BUCKET_SPAN_NANOS * NUM_BUCKETS as u64 * 40 + 12_345;
        q.push(SimTime::from_nanos(far), 0, 0u32);
        assert_eq!(q.pop().map(|(t, ..)| t.as_nanos()), Some(far));
        for (seq, ms) in [1u64, 3, 20, 60].into_iter().enumerate() {
            q.push(SimTime::from_nanos(far + ms * 1_000_000), seq as u64 + 1, 0);
        }
        assert_eq!((q.wheel_len, q.heap.len()), (4, 0));
        assert_eq!(drain(&mut q).len(), 4);
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
