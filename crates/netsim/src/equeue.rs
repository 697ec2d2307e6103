//! The simulator's event queue: a bucketed calendar queue whose drained
//! bucket is a sorted run, with a late heap and an overflow heap, plus the
//! straightforward binary-heap reference model it replaced.
//!
//! # Why not a plain `BinaryHeap`
//!
//! The hot path of a discrete-event network simulator is `push`/`pop` on the
//! future-event set. A binary heap pays `O(log n)` per push with poor cache
//! locality once `n` reaches the hundreds of thousands of pending events a
//! large botnet scenario produces. Most events, however, are scheduled a
//! short, bounded time into the future (transmission completions, MAC slots,
//! per-packet timers), which is the access pattern calendar queues exploit:
//!
//! * a ring of [`NUM_BUCKETS`] buckets, each spanning [`BUCKET_SPAN_NANOS`]
//!   nanoseconds, covers the near future — pushes into the wheel are a plain
//!   `Vec::push`, `O(1)` and cache-friendly;
//! * when the cursor reaches a bucket its events become the **run**: sorted
//!   once by `(time, seq)`, popped from one end, never inserted into — one
//!   small sort and `O(1)` pops where a heap would sift every event twice
//!   (61–98 % of a benchmark workload's events come this way, 2–6 a bucket);
//! * a **late heap** holds only what arrives *below the cursor* — a push into
//!   the span of the bucket being consumed, or an overdue overflow event —
//!   so a dense burst stays `O(log n)` an event (binary-inserting these into
//!   the run was measured, EXPERIMENTS.md "Where a flood packet's time
//!   goes": a link-saturation replay fell 64 %).
//!   `peek_key`/`pop` take the smaller of the run's head and the late heap's;
//! * an **overflow heap** catches events beyond the wheel horizon (long RTOs,
//!   churn timers); when the wheel runs dry it is repositioned at the
//!   overflow minimum and the now-in-window events cascade into buckets.
//!
//! # Determinism
//!
//! Events are totally ordered by `(time, seq)` where `seq` is the
//! scheduling sequence number the simulator assigns monotonically. Two
//! events at the same tick therefore pop in the order they were scheduled —
//! the invariant the replaced `BinaryHeap<Reverse<Entry>>` provided and the
//! property tests in `tests/queue_equivalence.rs` lock in: for any schedule
//! (including same-tick ties and pushes interleaved with pops), the calendar
//! queue pops in exactly the order of [`ReferenceQueue`].
//!
//! Structural invariant: after `settle`, unless the queue is empty, the
//! smaller of the run's head and the late heap's is the global minimum.
//! Wheel events are always `>= bucket_base`, run and late events
//! `< bucket_base`; overflow events can fall behind the cursor while the
//! wheel stays busy (the cursor advances a bucket span past every drained
//! bucket), so `settle` first sweeps any overflow event with
//! `time < bucket_base` into the late heap. The next bucket is drained only
//! once run and late heap are both empty. `bucket_base` itself is always a
//! bucket-span multiple and only advances.

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

/// Minimal interface both queue implementations share, so equivalence tests
/// and benchmarks can drive either through one code path.
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

/// The production event queue: calendar wheel + sorted run + late heap +
/// overflow heap.
pub struct EventQueue<T> {
    /// The last drained bucket, sorted *descending* by `(time, seq)` so that
    /// `Vec::pop` yields its minimum; never inserted into.
    run: Vec<Keyed<T>>,
    /// Events pushed or swept in with `time < bucket_base`.
    late: BinaryHeap<Reverse<Keyed<T>>>,
    /// Ring of near-future buckets; `buckets[head]` starts at `bucket_base`.
    buckets: Vec<Vec<Keyed<T>>>,
    head: usize,
    /// Start (nanos) of the bucket at `head`; multiple of the bucket span.
    bucket_base: u64,
    /// Total events currently in `buckets`.
    wheel_len: usize,
    /// Events at or beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<Keyed<T>>>,
    len: usize,
    peak_len: usize,
    /// Overdue-overflow sweeps performed (events that had to be rescued
    /// from the overflow heap after the cursor passed them).
    overflow_sweeps: u64,
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
            late: BinaryHeap::new(),
            buckets,
            head: 0,
            bucket_base: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            peak_len: 0,
            overflow_sweeps: 0,
        }
    }

    /// Largest number of events that were ever pending simultaneously.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// How many events have been swept from the overflow heap into the
    /// late heap because the cursor had already advanced past them.
    /// A rising count under load flags schedules that defeat the wheel
    /// (telemetry records a `queue_sweep` event per increase).
    pub fn overflow_sweeps(&self) -> u64 {
        self.overflow_sweeps
    }

    /// Visits every pending entry as `(time_nanos, seq, &item)`, in
    /// arbitrary order (run, wheel buckets, then late and overflow heaps).
    /// Checkpoint digests collect the entries and sort by `(time, seq)`;
    /// the queue's own pop order is never derived from this.
    pub fn for_each_entry(&self, mut f: impl FnMut(u64, u64, &T)) {
        let heaps = self.late.iter().chain(&self.overflow).map(|Reverse(e)| e);
        for e in self.run.iter().chain(self.buckets.iter().flatten()).chain(heaps) {
            f(e.time_nanos, e.seq, &e.item);
        }
    }

    /// Structural clone: maps every pending item through `f`, preserving
    /// the cursor and counter state exactly — `head`, `bucket_base`, the
    /// run, per-bucket placement, `peak_len`, and `overflow_sweeps`. Forking
    /// must not re-push into a fresh queue: that would reset the cursor and
    /// the sweep counter, changing both future overflow-sweep telemetry and
    /// the stats digest relative to the parent.
    pub fn clone_with(&self, mut f: impl FnMut(&T) -> T) -> Self {
        let mut clone_keyed = |e: &Keyed<T>| Keyed {
            time_nanos: e.time_nanos,
            seq: e.seq,
            item: f(&e.item),
        };
        // Heap-internal arrangement after re-pushing may differ from the
        // parent's, but keys are unique (the simulator never reuses a
        // seq), so pop order — the only observable — is identical.
        let run = self.run.iter().map(&mut clone_keyed).collect();
        let late = self.late.iter().map(|Reverse(e)| Reverse(clone_keyed(e))).collect();
        let buckets = self
            .buckets
            .iter()
            .map(|bucket| bucket.iter().map(&mut clone_keyed).collect())
            .collect();
        let overflow = self.overflow.iter().map(|Reverse(e)| Reverse(clone_keyed(e))).collect();
        EventQueue {
            run,
            late,
            buckets,
            head: self.head,
            bucket_base: self.bucket_base,
            wheel_len: self.wheel_len,
            overflow,
            len: self.len,
            peak_len: self.peak_len,
            overflow_sweeps: self.overflow_sweeps,
        }
    }

    fn push_keyed(&mut self, e: Keyed<T>) {
        if e.time_nanos < self.bucket_base {
            self.late.push(Reverse(e));
        } else {
            let offset = (e.time_nanos - self.bucket_base) >> BUCKET_BITS;
            if offset < NUM_BUCKETS as u64 {
                let idx = (self.head + offset as usize) & BUCKET_MASK;
                self.buckets[idx].push(e);
                self.wheel_len += 1;
            } else {
                self.overflow.push(Reverse(e));
            }
        }
    }

    /// Moves events below the cursor until the run or the late heap holds
    /// the global minimum (or proves the queue empty). Returns `false` iff
    /// the queue is empty.
    fn settle(&mut self) -> bool {
        loop {
            // Overflow events the cursor has advanced past are overdue: they
            // sort before anything still in the wheel, so they must join the
            // late heap *before* this peek/pop, not when the wheel next
            // runs dry. (An event parked beyond the horizon stays in
            // overflow while the wheel keeps busy; without this sweep it
            // would pop after later-scheduled wheel events.)
            while let Some(Reverse(e)) = self.overflow.peek() {
                if e.time_nanos >= self.bucket_base {
                    break;
                }
                let Some(Reverse(e)) = self.overflow.pop() else {
                    unreachable!("peeked entry exists");
                };
                self.late.push(Reverse(e));
                self.overflow_sweeps += 1;
            }
            if !self.run.is_empty() || !self.late.is_empty() {
                return true;
            }
            if self.wheel_len > 0 {
                // Advance the cursor to the next populated bucket and make
                // it the run (copied: the bucket keeps its own buffer).
                // Bounded by NUM_BUCKETS steps.
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
                        break;
                    }
                }
                continue;
            }
            // Wheel empty: reposition it at the overflow minimum and cascade
            // everything now inside the window into buckets.
            let Some(Reverse(min)) = self.overflow.peek() else {
                return false;
            };
            self.bucket_base = min.time_nanos & !(BUCKET_SPAN_NANOS - 1);
            // Per-item offset test (not a precomputed horizon): near
            // u64::MAX a saturated horizon would exclude the overflow
            // minimum itself and this loop would never make progress.
            while let Some(Reverse(e)) = self.overflow.peek() {
                let offset = (e.time_nanos - self.bucket_base) >> BUCKET_BITS;
                if offset >= NUM_BUCKETS as u64 {
                    break;
                }
                let Some(Reverse(e)) = self.overflow.pop() else {
                    unreachable!("peeked entry exists");
                };
                let idx = (self.head + offset as usize) & BUCKET_MASK;
                self.buckets[idx].push(e);
                self.wheel_len += 1;
            }
        }
    }

    /// Whether the run's head sorts before the late heap's (keys are unique).
    fn run_is_next(&self) -> bool {
        match (self.run.last(), self.late.peek()) {
            (Some(run), Some(Reverse(late))) => run < late,
            (run, _) => run.is_some(),
        }
    }
}

impl<T> TimeOrderedQueue<T> for EventQueue<T> {
    fn push(&mut self, time: SimTime, seq: u64, item: T) {
        self.push_keyed(Keyed { time_nanos: time.as_nanos(), seq, item });
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
            self.late.peek().map(|Reverse(e)| e)
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
            self.late.pop().map(|Reverse(e)| e)
        };
        let e = next.expect("settled queue has an event below the cursor");
        self.len -= 1;
        Some((SimTime::from_nanos(e.time_nanos), e.seq, e.item))
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The pre-overhaul model: one binary heap over `(time, seq)`. Kept as the
/// executable specification the calendar queue is tested against; the
/// speedups over it are in EXPERIMENTS.md "Engine microbenchmarks".
pub struct ReferenceQueue<T> {
    heap: BinaryHeap<Reverse<Keyed<T>>>,
    peak_len: usize,
}

impl<T> std::fmt::Debug for ReferenceQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReferenceQueue")
            .field("len", &self.heap.len())
            .field("peak_len", &self.peak_len)
            .finish_non_exhaustive()
    }
}

impl<T> Default for ReferenceQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReferenceQueue<T> {
    /// An empty reference queue.
    pub fn new() -> Self {
        ReferenceQueue { heap: BinaryHeap::new(), peak_len: 0 }
    }

    /// Largest number of events that were ever pending simultaneously.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

impl<T> TimeOrderedQueue<T> for ReferenceQueue<T> {
    fn push(&mut self, time: SimTime, seq: u64, item: T) {
        self.heap.push(Reverse(Keyed { time_nanos: time.as_nanos(), seq, item }));
        if self.heap.len() > self.peak_len {
            self.peak_len = self.heap.len();
        }
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.heap
            .peek()
            .map(|Reverse(e)| (SimTime::from_nanos(e.time_nanos), e.seq))
    }

    fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let Reverse(e) = self.heap.pop()?;
        Some((SimTime::from_nanos(e.time_nanos), e.seq, e.item))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<Q: TimeOrderedQueue<u32>>(q: &mut Q) -> Vec<(u64, u64, u32)> {
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
    fn spans_buckets_and_overflow() {
        let mut q = EventQueue::new();
        // One event per region: below the cursor (once it advances), wheel, overflow.
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
    fn overflow_repositioning_cascades() {
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
        q.push(SimTime::from_nanos(x), 0, 0u32); // beyond horizon → overflow
        q.push(SimTime::from_nanos(BUCKET_SPAN_NANOS * 10), 1, 1);
        assert_eq!(q.pop().map(|(.., v)| v), Some(1));
        // The horizon is now 11 buckets further out: Y lands in the wheel.
        q.push(SimTime::from_nanos(x + BUCKET_SPAN_NANOS * 5), 2, 2);
        assert_eq!(q.pop().map(|(.., v)| v), Some(0), "X pops before Y");
        assert_eq!(q.overflow_sweeps(), 1);
        assert_eq!(q.pop().map(|(.., v)| v), Some(2));
    }

    #[test]
    fn clone_with_preserves_order_and_counters() {
        let mut q = EventQueue::new();
        let far = BUCKET_SPAN_NANOS * NUM_BUCKETS as u64 * 2;
        for (seq, t) in [far, 5, BUCKET_SPAN_NANOS * 3, far + 9, 1].iter().enumerate() {
            q.push(SimTime::from_nanos(*t), seq as u64, seq as u32);
        }
        // Pop a couple to advance the cursor and exercise sweeps, then push
        // more so every region (late heap, wheel, overflow) is populated.
        q.pop();
        q.pop();
        q.push(SimTime::from_nanos(2), 10, 10);
        q.push(SimTime::from_nanos(far * 3), 11, 11);

        let mut cloned = q.clone_with(|v| *v);
        assert_eq!(cloned.len(), q.len());
        assert_eq!(cloned.peak_len(), q.peak_len());
        assert_eq!(cloned.overflow_sweeps(), q.overflow_sweeps());
        assert_eq!(drain(&mut cloned), drain(&mut q));
    }

    #[test]
    fn reference_queue_agrees_on_a_mixed_schedule() {
        let mut wheel = EventQueue::new();
        let mut reference = ReferenceQueue::new();
        let times = [0u64, 5, 5, 70_000, 70_000, 1 << 30, (1 << 30) + 1, 3];
        for (seq, t) in times.iter().enumerate() {
            wheel.push(SimTime::from_nanos(*t), seq as u64, seq as u32);
            reference.push(SimTime::from_nanos(*t), seq as u64, seq as u32);
        }
        assert_eq!(drain(&mut wheel), drain(&mut reference));
    }
}
