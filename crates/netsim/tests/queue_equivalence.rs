//! Property tests proving the timing-wheel [`EventQueue`] observationally
//! identical to the plain binary heap it replaced ([`ReferenceQueue`],
//! kept here as the executable specification).
//!
//! The simulator's determinism hinges on the queue popping in exact
//! `(time, seq)` order, so these tests drive both implementations through
//! the same schedules — including same-tick ties, pushes interleaved with
//! pops (events scheduled while the simulation runs), bucket- and
//! slot-boundary times, level-1 offsets, times either side of level 1's
//! horizon, and far-future times — and require identical pop sequences.
//! A drained bucket is a sorted run beside the heap that takes late
//! arrivals, so one generator aims at that seam: dense buckets consumed
//! while pushes keep landing below the cursor. Another cascades a slot of
//! more events than a chunk holds and clones the queue straight after.

use netsim::equeue::{BUCKET_SPAN_NANOS, NUM_BUCKETS, NUM_SLOTS, SLOT_SPAN_NANOS};
use netsim::{EventQueue, SimTime, TimeOrderedQueue};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The pre-overhaul model: one binary heap over `(time, seq, item)`. Keys
/// are unique, so the item never decides the order.
#[derive(Default)]
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    peak_len: usize,
}

impl TimeOrderedQueue<u64> for ReferenceQueue {
    fn push(&mut self, time: SimTime, seq: u64, item: u64) {
        self.heap.push(Reverse((time.as_nanos(), seq, item)));
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse((time, seq, _))| (SimTime::from_nanos(*time), *seq))
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        let Reverse((time, seq, item)) = self.heap.pop()?;
        Some((SimTime::from_nanos(time), seq, item))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Drains both queues fully, comparing every popped `(time, seq, payload)`.
fn assert_drain_identical(wheel: &mut EventQueue<u64>, reference: &mut ReferenceQueue) {
    loop {
        assert_eq!(wheel.len(), reference.len());
        assert_eq!(wheel.peek_key(), reference.peek_key());
        let (a, b) = (wheel.pop(), reference.pop());
        assert_eq!(a, b);
        if a.is_none() {
            return;
        }
    }
}

/// Widens a raw u64 into an interesting time: most weight on level-0
/// values, some on bucket and slot boundaries, level-1 offsets, both
/// horizons and far-future times.
fn shape_time(raw: u64) -> u64 {
    let span = BUCKET_SPAN_NANOS;
    let wheel = span * NUM_BUCKETS as u64;
    let level1 = SLOT_SPAN_NANOS * NUM_SLOTS as u64;
    match raw % 12 {
        // Dense near-term cluster: many same-tick ties.
        0 | 1 => raw % 64,
        // Within one bucket.
        2 => raw % span,
        // Across level 0.
        3 | 4 => raw % wheel,
        // Exactly on bucket boundaries.
        5 => (raw % (NUM_BUCKETS as u64 * 4)) * span,
        // Just beyond level 0: the next few slots.
        6 => wheel + raw % (4 * wheel),
        // Anywhere in level 1.
        7 => raw % level1,
        // Exactly on a slot boundary, or one nanosecond before it.
        8 => ((raw >> 8) % (NUM_SLOTS as u64 * 2) * SLOT_SPAN_NANOS).saturating_sub((raw >> 4) % 2),
        // Either side of level 1's horizon.
        9 => level1 - 2 * wheel + raw % (4 * wheel),
        // Far beyond it.
        _ => raw % (u64::MAX / 2) + wheel,
    }
}

/// Every pending entry as `for_each_entry` reports it, in `(time, seq)` order.
fn entries(q: &EventQueue<u64>) -> Vec<(u64, u64, u64)> {
    let mut seen = Vec::new();
    q.for_each_entry(|time, seq, item| seen.push((time, seq, *item)));
    seen.sort_unstable();
    seen
}

/// Pushes one event, with the next sequence number, into every queue.
fn push_all(queues: &mut [&mut dyn TimeOrderedQueue<u64>], seq: &mut u64, nanos: u64) {
    for q in queues {
        q.push(SimTime::from_nanos(nanos), *seq, nanos);
    }
    *seq += 1;
}

#[test]
fn for_each_entry_and_clone_cover_run_wheel_and_heap() {
    let span = BUCKET_SPAN_NANOS;
    let slot = SLOT_SPAN_NANOS * 2;
    let beyond = SLOT_SPAN_NANOS * NUM_SLOTS as u64 * 2;
    let mut q = EventQueue::new();
    let mut seq = 0;
    // Ten events in bucket 3 (latest first), one further round level 0,
    // one in a level-1 slot and one beyond level 1's horizon.
    for off in (0..10).rev().map(|i| 100 * i).chain([37 * span, slot, beyond]) {
        push_all(&mut [&mut q], &mut seq, 3 * span + off);
    }
    // Three pops make bucket 3 the run and leave seven of it; two pushes
    // into bucket 3's span then fall below the cursor, into the heap —
    // the second at the very tick of a run event scheduled before it.
    for i in 0..3 {
        assert_eq!(q.pop(), Some((SimTime::from_nanos(3 * span + 100 * i), 9 - i, 3 * span + 100 * i)));
    }
    push_all(&mut [&mut q], &mut seq, 3 * span + 250);
    push_all(&mut [&mut q], &mut seq, 3 * span + 300);

    let pending = entries(&q);
    assert_eq!(pending.len(), q.len(), "for_each_entry visits exactly len() entries");
    let offsets: Vec<(u64, u64)> = pending.iter().map(|&(t, seq, _)| (t - 3 * span, seq)).collect();
    assert_eq!(
        offsets,
        [(250, 13), (300, 6), (300, 14), (400, 5), (500, 4), (600, 3), (700, 2), (800, 1), (900, 0)]
            .into_iter()
            .chain([(37 * span, 10), (slot, 11), (beyond, 12)])
            .collect::<Vec<_>>()
    );

    let mut clone = q.clone_with(|item| *item);
    assert_eq!(entries(&clone), pending);
    for expected in pending {
        let expected = Some((SimTime::from_nanos(expected.0), expected.1, expected.2));
        assert_eq!(q.pop(), expected, "pop order is (time, seq) order across run and heap");
        assert_eq!(clone.pop(), expected, "a clone taken mid-run drains like its parent");
    }
    assert!(q.is_empty() && clone.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_buckets_with_late_arrivals_match_reference(
        bucket in 0u64..(NUM_BUCKETS as u64 * 3),
        dense in proptest::collection::vec(any::<u16>(), 100..400),
        late in proptest::collection::vec(any::<u32>(), 1..300),
        pops_per_push in 1usize..4,
        clone_after in 1usize..200,
    ) {
        // Hundreds of events inside one 65 µs bucket span (a burst through a
        // saturated link; every fourth offset rounded to 1024 ns for
        // same-tick ties), one further round level 0, one in level 1.
        let span = BUCKET_SPAN_NANOS;
        let horizon = span * NUM_BUCKETS as u64;
        let base = bucket * span;
        let mut wheel = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let mut seq = 0;
        for off in &dense {
            let off = if off % 4 == 0 { off & !1023 } else { *off };
            push_all(&mut [&mut wheel, &mut reference], &mut seq, base + u64::from(off));
        }
        push_all(&mut [&mut wheel, &mut reference], &mut seq, base + 7 * span);
        push_all(&mut [&mut wheel, &mut reference], &mut seq, base + 2 * horizon);

        // Consume the run a few pops at a time. Between them schedule at or
        // after `now`, as the simulator does: at exactly `now` (a tie between
        // the heap and what is left of the run), a little ahead (inside
        // the span being consumed, so still below the cursor), into later
        // buckets, into level 1 or beyond its horizon. After `clone_after`
        // pops a structural clone joins in and must agree from then on.
        let mut late = late.iter();
        let mut clone: Option<EventQueue<u64>> = None;
        let mut popped = 0;
        'drain: loop {
            let mut now = 0;
            for _ in 0..pops_per_push {
                prop_assert_eq!(wheel.peek_key(), reference.peek_key());
                let next = reference.pop();
                prop_assert_eq!(&wheel.pop(), &next);
                if let Some(clone) = clone.as_mut() {
                    prop_assert_eq!(&clone.pop(), &next);
                }
                let Some((time, ..)) = next else { break 'drain };
                now = time.as_nanos();
                popped += 1;
                if popped == clone_after {
                    prop_assert_eq!(entries(&wheel).len(), wheel.len());
                    clone = Some(wheel.clone_with(|item| *item));
                }
            }
            if let Some(raw) = late.next() {
                let rest = u64::from(raw >> 3);
                let ahead = match raw % 8 {
                    0 | 1 => 0,
                    2..=5 => rest % (span / 4),
                    6 => rest % (16 * span),
                    // Into level 1, or beyond its horizon.
                    _ if rest % 2 == 0 => horizon + rest,
                    _ => SLOT_SPAN_NANOS * NUM_SLOTS as u64 + rest,
                };
                let mut queues: Vec<&mut dyn TimeOrderedQueue<u64>> = vec![&mut wheel, &mut reference];
                queues.extend(clone.as_mut().map(|c| c as &mut dyn TimeOrderedQueue<u64>));
                push_all(&mut queues, &mut seq, now + ahead);
            }
        }
        prop_assert!(wheel.is_empty() && clone.is_none_or(|c| c.is_empty()));
        prop_assert_eq!(wheel.peak_len(), reference.peak_len);
    }

    #[test]
    fn a_clone_right_after_a_cascade_drains_like_its_parent(
        slot in 1u64..(NUM_SLOTS as u64),
        offsets in proptest::collection::vec(any::<u32>(), 5..40),
        near in proptest::collection::vec(any::<u32>(), 0..8),
        pops_before_clone in 1usize..4,
    ) {
        // One level-1 slot holds more events than a chunk (four), spread
        // over its buckets, so its cascade refills chunks it has just
        // freed; a few level-0 events go first. The clone is taken from
        // the first pop inside that slot on, and must drain like the
        // parent and the reference.
        let start = slot * SLOT_SPAN_NANOS;
        let mut wheel = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let mut seq = 0;
        for off in &near {
            push_all(&mut [&mut wheel, &mut reference], &mut seq, u64::from(*off) % SLOT_SPAN_NANOS);
        }
        for off in &offsets {
            push_all(&mut [&mut wheel, &mut reference], &mut seq, start + u64::from(*off) % SLOT_SPAN_NANOS);
        }
        let mut popped_in_slot = 0;
        while popped_in_slot < pops_before_clone {
            let next = reference.pop();
            prop_assert_eq!(&wheel.pop(), &next);
            let Some((time, ..)) = next else { break };
            popped_in_slot += usize::from(time.as_nanos() >= start);
        }
        let mut clone = wheel.clone_with(|item| *item);
        prop_assert_eq!(entries(&clone), entries(&wheel));
        loop {
            let next = reference.pop();
            prop_assert_eq!(&wheel.pop(), &next);
            prop_assert_eq!(&clone.pop(), &next);
            if next.is_none() {
                break;
            }
        }
    }

    #[test]
    fn random_schedules_pop_identically(raw_times in proptest::collection::vec(any::<u64>(), 1..400)) {
        let mut wheel = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        for (seq, raw) in raw_times.iter().enumerate() {
            let t = SimTime::from_nanos(shape_time(*raw));
            wheel.push(t, seq as u64, *raw);
            reference.push(t, seq as u64, *raw);
        }
        assert_drain_identical(&mut wheel, &mut reference);
    }

    #[test]
    fn same_tick_ties_pop_in_schedule_order(tick in any::<u32>(), n in 2usize..64) {
        let mut wheel = EventQueue::new();
        let t = SimTime::from_nanos(u64::from(tick));
        for seq in 0..n as u64 {
            wheel.push(t, seq, seq);
        }
        for expected in 0..n as u64 {
            let (pt, seq, item) = wheel.pop().expect("queue holds n events");
            prop_assert_eq!(pt, t);
            prop_assert_eq!(seq, expected);
            prop_assert_eq!(item, expected);
        }
        prop_assert!(wheel.pop().is_none());
    }

    #[test]
    fn schedule_during_pop_matches_reference(
        initial in proptest::collection::vec(any::<u64>(), 1..120),
        follow_ups in proptest::collection::vec(any::<u64>(), 1..120),
    ) {
        // Models the simulator's actual usage: handling one event schedules
        // more events at or after the popped time (the run loop clamps to
        // `now`), interleaved with further pops.
        let mut wheel = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        let mut seq = 0u64;
        for raw in &initial {
            let t = SimTime::from_nanos(shape_time(*raw));
            wheel.push(t, seq, *raw);
            reference.push(t, seq, *raw);
            seq += 1;
        }
        let mut follow = follow_ups.iter();
        loop {
            prop_assert_eq!(wheel.peek_key(), reference.peek_key());
            let (a, b) = (wheel.pop(), reference.pop());
            prop_assert_eq!(&a, &b);
            let Some((now, _, _)) = a else { break };
            if let Some(raw) = follow.next() {
                // Schedule relative to the popped time, never in the past.
                // Offsets reuse the full shape: near-term ties, wheel-scale,
                // and beyond-horizon times that park in the heap while the
                // cursor passes them.
                let t = SimTime::from_nanos(now.as_nanos().saturating_add(shape_time(*raw)));
                wheel.push(t, seq, *raw);
                reference.push(t, seq, *raw);
                seq += 1;
            }
        }
        prop_assert!(reference.is_empty());
    }

    #[test]
    fn peak_depth_matches_reference(
        raw_times in proptest::collection::vec(any::<u64>(), 1..200),
        pop_every in 1usize..5,
    ) {
        let mut wheel = EventQueue::new();
        let mut reference = ReferenceQueue::default();
        for (seq, raw) in raw_times.iter().enumerate() {
            let t = SimTime::from_nanos(shape_time(*raw));
            wheel.push(t, seq as u64, *raw);
            reference.push(t, seq as u64, *raw);
            if seq % pop_every == 0 {
                prop_assert_eq!(wheel.pop(), reference.pop());
            }
        }
        prop_assert_eq!(wheel.peak_len(), reference.peak_len);
    }
}
