//! The flight recorder: a bounded ring buffer of events.
//!
//! Like an aircraft flight recorder, it keeps the most recent window of
//! activity: once `capacity` events have been recorded the oldest are
//! overwritten. `total_recorded` keeps counting, so the serialized form
//! says both what was kept and how much history scrolled off.
//!
//! The ring keeps what happened, not its sentence: a slot holds a
//! [`Detail`] and becomes an [`Event`] — sequence number and text — only
//! when read. Most of a long run's events scroll off unread, unformatted.

use crate::event::{Category, Detail, Event};
use djson::{Json, PlanError, Val};

/// Schema tag written into every serialized recorder trace.
pub const RECORDER_SCHEMA: &str = "ddosim.telemetry.recorder/1";

/// One retained event. Its sequence number is where it sits,
/// and the node's `Option` is split so its tag shares the category's word.
#[derive(Debug, Clone)]
struct Slot {
    time_nanos: u64,
    detail: Detail,
    node: u32,
    has_node: bool,
    category: Category,
}

// A recorded world owns up to `capacity` of these, and `peak_rss_mb` is gated.
const _: () = assert!(std::mem::size_of::<Slot>() <= 40);

/// Slots per storage chunk. The ring grows a chunk at a time and never
/// moves a stored slot: as one `Vec`, doubling kept the old and the new
/// buffer alive together, which with slots 32 bytes wider than the
/// `Event`s they replaced read +14 % `peak_rss_mb` on `serve_jobs`.
const CHUNK: usize = 1024;

/// Ring-buffered structured event log.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    /// Event `seq` is `chunks[i / CHUNK][i % CHUNK]`, `i = seq % capacity`.
    chunks: Vec<Vec<Slot>>,
    /// Events recorded so far — also the next event's sequence number.
    total: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { capacity: capacity.max(1), chunks: Vec::new(), total: 0 }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events recorded over the recorder's lifetime (may
    /// exceed `capacity`; the excess has been overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.total.min(self.capacity as u64) as usize
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Records an already rendered `event` (one parsed from a stream or a
    /// trace file, say) under the next sequence number, which is
    /// returned; the event's own `seq` is ignored.
    pub fn record(&mut self, event: Event) -> u64 {
        self.push(event.time_nanos, event.node, event.category, Detail::Text(event.detail));
        self.total - 1
    }

    /// Stores one event under the next sequence number, over the oldest
    /// retained event when full.
    pub(crate) fn push(&mut self, time_nanos: u64, node: Option<u32>, category: Category, detail: Detail) {
        let (node, has_node) = (node.unwrap_or(0), node.is_some());
        let slot = Slot { time_nanos, detail, node, has_node, category };
        let at = (self.total % self.capacity as u64) as usize;
        if at / CHUNK == self.chunks.len() {
            self.chunks.push(Vec::new());
        }
        let chunk = &mut self.chunks[at / CHUNK];
        match chunk.get_mut(at % CHUNK) {
            Some(oldest) => *oldest = slot,
            None => chunk.push(slot),
        }
        self.total += 1;
    }

    /// Retained events, rendered, in chronological (sequence) order.
    fn rendered(&self) -> impl Iterator<Item = Event> + '_ {
        (self.total - self.len() as u64..self.total).map(move |seq| {
            let at = (seq % self.capacity as u64) as usize;
            let slot = &self.chunks[at / CHUNK][at % CHUNK];
            Event {
                time_nanos: slot.time_nanos,
                seq,
                node: slot.has_node.then_some(slot.node),
                category: slot.category,
                detail: slot.detail.clone().into_text(),
            }
        })
    }

    /// Retained events in chronological (sequence) order.
    pub fn events(&self) -> Vec<Event> {
        self.rendered().collect()
    }

    /// Serializes the retained window; byte-stable for identical event
    /// streams (djson preserves insertion order, no wall-clock fields).
    /// Slots go straight into JSON objects: the window is never alive twice.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(RECORDER_SCHEMA.into())),
            ("capacity", Json::U64(self.capacity as u64)),
            ("total_recorded", Json::U64(self.total)),
            ("events", Json::Arr(self.rendered().map(Event::into_json).collect())),
        ])
    }

    /// Reads the events back out of a serialized recorder trace.
    ///
    /// # Errors
    ///
    /// A [`PlanError`] when the document is not a recorder trace.
    pub fn events_from_json(json: &Json) -> Result<Vec<Event>, PlanError> {
        Val::root("recorder trace", json).fields(|f| {
            f.schema(RECORDER_SCHEMA)?;
            f.req::<usize>("capacity")?;
            f.req::<u64>("total_recorded")?;
            f.req_with("events", |v| v.items("event", Event::read))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;

    fn ev(t: u64, detail: &str) -> Event {
        Event {
            time_nanos: t,
            seq: 0,
            node: Some(1),
            category: Category::Infection,
            detail: detail.into(),
        }
    }

    #[test]
    fn wraps_keeping_most_recent() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.record(ev(i, &format!("e{i}")));
        }
        assert_eq!(r.total_recorded(), 5);
        assert_eq!(r.len(), 3);
        let kept: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest two evicted, order kept");
    }

    #[test]
    fn wraps_across_storage_chunks() {
        // Two and a half chunks, filled, then wrapped one and a half times.
        let capacity = 2 * CHUNK + CHUNK / 2;
        let mut r = FlightRecorder::new(capacity);
        for n in [CHUNK - 1, CHUNK + 1, capacity, capacity + 1, 2 * capacity + CHUNK] {
            while r.total_recorded() < n as u64 {
                let i = r.total_recorded();
                assert_eq!(r.record(ev(i, &format!("e{i}"))), i);
            }
            let kept = r.events();
            assert_eq!(kept.len(), n.min(capacity));
            assert_eq!(r.len(), kept.len());
            for (event, i) in kept.iter().zip((n - kept.len()) as u64..) {
                assert_eq!((event.seq, event.time_nanos, event.detail.as_str()), (i, i, &*format!("e{i}")));
            }
            assert_eq!(r.clone().events(), kept);
        }
    }

    #[test]
    fn serialization_round_trips_events() {
        let mut r = FlightRecorder::new(8);
        r.record(ev(10, "a"));
        r.record(ev(20, "b"));
        let json = r.to_json();
        let back = FlightRecorder::events_from_json(&json).expect("parse");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].detail, "a");
        assert_eq!(back[1].seq, 1);
        // Byte stability: same content serializes identically.
        assert_eq!(json.to_string_compact(), r.to_json().to_string_compact());
    }

    #[test]
    fn a_document_that_is_not_a_recorder_trace_is_refused_by_place() {
        let mut r = FlightRecorder::new(2);
        r.record(ev(10, "a"));
        let trace = r.to_json().to_string_compact();
        for (from, to, says) in [
            (RECORDER_SCHEMA, "other/1", "unsupported recorder trace schema 'other/1'"),
            (r#""events""#, r#""evnets""#, "recorder trace is missing 'events'"),
            (r#""total_recorded":1"#, r#""total_recorded":-1"#, "total_recorded must be an unsigned"),
            (r#""seq":0"#, r#""seq":0,"extra":1"#, "unknown field 'extra' in event #0"),
        ] {
            let broken = Json::parse(&trace.replace(from, to)).expect("still JSON");
            let err = FlightRecorder::events_from_json(&broken).expect_err(to).to_string();
            assert!(err.contains(says), "{to}: {err}");
        }
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = FlightRecorder::new(0);
        r.record(ev(1, "x"));
        r.record(ev(2, "y"));
        assert_eq!(r.len(), 1);
        assert_eq!(r.events()[0].detail, "y");
    }
}
