//! The flight recorder: a bounded ring buffer of [`Event`]s.
//!
//! Like an aircraft flight recorder, it keeps the most recent window of
//! activity: once `capacity` events have been recorded the oldest are
//! overwritten. `total_recorded` keeps counting, so the serialized form
//! says both what was kept and how much history scrolled off.

use crate::event::Event;
use djson::{FromJson, Json, JsonError, ToJson};

/// Schema tag written into every serialized recorder trace.
pub const RECORDER_SCHEMA: &str = "ddosim.telemetry.recorder/1";

/// Ring-buffered structured event log.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    /// Ring storage; `head` is the index the *next* event lands in once
    /// the buffer is full.
    buf: Vec<Event>,
    head: usize,
    /// Events recorded so far — also the next event's sequence number.
    total: u64,
}

impl FlightRecorder {
    /// Creates a recorder keeping at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            buf: Vec::new(),
            head: 0,
            total: 0,
        }
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
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records `event`, stamping it with the next sequence number and
    /// evicting the oldest retained event when full. Returns the sequence
    /// number the event was stamped with, so a live tap (serve mode's
    /// streaming sink) can forward the exact stored entry.
    pub fn record(&mut self, mut event: Event) -> u64 {
        let seq = self.total;
        event.seq = seq;
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
        seq
    }

    /// Retained events in chronological (sequence) order.
    pub fn events(&self) -> Vec<&Event> {
        let (older, newer) = self.buf.split_at(self.head);
        newer.iter().chain(older.iter()).collect()
    }

    /// Serializes the retained window; byte-stable for identical event
    /// streams (djson preserves insertion order, no wall-clock fields).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(RECORDER_SCHEMA.into())),
            ("capacity", Json::U64(self.capacity as u64)),
            ("total_recorded", Json::U64(self.total)),
            (
                "events",
                Json::Arr(self.events().into_iter().map(ToJson::to_json).collect()),
            ),
        ])
    }

    /// Parses the `events` array out of a serialized recorder trace.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the document is not a recorder trace.
    pub fn events_from_json(json: &Json) -> Result<Vec<Event>, JsonError> {
        let events = json
            .get("events")
            .ok_or_else(|| JsonError::conversion("recorder trace missing 'events'"))?;
        Vec::<Event>::from_json(events)
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
            category: Category::LinkTx,
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
    fn zero_capacity_clamps_to_one() {
        let mut r = FlightRecorder::new(0);
        r.record(ev(1, "x"));
        r.record(ev(2, "y"));
        assert_eq!(r.len(), 1);
        assert_eq!(r.events()[0].detail, "y");
    }
}
