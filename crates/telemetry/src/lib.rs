//! Deterministic observability for the DDoSim stack.
//!
//! Four pieces, all serialized through `djson` so same-seed runs emit
//! byte-identical artifacts:
//!
//! * [`FlightRecorder`] — a ring buffer of structured [`Event`]s emitted
//!   by every layer (netsim retransmits and admin transitions, firmware
//!   shell and container lifecycle, malware C&C and infection
//!   transitions, core experiment phases): the botnet's story.
//! * [`PacketCapture`] — a pcap-like record of packet sends, deliveries,
//!   forwards and drops, filtered by a BPF-ish [`CaptureFilter`]; packets
//!   are observed here only.
//! * [`TimeSeries`] / [`SeriesSet`] — fixed-interval metric sampling
//!   (queue depth, tx/rx rates, bot population) that figure pipelines
//!   can bin directly.
//! * [`diff`] — finds the first diverging entry between two serialized
//!   traces, turning "the runs differ" into "they differ *here*".
//!
//! Everything hangs off a cheaply-cloneable [`Telemetry`] handle. The
//! disabled handle (the default) is a `None` plus false flags, so the
//! hot path pays one predictable branch per site and never constructs
//! an event: details are built inside closures that only run when
//! recording is on, and the recorder keeps a hot event's [`Detail`] as
//! plain values — its sentence is rendered only when read: by `to_json`,
//! `events()` or an attached sink.
//!
//! The handle uses `Rc`, not `Arc`: a simulator world is single-threaded
//! by design (parallel sweeps build one world per thread), and `Rc`
//! keeps the enabled path cheap.

pub mod capture;
pub mod diff;
pub mod event;
pub mod recorder;
pub mod series;

pub use capture::{CaptureFilter, CaptureRecord, PacketCapture, CAPTURE_SCHEMA};
pub use diff::{diff_strs, Divergence};
pub use event::{Category, Detail, Event};
pub use recorder::{FlightRecorder, RECORDER_SCHEMA};
pub use series::{SeriesSet, TimeSeries, METRICS_SCHEMA};

use djson::Json;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// What to record. The default records nothing and keeps the
/// simulation on the uninstrumented hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Run the flight recorder.
    pub record: bool,
    /// Ring-buffer capacity of the flight recorder.
    pub recorder_capacity: usize,
    /// Run the packet capture.
    pub capture: bool,
    /// BPF-ish predicate selecting which packet events are kept.
    pub capture_filter: CaptureFilter,
    /// Maximum stored capture records (further matches are counted).
    pub capture_capacity: usize,
    /// Sample time-series metrics every this often (simulated time);
    /// `None` disables sampling.
    pub metrics_interval: Option<Duration>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            record: false,
            recorder_capacity: 65_536,
            capture: false,
            capture_filter: CaptureFilter::default(),
            capture_capacity: 262_144,
            metrics_interval: None,
        }
    }
}

impl TelemetryConfig {
    /// Whether any collector is switched on.
    pub fn any_enabled(&self) -> bool {
        self.record || self.capture || self.metrics_interval.is_some()
    }

    /// Validates the knobs that have invalid settings.
    ///
    /// # Errors
    ///
    /// Returns a message describing the bad field.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(iv) = self.metrics_interval {
            if iv.is_zero() {
                return Err("metrics_interval must be positive".into());
            }
        }
        Ok(())
    }
}

/// A live event tap: invoked with every stamped [`Event`] the flight
/// recorder accepts, the instant it is recorded. Serve mode attaches one
/// to stream events over a socket while the run is still going. The sink
/// only observes — the recorder stores exactly what it would store
/// without one — so attaching a sink can never perturb a run.
type EventSink = Rc<RefCell<dyn FnMut(&Event)>>;

struct Inner {
    recorder: Option<FlightRecorder>,
    capture: Option<PacketCapture>,
    metrics: Option<SeriesSet>,
    /// Streaming event sink, if attached (serve mode). Shared by plain
    /// handle clones (they share this whole `Inner`), but deliberately
    /// *not* inherited by [`Telemetry::deep_fork`]: the sink belongs to
    /// one job's live stream, and a forked world's events must not leak
    /// into the parent job's frames.
    sink: Option<EventSink>,
}

impl Clone for Inner {
    fn clone(&self) -> Self {
        Inner {
            recorder: self.recorder.clone(),
            capture: self.capture.clone(),
            metrics: self.metrics.clone(),
            sink: None,
        }
    }
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("recorder", &self.recorder)
            .field("capture", &self.capture)
            .field("metrics", &self.metrics)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

/// Cloneable handle to a run's collectors. The default handle is
/// disabled: every emit call is a single branch that takes nothing.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Inner>>>,
    // Enablement flags are copied out of `inner` so hot-path checks are
    // plain branches, not RefCell borrows.
    records: bool,
    captures: bool,
}

impl Telemetry {
    /// The no-op handle.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Builds collectors per `config`; returns the disabled handle when
    /// nothing is switched on.
    pub fn from_config(config: &TelemetryConfig) -> Self {
        if !config.any_enabled() {
            return Telemetry::disabled();
        }
        let inner = Inner {
            recorder: config.record.then(|| FlightRecorder::new(config.recorder_capacity)),
            capture: config.capture.then(|| {
                PacketCapture::new(config.capture_filter.clone(), config.capture_capacity)
            }),
            metrics: config
                .metrics_interval
                .map(|iv| SeriesSet::new(iv.as_nanos().max(1) as u64)),
            sink: None,
        };
        Telemetry {
            records: inner.recorder.is_some(),
            captures: inner.capture.is_some(),
            inner: Some(Rc::new(RefCell::new(inner))),
        }
    }

    /// Whether any collector is live.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether the flight recorder is live (cheap; safe on hot paths).
    #[inline]
    pub fn records_events(&self) -> bool {
        self.records
    }

    /// Records a flight-recorder event. `detail` only runs when the
    /// recorder is live, so disabled runs build nothing; what it returns
    /// (a `String`, or a [`Detail`] of plain values at the hot sites) is
    /// stored as it is and rendered only when someone reads it.
    #[inline]
    pub fn record_event<D: Into<Detail>>(
        &self,
        time_nanos: u64,
        node: Option<u32>,
        category: Category,
        detail: impl FnOnce() -> D,
    ) {
        if !self.records {
            return;
        }
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            // Reborrow so the recorder and the sink can be used together
            // (disjoint field borrows through the `RefMut`).
            let inner = &mut *inner;
            if let Some(rec) = inner.recorder.as_mut() {
                let mut detail: Detail = detail().into();
                if let Some(sink) = &inner.sink {
                    // A sink reads every sentence: render it once, show the
                    // sink the exact entry the ring is about to store (same
                    // sequence number and payload, so a streamed trace can
                    // be reassembled byte for byte) and keep that string.
                    let seq = rec.total_recorded();
                    let event = Event { time_nanos, seq, node, category, detail: detail.into_text() };
                    (sink.borrow_mut())(&event);
                    detail = Detail::Text(event.detail);
                }
                rec.push(time_nanos, node, category, detail);
            }
        }
    }

    /// Offers a packet event to the capture. `make` only runs when the
    /// capture is live, so a world without one pays this one branch.
    #[inline]
    pub fn capture_packet(&self, make: impl FnOnce() -> CaptureRecord) {
        if self.captures {
            self.offer(make());
        }
    }

    /// The capture's half of [`Telemetry::capture_packet`], kept out of
    /// line: every packet event of the simulator inlines the branch above,
    /// and worlds without a capture never take it.
    #[cold]
    fn offer(&self, rec: CaptureRecord) {
        if let Some(inner) = &self.inner {
            if let Some(cap) = inner.borrow_mut().capture.as_mut() {
                cap.offer(rec);
            }
        }
    }

    /// Runs `f` against the metric series when sampling is on.
    pub fn with_metrics(&self, f: impl FnOnce(&mut SeriesSet)) {
        if let Some(inner) = &self.inner {
            if let Some(set) = inner.borrow_mut().metrics.as_mut() {
                f(set);
            }
        }
    }

    fn with_recorder<T>(&self, read: impl FnOnce(&FlightRecorder) -> T) -> Option<T> {
        self.inner.as_ref().and_then(|i| i.borrow().recorder.as_ref().map(read))
    }

    /// Serialized flight-recorder trace, if recording.
    pub fn recorder_json(&self) -> Option<Json> {
        self.with_recorder(FlightRecorder::to_json)
    }

    /// The retained flight-recorder events, rendered, oldest first
    /// (empty when the recorder is off).
    pub fn recorded_events(&self) -> Vec<Event> {
        self.with_recorder(FlightRecorder::events).unwrap_or_default()
    }

    /// Runs `read` against the packet capture, if capturing.
    pub fn with_capture<T>(&self, read: impl FnOnce(&PacketCapture) -> T) -> Option<T> {
        self.inner.as_ref().and_then(|i| i.borrow().capture.as_ref().map(read))
    }

    /// Serialized packet capture, if capturing.
    pub fn capture_json(&self) -> Option<Json> {
        self.with_capture(PacketCapture::to_json)
    }

    /// Serialized metrics document, if sampling.
    pub fn metrics_json(&self) -> Option<Json> {
        self.inner
            .as_ref()
            .and_then(|i| i.borrow().metrics.as_ref().map(SeriesSet::to_json))
    }

    /// Deep-clones the collectors into an independent handle.
    ///
    /// A plain `clone()` shares the collectors (that is the point of the
    /// handle); a *fork* needs its own copies so the forked world's events
    /// land in a separate trace while the parent's handle keeps recording
    /// the parent. The forked recorder keeps the parent's sequence
    /// counter, so a fork's first event is numbered exactly where the
    /// parent left off.
    pub fn deep_fork(&self) -> Telemetry {
        match &self.inner {
            None => Telemetry::disabled(),
            Some(inner) => Telemetry {
                records: self.records,
                captures: self.captures,
                inner: Some(Rc::new(RefCell::new(inner.borrow().clone()))),
            },
        }
    }

    /// Attaches a streaming event sink: `sink` runs with every stamped
    /// event the flight recorder accepts, the moment it is recorded, on
    /// the thread doing the recording. Replaces any previously attached
    /// sink. No-op when the handle is disabled (and the sink never fires
    /// unless the recorder is live).
    ///
    /// The sink must not call back into this handle (the collectors are
    /// borrowed while it runs). Plain clones share the sink; `deep_fork`
    /// drops it.
    pub fn set_event_sink(&self, sink: impl FnMut(&Event) + 'static) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().sink = Some(Rc::new(RefCell::new(sink)));
        }
    }

    /// Detaches the streaming event sink, if one is attached.
    pub fn clear_event_sink(&self) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().sink = None;
        }
    }

    /// The flight recorder's ring capacity, if recording.
    pub fn recorder_capacity(&self) -> Option<usize> {
        self.with_recorder(FlightRecorder::capacity)
    }

    /// Events recorded over the run (0 when the recorder is off).
    pub fn events_recorded(&self) -> u64 {
        self.with_recorder(FlightRecorder::total_recorded).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_takes_nothing_and_never_formats() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.record_event(0, None, Category::Phase, || -> String {
            panic!("detail closure must not run when disabled")
        });
        t.capture_packet(|| panic!("capture closure must not run when disabled"));
        assert!(t.recorder_json().is_none());
        assert!(t.capture_json().is_none());
        assert!(t.metrics_json().is_none());
        assert_eq!(t.events_recorded(), 0);
    }

    #[test]
    fn from_config_respects_switches() {
        let off = Telemetry::from_config(&TelemetryConfig::default());
        assert!(!off.is_enabled());

        let cfg = TelemetryConfig { record: true, ..TelemetryConfig::default() };
        let t = Telemetry::from_config(&cfg);
        assert!(t.records_events());
        t.record_event(5, Some(1), Category::Phase, || "init".to_string());
        assert_eq!(t.events_recorded(), 1);
        assert!(t.capture_json().is_none());

        // Clones share the same collectors.
        let t2 = t.clone();
        t2.record_event(6, Some(1), Category::Phase, || "attack".to_string());
        assert_eq!(t.events_recorded(), 2);
    }

    #[test]
    fn metrics_sampling_round_trip() {
        let cfg = TelemetryConfig {
            metrics_interval: Some(Duration::from_secs(1)),
            ..TelemetryConfig::default()
        };
        let t = Telemetry::from_config(&cfg);
        t.with_metrics(|m| m.series_mut("queue_depth").push(3.0));
        let json = t.metrics_json().expect("metrics on");
        assert!(json.to_string_compact().contains("queue_depth"));
    }

    #[test]
    fn event_sink_streams_exactly_what_the_ring_stores() {
        let cfg = TelemetryConfig { record: true, ..TelemetryConfig::default() };
        let t = Telemetry::from_config(&cfg);
        let seen: Rc<RefCell<Vec<Event>>> = Rc::new(RefCell::new(Vec::new()));
        let tap = Rc::clone(&seen);
        t.set_event_sink(move |e| tap.borrow_mut().push(e.clone()));
        t.record_event(5, Some(1), Category::Phase, || "init".to_string());
        t.record_event(9, None, Category::Infection, || "dev1 infected".to_string());
        let streamed = seen.borrow().clone();
        assert_eq!(streamed.len(), 2);
        assert_eq!(streamed[0].seq, 0, "sink sees the stamped sequence number");
        assert_eq!(streamed[1].seq, 1);
        // The streamed entries are byte-identical to the stored ring.
        let stored = t.recorder_json().expect("recording");
        let ring = FlightRecorder::events_from_json(&stored).expect("parse");
        assert_eq!(streamed, ring);

        // Detaching stops the stream but not the ring.
        t.clear_event_sink();
        t.record_event(11, None, Category::Phase, || "quiet".to_string());
        assert_eq!(seen.borrow().len(), 2);
        assert_eq!(t.events_recorded(), 3);
        assert_eq!(t.recorder_capacity(), Some(65_536));
    }

    #[test]
    fn sentences_are_rendered_only_when_read() {
        let renders = || event::tests::RENDERS.with(std::cell::Cell::get);
        let cfg = TelemetryConfig { record: true, recorder_capacity: 8, ..TelemetryConfig::default() };
        let t = Telemetry::from_config(&cfg);
        let record = |t: &Telemetry, i: u64| match i % 3 {
            0 => t.record_event(i, None, Category::Phase, || format!("phase {i}")),
            1 => t.record_event(i, Some(1), Category::TcpRetransmit, || Detail::TcpRetransmit {
                conn: i,
                seq: 1,
            }),
            _ => t.record_event(i, Some(2), Category::TcpRetransmit, || Detail::TcpRetransmit {
                conn: 1,
                seq: i,
            }),
        };
        let before = renders();
        (0..30).for_each(|i| record(&t, i));
        assert_eq!(renders(), before, "recording without a sink renders nothing");
        let fork = t.deep_fork();
        assert_eq!(renders(), before, "nor does forking the ring");

        let doc = t.recorder_json().expect("recording");
        assert_eq!(renders(), before + 8, "to_json renders the retained window, once");
        assert_eq!(t.recorded_events().len(), 8);
        assert_eq!(renders(), before + 16);
        assert_eq!(FlightRecorder::events_from_json(&doc).expect("parse"), fork.recorded_events());

        // A sink reads every sentence, once, and the ring keeps that string.
        let before = renders();
        t.set_event_sink(|_| {});
        (30..36).for_each(|i| record(&t, i));
        assert_eq!(renders(), before + 6);
        t.recorder_json().expect("recording");
        assert_eq!(renders(), before + 6 + 8, "a stored string is copied out, not kept out");
    }

    #[test]
    fn deep_fork_drops_the_sink_but_clones_share_it() {
        let cfg = TelemetryConfig { record: true, ..TelemetryConfig::default() };
        let t = Telemetry::from_config(&cfg);
        let count = Rc::new(RefCell::new(0u32));
        let tap = Rc::clone(&count);
        t.set_event_sink(move |_| *tap.borrow_mut() += 1);

        // A plain clone shares the collectors, sink included.
        t.clone().record_event(1, None, Category::Phase, || "via clone".to_string());
        assert_eq!(*count.borrow(), 1);

        // A fork gets its own collectors and no sink.
        let fork = t.deep_fork();
        fork.record_event(2, None, Category::Phase, || "via fork".to_string());
        assert_eq!(*count.borrow(), 1, "forked events must not reach the sink");
        assert_eq!(fork.events_recorded(), 2, "fork keeps the parent's counter");

        // A disabled handle ignores sink attachment entirely.
        let off = Telemetry::disabled();
        off.set_event_sink(|_| panic!("must never fire"));
        off.record_event(3, None, Category::Phase, || -> String { panic!("disabled") });
    }

    #[test]
    fn config_validation() {
        let bad = TelemetryConfig {
            metrics_interval: Some(Duration::ZERO),
            ..TelemetryConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(TelemetryConfig::default().validate().is_ok());
    }
}
