//! The submitting client behind `ddosim submit`.
//!
//! Connects, writes one request line, then consumes the frame stream
//! for that job: counting streamed events and samples, and — for
//! `record` jobs — reassembling the flight-recorder trace so the caller
//! can write a file byte-identical to what `ddosim --scenario --record`
//! writes offline. The reassembly mirrors the ring exactly: the client
//! keeps only the last `recorder_capacity` streamed events (older ones
//! scrolled off the server's ring too) and re-serializes each through
//! the same [`Event`] writer the recorder uses.

use crate::framing::{FrameError, LineReader};
use crate::protocol::{job_id, SERVE_SCHEMA};
use djson::{Json, ToJson};
use std::collections::VecDeque;
use std::io::Write as _;
use std::net::TcpStream;
use telemetry::{Event, RECORDER_SCHEMA};

/// What to submit and how to watch it.
#[derive(Debug, Default)]
pub struct SubmitOptions {
    /// Server address, e.g. `127.0.0.1:47001`.
    pub addr: String,
    /// Scenario plan text (`ddosim.scenario/1`) — the `--scenario` path.
    pub scenario: Option<String>,
    /// Resolved configuration document text — the `--config` path.
    pub config: Option<String>,
    /// Ask the server to drain and stop instead of submitting a job.
    pub shutdown: bool,
    /// Client-chosen job id.
    pub id: Option<String>,
    /// Stream flight-recorder events and reassemble the trace.
    pub record: bool,
    /// Stream time-series samples every this many simulated seconds.
    pub metrics_interval_secs: Option<f64>,
    /// Print every raw frame line to stdout as it arrives (live view).
    pub follow: bool,
}

/// What came back.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The job ran to completion.
    Completed {
        /// The job id frames were demuxed on.
        job: String,
        /// The deterministic `RunResult` row from the final frame.
        result: Json,
        /// The reassembled recorder document (compact + trailing
        /// newline, exactly the offline `--record` file bytes), for
        /// `record` jobs.
        trace: Option<String>,
        /// Flight-recorder events streamed (equals the run's
        /// `events_recorded`).
        events_streamed: u64,
        /// Time-series samples streamed.
        metrics_samples: u64,
    },
    /// The server acknowledged a shutdown request.
    ShutdownAcknowledged,
}

/// Builds the single request line for `opts` (without the newline).
fn build_request(opts: &SubmitOptions) -> Result<String, String> {
    if opts.shutdown {
        return Ok(Json::obj([
            ("schema", Json::Str(SERVE_SCHEMA.into())),
            ("action", Json::Str("shutdown".into())),
        ])
        .to_string_compact());
    }
    let payload = match (&opts.scenario, &opts.config) {
        (Some(_), Some(_)) => {
            return Err("submit exactly one of a scenario or a config, not both".to_owned())
        }
        (None, None) => {
            return Err("nothing to submit: provide a scenario or a config".to_owned())
        }
        (Some(text), None) => (
            "scenario",
            Json::parse(text).map_err(|e| format!("scenario is not valid JSON: {e}"))?,
        ),
        (None, Some(text)) => (
            "config",
            Json::parse(text).map_err(|e| format!("config is not valid JSON: {e}"))?,
        ),
    };
    let mut members = vec![
        ("schema".to_owned(), Json::Str(SERVE_SCHEMA.into())),
        ("action".to_owned(), Json::Str("submit".into())),
        (payload.0.to_owned(), payload.1),
    ];
    if let Some(id) = &opts.id {
        members.push(("id".to_owned(), Json::Str(id.clone())));
    }
    if opts.record {
        members.push(("record".to_owned(), Json::Bool(true)));
    }
    if let Some(secs) = opts.metrics_interval_secs {
        members.push(("metrics_interval_secs".to_owned(), Json::F64(secs)));
    }
    Ok(Json::Obj(members).to_string_compact())
}

/// Submits one request and consumes its frame stream.
///
/// # Errors
///
/// Returns a message on connection failure, an invalid submission, any
/// `error` frame for this job (or a request-level one), or a stream
/// that ends before the job finishes — so a caller turning this into an
/// exit code is nonzero exactly when the server rejected or failed the
/// job.
pub fn submit(opts: &SubmitOptions) -> Result<SubmitOutcome, String> {
    let request = build_request(opts)?;
    let stream = TcpStream::connect(&opts.addr)
        .map_err(|e| format!("connecting to {}: {e}", opts.addr))?;
    let mut write_half = stream.try_clone().map_err(|e| format!("socket clone: {e}"))?;
    write_half
        .write_all(format!("{request}\n").as_bytes())
        .and_then(|()| write_half.flush())
        .map_err(|e| format!("sending request: {e}"))?;

    let mut reader = LineReader::new(stream);
    let mut job: Option<String> = None;
    let mut ring_capacity: Option<usize> = None;
    let mut events: VecDeque<Json> = VecDeque::new();
    let mut events_streamed = 0u64;
    let mut metrics_samples = 0u64;
    loop {
        let line = match reader.next_line() {
            Ok(Some(line)) => line,
            Ok(None) => {
                return Err("connection closed before the job finished".to_owned());
            }
            Err(FrameError::TimedOut) => continue,
            Err(e) => return Err(e.message()),
        };
        if line.trim().is_empty() {
            continue;
        }
        if opts.follow {
            println!("{line}");
        }
        let frame =
            Json::parse(&line).map_err(|e| format!("server sent an invalid frame: {e}"))?;
        let kind = frame
            .get("frame")
            .and_then(Json::as_str)
            .ok_or("server sent a frame without a 'frame' field")?;
        let ours = match (job_id(&frame), &job) {
            (Some(j), Some(mine)) => j == mine,
            // Until `accepted` names our job, every per-job frame on
            // this fresh connection is ours.
            (Some(_), None) => true,
            (None, _) => true,
        };
        match kind {
            "shutdown" => {
                if opts.shutdown {
                    return Ok(SubmitOutcome::ShutdownAcknowledged);
                }
            }
            "error" if ours => {
                let msg = frame
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("server reported an error");
                return Err(msg.to_owned());
            }
            "accepted" if job.is_none() => {
                job = job_id(&frame).map(str::to_owned);
            }
            "started" if ours => {
                ring_capacity = frame
                    .get("recorder_capacity")
                    .and_then(Json::as_u64)
                    .map(|c| c as usize);
            }
            "event" if ours => {
                events_streamed += 1;
                if let Some(event) = frame.get("event") {
                    events.push_back(event.clone());
                    // Mirror the server's ring: keep only the newest
                    // `capacity` events.
                    if let Some(cap) = ring_capacity {
                        while events.len() > cap {
                            events.pop_front();
                        }
                    }
                }
            }
            "metrics" if ours => metrics_samples += 1,
            "result" if ours => {
                let result = frame.get("result").cloned().unwrap_or(Json::Null);
                let total = frame
                    .get("events_recorded")
                    .and_then(Json::as_u64)
                    .unwrap_or(events_streamed);
                let capacity = frame
                    .get("recorder_capacity")
                    .and_then(Json::as_u64)
                    .or(ring_capacity.map(|c| c as u64));
                let trace = if opts.record {
                    Some(assemble_trace(&events, capacity.unwrap_or(0), total)?)
                } else {
                    None
                };
                return Ok(SubmitOutcome::Completed {
                    job: job.unwrap_or_default(),
                    result,
                    trace,
                    events_streamed,
                    metrics_samples,
                });
            }
            // Frames for other jobs on a shared connection, or kinds a
            // newer server might add: ignore.
            _ => {}
        }
    }
}

/// Rebuilds the recorder document from streamed events — the same bytes
/// `FlightRecorder::to_json().to_string_compact() + "\n"` produces
/// offline, because each event re-serializes through the one `Event`
/// writer and djson's writer is deterministic.
fn assemble_trace(events: &VecDeque<Json>, capacity: u64, total: u64) -> Result<String, String> {
    let mut list = Vec::with_capacity(events.len());
    for raw in events {
        let event = Event::from_json(raw)
            .map_err(|e| format!("streamed event does not parse: {e}"))?;
        list.push(event.to_json());
    }
    let doc = Json::obj([
        ("schema", Json::Str(RECORDER_SCHEMA.into())),
        ("capacity", Json::U64(capacity)),
        ("total_recorded", Json::U64(total)),
        ("events", Json::Arr(list)),
    ]);
    Ok(doc.to_string_compact() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip_through_the_server_parser() {
        let plan = r#"{"schema":"ddosim.scenario/1","name":"t",
            "world":{"devs":3,"seed":7,"sim_time_secs":45,"attack_at_secs":25},
            "attack":{"vector":"udpplain","duration_secs":15}}"#;
        let line = build_request(&SubmitOptions {
            scenario: Some(plan.to_owned()),
            record: true,
            id: Some("a1".to_owned()),
            metrics_interval_secs: Some(2.0),
            ..SubmitOptions::default()
        })
        .expect("valid options");
        match crate::protocol::parse_request(&line).expect("server accepts") {
            crate::protocol::Action::Submit(req) => {
                assert_eq!(req.id.as_deref(), Some("a1"));
                assert!(req.record);
                assert!(req.metrics_interval.is_some());
            }
            other => panic!("expected submit, got {other:?}"),
        }

        let line = build_request(&SubmitOptions {
            shutdown: true,
            ..SubmitOptions::default()
        })
        .expect("valid options");
        assert!(matches!(
            crate::protocol::parse_request(&line),
            Ok(crate::protocol::Action::Shutdown)
        ));
    }

    #[test]
    fn nonsense_option_combinations_are_rejected_locally() {
        let both = SubmitOptions {
            scenario: Some("{}".to_owned()),
            config: Some("{}".to_owned()),
            ..SubmitOptions::default()
        };
        assert!(build_request(&both).expect_err("both").contains("not both"));
        assert!(build_request(&SubmitOptions::default())
            .expect_err("neither")
            .contains("nothing to submit"));
        let bad_json = SubmitOptions {
            scenario: Some("{not json".to_owned()),
            ..SubmitOptions::default()
        };
        assert!(build_request(&bad_json).expect_err("syntax").contains("not valid JSON"));
    }

    #[test]
    fn assembled_trace_matches_the_recorder_writer() {
        let mut recorder = telemetry::FlightRecorder::new(2);
        let mut streamed = VecDeque::new();
        for (t, detail) in [(5u64, "a"), (9, "b"), (12, "c")] {
            let mut event = Event {
                time_nanos: t,
                seq: 0,
                node: Some(1),
                category: telemetry::Category::Phase,
                detail: detail.into(),
            };
            event.seq = recorder.record(event.clone());
            streamed.push_back(event.to_json());
            while streamed.len() > 2 {
                streamed.pop_front();
            }
        }
        let offline = recorder.to_json().to_string_compact() + "\n";
        let reassembled = assemble_trace(&streamed, 2, 3).expect("valid events");
        assert_eq!(reassembled, offline);
    }
}
