//! The `ddosim.serve/1` wire protocol.
//!
//! Requests and frames are single-line JSON documents. A client sends
//! one request per line:
//!
//! ```json
//! {"schema":"ddosim.serve/1","action":"submit","scenario":{...},"record":true}
//! {"schema":"ddosim.serve/1","action":"submit","scenario":{...},"metrics_interval_secs":2.0}
//! {"schema":"ddosim.serve/1","action":"shutdown"}
//! ```
//!
//! The server answers with frames, every one tagged with the schema, a
//! `frame` kind, and (for per-job frames) the job id the client can
//! demux on: `accepted`, `started`, `event` (one per flight-recorder
//! entry, stamped exactly as the ring stored it), `metrics` (one per
//! new time-series sample), `result` (the final deterministic
//! [`RunResult`](ddosim_core::RunResult) row), `error`, and `shutdown`.
//!
//! A job is a `ddosim.scenario/1` plan. A resolved configuration is
//! submitted as a plan without defenses: the plan's `world`, `attack` and
//! `faults` are the world document's members of the same names (DESIGN.md,
//! "Scenario schema"). The other three are not the plan's to spell: it
//! sets `honeypots` and `backup_cncs` only through its `honeypot` and
//! `cnc_takedown` defenses, and the request's `record` and
//! `metrics_interval_secs` set its `telemetry`.
//!
//! Parsing is strict in the same spirit as every other schema in this
//! workspace: the version is pinned and unknown fields are rejected.

use djson::{Json, Val};
use scenario::ScenarioPlan;
use std::time::Duration;
use telemetry::Event;

/// Pinned schema tag carried by every request and every frame.
pub const SERVE_SCHEMA: &str = "ddosim.serve/1";

/// What a submitted job runs: a declarative scenario plan, built by
/// [`ScenarioPlan::build_with_telemetry`] — the call `ddosim --scenario`
/// makes, which is what makes "serve builds exactly what offline builds"
/// hold by construction.
#[derive(Debug)]
pub enum JobSpec {
    /// A strict `ddosim.scenario/1` plan; the plan owns the world.
    Scenario(ScenarioPlan),
}

/// A validated submission.
#[derive(Debug)]
pub struct SubmitRequest {
    /// Client-chosen job id; the server generates `job-<n>` when absent.
    pub id: Option<String>,
    /// What to run.
    pub spec: JobSpec,
    /// Stream flight-recorder events and report the reassemblable trace.
    pub record: bool,
    /// Sample and stream time-series metrics every this much simulated
    /// time.
    pub metrics_interval: Option<Duration>,
}

/// A parsed request line.
#[derive(Debug)]
pub enum Action {
    /// Run a job.
    Submit(SubmitRequest),
    /// Finish in-flight jobs, then stop serving.
    Shutdown,
}

/// Strictly parses one request line.
///
/// # Errors
///
/// Returns a message naming the first problem: bad JSON, missing or
/// mismatched schema, unknown action or field, a missing or invalid
/// `scenario`.
pub fn parse_request(line: &str) -> Result<Action, String> {
    const DOC: &str = "request";
    let json = Json::parse(line).map_err(|e| format!("request is not valid JSON: {e}"))?;
    let action = Val::root(DOC, &json).fields(|f| {
        f.schema(SERVE_SCHEMA)?;
        match f.str("action")? {
            "shutdown" => Ok(Action::Shutdown),
            "submit" => {
                let id = f.opt::<String>("id")?;
                if id.as_ref().is_some_and(|id| id.is_empty() || id.len() > 128) {
                    return Err(f.invalid("id", "must be 1..=128 characters"));
                }
                let record = f.opt("record")?.unwrap_or(false);
                let metrics_interval = f.secs("metrics_interval_secs")?;
                if metrics_interval.is_some_and(|interval| interval.is_zero()) {
                    return Err(f.invalid("metrics_interval_secs", "must be positive"));
                }
                let spec = JobSpec::Scenario(
                    f.req_with("scenario", |v| v.embedded(ScenarioPlan::from_json))?,
                );
                Ok(Action::Submit(SubmitRequest { id, spec, record, metrics_interval }))
            }
            other => Err(f.invalid("action", format_args!("is an unknown action '{other}'"))),
        }
    });
    action.map_err(String::from)
}

/// The job id a frame belongs to, if it is a per-job frame.
pub fn job_id(frame: &Json) -> Option<&str> {
    frame.get("job").and_then(Json::as_str)
}

fn frame(kind: &str, rest: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut members = vec![
        ("schema".to_owned(), Json::Str(SERVE_SCHEMA.into())),
        ("frame".to_owned(), Json::Str(kind.into())),
    ];
    members.extend(rest.into_iter().map(|(k, v)| (k.to_owned(), v)));
    Json::Obj(members)
}

/// `accepted`: the request parsed and the job is queued.
pub fn frame_accepted(job: &str) -> Json {
    frame("accepted", [("job", Json::Str(job.into()))])
}

/// `started`: a worker built the world and is about to run it.
pub fn frame_started(job: &str, recorder_capacity: Option<usize>) -> Json {
    frame(
        "started",
        [
            ("job", Json::Str(job.into())),
            (
                "recorder_capacity",
                recorder_capacity.map(|c| Json::U64(c as u64)).unwrap_or(Json::Null),
            ),
        ],
    )
}

/// `event`: one flight-recorder entry, exactly as the ring stored it.
pub fn frame_event(job: &str, event: &Event) -> Json {
    frame(
        "event",
        [("job", Json::Str(job.into())), ("event", djson::ToJson::to_json(event))],
    )
}

/// `metrics`: one new time-series sample.
pub(crate) fn frame_metrics(job: &str, series: &str, index: usize, interval_nanos: u64, value: f64) -> Json {
    frame(
        "metrics",
        [
            ("job", Json::Str(job.into())),
            ("series", Json::Str(series.into())),
            ("index", Json::U64(index as u64)),
            ("interval_nanos", Json::U64(interval_nanos)),
            ("value", Json::F64(value)),
        ],
    )
}

/// `result`: the job finished; `result` is the deterministic
/// [`RunResult`](ddosim_core::RunResult) row (host timings excluded).
pub fn frame_result(
    job: &str,
    result: Json,
    events_recorded: u64,
    recorder_capacity: Option<usize>,
) -> Json {
    frame(
        "result",
        [
            ("job", Json::Str(job.into())),
            ("result", result),
            ("events_recorded", Json::U64(events_recorded)),
            (
                "recorder_capacity",
                recorder_capacity.map(|c| Json::U64(c as u64)).unwrap_or(Json::Null),
            ),
        ],
    )
}

/// `error`: a request was rejected (`job` null) or a job failed.
pub(crate) fn frame_error(job: Option<&str>, message: &str) -> Json {
    frame(
        "error",
        [
            ("job", job.map(|j| Json::Str(j.into())).unwrap_or(Json::Null)),
            ("error", Json::Str(message.into())),
        ],
    )
}

/// `shutdown`: the server acknowledged a shutdown request.
pub(crate) fn frame_shutdown() -> Json {
    frame("shutdown", [])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal valid scenario document for submission tests.
    fn plan_json() -> String {
        r#"{
            "schema": "ddosim.scenario/1",
            "name": "tiny",
            "world": { "devs": 3, "seed": 7, "sim_time_secs": 45, "attack_at_secs": 25 },
            "attack": { "vector": "udpplain", "duration_secs": 15 }
        }"#
        .to_owned()
    }

    fn submit_line(extra: &str) -> String {
        format!(
            r#"{{"schema":"ddosim.serve/1","action":"submit","scenario":{}{extra}}}"#,
            plan_json().replace('\n', " ")
        )
    }

    #[test]
    fn submit_with_scenario_parses() {
        let action = parse_request(&submit_line(r#","record":true,"id":"a1""#)).expect("valid");
        let Action::Submit(req) = action else { panic!("expected submit") };
        assert_eq!(req.id.as_deref(), Some("a1"));
        assert!(req.record);
        assert!(req.metrics_interval.is_none());
        let JobSpec::Scenario(plan) = req.spec;
        assert_eq!(plan.config().devs, 3);
    }

    /// A resolved configuration is a plan without defenses: its world
    /// document's `world`, `attack` and `faults` members, verbatim.
    #[test]
    fn a_configuration_submits_as_a_plan() {
        let config = ddosim_core::SimulationConfig { devs: 4, seed: 9, ..Default::default() };
        let Json::Obj(members) = ddosim_core::world::to_json(&config) else { panic!("an object") };
        let mut plan = vec![
            ("schema".to_owned(), Json::Str("ddosim.scenario/1".into())),
            ("name".to_owned(), Json::Str("config".into())),
        ];
        plan.extend(members.into_iter().take(3));
        let line = Json::obj([
            ("schema", Json::Str(SERVE_SCHEMA.into())),
            ("action", Json::Str("submit".into())),
            ("scenario", Json::Obj(plan)),
            ("metrics_interval_secs", Json::F64(2.5)),
        ]);
        let Action::Submit(req) = parse_request(&line.to_string_compact()).expect("valid") else {
            panic!("expected submit")
        };
        assert_eq!(req.metrics_interval, Some(Duration::from_secs_f64(2.5)));
        let JobSpec::Scenario(plan) = req.spec;
        let print = |c: &ddosim_core::SimulationConfig| ddosim_core::world::to_json(c).to_string_compact();
        assert_eq!(print(&plan.config()), print(&config));
    }

    /// A plan owns no telemetry: the job's request gives it whole.
    #[test]
    fn a_plan_takes_the_requested_telemetry_whole() {
        use telemetry::TelemetryConfig;
        let asked = TelemetryConfig {
            record: true,
            metrics_interval: Some(Duration::from_secs(2)),
            ..TelemetryConfig::default()
        };
        let plan = ScenarioPlan::parse(&plan_json()).expect("valid plan");
        let world = plan.build_with_telemetry(asked.clone()).expect("plan builds");
        assert_eq!(world.config().telemetry, asked);
    }

    #[test]
    fn shutdown_parses_and_rejects_extras() {
        assert!(matches!(
            parse_request(r#"{"schema":"ddosim.serve/1","action":"shutdown"}"#),
            Ok(Action::Shutdown)
        ));
        let err = parse_request(r#"{"schema":"ddosim.serve/1","action":"shutdown","id":"x"}"#)
            .expect_err("extra field");
        assert!(err.contains("unknown field 'id' in request"), "got: {err}");
    }

    /// Table of invalid request lines with the fragment each error must
    /// contain.
    #[test]
    fn invalid_requests_are_rejected_with_context() {
        let table: &[(String, &str)] = &[
            ("not json".into(), "not valid JSON"),
            ("[1,2]".into(), "request must be an object"),
            (r#"{"action":"submit"}"#.into(), "request missing 'schema'"),
            (
                r#"{"schema":"ddosim.serve/2","action":"submit"}"#.into(),
                "unsupported request schema",
            ),
            (r#"{"schema":"ddosim.serve/1"}"#.into(), "request is missing 'action'"),
            (r#"{"schema":"ddosim.serve/1","action":"dance"}"#.into(), "unknown action"),
            (
                r#"{"schema":"ddosim.serve/1","action":"submit"}"#.into(),
                "request is missing 'scenario'",
            ),
            (submit_line(r#","config":{}"#), "unknown field 'config' in request"),
            (submit_line(r#","frobnicate":1"#), "unknown field 'frobnicate'"),
            (submit_line(r#","id":"""#), "1..=128 characters"),
            (submit_line(r#","id":"a","id":"b""#), "request.id appears twice"),
            (submit_line(r#","action":"shutdown""#), "request.action appears twice"),
            (
                submit_line("").replace(r#""devs": 3"#, r#""devs": 3, "devs": 7"#),
                "request.scenario: scenario: scenario.world.devs appears twice",
            ),
            (
                submit_line("").replace(r#""duration_secs": 15"#, r#""duration_secs": 15, "port": 65616"#),
                "request.scenario: scenario: scenario.attack.port 65616 exceeds 65535",
            ),
            (format!("{}0{}", "[".repeat(100_000), "]".repeat(100_000)), "nested deeper than 128 levels"),
            (submit_line(r#","record":"yes""#), "request.record must be a boolean"),
            (submit_line(r#","metrics_interval_secs":0"#), "request.metrics_interval_secs must be positive"),
            (submit_line(r#","metrics_interval_secs":1e-12"#), "request.metrics_interval_secs must be positive"),
            (
                submit_line(r#","metrics_interval_secs":1e20"#),
                "request.metrics_interval_secs must be a non-negative number of seconds",
            ),
            (submit_line(r#","metrics_interval_secs":"soon""#), "request.metrics_interval_secs must be a number"),
            (
                r#"{"schema":"ddosim.serve/1","action":"submit","scenario":{"schema":"nope"}}"#
                    .into(),
                "scenario:",
            ),
            (
                r#"{"schema":"ddosim.serve/1","action":"submit","config":{"devs":3}}"#.into(),
                "request is missing 'scenario'",
            ),
        ];
        for (line, fragment) in table {
            match parse_request(line) {
                Err(msg) => assert!(
                    msg.contains(fragment),
                    "line {line:?}: error {msg:?} does not mention {fragment:?}"
                ),
                Ok(_) => panic!("line {line:?} unexpectedly accepted"),
            }
        }
    }

    #[test]
    fn frames_carry_the_job_id_for_demuxing() {
        let ev = Event {
            time_nanos: 5,
            seq: 0,
            node: Some(1),
            category: telemetry::Category::Phase,
            detail: "init".into(),
        };
        for f in [
            frame_accepted("j1"),
            frame_started("j1", Some(8)),
            frame_event("j1", &ev),
            frame_metrics("j1", "bots", 0, 1_000_000_000, 2.0),
            frame_result("j1", Json::Null, 3, None),
            frame_error(Some("j1"), "boom"),
        ] {
            assert_eq!(job_id(&f), Some("j1"), "frame {}", f.to_string_compact());
            assert_eq!(f.get("schema").and_then(Json::as_str), Some(SERVE_SCHEMA));
        }
        assert_eq!(job_id(&frame_error(None, "bad request")), None);
        assert_eq!(job_id(&frame_shutdown()), None);
        // A frame line round-trips through the parser with the embedded
        // event intact (what the client relies on to rebuild the trace).
        let line = frame_event("j1", &ev).to_string_compact();
        let back = Json::parse(&line).expect("frame is valid JSON");
        let event = back.get("event").expect("event payload");
        let back_ev = Event::from_json(event).expect("event parses");
        assert_eq!(back_ev, ev);
    }
}
