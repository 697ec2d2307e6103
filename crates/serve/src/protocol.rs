//! The `ddosim.serve/1` wire protocol.
//!
//! Requests and frames are single-line JSON documents. A client sends
//! one request per line:
//!
//! ```json
//! {"schema":"ddosim.serve/1","action":"submit","scenario":{...},"record":true}
//! {"schema":"ddosim.serve/1","action":"submit","config":{...},"metrics_interval_secs":2.0}
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
//! Parsing is strict in the same spirit as every other schema in this
//! workspace: the version is pinned, unknown fields are rejected, and
//! exactly one of `scenario` / `config` must own the world.

use ddosim_core::checkpoint::config_from_json;
use ddosim_core::{Ddosim, SimulationConfig, TelemetryConfig};
use djson::{Json, PlanError, Val};
use scenario::ScenarioPlan;
use std::time::Duration;
use telemetry::Event;

/// Pinned schema tag carried by every request and every frame.
pub const SERVE_SCHEMA: &str = "ddosim.serve/1";

/// What a submitted job runs: a declarative scenario plan (the
/// `--scenario` path) or a fully resolved simulation configuration (the
/// checkpoint-style embedded-config path).
#[derive(Debug)]
pub enum JobSpec {
    /// A strict `ddosim.scenario/1` plan; the plan owns the world.
    Scenario(ScenarioPlan),
    /// A resolved configuration document (`config_to_json` shape).
    Config(SimulationConfig),
}

impl JobSpec {
    /// Builds the world this spec owns, with `telemetry` layered on top —
    /// the one call behind `ddosim --scenario`, a suffix plan's embedded
    /// configuration and every `serve` job, which is what makes "serve
    /// builds exactly what offline builds" hold by construction.
    ///
    /// A plan carries no telemetry of its own and takes `telemetry`
    /// whole. An embedded configuration owns its telemetry
    /// (checkpoint-style); `telemetry` can only add to it: the recorder
    /// is ORed in and a metrics interval, when given, replaces the
    /// embedded one.
    ///
    /// # Errors
    ///
    /// Returns a message if the plan or configuration fails validation.
    pub fn build(&self, telemetry: TelemetryConfig) -> Result<Ddosim, String> {
        match self {
            JobSpec::Scenario(plan) => plan.build_with_telemetry(telemetry),
            JobSpec::Config(config) => {
                let mut config = config.clone();
                config.telemetry.record |= telemetry.record;
                if telemetry.metrics_interval.is_some() {
                    config.telemetry.metrics_interval = telemetry.metrics_interval;
                }
                Ddosim::new(config)
            }
        }
    }
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
/// mismatched schema, unknown action or field, both or neither of
/// `scenario`/`config`, or an invalid embedded document.
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
                // Decided before either document is read, so a request
                // with both is told so, not what is wrong with one.
                let spec = match (f.has("scenario"), f.has("config")) {
                    (true, true) => {
                        return Err(PlanError::invalid(
                            DOC,
                            "submit request has both 'scenario' and 'config'; \
                             exactly one must own the world",
                        ))
                    }
                    (true, false) => JobSpec::Scenario(
                        f.req_with("scenario", |v| v.embedded(ScenarioPlan::from_json))?,
                    ),
                    (false, true) => {
                        JobSpec::Config(f.req_with("config", |v| v.embedded(config_from_json))?)
                    }
                    (false, false) => {
                        return Err(PlanError::invalid(
                            DOC,
                            "submit request needs exactly one of 'scenario' or 'config'",
                        ))
                    }
                };
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
        let JobSpec::Scenario(plan) = req.spec else { panic!("expected scenario") };
        assert_eq!(plan.config().devs, 3);
    }

    #[test]
    fn submit_with_config_parses() {
        let config = SimulationConfig { devs: 4, seed: 9, ..SimulationConfig::default() };
        let doc = ddosim_core::checkpoint::config_to_json(&config).to_string_compact();
        let line = format!(
            r#"{{"schema":"ddosim.serve/1","action":"submit","config":{doc},"metrics_interval_secs":2.5}}"#
        );
        let Action::Submit(req) = parse_request(&line).expect("valid") else {
            panic!("expected submit")
        };
        assert_eq!(req.metrics_interval, Some(Duration::from_secs_f64(2.5)));
        let JobSpec::Config(c) = req.spec else { panic!("expected config") };
        assert_eq!((c.devs, c.seed), (4, 9));
    }

    /// `build` layers telemetry the same way for every caller: a plan
    /// takes it whole, an embedded configuration only gains from it.
    #[test]
    fn build_layers_telemetry_per_spec() {
        let asked = TelemetryConfig {
            record: true,
            metrics_interval: Some(Duration::from_secs(2)),
            ..TelemetryConfig::default()
        };
        let plan = ScenarioPlan::parse(&plan_json()).expect("valid plan");
        let world = JobSpec::Scenario(plan).build(asked.clone()).expect("plan builds");
        assert_eq!(world.config().telemetry, asked);

        let mut config = SimulationConfig { devs: 3, ..SimulationConfig::default() };
        config.telemetry.capture = true;
        config.telemetry.metrics_interval = Some(Duration::from_secs(7));
        let spec = JobSpec::Config(config);
        let kept = spec.build(TelemetryConfig::default()).expect("config builds");
        assert!(kept.config().telemetry.capture && !kept.config().telemetry.record);
        assert_eq!(kept.config().telemetry.metrics_interval, Some(Duration::from_secs(7)));
        let layered = spec.build(asked).expect("config builds");
        assert!(layered.config().telemetry.capture && layered.config().telemetry.record);
        assert_eq!(layered.config().telemetry.metrics_interval, Some(Duration::from_secs(2)));
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
                "exactly one of 'scenario' or 'config'",
            ),
            (submit_line(r#","config":{}"#), "both 'scenario' and 'config'"),
            (submit_line(r#","frobnicate":1"#), "unknown field 'frobnicate'"),
            (submit_line(r#","id":"""#), "1..=128 characters"),
            (submit_line(r#","id":"a","id":"b""#), "request.id appears twice"),
            (submit_line(r#","action":"shutdown""#), "request.action appears twice"),
            (
                submit_line("").replace(r#""devs": 3"#, r#""devs": 3, "devs": 7"#),
                "request.scenario: scenario: scenario.world.devs appears twice",
            ),
            (
                format!(
                    r#"{{"schema":"ddosim.serve/1","action":"submit","config":{}}}"#,
                    ddosim_core::checkpoint::config_to_json(&SimulationConfig::default())
                        .to_string_compact()
                        .replace(r#""port":80"#, r#""port":65616"#)
                ),
                "request.config: config: config.attack.port 65616 exceeds 65535",
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
                "config:",
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
