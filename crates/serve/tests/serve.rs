//! End-to-end tests over a real TCP socket: byte-identity of streamed
//! traces against the offline path, per-job panic isolation, framing
//! abuse (malformed and oversized lines), multi-job demuxing on one
//! connection, and graceful shutdown.

use ddosim_core::TelemetryConfig;
use djson::Json;
use serve::{submit, Server, ServeOptions, SubmitOptions, SubmitOutcome};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

/// A plan small enough to run in well under a second.
const PLAN: &str = r#"{
    "schema": "ddosim.scenario/1",
    "name": "tiny",
    "world": { "devs": 3, "seed": 7, "sim_time_secs": 45, "attack_at_secs": 25 },
    "attack": { "vector": "udpplain", "duration_secs": 15 }
}"#;

fn start_server(workers: usize) -> (SocketAddr, thread::JoinHandle<Result<(), String>>) {
    let server = Server::bind(ServeOptions {
        listen: "127.0.0.1:0".to_owned(),
        idle_timeout: None,
        workers: Some(workers),
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

fn stop_server(addr: SocketAddr, handle: thread::JoinHandle<Result<(), String>>) {
    let outcome = submit(&SubmitOptions {
        addr: addr.to_string(),
        shutdown: true,
        ..SubmitOptions::default()
    })
    .expect("shutdown request");
    assert!(matches!(outcome, SubmitOutcome::ShutdownAcknowledged));
    handle.join().expect("server thread").expect("clean shutdown");
}

/// The offline reference: the exact bytes `ddosim --scenario --record`
/// would write for the same plan.
fn offline_trace(plan: &str) -> String {
    let plan = scenario::ScenarioPlan::parse(plan).expect("valid plan");
    let world = plan
        .build_with_telemetry(TelemetryConfig { record: true, ..TelemetryConfig::default() })
        .expect("valid configuration");
    let tele = world.telemetry().clone();
    let (_result, _cp) = world.try_run_to_completion().expect("run");
    tele.recorder_json().expect("recording").to_string_compact() + "\n"
}

#[test]
fn streamed_trace_is_byte_identical_to_offline() {
    let (addr, handle) = start_server(2);
    let outcome = submit(&SubmitOptions {
        addr: addr.to_string(),
        scenario: Some(PLAN.to_owned()),
        record: true,
        ..SubmitOptions::default()
    })
    .expect("job completes");
    let SubmitOutcome::Completed { trace, result, events_streamed, .. } = outcome else {
        panic!("expected a completed job");
    };
    let trace = trace.expect("record job reassembles a trace");
    assert_eq!(trace, offline_trace(PLAN), "streamed trace must equal offline bytes");
    assert!(events_streamed > 0, "a recorded run streams events");
    assert_eq!(result.get("devs").and_then(Json::as_u64), Some(3));
    assert_eq!(result.get("seed").and_then(Json::as_u64), Some(7));
    stop_server(addr, handle);
}

#[test]
fn metrics_jobs_stream_samples() {
    let (addr, handle) = start_server(1);
    let outcome = submit(&SubmitOptions {
        addr: addr.to_string(),
        scenario: Some(PLAN.to_owned()),
        metrics_interval_secs: Some(5.0),
        ..SubmitOptions::default()
    })
    .expect("job completes");
    let SubmitOutcome::Completed { metrics_samples, events_streamed, trace, .. } = outcome
    else {
        panic!("expected a completed job");
    };
    assert!(metrics_samples > 0, "sampling on means samples stream");
    assert_eq!(events_streamed, 0, "record was off");
    assert!(trace.is_none());
    stop_server(addr, handle);
}

#[test]
fn poisoned_job_reports_an_error_and_the_server_keeps_serving() {
    // tserver_link_bps = 0 passes validation but panics mid-run (the
    // zero-rate tx_delay) — the sweep paths' canonical poison pill.
    let poisoned = r#"{"schema":"ddosim.scenario/1","name":"poisoned",
        "world":{"devs":2,"seed":1,"sim_time_secs":45,"attack_at_secs":25,"tserver_link_bps":0},
        "attack":{"duration_secs":15}}"#;

    let (addr, handle) = start_server(1);
    let err = submit(&SubmitOptions {
        addr: addr.to_string(),
        scenario: Some(poisoned.to_owned()),
        ..SubmitOptions::default()
    })
    .expect_err("a poisoned job must fail");
    assert!(err.contains("panicked"), "got: {err}");
    assert!(err.contains(".rs:"), "panic location missing from: {err}");

    // The worker survived: the very next job on the same single-worker
    // server completes normally.
    let outcome = submit(&SubmitOptions {
        addr: addr.to_string(),
        scenario: Some(PLAN.to_owned()),
        ..SubmitOptions::default()
    })
    .expect("server still serves after a poisoned job");
    assert!(matches!(outcome, SubmitOutcome::Completed { .. }));
    stop_server(addr, handle);
}

#[test]
fn invalid_submissions_are_rejected_without_killing_the_connection() {
    let (addr, handle) = start_server(1);
    // An invalid plan round-trips through the server's strict parser.
    let err = submit(&SubmitOptions {
        addr: addr.to_string(),
        scenario: Some(r#"{"schema":"ddosim.wrong/9"}"#.to_owned()),
        ..SubmitOptions::default()
    })
    .expect_err("bad schema must be rejected");
    assert!(err.contains("scenario"), "got: {err}");
    // A plan whose world member does not fit likewise, naming the member.
    let err = submit(&SubmitOptions {
        addr: addr.to_string(),
        scenario: Some(r#"{"schema":"ddosim.scenario/1","name":"t","attack":{"port":65616}}"#.to_owned()),
        ..SubmitOptions::default()
    })
    .expect_err("an out-of-range port must be rejected");
    assert!(err.contains("scenario.attack.port 65616 exceeds 65535"), "got: {err}");
    stop_server(addr, handle);
}

/// Reads frame lines off a raw socket until `stop` says enough.
fn read_frames(
    stream: TcpStream,
    mut stop: impl FnMut(&[Json]) -> bool,
) -> Vec<Json> {
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = serve::LineReader::new(stream);
    let mut frames = Vec::new();
    loop {
        match reader.next_line() {
            Ok(Some(line)) if line.trim().is_empty() => continue,
            Ok(Some(line)) => {
                frames.push(Json::parse(&line).expect("server sends valid JSON"));
                if stop(&frames) {
                    return frames;
                }
            }
            Ok(None) => panic!("connection closed early; frames so far: {}", frames.len()),
            Err(e) => panic!("read failed: {}", e.message()),
        }
    }
}

fn kind(frame: &Json) -> &str {
    frame.get("frame").and_then(Json::as_str).unwrap_or("?")
}

#[test]
fn malformed_and_oversized_lines_get_error_frames_then_service_resumes() {
    let (addr, handle) = start_server(1);
    let mut stream = TcpStream::connect(addr).expect("connect");
    // 1: not JSON at all. 2: an oversized line (beyond the 4 MiB frame
    // limit). 3: a JSON document that is not a valid request. 4: a
    // submission whose sampling interval overflows a Duration (it used to
    // panic the connection thread, outside any per-job isolation). 5: a
    // real submission — the connection must still work.
    let oversized = "x".repeat(serve::MAX_LINE_BYTES + 16);
    let submit_line = format!(
        r#"{{"schema":"ddosim.serve/1","action":"submit","id":"ok","scenario":{}}}"#,
        PLAN.replace('\n', " ")
    );
    let overflowing = submit_line.replace(r#""id":"ok""#, r#""metrics_interval_secs":1e20"#);
    stream
        .write_all(
            format!(
                "this is not json\n{oversized}\n{{\"schema\":1}}\n{overflowing}\n{submit_line}\n"
            )
            .as_bytes(),
        )
        .and_then(|()| stream.flush())
        .expect("write");

    let frames = read_frames(stream, |frames| {
        frames.iter().any(|f| kind(f) == "result")
    });
    let kinds: Vec<&str> = frames.iter().map(kind).collect();
    assert_eq!(
        kinds[..4],
        ["error", "error", "error", "error"],
        "each bad line answers with an error frame; got {kinds:?}"
    );
    let messages: Vec<&str> = frames[..4]
        .iter()
        .map(|f| f.get("error").and_then(Json::as_str).unwrap_or("?"))
        .collect();
    assert!(
        messages[1].contains("byte frame limit"),
        "the oversized line names the limit; errors: {messages:?}"
    );
    assert!(
        messages[3].contains("metrics_interval_secs"),
        "the overflowing interval names its field; errors: {messages:?}"
    );
    for f in &frames[..4] {
        assert!(f.get("job").expect("error frames carry a job field").is_null());
    }
    // The real submission then runs to completion on the same connection.
    assert!(kinds.contains(&"accepted") && kinds.contains(&"result"));
    assert_eq!(serve::job_id(frames.last().expect("nonempty")), Some("ok"));
    stop_server(addr, handle);
}

/// A request nested 100,000 deep fits the 4 MiB frame limit many times
/// over. Before `djson` capped nesting it overflowed the connection
/// thread's stack, which no `catch_unwind` catches: the process aborted
/// with every job in it.
#[test]
fn a_deeply_nested_line_gets_an_error_frame_and_the_server_keeps_serving() {
    let (addr, handle) = start_server(1);
    let mut hostile = TcpStream::connect(addr).expect("connect");
    for open in ["[", "{\"a\":"] {
        hostile.write_all((open.repeat(100_000) + "\n").as_bytes()).expect("write");
    }
    hostile.flush().expect("flush");
    let frames = read_frames(hostile, |frames| frames.len() == 2);
    for f in &frames {
        let message = f.get("error").and_then(Json::as_str).unwrap_or("?");
        assert_eq!(kind(f), "error", "{f}");
        assert!(message.contains("nested deeper than 128 levels"), "{message}");
        assert!(message.contains("at byte 128") || message.contains("at byte 640"), "{message}");
    }
    // A job submitted afterwards on a second connection runs to its result.
    let outcome = submit(&SubmitOptions {
        addr: addr.to_string(),
        scenario: Some(PLAN.to_owned()),
        ..SubmitOptions::default()
    })
    .expect("the server still serves");
    assert!(matches!(outcome, SubmitOutcome::Completed { .. }), "{outcome:?}");
    stop_server(addr, handle);
}

#[test]
fn two_jobs_on_one_connection_demux_by_job_id() {
    let (addr, handle) = start_server(2);
    let mut stream = TcpStream::connect(addr).expect("connect");
    let line = |id: &str| {
        format!(
            r#"{{"schema":"ddosim.serve/1","action":"submit","id":"{id}","record":true,"scenario":{}}}"#,
            PLAN.replace('\n', " ")
        )
    };
    stream
        .write_all(format!("{}\n{}\n", line("a"), line("b")).as_bytes())
        .and_then(|()| stream.flush())
        .expect("write");

    let frames = read_frames(stream, |frames| {
        frames.iter().filter(|f| kind(f) == "result").count() == 2
    });
    // Both jobs ran concurrently over one socket; demuxing by job id
    // recovers each job's own ordered stream.
    for id in ["a", "b"] {
        let mine: Vec<&Json> =
            frames.iter().filter(|f| serve::job_id(f) == Some(id)).collect();
        let kinds: Vec<&str> = mine.iter().map(|f| kind(f)).collect();
        assert_eq!(kinds.first(), Some(&"accepted"), "job {id}: {kinds:?}");
        assert_eq!(kinds.get(1), Some(&"started"), "job {id}");
        assert_eq!(kinds.last(), Some(&"result"), "job {id}");
        // The demuxed event stream is in ring order: seq strictly
        // ascending from 0.
        let seqs: Vec<u64> = mine
            .iter()
            .filter(|f| kind(f) == "event")
            .filter_map(|f| f.get("event")?.get("seq")?.as_u64())
            .collect();
        assert!(!seqs.is_empty(), "job {id} streamed events");
        assert!(
            seqs.windows(2).all(|w| w[1] == w[0] + 1) && seqs[0] == 0,
            "job {id}: event seqs not contiguous from 0"
        );
    }
    // Same seed, same plan: both jobs' demuxed event payloads are
    // identical — concurrency did not perturb either run.
    let payloads = |id: &str| -> Vec<String> {
        frames
            .iter()
            .filter(|f| serve::job_id(f) == Some(id) && kind(f) == "event")
            .map(|f| f.get("event").expect("event payload").to_string_compact())
            .collect()
    };
    assert_eq!(payloads("a"), payloads("b"));
    stop_server(addr, handle);
}

#[test]
fn idle_timeout_shuts_the_server_down_cleanly() {
    let server = Server::bind(ServeOptions {
        listen: "127.0.0.1:0".to_owned(),
        idle_timeout: Some(Duration::from_millis(200)),
        workers: Some(1),
    })
    .expect("bind");
    let handle = thread::spawn(move || server.run());
    handle
        .join()
        .expect("server thread")
        .expect("idle timeout is a clean exit");
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(16))]
    /// Demuxing is a pure function of the frame stream: ANY interleaving
    /// of two jobs' frames recovers each job's exact per-job sequence.
    #[test]
    fn any_interleaving_demuxes_to_the_same_per_job_sequences(seed in proptest::any::<u64>()) {
        let stream_for = |id: &str| -> Vec<Json> {
            let mut frames = vec![serve::protocol::frame_accepted(id)];
            frames.push(serve::protocol::frame_started(id, Some(8)));
            for i in 0..6u64 {
                let event = telemetry::Event {
                    time_nanos: i * 10,
                    seq: i,
                    node: Some(1),
                    category: telemetry::Category::Phase,
                    detail: format!("{id}:{i}"),
                };
                frames.push(serve::protocol::frame_event(id, &event));
            }
            frames.push(serve::protocol::frame_result(id, Json::Null, 6, Some(8)));
            frames
        };
        let a = stream_for("job-a");
        let b = stream_for("job-b");
        // Interleave by consuming the seed as a bitstream; each per-job
        // relative order is preserved, which is exactly what the
        // server's one-writer-per-connection funnel guarantees.
        let (mut ai, mut bi, mut bits) = (0usize, 0usize, seed);
        let mut wire: Vec<Json> = Vec::with_capacity(a.len() + b.len());
        while ai < a.len() || bi < b.len() {
            let take_a = bi >= b.len() || (ai < a.len() && bits & 1 == 0);
            if take_a {
                wire.push(a[ai].clone());
                ai += 1;
            } else {
                wire.push(b[bi].clone());
                bi += 1;
            }
            bits = bits.rotate_right(1);
        }
        for (id, original) in [("job-a", &a), ("job-b", &b)] {
            let demuxed: Vec<String> = wire
                .iter()
                .filter(|f| serve::job_id(f) == Some(id))
                .map(Json::to_string_compact)
                .collect();
            let expected: Vec<String> =
                original.iter().map(Json::to_string_compact).collect();
            proptest::prop_assert_eq!(demuxed, expected);
        }
    }
}
