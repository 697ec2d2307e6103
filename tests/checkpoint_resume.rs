//! Checkpoint/restore equivalence: checkpoint-at-T-then-resume must
//! produce a flight-recorder trace byte-identical to the uninterrupted
//! run's trace from T onward — across every fabric shape and under fault
//! injection — and the snapshot format must be byte-stable and fail
//! loudly (never panic) on corrupted input.

use ddosim::{AttackSpec, Checkpoint, SimulationBuilder, TelemetryConfig, TopologyKind};
use proptest::prelude::*;
use std::time::Duration;

/// When the snapshot is taken: mid-attack, so the checkpoint carries
/// in-flight floods, live C&C connections, and armed timers.
const CHECKPOINT_AT: Duration = Duration::from_secs(30);

fn recording() -> TelemetryConfig {
    TelemetryConfig {
        record: true,
        ..TelemetryConfig::default()
    }
}

fn base(seed: u64, topology: TopologyKind) -> SimulationBuilder {
    SimulationBuilder::new()
        .devs(8)
        .attack(AttackSpec::udp_plain(Duration::from_secs(10)))
        .attack_at(Duration::from_secs(25))
        .sim_time(Duration::from_secs(45))
        .attack_ramp(Duration::from_secs(3))
        .seed(seed)
        .topology(topology)
        .telemetry(recording())
}

/// Runs straight through with a checkpoint armed at `at`; returns the
/// full trace and the snapshot.
fn run_with_checkpoint(builder: SimulationBuilder, at: Duration) -> (String, Checkpoint) {
    let instance = builder.checkpoint_at(at).build().expect("valid configuration");
    let handle = instance.telemetry().clone();
    let (_, saved) = instance.try_run_to_completion().expect("run succeeds");
    let trace = handle.recorder_json().expect("recording").to_string_compact();
    (trace, saved.expect("checkpoint was armed"))
}

/// Resumes from `cp` and returns the continuation's trace (and any
/// re-saved checkpoint).
fn run_resumed(cp: Checkpoint, re_checkpoint_at: Option<Duration>) -> (String, Option<Checkpoint>) {
    let mut builder = SimulationBuilder::new().resume_from(cp);
    if let Some(at) = re_checkpoint_at {
        builder = builder.checkpoint_at(at);
    }
    let instance = builder.build().expect("checkpoint config is valid");
    let handle = instance.telemetry().clone();
    let (_, saved) = instance.try_run_to_completion().expect("resume succeeds");
    let trace = handle.recorder_json().expect("recording").to_string_compact();
    (trace, saved)
}

/// The straight-through trace restricted to events recorded at or after
/// the snapshot (what `ddosim trace suffix` computes).
fn suffix(trace: &str, cp: &Checkpoint) -> String {
    let mut doc = djson::Json::parse(trace).expect("trace parses");
    let djson::Json::Obj(members) = &mut doc else {
        panic!("trace is not an object")
    };
    let (_, events) = members
        .iter_mut()
        .find(|(k, _)| k == "events")
        .expect("events array");
    let djson::Json::Arr(list) = events else {
        panic!("events is not an array")
    };
    list.retain(|e| {
        e.get("seq")
            .and_then(djson::Json::as_u64)
            .is_some_and(|seq| seq >= cp.events_recorded)
    });
    doc.to_string_compact()
}

fn assert_resume_equals_straight_through(builder: SimulationBuilder) {
    let (straight, cp) = run_with_checkpoint(builder, CHECKPOINT_AT);
    assert!(cp.events_recorded > 0, "nothing recorded before the snapshot");
    let expected = suffix(&straight, &cp);
    let (resumed, _) = run_resumed(cp, None);
    assert_eq!(
        expected, resumed,
        "resumed trace differs from the straight-through run's suffix"
    );
    // And the events the resumed run did record are genuinely post-T.
    assert_ne!(expected, straight, "suffix filtered nothing");
}

#[test]
fn star_resume_is_byte_identical_from_the_snapshot_on() {
    assert_resume_equals_straight_through(base(42, TopologyKind::Star));
}

#[test]
fn wifi_resume_is_byte_identical_from_the_snapshot_on() {
    assert_resume_equals_straight_through(base(42, TopologyKind::Wifi));
}

#[test]
fn tiered_resume_is_byte_identical_from_the_snapshot_on() {
    assert_resume_equals_straight_through(base(
        42,
        TopologyKind::Tiered {
            regions: 3,
            region_uplink_bps: 10_000_000,
        },
    ));
}

#[test]
fn fault_plan_resume_is_byte_identical_from_the_snapshot_on() {
    let plan = r#"{"schema":"ddosim.faults.plan/1","seed":9,"faults":[
        {"at_secs":10,"kind":"link_down","node":"dev-3"},
        {"at_secs":20,"kind":"link_up","node":"dev-3"},
        {"at_secs":28,"kind":"node_crash","node":"dev-5"},
        {"at_secs":35,"kind":"node_restore","node":"dev-5"}]}"#;
    let plan = ddosim::FaultPlan::parse_str(plan).expect("valid plan");
    assert_resume_equals_straight_through(base(42, TopologyKind::Star).faults(plan));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// save → restore → save at the same instant is byte-stable: the
    /// re-saved checkpoint renders identically to the original (verify
    /// runs before save, so the spliced recorder count and the digests
    /// match exactly).
    #[test]
    fn save_restore_save_is_byte_stable(seed in 0u64..1000, at_secs in 26u64..40) {
        let at = Duration::from_secs(at_secs);
        let (_, cp) = run_with_checkpoint(base(seed, TopologyKind::Star), at);
        let original = cp.to_string_pretty();
        let (_, resaved) = run_resumed(cp, Some(at));
        let resaved = resaved.expect("re-checkpoint was armed").to_string_pretty();
        prop_assert_eq!(original, resaved);
    }
}

#[test]
fn corrupted_checkpoint_fails_with_a_clear_error() {
    let (_, cp) = run_with_checkpoint(base(42, TopologyKind::Star), CHECKPOINT_AT);
    let text = cp.to_string_pretty();

    let parse_err = |text: &str, why: &str| Checkpoint::parse(text).expect_err(why).to_string();

    // Truncated file (half the bytes): parse error, not a panic.
    let truncated = &text[..text.len() / 2];
    let err = parse_err(truncated, "truncated input accepted");
    assert!(err.contains("JSON"), "unhelpful truncation error: {err}");

    // Arbitrary corruption of the schema tag.
    let wrong_schema = text.replace("ddosim.checkpoint/1", "ddosim.checkpoint/9");
    let err = parse_err(&wrong_schema, "wrong schema accepted");
    assert!(err.contains("schema"), "unhelpful schema error: {err}");

    // A renamed field: the strict parser reports the unknown name (and a
    // field deleted outright is reported as missing — either way the
    // message points at the offending key).
    let no_count = text.replace("\"events_recorded\"", "\"events\"");
    let err = parse_err(&no_count, "renamed field accepted");
    assert!(err.contains("events"), "unhelpful field error: {err}");

    // Not JSON at all.
    let err = parse_err("not json", "garbage accepted");
    assert!(err.contains("JSON"), "unhelpful garbage error: {err}");
}

#[test]
fn tampered_digest_is_rejected_naming_the_layer() {
    let (_, mut cp) = run_with_checkpoint(base(42, TopologyKind::Star), CHECKPOINT_AT);
    let tcp = cp
        .digests
        .iter_mut()
        .find(|(layer, _)| layer == "netsim.tcp")
        .expect("tcp layer digested");
    tcp.1 ^= 1;
    let instance = SimulationBuilder::new()
        .resume_from(cp)
        .build()
        .expect("config itself is valid");
    let err = instance
        .try_run_to_completion()
        .expect_err("tampered digest accepted");
    assert!(
        err.contains("netsim.tcp"),
        "divergence error does not name the layer: {err}"
    );
}

#[test]
fn checkpoint_before_the_resume_point_is_rejected() {
    let (_, cp) = run_with_checkpoint(base(42, TopologyKind::Star), CHECKPOINT_AT);
    let instance = SimulationBuilder::new()
        .resume_from(cp)
        .checkpoint_at(Duration::from_secs(10))
        .build()
        .expect("config itself is valid");
    let err = instance
        .try_run_to_completion()
        .expect_err("pre-resume checkpoint accepted");
    assert!(
        err.contains("resume"),
        "error does not explain the ordering constraint: {err}"
    );
}
