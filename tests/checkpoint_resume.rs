//! Checkpoint/restore equivalence: checkpoint-at-T-then-resume must
//! produce flight-recorder, capture and metrics documents byte-identical
//! to the uninterrupted run's whole documents — across every fabric shape
//! and under fault injection — and the snapshot format must be
//! byte-stable and fail loudly (never panic) on corrupted input.

use ddosim::{AttackSpec, Checkpoint, Ddosim, SimulationConfig, TelemetryConfig, TopologyKind};
use proptest::prelude::*;
use std::time::Duration;

/// When the snapshot is taken: mid-attack, so the checkpoint carries
/// in-flight floods, live C&C connections, and armed timers.
const CHECKPOINT_AT: Duration = Duration::from_secs(30);

/// Every collector on, so all three output documents are compared.
fn recording() -> TelemetryConfig {
    TelemetryConfig {
        record: true,
        capture: true,
        metrics_interval: Some(Duration::from_secs(1)),
        ..TelemetryConfig::default()
    }
}

fn base(seed: u64, topology: TopologyKind) -> SimulationConfig {
    SimulationConfig {
        devs: 8,
        attack: AttackSpec::udp_plain(Duration::from_secs(10)),
        attack_at: Duration::from_secs(25),
        sim_time: Duration::from_secs(45),
        attack_ramp: Duration::from_secs(3),
        seed,
        topology,
        telemetry: recording(),
        ..SimulationConfig::default()
    }
}

/// The recorder, capture and metrics documents of a finished run.
fn documents(handle: &ddosim::Telemetry) -> [String; 3] {
    [
        handle.recorder_json().expect("recording"),
        handle.capture_json().expect("capturing"),
        handle.metrics_json().expect("sampling"),
    ]
    .map(|doc| doc.to_string_compact())
}

/// Runs straight through with a checkpoint armed at `at`; returns the
/// run's documents and the snapshot.
fn run_with_checkpoint(config: SimulationConfig, at: Duration) -> ([String; 3], Checkpoint) {
    let mut instance = Ddosim::new(config).expect("valid configuration");
    instance.set_checkpoint_at(at);
    let handle = instance.telemetry().clone();
    let (_, saved) = instance.try_run_to_completion().expect("run succeeds");
    (documents(&handle), saved.expect("checkpoint was armed"))
}

/// Resumes from `cp` and returns the resumed run's documents (and any
/// re-saved checkpoint).
fn run_resumed(
    cp: Checkpoint,
    re_checkpoint_at: Option<Duration>,
) -> ([String; 3], Option<Checkpoint>) {
    let mut instance = Ddosim::resume_from(cp).expect("checkpoint verifies");
    if let Some(at) = re_checkpoint_at {
        instance.set_checkpoint_at(at);
    }
    let handle = instance.telemetry().clone();
    let (_, saved) = instance.try_run_to_completion().expect("resume succeeds");
    (documents(&handle), saved)
}

/// Returns the recorder count at the snapshot.
fn assert_resume_equals_straight_through(config: SimulationConfig) -> u64 {
    let (straight, cp) = run_with_checkpoint(config, CHECKPOINT_AT);
    let recorded_at_snapshot = cp.events_recorded;
    assert!(recorded_at_snapshot > 0, "nothing recorded before the snapshot");
    let (resumed, _) = run_resumed(cp, None);
    for (what, (a, b)) in ["trace", "capture", "metrics"].iter().zip(straight.iter().zip(&resumed)) {
        assert!(a == b, "resumed {what} differs from the straight-through run's");
    }
    recorded_at_snapshot
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
    let plan = ddosim::FaultPlan::parse_plan(plan).expect("valid plan");
    assert_resume_equals_straight_through(SimulationConfig {
        faults: plan,
        ..base(42, TopologyKind::Star)
    });
}

/// A ring small enough to wrap long before T: the resumed ring must hold
/// the same window, not just the same tail.
#[test]
fn resume_is_byte_identical_when_the_recorder_ring_wraps_before_the_snapshot() {
    let telemetry = TelemetryConfig { recorder_capacity: 64, ..recording() };
    let recorded_at_snapshot = assert_resume_equals_straight_through(SimulationConfig {
        telemetry,
        ..base(42, TopologyKind::Star)
    });
    assert!(recorded_at_snapshot > 64, "ring did not wrap before the snapshot");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// save → restore → save at the same instant is byte-stable: the
    /// re-saved checkpoint renders identically to the original, phase
    /// boundaries (25 s, 35 s) included.
    #[test]
    fn save_restore_save_is_byte_stable(seed in 0u64..1000, at_secs in 25u64..40) {
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
    let wrong_schema = text.replace(ddosim::CHECKPOINT_SCHEMA, "ddosim.checkpoint/9");
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
    let err = Ddosim::resume_from(cp).expect_err("tampered digest accepted");
    assert!(
        err.contains("netsim.tcp"),
        "divergence error does not name the layer: {err}"
    );
}

#[test]
fn tampered_recorder_count_is_rejected() {
    let (_, mut cp) = run_with_checkpoint(base(42, TopologyKind::Star), CHECKPOINT_AT);
    cp.events_recorded += 1;
    let err = Ddosim::resume_from(cp).expect_err("tampered recorder count accepted");
    assert!(
        err.contains("flight-recorder events"),
        "divergence error does not name the recorder count: {err}"
    );
}

/// A checkpoint armed behind the world's clock can never be taken — on a
/// resumed world or any other world already past it.
#[test]
fn checkpoint_before_the_resume_point_is_rejected() {
    let (_, cp) = run_with_checkpoint(base(42, TopologyKind::Star), CHECKPOINT_AT);
    let mut resumed = Ddosim::resume_from(cp).expect("checkpoint verifies");
    resumed.set_checkpoint_at(Duration::from_secs(10));
    let mut parent = Ddosim::new(base(42, TopologyKind::Star)).expect("valid configuration");
    parent.run_prefix(Duration::from_secs(28)).expect("prefix runs");
    let mut fork = parent.fork().expect("world forks");
    fork.set_checkpoint_at(Duration::from_secs(10));
    for (world, now) in [(resumed, "30.000s"), (fork, "28.000s")] {
        let err = world
            .try_run_to_completion()
            .expect_err("checkpoint in the past accepted");
        assert!(
            err.contains("checkpoint time 10.000s is already in the past")
                && err.contains(now),
            "error does not name both times: {err}"
        );
    }
}
