//! Fork equivalence: an in-memory fork taken at T with fork seed 0 must
//! produce a flight-recorder trace and a packet capture byte-identical to
//! the straight-through run's — across every fabric shape and under fault
//! injection. Distinct fork seeds must share the 0→T prefix and diverge
//! after it (a reseed moves packets, which only the capture sees), equal
//! seeds must be byte-identical to each other, and checkpointing a fork
//! must yield the very checkpoint the straight-through run saves.

use ddosim::{
    AttackSpec, Ddosim, SimulationBuilder, SuffixSpec, Telemetry, TelemetryConfig, TopologyKind,
};
use proptest::prelude::*;
use std::time::Duration;

/// When the world is forked: mid-attack, so the clone carries in-flight
/// floods, live C&C connections, and armed timers.
const FORK_AT: Duration = Duration::from_secs(30);

fn collecting() -> TelemetryConfig {
    TelemetryConfig {
        record: true,
        capture: true,
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
        .telemetry(collecting())
}

/// A world's flight-recorder trace and packet capture, compact.
#[derive(Debug, PartialEq)]
struct Docs {
    trace: String,
    capture: String,
}

fn docs(handle: &Telemetry) -> Docs {
    Docs {
        trace: handle.recorder_json().expect("recording").to_string_compact(),
        capture: handle.capture_json().expect("capturing").to_string_compact(),
    }
}

/// Runs `world` to completion and returns its documents.
fn finish(world: Ddosim) -> Docs {
    let handle = world.telemetry().clone();
    world.try_run_to_completion().expect("run succeeds");
    docs(&handle)
}

/// The uninterrupted run's full documents.
fn straight_docs(builder: SimulationBuilder) -> Docs {
    finish(builder.build().expect("valid configuration"))
}

/// Runs the prefix to `at`, forks with `fork_seed`, runs the fork to the
/// horizon, and returns its full documents (prefix included — a fork
/// inherits the parent's collectors).
fn forked_docs(builder: SimulationBuilder, at: Duration, fork_seed: u64) -> Docs {
    let mut parent = builder.build().expect("valid configuration");
    parent.run_prefix(at).expect("prefix runs");
    finish(parent.fork_with_seed(fork_seed).expect("world forks"))
}

/// One compact string per entry of a document's `key` array (`events` of
/// a trace, `records` of a capture), for prefix comparisons.
fn entries(doc: &str, key: &str) -> Vec<String> {
    let doc = djson::Json::parse(doc).expect("document parses");
    doc.get(key)
        .and_then(djson::Json::as_array)
        .expect("entry array")
        .iter()
        .map(djson::Json::to_string_compact)
        .collect()
}

fn assert_fork_equals_straight_through(make: impl Fn() -> SimulationBuilder) {
    let straight = straight_docs(make());
    let forked = forked_docs(make(), FORK_AT, 0);
    assert_eq!(straight, forked, "seed-0 fork differs from the straight-through run");
}

#[test]
fn star_fork_is_byte_identical_to_straight_through() {
    assert_fork_equals_straight_through(|| base(42, TopologyKind::Star));
}

#[test]
fn wifi_fork_is_byte_identical_to_straight_through() {
    assert_fork_equals_straight_through(|| base(42, TopologyKind::Wifi));
}

#[test]
fn tiered_fork_is_byte_identical_to_straight_through() {
    assert_fork_equals_straight_through(|| {
        base(
            42,
            TopologyKind::Tiered {
                regions: 3,
                region_uplink_bps: 10_000_000,
            },
        )
    });
}

#[test]
fn fault_plan_fork_is_byte_identical_to_straight_through() {
    let plan = r#"{"schema":"ddosim.faults.plan/1","seed":9,"faults":[
        {"at_secs":10,"kind":"link_down","node":"dev-3"},
        {"at_secs":20,"kind":"link_up","node":"dev-3"},
        {"at_secs":28,"kind":"node_crash","node":"dev-5"},
        {"at_secs":35,"kind":"node_restore","node":"dev-5"}]}"#;
    let plan = ddosim::FaultPlan::parse_plan(plan).expect("valid plan");
    assert_fork_equals_straight_through(|| base(42, TopologyKind::Star).faults(plan.clone()));
}

/// The worker-pool path must preserve equivalence too: an identity suffix
/// fanned out through `run_suffixes_streamed` returns the straight-through
/// trace and capture, while a reseeded sibling in the same sweep diverges.
#[test]
fn suffix_sweep_identity_trace_is_byte_identical_to_straight_through() {
    let straight = straight_docs(base(42, TopologyKind::Star));
    let mut parent = base(42, TopologyKind::Star).build().expect("valid configuration");
    parent.run_prefix(FORK_AT).expect("prefix runs");
    let mut diverged = SuffixSpec::identity("diverged");
    diverged.fork_seed = 7;
    let rows = ddosim::run_suffixes_streamed(
        &parent,
        &[SuffixSpec::identity("baseline"), diverged],
        |_, _| {},
    );
    let row = |i: usize| {
        let row = rows[i].as_ref().expect("suffix runs");
        Docs {
            trace: row.trace.as_ref().expect("recording").to_string_compact(),
            capture: row.capture.as_ref().expect("capturing").to_string_compact(),
        }
    };
    assert_eq!(straight, row(0), "identity suffix diverged from the parent's future");
    assert_ne!(straight.capture, row(1).capture, "reseeded suffix failed to diverge");
}

/// A resumed world is an ordinary live world: forked past its snapshot it
/// yields the fork the straight-through world yields, reseeded or not.
#[test]
fn fork_of_a_resumed_world_equals_fork_of_the_straight_through_world() {
    let mut straight = base(42, TopologyKind::Star).build().expect("valid configuration");
    straight.set_checkpoint_at(Duration::from_secs(28));
    let (_, saved) = straight.try_run_to_completion().expect("run succeeds");
    let mut resumed =
        Ddosim::resume_from(saved.expect("checkpoint was armed")).expect("checkpoint verifies");
    resumed.run_prefix(FORK_AT).expect("resumed world runs on");
    for fork_seed in [0, 7] {
        let fork = resumed.fork_with_seed(fork_seed).expect("resumed world forks");
        assert_eq!(
            finish(fork),
            forked_docs(base(42, TopologyKind::Star), FORK_AT, fork_seed),
            "fork (seed {fork_seed}) of a resumed world differs from the straight-through fork"
        );
    }
}

/// A five-figure world built on the struct-of-arrays arena and flyweight
/// firmware: forking it must reproduce every layer digest exactly
/// (`fork_with_seed` itself re-verifies layer by layer and errors on the
/// first mismatch), and the fork must remain independently runnable.
#[test]
fn ten_thousand_device_fork_is_digest_identical_to_parent() {
    let mut parent = SimulationBuilder::new()
        .devs(10_000)
        .attack(AttackSpec::udp_plain(Duration::from_secs(10)))
        .attack_at(Duration::from_secs(40))
        .sim_time(Duration::from_secs(60))
        .seed(1234)
        .build()
        .expect("valid configuration");
    parent.run_prefix(Duration::from_secs(1)).expect("prefix runs");
    let fork = parent.fork_with_seed(0).expect("world forks");
    assert_eq!(
        parent.state_digests(),
        fork.state_digests(),
        "10k-device fork diverged from its parent"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Pausing a world at an arbitrary mark — before the attack (25 s),
    /// inside its window or in the drain — and sampling its digests there,
    /// which must be a pure read, then running on to the horizon must land
    /// on exactly the layer digests, result, trace (its four phase marks
    /// included) and capture of an uninterrupted run of the same world.
    /// This pins the struct-of-arrays arena's digest order to the
    /// simulation's observable state, not to construction history, and the
    /// phase walk's measurements to the boundaries, not to where a caller
    /// paused.
    #[test]
    fn paused_run_digests_equal_straight_rebuild(seed in 0u64..1000, mark in 5u64..44) {
        let to_horizon = |mut world: Ddosim| {
            world.run_prefix(Duration::from_secs(45)).expect("run reaches the horizon");
            let digests = world.state_digests();
            let handle = world.telemetry().clone();
            let result = world.run_to_completion().to_deterministic_json().to_string_compact();
            (digests, result, docs(&handle))
        };
        let straight = base(seed, TopologyKind::Star).build().expect("valid configuration");

        let mut paused = base(seed, TopologyKind::Star).build().expect("valid configuration");
        paused.run_prefix(Duration::from_secs(mark)).expect("prefix runs");
        let _probe = paused.state_digests();

        let (straight, paused) = (to_horizon(straight), to_horizon(paused));
        prop_assert_eq!(straight.0, paused.0, "digests depend on where the run paused");
        prop_assert_eq!(straight.1, paused.1, "the result depends on where the run paused");
        prop_assert_eq!(straight.2, paused.2, "the documents depend on where the run paused");
    }

    /// Random fork points and seeds: equal fork seeds are byte-identical
    /// to each other; distinct seeds share the 0→T event prefix exactly
    /// and diverge somewhere after it.
    #[test]
    fn fork_seeds_decorrelate_futures_but_share_the_prefix(
        seed in 0u64..1000,
        t_secs in 26u64..34,
        fork_seed in 1u64..10_000,
    ) {
        let at = Duration::from_secs(t_secs);
        let mut parent = base(seed, TopologyKind::Star).build().expect("valid configuration");
        parent.run_prefix(at).expect("prefix runs");
        let prefix = docs(parent.telemetry());
        let run = |fork_seed: u64| finish(parent.fork_with_seed(fork_seed).expect("world forks"));
        let baseline = run(0);
        let reseeded = run(fork_seed);
        let reseeded_again = run(fork_seed);

        prop_assert_eq!(&reseeded, &reseeded_again, "equal fork seeds must be byte-identical");
        prop_assert!(
            baseline.capture != reseeded.capture,
            "distinct fork seeds must diverge after T"
        );
        for (key, prefix, baseline, reseeded) in [
            ("events", &prefix.trace, &baseline.trace, &reseeded.trace),
            ("records", &prefix.capture, &baseline.capture, &reseeded.capture),
        ] {
            let prefix = entries(prefix, key);
            prop_assert!(!prefix.is_empty(), "no {} before the fork point", key);
            prop_assert_eq!(
                &entries(baseline, key)[..prefix.len()],
                &prefix[..],
                "seed-0 fork rewrote the shared prefix's {}",
                key
            );
            prop_assert_eq!(
                &entries(reseeded, key)[..prefix.len()],
                &prefix[..],
                "reseeded fork rewrote the shared prefix's {}",
                key
            );
        }
    }

    /// Forking at T and checkpointing the fork at T2 > T must save the
    /// very checkpoint the straight-through run saves at T2 — and that
    /// checkpoint must restore (restore re-verifies every state digest,
    /// so this is the fork-digests-equal-checkpoint-digests property).
    #[test]
    fn fork_then_checkpoint_equals_straight_through_checkpoint(
        seed in 0u64..1000,
        t_secs in 26u64..30,
        cp_secs in 31u64..40,
    ) {
        let (at, cp_at) = (Duration::from_secs(t_secs), Duration::from_secs(cp_secs));

        let mut straight = base(seed, TopologyKind::Star).build().expect("valid configuration");
        straight.set_checkpoint_at(cp_at);
        let (_, saved) = straight.try_run_to_completion().expect("run succeeds");
        let straight_cp = saved.expect("checkpoint was armed");

        let mut parent = base(seed, TopologyKind::Star).build().expect("valid configuration");
        parent.run_prefix(at).expect("prefix runs");
        let mut fork = parent.fork().expect("world forks");
        fork.set_checkpoint_at(cp_at);
        let (_, saved) = fork.try_run_to_completion().expect("fork runs");
        let fork_cp = saved.expect("checkpoint was armed");

        prop_assert_eq!(
            straight_cp.to_string_pretty(),
            fork_cp.to_string_pretty(),
            "a fork's checkpoint differs from the straight-through checkpoint"
        );
        let resumed = Ddosim::resume_from(fork_cp).expect("checkpoint config is valid");
        resumed
            .try_run_to_completion()
            .expect("a fork's checkpoint restores (digests verify)");
    }
}
