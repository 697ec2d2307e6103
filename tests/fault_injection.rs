//! Fault-injection integration tests: the C&C-outage smoke scenario
//! (flood drops, bots re-register, a later command floods again), link
//! flaps degrading the flood, crash semantics, and the determinism
//! contract with and without a plan.

use ddosim::{
    AttackSpec, Ddosim, FaultEvent, FaultKind, FaultPlan, SimulationConfig, TelemetryConfig,
};
use std::time::Duration;

fn recording() -> TelemetryConfig {
    TelemetryConfig { record: true, ..TelemetryConfig::default() }
}

/// The shared small scenario: 6 Devs, attack commanded at 20 s for 12 s.
fn base(sim_secs: u64) -> SimulationConfig {
    SimulationConfig {
        devs: 6,
        attack: AttackSpec::udp_plain(Duration::from_secs(12)),
        attack_at: Duration::from_secs(20),
        sim_time: Duration::from_secs(sim_secs),
        attack_ramp: Duration::from_secs(2),
        seed: 42,
        ..SimulationConfig::default()
    }
}

fn fault(at_secs: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent { at: Duration::from_secs(at_secs), kind }
}

/// Count of flight-recorder events with the given category.
fn category_count(doc: &djson::Json, cat: &str) -> usize {
    doc.get("events")
        .and_then(|e| e.as_array())
        .expect("events array")
        .iter()
        .filter(|e| e.get("cat").and_then(djson::Json::as_str) == Some(cat))
        .count()
}

/// The PR's smoke scenario: the C&C host goes dark mid-run, a command
/// issued during the outage cannot raise a flood, and after the restart
/// the bots re-register so a later command floods again.
#[test]
fn cnc_outage_drops_the_flood_and_recovery_restores_it() {
    // A probe instance tells us TServer's address for the admin script.
    let tserver_v4 = Ddosim::new(base(135)).expect("valid").tserver().1;

    let plan = FaultPlan {
        seed: 0,
        faults: vec![fault(
            40,
            FaultKind::CncOutage { duration: Some(Duration::from_secs(20)) },
        )],
    };
    let instance = Ddosim::new(SimulationConfig {
        admin_script: vec![
            // Issued mid-outage: the console must queue and retry it, but the
            // restarted C&C has no live bot connections yet, so no flood.
            (Duration::from_secs(45), format!("udpplain {tserver_v4} 80 12")),
            // Issued well after recovery: bots have re-registered by now.
            (Duration::from_secs(110), format!("udpplain {tserver_v4} 80 12")),
        ],
        faults: plan,
        telemetry: recording(),
        ..base(135)
    })
    .expect("valid");
    let tele = instance.telemetry().clone();
    let result = instance.run_to_completion();

    let window = |from: usize, to: usize| -> f64 {
        result.per_second_kbits[from..to.min(result.per_second_kbits.len())]
            .iter()
            .sum()
    };
    let first_attack = window(20, 32);
    assert!(first_attack > 100.0, "first flood never arrived: {first_attack} kbit");
    let outage = window(42, 58);
    assert!(
        outage < 1.0,
        "TServer received {outage} kbit while the C&C was down and no flood was commanded"
    );
    let recovered = window(110, 122);
    assert!(
        recovered > first_attack * 0.3,
        "flood did not recover after the outage: {recovered} vs {first_attack} kbit"
    );
    assert!(
        result.total_registrations > result.infected as u64,
        "no bot re-registered after the outage ({} registrations, {} infected)",
        result.total_registrations,
        result.infected
    );

    let doc = tele.recorder_json().expect("recording");
    assert!(
        category_count(&doc, "fault") >= 2,
        "outage start and end must both land in the flight recorder"
    );
    assert!(category_count(&doc, "node_admin") >= 2, "attacker down/up missing");
}

/// Flapping half the access links during the attack window loses flood
/// traffic; the run must finish and receive strictly less than baseline.
#[test]
fn link_flaps_degrade_the_flood() {
    let baseline = Ddosim::new(base(45)).expect("valid").run_to_completion();
    let plan = FaultPlan {
        seed: 0,
        faults: vec![
            fault(22, FaultKind::LinkDown { node: "dev-0".into() }),
            fault(22, FaultKind::LinkDown { node: "dev-1".into() }),
            fault(22, FaultKind::LinkDown { node: "dev-2".into() }),
            fault(30, FaultKind::LinkUp { node: "dev-0".into() }),
            fault(30, FaultKind::LinkUp { node: "dev-1".into() }),
            fault(30, FaultKind::LinkUp { node: "dev-2".into() }),
        ],
    };
    let instance = Ddosim::new(SimulationConfig {
        faults: plan,
        telemetry: recording(),
        ..base(45)
    })
    .expect("valid");
    let tele = instance.telemetry().clone();
    let flapped = instance.run_to_completion();
    assert!(
        flapped.flood_bytes_received < baseline.flood_bytes_received,
        "cutting 3 of 6 access links mid-attack must lose flood bytes \
         ({} vs baseline {})",
        flapped.flood_bytes_received,
        baseline.flood_bytes_received
    );
    let doc = tele.recorder_json().expect("recording");
    assert_eq!(category_count(&doc, "fault"), 6);
    assert!(category_count(&doc, "link_admin") >= 6);
}

/// A hard crash kills the resident bot and takes the node dark with no
/// scheduled recovery; a container kill leaves the node up.
#[test]
fn crash_and_container_kill_semantics() {
    let plan = FaultPlan {
        seed: 0,
        faults: vec![
            fault(29, FaultKind::NodeCrash { node: "dev-0".into() }),
            fault(29, FaultKind::ContainerKill { node: "dev-1".into() }),
        ],
    };
    let mut instance = Ddosim::new(SimulationConfig { faults: plan, ..base(90) }).expect("valid");
    let dev_nodes: Vec<_> = instance.devs().iter().map(|d| d.node).collect();
    instance.run_prefix(Duration::from_secs(28)).expect("prefix runs");
    assert_eq!(instance.connected_bots(), 6, "all Devs recruited before the crash");
    instance.run_prefix(Duration::from_secs(30)).expect("prefix runs");
    let bot_alive = |inst: &ddosim::Ddosim, i: usize| {
        inst.runtime()
            .containers()
            .iter()
            .find(|c| c.node() == dev_nodes[i])
            .expect("each Dev has a container")
            .bot_alive()
    };
    assert!(!bot_alive(&instance, 0), "crash must kill the resident bot");
    assert!(!bot_alive(&instance, 1), "container kill must kill the resident bot");
    // dev-1's node stays up, so the attacker may legitimately re-exploit
    // it later; dev-0's node is dark with no restore scheduled, so it
    // must stay dead. The C&C only learns of the silent death once its
    // sweep ping's retransmissions exhaust (sweep at 60 s + ~12 s of RTOs).
    instance.run_prefix(Duration::from_secs(80)).expect("prefix runs");
    assert!(!bot_alive(&instance, 0), "a crashed node cannot be re-infected");
    assert!(
        instance.connected_bots() < 6,
        "the C&C must lose the crashed bot's connection"
    );
}

/// Unknown or impossible targets fail at build time, not mid-run.
#[test]
fn bad_plans_fail_at_build_time() {
    let unknown = FaultPlan {
        seed: 0,
        faults: vec![fault(5, FaultKind::LinkDown { node: "dev-99".into() })],
    };
    let err = Ddosim::new(SimulationConfig {
        faults: unknown,
        ..base(45)
    })
    .expect_err("dev-99 does not exist");
    assert!(err.contains("unknown node"), "got: {err}");

    let no_container = FaultPlan {
        seed: 0,
        faults: vec![fault(5, FaultKind::ContainerKill { node: "tserver".into() })],
    };
    let err = Ddosim::new(SimulationConfig {
        faults: no_container,
        ..base(45)
    })
    .expect_err("tserver has no container");
    assert!(err.contains("no container"), "got: {err}");

    let bad_probability = FaultPlan {
        seed: 0,
        faults: vec![fault(5, FaultKind::LinkLoss { node: "dev-0".into(), probability: 2.0 })],
    };
    let err = Ddosim::new(SimulationConfig {
        faults: bad_probability,
        ..base(45)
    })
    .expect_err("p > 1 is invalid");
    assert!(err.contains("outside [0, 1]"), "got: {err}");
}

fn recorder_doc(config: SimulationConfig) -> String {
    let instance = Ddosim::new(SimulationConfig { telemetry: recording(), ..config }).expect("valid");
    let tele = instance.telemetry().clone();
    instance.run_to_completion();
    tele.recorder_json().expect("recording").to_string_compact()
}

/// Same seed + same plan ⇒ byte-identical telemetry.
#[test]
fn faulted_runs_are_deterministic()  {
    let plan = || FaultPlan {
        seed: 3,
        faults: vec![
            fault(22, FaultKind::LinkLoss { node: "dev-0".into(), probability: 0.3 }),
            fault(25, FaultKind::CncOutage { duration: Some(Duration::from_secs(5)) }),
            fault(33, FaultKind::NodeCrash { node: "dev-2".into() }),
        ],
    };
    let a = recorder_doc(SimulationConfig { faults: plan(), ..base(45) });
    let b = recorder_doc(SimulationConfig { faults: plan(), ..base(45) });
    assert_eq!(a, b, "same seed + same plan must be byte-identical");
}

/// A plan with no faults is a strict no-op — even with a nonzero plan
/// seed, the trace matches a run with no plan at all.
#[test]
fn empty_plan_is_a_noop() {
    let without = recorder_doc(base(45));
    let with_empty = recorder_doc(SimulationConfig {
        faults: FaultPlan { seed: 99, faults: vec![] },
        ..base(45)
    });
    assert_eq!(
        telemetry::diff_strs(&without, &with_empty),
        Ok(None),
        "an empty fault plan must not perturb the trace"
    );
}

