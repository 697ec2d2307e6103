//! Property tests for the fault-injection layer: randomized plans stay
//! deterministic (including through a JSON round-trip of the plan), fault
//! times landing exactly on calendar-queue bucket boundaries cause no
//! ordering violations, and rising link-loss probability monotonically
//! degrades the received flood.

use ddosim::{
    AttackSpec, FaultEvent, FaultKind, FaultPlan, SimulationBuilder, TelemetryConfig,
};
use netsim::equeue::BUCKET_SPAN_NANOS;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const HORIZON_NANOS: u64 = 40_000_000_000;

/// A small scenario: 3 Devs, attack commanded at 12 s for 15 s, 40 s horizon.
fn scenario() -> SimulationBuilder {
    SimulationBuilder::new()
        .devs(3)
        .attack(AttackSpec::udp_plain(Duration::from_secs(15)))
        .attack_at(Duration::from_secs(12))
        .sim_time(Duration::from_secs(40))
        .attack_ramp(Duration::from_secs(2))
        .seed(7)
}

fn random_fault(rng: &mut SmallRng, at: Duration) -> FaultEvent {
    let dev = format!("dev-{}", rng.gen_range(0..3));
    let kind = match rng.gen_range(0..7u32) {
        0 => FaultKind::LinkDown { node: dev },
        1 => FaultKind::LinkUp { node: dev },
        2 => FaultKind::LinkLoss { node: dev, probability: rng.gen_range(0.0..=1.0) },
        3 => FaultKind::NodeCrash { node: dev },
        4 => FaultKind::NodeRestore { node: dev },
        5 => FaultKind::CncOutage {
            duration: Some(Duration::from_secs(rng.gen_range(1..8))),
        },
        _ => FaultKind::ContainerKill { node: dev },
    };
    FaultEvent { at, kind }
}

/// Derives a 1–4 fault plan from `seed`; `bucket_aligned` pins every fault
/// time to an exact calendar-queue bucket boundary.
fn random_plan(seed: u64, bucket_aligned: bool) -> FaultPlan {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(1..5);
    let faults = (0..n)
        .map(|_| {
            let at_nanos = if bucket_aligned {
                rng.gen_range(0..HORIZON_NANOS / BUCKET_SPAN_NANOS) * BUCKET_SPAN_NANOS
            } else {
                rng.gen_range(0..HORIZON_NANOS)
            };
            random_fault(&mut rng, Duration::from_nanos(at_nanos))
        })
        .collect();
    FaultPlan { seed, faults }
}

fn recorder_doc(plan: FaultPlan) -> djson::Json {
    let instance = scenario()
        .faults(plan)
        .telemetry(TelemetryConfig { record: true, ..TelemetryConfig::default() })
        .build()
        .expect("valid scenario");
    let tele = instance.telemetry().clone();
    instance.run_to_completion();
    tele.recorder_json().expect("recording")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed + same plan ⇒ byte-identical traces, even when one side
    /// got its plan through serialize → parse.
    #[test]
    fn random_plans_are_deterministic(plan_seed in any::<u64>()) {
        let plan = random_plan(plan_seed, false);
        let round_tripped =
            FaultPlan::parse_plan(&plan.to_doc()).expect("a generated plan round-trips");
        let a = recorder_doc(plan).to_string_compact();
        let b = recorder_doc(round_tripped).to_string_compact();
        prop_assert_eq!(a, b, "plan JSON round-trip changed the run");
    }

    /// Faults scheduled exactly on bucket boundaries (the calendar queue's
    /// rotation edges) complete with a time-monotone event stream and stay
    /// deterministic.
    #[test]
    fn bucket_boundary_fault_times_keep_order(plan_seed in any::<u64>()) {
        let doc = recorder_doc(random_plan(plan_seed, true));
        let again = recorder_doc(random_plan(plan_seed, true));
        prop_assert_eq!(doc.to_string_compact(), again.to_string_compact());
        let events = doc.get("events").and_then(|e| e.as_array()).expect("events");
        let mut prev = 0;
        for e in events {
            let t = e.get("t").and_then(djson::Json::as_u64).expect("time");
            prop_assert!(t >= prev, "recorder events out of order at t={t}");
            prev = t;
        }
    }
}

/// The fault RNG is a stream of its own, so the flood send schedule is
/// identical across loss probabilities and the per-frame loss draws
/// couple: every frame lost at p also falls at any p' ≥ p. Received flood
/// bytes therefore cannot increase as the access links get lossier.
#[test]
fn rising_link_loss_monotonically_degrades_the_flood() {
    let received: Vec<u64> = [0.0, 0.4, 0.8]
        .iter()
        .map(|&p| {
            let plan = FaultPlan {
                seed: 0,
                // Applied at 14 s: after the attack command is delivered,
                // so every bot floods in every scenario and only the UDP
                // flood itself is thinned.
                faults: (0..3)
                    .map(|i| FaultEvent {
                        at: Duration::from_secs(14),
                        kind: FaultKind::LinkLoss {
                            node: format!("dev-{i}"),
                            probability: p,
                        },
                    })
                    .collect(),
            };
            scenario().faults(plan).run().expect("valid").flood_bytes_received
        })
        .collect();
    assert!(
        received[0] >= received[1] && received[1] >= received[2],
        "flood bytes rose with loss probability: {received:?}"
    );
    assert!(
        received[0] > received[2],
        "80% loss must measurably thin the flood: {received:?}"
    );
}
