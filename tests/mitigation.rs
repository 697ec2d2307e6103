//! Defense deployment end-to-end: the paper's use case of implementing and
//! evaluating defense strategies *inside* the simulation (§I, §V-A).

use analysis::RateLimiter;
use ddosim::{AttackSpec, Ddosim, SimulationConfig};
use std::time::Duration;

fn world() -> SimulationConfig {
    SimulationConfig {
        devs: 15,
        attack: AttackSpec::udp_plain(Duration::from_secs(30)),
        attack_at: Duration::from_secs(30),
        sim_time: Duration::from_secs(80),
        attack_ramp: Duration::from_secs(3),
        seed: 21,
        ..SimulationConfig::default()
    }
}

fn scenario() -> ddosim::Ddosim {
    Ddosim::new(world()).expect("valid configuration")
}

#[test]
fn rate_limiter_at_the_upstream_router_mitigates_the_flood() {
    // Baseline: no defense.
    let undefended = scenario().run_to_completion();

    // Defended: per-source 64 kbps token bucket at the fabric router,
    // deployed reactively just before the attack window (deploying from
    // t=0 would throttle the attacker's file server too — it turns out a
    // per-source limiter blocks the infection chain's 121 kB downloads,
    // itself a defense result this framework can surface).
    let mut defended = scenario();
    let fabric = defended.fabric_node();
    defended.run_prefix(Duration::from_secs(29)).expect("prefix runs");
    defended
        .sim_mut()
        .push_node_filter(fabric, RateLimiter::default().into_rule());
    let defended = defended.run_to_completion();

    assert_eq!(defended.infected, undefended.infected, "recruitment unaffected");
    assert!(
        defended.avg_received_data_rate_kbps < undefended.avg_received_data_rate_kbps * 0.5,
        "defense at least halves the attack: {:.0} vs {:.0} kbps",
        defended.avg_received_data_rate_kbps,
        undefended.avg_received_data_rate_kbps
    );
    // Aggregate allowance: 15 sources × 64 kbps plus burst headroom.
    assert!(
        defended.avg_received_data_rate_kbps < 15.0 * 64.0 * 1.5,
        "defended magnitude respects the per-source budget: {:.0} kbps",
        defended.avg_received_data_rate_kbps
    );
}

#[test]
fn filter_drops_are_accounted() {
    let mut defended = scenario();
    let fabric = defended.fabric_node();
    defended.run_prefix(Duration::from_secs(29)).expect("prefix runs");
    defended.sim_mut().push_node_filter(
        fabric,
        RateLimiter {
            rate_bps: 32_000,
            burst_bytes: 8 * 1024,
        }
        .into_rule(),
    );
    defended.run_prefix(Duration::from_secs(62)).expect("prefix runs");
    let filtered = defended.sim_mut().stats().dropped_filtered;
    assert!(filtered > 1000, "flood packets must be filtered, got {filtered}");
}

#[test]
fn clearing_the_filter_restores_traffic() {
    let mut instance = scenario();
    let fabric = instance.fabric_node();
    // A limiter with no burst and no refill admits nothing.
    let drop_all = RateLimiter { rate_bps: 0, burst_bytes: 0 };
    instance.sim_mut().push_node_filter(fabric, drop_all.into_rule());
    instance.run_prefix(Duration::from_secs(5)).expect("prefix runs");
    // Under drop-all even the exploit exchange is blocked.
    assert_eq!(instance.infected_count(), 0);
    instance.sim_mut().clear_node_filters(fabric);
    instance.run_prefix(Duration::from_secs(25)).expect("prefix runs");
    assert_eq!(instance.infected_count(), 15, "infection resumes once the filter lifts");
}

/// A deployed `ModelFilter` carries mid-window state (the features seen
/// so far, the sources flagged at the last boundary); a seed-0 fork taken
/// mid-window must replay the parent's verdicts exactly: the same trace
/// and the same capture, drop for drop.
#[test]
fn model_filter_world_forks_mid_window_onto_the_same_trace() {
    use analysis::{synthetic_dataset, LogisticRegression, ModelFilter, TrainConfig};
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let model = LogisticRegression::train(&synthetic_dataset(200, &mut rng), TrainConfig::default());
    let defended = || {
        let collect = ddosim::TelemetryConfig { record: true, capture: true, ..Default::default() };
        let config = SimulationConfig { telemetry: collect, ..world() };
        let mut instance = Ddosim::new(config).expect("valid configuration");
        let fabric = instance.fabric_node();
        instance.run_prefix(Duration::from_secs(29)).expect("prefix runs");
        let filter = ModelFilter::new(model.clone(), Duration::from_secs(2), 0.5);
        instance.sim_mut().push_node_filter(fabric, filter.into_rule());
        instance
    };
    let documents_of = |instance: ddosim::Ddosim| {
        let handle = instance.telemetry().clone();
        instance.run_to_completion();
        (
            handle.recorder_json().expect("recording").to_string_compact(),
            handle.capture_json().expect("capturing").to_string_compact(),
        )
    };
    let straight = documents_of(defended());
    assert!(
        straight.1.matches(r#""kind":"dropped:filtered""#).count() > 1000,
        "the model never flagged the flood"
    );

    let mut parent = defended();
    parent.run_prefix(Duration::from_secs(45)).expect("prefix runs");
    let forked = documents_of(parent.fork().expect("a world with a ModelFilter forks"));
    assert!(forked.0 == straight.0, "seed-0 fork trace differs from the straight-through run");
    assert!(forked.1 == straight.1, "seed-0 fork capture differs from the straight-through run");
}
