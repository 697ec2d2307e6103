//! Defense deployment end-to-end: the paper's use case of implementing and
//! evaluating defense strategies *inside* the simulation (§I, §V-A).

use analysis::RateLimiter;
use ddosim::{AttackSpec, SimulationBuilder};
use std::time::Duration;

fn scenario() -> ddosim::Ddosim {
    SimulationBuilder::new()
        .devs(15)
        .attack(AttackSpec::udp_plain(Duration::from_secs(30)))
        .attack_at(Duration::from_secs(30))
        .sim_time(Duration::from_secs(80))
        .attack_ramp(Duration::from_secs(3))
        .seed(21)
        .build()
        .expect("valid configuration")
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
    defended.run_until(Duration::from_secs(62));
    let filtered = defended.sim_mut().stats().dropped_filtered;
    assert!(filtered > 1000, "flood packets must be filtered, got {filtered}");
}

#[test]
fn clearing_the_filter_restores_traffic() {
    let mut instance = scenario();
    let fabric = instance.fabric_node();
    instance.sim_mut().set_ingress_filter(
        fabric,
        Box::new(|_pkt, _now| netsim::FilterVerdict::Drop),
    );
    instance.run_until(Duration::from_secs(5));
    // Under drop-all even the exploit exchange is blocked.
    assert_eq!(instance.infected_count(), 0);
    instance.sim_mut().clear_ingress_filter(fabric);
    instance.run_until(Duration::from_secs(25));
    assert_eq!(instance.infected_count(), 15, "infection resumes once the filter lifts");
}
