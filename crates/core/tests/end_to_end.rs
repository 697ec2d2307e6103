//! End-to-end smoke tests of the full DDoSim pipeline.

use ddosim_core::{AttackSpec, RunResult, SimulationBuilder, TopologyKind};
use std::time::Duration;

#[test]
fn five_devs_get_infected_and_flood() {
    let result = SimulationBuilder::new()
        .devs(5)
        .attack(AttackSpec::udp_plain(Duration::from_secs(20)))
        .attack_at(Duration::from_secs(30))
        .sim_time(Duration::from_secs(60))
        .attack_ramp(Duration::from_secs(2))
        .seed(1)
        .run()
        .expect("valid config");
    eprintln!("infected={} bots_at_command={} avg={} flood_pkts={}",
        result.infected, result.bots_at_command,
        result.avg_received_data_rate_kbps, result.flood_packets_received);
    assert_eq!(result.infected, 5, "100% infection (R2)");
    assert_eq!(result.bots_at_command, 5);
    assert!(result.flood_packets_received > 0, "flood reached TServer");
    assert!(result.avg_received_data_rate_kbps > 100.0);
}

/// A world on `topology` with the attack at t = 30 s, run to its horizon:
/// the result and the collisions its shared medium saw.
fn run_on(topology: TopologyKind, devs: usize, attack_secs: u64, seed: u64) -> (RunResult, u64) {
    let mut world = SimulationBuilder::new()
        .devs(devs)
        .topology(topology)
        .attack(AttackSpec::udp_plain(Duration::from_secs(attack_secs)))
        .attack_at(Duration::from_secs(30))
        .sim_time(Duration::from_secs(40 + attack_secs))
        .attack_ramp(Duration::from_secs(2))
        .seed(seed)
        .build()
        .expect("valid config");
    world.run_prefix(Duration::MAX).expect("no checkpoint armed");
    let collisions = world.sim_mut().stats().wifi_collisions;
    (world.run_to_completion(), collisions)
}

#[test]
fn three_wifi_stations_are_recruited_and_flood() {
    let (result, _) = run_on(TopologyKind::Wifi, 3, 20, 5);
    assert_eq!(result.infected, 3, "all stations recruited");
    assert!(result.avg_received_data_rate_kbps > 50.0, "flood measured");
}

#[test]
fn wifi_contention_grows_with_station_count() {
    let (few, few_collisions) = run_on(TopologyKind::Wifi, 4, 30, 12);
    let (many, many_collisions) = run_on(TopologyKind::Wifi, 16, 30, 12);
    assert_eq!((few.infected, many.infected), (4, 16));
    assert!(
        many_collisions > few_collisions,
        "more stations contend more: {few_collisions} vs {many_collisions}"
    );
}

#[test]
fn star_and_wifi_agree_at_small_scale() {
    // Fig. 4 in miniature: the abstract star tracks the contended, lossy
    // medium at IoT data rates.
    for devs in [2, 5] {
        let (star, _) = run_on(TopologyKind::Star, devs, 100, 11);
        let (wifi, _) = run_on(TopologyKind::Wifi, devs, 100, 11);
        let (d, h) = (star.avg_received_data_rate_kbps, wifi.avg_received_data_rate_kbps);
        let error = (d - h).abs() / h.max(1.0);
        assert!(error < 0.35, "devs={devs} star={d:.0} wifi={h:.0} err={error:.2}");
    }
}
