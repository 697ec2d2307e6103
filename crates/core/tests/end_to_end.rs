//! End-to-end smoke tests of the full DDoSim pipeline.

use ddosim_core::{AttackSpec, Ddosim, RunResult, SimulationConfig, TopologyKind};
use std::time::Duration;

#[test]
fn five_devs_get_infected_and_flood() {
    let result = Ddosim::new(SimulationConfig {
        devs: 5,
        attack: AttackSpec::udp_plain(Duration::from_secs(20)),
        attack_at: Duration::from_secs(30),
        sim_time: Duration::from_secs(60),
        attack_ramp: Duration::from_secs(2),
        seed: 1,
        ..SimulationConfig::default()
    })
    .expect("valid config")
    .run_to_completion();
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
    let mut world = Ddosim::new(SimulationConfig {
        devs,
        topology,
        attack: AttackSpec::udp_plain(Duration::from_secs(attack_secs)),
        attack_at: Duration::from_secs(30),
        sim_time: Duration::from_secs(40 + attack_secs),
        attack_ramp: Duration::from_secs(2),
        seed,
        ..SimulationConfig::default()
    })
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

/// The bottleneck law on a saturated star: ten Devs flood a 1 Mbit/s
/// TServer link several times over, so TServer receives at most C (plus
/// the one 540-byte frame a one-second sample can catch mid-boundary)
/// and, once every bot floods, no less than 0.97 C.
#[test]
fn a_saturated_bottleneck_delivers_its_capacity_and_no_more() {
    const C_KBITS: f64 = 1_000.0;
    const WIRE_KBITS: f64 = (512.0 + 28.0) * 8.0 / 1000.0;
    let config = SimulationConfig {
        devs: 10,
        tserver_link_bps: 1_000_000,
        attack: AttackSpec::udp_plain(Duration::from_secs(30)),
        attack_at: Duration::from_secs(30),
        sim_time: Duration::from_secs(70),
        attack_ramp: Duration::from_secs(2),
        seed: 3,
        ..SimulationConfig::default()
    };
    let result = Ddosim::new(config).expect("valid config").run_to_completion();
    assert_eq!(result.bots_at_command, 10, "every Dev floods");
    for (t, &kbits) in result.per_second_kbits.iter().enumerate() {
        assert!(kbits <= C_KBITS + WIRE_KBITS, "second {t}: {kbits} kbit through {C_KBITS} kbit/s");
    }
    // Every bot floods from attack_at + ramp; the queue is full a second later.
    for t in 33..60 {
        let kbits = result.per_second_kbits[t];
        assert!(kbits >= 0.97 * C_KBITS, "second {t}: {kbits} kbit, below 0.97 C");
    }
}
