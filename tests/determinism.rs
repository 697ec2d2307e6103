//! Reproducibility: identical seeds give identical worlds and results —
//! the property that makes simulation experiments auditable.

use ddosim::{AttackSpec, SimulationBuilder};
use std::time::Duration;

fn run(seed: u64) -> ddosim::RunResult {
    SimulationBuilder::new()
        .devs(12)
        .attack(AttackSpec::udp_plain(Duration::from_secs(25)))
        .attack_at(Duration::from_secs(30))
        .sim_time(Duration::from_secs(70))
        .attack_ramp(Duration::from_secs(3))
        .seed(seed)
        .run()
        .expect("valid configuration")
}

#[test]
fn identical_seed_identical_run() {
    let a = run(99);
    let b = run(99);
    assert_eq!(a.avg_received_data_rate_kbps, b.avg_received_data_rate_kbps);
    assert_eq!(a.per_second_kbits, b.per_second_kbits);
    assert_eq!(a.infection_times_secs, b.infection_times_secs);
    assert_eq!(a.packets_sent, b.packets_sent);
    assert_eq!(a.packets_dropped, b.packets_dropped);
    assert_eq!(a.flood_packets_received, b.flood_packets_received);
}

#[test]
fn different_seeds_diverge() {
    let a = run(1);
    let b = run(2);
    // Access rates, protections, jitters all differ: byte-for-byte equality
    // across seeds would indicate the seed is ignored.
    assert_ne!(
        (a.packets_sent, a.flood_packets_received),
        (b.packets_sent, b.flood_packets_received)
    );
}

#[test]
fn churn_runs_are_also_deterministic() {
    let make = || {
        SimulationBuilder::new()
            .devs(15)
            .churn(churn::ChurnMode::Dynamic)
            .attack(AttackSpec::udp_plain(Duration::from_secs(25)))
            .attack_at(Duration::from_secs(30))
            .sim_time(Duration::from_secs(80))
            .seed(5)
            .run()
            .expect("valid configuration")
    };
    let a = make();
    let b = make();
    assert_eq!(a.churn_summary, b.churn_summary);
    assert_eq!(a.per_second_kbits, b.per_second_kbits);
}

/// The strongest form of the reproducibility claim: two runs with the same
/// seed serialize to *byte-identical* JSON (host-measured fields such as
/// memory and wall-clock time excluded). Field-wise equality can miss a
/// nondeterministic field nobody thought to compare; byte equality of the
/// full deterministic projection cannot.
#[test]
fn identical_seed_byte_identical_serialization() {
    let a = run(42);
    let b = run(42);
    let ja = a.to_deterministic_json().to_string_compact();
    let jb = b.to_deterministic_json().to_string_compact();
    assert_eq!(ja.as_bytes(), jb.as_bytes(), "star-topology runs must serialize identically");
}

/// The lab world (`--topology wifi`): a shared, lossy medium draws far more
/// from the event RNG than the star does, and must be as reproducible.
fn wifi_world(seed: u64) -> ddosim::Ddosim {
    SimulationBuilder::new()
        .devs(4)
        .topology(ddosim::TopologyKind::Wifi)
        .attack(AttackSpec::udp_plain(Duration::from_secs(20)))
        .attack_at(Duration::from_secs(30))
        .sim_time(Duration::from_secs(60))
        .seed(seed)
        .build()
        .expect("valid configuration")
}

#[test]
fn wifi_world_byte_identical_serialization() {
    let make = || wifi_world(31).run_to_completion().to_deterministic_json().to_string_compact();
    assert_eq!(make().as_bytes(), make().as_bytes(), "Wi-Fi runs must serialize identically");
}

#[test]
fn wifi_world_is_deterministic() {
    let make = || {
        let mut world = wifi_world(8);
        world.run_prefix(Duration::MAX).expect("no checkpoint armed");
        let stats = world.sim_mut().stats();
        let (collisions, lost) = (stats.wifi_collisions, stats.dropped_wifi_loss);
        (collisions, lost, world.run_to_completion().avg_received_data_rate_kbps)
    };
    let (a, b) = (make(), make());
    assert!(a.1 > 0, "the lab's medium loses frames");
    assert_eq!(a, b);
}
