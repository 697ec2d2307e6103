//! Cross-crate integration tests: full botnet scenarios exercising every
//! subsystem together (netsim + tinyvm + firmware + malware + attacker +
//! churn + core).

use churn::ChurnMode;
use ddosim::{
    AttackSpec, BinaryMix, Ddosim, ExploitStrategy, Recruitment, RunResult, SimulationConfig,
};
use firmware::CommandSet;
use protocols::AttackVector;
use std::time::Duration;
use tinyvm::{ProtectionMix, Protections};

/// A compact scenario that still covers infection + attack end-to-end.
fn small() -> SimulationConfig {
    SimulationConfig {
        devs: 8,
        attack: AttackSpec::udp_plain(Duration::from_secs(20)),
        attack_at: Duration::from_secs(30),
        sim_time: Duration::from_secs(60),
        attack_ramp: Duration::from_secs(2),
        seed: 1,
        ..SimulationConfig::default()
    }
}

fn run(config: SimulationConfig) -> RunResult {
    Ddosim::new(config).expect("valid").run_to_completion()
}

#[test]
fn connman_only_population_is_fully_recruited() {
    let r = run(SimulationConfig { binary_mix: BinaryMix::ConnmanOnly, ..small() });
    assert_eq!(r.infected, 8, "DNS exploit path recruits every Dev");
    assert!(r.avg_received_data_rate_kbps > 100.0);
}

#[test]
fn dnsmasq_only_population_is_fully_recruited() {
    let r = run(SimulationConfig { binary_mix: BinaryMix::DnsmasqOnly, ..small() });
    assert_eq!(r.infected, 8, "DHCPv6 multicast exploit path recruits every Dev");
    assert!(r.avg_received_data_rate_kbps > 100.0);
}

#[test]
fn full_protections_still_fall_to_leak_rebase() {
    let r = run(SimulationConfig {
        protections: ProtectionMix::Uniform(Protections::FULL),
        ..small()
    });
    assert_eq!(r.infected, 8, "W^X+ASLR devices fall to the two-stage exploit (R2)");
}

#[test]
fn static_chains_fail_on_aslr_only_population() {
    let r = run(SimulationConfig {
        protections: ProtectionMix::Uniform(Protections::ASLR),
        strategy: ExploitStrategy::StaticChain,
        ..small()
    });
    assert_eq!(r.infected, 0, "static ROP chains crash ASLR'd daemons");
    assert_eq!(r.avg_received_data_rate_kbps, 0.0, "no bots, no attack");
}

#[test]
fn code_injection_fails_against_wx() {
    let r = run(SimulationConfig {
        protections: ProtectionMix::Uniform(Protections::WX),
        strategy: ExploitStrategy::CodeInjection,
        ..small()
    });
    assert_eq!(r.infected, 0, "W^X blocks stack shellcode");
}

#[test]
fn removing_curl_blocks_the_infection_chain() {
    let r = run(SimulationConfig { commands: CommandSet::without(&["curl"]), ..small() });
    assert_eq!(r.infected, 0, "stage-1 `curl | sh` cannot run");
    assert_eq!(r.flood_packets_received, 0);
}

#[test]
fn syn_flood_vector_reaches_tserver() {
    let r = run(SimulationConfig {
        attack: AttackSpec {
            vector: AttackVector::Syn,
            duration: Duration::from_secs(20),
            payload_bytes: None,
            port: 80,
        },
        ..small()
    });
    assert_eq!(r.infected, 8);
    // SYN floods carry no payload; magnitude comes from 40-byte segments.
    // They ride TCP, so the sink's UDP flood-marker counter stays at zero —
    // TServer's node counters (which feed Eq. 2) still see them, exactly as
    // a Wireshark capture would.
    assert!(r.avg_received_data_rate_kbps > 10.0, "got {}", r.avg_received_data_rate_kbps);
    assert_eq!(r.flood_packets_received, 0, "marker counter is UDP-only");
    let during: f64 = r.per_second_kbits[31..49].iter().sum();
    assert!(during > 100.0, "SYN segments must reach TServer: {during:.1} kbits");
}

#[test]
fn custom_payload_size_changes_packet_count_not_rate() {
    // Bots pace floods by wire rate (they saturate their uplinks), so a
    // smaller payload means *more packets* at a similar byte rate — the
    // same trade-off the Mirai `len` flag exposes.
    let big = run(small());
    let tiny = run(SimulationConfig {
        attack: AttackSpec {
            vector: AttackVector::UdpPlain,
            duration: Duration::from_secs(20),
            payload_bytes: Some(64),
            port: 80,
        },
        ..small()
    });
    assert_eq!(tiny.infected, 8);
    assert!(
        tiny.flood_packets_received > big.flood_packets_received * 3,
        "64-byte floods send far more packets: {} vs {}",
        tiny.flood_packets_received,
        big.flood_packets_received
    );
    let ratio = tiny.avg_received_data_rate_kbps / big.avg_received_data_rate_kbps;
    assert!(
        (0.5..=1.5).contains(&ratio),
        "wire rates stay comparable, ratio {ratio:.2}"
    );
}

#[test]
fn credential_scanner_recruits_only_default_cred_devices() {
    let r = run(SimulationConfig {
        devs: 10,
        recruitment: Recruitment::CredentialScanner {
            default_credential_fraction: 0.5,
        },
        sim_time: Duration::from_secs(60),
        ..small()
    });
    let successes = r.scanner_successes.expect("scanner ran");
    assert!(successes < 10, "hardened devices resist the dictionary");
    assert_eq!(r.infected, successes, "recruited = scanner successes");
    assert!(r.scanner_attempts.expect("scanner ran") > 0);
}

#[test]
fn credential_scanner_with_no_default_creds_recruits_nothing() {
    let r = run(SimulationConfig {
        recruitment: Recruitment::CredentialScanner {
            default_credential_fraction: 0.0,
        },
        ..small()
    });
    assert_eq!(r.infected, 0);
    assert_eq!(r.scanner_successes, Some(0));
}

#[test]
fn dynamic_churn_registers_departures_and_rejoins() {
    let r = run(SimulationConfig {
        devs: 30,
        churn: ChurnMode::Dynamic,
        sim_time: Duration::from_secs(120),
        attack_at: Duration::from_secs(60),
        ..small()
    });
    let churn = r.churn_summary.expect("churn enabled");
    assert!(churn.departures > 0, "30 devices over 6 epochs must lose some");
    assert!(r.infected > 20, "most devices still recruited");
}

#[test]
fn attack_window_is_where_the_traffic_is() {
    let r = run(small());
    // Received rate before the attack command is negligible (control
    // traffic only); during the window it is orders of magnitude higher.
    let pre: f64 = r.per_second_kbits[..30].iter().sum::<f64>() / 30.0;
    let during: f64 = r.per_second_kbits[30..50].iter().sum::<f64>() / 20.0;
    assert!(
        during > pre * 50.0,
        "pre-attack {pre:.2} kbps vs attack {during:.2} kbps"
    );
}

#[test]
fn flood_stops_after_duration() {
    let r = run(small());
    // Commanded window is [30, 50); by t=55 the flood must have drained.
    let tail: f64 = r.per_second_kbits[55..].iter().sum();
    assert!(tail < 100.0, "flood persists past its duration: {tail:.1} kbits");
}

#[test]
fn builder_rejects_invalid_configs() {
    let refused = |config| Ddosim::new(config).is_err();
    assert!(refused(SimulationConfig { devs: 0, ..SimulationConfig::default() }));
    assert!(refused(SimulationConfig {
        attack_at: Duration::from_secs(590),
        ..SimulationConfig::default()
    }));
}

#[test]
fn result_serializes_for_experiment_records() {
    let r = run(SimulationConfig { devs: 3, ..small() });
    let json = djson::ToJson::to_json(&r).to_string_compact();
    assert!(json.contains("avg_received_data_rate_kbps"));
}

#[test]
fn worm_mode_spreads_from_a_single_seed() {
    let r = run(SimulationConfig {
        devs: 20,
        recruitment: Recruitment::SelfPropagating {
            default_credential_fraction: 1.0,
            seeds: 1,
        },
        attack: AttackSpec::udp_plain(Duration::from_secs(15)),
        attack_at: Duration::from_secs(60),
        sim_time: Duration::from_secs(90),
        seed: 17,
        ..SimulationConfig::default()
    });
    assert_eq!(r.infected, 20, "the worm reaches every credentialed device");
    // Growth is sequential (hop by hop), unlike the attacker-parallel mode:
    // the spread takes multiple generations, visible as a spread-out curve.
    let first = r.infection_times_secs.first().copied().expect("nonempty");
    let last = r.infection_times_secs.last().copied().expect("nonempty");
    assert!(last - first > 2.0, "propagation takes generations: {first:.1}..{last:.1}");
    assert!(r.avg_received_data_rate_kbps > 500.0);
}

#[test]
fn worm_mode_respects_credential_hygiene() {
    let r = run(SimulationConfig {
        devs: 20,
        recruitment: Recruitment::SelfPropagating {
            default_credential_fraction: 0.5,
            seeds: 3,
        },
        attack: AttackSpec::udp_plain(Duration::from_secs(15)),
        attack_at: Duration::from_secs(60),
        sim_time: Duration::from_secs(90),
        seed: 18,
        ..SimulationConfig::default()
    });
    assert!(
        r.infected < 20,
        "hardened devices resist the worm: {}/20",
        r.infected
    );
}

#[test]
fn worm_mode_validates_seed_count() {
    for seeds in [0, 6] {
        let recruitment = Recruitment::SelfPropagating { default_credential_fraction: 1.0, seeds };
        let config = SimulationConfig { devs: 5, recruitment, ..SimulationConfig::default() };
        assert!(Ddosim::new(config).is_err(), "{seeds} seeds among 5 devs");
    }
}

#[test]
fn ipv6_attack_target_works() {
    let r = run(SimulationConfig { devs: 6, attack_over_ipv6: true, ..small() });
    assert_eq!(r.infected, 6);
    assert!(
        r.avg_received_data_rate_kbps > 100.0,
        "IPv6 flood reaches TServer: {:.1} kbps",
        r.avg_received_data_rate_kbps
    );
}

#[test]
fn stack_canaries_defeat_even_leak_rebase() {
    // The hardening extension: canaried firmware survives the paper's
    // strongest exploit — the daemons crash-loop instead of being
    // recruited, and the attack never materializes.
    let r = run(SimulationConfig {
        protections: ProtectionMix::Uniform(Protections::HARDENED),
        ..small()
    });
    assert_eq!(r.infected, 0, "stack smashing detected on every attempt");
    assert_eq!(r.flood_packets_received, 0);
}

#[test]
fn reboots_clear_bots_and_the_attacker_re_recruits() {
    // High reboot churn: Mirai does not persist, so every reboot knocks a
    // bot out; the attacker's reconciler re-exploits the fresh daemon —
    // the recovered→susceptible loop of the SEIRS models the paper cites.
    let mut instance = Ddosim::new(SimulationConfig {
        devs: 10,
        reboot_rate_per_min: 1.0,
        attack: AttackSpec::udp_plain(Duration::from_secs(10)),
        attack_at: Duration::from_secs(160),
        sim_time: Duration::from_secs(180),
        seed: 23,
        ..SimulationConfig::default()
    })
    .expect("valid");
    instance.run_prefix(Duration::from_secs(150)).expect("prefix runs");
    let total_reboots: u32 = instance
        .devs()
        .iter()
        .map(|d| d.container.state().reboot_count)
        .sum();
    let total_infections: u32 = instance
        .devs()
        .iter()
        .map(|d| d.container.state().infection_count)
        .sum();
    let alive = instance.devs().iter().filter(|d| d.container.bot_alive()).count();
    assert!(total_reboots > 5, "reboots happen: {total_reboots}");
    assert!(
        total_infections > 10,
        "devices are re-infected after reboots: {total_infections} infections"
    );
    // Each re-infection costs ~10-20 s (reconcile, exploit, download,
    // register), so with ~1 reboot/min the endemic level sits well above
    // zero but below 100%.
    assert!(alive >= 5, "endemic equilibrium keeps most bots alive: {alive}/10");
    // Reboots wiped the bot processes they hit.
    let rebooted_dev = instance
        .devs()
        .iter()
        .find(|d| d.container.state().reboot_count > 0)
        .expect("some device rebooted");
    assert!(rebooted_dev
        .container
        .state()
        .events
        .iter()
        .any(|e| matches!(e, firmware::ContainerEvent::Rebooted { .. })));
}

#[test]
fn without_reboots_each_device_is_infected_exactly_once() {
    let mut instance = Ddosim::new(SimulationConfig {
        devs: 8,
        attack: AttackSpec::udp_plain(Duration::from_secs(10)),
        attack_at: Duration::from_secs(60),
        sim_time: Duration::from_secs(80),
        seed: 24,
        ..SimulationConfig::default()
    })
    .expect("valid");
    instance.run_prefix(Duration::from_secs(50)).expect("prefix runs");
    for dev in instance.devs() {
        assert_eq!(dev.container.state().infection_count, 1);
        assert_eq!(dev.container.state().reboot_count, 0);
    }
}

#[test]
fn tiered_topology_works_end_to_end_and_regional_uplinks_congest() {
    use ddosim::TopologyKind;
    // 12 Devs over 3 regions with tight 1 Mbps uplinks vs the flat star:
    // recruitment still succeeds, but regional congestion caps the flood.
    let tiered = run(SimulationConfig {
        devs: 12,
        topology: TopologyKind::Tiered {
            regions: 3,
            region_uplink_bps: 1_000_000,
        },
        ..small()
    });
    let star = run(SimulationConfig { devs: 12, ..small() });
    assert_eq!(tiered.infected, 12, "exploit paths work through two tiers");
    assert!(
        tiered.avg_received_data_rate_kbps < star.avg_received_data_rate_kbps * 0.95,
        "regional uplinks (3 Mbps aggregate) must cap the flood below the \
         flat star: {:.0} vs {:.0} kbps",
        tiered.avg_received_data_rate_kbps,
        star.avg_received_data_rate_kbps
    );
    assert!(
        tiered.avg_received_data_rate_kbps > 1500.0,
        "~3 Mbps of aggregate uplink still delivers: {:.0} kbps",
        tiered.avg_received_data_rate_kbps
    );
}

#[test]
fn tiered_topology_validation() {
    use ddosim::TopologyKind;
    for (regions, region_uplink_bps) in [(0, 1), (2, 0)] {
        let topology = TopologyKind::Tiered { regions, region_uplink_bps };
        let config = SimulationConfig { topology, ..SimulationConfig::default() };
        assert!(Ddosim::new(config).is_err(), "{regions} regions at {region_uplink_bps} bps");
    }
}

#[test]
fn admin_script_supports_early_stop() {
    // Issue the 20 s attack at t=30 but stop it at t=38: roughly half the
    // traffic of the uninterrupted run arrives.
    let full = run(small());
    let stopped = run(SimulationConfig {
        admin_script: vec![(Duration::from_secs(38), "stop".into())],
        ..small()
    });
    assert!(
        stopped.avg_received_data_rate_kbps < full.avg_received_data_rate_kbps * 0.7,
        "early stop cuts the average: {:.0} vs {:.0} kbps",
        stopped.avg_received_data_rate_kbps,
        full.avg_received_data_rate_kbps
    );
    assert!(stopped.avg_received_data_rate_kbps > 0.0);
}
