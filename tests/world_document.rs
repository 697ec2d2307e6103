//! The world document (`ddosim::world`) is the one spelling of a
//! `SimulationConfig`: what it writes it reads back member for member,
//! every member it prints is documented, and every member is plannable —
//! a plan that spells a configuration runs the same world as the
//! configuration itself.

use ddosim::{
    world, AttackSpec, BinaryMix, Ddosim, ExploitStrategy, FaultEvent, FaultKind, FaultPlan,
    Recruitment, RngPlan, SimulationConfig, TelemetryConfig, TopologyKind,
};
use ddosim_bench::sweeps::{ablation_arms, infection_arms};
use djson::Json;
use firmware::CommandSet;
use proptest::prelude::*;
use protocols::AttackVector;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use telemetry::CaptureFilter;
use tinyvm::{Arch, ProtectionMix, Protections};

/// 2^23 s: below it a double holds every nanosecond of a duration.
const EXACT_SECS: u64 = 1 << 23;

/// The largest whole second the simulation clock (u64 nanoseconds) holds.
const CLOCK_SECS: u64 = u64::MAX / 1_000_000_000;

/// A duration for a world member: usually any nanosecond below `limit`
/// seconds (`limit` ≤ 2^23), sometimes a whole number of seconds up to
/// `whole` — both spell exactly in seconds.
fn duration(rng: &mut SmallRng, limit: u64, whole: u64) -> Duration {
    if rng.gen_bool(0.8) {
        Duration::from_nanos(rng.gen_range(0..limit * 1_000_000_000))
    } else {
        Duration::from_secs(rng.gen_range(0..=whole))
    }
}

fn fraction(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..4u32) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen::<f64>(),
    }
}

fn pick<T: Copy>(rng: &mut SmallRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

fn maybe<T>(rng: &mut SmallRng, value: impl FnOnce(&mut SmallRng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| value(rng))
}

/// A random valid configuration: every member drawn, every enum arm
/// reachable, durations fractional or whole.
fn random_config(seed: u64) -> SimulationConfig {
    let rng = &mut SmallRng::seed_from_u64(seed);
    let devs = rng.gen_range(1..=200usize);
    // The attack window fits the horizon, and the horizon spells exactly
    // too: the three are all fractional below 2^21 s or all whole seconds.
    let whole = rng.gen_bool(0.2);
    let mut window = || match whole {
        true => Duration::from_secs(rng.gen_range(0..=CLOCK_SECS / 3)),
        false => Duration::from_nanos(rng.gen_range(0..(EXACT_SECS / 4) * 1_000_000_000)),
    };
    let (attack_at, attack_duration) = (window(), window());
    let sim_time = attack_at + attack_duration + window();
    let node = |rng: &mut SmallRng| format!("dev-{}", rng.gen_range(0..devs));
    let faults = (0..rng.gen_range(0..4u32))
        .map(|_| {
            let kind = match rng.gen_range(0..7u32) {
                0 => FaultKind::LinkDown { node: node(rng) },
                1 => FaultKind::LinkUp { node: node(rng) },
                2 => FaultKind::LinkLoss { node: node(rng), probability: fraction(rng) },
                3 => FaultKind::NodeCrash { node: node(rng) },
                4 => FaultKind::NodeRestore { node: node(rng) },
                5 => FaultKind::ContainerKill { node: node(rng) },
                _ => FaultKind::CncOutage { duration: maybe(rng, |r| duration(r, 1000, 1000)) },
            };
            FaultEvent { at: Duration::from_nanos(rng.gen::<u64>()), kind }
        })
        .collect();
    let commands = ["sh", "curl", "wget", "chmod", "rm", "cd", "ps", "kill", "export", "tftp"];
    let filters = ["", "udp", "tcp port 23", "udp port 80 dst 10.0.0.2", "host 10.0.0.3 node 7"];
    let lo = rng.gen_range(1..=1_000_000u64);
    SimulationConfig {
        devs,
        binary_mix: match rng.gen_range(0..3u32) {
            0 => BinaryMix::ConnmanOnly,
            1 => BinaryMix::DnsmasqOnly,
            _ => BinaryMix::Mixed { connman_fraction: fraction(rng) },
        },
        protections: match rng.gen_bool(0.3) {
            true => ProtectionMix::RandomSubsets,
            false => ProtectionMix::Uniform(Protections {
                wx: rng.gen(),
                aslr: rng.gen(),
                canary: rng.gen(),
            }),
        },
        arch: pick(rng, &[Arch::X86_64, Arch::Arm7, Arch::Mips]),
        access_rate_kbps: lo..=rng.gen_range(lo..=u64::MAX / 1000),
        tserver_link_bps: rng.gen(),
        tserver_queue_bytes: rng.gen(),
        access_delay: duration(rng, EXACT_SECS, CLOCK_SECS),
        churn: pick(rng, &[churn::ChurnMode::None, churn::ChurnMode::Static, churn::ChurnMode::Dynamic]),
        attack: AttackSpec {
            vector: pick(rng, &AttackVector::ALL),
            duration: attack_duration,
            payload_bytes: maybe(rng, |r| r.gen::<u32>()),
            port: rng.gen_range(0..=u16::MAX),
        },
        attack_at,
        sim_time,
        strategy: pick(
            rng,
            &[ExploitStrategy::LeakRebase, ExploitStrategy::StaticChain, ExploitStrategy::CodeInjection],
        ),
        commands: CommandSet::from_list(commands.into_iter().filter(|_| rng.gen_bool(0.7))),
        recruitment: match rng.gen_range(0..3u32) {
            0 => Recruitment::MemoryError,
            1 => Recruitment::CredentialScanner { default_credential_fraction: fraction(rng) },
            _ => Recruitment::SelfPropagating {
                default_credential_fraction: fraction(rng),
                seeds: rng.gen_range(1..=devs),
            },
        },
        flood_rate_bps: rng.gen(),
        attack_ramp: duration(rng, EXACT_SECS, CLOCK_SECS),
        attack_over_ipv6: rng.gen(),
        reboot_rate_per_min: rng.gen::<f64>() * 100.0,
        topology: match rng.gen_range(0..3u32) {
            0 => TopologyKind::Star,
            1 => TopologyKind::Wifi,
            _ => TopologyKind::Tiered {
                regions: rng.gen_range(1..=64usize),
                region_uplink_bps: rng.gen_range(1..=u64::MAX),
            },
        },
        admin_script: (0..rng.gen_range(0..3u32))
            .map(|i| (Duration::from_nanos(rng.gen::<u64>()), format!("udpplain 10.0.0.{i} 80 5")))
            .collect(),
        telemetry: TelemetryConfig {
            record: rng.gen(),
            recorder_capacity: rng.gen_range(1..=1_000_000usize),
            capture: rng.gen(),
            capture_filter: CaptureFilter::parse(pick(rng, &filters)).expect("a valid filter"),
            capture_capacity: rng.gen_range(1..=1_000_000usize),
            metrics_interval: maybe(rng, |r| Duration::from_nanos(r.gen_range(1..=u64::MAX))),
        },
        faults: FaultPlan { seed: rng.gen(), faults },
        honeypots: rng.gen_range(0..=u16::MAX),
        backup_cncs: rng.gen_range(0..=u16::MAX),
        rng: RngPlan {
            world: maybe(rng, |r| r.gen()),
            event: maybe(rng, |r| r.gen()),
            fault: maybe(rng, |r| r.gen()),
        },
        seed: rng.gen(),
    }
}

fn print(c: &SimulationConfig) -> String {
    world::to_json(c).to_string_pretty()
}

fn read(text: &str) -> SimulationConfig {
    world::from_json(&Json::parse(text).expect("the writer writes JSON")).expect("the reader reads it")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// write → read → write is byte-identical, the read-back
    /// configuration equals the written one member for member (`Debug`
    /// shows every member), and `validate()` judges both alike.
    #[test]
    fn write_read_write_is_the_identity(seed in any::<u64>()) {
        let config = random_config(seed);
        prop_assert_eq!(config.validate(), Ok(()));
        let text = print(&config);
        let back = read(&text);
        prop_assert_eq!(print(&back), text);
        prop_assert_eq!(format!("{back:?}"), format!("{config:?}"));
        prop_assert_eq!(back.validate(), config.validate());
    }
}

/// Both sides of the 2^23 s boundary, and the clock's limit.
#[test]
fn durations_round_trip_to_the_nanosecond_or_are_refused_by_name() {
    let horizon = |sim_time| SimulationConfig { sim_time, ..SimulationConfig::default() };
    let below = horizon(Duration::new(EXACT_SECS - 1, 999_999_999));
    assert_eq!(below.validate(), Ok(()));
    assert_eq!(format!("{:?}", read(&print(&below))), format!("{below:?}"));

    let past = horizon(Duration::from_nanos(EXACT_SECS * 1_000_000_000 + 1));
    let verdict = past.validate().expect_err("a nanosecond the spelling loses");
    assert!(verdict.starts_with("world.sim_time_secs 8388608.000000001s"), "{verdict}");
    let ramp = SimulationConfig { attack_ramp: past.sim_time, ..SimulationConfig::default() };
    assert!(ramp.validate().expect_err("the ramp too").starts_with("world.attack_ramp_secs"));

    for secs in [EXACT_SECS, EXACT_SECS + 1, 1 << 30, 12_345_678_901, CLOCK_SECS] {
        let whole = horizon(Duration::from_secs(secs));
        assert_eq!(whole.validate(), Ok(()), "{secs} s");
        assert_eq!(format!("{:?}", read(&print(&whole))), format!("{whole:?}"), "{secs} s");
    }
    let beyond = horizon(Duration::from_secs(CLOCK_SECS + 1));
    assert!(beyond.validate().expect_err("past the clock").starts_with("world.sim_time_secs"));
}

/// Every member name the writer prints has a row in DESIGN.md's
/// "Scenario schema" table (`world.devs`, `faults`, …).
#[test]
fn every_member_the_writer_prints_is_in_the_design_table() {
    let design = include_str!("../DESIGN.md");
    let start = design.find("## Scenario schema").expect("the section");
    let section = &design[start..];
    let section = &section[..section[3..].find("\n## ").map_or(section.len(), |end| end + 3)];
    let rows: Vec<&str> = section.lines().filter(|l| l.starts_with("| `")).collect();
    let Json::Obj(members) = world::to_json(&SimulationConfig::default()) else { panic!("an object") };
    let mut names = Vec::new();
    for (key, value) in &members {
        match (key.as_str(), value) {
            ("world" | "attack" | "telemetry", Json::Obj(inner)) => {
                names.extend(inner.iter().map(|(member, _)| format!("{key}.{member}")));
            }
            _ => names.push(key.clone()),
        }
    }
    assert!(names.len() > 30, "{names:?}");
    for name in names {
        let row = format!("| `{name}` |");
        assert!(rows.iter().any(|r| r.starts_with(&row)), "DESIGN.md has no row {row}");
    }
}

/// The members a plan carries: `world`, `attack`, `faults` of the
/// world document, under a scenario's schema and name.
fn plan_spelling(config: &SimulationConfig) -> String {
    let Json::Obj(members) = world::to_json(config) else { panic!("an object") };
    let mut plan = vec![
        ("schema".to_owned(), Json::Str("ddosim.scenario/1".to_owned())),
        ("name".to_owned(), Json::Str("spelled".to_owned())),
    ];
    plan.extend(members.into_iter().take(3));
    Json::Obj(plan).to_string_pretty()
}

/// One R1/R2 row (`protections`, `strategy`) and one ablation row
/// (`commands`) run the same world from their configuration and from the
/// plan that spells it.
#[test]
fn experiment_rows_are_plannable() {
    let r1r2 = infection_arms(2).into_iter().find(|(key, _)| key == &["w^x+aslr", "static-chain"]);
    let ablation = ablation_arms(2, true).into_iter().find(|(key, _)| key[0] == "vendor removes curl");
    for (key, config) in [r1r2.expect("an R1/R2 row"), ablation.expect("an ablation row")] {
        let plan = ddosim::scenario::ScenarioPlan::parse(&plan_spelling(&config))
            .unwrap_or_else(|e| panic!("{key:?}: {e}"));
        assert_eq!(print(&plan.config()), print(&config), "{key:?}");
        let direct = Ddosim::new(config).expect("valid").run_to_completion();
        let planned = plan.build().expect("valid").run_to_completion();
        assert_eq!(
            planned.to_deterministic_json().to_string_pretty(),
            direct.to_deterministic_json().to_string_pretty(),
            "{key:?}"
        );
    }
}

/// `world.access_rate_kbps` is `--access-rate`: the plan and the flags
/// print the same `--json` result (host timing aside).
#[test]
fn a_planned_access_rate_runs_as_the_flag_does() {
    let dir = std::env::temp_dir().join(format!("world-document-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let plan_path = dir.join("access.scenario.json");
    let config = SimulationConfig {
        devs: 3,
        access_rate_kbps: 200..=300,
        sim_time: Duration::from_secs(45),
        attack_at: Duration::from_secs(25),
        attack: AttackSpec::udp_plain(Duration::from_secs(15)),
        seed: 5,
        ..SimulationConfig::default()
    };
    std::fs::write(&plan_path, plan_spelling(&config)).expect("plan written");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ddosim"))
            .args(args)
            .arg("--json")
            .output()
            .expect("ddosim runs");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).expect("utf-8");
        text.lines().filter(|l| !l.contains("attack_wall_clock_secs")).collect::<Vec<_>>().join("\n")
    };
    let planned = run(&["--scenario", plan_path.to_str().expect("utf-8 path")]);
    let flagged = run(&[
        "--devs", "3", "--access-rate", "200-300", "--sim-time", "45", "--attack-at", "25",
        "--duration", "15", "--seed", "5",
    ]);
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    assert_eq!(planned, flagged);
}
