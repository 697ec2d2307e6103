//! The world document: the one JSON spelling of a [`SimulationConfig`],
//! read and written here and nowhere else.
//!
//! A world is six members:
//!
//! ```json
//! { "world": {...}, "attack": {...}, "faults": {...},
//!   "telemetry": {...}, "honeypots": 0, "backup_cncs": 0 }
//! ```
//!
//! `attack` holds the [`AttackSpec`](crate::AttackSpec), `faults` is a
//! whole `ddosim.faults.plan/1` document, `telemetry` says what is
//! observed, and `world` holds every other member. A `ddosim.scenario/1`
//! plan carries the first three verbatim ([`read`]; its defenses set the
//! two counts and the caller the telemetry); a checkpoint's and a suffix
//! plan's `config` carries all six ([`to_json`], [`from_json`]).
//!
//! Reading, every member is optional over [`SimulationConfig::default`].
//! Writing, every member is printed, so print ∘ parse is the identity on
//! every valid configuration. The spellings are a plan author's: seconds
//! as `*_secs` numbers, a vocabulary as the word its `--flag` takes
//! (`churn`, `recruitment`, `topology`, `strategy`, `attack.vector`,
//! `arch`, `access_rate_kbps`), an object where no word exists
//! (`binary_mix`, `protections`, `rng`). DESIGN.md's "Scenario schema"
//! table lists every member.

use crate::config::{BinaryMix, Recruitment, RngPlan, SimulationConfig, TopologyKind};
use attacker::ExploitStrategy;
use churn::ChurnMode;
use djson::{Fields, Json, PlanError, Read, ToJson, Val};
use firmware::CommandSet;
use protocols::AttackVector;
use std::ops::RangeInclusive;
use std::time::Duration;
use telemetry::{CaptureFilter, TelemetryConfig};
use tinyvm::{Arch, ProtectionMix, Protections};

pub(crate) fn nanos(d: Duration) -> Json {
    Json::U64(d.as_nanos() as u64)
}

pub(crate) fn opt_nanos(d: Option<Duration>) -> Json {
    d.map_or(Json::Null, nanos)
}

/// Every duration the document spells in seconds, with its path. The
/// writer prints one only through this list, and
/// [`SimulationConfig::validate`] refuses one whose `*_secs` number would
/// not read back to the nanosecond.
pub(crate) fn durations(c: &SimulationConfig) -> [(&'static str, Duration); 5] {
    [
        ("world.sim_time_secs", c.sim_time),
        ("world.attack_at_secs", c.attack_at),
        ("world.access_delay_secs", c.access_delay),
        ("world.attack_ramp_secs", c.attack_ramp),
        ("attack.duration_secs", c.attack.duration),
    ]
}

/// Serializes a timed console script (`admin_script`, a suffix's
/// `admin_lines`) as `[{at_nanos, line}]`.
pub(crate) fn timed_lines_to_json(lines: &[(Duration, String)]) -> Json {
    let entry = |(at, line): &(Duration, String)| {
        Json::obj([("at_nanos", nanos(*at)), ("line", Json::Str(line.clone()))])
    };
    Json::Arr(lines.iter().map(entry).collect())
}

/// Reads what [`timed_lines_to_json`] writes.
pub(crate) fn timed_lines(v: Val<'_>) -> Result<Vec<(Duration, String)>, PlanError> {
    v.items("line", |line| line.fields(|f| Ok((f.req("at_nanos")?, f.req("line")?))))
}

/// `Arch` as documents and the firmware digest spell it (the enum lives
/// in another crate): one table read both ways.
const ARCHES: [(&str, Arch); 3] =
    [("x86_64", Arch::X86_64), ("arm7", Arch::Arm7), ("mips", Arch::Mips)];

pub(crate) fn arch_word(arch: Arch) -> &'static str {
    let (word, _) = ARCHES.iter().find(|(_, a)| *a == arch).expect("every Arch is in ARCHES");
    word
}

fn arch(word: &str) -> Result<Arch, String> {
    let known = ARCHES.iter().find(|(known, _)| *known == word);
    known.map(|&(_, arch)| arch).ok_or_else(|| format!("unknown arch '{word}'"))
}

/// Parses an access-rate range as `--access-rate` and the document spell
/// it: `LO-HI` in kbps, e.g. `100-500`.
///
/// # Errors
///
/// A message naming what does not parse.
pub fn access_rate(spec: &str) -> Result<RangeInclusive<u64>, String> {
    let (lo, hi) = spec.split_once('-').ok_or("expected LO-HI, e.g. 100-500")?;
    let kbps = |s: &str| s.parse::<u64>().map_err(|e| format!("bad rate '{s}' in '{spec}': {e}"));
    Ok(kbps(lo)?..=kbps(hi)?)
}

fn binary_mix_to_json(mix: BinaryMix) -> Json {
    match mix {
        BinaryMix::ConnmanOnly => Json::obj([("kind", Json::Str("connman_only".into()))]),
        BinaryMix::DnsmasqOnly => Json::obj([("kind", Json::Str("dnsmasq_only".into()))]),
        BinaryMix::Mixed { connman_fraction } => Json::obj([
            ("kind", Json::Str("mixed".into())),
            ("connman_fraction", Json::F64(connman_fraction)),
        ]),
    }
}

fn binary_mix(v: Val<'_>) -> Result<BinaryMix, PlanError> {
    v.fields(|f| match f.str("kind")? {
        "connman_only" => Ok(BinaryMix::ConnmanOnly),
        "dnsmasq_only" => Ok(BinaryMix::DnsmasqOnly),
        "mixed" => Ok(BinaryMix::Mixed { connman_fraction: f.req("connman_fraction")? }),
        other => Err(f.invalid("kind", format_args!("is an unknown binary mix '{other}'"))),
    })
}

fn protections_to_json(mix: &ProtectionMix) -> Json {
    match mix {
        ProtectionMix::RandomSubsets => Json::obj([("kind", Json::Str("random_subsets".into()))]),
        ProtectionMix::Uniform(p) => Json::obj([
            ("kind", Json::Str("uniform".into())),
            ("wx", Json::Bool(p.wx)),
            ("aslr", Json::Bool(p.aslr)),
            ("canary", Json::Bool(p.canary)),
        ]),
    }
}

fn protections(v: Val<'_>) -> Result<ProtectionMix, PlanError> {
    v.fields(|f| match f.str("kind")? {
        "random_subsets" => Ok(ProtectionMix::RandomSubsets),
        "uniform" => Ok(ProtectionMix::Uniform(Protections {
            wx: f.req("wx")?,
            aslr: f.req("aslr")?,
            canary: f.req("canary")?,
        })),
        other => Err(f.invalid("kind", format_args!("is an unknown protection mix '{other}'"))),
    })
}

fn rng_to_json(plan: RngPlan) -> Json {
    let stream = |s: Option<u64>| s.map_or(Json::Null, Json::U64);
    Json::obj([
        ("world", stream(plan.world)),
        ("event", stream(plan.event)),
        ("fault", stream(plan.fault)),
    ])
}

fn rng(v: Val<'_>) -> Result<RngPlan, PlanError> {
    v.fields(|f| Ok(RngPlan { world: f.opt("world")?, event: f.opt("event")?, fault: f.opt("fault")? }))
}

/// Writes a [`CaptureFilter`] back to the BPF-ish expression
/// [`CaptureFilter::parse`] accepts (the empty string for the
/// match-everything filter).
fn capture_filter_expr(f: &CaptureFilter) -> String {
    let mut parts: Vec<String> = Vec::new();
    parts.extend(f.proto.map(str::to_owned));
    parts.extend(f.port.map(|port| format!("port {port}")));
    parts.extend(f.src.map(|ip| format!("src {ip}")));
    parts.extend(f.dst.map(|ip| format!("dst {ip}")));
    parts.extend(f.host.map(|ip| format!("host {ip}")));
    parts.extend(f.node.map(|node| format!("node {node}")));
    parts.join(" ")
}

fn telemetry_to_json(t: &TelemetryConfig) -> Json {
    Json::obj([
        ("record", Json::Bool(t.record)),
        ("recorder_capacity", Json::U64(t.recorder_capacity as u64)),
        ("capture", Json::Bool(t.capture)),
        ("capture_filter", Json::Str(capture_filter_expr(&t.capture_filter))),
        ("capture_capacity", Json::U64(t.capture_capacity as u64)),
        ("metrics_interval_nanos", opt_nanos(t.metrics_interval)),
    ])
}

fn telemetry(v: Val<'_>) -> Result<TelemetryConfig, PlanError> {
    let mut t = TelemetryConfig::default();
    v.fields(|f| {
        set(&mut t.record, f.opt("record")?);
        set(&mut t.recorder_capacity, f.opt("recorder_capacity")?);
        set(&mut t.capture, f.opt("capture")?);
        set(&mut t.capture_filter, f.opt_with("capture_filter", |v| v.word(CaptureFilter::parse))?);
        set(&mut t.capture_capacity, f.opt("capture_capacity")?);
        set(&mut t.metrics_interval, f.opt("metrics_interval_nanos")?.map(Some));
        Ok(())
    })?;
    Ok(t)
}

/// Overrides `slot` when the document gave the member.
fn set<T>(slot: &mut T, given: Option<T>) {
    if let Some(value) = given {
        *slot = value;
    }
}

/// Serializes a [`SimulationConfig`] as the six-member world document.
pub fn to_json(c: &SimulationConfig) -> Json {
    let rate = &c.access_rate_kbps;
    let commands = c.commands.iter().map(|s| Json::Str(s.to_owned())).collect();
    let durations = durations(c);
    let secs = |path: &str| {
        let found = durations.iter().find(|(p, _)| *p == path);
        Json::F64(found.expect("a printed duration is in `durations`").1.as_secs_f64())
    };
    let world = Json::obj([
        ("devs", Json::U64(c.devs as u64)),
        ("seed", Json::U64(c.seed)),
        ("sim_time_secs", secs("world.sim_time_secs")),
        ("attack_at_secs", secs("world.attack_at_secs")),
        ("recruitment", Json::Str(c.recruitment.to_string())),
        ("churn", Json::Str(c.churn.as_str().into())),
        ("topology", Json::Str(c.topology.to_string())),
        ("reboot_rate_per_min", Json::F64(c.reboot_rate_per_min)),
        ("binary_mix", binary_mix_to_json(c.binary_mix)),
        ("protections", protections_to_json(&c.protections)),
        ("arch", Json::Str(arch_word(c.arch).into())),
        ("access_rate_kbps", Json::Str(format!("{}-{}", rate.start(), rate.end()))),
        ("tserver_link_bps", Json::U64(c.tserver_link_bps)),
        ("tserver_queue_bytes", Json::U64(c.tserver_queue_bytes)),
        ("access_delay_secs", secs("world.access_delay_secs")),
        ("strategy", Json::Str(c.strategy.as_str().into())),
        ("commands", Json::Arr(commands)),
        ("flood_rate_bps", Json::U64(c.flood_rate_bps)),
        ("attack_ramp_secs", secs("world.attack_ramp_secs")),
        ("attack_over_ipv6", Json::Bool(c.attack_over_ipv6)),
        ("admin_script", timed_lines_to_json(&c.admin_script)),
        ("rng", rng_to_json(c.rng)),
    ]);
    let attack = Json::obj([
        ("vector", Json::Str(c.attack.vector.to_string())),
        ("duration_secs", secs("attack.duration_secs")),
        ("port", Json::U64(u64::from(c.attack.port))),
        ("payload_bytes", c.attack.payload_bytes.map_or(Json::Null, |b| Json::U64(u64::from(b)))),
    ]);
    Json::obj([
        ("world", world),
        ("attack", attack),
        ("faults", c.faults.to_json()),
        ("telemetry", telemetry_to_json(&c.telemetry)),
        ("honeypots", Json::U64(u64::from(c.honeypots))),
        ("backup_cncs", Json::U64(u64::from(c.backup_cncs))),
    ])
}

/// Reads the `world`, `attack` and `faults` members of the object `f` is
/// reading over `c` — what a scenario plan carries beside its own members.
///
/// # Errors
///
/// A [`PlanError`] naming the missing, mistyped, out-of-range or unknown
/// member, at any depth.
pub fn read(f: &mut Fields<'_>, c: &mut SimulationConfig) -> Result<(), PlanError> {
    f.opt_with("world", |v| {
        v.fields(|f| {
            set(&mut c.devs, f.opt("devs")?);
            set(&mut c.seed, f.opt("seed")?);
            set(&mut c.sim_time, f.secs("sim_time_secs")?);
            set(&mut c.attack_at, f.secs("attack_at_secs")?);
            set(&mut c.recruitment, f.opt_with("recruitment", |v| v.word(str::parse::<Recruitment>))?);
            set(&mut c.churn, f.opt_with("churn", |v| v.word(ChurnMode::parse))?);
            set(&mut c.topology, f.opt_with("topology", |v| v.word(str::parse::<TopologyKind>))?);
            set(&mut c.reboot_rate_per_min, f.opt("reboot_rate_per_min")?);
            set(&mut c.binary_mix, f.opt_with("binary_mix", binary_mix)?);
            set(&mut c.protections, f.opt_with("protections", protections)?);
            set(&mut c.arch, f.opt_with("arch", |v| v.word(arch))?);
            set(&mut c.access_rate_kbps, f.opt_with("access_rate_kbps", |v| v.word(access_rate))?);
            set(&mut c.tserver_link_bps, f.opt("tserver_link_bps")?);
            set(&mut c.tserver_queue_bytes, f.opt("tserver_queue_bytes")?);
            set(&mut c.access_delay, f.secs("access_delay_secs")?);
            set(&mut c.strategy, f.opt_with("strategy", |v| v.word(ExploitStrategy::parse))?);
            let commands = f.opt_with("commands", |v| v.items("command", String::read))?;
            set(&mut c.commands, commands.map(CommandSet::from_list));
            set(&mut c.flood_rate_bps, f.opt("flood_rate_bps")?);
            set(&mut c.attack_ramp, f.secs("attack_ramp_secs")?);
            set(&mut c.attack_over_ipv6, f.opt("attack_over_ipv6")?);
            set(&mut c.admin_script, f.opt_with("admin_script", timed_lines)?);
            set(&mut c.rng, f.opt_with("rng", rng)?);
            Ok(())
        })
    })?;
    f.opt_with("attack", |v| {
        let a = &mut c.attack;
        v.fields(|f| {
            set(&mut a.vector, f.opt_with("vector", |v| v.word(AttackVector::parse))?);
            set(&mut a.duration, f.secs("duration_secs")?);
            set(&mut a.port, f.opt("port")?);
            set(&mut a.payload_bytes, f.opt("payload_bytes")?.map(Some));
            Ok(())
        })
    })?;
    // A whole ddosim.faults.plan/1 document, as strict as a stand-alone one.
    set(&mut c.faults, f.opt_with("faults", |v| v.embedded(faults::FaultPlan::from_json))?);
    Ok(())
}

/// Reads a world document — a checkpoint's and a suffix plan's embedded
/// `config` — over [`SimulationConfig::default`].
///
/// # Errors
///
/// As [`read`].
pub fn from_json(json: &Json) -> Result<SimulationConfig, PlanError> {
    let mut c = SimulationConfig::default();
    Val::root("config", json).fields(|f| {
        read(f, &mut c)?;
        set(&mut c.telemetry, f.opt_with("telemetry", telemetry)?);
        set(&mut c.honeypots, f.opt("honeypots")?);
        set(&mut c.backup_cncs, f.opt("backup_cncs")?);
        Ok(())
    })?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `doc` with the member at `path` set to `value` (appended if new).
    fn with(mut doc: Json, path: &[&str], value: Json) -> Json {
        let (last, parents) = path.split_last().unwrap();
        let mut at = &mut doc;
        for key in parents {
            let Json::Obj(members) = at else { panic!("{key}: not inside an object") };
            at = &mut members.iter_mut().find(|(k, _)| k == key).expect(key).1;
        }
        let Json::Obj(members) = at else { panic!("{last}: not inside an object") };
        match members.iter_mut().find(|(k, _)| k == last) {
            Some((_, slot)) => *slot = value,
            None => members.push(((*last).to_owned(), value)),
        }
        doc
    }

    /// The document's input holes (each row was accepted once): narrowing
    /// casts, unknown members at every level, a mistyped member.
    #[test]
    fn config_rejection_table() {
        let base = || to_json(&SimulationConfig::default());
        let cases: &[(&[&str], Json, &str)] = &[
            (&["attack", "port"], Json::U64(65616), "config.attack.port 65616 exceeds 65535"),
            (&["attack", "port"], Json::U64(65536), "config.attack.port 65536 exceeds 65535"),
            (&["honeypots"], Json::U64(65537), "config.honeypots 65537 exceeds 65535"),
            (&["backup_cncs"], Json::U64(1 << 32), "config.backup_cncs 4294967296 exceeds 65535"),
            (
                &["attack", "payload_bytes"],
                Json::U64(4_294_967_808),
                "config.attack.payload_bytes 4294967808 exceeds 4294967295",
            ),
            (&["world", "devs"], Json::I64(-1), "config.world.devs must be an unsigned integer"),
            (&["world", "devs"], Json::F64(1e308), "config.world.devs must be an unsigned integer"),
            (&["devs"], Json::U64(5), "unknown field 'devs' in config"),
            (&["world", "devz"], Json::U64(5), "unknown field 'devz' in config.world"),
            (&["telemetry", "recrod"], Json::Bool(true), "unknown field 'recrod' in config.telemetry"),
            (&["attack", "prot"], Json::U64(1), "unknown field 'prot' in config.attack"),
            (
                &["world", "binary_mix", "fraction"],
                Json::F64(0.5),
                "unknown field 'fraction' in config.world.binary_mix",
            ),
            (&["world", "topology"], Json::U64(3), "config.world.topology must be a string"),
            (&["world", "topology"], Json::Str("mesh".into()), "unknown topology spec: mesh"),
            (&["world", "access_rate_kbps"], Json::Str("300".into()), "expected LO-HI"),
            (&["world", "access_rate_kbps"], Json::Str("1-x".into()), "bad rate 'x' in '1-x'"),
            (&["world", "rng", "wolrd"], Json::U64(3), "unknown field 'wolrd' in config.world.rng"),
            (
                &["world", "rng", "world"],
                Json::Str("7".into()),
                "config.world.rng.world must be an unsigned integer",
            ),
            (&["world", "rng"], Json::U64(7), "config.world.rng must be an object"),
            (
                &["world", "strategy"],
                Json::Str("leak+rebase".into()),
                "config.world.strategy: unknown exploit strategy",
            ),
            (&["world", "arch"], Json::Str("x86".into()), "config.world.arch: unknown arch 'x86'"),
            (&["world", "churn"], Json::Str("sometimes".into()), "unknown churn mode 'sometimes'"),
            (&["attack", "vector"], Json::Str("teardrop".into()), "unknown vector 'teardrop'"),
            (&["world", "commands"], Json::Str("curl".into()), "config.world.commands must be an array"),
            (&["world", "sim_time_secs"], Json::F64(1e20), "config.world.sim_time_secs must be a"),
            (
                &["faults", "faults"],
                Json::Arr(vec![Json::obj([
                    ("at_secs", Json::U64(1)),
                    ("kind", Json::Str("link_loss".into())),
                    ("node", Json::Str("dev-0".into())),
                    ("probability", Json::F64(7.5)),
                ])]),
                "config.faults: fault plan: fault #0 (link_loss): probability 7.5 outside [0, 1]",
            ),
        ];
        for (path, value, fragment) in cases {
            let doc = with(base(), path, value.clone());
            match from_json(&doc) {
                Err(err) => assert!(err.to_string().contains(fragment), "{path:?}: {err}"),
                Ok(_) => panic!("{path:?} = {value} unexpectedly accepted"),
            }
        }
        // The boundaries themselves are fine, either separator reads.
        let ok: &[(&[&str], Json)] = &[
            (&["attack", "port"], Json::U64(65535)),
            (&["honeypots"], Json::U64(65535)),
            (&["attack", "payload_bytes"], Json::U64(u64::from(u32::MAX))),
            (&["world", "devs"], Json::U64(usize::MAX as u64)),
            (&["world", "strategy"], Json::Str("static-chain".into())),
            (&["world", "rng", "world"], Json::Null),
        ];
        for (path, value) in ok {
            from_json(&with(base(), path, value.clone()))
                .unwrap_or_else(|err| panic!("{path:?} = {value}: {err}"));
        }
        // A well-formed member can still describe a world that cannot be
        // built; that is `validate()`'s verdict, which `Ddosim::new` (so
        // resume and `serve` too) reaches before it sizes anything.
        let unbuildable: &[(&[&str], Json, &str)] = &[
            (&["world", "devs"], Json::U64(u64::MAX), "world too large: 18446744073709551615 devs"),
            (
                &["world", "access_rate_kbps"],
                Json::Str(format!("100-{}", u64::MAX)),
                "access rate 18446744073709551615 kbps exceeds",
            ),
        ];
        for (path, value, fragment) in unbuildable {
            let config = from_json(&with(base(), path, value.clone())).expect("well-formed");
            let err = crate::Ddosim::new(config).expect_err("refused before the build");
            assert!(err.contains(fragment), "{path:?}: {err}");
        }
        // A member given twice is refused, not first-wins.
        let text = base().to_string_compact().replacen("{\"devs\":", "{\"devs\":7,\"devs\":", 1);
        let err = from_json(&Json::parse(&text).unwrap()).expect_err("duplicate member");
        assert!(err.to_string().contains("config.world.devs appears twice"), "{err}");
    }

    /// Every member is optional: an empty document is the default world,
    /// and a missing member keeps its default beside given ones.
    #[test]
    fn absent_members_keep_their_defaults() {
        let print = |c: &SimulationConfig| to_json(c).to_string_compact();
        let empty = from_json(&Json::parse("{}").unwrap()).expect("the empty world");
        assert_eq!(print(&empty), print(&SimulationConfig::default()));
        let doc = r#"{"world":{"devs":4,"rng":{"event":9}},"telemetry":{"record":true}}"#;
        let c = from_json(&Json::parse(doc).unwrap()).expect("a partial world");
        let want = SimulationConfig {
            devs: 4,
            rng: RngPlan { event: Some(9), ..RngPlan::default() },
            telemetry: TelemetryConfig { record: true, ..TelemetryConfig::default() },
            ..SimulationConfig::default()
        };
        assert_eq!(print(&c), print(&want));
    }

    #[test]
    fn capture_filter_expression_round_trips() {
        let every = "tcp port 23 src 10.0.0.1 dst 10.0.0.2 host 10.0.0.3 node 7";
        for expr in ["", "udp", "node 3", every] {
            let filter = CaptureFilter::parse(expr).unwrap();
            assert_eq!(capture_filter_expr(&filter), expr);
        }
    }

    #[test]
    fn access_rate_words_read_back() {
        assert_eq!(access_rate("200-300"), Ok(200..=300));
        assert_eq!(access_rate("7-7"), Ok(7..=7));
        assert!(access_rate("500").unwrap_err().contains("LO-HI"));
        assert!(access_rate("-5").unwrap_err().contains("bad rate ''"));
    }
}
