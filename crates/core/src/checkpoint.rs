//! Checkpoint/restore: the `ddosim.checkpoint/1` snapshot format.
//!
//! A DDoSim world is not serialized directly — applications are trait
//! objects, handles are `Rc`-shared, and packets carry opaque payloads.
//! Instead a checkpoint is a *recipe plus an attestation*: the full
//! resolved configuration (seed included) and the checkpoint time `T`
//! say how to get the world back; per-layer state digests and the
//! flight-recorder event count, taken of the world as
//! [`Ddosim::run_prefix`](crate::Ddosim::run_prefix)`(T)` leaves it, say
//! what it must look like when it gets there.
//!
//! Resume ([`Ddosim::resume_from`](crate::Ddosim::resume_from)) is a
//! verified re-run: build from the embedded configuration with telemetry
//! live, `run_prefix(T)`, compare the digests and the recorder count (a
//! mismatch names the diverging layer), and hand back a live world at
//! `T`. Because the simulator is deterministic, everything the resumed
//! run writes — trace, capture, metrics — is byte-identical to the
//! uninterrupted run's whole documents. The telemetry configuration is
//! pinned from the checkpoint so the re-run cannot diverge from the
//! original.

use crate::config::{
    AttackSpec, BinaryMix, Recruitment, SimulationConfig, TopologyKind,
};
use attacker::ExploitStrategy;
use churn::ChurnMode;
use djson::{Json, ToJson};
use faults::{PlanError, Read, Val};
use firmware::{CommandSet, ContainerRuntime, FileKind};
use netsim::StateHasher;
use protocols::AttackVector;
use std::time::Duration;
use telemetry::CaptureFilter;
use tinyvm::{Arch, ProtectionMix, Protections};

/// Schema tag written into every serialized checkpoint.
pub const CHECKPOINT_SCHEMA: &str = "ddosim.checkpoint/1";

/// A point-in-time snapshot of a run: everything needed to resume it and
/// to verify the resumed world matches the original.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Simulated time the snapshot was taken at.
    pub at: Duration,
    /// The full resolved configuration of the checkpointed run.
    pub config: SimulationConfig,
    /// Per-layer state digests of the world at [`Checkpoint::at`], in a
    /// fixed layer order (`netsim.queue`, `netsim.nodes`, …, `firmware`).
    pub digests: Vec<(String, u64)>,
    /// Flight-recorder events recorded up to [`Checkpoint::at`]; a
    /// resumed run must have recorded exactly as many when it gets there.
    pub events_recorded: u64,
}

impl Checkpoint {
    /// Serializes the checkpoint.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(CHECKPOINT_SCHEMA.into())),
            ("at_nanos", Json::U64(self.at.as_nanos() as u64)),
            ("events_recorded", Json::U64(self.events_recorded)),
            (
                "digests",
                Json::Arr(
                    self.digests
                        .iter()
                        .map(|(layer, digest)| {
                            Json::obj([
                                ("layer", Json::Str(layer.clone())),
                                ("digest", Json::U64(*digest)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("config", config_to_json(&self.config)),
        ])
    }

    /// Parses a serialized checkpoint.
    ///
    /// # Errors
    ///
    /// The typed [`PlanError`] shared by every schema-tagged plan document
    /// in the workspace, describing exactly what is wrong: invalid JSON
    /// (with the byte offset), a missing or mistyped field, an unknown
    /// schema tag, an unknown top-level field, or an unrepresentable
    /// configuration. Never panics on corrupted or truncated input.
    pub fn parse(text: &str) -> Result<Checkpoint, PlanError> {
        const DOC: &str = "checkpoint";
        let json = Json::parse(text)
            .map_err(|e| PlanError::syntax(DOC, format!("is not valid JSON ({e})")))?;
        Val::root(DOC, &json).fields(|f| {
            f.schema(CHECKPOINT_SCHEMA)?;
            let digest = |v: Val<'_>| v.fields(|f| Ok((f.req("layer")?, f.req("digest")?)));
            Ok(Checkpoint {
                at: f.req("at_nanos")?,
                events_recorded: f.req("events_recorded")?,
                digests: f.req_with("digests", |v| v.items("digest", digest))?,
                config: f.req_with("config", |v| v.embedded(config_from_json))?,
            })
        })
    }

    /// The serialized text form (pretty, byte-stable for equal content).
    pub fn to_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

pub(crate) fn nanos(d: Duration) -> Json {
    Json::U64(d.as_nanos() as u64)
}

pub(crate) fn opt_nanos(d: Option<Duration>) -> Json {
    d.map_or(Json::Null, nanos)
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

/// `Arch` as configuration documents and the firmware digest spell it
/// (the enum lives in another crate): one table read both ways.
const ARCHES: [(&str, Arch); 3] =
    [("x86_64", Arch::X86_64), ("arm7", Arch::Arm7), ("mips", Arch::Mips)];

fn arch_to_str(arch: Arch) -> &'static str {
    let (word, _) = ARCHES.iter().find(|(_, a)| *a == arch).expect("every Arch is in ARCHES");
    word
}

fn arch_from_str(word: &str) -> Result<Arch, String> {
    let known = ARCHES.iter().find(|(known, _)| *known == word);
    known.map(|&(_, arch)| arch).ok_or_else(|| format!("unknown arch '{word}'"))
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

fn binary_mix_from_json(v: Val<'_>) -> Result<BinaryMix, PlanError> {
    v.fields(|f| match f.str("kind")? {
        "connman_only" => Ok(BinaryMix::ConnmanOnly),
        "dnsmasq_only" => Ok(BinaryMix::DnsmasqOnly),
        "mixed" => Ok(BinaryMix::Mixed { connman_fraction: f.req("connman_fraction")? }),
        other => Err(f.invalid("kind", format_args!("is an unknown binary mix '{other}'"))),
    })
}

fn protections_to_json(mix: &ProtectionMix) -> Json {
    match mix {
        ProtectionMix::RandomSubsets => {
            Json::obj([("kind", Json::Str("random_subsets".into()))])
        }
        ProtectionMix::Uniform(p) => Json::obj([
            ("kind", Json::Str("uniform".into())),
            ("wx", Json::Bool(p.wx)),
            ("aslr", Json::Bool(p.aslr)),
            ("canary", Json::Bool(p.canary)),
        ]),
    }
}

fn protections_from_json(v: Val<'_>) -> Result<ProtectionMix, PlanError> {
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

fn recruitment_to_json(r: Recruitment) -> Json {
    match r {
        Recruitment::MemoryError => Json::obj([("kind", Json::Str("memory_error".into()))]),
        Recruitment::CredentialScanner {
            default_credential_fraction,
        } => Json::obj([
            ("kind", Json::Str("credential_scanner".into())),
            (
                "default_credential_fraction",
                Json::F64(default_credential_fraction),
            ),
        ]),
        Recruitment::SelfPropagating {
            default_credential_fraction,
            seeds,
        } => Json::obj([
            ("kind", Json::Str("self_propagating".into())),
            (
                "default_credential_fraction",
                Json::F64(default_credential_fraction),
            ),
            ("seeds", Json::U64(seeds as u64)),
        ]),
    }
}

fn recruitment_from_json(v: Val<'_>) -> Result<Recruitment, PlanError> {
    v.fields(|f| match f.str("kind")? {
        "memory_error" => Ok(Recruitment::MemoryError),
        "credential_scanner" => Ok(Recruitment::CredentialScanner {
            default_credential_fraction: f.req("default_credential_fraction")?,
        }),
        "self_propagating" => Ok(Recruitment::SelfPropagating {
            default_credential_fraction: f.req("default_credential_fraction")?,
            seeds: f.req("seeds")?,
        }),
        other => Err(f.invalid("kind", format_args!("is an unknown recruitment '{other}'"))),
    })
}

fn topology_to_json(t: TopologyKind) -> Json {
    match t {
        TopologyKind::Star => Json::obj([("kind", Json::Str("star".into()))]),
        TopologyKind::Wifi => Json::obj([("kind", Json::Str("wifi".into()))]),
        TopologyKind::Tiered {
            regions,
            region_uplink_bps,
        } => Json::obj([
            ("kind", Json::Str("tiered".into())),
            ("regions", Json::U64(regions as u64)),
            ("region_uplink_bps", Json::U64(region_uplink_bps)),
        ]),
    }
}

fn topology_from_json(v: Val<'_>) -> Result<TopologyKind, PlanError> {
    v.fields(|f| match f.str("kind")? {
        "star" => Ok(TopologyKind::Star),
        "wifi" => Ok(TopologyKind::Wifi),
        "tiered" => Ok(TopologyKind::Tiered {
            regions: f.req("regions")?,
            region_uplink_bps: f.req("region_uplink_bps")?,
        }),
        other => Err(f.invalid("kind", format_args!("is an unknown topology '{other}'"))),
    })
}

/// Writes a [`CaptureFilter`] back to the BPF-ish expression
/// [`CaptureFilter::parse`] accepts (the empty string for the
/// match-everything filter).
fn capture_filter_expr(f: &CaptureFilter) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(proto) = &f.proto {
        parts.push(proto.clone());
    }
    if let Some(port) = f.port {
        parts.push(format!("port {port}"));
    }
    if let Some(ip) = f.src {
        parts.push(format!("src {ip}"));
    }
    if let Some(ip) = f.dst {
        parts.push(format!("dst {ip}"));
    }
    if let Some(ip) = f.host {
        parts.push(format!("host {ip}"));
    }
    parts.join(" ")
}

fn telemetry_to_json(t: &netsim::TelemetryConfig) -> Json {
    Json::obj([
        ("record", Json::Bool(t.record)),
        ("recorder_capacity", Json::U64(t.recorder_capacity as u64)),
        ("capture", Json::Bool(t.capture)),
        (
            "capture_filter",
            Json::Str(capture_filter_expr(&t.capture_filter)),
        ),
        ("capture_capacity", Json::U64(t.capture_capacity as u64)),
        ("metrics_interval_nanos", opt_nanos(t.metrics_interval)),
    ])
}

fn telemetry_from_json(v: Val<'_>) -> Result<netsim::TelemetryConfig, PlanError> {
    v.fields(|f| {
        Ok(netsim::TelemetryConfig {
            record: f.req("record")?,
            recorder_capacity: f.req("recorder_capacity")?,
            capture: f.req("capture")?,
            capture_filter: f.req_with("capture_filter", |v| v.word(CaptureFilter::parse))?,
            capture_capacity: f.req("capture_capacity")?,
            metrics_interval: f.req("metrics_interval_nanos")?,
        })
    })
}

/// Serializes a full resolved [`SimulationConfig`].
pub fn config_to_json(c: &SimulationConfig) -> Json {
    Json::obj([
        ("devs", Json::U64(c.devs as u64)),
        ("binary_mix", binary_mix_to_json(c.binary_mix)),
        ("protections", protections_to_json(&c.protections)),
        ("arch", Json::Str(arch_to_str(c.arch).into())),
        (
            "access_rate_kbps",
            Json::obj([
                ("start", Json::U64(*c.access_rate_kbps.start())),
                ("end", Json::U64(*c.access_rate_kbps.end())),
            ]),
        ),
        ("tserver_link_bps", Json::U64(c.tserver_link_bps)),
        ("tserver_queue_bytes", Json::U64(c.tserver_queue_bytes)),
        ("access_delay_nanos", nanos(c.access_delay)),
        ("churn", Json::Str(c.churn.as_str().into())),
        (
            "attack",
            Json::obj([
                ("vector", Json::Str(c.attack.vector.to_string())),
                ("duration_nanos", nanos(c.attack.duration)),
                (
                    "payload_bytes",
                    match c.attack.payload_bytes {
                        None => Json::Null,
                        Some(b) => Json::U64(u64::from(b)),
                    },
                ),
                ("port", Json::U64(u64::from(c.attack.port))),
            ]),
        ),
        ("attack_at_nanos", nanos(c.attack_at)),
        ("sim_time_nanos", nanos(c.sim_time)),
        ("strategy", Json::Str(c.strategy.as_str().into())),
        (
            "commands",
            Json::Arr(c.commands.iter().map(|s| Json::Str(s.to_owned())).collect()),
        ),
        ("recruitment", recruitment_to_json(c.recruitment)),
        ("flood_rate_bps", Json::U64(c.flood_rate_bps)),
        ("attack_ramp_nanos", nanos(c.attack_ramp)),
        ("attack_over_ipv6", Json::Bool(c.attack_over_ipv6)),
        ("reboot_rate_per_min", Json::F64(c.reboot_rate_per_min)),
        ("topology", topology_to_json(c.topology)),
        ("admin_script", timed_lines_to_json(&c.admin_script)),
        ("telemetry", telemetry_to_json(&c.telemetry)),
        ("faults", c.faults.to_json()),
        ("honeypots", Json::U64(u64::from(c.honeypots))),
        ("backup_cncs", Json::U64(u64::from(c.backup_cncs))),
        ("rng", rng_to_json(c.rng)),
        ("seed", Json::U64(c.seed)),
    ])
}

fn rng_to_json(plan: crate::RngPlan) -> Json {
    let stream = |s: Option<u64>| s.map(Json::U64).unwrap_or(Json::Null);
    Json::obj([
        ("world", stream(plan.world)),
        ("event", stream(plan.event)),
        ("fault", stream(plan.fault)),
    ])
}

fn rng_from_json(v: Val<'_>) -> Result<crate::RngPlan, PlanError> {
    v.fields(|f| {
        let (world, event, fault) = (f.opt("world")?, f.opt("event")?, f.opt("fault")?);
        Ok(crate::RngPlan { world, event, fault })
    })
}

/// Reads a serialized [`SimulationConfig`] — the one reader behind a
/// checkpoint's and a suffix plan's embedded configuration and a `serve`
/// job's `config`.
///
/// # Errors
///
/// A [`PlanError`] naming the missing, mistyped, out-of-range or unknown
/// member, at any depth.
pub fn config_from_json(json: &Json) -> Result<SimulationConfig, PlanError> {
    let churn = |s: &str| ChurnMode::parse(s).ok_or_else(|| format!("unknown churn mode '{s}'"));
    let vector =
        |s: &str| AttackVector::parse(s).ok_or_else(|| format!("unknown attack vector '{s}'"));
    let attack = |v: Val<'_>| {
        v.fields(|f| {
            Ok(AttackSpec {
                vector: f.req_with("vector", |v| v.word(vector))?,
                duration: f.req("duration_nanos")?,
                payload_bytes: f.req("payload_bytes")?,
                port: f.req("port")?,
            })
        })
    };
    Val::root("config", json).fields(|f| {
        Ok(SimulationConfig {
            devs: f.req("devs")?,
            binary_mix: f.req_with("binary_mix", binary_mix_from_json)?,
            protections: f.req_with("protections", protections_from_json)?,
            arch: f.req_with("arch", |v| v.word(arch_from_str))?,
            access_rate_kbps: f.req_with("access_rate_kbps", |v| {
                v.fields(|f| Ok(f.req("start")?..=f.req("end")?))
            })?,
            tserver_link_bps: f.req("tserver_link_bps")?,
            tserver_queue_bytes: f.req("tserver_queue_bytes")?,
            access_delay: f.req("access_delay_nanos")?,
            churn: f.req_with("churn", |v| v.word(churn))?,
            attack: f.req_with("attack", attack)?,
            attack_at: f.req("attack_at_nanos")?,
            sim_time: f.req("sim_time_nanos")?,
            strategy: f.req_with("strategy", |v| v.word(ExploitStrategy::parse))?,
            commands: CommandSet::from_list(
                f.req_with("commands", |v| v.items("command", String::read))?,
            ),
            recruitment: f.req_with("recruitment", recruitment_from_json)?,
            flood_rate_bps: f.req("flood_rate_bps")?,
            attack_ramp: f.req("attack_ramp_nanos")?,
            attack_over_ipv6: f.req("attack_over_ipv6")?,
            reboot_rate_per_min: f.req("reboot_rate_per_min")?,
            topology: f.req_with("topology", topology_from_json)?,
            admin_script: f.req_with("admin_script", timed_lines)?,
            telemetry: f.req_with("telemetry", telemetry_from_json)?,
            faults: f.req_with("faults", |v| v.embedded(faults::FaultPlan::from_json))?,
            honeypots: f.req("honeypots")?,
            backup_cncs: f.req("backup_cncs")?,
            // Older checkpoints predate the RngPlan field; absence means the
            // default (seed-derived) streams, which is exactly what they ran.
            rng: f.opt_with("rng", rng_from_json)?.unwrap_or_default(),
            seed: f.req("seed")?,
        })
    })
}

/// Folds the firmware layer — every container's filesystem, process
/// table, infection bookkeeping, and audit-log shape — into one digest.
pub(crate) fn firmware_digest(runtime: &ContainerRuntime) -> u64 {
    let mut h = StateHasher::new();
    h.write_usize(runtime.len());
    for container in runtime.containers() {
        let s = container.state();
        h.write_str(&s.name);
        h.write_str(arch_to_str(s.arch));
        h.write_usize(s.node.index());
        h.write_usize(s.fs.file_count());
        for (path, entry) in s.fs.files() {
            h.write_str(path);
            match &entry.kind {
                FileKind::Data => h.write_u32(0),
                FileKind::Script(_) => h.write_u32(1),
                FileKind::Executable { arch, .. } => {
                    h.write_u32(2);
                    h.write_str(arch_to_str(*arch));
                }
            }
            h.write_u64(entry.size_bytes);
            h.write_bool(entry.executable);
        }
        h.write_usize(s.procs.len());
        for p in s.procs.iter() {
            h.write_u32(p.pid.0);
            h.write_str(&p.name);
            match p.app {
                None => h.write_bool(false),
                Some(app) => {
                    h.write_bool(true);
                    h.write_usize(app.node().index());
                    h.write_usize(app.slot());
                }
            }
            h.write_usize(p.ports.len());
            for port in &p.ports {
                h.write_u32(u32::from(*port));
            }
        }
        for cmd in s.commands.iter() {
            h.write_str(cmd);
        }
        h.write_u64(s.image_bytes);
        match s.infected_at {
            None => h.write_bool(false),
            Some(t) => {
                h.write_bool(true);
                h.write_u64(t.as_nanos());
            }
        }
        h.write_bool(s.bot_alive);
        h.write_u32(s.infection_count);
        h.write_u32(s.reboot_count);
        h.write_usize(s.events.len());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(config: SimulationConfig) {
        let cp = Checkpoint {
            at: Duration::from_secs(30),
            config,
            digests: vec![("netsim.queue".into(), 7), ("firmware".into(), 9)],
            events_recorded: 123,
        };
        let text = cp.to_string_pretty();
        let back = Checkpoint::parse(&text).expect("parses");
        assert_eq!(back.at, cp.at);
        assert_eq!(back.events_recorded, cp.events_recorded);
        assert_eq!(back.digests, cp.digests);
        // Byte stability: reserializing the parsed checkpoint is identical.
        assert_eq!(back.to_string_pretty(), text);
    }

    #[test]
    fn default_config_round_trips() {
        roundtrip(SimulationConfig::default());
    }

    #[test]
    fn pinned_rng_plan_round_trips() {
        let c = SimulationConfig {
            rng: crate::RngPlan::pinned(777),
            ..SimulationConfig::default()
        };
        let text = config_to_json(&c).to_string_compact();
        let back = config_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.rng, c.rng);
        roundtrip(c);
    }

    #[test]
    fn partial_rng_plan_round_trips() {
        let c = SimulationConfig {
            rng: crate::RngPlan {
                world: Some(5),
                event: None,
                fault: None,
            },
            ..SimulationConfig::default()
        };
        let text = config_to_json(&c).to_string_compact();
        let back = config_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.rng, c.rng);
        roundtrip(c);
    }

    #[test]
    fn missing_rng_field_defaults() {
        // Checkpoints written before RngPlan existed carry no "rng" key;
        // they must parse to the default (seed-derived) plan.
        let mut json = config_to_json(&SimulationConfig::default());
        if let Json::Obj(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "rng");
        }
        let back = config_from_json(&json).unwrap();
        assert_eq!(back.rng, crate::RngPlan::default());
    }

    #[test]
    fn exotic_config_round_trips() {
        let mut c = SimulationConfig {
            devs: 37,
            binary_mix: BinaryMix::Mixed {
                connman_fraction: 0.25,
            },
            protections: ProtectionMix::Uniform(Protections {
                wx: true,
                aslr: false,
                canary: true,
            }),
            arch: Arch::Arm7,
            churn: ChurnMode::Dynamic,
            strategy: ExploitStrategy::StaticChain,
            commands: CommandSet::without(&["curl"]),
            recruitment: Recruitment::SelfPropagating {
                default_credential_fraction: 0.4,
                seeds: 3,
            },
            attack_over_ipv6: true,
            reboot_rate_per_min: 0.5,
            topology: TopologyKind::Tiered {
                regions: 4,
                region_uplink_bps: 10_000_000,
            },
            admin_script: vec![(Duration::from_secs(80), "stop".to_owned())],
            telemetry: netsim::TelemetryConfig {
                record: true,
                capture: true,
                capture_filter: CaptureFilter::parse("udp port 80").unwrap(),
                metrics_interval: Some(Duration::from_secs(1)),
                ..netsim::TelemetryConfig::default()
            },
            seed: 99,
            ..SimulationConfig::default()
        };
        c.attack.payload_bytes = Some(256);
        roundtrip(c);
    }

    #[test]
    fn wifi_topology_round_trips() {
        roundtrip(SimulationConfig {
            topology: TopologyKind::Wifi,
            ..SimulationConfig::default()
        });
    }

    #[test]
    fn corrupted_input_gives_clear_errors() {
        // Truncated JSON.
        let parse_err = |text: &str| Checkpoint::parse(text).unwrap_err().to_string();
        let err = parse_err("{\"schema\": \"ddosim.ch");
        assert!(err.contains("not valid JSON"), "{err}");
        // Wrong schema.
        let err = parse_err("{\"schema\": \"something/9\"}");
        assert!(err.contains("schema"), "{err}");
        // Missing field.
        let err = parse_err(&format!("{{\"schema\": \"{CHECKPOINT_SCHEMA}\"}}"));
        assert!(err.contains("is missing 'at_nanos'"), "{err}");
        // Not JSON at all.
        let err = parse_err("not json");
        assert!(err.contains("not valid JSON"), "{err}");
    }

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

    /// The configuration document's input holes (each row was accepted
    /// before the one reader): narrowing casts, unknown members at every
    /// level, a mistyped optional member read as its default.
    #[test]
    fn config_rejection_table() {
        let base = || config_to_json(&SimulationConfig::default());
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
            (&["devs"], Json::I64(-1), "config.devs must be an unsigned integer"),
            (&["devs"], Json::F64(1e308), "config.devs must be an unsigned integer"),
            (&["devz"], Json::U64(5), "unknown field 'devz' in config"),
            (&["telemetry", "recrod"], Json::Bool(true), "unknown field 'recrod' in config.telemetry"),
            (&["attack", "prot"], Json::U64(1), "unknown field 'prot' in config.attack"),
            (&["binary_mix", "fraction"], Json::F64(0.5), "unknown field 'fraction' in config.binary_mix"),
            (&["topology", "regions"], Json::U64(3), "unknown field 'regions' in config.topology"),
            (&["access_rate_kbps", "mid"], Json::U64(3), "unknown field 'mid' in config.access_rate_kbps"),
            (&["rng", "wolrd"], Json::U64(3), "unknown field 'wolrd' in config.rng"),
            (&["rng", "world"], Json::Str("7".into()), "config.rng.world must be an unsigned integer"),
            (&["rng"], Json::U64(7), "config.rng must be an object"),
            (&["strategy"], Json::Str("leak+rebase".into()), "config.strategy: unknown exploit strategy"),
            (&["arch"], Json::Str("x86".into()), "config.arch: unknown arch 'x86'"),
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
            match config_from_json(&doc) {
                Err(err) => assert!(err.to_string().contains(fragment), "{path:?}: {err}"),
                Ok(_) => panic!("{path:?} = {value} unexpectedly accepted"),
            }
        }
        // The boundaries themselves are fine, either separator reads.
        let ok: &[(&[&str], Json)] = &[
            (&["attack", "port"], Json::U64(65535)),
            (&["honeypots"], Json::U64(65535)),
            (&["attack", "payload_bytes"], Json::U64(u64::from(u32::MAX))),
            (&["devs"], Json::U64(usize::MAX as u64)),
            (&["strategy"], Json::Str("static-chain".into())),
            (&["rng", "world"], Json::Null),
        ];
        for (path, value) in ok {
            config_from_json(&with(base(), path, value.clone()))
                .unwrap_or_else(|err| panic!("{path:?} = {value}: {err}"));
        }
        // A well-formed member can still describe a world that cannot be
        // built; that is `validate()`'s verdict, which `Ddosim::new` (so
        // resume and `serve` too) reaches before it sizes anything — it
        // used to panic there instead.
        let unbuildable: &[(&[&str], &str)] = &[
            (&["devs"], "world too large: 18446744073709551615 devs"),
            (&["access_rate_kbps", "end"], "access rate 18446744073709551615 kbps exceeds"),
        ];
        for (path, fragment) in unbuildable {
            let config =
                config_from_json(&with(base(), path, Json::U64(u64::MAX))).expect("well-formed");
            let err = crate::Ddosim::new(config).expect_err("refused before the build");
            assert!(err.contains(fragment), "{path:?}: {err}");
        }
        // A member given twice is refused, not first-wins.
        let text = config_to_json(&SimulationConfig::default())
            .to_string_compact()
            .replacen("{\"devs\":", "{\"devs\":7,\"devs\":", 1);
        let err = config_from_json(&Json::parse(&text).unwrap()).expect_err("duplicate member");
        assert!(err.to_string().contains("config.devs appears twice"), "{err}");
    }

    #[test]
    fn capture_filter_expression_round_trips() {
        for expr in ["", "udp", "tcp port 23 src 10.0.0.1 dst 10.0.0.2 host 10.0.0.3"] {
            let filter = CaptureFilter::parse(expr).unwrap();
            assert_eq!(capture_filter_expr(&filter), expr);
        }
    }
}
