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
use djson::{FromJson, Json, ToJson};
use faults::{check_schema, reject_unknown_fields, PlanError};
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
        check_schema(&json, DOC, CHECKPOINT_SCHEMA)?;
        reject_unknown_fields(
            &json,
            DOC,
            "checkpoint",
            &["schema", "at_nanos", "events_recorded", "digests", "config"],
        )?;
        let invalid = |m: String| PlanError::invalid(DOC, m);
        let at = Duration::from_nanos(u64_field(&json, "at_nanos").map_err(invalid)?);
        let events_recorded = u64_field(&json, "events_recorded").map_err(invalid)?;
        let digests_json = field(&json, "digests")
            .map_err(invalid)?
            .as_array()
            .ok_or_else(|| PlanError::invalid(DOC, "field 'digests' is not an array"))?;
        let mut digests = Vec::with_capacity(digests_json.len());
        for d in digests_json {
            digests.push((
                str_field(d, "layer").map_err(invalid)?.to_owned(),
                u64_field(d, "digest").map_err(invalid)?,
            ));
        }
        let config = config_from_json(field(&json, "config").map_err(invalid)?).map_err(invalid)?;
        Ok(Checkpoint {
            at,
            config,
            digests,
            events_recorded,
        })
    }

    /// The serialized text form (pretty, byte-stable for equal content).
    pub fn to_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

// ---- generic field accessors with named errors ----

pub(crate) fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))
}

pub(crate) fn u64_field(json: &Json, key: &str) -> Result<u64, String> {
    field(json, key)?
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not an unsigned integer"))
}

fn f64_field(json: &Json, key: &str) -> Result<f64, String> {
    field(json, key)?
        .as_f64()
        .ok_or_else(|| format!("field '{key}' is not a number"))
}

fn bool_field(json: &Json, key: &str) -> Result<bool, String> {
    field(json, key)?
        .as_bool()
        .ok_or_else(|| format!("field '{key}' is not a boolean"))
}

pub(crate) fn str_field<'a>(json: &'a Json, key: &str) -> Result<&'a str, String> {
    field(json, key)?
        .as_str()
        .ok_or_else(|| format!("field '{key}' is not a string"))
}

pub(crate) fn nanos_field(json: &Json, key: &str) -> Result<Duration, String> {
    Ok(Duration::from_nanos(u64_field(json, key)?))
}

/// Reads a field that is `null` or a nanosecond count.
pub(crate) fn opt_nanos_field(json: &Json, key: &str) -> Result<Option<Duration>, String> {
    let value = field(json, key)?;
    if value.is_null() {
        return Ok(None);
    }
    let nanos = value
        .as_u64()
        .ok_or_else(|| format!("field '{key}' is not an unsigned integer"))?;
    Ok(Some(Duration::from_nanos(nanos)))
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

/// Parses what [`timed_lines_to_json`] writes from `json[key]`.
pub(crate) fn timed_lines_field(json: &Json, key: &str) -> Result<Vec<(Duration, String)>, String> {
    field(json, key)?
        .as_array()
        .ok_or_else(|| format!("field '{key}' is not an array"))?
        .iter()
        .map(|entry| Ok((nanos_field(entry, "at_nanos")?, str_field(entry, "line")?.to_owned())))
        .collect()
}

// ---- foreign-enum <-> JSON helpers (free functions: the enums live in
// other crates, so trait impls are barred by the orphan rule) ----

fn arch_to_str(arch: Arch) -> &'static str {
    match arch {
        Arch::X86_64 => "x86_64",
        Arch::Arm7 => "arm7",
        Arch::Mips => "mips",
    }
}

fn arch_from_str(s: &str) -> Result<Arch, String> {
    match s {
        "x86_64" => Ok(Arch::X86_64),
        "arm7" => Ok(Arch::Arm7),
        "mips" => Ok(Arch::Mips),
        other => Err(format!("unknown arch '{other}'")),
    }
}

fn strategy_to_str(s: ExploitStrategy) -> &'static str {
    match s {
        ExploitStrategy::LeakRebase => "leak_rebase",
        ExploitStrategy::StaticChain => "static_chain",
        ExploitStrategy::CodeInjection => "code_injection",
    }
}

fn strategy_from_str(s: &str) -> Result<ExploitStrategy, String> {
    match s {
        "leak_rebase" => Ok(ExploitStrategy::LeakRebase),
        "static_chain" => Ok(ExploitStrategy::StaticChain),
        "code_injection" => Ok(ExploitStrategy::CodeInjection),
        other => Err(format!("unknown exploit strategy '{other}'")),
    }
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

fn binary_mix_from_json(json: &Json) -> Result<BinaryMix, String> {
    match str_field(json, "kind")? {
        "connman_only" => Ok(BinaryMix::ConnmanOnly),
        "dnsmasq_only" => Ok(BinaryMix::DnsmasqOnly),
        "mixed" => Ok(BinaryMix::Mixed {
            connman_fraction: f64_field(json, "connman_fraction")?,
        }),
        other => Err(format!("unknown binary mix '{other}'")),
    }
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

fn protections_from_json(json: &Json) -> Result<ProtectionMix, String> {
    match str_field(json, "kind")? {
        "random_subsets" => Ok(ProtectionMix::RandomSubsets),
        "uniform" => Ok(ProtectionMix::Uniform(Protections {
            wx: bool_field(json, "wx")?,
            aslr: bool_field(json, "aslr")?,
            canary: bool_field(json, "canary")?,
        })),
        other => Err(format!("unknown protection mix '{other}'")),
    }
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

fn recruitment_from_json(json: &Json) -> Result<Recruitment, String> {
    match str_field(json, "kind")? {
        "memory_error" => Ok(Recruitment::MemoryError),
        "credential_scanner" => Ok(Recruitment::CredentialScanner {
            default_credential_fraction: f64_field(json, "default_credential_fraction")?,
        }),
        "self_propagating" => Ok(Recruitment::SelfPropagating {
            default_credential_fraction: f64_field(json, "default_credential_fraction")?,
            seeds: u64_field(json, "seeds")? as usize,
        }),
        other => Err(format!("unknown recruitment '{other}'")),
    }
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

fn topology_from_json(json: &Json) -> Result<TopologyKind, String> {
    match str_field(json, "kind")? {
        "star" => Ok(TopologyKind::Star),
        "wifi" => Ok(TopologyKind::Wifi),
        "tiered" => Ok(TopologyKind::Tiered {
            regions: u64_field(json, "regions")? as usize,
            region_uplink_bps: u64_field(json, "region_uplink_bps")?,
        }),
        other => Err(format!("unknown topology '{other}'")),
    }
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

fn telemetry_from_json(json: &Json) -> Result<netsim::TelemetryConfig, String> {
    Ok(netsim::TelemetryConfig {
        record: bool_field(json, "record")?,
        recorder_capacity: u64_field(json, "recorder_capacity")? as usize,
        capture: bool_field(json, "capture")?,
        capture_filter: CaptureFilter::parse(str_field(json, "capture_filter")?)
            .map_err(|e| format!("capture filter: {e}"))?,
        capture_capacity: u64_field(json, "capture_capacity")? as usize,
        metrics_interval: opt_nanos_field(json, "metrics_interval_nanos")?,
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
        ("strategy", Json::Str(strategy_to_str(c.strategy).into())),
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

fn rng_from_json(json: &Json) -> Result<crate::RngPlan, String> {
    let stream = |key: &str| -> Result<Option<u64>, String> {
        match json.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("rng stream '{key}' is not an unsigned integer")),
        }
    };
    Ok(crate::RngPlan {
        world: stream("world")?,
        event: stream("event")?,
        fault: stream("fault")?,
    })
}

/// Parses a serialized [`SimulationConfig`].
///
/// # Errors
///
/// Returns a message naming the missing or mistyped field.
pub fn config_from_json(json: &Json) -> Result<SimulationConfig, String> {
    let rate = field(json, "access_rate_kbps")?;
    let attack_json = field(json, "attack")?;
    let vector_str = str_field(attack_json, "vector")?;
    let vector = AttackVector::parse(vector_str)
        .ok_or_else(|| format!("unknown attack vector '{vector_str}'"))?;
    let payload = field(attack_json, "payload_bytes")?;
    let commands_json = field(json, "commands")?
        .as_array()
        .ok_or("field 'commands' is not an array")?;
    let mut commands = Vec::with_capacity(commands_json.len());
    for c in commands_json {
        commands.push(
            c.as_str()
                .ok_or("field 'commands' holds a non-string")?
                .to_owned(),
        );
    }
    let faults = faults::FaultPlan::from_json(field(json, "faults")?)
        .map_err(|e| format!("fault plan: {e}"))?;
    Ok(SimulationConfig {
        devs: u64_field(json, "devs")? as usize,
        binary_mix: binary_mix_from_json(field(json, "binary_mix")?)?,
        protections: protections_from_json(field(json, "protections")?)?,
        arch: arch_from_str(str_field(json, "arch")?)?,
        access_rate_kbps: u64_field(rate, "start")?..=u64_field(rate, "end")?,
        tserver_link_bps: u64_field(json, "tserver_link_bps")?,
        tserver_queue_bytes: u64_field(json, "tserver_queue_bytes")?,
        access_delay: nanos_field(json, "access_delay_nanos")?,
        churn: {
            let mode = str_field(json, "churn")?;
            ChurnMode::parse(mode).ok_or_else(|| format!("unknown churn mode '{mode}'"))?
        },
        attack: AttackSpec {
            vector,
            duration: nanos_field(attack_json, "duration_nanos")?,
            payload_bytes: if payload.is_null() {
                None
            } else {
                Some(
                    payload
                        .as_u64()
                        .ok_or("field 'payload_bytes' is not an unsigned integer")?
                        as u32,
                )
            },
            port: u64_field(attack_json, "port")? as u16,
        },
        attack_at: nanos_field(json, "attack_at_nanos")?,
        sim_time: nanos_field(json, "sim_time_nanos")?,
        strategy: strategy_from_str(str_field(json, "strategy")?)?,
        commands: CommandSet::from_list(commands),
        recruitment: recruitment_from_json(field(json, "recruitment")?)?,
        flood_rate_bps: u64_field(json, "flood_rate_bps")?,
        attack_ramp: nanos_field(json, "attack_ramp_nanos")?,
        attack_over_ipv6: bool_field(json, "attack_over_ipv6")?,
        reboot_rate_per_min: f64_field(json, "reboot_rate_per_min")?,
        topology: topology_from_json(field(json, "topology")?)?,
        admin_script: timed_lines_field(json, "admin_script")?,
        telemetry: telemetry_from_json(field(json, "telemetry")?)?,
        faults,
        honeypots: u64_field(json, "honeypots")? as u16,
        backup_cncs: u64_field(json, "backup_cncs")? as u16,
        // Older checkpoints predate the RngPlan field; absence means the
        // default (seed-derived) streams, which is exactly what they ran.
        rng: match json.get("rng") {
            Some(r) => rng_from_json(r)?,
            None => crate::RngPlan::default(),
        },
        seed: u64_field(json, "seed")?,
    })
}

/// Folds the firmware layer — every container's filesystem, process
/// table, infection bookkeeping, and audit-log shape — into one digest.
pub fn firmware_digest(runtime: &ContainerRuntime) -> u64 {
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
        assert!(back.rng.is_default());
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
        assert!(err.contains("missing field"), "{err}");
        // Not JSON at all.
        let err = parse_err("not json");
        assert!(err.contains("not valid JSON"), "{err}");
    }

    #[test]
    fn capture_filter_expression_round_trips() {
        for expr in ["", "udp", "tcp port 23 src 10.0.0.1 dst 10.0.0.2 host 10.0.0.3"] {
            let filter = CaptureFilter::parse(expr).unwrap();
            assert_eq!(capture_filter_expr(&filter), expr);
        }
    }
}
