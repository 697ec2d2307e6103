//! The `ddosim.scenario/1` plan document: parsing and validation.
//!
//! A scenario plan is one checked-in djson file composing a world
//! (topology, churn, recruitment), an attack schedule, a fault plan, and a
//! set of scheduled defenses. Parsing is strict — wrong schema tags,
//! unknown fields at every object level, and out-of-range values are all
//! rejected with a typed [`PlanError`] before any world is built.

use churn::ChurnMode;
use ddosim_core::{AttackSpec, Recruitment, SimulationConfig, TopologyKind};
use djson::Json;
use faults::{check_schema, checked_secs, reject_unknown_fields, FaultPlan, PlanError};
use protocols::AttackVector;
use std::time::Duration;

/// Schema tag every scenario plan must carry.
pub const SCENARIO_SCHEMA: &str = "ddosim.scenario/1";

/// Document name used in every [`PlanError`] this parser emits.
pub(crate) const DOC: &str = "scenario";

/// Fields allowed at the top level of a scenario document.
const TOP_FIELDS: &[&str] = &[
    "schema", "name", "description", "seed", "world", "attack", "faults", "defenses", "rivals",
];

/// Fields allowed in `scenario.world`.
const WORLD_FIELDS: &[&str] = &[
    "devs", "seed", "sim_time_secs", "attack_at_secs", "recruitment", "churn", "topology",
    "reboot_rate_per_min",
];

/// Fields allowed in `scenario.attack`.
const ATTACK_FIELDS: &[&str] = &["vector", "duration_secs", "port", "payload_bytes"];

/// Fields allowed in `scenario.rivals`.
const RIVAL_FIELDS: &[&str] =
    &["count", "start_secs", "interval_secs", "process_name", "flood_rate_bps"];

/// One scheduled defense deployment.
#[derive(Debug, Clone, PartialEq)]
pub enum DefenseSpec {
    /// Target-side per-source rate limiting on the TServer node
    /// (structured [`netsim::FilterRule::RateLimit`], built from
    /// [`analysis::mitigation::RateLimiter`]).
    RateLimit {
        /// Deployment time.
        at: Duration,
        /// Sustained allowance per source, bits per second.
        rate_bps: u64,
        /// Burst allowance per source, bytes.
        burst_bytes: u64,
    },
    /// ISP egress filtering on the fabric (router) node: traffic to the
    /// victim dies at the provider edge.
    EgressFilter {
        /// Deployment time.
        at: Duration,
        /// Restrict the block to one destination port (`None` = all).
        port: Option<u16>,
    },
    /// Staged firmware-patch rollout: devices are patched (commands
    /// removed, device rebooted) in randomized waves.
    PatchRollout {
        /// First wave time.
        start: Duration,
        /// Delay between waves.
        wave_interval: Duration,
        /// Number of waves the fleet is split into.
        waves: u32,
        /// Shell commands the patch removes (default `["curl"]` — breaks
        /// the paper's `curl | sh` infection chain).
        remove: Vec<String>,
    },
    /// Honeypot nodes that attract scanners and feed the simulator-global
    /// blocklist; a [`netsim::FilterRule::Blocklist`] rule armed on the
    /// fabric node enforces it.
    Honeypot {
        /// How many honeypot nodes to attach (sets
        /// [`SimulationConfig::honeypots`]).
        count: u16,
        /// When the fabric-level blocklist rule is armed.
        blocklist_at: Duration,
    },
    /// C&C takedown: the attacker host is powered off at `at`. Bots with
    /// a compiled-in fallback chain rotate to backup C&C hosts.
    CncTakedown {
        /// Takedown time.
        at: Duration,
        /// Backup C&C hosts to attach (sets
        /// [`SimulationConfig::backup_cncs`]) — the adversary's counter
        /// to the takedown; 0 models a botnet with a single point of
        /// failure.
        backups: u16,
    },
}

impl DefenseSpec {
    /// Stable kind string (matches the plan file's `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            DefenseSpec::RateLimit { .. } => "rate_limit",
            DefenseSpec::EgressFilter { .. } => "egress_filter",
            DefenseSpec::PatchRollout { .. } => "patch_rollout",
            DefenseSpec::Honeypot { .. } => "honeypot",
            DefenseSpec::CncTakedown { .. } => "cnc_takedown",
        }
    }
}

/// A rival botnet competing for the same device fleet: rival bots carry a
/// recognizable process name, register with their own C&C, and fight the
/// primary botnet through Mirai's killer module and the single-instance
/// port.
#[derive(Debug, Clone, PartialEq)]
pub struct RivalSpec {
    /// Devices the rival attempts to take over.
    pub count: u32,
    /// First takeover attempt.
    pub start: Duration,
    /// Delay between successive takeover attempts.
    pub interval: Duration,
    /// Rival family process name; must be one of
    /// [`malware::RIVAL_NAMES`] or the killer module would never see it.
    pub process_name: String,
    /// Rival bot flood pacing (unused until the rival attacks; kept for
    /// parity with the primary botnet's loader).
    pub flood_rate_bps: u64,
}

/// A parsed, validated scenario plan.
#[derive(Debug, Clone)]
pub struct ScenarioPlan {
    /// Human-readable scenario name (row label in sweep output).
    pub name: String,
    /// Scenario-stream seed, XOR-folded with the world seed and
    /// [`crate::SCENARIO_TAG`] into the scenario's own RNG stream.
    pub seed: u64,
    /// The composed world configuration (defaults overridden by the
    /// plan's `world`, `attack`, `faults`, and defense-implied knobs).
    config: SimulationConfig,
    /// Scheduled defenses, in plan order.
    pub defenses: Vec<DefenseSpec>,
    /// Rival-botnet pressure, if any.
    pub rivals: Option<RivalSpec>,
}

/// Reads an optional field as u64, rejecting wrong shapes loudly.
fn opt_u64(json: &Json, ctx: &str, field: &str) -> Result<Option<u64>, PlanError> {
    match json.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| PlanError::invalid(DOC, format!("{ctx}.{field} must be an unsigned integer"))),
    }
}

/// Reads an optional field as f64.
fn opt_f64(json: &Json, ctx: &str, field: &str) -> Result<Option<f64>, PlanError> {
    match json.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| PlanError::invalid(DOC, format!("{ctx}.{field} must be a number"))),
    }
}

/// Reads an optional field as a string slice.
fn opt_str<'a>(json: &'a Json, ctx: &str, field: &str) -> Result<Option<&'a str>, PlanError> {
    match json.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| PlanError::invalid(DOC, format!("{ctx}.{field} must be a string"))),
    }
}

/// Reads an optional `*_secs` field as a [`Duration`] (fractional ok).
fn opt_secs(json: &Json, ctx: &str, field: &str) -> Result<Option<Duration>, PlanError> {
    opt_f64(json, ctx, field)?
        .map(|secs| {
            checked_secs(&format!("{ctx}.{field}"), secs, true)
                .map_err(|m| PlanError::invalid(DOC, m))
        })
        .transpose()
}

/// Applies `scenario.world` overrides onto the default configuration.
fn apply_world(config: &mut SimulationConfig, world: &Json) -> Result<(), PlanError> {
    reject_unknown_fields(world, DOC, "scenario.world", WORLD_FIELDS)?;
    if let Some(devs) = opt_u64(world, "world", "devs")? {
        config.devs = devs as usize;
    }
    if let Some(seed) = opt_u64(world, "world", "seed")? {
        config.seed = seed;
    }
    if let Some(t) = opt_secs(world, "world", "sim_time_secs")? {
        config.sim_time = t;
    }
    if let Some(t) = opt_secs(world, "world", "attack_at_secs")? {
        config.attack_at = t;
    }
    if let Some(spec) = opt_str(world, "world", "recruitment")? {
        config.recruitment = Recruitment::parse(spec)
            .map_err(|m| PlanError::invalid(DOC, format!("world.recruitment: {m}")))?;
    }
    if let Some(mode) = opt_str(world, "world", "churn")? {
        config.churn = ChurnMode::parse(mode).ok_or_else(|| {
            PlanError::invalid(DOC, format!("world.churn: unknown churn mode '{mode}'"))
        })?;
    }
    if let Some(spec) = opt_str(world, "world", "topology")? {
        config.topology = TopologyKind::parse(spec)
            .map_err(|m| PlanError::invalid(DOC, format!("world.topology: {m}")))?;
    }
    if let Some(rate) = opt_f64(world, "world", "reboot_rate_per_min")? {
        if !rate.is_finite() || rate < 0.0 {
            return Err(PlanError::invalid(
                DOC,
                format!("world.reboot_rate_per_min must be non-negative, got {rate}"),
            ));
        }
        config.reboot_rate_per_min = rate;
    }
    Ok(())
}

/// Applies `scenario.attack` overrides onto the default attack spec.
fn apply_attack(config: &mut SimulationConfig, attack: &Json) -> Result<(), PlanError> {
    reject_unknown_fields(attack, DOC, "scenario.attack", ATTACK_FIELDS)?;
    let mut spec = AttackSpec::default();
    if let Some(v) = opt_str(attack, "attack", "vector")? {
        spec.vector = AttackVector::parse(v)
            .ok_or_else(|| PlanError::invalid(DOC, format!("attack.vector: unknown vector '{v}'")))?;
    }
    if let Some(d) = opt_secs(attack, "attack", "duration_secs")? {
        spec.duration = d;
    }
    if let Some(p) = opt_u64(attack, "attack", "port")? {
        spec.port = u16::try_from(p)
            .map_err(|_| PlanError::invalid(DOC, format!("attack.port {p} exceeds 65535")))?;
    }
    spec.payload_bytes = match opt_u64(attack, "attack", "payload_bytes")? {
        None => None,
        Some(b) => Some(u32::try_from(b).map_err(|_| {
            PlanError::invalid(DOC, format!("attack.payload_bytes {b} exceeds u32"))
        })?),
    };
    config.attack = spec;
    Ok(())
}

/// Parses one `defenses[i]` entry.
fn parse_defense(entry: &Json, i: usize) -> Result<DefenseSpec, PlanError> {
    let ctx = format!("defense #{i}");
    let kind = opt_str(entry, &ctx, "kind")?
        .ok_or_else(|| PlanError::invalid(DOC, format!("{ctx} is missing 'kind'")))?
        .to_owned();
    let at = |field: &str, default: Duration| -> Result<Duration, PlanError> {
        Ok(opt_secs(entry, &ctx, field)?.unwrap_or(default))
    };
    match kind.as_str() {
        "rate_limit" => {
            reject_unknown_fields(entry, DOC, &ctx, &["kind", "at_secs", "rate_bps", "burst_bytes"])?;
            let defaults = analysis::mitigation::RateLimiter::default();
            Ok(DefenseSpec::RateLimit {
                at: at("at_secs", Duration::ZERO)?,
                rate_bps: opt_u64(entry, &ctx, "rate_bps")?.unwrap_or(defaults.rate_bps),
                burst_bytes: opt_u64(entry, &ctx, "burst_bytes")?.unwrap_or(defaults.burst_bytes),
            })
        }
        "egress_filter" => {
            reject_unknown_fields(entry, DOC, &ctx, &["kind", "at_secs", "port"])?;
            let port = match opt_u64(entry, &ctx, "port")? {
                None => None,
                Some(p) => Some(u16::try_from(p).map_err(|_| {
                    PlanError::invalid(DOC, format!("{ctx}.port {p} exceeds 65535"))
                })?),
            };
            Ok(DefenseSpec::EgressFilter { at: at("at_secs", Duration::ZERO)?, port })
        }
        "patch_rollout" => {
            reject_unknown_fields(
                entry,
                DOC,
                &ctx,
                &["kind", "start_secs", "wave_interval_secs", "waves", "remove"],
            )?;
            let waves = opt_u64(entry, &ctx, "waves")?.unwrap_or(1);
            if waves == 0 {
                return Err(PlanError::invalid(DOC, format!("{ctx}.waves must be at least 1")));
            }
            let remove = match entry.get("remove") {
                None | Some(Json::Null) => vec!["curl".to_owned()],
                Some(Json::Arr(items)) => {
                    let mut cmds = Vec::with_capacity(items.len());
                    for item in items {
                        cmds.push(
                            item.as_str()
                                .ok_or_else(|| {
                                    PlanError::invalid(
                                        DOC,
                                        format!("{ctx}.remove entries must be strings"),
                                    )
                                })?
                                .to_owned(),
                        );
                    }
                    if cmds.is_empty() {
                        return Err(PlanError::invalid(
                            DOC,
                            format!("{ctx}.remove must not be empty"),
                        ));
                    }
                    cmds
                }
                Some(_) => {
                    return Err(PlanError::invalid(DOC, format!("{ctx}.remove must be an array")))
                }
            };
            Ok(DefenseSpec::PatchRollout {
                start: at("start_secs", Duration::ZERO)?,
                wave_interval: opt_secs(entry, &ctx, "wave_interval_secs")?
                    .unwrap_or(Duration::from_secs(10)),
                waves: waves as u32,
                remove,
            })
        }
        "honeypot" => {
            reject_unknown_fields(entry, DOC, &ctx, &["kind", "count", "blocklist_at_secs"])?;
            let count = opt_u64(entry, &ctx, "count")?.unwrap_or(1);
            if count == 0 || count > u64::from(u16::MAX) {
                return Err(PlanError::invalid(
                    DOC,
                    format!("{ctx}.count must be between 1 and 65535, got {count}"),
                ));
            }
            Ok(DefenseSpec::Honeypot {
                count: count as u16,
                blocklist_at: at("blocklist_at_secs", Duration::ZERO)?,
            })
        }
        "cnc_takedown" => {
            reject_unknown_fields(entry, DOC, &ctx, &["kind", "at_secs", "backups"])?;
            let backups = opt_u64(entry, &ctx, "backups")?.unwrap_or(0);
            if backups > u64::from(u16::MAX) {
                return Err(PlanError::invalid(
                    DOC,
                    format!("{ctx}.backups {backups} exceeds 65535"),
                ));
            }
            Ok(DefenseSpec::CncTakedown {
                at: at("at_secs", Duration::ZERO)?,
                backups: backups as u16,
            })
        }
        other => Err(PlanError::invalid(
            DOC,
            format!(
                "{ctx}: unknown kind '{other}' (expected rate_limit, egress_filter, \
                 patch_rollout, honeypot, or cnc_takedown)"
            ),
        )),
    }
}

/// Parses `scenario.rivals`.
fn parse_rivals(entry: &Json) -> Result<RivalSpec, PlanError> {
    reject_unknown_fields(entry, DOC, "scenario.rivals", RIVAL_FIELDS)?;
    let count = opt_u64(entry, "rivals", "count")?.unwrap_or(1);
    if count == 0 {
        return Err(PlanError::invalid(DOC, "rivals.count must be at least 1"));
    }
    let process_name = opt_str(entry, "rivals", "process_name")?.unwrap_or("qbot").to_owned();
    if !malware::RIVAL_NAMES.contains(&process_name.as_str()) {
        return Err(PlanError::invalid(
            DOC,
            format!(
                "rivals.process_name '{process_name}' is not a known rival family \
                 (expected one of {:?})",
                malware::RIVAL_NAMES
            ),
        ));
    }
    Ok(RivalSpec {
        count: count as u32,
        start: opt_secs(entry, "rivals", "start_secs")?.unwrap_or(Duration::from_secs(10)),
        interval: opt_secs(entry, "rivals", "interval_secs")?.unwrap_or(Duration::from_secs(5)),
        process_name,
        flood_rate_bps: opt_u64(entry, "rivals", "flood_rate_bps")?
            .unwrap_or(malware::DEFAULT_FLOOD_RATE_BPS),
    })
}

impl ScenarioPlan {
    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// A typed [`PlanError`] naming the first syntax, schema,
    /// unknown-field, or range problem.
    pub fn parse(text: &str) -> Result<Self, PlanError> {
        let json = Json::parse(text).map_err(|e| PlanError::syntax(DOC, e))?;
        check_schema(&json, DOC, SCENARIO_SCHEMA)?;
        reject_unknown_fields(&json, DOC, "scenario", TOP_FIELDS)?;
        let name = opt_str(&json, "scenario", "name")?
            .ok_or_else(|| PlanError::invalid(DOC, "scenario is missing 'name'"))?
            .to_owned();
        let seed = opt_u64(&json, "scenario", "seed")?.unwrap_or(0);

        let mut config = SimulationConfig::default();
        if let Some(world) = json.get("world") {
            apply_world(&mut config, world)?;
        }
        if let Some(attack) = json.get("attack") {
            apply_attack(&mut config, attack)?;
        }
        if let Some(faults) = json.get("faults") {
            // A full embedded ddosim.faults.plan/1 document, validated by
            // its own strict parser.
            config.faults = FaultPlan::parse_plan(&faults.to_string_compact())?;
        }

        let mut defenses = Vec::new();
        if let Some(list) = json.get("defenses") {
            let Json::Arr(items) = list else {
                return Err(PlanError::invalid(DOC, "scenario.defenses must be an array"));
            };
            for (i, entry) in items.iter().enumerate() {
                defenses.push(parse_defense(entry, i)?);
            }
        }
        // Honeypot and takedown deployments shape the world at build time
        // (extra nodes, served binaries), so more than one of each would
        // be ambiguous.
        for unique in ["honeypot", "cnc_takedown"] {
            if defenses.iter().filter(|d| d.kind() == unique).count() > 1 {
                return Err(PlanError::invalid(
                    DOC,
                    format!("at most one '{unique}' defense is allowed per scenario"),
                ));
            }
        }
        for d in &defenses {
            match *d {
                DefenseSpec::Honeypot { count, .. } => config.honeypots = count,
                DefenseSpec::CncTakedown { backups, .. } => config.backup_cncs = backups,
                _ => {}
            }
        }

        let rivals = match json.get("rivals") {
            None | Some(Json::Null) => None,
            Some(entry) => Some(parse_rivals(entry)?),
        };

        config.validate().map_err(|m| PlanError::invalid(DOC, m))?;
        Ok(ScenarioPlan { name, seed, config, defenses, rivals })
    }

    /// The fully-composed world configuration this plan describes. The
    /// caller may adjust observation knobs (telemetry) before building;
    /// world-shaping fields must stay as composed or
    /// [`ScenarioPlan::install`]'s scheduling would not match the plan.
    pub fn config(&self) -> SimulationConfig {
        self.config.clone()
    }

    /// Whether the plan needs the scenario RNG stream (any randomized
    /// feature: patch-rollout shuffling or rival target selection). Plans
    /// without one never construct the stream, keeping an empty scenario
    /// a strict no-op.
    pub fn needs_rng(&self) -> bool {
        self.rivals.is_some()
            || self.defenses.iter().any(|d| matches!(d, DefenseSpec::PatchRollout { .. }))
    }

    /// Repoints the plan's run seed and per-subsystem RNG plan — the hook
    /// CRN grid sweeps (the [`crate::sweep`] module) use to give every
    /// paired cell of a replicate identical noise streams. The scenario's
    /// own stream (`seed ^ plan.seed ^ SCENARIO_TAG`) derives from the run
    /// seed, so cells sharing a run seed share it automatically.
    pub fn pin_noise(&mut self, seed: u64, rng: ddosim_core::RngPlan) {
        self.config.seed = seed;
        self.config.rng = rng;
    }

    /// Mutable access to the composed configuration for sibling modules.
    /// Grid constructors must keep defense-implied world shape
    /// (honeypots, backup C&Cs) in sync with the defense list, which is
    /// why the field itself stays private.
    pub(crate) fn config_mut(&mut self) -> &mut SimulationConfig {
        &mut self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(extra: &str) -> String {
        format!(r#"{{"schema":"ddosim.scenario/1","name":"t"{extra}}}"#)
    }

    #[test]
    fn minimal_plan_parses_to_defaults() {
        let plan = ScenarioPlan::parse(&minimal("")).expect("minimal plan");
        assert_eq!(plan.name, "t");
        assert_eq!(plan.seed, 0);
        assert!(plan.defenses.is_empty());
        assert!(plan.rivals.is_none());
        assert!(!plan.needs_rng());
        // SimulationConfig has no PartialEq; its canonical JSON form is
        // the stable equality surface the checkpoint layer already uses.
        assert_eq!(
            ddosim_core::checkpoint::config_to_json(&plan.config()).to_string_compact(),
            ddosim_core::checkpoint::config_to_json(&SimulationConfig::default())
                .to_string_compact()
        );
    }

    #[test]
    fn world_and_attack_overrides_apply() {
        let plan = ScenarioPlan::parse(&minimal(
            r#","seed":9,"world":{"devs":6,"seed":7,"sim_time_secs":45,
               "attack_at_secs":20,"recruitment":"scanner:0.6","churn":"dynamic"},
              "attack":{"vector":"http","duration_secs":15,"port":8080}"#,
        ))
        .expect("plan");
        let c = plan.config();
        assert_eq!(plan.seed, 9);
        assert_eq!(c.devs, 6);
        assert_eq!(c.seed, 7);
        assert_eq!(c.sim_time, Duration::from_secs(45));
        assert_eq!(c.attack_at, Duration::from_secs(20));
        assert_eq!(c.churn, ChurnMode::Dynamic);
        assert_eq!(
            c.recruitment,
            Recruitment::CredentialScanner { default_credential_fraction: 0.6 }
        );
        assert_eq!(c.attack.vector, AttackVector::Http);
        assert_eq!(c.attack.duration, Duration::from_secs(15));
        assert_eq!(c.attack.port, 8080);
    }

    #[test]
    fn defense_entries_parse_with_defaults() {
        let plan = ScenarioPlan::parse(&minimal(
            r#","defenses":[
                {"kind":"rate_limit","at_secs":30},
                {"kind":"egress_filter","at_secs":35,"port":80},
                {"kind":"patch_rollout","start_secs":10,"waves":3},
                {"kind":"honeypot","count":2},
                {"kind":"cnc_takedown","at_secs":40,"backups":1}
            ]"#,
        ))
        .expect("plan");
        assert_eq!(plan.defenses.len(), 5);
        assert!(plan.needs_rng(), "patch rollout randomizes wave order");
        let c = plan.config();
        assert_eq!(c.honeypots, 2, "honeypot defense shapes the world");
        assert_eq!(c.backup_cncs, 1, "takedown backups shape the world");
        assert_eq!(
            plan.defenses[0],
            DefenseSpec::RateLimit {
                at: Duration::from_secs(30),
                rate_bps: analysis::mitigation::RateLimiter::default().rate_bps,
                burst_bytes: analysis::mitigation::RateLimiter::default().burst_bytes,
            }
        );
        assert_eq!(
            plan.defenses[2],
            DefenseSpec::PatchRollout {
                start: Duration::from_secs(10),
                wave_interval: Duration::from_secs(10),
                waves: 3,
                remove: vec!["curl".to_owned()],
            }
        );
    }

    #[test]
    fn rivals_parse_and_validate_family_name() {
        let plan = ScenarioPlan::parse(&minimal(
            r#","rivals":{"count":3,"start_secs":15,"interval_secs":10}"#,
        ))
        .expect("plan");
        let rivals = plan.rivals.as_ref().expect("rivals");
        assert_eq!(rivals.count, 3);
        assert_eq!(rivals.process_name, "qbot");
        assert!(plan.needs_rng());

        let err = ScenarioPlan::parse(&minimal(r#","rivals":{"process_name":"mirai"}"#))
            .expect_err("unknown family");
        assert!(err.to_string().contains("not a known rival family"), "{err}");
    }

    #[test]
    fn embedded_fault_plan_is_strictly_parsed() {
        let plan = ScenarioPlan::parse(&minimal(
            r#","faults":{"schema":"ddosim.faults.plan/1","seed":3,"faults":[
                {"at_secs":12,"kind":"link_down","node":"dev-0"}]}"#,
        ))
        .expect("plan");
        assert_eq!(plan.config().faults.faults.len(), 1);

        let err = ScenarioPlan::parse(&minimal(
            r#","faults":{"schema":"ddosim.faults.plan/1","seed":3,"faults":[
                {"at_secs":12,"kind":"link_down","node":"dev-0","oops":1}]}"#,
        ))
        .expect_err("unknown fault field");
        assert!(err.to_string().contains("oops"), "{err}");
    }

    /// Table of rejection cases: each must fail with a message containing
    /// the fragment.
    #[test]
    fn rejection_table() {
        let cases: &[(String, &str)] = &[
            ("not json".to_owned(), "scenario"),
            (r#"{"name":"t"}"#.to_owned(), "missing 'schema'"),
            (
                r#"{"schema":"ddosim.scenario/2","name":"t"}"#.to_owned(),
                "unsupported scenario schema",
            ),
            (minimal(r#","extra":1"#), "unknown field 'extra'"),
            (
                r#"{"schema":"ddosim.scenario/1"}"#.to_owned(),
                "missing 'name'",
            ),
            (minimal(r#","world":{"devz":5}"#), "unknown field 'devz' in scenario.world"),
            (minimal(r#","world":{"churn":"sometimes"}"#), "unknown churn mode"),
            (minimal(r#","world":{"recruitment":"worm:0.5"}"#), "unknown recruitment spec"),
            (minimal(r#","world":{"topology":"mesh"}"#), "unknown topology spec"),
            (minimal(r#","world":{"sim_time_secs":1e20}"#), "world.sim_time_secs"),
            (minimal(r#","attack":{"duration_secs":1e20}"#), "attack.duration_secs"),
            (minimal(r#","attack":{"vector":"teardrop"}"#), "unknown vector"),
            (minimal(r#","attack":{"port":70000}"#), "exceeds 65535"),
            (minimal(r#","defenses":[{"at_secs":1}]"#), "missing 'kind'"),
            (minimal(r#","defenses":[{"kind":"prayer"}]"#), "unknown kind 'prayer'"),
            (
                minimal(r#","defenses":[{"kind":"rate_limit","rate":1}]"#),
                "unknown field 'rate'",
            ),
            (
                minimal(r#","defenses":[{"kind":"patch_rollout","waves":0}]"#),
                "waves must be at least 1",
            ),
            (
                minimal(r#","defenses":[{"kind":"patch_rollout","remove":[]}]"#),
                "must not be empty",
            ),
            (
                minimal(r#","defenses":[{"kind":"honeypot","count":0}]"#),
                "between 1 and 65535",
            ),
            (
                minimal(
                    r#","defenses":[{"kind":"honeypot"},{"kind":"honeypot"}]"#,
                ),
                "at most one 'honeypot'",
            ),
            (minimal(r#","rivals":{"count":0}"#), "at least 1"),
            (minimal(r#","world":{"devs":0}"#), "scenario"),
            (minimal(r#","world":{"attack_at_secs":-3}"#), "non-negative"),
        ];
        for (text, fragment) in cases {
            match ScenarioPlan::parse(text) {
                Err(err) => assert!(
                    err.to_string().contains(fragment),
                    "plan {text:?}: error {err} does not mention {fragment:?}"
                ),
                Ok(_) => panic!("plan {text:?} unexpectedly accepted"),
            }
        }
    }
}
