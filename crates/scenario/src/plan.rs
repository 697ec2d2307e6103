//! The `ddosim.scenario/1` plan document: parsing and validation.
//!
//! A scenario plan is one checked-in djson file composing a world
//! (topology, churn, recruitment), an attack schedule, a fault plan, and a
//! set of scheduled defenses. Parsing is strict — wrong schema tags,
//! unknown fields at every object level, and out-of-range values are all
//! rejected with a typed [`PlanError`] before any world is built.

use ddosim_core::{world, SimulationConfig};
use djson::{Fields, Json, PlanError, Read, Val};
use std::time::Duration;

/// Schema tag every scenario plan must carry.
pub const SCENARIO_SCHEMA: &str = "ddosim.scenario/1";

/// Document name used in every [`PlanError`] this parser emits.
pub(crate) const DOC: &str = "scenario";

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
    /// plan's `world`, `attack` and `faults`, read by
    /// [`ddosim_core::world::read`], and defense-implied knobs).
    config: SimulationConfig,
    /// Scheduled defenses, in plan order.
    pub defenses: Vec<DefenseSpec>,
    /// Rival-botnet pressure, if any.
    pub rivals: Option<RivalSpec>,
}

/// Parses one `defenses[i]` entry.
fn parse_defense(entry: Val<'_>) -> Result<DefenseSpec, PlanError> {
    let at = |f: &mut Fields<'_>, key| Ok(f.secs(key)?.unwrap_or(Duration::ZERO));
    entry.fields(|f| match f.str("kind")? {
        "rate_limit" => {
            let defaults = analysis::mitigation::RateLimiter::default();
            Ok(DefenseSpec::RateLimit {
                at: at(f, "at_secs")?,
                rate_bps: f.opt("rate_bps")?.unwrap_or(defaults.rate_bps),
                burst_bytes: f.opt("burst_bytes")?.unwrap_or(defaults.burst_bytes),
            })
        }
        "egress_filter" => {
            Ok(DefenseSpec::EgressFilter { at: at(f, "at_secs")?, port: f.opt("port")? })
        }
        "patch_rollout" => {
            let waves = f.opt("waves")?.unwrap_or(1);
            if waves == 0 {
                return Err(f.invalid("waves", "must be at least 1"));
            }
            let remove = f
                .opt_with("remove", |v| v.items("remove entry", String::read))?
                .unwrap_or_else(|| vec!["curl".to_owned()]);
            if remove.is_empty() {
                return Err(f.invalid("remove", "must not be empty"));
            }
            Ok(DefenseSpec::PatchRollout {
                start: at(f, "start_secs")?,
                wave_interval: f.secs("wave_interval_secs")?.unwrap_or(Duration::from_secs(10)),
                waves,
                remove,
            })
        }
        "honeypot" => {
            let count = f.opt("count")?.unwrap_or(1);
            if count == 0 {
                return Err(f.invalid("count", "must be between 1 and 65535, got 0"));
            }
            Ok(DefenseSpec::Honeypot { count, blocklist_at: at(f, "blocklist_at_secs")? })
        }
        "cnc_takedown" => Ok(DefenseSpec::CncTakedown {
            at: at(f, "at_secs")?,
            backups: f.opt("backups")?.unwrap_or(0),
        }),
        other => Err(f.invalid(
            "kind",
            format_args!(
                "is an unknown kind '{other}' (expected rate_limit, egress_filter, \
                 patch_rollout, honeypot, or cnc_takedown)"
            ),
        )),
    })
}

/// Parses `scenario.rivals`.
fn parse_rivals(entry: Val<'_>) -> Result<RivalSpec, PlanError> {
    entry.fields(|f| {
        let count = f.opt("count")?.unwrap_or(1);
        if count == 0 {
            return Err(f.invalid("count", "must be at least 1"));
        }
        let process_name = f.opt("process_name")?.unwrap_or_else(|| "qbot".to_owned());
        if !malware::RIVAL_NAMES.contains(&process_name.as_str()) {
            return Err(f.invalid(
                "process_name",
                format_args!(
                    "'{process_name}' is not a known rival family (expected one of {:?})",
                    malware::RIVAL_NAMES
                ),
            ));
        }
        Ok(RivalSpec {
            count,
            start: f.secs("start_secs")?.unwrap_or(Duration::from_secs(10)),
            interval: f.secs("interval_secs")?.unwrap_or(Duration::from_secs(5)),
            process_name,
            flood_rate_bps: f.opt("flood_rate_bps")?.unwrap_or(malware::DEFAULT_FLOOD_RATE_BPS),
        })
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
        Self::from_json(&Json::parse(text).map_err(|e| PlanError::syntax(DOC, e))?)
    }

    /// Reads a scenario from its parsed document — what
    /// [`ScenarioPlan::parse`] and every document embedding a plan (a
    /// grid sweep's `base`, a `serve` job's `scenario`) go through.
    ///
    /// # Errors
    ///
    /// As [`ScenarioPlan::parse`], syntax aside.
    pub fn from_json(json: &Json) -> Result<Self, PlanError> {
        let mut config = SimulationConfig::default();
        let (name, seed, defenses, rivals) = Val::root(DOC, json).fields(|f| {
            f.schema(SCENARIO_SCHEMA)?;
            let name = f.req("name")?;
            f.opt_with("description", |v| v.str().map(drop))?;
            let seed = f.opt("seed")?.unwrap_or(0);
            world::read(f, &mut config)?;
            let defenses: Vec<DefenseSpec> =
                f.opt_with("defenses", |v| v.items("defense", parse_defense))?.unwrap_or_default();
            Ok((name, seed, defenses, f.opt_with("rivals", parse_rivals)?))
        })?;
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
    pub(crate) fn needs_rng(&self) -> bool {
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
    use churn::ChurnMode;
    use ddosim_core::Recruitment;
    use protocols::AttackVector;

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
            world::to_json(&plan.config()).to_string_compact(),
            world::to_json(&SimulationConfig::default()).to_string_compact()
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
            (minimal(r#","world":{"reboot_rate_per_min":-1}"#), "reboot rate must be a finite"),
            (minimal(r#","world":{"access_rate_kbps":"500"}"#), "world.access_rate_kbps: expected LO-HI"),
            (minimal(r#","world":{"arch":"z80"}"#), "scenario.world.arch: unknown arch 'z80'"),
            (minimal(r#","world":{"commands":["sh",7]}"#), "command #1 must be a string"),
            (
                minimal(r#","world":{"protections":{"kind":"uniform","wx":true}}"#),
                "scenario.world.protections is missing 'aslr'",
            ),
            (minimal(r#","telemetry":{"record":true}"#), "unknown field 'telemetry' in scenario"),
            (minimal(r#","honeypots":1"#), "unknown field 'honeypots' in scenario"),
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
    /// Input holes the one reader closed (each row was accepted before
    /// it): narrowing casts, a member given twice, a mistyped optional
    /// member — and the boundaries next to them, which stay valid.
    #[test]
    fn input_hole_table() {
        let rollout = |waves: &str| {
            minimal(&format!(r#","defenses":[{{"kind":"patch_rollout","waves":{waves}}}]"#))
        };
        let cases: &[(String, &str)] = &[
            (
                minimal(r#","rivals":{"count":4294967297}"#),
                "scenario.rivals.count 4294967297 exceeds 4294967295",
            ),
            (rollout("4294967297"), "defense #0.waves 4294967297 exceeds 4294967295"),
            (minimal(r#","world":{"devs":3,"devs":7}"#), "scenario.world.devs appears twice"),
            (minimal(r#","name":"again""#), "scenario.name appears twice"),
            (minimal(r#","seed":"7""#), "scenario.seed must be an unsigned integer"),
            (minimal(r#","world":{"seed":-1}"#), "scenario.world.seed must be an unsigned integer"),
            (minimal(r#","description":7"#), "scenario.description must be a string"),
            (minimal(r#","attack":{"port":65536}"#), "scenario.attack.port 65536 exceeds 65535"),
            (
                minimal(r#","attack":{"payload_bytes":4294967296}"#),
                "scenario.attack.payload_bytes 4294967296 exceeds 4294967295",
            ),
            (
                minimal(r#","defenses":[{"kind":"honeypot","count":65536}]"#),
                "defense #0.count 65536 exceeds 65535",
            ),
            (
                minimal(r#","defenses":[{"kind":"cnc_takedown","backups":65536}]"#),
                "defense #0.backups 65536 exceeds 65535",
            ),
            (
                minimal(r#","defenses":[{"kind":"egress_filter","port":"80"}]"#),
                "defense #0.port must be an unsigned integer",
            ),
            (
                minimal(r#","faults":{"schema":"ddosim.faults.plan/1","seed":"7","faults":[]}"#),
                "scenario.faults: fault plan: fault plan.seed must be an unsigned integer",
            ),
            // A world the address plan cannot hold (a panic inside
            // `Ddosim::new` until `validate()` learned the plan's size).
            (
                minimal(r#","world":{"devs":18446744073709551615}"#),
                "world too large: 18446744073709551615 devs",
            ),
            (
                minimal(r#","world":{"devs":4,"topology":"tiered:18446744073709551615:1000"}"#),
                "18446744073709551615 regions exceed the 8388607 nodes the address plan holds",
            ),
            (
                minimal(r#","world":{"devs":8388600},"defenses":[{"kind":"honeypot","count":5}]"#),
                "8388600 devs, 5 honeypots",
            ),
        ];
        for (text, fragment) in cases {
            match ScenarioPlan::parse(text) {
                Err(err) => assert!(err.to_string().contains(fragment), "plan {text:?}: {err}"),
                Ok(_) => panic!("plan {text:?} unexpectedly accepted"),
            }
        }
        let plan = ScenarioPlan::parse(&minimal(
            r#","seed":null,"attack":{"port":65535,"payload_bytes":4294967295},
               "rivals":{"count":4294967295},"defenses":[
                 {"kind":"honeypot","count":65535},{"kind":"cnc_takedown","backups":65535},
                 {"kind":"patch_rollout","waves":4294967295}]"#,
        ))
        .expect("every boundary value is in range");
        assert_eq!((plan.config().attack.port, plan.config().honeypots), (65535, 65535));
        assert_eq!(plan.rivals.expect("rivals").count, u32::MAX);
    }
}
