//! Scenario-tree suffixes: the `ddosim.suffix/1` descriptor format.
//!
//! A scenario tree shares one expensive `0 → T` prefix across K
//! alternative futures: run the world once to the fork point, deep-clone
//! it in memory ([`crate::instance::Ddosim::fork_with_seed`]), apply each
//! suffix's divergence (a fork seed, extra faults, extra attacker
//! commands, a new horizon), and run the forks in parallel — the
//! prefix-sharing analogue of KV-cache reuse. A [`SuffixPlan`] is the
//! serialized form: the fork point plus one [`SuffixSpec`] per branch.

use crate::checkpoint::{
    field, nanos, nanos_field, opt_nanos, opt_nanos_field, str_field, timed_lines_field,
    timed_lines_to_json, u64_field,
};
use crate::config::SimulationConfig;
use djson::{FromJson, Json, ToJson};
use faults::{check_schema, reject_unknown_fields, PlanError};
use std::time::Duration;

/// Schema tag written into every serialized suffix plan.
pub const SUFFIX_SCHEMA: &str = "ddosim.suffix/1";

/// One branch of a scenario tree: how a fork of the shared prefix
/// diverges from the parent's future.
#[derive(Debug, Clone, PartialEq)]
pub struct SuffixSpec {
    /// Row label in sweep output.
    pub name: String,
    /// Divergence seed: 0 replays the parent's future byte-for-byte;
    /// any other value re-derives the fork's RNG streams.
    pub fork_seed: u64,
    /// Extra faults layered onto the fork (absolute times; entries dated
    /// before the fork point fire immediately).
    pub faults: faults::FaultPlan,
    /// Extra attacker-console commands, `(at, line)` with absolute times
    /// (a fresh admin session telnets into the C&C on the fork).
    pub admin_lines: Vec<(Duration, String)>,
    /// Overrides the simulation horizon for this branch, when set.
    pub horizon: Option<Duration>,
}

impl SuffixSpec {
    /// A do-nothing suffix: seed 0, no extra faults or commands — the
    /// branch that must reproduce the parent's future exactly.
    pub fn identity(name: impl Into<String>) -> Self {
        SuffixSpec {
            name: name.into(),
            fork_seed: 0,
            faults: faults::FaultPlan::default(),
            admin_lines: Vec::new(),
            horizon: None,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("fork_seed", Json::U64(self.fork_seed)),
            ("faults", self.faults.to_json()),
            ("admin_lines", timed_lines_to_json(&self.admin_lines)),
            ("horizon_nanos", opt_nanos(self.horizon)),
        ])
    }

    fn from_json(json: &Json) -> Result<SuffixSpec, String> {
        Ok(SuffixSpec {
            name: str_field(json, "name")?.to_owned(),
            fork_seed: u64_field(json, "fork_seed")?,
            faults: faults::FaultPlan::from_json(field(json, "faults")?)
                .map_err(|e| format!("fault plan: {e}"))?,
            admin_lines: timed_lines_field(json, "admin_lines")?,
            horizon: opt_nanos_field(json, "horizon_nanos")?,
        })
    }
}

/// A full scenario tree: the fork point, the branches, and (optionally)
/// the base configuration the prefix runs under.
#[derive(Debug, Clone)]
pub struct SuffixPlan {
    /// Simulated time of the shared prefix's end (the fork point).
    pub fork_at: Duration,
    /// One entry per branch.
    pub suffixes: Vec<SuffixSpec>,
    /// The base world's configuration; `None` means "whatever world the
    /// caller already built" (the CLI fills it from its own flags).
    pub config: Option<SimulationConfig>,
}

impl SuffixPlan {
    /// Serializes the plan.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(SUFFIX_SCHEMA.into())),
            ("fork_at_nanos", nanos(self.fork_at)),
            (
                "suffixes",
                Json::Arr(self.suffixes.iter().map(SuffixSpec::to_json).collect()),
            ),
            (
                "config",
                match &self.config {
                    None => Json::Null,
                    Some(c) => crate::checkpoint::config_to_json(c),
                },
            ),
        ])
    }

    /// Parses a serialized plan.
    ///
    /// # Errors
    ///
    /// The typed [`PlanError`] shared by every schema-tagged plan document
    /// in the workspace, describing exactly what is wrong: invalid JSON, a
    /// missing, mistyped, or unknown field, or an unknown schema tag.
    /// Never panics on corrupted or truncated input.
    pub fn parse(text: &str) -> Result<SuffixPlan, PlanError> {
        const DOC: &str = "suffix plan";
        let json = Json::parse(text)
            .map_err(|e| PlanError::syntax(DOC, format!("is not valid JSON ({e})")))?;
        check_schema(&json, DOC, SUFFIX_SCHEMA)?;
        reject_unknown_fields(
            &json,
            DOC,
            "suffix plan",
            &["schema", "fork_at_nanos", "suffixes", "config"],
        )?;
        let invalid = |m: String| PlanError::invalid(DOC, m);
        let fork_at = nanos_field(&json, "fork_at_nanos").map_err(invalid)?;
        let suffixes_json = field(&json, "suffixes")
            .map_err(invalid)?
            .as_array()
            .ok_or_else(|| PlanError::invalid(DOC, "field 'suffixes' is not an array"))?;
        let mut suffixes = Vec::with_capacity(suffixes_json.len());
        for (i, s) in suffixes_json.iter().enumerate() {
            reject_unknown_fields(
                s,
                DOC,
                &format!("suffix #{i}"),
                &["name", "fork_seed", "faults", "admin_lines", "horizon_nanos"],
            )?;
            suffixes.push(SuffixSpec::from_json(s).map_err(invalid)?);
        }
        let config_json = field(&json, "config").map_err(invalid)?;
        let config = if config_json.is_null() {
            None
        } else {
            Some(crate::checkpoint::config_from_json(config_json).map_err(invalid)?)
        };
        Ok(SuffixPlan {
            fork_at,
            suffixes,
            config,
        })
    }

    /// The serialized text form (pretty, byte-stable for equal content).
    pub fn to_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> SuffixPlan {
        SuffixPlan {
            fork_at: Duration::from_secs(30),
            suffixes: vec![
                SuffixSpec::identity("baseline"),
                SuffixSpec {
                    name: "late-outage".to_owned(),
                    fork_seed: 7,
                    faults: faults::FaultPlan {
                        seed: 3,
                        faults: vec![faults::FaultEvent {
                            at: Duration::from_secs(40),
                            kind: faults::FaultKind::CncOutage {
                                duration: Some(Duration::from_secs(5)),
                            },
                        }],
                    },
                    admin_lines: vec![(Duration::from_secs(42), "status".to_owned())],
                    horizon: Some(Duration::from_secs(90)),
                },
            ],
            config: None,
        }
    }

    #[test]
    fn plan_round_trips_byte_stable() {
        let plan = sample_plan();
        let text = plan.to_string_pretty();
        let back = SuffixPlan::parse(&text).expect("parses");
        assert_eq!(back.fork_at, plan.fork_at);
        assert_eq!(back.suffixes, plan.suffixes);
        assert!(back.config.is_none());
        assert_eq!(back.to_string_pretty(), text);
    }

    #[test]
    fn plan_with_config_round_trips() {
        let plan = SuffixPlan {
            config: Some(SimulationConfig::default()),
            ..sample_plan()
        };
        let text = plan.to_string_pretty();
        let back = SuffixPlan::parse(&text).expect("parses");
        assert_eq!(back.suffixes, plan.suffixes);
        assert!(back.config.is_some());
        assert_eq!(back.to_string_pretty(), text);
    }

    #[test]
    fn corrupted_input_gives_clear_errors() {
        let parse_err = |text: &str| SuffixPlan::parse(text).unwrap_err().to_string();
        let err = parse_err("{\"schema\": \"ddosim.suf");
        assert!(err.contains("not valid JSON"), "{err}");
        let err = parse_err("{\"schema\": \"something/9\"}");
        assert!(err.contains("schema"), "{err}");
        let err = parse_err(&format!("{{\"schema\": \"{SUFFIX_SCHEMA}\"}}"));
        assert!(err.contains("missing field"), "{err}");
    }

    #[test]
    fn identity_suffix_is_empty() {
        let s = SuffixSpec::identity("x");
        assert_eq!(s.fork_seed, 0);
        assert!(s.faults.is_empty());
        assert!(s.admin_lines.is_empty());
        assert_eq!(s.horizon, None);
    }
}
