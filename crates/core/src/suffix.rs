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
    config_from_json, config_to_json, nanos, opt_nanos, timed_lines, timed_lines_to_json,
};
use crate::config::SimulationConfig;
use djson::{Json, PlanError, ToJson, Val};
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

    fn read(v: Val<'_>) -> Result<SuffixSpec, PlanError> {
        v.fields(|f| {
            Ok(SuffixSpec {
                name: f.req("name")?,
                fork_seed: f.req("fork_seed")?,
                faults: f.req_with("faults", |v| v.embedded(faults::FaultPlan::from_json))?,
                admin_lines: f.req_with("admin_lines", timed_lines)?,
                horizon: f.req("horizon_nanos")?,
            })
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
                    Some(c) => config_to_json(c),
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
        Val::root(DOC, &json).fields(|f| {
            f.schema(SUFFIX_SCHEMA)?;
            Ok(SuffixPlan {
                fork_at: f.req("fork_at_nanos")?,
                suffixes: f.req_with("suffixes", |v| v.items("suffix", SuffixSpec::read))?,
                config: f.req_with("config", |v| {
                    v.nullable().map(|v| v.embedded(config_from_json)).transpose()
                })?,
            })
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
        assert!(err.contains("is missing 'fork_at_nanos'"), "{err}");
    }

    /// An embedded fault plan or configuration is as strict as a
    /// stand-alone one (before the one reader a suffix's plan skipped the
    /// unknown-field and range checks `FaultPlan::parse_plan` makes).
    #[test]
    fn rejection_table() {
        let plan = |suffix_extra: &str, faults: &str, config: &str| {
            format!(
                r#"{{"schema":"{SUFFIX_SCHEMA}","fork_at_nanos":5,"suffixes":[
                    {{"name":"a","fork_seed":0,"admin_lines":[],"horizon_nanos":null{suffix_extra},
                      "faults":{{"schema":"ddosim.faults.plan/1","faults":[{faults}]}}}}],
                   "config":{config}}}"#
            )
        };
        SuffixPlan::parse(&plan("", "", "null")).expect("the unmutated plan parses");
        let loss = |extra: &str| {
            format!(r#"{{"at_secs":1,"kind":"link_loss","node":"dev-0","probability":{extra}}}"#)
        };
        let cases = [
            (
                plan("", &loss("7.5"), "null"),
                "suffix #0.faults: fault plan: fault #0 (link_loss): probability 7.5 outside [0, 1]",
            ),
            (
                plan("", &loss(r#"0.5,"oops":1"#), "null"),
                "suffix #0.faults: fault plan: unknown field 'oops' in fault #0",
            ),
            (
                plan("", r#"{"at_nanos":"1","kind":"cnc_outage"}"#, "null"),
                "fault #0.at_nanos must be an unsigned integer",
            ),
            (plan(r#","typo":1"#, "", "null"), "unknown field 'typo' in suffix #0"),
            (plan(r#","fork_seed":1"#, "", "null"), "suffix #0.fork_seed appears twice"),
            (plan("", "", r#"{"devs":3}"#), "suffix plan.config: config: config is missing 'binary_mix'"),
            (plan("", "", "7"), "suffix plan.config: config: config must be an object"),
            (
                plan("", "", "null").replace(r#""admin_lines":[]"#, r#""admin_lines":[{"at_nanos":-1,"line":"x"}]"#),
                "line #0.at_nanos must be an unsigned integer",
            ),
            (
                plan("", "", "null").replace(r#""horizon_nanos":null"#, r#""horizon_nanos":"soon""#),
                "suffix #0.horizon_nanos must be an unsigned integer",
            ),
        ];
        for (text, fragment) in cases {
            match SuffixPlan::parse(&text) {
                Err(err) => assert!(err.to_string().contains(fragment), "{err}\n  wanted {fragment}"),
                Ok(_) => panic!("plan {text} unexpectedly accepted"),
            }
        }
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
