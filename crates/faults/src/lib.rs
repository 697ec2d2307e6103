//! # faults — deterministic fault-injection plans
//!
//! A [`FaultPlan`] is a schema-tagged djson document (like the telemetry
//! configs) that schedules faults on the simulation clock: link down/up
//! flaps, per-link corruption probability, hard node crashes, C&C outage
//! windows, and firmware container kills. The plan itself is pure data —
//! targets are node *names* ("dev-3", "attacker", "tserver") resolved by
//! `ddosim-core` when the instance is assembled, so a plan file is
//! portable across runs and sweep points.
//!
//! Determinism contract: the same simulation seed plus the same plan
//! yields byte-identical telemetry documents, and an empty plan is a
//! strict no-op — it schedules nothing, draws nothing, and leaves every
//! RNG stream of a plan-free run untouched.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod plan;

pub use plan::{checked_secs, Fields, PlanError, Read, Val};

use djson::{Json, ToJson};
use std::time::Duration;

/// Schema tag carried by every serialized fault plan.
pub const FAULT_PLAN_SCHEMA: &str = "ddosim.faults.plan/1";

/// Document name in every [`PlanError`] the plan parser emits.
const DOC: &str = "fault plan";

/// What to inject. Targets are node names as assigned at assembly time
/// ("dev-0".."dev-N", "attacker", "tserver"); link faults apply to the
/// target node's access link(s).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Administratively cut the node's access link: queued frames drop,
    /// in-flight frames never arrive, and everything offered while down
    /// is dropped at enqueue.
    LinkDown {
        /// Target node name.
        node: String,
    },
    /// Restore the node's access link after a [`FaultKind::LinkDown`].
    LinkUp {
        /// Target node name.
        node: String,
    },
    /// Set the per-frame corruption/loss probability of the node's access
    /// link (the wired extension of Wi-Fi's `loss_probability`).
    LinkLoss {
        /// Target node name.
        node: String,
        /// Loss probability in `[0, 1]`; `0.0` restores a clean link.
        probability: f64,
    },
    /// Hard node crash: the container's volatile state dies instantly
    /// (non-daemon processes killed, `/tmp` wiped) and the node goes dark
    /// with no scheduled recovery — unlike churn's graceful reboot cycle,
    /// nothing runs a shutdown path and nothing brings the node back
    /// unless the plan contains a matching [`FaultKind::NodeRestore`].
    NodeCrash {
        /// Target node name.
        node: String,
    },
    /// Power a crashed node back on (its firmware daemons restart).
    NodeRestore {
        /// Target node name.
        node: String,
    },
    /// Take the whole attacker host down — C&C, file server, and exploit
    /// services all vanish and every bot connection dies. With a duration
    /// the host restarts after the window; without one it stays down.
    CncOutage {
        /// Outage window; `None` means the C&C never comes back.
        duration: Option<Duration>,
    },
    /// Kill the node's firmware container in place (OOM-killer model):
    /// non-daemon processes die and volatile state is wiped, but the node
    /// itself stays on the network and its daemons keep running.
    ContainerKill {
        /// Target node name.
        node: String,
    },
}

impl FaultKind {
    /// Stable wire name of the kind (the `"kind"` field in plan files).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "link_down",
            FaultKind::LinkUp { .. } => "link_up",
            FaultKind::LinkLoss { .. } => "link_loss",
            FaultKind::NodeCrash { .. } => "node_crash",
            FaultKind::NodeRestore { .. } => "node_restore",
            FaultKind::CncOutage { .. } => "cnc_outage",
            FaultKind::ContainerKill { .. } => "container_kill",
        }
    }

    /// The targeted node name, if the kind targets one.
    pub fn node(&self) -> Option<&str> {
        match self {
            FaultKind::LinkDown { node }
            | FaultKind::LinkUp { node }
            | FaultKind::LinkLoss { node, .. }
            | FaultKind::NodeCrash { node }
            | FaultKind::NodeRestore { node }
            | FaultKind::ContainerKill { node } => Some(node),
            FaultKind::CncOutage { .. } => None,
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires, on the simulation clock.
    pub at: Duration,
    /// What to inject.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Deterministic one-line description (flight-recorder detail).
    pub fn describe(&self) -> String {
        match &self.kind {
            FaultKind::LinkDown { node } => format!("link_down {node}"),
            FaultKind::LinkUp { node } => format!("link_up {node}"),
            FaultKind::LinkLoss { node, probability } => {
                format!("link_loss {node} p={probability}")
            }
            FaultKind::NodeCrash { node } => format!("node_crash {node}"),
            FaultKind::NodeRestore { node } => format!("node_restore {node}"),
            FaultKind::CncOutage { duration } => match duration {
                Some(d) => format!("cnc_outage for {}s", d.as_secs_f64()),
                None => "cnc_outage permanent".to_owned(),
            },
            FaultKind::ContainerKill { node } => format!("container_kill {node}"),
        }
    }
}

impl ToJson for FaultEvent {
    fn to_json(&self) -> Json {
        // The writer emits exact nanoseconds so a plan round-trips without
        // float loss; hand-written plans may use "at_secs" instead.
        let mut fields = vec![
            ("at_nanos", Json::U64(self.at.as_nanos() as u64)),
            ("kind", Json::Str(self.kind.name().into())),
        ];
        if let Some(node) = self.kind.node() {
            fields.push(("node", Json::Str(node.into())));
        }
        match &self.kind {
            FaultKind::LinkLoss { probability, .. } => {
                fields.push(("probability", Json::F64(*probability)));
            }
            FaultKind::CncOutage { duration: Some(d) } => {
                fields.push(("duration_secs", Json::F64(d.as_secs_f64())));
            }
            _ => {}
        }
        Json::obj(fields)
    }
}

impl FaultEvent {
    /// Reads one `faults[i]` object. Every member a fault may carry is
    /// asked for whatever the kind, so all of them are allowed on all
    /// kinds; the kind decides which must be there.
    fn read(v: Val<'_>) -> Result<Self, PlanError> {
        v.fields(|f| {
            let at = match (f.opt("at_nanos")?, f.secs("at_secs")?) {
                (Some(at), None) | (None, Some(at)) => at,
                (Some(_), Some(_)) => return Err(v.invalid("has both 'at_nanos' and 'at_secs'")),
                (None, None) => return Err(v.invalid("is missing 'at_nanos' or 'at_secs'")),
            };
            let node = f.opt::<String>("node")?;
            let node = || node.ok_or_else(|| v.invalid("is missing 'node'"));
            let probability = f.opt("probability")?;
            let duration = f.secs("duration_secs")?;
            let kind = match f.str("kind")? {
                "link_down" => FaultKind::LinkDown { node: node()? },
                "link_up" => FaultKind::LinkUp { node: node()? },
                "link_loss" => FaultKind::LinkLoss {
                    node: node()?,
                    probability: probability
                        .ok_or_else(|| v.invalid("is missing 'probability'"))?,
                },
                "node_crash" => FaultKind::NodeCrash { node: node()? },
                "node_restore" => FaultKind::NodeRestore { node: node()? },
                "cnc_outage" => FaultKind::CncOutage { duration },
                "container_kill" => FaultKind::ContainerKill { node: node()? },
                other => {
                    let what = format_args!("is an unknown fault kind '{other}'");
                    return Err(f.invalid("kind", what));
                }
            };
            Ok(FaultEvent { at, kind })
        })
    }
}

/// A complete, ordered fault plan.
///
/// `seed` salts the fault RNG (the stream behind probabilistic faults such
/// as [`FaultKind::LinkLoss`]), so two plans differing only in seed sample
/// different loss patterns under the same simulation seed. Faults fire in
/// plan order when several share an instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Salt for the fault RNG (xor-folded with the simulation seed).
    pub seed: u64,
    /// The scheduled faults.
    pub faults: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Whether the plan schedules nothing (the guaranteed-no-op case).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Validates field ranges (probabilities, target names).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending fault.
    pub fn validate(&self) -> Result<(), String> {
        for (i, f) in self.faults.iter().enumerate() {
            if let Some(node) = f.kind.node() {
                if node.is_empty() {
                    return Err(format!("fault #{i} ({}): empty node name", f.kind.name()));
                }
            }
            if let FaultKind::LinkLoss { probability, .. } = f.kind {
                if !probability.is_finite() || !(0.0..=1.0).contains(&probability) {
                    return Err(format!(
                        "fault #{i} (link_loss): probability {probability} outside [0, 1]"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Reads a plan from its parsed document — the one reader behind
    /// [`FaultPlan::parse_plan`] and every document that embeds a plan
    /// (scenario, configuration, suffix): schema tag, unknown-field
    /// rejection at every object level, then field-range validation.
    ///
    /// # Errors
    ///
    /// A typed [`PlanError`] naming the first problem.
    pub fn from_json(json: &Json) -> Result<Self, PlanError> {
        let plan = Val::root(DOC, json).fields(|f| {
            f.schema(FAULT_PLAN_SCHEMA)?;
            Ok(FaultPlan {
                seed: f.opt("seed")?.unwrap_or(0),
                faults: f.req_with("faults", |v| v.items("fault", FaultEvent::read))?,
            })
        })?;
        plan.validate().map_err(|m| PlanError::invalid(DOC, m))?;
        Ok(plan)
    }

    /// Parses a plan from its djson text ([`FaultPlan::from_json`]).
    ///
    /// # Errors
    ///
    /// A typed [`PlanError`] naming the first problem.
    pub fn parse_plan(text: &str) -> Result<Self, PlanError> {
        Self::from_json(&Json::parse(text).map_err(|e| PlanError::syntax(DOC, e))?)
    }

    /// Serializes the plan as a pretty-printed, schema-tagged document.
    pub fn to_doc(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

impl ToJson for FaultPlan {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str(FAULT_PLAN_SCHEMA.into())),
            ("seed", Json::U64(self.seed)),
            (
                "faults",
                Json::Arr(self.faults.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            seed: 9,
            faults: vec![
                FaultEvent {
                    at: Duration::from_secs(40),
                    kind: FaultKind::LinkDown { node: "dev-0".into() },
                },
                FaultEvent {
                    at: Duration::from_millis(55_500),
                    kind: FaultKind::LinkUp { node: "dev-0".into() },
                },
                FaultEvent {
                    at: Duration::from_secs(20),
                    kind: FaultKind::LinkLoss { node: "dev-1".into(), probability: 0.25 },
                },
                FaultEvent {
                    at: Duration::from_secs(30),
                    kind: FaultKind::NodeCrash { node: "dev-2".into() },
                },
                FaultEvent {
                    at: Duration::from_secs(50),
                    kind: FaultKind::NodeRestore { node: "dev-2".into() },
                },
                FaultEvent {
                    at: Duration::from_secs(25),
                    kind: FaultKind::CncOutage { duration: Some(Duration::from_secs(15)) },
                },
                FaultEvent {
                    at: Duration::from_secs(60),
                    kind: FaultKind::ContainerKill { node: "dev-3".into() },
                },
            ],
        }
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = sample_plan();
        let doc = plan.to_doc();
        let back = FaultPlan::parse_plan(&doc).expect("round trip");
        assert_eq!(back, plan);
    }

    #[test]
    fn serialization_is_deterministic() {
        let plan = sample_plan();
        assert_eq!(plan.to_doc(), plan.to_doc());
        assert_eq!(
            plan.to_json().to_string_compact(),
            plan.to_json().to_string_compact()
        );
    }

    #[test]
    fn hand_written_at_secs_is_accepted() {
        let doc = format!(
            r#"{{"schema":"{FAULT_PLAN_SCHEMA}","faults":[
                {{"at_secs": 12.5, "kind": "link_down", "node": "dev-4"}},
                {{"at_secs": 20, "kind": "cnc_outage", "duration_secs": 5}}
            ]}}"#
        );
        let plan = FaultPlan::parse_plan(&doc).expect("parses");
        assert_eq!(plan.seed, 0, "seed defaults to 0");
        assert_eq!(plan.faults[0].at, Duration::from_millis(12_500));
        assert_eq!(
            plan.faults[1].kind,
            FaultKind::CncOutage { duration: Some(Duration::from_secs(5)) }
        );
    }

    #[test]
    fn schema_and_range_errors_are_reported() {
        assert!(FaultPlan::parse_plan("{").is_err(), "syntax error");
        assert!(
            FaultPlan::parse_plan(r#"{"schema":"other/1","faults":[]}"#)
                .expect_err("schema")
                .to_string()
                .contains("unsupported fault plan schema"),
        );
        let bad_p = format!(
            r#"{{"schema":"{FAULT_PLAN_SCHEMA}","faults":[
                {{"at_secs": 1, "kind": "link_loss", "node": "dev-0", "probability": 1.5}}
            ]}}"#
        );
        assert!(FaultPlan::parse_plan(&bad_p).expect_err("range").to_string().contains("outside [0, 1]"));
        let unknown = format!(
            r#"{{"schema":"{FAULT_PLAN_SCHEMA}","faults":[{{"at_secs":1,"kind":"meteor"}}]}}"#
        );
        assert!(FaultPlan::parse_plan(&unknown)
            .expect_err("kind")
            .to_string()
            .contains("unknown fault kind"));
        let no_node = format!(
            r#"{{"schema":"{FAULT_PLAN_SCHEMA}","faults":[{{"at_secs":1,"kind":"link_down"}}]}}"#
        );
        assert!(FaultPlan::parse_plan(&no_node).is_err(), "missing node");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let top = format!(r#"{{"schema":"{FAULT_PLAN_SCHEMA}","faults":[],"extra":1}}"#);
        assert!(FaultPlan::parse_plan(&top)
            .expect_err("top-level")
            .to_string()
            .contains("unknown field 'extra' in fault plan"));
        let nested = format!(
            r#"{{"schema":"{FAULT_PLAN_SCHEMA}","faults":[
                {{"at_secs":1,"kind":"link_down","node":"dev-0","oops":true}}
            ]}}"#
        );
        assert!(FaultPlan::parse_plan(&nested)
            .expect_err("per-fault")
            .to_string()
            .contains("unknown field 'oops' in fault #0"));
    }

    /// A mistyped optional member is an error, never its default; a
    /// member given twice is refused; every member is allowed on every
    /// kind, as it always was.
    #[test]
    fn input_hole_table() {
        let plan = |top: &str, fault: &str| {
            format!(r#"{{"schema":"{FAULT_PLAN_SCHEMA}"{top},"faults":[{{"kind":"cnc_outage"{fault}}}]}}"#)
        };
        FaultPlan::parse_plan(&plan(r#","seed":null"#, r#","at_secs":1,"node":"x","probability":0.5"#))
            .expect("null is absent; spare members are allowed on every kind");
        for (text, fragment) in [
            (plan(r#","seed":"7""#, r#","at_secs":1"#), "fault plan.seed must be an unsigned integer"),
            (plan(r#","seed":-1"#, r#","at_secs":1"#), "fault plan.seed must be an unsigned integer"),
            (plan("", r#","at_secs":1,"at_secs":2"#), "fault #0.at_secs appears twice"),
            (plan("", r#","at_secs":1,"at_nanos":2"#), "fault #0 has both 'at_nanos' and 'at_secs'"),
            (plan("", ""), "fault #0 is missing 'at_nanos' or 'at_secs'"),
            (plan("", r#","at_nanos":1.5"#), "fault #0.at_nanos must be an unsigned integer"),
            (plan("", r#","at_secs":1e20"#), "fault #0.at_secs must be a non-negative number of seconds"),
            (plan("", r#","at_secs":1,"duration_secs":"5""#), "fault #0.duration_secs must be a number"),
            (plan("", r#","at_secs":1,"probability":"high""#), "fault #0.probability must be a number"),
            (plan("", r#","at_secs":1,"node":7"#), "fault #0.node must be a string"),
        ] {
            let err = FaultPlan::parse_plan(&text).expect_err(&text).to_string();
            assert!(err.contains(fragment), "{text}: {err}");
        }
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        assert!(!sample_plan().is_empty());
        FaultPlan::default().validate().expect("empty plan is valid");
    }

    #[test]
    fn describe_is_stable() {
        let plan = sample_plan();
        assert_eq!(plan.faults[0].describe(), "link_down dev-0");
        assert_eq!(plan.faults[2].describe(), "link_loss dev-1 p=0.25");
        assert_eq!(plan.faults[5].describe(), "cnc_outage for 15s");
        assert_eq!(
            FaultEvent { at: Duration::ZERO, kind: FaultKind::CncOutage { duration: None } }
                .describe(),
            "cnc_outage permanent"
        );
    }
}
