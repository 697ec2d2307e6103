//! Shared plumbing for schema-tagged plan documents.
//!
//! Every declarative plan in the workspace — fault plans
//! (`ddosim.faults.plan/1`), checkpoints (`ddosim.checkpoint/1`), suffix
//! trees (`ddosim.suffix/1`), and scenarios (`ddosim.scenario/1`) — is a
//! djson document with a `schema` tag. This module gives their parsers one
//! error type and one pair of validation helpers so rejection behavior
//! (bad syntax, wrong schema version, unknown fields, unresolvable node
//! targets) is uniform across all of them.

use djson::Json;
use std::fmt;
use std::time::Duration;

/// A plan-document rejection. `doc` names the document kind in messages
/// ("fault plan", "checkpoint", "suffix plan", "scenario").
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The text is not valid JSON.
    Syntax {
        /// Document kind for the message.
        doc: &'static str,
        /// The underlying parse error.
        message: String,
    },
    /// The `schema` tag is missing or names an unsupported version.
    Schema {
        /// Document kind for the message.
        doc: &'static str,
        /// The tag found, or `None` if absent.
        found: Option<String>,
        /// The tag this parser accepts.
        expected: &'static str,
    },
    /// An object carries a field the schema does not define (usually a
    /// typo; silently ignoring it would make the plan lie).
    UnknownField {
        /// Document kind for the message.
        doc: &'static str,
        /// Which object the field appeared in ("scenario.world", …).
        context: String,
        /// The offending field name.
        field: String,
    },
    /// The plan references a node name the assembled world doesn't have.
    BadTarget {
        /// Document kind for the message.
        doc: &'static str,
        /// The unresolvable node name.
        target: String,
    },
    /// A field exists but fails shape or range validation.
    Invalid {
        /// Document kind for the message.
        doc: &'static str,
        /// What is wrong.
        message: String,
    },
}

impl PlanError {
    /// Wraps a JSON syntax error.
    pub fn syntax(doc: &'static str, err: impl fmt::Display) -> Self {
        PlanError::Syntax { doc, message: err.to_string() }
    }

    /// Builds a shape/range validation error.
    pub fn invalid(doc: &'static str, message: impl Into<String>) -> Self {
        PlanError::Invalid { doc, message: message.into() }
    }

    /// Builds an unresolvable-node-target error.
    pub fn bad_target(doc: &'static str, target: impl Into<String>) -> Self {
        PlanError::BadTarget { doc, target: target.into() }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Syntax { doc, message } => write!(f, "{doc}: {message}"),
            PlanError::Schema { doc, found: Some(found), expected } => {
                write!(f, "unsupported {doc} schema '{found}' (expected '{expected}')")
            }
            PlanError::Schema { doc, found: None, expected } => {
                write!(f, "{doc} missing 'schema' (expected '{expected}')")
            }
            PlanError::UnknownField { doc, context, field } => {
                write!(f, "{doc}: unknown field '{field}' in {context}")
            }
            PlanError::BadTarget { doc, target } => {
                write!(f, "{doc} targets unknown node '{target}'")
            }
            PlanError::Invalid { doc, message } => write!(f, "{doc}: {message}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<PlanError> for String {
    fn from(e: PlanError) -> String {
        e.to_string()
    }
}

/// Checks the document's `schema` tag against the version this parser
/// accepts.
///
/// # Errors
///
/// [`PlanError::Schema`] when the tag is missing, non-string, or names a
/// different version.
pub fn check_schema(value: &Json, doc: &'static str, expected: &'static str) -> Result<(), PlanError> {
    match value.get("schema").and_then(Json::as_str) {
        Some(found) if found == expected => Ok(()),
        Some(found) => Err(PlanError::Schema { doc, found: Some(found.to_owned()), expected }),
        None => Err(PlanError::Schema { doc, found: None, expected }),
    }
}

/// Rejects fields outside `allowed` on an object (and rejects non-object
/// values outright). `context` names the object in the error ("scenario",
/// "scenario.world", "fault #3", …).
///
/// # Errors
///
/// [`PlanError::UnknownField`] naming the first undefined field, or
/// [`PlanError::Invalid`] when `value` is not an object.
pub fn reject_unknown_fields(
    value: &Json,
    doc: &'static str,
    context: &str,
    allowed: &[&str],
) -> Result<(), PlanError> {
    let Json::Obj(members) = value else {
        return Err(PlanError::invalid(doc, format!("{context} must be an object")));
    };
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(PlanError::UnknownField {
                doc,
                context: context.to_owned(),
                field: key.clone(),
            });
        }
    }
    Ok(())
}

/// Converts a number of seconds that arrived from outside the program (a
/// plan field, a command-line flag, a wire request) into a [`Duration`].
/// `name` is the field or flag, quoted back in the error. The simulation
/// clock counts `u64` nanoseconds, so anything beyond that is refused
/// here rather than wrapping when the duration is serialised.
///
/// # Errors
///
/// A message naming `name` when `secs` is NaN, negative, too large for
/// the simulation clock, or — unless `zero_ok` — rounds to zero.
pub fn checked_secs(name: &str, secs: f64, zero_ok: bool) -> Result<Duration, String> {
    match Duration::try_from_secs_f64(secs) {
        Ok(d) if d.as_nanos() <= u128::from(u64::MAX) && (zero_ok || !d.is_zero()) => Ok(d),
        _ => Err(format!(
            "{name} must be a {} number of seconds the simulation clock can hold, got {secs}",
            if zero_ok { "non-negative" } else { "positive" }
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_secs_table() {
        assert_eq!(checked_secs("t", 2.5, false), Ok(Duration::from_millis(2500)));
        assert_eq!(checked_secs("t", 0.0, true), Ok(Duration::ZERO));
        assert_eq!(checked_secs("t", 1.8e10, true), Ok(Duration::from_secs(18_000_000_000)));
        for (secs, zero_ok, fragment) in [
            (1e20, true, "non-negative"),
            (1.9e10, true, "simulation clock can hold"),
            (f64::NAN, true, "got NaN"),
            (f64::INFINITY, false, "got inf"),
            (-1.0, true, "got -1"),
            (0.0, false, "positive"),
            (1e-12, false, "positive"),
        ] {
            let err = checked_secs("--flag", secs, zero_ok).expect_err("must be refused");
            assert!(err.starts_with("--flag must be"), "{err}");
            assert!(err.contains(fragment), "{secs}: {err}");
        }
    }

    #[test]
    fn display_formats_each_variant() {
        let cases: Vec<(PlanError, &str)> = vec![
            (
                PlanError::syntax("fault plan", "unexpected end of input"),
                "fault plan: unexpected end of input",
            ),
            (
                PlanError::Schema {
                    doc: "fault plan",
                    found: Some("other/9".into()),
                    expected: "ddosim.faults.plan/1",
                },
                "unsupported fault plan schema 'other/9' (expected 'ddosim.faults.plan/1')",
            ),
            (
                PlanError::Schema { doc: "scenario", found: None, expected: "ddosim.scenario/1" },
                "scenario missing 'schema' (expected 'ddosim.scenario/1')",
            ),
            (
                PlanError::UnknownField {
                    doc: "scenario",
                    context: "scenario.world".into(),
                    field: "devz".into(),
                },
                "scenario: unknown field 'devz' in scenario.world",
            ),
            (
                PlanError::bad_target("fault plan", "dev-99"),
                "fault plan targets unknown node 'dev-99'",
            ),
            (
                PlanError::invalid("suffix plan", "fork_at_nanos must be a u64"),
                "suffix plan: fork_at_nanos must be a u64",
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn check_schema_table() {
        let doc = |s: &str| Json::parse(s).unwrap();
        assert!(check_schema(&doc(r#"{"schema":"x/1"}"#), "plan", "x/1").is_ok());
        let cases = [
            (r#"{"schema":"x/2"}"#, "unsupported plan schema 'x/2'"),
            (r#"{"schema": 7}"#, "plan missing 'schema'"),
            (r#"{}"#, "plan missing 'schema'"),
        ];
        for (text, fragment) in cases {
            let err = check_schema(&doc(text), "plan", "x/1").expect_err(text);
            assert!(err.to_string().contains(fragment), "{text}: {err}");
        }
    }

    #[test]
    fn unknown_field_table() {
        let doc = |s: &str| Json::parse(s).unwrap();
        let allowed = ["a", "b"];
        assert!(reject_unknown_fields(&doc(r#"{"a":1,"b":2}"#), "plan", "top", &allowed).is_ok());
        assert!(reject_unknown_fields(&doc(r#"{}"#), "plan", "top", &allowed).is_ok());
        let err = reject_unknown_fields(&doc(r#"{"a":1,"c":3}"#), "plan", "top", &allowed)
            .expect_err("unknown field");
        assert_eq!(err.to_string(), "plan: unknown field 'c' in top");
        let err =
            reject_unknown_fields(&doc("[1,2]"), "plan", "top", &allowed).expect_err("non-object");
        assert!(err.to_string().contains("top must be an object"));
    }
}
