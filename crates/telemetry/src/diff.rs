//! Trace diff: find the *first* diverging entry between two runs.
//!
//! Byte-identity tests can only say "the runs differ"; this module says
//! *where*. It understands any of the telemetry documents (recorder
//! traces with an `events` array, captures with `records`, metrics with
//! `series`) and falls back to comparing the raw documents, so
//! `ddosim trace diff a.json b.json` works on whichever artifact the
//! run produced.

use djson::Json;

/// The first point at which two traces disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index into the entry arrays (0-based).
    pub index: usize,
    /// Entry on the A side, compact-serialized; `None` when A ended early.
    pub a: Option<String>,
    /// Entry on the B side, compact-serialized; `None` when B ended early.
    pub b: Option<String>,
}

impl Divergence {
    /// A human-readable multi-line report.
    pub fn render(&self) -> String {
        let show = |side: &Option<String>| match side {
            Some(s) => s.clone(),
            None => "<trace ended>".to_string(),
        };
        format!(
            "first divergence at entry {}\n  a: {}\n  b: {}",
            self.index,
            show(&self.a),
            show(&self.b)
        )
    }
}

/// Pulls the comparable entry list out of a telemetry document: the
/// `events`, `records`, or `series` array when present, otherwise the
/// document itself as a single entry.
fn entries(doc: &Json) -> Vec<&Json> {
    for key in ["events", "records", "series"] {
        if let Some(arr) = doc.get(key).and_then(Json::as_array) {
            return arr.iter().collect();
        }
    }
    if let Some(arr) = doc.as_array() {
        return arr.iter().collect();
    }
    vec![doc]
}

/// Compares two telemetry documents entry by entry; `None` means they
/// are identical (same entries in the same order, and — when both carry
/// one — the same schema).
fn first_divergence(a: &Json, b: &Json) -> Option<Divergence> {
    let (sa, sb) = (a.get("schema"), b.get("schema"));
    if let (Some(sa), Some(sb)) = (sa, sb) {
        if sa != sb {
            return Some(Divergence {
                index: 0,
                a: Some(sa.to_string_compact()),
                b: Some(sb.to_string_compact()),
            });
        }
    }
    let ea = entries(a);
    let eb = entries(b);
    for i in 0..ea.len().max(eb.len()) {
        match (ea.get(i), eb.get(i)) {
            (Some(x), Some(y)) if x == y => continue,
            (x, y) => {
                return Some(Divergence {
                    index: i,
                    a: x.map(|j| j.to_string_compact()),
                    b: y.map(|j| j.to_string_compact()),
                })
            }
        }
    }
    None
}

/// Parses two serialized traces and diffs them.
///
/// # Errors
///
/// Returns a message naming which side failed to parse.
pub fn diff_strs(a: &str, b: &str) -> Result<Option<Divergence>, String> {
    let ja = Json::parse(a).map_err(|e| format!("trace a: {e}"))?;
    let jb = Json::parse(b).map_err(|e| format!("trace b: {e}"))?;
    Ok(first_divergence(&ja, &jb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_traces_have_no_divergence() {
        let doc = r#"{"schema":"s","events":[{"t":1},{"t":2}]}"#;
        assert_eq!(diff_strs(doc, doc).expect("parse"), None);
    }

    #[test]
    fn pinpoints_first_differing_entry() {
        let a = r#"{"schema":"s","events":[{"t":1},{"t":2},{"t":3}]}"#;
        let b = r#"{"schema":"s","events":[{"t":1},{"t":9},{"t":3}]}"#;
        let d = diff_strs(a, b).expect("parse").expect("diverges");
        assert_eq!(d.index, 1);
        assert_eq!(d.a.as_deref(), Some(r#"{"t":2}"#));
        assert_eq!(d.b.as_deref(), Some(r#"{"t":9}"#));
        assert!(d.render().contains("entry 1"));
    }

    #[test]
    fn truncation_diverges_at_the_missing_entry() {
        let a = r#"{"events":[{"t":1},{"t":2}]}"#;
        let b = r#"{"events":[{"t":1}]}"#;
        let d = diff_strs(a, b).expect("parse").expect("diverges");
        assert_eq!(d.index, 1);
        assert_eq!(d.b, None);
        assert!(d.render().contains("<trace ended>"));
    }

    #[test]
    fn schema_mismatch_is_reported_first() {
        let a = r#"{"schema":"x","events":[]}"#;
        let b = r#"{"schema":"y","events":[]}"#;
        let d = diff_strs(a, b).expect("parse").expect("diverges");
        assert_eq!(d.a.as_deref(), Some(r#""x""#));
    }

    #[test]
    fn bare_documents_compare_wholesale() {
        assert!(diff_strs("1", "1").expect("parse").is_none());
        assert!(diff_strs("1", "2").expect("parse").is_some());
        assert_eq!(
            diff_strs("[1,2]", "[1,3]").expect("parse").expect("diverges").index,
            1
        );
    }

    #[test]
    fn parse_errors_name_the_side() {
        assert!(diff_strs("{", "1").unwrap_err().starts_with("trace a"));
        assert!(diff_strs("1", "{").unwrap_err().starts_with("trace b"));
    }
}
