//! Shared plumbing for schema-tagged documents that arrive from outside.
//!
//! Every declarative document in the workspace — fault plans
//! (`ddosim.faults.plan/1`), checkpoints (`ddosim.checkpoint/1`) and the
//! configuration document they embed, suffix trees (`ddosim.suffix/1`),
//! scenarios (`ddosim.scenario/1`), grid sweeps (`ddosim.sweepgrid/1`),
//! `ddosim.serve/1` request lines and flight-recorder traces
//! (`ddosim.telemetry.recorder/1`) with the events in them — is a JSON
//! object read through the one cursor defined here ([`Val`] →
//! [`Fields`]), with one error type ([`PlanError`]). The cursor knows
//! three things for all of them:
//!
//! * **where** an object sits (`scenario.attack`, `fault #3`): a parent
//!   link, rendered only when an error is;
//! * **which members were asked for**: [`Val::fields`] runs the reading
//!   closure and then rejects the first member it never named, so the
//!   allowed set *is* the set of reads — and a member present twice is an
//!   error, not first-wins;
//! * **how outside numbers become inside ones**: integers through
//!   `TryFrom<u64>` ([`Read`]), seconds through [`checked_secs`], words
//!   through their vocabulary's own `parse` ([`Val::word`]).
//!
//! An embedded document ([`Val::embedded`]) goes through the same
//! `from_json` its stand-alone form does, so it is exactly as strict.

use crate::Json;
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

/// Where a value sits in its document. Borrowed all the way up, so
/// reading allocates nothing; [`fmt::Display`] renders it for an error.
#[derive(Debug, Clone, Copy)]
enum At<'a> {
    /// The document itself, by name ("scenario", "fault plan").
    Root(&'a str),
    /// A member of the object at the parent ("scenario.attack").
    Member(&'a At<'a>, &'a str),
    /// An array element, by the array's item label ("fault #3").
    Item(&'a str, usize),
}

impl fmt::Display for At<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            At::Root(name) => f.write_str(name),
            At::Member(parent, key) => write!(f, "{parent}.{key}"),
            At::Item(label, index) => write!(f, "{label} #{index}"),
        }
    }
}

/// One JSON value that arrived from outside, with where it sits. Every
/// fallible method returns a [`PlanError`] that names that place.
#[derive(Debug, Clone, Copy)]
pub struct Val<'a> {
    doc: &'static str,
    at: At<'a>,
    json: &'a Json,
}

impl<'a> Val<'a> {
    /// The whole document; `doc` names it in every error.
    pub fn root(doc: &'static str, json: &'a Json) -> Self {
        Val { doc, at: At::Root(doc), json }
    }

    /// An error about this value: "`<where>` `<what>`".
    pub fn invalid(self, what: impl fmt::Display) -> PlanError {
        PlanError::invalid(self.doc, format!("{} {what}", self.at))
    }

    /// Another parser's complaint about this value: "`<where>`: `<why>`".
    fn foreign(self, why: impl fmt::Display) -> PlanError {
        PlanError::invalid(self.doc, format!("{}: {why}", self.at))
    }

    /// `None` for `null`.
    pub fn nullable(self) -> Option<Self> {
        (!self.json.is_null()).then_some(self)
    }

    /// The value as a string slice.
    pub fn str(self) -> Result<&'a str, PlanError> {
        self.json.as_str().ok_or_else(|| self.invalid("must be a string"))
    }

    /// A word of a vocabulary, through that vocabulary's own parser.
    pub fn word<T, E: fmt::Display>(
        self,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, PlanError> {
        parse(self.str()?).map_err(|e| self.foreign(e))
    }

    /// A whole document embedded here, through the `from_json` its
    /// stand-alone form parses with.
    pub fn embedded<T, E: fmt::Display>(
        self,
        from_json: impl FnOnce(&Json) -> Result<T, E>,
    ) -> Result<T, PlanError> {
        from_json(self.json).map_err(|e| self.foreign(e))
    }

    /// The value as an array, each element read by `read`; `label` names
    /// an element in errors ("fault" gives "fault #3").
    pub fn items<T>(
        self,
        label: &str,
        mut read: impl FnMut(Val<'_>) -> Result<T, PlanError>,
    ) -> Result<Vec<T>, PlanError> {
        let items = self.json.as_array().ok_or_else(|| self.invalid("must be an array"))?;
        let item = |(i, json)| read(Val { doc: self.doc, at: At::Item(label, i), json });
        items.iter().enumerate().map(item).collect()
    }

    /// The value as an object: runs `body` over its members, then rejects
    /// the first member `body` never asked for
    /// ([`PlanError::UnknownField`]) or that repeats an earlier one.
    pub fn fields<T>(
        self,
        body: impl FnOnce(&mut Fields<'_>) -> Result<T, PlanError>,
    ) -> Result<T, PlanError> {
        let Json::Obj(members) = self.json else {
            return Err(self.invalid("must be an object"));
        };
        if members.len() > u64::BITS as usize {
            return Err(self.invalid("has more than 64 members"));
        }
        let mut fields = Fields { val: self, members, seen: 0 };
        let value = body(&mut fields)?;
        let Some(unasked) = (0..members.len()).find(|i| fields.seen >> i & 1 == 0) else {
            return Ok(value);
        };
        // A read finds the first member of its name, so a second one is
        // never asked for: it lands here, told apart from a stranger.
        let field = &members[unasked].0;
        Err(if members[..unasked].iter().any(|(earlier, _)| earlier == field) {
            fields.invalid(field, "appears twice")
        } else {
            PlanError::UnknownField {
                doc: self.doc,
                context: self.at.to_string(),
                field: field.clone(),
            }
        })
    }
}

/// The members of one object from outside ([`Val::fields`]): every read
/// names its member, and naming is what allows the member to be there.
#[derive(Debug)]
pub struct Fields<'a> {
    val: Val<'a>,
    members: &'a [(String, Json)],
    /// Bit `i` set: member `i` was asked for.
    seen: u64,
}

impl<'a> Fields<'a> {
    /// An error about member `key`: "`<where>.<key>` `<what>`".
    pub fn invalid(&self, key: &str, what: impl fmt::Display) -> PlanError {
        PlanError::invalid(self.val.doc, format!("{}.{key} {what}", self.val.at))
    }

    /// Whether member `key` is present (does not count as asking for it).
    pub fn has(&self, key: &str) -> bool {
        self.members.iter().any(|(k, _)| k == key)
    }

    /// Finds member `key` and marks it asked for.
    fn find(&mut self, key: &str) -> Option<&'a Json> {
        let i = self.members.iter().position(|(k, _)| k == key)?;
        self.seen |= 1 << i;
        Some(&self.members[i].1)
    }

    /// [`Fields::find`] for a member that must be there.
    fn need(&mut self, key: &str) -> Result<&'a Json, PlanError> {
        self.find(key).ok_or_else(|| self.val.invalid(format_args!("is missing '{key}'")))
    }

    fn member<'s>(&'s self, key: &'s str, json: &'s Json) -> Val<'s> {
        Val { doc: self.val.doc, at: At::Member(&self.val.at, key), json }
    }

    /// Checks the `schema` member against the version this parser accepts
    /// ([`PlanError::Schema`] when missing, non-string or another version).
    pub fn schema(&mut self, expected: &'static str) -> Result<(), PlanError> {
        match self.find("schema").and_then(Json::as_str) {
            Some(found) if found == expected => Ok(()),
            found => Err(PlanError::Schema {
                doc: self.val.doc,
                found: found.map(str::to_owned),
                expected,
            }),
        }
    }

    /// Optional member `key` through `read`; absent and `null` are `None`.
    pub fn opt_with<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(Val<'_>) -> Result<T, PlanError>,
    ) -> Result<Option<T>, PlanError> {
        match self.find(key) {
            None | Some(Json::Null) => Ok(None),
            Some(json) => read(self.member(key, json)).map(Some),
        }
    }

    /// Required member `key` through `read` (which sees a `null`).
    pub fn req_with<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(Val<'_>) -> Result<T, PlanError>,
    ) -> Result<T, PlanError> {
        let json = self.need(key)?;
        read(self.member(key, json))
    }

    /// [`Fields::opt_with`] for a type that reads itself.
    pub fn opt<T: Read>(&mut self, key: &str) -> Result<Option<T>, PlanError> {
        self.opt_with(key, T::read)
    }

    /// [`Fields::req_with`] for a type that reads itself.
    pub fn req<T: Read>(&mut self, key: &str) -> Result<T, PlanError> {
        self.req_with(key, T::read)
    }

    /// Optional member `key` as a hand-written number of seconds through
    /// [`checked_secs`], fractional and zero allowed (every `*_secs`
    /// member of every schema is optional).
    pub fn secs(&mut self, key: &str) -> Result<Option<Duration>, PlanError> {
        self.opt_with(key, |v| {
            checked_secs(v.at, f64::read(v)?, true).map_err(|m| PlanError::invalid(v.doc, m))
        })
    }

    /// Required string member `key`, borrowed from the document (what a
    /// `kind` dispatch matches on).
    pub fn str(&mut self, key: &str) -> Result<&'a str, PlanError> {
        self.need(key)?.as_str().ok_or_else(|| self.invalid(key, "must be a string"))
    }
}

/// A type with one obvious reading from a JSON value, shape and range
/// checked.
pub trait Read: Sized {
    /// Reads the value; the error names where it sits.
    fn read(v: Val<'_>) -> Result<Self, PlanError>;
}

macro_rules! read_uint {
    ($($t:ty),*) => {$(
        impl Read for $t {
            fn read(v: Val<'_>) -> Result<Self, PlanError> {
                let wide = v.json.as_u64().ok_or_else(|| v.invalid("must be an unsigned integer"))?;
                <$t>::try_from(wide)
                    .map_err(|_| v.invalid(format_args!("{wide} exceeds {}", <$t>::MAX)))
            }
        }
    )*};
}

read_uint!(u16, u32, u64, usize);

impl Read for f64 {
    fn read(v: Val<'_>) -> Result<Self, PlanError> {
        v.json.as_f64().ok_or_else(|| v.invalid("must be a number"))
    }
}

impl Read for bool {
    fn read(v: Val<'_>) -> Result<Self, PlanError> {
        v.json.as_bool().ok_or_else(|| v.invalid("must be a boolean"))
    }
}

impl Read for String {
    fn read(v: Val<'_>) -> Result<Self, PlanError> {
        v.str().map(str::to_owned)
    }
}

/// Whole nanoseconds — the exact form every printer writes (`*_nanos`);
/// hand-written seconds go through [`Fields::secs`].
impl Read for Duration {
    fn read(v: Val<'_>) -> Result<Self, PlanError> {
        u64::read(v).map(Duration::from_nanos)
    }
}

/// `null` is `None` (for a member that must be present but may be null).
impl<T: Read> Read for Option<T> {
    fn read(v: Val<'_>) -> Result<Self, PlanError> {
        v.nullable().map(T::read).transpose()
    }
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
pub fn checked_secs(name: impl fmt::Display, secs: f64, zero_ok: bool) -> Result<Duration, String> {
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
                PlanError::invalid("suffix plan", "fork_at_nanos must be a u64"),
                "suffix plan: fork_at_nanos must be a u64",
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
        }
    }

    fn doc(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn schema_table() {
        let check = |text: &str| Val::root("plan", &doc(text)).fields(|f| f.schema("x/1"));
        assert!(check(r#"{"schema":"x/1"}"#).is_ok());
        let cases = [
            (r#"{"schema":"x/2"}"#, "unsupported plan schema 'x/2'"),
            (r#"{"schema": 7}"#, "plan missing 'schema'"),
            (r#"{}"#, "plan missing 'schema'"),
            (r#"{"schema":"x/1","schema":"x/2"}"#, "plan.schema appears twice"),
        ];
        for (text, fragment) in cases {
            let err = check(text).expect_err(text);
            assert!(err.to_string().contains(fragment), "{text}: {err}");
        }
    }

    /// The allowed members are the members the closure read.
    #[test]
    fn unknown_field_table() {
        let read = |text: &str| {
            Val::root("plan", &doc(text)).fields(|f| Ok((f.opt::<u64>("a")?, f.opt::<u64>("b")?)))
        };
        assert_eq!(read(r#"{"a":1,"b":2}"#), Ok((Some(1), Some(2))));
        assert_eq!(read(r#"{"b":null}"#), Ok((None, None)), "null reads as absent");
        assert_eq!(read("{}"), Ok((None, None)));
        let err = read(r#"{"a":1,"c":3}"#).expect_err("unknown field");
        assert_eq!(err.to_string(), "plan: unknown field 'c' in plan");
        let err = read("[1,2]").expect_err("non-object");
        assert_eq!(err.to_string(), "plan: plan must be an object");
        let wide: Vec<String> = (0..65).map(|i| format!("\"k{i}\":0")).collect();
        let err = read(&format!("{{{}}}", wide.join(","))).expect_err("65 members");
        assert!(err.to_string().contains("more than 64 members"), "{err}");
    }

    /// Every rejection names where the value sits; every acceptance is
    /// the checked conversion, boundaries included.
    #[test]
    fn typed_reads_name_the_member_and_check_the_range() {
        let text = r#"{"port":65535,"big":65536,"neg":-1,"frac":1.5,"s":"x","t":true,
                       "nanos":1500,"secs":2.5,"far":1e20,"null":null,
                       "child":{"n":4294967296},"list":[1,"two"],"usize":18446744073709551615}"#;
        let json = doc(text);
        let v = Val::root("doc", &json);
        let run = |body: &dyn Fn(&mut Fields<'_>) -> Result<(), PlanError>| -> String {
            // Members the case does not read are unknown fields: skip that check.
            let mut fields = Fields { val: v, members: match &json { Json::Obj(m) => m, _ => unreachable!() }, seen: 0 };
            body(&mut fields).err().map_or_else(|| "ok".to_owned(), |e| e.to_string())
        };
        assert_eq!(run(&|f| f.req::<u16>("port").map(|p| assert_eq!(p, u16::MAX))), "ok");
        assert_eq!(run(&|f| f.req::<u16>("big").map(drop)), "doc: doc.big 65536 exceeds 65535");
        assert_eq!(run(&|f| f.req::<u32>("big").map(|n| assert_eq!(n, 65536))), "ok");
        assert_eq!(
            run(&|f| f.req::<usize>("usize").map(|n| assert_eq!(n as u64, u64::MAX))),
            "ok",
            "usize is 64 bits on the hosts this runs on"
        );
        assert_eq!(run(&|f| f.req::<u64>("neg").map(drop)), "doc: doc.neg must be an unsigned integer");
        assert_eq!(run(&|f| f.opt::<u64>("frac").map(drop)), "doc: doc.frac must be an unsigned integer");
        assert_eq!(run(&|f| f.opt::<u64>("s").map(drop)), "doc: doc.s must be an unsigned integer");
        assert_eq!(run(&|f| f.opt::<f64>("s").map(drop)), "doc: doc.s must be a number");
        assert_eq!(run(&|f| f.opt::<bool>("s").map(drop)), "doc: doc.s must be a boolean");
        assert_eq!(run(&|f| f.opt::<String>("t").map(drop)), "doc: doc.t must be a string");
        assert_eq!(run(&|f| f.str("t").map(drop)), "doc: doc.t must be a string");
        assert_eq!(run(&|f| f.str("gone").map(drop)), "doc: doc is missing 'gone'");
        assert_eq!(run(&|f| f.req::<u64>("gone").map(drop)), "doc: doc is missing 'gone'");
        assert_eq!(run(&|f| f.req::<u64>("null").map(drop)), "doc: doc.null must be an unsigned integer");
        assert_eq!(run(&|f| f.req::<Option<u64>>("null").map(|n| assert_eq!(n, None))), "ok");
        assert_eq!(
            Val::root("doc", &doc(r#"{"a":1,"b":2,"a":3}"#))
                .fields(|f| Ok((f.opt::<u64>("a")?, f.opt::<u64>("b")?)))
                .expect_err("a member given twice")
                .to_string(),
            "doc: doc.a appears twice"
        );
        assert_eq!(
            run(&|f| f.req::<Duration>("nanos").map(|d| assert_eq!(d, Duration::from_nanos(1500)))),
            "ok"
        );
        assert_eq!(
            run(&|f| f.secs("secs").map(|d| assert_eq!(d, Some(Duration::from_millis(2500))))),
            "ok"
        );
        assert_eq!(run(&|f| f.secs("gone").map(|d| assert_eq!(d, None))), "ok");
        assert!(run(&|f| f.secs("far").map(drop))
            .starts_with("doc: doc.far must be a non-negative number of seconds"));
        assert_eq!(
            run(&|f| f.req_with("child", |c| c.fields(|f| f.req::<u32>("n"))).map(drop)),
            "doc: doc.child.n 4294967296 exceeds 4294967295"
        );
        assert_eq!(
            run(&|f| f.req_with("child", |c| c.fields(|_| Ok(()))).map(drop)),
            "doc: unknown field 'n' in doc.child"
        );
        assert_eq!(
            run(&|f| f.req_with("list", |l| l.items("entry", u64::read)).map(drop)),
            "doc: entry #1 must be an unsigned integer"
        );
        assert_eq!(run(&|f| f.req_with("s", |l| l.items("entry", u64::read)).map(drop)), "doc: doc.s must be an array");
        assert_eq!(
            run(&|f| f.req_with("s", |w| w.word(|s| Err::<(), _>(format!("no word '{s}'")))).map(drop)),
            "doc: doc.s: no word 'x'"
        );
        assert_eq!(
            run(&|f| f.req_with("child", |c| c.embedded(|_| Err::<(), _>("inner: bad"))).map(drop)),
            "doc: doc.child: inner: bad"
        );
        assert_eq!(run(&|f| f.has("t").then_some(()).ok_or_else(|| f.invalid("t", "?"))), "ok");
        assert_eq!(run(&|f| Err(f.invalid("gone", f.has("gone")))), "doc: doc.gone false");
    }
}
