//! # djson — dependency-free JSON for DDoSim
//!
//! The build environment for this repository cannot reach crates.io, so the
//! workspace carries its own small JSON layer instead of `serde`/`serde_json`:
//! a [`Json`] value type with an order-preserving object representation, a
//! deterministic writer (compact and pretty), a strict parser, the
//! [`ToJson`] trait result types implement by hand, and the one reader of
//! documents that arrive from outside: the [`Val`] cursor, whose
//! [`Val::fields`] allows exactly the members it reads and whose every
//! error ([`PlanError`]) names where it happened.
//!
//! Object members keep their insertion order, and the writer is fully
//! deterministic: the same value always serializes to the same bytes. The
//! cross-run determinism regression tests rely on that property.

#![warn(missing_docs)]

mod cursor;

pub use cursor::{checked_secs, Fields, PlanError, Read, Val};

use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (kept exact, unlike an f64 round-trip).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact serialization (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_compact(self, &mut out);
        out
    }

    /// Pretty serialization with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(self, 0, &mut out);
        out
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] describing the first syntax problem found,
    /// nesting beyond [`MAX_DEPTH`] included.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // Shortest round-trip formatting; integral floats keep a ".0" so
        // the parser can preserve the float/int distinction.
        if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(out, "{v:.1}");
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        // JSON has no NaN/inf; encode as null like serde_json does.
        out.push_str("null");
    }
}

fn write_compact(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Json::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Json::F64(n) => write_f64(*n, out),
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Json, indent: usize, out: &mut String) {
    let pad = |n: usize, out: &mut String| {
        for _ in 0..n {
            out.push_str("  ");
        }
    };
    match v {
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(indent + 1, out);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            pad(indent, out);
            out.push(']');
        }
        Json::Obj(members) if !members.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(indent + 1, out);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            pad(indent, out);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

/// A JSON syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset at which the problem was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level and the text comes from outside (a 4 MiB
/// `serve` line holds millions of `[`), so the bound is what keeps a
/// hostile document an error instead of a stack overflow; the deepest
/// document this workspace writes or ships nests under 10 levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Runs a container parser one level down, refusing level
    /// [`MAX_DEPTH`] + 1.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let mut code = self.hex4()?;
                            // A high surrogate is half of a character above
                            // U+FFFF; the low half must follow at once.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes.get(self.pos + 1..self.pos + 3) == Some(&b"\\u"[..])
                            {
                                self.pos += 2;
                                let low = self.hex4()?;
                                if (0xDC00..0xE000).contains(&low) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                }
                            }
                            // Only a surrogate left on its own is no character.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("lone surrogate in \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume a maximal run of unescaped bytes in one go;
                    // the run ends at a quote or backslash, both ASCII, so
                    // the chunk boundaries are char boundaries and each
                    // input byte is UTF-8-validated exactly once.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    /// The four hex digits after the `u` at `pos`; leaves `pos` on the last.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = hex
            .iter()
            .try_fold(0, |code, &b| Some(code << 4 | char::from(b).to_digit(16)?))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Skips a run of digits; an empty run is an error at the byte that
    /// should have been one.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a digit"));
        }
        Ok(())
    }

    /// A number by the JSON grammar — `-? (0 | [1-9][0-9]*) (. [0-9]+)?
    /// ([eE] [+-]? [0-9]+)?` — and finite: what Rust's `f64` parser would
    /// also take (`007`, `1.`, `1e400` as infinity, which prints as
    /// `null`) is refused where it goes wrong.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        self.digits()?;
        if self.bytes[int_start] == b'0' && self.pos > int_start + 1 {
            self.pos = int_start;
            return Err(self.err("leading zero in a number"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("a number is ASCII by construction");
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::I64(i));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => {
                self.pos = start;
                Err(self.err("number out of range"))
            }
        }
    }
}

/// Conversion of a Rust value into a [`Json`] tree.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

macro_rules! impl_to_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json { Json::U64(*self as u64) }
        }
    )*};
}

impl_to_uint!(u8, u16, u32, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for doc in ["null", "true", "false", "0", "42", "-7", "3.5", "\"hi\""] {
            let v = Json::parse(doc).expect(doc);
            assert_eq!(v.to_string_compact(), doc, "doc {doc}");
        }
    }

    #[test]
    fn u64_precision_is_preserved() {
        let big = u64::MAX;
        let doc = big.to_string();
        let v = Json::parse(&doc).expect("parses");
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v.to_string_compact(), doc);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj([("z", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(v.to_string_compact(), "{\"z\":1,\"a\":2}");
        let back = Json::parse(&v.to_string_compact()).expect("parses");
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_is_stable() {
        let v = Json::obj([
            ("name", Json::Str("x".into())),
            ("items", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let pretty = v.to_string_pretty();
        assert_eq!(
            pretty,
            "{\n  \"name\": \"x\",\n  \"items\": [\n    1,\n    2\n  ],\n  \"empty\": []\n}"
        );
        assert_eq!(Json::parse(&pretty).expect("parses"), v);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nquote\"back\\slash\ttab\u{1}";
        let v = Json::Str(s.to_string());
        let encoded = v.to_string_compact();
        assert_eq!(Json::parse(&encoded).expect("parses"), v);
    }

    #[test]
    fn unicode_escape_parses() {
        let v = Json::parse("\"\\u00e9\"").expect("parses");
        assert_eq!(v.as_str(), Some("é"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_do_not() {
        let v = Json::parse("\"a\\ud83d\\ude00b\"").expect("U+1F600 as a pair");
        assert_eq!(v.as_str(), Some("a\u{1F600}b"));
        assert_eq!(Json::parse(&v.to_string_compact()).expect("printed raw"), v);
        assert_eq!(Json::parse("\"\\uDBFF\\uDFFF\"").expect("the last pair").as_str(), Some("\u{10FFFF}"));
        for lone in [
            "\"\\ud83d\"",
            "\"\\ude00\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ud83d\\ud83d\"",
            "\"\\ud83d\\n\"",
        ] {
            let err = Json::parse(lone).expect_err(lone);
            assert!(err.message.contains("lone surrogate") && err.offset > 0, "{lone}: {err}");
        }
        // Four hex digits, nothing `from_str_radix` would also take.
        for bad in ["\"\\u+041\"", "\"\\u00g1\"", "\"\\u00\"", "\"\\ud83d\\u+e00\""] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        // (input, offset of the error): refused where it goes wrong.
        let refused = [
            ("1e400", 0, "number out of range"),
            ("-1e400", 0, "number out of range"),
            ("[1, 2e999]", 4, "number out of range"),
            ("007", 0, "leading zero"),
            ("-01", 1, "leading zero"),
            ("00", 0, "leading zero"),
            ("[0, 01.5]", 4, "leading zero"),
            ("1.", 2, "expected a digit"),
            ("1.e5", 2, "expected a digit"),
            ("[1.]", 3, "expected a digit"),
            ("1e", 2, "expected a digit"),
            ("1e+", 3, "expected a digit"),
            ("-", 1, "expected a digit"),
            ("-.5", 1, "expected a digit"),
        ];
        for (doc, offset, fragment) in refused {
            let err = Json::parse(doc).expect_err(doc);
            assert!(err.message.contains(fragment), "{doc}: {err}");
            assert_eq!(err.offset, offset, "{doc}: {err}");
        }
        // What stays a number, and what it prints back as.
        let kept = [
            ("-0", "0"),
            ("0", "0"),
            ("-0.0", "-0.0"),
            ("0.5", "0.5"),
            ("10", "10"),
            ("1e308", &format!("1{}", "0".repeat(308))),
            ("1E+2", "100.0"),
            ("1e-2", "0.01"),
            ("5e-324", &format!("0.{}5", "0".repeat(323))),
            ("1e-400", "0.0"),
            ("18446744073709551615", "18446744073709551615"),
            ("-9223372036854775808", "-9223372036854775808"),
            ("18446744073709551616", "18446744073709552000"),
        ];
        for (doc, printed) in kept {
            let v = Json::parse(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
            assert_eq!(v.to_string_compact(), *printed, "{doc}");
            // A number is still that number (not `null`) on the way round.
            let again = Json::parse(printed).expect(printed);
            assert_eq!((again.as_f64(), again.to_string_compact()), (v.as_f64(), (*printed).to_owned()));
        }
    }

    #[test]
    fn multibyte_runs_interleaved_with_escapes_roundtrip() {
        // Exercises the run-scan string path: plain ASCII, multi-byte
        // scalars, and escapes alternating within one string.
        let s = "héllo\n→ wörld\t\"çafé\" 🦀 end";
        let encoded = Json::Str(s.to_string()).to_string_compact();
        assert_eq!(Json::parse(&encoded).expect("parses").as_str(), Some(s));
    }

    #[test]
    fn floats_keep_float_identity() {
        let v = Json::parse("2500.0").expect("parses");
        assert!(matches!(v, Json::F64(_)));
        assert_eq!(v.to_string_compact(), "2500.0");
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("{\"a\": }").expect_err("must fail");
        assert!(err.offset > 0);
        assert!(err.to_string().contains("expected a value"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn nesting_is_capped_not_recursed_until_the_stack_ends() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(Json::parse(&nest(open, close, MAX_DEPTH)).is_ok(), "{MAX_DEPTH} levels of {open}");
            let err = Json::parse(&nest(open, close, MAX_DEPTH + 1)).expect_err("one level too deep");
            assert_eq!(err.offset, MAX_DEPTH * open.len(), "the offset is the first bracket refused");
            assert!(err.to_string().contains("nested deeper than 128 levels"), "{err}");
            // Unclosed, as a hostile sender would write it.
            assert!(Json::parse(&open.repeat(100_000)).is_err());
        }
    }

    #[test]
    fn to_json_writes_containers() {
        assert_eq!(vec![1u64, 2, 3].to_json().to_string_compact(), "[1,2,3]");
        assert_eq!(Some(1.5).to_json().to_string_compact(), "1.5");
        assert_eq!(None::<f64>.to_json(), Json::Null);
    }
}
