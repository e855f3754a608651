//! # dimmer-json — the workspace's one JSON implementation
//!
//! Every number this repository reports leaves the system as JSON: grid
//! reports, `dimmerd` replies, `dimmer-lint --json` findings, and the
//! `BENCH_*.json` files the lint checks. This crate is the only code that
//! parses JSON, escapes strings or formats JSON numbers, so every producer
//! and consumer agrees on the grammar and on the bytes.
//!
//! * [`parse`] reads one value under strict RFC 8259 rules (no leading
//!   zeros, no `+1`/`.5`/`1.`, no raw control characters in strings, no
//!   lone surrogates, no numbers that overflow to ±∞) and refuses nesting
//!   deeper than 64 levels, so a hostile input yields an error, never a
//!   stack overflow.
//! * [`Json`]'s `Display` writes compact, deterministic JSON. Objects keep
//!   insertion order as a `Vec<(String, Json)>` (no hash maps — iteration
//!   order is part of the byte-determinism contract), and non-negative
//!   integers stay exact as `u64` so seeds and hashes round-trip
//!   bit-for-bit.
//! * [`write_str`] and [`write_f64`] are the scalar writers for callers
//!   that lay out their own documents, such as the pretty-printed grid
//!   report.
//!
//! ```
//! use dimmer_json::{parse, Json};
//! let v = parse(r#"{"seed":18446744073709551615,"mean":0.5}"#).unwrap();
//! assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
//! assert_eq!(v.get("mean").and_then(Json::as_f64), Some(0.5));
//! assert_eq!(v.to_string(), r#"{"seed":18446744073709551615,"mean":0.5}"#);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer without fraction or exponent — kept exact
    /// (seeds and 64-bit hashes must not pass through `f64`).
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object, or `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number (`Int` is widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => write_f64(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact, deterministic (no whitespace) serialization.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Appends `s` to `out` as a quoted JSON string literal. Quotes,
/// backslashes and control characters are escaped; everything else,
/// including non-ASCII, is copied as is.
pub fn write_str(out: &mut String, s: &str) {
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

/// Appends `x` to `out` as a JSON number in Rust's shortest round-trip
/// form, which is deterministic across runs and platforms. JSON has no
/// NaN or ±∞, so non-finite values are written as `null`.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so an unbounded depth lets one input overflow the stack and
/// abort the process; no document this workspace reads nests beyond five.
const MAX_DEPTH: usize = 64;

/// Parses one JSON value; the input must hold nothing but the value and
/// surrounding whitespace. Values nested deeper than 64 levels are
/// rejected.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
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

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at offset {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if b == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at offset {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go. Those bytes are ASCII, so the run ends on a
            // char boundary of the (already valid UTF-8) input.
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(self.text.get(run..self.pos).unwrap_or_default());
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            if b < 0x20 {
                return Err(format!(
                    "unescaped control character in string at offset {}",
                    self.pos
                ));
            }
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err("unterminated escape".to_string());
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000c}'),
                b'u' => {
                    let code = self.hex4()?;
                    // Surrogate pairs: a high surrogate must be followed
                    // by \uDC00..\uDFFF; a lone low surrogate is no char.
                    let c = if (0xd800..0xdc00).contains(&code) {
                        if self.peek() == Some(b'\\') {
                            self.pos += 1;
                            self.consume(b'u')?;
                        } else {
                            return Err("lone high surrogate".to_string());
                        }
                        let low = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&low) {
                            return Err("invalid low surrogate".to_string());
                        }
                        char::from_u32(0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00))
                    } else {
                        char::from_u32(code)
                    };
                    match c {
                        Some(c) => out.push(c),
                        None => return Err("invalid \\u escape".to_string()),
                    }
                }
                other => return Err(format!("invalid escape '\\{}'", other as char)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| "invalid \\u escape".to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos += 4;
        Ok(code)
    }

    /// Skips ASCII digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn required_digits(&mut self) -> Result<(), String> {
        if self.digits() == 0 {
            return Err(format!("expected a digit at offset {}", self.pos));
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(format!("leading zero in number at offset {start}"));
            }
        } else {
            self.required_digits()?;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.required_digits()?;
            integral = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.required_digits()?;
            integral = false;
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        // Exact integers first: seeds and hashes must not round-trip
        // through f64.
        if integral && !negative {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        // A number that overflows to ±∞ would be written back as `null`.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(format!("number '{text}' is out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let line = r#"{"cmd":"submit","spec":{"grid":"city","quick":true,"protocols":["static","pid"],"seed":18446744073709551615},"n":-1.5}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("submit"));
        let spec = v.get("spec").unwrap();
        assert_eq!(
            spec.get("seed").and_then(Json::as_u64),
            Some(u64::MAX),
            "u64 seeds survive exactly"
        );
        assert_eq!(v.to_string(), line, "compact output is the input");
        assert_eq!(parse(&v.to_string()).unwrap(), v, "round-trip is stable");
    }

    #[test]
    fn parses_a_bench_report_shape() {
        let doc = r#"{"suite": "flood", "benchmarks": [{"name": "a/b", "mean_ns": 12.5, "iters": 794430}], "flood_kernel_speedup": 2.48}"#;
        let v = parse(doc).unwrap();
        let benches = v.get("benchmarks").and_then(Json::as_arr).unwrap();
        assert_eq!(benches.len(), 1);
        assert_eq!(benches[0].get("mean_ns").and_then(Json::as_f64), Some(12.5));
        assert_eq!(benches[0].get("iters"), Some(&Json::Int(794430)));
        assert_eq!(
            benches[0].get("iters").and_then(Json::as_f64),
            Some(794430.0),
            "integers widen"
        );
        assert_eq!(benches[0].get("mean_ns").and_then(Json::as_u64), None);
        assert_eq!(v.get("suite").and_then(Json::as_f64), None);
    }

    #[test]
    fn get_on_non_objects_is_none() {
        assert_eq!(parse("[1]").unwrap().get("a"), None);
        assert_eq!(Json::Str("a".into()).get("a"), None);
    }

    #[test]
    fn grammar_accepts_and_rejects_per_rfc_8259() {
        let accept: &[(&str, Json)] = &[
            ("null", Json::Null),
            (" true ", Json::Bool(true)),
            ("0", Json::Int(0)),
            ("-0", Json::Num(-0.0)),
            ("10", Json::Int(10)),
            ("-1.5e2", Json::Num(-150.0)),
            ("0.5", Json::Num(0.5)),
            ("1E+2", Json::Num(100.0)),
            ("1e-400", Json::Num(0.0)),
            ("18446744073709551616", Json::Num(18446744073709551616.0)),
            (r#""a/\/""#, Json::Str("a//".into())),
            (r#""\b\f""#, Json::Str("\u{8}\u{c}".into())),
            (
                "\"caf\u{e9} \u{1f600}\"",
                Json::Str("caf\u{e9} \u{1f600}".into()),
            ),
            (
                r#""\u0001\ud83d\ude00""#,
                Json::Str("\u{1}\u{1f600}".into()),
            ),
            ("[]", Json::Arr(vec![])),
            ("{}", Json::Obj(vec![])),
            (" [ 1 , { \"a\" : null } ] ", {
                Json::Arr(vec![
                    Json::Int(1),
                    Json::Obj(vec![("a".into(), Json::Null)]),
                ])
            }),
        ];
        for (text, want) in accept {
            assert_eq!(parse(text).as_ref(), Ok(want), "{text:?} should parse");
        }
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\"}",
            "{'a':1}",
            "{\"a\":1,}",
            "tru",
            "nul",
            "\"abc",
            "{\"a\":1}x",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "01a",
            "01",
            "-01",
            "00",
            "+1",
            ".5",
            "-",
            "1.",
            "1.e5",
            "1e",
            "1e+",
            "-.5",
            "1E400",
            "-1e400",
            "\"tab\there\"",
            "\"line\nbreak\"",
            "\"\u{1f}\"",
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        for (raw, escaped) in [
            ("plain", r#""plain""#),
            ("a\"b\\c\nd", r#""a\"b\\c\nd""#),
            (
                "line1\nline2\t\"quoted\"\\x\r",
                r#""line1\nline2\t\"quoted\"\\x\r""#,
            ),
            ("\u{1}\u{1f}", r#""\u0001\u001f""#),
            ("caf\u{e9}/\u{1f600}", "\"caf\u{e9}/\u{1f600}\""),
        ] {
            let mut out = String::new();
            write_str(&mut out, raw);
            assert_eq!(out, escaped);
            assert_eq!(Json::Str(raw.into()).to_string(), escaped);
            assert_eq!(parse(escaped), Ok(Json::Str(raw.into())));
        }
    }

    #[test]
    fn writes_numbers_and_non_finite_as_null() {
        for (x, text) in [
            (1.25, "1.25"),
            (1.0, "1"),
            (-0.0, "-0"),
            (1e-7, "0.0000001"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            let mut out = String::new();
            write_f64(&mut out, x);
            assert_eq!(out, text, "{x}");
            assert_eq!(Json::Num(x).to_string(), text);
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("nesting deeper"));
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).unwrap_err().contains("nesting deeper"));
        // Far past the limit the error comes back instead of a stack
        // overflow.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }
}
