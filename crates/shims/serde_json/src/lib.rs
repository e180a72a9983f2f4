//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`] and [`from_str`], speaking the
//! vendored serde shim's [`Content`](serde::Content) tree.
//!
//! The writer emits standard JSON (UTF-8, escaped strings, `null` for
//! non-finite floats); the reader is a recursive-descent parser over the
//! full JSON grammar. Together they round-trip every value the shim's
//! `Serialize`/`Deserialize` impls produce.

#![warn(missing_docs)]

use std::fmt::{self, Write as _};

use serde::{Content, Deserialize, Serialize};

/// Serialization / deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl fmt::Display) -> Error {
        Error {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// Convenience alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into a value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let content = parse(s)?;
    T::from_content(&content).map_err(Error::new)
}

// -------------------------------------------------------------- writer

fn write_content(c: &Content, out: &mut String, indent: Option<usize>, depth: usize) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::I64(v) => write_display(v, out),
        Content::U64(v) => write_display(v, out),
        Content::F64(v) => write_f64(*v, out),
        Content::Str(s) => write_escaped(s, out),
        Content::Seq(items) => write_delimited(
            items.iter(),
            out,
            indent,
            depth,
            '[',
            ']',
            |item, out, indent, depth| {
                write_content(item, out, indent, depth);
            },
        ),
        Content::Map(entries) => write_delimited(
            entries.iter(),
            out,
            indent,
            depth,
            '{',
            '}',
            |(key, value), out, indent, depth| {
                write_escaped(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_content(value, out, indent, depth);
            },
        ),
    }
}

fn write_delimited<I, F>(
    items: I,
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    mut write_item: F,
) where
    I: ExactSizeIterator,
    F: FnMut(I::Item, &mut String, Option<usize>, usize),
{
    out.push(open);
    let n = items.len();
    if n == 0 {
        out.push(close);
        return;
    }
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            write_indent(width * (depth + 1), out);
        }
        write_item(item, out, indent, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if let Some(width) = indent {
        write_indent(width * depth, out);
    }
    out.push(close);
}

/// A newline and `spaces` spaces.
fn write_indent(spaces: usize, out: &mut String) {
    out.push('\n');
    out.extend(std::iter::repeat_n(' ', spaces));
}

/// Formats `v` straight into `out`, with no intermediate `String`.
fn write_display(v: impl fmt::Display, out: &mut String) {
    write!(out, "{v}").expect("writing to a String cannot fail");
}

fn write_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        // JSON has no NaN/Infinity; serde_json writes null.
        out.push_str("null");
        return;
    }
    // Rust's shortest round-trip formatting; keep a float marker so the
    // value parses back as a float-typed number.
    let start = out.len();
    write_display(v, out);
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// -------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse(s: &str) -> Result<Content> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Content> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Content::Null)
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Content::Bool(true))
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Content::Bool(false))
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b'"') => self.string().map(Content::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::new(format!(
                "unexpected character '{}' at byte {}",
                b as char, self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Content> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Content> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::new(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by the writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Content> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::I64(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| Error::new(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("2.0").unwrap(), 2.0);
        assert_eq!(from_str::<f64>("2").unwrap(), 2.0);
    }

    #[test]
    fn float_precision_round_trips_exactly() {
        for v in [
            92.30153555816966_f64,
            1e-12,
            1234567.89,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
        ] {
            let s = to_string(&v).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back, v, "{s}");
        }
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1.5f64, -2.0, 3.25];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1.5,-2.0,3.25]");
        assert_eq!(from_str::<Vec<f64>>(&s).unwrap(), v);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line1\nline2\t\"quoted\" \\ end\u{0001}".to_string();
        let s = to_string(&original).unwrap();
        assert_eq!(from_str::<String>(&s).unwrap(), original);
    }

    #[test]
    fn pretty_output_is_indented_and_parses() {
        let v = vec![vec![1u32, 2], vec![3]];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  "));
        assert_eq!(from_str::<Vec<Vec<u32>>>(&pretty).unwrap(), v);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("4x").is_err());
        assert!(from_str::<Vec<u32>>("[1,2").is_err());
        assert!(from_str::<String>("\"abc").is_err());
        assert!(from_str::<u32>("\"str\"").is_err());
    }

    /// The writer's exact bytes: shortest round-trip digits, no
    /// exponent, `.0` on a float with no fraction, and the integer
    /// extremes.
    #[test]
    fn number_bytes_are_pinned() {
        assert_eq!(to_string(&(0.1 + 0.2)).unwrap(), "0.30000000000000004");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
        assert_eq!(to_string(&1e21f64).unwrap(), "1000000000000000000000.0");
        assert_eq!(to_string(&1e-7f64).unwrap(), "0.0000001");
        assert_eq!(
            to_string(&5e-324f64).unwrap(),
            format!("0.{}5", "0".repeat(323))
        );
        assert_eq!(
            to_string(&f64::MAX).unwrap(),
            format!("17976931348623157{}.0", "0".repeat(292))
        );
        assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
        assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(to_string(&[v, 1.0]).unwrap(), "[null,1.0]");
        }
    }

    #[test]
    fn pretty_bytes_are_pinned() {
        let value = Content::Map(vec![
            (
                "a".into(),
                Content::Seq(vec![Content::I64(1), Content::F64(2.5)]),
            ),
            (
                "b".into(),
                Content::Map(vec![
                    ("c".into(), Content::Seq(vec![])),
                    ("d".into(), Content::Map(vec![])),
                    (
                        "e".into(),
                        Content::Seq(vec![Content::Seq(vec![Content::Null])]),
                    ),
                ]),
            ),
            ("f".into(), Content::Str("x\u{1}".into())),
        ]);
        let expected = "{\n  \"a\": [\n    1,\n    2.5\n  ],\n  \"b\": {\n    \"c\": [],\n    \
                        \"d\": {},\n    \"e\": [\n      [\n        null\n      ]\n    ]\n  },\n  \
                        \"f\": \"x\\u0001\"\n}";
        assert_eq!(to_string_pretty(&value).unwrap(), expected);
        assert_eq!(
            to_string(&value).unwrap(),
            "{\"a\":[1,2.5],\"b\":{\"c\":[],\"d\":{},\"e\":[[null]]},\"f\":\"x\\u0001\"}"
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string(&Vec::<u32>::new()).unwrap(), "[]");
        assert_eq!(from_str::<Vec<u32>>("[]").unwrap(), Vec::<u32>::new());
        assert_eq!(from_str::<Vec<u32>>(" [ ] ").unwrap(), Vec::<u32>::new());
    }
}
