//! Offline stand-in for `serde_json`: a JSON formatter/parser for the
//! vendored serde shim's [`serde::Value`] model.
//!
//! Two things cross it: `MetricsSnapshot`'s JSONL lines (written only) and
//! raw [`Value`] trees — the `BENCH_*.json` baselines `compare_baselines`
//! reads and the ledger's result lines, both ways.  The writer is compact
//! only.  Floats are emitted with Rust's shortest round-trippable
//! representation (`{:?}`), so `f64` survives `to_string` → `from_str`
//! bit-exactly.
//!
//! The parser takes hostile text: malformed input, lone or mismatched
//! surrogate escapes and nesting past `MAX_DEPTH` are errors, never panics,
//! and it runs in time linear in the input.

#![forbid(unsafe_code)]

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// JSON (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.to_string())
    }
}

/// Deepest array/object nesting [`from_str`] accepts.  Every document the
/// workspace reads nests at most four levels; the limit turns hostile input
/// like `"[".repeat(200_000)` into an error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// Serialize to compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize());
    Ok(out)
}

/// Deserialize from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { src: s, pos: 0 };
    p.skip_ws();
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::deserialize(&value)?)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::F64(f) => write_f64(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        out.push_str(&format!("{f:?}"));
    } else {
        // JSON has no NaN/inf; mirror serde_json's lossy `null`.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    /// Byte offset into `src`; always on a character boundary.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        let rest = &self.src[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_whitespace()).len();
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// One value; `depth` counts the arrays and objects around it.
    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ))),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        other => return Err(Error::new(format!("expected `,` or `]`, found {other:?}"))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value(depth + 1)?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        other => return Err(Error::new(format!("expected `,` or `}}`, found {other:?}"))),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!("unexpected {other:?} at byte {}", self.pos))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go: both
            // are ASCII, so the run ends on a character boundary.
            let rest = &self.src[self.pos..];
            let run = rest
                .find(['"', '\\'])
                .ok_or_else(|| Error::new("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            let esc = *self
                .src
                .as_bytes()
                .get(self.pos + 1)
                .ok_or_else(|| Error::new("unterminated escape"))?;
            self.pos += 2;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => out.push(self.parse_unicode_escape()?),
                other => return Err(Error::new(format!("invalid escape `\\{}`", other.escape_ascii()))),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` is already consumed: one
    /// code unit, or a high surrogate followed by `\u` and a low surrogate.
    fn parse_unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.parse_hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.eat_literal("\\u") {
                return Err(Error::new("unpaired surrogate"));
            }
            let lo = self.parse_hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(Error::new(format!(
                    "high surrogate \\u{hi:04x} followed by \\u{lo:04x}, not a low surrogate"
                )));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| Error::new(format!("invalid \\u escape {code:04x}")))
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| Error::new(format!("truncated or invalid \\u escape at byte {}", self.pos)))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| Error::new(format!("invalid \\u escape `{hex}`")))
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(from_str::<f64>("2.0").unwrap(), 2.0);
        assert_eq!(from_str::<String>("\"a\\nb\\u0041\"").unwrap(), "a\nbA");
    }

    #[test]
    fn f64_bits_survive() {
        for f in [0.1f64, 1.0 / 3.0, 12.345678901234567, 1e-12, 1e20] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{s}");
        }
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![(1u64, "a".to_string()), (2, "b".to_string())];
        let s = to_string(&v).unwrap();
        let back: Vec<(u64, String)> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<u64>("[1").is_err());
        assert!(from_str::<u64>("1 trailing").is_err());
        assert!(from_str::<u64>("\"x\"").is_err());
    }

    /// A JSON string literal from `text` with each `%` standing for a
    /// backslash, so the escapes under test read as they would in a file.
    fn escaped(text: &str) -> String {
        format!("\"{}\"", text.replace('%', "\\"))
    }

    #[test]
    fn surrogate_pairs_decode_and_mismatches_are_errors() {
        assert_eq!(from_str::<String>(&escaped("%ud83d%ude00")).unwrap(), "\u{1F600}");
        assert_eq!(from_str::<String>(&escaped("%udbff%udfff")).unwrap(), "\u{10FFFF}");
        // A high surrogate must be followed by a low one (DC00..=DFFF): not
        // by a plain code unit or another high surrogate (both once panicked
        // on a subtraction overflow), nor by a unit above that range (which
        // once decoded silently to U+10400).
        for bad in ["%ud800%u0041", "%ud800%udbff", "%ud800%ue000"] {
            assert!(from_str::<String>(&escaped(bad)).is_err(), "{bad}");
        }
        // Lone surrogates, a signed or short hex field, a non-ASCII escape.
        for bad in ["%ud800", "%udc00", "%u+041", "%u00", "%\u{e9}"] {
            assert!(from_str::<String>(&escaped(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn long_strings_copy_in_runs() {
        let text = "ab\u{e9}\u{1F600}\"\\\n".repeat(20_000);
        let back: String = from_str(&to_string(&text).unwrap()).unwrap();
        assert_eq!(back, text);
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(from_str::<Value>(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(from_str::<Value>(&deep).is_err());
        assert!(from_str::<Value>(&"[{\"a\":".repeat(MAX_DEPTH)).is_err());
        assert!(from_str::<Value>(&"[".repeat(200_000)).is_err());
    }
}
