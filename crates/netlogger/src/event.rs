//! NetLogger events.
//!
//! An event is one timestamped record emitted by an instrumented component:
//! which host it ran on, which program (e.g. `backend-worker`,
//! `viewer-master`), the event tag (e.g. `BE_LOAD_END`) and any typed fields
//! such as the frame number or a byte count.  Events serialize to NetLogger's
//! ULM-style `KEY=value` text lines.

use std::collections::BTreeMap;
use std::fmt;

/// A typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Integer field (frame numbers, ranks, byte counts).
    Int(i64),
    /// Floating-point field (rates, fractions).
    Float(f64),
    /// Free-form string field.
    Str(String),
}

impl FieldValue {
    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            FieldValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float (integers are widened).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            FieldValue::Float(f) => Some(*f),
            FieldValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Int(i) => write!(f, "{i}"),
            FieldValue::Float(x) => write!(f, "{x}"),
            FieldValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Escape a token for ULM emission so whitespace, `=` and backslashes inside
/// hosts, program names, tags, keys or string values survive the
/// whitespace-split `key=value` parse in [`Event::from_ulm`].
fn ulm_escape(s: &str) -> String {
    if !s.contains(['\\', ' ', '\t', '\n', '\r', '=']) {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '=' => out.push_str("\\e"),
            other => out.push(other),
        }
    }
    out
}

/// Invert [`ulm_escape`].  Unknown escapes and a trailing backslash decode to
/// the literal character, so pre-escaping logs still parse.
fn ulm_unescape(s: &str) -> String {
    if !s.contains('\\') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('e') => out.push('='),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// One NetLogger event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Seconds since the start of the run (wall or virtual clock).
    pub timestamp: f64,
    /// Host the event was generated on.
    pub host: String,
    /// Program / component name (`backend-worker`, `viewer-master`, …).
    pub program: String,
    /// The event tag (`BE_LOAD_END`, `V_FRAME_START`, …).
    pub tag: String,
    /// Additional typed fields, keyed by field name.
    pub fields: BTreeMap<String, FieldValue>,
}

impl Event {
    /// A new event with no extra fields.
    pub fn new(timestamp: f64, host: impl Into<String>, program: impl Into<String>, tag: impl Into<String>) -> Self {
        Event {
            timestamp,
            host: host.into(),
            program: program.into(),
            tag: tag.into(),
            fields: BTreeMap::new(),
        }
    }

    /// Builder: attach one field.
    pub fn with_field(mut self, key: impl Into<String>, value: impl Into<FieldValue>) -> Self {
        self.fields.insert(key.into(), value.into());
        self
    }

    /// Fetch a field value.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.get(key)
    }

    /// Convenience: the frame number (`NL.frame` field), if present.
    pub fn frame(&self) -> Option<i64> {
        self.field(crate::tags::FIELD_FRAME).and_then(FieldValue::as_int)
    }

    /// Convenience: the byte count (`NL.bytes` field), if present.
    pub fn bytes(&self) -> Option<i64> {
        self.field(crate::tags::FIELD_BYTES).and_then(FieldValue::as_int)
    }

    /// Convenience: the PE rank (`NL.rank` field), if present.
    pub fn rank(&self) -> Option<i64> {
        self.field(crate::tags::FIELD_RANK).and_then(FieldValue::as_int)
    }

    /// Serialize to a ULM-style line:
    /// `DATE=12.345678 HOST=cplant-3 PROG=backend-worker NL.EVNT=BE_LOAD_END NL.frame=7`
    ///
    /// Whitespace, `=` and backslashes inside hosts, programs, tags, keys and
    /// string values are escaped (`\s`, `\e`, `\\`, …) so the line stays a
    /// whitespace-separated sequence of `key=value` tokens.
    pub fn to_ulm(&self) -> String {
        let mut line = format!(
            "DATE={:.6} HOST={} PROG={} NL.EVNT={}",
            self.timestamp,
            ulm_escape(&self.host),
            ulm_escape(&self.program),
            ulm_escape(&self.tag)
        );
        for (k, v) in &self.fields {
            line.push(' ');
            line.push_str(&ulm_escape(k));
            line.push('=');
            match v {
                FieldValue::Str(s) => line.push_str(&ulm_escape(s)),
                other => line.push_str(&other.to_string()),
            }
        }
        line
    }

    /// Parse a ULM-style line produced by [`Event::to_ulm`].
    ///
    /// Returns `None` if mandatory keys are missing or malformed.
    pub fn from_ulm(line: &str) -> Option<Event> {
        let mut timestamp = None;
        let mut host = None;
        let mut program = None;
        let mut tag = None;
        let mut fields = BTreeMap::new();
        for token in line.split_whitespace() {
            let (key, value) = token.split_once('=')?;
            match key {
                "DATE" => timestamp = value.parse::<f64>().ok(),
                "HOST" => host = Some(ulm_unescape(value)),
                "PROG" => program = Some(ulm_unescape(value)),
                "NL.EVNT" => tag = Some(ulm_unescape(value)),
                _ => {
                    let fv = if let Ok(i) = value.parse::<i64>() {
                        FieldValue::Int(i)
                    } else if let Ok(f) = value.parse::<f64>() {
                        FieldValue::Float(f)
                    } else {
                        FieldValue::Str(ulm_unescape(value))
                    };
                    fields.insert(ulm_unescape(key), fv);
                }
            }
        }
        Some(Event {
            timestamp: timestamp?,
            host: host?,
            program: program?,
            tag: tag?,
            fields,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags;

    #[test]
    fn ulm_roundtrip() {
        let e = Event::new(12.5, "cplant-3", "backend-worker", tags::BE_LOAD_END)
            .with_field(tags::FIELD_FRAME, 7u64)
            .with_field(tags::FIELD_BYTES, 20_000_000u64)
            .with_field("note", "warm");
        let line = e.to_ulm();
        assert!(line.starts_with("DATE=12.500000 HOST=cplant-3 PROG=backend-worker NL.EVNT=BE_LOAD_END"));
        let parsed = Event::from_ulm(&line).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn ulm_escapes_hostile_strings() {
        let e = Event::new(0.5, "rack 3\\left", "viewer=main", "ODD TAG").with_field("free text", "a=b c\\d\te\nf");
        let line = e.to_ulm();
        assert_eq!(line.lines().count(), 1, "escaping must keep one line: {line}");
        let parsed = Event::from_ulm(&line).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn ulm_rejects_missing_keys() {
        assert!(Event::from_ulm("HOST=x PROG=y NL.EVNT=z").is_none());
        assert!(Event::from_ulm("garbage").is_none());
    }

    #[test]
    fn field_accessors() {
        let e = Event::new(0.0, "h", "p", "T")
            .with_field(tags::FIELD_FRAME, 3u64)
            .with_field(tags::FIELD_RANK, 1u64)
            .with_field(tags::FIELD_BYTES, 42u64)
            .with_field("rate", 1.5);
        assert_eq!(e.frame(), Some(3));
        assert_eq!(e.rank(), Some(1));
        assert_eq!(e.bytes(), Some(42));
        assert_eq!(e.field("rate").unwrap().as_float(), Some(1.5));
        assert_eq!(e.field("missing"), None);
    }

    #[test]
    fn field_value_conversions() {
        assert_eq!(FieldValue::from(3usize).as_int(), Some(3));
        assert_eq!(FieldValue::from(2.5).as_float(), Some(2.5));
        assert_eq!(FieldValue::Int(4).as_float(), Some(4.0));
        assert_eq!(FieldValue::from("x").as_str(), Some("x"));
        assert_eq!(FieldValue::from("x").as_int(), None);
    }
}
