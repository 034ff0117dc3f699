//! Offline stand-in for `toml` over the vendored serde shim's `Value` model.
//!
//! Implements the subset of TOML the scenario files use — and a little more:
//! `[tables]`, nested `[a.b]` tables, `[[arrays-of-tables]]`, bare and quoted
//! keys, basic and literal strings, integers (with `_` separators), floats,
//! booleans, inline arrays (nesting allowed, spanning multiple lines when
//! brackets stay open), comments.  Not implemented: inline tables `{...}`,
//! dates, multi-line strings.
//!
//! Two documents cross it: scenario specs (both ways) and vlint's
//! `lint.toml` (read only).  The emitter writes scalars first, then
//! sub-tables, then arrays of tables, so emitted documents parse back into
//! the same tree (round-trip tested in `visapult-core`'s scenario module).
//! The parser takes hostile text: malformed input and arrays nested past
//! `MAX_DEPTH` are errors, never panics (`tests/hostile_text.rs`).

#![forbid(unsafe_code)]

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// TOML (de)serialization error with the 1-based source line when known.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
    line: Option<usize>,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error {
            msg: msg.into(),
            line: None,
        }
    }

    fn at(msg: impl Into<String>, line: usize) -> Self {
        Error {
            msg: msg.into(),
            line: Some(line),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "TOML error at line {n}: {}", self.msg),
            None => write!(f, "TOML error: {}", self.msg),
        }
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Deserialize a TOML document into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_document(s)?;
    Ok(T::deserialize(&value)?)
}

/// Serialize `T` as a TOML document (`T` must serialize to a map).
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let v = value.serialize();
    let map = v
        .as_map()
        .ok_or_else(|| Error::new(format!("top-level TOML value must be a table, got {}", v.kind())))?;
    let mut out = String::new();
    emit_table(&mut out, &[], map)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------------------

fn is_scalar(v: &Value) -> bool {
    match v {
        Value::Null | Value::Bool(_) | Value::I64(_) | Value::U64(_) | Value::F64(_) | Value::Str(_) => true,
        Value::Seq(items) => items.iter().all(is_scalar),
        Value::Map(_) => false,
    }
}

fn emit_table(out: &mut String, path: &[String], entries: &[(String, Value)]) -> Result<(), Error> {
    // Scalars and inline arrays first...
    for (k, v) in entries {
        if matches!(v, Value::Null) {
            continue; // omitted; reads back as missing -> Option::None
        }
        if is_scalar(v) {
            out.push_str(&format!("{} = ", emit_key(k)));
            emit_inline(out, v, path, k)?;
            out.push('\n');
        }
    }
    // ...then sub-tables and arrays of tables.
    for (k, v) in entries {
        let mut sub_path = path.to_vec();
        sub_path.push(k.clone());
        match v {
            Value::Map(m) => {
                out.push('\n');
                out.push_str(&format!("[{}]\n", emit_path(&sub_path)));
                emit_table(out, &sub_path, m)?;
            }
            Value::Seq(items) if !is_scalar(v) => {
                for item in items {
                    let m = item.as_map().ok_or_else(|| {
                        Error::new(format!(
                            "array `{}` mixes tables and scalars; TOML cannot express that",
                            emit_path(&sub_path)
                        ))
                    })?;
                    out.push('\n');
                    out.push_str(&format!("[[{}]]\n", emit_path(&sub_path)));
                    emit_table(out, &sub_path, m)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

fn emit_inline(out: &mut String, v: &Value, path: &[String], key: &str) -> Result<(), Error> {
    match v {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::F64(f) => {
            if f.is_finite() {
                out.push_str(&format!("{f:?}"));
            } else if f.is_nan() {
                out.push_str("nan");
            } else if *f > 0.0 {
                out.push_str("inf");
            } else {
                out.push_str("-inf");
            }
        }
        Value::Str(s) => emit_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_inline(out, item, path, key)?;
            }
            out.push(']');
        }
        Value::Null | Value::Map(_) => {
            return Err(Error::new(format!(
                "cannot emit {} inline at `{}.{key}`",
                v.kind(),
                emit_path(path)
            )))
        }
    }
    Ok(())
}

fn emit_key(k: &str) -> String {
    let bare = !k.is_empty() && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        k.to_string()
    } else {
        let mut s = String::new();
        emit_string(&mut s, k);
        s
    }
}

fn emit_path(path: &[String]) -> String {
    path.iter().map(|p| emit_key(p)).collect::<Vec<_>>().join(".")
}

fn emit_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04X}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parse a whole document into a `Value::Map` tree.
pub fn parse_document(s: &str) -> Result<Value, Error> {
    let mut root: Vec<(String, Value)> = Vec::new();
    // Path of the table currently receiving `key = value` lines.
    let mut current: Vec<PathSeg> = Vec::new();

    let mut lines = s.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line_no = idx + 1;
        // Strip each physical line's comment *before* joining continuations,
        // so multi-line arrays may carry per-element comments.
        let mut logical = strip_comment(raw).map_err(|m| Error::at(m, line_no))?.to_string();
        // Inline arrays may span lines: keep appending while brackets stay
        // open outside strings.
        while open_brackets(&logical).map_err(|m| Error::at(m, line_no))? > 0 {
            match lines.next() {
                Some((_, next)) => {
                    let next = strip_comment(next).map_err(|m| Error::at(m, line_no))?;
                    logical.push(' ');
                    logical.push_str(next);
                }
                None => return Err(Error::at("unterminated array", line_no)),
            }
        }
        let line = logical.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("[[") {
            let header = rest
                .strip_suffix("]]")
                .ok_or_else(|| Error::at("malformed [[table]] header", line_no))?;
            let path = parse_key_path(header).map_err(|m| Error::at(m, line_no))?;
            current = path.iter().map(|p| PathSeg::Key(p.clone())).collect();
            let seq = resolve_seq(&mut root, &path).map_err(|m| Error::at(m, line_no))?;
            seq.push(Value::Map(Vec::new()));
            current.push(PathSeg::LastElement);
        } else if let Some(rest) = line.strip_prefix('[') {
            let header = rest
                .strip_suffix(']')
                .ok_or_else(|| Error::at("malformed [table] header", line_no))?;
            let path = parse_key_path(header).map_err(|m| Error::at(m, line_no))?;
            // Creating the table now means empty tables still appear.
            resolve_table(&mut root, &path_segs(&path)).map_err(|m| Error::at(m, line_no))?;
            current = path_segs(&path);
        } else {
            let (key_part, value_part) = split_assignment(line).ok_or_else(|| {
                Error::at(
                    format!("expected `key = value`, `[table]` or `[[table]]`, got `{line}`"),
                    line_no,
                )
            })?;
            let key_path = parse_key_path(key_part).map_err(|m| Error::at(m, line_no))?;
            let (leaf, parents) = key_path.split_last().expect("key paths are nonempty");
            let mut full = current.clone();
            full.extend(parents.iter().map(|p| PathSeg::Key(p.clone())));
            let table = resolve_table(&mut root, &full).map_err(|m| Error::at(m, line_no))?;
            if table.iter().any(|(k, _)| k == leaf) {
                return Err(Error::at(format!("duplicate key `{leaf}`"), line_no));
            }
            let (value, rest) = parse_value(value_part.trim(), 0).map_err(|m| Error::at(m, line_no))?;
            if !rest.trim().is_empty() {
                return Err(Error::at(
                    format!("trailing characters after value: `{}`", rest.trim()),
                    line_no,
                ));
            }
            table.push((leaf.clone(), value));
        }
    }
    Ok(Value::Map(root))
}

#[derive(Debug, Clone, PartialEq)]
enum PathSeg {
    Key(String),
    /// Step into the last element of an array of tables.
    LastElement,
}

fn path_segs(path: &[String]) -> Vec<PathSeg> {
    path.iter().map(|p| PathSeg::Key(p.clone())).collect()
}

/// Navigate (creating as needed) to the table at `path`.
fn resolve_table<'a>(
    root: &'a mut Vec<(String, Value)>,
    path: &[PathSeg],
) -> Result<&'a mut Vec<(String, Value)>, String> {
    let mut table = root;
    for seg in path {
        match seg {
            PathSeg::Key(key) => {
                if !table.iter().any(|(k, _)| k == key) {
                    table.push((key.clone(), Value::Map(Vec::new())));
                }
                let slot = table
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .expect("just ensured present");
                table = match slot {
                    Value::Map(m) => m,
                    Value::Seq(s) => match s.last_mut() {
                        Some(Value::Map(m)) => m,
                        _ => return Err(format!("`{key}` is not a table")),
                    },
                    _ => return Err(format!("`{key}` is already a non-table value")),
                };
            }
            PathSeg::LastElement => {
                // Handled by the Seq arm above via the preceding key.
            }
        }
    }
    Ok(table)
}

/// Navigate (creating as needed) to the array of tables at `path`.
fn resolve_seq<'a>(root: &'a mut Vec<(String, Value)>, path: &[String]) -> Result<&'a mut Vec<Value>, String> {
    let (leaf, parents) = path.split_last().ok_or("empty [[table]] header")?;
    let table = resolve_table(root, &path_segs(parents))?;
    if !table.iter().any(|(k, _)| k == leaf) {
        table.push((leaf.clone(), Value::Seq(Vec::new())));
    }
    match table.iter_mut().find(|(k, _)| k == leaf).map(|(_, v)| v) {
        Some(Value::Seq(s)) => Ok(s),
        _ => Err(format!("`{leaf}` is already a non-array value")),
    }
}

/// Count unbalanced `[`/`]` outside strings (for multi-line arrays); `key = [`
/// headers like `[table]` are balanced so they report 0.
fn open_brackets(line: &str) -> Result<i32, String> {
    let mut depth = 0i32;
    let mut chars = line.chars().peekable();
    let mut in_basic = false;
    let mut in_literal = false;
    while let Some(c) = chars.next() {
        match c {
            '\\' if in_basic => {
                chars.next();
            }
            '"' if !in_literal => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            '#' if !in_basic && !in_literal => break,
            '[' if !in_basic && !in_literal => depth += 1,
            ']' if !in_basic && !in_literal => depth -= 1,
            _ => {}
        }
    }
    if in_basic || in_literal {
        return Err("unterminated string".to_string());
    }
    Ok(depth.max(0))
}

/// Strip a trailing comment, respecting strings.
fn strip_comment(line: &str) -> Result<&str, String> {
    let mut in_basic = false;
    let mut in_literal = false;
    let mut iter = line.char_indices().peekable();
    while let Some((i, c)) = iter.next() {
        match c {
            '\\' if in_basic => {
                iter.next();
            }
            '"' if !in_literal => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            '#' if !in_basic && !in_literal => return Ok(&line[..i]),
            _ => {}
        }
    }
    if in_basic || in_literal {
        return Err("unterminated string".to_string());
    }
    Ok(line)
}

/// Split `key = value` at the first `=` outside strings.
fn split_assignment(line: &str) -> Option<(&str, &str)> {
    let mut in_basic = false;
    let mut in_literal = false;
    let mut iter = line.char_indices().peekable();
    while let Some((i, c)) = iter.next() {
        match c {
            '\\' if in_basic => {
                iter.next();
            }
            '"' if !in_literal => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            '=' if !in_basic && !in_literal => return Some((line[..i].trim(), line[i + 1..].trim())),
            _ => {}
        }
    }
    None
}

/// Parse a possibly-dotted, possibly-quoted key path.
fn parse_key_path(s: &str) -> Result<Vec<String>, String> {
    let s = s.trim();
    if s.is_empty() {
        return Err("empty key".to_string());
    }
    let mut parts = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start();
        let (part, after) = if let Some(stripped) = rest.strip_prefix('"') {
            let end = find_string_end(stripped, '"')?;
            (unescape_basic(&stripped[..end])?, &stripped[end + 1..])
        } else if let Some(stripped) = rest.strip_prefix('\'') {
            let end = stripped.find('\'').ok_or("unterminated literal key")?;
            (stripped[..end].to_string(), &stripped[end + 1..])
        } else {
            let end = rest.find('.').unwrap_or(rest.len());
            let bare = rest[..end].trim();
            if bare.is_empty() || !bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') {
                return Err(format!("invalid bare key `{bare}`"));
            }
            (bare.to_string(), &rest[end..])
        };
        parts.push(part);
        let after = after.trim_start();
        if after.is_empty() {
            return Ok(parts);
        }
        rest = after
            .strip_prefix('.')
            .ok_or_else(|| format!("expected `.` in key, found `{after}`"))?;
    }
}

fn find_string_end(s: &str, quote: char) -> Result<usize, String> {
    let mut iter = s.char_indices();
    while let Some((i, c)) = iter.next() {
        if c == '\\' {
            iter.next();
        } else if c == quote {
            return Ok(i);
        }
    }
    Err("unterminated string".to_string())
}

fn unescape_basic(s: &str) -> Result<String, String> {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16).map_err(|_| format!("invalid \\u escape `{hex}`"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("invalid \\u escape `{hex}`"))?);
            }
            Some('U') => {
                let hex: String = chars.by_ref().take(8).collect();
                let code = u32::from_str_radix(&hex, 16).map_err(|_| format!("invalid \\U escape `{hex}`"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("invalid \\U escape `{hex}`"))?);
            }
            other => return Err(format!("invalid escape `\\{other:?}`")),
        }
    }
    Ok(out)
}

/// Deepest inline-array nesting the parser accepts.  Every document the
/// workspace reads nests at most four levels; the limit turns hostile input
/// like 200 000 balanced `[`…`]` into an error instead of a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parse one inline value, returning it plus any unconsumed remainder.
/// `depth` counts the arrays around it.
fn parse_value(s: &str, depth: usize) -> Result<(Value, &str), String> {
    let s = s.trim_start();
    if let Some(stripped) = s.strip_prefix('"') {
        let end = find_string_end(stripped, '"')?;
        return Ok((Value::Str(unescape_basic(&stripped[..end])?), &stripped[end + 1..]));
    }
    if let Some(stripped) = s.strip_prefix('\'') {
        let end = stripped.find('\'').ok_or("unterminated literal string")?;
        return Ok((Value::Str(stripped[..end].to_string()), &stripped[end + 1..]));
    }
    if let Some(stripped) = s.strip_prefix('[') {
        if depth == MAX_DEPTH {
            return Err(format!("arrays nested deeper than {MAX_DEPTH}"));
        }
        let mut items = Vec::new();
        let mut rest = stripped.trim_start();
        loop {
            if let Some(after) = rest.strip_prefix(']') {
                return Ok((Value::Seq(items), after));
            }
            let (item, after) = parse_value(rest, depth + 1)?;
            items.push(item);
            rest = after.trim_start();
            if let Some(after_comma) = rest.strip_prefix(',') {
                rest = after_comma.trim_start();
            } else if !rest.starts_with(']') {
                return Err(format!("expected `,` or `]` in array, found `{rest}`"));
            }
        }
    }
    if s.starts_with('{') {
        return Err("inline tables `{...}` are not supported by the toml shim; use a [table]".to_string());
    }
    // Bare scalar: runs to the next `,`, `]` or end.
    let end = s.find([',', ']']).unwrap_or(s.len());
    let (token, rest) = (s[..end].trim(), &s[end..]);
    if token.is_empty() {
        return Err("empty value".to_string());
    }
    match token {
        "true" => return Ok((Value::Bool(true), rest)),
        "false" => return Ok((Value::Bool(false), rest)),
        "inf" | "+inf" => return Ok((Value::F64(f64::INFINITY), rest)),
        "-inf" => return Ok((Value::F64(f64::NEG_INFINITY), rest)),
        "nan" | "+nan" | "-nan" => return Ok((Value::F64(f64::NAN), rest)),
        _ => {}
    }
    let cleaned: String = token.chars().filter(|c| *c != '_').collect();
    if !cleaned.contains(['.', 'e', 'E']) {
        if let Ok(i) = cleaned.parse::<i64>() {
            return Ok((Value::I64(i), rest));
        }
        if let Ok(u) = cleaned.parse::<u64>() {
            return Ok((Value::U64(u), rest));
        }
    }
    if let Ok(f) = cleaned.parse::<f64>() {
        return Ok((Value::F64(f), rest));
    }
    Err(format!("cannot parse value `{token}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_and_arrays_of_tables() {
        let doc = r#"
# campaign-style document
title = "demo"
count = 3
share = 62.5

[nested]
flag = true
dims = [64, 64, 32]   # inline array

[nested.deeper]
name = 'literal'

[[stage]]
name = "a"
share = 40

[[stage]]
name = "b"
share = 60
"#;
        let v = parse_document(doc).unwrap();
        assert_eq!(v.get("title").and_then(Value::as_str), Some("demo"));
        assert_eq!(v.get("count"), Some(&Value::I64(3)));
        assert_eq!(v.get("share"), Some(&Value::F64(62.5)));
        let nested = v.get("nested").unwrap();
        assert_eq!(nested.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(nested.get("dims").and_then(Value::as_seq).map(<[Value]>::len), Some(3));
        assert_eq!(
            nested.get("deeper").and_then(|d| d.get("name")).and_then(Value::as_str),
            Some("literal")
        );
        let stages = v.get("stage").and_then(Value::as_seq).unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[1].get("share"), Some(&Value::I64(60)));
    }

    #[test]
    fn multi_line_arrays_join() {
        let doc = "xs = [\n  1,\n  2,\n]\n";
        let v = parse_document(doc).unwrap();
        assert_eq!(v.get("xs").and_then(Value::as_seq).map(<[Value]>::len), Some(2));
    }

    #[test]
    fn multi_line_arrays_allow_comments() {
        let doc = "dims = [\n  32, # x\n  16, # y\n  8,\n]\nafter = true\n";
        let v = parse_document(doc).unwrap();
        assert_eq!(
            v.get("dims").and_then(Value::as_seq),
            Some(&[Value::I64(32), Value::I64(16), Value::I64(8)][..])
        );
        assert_eq!(v.get("after"), Some(&Value::Bool(true)));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_document("key").is_err());
        assert!(parse_document("a = 1\na = 2").is_err());
        assert!(parse_document("a = \"unterminated").is_err());
        assert!(parse_document("a = {x = 1}").is_err());
        assert!(parse_document("a = 1 garbage").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("a = {}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_document(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_document(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse_document(&nested(200_000)).is_err());
    }

    #[test]
    fn emits_round_trippable_documents() {
        let v = Value::Map(vec![
            ("name".to_string(), Value::Str("x \"quoted\"\n".to_string())),
            ("seed".to_string(), Value::I64(42)),
            ("ratio".to_string(), Value::F64(0.75)),
            (
                "table".to_string(),
                Value::Map(vec![(
                    "dims".to_string(),
                    Value::Seq(vec![Value::I64(4), Value::I64(8)]),
                )]),
            ),
            (
                "stages".to_string(),
                Value::Seq(vec![
                    Value::Map(vec![("share".to_string(), Value::I64(100))]),
                    Value::Map(vec![("share".to_string(), Value::I64(0))]),
                ]),
            ),
        ]);
        let mut out = String::new();
        emit_table(&mut out, &[], v.as_map().unwrap()).unwrap();
        let back = parse_document(&out).unwrap();
        assert_eq!(back, v, "emitted:\n{out}");
    }
}
