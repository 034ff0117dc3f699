//! Offline stand-in for `serde`, vendored so the workspace builds without any
//! registry access.
//!
//! The real serde is a zero-overhead framework generic over data formats; this
//! shim trades that generality for a single self-describing [`Value`] tree:
//! [`Serialize`] renders a type into a `Value` and [`Deserialize`] rebuilds it
//! from one.  The companion `serde_json` and `toml` shims are formatters and
//! parsers for that tree, and the `serde_derive` proc-macro generates the two
//! impls for named-field structs (maps) and unit-only enums (variant names).
//!
//! The workspace crosses a serde codec in exactly four places, and this shim
//! carries only what they reach: `ScenarioSpec` ⇄ TOML, `MetricsSnapshot` →
//! JSONL, `lint.toml` → vlint's config, and a raw [`Value`] ⇄ JSON (bench
//! baselines and the ledger's result lines).  Hence the impls below: `bool`,
//! `i64`, `u32`, `u64`, `usize`, `f64`, `String`, `Option`, `Vec`,
//! string-keyed `BTreeMap`, 2- and 3-tuples, and `Value` itself.
//! `tests/codec_surface.rs` pins the deriving types.  The API stays
//! source-compatible with the real crates for those uses
//! (`#[derive(Serialize, Deserialize)]`, `serde_json::to_string`,
//! `toml::from_str`, ...).

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// A self-describing value: the single intermediate representation every
/// shimmed format reads and writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / null (also what missing map keys deserialize from).
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer too large for `i64`.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Map with insertion order preserved (keeps emitted TOML readable).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Human-readable kind name used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::I64(_) | Value::U64(_) => "an integer",
            Value::F64(_) => "a float",
            Value::Str(_) => "a string",
            Value::Seq(_) => "a sequence",
            Value::Map(_) => "a map",
        }
    }

    /// Map lookup (linear; maps here are tiny).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The map entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The sequence elements, if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deserialization error with a field path for diagnostics.
#[derive(Debug, Clone)]
pub struct DeError {
    msg: String,
    path: Vec<String>,
}

impl DeError {
    /// A free-form error.
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError {
            msg: msg.into(),
            path: Vec::new(),
        }
    }

    /// "expected X, found Y" against an actual value.
    pub fn expected(what: &str, got: &Value) -> Self {
        Self::custom(format!("expected {what}, found {}", got.kind()))
    }

    /// Prefix the path with a field name (derive uses this while unwinding).
    pub fn in_field(mut self, field: &str) -> Self {
        self.path.insert(0, field.to_string());
        self
    }

    /// Prefix the path with a sequence index.
    pub fn in_index(self, index: usize) -> Self {
        self.in_field(&format!("[{index}]"))
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "{}: {}", self.path.join("."), self.msg)
        }
    }
}

impl std::error::Error for DeError {}

/// Render `self` into a [`Value`].
pub trait Serialize {
    /// The value-tree form of `self`.
    fn serialize(&self) -> Value;
}

/// Rebuild `Self` from a [`Value`].
pub trait Deserialize: Sized {
    /// Parse the value tree, with a path-annotated error on mismatch.
    fn deserialize(v: &Value) -> Result<Self, DeError>;
}

static NULL: Value = Value::Null;

/// Map-field lookup used by the derive: missing keys surface as [`Value::Null`]
/// so `Option<T>` fields are naturally optional.
pub fn field<'a>(m: &'a [(String, Value)], name: &str) -> &'a Value {
    m.iter().find(|(k, _)| k == name).map(|(_, v)| v).unwrap_or(&NULL)
}

/// Enum-variant name matching used by the derive: exact, or normalized
/// (case-insensitive with `-`/`_` stripped), so TOML can say
/// `mode = "virtual-time"` for a `VirtualTime` variant.
pub fn variant_matches(candidate: &str, variant: &str) -> bool {
    if candidate == variant {
        return true;
    }
    let norm = |s: &str| {
        s.chars()
            .filter(|c| *c != '-' && *c != '_')
            .flat_map(|c| c.to_lowercase())
            .collect::<String>()
    };
    norm(candidate) == norm(variant)
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for i64 {
    fn serialize(&self) -> Value {
        Value::I64(*self)
    }
}
impl Deserialize for i64 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::I64(i) => Ok(*i),
            Value::U64(u) => i64::try_from(*u).map_err(|_| DeError::custom(format!("{u} out of range for i64"))),
            other => Err(DeError::expected("an integer (i64)", other)),
        }
    }
}

macro_rules! ser_de_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                let wide = *self as u64;
                match i64::try_from(wide) {
                    Ok(i) => Value::I64(i),
                    Err(_) => Value::U64(wide),
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let wide = match v {
                    Value::I64(i) => u64::try_from(*i)
                        .map_err(|_| DeError::custom(format!("{i} is negative but {} is unsigned", stringify!($t))))?,
                    Value::U64(u) => *u,
                    other => return Err(DeError::expected(concat!("an integer (", stringify!($t), ")"), other)),
                };
                <$t>::try_from(wide).map_err(|_| DeError::custom(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
ser_de_unsigned!(u32, u64, usize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::F64(*self)
    }
}
impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::F64(f) => Ok(*f),
            Value::I64(i) => Ok(*i as f64),
            Value::U64(u) => Ok(*u as f64),
            other => Err(DeError::expected("a number (f64)", other)),
        }
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("a boolean", other)),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("a string", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(x) => x.serialize(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(s) => s
                .iter()
                .enumerate()
                .map(|(i, x)| T::deserialize(x).map_err(|e| e.in_index(i)))
                .collect(),
            other => Err(DeError::expected("a sequence", other)),
        }
    }
}

/// String keys only: the [`Value`] model, like JSON and TOML, has no other.
impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self) -> Value {
        Value::Map(self.iter().map(|(k, v)| (k.clone(), v.serialize())).collect())
    }
}
impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Map(m) => m
                .iter()
                .map(|(k, x)| Ok((k.clone(), V::deserialize(x).map_err(|e| e.in_field(k))?)))
                .collect(),
            other => Err(DeError::expected("a map", other)),
        }
    }
}

macro_rules! ser_de_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self) -> Value {
                Value::Seq(vec![$(self.$n.serialize()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                const LEN: usize = 0 $(+ { let _ = $n; 1 })+;
                let s = match v {
                    Value::Seq(s) if s.len() == LEN => s,
                    other => return Err(DeError::expected("a tuple sequence", other)),
                };
                Ok(($($t::deserialize(&s[$n]).map_err(|e| e.in_index($n))?,)+))
            }
        }
    )*};
}
ser_de_tuple! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::deserialize(&42u64.serialize()).unwrap(), 42);
        assert_eq!(i64::deserialize(&(-3i64).serialize()).unwrap(), -3);
        assert_eq!(f64::deserialize(&1.5f64.serialize()).unwrap(), 1.5);
        assert_eq!(f64::deserialize(&Value::I64(7)).unwrap(), 7.0);
        assert!(u32::deserialize(&Value::I64(-1)).is_err());
        assert_eq!(String::deserialize(&"x".to_string().serialize()).unwrap(), "x");
        assert_eq!(Option::<u64>::deserialize(&Value::Null).unwrap(), None);
        assert_eq!(
            <(usize, usize)>::deserialize(&(3usize, 4usize).serialize()).unwrap(),
            (3, 4)
        );
        assert_eq!(
            <(u32, bool, String)>::deserialize(&(7u32, true, "y".to_string()).serialize()).unwrap(),
            (7, true, "y".to_string())
        );
    }

    #[test]
    fn missing_map_fields_read_as_null() {
        let m = vec![("a".to_string(), Value::I64(1))];
        assert_eq!(field(&m, "a"), &Value::I64(1));
        assert_eq!(field(&m, "b"), &Value::Null);
        assert_eq!(Option::<u64>::deserialize(field(&m, "b")).unwrap(), None);
    }

    #[test]
    fn variant_matching_is_normalized() {
        assert!(variant_matches("VirtualTime", "VirtualTime"));
        assert!(variant_matches("virtual-time", "VirtualTime"));
        assert!(variant_matches("nton_cplant", "NtonCplant"));
        assert!(!variant_matches("serial", "Overlapped"));
    }

    #[test]
    fn errors_carry_paths() {
        let e = DeError::custom("boom").in_field("x").in_field("outer");
        assert_eq!(e.to_string(), "outer.x: boom");
    }
}
