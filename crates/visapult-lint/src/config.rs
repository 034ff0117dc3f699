//! `lint.toml`: rule configuration and the justification-bearing allowlist.

use serde::Deserialize;
use std::fmt;

/// The rule identifiers `vlint` knows.  `lint.toml` entries must name one.
pub const RULES: [&str; 5] = [
    "determinism",
    "fingerprint-order",
    "relaxed-atomics",
    "unsafe-hygiene",
    "output-hygiene",
];

/// A configuration problem in `lint.toml` (reported before any scanning).
#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

// Raw deserialization targets (every field optional so a sparse lint.toml
// still parses; `LintConfig::from_toml` applies defaults and validates).

#[derive(Debug, Deserialize)]
struct RawDoc {
    lint: Option<RawLint>,
    rules: Option<RawRules>,
    allow: Option<Vec<RawAllow>>,
}

#[derive(Debug, Deserialize)]
struct RawLint {
    roots: Option<Vec<String>>,
    skip: Option<Vec<String>>,
}

#[derive(Debug, Deserialize)]
struct RawRules {
    determinism: Option<RawDeterminism>,
    fingerprint: Option<RawFingerprint>,
    output: Option<RawOutput>,
}

#[derive(Debug, Deserialize)]
struct RawDeterminism {
    clock_impls: Option<Vec<String>>,
    skip: Option<Vec<String>>,
}

#[derive(Debug, Deserialize)]
struct RawFingerprint {
    files: Option<Vec<String>>,
}

#[derive(Debug, Deserialize)]
struct RawOutput {
    crates: Option<Vec<String>>,
}

#[derive(Debug, Deserialize)]
struct RawAllow {
    rule: Option<String>,
    file: Option<String>,
    pattern: Option<String>,
    scope: Option<String>,
    justification: Option<String>,
}

/// One `[[allow]]` entry: a deliberate, justified suppression.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Which rule the entry suppresses.
    pub rule: String,
    /// Workspace-relative file, or a directory prefix ending in `/`.
    pub file: String,
    /// When present, the flagged code line must contain this substring.
    pub pattern: Option<String>,
    /// `"test"` restricts the entry to findings inside test/harness code;
    /// `"any"` (the default) suppresses regardless of scope.
    pub scope: Scope,
    /// The required one-line why.  Never empty.
    pub justification: String,
}

/// Where an allowlist entry applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Production and test code alike.
    Any,
    /// Only findings inside `#[cfg(test)]` regions or harness files
    /// (tests/, benches/, examples/, src/bin/).
    Test,
}

/// Parsed and validated `lint.toml`.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Directories (workspace-relative) to walk for `.rs` files.
    pub roots: Vec<String>,
    /// Path prefixes excluded from every rule (fixtures, generated code).
    pub skip: Vec<String>,
    /// Files *implementing* the Clock seam: the only place wall-clock
    /// primitives may live without an allowlist entry.
    pub clock_impls: Vec<String>,
    /// Path prefixes the determinism rule skips wholesale (the bench harness
    /// measures wall time by design).
    pub determinism_skip: Vec<String>,
    /// Fingerprint-covered modules: unordered hash iteration is banned here.
    pub fingerprint_files: Vec<String>,
    /// Crate roots held to output hygiene (no println!/eprintln! outside
    /// tests and bins).
    pub output_crates: Vec<String>,
    /// The justified suppressions.
    pub allow: Vec<AllowEntry>,
}

impl LintConfig {
    /// Parse and validate a `lint.toml` document.
    pub fn from_toml(text: &str) -> Result<LintConfig, ConfigError> {
        let raw: RawDoc = toml::from_str(text).map_err(|e| ConfigError(e.to_string()))?;
        let lint = raw.lint.unwrap_or(RawLint {
            roots: None,
            skip: None,
        });
        let rules = raw.rules.unwrap_or(RawRules {
            determinism: None,
            fingerprint: None,
            output: None,
        });
        let det = rules.determinism.unwrap_or(RawDeterminism {
            clock_impls: None,
            skip: None,
        });
        let fp = rules.fingerprint.unwrap_or(RawFingerprint { files: None });
        let out = rules.output.unwrap_or(RawOutput { crates: None });

        let mut allow = Vec::new();
        for (i, e) in raw.allow.unwrap_or_default().into_iter().enumerate() {
            let rule = e
                .rule
                .ok_or_else(|| ConfigError(format!("allow entry #{} is missing `rule`", i + 1)))?;
            if !RULES.contains(&rule.as_str()) {
                return Err(ConfigError(format!(
                    "allow entry #{}: unknown rule `{rule}` (expected one of {RULES:?})",
                    i + 1
                )));
            }
            let file = e
                .file
                .ok_or_else(|| ConfigError(format!("allow entry #{} is missing `file`", i + 1)))?;
            let justification = e.justification.unwrap_or_default();
            if justification.trim().is_empty() {
                return Err(ConfigError(format!(
                    "allow entry #{} ({rule} in {file}) has no justification — every \
                     suppression must say why in one line",
                    i + 1
                )));
            }
            let scope = match e.scope.as_deref() {
                None | Some("any") => Scope::Any,
                Some("test") => Scope::Test,
                Some(other) => {
                    return Err(ConfigError(format!(
                        "allow entry #{}: unknown scope `{other}` (expected `test` or `any`)",
                        i + 1
                    )))
                }
            };
            allow.push(AllowEntry {
                rule,
                file,
                pattern: e.pattern,
                scope,
                justification,
            });
        }

        Ok(LintConfig {
            roots: lint.roots.unwrap_or_else(|| {
                vec![
                    "crates".into(),
                    "shims".into(),
                    "src".into(),
                    "tests".into(),
                    "examples".into(),
                ]
            }),
            skip: lint.skip.unwrap_or_default(),
            clock_impls: det.clock_impls.unwrap_or_default(),
            determinism_skip: det.skip.unwrap_or_default(),
            fingerprint_files: fp.files.unwrap_or_default(),
            output_crates: out.crates.unwrap_or_default(),
            allow,
        })
    }
}

/// Does `file` (workspace-relative, `/`-separated) match `spec` — an exact
/// path, or a directory prefix when `spec` ends in `/`?
pub fn path_matches(file: &str, spec: &str) -> bool {
    if let Some(prefix) = spec.strip_suffix('/') {
        file == prefix || file.starts_with(spec) || file.starts_with(&format!("{prefix}/"))
    } else {
        file == spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_config_parses_with_defaults() {
        let cfg = LintConfig::from_toml("").unwrap();
        assert!(cfg.roots.contains(&"crates".to_string()));
        assert!(cfg.allow.is_empty());
    }

    #[test]
    fn entries_require_justifications() {
        let doc = "[[allow]]\nrule = \"determinism\"\nfile = \"x.rs\"\n";
        let err = LintConfig::from_toml(doc).unwrap_err();
        assert!(err.to_string().contains("justification"), "{err}");
    }

    #[test]
    fn unknown_rules_are_rejected() {
        let doc = "[[allow]]\nrule = \"nope\"\nfile = \"x.rs\"\njustification = \"y\"\n";
        assert!(LintConfig::from_toml(doc).is_err());
    }

    #[test]
    fn path_prefix_matching() {
        assert!(path_matches("crates/a/src/lib.rs", "crates/a/"));
        assert!(path_matches("crates/a/src/lib.rs", "crates/a/src/lib.rs"));
        assert!(!path_matches("crates/ab/src/lib.rs", "crates/a/"));
        assert!(!path_matches("crates/a/src/lib.rs", "crates/a/src"));
    }
}
