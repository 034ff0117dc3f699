#![forbid(unsafe_code)]
//! # visapult-lint — the workspace determinism & concurrency invariants, machine-checked
//!
//! The repo's standing invariant — byte-identical replay fingerprints across
//! the Real and VirtualTime paths — used to be enforced only by golden tests
//! after the fact.  `vlint` moves the enforcement to the source: a hand-rolled
//! token-level pass (no syn, no clippy-driver — the vendored-shim discipline
//! applies to tooling too) that fails CI the moment a PR introduces the kinds
//! of nondeterminism the golden tests would only catch at replay time.
//!
//! The rules ([`rules`]):
//!
//! 1. **determinism** — `Instant::now`, `SystemTime::now`, `thread::sleep`
//!    and unseeded RNG are banned outside the `Clock` implementations.
//! 2. **fingerprint-order** — fingerprint-covered modules may not iterate
//!    `HashMap`/`HashSet` unless sorted or BTree-backed.
//! 3. **relaxed-atomics** — every `Ordering::Relaxed` carries a justified
//!    `lint.toml` entry: the audit table of why each site needs no
//!    acquire/release edges.
//! 4. **unsafe-hygiene** — `unsafe` requires an adjacent `// SAFETY:`
//!    comment (the workspace is currently `#![forbid(unsafe_code)]`
//!    throughout, so this rule guards the door).
//! 5. **output-hygiene** — library crates never print.
//!
//! Suppressions live in the root `lint.toml` as `[[allow]]` entries, each
//! requiring a one-line justification; entries that stop matching real source
//! lines are *stale* and fail the pass, so the audit table cannot rot.
//! `vlint --fix-allowlist` emits ready-to-paste entries for current findings
//! so new violations are triaged deliberately instead of hand-writing TOML.

pub mod config;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use config::{AllowEntry, ConfigError, LintConfig, Scope, RULES};
pub use engine::{render_fix_allowlist, render_report, run_lint, LintReport};
pub use rules::Finding;
