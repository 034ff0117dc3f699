//! Codec-surface snapshot: every type under `crates/` that derives the serde
//! shim's `Serialize` or `Deserialize` is pinned here, with the traits it
//! derives, so a derive is added only with the encode/decode call that needs
//! it — and dropped when that call goes.
//!
//! Four codec uses reach these types, and nothing else may: `ScenarioSpec` ⇄
//! TOML (`from_toml_str`, `to_toml_string`, the knob census's
//! `.serialize()`), `MetricsSnapshot` → JSONL (`to_jsonl`), vlint's
//! `lint.toml` → `RawDoc`, and a raw `serde::Value` ⇄ JSON (no derive).  If
//! you add, remove or change a derive, update `EXPECTED` in the same commit.

use std::path::Path;

/// Both traits: the type is written and read.
const SER_DE: &str = "Serialize, Deserialize";
/// Read only.
const DE: &str = "Deserialize";
/// The scenario spec module, home of 16 of the 29.
const SPEC: &str = "crates/visapult-core/src/campaign/scenario/spec.rs";

/// `(file under the repository root, type, derived serde traits)`, sorted.
const EXPECTED: &[(&str, &str, &str)] = &[
    ("crates/netlogger/src/metrics.rs", "HistogramSummary", SER_DE),
    ("crates/netlogger/src/metrics.rs", "MetricsSnapshot", SER_DE),
    ("crates/netsim/src/testbeds.rs", "TestbedKind", SER_DE),
    (SPEC, "CacheSpec", SER_DE),
    (SPEC, "DatasetSpec", SER_DE),
    (SPEC, "ExecutionPath", SER_DE),
    (SPEC, "PipelineSpec", SER_DE),
    (SPEC, "PlatformSpec", SER_DE),
    (SPEC, "RealPathSpec", SER_DE),
    (SPEC, "RenderSpec", SER_DE),
    (SPEC, "ScenarioMeta", SER_DE),
    (SPEC, "ScenarioSpec", SER_DE),
    (SPEC, "ServiceTableSpec", SER_DE),
    (SPEC, "SessionArrivalSpec", SER_DE),
    (SPEC, "SimPathSpec", SER_DE),
    (SPEC, "StageSpec", SER_DE),
    (SPEC, "TelemetrySpec", SER_DE),
    (SPEC, "TestbedSpec", SER_DE),
    (SPEC, "TransportSpec", SER_DE),
    ("crates/visapult-core/src/config.rs", "ExecutionMode", SER_DE),
    ("crates/visapult-core/src/service/mod.rs", "QualityTier", SER_DE),
    ("crates/visapult-core/src/transport.rs", "TcpTuning", SER_DE),
    ("crates/visapult-lint/src/config.rs", "RawAllow", DE),
    ("crates/visapult-lint/src/config.rs", "RawDeterminism", DE),
    ("crates/visapult-lint/src/config.rs", "RawDoc", DE),
    ("crates/visapult-lint/src/config.rs", "RawFingerprint", DE),
    ("crates/visapult-lint/src/config.rs", "RawLint", DE),
    ("crates/visapult-lint/src/config.rs", "RawOutput", DE),
    ("crates/visapult-lint/src/config.rs", "RawRules", DE),
];

/// Every `.rs` file under `dir`, as paths relative to `root`.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(root, &path, out);
            }
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
            out.push(rel);
        }
    }
}

/// The serde derives in one source file: `(type, traits)` for every
/// `#[derive(..)]` line naming `Serialize` or `Deserialize`.
fn serde_derives(src: &str) -> Vec<(String, String)> {
    let mut found = Vec::new();
    let mut rest = src;
    while let Some(at) = rest.find("#[derive(") {
        let line_start = rest[..at].rfind('\n').map_or(0, |i| i + 1);
        let is_attribute = rest[line_start..at].trim().is_empty();
        rest = &rest[at + "#[derive(".len()..];
        let close = rest.find(")]").expect("a derive attribute closes");
        let traits: Vec<&str> = rest[..close]
            .split(',')
            .map(str::trim)
            .filter(|t| matches!(*t, "Serialize" | "Deserialize"))
            .collect();
        if !is_attribute || traits.is_empty() {
            continue;
        }
        // The item the attribute sits on: the identifier after the next
        // `struct` or `enum` keyword.
        let name = rest
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .skip_while(|w| !matches!(*w, "struct" | "enum"))
            .nth(1)
            .expect("a derive attribute sits on a struct or enum");
        found.push((name.to_string(), traits.join(", ")));
    }
    found
}

#[test]
fn serde_derives_are_pinned_to_the_codec_uses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(root, &root.join("crates"), &mut files);
    let mut actual = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(root.join(file)).unwrap();
        for (name, traits) in serde_derives(&src) {
            actual.push((file.clone(), name, traits));
        }
    }
    actual.sort();

    let expected: Vec<(String, String, String)> = EXPECTED
        .iter()
        .map(|(f, t, d)| (f.to_string(), t.to_string(), d.to_string()))
        .collect();
    assert!(
        expected.windows(2).all(|w| w[0] < w[1]),
        "keep EXPECTED sorted and duplicate-free"
    );
    let added: Vec<_> = actual.iter().filter(|r| !expected.contains(r)).collect();
    let removed: Vec<_> = expected.iter().filter(|r| !actual.contains(r)).collect();
    assert!(
        added.is_empty() && removed.is_empty(),
        "the serde codec surface changed.\n  added: {added:?}\n  removed: {removed:?}\n\
         A derive must be reached by an encode/decode call (ScenarioSpec ⇄ TOML, MetricsSnapshot → \
         JSONL, lint.toml → RawDoc) or a test of one.  Name the call that reaches each added type, \
         or drop the derive; then update EXPECTED in tests/codec_surface.rs in the same commit."
    );
}

#[test]
fn the_scanner_reads_multi_line_and_partial_derives() {
    let src = "#[derive(Debug, Clone,\n    Serialize)]\npub(crate) struct A {\n    x: u32,\n}\n\
               /// Doc mentioning #[derive(Serialize)] mid-line.\n\
               #[derive(Debug)]\nenum B { X }\n#[derive(Deserialize)]\n#[serde_note]\nenum C { Y }\n";
    assert_eq!(
        serde_derives(src),
        vec![
            ("A".to_string(), "Serialize".to_string()),
            ("C".to_string(), "Deserialize".to_string())
        ]
    );
}
