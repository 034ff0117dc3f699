//! Hostile text through the codecs: every document the workspace reads with a
//! serde shim — the bundled scenarios, `lint.toml`, `BENCHMARK.json` and a
//! committed `BENCH_*.json` — mutated by random inserts, deletes and
//! truncations, then fed to `ScenarioSpec::from_toml_str`,
//! `toml::parse_document` and `serde_json::from_str::<Value>` regardless of
//! its format.  Each call must return `Ok` or `Err`; none may panic, overflow
//! the stack or hang.
//!
//! Tier-1 runs 500 cases; the `#[ignore]`d sweep runs 10⁵ (about 5 s in
//! release on a 2-core x86-64 host):
//! `cargo test --release -q --test hostile_text -- --ignored`.

use proptest::collection::vec;
use proptest::prelude::*;
use serde::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use visapult::core::ScenarioSpec;

/// The corpus: every text a serde shim parses in this repository.
const DOCUMENTS: [(&str, &str); 9] = [
    ("cache_stress.toml", include_str!("../scenarios/cache_stress.toml")),
    (
        "combustion_corridor_oc12.toml",
        include_str!("../scenarios/combustion_corridor_oc12.toml"),
    ),
    ("exhibit_floor.toml", include_str!("../scenarios/exhibit_floor.toml")),
    ("quickstart_lan.toml", include_str!("../scenarios/quickstart_lan.toml")),
    ("sc99_exhibit.toml", include_str!("../scenarios/sc99_exhibit.toml")),
    ("wan_stripes.toml", include_str!("../scenarios/wan_stripes.toml")),
    ("lint.toml", include_str!("../lint.toml")),
    ("BENCHMARK.json", include_str!("../BENCHMARK.json")),
    ("BENCH_service.json", include_str!("../BENCH_service.json")),
];

/// What an insert splices in: structural characters of both formats,
/// escapes (`%` stands for a backslash) including lone and mismatched
/// surrogates, number edge cases, multi-byte and control characters.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "[[",
    "]]",
    "{",
    "}",
    "\"",
    "'",
    "%",
    "=",
    ",",
    ".",
    ":",
    "#",
    "\n",
    " ",
    "\t",
    "-",
    "+",
    "_",
    "0",
    "9",
    "e",
    "a",
    "true",
    "null",
    "nan",
    "inf",
    "1e999",
    "-0",
    "99999999999999999999",
    "0x1F",
    "%u",
    "%ud800",
    "%ud800%u0041",
    "%ud800%udbff",
    "%ud800%ue000",
    "%udc00",
    "%U0010FFFF",
    "%U00110000",
    "%n",
    "%q",
    "\u{0}",
    "\u{7f}",
    "\u{e9}",
    "\u{1F600}",
    "[a]\n",
    "[[stages]]\n",
    "x = ",
    "= [",
    "\"\"\"",
];

/// Apply `edits` to `doc`: each is `(kind, where, what)` — insert a token,
/// delete up to 16 characters, or truncate — at a character position, so the
/// result stays valid UTF-8 like every `&str` a parser is handed.
fn mutate(doc: &str, edits: &[(u8, u64, u64)]) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    for &(kind, at, what) in edits {
        let at = (at % (chars.len() as u64 + 1)) as usize;
        match kind {
            0 => {
                let token = TOKENS[(what % TOKENS.len() as u64) as usize].replace('%', "\\");
                chars.splice(at..at, token.chars());
            }
            1 => {
                let end = (at + 1 + (what % 16) as usize).min(chars.len());
                chars.drain(at..end);
            }
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

/// Feed one text to the three decoders; panic, naming the input, if any
/// of them does.
fn decode_everywhere(name: &str, text: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = ScenarioSpec::from_toml_str(text);
        let _ = toml::parse_document(text);
        let _ = serde_json::from_str::<Value>(text);
    }));
    assert!(outcome.is_ok(), "a decoder panicked on mutated {name}:\n{text:?}");
}

fn check(doc: usize, edits: &[(u8, u64, u64)]) {
    let (name, text) = DOCUMENTS[doc];
    decode_everywhere(name, &mutate(text, edits));
}

#[test]
fn the_unmutated_corpus_parses_in_its_own_format() {
    for (name, text) in DOCUMENTS {
        if name.ends_with(".json") {
            serde_json::from_str::<Value>(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        } else {
            toml::parse_document(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        if name.ends_with(".toml") && name != "lint.toml" {
            ScenarioSpec::from_toml_str(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        decode_everywhere(name, text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn mutated_documents_never_panic_a_decoder(
        doc in 0..DOCUMENTS.len(),
        edits in vec((0u8..3, any::<u64>(), any::<u64>()), 1..8),
    ) {
        check(doc, &edits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    #[test]
    #[ignore = "10^5 cases; run in release with --ignored"]
    fn mutated_documents_never_panic_a_decoder_sweep(
        doc in 0..DOCUMENTS.len(),
        edits in vec((0u8..3, any::<u64>(), any::<u64>()), 1..8),
    ) {
        check(doc, &edits);
    }
}
