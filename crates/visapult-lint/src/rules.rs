//! The five workspace invariants, as token-level checks over scanned lines.

use crate::config::{path_matches, LintConfig};
use crate::lexer::{find_word, has_word, SourceLine};

/// One rule violation at a specific source line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (one of [`crate::config::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What tripped and why it matters.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Whether the line sits in test/harness scope (allowlistable with
    /// `scope = "test"`).
    pub in_test: bool,
}

fn finding(rule: &'static str, file: &str, lineno: usize, line: &SourceLine, message: String) -> Finding {
    Finding {
        rule,
        file: file.to_string(),
        line: lineno + 1,
        message,
        snippet: line.raw.trim().to_string(),
        in_test: line.in_test,
    }
}

/// Run every rule over one scanned file.
pub fn check_file(file: &str, lines: &[SourceLine], cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    determinism(file, lines, cfg, &mut out);
    fingerprint_order(file, lines, cfg, &mut out);
    relaxed_atomics(file, lines, &mut out);
    unsafe_hygiene(file, lines, &mut out);
    output_hygiene(file, lines, cfg, &mut out);
    out
}

/// Rule 1 — determinism: wall-clock reads, raw sleeps and unseeded RNG are
/// banned outside the Clock implementations.  Replay fingerprints are only
/// byte-identical across the Real and VirtualTime paths because time flows
/// through the `Clock` seam; a stray `Instant::now` is a latent fingerprint
/// flip.
fn determinism(file: &str, lines: &[SourceLine], cfg: &LintConfig, out: &mut Vec<Finding>) {
    if cfg.clock_impls.iter().any(|c| path_matches(file, c))
        || cfg.determinism_skip.iter().any(|s| path_matches(file, s))
    {
        return;
    }
    const BANNED: [(&str, &str); 6] = [
        ("Instant::now", "wall-clock read outside the Clock seam"),
        ("SystemTime::now", "wall-clock read outside the Clock seam"),
        (
            "thread::sleep",
            "raw sleep outside the Clock seam (use Clock::pace_until)",
        ),
        (
            "thread_rng",
            "unseeded RNG breaks replay determinism (seed via StdRng::seed_from_u64)",
        ),
        (
            "from_entropy",
            "unseeded RNG breaks replay determinism (seed via StdRng::seed_from_u64)",
        ),
        (
            "rand::random",
            "unseeded RNG breaks replay determinism (seed via StdRng::seed_from_u64)",
        ),
    ];
    for (i, l) in lines.iter().enumerate() {
        for (token, why) in BANNED {
            if has_word(&l.code, token) {
                out.push(finding("determinism", file, i, l, format!("`{token}`: {why}")));
            }
        }
    }
}

/// Rule 2 — fingerprint ordering: in fingerprint-covered modules, iterating a
/// `HashMap`/`HashSet` is banned unless the results are sorted or the
/// container is a BTree type.  Hash iteration order is
/// seed-and-allocation-dependent, so any event, report line or byte stream
/// folded from it would differ run to run.
fn fingerprint_order(file: &str, lines: &[SourceLine], cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !cfg.fingerprint_files.iter().any(|f| path_matches(file, f)) {
        return;
    }
    let hash_idents = collect_hash_idents(lines);
    const ITER_METHODS: [&str; 5] = [".iter()", ".keys()", ".values()", ".drain(", ".into_iter()"];

    for (i, l) in lines.iter().enumerate() {
        let code = &l.code;
        // Direct iteration of a known hash-typed binding: `name.iter()`,
        // `for … in name` / `&name` / `name.keys()` …
        for ident in &hash_idents {
            let mut hit = false;
            for m in ITER_METHODS {
                let probe = format!("{ident}{m}");
                if code.contains(&probe) && has_word(code, ident) {
                    hit = true;
                }
            }
            if let Some(pos) = find_word(code, "for", 0) {
                if let Some(inpos) = find_word(code, "in", pos) {
                    let tail = &code[inpos..];
                    if has_word(tail, ident) && !tail.contains('.') {
                        hit = true;
                    }
                }
            }
            if hit && !sorted_escape(lines, i) {
                out.push(finding(
                    "fingerprint-order",
                    file,
                    i,
                    l,
                    format!(
                        "iteration over hash-ordered `{ident}` in a fingerprint-covered module \
                         (sort the results or use a BTree container)"
                    ),
                ));
            }
        }
    }
}

/// Identifiers bound to `HashMap`/`HashSet` in this file: field/let/param
/// type annotations (`name: HashMap<…>`) and constructor bindings
/// (`let name = HashMap::new()`).
fn collect_hash_idents(lines: &[SourceLine]) -> Vec<String> {
    let mut idents = Vec::new();
    for l in lines {
        let code = &l.code;
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(at) = find_word(code, ty, from) {
                from = at + ty.len();
                let before = code[..at].trim_end();
                if let Some(head) = before.strip_suffix(':') {
                    if let Some(name) = trailing_ident(head) {
                        push_unique(&mut idents, name);
                        continue;
                    }
                }
                if let Some(head) = before.strip_suffix('=') {
                    if let Some(name) = trailing_ident(head) {
                        push_unique(&mut idents, name);
                    }
                }
            }
        }
    }
    idents
}

fn trailing_ident(text: &str) -> Option<String> {
    let trimmed = text.trim_end();
    let tail: String = trimmed
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    let name: String = tail.chars().rev().collect();
    (!name.is_empty()
        && !name.chars().next().unwrap().is_ascii_digit()
        && !matches!(name.as_str(), "mut" | "let" | "pub"))
    .then_some(name)
}

fn push_unique(v: &mut Vec<String>, s: String) {
    if !v.contains(&s) {
        v.push(s);
    }
}

/// The iteration is fine when this line or the next two sort the results or
/// land them in a BTree container.
fn sorted_escape(lines: &[SourceLine], i: usize) -> bool {
    lines[i..lines.len().min(i + 3)]
        .iter()
        .any(|l| l.code.contains(".sort") || l.code.contains("sorted") || l.code.contains("BTree"))
}

/// Rule 3 — atomics audit: every `Ordering::Relaxed` needs a justified
/// allowlist entry.  Relaxed is correct for monotonic counters read after a
/// join and wrong almost everywhere else; the audit keeps each site's
/// argument written down where the next PR will see it.
fn relaxed_atomics(file: &str, lines: &[SourceLine], out: &mut Vec<Finding>) {
    for (i, l) in lines.iter().enumerate() {
        if has_word(&l.code, "Relaxed") {
            out.push(finding(
                "relaxed-atomics",
                file,
                i,
                l,
                "`Ordering::Relaxed` requires a justified lint.toml entry (what makes this \
                 site safe without acquire/release edges?)"
                    .to_string(),
            ));
        }
    }
}

/// Rule 4 — unsafe hygiene: an `unsafe` block/impl/fn needs an adjacent
/// `// SAFETY:` comment stating the proof obligation.
fn unsafe_hygiene(file: &str, lines: &[SourceLine], out: &mut Vec<Finding>) {
    for (i, l) in lines.iter().enumerate() {
        if !has_word(&l.code, "unsafe") {
            continue;
        }
        let documented = lines[i.saturating_sub(3)..=i]
            .iter()
            .any(|prev| prev.comment.contains("SAFETY:"));
        if !documented {
            out.push(finding(
                "unsafe-hygiene",
                file,
                i,
                l,
                "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
            ));
        }
    }
}

/// Rule 5 — output hygiene: library crates never print (reports flow through
/// `CampaignReport`/NetLogger).
fn output_hygiene(file: &str, lines: &[SourceLine], cfg: &LintConfig, out: &mut Vec<Finding>) {
    if !cfg.output_crates.iter().any(|c| path_matches(file, c)) {
        return;
    }
    const PRINTS: [&str; 4] = ["println!", "eprintln!", "print!", "eprint!"];
    for (i, l) in lines.iter().enumerate() {
        if l.in_test {
            continue;
        }
        for m in PRINTS {
            if l.code.contains(m) {
                out.push(finding(
                    "output-hygiene",
                    file,
                    i,
                    l,
                    format!("`{m}` in a library crate (route output through the report/logger layer)"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn cfg_with(fp_files: &[&str], out_crates: &[&str]) -> LintConfig {
        let mut cfg = LintConfig::from_toml("").unwrap();
        cfg.fingerprint_files = fp_files.iter().map(|s| s.to_string()).collect();
        cfg.output_crates = out_crates.iter().map(|s| s.to_string()).collect();
        cfg
    }

    #[test]
    fn determinism_flags_wall_clock_but_not_comments() {
        let lines = scan("let t = Instant::now(); // Instant::now is fine here\n", false);
        let f = check_file("a.rs", &lines, &cfg_with(&[], &[]));
        assert_eq!(f.iter().filter(|f| f.rule == "determinism").count(), 1);
    }

    #[test]
    fn clock_impls_are_exempt() {
        let mut cfg = cfg_with(&[], &[]);
        cfg.clock_impls = vec!["clock.rs".to_string()];
        let lines = scan("let t = Instant::now();\n", false);
        assert!(check_file("clock.rs", &lines, &cfg).is_empty());
    }

    #[test]
    fn hash_iteration_flagged_only_in_fingerprint_files() {
        let src = "let mut m: HashMap<u32, u32> = HashMap::new();\nfor (k, v) in &m { emit(k, v); }\n";
        let lines = scan(src, false);
        let hits = check_file("fp.rs", &lines, &cfg_with(&["fp.rs"], &[]));
        assert_eq!(
            hits.iter().filter(|f| f.rule == "fingerprint-order").count(),
            1,
            "{hits:?}"
        );
        assert!(check_file("other.rs", &lines, &cfg_with(&["fp.rs"], &[])).is_empty());
    }

    #[test]
    fn sorted_iteration_escapes() {
        let src = "let m: HashMap<u32, u32> = HashMap::new();\nlet mut v: Vec<_> = m.iter().collect();\nv.sort();\n";
        let lines = scan(src, false);
        let hits = check_file("fp.rs", &lines, &cfg_with(&["fp.rs"], &[]));
        assert!(hits.iter().all(|f| f.rule != "fingerprint-order"), "{hits:?}");
    }

    #[test]
    fn relaxed_and_unsafe_rules_fire() {
        let src = "x.load(Ordering::Relaxed);\nunsafe { y() };\n// SAFETY: trusted\nunsafe { z() };\n";
        let lines = scan(src, false);
        let f = check_file("a.rs", &lines, &cfg_with(&[], &[]));
        assert_eq!(f.iter().filter(|f| f.rule == "relaxed-atomics").count(), 1);
        assert_eq!(f.iter().filter(|f| f.rule == "unsafe-hygiene").count(), 1, "{f:?}");
    }

    #[test]
    fn println_banned_in_core_but_not_in_tests() {
        let src = "fn p() { println!(\"x\"); }\n#[cfg(test)]\nmod tests {\n    fn t() { println!(\"ok\"); }\n}\n";
        let lines = scan(src, false);
        let f = check_file("core/src/lib.rs", &lines, &cfg_with(&[], &["core/"]));
        assert_eq!(f.iter().filter(|f| f.rule == "output-hygiene").count(), 1, "{f:?}");
    }
}
