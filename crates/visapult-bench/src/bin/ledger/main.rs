//! `ledger` — the repository's benchmark: six workloads on the real path
//! through `Pipeline::builder(spec)…run()`, measured from outside.
//!
//! ```text
//! ledger [--seed N] [--seconds S] [--workload NAME] [--trace 0|1] [--selfcheck]
//! ```
//!
//! With `--workload` the workload runs in this process and the last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`): the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`.  Without it, `ledger` re-executes itself once per
//! workload — so RSS, thread counts and allocator state never leak from one
//! workload into the next — and prints the table of all of them;
//! `--selfcheck` does that twice and holds the two sets to the bounds.
//! README.md beside this file defines every name printed here.

#![forbid(unsafe_code)]

mod measure;
mod metrics;
mod probes;
mod rep;
mod seams;
mod spans;
mod stats;
mod workload;

use metrics::{END_TO_END, FAILED_SHARE_BOUND};
use serde::Value;
use std::process::{Command, ExitCode, Stdio};
use workload::{Workload, DEFAULT_SEED};

/// `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let names: Vec<_> = workload::ALL.iter().map(|w| w.name).collect();
                let found = workload::find(&name);
                args.workload = Some(found.ok_or(format!("unknown workload `{name}`; the workloads are {names:?}"))?);
            }
            "--seed" => args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The metrics one child process reported: its last line of standard output.
struct ChildResult {
    correct: bool,
    /// `failed` ÷ `attempted` of the result line.
    failed_share: f64,
    metrics: Vec<(String, f64)>,
}

impl ChildResult {
    fn value(&self, metric: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == metric)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        _ => None,
    }
}

fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let Value::Map(top) = value else {
        return Err("result line is not an object".to_string());
    };
    let field = |name: &str| top.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let correct = matches!(field("correct"), Some(Value::Bool(true)));
    let (Some(failed), Some(attempted)) = (field("failed").and_then(number), field("attempted").and_then(number))
    else {
        return Err("result line has no `failed` and `attempted` counts".to_string());
    };
    let failed_share = failed / attempted.max(1.0);
    let Some(Value::Map(entries)) = field("metrics") else {
        return Err("result line has no metrics".to_string());
    };
    let mut metrics = Vec::new();
    for (name, entry) in entries {
        let Value::Map(fields) = entry else { continue };
        let value = fields.iter().find(|(k, _)| k == "value").and_then(|(_, v)| number(v));
        metrics.push((
            name.clone(),
            value.ok_or(format!("metric {name} has no numeric value"))?,
        ));
    }
    Ok(ChildResult {
        correct,
        failed_share,
        metrics,
    })
}

/// Run one workload in a child process of its own, echo what it printed, and
/// return what its result line said.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let result = parse_result_line(last).map_err(|e| format!("{workload}: {e}"))?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{workload}: the child reported a violation ({})",
            output.status
        ));
    }
    Ok(result)
}

/// One full set: every workload, end to end (and traced, when asked).
fn run_set(args: &Args) -> Result<Vec<(&'static str, ChildResult)>, String> {
    let mut set = Vec::new();
    for w in &workload::ALL {
        set.push((w.name, run_child(w.name, args, false)?));
        if args.trace {
            run_child(w.name, args, true)?;
        }
    }
    println!("== end-to-end medians, one column per workload");
    print!("{:<18}", "metric");
    for (name, _) in &set {
        print!(" {name:>16}");
    }
    println!();
    for m in &END_TO_END {
        print!("{:<18}", m.name);
        for (_, result) in &set {
            print!(" {:>16.4}", result.value(m.name));
        }
        println!("  {}", m.unit);
    }
    print!("{:<18}", "failed_share");
    for (_, result) in &set {
        print!(" {:>16.6}", result.failed_share);
    }
    println!("  ratio");
    Ok(set)
}

/// Two sets back to back; every end-to-end pair must agree within its bound,
/// and `failed_share` must stay under its absolute bound in both.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let first = run_set(args)?;
    let second = run_set(args)?;
    println!("== selfcheck: two sets of the same code");
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>8} {:>7}  verdict",
        "metric", "workload", "first", "second", "ratio", "bound"
    );
    let mut agree = true;
    for m in &END_TO_END {
        for ((name, a), (_, b)) in first.iter().zip(&second) {
            let (a, b) = (a.value(m.name), b.value(m.name));
            let ok = (a.max(b) / a.min(b) - 1.0) <= m.bound;
            agree &= ok;
            println!(
                "{:<18} {name:<16} {a:>12.4} {b:>12.4} {:>8.3} {:>7.2}  {}",
                m.name,
                b / a,
                m.bound,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        let ok = a.failed_share.max(b.failed_share) <= FAILED_SHARE_BOUND;
        agree &= ok;
        println!(
            "{:<18} {name:<16} {:>12.6} {:>12.6} {:>8} {:>7.3}  {}",
            "failed_share",
            a.failed_share,
            b.failed_share,
            "abs",
            FAILED_SHARE_BOUND,
            if ok { "ok" } else { "FAILED" }
        );
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = args.workload {
        return match measure::run_workload(w, args.seed, args.seconds, args.trace) {
            Ok(outcome) => {
                println!("{}", outcome.to_json());
                if outcome.correct {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("ledger: {}: {e}", w.name);
                ExitCode::FAILURE
            }
        };
    }
    let verdict = if args.selfcheck {
        selfcheck(&args)
    } else {
        run_set(&args).map(|_| true)
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ledger: the two sets disagree by more than a bound");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use measure::Outcome;
    use metrics::{Better, EST_SHARE_LAYERS, PER_LAYER};
    use seams::Call;
    use spans::SpanLog;
    use std::time::Instant;

    /// `BENCHMARK.json` at the repository root, five directories up.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn listed(section: &str) -> Vec<Vec<(String, Value)>> {
        let Value::Map(top) = serde_json::from_str::<Value>(BENCHMARK_JSON).expect("BENCHMARK.json parses") else {
            panic!("BENCHMARK.json is not an object");
        };
        let Some((_, Value::Seq(items))) = top.into_iter().find(|(k, _)| k == section) else {
            panic!("BENCHMARK.json has no `{section}` list");
        };
        items
            .into_iter()
            .map(|item| match item {
                Value::Map(fields) => fields,
                other => panic!("`{section}` entry is {}", other.kind()),
            })
            .collect()
    }

    fn text(fields: &[(String, Value)], key: &str) -> String {
        match fields.iter().find(|(k, _)| k == key) {
            Some((_, Value::Str(s))) => s.clone(),
            other => panic!("`{key}` is {other:?}"),
        }
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty() && name.len() <= 64 && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_match_benchmark_json_exactly() {
        let workloads: Vec<(String, String)> = listed("workloads")
            .iter()
            .map(|f| (text(f, "name"), text(f, "why")))
            .collect();
        let ours: Vec<(String, String)> = workload::ALL
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let end_to_end: Vec<(String, String, String)> = listed("end_to_end")
            .iter()
            .map(|f| (text(f, "name"), text(f, "unit"), text(f, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    Better::Lower.label().to_string(),
                )
            })
            .collect();
        assert_eq!(end_to_end, ours);
        for (fields, m) in listed("end_to_end").iter().zip(&END_TO_END) {
            let bound = fields.iter().find(|(k, _)| k == "bound").map(|(_, v)| v.clone());
            assert_eq!(bound, Some(Value::F64(m.bound)), "{}", m.name);
        }

        let per_layer: Vec<(String, String, String)> = listed("per_layer")
            .iter()
            .map(|f| (text(f, "name"), text(f, "unit"), text(f, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.label().to_string()))
            .collect();
        assert_eq!(per_layer, ours);

        let Value::Map(top) = serde_json::from_str::<Value>(BENCHMARK_JSON).unwrap() else {
            unreachable!("`listed` has parsed it as an object");
        };
        let run_seconds = top
            .iter()
            .find(|(k, _)| k == "run_seconds")
            .and_then(|(_, v)| number(v));
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));

        let mut names: Vec<&str> = workload::ALL.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for layer in EST_SHARE_LAYERS {
            let key = format!("{layer}.est_share");
            assert!(PER_LAYER.iter().any(|m| m.name == key), "{key}");
        }
    }

    /// A two-timestep miniature of a workload: same layers, milliseconds.
    /// 64 x 64 x 8 floats keep every PE's slab exactly one 64 KB block, so the
    /// cache counters stay exact.
    fn miniature(name: &str, seed: u64) -> visapult_core::ScenarioSpec {
        let mut spec = workload::find(name).expect("a listed workload").spec(seed);
        spec.pipeline.timesteps = 2 * spec.stages.as_ref().map_or(1, Vec::len);
        spec.dataset.as_mut().expect("every workload sizes its dataset").dims = Some((64, 64, 8));
        spec.render.as_mut().expect("every workload sizes its image").image = Some((16, 16));
        if let Some(real) = spec.real.as_mut() {
            real.viewer_image = Some((32, 32));
        }
        if let Some(arrivals) = spec.service.as_mut().and_then(|s| s.arrivals.as_mut()) {
            for a in arrivals {
                a.sessions = a.sessions.min(16);
            }
        }
        spec
    }

    #[test]
    fn traced_miniature_run_and_probes_nest_and_self_times_sum_to_the_roots() {
        let w = workload::find("exhibit_floor").unwrap();
        let spec = miniature(w.name, DEFAULT_SEED);
        let reference = rep::virtual_reference(&spec).unwrap();
        let mut log = SpanLog::new(Instant::now());
        let (r, report) = rep::run_rep(w, &spec, &reference, 7, Some(&mut log)).unwrap();
        assert_eq!(r.violations, Vec::<String>::new());
        assert!(r.accounting_error() <= 0.01, "{}", r.accounting_error());
        let real = probes::RealRun {
            report: &report,
            // A miniature burns less than one 10 ms tick.
            cpu_ms_per_frame: r.cpu_ms_per_frame.max(1.0),
            viewer_renders_per_frame: 1.0,
        };
        probes::run(&spec.resolve().unwrap(), &real, &mut log).unwrap();

        let spans = log.spans();
        let roots: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].parent.is_none()).collect();
        let names: Vec<&str> = roots.iter().map(|&i| spans[i].name.as_str()).collect();
        assert_eq!(names, ["run", "probes"]);
        let mut root_of = vec![0; spans.len()];
        for (id, s) in spans.iter().enumerate() {
            assert!(s.start_ns <= s.end_ns, "{s:?}");
            root_of[id] = id;
            if let Some(p) = s.parent {
                assert!(p < id, "a parent is recorded before its children");
                assert_eq!(s.run_id, spans[p].run_id);
                assert!(
                    spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns,
                    "{s:?} escapes {:?}",
                    spans[p]
                );
                root_of[id] = root_of[p];
            }
        }
        assert_eq!((spans[roots[0]].run_id, spans[roots[1]].run_id), (7, 8));
        let stage = spans
            .iter()
            .position(|s| s.name == "pipeline.stage")
            .expect("one stage");
        let calls: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent == Some(stage))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            calls,
            [Call::Open, Call::Splice, Call::Farm, Call::Finish, Call::Collect].map(Call::span_name)
        );

        // The stage driver is sequential: its self times tile the run.  The
        // probes' slab passes read on one thread per PE, so two calls can
        // share an instant: their layer's self time stays what no call
        // covered, and the tree sums to its root plus that overlap.
        let own = log.self_times();
        let tree_total =
            |root: usize| -> u64 { (0..spans.len()).filter(|&i| root_of[i] == root).map(|i| own[i]).sum() };
        assert_eq!(tree_total(roots[0]), spans[roots[0]].duration_ns());
        assert!(tree_total(roots[1]) >= spans[roots[1]].duration_ns());
        let dpss = spans.iter().position(|s| s.name == "probe.dpss").unwrap();
        let reads: u64 = (0..spans.len())
            .filter(|&i| spans[i].parent == Some(dpss))
            .map(|i| spans[i].duration_ns())
            .sum();
        assert!(own[dpss] > 0 && own[dpss] + reads >= spans[dpss].duration_ns());
    }

    /// The manifest that makes this directory a package of its own may name
    /// nothing `visapult-bench` — which builds the same `main.rs` — does not.
    #[test]
    fn own_manifest_depends_on_a_subset_of_visapult_bench() {
        fn dependencies(manifest: &str) -> Vec<&str> {
            manifest
                .split("\n[")
                .find_map(|section| section.strip_prefix("dependencies]"))
                .expect("a [dependencies] table")
                .lines()
                .filter_map(|l| l.split(['.', ' ', '=']).next())
                .filter(|name| !name.is_empty() && !name.starts_with('#'))
                .collect()
        }
        let bench = dependencies(include_str!("../../../Cargo.toml"));
        for name in dependencies(include_str!("Cargo.toml")) {
            assert!(bench.contains(&name), "{name} is not a dependency of visapult-bench");
        }
    }

    #[test]
    fn another_seed_changes_the_fingerprint_and_passes_every_counter_check() {
        for name in ["playback_warm", "playback_thrash", "briefing_room"] {
            let w = workload::find(name).unwrap();
            let mut fingerprints = Vec::new();
            for seed in [DEFAULT_SEED, 12] {
                let mut spec = miniature(name, seed);
                // Keep the cache on its workload's side of the 4-block
                // working set (2 timesteps x 2 one-block slabs).
                if let Some(cache) = spec.cache.as_mut() {
                    cache.capacity_blocks = Some(if name == "playback_warm" { 64 } else { 2 });
                    cache.shards = Some(1);
                }
                let reference = rep::virtual_reference(&spec).unwrap();
                let (r, _) = rep::run_rep(w, &spec, &reference, 1, None).unwrap();
                assert_eq!(r.violations, Vec::<String>::new(), "{name} seed {seed}");
                assert_eq!(r.failed, 0);
                fingerprints.push(r.fingerprint);
            }
            assert_ne!(fingerprints[0], fingerprints[1], "{name}");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("frame_ms", 1.25, "ms/timestep"), ("setup_s", 1e-7, "s")],
        };
        let parsed = parse_result_line(&outcome.to_json()).unwrap();
        assert!(parsed.correct);
        assert_eq!(
            parsed.metrics,
            vec![("frame_ms".to_string(), 1.25), ("setup_s".to_string(), 1e-7)]
        );
    }
}
