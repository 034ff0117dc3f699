//! One workload, measured: warm-up, timed repetitions, the gate every
//! repetition passes through, and — traced — one more repetition with spans on
//! plus the layer probes.  Prints the tables; returns the result line.

use crate::metrics::{END_TO_END, EST_SHARE_LAYERS, EXPLAINED_FLOOR, PER_LAYER};
use crate::probes;
use crate::rep::{self, Rep};
use crate::seams::Call;
use crate::spans::SpanLog;
use crate::stats::{self, Summary};
use crate::workload::{Workload, DEFAULT_SEED};
use serde::Value;
use std::path::PathBuf;
use std::time::Instant;
use visapult_core::campaign::scenario::ResolvedScenario;
use visapult_core::{CampaignReport, VisapultError};

/// The timed repetitions of one run: this many, and then as many more as
/// `--seconds` still has room for.
const MIN_REPS: usize = 5;

/// One workload's result line, before it is rendered as JSON.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Value::Map(vec![
                    ("value".to_string(), Value::F64(*value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree serializes")
    }
}

/// What every repetition is held to, and the operation counts behind
/// `failed_share`.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Gate {
    fn admit(&mut self, r: &Rep, label: &str) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.violations
            .extend(r.violations.iter().map(|v| format!("{label}: {v}")));
        // Wall-side accounting: the layers must account for the wall.
        if r.accounting_error() > 0.01 {
            self.violations.push(format!(
                "{label}: setup + stages + reduce = {:.4} s but run_s = {:.4} s",
                r.setup_s + r.stages_s + r.reduce_s,
                r.run_s
            ));
        }
        if r.stage_call_share() < 0.98 {
            self.violations.push(format!(
                "{label}: the decorated calls cover only {:.3} of the stage spans",
                r.stage_call_share()
            ));
        }
    }

    /// A violation that costs one operation (a whole-run check, not one
    /// repetition's).
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.violations.push(what);
    }
}

fn summarize(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Summary {
    Summary::of(&reps.iter().map(f).collect::<Vec<_>>())
}

fn median(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    summarize(reps, f).median
}

/// Where the trace of one workload lands: `$CARGO_TARGET_DIR/ledger/`, or
/// `target/ledger/` under the working directory.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("ledger").join(format!("trace_{workload}.jsonl"))
}

pub fn run_workload(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, VisapultError> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "== {} · seed {seed} · closed loop, one client (the pipeline) · loopback links, unpaced · {cores} core(s)",
        w.name
    );
    println!("why: {}", w.why);
    let spec = w.spec(seed);
    let resolved = spec.resolve()?;
    let t = Instant::now();
    let reference = rep::virtual_reference(&spec)?;
    println!("virtual-time reference run: {:.1} ms", t.elapsed().as_secs_f64() * 1e3);

    // One warm-up repetition, discarded from every timing but held to the
    // same gate; then MIN_REPS timed repetitions, and more until the budget is
    // spent.  A traced run halves the budget: the traced repetition and the
    // probes take the rest.
    let mut gate = Gate::default();
    let (warmup, mut last_report) = rep::run_rep(w, &spec, &reference, 0, None)?;
    gate.admit(&warmup, "warm-up");
    let budget = if trace { seconds / 2.0 } else { seconds };
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < budget {
        let (r, report) = rep::run_rep(w, &spec, &reference, reps.len() as u64 + 1, None)?;
        gate.admit(&r, &format!("repetition {}", reps.len() + 1));
        reps.push(r);
        last_report = report;
    }

    println!(
        "end to end over {} timed repetitions (after 1 warm-up; too few to support any percentile above the median):",
        reps.len()
    );
    println!(
        "  {:<18} {:<12} {:>11} {:>11} {:>11} {:>11} {:>11} {:>3}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "n"
    );
    let mut metrics = Vec::new();
    for m in &END_TO_END {
        let s = summarize(&reps, m.of);
        println!(
            "  {:<18} {:<12} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>3}",
            m.name, m.unit, s.median, s.q1, s.q3, s.min, s.max, s.n
        );
        metrics.push((m.name, s.median, m.unit));
    }

    let mut traced = None;
    if trace {
        let mut log = SpanLog::new(Instant::now());
        let (rep, report) = rep::run_rep(w, &spec, &reference, reps.len() as u64 + 1, Some(&mut log))?;
        gate.admit(&rep, "traced repetition");
        let layers = per_layer(&resolved, &reps, &last_report, &rep, &report, &mut log)?;
        let path = trace_path(w.name);
        match log.write_jsonl(&path) {
            Ok(()) => println!("wrote {} spans to {}", log.spans().len(), path.display()),
            Err(e) => gate.fail(format!("trace not written to {}: {e}", path.display())),
        }
        traced = Some((layers, log));
    }

    // Determinism: one fingerprint across the warm-up and every repetition,
    // and at the default seed the one pinned for this workload.
    let fingerprint = warmup.fingerprint;
    if reps.iter().any(|r| r.fingerprint != fingerprint) {
        gate.fail("replay_fingerprint() differs between repetitions of one spec".to_string());
    }
    if seed == DEFAULT_SEED && fingerprint != w.fingerprint {
        gate.fail(format!(
            "replay_fingerprint() {fingerprint:#018x} is not the pinned {:#018x}",
            w.fingerprint
        ));
    }
    let failed_share = gate.failed as f64 / gate.attempted as f64;
    if let Some((mut layers, log)) = traced {
        layers.push(("failed_share", failed_share));
        metrics = PER_LAYER
            .iter()
            .map(|m| {
                let (_, value) = layers
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} was never measured", m.name));
                (m.name, *value, m.unit)
            })
            .collect();
        print_layers(w, &metrics, &log);
    }
    println!(
        "failed_share {failed_share:.6} ({} of {} operations) · replay fingerprint {fingerprint:#018x}",
        gate.failed, gate.attempted
    );
    for v in &gate.violations {
        println!("VIOLATION {v}");
    }
    Ok(Outcome {
        correct: gate.violations.is_empty(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    })
}

/// Every per-layer metric of one workload: decorator spans (medians over the
/// timed repetitions), the probes, and the run's own counters.
fn per_layer(
    resolved: &ResolvedScenario,
    reps: &[Rep],
    last_report: &CampaignReport,
    traced: &Rep,
    traced_report: &CampaignReport,
    log: &mut SpanLog,
) -> Result<Vec<(&'static str, f64)>, VisapultError> {
    // Before the probes allocate anything of their own.
    let peak_rss_mb = stats::peak_rss_mb();
    let frame_ms = median(reps, |r| r.frame_ms);
    let real = probes::RealRun {
        report: last_report,
        cpu_ms_per_frame: median(reps, |r| r.cpu_ms_per_frame),
        viewer_renders_per_frame: median(reps, |r| r.viewer_renders as f64 / r.timesteps as f64),
    };
    let mut layers = probes::run(resolved, &real, log)?;

    let stages = resolved.stages.len() as f64;
    let per_stage_ms = |c: Call| median(reps, |r| r.call(c)) / stages * 1e3;
    let per_frame_ms = |c: Call| median(reps, |r| r.call(c) / r.timesteps as f64) * 1e3;
    layers.extend([
        ("pipeline.open_ms", per_stage_ms(Call::Open)),
        ("pipeline.splice_ms", per_stage_ms(Call::Splice)),
        ("pipeline.farm_ms_per_frame", per_frame_ms(Call::Farm)),
        ("pipeline.plane_finish_ms_per_frame", per_frame_ms(Call::Finish)),
        ("pipeline.collect_ms", per_stage_ms(Call::Collect)),
        ("pipeline.reduce_s", median(reps, |r| r.reduce_s)),
        ("pipeline.stage_call_share", median(reps, Rep::stage_call_share)),
        (
            "viewer.errors",
            reps.iter().map(|r| r.viewer_errors).sum::<u64>() as f64,
        ),
        ("process.peak_rss_mb", peak_rss_mb),
        ("process.threads_peak", traced.threads_peak as f64),
        ("process.cpu_util", median(reps, |r| r.cpu_util)),
        (
            "trace.overhead_percent",
            (traced.frame_ms - frame_ms) / frame_ms * 100.0,
        ),
    ]);

    // The fan-out and executor instruments the library already keeps, read
    // from the traced repetition's own telemetry fold.
    let telemetry = traced_report.telemetry.as_ref();
    let counter = |k: &str| telemetry.and_then(|t| t.counters.get(k)).copied().unwrap_or(0) as f64;
    let high_water = |k: &str| telemetry.and_then(|t| t.high_waters.get(k)).copied().unwrap_or(0) as f64;
    let wave = telemetry
        .and_then(|t| t.latencies.get("fanout/wave_us"))
        .copied()
        .unwrap_or_default();
    let polls = counter("exec/polls");
    let per_poll = |v: f64| if polls > 0.0 { v / polls } else { 0.0 };
    layers.extend([
        ("service.wave_us_p50", wave.p50 as f64),
        ("service.wave_us_p99", wave.p99 as f64),
        ("service.queue_depth_high_water", high_water("fanout/queue_depth")),
        ("exec.polls", polls),
        ("exec.poll_ns_per_poll", per_poll(counter("exec/poll_ns"))),
        ("exec.parks", counter("exec/parks")),
        ("exec.wakes", counter("exec/wakes")),
        ("exec.wakes_per_poll", per_poll(counter("exec/wakes"))),
        ("exec.run_queue_high_water", high_water("exec/run_queue_depth")),
    ]);

    let explained: f64 = EST_SHARE_LAYERS
        .iter()
        .map(|layer| {
            let key = format!("{layer}.est_share");
            layers.iter().find(|(n, _)| *n == key).map_or(0.0, |(_, v)| *v)
        })
        .sum();
    layers.push(("probe.explained_share", explained));
    Ok(layers)
}

fn print_layers(w: &Workload, metrics: &[(&'static str, f64, &'static str)], log: &SpanLog) {
    println!("per layer (decorator spans: medians over the timed repetitions; probes: median per call):");
    for ((name, value, unit), m) in metrics.iter().zip(&PER_LAYER) {
        println!("  {name:<38} {value:>14.4} {unit:<12} ({} is better)", m.better.label());
        if *name == "probe.explained_share" && *value < EXPLAINED_FLOOR {
            println!(
                "  FLAG {}: the probes explain only {value:.2} of cpu_ms_per_frame (floor {EXPLAINED_FLOOR}); README.md names what they miss",
                w.name
            );
        }
    }
    println!("self time by span (traced repetition and probes), largest first:");
    for (name, ns, count) in log.self_time_by_name().into_iter().take(16) {
        println!("  {name:<30} {:>12.3} ms  {count:>6} span(s)", ns as f64 / 1e6);
    }
}
