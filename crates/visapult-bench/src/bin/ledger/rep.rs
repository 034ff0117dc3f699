//! One repetition of one workload on the real path, timed from outside, and
//! the correctness gate every repetition must pass.
//!
//! `Pipeline::run()` re-stages the synthetic dataset into the in-process DPSS
//! on every call, so staging is separated from playback by timestamps — the
//! first `Fabric::open` entry ends set-up — not by subtracting a second
//! staging.

use crate::seams::{self, Call, CallRecord, Recorder, SharedRecorder};
use crate::spans::SpanLog;
use crate::stats;
use crate::workload::{CacheShape, Workload};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use visapult_core::{CampaignReport, ExecutionPath, Pipeline, ScenarioSpec, VisapultError};

/// Everything one repetition measured.
pub struct Rep {
    // End to end.
    pub setup_s: f64,
    pub frame_ms: f64,
    pub run_s: f64,
    pub cpu_ms_per_frame: f64,
    // Pipeline layer: where the wall went.
    pub stages_s: f64,
    pub reduce_s: f64,
    /// Seconds inside each of the five per-stage calls, summed over stages,
    /// indexed by `Call as usize`.
    pub call_s: [f64; 5],
    pub timesteps: usize,
    pub cpu_util: f64,
    pub threads_peak: u64,
    pub viewer_renders: u64,
    pub viewer_errors: u64,
    // Correctness.
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Rep {
    pub fn call(&self, call: Call) -> f64 {
        self.call_s[call as usize]
    }

    /// Share of the stage spans the five decorated calls cover: a check that
    /// the decorators see the whole stage driver.
    pub fn stage_call_share(&self) -> f64 {
        self.call_s.iter().sum::<f64>() / self.stages_s
    }

    /// Wall-side accounting: set-up, stage spans and reduction must tile
    /// `run()`; only the (microseconds of) `build()` may be left over.
    pub fn accounting_error(&self) -> f64 {
        ((self.setup_s + self.stages_s + self.reduce_s) - self.run_s).abs() / self.run_s
    }
}

/// One stage as the decorators saw it: `open` entry to `collect` exit.
struct StageSpan<'a> {
    calls: &'a [CallRecord],
}

impl StageSpan<'_> {
    fn start(&self) -> Instant {
        self.calls[0].start
    }
    fn end(&self) -> Instant {
        self.calls[self.calls.len() - 1].end
    }
}

fn split_stages(calls: &[CallRecord]) -> Vec<StageSpan<'_>> {
    let mut starts: Vec<usize> = (0..calls.len()).filter(|&i| calls[i].call == Call::Open).collect();
    starts.push(calls.len());
    starts
        .windows(2)
        .map(|w| StageSpan {
            calls: &calls[w[0]..w[1]],
        })
        .collect()
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// Run `f` on this thread; when `watch` is set, a sampler thread reads the
/// process thread count every 2 ms meanwhile (the farm's PE, reader and viewer
/// threads live only inside `run_stage`, where no decorator boundary falls).
/// Returns the peak, not counting the sampler.  Only the traced repetition
/// pays for this; `trace.overhead_percent` is what it costs.
fn watching_threads<T>(watch: bool, f: impl FnOnce() -> T) -> (T, u64) {
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let out = std::thread::scope(|scope| {
        if watch {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    peak.fetch_max(stats::live_threads().saturating_sub(1), Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        }
        let out = f();
        stop.store(true, Ordering::SeqCst);
        out
    });
    (out, peak.load(Ordering::SeqCst))
}

/// Run `spec` once through `Pipeline::builder(spec)…run()` with the timing
/// decorators swapped in.  With `trace`, the repetition's calls also become
/// spans (run → setup / stage → the five calls / reduce) under `run_id`.
/// The report comes back beside the measurements, not inside them: a caller
/// that kept every repetition's event log would be measuring its own RSS.
pub fn run_rep(
    workload: &Workload,
    spec: &ScenarioSpec,
    reference: &CampaignReport,
    run_id: u64,
    trace: Option<&mut SpanLog>,
) -> Result<(Rep, CampaignReport), VisapultError> {
    let rec: SharedRecorder = Arc::new(Mutex::new(Recorder::default()));
    let t_build0 = Instant::now();
    let pipeline = seams::decorated(Pipeline::builder(spec.clone()), &rec).build()?;
    let t_build1 = Instant::now();
    let cpu0 = stats::process_cpu_seconds();
    let t_run0 = Instant::now();
    let (report, threads_peak) = watching_threads(trace.is_some(), || pipeline.run());
    let report = report?;
    let t_run1 = Instant::now();
    let cpu_s = stats::process_cpu_seconds() - cpu0;
    drop(pipeline);

    let rec = Arc::try_unwrap(rec)
        .expect("the pipeline and its decorators are dropped")
        .into_inner()
        .expect("a decorator panicked while recording");
    let stages = split_stages(&rec.calls);
    if stages.is_empty() {
        return Err(VisapultError::Config(
            "no stage reached Fabric::open: nothing was timed".to_string(),
        ));
    }
    let timesteps: usize = report.stages.iter().map(|s| s.timesteps).sum();
    let first_open = stages[0].start();
    let build_s = secs(t_build0, t_build1);
    let run_s = secs(t_run0, t_run1);
    let stages_s: f64 = stages.iter().map(|s| secs(s.start(), s.end())).sum();
    // Between one stage's `collect` exit and the next `open` entry (and after
    // the last) the driver merges logs, analyses phases, folds telemetry.
    let mut reduce_s = secs(stages[stages.len() - 1].end(), t_run1);
    for pair in stages.windows(2) {
        reduce_s += secs(pair[0].end(), pair[1].start());
    }
    let mut call_s = [0.0; 5];
    for c in &rec.calls {
        call_s[c.call as usize] += secs(c.start, c.end);
    }

    if let Some(log) = trace {
        let root = log.push("run", t_run0, t_run1, None, run_id);
        log.push("pipeline.setup", t_run0, first_open, Some(root), run_id);
        for (i, stage) in stages.iter().enumerate() {
            let id = log.push("pipeline.stage", stage.start(), stage.end(), Some(root), run_id);
            for c in stage.calls {
                log.push(c.call.span_name(), c.start, c.end, Some(id), run_id);
            }
            let next = stages.get(i + 1).map_or(t_run1, |n| n.start());
            log.push("pipeline.reduce", stage.end(), next, Some(root), run_id);
        }
    }

    let (attempted, failed, violations) = check(workload, spec, &report, reference, rec.viewer_errors);
    let rep = Rep {
        setup_s: build_s + secs(t_run0, first_open),
        frame_ms: stages_s / timesteps as f64 * 1e3,
        run_s,
        cpu_ms_per_frame: cpu_s / timesteps as f64 * 1e3,
        stages_s,
        reduce_s,
        call_s,
        timesteps,
        cpu_util: cpu_s / run_s,
        threads_peak,
        viewer_renders: rec.viewer_renders,
        viewer_errors: rec.viewer_errors,
        fingerprint: report.replay_fingerprint(),
        attempted,
        failed,
        violations,
    };
    Ok((rep, report))
}

/// The same spec on the virtual-time path (milliseconds): the reference the
/// real run's deterministic counters are held to.
pub fn virtual_reference(spec: &ScenarioSpec) -> Result<CampaignReport, VisapultError> {
    Pipeline::builder(spec.clone())
        .path(ExecutionPath::VirtualTime)
        .build()?
        .run()
}

/// Operations owed, operations failed, and every violated expectation.
///
/// Operations are primary (rank, frame) deliveries (`pes × timesteps`),
/// session (rank, frame) deliveries (one per live session per frame per PE)
/// and sessions offered.  The owed counts come from the spec and the
/// virtual-time reference, never from the run being judged.
fn check(
    workload: &Workload,
    spec: &ScenarioSpec,
    report: &CampaignReport,
    reference: &CampaignReport,
    viewer_errors: u64,
) -> (u64, u64, Vec<String>) {
    let mut violations = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            violations.push(what);
        }
    };
    let pes = spec.pipeline.pes as u64;
    let primary_owed = pes * spec.pipeline.timesteps as u64;
    let primary_got = report.frames_received() as u64;
    let mut failed = primary_owed.saturating_sub(primary_got) + viewer_errors;
    expect(
        primary_got == primary_owed,
        format!("viewer received {primary_got} of {primary_owed} (rank, frame) payloads"),
    );
    expect(
        viewer_errors == 0,
        format!("viewer reported {viewer_errors} delivery anomalies"),
    );

    let mut attempted = primary_owed;
    match (&report.service, &reference.service) {
        (Some(real), Some(model)) => {
            let (r, m) = (&real.totals, &model.totals);
            let owed = m.render_requests * pes;
            attempted += owed + m.sessions_offered;
            failed +=
                owed.saturating_sub(r.frames_completed) + r.frames_skipped + r.sessions_rejected + r.sessions_evicted;
            expect(
                r.frames_completed == owed && r.frames_skipped == 0,
                format!(
                    "sessions completed {} of {owed} (rank, frame) deliveries, {} degraded",
                    r.frames_completed, r.frames_skipped
                ),
            );
            let lifecycle = |s: &visapult_core::ServiceStats| {
                [
                    s.sessions_offered,
                    s.sessions_admitted,
                    s.sessions_rejected,
                    s.sessions_evicted,
                    s.peak_live_sessions,
                    s.render_requests,
                    s.renders_performed,
                    s.flow_limited_sessions,
                ]
            };
            expect(
                lifecycle(r) == lifecycle(m),
                format!("service lifecycle counters differ from the virtual-time run: {r:?} vs {m:?}"),
            );
        }
        (None, None) => {}
        _ => expect(false, "service section present on one execution path only".to_string()),
    }

    // Frames only: the virtual-time fabric chunks a *modeled* geometry
    // allowance, the real one the AMR segments actually produced, so chunk
    // and byte counts differ by design.  The real counts are pinned by the
    // replay fingerprint instead.
    let (rt, mt) = (&report.transport.totals, &reference.transport.totals);
    expect(
        (rt.frames, rt.stripe_count()) == (mt.frames, mt.stripe_count()),
        format!(
            "transport carried {} frames over {} stripes, the virtual-time run {} over {}",
            rt.frames,
            rt.stripe_count(),
            mt.frames,
            mt.stripe_count()
        ),
    );

    let cache = |r: &CampaignReport| r.cache.map(|c| (c.totals.hits, c.totals.misses, c.totals.evictions));
    expect(
        cache(report) == cache(reference),
        format!(
            "cache totals (hits, misses, evictions) {:?} differ from the virtual-time run's {:?}",
            cache(report),
            cache(reference)
        ),
    );
    let per_stage: Vec<(u64, u64, u64)> = report
        .stages
        .iter()
        .map(|s| (s.metrics.cache.hits, s.metrics.cache.misses, s.metrics.cache.evictions))
        .collect();
    let blocks = per_stage.first().map_or(0, |s| s.1);
    let shape_ok = match workload.cache {
        CacheShape::Absent => report.cache.is_none(),
        CacheShape::FillThenHit => {
            blocks > 0 && per_stage[0] == (0, blocks, 0) && per_stage[1..].iter().all(|s| *s == (blocks, 0, 0))
        }
        CacheShape::NeverHit => blocks > 0 && per_stage.iter().all(|s| s.0 == 0 && s.1 == blocks),
    };
    expect(
        shape_ok,
        format!(
            "cache did not behave as {:?}: per-stage (hits, misses, evictions) {per_stage:?}",
            workload.cache
        ),
    );

    if !violations.is_empty() {
        // A repetition that fails its gate counts against the workload even
        // when every delivery arrived.
        failed += 1;
    }
    (attempted, failed, violations)
}
