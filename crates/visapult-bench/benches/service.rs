//! Criterion bench: the multi-session service layer.
//!
//! Measures the shared-render fan-out plane end to end — broker admission,
//! one assembly per (rank, frame), one fold of each wave per session — at
//! session counts 1/8/64 (unshaped, deep queues, so the numbers are the
//! fan-out's own overhead, not WAN pacing), with every session wave spread
//! over 4 shared viewpoints.  The plane runs on one thread regardless of
//! scale.
//!
//! Besides the criterion output, a custom `main` writes a
//! `BENCH_service.json` baseline (median seconds per 8-frame campaign,
//! per-session-frame fan-out cost, and the shared-render hit rate at each
//! scale — the broker's 1-vs-64 "more with less" number) to `target/` and
//! the workspace root so successive runs can be diffed mechanically.  The
//! headline addition is the 10 000-session `exhibit_floor` variant, with
//! the process's peak thread count recorded alongside the per-session-frame
//! cost and the metrics plane's overhead.  The `async_cases` / `*_async` key
//! names date from when a second, thread-per-session plane ran beside this
//! one; they stay so the committed baseline gates continuously across its
//! retirement.

use criterion::{criterion_group, BenchmarkId, Criterion};
use netlogger::{MetricsHub, MetricsSnapshot};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use visapult_core::protocol::{FramePayload, HeavyPayload, LightPayload};
use visapult_core::transport::{striped_link, TransportConfig};
use visapult_core::{
    FanoutPlane, QualityTier, ServiceConfig, ServiceRunReport, ServiceStats, SessionBroker, SessionSpec,
};

const TEX: usize = 128; // 128x128 RGBA8 = 64 KB per frame
const FRAMES: u32 = 8;
const VIEWPOINTS: u32 = 4;

fn sample_frame(frame: u32) -> FramePayload {
    let texture: Vec<u8> = (0..TEX * TEX * 4).map(|i| (i % 251) as u8).collect();
    FramePayload {
        light: LightPayload {
            frame,
            rank: 0,
            texture_width: TEX as u32,
            texture_height: TEX as u32,
            bytes_per_pixel: 4,
            quad_center: [0.5; 3],
            quad_u: [1.0, 0.0, 0.0],
            quad_v: [0.0, 1.0, 0.0],
            geometry_segments: 64,
        },
        heavy: HeavyPayload {
            frame,
            rank: 0,
            texture_rgba8: texture.into(),
            geometry: Arc::new((0..64).map(|i| ([i as f32, 0.0, 0.0], [i as f32, 1.0, 1.0])).collect()),
        },
    }
}

fn schedule(sessions: u32) -> Vec<SessionSpec> {
    (0..sessions)
        .map(|i| {
            let mut s = SessionSpec::new(format!("s{i}"), i % VIEWPOINTS, QualityTier::Standard);
            // Deep enough that nothing degrades: the bench isolates fan-out
            // cost, not queue-pressure behaviour.
            s.queue_depth = Some(4096);
            s
        })
        .collect()
}

/// One 8-frame campaign through the plane at `sessions` concurrent sessions.
/// Wave latencies and queue depths land in `hub` when it is enabled; pass
/// [`MetricsHub::disabled`] for an unmetered run.
fn fan_out(sessions: u32, hub: &MetricsHub) -> ServiceRunReport {
    let transport = TransportConfig::default().with_stripes(4).with_chunk_bytes(16 * 1024);
    let config = ServiceConfig {
        max_sessions: sessions.max(128) as usize,
        link_capacity_units: u64::from(sessions.max(128)) * 8,
        render_slots: VIEWPOINTS,
        queue_depth: 4096,
        ..ServiceConfig::default()
    };
    let (tx, rx) = striped_link(&transport);
    let broker = SessionBroker::new(config, schedule(sessions));
    let handle = {
        let hub = hub.clone();
        std::thread::spawn(move || FanoutPlane::drive_with(broker, vec![rx], &hub))
    };
    for f in 0..FRAMES {
        tx.send_frame(&sample_frame(f)).unwrap();
    }
    drop(tx);
    handle.join().unwrap()
}

fn bench_service_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_fanout_8_frames");
    for sessions in [1u32, 8, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(sessions), &sessions, |b, &n| {
            b.iter(|| black_box(fan_out(n, &MetricsHub::disabled()).stats.frames_completed));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_service_fanout);

/// Seconds one call of `f` takes.
fn timed_secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median of a set of timings.
fn median_of(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Median seconds per call of `f` over `samples` timed calls.
fn median_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    median_of((0..samples).map(|_| timed_secs(&mut f)).collect())
}

/// The process's current thread count from /proc (0 where unavailable).
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

fn baseline_cases(samples: usize) -> Vec<(u32, f64, ServiceStats)> {
    [1u32, 8, 64]
        .iter()
        .map(|&n| {
            let stats = fan_out(n, &MetricsHub::disabled()).stats;
            let median = median_secs(samples, || {
                black_box(fan_out(n, &MetricsHub::disabled()).stats.frames_completed);
            });
            (n, median, stats)
        })
        .collect()
}

fn case_json(cases: &[(u32, f64, ServiceStats)]) -> String {
    cases
        .iter()
        .map(|(n, median, stats)| {
            // Cost per session-frame: how much the plane pays to serve one
            // frame to one more session.
            let session_frames = f64::from(*n) * f64::from(FRAMES);
            format!(
                "    \"sessions_{n}\": {{ \"median_s\": {median:.9}, \"us_per_session_frame\": {:.3}, \"shared_render_hit_rate\": {:.4}, \"renders\": {}, \"render_requests\": {} }}",
                median / session_frames * 1e6,
                stats.shared_render_hit_rate(),
                stats.renders_performed,
                stats.render_requests,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// The `"latency_us"` JSON block for one measured hub: wave-latency
/// percentiles from the plane's `fanout/wave_us` log-bucketed histogram,
/// accumulated over every metered campaign the hub saw.
fn latency_json(hub: &MetricsHub) -> String {
    let wave = hub
        .snapshot("bench")
        .histograms
        .get("fanout/wave_us")
        .copied()
        .unwrap_or_default();
    format!(
        "\"latency_us\": {{ \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"waves\": {} }}",
        wave.p50, wave.p90, wave.p99, wave.max, wave.count
    )
}

/// What `exhibit_floor_10k` measures: the unmetered median, the same median
/// with the metrics plane live (their delta is the telemetry overhead the CI
/// gate holds under 5 %), the thread-count ceiling, and the hub holding the
/// accumulated wave histogram.
struct FloorReport {
    median_s: f64,
    telemetry_median_s: f64,
    peak_threads: usize,
    stats: ServiceStats,
    hub: MetricsHub,
}

/// The 10 000-session `exhibit_floor` variant: the same 4-viewpoint standing
/// crowd the bundled scenario's floor stage models, scaled two orders of
/// magnitude past what a thread per session could carry.
/// Each sample is an off/on *pair* — the unmetered campaign, then the same
/// campaign with a live hub — so thermal and cache drift hit both medians
/// equally and their delta isolates the telemetry overhead the CI gate
/// holds under 5 %.  One snapshot per live sample feeds the JSONL series.
fn exhibit_floor_10k(samples: usize) -> FloorReport {
    const SESSIONS: u32 = 10_000;
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let monitor = {
        let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(live_threads(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        })
    };
    let off = MetricsHub::disabled();
    let hub = MetricsHub::enabled();
    let stats = fan_out(SESSIONS, &off).stats;
    let mut off_times = Vec::with_capacity(samples);
    let mut on_times = Vec::with_capacity(samples);
    for sample_no in 1..=samples {
        off_times.push(timed_secs(|| {
            black_box(fan_out(SESSIONS, &off).stats.frames_completed);
        }));
        on_times.push(timed_secs(|| {
            black_box(fan_out(SESSIONS, &hub).stats.frames_completed);
            hub.record_snapshot(&format!("floor:sample:{sample_no}"));
        }));
    }
    stop.store(true, Ordering::Relaxed);
    monitor.join().unwrap();
    FloorReport {
        median_s: median_of(off_times),
        telemetry_median_s: median_of(on_times),
        peak_threads: peak.load(Ordering::Relaxed),
        stats,
        hub,
    }
}

fn write_baseline() {
    let samples = 15;
    let cases = baseline_cases(samples);
    // The 10k sweep is one off/on campaign pair per sample: ten of them
    // keep the bench well under a minute and give each median (and the
    // overhead the CI gate reads from the two) ten samples, not three.
    let floor_samples = 10;
    let floor = exhibit_floor_10k(floor_samples);
    let floor_session_frames = 10_000.0 * f64::from(FRAMES);
    let floor_overhead = (floor.telemetry_median_s - floor.median_s) / floor.median_s * 100.0;

    let scaling = cases[2].1 / cases[0].1;
    persist_snapshots(&floor.hub.take_snapshots());
    let json = format!(
        "{{\n  \"bench\": \"service_fanout_8_frames\",\n  \"frames\": {FRAMES},\n  \"viewpoints\": {VIEWPOINTS},\n  \"samples\": {samples},\n  \"async_cases\": {{\n{}\n  }},\n  \"exhibit_floor_10k_async\": {{\n    \"sessions\": 10000,\n    \"samples\": {floor_samples},\n    \"median_s\": {:.9},\n    \"us_per_session_frame\": {:.3},\n    \"peak_process_threads\": {},\n    \"shared_render_hit_rate\": {:.4},\n    \"telemetry_median_s\": {:.9},\n    \"telemetry_overhead_percent\": {floor_overhead:.2},\n    {}\n  }},\n  \"wall_time_64x_vs_1x\": {scaling:.2},\n  \"render_ratio_at_64\": {:.4}\n}}\n",
        case_json(&cases),
        floor.median_s,
        floor.median_s / floor_session_frames * 1e6,
        floor.peak_threads,
        floor.stats.shared_render_hit_rate(),
        floor.telemetry_median_s,
        latency_json(&floor.hub),
        cases[2].2.render_ratio(),
    );
    visapult_bench::report_baseline("service", &json);
}

/// The JSONL snapshot time series the CI run uploads as an artifact: one
/// line per metered floor sample.
fn persist_snapshots(snapshots: &[MetricsSnapshot]) {
    if snapshots.is_empty() {
        return;
    }
    let lines: String = snapshots.iter().map(|s| s.to_jsonl() + "\n").collect();
    let dir = visapult_bench::target_dir();
    let path = dir.join("telemetry_snapshots.jsonl");
    let wrote = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, lines));
    match wrote {
        Ok(()) => println!("wrote telemetry snapshots {}", path.display()),
        Err(e) => eprintln!("telemetry snapshots not written: {e}"),
    }
}

fn main() {
    // `cargo test` runs bench targets with `--test`; do nothing there.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    // Baseline first, criterion second: the committed JSON must be measured
    // on a cold process and an unloaded host.  Criterion's soak runs many
    // minutes of sustained campaigns, and on small (or burst-credit) hosts
    // that sustained load throttles everything measured after it by 1.5-2x.
    write_baseline();
    // VISAPULT_BASELINE_ONLY=1 regenerates the committed JSON without the
    // criterion soak — on a small host the soak is ten minutes of load the
    // baseline (already written above) no longer measures.
    if std::env::var_os("VISAPULT_BASELINE_ONLY").is_none() {
        benches();
    }
}
