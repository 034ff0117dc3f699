//! A tour of the always-on metrics plane (the `[telemetry]` table).
//!
//! Runs the bundled `exhibit_floor` scenario — the 1/8/64-session sweep
//! through the session broker — on the real path with its telemetry table
//! enabled, then prints everything the metrics plane recorded: per-stage
//! latency histograms (load/render/stripe/composite percentiles), fan-out
//! wave latencies, cache shard counters, queue-depth high-waters, and the
//! executor's introspection counters, followed by the periodic JSONL
//! snapshot series the `snapshot_frames` knob produces.
//!
//! Run with: `cargo run --release -p visapult-bench --example telemetry_tour`

use netlogger::MetricsSnapshot;
use visapult_bench::render_metrics_table;
use visapult_core::{run_scenario, ScenarioSpec};

fn main() {
    let spec = ScenarioSpec::bundled("exhibit_floor").expect("bundled scenario");
    println!("== Telemetry tour: {} ==\n", spec.scenario.name);
    let report = run_scenario(&spec).expect("scenario runs");
    println!("{}", report.to_table());

    let telemetry = report.telemetry.as_ref().expect("telemetry report present");
    assert!(telemetry.enabled, "exhibit_floor enables the metrics plane");

    // The full instrument table, rendered from the campaign-total maps the
    // report folds out of the hub.
    let snap = MetricsSnapshot {
        at: "campaign".to_string(),
        histograms: telemetry.latencies.clone(),
        counters: telemetry.counters.clone(),
        high_waters: telemetry.high_waters.clone(),
    };
    print!("{}", render_metrics_table(&snap));

    // The periodic time series: one line per `snapshot_frames` tick plus one
    // per stage end — what the service bench ships to CI as an artifact.
    println!("\nsnapshot series ({} snapshots, JSONL):", telemetry.snapshots.len());
    for line in telemetry.snapshots_jsonl().lines().take(6) {
        let shown: String = line.chars().take(120).collect();
        println!("  {shown}{}", if line.len() > 120 { "…" } else { "" });
    }
    if telemetry.snapshots.len() > 6 {
        println!("  … {} more", telemetry.snapshots.len() - 6);
    }
}
