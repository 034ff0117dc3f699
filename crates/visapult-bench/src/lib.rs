//! # visapult-bench — the experiment harness
//!
//! One binary per figure/table of the paper's evaluation (see `src/bin/`) and
//! Criterion micro-benchmarks for the performance-critical building blocks
//! (see `benches/`).  This library holds the shared report formatting and the
//! paper's reference values so every binary prints a "paper vs. reproduced"
//! comparison that EXPERIMENTS.md records.

#![forbid(unsafe_code)]

use netlogger::MetricsSnapshot;
use std::path::PathBuf;
use std::time::Instant;

/// Render a metrics snapshot as a fixed-width text table: histograms with
/// their percentile summaries first, then counters, then high-water gauges.
/// The formatter behind `telemetry_tour`.
pub fn render_metrics_table(snap: &MetricsSnapshot) -> String {
    let mut out = format!("metrics @ {}\n", snap.at);
    if !snap.histograms.is_empty() {
        out.push_str(&format!(
            "  {:<30} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11}\n",
            "histogram", "n", "p50", "p90", "p99", "max", "mean"
        ));
        for (key, h) in &snap.histograms {
            out.push_str(&format!(
                "  {:<30} {:>9} {:>9} {:>9} {:>9} {:>9} {:>11.1}\n",
                key,
                h.count,
                h.p50,
                h.p90,
                h.p99,
                h.max,
                h.mean()
            ));
        }
    }
    if !snap.counters.is_empty() {
        out.push_str(&format!("  {:<30} {:>15}\n", "counter", "value"));
        for (key, v) in &snap.counters {
            out.push_str(&format!("  {:<30} {:>15}\n", key, v));
        }
    }
    if !snap.high_waters.is_empty() {
        out.push_str(&format!("  {:<30} {:>15}\n", "high-water", "value"));
        for (key, v) in &snap.high_waters {
            out.push_str(&format!("  {:<30} {:>15}\n", key, v));
        }
    }
    out
}

/// The build's `target/` directory — bench harnesses run with the package
/// directory as CWD, so scratch artifacts (baselines, telemetry snapshot
/// series) must resolve it from the workspace layout, not relatively.
pub fn target_dir() -> PathBuf {
    std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("target")
        })
}

/// Where a bench baseline named `BENCH_<name>.json` lands: the build's
/// `target/` directory (scratch, next to every other build artifact) and the
/// workspace root (the copy the repo commits so baselines travel with the
/// history they measure).
pub fn baseline_paths(name: &str) -> Vec<PathBuf> {
    let file = format!("BENCH_{name}.json");
    let workspace = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    vec![target_dir().join(&file), workspace.join(&file)]
}

/// Write a bench baseline to every location in [`baseline_paths`], returning
/// the paths actually written (an unwritable location is skipped, not fatal —
/// benches must still report on read-only checkouts).
pub fn persist_baseline(name: &str, json: &str) -> Vec<PathBuf> {
    baseline_paths(name)
        .into_iter()
        .filter(|path| {
            path.parent()
                .map(|dir| std::fs::create_dir_all(dir).is_ok())
                .unwrap_or(false)
                && std::fs::write(path, json).is_ok()
        })
        .collect()
}

/// [`persist_baseline`], then print where the baseline went and the record
/// itself — the tail every baseline-writing bench ends with.
pub fn report_baseline(name: &str, json: &str) {
    let written = persist_baseline(name, json);
    if written.is_empty() {
        println!("\nbaseline (nowhere writable):\n{json}");
    } else {
        for path in &written {
            println!("\nwrote baseline {}", path.display());
        }
        println!("{json}");
    }
}

/// Median seconds per call of `f` over `samples` timed calls.
pub fn median_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Which way a gated bench metric improves.  The regression gate is
/// *direction-aware*: a throughput that climbs and a latency that falls are
/// both improvements, and neither may fail CI — only movement in the wrong
/// direction beyond the tolerance does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Time- or space-per-unit: smaller fresh values are improvements.
    LowerIsBetter,
    /// Throughput, hit rates, speedup ratios: larger fresh values are
    /// improvements.
    HigherIsBetter,
}

impl Direction {
    /// Human tag for the delta table.
    pub fn label(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower is better",
            Direction::HigherIsBetter => "higher is better",
        }
    }

    /// Normalized "how much worse" ratio: `1.0` is unchanged, above `1.0` the
    /// fresh value moved in the wrong direction, below it improved.  A
    /// degenerate committed value (zero) compares as unchanged; a
    /// higher-is-better metric that collapsed to zero is infinitely worse.
    pub fn worseness(self, committed: f64, fresh: f64) -> f64 {
        match self {
            Direction::LowerIsBetter => {
                if committed > 0.0 {
                    fresh / committed
                } else {
                    1.0
                }
            }
            Direction::HigherIsBetter => {
                if committed <= 0.0 {
                    1.0
                } else if fresh > 0.0 {
                    committed / fresh
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

/// The headline keys the baseline gate tracks, each with its direction.
/// Every other numeric entry in a `BENCH_*.json` is context, free to drift.
pub const HEADLINE_METRICS: &[(&str, Direction)] = &[
    ("median_s", Direction::LowerIsBetter),
    ("us_per_session_frame", Direction::LowerIsBetter),
    ("bytes_per_op", Direction::LowerIsBetter),
    ("mbytes_per_s", Direction::HigherIsBetter),
    ("shared_render_hit_rate", Direction::HigherIsBetter),
    ("warm_speedup_vs_uncached", Direction::HigherIsBetter),
    ("p50_us", Direction::LowerIsBetter),
    ("p99_us", Direction::LowerIsBetter),
];

/// Per-metric widening of the gate's worseness ratio.  Most headline metrics
/// are medians over repeated samples and gate at the caller's `max_ratio`
/// unchanged (multiplier 1.0).  The wave-latency percentiles are
/// log₂-bucketed observations of a deliberately saturated floor — a
/// one-bucket shift in the p50 of a bimodal wave distribution reads as
/// several-× — so they gate at 4× the base ratio: wide enough to absorb
/// bucket and scheduling noise, still tight enough to fail an
/// order-of-magnitude latency regression.
pub fn headline_tolerance(key: &str) -> f64 {
    match key {
        "p50_us" | "p99_us" => 4.0,
        _ => 1.0,
    }
}

/// One gated entry's committed-vs-fresh comparison — the full table, not just
/// the failures, so CI can print every metric's movement.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineDelta {
    /// Dotted JSON path of the entry (e.g. `cases.sessions_8.median_s`).
    pub path: String,
    /// Which way this metric improves.
    pub direction: Direction,
    /// The committed (baseline) value.
    pub committed: f64,
    /// The freshly measured value (`NaN` when the entry vanished).
    pub fresh: f64,
    /// Normalized worseness (see [`Direction::worseness`]; `inf` when the
    /// entry vanished).
    pub worseness: f64,
    /// This metric's band multiplier (see [`headline_tolerance`]).
    pub tolerance: f64,
}

impl BaselineDelta {
    /// True when this entry moved in the wrong direction past the tolerance
    /// (or vanished) — the only condition that fails the gate.  The effective
    /// band is `max_ratio × self.tolerance`.
    pub fn regressed(&self, max_ratio: f64) -> bool {
        self.worseness > max_ratio * self.tolerance
    }

    /// Signed raw value change in percent (positive = fresh value larger).
    pub fn change_percent(&self) -> f64 {
        if self.committed.abs() > 0.0 {
            (self.fresh - self.committed) / self.committed * 100.0
        } else {
            0.0
        }
    }

    /// Table status cell: `REGRESSED` / `MISSING` fail the gate; `improved`
    /// and `ok` never do, whatever the magnitude of the improvement.
    pub fn status(&self, max_ratio: f64) -> &'static str {
        if self.fresh.is_nan() {
            "MISSING"
        } else if self.regressed(max_ratio) {
            "REGRESSED"
        } else if self.worseness < 1.0 {
            "improved"
        } else {
            "ok"
        }
    }
}

fn as_f64(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::F64(f) => Some(*f),
        serde::Value::I64(i) => Some(*i as f64),
        serde::Value::U64(u) => Some(*u as f64),
        _ => None,
    }
}

fn headline_direction(key: &str) -> Option<Direction> {
    HEADLINE_METRICS
        .iter()
        .find(|(name, _)| *name == key)
        .map(|&(_, direction)| direction)
}

fn walk_headlines(committed: &serde::Value, fresh: &serde::Value, path: &str, out: &mut Vec<BaselineDelta>) {
    let Some(entries) = committed.as_map() else { return };
    for (key, value) in entries {
        let child_path = if path.is_empty() {
            key.clone()
        } else {
            format!("{path}.{key}")
        };
        if let Some(direction) = headline_direction(key) {
            if let Some(base) = as_f64(value) {
                let (now, worseness) = match fresh.get(key).and_then(as_f64) {
                    Some(now) => (now, direction.worseness(base, now)),
                    None => (f64::NAN, f64::INFINITY),
                };
                out.push(BaselineDelta {
                    path: child_path,
                    direction,
                    committed: base,
                    fresh: now,
                    worseness,
                    tolerance: headline_tolerance(key),
                });
                continue;
            }
        }
        if value.as_map().is_some() {
            match fresh.get(key) {
                Some(fresh_child) => walk_headlines(value, fresh_child, &child_path, out),
                None => walk_headlines(value, &serde::Value::Null, &child_path, out),
            }
        }
    }
}

/// Diff a fresh bench record against a committed baseline: one
/// [`BaselineDelta`] per headline entry (see [`HEADLINE_METRICS`]), in the
/// committed record's order — improvements included, so the caller can print
/// the complete per-metric table.  Non-headline and newly added entries are
/// ignored: baselines may grow freely; they may not silently get worse.
pub fn baseline_deltas(committed: &serde::Value, fresh: &serde::Value) -> Vec<BaselineDelta> {
    let mut out = Vec::new();
    walk_headlines(committed, fresh, "", &mut out);
    out
}

/// One row of a paper-vs-measured comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// What is being compared (e.g. "NTON aggregate load throughput").
    pub quantity: String,
    /// The value reported in the paper (unit included in the string).
    pub paper: String,
    /// The value this reproduction measured.
    pub measured: String,
    /// Whether the reproduction preserves the paper's qualitative claim.
    pub shape_holds: bool,
}

impl ComparisonRow {
    /// Build a row from numeric values with a unit and a tolerance expressed
    /// as a relative band (e.g. 0.25 = within ±25 %).
    pub fn numeric(quantity: &str, paper: f64, measured: f64, unit: &str, rel_band: f64) -> Self {
        let shape_holds = if paper.abs() < f64::EPSILON {
            measured.abs() < f64::EPSILON
        } else {
            ((measured - paper) / paper).abs() <= rel_band
        };
        ComparisonRow {
            quantity: quantity.to_string(),
            paper: format!("{paper:.1} {unit}"),
            measured: format!("{measured:.1} {unit}"),
            shape_holds,
        }
    }

    /// Build a row for a qualitative claim.
    pub fn claim(quantity: &str, paper: &str, measured: &str, holds: bool) -> Self {
        ComparisonRow {
            quantity: quantity.to_string(),
            paper: paper.to_string(),
            measured: measured.to_string(),
            shape_holds: holds,
        }
    }
}

/// A full experiment report: header, free-form table body, and the
/// paper-vs-measured rows.
#[derive(Debug, Clone, Default)]
pub struct ExperimentReport {
    /// Experiment id (e.g. "E2 / Figure 10").
    pub id: String,
    /// One-line description.
    pub title: String,
    /// Pre-formatted table body (the regenerated figure/table content).
    pub body: String,
    /// Paper-vs-measured rows.
    pub comparisons: Vec<ComparisonRow>,
}

impl ExperimentReport {
    /// A new empty report.
    pub fn new(id: &str, title: &str) -> Self {
        ExperimentReport {
            id: id.to_string(),
            title: title.to_string(),
            ..Default::default()
        }
    }

    /// Append a body line.
    pub fn line(&mut self, line: impl AsRef<str>) {
        self.body.push_str(line.as_ref());
        self.body.push('\n');
    }

    /// Append a comparison row.
    pub fn compare(&mut self, row: ComparisonRow) {
        self.comparisons.push(row);
    }

    /// True when every recorded comparison preserves the paper's shape.
    pub fn all_shapes_hold(&self) -> bool {
        self.comparisons.iter().all(|c| c.shape_holds)
    }

    /// Render the report as text (what the figure binaries print).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("==== {} — {} ====\n\n", self.id, self.title));
        out.push_str(&self.body);
        if !self.comparisons.is_empty() {
            out.push_str("\npaper vs. reproduction:\n");
            let width = self
                .comparisons
                .iter()
                .map(|c| c.quantity.len())
                .max()
                .unwrap_or(10)
                .max(10);
            for c in &self.comparisons {
                out.push_str(&format!(
                    "  {:width$}  paper: {:>16}   measured: {:>16}   shape holds: {}\n",
                    c.quantity,
                    c.paper,
                    c.measured,
                    if c.shape_holds { "yes" } else { "NO" },
                    width = width
                ));
            }
        }
        out.push_str(&format!(
            "\noverall: {}\n",
            if self.all_shapes_hold() {
                "reproduction preserves the paper's result shape"
            } else {
                "MISMATCH — see rows marked NO"
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate as `compare_baselines` applies it: the deltas that fail.
    fn regressed(committed: &serde::Value, fresh: &serde::Value, max_ratio: f64) -> Vec<BaselineDelta> {
        baseline_deltas(committed, fresh)
            .into_iter()
            .filter(|d| d.regressed(max_ratio))
            .collect()
    }

    #[test]
    fn baselines_land_in_target_and_at_the_workspace_root() {
        let paths = baseline_paths("unit");
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.ends_with("BENCH_unit.json")));
        assert!(
            paths[0].components().any(|c| c.as_os_str() == "target") || std::env::var("CARGO_TARGET_DIR").is_ok(),
            "{paths:?}"
        );
        // The committed copy sits at the workspace root, not under target/.
        assert!(paths[1].parent().unwrap().join("Cargo.toml").exists(), "{paths:?}");
    }

    #[test]
    fn regressed_deltas_gate_on_the_ratio_and_on_vanished_entries() {
        let committed: serde::Value = serde_json::from_str(
            r#"{"cases": {"a": {"median_s": 1.0, "renders": 5}, "b": {"us_per_session_frame": 10.0}}}"#,
        )
        .unwrap();
        // Within the band, and a non-headline entry got slower: no findings.
        let fresh: serde::Value = serde_json::from_str(
            r#"{"cases": {"a": {"median_s": 1.2, "renders": 500}, "b": {"us_per_session_frame": 9.0}}}"#,
        )
        .unwrap();
        assert!(regressed(&committed, &fresh, 1.3).is_empty());
        // Past the band on one entry, the other vanished.
        let fresh: serde::Value =
            serde_json::from_str(r#"{"cases": {"a": {"median_s": 1.5, "renders": 5}, "b": {}}}"#).unwrap();
        let found = regressed(&committed, &fresh, 1.3);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(found[0].path, "cases.a.median_s");
        assert!((found[0].worseness - 1.5).abs() < 1e-9);
        assert_eq!(found[1].path, "cases.b.us_per_session_frame");
        assert!(found[1].fresh.is_nan() && found[1].worseness.is_infinite());
    }

    #[test]
    fn higher_is_better_metrics_gate_on_drops_not_rises() {
        let committed: serde::Value =
            serde_json::from_str(r#"{"t": {"mbytes_per_s": 100.0, "median_s": 1.0}}"#).unwrap();
        // Throughput doubled and latency halved: both are wrong-direction-free.
        let fresh: serde::Value = serde_json::from_str(r#"{"t": {"mbytes_per_s": 200.0, "median_s": 0.5}}"#).unwrap();
        assert!(regressed(&committed, &fresh, 1.3).is_empty());
        let deltas = baseline_deltas(&committed, &fresh);
        assert_eq!(deltas.len(), 2, "{deltas:?}");
        assert!(deltas.iter().all(|d| d.status(1.3) == "improved"), "{deltas:?}");

        // Throughput halved: a 2.0x wrong-direction move on a higher-is-better
        // metric, even though the raw value moved "down" like a latency would.
        let fresh: serde::Value = serde_json::from_str(r#"{"t": {"mbytes_per_s": 50.0, "median_s": 1.0}}"#).unwrap();
        let found = regressed(&committed, &fresh, 1.3);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].path, "t.mbytes_per_s");
        assert!((found[0].worseness - 2.0).abs() < 1e-9);

        let deltas = baseline_deltas(&committed, &fresh);
        let throughput = deltas.iter().find(|d| d.path == "t.mbytes_per_s").unwrap();
        assert_eq!(throughput.direction, Direction::HigherIsBetter);
        assert_eq!(throughput.status(1.3), "REGRESSED");
        assert!((throughput.change_percent() + 50.0).abs() < 1e-9);
        let latency = deltas.iter().find(|d| d.path == "t.median_s").unwrap();
        assert_eq!(latency.status(1.3), "ok");
    }

    #[test]
    fn tail_percentiles_gate_with_widened_tolerance() {
        let committed: serde::Value = serde_json::from_str(r#"{"f": {"p99_us": 10000, "median_s": 1.0}}"#).unwrap();
        // A 3x-worse p99 sits inside the widened 1.3 × 4 band; a 3x-worse
        // median does not.
        let fresh: serde::Value = serde_json::from_str(r#"{"f": {"p99_us": 30000, "median_s": 3.0}}"#).unwrap();
        let found = regressed(&committed, &fresh, 1.3);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].path, "f.median_s");
        // A 6x-worse p99 breaches even the widened band.
        let fresh: serde::Value = serde_json::from_str(r#"{"f": {"p99_us": 60000, "median_s": 1.0}}"#).unwrap();
        let found = regressed(&committed, &fresh, 1.3);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].path, "f.p99_us");
    }

    #[test]
    fn numeric_rows_apply_the_band() {
        let ok = ComparisonRow::numeric("throughput", 433.0, 440.0, "Mbps", 0.1);
        assert!(ok.shape_holds);
        let off = ComparisonRow::numeric("throughput", 433.0, 200.0, "Mbps", 0.1);
        assert!(!off.shape_holds);
        let zero = ComparisonRow::numeric("x", 0.0, 0.0, "s", 0.1);
        assert!(zero.shape_holds);
    }

    #[test]
    fn report_renders_and_tracks_overall_status() {
        let mut r = ExperimentReport::new("E2 / Figure 10", "NTON profile");
        r.line("frame  load  render");
        r.line("0      3.0   8.5");
        r.compare(ComparisonRow::numeric("load time", 3.0, 2.9, "s", 0.2));
        assert!(r.all_shapes_hold());
        let text = r.render();
        assert!(text.contains("Figure 10"));
        assert!(text.contains("shape holds: yes"));
        r.compare(ComparisonRow::claim("loser", "x", "y", false));
        assert!(!r.all_shapes_hold());
        assert!(r.render().contains("MISMATCH"));
    }
}
