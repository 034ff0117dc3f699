//! E4 / Figures 14 & 15 — serial vs overlapped on eight CPlant nodes over
//! NTON, and the effect of adding nodes.
//!
//! Paper: the time to load 160 MB with eight nodes is approximately equal to
//! the time with four nodes (the WAN is saturated); render time halves;
//! overlapped load times are slightly higher and more variable because reader
//! thread and renderer share each node's single CPU.

use netsim::TestbedKind;
use visapult_bench::{ComparisonRow, ExperimentReport};
use visapult_core::{ExecutionMode, ScenarioSpec};

fn load_cv(frames: &[visapult_core::campaign::sim::FrameTiming]) -> f64 {
    let times: Vec<f64> = frames.iter().skip(1).map(|f| f.load_time()).collect();
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;
    var.sqrt() / mean
}

fn main() {
    let four_serial = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 4, 10, ExecutionMode::Serial)
        .unwrap()
        .model()
        .unwrap();
    let eight_serial = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 8, 10, ExecutionMode::Serial)
        .unwrap()
        .model()
        .unwrap();
    let eight_overlap = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 8, 10, ExecutionMode::Overlapped)
        .unwrap()
        .model()
        .unwrap();

    let mut out = ExperimentReport::new(
        "E4 / Figures 14 & 15",
        "Serial vs overlapped on CPlant nodes over NTON; scaling from 4 to 8 nodes",
    );
    out.line(format!(
        "{:<26}  {:>9}  {:>9}  {:>9}  {:>12}",
        "configuration", "L mean(s)", "R mean(s)", "total(s)", "load CV"
    ));
    for (label, r) in [
        ("4 nodes, serial", &four_serial),
        ("8 nodes, serial", &eight_serial),
        ("8 nodes, overlapped", &eight_overlap),
    ] {
        out.line(format!(
            "{:<26}  {:>9.2}  {:>9.2}  {:>9.1}  {:>12.3}",
            label,
            r.mean_load_time,
            r.mean_render_time,
            r.total_time,
            load_cv(&r.frames)
        ));
    }
    out.line("");
    out.line("Overlapped lifeline on 8 nodes:");
    out.line(
        netlogger::LifelinePlot::new(
            &eight_overlap.log,
            netlogger::NlvOptions::backend_only().with_width(100),
        )
        .render(),
    );

    out.compare(ComparisonRow::claim(
        "8-node load ≈ 4-node load (WAN saturated)",
        "approximately equal",
        &format!("ratio {:.2}", eight_serial.mean_load_time / four_serial.mean_load_time),
        (eight_serial.mean_load_time / four_serial.mean_load_time - 1.0).abs() < 0.15,
    ));
    out.compare(ComparisonRow::numeric(
        "render speedup from 4 to 8 nodes",
        2.0,
        four_serial.mean_render_time / eight_serial.mean_render_time,
        "x",
        0.1,
    ));
    out.compare(ComparisonRow::claim(
        "overlapped loads slower & more variable on the cluster",
        "higher mean, visible stagger",
        &format!(
            "mean {:.2}s vs {:.2}s, CV {:.3} vs {:.3}",
            eight_overlap.mean_load_time,
            eight_serial.mean_load_time,
            load_cv(&eight_overlap.frames),
            load_cv(&eight_serial.frames)
        ),
        eight_overlap.mean_load_time > eight_serial.mean_load_time
            && load_cv(&eight_overlap.frames) > load_cv(&eight_serial.frames),
    ));
    out.compare(ComparisonRow::claim(
        "overlapping still wins overall",
        "overlapped total < serial total",
        &format!("{:.1}s vs {:.1}s", eight_overlap.total_time, eight_serial.total_time),
        eight_overlap.total_time < eight_serial.total_time,
    ));
    println!("{}", out.render());
}
