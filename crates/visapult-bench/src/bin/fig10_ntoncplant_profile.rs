//! E2 / Figure 10 — NetLogger profile of the April 2000 NTON/CPlant campaign.
//!
//! Paper: 160 MB per timestep loaded from the LBL DPSS into four CPlant PEs
//! over NTON in ≈3 s (≈433 Mbps, ≈70 % of the OC-12), followed by 8–9 s of
//! software rendering on the four PEs.

use netsim::TestbedKind;
use visapult_bench::{ComparisonRow, ExperimentReport};
use visapult_core::{ExecutionMode, ScenarioSpec};

fn main() {
    let config = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 4, 10, ExecutionMode::Serial)
        .expect("paper scenario resolves");
    let report = config.model().expect("campaign failed");

    let mut out = ExperimentReport::new("E2 / Figure 10", "LBL DPSS -> CPlant over NTON, serial back end, 4 PEs");
    out.line(&report.name);
    out.line(format!(
        "{:>5}  {:>8}  {:>8}  {:>8}  {:>10}",
        "frame", "load(s)", "render(s)", "send(s)", "load Mbps"
    ));
    for f in &report.frames {
        out.line(format!(
            "{:>5}  {:>8.2}  {:>8.2}  {:>8.2}  {:>10.1}",
            f.frame,
            f.load_time(),
            f.render_time(),
            f.send_time(),
            config.pipeline.dataset.bytes_per_timestep().bits() as f64 / f.load_time() / 1e6,
        ));
    }
    out.line("");
    out.line("NLV lifeline of the run:");
    out.line(netlogger::LifelinePlot::new(&report.log, netlogger::NlvOptions::backend_only().with_width(100)).render());

    out.compare(ComparisonRow::numeric(
        "per-frame load time",
        3.0,
        report.mean_load_time,
        "s",
        0.25,
    ));
    out.compare(ComparisonRow::numeric(
        "aggregate load throughput",
        433.0,
        report.mean_load_throughput_mbps,
        "Mbps",
        0.15,
    ));
    out.compare(ComparisonRow::numeric(
        "OC-12 utilization",
        70.0,
        report.mean_load_throughput_mbps / 622.0 * 100.0,
        "%",
        0.15,
    ));
    out.compare(ComparisonRow::numeric(
        "per-frame render time (4 PEs)",
        8.5,
        report.mean_render_time,
        "s",
        0.2,
    ));
    println!("{}", out.render());
}
