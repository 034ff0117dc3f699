//! E5 / Figures 16 & 17 — serial vs overlapped on the ANL Onyx2 SMP over
//! shared ESnet.
//!
//! Paper: ≈10 s to move 160 MB per frame (≈128 Mbps, better than iperf's
//! ~100 Mbps thanks to striped parallel loads); the first timestep is slower
//! until the TCP window opens; overlapped load times are only slightly higher
//! than serial because every reader thread gets its own CPU on the SMP.

use netsim::TestbedKind;
use visapult_bench::{ComparisonRow, ExperimentReport};
use visapult_core::{ExecutionMode, ScenarioSpec};

fn main() {
    let serial = ScenarioSpec::paper_sim_config(TestbedKind::EsnetAnlSmp, 8, 10, ExecutionMode::Serial)
        .unwrap()
        .model()
        .unwrap();
    let overlapped = ScenarioSpec::paper_sim_config(TestbedKind::EsnetAnlSmp, 8, 10, ExecutionMode::Overlapped)
        .unwrap()
        .model()
        .unwrap();

    let mut out = ExperimentReport::new(
        "E5 / Figures 16 & 17",
        "Serial vs overlapped on the ANL Onyx2 SMP over ESnet (10 timesteps)",
    );
    out.line(format!(
        "{:<12}  {:>12}  {:>12}  {:>9}  {:>9}",
        "mode", "frame0 L(s)", "warm L(s)", "R mean(s)", "total(s)"
    ));
    for r in [&serial, &overlapped] {
        out.line(format!(
            "{:<12}  {:>12.2}  {:>12.2}  {:>9.2}  {:>9.1}",
            r.mode.label(),
            r.frames[0].load_time(),
            r.mean_load_time,
            r.mean_render_time,
            r.total_time
        ));
    }
    out.line("");
    out.line("Serial lifeline:");
    out.line(netlogger::LifelinePlot::new(&serial.log, netlogger::NlvOptions::backend_only().with_width(100)).render());

    out.compare(ComparisonRow::numeric(
        "warm per-frame load time",
        10.0,
        serial.mean_load_time,
        "s",
        0.2,
    ));
    out.compare(ComparisonRow::numeric(
        "aggregate load throughput",
        128.0,
        serial.mean_load_throughput_mbps,
        "Mbps",
        0.2,
    ));
    out.compare(ComparisonRow::claim(
        "striped loads beat single-stream iperf (~100 Mbps)",
        "> 100 Mbps",
        &format!("{:.1} Mbps", serial.mean_load_throughput_mbps),
        serial.mean_load_throughput_mbps > 100.0,
    ));
    out.compare(ComparisonRow::claim(
        "first frame slower until the TCP window opens",
        "visible in Fig. 17",
        &format!(
            "frame0 {:.2}s vs warm {:.2}s",
            serial.frames[0].load_time(),
            serial.mean_load_time
        ),
        serial.frames[0].load_time() > serial.mean_load_time * 1.05,
    ));
    out.compare(ComparisonRow::claim(
        "overlapped load only slightly above serial on the SMP",
        "slightly higher",
        &format!("{:.2}s vs {:.2}s", overlapped.mean_load_time, serial.mean_load_time),
        overlapped.mean_load_time >= serial.mean_load_time && overlapped.mean_load_time < serial.mean_load_time * 1.12,
    ));
    println!("{}", out.render());
}
