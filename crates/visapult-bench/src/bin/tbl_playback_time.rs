//! E9 / §5 — time to play back the full 265-timestep, 41.4 GB dataset over
//! each network, and the bandwidth needed for interactive playback.
//!
//! Paper: "the time required to move our 265-timestep dataset (a total of
//! 41.4 gigabytes) over NTON is on the order of eight minutes (a new timestep
//! every 3 seconds), while over ESnet, the time required is on the order of
//! 44 minutes (a new timestep every 10 seconds).  A reasonable target rate
//! would be ... five timesteps per second, requiring effective bandwidth on
//! the order of fifteen times faster than our OC12 connection to NTON;
//! approximately a dedicated OC192 link."

use dpss::DatasetDescriptor;
use netsim::{Bandwidth, TestbedKind};
use visapult_bench::{ComparisonRow, ExperimentReport};
use visapult_core::baseline::raw_data_bandwidth;
use visapult_core::{ExecutionMode, ScenarioSpec};

fn main() {
    let dataset = DatasetDescriptor::paper_combustion();
    // Cadence measured from a 10-step campaign, extrapolated to 265 steps.
    let nton = ScenarioSpec::paper_sim_config(TestbedKind::NtonCplant, 8, 10, ExecutionMode::Overlapped)
        .unwrap()
        .model()
        .unwrap();
    let esnet = ScenarioSpec::paper_sim_config(TestbedKind::EsnetAnlSmp, 8, 10, ExecutionMode::Overlapped)
        .unwrap()
        .model()
        .unwrap();
    let oc192 = ScenarioSpec::paper_sim_config(TestbedKind::FutureOc192, 16, 10, ExecutionMode::Overlapped)
        .unwrap()
        .model()
        .unwrap();

    let total_steps = dataset.timesteps as f64;
    let mut out = ExperimentReport::new(
        "E9 / §5",
        "Playback time of the 265-timestep (41.4 GB) dataset per network",
    );
    out.line("The §5 figures are data-movement times: how fast timesteps can be pulled across each network");
    out.line("(the overlapped pipeline hides rendering behind the next load, so the load cadence is the floor).");
    out.line("");
    out.line(format!(
        "{:<28}  {:>16}  {:>18}  {:>22}",
        "network", "s/step (data)", "265-step playback", "s/step (full pipeline)"
    ));
    for (label, r) in [
        ("NTON (OC-12, dedicated)", &nton),
        ("ESnet (shared)", &esnet),
        ("dedicated OC-192", &oc192),
    ] {
        let cadence = r.mean_load_time;
        out.line(format!(
            "{:<28}  {:>16.2}  {:>15.1} min  {:>22.2}",
            label,
            cadence,
            cadence * total_steps / 60.0,
            r.seconds_per_timestep()
        ));
    }
    out.line("");
    let needed_for_5hz = raw_data_bandwidth(&dataset, 5.0);
    out.line(format!(
        "bandwidth for 5 timesteps/second: {:.2} Gbps ({:.1}x the OC-12; OC-192 is {:.1} Gbps)",
        needed_for_5hz.bps() / 1e9,
        needed_for_5hz.bps() / Bandwidth::oc12().bps(),
        Bandwidth::oc192().bps() / 1e9
    ));

    out.compare(ComparisonRow::numeric(
        "NTON seconds per timestep (data)",
        3.0,
        nton.mean_load_time,
        "s",
        0.25,
    ));
    out.compare(ComparisonRow::numeric(
        "ESnet seconds per timestep (data)",
        10.0,
        esnet.mean_load_time,
        "s",
        0.25,
    ));
    out.compare(ComparisonRow::numeric(
        "NTON full playback",
        13.2,
        nton.mean_load_time * total_steps / 60.0,
        "min",
        0.3,
    ));
    out.compare(ComparisonRow::numeric(
        "ESnet full playback",
        44.0,
        esnet.mean_load_time * total_steps / 60.0,
        "min",
        0.3,
    ));
    out.compare(ComparisonRow::numeric(
        "bandwidth multiple of OC-12 needed for 5 steps/s",
        15.0,
        needed_for_5hz.bps() / Bandwidth::oc12().bps(),
        "x",
        0.3,
    ));
    out.compare(ComparisonRow::claim(
        "an OC-192 would carry 5 steps/s",
        "approximately a dedicated OC-192 link",
        &format!(
            "needed {:.1} Gbps vs OC-192 {:.1} Gbps",
            needed_for_5hz.bps() / 1e9,
            Bandwidth::oc192().bps() / 1e9
        ),
        needed_for_5hz.bps() < Bandwidth::oc192().bps(),
    ));
    println!("{}", out.render());
}
