//! Quickstart: run the whole Visapult pipeline, end to end, on your laptop —
//! driven by a declarative scenario file.
//!
//! The bundled `scenarios/quickstart_lan.toml` spec stages synthetic
//! combustion data onto an in-process DPSS network cache, runs a four-PE
//! overlapped back end loading Z-slabs through the multi-threaded DPSS
//! client, and streams textures to the viewer, whose IBR-assisted compositor
//! produces the final image.  NetLogger instrumentation records the run and
//! an NLV-style lifeline plot is printed at the end.
//!
//! Flip `path = "real"` to `"virtual-time"` in the scenario file (or call
//! `.with_path(ExecutionPath::VirtualTime)`) to replay the same scenario
//! against the calibrated testbed models in milliseconds.
//!
//! Run with: `cargo run --release --example quickstart`

use visapult::core::{Pipeline, ScenarioSpec};
use visapult::netlogger::{LifelinePlot, NlvOptions, ProfileAnalysis};

fn main() {
    let spec = ScenarioSpec::bundled("quickstart_lan").expect("bundled scenario parses");

    println!("== Visapult quickstart ==");
    println!(
        "scenario {} [{} path], {} PEs, {} timesteps, seed {}\n",
        spec.scenario.name,
        spec.scenario.path.label(),
        spec.pipeline.pes,
        spec.pipeline.timesteps,
        spec.scenario.seed,
    );

    // The unified driver: compile the spec into a `Pipeline` (the stage
    // control flow exists once; the spec's path picks the capability set —
    // clock, fabric, render farm, service plane) and run it.
    let report = Pipeline::from_spec(&spec)
        .expect("spec compiles")
        .run()
        .expect("scenario failed");

    println!("{}", report.to_table());
    println!(
        "data movement: {:.1} MB loaded from the DPSS, {:.2} MB shipped to the viewer ({}x data reduction)",
        report.bytes_loaded() as f64 / 1e6,
        report.wire_bytes() as f64 / 1e6,
        report.data_reduction_factor().round(),
    );
    println!(
        "viewer       : {} payloads received across {} stage(s)",
        report.frames_received(),
        report.stages.len()
    );
    println!(
        "replay fingerprint: {:016x} (same spec + seed => same fingerprint)\n",
        report.replay_fingerprint()
    );

    println!("Per-frame phase analysis (from NetLogger events):");
    println!("{}", ProfileAnalysis::from_log(&report.log).to_table());

    println!("NLV lifeline plot of the run:");
    let plot = LifelinePlot::new(&report.log, NlvOptions::default().with_width(90));
    println!("{}", plot.render());
}
