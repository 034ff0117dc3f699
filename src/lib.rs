//! # visapult — remote and distributed visualization over high-speed WANs
//!
//! A Rust reproduction of *"Using High-Speed WANs and Network Data Caches to
//! Enable Remote and Distributed Visualization"* (Bethel, Tierney, Lee,
//! Gunter, Lau — LBNL, SC 2000): the **Visapult** remote visualization
//! framework and the **DPSS** network data cache it stands on.
//!
//! This facade crate re-exports the workspace's crates under one roof:
//!
//! | module | contents |
//! |--------|----------|
//! | [`netsim`]      | WAN testbed models, TCP dynamics, token-bucket shaping |
//! | [`netlogger`]   | NetLogger-style event logging, NLV lifeline plots, phase analysis |
//! | [`parcomm`]     | barrier-paced ranks and the Appendix B reader/render process groups |
//! | [`dpss`]        | the Distributed Parallel Storage System: master, block servers, client API, HPSS staging |
//! | [`volren`]      | parallel software volume rendering, slab decomposition, synthetic combustion/cosmology data |
//! | [`scenegraph`]  | retained-mode scene graph, software rasterizer, IBR-assisted volume rendering |
//! | [`core`]        | the Visapult back end, viewer, wire protocol, the declarative scenario engine, and baselines |
//!
//! ## Quick start
//!
//! Campaigns are declarative: a TOML scenario (see `scenarios/`) names a
//! testbed, a pipeline decomposition, a seed and a staged workload mix, and
//! compiles to either the real pipeline or its virtual-time replay through
//! one entry point:
//!
//! ```
//! use visapult::core::{run_scenario, ScenarioSpec};
//!
//! // The bundled laptop-scale scenario: synthetic combustion data staged
//! // onto an in-process DPSS, a 4-PE overlapped back end, the IBRAVR viewer.
//! let spec = ScenarioSpec::bundled("quickstart_lan").unwrap();
//! let report = run_scenario(&spec).unwrap();
//! assert_eq!(report.frames_received(), 4 * 3);
//! assert!(report.data_reduction_factor() > 1.0);
//!
//! // The same spec replayed in virtual time against the testbed models.
//! use visapult::core::ExecutionPath;
//! let replay = run_scenario(&spec.with_path(ExecutionPath::VirtualTime)).unwrap();
//! assert_eq!(replay.frames_received(), 4 * 3);
//! ```
//!
//! See `examples/` for the quickstart, the Combustion Corridor campaign
//! reproduction, the SC99 exhibit reconstruction and a DPSS tour, and
//! `crates/visapult-bench` for the binaries that regenerate every figure and
//! table in the paper's evaluation (documented in `EXPERIMENTS.md`).

#![forbid(unsafe_code)]

pub use dpss;
pub use netlogger;
pub use netsim;
pub use parcomm;
pub use scenegraph;
pub use volren;

/// The Visapult framework itself (back end, viewer, protocol, campaigns).
pub use visapult_core as core;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_all_subsystems() {
        // Touch one symbol from each re-exported crate.
        let _ = crate::netsim::Bandwidth::oc12();
        let _ = crate::netlogger::Collector::virtual_time();
        let _ = crate::parcomm::Semaphore::new(1);
        let _ = crate::dpss::StripeLayout::four_server();
        let _ = crate::volren::TransferFunction::combustion_default();
        let _ = crate::scenegraph::SceneGraph::new();
        let _ = crate::core::PipelineConfig::small(1, 1, crate::core::ExecutionMode::Serial);
    }
}
