//! Campaign drivers: end-to-end runs of the Visapult pipeline.
//!
//! The paper calls its end-to-end field tests "campaigns" (§4.2).  The
//! declarative [`scenario`] engine is the front door: a TOML
//! [`scenario::ScenarioSpec`] (testbed, decomposition, staged workload mix,
//! seed) compiles through [`scenario::run_scenario`] into a
//! [`crate::pipeline::Pipeline`], whose one shared stage control flow is
//! driven by the capability set the spec's path selects:
//!
//! * `path = "real"` — the actual pipeline (DPSS, back end, viewer) on OS
//!   threads with wall-clock NetLogger instrumentation.
//! * `path = "virtual-time"` — the same control flow against calibrated
//!   network/platform models on a virtual clock, reproducing the paper's
//!   timing figures without the original testbeds.
//!
//! [`real`] holds what a real-path stage carries beyond the shared pipeline
//! shape (data path, persistent DPSS deployment, service plan); [`sim`] holds
//! the calibrated stage model, whose [`sim::SimCampaignConfig::model`] is the
//! raw-model entry the figure binaries use.

pub mod real;
pub mod scenario;
pub mod sim;
