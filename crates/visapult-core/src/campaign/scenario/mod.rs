//! The declarative scenario engine: one TOML spec, two execution paths.
//!
//! A [`ScenarioSpec`] is the one description of a campaign (in the style of
//! contender campaign files and deterministic scenario-replay harnesses),
//! whichever execution path runs it: the reconstructed testbed, the
//! pipeline decomposition, the dataset scale, and a *staged workload mix* —
//! sequential stages that split the timestep budget by percentage share and
//! may override the execution mode per stage (e.g. a serial probe stage
//! followed by an overlapped sustained stage).
//!
//! [`run_scenario`] compiles the spec into a [`crate::pipeline::Pipeline`]:
//! the stage control flow (load → render → stripe → fan-out → composite)
//! exists once, and the spec's `path` merely selects which capability set —
//! [`crate::pipeline::Clock`], [`crate::pipeline::Fabric`],
//! [`crate::pipeline::RenderFarm`], [`crate::pipeline::ServicePlane`] —
//! drives it: `path = "real"` wires OS threads and striped channels,
//! `path = "virtual-time"` wires the calibrated models.  Either way the
//! result is one [`CampaignReport`] whose NetLogger log spans the whole
//! campaign on a single time axis.
//!
//! Scenarios are deterministic: the spec's seed feeds the synthetic dataset,
//! the virtual-time jitter, and each stage (offset by its index), so two runs
//! of the same spec produce identical reports — bit-identical in virtual
//! time, and identical up to wall-clock timing in real mode, which
//! [`CampaignReport::replay_fingerprint`] checks by hashing only the
//! deterministic content.
//!
//! The module is split by role: [`spec`] holds the TOML-facing data types,
//! [`compile`] validates and resolves them, [`report`] holds the unified
//! report and its fingerprint.  Six specs ship in the repository's
//! `scenarios/` directory (also compiled in via [`ScenarioSpec::bundled`]).

pub mod compile;
pub mod report;
pub mod spec;

pub use compile::{run_scenario, ResolvedScenario, ResolvedService, ResolvedStage, ResolvedTelemetry};
pub use report::{
    CacheReport, CampaignReport, ServiceReport, StageMetrics, StageReport, TelemetryReport, TransportReport,
};
pub use spec::{
    build_testbed, CacheSpec, DatasetSpec, ExecutionPath, PipelineSpec, PlatformSpec, RealPathSpec, RenderSpec,
    ScenarioMeta, ScenarioSpec, ServiceTableSpec, SessionArrivalSpec, SimPathSpec, StageSpec, TelemetrySpec,
    TestbedSpec, TransportSpec,
};

#[cfg(test)]
mod tests;
