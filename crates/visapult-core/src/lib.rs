//! # visapult-core — the Visapult remote/distributed visualization framework
//!
//! This crate assembles the substrates ([`dpss`], [`netsim`], [`netlogger`],
//! [`parcomm`], [`volren`], [`scenegraph`]) into the system the paper
//! describes: a parallel, pipelined back end that loads slab-decomposed
//! scientific data from a network data cache, volume renders it, and streams
//! per-slab textures to a multi-threaded viewer whose IBR-assisted display is
//! decoupled from network latency.
//!
//! The front door is the declarative scenario engine
//! ([`campaign::scenario`]): a TOML [`ScenarioSpec`] names a testbed, a
//! pipeline decomposition, a seed and a staged workload mix, and
//! [`run_scenario`] compiles it into a [`pipeline::Pipeline`] — the unified
//! driver whose stage control flow (load → render → stripe → fan-out →
//! composite) exists exactly once, written against four capability traits:
//!
//! * [`pipeline::Clock`] — wall time, or deterministic virtual time;
//! * [`pipeline::Fabric`] — real striped channels, or modeled TCP stripe
//!   sessions;
//! * [`pipeline::RenderFarm`] — the thread-per-PE software renderer, or the
//!   calibrated platform compute model;
//! * [`pipeline::ServicePlane`] — the live shared-render fan-out broker, or
//!   its deterministic replay.
//!
//! [`ExecutionPath::Real`] and [`ExecutionPath::VirtualTime`] are nothing
//! more than the two bundled capability sets
//! ([`pipeline::PathCapabilities`]); both produce byte-identical
//! [`CampaignReport::replay_fingerprint`]s for the same spec.  There is no
//! other campaign entry point.  The figure binaries that print a per-frame
//! schedule read the calibrated stage model of the same scenarios:
//! [`ScenarioSpec::paper_sim_config`] resolves a one-stage paper-scale spec
//! and [`SimCampaignConfig::model`] runs that stage alone.
//!
//! Supporting modules: the light/heavy payload wire [`protocol`], the
//! multi-session [`service`] layer (session broker, shared-render fan-out,
//! admission control), the per-platform compute [`platform`] models, the
//! analytic overlap [`model`] of §4.3, and the render-remote / render-local
//! [`baseline`]s of §2.

#![forbid(unsafe_code)]

pub mod backend;
pub mod baseline;
pub mod campaign;
pub mod config;
pub mod data_source;
pub mod error;
pub mod model;
pub mod pipeline;
pub mod platform;
pub mod protocol;
pub mod service;
pub mod transport;
pub mod viewer;

#[cfg(test)]
pub(crate) mod test_support;

pub use baseline::{StrategyBandwidth, VisualizationStrategy};
pub use campaign::real::{RealDataPath, RealDpssEnv, ServicePlan};
pub use campaign::scenario::{
    run_scenario, CacheReport, CacheSpec, CampaignReport, ExecutionPath, PlatformSpec, ResolvedTelemetry, ScenarioSpec,
    ServiceReport, ServiceTableSpec, SessionArrivalSpec, StageReport, StageSpec, TelemetryReport, TelemetrySpec,
    TransportReport, TransportSpec,
};
pub use campaign::sim::{SimCampaignConfig, SimCampaignReport, SimTransportModel};
pub use config::{ExecutionMode, PipelineConfig};
pub use data_source::{DataSource, DpssDataSource, SyntheticSource};
pub use error::VisapultError;
pub use model::OverlapModel;
pub use pipeline::{
    AsyncPlane, Clock, Fabric, FabricLinks, FanoutPlane, FarmRun, ModelFarm, ModeledFabric, PathCapabilities,
    PhaseMeans, Pipeline, PipelineBuilder, PlaneKind, PlaneSession, RenderFarm, ReplayPlane, ServicePlane,
    StageArtifacts, StageContext, StripedFabric, ThreadFarm, VirtualClock, WallClock,
};
pub use platform::ComputePlatform;
pub use protocol::{FramePayload, FrameSegments, HeavyPayload, LightPayload};
pub use service::{
    QualityTier, RejectReason, ServiceConfig, ServiceRunReport, ServiceStats, SessionBroker, SessionDelivery,
    SessionEvent, SessionSpec,
};
pub use transport::{
    drain_frames, plan_chunks, striped_link, FrameAssembler, FrameChunk, StripeReceiver, StripeSender, TcpTuning,
    TransportConfig, TransportError, TransportStats,
};
pub use viewer::{Viewer, ViewerError, ViewerReport};
