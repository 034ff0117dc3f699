//! The declarative spec: what the `scenarios/*.toml` files deserialize into.
//!
//! Everything in this module is plain data — identity, testbed, pipeline
//! shape, staged workload mix, and the optional `[cache]`, `[transport]` and
//! `[service]` tables.  Validation and default resolution live in
//! [`super::compile`]; execution lives in [`crate::pipeline`].

use crate::config::ExecutionMode;
use crate::error::VisapultError;
use crate::platform::ComputePlatform;
use crate::service::QualityTier;
use crate::transport::TcpTuning;
use netsim::{Testbed, TestbedKind};
use serde::{Deserialize, Serialize};

/// Which execution path a scenario compiles to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecutionPath {
    /// The actual pipeline on OS threads (DPSS, back end, viewer).
    Real,
    /// The same control flow replayed against calibrated models.
    VirtualTime,
}

impl ExecutionPath {
    /// Both paths, for parity sweeps.
    pub const ALL: [ExecutionPath; 2] = [ExecutionPath::Real, ExecutionPath::VirtualTime];

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionPath::Real => "real",
            ExecutionPath::VirtualTime => "virtual-time",
        }
    }
}

/// The compute-platform model backing a virtual-time run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlatformSpec {
    /// SNL-CA CPlant Linux/Alpha cluster.
    Cplant,
    /// Sixteen-way SGI Onyx2 SMP at ANL.
    Onyx2Smp,
    /// Eight-way Sun E4500 ("diesel").
    E4500,
    /// Cray T3E at NERSC.
    T3e,
    /// Eight-node Alpha Linux "Babel" booth cluster.
    BabelCluster,
}

impl PlatformSpec {
    /// Build the corresponding calibrated platform model.
    pub fn to_platform(self) -> ComputePlatform {
        match self {
            PlatformSpec::Cplant => ComputePlatform::cplant(),
            PlatformSpec::Onyx2Smp => ComputePlatform::onyx2_smp(),
            PlatformSpec::E4500 => ComputePlatform::e4500(),
            PlatformSpec::T3e => ComputePlatform::t3e(),
            PlatformSpec::BabelCluster => ComputePlatform::babel_cluster(),
        }
    }

    /// The platform each testbed reconstruction used in the paper.
    pub fn default_for(kind: TestbedKind) -> PlatformSpec {
        match kind {
            TestbedKind::NtonCplant | TestbedKind::FutureOc192 => PlatformSpec::Cplant,
            TestbedKind::EsnetAnlSmp => PlatformSpec::Onyx2Smp,
            TestbedKind::LanSmp => PlatformSpec::E4500,
            TestbedKind::Sc99Cplant => PlatformSpec::Cplant,
            TestbedKind::Sc99Booth => PlatformSpec::BabelCluster,
        }
    }
}

/// Build the named testbed reconstruction for a PE count.
pub fn build_testbed(kind: TestbedKind, pes: usize) -> Testbed {
    match kind {
        TestbedKind::NtonCplant => Testbed::nton_cplant(pes),
        TestbedKind::EsnetAnlSmp => Testbed::esnet_anl_smp(pes),
        TestbedKind::LanSmp => Testbed::lan_smp(pes),
        TestbedKind::Sc99Cplant => Testbed::sc99_cplant(pes),
        TestbedKind::Sc99Booth => Testbed::sc99_booth(pes),
        TestbedKind::FutureOc192 => Testbed::future_oc192(pes),
    }
}

/// `[scenario]` — identity, seed, and execution path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMeta {
    /// Scenario name (used in reports and logs).
    pub name: String,
    /// Optional human description.
    pub description: Option<String>,
    /// Master seed: feeds the synthetic dataset and per-stage jitter.
    pub seed: u64,
    /// Which execution path `run_scenario` compiles to.
    pub path: ExecutionPath,
}

/// `[testbed]` — the reconstructed network (and platform) to run against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestbedSpec {
    /// Which of the paper's network configurations to reconstruct.
    pub kind: TestbedKind,
    /// Compute-platform override (defaults to the paper's pairing).
    pub platform: Option<PlatformSpec>,
}

/// `[pipeline]` — PEs, timestep budget, default mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineSpec {
    /// Number of back-end processing elements (= Z slabs).
    pub pes: usize,
    /// Total timestep budget, split across stages by share.
    pub timesteps: usize,
    /// Default execution mode (stages may override).
    pub execution: ExecutionMode,
    /// Striped DPSS client streams per PE (defaults to 4).
    pub streams_per_pe: Option<u32>,
}

/// `[dataset]` — synthetic combustion dataset scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Grid dimensions (x, y, z).  Defaults to the laptop-scale 32³.
    pub dims: Option<(usize, usize, usize)>,
    /// Dataset name (defaults to a name derived from the dims).
    pub name: Option<String>,
}

/// `[render]` — per-PE texture rendering settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RenderSpec {
    /// Texture size (width, height).  Defaults to 64×64.
    pub image: Option<(usize, usize)>,
}

/// `[real]` — tuning that only applies on the real execution path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealPathSpec {
    /// Read slabs through an in-process DPSS (true, the default) or generate
    /// them directly in the back end (false).
    pub use_dpss: Option<bool>,
    /// Explicit per-server-stream shaping in Mbps.
    pub stream_rate_mbps: Option<f64>,
    /// Derive stream shaping from the testbed's bottleneck bandwidth, so the
    /// real pipeline *feels* like the reconstructed WAN (ignored when
    /// `stream_rate_mbps` is set).
    pub emulate_wan: Option<bool>,
    /// Viewer window size (defaults to 192×192).
    pub viewer_image: Option<(usize, usize)>,
}

/// `[cache]` — the sharded DPSS block cache between the client and the
/// cluster.  Present means enabled; both execution paths then report the
/// same cache telemetry (the real path from the live cache, the virtual-time
/// path by replaying the identical block access sequence against the same
/// eviction logic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSpec {
    /// Capacity in 64 KB logical blocks (defaults to 4096 ≈ 256 MB).
    pub capacity_blocks: Option<usize>,
    /// Number of independently locked shards (defaults to 8).
    pub shards: Option<usize>,
}

/// `[transport]` — the striped back-end → viewer transport shared by both
/// execution paths: the real pipeline runs its frames over striped, chunked,
/// sequence-numbered links shaped by the modeled TCP session, and the
/// virtual-time path replays the identical chunking and models the same TCP
/// session in its send phase.  Omitted, the link still runs (4 unshaped
/// wan-tuned stripes) — the table is how a scenario makes the WAN *felt*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransportSpec {
    /// Stripes per PE link (defaults to 4; stages may override).
    pub stripes: Option<u32>,
    /// Chunk size in KB (defaults to 8).
    pub chunk_kb: Option<usize>,
    /// Bounded per-stripe queue depth in chunks (defaults to 32).
    pub queue_depth: Option<usize>,
    /// TCP stack the stripes model (defaults to wan-tuned).
    pub tcp: Option<TcpTuning>,
    /// Pace the real link to the striped TCP session's modeled goodput over
    /// the testbed's viewer route (defaults to false).
    pub emulate_wan: Option<bool>,
}

/// `[service]` — the multi-session service layer: a session broker between
/// the striped transport and N concurrent viewer sessions.  Present means
/// enabled on both execution paths: the real pipeline runs the shared-render
/// fan-out plane for real (zero-copy multicast, per-session bounded queues,
/// per-session WAN pacing), the virtual-time path replays the identical
/// broker state machine — so the deterministic session/render telemetry is
/// the same on either path and covered by replay fingerprints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceTableSpec {
    /// Hard cap on concurrently admitted sessions (defaults to 64).
    pub max_sessions: Option<usize>,
    /// Shared egress capacity in tier cost units (defaults to 256; an
    /// interactive session costs 4, standard 2, preview 1).
    pub link_capacity_units: Option<u64>,
    /// Concurrent distinct viewpoints the backend renders (defaults to 8).
    pub render_slots: Option<u32>,
    /// Bounded per-session fan-out queue depth in chunks (defaults to 64).
    pub queue_depth: Option<usize>,
    /// Worker-pool threads of the real-path fan-out plane (defaults to the
    /// machine's parallelism, clamped to 2..=8).  Scheduling only:
    /// deterministic telemetry and replay fingerprints do not depend on it.
    pub workers: Option<usize>,
    /// Staged session-arrival mixes, each bound to a stage by name.
    pub arrivals: Option<Vec<SessionArrivalSpec>>,
}

/// `[[service.arrivals]]` — one wave of sessions arriving during one stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionArrivalSpec {
    /// Name of the stage this wave arrives in (must match a `[[stages]]`
    /// entry; every session leaves when its stage ends).
    pub stage: String,
    /// Number of sessions in the wave.
    pub sessions: u32,
    /// Distinct viewpoints the wave spreads over round-robin (defaults to 1
    /// — everyone shares one render).
    pub viewpoints: Option<u32>,
    /// Quality tier of every session in the wave (defaults to standard).
    pub tier: Option<QualityTier>,
    /// TCP stack of each session's last mile (defaults to the transport
    /// table's tuning).
    pub tuning: Option<TcpTuning>,
    /// Stripes of each session's fan-out queue (defaults to the transport
    /// table's stripe count).
    pub stripes: Option<u32>,
    /// Stagger the joins across the first X% of the stage (defaults to 0:
    /// everyone joins at the stage's first frame).
    pub join_spread_percent: Option<f64>,
    /// Leave after this many frames (defaults to staying until stage end).
    pub dwell_frames: Option<u32>,
}

/// `[telemetry]` — the always-on metrics plane.  Omitted, telemetry runs
/// enabled with full lifeline emission (`sample_every = 1`), which leaves
/// every event log — and therefore every replay fingerprint — byte-identical
/// to a telemetry-off run: metrics are wall-clock-dependent and deliberately
/// excluded from fingerprints, like the timing counters in `ServiceStats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySpec {
    /// Record histograms/counters/gauges at all (defaults to true; false
    /// hands no-op handles to every instrumented site — zero atomics on the
    /// hot paths).
    pub enable: Option<bool>,
    /// Deterministic 1-in-N session lifeline sampling (defaults to 1 —
    /// every session emits lifecycle events).  Seeded by session id, so both
    /// execution paths sample the identical subset; values above 1 thin the
    /// event log (and shift fingerprints identically on both paths).
    pub sample_every: Option<u32>,
    /// Take a JSONL metrics snapshot every N frames (defaults to 0 — only
    /// the end-of-stage snapshot).
    pub snapshot_frames: Option<u32>,
}

/// `[sim]` — tuning that only applies on the virtual-time path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimPathSpec {
    /// Application-level efficiency on the achieved load rate (1.0 after the
    /// §4.2 streamlining, ≈0.56 for the SC99-era staging).
    pub app_efficiency: Option<f64>,
    /// WAN protocol efficiency (defaults to the calibrated 0.75).
    pub wan_efficiency: Option<f64>,
}

/// `[[stages]]` — one entry in the staged workload mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSpec {
    /// Stage name (used in reports).
    pub name: String,
    /// Percentage share of the pipeline's timestep budget.  Shares must sum
    /// to 100; the last stage absorbs rounding drift.
    pub share: f64,
    /// Execution-mode override for this stage.
    pub execution: Option<ExecutionMode>,
    /// Transport stripe-count override for this stage (how
    /// `wan_stripes.toml` sweeps 1/4/8 inside one scenario).
    pub stripes: Option<u32>,
}

/// A complete declarative scenario, the unit both execution paths consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Identity, seed, path.
    pub scenario: ScenarioMeta,
    /// Network/platform reconstruction.
    pub testbed: TestbedSpec,
    /// Pipeline shape.
    pub pipeline: PipelineSpec,
    /// Dataset scale (optional; laptop-scale default).
    pub dataset: Option<DatasetSpec>,
    /// Render settings (optional).
    pub render: Option<RenderSpec>,
    /// Real-path tuning (optional).
    pub real: Option<RealPathSpec>,
    /// Virtual-time tuning (optional).
    pub sim: Option<SimPathSpec>,
    /// Striped viewer-link transport (optional; defaults to 4 unshaped
    /// wan-tuned stripes).
    pub transport: Option<TransportSpec>,
    /// Block cache between the DPSS client and the cluster (optional;
    /// omitted means no cache, matching the seed's behaviour).
    pub cache: Option<CacheSpec>,
    /// Multi-session service layer (optional; omitted means the classic
    /// single-viewer pipeline).
    pub service: Option<ServiceTableSpec>,
    /// Staged workload mix (optional; one full-budget stage by default).
    pub stages: Option<Vec<StageSpec>>,
    /// Metrics plane (optional; omitted means enabled with full lifeline
    /// emission — the always-on default).
    pub telemetry: Option<TelemetrySpec>,
}

/// The bundled scenario specs shipped in `scenarios/` at the repo root,
/// compiled into the crate so binaries need no working directory.
const BUNDLED: [(&str, &str); 6] = [
    (
        "quickstart_lan",
        include_str!("../../../../../scenarios/quickstart_lan.toml"),
    ),
    (
        "combustion_corridor_oc12",
        include_str!("../../../../../scenarios/combustion_corridor_oc12.toml"),
    ),
    (
        "sc99_exhibit",
        include_str!("../../../../../scenarios/sc99_exhibit.toml"),
    ),
    (
        "cache_stress",
        include_str!("../../../../../scenarios/cache_stress.toml"),
    ),
    ("wan_stripes", include_str!("../../../../../scenarios/wan_stripes.toml")),
    (
        "exhibit_floor",
        include_str!("../../../../../scenarios/exhibit_floor.toml"),
    ),
];

impl ScenarioSpec {
    /// Parse a spec from TOML text.
    pub fn from_toml_str(text: &str) -> Result<ScenarioSpec, VisapultError> {
        toml::from_str(text).map_err(|e| VisapultError::Config(format!("scenario spec: {e}")))
    }

    /// Render the spec back to TOML.
    pub fn to_toml_string(&self) -> Result<String, VisapultError> {
        toml::to_string(self).map_err(|e| VisapultError::Config(format!("scenario spec: {e}")))
    }

    /// Load a spec from a `.toml` file on disk.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<ScenarioSpec, VisapultError> {
        let text = std::fs::read_to_string(path.as_ref())?;
        Self::from_toml_str(&text)
    }

    /// Names of the bundled scenarios (the files under `scenarios/`).
    pub fn bundled_names() -> Vec<&'static str> {
        BUNDLED.iter().map(|(n, _)| *n).collect()
    }

    /// Load a bundled scenario by name.
    pub fn bundled(name: &str) -> Result<ScenarioSpec, VisapultError> {
        BUNDLED
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| {
                VisapultError::Config(format!(
                    "unknown bundled scenario `{name}`; available: {:?}",
                    Self::bundled_names()
                ))
            })
            .and_then(|(_, text)| Self::from_toml_str(text))
    }

    /// Builder: switch the execution path.
    pub fn with_path(mut self, path: ExecutionPath) -> Self {
        self.scenario.path = path;
        self
    }

    /// Builder: switch the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// A paper-scale virtual-time scenario for one of the reconstructed
    /// testbeds: 640×256×256 floats, 512×512 textures, the platform pairing
    /// the paper used.  This is what the figure binaries route through
    /// [`super::run_scenario`].
    pub fn paper_virtual(kind: TestbedKind, pes: usize, timesteps: usize, stages: Vec<StageSpec>) -> ScenarioSpec {
        ScenarioSpec {
            scenario: ScenarioMeta {
                name: format!("paper-{:?}-{pes}pe", kind).to_lowercase(),
                description: None,
                seed: 2000,
                path: ExecutionPath::VirtualTime,
            },
            testbed: TestbedSpec { kind, platform: None },
            pipeline: PipelineSpec {
                pes,
                timesteps,
                execution: ExecutionMode::Serial,
                streams_per_pe: None,
            },
            dataset: Some(DatasetSpec {
                dims: Some((640, 256, 256)),
                name: Some("combustion-640x256x256".to_string()),
            }),
            render: Some(RenderSpec {
                image: Some((512, 512)),
            }),
            real: None,
            sim: Some(SimPathSpec {
                app_efficiency: Some(if kind == TestbedKind::Sc99Cplant { 0.56 } else { 1.0 }),
                wan_efficiency: None,
            }),
            transport: None,
            cache: None,
            service: None,
            stages: if stages.is_empty() { None } else { Some(stages) },
            telemetry: None,
        }
    }
}
