//! The compiler half: validate a [`ScenarioSpec`], resolve every default,
//! and hand the result to the [`crate::pipeline`] driver.
//!
//! [`ScenarioSpec::resolve`] produces a [`ResolvedScenario`] — the fully
//! defaulted, validated form both execution paths consume — and
//! [`run_scenario`] compiles it into a [`crate::pipeline::Pipeline`] whose
//! capability set (clock, fabric, render farm, service plane) is chosen by
//! the spec's [`ExecutionPath`].

use super::report::CampaignReport;
use super::spec::TelemetrySpec;
use super::spec::{
    build_testbed, ExecutionPath, PlatformSpec, RealPathSpec, ScenarioSpec, SimPathSpec, StageSpec, TransportSpec,
};
use crate::campaign::real::{RealDataPath, RealDpssEnv, ServicePlan};
use crate::campaign::sim::{SimCampaignConfig, SimTransportModel, DEFAULT_WAN_EFFICIENCY};
use crate::config::{ExecutionMode, PipelineConfig};
use crate::error::VisapultError;
use crate::pipeline::Pipeline;
use crate::service::{ServiceConfig, SessionSpec};
use crate::transport::{TcpTuning, TransportConfig};
use dpss::{CacheConfig, DatasetDescriptor, DpssSimModel};
use netsim::{TcpModel, TestbedKind};
use volren::{RenderSettings, TransferFunction};

impl ScenarioSpec {
    /// The virtual-time model of one paper-scale run in `mode`: a one-stage
    /// [`ScenarioSpec::paper_virtual`], resolved, as the stage model whose
    /// per-frame schedule the figure binaries print.
    pub fn paper_sim_config(
        kind: TestbedKind,
        pes: usize,
        timesteps: usize,
        mode: ExecutionMode,
    ) -> Result<SimCampaignConfig, VisapultError> {
        let stage = StageSpec {
            name: mode.label().to_string(),
            share: 100.0,
            execution: Some(mode),
            stripes: None,
        };
        let resolved = Self::paper_virtual(kind, pes, timesteps, vec![stage]).resolve()?;
        Ok(resolved.stage_sim_config(&resolved.stages[0], 0))
    }

    /// Validate the spec and resolve every default.
    pub fn resolve(&self) -> Result<ResolvedScenario, VisapultError> {
        let bad = |msg: String| VisapultError::Config(format!("scenario `{}`: {msg}", self.scenario.name));
        if self.scenario.name.trim().is_empty() {
            return Err(VisapultError::Config("scenario name must not be empty".to_string()));
        }
        if self.pipeline.pes == 0 {
            return Err(bad("pipeline needs at least one PE".to_string()));
        }
        if self.pipeline.timesteps == 0 {
            return Err(bad("pipeline needs at least one timestep".to_string()));
        }

        let dims = self.dataset.as_ref().and_then(|d| d.dims).unwrap_or((32, 32, 32));
        let dataset_name = self
            .dataset
            .as_ref()
            .and_then(|d| d.name.clone())
            .unwrap_or_else(|| format!("combustion-{}x{}x{}", dims.0, dims.1, dims.2));
        if self.pipeline.pes > dims.2 {
            return Err(bad(format!(
                "cannot cut {} Z planes into {} slabs",
                dims.2, self.pipeline.pes
            )));
        }

        let image = self.render.as_ref().and_then(|r| r.image).unwrap_or((64, 64));
        if image.0 == 0 || image.1 == 0 {
            return Err(bad("render image must be non-empty".to_string()));
        }

        // Resolve the staged mix: explicit stages must cover exactly 100%.
        let stage_specs: Vec<StageSpec> = match &self.stages {
            None => vec![StageSpec {
                name: "full".to_string(),
                share: 100.0,
                execution: None,
                stripes: None,
            }],
            Some(s) if s.is_empty() => return Err(bad("stages table must not be empty when present".to_string())),
            Some(s) => s.clone(),
        };
        for stage in &stage_specs {
            if stage.share <= 0.0 || stage.share.is_nan() {
                return Err(bad(format!(
                    "stage `{}` has non-positive share {}",
                    stage.name, stage.share
                )));
            }
            if stage.stripes == Some(0) {
                return Err(bad(format!("stage `{}` asks for zero stripes", stage.name)));
            }
        }
        let total_share: f64 = stage_specs.iter().map(|s| s.share).sum();
        if (total_share - 100.0).abs() > 1e-6 {
            return Err(bad(format!("stage shares must sum to 100, got {total_share}")));
        }

        // Split the timestep budget; the last stage absorbs rounding drift.
        let total = self.pipeline.timesteps;
        let mut stages = Vec::with_capacity(stage_specs.len());
        let mut cumulative = 0.0;
        let mut allocated = 0usize;
        for (i, stage) in stage_specs.iter().enumerate() {
            cumulative += stage.share;
            let end = if i + 1 == stage_specs.len() {
                total
            } else {
                ((total as f64) * cumulative / 100.0).round() as usize
            };
            let steps = end.saturating_sub(allocated);
            if steps == 0 {
                return Err(bad(format!(
                    "stage `{}` resolves to zero timesteps ({}% of {total})",
                    stage.name, stage.share
                )));
            }
            allocated = end;
            stages.push(ResolvedStage {
                name: stage.name.clone(),
                timesteps: steps,
                mode: stage.execution.unwrap_or(self.pipeline.execution),
                stripes: stage.stripes,
            });
        }
        debug_assert_eq!(allocated, total);

        // The efficiency knobs divide/scale modelled rates; zero or negative
        // values would turn the report into inf/NaN garbage rather than fail.
        if let Some(sim) = &self.sim {
            for (name, value) in [
                ("app_efficiency", sim.app_efficiency),
                ("wan_efficiency", sim.wan_efficiency),
            ] {
                if let Some(v) = value {
                    if !(v > 0.0 && v <= 1.0) {
                        return Err(bad(format!("{name} must be in (0, 1], got {v}")));
                    }
                }
            }
        }
        if let Some(real) = &self.real {
            if let Some(rate) = real.stream_rate_mbps {
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err(bad(format!("stream_rate_mbps must be positive and finite, got {rate}")));
                }
            }
        }

        // The striped transport: always on (the real pipeline has no other
        // link), with the `[transport]` table customizing it.
        let tspec = self.transport.clone().unwrap_or(TransportSpec {
            stripes: None,
            chunk_kb: None,
            queue_depth: None,
            tcp: None,
            emulate_wan: None,
        });
        let base_stripes = tspec.stripes.unwrap_or(4);
        let chunk_kb = tspec.chunk_kb.unwrap_or(8);
        let queue_depth = tspec.queue_depth.unwrap_or(32);
        if base_stripes == 0 || base_stripes > 64 {
            return Err(bad(format!("transport stripes must be in 1..=64, got {base_stripes}")));
        }
        if chunk_kb == 0 {
            return Err(bad("transport chunk_kb must be positive".to_string()));
        }
        if queue_depth == 0 {
            return Err(bad("transport queue_depth must be positive".to_string()));
        }
        let transport = TransportConfig {
            stripes: base_stripes,
            chunk_bytes: chunk_kb * 1024,
            queue_depth,
            tuning: tspec.tcp.unwrap_or(TcpTuning::WanTuned),
            pace_rate_mbps: None,
        };

        let cache = match &self.cache {
            None => None,
            Some(spec) => {
                if self.real.as_ref().and_then(|r| r.use_dpss) == Some(false) {
                    return Err(bad(
                        "a [cache] table requires the DPSS data path (real.use_dpss = true)".to_string(),
                    ));
                }
                let capacity = spec.capacity_blocks.unwrap_or(4096);
                let shards = spec.shards.unwrap_or(8);
                if capacity == 0 {
                    return Err(bad("cache capacity_blocks must be positive".to_string()));
                }
                if shards == 0 {
                    return Err(bad("cache shards must be positive".to_string()));
                }
                Some(CacheConfig::new(capacity, shards))
            }
        };

        // The service layer: broker capacity plus per-stage session
        // schedules, with every session's last-mile pacing derived from the
        // testbed's viewer route under that session's own TCP stack.
        let service = match &self.service {
            None => None,
            Some(svc) => {
                let max_sessions = svc.max_sessions.unwrap_or(64);
                let link_capacity_units = svc.link_capacity_units.unwrap_or(256);
                let render_slots = svc.render_slots.unwrap_or(8);
                let queue_depth = svc.queue_depth.unwrap_or(64);
                if max_sessions == 0 || link_capacity_units == 0 || render_slots == 0 || queue_depth == 0 {
                    return Err(bad("service capacities must all be positive".to_string()));
                }
                if svc.workers == Some(0) {
                    return Err(bad("service workers must be positive".to_string()));
                }
                let farm_egress = session_tcp_model(
                    self.testbed.kind,
                    self.pipeline.pes,
                    transport.tuning,
                    transport.stripes,
                )
                .steady_throughput()
                .mbps();
                let config = ServiceConfig {
                    max_sessions,
                    link_capacity_units,
                    render_slots,
                    queue_depth,
                    farm_egress_mbps: Some(farm_egress),
                };
                let mut by_stage: Vec<Vec<SessionSpec>> = vec![Vec::new(); stages.len()];
                for (ai, arrival) in svc.arrivals.as_deref().unwrap_or_default().iter().enumerate() {
                    let Some(stage_index) = stages.iter().position(|s| s.name == arrival.stage) else {
                        return Err(bad(format!(
                            "service arrival {ai} names unknown stage `{}`",
                            arrival.stage
                        )));
                    };
                    if arrival.sessions == 0 {
                        return Err(bad(format!("service arrival `{}` has zero sessions", arrival.stage)));
                    }
                    let viewpoints = arrival.viewpoints.unwrap_or(1);
                    if viewpoints == 0 {
                        return Err(bad(format!("service arrival `{}` has zero viewpoints", arrival.stage)));
                    }
                    let tier = arrival.tier.unwrap_or_default();
                    let tuning = arrival.tuning.unwrap_or(transport.tuning);
                    let session_stripes = arrival.stripes.unwrap_or(base_stripes);
                    if session_stripes == 0 || session_stripes > 64 {
                        return Err(bad(format!(
                            "service arrival `{}` stripes must be in 1..=64",
                            arrival.stage
                        )));
                    }
                    let spread = arrival.join_spread_percent.unwrap_or(0.0);
                    if !(0.0..=100.0).contains(&spread) {
                        return Err(bad(format!(
                            "service arrival `{}` join_spread_percent must be in 0..=100",
                            arrival.stage
                        )));
                    }
                    if arrival.dwell_frames == Some(0) {
                        return Err(bad(format!(
                            "service arrival `{}` dwell_frames must be positive",
                            arrival.stage
                        )));
                    }
                    let timesteps = stages[stage_index].timesteps as u32;
                    let pace = session_tcp_model(self.testbed.kind, self.pipeline.pes, tuning, session_stripes)
                        .steady_throughput()
                        .mbps();
                    for i in 0..arrival.sessions {
                        let join = (((timesteps as f64) * (spread / 100.0) * (i as f64)
                            / (arrival.sessions.max(1) as f64))
                            .floor() as u32)
                            .min(timesteps.saturating_sub(1));
                        let leave = arrival.dwell_frames.and_then(|d| {
                            let l = join.saturating_add(d);
                            (l < timesteps).then_some(l)
                        });
                        by_stage[stage_index].push(SessionSpec {
                            name: format!("{}-a{ai}-s{i}", arrival.stage),
                            viewpoint: i % viewpoints,
                            tier,
                            join_frame: join,
                            leave_frame: leave,
                            stripes: session_stripes,
                            queue_depth: None,
                            tuning,
                            pace_rate_mbps: Some(pace),
                        });
                    }
                }
                Some(ResolvedService {
                    config,
                    by_stage,
                    workers: svc.workers,
                })
            }
        };

        let platform = self
            .testbed
            .platform
            .unwrap_or_else(|| PlatformSpec::default_for(self.testbed.kind));

        let tel = self.telemetry.clone().unwrap_or(TelemetrySpec {
            enable: None,
            sample_every: None,
            snapshot_frames: None,
        });
        if tel.sample_every == Some(0) {
            return Err(bad("telemetry sample_every must be positive".to_string()));
        }
        let telemetry = ResolvedTelemetry {
            enable: tel.enable.unwrap_or(true),
            sample_every: tel.sample_every.unwrap_or(1),
            snapshot_frames: tel.snapshot_frames.unwrap_or(0),
        };

        Ok(ResolvedScenario {
            name: self.scenario.name.clone(),
            seed: self.scenario.seed,
            path: self.scenario.path,
            testbed_kind: self.testbed.kind,
            platform,
            pes: self.pipeline.pes,
            streams_per_pe: self.pipeline.streams_per_pe.unwrap_or(4),
            dims,
            dataset_name,
            image,
            stages,
            real: self.real.clone().unwrap_or(RealPathSpec {
                use_dpss: None,
                stream_rate_mbps: None,
                emulate_wan: None,
                viewer_image: None,
            }),
            sim: self.sim.clone().unwrap_or(SimPathSpec {
                app_efficiency: None,
                wan_efficiency: None,
            }),
            transport,
            transport_explicit: self.transport.is_some(),
            transport_emulate_wan: tspec.emulate_wan.unwrap_or(false),
            cache,
            service,
            telemetry,
        })
    }
}

/// The resolved `[telemetry]` table: the metrics plane's effective knobs.
/// `sample_every` shapes which lifecycle events reach the log (identically on
/// both paths), so it is part of the deterministic configuration; `enable`
/// only gates wall-clock-dependent metrics and never affects fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedTelemetry {
    /// Whether the metrics plane records at all.
    pub enable: bool,
    /// Deterministic 1-in-N session lifeline sampling (1 = everything).
    pub sample_every: u32,
    /// JSONL snapshot cadence in frames (0 = end-of-stage only).
    pub snapshot_frames: u32,
}

impl Default for ResolvedTelemetry {
    fn default() -> Self {
        ResolvedTelemetry {
            enable: true,
            sample_every: 1,
            snapshot_frames: 0,
        }
    }
}

/// The striped TCP session model over the testbed's back-end → viewer route
/// under an arbitrary tuning — what paces one service session's last mile.
fn session_tcp_model(kind: TestbedKind, pes: usize, tuning: TcpTuning, stripes: u32) -> TcpModel {
    let testbed = build_testbed(kind, pes);
    let route = testbed.viewer_route(0);
    let links: Vec<_> = testbed.topology.route_links(&route).collect();
    TcpModel::from_path(links, tuning.tcp_config(), stripes)
}

/// One stage after share resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedStage {
    /// Stage name.
    pub name: String,
    /// Timesteps this stage runs.
    pub timesteps: usize,
    /// Execution mode for this stage.
    pub mode: ExecutionMode,
    /// Transport stripe override for this stage.
    pub stripes: Option<u32>,
}

/// The resolved service layer: broker capacity plus one session schedule per
/// stage (sessions never span stages; a stage end is a campaign end for its
/// sessions).
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedService {
    /// Capacity the broker admits against (farm egress filled in from the
    /// testbed model).
    pub config: ServiceConfig,
    /// Session schedules, indexed like `ResolvedScenario::stages`.
    pub by_stage: Vec<Vec<SessionSpec>>,
    /// Fan-out plane worker-pool size (`None` = sized to the machine).  Not
    /// part of the deterministic telemetry, so not fingerprinted.
    pub workers: Option<usize>,
}

/// A validated scenario with every default filled in.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedScenario {
    /// Scenario name.
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Execution path.
    pub path: ExecutionPath,
    /// Testbed reconstruction.
    pub testbed_kind: TestbedKind,
    /// Platform model for virtual time.
    pub platform: PlatformSpec,
    /// Back-end PEs.
    pub pes: usize,
    /// DPSS client streams per PE.
    pub streams_per_pe: u32,
    /// Dataset dims.
    pub dims: (usize, usize, usize),
    /// Dataset name.
    pub dataset_name: String,
    /// Render texture size.
    pub image: (usize, usize),
    /// Resolved stages.
    pub stages: Vec<ResolvedStage>,
    /// Real-path tuning.
    pub real: RealPathSpec,
    /// Virtual-time tuning.
    pub sim: SimPathSpec,
    /// Base striped-transport configuration (stages may override stripes).
    pub transport: TransportConfig,
    /// Whether the spec carried an explicit `[transport]` table (which also
    /// switches the virtual-time send phase onto the striped TCP model).
    pub transport_explicit: bool,
    /// Whether the real link is paced to the modeled WAN.
    pub transport_emulate_wan: bool,
    /// Block-cache configuration (None = no cache).
    pub cache: Option<CacheConfig>,
    /// Multi-session service layer (None = classic single-viewer wiring).
    pub service: Option<ResolvedService>,
    /// Metrics-plane knobs (enabled with full lifeline emission by default).
    pub telemetry: ResolvedTelemetry,
}

impl ResolvedScenario {
    /// The shared pipeline configuration for one stage — the single builder
    /// both execution paths consume (this is the de-duplication the seed's
    /// twin config structs lacked).
    pub fn stage_pipeline(&self, stage: &ResolvedStage) -> PipelineConfig {
        PipelineConfig {
            dataset: DatasetDescriptor::new(self.dataset_name.clone(), self.dims, 4, stage.timesteps),
            pes: self.pes,
            timesteps: stage.timesteps,
            mode: stage.mode,
            render: RenderSettings::with_size(self.image.0, self.image.1),
            transfer: TransferFunction::combustion_default(),
            streams_per_pe: self.streams_per_pe,
            value_range: (0.0, 1.5),
        }
    }

    /// Per-stage seed: deterministic, distinct per stage.
    pub fn stage_seed(&self, stage_index: usize) -> u64 {
        self.seed.wrapping_add(stage_index as u64)
    }

    /// The real-path data configuration for this scenario.
    pub fn real_data_path(&self) -> RealDataPath {
        if !self.real.use_dpss.unwrap_or(true) {
            return RealDataPath::Synthetic;
        }
        let rate = self.real.stream_rate_mbps.or_else(|| {
            if self.real.emulate_wan.unwrap_or(false) {
                // Spread the testbed's bottleneck across every concurrent
                // server stream the back end opens (a deliberate roughness:
                // enough to make a WAN-limited scenario *feel* load-bound).
                let bottleneck = build_testbed(self.testbed_kind, self.pes).data_bottleneck().mbps();
                Some(bottleneck / (self.pes as f64 * self.streams_per_pe as f64))
            } else {
                None
            }
        });
        RealDataPath::Dpss { stream_rate_mbps: rate }
    }

    /// The virtual-time configuration for one stage.  An explicit
    /// `[transport]` table switches the send phase onto the striped TCP
    /// model, mirroring the pacing the real link runs under.
    pub fn stage_sim_config(&self, stage: &ResolvedStage, stage_index: usize) -> SimCampaignConfig {
        SimCampaignConfig {
            name: format!("{} / {}", self.name, stage.name),
            testbed: build_testbed(self.testbed_kind, self.pes),
            platform: self.platform.to_platform(),
            pipeline: self.stage_pipeline(stage),
            dpss: DpssSimModel::four_server_2000(),
            transport: self.transport_explicit.then(|| SimTransportModel {
                stripes: stage.stripes.unwrap_or(self.transport.stripes),
                tuning: self.transport.tuning,
            }),
            app_efficiency: self.sim.app_efficiency.unwrap_or(1.0),
            wan_efficiency: self.sim.wan_efficiency.unwrap_or(DEFAULT_WAN_EFFICIENCY),
            jitter_seed: self.stage_seed(stage_index),
        }
    }

    /// The striped-transport configuration for one stage: the scenario's base
    /// config with the stage's stripe override applied and — when the spec
    /// asks to emulate the WAN — pacing derived from the modeled striped TCP
    /// session over the testbed's viewer route, split across the PEs that
    /// share it.
    pub fn stage_transport_config(&self, stage: &ResolvedStage) -> TransportConfig {
        let mut config = self.transport.clone();
        config.stripes = stage.stripes.unwrap_or(config.stripes);
        if self.transport_emulate_wan {
            let model = self.viewer_tcp_model(config.stripes);
            config.pace_rate_mbps = Some(model.steady_throughput().mbps() / self.pes as f64);
        }
        config
    }

    /// The striped TCP session model over the testbed's back-end → viewer
    /// route, with this scenario's tuning — what paces the real link and
    /// times the virtual send phase.
    pub fn viewer_tcp_model(&self, stripes: u32) -> TcpModel {
        session_tcp_model(self.testbed_kind, self.pes, self.transport.tuning, stripes)
    }

    /// The service plan for one stage: the broker capacity plus that stage's
    /// session schedule.  `None` when the scenario has no `[service]` table.
    pub fn stage_service_plan(&self, stage_index: usize) -> Option<ServicePlan> {
        self.service.as_ref().map(|svc| ServicePlan {
            config: svc.config.clone(),
            sessions: svc.by_stage.get(stage_index).cloned().unwrap_or_default(),
            workers: svc.workers,
        })
    }

    /// The dataset the persistent DPSS deployment stages: named and sized so
    /// that every stage's reads (frames `0..stage.timesteps`) land inside it.
    pub fn staged_dataset(&self) -> DatasetDescriptor {
        let max_steps = self.stages.iter().map(|s| s.timesteps).max().unwrap_or(1);
        DatasetDescriptor::new(self.dataset_name.clone(), self.dims, 4, max_steps)
    }

    /// Build the scenario's persistent DPSS environment (cluster + staged
    /// data + block cache), shared by every real-path stage.  `None` when the
    /// scenario reads synthetic data directly.
    pub fn build_real_env(&self) -> Result<Option<RealDpssEnv>, VisapultError> {
        match self.real_data_path() {
            RealDataPath::Synthetic => Ok(None),
            RealDataPath::Dpss { .. } => RealDpssEnv::stage(&self.staged_dataset(), self.seed, self.cache).map(Some),
        }
    }
}

/// Run a scenario to completion on whichever execution path it names.
///
/// This is the single entry point the examples, integration tests and bench
/// binaries drive; it compiles the spec into a [`Pipeline`] whose capability
/// set — [`crate::pipeline::Clock`], [`crate::pipeline::Fabric`],
/// [`crate::pipeline::RenderFarm`], [`crate::pipeline::ServicePlane`] — is
/// chosen by the spec's path, then runs the one shared stage control flow.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<CampaignReport, VisapultError> {
    Pipeline::from_spec(spec)?.run()
}
