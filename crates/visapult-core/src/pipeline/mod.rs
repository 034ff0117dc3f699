//! The unified pipeline driver: one control flow, pluggable capabilities.
//!
//! The paper's core claim is that a single Visapult architecture spans wildly
//! different deployments — LAN, tuned and untuned WANs, the SC99 exhibit
//! floor.  This module makes that claim structural for the reproduction too:
//! the stage control flow (load → render → stripe → fan-out → composite)
//! exists exactly once, in the crate-internal `drive_stage` driver,
//! written against four capability
//! traits:
//!
//! * [`Clock`] — where timestamps come from: the wall, or a virtual clock.
//! * [`Fabric`] — the striped back-end → viewer links: real bounded channels
//!   ([`StripedFabric`]), or the modeled TCP stripe sessions
//!   ([`ModeledFabric`]).
//! * [`RenderFarm`] — how slabs become frames: the thread-per-PE software
//!   renderer ([`ThreadFarm`]), or the calibrated platform compute model
//!   ([`ModelFarm`]).
//! * [`ServicePlane`] — the multi-session fan-out seam: the real
//!   shared-render broker plane ([`FanoutPlane`]), or its deterministic
//!   replay ([`ReplayPlane`]).
//!
//! [`crate::ExecutionPath`] is nothing more than a choice of trait impls
//! ([`PathCapabilities::for_path`]); [`crate::run_scenario`] compiles a
//! [`ScenarioSpec`] into a [`Pipeline`] and runs it.  Swapping one seam —
//! an async farm, a socket-backed fabric — now means
//! implementing one trait, not editing two hand-synchronized drivers.
//!
//! The non-negotiable invariant, enforced by `tests/golden_fingerprints.rs`:
//! both capability sets produce byte-identical
//! [`CampaignReport::replay_fingerprint`]s for the same spec, because every
//! deterministic counter and every telemetry event is emitted by shared code
//! on both paths.
//!
//! ```
//! use visapult_core::pipeline::Pipeline;
//! use visapult_core::{ExecutionPath, ScenarioSpec};
//!
//! let spec = ScenarioSpec::bundled("quickstart_lan").unwrap();
//! let report = Pipeline::builder(spec)
//!     .path(ExecutionPath::VirtualTime)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert_eq!(report.frames_received(), 4 * 3);
//! ```

mod clock;
mod fabric;
mod farm;
mod plane;

pub use clock::{Clock, VirtualClock, WallClock};
pub use fabric::{Fabric, FabricLinks, ModeledFabric, StripedFabric};
pub use farm::{ModelFarm, RenderFarm, ThreadFarm};
pub use plane::{AsyncPlane, FanoutPlane, PlaneKind, PlaneSession, ReplayPlane, ServicePlane};

use crate::campaign::real::{RealDataPath, RealDpssEnv, ServicePlan};
use crate::campaign::scenario::report::{fnv1a, CampaignReport, StageMetrics, StageReport, FNV_OFFSET};
use crate::campaign::scenario::{
    CacheReport, ExecutionPath, ResolvedScenario, ResolvedTelemetry, ScenarioSpec, ServiceReport, TelemetryReport,
    TransportReport,
};
use crate::campaign::sim::SimCampaignConfig;
use crate::config::PipelineConfig;
use crate::error::{panicked, VisapultError};
use crate::protocol::{LightPayload, HEAVY_HEADER_LEN};
use crate::service::{ServiceRunReport, ServiceStats};
use crate::transport::{TransportConfig, TransportStats};
use crate::viewer::ViewerReport;
use dpss::{BlockCache, CacheStats, DatasetDescriptor, StripeLayout};
use netlogger::metrics::MetricsHub;
use netlogger::{tags, Collector, Event, EventLog, FieldValue, NetLogger, ProfileAnalysis};

/// Everything one stage execution needs, whichever capability set drives it.
///
/// Built by [`Pipeline::run`] from a [`ResolvedScenario`] stage.
pub struct StageContext<'a> {
    /// The shared pipeline shape (dataset, PEs, timesteps, mode, render).
    pub pipeline: PipelineConfig,
    /// The striped-transport configuration for this stage (stage stripe
    /// overrides and WAN pacing already applied).
    pub transport: TransportConfig,
    /// Viewer window size (real farm only).
    pub viewer_image: (usize, usize),
    /// Stage seed (feeds the synthetic dataset on the real path).
    pub seed: u64,
    /// Where the real farm reads its data from.
    pub data_path: RealDataPath,
    /// The multi-session service plan (`None` = classic single-viewer
    /// wiring; both the fan-out plane and its replay key off this).
    pub service: Option<ServicePlan>,
    /// The persistent DPSS deployment the real farm reads through (`None` on
    /// the virtual path, or when the data path is synthetic).
    pub env: Option<&'a RealDpssEnv>,
    /// The calibrated stage model (`None` on the real path).
    pub sim: Option<SimCampaignConfig>,
    /// The telemetry-only cache replay (`None` on the real path, where the
    /// live cache in `env` produces the counters instead).
    pub cache_replay: Option<CacheReplay<'a>>,
    /// The metrics hub instrumented code records into (the no-op hub when
    /// telemetry is disabled — zero atomics on the hot paths either way).
    pub metrics: MetricsHub,
    /// The resolved `[telemetry]` knobs (lifeline sampling, snapshot
    /// cadence).
    pub telemetry: ResolvedTelemetry,
}

/// The virtual-time cache seam: a telemetry-only [`BlockCache`] fed the
/// identical block access sequence the real back end would issue — same
/// striping layout, same slab ranges, same LRU — so both paths report the
/// same counters without moving a byte.
pub struct CacheReplay<'a> {
    /// The persistent per-scenario cache (outlives stages, like the real
    /// deployment's).
    pub cache: &'a BlockCache,
    /// The staged dataset the access sequence indexes into (sized to the
    /// longest stage, like the real deployment's).
    pub dataset: DatasetDescriptor,
}

impl CacheReplay<'_> {
    /// Replay one stage's exact block access sequence — every PE's Z-slab
    /// range of every frame, split by the four-server striping layout —
    /// returning the per-stage counter delta.
    fn replay(&self, timesteps: usize, pes: usize) -> CacheStats {
        let before = self.cache.stats();
        let layout = StripeLayout::four_server();
        for frame in 0..timesteps {
            for pe in 0..pes {
                let (offset, len) = self.dataset.z_slab_range(frame, pe, pes);
                for (block, _, _) in layout.split_range(offset, len) {
                    self.cache.record(block);
                }
            }
        }
        self.cache.stats().since(&before)
    }
}

/// The phase means of one stage, however they were obtained: measured from
/// the wall-clock NetLogger analysis (real), or carried over from the
/// calibrated schedule (virtual).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMeans {
    /// Mean per-frame load time, seconds.
    pub load: f64,
    /// Mean per-frame render time, seconds.
    pub render: f64,
    /// Mean per-frame send time, seconds.
    pub send: f64,
    /// Mean aggregate load throughput, Mbps.
    pub load_throughput_mbps: f64,
    /// Steady-state playback cadence, seconds per timestep.
    pub seconds_per_timestep: f64,
}

/// What a [`RenderFarm`] produced for one stage: the deterministic counters
/// every report needs, plus the real path's own artifacts.
pub struct FarmRun {
    /// End-to-end stage time in seconds (wall clock, or modeled).
    pub total_time: f64,
    /// Frames rendered by the back end.
    pub frames_rendered: usize,
    /// Frame payloads received by the viewer (PEs × frames).
    pub frames_received: usize,
    /// Raw bytes loaded from the cache/model.
    pub bytes_loaded: u64,
    /// Bytes shipped across the back-end → viewer link.
    pub wire_bytes: u64,
    /// FNV-1a hash of the final composite (0 when no pixels were rendered).
    pub image_hash: u64,
    /// Modeled phase means (`None` = derive them from the stage log's
    /// wall-clock phase analysis).
    pub means: Option<PhaseMeans>,
    /// The real viewer's report (real farm only).
    pub viewer: Option<ViewerReport>,
}

/// Everything one stage execution produced: what [`Pipeline::run`]
/// folds into a [`StageReport`].
pub struct StageArtifacts {
    /// The render farm's outcome.
    pub run: FarmRun,
    /// Striped-transport telemetry (sender counters + receiver observations,
    /// or the deterministic replay).
    pub transport: TransportStats,
    /// Block-cache activity attributable to this stage.
    pub cache: CacheStats,
    /// What the service plane did (`None` when no plan was configured).
    pub service: Option<ServiceRunReport>,
    /// The stage's complete NetLogger log.
    pub log: EventLog,
    /// The stage's phase means: [`FarmRun::means`] when the farm modeled
    /// them, otherwise measured from the stage log's wall-clock analysis.
    pub means: PhaseMeans,
}

impl StageArtifacts {
    /// Fold this stage's artifacts into the unified per-stage metrics.
    pub fn stage_metrics(&self) -> StageMetrics {
        let means = &self.means;
        StageMetrics {
            total_time: self.run.total_time,
            mean_load_time: means.load,
            mean_render_time: means.render,
            mean_send_time: means.send,
            mean_load_throughput_mbps: means.load_throughput_mbps,
            seconds_per_timestep: means.seconds_per_timestep,
            frames_rendered: self.run.frames_rendered,
            frames_received: self.run.frames_received,
            bytes_loaded: self.run.bytes_loaded,
            wire_bytes: self.run.wire_bytes,
            image_hash: self.run.image_hash,
            cache: self.cache,
            transport: self.transport.clone(),
            service: self.service.as_ref().map(|s| s.stats.clone()).unwrap_or_default(),
        }
    }
}

/// One execution path's capability set: the four trait objects the shared
/// control flow is driven through.
pub struct PathCapabilities {
    /// Timestamp source.
    pub clock: Box<dyn Clock>,
    /// Striped back-end → viewer links.
    pub fabric: Box<dyn Fabric>,
    /// Load → render execution.
    pub farm: Box<dyn RenderFarm>,
    /// Multi-session fan-out seam.
    pub plane: Box<dyn ServicePlane>,
}

impl PathCapabilities {
    /// The real capability set: wall clock, striped channels, OS threads,
    /// the live fan-out plane.
    pub fn real() -> PathCapabilities {
        PathCapabilities {
            clock: Box::new(WallClock),
            fabric: Box::new(StripedFabric),
            farm: Box::new(ThreadFarm),
            plane: Box::new(FanoutPlane),
        }
    }

    /// The virtual-time capability set: virtual clock, modeled stripe
    /// sessions, the calibrated platform model, the broker replay.
    pub fn virtual_time() -> PathCapabilities {
        PathCapabilities {
            clock: Box::new(VirtualClock),
            fabric: Box::new(ModeledFabric),
            farm: Box::new(ModelFarm),
            plane: Box::new(ReplayPlane),
        }
    }

    /// The default capability set for an execution path.
    pub fn for_path(path: ExecutionPath) -> PathCapabilities {
        match path {
            ExecutionPath::Real => Self::real(),
            ExecutionPath::VirtualTime => Self::virtual_time(),
        }
    }
}

/// Drive one stage through the shared control flow: open the fabric, splice
/// the service plane, run the farm (load → render → stripe → composite),
/// then collect the service, transport and cache telemetry through the
/// shared emitters.  This is the *only* stage driver — both execution paths
/// run through it.
pub(crate) fn drive_stage(caps: &PathCapabilities, ctx: &StageContext<'_>) -> Result<StageArtifacts, VisapultError> {
    ctx.pipeline.validate().map_err(VisapultError::Config)?;
    let collector = caps.clock.collector();

    // Cache counters are reported as deltas against this marker (the real
    // deployment persists across stages).
    let cache_before = ctx.env.map(|e| e.cache_stats()).unwrap_or_default();

    let mut links = caps.fabric.open(ctx)?;
    let sender_stats = std::mem::take(&mut links.stats);
    let (links, plane) = caps.plane.splice(ctx, links)?;
    let run = caps.farm.run_stage(ctx, links, &collector)?;
    let service = plane.finish(ctx, &run, &collector)?;
    let transport = caps.fabric.collect(ctx, &run, &sender_stats, &collector);
    let cache = collect_cache(ctx, cache_before, &run, &collector);
    let log = collector.finish();
    let means = run.means.clone().unwrap_or_else(|| {
        let analysis = ProfileAnalysis::from_log(&log);
        let load = analysis.load_stats().mean;
        let frame_bytes = ctx.pipeline.dataset.bytes_per_timestep().bytes();
        PhaseMeans {
            load,
            render: analysis.render_stats().mean,
            send: analysis.send_stats().mean,
            load_throughput_mbps: if load > 0.0 {
                frame_bytes as f64 * 8.0 / load / 1e6
            } else {
                0.0
            },
            seconds_per_timestep: run.total_time / ctx.pipeline.timesteps as f64,
        }
    });
    Ok(StageArtifacts {
        run,
        transport,
        cache,
        service,
        log,
        means,
    })
}

/// The cache half of the telemetry collection: a counter delta from the live
/// cache (real), or the deterministic access-sequence replay (virtual).
/// Either way the per-stage summary event goes through the one shared
/// emitter.
fn collect_cache(ctx: &StageContext<'_>, before: CacheStats, run: &FarmRun, collector: &Collector) -> CacheStats {
    if let Some(env) = ctx.env {
        let on_dpss = matches!(ctx.data_path, RealDataPath::Dpss { .. });
        let delta = if on_dpss {
            env.cache_stats().since(&before)
        } else {
            CacheStats::default()
        };
        if on_dpss && env.cache().is_some() {
            log_cache_stats(&collector.logger("dpss-cache", "block-cache"), None, &delta);
        }
        return delta;
    }
    if let Some(replay) = &ctx.cache_replay {
        let delta = replay.replay(ctx.pipeline.timesteps, ctx.pipeline.pes);
        log_cache_stats(
            &collector.logger("dpss-cache", "block-cache"),
            Some(run.total_time),
            &delta,
        );
        return delta;
    }
    CacheStats::default()
}

/// Emit the per-stage `DPSS_CACHE_STATS` summary (`NL.cache.*` fields).
/// This is the only place the event schema lives: the real path logs at the
/// collector's clock (`at = None`), the virtual-time path replays the same
/// emitter at an explicit virtual timestamp.
fn log_cache_stats(logger: &NetLogger, at: Option<f64>, stats: &CacheStats) {
    let fields = vec![
        (tags::FIELD_CACHE_HITS.to_string(), FieldValue::Int(stats.hits as i64)),
        (
            tags::FIELD_CACHE_MISSES.to_string(),
            FieldValue::Int(stats.misses as i64),
        ),
        (
            tags::FIELD_CACHE_EVICTIONS.to_string(),
            FieldValue::Int(stats.evictions as i64),
        ),
    ];
    match at {
        Some(t) => logger.log_at(t, tags::DPSS_CACHE_STATS, fields),
        None => logger.log_with(tags::DPSS_CACHE_STATS, fields),
    }
}

/// The lifeline span pairs the telemetry plane reduces to per-stage latency
/// histograms: phase label, start tag, end tag.  Spans pair per
/// (host, program, frame), so every PE of every frame contributes one sample
/// — the distribution the paper's NLV plots show graphically, reduced to
/// p50/p90/p99.
const PHASE_SPANS: &[(&str, &str, &str)] = &[
    ("load", tags::BE_LOAD_START, tags::BE_LOAD_END),
    ("render", tags::BE_RENDER_START, tags::BE_RENDER_END),
    ("stripe", tags::BE_HEAVY_SEND, tags::BE_HEAVY_END),
    ("composite", tags::V_FRAME_START, tags::V_FRAME_END),
];

/// Reduce one stage's event log to latency histograms keyed
/// `"<stage>/<phase>"` (microsecond samples).  Works identically on both
/// paths: real logs carry wall-clock spans, virtual logs carry modeled ones.
fn fold_stage_latencies(log: &EventLog, hub: &MetricsHub, stage: &str) {
    if !hub.is_enabled() {
        return;
    }
    for (phase, start_tag, end_tag) in PHASE_SPANS {
        // min-start / max-end per (host, program, frame): robust to a key
        // appearing more than once (retried frames), and one linear pass.
        let mut spans: std::collections::HashMap<(&str, &str, i64), (f64, f64)> = std::collections::HashMap::new();
        for e in log.events() {
            let Some(frame) = e.frame() else { continue };
            let key = (e.host.as_str(), e.program.as_str(), frame);
            if e.tag == *start_tag {
                let entry = spans.entry(key).or_insert((e.timestamp, f64::NEG_INFINITY));
                entry.0 = entry.0.min(e.timestamp);
            } else if e.tag == *end_tag {
                let entry = spans.entry(key).or_insert((f64::INFINITY, e.timestamp));
                entry.1 = entry.1.max(e.timestamp);
            }
        }
        let histo = hub.histogram(&format!("{stage}/{phase}"));
        let total = hub.histogram(&format!("total/{phase}"));
        for (start, end) in spans.values() {
            if start.is_finite() && end.is_finite() && end >= start {
                let us = ((end - start) * 1e6) as u64;
                histo.record(us);
                total.record(us);
            }
        }
    }
}

/// The modeled wire segment sizes of one frame payload: texture plus the
/// geometry/metadata allowance of
/// [`PipelineConfig::viewer_payload_bytes_per_pe`].  Shared by the modeled
/// fabric and the service-plane replay, so both fold identical chunk plans.
pub(crate) fn modeled_segment_lens(pipeline: &PipelineConfig) -> [usize; 4] {
    let light_len = LightPayload::ENCODED_LEN + 9;
    let texture_len = pipeline.render.image_width * pipeline.render.image_height * 4;
    let geometry_len = (pipeline.viewer_payload_bytes_per_pe() as usize)
        .saturating_sub(light_len + HEAVY_HEADER_LEN + texture_len)
        .max(4);
    [light_len, HEAVY_HEADER_LEN, texture_len, geometry_len]
}

/// FNV-1a over a rendered image, the final-composite identity the replay
/// fingerprint covers.
pub(crate) fn hash_image(rgba8: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, rgba8);
    h
}

/// Join a stage thread named `thread`; a panic in it becomes an error
/// carrying the panic message instead of taking the caller down with it.
fn join_thread<T>(thread: &str, handle: std::thread::JoinHandle<T>) -> Result<T, VisapultError> {
    handle.join().map_err(|panic| panicked(thread, panic.as_ref()))
}

/// Shift every event in a log by a time offset (merging stages onto one
/// axis).
fn shift_log(log: &EventLog, offset: f64) -> EventLog {
    EventLog::from_events(
        log.events()
            .iter()
            .map(|e| {
                let mut e: Event = e.clone();
                e.timestamp += offset;
                e
            })
            .collect(),
    )
}

/// A compiled scenario bound to a capability set, ready to run.
///
/// Built with [`Pipeline::builder`] (or [`Pipeline::from_spec`] for the
/// spec's own path and the default capabilities).  `run` executes every
/// stage through the one shared control flow and folds the results into a
/// [`CampaignReport`].
pub struct Pipeline {
    resolved: ResolvedScenario,
    caps: PathCapabilities,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("scenario", &self.resolved.name)
            .field("path", &self.resolved.path)
            .field("clock", &self.caps.clock.label())
            .field("stages", &self.resolved.stages.len())
            .finish_non_exhaustive()
    }
}

impl Pipeline {
    /// Start building a pipeline from a declarative spec.
    pub fn builder(spec: ScenarioSpec) -> PipelineBuilder {
        PipelineBuilder {
            spec,
            path: None,
            clock: None,
            fabric: None,
            farm: None,
            plane: None,
        }
    }

    /// Compile a spec with its own execution path and the default capability
    /// set — what [`crate::run_scenario`] calls.
    pub fn from_spec(spec: &ScenarioSpec) -> Result<Pipeline, VisapultError> {
        Pipeline::builder(spec.clone()).build()
    }

    /// The validated scenario this pipeline will run.
    pub fn resolved(&self) -> &ResolvedScenario {
        &self.resolved
    }

    /// Run every stage through the shared control flow and fold the results
    /// into one report whose NetLogger log spans the whole campaign on a
    /// single time axis.
    pub fn run(&self) -> Result<CampaignReport, VisapultError> {
        let resolved = &self.resolved;
        let mut stages = Vec::with_capacity(resolved.stages.len());
        let mut merged = EventLog::new();
        let mut offset = 0.0;

        // The persistent data plane: one DPSS deployment (and one block
        // cache) per scenario, not per stage — re-read stages hit the cache
        // exactly as the paper's replayed-timestep sessions would.  The
        // virtual-time path mirrors it with a telemetry-only cache fed the
        // same access sequence.
        let real_env = match resolved.path {
            ExecutionPath::Real => resolved.build_real_env()?,
            ExecutionPath::VirtualTime => None,
        };
        let sim_cache = match resolved.path {
            // Only replay cache telemetry for scenarios whose real
            // counterpart would actually mount the cache (a DPSS data path),
            // so the two paths always report the same numbers.
            ExecutionPath::VirtualTime if matches!(resolved.real_data_path(), RealDataPath::Dpss { .. }) => {
                resolved.cache.map(BlockCache::new)
            }
            _ => None,
        };
        let staged_dataset = resolved.staged_dataset();
        let mut cache_totals = CacheStats::default();
        let mut transport_totals = TransportStats::default();
        let mut service_totals = ServiceStats::default();

        // One hub per campaign: every stage, plane and worker records into
        // the same named instruments; disabled, every handle is a no-op.
        let hub = MetricsHub::when(resolved.telemetry.enable);
        let mut telemetry = TelemetryReport {
            enabled: hub.is_enabled(),
            sample_every: resolved.telemetry.sample_every,
            ..Default::default()
        };

        for (i, stage) in resolved.stages.iter().enumerate() {
            let ctx = StageContext {
                pipeline: resolved.stage_pipeline(stage),
                transport: resolved.stage_transport_config(stage),
                viewer_image: resolved.real.viewer_image.unwrap_or((192, 192)),
                seed: resolved.stage_seed(i),
                data_path: resolved.real_data_path(),
                service: resolved.stage_service_plan(i),
                env: real_env.as_ref(),
                sim: (resolved.path == ExecutionPath::VirtualTime).then(|| resolved.stage_sim_config(stage, i)),
                cache_replay: sim_cache.as_ref().map(|cache| CacheReplay {
                    cache,
                    dataset: staged_dataset.clone(),
                }),
                metrics: hub.clone(),
                telemetry: resolved.telemetry,
            };
            let artifacts = drive_stage(&self.caps, &ctx)?;
            fold_stage_latencies(&artifacts.log, &hub, &stage.name);
            hub.record_snapshot(&format!("stage:{}", stage.name));
            let metrics = artifacts.stage_metrics();
            cache_totals.hits += metrics.cache.hits;
            cache_totals.misses += metrics.cache.misses;
            cache_totals.evictions += metrics.cache.evictions;
            cache_totals.entries = metrics.cache.entries;
            transport_totals.merge(&metrics.transport);
            service_totals.merge(&metrics.service);
            merged.merge(shift_log(&artifacts.log, offset));
            offset += metrics.total_time;
            stages.push(StageReport {
                name: stage.name.clone(),
                mode: stage.mode,
                timesteps: stage.timesteps,
                pes: resolved.pes,
                metrics,
            });
        }

        let cache = resolved.cache.map(|config| CacheReport {
            config,
            totals: cache_totals,
        });
        let service = resolved.service.as_ref().map(|svc| ServiceReport {
            config: svc.config.clone(),
            totals: service_totals,
        });

        // Per-shard cache gauges from whichever cache actually ran (the live
        // deployment, or its telemetry-only virtual twin).
        let shard_cache = real_env
            .as_ref()
            .and_then(|e| e.cache())
            .map(|c| c.shard_stats())
            .or_else(|| sim_cache.as_ref().map(|c| c.shard_stats()));
        if let Some(shards) = shard_cache {
            for (i, s) in shards.iter().enumerate() {
                hub.add(&format!("cache/shard{i}/hits"), s.hits);
                hub.add(&format!("cache/shard{i}/misses"), s.misses);
            }
        }
        let final_snap = hub.snapshot("campaign");
        telemetry.latencies = final_snap.histograms;
        telemetry.counters = final_snap.counters;
        telemetry.high_waters = final_snap.high_waters;
        telemetry.snapshots = hub.take_snapshots();

        Ok(CampaignReport {
            scenario: resolved.name.clone(),
            path: resolved.path,
            seed: resolved.seed,
            stages,
            cache,
            transport: TransportReport {
                config: resolved.transport.clone(),
                totals: transport_totals,
            },
            service,
            log: merged,
            telemetry: Some(telemetry),
        })
    }
}

/// Builder for a [`Pipeline`]: override the execution path, or swap any of
/// the four capability seams.  Unset seams default to the path's standard
/// set, so `Pipeline::builder(spec).build()` reproduces `run_scenario`
/// exactly.
pub struct PipelineBuilder {
    spec: ScenarioSpec,
    path: Option<ExecutionPath>,
    clock: Option<Box<dyn Clock>>,
    fabric: Option<Box<dyn Fabric>>,
    farm: Option<Box<dyn RenderFarm>>,
    plane: Option<Box<dyn ServicePlane>>,
}

impl PipelineBuilder {
    /// Override the spec's execution path.
    pub fn path(mut self, path: ExecutionPath) -> Self {
        self.path = Some(path);
        self
    }

    /// Override the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.scenario.seed = seed;
        self
    }

    /// Swap the timestamp source.
    pub fn clock(mut self, clock: Box<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Swap the striped-link fabric.
    pub fn fabric(mut self, fabric: Box<dyn Fabric>) -> Self {
        self.fabric = Some(fabric);
        self
    }

    /// Swap the render farm.
    pub fn render_farm(mut self, farm: Box<dyn RenderFarm>) -> Self {
        self.farm = Some(farm);
        self
    }

    /// Swap the service plane.
    pub fn service_plane(mut self, plane: Box<dyn ServicePlane>) -> Self {
        self.plane = Some(plane);
        self
    }

    /// Validate the spec and bind the capability set.
    pub fn build(mut self) -> Result<Pipeline, VisapultError> {
        if let Some(path) = self.path {
            self.spec.scenario.path = path;
        }
        let resolved = self.spec.resolve()?;
        let defaults = PathCapabilities::for_path(resolved.path);
        let caps = PathCapabilities {
            clock: self.clock.unwrap_or(defaults.clock),
            fabric: self.fabric.unwrap_or(defaults.fabric),
            farm: self.farm.unwrap_or(defaults.farm),
            plane: self.plane.unwrap_or(defaults.plane),
        };
        Ok(Pipeline { resolved, caps })
    }
}
