//! Real-mode campaigns: the legacy config surface over the real pipeline.
//!
//! The thread-and-socket wiring that used to live here — striped links,
//! the service-plane splice, the viewer thread, telemetry collection — is
//! now the *real capability set* of the unified driver
//! ([`crate::pipeline::PathCapabilities::real`]): [`ThreadFarm`] runs the
//! back end and viewer, [`StripedFabric`] opens the per-PE links,
//! [`FanoutPlane`] splices the session broker, all driven by the one shared
//! stage control flow.
//!
//! What remains here is the configuration surface ([`RealCampaignConfig`],
//! [`RealDataPath`], [`ServicePlan`]), the persistent DPSS deployment
//! ([`RealDpssEnv`]), the legacy report type ([`RealCampaignReport`]) and
//! two deprecated facades that run a single stage through the builder so
//! existing callers keep working while they migrate.
//!
//! [`ThreadFarm`]: crate::pipeline::ThreadFarm
//! [`StripedFabric`]: crate::pipeline::StripedFabric
//! [`FanoutPlane`]: crate::pipeline::FanoutPlane

use crate::backend::BackendReport;
use crate::config::PipelineConfig;
use crate::error::VisapultError;
use crate::pipeline::Pipeline;
use crate::service::{ServiceConfig, ServiceRunReport, SessionSpec};
use crate::transport::{TransportConfig, TransportStats};
use crate::viewer::ViewerReport;
use dpss::{BlockCache, CacheConfig, CacheStats, DatasetDescriptor, DpssClient, DpssCluster, StripeLayout};
use netlogger::{Collector, EventLog, ProfileAnalysis};
use netsim::Bandwidth;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use volren::combustion_series_bytes;

/// Where the back end reads its data from in a real campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RealDataPath {
    /// Stage synthetic data onto an in-process DPSS and read it back through
    /// the multi-threaded client API (the paper's architecture).
    Dpss {
        /// Optional per-server-stream shaping emulating a WAN between the
        /// cache and the back end.
        stream_rate_mbps: Option<f64>,
    },
    /// Generate slabs directly in the back end (no cache); the "render local
    /// data source" configuration used for quick tests.
    Synthetic,
}

/// The multi-session service layer of one campaign: broker capacity plus the
/// frame-indexed session schedule the broker serves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServicePlan {
    /// Modeled capacity the broker admits against.
    pub config: ServiceConfig,
    /// Sessions offered over the campaign, in schedule order.
    pub sessions: Vec<SessionSpec>,
    /// Worker-pool threads for the fan-out plane (`None` = sized to the
    /// machine, clamped 2..=8).  Pure execution-cost knob: deterministic
    /// stats and fingerprints are identical whatever its value.
    pub workers: Option<usize>,
}

/// Configuration of a real-mode campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RealCampaignConfig {
    /// The pipeline to run.
    pub pipeline: PipelineConfig,
    /// Data path between cache and back end.
    pub data_path: RealDataPath,
    /// The striped back-end -> viewer transport.
    pub transport: TransportConfig,
    /// Viewer window size.
    pub viewer_image: (usize, usize),
    /// Random seed for the synthetic dataset.
    pub seed: u64,
    /// Multi-session service layer (`None` = the classic single-viewer
    /// wiring, with the backend links feeding the viewer directly).
    pub service: Option<ServicePlan>,
}

impl RealCampaignConfig {
    /// A laptop-scale campaign reading from an in-process DPSS.
    pub fn small(pipeline: PipelineConfig) -> Self {
        RealCampaignConfig {
            pipeline,
            data_path: RealDataPath::Dpss { stream_rate_mbps: None },
            transport: TransportConfig::default(),
            viewer_image: (192, 192),
            seed: 42,
            service: None,
        }
    }
}

/// A persistent DPSS deployment — cluster, staged dataset, optional block
/// cache — that outlives a single campaign.  The paper's cache holds a
/// dataset across an entire session while the scientist replays timesteps;
/// the scenario engine builds one of these per scenario so every stage reads
/// the same deployment and re-read stages actually hit the cache.
pub struct RealDpssEnv {
    cluster: DpssCluster,
    cache: Option<Arc<BlockCache>>,
}

impl RealDpssEnv {
    /// Build a four-server DPSS (the §3.5 deployment), register `dataset`,
    /// and stage the seeded synthetic combustion series onto it — the
    /// HPSS→DPSS migration of §3.5, with the generator standing in for HPSS.
    /// `cache` mounts a sharded block cache in front of the cluster.
    pub fn stage(dataset: &DatasetDescriptor, seed: u64, cache: Option<CacheConfig>) -> Result<Self, VisapultError> {
        let cluster = DpssCluster::new(StripeLayout::four_server());
        cluster.register_dataset(dataset.clone());
        let stager = DpssClient::new(cluster.clone(), "stager");
        let bytes = combustion_series_bytes(dataset.dims, dataset.timesteps, seed);
        stager.write_at(&dataset.name, 0, &bytes)?;
        Ok(RealDpssEnv {
            cluster,
            cache: cache.map(|c| Arc::new(BlockCache::new(c))),
        })
    }

    /// The block cache, if one is mounted.
    pub fn cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.as_ref()
    }

    /// Current cache counters (zeros when no cache is mounted).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// A back-end client onto this deployment, instrumented and optionally
    /// WAN-shaped, with the block cache (if any) mounted.
    pub(crate) fn client(&self, collector: &Collector, stream_rate_mbps: Option<f64>) -> DpssClient {
        let mut client = DpssClient::new(self.cluster.clone(), "visapult-backend")
            .with_logger(collector.logger("dpss-client", "dpss-client"));
        if let Some(mbps) = stream_rate_mbps {
            client = client.with_stream_rate(Bandwidth::from_mbps(mbps));
        }
        if let Some(cache) = &self.cache {
            client = client.with_cache(Arc::clone(cache));
        }
        client
    }
}

/// Everything a real campaign produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RealCampaignReport {
    /// Back-end execution summary.
    pub backend: BackendReport,
    /// Viewer execution summary.
    pub viewer: ViewerReport,
    /// Striped-transport telemetry: sender-side chunk/byte counters per
    /// stripe (deterministic), with the viewer's out-of-order, partial-update
    /// and reassembly counters merged in.
    pub transport: TransportStats,
    /// Block-cache activity during this campaign (zeros when no cache was
    /// mounted on the data path).
    pub cache: CacheStats,
    /// What the multi-session service layer did (`None` when the campaign
    /// ran the classic single-viewer wiring).
    pub service: Option<ServiceRunReport>,
    /// The full NetLogger event log.
    pub log: EventLog,
    /// Phase analysis derived from the log.
    pub analysis: ProfileAnalysis,
}

impl RealCampaignReport {
    /// Data-reduction factor: raw bytes moved from the cache to the back end
    /// versus bytes shipped to the viewer — the O(n³) → O(n²) claim of §3.4.
    pub fn data_reduction_factor(&self) -> f64 {
        let raw = self.backend.total_bytes_loaded() as f64;
        let wire = self.backend.total_wire_bytes() as f64;
        if wire <= 0.0 {
            0.0
        } else {
            raw / wire
        }
    }
}

/// Run a real campaign to completion, staging a fresh DPSS deployment for
/// the run (when the data path wants one).
#[deprecated(
    since = "0.1.0",
    note = "drive campaigns through the `pipeline::Pipeline` builder (`run_scenario` compiles a \
            `ScenarioSpec` into one); this facade runs a single stage with the real capability set"
)]
#[allow(deprecated)] // one facade delegating to the other
pub fn run_real_campaign(config: &RealCampaignConfig) -> Result<RealCampaignReport, VisapultError> {
    let env = match config.data_path {
        RealDataPath::Dpss { .. } => Some(RealDpssEnv::stage(&config.pipeline.dataset, config.seed, None)?),
        RealDataPath::Synthetic => None,
    };
    run_real_campaign_in_env(config, env.as_ref())
}

/// Run a real campaign against an existing [`RealDpssEnv`] (required when
/// the data path is [`RealDataPath::Dpss`]).  The pipeline driver stages one
/// environment per scenario and runs every stage against it, so the block
/// cache — and its hit/miss telemetry — persists across the staged workload
/// mix.
#[deprecated(
    since = "0.1.0",
    note = "drive campaigns through the `pipeline::Pipeline` builder (`run_scenario` compiles a \
            `ScenarioSpec` into one); this facade runs a single stage with the real capability set"
)]
pub fn run_real_campaign_in_env(
    config: &RealCampaignConfig,
    env: Option<&RealDpssEnv>,
) -> Result<RealCampaignReport, VisapultError> {
    let artifacts = Pipeline::drive_real_stage(config, env)?;
    Ok(RealCampaignReport {
        backend: artifacts.run.backend.expect("the real farm reports its backend"),
        viewer: artifacts.run.viewer.expect("the real farm reports its viewer"),
        transport: artifacts.transport,
        cache: artifacts.cache,
        service: artifacts.service,
        log: artifacts.log,
        analysis: artifacts.analysis.expect("real stages carry an analysis"),
    })
}

// The tests exercise the deprecated facades on purpose: they are the
// regression coverage that keeps the legacy surface working while callers
// migrate to the builder.
#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use crate::config::ExecutionMode;
    use netlogger::tags;

    fn small_config(pes: usize, timesteps: usize, mode: ExecutionMode, path: RealDataPath) -> RealCampaignConfig {
        let mut c = RealCampaignConfig::small(PipelineConfig::small(pes, timesteps, mode));
        c.data_path = path;
        c
    }

    #[test]
    fn end_to_end_dpss_campaign_produces_frames_and_a_picture() {
        let config = small_config(
            4,
            2,
            ExecutionMode::Serial,
            RealDataPath::Dpss { stream_rate_mbps: None },
        );
        let report = run_real_campaign(&config).unwrap();
        assert_eq!(report.backend.frames_rendered, 2);
        assert_eq!(report.viewer.frames_received, 4 * 2);
        assert!(report.viewer.final_image.coverage() > 0.01);
        assert!(
            report.data_reduction_factor() > 1.0,
            "viewer payload should be smaller than raw data"
        );
        // The log covers both ends of the pipeline.
        assert!(report.log.with_tag(tags::BE_LOAD_END).count() >= 8);
        assert!(report.log.with_tag(tags::V_HEAVYPAYLOAD_END).count() >= 8);
        assert_eq!(report.analysis.frames.len(), 2);
        // The striped transport carried every frame and reported per-stripe
        // telemetry into the same log.
        assert_eq!(report.transport.frames, 4 * 2);
        assert_eq!(report.transport.stripe_count(), 4);
        assert!(report.transport.per_stripe.iter().all(|s| s.chunks > 0));
        assert_eq!(report.transport.bytes, report.backend.total_wire_bytes());
        assert_eq!(report.log.with_tag(tags::TRANSPORT_STATS).count(), 1);
        assert_eq!(report.log.with_tag(tags::TRANSPORT_STRIPE).count(), 4);
        assert!(report.viewer.errors.is_empty(), "{:?}", report.viewer.errors);
    }

    #[test]
    fn overlapped_campaign_matches_serial_results() {
        let serial = run_real_campaign(&small_config(2, 3, ExecutionMode::Serial, RealDataPath::Synthetic)).unwrap();
        let overlapped =
            run_real_campaign(&small_config(2, 3, ExecutionMode::Overlapped, RealDataPath::Synthetic)).unwrap();
        assert_eq!(serial.viewer.frames_received, overlapped.viewer.frames_received);
        // Same final image regardless of execution mode.
        let diff = serial.viewer.final_image.mean_abs_diff(&overlapped.viewer.final_image);
        assert!(diff < 1e-4, "serial and overlapped campaigns diverged: {diff}");
    }

    #[test]
    fn shared_env_keeps_the_cache_warm_across_campaigns() {
        let config = small_config(
            2,
            2,
            ExecutionMode::Serial,
            RealDataPath::Dpss { stream_rate_mbps: None },
        );
        let env = RealDpssEnv::stage(&config.pipeline.dataset, 42, Some(dpss::CacheConfig::new(512, 4))).unwrap();
        let first = run_real_campaign_in_env(&config, Some(&env)).unwrap();
        assert!(first.cache.misses > 0, "cold run fills the cache");
        // The 80×32×32 slabs straddle block boundaries, so adjacent PEs race
        // for the shared boundary block; single-flight turns the loser's
        // fetch into a hit even on the cold run.
        assert!(first.cache.hits < first.cache.misses);
        // Replaying the same stage against the same env is all hits.
        let second = run_real_campaign_in_env(&config, Some(&env)).unwrap();
        assert_eq!(second.cache.misses, 0, "warm run must not refetch");
        assert_eq!(
            second.cache.hits,
            first.cache.hits + first.cache.misses,
            "every access of the replay hits"
        );
        assert_eq!(second.log.with_tag(tags::DPSS_CACHE_STATS).count(), 1);
        // Same pixels either way: the cache is transparent.
        assert_eq!(
            first.viewer.final_image.to_rgba8(),
            second.viewer.final_image.to_rgba8()
        );
    }

    #[test]
    fn dpss_path_without_an_env_is_rejected() {
        let config = small_config(
            2,
            2,
            ExecutionMode::Serial,
            RealDataPath::Dpss { stream_rate_mbps: None },
        );
        assert!(matches!(
            run_real_campaign_in_env(&config, None),
            Err(VisapultError::Config(_))
        ));
    }

    #[test]
    fn invalid_pipeline_is_rejected_before_running() {
        let mut config = small_config(4, 2, ExecutionMode::Serial, RealDataPath::Synthetic);
        config.pipeline.timesteps = 999;
        assert!(matches!(run_real_campaign(&config), Err(VisapultError::Config(_))));
    }
}
