//! The real path's data plane and service plan: what a stage of the real
//! pipeline is configured with beyond the shared [`PipelineConfig`].
//!
//! The thread-and-socket wiring itself is the *real capability set* of the
//! unified driver ([`crate::pipeline::PathCapabilities::real`]):
//! [`ThreadFarm`] runs the back end and viewer, [`StripedFabric`] opens the
//! per-PE links, [`FanoutPlane`] splices the session broker, all driven by
//! the one shared stage control flow.  This module holds the three types a
//! [`crate::pipeline::StageContext`] carries for them: where the back end
//! reads from ([`RealDataPath`]), the persistent DPSS deployment it reads
//! through ([`RealDpssEnv`]), and the multi-session [`ServicePlan`].
//!
//! [`PipelineConfig`]: crate::config::PipelineConfig
//! [`ThreadFarm`]: crate::pipeline::ThreadFarm
//! [`StripedFabric`]: crate::pipeline::StripedFabric
//! [`FanoutPlane`]: crate::pipeline::FanoutPlane

use crate::error::VisapultError;
use crate::service::{ServiceConfig, SessionSpec};
use dpss::{BlockCache, CacheConfig, CacheStats, DatasetDescriptor, DpssClient, DpssCluster, StripeLayout};
use netlogger::Collector;
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
