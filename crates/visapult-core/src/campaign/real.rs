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
use dpss::{BlockCache, CacheConfig, CacheStats, DatasetDescriptor, DpssClient, DpssCluster, DpssError, StripeLayout};
use netlogger::Collector;
use netsim::Bandwidth;
use std::sync::Arc;
use volren::CombustionSeries;

/// Where the back end reads its data from in a real campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    ///
    /// Staging is generator-bound (`write_at` is 1–2 % of it), so the
    /// timesteps are dealt to one scoped worker per core (at most one per
    /// timestep), each generating and writing its share; the count is
    /// derived, not settable.  Everything has been written and every worker
    /// joined when this returns — nothing stages in the background of the
    /// first frame.
    pub fn stage(dataset: &DatasetDescriptor, seed: u64, cache: Option<CacheConfig>) -> Result<Self, VisapultError> {
        let cluster = DpssCluster::new(StripeLayout::four_server());
        cluster.register_dataset(dataset.clone());
        let stager = DpssClient::new(cluster.clone(), "stager");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        stage_series(&stager, dataset, seed, cores)?;
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

/// Write the seeded combustion series of `dataset` through `client`, the
/// bytes [`volren::combustion_series_bytes`] would produce.  Timesteps are
/// dealt round-robin to `workers` (clamped to `1..=timesteps`) scoped threads
/// sharing the client and the series' time-independent tables; each generates
/// a timestep into its own reused buffers and writes it at the timestep's
/// offset.  The scope joins every worker before this returns, and of several
/// failures the one at the lowest timestep is reported.
fn stage_series(
    client: &DpssClient,
    dataset: &DatasetDescriptor,
    seed: u64,
    workers: usize,
) -> Result<(), VisapultError> {
    let series = CombustionSeries::new(dataset.dims, dataset.timesteps, seed);
    let workers = workers.clamp(1, dataset.timesteps);
    let first_failures: Vec<(usize, DpssError)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let series = &series;
                scope.spawn(move || {
                    let (mut values, mut bytes) = (Vec::new(), Vec::new());
                    for timestep in (worker..dataset.timesteps).step_by(workers) {
                        series.timestep_le_bytes(timestep, &mut values, &mut bytes);
                        client
                            .write_at(&dataset.name, dataset.timestep_offset(timestep), &bytes)
                            .map_err(|e| (timestep, e))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|handle| match handle.join() {
                Ok(outcome) => outcome.err(),
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    match first_failures.into_iter().min_by_key(|(timestep, _)| *timestep) {
        Some((_, error)) => Err(error.into()),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volren::combustion_series_bytes;

    /// Datasets whose timesteps do and do not end on a 64 KB block boundary,
    /// with more and fewer timesteps than workers.
    fn datasets() -> [DatasetDescriptor; 3] {
        [
            DatasetDescriptor::small_combustion(7),
            DatasetDescriptor::new("odd", (17, 13, 7), 4, 3),
            DatasetDescriptor::new("single", (40, 30, 10), 4, 1),
        ]
    }

    #[test]
    fn any_worker_count_stages_the_series_byte_for_byte() {
        for dataset in datasets() {
            let expected = combustion_series_bytes(dataset.dims, dataset.timesteps, 23);
            for workers in [1, 2, 5] {
                let cluster = DpssCluster::new(StripeLayout::four_server());
                cluster.register_dataset(dataset.clone());
                let client = DpssClient::new(cluster, "stager");
                stage_series(&client, &dataset, 23, workers).unwrap();
                let staged = client
                    .read_range(&dataset.name, 0, dataset.total_size().bytes())
                    .unwrap();
                assert!(staged[..] == expected[..], "{} with {workers} workers", dataset.name);
            }
        }
    }

    #[test]
    fn a_failed_write_is_a_dpss_error_for_any_worker_count() {
        // Nothing registered the dataset, so every worker's first write is
        // refused; `thread::scope` has joined them all by the time the
        // lowest timestep's error comes back.
        for dataset in datasets() {
            for workers in [1, 2, 5] {
                let client = DpssClient::new(DpssCluster::new(StripeLayout::four_server()), "stager");
                let outcome = stage_series(&client, &dataset, 23, workers);
                assert!(
                    matches!(&outcome, Err(VisapultError::Dpss(DpssError::UnknownDataset(name))) if *name == dataset.name),
                    "{} with {workers} workers: {outcome:?}",
                    dataset.name
                );
            }
        }
    }

    #[test]
    fn of_several_failed_timesteps_the_lowest_is_reported() {
        // The master knows two timesteps, the stager is asked for five:
        // timesteps 2, 3 and 4 overrun the dataset, on different workers
        // when there are several.
        let registered = DatasetDescriptor::small_combustion(2);
        let asked = DatasetDescriptor::small_combustion(5);
        let step = asked.bytes_per_timestep().bytes();
        for workers in [1, 2, 5] {
            let cluster = DpssCluster::new(StripeLayout::four_server());
            cluster.register_dataset(registered.clone());
            let client = DpssClient::new(cluster, "stager");
            let outcome = stage_series(&client, &asked, 23, workers);
            assert!(
                matches!(
                    outcome,
                    Err(VisapultError::Dpss(DpssError::OutOfBounds { offset, size })) if offset == 3 * step && size == 2 * step
                ),
                "{workers} workers: {outcome:?}"
            );
        }
    }
}
