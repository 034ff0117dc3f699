//! The unified report: per-stage metrics, campaign totals, and the replay
//! fingerprint that pins a run's deterministic identity.
//!
//! Whichever execution path ran a scenario, the result is one
//! [`CampaignReport`] with identical structure — the
//! "identical real vs virtual-time telemetry" invariant is enforced by
//! [`CampaignReport::replay_fingerprint`], which hashes only the
//! deterministic content (virtual time covers every event timestamp bit;
//! real mode excludes wall-clock values and covers the event multiset, byte
//! counts, frame counts and final-image hash instead).

use super::spec::ExecutionPath;
use crate::config::ExecutionMode;
use crate::service::{ServiceConfig, ServiceStats};
use crate::transport::{TransportConfig, TransportStats};
use dpss::{CacheConfig, CacheStats};
use netlogger::metrics::{HistogramSummary, MetricsSnapshot};
use netlogger::EventLog;
use std::collections::BTreeMap;

/// Deterministic per-stage metrics shared by both execution paths.
#[derive(Debug, Clone, PartialEq)]
pub struct StageMetrics {
    /// End-to-end stage time in seconds (virtual time, or wall clock).
    pub total_time: f64,
    /// Mean per-frame load time.
    pub mean_load_time: f64,
    /// Mean per-frame render time.
    pub mean_render_time: f64,
    /// Mean per-frame send time.
    pub mean_send_time: f64,
    /// Mean aggregate load throughput, Mbps.
    pub mean_load_throughput_mbps: f64,
    /// Steady-state playback cadence, seconds per timestep.
    pub seconds_per_timestep: f64,
    /// Frames rendered by the back end.
    pub frames_rendered: usize,
    /// Frame payloads received by the viewer (PEs × frames).
    pub frames_received: usize,
    /// Raw bytes loaded from the cache/model.
    pub bytes_loaded: u64,
    /// Bytes shipped across the back-end → viewer link.
    pub wire_bytes: u64,
    /// FNV-1a hash of the viewer's final composite (real path; 0 in virtual
    /// time, which renders no pixels).
    pub image_hash: u64,
    /// Block-cache activity during this stage (zeros when no cache is
    /// configured).  Identical between the real and virtual-time paths for
    /// the same spec whenever the capacity holds the working set.
    pub cache: CacheStats,
    /// Striped-transport telemetry for this stage: per-stripe chunk/byte
    /// counters (deterministic, fingerprinted) plus the receiver's
    /// out-of-order/partial observations (timing-dependent, not
    /// fingerprinted).  Structurally identical between the two paths.
    pub transport: TransportStats,
    /// Service-layer telemetry for this stage (zeros when no `[service]`
    /// table is configured).  The session-lifecycle and shared-render
    /// counters are identical between the two paths — both drive the same
    /// broker state machine — and are fingerprinted; queue-timing delivery
    /// counters are not.
    pub service: ServiceStats,
}

/// One stage's outcome inside a [`CampaignReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name from the spec.
    pub name: String,
    /// Execution mode the stage ran with.
    pub mode: ExecutionMode,
    /// Timesteps the stage ran.
    pub timesteps: usize,
    /// Back-end PEs.
    pub pes: usize,
    /// Deterministic metrics.
    pub metrics: StageMetrics,
}

/// Summary of the block cache across a whole campaign: the configuration it
/// ran with and the summed per-stage counters.  Covered by the replay
/// fingerprint, so a cache-config change is a fingerprint change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheReport {
    /// The cache configuration the scenario resolved to.
    pub config: CacheConfig,
    /// Counters summed across every stage.
    pub totals: CacheStats,
}

impl CacheReport {
    /// Campaign-wide hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.totals.hit_rate()
    }
}

/// Summary of the service layer across a whole campaign: the capacity it ran
/// with and the counters summed across every stage.  Covered by the replay
/// fingerprint, so a capacity change is a fingerprint change.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// The broker capacity the scenario resolved to.
    pub config: ServiceConfig,
    /// Counters summed across every stage.
    pub totals: ServiceStats,
}

impl ServiceReport {
    /// Campaign-wide shared-render hit rate.
    pub fn shared_render_hit_rate(&self) -> f64 {
        self.totals.shared_render_hit_rate()
    }
}

/// Summary of the striped transport across a whole campaign: the base
/// configuration it resolved to and the counters summed over every stage.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportReport {
    /// The base transport configuration (stages may have overridden stripes).
    pub config: TransportConfig,
    /// Counters summed across every stage (stripe vectors padded to the
    /// widest stage).
    pub totals: TransportStats,
}

impl TransportReport {
    /// Mean framed bytes per carried frame.
    pub fn mean_frame_bytes(&self) -> f64 {
        if self.totals.frames == 0 {
            0.0
        } else {
            self.totals.bytes as f64 / self.totals.frames as f64
        }
    }
}

/// The campaign-level fold of the always-on metrics plane: per-stage latency
/// distributions, component counters, queue high-waters, and the periodic
/// snapshot series.  Everything here is
/// wall-clock-dependent and deliberately excluded from replay fingerprints,
/// like the timing counters in [`ServiceStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Whether the metrics plane recorded (false means every map below is
    /// empty — the no-op hub was handed out).
    pub enabled: bool,
    /// Lifeline sampling the run used (1 = every session emitted events).
    pub sample_every: u32,
    /// Latency distributions in microseconds, keyed
    /// `"<stage>/<phase>"` (e.g. `"exhibit-floor/render"`) plus campaign
    /// totals keyed `"total/<phase>"`.
    pub latencies: BTreeMap<String, HistogramSummary>,
    /// Named counters (executor wakes/parks/polls, cache shard hits, …).
    pub counters: BTreeMap<String, u64>,
    /// Named high-water gauges (stripe-queue depth, executor run queue, …).
    pub high_waters: BTreeMap<String, u64>,
    /// The periodic snapshot series (one entry per `snapshot_frames` tick
    /// plus one per stage end), exported as JSONL by [`snapshots_jsonl`].
    ///
    /// [`snapshots_jsonl`]: TelemetryReport::snapshots_jsonl
    pub snapshots: Vec<MetricsSnapshot>,
}

impl TelemetryReport {
    /// The snapshot time series as JSONL (one snapshot per line).
    pub fn snapshots_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.snapshots {
            out.push_str(&s.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// The latency summary for one `"<stage>/<phase>"` key, if recorded.
    pub fn latency(&self, key: &str) -> Option<&HistogramSummary> {
        self.latencies.get(key)
    }
}

/// Everything a scenario run produced, whichever path executed it.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Scenario name.
    pub scenario: String,
    /// Which path ran.
    pub path: ExecutionPath,
    /// The master seed the run used.
    pub seed: u64,
    /// Per-stage results, in execution order.
    pub stages: Vec<StageReport>,
    /// Block-cache configuration and totals (None when no cache configured).
    pub cache: Option<CacheReport>,
    /// Striped-transport configuration and totals.
    pub transport: TransportReport,
    /// Service-layer configuration and totals (None when no `[service]`
    /// table is configured).
    pub service: Option<ServiceReport>,
    /// The merged NetLogger log across all stages, on one time axis.
    pub log: EventLog,
    /// The metrics-plane fold (None only for reports built by pre-telemetry
    /// callers; the pipeline always fills it in, disabled or not).
    /// Wall-clock-dependent, never fingerprinted.
    pub telemetry: Option<TelemetryReport>,
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

pub(crate) fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

impl CampaignReport {
    /// Total campaign time across stages.
    pub fn total_time(&self) -> f64 {
        self.stages.iter().map(|s| s.metrics.total_time).sum()
    }

    /// Total frames the viewer received across stages.
    pub fn frames_received(&self) -> usize {
        self.stages.iter().map(|s| s.metrics.frames_received).sum()
    }

    /// Total raw bytes loaded across stages.
    pub fn bytes_loaded(&self) -> u64 {
        self.stages.iter().map(|s| s.metrics.bytes_loaded).sum()
    }

    /// Total viewer-link bytes across stages.
    pub fn wire_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.metrics.wire_bytes).sum()
    }

    /// Campaign-wide cache hit rate (0 when no cache is configured).
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.map(|c| c.hit_rate()).unwrap_or(0.0)
    }

    /// Cache-to-viewer data reduction across the whole campaign (the
    /// O(n³) → O(n²) claim of §3.4).
    pub fn data_reduction_factor(&self) -> f64 {
        let wire = self.wire_bytes() as f64;
        if wire <= 0.0 {
            0.0
        } else {
            self.bytes_loaded() as f64 / wire
        }
    }

    /// Hash of the *deterministic* content of this report: same spec + same
    /// seed ⇒ same fingerprint on every run.  On the virtual-time path this
    /// covers every event timestamp bit; on the real path, wall-clock values
    /// are excluded and the event multiset, byte counts, frame counts and
    /// final-image hash are covered instead.
    pub fn replay_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, self.scenario.as_bytes());
        fnv1a(&mut h, self.path.label().as_bytes());
        fnv1a(&mut h, &self.seed.to_le_bytes());
        for s in &self.stages {
            fnv1a(&mut h, s.name.as_bytes());
            fnv1a(&mut h, s.mode.label().as_bytes());
            fnv1a(&mut h, &(s.timesteps as u64).to_le_bytes());
            fnv1a(&mut h, &(s.pes as u64).to_le_bytes());
            fnv1a(&mut h, &(s.metrics.frames_rendered as u64).to_le_bytes());
            fnv1a(&mut h, &(s.metrics.frames_received as u64).to_le_bytes());
            fnv1a(&mut h, &s.metrics.bytes_loaded.to_le_bytes());
            fnv1a(&mut h, &s.metrics.wire_bytes.to_le_bytes());
            fnv1a(&mut h, &s.metrics.image_hash.to_le_bytes());
            fnv1a(&mut h, &s.metrics.cache.hits.to_le_bytes());
            fnv1a(&mut h, &s.metrics.cache.misses.to_le_bytes());
            fnv1a(&mut h, &s.metrics.cache.evictions.to_le_bytes());
            // Transport striping is deterministic (chunking and stripe
            // assignment are pure functions of the payload), so the carried
            // counters are part of the replayable identity; the receiver's
            // timing-dependent observations (out-of-order, partials,
            // fallback copies) are excluded like wall-clock values.
            fnv1a(&mut h, &(s.metrics.transport.stripe_count() as u64).to_le_bytes());
            fnv1a(&mut h, &s.metrics.transport.frames.to_le_bytes());
            fnv1a(&mut h, &s.metrics.transport.chunks.to_le_bytes());
            fnv1a(&mut h, &s.metrics.transport.bytes.to_le_bytes());
            for stripe in &s.metrics.transport.per_stripe {
                fnv1a(&mut h, &stripe.chunks.to_le_bytes());
                fnv1a(&mut h, &stripe.bytes.to_le_bytes());
            }
            // The service layer's lifecycle and shared-render counters are a
            // pure function of the session schedule and capacity config, so
            // they are replayable identity; the queue-timing delivery
            // counters (delivered/dropped/completed/skipped) are excluded
            // like wall-clock values.
            if self.service.is_some() {
                for v in [
                    s.metrics.service.sessions_offered,
                    s.metrics.service.sessions_admitted,
                    s.metrics.service.sessions_rejected,
                    s.metrics.service.sessions_evicted,
                    s.metrics.service.peak_live_sessions,
                    s.metrics.service.render_requests,
                    s.metrics.service.renders_performed,
                    s.metrics.service.flow_limited_sessions,
                    s.metrics.service.fanout_chunks,
                    s.metrics.service.fanout_bytes,
                ] {
                    fnv1a(&mut h, &v.to_le_bytes());
                }
            }
        }
        // The transport configuration is replayable identity too: a stripe
        // count or chunk-size change must change the fingerprint.
        fnv1a(&mut h, b"transport");
        for v in [
            self.transport.config.stripes as u64,
            self.transport.config.chunk_bytes as u64,
            self.transport.config.queue_depth as u64,
        ] {
            fnv1a(&mut h, &v.to_le_bytes());
        }
        fnv1a(&mut h, self.transport.config.tuning.label().as_bytes());
        // The service capacity configuration is replayable identity too: a
        // capacity change that happens not to change any admission outcome
        // must still change the fingerprint.
        if let Some(svc) = &self.service {
            fnv1a(&mut h, b"service");
            for v in [
                svc.config.max_sessions as u64,
                svc.config.link_capacity_units,
                u64::from(svc.config.render_slots),
                svc.config.queue_depth as u64,
            ] {
                fnv1a(&mut h, &v.to_le_bytes());
            }
        }
        // The cache configuration and totals are part of the replayable
        // identity of a run: changing the capacity or sharding must change
        // the fingerprint even if frame counts happen to coincide.
        if let Some(c) = &self.cache {
            fnv1a(&mut h, b"cache");
            for v in [
                c.config.capacity_blocks as u64,
                c.config.shards as u64,
                c.totals.hits,
                c.totals.misses,
                c.totals.evictions,
            ] {
                fnv1a(&mut h, &v.to_le_bytes());
            }
        }
        // Event multiset, order-independent: sort rendered lines first.
        let deterministic_times = self.path == ExecutionPath::VirtualTime;
        let mut lines: Vec<String> = self
            .log
            .events()
            .iter()
            .map(|e| {
                let mut line = String::new();
                if deterministic_times {
                    line.push_str(&format!("{:016x} ", e.timestamp.to_bits()));
                }
                line.push_str(&format!(
                    "{} {} {} f={:?} b={:?}",
                    e.host,
                    e.program,
                    e.tag,
                    e.frame(),
                    e.bytes()
                ));
                line
            })
            .collect();
        lines.sort_unstable();
        for line in lines {
            fnv1a(&mut h, line.as_bytes());
            fnv1a(&mut h, b"\n");
        }
        h
    }

    /// One-line-per-stage text summary.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "scenario {} [{}] seed {} — {} stage(s), {:.2}s total, {:.1}x data reduction\n",
            self.scenario,
            self.path.label(),
            self.seed,
            self.stages.len(),
            self.total_time(),
            self.data_reduction_factor(),
        );
        out.push_str(&format!(
            "{:<22} {:>11} {:>6} {:>9} {:>9} {:>9} {:>11} {:>10}\n",
            "stage", "mode", "steps", "L mean(s)", "R mean(s)", "total(s)", "load Mbps", "s/step"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<22} {:>11} {:>6} {:>9.3} {:>9.3} {:>9.2} {:>11.1} {:>10.2}\n",
                s.name,
                s.mode.label(),
                s.timesteps,
                s.metrics.mean_load_time,
                s.metrics.mean_render_time,
                s.metrics.total_time,
                s.metrics.mean_load_throughput_mbps,
                s.metrics.seconds_per_timestep,
            ));
        }
        out.push_str(&format!(
            "transport: {} base stripes x {} KB chunks [{}] — {} frames / {} chunks / {:.1} KB mean frame\n",
            self.transport.config.stripes,
            self.transport.config.chunk_bytes / 1024,
            self.transport.config.tuning.label(),
            self.transport.totals.frames,
            self.transport.totals.chunks,
            self.transport.mean_frame_bytes() / 1024.0,
        ));
        if let Some(c) = &self.cache {
            out.push_str(&format!(
                "cache: {} blocks x {} shards — {} hits / {} misses / {} evictions ({:.1}% hit rate)\n",
                c.config.capacity_blocks,
                c.config.shards,
                c.totals.hits,
                c.totals.misses,
                c.totals.evictions,
                c.hit_rate() * 100.0,
            ));
        }
        if let Some(s) = &self.service {
            out.push_str(&format!(
                "service: {} sessions ({} admitted / {} rejected / {} evicted, peak {} live) — {} renders for {} requests ({:.1}% shared)\n",
                s.totals.sessions_offered,
                s.totals.sessions_admitted,
                s.totals.sessions_rejected,
                s.totals.sessions_evicted,
                s.totals.peak_live_sessions,
                s.totals.renders_performed,
                s.totals.render_requests,
                s.shared_render_hit_rate() * 100.0,
            ));
        }
        if let Some(t) = &self.telemetry {
            if t.enabled {
                out.push_str(&format!(
                    "telemetry: enabled (1-in-{} lifelines) — {} histogram(s), {} counter(s), {} snapshot(s)\n",
                    t.sample_every,
                    t.latencies.len(),
                    t.counters.len(),
                    t.snapshots.len(),
                ));
                for (key, h) in &t.latencies {
                    out.push_str(&format!(
                        "  lat {:<28} n={:<7} p50={}us p90={}us p99={}us max={}us\n",
                        key, h.count, h.p50, h.p90, h.p99, h.max,
                    ));
                }
            } else {
                out.push_str("telemetry: disabled\n");
            }
        }
        out
    }
}
