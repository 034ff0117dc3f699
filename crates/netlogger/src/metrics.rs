//! The always-on metrics plane: lock-free log-bucketed histograms, counters,
//! high-water gauges, and deterministic lifeline sampling.
//!
//! The paper's methodological claim (§3.6) is that precision instrumentation
//! is what made the WAN pipeline tunable.  Lifeline events ([`crate::Event`])
//! answer *what happened when*; this module answers *how the distribution
//! looks* — tail latencies, queue high-waters, component counters — at a cost
//! low enough to leave on in production runs:
//!
//! * [`LogHistogram`] — an HDR-style log-bucketed histogram over `u64`
//!   values.  Buckets are one power-of-two octave split into
//!   2^[`SUB_BUCKET_BITS`] linear sub-buckets (≤ 12.5% relative error), all
//!   relaxed atomics: recording is wait-free and snapshot reads never block a
//!   recorder.
//! * [`MetricsHub`] — a cheap cloneable registry of named histograms,
//!   counters and high-water gauges.  A disabled hub hands out no-op handles
//!   whose record paths perform **zero atomic operations** (verified by
//!   [`live_record_ops`]), so instrumented hot paths cost nothing when
//!   telemetry is off.  Building `netlogger` with
//!   `--no-default-features` compiles the enabled constructor out entirely.
//! * [`session_sampled`] — deterministic 1-in-N session sampling, seeded by
//!   the session id alone, so 100k-session runs emit NLV-plottable lifelines
//!   for the same subset of sessions on both execution paths.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Linear sub-buckets per octave as a power of two: 2^3 = 8 sub-buckets,
/// bounding the relative quantization error of a recorded value at 1/8.
pub const SUB_BUCKET_BITS: u32 = 3;

const SUBS: usize = 1 << SUB_BUCKET_BITS;
/// Octave 0 holds the exact values `0..SUBS`; octaves `1..=61` split the
/// remaining powers of two, so every `u64` has a bucket.
const BUCKETS: usize = SUBS * 62;

/// Global count of live (enabled-path) metric record operations.  A disabled
/// hub's handles never touch it, which is exactly what the no-op-path tests
/// assert: drive a hot path with telemetry off and this counter must not
/// move.
static LIVE_RECORD_OPS: AtomicU64 = AtomicU64::new(0);

/// Total metric record operations performed through enabled handles since
/// process start.  Test instrumentation for the zero-cost disabled path.
pub fn live_record_ops() -> u64 {
    LIVE_RECORD_OPS.load(Ordering::Relaxed)
}

fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros();
    let octave = (top - SUB_BUCKET_BITS + 1) as usize;
    let sub = ((v >> (top - SUB_BUCKET_BITS)) & (SUBS as u64 - 1)) as usize;
    octave * SUBS + sub
}

/// Smallest value that lands in bucket `i` (the inverse of [`bucket_index`]).
fn bucket_floor(i: usize) -> u64 {
    let octave = i / SUBS;
    let sub = (i % SUBS) as u64;
    if octave == 0 {
        sub
    } else {
        let top = octave as u32 + SUB_BUCKET_BITS - 1;
        (1u64 << top) | (sub << (top - SUB_BUCKET_BITS))
    }
}

/// Largest value that lands in bucket `i`.
fn bucket_ceil(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_floor(i + 1).saturating_sub(1)
    }
}

/// A lock-free log-bucketed latency/size histogram (HDR-style): fixed
/// storage, wait-free relaxed-atomic recording, ≤ 12.5% relative error on
/// reconstructed percentiles, exact count/sum/max.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.  Four relaxed atomic RMWs, no locks, no allocation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        LIVE_RECORD_OPS.fetch_add(1, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for analysis (relaxed reads; concurrent
    /// recorders may straddle the snapshot by a value or two, which is fine
    /// for percentile reporting).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LogHistogram`]'s buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `q` (0..=1): the upper edge of the bucket the
    /// rank falls in, clipped to the exact max.  Zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_ceil(i).min(self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The compact percentile summary reports and JSONL snapshots carry.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// The compact percentile summary of one histogram: what reports, benchmark
/// baselines and JSONL time series carry instead of raw buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Median (bucket upper edge, ≤ 12.5% high).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean of recorded values (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Element-wise fold for merging per-stage summaries into campaign
    /// totals: counts and sums add, max takes the max, percentiles take the
    /// count-weighted upper bound (conservative — a merged p99 is never
    /// reported lower than the larger component's).
    pub fn merge(&mut self, other: &HistogramSummary) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.p50 = self.p50.max(other.p50);
        self.p90 = self.p90.max(other.p90);
        self.p99 = self.p99.max(other.p99);
    }
}

/// One point of the periodic JSONL time series: every histogram summarized,
/// every counter and high-water gauge read, labeled by where in the run the
/// snapshot was taken.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Where the snapshot was taken (e.g. `"stage:exhibit-floor"`,
    /// `"frame:128"`).
    pub at: String,
    /// Named histogram summaries.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Named monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Named high-water gauges.
    pub high_waters: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// One JSONL line.
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("metrics snapshots are always serializable")
    }
}

#[derive(Debug, Default)]
struct HubInner {
    histograms: Mutex<BTreeMap<String, Arc<LogHistogram>>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    high_waters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    snapshots: Mutex<Vec<MetricsSnapshot>>,
}

/// A cheap cloneable handle to the metrics plane.
///
/// A hub is either *enabled* (an [`Arc`] registry of named instruments) or
/// *disabled* (no allocation at all).  Handles looked up on a disabled hub
/// are no-ops whose record paths perform zero atomic operations — the
/// structural guarantee that lets instrumentation live permanently on chunk
/// hot paths.  Cloning either flavor is one `Arc` bump or a plain copy.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Option<Arc<HubInner>>,
}

impl MetricsHub {
    /// The no-op hub: every handle it hands out does nothing.
    pub fn disabled() -> MetricsHub {
        MetricsHub { inner: None }
    }

    /// A live hub (when the `telemetry` feature is on — the default).
    /// Compiled without it, this constructor degrades to [`disabled`], which
    /// is the compile-out path: call sites need no `cfg` of their own.
    ///
    /// [`disabled`]: MetricsHub::disabled
    #[cfg(feature = "telemetry")]
    pub fn enabled() -> MetricsHub {
        MetricsHub {
            inner: Some(Arc::new(HubInner::default())),
        }
    }

    /// Telemetry compiled out: the "enabled" hub is the no-op hub.
    #[cfg(not(feature = "telemetry"))]
    pub fn enabled() -> MetricsHub {
        MetricsHub::disabled()
    }

    /// An enabled hub when `on`, the no-op hub otherwise.
    pub fn when(on: bool) -> MetricsHub {
        if on {
            MetricsHub::enabled()
        } else {
            MetricsHub::disabled()
        }
    }

    /// Whether this hub records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The named histogram handle (created on first use; shared thereafter).
    pub fn histogram(&self, name: &str) -> Histo {
        match &self.inner {
            None => Histo(None),
            Some(inner) => {
                let mut map = inner.histograms.lock();
                Histo(Some(Arc::clone(
                    map.entry(name.to_string())
                        .or_insert_with(|| Arc::new(LogHistogram::new())),
                )))
            }
        }
    }

    /// The named monotonic counter handle.
    pub fn counter(&self, name: &str) -> CounterHandle {
        match &self.inner {
            None => CounterHandle(None),
            Some(inner) => {
                let mut map = inner.counters.lock();
                CounterHandle(Some(Arc::clone(
                    map.entry(name.to_string())
                        .or_insert_with(|| Arc::new(AtomicU64::new(0))),
                )))
            }
        }
    }

    /// The named high-water gauge handle (observations keep the max).
    pub fn high_water(&self, name: &str) -> HighWaterHandle {
        match &self.inner {
            None => HighWaterHandle(None),
            Some(inner) => {
                let mut map = inner.high_waters.lock();
                HighWaterHandle(Some(Arc::clone(
                    map.entry(name.to_string())
                        .or_insert_with(|| Arc::new(AtomicU64::new(0))),
                )))
            }
        }
    }

    /// Convenience: bump a counter once without keeping the handle.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Convenience: observe a high-water value without keeping the handle.
    pub fn observe_high_water(&self, name: &str, v: u64) {
        self.high_water(name).observe(v);
    }

    /// Read every instrument into one labeled snapshot (empty on a disabled
    /// hub).
    pub fn snapshot(&self, at: &str) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            at: at.to_string(),
            histograms: BTreeMap::new(),
            counters: BTreeMap::new(),
            high_waters: BTreeMap::new(),
        };
        if let Some(inner) = &self.inner {
            for (name, h) in inner.histograms.lock().iter() {
                snap.histograms.insert(name.clone(), h.snapshot().summary());
            }
            for (name, c) in inner.counters.lock().iter() {
                snap.counters.insert(name.clone(), c.load(Ordering::Relaxed));
            }
            for (name, g) in inner.high_waters.lock().iter() {
                snap.high_waters.insert(name.clone(), g.load(Ordering::Relaxed));
            }
        }
        snap
    }

    /// Take a snapshot and append it to the hub's periodic time series (the
    /// JSONL export).  No-op on a disabled hub.
    pub fn record_snapshot(&self, at: &str) {
        if let Some(inner) = &self.inner {
            let snap = self.snapshot(at);
            inner.snapshots.lock().push(snap);
        }
    }

    /// Drain the accumulated snapshot series.
    pub fn take_snapshots(&self) -> Vec<MetricsSnapshot> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => std::mem::take(&mut *inner.snapshots.lock()),
        }
    }
}

/// A histogram handle: live on an enabled hub, a no-op (zero atomics) on a
/// disabled one.
#[derive(Debug, Clone, Default)]
pub struct Histo(Option<Arc<LogHistogram>>);

impl Histo {
    /// Record one value (nothing at all on the no-op handle).
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Whether recording does anything.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }
}

/// A monotonic-counter handle: live or no-op, like [`Histo`].
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<Arc<AtomicU64>>);

impl CounterHandle {
    /// Add `n` (nothing on the no-op handle).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
            LIVE_RECORD_OPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current value (zero on the no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map(|c| c.load(Ordering::Relaxed)).unwrap_or(0)
    }
}

/// A high-water gauge handle: observations keep the maximum.
#[derive(Debug, Clone, Default)]
pub struct HighWaterHandle(Option<Arc<AtomicU64>>);

impl HighWaterHandle {
    /// Raise the high-water mark to `v` if higher (nothing on the no-op
    /// handle).
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
            LIVE_RECORD_OPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current high-water mark (zero on the no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map(|g| g.load(Ordering::Relaxed)).unwrap_or(0)
    }
}

/// Deterministic 1-in-N session sampling for lifeline emission at scale.
///
/// Seeded by the session id alone (FNV-1a), so both execution paths — and
/// every re-run — select the identical subset of sessions.  `every <= 1`
/// samples everything (the always-on default, which leaves event logs
/// byte-identical to a telemetry-off run).
pub fn session_sampled(session: usize, every: u32) -> bool {
    if every <= 1 {
        return true;
    }
    let mut h = 0xcbf29ce484222325u64;
    for b in (session as u64).to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h.is_multiple_of(u64::from(every))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_floor_are_inverse_on_bucket_edges() {
        for i in 0..BUCKETS - SUBS {
            let floor = bucket_floor(i);
            assert_eq!(bucket_index(floor), i, "floor of bucket {i}");
        }
        // Every value lands in a bucket whose [floor, ceil] contains it.
        for &v in &[0u64, 1, 7, 8, 9, 100, 1023, 1024, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_floor(i) <= v, "{v}");
            assert!(v <= bucket_ceil(i), "{v}");
        }
    }

    #[test]
    fn histogram_percentiles_bound_the_true_values() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        // Bucket upper edges: never below the true percentile, at most 12.5%
        // above it.
        assert!((500..=563).contains(&p50), "p50 = {p50}");
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(s.quantile(1.0), 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.summary(), HistogramSummary::default());
    }

    #[test]
    fn disabled_hub_handles_perform_zero_record_ops() {
        // Asserted on the handles, not on the process-global
        // `live_record_ops` counter sibling tests bump concurrently; the
        // counter proof runs alone in `tests/telemetry_noop.rs`.
        let hub = MetricsHub::disabled();
        let h = hub.histogram("x");
        let c = hub.counter("y");
        let g = hub.high_water("z");
        for i in 0..10_000 {
            h.record(i);
            c.add(1);
            g.observe(i);
        }
        assert!(!h.is_live());
        let snap = hub.snapshot("t");
        assert!(snap.histograms.is_empty() && snap.counters.is_empty() && snap.high_waters.is_empty());
    }

    #[test]
    fn enabled_hub_records_and_snapshots() {
        let hub = MetricsHub::when(true);
        if !hub.is_enabled() {
            // telemetry feature compiled out: nothing to assert.
            return;
        }
        let before = live_record_ops();
        hub.histogram("lat").record(100);
        hub.histogram("lat").record(300);
        hub.add("events", 5);
        hub.observe_high_water("depth", 7);
        hub.observe_high_water("depth", 3);
        assert!(live_record_ops() > before);
        let snap = hub.snapshot("end");
        assert_eq!(snap.histograms["lat"].count, 2);
        assert_eq!(snap.histograms["lat"].max, 300);
        assert_eq!(snap.counters["events"], 5);
        assert_eq!(snap.high_waters["depth"], 7);
        let line = snap.to_jsonl();
        assert!(line.contains("\"at\""), "{line}");
        let back: MetricsSnapshot = serde_json::from_str(&line).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_series_accumulates_and_drains() {
        let hub = MetricsHub::when(true);
        if !hub.is_enabled() {
            return;
        }
        hub.add("n", 1);
        hub.record_snapshot("frame:1");
        hub.add("n", 1);
        hub.record_snapshot("frame:2");
        let series = hub.take_snapshots();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].counters["n"], 1);
        assert_eq!(series[1].counters["n"], 2);
        assert!(hub.take_snapshots().is_empty());
        // Disabled hubs accumulate nothing.
        let off = MetricsHub::disabled();
        off.record_snapshot("x");
        assert!(off.take_snapshots().is_empty());
    }

    #[test]
    fn cloned_hubs_share_instruments() {
        let hub = MetricsHub::when(true);
        if !hub.is_enabled() {
            return;
        }
        let clone = hub.clone();
        clone.histogram("shared").record(9);
        assert_eq!(hub.snapshot("t").histograms["shared"].count, 1);
    }

    #[test]
    fn session_sampling_is_deterministic_and_roughly_one_in_n() {
        assert!(session_sampled(42, 0));
        assert!(session_sampled(42, 1));
        let every = 8u32;
        let picked: Vec<usize> = (0..100_000).filter(|&s| session_sampled(s, every)).collect();
        let again: Vec<usize> = (0..100_000).filter(|&s| session_sampled(s, every)).collect();
        assert_eq!(picked, again, "sampling must be a pure function of the id");
        let rate = picked.len() as f64 / 100_000.0;
        assert!(
            (rate - 1.0 / f64::from(every)).abs() < 0.01,
            "sampling rate {rate} should be near 1/{every}"
        );
    }

    #[test]
    fn merged_summaries_are_conservative() {
        let mut a = HistogramSummary {
            count: 10,
            sum: 100,
            max: 50,
            p50: 10,
            p90: 30,
            p99: 45,
        };
        let b = HistogramSummary {
            count: 5,
            sum: 500,
            max: 200,
            p50: 90,
            p90: 150,
            p99: 190,
        };
        a.merge(&b);
        assert_eq!(a.count, 15);
        assert_eq!(a.sum, 600);
        assert_eq!(a.max, 200);
        assert_eq!(a.p99, 190);
    }
}
