//! Sharded session brokers: the service layer partitioned by viewpoint.
//!
//! One [`SessionBroker`] behind one lock serializes every join, eviction and
//! frame decision — measurably the dominant cost of the 10k-session async
//! plane.  [`ShardedBroker`] partitions the schedule into S independent
//! brokers by viewpoint hash: sessions sharing a viewpoint (and therefore a
//! shared render) always land in the same shard, each shard owns a
//! demand-proportional share of the admission capacity (session and link
//! budgets split by its scheduled sessions, render slots by its distinct
//! viewpoints — totals conserved exactly), and each shard's state
//! machine is the *unchanged* deterministic [`SessionBroker`].  Shard
//! telemetry folds back into one [`ServiceStats`], and the merged lifecycle
//! event stream is globally indexed — at `shards = 1` everything is
//! byte-identical to the plain broker, so replay fingerprints only move when
//! a scenario actually asks for sharding.
//!
//! A plain [`SessionBroker`] converts into the one-shard composite
//! (`From<SessionBroker>`), so the fan-out plane only ever drives this type.
//! The plane-side shards live behind counted locks, whose
//! acquisition/contention/hold counters ([`ShardLockStats`]) are reported so
//! a shard sweep can show where the lock time went.

use super::{ServiceConfig, ServiceStats, SessionBroker, SessionEvent, SessionSpec};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// FNV-1a shard assignment: the owning shard of a viewpoint.
pub(crate) fn shard_for_viewpoint(viewpoint: u32, shards: usize) -> usize {
    debug_assert!(shards >= 1);
    let mut h: u64 = 0xcbf29ce484222325;
    for b in viewpoint.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % shards as u64) as usize
}

/// Partition `total` capacity units across `parts` owners: owner `index`
/// gets `total / parts`, with the first `total % parts` owners absorbing the
/// remainder — so shares always sum exactly to `total` and
/// `share(t, 1, 0) == t`.
pub(crate) fn share(total: u64, parts: usize, index: usize) -> u64 {
    let parts = parts as u64;
    total / parts + u64::from((index as u64) < total % parts)
}

/// Apportion `total` capacity units across owners proportionally to
/// `weights` (largest-remainder method, ties to the lower index), summing
/// exactly to `total`.  Zero total weight falls back to the even
/// [`share`] split.  The sharded broker uses *demand* as the weight —
/// sessions map to shards by viewpoint hash, not uniformly, so an even
/// split would starve the shards the schedule actually lands on (a shard
/// holding every session of a hot viewpoint but `0` of the render slots
/// would reject all of them).
pub(crate) fn apportion(total: u64, weights: &[u64]) -> Vec<u64> {
    let sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    if sum == 0 {
        return (0..weights.len()).map(|i| share(total, weights.len(), i)).collect();
    }
    let mut shares: Vec<u64> = weights
        .iter()
        .map(|&w| (u128::from(total) * u128::from(w) / sum) as u64)
        .collect();
    let mut leftover = total - shares.iter().sum::<u64>();
    // Hand the leftover units to the largest fractional remainders.
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| {
        let rem = u128::from(total) * u128::from(weights[i]) % sum;
        (std::cmp::Reverse(rem), i)
    });
    for &i in &order {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    shares
}

// ---------------------------------------------------------------------------
// The sharded broker
// ---------------------------------------------------------------------------

/// S independent [`SessionBroker`]s presenting as one: the deterministic
/// scale-out seam of the service layer.
///
/// Sessions are assigned to shards by viewpoint hash, so shared renders never
/// straddle shards and `renders_performed` (distinct live viewpoints) sums
/// exactly.  Events carry *global* schedule indices; within a frame the
/// merged stream orders shard 0's decisions before shard 1's, which at
/// `shards = 1` degenerates to the plain broker's order bit for bit.
#[derive(Debug)]
pub struct ShardedBroker {
    config: ServiceConfig,
    shards: Vec<SessionBroker>,
    /// Per shard: the global schedule index of each local session.
    globals: Vec<Vec<usize>>,
}

impl ShardedBroker {
    /// Partition `schedule` into `config.shard_count()` brokers, each
    /// admitting against its demand-proportional share of the capacity:
    /// session slots and link units split by each shard's scheduled
    /// sessions (tier-weighted for the link), render slots by its distinct
    /// viewpoints.  The totals are conserved exactly (largest-remainder
    /// apportionment), so a
    /// shard sweep compares equal aggregate capacity at every S.
    pub fn new(config: ServiceConfig, schedule: Vec<SessionSpec>) -> ShardedBroker {
        let shards = config.shard_count();
        let mut schedules: Vec<Vec<SessionSpec>> = vec![Vec::new(); shards];
        let mut globals: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (global, spec) in schedule.into_iter().enumerate() {
            let shard = shard_for_viewpoint(spec.viewpoint, shards);
            schedules[shard].push(spec);
            globals[shard].push(global);
        }
        let sessions_w: Vec<u64> = schedules.iter().map(|s| s.len() as u64).collect();
        let units_w: Vec<u64> = schedules
            .iter()
            .map(|s| s.iter().map(|spec| spec.tier.cost_units()).sum())
            .collect();
        let viewpoints_w: Vec<u64> = schedules
            .iter()
            .map(|s| {
                let mut vps: Vec<u32> = s.iter().map(|spec| spec.viewpoint).collect();
                vps.sort_unstable();
                vps.dedup();
                vps.len() as u64
            })
            .collect();
        let max_sessions = apportion(config.max_sessions as u64, &sessions_w);
        let link_units = apportion(config.link_capacity_units, &units_w);
        let render_slots = apportion(u64::from(config.render_slots), &viewpoints_w);
        let brokers = schedules
            .into_iter()
            .enumerate()
            .map(|(i, shard_schedule)| {
                let shard_config = ServiceConfig {
                    max_sessions: max_sessions[i] as usize,
                    link_capacity_units: link_units[i],
                    render_slots: render_slots[i] as u32,
                    queue_depth: config.queue_depth,
                    farm_egress_mbps: config.farm_egress_mbps,
                    shards: None,
                };
                SessionBroker::new(shard_config, shard_schedule)
            })
            .collect();
        ShardedBroker {
            config,
            shards: brokers,
            globals,
        }
    }

    /// The global capacity configuration (before the per-shard split).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total sessions in the schedule across every shard.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(|s| s.session_count()).sum()
    }

    /// Advance every shard to `frame`.  Returns the new lifecycle events in
    /// merged order (frame ascending, shard order within a frame), with
    /// global session indices.
    pub fn advance_to(&mut self, frame: u32) -> Vec<SessionEvent> {
        let starts: Vec<usize> = self.shards.iter().map(|s| s.events().len()).collect();
        for shard in &mut self.shards {
            shard.advance_to(frame);
        }
        self.merged_since(&starts).into_iter().map(|(_, e)| e).collect()
    }

    /// End of campaign: every still-live session leaves, on every shard.
    pub fn finish(&mut self) -> Vec<SessionEvent> {
        let starts: Vec<usize> = self.shards.iter().map(|s| s.events().len()).collect();
        for shard in &mut self.shards {
            shard.finish();
        }
        self.merged_since(&starts).into_iter().map(|(_, e)| e).collect()
    }

    /// Every lifecycle event so far, merged across shards with global
    /// session indices.
    pub fn events(&self) -> Vec<(u32, SessionEvent)> {
        self.merged_since(&vec![0; self.shards.len()])
    }

    /// Summed telemetry across shards.  `peak_live_sessions` is recomputed
    /// as the true global peak (the max over frames of the summed per-shard
    /// live counts), not the max of per-shard peaks.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = ServiceStats::default();
        for shard in &self.shards {
            stats.merge(shard.stats());
        }
        let frames = self.shards.iter().map(|s| s.next_frame()).max().unwrap_or(0);
        let mut peak = 0u64;
        for f in 0..frames {
            peak = peak.max(self.live_count_at(f));
        }
        stats.peak_live_sessions = peak;
        stats
    }

    /// Sessions live at an already-processed frame, summed across shards.
    pub fn live_count_at(&self, frame: u32) -> u64 {
        self.shards.iter().map(|s| s.live_count_at(frame)).sum()
    }

    /// Fold the offered fan-out load into every shard's stats (each weights
    /// the per-frame chunk counts by its own live sessions; the sum is the
    /// global weighting).
    pub fn fold_fanout_load(&mut self, per_frame: &[(u64, u64)]) {
        for shard in &mut self.shards {
            shard.fold_fanout_load(per_frame);
        }
    }

    /// Split into the per-shard brokers and their global index maps (the
    /// plane puts each broker behind its own lock), keeping the config.
    pub(crate) fn into_parts(self) -> (ServiceConfig, Vec<SessionBroker>, Vec<Vec<usize>>) {
        (self.config, self.shards, self.globals)
    }

    /// Reassemble after a plane run, for the final stats/events fold.
    pub(crate) fn from_parts(
        config: ServiceConfig,
        shards: Vec<SessionBroker>,
        globals: Vec<Vec<usize>>,
    ) -> ShardedBroker {
        ShardedBroker {
            config,
            shards,
            globals,
        }
    }

    /// The per-shard capacity configs the partition computed (test-only:
    /// the differential oracle rebuilds each shard's twin from these).
    #[cfg(test)]
    pub(crate) fn shard_configs(&self) -> Vec<ServiceConfig> {
        self.shards.iter().map(|s| s.config().clone()).collect()
    }

    /// The per-shard sub-schedules, in shard-local order (test-only).
    #[cfg(test)]
    pub(crate) fn shard_schedules(&self) -> Vec<Vec<SessionSpec>> {
        self.shards
            .iter()
            .map(|s| (0..s.session_count()).map(|i| s.spec(i).clone()).collect())
            .collect()
    }

    /// One shard's raw (shard-local) event stream (test-only).
    #[cfg(test)]
    pub(crate) fn shard_events(&self, shard: usize) -> &[(u32, SessionEvent)] {
        self.shards[shard].events()
    }

    /// Merge each shard's events from `starts[shard]` onward: frame
    /// ascending, shard order within a frame, intra-shard order preserved,
    /// local indices remapped to global.
    fn merged_since(&self, starts: &[usize]) -> Vec<(u32, SessionEvent)> {
        let mut cursors = starts.to_vec();
        let mut merged = Vec::new();
        loop {
            let mut best: Option<(u32, usize)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                if let Some(&(frame, _)) = shard.events().get(cursors[i]) {
                    if best.map(|(bf, _)| frame < bf).unwrap_or(true) {
                        best = Some((frame, i));
                    }
                }
            }
            let Some((frame, i)) = best else { break };
            while let Some(&(f, event)) = self.shards[i].events().get(cursors[i]) {
                if f != frame {
                    break;
                }
                merged.push((frame, remap_event(event, &self.globals[i])));
                cursors[i] += 1;
            }
        }
        merged
    }
}

/// A plain broker is the one-shard sharded broker: its schedule order is
/// already the global order.  This is how single-broker callers reach the one
/// fan-out plane.
impl From<SessionBroker> for ShardedBroker {
    fn from(broker: SessionBroker) -> ShardedBroker {
        ShardedBroker {
            config: broker.config().clone(),
            globals: vec![(0..broker.session_count()).collect()],
            shards: vec![broker],
        }
    }
}

/// Rewrite an event's local schedule index to the global one.
fn remap_event(event: SessionEvent, globals: &[usize]) -> SessionEvent {
    match event {
        SessionEvent::Admitted { session } => SessionEvent::Admitted {
            session: globals[session],
        },
        SessionEvent::Rejected { session, reason } => SessionEvent::Rejected {
            session: globals[session],
            reason,
        },
        SessionEvent::Evicted { session } => SessionEvent::Evicted {
            session: globals[session],
        },
        SessionEvent::Left { session } => SessionEvent::Left {
            session: globals[session],
        },
    }
}

// ---------------------------------------------------------------------------
// Counted locks
// ---------------------------------------------------------------------------

/// Per-shard lock telemetry: where the plane's lock time went.
///
/// Timing-dependent (like the delivery counters), so never fingerprinted;
/// reported so a shard sweep can prove whether the single-lock serialization
/// actually dissolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLockStats {
    /// Which shard this lock guarded.
    pub shard: usize,
    /// Times the lock was taken.
    pub acquisitions: u64,
    /// Acquisitions that found the lock already held (blocked).
    pub contended: u64,
    /// Total nanoseconds the lock was held.
    pub hold_ns: u64,
}

/// A mutex that counts acquisitions, contention, and hold time.
pub(crate) struct CountedLock<T> {
    inner: Mutex<T>,
    acquisitions: AtomicU64,
    contended: AtomicU64,
    hold_ns: AtomicU64,
}

impl<T> CountedLock<T> {
    pub(crate) fn new(value: T) -> CountedLock<T> {
        CountedLock {
            inner: Mutex::new(value),
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            hold_ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn lock(&self) -> CountedGuard<'_, T> {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        let probe = self.inner.try_lock();
        if probe.is_none() {
            self.contended.fetch_add(1, Ordering::Relaxed);
        }
        // Under lockdep a successful probe is re-taken through the blocking
        // path: try_lock records no ordering edges, and the shard locks are
        // exactly what the deadlock detector is here to watch.
        #[cfg(feature = "lockdep")]
        let guard = {
            drop(probe);
            self.inner.lock()
        };
        #[cfg(not(feature = "lockdep"))]
        let guard = match probe {
            Some(g) => g,
            None => self.inner.lock(),
        };
        CountedGuard {
            guard,
            held_since: Instant::now(),
            hold_ns: &self.hold_ns,
        }
    }

    /// Name this lock in lockdep cycle reports (no-op without the feature).
    pub(crate) fn lockdep_label(&self, label: &str) {
        self.inner.lockdep_label(label);
    }

    /// Snapshot the counters as this shard's report entry.
    pub(crate) fn stats(&self, shard: usize) -> ShardLockStats {
        ShardLockStats {
            shard,
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            hold_ns: self.hold_ns.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

pub(crate) struct CountedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    held_since: Instant,
    hold_ns: &'a AtomicU64,
}

impl<T> std::ops::Deref for CountedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for CountedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for CountedGuard<'_, T> {
    fn drop(&mut self) {
        let ns = self.held_since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.hold_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::super::QualityTier;
    use super::*;

    fn spec(name: &str, viewpoint: u32, tier: QualityTier) -> SessionSpec {
        SessionSpec::new(name, viewpoint, tier)
    }

    fn mixed_schedule() -> Vec<SessionSpec> {
        (0..24)
            .map(|i| {
                let tier = match i % 3 {
                    0 => QualityTier::Interactive,
                    1 => QualityTier::Standard,
                    _ => QualityTier::Preview,
                };
                spec(&format!("s{i}"), i % 7, tier).with_window(i % 4, if i % 5 == 0 { Some(6) } else { None })
            })
            .collect()
    }

    #[test]
    fn shares_sum_to_the_total_and_are_near_even() {
        for total in [1u64, 7, 8, 64, 257] {
            for parts in [1usize, 2, 3, 8, 13] {
                let shares: Vec<u64> = (0..parts).map(|i| share(total, parts, i)).collect();
                assert_eq!(shares.iter().sum::<u64>(), total, "total {total} x {parts}");
                let (min, max) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
                assert!(max - min <= 1, "uneven split {shares:?}");
            }
        }
        assert_eq!(share(64, 1, 0), 64);
    }

    #[test]
    fn apportion_follows_demand_and_conserves_the_total() {
        // Proportional, exact total, deterministic.
        assert_eq!(apportion(10, &[1, 1]), vec![5, 5]);
        assert_eq!(apportion(8, &[3, 1]), vec![6, 2]);
        assert_eq!(
            apportion(7, &[2, 1]),
            vec![5, 2],
            "largest remainder takes the leftover"
        );
        // A shard with no demand gets nothing; a demanding shard is never
        // starved while slots outnumber the demanding shards.
        assert_eq!(apportion(4, &[0, 0, 0, 0, 1, 1, 1, 1]), vec![0, 0, 0, 0, 1, 1, 1, 1]);
        // Zero demand everywhere: fall back to the even split.
        assert_eq!(apportion(5, &[0, 0]), vec![3, 2]);
        // One shard owns everything.
        assert_eq!(apportion(64, &[17]), vec![64]);
        for total in [1u64, 7, 64, 10_000] {
            for weights in [vec![5, 0, 3, 9], vec![1, 2, 3, 4, 5], vec![0, 0, 7]] {
                assert_eq!(
                    apportion(total, &weights).iter().sum::<u64>(),
                    total,
                    "{total} x {weights:?}"
                );
            }
        }
    }

    #[test]
    fn sharding_a_hot_viewpoint_does_not_starve_its_shard() {
        // 4 viewpoints hashed into 8 shards: at most 4 shards own sessions.
        // An even split would hand render slots to empty shards and reject
        // everything; the demand split must admit every session.
        let config = ServiceConfig {
            max_sessions: 128,
            link_capacity_units: 1024,
            render_slots: 4,
            queue_depth: 8,
            shards: Some(8),
            ..ServiceConfig::default()
        };
        let schedule: Vec<SessionSpec> = (0..128)
            .map(|i| spec(&format!("s{i}"), i % 4, QualityTier::Standard))
            .collect();
        let mut sharded = ShardedBroker::new(config, schedule);
        sharded.advance_to(0);
        sharded.finish();
        let stats = sharded.stats();
        assert_eq!(stats.sessions_admitted, 128, "{stats:?}");
        assert_eq!(stats.sessions_rejected, 0, "{stats:?}");
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 8] {
            for vp in 0..256u32 {
                let s = shard_for_viewpoint(vp, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for_viewpoint(vp, shards), "stable per viewpoint");
            }
        }
    }

    #[test]
    fn one_shard_is_byte_identical_to_the_plain_broker() {
        let config = ServiceConfig {
            max_sessions: 12,
            link_capacity_units: 30,
            render_slots: 4,
            queue_depth: 8,
            shards: Some(1),
            ..ServiceConfig::default()
        };
        let mut plain = SessionBroker::new(config.clone(), mixed_schedule());
        let mut sharded = ShardedBroker::new(config, mixed_schedule());
        for frame in [0, 2, 5, 9] {
            assert_eq!(plain.advance_to(frame), sharded.advance_to(frame), "frame {frame}");
        }
        assert_eq!(plain.finish(), sharded.finish());
        plain.fold_fanout_load(&[(3, 300); 10]);
        sharded.fold_fanout_load(&[(3, 300); 10]);
        assert_eq!(plain.stats(), &sharded.stats());
        assert_eq!(plain.events(), &sharded.events()[..]);
    }

    #[test]
    fn shards_partition_the_schedule_by_viewpoint_and_conserve_the_counters() {
        let config = ServiceConfig {
            max_sessions: 24,
            link_capacity_units: 96,
            render_slots: 8,
            queue_depth: 8,
            shards: Some(4),
            ..ServiceConfig::default()
        };
        let schedule = mixed_schedule();
        let mut sharded = ShardedBroker::new(config, schedule.clone());
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.session_count(), schedule.len());
        sharded.advance_to(9);
        sharded.finish();
        let stats = sharded.stats();
        assert_eq!(stats.sessions_offered, schedule.len() as u64);
        assert_eq!(
            stats.sessions_admitted + stats.sessions_rejected,
            stats.sessions_offered,
            "every offered session is decided exactly once (none were evicted-then-recounted here): {stats:?}"
        );
        // The merged event stream uses global indices: every index in range,
        // each session admitted or rejected at most once.
        let events = sharded.events();
        let mut decided = std::collections::HashSet::new();
        for (_, e) in &events {
            assert!(e.session() < schedule.len());
            if matches!(e, SessionEvent::Admitted { .. } | SessionEvent::Rejected { .. }) {
                assert!(decided.insert(e.session()), "double decision for {}", e.session());
            }
        }
        // Frames are non-decreasing in the merged stream.
        for pair in events.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        // Determinism: a second run is bit-identical.
        let mut again = ShardedBroker::new(
            ServiceConfig {
                max_sessions: 24,
                link_capacity_units: 96,
                render_slots: 8,
                queue_depth: 8,
                shards: Some(4),
                ..ServiceConfig::default()
            },
            schedule,
        );
        again.advance_to(9);
        again.finish();
        assert_eq!(stats, again.stats());
        assert_eq!(events, again.events());
    }

    #[test]
    fn counted_lock_counts_acquisitions_and_contention() {
        let lock = std::sync::Arc::new(CountedLock::new(0u64));
        {
            let mut g = lock.lock();
            *g += 1;
        }
        let stats = lock.stats(3);
        assert_eq!(stats.shard, 3);
        assert_eq!(stats.acquisitions, 1);
        assert_eq!(stats.contended, 0);
        // Contention: a second thread acquires while the holder spins until
        // the waiter has registered contention (the counter increments before
        // blocking), so no wall-clock sleep is needed.
        let other = std::sync::Arc::clone(&lock);
        let held = lock.lock();
        let waiter = std::thread::spawn(move || {
            let mut g = other.lock();
            *g += 1;
        });
        while lock.stats(0).contended == 0 {
            std::thread::yield_now();
        }
        drop(held);
        waiter.join().unwrap();
        let stats = lock.stats(0);
        assert_eq!(stats.acquisitions, 3);
        assert!(stats.contended >= 1, "{stats:?}");
        assert!(stats.hold_ns > 0);
        let lock = std::sync::Arc::try_unwrap(lock).ok().expect("sole owner");
        assert_eq!(lock.into_inner(), 2);
    }
}
