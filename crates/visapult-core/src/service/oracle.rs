//! The retained naive-scan broker: the differential oracle for the indexed
//! admission ledger (test-only).
//!
//! [`ScanBroker`] is the pre-ledger [`super::SessionBroker`] implementation,
//! kept verbatim: every admission question answered by scanning the `live`
//! vector (re-summing tier costs and rebuilding a viewpoint `HashSet` per
//! probe), every eviction and leave an O(live) `retain`, every per-frame
//! joiner found by scanning the whole schedule.  O(N²) on a frame-0 burst —
//! which is exactly why it is trustworthy as an oracle: the decision logic
//! is written directly against the constraint definitions, with no index to
//! fall out of sync.
//!
//! The differential property tests at the bottom drive both brokers over
//! randomized arrival mixes (joins, dwells, tiers, viewpoints, capacities)
//! and require decision-for-decision equality: identical event
//! streams (admission order, reject reasons, eviction victim order including
//! the spare-minimization pass), identical per-advance returns, identical
//! stats, identical live sets.

use super::{RejectReason, ServiceConfig, ServiceStats, SessionEvent, SessionSpec};
use std::collections::HashSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    Pending,
    Live,
    Rejected,
    Evicted,
    Left,
}

/// The scan-based admission state machine (see the module docs).
#[derive(Debug)]
pub(crate) struct ScanBroker {
    config: ServiceConfig,
    schedule: Vec<SessionSpec>,
    state: Vec<SessionState>,
    /// Live schedule indices, in admission order.
    live: Vec<usize>,
    next_frame: u32,
    live_per_frame: Vec<(u64, u64)>,
    events: Vec<(u32, SessionEvent)>,
    stats: ServiceStats,
}

impl ScanBroker {
    pub(crate) fn new(config: ServiceConfig, schedule: Vec<SessionSpec>) -> ScanBroker {
        let stats = ServiceStats {
            sessions_offered: schedule.len() as u64,
            ..ServiceStats::default()
        };
        ScanBroker {
            state: vec![SessionState::Pending; schedule.len()],
            live: Vec::new(),
            next_frame: 0,
            live_per_frame: Vec::new(),
            events: Vec::new(),
            stats,
            config,
            schedule,
        }
    }

    pub(crate) fn live(&self) -> &[usize] {
        &self.live
    }

    pub(crate) fn live_count_at(&self, frame: u32) -> u64 {
        self.live_per_frame.get(frame as usize).map(|&(l, _)| l).unwrap_or(0)
    }

    pub(crate) fn events(&self) -> &[(u32, SessionEvent)] {
        &self.events
    }

    pub(crate) fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    fn cost(&self, session: usize) -> u64 {
        self.schedule[session].tier.cost_units()
    }

    /// First violated constraint if `incoming` joined the sessions in `live`.
    fn admission_block(&self, live: &[usize], incoming: usize) -> Option<RejectReason> {
        if live.len() + 1 > self.config.max_sessions {
            return Some(RejectReason::SessionSlots);
        }
        let units: u64 = live.iter().map(|&s| self.cost(s)).sum::<u64>() + self.cost(incoming);
        if units > self.config.link_capacity_units {
            return Some(RejectReason::LinkCapacity);
        }
        let mut viewpoints: HashSet<u32> = live.iter().map(|&s| self.schedule[s].viewpoint).collect();
        viewpoints.insert(self.schedule[incoming].viewpoint);
        if viewpoints.len() as u32 > self.config.render_slots {
            return Some(RejectReason::RenderSlots);
        }
        None
    }

    fn try_admit(&mut self, frame: u32, session: usize) {
        if self.admission_block(&self.live, session).is_none() {
            self.admit(frame, session);
            return;
        }
        let newcomer_priority = self.schedule[session].tier.priority();
        let mut candidates: Vec<(usize, usize)> = self
            .live
            .iter()
            .enumerate()
            .filter(|&(_, &s)| self.schedule[s].tier.priority() < newcomer_priority)
            .map(|(pos, &s)| (pos, s))
            .collect();
        candidates.sort_by_key(|&(pos, s)| (self.schedule[s].tier.priority(), std::cmp::Reverse(pos)));
        let mut victims: Vec<usize> = Vec::new();
        let mut remaining: Vec<usize> = self.live.clone();
        let mut feasible = false;
        for &(_, victim) in &candidates {
            remaining.retain(|&s| s != victim);
            victims.push(victim);
            if self.admission_block(&remaining, session).is_none() {
                feasible = true;
                break;
            }
        }
        if !feasible {
            let reason = self
                .admission_block(&self.live, session)
                .expect("admission was blocked");
            self.state[session] = SessionState::Rejected;
            self.stats.sessions_rejected += 1;
            self.events.push((frame, SessionEvent::Rejected { session, reason }));
            return;
        }
        let mut spared: HashSet<usize> = HashSet::new();
        for &candidate in &victims {
            let trial: Vec<usize> = self
                .live
                .iter()
                .copied()
                .filter(|s| !victims.contains(s) || spared.contains(s) || *s == candidate)
                .collect();
            if self.admission_block(&trial, session).is_none() {
                spared.insert(candidate);
            }
        }
        victims.retain(|v| !spared.contains(v));
        for victim in victims {
            self.live.retain(|&s| s != victim);
            self.state[victim] = SessionState::Evicted;
            self.stats.sessions_evicted += 1;
            self.events.push((frame, SessionEvent::Evicted { session: victim }));
        }
        self.admit(frame, session);
    }

    fn admit(&mut self, frame: u32, session: usize) {
        self.live.push(session);
        self.state[session] = SessionState::Live;
        self.stats.sessions_admitted += 1;
        if let (Some(pace), Some(farm)) = (self.schedule[session].pace_rate_mbps, self.config.farm_egress_mbps) {
            if pace < farm {
                self.stats.flow_limited_sessions += 1;
            }
        }
        self.events.push((frame, SessionEvent::Admitted { session }));
    }

    pub(crate) fn advance_to(&mut self, frame: u32) -> Vec<SessionEvent> {
        let first_new = self.events.len();
        while self.next_frame <= frame {
            let f = self.next_frame;
            let leavers: Vec<usize> = self
                .live
                .iter()
                .copied()
                .filter(|&s| self.schedule[s].leave_frame == Some(f))
                .collect();
            for s in leavers {
                self.live.retain(|&l| l != s);
                self.state[s] = SessionState::Left;
                self.events.push((f, SessionEvent::Left { session: s }));
            }
            let joiners: Vec<usize> = (0..self.schedule.len())
                .filter(|&s| self.state[s] == SessionState::Pending && self.schedule[s].join_frame == f)
                .collect();
            for s in joiners {
                if !self.schedule[s].live_at(f) {
                    self.state[s] = SessionState::Left;
                    continue;
                }
                self.try_admit(f, s);
            }
            let live = self.live.len() as u64;
            let viewpoints = self
                .live
                .iter()
                .map(|&s| self.schedule[s].viewpoint)
                .collect::<HashSet<u32>>()
                .len() as u64;
            self.live_per_frame.push((live, viewpoints));
            self.stats.render_requests += live;
            self.stats.renders_performed += viewpoints;
            self.stats.peak_live_sessions = self.stats.peak_live_sessions.max(live);
            self.next_frame += 1;
        }
        self.events[first_new..].iter().map(|&(_, e)| e).collect()
    }

    pub(crate) fn finish(&mut self) -> Vec<SessionEvent> {
        let frame = self.next_frame;
        let first_new = self.events.len();
        for s in std::mem::take(&mut self.live) {
            self.state[s] = SessionState::Left;
            self.events.push((frame, SessionEvent::Left { session: s }));
        }
        self.events[first_new..].iter().map(|&(_, e)| e).collect()
    }

    pub(crate) fn fold_fanout_load(&mut self, per_frame: &[(u64, u64)]) {
        for (f, &(chunks, bytes)) in per_frame.iter().enumerate() {
            let live = self.live_count_at(f as u32);
            self.stats.fanout_chunks += chunks * live;
            self.stats.fanout_bytes += bytes * live;
        }
    }
}

#[cfg(test)]
mod differential {
    use super::super::{QualityTier, SessionBroker};
    use super::*;
    use proptest::prelude::*;

    const TIERS: [QualityTier; 3] = [QualityTier::Preview, QualityTier::Standard, QualityTier::Interactive];

    /// A randomized arrival mix: (join, dwell, viewpoint, tier) per session.
    fn arrival_mix() -> impl Strategy<Value = Vec<(u32, u32, u32, usize)>> {
        proptest::collection::vec((0u32..6, 0u32..7, 0u32..6, 0usize..3), 1..24)
    }

    fn schedule_from(mix: &[(u32, u32, u32, usize)], frames: u32) -> Vec<SessionSpec> {
        mix.iter()
            .enumerate()
            .map(|(i, &(join, dwell, viewpoint, tier))| {
                let mut spec = SessionSpec::new(format!("s{i}"), viewpoint, TIERS[tier]);
                spec.join_frame = join.min(frames.saturating_sub(1));
                // dwell == 0 leaves `leave_frame` unset (stays to the end);
                // a dwell can also expire before the join, exercising the
                // never-materializes path.
                if dwell > 0 {
                    spec.leave_frame = Some((spec.join_frame + dwell - 1).min(frames));
                }
                spec
            })
            .collect()
    }

    /// Drive both brokers frame by frame and require decision-for-decision
    /// equality: per-advance event returns, the full timestamped event
    /// stream, stats, and the live set after every frame.
    fn assert_identical(config: &ServiceConfig, schedule: &[SessionSpec], frames: u32) {
        let mut indexed = SessionBroker::new(config.clone(), schedule.to_vec());
        let mut oracle = ScanBroker::new(config.clone(), schedule.to_vec());
        for f in 0..frames {
            assert_eq!(
                indexed.advance_to(f),
                oracle.advance_to(f),
                "frame {f} decisions diverged\nconfig: {config:?}\nschedule: {schedule:?}"
            );
            assert_eq!(indexed.live(), oracle.live(), "live set diverged at frame {f}");
        }
        assert_eq!(indexed.finish(), oracle.finish(), "finish() diverged");
        let per_frame: Vec<(u64, u64)> = (0..frames)
            .map(|f| (u64::from(f) + 2, (u64::from(f) + 1) * 100))
            .collect();
        indexed.fold_fanout_load(&per_frame);
        oracle.fold_fanout_load(&per_frame);
        assert_eq!(indexed.stats(), oracle.stats(), "stats diverged");
        assert_eq!(indexed.events(), oracle.events(), "event streams diverged");
        for f in 0..frames {
            assert_eq!(indexed.live_count_at(f), oracle.live_count_at(f), "live_count_at({f})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Pooled single-backend capacity, squeezed so bigger mixes force
        /// rejections and eviction cascades (with spared victims).
        #[test]
        fn indexed_ledger_matches_the_scan_oracle_under_churn(
            mix in arrival_mix(),
            frames in 3u32..9,
            max_sessions in 2usize..9,
            link_units in 4u64..20,
            render_slots in 1u32..5,
        ) {
            let config = ServiceConfig {
                max_sessions,
                link_capacity_units: link_units,
                render_slots,
                queue_depth: 8,
                ..ServiceConfig::default()
            };
            assert_identical(&config, &schedule_from(&mix, frames), frames);
        }
    }
}
