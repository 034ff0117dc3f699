//! The indexed admission ledger: incrementally-maintained broker state.
//!
//! The original [`super::SessionBroker`] answered every admission question by
//! scanning its `live` vector — re-summing all live tier costs and rebuilding
//! a viewpoint `HashSet` per join, and `retain`-ing the vector per eviction
//! or leave.  A frame-0 burst of N joins was therefore O(N²), which a
//! lock-contention sweep measured as the dominant cost at 10k sessions
//! (`contended=0` everywhere: the lock was never the problem, the scan was).
//!
//! [`AdmissionLedger`] replaces the scans with indexed state kept exact on
//! every insert/remove:
//!
//! * `units_in_use` — a running accumulator of live tier costs (the
//!   link-capacity check becomes one comparison);
//! * `viewpoint_refs` — live sessions per viewpoint, so the shared-render
//!   accounting (distinct live viewpoints) is O(1) per join/leave;
//! * `by_seq` — the live set keyed by a monotonic admission sequence, so
//!   admission order survives O(log N) removals (the order the scan broker
//!   got for free from its vector);
//! * `by_priority` — per-tier copies of the same index, so the greedy
//!   eviction cascade walks its exact victim order (lowest tier first, most
//!   recently admitted first within a tier) without scanning `live`.
//!
//! A [`Trial`] overlays what-if removals on the ledger without mutating it,
//! which is how the cascade and its spare-the-non-load-bearing-victims
//! minimization pass replay the scan broker's decisions bit for bit: every
//! feasibility probe the old code answered by scanning a candidate vector is
//! answered here from the same numbers, maintained incrementally.  The
//! retained scan implementation (`super::oracle`, test-only) pins that
//! equivalence decision-for-decision.

use std::collections::{BTreeMap, HashMap};

/// Per-session admission facts, precomputed once so the hot path never
/// re-derives them from the spec.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionProfile {
    /// Link-capacity units the session consumes while live.
    pub cost: u64,
    /// Render key (shared-render refcount bucket).
    pub viewpoint: u32,
    /// Eviction priority of the session's tier (0 = first to evict).
    pub priority: u8,
}

/// A read-only snapshot of admission capacity: either the live ledger itself
/// or a [`Trial`] overlay with victims hypothetically removed.  The broker's
/// constraint checks are written against this view, so the fast path and the
/// eviction cascade share one implementation.
pub(crate) trait CapacityView {
    /// Live sessions in the view.
    fn live_count(&self) -> usize;
    /// Σ tier cost over the view's live sessions.
    fn units_in_use(&self) -> u64;
    /// Distinct viewpoints held by the view's live sessions.
    fn distinct_viewpoints(&self) -> u32;
    /// True when at least one live session in the view holds `viewpoint`.
    fn holds_viewpoint(&self, viewpoint: u32) -> bool;
}

/// The incrementally-maintained live-session index.
#[derive(Debug)]
pub(crate) struct AdmissionLedger {
    /// Precomputed admission facts per schedule index.
    profiles: Vec<SessionProfile>,
    /// Live sessions keyed by admission sequence (ascending = admission
    /// order, exactly the order the scan broker's `live` vector kept).
    by_seq: BTreeMap<u64, usize>,
    /// Admission sequence of each live session (`None` when not live).
    seq_of: Vec<Option<u64>>,
    /// Next admission sequence; monotonic across the whole run so recency
    /// comparisons never wrap or collide.
    next_seq: u64,
    /// Running Σ tier cost over the live set.
    units_in_use: u64,
    /// Live sessions per viewpoint; `len()` is the distinct-viewpoint count.
    viewpoint_refs: HashMap<u32, u32>,
    /// The live set bucketed by tier priority, same keys as `by_seq`: the
    /// eviction cascade's candidate index.
    by_priority: [BTreeMap<u64, usize>; 3],
}

impl AdmissionLedger {
    /// An empty ledger over `profiles`.
    pub(crate) fn new(profiles: Vec<SessionProfile>) -> AdmissionLedger {
        AdmissionLedger {
            seq_of: vec![None; profiles.len()],
            by_seq: BTreeMap::new(),
            next_seq: 0,
            units_in_use: 0,
            viewpoint_refs: HashMap::new(),
            by_priority: [BTreeMap::new(), BTreeMap::new(), BTreeMap::new()],
            profiles,
        }
    }

    /// Admission sequence of `session` while live (`None` otherwise); doubles
    /// as the liveness test and as the admission-order sort key.
    pub(crate) fn seq(&self, session: usize) -> Option<u64> {
        self.seq_of[session]
    }

    /// Live schedule indices in admission order.
    pub(crate) fn live_in_admission_order(&self) -> Vec<usize> {
        self.by_seq.values().copied().collect()
    }

    /// Admit `session`: O(log live).
    pub(crate) fn insert(&mut self, session: usize) {
        debug_assert!(self.seq_of[session].is_none(), "double admit of session {session}");
        let p = self.profiles[session];
        let seq = self.next_seq;
        self.next_seq += 1;
        self.seq_of[session] = Some(seq);
        self.by_seq.insert(seq, session);
        self.by_priority[usize::from(p.priority)].insert(seq, session);
        self.units_in_use += p.cost;
        *self.viewpoint_refs.entry(p.viewpoint).or_insert(0) += 1;
    }

    /// Remove a live `session` (leave or eviction): O(log live).
    pub(crate) fn remove(&mut self, session: usize) {
        let seq = self.seq_of[session].take().expect("remove of a non-live session");
        let p = self.profiles[session];
        self.by_seq.remove(&seq);
        self.by_priority[usize::from(p.priority)].remove(&seq);
        self.units_in_use -= p.cost;
        let refs = self.viewpoint_refs.get_mut(&p.viewpoint).expect("viewpoint refcounted");
        *refs -= 1;
        if *refs == 0 {
            self.viewpoint_refs.remove(&p.viewpoint);
        }
    }

    /// Drain every live session in admission order, resetting all counters
    /// (end of campaign).
    pub(crate) fn drain(&mut self) -> Vec<usize> {
        let live = self.live_in_admission_order();
        self.by_seq.clear();
        for tier in &mut self.by_priority {
            tier.clear();
        }
        for s in &live {
            self.seq_of[*s] = None;
        }
        self.units_in_use = 0;
        self.viewpoint_refs.clear();
        live
    }

    /// Eviction candidates for a newcomer of `priority`, in the exact greedy
    /// cascade order: strictly lower tiers only, lowest tier first, most
    /// recently admitted first within a tier.
    pub(crate) fn candidates_below(&self, priority: u8) -> impl Iterator<Item = usize> + '_ {
        self.by_priority[..usize::from(priority)]
            .iter()
            .flat_map(|tier| tier.values().rev().copied())
    }

    /// Start a what-if overlay that can hypothetically remove (and restore)
    /// live sessions without touching the ledger.
    pub(crate) fn trial(&self) -> Trial<'_> {
        Trial {
            ledger: self,
            removed_count: 0,
            removed_units: 0,
            vp_removed: HashMap::new(),
            freed_distinct: 0,
        }
    }
}

impl CapacityView for AdmissionLedger {
    fn live_count(&self) -> usize {
        self.by_seq.len()
    }

    fn units_in_use(&self) -> u64 {
        self.units_in_use
    }

    fn distinct_viewpoints(&self) -> u32 {
        self.viewpoint_refs.len() as u32
    }

    fn holds_viewpoint(&self, viewpoint: u32) -> bool {
        self.viewpoint_refs.contains_key(&viewpoint)
    }
}

/// A what-if overlay on the ledger: victims marked removed here subtract
/// from every [`CapacityView`] answer, at O(1) per mark, without mutating
/// the ledger.  The eviction cascade removes candidates one by one until the
/// newcomer fits; the spare pass restores each victim in turn to ask whether
/// its eviction was load-bearing.
pub(crate) struct Trial<'a> {
    ledger: &'a AdmissionLedger,
    removed_count: usize,
    removed_units: u64,
    /// Hypothetically removed sessions per viewpoint.
    vp_removed: HashMap<u32, u32>,
    /// Viewpoints whose every live holder is removed in this trial.
    freed_distinct: u32,
}

impl Trial<'_> {
    /// Hypothetically remove a live session.
    pub(crate) fn remove(&mut self, session: usize) {
        let p = self.ledger.profiles[session];
        debug_assert!(
            self.ledger.seq_of[session].is_some(),
            "trial removal of a non-live session"
        );
        self.removed_count += 1;
        self.removed_units += p.cost;
        let removed = self.vp_removed.entry(p.viewpoint).or_insert(0);
        *removed += 1;
        if *removed == self.ledger.viewpoint_refs[&p.viewpoint] {
            self.freed_distinct += 1;
        }
    }

    /// Undo a hypothetical removal (the spare-minimization pass).
    pub(crate) fn restore(&mut self, session: usize) {
        let p = self.ledger.profiles[session];
        let removed = self
            .vp_removed
            .get_mut(&p.viewpoint)
            .expect("restore of a non-removed session");
        if *removed == self.ledger.viewpoint_refs[&p.viewpoint] {
            self.freed_distinct -= 1;
        }
        *removed -= 1;
        if *removed == 0 {
            self.vp_removed.remove(&p.viewpoint);
        }
        self.removed_count -= 1;
        self.removed_units -= p.cost;
    }
}

impl CapacityView for Trial<'_> {
    fn live_count(&self) -> usize {
        self.ledger.live_count() - self.removed_count
    }

    fn units_in_use(&self) -> u64 {
        self.ledger.units_in_use - self.removed_units
    }

    fn distinct_viewpoints(&self) -> u32 {
        self.ledger.distinct_viewpoints() - self.freed_distinct
    }

    fn holds_viewpoint(&self, viewpoint: u32) -> bool {
        let held = self.ledger.viewpoint_refs.get(&viewpoint).copied().unwrap_or(0);
        held > self.vp_removed.get(&viewpoint).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> Vec<SessionProfile> {
        // Sessions 0..5: viewpoints 0,0,1,2,2 / costs 1,2,4,2,1 /
        // priorities 0,1,2,1,0.
        [(0u32, 1u64, 0u8), (0, 2, 1), (1, 4, 2), (2, 2, 1), (2, 1, 0)]
            .into_iter()
            .map(|(viewpoint, cost, priority)| SessionProfile {
                cost,
                viewpoint,
                priority,
            })
            .collect()
    }

    #[test]
    fn insert_and_remove_keep_every_counter_exact() {
        let mut ledger = AdmissionLedger::new(profiles());
        for s in 0..5 {
            ledger.insert(s);
        }
        assert_eq!(ledger.live_count(), 5);
        assert_eq!(ledger.units_in_use(), 10);
        assert_eq!(ledger.distinct_viewpoints(), 3);
        assert_eq!(ledger.live_in_admission_order(), vec![0, 1, 2, 3, 4]);

        ledger.remove(1);
        assert!(ledger.holds_viewpoint(0), "session 0 still holds viewpoint 0");
        assert_eq!(ledger.units_in_use(), 8);
        ledger.remove(0);
        assert!(!ledger.holds_viewpoint(0));
        assert_eq!(ledger.distinct_viewpoints(), 2);
        assert_eq!(ledger.live_in_admission_order(), vec![2, 3, 4]);

        // Re-admission lands at the back of the order, like a vector push.
        ledger.insert(0);
        assert_eq!(ledger.live_in_admission_order(), vec![2, 3, 4, 0]);
        assert!(ledger.seq(0).is_some());
        assert_eq!(ledger.seq(1), None);
    }

    #[test]
    fn candidates_walk_lowest_tier_first_most_recent_first() {
        let mut ledger = AdmissionLedger::new(profiles());
        for s in [2, 0, 1, 4, 3] {
            ledger.insert(s);
        }
        // Priority 0 sessions {0, 4} (4 admitted later), then priority 1
        // {1, 3} (3 admitted later); the interactive session 2 never appears.
        let order: Vec<usize> = ledger.candidates_below(2).collect();
        assert_eq!(order, vec![4, 0, 3, 1]);
        let previews_only: Vec<usize> = ledger.candidates_below(1).collect();
        assert_eq!(previews_only, vec![4, 0]);
        assert_eq!(ledger.candidates_below(0).count(), 0);
    }

    #[test]
    fn trial_overlays_removals_without_touching_the_ledger() {
        let mut ledger = AdmissionLedger::new(profiles());
        for s in 0..5 {
            ledger.insert(s);
        }
        let mut trial = ledger.trial();
        trial.remove(0);
        assert_eq!(trial.live_count(), 4);
        assert_eq!(trial.units_in_use(), 9);
        assert!(trial.holds_viewpoint(0), "session 1 still holds viewpoint 0");
        assert_eq!(trial.distinct_viewpoints(), 3);
        trial.remove(1);
        assert!(!trial.holds_viewpoint(0), "both holders removed");
        assert_eq!(trial.distinct_viewpoints(), 2);
        trial.restore(1);
        assert!(trial.holds_viewpoint(0));
        assert_eq!(trial.units_in_use(), 9);
        drop(trial);
        // The ledger itself never moved.
        assert_eq!(ledger.live_count(), 5);
        assert_eq!(ledger.units_in_use(), 10);
        assert_eq!(ledger.distinct_viewpoints(), 3);
    }

    #[test]
    fn drain_returns_admission_order_and_resets_everything() {
        let mut ledger = AdmissionLedger::new(profiles());
        for s in [3, 1, 4] {
            ledger.insert(s);
        }
        assert_eq!(ledger.drain(), vec![3, 1, 4]);
        assert_eq!(ledger.live_count(), 0);
        assert_eq!(ledger.units_in_use(), 0);
        assert_eq!(ledger.distinct_viewpoints(), 0);
        assert_eq!(ledger.seq(3), None);
        // The ledger stays usable after a drain.
        ledger.insert(2);
        assert_eq!(ledger.live_in_admission_order(), vec![2]);
        assert_eq!(ledger.units_in_use(), 4);
    }
}
