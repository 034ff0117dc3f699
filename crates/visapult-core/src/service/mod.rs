//! The multi-session service layer: one render farm, many viewers.
//!
//! The paper's deployment (§3) decouples the parallel back end from the
//! viewer precisely so one expensive render farm can serve remote consumers
//! at their own frame rates — yet until this module the pipeline hard-wired
//! exactly one viewer per campaign.  `service` is the seam that turns the
//! pipeline into a multi-tenant system:
//!
//! * [`SessionBroker`] — a deterministic admission-control state machine.  It
//!   accepts a schedule of [`SessionSpec`]s (render viewpoint, quality tier,
//!   join/leave frame), allocates them against modeled backend render slots
//!   and link-capacity units (the allocation-under-constraints framing of
//!   *More with Less*), may evict lower-priority sessions for higher ones,
//!   and accounts shared renders: sessions subscribed to the same viewpoint
//!   share one backend render per frame, so `renders_performed` counts
//!   distinct live viewpoints while `render_requests` counts what a naive
//!   per-session farm would have paid.
//! * [`crate::pipeline::FanoutPlane`] — the real-mode shared-render
//!   fan-out.  It sits
//!   between the backend's striped links and N concurrent sessions,
//!   multicasting every stripe chunk zero-copy ([`bytes::Bytes`] clones) onto
//!   per-session bounded queues.  A slow session's full queue degrades *that
//!   session* (the rest of the frame is skipped for it, leaving a partial
//!   composite) instead of stalling the farm or the other sessions.  There
//!   is one implementation, [`asyncplane`]: every consumer, pump, and pacer
//!   is a polled task over a bounded worker pool, so session count buys
//!   memory, not OS threads; the behaviour-defining seam functions it calls
//!   live in [`fanout`].  It drives one [`SessionBroker`] behind one lock.
//! * Per-session flow adaptation: each session drains its queue through its
//!   own [`netsim::StripePacer`] (derived from a per-session
//!   [`netsim::TcpModel`] by the scenario layer), so every session
//!   experiences its own WAN — an untuned dial-up-grade session backpressures
//!   only itself.
//!
//! The virtual-time path replays the identical broker state machine frame by
//! frame (`pipeline::ReplayPlane`), so the deterministic
//! half of [`ServiceStats`] is byte-identical between the two execution
//! paths and is covered by the campaign replay fingerprint; queue-timing
//! counters (chunks actually delivered or dropped, frames skipped) are
//! excluded, exactly as wall-clock timestamps are.

use crate::transport::TcpTuning;
use crate::viewer::ViewerError;
use ledger::{AdmissionLedger, CapacityView, SessionProfile};
use netlogger::{tags, FieldValue, NetLogger};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

pub mod asyncplane;
pub mod fanout;
mod ledger;
#[cfg(test)]
mod oracle;

// ---------------------------------------------------------------------------
// Session specifications
// ---------------------------------------------------------------------------

/// What a session is entitled to — and what it costs the shared farm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum QualityTier {
    /// A driving console: full frames, partial composites, first claim on
    /// capacity (may evict lower tiers).
    Interactive,
    /// A standard remote viewer (the tier a scenario arrival defaults to).
    #[default]
    Standard,
    /// A cheap thumbnail/overview consumer; first to be evicted.
    Preview,
}

impl QualityTier {
    /// Link-capacity units this tier consumes while admitted.
    pub fn cost_units(&self) -> u64 {
        match self {
            QualityTier::Interactive => 4,
            QualityTier::Standard => 2,
            QualityTier::Preview => 1,
        }
    }

    /// Eviction priority (higher evicts lower, never the reverse).
    pub fn priority(&self) -> u8 {
        match self {
            QualityTier::Interactive => 2,
            QualityTier::Standard => 1,
            QualityTier::Preview => 0,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            QualityTier::Interactive => "interactive",
            QualityTier::Standard => "standard",
            QualityTier::Preview => "preview",
        }
    }
}

/// One session the broker is asked to serve.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Session name (used in reports).
    pub name: String,
    /// Render key: sessions sharing a viewpoint share one backend render.
    pub viewpoint: u32,
    /// Quality tier (capacity cost and eviction priority).
    pub tier: QualityTier,
    /// Frame at which the session asks to join.
    pub join_frame: u32,
    /// Frame *before* which the session leaves (`None` = stays to the end).
    pub leave_frame: Option<u32>,
    /// Stripes of the session's own fan-out queue.
    pub stripes: u32,
    /// Per-stripe queue depth override (`None` = the broker's
    /// [`ServiceConfig::queue_depth`]).
    pub queue_depth: Option<usize>,
    /// TCP stack the session's last mile models.
    pub tuning: TcpTuning,
    /// Modeled last-mile goodput in Mbps (`None` = unshaped; the real plane
    /// paces the session's consumer to this, the broker compares it against
    /// the farm egress to count flow-limited sessions).
    pub pace_rate_mbps: Option<f64>,
}

impl SessionSpec {
    /// A session with the laptop-scale defaults: joins at frame 0, stays to
    /// the end, four wan-tuned stripes, unshaped.
    pub fn new(name: impl Into<String>, viewpoint: u32, tier: QualityTier) -> Self {
        SessionSpec {
            name: name.into(),
            viewpoint,
            tier,
            join_frame: 0,
            leave_frame: None,
            stripes: 4,
            queue_depth: None,
            tuning: TcpTuning::WanTuned,
            pace_rate_mbps: None,
        }
    }

    /// Builder: the `[join, leave)` frame window.
    pub fn with_window(mut self, join: u32, leave: Option<u32>) -> Self {
        self.join_frame = join;
        self.leave_frame = leave;
        self
    }

    /// Builder: the session's modeled last-mile pacing rate.
    pub fn paced_at_mbps(mut self, mbps: f64) -> Self {
        self.pace_rate_mbps = Some(mbps);
        self
    }

    /// True when the session wants frame `f`.
    pub fn live_at(&self, frame: u32) -> bool {
        frame >= self.join_frame && self.leave_frame.map(|l| frame < l).unwrap_or(true)
    }
}

/// Modeled capacity the broker admits against.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Hard cap on concurrently admitted sessions.
    pub max_sessions: usize,
    /// Shared egress capacity in tier cost units (see
    /// [`QualityTier::cost_units`]).
    pub link_capacity_units: u64,
    /// Concurrent distinct render keys the backend can sustain.
    pub render_slots: u32,
    /// Bounded per-session fan-out queue depth, in chunks.
    pub queue_depth: usize,
    /// Modeled farm egress goodput in Mbps; sessions whose own last mile is
    /// slower are counted flow-limited (they will be degraded, not waited
    /// for).
    pub farm_egress_mbps: Option<f64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_sessions: 64,
            link_capacity_units: 256,
            render_slots: 8,
            queue_depth: 64,
            farm_egress_mbps: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Broker state machine
// ---------------------------------------------------------------------------

/// Why the broker turned a session away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Every session slot is taken by equal-or-higher tiers.
    SessionSlots,
    /// Admitting would oversubscribe the link capacity units.
    LinkCapacity,
    /// No render slot: too many distinct viewpoints already live.
    RenderSlots,
}

impl RejectReason {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::SessionSlots => "session-slots",
            RejectReason::LinkCapacity => "link-capacity",
            RejectReason::RenderSlots => "render-slots",
        }
    }
}

/// One lifecycle transition the broker decided, tagged with the session's
/// schedule index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// The session was admitted and is now live.
    Admitted {
        /// Schedule index of the session.
        session: usize,
    },
    /// The session was turned away at its join frame.
    Rejected {
        /// Schedule index of the session.
        session: usize,
        /// Which capacity ran out.
        reason: RejectReason,
    },
    /// A live session was evicted to make room for a higher tier.
    Evicted {
        /// Schedule index of the session.
        session: usize,
    },
    /// The session reached its leave frame (or the campaign ended).
    Left {
        /// Schedule index of the session.
        session: usize,
    },
}

impl SessionEvent {
    /// The schedule index the event concerns.
    pub fn session(&self) -> usize {
        match *self {
            SessionEvent::Admitted { session }
            | SessionEvent::Rejected { session, .. }
            | SessionEvent::Evicted { session }
            | SessionEvent::Left { session } => session,
        }
    }

    /// The NetLogger tag this event emits as.
    pub fn tag(&self) -> &'static str {
        match self {
            SessionEvent::Admitted { .. } => tags::SERVICE_JOIN,
            SessionEvent::Rejected { .. } => tags::SERVICE_REJECT,
            SessionEvent::Evicted { .. } => tags::SERVICE_EVICT,
            SessionEvent::Left { .. } => tags::SERVICE_LEAVE,
        }
    }
}

/// Telemetry of the service layer over one stage (or summed over a campaign).
///
/// The session-lifecycle and shared-render counters are deterministic — pure
/// functions of the session schedule and the capacity config — and are
/// covered by replay fingerprints; the two execution paths report them
/// identically by construction because both drive the same
/// [`SessionBroker`].  `fanout_chunks`/`fanout_bytes` (offered load) are
/// deterministic per path.  The delivery counters below them depend on queue
/// timing and are excluded from fingerprints, exactly as wall-clock values
/// are.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Sessions in the schedule.
    pub sessions_offered: u64,
    /// Sessions admitted (including any later evicted).
    pub sessions_admitted: u64,
    /// Sessions turned away at their join frame.
    pub sessions_rejected: u64,
    /// Sessions evicted for higher tiers.
    pub sessions_evicted: u64,
    /// Peak concurrently live sessions.
    pub peak_live_sessions: u64,
    /// Renders a naive per-session farm would have performed (one per live
    /// session per frame).
    pub render_requests: u64,
    /// Renders the shared farm actually performed (one per distinct live
    /// viewpoint per frame).
    pub renders_performed: u64,
    /// Admitted sessions whose modeled last mile is slower than the farm
    /// egress — the ones the plane will degrade rather than wait for.
    pub flow_limited_sessions: u64,
    /// Chunk deliveries the fan-out owed (chunks per frame × sessions live at
    /// that frame).
    pub fanout_chunks: u64,
    /// Bytes the fan-out owed.
    pub fanout_bytes: u64,
    /// Chunks actually enqueued to session queues (timing-dependent).
    pub chunks_delivered: u64,
    /// Chunks dropped by degradation or departed sessions (timing-dependent).
    pub chunks_dropped: u64,
    /// Per-session (rank, frame) deliveries that fully assembled
    /// (timing-dependent).
    pub frames_completed: u64,
    /// Per-session (rank, frame) deliveries degraded to a partial composite
    /// (timing-dependent).
    pub frames_skipped: u64,
}

impl ServiceStats {
    /// Render requests served by a shared render instead of a new one.
    pub fn shared_render_hits(&self) -> u64 {
        self.render_requests.saturating_sub(self.renders_performed)
    }

    /// Fraction of render requests served by sharing.
    pub fn shared_render_hit_rate(&self) -> f64 {
        if self.render_requests == 0 {
            0.0
        } else {
            self.shared_render_hits() as f64 / self.render_requests as f64
        }
    }

    /// Backend renders as a fraction of the naive per-session count.
    pub fn render_ratio(&self) -> f64 {
        if self.render_requests == 0 {
            0.0
        } else {
            self.renders_performed as f64 / self.render_requests as f64
        }
    }

    /// Element-wise accumulate `other` into `self` (peaks take the max).
    pub fn merge(&mut self, other: &ServiceStats) {
        self.sessions_offered += other.sessions_offered;
        self.sessions_admitted += other.sessions_admitted;
        self.sessions_rejected += other.sessions_rejected;
        self.sessions_evicted += other.sessions_evicted;
        self.peak_live_sessions = self.peak_live_sessions.max(other.peak_live_sessions);
        self.render_requests += other.render_requests;
        self.renders_performed += other.renders_performed;
        self.flow_limited_sessions += other.flow_limited_sessions;
        self.fanout_chunks += other.fanout_chunks;
        self.fanout_bytes += other.fanout_bytes;
        self.chunks_delivered += other.chunks_delivered;
        self.chunks_dropped += other.chunks_dropped;
        self.frames_completed += other.frames_completed;
        self.frames_skipped += other.frames_skipped;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    Pending,
    Live,
    Rejected,
    Evicted,
    Left,
}

/// The session broker: admits a frame-indexed schedule of sessions against
/// modeled capacity, owns their lifecycle, and accounts shared renders.
///
/// The broker is a *pure state machine*: given the same config and schedule,
/// [`SessionBroker::advance_to`] makes the same decisions on every run and on
/// both execution paths.  The real fan-out plane drives it with the frame
/// numbers it observes on the wire; the virtual-time twin drives it with the
/// same frame counter — so admission, eviction, churn and shared-render
/// telemetry replay bit-identically.
///
/// Internally the broker runs on the indexed `AdmissionLedger` (`service/ledger.rs`: running
/// cost accumulator, viewpoint refcounts, tier-bucketed recency indexes), so
/// a join is O(log live) instead of the original O(live) scan and a frame-0
/// burst of N joins is O(N log N) instead of O(N²).  The decisions are
/// byte-for-byte those of the scan implementation, which survives as the
/// test-only `oracle::ScanBroker` differential twin.
#[derive(Debug)]
pub struct SessionBroker {
    config: ServiceConfig,
    schedule: Vec<SessionSpec>,
    state: Vec<SessionState>,
    /// The indexed live-session state (admission order, costs, viewpoint
    /// refcounts, eviction candidate indexes).
    ledger: AdmissionLedger,
    /// Schedule indices grouped by join frame, in schedule order.
    joins_at: HashMap<u32, Vec<usize>>,
    /// Schedule indices grouped by leave frame.
    leaves_at: HashMap<u32, Vec<usize>>,
    next_frame: u32,
    /// (live sessions, distinct viewpoints) per processed frame.
    live_per_frame: Vec<(u64, u64)>,
    events: Vec<(u32, SessionEvent)>,
    stats: ServiceStats,
}

impl SessionBroker {
    /// A broker over `schedule`, admitting against `config`.
    pub fn new(config: ServiceConfig, schedule: Vec<SessionSpec>) -> SessionBroker {
        let stats = ServiceStats {
            sessions_offered: schedule.len() as u64,
            ..ServiceStats::default()
        };
        let profiles: Vec<SessionProfile> = schedule
            .iter()
            .map(|s| SessionProfile {
                cost: s.tier.cost_units(),
                viewpoint: s.viewpoint,
                priority: s.tier.priority(),
            })
            .collect();
        let mut joins_at: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut leaves_at: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, spec) in schedule.iter().enumerate() {
            joins_at.entry(spec.join_frame).or_default().push(i);
            if let Some(leave) = spec.leave_frame {
                leaves_at.entry(leave).or_default().push(i);
            }
        }
        SessionBroker {
            state: vec![SessionState::Pending; schedule.len()],
            ledger: AdmissionLedger::new(profiles),
            joins_at,
            leaves_at,
            next_frame: 0,
            live_per_frame: Vec::new(),
            events: Vec::new(),
            stats,
            config,
            schedule,
        }
    }

    /// The capacity configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The spec at schedule index `session`.
    pub fn spec(&self, session: usize) -> &SessionSpec {
        &self.schedule[session]
    }

    /// The next frame `advance_to` will process.
    pub fn next_frame(&self) -> u32 {
        self.next_frame
    }

    /// Schedule indices of the currently live sessions, in admission order.
    pub fn live(&self) -> Vec<usize> {
        self.ledger.live_in_admission_order()
    }

    /// Sessions live at an already-processed frame.
    pub fn live_count_at(&self, frame: u32) -> u64 {
        self.live_per_frame.get(frame as usize).map(|&(l, _)| l).unwrap_or(0)
    }

    /// Every lifecycle event so far, with the frame it occurred at.
    pub fn events(&self) -> &[(u32, SessionEvent)] {
        &self.events
    }

    /// Current telemetry snapshot.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    fn cost(&self, session: usize) -> u64 {
        self.schedule[session].tier.cost_units()
    }

    /// First violated constraint if `incoming` joined the live sessions of
    /// `view` — the ledger itself, or a what-if [`ledger::Trial`] with
    /// cascade victims removed.  Constraint order (session slots, link
    /// capacity, render slots) is decision-bearing: it picks the reject
    /// reason, exactly as the scan implementation's checks did.
    ///
    /// The render-slot check is O(1) against the view's refcounts: only the
    /// distinct-viewpoint total can block, and a viewpoint already rendered
    /// adds no charge.
    fn admission_block_at<V: CapacityView>(&self, view: &V, incoming: usize) -> Option<RejectReason> {
        if view.live_count() + 1 > self.config.max_sessions {
            return Some(RejectReason::SessionSlots);
        }
        if view.units_in_use() + self.cost(incoming) > self.config.link_capacity_units {
            return Some(RejectReason::LinkCapacity);
        }
        let vp = self.schedule[incoming].viewpoint;
        if view.distinct_viewpoints() + u32::from(!view.holds_viewpoint(vp)) > self.config.render_slots {
            return Some(RejectReason::RenderSlots);
        }
        None
    }

    fn try_admit(&mut self, frame: u32, session: usize) {
        if self.admission_block_at(&self.ledger, session).is_none() {
            self.admit(frame, session);
            return;
        }
        // Over capacity: consider evicting strictly lower-priority sessions,
        // lowest tier first, most recently admitted first within a tier —
        // the ledger's per-tier recency indexes yield exactly that order
        // without scanning the live set.
        let newcomer_priority = self.schedule[session].tier.priority();
        let mut victims: Vec<usize> = Vec::new();
        let mut feasible = false;
        {
            let mut trial = self.ledger.trial();
            for victim in self.ledger.candidates_below(newcomer_priority) {
                trial.remove(victim);
                victims.push(victim);
                if self.admission_block_at(&trial, session).is_none() {
                    feasible = true;
                    break;
                }
            }
            if feasible {
                // Minimize the victim set: the greedy cascade can pick up
                // sessions whose eviction never eased the blocking
                // constraint (e.g. a preview evicted for a render slot its
                // viewpoint does not even hold).  Restore any victim the
                // newcomer can coexist with, in eviction order, so only
                // load-bearing evictions are committed.
                let mut spared: HashSet<usize> = HashSet::new();
                for &candidate in &victims {
                    trial.restore(candidate);
                    if self.admission_block_at(&trial, session).is_none() {
                        spared.insert(candidate);
                    } else {
                        trial.remove(candidate);
                    }
                }
                victims.retain(|v| !spared.contains(v));
            }
        }
        if !feasible {
            // Rejection performs no evictions: capacity that cannot be freed
            // must not be churned.
            let reason = self
                .admission_block_at(&self.ledger, session)
                .expect("admission was blocked");
            self.state[session] = SessionState::Rejected;
            self.stats.sessions_rejected += 1;
            self.events.push((frame, SessionEvent::Rejected { session, reason }));
            return;
        }
        for victim in victims {
            self.ledger.remove(victim);
            self.state[victim] = SessionState::Evicted;
            self.stats.sessions_evicted += 1;
            self.events.push((frame, SessionEvent::Evicted { session: victim }));
        }
        self.admit(frame, session);
    }

    fn admit(&mut self, frame: u32, session: usize) {
        self.ledger.insert(session);
        self.state[session] = SessionState::Live;
        self.stats.sessions_admitted += 1;
        if let (Some(pace), Some(farm)) = (self.schedule[session].pace_rate_mbps, self.config.farm_egress_mbps) {
            if pace < farm {
                self.stats.flow_limited_sessions += 1;
            }
        }
        self.events.push((frame, SessionEvent::Admitted { session }));
    }

    /// Process every frame up to and including `frame`: leaves first (a
    /// departure frees capacity for a same-frame join), then joins in
    /// schedule order, then the frame's shared-render accounting.  Returns
    /// the lifecycle events the catch-up produced, in order.
    ///
    /// Each frame costs O(churn at that frame), not O(schedule): joiners and
    /// leavers come from frame-keyed indexes built at construction, and the
    /// shared-render accounting reads the ledger's running counters.
    pub fn advance_to(&mut self, frame: u32) -> Vec<SessionEvent> {
        let first_new = self.events.len();
        while self.next_frame <= frame {
            let f = self.next_frame;
            // Leavers emit in admission order (what the scan implementation
            // got from filtering its live vector), so sort the frame's
            // schedule-ordered group by admission sequence.
            let mut leavers: Vec<(u64, usize)> = match self.leaves_at.get(&f) {
                Some(group) => group
                    .iter()
                    .filter_map(|&s| self.ledger.seq(s).map(|q| (q, s)))
                    .collect(),
                None => Vec::new(),
            };
            leavers.sort_unstable();
            for (_, s) in leavers {
                self.ledger.remove(s);
                self.state[s] = SessionState::Left;
                self.events.push((f, SessionEvent::Left { session: s }));
            }
            let joiners: Vec<usize> = match self.joins_at.get(&f) {
                Some(group) => group
                    .iter()
                    .copied()
                    .filter(|&s| self.state[s] == SessionState::Pending)
                    .collect(),
                None => Vec::new(),
            };
            for s in joiners {
                // A session leaving before it would join never materializes.
                if !self.schedule[s].live_at(f) {
                    self.state[s] = SessionState::Left;
                    continue;
                }
                self.try_admit(f, s);
            }
            let live = self.ledger.live_count() as u64;
            let viewpoints = u64::from(self.ledger.distinct_viewpoints());
            self.live_per_frame.push((live, viewpoints));
            self.stats.render_requests += live;
            self.stats.renders_performed += viewpoints;
            self.stats.peak_live_sessions = self.stats.peak_live_sessions.max(live);
            self.next_frame += 1;
        }
        self.events[first_new..].iter().map(|&(_, e)| e).collect()
    }

    /// End of campaign: every still-live session leaves.
    pub fn finish(&mut self) -> Vec<SessionEvent> {
        let frame = self.next_frame;
        let first_new = self.events.len();
        for s in self.ledger.drain() {
            self.state[s] = SessionState::Left;
            self.events.push((frame, SessionEvent::Left { session: s }));
        }
        self.events[first_new..].iter().map(|&(_, e)| e).collect()
    }

    /// Fold the offered fan-out load into the stats: `per_frame[f]` is the
    /// `(chunks, bytes)` the farm emitted for frame `f`; each live session
    /// was owed a copy.  Pure arithmetic over the broker's frame history, so
    /// both execution paths fold identical numbers for identical plans.
    pub fn fold_fanout_load(&mut self, per_frame: &[(u64, u64)]) {
        for (f, &(chunks, bytes)) in per_frame.iter().enumerate() {
            let live = self.live_count_at(f as u32);
            self.stats.fanout_chunks += chunks * live;
            self.stats.fanout_bytes += bytes * live;
        }
    }
}

// ---------------------------------------------------------------------------
// Run reports
// ---------------------------------------------------------------------------

/// What one session actually received (real path only).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionDelivery {
    /// Session name from the spec.
    pub name: String,
    /// Render key the session subscribed to.
    pub viewpoint: u32,
    /// Quality tier.
    pub tier: QualityTier,
    /// Per-PE frames fully reassembled by this session.
    pub frames_completed: u64,
    /// Per-PE frames degraded to a partial composite (queue-full skips).
    pub frames_skipped: u64,
    /// Chunks enqueued to this session.
    pub chunks_delivered: u64,
    /// Chunks withheld from this session (degradation or departure).
    pub chunks_dropped: u64,
    /// Payload bytes enqueued to this session.
    pub bytes_delivered: u64,
    /// Delivery anomalies this session observed, in arrival order.
    pub errors: Vec<ViewerError>,
}

/// Everything the real fan-out plane produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRunReport {
    /// Deterministic broker counters with the plane's timing counters merged
    /// in.
    pub stats: ServiceStats,
    /// Per-session deliveries, in schedule order (admitted sessions only).
    pub sessions: Vec<SessionDelivery>,
    /// Every broker lifecycle decision, with the frame it occurred at.
    pub events: Vec<(u32, SessionEvent)>,
}

// ---------------------------------------------------------------------------
// NetLogger emission (shared by both execution paths)
// ---------------------------------------------------------------------------

/// Emit the service-layer NetLogger telemetry (`NL.service.*` fields): one
/// lifecycle event per broker decision and a per-stage `SERVICE_STATS`
/// summary.  This is the only place the event schema lives — the real path
/// logs at the collector's clock (`at = None`), the virtual-time path replays
/// the same emitter at explicit virtual timestamps, so either log reads
/// identically by construction.
pub fn log_service_stats(logger: &NetLogger, at: Option<f64>, stats: &ServiceStats, events: &[(u32, SessionEvent)]) {
    log_service_stats_sampled(logger, at, stats, events, 1);
}

/// [`log_service_stats`] with deterministic 1-in-N lifeline sampling: only
/// sessions selected by [`netlogger::session_sampled`] emit their lifecycle
/// events.  Sampling is a pure function of the session id, so both execution
/// paths thin the log identically — at 100k sessions this is what keeps
/// lifelines NLV-plottable.  The `SERVICE_STATS` summary always emits
/// unsampled (it aggregates, it does not enumerate).
pub fn log_service_stats_sampled(
    logger: &NetLogger,
    at: Option<f64>,
    stats: &ServiceStats,
    events: &[(u32, SessionEvent)],
    sample_every: u32,
) {
    let emit = |tag: &str, fields: Vec<(String, FieldValue)>| match at {
        Some(t) => logger.log_at(t, tag, fields),
        None => logger.log_with(tag, fields),
    };
    for &(frame, event) in events {
        if !netlogger::session_sampled(event.session(), sample_every) {
            continue;
        }
        emit(
            event.tag(),
            vec![
                (tags::FIELD_FRAME.to_string(), FieldValue::Int(i64::from(frame))),
                (
                    tags::FIELD_SERVICE_SESSION.to_string(),
                    FieldValue::Int(event.session() as i64),
                ),
            ],
        );
    }
    emit(
        tags::SERVICE_STATS,
        vec![
            (
                tags::FIELD_SERVICE_SESSIONS.to_string(),
                FieldValue::Int(stats.sessions_offered as i64),
            ),
            (
                tags::FIELD_SERVICE_ADMITTED.to_string(),
                FieldValue::Int(stats.sessions_admitted as i64),
            ),
            (
                tags::FIELD_SERVICE_REJECTED.to_string(),
                FieldValue::Int(stats.sessions_rejected as i64),
            ),
            (
                tags::FIELD_SERVICE_EVICTED.to_string(),
                FieldValue::Int(stats.sessions_evicted as i64),
            ),
            (
                tags::FIELD_SERVICE_RENDERS.to_string(),
                FieldValue::Int(stats.renders_performed as i64),
            ),
            (
                tags::FIELD_SERVICE_RENDER_REQUESTS.to_string(),
                FieldValue::Int(stats.render_requests as i64),
            ),
            (
                tags::FIELD_SERVICE_SHARED_HITS.to_string(),
                FieldValue::Int(stats.shared_render_hits() as i64),
            ),
            (
                tags::FIELD_BYTES.to_string(),
                FieldValue::Int(stats.fanout_bytes as i64),
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, viewpoint: u32, tier: QualityTier) -> SessionSpec {
        SessionSpec::new(name, viewpoint, tier)
    }

    fn tiny_config() -> ServiceConfig {
        ServiceConfig {
            max_sessions: 4,
            link_capacity_units: 8,
            render_slots: 2,
            queue_depth: 8,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn broker_admits_within_capacity_and_accounts_shared_renders() {
        let schedule = vec![
            spec("a", 0, QualityTier::Standard),
            spec("b", 0, QualityTier::Standard),
            spec("c", 1, QualityTier::Standard),
        ];
        let mut broker = SessionBroker::new(tiny_config(), schedule);
        broker.advance_to(3);
        broker.finish();
        let s = broker.stats();
        assert_eq!(s.sessions_admitted, 3);
        assert_eq!(s.sessions_rejected, 0);
        assert_eq!(s.peak_live_sessions, 3);
        // 4 frames x 3 live sessions, but only 2 distinct viewpoints.
        assert_eq!(s.render_requests, 12);
        assert_eq!(s.renders_performed, 8);
        assert_eq!(s.shared_render_hits(), 4);
        assert!((s.shared_render_hit_rate() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn broker_rejects_when_capacity_runs_out() {
        // Capacity: 9 units, 2 render slots.  Four standard sessions (2 units
        // each) leave 1 unit; the fifth standard is rejected for link
        // capacity, and a preview on a third viewpoint (which *would* fit the
        // last unit) is rejected for render slots.
        let schedule = vec![
            spec("a", 0, QualityTier::Standard),
            spec("b", 0, QualityTier::Standard),
            spec("c", 1, QualityTier::Standard),
            spec("d", 1, QualityTier::Standard),
            spec("e", 0, QualityTier::Standard),
            spec("f", 2, QualityTier::Preview),
        ];
        let config = ServiceConfig {
            max_sessions: 8,
            link_capacity_units: 9,
            render_slots: 2,
            ..tiny_config()
        };
        let mut broker = SessionBroker::new(config, schedule);
        let events = broker.advance_to(0);
        assert_eq!(broker.stats().sessions_admitted, 4);
        assert_eq!(broker.stats().sessions_rejected, 2);
        let reasons: Vec<RejectReason> = events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Rejected { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect();
        assert_eq!(reasons, vec![RejectReason::LinkCapacity, RejectReason::RenderSlots]);
    }

    #[test]
    fn broker_evicts_lower_tiers_for_interactive_sessions() {
        // 8 units: four previews (1 each) + one standard (2) = 6.  The first
        // interactive join (4) evicts the two most recent previews; the
        // second cascades through the remaining previews into the standard
        // (always lowest tier first, most recent first within a tier); a
        // third interactive faces only equal-tier sessions — infeasible, so
        // it is rejected without churning anyone.
        let mut schedule = vec![
            spec("p0", 0, QualityTier::Preview),
            spec("p1", 0, QualityTier::Preview),
            spec("p2", 0, QualityTier::Preview),
            spec("p3", 0, QualityTier::Preview),
            spec("std", 1, QualityTier::Standard),
        ];
        schedule.push(spec("vip", 0, QualityTier::Interactive).with_window(1, None));
        schedule.push(spec("vip2", 1, QualityTier::Interactive).with_window(2, None));
        schedule.push(spec("vip3", 0, QualityTier::Interactive).with_window(3, None));
        let config = ServiceConfig {
            max_sessions: 8,
            ..tiny_config()
        };
        let mut broker = SessionBroker::new(config, schedule);
        broker.advance_to(0);
        assert_eq!(broker.stats().sessions_admitted, 5);
        let events = broker.advance_to(1);
        // 6 units live + 4 > 8: evicting p3 (most recent preview) then p2
        // frees 2, landing exactly at 8.
        assert_eq!(
            events,
            vec![
                SessionEvent::Evicted { session: 3 },
                SessionEvent::Evicted { session: 2 },
                SessionEvent::Admitted { session: 5 },
            ]
        );
        let events = broker.advance_to(2);
        // 8 units live + 4 > 8: the cascade takes p1, p0, then the standard.
        assert_eq!(
            events,
            vec![
                SessionEvent::Evicted { session: 1 },
                SessionEvent::Evicted { session: 0 },
                SessionEvent::Evicted { session: 4 },
                SessionEvent::Admitted { session: 6 },
            ]
        );
        let live_before: Vec<usize> = broker.live().to_vec();
        let events = broker.advance_to(3);
        // Only interactive sessions remain: nothing outranks nothing, so the
        // join is rejected and nobody is evicted.
        assert_eq!(
            events,
            vec![SessionEvent::Rejected {
                session: 7,
                reason: RejectReason::LinkCapacity
            }]
        );
        assert_eq!(broker.live(), &live_before[..]);
        assert_eq!(broker.stats().sessions_evicted, 5);
    }

    #[test]
    fn eviction_commits_only_load_bearing_victims() {
        // Two render slots held by standards on viewpoints 0 and 1, plus a
        // preview also on viewpoint 0.  An interactive joining on viewpoint
        // 2 is blocked on render slots; evicting the preview frees nothing
        // (the standard still holds viewpoint 0), so the cascade must spare
        // it and evict only the standard on viewpoint 1.
        let config = ServiceConfig {
            max_sessions: 8,
            link_capacity_units: 16,
            render_slots: 2,
            ..tiny_config()
        };
        let schedule = vec![
            spec("std-a", 0, QualityTier::Standard),
            spec("std-b", 1, QualityTier::Standard),
            spec("pre", 0, QualityTier::Preview),
            spec("vip", 2, QualityTier::Interactive).with_window(1, None),
        ];
        let mut broker = SessionBroker::new(config, schedule);
        broker.advance_to(0);
        assert_eq!(broker.stats().sessions_admitted, 3);
        let events = broker.advance_to(1);
        assert_eq!(
            events,
            vec![
                SessionEvent::Evicted { session: 1 },
                SessionEvent::Admitted { session: 3 },
            ]
        );
        assert_eq!(broker.stats().sessions_evicted, 1);
        assert!(broker.live().contains(&2), "the preview must be spared");
    }

    #[test]
    fn broker_processes_leaves_before_joins_and_replays_identically() {
        let schedule = vec![
            spec("early", 0, QualityTier::Interactive).with_window(0, Some(2)),
            spec("late", 1, QualityTier::Interactive).with_window(2, None),
        ];
        // 4-unit link: only one interactive fits, so `late` only gets in
        // because `early` leaves at the same frame.
        let config = ServiceConfig {
            link_capacity_units: 4,
            ..tiny_config()
        };
        let run = || {
            let mut b = SessionBroker::new(config.clone(), schedule.clone());
            b.advance_to(3);
            b.finish();
            (b.stats().clone(), b.events().to_vec())
        };
        let (stats, events) = run();
        assert_eq!(stats.sessions_admitted, 2);
        assert_eq!(stats.sessions_rejected, 0);
        assert_eq!(stats.peak_live_sessions, 1);
        // Bit-identical replay: the broker is a pure state machine.
        let (stats2, events2) = run();
        assert_eq!(stats, stats2);
        assert_eq!(events, events2);
    }

    #[test]
    fn fold_fanout_load_weights_chunks_by_live_sessions() {
        let schedule = vec![
            spec("a", 0, QualityTier::Standard),
            spec("b", 0, QualityTier::Standard).with_window(1, None),
        ];
        let mut broker = SessionBroker::new(tiny_config(), schedule);
        broker.advance_to(1);
        broker.fold_fanout_load(&[(10, 1000), (10, 1000)]);
        let s = broker.stats();
        // Frame 0: 1 live; frame 1: 2 live.
        assert_eq!(s.fanout_chunks, 30);
        assert_eq!(s.fanout_bytes, 3000);
    }

    #[test]
    fn flow_limited_sessions_are_counted_against_the_farm_egress() {
        let config = ServiceConfig {
            farm_egress_mbps: Some(100.0),
            ..tiny_config()
        };
        let schedule = vec![
            spec("fast", 0, QualityTier::Standard).paced_at_mbps(200.0),
            spec("slow", 0, QualityTier::Standard).paced_at_mbps(5.0),
            spec("unshaped", 0, QualityTier::Preview),
        ];
        let mut broker = SessionBroker::new(config, schedule);
        broker.advance_to(0);
        assert_eq!(broker.stats().flow_limited_sessions, 1);
    }

    #[test]
    fn service_log_emits_lifecycle_and_summary_events() {
        let schedule = vec![
            spec("a", 0, QualityTier::Standard),
            spec("b", 0, QualityTier::Standard).with_window(0, Some(1)),
        ];
        let mut broker = SessionBroker::new(tiny_config(), schedule);
        broker.advance_to(2);
        broker.finish();
        let collector = netlogger::Collector::wall();
        log_service_stats(
            &collector.logger("service", "session-broker"),
            None,
            broker.stats(),
            broker.events(),
        );
        let log = collector.finish();
        assert_eq!(log.with_tag(tags::SERVICE_JOIN).count(), 2);
        assert_eq!(log.with_tag(tags::SERVICE_LEAVE).count(), 2);
        assert_eq!(log.with_tag(tags::SERVICE_STATS).count(), 1);
    }
}
