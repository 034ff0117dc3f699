//! The fan-out seam: everything behaviour-defining about serving a session,
//! independent of how the work is scheduled.
//!
//! The plane's tasks ([`super::asyncplane`]) decide *when* a chunk moves;
//! this module decides *what happens* to it — `multicast_wave` (including
//! the queue-full degradation seam), `session_link`, `consume_chunk`,
//! `surface_pending_frames`, `fold_report` — plus the telemetry wiring a
//! plane run carries.

use super::{ServiceRunReport, SessionBroker, SessionDelivery, SessionSpec};
use crate::transport::{
    striped_link, AssemblyEvent, FrameAssembler, FrameChunk, StripeReceiver, StripeSender, TransportConfig,
    TransportError,
};
use crate::viewer::ViewerError;
use netlogger::metrics::{CounterHandle, HighWaterHandle, Histo, MetricsHub};
use netsim::{Bandwidth, StripePacer};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Plane telemetry plumbing
// ---------------------------------------------------------------------------

/// Telemetry wiring threaded through a plane run: the metrics hub, the
/// frame-cadence snapshot knob, and the last cadence boundary snapshotted.
#[derive(Clone)]
pub(crate) struct PlaneTelemetry {
    pub(crate) hub: MetricsHub,
    snapshot_frames: u32,
    /// Highest frame boundary a periodic snapshot has been recorded for.
    snapshotted: u32,
}

impl PlaneTelemetry {
    pub(crate) fn new(hub: MetricsHub, snapshot_frames: u32) -> PlaneTelemetry {
        PlaneTelemetry {
            hub,
            snapshot_frames,
            snapshotted: 0,
        }
    }

    /// Record the `frame:<n>` time-series snapshot when `frame` crosses a
    /// cadence boundary not yet snapshotted.
    pub(crate) fn observe_frame(&mut self, frame: u32) {
        if self.snapshot_frames == 0 || !self.hub.is_enabled() {
            return;
        }
        let boundary = frame - frame % self.snapshot_frames;
        if boundary > self.snapshotted {
            self.snapshotted = boundary;
            self.hub.record_snapshot(&format!("frame:{boundary}"));
        }
    }

    /// Pre-resolved per-task handles for the wave fast path.
    pub(crate) fn meter(&self) -> WaveMeter {
        WaveMeter {
            live: self.hub.is_enabled(),
            wave_us: self.hub.histogram("fanout/wave_us"),
            waves: self.hub.counter("fanout/waves"),
            chunks: self.hub.counter("fanout/chunks"),
            endpoints_high: self.hub.high_water("fanout/endpoints"),
            inlet_high: self.hub.high_water("fanout/queue_depth"),
        }
    }
}

/// One fan task's multicast instrumentation: when telemetry is off every record
/// is an inlined no-op and the `Instant` reads are skipped entirely, so the
/// disabled fast path is byte-for-byte the bare [`multicast_wave`] call.
pub(crate) struct WaveMeter {
    live: bool,
    wave_us: Histo,
    waves: CounterHandle,
    chunks: CounterHandle,
    endpoints_high: HighWaterHandle,
    inlet_high: HighWaterHandle,
}

impl WaveMeter {
    /// [`multicast_wave`], timed into the `fanout/wave_us` histogram when
    /// telemetry is live.
    pub(crate) fn multicast(
        &self,
        chunks: &[FrameChunk],
        endpoints: &[Arc<SessionEndpoint>],
        skips: &mut HashSet<(usize, u32)>,
        outcome: &mut PeOutcome,
    ) {
        if !self.live {
            multicast_wave(chunks, endpoints, skips, outcome);
            return;
        }
        let started = Instant::now();
        multicast_wave(chunks, endpoints, skips, outcome);
        self.wave_us.record(started.elapsed().as_micros() as u64);
        self.waves.add(1);
        self.chunks.add(chunks.len() as u64);
    }

    /// Sample the endpoint-snapshot size and a stripe-queue depth
    /// (frame-boundary cadence only — never the per-chunk path).
    pub(crate) fn observe_depths(&self, endpoints: usize, inlet_depth: usize) {
        if self.live {
            self.endpoints_high.observe(endpoints as u64);
            self.inlet_high.observe(inlet_depth as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Endpoints, waves and the degradation seam
// ---------------------------------------------------------------------------

/// A session's fan-out endpoint, shared by the fan task's snapshots.
///
/// Endpoints are never removed mid-run: stripe interleaving means a chunk of
/// frame `f` can be observed after the broker has already processed frame
/// `f+1`, so membership is decided by the chunk's own frame against the
/// session's deterministic `[join, end)` window, not by when the chunk
/// happened to arrive.  `end_frame` is the leave or eviction frame the
/// broker decided (`u32::MAX` until then).
pub(crate) struct SessionEndpoint {
    pub(crate) session: usize,
    pub(crate) spec: SessionSpec,
    pub(crate) sender: StripeSender,
    pub(crate) end_frame: AtomicU32,
}

impl SessionEndpoint {
    pub(crate) fn new(session: usize, spec: SessionSpec, sender: StripeSender) -> Arc<SessionEndpoint> {
        Arc::new(SessionEndpoint {
            session,
            spec,
            sender,
            end_frame: AtomicU32::new(u32::MAX),
        })
    }

    pub(crate) fn wants(&self, frame: u32) -> bool {
        self.spec.live_at(frame) && frame < self.end_frame.load(Ordering::Relaxed)
    }

    /// Close the delivery window at the frame the broker decided; straggler
    /// chunks of earlier frames still belong to the session.
    pub(crate) fn close_at(&self, frame: u32) {
        self.end_frame.store(frame, Ordering::Relaxed);
    }
}

/// Build one admitted session's own bounded striped queue and pacer: its
/// stripes, the service queue depth, never paced at the queue (the pacer
/// lives in the consumer, so a slow WAN fills the queue and degrades only
/// this session).
pub(crate) fn session_link(
    spec: &SessionSpec,
    default_queue_depth: usize,
    transport: &TransportConfig,
) -> (StripeSender, StripeReceiver, Option<StripePacer>) {
    let link_config = TransportConfig {
        stripes: spec.stripes.max(1),
        chunk_bytes: transport.chunk_bytes,
        queue_depth: spec.queue_depth.unwrap_or(default_queue_depth),
        tuning: spec.tuning,
        pace_rate_mbps: None,
    };
    let (tx, rx) = striped_link(&link_config);
    let pacer = spec
        .pace_rate_mbps
        .map(|mbps| StripePacer::from_rate(Bandwidth::from_mbps(mbps), spec.stripes.max(1)));
    (tx, rx, pacer)
}

/// What one pump or fan task observed.
#[derive(Default)]
pub(crate) struct PeOutcome {
    /// (chunks, bytes) emitted per frame by this PE (deterministic).
    pub(crate) per_frame: Vec<(u64, u64)>,
    pub(crate) delivered: u64,
    pub(crate) dropped: HashMap<usize, u64>,
    pub(crate) skipped: HashMap<usize, u64>,
}

impl PeOutcome {
    /// Account one chunk of offered backend load.
    pub(crate) fn record_offered(&mut self, chunk: &FrameChunk) {
        let frame = chunk.frame as usize;
        if self.per_frame.len() <= frame {
            self.per_frame.resize(frame + 1, (0, 0));
        }
        self.per_frame[frame].0 += 1;
        self.per_frame[frame].1 += chunk.payload.len() as u64;
    }
}

/// Accumulates the chunks of one `(rank, frame)` so the multicast can hand a
/// session its whole wave contiguously.
///
/// Multicasting chunk-by-chunk makes every session consumer pay a full
/// wake → poll → park cycle *per chunk* — at 7 chunks a frame that's 7× the
/// scheduler traffic the frame needs, and on a small host it dominates the
/// fan-out cost.  Buffering a frame's chunks and bursting them per session
/// collapses that to at most one wake per wave: the burst queues the whole
/// run and then fires the session's readiness once ([`multicast_wave`]).  Per
/// session the chunk sequence (and thus every stat and degradation decision)
/// is exactly what the chunk-by-chunk path produced — only cross-session
/// interleaving changes, which nothing observes.
pub(crate) struct WaveBuffer {
    key: Option<(u32, u32)>,
    chunks: Vec<FrameChunk>,
}

/// Chunks buffered before a wave flushes even if its `total` never arrives —
/// a corrupt total must not turn the buffer into an unbounded sink.
const WAVE_BUFFER_CAP: usize = 4096;

impl WaveBuffer {
    pub(crate) fn new() -> Self {
        WaveBuffer {
            key: None,
            chunks: Vec::new(),
        }
    }

    /// True when `chunk` belongs to a different `(rank, frame)` than the
    /// buffered wave — the caller must flush *before* absorbing it (and
    /// before refreshing any endpoint snapshot keyed to the new frame).
    pub(crate) fn must_flush_before(&self, chunk: &FrameChunk) -> bool {
        self.key.is_some_and(|k| k != (chunk.rank, chunk.frame))
    }

    /// Absorb one chunk; returns `true` when the wave is complete (or the
    /// safety cap is hit) and should be flushed now.
    pub(crate) fn push(&mut self, chunk: FrameChunk) -> bool {
        let total = chunk.total as usize;
        self.key = Some((chunk.rank, chunk.frame));
        self.chunks.push(chunk);
        self.chunks.len() >= total.clamp(1, WAVE_BUFFER_CAP)
    }

    /// Take whatever is buffered (possibly an incomplete trailing wave).
    pub(crate) fn take(&mut self) -> Vec<FrameChunk> {
        self.key = None;
        std::mem::take(&mut self.chunks)
    }
}

/// Multicast one buffered wave, session-major: every endpoint receives its
/// whole run of chunks back to back.
///
/// This is *the* degradation seam: a full
/// session queue degrades that session for the rest of this (rank, frame) —
/// it keeps its partial composite and surfaces a typed `MissingFrame` — while
/// the farm and every other session keep moving.  Per session this performs
/// the same sends, in the same order, with the same skip/degradation
/// bookkeeping as multicasting each chunk the moment it arrived — the
/// counters are indistinguishable; only the cross-session interleaving
/// differs.
pub(crate) fn multicast_wave(
    chunks: &[FrameChunk],
    endpoints: &[Arc<SessionEndpoint>],
    skips: &mut HashSet<(usize, u32)>,
    outcome: &mut PeOutcome,
) {
    let Some(first) = chunks.first() else { return };
    let frame = first.frame;
    for ep in endpoints {
        // Membership is decided by the chunks' own frame (a deterministic
        // window), not by when the wave happened to flush.
        if !ep.wants(frame) {
            continue;
        }
        let stripes = ep.spec.stripes.max(1);
        let mut skipped = !skips.is_empty() && skips.contains(&(ep.session, frame));
        // The session's run goes out as one burst: its consumer wakes once
        // for the wave, not once per stripe the run makes non-empty.
        let mut burst = ep.sender.burst();
        for chunk in chunks {
            if skipped {
                *outcome.dropped.entry(ep.session).or_default() += 1;
                continue;
            }
            // Zero-copy multicast: the payload Bytes clone is a refcount
            // bump; re-stripe onto the session's own queue width.
            let fanned = FrameChunk {
                stripe: chunk.seq % stripes,
                ..chunk.clone()
            };
            match burst.try_send_raw_chunk(fanned) {
                Ok(true) => outcome.delivered += 1,
                Ok(false) => {
                    skips.insert((ep.session, frame));
                    *outcome.skipped.entry(ep.session).or_default() += 1;
                    *outcome.dropped.entry(ep.session).or_default() += 1;
                    skipped = true;
                }
                Err(TransportError::Closed) | Err(TransportError::Corrupt(_)) => {
                    *outcome.dropped.entry(ep.session).or_default() += 1;
                }
            }
        }
    }
}

/// Fold one delivered chunk into a session's delivery: reassemble (a session
/// keeps no payload, so a frame completes as a verdict), and record every
/// anomaly as the typed [`ViewerError`] the viewer itself would report.
pub(crate) fn consume_chunk(delivery: &mut SessionDelivery, assembler: &mut FrameAssembler, chunk: FrameChunk) {
    delivery.chunks_delivered += 1;
    delivery.bytes_delivered += chunk.payload.len() as u64;
    let rank = chunk.rank;
    match assembler.accept_verdict(chunk) {
        Ok(AssemblyEvent::Complete { .. }) => delivery.frames_completed += 1,
        Ok(AssemblyEvent::Progress { .. }) => {}
        Ok(AssemblyEvent::Late { rank, frame, stripe }) => {
            delivery.errors.push(ViewerError::LateStripe { rank, frame, stripe });
        }
        Err(e) => delivery.errors.push(ViewerError::Corrupt {
            rank,
            detail: e.to_string(),
        }),
    }
}

/// Frames the plane started but degraded (or the campaign cut off) are
/// surfaced exactly as the viewer surfaces them: typed, never silent.
pub(crate) fn surface_pending_frames(assembler: &FrameAssembler, delivery: &mut SessionDelivery) {
    for (rank, frame, received, total) in assembler.pending_frames() {
        delivery.errors.push(ViewerError::MissingFrame {
            rank,
            frame,
            received_chunks: received,
            total_chunks: total,
        });
    }
}

/// An empty delivery record for `spec`, filled in by the consumer.
pub(crate) fn empty_delivery(spec: &SessionSpec) -> SessionDelivery {
    SessionDelivery {
        name: spec.name.clone(),
        viewpoint: spec.viewpoint,
        tier: spec.tier,
        frames_completed: 0,
        frames_skipped: 0,
        chunks_delivered: 0,
        chunks_dropped: 0,
        bytes_delivered: 0,
        errors: Vec::new(),
    }
}

/// Fold the deterministic offered load and the timing-dependent delivery
/// outcomes into the final report.  `broker` must already be finished.
pub(crate) fn fold_report(
    mut broker: SessionBroker,
    outcomes: &[PeOutcome],
    mut deliveries: Vec<(usize, SessionDelivery)>,
) -> ServiceRunReport {
    deliveries.sort_by_key(|&(session, _)| session);
    let frames = outcomes.iter().map(|o| o.per_frame.len()).max().unwrap_or(0);
    let mut per_frame = vec![(0u64, 0u64); frames];
    for o in outcomes {
        for (f, &(chunks, bytes)) in o.per_frame.iter().enumerate() {
            per_frame[f].0 += chunks;
            per_frame[f].1 += bytes;
        }
    }
    broker.fold_fanout_load(&per_frame);
    let events = broker.events().to_vec();
    let mut stats = broker.stats().clone();
    for o in outcomes {
        stats.chunks_delivered += o.delivered;
        stats.chunks_dropped += o.dropped.values().sum::<u64>();
    }
    let mut sessions = Vec::with_capacity(deliveries.len());
    for (session, mut delivery) in deliveries {
        for o in outcomes {
            delivery.chunks_dropped += o.dropped.get(&session).copied().unwrap_or(0);
            delivery.frames_skipped += o.skipped.get(&session).copied().unwrap_or(0);
        }
        stats.frames_completed += delivery.frames_completed;
        stats.frames_skipped += delivery.frames_skipped;
        sessions.push(delivery);
    }
    ServiceRunReport {
        stats,
        sessions,
        events,
    }
}
