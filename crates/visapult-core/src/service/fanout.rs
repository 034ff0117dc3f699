//! The fan-out seam: everything behaviour-defining about serving a session,
//! independent of how the work is scheduled.
//!
//! The plane's tasks ([`super::asyncplane`]) decide *when* a wave moves;
//! this module decides *what happens* to it.  `multicast_wave` runs each
//! chunk through the plane's one [`FrameAssembler`] and publishes the wave
//! once, as chunk sizes and verdicts, handing each session the prefix its
//! lane's credit covers (the degradation seam); a `SessionView` folds the
//! verdicts into the session's delivery without touching a payload, and
//! `fold_report` makes the run's report.  A verdict depends only on its
//! (rank, frame)'s chunks, which a session is sent in the plane's order —
//! all, or a prefix — so each session folds the events its own assembler
//! would have reported; only a late chunk's stripe is the session's own.

use super::{ServiceRunReport, SessionBroker, SessionDelivery, SessionSpec};
use crate::transport::{AssemblyEvent, FrameAssembler, FrameChunk};
use crate::viewer::ViewerError;
use crossbeam::channel::{unbounded, ReadyHook, Receiver, Sender, TryRecvError};
use netlogger::metrics::{CounterHandle, HighWaterHandle, Histo, MetricsHub};
use netsim::{Bandwidth, StripePacer};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        plane: &mut FrameAssembler,
        chunks: Vec<FrameChunk>,
        endpoints: &[Arc<SessionEndpoint>],
        outcome: &mut PeOutcome,
    ) {
        if !self.live {
            multicast_wave(plane, chunks, endpoints, outcome);
            return;
        }
        let started = Instant::now();
        let n = chunks.len() as u64;
        multicast_wave(plane, chunks, endpoints, outcome);
        self.wave_us.record(started.elapsed().as_micros() as u64);
        self.waves.add(1);
        self.chunks.add(n);
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
// Waves: each (rank, frame) assembled once, published once
// ---------------------------------------------------------------------------

/// What the plane's assembler made of one chunk.
pub(crate) enum Verdict {
    /// Stored; the frame is still incomplete.
    Progress { received: u32, total: u32 },
    /// The chunk completed its frame, which decoded.
    Complete,
    /// The chunk's frame had already ended.
    Late,
    /// The chunk was refused.  A frame that completed but does not decode
    /// ends with it (`ends_frame`); a duplicate, an out-of-range seq or a
    /// disagreeing total leave the frame pending.
    Corrupt { detail: String, ends_frame: bool },
}

/// One chunk of a published wave: what a session needs of it, not its payload.
pub(crate) struct WaveChunk {
    pub(crate) seq: u32,
    pub(crate) bytes: usize,
    pub(crate) verdict: Verdict,
}

/// A run of one (rank, frame)'s chunks, in the plane's order, with the
/// plane's verdict on each.  Published once, as an `Arc`, to every session.
pub(crate) struct Wave {
    pub(crate) rank: u32,
    pub(crate) frame: u32,
    pub(crate) chunks: Vec<WaveChunk>,
}

/// The plane's verdict on `chunk`, which `plane` assembles.
fn verdict(plane: &mut FrameAssembler, chunk: FrameChunk) -> WaveChunk {
    let (rank, frame, seq, bytes) = (chunk.rank, chunk.frame, chunk.seq, chunk.payload.len());
    // A session reports a late chunk on a stripe of its own, so the plane's
    // stripe is never read: it must not size the stats either.
    let verdict = match plane.accept_verdict(FrameChunk { stripe: 0, ..chunk }) {
        Ok(AssemblyEvent::Progress { received, total, .. }) => Verdict::Progress { received, total },
        Ok(AssemblyEvent::Complete { .. }) => Verdict::Complete,
        Ok(AssemblyEvent::Late { .. }) => Verdict::Late,
        // A chunk of a frame that had ended is `Late`, so a frame that is
        // complete after an error is the one this chunk failed to decode.
        Err(e) => Verdict::Corrupt {
            detail: e.to_string(),
            ends_frame: plane.is_complete(rank, frame),
        },
    };
    WaveChunk { seq, bytes, verdict }
}

// ---------------------------------------------------------------------------
// Endpoints, lanes and the degradation seam
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
    lane: Sender<(Arc<Wave>, usize)>,
    /// Chunks each stripe of the lane may still carry: taken by the fan task
    /// as it sends, given back by the consumer as it folds.  The consumer
    /// holds the only other reference.
    credits: Arc<[AtomicUsize]>,
    pub(crate) end_frame: AtomicU32,
}

impl SessionEndpoint {
    pub(crate) fn wants(&self, frame: u32) -> bool {
        self.spec.live_at(frame) && frame < self.end_frame.load(Ordering::Relaxed)
    }

    /// Close the delivery window at the frame the broker decided; straggler
    /// chunks of earlier frames still belong to the session.
    pub(crate) fn close_at(&self, frame: u32) {
        self.end_frame.store(frame, Ordering::Relaxed);
    }

    /// The frames the session is owed: its `[join, end)` window.
    pub(crate) fn window(&self) -> Range<u32> {
        let join = self.spec.join_frame;
        let end = self.end_frame.load(Ordering::Relaxed);
        join..self.spec.leave_frame.map_or(end, |leave| leave.min(end)).max(join)
    }

    /// Take credit for the longest prefix of `wave` the lane's stripes cover
    /// (chunk `seq` goes on stripe `seq % stripes`; the first chunk whose
    /// stripe has no credit left ends the prefix) and return its length.
    /// Only the fan task takes credit, so credit it sees stays there.
    fn take_prefix(&self, wave: &Wave) -> usize {
        let stripes = self.credits.len();
        let take = |chunk: &&WaveChunk| {
            let credit = &self.credits[chunk.seq as usize % stripes];
            let free = credit.load(Ordering::Acquire) > 0;
            if free {
                credit.fetch_sub(1, Ordering::AcqRel);
            }
            free
        };
        wave.chunks.iter().take_while(take).count()
    }
}

/// Build one admitted session's lane: the endpoint the fan task sends waves
/// into and the view its consumer folds them from.  Each stripe starts with
/// the session's queue depth in credit (the service default unless the spec
/// sets one); the pacer lives in the consumer, so a slow WAN uses up the
/// credit and degrades only this session.
pub(crate) fn session_lane(
    session: usize,
    spec: SessionSpec,
    default_queue_depth: usize,
) -> (Arc<SessionEndpoint>, SessionView) {
    let stripes = spec.stripes.max(1);
    let depth = spec.queue_depth.unwrap_or(default_queue_depth).max(1);
    let credits: Arc<[AtomicUsize]> = (0..stripes).map(|_| AtomicUsize::new(depth)).collect();
    let (lane, rx) = unbounded();
    let view = SessionView {
        rx,
        credits: Arc::clone(&credits),
        pacer: spec
            .pace_rate_mbps
            .map(|mbps| StripePacer::from_rate(Bandwidth::from_mbps(mbps), stripes)),
        wave: None,
        owed: vec![0; stripes as usize],
        pending: BTreeMap::new(),
        seen: Vec::new(),
        delivery: empty_delivery(&spec),
    };
    let endpoint = Arc::new(SessionEndpoint {
        session,
        spec,
        lane,
        credits,
        end_frame: AtomicU32::new(u32::MAX),
    });
    (endpoint, view)
}

/// What one pump or fan task observed.
#[derive(Default)]
pub(crate) struct PeOutcome {
    /// (chunks, bytes) emitted per frame by this PE (deterministic).
    pub(crate) per_frame: Vec<(u64, u64)>,
    /// Every (frame, rank) this pump offered, with the chunk total its first
    /// chunk announced.
    pub(crate) offered: BTreeMap<(u32, u32), u32>,
    last_offered: Option<(u32, u32)>,
    pub(crate) delivered: u64,
    pub(crate) dropped: HashMap<usize, u64>,
    /// The (session, frame)s degraded for a lane out of credit: the rest of
    /// the frame is dropped for that session.
    pub(crate) skips: BTreeSet<(usize, u32)>,
    /// Waves published, and sent into session lanes.
    #[cfg(test)]
    pub(crate) published: usize,
    #[cfg(test)]
    pub(crate) lane_sends: usize,
    /// Segment assemblies the fan task's assembler made.
    #[cfg(test)]
    pub(crate) assemblies: usize,
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
        let key = (chunk.frame, chunk.rank);
        if self.last_offered != Some(key) {
            self.offered.entry(key).or_insert(chunk.total);
            self.last_offered = Some(key);
        }
    }
}

/// Accumulates the chunks of one `(rank, frame)` so the plane can publish
/// them as one wave.
///
/// Multicasting chunk-by-chunk makes every session consumer pay a full
/// wake → poll → park cycle *per chunk* — at 7 chunks a frame that's 7× the
/// scheduler traffic the frame needs, and on a small host it dominates the
/// fan-out cost.  Buffering a frame's chunks and publishing them as one wave
/// collapses that to at most one wake per session per wave
/// ([`multicast_wave`]).  Per session the chunk sequence (and thus every stat
/// and degradation decision) is exactly what the chunk-by-chunk path
/// produced — only cross-session interleaving changes, which nothing
/// observes.
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

/// Assemble a buffered wave — one (rank, frame)'s run of chunks, as a
/// [`WaveBuffer`] flushes it — through the plane's assembler and publish it
/// to every endpoint that wants its frame: one message per session, the wave
/// and the prefix of it the session may take.
///
/// This is *the* degradation seam.  A session lane holds at most its queue
/// depth of chunks per stripe between the fan task and the consumer's fold:
/// a chunk whose stripe has no credit left degrades the session for the rest
/// of this (session, frame) — it keeps its partial composite and surfaces a
/// typed `MissingFrame` — while the farm and every other session keep
/// moving.  Chunks withheld from a degraded session, or from one whose
/// consumer is gone, are counted dropped.
pub(crate) fn multicast_wave(
    plane: &mut FrameAssembler,
    chunks: Vec<FrameChunk>,
    endpoints: &[Arc<SessionEndpoint>],
    outcome: &mut PeOutcome,
) {
    let Some(first) = chunks.first() else { return };
    let (rank, frame) = (first.rank, first.frame);
    let chunks = chunks.into_iter().map(|chunk| verdict(plane, chunk)).collect();
    let wave = Arc::new(Wave { rank, frame, chunks });
    let len = wave.chunks.len();
    #[cfg(test)]
    {
        outcome.published += 1;
    }
    for ep in endpoints {
        // Membership is decided by the wave's own frame (a deterministic
        // window), not by when the wave happened to flush.
        if !ep.wants(frame) {
            continue;
        }
        // A consumer that is gone (its task ended or died) holds no credit.
        let key = (ep.session, frame);
        if outcome.skips.contains(&key) || Arc::strong_count(&ep.credits) == 1 {
            *outcome.dropped.entry(ep.session).or_default() += len as u64;
            continue;
        }
        let n = ep.take_prefix(&wave);
        if n > 0 {
            if ep.lane.send((Arc::clone(&wave), n)).is_err() {
                *outcome.dropped.entry(ep.session).or_default() += len as u64;
                continue;
            }
            outcome.delivered += n as u64;
            #[cfg(test)]
            {
                outcome.lane_sends += 1;
            }
        }
        if n < len {
            outcome.skips.insert(key);
            *outcome.dropped.entry(ep.session).or_default() += (len - n) as u64;
        }
    }
}

/// A session's side of its lane: the waves sent to it, and what it has made
/// of them so far.
pub(crate) struct SessionView {
    rx: Receiver<(Arc<Wave>, usize)>,
    credits: Arc<[AtomicUsize]>,
    pacer: Option<StripePacer>,
    /// The wave being folded, the prefix this session may take of it, and
    /// the next chunk to fold.
    wave: Option<(Arc<Wave>, usize, usize)>,
    /// Credit folded and not yet given back, per stripe.
    owed: Vec<usize>,
    /// `(received, total)` of every frame still in progress.
    pending: BTreeMap<(u32, u32), (u32, u32)>,
    /// Every (frame, rank) a wave brought, in arrival order, repeats allowed.
    seen: Vec<(u32, u32)>,
    delivery: SessionDelivery,
}

/// Where a [`SessionView::fold`] stopped.
pub(crate) enum Folded {
    /// The budget ran out with chunks still to fold.
    More,
    /// The session's pacer holds the next chunk back this long.
    Paced(Duration),
    /// Nothing left to fold for now; `true` when this call folded anything.
    Drained(bool),
    /// The plane closed the lane and every wave is folded.
    Closed,
}

/// What a session's consumer hands back when its lane closes.
pub(crate) struct SessionOutcome {
    pub(crate) delivery: SessionDelivery,
    /// The (frame, rank)s the session received any chunk of, sorted.
    pub(crate) seen: Vec<(u32, u32)>,
}

impl SessionView {
    /// Register the consumer's wake: fired when a wave arrives on an empty
    /// lane and when the lane closes.
    pub(crate) fn set_data_hook(&self, hook: ReadyHook) {
        self.rx.set_data_hook(hook);
    }

    /// Fold up to `budget` chunks of the waves sent to this session, pacing
    /// each through the session's own WAN (a paced session resumes mid-wave
    /// after the delay), and give their credit back.
    pub(crate) fn fold(&mut self, mut budget: usize) -> Folded {
        let mut folded = false;
        let stop = loop {
            let Some((wave, n, mut next)) = self.wave.take() else {
                match self.rx.try_recv() {
                    Ok((wave, n)) => {
                        if self.seen.last() != Some(&(wave.frame, wave.rank)) {
                            self.seen.push((wave.frame, wave.rank));
                        }
                        self.wave = Some((wave, n, 0));
                        continue;
                    }
                    Err(TryRecvError::Empty) => break Folded::Drained(folded),
                    Err(TryRecvError::Disconnected) => break Folded::Closed,
                }
            };
            let (rank, frame, stripes) = (wave.rank, wave.frame, self.owed.len());
            // The frame's state after this run: `Some(None)` once it ended.
            let mut state = None;
            let mut pace = Duration::ZERO;
            while next < n && budget > 0 && pace.is_zero() {
                let chunk = &wave.chunks[next];
                (next, budget, folded) = (next + 1, budget - 1, true);
                let stripe = chunk.seq as usize % stripes;
                if let Some(pacer) = &mut self.pacer {
                    // The session's own WAN: drain no faster than the modeled
                    // last mile, which holds back only this session's credit.
                    pace = pacer.consume(stripe, chunk.bytes as u64);
                }
                self.owed[stripe] += 1;
                let delivery = &mut self.delivery;
                delivery.chunks_delivered += 1;
                delivery.bytes_delivered += chunk.bytes as u64;
                match &chunk.verdict {
                    Verdict::Progress { received, total } => state = Some(Some((*received, *total))),
                    Verdict::Complete => {
                        delivery.frames_completed += 1;
                        state = Some(None);
                    }
                    Verdict::Late => delivery.errors.push(ViewerError::LateStripe {
                        rank,
                        frame,
                        stripe: stripe as u32,
                    }),
                    Verdict::Corrupt { detail, ends_frame } => {
                        if *ends_frame {
                            state = Some(None);
                        }
                        let detail = detail.clone();
                        delivery.errors.push(ViewerError::Corrupt { rank, detail });
                    }
                }
                #[cfg(test)]
                tests::panic_if_told(&self.delivery);
            }
            match state {
                Some(Some(progress)) => self.pending.insert((rank, frame), progress),
                Some(None) => self.pending.remove(&(rank, frame)),
                None => None,
            };
            if next < n {
                self.wave = Some((wave, n, next));
            }
            if !pace.is_zero() {
                break Folded::Paced(pace);
            }
            if budget == 0 {
                break Folded::More;
            }
        };
        for (credit, owed) in self.credits.iter().zip(&mut self.owed) {
            if *owed > 0 {
                credit.fetch_add(std::mem::take(owed), Ordering::AcqRel);
            }
        }
        stop
    }

    /// The session is over: frames still in progress are surfaced exactly as
    /// the viewer surfaces them — typed, never silent.
    pub(crate) fn finish(&mut self) -> SessionOutcome {
        let mut delivery = std::mem::take(&mut self.delivery);
        for (&(rank, frame), &(received, total)) in &self.pending {
            delivery.errors.push(ViewerError::MissingFrame {
                rank,
                frame,
                received_chunks: received,
                total_chunks: total,
            });
        }
        let mut seen = std::mem::take(&mut self.seen);
        seen.sort_unstable();
        seen.dedup();
        SessionOutcome { delivery, seen }
    }
}

/// An empty delivery record for `spec`, filled in by the consumer.
pub(crate) fn empty_delivery(spec: &SessionSpec) -> SessionDelivery {
    SessionDelivery {
        name: spec.name.clone(),
        viewpoint: spec.viewpoint,
        tier: spec.tier,
        ..SessionDelivery::default()
    }
}

/// One session as the plane hands it to [`fold_report`]: its schedule index,
/// the frames it was owed, and what its consumer returned — or, when the
/// consumer died, the failed delivery to report instead.
pub(crate) struct SessionReturn {
    pub(crate) session: usize,
    pub(crate) window: Range<u32>,
    pub(crate) outcome: Result<SessionOutcome, SessionDelivery>,
}

/// Fold the deterministic offered load and the timing-dependent delivery
/// outcomes into the final report.  `broker` must already be finished.
///
/// Every (rank, frame) the pumps offered inside a session's window ends up
/// completed, skipped, or typed: a frame the session never received a chunk
/// of and was not degraded out of — because a dead fan task never sent it —
/// is a `MissingFrame` with nothing received.
pub(crate) fn fold_report(
    mut broker: SessionBroker,
    outcomes: &[PeOutcome],
    mut sessions: Vec<SessionReturn>,
) -> ServiceRunReport {
    sessions.sort_by_key(|s| s.session);
    let frames = outcomes.iter().map(|o| o.per_frame.len()).max().unwrap_or(0);
    let mut per_frame = vec![(0u64, 0u64); frames];
    let mut offered: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for o in outcomes {
        for (f, &(chunks, bytes)) in o.per_frame.iter().enumerate() {
            per_frame[f].0 += chunks;
            per_frame[f].1 += bytes;
        }
        for (&key, &total) in &o.offered {
            offered.entry(key).or_insert(total);
        }
    }
    broker.fold_fanout_load(&per_frame);
    let events = broker.events().to_vec();
    let mut stats = broker.stats().clone();
    for o in outcomes {
        stats.chunks_delivered += o.delivered;
        stats.chunks_dropped += o.dropped.values().sum::<u64>();
    }
    let skipped = |session: usize, frame: u32| outcomes.iter().any(|o| o.skips.contains(&(session, frame)));
    let mut reports = Vec::with_capacity(sessions.len());
    for SessionReturn {
        session,
        window,
        outcome,
    } in sessions
    {
        let mut delivery = match outcome {
            Err(failed) => failed,
            Ok(SessionOutcome { mut delivery, seen }) => {
                // Both run in (frame, rank) order: walk them together.
                let mut seen = seen.into_iter().peekable();
                for (&(frame, rank), &total) in offered.range((window.start, 0)..(window.end, 0)) {
                    while seen.next_if(|&key| key < (frame, rank)).is_some() {}
                    if seen.peek() != Some(&(frame, rank)) && !skipped(session, frame) {
                        delivery.errors.push(ViewerError::MissingFrame {
                            rank,
                            frame,
                            received_chunks: 0,
                            total_chunks: total,
                        });
                    }
                }
                delivery
            }
        };
        for o in outcomes {
            delivery.chunks_dropped += o.dropped.get(&session).copied().unwrap_or(0);
            delivery.frames_skipped += o.skips.range((session, 0)..=(session, u32::MAX)).count() as u64;
        }
        stats.frames_completed += delivery.frames_completed;
        stats.frames_skipped += delivery.frames_skipped;
        reports.push(delivery);
    }
    ServiceRunReport {
        stats,
        sessions: reports,
        events,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::service::QualityTier;
    use crate::test_support::{copy_counter_turn, hostile_chunks};
    use std::collections::HashSet;

    /// A session of this name has its consumer panic on its fourth chunk.
    pub(crate) const PANICS: &str = "panics mid-stage";

    pub(super) fn panic_if_told(delivery: &SessionDelivery) {
        if delivery.name == PANICS && delivery.chunks_delivered == 4 {
            panic!("the consumer of {PANICS} was told to");
        }
    }

    /// The per-session path the plane ran before it published waves: each
    /// session its own bounded striped link, every chunk re-striped onto it
    /// with one `try_send_raw_chunk` (a full stripe degrades the session for
    /// the rest of the frame), and a consumer folding each chunk through its
    /// own `FrameAssembler`.  The oracle the published waves are held to.
    mod oracle {
        use super::super::{empty_delivery, SessionDelivery, SessionSpec};
        use crate::transport::{
            striped_link, AssemblyEvent, FrameAssembler, FrameChunk, StripeReceiver, StripeSender, TransportConfig,
        };
        use crate::viewer::ViewerError;
        use std::collections::{HashMap, HashSet};

        pub(super) struct Endpoint {
            pub(super) session: usize,
            pub(super) spec: SessionSpec,
            pub(super) sender: StripeSender,
            pub(super) end_frame: u32,
        }

        impl Endpoint {
            fn wants(&self, frame: u32) -> bool {
                self.spec.live_at(frame) && frame < self.end_frame
            }
        }

        /// One admitted session's own bounded striped queue.
        pub(super) fn session_link(spec: &SessionSpec, default_queue_depth: usize) -> (StripeSender, StripeReceiver) {
            striped_link(&TransportConfig {
                stripes: spec.stripes.max(1),
                queue_depth: spec.queue_depth.unwrap_or(default_queue_depth),
                tuning: spec.tuning,
                pace_rate_mbps: None,
                ..TransportConfig::default()
            })
        }

        #[derive(Default)]
        pub(super) struct Outcome {
            pub(super) delivered: u64,
            pub(super) dropped: HashMap<usize, u64>,
            pub(super) skipped: HashMap<usize, u64>,
        }

        pub(super) fn multicast_wave(
            chunks: &[FrameChunk],
            endpoints: &[Endpoint],
            skips: &mut HashSet<(usize, u32)>,
            outcome: &mut Outcome,
        ) {
            let Some(first) = chunks.first() else { return };
            let frame = first.frame;
            for ep in endpoints {
                if !ep.wants(frame) {
                    continue;
                }
                let stripes = ep.spec.stripes.max(1);
                let mut skipped = skips.contains(&(ep.session, frame));
                for chunk in chunks {
                    if skipped {
                        *outcome.dropped.entry(ep.session).or_default() += 1;
                        continue;
                    }
                    let fanned = FrameChunk {
                        stripe: chunk.seq % stripes,
                        ..chunk.clone()
                    };
                    match ep.sender.try_send_raw_chunk(fanned) {
                        Ok(true) => outcome.delivered += 1,
                        Ok(false) => {
                            skips.insert((ep.session, frame));
                            *outcome.skipped.entry(ep.session).or_default() += 1;
                            *outcome.dropped.entry(ep.session).or_default() += 1;
                            skipped = true;
                        }
                        Err(_) => *outcome.dropped.entry(ep.session).or_default() += 1,
                    }
                }
            }
        }

        /// Fold every chunk `rx` holds, in the plane's order, into a fresh
        /// delivery.  The link hands a stripe's chunks out in the order they
        /// went in but takes turns between stripes, so the order a consumer
        /// folded them in depended on when it woke; a consumer woken per
        /// chunk folds them in the plane's order, which each chunk's
        /// `stripe_seq` records here.
        pub(super) fn consume(spec: &SessionSpec, mut rx: StripeReceiver) -> SessionDelivery {
            let mut chunks = Vec::new();
            while let Some(chunk) = rx.try_recv_chunk() {
                chunks.push(chunk);
            }
            assert!(rx.is_closed());
            for stripe in 0..spec.stripes.max(1) {
                let order: Vec<u64> = chunks
                    .iter()
                    .filter(|c| c.stripe == stripe)
                    .map(|c| c.stripe_seq)
                    .collect();
                assert!(order.windows(2).all(|w| w[0] < w[1]), "stripe {stripe} is FIFO");
            }
            chunks.sort_by_key(|c| c.stripe_seq);
            let mut delivery = empty_delivery(spec);
            let mut assembler = FrameAssembler::new();
            for chunk in chunks {
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
            for (rank, frame, received, total) in assembler.pending_frames() {
                delivery.errors.push(ViewerError::MissingFrame {
                    rank,
                    frame,
                    received_chunks: received,
                    total_chunks: total,
                });
            }
            delivery
        }
    }

    /// One case, drawn from `seed`: a hostile chunk sequence cut into waves
    /// (split at random as well as where a `WaveBuffer` flushes) and
    /// multicast to 1–64 sessions of 1–8 stripes, per-stripe depths 1–32,
    /// join/leave windows, closes mid-run, one in four paced — through
    /// `multicast_wave` and through the oracle.  The consumers stay parked
    /// until the fan is done, so which chunks a full lane refuses does not
    /// depend on scheduling.  Every delivery and every outcome count must
    /// agree.
    fn session_case(seed: u64, reach: &mut Reach) {
        // The assemblers' gather copies are counted process-wide.
        let _turn = copy_counter_turn();
        let mut rng = proptest::TestRng::for_test(&format!("session verdicts {seed}"));
        let mut below = |n: u64| rng.next_u64() % n.max(1);
        let mut chunks = hostile_chunks(seed);
        for (at, chunk) in chunks.iter_mut().enumerate() {
            chunk.stripe_seq = at as u64;
        }
        let mut waves = Vec::new();
        let mut buffer = WaveBuffer::new();
        for chunk in chunks {
            if buffer.must_flush_before(&chunk) {
                waves.push(buffer.take());
            }
            if buffer.push(chunk) || below(4) == 0 {
                waves.push(buffer.take());
            }
        }
        waves.push(buffer.take());
        waves.retain(|wave| !wave.is_empty());

        let default_depth = 1 + below(32) as usize;
        let sessions = 1 + below(64) as usize;
        let mut endpoints = Vec::new();
        let mut views = Vec::new();
        let mut oracle_endpoints = Vec::new();
        let mut oracle_rxs = Vec::new();
        let mut closes = Vec::new();
        for session in 0..sessions {
            let mut spec = SessionSpec::new(format!("s{session}"), 0, QualityTier::Standard);
            spec.stripes = 1 + below(8) as u32;
            if below(4) != 0 {
                spec.queue_depth = Some(1 + below(32) as usize);
            }
            if below(4) == 0 {
                spec = spec.paced_at_mbps(0.01 + below(100) as f64 / 100.0);
            }
            spec.join_frame = below(3) as u32;
            if below(3) == 0 {
                spec.leave_frame = Some(spec.join_frame + 1 + below(5) as u32);
            }
            if below(4) == 0 {
                closes.push((below(waves.len() as u64) as usize, session, below(7) as u32));
            }
            let (sender, rx) = oracle::session_link(&spec, default_depth);
            oracle_rxs.push(rx);
            oracle_endpoints.push(oracle::Endpoint {
                session,
                spec: spec.clone(),
                sender,
                end_frame: u32::MAX,
            });
            let (endpoint, view) = session_lane(session, spec, default_depth);
            endpoints.push(endpoint);
            views.push(view);
        }
        reach.closes += closes.len();

        let mut plane = FrameAssembler::new();
        let mut outcome = PeOutcome::default();
        let mut oracle_skips = HashSet::new();
        let mut oracle_outcome = oracle::Outcome::default();
        for (at, wave) in waves.into_iter().enumerate() {
            for &(_, session, frame) in closes.iter().filter(|c| c.0 == at) {
                endpoints[session].close_at(frame);
                oracle_endpoints[session].end_frame = frame;
            }
            oracle::multicast_wave(&wave, &oracle_endpoints, &mut oracle_skips, &mut oracle_outcome);
            multicast_wave(&mut plane, wave, &endpoints, &mut outcome);
        }
        drop(endpoints);
        let specs: Vec<SessionSpec> = oracle_endpoints.into_iter().map(|ep| ep.spec).collect();

        for (session, (mut view, rx)) in views.into_iter().zip(oracle_rxs).enumerate() {
            let spec = &specs[session];
            let want = oracle::consume(spec, rx);
            loop {
                match view.fold(1 + below(40) as usize) {
                    Folded::Closed => break,
                    Folded::Drained(_) => panic!("case {seed}: an open lane after every endpoint dropped"),
                    Folded::More => {}
                    Folded::Paced(_) => reach.paced += 1,
                }
            }
            let got = view.finish().delivery;
            assert_eq!(got, want, "case {seed}, session {session} ({spec:?})");
            for e in &got.errors {
                match e {
                    ViewerError::LateStripe { .. } => reach.late += 1,
                    ViewerError::Corrupt { detail, .. } => {
                        // A refused chunk names why; anything else is a
                        // frame that did not decode, which ended it.
                        let refused = ["duplicate chunk", "out of range", "totals disagree", "announces"];
                        if refused.iter().any(|why| detail.contains(why)) {
                            reach.refused += 1;
                        } else {
                            reach.undecodable += 1;
                        }
                    }
                    _ => reach.missing += 1,
                }
            }
        }
        reach.degraded += outcome.skips.len();
        assert_eq!(outcome.delivered, oracle_outcome.delivered, "case {seed}");
        assert_eq!(outcome.dropped, oracle_outcome.dropped, "case {seed}");
        let mut skipped: HashMap<usize, u64> = HashMap::new();
        for &(session, _) in &outcome.skips {
            *skipped.entry(session).or_default() += 1;
        }
        assert_eq!(skipped, oracle_outcome.skipped, "case {seed}");
    }

    /// What a batch of cases reached: each must be reached for the batch to
    /// mean anything.
    #[derive(Debug, Default)]
    struct Reach {
        /// (session, frame)s degraded for a lane out of credit.
        degraded: usize,
        /// Folds a pacer cut short, to resume mid-wave.
        paced: usize,
        /// Windows closed mid-run.
        closes: usize,
        late: usize,
        /// Chunks refused while their frame stayed pending.
        refused: usize,
        /// Frames ended by a failed decode.
        undecodable: usize,
        missing: usize,
    }

    fn session_cases(seeds: Range<u64>) {
        let mut reach = Reach::default();
        for seed in seeds {
            session_case(seed, &mut reach);
        }
        let Reach {
            degraded,
            paced,
            closes,
            late,
            refused,
            undecodable,
            missing,
        } = reach;
        assert!(
            [degraded, paced, closes, late, refused, undecodable, missing]
                .iter()
                .all(|&n| n > 0),
            "{reach:?}"
        );
    }

    #[test]
    fn session_verdicts_agree_with_the_per_session_oracle() {
        session_cases(0..500);
    }

    #[test]
    #[ignore = "10^4 cases; run in release"]
    fn session_verdicts_agree_with_the_per_session_oracle_at_scale() {
        session_cases(0..10_000);
    }
}
