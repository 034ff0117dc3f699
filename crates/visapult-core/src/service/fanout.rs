//! The fan-out seam: everything behaviour-defining about serving a session,
//! independent of how chunks reach the plane.
//!
//! The receive loop ([`super::asyncplane`]) assembles each chunk once, on
//! its link's [`FrameAssembler`], and decides *when* a wave of the verdicts
//! moves; this module decides *what happens* to it.  `multicast_wave` folds
//! a wave's verdicts into every session that wants it, as far as the
//! session's queue has room (the degradation seam); `fold_report` makes the
//! run's report.  A verdict depends only on its (rank, frame)'s chunks, which
//! a session takes in the loop's order — all, or a prefix — so each session
//! folds the events its own assembler would have reported; only a late
//! chunk's stripe is the session's own.

use super::{ServiceRunReport, SessionBroker, SessionDelivery, SessionSpec};
use crate::transport::{AssemblyEvent, FrameAssembler, FrameChunk, TransportError};
use crate::viewer::ViewerError;
use netlogger::metrics::{CounterHandle, HighWaterHandle, Histo, MetricsHub};
use netsim::{Bandwidth, StripePacer};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::Range;
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

    /// Pre-resolved handles for the wave fast path.
    pub(crate) fn meter(&self) -> WaveMeter {
        WaveMeter {
            live: self.hub.is_enabled(),
            wave_us: self.hub.histogram("fanout/wave_us"),
            waves: self.hub.counter("fanout/waves"),
            chunks: self.hub.counter("fanout/chunks"),
            sessions_high: self.hub.high_water("fanout/endpoints"),
            inlet_high: self.hub.high_water("fanout/queue_depth"),
        }
    }
}

/// The plane's multicast instrumentation: when telemetry is off every record
/// is an inlined no-op and the `Instant` reads are skipped entirely, so the
/// disabled fast path is byte-for-byte the bare [`multicast_wave`] call.
pub(crate) struct WaveMeter {
    live: bool,
    wave_us: Histo,
    waves: CounterHandle,
    chunks: CounterHandle,
    sessions_high: HighWaterHandle,
    inlet_high: HighWaterHandle,
}

impl WaveMeter {
    /// [`multicast_wave`], timed into the `fanout/wave_us` histogram when
    /// telemetry is live.
    pub(crate) fn multicast(&self, wave: &Wave, sessions: &mut [Session], now: Duration, outcome: &mut PeOutcome) {
        if !self.live {
            multicast_wave(wave, sessions, now, outcome);
            return;
        }
        let started = Instant::now();
        let n = wave.chunks.len() as u64;
        multicast_wave(wave, sessions, now, outcome);
        self.wave_us.record(started.elapsed().as_micros() as u64);
        self.waves.add(1);
        self.chunks.add(n);
    }

    /// Sample the session count and a backend link's queued chunks
    /// (frame-boundary cadence only — never the per-chunk path).
    pub(crate) fn observe_depths(&self, sessions: usize, inlet_depth: usize) {
        if self.live {
            self.sessions_high.observe(sessions as u64);
            self.inlet_high.observe(inlet_depth as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Waves: each (rank, frame) assembled once, folded into every session
// ---------------------------------------------------------------------------

/// What a link's assembler made of one chunk, as a session reads it.
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

impl Verdict {
    /// The verdict `event` is: what `assembler` made of a chunk of
    /// `(rank, frame)`.
    pub(crate) fn of(
        event: &Result<AssemblyEvent, TransportError>,
        assembler: &FrameAssembler,
        rank: u32,
        frame: u32,
    ) -> Verdict {
        match event {
            Ok(AssemblyEvent::Progress { received, total, .. }) => Verdict::Progress {
                received: *received,
                total: *total,
            },
            Ok(AssemblyEvent::Complete { .. }) => Verdict::Complete,
            Ok(AssemblyEvent::Late { .. }) => Verdict::Late,
            // A chunk of a frame that had ended is `Late`, so a frame that is
            // complete after an error is the one this chunk failed to decode.
            Err(e) => Verdict::Corrupt {
                detail: e.to_string(),
                ends_frame: assembler.is_complete(rank, frame),
            },
        }
    }
}

/// One chunk of a wave: what a session needs of it, not its payload.
pub(crate) struct WaveChunk {
    pub(crate) seq: u32,
    pub(crate) bytes: usize,
    pub(crate) verdict: Verdict,
}

/// A run of one (rank, frame)'s chunks, in the loop's order, with the
/// assembler's verdict on each.
pub(crate) struct Wave {
    pub(crate) rank: u32,
    pub(crate) frame: u32,
    pub(crate) chunks: Vec<WaveChunk>,
}

// ---------------------------------------------------------------------------
// Sessions and the degradation seam
// ---------------------------------------------------------------------------

/// One admitted session, owned by the plane: its delivery window, its
/// modeled queue and last mile, and what it has made of the waves so far.
///
/// Sessions are never removed mid-run: stripe interleaving means a chunk of
/// frame `f` can be observed after the broker has already processed frame
/// `f+1`, so membership is decided by the wave's own frame against the
/// session's deterministic `[join, end)` window, not by when the wave
/// happened to flush.  `end_frame` is the leave or eviction frame the broker
/// decided (`u32::MAX` until then).
pub(crate) struct Session {
    /// The session's schedule index.
    pub(crate) session: usize,
    pub(crate) spec: SessionSpec,
    end_frame: u32,
    /// Chunks each stripe of the session's queue holds at most.
    depth: usize,
    /// A paced session's last mile, and per stripe the instants its queued
    /// chunks drain at, oldest first.  `None` for an unpaced session, which
    /// drains as it is sent.
    wan: Option<(StripePacer, Vec<VecDeque<Duration>>)>,
    /// `(received, total)` of every frame still in progress.
    pending: BTreeMap<(u32, u32), (u32, u32)>,
    /// Every (frame, rank) a fold took chunks of, in fold order, repeats
    /// allowed.
    seen: Vec<(u32, u32)>,
    delivery: SessionDelivery,
}

/// What a session hands back when the run ends.
pub(crate) struct SessionOutcome {
    pub(crate) delivery: SessionDelivery,
    /// The (frame, rank)s the session received any chunk of, sorted.
    pub(crate) seen: Vec<(u32, u32)>,
}

impl Session {
    /// An admitted session: each stripe's queue holds the session's queue
    /// depth (the service default unless the spec sets one), and a paced
    /// spec drains it through a pacer of its own, so a slow WAN fills only
    /// this session's queue.
    pub(crate) fn new(session: usize, spec: SessionSpec, default_queue_depth: usize) -> Session {
        let stripes = spec.stripes.max(1);
        let wan = spec.pace_rate_mbps.map(|mbps| {
            (
                StripePacer::from_rate(Bandwidth::from_mbps(mbps), stripes),
                vec![VecDeque::new(); stripes as usize],
            )
        });
        Session {
            session,
            depth: spec.queue_depth.unwrap_or(default_queue_depth).max(1),
            wan,
            end_frame: u32::MAX,
            pending: BTreeMap::new(),
            seen: Vec::new(),
            delivery: empty_delivery(&spec),
            spec,
        }
    }

    pub(crate) fn wants(&self, frame: u32) -> bool {
        self.spec.live_at(frame) && frame < self.end_frame
    }

    /// Close the delivery window at the frame the broker decided; straggler
    /// chunks of earlier frames still belong to the session.
    pub(crate) fn close_at(&mut self, frame: u32) {
        self.end_frame = frame;
    }

    /// The frames the session is owed: its `[join, end)` window.
    pub(crate) fn window(&self) -> Range<u32> {
        let join = self.spec.join_frame;
        join..self
            .spec
            .leave_frame
            .map_or(self.end_frame, |leave| leave.min(self.end_frame))
            .max(join)
    }

    /// Queue the longest prefix of `wave` the session's stripes have room
    /// for at `now` on the plane's clock, and return its length.  Chunk
    /// `seq` goes on stripe `seq % stripes`; the first chunk whose stripe is
    /// full ends the prefix.  A queued chunk holds its place until the
    /// pacer's modeled drain instant for it has passed — a wave's own chunks
    /// hold theirs for the whole wave — and an unpaced session never fills.
    fn take_prefix(&mut self, wave: &Wave, now: Duration) -> usize {
        let Some((pacer, queues)) = &mut self.wan else {
            return wave.chunks.len();
        };
        for queue in queues.iter_mut() {
            while queue.front().is_some_and(|&drained| drained <= now) {
                queue.pop_front();
            }
        }
        let stripes = queues.len();
        let mut n = 0;
        for chunk in &wave.chunks {
            let stripe = chunk.seq as usize % stripes;
            if queues[stripe].len() >= self.depth {
                break;
            }
            queues[stripe].push_back(now + pacer.consume_at(stripe, chunk.bytes as u64, now));
            n += 1;
        }
        n
    }

    /// Fold the verdicts on the first `n` chunks of `wave` into the
    /// session's delivery.  The fold commits whole or not at all: a fold cut
    /// short leaves the session as if the wave never came.
    fn fold(&mut self, wave: &Wave, n: usize) {
        let (rank, frame) = (wave.rank, wave.frame);
        let stripes = self.spec.stripes.max(1) as usize;
        let (mut chunks, mut bytes, mut completed) = (0, 0, 0);
        let mut errors = Vec::new();
        // The frame's state after this run: `Some(None)` once it ended.
        let mut state = None;
        for chunk in &wave.chunks[..n] {
            chunks += 1;
            bytes += chunk.bytes as u64;
            match &chunk.verdict {
                Verdict::Progress { received, total } => state = Some(Some((*received, *total))),
                Verdict::Complete => {
                    completed += 1;
                    state = Some(None);
                }
                Verdict::Late => errors.push(ViewerError::LateStripe {
                    rank,
                    frame,
                    stripe: (chunk.seq as usize % stripes) as u32,
                }),
                Verdict::Corrupt { detail, ends_frame } => {
                    if *ends_frame {
                        state = Some(None);
                    }
                    let detail = detail.clone();
                    errors.push(ViewerError::Corrupt { rank, detail });
                }
            }
            #[cfg(test)]
            tests::panic_if_told(&self.delivery, chunks);
        }
        let delivery = &mut self.delivery;
        delivery.chunks_delivered += chunks;
        delivery.bytes_delivered += bytes;
        delivery.frames_completed += completed;
        delivery.errors.append(&mut errors);
        match state {
            Some(Some(progress)) => self.pending.insert((rank, frame), progress),
            Some(None) => self.pending.remove(&(rank, frame)),
            None => None,
        };
        if self.seen.last() != Some(&(frame, rank)) {
            self.seen.push((frame, rank));
        }
    }

    /// The session is over: frames still in progress are surfaced exactly as
    /// the viewer surfaces them — typed, never silent.
    pub(crate) fn finish(self) -> SessionOutcome {
        let mut delivery = self.delivery;
        for (&(rank, frame), &(received, total)) in &self.pending {
            delivery.errors.push(ViewerError::MissingFrame {
                rank,
                frame,
                received_chunks: received,
                total_chunks: total,
            });
        }
        let mut seen = self.seen;
        seen.sort_unstable();
        seen.dedup();
        SessionOutcome { delivery, seen }
    }
}

/// What the plane observed: offered load per backend link, and delivery
/// counters for the publishing side.
#[derive(Default)]
pub(crate) struct PeOutcome {
    /// (chunks, bytes) emitted per frame by this PE (deterministic).
    pub(crate) per_frame: Vec<(u64, u64)>,
    /// Every (frame, rank) this link offered, with the chunk total its first
    /// chunk announced.
    pub(crate) offered: BTreeMap<(u32, u32), u32>,
    last_offered: Option<(u32, u32)>,
    pub(crate) delivered: u64,
    pub(crate) dropped: HashMap<usize, u64>,
    /// The (session, frame)s degraded for a full queue: the rest of the
    /// frame is dropped for that session.
    pub(crate) skips: BTreeSet<(usize, u32)>,
    /// Waves published, and session folds made of them.
    #[cfg(test)]
    pub(crate) published: usize,
    #[cfg(test)]
    pub(crate) folds: usize,
    /// The threads that folded waves.
    #[cfg(test)]
    pub(crate) threads: std::collections::HashSet<std::thread::ThreadId>,
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

/// Accumulates the verdicts on one `(rank, frame)`'s chunks so the loop can
/// publish them as one wave: one fold per session for the run, instead of
/// one per chunk.  Per session the chunk sequence (and thus every stat and
/// degradation decision) is what a chunk-by-chunk plane would produce.
#[derive(Default)]
pub(crate) struct WaveBuffer {
    wave: Option<Wave>,
}

/// Chunks buffered before a wave flushes even if its `total` never arrives —
/// a corrupt total must not turn the buffer into an unbounded sink.
const WAVE_BUFFER_CAP: usize = 4096;

impl WaveBuffer {
    /// True when a chunk of `(rank, frame)` belongs to a different wave than
    /// the buffered one — the caller must flush *before* absorbing it.
    pub(crate) fn must_flush_before(&self, rank: u32, frame: u32) -> bool {
        self.wave.as_ref().is_some_and(|w| (w.rank, w.frame) != (rank, frame))
    }

    /// Absorb the verdict on a chunk of `(rank, frame)` that announced
    /// `total` chunks; returns `true` when the wave is complete (or the safety
    /// cap is hit) and should be flushed now.
    pub(crate) fn push(&mut self, rank: u32, frame: u32, total: u32, chunk: WaveChunk) -> bool {
        let wave = self.wave.get_or_insert_with(|| Wave {
            rank,
            frame,
            chunks: Vec::new(),
        });
        wave.chunks.push(chunk);
        wave.chunks.len() >= (total as usize).clamp(1, WAVE_BUFFER_CAP)
    }

    /// Take whatever is buffered (possibly an incomplete trailing wave).
    pub(crate) fn take(&mut self) -> Option<Wave> {
        self.wave.take()
    }
}

/// Fold a wave — one (rank, frame)'s run of verdicts, as a [`WaveBuffer`]
/// flushes it — into every session that wants its frame, as far as the
/// session's queue has room at `now`.
///
/// This is *the* degradation seam.  A session's queue holds at most its
/// queue depth of chunks per stripe: a chunk whose stripe is full degrades
/// the session for the rest of this (session, frame) — it keeps its partial
/// composite and surfaces a typed `MissingFrame` — while the farm and every
/// other session keep moving.  Chunks withheld from a degraded session are
/// counted dropped.
pub(crate) fn multicast_wave(wave: &Wave, sessions: &mut [Session], now: Duration, outcome: &mut PeOutcome) {
    let frame = wave.frame;
    let len = wave.chunks.len();
    #[cfg(test)]
    {
        outcome.published += 1;
        outcome.threads.insert(std::thread::current().id());
    }
    for session in sessions {
        // Membership is decided by the wave's own frame (a deterministic
        // window), not by when the wave happened to flush.
        if !session.wants(frame) {
            continue;
        }
        let key = (session.session, frame);
        if outcome.skips.contains(&key) {
            *outcome.dropped.entry(session.session).or_default() += len as u64;
            continue;
        }
        let n = session.take_prefix(wave, now);
        if n > 0 {
            session.fold(wave, n);
            outcome.delivered += n as u64;
            #[cfg(test)]
            {
                outcome.folds += 1;
            }
        }
        if n < len {
            outcome.skips.insert(key);
            *outcome.dropped.entry(session.session).or_default() += (len - n) as u64;
        }
    }
}

/// An empty delivery record for `spec`, filled in by its folds.
pub(crate) fn empty_delivery(spec: &SessionSpec) -> SessionDelivery {
    SessionDelivery {
        name: spec.name.clone(),
        viewpoint: spec.viewpoint,
        tier: spec.tier,
        ..SessionDelivery::default()
    }
}

/// Fold the deterministic offered load and the timing-dependent delivery
/// outcomes into the final report.  `broker` must already be finished.
///
/// Every (rank, frame) the plane was offered inside a session's window ends
/// up completed, skipped, or typed: a frame the session never received a
/// chunk of and was not degraded out of — because the plane stopped
/// publishing before it — is a `MissingFrame` with nothing received.
pub(crate) fn fold_report(
    mut broker: SessionBroker,
    outcomes: &[PeOutcome],
    mut sessions: Vec<Session>,
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
    for session in sessions {
        let (index, window) = (session.session, session.window());
        let SessionOutcome { mut delivery, seen } = session.finish();
        // Both run in (frame, rank) order: walk them together.
        let mut seen = seen.into_iter().peekable();
        for (&(frame, rank), &total) in offered.range((window.start, 0)..(window.end, 0)) {
            while seen.next_if(|&key| key < (frame, rank)).is_some() {}
            if seen.peek() != Some(&(frame, rank)) && !skipped(index, frame) {
                delivery.errors.push(ViewerError::MissingFrame {
                    rank,
                    frame,
                    received_chunks: 0,
                    total_chunks: total,
                });
            }
        }
        for o in outcomes {
            delivery.chunks_dropped += o.dropped.get(&index).copied().unwrap_or(0);
            delivery.frames_skipped += o.skips.range((index, 0)..=(index, u32::MAX)).count() as u64;
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

    /// The burst a pacer of under 1.2 Mbps starts with (`TokenBucket::with_default_burst`).
    const PACER_BURST: u64 = 1500;

    /// A session of this name panics inside a fold, on its fourth chunk.
    pub(crate) const PANICS: &str = "panics mid-fold";

    pub(super) fn panic_if_told(delivery: &SessionDelivery, folded: u64) {
        if delivery.name == PANICS && delivery.chunks_delivered + folded == 4 {
            panic!("the fold of {PANICS} was told to");
        }
    }

    /// The per-session path the plane ran before sessions were folds: each
    /// session its own bounded queue per stripe, every chunk re-striped onto
    /// it with one `try_send` (a full stripe degrades the session for the
    /// rest of the frame), a drain that takes chunks off the queues once
    /// their modeled instant has passed, and a consumer folding each chunk
    /// through its own `FrameAssembler`.  The oracle the folds are held to.
    mod oracle {
        use super::super::{empty_delivery, SessionDelivery, SessionSpec};
        use super::Reach;
        use crate::transport::{AssemblyEvent, FrameAssembler, FrameChunk};
        use crate::viewer::ViewerError;
        use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
        use netsim::{Bandwidth, StripePacer};
        use std::collections::{HashMap, HashSet, VecDeque};
        use std::time::Duration;

        pub(super) struct Endpoint {
            pub(super) session: usize,
            pub(super) spec: SessionSpec,
            pub(super) end_frame: u32,
            /// One bounded queue per stripe, as the session's own striped
            /// link had.
            queues: Vec<(Sender<FrameChunk>, Receiver<FrameChunk>)>,
            /// Per stripe, the instant each queued chunk drains at.
            drains: Vec<VecDeque<Duration>>,
            depth: usize,
            /// Chunks sent on each stripe over the whole run.
            sent: Vec<usize>,
            pub(super) pacer: Option<StripePacer>,
            /// Chunks drained off the queues, in the order they left.
            drained: Vec<FrameChunk>,
        }

        impl Endpoint {
            pub(super) fn new(session: usize, spec: SessionSpec, default_queue_depth: usize) -> Endpoint {
                let stripes = spec.stripes.max(1);
                let depth = spec.queue_depth.unwrap_or(default_queue_depth).max(1);
                Endpoint {
                    session,
                    end_frame: u32::MAX,
                    queues: (0..stripes).map(|_| bounded(depth)).collect(),
                    drains: vec![VecDeque::new(); stripes as usize],
                    depth,
                    sent: vec![0; stripes as usize],
                    pacer: spec
                        .pace_rate_mbps
                        .map(|mbps| StripePacer::from_rate(Bandwidth::from_mbps(mbps), stripes)),
                    drained: Vec::new(),
                    spec,
                }
            }

            fn wants(&self, frame: u32) -> bool {
                self.spec.live_at(frame) && frame < self.end_frame
            }

            /// Take every chunk whose drain instant is `now` or earlier off
            /// its stripe's queue.
            fn drain(&mut self, now: Duration) {
                for ((_, rx), drains) in self.queues.iter().zip(&mut self.drains) {
                    while drains.front().is_some_and(|&at| at <= now) {
                        drains.pop_front();
                        self.drained.extend(rx.try_recv().ok());
                    }
                }
            }

            /// Fold every chunk the session was sent, in the plane's order
            /// (each chunk's `stripe_seq` records it), into a fresh delivery.
            pub(super) fn consume(mut self) -> SessionDelivery {
                let mut chunks = std::mem::take(&mut self.drained);
                for (_, rx) in &self.queues {
                    while let Ok(chunk) = rx.try_recv() {
                        chunks.push(chunk);
                    }
                }
                chunks.sort_by_key(|c| c.stripe_seq);
                let mut delivery = empty_delivery(&self.spec);
                let mut assembler = FrameAssembler::new();
                for chunk in chunks {
                    delivery.chunks_delivered += 1;
                    delivery.bytes_delivered += chunk.payload.len() as u64;
                    let rank = chunk.rank;
                    match assembler.accept(chunk) {
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

        #[derive(Default)]
        pub(super) struct Outcome {
            pub(super) delivered: u64,
            pub(super) dropped: HashMap<usize, u64>,
            pub(super) skipped: HashMap<usize, u64>,
        }

        /// Send one wave's chunks at `now`, chunk by chunk, to every
        /// endpoint that wants them.
        pub(super) fn multicast_wave(
            chunks: &[FrameChunk],
            endpoints: &mut [Endpoint],
            now: Duration,
            skips: &mut HashSet<(usize, u32)>,
            outcome: &mut Outcome,
            reach: &mut Reach,
        ) {
            let Some(first) = chunks.first() else { return };
            let frame = first.frame;
            for ep in endpoints.iter_mut().filter(|ep| ep.wants(frame)) {
                ep.drain(now);
                let stripes = ep.spec.stripes.max(1);
                let mut skipped = skips.contains(&(ep.session, frame));
                for chunk in chunks {
                    if skipped {
                        *outcome.dropped.entry(ep.session).or_default() += 1;
                        continue;
                    }
                    let stripe = chunk.seq % stripes;
                    let fanned = FrameChunk {
                        stripe,
                        ..chunk.clone()
                    };
                    let s = stripe as usize;
                    let (tx, rx) = &ep.queues[s];
                    match tx.try_send(fanned) {
                        Ok(()) => {
                            outcome.delivered += 1;
                            ep.sent[s] += 1;
                            match &mut ep.pacer {
                                // An unpaced session drains as it is sent.
                                None => ep.drained.extend(rx.try_recv().ok()),
                                Some(pacer) => {
                                    if ep.sent[s] > ep.depth {
                                        reach.reused += 1;
                                    }
                                    let bytes = chunk.payload.len() as u64;
                                    ep.drains[s].push_back(now + pacer.consume_at(s, bytes, now));
                                }
                            }
                        }
                        Err(TrySendError::Full(_)) => {
                            if ep.drains[s].back().is_some_and(|&at| at > now) {
                                reach.held += 1;
                            }
                            skips.insert((ep.session, frame));
                            *outcome.skipped.entry(ep.session).or_default() += 1;
                            *outcome.dropped.entry(ep.session).or_default() += 1;
                            skipped = true;
                        }
                        Err(TrySendError::Disconnected(_)) => unreachable!("the oracle holds both ends"),
                    }
                }
            }
        }
    }

    /// One case, drawn from `seed`: a hostile chunk sequence cut into waves
    /// (split at random as well as where a `WaveBuffer` flushes), published
    /// at random instants of the plane's clock to 1–64 sessions of 1–8
    /// stripes, per-stripe depths 1–32, join/leave windows, closes mid-run,
    /// one in four paced — through `multicast_wave` and through the oracle.
    /// Every delivery and every outcome count must agree.
    fn session_case(seed: u64, reach: &mut Reach) {
        // The assemblers' gather copies are counted process-wide.
        let _turn = copy_counter_turn();
        let mut rng = proptest::TestRng::for_test(&format!("session verdicts {seed}"));
        let mut below = |n: u64| rng.next_u64() % n.max(1);
        let mut chunks = hostile_chunks(seed);
        for (at, chunk) in chunks.iter_mut().enumerate() {
            chunk.stripe_seq = at as u64;
        }
        // Each wave twice: its chunks, for the oracle, and the verdicts of
        // the one assembler they went through, as the receive loop buffers
        // them.
        let mut waves = Vec::new();
        let mut plane = FrameAssembler::new();
        let mut buffer = WaveBuffer::default();
        let mut raw = Vec::new();
        for chunk in chunks {
            let (rank, frame, seq, total, bytes) =
                (chunk.rank, chunk.frame, chunk.seq, chunk.total, chunk.payload.len());
            if buffer.must_flush_before(rank, frame) {
                waves.extend(buffer.take().map(|wave| (std::mem::take(&mut raw), wave)));
            }
            raw.push(chunk.clone());
            let event = plane.accept(chunk);
            let verdict = Verdict::of(&event, &plane, rank, frame);
            if buffer.push(rank, frame, total, WaveChunk { seq, bytes, verdict }) || below(4) == 0 {
                waves.extend(buffer.take().map(|wave| (std::mem::take(&mut raw), wave)));
            }
        }
        waves.extend(buffer.take().map(|wave| (raw, wave)));

        let default_depth = 1 + below(32) as usize;
        let count = 1 + below(64) as usize;
        let mut sessions = Vec::new();
        let mut endpoints = Vec::new();
        let mut closes = Vec::new();
        for session in 0..count {
            let mut spec = SessionSpec::new(format!("s{session}"), 0, QualityTier::Standard);
            spec.stripes = 1 + below(8) as u32;
            if below(4) != 0 {
                spec.queue_depth = Some(1 + below(32) as usize);
            }
            if below(4) == 0 {
                // 125 B/s to 25 KB/s: past its 1500-byte burst, a stripe
                // takes from a few to hundreds of milliseconds a chunk.
                spec = spec.paced_at_mbps(0.001 + below(200) as f64 / 1000.0);
            }
            spec.join_frame = below(3) as u32;
            if below(3) == 0 {
                spec.leave_frame = Some(spec.join_frame + 1 + below(5) as u32);
            }
            if below(4) == 0 {
                closes.push((below(waves.len() as u64) as usize, session, below(7) as u32));
            }
            let mut endpoint = oracle::Endpoint::new(session, spec.clone(), default_depth);
            let mut plane_session = Session::new(session, spec, default_depth);
            // Each paced last mile starts with its burst spent, so pacing
            // holds chunks from the first wave on.
            if let (Some(pacer), Some((plane_pacer, queues))) = (&mut endpoint.pacer, &mut plane_session.wan) {
                for stripe in 0..queues.len() {
                    pacer.consume_at(stripe, PACER_BURST, Duration::ZERO);
                    plane_pacer.consume_at(stripe, PACER_BURST, Duration::ZERO);
                }
            }
            endpoints.push(endpoint);
            sessions.push(plane_session);
        }
        reach.closes += closes.len();

        let mut outcome = PeOutcome::default();
        let mut oracle_skips = HashSet::new();
        let mut oracle_outcome = oracle::Outcome::default();
        let mut now = Duration::ZERO;
        for (at, (chunks, wave)) in waves.into_iter().enumerate() {
            // The plane's clock between two waves: often not at all, or up
            // to the time a paced stripe takes to drain a few chunks.
            now += Duration::from_micros(below(3) * below(40_000));
            for &(_, session, frame) in closes.iter().filter(|c| c.0 == at) {
                sessions[session].close_at(frame);
                endpoints[session].end_frame = frame;
            }
            oracle::multicast_wave(
                &chunks,
                &mut endpoints,
                now,
                &mut oracle_skips,
                &mut oracle_outcome,
                reach,
            );
            multicast_wave(&wave, &mut sessions, now, &mut outcome);
        }

        for (session, (got, ep)) in sessions.into_iter().zip(endpoints).enumerate() {
            let spec = format!("{:?}", ep.spec);
            let want = ep.consume();
            let got = got.finish().delivery;
            assert_eq!(got, want, "case {seed}, session {session} ({spec})");
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
    pub(super) struct Reach {
        /// (session, frame)s degraded for a full queue.
        degraded: usize,
        /// Degradations where the full stripe still held a chunk its pacer
        /// had not drained yet.
        held: usize,
        /// Paced chunks sent into a stripe that had taken more than its
        /// depth over the run: there was room only because the clock
        /// drained earlier chunks.
        reused: usize,
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
            held,
            reused,
            closes,
            late,
            refused,
            undecodable,
            missing,
        } = reach;
        assert!(
            [degraded, held, reused, closes, late, refused, undecodable, missing]
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
