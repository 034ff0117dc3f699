//! The striped WAN transport: chunked, sequence-numbered, shaped frame links.
//!
//! "the Visapult viewer and back end use multiple TCP streams between each
//! back end PE and the viewer" (§3.4) — striping is what let the paper drive
//! an OC-12 at line rate when a single circa-2000 TCP window could not.  This
//! module gives the real pipeline that link for real: a [`striped_link`]
//! carries each frame as [`FrameChunk`]s fanned round-robin across N stripes,
//! each stripe a bounded in-process channel (backpressure) optionally paced
//! by a [`netsim::StripePacer`] derived from [`netsim::TcpModel`] — so the
//! real path *feels* the modeled WAN: untuned windows crawl, striping flies.
//!
//! Frames are encoded zero-copy ([`crate::protocol::FrameSegments`]): chunks
//! are O(1) [`Bytes`] slices of the payload's own buffers, and the receiving
//! [`FrameAssembler`] rejoins contiguous slices (`Bytes::try_join`) so a
//! texture crosses the link without a single memcpy.  Chunks carry global and
//! per-stripe sequence numbers; reassembly tolerates arbitrary arrival
//! interleavings and surfaces out-of-order and late-chunk telemetry.
//!
//! # What a chunk costs the sender
//!
//! Chunks cross a stripe in runs, not one at a time.
//! [`StripeSender::send_frame`] takes its state lock once per frame: under
//! it every chunk gets its per-stripe sequence number and joins its stripe's
//! run, in `seq` order (the run buffers are kept across frames; the payloads
//! are slices of the frame's own buffers).  It then visits the stripes
//! round-robin, and each visit moves as much of the stripe's run as fits
//! under one channel lock, waking the receiver at most once for the run.  A
//! sweep that moves nothing blocks on the stripe whose next chunk comes
//! first in the frame, and the next sweep starts there.
//!
//! The receiving end mirrors it: [`StripeReceiver`] takes a stripe's whole
//! queue under one lock when every run it holds is empty, and hands chunks
//! out of the runs one stripe per turn, the rotation carrying on across
//! refills, so arrival order stays close to `seq` order.  The backpressure
//! bound is exact: a stripe holds at most `queue_depth` chunks between the
//! two ends, and the chunks the receiver holds count against it until they
//! are given back — a batch of half the queue depth as soon as that many of
//! a stripe's run are handed out, the rest at the next refill, so the sender
//! refills a stripe while the receiver is still handing its run out.
//!
//! A paced link runs the same loop.  A visit first clears the front of the
//! run with the pacer, chunk by chunk in stripe order, up to the first chunk
//! it delays; the cleared chunks go, the sender sleeps out the delay, and
//! that chunk is cleared for the next visit.  Every chunk is still paced
//! once, on its own stripe's bucket.
//!
//! # What a chunk costs the receiver
//!
//! [`FrameAssembler::accept`] is O(1): one slot store, and on the frame's
//! last chunk one pass over the slots, which assembles and decodes the
//! frame.  On the fan-out plane that pass runs once per (rank, frame) for
//! every session, in the plane's own assembler.  The progressive views a
//! viewer polls between chunks — [`FrameAssembler::partial_light`] and
//! [`FrameAssembler::partial_texture`] — are O(1) amortised as well: a
//! pending frame keeps one cursor over its slots that folds each newly
//! contiguous slot into the joined light bytes or the texture prefix exactly
//! once, so polling after every one of a frame's *n* chunks costs *n* slot
//! visits, not *n²*/2.  The cursor is allocated by the first poll; an
//! assembler nobody polls (the fan-out plane's) never pays for it.  The
//! prefix rules, in slot order from slot 0:
//!
//! * a gap (a chunk not yet received) stops the cursor — it resumes there;
//! * the **light** message is the run of segment-0 slots up to the first
//!   slot of another segment; parts that are not adjacent windows of one
//!   buffer cannot be joined and the frame then has no partial light;
//!   the joined bytes are decoded once, as soon as they decode;
//! * the **texture prefix** joins the segment-2 slots in order, skipping
//!   segments 0 and 1, and ends for good at a slot of a later segment or at
//!   the first part that is not adjacent to the prefix so far.
//!
//! Both campaign paths consume the same configuration: the real pipeline runs
//! the link, the virtual-time path replays [`plan_chunks`] over the modeled
//! payload sizes, so the two report structurally identical
//! [`TransportStats`].

use crate::error::VisapultError;
use crate::protocol::{FramePayload, FrameSegments, LightPayload};
use bytes::Bytes;
use crossbeam::channel::{bounded, ReadyHook, Receiver, Sender, TryRecvError, TrySendError};
use netsim::{Bandwidth, StripePacer, TcpConfig};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Which circa-2000 TCP stack the link's stripes model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TcpTuning {
    /// 64 KB receiver windows: a single stream is window-limited on any WAN.
    Untuned,
    /// Large tuned buffers, as the DPSS and Visapult striped sockets used.
    WanTuned,
}

impl TcpTuning {
    /// The corresponding TCP model parameters.
    pub fn tcp_config(&self) -> TcpConfig {
        match self {
            TcpTuning::Untuned => TcpConfig::untuned(),
            TcpTuning::WanTuned => TcpConfig::wan_tuned(),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TcpTuning::Untuned => "untuned",
            TcpTuning::WanTuned => "wan-tuned",
        }
    }
}

/// Configuration of one striped back-end → viewer link.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportConfig {
    /// Parallel stripes per PE link.
    pub stripes: u32,
    /// Maximum chunk payload size in bytes.
    pub chunk_bytes: usize,
    /// Bounded per-stripe queue depth, in chunks (backpressure).
    pub queue_depth: usize,
    /// TCP stack the stripes model (drives pacing and the virtual-time path).
    pub tuning: TcpTuning,
    /// Aggregate pacing rate in Mbps (`None` = unshaped, full speed).
    pub pace_rate_mbps: Option<f64>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            stripes: 4,
            chunk_bytes: 8 * 1024,
            queue_depth: 32,
            tuning: TcpTuning::WanTuned,
            pace_rate_mbps: None,
        }
    }
}

impl TransportConfig {
    /// Builder: set the stripe count.
    pub fn with_stripes(mut self, stripes: u32) -> Self {
        self.stripes = stripes.max(1);
        self
    }

    /// Builder: set the chunk size.
    pub fn with_chunk_bytes(mut self, chunk_bytes: usize) -> Self {
        self.chunk_bytes = chunk_bytes.max(1);
        self
    }

    /// True when the link is bandwidth-shaped.
    pub fn is_paced(&self) -> bool {
        self.pace_rate_mbps.is_some()
    }
}

/// Transport-layer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Every stripe of the link has disconnected.
    Closed,
    /// A chunk or reassembled frame failed validation.
    Corrupt(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "striped link closed"),
            TransportError::Corrupt(msg) => write!(f, "corrupt transport chunk: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<TransportError> for VisapultError {
    fn from(e: TransportError) -> Self {
        VisapultError::Protocol(e.to_string())
    }
}

/// One chunk of one frame, as carried by one stripe.
#[derive(Debug, Clone)]
pub struct FrameChunk {
    /// Timestep number.
    pub frame: u32,
    /// Sending PE rank.
    pub rank: u32,
    /// Global chunk index within the frame (reassembly order).
    pub seq: u32,
    /// Total chunks in the frame.
    pub total: u32,
    /// Stripe that carried this chunk.
    pub stripe: u32,
    /// Per-stripe FIFO sequence number.
    pub stripe_seq: u64,
    /// Which wire segment (0 light, 1 heavy header, 2 texture, 3 geometry)
    /// this chunk slices.
    pub segment: u8,
    /// The chunk bytes — an O(1) slice of the sender's segment buffer.
    pub payload: Bytes,
}

/// One planned chunk: where it falls in the wire segments and which stripe
/// carries it.  [`plan_chunks`] is a pure function shared by the real sender
/// and the virtual-time replay, so both paths stripe identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Global chunk index within the frame.
    pub seq: u32,
    /// Stripe assignment (round-robin by `seq`).
    pub stripe: u32,
    /// Wire segment index (0..4).
    pub segment: u8,
    /// Byte offset within the segment.
    pub start: usize,
    /// Chunk length in bytes.
    pub len: usize,
}

/// Split a frame's wire segments into chunks of at most `chunk_bytes`,
/// assigned round-robin across `stripes`.  Chunks never span a segment
/// boundary, so every chunk is a pure slice of one shared buffer.
pub fn plan_chunks(segment_lens: [usize; 4], chunk_bytes: usize, stripes: u32) -> Vec<ChunkPlan> {
    let chunk_bytes = chunk_bytes.max(1);
    let stripes = stripes.max(1);
    let mut plans = Vec::new();
    let mut seq = 0u32;
    for (segment, &len) in segment_lens.iter().enumerate() {
        let mut start = 0usize;
        while start < len {
            let take = chunk_bytes.min(len - start);
            plans.push(ChunkPlan {
                seq,
                stripe: seq % stripes,
                segment: segment as u8,
                start,
                len: take,
            });
            seq += 1;
            start += take;
        }
    }
    plans
}

/// Per-stripe counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StripeStats {
    /// Chunks this stripe carried.
    pub chunks: u64,
    /// Payload bytes this stripe carried.
    pub bytes: u64,
}

/// Telemetry of one striped link (or the sum of several).
///
/// `frames`, `chunks`, `bytes` and `per_stripe` are deterministic for a given
/// scenario seed (chunking and stripe assignment are pure functions of the
/// payload); `out_of_order_chunks`, `partial_updates` and `reassembly_copies`
/// depend on thread timing and are excluded from replay fingerprints, exactly
/// as wall-clock timestamps are.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransportStats {
    /// Frames fully carried (sender) or reassembled (receiver).
    pub frames: u64,
    /// Total chunks.
    pub chunks: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Per-stripe breakdown, indexed by stripe.
    pub per_stripe: Vec<StripeStats>,
    /// Chunks that arrived out of global sequence order (receiver side).
    pub out_of_order_chunks: u64,
    /// Progressive scene updates emitted from incomplete frames (viewer).
    pub partial_updates: u64,
    /// Reassemblies that fell back to a gather copy because a segment's
    /// slices were not rejoinable in place (0 on the in-process link).
    pub reassembly_copies: u64,
}

impl TransportStats {
    /// Zeroed stats sized for `stripes`.
    pub fn with_stripes(stripes: usize) -> Self {
        TransportStats {
            per_stripe: vec![StripeStats::default(); stripes.max(1)],
            ..Default::default()
        }
    }

    /// Record one chunk on `stripe`.
    pub fn record_chunk(&mut self, stripe: u32, bytes: usize) {
        let idx = stripe as usize;
        if idx >= self.per_stripe.len() {
            self.per_stripe.resize(idx + 1, StripeStats::default());
        }
        self.per_stripe[idx].chunks += 1;
        self.per_stripe[idx].bytes += bytes as u64;
        self.chunks += 1;
        self.bytes += bytes as u64;
    }

    /// Number of stripes these stats cover.
    pub fn stripe_count(&self) -> usize {
        self.per_stripe.len()
    }

    /// Element-wise accumulate `other` into `self` (stripe vectors are padded
    /// to the longer of the two).
    pub fn merge(&mut self, other: &TransportStats) {
        self.frames += other.frames;
        self.chunks += other.chunks;
        self.bytes += other.bytes;
        self.out_of_order_chunks += other.out_of_order_chunks;
        self.partial_updates += other.partial_updates;
        self.reassembly_copies += other.reassembly_copies;
        if self.per_stripe.len() < other.per_stripe.len() {
            self.per_stripe.resize(other.per_stripe.len(), StripeStats::default());
        }
        for (mine, theirs) in self.per_stripe.iter_mut().zip(&other.per_stripe) {
            mine.chunks += theirs.chunks;
            mine.bytes += theirs.bytes;
        }
    }
}

/// Cross-stripe arrival signal: every stripe's data hook bumps one shared
/// generation counter, so a receiver parked on link quiescence wakes on an
/// arrival to *any* stripe.  Parking on a single stripe's condvar — what
/// [`StripeReceiver::recv_chunk`] used to do — went blind to the other
/// stripes: chunks land round-robin (`seq % stripes`), so a receiver parked
/// on stripe 0 while a burst filled stripes 1..N ate its full timeout per
/// chunk, which is exactly the per-handoff latency cliff the threaded plane
/// showed at small session counts.
struct SignalState {
    generation: u64,
    /// Receivers currently parked in [`LinkSignal::wait_past`]; notifies are
    /// skipped while zero (the same sleeper-count gate the channels use), so
    /// a link nobody is parked on pays one uncontended lock per transition,
    /// no syscall.
    waiters: usize,
}

struct LinkSignal {
    state: parking_lot::Mutex<SignalState>,
    cv: parking_lot::Condvar,
}

impl LinkSignal {
    fn new() -> Arc<LinkSignal> {
        let signal = LinkSignal {
            state: parking_lot::Mutex::new(SignalState {
                generation: 0,
                waiters: 0,
            }),
            cv: parking_lot::Condvar::new(),
        };
        signal.state.lockdep_label("link-signal");
        Arc::new(signal)
    }

    /// Current generation; observe *before* scanning the stripes so a bump
    /// that races the scan is caught by [`LinkSignal::wait_past`].
    fn observe(&self) -> u64 {
        self.state.lock().generation
    }

    /// Record an arrival (or disconnect) and wake every parked receiver.
    fn bump(&self) {
        let mut state = self.state.lock();
        state.generation += 1;
        let wake = state.waiters > 0;
        drop(state);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Park until the generation advances past `observed` or `timeout`
    /// elapses (a spurious wake-up returns early too: the caller re-checks
    /// the stripes either way).  The timeout is a safety net, not the wakeup
    /// mechanism — the hooks fire on every empty→non-empty stripe transition
    /// and on sender disconnect, both of which are the only reasons a
    /// fully-drained scan would find something new.
    fn wait_past(&self, observed: u64, timeout: Duration) {
        let mut state = self.state.lock();
        if state.generation != observed {
            return;
        }
        state.waiters += 1;
        self.cv.wait_for(&mut state, timeout);
        state.waiters -= 1;
    }
}

struct SenderState {
    pacer: Option<StripePacer>,
    stripe_seq: Vec<u64>,
    /// The frame being sent, one run per stripe in `seq` order.  The buffers
    /// are kept across frames; the chunks' payloads are the frame's own.
    runs: Vec<VecDeque<FrameChunk>>,
    /// Chunks at the front of each run cleared to go: all of them on an
    /// unpaced link, the ones the pacer has let through on a paced one.
    cleared: Vec<usize>,
    #[cfg(test)]
    counts: SenderCounts,
}

/// What one sender has spent on locks, for the count pins.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SenderCounts {
    /// `SenderState` locks taken by `send_frame`.
    pub(crate) state_locks: usize,
    /// Channel operations `send_frame` made: runs moved and blocking sends.
    pub(crate) channel_locks: usize,
    /// Sweeps that moved nothing and blocked on a full stripe.
    pub(crate) blocks: usize,
    /// Pacing delays slept out.
    pub(crate) sleeps: usize,
}

/// The sending half of a striped link (one per back-end PE).
pub struct StripeSender {
    config: TransportConfig,
    txs: Vec<Sender<FrameChunk>>,
    /// Held for a whole frame, hook fires included, so lockdep watches it.
    state: parking_lot::Mutex<SenderState>,
    stats: Arc<Mutex<TransportStats>>,
}

impl StripeSender {
    /// The link configuration.
    pub fn config(&self) -> &TransportConfig {
        &self.config
    }

    /// Snapshot of the sender-side telemetry.
    pub fn stats(&self) -> TransportStats {
        self.stats.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// A shared handle onto the telemetry, usable after the sender has been
    /// moved into the back end.
    pub fn stats_handle(&self) -> Arc<Mutex<TransportStats>> {
        Arc::clone(&self.stats)
    }

    /// Encode `frame` zero-copy, chunk it across the stripes (pacing each
    /// chunk when the link is shaped) and return the framed wire bytes.
    /// Blocks when a stripe queue is full — that is the backpressure.
    pub fn send_frame(&self, frame: &FramePayload) -> Result<u64, TransportError> {
        let segments = FrameSegments::encode(frame);
        let plans = plan_chunks(segments.lens(), self.config.chunk_bytes, self.config.stripes);
        let seg_bufs = [
            segments.light,
            segments.heavy_header,
            segments.texture,
            segments.geometry,
        ];
        let total = plans.len() as u32;
        // One lock for the frame: every chunk's stripe sequence number is
        // assigned under it, and it stays held while the runs go out, so two
        // frames sent at once never interleave on a stripe.
        let mut guard = self.state.lock();
        let state = &mut *guard;
        #[cfg(test)]
        {
            state.counts.state_locks += 1;
        }
        for plan in &plans {
            let stripe = plan.stripe as usize;
            state.runs[stripe].push_back(FrameChunk {
                frame: frame.light.frame,
                rank: frame.light.rank,
                seq: plan.seq,
                total,
                stripe: plan.stripe,
                stripe_seq: state.stripe_seq[stripe],
                segment: plan.segment,
                payload: seg_bufs[plan.segment as usize].slice(plan.start..plan.start + plan.len),
            });
            state.stripe_seq[stripe] += 1;
        }
        let sent = self.send_runs(state);
        if sent.is_err() {
            for run in &mut state.runs {
                run.clear();
            }
            state.cleared.fill(0);
        }
        drop(guard);
        sent?;
        let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.frames += 1;
        for plan in &plans {
            stats.record_chunk(plan.stripe, plan.len);
        }
        Ok(plans.iter().map(|plan| plan.len as u64).sum())
    }

    /// Move every run onto its stripe (the module docs give the rules).
    fn send_runs(&self, state: &mut SenderState) -> Result<(), TransportError> {
        let stripes = self.txs.len();
        let mut start = 0;
        loop {
            let mut moved = false;
            for stripe in (start..start + stripes).map(|i| i % stripes) {
                let (tx, run) = (&self.txs[stripe], &mut state.runs[stripe]);
                if run.is_empty() {
                    continue;
                }
                let cleared = &mut state.cleared[stripe];
                let mut delay = Duration::ZERO;
                match &mut state.pacer {
                    None => *cleared = run.len(),
                    // Clear the run's front chunk by chunk, up to the first
                    // chunk the pacer delays: that one goes after the sleep.
                    Some(pacer) => {
                        while let Some(chunk) = run.get(*cleared) {
                            delay = pacer.consume(stripe, chunk.payload.len() as u64);
                            if !delay.is_zero() {
                                break;
                            }
                            *cleared += 1;
                        }
                    }
                }
                let n = tx.send_some(run, *cleared).map_err(|_| TransportError::Closed)?;
                #[cfg(test)]
                {
                    state.counts.channel_locks += 1;
                }
                *cleared -= n;
                moved |= n > 0;
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                    *cleared += 1;
                    #[cfg(test)]
                    {
                        state.counts.sleeps += 1;
                    }
                }
            }
            let next = state
                .runs
                .iter()
                .enumerate()
                .filter_map(|(stripe, run)| run.front().map(|chunk| (chunk.seq, stripe)))
                .min();
            let Some((_, stripe)) = next else {
                return Ok(());
            };
            if !moved {
                // Every stripe with chunks left is full: wait on the one
                // whose next chunk comes first in the frame, and start the
                // next sweep there — the receiver frees the stripes in about
                // the order it hands their chunks out.
                start = stripe;
                if let Some(chunk) = state.runs[stripe].pop_front() {
                    state.cleared[stripe] -= 1;
                    #[cfg(test)]
                    {
                        state.counts.channel_locks += 1;
                        state.counts.blocks += 1;
                    }
                    self.txs[stripe].send(chunk).map_err(|_| TransportError::Closed)?;
                }
            }
        }
    }

    /// What this sender has spent on locks so far.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> SenderCounts {
        self.state.lock().counts
    }

    /// Inject a raw chunk onto its stripe, bypassing framing — the fault
    /// hook tests use to exercise duplicate, late and corrupt arrivals.
    pub fn send_raw_chunk(&self, chunk: FrameChunk) -> Result<(), TransportError> {
        let stripe = chunk.stripe as usize % self.txs.len();
        self.txs[stripe].send(chunk).map_err(|_| TransportError::Closed)
    }

    /// Non-blocking raw-chunk injection: `Ok(true)` when queued, `Ok(false)`
    /// when the stripe queue is full right now, `Err(Closed)` when the
    /// receiver is gone.  The fan-out plane's pumps forward to the primary
    /// viewer with it, so a full viewer queue parks a task, not a thread.
    pub fn try_send_raw_chunk(&self, chunk: FrameChunk) -> Result<bool, TransportError> {
        let stripe = chunk.stripe as usize % self.txs.len();
        match self.txs[stripe].try_send(chunk) {
            Ok(()) => Ok(true),
            Err(TrySendError::Full(_)) => Ok(false),
            Err(TrySendError::Disconnected(_)) => Err(TransportError::Closed),
        }
    }

    /// Chunks currently occupying every stripe of this link — queued, or
    /// held by the receiver and not yet released: the instantaneous
    /// stripe-queue depth the telemetry plane samples for its high-water
    /// gauges.  Racy by nature; never used for control flow.
    pub fn queued_chunks(&self) -> usize {
        self.txs.iter().map(|tx| tx.len()).sum()
    }

    /// Register a hook fired whenever any full stripe of this link frees a
    /// slot or the receiver disconnects — the readiness edge an executor-
    /// parked producer task (one that saw [`StripeSender::try_send_raw_chunk`]
    /// report full) waits on.  Edge-triggered: retry the send once after
    /// registering before relying on it.
    pub fn set_space_hook(&self, hook: ReadyHook) {
        for tx in &self.txs {
            tx.set_space_hook(Arc::clone(&hook));
        }
    }
}

/// The receiving half of a striped link: services every stripe and hands out
/// chunks in arrival order (which is *not* sequence order — that is the
/// reassembler's problem, as it is for striped sockets).
pub struct StripeReceiver {
    rxs: Vec<Receiver<FrameChunk>>,
    open: Vec<bool>,
    /// Each stripe's run: its whole queue, taken by the last refill and
    /// handed out front first.
    runs: Vec<VecDeque<FrameChunk>>,
    /// Chunks handed out of each stripe's run and not yet released: until
    /// then they still count against the stripe's capacity.
    handed: Vec<usize>,
    /// Handed-out chunks go back in batches of half the queue depth, so the
    /// sender refills a stripe while the rest of its run is handed out.
    release_batch: usize,
    rotation: usize,
    signal: Arc<LinkSignal>,
    /// Whether the stripes' data hooks feed [`StripeReceiver::signal`] yet.
    /// Armed lazily by the first [`StripeReceiver::recv_chunk`] call: links
    /// drained purely by `try_recv_chunk` (every executor-plane path) never
    /// pay the per-transition bump on their send side.
    signal_armed: bool,
    #[cfg(test)]
    counts: ReceiverCounts,
}

/// What one receiver has spent on locks, and the most chunks any stripe ever
/// held (queued, in a run, or handed out and not released) when it looked.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReceiverCounts {
    /// Channel operations: refills (one per open stripe) and releases.
    pub(crate) channel_locks: usize,
    /// Of those, early releases of a batch of handed-out chunks.
    pub(crate) releases: usize,
    /// `LinkSignal::observe` calls.
    pub(crate) observes: usize,
    /// The in-flight probe's high water, taken on every call.
    pub(crate) in_flight_high: usize,
}

/// Safety-net park interval for [`StripeReceiver::recv_chunk`]: the
/// [`LinkSignal`] wakes the receiver on any stripe's arrival, so this bounds
/// staleness only against a hook being missed, not normal delivery latency.
const RECV_PARK_SAFETY: Duration = Duration::from_millis(10);

impl StripeReceiver {
    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.rxs.len()
    }

    /// Next chunk from any stripe; `Err(Closed)` once every stripe has
    /// disconnected and drained.
    pub fn recv_chunk(&mut self) -> Result<FrameChunk, TransportError> {
        if !self.signal_armed {
            for rx in &self.rxs {
                let stripe_signal = Arc::clone(&self.signal);
                rx.set_data_hook(Arc::new(move || stripe_signal.bump()));
            }
            self.signal_armed = true;
        }
        if let Some(chunk) = self.next_held() {
            return Ok(chunk);
        }
        loop {
            // Observe the arrival generation *before* refilling: a run that
            // lands on an already-visited stripe mid-refill bumps it, and
            // the wait below returns immediately instead of sleeping on a
            // delivery that already happened.
            #[cfg(test)]
            {
                self.counts.observes += 1;
            }
            let observed = self.signal.observe();
            let any_open = self.refill();
            if let Some(chunk) = self.next_held() {
                return Ok(chunk);
            }
            if !any_open {
                return Err(TransportError::Closed);
            }
            // Every open stripe was empty: park until *any* stripe signals
            // an arrival (or disconnect), then refill them all.
            self.signal.wait_past(observed, RECV_PARK_SAFETY);
        }
    }

    /// Register a hook fired whenever any stripe of this link transitions
    /// empty→non-empty or disconnects — the readiness edge an executor-
    /// parked consumer task waits on.  Edge-triggered: poll the stripes once
    /// after registering before relying on it.
    pub fn set_data_hook(&self, hook: ReadyHook) {
        for rx in &self.rxs {
            rx.set_data_hook(Arc::clone(&hook));
        }
    }

    /// Non-blocking poll: the next already-queued chunk, if any.  Used to
    /// drain stragglers (late stripes) after the expected frames are in.
    pub fn try_recv_chunk(&mut self) -> Option<FrameChunk> {
        if let Some(chunk) = self.next_held() {
            return Some(chunk);
        }
        self.refill();
        self.next_held()
    }

    /// The next chunk of the held runs: one stripe per turn, the rotation
    /// carrying on across refills.  Releases a stripe's handed-out chunks
    /// once a batch of them is out.
    fn next_held(&mut self) -> Option<FrameChunk> {
        #[cfg(test)]
        self.probe_in_flight();
        let n = self.runs.len();
        for i in 0..n {
            let idx = (self.rotation + i) % n;
            if let Some(chunk) = self.runs[idx].pop_front() {
                self.rotation = (idx + 1) % n;
                self.handed[idx] += 1;
                if self.handed[idx] >= self.release_batch {
                    self.rxs[idx].release(std::mem::take(&mut self.handed[idx]));
                    #[cfg(test)]
                    {
                        self.counts.channel_locks += 1;
                        self.counts.releases += 1;
                    }
                }
                return Some(chunk);
            }
        }
        None
    }

    /// Take every open stripe's queue whole — one lock per stripe, which
    /// also gives back every chunk handed out since the last refill.  Only
    /// called with every run empty.  False once every stripe has closed.
    fn refill(&mut self) -> bool {
        let mut any_open = false;
        for (idx, rx) in self.rxs.iter().enumerate() {
            if !self.open[idx] {
                continue;
            }
            self.handed[idx] = 0;
            #[cfg(test)]
            {
                self.counts.channel_locks += 1;
            }
            match rx.try_recv_all(&mut self.runs[idx]) {
                Ok(_) | Err(TryRecvError::Empty) => any_open = true,
                Err(TryRecvError::Disconnected) => self.open[idx] = false,
            }
        }
        any_open
    }

    /// The test-only in-flight probe: no stripe may ever hold more than
    /// `queue_depth` chunks, counting the ones this receiver holds.
    #[cfg(test)]
    fn probe_in_flight(&mut self) {
        let high = self.rxs.iter().map(|rx| rx.len()).max().unwrap_or(0);
        self.counts.in_flight_high = self.counts.in_flight_high.max(high);
    }

    /// What this receiver has spent on locks so far.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> ReceiverCounts {
        self.counts
    }

    /// True once every stripe has disconnected *and* drained:
    /// [`StripeReceiver::try_recv_chunk`] will never return another chunk.
    /// Only meaningful after a `try_recv_chunk` returned `None` (lanes are
    /// discovered closed by polling them), which makes
    /// `try_recv_chunk().is_none() && is_closed()` the non-blocking
    /// equivalent of `recv_chunk() == Err(Closed)`.
    pub fn is_closed(&self) -> bool {
        self.open.iter().all(|&open| !open)
    }

    /// Chunks occupying every stripe of this link — queued, or held by this
    /// receiver and not yet released: the receiver-side twin of
    /// [`StripeSender::queued_chunks`], sampled by the fan-out pumps for the
    /// backend-inlet depth gauge.
    pub fn queued_chunks(&self) -> usize {
        self.rxs.iter().map(|rx| rx.len()).sum()
    }
}

/// Build one striped link: `stripes` bounded chunk queues between a sender
/// and a receiver, paced when the config says so.
pub fn striped_link(config: &TransportConfig) -> (StripeSender, StripeReceiver) {
    let stripes = config.stripes.max(1) as usize;
    let signal = LinkSignal::new();
    let mut txs = Vec::with_capacity(stripes);
    let mut rxs = Vec::with_capacity(stripes);
    for _ in 0..stripes {
        let (tx, rx) = bounded(config.queue_depth.max(1));
        txs.push(tx);
        rxs.push(rx);
    }
    let pacer = config
        .pace_rate_mbps
        .map(|mbps| StripePacer::from_rate(Bandwidth::from_mbps(mbps), config.stripes));
    let state = parking_lot::Mutex::new(SenderState {
        pacer,
        stripe_seq: vec![0; stripes],
        runs: vec![VecDeque::new(); stripes],
        cleared: vec![0; stripes],
        #[cfg(test)]
        counts: SenderCounts::default(),
    });
    state.lockdep_label("link-sender");
    (
        StripeSender {
            config: config.clone(),
            txs,
            state,
            stats: Arc::new(Mutex::new(TransportStats::with_stripes(stripes))),
        },
        StripeReceiver {
            rxs,
            open: vec![true; stripes],
            runs: vec![VecDeque::new(); stripes],
            handed: vec![0; stripes],
            release_batch: (config.queue_depth / 2).max(1),
            rotation: 0,
            signal,
            signal_armed: false,
            #[cfg(test)]
            counts: ReceiverCounts::default(),
        },
    )
}

/// What [`FrameAssembler::accept`] observed about one chunk.  `P` is what a
/// completed frame carries: the payload, or `()` for a consumer that only
/// counts frames.
#[derive(Debug)]
pub enum AssemblyEvent<P = FramePayload> {
    /// Chunk stored; its frame is still incomplete.
    Progress {
        /// Sending PE rank.
        rank: u32,
        /// Timestep number.
        frame: u32,
        /// Chunks received so far for this frame.
        received: u32,
        /// Total chunks in the frame.
        total: u32,
    },
    /// The chunk completed its frame; here is the reassembled payload.
    Complete {
        /// The frame, reassembled and validated.
        payload: P,
        /// Framed bytes the frame occupied on the wire.
        wire_bytes: u64,
    },
    /// A stripe delivered a chunk for a frame that already completed.
    Late {
        /// Sending PE rank.
        rank: u32,
        /// Timestep number.
        frame: u32,
        /// Stripe the late chunk arrived on.
        stripe: u32,
    },
}

/// A frame's chunks by sequence number: `(segment, bytes)` once received.
type Slots = Vec<Option<(u8, Bytes)>>;

struct FrameAssembly {
    total: u32,
    received: u32,
    slots: Slots,
    /// The progressive-view cursor, allocated by the first `partial_*` call:
    /// `accept` never touches it, so frames nobody polls carry one null word.
    prefix: Option<Box<PrefixCursor>>,
}

/// One pass over a pending frame's slots, resumed on every poll (the module
/// docs give the rules it applies).  A slot is set once and never changes, so
/// nothing folded is ever revisited.
#[derive(Default)]
struct PrefixCursor {
    /// First slot not folded yet.
    next: usize,
    /// The light parts joined so far.
    light_bytes: Option<Bytes>,
    /// The light message can no longer grow.
    light_closed: bool,
    /// The decoded light payload, once `light_bytes` decodes.
    light: Option<LightPayload>,
    /// The texture parts joined so far.
    texture: Option<Bytes>,
    /// The texture prefix can no longer grow.
    texture_closed: bool,
}

impl PrefixCursor {
    /// Fold every slot that has become contiguous since the last call.
    fn advance(&mut self, slots: &[Option<(u8, Bytes)>]) {
        let mut light_grew = false;
        while let Some(Some((segment, part))) = slots.get(self.next) {
            self.next += 1;
            if *segment == 0 {
                if !self.light_closed {
                    self.light_bytes = match &self.light_bytes {
                        None => Some(part.clone()),
                        Some(prev) => prev.try_join(part),
                    };
                    if self.light_bytes.is_none() {
                        // Not adjacent windows of one buffer: this frame has
                        // no partial light, whatever decoded before.
                        self.light = None;
                        self.light_closed = true;
                    }
                    light_grew = true;
                }
                continue;
            }
            self.light_closed = true;
            if self.texture_closed {
                continue;
            }
            match segment {
                1 => {}
                2 => match &self.texture {
                    None => self.texture = Some(part.clone()),
                    Some(prev) => match prev.try_join(part) {
                        Some(joined) => self.texture = Some(joined),
                        None => self.texture_closed = true,
                    },
                },
                _ => self.texture_closed = true,
            }
        }
        if light_grew && self.light.is_none() {
            self.light = self
                .light_bytes
                .as_ref()
                .and_then(|bytes| crate::protocol::decode_light(bytes).ok());
        }
    }
}

/// The most chunks [`FrameAssembler::accept`] reserves slots for in one
/// frame; a chunk announcing more is [`TransportError::Corrupt`] before
/// anything is allocated.  `total` comes off the wire, and the slot table is
/// sized by it: unbounded, one chunk announcing `u32::MAX` asks for ~137 GB.
/// At 2¹⁶ the worst a hostile chunk can reserve is 2 MB of slots, while the
/// bound is 63× the largest frame any workload sends (`wan_wire`: a 1 MB
/// frame in 1 KB chunks, 1 040 of them) and 16× a 1024² RGBA8 texture at the
/// smallest chunk a scenario can set (1 KB).
pub(crate) const MAX_FRAME_CHUNKS: u32 = 1 << 16;

/// Emptied slot tables an assembler keeps for its next frames.  A session
/// has at most a frame or two per PE in flight, so a few cover steady state.
const SPARE_SLOT_TABLES: usize = 4;

/// Reassembles out-of-order chunks into complete frames, one instance per PE
/// link.  Late and duplicate chunks are surfaced, never silently dropped.
#[derive(Default)]
pub struct FrameAssembler {
    /// Keyed by the wire's `(rank, frame)`, like `completed`: ordered sets,
    /// so no hash a sender could make collide, and no hashing per chunk.
    pending: BTreeMap<(u32, u32), FrameAssembly>,
    completed: BTreeSet<(u32, u32)>,
    /// Slot tables of completed frames, cleared, for the next frames.
    spare: Vec<Slots>,
    /// Receiver-side telemetry (chunks/bytes by stripe, out-of-order count,
    /// reassembly fallback copies, frames completed).
    pub stats: TransportStats,
    /// Slots the prefix cursors have folded — what pins "once per slot".
    #[cfg(test)]
    prefix_folds: usize,
    /// Frames assembled from their slots.
    #[cfg(test)]
    assemblies: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one chunk in; returns what happened.
    pub fn accept(&mut self, chunk: FrameChunk) -> Result<AssemblyEvent, TransportError> {
        self.settle(chunk, |payload| payload)
    }

    /// [`FrameAssembler::accept`] for a consumer that keeps no payload: a
    /// completed frame is still assembled and decoded (a frame that does not
    /// decode is `Corrupt`), then reported without its payload.
    pub(crate) fn accept_verdict(&mut self, chunk: FrameChunk) -> Result<AssemblyEvent<()>, TransportError> {
        self.settle(chunk, |_| ())
    }

    fn settle<P>(
        &mut self,
        chunk: FrameChunk,
        keep: impl FnOnce(FramePayload) -> P,
    ) -> Result<AssemblyEvent<P>, TransportError> {
        let key = (chunk.rank, chunk.frame);
        // A pending frame has not completed, and `pending` holds a frame or
        // two where `completed` holds every frame so far: ask it first.
        if !self.pending.contains_key(&key) && self.completed.contains(&key) {
            return Ok(AssemblyEvent::Late {
                rank: chunk.rank,
                frame: chunk.frame,
                stripe: chunk.stripe,
            });
        }
        if chunk.total == 0 || chunk.seq >= chunk.total {
            return Err(TransportError::Corrupt(format!(
                "chunk seq {}/{} out of range (rank {}, frame {})",
                chunk.seq, chunk.total, chunk.rank, chunk.frame
            )));
        }
        // The slot table below is sized by `total`: bound it before it is.
        if chunk.total > MAX_FRAME_CHUNKS {
            return Err(TransportError::Corrupt(format!(
                "frame {} (rank {}) announces {} chunks, more than the {MAX_FRAME_CHUNKS} a frame may have",
                chunk.frame, chunk.rank, chunk.total
            )));
        }
        let mut entry = match self.pending.entry(key) {
            Entry::Occupied(entry) => entry,
            Entry::Vacant(entry) => {
                let mut slots = self.spare.pop().unwrap_or_default();
                slots.resize(chunk.total as usize, None);
                entry.insert_entry(FrameAssembly {
                    total: chunk.total,
                    received: 0,
                    slots,
                    prefix: None,
                })
            }
        };
        let assembly = entry.get_mut();
        if assembly.total != chunk.total {
            return Err(TransportError::Corrupt(format!(
                "frame {} chunk totals disagree: {} vs {}",
                chunk.frame, assembly.total, chunk.total
            )));
        }
        if assembly.slots[chunk.seq as usize].is_some() {
            return Err(TransportError::Corrupt(format!(
                "duplicate chunk {} for frame {} (rank {})",
                chunk.seq, chunk.frame, chunk.rank
            )));
        }
        if chunk.seq != assembly.received {
            self.stats.out_of_order_chunks += 1;
        }
        self.stats.record_chunk(chunk.stripe, chunk.payload.len());
        assembly.slots[chunk.seq as usize] = Some((chunk.segment, chunk.payload));
        assembly.received += 1;
        if assembly.received < assembly.total {
            return Ok(AssemblyEvent::Progress {
                rank: chunk.rank,
                frame: chunk.frame,
                received: assembly.received,
                total: assembly.total,
            });
        }
        let mut slots = entry.remove().slots;
        self.completed.insert(key);
        #[cfg(test)]
        {
            self.assemblies += 1;
        }
        let (segments, copies) = assemble_segments(slots.drain(..).flatten());
        if self.spare.len() < SPARE_SLOT_TABLES {
            self.spare.push(slots);
        }
        self.stats.reassembly_copies += copies;
        let wire_bytes = segments.wire_bytes();
        let payload = segments.decode().map_err(|e| TransportError::Corrupt(e.to_string()))?;
        self.stats.frames += 1;
        Ok(AssemblyEvent::Complete {
            payload: keep(payload),
            wire_bytes,
        })
    }

    /// Frames this assembler has assembled from their slots.
    #[cfg(test)]
    pub(crate) fn assemblies(&self) -> usize {
        self.assemblies
    }

    /// Frames currently mid-assembly, as `(rank, frame, received, total)` —
    /// what a closing link leaves behind.
    pub fn pending_frames(&self) -> Vec<(u32, u32, u32, u32)> {
        self.pending
            .iter()
            .map(|(&(rank, frame), a)| (rank, frame, a.received, a.total))
            .collect()
    }

    /// True once `(rank, frame)` has fully assembled.
    pub fn is_complete(&self, rank: u32, frame: u32) -> bool {
        self.completed.contains(&(rank, frame))
    }

    /// Bring a pending frame's prefix cursor up to date with its slots.
    fn prefix_cursor(&mut self, rank: u32, frame: u32) -> Option<&PrefixCursor> {
        let assembly = self.pending.get_mut(&(rank, frame))?;
        let cursor = assembly.prefix.get_or_insert_with(Box::default);
        #[cfg(test)]
        let folded_before = cursor.next;
        cursor.advance(&assembly.slots);
        #[cfg(test)]
        {
            self.prefix_folds += cursor.next - folded_before;
        }
        Some(cursor)
    }

    /// The light payload of a pending frame, as soon as its chunks are in —
    /// the viewer uses this to place the quad before any pixels arrive.
    /// `None` until the light message has arrived whole and in order, and for
    /// a frame that is not pending.
    pub fn partial_light(&mut self, rank: u32, frame: u32) -> Option<LightPayload> {
        self.prefix_cursor(rank, frame)?.light.clone()
    }

    /// The contiguous texture prefix of a pending frame: joined zero-copy
    /// from the received chunks, stopping at the first gap.  Returns the
    /// prefix bytes (empty before any texture chunk lands), `None` for a
    /// frame that is not pending.
    pub fn partial_texture(&mut self, rank: u32, frame: u32) -> Option<Bytes> {
        Some(self.prefix_cursor(rank, frame)?.texture.clone().unwrap_or_default())
    }
}

/// Join each segment's slices, in slot order, back into one buffer
/// (zero-copy when the slices are contiguous windows of one allocation, which
/// they are on the in-process link) and count any gather fallbacks.
fn assemble_segments(parts: impl Iterator<Item = (u8, Bytes)>) -> (FrameSegments, u64) {
    let mut segments: [SegmentJoin; 4] = Default::default();
    for (segment, part) in parts {
        segments[(segment as usize).min(3)].push(part);
    }
    let mut copies = 0u64;
    let [light, header, texture, geometry] = segments.map(|joined| joined.finish(&mut copies));
    let segs = FrameSegments {
        light,
        heavy_header: header,
        texture,
        geometry,
    };
    (segs, copies)
}

/// One segment's parts, greedily rejoined in order: `last` is the window
/// still growing, `done` the windows before it that it could not extend.
#[derive(Default)]
struct SegmentJoin {
    done: Vec<Bytes>,
    last: Option<Bytes>,
}

impl SegmentJoin {
    fn push(&mut self, part: Bytes) {
        self.last = Some(match self.last.take() {
            None => part,
            Some(prev) => match prev.try_join(&part) {
                Some(joined) => joined,
                None => {
                    self.done.push(prev);
                    part
                }
            },
        });
    }

    /// The segment as one buffer: the one window, or a gather copy of
    /// several (counted in `copies`).
    fn finish(mut self, copies: &mut u64) -> Bytes {
        let Some(last) = self.last else {
            return Bytes::default();
        };
        if self.done.is_empty() {
            return last;
        }
        self.done.push(last);
        *copies += 1;
        Bytes::gather(&self.done)
    }
}

/// Pump a receiver until its link closes, returning every frame completed in
/// arrival order — the whole-frame convenience the tests and benches use.
pub fn drain_frames(rx: &mut StripeReceiver) -> Result<Vec<FramePayload>, TransportError> {
    let mut assembler = FrameAssembler::new();
    let mut out = Vec::new();
    loop {
        match rx.recv_chunk() {
            Err(TransportError::Closed) => return Ok(out),
            Err(e) => return Err(e),
            Ok(chunk) => {
                if let AssemblyEvent::Complete { payload, .. } = assembler.accept(chunk)? {
                    out.push(payload);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{chunk_frame, copy_counter_turn, hostile_chunks, sample_frame, shuffle};
    use std::time::Instant;

    #[test]
    fn chunk_plan_covers_every_byte_round_robin() {
        let lens = [78, 21, 16_384, 76];
        let plans = plan_chunks(lens, 4096, 3);
        // Coverage: per segment the chunks tile [0, len).
        for (segment, &len) in lens.iter().enumerate() {
            let mut cursor = 0usize;
            for p in plans.iter().filter(|p| p.segment == segment as u8) {
                assert_eq!(p.start, cursor);
                assert!(p.len <= 4096 && p.len > 0);
                cursor += p.len;
            }
            assert_eq!(cursor, len, "segment {segment} fully covered");
        }
        // Sequence numbers dense, stripes round-robin.
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.seq as usize, i);
            assert_eq!(p.stripe, p.seq % 3);
        }
        assert_eq!(plans.iter().map(|p| p.len).sum::<usize>(), lens.iter().sum::<usize>());
    }

    #[test]
    fn striped_roundtrip_is_zero_copy() {
        let config = TransportConfig::default().with_stripes(4).with_chunk_bytes(1000);
        let (tx, mut rx) = striped_link(&config);
        let frames: Vec<FramePayload> = (0..3).map(|f| sample_frame(7, f, 16)).collect();
        let _turn = copy_counter_turn();
        let before = bytes::deep_copy_count();
        let mut wire = 0;
        for f in &frames {
            wire += tx.send_frame(f).unwrap();
        }
        let sender_stats = tx.stats();
        drop(tx);
        let got = drain_frames(&mut rx).unwrap();
        assert_eq!(bytes::deep_copy_count() - before, 0, "striping must not copy");
        assert_eq!(got.len(), 3);
        for (a, b) in got.iter().zip(&frames) {
            assert_eq!(a, b);
            assert!(
                a.heavy.texture_rgba8.ptr_eq(&b.heavy.texture_rgba8),
                "the texture must arrive as the sender's own buffer"
            );
        }
        assert_eq!(sender_stats.frames, 3);
        assert_eq!(sender_stats.bytes, wire);
        assert_eq!(sender_stats.stripe_count(), 4);
        assert!(sender_stats.per_stripe.iter().all(|s| s.chunks > 0));
    }

    #[test]
    fn chunking_is_deterministic_across_sends() {
        let config = TransportConfig::default().with_stripes(5).with_chunk_bytes(777);
        let (tx1, mut rx1) = striped_link(&config);
        let (tx2, mut rx2) = striped_link(&config);
        let f = sample_frame(1, 0, 24);
        tx1.send_frame(&f).unwrap();
        tx2.send_frame(&f).unwrap();
        assert_eq!(tx1.stats(), tx2.stats(), "same payload, same striping");
        drop(tx1);
        drop(tx2);
        drain_frames(&mut rx1).unwrap();
        drain_frames(&mut rx2).unwrap();
    }

    #[test]
    fn reassembly_survives_arbitrary_reordering() {
        // Hand-shuffle a frame's chunks (violating even per-stripe FIFO) and
        // feed them to a bare assembler: the payload must still be exact.
        let f = sample_frame(2, 4, 16);
        let segments = FrameSegments::encode(&f);
        let seg_bufs = [
            segments.light.clone(),
            segments.heavy_header.clone(),
            segments.texture.clone(),
            segments.geometry.clone(),
        ];
        let plans = plan_chunks(segments.lens(), 512, 3);
        let total = plans.len() as u32;
        assert!(total >= 4, "need several chunks to reorder");
        let mut chunks: Vec<FrameChunk> = plans
            .iter()
            .map(|p| FrameChunk {
                frame: 4,
                rank: 2,
                seq: p.seq,
                total,
                stripe: p.stripe,
                stripe_seq: 0,
                segment: p.segment,
                payload: seg_bufs[p.segment as usize].slice(p.start..p.start + p.len),
            })
            .collect();
        // Deterministic "random" permutation.
        let n = chunks.len();
        for i in 0..n {
            let j = (i * 7 + 3) % n;
            chunks.swap(i, j);
        }
        let mut asm = FrameAssembler::new();
        let mut completed = None;
        for c in chunks {
            if let AssemblyEvent::Complete { payload, .. } = asm.accept(c).unwrap() {
                completed = Some(payload);
            }
        }
        let got = completed.expect("frame completes");
        assert_eq!(got, f);
        assert!(got.heavy.texture_rgba8.ptr_eq(&f.heavy.texture_rgba8));
        assert!(asm.stats.out_of_order_chunks > 0, "the shuffle was observed");
        assert_eq!(asm.stats.reassembly_copies, 0, "rejoin is in-place");
    }

    #[test]
    fn late_and_duplicate_chunks_are_surfaced() {
        let config = TransportConfig::default().with_stripes(2).with_chunk_bytes(256);
        let (tx, mut rx) = striped_link(&config);
        let f = sample_frame(0, 0, 8);
        tx.send_frame(&f).unwrap();
        let mut asm = FrameAssembler::new();
        let payload = loop {
            if let AssemblyEvent::Complete { payload, .. } = asm.accept(rx.recv_chunk().unwrap()).unwrap() {
                break payload;
            }
        };
        assert_eq!(payload, f);
        // A stripe delivers a stale chunk after the frame completed.
        tx.send_raw_chunk(FrameChunk {
            frame: 0,
            rank: 0,
            seq: 0,
            total: 4,
            stripe: 1,
            stripe_seq: 99,
            segment: 0,
            payload: Bytes::from(vec![0u8; 16]),
        })
        .unwrap();
        drop(tx);
        let chunk = rx.recv_chunk().unwrap();
        match asm.accept(chunk).unwrap() {
            AssemblyEvent::Late {
                frame: 0,
                rank: 0,
                stripe: 1,
            } => {}
            other => panic!("expected Late, got {other:?}"),
        }
        assert!(matches!(rx.recv_chunk(), Err(TransportError::Closed)));
        // Duplicates within a pending frame are corrupt, not silent.
        let mut asm = FrameAssembler::new();
        let chunk = FrameChunk {
            frame: 9,
            rank: 0,
            seq: 0,
            total: 2,
            stripe: 0,
            stripe_seq: 0,
            segment: 0,
            payload: Bytes::from(vec![1u8; 4]),
        };
        asm.accept(chunk.clone()).unwrap();
        assert!(matches!(asm.accept(chunk), Err(TransportError::Corrupt(_))));
    }

    #[test]
    fn a_chunk_announcing_too_many_chunks_is_refused_before_anything_is_reserved() {
        let chunk = |frame: u32, total: u32| FrameChunk {
            frame,
            rank: 0,
            seq: 0,
            total,
            stripe: 0,
            stripe_seq: 0,
            segment: 0,
            payload: Bytes::from(vec![1u8; 4]),
        };
        let mut asm = FrameAssembler::new();
        for (frame, total) in [(1, u32::MAX), (2, MAX_FRAME_CHUNKS + 1)] {
            let err = asm.accept(chunk(frame, total)).unwrap_err();
            assert!(
                matches!(&err, TransportError::Corrupt(m) if m.contains("more than the")),
                "{err:?}"
            );
        }
        assert_eq!(asm.pending_frames(), vec![], "a refused frame leaves nothing pending");
        assert_eq!(asm.stats.chunks, 0);
        // The bound itself is a frame like any other.
        assert!(matches!(
            asm.accept(chunk(3, MAX_FRAME_CHUNKS)),
            Ok(AssemblyEvent::Progress {
                received: 1,
                total: MAX_FRAME_CHUNKS,
                ..
            })
        ));
    }

    #[test]
    fn partial_light_and_texture_grow_with_chunks() {
        let f = sample_frame(3, 1, 16);
        let segments = FrameSegments::encode(&f);
        let seg_bufs = [
            segments.light.clone(),
            segments.heavy_header.clone(),
            segments.texture.clone(),
            segments.geometry.clone(),
        ];
        let plans = plan_chunks(segments.lens(), 256, 2);
        let total = plans.len() as u32;
        let mut asm = FrameAssembler::new();
        assert!(asm.partial_light(3, 1).is_none());
        let mut seen_partial_texture = false;
        for p in &plans[..plans.len() - 1] {
            asm.accept(FrameChunk {
                frame: 1,
                rank: 3,
                seq: p.seq,
                total,
                stripe: p.stripe,
                stripe_seq: 0,
                segment: p.segment,
                payload: seg_bufs[p.segment as usize].slice(p.start..p.start + p.len),
            })
            .unwrap();
            if p.segment == 0 {
                let light = asm.partial_light(3, 1).expect("light decodes as soon as it lands");
                assert_eq!(light, f.light);
            }
            if p.segment == 2 {
                let prefix = asm.partial_texture(3, 1).unwrap();
                assert_eq!(prefix.len(), p.start + p.len);
                assert_eq!(&prefix[..], &f.heavy.texture_rgba8[..prefix.len()]);
                seen_partial_texture = true;
            }
        }
        assert!(seen_partial_texture);
        assert_eq!(asm.pending_frames(), vec![(3, 1, total - 1, total)]);
    }

    #[test]
    fn pacing_throttles_the_link() {
        // 1 MB of texture over a 8 Mbps (1 MB/s) paced link must take close
        // to a second; unpaced it is effectively instant.
        let unpaced = TransportConfig::default().with_stripes(4).with_chunk_bytes(64 * 1024);
        let mut paced = unpaced.clone();
        paced.pace_rate_mbps = Some(8.0);
        let f = sample_frame(0, 0, 512); // 512*512*4 = 1 MB texture
        for (config, min_s, max_s) in [(&unpaced, 0.0, 0.4), (&paced, 0.6, 30.0)] {
            let (tx, mut rx) = striped_link(config);
            let drain = std::thread::spawn(move || drain_frames(&mut rx).unwrap().len());
            let t = Instant::now();
            tx.send_frame(&f).unwrap();
            drop(tx);
            assert_eq!(drain.join().unwrap(), 1);
            let elapsed = t.elapsed().as_secs_f64();
            assert!(
                elapsed >= min_s && elapsed <= max_s,
                "paced={} took {elapsed}s",
                config.is_paced()
            );
        }
    }

    /// The scan `partial_light` used to be: from slot 0 on every call.  Kept
    /// as the oracle the cursor is held to; `visits` counts slots walked.
    fn scan_partial_light(asm: &FrameAssembler, rank: u32, frame: u32, visits: &mut usize) -> Option<LightPayload> {
        let assembly = asm.pending.get(&(rank, frame))?;
        let mut light: Option<Bytes> = None;
        for slot in &assembly.slots {
            *visits += 1;
            match slot {
                Some((0, part)) => {
                    light = Some(match light {
                        None => part.clone(),
                        Some(prev) => prev.try_join(part)?,
                    });
                }
                Some((_, _)) => break, // past the light segment: it is complete
                None => break,         // gap: decode below fails if light is truncated
            }
        }
        crate::protocol::decode_light(&light?).ok()
    }

    /// The scan `partial_texture` used to be, likewise.
    fn scan_partial_texture(asm: &FrameAssembler, rank: u32, frame: u32, visits: &mut usize) -> Option<Bytes> {
        let assembly = asm.pending.get(&(rank, frame))?;
        let mut texture: Option<Bytes> = None;
        for slot in &assembly.slots {
            *visits += 1;
            match slot {
                Some((2, part)) => {
                    texture = Some(match texture {
                        None => part.clone(),
                        Some(prev) => match prev.try_join(part) {
                            Some(joined) => joined,
                            None => return Some(prev), // non-adjacent: stop at the prefix
                        },
                    });
                }
                Some((s, _)) if *s > 2 => break,
                Some(_) => {}
                None => break, // gap: everything after is not a prefix
            }
        }
        Some(texture.unwrap_or_default())
    }

    /// Feed `chunks` in the order given and hold both incremental views to
    /// the scans after every single `accept`: equal light, equal texture
    /// bytes in the very same window of the very same buffer, nothing
    /// copied, no slot folded twice.  Returns (folds, scan visits).
    fn assert_prefixes_match_the_scans(chunks: Vec<FrameChunk>) -> (usize, usize) {
        let (rank, frame, total) = (chunks[0].rank, chunks[0].frame, chunks[0].total as usize);
        let mut asm = FrameAssembler::new();
        let mut visits = 0usize;
        let _turn = copy_counter_turn();
        let copies_before = bytes::deep_copy_count();
        for chunk in chunks {
            let seq = chunk.seq;
            asm.accept(chunk).unwrap();
            let light = scan_partial_light(&asm, rank, frame, &mut visits);
            let texture = scan_partial_texture(&asm, rank, frame, &mut visits);
            assert_eq!(asm.partial_light(rank, frame), light, "light after chunk {seq}");
            match (asm.partial_texture(rank, frame), texture) {
                (None, None) => {}
                (Some(got), Some(want)) => {
                    assert_eq!(got, want, "texture prefix after chunk {seq}");
                    assert!(
                        got.ptr_eq(&want) || want.is_empty(),
                        "prefix after chunk {seq} is not the scan's window"
                    );
                }
                (got, want) => panic!("texture prefix after chunk {seq}: {got:?} vs the scan's {want:?}"),
            }
        }
        assert_eq!(bytes::deep_copy_count(), copies_before, "a prefix view copied bytes");
        assert!(asm.prefix_folds <= total, "{} folds of {total} slots", asm.prefix_folds);
        (asm.prefix_folds, visits)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn incremental_prefixes_equal_the_scans_under_any_arrival_order(
            tex in 1usize..65,
            chunk_pow in 0u32..9,
            chunk_jitter in 0usize..64,
            stripes in 1u32..9,
            seed in proptest::any::<u64>(),
        ) {
            // 64 B … 16 KB chunks of a 4 B … 16 KB texture: from one chunk
            // per segment to a light message split in two and hundreds of
            // texture parts.
            let chunk_bytes = ((64usize << chunk_pow) + chunk_jitter).min(16 * 1024);
            let mut chunks = chunk_frame(&sample_frame(5, 9, tex), chunk_bytes, stripes);
            shuffle(&mut chunks, seed);
            assert_prefixes_match_the_scans(chunks);
        }
    }

    #[test]
    fn a_split_light_arriving_second_half_first_matches_the_scan() {
        // 64-byte chunks cut the 69-byte light message in two.
        let mut chunks = chunk_frame(&sample_frame(0, 3, 8), 64, 2);
        assert_eq!((chunks[0].segment, chunks[1].segment, chunks[2].segment), (0, 0, 1));
        chunks.swap(0, 1);
        assert_prefixes_match_the_scans(chunks);
    }

    /// A frame in 64-byte chunks (slots 0-1 light, 2 heavy header, 3.. texture)
    /// left one chunk short of complete, so only the progressive views ever
    /// look at it.
    fn unfinished_frame() -> Vec<FrameChunk> {
        let mut chunks = chunk_frame(&sample_frame(4, 0, 16), 64, 4);
        chunks.pop();
        assert!(chunks[1].segment == 0 && (3..8).all(|slot| chunks[slot].segment == 2));
        chunks
    }

    #[test]
    fn texture_parts_that_are_not_adjacent_end_the_prefix_like_the_scan() {
        // Slot 5 is replaced by a buffer of its own, and slot 6 by the window
        // that follows slot 4 in the sender's texture: a cursor that kept
        // going past the foreign part would join it and show bytes the scan
        // never does.
        let trapped = || {
            let mut chunks = unfinished_frame();
            let follows_slot_4 = chunks[5].payload.clone();
            chunks[5].payload = Bytes::from(follows_slot_4.as_slice().to_vec());
            chunks[6].payload = follows_slot_4;
            chunks
        };
        assert_prefixes_match_the_scans(trapped());
        for seed in 0..16 {
            let mut chunks = trapped();
            shuffle(&mut chunks, seed);
            assert_prefixes_match_the_scans(chunks);
        }
        // In order, the prefix is exactly slots 3 and 4.
        let chunks = trapped();
        let want = chunks[3].payload.try_join(&chunks[4].payload).unwrap();
        let mut asm = FrameAssembler::new();
        for chunk in chunks {
            asm.accept(chunk).unwrap();
        }
        assert!(asm.partial_texture(4, 0).unwrap().ptr_eq(&want));
    }

    #[test]
    fn light_parts_that_are_not_adjacent_yield_no_partial_light_like_the_scan() {
        let foreign_second_half = || {
            let mut chunks = unfinished_frame();
            chunks[1].payload = Bytes::from(chunks[1].payload.as_slice().to_vec());
            chunks
        };
        for seed in 0..8 {
            let mut chunks = foreign_second_half();
            shuffle(&mut chunks, seed);
            assert_prefixes_match_the_scans(chunks);
        }
        let mut asm = FrameAssembler::new();
        for chunk in foreign_second_half() {
            asm.accept(chunk).unwrap();
        }
        assert_eq!(asm.partial_light(4, 0), None);
    }

    #[test]
    fn polling_after_every_chunk_folds_each_slot_once() {
        // The `wan_wire` shape: a 512² texture in 1 KB chunks with ~14 KB of
        // grid lines is 1 + 1 + 1024 + 14 = 1040 chunks.
        let mut frame = sample_frame(0, 0, 512);
        frame.heavy.geometry = Arc::new(vec![([0.0; 3], [1.0; 3]); 576]);
        frame.light.geometry_segments = 576;
        let chunks = chunk_frame(&frame, 1024, 8);
        assert_eq!(chunks.len(), 1040);
        // In order, every chunk extends the prefix and the poll after it folds
        // exactly that one slot; the 1040th completes the frame, which leaves
        // nothing pending to poll.  The scans walked the whole prefix again
        // on each of those polls.
        let (folds, scan_visits) = assert_prefixes_match_the_scans(chunks.clone());
        assert_eq!(folds, 1039);
        assert!(scan_visits > 540_000, "the scans visited {scan_visits} slots");
        // Backwards, slot 0 arrives last: nothing is ever contiguous.
        let (folds, _) = assert_prefixes_match_the_scans(chunks.into_iter().rev().collect());
        assert_eq!(folds, 0);
    }

    #[test]
    fn a_frame_nobody_polls_allocates_no_cursor() {
        let mut chunks = chunk_frame(&sample_frame(1, 1, 16), 256, 2);
        chunks.pop();
        let mut asm = FrameAssembler::new();
        for chunk in chunks {
            asm.accept(chunk).unwrap();
        }
        assert!(
            asm.pending[&(1, 1)].prefix.is_none(),
            "accept must not touch the cursor"
        );
        asm.partial_texture(1, 1).unwrap();
        assert!(asm.pending[&(1, 1)].prefix.is_some());
    }

    /// The assembler as it was before its ordered maps, spare slot tables and
    /// verdict-only completions, whole: hashed maps, and every completed
    /// frame assembled from its slots and decoded on the spot.  The oracle
    /// the assembler is held to.
    mod oracle {
        use super::*;
        use std::collections::{HashMap, HashSet};

        struct Pending {
            total: u32,
            received: u32,
            slots: Vec<Option<(u8, Bytes)>>,
        }

        #[derive(Default)]
        pub(super) struct ParentAssembler {
            pending: HashMap<(u32, u32), Pending>,
            completed: HashSet<(u32, u32)>,
            pub(super) stats: TransportStats,
        }

        impl ParentAssembler {
            pub(super) fn accept(&mut self, chunk: FrameChunk) -> Result<AssemblyEvent, TransportError> {
                let key = (chunk.rank, chunk.frame);
                if self.completed.contains(&key) {
                    return Ok(AssemblyEvent::Late {
                        rank: chunk.rank,
                        frame: chunk.frame,
                        stripe: chunk.stripe,
                    });
                }
                if chunk.total == 0 || chunk.seq >= chunk.total {
                    return Err(TransportError::Corrupt(format!(
                        "chunk seq {}/{} out of range (rank {}, frame {})",
                        chunk.seq, chunk.total, chunk.rank, chunk.frame
                    )));
                }
                if chunk.total > MAX_FRAME_CHUNKS {
                    return Err(TransportError::Corrupt(format!(
                        "frame {} (rank {}) announces {} chunks, more than the {MAX_FRAME_CHUNKS} a frame may have",
                        chunk.frame, chunk.rank, chunk.total
                    )));
                }
                let assembly = self.pending.entry(key).or_insert_with(|| Pending {
                    total: chunk.total,
                    received: 0,
                    slots: vec![None; chunk.total as usize],
                });
                if assembly.total != chunk.total {
                    return Err(TransportError::Corrupt(format!(
                        "frame {} chunk totals disagree: {} vs {}",
                        chunk.frame, assembly.total, chunk.total
                    )));
                }
                if assembly.slots[chunk.seq as usize].is_some() {
                    return Err(TransportError::Corrupt(format!(
                        "duplicate chunk {} for frame {} (rank {})",
                        chunk.seq, chunk.frame, chunk.rank
                    )));
                }
                if chunk.seq != assembly.received {
                    self.stats.out_of_order_chunks += 1;
                }
                self.stats.record_chunk(chunk.stripe, chunk.payload.len());
                assembly.slots[chunk.seq as usize] = Some((chunk.segment, chunk.payload));
                assembly.received += 1;
                if assembly.received < assembly.total {
                    return Ok(AssemblyEvent::Progress {
                        rank: chunk.rank,
                        frame: chunk.frame,
                        received: assembly.received,
                        total: assembly.total,
                    });
                }
                let assembly = self.pending.remove(&key).expect("the frame is pending");
                self.completed.insert(key);
                let (segments, copies) = assemble_segments(assembly.slots);
                self.stats.reassembly_copies += copies;
                let wire_bytes = segments.wire_bytes();
                let payload = segments.decode().map_err(|e| TransportError::Corrupt(e.to_string()))?;
                self.stats.frames += 1;
                Ok(AssemblyEvent::Complete { payload, wire_bytes })
            }

            pub(super) fn pending_frames(&self) -> Vec<(u32, u32, u32, u32)> {
                let mut v: Vec<(u32, u32, u32, u32)> = self
                    .pending
                    .iter()
                    .map(|(&(rank, frame), a)| (rank, frame, a.received, a.total))
                    .collect();
                v.sort_unstable();
                v
            }
        }

        fn assemble_segments(slots: Vec<Option<(u8, Bytes)>>) -> (FrameSegments, u64) {
            let mut copies = 0u64;
            let mut segments: [Vec<Bytes>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
            for slot in slots {
                let (segment, part) = slot.expect("assembly is complete");
                segments[(segment as usize).min(3)].push(part);
            }
            let mut join = |parts: Vec<Bytes>| -> Bytes {
                let mut merged: Vec<Bytes> = Vec::with_capacity(parts.len());
                for part in parts {
                    match merged.last_mut() {
                        Some(prev) => match prev.try_join(&part) {
                            Some(joined) => *prev = joined,
                            None => merged.push(part),
                        },
                        None => merged.push(part),
                    }
                }
                if merged.len() > 1 {
                    copies += 1;
                    Bytes::gather(&merged)
                } else {
                    merged.pop().unwrap_or_default()
                }
            };
            let [light, header, texture, geometry] = segments;
            let segs = FrameSegments {
                light: join(light),
                heavy_header: join(header),
                texture: join(texture),
                geometry: join(geometry),
            };
            (segs, copies)
        }
    }

    /// What an assembler reported for one chunk, comparable across the
    /// assemblers (a verdict-only completion carries no payload).
    #[derive(Debug, PartialEq)]
    enum Seen {
        Progress(u32, u32, u32, u32),
        Complete(Option<FramePayload>, u64),
        Late(u32, u32, u32),
        Error(String),
    }

    fn seen<P>(event: &Result<AssemblyEvent<P>, TransportError>, payload: impl Fn(&P) -> Option<FramePayload>) -> Seen {
        match event {
            Ok(AssemblyEvent::Progress {
                rank,
                frame,
                received,
                total,
            }) => Seen::Progress(*rank, *frame, *received, *total),
            Ok(AssemblyEvent::Complete { payload: p, wire_bytes }) => Seen::Complete(payload(p), *wire_bytes),
            Ok(AssemblyEvent::Late { rank, frame, stripe }) => Seen::Late(*rank, *frame, *stripe),
            Err(e) => Seen::Error(e.to_string()),
        }
    }

    /// One hostile chunk sequence, drawn from `seed`, through a private
    /// assembler, one that keeps only verdicts, and the oracle: every event,
    /// error text, pending list and stat must agree, and nothing may panic.
    fn hostile_case(seed: u64) {
        // Gather copies are counted process-wide.
        let _turn = copy_counter_turn();
        let mut oracle = oracle::ParentAssembler::default();
        let mut private = FrameAssembler::new();
        let mut verdicts = FrameAssembler::new();
        for chunk in hostile_chunks(seed) {
            let want = oracle.accept(chunk.clone());
            let private_event = private.accept(chunk.clone());
            let verdict = verdicts.accept_verdict(chunk);
            let want_seen = seen(&want, |p| Some(p.clone()));
            assert_eq!(
                seen(&private_event, |p| Some(p.clone())),
                want_seen,
                "private, case {seed}"
            );
            let mut stripped = want_seen;
            if let Seen::Complete(payload, _) = &mut stripped {
                *payload = None;
            }
            assert_eq!(seen(&verdict, |_| None), stripped, "verdict only, case {seed}");
            let pending = oracle.pending_frames();
            assert_eq!(private.pending_frames(), pending, "case {seed}");
            assert_eq!(verdicts.pending_frames(), pending, "case {seed}");
        }
        for stats in [&private.stats, &verdicts.stats] {
            assert_eq!(stats, &oracle.stats, "case {seed}");
        }
    }

    #[test]
    fn hostile_chunk_sequences_agree_with_the_oracle() {
        for seed in 0..500 {
            hostile_case(seed);
        }
    }

    #[test]
    #[ignore = "10^5 cases; run in release"]
    fn hostile_chunk_sequences_agree_with_the_oracle_at_scale() {
        for seed in 0..100_000 {
            hostile_case(seed);
        }
    }

    /// The link as it was before runs: per chunk, one `SenderState` lock
    /// (stripe sequence number and pacer), a sleep when paced and one
    /// blocking channel send; on the other end one `try_recv` per chunk,
    /// after a `LinkSignal` observe on every `recv_chunk`.  The oracle the
    /// striped link is held to.
    mod link_oracle {
        use super::*;

        struct SenderState {
            pacer: Option<StripePacer>,
            stripe_seq: Vec<u64>,
        }

        pub(super) struct ParentSender {
            config: TransportConfig,
            txs: Vec<Sender<FrameChunk>>,
            state: Mutex<SenderState>,
        }

        impl ParentSender {
            pub(super) fn send_frame(&self, frame: &FramePayload) -> Result<u64, TransportError> {
                let segments = FrameSegments::encode(frame);
                let plans = plan_chunks(segments.lens(), self.config.chunk_bytes, self.config.stripes);
                let seg_bufs = [
                    segments.light,
                    segments.heavy_header,
                    segments.texture,
                    segments.geometry,
                ];
                let total = plans.len() as u32;
                let mut wire = 0u64;
                for plan in &plans {
                    let payload = seg_bufs[plan.segment as usize].slice(plan.start..plan.start + plan.len);
                    let (stripe_seq, delay) = {
                        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
                        let s = state.stripe_seq[plan.stripe as usize];
                        state.stripe_seq[plan.stripe as usize] += 1;
                        let delay = state
                            .pacer
                            .as_mut()
                            .map(|p| p.consume(plan.stripe as usize, plan.len as u64))
                            .unwrap_or(Duration::ZERO);
                        (s, delay)
                    };
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    wire += plan.len as u64;
                    self.txs[plan.stripe as usize]
                        .send(FrameChunk {
                            frame: frame.light.frame,
                            rank: frame.light.rank,
                            seq: plan.seq,
                            total,
                            stripe: plan.stripe,
                            stripe_seq,
                            segment: plan.segment,
                            payload,
                        })
                        .map_err(|_| TransportError::Closed)?;
                }
                Ok(wire)
            }
        }

        pub(super) struct ParentReceiver {
            rxs: Vec<Receiver<FrameChunk>>,
            open: Vec<bool>,
            rotation: usize,
            signal: Arc<LinkSignal>,
            signal_armed: bool,
        }

        impl ParentReceiver {
            pub(super) fn recv_chunk(&mut self) -> Result<FrameChunk, TransportError> {
                if !self.signal_armed {
                    for rx in &self.rxs {
                        let stripe_signal = Arc::clone(&self.signal);
                        rx.set_data_hook(Arc::new(move || stripe_signal.bump()));
                    }
                    self.signal_armed = true;
                }
                loop {
                    let observed = self.signal.observe();
                    if let Some(chunk) = self.try_recv_chunk() {
                        return Ok(chunk);
                    }
                    if self.is_closed() {
                        return Err(TransportError::Closed);
                    }
                    self.signal.wait_past(observed, RECV_PARK_SAFETY);
                }
            }

            pub(super) fn try_recv_chunk(&mut self) -> Option<FrameChunk> {
                let n = self.rxs.len();
                for i in 0..n {
                    let idx = (self.rotation + i) % n;
                    if !self.open[idx] {
                        continue;
                    }
                    match self.rxs[idx].try_recv() {
                        Ok(chunk) => {
                            self.rotation = (idx + 1) % n;
                            return Some(chunk);
                        }
                        Err(TryRecvError::Empty) => {}
                        Err(TryRecvError::Disconnected) => self.open[idx] = false,
                    }
                }
                None
            }

            pub(super) fn is_closed(&self) -> bool {
                self.open.iter().all(|&open| !open)
            }
        }

        pub(super) fn parent_link(config: &TransportConfig) -> (ParentSender, ParentReceiver) {
            let stripes = config.stripes.max(1) as usize;
            let (txs, rxs) = (0..stripes).map(|_| bounded(config.queue_depth.max(1))).unzip();
            let pacer = config
                .pace_rate_mbps
                .map(|mbps| StripePacer::from_rate(Bandwidth::from_mbps(mbps), config.stripes));
            (
                ParentSender {
                    config: config.clone(),
                    txs,
                    state: Mutex::new(SenderState {
                        pacer,
                        stripe_seq: vec![0; stripes],
                    }),
                },
                ParentReceiver {
                    rxs,
                    open: vec![true; stripes],
                    rotation: 0,
                    signal: LinkSignal::new(),
                    signal_armed: false,
                },
            )
        }
    }

    /// A chunk as the differential cases compare it: every field, and the
    /// payload's bytes.
    type Arrival = (u32, u32, u32, u32, u32, u64, u8, Vec<u8>);

    fn arrival(chunk: &FrameChunk) -> Arrival {
        (
            chunk.frame,
            chunk.rank,
            chunk.seq,
            chunk.total,
            chunk.stripe,
            chunk.stripe_seq,
            chunk.segment,
            chunk.payload.as_slice().to_vec(),
        )
    }

    /// What the differential cases reached, so a run shows it covered every
    /// path it claims to.
    #[derive(Default)]
    struct LinkUse {
        sequential: usize,
        paced_sleeps: usize,
        blocks: usize,
        releases: usize,
    }

    /// Every frame over the parent's link, drained on this thread while the
    /// sender runs on its own.
    fn oracle_arrivals(config: &TransportConfig, frames: &[FramePayload]) -> Vec<Arrival> {
        let (tx, mut rx) = link_oracle::parent_link(config);
        let frames = frames.to_vec();
        let sender = std::thread::spawn(move || {
            for frame in &frames {
                tx.send_frame(frame).unwrap();
            }
        });
        let mut arrivals = Vec::new();
        while let Ok(chunk) = rx.recv_chunk() {
            arrivals.push(arrival(&chunk));
        }
        sender.join().unwrap();
        arrivals
    }

    /// One differential case: 1–8 stripes, chunks of 1 B to 16 KB, a queue
    /// depth of 1–32 and 1–4 frames of mixed sizes, paced one time in four,
    /// over the striped link and the per-chunk oracle.
    fn link_case(seed: u64, reached: &mut LinkUse) {
        let mut rng = proptest::TestRng::for_test(&format!("striped link {seed}"));
        let mut below = |n: u64| rng.next_u64() % n.max(1);
        let stripes = 1 + below(8) as u32;
        let scale = below(15);
        let chunk_bytes = ((1usize << scale) + below(1 << scale) as usize).min(16 * 1024);
        let queue_depth = 1 + below(32) as usize;
        let config = TransportConfig {
            stripes,
            chunk_bytes,
            queue_depth,
            tuning: TcpTuning::WanTuned,
            pace_rate_mbps: (below(4) == 0).then_some(2.0),
        };
        let frames: Vec<FramePayload> = (0..1 + below(4) as u32)
            .map(|f| sample_frame(3, f, 1 + below(24) as usize))
            .collect();
        let context = format!("seed {seed}: {config:?}, {} frames", frames.len());
        let want = oracle_arrivals(&config, &frames);

        // The striped link, its sender on its own thread and this thread a
        // consumer that yields at random points.
        let (tx, mut rx) = striped_link(&config);
        let sender = {
            let frames = frames.clone();
            std::thread::spawn(move || {
                for frame in &frames {
                    tx.send_frame(frame).unwrap();
                }
                tx.counts()
            })
        };
        let mut got = Vec::new();
        loop {
            match below(8) {
                0 => std::thread::yield_now(),
                1 => std::thread::sleep(Duration::from_micros(below(50))),
                2 => match rx.try_recv_chunk() {
                    Some(chunk) => got.push(chunk),
                    None if rx.is_closed() => break,
                    None => {}
                },
                _ => match rx.recv_chunk() {
                    Ok(chunk) => got.push(chunk),
                    Err(_) => break,
                },
            }
        }
        let sent = sender.join().unwrap();
        reached.paced_sleeps += sent.sleeps;
        reached.blocks += sent.blocks;
        let counts = rx.counts();
        reached.releases += counts.releases;
        assert!(
            counts.in_flight_high <= queue_depth,
            "{context}: a stripe held {} chunks",
            counts.in_flight_high
        );
        let mut next_stripe_seq = vec![0u64; stripes as usize];
        for chunk in &got {
            let next = &mut next_stripe_seq[chunk.stripe as usize];
            assert_eq!(
                chunk.stripe_seq, *next,
                "{context}: stripe {} out of order",
                chunk.stripe
            );
            *next += 1;
        }
        let mut assembler = FrameAssembler::new();
        let mut reassembled = Vec::new();
        for chunk in &got {
            if let AssemblyEvent::Complete { payload, .. } = assembler.accept(chunk.clone()).unwrap() {
                reassembled.push(payload);
            }
        }
        reassembled.sort_by_key(|frame| frame.light.frame);
        assert_eq!(reassembled, frames, "{context}");
        let mut got: Vec<Arrival> = got.iter().map(arrival).collect();
        let mut want = want;
        got.sort();
        want.sort();
        assert!(got == want, "{context}: the chunks differ from the oracle's");

        // When each frame fits in the stripes, send one and drain it dry, frame
        // by frame, over both links: with nothing racing, the arrival order
        // itself must match the oracle's, rotation and all.
        let fits = frames.iter().all(|frame| {
            let chunks = plan_chunks(FrameSegments::encode(frame).lens(), chunk_bytes, stripes).len();
            chunks.div_ceil(stripes as usize) <= queue_depth
        });
        if fits && config.pace_rate_mbps.is_none() {
            reached.sequential += 1;
            let (tx, mut rx) = striped_link(&config);
            let (oracle_tx, mut oracle_rx) = link_oracle::parent_link(&config);
            for frame in &frames {
                tx.send_frame(frame).unwrap();
                oracle_tx.send_frame(frame).unwrap();
                let got: Vec<Arrival> = std::iter::from_fn(|| rx.try_recv_chunk())
                    .map(|c| arrival(&c))
                    .collect();
                let want: Vec<Arrival> = std::iter::from_fn(|| oracle_rx.try_recv_chunk())
                    .map(|c| arrival(&c))
                    .collect();
                assert!(
                    got == want,
                    "{context}: frame {} arrived in another order",
                    frame.light.frame
                );
            }
            drop(tx);
            assert!(rx.try_recv_chunk().is_none() && rx.is_closed(), "{context}");
        }
    }

    fn assert_links_agree(cases: u64) {
        let mut reached = LinkUse::default();
        for seed in 0..cases {
            link_case(seed, &mut reached);
        }
        assert!(
            reached.sequential > 0 && reached.paced_sleeps > 0 && reached.blocks > 0 && reached.releases > 0,
            "the cases must reach the ordered, paced, blocking and releasing paths"
        );
    }

    #[test]
    fn the_striped_link_agrees_with_the_per_chunk_oracle() {
        assert_links_agree(500);
    }

    #[test]
    #[ignore = "10^4 cases; run in release"]
    fn the_striped_link_agrees_with_the_per_chunk_oracle_at_scale() {
        assert_links_agree(10_000);
    }

    #[test]
    fn one_frame_costs_one_state_lock_a_run_per_stripe_and_two_refills() {
        // 35 chunks over 4 stripes, at most 9 a stripe: the frame fits in a
        // queue depth of 32 and stays under half of it, so nothing blocks and
        // nothing is released early.
        let config = TransportConfig {
            queue_depth: 32,
            ..TransportConfig::default().with_stripes(4).with_chunk_bytes(128)
        };
        let frame = sample_frame(0, 0, 32);
        let chunks = plan_chunks(FrameSegments::encode(&frame).lens(), 128, 4).len();
        assert_eq!(chunks, 35);
        for through_recv_chunk in [false, true] {
            let (tx, mut rx) = striped_link(&config);
            tx.send_frame(&frame).unwrap();
            let sent = tx.counts();
            assert_eq!(
                sent.state_locks, 1,
                "SenderState locks for one frame; the parent took one per chunk, {chunks}"
            );
            assert!(
                sent.channel_locks <= 4,
                "{} sender channel locks for one frame over 4 stripes; the parent took one per chunk, {chunks}",
                sent.channel_locks
            );
            drop(tx);
            let received = if through_recv_chunk {
                std::iter::from_fn(|| rx.recv_chunk().ok()).count()
            } else {
                std::iter::from_fn(|| rx.try_recv_chunk()).count()
            };
            assert_eq!(received, chunks);
            assert!(rx.is_closed());
            let counts = rx.counts();
            assert_eq!(
                counts.channel_locks,
                2 * 4,
                "receiver channel locks, two refills of 4 stripes; the parent took one per chunk and one per \
                 stripe to see the close, {}",
                chunks + 4
            );
            let observes = if through_recv_chunk { 2 } else { 0 };
            assert_eq!(
                counts.observes,
                observes,
                "LinkSignal observes, one per refill; the parent observed on every recv_chunk, {}",
                chunks + 1
            );
        }
        // Every frame takes the state lock once, however many there are.
        let (tx, rx) = striped_link(&config);
        let drain = std::thread::spawn(move || {
            let mut rx = rx;
            drain_frames(&mut rx).unwrap().len()
        });
        for f in 0..3 {
            tx.send_frame(&sample_frame(0, f, 32)).unwrap();
        }
        assert_eq!(tx.counts().state_locks, 3);
        drop(tx);
        assert_eq!(drain.join().unwrap(), 3);
    }

    /// Run `body` on its own thread: a hang fails the test after 60 s instead
    /// of stalling the suite.
    fn within_a_minute<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(body());
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("finished within 60 s, without a panic")
    }

    #[test]
    fn a_sender_blocked_mid_run_hears_the_receiver_drop_while_it_holds_a_run() {
        within_a_minute(|| {
            let config = TransportConfig {
                queue_depth: 2,
                ..TransportConfig::default().with_stripes(2).with_chunk_bytes(64)
            };
            let (tx, mut rx) = striped_link(&config);
            let sender = std::thread::spawn(move || tx.send_frame(&sample_frame(0, 0, 16)));
            rx.recv_chunk().unwrap();
            // Both stripes full, counting the run this receiver holds: the
            // sender has nowhere to go but a blocking send.
            while rx.queued_chunks() < 4 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            assert!(rx.runs.iter().any(|run| !run.is_empty()), "the receiver holds a run");
            drop(rx);
            assert_eq!(sender.join().unwrap(), Err(TransportError::Closed));
        });
    }

    #[test]
    fn a_sender_that_drops_mid_frame_leaves_its_runs_to_be_handed_out_then_closed() {
        within_a_minute(|| {
            let config = TransportConfig {
                queue_depth: 2,
                ..TransportConfig::default().with_stripes(2).with_chunk_bytes(64)
            };
            let (tx, mut rx) = striped_link(&config);
            let chunks = chunk_frame(&sample_frame(0, 0, 16), 64, 2);
            let half = chunks.len() / 2;
            let sender = std::thread::spawn(move || {
                for chunk in chunks.into_iter().take(half) {
                    tx.send_raw_chunk(chunk).unwrap();
                }
            });
            let mut received = 0;
            while rx.recv_chunk().is_ok() {
                received += 1;
            }
            sender.join().unwrap();
            assert_eq!(received, half, "every chunk sent before the drop is handed out");
            assert!(rx.is_closed() && rx.try_recv_chunk().is_none());
        });
    }

    #[test]
    fn stats_merge_pads_stripe_vectors() {
        let mut a = TransportStats::with_stripes(2);
        a.record_chunk(0, 10);
        a.frames = 1;
        let mut b = TransportStats::with_stripes(4);
        b.record_chunk(3, 40);
        b.out_of_order_chunks = 2;
        a.merge(&b);
        assert_eq!(a.stripe_count(), 4);
        assert_eq!(a.frames, 1);
        assert_eq!(a.chunks, 2);
        assert_eq!(a.bytes, 50);
        assert_eq!(a.per_stripe[3].bytes, 40);
        assert_eq!(a.out_of_order_chunks, 2);
    }
}
