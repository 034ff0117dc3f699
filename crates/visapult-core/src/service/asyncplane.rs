//! The fan-out plane: every session for the price of memory, not threads.
//!
//! One implementation serves one session and a hundred thousand alike.  Every
//! unit of work is a polled state-machine task on a small [`exec::Executor`]
//! worker pool, so OS thread count is the pool size — independent of the
//! session count — and the broker is always a [`ShardedBroker`] (a plain
//! [`super::SessionBroker`] is its one-shard case):
//!
//! * `ShardPumpTask` — one per backend PE link.  Polls chunks off the striped
//!   link with `try_recv`, accounts the offered load, forwards to the primary
//!   viewer (non-blocking with a carried chunk, so a full primary queue parks
//!   *this task*, not an OS thread), and pushes one refcounted clone into
//!   every shard's bounded fan lane.  It never touches a broker lock.
//! * `ShardFanTask` — one per broker shard, polling on that shard's own
//!   executor.  Drains the shard's lane, drives that shard's broker churn
//!   from the frame counter, and multicasts zero-copy clones over that
//!   shard's endpoints through the shared degradation seam
//!   ([`super::fanout`]).  The multicast loop — the dominant cost at 10k
//!   sessions — runs shard-parallel.
//! * `ConsumerTask` — one per admitted session.  Drains the session's own
//!   bounded queue, paces through the session's [`netsim::StripePacer`]
//!   against the [`Clock`] (a pacing delay becomes an `Idle` poll with a
//!   deadline, not a sleeping thread), reassembles frames, and surfaces
//!   anomalies as the typed errors the viewer itself would report.
//!
//! The deterministic half of [`super::ServiceStats`] is byte-identical to the
//! virtual-time replay because both advance the identical broker state
//! machine over the same frame counter.

use super::fanout::{
    consume_chunk, empty_delivery, fold_report, session_link, surface_pending_frames, PeOutcome, PlaneTelemetry,
    SessionEndpoint, WaveBuffer, WaveMeter,
};
use super::sharded::CountedLock;
use super::{ServiceRunReport, SessionBroker, SessionDelivery, SessionEvent, ShardedBroker};
use crate::pipeline::Clock;
use crate::transport::{FrameChunk, StripeReceiver, StripeSender, TransportConfig, TransportError};
use crossbeam::channel::{bounded, ReadyHook, Receiver, Sender, TryRecvError, TrySendError};
use exec::{Executor, Poll, Spawner, Task, TaskHandle, Waker};
use netsim::StripePacer;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Chunks a task moves per poll before yielding the worker: enough to
/// amortize scheduling, small enough that thousands of tasks stay fair.
const POLL_BUDGET: usize = 32;

/// Depth of each shard's fan lane (pump → shard fan task).  Chunks are
/// refcounted slices, so a lane holds windows, not payload copies; a full
/// lane parks the pump task (backpressure), never a worker thread.
const FAN_LANE_DEPTH: usize = 256;

/// Completed-task results are handed back through shared slots (the executor
/// returns no values; a task writes its result right before `Ready`).
type Slot<T> = Arc<Mutex<Option<T>>>;

fn slot<T>() -> Slot<T> {
    Arc::new(Mutex::new(None))
}

fn fill<T>(s: &Slot<T>, value: T) {
    *s.lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
}

fn take<T>(s: &Slot<T>) -> Option<T> {
    s.lock().unwrap_or_else(|e| e.into_inner()).take()
}

/// A channel readiness hook that fires a task's [`Waker`] — how every task
/// below turns "my queue moved" into a targeted re-schedule instead of an
/// executor sweep finding it eventually.
fn wake_hook(waker: Waker) -> ReadyHook {
    Arc::new(move || waker.wake())
}

/// One broker shard's plane-side state: broker, endpoints, and consumer-task
/// registry, behind the shard's own lock and served by the shard's own
/// executor.
struct AsyncState {
    broker: SessionBroker,
    endpoints: Vec<Arc<SessionEndpoint>>,
    /// Position in `endpoints` per global session index (endpoints are
    /// append-only): O(1) Left/Evicted closes instead of an O(live) scan.
    endpoint_of: HashMap<usize, usize>,
    consumers: Vec<(usize, TaskHandle, Slot<SessionDelivery>)>,
    /// Global schedule index per local broker index.  Endpoints, consumers
    /// and deliveries are keyed globally so shard outputs merge without
    /// collisions.
    globals: Vec<usize>,
    /// Decode memo shared by every consumer this shard spawns: sessions all
    /// receive the same multicast chunks, so each frame decodes once.
    decode: Arc<crate::transport::SharedDecode>,
}

impl AsyncState {
    /// Advance the broker to `frame`, materializing queues and consumer
    /// tasks for admissions and closing the delivery window for
    /// leaves/evictions.
    fn observe_frame(&mut self, frame: u32, transport: &TransportConfig, spawner: &Spawner, clock: &Arc<dyn Clock>) {
        if frame < self.broker.next_frame() {
            return;
        }
        let before = self.broker.events().len();
        self.broker.advance_to(frame);
        let new: Vec<(u32, SessionEvent)> = self.broker.events()[before..].to_vec();
        for (at, event) in new {
            match event {
                SessionEvent::Admitted { session } => {
                    let spec = self.broker.spec(session).clone();
                    let global = self.globals[session];
                    let (tx, rx, pacer) = session_link(&spec, self.broker.config().queue_depth, transport);
                    let out = slot();
                    let handle = spawner.spawn(Box::new(ConsumerTask {
                        rx,
                        pacer,
                        clock: Arc::clone(clock),
                        ready_at: Duration::ZERO,
                        delivery: Some(empty_delivery(&spec)),
                        assembler: crate::transport::FrameAssembler::with_shared_decode(Arc::clone(&self.decode)),
                        out: Arc::clone(&out),
                    }));
                    self.consumers.push((global, handle, out));
                    self.endpoint_of.insert(global, self.endpoints.len());
                    self.endpoints.push(SessionEndpoint::new(global, spec, tx));
                }
                SessionEvent::Left { session } | SessionEvent::Evicted { session } => {
                    let global = self.globals[session];
                    if let Some(&i) = self.endpoint_of.get(&global) {
                        self.endpoints[i].close_at(at);
                    }
                }
                SessionEvent::Rejected { .. } => {}
            }
        }
    }
}

/// Forward `chunk` to the primary viewer if one is attached.  Returns the
/// chunk when it still needs carrying (primary full), `Ok` when the chunk
/// may move on to multicast.
fn forward_primary_chunk(primary_tx: &mut Option<StripeSender>, chunk: FrameChunk) -> Result<FrameChunk, FrameChunk> {
    let Some(tx) = primary_tx else {
        return Ok(chunk);
    };
    match tx.try_send_raw_chunk(chunk.clone()) {
        Ok(true) => Ok(chunk),
        Ok(false) => Err(chunk),
        Err(TransportError::Closed) | Err(TransportError::Corrupt(_)) => {
            // The viewer got everything it expected and hung up; keep
            // serving the sessions.
            *primary_tx = None;
            Ok(chunk)
        }
    }
}

/// The per-PE pump: accounts offered load, forwards the
/// primary viewer, and hands each chunk (a refcounted clone) to every shard's
/// fan lane.  It never touches a broker lock and never walks an endpoint
/// list — the multicast work happens shard-parallel in [`ShardFanTask`]s.
struct ShardPumpTask {
    rx: StripeReceiver,
    primary_tx: Option<StripeSender>,
    /// A chunk received and accounted but still owed to the primary viewer.
    carry: Option<FrameChunk>,
    /// A chunk owed to fan lanes `i..`: a full lane parks this task
    /// (backpressure through `Idle`), never a worker thread.
    fan_carry: Option<(usize, FrameChunk)>,
    lanes: Vec<Sender<FrameChunk>>,
    outcome: Option<PeOutcome>,
    out: Slot<PeOutcome>,
}

impl Task for ShardPumpTask {
    fn bind(&mut self, waker: Waker) {
        // Everything this task can park on wakes it: backend-link arrivals
        // and closure, a slot freeing in a full primary viewer queue, and a
        // slot freeing in any full fan lane.
        let hook = wake_hook(waker);
        self.rx.set_data_hook(Arc::clone(&hook));
        if let Some(tx) = &self.primary_tx {
            tx.set_space_hook(Arc::clone(&hook));
        }
        for lane in &self.lanes {
            lane.set_space_hook(Arc::clone(&hook));
        }
    }

    fn poll(&mut self) -> Poll {
        let mut progressed = false;
        let mut budget = POLL_BUDGET;
        loop {
            // Settle the carries before receiving another chunk: primary
            // first, then the remaining fan lanes, preserving per-link
            // chunk order.
            if let Some(chunk) = self.carry.take() {
                match forward_primary_chunk(&mut self.primary_tx, chunk) {
                    Ok(chunk) => self.fan_carry = Some((0, chunk)),
                    Err(chunk) => {
                        // Primary full: the space hook re-queues this task.
                        self.carry = Some(chunk);
                        return if progressed { Poll::Progress } else { Poll::Blocked };
                    }
                }
            }
            if let Some((start, chunk)) = self.fan_carry.take() {
                let mut lane = start;
                while lane < self.lanes.len() {
                    match self.lanes[lane].try_send(chunk.clone()) {
                        Ok(()) => lane += 1,
                        Err(TrySendError::Full(_)) => {
                            // Lane full: its space hook re-queues this task.
                            self.fan_carry = Some((lane, chunk));
                            return if progressed { Poll::Progress } else { Poll::Blocked };
                        }
                        // A dead fan task can't deliver anyway; the sessions
                        // behind it will surface missing frames.
                        Err(TrySendError::Disconnected(_)) => lane += 1,
                    }
                }
                progressed = true;
            }
            if budget == 0 {
                return Poll::Progress;
            }
            match self.rx.try_recv_chunk() {
                Some(chunk) => {
                    budget -= 1;
                    let outcome = self.outcome.as_mut().expect("pump still running");
                    outcome.record_offered(&chunk);
                    self.carry = Some(chunk);
                }
                None => {
                    if self.rx.is_closed() {
                        // Backend link drained and closed: this PE is done.
                        // Dropping the task drops its lane senders, which is
                        // what lets the fan tasks finish.
                        fill(&self.out, self.outcome.take().expect("pump finishes once"));
                        return Poll::Ready;
                    }
                    // Link empty: the data hook re-queues this task on the
                    // next arrival (or on close).
                    return if progressed { Poll::Progress } else { Poll::Blocked };
                }
            }
        }
    }
}

/// One shard's multicast worker: drains the shard's fan lane, drives *this
/// shard's* broker churn from the frame counter, and multicasts over this
/// shard's endpoints only.  Polls on the shard's own executor, so the
/// dominant per-session push loop runs on as many workers as there are
/// shards.  Its outcome carries delivery counters only (offered load is
/// accounted once, by the pump), so folding it alongside the pump outcomes
/// never double-counts.
struct ShardFanTask {
    rx: Receiver<FrameChunk>,
    shard: Arc<CountedLock<AsyncState>>,
    spawner: Spawner,
    transport: TransportConfig,
    clock: Arc<dyn Clock>,
    endpoints: Vec<Arc<SessionEndpoint>>,
    snapshot_frame: Option<u32>,
    skips: HashSet<(usize, u32)>,
    /// The current frame's chunks, held back so the multicast can burst each
    /// session's whole wave contiguously (one consumer wake per frame).
    wave: WaveBuffer,
    outcome: Option<PeOutcome>,
    out: Slot<PeOutcome>,
    telemetry: PlaneTelemetry,
    meter: WaveMeter,
}

impl Task for ShardFanTask {
    fn bind(&mut self, waker: Waker) {
        // The fan lane is this task's only input; its data hook (arrival or
        // every-pump-finished disconnect) is the only wake it needs.
        self.rx.set_data_hook(wake_hook(waker));
    }

    fn poll(&mut self) -> Poll {
        let mut progressed = false;
        for _ in 0..POLL_BUDGET {
            match self.rx.try_recv() {
                Ok(chunk) => {
                    progressed = true;
                    let frame = chunk.frame;
                    // A chunk for a new (rank, frame) closes the buffered
                    // wave: flush it against the snapshot it belongs to,
                    // *before* churn refreshes the endpoints.
                    if self.wave.must_flush_before(&chunk) {
                        let outcome = self.outcome.as_mut().expect("fan task still running");
                        self.meter
                            .multicast(&self.wave.take(), &self.endpoints, &mut self.skips, outcome);
                    }
                    // Drive churn from the frame counter and refresh the
                    // endpoint snapshot only on a new high-water frame.
                    // Endpoints are append-only and sessions join only at
                    // frame boundaries (admissions for frame f complete
                    // under the shard lock before this snapshot), so a
                    // snapshot taken at frame f is a superset of the
                    // endpoints any chunk of frame ≤ f can belong to —
                    // `wants(frame)` does the per-chunk filtering.  The lock
                    // is held only to advance the broker and clone out the
                    // endpoint list; the multicast runs lock-free.
                    if self.snapshot_frame.map(|f| frame > f).unwrap_or(true) {
                        {
                            let mut st = self.shard.lock();
                            st.observe_frame(frame, &self.transport, &self.spawner, &self.clock);
                            self.endpoints.clear();
                            self.endpoints.extend(st.endpoints.iter().cloned());
                        }
                        self.snapshot_frame = Some(frame);
                        self.meter.observe_depths(self.endpoints.len(), self.rx.len());
                        self.telemetry.observe_frame(frame);
                    }
                    let outcome = self.outcome.as_mut().expect("fan task still running");
                    // Session-major wave burst (see [`WaveBuffer`]): one
                    // consumer wake per wave instead of one per chunk.
                    if self.wave.push(chunk) {
                        self.meter
                            .multicast(&self.wave.take(), &self.endpoints, &mut self.skips, outcome);
                    }
                }
                Err(TryRecvError::Empty) => {
                    // Lane empty: its data hook re-queues this task.
                    return if progressed { Poll::Progress } else { Poll::Blocked };
                }
                Err(TryRecvError::Disconnected) => {
                    // Every pump finished and the lane is dry: flush the
                    // trailing (possibly mid-frame) wave; this shard has
                    // multicast everything it will ever see.
                    let outcome = self.outcome.as_mut().expect("fan task still running");
                    self.meter
                        .multicast(&self.wave.take(), &self.endpoints, &mut self.skips, outcome);
                    fill(&self.out, self.outcome.take().expect("fan task finishes once"));
                    return Poll::Ready;
                }
            }
        }
        Poll::Progress
    }
}

/// One session consumer as a polled task, with the pacer's delay expressed
/// as a deadline on the [`Clock`] instead of a thread sleep — so the same
/// body is drivable by a virtual clock without sleeping.
struct ConsumerTask {
    rx: StripeReceiver,
    pacer: Option<StripePacer>,
    clock: Arc<dyn Clock>,
    /// Pacing deadline: polls before this instant are `Idle`.
    ready_at: Duration,
    delivery: Option<SessionDelivery>,
    assembler: crate::transport::FrameAssembler,
    out: Slot<SessionDelivery>,
}

impl Task for ConsumerTask {
    fn bind(&mut self, waker: Waker) {
        // The session queue is this task's only input; arrivals and the
        // endpoints-all-dropped close both fire its data hook.  A pacing
        // deadline is the one wait with no hook — those polls stay `Idle`.
        self.rx.set_data_hook(wake_hook(waker));
    }

    fn poll(&mut self) -> Poll {
        // Only paced sessions ever set a deadline; the unpaced fast path
        // (the 10k-session floor) must not pay a clock read per idle poll.
        if self.ready_at > Duration::ZERO {
            if self.clock.monotonic_now() < self.ready_at {
                return Poll::Idle;
            }
            self.ready_at = Duration::ZERO;
        }
        let mut progressed = false;
        for _ in 0..POLL_BUDGET {
            match self.rx.try_recv_chunk() {
                Some(chunk) => {
                    progressed = true;
                    let mut pace = Duration::ZERO;
                    if let Some(p) = &mut self.pacer {
                        // The session's own WAN: drain no faster than the
                        // modeled last mile, which backpressures only this
                        // queue.
                        pace = p.consume(chunk.stripe as usize, chunk.payload.len() as u64);
                    }
                    let delivery = self.delivery.as_mut().expect("consumer still running");
                    consume_chunk(delivery, &mut self.assembler, chunk);
                    if !pace.is_zero() {
                        self.ready_at = self.clock.monotonic_now() + pace;
                        return Poll::Progress;
                    }
                }
                None => {
                    if self.rx.is_closed() {
                        // Session over: every endpoint dropped, queue drained.
                        let mut delivery = self.delivery.take().expect("consumer finishes once");
                        surface_pending_frames(&self.assembler, &mut delivery);
                        fill(&self.out, delivery);
                        return Poll::Ready;
                    }
                    // Queue empty, no pacing deadline pending (a pace always
                    // returns `Progress` above): the data hook re-queues this
                    // task on the next chunk or on close.  This is the poll
                    // the 10k idle consumers used to burn sweeps on.
                    return if progressed { Poll::Progress } else { Poll::Blocked };
                }
            }
        }
        Poll::Progress
    }
}

/// Fold one executor pool's introspection counters into the metrics hub —
/// *before* the pool is dropped, which is when the worker cells die.
fn fold_exec_stats(telemetry: &PlaneTelemetry, stats: &exec::ExecutorStats) {
    let hub = &telemetry.hub;
    if !hub.is_enabled() {
        return;
    }
    hub.add("exec/polls", stats.total_polls());
    hub.add("exec/poll_ns", stats.total_poll_ns());
    hub.add("exec/parks", stats.total_parks());
    hub.add("exec/idle_sweeps", stats.total_idle_sweeps());
    hub.add("exec/wakes", stats.wakes);
    hub.add("exec/spawns", stats.spawns);
    hub.add("exec/workers", stats.workers.len() as u64);
    hub.observe_high_water("exec/run_queue_depth", stats.run_queue_high_water);
    // Per-worker mean poll duration as one histogram sample per worker:
    // enough to spot a pool whose workers see wildly uneven poll costs.
    let per_worker = hub.histogram("exec/worker_mean_poll_ns");
    for w in &stats.workers {
        if let Some(mean_ns) = w.poll_ns.checked_div(w.polls) {
            per_worker.record(mean_ns);
        }
    }
}

/// The fan-out plane, on an explicit clock: the one driver behind
/// [`crate::pipeline::FanoutPlane`].
///
/// Each broker shard gets its own counted lock *and its own executor* — the
/// shard's consumers, and its [`ShardFanTask`], spawn and poll on its private
/// pool (of `workers / shards` threads, at least 1), so the per-executor task
/// queue mutex, the idle sweeps over live consumers, *and the multicast loop
/// itself* shard along with the broker.  Pumps are lightweight (account,
/// forward the primary, feed the fan lanes) and spawn round-robin across the
/// shard executors — a dedicated pump pool would add an OS thread that mostly
/// idles, which on a loaded box steals cycles from the real work.
///
/// The caller blocks until the backend links close and every consumer has
/// drained; the work runs on `workers` pool threads (default
/// [`exec::default_workers`]).  The report carries one
/// [`super::ShardLockStats`] per shard.
pub(crate) fn drive_fanout_on(
    clock: Arc<dyn Clock>,
    broker: ShardedBroker,
    inputs: Vec<StripeReceiver>,
    primary: Vec<StripeSender>,
    transport: &TransportConfig,
    workers: Option<usize>,
    telemetry: &PlaneTelemetry,
) -> ServiceRunReport {
    let total_workers = workers.unwrap_or_else(exec::default_workers);
    let (config, brokers, globals) = broker.into_parts();
    let shard_count = brokers.len();
    let executors: Vec<Executor> = (0..shard_count)
        .map(|_| Executor::new((total_workers / shard_count).max(1)))
        .collect();
    // One memo for the whole plane: shards receive the same multicast
    // frames, so a frame decodes once no matter how the floor is sharded.
    let decode = Arc::new(crate::transport::SharedDecode::new());
    let shards: Vec<(Arc<CountedLock<AsyncState>>, Spawner)> = brokers
        .into_iter()
        .zip(&globals)
        .zip(&executors)
        .enumerate()
        .map(|(i, ((broker, shard_globals), executor))| {
            let state = AsyncState {
                broker,
                endpoints: Vec::new(),
                endpoint_of: HashMap::new(),
                consumers: Vec::new(),
                globals: shard_globals.clone(),
                decode: Arc::clone(&decode),
            };
            let lock = Arc::new(CountedLock::new(state));
            lock.lockdep_label(&format!("async-shard-{i}"));
            (lock, executor.spawner())
        })
        .collect();
    let outcomes = run_pumps(&clock, &shards, inputs, primary, transport, telemetry);
    let deliveries = wait_shard_deliveries(&shards);
    // All tasks finished; harvest every pool's introspection counters (the
    // cells die with the pools), then tear them down before folding.
    for executor in &executors {
        fold_exec_stats(telemetry, &executor.stats());
    }
    drop(executors);
    let mut shard_locks = Vec::with_capacity(shard_count);
    let mut brokers = Vec::with_capacity(shard_count);
    for (i, (shard, _spawner)) in shards.into_iter().enumerate() {
        shard_locks.push(shard.stats(i));
        let st = match Arc::try_unwrap(shard) {
            Ok(lock) => lock.into_inner(),
            Err(_) => unreachable!("pump tasks have finished"),
        };
        brokers.push(st.broker);
    }
    fold_report(
        ShardedBroker::from_parts(config, brokers, globals),
        &outcomes,
        deliveries,
        shard_locks,
    )
}

/// The pump stage: one [`ShardFanTask`] per shard (on that shard's executor),
/// one [`ShardPumpTask`] per backend PE link (round-robin across the shard
/// executors), and a bounded fan lane between them.  Blocks
/// until every pump *and every fan task* finishes — the fan tasks hold
/// endpoint clones that keep session queues open, so they must drain before
/// deliveries are waited.  Returns the pump outcomes (offered load + primary)
/// followed by the fan outcomes (per-shard delivery counters);
/// `fold_report` sums them.
fn run_pumps(
    clock: &Arc<dyn Clock>,
    shards: &[(Arc<CountedLock<AsyncState>>, Spawner)],
    inputs: Vec<StripeReceiver>,
    primary: Vec<StripeSender>,
    transport: &TransportConfig,
    telemetry: &PlaneTelemetry,
) -> Vec<PeOutcome> {
    assert!(
        primary.is_empty() || primary.len() == inputs.len(),
        "primary forwarding needs one link per PE"
    );
    // Frame 0 joins happen before any chunk moves.
    for (shard, spawner) in shards {
        shard.lock().observe_frame(0, transport, spawner, clock);
    }
    let mut lane_txs = Vec::with_capacity(shards.len());
    let fans: Vec<(TaskHandle, Slot<PeOutcome>)> = shards
        .iter()
        .map(|(shard, spawner)| {
            let (tx, rx) = bounded::<FrameChunk>(FAN_LANE_DEPTH);
            lane_txs.push(tx);
            let out = slot();
            let handle = spawner.spawn(Box::new(ShardFanTask {
                rx,
                shard: Arc::clone(shard),
                spawner: spawner.clone(),
                transport: transport.clone(),
                clock: Arc::clone(clock),
                endpoints: Vec::new(),
                snapshot_frame: None,
                skips: HashSet::new(),
                wave: WaveBuffer::new(),
                outcome: Some(PeOutcome::new()),
                out: Arc::clone(&out),
                telemetry: telemetry.clone(),
                meter: telemetry.meter(),
            }));
            (handle, out)
        })
        .collect();
    let pumps: Vec<(TaskHandle, Slot<PeOutcome>)> = inputs
        .into_iter()
        .zip(primary.into_iter().map(Some).chain(std::iter::repeat_with(|| None)))
        .enumerate()
        .map(|(pe, (rx, primary_tx))| {
            let out = slot();
            let (_, spawner) = &shards[pe % shards.len()];
            let handle = spawner.spawn(Box::new(ShardPumpTask {
                rx,
                primary_tx,
                carry: None,
                fan_carry: None,
                lanes: lane_txs.clone(),
                outcome: Some(PeOutcome::new()),
                out: Arc::clone(&out),
            }));
            (handle, out)
        })
        .collect();
    // Drop our lane senders: once every pump task finishes (and is dropped by
    // its worker), the fan tasks see Disconnected and wind down.
    drop(lane_txs);
    let mut outcomes: Vec<PeOutcome> = pumps
        .iter()
        .map(|(handle, out)| {
            handle.wait();
            take(out).expect("pump wrote its outcome")
        })
        .collect();
    for (handle, out) in &fans {
        handle.wait();
        outcomes.push(take(out).expect("fan task wrote its outcome"));
    }
    outcomes
}

/// Campaign over: on every shard the remaining sessions leave, queues
/// disconnect (the pump tasks' endpoint snapshots died with the tasks),
/// consumers drain their queues dry and finish.  No further spawns can
/// happen — the pumps were the only spawners — so the consumer lists are
/// complete.  Deliveries come back keyed by global schedule index.
fn wait_shard_deliveries(shards: &[(Arc<CountedLock<AsyncState>>, Spawner)]) -> Vec<(usize, SessionDelivery)> {
    let mut deliveries = Vec::new();
    for (shard, _spawner) in shards {
        let consumers = {
            let mut st = shard.lock();
            st.broker.finish();
            st.endpoints.clear();
            std::mem::take(&mut st.consumers)
        };
        for (session, handle, out) in consumers {
            handle.wait();
            deliveries.push((session, take(&out).expect("consumer wrote its delivery")));
        }
    }
    deliveries
}

#[cfg(test)]
mod tests {
    use super::super::{QualityTier, ServiceConfig, SessionSpec};
    use super::*;
    use crate::pipeline::{VirtualClock, WallClock};
    use crate::protocol::{FramePayload, FrameSegments};
    use crate::test_support::sample_frame;
    use crate::transport::{drain_frames, plan_chunks, striped_link};
    use crate::viewer::ViewerError;
    use netlogger::metrics::MetricsHub;

    /// Shard counts every shard-sensitive behaviour is pinned at: the
    /// degenerate one-shard plane and a real partition.
    const SHARD_COUNTS: [usize; 2] = [1, 4];

    fn spec(name: &str, viewpoint: u32, tier: QualityTier) -> SessionSpec {
        SessionSpec::new(name, viewpoint, tier)
    }

    fn tiny_config(shards: usize, queue_depth: usize) -> ServiceConfig {
        ServiceConfig {
            max_sessions: 4,
            link_capacity_units: 8,
            render_slots: 2,
            queue_depth,
            shards: Some(shards),
            ..ServiceConfig::default()
        }
    }

    /// Drive the plane end to end over a synthetic backend of `pes` links
    /// and `frames` frames, draining the primary viewer links alongside.
    fn fan_out_on(
        clock: Arc<dyn Clock>,
        schedule: Vec<SessionSpec>,
        config: ServiceConfig,
        frames: u32,
        pes: usize,
    ) -> (ServiceRunReport, Vec<FramePayload>) {
        let transport = TransportConfig::default().with_stripes(2).with_chunk_bytes(256);
        let broker = ShardedBroker::new(config, schedule);
        let mut backend_txs = Vec::new();
        let mut backend_rxs = Vec::new();
        let mut primary_txs = Vec::new();
        let mut primary_rxs = Vec::new();
        for _ in 0..pes {
            let (tx, rx) = striped_link(&transport);
            backend_txs.push(tx);
            backend_rxs.push(rx);
            let (tx, rx) = striped_link(&transport);
            primary_txs.push(tx);
            primary_rxs.push(rx);
        }
        std::thread::scope(|scope| {
            let plane = {
                let transport = transport.clone();
                scope.spawn(move || {
                    let telemetry = PlaneTelemetry::new(MetricsHub::disabled(), 0);
                    drive_fanout_on(clock, broker, backend_rxs, primary_txs, &transport, Some(2), &telemetry)
                })
            };
            let drains: Vec<_> = primary_rxs
                .into_iter()
                .map(|mut rx| scope.spawn(move || drain_frames(&mut rx).unwrap()))
                .collect();
            for f in 0..frames {
                for (pe, tx) in backend_txs.iter().enumerate() {
                    tx.send_frame(&sample_frame(pe as u32, f, 16)).unwrap();
                }
            }
            drop(backend_txs);
            let report = plane.join().unwrap();
            let mut primary_frames = Vec::new();
            for d in drains {
                primary_frames.extend(d.join().unwrap());
            }
            (report, primary_frames)
        })
    }

    fn fan_out(
        schedule: Vec<SessionSpec>,
        config: ServiceConfig,
        frames: u32,
        pes: usize,
    ) -> (ServiceRunReport, Vec<FramePayload>) {
        fan_out_on(Arc::new(WallClock), schedule, config, frames, pes)
    }

    #[test]
    fn plane_multicasts_every_frame_to_every_session_and_the_primary() {
        for shards in SHARD_COUNTS {
            let schedule = vec![
                spec("a", 0, QualityTier::Standard),
                spec("b", 0, QualityTier::Standard),
                spec("c", 1, QualityTier::Standard),
            ];
            let (report, primary_frames) = fan_out(schedule, tiny_config(shards, 64), 3, 2);
            // The primary viewer path got every frame untouched.
            assert_eq!(primary_frames.len(), 6, "S={shards}");
            // Every session assembled every (rank, frame): 3 sessions x 2 PEs x 3.
            assert_eq!(report.sessions.len(), 3, "S={shards}");
            for s in &report.sessions {
                assert_eq!(s.frames_completed, 6, "S={shards} session {}: {:?}", s.name, s.errors);
                assert_eq!(s.frames_skipped, 0);
                assert!(s.errors.is_empty(), "{:?}", s.errors);
            }
            assert_eq!(report.stats.frames_completed, 18);
            // Offered fan-out load: every chunk x 3 live sessions, delivered in
            // full on these deep queues.
            assert_eq!(report.stats.fanout_chunks, report.stats.chunks_delivered);
            assert_eq!(report.stats.chunks_dropped, 0);
            // Shared renders: 3 frames x 3 sessions requested, 2 viewpoints each
            // frame actually rendered.
            assert_eq!(report.stats.render_requests, 9);
            assert_eq!(report.stats.renders_performed, 6);
        }
    }

    #[test]
    fn slow_session_is_degraded_without_stalling_the_healthy_one() {
        // `slow` drains a single-stripe 16-chunk queue through a
        // dial-up-grade pacer; `healthy` has four stripes (4 x 16 = 64
        // slots, more than the whole campaign's 42 chunks, so it can never
        // overflow).  The plane must skip frames for `slow` (it keeps
        // partial composites) while `healthy` and the primary receive
        // everything.
        for shards in SHARD_COUNTS {
            let mut slow = spec("slow", 0, QualityTier::Standard).paced_at_mbps(0.2);
            slow.stripes = 1;
            let schedule = vec![spec("healthy", 0, QualityTier::Standard), slow];
            let (report, primary_frames) = fan_out(schedule, tiny_config(shards, 16), 6, 1);
            assert_eq!(primary_frames.len(), 6, "S={shards}");
            let healthy = report.sessions.iter().find(|s| s.name == "healthy").unwrap();
            let slow = report.sessions.iter().find(|s| s.name == "slow").unwrap();
            assert_eq!(healthy.frames_completed, 6, "S={shards}");
            assert!(healthy.errors.is_empty(), "{:?}", healthy.errors);
            assert!(
                slow.frames_skipped > 0,
                "S={shards}: the 16-chunk queue behind a 0.2 Mbps pacer must overflow: {slow:?}"
            );
            // Degraded frames surface as typed MissingFrame partials, not
            // silence.
            assert!(slow
                .errors
                .iter()
                .all(|e| matches!(e, ViewerError::MissingFrame { .. })));
            assert_eq!(
                report.stats.frames_skipped, slow.frames_skipped,
                "only the slow session was degraded"
            );
            assert!(report.stats.chunks_dropped > 0);
        }
    }

    #[test]
    fn sessions_joining_and_leaving_mid_run_receive_only_their_window() {
        for shards in SHARD_COUNTS {
            let schedule = vec![
                spec("whole", 0, QualityTier::Standard),
                spec("window", 0, QualityTier::Standard).with_window(1, Some(3)),
            ];
            let (report, _) = fan_out(schedule, tiny_config(shards, 64), 4, 1);
            let whole = report.sessions.iter().find(|s| s.name == "whole").unwrap();
            let window = report.sessions.iter().find(|s| s.name == "window").unwrap();
            assert_eq!(whole.frames_completed, 4, "S={shards}");
            // Frames 1 and 2 only.
            assert_eq!(window.frames_completed, 2, "S={shards}: {window:?}");
            // Offered load reflects the window: frames 0 and 3 fan out to one
            // session, frames 1 and 2 to two.
            let plan = plan_chunks(FrameSegments::encode(&sample_frame(0, 0, 16)).lens(), 256, 2).len() as u64;
            assert_eq!(report.stats.fanout_chunks, plan * (1 + 2 + 2 + 1));
        }
    }

    #[test]
    fn plane_reports_per_shard_locks_and_matches_a_pure_broker_replay() {
        // Capacity holds the whole schedule however the viewpoints hash, so
        // all six sessions assemble every (rank, frame); the lifecycle events
        // and the deterministic counters replay bit-identically against a
        // pure ShardedBroker run, and each shard reports its lock counters.
        for shards in SHARD_COUNTS {
            let schedule: Vec<SessionSpec> = (0..6u32)
                .map(|vp| spec(&format!("s{vp}"), vp, QualityTier::Standard).with_window(vp % 2, None))
                .collect();
            let config = ServiceConfig {
                max_sessions: 8,
                link_capacity_units: 32,
                render_slots: 8,
                queue_depth: 64,
                shards: Some(shards),
                ..ServiceConfig::default()
            };
            let (report, primary_frames) = fan_out(schedule.clone(), config.clone(), 3, 2);
            assert_eq!(primary_frames.len(), 6, "S={shards}");
            assert_eq!(report.sessions.len(), 6);
            for (i, s) in report.sessions.iter().enumerate() {
                let frames = if i % 2 == 0 { 6 } else { 4 };
                assert_eq!(
                    s.frames_completed, frames,
                    "S={shards} session {}: {:?}",
                    s.name, s.errors
                );
                assert!(s.errors.is_empty(), "{:?}", s.errors);
            }
            // Deliveries come back in global schedule order despite sharding.
            let names: Vec<&str> = report.sessions.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names, vec!["s0", "s1", "s2", "s3", "s4", "s5"]);
            // One lock entry per shard, every shard locked at least for the
            // frame-0 observe.
            assert_eq!(report.shard_locks.len(), shards);
            for (i, l) in report.shard_locks.iter().enumerate() {
                assert_eq!(l.shard, i);
                assert!(l.acquisitions > 0, "{l:?}");
            }
            let mut replay = ShardedBroker::new(config, schedule);
            replay.advance_to(2);
            replay.finish();
            assert_eq!(report.events, replay.events(), "S={shards}");
            let deterministic = |s: &super::super::ServiceStats| {
                (
                    s.sessions_offered,
                    s.sessions_admitted,
                    s.sessions_rejected,
                    s.sessions_evicted,
                    s.peak_live_sessions,
                    s.render_requests,
                    s.renders_performed,
                    s.flow_limited_sessions,
                )
            };
            assert_eq!(
                deterministic(&report.stats),
                deterministic(&replay.stats()),
                "S={shards}"
            );
        }
    }

    #[test]
    fn multicast_is_zero_copy() {
        for shards in SHARD_COUNTS {
            let schedule = vec![
                spec("a", 0, QualityTier::Standard),
                spec("b", 0, QualityTier::Standard),
                spec("c", 1, QualityTier::Standard),
            ];
            let before = bytes::deep_copy_count();
            let (report, _) = fan_out(schedule, tiny_config(shards, 64), 2, 1);
            assert_eq!(
                bytes::deep_copy_count() - before,
                0,
                "S={shards}: fan-out must multicast by refcount, not memcpy"
            );
            assert_eq!(report.stats.frames_completed, 6);
        }
    }

    #[test]
    fn paced_consumers_on_a_virtual_clock_never_sleep() {
        // A 0.01 Mbps pacer over this campaign would sleep for minutes of
        // wall time; on the virtual clock the identical consumer body must
        // finish immediately with the identical deterministic stats — pacing
        // goes through the Clock seam, not `thread::sleep`.
        let mut crawl = spec("crawl", 0, QualityTier::Standard).paced_at_mbps(0.01);
        // Deep enough that nothing overflows: delivery is deterministic.
        crawl.queue_depth = Some(4096);
        let schedule = vec![spec("healthy", 0, QualityTier::Standard), crawl];
        let started = std::time::Instant::now();
        let (report, _) = fan_out_on(Arc::new(VirtualClock), schedule, tiny_config(1, 4096), 4, 1);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "virtual-clock pacing must not sleep out the modeled delays"
        );
        for s in &report.sessions {
            assert_eq!(s.frames_completed, 4, "session {}: {:?}", s.name, s.errors);
            assert!(s.errors.is_empty(), "{:?}", s.errors);
        }
    }
}
