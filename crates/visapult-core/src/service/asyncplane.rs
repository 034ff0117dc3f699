//! The fan-out plane: every session for the price of memory, not threads.
//!
//! One implementation serves one session and a hundred thousand alike.  Every
//! unit of work is a polled state-machine task on one [`exec::Executor`]
//! worker pool, so OS thread count is the pool size — independent of the
//! session count — and the one [`SessionBroker`] sits behind one plane lock:
//!
//! * `PumpTask` — one per backend PE link.  Polls chunks off the striped
//!   link with `try_recv`, accounts the offered load, forwards to the primary
//!   viewer (non-blocking with a carried chunk, so a full primary queue parks
//!   *this task*, not an OS thread), and pushes one refcounted clone into the
//!   bounded fan lane.  It never touches the plane lock.
//! * `FanTask` — one for the plane.  Drains the fan lane, drives the
//!   broker's churn from the frame counter, assembles each wave once through
//!   the plane's assembler and publishes it to the session endpoints through
//!   the shared degradation seam ([`super::fanout`]).
//! * `ConsumerTask` — one per admitted session.  Takes the waves sent to its
//!   session, one message a wave, and folds the plane's verdicts on their
//!   chunks into its delivery (`fanout::SessionView`), pacing each
//!   chunk through the session's [`netsim::StripePacer`] against the
//!   [`Clock`] (a pacing delay becomes an `Idle` poll with a deadline, not a
//!   sleeping thread).  It never touches a payload.
//!
//! Each task holds its outcome by value and hands it over with
//! [`std::mem::take`] on the poll that returns `Ready` — the executor never
//! polls a task again after that.  A task that panics instead is caught by
//! the executor and its outcome is missing: a consumer's session is reported
//! failed ([`ViewerError::ReceiverFailed`]), and every session reports each
//! frame the pumps offered it and a dead fan task never sent as a
//! `MissingFrame`.
//!
//! The deterministic half of [`super::ServiceStats`] is byte-identical to the
//! virtual-time replay because both advance the identical broker state
//! machine over the same frame counter.

use super::fanout::{
    empty_delivery, fold_report, session_lane, Folded, PeOutcome, PlaneTelemetry, SessionEndpoint, SessionOutcome,
    SessionReturn, SessionView, WaveBuffer, WaveMeter,
};
use super::{ServiceRunReport, SessionBroker, SessionDelivery, SessionEvent};
use crate::pipeline::Clock;
use crate::transport::{FrameAssembler, FrameChunk, StripeReceiver, StripeSender, TransportError};
use crate::viewer::ViewerError;
use crossbeam::channel::{bounded, ReadyHook, Receiver, Sender, TryRecvError, TrySendError};
use exec::{Executor, Poll, Spawner, Task, TaskHandle, Waker};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Chunks a task moves per poll before yielding the worker: enough to
/// amortize scheduling, small enough that thousands of tasks stay fair.
const POLL_BUDGET: usize = 32;

/// Depth of the fan lane (pumps → fan task).  Chunks are refcounted slices,
/// so the lane holds windows, not payload copies; a full lane parks the pump
/// task (backpressure), never a worker thread.
const FAN_LANE_DEPTH: usize = 256;

/// Completed-task results are handed back through shared slots (the executor
/// returns no values; a task writes its result right before `Ready`).
type Slot<T> = Arc<std::sync::Mutex<Option<T>>>;

fn slot<T>() -> Slot<T> {
    Arc::new(std::sync::Mutex::new(None))
}

fn fill<T>(s: &Slot<T>, value: T) {
    *s.lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
}

fn take<T>(s: &Slot<T>) -> Option<T> {
    s.lock().unwrap_or_else(|e| e.into_inner()).take()
}

/// Wait for a task and take its outcome; `Err` carries why there is none.
fn outcome<T>(handle: &TaskHandle, out: &Slot<T>) -> Result<T, String> {
    handle.wait().map_err(|panic| panic.0)?;
    take(out).ok_or_else(|| "finished without an outcome".to_string())
}

/// A channel readiness hook that fires a task's [`Waker`] — how every task
/// below turns "my queue moved" into a targeted re-schedule instead of an
/// executor sweep finding it eventually.
fn wake_hook(waker: Waker) -> ReadyHook {
    Arc::new(move || waker.wake())
}

/// The plane-side state behind the one plane lock: the broker, the session
/// endpoints, and the consumer-task registry, all keyed by schedule index.
struct AsyncState {
    broker: SessionBroker,
    /// One per admitted session, in admission order, as `consumers` is.
    endpoints: Vec<Arc<SessionEndpoint>>,
    /// Position in `endpoints` per schedule index (endpoints are
    /// append-only): O(1) Left/Evicted closes instead of an O(live) scan.
    endpoint_of: HashMap<usize, usize>,
    consumers: Vec<Consumer>,
}

/// A consumer task as the plane tracks it.
struct Consumer {
    session: usize,
    handle: TaskHandle,
    out: Slot<SessionOutcome>,
    /// The session's empty delivery: what it reports if the task dies.
    failed: SessionDelivery,
}

impl AsyncState {
    fn new(broker: SessionBroker) -> Self {
        AsyncState {
            broker,
            endpoints: Vec::new(),
            endpoint_of: HashMap::new(),
            consumers: Vec::new(),
        }
    }

    /// Advance the broker to `frame`, materializing lanes and consumer
    /// tasks for admissions and closing the delivery window for
    /// leaves/evictions.
    fn observe_frame(&mut self, frame: u32, spawner: &Spawner, clock: &Arc<dyn Clock>) {
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
                    let failed = empty_delivery(&spec);
                    let (endpoint, view) = session_lane(session, spec, self.broker.config().queue_depth);
                    let out = slot();
                    let handle = spawner.spawn(Box::new(ConsumerTask {
                        view,
                        clock: Arc::clone(clock),
                        ready_at: Duration::ZERO,
                        out: Arc::clone(&out),
                    }));
                    self.consumers.push(Consumer {
                        session,
                        handle,
                        out,
                        failed,
                    });
                    self.endpoint_of.insert(session, self.endpoints.len());
                    self.endpoints.push(endpoint);
                }
                SessionEvent::Left { session } | SessionEvent::Evicted { session } => {
                    if let Some(&i) = self.endpoint_of.get(&session) {
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

/// The per-PE pump: accounts offered load, forwards the primary viewer, and
/// hands each chunk (a refcounted clone) to the fan lane.  It never touches
/// the plane lock and never walks an endpoint list — the multicast work
/// happens in the [`FanTask`].
struct PumpTask {
    rx: StripeReceiver,
    primary_tx: Option<StripeSender>,
    /// A chunk received and accounted but still owed to the primary viewer.
    carry: Option<FrameChunk>,
    /// A chunk still owed to the fan lane: a full lane parks this task
    /// (backpressure through `Blocked`), never a worker thread.
    fan_carry: Option<FrameChunk>,
    lane: Sender<FrameChunk>,
    outcome: PeOutcome,
    out: Slot<PeOutcome>,
}

impl Task for PumpTask {
    fn bind(&mut self, waker: Waker) {
        // Everything this task can park on wakes it: backend-link arrivals
        // and closure, a slot freeing in a full primary viewer queue, and a
        // slot freeing in the full fan lane.
        let hook = wake_hook(waker);
        self.rx.set_data_hook(Arc::clone(&hook));
        if let Some(tx) = &self.primary_tx {
            tx.set_space_hook(Arc::clone(&hook));
        }
        self.lane.set_space_hook(hook);
    }

    fn poll(&mut self) -> Poll {
        let mut progressed = false;
        let mut budget = POLL_BUDGET;
        loop {
            // Settle the carries before receiving another chunk: primary
            // first, then the fan lane, preserving per-link chunk order.
            if let Some(chunk) = self.carry.take() {
                match forward_primary_chunk(&mut self.primary_tx, chunk) {
                    Ok(chunk) => self.fan_carry = Some(chunk),
                    Err(chunk) => {
                        // Primary full: the space hook re-queues this task.
                        self.carry = Some(chunk);
                        return if progressed { Poll::Progress } else { Poll::Blocked };
                    }
                }
            }
            if let Some(chunk) = self.fan_carry.take() {
                match self.lane.try_send(chunk) {
                    // A dead fan task can't deliver anyway; the sessions
                    // behind it will surface missing frames.
                    Ok(()) | Err(TrySendError::Disconnected(_)) => progressed = true,
                    Err(TrySendError::Full(chunk)) => {
                        // Lane full: its space hook re-queues this task.
                        self.fan_carry = Some(chunk);
                        return if progressed { Poll::Progress } else { Poll::Blocked };
                    }
                }
            }
            if budget == 0 {
                return Poll::Progress;
            }
            match self.rx.try_recv_chunk() {
                Some(chunk) => {
                    budget -= 1;
                    self.outcome.record_offered(&chunk);
                    self.carry = Some(chunk);
                }
                None => {
                    if self.rx.is_closed() {
                        // Backend link drained and closed: this PE is done.
                        // Dropping the task drops its lane sender, which is
                        // what lets the fan task finish.
                        fill(&self.out, std::mem::take(&mut self.outcome));
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

/// The plane's multicast worker: drains the fan lane, drives the broker's
/// churn from the frame counter, and publishes each wave to the session
/// endpoints.  Its outcome carries delivery counters only (offered load is
/// accounted once, by the pumps), so folding it alongside the pump outcomes
/// never double-counts.
struct FanTask {
    rx: Receiver<FrameChunk>,
    state: Arc<Mutex<AsyncState>>,
    spawner: Spawner,
    clock: Arc<dyn Clock>,
    endpoints: Vec<Arc<SessionEndpoint>>,
    snapshot_frame: Option<u32>,
    /// The current frame's chunks, held back so the plane publishes them as
    /// one wave (one consumer wake per session per wave).
    wave: WaveBuffer,
    /// The plane's one assembler: each (rank, frame) is assembled here once,
    /// for every session.
    plane: FrameAssembler,
    outcome: PeOutcome,
    out: Slot<PeOutcome>,
    telemetry: PlaneTelemetry,
    meter: WaveMeter,
}

impl FanTask {
    /// Publish the buffered wave to the current endpoint snapshot.
    fn flush(&mut self) {
        #[cfg(test)]
        tests::fan_panic_if_told(&self.endpoints, self.outcome.published);
        self.meter
            .multicast(&mut self.plane, self.wave.take(), &self.endpoints, &mut self.outcome);
    }
}

impl Task for FanTask {
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
                        self.flush();
                    }
                    // Drive churn from the frame counter and refresh the
                    // endpoint snapshot only on a new high-water frame.
                    // Endpoints are append-only and sessions join only at
                    // frame boundaries (admissions for frame f complete
                    // under the plane lock before this snapshot), so a
                    // snapshot taken at frame f is a superset of the
                    // endpoints any chunk of frame ≤ f can belong to —
                    // `wants(frame)` does the per-wave filtering.  The lock
                    // is held only to advance the broker and clone out the
                    // endpoint list; the multicast runs lock-free.
                    if self.snapshot_frame.map(|f| frame > f).unwrap_or(true) {
                        {
                            let mut st = self.state.lock();
                            st.observe_frame(frame, &self.spawner, &self.clock);
                            self.endpoints.clear();
                            self.endpoints.extend(st.endpoints.iter().cloned());
                        }
                        self.snapshot_frame = Some(frame);
                        self.meter.observe_depths(self.endpoints.len(), self.rx.len());
                        self.telemetry.observe_frame(frame);
                    }
                    // One wave per (rank, frame) run (see [`WaveBuffer`]):
                    // one consumer wake per wave instead of one per chunk.
                    if self.wave.push(chunk) {
                        self.flush();
                    }
                }
                Err(TryRecvError::Empty) => {
                    // Lane empty: its data hook re-queues this task.
                    return if progressed { Poll::Progress } else { Poll::Blocked };
                }
                Err(TryRecvError::Disconnected) => {
                    // Every pump finished and the lane is dry: flush the
                    // trailing (possibly mid-frame) wave; the plane has
                    // published everything it will ever see.
                    self.flush();
                    #[cfg(test)]
                    {
                        self.outcome.assemblies = self.plane.assemblies();
                    }
                    fill(&self.out, std::mem::take(&mut self.outcome));
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
    view: SessionView,
    clock: Arc<dyn Clock>,
    /// Pacing deadline: polls before this instant are `Idle`.
    ready_at: Duration,
    out: Slot<SessionOutcome>,
}

impl Task for ConsumerTask {
    fn bind(&mut self, waker: Waker) {
        // The session lane is this task's only input; a wave's arrival and
        // the endpoints-all-dropped close both fire its data hook.  A pacing
        // deadline is the one wait with no hook — those polls stay `Idle`.
        self.view.set_data_hook(wake_hook(waker));
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
        match self.view.fold(POLL_BUDGET) {
            Folded::More => Poll::Progress,
            Folded::Paced(pace) => {
                self.ready_at = self.clock.monotonic_now() + pace;
                Poll::Progress
            }
            // Lane empty, no pacing deadline pending: the data hook
            // re-queues this task on the next wave or on close.
            Folded::Drained(progressed) => {
                if progressed {
                    Poll::Progress
                } else {
                    Poll::Blocked
                }
            }
            Folded::Closed => {
                // Session over: every endpoint dropped, lane drained.
                fill(&self.out, self.view.finish());
                Poll::Ready
            }
        }
    }
}

/// Fold the executor pool's introspection counters into the metrics hub —
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
/// Pumps, the fan task and every consumer spawn and poll on one executor of
/// `workers` threads (default [`exec::default_workers`]); the broker, the
/// endpoints and the consumer registry sit behind one plane lock.  The
/// caller blocks until the backend links close and every consumer has
/// drained.
pub(crate) fn drive_fanout_on(
    clock: Arc<dyn Clock>,
    broker: SessionBroker,
    inputs: Vec<StripeReceiver>,
    primary: Vec<StripeSender>,
    workers: Option<usize>,
    telemetry: &PlaneTelemetry,
) -> ServiceRunReport {
    run_plane(clock, broker, inputs, primary, workers, telemetry).0
}

/// [`drive_fanout_on`], also handing back the task outcomes it folded.
fn run_plane(
    clock: Arc<dyn Clock>,
    broker: SessionBroker,
    inputs: Vec<StripeReceiver>,
    primary: Vec<StripeSender>,
    workers: Option<usize>,
    telemetry: &PlaneTelemetry,
) -> (ServiceRunReport, Vec<PeOutcome>) {
    let executor = Executor::new(workers.unwrap_or_else(exec::default_workers).max(1));
    let state = Arc::new(Mutex::new(AsyncState::new(broker)));
    state.lockdep_label("async-plane");
    let spawner = executor.spawner();
    let outcomes = run_pumps(&clock, &state, &spawner, inputs, primary, telemetry);
    let (broker, sessions) = wait_deliveries(&state);
    // All tasks finished; harvest the pool's introspection counters (the
    // cells die with the pool), then tear it down before folding.
    fold_exec_stats(telemetry, &executor.stats());
    drop(executor);
    (fold_report(broker, &outcomes, sessions), outcomes)
}

/// The pump stage: the [`FanTask`], one [`PumpTask`] per backend PE link,
/// and the bounded fan lane between them.  Blocks until every pump *and the
/// fan task* finish — the fan task holds endpoint clones that keep session
/// lanes open, so it must drain before deliveries are waited.  Returns the
/// pump outcomes (offered load + primary) followed by the fan outcome
/// (delivery counters); `fold_report` sums them.  A task that died adds
/// nothing.  Primary links pair with inputs in order; an input without one
/// forwards to no viewer.
fn run_pumps(
    clock: &Arc<dyn Clock>,
    state: &Arc<Mutex<AsyncState>>,
    spawner: &Spawner,
    inputs: Vec<StripeReceiver>,
    primary: Vec<StripeSender>,
    telemetry: &PlaneTelemetry,
) -> Vec<PeOutcome> {
    // Frame 0 joins happen before any chunk moves.
    state.lock().observe_frame(0, spawner, clock);
    let (lane, rx) = bounded::<FrameChunk>(FAN_LANE_DEPTH);
    let fan_out = slot();
    let fan = spawner.spawn(Box::new(FanTask {
        rx,
        state: Arc::clone(state),
        spawner: spawner.clone(),
        clock: Arc::clone(clock),
        endpoints: Vec::new(),
        snapshot_frame: None,
        wave: WaveBuffer::new(),
        plane: FrameAssembler::new(),
        outcome: PeOutcome::default(),
        out: Arc::clone(&fan_out),
        telemetry: telemetry.clone(),
        meter: telemetry.meter(),
    }));
    let pumps: Vec<(TaskHandle, Slot<PeOutcome>)> = inputs
        .into_iter()
        .zip(primary.into_iter().map(Some).chain(std::iter::repeat_with(|| None)))
        .map(|(rx, primary_tx)| {
            let out = slot();
            let handle = spawner.spawn(Box::new(PumpTask {
                rx,
                primary_tx,
                carry: None,
                fan_carry: None,
                lane: lane.clone(),
                outcome: PeOutcome::default(),
                out: Arc::clone(&out),
            }));
            (handle, out)
        })
        .collect();
    // Drop our lane sender: once every pump task finishes (and is dropped by
    // its worker), the fan task sees Disconnected and winds down.
    drop(lane);
    let mut outcomes: Vec<PeOutcome> = pumps
        .iter()
        .map(|(handle, out)| outcome(handle, out).unwrap_or_default())
        .collect();
    outcomes.push(outcome(&fan, &fan_out).unwrap_or_default());
    outcomes
}

/// Campaign over: the remaining sessions leave, lanes disconnect (the fan
/// task's endpoint snapshot died with the task), consumers fold what is left
/// and finish.  No further spawns can happen — the fan task was the only
/// spawner — so the consumer list is complete.  The finished broker is taken
/// out under the same lock, with each session's delivery window; outcomes
/// come back keyed by schedule index; a consumer that died reports its
/// session failed, with nothing delivered.
fn wait_deliveries(state: &Mutex<AsyncState>) -> (SessionBroker, Vec<SessionReturn>) {
    let (broker, consumers) = {
        let mut st = state.lock();
        st.broker.finish();
        let consumers: Vec<_> = std::mem::take(&mut st.consumers)
            .into_iter()
            .zip(st.endpoints.drain(..))
            .map(|(consumer, endpoint)| (consumer, endpoint.window()))
            .collect();
        let spent = SessionBroker::new(st.broker.config().clone(), Vec::new());
        (std::mem::replace(&mut st.broker, spent), consumers)
    };
    let sessions = consumers
        .into_iter()
        .map(|(consumer, window)| SessionReturn {
            session: consumer.session,
            window,
            outcome: outcome(&consumer.handle, &consumer.out).map_err(|why| {
                let mut failed = consumer.failed;
                failed.errors.push(ViewerError::ReceiverFailed {
                    detail: format!("session consumer died: {why}"),
                });
                failed
            }),
        })
        .collect();
    (broker, sessions)
}

#[cfg(test)]
mod tests {
    use super::super::fanout::tests::PANICS;
    use super::super::{QualityTier, ServiceConfig, SessionSpec};
    use super::*;
    use crate::pipeline::{VirtualClock, WallClock};
    use crate::protocol::{FramePayload, FrameSegments};
    use crate::test_support::sample_frame;
    use crate::transport::{drain_frames, plan_chunks, striped_link, TransportConfig};
    use netlogger::metrics::MetricsHub;
    use std::collections::BTreeSet;

    fn spec(name: &str, viewpoint: u32, tier: QualityTier) -> SessionSpec {
        SessionSpec::new(name, viewpoint, tier)
    }

    /// A plane serving a session of this name has its fan task panic as it
    /// flushes its fifth wave.
    const FAN_PANICS: &str = "fan panics mid-run";

    pub(super) fn fan_panic_if_told(endpoints: &[Arc<SessionEndpoint>], published: usize) {
        if published == 4 && endpoints.iter().any(|ep| ep.spec.name == FAN_PANICS) {
            panic!("the fan task was told to");
        }
    }

    fn tiny_config(queue_depth: usize) -> ServiceConfig {
        ServiceConfig {
            max_sessions: 4,
            link_capacity_units: 8,
            render_slots: 2,
            queue_depth,
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
        let broker = SessionBroker::new(config, schedule);
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
            let plane = scope.spawn(move || {
                let telemetry = PlaneTelemetry::new(MetricsHub::disabled(), 0);
                drive_fanout_on(clock, broker, backend_rxs, primary_txs, Some(2), &telemetry)
            });
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
        let schedule = vec![
            spec("a", 0, QualityTier::Standard),
            spec("b", 0, QualityTier::Standard),
            spec("c", 1, QualityTier::Standard),
        ];
        let (report, primary_frames) = fan_out(schedule, tiny_config(64), 3, 2);
        // The primary viewer path got every frame untouched.
        assert_eq!(primary_frames.len(), 6);
        // Every session assembled every (rank, frame): 3 sessions x 2 PEs x 3.
        assert_eq!(report.sessions.len(), 3);
        for s in &report.sessions {
            assert_eq!(s.frames_completed, 6, "session {}: {:?}", s.name, s.errors);
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

    #[test]
    fn slow_session_is_degraded_without_stalling_the_healthy_one() {
        // `slow` drains a single-stripe 16-chunk queue through a
        // dial-up-grade pacer; `healthy` has four stripes (4 x 16 = 64
        // slots, more than the whole campaign's 42 chunks, so it can never
        // overflow).  The plane must skip frames for `slow` (it keeps
        // partial composites) while `healthy` and the primary receive
        // everything.
        let mut slow = spec("slow", 0, QualityTier::Standard).paced_at_mbps(0.2);
        slow.stripes = 1;
        let schedule = vec![spec("healthy", 0, QualityTier::Standard), slow];
        let (report, primary_frames) = fan_out(schedule, tiny_config(16), 6, 1);
        assert_eq!(primary_frames.len(), 6);
        let healthy = report.sessions.iter().find(|s| s.name == "healthy").unwrap();
        let slow = report.sessions.iter().find(|s| s.name == "slow").unwrap();
        assert_eq!(healthy.frames_completed, 6);
        assert!(healthy.errors.is_empty(), "{:?}", healthy.errors);
        assert!(
            slow.frames_skipped > 0,
            "the 16-chunk queue behind a 0.2 Mbps pacer must overflow: {slow:?}"
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

    #[test]
    fn sessions_joining_and_leaving_mid_run_receive_only_their_window() {
        let schedule = vec![
            spec("whole", 0, QualityTier::Standard),
            spec("window", 0, QualityTier::Standard).with_window(1, Some(3)),
        ];
        let (report, _) = fan_out(schedule, tiny_config(64), 4, 1);
        let whole = report.sessions.iter().find(|s| s.name == "whole").unwrap();
        let window = report.sessions.iter().find(|s| s.name == "window").unwrap();
        assert_eq!(whole.frames_completed, 4);
        // Frames 1 and 2 only.
        assert_eq!(window.frames_completed, 2, "{window:?}");
        // Offered load reflects the window: frames 0 and 3 fan out to one
        // session, frames 1 and 2 to two.
        let plan = plan_chunks(FrameSegments::encode(&sample_frame(0, 0, 16)).lens(), 256, 2).len() as u64;
        assert_eq!(report.stats.fanout_chunks, plan * (1 + 2 + 2 + 1));
    }

    #[test]
    fn plane_matches_a_pure_broker_replay() {
        // Capacity holds the whole schedule, so all six sessions assemble
        // every (rank, frame); the lifecycle events and the deterministic
        // counters replay bit-identically against a pure broker run.
        let schedule: Vec<SessionSpec> = (0..6u32)
            .map(|vp| spec(&format!("s{vp}"), vp, QualityTier::Standard).with_window(vp % 2, None))
            .collect();
        let config = ServiceConfig {
            max_sessions: 8,
            link_capacity_units: 32,
            render_slots: 8,
            queue_depth: 64,
            ..ServiceConfig::default()
        };
        let (report, primary_frames) = fan_out(schedule.clone(), config.clone(), 3, 2);
        assert_eq!(primary_frames.len(), 6);
        assert_eq!(report.sessions.len(), 6);
        for (i, s) in report.sessions.iter().enumerate() {
            let frames = if i % 2 == 0 { 6 } else { 4 };
            assert_eq!(s.frames_completed, frames, "session {}: {:?}", s.name, s.errors);
            assert!(s.errors.is_empty(), "{:?}", s.errors);
        }
        // Deliveries come back in schedule order.
        let names: Vec<&str> = report.sessions.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["s0", "s1", "s2", "s3", "s4", "s5"]);
        let mut replay = SessionBroker::new(config, schedule);
        replay.advance_to(2);
        replay.finish();
        assert_eq!(report.events, replay.events());
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
        assert_eq!(deterministic(&report.stats), deterministic(replay.stats()));
    }

    #[test]
    fn multicast_is_zero_copy() {
        let schedule = vec![
            spec("a", 0, QualityTier::Standard),
            spec("b", 0, QualityTier::Standard),
            spec("c", 1, QualityTier::Standard),
        ];
        let _turn = crate::test_support::copy_counter_turn();
        let before = bytes::deep_copy_count();
        let (report, _) = fan_out(schedule, tiny_config(64), 2, 1);
        assert_eq!(
            bytes::deep_copy_count() - before,
            0,
            "fan-out must multicast by refcount, not memcpy"
        );
        assert_eq!(report.stats.frames_completed, 6);
    }

    #[test]
    fn a_frame_is_assembled_once_for_the_floor_and_each_wave_wakes_a_session_once() {
        // N sessions × P PEs × F frames, every lane deep enough to never run
        // out of credit, nothing paced; the whole campaign waits in the
        // backend links before the plane starts.  What wakes a task, in any
        // interleaving: a wave sent into a session's lane (once per session
        // per wave), a session's close (once each), and a chunk into the
        // empty fan lane (the fan task; the lane never fills, so no pump
        // waits on it).  The waves are counted, not assumed: two pumps
        // feeding one lane split a (rank, frame) into more than one wave when
        // they interleave.
        let (n, p, f) = (16usize, 2usize, 8u32);
        let transport = TransportConfig {
            queue_depth: 1024,
            ..TransportConfig::default().with_stripes(2).with_chunk_bytes(256)
        };
        let schedule: Vec<SessionSpec> = (0..n)
            .map(|i| spec(&format!("s{i}"), (i % 4) as u32, QualityTier::Standard))
            .collect();
        let config = ServiceConfig {
            max_sessions: n,
            link_capacity_units: 4 * n as u64,
            render_slots: 4,
            queue_depth: 4096,
            ..ServiceConfig::default()
        };
        let inputs = (0..p as u32)
            .map(|pe| {
                let (tx, rx) = striped_link(&transport);
                for frame in 0..f {
                    tx.send_frame(&sample_frame(pe, frame, 16)).unwrap();
                }
                rx
            })
            .collect();
        let telemetry = PlaneTelemetry::new(MetricsHub::enabled(), 0);
        let (report, outcomes) = run_plane(
            Arc::new(WallClock),
            SessionBroker::new(config, schedule),
            inputs,
            Vec::new(),
            Some(2),
            &telemetry,
        );
        let fan = outcomes.last().expect("the fan task's outcome comes last");
        let pf = p * f as usize;
        let npf = n * pf;
        let chunks = pf * plan_chunks(FrameSegments::encode(&sample_frame(0, 0, 16)).lens(), 256, 2).len();
        assert_eq!(report.stats.frames_completed, npf as u64);
        assert_eq!(report.stats.frames_skipped, 0);
        assert_eq!(
            fan.assemblies, pf,
            "segment assemblies: one per (rank, frame) for any N; the parent made one per (rank, frame) \
             in its shared memo, and N·P·F = {npf} before that"
        );
        assert!(fan.published >= pf, "{} waves for {pf} (rank, frame)s", fan.published);
        assert_eq!(
            fan.lane_sends,
            n * fan.published,
            "one send per session-wave delivered; the parent sent one per chunk, N × chunks = {}",
            n * chunks
        );
        if telemetry.hub.is_enabled() {
            assert!(chunks < FAN_LANE_DEPTH, "the fan lane never fills");
            let waves = telemetry.hub.counter("fanout/waves").get() as usize;
            assert!(waves >= fan.published, "{waves} flushes for {} waves", fan.published);
            let wakes = telemetry.hub.counter("exec/wakes").get() as usize;
            let bound = n * waves + n + chunks;
            assert!(
                wakes <= bound,
                "{wakes} wakes; the bound is N·waves + N + lane chunks = {n}·{waves} + {n} + {chunks} = {bound}"
            );
        }
    }

    #[test]
    fn a_dead_fan_task_leaves_every_frame_accounted_in_every_session() {
        // The fan task dies on its fifth wave.  The pumps carry on feeding
        // the primary viewers, so the pumps offer every (rank, frame); each
        // session must account for each one as completed or typed missing,
        // including the frames the fan never started.
        let (p, f) = (2usize, 8u32);
        let mut schedule: Vec<SessionSpec> = (0..64u32)
            .map(|i| spec(&format!("s{i}"), i % 4, QualityTier::Standard))
            .collect();
        schedule[9].name = FAN_PANICS.to_string();
        let config = ServiceConfig {
            max_sessions: 64,
            link_capacity_units: 256,
            render_slots: 4,
            queue_depth: 256,
            ..ServiceConfig::default()
        };
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(fan_out(schedule, config, f, p));
        });
        let (report, primary_frames) = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the plane finishes within 60 s of its fan task panicking");
        assert_eq!(primary_frames.len(), p * f as usize, "the primary viewers lose nothing");
        assert_eq!(report.sessions.len(), 64);
        for s in &report.sessions {
            let mut missing = BTreeSet::new();
            for e in &s.errors {
                match e {
                    ViewerError::MissingFrame { rank, frame, .. } => assert!(missing.insert((*rank, *frame))),
                    other => panic!("session {}: {other:?}", s.name),
                }
            }
            assert!(!missing.is_empty(), "session {}: the fan died before the end", s.name);
            assert_eq!(
                s.frames_completed + missing.len() as u64,
                (p * f as usize) as u64,
                "session {} accounts for every (rank, frame): {:?}",
                s.name,
                s.errors
            );
        }
    }

    #[test]
    fn a_panicking_consumer_is_one_failed_session_not_a_hang() {
        let mut schedule: Vec<SessionSpec> = (0..64u32)
            .map(|i| spec(&format!("s{i}"), i % 4, QualityTier::Standard))
            .collect();
        schedule[17].name = PANICS.to_string();
        let config = ServiceConfig {
            max_sessions: 64,
            link_capacity_units: 256,
            render_slots: 4,
            queue_depth: 256,
            ..ServiceConfig::default()
        };
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(fan_out(schedule, config, 4, 2));
        });
        let (report, primary_frames) = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("the plane finishes within 60 s of a consumer panicking");
        assert_eq!(primary_frames.len(), 8);
        assert_eq!(report.sessions.len(), 64);
        let failed: Vec<&SessionDelivery> = report.sessions.iter().filter(|s| !s.errors.is_empty()).collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert_eq!(failed[0].name, PANICS);
        assert_eq!(failed[0].frames_completed, 0);
        match &failed[0].errors[..] {
            [ViewerError::ReceiverFailed { detail }] => assert!(detail.contains("was told to"), "{detail}"),
            other => panic!("expected one ReceiverFailed, got {other:?}"),
        }
        for s in report.sessions.iter().filter(|s| s.name != PANICS) {
            assert_eq!(s.frames_completed, 8, "session {}", s.name);
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
        let (report, _) = fan_out_on(Arc::new(VirtualClock), schedule, tiny_config(4096), 4, 1);
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
