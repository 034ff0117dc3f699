//! Vendored minimal cooperative task executor (this workspace builds fully
//! offline, so no tokio/smol/async-std — and none is needed).
//!
//! The model is deliberately simpler than `std::future`: a [`Task`] is a
//! state machine with a single `poll` method that either finishes
//! ([`Poll::Ready`]), made progress and wants to be polled again soon
//! ([`Poll::Progress`]), found nothing to do right now ([`Poll::Idle`]),
//! or is waiting on an external event that will call its [`Waker`]
//! ([`Poll::Blocked`]).  Idle tasks stay in the run queue and are re-swept
//! on a self-pacing backoff; blocked tasks leave the queue entirely and
//! cost nothing until woken.  The run queue self-paces: while any task
//! reports progress the pool spins the queue hot; once a full sweep of the
//! sweepable (live minus blocked) tasks comes back idle, workers park on a
//! condvar for a bounded interval (near-zero CPU) before sweeping again.
//! A `Progress` poll or a `wake` re-arms the hot sweep; a `spawn` wakes one
//! worker to poll just the new task, leaving the idle pile parked.  A task
//! whose `poll` panics ends there: the worker catches the panic, drops the
//! task, and its [`TaskHandle`] reports [`Panicked`].
//!
//! The intended use is N-thousands of cheap cooperatively-scheduled units
//! (session consumers, stripe pumps, pacers) multiplexed over a worker pool
//! whose size is chosen once — OS thread count stays bounded by the pool, not
//! by the unit count.

#![forbid(unsafe_code)]

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one `poll` of a [`Task`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// The task is finished; it will never be polled again.
    Ready,
    /// The task did useful work and should be polled again promptly.
    Progress,
    /// Nothing to do right now (empty queue, pacing deadline not reached);
    /// the task stays scheduled but a full sweep of idle tasks lets the pool
    /// park briefly.
    Idle,
    /// Nothing to do until an external event calls this task's [`Waker`]
    /// (registered via [`Task::bind`]).  The task is removed from the run
    /// queue entirely — zero poll/lock cost while blocked — and re-queued by
    /// the next `wake`.  A task must only return `Blocked` if every
    /// condition it is waiting on is guaranteed to fire its waker; a task
    /// with a time-based deadline (pacing) must use `Idle` instead, because
    /// nothing wakes a clock.
    Blocked,
}

/// A cooperatively scheduled unit of work.
///
/// `poll` must not block: it should move whatever is movable (bounded by its
/// own fairness budget), then return.  Blocking in `poll` stalls one worker
/// of the shared pool — exactly the thread-per-session cost the executor
/// exists to avoid.
pub trait Task: Send {
    /// Advance the state machine as far as it can without blocking.
    fn poll(&mut self) -> Poll;

    /// Called exactly once, at spawn time, before the first `poll`.  A task
    /// that intends to return [`Poll::Blocked`] registers `waker` with its
    /// event sources here (e.g. a channel's data hook); tasks that never
    /// block ignore it.  Because binding happens before the task is first
    /// queued, a source that becomes ready between `bind` and the first
    /// `poll` produces at worst a pending wake, never a lost one.
    fn bind(&mut self, waker: Waker) {
        let _ = waker;
    }
}

/// Re-schedules one specific [`Poll::Blocked`] task.  Handed to the task via
/// [`Task::bind`]; clones are cheap and callable from any thread (typically
/// from a channel's empty→non-empty transition hook).
///
/// Wakes are never lost: if the task is currently mid-poll (or still in the
/// run queue) when `wake` fires, the wake is recorded as *pending* and the
/// task's next `Blocked` return converts into an immediate re-queue instead
/// of parking.  Waking a finished task or a shut-down executor is a no-op.
#[derive(Clone)]
pub struct Waker {
    shared: Arc<Shared>,
    cell: CellId,
}

impl Waker {
    /// Move the task back onto the run queue (or mark the wake pending if
    /// the task is not currently parked).
    pub fn wake(&self) {
        let mut st = self.shared.state.lock();
        if st.shutdown {
            return;
        }
        self.shared.wakes.fetch_add(1, Ordering::Relaxed);
        // A generation past ours: the task finished and the cell moved on.
        let Some(cell) = st
            .tasks
            .get_mut(self.cell.index)
            .filter(|cell| cell.generation == self.cell.generation)
        else {
            return;
        };
        let Some(slot) = cell.parked.take() else {
            cell.pending_wake = true;
            return;
        };
        st.parked -= 1;
        // A wake is proof of new work: re-arm the hot sweep so parked
        // workers pick it up immediately instead of on backoff expiry.
        // Notify only when the queue was empty — the same gate `spawn`
        // uses: with tasks already queued the workers are either mid-cycle
        // or parked on a bounded interval, and a wake storm (a fan-out
        // burst re-queueing thousands of consumers) must not pay a futex
        // syscall per task.
        let notify = st.runnable.is_empty();
        st.runnable.push_back(slot);
        st.unproductive = 0;
        st.park = IDLE_PARK_MIN;
        self.shared.observe_queue_depth(st.runnable.len());
        drop(st);
        if notify {
            self.shared.work.notify_one();
        }
    }
}

/// A task ended in a panic rather than [`Poll::Ready`]: the panic's message.
/// The executor caught it at the poll, dropped the task, and kept running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Panicked(pub String);

impl fmt::Display for Panicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task panicked: {}", self.0)
    }
}

impl std::error::Error for Panicked {}

struct HandleState {
    /// `None` until the task finishes.
    outcome: Mutex<Option<Result<(), Panicked>>>,
    cv: Condvar,
}

impl HandleState {
    fn finish(&self, outcome: Result<(), Panicked>) {
        *self.outcome.lock() = Some(outcome);
        self.cv.notify_all();
    }
}

/// Completion handle for a spawned task: `wait` blocks until the task's
/// `poll` returned [`Poll::Ready`] or panicked.
#[derive(Clone)]
pub struct TaskHandle {
    state: Arc<HandleState>,
}

impl TaskHandle {
    /// True once the task has finished.
    pub fn is_done(&self) -> bool {
        self.state.outcome.lock().is_some()
    }

    /// Block until the task finishes: `Ok` when its `poll` returned
    /// [`Poll::Ready`], [`Panicked`] when a `poll` panicked instead.
    pub fn wait(&self) -> Result<(), Panicked> {
        let mut outcome = self.state.outcome.lock();
        loop {
            if let Some(outcome) = outcome.as_ref() {
                return outcome.clone();
            }
            self.state.cv.wait(&mut outcome);
        }
    }
}

/// Where a task's bookkeeping lives: its index in the executor's slab of
/// [`TaskCell`]s, and the cell's generation while the task owns it.
#[derive(Clone, Copy)]
struct CellId {
    index: usize,
    generation: u64,
}

/// One task's bookkeeping, found by index — no hashing on a wake.
#[derive(Default)]
struct TaskCell {
    /// Bumped when the task finishes, so a waker that outlives it (a source
    /// hook still firing) misses the cell's next task.
    generation: u64,
    /// The task while it is parked: it returned [`Poll::Blocked`] and costs
    /// nothing until its [`Waker`] fires.
    parked: Option<Slot>,
    /// A wake arrived while the task was runnable or mid-poll; its next
    /// `Blocked` return re-queues instead of parking.  This closes the
    /// classic race where a channel fills between a task's last emptiness
    /// check and its `Blocked` return.
    pending_wake: bool,
}

struct Slot {
    cell: usize,
    task: Box<dyn Task>,
    handle: Arc<HandleState>,
}

struct State {
    runnable: VecDeque<Slot>,
    /// Every task's cell, indexed by [`CellId::index`]; finished tasks'
    /// cells are reused through `free`.
    tasks: Vec<TaskCell>,
    free: Vec<usize>,
    /// Tasks parked in their cells.
    parked: usize,
    /// Spawned tasks that have not yet returned `Ready` (including blocked
    /// ones and ones currently being polled by a worker).
    live: usize,
    /// Consecutive `Idle` polls since the last `Ready`/`Progress`/wake
    /// (clamped to the sweepable count, i.e. live minus parked); reaching it
    /// means one full sweep found no work, so workers park.  A park that
    /// expires un-notified resets it to re-arm the next sweep.
    unproductive: usize,
    /// Current idle-park interval: starts at [`IDLE_PARK_MIN`] and doubles
    /// per consecutive fully-idle sweep up to [`idle_park_cap`]; any
    /// productive poll resets it.
    park: Duration,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled on spawn, progress, and shutdown.
    work: Condvar,
    /// Pool-wide introspection counters (see [`ExecutorStats`]); relaxed
    /// atomics bumped off the hot paths' existing lock round-trips.
    wakes: AtomicU64,
    spawns: AtomicU64,
    run_queue_high_water: AtomicU64,
}

impl Shared {
    fn observe_queue_depth(&self, depth: usize) {
        self.run_queue_high_water.fetch_max(depth as u64, Ordering::Relaxed);
    }
}

/// Introspection counters for one worker thread of the pool.  The cells are
/// owned by their worker (other threads only read), so the relaxed atomic
/// stores cost nothing contended.
#[derive(Debug, Default)]
struct WorkerCell {
    polls: AtomicU64,
    poll_ns: AtomicU64,
    parks: AtomicU64,
    idle_sweeps: AtomicU64,
}

/// A snapshot of one worker's introspection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Task polls this worker performed.
    pub polls: u64,
    /// Nanoseconds spent inside `Task::poll` (timed per claimed batch, so
    /// the per-poll cost is `poll_ns / polls` with batch-level resolution).
    pub poll_ns: u64,
    /// Times this worker parked on the condvar (idle backoff or empty
    /// queue).
    pub parks: u64,
    /// Fully idle sweeps this worker observed (every sweepable task
    /// reported `Idle` since the last productive poll).
    pub idle_sweeps: u64,
}

/// A snapshot of the pool's introspection counters: what the telemetry plane
/// reads to explain executor behavior (park/wake storms, queue depth, poll
/// cost) without attaching a profiler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Per-worker counters, indexed by worker thread.
    pub workers: Vec<WorkerStats>,
    /// `Waker::wake` invocations (including ones recorded as pending).
    pub wakes: u64,
    /// Tasks spawned onto the pool.
    pub spawns: u64,
    /// Deepest the run queue ever got.
    pub run_queue_high_water: u64,
}

impl ExecutorStats {
    /// Sum of polls across workers.
    pub fn total_polls(&self) -> u64 {
        self.workers.iter().map(|w| w.polls).sum()
    }

    /// Sum of poll nanoseconds across workers.
    pub fn total_poll_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.poll_ns).sum()
    }

    /// Sum of parks across workers.
    pub fn total_parks(&self) -> u64 {
        self.workers.iter().map(|w| w.parks).sum()
    }

    /// Sum of fully idle sweeps across workers.
    pub fn total_idle_sweeps(&self) -> u64 {
        self.workers.iter().map(|w| w.idle_sweeps).sum()
    }
}

/// The idle-park backoff knob pair.  After a fully idle sweep workers park
/// for the *current* interval, which starts at `IDLE_PARK_MIN` and doubles
/// per consecutive idle sweep up to [`idle_park_cap`]; any `Ready`/
/// `Progress` poll resets it to the minimum.  External producers (a backend
/// thread filling a channel — nothing notifies the pool for those) are thus
/// picked up within microseconds while traffic flows, and the pool still
/// settles to a near-zero-CPU cadence once genuinely quiet.  A flat 200µs
/// park here is what made small async-plane runs pay ~2x per session-frame
/// versus the threaded plane: every cross-thread chunk hand-off ate a full
/// park interval.
const IDLE_PARK_MIN: Duration = Duration::from_micros(5);
/// Upper bound of the idle-park backoff (the old flat park interval) while
/// the pool is small; [`idle_park_cap`] stretches it for large pools.
const IDLE_PARK_MAX: Duration = Duration::from_micros(200);
/// Hard ceiling of the scaled idle-park cap.
const IDLE_PARK_CEIL: Duration = Duration::from_millis(10);

/// The idle-park backoff cap, scaled to the sweep cost.  A full idle sweep
/// costs O(live) mutex hops and polls; parking a flat 200µs between 3ms
/// sweeps of 10k idle session consumers would keep the workers ~95% busy
/// doing nothing — on a box where those cycles belong to admission or
/// delivery work.  Scaling the cap with the live count (~1µs per task,
/// ceiling 10ms) bounds the sweep duty cycle instead, while pools of a few
/// hundred tasks keep the original 200µs staleness bound.
fn idle_park_cap(live: usize) -> Duration {
    IDLE_PARK_MAX
        .max(Duration::from_micros(live as u64))
        .min(IDLE_PARK_CEIL)
}

/// A fixed pool of worker threads multiplexing every spawned [`Task`].
pub struct Executor {
    shared: Arc<Shared>,
    cells: Vec<Arc<WorkerCell>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// A pool of `workers` threads (clamped to at least one).
    pub fn new(workers: usize) -> Executor {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                runnable: VecDeque::new(),
                tasks: Vec::new(),
                free: Vec::new(),
                parked: 0,
                live: 0,
                unproductive: 0,
                park: IDLE_PARK_MIN,
                shutdown: false,
            }),
            work: Condvar::new(),
            wakes: AtomicU64::new(0),
            spawns: AtomicU64::new(0),
            run_queue_high_water: AtomicU64::new(0),
        });
        let cells: Vec<Arc<WorkerCell>> = (0..workers.max(1)).map(|_| Arc::new(WorkerCell::default())).collect();
        let workers = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let shared = Arc::clone(&shared);
                let cell = Arc::clone(cell);
                std::thread::Builder::new()
                    .name(format!("exec-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &cell))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { shared, cells, workers }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Schedule a task; it starts being polled immediately.
    pub fn spawn(&self, task: Box<dyn Task>) -> TaskHandle {
        self.spawner().spawn(task)
    }

    /// A cheap cloneable handle that can spawn onto this pool — including
    /// from inside a running task's `poll`.  The handle does not keep the
    /// pool alive; a task spawned after the [`Executor`] dropped never runs,
    /// and its handle reports [`Panicked`].
    pub fn spawner(&self) -> Spawner {
        Spawner {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Tasks spawned and not yet finished.
    pub fn live_tasks(&self) -> usize {
        self.shared.state.lock().live
    }

    /// A snapshot of the pool's introspection counters.  Safe to call while
    /// the pool runs (relaxed reads of worker-owned cells); typically read
    /// once after the workload drains, before dropping the pool.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            workers: self
                .cells
                .iter()
                .map(|c| WorkerStats {
                    polls: c.polls.load(Ordering::Relaxed),
                    poll_ns: c.poll_ns.load(Ordering::Relaxed),
                    parks: c.parks.load(Ordering::Relaxed),
                    idle_sweeps: c.idle_sweeps.load(Ordering::Relaxed),
                })
                .collect(),
            wakes: self.shared.wakes.load(Ordering::Relaxed),
            spawns: self.shared.spawns.load(Ordering::Relaxed),
            run_queue_high_water: self.shared.run_queue_high_water.load(Ordering::Relaxed),
        }
    }
}

/// Spawns tasks onto an [`Executor`]'s pool without owning the pool.
#[derive(Clone)]
pub struct Spawner {
    shared: Arc<Shared>,
}

impl Spawner {
    /// Schedule a task; it starts being polled immediately.  [`Task::bind`]
    /// runs here, before the task is queued, so waker registration can never
    /// miss an event that post-dates the task's first view of its sources.
    /// On a shut-down executor the task is dropped unpolled and its handle
    /// reports [`Panicked`].
    pub fn spawn(&self, mut task: Box<dyn Task>) -> TaskHandle {
        let handle = Arc::new(HandleState {
            outcome: Mutex::new(None),
            cv: Condvar::new(),
        });
        let refused = || {
            handle.finish(Err(Panicked("spawn on a shut-down executor".to_string())));
            TaskHandle {
                state: Arc::clone(&handle),
            }
        };
        let cell = {
            let mut st = self.shared.state.lock();
            if st.shutdown {
                return refused();
            }
            let index = match st.free.pop() {
                Some(index) => index,
                None => {
                    st.tasks.push(TaskCell::default());
                    st.tasks.len() - 1
                }
            };
            CellId {
                index,
                generation: st.tasks[index].generation,
            }
        };
        task.bind(Waker {
            shared: Arc::clone(&self.shared),
            cell,
        });
        let mut st = self.shared.state.lock();
        if st.shutdown {
            return refused();
        }
        st.live += 1;
        // Front of the queue: the next worker polls the *new* task first,
        // not the pile of already-idle ones.  Deliberately no reset of
        // `unproductive` or `park` here — a spawn says nothing about the
        // other tasks' idleness, and resetting the sweep state on every
        // spawn is what used to make a 10k-session admission storm re-sweep
        // the whole idle pile once per admitted session (a quadratic amount
        // of do-nothing polling that time-slices against the admission loop
        // itself).  Notify only when the queue was empty: with tasks already
        // queued the workers are either mid-cycle (they will reach the front
        // of the queue on their own) or parked on an interval that already
        // bounds the pickup latency — waking one per spawn just buys a
        // context-switch round-trip to first-poll a task that, for a freshly
        // admitted session consumer, has nothing to do yet anyway.
        let wake = st.runnable.is_empty();
        st.runnable.push_front(Slot {
            cell: cell.index,
            task,
            handle: Arc::clone(&handle),
        });
        self.shared.spawns.fetch_add(1, Ordering::Relaxed);
        self.shared.observe_queue_depth(st.runnable.len());
        drop(st);
        if wake {
            self.shared.work.notify_one();
        }
        TaskHandle { state: handle }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Abandon anything still queued or blocked (the plane waits for its
        // handles before dropping the pool, so this only fires on failure
        // paths).  Late `wake` calls see `shutdown` and no-op; the tasks drop
        // after the lock does, since a dropping task may fire a wake.
        let abandoned: Vec<Slot> = {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            let mut abandoned: Vec<Slot> = st.runnable.drain(..).collect();
            abandoned.extend(st.tasks.iter_mut().filter_map(|cell| cell.parked.take()));
            abandoned
        };
        drop(abandoned);
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A caught panic's message, as the handle reports it.
fn panicked(payload: &(dyn std::any::Any + Send)) -> Panicked {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)");
    Panicked(message.to_string())
}

/// A pool size fitted to the machine: available parallelism clamped to 2..=8.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8)
}

/// Most runnable slots one worker claims per lock round-trip.  A fan-out
/// wave re-queues thousands of consumers at once; popping and settling them
/// one by one makes every poll pay two contended lock acquisitions, which on
/// a small machine costs more than the polls themselves.  Batching amortizes
/// the lock while the `/4` divisor below keeps short queues spread across
/// workers instead of claimed whole by one.
const POLL_BATCH: usize = 16;

fn worker_loop(shared: &Shared, cell: &WorkerCell) {
    let mut batch: Vec<Slot> = Vec::with_capacity(POLL_BATCH);
    let mut settled: Vec<(Slot, Result<Poll, Panicked>)> = Vec::with_capacity(POLL_BATCH);
    let mut finished: Vec<(Slot, Result<(), Panicked>)> = Vec::new();
    loop {
        let mut st = shared.state.lock();
        loop {
            if st.shutdown {
                return;
            }
            // Blocked tasks are not sweepable: a sweep is "poll everything
            // that might have work", and a blocked task by definition has
            // none until its waker fires.
            let sweepable = st.live - st.parked;
            if sweepable > 0 && st.unproductive >= sweepable {
                // A full sweep of the live tasks produced nothing: park for
                // the current backoff interval, then double it.  `spawn` /
                // `Progress` notify to cut the park short.  Only a park that
                // *expires* re-arms a sweep: nothing notified, so the only
                // reason to poll again is an external producer silently
                // filling a channel, and the park interval bounds how stale
                // that pickup can get.  A notified wake leaves the sweep
                // state alone — the notifier queued something specific
                // (front of the queue for a spawn), so the woken worker
                // polls that without re-sweeping the idle pile.
                let park = st.park;
                st.park = (st.park * 2).min(idle_park_cap(st.live));
                cell.idle_sweeps.fetch_add(1, Ordering::Relaxed);
                cell.parks.fetch_add(1, Ordering::Relaxed);
                if shared.work.wait_for(&mut st, park).timed_out() {
                    st.unproductive = 0;
                }
                continue;
            }
            if st.runnable.is_empty() {
                // Every live task is in another worker's hands (or none
                // exist yet); wait for one to come back or for a spawn.
                // This park must back off like the idle sweep does: an
                // executor whose tasks all finished (live == 0) otherwise
                // spins its workers awake at IDLE_PARK_MIN forever, which
                // on a loaded box steals real CPU from the executors that
                // still have work.
                let park = st.park;
                st.park = (st.park * 2).min(idle_park_cap(st.live));
                cell.parks.fetch_add(1, Ordering::Relaxed);
                shared.work.wait_for(&mut st, park);
                continue;
            }
            // Claim a run of the queue: deep queues amortize the lock over
            // up to `POLL_BATCH` polls, short ones stay spread across the
            // pool (each worker takes at most a quarter of what's queued).
            let take = (st.runnable.len() / 4).clamp(1, POLL_BATCH);
            batch.extend(st.runnable.drain(..take));
            break;
        }
        drop(st);

        // One Instant pair per claimed batch (not per poll): the timer cost
        // amortizes over up to POLL_BATCH polls, keeping the instrumentation
        // invisible next to the polls themselves.
        let started = Instant::now();
        let polled = batch.len() as u64;
        for mut slot in batch.drain(..) {
            // A panicking task ends there, as a failure its handle reports;
            // the worker, and every other task, carry on.
            let outcome = catch_unwind(AssertUnwindSafe(|| slot.task.poll())).map_err(|payload| panicked(&*payload));
            settled.push((slot, outcome));
        }
        cell.polls.fetch_add(polled, Ordering::Relaxed);
        cell.poll_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);

        let mut st = shared.state.lock();
        let mut notify = false;
        for (slot, outcome) in settled.drain(..) {
            match outcome {
                Ok(Poll::Progress) => {
                    st.unproductive = 0;
                    st.park = IDLE_PARK_MIN;
                    st.runnable.push_back(slot);
                    notify = true;
                }
                Ok(Poll::Idle) => {
                    // Clamped so a later spawn or wake (sweepable + 1)
                    // always drops the count strictly below the threshold
                    // and gets its first poll.
                    let sweepable = st.live - st.parked;
                    st.unproductive = (st.unproductive + 1).min(sweepable);
                    st.runnable.push_back(slot);
                }
                Ok(Poll::Blocked) => {
                    // The wake-before-block race: the source fired mid-poll
                    // (after this task last looked at it).  Treat that as an
                    // immediate wake instead of parking on an event that
                    // already happened.
                    let cell = &mut st.tasks[slot.cell];
                    if std::mem::take(&mut cell.pending_wake) {
                        st.runnable.push_back(slot);
                    } else {
                        cell.parked = Some(slot);
                        st.parked += 1;
                    }
                }
                // `Ready`, or a panic: the task is done.
                end => {
                    st.live -= 1;
                    st.unproductive = 0;
                    st.park = IDLE_PARK_MIN;
                    // Free the cell; a source hook that outlives the task
                    // and keeps firing its waker finds a newer generation.
                    let cell = &mut st.tasks[slot.cell];
                    cell.generation += 1;
                    cell.pending_wake = false;
                    st.free.push(slot.cell);
                    notify = true;
                    // Handle completion signals, and the task drops, after
                    // the pool lock drops (a dropping task may fire wakes).
                    finished.push((slot, end.map(drop)));
                }
            }
        }
        shared.observe_queue_depth(st.runnable.len());
        drop(st);
        for (slot, end) in finished.drain(..) {
            slot.handle.finish(end);
        }
        if notify {
            shared.work.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counter {
        n: usize,
        left: usize,
        total: Arc<AtomicUsize>,
    }

    impl Task for Counter {
        fn poll(&mut self) -> Poll {
            if self.left == 0 {
                return Poll::Ready;
            }
            self.left -= 1;
            self.total.fetch_add(self.n, Ordering::SeqCst);
            Poll::Progress
        }
    }

    #[test]
    fn tasks_run_to_completion_and_handles_wait() {
        let exec = Executor::new(3);
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<TaskHandle> = (1..=10)
            .map(|n| {
                exec.spawn(Box::new(Counter {
                    n,
                    left: 4,
                    total: Arc::clone(&total),
                }))
            })
            .collect();
        for h in &handles {
            h.wait().unwrap();
            assert!(h.is_done());
        }
        assert_eq!(total.load(Ordering::SeqCst), 4 * 55);
        assert_eq!(exec.live_tasks(), 0);
    }

    /// A task that idles until an external flag flips — the executor's parked
    /// sweep must still pick the flip up (no lost-wakeup deadlock).
    struct WaitsForFlag {
        flag: Arc<AtomicUsize>,
    }

    impl Task for WaitsForFlag {
        fn poll(&mut self) -> Poll {
            if self.flag.load(Ordering::SeqCst) == 0 {
                Poll::Idle
            } else {
                Poll::Ready
            }
        }
    }

    #[test]
    fn idle_tasks_park_the_pool_but_external_progress_is_picked_up() {
        let exec = Executor::new(2);
        let flag = Arc::new(AtomicUsize::new(0));
        let handles: Vec<TaskHandle> = (0..8)
            .map(|_| {
                exec.spawn(Box::new(WaitsForFlag {
                    flag: Arc::clone(&flag),
                }))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(exec.live_tasks(), 8, "idle tasks must stay scheduled");
        flag.store(1, Ordering::SeqCst);
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(exec.live_tasks(), 0);
    }

    /// Spawning from inside a task (how the plane materializes a session
    /// consumer at its admission frame) must work without deadlocking.
    struct SpawnsInner {
        spawner: Spawner,
        inner: Arc<Mutex<Option<TaskHandle>>>,
        total: Arc<AtomicUsize>,
    }

    impl Task for SpawnsInner {
        fn poll(&mut self) -> Poll {
            let handle = self.spawner.spawn(Box::new(Counter {
                n: 7,
                left: 1,
                total: Arc::clone(&self.total),
            }));
            *self.inner.lock() = Some(handle);
            Poll::Ready
        }
    }

    #[test]
    fn tasks_can_spawn_tasks_through_a_spawner() {
        let exec = Executor::new(2);
        let total = Arc::new(AtomicUsize::new(0));
        let inner = Arc::new(Mutex::new(None));
        let h = exec.spawn(Box::new(SpawnsInner {
            spawner: exec.spawner(),
            inner: Arc::clone(&inner),
            total: Arc::clone(&total),
        }));
        h.wait().unwrap();
        let inner = inner.lock().take().expect("inner task spawned");
        inner.wait().unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 7);
        assert_eq!(exec.live_tasks(), 0);
    }

    #[test]
    fn default_workers_is_bounded() {
        let w = default_workers();
        assert!((2..=8).contains(&w));
    }

    #[test]
    fn stats_reflect_pool_activity() {
        let exec = Executor::new(2);
        let total = Arc::new(AtomicUsize::new(0));
        let handles: Vec<TaskHandle> = (0..6)
            .map(|_| {
                exec.spawn(Box::new(Counter {
                    n: 1,
                    left: 3,
                    total: Arc::clone(&total),
                }))
            })
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        let stats = exec.stats();
        assert_eq!(stats.workers.len(), 2);
        assert_eq!(stats.spawns, 6);
        // 6 tasks x (3 Progress + 1 Ready) polls.
        assert_eq!(stats.total_polls(), 24);
        assert!(stats.total_poll_ns() > 0);
        assert!(stats.run_queue_high_water >= 1);
    }

    #[test]
    fn drop_shuts_down_with_tasks_still_live() {
        let exec = Executor::new(2);
        let flag = Arc::new(AtomicUsize::new(0));
        let _h = exec.spawn(Box::new(WaitsForFlag { flag }));
        drop(exec); // must not hang
    }

    /// A task that blocks until its waker fires, then counts the events it
    /// was woken for and finishes after `target` of them.
    struct BlocksForEvents {
        waker: Option<Waker>,
        events: Arc<AtomicUsize>,
        seen: usize,
        target: usize,
        polls: Arc<AtomicUsize>,
    }

    impl Task for BlocksForEvents {
        fn poll(&mut self) -> Poll {
            self.polls.fetch_add(1, Ordering::SeqCst);
            let available = self.events.load(Ordering::SeqCst);
            if available > self.seen {
                self.seen = available;
                if self.seen >= self.target {
                    return Poll::Ready;
                }
                return Poll::Progress;
            }
            Poll::Blocked
        }

        fn bind(&mut self, waker: Waker) {
            self.waker = Some(waker);
        }
    }

    #[test]
    fn blocked_tasks_cost_no_polls_and_wake_on_demand() {
        let exec = Executor::new(2);
        let events = Arc::new(AtomicUsize::new(0));
        let polls = Arc::new(AtomicUsize::new(0));
        let waker = Arc::new(Mutex::new(None::<Waker>));
        // Capture the waker at bind time through a shared slot so the test
        // can fire it from outside the pool.
        struct Stash {
            inner: BlocksForEvents,
            slot: Arc<Mutex<Option<Waker>>>,
        }
        impl Task for Stash {
            fn poll(&mut self) -> Poll {
                self.inner.poll()
            }
            fn bind(&mut self, waker: Waker) {
                *self.slot.lock() = Some(waker.clone());
                self.inner.bind(waker);
            }
        }
        let h = exec.spawn(Box::new(Stash {
            inner: BlocksForEvents {
                waker: None,
                events: Arc::clone(&events),
                seen: 0,
                target: 3,
                polls: Arc::clone(&polls),
            },
            slot: Arc::clone(&waker),
        }));
        let waker = waker.lock().clone().expect("bind ran at spawn");
        // Let the task block, then verify no polls accrue while blocked.
        std::thread::sleep(Duration::from_millis(5));
        let blocked_polls = polls.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            polls.load(Ordering::SeqCst),
            blocked_polls,
            "a blocked task must not be swept"
        );
        for _ in 0..3 {
            events.fetch_add(1, Ordering::SeqCst);
            waker.wake();
            std::thread::sleep(Duration::from_millis(2));
        }
        h.wait().unwrap();
        assert_eq!(exec.live_tasks(), 0);
    }

    /// The wake-before-block race: firing the waker while the task is
    /// runnable (never yet parked) must convert its next `Blocked` into a
    /// re-queue, not a lost wakeup.
    #[test]
    fn wake_before_block_is_not_lost() {
        let exec = Executor::new(1);
        let events = Arc::new(AtomicUsize::new(0));
        let polls = Arc::new(AtomicUsize::new(0));
        let waker = Arc::new(Mutex::new(None::<Waker>));
        struct Stash {
            inner: BlocksForEvents,
            slot: Arc<Mutex<Option<Waker>>>,
        }
        impl Task for Stash {
            fn poll(&mut self) -> Poll {
                self.inner.poll()
            }
            fn bind(&mut self, waker: Waker) {
                *self.slot.lock() = Some(waker.clone());
                self.inner.bind(waker);
            }
        }
        let h = exec.spawn(Box::new(Stash {
            inner: BlocksForEvents {
                waker: None,
                events: Arc::clone(&events),
                seen: 0,
                target: 1,
                polls: Arc::clone(&polls),
            },
            slot: Arc::clone(&waker),
        }));
        let waker = waker.lock().clone().expect("bind ran at spawn");
        // Publish the event and wake *immediately* — likely before the task's
        // first poll ever runs, exercising the pending-wake path.
        events.fetch_add(1, Ordering::SeqCst);
        waker.wake();
        h.wait().unwrap();
        assert_eq!(exec.live_tasks(), 0);
    }

    /// Panics on its first poll.
    struct Panics;

    impl Task for Panics {
        fn poll(&mut self) -> Poll {
            panic!("a task's poll panicked");
        }
    }

    #[test]
    fn a_panicking_task_is_a_failed_handle_and_the_pool_carries_on() {
        let exec = Executor::new(1);
        let panics = exec.spawn(Box::new(Panics));
        assert_eq!(panics.wait(), Err(Panicked("a task's poll panicked".to_string())));
        // The one worker survived it: the next task still runs.
        let total = Arc::new(AtomicUsize::new(0));
        let after = exec.spawn(Box::new(Counter {
            n: 1,
            left: 2,
            total: Arc::clone(&total),
        }));
        after.wait().unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 2);
        assert_eq!(exec.live_tasks(), 0);
    }

    #[test]
    fn spawning_on_a_shut_down_pool_is_a_failed_handle() {
        let exec = Executor::new(1);
        let spawner = exec.spawner();
        drop(exec);
        assert!(spawner.spawn(Box::new(Panics)).wait().is_err());
    }

    #[test]
    fn wake_after_shutdown_is_a_noop() {
        let exec = Executor::new(1);
        let waker = Arc::new(Mutex::new(None::<Waker>));
        struct BlockForever {
            slot: Arc<Mutex<Option<Waker>>>,
        }
        impl Task for BlockForever {
            fn poll(&mut self) -> Poll {
                Poll::Blocked
            }
            fn bind(&mut self, waker: Waker) {
                *self.slot.lock() = Some(waker);
            }
        }
        let _h = exec.spawn(Box::new(BlockForever {
            slot: Arc::clone(&waker),
        }));
        std::thread::sleep(Duration::from_millis(5));
        let waker = waker.lock().clone().expect("bind ran at spawn");
        drop(exec);
        waker.wake(); // must not panic or hang
    }
}
