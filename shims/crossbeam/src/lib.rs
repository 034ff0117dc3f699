//! Offline stand-in for `crossbeam`, vendored so the workspace builds without
//! registry access.  One module is provided, covering exactly what this
//! workspace uses:
//!
//! * [`channel`] — bounded and unbounded MPMC channels (clonable senders
//!   *and* receivers, `recv`/`try_recv`/`recv_timeout`, disconnect
//!   semantics, readiness hooks) implemented over `Mutex` + `Condvar`.  A
//!   bounded channel blocks `send` while full (backpressure).  Besides the
//!   one-message operations there are run operations for a producer and a
//!   consumer that move many messages per lock: [`channel::Sender::send_some`]
//!   queues as much of a run as fits, [`channel::Receiver::try_recv_all`]
//!   takes the whole queue, and [`channel::Receiver::release`] gives taken
//!   messages' capacity back — taken messages keep occupying a bounded
//!   channel until then, so the bound covers what the consumer holds too.
//!   Slower than the real lock-free crossbeam under contention, but
//!   semantically equivalent for the pipeline's one-queue-per-PE pattern.

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// A readiness callback fired *after* the channel lock is released, so a
    /// hook may take other locks (e.g. an executor's) without inversion risk.
    pub type ReadyHook = Arc<dyn Fn() + Send + Sync>;

    struct State<T> {
        queue: VecDeque<T>,
        /// Messages taken by [`Receiver::try_recv_all`] and not yet given back
        /// ([`Receiver::release`], or the next `try_recv_all`): they occupy
        /// capacity exactly as queued ones do.
        held: usize,
        senders: usize,
        receivers: usize,
        /// Fired on every empty→non-empty transition and on sender
        /// disconnect: "a consumer parked on emptiness has a reason to look
        /// again".  Multiple registrations accumulate; all fire.  Hooks are
        /// edge-triggered — a consumer must observe the queue state itself
        /// after registering, before relying on hooks (registration does not
        /// fire for data already queued).
        data_hooks: Vec<ReadyHook>,
        /// Fired when a full bounded channel frees a slot and on receiver
        /// disconnect: "a producer parked on fullness has a reason to look
        /// again".  Same edge-trigger contract as `data_hooks`.
        space_hooks: Vec<ReadyHook>,
        /// Receivers currently blocked in a `ready` wait.  `Condvar::notify`
        /// is a futex syscall even when nobody is waiting, which at fan-out
        /// rates (hundreds of thousands of `try_send`/`try_recv` pairs per
        /// second) dominates the per-message cost — so notifies are skipped
        /// while this is zero, the same sleeper-count gate the real crossbeam
        /// uses.  A waiter increments this under the state mutex *before*
        /// releasing it into the wait, and every notifier re-checks under the
        /// same mutex, so no wakeup can be lost.
        ready_waiters: usize,
        /// Senders currently blocked in a `space` wait (bounded channels).
        space_waiters: usize,
    }

    impl<T> State<T> {
        /// Messages occupying capacity: queued plus held.
        fn occupied(&self) -> usize {
            self.queue.len() + self.held
        }
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
        /// Signalled when a slot frees up in a bounded channel.
        space: Condvar,
        /// `None` for unbounded channels; `Some(cap)` makes `send` block
        /// while `cap` messages occupy the channel (backpressure).
        capacity: Option<usize>,
    }

    /// The sending half; clonable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clonable (any one receiver gets each message).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned when sending into a channel with no receivers left.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned when receiving from an empty, sender-less channel.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Errors from [`Sender::try_send`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded channel is at capacity right now.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    /// Errors from [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel empty but senders remain.
        Empty,
        /// Channel empty and every sender is gone.
        Disconnected,
    }

    /// Errors from [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived in time.
        Timeout,
        /// Channel empty and every sender is gone.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a channel with no receivers")
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a channel with no receivers"),
            }
        }
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => f.write_str("receiving on an empty and disconnected channel"),
            }
        }
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    /// Hooks cloned out of the state so they can be fired after the lock
    /// drops.  The one-hook case (every channel the fan-out planes build) is
    /// kept allocation-free: transitions happen per chunk burst, and a heap
    /// allocation per burst would tax the hot multicast path.
    enum HookFire {
        One(ReadyHook),
        Many(Vec<ReadyHook>),
    }

    fn snapshot_hooks(hooks: &[ReadyHook]) -> Option<HookFire> {
        match hooks {
            [] => None,
            [only] => Some(HookFire::One(Arc::clone(only))),
            many => Some(HookFire::Many(many.to_vec())),
        }
    }

    fn fire_hooks(hooks: Option<HookFire>) {
        match hooks {
            None => {}
            Some(HookFire::One(hook)) => hook(),
            Some(HookFire::Many(hooks)) => {
                for hook in hooks {
                    hook();
                }
            }
        }
    }

    /// Wake the `waiters` blocked on `cv` that `moved` messages (or freed
    /// slots) can satisfy: none, one, or all of them.
    fn notify(cv: &Condvar, waiters: usize, moved: usize) {
        match (waiters, moved) {
            (0, _) | (_, 0) => {}
            (1, _) | (_, 1) => cv.notify_one(),
            _ => cv.notify_all(),
        }
    }

    fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                held: 0,
                senders: 1,
                receivers: 1,
                ready_waiters: 0,
                space_waiters: 0,
                data_hooks: Vec::new(),
                space_hooks: Vec::new(),
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// An unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// A bounded MPMC channel: `send` blocks while `cap` messages occupy it —
    /// queued, or taken by [`Receiver::try_recv_all`] and not yet given back —
    /// giving producers real backpressure.  A capacity of zero is clamped to
    /// one (this shim has no rendezvous mode).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        /// Queue a message, blocking while a bounded channel is full; fails
        /// only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.shared.capacity {
                    Some(cap) if state.occupied() >= cap => {
                        state.space_waiters += 1;
                        state = self.shared.space.wait(state).unwrap_or_else(|e| e.into_inner());
                        state.space_waiters -= 1;
                    }
                    _ => break,
                }
            }
            let was_empty = state.queue.is_empty();
            state.queue.push_back(value);
            let wake = state.ready_waiters > 0;
            let hooks = if was_empty {
                snapshot_hooks(&state.data_hooks)
            } else {
                None
            };
            drop(state);
            if wake {
                self.shared.ready.notify_one();
            }
            fire_hooks(hooks);
            Ok(())
        }

        /// Queue a message without blocking: a full bounded channel returns
        /// `Full` immediately instead of waiting for space.  This is what a
        /// fan-out plane uses to degrade a slow consumer rather than stall
        /// every other consumer behind it.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = self.shared.capacity {
                if state.occupied() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            let was_empty = state.queue.is_empty();
            state.queue.push_back(value);
            let wake = state.ready_waiters > 0;
            let hooks = if was_empty {
                snapshot_hooks(&state.data_hooks)
            } else {
                None
            };
            drop(state);
            if wake {
                self.shared.ready.notify_one();
            }
            fire_hooks(hooks);
            Ok(())
        }

        /// Queue messages from the front of `run` under one lock — as many as
        /// fit, and at most `limit` — without blocking: `Ok(n)` moved the
        /// first `n`, 0 when a bounded channel is full.  The data hooks fire
        /// once for the run, when it takes the queue from empty to
        /// non-empty.  Fails, moving nothing, only when every receiver is
        /// gone.
        pub fn send_some(&self, run: &mut VecDeque<T>, limit: usize) -> Result<usize, SendError<()>> {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.receivers == 0 {
                return Err(SendError(()));
            }
            let room = match self.shared.capacity {
                Some(cap) => cap.saturating_sub(state.occupied()),
                None => usize::MAX,
            };
            let n = run.len().min(limit).min(room);
            if n == 0 {
                return Ok(0);
            }
            let was_empty = state.queue.is_empty();
            state.queue.extend(run.drain(..n));
            let waiters = state.ready_waiters;
            let hooks = if was_empty {
                snapshot_hooks(&state.data_hooks)
            } else {
                None
            };
            drop(state);
            notify(&self.shared.ready, waiters, n);
            fire_hooks(hooks);
            Ok(n)
        }

        /// Messages occupying the channel right now — queued, plus taken by
        /// [`Receiver::try_recv_all`] and not yet released (telemetry; racy by
        /// nature).
        pub fn len(&self) -> usize {
            self.shared.state.lock().unwrap_or_else(|e| e.into_inner()).occupied()
        }

        /// True when no message occupies the channel right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Register a hook fired whenever a slot frees up in this bounded
        /// channel (full→not-full transition) or every receiver disconnects.
        /// For a producer that parks when the channel is full: check
        /// fullness *after* registering — hooks are edge-triggered.
        pub fn set_space_hook(&self, hook: ReadyHook) {
            self.shared
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .space_hooks
                .push(hook);
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap_or_else(|e| e.into_inner()).senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.senders -= 1;
            // Wake blocked receivers so they can observe the disconnect.
            // (Future receivers re-check `senders` under the mutex before
            // waiting, so gating on current waiters loses nothing.)
            let disconnected = state.senders == 0;
            let wake = disconnected && state.ready_waiters > 0;
            let hooks = if disconnected {
                snapshot_hooks(&state.data_hooks)
            } else {
                None
            };
            drop(state);
            if wake {
                self.shared.ready.notify_all();
            }
            fire_hooks(hooks);
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message or disconnection.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                let was_full = self.shared.capacity == Some(state.occupied());
                if let Some(v) = state.queue.pop_front() {
                    let wake = state.space_waiters > 0;
                    let hooks = if was_full {
                        snapshot_hooks(&state.space_hooks)
                    } else {
                        None
                    };
                    drop(state);
                    if wake {
                        self.shared.space.notify_one();
                    }
                    fire_hooks(hooks);
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.ready_waiters += 1;
                state = self.shared.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                state.ready_waiters -= 1;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            let was_full = self.shared.capacity == Some(state.occupied());
            match state.queue.pop_front() {
                Some(v) => {
                    let wake = state.space_waiters > 0;
                    let hooks = if was_full {
                        snapshot_hooks(&state.space_hooks)
                    } else {
                        None
                    };
                    drop(state);
                    if wake {
                        self.shared.space.notify_one();
                    }
                    fire_hooks(hooks);
                    Ok(v)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocking receive with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                let was_full = self.shared.capacity == Some(state.occupied());
                if let Some(v) = state.queue.pop_front() {
                    let wake = state.space_waiters > 0;
                    let hooks = if was_full {
                        snapshot_hooks(&state.space_hooks)
                    } else {
                        None
                    };
                    drop(state);
                    if wake {
                        self.shared.space.notify_one();
                    }
                    fire_hooks(hooks);
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state.ready_waiters += 1;
                let (guard, _timeout_result) = self
                    .shared
                    .ready
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                state = guard;
                state.ready_waiters -= 1;
            }
        }

        /// Register a hook fired on every empty→non-empty transition of this
        /// channel and when every sender disconnects.  For a consumer that
        /// parks when the channel is empty: check emptiness *after*
        /// registering — hooks are edge-triggered and do not fire for data
        /// already queued at registration time.
        pub fn set_data_hook(&self, hook: ReadyHook) {
            self.shared
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .data_hooks
                .push(hook);
        }

        /// Take every queued message under one lock, appending them to `run`
        /// (into an empty `run` this swaps buffers, so nothing is
        /// allocated).  Messages taken earlier that are no longer in `run`
        /// are given back first; every message in `run` afterwards is held:
        /// it occupies a bounded channel's capacity until
        /// [`Receiver::release`] or the next `try_recv_all` gives it back.
        /// `Ok(n)` took `n > 0`; `Empty` and `Disconnected` took none.  For a
        /// channel with one receiver, whose `run` holds only this channel's
        /// messages.
        pub fn try_recv_all(&self, run: &mut VecDeque<T>) -> Result<usize, TryRecvError> {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            let was_full = self.shared.capacity == Some(state.occupied());
            let given_back = state.held.saturating_sub(run.len());
            let taken = state.queue.len();
            if run.is_empty() {
                std::mem::swap(&mut state.queue, run);
            } else {
                run.append(&mut state.queue);
            }
            state.held = run.len();
            let disconnected = state.senders == 0;
            let (waiters, hooks) = Self::freed(&state, was_full, given_back);
            drop(state);
            notify(&self.shared.space, waiters, given_back);
            fire_hooks(hooks);
            match taken {
                0 if disconnected => Err(TryRecvError::Disconnected),
                0 => Err(TryRecvError::Empty),
                n => Ok(n),
            }
        }

        /// Give back the capacity of `n` messages taken by
        /// [`Receiver::try_recv_all`] (at most what is held): a sender blocked
        /// on the full channel, or parked on its space hook, hears of it at
        /// once.
        pub fn release(&self, n: usize) {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            let n = n.min(state.held);
            if n == 0 {
                return;
            }
            let was_full = self.shared.capacity == Some(state.occupied());
            state.held -= n;
            let (waiters, hooks) = Self::freed(&state, was_full, n);
            drop(state);
            notify(&self.shared.space, waiters, n);
            fire_hooks(hooks);
        }

        /// Who hears that `freed` slots came free: the blocked senders, and
        /// the space hooks when the channel was full.
        fn freed(state: &State<T>, was_full: bool, freed: usize) -> (usize, Option<HookFire>) {
            if freed == 0 {
                return (0, None);
            }
            let hooks = if was_full {
                snapshot_hooks(&state.space_hooks)
            } else {
                None
            };
            (state.space_waiters, hooks)
        }

        /// True when no message occupies the channel right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Messages occupying the channel right now: queued, plus taken by
        /// [`Receiver::try_recv_all`] and not yet released.
        pub fn len(&self) -> usize {
            self.shared.state.lock().unwrap_or_else(|e| e.into_inner()).occupied()
        }

        /// Blocking iterator until disconnection.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap_or_else(|e| e.into_inner()).receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            state.receivers -= 1;
            // Wake senders blocked on a full bounded channel so they can
            // observe the disconnect instead of waiting forever.  (Future
            // senders re-check `receivers` under the mutex before waiting.)
            let disconnected = state.receivers == 0;
            let wake = disconnected && state.space_waiters > 0;
            let hooks = if disconnected {
                snapshot_hooks(&state.space_hooks)
            } else {
                None
            };
            drop(state);
            if wake {
                self.shared.space.notify_all();
            }
            fire_hooks(hooks);
        }
    }

    /// Blocking iterator over received messages.
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.try_recv().unwrap(), 2);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn timeout_expires_then_delivers() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(9).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
        }

        #[test]
        fn bounded_channel_applies_backpressure() {
            let (tx, rx) = bounded(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            // The queue is full: a third send must block until a recv frees a
            // slot.  Run it on a helper thread and release it from here.
            let blocked = std::thread::spawn(move || {
                tx.send(3).unwrap();
                tx
            });
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.len(), 2, "blocked sender must not have enqueued yet");
            assert_eq!(rx.recv().unwrap(), 1);
            let tx = blocked.join().unwrap();
            assert_eq!(rx.recv().unwrap(), 2);
            assert_eq!(rx.recv().unwrap(), 3);
            // A full queue with no receivers errors instead of blocking.
            drop(rx);
            assert!(tx.send(4).is_err());
        }

        #[test]
        fn try_send_reports_full_and_disconnected_without_blocking() {
            let (tx, rx) = bounded(1);
            tx.try_send(1u8).unwrap();
            assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
            assert_eq!(rx.recv().unwrap(), 1);
            tx.try_send(3).unwrap();
            drop(rx);
            assert!(matches!(tx.try_send(4), Err(TrySendError::Disconnected(4))));
        }

        #[test]
        fn dropping_the_receiver_unblocks_a_full_sender() {
            let (tx, rx) = bounded(1);
            tx.send(1u8).unwrap();
            let blocked = std::thread::spawn(move || tx.send(2).is_err());
            std::thread::sleep(Duration::from_millis(20));
            drop(rx);
            assert!(blocked.join().unwrap(), "sender must fail once receivers are gone");
        }

        #[test]
        fn cross_thread_wakeup() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || rx.recv().unwrap());
            std::thread::sleep(Duration::from_millis(10));
            tx.send(7u32).unwrap();
            assert_eq!(h.join().unwrap(), 7);
        }

        #[test]
        fn data_hook_fires_on_empty_transition_and_disconnect_only() {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let (tx, rx) = unbounded();
            let fired = Arc::new(AtomicUsize::new(0));
            let hook_fired = Arc::clone(&fired);
            rx.set_data_hook(Arc::new(move || {
                hook_fired.fetch_add(1, Ordering::SeqCst);
            }));
            tx.send(1u8).unwrap(); // empty → non-empty: fires
            tx.send(2).unwrap(); // already non-empty: silent
            assert_eq!(fired.load(Ordering::SeqCst), 1);
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            tx.try_send(3).unwrap(); // drained, so this transitions again
            assert_eq!(fired.load(Ordering::SeqCst), 2);
            assert_eq!(rx.try_recv(), Ok(3));
            drop(tx); // disconnect fires so a parked consumer can observe it
            assert_eq!(fired.load(Ordering::SeqCst), 3);
        }

        #[test]
        fn space_hook_fires_on_full_transition_and_disconnect_only() {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let (tx, rx) = bounded(2);
            let fired = Arc::new(AtomicUsize::new(0));
            let hook_fired = Arc::clone(&fired);
            tx.set_space_hook(Arc::new(move || {
                hook_fired.fetch_add(1, Ordering::SeqCst);
            }));
            tx.send(1u8).unwrap();
            assert_eq!(rx.try_recv(), Ok(1)); // not full: silent
            assert_eq!(fired.load(Ordering::SeqCst), 0);
            tx.send(2).unwrap();
            tx.send(3).unwrap(); // now full
            assert_eq!(rx.try_recv(), Ok(2)); // full → not-full: fires
            assert_eq!(fired.load(Ordering::SeqCst), 1);
            assert_eq!(rx.try_recv(), Ok(3)); // not full anymore: silent
            assert_eq!(fired.load(Ordering::SeqCst), 1);
            drop(rx); // disconnect fires so a parked producer can observe it
            assert_eq!(fired.load(Ordering::SeqCst), 2);
        }

        fn counting_hook(fired: &Arc<std::sync::atomic::AtomicUsize>) -> ReadyHook {
            let fired = Arc::clone(fired);
            Arc::new(move || {
                fired.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            })
        }

        #[test]
        fn send_some_moves_what_fits_and_fires_the_data_hook_once_per_run() {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let (tx, rx) = bounded(4);
            let fired = Arc::new(AtomicUsize::new(0));
            rx.set_data_hook(counting_hook(&fired));
            let mut run: VecDeque<u8> = (1..=6).collect();
            assert_eq!(tx.send_some(&mut run, 1), Ok(1), "the limit caps the run");
            assert_eq!(tx.send_some(&mut run, usize::MAX), Ok(3), "then as many as fit");
            assert_eq!(run, [5, 6]);
            assert_eq!(fired.load(Ordering::SeqCst), 1, "one empty→non-empty edge, one fire");
            assert_eq!(
                tx.send_some(&mut run, usize::MAX),
                Ok(0),
                "a full channel moves nothing"
            );
            let mut got = VecDeque::new();
            assert_eq!(rx.try_recv_all(&mut got), Ok(4));
            assert_eq!(got, [1, 2, 3, 4]);
            got.clear();
            assert_eq!(rx.try_recv_all(&mut got), Err(TryRecvError::Empty));
            assert_eq!(tx.send_some(&mut run, usize::MAX), Ok(2));
            assert_eq!(fired.load(Ordering::SeqCst), 2, "the next run fires once more");
            drop(rx);
            let mut orphan = VecDeque::from([7]);
            assert!(tx.send_some(&mut orphan, usize::MAX).is_err());
            assert_eq!(orphan, [7], "a failed run moves nothing");
        }

        #[test]
        fn held_messages_count_against_capacity_until_given_back() {
            let (tx, rx) = bounded(4);
            for i in 0..4u8 {
                tx.send(i).unwrap();
            }
            let mut run = VecDeque::new();
            assert_eq!(rx.try_recv_all(&mut run), Ok(4));
            assert_eq!((tx.len(), rx.len()), (4, 4), "taken is not given back");
            assert!(matches!(tx.try_send(9), Err(TrySendError::Full(9))));
            run.pop_front();
            run.pop_front();
            assert!(
                matches!(tx.try_send(9), Err(TrySendError::Full(9))),
                "consumed is not released"
            );
            rx.release(2);
            assert_eq!(tx.len(), 2);
            tx.try_send(4).unwrap();
            tx.try_send(5).unwrap();
            assert!(matches!(tx.try_send(9), Err(TrySendError::Full(9))));
            assert_eq!(tx.len(), 4, "the two still in the run stay held");
            // A refill gives back what left the run and holds what is in it.
            run.pop_front();
            assert_eq!(rx.try_recv_all(&mut run), Ok(2));
            assert_eq!(run, [3, 4, 5]);
            assert_eq!(rx.len(), 3);
            run.clear();
            assert_eq!(rx.try_recv_all(&mut run), Err(TryRecvError::Empty));
            assert_eq!(rx.len(), 0);
        }

        #[test]
        fn the_space_hook_fires_once_when_a_full_channel_frees_space() {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let (tx, rx) = bounded(2);
            let fired = Arc::new(AtomicUsize::new(0));
            tx.set_space_hook(counting_hook(&fired));
            tx.send(1u8).unwrap();
            tx.send(2).unwrap();
            let mut run = VecDeque::new();
            assert_eq!(rx.try_recv_all(&mut run), Ok(2));
            assert_eq!(fired.load(Ordering::SeqCst), 0, "taking frees nothing");
            rx.release(1);
            assert_eq!(fired.load(Ordering::SeqCst), 1, "full → not full");
            rx.release(1);
            assert_eq!(fired.load(Ordering::SeqCst), 1, "was not full: silent");
            tx.send(3).unwrap();
            tx.send(4).unwrap();
            run.clear();
            assert_eq!(rx.try_recv_all(&mut run), Ok(2));
            run.clear();
            assert_eq!(rx.try_recv_all(&mut run), Err(TryRecvError::Empty));
            assert_eq!(
                fired.load(Ordering::SeqCst),
                2,
                "a refill that gives back a full run fires once"
            );
        }

        #[test]
        fn a_sender_blocked_on_held_messages_wakes_on_release() {
            let (tx, rx) = bounded(1);
            tx.send(1u8).unwrap();
            let mut run = VecDeque::new();
            assert_eq!(rx.try_recv_all(&mut run), Ok(1));
            let blocked = std::thread::spawn(move || tx.send(2).is_ok());
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.len(), 1, "the held message still fills the channel");
            rx.release(1);
            assert!(blocked.join().unwrap());
            run.clear();
            assert_eq!(rx.try_recv_all(&mut run), Ok(1));
            assert_eq!(run, [2]);
            run.clear();
            assert_eq!(rx.try_recv_all(&mut run), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn dropping_a_receiver_that_holds_a_run_unblocks_the_sender() {
            let (tx, rx) = bounded(1);
            tx.send(1u8).unwrap();
            let mut run = VecDeque::new();
            assert_eq!(rx.try_recv_all(&mut run), Ok(1));
            let blocked = std::thread::spawn(move || tx.send(2).is_err());
            std::thread::sleep(Duration::from_millis(20));
            drop(rx);
            assert!(blocked.join().unwrap(), "the send fails once the receiver is gone");
        }

        #[test]
        fn multiple_hooks_all_fire() {
            use std::sync::atomic::{AtomicUsize, Ordering};
            let (tx, rx) = unbounded();
            let fired = Arc::new(AtomicUsize::new(0));
            for _ in 0..3 {
                let hook_fired = Arc::clone(&fired);
                rx.set_data_hook(Arc::new(move || {
                    hook_fired.fetch_add(1, Ordering::SeqCst);
                }));
            }
            tx.send(1u8).unwrap();
            assert_eq!(fired.load(Ordering::SeqCst), 3);
        }
    }
}
