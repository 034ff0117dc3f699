//! The Appendix B process group: overlapped data loading and rendering.
//!
//! Each back-end PE becomes a *process group*: the render process (the MPI
//! rank) plus a detached, freely running reader thread.  The two share a
//! double-buffered memory region sized for two timesteps of data and a pair
//! of semaphores:
//!
//! * semaphore **A** is the reader's execution barrier — the renderer posts
//!   it together with a command ("read timestep t" or "terminate"),
//! * semaphore **B** is the renderer's execution barrier — the reader posts
//!   it when the requested timestep is resident.
//!
//! Access control to the double buffer "is implicit as a function of the
//! time step using an even-odd decomposition": the reader writes into slot
//! `t % 2` while the renderer reads slot `(t-1) % 2`, and the semaphore
//! protocol guarantees the two are never the same slot at the same time.
//! The Rust implementation keeps that protocol but wraps each slot in a
//! `Mutex` so that even a protocol bug cannot become a data race.

use crate::semaphore::Semaphore;
use parking_lot::{Mutex, MutexGuard};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Command issued by the render process to its reader thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderCommand {
    /// Load the data for the given timestep into the appropriate buffer slot.
    Read {
        /// The timestep to load.
        timestep: usize,
    },
    /// All timesteps are done; the reader thread should exit.
    Terminate,
}

struct Shared<T> {
    /// The double-buffered per-timestep data (slot = timestep % 2).
    buffers: [Mutex<T>; 2],
    /// Command mailbox, written by the renderer before posting semaphore A.
    command: Mutex<Option<ReaderCommand>>,
    /// Reader's execution barrier.
    sem_a: Semaphore,
    /// Renderer's execution barrier.
    sem_b: Semaphore,
}

/// Handle held by the render process for its reader thread.
pub struct ProcessGroup<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    reader: Option<JoinHandle<usize>>,
    /// True while a `Read` command has been issued but not yet waited for.
    outstanding: bool,
}

impl<T: Send + 'static> ProcessGroup<T> {
    /// Launch the reader thread.
    ///
    /// * `initial` — factory producing the two (empty) buffer slots.
    /// * `read_fn` — the reader body: called once per requested timestep with
    ///   the timestep number and exclusive access to that timestep's buffer
    ///   slot.  It runs on the detached reader thread, concurrently with
    ///   rendering on the caller's thread.
    ///
    /// Returns the handle the render process uses to drive the protocol.
    pub fn spawn<F, G>(initial: G, mut read_fn: F) -> Self
    where
        F: FnMut(usize, &mut T) + Send + 'static,
        G: FnMut() -> T,
    {
        let mut initial = initial;
        let shared = Arc::new(Shared {
            buffers: [Mutex::new(initial()), Mutex::new(initial())],
            command: Mutex::new(None),
            sem_a: Semaphore::new(0),
            sem_b: Semaphore::new(0),
        });
        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name("visapult-reader".to_string())
            .spawn(move || {
                let mut reads = 0usize;
                loop {
                    // Block on semaphore A waiting for the next command.
                    reader_shared.sem_a.wait();
                    let cmd = reader_shared
                        .command
                        .lock()
                        .take()
                        .expect("semaphore A posted without a command");
                    match cmd {
                        ReaderCommand::Read { timestep } => {
                            {
                                let mut slot = reader_shared.buffers[timestep % 2].lock();
                                read_fn(timestep, &mut slot);
                            }
                            reads += 1;
                            reader_shared.sem_b.post();
                        }
                        ReaderCommand::Terminate => {
                            reader_shared.sem_b.post();
                            return reads;
                        }
                    }
                }
            })
            .expect("spawn reader thread");
        ProcessGroup {
            shared,
            reader: Some(reader),
            outstanding: false,
        }
    }

    /// Ask the reader to load `timestep` (posts semaphore A).  Returns
    /// immediately; the data is ready once [`ProcessGroup::wait_ready`]
    /// returns.
    ///
    /// Panics if a previous request has not yet been waited for — the
    /// Appendix B protocol is strictly one request in flight at a time.
    pub fn request(&mut self, timestep: usize) {
        assert!(
            !self.outstanding,
            "a read request is already outstanding; wait_ready() must be called between requests"
        );
        {
            let mut cmd = self.shared.command.lock();
            *cmd = Some(ReaderCommand::Read { timestep });
        }
        self.outstanding = true;
        self.shared.sem_a.post();
    }

    /// Block until the most recently requested timestep is resident (waits on
    /// semaphore B).
    pub fn wait_ready(&mut self) {
        self.shared.sem_b.wait();
        self.outstanding = false;
    }

    /// Exclusive access to the buffer slot holding `timestep`'s data.
    ///
    /// Callers must respect the protocol: only access a timestep that has
    /// been requested and waited for, and do not hold the guard across a
    /// `wait_ready` for the *same* slot.  The mutex converts any violation
    /// into blocking rather than a data race.
    pub fn buffer(&self, timestep: usize) -> MutexGuard<'_, T> {
        self.shared.buffers[timestep % 2].lock()
    }

    /// Ask the reader thread to exit and join it.  Returns the number of
    /// timesteps the reader actually loaded.
    pub fn terminate(mut self) -> usize {
        self.shutdown()
    }

    fn shutdown(&mut self) -> usize {
        if let Some(handle) = self.reader.take() {
            {
                let mut cmd = self.shared.command.lock();
                // If the renderer died mid-protocol there may be a stale
                // command; overwrite it — termination wins.
                *cmd = Some(ReaderCommand::Terminate);
            }
            self.shared.sem_a.post();
            self.shared.sem_b.wait();
            handle.join().expect("reader thread panicked")
        } else {
            0
        }
    }
}

impl<T: Send + 'static> Drop for ProcessGroup<T> {
    fn drop(&mut self) {
        // Make sure the reader thread is not leaked if the renderer unwinds.
        let _ = self.shutdown();
    }
}

/// Drive a full overlapped loop over `timesteps` timesteps, the exact control
/// flow of paper Figure 19: request t=0, wait, then for each t request t+1,
/// render t, and wait for t+1.
///
/// * `read_fn` runs on the reader thread (concurrently with rendering).
/// * `render_fn` runs on the calling thread with the loaded buffer.
///
/// Returns the number of timesteps rendered.
pub fn run_overlapped<T, F, G, H>(timesteps: usize, initial: G, read_fn: F, mut render_fn: H) -> usize
where
    T: Send + 'static,
    F: FnMut(usize, &mut T) + Send + 'static,
    G: FnMut() -> T,
    H: FnMut(usize, &T),
{
    if timesteps == 0 {
        return 0;
    }
    let mut pg = ProcessGroup::spawn(initial, read_fn);
    pg.request(0);
    pg.wait_ready();
    for t in 0..timesteps {
        if t + 1 < timesteps {
            pg.request(t + 1);
        }
        {
            let buf = pg.buffer(t);
            render_fn(t, &buf);
        }
        if t + 1 < timesteps {
            pg.wait_ready();
        }
    }
    pg.terminate();
    timesteps
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn reader_loads_requested_timesteps() {
        let mut pg: ProcessGroup<Vec<usize>> = ProcessGroup::spawn(Vec::new, |t, buf| {
            buf.clear();
            buf.extend(std::iter::repeat_n(t, 4));
        });
        pg.request(0);
        pg.wait_ready();
        assert_eq!(*pg.buffer(0), vec![0, 0, 0, 0]);
        pg.request(1);
        pg.wait_ready();
        assert_eq!(*pg.buffer(1), vec![1, 1, 1, 1]);
        // Slot 0 still holds timestep 0's data.
        assert_eq!(*pg.buffer(0), vec![0, 0, 0, 0]);
        let reads = pg.terminate();
        assert_eq!(reads, 2);
    }

    #[test]
    fn terminate_without_requests_is_clean() {
        let pg: ProcessGroup<u8> = ProcessGroup::spawn(|| 0, |_t, _b| {});
        assert_eq!(pg.terminate(), 0);
    }

    #[test]
    fn drop_joins_reader_thread() {
        let pg: ProcessGroup<u8> = ProcessGroup::spawn(|| 0, |_t, _b| {});
        drop(pg); // must not hang or leak
    }

    #[test]
    fn run_overlapped_visits_every_timestep_in_order() {
        let rendered = Arc::new(Mutex::new(Vec::new()));
        let rendered2 = Arc::clone(&rendered);
        let n = run_overlapped(
            10,
            || 0usize,
            |t, buf| *buf = t * 100,
            |t, buf| rendered2.lock().push((t, *buf)),
        );
        assert_eq!(n, 10);
        let seen = rendered.lock();
        assert_eq!(seen.len(), 10);
        for (i, (t, v)) in seen.iter().enumerate() {
            assert_eq!(*t, i);
            assert_eq!(*v, i * 100, "renderer must see the data loaded for its timestep");
        }
    }

    #[test]
    fn overlap_actually_overlaps_load_and_render() {
        // Loads and renders each take ~10 ms; 8 timesteps serial would be
        // ~160 ms, overlapped should be well under that.
        let start = std::time::Instant::now();
        run_overlapped(
            8,
            || 0u8,
            |_t, _b| std::thread::sleep(Duration::from_millis(10)),
            |_t, _b| std::thread::sleep(Duration::from_millis(10)),
        );
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(145),
            "expected pipelining, took {elapsed:?}"
        );
        assert!(
            elapsed >= Duration::from_millis(85),
            "cannot be faster than the critical path, took {elapsed:?}"
        );
    }

    #[test]
    fn reader_and_renderer_never_share_a_slot() {
        // Instrument the reader to record which slot it is writing while the
        // renderer records which slot it is reading; the sets must never
        // intersect at the same time.  We approximate "at the same time" by
        // having the reader hold a flag while inside the slot.
        static READER_SLOT: AtomicUsize = AtomicUsize::new(usize::MAX);
        let violations = Arc::new(AtomicUsize::new(0));
        let violations2 = Arc::clone(&violations);
        run_overlapped(
            20,
            || 0usize,
            |t, buf| {
                READER_SLOT.store(t % 2, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                *buf = t;
                READER_SLOT.store(usize::MAX, Ordering::SeqCst);
            },
            |t, _buf| {
                let render_slot = t % 2;
                if READER_SLOT.load(Ordering::SeqCst) == render_slot {
                    violations2.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(1));
            },
        );
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    #[should_panic]
    fn double_request_without_wait_panics() {
        let mut pg: ProcessGroup<u8> = ProcessGroup::spawn(
            || 0,
            |_t, _b| {
                std::thread::sleep(Duration::from_millis(50));
            },
        );
        pg.request(0);
        pg.request(1); // protocol violation
    }

    #[test]
    fn zero_timesteps_is_a_noop() {
        assert_eq!(run_overlapped(0, || 0u8, |_t, _b| {}, |_t, _b| {}), 0);
    }
}
