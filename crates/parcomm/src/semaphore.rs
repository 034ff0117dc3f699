//! A counting semaphore built on `parking_lot`.
//!
//! The paper's overlapped back end uses a pair of System V IPC semaphores per
//! render/reader process group (Appendix B): semaphore A is the reader's
//! execution barrier, semaphore B the renderer's.  This is the equivalent
//! primitive for in-process threads.

use parking_lot::{Condvar, Mutex};
use std::time::Duration;

/// A counting semaphore.
#[derive(Debug)]
pub struct Semaphore {
    count: Mutex<usize>,
    condvar: Condvar,
}

impl Semaphore {
    /// A semaphore with the given initial permit count.
    pub fn new(initial: usize) -> Self {
        Semaphore {
            count: Mutex::new(initial),
            condvar: Condvar::new(),
        }
    }

    /// Release one permit (the paper's `sem_post`).
    pub fn post(&self) {
        let mut count = self.count.lock();
        *count += 1;
        self.condvar.notify_one();
    }

    /// Acquire one permit, blocking until one is available (the paper's
    /// `sem_wait`).
    pub fn wait(&self) {
        let mut count = self.count.lock();
        while *count == 0 {
            self.condvar.wait(&mut count);
        }
        *count -= 1;
    }

    /// Acquire one permit, giving up after `timeout`.  Returns `true` if a
    /// permit was acquired.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let mut count = self.count.lock();
        if *count > 0 {
            *count -= 1;
            return true;
        }
        let result = self.condvar.wait_for(&mut count, timeout);
        if !result.timed_out() && *count > 0 {
            *count -= 1;
            true
        } else if *count > 0 {
            // Raced: a post arrived exactly at timeout.
            *count -= 1;
            true
        } else {
            false
        }
    }

    /// Current number of available permits (for diagnostics/tests).
    pub fn available(&self) -> usize {
        *self.count.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn post_then_wait() {
        let s = Semaphore::new(0);
        s.post();
        s.wait();
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn initial_permits_are_available() {
        let s = Semaphore::new(3);
        s.wait();
        s.wait();
        s.wait();
        assert_eq!(s.available(), 0);
        assert!(!s.wait_timeout(Duration::from_millis(1)));
    }

    #[test]
    fn wait_blocks_until_post_from_other_thread() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let handle = std::thread::spawn(move || {
            s2.wait();
            42
        });
        std::thread::sleep(Duration::from_millis(20));
        s.post();
        assert_eq!(handle.join().unwrap(), 42);
    }

    #[test]
    fn wait_timeout_expires() {
        let s = Semaphore::new(0);
        assert!(!s.wait_timeout(Duration::from_millis(10)));
        s.post();
        assert!(s.wait_timeout(Duration::from_millis(10)));
    }

    #[test]
    fn ping_pong_between_threads() {
        // The exact A/B protocol the process group uses.
        let a = Arc::new(Semaphore::new(0));
        let b = Arc::new(Semaphore::new(0));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let rounds = 100;
        let worker = std::thread::spawn(move || {
            for _ in 0..rounds {
                a2.wait();
                b2.post();
            }
        });
        for _ in 0..rounds {
            a.post();
            b.wait();
        }
        worker.join().unwrap();
        assert_eq!(a.available(), 0);
        assert_eq!(b.available(), 0);
    }
}
