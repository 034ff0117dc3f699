//! Time sources for instrumentation.
//!
//! The same NetLogger instrumentation is used whether the pipeline runs on
//! real threads (wall-clock time) or inside the virtual-time campaign
//! simulator (a shared, manually advanced clock).  Timestamps are seconds
//! since the start of the run, like the horizontal axes of the paper's NLV
//! plots.

use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
enum ClockInner {
    /// Real time, measured from the moment the clock was created.
    Wall(Instant),
    /// Simulated time, advanced explicitly by the simulation driver.
    Virtual(RwLock<f64>),
}

/// A cloneable time source.
#[derive(Debug, Clone)]
pub struct Clock {
    inner: Arc<ClockInner>,
}

impl Clock {
    /// A wall clock starting at zero now.
    pub fn wall() -> Self {
        Clock {
            inner: Arc::new(ClockInner::Wall(Instant::now())),
        }
    }

    /// A virtual clock starting at zero; advance it with [`Clock::set`] or
    /// [`Clock::advance`].
    pub fn virtual_clock() -> Self {
        Clock {
            inner: Arc::new(ClockInner::Virtual(RwLock::new(0.0))),
        }
    }

    /// Seconds since the start of the run.
    pub fn now(&self) -> f64 {
        match &*self.inner {
            ClockInner::Wall(start) => start.elapsed().as_secs_f64(),
            ClockInner::Virtual(t) => *t.read(),
        }
    }

    /// True if this is a virtual clock.
    pub fn is_virtual(&self) -> bool {
        matches!(&*self.inner, ClockInner::Virtual(_))
    }

    /// Set the virtual time (no-op warning-free on a wall clock would hide
    /// bugs, so this panics if called on a wall clock).  Time may only move
    /// forward.
    pub fn set(&self, seconds: f64) {
        match &*self.inner {
            ClockInner::Virtual(t) => {
                let mut guard = t.write();
                assert!(
                    seconds >= *guard,
                    "virtual clock may only move forward (from {} to {seconds})",
                    *guard
                );
                *guard = seconds;
            }
            ClockInner::Wall(_) => panic!("cannot set a wall clock"),
        }
    }

    /// Advance the virtual time by `seconds`.
    pub fn advance(&self, seconds: f64) {
        assert!(seconds >= 0.0, "cannot advance a clock backwards");
        let now = self.now();
        self.set(now + seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_moves_forward() {
        let c = Clock::wall();
        let a = c.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = c.now();
        assert!(b > a);
        assert!(!c.is_virtual());
    }

    #[test]
    fn virtual_clock_is_manual_and_shared() {
        let c = Clock::virtual_clock();
        let c2 = c.clone();
        assert_eq!(c.now(), 0.0);
        c.set(5.0);
        assert_eq!(c2.now(), 5.0);
        c2.advance(1.5);
        assert_eq!(c.now(), 6.5);
        assert!(c.is_virtual());
    }

    #[test]
    #[should_panic]
    fn virtual_clock_cannot_go_backwards() {
        let c = Clock::virtual_clock();
        c.set(10.0);
        c.set(9.0);
    }

    #[test]
    #[should_panic]
    fn wall_clock_cannot_be_set() {
        Clock::wall().set(1.0);
    }
}
