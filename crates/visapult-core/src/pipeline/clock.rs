//! The [`Clock`] capability: where a stage's timestamps come from.

use netlogger::Collector;
use std::sync::mpsc::Receiver;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Timestamp source for one stage execution: every NetLogger event of the
/// stage — pipeline phases, transport stripes, cache and service summaries —
/// is stamped by the collector this capability hands out.
///
/// Beyond timestamps, the clock owns *pacing*: code that must wait out a
/// flow-control interval calls [`Clock::pace_until`] instead of
/// `std::thread::sleep`, so the same body runs unchanged under
/// [`VirtualClock`] (where every deadline has already passed and nothing
/// blocks).
pub trait Clock: Send + Sync {
    /// A fresh per-stage collector on this clock.
    fn collector(&self) -> Collector;

    /// True when timestamps are deterministic (covered bit-for-bit by replay
    /// fingerprints); false for wall time (excluded from fingerprints).
    fn is_virtual(&self) -> bool;

    /// Short label for reports.
    fn label(&self) -> &'static str;

    /// Monotonic elapsed time on this clock, for computing pacing deadlines.
    /// Wall clocks measure from a process-wide epoch; virtual clocks pin this
    /// to zero so every deadline derived from it is already due.
    fn monotonic_now(&self) -> Duration {
        Duration::ZERO
    }

    /// Block until `deadline` (as measured by [`Clock::monotonic_now`]) has
    /// passed.  Wall clocks sleep the remainder; virtual clocks return
    /// immediately — modeled pacing is accounted analytically, not slept.
    fn pace_until(&self, deadline: Duration) {
        let now = self.monotonic_now();
        if let Some(remaining) = deadline.checked_sub(now) {
            if !remaining.is_zero() {
                std::thread::sleep(remaining);
            }
        }
    }

    /// [`Clock::pace_until`], cut short the moment `wake` receives or its
    /// sender hangs up: for a poller that must hear "stop" at once rather
    /// than at its next deadline.  Virtual clocks return immediately.
    fn pace_until_woken(&self, deadline: Duration, wake: &Receiver<()>) {
        let now = self.monotonic_now();
        if let Some(remaining) = deadline.checked_sub(now) {
            if !remaining.is_zero() {
                // A message, a hang-up or the deadline: all three end the wait.
                let _ = wake.recv_timeout(remaining);
            }
        }
    }
}

/// Process-wide epoch for [`WallClock::monotonic_now`]: pacing deadlines
/// computed on one thread must be comparable on any other.
fn wall_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Wall-clock time: what the real pipeline runs on.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallClock;

impl Clock for WallClock {
    fn collector(&self) -> Collector {
        Collector::wall()
    }

    fn is_virtual(&self) -> bool {
        false
    }

    fn label(&self) -> &'static str {
        "wall"
    }

    fn monotonic_now(&self) -> Duration {
        wall_epoch().elapsed()
    }
}

/// Virtual time: what the calibrated models run on.  Event timestamps are a
/// pure function of the spec and seed, so two runs are bit-identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtualClock;

impl Clock for VirtualClock {
    fn collector(&self) -> Collector {
        Collector::virtual_time()
    }

    fn is_virtual(&self) -> bool {
        true
    }

    fn label(&self) -> &'static str {
        "virtual"
    }

    fn pace_until(&self, _deadline: Duration) {}

    fn pace_until_woken(&self, _deadline: Duration, _wake: &Receiver<()>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_monotonic_now_is_comparable_across_threads() {
        let a = WallClock.monotonic_now();
        let b = std::thread::spawn(|| WallClock.monotonic_now()).join().unwrap();
        assert!(b >= a);
    }

    #[test]
    fn wall_pace_until_waits_out_the_remainder() {
        let clock = WallClock;
        let start = clock.monotonic_now();
        clock.pace_until(start + Duration::from_millis(5));
        assert!(clock.monotonic_now() - start >= Duration::from_millis(5));
    }

    #[test]
    fn wall_pace_until_past_deadlines_return_immediately() {
        // A deadline already behind `now` must not sleep (and must not panic
        // on the underflow).
        WallClock.pace_until(Duration::ZERO);
    }

    #[test]
    fn wall_pace_until_woken_ends_when_the_sender_hangs_up() {
        let clock = WallClock;
        let (wake, woken) = std::sync::mpsc::channel::<()>();
        let start = clock.monotonic_now();
        let waker = std::thread::spawn(move || {
            WallClock.pace_until(WallClock.monotonic_now() + Duration::from_millis(5));
            drop(wake);
        });
        clock.pace_until_woken(start + Duration::from_secs(60), &woken);
        waker.join().unwrap();
        let waited = clock.monotonic_now() - start;
        assert!(waited >= Duration::from_millis(5), "{waited:?}");
        assert!(
            waited < Duration::from_secs(30),
            "the hang-up must end the wait: {waited:?}"
        );
        // Without a wake it is pace_until.
        let (_wake, woken) = std::sync::mpsc::channel::<()>();
        let start = clock.monotonic_now();
        clock.pace_until_woken(start + Duration::from_millis(5), &woken);
        assert!(clock.monotonic_now() - start >= Duration::from_millis(5));
    }

    #[test]
    fn virtual_clock_never_blocks_and_pins_now_to_zero() {
        let clock = VirtualClock;
        assert_eq!(clock.monotonic_now(), Duration::ZERO);
        let start = std::time::Instant::now();
        clock.pace_until(Duration::from_secs(3600));
        let (_wake, woken) = std::sync::mpsc::channel::<()>();
        clock.pace_until_woken(Duration::from_secs(3600), &woken);
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
