//! Token-bucket bandwidth shaping for real-path runs.
//!
//! When the Visapult pipeline runs for real, its DPSS server streams are
//! in-process reads, orders of magnitude faster than any circa-2000 WAN.  A
//! [`TokenBucket`] on each stream paces it down to a configured rate so that
//! real-mode runs exhibit WAN-like behaviour without needing an actual
//! testbed.
//!
//! [`StripePacer`] extends the same idea to a striped link: each of the N
//! parallel stripes gets its own bucket refilled at its share of the link's
//! rate — the caller passes a `TcpModel`'s steady-state goodput, so a real
//! in-process striped link experiences the modeled WAN, including the
//! receiver-window limit that makes a single untuned stripe slow and parallel
//! striping fast, the effect the paper's DPSS client relies on.

use crate::units::Bandwidth;
use std::time::{Duration, Instant};

/// A token bucket: tokens are bytes, refilled continuously at `rate`.
///
/// Time is an offset on one monotonic time base: [`TokenBucket::consume`]
/// reads the wall clock from the bucket's creation, and
/// [`TokenBucket::consume_at`] takes the instant from its caller.  A bucket
/// keeps to one of the two.
#[derive(Debug)]
pub struct TokenBucket {
    rate_bytes_per_sec: f64,
    capacity_bytes: f64,
    tokens: f64,
    created: Instant,
    last_refill: Duration,
}

impl TokenBucket {
    /// A bucket refilled at `rate`, holding at most `burst_bytes` of credit.
    pub fn new(rate: Bandwidth, burst_bytes: u64) -> Self {
        let rate_bytes_per_sec = (rate.bps() / 8.0).max(1.0);
        TokenBucket {
            rate_bytes_per_sec,
            capacity_bytes: burst_bytes.max(1) as f64,
            tokens: burst_bytes.max(1) as f64,
            created: Instant::now(),
            last_refill: Duration::ZERO,
        }
    }

    /// A bucket with a burst of one default ethernet MTU.
    pub fn with_default_burst(rate: Bandwidth) -> Self {
        // Allow ~10ms of burst so small messages are not over-penalized.
        let burst = (rate.bps() / 8.0 * 0.010).max(1500.0) as u64;
        Self::new(rate, burst)
    }

    /// The configured rate.
    pub fn rate(&self) -> Bandwidth {
        Bandwidth::from_bps(self.rate_bytes_per_sec * 8.0)
    }

    fn refill(&mut self, now: Duration) {
        let elapsed = now.saturating_sub(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + elapsed * self.rate_bytes_per_sec).min(self.capacity_bytes);
        self.last_refill = self.last_refill.max(now);
    }

    /// Account for sending `bytes` and return how long the caller should
    /// sleep before the send to respect the configured rate.
    ///
    /// The debt model allows the token count to go negative so that large
    /// writes are paced accurately without splitting them.
    pub fn consume(&mut self, bytes: u64) -> Duration {
        self.consume_at(bytes, self.created.elapsed())
    }

    /// [`TokenBucket::consume`] at `now` on the caller's time base: the
    /// delay is how long after `now` the bucket has paid for `bytes`.
    pub fn consume_at(&mut self, bytes: u64, now: Duration) -> Duration {
        self.refill(now);
        self.tokens -= bytes as f64;
        if self.tokens >= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64((-self.tokens) / self.rate_bytes_per_sec)
        }
    }

    /// Consume and actually sleep for the computed pacing delay.
    pub fn throttle(&mut self, bytes: u64) {
        let d = self.consume(bytes);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// Per-stripe pacing for a striped link: one [`TokenBucket`] per stripe, each
/// refilled at its share of the whole link's modeled goodput.
#[derive(Debug)]
pub struct StripePacer {
    buckets: Vec<TokenBucket>,
}

impl StripePacer {
    /// Pace `stripes` parallel stripes to an aggregate `rate` (each stripe
    /// gets `rate / stripes`).
    pub fn from_rate(rate: Bandwidth, stripes: u32) -> StripePacer {
        let stripes = stripes.max(1);
        let per_stripe = rate.scale(1.0 / f64::from(stripes));
        StripePacer {
            buckets: (0..stripes)
                .map(|_| TokenBucket::with_default_burst(per_stripe))
                .collect(),
        }
    }

    /// Number of stripes being paced.
    pub fn stripes(&self) -> usize {
        self.buckets.len()
    }

    /// Account for `bytes` on `stripe` and return the pacing delay the caller
    /// should sleep before the send.
    pub fn consume(&mut self, stripe: usize, bytes: u64) -> Duration {
        let n = self.buckets.len();
        self.buckets[stripe % n].consume(bytes)
    }

    /// [`StripePacer::consume`] at `now` on the caller's time base
    /// ([`TokenBucket::consume_at`]).
    pub fn consume_at(&mut self, stripe: usize, bytes: u64, now: Duration) -> Duration {
        let n = self.buckets.len();
        self.buckets[stripe % n].consume_at(bytes, now)
    }

    /// Consume and actually sleep for the computed pacing delay.
    pub fn throttle(&mut self, stripe: usize, bytes: u64) {
        let n = self.buckets.len();
        self.buckets[stripe % n].throttle(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_burst_is_free() {
        let mut tb = TokenBucket::new(Bandwidth::from_mbps(8.0), 1_000_000);
        assert_eq!(tb.consume(500_000), Duration::ZERO);
    }

    #[test]
    fn beyond_burst_requires_waiting() {
        // 8 Mbps = 1 MB/s; consuming 2 MB beyond an empty-ish bucket needs ~1s+.
        let mut tb = TokenBucket::new(Bandwidth::from_mbps(8.0), 1_000_000);
        let _ = tb.consume(1_000_000); // drain the burst
        let wait = tb.consume(2_000_000);
        assert!(wait.as_secs_f64() > 1.5 && wait.as_secs_f64() < 2.5, "got {wait:?}");
    }

    #[test]
    fn sustained_rate_converges() {
        let rate = Bandwidth::from_mbps(80.0); // 10 MB/s
        let mut tb = TokenBucket::with_default_burst(rate);
        let chunk = 100_000u64;
        let chunks = 50u64;
        let mut last_wait = Duration::ZERO;
        for _ in 0..chunks {
            last_wait = tb.consume(chunk);
        }
        // After pushing 5 MB through a 10 MB/s bucket without sleeping, the
        // outstanding debt (and therefore the pacing delay a caller would
        // sleep) is roughly 0.5 s minus the 100 KB burst credit.
        let secs = last_wait.as_secs_f64();
        assert!(secs > 0.3 && secs < 0.6, "got {secs}");
    }

    #[test]
    fn consume_at_paces_on_the_callers_time_base() {
        // 8 Mbps = 1 MB/s with a 1 KB burst: the burst goes free, the rest
        // is debt paid off at the rate, and only time the caller says has
        // passed refills the bucket.
        let mut tb = TokenBucket::new(Bandwidth::from_mbps(8.0), 1_000);
        assert_eq!(tb.consume_at(1_000, Duration::ZERO), Duration::ZERO);
        let wait = tb.consume_at(500, Duration::ZERO).as_secs_f64();
        assert!((wait - 500e-6).abs() < 1e-9, "got {wait}");
        // A millisecond later the debt is paid and 500 bytes are back.
        assert_eq!(tb.consume_at(500, Duration::from_millis(1)), Duration::ZERO);
        // An earlier instant refills nothing: the bucket's time never runs
        // backwards.
        let wait = tb.consume_at(1, Duration::ZERO).as_secs_f64();
        assert!((wait - 1e-6).abs() < 1e-9, "got {wait}");
    }

    #[test]
    fn rate_accessor_roundtrips() {
        let tb = TokenBucket::with_default_burst(Bandwidth::from_mbps(622.0));
        assert!((tb.rate().mbps() - 622.0).abs() < 1e-6);
    }

    #[test]
    fn stripe_pacer_splits_the_rate_across_stripes() {
        let mut pacer = StripePacer::from_rate(Bandwidth::from_mbps(80.0), 8);
        assert_eq!(pacer.stripes(), 8);
        // Draining one stripe's burst does not charge the others.
        let burst = (10e6 / 8.0 * 0.010) as u64; // with_default_burst at 10 Mbps
        let _ = pacer.consume(0, burst);
        let wait0 = pacer.consume(0, 1_000_000);
        let wait1 = pacer.consume(1, 1_000);
        assert!(
            wait0.as_secs_f64() > 0.5,
            "overdrawn stripe must be paced, got {wait0:?}"
        );
        assert_eq!(wait1, Duration::ZERO, "untouched stripe still has its burst");
    }
}
