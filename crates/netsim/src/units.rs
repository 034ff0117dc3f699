//! Bandwidth and data-size units.
//!
//! The paper mixes megabits per second (network links), megabytes per second
//! (disk and DPSS throughput) and megabytes/gigabytes (dataset sizes); these
//! newtypes keep the conversions explicit and in one place.

use crate::time::SimDuration;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A bandwidth, stored in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// From bits per second.
    pub fn from_bps(bps: f64) -> Self {
        assert!(
            bps.is_finite() && bps >= 0.0,
            "bandwidth must be finite and non-negative"
        );
        Bandwidth(bps)
    }

    /// From megabits per second (the unit the paper uses for links).
    pub fn from_mbps(mbps: f64) -> Self {
        Self::from_bps(mbps * 1e6)
    }

    /// From gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_bps(gbps * 1e9)
    }

    /// From megabytes per second (the unit the paper uses for disks/DPSS).
    pub fn from_mbytes_per_sec(mb: f64) -> Self {
        Self::from_bps(mb * 8e6)
    }

    /// OC-12 SONET payload rate (622 Mbps) — the paper's NTON/ESnet links.
    pub fn oc12() -> Self {
        Self::from_mbps(622.0)
    }

    /// OC-48 SONET payload rate (2.4 Gbps) — NTON backbone at SC99.
    pub fn oc48() -> Self {
        Self::from_gbps(2.4)
    }

    /// OC-192 SONET payload rate (~9.6 Gbps) — the paper's future-work target.
    pub fn oc192() -> Self {
        Self::from_gbps(9.6)
    }

    /// Gigabit ethernet.
    pub fn gige() -> Self {
        Self::from_mbps(1000.0)
    }

    /// Fast ethernet.
    pub fn fast_ethernet() -> Self {
        Self::from_mbps(100.0)
    }

    /// Bits per second.
    pub fn bps(self) -> f64 {
        self.0
    }

    /// Megabits per second.
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Megabytes per second.
    pub fn mbytes_per_sec(self) -> f64 {
        self.0 / 8e6
    }

    /// Time needed to move `size` at this bandwidth (infinite bandwidth → zero).
    pub fn time_to_send(self, size: DataSize) -> SimDuration {
        if self.0 <= 0.0 {
            // A zero-bandwidth link can never deliver data; callers treat this
            // as "effectively forever" by using a very large span.
            return SimDuration::from_secs_f64(f64::MAX.min(1e18));
        }
        SimDuration::from_secs_f64(size.bits() as f64 / self.0)
    }

    /// Scale by a factor (e.g. utilization or per-flow share).
    pub fn scale(self, factor: f64) -> Bandwidth {
        Bandwidth::from_bps(self.0 * factor)
    }

    /// The smaller of two bandwidths (bottleneck).
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The larger of two bandwidths.
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - rhs.0).max(0.0))
    }
}

impl std::iter::Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Self {
        iter.fold(Bandwidth::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2} Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.1} Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.1} Kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.0} bps", self.0)
        }
    }
}

/// An amount of data, stored in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DataSize(u64);

impl DataSize {
    /// Zero bytes.
    pub const ZERO: DataSize = DataSize(0);

    /// From bytes.
    pub const fn from_bytes(b: u64) -> Self {
        DataSize(b)
    }

    /// From megabytes (10^6), matching the paper's "160 megabytes per time step".
    pub const fn from_mb(mb: u64) -> Self {
        DataSize(mb * 1_000_000)
    }

    /// From gigabytes (10^9).
    pub const fn from_gb(gb: u64) -> Self {
        DataSize(gb * 1_000_000_000)
    }

    /// Bytes.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Bits.
    pub const fn bits(self) -> u64 {
        self.0 * 8
    }

    /// Megabytes (10^6 bytes).
    pub fn megabytes(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Gigabytes (10^9 bytes).
    pub fn gigabytes(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.saturating_sub(rhs.0))
    }

    /// The bandwidth achieved moving this much data in `dur`.
    pub fn rate_over(self, dur: SimDuration) -> Bandwidth {
        let secs = dur.as_secs_f64();
        if secs <= 0.0 {
            return Bandwidth::ZERO;
        }
        Bandwidth::from_bps(self.bits() as f64 / secs)
    }
}

impl Add for DataSize {
    type Output = DataSize;
    fn add(self, rhs: DataSize) -> DataSize {
        DataSize(self.0 + rhs.0)
    }
}

impl AddAssign for DataSize {
    fn add_assign(&mut self, rhs: DataSize) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for DataSize {
    fn sum<I: Iterator<Item = DataSize>>(iter: I) -> Self {
        iter.fold(DataSize::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2} GB", self.gigabytes())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.1} MB", self.megabytes())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1} KB", self.0 as f64 / 1e3)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions() {
        assert!((Bandwidth::from_mbps(622.0).bps() - 622e6).abs() < 1.0);
        assert!((Bandwidth::from_mbytes_per_sec(1.0).mbps() - 8.0).abs() < 1e-9);
        assert!((Bandwidth::oc12().mbps() - 622.0).abs() < 1e-9);
        assert!((Bandwidth::gige().mbps() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn datasize_conversions() {
        assert_eq!(DataSize::from_mb(160).bytes(), 160_000_000);
        assert_eq!(DataSize::from_gb(1).bytes(), 1_000_000_000);
        assert_eq!(DataSize::from_mb(1).bits(), 8_000_000);
        // The paper's per-timestep payload: 640*256*256 f32 values.
        let step = DataSize::from_bytes(640 * 256 * 256 * 4);
        assert!((step.megabytes() - 167.772).abs() < 0.001);
    }

    #[test]
    fn time_to_send_and_rate() {
        // 160 MB over OC-12 at full utilization: 1.28e9 bits / 622e6 bps ≈ 2.06 s
        let t = Bandwidth::oc12().time_to_send(DataSize::from_mb(160));
        assert!((t.as_secs_f64() - 2.058).abs() < 0.01);
        let r = DataSize::from_mb(160).rate_over(SimDuration::from_secs_f64(3.0));
        assert!((r.mbps() - 426.67).abs() < 0.1);
    }

    #[test]
    fn bottleneck_and_arithmetic() {
        let a = Bandwidth::from_mbps(100.0);
        let b = Bandwidth::from_mbps(622.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(((a + b).mbps() - 722.0).abs() < 1e-9);
        assert!(((b - a).mbps() - 522.0).abs() < 1e-9);
        // subtraction floors at zero
        assert_eq!((a - b).bps(), 0.0);
    }

    #[test]
    fn zero_bandwidth_never_delivers() {
        let t = Bandwidth::ZERO.time_to_send(DataSize::from_mb(1));
        assert!(t.as_secs_f64() > 1e9);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Bandwidth::from_mbps(622.0)), "622.0 Mbps");
        assert_eq!(format!("{}", Bandwidth::from_gbps(2.4)), "2.40 Gbps");
        assert_eq!(format!("{}", DataSize::from_mb(160)), "160.0 MB");
        assert_eq!(format!("{}", DataSize::from_gb(41)), "41.00 GB");
    }
}
