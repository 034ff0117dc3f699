//! The analytic overlapped-pipeline model of §4.3.
//!
//! "let R be the time spent in each PE performing rendering for each of N
//! timesteps of data, and let L be the time spent by each PE loading data for
//! each time step.  The amount of time, Ts, required for N time steps' worth
//! of data using the serial implementation is: `Ts = N × (L + R)`.  In
//! contrast, the time required for N time steps using an overlapped
//! implementation is: `To = N × max(L, R) + min(L, R)`."

/// The two-parameter (L, R) pipeline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapModel {
    /// Per-timestep data loading time, seconds.
    pub load: f64,
    /// Per-timestep rendering time, seconds.
    pub render: f64,
}

impl OverlapModel {
    /// A model with the given per-timestep load and render times.
    pub fn new(load: f64, render: f64) -> Self {
        assert!(load >= 0.0 && render >= 0.0, "phase times must be non-negative");
        OverlapModel { load, render }
    }

    /// The paper's §4.3 measured values on the E4500: L ≈ 15 s, R ≈ 12 s.
    pub fn paper_e4500() -> Self {
        OverlapModel::new(15.0, 12.0)
    }

    /// Serial time for `n` timesteps: `N (L + R)`.
    pub fn serial_time(&self, n: usize) -> f64 {
        n as f64 * (self.load + self.render)
    }

    /// Overlapped time for `n` timesteps: `N max(L,R) + min(L,R)`.
    pub fn overlapped_time(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        n as f64 * self.load.max(self.render) + self.load.min(self.render)
    }

    /// Speedup of overlapped over serial for `n` timesteps.
    pub fn speedup(&self, n: usize) -> f64 {
        let to = self.overlapped_time(n);
        if to <= 0.0 {
            1.0
        } else {
            self.serial_time(n) / to
        }
    }

    /// The theoretical ceiling when L = R: `2N / (N + 1)`.
    pub fn ideal_speedup(n: usize) -> f64 {
        if n == 0 {
            1.0
        } else {
            2.0 * n as f64 / (n as f64 + 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_match_the_paper() {
        let m = OverlapModel::new(10.0, 10.0);
        assert_eq!(m.serial_time(5), 100.0);
        assert_eq!(m.overlapped_time(5), 60.0);
        assert!((m.speedup(5) - OverlapModel::ideal_speedup(5)).abs() < 1e-12);
    }

    #[test]
    fn ideal_speedup_approaches_two() {
        assert!((OverlapModel::ideal_speedup(1) - 1.0).abs() < 1e-12);
        assert!(OverlapModel::ideal_speedup(10) > 1.8);
        assert!(OverlapModel::ideal_speedup(1000) > 1.99);
        assert!(OverlapModel::ideal_speedup(1000) < 2.0);
    }

    #[test]
    fn speedup_diminishes_as_l_and_r_diverge() {
        // "As the difference between L and R increases, the effective speedup
        // ... will diminish."
        let balanced = OverlapModel::new(10.0, 10.0).speedup(20);
        let skewed = OverlapModel::new(18.0, 2.0).speedup(20);
        let very_skewed = OverlapModel::new(19.9, 0.1).speedup(20);
        assert!(balanced > skewed);
        assert!(skewed > very_skewed);
        assert!(very_skewed > 1.0);
    }

    #[test]
    fn paper_e4500_predicts_the_measured_times() {
        // Measured: serial ≈ 265 s, overlapped ≈ 169 s for 10 timesteps with
        // L ≈ 15 s and R ≈ 12 s.
        let m = OverlapModel::paper_e4500();
        let ts = m.serial_time(10);
        let to = m.overlapped_time(10);
        assert!((ts - 270.0).abs() < 1e-9);
        assert!((to - 162.0).abs() < 1e-9);
        // Within ~5% of the measured wall-clock values.
        assert!((ts - 265.0).abs() / 265.0 < 0.05);
        assert!((to - 169.0).abs() / 169.0 < 0.05);
    }

    #[test]
    fn zero_timesteps_and_degenerate_cases() {
        let m = OverlapModel::new(5.0, 3.0);
        assert_eq!(m.serial_time(0), 0.0);
        assert_eq!(m.overlapped_time(0), 0.0);
        assert_eq!(OverlapModel::new(0.0, 0.0).speedup(10), 1.0);
    }

    #[test]
    #[should_panic]
    fn negative_times_are_rejected() {
        OverlapModel::new(-1.0, 1.0);
    }
}
