//! Offline stand-in for `criterion`, vendored so the workspace builds with no
//! registry access.
//!
//! Implements the API surface the `visapult-bench` benches use —
//! `criterion_group!`, benchmark groups, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `Throughput`, `sample_size`, `b.iter` —
//! with a simple warmup-then-measure harness that prints mean time per
//! iteration (and derived throughput when declared).  No statistics engine,
//! no HTML reports; runs in a bounded time budget so `cargo bench` stays
//! quick.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Declared per-iteration workload, for derived throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier: a function name plus an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id with both a name and a parameter, like `name/param`.
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }

    /// An id that is just a parameter (group name supplies the rest).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { label: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Passed to the measured closure; collects iteration timings.
pub struct Bencher {
    iters_done: u64,
    elapsed: Duration,
    target_iters: u64,
}

impl Bencher {
    /// Time `f`, running it enough times to fill the sample budget.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One untimed warmup call.
        black_box(f());
        let start = Instant::now();
        for _ in 0..self.target_iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
        self.iters_done = self.target_iters;
    }
}

/// The top-level harness handle.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== bench group: {name} ==");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: 20,
            throughput: None,
        }
    }

    /// Run a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: impl std::fmt::Display, f: F) -> &mut Self {
        let sample_size = self.sample_size;
        run_one(&name.to_string(), sample_size, None, f);
        self
    }

    /// Global default sample size.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }
}

/// A group of benchmarks sharing a name prefix, sample size, and throughput.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of measured samples (shim: scales the iteration budget).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declare per-iteration workload for throughput reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark a closure.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into());
        run_one(&label, self.sample_size, self.throughput, f);
        self
    }

    /// Benchmark a closure against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: impl Into<BenchmarkId>, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into());
        run_one(&label, self.sample_size, self.throughput, |b| f(b, input));
        self
    }

    /// End the group (prints nothing extra in the shim).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, throughput: Option<Throughput>, mut f: F) {
    // Calibrate: one timed call decides how many iterations fit the budget.
    let mut probe = Bencher {
        iters_done: 0,
        elapsed: Duration::ZERO,
        target_iters: 1,
    };
    f(&mut probe);
    let per_iter = probe.elapsed.max(Duration::from_nanos(1));
    // Budget ~50ms per benchmark, scaled loosely by sample size, capped.
    let budget = Duration::from_millis(25).max(Duration::from_millis(2) * sample_size as u32);
    let iters = (budget.as_nanos() / per_iter.as_nanos()).clamp(1, 10_000) as u64;

    let mut bencher = Bencher {
        iters_done: 0,
        elapsed: Duration::ZERO,
        target_iters: iters,
    };
    f(&mut bencher);
    let mean = bencher.elapsed.as_secs_f64() / bencher.iters_done.max(1) as f64;

    let mut line = format!(
        "{label:<52} {:>12}/iter  ({} iters)",
        format_time(mean),
        bencher.iters_done
    );
    match throughput {
        Some(Throughput::Bytes(n)) if mean > 0.0 => {
            let _ = write!(line, "  {:>10.1} MB/s", n as f64 / mean / 1e6);
        }
        Some(Throughput::Elements(n)) if mean > 0.0 => {
            let _ = write!(line, "  {:>10.2} Melem/s", n as f64 / mean / 1e6);
        }
        _ => {}
    }
    println!("{line}");
}

fn format_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Bundle benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $(
                $target(&mut criterion);
            )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benches_run_and_report() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_smoke");
        group.sample_size(5);
        group.throughput(Throughput::Bytes(1024));
        let mut ran = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter("x"), &3u64, |b, &x| {
            b.iter(|| {
                ran += 1;
                black_box(x * 2)
            });
        });
        group.finish();
        assert!(ran > 0);
    }

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("a", "b").to_string(), "a/b");
        assert_eq!(BenchmarkId::from_parameter(4).to_string(), "4");
    }
}
