//! Order statistics over a handful of repetitions, and the `/proc` readers
//! the process-level metrics come from.

/// Median, quartiles and range of one timing over the timed repetitions.
/// A run affords five to twenty repetitions: no percentile above the median
/// has ten samples beyond it, so none is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&v, 0.5),
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }
}

/// Linear-interpolated quantile of a sorted, non-empty slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Process CPU seconds (user + system, every thread, live or joined) from
/// `/proc/self/stat`.  The kernel reports clock ticks of `USER_HZ`, which the
/// Linux ABI fixes at 100, so one tick is 10 ms; a repetition burns seconds.
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted from
    // the closing parenthesis: state is field 3, utime 14, stime 15.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    let utime = ticks(fields.next());
    let stime = ticks(fields.next());
    (utime + stime) as f64 / 100.0
}

/// One numeric field of `/proc/self/status` (`VmHWM` in kB, `Threads`).
fn status_field(name: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

pub fn live_threads() -> u64 {
    status_field("Threads:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_hand_computed_quartiles() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.q1, s.q3, s.min, s.max, s.n), (3.0, 2.0, 4.0, 1.0, 5.0, 5));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(live_threads() >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_seconds() >= 0.0);
    }
}
