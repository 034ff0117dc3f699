//! Bench-side spans: every decorator call and every probe call of the traced
//! repetition, kept in memory and written as JSONL when the workload ends.
//!
//! A span is `{id, name, start_ns, end_ns, parent, run_id}`; `parent` is the
//! `id` of the span that caused it (`null` for a root) and every span of one
//! repetition shares its `run_id`.  A span's self time is its duration minus
//! the part of it its children cover — the union of their intervals, because
//! children of one parent may run at the same time (a probe's slab pass reads
//! on one thread per PE).  Where they do not (the stage driver, and every
//! probe but the slab passes) the self times of a tree sum to its root.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// All spans of one workload; a span's id is its index.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        run_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            run_id,
        });
        self.spans.len() - 1
    }

    /// Time one call as a child span of `parent`.
    pub fn timed<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let run_id = self.spans[parent].run_id;
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(name, start, end, Some(parent), run_id);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Close a span opened with a provisional end (a parent pushed before its
    /// children so they can name it).
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by id: its duration less the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut intervals)| {
                intervals.sort_unstable();
                let (mut covered, mut reached) = (0, s.start_ns);
                for (start, end) in intervals {
                    let end = end.min(s.end_ns);
                    let start = start.max(reached);
                    if end > start {
                        covered += end - start;
                        reached = end;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Self time summed by span name, largest first — the per-layer table.
    /// (Calls that ran at the same time each count their own wall time, so
    /// the slab passes' rows can add up to more than their layer's span.)
    pub fn self_time_by_name(&self) -> Vec<(String, u64, usize)> {
        let mut by_name: std::collections::BTreeMap<&str, (u64, usize)> = std::collections::BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = by_name.entry(&s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        let mut rows: Vec<_> = by_name.into_iter().map(|(n, (ns, c))| (n.to_string(), ns, c)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Span names are this binary's own identifiers (checked against
            // `[A-Za-z0-9_.:-]`), so they need no JSON escaping.
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run_id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let mut log = SpanLog::new(epoch);
        let root = log.push("layer", at(0), at(100), None, 1);
        // Two ranks reading at once, then a call on its own.
        log.push("read", at(10), at(40), Some(root), 1);
        log.push("read", at(20), at(50), Some(root), 1);
        log.push("decode", at(60), at(70), Some(root), 1);
        let ms = |n: u64| n * 1_000_000;
        assert_eq!(log.self_times(), [ms(50), ms(30), ms(30), ms(10)]);
        assert_eq!(
            log.self_time_by_name(),
            [
                ("read".to_string(), ms(60), 2),
                ("layer".to_string(), ms(50), 1),
                ("decode".to_string(), ms(10), 1)
            ]
        );
    }
}
