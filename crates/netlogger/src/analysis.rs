//! Profile analysis: turning event logs into the numbers the paper reports.
//!
//! The paper derives all of its quantitative results from NetLogger event
//! spans — e.g. "the time required to load 160 megabytes of data into the
//! back end from the DPSS over NTON was approximately three seconds ... for
//! an approximate throughput rate of 433 megabits per second" is the span
//! between `BE_FRAME_START`/`BE_LOAD_START` and `BE_LOAD_END` combined with
//! the payload size.  [`ProfileAnalysis`] reproduces those derivations.

use crate::collector::EventLog;
use crate::event::Event;
use crate::tags;
use std::collections::{BTreeMap, HashMap};

/// Aggregate statistics over one kind of phase (load, render, send, frame).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase name.
    pub name: String,
    /// Number of (frame) observations.
    pub count: usize,
    /// Mean duration in seconds.
    pub mean: f64,
    /// Minimum duration in seconds.
    pub min: f64,
    /// Maximum duration in seconds.
    pub max: f64,
    /// Population standard deviation in seconds.
    pub std_dev: f64,
}

impl PhaseStats {
    fn from_samples(name: &str, samples: &[f64]) -> Self {
        let count = samples.len();
        if count == 0 {
            return PhaseStats {
                name: name.to_string(),
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                std_dev: 0.0,
            };
        }
        let mean = samples.iter().sum::<f64>() / count as f64;
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        PhaseStats {
            name: name.to_string(),
            count,
            mean,
            min,
            max,
            std_dev: var.sqrt(),
        }
    }
}

/// Per-frame summary of the back-end pipeline phases.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSummary {
    /// Frame (timestep) number.
    pub frame: i64,
    /// Wall/virtual time the frame's earliest event occurred.
    pub start: f64,
    /// Time spent loading data from the data source (max across PEs:
    /// the frame is not loaded until the slowest PE finishes).
    pub load_time: f64,
    /// Time spent rendering (max across PEs).
    pub render_time: f64,
    /// Time spent transmitting the heavy payload to the viewer (max across PEs).
    pub send_time: f64,
    /// End-to-end frame time on the back end (max BE span across PEs).
    pub frame_time: f64,
    /// Total bytes loaded for this frame across all PEs.
    pub bytes_loaded: u64,
    /// Aggregate load throughput for this frame in megabits per second.
    pub load_throughput_mbps: f64,
}

/// The back-end phases [`ProfileAnalysis::from_log`] measures, as the
/// (start, end) tags that bracket them: load, render, send, whole frame.
const PHASES: [(&str, &str); 4] = [
    (tags::BE_LOAD_START, tags::BE_LOAD_END),
    (tags::BE_RENDER_START, tags::BE_RENDER_END),
    (tags::BE_HEAVY_SEND, tags::BE_HEAVY_END),
    (tags::BE_FRAME_START, tags::BE_FRAME_END),
];

/// What one (host, program) logged about one frame.
struct SourceFrame {
    /// Timestamps of the first start and the first end event of each of
    /// [`PHASES`].
    first: [(Option<f64>, Option<f64>); 4],
    /// Byte count of the first `BE_LOAD_END` (zero when it carries none).
    bytes_loaded: u64,
    earliest: f64,
    latest: f64,
    events: usize,
}

impl Default for SourceFrame {
    fn default() -> Self {
        SourceFrame {
            first: [(None, None); 4],
            bytes_loaded: 0,
            earliest: f64::INFINITY,
            latest: f64::NEG_INFINITY,
            events: 0,
        }
    }
}

impl SourceFrame {
    fn record(&mut self, e: &Event) {
        self.events += 1;
        self.earliest = self.earliest.min(e.timestamp);
        self.latest = self.latest.max(e.timestamp);
        for ((start_tag, end_tag), (start, end)) in PHASES.iter().zip(&mut self.first) {
            if e.tag == *start_tag {
                start.get_or_insert(e.timestamp);
            } else if e.tag == *end_tag && end.is_none() {
                *end = Some(e.timestamp);
                if *end_tag == tags::BE_LOAD_END {
                    self.bytes_loaded = e.bytes().map_or(0, |b| b.max(0) as u64);
                }
            }
        }
    }

    /// Load, render, send and frame spans: first end minus first start.
    fn spans(&self) -> [Option<f64>; 4] {
        self.first.map(|(start, end)| Some(end? - start?))
    }
}

/// Analysis of one run's event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileAnalysis {
    /// Per-frame summaries in frame order.
    pub frames: Vec<FrameSummary>,
    /// Total elapsed time covered by the log, in seconds.
    pub total_elapsed: f64,
}

impl ProfileAnalysis {
    /// Analyse a log.  Back-end phases are measured per (host, program) and
    /// reduced with `max` across PEs, because the pipeline only advances once
    /// the slowest PE has finished its piece — the same convention the paper
    /// uses when reading its NLV plots.
    pub fn from_log(log: &EventLog) -> Self {
        // One pass, keyed by (source, frame).  The log is time-sorted, so the
        // first occurrence of a tag seen here is the one a search from the
        // front would return.
        let mut per_source: HashMap<(&str, &str, i64), SourceFrame> = HashMap::new();
        let mut frames: BTreeMap<i64, FrameSummary> = BTreeMap::new();
        for e in log.events() {
            let Some(frame) = e.frame() else { continue };
            // Every frame any program logged gets a row, back end or not.
            frames.entry(frame).or_insert_with(|| FrameSummary {
                frame,
                start: f64::INFINITY,
                load_time: 0.0,
                render_time: 0.0,
                send_time: 0.0,
                frame_time: 0.0,
                bytes_loaded: 0,
                load_throughput_mbps: 0.0,
            });
            if e.program.starts_with("backend") {
                per_source
                    .entry((e.host.as_str(), e.program.as_str(), frame))
                    .or_default()
                    .record(e);
            }
        }

        // Reduce across PEs.  Every reduction (max, min, integer sum) is
        // independent of the map's iteration order.
        for ((_, _, frame), pe) in &per_source {
            let Some(f) = frames.get_mut(frame) else { continue };
            let [load, render, send, frame_span] = pe.spans();
            // Frame span: prefer explicit FRAME tags, otherwise first to
            // last event of this (source, frame).
            let frame_span = frame_span.or((pe.events >= 2).then_some(pe.latest - pe.earliest));
            for (longest, span) in [
                (&mut f.load_time, load),
                (&mut f.render_time, render),
                (&mut f.send_time, send),
                (&mut f.frame_time, frame_span),
            ] {
                if let Some(s) = span {
                    *longest = longest.max(s);
                }
            }
            f.bytes_loaded += pe.bytes_loaded;
            f.start = f.start.min(pe.earliest);
        }

        let frames = frames
            .into_values()
            .map(|mut f| {
                if !f.start.is_finite() {
                    f.start = 0.0;
                }
                if f.load_time > 0.0 {
                    f.load_throughput_mbps = f.bytes_loaded as f64 * 8.0 / f.load_time / 1e6;
                }
                f
            })
            .collect();
        ProfileAnalysis {
            frames,
            total_elapsed: log.span(),
        }
    }

    /// Statistics over per-frame load times (the paper's `L`).
    pub fn load_stats(&self) -> PhaseStats {
        PhaseStats::from_samples("load", &self.frames.iter().map(|f| f.load_time).collect::<Vec<_>>())
    }

    /// Statistics over per-frame render times (the paper's `R`).
    pub fn render_stats(&self) -> PhaseStats {
        PhaseStats::from_samples("render", &self.frames.iter().map(|f| f.render_time).collect::<Vec<_>>())
    }

    /// Statistics over per-frame heavy-payload send times.
    pub fn send_stats(&self) -> PhaseStats {
        PhaseStats::from_samples("send", &self.frames.iter().map(|f| f.send_time).collect::<Vec<_>>())
    }

    /// Mean aggregate load throughput across frames, in Mbps.
    pub fn mean_load_throughput_mbps(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().map(|f| f.load_throughput_mbps).sum::<f64>() / self.frames.len() as f64
    }

    /// A compact text table of the per-frame summaries.
    pub fn to_table(&self) -> String {
        let mut out = String::from("frame  start(s)  load(s)  render(s)  send(s)  frame(s)  MB_loaded  load_Mbps\n");
        for f in &self.frames {
            out.push_str(&format!(
                "{:5}  {:8.2}  {:7.2}  {:9.2}  {:7.2}  {:8.2}  {:9.1}  {:9.1}\n",
                f.frame,
                f.start,
                f.load_time,
                f.render_time,
                f.send_time,
                f.frame_time,
                f.bytes_loaded as f64 / 1e6,
                f.load_throughput_mbps,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;

    /// The per-frame, per-source search `from_log` replaced, kept verbatim:
    /// O(frames × sources × events), one `find` per tag.
    fn from_log_oracle(log: &EventLog) -> ProfileAnalysis {
        let mut frames = Vec::new();
        for frame in log.frames() {
            let mut load_times = Vec::new();
            let mut render_times = Vec::new();
            let mut send_times = Vec::new();
            let mut frame_times = Vec::new();
            let mut bytes = 0u64;
            let mut start = f64::INFINITY;

            for (host, program) in log.sources() {
                if !program.starts_with("backend") {
                    continue;
                }
                let find = |tag: &str| {
                    log.events()
                        .iter()
                        .find(|e| e.host == host && e.program == program && e.frame() == Some(frame) && e.tag == tag)
                };
                let span = |a: &str, b: &str| -> Option<f64> { Some(find(b)?.timestamp - find(a)?.timestamp) };
                if let Some(s) = span(tags::BE_LOAD_START, tags::BE_LOAD_END) {
                    load_times.push(s);
                }
                if let Some(s) = span(tags::BE_RENDER_START, tags::BE_RENDER_END) {
                    render_times.push(s);
                }
                if let Some(s) = span(tags::BE_HEAVY_SEND, tags::BE_HEAVY_END) {
                    send_times.push(s);
                }
                // Frame span: prefer explicit FRAME tags, otherwise first to
                // last event of this (source, frame).
                if let Some(s) = span(tags::BE_FRAME_START, tags::BE_FRAME_END) {
                    frame_times.push(s);
                } else {
                    let evs: Vec<f64> = log
                        .events()
                        .iter()
                        .filter(|e| e.host == host && e.program == program && e.frame() == Some(frame))
                        .map(|e| e.timestamp)
                        .collect();
                    if evs.len() >= 2 {
                        frame_times.push(
                            evs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                                - evs.iter().cloned().fold(f64::INFINITY, f64::min),
                        );
                    }
                }
                if let Some(e) = find(tags::BE_LOAD_END) {
                    if let Some(b) = e.bytes() {
                        bytes += b.max(0) as u64;
                    }
                }
                for e in log
                    .events()
                    .iter()
                    .filter(|e| e.host == host && e.program == program && e.frame() == Some(frame))
                {
                    start = start.min(e.timestamp);
                }
            }

            let max = |v: &[f64]| v.iter().cloned().fold(0.0_f64, f64::max);
            let load_time = max(&load_times);
            let throughput = if load_time > 0.0 {
                bytes as f64 * 8.0 / load_time / 1e6
            } else {
                0.0
            };
            frames.push(FrameSummary {
                frame,
                start: if start.is_finite() { start } else { 0.0 },
                load_time,
                render_time: max(&render_times),
                send_time: max(&send_times),
                frame_time: max(&frame_times),
                bytes_loaded: bytes,
                load_throughput_mbps: throughput,
            });
        }
        ProfileAnalysis {
            frames,
            total_elapsed: log.span(),
        }
    }

    /// Build a log that mimics the paper's Fig. 10 profile: per frame, 4 PEs
    /// each load 40 MB in 3 s, render for 8.5 s, send for 0.3 s.
    fn fig10_like_log(frames: i64, pes: usize) -> EventLog {
        let c = Collector::virtual_time();
        let clock = c.clock().clone();
        let loggers: Vec<_> = (0..pes)
            .map(|r| c.logger(format!("cplant-{r}"), format!("backend-worker-{r}")))
            .collect();
        let mut t = 0.0f64;
        for f in 0..frames {
            for log in &loggers {
                clock.set(t);
                log.log_with(tags::BE_FRAME_START, [(tags::FIELD_FRAME, f as u64)]);
                log.log_with(tags::BE_LOAD_START, [(tags::FIELD_FRAME, f as u64)]);
            }
            clock.set(t + 3.0);
            for log in &loggers {
                log.log_with(
                    tags::BE_LOAD_END,
                    [(tags::FIELD_FRAME, f as u64), (tags::FIELD_BYTES, 40_000_000u64)],
                );
                log.log_with(tags::BE_RENDER_START, [(tags::FIELD_FRAME, f as u64)]);
            }
            clock.set(t + 11.5);
            for log in &loggers {
                log.log_with(tags::BE_RENDER_END, [(tags::FIELD_FRAME, f as u64)]);
                log.log_with(tags::BE_HEAVY_SEND, [(tags::FIELD_FRAME, f as u64)]);
            }
            clock.set(t + 11.8);
            for log in &loggers {
                log.log_with(tags::BE_HEAVY_END, [(tags::FIELD_FRAME, f as u64)]);
                log.log_with(tags::BE_FRAME_END, [(tags::FIELD_FRAME, f as u64)]);
            }
            t += 11.8;
        }
        c.finish()
    }

    /// Three logs the fixture never produces: a source whose `BE_LOAD_END`
    /// never arrived (and with no FRAME tags, so the frame span falls back
    /// to first-to-last event), a source with a single event, and a frame
    /// only the viewer logged.
    fn ragged_logs() -> [EventLog; 3] {
        let frame = |f: u64| [(tags::FIELD_FRAME, f)];
        let missing_end = {
            let c = Collector::virtual_time();
            let pe = c.logger("pe-0", "backend-worker-0");
            c.clock().set(1.0);
            pe.log_with(tags::BE_LOAD_START, frame(0));
            c.clock().set(2.0);
            pe.log_with(tags::BE_RENDER_START, frame(0));
            c.clock().set(4.5);
            pe.log_with(tags::BE_RENDER_END, frame(0));
            // A retried frame: the second LOAD_START must not win.
            c.clock().set(5.0);
            pe.log_with(tags::BE_LOAD_START, frame(0));
            c.finish()
        };
        let one_event = {
            let c = Collector::virtual_time();
            let full = c.logger("pe-0", "backend-worker-0");
            let lone = c.logger("pe-1", "backend-worker-1");
            c.clock().set(0.5);
            lone.log_with(tags::BE_LOAD_START, frame(0));
            c.clock().set(1.0);
            full.log_with(tags::BE_LOAD_START, frame(0));
            c.clock().set(3.0);
            // No byte count on the first LOAD_END; a later one is ignored.
            full.log_with(tags::BE_LOAD_END, frame(0));
            c.clock().set(3.5);
            full.log_with(
                tags::BE_LOAD_END,
                [(tags::FIELD_FRAME, 0u64), (tags::FIELD_BYTES, 7u64)],
            );
            c.finish()
        };
        let viewer_only = {
            let c = Collector::virtual_time();
            let pe = c.logger("pe-0", "backend-worker-0");
            let viewer = c.logger("desktop", "viewer-worker-0");
            c.clock().set(1.0);
            pe.log_with(tags::BE_LOAD_START, frame(0));
            c.clock().set(2.0);
            pe.log_with(
                tags::BE_LOAD_END,
                [(tags::FIELD_FRAME, 0u64), (tags::FIELD_BYTES, 1000u64)],
            );
            c.clock().set(9.0);
            viewer.log_with(tags::V_FRAME_START, frame(1));
            viewer.log_with(tags::V_FRAME_END, frame(1));
            c.finish()
        };
        [missing_end, one_event, viewer_only]
    }

    #[test]
    fn single_pass_analysis_is_identical_to_the_search_oracle() {
        let real = include_str!("../tests/fixtures/quickstart_lan_stage.ulm");
        let real = EventLog::read_ulm(real.as_bytes()).unwrap();
        assert!(
            real.with_tag(tags::BE_FRAME_END).count() > 0,
            "fixture lost its back end"
        );
        let mut logs = vec![fig10_like_log(5, 4), real];
        logs.extend(ragged_logs());
        for (i, log) in logs.iter().enumerate() {
            assert_eq!(ProfileAnalysis::from_log(log), from_log_oracle(log), "log {i}");
        }
        // The cases the ragged logs exist for, checked by value too.
        let [missing_end, one_event, viewer_only] = ragged_logs().map(|l| ProfileAnalysis::from_log(&l));
        assert_eq!(missing_end.frames[0].load_time, 0.0);
        assert_eq!(missing_end.frames[0].render_time, 2.5);
        assert_eq!(missing_end.frames[0].frame_time, 4.0);
        assert_eq!(one_event.frames[0].start, 0.5);
        assert_eq!(one_event.frames[0].load_time, 2.0);
        assert_eq!(one_event.frames[0].bytes_loaded, 0);
        assert_eq!(viewer_only.frames.len(), 2);
        assert_eq!(viewer_only.frames[0].bytes_loaded, 1000);
        let idle = &viewer_only.frames[1];
        assert_eq!(
            (idle.frame, idle.start, idle.frame_time, idle.bytes_loaded),
            (1, 0.0, 0.0, 0)
        );
    }

    #[test]
    fn frame_summaries_capture_phase_times() {
        let log = fig10_like_log(3, 4);
        let a = ProfileAnalysis::from_log(&log);
        assert_eq!(a.frames.len(), 3);
        let f0 = &a.frames[0];
        assert!((f0.load_time - 3.0).abs() < 1e-9);
        assert!((f0.render_time - 8.5).abs() < 1e-9);
        assert!((f0.send_time - 0.3).abs() < 1e-9);
        assert!((f0.frame_time - 11.8).abs() < 1e-9);
        assert_eq!(f0.bytes_loaded, 160_000_000);
    }

    #[test]
    fn load_throughput_matches_paper_calculation() {
        // 160 MB in 3 s is ~427 Mbps — the paper quotes "approximately 433".
        let log = fig10_like_log(1, 4);
        let a = ProfileAnalysis::from_log(&log);
        let mbps = a.frames[0].load_throughput_mbps;
        assert!((mbps - 426.7).abs() < 1.0, "got {mbps}");
    }

    #[test]
    fn phase_stats_aggregate_across_frames() {
        let log = fig10_like_log(5, 2);
        let a = ProfileAnalysis::from_log(&log);
        let load = a.load_stats();
        assert_eq!(load.count, 5);
        assert!((load.mean - 3.0).abs() < 1e-9);
        assert!(load.std_dev < 1e-9);
        let render = a.render_stats();
        assert!((render.mean - 8.5).abs() < 1e-9);
    }

    #[test]
    fn empty_log_analysis_is_empty() {
        let a = ProfileAnalysis::from_log(&EventLog::new());
        assert!(a.frames.is_empty());
        assert_eq!(a.mean_load_throughput_mbps(), 0.0);
        assert_eq!(a.load_stats().count, 0);
    }

    #[test]
    fn table_renders_one_row_per_frame() {
        let log = fig10_like_log(4, 2);
        let a = ProfileAnalysis::from_log(&log);
        assert_eq!(a.to_table().lines().count(), 5);
    }
}
