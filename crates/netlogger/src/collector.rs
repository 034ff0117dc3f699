//! The collector "daemon" and the accumulated event log.
//!
//! In the paper a NetLogger daemon is launched on a host reachable by every
//! component of the distributed application; instrumented code sends events
//! to it and the accumulated log feeds the NLV visualization and analysis
//! tools.  Here the daemon is a [`Collector`]: handles created by
//! [`Collector::logger`] send events over a crossbeam channel, and
//! [`Collector::drain`]/[`Collector::finish`] gather them into an
//! [`EventLog`].

use crate::clock::Clock;
use crate::event::Event;
use crate::logger::NetLogger;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::BTreeSet;
use std::io::{BufRead, Write};

/// An accumulated, sortable set of NetLogger events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a vector of events (sorted by timestamp).
    pub fn from_events(mut events: Vec<Event>) -> Self {
        events.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        EventLog { events }
    }

    /// Append one event, keeping timestamp order.
    pub fn push(&mut self, event: Event) {
        let pos = self.events.partition_point(|e| e.timestamp <= event.timestamp);
        self.events.insert(pos, event);
    }

    /// All events in timestamp order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events with a given tag.
    pub fn with_tag<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.tag == tag)
    }

    /// The distinct (host, program) pairs present, sorted.
    pub fn sources(&self) -> Vec<(String, String)> {
        let set: BTreeSet<(String, String)> = self
            .events
            .iter()
            .map(|e| (e.host.clone(), e.program.clone()))
            .collect();
        set.into_iter().collect()
    }

    /// The distinct frame numbers present, sorted.
    pub fn frames(&self) -> Vec<i64> {
        let set: BTreeSet<i64> = self.events.iter().filter_map(|e| e.frame()).collect();
        set.into_iter().collect()
    }

    /// Timestamp of the first event (zero if empty).
    pub fn start_time(&self) -> f64 {
        self.events.first().map(|e| e.timestamp).unwrap_or(0.0)
    }

    /// Timestamp of the last event (zero if empty).
    pub fn end_time(&self) -> f64 {
        self.events.last().map(|e| e.timestamp).unwrap_or(0.0)
    }

    /// Total span covered by the log in seconds.
    pub fn span(&self) -> f64 {
        self.end_time() - self.start_time()
    }

    /// For a (host, program, frame), find the first event with `tag`.
    pub fn find(&self, host: &str, program: &str, frame: Option<i64>, tag: &str) -> Option<&Event> {
        self.events
            .iter()
            .find(|e| e.host == host && e.program == program && e.tag == tag && (frame.is_none() || e.frame() == frame))
    }

    /// Merge another log into this one.
    pub fn merge(&mut self, other: EventLog) {
        self.events.extend(other.events);
        self.events.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    }

    /// Write the log as ULM lines.
    pub fn write_ulm<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for e in &self.events {
            writeln!(w, "{}", e.to_ulm())?;
        }
        Ok(())
    }

    /// Read a log from ULM lines, skipping malformed lines.
    pub fn read_ulm<R: BufRead>(r: R) -> std::io::Result<EventLog> {
        let mut events = Vec::new();
        for line in r.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            if let Some(e) = Event::from_ulm(&line) {
                events.push(e);
            }
        }
        Ok(EventLog::from_events(events))
    }
}

/// The collector daemon: hands out [`NetLogger`] handles and accumulates the
/// events they emit.
#[derive(Debug)]
pub struct Collector {
    clock: Clock,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    log: EventLog,
}

impl Collector {
    /// A collector using the given clock for all handles it creates.
    pub fn new(clock: Clock) -> Self {
        let (tx, rx) = unbounded();
        Collector {
            clock,
            tx,
            rx,
            log: EventLog::new(),
        }
    }

    /// A collector on a wall clock.
    pub fn wall() -> Self {
        Self::new(Clock::wall())
    }

    /// A collector on a virtual clock.
    pub fn virtual_time() -> Self {
        Self::new(Clock::virtual_clock())
    }

    /// The clock shared by this collector's handles.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Create a logging handle for a component.
    pub fn logger(&self, host: impl Into<String>, program: impl Into<String>) -> NetLogger {
        NetLogger::new(host, program, self.clock.clone(), self.tx.clone())
    }

    /// Pull any pending events into the internal log and return how many were
    /// collected.
    pub fn drain(&mut self) -> usize {
        let mut n = 0;
        while let Ok(e) = self.rx.try_recv() {
            self.log.push(e);
            n += 1;
        }
        n
    }

    /// A snapshot of the log collected so far (after draining).
    pub fn snapshot(&mut self) -> EventLog {
        self.drain();
        self.log.clone()
    }

    /// Consume the collector and return the final log.  Handles still alive
    /// can no longer deliver events after this.
    pub fn finish(mut self) -> EventLog {
        self.drain();
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags;

    fn sample_log() -> EventLog {
        let c = Collector::virtual_time();
        let clock = c.clock().clone();
        let be = c.logger("cplant-0", "backend-worker");
        let v = c.logger("lbl-viewer", "viewer-worker");
        clock.set(1.0);
        be.log_with(tags::BE_LOAD_START, [(tags::FIELD_FRAME, 0u64)]);
        clock.set(4.0);
        be.log_with(
            tags::BE_LOAD_END,
            [(tags::FIELD_FRAME, 0u64), (tags::FIELD_BYTES, 160_000_000u64)],
        );
        clock.set(4.5);
        v.log_with(tags::V_FRAME_START, [(tags::FIELD_FRAME, 0u64)]);
        clock.set(12.0);
        be.log_with(tags::BE_RENDER_END, [(tags::FIELD_FRAME, 0u64)]);
        c.finish()
    }

    #[test]
    fn collector_gathers_in_time_order() {
        let log = sample_log();
        assert_eq!(log.len(), 4);
        let times: Vec<f64> = log.events().iter().map(|e| e.timestamp).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(log.start_time(), 1.0);
        assert_eq!(log.end_time(), 12.0);
        assert_eq!(log.span(), 11.0);
    }

    #[test]
    fn filtering_and_sources() {
        let log = sample_log();
        assert_eq!(log.with_tag(tags::BE_LOAD_END).count(), 1);
        assert_eq!(log.frames(), vec![0]);
        let sources = log.sources();
        assert_eq!(sources.len(), 2);
        assert!(sources.contains(&("cplant-0".to_string(), "backend-worker".to_string())));
    }

    #[test]
    fn ulm_file_roundtrip() {
        let log = sample_log();
        let mut buf = Vec::new();
        log.write_ulm(&mut buf).unwrap();
        let back = EventLog::read_ulm(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.len(), log.len());
        assert_eq!(back.events()[1].tag, log.events()[1].tag);
    }

    #[test]
    fn merge_keeps_order() {
        let mut a = sample_log();
        let b = EventLog::from_events(vec![Event::new(2.0, "x", "y", "MID")]);
        a.merge(b);
        assert_eq!(a.len(), 5);
        let times: Vec<f64> = a.events().iter().map(|e| e.timestamp).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn push_keeps_order() {
        let mut log = EventLog::new();
        log.push(Event::new(5.0, "h", "p", "B"));
        log.push(Event::new(1.0, "h", "p", "A"));
        log.push(Event::new(3.0, "h", "p", "C"));
        let tags: Vec<&str> = log.events().iter().map(|e| e.tag.as_str()).collect();
        assert_eq!(tags, vec!["A", "C", "B"]);
    }

    #[test]
    fn multithreaded_logging() {
        let c = Collector::wall();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let log = c.logger(format!("node-{i}"), "backend-worker");
                std::thread::spawn(move || {
                    for f in 0..25 {
                        log.log_with(tags::BE_FRAME_START, [(tags::FIELD_FRAME, f as u64)]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let log = c.finish();
        assert_eq!(log.len(), 100);
        assert_eq!(log.sources().len(), 4);
    }
}
