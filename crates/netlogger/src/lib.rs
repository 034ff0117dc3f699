//! # netlogger — precision event logging, collection and lifeline analysis
//!
//! A reproduction of the NetLogger methodology the paper uses for end-to-end
//! profiling of the distributed Visapult pipeline (§3.6), together with an
//! NLV-style lifeline visualization (the plots in Figures 10 and 12–17) and
//! the analysis routines used to derive throughput and phase durations from
//! the event stream.
//!
//! * [`Event`] — one timestamped event: host, program, tag, and typed fields
//!   (frame number, byte counts, …), serializable as ULM key=value text
//!   (NetLogger's native format).
//! * [`Clock`] — wall-clock or virtual-clock time sources, so the same
//!   instrumentation works in real-socket runs and in virtual-time
//!   simulations.
//! * [`NetLogger`] — the cheap, cloneable handle application code calls;
//!   events flow over a channel to a [`Collector`] "daemon".
//! * [`EventLog`] — the accumulated log with filtering, merging, and ULM export.
//! * [`nlv`] — text lifeline plots in the style of the NLV tool.
//! * [`analysis`] — phase durations, per-frame summaries, and throughput
//!   extraction (how the paper turns `BE_LOAD_START`/`BE_LOAD_END` spans into
//!   "433 megabits per second").
//! * [`metrics`] — the always-on metrics plane: lock-free log-bucketed
//!   latency histograms, counters and high-water gauges behind a cloneable
//!   [`MetricsHub`], plus deterministic 1-in-N lifeline sampling for
//!   100k-session runs.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod clock;
pub mod collector;
pub mod event;
pub mod logger;
pub mod metrics;
pub mod nlv;
pub mod tags;

pub use analysis::{FrameSummary, PhaseStats, ProfileAnalysis};
pub use clock::Clock;
pub use collector::{Collector, EventLog};
pub use event::{Event, FieldValue};
pub use logger::NetLogger;
pub use metrics::{session_sampled, HistogramSummary, LogHistogram, MetricsHub, MetricsSnapshot};
pub use nlv::{LifelinePlot, NlvOptions};
