//! # netsim — WAN testbed and network-dynamics simulator
//!
//! This crate supplies the network substrate the Visapult paper ran on:
//! high-speed wide-area testbeds (NTON, ESnet, the SC99 show-floor network)
//! and the local-area gigabit links between DPSS servers and clients.
//! Those testbeds no longer exist, so this crate models them:
//!
//! * [`SimTime`]/[`SimDuration`] — virtual time with nanosecond resolution.
//! * [`link`] — point-to-point link models (bandwidth, one-way latency, MTU,
//!   background load on shared links).
//! * [`tcp`] — a per-round TCP throughput model (slow start, congestion
//!   avoidance, receiver window caps, parallel striped streams) that
//!   reproduces the "first frame is slow until the window opens" behaviour
//!   observed in the paper's Figure 17 and the benefit of striped sockets
//!   used by the DPSS client.
//! * [`topology`] / [`testbeds`] — named reconstructions of the paper's
//!   network configurations.
//! * [`shaper`] — token-bucket shaping of the real path's in-process DPSS
//!   server streams and striped viewer links, so that real-mode runs exhibit
//!   WAN-like pacing.
//!
//! All models are deterministic given a seed; randomness is confined to
//! explicitly requested jitter.

#![forbid(unsafe_code)]

pub mod link;
pub mod shaper;
pub mod tcp;
pub mod testbeds;
pub mod time;
pub mod topology;
pub mod units;

pub use link::{Link, LinkId, LinkKind};
pub use shaper::{StripePacer, TokenBucket};
pub use tcp::{TcpConfig, TcpModel, TransferTimeline};
pub use testbeds::{Testbed, TestbedKind};
pub use time::{SimDuration, SimTime};
pub use topology::{NodeId, Route, Topology};
pub use units::{Bandwidth, DataSize};
