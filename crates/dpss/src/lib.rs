//! # dpss — the Distributed Parallel Storage System
//!
//! A reproduction of the LBL DPSS the paper uses as its network data cache
//! (§2, §3.5): "a data block server, built using low-cost commodity hardware
//! components and custom software to provide parallelism at the disk, server,
//! and network level."
//!
//! The crate provides:
//!
//! * [`block`] — the logical block space, the striping layout that maps
//!   logical blocks onto (server, disk, offset) triples, and the shared
//!   zero-copy [`Block`] buffer the data plane moves.
//! * [`cache`] — the sharded LRU block cache between the client and the
//!   cluster, with per-shard hit/miss/eviction telemetry.
//! * [`disk`] — a circa-2000 commodity disk model (seek + rotation + sustained
//!   transfer rate) used for capacity planning and virtual-time simulation.
//! * [`dataset`] — descriptors for the large time-varying scientific datasets
//!   cached on the system.
//! * [`master`] — the DPSS master: dataset registry, access control,
//!   logical-to-physical block lookup, load balancing across replicas.
//! * [`server`] — in-memory block servers holding actual data for real-mode
//!   runs.
//! * [`client`] — the client API library (`dpss_open`, `dpss_read`,
//!   `dpss_lseek`, `dpss_write`, `dpss_close`) with one fetch thread per
//!   server for the client's life, exactly as described in §3.5;
//!   `read_pieces` (and `read_range`, which gathers its pieces) is the one
//!   path a block takes to the back end.
//! * [`hpss`] — the HPSS archival system model and the HPSS→DPSS staging path
//!   the paper motivates ("we can migrate the files from HPSS to a nearby
//!   DPSS cache").
//! * [`sim`] — the virtual-time DPSS performance model used by the benchmark
//!   harness (LAN/WAN aggregate throughput, scaling with servers and disks).

#![forbid(unsafe_code)]

pub mod block;
pub mod cache;
pub mod client;
pub mod dataset;
pub mod disk;
pub mod error;
pub mod hpss;
pub mod master;
pub mod server;
pub mod sim;

pub use block::{Block, BlockId, PhysicalLocation, StripeLayout};
pub use cache::{BlockCache, CacheConfig, CacheStats};
pub use client::{DpssClient, DpssFile, SeekFrom};
pub use dataset::DatasetDescriptor;
pub use disk::DiskModel;
pub use error::DpssError;
pub use hpss::{HpssArchive, HpssFile, StagingReport};
pub use master::{DpssMaster, PhysicalBlockRequest};
pub use server::{BlockServer, DpssCluster};
pub use sim::DpssSimModel;
