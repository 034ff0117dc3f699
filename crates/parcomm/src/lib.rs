//! # parcomm — the back end's parallel-processing substrate
//!
//! The Visapult back end is "implemented using MPI as the multiprocessing and
//! IPC framework", extended with a detached pthread per MPI process for
//! overlapped data loading (paper Appendix B).  This crate supplies both
//! halves of that substrate as safe Rust:
//!
//! * [`communicator`] — a world of ranks running on OS threads that meet at
//!   a barrier between frames, the one thing the back end asks of MPI.
//! * [`semaphore`] — counting semaphores equivalent to the System V IPC
//!   semaphores the paper uses for reader/render hand-off.
//! * [`process_group`] — the Appendix B "process group": a render process and
//!   a freely-running reader thread sharing a double-buffered memory region,
//!   synchronized by a pair of semaphores, with the even/odd buffer
//!   discipline that guarantees reader and renderer never touch the same
//!   buffer at the same time.

#![forbid(unsafe_code)]

pub mod communicator;
pub mod process_group;
pub mod semaphore;

pub use communicator::{Rank, World};
pub use process_group::{ProcessGroup, ReaderCommand};
pub use semaphore::Semaphore;
