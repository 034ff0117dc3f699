//! An MPI-like communicator over OS threads.
//!
//! The Visapult back end treats MPI as a rank abstraction: each processing
//! element knows its rank and the world size, exchanges point-to-point
//! messages, and meets at barriers between frames.  [`World::run`] spawns one
//! thread per rank inside a `std::thread::scope` and hands each a [`Rank`]
//! handle with exactly those operations, plus the handful of collectives
//! (broadcast, gather, all-gather, all-reduce) the pipeline uses.
//!
//! Messages are any `Send + 'static` type; each ordered pair of ranks has its
//! own channel so `recv_from` preserves per-sender FIFO order, like MPI.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::fmt;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Errors raised by communicator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer rank does not exist.
    UnknownRank(usize),
    /// A receive timed out or the peer disconnected.
    RecvFailed(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::UnknownRank(r) => write!(f, "unknown rank {r}"),
            CommError::RecvFailed(why) => write!(f, "receive failed: {why}"),
        }
    }
}

impl std::error::Error for CommError {}

/// The per-rank handle passed to each worker closure.
pub struct Rank<M: Send + 'static> {
    rank: usize,
    size: usize,
    /// senders[to] sends into `to`'s per-source mailbox for this rank.
    senders: Vec<Sender<M>>,
    /// receivers[from] receives messages sent by `from` to this rank.
    receivers: Vec<Receiver<M>>,
    barrier: Arc<Barrier>,
}

impl<M: Send + 'static> Rank<M> {
    /// This rank's index in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// True for rank 0, which the back end uses as its master.
    pub fn is_master(&self) -> bool {
        self.rank == 0
    }

    /// Send a message to another rank.
    pub fn send(&self, to: usize, msg: M) -> Result<(), CommError> {
        let sender = self.senders.get(to).ok_or(CommError::UnknownRank(to))?;
        sender
            .send(msg)
            .map_err(|_| CommError::RecvFailed(format!("rank {to} has exited")))
    }

    /// Receive the next message sent by `from`, blocking.
    pub fn recv_from(&self, from: usize) -> Result<M, CommError> {
        let rx = self.receivers.get(from).ok_or(CommError::UnknownRank(from))?;
        rx.recv().map_err(|e| CommError::RecvFailed(e.to_string()))
    }

    /// Receive from `from` with a timeout.
    pub fn recv_from_timeout(&self, from: usize, timeout: Duration) -> Result<M, CommError> {
        let rx = self.receivers.get(from).ok_or(CommError::UnknownRank(from))?;
        rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => CommError::RecvFailed("timeout".to_string()),
            RecvTimeoutError::Disconnected => CommError::RecvFailed("disconnected".to_string()),
        })
    }

    /// Block until every rank has reached this barrier.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

impl<M: Send + Clone + 'static> Rank<M> {
    /// Broadcast from `root`: the root passes `Some(value)`, everyone else
    /// passes `None`, and every rank returns the root's value.
    pub fn broadcast(&self, root: usize, value: Option<M>) -> Result<M, CommError> {
        if self.rank == root {
            let v = value.expect("the broadcast root must supply a value");
            for r in 0..self.size {
                if r != root {
                    self.send(r, v.clone())?;
                }
            }
            Ok(v)
        } else {
            self.recv_from(root)
        }
    }

    /// Gather every rank's value at `root`; the root receives them indexed by
    /// rank, all other ranks receive `None`.
    pub fn gather(&self, root: usize, value: M) -> Result<Option<Vec<M>>, CommError> {
        if self.rank == root {
            let mut all: Vec<Option<M>> = (0..self.size).map(|_| None).collect();
            all[root] = Some(value);
            for (r, slot) in all.iter_mut().enumerate() {
                if r != root {
                    *slot = Some(self.recv_from(r)?);
                }
            }
            Ok(Some(
                all.into_iter().map(|v| v.expect("gather fills every slot")).collect(),
            ))
        } else {
            self.send(root, value)?;
            Ok(None)
        }
    }

    /// Gather every rank's value at every rank (gather at 0 + broadcast).
    pub fn all_gather(&self, value: M) -> Result<Vec<M>, CommError>
    where
        Vec<M>: Clone,
    {
        let gathered = self.gather(0, value)?;
        if self.rank == 0 {
            let v = gathered.expect("root gathered");
            for r in 1..self.size {
                self.send_vec(r, v.clone())?;
            }
            Ok(v)
        } else {
            self.recv_vec_from(0)
        }
    }

    fn send_vec(&self, to: usize, v: Vec<M>) -> Result<(), CommError> {
        // Ship element-by-element to avoid a second channel type; order is
        // preserved because per-pair channels are FIFO.
        for item in v {
            self.send(to, item)?;
        }
        Ok(())
    }

    fn recv_vec_from(&self, from: usize) -> Result<Vec<M>, CommError> {
        (0..self.size).map(|_| self.recv_from(from)).collect()
    }

    /// Reduce every rank's value with `op` (applied in rank order, so the
    /// result is deterministic) and return the result on every rank.
    pub fn all_reduce(&self, value: M, op: impl Fn(M, M) -> M) -> Result<M, CommError>
    where
        Vec<M>: Clone,
    {
        let all = self.all_gather(value)?;
        let mut it = all.into_iter();
        let first = it.next().expect("world size is at least one");
        Ok(it.fold(first, op))
    }
}

/// The world: builds the channel mesh and runs one closure per rank.
pub struct World;

impl World {
    /// Run `f` on `size` ranks, each on its own OS thread, and return the
    /// per-rank results in rank order.
    ///
    /// A panic in any rank is re-raised on the caller once every rank has
    /// been joined, mirroring an MPI abort.
    pub fn run<M, R, F>(size: usize, f: F) -> Vec<R>
    where
        M: Send + 'static,
        R: Send,
        F: Fn(Rank<M>) -> R + Sync,
    {
        assert!(size > 0, "world size must be at least one");
        // mesh[from][to] -> channel
        let mut senders: Vec<Vec<Sender<M>>> = (0..size).map(|_| Vec::with_capacity(size)).collect();
        let mut receivers: Vec<Vec<Receiver<M>>> = (0..size).map(|_| Vec::with_capacity(size)).collect();
        // Build so that receivers[to][from] pairs with senders[from][to].
        let mut channels: Vec<Vec<(Sender<M>, Receiver<M>)>> =
            (0..size).map(|_| (0..size).map(|_| unbounded()).collect()).collect();
        for (from, sends) in senders.iter_mut().enumerate() {
            for (tx, _) in &channels[from] {
                sends.push(tx.clone());
            }
        }
        for to in 0..size {
            for from_channels in channels.iter_mut() {
                let (_, rx) = std::mem::replace(&mut from_channels[to], unbounded());
                receivers[to].push(rx);
            }
        }
        let barrier = Arc::new(Barrier::new(size));

        let mut handles: Vec<Rank<M>> = Vec::with_capacity(size);
        for (rank, recvs) in receivers.into_iter().enumerate() {
            handles.push(Rank {
                rank,
                size,
                senders: senders[rank].clone(),
                receivers: recvs,
                barrier: Arc::clone(&barrier),
            });
        }

        let f = &f;
        std::thread::scope(|scope| {
            let joins: Vec<_> = handles.into_iter().map(|h| scope.spawn(move || f(h))).collect();
            joins
                .into_iter()
                .map(|j| j.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_know_their_identity() {
        let results: Vec<(usize, usize)> = World::run::<(), _, _>(4, |rank| (rank.rank(), rank.size()));
        assert_eq!(results, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_ring() {
        // Each rank sends its rank to the next rank and receives from the previous.
        let results: Vec<usize> = World::run::<usize, _, _>(5, |rank| {
            let next = (rank.rank() + 1) % rank.size();
            let prev = (rank.rank() + rank.size() - 1) % rank.size();
            rank.send(next, rank.rank()).unwrap();
            rank.recv_from(prev).unwrap()
        });
        assert_eq!(results, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn per_sender_fifo_order() {
        let results: Vec<Vec<u32>> = World::run::<u32, _, _>(2, |rank| {
            if rank.rank() == 0 {
                for i in 0..100 {
                    rank.send(1, i).unwrap();
                }
                Vec::new()
            } else {
                (0..100).map(|_| rank.recv_from(0).unwrap()).collect()
            }
        });
        assert_eq!(results[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let results: Vec<String> = World::run::<String, _, _>(4, |rank| {
            let value = if rank.is_master() {
                Some("combustion-640x256x256".to_string())
            } else {
                None
            };
            rank.broadcast(0, value).unwrap()
        });
        assert!(results.iter().all(|v| v == "combustion-640x256x256"));
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results: Vec<Option<Vec<usize>>> =
            World::run::<usize, _, _>(4, |rank| rank.gather(0, rank.rank() * 10).unwrap());
        assert_eq!(results[0], Some(vec![0, 10, 20, 30]));
        assert!(results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn all_gather_and_all_reduce() {
        let results: Vec<(Vec<u64>, u64)> = World::run::<u64, _, _>(3, |rank| {
            let gathered = rank.all_gather(rank.rank() as u64 + 1).unwrap();
            let sum = rank.all_reduce(rank.rank() as u64 + 1, |a, b| a + b).unwrap();
            (gathered, sum)
        });
        for (gathered, sum) in results {
            assert_eq!(gathered, vec![1, 2, 3]);
            assert_eq!(sum, 6);
        }
    }

    #[test]
    fn barrier_synchronizes_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let results: Vec<usize> = World::run::<(), _, _>(6, |rank| {
            counter.fetch_add(1, Ordering::SeqCst);
            rank.barrier();
            // After the barrier every rank must observe all increments.
            counter.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&c| c == 6));
    }

    #[test]
    fn unknown_rank_is_an_error() {
        let results: Vec<bool> =
            World::run::<(), _, _>(2, |rank| matches!(rank.send(5, ()), Err(CommError::UnknownRank(5))));
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn recv_timeout_expires_cleanly() {
        let results: Vec<bool> = World::run::<u8, _, _>(2, |rank| {
            if rank.rank() == 1 {
                rank.recv_from_timeout(0, Duration::from_millis(10)).is_err()
            } else {
                true
            }
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn single_rank_world_works() {
        let results: Vec<u32> = World::run::<u32, _, _>(1, |rank| {
            assert!(rank.is_master());
            rank.all_reduce(7, |a, b| a + b).unwrap()
        });
        assert_eq!(results, vec![7]);
    }

    #[test]
    #[should_panic]
    fn zero_size_world_panics() {
        let _ = World::run::<(), _, _>(0, |_| ());
    }
}
