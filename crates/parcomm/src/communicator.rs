//! A world of ranks over OS threads.
//!
//! The Visapult back end uses MPI for one thing: each processing element
//! knows its rank and meets the others at a barrier between frames.
//! [`World::run`] spawns one thread per rank inside a `std::thread::scope`
//! and hands each a [`Rank`] handle with exactly those two operations.

use std::sync::{Arc, Barrier};

/// The per-rank handle passed to each worker closure.
pub struct Rank {
    rank: usize,
    barrier: Arc<Barrier>,
}

impl Rank {
    /// This rank's index in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Block until every rank has reached this barrier.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// The world: runs one closure per rank.
pub struct World;

impl World {
    /// Run `f` on `size` ranks, each on its own OS thread, and return the
    /// per-rank results in rank order (none for a world of size zero).
    ///
    /// A rank that unwinds past a barrier strands its peers there: they wait
    /// for it for good, and this call never returns.  A rank body that can
    /// fail must catch its own panic and leave with the others at the same
    /// barrier, as the back end's `run_backend` does.  A panic raised after a
    /// rank's last barrier is re-raised here once every rank has been joined.
    //
    // Ledger compile surface: `M` is unused.  It stays only because the frozen
    // benchmark (`crates/visapult-bench/src/bin/ledger/`, which a PR may not
    // edit) spells `World::run::<(), _, _>`; it goes in the next `benchmark`
    // PR.
    pub fn run<M, R, F>(size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Rank) -> R + Sync,
    {
        let barrier = Arc::new(Barrier::new(size));
        let f = &f;
        std::thread::scope(|scope| {
            let joins: Vec<_> = (0..size)
                .map(|rank| {
                    let handle = Rank {
                        rank,
                        barrier: Arc::clone(&barrier),
                    };
                    scope.spawn(move || f(handle))
                })
                .collect();
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
        let results: Vec<usize> = World::run::<(), _, _>(4, |rank| rank.rank());
        assert_eq!(results, vec![0, 1, 2, 3]);
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
    fn single_rank_world_works() {
        let results: Vec<usize> = World::run::<(), _, _>(1, |rank| {
            rank.barrier();
            rank.barrier();
            rank.rank() + 7
        });
        assert_eq!(results, vec![7]);
    }

    #[test]
    fn zero_size_world_runs_nothing() {
        let results: Vec<()> = World::run::<(), _, _>(0, |_| unreachable!("a world of size zero has no rank"));
        assert!(results.is_empty());
    }
}
