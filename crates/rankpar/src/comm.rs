//! Thread-backed MPI-style communicator.
//!
//! The AMRIC paper runs on MPI ranks; here every "rank" is a thread and
//! [`Communicator`] provides the collective operations the I/O pipeline
//! needs (barrier, allgather, max-allreduce). Semantics follow MPI: every
//! rank of the world must call each collective in the same order.

use parking_lot::Mutex;
use std::sync::{Arc, Barrier};

/// Type-erased exchange slots shared by all ranks.
struct Shared {
    barrier: Barrier,
    slots: Mutex<Vec<Option<Box<dyn std::any::Any + Send>>>>,
}

/// Per-rank handle to the communicator world.
pub struct Communicator {
    rank: usize,
    nranks: usize,
    shared: Arc<Shared>,
}

impl Communicator {
    /// Create the handles for an `nranks`-wide world. Hand one to each
    /// rank thread (usually via [`crate::runner::run_ranks`]).
    pub fn world(nranks: usize) -> Vec<Communicator> {
        assert!(nranks > 0);
        let shared = Arc::new(Shared {
            barrier: Barrier::new(nranks),
            slots: Mutex::new((0..nranks).map(|_| None).collect()),
        });
        (0..nranks)
            .map(|rank| Communicator {
                rank,
                nranks,
                shared: Arc::clone(&shared),
            })
            .collect()
    }

    /// This rank's id (0-based).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Block until every rank arrives.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    /// Gather one value from every rank onto all ranks, ordered by rank.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        // Deposit.
        {
            let mut slots = self.shared.slots.lock();
            slots[self.rank] = Some(Box::new(value));
        }
        self.barrier();
        // Collect (clone out, leave deposits intact until everyone read).
        let out: Vec<T> = {
            let slots = self.shared.slots.lock();
            slots
                .iter()
                .map(|s| {
                    s.as_ref()
                        .expect("slot filled by barrier")
                        .downcast_ref::<T>()
                        .expect("uniform collective type")
                        .clone()
                })
                .collect()
        };
        self.barrier();
        // One rank clears for the next collective.
        if self.rank == 0 {
            let mut slots = self.shared.slots.lock();
            for s in slots.iter_mut() {
                *s = None;
            }
        }
        self.barrier();
        out
    }

    /// Max reduction across ranks.
    pub fn allreduce_max(&self, value: u64) -> u64 {
        self.allgather(value).into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::run_ranks;

    #[test]
    fn allgather_orders_by_rank() {
        let results = run_ranks(4, |comm| comm.allgather(comm.rank() * 10));
        for r in results {
            assert_eq!(r, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn reductions() {
        let results = run_ranks(4, |comm| comm.allreduce_max(comm.rank() as u64));
        assert_eq!(results, vec![3; 4]);
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let results = run_ranks(4, |comm| {
            let a = comm.allgather(comm.rank());
            let b = comm.allgather(comm.rank() * 2);
            (a, b)
        });
        for (a, b) in results {
            assert_eq!(a, vec![0, 1, 2, 3]);
            assert_eq!(b, vec![0, 2, 4, 6]);
        }
    }

    #[test]
    fn heterogeneous_payload_types() {
        let results = run_ranks(2, |comm| {
            let strings = comm.allgather(format!("r{}", comm.rank()));
            let vecs = comm.allgather(vec![comm.rank(); 2]);
            (strings, vecs)
        });
        for (s, v) in results {
            assert_eq!(s, vec!["r0".to_string(), "r1".to_string()]);
            assert_eq!(v, vec![vec![0, 0], vec![1, 1]]);
        }
    }
}
