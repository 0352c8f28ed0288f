//! Thread-backed MPI-style communicator.
//!
//! The AMRIC paper runs on MPI ranks; here every "rank" is a thread and
//! [`Communicator`] provides the collective operations the I/O pipeline
//! needs (barrier, allgather, max-allreduce). Semantics follow MPI: every
//! rank of the world must call each collective in the same order.
//!
//! Every collective is one `Barrier::wait`. A rank deposits its value in
//! its slot of one of two slot banks, chosen by the parity of the handle's
//! collective count, waits at the barrier, and reads every slot of that
//! bank. The bank is written again two collectives later, and no rank gets
//! there before every rank has arrived at the barrier in between — that
//! is, has finished reading — so no rank ever clears a slot.

use parking_lot::Mutex;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// One type-erased exchange slot per rank.
type Bank = Vec<Mutex<Option<Box<dyn Any + Send>>>>;

/// The barrier and the two alternating slot banks shared by all ranks.
struct Shared {
    barrier: Barrier,
    banks: [Bank; 2],
}

/// Per-rank handle to the communicator world.
pub struct Communicator {
    rank: usize,
    nranks: usize,
    /// Collectives entered so far, the same on every rank. Only this
    /// rank's thread moves it (`Relaxed`); the barrier orders the slots.
    count: AtomicU64,
    shared: Arc<Shared>,
}

impl Communicator {
    /// Create the handles for an `nranks`-wide world. Hand one to each
    /// rank thread (usually via [`crate::runner::run_ranks`]).
    pub fn world(nranks: usize) -> Vec<Communicator> {
        assert!(nranks > 0);
        let bank = || (0..nranks).map(|_| Mutex::new(None)).collect();
        let shared = Arc::new(Shared {
            barrier: Barrier::new(nranks),
            banks: [bank(), bank()],
        });
        (0..nranks)
            .map(|rank| Communicator {
                rank,
                nranks,
                count: AtomicU64::new(0),
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

    /// Collectives (barriers, gathers, reductions) this rank has entered
    /// so far — the same number on every rank of a well-formed program.
    pub fn collectives(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Block until every rank arrives.
    pub fn barrier(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.shared.barrier.wait();
    }

    /// Deposit `value`, wait once for every rank, then fold every rank's
    /// value in rank order.
    fn exchange<T: Send + 'static, A>(&self, value: T, init: A, fold: impl Fn(A, &T) -> A) -> A {
        let bank = &self.shared.banks[(self.count.fetch_add(1, Ordering::Relaxed) % 2) as usize];
        *bank[self.rank].lock() = Some(Box::new(value));
        self.shared.barrier.wait();
        bank.iter().fold(init, |acc, slot| {
            let slot = slot.lock();
            let value = slot.as_ref().and_then(|v| v.downcast_ref::<T>());
            fold(acc, value.expect("uniform collective type"))
        })
    }

    /// Gather one value from every rank onto all ranks, ordered by rank.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        self.exchange(value, Vec::with_capacity(self.nranks), |mut all, v| {
            all.push(v.clone());
            all
        })
    }

    /// Max reduction across ranks.
    pub fn allreduce_max(&self, value: u64) -> u64 {
        self.exchange(value, 0, |max, &v| max.max(v))
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

    #[test]
    fn banks_survive_a_thousand_mixed_collectives_on_64_ranks() {
        // The bank-reuse race a one-barrier collective must not have: a
        // fast rank re-depositing into a bank a slow rank is still reading.
        // Every step's kind and payload type depends on the step, so a
        // stale or early value fails the check or the type downcast. Ranks
        // record bad steps instead of panicking; a failed downcast does
        // panic and strands the other ranks, which the watchdog turns into
        // a failure instead of a hang.
        const RANKS: usize = 64;
        const STEPS: u64 = 1000;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(run_ranks(RANKS, stress_rank)));
        let results = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a rank died and stranded its peers at the barrier");
        for (rank, (count, bad)) in results.into_iter().enumerate() {
            assert_eq!(count, STEPS, "rank {rank}");
            assert!(
                bad.is_empty(),
                "rank {rank}: wrong results at steps {bad:?}"
            );
        }

        /// One rank's share: `STEPS` mixed collectives, returning its
        /// collective count and the steps whose result was wrong.
        fn stress_rank(comm: crate::Communicator) -> (u64, Vec<u64>) {
            let r = comm.rank() as u64;
            let mut bad = Vec::new();
            for i in 0..STEPS {
                let ok = match (i * 7 + i / 3) % 4 {
                    0 => {
                        let all = comm.allgather(r * STEPS + i);
                        (0..).zip(&all).all(|(q, &v)| v == q * STEPS + i)
                    }
                    1 => {
                        let all = comm.allgather(vec![(r, i); (r % 3) as usize]);
                        (0..)
                            .zip(&all)
                            .all(|(q, v)| *v == vec![(q, i); (q % 3) as usize])
                    }
                    2 => {
                        let max = comm.allreduce_max(r * (i + 1) % 97);
                        max == (0..RANKS as u64).map(|q| q * (i + 1) % 97).max().unwrap()
                    }
                    _ => {
                        comm.barrier();
                        true
                    }
                };
                if !ok {
                    bad.push(i);
                }
            }
            (comm.collectives(), bad)
        }
    }
}
