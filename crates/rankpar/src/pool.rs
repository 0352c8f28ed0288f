//! Rank-local compression pool with in-order consumption.
//!
//! The AMRIC write path (paper §3.3) hides compression cost inside the
//! I/O phase: while one chunk's bytes are on their way to storage, the
//! next chunks are already being compressed. [`for_each_ordered`] is the
//! engine behind that overlap: helper threads take job indices from a
//! shared counter (an idle helper takes whatever job is next, so
//! imbalanced jobs never stall the pool), run each job with their own
//! scratch state and send the result over one channel; the calling
//! thread files results by index and consumes them in submission order
//! while the helpers keep compressing ahead.
//!
//! # Determinism
//!
//! The pool imposes no ordering on job *execution*, only on job
//! *consumption*. As long as each job is a pure function of its input and
//! a cleared scratch (true for every codec in this workspace — scratch
//! buffers are reset at entry), the consumed sequence is byte-identical
//! to running the jobs serially, for any worker count. The
//! `parallel_determinism` suite in the `amric` crate enforces exactly
//! that invariant over every codec family.
//!
//! # Error drain
//!
//! A failing job stops the helpers from taking new indices; a failing
//! consumer drops the channel's receiver, so the helpers' next send fails
//! and they stop too. Indices are taken in increasing order, so every
//! index below a failing one was started and arrives: the consumer meets
//! the first error in submission order with no gaps and returns it. No
//! thread ever waits on a queue, so a panic in a job or in `consume`
//! cannot strand a peer; it propagates at the `std::thread::scope` join.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Run `job` over every item with `workers` threads, consuming results in
/// submission order on the calling thread.
///
/// * `make_state` builds one scratch state per worker (compression
///   scratch pools, padding buffers, …) so jobs never share hot buffers.
/// * `job(state, index, item)` produces the item's frame; the first
///   `Err` (in submission order) is returned once the jobs already
///   started have finished.
/// * `consume(index, frame)` runs on the calling thread strictly in
///   index order, overlapped with the workers compressing later items —
///   this is where the write side of the AMRIC pipeline lives. A consume
///   error stops the pool the same way.
///
/// With `workers <= 1` (or at most one item) the jobs run inline on the
/// calling thread: one state, each frame consumed before the next job
/// starts — the serial reference path the determinism suite compares
/// against. Otherwise `min(workers, items.len())` helpers run the jobs
/// and every frame not yet consumed is held until its turn, so at most
/// `items.len()` frames are in flight.
pub fn for_each_ordered<I, S, T, E, MS, J, C>(
    items: &[I],
    workers: usize,
    make_state: MS,
    job: J,
    mut consume: C,
) -> Result<(), E>
where
    I: Sync,
    T: Send,
    E: Send,
    MS: Fn() -> S + Sync,
    J: Fn(&mut S, usize, &I) -> Result<T, E> + Sync,
    C: FnMut(usize, T) -> Result<(), E>,
{
    if workers <= 1 || items.len() <= 1 {
        let mut state = make_state();
        for (i, item) in items.iter().enumerate() {
            let frame = job(&mut state, i, item)?;
            consume(i, frame)?;
        }
        return Ok(());
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len()) {
            let tx = tx.clone();
            let (next, make_state, job) = (&next, &make_state, &job);
            scope.spawn(move || {
                let mut state = make_state();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let result = job(&mut state, i, &items[i]);
                    let failed = result.is_err();
                    if failed {
                        // Stop every helper from taking a later index.
                        next.store(items.len(), Ordering::Relaxed);
                    }
                    if tx.send((i, result)).is_err() || failed {
                        break;
                    }
                }
            });
        }
        drop(tx);

        // Results arrive in completion order; hold each until every
        // earlier one has been consumed. The loop ends once every helper
        // has stopped, and returning early drops `rx`, stopping them.
        let mut pending: Vec<Option<Result<T, E>>> = items.iter().map(|_| None).collect();
        let mut next_out = 0;
        for (i, result) in rx {
            pending[i] = Some(result);
            while let Some(result) = pending.get_mut(next_out).and_then(Option::take) {
                consume(next_out, result?)?;
                next_out += 1;
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ordered_results_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        for workers in [1, 2, 4, 7] {
            let mut seen = Vec::new();
            let states = AtomicUsize::new(0);
            let res: Result<(), ()> = for_each_ordered(
                &items,
                workers,
                || states.fetch_add(1, Ordering::Relaxed),
                |_s, i, v| Ok(v * 3 + i as u64),
                |i, v| {
                    seen.push((i, v));
                    Ok(())
                },
            );
            res.unwrap();
            let expect: Vec<(usize, u64)> = items
                .iter()
                .enumerate()
                .map(|(i, v)| (i, v * 3 + i as u64))
                .collect();
            assert_eq!(seen, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_items_is_a_no_op() {
        let res: Result<(), ()> =
            for_each_ordered(&[] as &[u8], 4, || (), |_, _, _| Ok(0), |_, _| Ok(()));
        res.unwrap();
    }

    #[test]
    fn first_job_error_in_order_wins_and_drains() {
        let items: Vec<usize> = (0..64).collect();
        for workers in [2, 4, 7] {
            let consumed = AtomicUsize::new(0);
            let res: Result<(), String> = for_each_ordered(
                &items,
                workers,
                || (),
                |_, i, _| {
                    if i == 20 || i == 33 {
                        Err(format!("job {i} failed"))
                    } else {
                        Ok(i)
                    }
                },
                |_, _| {
                    consumed.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
            );
            // The error surfaced is the first in submission order, and
            // every frame before it was consumed in order.
            assert_eq!(res.unwrap_err(), "job 20 failed", "workers={workers}");
            assert_eq!(consumed.load(Ordering::Relaxed), 20, "workers={workers}");
        }
    }

    #[test]
    fn consumer_error_aborts_cleanly() {
        let items: Vec<usize> = (0..100).collect();
        let res: Result<(), &'static str> = for_each_ordered(
            &items,
            4,
            || (),
            |_, i, _| Ok(i),
            |i, _| if i == 5 { Err("consumer stop") } else { Ok(()) },
        );
        assert_eq!(res.unwrap_err(), "consumer stop");
    }

    #[test]
    fn worker_panic_propagates_without_hanging() {
        // A panicking job must not leave the consumer waiting: the scope
        // join re-raises the panic — never a deadlock.
        let items: Vec<usize> = (0..40).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), ()> = for_each_ordered(
                &items,
                4,
                || (),
                |_, i, _| {
                    if i == 17 {
                        panic!("job panic");
                    }
                    Ok(i)
                },
                |_, _| Ok(()),
            );
        }));
        assert!(outcome.is_err(), "panic must propagate");
    }

    #[test]
    fn consumer_panic_propagates_without_hanging() {
        let items: Vec<usize> = (0..60).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), ()> = for_each_ordered(
                &items,
                4,
                || (),
                |_, i, _| Ok(i),
                |k, _| {
                    if k == 9 {
                        panic!("consumer panic");
                    }
                    Ok(())
                },
            );
        }));
        assert!(outcome.is_err(), "panic must propagate");
    }

    #[test]
    fn per_worker_state_is_private() {
        // Each worker's state counts its own jobs; totals must add up and
        // no state is shared (sum of per-state counts == job count).
        let items: Vec<usize> = (0..50).collect();
        let total = AtomicUsize::new(0);
        struct Counter<'a> {
            local: usize,
            total: &'a AtomicUsize,
        }
        impl Drop for Counter<'_> {
            fn drop(&mut self) {
                self.total.fetch_add(self.local, Ordering::Relaxed);
            }
        }
        let res: Result<(), ()> = for_each_ordered(
            &items,
            4,
            || Counter {
                local: 0,
                total: &total,
            },
            |s, i, _| {
                s.local += 1;
                Ok(i)
            },
            |_, _| Ok(()),
        );
        res.unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 50);
    }
}
