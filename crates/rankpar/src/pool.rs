//! Work-stealing parallel compression pool with ordered reassembly.
//!
//! The AMRIC write path (paper §3.3) hides compression cost inside the
//! I/O phase: while one chunk's bytes are on their way to storage, the
//! next chunks are already being compressed. This module provides the
//! rank-local engine that makes that overlap possible:
//!
//! * [`Reassembly`] — a bounded, ordered reassembly queue. Workers
//!   deposit finished frames under their submission index (in any
//!   completion order); the consumer takes frames strictly in submission
//!   order. The bounded window is the pipeline's backpressure: no more
//!   than `window` frames can be in flight past the consumer, so memory
//!   stays proportional to the window, not the job count.
//! * [`for_each_ordered`] — the pool driver: N workers pull job indices
//!   from a shared counter (idle workers steal whatever job is next, so
//!   imbalanced jobs never stall the pool), run the job with per-worker
//!   scratch state, and deposit results; the calling thread consumes the
//!   results in submission order while workers keep compressing ahead.
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
//! A failing job (or a failing consumer) never deadlocks the pool: the
//! first error (in submission order) aborts scheduling of new jobs,
//! poisons the queue so blocked depositors drop their frames, and is
//! returned to the caller once in-flight jobs have drained.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Ordered reassembly queue: out-of-order deposits, in-order takes, with
/// a bounded in-flight window for backpressure.
///
/// Indices must each be deposited at most once and the consumer takes
/// index 0, 1, 2, … in order. A deposit for index `i` blocks while
/// `i >= next_taken + window` (the backpressure bound); [`Reassembly::poison`]
/// releases all waiters and turns further deposits into no-ops so an
/// aborted pipeline drains instead of deadlocking.
pub struct Reassembly<T> {
    state: Mutex<ReassemblyState<T>>,
    /// Producers wait here for window space.
    space: Condvar,
    /// The consumer waits here for the next in-order slot.
    ready: Condvar,
}

struct ReassemblyState<T> {
    /// Next index the consumer will take.
    next_out: usize,
    /// Ring of in-flight slots; slot for index `i` is `i % window`.
    slots: Vec<Option<T>>,
    poisoned: bool,
}

impl<T> Reassembly<T> {
    /// Queue with an in-flight window of `window` frames (≥ 1).
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "reassembly window must be at least 1");
        Reassembly {
            state: Mutex::new(ReassemblyState {
                next_out: 0,
                slots: (0..window).map(|_| None).collect(),
                poisoned: false,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
        }
    }

    /// Deposit the result for submission index `index`, blocking while the
    /// index is beyond the in-flight window. Returns `false` if the queue
    /// was poisoned (the value is dropped).
    pub fn deposit(&self, index: usize, value: T) -> bool {
        let mut st = self.state.lock().expect("reassembly lock");
        loop {
            if st.poisoned {
                return false;
            }
            if index < st.next_out + st.slots.len() {
                break;
            }
            st = self.space.wait(st).expect("reassembly wait");
        }
        debug_assert!(index >= st.next_out, "index {index} deposited twice");
        let w = st.slots.len();
        let slot = &mut st.slots[index % w];
        debug_assert!(slot.is_none(), "slot for index {index} already filled");
        *slot = Some(value);
        self.ready.notify_all();
        true
    }

    /// Take the next in-order result, blocking until it is deposited.
    /// Returns `None` once the queue is poisoned and the next slot will
    /// never arrive.
    pub fn take_next(&self) -> Option<T> {
        let mut st = self.state.lock().expect("reassembly lock");
        loop {
            let w = st.slots.len();
            let idx = st.next_out;
            if let Some(v) = st.slots[idx % w].take() {
                st.next_out += 1;
                self.space.notify_all();
                return Some(v);
            }
            if st.poisoned {
                return None;
            }
            st = self.ready.wait(st).expect("reassembly wait");
        }
    }

    /// Abort: drop all queued values, release every waiter, and make
    /// further deposits no-ops.
    pub fn poison(&self) {
        let mut st = self.state.lock().expect("reassembly lock");
        st.poisoned = true;
        for s in st.slots.iter_mut() {
            *s = None;
        }
        self.space.notify_all();
        self.ready.notify_all();
    }
}

/// Run `job` over every item with `workers` threads, consuming results in
/// submission order on the calling thread.
///
/// * `make_state` builds one scratch state per worker (compression
///   scratch pools, padding buffers, …) so jobs never share hot buffers.
/// * `job(state, index, item)` produces the item's frame; the first
///   `Err` (in submission order) aborts the pool and is returned after
///   the in-flight jobs drain.
/// * `consume(index, frame)` runs on the calling thread strictly in
///   index order, overlapped with the workers compressing later items —
///   this is where the write side of the AMRIC pipeline lives. A consume
///   error also aborts the pool.
/// * `window` bounds the frames in flight past the consumer
///   (backpressure); it is clamped to at least 1.
///
/// With `workers <= 1` the jobs run inline on the calling thread with
/// identical semantics (one state, same call order) — the serial
/// reference path the determinism suite compares against.
pub fn for_each_ordered<I, S, T, E, MS, J, C>(
    items: &[I],
    workers: usize,
    window: usize,
    make_state: MS,
    job: J,
    consume: C,
) -> Result<(), E>
where
    I: Sync,
    T: Send,
    E: Send,
    MS: Fn() -> S + Sync,
    J: Fn(&mut S, usize, &I) -> Result<T, E> + Sync,
    C: FnMut(usize, T) -> Result<(), E>,
{
    for_each_ordered_hooked(items, workers, window, make_state, job, consume, &|_| {})
}

/// [`for_each_ordered`] with a completion hook called after each job
/// finishes, before its frame is deposited. Test instrumentation: the
/// property suite uses the hook to impose adversarial completion
/// schedules without timing dependence. The hook runs on worker threads.
#[allow(clippy::too_many_arguments)]
pub fn for_each_ordered_hooked<I, S, T, E, MS, J, C>(
    items: &[I],
    workers: usize,
    window: usize,
    make_state: MS,
    job: J,
    mut consume: C,
    completion_hook: &(dyn Fn(usize) + Sync),
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
        // Serial reference path: same state reuse, same call order.
        let mut state = make_state();
        for (i, item) in items.iter().enumerate() {
            let frame = job(&mut state, i, item)?;
            completion_hook(i);
            consume(i, frame)?;
        }
        return Ok(());
    }

    let queue = Reassembly::new(window.max(1));
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);

    /// Unwind safety: a panic in a job, hook, or the consumer must not
    /// leave peers blocked on the queue (the scope would then never
    /// reach its join point and the panic would never propagate). The
    /// guard poisons the queue and raises the abort flag unless it is
    /// disarmed by normal completion; the panic then propagates through
    /// `std::thread::scope`'s join as usual.
    struct PoisonOnUnwind<'a, T> {
        queue: &'a Reassembly<T>,
        abort: &'a AtomicBool,
        armed: bool,
    }
    impl<T> Drop for PoisonOnUnwind<'_, T> {
        fn drop(&mut self) {
            if self.armed {
                self.abort.store(true, Ordering::Release);
                self.queue.poison();
            }
        }
    }

    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len()) {
            scope.spawn(|| {
                let mut state = make_state();
                loop {
                    if abort.load(Ordering::Acquire) {
                        break;
                    }
                    // Shared-counter steal: whoever is idle takes the next
                    // submitted job, so imbalanced jobs self-balance.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let mut guard = PoisonOnUnwind {
                        queue: &queue,
                        abort: &abort,
                        armed: true,
                    };
                    let frame = job(&mut state, i, &items[i]);
                    let failed = frame.is_err();
                    completion_hook(i);
                    queue.deposit(i, frame);
                    guard.armed = false;
                    if failed {
                        // Stop scheduling new jobs; every index below `i`
                        // was already fetched and will be deposited, so
                        // the consumer reaches this error without gaps.
                        abort.store(true, Ordering::Release);
                        break;
                    }
                }
            });
        }

        // Consumer runs on the calling thread, overlapped with workers.
        let mut guard = PoisonOnUnwind {
            queue: &queue,
            abort: &abort,
            armed: true,
        };
        let mut outcome = Ok(());
        for k in 0..items.len() {
            match queue.take_next() {
                Some(Ok(frame)) => {
                    if let Err(e) = consume(k, frame) {
                        outcome = Err(e);
                        abort.store(true, Ordering::Release);
                        queue.poison();
                        break;
                    }
                }
                Some(Err(e)) => {
                    outcome = Err(e);
                    abort.store(true, Ordering::Release);
                    queue.poison();
                    break;
                }
                // A poisoned queue (a peer panicked mid-job) yields None;
                // stop consuming — the scope join re-raises the panic.
                None => break,
            }
        }
        guard.armed = false;
        outcome
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
                2,
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
            for_each_ordered(&[] as &[u8], 4, 2, || (), |_, _, _| Ok(0), |_, _| Ok(()));
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
                3,
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
            2,
            || (),
            |_, i, _| Ok(i),
            |i, _| if i == 5 { Err("consumer stop") } else { Ok(()) },
        );
        assert_eq!(res.unwrap_err(), "consumer stop");
    }

    #[test]
    fn backpressure_window_bounds_in_flight() {
        // With window w, no deposit may run further than w ahead of the
        // consumer; track the worst observed lead.
        let items: Vec<usize> = (0..200).collect();
        let window = 3;
        let taken = AtomicUsize::new(0);
        let max_lead = AtomicUsize::new(0);
        let res: Result<(), ()> = for_each_ordered_hooked(
            &items,
            4,
            window,
            || (),
            |_, i, _| Ok(i),
            |_, _| {
                taken.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
            &|i| {
                let lead = i.saturating_sub(taken.load(Ordering::SeqCst));
                max_lead.fetch_max(lead, Ordering::SeqCst);
            },
        );
        res.unwrap();
        // A frame may complete at most `window + workers - 1` past the
        // consumer (window in queue + one in each worker's hands).
        assert!(
            max_lead.load(Ordering::SeqCst) <= window + 4,
            "lead {} exceeds backpressure bound",
            max_lead.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn reassembly_poison_releases_waiters() {
        let q = std::sync::Arc::new(Reassembly::new(1));
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || {
            assert!(q2.deposit(0, 0u8));
            // Window of 1 and exactly one take below: `next_out` never
            // passes 1, so index 2 stays outside `next_out + window` for
            // good — only the poison can release this deposit. (Index 1
            // would be admitted as soon as the take frees the window.)
            assert!(!q2.deposit(2, 1u8));
        });
        assert_eq!(q.take_next(), Some(0));
        q.poison();
        h.join().unwrap();
        assert_eq!(q.take_next(), None);
    }

    #[test]
    fn worker_panic_propagates_without_hanging() {
        // A panicking job must poison the queue so the consumer unblocks
        // and the scope join re-raises the panic — never a deadlock.
        let items: Vec<usize> = (0..40).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), ()> = for_each_ordered(
                &items,
                4,
                2,
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
                2,
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
