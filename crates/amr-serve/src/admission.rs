//! Admission control and fair scheduling for the query service.
//!
//! The problem: one client panning a huge region of interest can decode
//! hundreds of megabytes per request, and a naive server would let that
//! scan monopolize the decoder while point-sample traffic — the
//! latency-sensitive workload visualization front-ends generate — waits
//! behind it. Three mechanisms keep the service fair, all driven by the
//! one [`amr_query::QueryPlan`] a request is planned into *before any
//! byte is read*:
//!
//! 1. **Classification** — plans whose cold-cache cost
//!    ([`amr_query::QueryPlan::cost`]) stays under
//!    [`AdmissionConfig::scan_threshold_bytes`] are **interactive** and
//!    run immediately; the rest are **scans**.
//! 2. **Per-connection in-flight bound** — a connection's requests are
//!    served sequentially, so its in-flight volume is exactly the
//!    current plan's: the chunks it decodes (its cost) and the dense
//!    per-level boxes it answers with
//!    ([`amr_query::QueryPlan::answer_bytes`] — a sparsely refined level
//!    decodes little and answers its whole box). Either one beyond
//!    [`AdmissionConfig::max_request_bytes`] is rejected with the typed
//!    `TooLarge` error instead of being allowed to balloon memory.
//! 3. **Fair scan gate** — the unit of decode work is the stored chunk
//!    (AMRIC makes it large by design: one per rank per field), so a
//!    scan warms its plan's chunks in batches
//!    ([`amr_query::QueryPlan::batches`]: consecutive chunks decoding to
//!    at most [`AdmissionConfig::scan_slab_bytes`], never less than one
//!    chunk), and every batch must hold one of
//!    [`AdmissionConfig::scan_slots`] gate permits acquired in strict
//!    FIFO order ([`FairGate`]). Releasing between batches sends a scan
//!    to the back of the queue, so N concurrent scans interleave
//!    round-robin. What the gate bounds: at most `scan_slots` chunk
//!    batches decode at once, so a point sample — which never queues on
//!    the gate — competes with at most `scan_slots` batches of decoding,
//!    each `max(scan_slab_bytes, one chunk)` long, never a whole scan.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Condvar;

/// Admission-control policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Reject a request whose cold-cache decode estimate, or whose
    /// answer, exceeds this (the per-connection in-flight byte bound;
    /// connections are served one request at a time).
    pub max_request_bytes: u64,
    /// Estimates at or above this are scan-class and go through the
    /// fair gate; below it they run immediately.
    pub scan_threshold_bytes: u64,
    /// Scan chunk batches allowed to decode at once.
    pub scan_slots: usize,
    /// Decoded bytes a scan may hold the gate for: its chunks are warmed
    /// in batches up to this size, never less than one chunk (the
    /// fairness granularity; below the file's chunk size it has no
    /// further effect).
    pub scan_slab_bytes: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_request_bytes: 256 << 20,
            scan_threshold_bytes: 4 << 20,
            scan_slots: 1,
            scan_slab_bytes: 2 << 20,
        }
    }
}

/// How a request is scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestClass {
    /// Small: runs immediately, never queued.
    Interactive,
    /// Large: warmed in chunk batches, each batch holding the fair gate.
    Scan,
}

impl AdmissionConfig {
    /// Classify a request by its cold-cache decode estimate.
    pub fn classify(&self, decode_bytes: u64) -> RequestClass {
        if decode_bytes >= self.scan_threshold_bytes {
            RequestClass::Scan
        } else {
            RequestClass::Interactive
        }
    }
}

struct GateState {
    available: usize,
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// A FIFO-fair counting semaphore: permits are granted in strict
/// arrival order, so a scan that releases its permit between batches goes
/// to the back of the line and concurrent scans round-robin.
pub struct FairGate {
    /// A panicking holder does not wedge the gate: its critical sections
    /// are counter updates and queue push/pop, sound at any point.
    state: Mutex<GateState>,
    cv: Condvar,
}

impl FairGate {
    /// Gate with `slots` permits (≥ 1).
    pub fn new(slots: usize) -> Self {
        FairGate {
            state: Mutex::new(GateState {
                available: slots.max(1),
                queue: VecDeque::new(),
                next_ticket: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Acquire one permit, waiting in FIFO order. The permit is released
    /// when the returned guard drops.
    pub fn acquire(&self) -> FairGateGuard<'_> {
        let mut st = self.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        while !(st.queue.front() == Some(&ticket) && st.available > 0) {
            // The guard is std's, so the wait adopts a poisoned state
            // the way `Mutex::lock` does.
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st.queue.pop_front();
        st.available -= 1;
        // Wake the next ticket holder if permits remain.
        if st.available > 0 {
            self.cv.notify_all();
        }
        FairGateGuard { gate: self }
    }

    /// Waiters currently queued (stats surface).
    pub fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }

    fn release(&self) {
        let mut st = self.state.lock();
        st.available += 1;
        self.cv.notify_all();
    }
}

/// RAII permit from [`FairGate::acquire`].
pub struct FairGateGuard<'a> {
    gate: &'a FairGate,
}

impl Drop for FairGateGuard<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn classification_threshold() {
        let cfg = AdmissionConfig {
            scan_threshold_bytes: 100,
            ..AdmissionConfig::default()
        };
        assert_eq!(cfg.classify(0), RequestClass::Interactive);
        assert_eq!(cfg.classify(99), RequestClass::Interactive);
        assert_eq!(cfg.classify(100), RequestClass::Scan);
        assert_eq!(cfg.classify(1 << 40), RequestClass::Scan);
    }

    #[test]
    fn gate_excludes_concurrent_holders() {
        let gate = Arc::new(FairGate::new(1));
        let inside = Arc::new(AtomicUsize::new(0));
        let max_inside = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let gate = Arc::clone(&gate);
            let inside = Arc::clone(&inside);
            let max_inside = Arc::clone(&max_inside);
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    let _g = gate.acquire();
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    max_inside.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    inside.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(max_inside.load(Ordering::SeqCst), 1, "one permit only");
    }

    #[test]
    fn gate_is_fifo_fair() {
        // Thread A holds the gate; B then C queue up. When A releases,
        // B must run before C (strict arrival order).
        let gate = Arc::new(FairGate::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let first = gate.acquire();
        let spawn_waiter = |name: &'static str| {
            let gate = Arc::clone(&gate);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let _g = gate.acquire();
                order.lock().push(name);
            })
        };
        let b = spawn_waiter("b");
        while gate.queued() < 1 {
            std::thread::yield_now();
        }
        let c = spawn_waiter("c");
        while gate.queued() < 2 {
            std::thread::yield_now();
        }
        drop(first);
        b.join().unwrap();
        c.join().unwrap();
        assert_eq!(*order.lock(), vec!["b", "c"]);
    }

    #[test]
    fn panicked_holder_poisons_nothing_and_frees_its_permit() {
        // A worker that panics while holding a permit unwinds through the
        // guard's Drop: the permit comes back and later acquires succeed.
        let gate = Arc::new(FairGate::new(1));
        let g2 = Arc::clone(&gate);
        let worker = std::thread::spawn(move || {
            let _g = g2.acquire();
            panic!("decode worker dies mid-batch");
        });
        assert!(worker.join().is_err());
        let _g = gate.acquire(); // must not deadlock
        assert_eq!(gate.queued(), 0);
    }

    #[test]
    fn poisoned_gate_lock_recovers() {
        // Panic while holding the *state mutex itself* — the worst case,
        // which poisons it. Every gate entry point must keep working.
        let gate = Arc::new(FairGate::new(2));
        let g2 = Arc::clone(&gate);
        let poisoner = std::thread::spawn(move || {
            let _st = g2.state.lock();
            panic!("worker dies holding the gate lock");
        });
        assert!(poisoner.join().is_err());
        assert_eq!(gate.queued(), 0);
        let a = gate.acquire();
        let b = gate.acquire();
        drop(a);
        drop(b);
        let _c = gate.acquire();
    }

    #[test]
    fn multi_slot_gate_admits_up_to_slots() {
        let gate = FairGate::new(3);
        let g1 = gate.acquire();
        let g2 = gate.acquire();
        let g3 = gate.acquire();
        // A fourth acquire would block; verify indirectly via queued()
        // after releasing one and re-acquiring.
        drop(g2);
        let g4 = gate.acquire();
        drop(g1);
        drop(g3);
        drop(g4);
        assert_eq!(gate.queued(), 0);
    }
}
