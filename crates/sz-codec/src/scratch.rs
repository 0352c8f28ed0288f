//! The one encode scratch a thread owns: the SZ_L/R working set, the
//! SZ_Interp working set and the lossless stage's match-finder tables. The `&self` faces of the encoders
//! (chunk filters, the free `compress*` functions) cannot thread a scratch
//! through; rank threads and pool workers are all
//! threads, so every concurrent encoder finds its own here. The halves
//! are borrowed apart: an SZ_L/R call holds its half while its last step,
//! the lossless stage, takes the tables.

use crate::interp::InterpScratch;
use crate::lossless::MatchFinder;
use crate::lr::LrScratch;
use std::cell::RefCell;

thread_local! {
    static ENCODE: (RefCell<LrScratch>, RefCell<MatchFinder>, RefCell<InterpScratch>) =
        Default::default();
}

/// Run `f` on this thread's SZ_L/R scratch. Not re-entrant.
pub fn with_lr_scratch<R>(f: impl FnOnce(&mut LrScratch) -> R) -> R {
    ENCODE.with(|s| f(&mut s.0.borrow_mut()))
}

/// Run `f` on this thread's match finder. Not re-entrant.
pub(crate) fn with_match_finder<R>(f: impl FnOnce(&mut MatchFinder) -> R) -> R {
    ENCODE.with(|s| f(&mut s.1.borrow_mut()))
}

/// Run `f` on this thread's SZ_Interp scratch. Not re-entrant.
pub(crate) fn with_interp_scratch<R>(f: impl FnOnce(&mut InterpScratch) -> R) -> R {
    ENCODE.with(|s| f(&mut s.2.borrow_mut()))
}
