//! # rankpar — thread-rank parallel runtime + storage cost models
//!
//! The MPI / parallel-filesystem substrate of the AMRIC reproduction:
//! * [`comm`] — an MPI-flavoured [`comm::Communicator`] (barrier,
//!   allgather, max-reduction) where ranks are threads, one barrier each;
//! * [`runner`] — `mpirun` equivalent: spawn N rank threads, collect
//!   results in rank order;
//! * [`pool`] — rank-local compression pool whose results the calling
//!   thread consumes in submission order, the engine behind the
//!   overlapped (compress-while-writing) write path;
//! * [`pfs`] — parametric parallel-filesystem cost model reproducing the
//!   storage-side effects the paper analyses (compressor launch cost,
//!   shared aggregate bandwidth, collective-create overhead).
//!
//! ```
//! use rankpar::prelude::*;
//!
//! let maxes = run_ranks(4, |comm| comm.allreduce_max(comm.rank() as u64));
//! assert_eq!(maxes, vec![3, 3, 3, 3]);
//! ```

pub mod comm;
pub mod pfs;
pub mod pool;
pub mod runner;

pub use comm::Communicator;
pub use pfs::{IoLedger, PfsParams};
pub use pool::for_each_ordered;
pub use runner::run_ranks;

/// Commonly used items.
pub mod prelude {
    pub use crate::comm::Communicator;
    pub use crate::pfs::{job_seconds, IoLedger, PfsParams};
    pub use crate::pool::for_each_ordered;
    pub use crate::runner::run_ranks;
}
