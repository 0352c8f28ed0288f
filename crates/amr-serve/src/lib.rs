//! Multi-tenant query service over AMRIC plotfiles.
//!
//! `amr-serve` turns the [`amr_query`] engine into a long-running
//! service: many clients, many open plotfiles, one process-wide decode
//! cache budget, and scheduling that keeps latency-sensitive point
//! queries responsive while bulk scans proceed.
//!
//! The pieces:
//!
//! * [`catalog`] — the open-engine pool keyed by `(path, generation)`,
//!   with stat-based invalidation of rewritten snapshots and LRU
//!   eviction of idle engines; all engines share one
//!   [`amr_query::ChunkStore`] byte budget.
//! * [`admission`] — plan-before-I/O classification of requests into
//!   interactive vs scan, the per-connection decode-byte bound, and the
//!   FIFO [`admission::FairGate`] that round-robins scans' chunk batches.
//! * [`protocol`] — the length-prefixed binary wire format (open /
//!   query / stats / close over TCP or Unix sockets) with typed errors
//!   and hard frame caps; decoding never trusts a length it has not
//!   bounds-checked. An answer crosses the wire as the cells that are
//!   stored — one patch per stored unit overlap — and the client pastes
//!   them into the dense box.
//! * [`server`] — the accept loops and per-connection request loop;
//!   replies are payloads written straight from the cache
//!   ([`amr_query::QueryEngine::pieces`]), never a dense box. Its
//!   `Stats` answer, a [`StatsReport`], is composed of the snapshots
//!   that already count: the server's nine request counters, the shared
//!   store's [`amr_query::CacheStats`], the catalog's [`CatalogStats`]
//!   and, per open file, a [`FileStats`] row holding the file's
//!   [`amr_query::EngineStats`].
//! * [`client`] — a small blocking client used by the tests, the load
//!   generator, and anything else that wants typed calls instead of raw
//!   frames.
//!
//! Start-to-finish, in process:
//!
//! ```no_run
//! use amr_serve::prelude::*;
//!
//! let mut server = Server::new(ServeConfig::default());
//! let addr = server.listen_tcp("127.0.0.1:0").unwrap();
//! let mut client = Client::connect_tcp(addr).unwrap();
//! let info = client.open("/data/plt00100.amrc").unwrap();
//! let sample = client.point(info.handle, 0, [10, 20, 30]).unwrap();
//! println!("{sample:?}");
//! client.shutdown_server().unwrap();
//! server.shutdown_and_join();
//! ```

pub mod admission;
pub mod catalog;
pub mod client;
pub mod protocol;
pub mod server;

pub use admission::{AdmissionConfig, FairGate, RequestClass};
pub use catalog::{Catalog, CatalogEntry, CatalogStats, Generation};
pub use client::{Client, RoiView};
pub use protocol::{
    ErrorCode, FileStats, OpenInfo, Request, Response, ServeError, ServeResult, StatsReport,
    WireRegion, WireSelect,
};
pub use server::{ServeConfig, ServeState, Server};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::admission::{AdmissionConfig, FairGate, RequestClass};
    pub use crate::catalog::{Catalog, CatalogEntry, CatalogStats, Generation};
    pub use crate::client::{Client, RoiView};
    pub use crate::protocol::{
        ErrorCode, OpenInfo, ServeError, ServeResult, StatsReport, WireRegion, WireSelect,
    };
    pub use crate::server::{ServeConfig, ServeState, Server};
}
