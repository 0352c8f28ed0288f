//! # amr-query — random-access reads over AMRIC plotfiles
//!
//! AMRIC's promise (Wang et al., SC '23) is that compressed AMR output
//! stays *post-processing friendly*: analysis and visualization read it
//! back without a custom decompression step. The dominant consumer
//! workload is not "load the whole snapshot" but region-of-interest and
//! level-selective reads — pan a subvolume, sample a probe point, pull
//! one slice plane. This crate serves exactly those queries while
//! touching only the chunks that intersect the query:
//!
//! * **Indexed partial reads** — every AMRIC plotfile persists a
//!   per-dataset chunk index (codec id + extent bounding box per chunk),
//!   checked against the box metadata at open; the planner prunes chunks
//!   by rectangle intersection before any byte is read.
//! * **ROI / level / point / plane queries** —
//!   [`QueryEngine::roi`] (a [`Box3`] in coarse coordinates refined to
//!   every selected level), [`QueryEngine::level_region`],
//!   [`QueryEngine::point_sample`] (finest covering level wins, the
//!   fine-over-coarse rule of the writer's pre-process), and
//!   [`QueryEngine::plane_slice`].
//! * **Decompressed-chunk cache** — a sharded, byte-bounded LRU
//!   ([`cache::ChunkCache`]) between planner and codecs; repeated and
//!   overlapping queries from one process decode each chunk once.
//! * **Parallel prefetch** — cache misses fan out over the `rankpar`
//!   worker pool with ordered reassembly and per-worker scratch, the same
//!   engine the overlapped write path uses.
//!
//! * **Restart** — [`QueryEngine::restart`] ([`read_amric_hierarchy`] for
//!   a path) decodes every stored chunk into a full
//!   [`amric::reader::Plotfile`] through the same per-chunk step as a
//!   query; a delta snapshot restarts through an engine given its
//!   reference ([`QueryEngine::with_reference`]).
//!
//! Query results are **bitwise-identical** to slicing the corresponding
//! region out of that full decode — cold or warm cache, any worker count
//! (enforced by `tests/equivalence.rs`).
//!
//! ```no_run
//! use amr_query::prelude::*;
//!
//! let engine = QueryEngine::open("plt0001.h5l").unwrap().with_workers(4);
//! let view = engine
//!     .roi(0, Box3::from_extents(8, 8, 8), LevelSelect::All)
//!     .unwrap();
//! for lr in &view.levels {
//!     println!("level {}: {:?}", lr.level, lr.region);
//! }
//! println!("cache: {:?}", engine.cache_stats());
//! ```

pub mod cache;
pub mod engine;
pub mod error;

pub use cache::{CacheStats, ChunkCache, ChunkStore, ChunkUnits, GlobalChunkKey};
pub use engine::{
    read_amric_hierarchy, Box3, EngineStats, LevelRegion, LevelSelect, Piece, PointSample,
    QueryCost, QueryEngine, QueryPlan, RegionView,
};
pub use error::{QueryError, QueryResult};

/// Commonly used items.
pub mod prelude {
    pub use crate::cache::{CacheStats, ChunkCache, ChunkStore, ChunkUnits, GlobalChunkKey};
    pub use crate::engine::{
        read_amric_hierarchy, Box3, EngineStats, LevelRegion, LevelSelect, Piece, PointSample,
        QueryCost, QueryEngine, QueryPlan, RegionView,
    };
    pub use crate::error::{QueryError, QueryResult};
}
