//! # amric — in-situ lossy compression for AMR applications
//!
//! Rust reproduction of **AMRIC** (Wang et al., SC '23): an in-situ
//! error-bounded lossy compression framework for patch-based AMR codes.
//! See README.md at the repository root for the full system inventory and
//! the experiment index.
//!
//! ## The plug point: the HDF5 filter
//!
//! AMRIC plugs its compressor into the I/O library as an HDF5 filter, and
//! so does this crate: [`writer::AmricFieldFilter`] implements `h5lite`'s
//! `ChunkFilter` under one filter id, and every field dataset of every
//! snapshot — temporal ones included — goes through it. Beneath the filter
//! each family is a pair of functions over unit blocks — the pipeline's
//! [`pipeline::compress_field_units`] / [`pipeline::decompress_field_units`]
//! (with `_into` variants that append to a reused buffer and, for the
//! pipeline's temporal delta mode, take the reference snapshot), the TAC
//! comparator's [`tac::tac_compress`] / [`tac::tac_decompress`] — and every
//! stream opens with `sz_codec`'s shared envelope:
//!
//! ```
//! use amric::prelude::*;
//! use sz_codec::prelude::*;
//!
//! let units = vec![Buffer3::zeros(Dims3::cube(8)); 4];
//! let stream = compress_field_units(&units, &AmricConfig::lr(1e-3), 8);
//! assert_eq!(decompress_field_units(&stream).unwrap().len(), 4);
//! ```
//!
//! Malformed streams fail through the typed `CodecError` hierarchy
//! (never a panic), and configurations are built with `with_*` chains on
//! the [`config::AmricConfig::lr`] / [`config::AmricConfig::interp`]
//! presets.
//!
//! ## The pipeline (paper §3)
//!
//! 1. [`preprocess`] — remove redundant coarse data via box intersections,
//!    truncate the remainder into unit blocks;
//! 2. [`reorganize`] — one unit layout, [`reorganize::Placement`]: units
//!    stacked along z (SZ_L/R), packed into a near-cube (SZ_Interp) or
//!    clustered where they lie (placed SZ_Interp);
//! 3. [`pipeline`] — the optimized SZ compression (Shared Lossless
//!    Encoding + adaptive block size) producing self-describing streams;
//! 4. [`writer`]/[`reader`] — the in-situ HDF5-filter path with AMRIC's
//!    field-major layout and size-aware global chunking; the reader holds
//!    the metadata, the unit plans, the one chunk loader and the restart
//!    loop, which `amr_query`'s `QueryEngine::restart` drives;
//! 5. [`baseline`] — AMReX's stock 1-D small-chunk compression for
//!    comparison, plus the [`tac`] offline comparator;
//! 6. [`temporal`] — a write session whose chunks may delta-code against
//!    the previous snapshot (the pipeline's delta mode): a series of
//!    ordinary plotfiles that a query engine restarts and queries given
//!    the referenced snapshot's engine.

pub mod baseline;
pub mod config;
pub mod pipeline;
pub mod preprocess;
pub mod reader;
pub mod reorganize;
pub mod tac;
pub mod temporal;
pub mod writer;

pub use config::{AmricConfig, BaselineConfig, BoundPolicy, MergePolicy};
pub use pipeline::{stream_unit_bounds, ResolvedBound};

/// Commonly used items.
pub mod prelude {
    pub use crate::baseline::{write_amrex_baseline, write_nocomp};
    pub use crate::config::{AmricConfig, BaselineConfig, BoundPolicy, MergePolicy};
    pub use crate::pipeline::{
        compress_delta_into, compress_field_units, compress_field_units_resolved_into,
        compress_field_units_with_bound_into, compress_placed_into, decompress_field_units,
        decompress_field_units_into, no_reference, resolve_abs_eb, stream_layout,
        stream_unit_bounds, AmricScratch, Reference, ResolvedBound, StreamLayout, UnitOrigins,
    };
    pub use crate::preprocess::{
        extract_units, plan_units, plan_units_layout, scatter_units, unit_activity,
        unit_edge_for_level, UnitRef,
    };
    pub use crate::reader::{
        read_plotfile_meta, verify_against, LevelLayout, Plotfile, PlotfileMeta,
    };
    pub use crate::temporal::{read_temporal_meta, TemporalMeta, TemporalSession};
    pub use crate::writer::{write_amric, write_amric_to, WriteReport};
}
