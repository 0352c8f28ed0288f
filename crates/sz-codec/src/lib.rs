//! # sz-codec — error-bounded lossy compression for scientific floats
//!
//! A from-scratch Rust implementation of the SZ compressor family the
//! AMRIC paper (SC '23) builds on.
//!
//! ## The families are functions
//!
//! Each compressor family is a module of plain functions — compress into
//! a self-describing stream, decompress it back — and nothing more:
//!
//! * [`lr`] — **SZ_L/R** (SZ2, Liang et al. 2018): blockwise selection
//!   between the 3-D Lorenzo predictor and per-block linear regression,
//!   linear-scale quantization, canonical Huffman, LZ lossless backend.
//!   Multi-domain calls ([`lr::compress_domains`] /
//!   [`lr::decompress_domains`]) give the paper's **Shared Lossless
//!   Encoding**; the `_into` variants append to a reused buffer.
//! * [`interp`] — **SZ_Interp** (SZ3 dynamic spline, Zhao et al. 2021):
//!   global multi-level cubic/linear interpolation prediction over one
//!   buffer.
//! * [`temporal`] — the cross-snapshot delta kernel (residuals against a
//!   decoded reference), which the AMRIC pipeline's delta mode carries.
//! * [`adaptive`] — the paper's adaptive SZ-block-size rule (Equation 1).
//! * [`metrics`] — PSNR (paper formula), MSE, max-error, rate helpers.
//!
//! Quantization symbols, and the [`lossless`] stage's byte tokens, are
//! coded with [`huffman`]'s canonical code: one word-wise encoder and one
//! decode loop, [`huffman::HuffmanCode::decode`], for blocks of every
//! length. The per-bit reader and writer they are held to exist only in
//! tests.
//!
//! All streams share one 8-byte **envelope** (magic, codec id, version,
//! flags — see [`codec`]); a decoder handed another family's stream fails
//! as [`CodecError::WrongCodec`]. The pluggable interface sits one layer
//! up, in `h5lite`'s chunk filter — the HDF5 filter AMRIC plugs into.
//!
//! Decoders are total over `&[u8]`: malformed input returns a structured
//! [`error::CodecError`] (`Truncated`, `BadMagic`, `BadMode`, …) — never
//! a panic, never an unbounded allocation.
//!
//! ```
//! use sz_codec::prelude::*;
//!
//! let mut data = Buffer3::zeros(Dims3::cube(16));
//! data.fill_with(|i, j, k| (i as f64 * 0.3).sin() + (j + k) as f64 * 0.01);
//! let eb = absolute_bound(1e-3, data.value_range());
//!
//! // Two domains under one shared encoding (SLE).
//! let stream = lr::compress_domains(&[&data, &data], &LrConfig::new(eb));
//! let restored = lr::decompress_domains(&stream).unwrap();
//! assert_eq!(restored.len(), 2);
//! let stats = ErrorStats::compare(data.data(), restored[1].data());
//! assert!(stats.max_abs_err <= eb);
//! ```

pub mod adaptive;
mod bitstream;
pub mod buffer3;
pub mod codec;
pub mod error;
pub mod huffman;
pub mod interp;
pub mod kernels;
pub mod lorenzo;
pub mod lossless;
pub mod lr;
pub mod metrics;
pub mod quantizer;
pub mod regression;
mod scratch;
pub mod temporal;
pub mod wire;

pub use buffer3::{AsView3, Buffer3, Dims3, StridedMut, UnitDest, View3};
pub use codec::CodecId;
pub use error::{CodecError, CodecResult};
pub use metrics::ErrorStats;

/// Which SZ algorithm to run — the paper evaluates AMRIC with both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SzAlgorithm {
    /// Blockwise Lorenzo + regression (SZ2).
    LorenzoRegression,
    /// Global spline interpolation (SZ3).
    Interpolation,
}

/// Commonly used items.
pub mod prelude {
    pub use crate::adaptive::adaptive_block_size;
    pub use crate::buffer3::{AsView3, Buffer3, Dims3, StridedMut, UnitDest, View3};
    pub use crate::codec::{self, CodecId};
    pub use crate::error::{CodecError, CodecResult};
    pub use crate::interp::{self, InterpConfig};
    pub use crate::lr::{self, LrConfig, LrScratch};
    pub use crate::metrics::{bit_rate, compression_ratio, ErrorStats, RatePoint};
    pub use crate::quantizer::absolute_bound;
    pub use crate::SzAlgorithm;
}
