//! # sz-codec — error-bounded lossy compression for scientific floats
//!
//! A from-scratch Rust implementation of the SZ compressor family the
//! AMRIC paper (SC '23) builds on, organized around one public
//! abstraction: the [`codec::Codec`] trait.
//!
//! ## The `Codec` API
//!
//! Every compressor family implements [`codec::Codec`]:
//!
//! * `compress_into(&self, units, &mut out)` — compress a set of unit
//!   blocks, **appending** a self-describing stream to the caller's
//!   buffer (reuse the buffer across calls for the zero-alloc hot path);
//! * `decompress(&self, bytes)` — restore the unit blocks from any
//!   stream the codec produced.
//!
//! All streams share one 8-byte **envelope** (magic, codec id, version,
//! flags — see [`codec`]); a [`codec::CodecRegistry`] dispatches any
//! envelope stream to the right family's decoder. This crate implements
//! three families — [`lr::LrCodec`], [`interp::InterpCodec`], and the
//! cross-snapshot [`temporal::TemporalCodec`] — and the `amric` crate
//! layers the pipeline and the offline comparators (TAC, zMesh, AMReX
//! baseline) on the same trait.
//!
//! Decoders are total over `&[u8]`: malformed input returns a structured
//! [`error::CodecError`] (`Truncated`, `BadMagic`, `BadMode`, …) — never
//! a panic, never an unbounded allocation.
//!
//! ## The families
//!
//! * [`lr`] — **SZ_L/R** (SZ2, Liang et al. 2018): blockwise selection
//!   between the 3-D Lorenzo predictor and per-block linear regression,
//!   linear-scale quantization, canonical Huffman, LZ lossless backend.
//!   Multi-domain calls give the paper's **Shared Lossless Encoding**.
//! * [`interp`] — **SZ_Interp** (SZ3 dynamic spline, Zhao et al. 2021):
//!   global multi-level cubic/linear interpolation prediction.
//! * [`adaptive`] — the paper's adaptive SZ-block-size rule (Equation 1).
//! * [`metrics`] — PSNR (paper formula), MSE, max-error, rate helpers.
//!
//! ```
//! use sz_codec::prelude::*;
//!
//! let mut data = Buffer3::zeros(Dims3::cube(16));
//! data.fill_with(|i, j, k| (i as f64 * 0.3).sin() + (j + k) as f64 * 0.01);
//! let eb = absolute_bound(1e-3, data.value_range());
//!
//! // Trait-level: any family behind the same two calls.
//! let codec = LrCodec::new(LrConfig::new(eb));
//! let mut stream = Vec::new();
//! let info = codec.compress_into(std::slice::from_ref(&data), &mut stream).unwrap();
//! assert_eq!(info.cells, 16 * 16 * 16);
//!
//! // Registry-level: decode without knowing who wrote the stream.
//! let restored = CodecRegistry::sz_only().decompress_auto(&stream).unwrap();
//! let stats = ErrorStats::compare(data.data(), restored[0].data());
//! assert!(stats.max_abs_err <= eb);
//! ```

pub mod adaptive;
pub mod bitstream;
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
pub use codec::{Codec, CodecId, CodecRegistry, StreamInfo};
pub use error::{CodecError, CodecResult};
pub use metrics::ErrorStats;

/// User-facing error-bound specification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|orig − recon| ≤ value`.
    Abs(f64),
    /// Value-range-relative bound: `|orig − recon| ≤ value · (max − min)`,
    /// the mode used throughout the paper's evaluation.
    Rel(f64),
}

impl ErrorBound {
    /// Resolve to an absolute bound for data with the given value range.
    /// Constant data (range 0) falls back to the raw relative value — see
    /// [`quantizer::absolute_bound`].
    pub fn to_absolute(self, value_range: f64) -> f64 {
        match self {
            ErrorBound::Abs(v) => v,
            ErrorBound::Rel(v) => quantizer::absolute_bound(v, value_range),
        }
    }
}

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
    pub use crate::codec::{Codec, CodecId, CodecRegistry, StreamInfo};
    pub use crate::error::{CodecError, CodecResult};
    pub use crate::interp::{self, InterpCodec, InterpConfig};
    pub use crate::lr::{self, LrCodec, LrConfig, LrScratch};
    pub use crate::metrics::{bit_rate, compression_ratio, ErrorStats, RatePoint};
    pub use crate::quantizer::absolute_bound;
    pub use crate::temporal::{self, TemporalCodec, TemporalConfig, TemporalReference};
    pub use crate::{ErrorBound, SzAlgorithm};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bound_resolution() {
        assert_eq!(ErrorBound::Abs(0.5).to_absolute(100.0), 0.5);
        assert_eq!(ErrorBound::Rel(1e-2).to_absolute(100.0), 1.0);
        // Constant data: relative falls back to the raw value.
        assert_eq!(ErrorBound::Rel(1e-2).to_absolute(0.0), 1e-2);
    }
}
