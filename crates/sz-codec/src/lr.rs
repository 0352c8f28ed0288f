//! SZ_L/R: the blockwise Lorenzo / linear-regression compressor (SZ2
//! algorithm, Liang et al. 2018), with multi-domain (SLE) support.
//!
//! The compressor partitions each *prediction domain* into `block_size`³
//! blocks. Per block it picks the better of the 3-D Lorenzo predictor
//! (crosses block boundaries via reconstructed neighbours, like SZ2) and a
//! per-block linear regression (coefficients delta-quantized into the
//! stream). Residuals are quantized, Huffman-coded, and the whole payload
//! passes through the LZ lossless stage.
//!
//! **Shared Lossless Encoding (SLE), paper §3.2 Solution 1** falls out of
//! the multi-domain API: [`compress_domains`] predicts every domain (unit
//! block) independently — predictions never cross domain boundaries — but
//! all quantization codes land in one stream under a single shared Huffman
//! tree. Calling it with one merged domain is the paper's "linear merging"
//! (LM) baseline; calling it per-unit with separate invocations is the
//! "compress each box individually" strawman the paper rejects.

use crate::buffer3::{AsView3, Buffer3, Dims3, UnitDest, View3};
use crate::codec::{expect_envelope, write_envelope, CodecId};
use crate::huffman;
use crate::kernels::{self, SymbolReader};
use crate::lossless;
use crate::quantizer::{Quantizer, OUTLIER_SYMBOL, QUANT_RADIUS};
use crate::regression::{fit_block, CoefficientCodec, Coefficients};
pub use crate::scratch::with_lr_scratch as with_thread_scratch;
use crate::wire::{CodecError, CodecResult, Reader, Writer};
use std::convert::Infallible;

/// SZ_L/R payload format version (rides in the envelope header).
const VERSION: u8 = 2;

/// Regression is never attempted for blocks with fewer cells than this
/// (coefficient overhead would dominate).
const MIN_REGRESSION_CELLS: usize = 8;

/// Configuration for one SZ_L/R compression call.
#[derive(Clone, Copy, Debug)]
pub struct LrConfig {
    /// Absolute error bound (convert relative bounds with
    /// [`crate::quantizer::absolute_bound`]).
    pub abs_eb: f64,
    /// Edge length of the SZ prediction blocks (6 in stock SZ2; 4 under
    /// the paper's adaptive scheme).
    pub block_size: usize,
}

impl LrConfig {
    /// Stock SZ2 configuration (6³ blocks).
    pub fn new(abs_eb: f64) -> Self {
        LrConfig {
            abs_eb,
            block_size: 6,
        }
    }

    /// Override the SZ block size.
    pub fn with_block_size(mut self, bs: usize) -> Self {
        assert!(bs >= 1);
        self.block_size = bs;
        self
    }
}

/// Stack-allocated per-row symbol/reconstruction scratch: block edges
/// serialize as `u8`, so rows never exceed 255 cells.
const MAX_BLOCK_EDGE: usize = 256;

#[derive(Default)]
struct Streams {
    selection: Vec<bool>,
    data_syms: Vec<u32>,
    data_outliers: Vec<f64>,
    coeff_syms: Vec<u32>,
    coeff_outliers: Vec<f64>,
    /// Fused data-symbol histogram, filled while quantizing (dense over
    /// the `2·QUANT_RADIUS` symbol space) so the entropy stage skips its
    /// counting pass. `freq_touched` tracks the nonzero entries so reset
    /// is O(distinct symbols), not O(65536).
    data_freq: Vec<u64>,
    freq_touched: Vec<u32>,
}

impl Streams {
    fn clear(&mut self) {
        self.selection.clear();
        self.data_syms.clear();
        self.data_outliers.clear();
        self.coeff_syms.clear();
        self.coeff_outliers.clear();
        for &t in &self.freq_touched {
            self.data_freq[t as usize] = 0;
        }
        self.freq_touched.clear();
        self.data_freq.resize(2 * QUANT_RADIUS as usize, 0);
    }

    /// Drain one kernel-produced symbol row into the streams: push raw
    /// values for outlier symbols (row order — the order the scalar path
    /// interleaved them), update the fused histogram, and append the
    /// symbols. The unpredictable-outlier branch lives here, outside the
    /// lane loops.
    #[inline]
    fn drain_row(&mut self, vals: &[f64], syms: &[u32]) {
        for (x, &sym) in syms.iter().enumerate() {
            if sym == OUTLIER_SYMBOL {
                self.data_outliers.push(vals[x]);
            }
            let f = &mut self.data_freq[sym as usize];
            if *f == 0 {
                self.freq_touched.push(sym);
            }
            *f += 1;
        }
        self.data_syms.extend_from_slice(syms);
    }

    /// The sparse `(symbol, count)` histogram of `data_syms`, equal to
    /// `huffman::count_frequencies(&self.data_syms)`.
    fn data_freqs(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .freq_touched
            .iter()
            .map(|&s| (s, self.data_freq[s as usize]))
            .collect();
        v.sort_unstable_by_key(|&(s, _)| s);
        v
    }
}

/// Reusable compression scratch: the quantization-symbol streams, the
/// pre-lossless payload buffer, and the reconstruction the Lorenzo
/// stencil reads. Hot paths (the in-situ writer encoding one chunk per
/// (rank, level, field)) reuse one across calls and stop paying per-call —
/// and per-unit — allocations; [`with_thread_scratch`] lends the calling
/// thread's.
#[derive(Default)]
pub struct LrScratch {
    streams: Streams,
    payload: Vec<u8>,
    /// Reconstruction of the domain being predicted. Every cell is written
    /// before a later cell's stencil reads it, so it is sized per domain
    /// and never cleared.
    recon: Vec<f64>,
}

/// Zero row standing in for out-of-domain stencil neighbours.
static ZEROS: [f64; MAX_BLOCK_EDGE] = [0.0; MAX_BLOCK_EDGE];

/// Compress a set of prediction domains with one shared encoding (SLE).
/// A single-element slice reproduces plain SZ_L/R on that buffer.
pub fn compress_domains<U: AsView3>(domains: &[U], cfg: &LrConfig) -> Vec<u8> {
    let mut out = Vec::new();
    with_thread_scratch(|s| compress_domains_into(domains, cfg, s, &mut out));
    out
}

/// Compress a set of prediction domains with one shared encoding (SLE),
/// **appending** the stream to `out` and reusing `scratch` across calls —
/// the zero-alloc variant of [`compress_domains`]. Domains are read in
/// place: owned buffers, references and [`View3`]s over a staged chunk
/// all do.
pub fn compress_domains_into<U: AsView3>(
    domains: &[U],
    cfg: &LrConfig,
    scratch: &mut LrScratch,
    out: &mut Vec<u8>,
) {
    assert!(!domains.is_empty(), "no domains to compress");
    assert!(
        cfg.block_size < MAX_BLOCK_EDGE,
        "block size must fit the u8 stream field"
    );
    scratch.streams.clear();
    scratch.payload.clear();
    let mut w = Writer::from_vec(std::mem::take(&mut scratch.payload));
    w.put_f64(cfg.abs_eb);
    w.put_u8(cfg.block_size as u8);
    w.put_u32(domains.len() as u32);
    let mut enc = Encoder {
        data: domains[0].view(),
        q: Quantizer::new(cfg.abs_eb),
        coeff_codec: CoefficientCodec::new(cfg.abs_eb, cfg.block_size),
        s: &mut scratch.streams,
        syms_row: [0; MAX_BLOCK_EDGE],
    };
    for domain in domains {
        enc.data = domain.view();
        let dims = enc.data.dims();
        w.put_u32(dims.nx as u32);
        w.put_u32(dims.ny as u32);
        w.put_u32(dims.nz as u32);
        scratch.recon.resize(dims.len(), 0.0);
        // Dense strides: a row's base is the same in `recon` and the input.
        let dense = (dims.nx, dims.nx * dims.ny);
        let Ok(()) = traverse(dims, cfg.block_size, dense, &mut scratch.recon, &mut enc);
    }
    // The header and domain dims are in; the selection bitmap and the
    // four symbol/outlier streams follow.
    let s = &scratch.streams;
    w.put_u64(s.selection.len() as u64);
    for bits in s.selection.chunks(8) {
        let packed = bits.iter().enumerate().map(|(i, &b)| (b as u8) << (7 - i));
        w.put_u8(packed.fold(0, |acc, bit| acc | bit));
    }
    huffman::encode_block_into(&s.coeff_syms, &mut w);
    w.put_u64(s.coeff_outliers.len() as u64);
    w.put_f64s(&s.coeff_outliers);
    // Fused pass: the histogram was accumulated during quantization, so
    // the entropy stage emits straight into the payload writer with no
    // counting pass and no intermediate encoded buffer.
    huffman::encode_block_with_histogram_into(&s.data_syms, &s.data_freqs(), &mut w);
    w.put_u64(s.data_outliers.len() as u64);
    w.put_f64s(&s.data_outliers);
    scratch.payload = w.into_bytes();
    let mut env = Writer::from_vec(std::mem::take(out));
    write_envelope(&mut env, CodecId::LrSle, VERSION, 0);
    *out = env.into_bytes();
    lossless::compress_into(&scratch.payload, out);
}

/// Convenience wrapper: single domain.
pub fn compress(data: &Buffer3, cfg: &LrConfig) -> Vec<u8> {
    compress_domains(&[data], cfg)
}

/// Compress a flat 1-D array (AMReX's baseline compresses box payloads this
/// way); internally a `(n,1,1)` domain, so the Lorenzo stencil degenerates
/// to previous-value prediction.
pub fn compress_1d(data: &[f64], abs_eb: f64) -> Vec<u8> {
    // An empty array goes in as one zero.
    let data = if data.is_empty() { &[0.0][..] } else { data };
    let row = View3::new(Dims3::new(data.len(), 1, 1), data);
    compress_domains(&[row], &LrConfig::new(abs_eb))
}

/// Decompress a stream produced by any of the `compress*` functions.
/// Returns one buffer per prediction domain, in input order.
pub fn decompress_domains(bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
    let mut domains = Vec::new();
    decompress_domains_into(bytes, &mut domains)?;
    Ok(domains)
}

/// [`decompress_domains`], reconstructing each prediction domain where
/// `dest` says it goes and returning how many there were. The destination
/// is asked domain by domain, after every header guard and before the
/// domain's first cell is written; a stencil never leaves its domain, so
/// the neighbouring cells of a larger destination are not even read.
///
/// The shared entropy stream is decoded whole, but a domain `dest` does
/// not want is only passed over: its blocks' selection bits and regression
/// coefficients are read (the coefficient codec delta-codes across
/// blocks), its data symbols and their raw outliers are counted off, and
/// none of its cells is predicted.
pub fn decompress_domains_into(bytes: &[u8], dest: &mut dyn UnitDest) -> CodecResult<usize> {
    let env = expect_envelope(bytes, CodecId::LrSle, VERSION)?;
    let payload = lossless::decompress(&bytes[env.payload_offset..])?;
    let mut r = Reader::new(&payload);
    let abs_eb = r.get_f64()?;
    if !(abs_eb > 0.0 && abs_eb.is_finite()) {
        return Err(CodecError::BadParameter {
            what: "error bound",
        });
    }
    let block_size = r.get_u8()? as usize;
    if block_size == 0 {
        return Err(CodecError::BadParameter { what: "block size" });
    }
    let ndomains = r.get_u32()? as usize;
    // Each domain header is 3 × u32; reject counts the stream can't hold.
    r.check_count(ndomains, 12)?;
    let mut dims = Vec::with_capacity(ndomains);
    let mut total_cells: u128 = 0;
    for _ in 0..ndomains {
        let nx = r.get_u32()? as usize;
        let ny = r.get_u32()? as usize;
        let nz = r.get_u32()? as usize;
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(CodecError::dims(format!(
                "degenerate domain dims {nx}x{ny}x{nz}"
            )));
        }
        total_cells += nx as u128 * ny as u128 * nz as u128;
        dims.push(Dims3::new(nx, ny, nz));
    }
    // Every cell consumes at least one bit of the remaining payload, so
    // corrupted dims can't demand more cells than the stream could encode
    // (this also keeps buffer allocations bounded by the input size).
    if total_cells > r.remaining() as u128 * 8 + 64 {
        return Err(CodecError::LimitExceeded {
            what: "domain cells",
            claimed: total_cells,
            available: r.remaining() as u128 * 8 + 64,
        });
    }
    // Selection bitmap: one bit per block, MSB first.
    let nblocks = r.get_u64()? as usize;
    let sel_bytes = r.get_raw(nblocks.div_ceil(8))?;
    // Coefficient stream.
    let coeff_syms = huffman::decode_with_table(r.get_block()?)?;
    let n_coeff_out = r.get_u64()? as usize;
    let coeff_outliers = r.get_f64s(n_coeff_out)?;
    // Data stream.
    let data_syms = huffman::decode_with_table(r.get_block()?)?;
    let n_out = r.get_u64()? as usize;
    let data_outliers = r.get_f64s(n_out)?;

    let mut dec = Decoder {
        coeff_codec: CoefficientCodec::new(abs_eb, block_size),
        selection: (0..nblocks).map(|i| sel_bytes[i / 8] >> (7 - i % 8) & 1 == 1),
        coeff_syms: coeff_syms.into_iter(),
        coeff_outliers: coeff_outliers.into_iter(),
        data: SymbolReader {
            q: Quantizer::new(abs_eb),
            syms: &data_syms,
            outliers: &data_outliers,
            truncated: TRUNCATED,
        },
        preds: [0.0; MAX_BLOCK_EDGE],
    };
    for (i, d) in dims.into_iter().enumerate() {
        if dest.wants(i, d)? {
            let to = dest.unit(i, d)?.for_dims(d)?;
            traverse(d, block_size, (to.row, to.plane), to.data, &mut dec)?;
        } else {
            dec.skip(d, block_size)?;
        }
    }
    Ok(ndomains)
}

const TRUNCATED: &str = "SZ_L/R stream truncated";

/// Convenience wrapper: single-domain decompress.
pub fn decompress(bytes: &[u8]) -> CodecResult<Buffer3> {
    let mut v = decompress_domains(bytes)?;
    if v.len() != 1 {
        return Err(CodecError::dims(format!(
            "expected 1 domain, found {}",
            v.len()
        )));
    }
    Ok(v.pop().expect("len checked"))
}

/// Iterate the blocks of a domain in x-fastest block order, yielding
/// `(origin, block_dims)`.
fn blocks_of(dims: Dims3, bs: usize) -> impl Iterator<Item = ((usize, usize, usize), Dims3)> {
    let (mut oi, mut oj, mut ok) = (0, 0, 0);
    std::iter::from_fn(move || {
        if ok >= dims.nz {
            return None;
        }
        let extent = |o: usize, n: usize| bs.min(n - o);
        let block = (
            (oi, oj, ok),
            Dims3::new(
                extent(oi, dims.nx),
                extent(oj, dims.ny),
                extent(ok, dims.nz),
            ),
        );
        oi += bs;
        if oi >= dims.nx {
            (oi, oj) = (0, oj + bs);
            if oj >= dims.ny {
                (oj, ok) = (0, ok + bs);
            }
        }
        Some(block)
    })
}

/// One direction of the codec, driven by [`traverse`]: the encoder turns
/// each row of values into symbols, the decoder each row of symbols back
/// into values. Either way the reconstruction must end up in the row
/// handed over — later Lorenzo stencils read it.
trait Direction {
    /// What can go wrong ([`Infallible`] for the encoder).
    type Err;
    /// The predictor of the block at `(oi, oj, ok)`: the quantized
    /// regression coefficients, or `None` for Lorenzo — chosen by the
    /// encoder, read back by the decoder.
    fn block(
        &mut self,
        origin: (usize, usize, usize),
        bd: Dims3,
    ) -> Result<Option<Coefficients>, Self::Err>;
    /// The x-row of a regression block at flat index `base`, predicted
    /// `((b0 + bx·i) + by) + bz` at its `i`-th cell.
    fn affine_row(&mut self, base: usize, b: [f64; 4], row: &mut [f64]) -> Result<(), Self::Err>;
    /// The x-row of a Lorenzo block at flat index `base`, with its three
    /// neighbour rows and `left`, the four stencil rows' values one cell
    /// before the row, in [`kernels::lorenzo_quantize_row`]'s order.
    fn lorenzo_row(
        &mut self,
        base: usize,
        above: [&[f64]; 3],
        left: [f64; 4],
        row: &mut [f64],
    ) -> Result<(), Self::Err>;
}

/// The SZ_L/R traversal of one domain — block order, row order and the
/// Lorenzo stencil geometry, stated once for both directions (statically
/// dispatched, so each gets its own specialised copy of the nest).
///
/// Blocks run x-fastest, their rows y then z. Cell `(i, j, k)` lives at
/// `recon[i + j·row + k·plane]`: dense for the encoder, a box inside a
/// larger array when a decoder reconstructs in place. A Lorenzo row reads
/// the reconstruction at `(i − 1, ·)`, `(·, j − 1, ·)`, `(·, ·, k − 1)` and
/// their corners, across block boundaries and zero beyond the *domain's*
/// faces, whatever `recon` holds there. All of them lie strictly before
/// the row in flat order, so splitting `recon` at the row start gives
/// aliasing-free read slices.
fn traverse<D: Direction>(
    dims: Dims3,
    block_size: usize,
    (row, plane): (usize, usize),
    recon: &mut [f64],
    dir: &mut D,
) -> Result<(), D::Err> {
    for ((oi, oj, ok), bd) in blocks_of(dims, block_size) {
        if let Some(qc) = dir.block((oi, oj, ok), bd)? {
            for k in 0..bd.nz {
                let bz = qc.b[2] * k as f64;
                for j in 0..bd.ny {
                    let by = qc.b[1] * j as f64;
                    let base = oi + (oj + j) * row + (ok + k) * plane;
                    dir.affine_row(
                        base,
                        [qc.b0, qc.b[0], by, bz],
                        &mut recon[base..base + bd.nx],
                    )?;
                }
            }
            continue;
        }
        for k in 0..bd.nz {
            let ka = ok + k;
            for j in 0..bd.ny {
                let ja = oj + j;
                let base = oi + ja * row + ka * plane;
                let (head, tail) = recon.split_at_mut(base);
                // The stencil row `back` cells before this one, and its
                // value one cell before the block; zeros outside the domain.
                let up = |back: usize, inside: bool| {
                    if inside {
                        &head[base - back..][..bd.nx]
                    } else {
                        &ZEROS[..bd.nx]
                    }
                };
                let left = |back: usize, inside: bool| {
                    if inside && oi > 0 {
                        head[base - back - 1]
                    } else {
                        0.0
                    }
                };
                let (jm, km, jkm) = (row, plane, plane + row);
                let (has_j, has_k) = (ja > 0, ka > 0);
                dir.lorenzo_row(
                    base,
                    [up(jm, has_j), up(km, has_k), up(jkm, has_j && has_k)],
                    [
                        left(0, true),
                        left(jm, has_j),
                        left(km, has_k),
                        left(jkm, has_j && has_k),
                    ],
                    &mut tail[..bd.nx],
                )?;
            }
        }
    }
    Ok(())
}

/// The encoding [`Direction`]: select each block's predictor on the
/// original data, quantize each row against its prediction.
struct Encoder<'a> {
    data: View3<'a>,
    q: Quantizer,
    coeff_codec: CoefficientCodec,
    s: &'a mut Streams,
    syms_row: [u32; MAX_BLOCK_EDGE],
}

impl Direction for Encoder<'_> {
    type Err = Infallible;

    fn block(
        &mut self,
        (oi, oj, ok): (usize, usize, usize),
        bd: Dims3,
    ) -> Result<Option<Coefficients>, Infallible> {
        // Predictor selection on the original data (SZ2 style): one fit,
        // then both selection statistics in a single fused sweep while
        // the block is cache-resident.
        let regression = if bd.len() >= MIN_REGRESSION_CELLS {
            let coeffs = fit_block(self.data, oi, oj, ok, bd);
            let (reg_err, lor_err) = kernels::selection_errors(self.data, oi, oj, ok, bd, &coeffs);
            (reg_err < lor_err).then_some(coeffs)
        } else {
            None
        };
        let s = &mut *self.s;
        s.selection.push(regression.is_some());
        Ok(regression.map(|c| {
            self.coeff_codec
                .encode(&c, &mut s.coeff_syms, &mut s.coeff_outliers)
        }))
    }

    #[inline]
    fn affine_row(
        &mut self,
        base: usize,
        [b0, bx, by, bz]: [f64; 4],
        row: &mut [f64],
    ) -> Result<(), Infallible> {
        let vals = &self.data.data()[base..base + row.len()];
        let syms = &mut self.syms_row[..row.len()];
        kernels::quantize_affine_row(&self.q, vals, b0, bx, by, bz, syms, row);
        self.s.drain_row(vals, syms);
        Ok(())
    }

    #[inline]
    fn lorenzo_row(
        &mut self,
        base: usize,
        [jm, km, jkm]: [&[f64]; 3],
        left: [f64; 4],
        row: &mut [f64],
    ) -> Result<(), Infallible> {
        let vals = &self.data.data()[base..base + row.len()];
        let syms = &mut self.syms_row[..row.len()];
        kernels::lorenzo_quantize_row(&self.q, vals, jm, km, jkm, left, syms, row);
        self.s.drain_row(vals, syms);
        Ok(())
    }
}

/// The decoding [`Direction`]: consume the selection bits, the
/// coefficient stream and the data symbols in emission order.
struct Decoder<'a, S> {
    coeff_codec: CoefficientCodec,
    selection: S,
    coeff_syms: std::vec::IntoIter<u32>,
    coeff_outliers: std::vec::IntoIter<f64>,
    data: SymbolReader<'a>,
    preds: [f64; MAX_BLOCK_EDGE],
}

impl<S: Iterator<Item = bool>> Decoder<'_, S> {
    /// Consume a `dims` domain's share of every stream without
    /// reconstructing it: what [`traverse`] would read, block by block,
    /// then its data symbols at once.
    fn skip(&mut self, dims: Dims3, block_size: usize) -> CodecResult<()> {
        for (origin, bd) in blocks_of(dims, block_size) {
            self.block(origin, bd)?;
        }
        self.data.skip(dims.len())
    }
}

impl<S: Iterator<Item = bool>> Direction for Decoder<'_, S> {
    type Err = CodecError;

    fn block(
        &mut self,
        _origin: (usize, usize, usize),
        _bd: Dims3,
    ) -> CodecResult<Option<Coefficients>> {
        let truncated = || CodecError::corrupt(TRUNCATED);
        if !self.selection.next().ok_or_else(truncated)? {
            return Ok(None);
        }
        let (syms, outliers) = (&mut self.coeff_syms, &mut self.coeff_outliers);
        self.coeff_codec.decode(syms, outliers).map(Some)
    }

    #[inline]
    fn affine_row(
        &mut self,
        _base: usize,
        [b0, bx, by, bz]: [f64; 4],
        row: &mut [f64],
    ) -> CodecResult<()> {
        // The tree `quantize_affine_row` evaluates, as a prediction row.
        let preds = &mut self.preds[..row.len()];
        for (i, p) in preds.iter_mut().enumerate() {
            *p = ((b0 + bx * i as f64) + by) + bz;
        }
        self.data.row(preds, row)
    }

    #[inline]
    fn lorenzo_row(
        &mut self,
        _base: usize,
        [jm, km, jkm]: [&[f64]; 3],
        left: [f64; 4],
        row: &mut [f64],
    ) -> CodecResult<()> {
        self.data.lorenzo_row(jm, km, jkm, left, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lorenzo::lorenzo3;
    use crate::metrics::ErrorStats;

    /// The per-point decoder the shipping code replaced, kept whole as the
    /// oracle — its own copy of every header guard, symbols pulled one at
    /// a time through iterators, prediction through
    /// `Coefficients::predict` or the bounds-checked `lorenzo3`, one
    /// branch and one `Buffer3::set` per cell.
    fn decompress_domains_reference(bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
        let env = expect_envelope(bytes, CodecId::LrSle, VERSION)?;
        let payload = lossless::decompress(&bytes[env.payload_offset..])?;
        let mut r = Reader::new(&payload);
        let abs_eb = r.get_f64()?;
        if !(abs_eb > 0.0 && abs_eb.is_finite()) {
            return Err(CodecError::BadParameter {
                what: "error bound",
            });
        }
        let block_size = r.get_u8()? as usize;
        if block_size == 0 {
            return Err(CodecError::BadParameter { what: "block size" });
        }
        let ndomains = r.get_u32()? as usize;
        r.check_count(ndomains, 12)?;
        let mut dims = Vec::with_capacity(ndomains);
        let mut total_cells: u128 = 0;
        for _ in 0..ndomains {
            let nx = r.get_u32()? as usize;
            let ny = r.get_u32()? as usize;
            let nz = r.get_u32()? as usize;
            if nx == 0 || ny == 0 || nz == 0 {
                return Err(CodecError::dims(format!(
                    "degenerate domain dims {nx}x{ny}x{nz}"
                )));
            }
            total_cells += nx as u128 * ny as u128 * nz as u128;
            dims.push(Dims3::new(nx, ny, nz));
        }
        if total_cells > r.remaining() as u128 * 8 + 64 {
            return Err(CodecError::LimitExceeded {
                what: "domain cells",
                claimed: total_cells,
                available: r.remaining() as u128 * 8 + 64,
            });
        }
        let nblocks = r.get_u64()? as usize;
        let sel_bytes = r.get_raw(nblocks.div_ceil(8))?;
        let selection: Vec<bool> = (0..nblocks)
            .map(|i| sel_bytes[i / 8] >> (7 - i % 8) & 1 == 1)
            .collect();
        let coeff_syms = huffman::decode_with_table(r.get_block()?)?;
        let n_coeff_out = r.get_u64()? as usize;
        let coeff_outliers = r.get_f64s(n_coeff_out)?;
        let data_syms = huffman::decode_with_table(r.get_block()?)?;
        let n_out = r.get_u64()? as usize;
        let data_outliers = r.get_f64s(n_out)?;

        let q = Quantizer::new(abs_eb);
        let mut coeff_codec = CoefficientCodec::new(abs_eb, block_size);
        let mut sel_iter = selection.into_iter();
        let mut sym_iter = data_syms.into_iter();
        let mut out_iter = data_outliers.into_iter();
        let mut csym_iter = coeff_syms.into_iter();
        let mut cout_iter = coeff_outliers.into_iter();
        let truncated = || CodecError::corrupt("SZ_L/R stream truncated");
        let mut result = Vec::with_capacity(ndomains);
        for dims in dims {
            let mut recon = Buffer3::zeros(dims);
            for ((oi, oj, ok), bd) in blocks_of(dims, block_size) {
                let use_regression = sel_iter.next().ok_or_else(truncated)?;
                if use_regression {
                    let qc = coeff_codec.decode(&mut csym_iter, &mut cout_iter)?;
                    for k in 0..bd.nz {
                        for j in 0..bd.ny {
                            for i in 0..bd.nx {
                                let sym = sym_iter.next().ok_or_else(truncated)?;
                                let v = if sym == OUTLIER_SYMBOL {
                                    out_iter.next().ok_or_else(truncated)?
                                } else {
                                    q.try_reconstruct(sym, qc.predict(i, j, k))?
                                };
                                recon.set(oi + i, oj + j, ok + k, v);
                            }
                        }
                    }
                } else {
                    for k in 0..bd.nz {
                        for j in 0..bd.ny {
                            for i in 0..bd.nx {
                                let sym = sym_iter.next().ok_or_else(truncated)?;
                                let v = if sym == OUTLIER_SYMBOL {
                                    out_iter.next().ok_or_else(truncated)?
                                } else {
                                    let pred = lorenzo3(&recon, oi + i, oj + j, ok + k);
                                    q.try_reconstruct(sym, pred)?
                                };
                                recon.set(oi + i, oj + j, ok + k, v);
                            }
                        }
                    }
                }
            }
            result.push(recon);
        }
        Ok(result)
    }

    /// The test fields: a smooth trend, the same under uniform noise of
    /// amplitude 1, and [`crate::interp::tests::spiky`]'s outliers (huge
    /// spikes, NaN, ±∞, a whole poisoned row, planes left clean). `unit`
    /// shifts the field so the domains of one stream differ.
    fn field(kind: usize, dims: Dims3, unit: usize) -> Buffer3 {
        let mut b = crate::interp::tests::spiky(dims, kind == 2);
        let mut x = 17 + unit as u64;
        for v in b.data_mut() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            *v += unit as f64 * 0.37 + if kind == 1 { noise } else { 0.0 };
        }
        b
    }

    /// Stored raw: non-finite, or far beyond anything the trend predicts.
    fn is_spike(v: f64) -> bool {
        !v.is_finite() || v.abs() > 1.0e5
    }

    const ORACLE_DIMS: [(usize, usize, usize); 5] =
        [(1, 1, 1), (5, 1, 3), (17, 9, 5), (13, 7, 9), (20, 20, 20)];

    /// The selection bits of a stream, one per block in traversal order.
    fn selection_bits(stream: &[u8]) -> Vec<bool> {
        let env = expect_envelope(stream, CodecId::LrSle, VERSION).unwrap();
        let payload = lossless::decompress(&stream[env.payload_offset..]).unwrap();
        let mut r = Reader::new(&payload);
        r.get_raw(8 + 1).unwrap();
        let ndomains = r.get_u32().unwrap() as usize;
        r.get_raw(12 * ndomains).unwrap();
        let nblocks = r.get_u64().unwrap() as usize;
        let bytes = r.get_raw(nblocks.div_ceil(8)).unwrap();
        (0..nblocks)
            .map(|i| bytes[i / 8] >> (7 - i % 8) & 1 == 1)
            .collect()
    }

    #[test]
    fn row_decoder_matches_per_point_reference_bitwise() {
        // census[regression as usize][min(outliers in the row, 2)]
        let mut census = [[0usize; 3]; 2];
        for ndomains in [1usize, 5, 64] {
            // One domain: each shape on its own; several: the shapes in
            // turn (the 20³ one only where it is alone or one of five).
            let shapes = if ndomains == 64 { 4 } else { 5 };
            let sets: Vec<Vec<usize>> = match ndomains {
                1 => (0..shapes).map(|d| vec![d]).collect(),
                n => vec![(0..n).map(|u| u % shapes).collect()],
            };
            for (set, kind, bs, eb) in sets.iter().flat_map(|set| {
                (0..3).flat_map(move |kind| {
                    [4usize, 6, 255]
                        .into_iter()
                        .flat_map(move |bs| [1e-2, 1e-4].map(|eb| (set, kind, bs, eb)))
                })
            }) {
                let what = format!("{ndomains} domains {set:?} kind {kind} bs {bs} eb {eb}");
                let domains: Vec<Buffer3> = set
                    .iter()
                    .enumerate()
                    .map(|(u, &d)| {
                        let (nx, ny, nz) = ORACLE_DIMS[d];
                        field(kind, Dims3::new(nx, ny, nz), u)
                    })
                    .collect();
                let cfg = LrConfig::new(eb).with_block_size(bs);
                let stream = compress_domains(&domains, &cfg);
                let fast = decompress_domains(&stream).expect("decode");
                let slow = decompress_domains_reference(&stream).expect("reference decode");
                assert_eq!(fast.len(), domains.len(), "{what}");
                let mut selection = selection_bits(&stream).into_iter();
                for ((orig, a), b) in domains.iter().zip(&fast).zip(&slow) {
                    assert_eq!(a.dims(), orig.dims(), "{what}");
                    assert_eq!(b.dims(), orig.dims(), "{what}");
                    for (idx, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
                        assert_eq!(x.to_bits(), y.to_bits(), "{what}: cell {idx} differs");
                    }
                    // Outliers are stored raw, so they come back exactly —
                    // NaN payload bits included; everything else within
                    // the bound.
                    for (o, r) in orig.data().iter().zip(a.data()) {
                        if is_spike(*o) {
                            assert_eq!(o.to_bits(), r.to_bits(), "{what}");
                        } else {
                            assert!((o - r).abs() <= eb * (1.0 + 1e-12), "{what}");
                        }
                    }
                    for ((oi, oj, ok), bd) in blocks_of(orig.dims(), bs) {
                        let regression = selection.next().expect("one bit per block");
                        for (j, k) in (0..bd.nz).flat_map(|k| (0..bd.ny).map(move |j| (j, k))) {
                            let raw = (0..bd.nx)
                                .filter(|i| is_spike(orig.get(oi + i, oj + j, ok + k)))
                                .count();
                            census[regression as usize][raw.min(2)] += 1;
                        }
                    }
                }
                assert_eq!(selection.next(), None, "{what}");
            }
        }
        // The equivalence above is only as good as its inputs: both
        // predictors must have met rows with no, one and many outliers.
        for (predictor, rows) in ["Lorenzo", "regression"].iter().zip(census) {
            for (outliers, n) in ["no", "one", "many"].iter().zip(rows) {
                assert!(n > 0, "no {predictor} row with {outliers} outliers");
            }
        }
    }

    /// An SZ_L/R stream around a hand-edited payload, stored (lossless
    /// mode 0) rather than parsed again for every edit.
    fn wrap(payload: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        write_envelope(&mut w, CodecId::LrSle, VERSION, 0);
        w.put_u64(payload.len() as u64);
        w.put_u8(0);
        w.put_block(payload);
        w.into_bytes()
    }

    /// Both decoders on one hostile stream: the same values bit for bit,
    /// or the same error variant. A panic in either fails the test.
    ///
    /// One exception: a NaN that a damaged stream makes a decoder
    /// *compute* (a valid symbol on a prediction that is NaN, which no
    /// encoder emits — a NaN prediction always quantizes to an outlier)
    /// compares as NaN only. When two NaNs meet in one add, which one's
    /// sign and payload survive depends on the operand order the compiler
    /// picked, and optimised builds pick differently for the two loops.
    fn assert_same_outcome(stream: &[u8], what: &str) {
        let fast = decompress_domains(stream);
        let slow = decompress_domains_reference(stream);
        match (&fast, &slow) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len(), "{what}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.dims(), y.dims(), "{what}");
                    for (p, q) in x.data().iter().zip(y.data()) {
                        assert!(
                            p.to_bits() == q.to_bits() || p.is_nan() && q.is_nan(),
                            "{what}"
                        );
                    }
                }
            }
            (Err(a), Err(b)) => assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{what}: {a:?} vs {b:?}"
            ),
            _ => panic!("{what}: row decoder {fast:?}, reference {slow:?}"),
        }
    }

    #[test]
    fn hostile_streams_get_the_reference_outcome() {
        // Regression and Lorenzo blocks, ragged edges, outliers of every
        // kind, five domains under one tree.
        let domains: Vec<Buffer3> = (0..5).map(|u| field(2, Dims3::new(13, 7, 9), u)).collect();
        let stream = compress_domains(&domains, &LrConfig::new(1e-3).with_block_size(6));
        let env = expect_envelope(&stream, CodecId::LrSle, VERSION).unwrap();
        let payload = lossless::decompress(&stream[env.payload_offset..]).unwrap();
        assert_same_outcome(&wrap(&payload), "pristine");
        assert!(decompress_domains(&wrap(&payload)).is_ok());
        assert!(
            selection_bits(&stream).contains(&true) && selection_bits(&stream).contains(&false)
        );
        // Every truncation of the payload (the streams run dry mid-row,
        // mid-table, mid-header) and of the stream around it.
        for cut in 0..payload.len() {
            assert_same_outcome(&wrap(&payload[..cut]), &format!("payload cut at {cut}"));
        }
        for cut in 0..stream.len() {
            assert_same_outcome(&stream[..cut], &format!("stream cut at {cut}"));
        }
        // Seeded bit flips: header fields, selection bits, both Huffman
        // tables and bit streams, outlier counts and raw values.
        let mut x = 2024u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (at, bit) = ((x >> 33) as usize % payload.len(), (x >> 8) % 8);
            let mut damaged = payload.clone();
            damaged[at] ^= 1 << bit;
            assert_same_outcome(&wrap(&damaged), &format!("bit {bit} of byte {at}"));
        }
    }

    /// A destination that keeps the domains `keep` marks, each in a buffer
    /// of its own, and passes over the rest; it counts what it is asked.
    struct Subset {
        keep: Vec<bool>,
        kept: Vec<(usize, Buffer3)>,
        asked: usize,
    }

    impl Subset {
        fn new(keep: Vec<bool>) -> Self {
            Subset {
                keep,
                kept: Vec::new(),
                asked: 0,
            }
        }
    }

    impl UnitDest for Subset {
        fn wants(&mut self, i: usize, _dims: Dims3) -> CodecResult<bool> {
            assert_eq!(i, self.asked, "domains are offered once each, in order");
            self.asked += 1;
            Ok(self.keep[i])
        }

        fn unit(&mut self, i: usize, dims: Dims3) -> CodecResult<crate::StridedMut<'_>> {
            assert!(self.keep[i], "domain {i} was declined, then asked for");
            self.kept.push((i, Buffer3::zeros(dims)));
            let (_, b) = self.kept.last_mut().expect("just pushed");
            crate::StridedMut::new(dims, b.data_mut(), dims.nx, dims.nx * dims.ny)
        }
    }

    #[test]
    fn skipped_domains_leave_the_kept_ones_bitwise_equal() {
        // Random subsets of streams with regression and Lorenzo blocks,
        // ragged edges and outliers of every kind (a skipped domain must
        // still step over its coefficients and raw values), plus the
        // empty and the full subset.
        let mut x = 41u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut skipped_with_outliers = 0;
        for case in 0..96 {
            let n = 1 + next() as usize % 12;
            let (kind, bs) = (next() as usize % 3, [3usize, 4, 6][next() as usize % 3]);
            let domains: Vec<Buffer3> = (0..n)
                .map(|u| {
                    let (nx, ny, nz) = ORACLE_DIMS[next() as usize % 4];
                    field(kind, Dims3::new(nx, ny, nz), u)
                })
                .collect();
            let stream = compress_domains(&domains, &LrConfig::new(1e-3).with_block_size(bs));
            let full = decompress_domains(&stream).expect("full decode");
            let keep: Vec<bool> = match case {
                0 => vec![false; n],
                1 => vec![true; n],
                _ => (0..n).map(|_| next() % 2 == 0).collect(),
            };
            let mut dest = Subset::new(keep.clone());
            let what = format!("case {case}: {n} domains kind {kind} bs {bs} keep {keep:?}");
            assert_eq!(decompress_domains_into(&stream, &mut dest), Ok(n), "{what}");
            assert_eq!(dest.asked, n, "{what}");
            let wanted: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
            let got: Vec<usize> = dest.kept.iter().map(|(i, _)| *i).collect();
            assert_eq!(got, wanted, "{what}");
            for (i, b) in &dest.kept {
                let bits = |b: &Buffer3| b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(b), bits(&full[*i]), "{what}: domain {i}");
            }
            skipped_with_outliers += (0..n)
                .filter(|&i| !keep[i] && domains[i].data().iter().any(|&v| is_spike(v)))
                .count();
        }
        assert!(
            skipped_with_outliers > 0,
            "no skipped domain held an outlier"
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error_under_a_skipping_destination() {
        let domains: Vec<Buffer3> = (0..5).map(|u| field(2, Dims3::new(13, 7, 9), u)).collect();
        let stream = compress_domains(&domains, &LrConfig::new(1e-3).with_block_size(6));
        let env = expect_envelope(&stream, CodecId::LrSle, VERSION).unwrap();
        let payload = lossless::decompress(&stream[env.payload_offset..]).unwrap();
        let cuts = (0..payload.len())
            .map(|cut| (wrap(&payload[..cut]), format!("payload cut at {cut}")))
            .chain(
                (0..stream.len())
                    .map(|cut| (stream[..cut].to_vec(), format!("stream cut at {cut}"))),
            );
        for (cut, what) in cuts {
            for keep in [
                [false; 5],
                [true, false, true, false, true],
                [false, true, false, true, false],
            ] {
                let skipping = decompress_domains_into(&cut, &mut Subset::new(keep.to_vec()));
                let full = decompress_domains(&cut);
                match (&skipping, &full) {
                    (Err(a), Err(b)) => assert_eq!(
                        std::mem::discriminant(a),
                        std::mem::discriminant(b),
                        "{what}, keep {keep:?}: {a:?} vs {b:?}"
                    ),
                    _ => panic!("{what}, keep {keep:?}: skipping {skipping:?}, full {full:?}"),
                }
            }
        }
    }

    fn smooth_cube(n: usize) -> Buffer3 {
        let mut b = Buffer3::zeros(Dims3::cube(n));
        b.fill_with(|i, j, k| {
            let (x, y, z) = (
                i as f64 / n as f64,
                j as f64 / n as f64,
                k as f64 / n as f64,
            );
            (6.0 * x).sin() * (5.0 * y).cos() + 0.5 * (4.0 * z).sin()
        });
        b
    }

    fn rough_cube(n: usize) -> Buffer3 {
        let mut x = 99u64;
        let mut b = Buffer3::zeros(Dims3::cube(n));
        b.fill_with(|i, j, k| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (i + j + k) as f64 * 0.05 + noise
        });
        b
    }

    #[test]
    fn roundtrip_respects_error_bound() {
        for data in [smooth_cube(20), rough_cube(20)] {
            for eb in [1e-2, 1e-3, 1e-4] {
                let c = compress(&data, &LrConfig::new(eb));
                let back = decompress(&c).expect("decode");
                let stats = ErrorStats::compare(data.data(), back.data());
                assert!(
                    stats.max_abs_err <= eb * (1.0 + 1e-12),
                    "eb={eb}: max err {}",
                    stats.max_abs_err
                );
            }
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_cube(32);
        let c = compress(&data, &LrConfig::new(1e-3));
        let orig = data.dims().len() * 8;
        assert!(
            c.len() * 8 < orig,
            "CR {} too low",
            orig as f64 / c.len() as f64
        );
        assert!(orig as f64 / c.len() as f64 > 8.0);
    }

    #[test]
    fn non_cubic_dims_roundtrip() {
        let mut b = Buffer3::zeros(Dims3::new(17, 9, 5));
        b.fill_with(|i, j, k| (i * 3 + j * 7 + k * 11) as f64 * 0.01);
        let c = compress(&b, &LrConfig::new(1e-4));
        let back = decompress(&c).expect("decode");
        let stats = ErrorStats::compare(b.data(), back.data());
        assert!(stats.max_abs_err <= 1e-4 * (1.0 + 1e-12));
    }

    #[test]
    fn sle_multi_domain_roundtrip() {
        let units: Vec<Buffer3> = (0..5)
            .map(|u| {
                let mut b = Buffer3::zeros(Dims3::cube(8));
                b.fill_with(|i, j, k| ((i + j + k) as f64 * 0.1 + u as f64).sin());
                b
            })
            .collect();
        let refs: Vec<&Buffer3> = units.iter().collect();
        let c = compress_domains(&refs, &LrConfig::new(1e-3));
        let back = decompress_domains(&c).expect("decode");
        assert_eq!(back.len(), units.len());
        for (orig, rec) in units.iter().zip(&back) {
            assert_eq!(orig.dims(), rec.dims());
            let stats = ErrorStats::compare(orig.data(), rec.data());
            assert!(stats.max_abs_err <= 1e-3 * (1.0 + 1e-12));
        }
    }

    #[test]
    fn shared_tree_beats_separate_encoding() {
        // SLE's reason to exist: many small blocks with one shared Huffman
        // tree outperform per-block compression calls (paper Challenge 1).
        let units: Vec<Buffer3> = (0..64)
            .map(|u| {
                let mut b = Buffer3::zeros(Dims3::cube(8));
                b.fill_with(|i, j, k| ((i * 31 + j * 17 + k * 7 + u * 131) % 97) as f64 * 0.013);
                b
            })
            .collect();
        let refs: Vec<&Buffer3> = units.iter().collect();
        let cfg = LrConfig::new(1e-3);
        let shared = compress_domains(&refs, &cfg).len();
        let separate: usize = units.iter().map(|u| compress(u, &cfg).len()).sum();
        assert!(
            shared < separate,
            "SLE ({shared}) should beat per-unit calls ({separate})"
        );
    }

    #[test]
    fn one_dimensional_roundtrip() {
        let data: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.01).sin() * 3.0).collect();
        let c = compress_1d(&data, 1e-3);
        let back = decompress(&c).expect("decode");
        let stats = ErrorStats::compare(&data, back.data());
        assert!(stats.max_abs_err <= 1e-3 * (1.0 + 1e-12));
    }

    #[test]
    fn constant_field_tiny_output() {
        let b = Buffer3::from_vec(Dims3::cube(16), vec![4.2; 4096]);
        let c = compress(&b, &LrConfig::new(1e-6));
        assert!(c.len() < 400, "constant field compressed to {} B", c.len());
        let back = decompress(&c).expect("decode");
        assert!(back.data().iter().all(|&v| (v - 4.2).abs() <= 1e-6));
    }

    #[test]
    fn corrupted_stream_is_error_not_panic() {
        let data = smooth_cube(8);
        let c = compress(&data, &LrConfig::new(1e-3));
        assert!(decompress(&c[..8]).is_err());
        let mut bad = c.clone();
        bad[0] ^= 0xFF;
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn block_partition_covers_domain() {
        let dims = Dims3::new(13, 7, 9);
        let blocks: Vec<_> = blocks_of(dims, 6).collect();
        let total: usize = blocks.iter().map(|(_, bd)| bd.len()).sum();
        assert_eq!(total, dims.len());
        // 13 → 6+6+1, 7 → 6+1, 9 → 6+3 ⇒ 3×2×2 blocks.
        assert_eq!(blocks.len(), 12);
    }
}
