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

use crate::buffer3::{AsView3, Buffer3, Dims3, View3};
use crate::codec::{
    expect_envelope, total_cells, write_envelope, Codec, CodecId, StreamInfo, FLAG_EMPTY,
};
use crate::huffman;
use crate::kernels;
use crate::lorenzo::lorenzo3;
use crate::lossless;
use crate::quantizer::{Quantizer, OUTLIER_SYMBOL, QUANT_RADIUS};
use crate::regression::{fit_block, CoefficientCodec};
pub use crate::scratch::with_lr_scratch as with_thread_scratch;
use crate::wire::{CodecError, CodecResult, Reader, Writer};

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
    compress_domains_pooled(domains, cfg, &mut out);
    out
}

/// Like [`compress_domains_into`] but on the calling thread's scratch —
/// the zero-alloc path for `&self` contexts (`Codec` impls, chunk
/// filters) that cannot thread an explicit [`LrScratch`] through.
pub fn compress_domains_pooled<U: AsView3>(domains: &[U], cfg: &LrConfig, out: &mut Vec<u8>) {
    with_thread_scratch(|s| compress_domains_into(domains, cfg, s, out));
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
    let mut coeff_codec = CoefficientCodec::new(cfg.abs_eb, cfg.block_size);
    let q = Quantizer::new(cfg.abs_eb);
    for domain in domains {
        let domain = domain.view();
        let dims = domain.dims();
        w.put_u32(dims.nx as u32);
        w.put_u32(dims.ny as u32);
        w.put_u32(dims.nz as u32);
        compress_one_domain(domain, cfg, &q, &mut coeff_codec, scratch);
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
    // Selection bitmap.
    let nblocks = r.get_u64()? as usize;
    let sel_bytes = r.get_raw(nblocks.div_ceil(8))?;
    let selection: Vec<bool> = (0..nblocks)
        .map(|i| sel_bytes[i / 8] >> (7 - i % 8) & 1 == 1)
        .collect();
    // Coefficient stream.
    let coeff_syms = huffman::decode_with_table(r.get_block()?)?;
    let n_coeff_out = r.get_u64()? as usize;
    let coeff_outliers = r.get_f64s(n_coeff_out)?;
    // Data stream.
    let data_syms = huffman::decode_with_table(r.get_block()?)?;
    let n_out = r.get_u64()? as usize;
    let data_outliers = r.get_f64s(n_out)?;

    let cfg = LrConfig { abs_eb, block_size };
    let q = Quantizer::new(abs_eb);
    let mut coeff_codec = CoefficientCodec::new(abs_eb, block_size);
    let mut sel_iter = selection.into_iter();
    let mut sym_iter = data_syms.into_iter();
    let mut out_iter = data_outliers.into_iter();
    let mut csym_iter = coeff_syms.into_iter();
    let mut cout_iter = coeff_outliers.into_iter();
    let mut result = Vec::with_capacity(ndomains);
    for d in dims {
        let buf = decompress_one_domain(
            d,
            &cfg,
            &q,
            &mut coeff_codec,
            &mut sel_iter,
            &mut sym_iter,
            &mut out_iter,
            &mut csym_iter,
            &mut cout_iter,
        )?;
        result.push(buf);
    }
    Ok(result)
}

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

fn compress_one_domain(
    data: View3<'_>,
    cfg: &LrConfig,
    q: &Quantizer,
    coeff_codec: &mut CoefficientCodec,
    scratch: &mut LrScratch,
) {
    let LrScratch {
        streams: s, recon, ..
    } = scratch;
    let dims = data.dims();
    let plane = dims.nx * dims.ny;
    recon.resize(dims.len(), 0.0);
    let mut syms_row = [0u32; MAX_BLOCK_EDGE];
    for ((oi, oj, ok), bd) in blocks_of(dims, cfg.block_size) {
        // Predictor selection on the original data (SZ2 style): one fit,
        // then both selection statistics in a single fused sweep while
        // the block is cache-resident.
        let regression = if bd.len() >= MIN_REGRESSION_CELLS {
            let coeffs = fit_block(data, oi, oj, ok, bd);
            let (reg_err, lor_err) = kernels::selection_errors(data, oi, oj, ok, bd, &coeffs);
            (reg_err < lor_err).then_some(coeffs)
        } else {
            None
        };
        s.selection.push(regression.is_some());
        if let Some(coeffs) = regression {
            let qc = coeff_codec.encode(&coeffs, &mut s.coeff_syms, &mut s.coeff_outliers);
            for k in 0..bd.nz {
                let bz = qc.b[2] * k as f64;
                for j in 0..bd.ny {
                    let by = qc.b[1] * j as f64;
                    let base = dims.idx(oi, oj + j, ok + k);
                    let vals = &data.data()[base..base + bd.nx];
                    kernels::quantize_affine_row(
                        q,
                        vals,
                        qc.b0,
                        qc.b[0],
                        by,
                        bz,
                        &mut syms_row[..bd.nx],
                        &mut recon[base..base + bd.nx],
                    );
                    s.drain_row(vals, &syms_row[..bd.nx]);
                }
            }
        } else {
            for k in 0..bd.nz {
                let ka = ok + k;
                for j in 0..bd.ny {
                    let ja = oj + j;
                    let base = dims.idx(oi, ja, ka);
                    let vals = &data.data()[base..base + bd.nx];
                    // All stencil neighbours live strictly before this
                    // row in traversal order, so splitting at the row
                    // start gives aliasing-free read slices.
                    let (head, tail) = recon.split_at_mut(base);
                    let jm = if ja > 0 {
                        &head[base - dims.nx..base - dims.nx + bd.nx]
                    } else {
                        &ZEROS[..bd.nx]
                    };
                    let km = if ka > 0 {
                        &head[base - plane..base - plane + bd.nx]
                    } else {
                        &ZEROS[..bd.nx]
                    };
                    let jkm = if ja > 0 && ka > 0 {
                        &head[base - plane - dims.nx..base - plane - dims.nx + bd.nx]
                    } else {
                        &ZEROS[..bd.nx]
                    };
                    let left = if oi > 0 {
                        [
                            head[base - 1],
                            if ja > 0 {
                                head[base - dims.nx - 1]
                            } else {
                                0.0
                            },
                            if ka > 0 { head[base - plane - 1] } else { 0.0 },
                            if ja > 0 && ka > 0 {
                                head[base - plane - dims.nx - 1]
                            } else {
                                0.0
                            },
                        ]
                    } else {
                        [0.0; 4]
                    };
                    kernels::lorenzo_quantize_row(
                        q,
                        vals,
                        jm,
                        km,
                        jkm,
                        left,
                        &mut syms_row[..bd.nx],
                        &mut tail[..bd.nx],
                    );
                    s.drain_row(vals, &syms_row[..bd.nx]);
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn decompress_one_domain(
    dims: Dims3,
    cfg: &LrConfig,
    q: &Quantizer,
    coeff_codec: &mut CoefficientCodec,
    sel_iter: &mut impl Iterator<Item = bool>,
    sym_iter: &mut impl Iterator<Item = u32>,
    out_iter: &mut impl Iterator<Item = f64>,
    csym_iter: &mut impl Iterator<Item = u32>,
    cout_iter: &mut impl Iterator<Item = f64>,
) -> CodecResult<Buffer3> {
    let mut recon = Buffer3::zeros(dims);
    let truncated = || CodecError::corrupt("SZ_L/R stream truncated");
    for ((oi, oj, ok), bd) in blocks_of(dims, cfg.block_size) {
        let use_regression = sel_iter.next().ok_or_else(truncated)?;
        if use_regression {
            let qc = coeff_codec.decode(csym_iter, cout_iter)?;
            for k in 0..bd.nz {
                for j in 0..bd.ny {
                    for i in 0..bd.nx {
                        let sym = sym_iter.next().ok_or_else(truncated)?;
                        let v = if sym == OUTLIER_SYMBOL {
                            out_iter.next().ok_or_else(truncated)?
                        } else {
                            // try_reconstruct: a corrupt Huffman table can
                            // smuggle any u32 here — typed error, not
                            // silent garbage.
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
    Ok(recon)
}

/// [`Codec`] adapter for SZ_L/R with Shared Lossless Encoding: every unit
/// block becomes one prediction domain under a single shared Huffman tree.
#[derive(Clone, Copy, Debug)]
pub struct LrCodec {
    /// The SZ_L/R configuration used for compression (ignored on decode —
    /// streams are self-describing).
    pub cfg: LrConfig,
}

impl LrCodec {
    /// Build from a configuration.
    pub fn new(cfg: LrConfig) -> Self {
        LrCodec { cfg }
    }
}

impl Default for LrCodec {
    /// Decode-capable default (compression uses a 1e-3 absolute bound).
    fn default() -> Self {
        LrCodec::new(LrConfig::new(1e-3))
    }
}

impl Codec for LrCodec {
    fn id(&self) -> CodecId {
        CodecId::LrSle
    }

    fn compress_into(&self, units: &[Buffer3], out: &mut Vec<u8>) -> CodecResult<StreamInfo> {
        let start = out.len();
        if units.is_empty() {
            let mut w = Writer::from_vec(std::mem::take(out));
            write_envelope(&mut w, CodecId::LrSle, VERSION, FLAG_EMPTY);
            *out = w.into_bytes();
        } else {
            compress_domains_pooled(units, &self.cfg, out);
        }
        Ok(StreamInfo {
            codec: CodecId::LrSle,
            bytes: out.len() - start,
            units: units.len(),
            cells: total_cells(units),
        })
    }

    fn decompress(&self, bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
        let env = expect_envelope(bytes, CodecId::LrSle, VERSION)?;
        if env.flags & FLAG_EMPTY != 0 {
            return Ok(Vec::new());
        }
        decompress_domains(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ErrorStats;

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
