//! SZ_Interp: multi-level spline-interpolation compressor (the SZ3
//! dynamic-spline algorithm of Zhao et al., ICDE 2021).
//!
//! The 3-D grid is reconstructed coarse-to-fine: at level `ℓ` (stride
//! `s = 2^{ℓ-1}`) every point whose coordinates are multiples of `s` gets
//! predicted by 1-D interpolation — cubic spline when four aligned
//! neighbours exist, linear with two, previous-value at borders — from
//! points already known at stride `2s`. Residuals are quantized and the
//! symbol stream is Huffman + LZ coded like SZ_L/R.
//!
//! Interpolation is a *global* operation over the whole buffer, which is
//! why the paper's cluster (cube-like) arrangement of unit blocks helps it
//! (§3.1, Fig. 5) and why block-structured AMR data ultimately suits the
//! block-based SZ_L/R better (§4.3 insight).

use crate::buffer3::{Buffer3, Dims3};
use crate::codec::{expect_envelope, write_envelope, CodecId};
use crate::huffman;
use crate::kernels::{self, SymbolReader};
use crate::lossless;
use crate::quantizer::{Quantizer, OUTLIER_SYMBOL};
use crate::wire::{CodecError, CodecResult, Reader, Writer};
use std::convert::Infallible;

/// SZ_Interp payload format version (rides in the envelope header).
const VERSION: u8 = 2;

/// Configuration for SZ_Interp.
#[derive(Clone, Copy, Debug)]
pub struct InterpConfig {
    /// Absolute error bound.
    pub abs_eb: f64,
}

impl InterpConfig {
    /// Construct with an absolute error bound.
    pub fn new(abs_eb: f64) -> Self {
        InterpConfig { abs_eb }
    }
}

/// Compress one 3-D buffer.
pub fn compress(data: &Buffer3, cfg: &InterpConfig) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(data, cfg, &mut out);
    out
}

/// Compress one 3-D buffer, **appending** the stream to `out` (the
/// buffer-reusing variant of [`compress`]).
pub fn compress_into(data: &Buffer3, cfg: &InterpConfig, out: &mut Vec<u8>) {
    let dims = data.dims();
    let mut enc = Encoder {
        q: Quantizer::new(cfg.abs_eb),
        vals: data.data(),
        syms: Vec::with_capacity(dims.len()),
        syms_row: vec![0u32; dims.nx],
        outliers: Vec::new(),
    };
    let Ok(()) = traverse(dims, &mut vec![0.0f64; dims.len()], &mut enc);
    debug_assert_eq!(enc.syms.len(), dims.len());

    let mut w = Writer::new();
    w.put_f64(cfg.abs_eb);
    w.put_u32(dims.nx as u32);
    w.put_u32(dims.ny as u32);
    w.put_u32(dims.nz as u32);
    huffman::encode_block_into(&enc.syms, &mut w);
    w.put_u64(enc.outliers.len() as u64);
    w.put_f64s(&enc.outliers);
    let mut env = Writer::from_vec(std::mem::take(out));
    write_envelope(&mut env, CodecId::Interp, VERSION, 0);
    *out = env.into_bytes();
    lossless::compress_into(&w.into_bytes(), out);
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(bytes: &[u8]) -> CodecResult<Buffer3> {
    let p = Payload::parse(bytes)?;
    let mut recon = vec![0.0f64; p.dims.len()];
    let mut dec = SymbolReader {
        q: Quantizer::new(p.abs_eb),
        syms: &p.syms,
        outliers: &p.outliers,
        truncated: TRUNCATED,
    };
    traverse(p.dims, &mut recon, &mut dec)?;
    Ok(Buffer3::from_vec(p.dims, recon))
}

/// One direction of the codec, driven by [`traverse`]: the encoder turns
/// each prediction into a symbol, the decoder each symbol back into a
/// value. Either way the reconstructed value must end up in the slot(s)
/// handed over — later predictions read it.
trait Direction {
    /// What can go wrong ([`Infallible`] for the encoder).
    type Err;
    /// The target at flat index `idx`, predicted as `pred`.
    fn point(&mut self, idx: usize, pred: f64, slot: &mut f64) -> Result<(), Self::Err>;
    /// The x-row of targets starting at flat index `base`, one prediction
    /// per slot.
    fn row(&mut self, base: usize, preds: &[f64], slots: &mut [f64]) -> Result<(), Self::Err>;
}

/// The SZ_Interp traversal — the emission order that *is* the bitstream
/// contract, stated once for both directions (statically dispatched, so
/// each gets its own specialised copy of the nest).
///
/// The anchor `(0,0,0)` comes first, predicted as 0. Then, coarse to
/// fine, every stride runs an X, a Y and a Z pass, each with x fastest,
/// then y, then z.
fn traverse<D: Direction>(dims: Dims3, recon: &mut [f64], dir: &mut D) -> Result<(), D::Err> {
    let mut scratch = vec![0.0f64; dims.nx];
    dir.point(0, 0.0, &mut recon[0])?;
    for s in strides(dims) {
        pass::<0, D>(dims, s, recon, &mut scratch, dir)?;
        pass::<1, D>(dims, s, recon, &mut scratch, dir)?;
        pass::<2, D>(dims, s, recon, &mut scratch, dir)?;
    }
    Ok(())
}

/// One interpolation pass along `AXIS` (0 = x, 1 = y, 2 = z) at stride
/// `s`. Targets sit on odd multiples of `s` along `AXIS`; axes already
/// interpolated at this level (lower index) run over multiples of `s`,
/// the others over multiples of `2s`.
///
/// At stride 1 the Y and Z passes — ¾ of all points — are whole
/// contiguous x-rows whose predictor kind is constant and whose
/// neighbours are *other* rows, already final: no element depends on
/// another element of its row, in either direction, so they are handed
/// over as rows with lane-kernel predictions. Every other target is
/// handed over alone. Prediction reads the buffer at even multiples of
/// `s` along `AXIS` and writes land on odd ones, so in-place is safe.
fn pass<const AXIS: usize, D: Direction>(
    dims: Dims3,
    s: usize,
    recon: &mut [f64],
    scratch: &mut [f64],
    dir: &mut D,
) -> Result<(), D::Err> {
    let nx = dims.nx;
    let n = [nx, dims.ny, dims.nz][AXIS];
    // Flat distance between neighbours `s` apart along AXIS.
    let st = s * [1, nx, nx * dims.ny][AXIS];
    let first = |axis: usize| if axis == AXIS { s } else { 0 };
    let step = |axis: usize| if axis < AXIS { s } else { 2 * s };
    let mut z = first(2);
    while z < dims.nz {
        let mut y = first(1);
        while y < dims.ny {
            let base = dims.idx(0, y, z);
            if AXIS != 0 && s == 1 {
                let (head, tail) = recon.split_at_mut(base);
                let (slots, rest) = tail.split_at_mut(nx);
                let before = |k: usize| &head[base - k * st..][..nx];
                let after = |k: usize| &rest[k * st - nx..][..nx];
                let preds: &[f64] = match row_kind([0, y, z][AXIS], 1, n) {
                    RowKind::Cubic => {
                        let (a, b, c, d) = (before(3), before(1), after(1), after(3));
                        kernels::predict_cubic_row(a, b, c, d, scratch);
                        &*scratch
                    }
                    RowKind::Linear => {
                        kernels::predict_linear_row(before(1), after(1), scratch);
                        &*scratch
                    }
                    RowKind::Prev => before(1),
                };
                dir.row(base, preds, slots)?;
            } else {
                let mut x = first(0);
                while x < nx {
                    let i = base + x;
                    let pred = match row_kind([x, y, z][AXIS], s, n) {
                        // Cubic spline weights (−1/16, 9/16, 9/16, −1/16).
                        RowKind::Cubic => {
                            (-recon[i - 3 * st] + 9.0 * recon[i - st] + 9.0 * recon[i + st]
                                - recon[i + 3 * st])
                                / 16.0
                        }
                        RowKind::Linear => 0.5 * (recon[i - st] + recon[i + st]),
                        RowKind::Prev => recon[i - st],
                    };
                    dir.point(i, pred, &mut recon[i])?;
                    x += step(0);
                }
            }
            y += step(1);
        }
        z += step(2);
    }
    Ok(())
}

/// Which 1-D predictor a target uses. For Y/Z passes the conditions
/// depend only on the coordinate along the pass axis, never on x, so the
/// kind is constant per x-row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RowKind {
    /// Four aligned neighbours at ±s, ±3s: cubic spline.
    Cubic,
    /// Only ±s neighbours: linear midpoint.
    Linear,
    /// Right neighbour out of range: previous value.
    Prev,
}

/// Predictor kind for a target at coordinate `pos` along a pass axis of
/// extent `n` at stride `s`.
#[inline]
fn row_kind(pos: usize, s: usize, n: usize) -> RowKind {
    debug_assert!(pos >= s);
    let has_right = pos + s < n;
    if has_right && pos >= 3 * s && pos + 3 * s < n {
        RowKind::Cubic
    } else if has_right {
        RowKind::Linear
    } else {
        RowKind::Prev
    }
}

/// The encoding [`Direction`]: quantize each value against its
/// prediction, collecting symbols and the raw values of outliers.
struct Encoder<'a> {
    q: Quantizer,
    vals: &'a [f64],
    syms: Vec<u32>,
    syms_row: Vec<u32>,
    outliers: Vec<f64>,
}

impl Direction for Encoder<'_> {
    type Err = Infallible;

    #[inline]
    fn point(&mut self, idx: usize, pred: f64, slot: &mut f64) -> Result<(), Infallible> {
        let (sym, rec) = self.q.quantize_select(self.vals[idx], pred);
        if sym == OUTLIER_SYMBOL {
            self.outliers.push(self.vals[idx]);
        }
        self.syms.push(sym);
        *slot = rec;
        Ok(())
    }

    #[inline]
    fn row(&mut self, base: usize, preds: &[f64], slots: &mut [f64]) -> Result<(), Infallible> {
        let vals = &self.vals[base..base + slots.len()];
        kernels::quantize_row(&self.q, vals, preds, &mut self.syms_row, slots);
        // Outlier raw values leave in the same per-point order the
        // scalar passes produce.
        for (&v, &sym) in vals.iter().zip(&self.syms_row) {
            if sym == OUTLIER_SYMBOL {
                self.outliers.push(v);
            }
        }
        self.syms.extend_from_slice(&self.syms_row);
        Ok(())
    }
}

const TRUNCATED: &str = "SZ_Interp stream truncated";

/// The decoding [`Direction`]: consume symbols (and outlier raw values)
/// in emission order.
impl Direction for SymbolReader<'_> {
    type Err = CodecError;

    #[inline]
    fn point(&mut self, _idx: usize, pred: f64, slot: &mut f64) -> CodecResult<()> {
        let sym = self.take(1)?[0];
        *slot = self.value(sym, pred)?;
        Ok(())
    }

    #[inline]
    fn row(&mut self, _base: usize, preds: &[f64], slots: &mut [f64]) -> CodecResult<()> {
        SymbolReader::row(self, preds, slots)
    }
}

/// The parsed payload of one stream, with every guard that does not
/// need the traversal already applied.
struct Payload {
    abs_eb: f64,
    dims: Dims3,
    syms: Vec<u32>,
    outliers: Vec<f64>,
}

impl Payload {
    fn parse(bytes: &[u8]) -> CodecResult<Payload> {
        let env = expect_envelope(bytes, CodecId::Interp, VERSION)?;
        // The encoder sets no flag bit: any one is a foreign stream shape.
        if env.flags != 0 {
            return Err(CodecError::BadParameter {
                what: "SZ_Interp stream flags",
            });
        }
        let payload = lossless::decompress(&bytes[env.payload_offset..])?;
        let mut r = Reader::new(&payload);
        let abs_eb = r.get_f64()?;
        if !(abs_eb > 0.0 && abs_eb.is_finite()) {
            return Err(CodecError::BadParameter {
                what: "error bound",
            });
        }
        let nx = r.get_u32()? as usize;
        let ny = r.get_u32()? as usize;
        let nz = r.get_u32()? as usize;
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(CodecError::dims(format!("degenerate dims {nx}x{ny}x{nz}")));
        }
        // Each point consumes at least one symbol bit; corrupted dims can't
        // claim more cells than the remaining payload could encode.
        let cells = nx as u128 * ny as u128 * nz as u128;
        if cells > r.remaining() as u128 * 8 + 64 {
            return Err(CodecError::LimitExceeded {
                what: "cells",
                claimed: cells,
                available: r.remaining() as u128 * 8 + 64,
            });
        }
        let dims = Dims3::new(nx, ny, nz);
        let syms = huffman::decode_with_table(r.get_block()?)?;
        if syms.len() != dims.len() {
            return Err(CodecError::dims(format!(
                "symbol count {} != {} points",
                syms.len(),
                dims.len()
            )));
        }
        let n_out = r.get_u64()? as usize;
        let outliers = r.get_f64s(n_out)?;
        Ok(Payload {
            abs_eb,
            dims,
            syms,
            outliers,
        })
    }
}

/// Strides `2^(L-1), …, 2, 1` with `2^L ≥ max_dim` (so the known set
/// bootstraps from the single anchor point).
fn strides(dims: Dims3) -> Vec<usize> {
    let mut s = 1usize;
    while s < dims.max_dim() {
        s <<= 1;
    }
    // s = 2^L ≥ max_dim; first prediction stride is s/2. Empty for a
    // single-point domain (nothing to predict beyond the anchor).
    let mut v = Vec::new();
    let mut cur = s >> 1;
    while cur >= 1 {
        v.push(cur);
        cur >>= 1;
    }
    v
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metrics::ErrorStats;

    // The per-point formulation the shipping code replaced, kept as the
    // oracle: targets enumerated by coordinate, prediction through
    // bounds-checked `Buffer3::get`, one branch per symbol.

    /// The axis a pass interpolates along.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Axis {
        X,
        Y,
        Z,
    }

    /// Enumerate the target points of one pass: along `axis`, coordinates
    /// are odd multiples of `s`; on axes already processed this level the
    /// coordinate runs over multiples of `s`, on axes not yet processed
    /// over multiples of `2s`.
    struct PassTargets {
        s: usize,
        axis: Axis,
        idx: usize,
        counts: (usize, usize, usize),
    }

    impl PassTargets {
        fn new(dims: Dims3, s: usize, axis: Axis) -> Self {
            // #odd multiples of s below n: positions s, 3s, 5s, … < n.
            let odd = |n: usize| {
                if s >= n {
                    0
                } else {
                    (n - s - 1) / (2 * s) + 1
                }
            };
            // #multiples of step below n: 0, step, 2·step, … < n.
            let mult = |n: usize, step: usize| (n - 1) / step + 1;
            let counts = match axis {
                Axis::X => (odd(dims.nx), mult(dims.ny, 2 * s), mult(dims.nz, 2 * s)),
                Axis::Y => (mult(dims.nx, s), odd(dims.ny), mult(dims.nz, 2 * s)),
                Axis::Z => (mult(dims.nx, s), mult(dims.ny, s), odd(dims.nz)),
            };
            PassTargets {
                s,
                axis,
                idx: 0,
                counts,
            }
        }

        fn total(&self) -> usize {
            self.counts.0 * self.counts.1 * self.counts.2
        }
    }

    impl Iterator for PassTargets {
        type Item = (usize, usize, usize);
        fn next(&mut self) -> Option<Self::Item> {
            if self.idx >= self.total() {
                return None;
            }
            let (ci, cj, _ck) = self.counts;
            let a = self.idx % ci;
            let b = (self.idx / ci) % cj;
            let c = self.idx / (ci * cj);
            self.idx += 1;
            let s = self.s;
            Some(match self.axis {
                Axis::X => (s + 2 * s * a, 2 * s * b, 2 * s * c),
                Axis::Y => (s * a, s + 2 * s * b, 2 * s * c),
                Axis::Z => (s * a, s * b, s + 2 * s * c),
            })
        }
    }

    /// 1-D spline prediction along `axis` at stride `s` from the
    /// reconstructed buffer: cubic when both ±3s neighbours are in range,
    /// linear when the +s neighbour exists, previous value otherwise.
    fn predict(
        recon: &Buffer3,
        dims: Dims3,
        s: usize,
        axis: Axis,
        i: usize,
        j: usize,
        k: usize,
    ) -> f64 {
        let (pos, n) = match axis {
            Axis::X => (i, dims.nx),
            Axis::Y => (j, dims.ny),
            Axis::Z => (k, dims.nz),
        };
        let at = |p: usize| match axis {
            Axis::X => recon.get(p, j, k),
            Axis::Y => recon.get(i, p, k),
            Axis::Z => recon.get(i, j, p),
        };
        assert!(pos >= s);
        let has_right = pos + s < n;
        let has_far_left = pos >= 3 * s;
        let has_far_right = pos + 3 * s < n;
        if has_right && has_far_left && has_far_right {
            // Cubic spline weights (−1/16, 9/16, 9/16, −1/16).
            (-at(pos - 3 * s) + 9.0 * at(pos - s) + 9.0 * at(pos + s) - at(pos + 3 * s)) / 16.0
        } else if has_right {
            0.5 * (at(pos - s) + at(pos + s))
        } else {
            at(pos - s)
        }
    }

    /// The per-point decoder: collect each pass's targets, then predict,
    /// branch and place one point at a time.
    fn decompress_reference(bytes: &[u8]) -> CodecResult<Buffer3> {
        let p = Payload::parse(bytes)?;
        let dims = p.dims;
        let q = Quantizer::new(p.abs_eb);
        let mut recon = Buffer3::zeros(dims);
        let mut sym_iter = p.syms.into_iter();
        let mut out_iter = p.outliers.into_iter();
        let truncated = || CodecError::corrupt(TRUNCATED);
        let mut targets = vec![((0, 0, 0), None)];
        for s in strides(dims) {
            for axis in [Axis::X, Axis::Y, Axis::Z] {
                targets.extend(PassTargets::new(dims, s, axis).map(|t| (t, Some((s, axis)))));
            }
        }
        for ((i, j, k), pass) in targets {
            let pred = pass.map_or(0.0, |(s, axis)| predict(&recon, dims, s, axis, i, j, k));
            let sym = sym_iter.next().ok_or_else(truncated)?;
            let v = if sym == OUTLIER_SYMBOL {
                out_iter.next().ok_or_else(truncated)?
            } else {
                q.try_reconstruct(sym, pred)?
            };
            recon.set(i, j, k, v);
        }
        Ok(recon)
    }

    /// Smooth trend plus, per `spikes`, isolated and clustered outliers:
    /// huge finite spikes, NaN and ±∞. Planes with `k % 8 ≥ 5` stay
    /// clean, so rows with zero, one and many outliers all occur.
    pub(crate) fn spiky(dims: Dims3, spikes: bool) -> Buffer3 {
        let mut b = Buffer3::zeros(dims);
        b.fill_with(|i, j, k| {
            let v = (i as f64 * 0.31).sin() + (j as f64 * 0.17).cos() * 0.5 + k as f64 * 0.02;
            if !spikes || k % 8 >= 5 {
                return v;
            }
            match (i + 3 * j + 7 * k) % 41 {
                0 => 1.0e9,
                13 if j % 2 == 1 => f64::NAN,
                20 if k % 2 == 1 => f64::INFINITY,
                27 if k % 3 == 1 => f64::NEG_INFINITY,
                _ if j == 3 && k % 4 == 1 => -7.0e5 * (i + 1) as f64, // a whole poisoned row
                _ => v,
            }
        });
        b
    }

    #[test]
    fn row_decoder_matches_per_point_reference_bitwise() {
        for (nx, ny, nz) in [
            (1, 1, 1),
            (5, 1, 3),
            (16, 4, 7),
            (9, 9, 9),
            (64, 8, 3),
            (32, 32, 64),
        ] {
            let dims = Dims3::new(nx, ny, nz);
            for spikes in [false, true] {
                let data = spiky(dims, spikes);
                for eb in [1e-2, 1e-4] {
                    let stream = compress(&data, &InterpConfig::new(eb));
                    let fast = decompress(&stream).expect("decode");
                    let slow = decompress_reference(&stream).expect("reference decode");
                    assert_eq!(fast.dims(), slow.dims());
                    for (idx, (a, b)) in fast.data().iter().zip(slow.data()).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "dims {dims:?} spikes {spikes} eb {eb}: cell {idx} differs"
                        );
                    }
                    // Outliers are stored raw, so they come back exactly —
                    // NaN payload bits included.
                    for (o, r) in data.data().iter().zip(fast.data()) {
                        if !o.is_finite() || o.abs() > 1.0e5 {
                            assert_eq!(o.to_bits(), r.to_bits());
                        } else {
                            assert!((o - r).abs() <= eb * (1.0 + 1e-12));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn outlier_census_covers_clean_single_and_crowded_rows() {
        // The equivalence test above is only as good as its inputs: make
        // sure the spiky field really produces stride-1 rows with no, one
        // and many outliers.
        let dims = Dims3::new(32, 32, 64);
        let data = spiky(dims, true);
        let back = decompress(&compress(&data, &InterpConfig::new(1e-4))).expect("decode");
        let mut per_row = Vec::new();
        for k in 0..dims.nz {
            for j in 0..dims.ny {
                if j % 2 == 1 || k % 2 == 1 {
                    let raw = (0..dims.nx)
                        .filter(|&i| {
                            let v = data.get(i, j, k);
                            (!v.is_finite() || v.abs() > 1.0e5)
                                && v.to_bits() == back.get(i, j, k).to_bits()
                        })
                        .count();
                    per_row.push(raw);
                }
            }
        }
        assert!(per_row.contains(&0), "no clean row");
        assert!(per_row.contains(&1), "no single-outlier row");
        assert!(per_row.iter().any(|&n| n >= 8), "no crowded row");
    }

    #[test]
    fn pass_targets_cover_every_point_once() {
        for dims in [
            Dims3::cube(8),
            Dims3::cube(9),
            Dims3::new(16, 4, 7),
            Dims3::new(1, 1, 1),
            Dims3::new(5, 1, 3),
        ] {
            let mut seen = vec![false; dims.len()];
            seen[dims.idx(0, 0, 0)] = true; // anchor
            for s in strides(dims) {
                for axis in [Axis::X, Axis::Y, Axis::Z] {
                    for (i, j, k) in PassTargets::new(dims, s, axis) {
                        assert!(i < dims.nx && j < dims.ny && k < dims.nz);
                        let idx = dims.idx(i, j, k);
                        assert!(
                            !seen[idx],
                            "point ({i},{j},{k}) visited twice, dims {dims:?}"
                        );
                        seen[idx] = true;
                    }
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "dims {dims:?}: {} points unvisited",
                seen.iter().filter(|&&s| !s).count()
            );
        }
    }

    fn smooth(n: usize) -> Buffer3 {
        let mut b = Buffer3::zeros(Dims3::cube(n));
        b.fill_with(|i, j, k| {
            let (x, y, z) = (
                i as f64 / n as f64,
                j as f64 / n as f64,
                k as f64 / n as f64,
            );
            (3.0 * x + 1.0).sin() * (2.0 * y).cos() * (z + 0.3).sqrt()
        });
        b
    }

    #[test]
    fn roundtrip_respects_bound() {
        for n in [8usize, 15, 32] {
            let data = smooth(n);
            for eb in [1e-2, 1e-4] {
                let c = compress(&data, &InterpConfig::new(eb));
                let back = decompress(&c).expect("decode");
                let stats = ErrorStats::compare(data.data(), back.data());
                assert!(
                    stats.max_abs_err <= eb * (1.0 + 1e-12),
                    "n={n} eb={eb}: {}",
                    stats.max_abs_err
                );
            }
        }
    }

    #[test]
    fn smooth_data_high_ratio() {
        let data = smooth(32);
        let c = compress(&data, &InterpConfig::new(1e-3));
        let cr = (data.dims().len() * 8) as f64 / c.len() as f64;
        assert!(cr > 20.0, "interp CR {cr} too low on smooth data");
    }

    #[test]
    fn single_point_domain() {
        let b = Buffer3::from_vec(Dims3::new(1, 1, 1), vec![13.0]);
        let c = compress(&b, &InterpConfig::new(1e-3));
        let back = decompress(&c).expect("decode");
        assert!((back.get(0, 0, 0) - 13.0).abs() <= 1e-3);
    }

    #[test]
    fn anisotropic_dims_roundtrip() {
        let dims = Dims3::new(64, 8, 3);
        let mut b = Buffer3::zeros(dims);
        b.fill_with(|i, j, k| (i as f64 * 0.1).cos() + j as f64 * 0.01 - k as f64);
        let c = compress(&b, &InterpConfig::new(1e-3));
        let back = decompress(&c).expect("decode");
        let stats = ErrorStats::compare(b.data(), back.data());
        assert!(stats.max_abs_err <= 1e-3 * (1.0 + 1e-12));
    }

    #[test]
    fn corrupted_stream_is_error() {
        let c = compress(&smooth(8), &InterpConfig::new(1e-3));
        assert!(decompress(&c[..6]).is_err());
        let mut bad = c.clone();
        bad[2] ^= 0x40;
        assert!(decompress(&bad).is_err());
    }
}
