//! Row-oriented predict+quantize kernels for the SZ hot loops.
//!
//! The per-point closures in `lr.rs`/`interp.rs` cost an index
//! computation, a bounds check, and an unpredictable outlier branch per
//! cell. These kernels restructure the same work into contiguous-row
//! passes: neighbour loads become slice iteration, the outlier branch is
//! replaced by [`Quantizer::quantize_select`]'s data-dependent selects
//! (hoisting the rare outlier handling into a separate scalar sweep over
//! the produced symbol row), and loops with no loop-carried dependence
//! (affine prediction, interpolation prediction) autovectorize into
//! `f64x4`-style lanes on stable Rust.
//!
//! **Bitstream invariant:** every kernel evaluates exactly the
//! floating-point expression tree of the scalar code it replaces — same
//! association, same operand order, same comparison order — so symbols,
//! outliers, and reconstructions are bit-identical. The per-point forms
//! live on as `#[cfg(test)]` oracles here, in `interp.rs` and in `lr.rs`; the
//! golden-stream corpus under `crates/amric/tests/golden/` pins the
//! end-to-end bytes and the decoded values.

use crate::buffer3::{Dims3, View3};
use crate::quantizer::{Quantizer, OUTLIER_SYMBOL};
use crate::regression::Coefficients;
use crate::wire::{CodecError, CodecResult};

/// Fused affine-predict + quantize over one x-row of a regression block.
///
/// The prediction at local `(i, y, z)` is `((b0 + bx·i) + by) + bz` with
/// `by = b[1]·y`, `bz = b[2]·z` hoisted by the caller — the exact
/// expression tree of [`Coefficients::predict`] (the hoisted products do
/// not depend on `i`, and the sum order is unchanged). No loop-carried
/// dependence, so the loop vectorizes.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn quantize_affine_row(
    q: &Quantizer,
    vals: &[f64],
    b0: f64,
    bx: f64,
    by: f64,
    bz: f64,
    syms: &mut [u32],
    recon: &mut [f64],
) {
    assert_eq!(vals.len(), syms.len());
    assert_eq!(vals.len(), recon.len());
    for (i, ((&v, s), r)) in vals
        .iter()
        .zip(syms.iter_mut())
        .zip(recon.iter_mut())
        .enumerate()
    {
        let pred = ((b0 + bx * i as f64) + by) + bz;
        let (sym, rec) = q.quantize_select(v, pred);
        *s = sym;
        *r = rec;
    }
}

/// Quantize one row of values against a precomputed prediction row.
/// The interp passes build `preds` with the row predictors below, then
/// fuse quantization in a second lane loop (no dependence → vectorizes).
#[inline]
pub fn quantize_row(
    q: &Quantizer,
    vals: &[f64],
    preds: &[f64],
    syms: &mut [u32],
    recon: &mut [f64],
) {
    assert_eq!(vals.len(), preds.len());
    assert_eq!(vals.len(), syms.len());
    assert_eq!(vals.len(), recon.len());
    for (((&v, &p), s), r) in vals
        .iter()
        .zip(preds.iter())
        .zip(syms.iter_mut())
        .zip(recon.iter_mut())
    {
        let (sym, rec) = q.quantize_select(v, p);
        *s = sym;
        *r = rec;
    }
}

/// Reconstruct one row of symbols against a prediction row — the decode
/// twin of [`quantize_row`], a lane loop over
/// [`Quantizer::reconstruct_select`]. Returns whether any symbol was the
/// outlier marker or out of range; the caller then redoes the row point
/// by point (raw values, typed errors), which is the rare path.
#[inline]
pub fn reconstruct_row(q: &Quantizer, syms: &[u32], preds: &[f64], recon: &mut [f64]) -> bool {
    assert_eq!(syms.len(), preds.len());
    assert_eq!(syms.len(), recon.len());
    let mut flagged = false;
    for ((&s, &p), r) in syms.iter().zip(preds.iter()).zip(recon.iter_mut()) {
        let (v, bad) = q.reconstruct_select(s, p);
        *r = v;
        flagged |= bad;
    }
    flagged
}

/// The decode side of a quantized stream: its symbols and the raw values
/// of its outliers, consumed in emission order.
pub(crate) struct SymbolReader<'a> {
    pub q: Quantizer,
    pub syms: &'a [u32],
    pub outliers: &'a [f64],
    /// What a stream that runs out of either is reported as.
    pub truncated: &'static str,
}

impl<'a> SymbolReader<'a> {
    /// The next `n` symbols.
    #[inline]
    pub fn take(&mut self, n: usize) -> CodecResult<&'a [u32]> {
        let (syms, rest) = self
            .syms
            .split_at_checked(n)
            .ok_or_else(|| CodecError::corrupt(self.truncated))?;
        self.syms = rest;
        Ok(syms)
    }

    /// Pass over the next `n` symbols and the raw values their outlier
    /// markers stand for, reconstructing nothing.
    #[inline]
    pub fn skip(&mut self, n: usize) -> CodecResult<()> {
        let raw = self
            .take(n)?
            .iter()
            .filter(|&&s| s == OUTLIER_SYMBOL)
            .count();
        self.outliers = self
            .outliers
            .get(raw..)
            .ok_or_else(|| CodecError::corrupt(self.truncated))?;
        Ok(())
    }

    /// The per-point rule: an outlier marker takes the next raw value,
    /// anything else must be a valid quantization symbol.
    #[inline]
    pub fn value(&mut self, sym: u32, pred: f64) -> CodecResult<f64> {
        if sym != OUTLIER_SYMBOL {
            return self.q.try_reconstruct(sym, pred);
        }
        let (&v, rest) = self
            .outliers
            .split_first()
            .ok_or_else(|| CodecError::corrupt(self.truncated))?;
        self.outliers = rest;
        Ok(v)
    }

    /// One row of values whose predictions do not depend on each other:
    /// [`reconstruct_row`], and when it flags an outlier marker or an
    /// out-of-range symbol the row again by the per-point rule, in row
    /// order — the order the raw values were stored in, and the order in
    /// which a per-point decoder would have met the first bad symbol.
    #[inline]
    pub fn row(&mut self, preds: &[f64], recon: &mut [f64]) -> CodecResult<()> {
        let syms = self.take(recon.len())?;
        if reconstruct_row(&self.q, syms, preds, recon) {
            for ((&sym, &pred), slot) in syms.iter().zip(preds).zip(recon) {
                *slot = self.value(sym, pred)?;
            }
        }
        Ok(())
    }

    /// One x-row of the Lorenzo decode pass: the mirror of
    /// [`lorenzo_quantize_row`], same neighbour rows, rolling registers
    /// and sum order. A flagged symbol is settled in the row — a raw
    /// outlier feeds the next cell's prediction, so it cannot wait.
    #[inline]
    pub fn lorenzo_row(
        &mut self,
        jm: &[f64],
        km: &[f64],
        jkm: &[f64],
        left: [f64; 4],
        recon: &mut [f64],
    ) -> CodecResult<()> {
        let syms = self.take(recon.len())?;
        assert_eq!(syms.len(), jm.len());
        assert_eq!(syms.len(), km.len());
        assert_eq!(syms.len(), jkm.len());
        let [mut l00, mut l10, mut l01, mut l11] = left;
        for i in 0..syms.len() {
            let pred = l00 + jm[i] + km[i] - l10 - l01 - jkm[i] + l11;
            let (mut v, flagged) = self.q.reconstruct_select(syms[i], pred);
            if flagged {
                v = self.value(syms[i], pred)?;
            }
            recon[i] = v;
            l00 = v;
            l10 = jm[i];
            l01 = km[i];
            l11 = jkm[i];
        }
        Ok(())
    }
}

/// Cubic interpolation predictor over whole rows:
/// `(-a + 9·b + 9·c - d) / 16` per element — the expression the scalar
/// passes of `interp` evaluate, with the four stride-`s` neighbour rows
/// passed as contiguous slices.
#[inline]
pub fn predict_cubic_row(a: &[f64], b: &[f64], c: &[f64], d: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), out.len());
    assert_eq!(b.len(), out.len());
    assert_eq!(c.len(), out.len());
    assert_eq!(d.len(), out.len());
    for i in 0..out.len() {
        out[i] = (-a[i] + 9.0 * b[i] + 9.0 * c[i] - d[i]) / 16.0;
    }
}

/// Linear interpolation predictor over whole rows: `0.5 · (b + c)`.
#[inline]
pub fn predict_linear_row(b: &[f64], c: &[f64], out: &mut [f64]) {
    assert_eq!(b.len(), out.len());
    assert_eq!(c.len(), out.len());
    for i in 0..out.len() {
        out[i] = 0.5 * (b[i] + c[i]);
    }
}

/// One x-row of the Lorenzo encode pass.
///
/// The prediction feeds on the value written one step earlier
/// (`recon[i-1]`), so the loop is inherently sequential; the win is
/// structural: the 7 closure calls with per-neighbour `isize` bounds
/// checks become three slice loads plus four rolling registers, and the
/// outlier branch collapses into selects. `left` holds the recon values
/// at `(i₀−1, ·)` for the four stencil rows (zeros at the domain face),
/// in stencil order `[(j,k), (j−1,k), (j,k−1), (j−1,k−1)]`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn lorenzo_quantize_row(
    q: &Quantizer,
    vals: &[f64],
    jm: &[f64],
    km: &[f64],
    jkm: &[f64],
    left: [f64; 4],
    syms: &mut [u32],
    recon: &mut [f64],
) {
    assert_eq!(vals.len(), jm.len());
    assert_eq!(vals.len(), km.len());
    assert_eq!(vals.len(), jkm.len());
    assert_eq!(vals.len(), syms.len());
    assert_eq!(vals.len(), recon.len());
    let [mut l00, mut l10, mut l01, mut l11] = left;
    for i in 0..vals.len() {
        // Exactly lorenzo3's inclusion–exclusion sum order.
        let pred = l00 + jm[i] + km[i] - l10 - l01 - jkm[i] + l11;
        let (sym, rec) = q.quantize_select(vals[i], pred);
        syms[i] = sym;
        recon[i] = rec;
        l00 = rec;
        l10 = jm[i];
        l01 = km[i];
        l11 = jkm[i];
    }
}

/// Fused single-sweep predictor-selection statistics for one block:
/// returns `(regression_error, lorenzo_error)` — the values the test
/// oracles `regression::regression_block_error` and
/// `lorenzo::lorenzo3_block_error` produce, accumulated in the
/// same sequential point order but in one pass over the block instead of
/// two (the block is walked once while it is L1-resident).
///
/// The Lorenzo statistic keeps SZ2's zero-extension semantics: stencil
/// reads outside the *domain* contribute 0 (see `lorenzo.rs` for why
/// that is the faithful selection statistic).
pub fn selection_errors(
    data: View3<'_>,
    oi: usize,
    oj: usize,
    ok: usize,
    bd: Dims3,
    c: &Coefficients,
) -> (f64, f64) {
    let dims = data.dims();
    let flat = data.data();
    let plane = dims.nx * dims.ny;
    let mut reg_err = 0.0;
    let mut lor_err = 0.0;
    for k in 0..bd.nz {
        let bz = c.b[2] * k as f64;
        let ka = ok + k;
        for j in 0..bd.ny {
            let by = c.b[1] * j as f64;
            let ja = oj + j;
            let base = dims.idx(oi, ja, ka);
            let row = &flat[base..base + bd.nx];
            // Neighbour rows read the original data (never the block), so
            // only the domain faces zero-extend.
            let zeros = [0.0f64; 1];
            let (jm, km, jkm): (&[f64], &[f64], &[f64]) = (
                if ja > 0 {
                    &flat[base - dims.nx..base - dims.nx + bd.nx]
                } else {
                    &zeros[..0]
                },
                if ka > 0 {
                    &flat[base - plane..base - plane + bd.nx]
                } else {
                    &zeros[..0]
                },
                if ja > 0 && ka > 0 {
                    &flat[base - plane - dims.nx..base - plane - dims.nx + bd.nx]
                } else {
                    &zeros[..0]
                },
            );
            let (mut l00, mut l10, mut l01, mut l11) = if oi > 0 {
                (
                    flat[base - 1],
                    if ja > 0 {
                        flat[base - dims.nx - 1]
                    } else {
                        0.0
                    },
                    if ka > 0 { flat[base - plane - 1] } else { 0.0 },
                    if ja > 0 && ka > 0 {
                        flat[base - plane - dims.nx - 1]
                    } else {
                        0.0
                    },
                )
            } else {
                (0.0, 0.0, 0.0, 0.0)
            };
            for (i, &v) in row.iter().enumerate() {
                let pred_reg = ((c.b0 + c.b[0] * i as f64) + by) + bz;
                reg_err += (v - pred_reg).abs();
                let (vjm, vkm, vjkm) = (
                    jm.get(i).copied().unwrap_or(0.0),
                    km.get(i).copied().unwrap_or(0.0),
                    jkm.get(i).copied().unwrap_or(0.0),
                );
                let pred_lor = l00 + vjm + vkm - l10 - l01 - vjkm + l11;
                lor_err += (v - pred_lor).abs();
                l00 = v;
                l10 = vjm;
                l01 = vkm;
                l11 = vjkm;
            }
        }
    }
    (reg_err, lor_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer3::{AsView3, Buffer3};
    use crate::lorenzo::{lorenzo3, lorenzo3_block_error};
    use crate::quantizer::{OUTLIER_SYMBOL, QUANT_RADIUS};
    use crate::regression::{fit_block, regression_block_error};

    /// Per-point form of [`quantize_affine_row`] (original scalar path):
    /// full predict expression and the branchy [`Quantizer::quantize`].
    #[allow(clippy::too_many_arguments)]
    fn quantize_affine_row_reference(
        q: &Quantizer,
        vals: &[f64],
        b0: f64,
        bx: f64,
        by: f64,
        bz: f64,
        syms: &mut [u32],
        recon: &mut [f64],
    ) {
        for i in 0..vals.len() {
            let pred = ((b0 + bx * i as f64) + by) + bz;
            let (sym, rec) = q.quantize(vals[i], pred);
            syms[i] = sym;
            recon[i] = rec;
        }
    }

    /// Per-point form of [`quantize_row`] through the branchy quantizer.
    fn quantize_row_reference(
        q: &Quantizer,
        vals: &[f64],
        preds: &[f64],
        syms: &mut [u32],
        recon: &mut [f64],
    ) {
        for i in 0..vals.len() {
            let (sym, rec) = q.quantize(vals[i], preds[i]);
            syms[i] = sym;
            recon[i] = rec;
        }
    }

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    fn noisy_buffer(dims: Dims3, seed: u64) -> Buffer3 {
        let mut b = Buffer3::zeros(dims);
        let mut s = seed;
        b.fill_with(|i, j, k| {
            (i as f64 * 0.3).sin() + j as f64 * 0.11 - k as f64 * 0.07
                + lcg(&mut s) * 0.05
                + if (i + 2 * j + 3 * k) % 53 == 0 {
                    40.0
                } else {
                    0.0
                }
        });
        b
    }

    #[test]
    fn affine_row_matches_reference() {
        let q = Quantizer::new(1e-3);
        let mut s = 7u64;
        let vals: Vec<f64> = (0..64)
            .map(|i| 0.4 + 0.03 * i as f64 + lcg(&mut s) * 0.01 + if i == 17 { 99.0 } else { 0.0 })
            .collect();
        let (mut sy_a, mut sy_b) = (vec![0u32; 64], vec![0u32; 64]);
        let (mut re_a, mut re_b) = (vec![0.0; 64], vec![0.0; 64]);
        quantize_affine_row(&q, &vals, 0.4, 0.03, 0.2, -0.1, &mut sy_a, &mut re_a);
        quantize_affine_row_reference(&q, &vals, 0.4, 0.03, 0.2, -0.1, &mut sy_b, &mut re_b);
        assert_eq!(sy_a, sy_b);
        assert!(sy_a.contains(&OUTLIER_SYMBOL), "spike must be an outlier");
        for (a, b) in re_a.iter().zip(&re_b) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pred_row_matches_reference() {
        let q = Quantizer::new(1e-4);
        let mut s = 11u64;
        let vals: Vec<f64> = (0..100).map(|_| lcg(&mut s) * 3.0).collect();
        let preds: Vec<f64> = vals.iter().map(|v| v + lcg(&mut s) * 0.01).collect();
        let (mut sy_a, mut sy_b) = (vec![0u32; 100], vec![0u32; 100]);
        let (mut re_a, mut re_b) = (vec![0.0; 100], vec![0.0; 100]);
        quantize_row(&q, &vals, &preds, &mut sy_a, &mut re_a);
        quantize_row_reference(&q, &vals, &preds, &mut sy_b, &mut re_b);
        assert_eq!(sy_a, sy_b);
        for (a, b) in re_a.iter().zip(&re_b) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reconstruct_row_matches_per_point_and_flags_bad_symbols() {
        let q = Quantizer::new(1e-4);
        let mut s = 13u64;
        let preds: Vec<f64> = (0..67).map(|_| lcg(&mut s) * 3.0).collect();
        // Every in-range symbol class: both ends, the centre, the bulk.
        let clean: Vec<u32> = (0..67u32)
            .map(|i| match i {
                0 => 1,
                1 => 2 * QUANT_RADIUS as u32 - 1,
                2 => QUANT_RADIUS as u32,
                _ => (QUANT_RADIUS as u32 - 33) + i,
            })
            .collect();
        let mut recon = vec![0.0; 67];
        assert!(!reconstruct_row(&q, &clean, &preds, &mut recon));
        for ((&sym, &p), r) in clean.iter().zip(&preds).zip(&recon) {
            assert_eq!(r.to_bits(), q.try_reconstruct(sym, p).unwrap().to_bits());
        }
        // One bad symbol anywhere in the row raises the flag; the clean
        // lanes around it keep their values.
        for bad in [OUTLIER_SYMBOL, 2 * QUANT_RADIUS as u32, u32::MAX] {
            for at in [0, 31, 66] {
                let mut syms = clean.clone();
                syms[at] = bad;
                let mut again = vec![0.0; 67];
                assert!(reconstruct_row(&q, &syms, &preds, &mut again));
                for x in (0..67).filter(|&x| x != at) {
                    assert_eq!(again[x].to_bits(), recon[x].to_bits());
                }
            }
        }
    }

    #[test]
    fn lorenzo_row_matches_stencil() {
        // Drive the row kernel over a full small domain and compare every
        // prediction-side effect against the closure-based lorenzo3 pass.
        let q = Quantizer::new(1e-3);
        let dims = Dims3::new(9, 4, 3);
        let data = noisy_buffer(dims, 5);
        // Reference pass.
        let mut recon_ref = Buffer3::zeros(dims);
        let mut syms_ref = Vec::new();
        for k in 0..dims.nz {
            for j in 0..dims.ny {
                for i in 0..dims.nx {
                    let pred = lorenzo3(&recon_ref, i, j, k);
                    let (sym, rec) = q.quantize(data.get(i, j, k), pred);
                    syms_ref.push(sym);
                    recon_ref.set(i, j, k, rec);
                }
            }
        }
        // Kernel pass, row by row.
        let mut recon = Buffer3::zeros(dims);
        let mut syms = vec![0u32; dims.nx];
        let mut all_syms = Vec::new();
        let zeros = vec![0.0; dims.nx];
        let plane = dims.nx * dims.ny;
        for k in 0..dims.nz {
            for j in 0..dims.ny {
                let base = dims.idx(0, j, k);
                let (head, tail) = recon.data_mut().split_at_mut(base);
                let jm = if j > 0 {
                    &head[base - dims.nx..base - dims.nx + dims.nx]
                } else {
                    &zeros[..]
                };
                let km = if k > 0 {
                    &head[base - plane..base - plane + dims.nx]
                } else {
                    &zeros[..]
                };
                let jkm = if j > 0 && k > 0 {
                    &head[base - plane - dims.nx..base - plane - dims.nx + dims.nx]
                } else {
                    &zeros[..]
                };
                let row_base = dims.idx(0, j, k);
                let vals = &data.data()[row_base..row_base + dims.nx];
                lorenzo_quantize_row(
                    &q,
                    vals,
                    jm,
                    km,
                    jkm,
                    [0.0; 4],
                    &mut syms,
                    &mut tail[..dims.nx],
                );
                all_syms.extend_from_slice(&syms);
            }
        }
        assert_eq!(all_syms, syms_ref);
        for (a, b) in recon.data().iter().zip(recon_ref.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fused_selection_matches_separate_sweeps() {
        for dims in [Dims3::new(13, 7, 9), Dims3::cube(6), Dims3::new(6, 1, 1)] {
            let data = noisy_buffer(dims, 23);
            let bs = 6;
            let mut ok = 0;
            while ok < dims.nz {
                let bz = bs.min(dims.nz - ok);
                let mut oj = 0;
                while oj < dims.ny {
                    let by = bs.min(dims.ny - oj);
                    let mut oi = 0;
                    while oi < dims.nx {
                        let bx = bs.min(dims.nx - oi);
                        let bd = Dims3::new(bx, by, bz);
                        let c = fit_block(data.view(), oi, oj, ok, bd);
                        let (reg, lor) = selection_errors(data.view(), oi, oj, ok, bd, &c);
                        let reg_ref = regression_block_error(&data, oi, oj, ok, bd, &c);
                        let lor_ref = lorenzo3_block_error(&data, oi, oj, ok, bd);
                        assert_eq!(reg.to_bits(), reg_ref.to_bits(), "block ({oi},{oj},{ok})");
                        assert_eq!(lor.to_bits(), lor_ref.to_bits(), "block ({oi},{oj},{ok})");
                        oi += bs;
                    }
                    oj += bs;
                }
                ok += bs;
            }
        }
    }

    #[test]
    fn predict_rows_formulas() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let c = [5.0, 6.0];
        let d = [7.0, 8.0];
        let mut out = [0.0; 2];
        predict_cubic_row(&a, &b, &c, &d, &mut out);
        for i in 0..2 {
            let expect = (-a[i] + 9.0 * b[i] + 9.0 * c[i] - d[i]) / 16.0;
            assert_eq!(out[i].to_bits(), expect.to_bits());
        }
        predict_linear_row(&b, &c, &mut out);
        for i in 0..2 {
            assert_eq!(out[i].to_bits(), (0.5 * (b[i] + c[i])).to_bits());
        }
    }
}
