//! Per-block linear-regression predictor (the "R" of SZ_L/R).
//!
//! Each block fits `f(x,y,z) ≈ β₀ + β₁·x + β₂·y + β₃·z` (local block
//! coordinates) by closed-form least squares — separable on a full
//! rectangular grid. Coefficients are themselves quantized (delta-coded
//! against the previous regression block, as SZ2 does) so they ride in the
//! compressed stream at a few bits each instead of 32 raw bytes per block.

use crate::buffer3::{Dims3, View3};
use crate::quantizer::{Quantizer, OUTLIER_SYMBOL};
use crate::wire::{CodecError, CodecResult};

/// Fitted (or reconstructed) regression coefficients for one block.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Coefficients {
    /// Intercept at block-local (0,0,0).
    pub b0: f64,
    /// Slopes along x, y, z in cells.
    pub b: [f64; 3],
}

impl Coefficients {
    /// Predicted value at block-local coordinates.
    #[inline]
    pub fn predict(&self, x: usize, y: usize, z: usize) -> f64 {
        self.b0 + self.b[0] * x as f64 + self.b[1] * y as f64 + self.b[2] * z as f64
    }
}

/// Least-squares fit over the block with origin `(oi, oj, ok)` and shape
/// `bd` inside `data`. Degenerate axes (extent 1) get slope 0.
pub fn fit_block(data: View3<'_>, oi: usize, oj: usize, ok: usize, bd: Dims3) -> Coefficients {
    let n = bd.len() as f64;
    let mean_axis = |len: usize| (len as f64 - 1.0) / 2.0;
    let (mx, my, mz) = (mean_axis(bd.nx), mean_axis(bd.ny), mean_axis(bd.nz));
    // Σ (x−x̄)² over the grid factorizes to N/len · Σ_axis (x−x̄)².
    let sq = |len: usize| -> f64 {
        (0..len)
            .map(|x| {
                let d = x as f64 - mean_axis(len);
                d * d
            })
            .sum()
    };
    let mut sum = 0.0;
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut sz = 0.0;
    // Row-sliced traversal (no per-point index math or bounds checks);
    // the accumulation order — and therefore every sum — is unchanged.
    let dims = data.dims();
    for k in 0..bd.nz {
        let dz = k as f64 - mz;
        for j in 0..bd.ny {
            let dy = j as f64 - my;
            let base = dims.idx(oi, oj + j, ok + k);
            for (i, &v) in data.data()[base..base + bd.nx].iter().enumerate() {
                sum += v;
                sx += v * (i as f64 - mx);
                sy += v * dy;
                sz += v * dz;
            }
        }
    }
    let mean = sum / n;
    let denom_x = sq(bd.nx) * (bd.ny * bd.nz) as f64;
    let denom_y = sq(bd.ny) * (bd.nx * bd.nz) as f64;
    let denom_z = sq(bd.nz) * (bd.nx * bd.ny) as f64;
    let b1 = if denom_x > 0.0 { sx / denom_x } else { 0.0 };
    let b2 = if denom_y > 0.0 { sy / denom_y } else { 0.0 };
    let b3 = if denom_z > 0.0 { sz / denom_z } else { 0.0 };
    Coefficients {
        b0: mean - b1 * mx - b2 * my - b3 * mz,
        b: [b1, b2, b3],
    }
}

/// Delta-quantizing codec for coefficient streams. The encoder and decoder
/// run the identical state machine so predictions stay in lockstep.
pub struct CoefficientCodec {
    q0: Quantizer,
    qs: Quantizer,
    prev: Coefficients,
}

impl CoefficientCodec {
    /// `abs_eb` is the data error bound; coefficient precisions derive from
    /// it as in SZ2 (intercept at eb/10, slopes at eb/(10·block_size)).
    pub fn new(abs_eb: f64, block_size: usize) -> Self {
        CoefficientCodec {
            q0: Quantizer::new(abs_eb * 0.1),
            qs: Quantizer::new(abs_eb * 0.1 / block_size as f64),
            prev: Coefficients::default(),
        }
    }

    /// Encode `c`, pushing 4 symbols (and any outlier raw values) and
    /// returning the *quantized* coefficients that the prediction pass must
    /// use (the decoder only ever sees these).
    pub fn encode(
        &mut self,
        c: &Coefficients,
        symbols: &mut Vec<u32>,
        outliers: &mut Vec<f64>,
    ) -> Coefficients {
        let mut out = Coefficients::default();
        let (s, rec) = self.q0.quantize(c.b0, self.prev.b0);
        if s == OUTLIER_SYMBOL {
            outliers.push(c.b0);
        }
        symbols.push(s);
        out.b0 = rec;
        for d in 0..3 {
            let (s, rec) = self.qs.quantize(c.b[d], self.prev.b[d]);
            if s == OUTLIER_SYMBOL {
                outliers.push(c.b[d]);
            }
            symbols.push(s);
            out.b[d] = rec;
        }
        self.prev = out;
        out
    }

    /// Decode the next coefficient set from the symbol/outlier streams.
    /// `sym_iter` and `outlier_iter` advance exactly as `encode` pushed.
    /// Exhausted streams and out-of-range symbols (a corrupt Huffman
    /// table can carry any `u32`) are typed [`CodecError::Corrupt`].
    pub fn decode(
        &mut self,
        symbols: &mut impl Iterator<Item = u32>,
        outliers: &mut impl Iterator<Item = f64>,
    ) -> CodecResult<Coefficients> {
        let truncated = || CodecError::corrupt("coefficient stream truncated");
        let mut out = Coefficients::default();
        let s = symbols.next().ok_or_else(truncated)?;
        out.b0 = if s == OUTLIER_SYMBOL {
            outliers.next().ok_or_else(truncated)?
        } else {
            self.q0.try_reconstruct(s, self.prev.b0)?
        };
        for d in 0..3 {
            let s = symbols.next().ok_or_else(truncated)?;
            out.b[d] = if s == OUTLIER_SYMBOL {
                outliers.next().ok_or_else(truncated)?
            } else {
                self.qs.try_reconstruct(s, self.prev.b[d])?
            };
        }
        self.prev = out;
        Ok(out)
    }
}

/// Sum of absolute errors of the regression prediction over the block —
/// the selection statistic compared against Lorenzo's, point by point: the
/// oracle of [`crate::kernels::selection_errors`].
#[cfg(test)]
pub(crate) fn regression_block_error(
    data: &crate::buffer3::Buffer3,
    oi: usize,
    oj: usize,
    ok: usize,
    bd: Dims3,
    c: &Coefficients,
) -> f64 {
    let mut err = 0.0;
    for k in 0..bd.nz {
        for j in 0..bd.ny {
            for i in 0..bd.nx {
                err += (data.get(oi + i, oj + j, ok + k) - c.predict(i, j, k)).abs();
            }
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer3::{AsView3, Buffer3};

    #[test]
    fn exact_fit_for_affine_block() {
        let mut b = Buffer3::zeros(Dims3::cube(8));
        b.fill_with(|i, j, k| 1.5 + 2.0 * i as f64 - 0.25 * j as f64 + 3.0 * k as f64);
        let c = fit_block(b.view(), 1, 2, 0, Dims3::new(6, 6, 6));
        // Intercept is at block-local origin (1,2,0) → 1.5 + 2 − 0.5 = 3.0.
        assert!((c.b0 - 3.0).abs() < 1e-9, "{c:?}");
        assert!((c.b[0] - 2.0).abs() < 1e-9);
        assert!((c.b[1] + 0.25).abs() < 1e-9);
        assert!((c.b[2] - 3.0).abs() < 1e-9);
        assert!(regression_block_error(&b, 1, 2, 0, Dims3::new(6, 6, 6), &c) < 1e-8);
    }

    #[test]
    fn degenerate_axis_slope_zero() {
        let mut b = Buffer3::zeros(Dims3::new(4, 1, 4));
        b.fill_with(|i, _, k| i as f64 + k as f64);
        let c = fit_block(b.view(), 0, 0, 0, Dims3::new(4, 1, 4));
        assert_eq!(c.b[1], 0.0);
        assert!((c.b[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coefficient_codec_lockstep() {
        let blocks = [
            Coefficients {
                b0: 10.0,
                b: [0.5, -0.25, 1.0],
            },
            Coefficients {
                b0: 10.2,
                b: [0.55, -0.2, 0.9],
            },
            Coefficients {
                b0: 1e9, // forces the outlier path
                b: [0.0, 0.0, 0.0],
            },
        ];
        let mut enc = CoefficientCodec::new(1e-2, 6);
        let mut syms = Vec::new();
        let mut outs = Vec::new();
        let quantized: Vec<Coefficients> = blocks
            .iter()
            .map(|c| enc.encode(c, &mut syms, &mut outs))
            .collect();
        let mut dec = CoefficientCodec::new(1e-2, 6);
        let mut si = syms.into_iter();
        let mut oi = outs.into_iter();
        for qc in &quantized {
            let d = dec.decode(&mut si, &mut oi).expect("decode");
            assert_eq!(&d, qc, "decoder must reproduce encoder-side values");
        }
    }

    #[test]
    fn quantized_coeffs_stay_close() {
        let mut enc = CoefficientCodec::new(1e-3, 6);
        let mut syms = Vec::new();
        let mut outs = Vec::new();
        let c = Coefficients {
            b0: 2.625,
            b: [0.123, -0.456, 0.789],
        };
        let qc = enc.encode(&c, &mut syms, &mut outs);
        assert!((qc.b0 - c.b0).abs() <= 1e-4 + 1e-12);
        for d in 0..3 {
            assert!((qc.b[d] - c.b[d]).abs() <= 1e-4 / 6.0 + 1e-12);
        }
    }
}
