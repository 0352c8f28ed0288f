//! Error-bounded linear-scale quantization (SZ2 semantics).
//!
//! Every residual `val − pred` is mapped to an integer code
//! `round(residual / (2·eb))`; reconstruction adds `code · 2·eb` back to the
//! prediction, so `|val − recon| ≤ eb` always holds for predictable points.
//! Codes outside the quantization radius are "unpredictable": the symbol 0
//! is emitted and the raw IEEE-754 value is stored verbatim (lossless for
//! that point).

/// Quantization radius; codes live in `(-radius, radius)`. SZ uses 2¹⁵ by
/// default, giving 2¹⁶ Huffman symbols.
pub const QUANT_RADIUS: i64 = 32768;

/// Symbol used for unpredictable (outlier) points.
pub const OUTLIER_SYMBOL: u32 = 0;

use crate::error::{CodecError, CodecResult};

/// Stateless quantizer for a fixed absolute error bound.
#[derive(Clone, Copy, Debug)]
pub struct Quantizer {
    eb: f64,
    radius: i64,
}

impl Quantizer {
    /// Build for an absolute error bound `eb > 0`.
    pub fn new(eb: f64) -> Self {
        assert!(eb > 0.0 && eb.is_finite(), "error bound must be positive");
        Quantizer {
            eb,
            radius: QUANT_RADIUS,
        }
    }

    /// Quantize `val` against `pred`.
    ///
    /// Returns `(symbol, reconstructed)`. If the point is unpredictable the
    /// symbol is [`OUTLIER_SYMBOL`], the reconstruction equals `val`
    /// exactly, and the caller must store the raw value.
    #[inline]
    pub fn quantize(&self, val: f64, pred: f64) -> (u32, f64) {
        let diff = val - pred;
        let scaled = diff / (2.0 * self.eb);
        let code = scaled.round();
        if code.abs() < self.radius as f64 && code.is_finite() {
            let recon = pred + code * 2.0 * self.eb;
            // Guard against floating-point cancellation pushing the error
            // past the bound (can happen when |pred| ≫ |diff|).
            if (recon - val).abs() <= self.eb {
                return ((code as i64 + self.radius) as u32, recon);
            }
        }
        (OUTLIER_SYMBOL, val)
    }

    /// Branch-light variant of [`Quantizer::quantize`] producing identical
    /// results, expressed as data-dependent selects instead of early
    /// returns so the row kernels in [`crate::kernels`] autovectorize.
    ///
    /// The floating-point expression tree is exactly the one `quantize`
    /// evaluates (`diff / (2·eb)`, `pred + code · 2 · eb`, same comparison
    /// order), so the returned `(symbol, reconstruction)` pair is
    /// bit-identical for every input, including NaN/∞ and the
    /// cancellation guard path.
    #[inline(always)]
    pub fn quantize_select(&self, val: f64, pred: f64) -> (u32, f64) {
        let diff = val - pred;
        let scaled = diff / (2.0 * self.eb);
        let code = scaled.round();
        // Computed unconditionally: when `code` is NaN/∞ the result is
        // NaN, which the `ok` mask below rejects exactly like the guarded
        // scalar path. `code as i64` is a saturating cast on overflow, so
        // the discarded lane value is well-defined.
        let recon = pred + code * 2.0 * self.eb;
        let ok =
            (code.abs() < self.radius as f64) & code.is_finite() & ((recon - val).abs() <= self.eb);
        // On `ok` lanes `code` is integral with |code| < radius, so
        // `code + radius` is exactly representable in f64 and the f64→i32
        // cast equals the scalar path's `code as i64 + radius`. Kept in
        // the float domain because there is no packed f64→i64 conversion
        // below AVX-512 — an i64 cast here scalarizes the entire row
        // kernel, while f64→i32 is a single packed instruction. Rejected
        // lanes (NaN/∞ saturate to well-defined values) are discarded by
        // the select.
        let sym = if ok {
            (code + self.radius as f64) as i32 as u32
        } else {
            OUTLIER_SYMBOL
        };
        let rec = if ok { recon } else { val };
        (sym, rec)
    }

    /// Reconstruct from a non-outlier symbol.
    #[inline]
    pub fn reconstruct(&self, symbol: u32, pred: f64) -> f64 {
        debug_assert_ne!(symbol, OUTLIER_SYMBOL);
        let code = symbol as i64 - self.radius;
        pred + code as f64 * 2.0 * self.eb
    }

    /// Validated reconstruction for decode loops.
    ///
    /// A corrupt Huffman table can smuggle arbitrary `u32` symbols into a
    /// decode loop: symbol 0 without a stored raw value, or a symbol
    /// `≥ 2·radius` that no encoder ever emits. `reconstruct` only
    /// `debug_assert!`s, so release builds would silently produce
    /// `pred − radius·2eb`-style garbage; this variant turns both cases
    /// into a typed [`CodecError::Corrupt`].
    #[inline]
    pub fn try_reconstruct(&self, symbol: u32, pred: f64) -> CodecResult<f64> {
        if symbol == OUTLIER_SYMBOL || symbol as i64 >= 2 * self.radius {
            return Err(CodecError::corrupt(format!(
                "quantization symbol {symbol} out of range (radius {})",
                self.radius
            )));
        }
        Ok(self.reconstruct(symbol, pred))
    }

    /// Lane form of [`Quantizer::try_reconstruct`]: the reconstruction
    /// and a flag instead of a branch, so `kernels::reconstruct_row`
    /// vectorizes. The flag is set exactly when `try_reconstruct` would
    /// fail (outlier marker, or symbol `≥ 2·radius`); the value is then
    /// meaningless. Otherwise `symbol < 2·radius` fits an `i32`, the
    /// packed i32→f64 conversion yields the same `code` the i64 path does,
    /// and the value is bit-identical to [`Quantizer::reconstruct`].
    #[inline(always)]
    pub fn reconstruct_select(&self, symbol: u32, pred: f64) -> (f64, bool) {
        let flagged = symbol.wrapping_sub(1) >= 2 * self.radius as u32 - 1;
        let code = (symbol as i32).wrapping_sub(self.radius as i32);
        (pred + code as f64 * 2.0 * self.eb, flagged)
    }
}

/// Convert a relative error bound into an absolute one for data with the
/// given value range, the mode the paper's evaluation uses (per-field,
/// per-rank range). Constant data (range 0) falls back to `rel` itself so
/// the quantizer stays valid.
pub fn absolute_bound(rel: f64, value_range: f64) -> f64 {
    assert!(rel > 0.0, "relative bound must be positive");
    if value_range > 0.0 {
        rel * value_range
    } else {
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_within_bound() {
        let q = Quantizer::new(0.01);
        for &(val, pred) in &[(1.0, 0.98), (5.0, -3.0), (0.0, 0.0), (-2.5, -2.499)] {
            let (sym, recon) = q.quantize(val, pred);
            if sym != OUTLIER_SYMBOL {
                assert!((recon - val).abs() <= 0.01, "val={val} pred={pred}");
                assert_eq!(q.reconstruct(sym, pred), recon);
            } else {
                assert_eq!(recon, val);
            }
        }
    }

    #[test]
    fn perfect_prediction_is_center_symbol() {
        let q = Quantizer::new(1e-3);
        let (sym, recon) = q.quantize(7.5, 7.5);
        assert_eq!(sym, QUANT_RADIUS as u32);
        assert_eq!(recon, 7.5);
    }

    #[test]
    fn far_prediction_is_outlier() {
        let q = Quantizer::new(1e-6);
        let (sym, recon) = q.quantize(1.0e6, 0.0);
        assert_eq!(sym, OUTLIER_SYMBOL);
        assert_eq!(recon, 1.0e6);
    }

    #[test]
    fn nan_and_inf_are_outliers() {
        let q = Quantizer::new(0.1);
        assert_eq!(q.quantize(f64::NAN, 0.0).0, OUTLIER_SYMBOL);
        assert_eq!(q.quantize(f64::INFINITY, 0.0).0, OUTLIER_SYMBOL);
        assert_eq!(q.quantize(1.0, f64::NAN).0, OUTLIER_SYMBOL);
    }

    #[test]
    fn relative_bound_conversion() {
        assert_eq!(absolute_bound(1e-2, 50.0), 0.5);
        assert_eq!(absolute_bound(1e-2, 0.0), 1e-2);
    }

    #[test]
    fn quantize_select_matches_quantize() {
        let q = Quantizer::new(1e-3);
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for _ in 0..10_000 {
            let val = next() * 200.0;
            let pred = val + next() * 0.5;
            let a = q.quantize(val, pred);
            let b = q.quantize_select(val, pred);
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "val={val} pred={pred}");
        }
        // Special values take the outlier select path identically.
        for &(val, pred) in &[
            (f64::NAN, 0.0),
            (f64::INFINITY, 0.0),
            (1.0, f64::NAN),
            (1e300, -1e300),
            (0.0, -0.0),
        ] {
            let a = q.quantize(val, pred);
            let b = q.quantize_select(val, pred);
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn try_reconstruct_rejects_bad_symbols() {
        let q = Quantizer::new(0.01);
        assert!(q.try_reconstruct(OUTLIER_SYMBOL, 1.0).is_err());
        assert!(q.try_reconstruct(2 * QUANT_RADIUS as u32, 1.0).is_err());
        assert!(q.try_reconstruct(u32::MAX, 1.0).is_err());
        let (sym, recon) = q.quantize(1.0, 0.875);
        assert_ne!(sym, OUTLIER_SYMBOL);
        assert_eq!(q.try_reconstruct(sym, 0.875).unwrap(), recon);
    }

    #[test]
    fn symbols_roundtrip_dense_range() {
        let q = Quantizer::new(0.5);
        // Residuals spanning many bins reconstruct within bound.
        for step in -1000i64..1000 {
            let val = step as f64 * 0.77;
            let (sym, recon) = q.quantize(val, 0.0);
            assert_ne!(sym, OUTLIER_SYMBOL);
            assert!((recon - val).abs() <= 0.5);
            assert_eq!(q.reconstruct(sym, 0.0), recon);
        }
    }
}
