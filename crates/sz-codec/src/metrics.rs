//! Reconstruction-quality metrics: PSNR (the paper's formula), MSE,
//! maximum absolute error, and compression-ratio helpers.

/// Aggregate error statistics between an original and a reconstruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorStats {
    /// Number of points compared.
    pub n: usize,
    /// Mean squared error.
    pub mse: f64,
    /// Largest absolute pointwise error.
    pub max_abs_err: f64,
    /// Value range (max − min) of the *original* data.
    pub value_range: f64,
}

impl ErrorStats {
    /// Compare two equal-length slices.
    pub fn compare(original: &[f64], reconstructed: &[f64]) -> Self {
        assert_eq!(
            original.len(),
            reconstructed.len(),
            "length mismatch in metric computation"
        );
        assert!(!original.is_empty(), "empty metric input");
        let mut sq = 0.0f64;
        let mut max_abs = 0.0f64;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (&o, &r) in original.iter().zip(reconstructed) {
            let e = o - r;
            sq += e * e;
            max_abs = max_abs.max(e.abs());
            lo = lo.min(o);
            hi = hi.max(o);
        }
        ErrorStats {
            n: original.len(),
            mse: sq / original.len() as f64,
            max_abs_err: max_abs,
            value_range: hi - lo,
        }
    }

    /// PSNR in dB using the paper's definition (footnote 2):
    /// `20·log10(R) − 10·log10(MSE)` with `R` the value range. Total:
    /// `f64::INFINITY` for a perfect reconstruction, and a constant
    /// original (`R = 0`) floors `R` to 1.0 instead of taking `log10(0)`.
    pub fn psnr(&self) -> f64 {
        if self.mse == 0.0 {
            return f64::INFINITY;
        }
        let range = if self.value_range > 0.0 {
            self.value_range
        } else {
            1.0
        };
        20.0 * range.log10() - 10.0 * self.mse.log10()
    }
}

/// Compression ratio `original_bytes / compressed_bytes`.
pub fn compression_ratio(original_bytes: usize, compressed_bytes: usize) -> f64 {
    assert!(compressed_bytes > 0);
    original_bytes as f64 / compressed_bytes as f64
}

/// Bit rate in bits per value for `n` values compressed to
/// `compressed_bytes`.
pub fn bit_rate(n: usize, compressed_bytes: usize) -> f64 {
    compressed_bytes as f64 * 8.0 / n as f64
}

/// One point on a rate-distortion curve (the paper's Figs. 5, 7, 16).
#[derive(Clone, Copy, Debug)]
pub struct RatePoint {
    /// Relative error bound used.
    pub rel_eb: f64,
    /// Achieved compression ratio.
    pub compression_ratio: f64,
    /// Achieved PSNR (dB).
    pub psnr: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_reconstruction() {
        let a = vec![1.0, 2.0, 3.0];
        let s = ErrorStats::compare(&a, &a);
        assert_eq!(s.mse, 0.0);
        assert_eq!(s.max_abs_err, 0.0);
        assert_eq!(s.psnr(), f64::INFINITY);
    }

    #[test]
    fn known_psnr() {
        // Range 10, constant error 0.1 → PSNR = 20·log10(10) − 10·log10(0.01)
        // = 20 + 20 = 40 dB.
        let orig: Vec<f64> = (0..101).map(|i| i as f64 * 0.1).collect();
        let recon: Vec<f64> = orig.iter().map(|v| v + 0.1).collect();
        let s = ErrorStats::compare(&orig, &recon);
        assert!((s.psnr() - 40.0).abs() < 1e-9, "psnr={}", s.psnr());
        assert!((s.max_abs_err - 0.1).abs() < 1e-12);
        // Constant original, error 1e-3: range floors to 1.0 → 60 dB, not
        // the −inf of log10(0).
        let flat = ErrorStats::compare(&[3.5; 64], &[3.501; 64]);
        assert!((flat.psnr() - 60.0).abs() < 1e-9, "psnr={}", flat.psnr());
    }

    #[test]
    fn ratio_and_rate() {
        assert_eq!(compression_ratio(800, 100), 8.0);
        assert_eq!(bit_rate(100, 100), 8.0); // 100 f64 → 100 B = 8 bits/value
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        ErrorStats::compare(&[1.0], &[1.0, 2.0]);
    }
}
