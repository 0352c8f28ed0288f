//! Visualization-fidelity metrics on reconstructed AMR data: PSNR with a
//! defined degenerate case, windowed SSIM on 2-D plane slices, and
//! per-level error histograms.
//!
//! The metric definitions follow the visualization-impact follow-up work
//! to the AMRIC paper: compressors are judged by what a downstream
//! rendering of a plane slice looks like, not just by max-error.

use sz_codec::{Buffer3, ErrorStats};

/// SSIM window edge (cells). Windows are non-overlapping; partial edge
/// windows are included, so every cell of the plane contributes.
pub const SSIM_WINDOW: usize = 8;

/// Peak signal-to-noise ratio, [`ErrorStats::psnr`] with its perfect
/// reconstruction made an explicit variant.
///
/// Both degenerate cases are real outputs of
/// `QueryEngine::plane_slice`/`point_sample` on quiet or constant
/// fields: `MSE == 0` ⇒ [`Psnr::Infinite`], whatever the range; a
/// constant reference with error is finite, its range floored to 1.0.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Psnr {
    /// Perfect reconstruction (zero mean-squared error).
    Infinite,
    /// Finite PSNR in dB (never NaN).
    Finite(f64),
}

impl Psnr {
    /// PSNR between a reference slice and a reconstruction of it.
    ///
    /// Panics on empty or length-mismatched inputs (same contract as
    /// [`ErrorStats::compare`]).
    pub fn compute(reference: &[f64], candidate: &[f64]) -> Psnr {
        Psnr::from_stats(&ErrorStats::compare(reference, candidate))
    }

    /// PSNR from precomputed error statistics.
    pub fn from_stats(stats: &ErrorStats) -> Psnr {
        if stats.mse == 0.0 {
            Psnr::Infinite
        } else {
            Psnr::Finite(stats.psnr())
        }
    }

    /// The value in dB (`f64::INFINITY` for [`Psnr::Infinite`]).
    pub fn db(&self) -> f64 {
        match *self {
            Psnr::Infinite => f64::INFINITY,
            Psnr::Finite(db) => db,
        }
    }

    /// Is this the perfect-reconstruction case?
    pub fn is_infinite(&self) -> bool {
        matches!(self, Psnr::Infinite)
    }
}

impl std::fmt::Display for Psnr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Psnr::Infinite => write!(f, "inf"),
            Psnr::Finite(db) => write!(f, "{db:.2}"),
        }
    }
}

/// The 2-D lattice of a plane slice: the two free axes of a [`Buffer3`]
/// with one axis pinned to extent 1 (what `QueryEngine::plane_slice`
/// returns). Returns `None` if no axis has extent 1.
fn plane_extents(b: &Buffer3) -> Option<(usize, usize, usize)> {
    let d = b.dims();
    let ext = [d.nx, d.ny, d.nz];
    let pinned = ext.iter().position(|&e| e == 1)?;
    let free: Vec<usize> = (0..3).filter(|&a| a != pinned).collect();
    Some((pinned, free[0], free[1]))
}

/// Value at 2-D plane coordinates `(a, b)` given the pinned axis.
fn plane_get(buf: &Buffer3, pinned: usize, ax_a: usize, ax_b: usize, a: usize, b: usize) -> f64 {
    let mut ijk = [0usize; 3];
    ijk[ax_a] = a;
    ijk[ax_b] = b;
    let _ = pinned; // pinned coordinate stays 0
    buf.get(ijk[0], ijk[1], ijk[2])
}

/// Mean structural similarity between a reference plane slice and a
/// reconstruction of it, over non-overlapping [`SSIM_WINDOW`]² windows
/// (partial windows at the edges included).
///
/// Uses the standard stabilized form with `C1 = (0.01·L)²`,
/// `C2 = (0.03·L)²` where `L` is the reference plane's value range; a
/// constant reference (range 0) floors `L` to 1.0, so an exact
/// constant-vs-constant comparison is a well-defined 1.0 rather than
/// 0/0. Identical inputs always score 1.0; the score decreases toward 0
/// as local luminance/contrast/structure diverge.
///
/// Panics if the buffers' dims differ or neither has a pinned
/// (extent-1) axis — both are query-plan bugs, not data conditions.
pub fn ssim_plane(reference: &Buffer3, candidate: &Buffer3) -> f64 {
    assert_eq!(
        reference.dims(),
        candidate.dims(),
        "SSIM inputs must cover the same plane"
    );
    let (pinned, ax_a, ax_b) = plane_extents(reference).expect("ssim_plane needs an extent-1 axis");
    let ext = [
        reference.dims().nx,
        reference.dims().ny,
        reference.dims().nz,
    ];
    let (na, nb) = (ext[ax_a], ext[ax_b]);
    let (lo, hi) = reference.min_max();
    let l = if hi > lo { hi - lo } else { 1.0 };
    let c1 = (0.01 * l) * (0.01 * l);
    let c2 = (0.03 * l) * (0.03 * l);
    let mut sum = 0.0f64;
    let mut windows = 0u64;
    let mut a0 = 0;
    while a0 < na {
        let a1 = (a0 + SSIM_WINDOW).min(na);
        let mut b0 = 0;
        while b0 < nb {
            let b1 = (b0 + SSIM_WINDOW).min(nb);
            let n = ((a1 - a0) * (b1 - b0)) as f64;
            let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
            for a in a0..a1 {
                for b in b0..b1 {
                    let x = plane_get(reference, pinned, ax_a, ax_b, a, b);
                    let y = plane_get(candidate, pinned, ax_a, ax_b, a, b);
                    sx += x;
                    sy += y;
                    sxx += x * x;
                    syy += y * y;
                    sxy += x * y;
                }
            }
            let (mx, my) = (sx / n, sy / n);
            let vx = (sxx / n - mx * mx).max(0.0);
            let vy = (syy / n - my * my).max(0.0);
            let cov = sxy / n - mx * my;
            sum += ((2.0 * mx * my + c1) * (2.0 * cov + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2));
            windows += 1;
            b0 = b1;
        }
        a0 = a1;
    }
    sum / windows as f64
}

/// Number of histogram bins: one for exact zeros, seven decades of
/// scaled error, and one overflow bin.
pub const HISTOGRAM_BINS: usize = 9;

/// Upper edges of the scaled-error decades (bins 1..=7); bin 0 is exact
/// zero, bin 8 is everything above the last edge.
const DECADE_EDGES: [f64; 7] = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1];

/// Histogram of pointwise absolute errors, scaled by a reference value
/// (typically the level's value range, making the bins range-relative —
/// the same normalization REL error bounds use).
///
/// Bin 0 counts exact-zero errors; bins 1–7 cover scaled-error decades
/// `(0, 1e-7], …, (1e-2, 1e-1]`; bin 8 is the overflow `(1e-1, ∞)`.
/// With `scale <= 0` the raw absolute errors are binned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ErrorHistogram {
    /// Counts per bin (see the type docs for the bin layout).
    pub counts: [u64; HISTOGRAM_BINS],
}

impl ErrorHistogram {
    /// Bin label for reports (`i < HISTOGRAM_BINS`).
    pub fn bin_label(i: usize) -> String {
        match i {
            0 => "0".into(),
            8 => ">1e-1".into(),
            _ => format!("<=1e-{}", 8 - i),
        }
    }

    /// Histogram of `|reference − candidate| / scale`.
    pub fn collect(reference: &[f64], candidate: &[f64], scale: f64) -> Self {
        assert_eq!(reference.len(), candidate.len(), "length mismatch");
        let inv = if scale > 0.0 { 1.0 / scale } else { 1.0 };
        let mut h = ErrorHistogram::default();
        for (&o, &r) in reference.iter().zip(candidate) {
            h.add((o - r).abs() * inv);
        }
        h
    }

    /// Add one scaled error.
    pub fn add(&mut self, scaled_err: f64) {
        let bin = if scaled_err == 0.0 {
            0
        } else {
            match DECADE_EDGES.iter().position(|&e| scaled_err <= e) {
                Some(d) => d + 1,
                None => HISTOGRAM_BINS - 1,
            }
        };
        self.counts[bin] += 1;
    }

    /// Fold another histogram in (per-level merges across slices).
    pub fn merge(&mut self, other: &ErrorHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Total samples counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sz_codec::Dims3;

    fn plane(nx: usize, ny: usize, f: impl Fn(usize, usize) -> f64) -> Buffer3 {
        let mut b = Buffer3::zeros(Dims3::new(nx, ny, 1));
        b.fill_with(|i, j, _| f(i, j));
        b
    }

    #[test]
    fn psnr_matches_paper_formula_on_regular_data() {
        let orig: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin() * 5.0).collect();
        let recon: Vec<f64> = orig.iter().map(|v| v + 1e-3).collect();
        let p = Psnr::compute(&orig, &recon);
        let s = ErrorStats::compare(&orig, &recon);
        assert!(!p.is_infinite());
        assert!((p.db() - s.psnr()).abs() < 1e-12);
    }

    #[test]
    fn psnr_degenerate_cases_are_defined() {
        // Exact round-trip (MSE 0): Infinite, not a division by zero.
        let v: Vec<f64> = (0..64).map(|i| i as f64).collect();
        assert_eq!(Psnr::compute(&v, &v), Psnr::Infinite);
        assert_eq!(Psnr::compute(&v, &v).db(), f64::INFINITY);
        // Constant reference reconstructed exactly: still Infinite —
        // range 0 must not turn it into NaN or −inf.
        let flat = vec![3.5; 64];
        assert_eq!(Psnr::compute(&flat, &flat), Psnr::Infinite);
        // Constant reference with error: finite and NOT NaN — the raw
        // formula would take log10(0) here.
        let off: Vec<f64> = flat.iter().map(|v| v + 1e-3).collect();
        let p = Psnr::compute(&flat, &off);
        assert!(p.db().is_finite(), "range-0 PSNR must be defined: {p:?}");
        assert!((p.db() - 60.0).abs() < 1e-9, "floored range 1.0 ⇒ 60 dB");
        assert_eq!(format!("{}", Psnr::Infinite), "inf");
    }

    #[test]
    fn ssim_identical_planes_score_one() {
        let p = plane(20, 20, |i, j| ((i * 3 + j) as f64 * 0.2).sin());
        assert_eq!(ssim_plane(&p, &p), 1.0);
        // Constant plane vs itself: L floors to 1.0, still exactly 1.0.
        let flat = plane(12, 12, |_, _| 7.0);
        assert_eq!(ssim_plane(&flat, &flat), 1.0);
    }

    #[test]
    fn ssim_decreases_with_distortion_and_detects_structure_loss() {
        let p = plane(32, 32, |i, j| {
            ((i as f64 * 0.7).sin() + (j as f64 * 0.5).cos()) * 2.0
        });
        let mut light = p.clone();
        for v in light.data_mut() {
            *v += 1e-3;
        }
        let mut heavy = p.clone();
        for (idx, v) in heavy.data_mut().iter_mut().enumerate() {
            *v = if idx % 2 == 0 { 1.0 } else { -1.0 }; // structure destroyed
        }
        let s_light = ssim_plane(&p, &light);
        let s_heavy = ssim_plane(&p, &heavy);
        assert!(s_light > 0.99, "{s_light}");
        assert!(s_heavy < 0.5, "{s_heavy}");
        assert!(s_light > s_heavy);
    }

    #[test]
    fn ssim_works_on_any_pinned_axis() {
        for dims in [
            Dims3::new(1, 16, 16),
            Dims3::new(16, 1, 16),
            Dims3::new(16, 16, 1),
        ] {
            let mut a = Buffer3::zeros(dims);
            a.fill_with(|i, j, k| (i + 2 * j + 3 * k) as f64 * 0.1);
            let mut b = a.clone();
            for v in b.data_mut() {
                *v += 0.01;
            }
            let s = ssim_plane(&a, &b);
            assert!((0.0..=1.0).contains(&s), "{s}");
        }
    }

    #[test]
    fn histogram_bins_scaled_errors_by_decade() {
        let reference = vec![0.0; 5];
        let candidate = vec![0.0, 5e-8, 5e-5, 5e-3, 2.0];
        let h = ErrorHistogram::collect(&reference, &candidate, 1.0);
        assert_eq!(h.counts[0], 1); // exact zero
        assert_eq!(h.counts[1], 1); // <= 1e-7
        assert_eq!(h.counts[4], 1); // <= 1e-4
        assert_eq!(h.counts[6], 1); // <= 1e-2
        assert_eq!(h.counts[8], 1); // overflow
        assert_eq!(h.total(), 5);
        // Scaling: same data at scale 10 shifts everything a decade down.
        let h10 = ErrorHistogram::collect(&reference, &candidate, 10.0);
        assert_eq!(h10.counts[3], 1); // 5e-5/10 = 5e-6 <= 1e-5
        let mut merged = h;
        merged.merge(&h10);
        assert_eq!(merged.total(), 10);
        assert!(!ErrorHistogram::bin_label(4).is_empty());
    }
}
