//! Lorenzo predictors (1-D, 2-D and 3-D).
//!
//! The Lorenzo predictor estimates a point from its already-processed
//! neighbours; in 3-D it is the inclusion–exclusion corner sum over the
//! unit cube. Out-of-domain neighbours read as 0, matching SZ.

use crate::buffer3::Buffer3;

/// 3-D Lorenzo prediction for point `(i, j, k)` of `recon`, treating
/// indices below `0` as value 0. `recon` must hold reconstructed values for
/// every already-visited point of the traversal (x → y → z order).
#[inline]
pub fn lorenzo3(recon: &Buffer3, i: usize, j: usize, k: usize) -> f64 {
    let g = |ii: isize, jj: isize, kk: isize| -> f64 {
        if ii < 0 || jj < 0 || kk < 0 {
            0.0
        } else {
            recon.get(ii as usize, jj as usize, kk as usize)
        }
    };
    let (i, j, k) = (i as isize, j as isize, k as isize);
    g(i - 1, j, k) + g(i, j - 1, k) + g(i, j, k - 1)
        - g(i - 1, j - 1, k)
        - g(i - 1, j, k - 1)
        - g(i, j - 1, k - 1)
        + g(i - 1, j - 1, k - 1)
}

/// Same stencil evaluated on the *original* data — used only to estimate
/// Lorenzo's accuracy during predictor selection (SZ2 does the same; the
/// true pass uses reconstructed values).
#[cfg(test)]
fn lorenzo3_estimate(data: &Buffer3, i: usize, j: usize, k: usize) -> f64 {
    lorenzo3(data, i, j, k)
}

/// Sum of absolute Lorenzo-prediction errors over a sub-block of the
/// original data, the selection statistic of SZ2, point by point: the
/// oracle of [`crate::kernels::selection_errors`]. The sub-block has origin
/// `(oi, oj, ok)` and shape `bd`; the stencil may reach outside the block
/// into the rest of the domain (crossing block boundaries, like the real
/// pass does).
///
/// At the *domain* boundary the stencil zero-extends — out-of-range
/// neighbours read as literal `0.0`, **not** clamped to the nearest edge
/// value. This is deliberate and SZ2-faithful: the real encode pass
/// predicts boundary points against the same zeros, so the selection
/// statistic must charge Lorenzo for that bias or it would pick Lorenzo
/// on boundary blocks where regression actually quantizes better. For a
/// field of typical magnitude `m` the charge is `≈ m` at the domain
/// origin and one slope-magnitude per domain-edge point (see the
/// boundary-block test below); changing this to edge-clamping would
/// silently shift predictor selection and break stream compatibility.
#[cfg(test)]
pub(crate) fn lorenzo3_block_error(
    data: &Buffer3,
    oi: usize,
    oj: usize,
    ok: usize,
    bd: crate::buffer3::Dims3,
) -> f64 {
    let mut err = 0.0;
    for k in ok..ok + bd.nz {
        for j in oj..oj + bd.ny {
            for i in oi..oi + bd.nx {
                err += (data.get(i, j, k) - lorenzo3_estimate(data, i, j, k)).abs();
            }
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer3::Dims3;

    #[test]
    fn lorenzo3_exact_for_affine() {
        // The 3-D Lorenzo stencil reproduces any trilinear-free affine
        // field exactly (away from the domain faces where neighbours
        // read 0).
        let mut b = Buffer3::zeros(Dims3::cube(6));
        b.fill_with(|i, j, k| 2.0 * i as f64 - 3.0 * j as f64 + 0.5 * k as f64 + 7.0);
        for k in 1..6 {
            for j in 1..6 {
                for i in 1..6 {
                    let pred = lorenzo3(&b, i, j, k);
                    assert!(
                        (pred - b.get(i, j, k)).abs() < 1e-9,
                        "at ({i},{j},{k}): pred={pred}, val={}",
                        b.get(i, j, k)
                    );
                }
            }
        }
    }

    #[test]
    fn lorenzo3_faces_use_zero() {
        let mut b = Buffer3::zeros(Dims3::cube(3));
        b.fill_with(|_, _, _| 5.0);
        // Origin has no neighbours → prediction 0.
        assert_eq!(lorenzo3(&b, 0, 0, 0), 0.0);
        // Along an edge the 2-D stencil degenerates to the previous value.
        assert_eq!(lorenzo3(&b, 1, 0, 0), 5.0);
    }

    #[test]
    fn boundary_block_error_uses_zero_extension() {
        // Pin the SZ2-faithful zero-extension semantics with an analytic
        // case. For the affine field f = 10 + i + 2j + 3k the
        // zero-extended stencil is exact everywhere except on domain
        // *edges*: each face point still sees an exact 2-D sub-stencil,
        // while an edge point degenerates to previous-value (residual =
        // the slope along that edge) and the origin predicts 0 (residual
        // = f(0,0,0)). For the 2×2×2 block at the origin that sums to
        // 10 + 1 + 2 + 3 = 16 exactly; any clamped variant would differ.
        let mut b = Buffer3::zeros(Dims3::cube(4));
        b.fill_with(|i, j, k| 10.0 + i as f64 + 2.0 * j as f64 + 3.0 * k as f64);
        let bd = Dims3::cube(2);
        assert_eq!(lorenzo3_block_error(&b, 0, 0, 0, bd), 16.0);
        // Interior blocks of the same field are exact — the bias is
        // confined to the domain faces.
        assert_eq!(lorenzo3_block_error(&b, 1, 1, 1, bd), 0.0);
        assert_eq!(lorenzo3_block_error(&b, 2, 2, 2, bd), 0.0);
    }

    #[test]
    fn block_error_zero_on_affine_interior() {
        let mut b = Buffer3::zeros(Dims3::cube(8));
        b.fill_with(|i, j, k| i as f64 + j as f64 + k as f64);
        let e = lorenzo3_block_error(&b, 1, 1, 1, Dims3::cube(4));
        assert!(e < 1e-9, "affine interior error {e}");
        // A block touching the origin face picks up the zero-padding error.
        let e0 = lorenzo3_block_error(&b, 0, 0, 0, Dims3::cube(4));
        assert!(e0 > 0.0);
    }
}
