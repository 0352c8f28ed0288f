//! Redundancy computation for patch-based AMR: which parts of a coarse
//! level are *covered* by the next finer level (paper §3.1).
//!
//! Patch-based AMR keeps valid data in coarse cells underneath fine grids;
//! that data is never used by post-analysis (Fig. 3: coarse point "0D") and
//! AMRIC removes it before compression. This module computes, per coarse
//! box, the covered region as a list of rectangles, and the complementary
//! *valid* (kept) rectangles, using the box-intersection machinery that
//! AMReX exposes (`BoxArray::intersections`).

use crate::boxarray::BoxArray;
use crate::geom::IntBox;

/// Per-box coverage report for one level against its finer level.
#[derive(Clone, Debug)]
pub struct BoxCoverage {
    /// Index of the coarse box within its level's BoxArray.
    pub box_index: usize,
    /// Pieces of the coarse box covered by (coarsened) fine grids.
    pub covered: Vec<IntBox>,
    /// Pieces of the coarse box NOT covered — the data AMRIC keeps.
    pub valid: Vec<IntBox>,
}

impl BoxCoverage {
    /// Cells covered by fine grids.
    pub fn covered_cells(&self) -> u64 {
        self.covered.iter().map(|b| b.num_cells()).sum()
    }

    /// Cells kept after redundancy removal.
    pub fn valid_cells(&self) -> u64 {
        self.valid.iter().map(|b| b.num_cells()).sum()
    }
}

/// Compute coverage of every box in `coarse` by `fine` (fine grids given in
/// the fine index space; `ratio` relates the two). The returned coverage
/// list is parallel to `coarse.boxes()`.
pub fn coverage(coarse: &BoxArray, fine: &BoxArray, ratio: i64) -> Vec<BoxCoverage> {
    let fine_coarsened = fine.coarsened(ratio);
    (0..coarse.len())
        .map(|i| box_coverage(coarse, i, &fine_coarsened))
        .collect()
}

/// Coverage of box `box_index` of `coarse` alone, by fine grids already
/// coarsened to its index space — what [`coverage`] computes per box, for
/// callers that need a few boxes of a level and not the level.
pub fn box_coverage(coarse: &BoxArray, box_index: usize, fine_coarsened: &BoxArray) -> BoxCoverage {
    let cb = coarse.get(box_index);
    let covered: Vec<IntBox> = fine_coarsened
        .intersections(cb)
        .into_iter()
        .map(|(_, ib)| ib)
        .collect();
    // valid = cb \ union(covered), computed by iterated subtraction.
    let mut valid = vec![*cb];
    for cov in &covered {
        let mut next = Vec::with_capacity(valid.len() + 4);
        for v in valid {
            next.extend(v.subtract(cov));
        }
        valid = next;
    }
    BoxCoverage {
        box_index,
        covered,
        valid,
    }
}

/// Summary of how much of a level is redundant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RedundancySummary {
    /// Total cells on the level.
    pub total_cells: u64,
    /// Cells covered by the finer level (removable).
    pub covered_cells: u64,
}

impl RedundancySummary {
    /// Fraction of the level that survives redundancy removal — the
    /// paper's "data density" for a mid level (e.g. 82.3 % for the Nyx
    /// coarse level in §3.1).
    pub fn kept_fraction(&self) -> f64 {
        1.0 - self.covered_cells as f64 / self.total_cells as f64
    }
}

/// Aggregate coverage over a whole level.
pub fn summarize(cov: &[BoxCoverage], coarse: &BoxArray) -> RedundancySummary {
    RedundancySummary {
        total_cells: coarse.num_cells(),
        covered_cells: cov.iter().map(|c| c.covered_cells()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::IntVect;

    #[test]
    fn full_cover() {
        let coarse = BoxArray::single(IntBox::from_extents(8, 8, 8));
        let fine = BoxArray::single(IntBox::from_extents(16, 16, 16));
        let cov = coverage(&coarse, &fine, 2);
        assert_eq!(cov.len(), 1);
        assert_eq!(cov[0].covered_cells(), 512);
        assert!(cov[0].valid.is_empty());
        let s = summarize(&cov, &coarse);
        assert_eq!(s.kept_fraction(), 0.0);
    }

    #[test]
    fn no_cover() {
        let coarse = BoxArray::single(IntBox::from_extents(8, 8, 8));
        let fine = BoxArray::new(vec![]);
        let cov = coverage(&coarse, &fine, 2);
        assert_eq!(cov[0].covered_cells(), 0);
        assert_eq!(cov[0].valid_cells(), 512);
        assert_eq!(summarize(&cov, &coarse).kept_fraction(), 1.0);
    }

    #[test]
    fn partial_cover_partition() {
        // Fine level refines coarse cells [2..6)³ of an 8³ coarse box.
        let coarse = BoxArray::single(IntBox::from_extents(8, 8, 8));
        let fine = BoxArray::single(IntBox::new(IntVect::new(4, 4, 4), IntVect::new(11, 11, 11)));
        let cov = coverage(&coarse, &fine, 2);
        assert_eq!(cov[0].covered_cells(), 64);
        assert_eq!(cov[0].valid_cells(), 512 - 64);
        // valid pieces are disjoint and disjoint from covered pieces.
        let all: Vec<IntBox> = cov[0]
            .valid
            .iter()
            .chain(cov[0].covered.iter())
            .copied()
            .collect();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert!(!a.intersects(b), "{a:?} vs {b:?}");
            }
        }
        let s = summarize(&cov, &coarse);
        assert!((s.kept_fraction() - (1.0 - 64.0 / 512.0)).abs() < 1e-12);
    }

    #[test]
    fn multi_box_levels() {
        let coarse = BoxArray::decompose(IntBox::from_extents(16, 16, 16), 8);
        // One fine grid straddling several coarse boxes.
        let fine = BoxArray::single(IntBox::new(IntVect::new(8, 8, 8), IntVect::new(23, 23, 23)));
        let cov = coverage(&coarse, &fine, 2);
        let total_covered: u64 = cov.iter().map(|c| c.covered_cells()).sum();
        assert_eq!(total_covered, 8 * 8 * 8); // 16³ fine = 8³ coarse cells
        let s = summarize(&cov, &coarse);
        assert!((s.kept_fraction() - (1.0 - 512.0 / 4096.0)).abs() < 1e-12);
    }

    #[test]
    fn blocking_factor_alignment_of_pieces() {
        // When fine grids are aligned to bf*ratio, coverage pieces on the
        // coarse level align to bf — the invariant AMRIC's unit-block
        // truncation relies on.
        let coarse = BoxArray::decompose(IntBox::from_extents(32, 32, 32), 16);
        let fine = BoxArray::new(vec![IntBox::new(
            IntVect::new(16, 16, 16),
            IntVect::new(47, 47, 47),
        )]);
        assert!(fine.check_blocking_factor(16));
        let cov = coverage(&coarse, &fine, 2);
        for c in &cov {
            for piece in c.covered.iter().chain(c.valid.iter()) {
                assert!(piece.is_aligned(8), "{piece:?} not 8-aligned");
            }
        }
    }
}
