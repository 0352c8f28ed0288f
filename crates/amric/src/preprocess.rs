//! AMRIC pre-processing (paper §3.1): redundancy removal and uniform
//! truncation of a rank's AMR data into unit blocks.
//!
//! For every level below the finest, coarse regions covered by the next
//! finer level are discarded (patch-based AMR keeps them but post-analysis
//! never reads them). The surviving rectangles — which AMReX's blocking
//! factor guarantees are unit-aligned — are cut into unit blocks that the
//! reorganization stage hands to the compressor. No positions need to ride
//! in the compressed stream: unit origins are reproducible from the level's
//! box metadata plus the finer level's boxes, exactly the paper's
//! "positions inferred from the box position of level ℓ+1".

use amr_mesh::overlap::box_coverage;
use amr_mesh::prelude::*;
use sz_codec::{AsView3, Buffer3, Dims3};

/// One unit block extracted from a level: its global index-space origin
/// and per-field decision to come. Data is extracted per field on demand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitRef {
    /// Which box of the level the unit came from.
    pub box_index: usize,
    /// Index-space region of the unit (usually `unit³`, clipped at domain
    /// edges).
    pub region: IntBox,
}

/// The unit edge used for a given level: the finest level uses the
/// run's blocking factor `bf`; each coarser level halves it (refinement
/// ratio 2), floored at 2 — matching the paper's Nyx test (fine 16,
/// coarse 8).
pub fn unit_edge_for_level(bf: i64, level: usize, num_levels: usize) -> i64 {
    let shift = (num_levels - 1 - level) as u32;
    (bf >> shift).max(2)
}

/// Plan the unit decomposition of one level for one rank.
///
/// * `level` / `finer`: the level's data and (for non-finest levels) the
///   next finer level's grids, used for redundancy removal.
/// * `ratio`: refinement ratio to the finer level.
/// * `unit`: unit-block edge for this level.
/// * `rank`: only boxes owned by this rank are planned.
/// * `remove_redundancy`: when false, covered regions are kept (ablation).
pub fn plan_units(
    level: &MultiFab,
    finer: Option<(&BoxArray, i64)>,
    unit: i64,
    rank: usize,
    remove_redundancy: bool,
) -> Vec<UnitRef> {
    plan_units_layout(
        level.box_array(),
        level.distribution(),
        finer,
        unit,
        rank,
        remove_redundancy,
    )
}

/// [`plan_units`] over the bare level layout (grids + ownership) instead
/// of a populated [`MultiFab`]. The query subsystem plans from plotfile
/// metadata alone this way — reconstructing unit decompositions without
/// allocating any field data.
pub fn plan_units_layout(
    ba: &BoxArray,
    dm: &DistributionMapping,
    finer: Option<(&BoxArray, i64)>,
    unit: i64,
    rank: usize,
    remove_redundancy: bool,
) -> Vec<UnitRef> {
    // Only the rank's own boxes are subtracted: planning every rank of a
    // level costs one pass over the level, not one per rank.
    let fine_coarsened = match finer {
        Some((fine_ba, ratio)) if remove_redundancy => Some(fine_ba.coarsened(ratio)),
        _ => None,
    };
    let mut units = Vec::new();
    for bi in dm.local_boxes(rank) {
        let valid = match &fine_coarsened {
            Some(fine) => box_coverage(ba, bi, fine).valid,
            None => vec![*ba.get(bi)],
        };
        for rect in &valid {
            for tile in rect.tiles(unit) {
                units.push(UnitRef {
                    box_index: bi,
                    region: tile,
                });
            }
        }
    }
    units
}

/// Inclusive index-space corners `(lo, hi)` of a unit plan's bounding
/// box — the extent format the chunk index persists.
pub type PlanExtent = ([i64; 3], [i64; 3]);

/// Bounding box of a plan's unit regions as inclusive index-space
/// corners (`None` for an empty plan). This is the extent the writer
/// persists in the chunk index and the extent the query engine checks
/// every stored one against at open — one definition for both.
pub fn plan_bounding_box(plan: &[UnitRef]) -> Option<PlanExtent> {
    let first = plan.first()?;
    let mut lo = first.region.lo;
    let mut hi = first.region.hi;
    for u in &plan[1..] {
        lo = lo.min(&u.region.lo);
        hi = hi.max(&u.region.hi);
    }
    Some((
        [lo.get(0), lo.get(1), lo.get(2)],
        [hi.get(0), hi.get(1), hi.get(2)],
    ))
}

/// Buffer shape of an index-space region.
pub fn region_dims(region: &IntBox) -> Dims3 {
    let sz = region.size();
    Dims3::new(sz.get(0) as usize, sz.get(1) as usize, sz.get(2) as usize)
}

/// Stage the field data of the planned units field-major (§3.3 Solution
/// 1): every unit in Fortran order, one after the other, copied straight
/// from the fabs. This is the chunk payload the in-situ writer hands the
/// filter, which reads the units back as slices of it.
pub fn stage_units(level: &MultiFab, units: &[UnitRef], field: usize) -> Vec<f64> {
    let cells = units.iter().map(|u| u.region.num_cells() as usize).sum();
    let mut staged = Vec::with_capacity(cells);
    for u in units {
        level
            .fab(u.box_index)
            .append_region(&u.region, field, &mut staged);
    }
    staged
}

/// Extract the field data of the planned units into owned compressor
/// buffers (Fortran order per unit) — for offline studies that keep the
/// units around; the writer stages with [`stage_units`].
pub fn extract_units(level: &MultiFab, units: &[UnitRef], field: usize) -> Vec<Buffer3> {
    units
        .iter()
        .map(|u| {
            let fab = level.fab(u.box_index);
            Buffer3::from_vec(region_dims(&u.region), fab.extract_region(&u.region, field))
        })
        .collect()
}

/// Scatter decompressed units back into a level's fabs (inverse of
/// [`extract_units`]). A restart never calls it — `reader` decodes each
/// unit straight into its fab — so it serves offline callers that hold
/// owned unit buffers, and is the second half of the restart oracle
/// (decode the units owned, then scatter).
pub fn scatter_units(level: &mut MultiFab, units: &[UnitRef], field: usize, data: &[Buffer3]) {
    assert_eq!(units.len(), data.len(), "unit/data count mismatch");
    for (u, buf) in units.iter().zip(data) {
        assert_eq!(
            buf.dims(),
            region_dims(&u.region),
            "unit shape mismatch at {:?}",
            u.region
        );
        level
            .fab_mut(u.box_index)
            .paste_region(&u.region, field, buf.data());
    }
}

/// Gradient-activity score of one unit block: the mean absolute
/// nearest-neighbor difference over all three axes. Smooth (near-constant
/// or slowly varying) units score near zero; units holding shocks, fronts,
/// or tagged fine structure score high. The adaptive bound policy
/// ([`crate::config::BoundPolicy::GradientAdaptive`]) classifies units by
/// comparing this score against the mean score of the chunk.
///
/// Deterministic in the unit data alone, so the parallel write path needs
/// no extra plumbing to stay byte-identical to serial.
pub fn unit_activity(unit: &impl AsView3) -> f64 {
    let unit = unit.view();
    let d = unit.dims();
    let data = unit.data();
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for k in 0..d.nz {
        for j in 0..d.ny {
            let row = d.idx(0, j, k);
            for i in 1..d.nx {
                sum += (data[row + i] - data[row + i - 1]).abs();
            }
            n += (d.nx - 1) as u64;
        }
    }
    for k in 0..d.nz {
        for j in 1..d.ny {
            let row = d.idx(0, j, k);
            let prev = d.idx(0, j - 1, k);
            for i in 0..d.nx {
                sum += (data[row + i] - data[prev + i]).abs();
            }
            n += d.nx as u64;
        }
    }
    for k in 1..d.nz {
        for j in 0..d.ny {
            let row = d.idx(0, j, k);
            let prev = d.idx(0, j, k - 1);
            for i in 0..d.nx {
                sum += (data[row + i] - data[prev + i]).abs();
            }
            n += d.nx as u64;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-level fixture: 16³ coarse in 8³ boxes on 2 ranks; fine level
    /// refines coarse cells [4..12)³ (one 8³ coarse region → 16³ fine).
    fn fixture() -> (MultiFab, BoxArray) {
        let ba = BoxArray::decompose(IntBox::from_extents(16, 16, 16), 8);
        let dm = DistributionMapping::round_robin(ba.len(), 2);
        let mut mf = MultiFab::new(ba, dm, vec!["rho".into(), "T".into()]);
        mf.fill_field(0, |p| (p.get(0) + 100 * p.get(1) + 10000 * p.get(2)) as f64);
        mf.fill_field(1, |p| -(p.get(0) as f64));
        let fine = BoxArray::new(vec![IntBox::new(
            IntVect::new(8, 8, 8),
            IntVect::new(23, 23, 23),
        )]);
        (mf, fine)
    }

    /// `plan_units_layout` as it was before it planned only the rank's own
    /// boxes: the whole level's coverage, then the rank's share of it.
    fn plan_units_layout_reference(
        ba: &BoxArray,
        dm: &DistributionMapping,
        finer: Option<(&BoxArray, i64)>,
        unit: i64,
        rank: usize,
        remove_redundancy: bool,
    ) -> Vec<UnitRef> {
        let valid_per_box: Vec<Vec<IntBox>> = match finer {
            Some((fine_ba, ratio)) if remove_redundancy => {
                amr_mesh::overlap::coverage(ba, fine_ba, ratio)
                    .into_iter()
                    .map(|c| c.valid)
                    .collect()
            }
            _ => ba.iter().map(|b| vec![*b]).collect(),
        };
        let mut units = Vec::new();
        for bi in dm.local_boxes(rank) {
            for rect in &valid_per_box[bi] {
                for tile in rect.tiles(unit) {
                    units.push(UnitRef {
                        box_index: bi,
                        region: tile,
                    });
                }
            }
        }
        units
    }

    #[test]
    fn rank_local_planning_makes_the_whole_level_plan() {
        // Three levels on five ranks: 32³ in 8³ boxes; two fine patches
        // over it, one straddling coarse boxes; a finest patch inside one.
        let cube = |lo: i64, hi: i64| IntBox::new(IntVect::splat(lo), IntVect::splat(hi));
        let levels = [
            BoxArray::decompose(IntBox::from_extents(32, 32, 32), 8),
            BoxArray::new(
                [cube(8, 39).tiles(16), cube(48, 63).tiles(8)]
                    .into_iter()
                    .flatten()
                    .collect(),
            ),
            BoxArray::new(cube(40, 71).tiles(16)),
        ];
        let mut planned = 0;
        for (l, ba) in levels.iter().enumerate() {
            let finer = levels.get(l + 1).map(|fine| (fine, 2));
            let unit = unit_edge_for_level(8, l, levels.len());
            for dm in [
                DistributionMapping::round_robin(ba.len(), 5),
                DistributionMapping::knapsack(ba, 5),
            ] {
                for (rank, remove) in (0..5).flat_map(|r| [(r, true), (r, false)]) {
                    let plan = plan_units_layout(ba, &dm, finer, unit, rank, remove);
                    let reference = plan_units_layout_reference(ba, &dm, finer, unit, rank, remove);
                    assert_eq!(plan, reference, "level {l} rank {rank} remove {remove}");
                    planned += plan.len();
                }
            }
        }
        assert!(planned > 10_000, "{planned} units planned");
    }

    #[test]
    fn unit_edges_follow_level() {
        assert_eq!(unit_edge_for_level(16, 1, 2), 16);
        assert_eq!(unit_edge_for_level(16, 0, 2), 8);
        assert_eq!(unit_edge_for_level(8, 0, 3), 2);
        assert_eq!(unit_edge_for_level(4, 0, 4), 2); // floored
    }

    #[test]
    fn plans_cover_owned_non_redundant_cells() {
        let (mf, fine) = fixture();
        for rank in 0..2 {
            let units = plan_units(&mf, Some((&fine, 2)), 4, rank, true);
            // Unit regions are disjoint and miss the covered cube [4..12)³.
            let covered = IntBox::new(IntVect::new(4, 4, 4), IntVect::new(11, 11, 11));
            for (i, u) in units.iter().enumerate() {
                assert!(!u.region.intersects(&covered), "{:?}", u.region);
                for v in &units[i + 1..] {
                    assert!(!u.region.intersects(&v.region));
                }
            }
        }
        // Both ranks together keep exactly total − covered cells.
        let total_kept: u64 = (0..2)
            .map(|r| {
                let units = plan_units(&mf, Some((&fine, 2)), 4, r, true);
                units.iter().map(|u| u.region.num_cells()).sum::<u64>()
            })
            .sum();
        assert_eq!(total_kept, 16 * 16 * 16 - 8 * 8 * 8);
    }

    #[test]
    fn no_removal_keeps_everything() {
        let (mf, fine) = fixture();
        let kept: u64 = (0..2)
            .map(|r| {
                let units = plan_units(&mf, Some((&fine, 2)), 4, r, false);
                units.iter().map(|u| u.region.num_cells()).sum::<u64>()
            })
            .sum();
        assert_eq!(kept, 16 * 16 * 16);
    }

    #[test]
    fn finest_level_keeps_everything() {
        let (mf, _) = fixture();
        let kept: u64 = (0..2)
            .map(|r| {
                let units = plan_units(&mf, None, 8, r, true);
                units.iter().map(|u| u.region.num_cells()).sum::<u64>()
            })
            .sum();
        assert_eq!(kept, 16 * 16 * 16);
    }

    #[test]
    fn extract_scatter_roundtrip() {
        let (mf, fine) = fixture();
        let units = plan_units(&mf, Some((&fine, 2)), 4, 0, true);
        let bufs = extract_units(&mf, &units, 0);
        // Scatter into a fresh MultiFab and compare on unit regions.
        let mut out = MultiFab::new(
            mf.box_array().clone(),
            mf.distribution().clone(),
            vec!["rho".into(), "T".into()],
        );
        scatter_units(&mut out, &units, 0, &bufs);
        for u in &units {
            for p in u.region.iter_points() {
                assert_eq!(
                    out.fab(u.box_index).get(&p, 0),
                    mf.fab(u.box_index).get(&p, 0)
                );
            }
        }
    }

    #[test]
    fn units_are_aligned_cubes_for_aligned_grids() {
        let (mf, fine) = fixture();
        let units = plan_units(&mf, Some((&fine, 2)), 4, 0, true);
        for u in &units {
            assert!(u.region.is_aligned(4), "{:?}", u.region);
            assert_eq!(u.region.num_cells(), 64);
        }
    }
}
