//! [`BoxArray`] (the set of grids on one AMR level) and
//! [`DistributionMapping`] (grid → MPI-rank assignment), mirroring AMReX.

use crate::geom::IntBox;

/// The collection of (disjoint) boxes that make up one AMR level.
///
/// AMReX invariants enforced here:
/// * boxes are pairwise disjoint,
/// * every box is aligned to the level's blocking factor (checked by
///   [`BoxArray::check_blocking_factor`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BoxArray {
    boxes: Vec<IntBox>,
}

impl BoxArray {
    /// Build from a list of boxes. Panics (debug) if boxes overlap.
    pub fn new(boxes: Vec<IntBox>) -> Self {
        #[cfg(debug_assertions)]
        for (i, a) in boxes.iter().enumerate() {
            for b in &boxes[i + 1..] {
                debug_assert!(!a.intersects(b), "BoxArray boxes overlap: {a:?} {b:?}");
            }
        }
        BoxArray { boxes }
    }

    /// A single box covering `domain`.
    pub fn single(domain: IntBox) -> Self {
        BoxArray {
            boxes: vec![domain],
        }
    }

    /// Chop `domain` into `max_grid_size`-sized boxes (AMReX `maxSize`),
    /// the standard way level-0 grids are created.
    pub fn decompose(domain: IntBox, max_grid_size: i64) -> Self {
        BoxArray {
            boxes: domain.tiles(max_grid_size),
        }
    }

    /// Number of boxes.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// True when the level has no grids.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Access a box by index.
    pub fn get(&self, i: usize) -> &IntBox {
        &self.boxes[i]
    }

    /// Iterate over the boxes.
    pub fn iter(&self) -> impl Iterator<Item = &IntBox> {
        self.boxes.iter()
    }

    /// All boxes as a slice.
    pub fn boxes(&self) -> &[IntBox] {
        &self.boxes
    }

    /// Total number of cells across all boxes.
    pub fn num_cells(&self) -> u64 {
        self.boxes.iter().map(|b| b.num_cells()).sum()
    }

    /// Indices of boxes intersecting `region` together with the
    /// intersection pieces. This is the AMReX `BoxArray::intersections`
    /// fast-path used by AMRIC to find redundant coarse data (§3.1).
    pub fn intersections(&self, region: &IntBox) -> Vec<(usize, IntBox)> {
        // AMReX accelerates this with a hash of coarsened bounding cells;
        // a bounding-box pre-cull keeps this O(n) per query with a tiny
        // constant, which is plenty at our box counts.
        self.boxes
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.intersection(region).map(|ib| (i, ib)))
            .collect()
    }

    /// Do any of the boxes intersect `region`?
    pub fn intersects(&self, region: &IntBox) -> bool {
        self.boxes.iter().any(|b| b.intersects(region))
    }

    /// Refine every box by `r` (level grids expressed at the finer index
    /// space).
    pub fn refined(&self, r: i64) -> BoxArray {
        BoxArray {
            boxes: self.boxes.iter().map(|b| b.refined(r)).collect(),
        }
    }

    /// Coarsen every box by `r`.
    pub fn coarsened(&self, r: i64) -> BoxArray {
        BoxArray {
            boxes: self.boxes.iter().map(|b| b.coarsened(r)).collect(),
        }
    }

    /// Verify the AMReX blocking-factor invariant for every box.
    pub fn check_blocking_factor(&self, bf: i64) -> bool {
        self.boxes.iter().all(|b| b.is_aligned(bf))
    }

    /// Fraction of `domain`'s cells covered by this array ("data density"
    /// in the paper's Table 1).
    pub fn density_in(&self, domain: &IntBox) -> f64 {
        self.num_cells() as f64 / domain.num_cells() as f64
    }
}

/// Assignment of each box on a level to an owning rank.
///
/// AMReX's default space-filling-curve / knapsack strategies are
/// approximated by a cell-count-balanced greedy knapsack, which is what
/// matters for the I/O experiments: the per-rank data volume distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct DistributionMapping {
    owner: Vec<usize>,
    nranks: usize,
}

impl DistributionMapping {
    /// Rebuild a mapping from explicit per-box owners (used when reading
    /// a plotfile back: the owners were recorded at write time).
    pub fn from_owners(owner: Vec<usize>, nranks: usize) -> Self {
        assert!(nranks > 0);
        assert!(owner.iter().all(|&o| o < nranks), "owner out of range");
        DistributionMapping { owner, nranks }
    }

    /// Round-robin assignment (AMReX `RoundRobin` strategy).
    pub fn round_robin(nboxes: usize, nranks: usize) -> Self {
        assert!(nranks > 0);
        DistributionMapping {
            owner: (0..nboxes).map(|i| i % nranks).collect(),
            nranks,
        }
    }

    /// Greedy knapsack on cell counts (largest box to least-loaded rank),
    /// approximating AMReX's `Knapsack` strategy.
    pub fn knapsack(ba: &BoxArray, nranks: usize) -> Self {
        assert!(nranks > 0);
        let mut order: Vec<usize> = (0..ba.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(ba.get(i).num_cells()));
        let mut load = vec![0u64; nranks];
        let mut owner = vec![0usize; ba.len()];
        for i in order {
            let rank = (0..nranks).min_by_key(|&r| load[r]).expect("nranks > 0");
            owner[i] = rank;
            load[rank] += ba.get(i).num_cells();
        }
        DistributionMapping { owner, nranks }
    }

    /// Owning rank of box `i`.
    pub fn owner(&self, i: usize) -> usize {
        self.owner[i]
    }

    /// Number of ranks in the mapping.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Indices of the boxes owned by `rank`.
    pub fn local_boxes(&self, rank: usize) -> Vec<usize> {
        self.owner
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o == rank)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total cells per rank, given the box array the mapping was built for.
    pub fn load_per_rank(&self, ba: &BoxArray) -> Vec<u64> {
        let mut load = vec![0u64; self.nranks];
        for (i, &o) in self.owner.iter().enumerate() {
            load[o] += ba.get(i).num_cells();
        }
        load
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::IntVect;

    #[test]
    fn decompose_covers_domain() {
        let domain = IntBox::from_extents(64, 64, 64);
        let ba = BoxArray::decompose(domain, 32);
        assert_eq!(ba.len(), 8);
        assert_eq!(ba.num_cells(), domain.num_cells());
        assert!(ba.check_blocking_factor(32));
    }

    #[test]
    fn decompose_non_divisible() {
        let domain = IntBox::from_extents(40, 40, 40);
        let ba = BoxArray::decompose(domain, 16);
        assert_eq!(ba.num_cells(), domain.num_cells());
        // Edge boxes are clipped: 16+16+8 per dimension.
        assert_eq!(ba.len(), 27);
    }

    #[test]
    fn intersections_finds_overlaps() {
        let ba = BoxArray::decompose(IntBox::from_extents(32, 32, 32), 16);
        let probe = IntBox::new(IntVect::new(8, 8, 8), IntVect::new(23, 23, 23));
        let hits = ba.intersections(&probe);
        assert_eq!(hits.len(), 8); // probe straddles all 8 sub-boxes
        let covered: u64 = hits.iter().map(|(_, b)| b.num_cells()).sum();
        assert_eq!(covered, probe.num_cells());
    }

    #[test]
    fn density() {
        let domain = IntBox::from_extents(32, 32, 32);
        let ba = BoxArray::new(vec![IntBox::from_extents(16, 16, 16)]);
        let d = ba.density_in(&domain);
        assert!((d - 0.125).abs() < 1e-12);
    }

    #[test]
    fn knapsack_balances_load() {
        let domain = IntBox::from_extents(64, 64, 32);
        let ba = BoxArray::decompose(domain, 16);
        let dm = DistributionMapping::knapsack(&ba, 4);
        let load = dm.load_per_rank(&ba);
        let (lo, hi) = (load.iter().min().unwrap(), load.iter().max().unwrap());
        assert!(*hi <= lo * 2, "knapsack load imbalance: {load:?}");
        assert_eq!(load.iter().sum::<u64>(), ba.num_cells());
    }

    #[test]
    fn round_robin_assignment() {
        let dm = DistributionMapping::round_robin(10, 4);
        assert_eq!(dm.owner(0), 0);
        assert_eq!(dm.owner(5), 1);
        assert_eq!(dm.local_boxes(2), vec![2, 6]);
    }
}
