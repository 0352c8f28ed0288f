//! [`FArrayBox`]: field data on a single box (AMReX `FArrayBox` equivalent).
//!
//! A fab stores `ncomp` floating-point components over the cells of one
//! [`IntBox`], in Fortran order with the component index slowest
//! (`data[comp][k][j][i]`, x fastest) — exactly AMReX's layout. All of the
//! AMRIC data-layout work (§3.3 of the paper) is about how this
//! component-slowest-per-box layout interacts with HDF5 chunking, so the
//! layout here must match AMReX's.

use crate::geom::{IntBox, IntVect};

/// Field data over one box. Components are stored contiguously one after
/// another ("struct of arrays" per box), matching AMReX.
#[derive(Clone, Debug, PartialEq)]
pub struct FArrayBox {
    domain: IntBox,
    ncomp: usize,
    data: Vec<f64>,
}

impl FArrayBox {
    /// Allocate a zero-filled fab.
    pub fn new(domain: IntBox, ncomp: usize) -> Self {
        assert!(ncomp > 0, "fab needs at least one component");
        let n = domain.num_cells() as usize * ncomp;
        FArrayBox {
            domain,
            ncomp,
            data: vec![0.0; n],
        }
    }

    /// The index-space region this fab covers.
    pub fn domain(&self) -> &IntBox {
        &self.domain
    }

    /// Number of components.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Cells per component.
    pub fn cells(&self) -> usize {
        self.domain.num_cells() as usize
    }

    /// Raw storage (all components, component-slowest).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One component as a slice (Fortran-ordered over the box).
    pub fn comp(&self, c: usize) -> &[f64] {
        assert!(c < self.ncomp);
        let n = self.cells();
        &self.data[c * n..(c + 1) * n]
    }

    /// One component, mutable.
    pub fn comp_mut(&mut self, c: usize) -> &mut [f64] {
        assert!(c < self.ncomp);
        let n = self.cells();
        &mut self.data[c * n..(c + 1) * n]
    }

    /// Value at a point.
    #[inline]
    pub fn get(&self, p: &IntVect, c: usize) -> f64 {
        self.comp(c)[self.domain.linear_index(p)]
    }

    /// Set the value at a point.
    #[inline]
    pub fn set(&mut self, p: &IntVect, c: usize, v: f64) {
        let idx = self.domain.linear_index(p);
        self.comp_mut(c)[idx] = v;
    }

    /// Fill every cell of component `c` by evaluating `f` at the cell index.
    pub fn fill_with(&mut self, c: usize, mut f: impl FnMut(&IntVect) -> f64) {
        let domain = self.domain;
        let comp = self.comp_mut(c);
        for (i, p) in domain.iter_points().enumerate() {
            comp[i] = f(&p);
        }
    }

    /// Copy the sub-region `region` (must lie inside both fabs' domains) of
    /// component `src_c` from `src` into component `dst_c` of `self`.
    pub fn copy_region(&mut self, src: &FArrayBox, region: &IntBox, src_c: usize, dst_c: usize) {
        assert!(self.domain.contains_box(region));
        assert!(src.domain.contains_box(region));
        let dst_domain = self.domain;
        let src_domain = src.domain;
        // Copy x-runs at a time: the region is contiguous along x in both.
        let sz = region.size();
        let run = sz.get(0) as usize;
        for z in region.lo.get(2)..=region.hi.get(2) {
            for y in region.lo.get(1)..=region.hi.get(1) {
                let start = IntVect::new(region.lo.get(0), y, z);
                let si = src_domain.linear_index(&start);
                let di = dst_domain.linear_index(&start);
                let (s_off, d_off) = (src_c * src.cells(), dst_c * self.cells());
                let src_slice = &src.data[s_off + si..s_off + si + run];
                self.data[d_off + di..d_off + di + run].copy_from_slice(src_slice);
            }
        }
    }

    /// Extract the sub-region `region` of component `c` into a new Fortran-
    /// ordered buffer of `region.num_cells()` values.
    pub fn extract_region(&self, region: &IntBox, c: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(region.num_cells() as usize);
        self.append_region(region, c, &mut out);
        out
    }

    /// Append the sub-region `region` of component `c` to `out` in Fortran
    /// order — [`FArrayBox::extract_region`] into a caller's buffer, so a
    /// run of regions stages into one allocation.
    pub fn append_region(&self, region: &IntBox, c: usize, out: &mut Vec<f64>) {
        assert!(self.domain.contains_box(region), "{region:?} outside fab");
        let comp = self.comp(c);
        let (size, stride) = (region.size(), self.domain.size());
        let run = size.get(0) as usize;
        let (row, plane) = (
            stride.get(0) as usize,
            (stride.get(0) * stride.get(1)) as usize,
        );
        let mut z_start = self.domain.linear_index(&region.lo);
        for _ in 0..size.get(2) {
            let mut start = z_start;
            for _ in 0..size.get(1) {
                out.extend_from_slice(&comp[start..start + run]);
                start += row;
            }
            z_start += plane;
        }
    }

    /// Overwrite the sub-region `region` of component `c` with `src`, its
    /// `region.num_cells()` values in Fortran order — the inverse of
    /// [`FArrayBox::append_region`].
    pub fn paste_region(&mut self, region: &IntBox, c: usize, src: &[f64]) {
        let (dst, row, plane) = self.region_mut(region, c);
        assert_eq!(
            src.len(),
            region.num_cells() as usize,
            "source length does not match {region:?}"
        );
        let size = region.size();
        let run = size.get(0) as usize;
        let mut rows = src.chunks_exact(run);
        for k in 0..size.get(2) as usize {
            for j in 0..size.get(1) as usize {
                let at = j * row + k * plane;
                dst[at..at + run].copy_from_slice(rows.next().expect("length checked"));
            }
        }
    }

    /// Component `c` from `region.lo` on, with the box's row and plane
    /// strides: cell `(i, j, k)` of `region` is at `i + j·row + k·plane` —
    /// where a decoder reconstructs a unit in place.
    pub fn region_mut(&mut self, region: &IntBox, c: usize) -> (&mut [f64], usize, usize) {
        assert!(self.domain.contains_box(region), "{region:?} outside fab");
        let (start, stride) = (self.domain.linear_index(&region.lo), self.domain.size());
        let (row, plane) = (stride.get(0), stride.get(0) * stride.get(1));
        (&mut self.comp_mut(c)[start..], row as usize, plane as usize)
    }

    /// Min and max of one component. Returns `(f64::INFINITY, -INFINITY)`
    /// for empty data (cannot happen for a valid box).
    pub fn min_max(&self, c: usize) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in self.comp(c) {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_component_slowest() {
        let b = IntBox::from_extents(2, 2, 1);
        let mut fab = FArrayBox::new(b, 2);
        fab.set(&IntVect::new(0, 0, 0), 0, 1.0);
        fab.set(&IntVect::new(1, 0, 0), 0, 2.0);
        fab.set(&IntVect::new(0, 0, 0), 1, 10.0);
        assert_eq!(fab.data()[0], 1.0);
        assert_eq!(fab.data()[1], 2.0);
        assert_eq!(fab.data()[4], 10.0); // second component starts at cells()
    }

    #[test]
    fn fill_and_extract_region() {
        let b = IntBox::from_extents(4, 4, 4);
        let mut fab = FArrayBox::new(b, 1);
        fab.fill_with(0, |p| (p.get(0) + 10 * p.get(1) + 100 * p.get(2)) as f64);
        let region = IntBox::new(IntVect::new(1, 1, 1), IntVect::new(2, 2, 2));
        let sub = fab.extract_region(&region, 0);
        assert_eq!(sub.len(), 8);
        assert_eq!(sub[0], 111.0);
        assert_eq!(sub[1], 112.0); // x fastest
        assert_eq!(sub[2], 121.0);
        assert_eq!(sub[4], 211.0);
    }

    #[test]
    fn copy_region_roundtrip() {
        let b = IntBox::from_extents(6, 6, 6);
        let mut src = FArrayBox::new(b, 2);
        src.fill_with(1, |p| (p.get(0) * p.get(1) * p.get(2)) as f64 + 0.5);
        let mut dst = FArrayBox::new(b, 2);
        let region = IntBox::new(IntVect::new(2, 0, 3), IntVect::new(5, 4, 5));
        dst.copy_region(&src, &region, 1, 0);
        for p in region.iter_points() {
            assert_eq!(dst.get(&p, 0), src.get(&p, 1));
        }
        // Outside the region stays zero.
        assert_eq!(dst.get(&IntVect::new(0, 0, 0), 0), 0.0);
    }

    /// A 3-component fab over an off-origin box, every value distinct.
    fn numbered_fab() -> FArrayBox {
        let domain = IntBox::new(IntVect::new(-2, 3, 1), IntVect::new(6, 7, 5));
        let mut fab = FArrayBox::new(domain, 3);
        for (i, v) in fab.data_mut().iter_mut().enumerate() {
            *v = i as f64 + 0.5;
        }
        fab
    }

    /// Whole domain, one cell, a single row, the clipped corners, and
    /// seeded boxes in between.
    fn regions_inside(domain: &IntBox) -> Vec<IntBox> {
        let (lo, hi) = (domain.lo, domain.hi);
        let mut regions = vec![
            *domain,
            IntBox::new(IntVect::new(1, 4, 2), IntVect::new(1, 4, 2)),
            IntBox::new(IntVect::new(lo.get(0), 5, 3), IntVect::new(hi.get(0), 5, 3)),
            IntBox::new(lo, IntVect::new(lo.get(0) + 2, lo.get(1) + 1, lo.get(2))),
            IntBox::new(IntVect::new(hi.get(0) - 3, hi.get(1), hi.get(2) - 2), hi),
        ];
        let mut x = 7u64;
        let mut below = |n: i64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % n as u64) as i64
        };
        for _ in 0..40 {
            let mut corner = |axis: usize| {
                let a = lo.get(axis) + below(domain.size().get(axis));
                (a, a + below(hi.get(axis) - a + 1))
            };
            let (x, y, z) = (corner(0), corner(1), corner(2));
            regions.push(IntBox::new(
                IntVect::new(x.0, y.0, z.0),
                IntVect::new(x.1, y.1, z.1),
            ));
        }
        regions
    }

    #[test]
    fn paste_region_inverts_append_region() {
        let fab = numbered_fab();
        for region in regions_inside(fab.domain()) {
            for c in 0..3 {
                // Pasting what was extracted changes nothing.
                let src = fab.extract_region(&region, c);
                let mut same = fab.clone();
                same.paste_region(&region, c, &src);
                assert_eq!(same, fab, "{region:?} comp {c}");
                // Into a zero fab: the region reads back as the source,
                // every other cell and component stays zero.
                let mut zero = FArrayBox::new(*fab.domain(), 3);
                zero.paste_region(&region, c, &src);
                assert_eq!(zero.extract_region(&region, c), src, "{region:?} comp {c}");
                for p in fab.domain().iter_points() {
                    for other in 0..3 {
                        let pasted = other == c && region.contains(&p);
                        let expect = if pasted { fab.get(&p, c) } else { 0.0 };
                        assert_eq!(zero.get(&p, other), expect, "{region:?} {p:?} comp {other}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside fab")]
    fn paste_region_outside_the_domain_panics() {
        let mut fab = numbered_fab();
        let region = IntBox::new(IntVect::new(5, 3, 1), IntVect::new(7, 3, 1));
        fab.paste_region(&region, 0, &[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "source length does not match")]
    fn paste_region_with_a_wrong_length_source_panics() {
        let mut fab = numbered_fab();
        let region = IntBox::new(IntVect::new(0, 3, 1), IntVect::new(2, 4, 1));
        fab.paste_region(&region, 0, &[0.0; 5]);
    }

    #[test]
    fn min_max() {
        let b = IntBox::from_extents(3, 3, 3);
        let mut fab = FArrayBox::new(b, 1);
        fab.fill_with(0, |p| p.get(0) as f64 - p.get(2) as f64);
        let (lo, hi) = fab.min_max(0);
        assert_eq!(lo, -2.0);
        assert_eq!(hi, 2.0);
    }
}
