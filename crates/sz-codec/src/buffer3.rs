//! [`Buffer3`]: an owned 3-D array of `f64` in Fortran order (x fastest),
//! what decoders hand back; and [`View3`], the same shape over borrowed
//! data, which is what encoders read — a slice of a staged chunk is a unit
//! block without a copy.

/// Dimensions of a 3-D buffer, `(nx, ny, nz)` with x fastest in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dims3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl Dims3 {
    /// Construct dimensions; every extent must be ≥ 1.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "degenerate dims {nx}x{ny}x{nz}");
        Dims3 { nx, ny, nz }
    }

    /// A cube with edge `n`.
    pub fn cube(n: usize) -> Self {
        Dims3::new(n, n, n)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Always false (extents are ≥ 1) but required for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Linear index of `(i, j, k)`.
    #[inline(always)]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// Largest extent.
    pub fn max_dim(&self) -> usize {
        self.nx.max(self.ny).max(self.nz)
    }
}

/// Borrowed 3-D data: dimensions over a Fortran-ordered slice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct View3<'a> {
    dims: Dims3,
    data: &'a [f64],
}

impl<'a> View3<'a> {
    /// View `data` as a `dims`-shaped block.
    pub fn new(dims: Dims3, data: &'a [f64]) -> Self {
        assert_eq!(data.len(), dims.len(), "data length mismatch");
        View3 { dims, data }
    }

    /// Dimensions.
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// Flat data (Fortran order).
    pub fn data(&self) -> &'a [f64] {
        self.data
    }
}

/// Min and max of a slice, `(∞, −∞)` when it is empty. Four accumulator
/// lanes: one running `f64::min` is a latency chain the range pass of a
/// staged chunk spends longer in than in the copy that staged it. The
/// extremes do not depend on the order they are folded in.
pub fn min_max(data: &[f64]) -> (f64, f64) {
    let mut lo = [f64::INFINITY; 4];
    let mut hi = [f64::NEG_INFINITY; 4];
    let lanes = data.chunks_exact(4);
    for &v in lanes.remainder() {
        lo[0] = lo[0].min(v);
        hi[0] = hi[0].max(v);
    }
    for quad in lanes {
        for l in 0..4 {
            lo[l] = lo[l].min(quad[l]);
            hi[l] = hi[l].max(quad[l]);
        }
    }
    (
        lo.iter().copied().fold(f64::INFINITY, f64::min),
        hi.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    )
}

/// A unit block the encode path can read: owned buffers, references to
/// them, and views alike.
pub trait AsView3 {
    /// The block as dimensions over borrowed data.
    fn view(&self) -> View3<'_>;
}

impl AsView3 for Buffer3 {
    fn view(&self) -> View3<'_> {
        View3 {
            dims: self.dims,
            data: &self.data,
        }
    }
}

impl AsView3 for View3<'_> {
    fn view(&self) -> View3<'_> {
        *self
    }
}

impl<T: AsView3 + ?Sized> AsView3 for &T {
    fn view(&self) -> View3<'_> {
        (**self).view()
    }
}

/// Owned 3-D data buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct Buffer3 {
    dims: Dims3,
    data: Vec<f64>,
}

impl Buffer3 {
    /// Zero-filled buffer.
    pub fn zeros(dims: Dims3) -> Self {
        Buffer3 {
            data: vec![0.0; dims.len()],
            dims,
        }
    }

    /// Wrap existing Fortran-ordered data.
    pub fn from_vec(dims: Dims3, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), dims.len(), "data length mismatch");
        Buffer3 { dims, data }
    }

    /// Dimensions.
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// Flat data (Fortran order).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the flat vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element accessor.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.dims.idx(i, j, k)]
    }

    /// Element setter.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f64) {
        let idx = self.dims.idx(i, j, k);
        self.data[idx] = v;
    }

    /// Fill by evaluating `f(i, j, k)`.
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, usize, usize) -> f64) {
        for k in 0..self.dims.nz {
            for j in 0..self.dims.ny {
                for i in 0..self.dims.nx {
                    let idx = self.dims.idx(i, j, k);
                    self.data[idx] = f(i, j, k);
                }
            }
        }
    }

    /// Copy a `sub.dims()`-shaped block into this buffer with its origin at
    /// `(oi, oj, ok)`.
    pub fn paste(&mut self, sub: View3<'_>, oi: usize, oj: usize, ok: usize) {
        let sd = sub.dims;
        assert!(
            oi + sd.nx <= self.dims.nx && oj + sd.ny <= self.dims.ny && ok + sd.nz <= self.dims.nz,
            "paste out of bounds"
        );
        for k in 0..sd.nz {
            for j in 0..sd.ny {
                let src = sd.idx(0, j, k);
                let dst = self.dims.idx(oi, oj + j, ok + k);
                self.data[dst..dst + sd.nx].copy_from_slice(&sub.data[src..src + sd.nx]);
            }
        }
    }

    /// Extract an `(nx, ny, nz)`-shaped block with origin `(oi, oj, ok)`.
    pub fn extract(&self, oi: usize, oj: usize, ok: usize, dims: Dims3) -> Buffer3 {
        assert!(
            oi + dims.nx <= self.dims.nx
                && oj + dims.ny <= self.dims.ny
                && ok + dims.nz <= self.dims.nz,
            "extract out of bounds"
        );
        let mut out = Buffer3::zeros(dims);
        for k in 0..dims.nz {
            for j in 0..dims.ny {
                let src = self.dims.idx(oi, oj + j, ok + k);
                let dst = dims.idx(0, j, k);
                out.data[dst..dst + dims.nx].copy_from_slice(&self.data[src..src + dims.nx]);
            }
        }
        out
    }

    /// Min and max over the data.
    pub fn min_max(&self) -> (f64, f64) {
        min_max(&self.data)
    }

    /// Value range (max − min); 0 for constant data.
    pub fn value_range(&self) -> f64 {
        let (lo, hi) = self.min_max();
        hi - lo
    }

    /// An axis-aligned 2-D slice at `k = plane` (row-major `[j][i]`),
    /// handy for the paper's error-visualization figures.
    pub fn slice_z(&self, plane: usize) -> Vec<Vec<f64>> {
        assert!(plane < self.dims.nz);
        (0..self.dims.ny)
            .map(|j| (0..self.dims.nx).map(|i| self.get(i, j, plane)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_order_x_fastest() {
        let d = Dims3::new(3, 2, 2);
        assert_eq!(d.idx(0, 0, 0), 0);
        assert_eq!(d.idx(1, 0, 0), 1);
        assert_eq!(d.idx(0, 1, 0), 3);
        assert_eq!(d.idx(0, 0, 1), 6);
        assert_eq!(d.len(), 12);
    }

    #[test]
    fn paste_extract_roundtrip() {
        let mut big = Buffer3::zeros(Dims3::cube(8));
        let mut small = Buffer3::zeros(Dims3::new(3, 2, 4));
        small.fill_with(|i, j, k| (i + 10 * j + 100 * k) as f64 + 0.25);
        big.paste(small.view(), 2, 3, 1);
        let back = big.extract(2, 3, 1, small.dims());
        assert_eq!(back, small);
        assert_eq!(big.get(0, 0, 0), 0.0);
        assert_eq!(big.get(2, 3, 1), 0.25);
    }

    #[test]
    fn min_max_range() {
        let mut b = Buffer3::zeros(Dims3::cube(4));
        b.fill_with(|i, j, k| i as f64 - j as f64 + k as f64);
        let (lo, hi) = b.min_max();
        assert_eq!(lo, -3.0);
        assert_eq!(hi, 6.0);
        assert_eq!(b.value_range(), 9.0);
    }

    #[test]
    fn slice_extraction() {
        let mut b = Buffer3::zeros(Dims3::new(2, 2, 2));
        b.set(1, 0, 1, 5.0);
        let s = b.slice_z(1);
        assert_eq!(s[0][1], 5.0);
        assert_eq!(s[1][1], 0.0);
    }

    #[test]
    #[should_panic(expected = "paste out of bounds")]
    fn paste_bounds_checked() {
        let mut big = Buffer3::zeros(Dims3::cube(4));
        let small = Buffer3::zeros(Dims3::cube(3));
        big.paste(small.view(), 2, 0, 0);
    }
}
