//! [`Buffer3`]: an owned 3-D array of `f64` in Fortran order (x fastest),
//! what decoders hand back; [`View3`], the same shape over borrowed
//! data, which is what encoders read — a slice of a staged chunk is a unit
//! block without a copy; and [`UnitDest`] / [`StridedMut`], where decoders
//! write — a unit reconstructs in place inside whatever holds it.

use crate::error::{CodecError, CodecResult};

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

/// Where one decoded unit goes: cell `(i, j, k)` of a `dims`-shaped unit
/// lives at `data[i + j·row + k·plane]` — a dense buffer of its own, or a
/// box-shaped hole in a larger array. Decoders index it only through the
/// slice [`StridedMut::new`] admitted and write every cell of the unit
/// before reading it: what the slice held, and the cells between the
/// unit's rows, are never read or written.
pub struct StridedMut<'a> {
    pub(crate) dims: Dims3,
    pub(crate) data: &'a mut [f64],
    pub(crate) row: usize,
    pub(crate) plane: usize,
}

impl<'a> StridedMut<'a> {
    /// The one guard between a decoder and memory it does not own: rows
    /// and planes must not overlap (`row ≥ nx`, `plane ≥ row·ny`) and the
    /// unit's last cell must lie inside `data`, in checked arithmetic.
    pub fn new(dims: Dims3, data: &'a mut [f64], row: usize, plane: usize) -> CodecResult<Self> {
        let span = || {
            if row < dims.nx || plane < row.checked_mul(dims.ny)? {
                return None;
            }
            let last_plane = plane.checked_mul(dims.nz.checked_sub(1)?)?;
            let last_row = row.checked_mul(dims.ny.checked_sub(1)?)?;
            last_plane.checked_add(last_row)?.checked_add(dims.nx)
        };
        match span() {
            Some(span) if span <= data.len() => Ok(StridedMut {
                dims,
                data: &mut data[..span],
                row,
                plane,
            }),
            _ => Err(CodecError::dims(format!(
                "a destination of {} values at strides {row} / {plane} cannot hold a {dims:?} unit",
                data.len()
            ))),
        }
    }

    /// The destination, unless it was made for another shape than the
    /// `dims` the decoder asked for.
    pub(crate) fn for_dims(self, dims: Dims3) -> CodecResult<Self> {
        let made = self.dims;
        let refused = || CodecError::dims(format!("destination made for {made:?}, not {dims:?}"));
        (made == dims).then_some(self).ok_or_else(refused)
    }
}

/// "Is unit `i`, of shape `dims`, wanted, and where does it go?" — asked
/// by a decoder once per unit, in order, after the guards on the stream's
/// header have admitted `dims` and before the unit's first cell is
/// written. A destination can only answer or refuse: a restart answers
/// with the unit's box inside a fab, `Vec<Buffer3>` with a fresh buffer
/// per unit, a query's cache miss with buffers for the units its regions
/// meet alone.
pub trait UnitDest {
    /// Whether unit `i` is to be delivered: asked of every unit, wanted or
    /// not, so a destination sees each unit's shape. A unit it declines is
    /// passed over: its destination is never asked for; SZ_L/R, whose
    /// units are separate prediction domains under one entropy stream,
    /// reconstructs none of its cells, and an SZ_Interp layout only those
    /// a wanted unit of its cluster depends on.
    fn wants(&mut self, _i: usize, _dims: Dims3) -> CodecResult<bool> {
        Ok(true)
    }

    /// The destination of unit `i`, asked only after [`UnitDest::wants`]
    /// said yes.
    fn unit(&mut self, i: usize, dims: Dims3) -> CodecResult<StridedMut<'_>>;
}

/// The allocating destination: one owned buffer per unit, in order.
impl UnitDest for Vec<Buffer3> {
    fn unit(&mut self, i: usize, dims: Dims3) -> CodecResult<StridedMut<'_>> {
        if i != self.len() {
            return Err(CodecError::dims(format!("unit {i} arrived out of order")));
        }
        self.push(Buffer3::zeros(dims));
        let unit = self.last_mut().expect("just pushed");
        StridedMut::new(dims, &mut unit.data, dims.nx, dims.nx * dims.ny)
    }
}

/// Copy a unit that was reconstructed elsewhere to its destination, which
/// has said it wants it — the one step shared by every decoder that does
/// not reconstruct in place. Row `(j, k)` of the unit starts at
/// `src[j·src_row + k·src_plane]`, so the source may itself be a box
/// inside a packed buffer.
pub fn place_rows(
    dest: &mut dyn UnitDest,
    i: usize,
    dims: Dims3,
    src: &[f64],
    (src_row, src_plane): (usize, usize),
) -> CodecResult<()> {
    let to = dest.unit(i, dims)?.for_dims(dims)?;
    for k in 0..dims.nz {
        for j in 0..dims.ny {
            let (at, from) = (j * to.row + k * to.plane, j * src_row + k * src_plane);
            to.data[at..at + dims.nx].copy_from_slice(&src[from..from + dims.nx]);
        }
    }
    Ok(())
}

/// [`place_rows`] for a dense unit, if the destination wants it.
pub fn place_unit(dest: &mut dyn UnitDest, i: usize, unit: View3<'_>) -> CodecResult<()> {
    let d = unit.dims;
    if !dest.wants(i, d)? {
        return Ok(());
    }
    place_rows(dest, i, d, unit.data, (d.nx, d.nx * d.ny))
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

    /// Min and max over the data.
    pub fn min_max(&self) -> (f64, f64) {
        min_max(&self.data)
    }

    /// Value range (max − min); 0 for constant data.
    pub fn value_range(&self) -> f64 {
        let (lo, hi) = self.min_max();
        hi - lo
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
        let mut back = Buffer3::zeros(small.dims());
        back.fill_with(|i, j, k| big.get(2 + i, 3 + j, 1 + k));
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
    #[should_panic(expected = "paste out of bounds")]
    fn paste_bounds_checked() {
        let mut big = Buffer3::zeros(Dims3::cube(4));
        let small = Buffer3::zeros(Dims3::cube(3));
        big.paste(small.view(), 2, 0, 0);
    }
}
