//! Reorganization of truncated unit blocks (paper §3.1, Fig. 4 right):
//! linear stacking for SZ_L/R, cube-like clustering for SZ_Interp, and —
//! where the writer knows where its units lie — dense clusters of units
//! kept where they lie (the pipeline's placed mode).

use amr_mesh::cluster::{berger_rigoutsos, ClusterParams};
use amr_mesh::geom::{IntBox, IntVect};
use amr_mesh::tagging::TagField;
use sz_codec::buffer3::{place_rows, place_unit};
use sz_codec::{AsView3, Buffer3, CodecError, CodecResult, Dims3, UnitDest, View3};

/// Stack same-footprint unit blocks along z ("put the unit blocks along
/// the z-axis", the minimum-operation arrangement for SZ_L/R).
/// Returns the merged buffer and the per-unit z-extents for splitting.
pub fn linear_merge<U: AsView3>(units: &[U]) -> (Buffer3, Vec<usize>) {
    assert!(!units.is_empty(), "nothing to merge");
    let d0 = units[0].view().dims();
    assert!(
        units.iter().all(|u| {
            let d = u.view().dims();
            d.nx == d0.nx && d.ny == d0.ny
        }),
        "linear merge needs a uniform x/y footprint"
    );
    let nz: usize = units.iter().map(|u| u.view().dims().nz).sum();
    let mut merged = Buffer3::zeros(Dims3::new(d0.nx, d0.ny, nz));
    let mut z = 0;
    let mut extents = Vec::with_capacity(units.len());
    for u in units {
        let u = u.view();
        merged.paste(u, 0, 0, z);
        z += u.dims().nz;
        extents.push(u.dims().nz);
    }
    (merged, extents)
}

/// Split a linear merge back into units, each copied to where `dest`
/// says it goes (a `Vec<Buffer3>` collects them): unit `i` is the
/// `z_extents[i]` planes after its predecessors', contiguous in `merged`.
pub fn linear_place(
    merged: &Buffer3,
    z_extents: &[usize],
    dest: &mut dyn UnitDest,
) -> CodecResult<()> {
    let d = merged.dims();
    let (plane, mut z) = (d.nx * d.ny, 0);
    for (i, &nz) in z_extents.iter().enumerate() {
        let slab = &merged.data()[z * plane..(z + nz) * plane];
        place_unit(dest, i, View3::new(Dims3::new(d.nx, d.ny, nz), slab))?;
        z += nz;
    }
    assert_eq!(z, d.nz, "extents do not cover the merged buffer");
    Ok(())
}

/// Grid shape of a cluster arrangement: `(gx, gy, gz)` unit slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterGrid {
    pub gx: usize,
    pub gy: usize,
    pub gz: usize,
}

impl ClusterGrid {
    /// Total slots.
    pub fn slots(&self) -> usize {
        self.gx * self.gy * self.gz
    }
}

/// Choose a near-cubic slot grid for `n` unit blocks, minimizing slack
/// first and aspect ratio second — the paper's "cluster the truncated unit
/// blocks more closely into a cube-like formation".
pub fn cluster_grid(n: usize) -> ClusterGrid {
    assert!(n > 0);
    let mut best = ClusterGrid {
        gx: n,
        gy: 1,
        gz: 1,
    };
    let mut best_key = (usize::MAX, usize::MAX);
    let cap = (n as f64).cbrt().ceil() as usize + 1;
    for gz in 1..=cap {
        for gy in gz..=n.div_ceil(gz) {
            let gx = n.div_ceil(gy * gz);
            if gx < gy {
                continue;
            }
            let slack = gx * gy * gz - n;
            let aspect = gx - gz; // smaller = more cubic
            if (slack, aspect) < best_key {
                best_key = (slack, aspect);
                best = ClusterGrid { gx, gy, gz };
            }
        }
    }
    best
}

/// Pack cubic unit blocks of edge `b` into a near-cube buffer. Slack slots
/// (when `n` doesn't factor nicely) are filled with copies of the last
/// unit so the interpolator sees smooth data; [`cluster_place`] drops
/// them. Returns the packed buffer and the grid used.
pub fn cluster_pack<U: AsView3>(units: &[U]) -> (Buffer3, ClusterGrid) {
    assert!(!units.is_empty(), "nothing to pack");
    let d0 = units[0].view().dims();
    assert!(
        units.iter().all(|u| u.view().dims() == d0),
        "cluster packing needs uniformly shaped units"
    );
    let grid = cluster_grid(units.len());
    let mut packed = Buffer3::zeros(Dims3::new(
        grid.gx * d0.nx,
        grid.gy * d0.ny,
        grid.gz * d0.nz,
    ));
    let last = units.last().expect("non-empty");
    for slot in 0..grid.slots() {
        let u = units.get(slot).unwrap_or(last);
        let (sx, sy, sz) = slot_coords(grid, slot);
        packed.paste(u.view(), sx * d0.nx, sy * d0.ny, sz * d0.nz);
    }
    (packed, grid)
}

/// Extract the first `n` units back out of a packed cluster buffer, each
/// slot's rows copied straight to where `dest` says the unit goes (a
/// `Vec<Buffer3>` collects them).
pub fn cluster_place(
    packed: &Buffer3,
    grid: ClusterGrid,
    unit: Dims3,
    n: usize,
    dest: &mut dyn UnitDest,
) -> CodecResult<()> {
    assert!(n <= grid.slots());
    let pd = packed.dims();
    for slot in 0..n {
        let (sx, sy, sz) = slot_coords(grid, slot);
        let origin = pd.idx(sx * unit.nx, sy * unit.ny, sz * unit.nz);
        let strides = (pd.nx, pd.nx * pd.ny);
        place_rows(dest, slot, unit, &packed.data()[origin..], strides)?;
    }
    Ok(())
}

/// A chunk's units clustered where they lie: the Berger–Rigoutsos boxes of
/// the chunk's unit grid (one cell per unit, tagged where a unit is), each
/// compressed as one domain in index-space order with its hole cells
/// filled, and every unit's slot in its box. Nothing but the units'
/// origins decides it, so the encoder's clustering is deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Placement {
    /// Each cluster's shape in units, in cluster order.
    pub(crate) clusters: Vec<ClusterGrid>,
    /// Per unit, in the chunk's order: its cluster, and its slot in that
    /// cluster (x fastest, as [`cluster_pack`] numbers slots).
    pub(crate) slots: Vec<(u32, u32)>,
}

impl Placement {
    /// Cluster the unit cubes of edge `edge` whose index-space origins
    /// are `origins` at tagging efficiency `grid_eff` (blocking factor 1
    /// unit, no size cap). `None` when there is no unit, an origin is off
    /// the `edge` grid or two units share one.
    pub(crate) fn cluster(origins: &[IntVect], edge: usize, grid_eff: f64) -> Option<Placement> {
        let e = i64::try_from(edge).ok().filter(|&e| e > 0)?;
        let aligned = |o: &IntVect| (0..3).all(|d| o.get(d).rem_euclid(e) == 0);
        if !origins.iter().all(aligned) {
            return None;
        }
        let cells: Vec<IntVect> = origins.iter().map(|o| o.coarsened(e)).collect();
        let first = *cells.first()?;
        let (lo, hi) = cells[1..]
            .iter()
            .fold((first, first), |(lo, hi), c| (lo.min(c), hi.max(c)));
        let grid = IntBox::new(lo, hi);
        let mut tags = TagField::new(grid);
        for c in &cells {
            if tags.get(c) {
                return None;
            }
            tags.set(c, true);
        }
        let params = ClusterParams {
            grid_eff,
            blocking_factor: 1,
            max_grid_size: i64::MAX,
        };
        let boxes = berger_rigoutsos(&tags, &params);
        let mut owner = vec![u32::MAX; grid.num_cells() as usize];
        for (b, bx) in boxes.iter().enumerate() {
            for p in bx.iter_points() {
                owner[grid.linear_index(&p)] = b as u32;
            }
        }
        let slots = cells
            .iter()
            .map(|c| {
                let b = owner[grid.linear_index(c)];
                (b, boxes[b as usize].linear_index(c) as u32)
            })
            .collect();
        let clusters = boxes
            .iter()
            .map(|b| {
                let n = |d: usize| b.size().get(d) as usize;
                ClusterGrid {
                    gx: n(0),
                    gy: n(1),
                    gz: n(2),
                }
            })
            .collect();
        Some(Placement { clusters, slots })
    }

    /// Pack `units` (cubes of edge `edge`) into their clusters, each one
    /// buffer in index-space order; hole cells read zero.
    pub(crate) fn pack<U: AsView3>(&self, units: &[U], edge: usize) -> Vec<Buffer3> {
        let shape = |g: &ClusterGrid| Dims3::new(g.gx * edge, g.gy * edge, g.gz * edge);
        let mut packed: Vec<Buffer3> = self
            .clusters
            .iter()
            .map(|g| Buffer3::zeros(shape(g)))
            .collect();
        for (u, &(c, s)) in units.iter().zip(&self.slots) {
            let (sx, sy, sz) = slot_coords(self.clusters[c as usize], s as usize);
            packed[c as usize].paste(u.view(), sx * edge, sy * edge, sz * edge);
        }
        packed
    }

    /// The slot map as the stream stores it: per unit, the change of
    /// cluster from the unit before and the slot's distance past the last
    /// slot taken in its cluster, both zig-zag LEB128 varints. Units that
    /// follow each other along a row cost two zero bytes, which the
    /// lossless stage then folds.
    pub(crate) fn encode_slots(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 * self.slots.len());
        let mut next = vec![0i64; self.clusters.len()];
        let mut prev_cluster = 0i64;
        for &(c, s) in &self.slots {
            put_zigzag(&mut out, c as i64 - prev_cluster);
            put_zigzag(&mut out, s as i64 - next[c as usize]);
            prev_cluster = c as i64;
            next[c as usize] = s as i64 + 1;
        }
        out
    }

    /// Inverse of [`Placement::encode_slots`] for `n` units over
    /// `clusters`. Every unit must land on a slot inside its cluster, no
    /// two on one, and the map must hold exactly `n` units. The caller has
    /// bounded the clusters' slots.
    pub(crate) fn decode_slots(
        clusters: Vec<ClusterGrid>,
        n: usize,
        bytes: &[u8],
    ) -> CodecResult<Placement> {
        // Two varint bytes at least per unit: reject counts the map can't hold.
        if n as u128 * 2 > bytes.len() as u128 {
            return Err(CodecError::dims(format!(
                "slot map of {} bytes cannot hold {n} units",
                bytes.len()
            )));
        }
        let mut starts = Vec::with_capacity(clusters.len());
        let mut total = 0usize;
        for g in &clusters {
            starts.push(total);
            total += g.slots();
        }
        let mut taken = vec![false; total];
        let mut next = vec![0i64; clusters.len()];
        let (mut rest, mut cluster) = (bytes, 0i64);
        let mut slots = Vec::with_capacity(n);
        for i in 0..n {
            cluster = cluster
                .checked_add(get_zigzag(&mut rest)?)
                .filter(|c| (0..clusters.len() as i64).contains(c))
                .ok_or_else(|| CodecError::corrupt(format!("unit {i} names no cluster")))?;
            let c = cluster as usize;
            let slot = next[c]
                .checked_add(get_zigzag(&mut rest)?)
                .filter(|s| (0..clusters[c].slots() as i64).contains(s))
                .ok_or_else(|| CodecError::corrupt(format!("unit {i} lies outside cluster {c}")))?;
            let at = &mut taken[starts[c] + slot as usize];
            if std::mem::replace(at, true) {
                return Err(CodecError::corrupt(format!(
                    "unit {i} takes slot {slot} of cluster {c} twice"
                )));
            }
            next[c] = slot + 1;
            slots.push((c as u32, slot as u32));
        }
        if !rest.is_empty() {
            return Err(CodecError::corrupt(format!(
                "slot map holds more than {n} units"
            )));
        }
        Ok(Placement { clusters, slots })
    }

    /// Copy every unit out of its decoded cluster (`packed[c]`, the
    /// clusters in order) to where `dest` says it goes, in the chunk's
    /// order.
    pub(crate) fn place(
        &self,
        packed: &[Buffer3],
        edge: usize,
        dest: &mut dyn UnitDest,
    ) -> CodecResult<()> {
        for (i, &(c, s)) in self.slots.iter().enumerate() {
            let (grid, buf) = (self.clusters[c as usize], &packed[c as usize]);
            let (sx, sy, sz) = slot_coords(grid, s as usize);
            let pd = buf.dims();
            let origin = pd.idx(sx * edge, sy * edge, sz * edge);
            let strides = (pd.nx, pd.nx * pd.ny);
            place_rows(dest, i, Dims3::cube(edge), &buf.data()[origin..], strides)?;
        }
        Ok(())
    }
}

fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    let mut z = ((v << 1) ^ (v >> 63)) as u64;
    while z >= 0x80 {
        out.push(z as u8 | 0x80);
        z >>= 7;
    }
    out.push(z as u8);
}

fn get_zigzag(rest: &mut &[u8]) -> CodecResult<i64> {
    let mut z = 0u64;
    for shift in (0..64).step_by(7) {
        let (&b, tail) = rest
            .split_first()
            .ok_or_else(|| CodecError::corrupt("slot map truncated"))?;
        *rest = tail;
        z |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok((z >> 1) as i64 ^ -((z & 1) as i64));
        }
    }
    Err(CodecError::corrupt("slot map varint overflow"))
}

#[inline]
fn slot_coords(grid: ClusterGrid, slot: usize) -> (usize, usize, usize) {
    let sx = slot % grid.gx;
    let sy = (slot / grid.gx) % grid.gy;
    let sz = slot / (grid.gx * grid.gy);
    (sx, sy, sz)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_split(merged: &Buffer3, z_extents: &[usize]) -> Vec<Buffer3> {
        let mut units = Vec::new();
        linear_place(merged, z_extents, &mut units).expect("fresh buffers take any unit");
        units
    }

    fn unit(v: f64, edge: usize) -> Buffer3 {
        let mut b = Buffer3::zeros(Dims3::cube(edge));
        b.fill_with(|i, j, k| v + (i + j + k) as f64 * 0.01);
        b
    }

    #[test]
    fn linear_roundtrip() {
        let units: Vec<Buffer3> = (0..5).map(|i| unit(i as f64, 4)).collect();
        let (merged, ext) = linear_merge(&units);
        assert_eq!(merged.dims(), Dims3::new(4, 4, 20));
        let back = linear_split(&merged, &ext);
        assert_eq!(back, units);
    }

    #[test]
    fn linear_merge_mixed_z() {
        let a = unit(0.0, 4);
        let mut b = Buffer3::zeros(Dims3::new(4, 4, 2));
        b.fill_with(|i, _, _| i as f64);
        let (merged, ext) = linear_merge(&[a.clone(), b.clone()]);
        assert_eq!(merged.dims().nz, 6);
        let back = linear_split(&merged, &ext);
        assert_eq!(back[0], a);
        assert_eq!(back[1], b);
    }

    #[test]
    fn cluster_grid_near_cubic() {
        let g = cluster_grid(27);
        assert_eq!((g.gx, g.gy, g.gz), (3, 3, 3));
        let g8 = cluster_grid(8);
        assert_eq!((g8.gx, g8.gy, g8.gz), (2, 2, 2));
        // Primes still get low slack.
        let g7 = cluster_grid(7);
        assert!(g7.slots() >= 7 && g7.slots() - 7 <= 1, "{g7:?}");
        let g1 = cluster_grid(1);
        assert_eq!(g1.slots(), 1);
    }

    #[test]
    fn cluster_grid_beats_linear_on_aspect() {
        // The whole point: 64 units of 8³ → 2×2×... near cube, not 1×1×64.
        let g = cluster_grid(64);
        assert_eq!((g.gx, g.gy, g.gz), (4, 4, 4));
    }

    #[test]
    fn cluster_roundtrip() {
        let units: Vec<Buffer3> = (0..10).map(|i| unit(i as f64 * 3.0, 4)).collect();
        let (packed, grid) = cluster_pack(&units);
        assert!(grid.slots() >= 10);
        let mut back = Vec::new();
        cluster_place(&packed, grid, Dims3::cube(4), 10, &mut back).expect("fresh buffers");
        assert_eq!(back, units);
    }

    #[test]
    fn cluster_slack_filled_smoothly() {
        let units: Vec<Buffer3> = (0..5).map(|i| unit(i as f64, 2)).collect();
        let (packed, grid) = cluster_pack(&units);
        // Slack slots replicate the last unit (no zero holes).
        if grid.slots() > 5 {
            let last_slot = grid.slots() - 1;
            let (sx, sy, sz) = super::slot_coords(grid, last_slot);
            let v = packed.get(sx * 2, sy * 2, sz * 2);
            assert_eq!(v, units[4].get(0, 0, 0));
        }
    }

    #[test]
    #[should_panic(expected = "uniformly shaped")]
    fn cluster_rejects_ragged_units() {
        let a = unit(0.0, 4);
        let b = unit(0.0, 2);
        cluster_pack(&[a, b]);
    }
}
