//! Reorganization of truncated unit blocks (paper §3.1, Fig. 4 right):
//! one layout, [`Placement`], built three ways — [`Placement::linear`]
//! stacks units along z for SZ_L/R (pipeline modes 1 / 2, TAC),
//! [`Placement::grid`] packs them into a near-cube for SZ_Interp (mode 3),
//! [`Placement::cluster`] keeps dense clusters of units where they lie
//! (mode 6). One [`Placement::pack`] pastes units into their clusters and
//! one [`Placement::place`] copies them back out of the reconstruction.

use amr_mesh::cluster::{berger_rigoutsos, ClusterParams};
use amr_mesh::geom::{IntBox, IntVect};
use amr_mesh::tagging::TagField;
use sz_codec::buffer3::place_rows;
use sz_codec::wire::Reader;
use sz_codec::{AsView3, Buffer3, CodecError, CodecResult, Dims3, UnitDest};

/// Stack same-footprint units along z ("put the unit blocks along the
/// z-axis", the minimum-operation arrangement for SZ_L/R): the merged
/// buffer, and the per-unit z-extents a linear stream stores.
pub fn linear_merge<U: AsView3>(units: &[U]) -> (Buffer3, Vec<usize>) {
    assert!(!units.is_empty(), "nothing to merge");
    let d0 = units[0].view().dims();
    let extents: Vec<usize> = units.iter().map(|u| u.view().dims().nz).collect();
    let layout = Placement::linear(d0.nx, d0.ny, &extents).expect("units in memory have cells");
    (layout.pack(units).swap_remove(0), extents)
}

/// Read the `n` u32 z-extents of a linear layout from a stream header.
pub(crate) fn read_extents(r: &mut Reader<'_>, n: usize) -> CodecResult<Vec<usize>> {
    r.check_count(n, 4)?;
    (0..n).map(|_| Ok(r.get_u32()? as usize)).collect()
}

/// Choose a near-cubic slot grid for `n` unit blocks — the paper's
/// "cluster the truncated unit blocks more closely into a cube-like
/// formation". The grid has exactly `n` slots (`(n, 1, 1)` at worst, so a
/// prime gives a line), `gx ≥ gy ≥ gz`, and of those the smallest
/// `gx − gz`.
pub fn cluster_grid(n: usize) -> Dims3 {
    assert!(n > 0);
    let mut best = Dims3::new(n, 1, 1);
    let cap = (n as f64).cbrt().ceil() as usize + 1;
    for gz in 1..=cap {
        for gy in gz..=n / gz {
            if !n.is_multiple_of(gy * gz) {
                continue;
            }
            let gx = n / (gy * gz);
            if gx >= gy && gx - gz < best.nx - best.nz {
                best = Dims3::new(gx, gy, gz);
            }
        }
    }
    best
}

/// Pack equally shaped units into one near-cube buffer
/// ([`Placement::grid`] over [`cluster_grid`]): the packed buffer and its
/// shape in units.
pub fn cluster_pack<U: AsView3>(units: &[U]) -> (Buffer3, Dims3) {
    assert!(!units.is_empty(), "nothing to pack");
    let grid = cluster_grid(units.len());
    let layout = Placement::grid(grid, units.len(), units[0].view().dims());
    (layout.pack(units).swap_remove(0), grid)
}

/// Where one unit lies in a [`Placement`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    cluster: u32,
    /// Cell offset of the unit's low corner in its cluster.
    at: [usize; 3],
    dims: Dims3,
}

/// A chunk's units laid out in clusters for compression: each cluster is
/// one buffer (one prediction domain), each unit a box inside one cluster,
/// no two overlapping; cells no unit covers are holes. Construction from
/// stream fields is fallible or guarded by the caller, so every unit lies
/// inside its cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Each cluster's dims in cells, in cluster order.
    clusters: Vec<Dims3>,
    /// Per unit, in the chunk's order.
    units: Vec<Slot>,
}

impl Placement {
    /// Units of footprint `nx × ny`, unit `i` `extents[i]` planes deep,
    /// stacked along z in one cluster in order. No unit, a zero extent or
    /// footprint, or more cells than memory can address is a typed error:
    /// the linear modes and TAC read all of these from the stream.
    pub fn linear(nx: usize, ny: usize, extents: &[usize]) -> CodecResult<Placement> {
        let nz = extents.iter().try_fold(0usize, |z, &e| z.checked_add(e));
        let cells = nz.and_then(|nz| nx.checked_mul(ny)?.checked_mul(nz));
        if extents.is_empty() || extents.contains(&0) || cells.is_none_or(|c| c == 0) {
            let n = extents.len();
            return Err(CodecError::dims(format!(
                "no linear layout of {n} units of {nx}×{ny} cells"
            )));
        }
        let mut z = 0;
        let units = extents.iter().map(|&e| {
            z += e;
            Slot {
                cluster: 0,
                at: [0, 0, z - e],
                dims: Dims3::new(nx, ny, e),
            }
        });
        let units = units.collect();
        let clusters = vec![Dims3::new(nx, ny, z)];
        Ok(Placement { clusters, units })
    }

    /// Units `0..n` of dims `unit` in the first `n` slots of one cluster
    /// `grid` slots across, x fastest. The caller has bounded `grid`; `n`
    /// must not exceed its slots.
    pub fn grid(grid: Dims3, n: usize, unit: Dims3) -> Placement {
        assert!(n <= grid.len(), "{n} units in a {grid:?} slot grid");
        Placement::slotted(vec![grid], unit, (0..n).map(|s| (0, s)))
    }

    /// Cluster the unit cubes of edge `edge` whose index-space origins
    /// are `origins` where they lie: the Berger–Rigoutsos boxes of the
    /// unit grid (one cell per unit, tagged where a unit is) at tagging
    /// efficiency `grid_eff`, blocking factor 1 unit, no size cap; each
    /// box one cluster, its cells in index-space order. Nothing but the
    /// origins decides it, so the clustering is deterministic. `None` when
    /// there is no unit, an origin is off the `edge` grid or two units
    /// share one.
    pub fn cluster(origins: &[IntVect], edge: usize, grid_eff: f64) -> Option<Placement> {
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
        // Each cell's cluster and slot; `iter_points` runs in slot order.
        let mut slot_of = vec![(0, 0); grid.num_cells() as usize];
        for (b, bx) in boxes.iter().enumerate() {
            for (s, p) in bx.iter_points().enumerate() {
                slot_of[grid.linear_index(&p)] = (b as u32, s);
            }
        }
        let slots = cells.iter().map(|c| slot_of[grid.linear_index(c)]);
        let size = |b: &IntBox| b.size().0.map(|n| n as usize);
        let grids = boxes.iter().map(size).map(|[x, y, z]| Dims3::new(x, y, z));
        let grids = grids.collect();
        Some(Placement::slotted(grids, Dims3::cube(edge), slots))
    }

    /// Units of dims `unit`, each in a slot `(cluster, slot)` of clusters
    /// `grids` slots across.
    fn slotted(
        grids: Vec<Dims3>,
        unit: Dims3,
        slots: impl Iterator<Item = (u32, usize)>,
    ) -> Placement {
        let units = slots.map(|(cluster, s)| {
            let g = grids[cluster as usize];
            let at = [s % g.nx, s / g.nx % g.ny, s / (g.nx * g.ny)];
            let at = [at[0] * unit.nx, at[1] * unit.ny, at[2] * unit.nz];
            Slot {
                cluster,
                at,
                dims: unit,
            }
        });
        let units = units.collect();
        let scale = |g: &Dims3| Dims3::new(g.nx * unit.nx, g.ny * unit.ny, g.nz * unit.nz);
        let clusters = grids.iter().map(scale).collect();
        Placement { clusters, units }
    }

    /// Each cluster's dims in cells, in cluster order.
    pub fn clusters(&self) -> &[Dims3] {
        &self.clusters
    }

    /// Units laid out.
    pub(crate) fn units(&self) -> usize {
        self.units.len()
    }

    /// Paste every unit into its place, one buffer per cluster in order;
    /// holes read zero. Unit `i` must have the dims the layout gives it.
    pub fn pack<U: AsView3>(&self, units: &[U]) -> Vec<Buffer3> {
        assert_eq!(units.len(), self.units.len(), "one unit per slot");
        let mut packed: Vec<Buffer3> = self.clusters.iter().map(|&d| Buffer3::zeros(d)).collect();
        for (i, (u, s)) in units.iter().zip(&self.units).enumerate() {
            let u = u.view();
            assert_eq!(
                u.dims(),
                s.dims,
                "unit {i} lacks the shape its layout gives it"
            );
            let [x, y, z] = s.at;
            packed[s.cluster as usize].paste(u, x, y, z);
        }
        packed
    }

    /// Copy every unit `dest` wants out of `decoded` — the clusters'
    /// reconstructions, in order — to where `dest` says it goes, in the
    /// chunk's order. A
    /// payload that decoded to other clusters than the layout's is a typed
    /// error before any unit is placed.
    pub fn place(&self, decoded: &[Buffer3], dest: &mut dyn UnitDest) -> CodecResult<()> {
        if decoded.len() != self.clusters.len() {
            return Err(CodecError::dims(format!(
                "{} clusters decoded, {} stored",
                decoded.len(),
                self.clusters.len()
            )));
        }
        for (c, (&want, buf)) in self.clusters.iter().zip(decoded).enumerate() {
            if buf.dims() != want {
                let d = buf.dims();
                return Err(CodecError::dims(format!(
                    "cluster {c} decodes to {d:?}, its layout is {want:?}"
                )));
            }
        }
        for (i, s) in self.units.iter().enumerate() {
            let buf = &decoded[s.cluster as usize];
            let (d, [x, y, z]) = (buf.dims(), s.at);
            let strides = (d.nx, d.nx * d.ny);
            place_rows(dest, i, s.dims, &buf.data()[d.idx(x, y, z)..], strides)?;
        }
        Ok(())
    }

    /// The slot map as the stream stores it: per unit, the change of
    /// cluster from the unit before and the slot's distance past the last
    /// slot taken in its cluster, both zig-zag LEB128 varints. Units that
    /// follow each other along a row cost two zero bytes, which the
    /// lossless stage then folds. For layouts of equally shaped units.
    pub(crate) fn encode_slots(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 * self.units.len());
        let Some(d) = self.units.first().map(|u| u.dims) else {
            return out;
        };
        let across: Vec<_> = self
            .clusters
            .iter()
            .map(|c| (c.nx / d.nx, c.ny / d.ny))
            .collect();
        let mut next = vec![0i64; self.clusters.len()];
        let mut prev_cluster = 0i64;
        for u in &self.units {
            let (c, (gx, gy)) = (u.cluster as usize, across[u.cluster as usize]);
            let s = (u.at[0] / d.nx + gx * (u.at[1] / d.ny + gy * (u.at[2] / d.nz))) as i64;
            put_zigzag(&mut out, c as i64 - prev_cluster);
            put_zigzag(&mut out, s - next[c]);
            prev_cluster = c as i64;
            next[c] = s + 1;
        }
        out
    }

    /// Inverse of [`Placement::encode_slots`] for `n` units of dims `unit`
    /// over clusters `grids` slots across. Every unit must land on a slot
    /// inside its cluster, no two on one, and the map must hold exactly
    /// `n` units. The caller has bounded the clusters' slots and cells.
    pub(crate) fn decode_slots(
        grids: Vec<Dims3>,
        unit: Dims3,
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
        let mut taken: Vec<Vec<bool>> = grids.iter().map(|g| vec![false; g.len()]).collect();
        let mut next = vec![0i64; grids.len()];
        let (mut rest, mut cluster) = (bytes, 0i64);
        let mut slots = Vec::with_capacity(n);
        for i in 0..n {
            cluster = cluster
                .checked_add(get_zigzag(&mut rest)?)
                .filter(|c| (0..grids.len() as i64).contains(c))
                .ok_or_else(|| CodecError::corrupt(format!("unit {i} names no cluster")))?;
            let c = cluster as usize;
            let slot = next[c]
                .checked_add(get_zigzag(&mut rest)?)
                .filter(|s| (0..grids[c].len() as i64).contains(s))
                .ok_or_else(|| CodecError::corrupt(format!("unit {i} lies outside cluster {c}")))?;
            if std::mem::replace(&mut taken[c][slot as usize], true) {
                return Err(CodecError::corrupt(format!(
                    "unit {i} takes slot {slot} of cluster {c} twice"
                )));
            }
            next[c] = slot + 1;
            slots.push((c as u32, slot as usize));
        }
        if !rest.is_empty() {
            return Err(CodecError::corrupt(format!(
                "slot map holds more than {n} units"
            )));
        }
        Ok(Placement::slotted(grids, unit, slots.into_iter()))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(v: f64, edge: usize) -> Buffer3 {
        let mut b = Buffer3::zeros(Dims3::cube(edge));
        b.fill_with(|i, j, k| v + (i + j + k) as f64 * 0.01);
        b
    }

    /// `units` through `layout`'s pack and place.
    fn roundtrip(layout: &Placement, units: &[Buffer3]) -> Vec<Buffer3> {
        let mut back = Vec::new();
        layout
            .place(&layout.pack(units), &mut back)
            .expect("fresh buffers take any unit");
        back
    }

    #[test]
    fn linear_roundtrip() {
        let units: Vec<Buffer3> = (0..5).map(|i| unit(i as f64, 4)).collect();
        let (merged, ext) = linear_merge(&units);
        assert_eq!(merged.dims(), Dims3::new(4, 4, 20));
        let layout = Placement::linear(4, 4, &ext).unwrap();
        assert_eq!(layout.pack(&units), vec![merged]);
        assert_eq!(roundtrip(&layout, &units), units);
    }

    #[test]
    fn linear_merge_mixed_z() {
        let a = unit(0.0, 4);
        let mut b = Buffer3::zeros(Dims3::new(4, 4, 2));
        b.fill_with(|i, _, _| i as f64);
        let (merged, ext) = linear_merge(&[a.clone(), b.clone()]);
        assert_eq!(merged.dims().nz, 6);
        let layout = Placement::linear(4, 4, &ext).unwrap();
        assert_eq!(roundtrip(&layout, &[a.clone(), b.clone()]), vec![a, b]);
        // What the wire could say instead is refused, not asserted.
        assert!(Placement::linear(4, 4, &[4, 0]).is_err());
        assert!(Placement::linear(0, 4, &[4]).is_err());
        assert!(Placement::linear(4, 4, &[]).is_err());
        assert!(Placement::linear(usize::MAX, 4, &[4]).is_err());
        // A decoded buffer of the wrong depth is refused before placing.
        let short = Buffer3::zeros(Dims3::new(4, 4, 5));
        let err = layout
            .place(&[short], &mut Vec::<Buffer3>::new())
            .unwrap_err();
        assert!(matches!(err, CodecError::DimsMismatch { .. }), "{err:?}");
    }

    #[test]
    fn cluster_grid_near_cubic() {
        let g = cluster_grid(27);
        assert_eq!((g.nx, g.ny, g.nz), (3, 3, 3));
        let g8 = cluster_grid(8);
        assert_eq!((g8.nx, g8.ny, g8.nz), (2, 2, 2));
        // A prime's only slack-free grid is a line.
        let g7 = cluster_grid(7);
        assert_eq!((g7.nx, g7.ny, g7.nz), (7, 1, 1));
        let g1 = cluster_grid(1);
        assert_eq!(g1.len(), 1);
    }

    #[test]
    fn cluster_grid_beats_linear_on_aspect() {
        // The whole point: 64 units of 8³ → 2×2×... near cube, not 1×1×64.
        let g = cluster_grid(64);
        assert_eq!((g.nx, g.ny, g.nz), (4, 4, 4));
    }

    #[test]
    fn cluster_roundtrip() {
        let units: Vec<Buffer3> = (0..10).map(|i| unit(i as f64 * 3.0, 4)).collect();
        let (packed, grid) = cluster_pack(&units);
        assert_eq!(grid.len(), 10);
        let layout = Placement::grid(grid, 10, Dims3::cube(4));
        assert_eq!(layout.pack(&units), vec![packed]);
        assert_eq!(roundtrip(&layout, &units), units);
        // A stored grid with spare slots holds the units in its first ones.
        let wide = Placement::grid(Dims3::new(4, 2, 2), 10, Dims3::cube(4));
        assert_eq!(roundtrip(&wide, &units), units);
    }

    #[test]
    fn clustered_with_holes_roundtrip() {
        // Two separate blocks of units, one with a hole: clusters keep each
        // unit where it lies and the slot map survives the wire.
        let mut origins: Vec<IntVect> = (0..8)
            .map(|i| IntVect::new(i % 2 * 4, i / 2 % 2 * 4, i / 4 * 4))
            .collect();
        origins.extend((1..8).map(|i| IntVect::new(64 + i % 2 * 4, i / 2 % 2 * 4, i / 4 * 4)));
        let units: Vec<Buffer3> = (0..origins.len())
            .map(|i| unit(1.0 + i as f64, 4))
            .collect();
        let layout = Placement::cluster(&origins, 4, 0.75).expect("aligned, distinct");
        assert_eq!(layout.clusters.len(), 2);
        let zeros = layout
            .pack(&units)
            .iter()
            .flat_map(|p| p.data())
            .filter(|&&v| v == 0.0)
            .count();
        assert_eq!(zeros, 64, "the one hole reads zero");
        assert_eq!(roundtrip(&layout, &units), units);
        let grids = layout
            .clusters
            .iter()
            .map(|c| Dims3::new(c.nx / 4, c.ny / 4, c.nz / 4));
        let decoded = Placement::decode_slots(
            grids.collect(),
            Dims3::cube(4),
            units.len(),
            &layout.encode_slots(),
        );
        assert_eq!(decoded.unwrap(), layout);
    }

    #[test]
    #[should_panic(expected = "shape its layout gives it")]
    fn cluster_rejects_ragged_units() {
        let a = unit(0.0, 4);
        let b = unit(0.0, 2);
        cluster_pack(&[a, b]);
    }
}
