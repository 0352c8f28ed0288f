//! TAC comparator (Wang et al., HPDC '22) — the offline adaptive-3-D
//! pre-processing baseline of the paper's Fig. 16.
//!
//! TAC improves zMesh by partitioning sparse AMR levels into spatially
//! compact groups, padding them into regular 3-D regions, and handing each
//! region to stock SZ_L/R *as a black box*. Two consequences the paper
//! exploits when comparing against AMRIC: every group is compressed in a
//! separate SZ call (per-group Huffman trees — encoding overhead), and
//! inside a group the blocks are linearly merged (Lorenzo leaks across
//! block boundaries). AMRIC optimizes both away with SLE and the adaptive
//! block size.

use crate::reorganize::{linear_merge, read_extents, Placement};
use amr_mesh::IntVect;
use sz_codec::codec::{expect_envelope, write_envelope};
use sz_codec::prelude::*;
use sz_codec::wire::{Reader, Writer};

/// TAC payload format version (rides in the envelope header).
const VERSION: u8 = 1;

/// Units per spatial group (TAC's partition granularity).
const GROUP: usize = 8;

/// Interleave the low 21 bits of each coordinate into a Morton code —
/// TAC's spatial-proximity ordering.
pub fn morton3(p: &IntVect) -> u128 {
    let spread = |v: i64| -> u128 {
        let mut out = 0u128;
        for b in 0..21 {
            out |= (((v as u64 >> b) & 1) as u128) << (3 * b);
        }
        out
    };
    spread(p.get(0)) | spread(p.get(1)) << 1 | spread(p.get(2)) << 2
}

/// Compress unit blocks TAC-style: Morton-sort by origin, group, linearly
/// merge each group, stock SZ_L/R per group.
pub fn tac_compress(units: &[Buffer3], origins: &[IntVect], rel_eb: f64) -> Vec<u8> {
    assert_eq!(units.len(), origins.len());
    let mut w = Writer::new();
    write_envelope(&mut w, CodecId::Tac, VERSION, 0);
    w.put_u32(units.len() as u32);
    if units.is_empty() {
        return w.into_bytes();
    }
    let abs_eb = crate::pipeline::resolve_abs_eb(units, rel_eb);
    // Spatial ordering.
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&i| morton3(&origins[i]));
    // Record the permutation so decompression can restore input order.
    for &i in &order {
        w.put_u32(i as u32);
    }
    // Group consecutive (spatially adjacent) units; a group splits where
    // the footprint changes (TAC pads instead; merging only uniform
    // footprints is the equivalent regularization).
    let footprint = |&i: &usize| (units[i].dims().nx, units[i].dims().ny);
    let groups: Vec<&[usize]> = order
        .chunks(GROUP)
        .flat_map(|chunk| chunk.chunk_by(|a, b| footprint(a) == footprint(b)))
        .collect();
    w.put_u32(groups.len() as u32);
    let cfg = LrConfig::new(abs_eb); // stock 6³, black box
    for g in &groups {
        w.put_u32(g.len() as u32);
        let members: Vec<&Buffer3> = g.iter().map(|&i| &units[i]).collect();
        let (merged, extents) = linear_merge(&members);
        for e in &extents {
            w.put_u32(*e as u32);
        }
        // Separate SZ call per group — the black-box behaviour.
        w.put_block(&lr::compress(&merged, &cfg));
    }
    w.into_bytes()
}

/// Decompress a TAC stream back to units in the original input order.
pub fn tac_decompress(bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
    let env = expect_envelope(bytes, CodecId::Tac, VERSION)?;
    let mut r = Reader::new(&bytes[env.payload_offset..]);
    let n = r.get_u32()? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    // Each permutation entry is a u32; reject counts the stream can't hold.
    r.check_count(n, 4)?;
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        order.push(r.get_u32()? as usize);
    }
    let ngroups = r.get_u32()? as usize;
    let mut sorted_units = Vec::with_capacity(n);
    for _ in 0..ngroups {
        let glen = r.get_u32()? as usize;
        let extents = read_extents(&mut r, glen)?;
        let merged = lr::decompress(r.get_block()?)?;
        let d = merged.dims();
        let mut group = Vec::with_capacity(glen);
        let layout = Placement::linear(d.nx, d.ny, &extents)?;
        layout.place(&mut group, |_| Ok(vec![Some(merged)]))?;
        sorted_units.append(&mut group);
    }
    if sorted_units.len() != n {
        return Err(CodecError::dims("TAC unit count mismatch"));
    }
    // Invert the permutation.
    let mut out: Vec<Option<Buffer3>> = vec![None; n];
    for (buf, &idx) in sorted_units.into_iter().zip(&order) {
        if idx >= n || out[idx].is_some() {
            return Err(CodecError::corrupt("bad TAC permutation"));
        }
        out[idx] = Some(buf);
    }
    Ok(out
        .into_iter()
        .map(|o| o.expect("permutation checked"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_units(n: usize) -> (Vec<Buffer3>, Vec<IntVect>) {
        let units: Vec<Buffer3> = (0..n)
            .map(|u| {
                let mut b = Buffer3::zeros(Dims3::cube(8));
                b.fill_with(|i, j, k| {
                    (u as f64 * 0.7).sin() * 5.0 + ((i + 2 * j + 3 * k) as f64 * 0.1).cos()
                });
                b
            })
            .collect();
        let origins: Vec<IntVect> = (0..n)
            .map(|u| {
                let u = u as i64;
                IntVect::new((u % 4) * 8, ((u / 4) % 4) * 8, (u / 16) * 8)
            })
            .collect();
        (units, origins)
    }

    #[test]
    fn morton_orders_locally() {
        // Points in the same octant sort near each other.
        let a = morton3(&IntVect::new(0, 0, 0));
        let b = morton3(&IntVect::new(1, 1, 1));
        let c = morton3(&IntVect::new(16, 16, 16));
        assert!(a < b && b < c);
    }

    #[test]
    fn roundtrip_within_bound() {
        let (units, origins) = sample_units(13);
        let bytes = tac_compress(&units, &origins, 1e-3);
        let back = tac_decompress(&bytes).unwrap();
        assert_eq!(back.len(), units.len());
        let abs = crate::pipeline::resolve_abs_eb(&units, 1e-3);
        for (o, b) in units.iter().zip(&back) {
            assert_eq!(o.dims(), b.dims());
            let s = ErrorStats::compare(o.data(), b.data());
            assert!(s.max_abs_err <= abs * (1.0 + 1e-9));
        }
    }

    #[test]
    fn empty_input() {
        let bytes = tac_compress(&[], &[], 1e-3);
        assert!(tac_decompress(&bytes).unwrap().is_empty());
    }

    #[test]
    fn amric_beats_tac_on_size() {
        // The Fig. 16 relationship, at fixed error bound: AMRIC's SLE +
        // single shared encoding out-compresses TAC's per-group black-box
        // calls.
        let (units, origins) = sample_units(40);
        let tac_len = tac_compress(&units, &origins, 1e-3).len();
        let amric_len =
            crate::pipeline::compress_field_units(&units, &crate::config::AmricConfig::lr(1e-3), 8)
                .len();
        assert!(
            amric_len < tac_len,
            "AMRIC {amric_len} should beat TAC {tac_len}"
        );
    }
}
