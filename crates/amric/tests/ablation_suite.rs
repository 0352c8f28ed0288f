//! Ablation tests over AMRIC's §3 design choices: each switch on
//! `AmricConfig` must move the metrics in the direction the paper claims,
//! on data where the mechanism applies.

use amr_mesh::IntVect;
use amric::config::{AmricConfig, MergePolicy};
use amric::pipeline::{compress_field_units, decompress_field_units};
use amric::tac::{tac_compress, tac_decompress};
use sz_codec::prelude::*;

/// Unit blocks with strong per-unit offsets (discontiguous sampling).
fn discontiguous_units(n: usize, edge: usize) -> Vec<Buffer3> {
    (0..n)
        .map(|u| {
            let mut b = Buffer3::zeros(Dims3::cube(edge));
            let base = (u as f64 * 2.13).sin() * 50.0;
            b.fill_with(|i, j, k| base + ((i * 2 + j * 3 + k * 5) as f64 * 0.07).sin());
            b
        })
        .collect()
}

#[test]
fn adaptive_block_size_helps_unit8() {
    // Eq. 1's domain: 8³ units. Adaptive (4³) must match or beat fixed 6³.
    let units = discontiguous_units(48, 8);
    let on = AmricConfig::lr(1e-3).with_adaptive_block_size(true);
    let off = on.with_adaptive_block_size(false);
    let n_on = compress_field_units(&units, &on, 8).len();
    let n_off = compress_field_units(&units, &off, 8).len();
    assert!(
        (n_on as f64) < n_off as f64 * 1.02,
        "adaptive {n_on} vs fixed {n_off}"
    );
}

#[test]
fn adaptive_is_noop_for_unit16() {
    // 16 mod 6 = 4 → Eq. 1 keeps 6³; outputs must be identical.
    let units = discontiguous_units(8, 16);
    let on = AmricConfig::lr(1e-3).with_adaptive_block_size(true);
    let off = on.with_adaptive_block_size(false);
    assert_eq!(
        compress_field_units(&units, &on, 16),
        compress_field_units(&units, &off, 16)
    );
}

#[test]
fn sle_not_worse_than_lm_on_discontiguous_data() {
    let units = discontiguous_units(64, 8);
    let sle = AmricConfig::lr(1e-4);
    let lm = sle.with_merge(MergePolicy::LinearMerge);
    let n_sle = compress_field_units(&units, &sle, 8).len();
    let n_lm = compress_field_units(&units, &lm, 8).len();
    assert!(
        (n_sle as f64) < n_lm as f64 * 1.05,
        "SLE {n_sle} vs LM {n_lm}"
    );
}

#[test]
fn every_config_combination_roundtrips() {
    let units = discontiguous_units(10, 8);
    for algorithm in [SzAlgorithm::LorenzoRegression, SzAlgorithm::Interpolation] {
        for merge in [MergePolicy::SharedEncoding, MergePolicy::LinearMerge] {
            for adaptive in [false, true] {
                for cluster in [false, true] {
                    let cfg = AmricConfig::lr(1e-3)
                        .with_algorithm(algorithm)
                        .with_merge(merge)
                        .with_adaptive_block_size(adaptive)
                        .with_cluster_arrangement(cluster);
                    let stream = compress_field_units(&units, &cfg, 8);
                    let back = decompress_field_units(&stream)
                        .unwrap_or_else(|e| panic!("decode failed for {cfg:?}: {e}"));
                    assert_eq!(back.len(), units.len(), "{cfg:?}");
                    let abs = amric::pipeline::resolve_abs_eb(&units, 1e-3);
                    for (o, r) in units.iter().zip(&back) {
                        let s = ErrorStats::compare(o.data(), r.data());
                        assert!(s.max_abs_err <= abs * (1.0 + 1e-9), "{cfg:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn tac_stream_smaller_than_per_unit_but_larger_than_amric() {
    // The Fig.16 ordering: per-unit black box > TAC > AMRIC.
    let units = discontiguous_units(64, 8);
    let origins: Vec<IntVect> = (0..64)
        .map(|u| IntVect::new((u % 4) * 8, ((u / 4) % 4) * 8, (u / 16) * 8))
        .collect();
    let abs = amric::pipeline::resolve_abs_eb(&units, 1e-3);
    let per_unit: usize = units
        .iter()
        .map(|u| lr::compress(u, &LrConfig::new(abs)).len())
        .sum();
    let tac = tac_compress(&units, &origins, 1e-3).len();
    let amric_len = compress_field_units(&units, &AmricConfig::lr(1e-3), 8).len();
    assert!(tac < per_unit, "TAC {tac} vs per-unit {per_unit}");
    assert!(amric_len < tac, "AMRIC {amric_len} vs TAC {tac}");
    // And TAC roundtrips.
    let back = tac_decompress(&tac_compress(&units, &origins, 1e-3)).unwrap();
    assert_eq!(back.len(), units.len());
}

#[test]
fn reorganize_inverses_are_exact() {
    use amric::reorganize::*;
    let roundtrip = |layout: &Placement, units: &[Buffer3]| {
        let mut back = Vec::new();
        let packed = layout.pack(units).into_iter().map(Some).collect();
        layout.place(&mut back, |_| Ok(packed)).unwrap();
        back
    };
    // Linear, mixed depths: 4³ units and one 4×4×2 slab.
    let mut units = discontiguous_units(13, 4);
    let mut slab = Buffer3::zeros(Dims3::new(4, 4, 2));
    slab.fill_with(|i, j, k| (i + 2 * j + 3 * k) as f64 * 0.3);
    units.insert(5, slab);
    let extents: Vec<usize> = units.iter().map(|u| u.dims().nz).collect();
    let linear = Placement::linear(4, 4, &extents).unwrap();
    assert_eq!(roundtrip(&linear, &units), units);
    // The near-cube grid.
    let units = discontiguous_units(13, 4);
    let grid = Placement::grid(cluster_grid(13), 13, Dims3::cube(4));
    assert_eq!(roundtrip(&grid, &units), units);
    // Clusters where the units lie: a 3×3×1 sheet missing its centre and
    // a 2×2×1 block far off, handed over out of index-space order.
    let mut origins: Vec<IntVect> = (0..9)
        .filter(|&i| i != 4)
        .map(|i| IntVect::new(i % 3 * 4, i / 3 * 4, 0))
        .collect();
    origins.extend((0..4).map(|i| IntVect::new(80 + i % 2 * 4, i / 2 * 4, 40)));
    origins.reverse();
    let units = discontiguous_units(origins.len(), 4);
    let clustered = Placement::cluster(&origins, 4, 0.75).expect("aligned, distinct");
    let packed = clustered.pack(&units);
    let cells: usize = packed.iter().map(|p| p.dims().len()).sum();
    assert_eq!(
        cells,
        (origins.len() + 1) * 64,
        "one hole, the sheet's centre"
    );
    assert_eq!(roundtrip(&clustered, &units), units);
}
