//! The placed SZ_Interp mode (pipeline mode 6): dense clusters of unit
//! blocks are compressed where they lie instead of being re-packed into a
//! cube. These tests hold its rule — where it applies, and that everywhere
//! else the pipeline writes today's streams byte for byte — its bytes on a
//! dense WarpX level, and its error bound through the writer and a
//! restart.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::QueryEngine;
use amric::prelude::*;
use amric::reader::verify_against;
use amric::writer::field_dataset;
use h5lite::prelude::*;
use std::sync::Arc;
use sz_codec::prelude::*;

const REL_EB: f64 = 1e-3;

/// A small deterministic WarpX hierarchy shaped like the `warpx_interp`
/// benchmark's at an eighth of its cells: a 16×16×256 coarse level in 16³
/// grids (4³ units, 96 % of them kept) under a fine level over 2 % of it.
fn warpx(nranks: usize) -> AmrHierarchy {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 256),
        max_grid_size: 16,
        blocking_factor: 8,
        nranks,
        num_levels: 2,
        fine_fraction: 0.02,
        grid_eff: 0.7,
    };
    build_hierarchy(&WarpXScenario::new(1), &cfg, 0.0)
}

/// Level `l` of `h` on one rank as the writer plans it: the unit edge,
/// where the units lie, and every field's units.
fn level_units(h: &AmrHierarchy, l: usize) -> (usize, UnitOrigins, Vec<Vec<Buffer3>>) {
    let nl = h.num_levels();
    let finer = (l + 1 < nl).then(|| (h.level(l + 1).data.box_array(), h.ref_ratio(l)));
    let edge = unit_edge_for_level(8, l, nl);
    let plan = plan_units(&h.level(l).data, finer, edge, 0, true);
    let origins = UnitOrigins::new(plan.iter().map(|u| u.region.lo).collect(), edge as usize);
    let fields = (0..h.field_names().len())
        .map(|f| extract_units(&h.level(l).data, &plan, f))
        .collect();
    (edge as usize, origins, fields)
}

/// The fixed-bound stream of `units`, placed where `origins` say.
fn placed(units: &[Buffer3], origins: Option<&UnitOrigins>, cfg: &AmricConfig, eb: f64) -> Vec<u8> {
    let edge = units[0].dims().nx;
    let mut out = Vec::new();
    let scratch = &mut AmricScratch::default();
    let bound = ResolvedBound::Fixed(eb);
    compress_placed_into(units, origins, cfg, edge, bound, scratch, &mut out);
    out
}

/// The same stream from bare units — modes 0–3, as before the placed mode.
fn bare(units: &[Buffer3], cfg: &AmricConfig, eb: f64) -> Vec<u8> {
    let edge = units[0].dims().nx;
    let mut out = Vec::new();
    let scratch = &mut AmricScratch::default();
    compress_field_units_with_bound_into(units, cfg, edge, eb, scratch, &mut out);
    out
}

fn mode(stream: &[u8]) -> &'static str {
    stream_layout(stream).expect("a pipeline stream").mode
}

fn assert_within(orig: &[Buffer3], stream: &[u8], eb: f64) {
    let back = decompress_field_units(stream).expect("decodes");
    assert_eq!(back.len(), orig.len());
    for (o, b) in orig.iter().zip(&back) {
        assert_eq!(o.dims(), b.dims());
        let err = ErrorStats::compare(o.data(), b.data()).max_abs_err;
        assert!(err <= eb * (1.0 + 1e-9), "max err {err} > {eb}");
    }
}

#[test]
fn a_dense_warpx_level_stores_at_most_six_tenths_of_the_cluster_pack() {
    let h = warpx(1);
    let (_, origins, fields) = level_units(&h, 0);
    let cfg = AmricConfig::interp(REL_EB);
    let (mut packed_bytes, mut placed_bytes) = (0, 0);
    for units in &fields {
        let eb = resolve_abs_eb(units, REL_EB);
        let (pack, place) = (
            bare(units, &cfg, eb),
            placed(units, Some(&origins), &cfg, eb),
        );
        assert_eq!(
            (mode(&pack), mode(&place)),
            ("interp-cluster", "interp-placed")
        );
        assert_within(units, &place, eb);
        packed_bytes += pack.len();
        placed_bytes += place.len();
    }
    assert!(
        placed_bytes * 10 <= packed_bytes * 6,
        "placed {placed_bytes} B vs cluster pack {packed_bytes} B"
    );
}

/// Unit cubes of edge 4 with smooth, unit-distinct data.
fn cubes(n: usize) -> Vec<Buffer3> {
    (0..n)
        .map(|u| {
            let mut b = Buffer3::zeros(Dims3::cube(4));
            b.fill_with(|i, j, k| ((i + 2 * j) as f64 * 0.3 + u as f64).sin() + k as f64 * 0.1);
            b
        })
        .collect()
}

#[test]
fn the_rule_leaves_every_other_chunk_as_it_was() {
    let at = |cells: &[(i64, i64, i64)]| {
        let origins = cells
            .iter()
            .map(|&(x, y, z)| IntVect::new(4 * x, 4 * y, 4 * z));
        UnitOrigins::new(origins.collect(), 4)
    };
    let interp = AmricConfig::interp(REL_EB);
    // A 2³ block of units: one cluster of eight, the smallest that places.
    let block: Vec<_> = (0..8).map(|s| (s % 2, s / 2 % 2, s / 4)).collect();
    let units = cubes(8);
    let eb = resolve_abs_eb(&units, REL_EB);
    assert_eq!(
        mode(&placed(&units, Some(&at(&block)), &interp, eb)),
        "interp-placed"
    );

    // Every chunk the rule passes over writes today's stream, byte for byte.
    let row: Vec<_> = (0..7).map(|x| (x, 0, 0)).collect();
    let scattered: Vec<_> = (0..8).map(|i| (3 * i, 2 * (i % 2), 0)).collect();
    let units7 = cubes(7);
    let off_grid = UnitOrigins::new((0..8).map(|s| IntVect::new(s * 4 + 1, 0, 0)).collect(), 4);
    let twice = UnitOrigins::new(vec![IntVect::new(0, 0, 0); 8], 4);
    let other_edge = UnitOrigins::new(
        block
            .iter()
            .map(|&(x, y, z)| IntVect::new(8 * x, 8 * y, 8 * z))
            .collect(),
        8,
    );
    let cases: [(&str, &[Buffer3], UnitOrigins, AmricConfig); 7] = [
        (
            "seven units: a cluster short of eight",
            &units7,
            at(&row),
            interp,
        ),
        (
            "scattered units: one cluster each",
            &units,
            at(&scattered),
            interp,
        ),
        ("origins off the unit grid", &units, off_grid, interp),
        ("two units on one origin", &units, twice, interp),
        ("origins for another unit edge", &units, other_edge, interp),
        ("SZ_L/R", &units, at(&block), AmricConfig::lr(REL_EB)),
        (
            "linear SZ_Interp arrangement",
            &units,
            at(&block),
            interp.with_cluster_arrangement(false),
        ),
    ];
    for (what, units, origins, cfg) in cases {
        let eb = resolve_abs_eb(units, REL_EB);
        let with = placed(units, Some(&origins), &cfg, eb);
        assert_eq!(with, bare(units, &cfg, eb), "{what}");
        assert_ne!(mode(&with), "interp-placed", "{what}");
    }
    // An adaptive bound takes its own mode whether or not origins are known.
    let adaptive = ResolvedBound::Adaptive {
        tight: 1e-4,
        loose: 1e-2,
    };
    let mut streams = [Vec::new(), Vec::new()];
    for (origins, out) in [None, Some(&at(&block))].into_iter().zip(&mut streams) {
        let scratch = &mut AmricScratch::default();
        compress_placed_into(&units, origins, &interp, 4, adaptive, scratch, out);
    }
    assert_eq!(streams[0], streams[1]);
    assert_eq!(mode(&streams[0]), "adaptive");
}

#[test]
fn restart_holds_the_bound_on_every_cell_of_placed_chunks() {
    for nranks in [1, 4] {
        let h = warpx(nranks);
        let (w, mem) = H5Writer::in_memory();
        write_amric_to(Arc::new(w), &h, &AmricConfig::interp(REL_EB), 8).unwrap();
        let r = H5Reader::from_storage(Box::new(mem)).unwrap();
        let modes: Vec<&str> = (0..r.meta(&field_dataset(0, 0)).unwrap().chunks.len())
            .map(|c| mode(&r.read_chunk_raw(&field_dataset(0, 0), c).unwrap()))
            .collect();
        assert!(
            modes.contains(&"interp-placed"),
            "nranks={nranks}: level 0 stores {modes:?}"
        );
        let pf = QueryEngine::from_reader(r).unwrap().restart().unwrap();
        for check in verify_against(&pf, &h, REL_EB) {
            assert!(
                check.bound_ok,
                "nranks={nranks}: field {} violates its bound",
                check.field
            );
        }
    }
}
