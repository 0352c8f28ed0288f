//! Acceptance gate for the sharded backend at the query layer: a sharded
//! AMRIC write followed by `amr-query` ROI/point/plane reads must be
//! **bitwise-identical** to the single-file path — across cold and warm
//! cache, prefetch workers {1, 4}, both codec families, and with the
//! chunk index stripped (legacy fallback scan) on both backends.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::prelude::*;
use amric::config::AmricConfig;
use amric::writer::{write_amric, write_amric_to, WriteReport};
use h5lite::testutil::TempDir;

/// `write_amric` into a sharded container of `shards` shard files.
fn write_sharded(
    path: &std::path::Path,
    shards: usize,
    h: &AmrHierarchy,
    cfg: &AmricConfig,
) -> WriteReport {
    let w = h5lite::H5Writer::create_sharded(path, shards).unwrap();
    write_amric_to(std::sync::Arc::new(w), h, cfg, 8).unwrap()
}

fn hierarchy(seed: u64) -> AmrHierarchy {
    let s = NyxScenario::new(seed);
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    build_hierarchy(&s, &cfg, 0.0)
}

fn view_bits(lr: &LevelRegion) -> Vec<u64> {
    lr.data.data().iter().map(|v| v.to_bits()).collect()
}

fn probe_rois() -> Vec<IntBox> {
    vec![
        IntBox::new(IntVect::new(4, 4, 4), IntVect::new(11, 11, 11)),
        IntBox::new(IntVect::new(0, 0, 0), IntVect::new(3, 15, 5)),
        IntBox::from_extents(16, 16, 16),
    ]
}

/// Run the probe workload on both engines and demand bitwise equality,
/// cold then warm.
fn assert_engines_agree(file: &QueryEngine, sharded: &QueryEngine, ctx: &str) {
    for pass in ["cold", "warm"] {
        // ROI queries, all levels.
        for (ri, roi) in probe_rois().into_iter().enumerate() {
            for field in [0usize, 3] {
                let a = file.roi(field, roi, LevelSelect::All).unwrap();
                let b = sharded.roi(field, roi, LevelSelect::All).unwrap();
                assert_eq!(a.levels.len(), b.levels.len(), "{ctx} {pass} roi {ri}");
                for (la, lb) in a.levels.iter().zip(&b.levels) {
                    assert_eq!(la.level, lb.level);
                    assert_eq!(la.region, lb.region, "{ctx} {pass} roi {ri}");
                    assert_eq!(
                        view_bits(la),
                        view_bits(lb),
                        "{ctx} {pass} roi {ri} field {field} level {} differs",
                        la.level
                    );
                }
            }
        }
        // Point samples over a lattice of cells (finest index space).
        for x in (0..32).step_by(7) {
            for y in (0..32).step_by(9) {
                let p = IntVect::new(x, y, 16);
                let a = file.point_sample(0, p).unwrap();
                let b = sharded.point_sample(0, p).unwrap();
                match (a, b) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.level, b.level, "{ctx} {pass} point {p:?}");
                        assert_eq!(a.cell, b.cell, "{ctx} {pass} point {p:?}");
                        assert_eq!(
                            a.value.to_bits(),
                            b.value.to_bits(),
                            "{ctx} {pass} point {p:?}"
                        );
                    }
                    other => panic!("{ctx} {pass} point {p:?}: mismatch {other:?}"),
                }
            }
        }
        // Plane slices on every axis at both levels.
        for level in 0..2 {
            for axis in 0..3 {
                let a = file.plane_slice(1, level, axis, 3).unwrap();
                let b = sharded.plane_slice(1, level, axis, 3).unwrap();
                assert_eq!(a.region, b.region, "{ctx} {pass} plane l{level} a{axis}");
                assert_eq!(
                    view_bits(&a),
                    view_bits(&b),
                    "{ctx} {pass} plane l{level} a{axis} differs"
                );
            }
        }
    }
    // The warm passes actually hit the cache on both engines.
    assert!(file.cache_stats().hits > 0, "{ctx}: file cache never hit");
    assert!(
        sharded.cache_stats().hits > 0,
        "{ctx}: sharded cache never hit"
    );
}

#[test]
fn sharded_queries_bitwise_match_single_file() {
    let h = hierarchy(71);
    let dir = TempDir::new("amr-query-sharded");
    for (tag, cfg) in [
        ("lr", AmricConfig::lr(1e-3)),
        ("interp", AmricConfig::interp(1e-3)),
    ] {
        let fp = dir.file(&format!("{tag}.h5l"));
        let sp = dir.file(&format!("{tag}.h5ls"));
        let rf = write_amric(&fp, &h, &cfg, 8).unwrap();
        let rs = write_sharded(&sp, 4, &h, &cfg);
        assert_eq!(rf.stored_bytes, rs.stored_bytes, "{tag}: payload differs");
        // The sharded container really is sharded, with populated shards.
        let manifest = h5lite::read_manifest(&sp).unwrap();
        assert_eq!(manifest.shard_count, 4, "{tag}");
        assert!(
            manifest.shard_bytes().iter().filter(|&&b| b > 0).count() > 1,
            "{tag}: write landed in a single shard"
        );
        for workers in [1usize, 4] {
            let ef = QueryEngine::open(&fp).unwrap().with_workers(workers);
            let es = QueryEngine::open(&sp).unwrap().with_workers(workers);
            assert!(ef.has_persistent_index(), "{tag}");
            assert!(es.has_persistent_index(), "{tag}");
            assert_engines_agree(&ef, &es, &format!("{tag} workers={workers}"));
        }
    }
}

#[test]
fn sharded_legacy_fallback_matches_single_file() {
    // Strip the chunk index from both containers: the fallback scan path
    // must stay bitwise-identical across backends too.
    let h = hierarchy(29);
    let dir = TempDir::new("amr-query-sharded-legacy");
    let cfg = AmricConfig::lr(1e-3);
    let fp = dir.file("legacy.h5l");
    let sp = dir.file("legacy.h5ls");
    write_amric(&fp, &h, &cfg, 8).unwrap();
    write_sharded(&sp, 3, &h, &cfg);
    h5lite::strip_chunk_indexes(&fp).unwrap();
    h5lite::strip_chunk_indexes(&sp).unwrap();
    for workers in [1usize, 4] {
        let ef = QueryEngine::open(&fp).unwrap().with_workers(workers);
        let es = QueryEngine::open(&sp).unwrap().with_workers(workers);
        assert!(!ef.has_persistent_index());
        assert!(!es.has_persistent_index());
        assert_engines_agree(&ef, &es, &format!("legacy workers={workers}"));
    }
}
