//! The query subsystem's hard invariant: any ROI/level query answered
//! through `QueryEngine` is **bitwise-identical** to slicing the same
//! region out of a full `read_amric_hierarchy` decode — under a cold
//! cache, a warm cache and prefetch worker counts {1, 2, 4}. Enforced for
//! every codec configuration a plotfile can contain. A file whose chunk
//! index is missing or contradicts its metadata does not open.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::prelude::*;
use amric::config::{AmricConfig, MergePolicy};
use amric::reader::Plotfile;
use amric::writer::write_amric;

#[allow(dead_code)] // shared with suites that use the unaligned fixture
mod common;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("amr-query-eq-{}-{name}.h5l", std::process::id()));
    p
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

/// Every codec configuration the AMRIC pipeline can put in a plotfile
/// (stream modes LR/SLE, LR/LinearMerge, Interp/Cluster, Interp/Linear).
fn codec_configs() -> Vec<(&'static str, AmricConfig)> {
    vec![
        ("lr-sle", AmricConfig::lr(1e-3)),
        (
            "lr-lm",
            AmricConfig::lr(1e-3).with_merge(MergePolicy::LinearMerge),
        ),
        ("interp-cluster", AmricConfig::interp(1e-3)),
        (
            "interp-linear",
            AmricConfig::interp(1e-3).with_cluster_arrangement(false),
        ),
    ]
}

/// Reference: slice `region` (level coordinates) of one level out of the
/// full decode. Cells no box covers read as 0.0 — the full decode's own
/// convention for unrepresented cells.
fn reference_slice(pf: &Plotfile, level: usize, region: &IntBox, field: usize) -> Vec<u64> {
    region
        .iter_points()
        .map(|p| {
            pf.levels[level]
                .value_at(&p, field)
                .unwrap_or(0.0)
                .to_bits()
        })
        .collect()
}

fn view_bits(lr: &LevelRegion) -> Vec<u64> {
    lr.data.data().iter().map(|v| v.to_bits()).collect()
}

/// The regions of interest the suite probes, in level-0 coordinates:
/// interior cube over the refined region, a domain-edge box, a thin slab,
/// and the full domain.
fn probe_rois() -> Vec<IntBox> {
    vec![
        IntBox::new(IntVect::new(4, 4, 4), IntVect::new(11, 11, 11)),
        IntBox::new(IntVect::new(0, 0, 0), IntVect::new(3, 15, 5)),
        IntBox::new(IntVect::new(2, 9, 7), IntVect::new(13, 10, 7)),
        IntBox::from_extents(16, 16, 16),
    ]
}

#[test]
fn roi_queries_match_full_decode_bitwise() {
    let h = hierarchy(71);
    for (tag, cfg) in codec_configs() {
        let path = tmp(&format!("roi-{tag}"));
        write_amric(&path, &h, &cfg, 8).unwrap();
        let pf = read_amric_hierarchy(&path).unwrap();
        for workers in [1usize, 2, 4] {
            let engine = QueryEngine::open(&path).unwrap().with_workers(workers);
            for (ri, roi) in probe_rois().into_iter().enumerate() {
                for field in [0usize, 3] {
                    // Cold pass (fresh regions may still share chunks with
                    // earlier ROIs — that is the point of the cache; the
                    // first ROI of the first field is fully cold).
                    let view = engine.roi(field, roi, LevelSelect::All).unwrap();
                    assert_eq!(view.levels.len(), 2, "{tag} roi {ri}");
                    for lr in &view.levels {
                        assert_eq!(
                            view_bits(lr),
                            reference_slice(&pf, lr.level, &lr.region, field),
                            "{tag} workers={workers} roi {ri} field {field} level {}",
                            lr.level
                        );
                    }
                    // Warm pass: served from cache, still bitwise equal.
                    let hits_before = engine.cache_stats().hits;
                    let warm = engine.roi(field, roi, LevelSelect::All).unwrap();
                    assert!(
                        engine.cache_stats().hits > hits_before,
                        "{tag}: warm pass did not hit the cache"
                    );
                    for (a, b) in view.levels.iter().zip(&warm.levels) {
                        assert_eq!(view_bits(a), view_bits(b), "{tag}: warm differs from cold");
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn level_select_variants_and_level_region() {
    let h = hierarchy(73);
    let path = tmp("select");
    write_amric(&path, &h, &AmricConfig::lr(1e-3), 8).unwrap();
    let pf = read_amric_hierarchy(&path).unwrap();
    let engine = QueryEngine::open(&path).unwrap();
    let roi = IntBox::new(IntVect::new(4, 4, 4), IntVect::new(11, 11, 11));
    let fine_only = engine.roi(0, roi, LevelSelect::Finest).unwrap();
    assert_eq!(fine_only.levels.len(), 1);
    assert_eq!(fine_only.levels[0].level, 1);
    let coarse_only = engine.roi(0, roi, LevelSelect::Level(0)).unwrap();
    assert_eq!(coarse_only.levels[0].region, roi);
    let range = engine.roi(0, roi, LevelSelect::Range(0, 1)).unwrap();
    assert_eq!(range.levels.len(), 2);
    // level_region takes level-local coordinates directly.
    let fine_region = IntBox::new(IntVect::new(9, 8, 10), IntVect::new(22, 21, 23));
    let lr = engine.level_region(0, 1, fine_region).unwrap();
    assert_eq!(view_bits(&lr), reference_slice(&pf, 1, &lr.region, 0));
    // A region clipped at the fine domain edge still answers.
    let clipped = engine
        .level_region(
            0,
            1,
            IntBox::new(IntVect::new(20, 20, 20), IntVect::new(60, 60, 60)),
        )
        .unwrap();
    assert_eq!(
        view_bits(&clipped),
        reference_slice(&pf, 1, &clipped.region, 0)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn point_samples_match_full_decode_with_fine_priority() {
    let h = hierarchy(74);
    let path = tmp("points");
    write_amric(&path, &h, &AmricConfig::interp(1e-3), 8).unwrap();
    let pf = read_amric_hierarchy(&path).unwrap();
    let engine = QueryEngine::open(&path).unwrap();
    let meta = engine.meta();
    let nlevels = meta.num_levels();
    let finest_factor = meta.refine_factor(nlevels - 1);
    // Reference coverage from the full decode's reconstructed plans.
    let covered = |level: usize, cell: &IntVect| {
        pf.unit_plans[level]
            .iter()
            .flatten()
            .any(|u| u.region.contains(cell))
    };
    let fine_domain = meta.levels[nlevels - 1].domain;
    let mut sampled = 0usize;
    for p in fine_domain.iter_points().step_by(97) {
        let got = engine.point_sample(2, p).unwrap();
        // Expected: finest level whose valid data covers the cell.
        let mut expect = None;
        for l in (0..nlevels).rev() {
            let cell = p.coarsened(finest_factor / meta.refine_factor(l));
            if covered(l, &cell) {
                expect = Some((l, cell, pf.levels[l].value_at(&cell, 2).unwrap()));
                break;
            }
        }
        match (got, expect) {
            (Some(s), Some((l, cell, v))) => {
                assert_eq!(s.level, l, "point {p:?}");
                assert_eq!(s.cell, cell, "point {p:?}");
                assert_eq!(s.value.to_bits(), v.to_bits(), "point {p:?}");
                sampled += 1;
            }
            (None, None) => {}
            (got, expect) => panic!("point {p:?}: engine {got:?} vs reference {expect:?}"),
        }
    }
    assert!(sampled > 10, "too few covered sample points ({sampled})");
    std::fs::remove_file(&path).ok();
}

#[test]
fn plane_slices_match_full_decode() {
    let h = hierarchy(75);
    let path = tmp("planes");
    write_amric(&path, &h, &AmricConfig::lr(1e-3), 8).unwrap();
    let pf = read_amric_hierarchy(&path).unwrap();
    let engine = QueryEngine::open(&path).unwrap().with_workers(2);
    for (level, axis, coord) in [(0, 2, 7), (0, 0, 0), (1, 1, 16), (1, 2, 31)] {
        let slice = engine.plane_slice(0, level, axis, coord).unwrap();
        assert_eq!(slice.region.size().get(axis), 1);
        assert_eq!(
            view_bits(&slice),
            reference_slice(&pf, level, &slice.region, 0),
            "level {level} axis {axis} coord {coord}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn pruning_reads_fewer_chunks_and_tiny_cache_stays_correct() {
    let h = hierarchy(76);
    let path = tmp("prune");
    write_amric(&path, &h, &AmricConfig::lr(1e-3), 8).unwrap();
    let pf = read_amric_hierarchy(&path).unwrap();
    // A one-cell coarse ROI decodes at most one chunk per level — not the
    // whole file.
    let engine = QueryEngine::open(&path).unwrap();
    let tiny = IntBox::new(IntVect::new(1, 1, 1), IntVect::new(1, 1, 1));
    engine.roi(0, tiny, LevelSelect::Level(0)).unwrap();
    let s = engine.cache_stats();
    assert_eq!(s.insertions, 1, "one-cell coarse ROI must decode 1 chunk");
    // A byte-starved cache keeps evicting but answers stay bitwise right.
    let starved = QueryEngine::open(&path).unwrap().with_cache_bytes(1024);
    let roi = IntBox::from_extents(16, 16, 16);
    for _ in 0..2 {
        let view = starved.roi(0, roi, LevelSelect::All).unwrap();
        for lr in &view.levels {
            assert_eq!(view_bits(lr), reference_slice(&pf, lr.level, &lr.region, 0));
        }
    }
    // The starved budget forces evictions (the exact byte-budget policy —
    // newest entry per shard survives, LRU goes first — is unit-tested in
    // `cache.rs`); answers stay bitwise correct regardless.
    let st = starved.cache_stats();
    assert!(st.evictions > 0, "starved cache never evicted: {st:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn invalid_queries_and_files_are_typed_errors() {
    let h = hierarchy(77);
    let path = tmp("errors");
    write_amric(&path, &h, &AmricConfig::lr(1e-3), 8).unwrap();
    let engine = QueryEngine::open(&path).unwrap();
    let roi = IntBox::from_extents(4, 4, 4);
    assert!(matches!(
        engine.roi(99, roi, LevelSelect::All),
        Err(QueryError::BadQuery(_))
    ));
    assert!(matches!(
        engine.roi(0, roi, LevelSelect::Level(9)),
        Err(QueryError::BadQuery(_))
    ));
    assert!(matches!(
        engine.roi(0, roi, LevelSelect::Range(1, 0)),
        Err(QueryError::BadQuery(_))
    ));
    assert!(matches!(
        engine.plane_slice(0, 0, 3, 0),
        Err(QueryError::BadQuery(_))
    ));
    assert!(matches!(
        engine.plane_slice(0, 0, 2, -5),
        Err(QueryError::BadQuery(_))
    ));
    // Copies of the file with its chunk indexes replaced. Kept as stored,
    // the copy answers as the original does.
    let copy = tmp("errors-copy");
    common::rewrite_with_index(&path, &copy, |_, stored| stored.cloned());
    let bits = |e: &QueryEngine| {
        let view = e.roi(0, IntBox::from_extents(16, 16, 16), LevelSelect::All);
        view.unwrap()
            .levels
            .iter()
            .map(view_bits)
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&QueryEngine::open(&copy).unwrap()), bits(&engine));
    // A level-0 extent that contradicts the box metadata would prune stored
    // cells out of answers: the file does not open.
    common::rewrite_with_index(&path, &copy, |name, stored| {
        let mut index = stored?.clone();
        if name.starts_with("level_0/") {
            for e in &mut index.entries {
                e.extent = Some(([1000; 3], [1001; 3]));
            }
        }
        Some(index)
    });
    assert!(matches!(
        QueryEngine::open(&copy),
        Err(QueryError::Inconsistent(_))
    ));
    // Without a chunk index it is not an AMRIC plotfile.
    common::rewrite_with_index(&path, &copy, |_, _| None);
    assert!(matches!(
        QueryEngine::open(&copy),
        Err(QueryError::BadQuery(_))
    ));
    std::fs::remove_file(&copy).ok();
    std::fs::remove_file(&path).ok();
    // Baseline files have no unit layout to query.
    let bpath = tmp("errors-baseline");
    amric::baseline::write_nocomp(&bpath, &h).unwrap();
    assert!(matches!(
        QueryEngine::open(&bpath),
        Err(QueryError::BadQuery(_))
    ));
    std::fs::remove_file(&bpath).ok();
}
