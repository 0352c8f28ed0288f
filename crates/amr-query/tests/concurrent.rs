//! `QueryEngine` is shared across threads by the service layer: queries
//! take `&self` and all mutability is interior (cache shards, atomic
//! counters). This suite hammers one engine from many threads and
//! checks every answer bitwise against a serial baseline.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::prelude::*;
use amric::config::AmricConfig;
use amric::writer::write_amric;
use std::sync::Arc;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("amr-query-conc-{}-{name}.h5l", std::process::id()));
    p
}

fn write_plotfile(seed: u64, path: &std::path::Path) {
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
    let h = build_hierarchy(&s, &cfg, 0.0);
    write_amric(path, &h, &AmricConfig::lr(1e-3), 8).unwrap();
}

fn view_bits(view: &RegionView) -> Vec<Vec<u64>> {
    view.levels
        .iter()
        .map(|lr| lr.data.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn concurrent_readers_match_serial_answers() {
    let path = tmp("readers");
    write_plotfile(81, &path);
    // Small cache budget so threads also race insert/evict paths, plus
    // prefetch workers so rankpar fan-out runs under contention too.
    let engine = Arc::new(
        QueryEngine::open(&path)
            .unwrap()
            .with_cache_bytes(64 * 1024)
            .with_workers(2),
    );
    let rois: Vec<IntBox> = vec![
        IntBox::new(IntVect::new(4, 4, 4), IntVect::new(11, 11, 11)),
        IntBox::new(IntVect::new(0, 0, 0), IntVect::new(7, 15, 3)),
        IntBox::from_extents(16, 16, 16),
    ];
    let points: Vec<IntVect> = (0..16)
        .map(|i| IntVect::new(i % 16, (3 * i) % 16, (7 * i) % 16))
        .collect();
    // Serial baselines first.
    let roi_expect: Vec<_> = rois
        .iter()
        .map(|roi| view_bits(&engine.roi(0, *roi, LevelSelect::All).unwrap()))
        .collect();
    let point_expect: Vec<_> = points
        .iter()
        .map(|p| {
            engine
                .point_sample(1, *p)
                .unwrap()
                .map(|s| (s.level, s.cell, s.value.to_bits()))
        })
        .collect();
    // Now 8 threads × 10 rounds, mixing point and ROI traffic, all on
    // `&engine`.
    let mut handles = Vec::new();
    for t in 0..8usize {
        let engine = Arc::clone(&engine);
        let rois = rois.clone();
        let points = points.clone();
        let roi_expect = roi_expect.clone();
        let point_expect = point_expect.clone();
        handles.push(std::thread::spawn(move || {
            for round in 0..10 {
                let ri = (t + round) % rois.len();
                let view = engine.roi(0, rois[ri], LevelSelect::All).unwrap();
                assert_eq!(view_bits(&view), roi_expect[ri], "thread {t} roi {ri}");
                let pi = (t * 3 + round) % points.len();
                let got = engine
                    .point_sample(1, points[pi])
                    .unwrap()
                    .map(|s| (s.level, s.cell, s.value.to_bits()));
                assert_eq!(got, point_expect[pi], "thread {t} point {pi}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Counter sanity: every query accounted exactly once.
    let s = engine.stats();
    assert_eq!(s.roi_queries, rois.len() as u64 + 8 * 10);
    assert_eq!(s.point_queries, points.len() as u64 + 8 * 10);
    std::fs::remove_file(&path).ok();
}

#[test]
fn shared_store_isolates_per_file_stats() {
    let path_a = tmp("shared-a");
    let path_b = tmp("shared-b");
    write_plotfile(82, &path_a);
    write_plotfile(83, &path_b);
    let store = Arc::new(ChunkStore::new(8 << 20));
    let a = QueryEngine::open(&path_a)
        .unwrap()
        .with_shared_cache(Arc::clone(&store), 1);
    let b = QueryEngine::open(&path_b)
        .unwrap()
        .with_shared_cache(Arc::clone(&store), 2);
    let roi = IntBox::from_extents(16, 16, 16);
    let va = a.roi(0, roi, LevelSelect::All).unwrap();
    let vb = b.roi(0, roi, LevelSelect::All).unwrap();
    // Different seeds produce different data; same store must never
    // cross-serve chunks between file ids.
    assert_ne!(view_bits(&va), view_bits(&vb));
    // Warm pass on A hits; B's counters are untouched by it.
    let b_stats_before = b.stats();
    let va2 = a.roi(0, roi, LevelSelect::All).unwrap();
    assert_eq!(view_bits(&va), view_bits(&va2));
    assert!(a.stats().cache.hits > 0, "warm pass must hit");
    assert_eq!(b.stats().cache.hits, b_stats_before.cache.hits);
    // Both engines' chunks live in the one store.
    assert!(store.resident_bytes() > 0);
    let (sa, sb) = (a.stats(), b.stats());
    assert!(sa.cache.insertions > 0 && sb.cache.insertions > 0);
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}
