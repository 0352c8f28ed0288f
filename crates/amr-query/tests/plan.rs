//! A query is planned once, and cost, warm-up and answer are views of
//! that one [`QueryPlan`]. For ROI / region / plane queries × the four
//! pipeline stream modes × workers {1, 2} × cold and warm caches:
//!
//! * `plan.cost()` is exactly what a cold engine then pays
//!   (`EngineStats.chunks_decoded` / `decoded_bytes` deltas), and
//!   `plan.answer_bytes()` exactly what the answer then holds;
//! * `plan.batches(b)` partitions the chunk list in order, and no batch
//!   exceeds `b` unless it is a single chunk;
//! * `warm` over those batches then `answer` decodes every chunk exactly
//!   once and is bitwise equal to `roi` / `level_region` / `plane_slice`
//!   and to slicing the full decode;
//! * `plan_*`, `warm` and `answer` bump no query counter; each public
//!   entry point bumps its own exactly once.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::prelude::*;
use amric::config::{AmricConfig, MergePolicy};
use amric::reader::{read_amric_hierarchy, Plotfile};
use amric::writer::write_amric;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("amr-query-plan-{}-{name}.h5l", std::process::id()));
    p
}

/// Four ranks → four chunks per level per field, so batching has
/// something to partition.
fn hierarchy(seed: u64) -> AmrHierarchy {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 4,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    build_hierarchy(&NyxScenario::new(seed), &cfg, 0.0)
}

/// The four stream modes a plotfile can hold.
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

#[derive(Clone, Copy, Debug)]
enum Query {
    Roi(IntBox, LevelSelect),
    Region(usize, IntBox),
    Plane(usize, usize, i64),
}

fn queries() -> Vec<Query> {
    vec![
        Query::Roi(IntBox::from_extents(16, 16, 16), LevelSelect::All),
        Query::Roi(
            IntBox::new(IntVect::new(4, 4, 4), IntVect::new(11, 11, 11)),
            LevelSelect::Finest,
        ),
        Query::Region(
            0,
            IntBox::new(IntVect::new(0, 3, 2), IntVect::new(9, 15, 6)),
        ),
        // Clipped at the fine domain's far corner.
        Query::Region(
            1,
            IntBox::new(IntVect::new(9, 8, 10), IntVect::new(60, 21, 23)),
        ),
        Query::Plane(0, 2, 7),
        Query::Plane(1, 0, 16),
    ]
}

fn plan(engine: &QueryEngine, field: usize, q: Query) -> QueryPlan {
    match q {
        Query::Roi(roi, select) => engine.plan_roi(field, roi, select),
        Query::Region(level, region) => engine.plan_region(field, level, region),
        Query::Plane(level, axis, coord) => engine.plan_plane(field, level, axis, coord),
    }
    .unwrap()
}

/// The same query through its public entry point.
fn direct(engine: &QueryEngine, field: usize, q: Query) -> Vec<LevelRegion> {
    match q {
        Query::Roi(roi, select) => engine.roi(field, roi, select).unwrap().levels,
        Query::Region(level, region) => vec![engine.level_region(field, level, region).unwrap()],
        Query::Plane(level, axis, coord) => {
            vec![engine.plane_slice(field, level, axis, coord).unwrap()]
        }
    }
}

/// `(roi, region, plane)` query counters.
fn query_counters(s: &EngineStats) -> (u64, u64, u64) {
    (s.roi_queries, s.region_queries, s.plane_queries)
}

/// `(chunks decoded, decoded bytes, stored bytes read)`.
fn io_counters(s: &EngineStats) -> (u64, u64, u64) {
    (s.chunks_decoded, s.decoded_bytes, s.read_bytes)
}

fn bits(levels: &[LevelRegion]) -> Vec<(usize, IntBox, Vec<u64>)> {
    levels
        .iter()
        .map(|lr| {
            let data = lr.data.data().iter().map(|v| v.to_bits()).collect();
            (lr.level, lr.region, data)
        })
        .collect()
}

/// Reference: the same regions sliced out of the full decode (cells no
/// unit covers read as 0.0 there too).
fn reference(
    pf: &Plotfile,
    field: usize,
    levels: &[LevelRegion],
) -> Vec<(usize, IntBox, Vec<u64>)> {
    levels
        .iter()
        .map(|lr| {
            let data = lr
                .region
                .iter_points()
                .map(|p| {
                    pf.levels[lr.level]
                        .value_at(&p, field)
                        .unwrap_or(0.0)
                        .to_bits()
                })
                .collect();
            (lr.level, lr.region, data)
        })
        .collect()
}

#[test]
fn cost_warm_and_answer_are_views_of_one_plan() {
    let h = hierarchy(81);
    let field = 1;
    for (tag, cfg) in codec_configs() {
        let path = tmp(tag);
        write_amric(&path, &h, &cfg, 8).unwrap();
        let pf = read_amric_hierarchy(&path).unwrap();
        // Plans depend on metadata only: one engine sizes the batch targets.
        let planner = QueryEngine::open(&path).unwrap();
        for workers in [1usize, 2] {
            for q in queries() {
                let planned = plan(&planner, field, q);
                let one_chunk = *planned.chunk_bytes().iter().max().unwrap();
                for target in [1, one_chunk, u64::MAX] {
                    let ctx = format!("{tag} workers={workers} {q:?} target={target}");
                    // A fresh engine is a cold cache.
                    let engine = QueryEngine::open(&path).unwrap().with_workers(workers);
                    let plan = plan(&engine, field, q);
                    let cost = plan.cost();
                    assert_eq!(cost.chunks, plan.chunk_bytes().len(), "{ctx}");
                    assert!(cost.chunks > 0, "{ctx}: probe touches nothing");

                    // Batches partition the chunk list, in order.
                    let batches = plan.batches(target);
                    let mut next = 0;
                    for b in &batches {
                        assert_eq!(b.start, next, "{ctx}: batches must be contiguous");
                        assert!(b.end > b.start, "{ctx}: empty batch");
                        let bytes: u64 = plan.chunk_bytes()[b.clone()].iter().sum();
                        assert!(
                            bytes <= target || b.len() == 1,
                            "{ctx}: batch {b:?} holds {bytes} B"
                        );
                        next = b.end;
                    }
                    assert_eq!(next, cost.chunks, "{ctx}: batches must cover the plan");
                    match target {
                        1 => assert_eq!(batches.len(), cost.chunks, "{ctx}"),
                        u64::MAX => assert_eq!(batches.len(), 1, "{ctx}"),
                        _ => {}
                    }

                    // Warming batch by batch pays exactly the plan's cost…
                    let cold = engine.stats();
                    for b in batches {
                        engine.warm(&plan, b).unwrap();
                    }
                    let warmed = engine.stats();
                    assert_eq!(
                        warmed.chunks_decoded - cold.chunks_decoded,
                        cost.chunks as u64,
                        "{ctx}"
                    );
                    assert_eq!(
                        warmed.decoded_bytes - cold.decoded_bytes,
                        cost.decode_bytes,
                        "{ctx}"
                    );
                    assert!(warmed.read_bytes > cold.read_bytes, "{ctx}");
                    // …and the answer decodes nothing again.
                    let answered = engine.answer(&plan).unwrap();
                    let after = engine.stats();
                    assert_eq!(after.chunks_decoded, warmed.chunks_decoded, "{ctx}");
                    assert_eq!(after.read_bytes, warmed.read_bytes, "{ctx}");
                    // None of plan / warm / answer is a counted query.
                    assert_eq!(query_counters(&after), (0, 0, 0), "{ctx}");

                    let regions: Vec<_> = answered.iter().map(|lr| (lr.level, lr.region)).collect();
                    assert_eq!(regions, plan.regions(), "{ctx}");
                    // …and allocates exactly what the plan said it would.
                    let answer_bytes: usize =
                        answered.iter().map(|lr| lr.data.data().len() * 8).sum();
                    assert_eq!(plan.answer_bytes(), answer_bytes as u64, "{ctx}");
                    assert_eq!(bits(&answered), reference(&pf, field, &answered), "{ctx}");

                    // The public entry point: same bits from the warm
                    // cache, counted exactly once.
                    let via_entry = direct(&engine, field, q);
                    assert_eq!(bits(&via_entry), bits(&answered), "{ctx}");
                    let end = engine.stats();
                    assert_eq!(end.chunks_decoded, warmed.chunks_decoded, "{ctx}");
                    let expect = match q {
                        Query::Roi(..) => (1, 0, 0),
                        Query::Region(..) => (0, 1, 0),
                        Query::Plane(..) => (0, 0, 1),
                    };
                    assert_eq!(query_counters(&end), expect, "{ctx}");
                }
                // Cold through the entry point alone: the plan's cost is
                // what the engine reports, and the bits are the same.
                let engine = QueryEngine::open(&path).unwrap().with_workers(workers);
                let cost = plan(&engine, field, q).cost();
                let cold_answer = direct(&engine, field, q);
                let s = engine.stats();
                assert_eq!(s.chunks_decoded, cost.chunks as u64, "{tag} {q:?}");
                assert_eq!(s.decoded_bytes, cost.decode_bytes, "{tag} {q:?}");
                assert_eq!(
                    bits(&cold_answer),
                    reference(&pf, field, &cold_answer),
                    "{tag} workers={workers} {q:?}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn roi_cost_is_the_plans_cost_and_planning_reads_nothing() {
    let path = tmp("cost");
    write_amric(&path, &hierarchy(82), &AmricConfig::lr(1e-3), 8).unwrap();
    let engine = QueryEngine::open(&path).unwrap();
    let roi = IntBox::new(IntVect::new(2, 2, 2), IntVect::new(13, 9, 9));
    for select in [LevelSelect::All, LevelSelect::Level(0), LevelSelect::Finest] {
        let plan = engine.plan_roi(0, roi, select).unwrap();
        assert_eq!(engine.roi_cost(0, roi, select).unwrap(), plan.cost());
        assert_eq!(plan.field(), 0);
    }
    // A ROI that misses every domain plans to nothing and answers empty.
    let outside = IntBox::new(IntVect::new(40, 40, 40), IntVect::new(50, 50, 50));
    let empty = engine.plan_roi(0, outside, LevelSelect::All).unwrap();
    assert_eq!(empty.cost(), QueryCost::default());
    assert_eq!(empty.answer_bytes(), 0);
    assert!(empty.batches(1).is_empty());
    assert!(engine.answer(&empty).unwrap().is_empty());
    assert_eq!(
        io_counters(&engine.stats()),
        (0, 0, 0),
        "planning reads nothing"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn answers_never_depend_on_residency() {
    // A cache too small to keep anything resident: every warmed chunk is
    // evicted before the answer, which simply decodes it again.
    let path = tmp("evicted");
    write_amric(&path, &hierarchy(83), &AmricConfig::interp(1e-3), 8).unwrap();
    let pf = read_amric_hierarchy(&path).unwrap();
    let starved = QueryEngine::open(&path).unwrap().with_cache_bytes(1024);
    let plan = starved
        .plan_roi(2, IntBox::from_extents(16, 16, 16), LevelSelect::All)
        .unwrap();
    for b in plan.batches(1) {
        starved.warm(&plan, b).unwrap();
    }
    let answered = starved.answer(&plan).unwrap();
    assert_eq!(bits(&answered), reference(&pf, 2, &answered));
    assert!(starved.cache_stats().evictions > 0);
    assert!(starved.stats().chunks_decoded > plan.cost().chunks as u64);
    std::fs::remove_file(&path).ok();
}

#[test]
fn planning_errors_are_typed_and_name_the_argument() {
    let path = tmp("errors");
    write_amric(&path, &hierarchy(84), &AmricConfig::lr(1e-3), 8).unwrap();
    let engine = QueryEngine::open(&path).unwrap();
    let cube = IntBox::from_extents(4, 4, 4);
    let bad = |r: QueryResult<QueryPlan>, needle: &str| match r {
        Err(QueryError::BadQuery(m)) => assert!(m.contains(needle), "{m:?} lacks {needle:?}"),
        other => panic!("expected BadQuery({needle}), got {other:?}"),
    };
    let levels = "level 9 out of range (file has 2 levels)";
    bad(engine.plan_roi(99, cube, LevelSelect::All), "field 99");
    bad(engine.plan_roi(0, cube, LevelSelect::Level(9)), levels);
    bad(engine.plan_roi(0, cube, LevelSelect::Range(1, 0)), "empty");
    bad(engine.plan_region(99, 0, cube), "field 99");
    bad(engine.plan_region(0, 9, cube), levels);
    let outside = IntBox::new(IntVect::new(99, 99, 99), IntVect::new(100, 100, 100));
    bad(engine.plan_region(0, 0, outside), "misses level 0's domain");
    bad(engine.plan_plane(99, 0, 0, 0), "field 99");
    bad(engine.plan_plane(0, 9, 0, 0), levels);
    bad(engine.plan_plane(0, 0, 3, 0), "axis 3");
    bad(engine.plan_plane(0, 0, 2, -5), "outside level 0's domain");
    assert!(matches!(engine.chunk_entries(9), Err(QueryError::BadQuery(m)) if m == levels));
    // A chunk range outside the plan is refused, not sliced.
    let plan = engine.plan_region(0, 0, cube).unwrap();
    let n = plan.cost().chunks;
    assert!(matches!(
        engine.warm(&plan, 0..n + 1),
        Err(QueryError::BadQuery(_))
    ));
    assert_eq!(io_counters(&engine.stats()), (0, 0, 0), "nothing was read");
    std::fs::remove_file(&path).ok();
}
