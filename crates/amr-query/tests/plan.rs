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
//!   entry point bumps its own exactly once;
//! * `pieces` is the answer before it is pasted: the pieces of a region
//!   are disjoint, lie inside the region and their unit, cover exactly
//!   the cells the unit plans cover, and zero-fill + paste of them is
//!   `answer`, bit for bit.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::prelude::*;
use amric::config::{AmricConfig, MergePolicy};
use amric::reader::{read_plotfile_meta, Plotfile};
use amric::writer::{field_dataset, write_amric};
use h5lite::prelude::*;

#[allow(dead_code)] // shared with the suites that rewrite chunk indexes
mod common;

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

/// Dense answers as `(level, region, value bits)`.
type AnswerBits = Vec<(usize, IntBox, Vec<u64>)>;

fn bits(levels: &[LevelRegion]) -> AnswerBits {
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
fn reference(pf: &Plotfile, field: usize, levels: &[LevelRegion]) -> AnswerBits {
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

/// Every stored unit of every level, from the file's metadata alone (the
/// ranks that stored a chunk only) — what `pieces` may draw from.
fn stored_units(path: &std::path::Path) -> Vec<Vec<IntBox>> {
    let reader = H5Reader::open(path).unwrap();
    let meta = read_plotfile_meta(&reader).unwrap();
    (0..meta.num_levels())
        .map(|l| {
            let stored = reader.meta(&field_dataset(l, 0)).unwrap().chunks.len();
            (0..stored)
                .flat_map(|rank| meta.unit_plan(l, rank))
                .map(|u| u.region)
                .collect()
        })
        .collect()
}

/// Walk `plan`'s pieces and hold them to everything the dense answer and
/// the unit plans say about them; returns zero-fill + paste(pieces) as
/// bit patterns, and how many pieces each region got.
fn check_pieces(
    engine: &QueryEngine,
    plan: &QueryPlan,
    units: &[Vec<IntBox>],
    ctx: &str,
) -> (AnswerBits, Vec<usize>) {
    let regions = plan.regions();
    // Bits of -0.0 would survive a paste; a box starts as +0.0.
    let mut boxes: Vec<Vec<u64>> = regions
        .iter()
        .map(|(_, r)| vec![0f64.to_bits(); r.num_cells() as usize])
        .collect();
    let mut pasted: Vec<Vec<bool>> = boxes.iter().map(|b| vec![false; b.len()]).collect();
    let mut counts = vec![0usize; regions.len()];
    let mut last_region = 0;
    engine
        .pieces(plan, |piece| {
            let (level, region) = regions[piece.region];
            assert!(piece.region >= last_region, "{ctx}: regions in plan order");
            last_region = piece.region;
            counts[piece.region] += 1;
            assert!(region.contains_box(&piece.overlap), "{ctx}: {piece:?}");
            assert!(piece.unit.contains_box(&piece.overlap), "{ctx}: {piece:?}");
            assert_eq!(
                piece.unit.intersection(&region),
                Some(piece.overlap),
                "{ctx}"
            );
            assert!(units[level].contains(&piece.unit), "{ctx}: {piece:?}");
            // Rows: y then z, each the overlap's whole x-run.
            let mut cells = piece.overlap.iter_points();
            piece.for_each_row(|y, z, row| {
                assert_eq!(row.len() as i64, piece.overlap.size().get(0), "{ctx}");
                for (i, v) in row.iter().enumerate() {
                    let p = cells.next().expect("more values than cells");
                    assert_eq!(p, IntVect::new(piece.overlap.lo.get(0) + i as i64, y, z));
                    let at = region.linear_index(&p);
                    assert!(!pasted[piece.region][at], "{ctx}: {p:?} in two pieces");
                    pasted[piece.region][at] = true;
                    boxes[piece.region][at] = v.to_bits();
                }
            });
            assert!(cells.next().is_none(), "{ctx}: fewer values than cells");
            // The runs are the same values in the same order.
            let mut by_run = Vec::new();
            piece.for_each_run(|run| by_run.extend(run.iter().map(|v| v.to_bits())));
            let mut by_row = Vec::new();
            piece.for_each_row(|_, _, row| by_row.extend(row.iter().map(|v| v.to_bits())));
            assert_eq!(by_run, by_row, "{ctx}: {piece:?}");
        })
        .unwrap();
    // Exactly the cells some stored unit covers were pasted.
    for (ri, (level, region)) in regions.iter().enumerate() {
        for p in region.iter_points() {
            let covered = units[*level].iter().any(|u| u.contains(&p));
            assert_eq!(
                pasted[ri][region.linear_index(&p)],
                covered,
                "{ctx}: level {level} {p:?}"
            );
        }
    }
    let answer = regions
        .iter()
        .zip(boxes)
        .map(|(&(level, region), data)| (level, region, data))
        .collect();
    (answer, counts)
}

#[test]
fn pieces_are_the_answer_before_it_is_pasted() {
    let h = hierarchy(85);
    let field = 2;
    for (tag, cfg) in codec_configs() {
        let path = tmp(&format!("pieces-{tag}"));
        write_amric(&path, &h, &cfg, 8).unwrap();
        let units = stored_units(&path);
        for workers in [1usize, 2] {
            for q in queries() {
                let engine = QueryEngine::open(&path).unwrap().with_workers(workers);
                let plan = plan(&engine, field, q);
                let ctx = format!("{tag} workers={workers} {q:?}");
                // Cold: the walk decodes what it visits, and nothing else.
                let (cold, counts) = check_pieces(&engine, &plan, &units, &ctx);
                let s = engine.stats();
                assert_eq!(s.chunks_decoded, plan.cost().chunks as u64, "{ctx}");
                assert_eq!(query_counters(&s), (0, 0, 0), "{ctx}: not a counted query");
                assert!(
                    counts.iter().sum::<usize>() > 0,
                    "{ctx}: probe meets nothing"
                );
                // Warm: the same pieces, no decode.
                let (warm, warm_counts) = check_pieces(&engine, &plan, &units, &ctx);
                assert_eq!(engine.stats().chunks_decoded, s.chunks_decoded, "{ctx}");
                assert_eq!((&warm, &warm_counts), (&cold, &counts), "{ctx}");
                // Zero-fill + paste(pieces) is the dense answer and the
                // public entry point, bit for bit.
                assert_eq!(cold, bits(&engine.answer(&plan).unwrap()), "{ctx}");
                assert_eq!(cold, bits(&direct(&engine, field, q)), "{ctx}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_region_no_unit_meets_yields_no_piece_and_a_zero_box() {
    let path = tmp("no-piece");
    write_amric(&path, &hierarchy(86), &AmricConfig::lr(1e-3), 8).unwrap();
    let units = stored_units(&path);
    let engine = QueryEngine::open(&path).unwrap();
    // A fine-level block the refinement left out (fine_fraction 0.05).
    let fine = engine.meta().levels[1].domain;
    let hole = fine
        .tiles(8)
        .into_iter()
        .find(|t| !units[1].iter().any(|u| u.intersects(t)))
        .expect("an unrefined block");
    let plan = engine.plan_region(0, 1, hole).unwrap();
    assert_eq!(plan.cost(), QueryCost::default());
    assert_eq!(plan.answer_bytes(), 8 * 8 * 8 * 8);
    let (answer, counts) = check_pieces(&engine, &plan, &units, "hole");
    assert_eq!(counts, [0]);
    assert_eq!(answer, bits(&engine.answer(&plan).unwrap()));
    assert!(answer[0].2.iter().all(|&b| b == 0), "+0.0 everywhere");
    // In a multi-level ROI the hole is one region among others: its box
    // is there, zeroed, between regions that got pieces.
    let roi = engine
        .plan_roi(0, hole.coarsened(2), LevelSelect::All)
        .unwrap();
    let (answer, counts) = check_pieces(&engine, &roi, &units, "roi over the hole");
    assert!(counts[0] > 0 && counts[1] == 0, "{counts:?}");
    assert_eq!(answer, bits(&engine.answer(&roi).unwrap()));
    assert_eq!(io_counters(&engine.stats()).0, roi.cost().chunks as u64);
    std::fs::remove_file(&path).ok();
}

#[test]
fn clipped_units_of_two_ranks_in_one_tile_come_out_as_disjoint_pieces() {
    // The hand-built file of `point_oracle.rs`: units clipped off
    // the tile grid, three of them from both ranks inside one tile, and a
    // strip no box covers.
    let path = tmp("unaligned-pieces");
    common::write_unaligned_file(&path);
    let units = stored_units(&path);
    let engine = QueryEngine::open(&path).unwrap();
    let pf = read_amric_hierarchy(&path).unwrap();
    let domain = engine.meta().levels[0].domain;
    let probes = [
        engine.plan_region(0, 0, domain).unwrap(),
        // Inside the shared tile and across its faces.
        engine
            .plan_region(
                0,
                0,
                IntBox::new(IntVect::new(1, 3, 1), IntVect::new(5, 6, 2)),
            )
            .unwrap(),
        engine.plan_plane(0, 0, 1, 5).unwrap(),
        engine.plan_roi(0, domain, LevelSelect::All).unwrap(),
    ];
    for plan in &probes {
        let ctx = format!("{:?}", plan.regions());
        let (pasted, counts) = check_pieces(&engine, plan, &units, &ctx);
        assert!(counts[0] > 1, "{ctx}");
        let answered = engine.answer(plan).unwrap();
        assert_eq!(pasted, bits(&answered), "{ctx}");
        assert_eq!(pasted, reference(&pf, 0, &answered), "{ctx}");
    }
    std::fs::remove_file(&path).ok();
}
