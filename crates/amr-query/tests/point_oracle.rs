//! A point-sample oracle that shares no code with the engine's lookup.
//!
//! `QueryEngine::point_sample` finds the unit that holds a cell by the
//! cell's tile key. The oracle here does what the engine used to: walk
//! `PlotfileMeta::unit_plan` of every rank, finest level first, until a
//! unit's region contains the cell, and read the value out of the full
//! decode. **Every** cell of the finest index space is sampled, so a unit
//! the table misplaces, a tile with more than one unit (unaligned
//! layouts), a rank that stored no chunk and cells no level holds are all
//! visited.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::prelude::*;
use amric::config::AmricConfig;
use amric::preprocess::UnitRef;
use amric::reader::{read_plotfile_meta, Plotfile, PlotfileMeta};
use amric::writer::{field_dataset, write_amric};
use common::write_unaligned_file;
use h5lite::prelude::*;
use std::sync::{Arc, Barrier};

#[allow(dead_code)] // shared with the suites that rewrite chunk indexes
mod common;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("amr-query-point-{}-{name}.h5l", std::process::id()));
    p
}

/// What a point sample must answer, found the slow way.
struct Oracle {
    meta: PlotfileMeta,
    /// `[level][rank]`, for the ranks that stored a chunk only.
    plans: Vec<Vec<Vec<UnitRef>>>,
    decoded: Plotfile,
}

impl Oracle {
    fn open(path: &std::path::Path) -> Oracle {
        let reader = H5Reader::open(path).expect("open");
        let meta = read_plotfile_meta(&reader).expect("metadata");
        let plans = (0..meta.num_levels())
            .map(|l| {
                let stored = reader.meta(&field_dataset(l, 0)).expect("dataset");
                (0..stored.chunks.len())
                    .map(|rank| meta.unit_plan(l, rank))
                    .collect()
            })
            .collect();
        let decoded = read_amric_hierarchy(path).expect("full decode");
        Oracle {
            meta,
            plans,
            decoded,
        }
    }

    /// The finest index space.
    fn finest_domain(&self) -> IntBox {
        self.meta.levels[self.meta.num_levels() - 1].domain
    }

    /// `(level, cell, value bits)` of the finest level with a unit over `p`.
    fn sample(&self, field: usize, p: IntVect) -> Option<(usize, IntVect, u64)> {
        let n = self.meta.num_levels();
        for l in (0..n).rev() {
            let cell = p.coarsened(self.meta.refine_factor(n - 1) / self.meta.refine_factor(l));
            for u in self.plans[l].iter().flatten() {
                if u.region.contains(&cell) {
                    let value = self.decoded.levels[l].fab(u.box_index).get(&cell, field);
                    return Some((l, cell, value.to_bits()));
                }
            }
        }
        None
    }
}

fn answer(engine: &QueryEngine, field: usize, p: IntVect) -> Option<(usize, IntVect, u64)> {
    let sample = engine.point_sample(field, p).expect("point sample");
    sample.map(|s| (s.level, s.cell, s.value.to_bits()))
}

/// Sample every cell of the finest index space (and a rim around it)
/// through `engine`; returns how many cells each level answered, `None`s
/// last.
fn check_every_cell(engine: &QueryEngine, oracle: &Oracle, field: usize, what: &str) -> Vec<u64> {
    let domain = oracle.finest_domain();
    let rim = IntBox::new(domain.lo - IntVect::ONE, domain.hi + IntVect::ONE);
    let mut answered = vec![0u64; oracle.meta.num_levels() + 1];
    for p in rim.iter_points() {
        let want = oracle.sample(field, p);
        assert_eq!(
            answer(engine, field, p),
            want,
            "{what}: field {field} at {p:?}"
        );
        assert!(domain.contains(&p) || want.is_none(), "{what}: {p:?}");
        answered[want.map_or(oracle.meta.num_levels(), |(l, ..)| l)] += 1;
    }
    answered
}

fn nyx(coarse: i64, num_levels: usize, nranks: usize, seed: u64) -> AmrHierarchy {
    let cfg = AmrRunConfig {
        coarse_dims: (coarse, coarse, coarse),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks,
        num_levels,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    build_hierarchy(&NyxScenario::new(seed), &cfg, 0.0)
}

#[test]
fn every_cell_of_written_hierarchies_samples_like_the_linear_scan() {
    // (coarse edge, levels, ranks, redundancy removal, config)
    let lr = AmricConfig::lr(1e-3);
    let cases = [
        (16, 2, 1, true, lr),
        (16, 2, 2, true, AmricConfig::interp(1e-3)),
        (16, 2, 3, false, lr),
        (8, 3, 1, true, lr),
        // One 8³ coarse box on three ranks: two of them plan nothing there.
        (8, 3, 3, true, lr),
        (16, 3, 2, true, lr),
    ];
    for (coarse, levels, nranks, redundancy, cfg) in cases {
        let what = format!("{coarse}³ coarse, {levels} levels, {nranks} ranks, {redundancy}");
        let h = nyx(coarse, levels, nranks, 300 + nranks as u64);
        assert_eq!(h.num_levels(), levels, "{what}: the scenario refined less");
        let path = tmp(&format!("w-{coarse}-{levels}-{nranks}"));
        write_amric(&path, &h, &cfg.with_remove_redundancy(redundancy), 8).unwrap();
        let oracle = Oracle::open(&path);
        let engine = QueryEngine::open(&path).unwrap();
        let answered = check_every_cell(&engine, &oracle, 0, &what);
        // A second field rides the same table.
        if levels == 2 {
            check_every_cell(&engine, &oracle, 4, &what);
        }
        std::fs::remove_file(&path).ok();
        // The finest level and a coarser one answer somewhere (on the 8³
        // domains the first fine level can cover level 0 whole, which then
        // stores no chunks and answers nothing); inside the domain nothing
        // is unheld, the rim around it always is.
        let finest = oracle.finest_domain();
        let rim = (finest.size() + IntVect::splat(2)).volume() - finest.num_cells();
        let answering = answered[..levels].iter().filter(|&&n| n > 0).count();
        assert!(
            answered[levels - 1] > 0 && answering >= 2,
            "{what}: {answered:?}"
        );
        assert_eq!(answered[levels], rim, "{what}: {answered:?}");
    }
}

#[test]
fn clipped_units_that_share_a_tile_sample_like_the_linear_scan() {
    let path = tmp("unaligned");
    write_unaligned_file(&path);
    let oracle = Oracle::open(&path);
    let engine = QueryEngine::open(&path).unwrap();
    let answered = check_every_cell(&engine, &oracle, 0, "unaligned plan");
    std::fs::remove_file(&path).ok();
    // 8×8×4 cells under the boxes; the 4×8×4 strip and the rim are unheld.
    assert_eq!(answered, [256, 14 * 10 * 6 - 256]);
    // The decode under it is the planted field, within the bound.
    let p = IntVect::new(3, 4, 2);
    let (_, _, bits) = oracle.sample(0, p).unwrap();
    let planted = (3 + 16 * 4 + 256 * 2) as f64 * 0.37 + 1.0;
    assert!((f64::from_bits(bits) - planted).abs() < 1.0, "{p:?}");
}

#[test]
fn four_concurrent_first_callers_build_one_table() {
    // The lookup table is built by the first point sample of a level, not
    // by `open`: four threads released together all make that first call.
    // `OnceLock` runs one of their builders; whichever it is, every thread
    // must see every cell answered as the linear scan answers it.
    let h = nyx(16, 2, 2, 400);
    let path = tmp("first-callers");
    write_amric(&path, &h, &AmricConfig::lr(1e-3), 8).unwrap();
    let oracle = Arc::new(Oracle::open(&path));
    for round in 0..3 {
        let engine = Arc::new(QueryEngine::open(&path).unwrap());
        let gate = Arc::new(Barrier::new(4));
        let callers: Vec<_> = (0..4)
            .map(|t| {
                let (engine, oracle, gate) = (engine.clone(), oracle.clone(), gate.clone());
                std::thread::spawn(move || {
                    gate.wait();
                    check_every_cell(
                        &engine,
                        &oracle,
                        t % 2,
                        &format!("round {round} caller {t}"),
                    )
                })
            })
            .collect();
        let answered: Vec<_> = callers.into_iter().map(|c| c.join().unwrap()).collect();
        assert!(answered.iter().all(|a| a == &answered[0]), "{answered:?}");
        let samples: u64 = answered[0].iter().sum();
        assert_eq!(engine.stats().point_queries, 4 * samples);
    }
    std::fs::remove_file(&path).ok();
}
