//! A restart oracle that shares no code with the placed restart.
//!
//! `read_amric_hierarchy` reconstructs every unit where the fabs hold it;
//! before that it decoded each chunk to owned units and scattered them.
//! The old path is rebuilt here from public parts only —
//! `read_plotfile_meta`, `read_chunk_raw`, `decompress_field_units` (for
//! a temporal chain, `decompress_field_units_into` given the oracle's own
//! decoded units of the previous link), `scatter_units` — and the two
//! restarts must agree bit for bit, cell for cell, on every configuration
//! a plotfile can hold.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amric::config::{AmricConfig, BoundPolicy, MergePolicy};
use amric::pipeline::{decompress_field_units, decompress_field_units_into, no_reference};
use amric::preprocess::scatter_units;
use amric::reader::{read_amric_from, read_amric_hierarchy, read_plotfile_meta, Plotfile};
use amric::temporal::{read_temporal_meta, TemporalSession};
use amric::writer::{field_dataset, write_amric};
use h5lite::{H5Reader, H5Writer};
use std::collections::HashMap;
use std::sync::Arc;
use sz_codec::prelude::*;

/// The restart as it was: every stored chunk decoded to owned units by
/// `decode(level, rank, field, bytes)`, then scattered into fresh fabs.
fn scattered_restart(
    r: &H5Reader,
    mut decode: impl FnMut(usize, usize, usize, &[u8]) -> Vec<Buffer3>,
) -> Vec<MultiFab> {
    let meta = read_plotfile_meta(r).expect("metadata");
    let plans = meta.unit_plans();
    let mut levels: Vec<MultiFab> = meta
        .levels
        .iter()
        .map(|l| MultiFab::new(l.boxes.clone(), l.owners.clone(), meta.field_names.clone()))
        .collect();
    for (l, level) in levels.iter_mut().enumerate() {
        for f in 0..meta.field_names.len() {
            let name = field_dataset(l, f);
            let stored = r.meta(&name).expect("dataset").chunks.len();
            for (rank, plan) in plans[l].iter().enumerate().take(stored) {
                let raw = r.read_chunk_raw(&name, rank).expect("chunk");
                scatter_units(level, plan, f, &decode(l, rank, f, &raw));
            }
        }
    }
    levels
}

fn assert_same_restart(pf: &Plotfile, reference: &[MultiFab], what: &str) -> u64 {
    assert_eq!(pf.levels.len(), reference.len(), "{what}: level count");
    let mut nonzero = 0;
    for (l, (got, want)) in pf.levels.iter().zip(reference).enumerate() {
        assert_eq!(got.box_array(), want.box_array(), "{what}: level {l} grids");
        for (bi, fab) in want.iter() {
            let placed = got.fab(bi).data();
            assert_eq!(placed.len(), fab.data().len(), "{what}: level {l} box {bi}");
            for (at, (a, b)) in placed.iter().zip(fab.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{what}: level {l} box {bi} value {at}: placed {a}, scattered {b}"
                );
                nonzero += u64::from(*a != 0.0);
            }
        }
    }
    nonzero
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("amric-restart-{}-{name}.h5l", std::process::id()));
    p
}

/// Write `h` under `cfg`, restart it both ways, compare.
fn check(h: &AmrHierarchy, cfg: &AmricConfig, bf: i64, what: &str) {
    let path = tmp(&what.replace([' ', ',', '/'], "-"));
    write_amric(&path, h, cfg, bf).unwrap_or_else(|e| panic!("{what}: write: {e}"));
    let pf = read_amric_hierarchy(&path).unwrap_or_else(|e| panic!("{what}: restart: {e}"));
    let reader = H5Reader::open(&path).expect("open");
    let reference = scattered_restart(&reader, |_, _, _, raw| {
        decompress_field_units(raw).unwrap_or_else(|e| panic!("{what}: decode: {e}"))
    });
    std::fs::remove_file(&path).ok();
    let nonzero = assert_same_restart(&pf, &reference, what);
    assert!(
        nonzero > 1000,
        "{what}: only {nonzero} nonzero cells compared"
    );
}

fn nyx(nranks: usize, seed: u64) -> AmrHierarchy {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    build_hierarchy(&NyxScenario::new(seed), &cfg, 0.0)
}

fn configs() -> Vec<(&'static str, AmricConfig)> {
    let adaptive = BoundPolicy::GradientAdaptive {
        tight: 1e-4,
        loose: 1e-2,
    };
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
        (
            "gradient-adaptive",
            AmricConfig::lr(1e-3).with_bound_policy(adaptive),
        ),
    ]
}

#[test]
fn placed_restart_equals_decode_then_scatter() {
    for nranks in [1usize, 2, 3] {
        let h = nyx(nranks, 90 + nranks as u64);
        for (tag, cfg) in configs() {
            for redundancy in [true, false] {
                let cfg = cfg.with_remove_redundancy(redundancy);
                let what = format!("{tag}, {nranks} ranks, redundancy removal {redundancy}");
                check(&h, &cfg, 8, &what);
            }
        }
    }
}

/// Two levels over an `nx × ny × nz` coarse domain in 8-cell grids, with
/// `fine` as the fine grids.
fn two_levels((nx, ny, nz): (i64, i64, i64), fine: BoxArray, nranks: usize) -> AmrHierarchy {
    let domain = IntBox::from_extents(nx, ny, nz);
    let mut h = AmrHierarchy::new(domain, 8, nranks, vec!["rho".into(), "T".into()]);
    h.push_level(fine, 2, nranks);
    h.fill_field_physical(0, |x, y, z| (6.0 * x).sin() + y * z + 1.5);
    h.fill_field_physical(1, |x, y, z| (9.0 * z).cos() * (1.0 + x) - y);
    h
}

#[test]
fn aligned_non_cubic_domain_restarts_alike() {
    // 20 = 5·4 and 12 = 3·4: clipped grids, every coarse unit still a cube.
    let fine = BoxArray::new(vec![IntBox::from_extents(16, 16, 16)]);
    let h = two_levels((20, 16, 12), fine, 2);
    for (tag, cfg) in configs() {
        check(&h, &cfg, 8, &format!("20x16x12, {tag}"));
    }
}

#[test]
fn a_level_that_stores_no_chunks_restarts_alike() {
    // The fine level covers the whole coarse domain: with redundancy
    // removal no rank keeps a coarse cell and level 0 stores no chunks.
    let fine = BoxArray::decompose(IntBox::from_extents(32, 32, 32), 16);
    let h = two_levels((16, 16, 16), fine, 2);
    for (tag, cfg) in configs() {
        let path = tmp(&format!("chunkless-{tag}"));
        write_amric(&path, &h, &cfg, 8).unwrap();
        let stored = H5Reader::open(&path).unwrap();
        assert!(stored.meta(&field_dataset(0, 0)).unwrap().chunks.is_empty());
        std::fs::remove_file(&path).ok();
        check(&h, &cfg, 8, &format!("chunk-less level 0, {tag}"));
    }
}

/// Write `snapshots` as one temporal chain and restart every link both
/// ways; returns how many links recorded a reference.
fn check_temporal_chain(
    snapshots: impl Iterator<Item = AmrHierarchy>,
    bf: i64,
    what: &str,
) -> usize {
    let mut session = TemporalSession::new(AmricConfig::lr(1e-3), bf);
    let mut restart: Option<Plotfile> = None;
    // The oracle's own reference chain: decoded units per stream, and the
    // id of the snapshot they belong to.
    type Kept = HashMap<(usize, usize, usize), Arc<Vec<Buffer3>>>;
    let mut prev: (u64, Kept) = (0, HashMap::new());
    let mut deltas = 0;
    for (step, h) in snapshots.enumerate() {
        let (w, mem) = H5Writer::in_memory();
        session.write_to(Arc::new(w), &h).unwrap();
        let reader = H5Reader::from_storage(Box::new(mem)).unwrap();
        let tmeta = read_temporal_meta(&reader).unwrap().expect("linkage");
        deltas += usize::from(tmeta.reference_id.is_some());
        let named = tmeta.reference_id.and(restart.as_ref());
        let pf = read_amric_from(&reader, named).unwrap();
        let mut kept = HashMap::new();
        let reference = scattered_restart(&reader, |l, rank, f, raw| {
            let mut units = Vec::new();
            let mut source = || match prev.1.get(&(l, rank, f)) {
                Some(units) => Ok((prev.0, Arc::clone(units))),
                None => no_reference(),
            };
            decompress_field_units_into(raw, &mut units, &mut source).expect("temporal decode");
            kept.insert((l, rank, f), Arc::new(units.clone()));
            units
        });
        let nonzero = assert_same_restart(&pf, &reference, &format!("{what}, step {step}"));
        assert!(
            nonzero > 1000,
            "{what}, step {step}: {nonzero} nonzero cells"
        );
        (restart, prev) = (Some(pf), (tmeta.snapshot_id, kept));
    }
    deltas
}

#[test]
fn temporal_chains_restart_alike() {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    let scenario = NyxScenario::new(11);
    let series = TimeSeries::new(&scenario, cfg, 0.02, 3).map(|(_, _, h)| h);
    let deltas = check_temporal_chain(series, 8, "nyx series");
    assert_eq!(deltas, 2, "snapshots 2 and 3 must delta-code");
    // A chain whose level 0 stores no chunks: level 1 still delta-codes
    // from one link to the next.
    let covered = || {
        let fine = BoxArray::decompose(IntBox::from_extents(32, 32, 32), 16);
        two_levels((16, 16, 16), fine, 2)
    };
    let deltas = check_temporal_chain((0..3).map(|_| covered()), 8, "chunk-less level 0");
    assert_eq!(deltas, 2);
}
