//! A restart oracle that shares no code with the placed restart.
//!
//! `QueryEngine::restart` (`amr_query::read_amric_hierarchy` for a path)
//! reconstructs every unit where the fabs hold it; before that the
//! restart decoded each chunk to owned units and scattered them.
//! The old path is rebuilt here from public parts only —
//! `read_plotfile_meta`, `read_chunk_raw`, `decompress_field_units` (for
//! a temporal chain, `decompress_field_units_into` given the oracle's own
//! decoded units of the previous link), `scatter_units` — and the two
//! restarts must agree bit for bit, cell for cell, on every configuration
//! a plotfile can hold.

mod common;

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::{read_amric_hierarchy, QueryEngine, QueryError};
use amric::config::{AmricConfig, BoundPolicy, MergePolicy};
use amric::pipeline::{decompress_field_units, decompress_field_units_into, no_reference};
use amric::preprocess::scatter_units;
use amric::reader::{read_plotfile_meta, verify_against, FieldVerification, Plotfile};
use amric::temporal::TemporalSession;
use amric::writer::{field_dataset, write_amric};
use common::{chain_engines, linkage, reader};
use h5lite::{H5Error, H5Reader, H5Writer, MemStorage};
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
    let by_reader = amric::reader::read_amric_hierarchy(&path)
        .unwrap_or_else(|e| panic!("{what}: restart by the reader path: {e}"));
    let reader = H5Reader::open(&path).expect("open");
    let reference = scattered_restart(&reader, |_, _, _, raw| {
        decompress_field_units(raw).unwrap_or_else(|e| panic!("{what}: decode: {e}"))
    });
    std::fs::remove_file(&path).ok();
    assert_same_restart(&by_reader, &reference, &format!("{what}, reader path"));
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

/// Write `snapshots` as one temporal chain into memory.
fn write_chain(snapshots: impl Iterator<Item = AmrHierarchy>, bf: i64) -> Vec<MemStorage> {
    let mut session = TemporalSession::new(AmricConfig::lr(1e-3), bf);
    snapshots
        .map(|h| {
            let (w, mem) = H5Writer::in_memory();
            session.write_to(Arc::new(w), &h).unwrap();
            mem
        })
        .collect()
}

/// The oracle's restart of every link of a chain: each stream decoded to
/// owned units given the oracle's own decoded units of the previous link,
/// then scattered.
fn oracle_chain(images: &[MemStorage]) -> Vec<Vec<MultiFab>> {
    // The oracle's own reference chain: decoded units per stream, and the
    // id of the snapshot they belong to.
    type Kept = HashMap<(usize, usize, usize), Arc<Vec<Buffer3>>>;
    let mut prev: (u64, Kept) = (0, HashMap::new());
    let mut chain = Vec::new();
    for image in images {
        let reader = reader(image);
        let tmeta = linkage(image);
        let mut kept = HashMap::new();
        chain.push(scattered_restart(&reader, |l, rank, f, raw| {
            let mut units = Vec::new();
            let mut source = || match prev.1.get(&(l, rank, f)) {
                Some(units) => Ok((prev.0, Arc::clone(units))),
                None => no_reference(),
            };
            decompress_field_units_into(raw, &mut units, &mut source).expect("temporal decode");
            kept.insert((l, rank, f), Arc::new(units.clone()));
            units
        }));
        prev = (tmeta.snapshot_id, kept);
    }
    chain
}

/// `n` snapshots of a two-level Nyx series.
fn nyx_series(n: usize) -> impl Iterator<Item = AmrHierarchy> {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    let steps: Vec<_> = TimeSeries::new(&NyxScenario::new(11), cfg, 0.02, n).collect();
    steps.into_iter().map(|(_, _, h)| h)
}

/// Write `snapshots` as one temporal chain and restart every link both
/// ways; returns how many links recorded a reference.
fn check_temporal_chain(
    snapshots: impl Iterator<Item = AmrHierarchy>,
    bf: i64,
    what: &str,
) -> usize {
    let images = write_chain(snapshots, bf);
    let oracle = oracle_chain(&images);
    let engines = chain_engines(&images);
    let mut deltas = 0;
    for (step, (engine, reference)) in engines.iter().zip(&oracle).enumerate() {
        deltas += usize::from(linkage(&images[step]).reference_id.is_some());
        let pf = engine.restart().unwrap();
        let nonzero = assert_same_restart(&pf, reference, &format!("{what}, step {step}"));
        assert!(
            nonzero > 1000,
            "{what}, step {step}: {nonzero} nonzero cells"
        );
    }
    deltas
}

#[test]
fn temporal_chains_restart_alike() {
    let series = nyx_series(3);
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

#[test]
fn a_chain_restart_decodes_at_most_depth_plus_one_chunks_per_chunk() {
    let series = nyx_series(3);
    let images = write_chain(series, 8);
    let oracle = oracle_chain(&images);
    // A reference the file does not name is refused before any chunk of
    // either file is read.
    let open = |t: usize| QueryEngine::from_reader(reader(&images[t])).unwrap();
    let wrong = Arc::new(open(0));
    match open(2).with_reference(Arc::clone(&wrong)) {
        Err(QueryError::BadQuery(_)) => {}
        Err(e) => panic!("wrong error {e:?}"),
        Ok(_) => panic!("snapshot 1 accepted as the reference of snapshot 3"),
    }
    let stats = wrong.stats();
    assert_eq!((stats.read_bytes, stats.chunks_decoded), (0, 0));

    let engines = chain_engines(&images);
    let decoded = || -> u64 { engines.iter().map(|e| e.stats().chunks_decoded).sum() };
    for (depth, (engine, reference)) in engines.iter().zip(&oracle).enumerate() {
        let nfields = engine.meta().field_names.len();
        let per_restart: usize = (0..engine.meta().num_levels())
            .map(|l| engine.chunk_entries(l).unwrap().len() * nfields)
            .sum();
        let before = decoded();
        let pf = engine.restart().unwrap();
        let spent = decoded() - before;
        assert_same_restart(&pf, reference, &format!("depth {depth}"));
        let (least, most) = (per_restart as u64, ((depth + 1) * per_restart) as u64);
        assert!(
            (least..=most).contains(&spent),
            "depth {depth}: {spent} chunks decoded for a {per_restart}-chunk restart"
        );
        assert_eq!(depth > 0, spent > least, "depth {depth}: {spent} chunks");
    }
}

#[test]
fn the_reader_path_restarts_a_keyframe_and_refuses_a_delta() {
    // `amric::reader::read_amric_hierarchy` is the same restart with no
    // reference: a keyframe restarts alike, and the first delta chunk of
    // the next snapshot is a missing reference.
    let images = write_chain(nyx_series(2), 8);
    let oracle = oracle_chain(&images);
    let path = tmp("reader-path");
    std::fs::write(&path, images[0].to_bytes()).unwrap();
    let keyframe = amric::reader::read_amric_hierarchy(&path).unwrap();
    assert_same_restart(&keyframe, &oracle[0], "keyframe by the reader path");
    std::fs::write(&path, images[1].to_bytes()).unwrap();
    let err = amric::reader::read_amric_hierarchy(&path).err();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(err, Some(H5Error::Codec(CodecError::BadParameter { .. }))),
        "{err:?}"
    );
}

/// The AMRIC round trip: every field of a written hierarchy restarts
/// within its bound.
fn roundtrip(cfg: &AmricConfig, seed: u64) -> Vec<FieldVerification> {
    let h = nyx(2, seed);
    let path = tmp(&format!("roundtrip-{seed}"));
    write_amric(&path, &h, cfg, 8).unwrap();
    let pf = read_amric_hierarchy(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(pf.field_names.len(), 6);
    assert_eq!(pf.levels.len(), 2);
    let checks = verify_against(&pf, &h, 1e-3);
    for c in &checks {
        assert!(c.bound_ok, "field {} violates bound", c.field);
    }
    checks
}

#[test]
fn amric_roundtrip_respects_bounds() {
    for c in roundtrip(&AmricConfig::lr(1e-3), 31) {
        let psnr = c.stats.psnr();
        assert!(psnr > 40.0, "field {} PSNR {psnr}", c.field);
    }
}

#[test]
fn amric_interp_roundtrip() {
    roundtrip(&AmricConfig::interp(1e-3), 32);
}
