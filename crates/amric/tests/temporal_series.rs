//! Regrid-schedule property suite for the temporal session: whatever the
//! hierarchy does between snapshots — stays put, regrids heavily, grows a
//! level, collapses one — every snapshot must round-trip within the error
//! bound, and reference linkage must appear exactly where delta coding
//! actually happened.
//!
//! A snapshot restarts through `amr_query`: a chain is a list of engines,
//! each given the engine of the snapshot it names
//! (`QueryEngine::with_reference`), and `QueryEngine::restart` decodes it.

mod common;

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::{QueryEngine, QueryError};
use amric::prelude::*;
use amric::preprocess::region_dims;
use amric::writer::field_dataset;
use common::{chain_engines, linkage, reader};
use h5lite::{H5Reader, H5Writer, MemStorage};
use std::sync::Arc;
use sz_codec::codec::{expect_envelope, CodecId, FLAG_REFERENCED};
use sz_codec::prelude::*;

const REL_EB: f64 = 1e-3;

fn write_snapshot(session: &mut TemporalSession, h: &AmrHierarchy) -> MemStorage {
    let (w, mem) = H5Writer::in_memory();
    session.write_to(Arc::new(w), h).unwrap();
    mem
}

fn engine(image: &MemStorage) -> QueryEngine {
    QueryEngine::from_reader(reader(image)).unwrap()
}

/// Restart every snapshot of a chain through its engines.
fn restart_chain<'a>(images: impl IntoIterator<Item = &'a MemStorage>) -> Vec<Plotfile> {
    let engines = chain_engines(images);
    engines.iter().map(|e| e.restart().unwrap()).collect()
}

/// Restart the whole chain, checking the bound at every step.
fn verify_chain(series: &[(AmrHierarchy, MemStorage)], rel_eb: f64) {
    let chain = restart_chain(series.iter().map(|(_, image)| image));
    for (step, ((h, _), pf)) in series.iter().zip(&chain).enumerate() {
        for c in verify_against(pf, h, rel_eb) {
            assert!(
                c.bound_ok,
                "step {step} field {} violates the bound (max err {})",
                c.field, c.stats.max_abs_err
            );
        }
    }
}

fn series_cfg() -> AmrRunConfig {
    AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    }
}

/// Write `nsteps` snapshots of a Nyx series through `session`.
fn write_with(
    session: &mut TemporalSession,
    dt: f64,
    nsteps: usize,
) -> Vec<(AmrHierarchy, MemStorage)> {
    TimeSeries::new(&NyxScenario::new(11), series_cfg(), dt, nsteps)
        .map(|(_, _, h)| {
            let image = write_snapshot(session, &h);
            (h, image)
        })
        .collect()
}

fn write_series(dt: f64, nsteps: usize, rel_eb: f64) -> Vec<(AmrHierarchy, MemStorage)> {
    write_with(
        &mut TemporalSession::new(AmricConfig::lr(rel_eb), 8),
        dt,
        nsteps,
    )
}

/// Every field dataset's stored chunks, in name order.
fn field_chunks(r: &H5Reader) -> Vec<(String, Vec<Vec<u8>>)> {
    let names = r
        .dataset_names()
        .into_iter()
        .filter(|n| n.starts_with("level_"));
    names
        .map(|name| {
            let n = r.meta(name).unwrap().chunks.len();
            let chunks = (0..n).map(|i| r.read_chunk_raw(name, i).unwrap()).collect();
            (name.to_string(), chunks)
        })
        .collect()
}

/// The units of one `(level, rank)` chunk of `field` as a restart holds
/// them, in plan order.
fn restart_units(pf: &Plotfile, level: usize, rank: usize, field: usize) -> Vec<Buffer3> {
    let fabs = &pf.levels[level];
    let unit = |u: &UnitRef| {
        let values = fabs.fab(u.box_index).extract_region(&u.region, field);
        Buffer3::from_vec(region_dims(&u.region), values)
    };
    pf.unit_plans[level][rank].iter().map(unit).collect()
}

#[test]
fn stable_schedule_roundtrips_with_linkage() {
    let mut session = TemporalSession::new(AmricConfig::lr(REL_EB), 8);
    let series: Vec<_> = TimeSeries::new(&NyxScenario::new(11), series_cfg(), 0.02, 4)
        .map(|(_, _, h)| {
            let image = write_snapshot(&mut session, &h);
            (h, image)
        })
        .collect();
    // A slow dt keeps the hierarchy stable: every snapshot after the
    // first must actually link back.
    for (step, (_, image)) in series.iter().enumerate() {
        let meta = linkage(image);
        assert_eq!(meta.snapshot_id, step as u64 + 1);
        assert_eq!(meta.reference_id, (step > 0).then_some(step as u64));
    }
    verify_chain(&series, REL_EB);
}

#[test]
fn heavy_regrid_schedule_stays_within_bound() {
    // dt large enough that the fine level relocates substantially each
    // step — most units lose their reference and fall back spatially.
    let cfg = AmrRunConfig {
        coarse_dims: (8, 8, 64),
        max_grid_size: 16,
        blocking_factor: 4,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.03,
        grid_eff: 0.7,
    };
    let mut session = TemporalSession::new(AmricConfig::interp(REL_EB), 4);
    let series: Vec<_> = TimeSeries::new(&WarpXScenario::new(4), cfg, 0.4, 4)
        .map(|(_, _, h)| {
            let image = write_snapshot(&mut session, &h);
            (h, image)
        })
        .collect();
    let max_change = series
        .windows(2)
        .map(|w| regrid_change(&w[0].0, &w[1].0))
        .fold(0.0f64, f64::max);
    assert!(
        max_change > 0.2,
        "schedule too tame to exercise regridding (max change {max_change})"
    );
    verify_chain(&series, REL_EB);
}

#[test]
fn growing_hierarchy_codes_new_level_spatially() {
    // Snapshot 1 has one level, snapshot 2 refines a second into
    // existence: the new level has no reference plan and must be coded
    // spatially (its chunks record no reference), while the persistent
    // coarse level may still delta-code.
    let scenario = NyxScenario::new(11);
    let base = AmrRunConfig {
        num_levels: 1,
        ..series_cfg()
    };
    let h1 = build_hierarchy(&scenario, &base, 0.0);
    let h2 = build_hierarchy(&scenario, &series_cfg(), 0.02);
    let mut session = TemporalSession::new(AmricConfig::lr(REL_EB), 8);
    let r1 = write_snapshot(&mut session, &h1);
    let r2 = write_snapshot(&mut session, &h2);
    let second = reader(&r2);
    let fine_idx = second.chunk_index("level_1/field_0").unwrap().unwrap();
    assert!(
        fine_idx.entries.iter().all(|e| e.reference.is_none()),
        "a level that did not exist last snapshot cannot reference it"
    );
    verify_chain(&[(h1, r1), (h2, r2)], REL_EB);
}

#[test]
fn collapsing_hierarchy_roundtrips() {
    // Snapshot 2 drops the fine level entirely; retained state for the
    // vanished level must simply be ignored, and the survivors still
    // delta-code where their regions held still.
    let scenario = NyxScenario::new(11);
    let shallow = AmrRunConfig {
        num_levels: 1,
        ..series_cfg()
    };
    let h1 = build_hierarchy(&scenario, &series_cfg(), 0.0);
    let h2 = build_hierarchy(&scenario, &shallow, 0.01);
    let mut session = TemporalSession::new(AmricConfig::lr(REL_EB), 8);
    let r1 = write_snapshot(&mut session, &h1);
    let r2 = write_snapshot(&mut session, &h2);
    verify_chain(&[(h1, r1), (h2, r2)], REL_EB);
}

#[test]
fn skipping_a_snapshot_in_the_chain_is_rejected() {
    // Decoding snapshot 3 against snapshot 1 (operator dropped a file)
    // must fail typed before any chunk is read, not reconstruct from the
    // wrong base.
    let series = write_series(0.02, 3, REL_EB);
    let s1 = Arc::new(engine(&series[0].1));
    assert!(matches!(
        engine(&series[2].1).with_reference(Arc::clone(&s1)),
        Err(QueryError::BadQuery(_))
    ));
    assert_eq!(s1.stats().read_bytes, 0);
}

#[test]
fn series_roundtrip_respects_bounds() {
    let rel_eb = 1e-3;
    let series = write_series(0.02, 3, rel_eb);
    let chain = restart_chain(series.iter().map(|(_, image)| image));
    for (step, ((h, _), pf)) in series.iter().zip(&chain).enumerate() {
        for c in verify_against(pf, h, rel_eb) {
            assert!(c.bound_ok, "step {step} field {} violates bound", c.field);
        }
    }
}

#[test]
fn delta_file_without_reference_fails_typed() {
    let series = write_series(0.02, 2, 1e-3);
    let err = match engine(&series[1].1).restart() {
        Err(e) => e,
        Ok(_) => panic!("delta file must not decode without its reference"),
    };
    assert!(
        matches!(err, QueryError::Codec(CodecError::BadParameter { .. })),
        "{err:?}"
    );
    // A reference the file does not name is refused up front: the file
    // itself, and a plain plotfile with no linkage.
    let (w, mem) = H5Writer::in_memory();
    write_amric_to(Arc::new(w), &series[0].0, &AmricConfig::lr(1e-3), 8).unwrap();
    assert_eq!(read_temporal_meta(&reader(&mem)).unwrap(), None);
    for wrong in [&series[1].1, &mem] {
        let refused = engine(&series[1].1).with_reference(Arc::new(engine(wrong)));
        assert!(matches!(refused, Err(QueryError::BadQuery(_))));
    }
    // And a keyframe names no reference, so none is accepted.
    let keyframe = engine(&series[0].1);
    assert!(matches!(
        keyframe.with_reference(Arc::new(engine(&series[0].1))),
        Err(QueryError::BadQuery(_))
    ));
}

#[test]
fn session_reset_starts_fresh_chain() {
    let mut session = TemporalSession::new(AmricConfig::lr(1e-3), 8);
    let h = build_hierarchy(&NyxScenario::new(11), &series_cfg(), 0.0);
    write_snapshot(&mut session, &h);
    session.reset_reference();
    let r2 = write_snapshot(&mut session, &h);
    assert_eq!(linkage(&r2).reference_id, None);
    // Self-contained: decodes with no prior state.
    let pf = engine(&r2).restart().unwrap();
    for c in verify_against(&pf, &h, 1e-3) {
        assert!(c.bound_ok);
    }
}

#[test]
fn keyframe_interval_resets_chain_automatically() {
    // Interval 2: snapshots 1, 3, 5, … are keyframes. The chain
    // contract for a keyframe is total — `meta/temporal` records no
    // reference, every chunk index entry carries none, and the file
    // decodes with no prior state.
    let mut session = TemporalSession::new(AmricConfig::lr(1e-3), 8).with_keyframe_interval(2);
    let series = write_with(&mut session, 0.02, 5);
    let refs: Vec<Option<u64>> = series
        .iter()
        .map(|(_, image)| linkage(image).reference_id)
        .collect();
    assert_eq!(refs, vec![None, Some(1), None, Some(3), None]);
    for keyframe in [2usize, 4] {
        let (h, image) = &series[keyframe];
        let r = reader(image);
        let meta = read_plotfile_meta(&r).unwrap();
        for l in 0..meta.num_levels() {
            for f in 0..meta.field_names.len() {
                let idx = r.chunk_index(&field_dataset(l, f)).unwrap().unwrap();
                for e in &idx.entries {
                    assert_eq!(e.reference, None, "keyframe chunk carries a reference");
                }
            }
        }
        let pf = engine(image).restart().unwrap();
        for c in verify_against(&pf, h, 1e-3) {
            assert!(c.bound_ok);
        }
    }
    // A delta snapshot in between still needs its reference.
    assert!(engine(&series[1].1).restart().is_err());
}

#[test]
fn every_stream_decodes_given_its_reference() {
    // Every stored stream decodes bitwise given the referenced
    // snapshot's chunk — decoded here, by the stream decoder alone —
    // exactly as the chain restart places it, and a chunk that shipped a
    // delta stream is the one its index says.
    let series = write_series(0.02, 2, 1e-3);
    let chain = restart_chain(series.iter().map(|(_, image)| image));
    let (first, r) = (reader(&series[0].1), reader(&series[1].1));
    let meta = read_plotfile_meta(&r).unwrap();
    let mut deltas = 0;
    for l in 0..meta.num_levels() {
        let entries = &r
            .chunk_index(&field_dataset(l, 0))
            .unwrap()
            .unwrap()
            .entries;
        for f in 0..meta.field_names.len() {
            let name = field_dataset(l, f);
            for (rank, entry) in entries.iter().enumerate() {
                let raw = r.read_chunk_raw(&name, rank).unwrap();
                let env = expect_envelope(&raw, CodecId::AmricPipeline, 1).unwrap();
                let delta = env.flags & FLAG_REFERENCED != 0;
                deltas += usize::from(delta);
                if delta {
                    assert_eq!(entry.reference, Some(1));
                }
                let keyframe = first.read_chunk_raw(&name, rank).unwrap();
                let reference = Arc::new(decompress_field_units(&keyframe).unwrap());
                assert_eq!(*reference, restart_units(&chain[0], l, rank, f));
                let mut units = Vec::new();
                decompress_field_units_into(&raw, &mut units, &mut || {
                    Ok((1, Arc::clone(&reference)))
                })
                .unwrap();
                assert_eq!(units, restart_units(&chain[1], l, rank, f));
            }
        }
    }
    assert!(
        deltas > 0,
        "no chunk of a stable series shipped a delta stream"
    );
}

#[test]
fn gradient_adaptive_session_writes_no_delta_stream() {
    let policy = BoundPolicy::GradientAdaptive {
        tight: 1e-4,
        loose: 1e-2,
    };
    let mut session = TemporalSession::new(AmricConfig::lr(1e-3).with_bound_policy(policy), 8);
    let series = write_with(&mut session, 0.02, 3);
    for (step, (_, image)) in series.iter().enumerate() {
        assert_eq!(linkage(image).reference_id, None, "step {step}");
        for (name, chunks) in field_chunks(&reader(image)) {
            for raw in chunks {
                let env = expect_envelope(&raw, CodecId::AmricPipeline, 1).unwrap();
                assert_eq!(env.flags & FLAG_REFERENCED, 0, "step {step} {name}");
            }
        }
        assert!(engine(image).restart().is_ok());
    }
}

#[test]
fn later_snapshots_record_reference_linkage() {
    let series = write_series(0.02, 2, 1e-3);
    let first = linkage(&series[0].1);
    assert_eq!((first.snapshot_id, first.reference_id), (1, None));
    let second = linkage(&series[1].1);
    assert_eq!((second.snapshot_id, second.reference_id), (2, Some(1)));
    // The chunk index carries the reference per chunk that shipped a
    // delta stream, under the pipeline's one codec id.
    let second_reader = reader(&series[1].1);
    let idx = second_reader
        .chunk_index("level_0/field_0")
        .unwrap()
        .unwrap();
    assert!(!idx.entries.is_empty());
    assert!(
        idx.entries.iter().any(|e| e.reference == Some(1)),
        "no chunk records its reference: {:?}",
        idx.entries
    );
    let pipeline = CodecId::AmricPipeline as u32;
    assert!(idx.entries.iter().all(|e| e.codec_id == pipeline));
    // A plain plotfile has no linkage at all.
    let (w, mem) = H5Writer::in_memory();
    write_amric_to(Arc::new(w), &series[0].0, &AmricConfig::lr(1e-3), 8).unwrap();
    let plain = H5Reader::from_storage(Box::new(mem)).unwrap();
    assert_eq!(read_temporal_meta(&plain).unwrap(), None);
}

#[test]
fn keyframe_interval_one_disables_deltas_and_manual_reset_restarts_count() {
    let mut every = TemporalSession::new(AmricConfig::lr(1e-3), 8).with_keyframe_interval(1);
    for (_, r) in write_with(&mut every, 0.02, 3) {
        assert_eq!(linkage(&r).reference_id, None);
    }
    // Manual reset restarts the interval: with interval 3, snapshots
    // 1 and 4 would be keyframes, but a reset before #3 makes the
    // cadence 1, 3, 6.
    let mut session = TemporalSession::new(AmricConfig::lr(1e-3), 8).with_keyframe_interval(3);
    let mut refs = Vec::new();
    for (i, (_, _, h)) in TimeSeries::new(&NyxScenario::new(11), series_cfg(), 0.02, 6).enumerate()
    {
        if i == 2 {
            session.reset_reference();
        }
        let image = write_snapshot(&mut session, &h);
        refs.push(linkage(&image).reference_id);
    }
    assert_eq!(
        refs,
        vec![None, Some(1), None, Some(3), Some(4), None],
        "manual reset must restart the keyframe count"
    );
}

#[test]
fn keyframe_field_datasets_equal_the_plain_writer() {
    let h = build_hierarchy(&NyxScenario::new(11), &series_cfg(), 0.0);
    for cfg in [AmricConfig::lr(1e-3), AmricConfig::interp(1e-3)] {
        let (w, mem) = H5Writer::in_memory();
        let plain = write_amric_to(Arc::new(w), &h, &cfg, 8).unwrap();
        let plain_reader = H5Reader::from_storage(Box::new(mem)).unwrap();
        let (w, mem) = H5Writer::in_memory();
        let keyframe = TemporalSession::new(cfg, 8)
            .write_to(Arc::new(w), &h)
            .unwrap();
        let key_reader = H5Reader::from_storage(Box::new(mem)).unwrap();
        assert_eq!(plain.stored_bytes, keyframe.stored_bytes);
        assert_eq!(field_chunks(&plain_reader), field_chunks(&key_reader));
        for name in plain_reader
            .dataset_names()
            .into_iter()
            .filter(|n| n.starts_with("level_"))
        {
            assert_eq!(
                plain_reader.chunk_index(name).unwrap(),
                key_reader.chunk_index(name).unwrap()
            );
        }
    }
}

#[test]
fn session_containers_do_not_depend_on_workers() {
    // One rank: the whole container is byte-identical. Two ranks race
    // for chunk offsets, so there the stored chunks are compared.
    for nranks in [1, 2] {
        let run = AmrRunConfig {
            nranks,
            ..series_cfg()
        };
        let images = |workers: usize| {
            let cfg = AmricConfig::lr(1e-3).with_workers(workers);
            let mut session = TemporalSession::new(cfg, 8);
            TimeSeries::new(&NyxScenario::new(11), run, 0.02, 3)
                .map(|(_, _, h)| {
                    let (w, mem) = H5Writer::in_memory();
                    session.write_to(Arc::new(w), &h).unwrap();
                    let r = H5Reader::from_storage(Box::new(mem.clone())).unwrap();
                    (mem.to_bytes(), field_chunks(&r))
                })
                .collect::<Vec<_>>()
        };
        let serial = images(1);
        for workers in [2, 4] {
            for (t, (a, b)) in serial.iter().zip(images(workers)).enumerate() {
                let what = format!("nranks={nranks} workers={workers} snapshot {t}");
                assert!(a.1 == b.1, "{what}: chunks differ");
                assert!(nranks > 1 || a.0 == b.0, "{what}: containers differ");
            }
        }
    }
}
