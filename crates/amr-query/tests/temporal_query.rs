//! Temporal snapshots are plotfiles: a `TemporalSession` chain, on both
//! regrid schedules, answers ROI, plane, point and `pieces` queries
//! bitwise equal to the chain restart (`QueryEngine::restart` over a
//! separate chain of engines) on every snapshot, and every stored cell is
//! within the error bound. A delta chunk's reference comes through the reference
//! engine's cache, so a cold ROI at chain depth d decodes at most d + 1
//! chunks per touched chunk; a delta engine without its reference fails
//! typed, and a wrong reference is refused before any chunk is read.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::prelude::*;
use amric::config::AmricConfig;
use amric::pipeline::stream_layout;
use amric::reader::{verify_against, Plotfile};
use amric::temporal::{read_temporal_meta, TemporalSession};
use h5lite::{H5Reader, H5Writer, MemStorage};
use std::sync::Arc;
use sz_codec::codec::CodecId;
use sz_codec::CodecError;

const REL_EB: f64 = 1e-3;
const STEPS: usize = 6;

/// One written chain: the hierarchies and the container images.
struct Chain {
    hierarchies: Vec<AmrHierarchy>,
    images: Vec<MemStorage>,
}

impl Chain {
    fn write(
        scenario: &dyn Scenario,
        run: AmrRunConfig,
        cfg: AmricConfig,
        bf: i64,
        dt: f64,
    ) -> Self {
        let mut session = TemporalSession::new(cfg, bf);
        let (mut hierarchies, mut images) = (Vec::new(), Vec::new());
        for (_, _, h) in TimeSeries::new(scenario, run, dt, STEPS) {
            let (w, mem) = H5Writer::in_memory();
            session.write_to(Arc::new(w), &h).unwrap();
            hierarchies.push(h);
            images.push(mem);
        }
        Chain {
            hierarchies,
            images,
        }
    }

    fn reader(&self, t: usize) -> H5Reader {
        H5Reader::from_storage(Box::new(self.images[t].clone())).unwrap()
    }

    /// Restart every snapshot through its own cold chain of engines.
    fn restart(&self) -> Vec<Plotfile> {
        let engines = self.engines();
        engines.iter().map(|e| e.restart().unwrap()).collect()
    }

    /// Fresh (cold) engines over the chain, each holding the one before.
    fn engines(&self) -> Vec<Arc<QueryEngine>> {
        let mut engines: Vec<Arc<QueryEngine>> = Vec::new();
        for t in 0..self.images.len() {
            let mut engine = QueryEngine::from_reader(self.reader(t)).unwrap();
            let linkage = read_temporal_meta(&self.reader(t)).unwrap().unwrap();
            if linkage.reference_id.is_some() {
                let reference = Arc::clone(engines.last().unwrap());
                engine = engine.with_reference(reference).unwrap();
            }
            engines.push(Arc::new(engine));
        }
        engines
    }
}

/// Stable Nyx under SZ_L/R: the hierarchy holds still and most chunks
/// ship delta streams.
fn stable() -> Chain {
    let run = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    Chain::write(&NyxScenario::new(11), run, AmricConfig::lr(REL_EB), 8, 0.02)
}

/// Regridding WarpX under SZ_Interp: the fine level relocates every step,
/// and units without a reference go to a nested SZ_Interp stream.
fn regrid() -> Chain {
    let run = AmrRunConfig {
        coarse_dims: (8, 8, 64),
        max_grid_size: 16,
        blocking_factor: 4,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.03,
        grid_eff: 0.7,
    };
    Chain::write(
        &WarpXScenario::new(4),
        run,
        AmricConfig::interp(REL_EB),
        4,
        0.4,
    )
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `region` of one level of the restart, 0 where no box holds a cell.
fn restart_slice(pf: &Plotfile, level: usize, region: &IntBox, field: usize) -> Vec<u64> {
    let at = |p: IntVect| {
        pf.levels[level]
            .value_at(&p, field)
            .unwrap_or(0.0)
            .to_bits()
    };
    region.iter_points().map(at).collect()
}

/// The restart's answer to a point sample: the finest level whose stored
/// units hold the cell.
fn restart_point(pf: &Plotfile, p: IntVect) -> Option<(usize, u64)> {
    let finest = pf.levels.len() - 1;
    let factor = |l: usize| -> i64 {
        (l..finest)
            .map(|k| pf.domains[k + 1].size().get(0) / pf.domains[k].size().get(0))
            .product()
    };
    (0..=finest).rev().find_map(|l| {
        let cell = p.coarsened(factor(l));
        let stored = pf.unit_plans[l]
            .iter()
            .flatten()
            .any(|u| u.region.contains(&cell));
        stored.then(|| (l, pf.levels[l].value_at(&cell, 0).unwrap().to_bits()))
    })
}

/// Every query face of every snapshot against the chain restart.
fn check_chain(tag: &str, chain: &Chain) {
    let restart = chain.restart();
    let engines = chain.engines();
    for (t, (pf, engine)) in restart.iter().zip(&engines).enumerate() {
        for c in verify_against(pf, &chain.hierarchies[t], REL_EB) {
            assert!(
                c.bound_ok,
                "{tag} t={t} field {} violates the bound",
                c.field
            );
        }
        let domain = pf.domains[0];
        let n = domain.size();
        let rois = [
            domain,
            IntBox::new(
                IntVect::new(1, 1, n.get(2) / 4),
                IntVect::new(n.get(0) - 2, n.get(1) / 2, n.get(2) / 2),
            ),
        ];
        for field in [0, 2] {
            for roi in rois {
                let view = engine.roi(field, roi, LevelSelect::All).unwrap();
                for lr in &view.levels {
                    let want = restart_slice(pf, lr.level, &lr.region, field);
                    assert_eq!(
                        bits(lr.data.data()),
                        want,
                        "{tag} t={t} roi level {}",
                        lr.level
                    );
                }
                // Pieces: every stored overlap, value for value.
                let plan = engine.plan_roi(field, roi, LevelSelect::All).unwrap();
                let mut pieces = 0;
                engine
                    .pieces(&plan, |piece| {
                        pieces += 1;
                        let level = plan.regions()[piece.region].0;
                        let x0 = piece.overlap.lo.get(0);
                        piece.for_each_row(|y, z, row| {
                            for (dx, v) in row.iter().enumerate() {
                                let p = IntVect::new(x0 + dx as i64, y, z);
                                let want = pf.levels[level].value_at(&p, field).unwrap();
                                assert_eq!(v.to_bits(), want.to_bits(), "{tag} t={t} piece");
                            }
                        });
                    })
                    .unwrap();
                assert!(pieces > 0, "{tag} t={t}: no piece");
            }
            for level in 0..pf.levels.len() {
                let d = pf.domains[level];
                let coord = (d.lo.get(2) + d.hi.get(2)) / 2;
                let plane = engine.plane_slice(field, level, 2, coord).unwrap();
                let want = restart_slice(pf, level, &plane.region, field);
                assert_eq!(bits(plane.data.data()), want, "{tag} t={t} plane {level}");
            }
        }
        let finest = *pf.domains.last().unwrap();
        for p in finest.iter_points().step_by(7) {
            let got = engine
                .point_sample(0, p)
                .unwrap()
                .map(|s| (s.level, s.value.to_bits()));
            assert_eq!(got, restart_point(pf, p), "{tag} t={t} point {p:?}");
        }
    }
}

#[test]
fn stable_chain_answers_equal_the_chain_restart() {
    let chain = stable();
    // The series is worth querying only if deltas ship.
    let last = chain.reader(STEPS - 1);
    let entries = &last
        .chunk_index("level_0/field_0")
        .unwrap()
        .unwrap()
        .entries;
    assert!(
        entries.iter().any(|e| e.reference.is_some()),
        "no delta chunk"
    );
    check_chain("stable/lr", &chain);
}

#[test]
fn regrid_chain_answers_equal_the_chain_restart() {
    let chain = regrid();
    // The keyframe's dense level 0 is stored where it lies (the placed
    // SZ_Interp mode), so the chain carries placed chunks too.
    let r = chain.reader(0);
    let name = amric::writer::field_dataset(0, 0);
    let modes: Vec<_> = (0..r.meta(&name).unwrap().chunks.len())
        .map(|c| {
            stream_layout(&r.read_chunk_raw(&name, c).unwrap())
                .unwrap()
                .mode
        })
        .collect();
    assert!(modes.contains(&"interp-placed"), "{modes:?}");
    check_chain("regrid/interp", &chain);
}

#[test]
fn a_cold_roi_decodes_at_most_depth_plus_one_chunks_per_touched_chunk() {
    let chain = stable();
    let engines = chain.engines();
    let last = engines.last().unwrap();
    let depth = STEPS - 1;
    let roi = IntBox::new(IntVect::new(2, 2, 2), IntVect::new(9, 9, 9));
    let touched = last
        .plan_roi(1, roi, LevelSelect::All)
        .unwrap()
        .cost()
        .chunks;
    assert!(touched > 0);
    last.roi(1, roi, LevelSelect::All).unwrap();
    let decoded: u64 = engines.iter().map(|e| e.stats().chunks_decoded).sum();
    assert!(
        decoded > touched as u64 && decoded <= ((depth + 1) * touched) as u64,
        "{decoded} chunks decoded for {touched} touched at depth {depth}"
    );
    // Warm: nothing more is decoded anywhere in the chain.
    last.roi(1, roi, LevelSelect::All).unwrap();
    let again: u64 = engines.iter().map(|e| e.stats().chunks_decoded).sum();
    assert_eq!(again, decoded);
}

#[test]
fn a_delta_engine_without_its_reference_is_a_typed_error() {
    let chain = stable();
    let engine = QueryEngine::from_reader(chain.reader(1)).unwrap();
    let domain = engine.meta().levels[0].domain;
    match engine.roi(0, domain, LevelSelect::All) {
        Err(QueryError::Codec(CodecError::BadParameter { .. })) => {}
        other => panic!("expected a typed missing-reference error, got {other:?}"),
    }
    // Its keyframe needs no reference.
    let keyframe = QueryEngine::from_reader(chain.reader(0)).unwrap();
    assert!(keyframe.roi(0, domain, LevelSelect::All).is_ok());
}

#[test]
fn a_wrong_reference_is_refused_before_any_chunk_is_read() {
    let chain = stable();
    let open = |t: usize| Arc::new(QueryEngine::from_reader(chain.reader(t)).unwrap());
    // Snapshot 3 references snapshot 2: snapshot 1, itself and a keyframe
    // engine given a reference are all refused.
    for (t, wrong) in [(2, 0), (2, 2), (0, 1)] {
        let reference = open(wrong);
        let engine = QueryEngine::from_reader(chain.reader(t)).unwrap();
        match engine.with_reference(Arc::clone(&reference)) {
            Err(QueryError::BadQuery(_)) => {}
            Err(e) => panic!("t={t}: wrong error {e:?}"),
            Ok(_) => panic!("t={t}: snapshot {} accepted as reference", wrong + 1),
        }
        let stats = reference.stats();
        assert_eq!((stats.read_bytes, stats.chunks_decoded), (0, 0));
    }
    // A plain plotfile is nobody's reference.
    let (w, mem) = H5Writer::in_memory();
    amric::writer::write_amric_to(
        Arc::new(w),
        &chain.hierarchies[0],
        &AmricConfig::lr(REL_EB),
        8,
    )
    .unwrap();
    let plain = H5Reader::from_storage(Box::new(mem)).unwrap();
    assert_eq!(read_temporal_meta(&plain).unwrap(), None);
    let plain = QueryEngine::from_reader(plain).unwrap();
    let engine = QueryEngine::from_reader(chain.reader(1)).unwrap();
    assert!(engine.with_reference(Arc::new(plain)).is_err());
}

#[test]
fn chunk_references_resolve_without_decoding() {
    let chain = stable();
    let engines = chain.engines();
    let pipeline = CodecId::AmricPipeline as u32;
    // First snapshot: a keyframe, no chunk references anything.
    for l in 0..engines[0].meta().num_levels() {
        for e in engines[0].chunk_entries(l).unwrap() {
            assert_eq!((e.codec_id, e.reference), (pipeline, None));
        }
    }
    // Second snapshot: its delta chunks name snapshot 1.
    let second = &engines[1];
    let mut saw_reference = false;
    for l in 0..second.meta().num_levels() {
        for (c, e) in second.chunk_entries(l).unwrap().iter().enumerate() {
            assert_eq!(e.codec_id, pipeline);
            assert_eq!(second.chunk_reference(l, c).unwrap(), e.reference);
            saw_reference |= e.reference == Some(1);
        }
    }
    assert!(
        saw_reference,
        "no chunk of snapshot 2 records its reference"
    );
    let stats: Vec<_> = engines.iter().map(|e| e.stats().chunks_decoded).collect();
    assert!(stats.iter().all(|&n| n == 0), "{stats:?}");
}

#[test]
fn out_of_range_lookups_are_typed_errors() {
    let engines = stable().engines();
    let e = &engines[0];
    assert!(e.chunk_entries(99).is_err());
    assert!(e.chunk_reference(0, 999).is_err());
}
