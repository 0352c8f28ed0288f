//! Regrid-schedule property suite for the temporal session: whatever the
//! hierarchy does between snapshots — stays put, regrids heavily, grows a
//! level, collapses one — every snapshot must round-trip within the error
//! bound, and reference linkage must appear exactly where delta coding
//! actually happened.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amric::prelude::*;
use amric::reader::Plotfile;
use h5lite::{H5Reader, H5Writer};
use std::sync::Arc;

const REL_EB: f64 = 1e-3;

fn write_snapshot(session: &mut TemporalSession, h: &AmrHierarchy) -> H5Reader {
    let (w, mem) = H5Writer::in_memory();
    session.write_to(Arc::new(w), h).unwrap();
    H5Reader::from_storage(Box::new(mem)).unwrap()
}

fn linkage(r: &H5Reader) -> TemporalMeta {
    read_temporal_meta(r).unwrap().expect("a temporal snapshot")
}

/// Decode the whole chain in order, each snapshot given the one before
/// it when it names one, checking the bound at every step.
fn verify_chain(series: &[(AmrHierarchy, H5Reader)], rel_eb: f64) {
    let mut prev: Option<Plotfile> = None;
    for (step, (h, reader)) in series.iter().enumerate() {
        let reference = linkage(reader).reference_id.and(prev.as_ref());
        let pf = read_amric_from(reader, reference).unwrap();
        for c in verify_against(&pf, h, rel_eb) {
            assert!(
                c.bound_ok,
                "step {step} field {} violates the bound (max err {})",
                c.field, c.stats.max_abs_err
            );
        }
        prev = Some(pf);
    }
}

#[test]
fn stable_schedule_roundtrips_with_linkage() {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    let mut session = TemporalSession::new(AmricConfig::lr(REL_EB), 8);
    let series: Vec<_> = TimeSeries::new(&NyxScenario::new(11), cfg, 0.02, 4)
        .map(|(_, _, h)| {
            let r = write_snapshot(&mut session, &h);
            (h, r)
        })
        .collect();
    // A slow dt keeps the hierarchy stable: every snapshot after the
    // first must actually link back.
    for (step, (_, r)) in series.iter().enumerate() {
        let meta = linkage(r);
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
            let r = write_snapshot(&mut session, &h);
            (h, r)
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
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 1,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    let grown = AmrRunConfig {
        num_levels: 2,
        ..base
    };
    let h1 = build_hierarchy(&scenario, &base, 0.0);
    let h2 = build_hierarchy(&scenario, &grown, 0.02);
    let mut session = TemporalSession::new(AmricConfig::lr(REL_EB), 8);
    let r1 = write_snapshot(&mut session, &h1);
    let r2 = write_snapshot(&mut session, &h2);
    let fine_idx = r2.chunk_index("level_1/field_0").unwrap().unwrap();
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
    let deep = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    let shallow = AmrRunConfig {
        num_levels: 1,
        ..deep
    };
    let h1 = build_hierarchy(&scenario, &deep, 0.0);
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
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    let mut session = TemporalSession::new(AmricConfig::lr(REL_EB), 8);
    let series: Vec<_> = TimeSeries::new(&NyxScenario::new(11), cfg, 0.02, 3)
        .map(|(_, _, h)| write_snapshot(&mut session, &h))
        .collect();
    let s1 = read_amric_from(&series[0], None).unwrap();
    assert!(matches!(
        read_amric_from(&series[2], Some(&s1)),
        Err(h5lite::H5Error::Format(_))
    ));
}
