//! The planner-level face of temporal compression: a delta-coded chunk's
//! reference snapshot id is resolvable from the persisted chunk index
//! alone — no chunk is read, nothing is decoded.

use amr_apps::prelude::*;
use amr_query::prelude::*;
use amric::temporal::{TemporalSession, TemporalSessionConfig};
use h5lite::{H5Reader, H5Writer};
use std::sync::Arc;
use sz_codec::codec::CodecId;

fn engines_over_series(nsteps: usize) -> Vec<QueryEngine> {
    let scenario = NyxScenario::new(11);
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    let mut session = TemporalSession::new(TemporalSessionConfig::new(1e-3), 8);
    TimeSeries::new(&scenario, cfg, 0.02, nsteps)
        .map(|(_, _, h)| {
            let (w, mem) = H5Writer::in_memory();
            session.write_to(Arc::new(w), &h).unwrap();
            QueryEngine::from_reader(H5Reader::from_storage(Box::new(mem)).unwrap()).unwrap()
        })
        .collect()
}

#[test]
fn chunk_references_resolve_without_decoding() {
    let engines = engines_over_series(2);
    // First snapshot: spatial-only, no chunk references anything.
    let first = &engines[0];
    for l in 0..first.meta().num_levels() {
        for e in first.chunk_entries(l).unwrap() {
            assert_eq!(e.codec_id, CodecId::Temporal as u32);
            assert_eq!(e.reference, None);
        }
    }
    // Second snapshot: its stable-region chunks name snapshot 1.
    let second = &engines[1];
    let mut saw_reference = false;
    for l in 0..second.meta().num_levels() {
        for (c, e) in second.chunk_entries(l).unwrap().iter().enumerate() {
            assert_eq!(second.chunk_reference(l, c).unwrap(), e.reference);
            if e.reference == Some(1) {
                saw_reference = true;
            }
        }
    }
    assert!(
        saw_reference,
        "no chunk of snapshot 2 records its reference"
    );
}

#[test]
fn out_of_range_lookups_are_typed_errors() {
    let engines = engines_over_series(1);
    let e = &engines[0];
    assert!(e.chunk_entries(99).is_err());
    assert!(e.chunk_reference(0, 999).is_err());
}
