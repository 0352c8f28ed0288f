//! Concurrency stress suite for the overlapped write path: a failing
//! chunk injected mid-batch (a chunk that is not whole unit blocks) must
//! drain the pool cleanly, abort the write call on every rank without
//! deadlocking peers, register none of the call's datasets, and surface
//! the typed `CodecError` on the failing rank.
//!
//! The suite is written to pass under both `--test-threads=1` and the
//! default parallel test runner (CI runs both): nothing here depends on
//! the harness's own threading, and every scenario is wrapped in a
//! watchdog so a deadlock fails loudly instead of hanging the run.

use amric::prelude::*;
use amric::writer::{field_dataset, AmricFieldFilter};
use h5lite::prelude::*;
use rankpar::run_ranks;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use sz_codec::CodecError;

/// Run `f` on its own thread and panic if it has not finished within the
/// deadline — turns a cross-rank deadlock into a visible test failure.
fn with_watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let tag = name.to_string();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(v) => v,
        Err(_) => panic!("{tag}: deadlocked (watchdog expired)"),
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("amric-stress-{}-{name}.h5l", std::process::id()));
    p
}

fn filter(unit_edge: usize) -> AmricFieldFilter {
    AmricFieldFilter::fixed(AmricConfig::lr(1e-3), unit_edge, 1e-3)
}

fn good_chunk(seed: usize) -> Vec<f64> {
    // 2 units of 4³ = 128 elems.
    (0..128)
        .map(|i| ((seed * 128 + i) as f64 * 0.017).sin())
        .collect()
}

/// One single-chunk field per entry, where `poison_field` on
/// `poison_rank` gets a chunk whose length is not a multiple of the 4³
/// unit volume.
fn chunks_with_poison(
    rank: usize,
    nfields: usize,
    poison_rank: usize,
    poison_field: Option<usize>,
) -> Vec<Vec<f64>> {
    (0..nfields)
        .map(|f| {
            if Some(f) == poison_field && rank == poison_rank {
                vec![0.25; 63] // 4³ = 64 ∤ 63 → typed error
            } else {
                good_chunk(rank * nfields + f)
            }
        })
        .collect()
}

/// Write `fields` as `level_{level}/field_{f}` through one engine call on
/// `workers` — the writer's per-level shape.
fn write_fields(
    comm: &rankpar::Communicator,
    writer: &H5Writer,
    level: usize,
    fields: &[Vec<f64>],
    workers: usize,
) -> H5Result<rankpar::IoLedger> {
    let names: Vec<String> = (0..fields.len()).map(|f| field_dataset(level, f)).collect();
    let filter = filter(4);
    let chunks: Vec<[&[f64]; 1]> = fields.iter().map(|f| [f.as_slice()]).collect();
    let jobs: Vec<DatasetJob> = chunks
        .iter()
        .zip(&names)
        .map(|(chunks, name)| DatasetJob {
            name,
            chunks,
            chunk_elems: 128,
            filter: &filter,
            mode: FilterMode::SizeAware,
        })
        .collect();
    collective_write_many(comm, writer, &jobs, workers)
}

#[test]
fn failing_chunk_mid_batch_surfaces_typed_error_on_every_rank() {
    for workers in [2usize, 4] {
        let path = tmp(&format!("midbatch-{workers}"));
        let writer = Arc::new(H5Writer::create(&path).unwrap());
        let w = Arc::clone(&writer);
        let results = with_watchdog("mid-batch abort", move || {
            run_ranks(2, move |comm| {
                // Rank 1's field 3 (of 6) is poisoned: the call's one vote
                // aborts all six fields on both ranks.
                let fields = chunks_with_poison(comm.rank(), 6, 1, Some(3));
                write_fields(&comm, &w, 0, &fields, workers)
            })
        });
        assert!(results[0].is_err(), "peer rank must see the abort");
        let peer_err = results[0].as_ref().unwrap_err();
        assert!(
            peer_err.as_codec().is_none(),
            "peer gets the abort notice, not the codec error: {peer_err:?}"
        );
        let own_err = results[1].as_ref().unwrap_err();
        assert!(
            matches!(own_err.as_codec(), Some(CodecError::DimsMismatch { .. })),
            "failing rank surfaces the typed CodecError: {own_err:?}"
        );
        // The call registers all of its datasets or none — not even the
        // fields whose frames landed before the poison; the file itself
        // stays consistent.
        writer.finish().unwrap();
        let rd = H5Reader::open(&path).unwrap();
        assert!(rd.dataset_names().is_empty(), "{:?}", rd.dataset_names());
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn sixteen_ranks_failing_level_one_field_three_registers_no_level_one_dataset() {
    // The writer's shape at 16 ranks: two levels of six fields, one engine
    // call per level. Rank 5's AMRIC filter fails in level 1, field 3:
    // level 0 stays registered whole, level 1 registers nothing, every
    // rank returns, and only the failing rank holds the typed cause.
    const RANKS: usize = 16;
    for workers in [1usize, 3] {
        let (writer, mem) = H5Writer::in_memory();
        let writer = Arc::new(writer);
        let w = Arc::clone(&writer);
        let results = with_watchdog("16-rank level-1 abort", move || {
            run_ranks(RANKS, move |comm| {
                let level0 = chunks_with_poison(comm.rank(), 6, 5, None);
                write_fields(&comm, &w, 0, &level0, workers)?;
                let level1 = chunks_with_poison(comm.rank(), 6, 5, Some(3));
                write_fields(&comm, &w, 1, &level1, workers)
            })
        });
        for (rank, r) in results.iter().enumerate() {
            let err = r.as_ref().unwrap_err();
            if rank == 5 {
                assert!(
                    matches!(err, H5Error::Codec(CodecError::DimsMismatch { .. })),
                    "workers={workers}: failing rank: {err:?}"
                );
            } else {
                assert!(
                    matches!(err, H5Error::Format(_)),
                    "workers={workers}: rank {rank} gets the abort notice: {err:?}"
                );
            }
        }
        writer.finish().unwrap();
        let rd = H5Reader::from_storage(Box::new(mem)).unwrap();
        let level0: Vec<String> = (0..6).map(|f| field_dataset(0, f)).collect();
        assert_eq!(rd.dataset_names(), level0, "workers={workers}");
        for name in &level0 {
            assert_eq!(rd.meta(name).unwrap().chunks.len(), RANKS);
        }
    }
}

#[test]
fn both_ranks_failing_still_drain() {
    let path = tmp("both-fail");
    let writer = Arc::new(H5Writer::create(&path).unwrap());
    let w = Arc::clone(&writer);
    let results = with_watchdog("both ranks failing", move || {
        run_ranks(2, move |comm| {
            // Different poison fields per rank: the collectives must stay
            // in lockstep even when the ranks fail at different points.
            let poison = if comm.rank() == 0 { 1 } else { 4 };
            let fields = chunks_with_poison(comm.rank(), 6, comm.rank(), Some(poison));
            write_fields(&comm, &w, 0, &fields, 4)
        })
    });
    for (rank, r) in results.iter().enumerate() {
        assert!(r.is_err(), "rank {rank} must fail");
    }
    // Rank 0 fails at its own field 1 with the typed error.
    assert!(matches!(
        results[0].as_ref().unwrap_err().as_codec(),
        Some(CodecError::DimsMismatch { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn repeated_overlapped_writes_under_contention() {
    // Hammer the full writer with more pool threads than cores, repeated
    // back-to-back, verifying the produced file every round — scheduling
    // churn must never change bytes or wedge the pipeline.
    let h = {
        use amr_apps::prelude::*;
        let s = NyxScenario::new(23);
        let cfg = AmrRunConfig {
            coarse_dims: (16, 16, 16),
            max_grid_size: 8,
            blocking_factor: 8,
            nranks: 2,
            num_levels: 2,
            fine_fraction: 0.05,
            grid_eff: 0.7,
        };
        build_hierarchy(&s, &cfg, 0.0)
    };
    // Stored AMRIC stream bytes per chunk (the filter is app-defined, so
    // raw chunk comparison is the strongest check anyway).
    let chunk_bytes = |path: &std::path::Path| -> Vec<Vec<u8>> {
        let rd = H5Reader::open(path).unwrap();
        let n = rd.meta("level_0/field_0").unwrap().chunks.len();
        (0..n)
            .map(|i| rd.read_chunk_raw("level_0/field_0", i).unwrap())
            .collect()
    };
    let reference = {
        let path = tmp("contention-ref");
        write_amric(&path, &h, &AmricConfig::lr(1e-3), 8).unwrap();
        let bytes = chunk_bytes(&path);
        std::fs::remove_file(&path).ok();
        bytes
    };
    for round in 0..3 {
        let path = tmp(&format!("contention-{round}"));
        let h2 = h.clone();
        let p2 = path.clone();
        let report = with_watchdog("contended write", move || {
            write_amric(&p2, &h2, &AmricConfig::lr(1e-3).with_workers(7), 8).unwrap()
        });
        assert_eq!(report.nranks, 2);
        assert_eq!(
            chunk_bytes(&path),
            reference,
            "round {round}: overlapped write stored different bytes"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn many_chunk_dataset_failing_chunk_mid_batch() {
    // One dataset, many chunks per rank on a 4-worker pool: a
    // non-unit-multiple chunk mid-batch aborts both ranks cleanly.
    let path = tmp("many-chunk-abort");
    let writer = Arc::new(H5Writer::create(&path).unwrap());
    let w = Arc::clone(&writer);
    let results = with_watchdog("many-chunk abort", move || {
        run_ranks(2, move |comm| {
            let mut data: Vec<Vec<f64>> = (0..12).map(good_chunk).collect();
            if comm.rank() == 0 {
                data[7] = vec![1.0; 63]; // mid-batch poison
            }
            let chunks: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
            let job = DatasetJob {
                name: "d",
                chunks: &chunks,
                chunk_elems: 128,
                filter: &filter(4),
                mode: FilterMode::SizeAware,
            };
            collective_write_many(&comm, &w, &[job], 4)
        })
    });
    assert!(matches!(
        results[0].as_ref().unwrap_err().as_codec(),
        Some(CodecError::DimsMismatch { .. })
    ));
    assert!(results[1].is_err());
    std::fs::remove_file(&path).ok();
}
