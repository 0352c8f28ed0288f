//! Container-level integration tests for h5lite: many datasets, chunk
//! geometry extremes, parallel writers, and byte-level robustness.
//!
//! These run on [`MemStorage`] — writer and reader share one in-memory
//! image, so the suite leaks nothing on panic — except the check that a
//! directory is not a container, which needs one on disk. Byte-layout
//! behavior on real files is pinned separately by `storage_golden.rs`
//! and `storage_equivalence.rs`.

use h5lite::prelude::*;
use rankpar::run_ranks;
use std::sync::Arc;

/// Build a container in memory and reopen it for reading.
fn roundtrip(build: impl FnOnce(&H5Writer)) -> H5Reader {
    let (w, mem) = H5Writer::in_memory();
    build(&w);
    w.finish().unwrap();
    H5Reader::from_storage(Box::new(mem)).unwrap()
}

#[test]
fn hundred_datasets() {
    let r = roundtrip(|w| {
        for d in 0..100 {
            let data: Vec<f64> = (0..64).map(|i| (d * 1000 + i) as f64).collect();
            w.write_dataset(&format!("group_{}/ds_{}", d % 7, d), &data, 64, &NoFilter)
                .unwrap();
        }
    });
    assert_eq!(r.dataset_names().len(), 100);
    for d in (0..100).step_by(17) {
        let back = r
            .read_dataset(&format!("group_{}/ds_{}", d % 7, d))
            .unwrap();
        assert_eq!(back[0], (d * 1000) as f64);
    }
}

#[test]
fn empty_dataset() {
    let r = roundtrip(|w| {
        w.write_dataset("nothing", &[], 16, &NoFilter).unwrap();
    });
    assert_eq!(r.read_dataset("nothing").unwrap(), Vec::<f64>::new());
    assert_eq!(r.meta("nothing").unwrap().chunks.len(), 0);
}

#[test]
fn chunk_size_one() {
    let data = vec![1.0, 2.0, 3.0];
    let r = {
        let data = data.clone();
        roundtrip(move |w| {
            w.write_dataset("tiny", &data, 1, &NoFilter).unwrap();
        })
    };
    assert_eq!(r.read_dataset("tiny").unwrap(), data);
    assert_eq!(r.meta("tiny").unwrap().chunks.len(), 3);
}

#[test]
fn chunk_larger_than_data() {
    let data = vec![5.0; 10];
    let r = {
        let data = data.clone();
        roundtrip(move |w| {
            w.write_dataset("d", &data, 4096, &NoFilter).unwrap();
        })
    };
    assert_eq!(r.read_dataset("d").unwrap(), data);
    // Standard mode pads to the full chunk in store.
    assert_eq!(r.meta("d").unwrap().stored_bytes(), 4096 * 8);
}

#[test]
fn read_individual_chunks() {
    let r = roundtrip(|w| {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        w.write_dataset("d", &data, 32, &NoFilter).unwrap();
    });
    let c0 = r.read_chunk("d", 0).unwrap();
    assert_eq!(c0.len(), 32);
    assert_eq!(c0[31], 31.0);
    let raw = r.read_chunk_raw("d", 1).unwrap();
    assert_eq!(raw.len(), 32 * 8);
    assert!(r.read_chunk("d", 99).is_err());
}

#[test]
fn eight_rank_concurrent_collective_writes() {
    let (writer, mem) = H5Writer::in_memory();
    let writer = Arc::new(writer);
    let w = Arc::clone(&writer);
    run_ranks(8, move |comm| {
        for field in 0..3 {
            let rank = comm.rank();
            let data: Vec<f64> = (0..128)
                .map(|i| (rank * 10000 + field * 1000 + i) as f64)
                .collect();
            let job = DatasetJob {
                name: &format!("f{field}"),
                chunks: &[ChunkData::full(data)],
                chunk_elems: 128,
                filter: &NoFilter,
                mode: FilterMode::Standard,
            };
            collective_write_many(&comm, &w, &[job], 1).unwrap();
        }
    });
    writer.finish().unwrap();
    let r = H5Reader::from_storage(Box::new(mem)).unwrap();
    for field in 0..3 {
        let all = r.read_dataset(&format!("f{field}")).unwrap();
        assert_eq!(all.len(), 8 * 128);
        for rank in 0..8 {
            assert_eq!(all[rank * 128], (rank * 10000 + field * 1000) as f64);
        }
    }
}

#[test]
fn mixed_filters_in_one_file() {
    let smooth: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin()).collect();
    let r = {
        let smooth = smooth.clone();
        roundtrip(move |w| {
            w.write_dataset("raw", &smooth, 1024, &NoFilter).unwrap();
            w.write_dataset("sz", &smooth, 1024, &SzFilter::one_dimensional(1e-3))
                .unwrap();
        })
    };
    let raw_bytes = r.meta("raw").unwrap().stored_bytes();
    let sz_bytes = r.meta("sz").unwrap().stored_bytes();
    assert!(sz_bytes < raw_bytes / 4, "sz {sz_bytes} vs raw {raw_bytes}");
    let back = r.read_dataset("sz").unwrap();
    for (o, v) in smooth.iter().zip(&back) {
        assert!((o - v).abs() <= 1e-3 * 2.0 + 1e-12);
    }
}

/// Finished container bytes, for corruption tests.
fn finished_bytes(build: impl FnOnce(&H5Writer)) -> Vec<u8> {
    let (w, mem) = H5Writer::in_memory();
    build(&w);
    w.finish().unwrap();
    mem.to_bytes()
}

#[test]
fn header_corruption_detected() {
    let mut bytes = finished_bytes(|w| {
        w.write_dataset("d", &[1.0], 1, &NoFilter).unwrap();
    });
    bytes[0] = b'X';
    assert!(H5Reader::from_storage(Box::new(MemStorage::from_bytes(bytes))).is_err());
}

#[test]
fn truncated_file_detected() {
    let bytes = finished_bytes(|w| {
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        w.write_dataset("d", &data, 100, &NoFilter).unwrap();
    });
    let half = bytes[..bytes.len() / 2].to_vec();
    assert!(H5Reader::from_storage(Box::new(MemStorage::from_bytes(half))).is_err());
}

#[test]
fn directory_is_not_a_container() {
    // A plotfile is one file: neither a plain directory nor the layout of
    // a former `*.h5ls` container (a directory holding `manifest.h5sm`)
    // opens through any path-taking reader, and none of them panics.
    let dir = h5lite::testutil::TempDir::new("h5lite-dir-not-container");
    let plain = dir.file("plain");
    let former = dir.file("old.h5ls");
    std::fs::create_dir_all(&plain).unwrap();
    std::fs::create_dir_all(&former).unwrap();
    std::fs::write(former.join("manifest.h5sm"), b"H5SM\x01").unwrap();
    let catalog = amr_serve::Catalog::new(1 << 20, 2);
    for path in [&plain, &former] {
        assert!(
            matches!(
                H5Reader::open(path),
                Err(H5Error::Io(_)) | Err(H5Error::Format(_))
            ),
            "{path:?}: H5Reader"
        );
        assert!(
            matches!(
                amr_query::QueryEngine::open(path),
                Err(amr_query::QueryError::H5(_))
            ),
            "{path:?}: QueryEngine"
        );
        assert!(
            matches!(catalog.open(path), Err(amr_query::QueryError::H5(_))),
            "{path:?}: Catalog"
        );
    }
    assert_eq!(catalog.stats().open_files, 0);
}

#[test]
fn stats_track_collective_and_serial_writes() {
    let (writer, _mem) = H5Writer::in_memory();
    let writer = Arc::new(writer);
    let w = Arc::clone(&writer);
    run_ranks(2, move |comm| {
        let data = vec![comm.rank() as f64; 64];
        let job = DatasetJob {
            name: "d",
            chunks: &[ChunkData::full(data)],
            chunk_elems: 64,
            filter: &NoFilter,
            mode: FilterMode::SizeAware,
        };
        collective_write_many(&comm, &w, &[job], 1).unwrap();
    });
    let s = writer.stats();
    assert_eq!(s.dataset_creates, 1);
    assert_eq!(s.filter_calls, 2);
    assert_eq!(s.write_calls, 2);
    assert_eq!(s.bytes_written, 2 * 64 * 8);
    writer.finish().unwrap();
}
