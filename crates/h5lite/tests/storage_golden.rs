//! Byte-identity pin for the single-file backend across the storage
//! refactor.
//!
//! The fixture at `tests/golden/container_v1.h5l` was produced by the
//! **pre-refactor** writer (the `H5Writer` that owned a raw `File` and
//! wrote through `pwrite` directly). The storage subsystem extracted that
//! behavior into `FileStorage`; this suite proves the extraction changed
//! nothing: the same deterministic write sequence must reproduce the
//! fixture bit for bit, and the fixture must stay readable.

use h5lite::prelude::*;

/// The deterministic write sequence behind the committed fixture. Every
/// call is single-threaded in a fixed order, so offsets, directory bytes,
/// and the chunk-index section are fully reproducible.
fn write_golden(w: &H5Writer) {
    // Raw dataset: 1000 elems, 4 chunks, last one padded.
    let raw: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5 - 3.0).collect();
    w.write_dataset("golden/raw", &raw, 256, &NoFilter).unwrap();
    // SZ-filtered smooth dataset: exercises the compressed chunk path.
    let smooth: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.002).sin()).collect();
    w.write_dataset("golden/sz", &smooth, 1024, &SzFilter::one_dimensional(1e-3))
        .unwrap();
    // Size-aware chunks: logical length below the chunk size, so the
    // record's logical_elems differs from chunk_elems.
    let short: Vec<f64> = (0..300).map(|i| (i as f64 * 0.01).cos()).collect();
    let chunks = [&short[..200], &short[200..]];
    w.write_dataset_chunks(
        "golden/aware",
        &chunks,
        512,
        &SzFilter::one_dimensional(1e-3),
        FilterMode::SizeAware,
        None,
    )
    .unwrap();
    // A persisted chunk index (the optional CIDX tail section).
    w.set_chunk_index(
        "golden/aware",
        ChunkIndex::new(vec![
            ChunkIndexEntry::new(CODEC_RAW, Some(([0, 0, 0], [7, 7, 3]))),
            ChunkIndexEntry::new(CODEC_RAW, Some(([0, 0, 4], [7, 7, 7]))),
        ]),
    )
    .unwrap();
    w.finish().unwrap();
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/container_v1.h5l")
}

/// Regenerator, kept ignored: only meaningful when run against the
/// pre-refactor writer (it produced the committed fixture). Re-running it
/// against a changed writer would overwrite the evidence.
#[test]
#[ignore = "writes the committed fixture; run only to regenerate"]
fn regenerate_golden_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let w = H5Writer::create(&path).unwrap();
    write_golden(&w);
}

/// The refactored single-file backend must reproduce the pre-refactor
/// fixture byte for byte.
#[test]
fn file_backend_is_byte_identical_to_pre_refactor_fixture() {
    let golden = std::fs::read(fixture_path()).expect("committed fixture");
    let mut tmp = std::env::temp_dir();
    tmp.push(format!("h5lite-golden-{}.h5l", std::process::id()));
    let w = H5Writer::create(&tmp).unwrap();
    write_golden(&w);
    let fresh = std::fs::read(&tmp).unwrap();
    std::fs::remove_file(&tmp).ok();
    assert_eq!(
        fresh.len(),
        golden.len(),
        "file length drifted from the pre-refactor layout"
    );
    assert!(
        fresh == golden,
        "single-file output is no longer byte-identical to the pre-refactor writer"
    );
}

/// The fixture must stay readable with correct content — the back-compat
/// half of the byte-identity contract.
#[test]
fn pre_refactor_fixture_reads_back() {
    let r = H5Reader::open(fixture_path()).unwrap();
    assert_eq!(
        r.dataset_names(),
        vec!["golden/raw", "golden/sz", "golden/aware"]
    );
    let raw = r.read_dataset("golden/raw").unwrap();
    assert_eq!(raw.len(), 1000);
    assert_eq!(raw[7], 7.0 * 0.5 - 3.0);
    let sz = r.read_dataset("golden/sz").unwrap();
    for (i, v) in sz.iter().enumerate() {
        assert!((v - (i as f64 * 0.002).sin()).abs() <= 1e-3 * 2.0 + 1e-12);
    }
    let idx = r
        .chunk_index("golden/aware")
        .unwrap()
        .expect("index stored");
    assert_eq!(idx.entries.len(), 2);
    assert_eq!(r.meta("golden/aware").unwrap().chunks[1].logical_elems, 100);
}
