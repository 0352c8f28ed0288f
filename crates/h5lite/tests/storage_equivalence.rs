//! Backend-equivalence suite: the same write sequence through file and
//! mem storage must yield byte-identical **logical** content — same
//! dataset directory, same stored chunk bytes, same chunk indexes — for
//! every filter family, for parallel rank writers at 1 and 4 pool
//! workers, and with and without a chunk-index section.

use h5lite::prelude::*;
use h5lite::testutil::TempDir;
use rankpar::run_ranks;
use std::sync::Arc;

/// A backend's name, its writer, and how to open what it wrote.
type Backend = (&'static str, H5Writer, Box<dyn Fn() -> H5Reader>);

/// Both backends, built fresh inside `dir`.
fn backends(dir: &TempDir, tag: &str) -> Vec<Backend> {
    let file_path = dir.file(&format!("{tag}.h5l"));
    let (mem_w, mem) = H5Writer::in_memory();
    let fp = file_path.clone();
    vec![
        (
            "file",
            H5Writer::create(&file_path).unwrap(),
            Box::new(move || H5Reader::open(&fp).unwrap()),
        ),
        (
            "mem",
            mem_w,
            Box::new(move || H5Reader::from_storage(Box::new(mem.clone())).unwrap()),
        ),
    ]
}

/// Assert two readers expose identical logical content: directory,
/// metadata, stored chunk bytes, decoded values, and chunk indexes.
fn assert_logically_identical(a: &H5Reader, b: &H5Reader, ctx: &str) {
    assert_eq!(a.dataset_names(), b.dataset_names(), "{ctx}: directory");
    for name in a.dataset_names() {
        let (ma, mb) = (a.meta(name).unwrap(), b.meta(name).unwrap());
        assert_eq!(ma.total_elems, mb.total_elems, "{ctx}/{name}");
        assert_eq!(ma.chunk_elems, mb.chunk_elems, "{ctx}/{name}");
        assert_eq!(ma.filter_id, mb.filter_id, "{ctx}/{name}");
        assert_eq!(ma.chunks.len(), mb.chunks.len(), "{ctx}/{name}");
        for i in 0..ma.chunks.len() {
            assert_eq!(
                ma.chunks[i].stored_bytes, mb.chunks[i].stored_bytes,
                "{ctx}/{name} chunk {i}"
            );
            assert_eq!(
                ma.chunks[i].logical_elems, mb.chunks[i].logical_elems,
                "{ctx}/{name} chunk {i}"
            );
            assert_eq!(
                a.read_chunk_raw(name, i).unwrap(),
                b.read_chunk_raw(name, i).unwrap(),
                "{ctx}/{name} chunk {i} stored bytes"
            );
        }
        assert_eq!(
            a.chunk_index(name).unwrap(),
            b.chunk_index(name).unwrap(),
            "{ctx}/{name} index"
        );
        if ma.filter_id != 100 {
            // Registry-decodable filters: decoded values must match too
            // (the amric filter needs app context; its raw bytes matched
            // above, which is the stronger statement anyway).
            assert_eq!(
                a.read_dataset(name).unwrap(),
                b.read_dataset(name).unwrap(),
                "{ctx}/{name} decoded"
            );
        }
    }
}

/// One deterministic multi-filter write sequence, serial.
fn write_serial(w: &H5Writer, with_index: bool) {
    let smooth: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.002).sin()).collect();
    let ramp: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5 - 17.0).collect();
    w.write_dataset("eq/raw", &ramp, 256, &NoFilter).unwrap();
    w.write_dataset("eq/sz", &smooth, 1024, &SzFilter::one_dimensional(1e-3))
        .unwrap();
    let chunks = [&smooth[..700], &smooth[700..900]];
    w.write_dataset_chunks(
        "eq/aware",
        &chunks,
        1024,
        &SzFilter::one_dimensional(1e-3),
        FilterMode::SizeAware,
        None,
    )
    .unwrap();
    if with_index {
        w.set_chunk_index(
            "eq/aware",
            ChunkIndex::new(vec![
                ChunkIndexEntry::new(CODEC_RAW, Some(([0, 0, 0], [7, 7, 3]))),
                ChunkIndexEntry::new(CODEC_RAW, Some(([0, 0, 4], [7, 7, 7]))),
            ]),
        )
        .unwrap();
    }
    w.finish().unwrap();
}

#[test]
fn serial_write_identical_across_backends_indexed_and_legacy() {
    for with_index in [true, false] {
        let dir = TempDir::new("h5lite-eq-serial");
        let built = backends(&dir, "serial");
        let readers: Vec<(&str, H5Reader)> = built
            .into_iter()
            .map(|(kind, w, open)| {
                write_serial(&w, with_index);
                drop(w);
                (kind, open())
            })
            .collect();
        let (_, base) = &readers[0];
        assert_eq!(base.chunk_index("eq/aware").unwrap().is_some(), with_index);
        for (kind, r) in &readers[1..] {
            assert_logically_identical(base, r, &format!("indexed={with_index} file vs {kind}"));
        }
    }
}

#[test]
fn collective_write_identical_across_backends_and_worker_counts() {
    // 4 rank threads, the write engine at 1 and 4 pool workers, both
    // filter families — all backends, all combinations, one logical
    // content.
    // Five 192-value chunks per rank.
    let rank_data = |rank: usize| -> Vec<f64> {
        (0..960)
            .map(|i| ((rank * 960 + i) as f64 * 0.013).sin())
            .collect()
    };
    for workers in [1usize, 4] {
        let dir = TempDir::new("h5lite-eq-coll");
        let built = backends(&dir, &format!("w{workers}"));
        let readers: Vec<(&str, H5Reader)> = built
            .into_iter()
            .map(|(kind, w, open)| {
                let writer = Arc::new(w);
                let wc = Arc::clone(&writer);
                run_ranks(4, move |comm| {
                    let staged = rank_data(comm.rank());
                    let chunks: Vec<&[f64]> = staged.chunks(192).collect();
                    let f = SzFilter::one_dimensional(1e-3);
                    let jobs = [
                        DatasetJob {
                            name: "sz",
                            chunks: &chunks,
                            chunk_elems: 192,
                            filter: &f,
                            mode: FilterMode::SizeAware,
                        },
                        DatasetJob {
                            name: "raw",
                            chunks: &chunks,
                            chunk_elems: 192,
                            filter: &NoFilter,
                            mode: FilterMode::Standard,
                        },
                    ];
                    collective_write_many(&comm, &wc, &jobs, workers).unwrap();
                });
                writer.finish().unwrap();
                (kind, open())
            })
            .collect();
        let (_, base) = &readers[0];
        for (kind, r) in &readers[1..] {
            assert_logically_identical(base, r, &format!("workers={workers} file vs {kind}"));
        }
    }
}
