//! Determinism matrix for compression on the write engine's pool
//! (`rankpar::pool::for_each_ordered`): for every codec family × worker
//! count × chunk count, the streams the pool hands back must be
//! **byte-identical** to the serial path, and every stream must
//! round-trip through its family's own decoder.
//!
//! This is the invariant that makes the overlapped write path safe to
//! ship: turning on `with_workers(n)` may change wall-clock, never bytes.

use amr_apps::prelude::*;
use amr_mesh::prelude::{AmrHierarchy, IntVect};
use amric::prelude::*;
use amric::tac::{tac_compress, tac_decompress};
use amric::writer::field_dataset;
use h5lite::prelude::*;
use rankpar::pool::for_each_ordered;
use std::sync::Arc;
use sz_codec::prelude::*;

/// A family's encoder over one chunk's units.
type Encode = Box<dyn Fn(&[Buffer3]) -> CodecResult<Vec<u8>> + Sync>;
/// A family's decoder back to units.
type Decode = fn(&[u8]) -> CodecResult<Vec<Buffer3>>;

/// Compress each chunk through `encode` on a pool of `workers` threads —
/// exactly how the write engine drives its filters — returning one stream
/// per chunk in submission order.
fn compress_chunks_on_pool(
    encode: &(dyn Fn(&[Buffer3]) -> CodecResult<Vec<u8>> + Sync),
    chunks: &[Vec<Buffer3>],
    workers: usize,
) -> CodecResult<Vec<Vec<u8>>> {
    let mut streams = Vec::with_capacity(chunks.len());
    for_each_ordered(
        chunks,
        workers,
        workers.max(1) * 2,
        || (),
        |_state, _i, units| encode(units),
        |_i, stream| {
            streams.push(stream);
            Ok(())
        },
    )?;
    Ok(streams)
}

/// Units per chunk — fixed because TAC carries one origin per unit.
const UNITS_PER_CHUNK: usize = 3;
const EDGE: usize = 6;

/// Deterministic, per-chunk-distinct unit data (mixed smooth + offset so
/// every family exercises its real code paths).
fn make_chunks(n: usize) -> Vec<Vec<Buffer3>> {
    (0..n)
        .map(|c| {
            (0..UNITS_PER_CHUNK)
                .map(|u| {
                    let mut b = Buffer3::zeros(Dims3::cube(EDGE));
                    b.fill_with(|i, j, k| {
                        ((i as f64 * 0.7 + c as f64 * 1.3).sin() * (u + 1) as f64)
                            + (j + 2 * k) as f64 * 0.04
                            + c as f64 * 0.5
                    });
                    b
                })
                .collect()
        })
        .collect()
}

fn origins() -> Vec<IntVect> {
    (0..UNITS_PER_CHUNK as i64)
        .map(|u| IntVect::new(u * EDGE as i64, 0, 0))
        .collect()
}

/// The pipeline stream at a locally resolved bound.
fn amric(cfg: AmricConfig) -> Encode {
    Box::new(move |u| Ok(compress_field_units(u, &cfg, EDGE)))
}

/// The snapshot every temporal chunk of the matrix predicts from.
fn reference() -> Reference {
    let unit = |u: usize| {
        let mut b = Buffer3::zeros(Dims3::cube(EDGE));
        b.fill_with(|i, j, k| (i as f64 * 0.7).sin() * (u + 1) as f64 + (j + 2 * k) as f64 * 0.04);
        b
    };
    (
        1,
        std::sync::Arc::new((0..UNITS_PER_CHUNK).map(unit).collect()),
    )
}

/// The pipeline's delta mode: the first and last unit against the
/// reference, the middle one in the nested stream.
fn temporal(units: &[Buffer3]) -> CodecResult<Vec<u8>> {
    let (id, reference) = reference();
    let map = [Some(0), None, Some(2)];
    let mut out = Vec::new();
    let cfg = AmricConfig::lr(1e-3);
    let mut scratch = AmricScratch::default();
    compress_delta_into(
        units,
        None,
        &cfg,
        EDGE,
        1e-3,
        (id, &reference),
        &map,
        &mut scratch,
        &mut out,
    )?;
    Ok(out)
}

fn temporal_decode(bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
    let mut units = Vec::new();
    decompress_field_units_into(bytes, &mut units, &mut || Ok(reference()))?;
    Ok(units)
}

/// Every family a chunk is stored through, as `(name, encode, decode)`.
fn families() -> Vec<(&'static str, Encode, Decode)> {
    vec![
        (
            "sz-lr",
            Box::new(|u| Ok(lr::compress_domains(u, &LrConfig::new(1e-3)))),
            lr::decompress_domains,
        ),
        (
            "amric-lr",
            amric(AmricConfig::lr(1e-3)),
            decompress_field_units,
        ),
        (
            "amric-interp",
            amric(AmricConfig::interp(1e-3)),
            decompress_field_units,
        ),
        (
            "tac",
            Box::new(|u| Ok(tac_compress(u, &origins(), 1e-3))),
            tac_decompress,
        ),
        ("amric-delta", Box::new(temporal), temporal_decode),
    ]
}

#[test]
fn parallel_streams_are_byte_identical_to_serial() {
    for (name, encode, _) in families() {
        for workers in [1usize, 2, 4, 7] {
            // Chunk counts: empty, single, exactly the pool width, and
            // more chunks than workers (forces stealing + reassembly).
            for nchunks in [0usize, 1, workers, 2 * workers + 3] {
                let chunks = make_chunks(nchunks);
                // Serial reference: one plain encode call per chunk.
                let serial: Vec<Vec<u8>> = chunks.iter().map(|u| encode(u).unwrap()).collect();
                let parallel = compress_chunks_on_pool(&encode, &chunks, workers).unwrap();
                assert_eq!(
                    serial, parallel,
                    "{name}: workers={workers} chunks={nchunks} streams differ"
                );
            }
        }
    }
}

#[test]
fn parallel_streams_round_trip_through_their_decoder() {
    for (name, encode, decode) in families() {
        let chunks = make_chunks(9);
        let streams = compress_chunks_on_pool(&encode, &chunks, 4).unwrap();
        assert_eq!(streams.len(), chunks.len());
        for (c, (units, stream)) in chunks.iter().zip(&streams).enumerate() {
            let back =
                decode(stream).unwrap_or_else(|e| panic!("{name} chunk {c}: decode failed: {e:?}"));
            assert_eq!(back.len(), units.len(), "{name} chunk {c} unit count");
            for (o, r) in units.iter().zip(&back) {
                assert_eq!(o.dims(), r.dims(), "{name} chunk {c} dims");
                let stats = ErrorStats::compare(o.data(), r.data());
                // All families run REL 1e-3 against their own range
                // resolution; a conservative absolute ceiling suffices
                // here (bound exactness is covered by the codec suites).
                assert!(
                    stats.max_abs_err <= 0.1,
                    "{name} chunk {c}: max err {}",
                    stats.max_abs_err
                );
            }
        }
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Same input, same workers, repeated runs: streams never vary with
    // scheduling (per-worker scratch leaves no history).
    let encode = amric(AmricConfig::lr(1e-3));
    let chunks = make_chunks(11);
    let first = compress_chunks_on_pool(&encode, &chunks, 4).unwrap();
    for _ in 0..5 {
        let again = compress_chunks_on_pool(&encode, &chunks, 4).unwrap();
        assert_eq!(first, again);
    }
}

#[test]
fn worker_count_does_not_leak_into_stream_metadata() {
    // The envelope and payload carry no trace of how many workers built
    // them: streams from every worker count decode identically.
    let encode = amric(AmricConfig::interp(1e-3));
    let chunks = make_chunks(6);
    let reference = compress_chunks_on_pool(&encode, &chunks, 1).unwrap();
    for workers in [2, 4, 7] {
        let streams = compress_chunks_on_pool(&encode, &chunks, workers).unwrap();
        for (a, b) in reference.iter().zip(&streams) {
            assert_eq!(a, b);
            let ra = decompress_field_units(a).unwrap();
            let rb = decompress_field_units(b).unwrap();
            assert_eq!(ra.len(), rb.len());
            for (x, y) in ra.iter().zip(&rb) {
                assert_eq!(x.data(), y.data());
            }
        }
    }
}

#[test]
fn error_surfaces_and_pool_drains() {
    // A TAC encoder holding one origin per unit rejects a chunk of another
    // size with a typed error; inject one mid-batch. The first error in
    // submission order surfaces typed and the pool drains instead of
    // hanging.
    let encode = |units: &[Buffer3]| {
        if units.len() != UNITS_PER_CHUNK {
            let detail = format!("{} units for {UNITS_PER_CHUNK} origins", units.len());
            return Err(CodecError::dims(detail));
        }
        Ok(tac_compress(units, &origins(), 1e-3))
    };
    let mut chunks = make_chunks(8);
    chunks[5].pop(); // 2 units vs 3 origins → typed error
    let err = compress_chunks_on_pool(&encode, &chunks, 4).unwrap_err();
    assert!(matches!(err, CodecError::DimsMismatch { .. }), "{err:?}");
}

/// A small WarpX hierarchy whose dense level 0 compresses in place.
fn warpx(nranks: usize) -> AmrHierarchy {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 256),
        max_grid_size: 16,
        blocking_factor: 8,
        nranks,
        num_levels: 2,
        fine_fraction: 0.02,
        grid_eff: 0.7,
    };
    build_hierarchy(&WarpXScenario::new(1), &cfg, 0.0)
}

#[test]
fn placed_containers_are_byte_identical_at_every_worker_count() {
    // The placed mode clusters each chunk once and shares the clustering
    // among the fields the pool compresses side by side: no worker count
    // may show in a byte. At one rank the whole container is compared; at
    // four, where the ranks' chunk offsets follow their commit order,
    // every chunk's stored bytes.
    for nranks in [1, 4] {
        let h = warpx(nranks);
        let write = |workers: usize| {
            let (w, mem) = H5Writer::in_memory();
            let cfg = AmricConfig::interp(1e-3).with_workers(workers);
            write_amric_to(Arc::new(w), &h, &cfg, 8).unwrap();
            mem.to_bytes()
        };
        let chunks = |bytes: Vec<u8>| {
            let r = H5Reader::from_storage(Box::new(MemStorage::from_bytes(bytes))).unwrap();
            let mut all = Vec::new();
            for name in r.dataset_names() {
                for c in 0..r.meta(name).unwrap().chunks.len() {
                    all.push((name.to_string(), r.read_chunk_raw(name, c).unwrap()));
                }
            }
            all
        };
        let serial = write(1);
        let stored = chunks(serial.clone());
        let level0 = field_dataset(0, 0);
        let placed = stored.iter().filter(|(name, _)| *name == level0);
        let modes: Vec<_> = placed
            .map(|(_, raw)| stream_layout(raw).unwrap().mode)
            .collect();
        assert!(
            modes.contains(&"interp-placed"),
            "nranks={nranks}: {modes:?}"
        );
        for workers in [2, 4] {
            let parallel = write(workers);
            if nranks == 1 {
                assert!(parallel == serial, "workers={workers}: containers differ");
            } else {
                assert!(
                    chunks(parallel) == stored,
                    "nranks={nranks} workers={workers}"
                );
            }
        }
    }
}
