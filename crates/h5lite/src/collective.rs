//! Collective dataset writes: every rank contributes chunks to shared
//! datasets (parallel-HDF5-with-filters semantics). This module is the one
//! place that knows how frames become committed datasets: `encode_frame`
//! → `commit_frame` (one extent reservation, one `write_at` and one
//! `ChunkRecord` per frame) → `agree` (one vote per write call).
//!
//! [`collective_write_many`] is the engine and the one write entry — many
//! datasets × many chunks, encoded on a rank-local pool and committed in
//! dataset order. A call is **one** collective at its end, and registers
//! all of its datasets or none. DESIGN.md has the stage diagram.
//!
//! With compression filters enabled, HDF5 requires collective metadata
//! operations: *all* ranks participate in every dataset create even when
//! they contribute no data — the effect that makes the one-dataset-per-rank
//! workaround of the paper's §3.3 serialize badly. That cost is captured by
//! counting a dataset-create participation per rank per dataset in the
//! returned ledger.

use crate::dataset::{ChunkRecord, DatasetMeta};
use crate::error::{H5Error, H5Result};
use crate::file::H5Writer;
use crate::filter::{encode_frame, ChunkFilter, EncodedFrame, FilterMode};
use rankpar::{Communicator, IoLedger};

/// One dataset's share of a collective write call: this rank's chunks
/// plus the collective geometry every rank agreed on beforehand.
pub struct DatasetJob<'a> {
    /// Dataset name (identical on every rank).
    pub name: &'a str,
    /// This rank's chunks, in rank-local order (may be empty): slices of
    /// its staged data, each at most `chunk_elems` values.
    pub chunks: &'a [&'a [f64]],
    /// Collective chunk size in elements.
    pub chunk_elems: usize,
    /// The filter every chunk of the dataset runs through.
    pub filter: &'a dyn ChunkFilter,
    /// Standard vs size-aware filter semantics.
    pub mode: FilterMode,
}

/// Land one encoded frame: one pre-reserved extent (a single atomic
/// reservation — the size is known before any byte moves, the paper's
/// one-pass write against its compress-then-rewrite two-pass), one
/// `write_at` and one [`ChunkRecord`], charged to `ledger` (encode time
/// counts as measured compute inside the I/O phase, matching the paper's
/// breakdown).
pub(crate) fn commit_frame(
    writer: &H5Writer,
    frame: &EncodedFrame,
    records: &mut Vec<ChunkRecord>,
    ledger: &mut IoLedger,
) -> H5Result<()> {
    let stored_bytes = frame.bytes.len() as u64;
    let offset = writer.reserve_extent([stored_bytes]).base;
    writer.write_at(offset, &frame.bytes)?;
    ledger.filter_calls += 1;
    ledger.measured_compute_s += frame.encode_seconds;
    ledger.write_calls += 1;
    ledger.bytes_written += stored_bytes;
    records.push(ChunkRecord {
        offset,
        stored_bytes,
        logical_elems: frame.logical_elems,
    });
    Ok(())
}

/// The one vote of a write call, and its only collective. Every rank
/// brings its per-job chunk records — or the error that stopped it — and
/// one allgather tells every rank whether all succeeded. If so, rank 0
/// registers every dataset in job order (chunk records rank-major) and
/// each rank's ledger is charged one create per dataset. Otherwise nothing
/// registers and every rank returns `Err`: the failing rank its own cause,
/// its peers the abort notice. A failing rank has entered no collective
/// before this one, so it strands no peer in a barrier.
fn agree(
    comm: &Communicator,
    writer: &H5Writer,
    jobs: &[DatasetJob<'_>],
    mine: H5Result<Vec<Vec<ChunkRecord>>>,
    ledger: IoLedger,
) -> H5Result<IoLedger> {
    let (vote, failure) = match mine {
        Ok(records) => (Some(records), None),
        Err(e) => (None, Some(e)),
    };
    let votes = comm.allgather(vote);
    if let Some(e) = failure {
        return Err(e);
    }
    let Some(all) = votes.into_iter().collect::<Option<Vec<_>>>() else {
        return Err(H5Error::Format(
            "collective write aborted: a peer rank failed to encode its frames".into(),
        ));
    };
    if comm.rank() == 0 {
        for (d, job) in jobs.iter().enumerate() {
            let chunks: Vec<ChunkRecord> = all.iter().flat_map(|r| r[d].iter().copied()).collect();
            writer.register_dataset(DatasetMeta {
                name: job.name.to_string(),
                total_elems: chunks.iter().map(|c| c.logical_elems).sum(),
                chunk_elems: job.chunk_elems as u64,
                filter_id: job.filter.id(),
                filter_mode: job.mode,
                client_data: job.filter.client_data(),
                chunks,
            })?;
        }
    }
    Ok(IoLedger {
        dataset_creates: jobs.len() as u64,
        ..ledger
    })
}

/// The write engine: collectively write every dataset of `jobs`, encoding
/// the chunks on a rank-local pool of `workers` threads and committing
/// them in dataset order, **overlapped** — while one frame lands in
/// storage, the pool is already encoding the chunks behind it.
/// `workers <= 1` runs everything inline on the rank thread, one frame
/// resident at a time; stored bytes and chunk records are identical for
/// every worker count.
///
/// Each frame lands through one `commit_frame` call as the pool hands it
/// over, and only its small [`ChunkRecord`] is kept until the vote. With
/// more than one worker, the frames not yet committed are at most the
/// call's chunks (the AMRIC writer's call per level holds one chunk per
/// field). A dataset's global chunk order is rank-major.
///
/// Every rank must pass the same dataset list (names, `chunk_elems`,
/// filter configuration, modes). The call ends in one vote: it registers
/// every dataset or — when any rank's chunk failed — none, and then every
/// rank returns `Err` (the failing rank its typed cause, the peers an
/// abort notice). A failing chunk stops the pool from scheduling more;
/// the rank drains and goes straight to the vote.
pub fn collective_write_many(
    comm: &Communicator,
    writer: &H5Writer,
    jobs: &[DatasetJob<'_>],
    workers: usize,
) -> H5Result<IoLedger> {
    // Flatten to (dataset, chunk) items so the pool load-balances across
    // datasets regardless of how many chunks each one stages.
    let items: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(d, j)| (0..j.chunks.len()).map(move |c| (d, c)))
        .collect();
    let mut records = vec![Vec::new(); jobs.len()];
    let mut ledger = IoLedger::default();
    let committed = rankpar::pool::for_each_ordered(
        &items,
        workers,
        Vec::new, // per-worker padding buffer
        |pad: &mut Vec<f64>, _i, &(d, c)| {
            let job = &jobs[d];
            writer.count_filter_call();
            encode_frame(job.chunks[c], job.chunk_elems, job.filter, job.mode, pad)
        },
        // Frames arrive in submission order.
        |i, frame| commit_frame(writer, &frame, &mut records[items[i].0], &mut ledger),
    );
    agree(comm, writer, jobs, committed.map(|()| records), ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::H5Reader;
    use crate::filter::{NoFilter, SzFilter};
    use crate::storage::MemStorage;
    use rankpar::run_ranks;
    use std::sync::Arc;

    /// Collective tests run entirely in memory: the writer and the later
    /// reader share one [`MemStorage`] image, so nothing touches the
    /// filesystem and a panicking rank leaks no temp files.
    fn mem_writer() -> (Arc<H5Writer>, MemStorage) {
        let (w, mem) = H5Writer::in_memory();
        (Arc::new(w), mem)
    }

    fn open(mem: MemStorage) -> H5Reader {
        H5Reader::from_storage(Box::new(mem)).unwrap()
    }

    #[test]
    fn four_ranks_write_one_dataset() {
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        run_ranks(4, move |comm| {
            let rank = comm.rank();
            let data: Vec<f64> = (0..256).map(|i| (rank * 1000 + i) as f64).collect();
            let job = DatasetJob {
                name: "d",
                chunks: &[&data],
                chunk_elems: 256,
                filter: &NoFilter,
                mode: FilterMode::Standard,
            };
            collective_write_many(&comm, &w, &[job], 1).unwrap();
        });
        writer.finish().unwrap();
        let r = open(mem);
        let all = r.read_dataset("d").unwrap();
        assert_eq!(all.len(), 1024);
        // Rank-major order regardless of which thread wrote first.
        for rank in 0..4 {
            assert_eq!(all[rank * 256], (rank * 1000) as f64);
            assert_eq!(all[rank * 256 + 255], (rank * 1000 + 255) as f64);
        }
    }

    #[test]
    fn unbalanced_ranks_size_aware() {
        // Rank r holds (r+1)·128 values; global chunk = largest rank's
        // size; size-aware mode stores no padding (paper Fig. 12).
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        let ledgers = run_ranks(4, move |comm| {
            let rank = comm.rank();
            let n = (rank + 1) * 128;
            let data: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.01).sin() + rank as f64)
                .collect();
            let my_elems = data.len() as u64;
            let chunk_elems = comm.allreduce_max(my_elems) as usize;
            assert_eq!(chunk_elems, 512);
            let job = DatasetJob {
                name: "d",
                chunks: &[&data],
                chunk_elems,
                filter: &SzFilter::one_dimensional(1e-3),
                mode: FilterMode::SizeAware,
            };
            collective_write_many(&comm, &w, &[job], 1).unwrap()
        });
        writer.finish().unwrap();
        for (rank, r) in ledgers.iter().enumerate() {
            assert_eq!(r.filter_calls, 1, "rank {rank}");
            assert_eq!(r.dataset_creates, 1);
        }
        let r = open(mem);
        let meta = r.meta("d").unwrap();
        assert_eq!(meta.total_elems, (128 + 256 + 384 + 512) as u64);
        let all = r.read_dataset("d").unwrap();
        // Rank 3's first value follows rank 2's last.
        let off = 128 + 256 + 384;
        // Rank 3's chunk range is ≈2 (sin ± 1), so REL 1e-3 → abs ≈2e-3.
        assert!((all[off] - 3.0).abs() <= 2.5e-3);
    }

    #[test]
    fn failing_rank_aborts_collective_without_deadlock() {
        // One rank's chunk is invalid (larger than the chunk size): every
        // rank must return Err — the failing rank its encode error, the
        // peers an abort notice — instead of hanging in the record gather.
        let (writer, _mem) = mem_writer();
        let w = Arc::clone(&writer);
        let results = run_ranks(2, move |comm| {
            let n = if comm.rank() == 1 { 512 } else { 64 }; // 512 > chunk 64
            let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let job = DatasetJob {
                name: "d",
                chunks: &[&data],
                chunk_elems: 64,
                filter: &NoFilter,
                mode: FilterMode::Standard,
            };
            collective_write_many(&comm, &w, &[job], 1)
        });
        for (rank, r) in results.iter().enumerate() {
            assert!(r.is_err(), "rank {rank} must see the collective failure");
        }
    }

    /// `ndatasets` jobs of `nchunks` chunks each for one rank, every chunk
    /// distinct in (rank, dataset, chunk).
    fn engine_chunks(rank: usize, ndatasets: usize, nchunks: usize) -> Vec<Vec<Vec<f64>>> {
        (0..ndatasets)
            .map(|d| {
                (0..nchunks)
                    .map(|c| {
                        // Chunk 0 is short: exercises padding / logical size.
                        let n = if c == 0 { 100 } else { 192 };
                        let seed = (rank * 31 + d * 7 + c) * 192;
                        (0..n)
                            .map(|i| ((seed + i) as f64 * 0.013).sin() * (d + 1) as f64)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Borrow every dataset's chunks as the slices a [`DatasetJob`] takes.
    fn slices(chunks: &[Vec<Vec<f64>>]) -> Vec<Vec<&[f64]>> {
        chunks
            .iter()
            .map(|d| d.iter().map(Vec::as_slice).collect())
            .collect()
    }

    /// One stored chunk as the directory records it: `(logical_elems,
    /// stored bytes)`.
    type StoredChunk = (u64, Vec<u8>);

    /// Run the engine on 2 ranks and return every dataset's stored chunks,
    /// in directory order.
    fn engine_write(
        filter: &dyn ChunkFilter,
        mode: FilterMode,
        ndatasets: usize,
        nchunks: usize,
        workers: usize,
    ) -> Vec<Vec<StoredChunk>> {
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        let ledgers = run_ranks(2, move |comm| {
            let data = engine_chunks(comm.rank(), ndatasets, nchunks);
            let chunks = slices(&data);
            let names: Vec<String> = (0..ndatasets).map(|d| format!("d{d}")).collect();
            let jobs: Vec<DatasetJob> = (0..ndatasets)
                .map(|d| DatasetJob {
                    name: &names[d],
                    chunks: &chunks[d],
                    chunk_elems: 192,
                    filter,
                    mode,
                })
                .collect();
            collective_write_many(&comm, &w, &jobs, workers).unwrap()
        });
        for l in &ledgers {
            assert_eq!(l.dataset_creates, ndatasets as u64);
            assert_eq!(l.filter_calls, (ndatasets * nchunks) as u64);
            assert_eq!(l.write_calls, (ndatasets * nchunks) as u64);
        }
        // One write_at and one filter call per chunk, whatever the pool.
        let stats = writer.stats();
        assert_eq!(stats.write_calls, (2 * ndatasets * nchunks) as u64);
        assert_eq!(stats.filter_calls, (2 * ndatasets * nchunks) as u64);
        writer.finish().unwrap();
        let r = open(mem);
        let names: Vec<String> = (0..ndatasets).map(|d| format!("d{d}")).collect();
        assert_eq!(r.dataset_names(), names, "datasets commit in job order");
        names
            .iter()
            .map(|name| {
                let meta = r.meta(name).unwrap();
                (0..meta.chunks.len())
                    .map(|i| {
                        let raw = r.read_chunk_raw(name, i).unwrap();
                        assert_eq!(raw.len() as u64, meta.chunks[i].stored_bytes);
                        (meta.chunks[i].logical_elems, raw)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn engine_is_equivalent_for_every_worker_count() {
        // The one engine invariant: stored chunk bytes and chunk records
        // (rank-major order, logical sizes) do not depend on `workers` —
        // for chunk-less, single-chunk, pool-width and wider-than-pool
        // datasets, one dataset or several, both filter families.
        let sz = SzFilter::one_dimensional(1e-3);
        let filters: [(&dyn ChunkFilter, FilterMode); 2] = [
            (&sz, FilterMode::SizeAware),
            (&NoFilter, FilterMode::Standard),
        ];
        for (filter, mode) in filters {
            for ndatasets in [1usize, 3] {
                for nchunks in [0usize, 1, 4, 9] {
                    let reference = engine_write(filter, mode, ndatasets, nchunks, 1);
                    assert_eq!(reference.len(), ndatasets);
                    for chunks in &reference {
                        assert_eq!(chunks.len(), 2 * nchunks);
                    }
                    for workers in [2usize, 4, 7] {
                        assert_eq!(
                            engine_write(filter, mode, ndatasets, nchunks, workers),
                            reference,
                            "filter {} datasets={ndatasets} chunks={nchunks} workers={workers}",
                            filter.id()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn engine_failing_chunk_mid_batch_aborts_every_rank() {
        // One rank's mid-batch chunk exceeds the chunk size in the middle
        // dataset of three: the pool must drain, every rank must return
        // Err for every worker count, and the call registers nothing — not
        // even the dataset whose frames all landed before the failure.
        for workers in [1usize, 2, 4] {
            let (writer, mem) = mem_writer();
            let w = Arc::clone(&writer);
            let results = run_ranks(2, move |comm| {
                let mut data = engine_chunks(comm.rank(), 3, 8);
                if comm.rank() == 1 {
                    // 256 > chunk size 192, injected mid-batch.
                    data[1][4] = vec![1.0; 256];
                }
                let chunks = slices(&data);
                let names = ["a", "b", "c"];
                let jobs: Vec<DatasetJob> = (0..3)
                    .map(|d| DatasetJob {
                        name: names[d],
                        chunks: &chunks[d],
                        chunk_elems: 192,
                        filter: &NoFilter,
                        mode: FilterMode::Standard,
                    })
                    .collect();
                collective_write_many(&comm, &w, &jobs, workers)
            });
            for (rank, r) in results.iter().enumerate() {
                assert!(r.is_err(), "workers={workers}: rank {rank} must fail");
            }
            writer.finish().unwrap();
            let names = open(mem).dataset_names().len();
            assert_eq!(names, 0, "workers={workers}");
        }
    }

    #[test]
    fn several_collective_datasets() {
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        let ledgers = run_ranks(2, move |comm| {
            let data: Vec<f64> = (0..64).map(|i| i as f64 + comm.rank() as f64).collect();
            let chunks = [data.as_slice()];
            let jobs: Vec<DatasetJob> = ["rho", "T", "vx"]
                .into_iter()
                .map(|name| DatasetJob {
                    name,
                    chunks: &chunks,
                    chunk_elems: 64,
                    filter: &NoFilter,
                    mode: FilterMode::Standard,
                })
                .collect();
            let ledger = collective_write_many(&comm, &w, &jobs, 1).unwrap();
            (ledger, comm.collectives())
        });
        writer.finish().unwrap();
        for (l, collectives) in &ledgers {
            // The §3.3 pathology: every rank pays a create per dataset —
            // and the whole call is one collective.
            assert_eq!(l.dataset_creates, 3);
            assert_eq!(l.filter_calls, 3);
            assert_eq!(*collectives, 1);
        }
        let rd = open(mem);
        assert_eq!(rd.dataset_names(), vec!["rho", "T", "vx"]);
    }
}
