//! Collective dataset writes: every rank contributes chunks to shared
//! datasets (parallel-HDF5-with-filters semantics). This module is the one
//! place that knows how frames become a committed dataset: `encode_frame`
//! → `commit_frames` (one extent reservation per batch, one `write_at` and
//! one `ChunkRecord` per frame) → `finalize` (vote, gather, register).
//!
//! [`collective_write_many`] is the engine — many datasets × many chunks,
//! encoded on a rank-local pool and committed in dataset order.
//! [`collective_write`] is its one-dataset, one-worker call;
//! [`collective_write_frames`] enters after the encode step for callers
//! that produce their frames themselves. DESIGN.md has the stage diagram.
//!
//! With compression filters enabled, HDF5 requires collective metadata
//! operations: *all* ranks participate in every dataset create even when
//! they contribute no data — the effect that makes the one-dataset-per-rank
//! workaround of the paper's §3.3 serialize badly. That cost is captured by
//! counting a dataset-create participation per rank per dataset in the
//! returned receipt.

use crate::dataset::{ChunkRecord, DatasetMeta};
use crate::error::{H5Error, H5Result};
use crate::file::{ChunkData, H5Writer};
use crate::filter::{encode_frame, ChunkFilter, EncodedFrame, FilterMode};
use rankpar::Communicator;

/// Per-rank accounting of one collective write, in PFS-model units.
#[derive(Clone, Copy, Debug, Default)]
pub struct CollectiveReceipt {
    /// Filter invocations on this rank.
    pub filter_calls: u64,
    /// Write calls on this rank.
    pub write_calls: u64,
    /// Payload bytes this rank wrote.
    pub bytes_written: u64,
    /// Collective dataset creates this rank participated in (always ≥ 1).
    pub dataset_creates: u64,
    /// Seconds this rank spent inside filter encode calls.
    pub encode_seconds: f64,
}

/// One dataset's share of a [`collective_write_many`] call: this rank's
/// chunks plus the collective geometry every rank agreed on beforehand.
pub struct DatasetJob<'a> {
    /// Dataset name (identical on every rank).
    pub name: &'a str,
    /// This rank's chunks, in rank-local order (may be empty).
    pub chunks: &'a [ChunkData],
    /// Collective chunk size in elements.
    pub chunk_elems: usize,
    /// The filter every chunk of the dataset runs through.
    pub filter: &'a dyn ChunkFilter,
    /// Standard vs size-aware filter semantics.
    pub mode: FilterMode,
}

/// Land a batch of encoded frames: one contiguous pre-reserved extent (a
/// single atomic reservation — sizes are known before any byte moves, the
/// paper's one-pass write against its compress-then-rewrite two-pass), one
/// `write_at` and one [`ChunkRecord`] per frame, folded into `receipt`.
pub(crate) fn commit_frames(
    writer: &H5Writer,
    frames: &[EncodedFrame],
    records: &mut Vec<ChunkRecord>,
    receipt: &mut CollectiveReceipt,
) -> H5Result<()> {
    let plan = writer.reserve_extent(frames.iter().map(|f| f.bytes.len() as u64));
    for (frame, &offset) in frames.iter().zip(&plan.offsets) {
        writer.write_at(offset, &frame.bytes)?;
        receipt.filter_calls += 1;
        receipt.encode_seconds += frame.encode_seconds;
        receipt.write_calls += 1;
        receipt.bytes_written += frame.bytes.len() as u64;
        records.push(ChunkRecord {
            offset,
            stored_bytes: frame.bytes.len() as u64,
            logical_elems: frame.logical_elems,
        });
    }
    Ok(())
}

/// The shared tail of every collective write: agree on success, gather
/// chunk records in rank order, register the dataset on rank 0. Every rank
/// calls this exactly once per dataset, in the same order; `failure:
/// Some(_)` is the abort vote — the dataset never registers and every rank
/// returns `Err`.
///
/// The agreement runs before the records gather so a rank whose encode
/// failed must not abandon its peers inside a barrier (the communicator
/// has no timeout): every rank first learns whether all succeeded and the
/// whole collective fails together.
fn finalize(
    comm: &Communicator,
    writer: &H5Writer,
    job: &DatasetJob<'_>,
    my_records: Vec<ChunkRecord>,
    failure: Option<H5Error>,
    receipt: CollectiveReceipt,
) -> H5Result<CollectiveReceipt> {
    let all_ok = comm.allgather(failure.is_none());
    if let Some(e) = failure {
        return Err(e);
    }
    if all_ok.contains(&false) {
        return Err(H5Error::Format(
            "collective write aborted: a peer rank's chunk failed to encode".into(),
        ));
    }

    // Gather chunk records in rank order; rank 0 registers the dataset.
    let all_records: Vec<Vec<ChunkRecord>> = comm.allgather(my_records);
    if comm.rank() == 0 {
        let chunks: Vec<ChunkRecord> = all_records.into_iter().flatten().collect();
        let total = chunks.iter().map(|c| c.logical_elems).sum();
        writer.register_dataset(DatasetMeta {
            name: job.name.to_string(),
            total_elems: total,
            chunk_elems: job.chunk_elems as u64,
            filter_id: job.filter.id(),
            filter_mode: job.mode,
            client_data: job.filter.client_data(),
            chunks,
        })?;
    }
    comm.barrier();
    Ok(CollectiveReceipt {
        dataset_creates: 1,
        ..receipt
    })
}

/// This rank's abort vote for a dataset it cannot contribute to.
fn abort_vote() -> H5Error {
    H5Error::Format("collective write aborted: this rank failed to encode its frames".into())
}

/// The write engine: collectively write every dataset of `jobs`, encoding
/// the chunks on a rank-local pool of `workers` threads and committing the
/// datasets in order, **overlapped** — while dataset `d`'s frames are
/// inside the collective commit (and peers may still be encoding), the
/// pool is already encoding datasets `d+1, d+2, …` into the bounded
/// reassembly window. `workers <= 1` runs everything inline on the rank
/// thread; stored bytes, chunk records and the collective sequence are
/// identical for every worker count.
///
/// Frames stream to storage as they drain: each batch of `workers` frames
/// lands through one `commit_frames` call and only its small
/// [`ChunkRecord`]s are kept until the dataset commits, so memory in
/// flight is bounded by the batch plus the reassembly window regardless
/// of how many chunks a dataset stages. A dataset's global chunk order is
/// rank-major.
///
/// Every rank must pass the same dataset list (names, `chunk_elems`,
/// filter configuration, modes). On errors the ranks stay in lockstep: a
/// rank whose chunk fails keeps participating in the remaining datasets'
/// collectives with an abort vote, so peers fail together instead of
/// deadlocking — the failing rank returns its typed error, the peers an
/// abort notice. Datasets committed before the failure stay registered.
pub fn collective_write_many(
    comm: &Communicator,
    writer: &H5Writer,
    jobs: &[DatasetJob<'_>],
    workers: usize,
) -> H5Result<Vec<CollectiveReceipt>> {
    // Flatten to (dataset, chunk) items so the pool load-balances across
    // datasets regardless of how many chunks each one stages.
    let items: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(d, j)| (0..j.chunks.len()).map(move |c| (d, c)))
        .collect();
    let batch_size = workers.max(1);
    let mut receipts = Vec::with_capacity(jobs.len());
    // Datasets whose collective has *occurred* (committed or jointly
    // aborted); whatever is left at the end still has to run.
    let mut done = 0usize;
    let mut batch: Vec<EncodedFrame> = Vec::with_capacity(batch_size);
    let mut records = Vec::new();
    let mut receipt = CollectiveReceipt::default();
    let commit_empty = |job| {
        finalize(
            comm,
            writer,
            job,
            Vec::new(),
            None,
            CollectiveReceipt::default(),
        )
    };

    let pool_result: H5Result<()> = rankpar::pool::for_each_ordered(
        &items,
        workers,
        // Double buffer: one batch in the writer's hands, one encoding.
        2 * batch_size,
        Vec::new, // per-worker padding buffer
        |pad: &mut Vec<f64>, _i, &(d, c)| {
            let job = &jobs[d];
            writer.count_filter_call();
            encode_frame(&job.chunks[c], job.chunk_elems, job.filter, job.mode, pad)
        },
        |i, frame| {
            // Frames arrive in submission order, so everything between the
            // last committed dataset and this frame's is chunk-less here.
            let (d, c) = items[i];
            while done < d {
                done += 1;
                receipts.push(commit_empty(&jobs[done - 1])?);
            }
            batch.push(frame);
            let last = c + 1 == jobs[d].chunks.len();
            if last || batch.len() >= batch_size {
                commit_frames(writer, &batch, &mut records, &mut receipt)?;
                batch.clear();
            }
            if last {
                done += 1; // the collective happens now, success or not
                let (records, receipt) =
                    (std::mem::take(&mut records), std::mem::take(&mut receipt));
                receipts.push(finalize(comm, writer, &jobs[d], records, None, receipt)?);
            }
            Ok(())
        },
    );

    // Datasets the frames never reached: trailing chunk-less ones — or,
    // after a failure, everything left. Peers run those collectives, so
    // this rank must too (with an abort vote) to stay in lockstep.
    let mut failure = pool_result.err();
    for job in &jobs[done..] {
        let outcome = match failure {
            None => commit_empty(job),
            Some(_) => {
                let vote = Some(abort_vote());
                finalize(
                    comm,
                    writer,
                    job,
                    Vec::new(),
                    vote,
                    CollectiveReceipt::default(),
                )
            }
        };
        match outcome {
            Ok(r) => receipts.push(r),
            Err(e) => failure = failure.or(Some(e)),
        }
    }
    failure.map_or(Ok(receipts), Err)
}

/// Collectively write one dataset — [`collective_write_many`] for a single
/// dataset, encoded inline on the rank thread. Every rank passes its local
/// chunks (in rank-local order) and the same `name`, `chunk_elems`, filter
/// configuration and mode.
pub fn collective_write(
    comm: &Communicator,
    writer: &H5Writer,
    name: &str,
    my_chunks: &[ChunkData],
    chunk_elems: usize,
    filter: &dyn ChunkFilter,
    mode: FilterMode,
) -> H5Result<CollectiveReceipt> {
    let job = DatasetJob {
        name,
        chunks: my_chunks,
        chunk_elems,
        filter,
        mode,
    };
    let mut receipts = collective_write_many(comm, writer, &[job], 1)?;
    Ok(receipts.pop().expect("one receipt per dataset"))
}

/// Collectively write one dataset from **pre-encoded** frames — the entry
/// past the encode step, for callers whose frames do not come out of a
/// [`ChunkFilter`] (the temporal session encodes through its codec to get
/// the decoded state back).
///
/// `my_frames: None` is this rank's abort vote (its own error travels
/// separately); the rank still participates in every collective step so
/// peers abort in lockstep instead of deadlocking, and every rank returns
/// `Err`.
pub fn collective_write_frames(
    comm: &Communicator,
    writer: &H5Writer,
    name: &str,
    my_frames: Option<Vec<EncodedFrame>>,
    chunk_elems: usize,
    filter: &dyn ChunkFilter,
    mode: FilterMode,
) -> H5Result<CollectiveReceipt> {
    let job = DatasetJob {
        name,
        chunks: &[],
        chunk_elems,
        filter,
        mode,
    };
    let mut receipt = CollectiveReceipt::default();
    let mut records = Vec::new();
    let failure = match &my_frames {
        Some(frames) => commit_frames(writer, frames, &mut records, &mut receipt).err(),
        None => Some(abort_vote()),
    };
    finalize(comm, writer, &job, records, failure, receipt)
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
            let chunks = vec![ChunkData::full(data)];
            collective_write(
                &comm,
                &w,
                "d",
                &chunks,
                256,
                &NoFilter,
                FilterMode::Standard,
            )
            .unwrap();
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
        let receipts = run_ranks(4, move |comm| {
            let rank = comm.rank();
            let n = (rank + 1) * 128;
            let data: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.01).sin() + rank as f64)
                .collect();
            let my_elems = data.len() as u64;
            let chunk_elems = comm.allreduce_max(my_elems) as usize;
            assert_eq!(chunk_elems, 512);
            let chunks = vec![ChunkData::full(data)];
            let f = SzFilter::one_dimensional(1e-3);
            collective_write(
                &comm,
                &w,
                "d",
                &chunks,
                chunk_elems,
                &f,
                FilterMode::SizeAware,
            )
            .unwrap()
        });
        writer.finish().unwrap();
        for (rank, r) in receipts.iter().enumerate() {
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
            collective_write(
                &comm,
                &w,
                "d",
                &[ChunkData::full(data)],
                64,
                &NoFilter,
                FilterMode::Standard,
            )
        });
        for (rank, r) in results.iter().enumerate() {
            assert!(r.is_err(), "rank {rank} must see the collective failure");
        }
    }

    #[test]
    fn frames_path_writes_preencoded_chunks() {
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        let receipts = run_ranks(2, move |comm| {
            let rank = comm.rank();
            let data: Vec<f64> = (0..64).map(|i| (rank * 100 + i) as f64).collect();
            let f = NoFilter;
            let frame = crate::filter::encode_frame(
                &ChunkData::full(data),
                64,
                &f,
                FilterMode::SizeAware,
                &mut Vec::new(),
            )
            .unwrap();
            collective_write_frames(
                &comm,
                &w,
                "d",
                Some(vec![frame]),
                64,
                &f,
                FilterMode::SizeAware,
            )
            .unwrap()
        });
        writer.finish().unwrap();
        for r in &receipts {
            assert_eq!(r.filter_calls, 1);
            assert_eq!(r.write_calls, 1);
        }
        let r = open(mem);
        let all = r.read_dataset("d").unwrap();
        assert_eq!(all.len(), 128);
        assert_eq!(all[64], 100.0);
    }

    #[test]
    fn frames_path_none_aborts_all_ranks_without_deadlock() {
        let (writer, _mem) = mem_writer();
        let w = Arc::clone(&writer);
        let results = run_ranks(3, move |comm| {
            let frames = if comm.rank() == 1 {
                None // this rank's compression "failed"
            } else {
                let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
                Some(vec![crate::filter::encode_frame(
                    &ChunkData::full(data),
                    16,
                    &NoFilter,
                    FilterMode::SizeAware,
                    &mut Vec::new(),
                )
                .unwrap()])
            };
            collective_write_frames(&comm, &w, "d", frames, 16, &NoFilter, FilterMode::SizeAware)
        });
        for (rank, r) in results.iter().enumerate() {
            assert!(r.is_err(), "rank {rank} must see the abort");
        }
    }

    /// `ndatasets` jobs of `nchunks` chunks each for one rank, every chunk
    /// distinct in (rank, dataset, chunk).
    fn engine_chunks(rank: usize, ndatasets: usize, nchunks: usize) -> Vec<Vec<ChunkData>> {
        (0..ndatasets)
            .map(|d| {
                (0..nchunks)
                    .map(|c| {
                        // Chunk 0 is short: exercises padding / logical size.
                        let n = if c == 0 { 100 } else { 192 };
                        let seed = (rank * 31 + d * 7 + c) * 192;
                        ChunkData::full(
                            (0..n)
                                .map(|i| ((seed + i) as f64 * 0.013).sin() * (d + 1) as f64)
                                .collect(),
                        )
                    })
                    .collect()
            })
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
        let receipts = run_ranks(2, move |comm| {
            let chunks = engine_chunks(comm.rank(), ndatasets, nchunks);
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
        for per_rank in &receipts {
            assert_eq!(per_rank.len(), ndatasets);
            for r in per_rank {
                assert_eq!(r.dataset_creates, 1);
                assert_eq!(r.filter_calls, nchunks as u64);
                assert_eq!(r.write_calls, nchunks as u64);
            }
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
        // Err for every worker count, the dataset before the failure stays
        // committed and nothing after it registers.
        for workers in [1usize, 2, 4] {
            let (writer, mem) = mem_writer();
            let w = Arc::clone(&writer);
            let results = run_ranks(2, move |comm| {
                let mut chunks = engine_chunks(comm.rank(), 3, 8);
                if comm.rank() == 1 {
                    // 256 > chunk size 192, injected mid-batch.
                    chunks[1][4] = ChunkData::full(vec![1.0; 256]);
                }
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
            assert_eq!(open(mem).dataset_names(), vec!["a"], "workers={workers}");
        }
    }

    #[test]
    fn several_collective_datasets() {
        let (writer, mem) = mem_writer();
        let w = Arc::clone(&writer);
        let receipts = run_ranks(2, move |comm| {
            let mut total = CollectiveReceipt::default();
            for field in ["rho", "T", "vx"] {
                let data: Vec<f64> = (0..64).map(|i| i as f64 + comm.rank() as f64).collect();
                let rec = collective_write(
                    &comm,
                    &w,
                    field,
                    &[ChunkData::full(data)],
                    64,
                    &NoFilter,
                    FilterMode::Standard,
                )
                .unwrap();
                total.dataset_creates += rec.dataset_creates;
                total.filter_calls += rec.filter_calls;
            }
            total
        });
        writer.finish().unwrap();
        // The §3.3 pathology: every rank pays a create per dataset.
        for r in &receipts {
            assert_eq!(r.dataset_creates, 3);
        }
        let rd = open(mem);
        assert_eq!(rd.dataset_names().len(), 3);
    }
}
