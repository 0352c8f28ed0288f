//! File-level API: [`H5Writer`] (shareable across rank threads) and
//! [`H5Reader`].
//!
//! Container layout (all little-endian):
//!
//! ```text
//! "H5LT" u8-version | chunk payloads ... | directory | dir_offset u64 "H5LE"
//! ```
//!
//! The bytes live in a [`Storage`] — one file, or one byte vector in
//! memory: chunk payloads are written at reserved offsets (threads write
//! concurrently via positioned writes), the directory is written once by
//! [`H5Writer::finish`]. Both backends hold the same bytes (the file
//! layout is pinned by the golden fixture suite).

use crate::collective::commit_frame;
use crate::dataset::{ChunkRecord, DatasetMeta};
use crate::error::{H5Error, H5Result};
use crate::filter::{decode_chunk, encode_frame, ChunkFilter, FilterMode};
use crate::index::{read_index_section, write_index_section, ChunkIndex};
use crate::storage::{FileStorage, MemStorage, Storage};
use parking_lot::Mutex;
use rankpar::IoLedger;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC_HEAD: &[u8; 4] = b"H5LT";
const MAGIC_TAIL: &[u8; 4] = b"H5LE";
const VERSION: u8 = 1;

/// One chunk of data heading to storage: the values plus how many of them
/// are real (the rest is padding the caller added to reach the uniform
/// chunk size).
#[derive(Clone, Debug)]
pub struct ChunkData {
    /// Values; `data.len() ≤ chunk_elems`.
    pub data: Vec<f64>,
    /// Number of meaningful leading elements.
    pub logical: usize,
}

impl ChunkData {
    /// A chunk that is entirely real data.
    pub fn full(data: Vec<f64>) -> Self {
        let logical = data.len();
        ChunkData { data, logical }
    }
}

/// Writer for a new h5lite container. All methods take `&self`; the
/// writer can be shared across rank threads (chunk space is reserved
/// atomically, payloads written with positioned writes).
pub struct H5Writer {
    storage: Box<dyn Storage>,
    directory: Mutex<Vec<DatasetMeta>>,
    indexes: Mutex<Vec<(String, ChunkIndex)>>,
    finished: AtomicU64,
    stats: Mutex<IoLedger>,
}

impl H5Writer {
    /// Create (truncate) a single-file container and write the
    /// superblock.
    pub fn create(path: impl AsRef<Path>) -> H5Result<Self> {
        Self::with_storage(Box::new(FileStorage::create(path)?))
    }

    /// Create an in-memory container; the returned [`MemStorage`] handle
    /// shares the bytes, so after [`H5Writer::finish`] it opens directly
    /// with [`H5Reader::from_storage`] — no filesystem involved.
    pub fn in_memory() -> (Self, MemStorage) {
        let mem = MemStorage::new();
        let w = Self::with_storage(Box::new(mem.clone())).expect("mem storage cannot fail");
        (w, mem)
    }

    /// Create a writer over any empty [`Storage`] and write the
    /// superblock.
    pub fn with_storage(storage: Box<dyn Storage>) -> H5Result<Self> {
        let base = storage.reserve(5);
        if base != 0 {
            return Err(H5Error::Format(format!(
                "storage already holds {base} reserved bytes; a container must start at 0"
            )));
        }
        storage.write_at(0, MAGIC_HEAD)?;
        storage.write_at(4, &[VERSION])?;
        Ok(H5Writer {
            storage,
            directory: Mutex::new(Vec::new()),
            indexes: Mutex::new(Vec::new()),
            finished: AtomicU64::new(0),
            stats: Mutex::new(IoLedger::default()),
        })
    }

    /// Reserve one contiguous extent for a batch of frames with known
    /// sizes (the one-pass write of AMRIC §3.3: sizes are known before
    /// any byte lands, so the whole batch costs a single atomic
    /// reservation and lands contiguously). Returns the per-frame
    /// absolute offsets.
    pub fn reserve_extent(&self, sizes: impl IntoIterator<Item = u64>) -> crate::ExtentPlan {
        let mut offsets = Vec::new();
        let mut total = 0u64;
        for s in sizes {
            offsets.push(total);
            total += s;
        }
        let base = self.storage.reserve(total);
        for o in &mut offsets {
            *o += base;
        }
        crate::ExtentPlan {
            base,
            offsets,
            total_bytes: total,
        }
    }

    /// Write raw bytes at a reserved offset.
    pub fn write_at(&self, offset: u64, bytes: &[u8]) -> H5Result<()> {
        self.storage.write_at(offset, bytes)?;
        let mut s = self.stats.lock();
        s.write_calls += 1;
        s.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Count a filter invocation (callers that encode chunks themselves,
    /// e.g. the collective path, report through this).
    pub fn count_filter_call(&self) {
        self.stats.lock().filter_calls += 1;
    }

    /// Register a fully-described dataset (collective path: rank 0 calls
    /// this after gathering chunk records).
    pub fn register_dataset(&self, meta: DatasetMeta) -> H5Result<()> {
        let mut dir = self.directory.lock();
        if dir.iter().any(|d| d.name == meta.name) {
            return Err(H5Error::Duplicate(meta.name));
        }
        dir.push(meta);
        self.stats.lock().dataset_creates += 1;
        Ok(())
    }

    /// Serial convenience: chunk `data` uniformly, run `filter` on every
    /// chunk (standard HDF5 semantics: the last chunk is zero-padded to the
    /// full chunk size before filtering) and write it out.
    pub fn write_dataset(
        &self,
        name: &str,
        data: &[f64],
        chunk_elems: usize,
        filter: &dyn ChunkFilter,
    ) -> H5Result<()> {
        assert!(chunk_elems > 0, "chunk size must be positive");
        let chunks: Vec<ChunkData> = if data.is_empty() {
            Vec::new()
        } else {
            data.chunks(chunk_elems)
                .map(|c| ChunkData::full(c.to_vec()))
                .collect()
        };
        self.write_dataset_chunks(
            name,
            &chunks,
            chunk_elems,
            filter,
            FilterMode::Standard,
            Some(data.len() as u64),
        )
    }

    /// Write a dataset from explicit chunks.
    ///
    /// * `FilterMode::Standard` — each chunk is zero-padded to
    ///   `chunk_elems` before the filter runs and decodes back to
    ///   `chunk_elems` values (padding survives the roundtrip).
    /// * `FilterMode::SizeAware` — only `chunk.logical` values reach the
    ///   filter; no padding is compressed (the AMRIC modification).
    ///
    /// `total_override` pins the dataset's logical length (used by the
    /// standard mode where trailing padding is not real data).
    pub fn write_dataset_chunks(
        &self,
        name: &str,
        chunks: &[ChunkData],
        chunk_elems: usize,
        filter: &dyn ChunkFilter,
        mode: FilterMode,
        total_override: Option<u64>,
    ) -> H5Result<()> {
        // The serial face of the write engine: same encode step, same
        // commit step, one frame resident at a time.
        let mut records = Vec::with_capacity(chunks.len());
        let mut ledger = IoLedger::default();
        let mut pad = Vec::new();
        for chunk in chunks {
            let frame = encode_frame(chunk, chunk_elems, filter, mode, &mut pad)?;
            self.count_filter_call();
            commit_frame(self, &frame, &mut records, &mut ledger)?;
        }
        let total = total_override.unwrap_or_else(|| records.iter().map(|r| r.logical_elems).sum());
        self.register_dataset(DatasetMeta {
            name: name.to_string(),
            total_elems: total,
            chunk_elems: chunk_elems as u64,
            filter_id: filter.id(),
            filter_mode: mode,
            client_data: filter.client_data(),
            chunks: records,
        })
    }

    /// Attach a chunk index to an already-registered dataset, to be
    /// persisted by [`H5Writer::finish`]. The entry count must match the
    /// dataset's chunk count (one entry per stored chunk, in chunk
    /// order). Files where no dataset registers an index are
    /// byte-identical to pre-index files.
    pub fn set_chunk_index(&self, name: &str, index: ChunkIndex) -> H5Result<()> {
        if self.finished.load(Ordering::SeqCst) == 1 {
            return Err(H5Error::Format(
                "cannot register a chunk index after finish(): the directory is already on disk"
                    .into(),
            ));
        }
        let dir = self.directory.lock();
        let meta = dir
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| H5Error::NotFound(name.to_string()))?;
        if meta.chunks.len() != index.entries.len() {
            return Err(H5Error::Format(format!(
                "chunk index for {name} holds {} entries, dataset stores {} chunks",
                index.entries.len(),
                meta.chunks.len()
            )));
        }
        drop(dir);
        let mut indexes = self.indexes.lock();
        if indexes.iter().any(|(n, _)| n == name) {
            return Err(H5Error::Duplicate(format!("chunk index for {name}")));
        }
        indexes.push((name.to_string(), index));
        Ok(())
    }

    /// Snapshot of the whole container's write counters: filter calls,
    /// write calls, payload bytes (the directory excluded) and dataset
    /// creates. The writer times nothing, so `measured_compute_s` is 0.
    pub fn stats(&self) -> IoLedger {
        *self.stats.lock()
    }

    /// Write the directory + footer and flush the storage. Errors on a
    /// second call; returns the final container size.
    pub fn finish(&self) -> H5Result<u64> {
        if self.finished.swap(1, Ordering::SeqCst) == 1 {
            return Err(H5Error::Format("finish() called twice".into()));
        }
        let dir_offset = self.storage.reserved_len();
        let mut w = sz_codec::wire::Writer::new();
        let dir = self.directory.lock();
        w.put_u32(dir.len() as u32);
        for d in dir.iter() {
            d.write_to(&mut w);
        }
        // Optional chunk-index section: old readers stop after the dataset
        // entries, so indexed files stay readable by pre-index tooling.
        let indexes = self.indexes.lock();
        if !indexes.is_empty() {
            write_index_section(&mut w, &indexes);
        }
        w.put_u64(dir_offset);
        w.put_raw(MAGIC_TAIL);
        let bytes = w.into_bytes();
        // finish() runs after every rank thread joined, so this extent
        // starts exactly at dir_offset.
        let at = self.storage.reserve(bytes.len() as u64);
        debug_assert_eq!(at, dir_offset);
        self.storage.write_at(at, &bytes)?;
        self.storage.flush()?;
        Ok(dir_offset + bytes.len() as u64)
    }
}

/// Parsed container tail: directory entries and the chunk indexes
/// aligned with them (`None` where a dataset has none).
fn parse_container(storage: &dyn Storage) -> H5Result<(Vec<DatasetMeta>, Vec<Option<ChunkIndex>>)> {
    let len = storage.len()?;
    if len < 17 {
        return Err(H5Error::Format("file too short for footer".into()));
    }
    let mut head = [0u8; 5];
    storage.read_at(0, &mut head)?;
    if &head[..4] != MAGIC_HEAD {
        return Err(H5Error::Format("bad superblock magic".into()));
    }
    if head[4] != VERSION {
        return Err(H5Error::Format(format!("unsupported version {}", head[4])));
    }
    let mut tail = [0u8; 12];
    storage.read_at(len - 12, &mut tail)?;
    if &tail[8..] != MAGIC_TAIL {
        return Err(H5Error::Format("bad footer magic".into()));
    }
    let dir_offset = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
    // The directory must end before the 12-byte footer; an offset
    // inside the footer would underflow the length below into an
    // absurd allocation.
    if dir_offset > len - 12 {
        return Err(H5Error::Format("directory offset out of range".into()));
    }
    let mut dir_bytes = vec![0u8; (len - 12 - dir_offset) as usize];
    storage.read_at(dir_offset, &mut dir_bytes)?;
    let mut r = sz_codec::wire::Reader::new(&dir_bytes);
    let n = r.get_u32()? as usize;
    // A directory entry is at least 35 bytes (name length, counts, ids,
    // mode, client-data length, chunk count).
    let mut datasets = Vec::with_capacity(r.check_count(n, 35)?);
    for _ in 0..n {
        let meta = DatasetMeta::read_from(&mut r)?;
        // Every chunk lies between the superblock and the directory.
        for c in &meta.chunks {
            if c.offset < 5
                || !matches!(c.offset.checked_add(c.stored_bytes), Some(end) if end <= dir_offset)
            {
                return Err(H5Error::Format(format!(
                    "chunk of {} at {} (+{} bytes) lies outside the payload 5..{dir_offset}",
                    meta.name, c.offset, c.stored_bytes
                )));
            }
        }
        datasets.push(meta);
    }
    let mut indexes: Vec<Option<ChunkIndex>> = vec![None; datasets.len()];
    if let Some(named) = read_index_section(&mut r)? {
        for (name, idx) in named {
            let pos = datasets
                .iter()
                .position(|d| d.name == name)
                .ok_or_else(|| {
                    H5Error::Format(format!("chunk index for unknown dataset {name}"))
                })?;
            if datasets[pos].chunks.len() != idx.entries.len() {
                return Err(H5Error::Format(format!(
                    "chunk index for {name} holds {} entries, dataset stores {} chunks",
                    idx.entries.len(),
                    datasets[pos].chunks.len()
                )));
            }
            indexes[pos] = Some(idx);
        }
    }
    Ok((datasets, indexes))
}

/// Reader over a finished h5lite container on any storage backend.
pub struct H5Reader {
    storage: Box<dyn Storage>,
    datasets: Vec<DatasetMeta>,
    /// Parsed chunk indexes, aligned with `datasets` (`None` for datasets
    /// the writer did not index).
    indexes: Vec<Option<ChunkIndex>>,
}

impl H5Reader {
    /// Open a single-file container and parse its directory.
    pub fn open(path: impl AsRef<Path>) -> H5Result<Self> {
        Self::from_storage(Box::new(FileStorage::open(path)?))
    }

    /// Open a container over an explicit storage (e.g. the
    /// [`MemStorage`] handle a writer just filled).
    pub fn from_storage(storage: Box<dyn Storage>) -> H5Result<Self> {
        let (datasets, indexes) = parse_container(&*storage)?;
        Ok(H5Reader {
            storage,
            datasets,
            indexes,
        })
    }

    /// Names of all datasets, in creation order.
    pub fn dataset_names(&self) -> Vec<&str> {
        self.datasets.iter().map(|d| d.name.as_str()).collect()
    }

    /// Metadata for a dataset.
    pub fn meta(&self, name: &str) -> H5Result<&DatasetMeta> {
        self.datasets
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| H5Error::NotFound(name.to_string()))
    }

    /// The chunk index the writer stored for a dataset (`None` for a
    /// dataset it did not index, e.g. `meta/*` and baseline datasets).
    pub fn chunk_index(&self, name: &str) -> H5Result<Option<&ChunkIndex>> {
        let pos = self
            .datasets
            .iter()
            .position(|d| d.name == name)
            .ok_or_else(|| H5Error::NotFound(name.to_string()))?;
        Ok(self.indexes[pos].as_ref())
    }

    /// The chunk record for `(name, index)` with a typed out-of-range
    /// error naming the dataset and the offending index.
    fn chunk_record(&self, name: &str, index: usize) -> H5Result<&ChunkRecord> {
        let meta = self.meta(name)?;
        meta.chunks
            .get(index)
            .ok_or_else(|| H5Error::ChunkOutOfRange {
                dataset: name.to_string(),
                index,
                count: meta.chunks.len(),
            })
    }

    /// Read and decode one chunk of a dataset stored through a built-in
    /// filter ([`decode_chunk`]). Application-defined filters (AMRIC's)
    /// are not built in: their readers take the raw chunk
    /// ([`H5Reader::read_chunk_raw_into`]) and decode it themselves.
    pub fn read_chunk(&self, name: &str, index: usize) -> H5Result<Vec<f64>> {
        let meta = self.meta(name)?;
        let rec = *self.chunk_record(name, index)?;
        let bytes = self.read_chunk_raw(name, index)?;
        decode_chunk(
            meta.filter_id,
            &meta.client_data,
            &bytes,
            rec.logical_elems as usize,
        )
    }

    /// Read the stored (encoded) bytes of one chunk without filtering.
    pub fn read_chunk_raw(&self, name: &str, index: usize) -> H5Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.read_chunk_raw_into(name, index, &mut buf)?;
        Ok(buf)
    }

    /// Read one chunk's stored bytes into a caller-provided buffer
    /// (cleared and resized) — the partial-read hot path, where a query's
    /// cache misses and a restart reuse one byte buffer across chunks.
    pub fn read_chunk_raw_into(&self, name: &str, index: usize, buf: &mut Vec<u8>) -> H5Result<()> {
        let rec = *self.chunk_record(name, index)?;
        buf.clear();
        buf.resize(rec.stored_bytes as usize, 0);
        self.storage.read_at(rec.offset, buf)?;
        Ok(())
    }

    /// Read the full logical dataset (chunk concatenation truncated to
    /// `total_elems`).
    pub fn read_dataset(&self, name: &str) -> H5Result<Vec<f64>> {
        let meta = self.meta(name)?;
        // `total_elems` is a hint from the directory: beyond 16 M values
        // the vector grows only with what the chunks decode to.
        let mut out = Vec::with_capacity((meta.total_elems as usize).min(1 << 24));
        for i in 0..meta.chunks.len() {
            out.extend_from_slice(&self.read_chunk(name, i)?);
        }
        out.truncate(meta.total_elems as usize);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{NoFilter, SzFilter};
    use crate::index::ChunkIndexEntry;

    /// Write-then-read entirely in memory — the fast-test idiom.
    fn mem_roundtrip(build: impl FnOnce(&H5Writer)) -> H5Reader {
        let (w, mem) = H5Writer::in_memory();
        build(&w);
        w.finish().unwrap();
        H5Reader::from_storage(Box::new(mem)).unwrap()
    }

    #[test]
    fn write_read_raw_dataset() {
        let r = mem_roundtrip(|w| {
            let data: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
            w.write_dataset("a/b", &data, 256, &NoFilter).unwrap();
        });
        assert_eq!(r.dataset_names(), vec!["a/b"]);
        let data: Vec<f64> = (0..1000).map(|i| i as f64 * 0.5).collect();
        assert_eq!(r.read_dataset("a/b").unwrap(), data);
        // 1000 elems at chunk 256 → 4 chunks, last padded to 256 in store.
        let meta = r.meta("a/b").unwrap();
        assert_eq!(meta.chunks.len(), 4);
        assert_eq!(meta.stored_bytes(), 4 * 256 * 8);
    }

    #[test]
    fn sz_filtered_dataset_roundtrip() {
        let data: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.002).sin()).collect();
        let r = {
            let data = data.clone();
            mem_roundtrip(move |w| {
                w.write_dataset("level_0/x", &data, 1024, &SzFilter::one_dimensional(1e-3))
                    .unwrap();
            })
        };
        let back = r.read_dataset("level_0/x").unwrap();
        assert_eq!(back.len(), data.len());
        // REL bound against per-chunk range ≤ global range of 2.
        for (o, v) in data.iter().zip(&back) {
            assert!((o - v).abs() <= 1e-3 * 2.0 + 1e-12);
        }
        assert!(r.meta("level_0/x").unwrap().stored_bytes() < (data.len() * 8) as u64);
    }

    #[test]
    fn size_aware_mode_skips_padding() {
        // One rank holds 4096 values, chunk size forced to 32768 (the
        // biggest-rank scenario of paper Fig. 12).
        let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).cos()).collect();
        let f = SzFilter::one_dimensional(1e-3);
        let chunk = ChunkData {
            data: data.clone(),
            logical: data.len(),
        };
        let r1 = {
            let chunk = chunk.clone();
            mem_roundtrip(move |w| {
                w.write_dataset_chunks(
                    "d",
                    std::slice::from_ref(&chunk),
                    32768,
                    &f,
                    FilterMode::Standard,
                    None,
                )
                .unwrap();
            })
        };
        let r2 = mem_roundtrip(move |w| {
            w.write_dataset_chunks("d", &[chunk], 32768, &f, FilterMode::SizeAware, None)
                .unwrap();
        });
        // Standard mode compressed 8× padding; stored data reflects that.
        assert_eq!(r1.meta("d").unwrap().total_elems, 32768);
        assert_eq!(r2.meta("d").unwrap().total_elems, 4096);
        let back = r2.read_dataset("d").unwrap();
        for (o, v) in data.iter().zip(&back) {
            assert!((o - v).abs() <= 1e-3 * 2.0 + 1e-12);
        }
        // Size-aware read returns exactly the logical data; standard mode
        // returns padding too (first 4096 must still match; the padded
        // chunk's range includes the 0.0 fill).
        let padded = r1.read_dataset("d").unwrap();
        for (o, v) in data.iter().zip(padded.iter().take(4096)) {
            assert!((o - v).abs() <= 1e-3 * 2.0 + 1e-12);
        }
    }

    #[test]
    fn multiple_datasets_and_stats() {
        let (w, mem) = H5Writer::in_memory();
        let data: Vec<f64> = (0..512).map(|i| i as f64).collect();
        w.write_dataset("one", &data, 128, &NoFilter).unwrap();
        w.write_dataset("two", &data, 512, &NoFilter).unwrap();
        let s = w.stats();
        assert_eq!(s.dataset_creates, 2);
        assert_eq!(s.filter_calls, 5); // 4 + 1 chunks
        assert_eq!(s.write_calls, 5);
        assert_eq!(s.bytes_written, (4 * 128 + 512) * 8);
        w.finish().unwrap();
        let r = H5Reader::from_storage(Box::new(mem)).unwrap();
        assert_eq!(r.dataset_names().len(), 2);
        assert_eq!(r.read_dataset("two").unwrap(), data);
    }

    #[test]
    fn duplicate_dataset_rejected() {
        let (w, _mem) = H5Writer::in_memory();
        w.write_dataset("d", &[1.0], 8, &NoFilter).unwrap();
        assert!(matches!(
            w.write_dataset("d", &[2.0], 8, &NoFilter),
            Err(H5Error::Duplicate(_))
        ));
    }

    #[test]
    fn unknown_dataset_errors() {
        let r = mem_roundtrip(|_| {});
        assert!(matches!(r.read_dataset("x"), Err(H5Error::NotFound(_))));
    }

    #[test]
    fn corrupt_footer_detected() {
        let (w, mem) = H5Writer::in_memory();
        w.write_dataset("d", &[1.0, 2.0], 8, &NoFilter).unwrap();
        w.finish().unwrap();
        let mut bytes = mem.to_bytes();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        assert!(H5Reader::from_storage(Box::new(MemStorage::from_bytes(bytes))).is_err());
    }

    #[test]
    fn chunk_out_of_range_is_typed() {
        // Regression: a bad chunk index must surface as the typed
        // `ChunkOutOfRange` carrying the dataset name and index — on the
        // decoding path and the raw path.
        let r = mem_roundtrip(|w| {
            let data: Vec<f64> = (0..512).map(|i| i as f64).collect();
            w.write_dataset("d", &data, 256, &NoFilter).unwrap();
        });
        for result in [r.read_chunk("d", 2).err(), r.read_chunk_raw("d", 7).err()] {
            match result.expect("out-of-range must fail") {
                H5Error::ChunkOutOfRange {
                    dataset,
                    index,
                    count,
                } => {
                    assert_eq!(dataset, "d");
                    assert!(index >= 2);
                    assert_eq!(count, 2);
                }
                other => panic!("expected ChunkOutOfRange, got {other:?}"),
            }
        }
        // In-range chunks still read.
        assert_eq!(r.read_chunk("d", 1).unwrap().len(), 256);
    }

    #[test]
    fn chunk_index_roundtrip_and_pruning() {
        let idx = ChunkIndex::new(vec![
            ChunkIndexEntry::new(crate::index::CODEC_RAW, Some(([0, 0, 0], [7, 7, 3]))),
            ChunkIndexEntry::new(crate::index::CODEC_RAW, Some(([0, 0, 4], [7, 7, 7]))),
        ]);
        let r = {
            let idx = idx.clone();
            mem_roundtrip(move |w| {
                let data: Vec<f64> = (0..512).map(|i| i as f64).collect();
                w.write_dataset("d", &data, 256, &NoFilter).unwrap();
                w.set_chunk_index("d", idx).unwrap();
                // Wrong entry count and unknown dataset are rejected.
                assert!(w.set_chunk_index("d2", ChunkIndex::default()).is_err());
                assert!(matches!(
                    w.set_chunk_index("d", ChunkIndex::default()),
                    Err(H5Error::Format(_)) | Err(H5Error::Duplicate(_))
                ));
                // A dataset registered without an index stays unindexed.
                w.write_dataset("raw", &data, 256, &NoFilter).unwrap();
            })
        };
        let back = r.chunk_index("d").unwrap().expect("index persisted");
        assert_eq!(*back, idx);
        assert_eq!(back.intersecting([0, 0, 0], [7, 7, 2]), vec![0]);
        assert_eq!(back.intersecting([0, 0, 3], [7, 7, 5]), vec![0, 1]);
        assert!(r.chunk_index("raw").unwrap().is_none());
        assert_eq!(r.read_dataset("raw").unwrap().len(), 512);
    }

    #[test]
    fn read_chunk_raw_into_reuses_buffer() {
        let r = mem_roundtrip(|w| {
            let data: Vec<f64> = (0..300).map(|i| i as f64).collect();
            w.write_dataset("d", &data, 128, &NoFilter).unwrap();
        });
        let mut buf = vec![0xAA; 4];
        for i in 0..3 {
            r.read_chunk_raw_into("d", i, &mut buf).unwrap();
            assert_eq!(buf, r.read_chunk_raw("d", i).unwrap(), "chunk {i}");
        }
        assert!(matches!(
            r.read_chunk_raw_into("d", 3, &mut buf),
            Err(H5Error::ChunkOutOfRange { .. })
        ));
    }

    #[test]
    fn finish_twice_errors() {
        let (w, _mem) = H5Writer::in_memory();
        w.finish().unwrap();
        assert!(w.finish().is_err());
    }

    #[test]
    fn set_chunk_index_after_finish_errors() {
        // Regression: the directory is flushed by finish(); a later index
        // registration must fail loudly instead of silently vanishing.
        let (w, _mem) = H5Writer::in_memory();
        w.write_dataset("d", &[1.0, 2.0], 8, &NoFilter).unwrap();
        w.finish().unwrap();
        let idx = ChunkIndex::new(vec![ChunkIndexEntry::new(crate::index::CODEC_RAW, None)]);
        assert!(matches!(
            w.set_chunk_index("d", idx),
            Err(H5Error::Format(_))
        ));
    }

    #[test]
    fn footer_overlapping_dir_offset_is_typed_error() {
        // Regression: a dir_offset pointing inside the 12-byte footer
        // must not underflow into an absurd allocation.
        let (w, mem) = H5Writer::in_memory();
        w.write_dataset("d", &[1.0, 2.0], 8, &NoFilter).unwrap();
        w.finish().unwrap();
        let mut bytes = mem.to_bytes();
        let n = bytes.len();
        for bad_offset in [n as u64 - 11, n as u64 - 1] {
            bytes[n - 12..n - 4].copy_from_slice(&bad_offset.to_le_bytes());
            assert!(
                matches!(
                    H5Reader::from_storage(Box::new(MemStorage::from_bytes(bytes.clone()))),
                    Err(H5Error::Format(_))
                ),
                "offset {bad_offset} of {n} must be rejected"
            );
        }
    }

    #[test]
    fn non_empty_storage_rejected_by_writer() {
        let mem = MemStorage::from_bytes(vec![0u8; 8]);
        mem.reserve(8);
        assert!(matches!(
            H5Writer::with_storage(Box::new(mem)),
            Err(H5Error::Format(_))
        ));
    }
}
