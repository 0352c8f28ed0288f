//! The plotfile catalog: a pool of open [`QueryEngine`]s keyed by
//! `(path, generation)`, all sharing one byte-budgeted chunk store.
//!
//! * **Generation validation** — every open stats the file; the engine
//!   is reused only while `(len, mtime, content fingerprint)` match
//!   what it was opened
//!   against. A rewritten plotfile (in-situ pipelines overwrite
//!   snapshots in place) is detected on the next open: the stale
//!   engine is dropped, its cached chunks are purged from the shared
//!   store, and a fresh engine under a fresh file id takes its place.
//! * **Shared budget** — each engine gets a [`amr_query::ChunkCache`]
//!   handle into the catalog's one [`ChunkStore`], so a single byte
//!   budget governs every open file while hit/miss accounting stays
//!   per file (the per-tenant stats the server reports).
//! * **Idle LRU eviction** — when the open-file bound is exceeded, the
//!   least-recently-opened engines *not referenced by any connection*
//!   (`Arc` strong count of 1) are dropped, chunks included. Engines a
//!   connection still holds are never evicted under it — the bound is
//!   soft under pathological concurrency and the eviction counter says
//!   when that happened.

use amr_query::{ChunkStore, QueryEngine, ShardedLru};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity stamp of a file's content as the catalog validates it: byte
/// length, mtime in nanoseconds since the epoch, and a sampled content
/// fingerprint.
///
/// `(len, mtime_ns)` alone misses back-to-back rewrites: an in-situ
/// pipeline that rewrites a same-length snapshot within the filesystem's
/// mtime granularity (whole seconds on some filesystems) produces an
/// identical stamp over different bytes. The fingerprint hashes the head,
/// tail, and strided interior probes of the file so such rewrites change
/// the stamp without the catalog reading the whole file on every open.
/// Changes confined entirely to unsampled interior byte ranges with the
/// stat stamp also unchanged can still slip through — the probes bound
/// the open cost, not a cryptographic guarantee.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Generation {
    /// File length in bytes.
    pub len: u64,
    /// Modification time, nanoseconds since `UNIX_EPOCH` (0 when the
    /// filesystem reports none).
    pub mtime_ns: u64,
    /// FNV-1a hash over the length and sampled content regions.
    pub fingerprint: u64,
}

/// Bytes hashed at each end of the file.
const FINGERPRINT_EDGE_PROBE: usize = 4096;
/// Number and size of evenly spaced interior probes.
const FINGERPRINT_INTERIOR_PROBES: u64 = 8;
const FINGERPRINT_INTERIOR_PROBE_LEN: usize = 512;

impl Generation {
    /// Stat `path` (and sample its content) into a generation stamp.
    pub fn of(path: &Path) -> std::io::Result<Generation> {
        let md = std::fs::metadata(path)?;
        Ok(Generation {
            len: md.len(),
            mtime_ns: md
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos() as u64),
            fingerprint: content_fingerprint(path, md.len())?,
        })
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Hash the file's length plus head/tail/interior samples. Small files
/// (up to both edge probes) are hashed in full. Concurrent rewrites may
/// shrink the file between stat and read; short reads hash what arrived.
fn content_fingerprint(path: &Path, len: u64) -> std::io::Result<u64> {
    use std::io::{Read, Seek, SeekFrom};
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, &len.to_le_bytes());
    let mut f = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 2 * FINGERPRINT_EDGE_PROBE];
    let mut probe = |f: &mut std::fs::File, offset: u64, want: usize, h: &mut u64| {
        if f.seek(SeekFrom::Start(offset)).is_ok() {
            let mut read = 0;
            while read < want {
                match f.read(&mut buf[read..want]) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => read += n,
                }
            }
            fnv1a(h, &buf[..read]);
        }
    };
    if len <= 2 * FINGERPRINT_EDGE_PROBE as u64 {
        probe(&mut f, 0, len as usize, &mut h);
        return Ok(h);
    }
    probe(&mut f, 0, FINGERPRINT_EDGE_PROBE, &mut h);
    for i in 0..FINGERPRINT_INTERIOR_PROBES {
        let offset = (len / (FINGERPRINT_INTERIOR_PROBES + 1)) * (i + 1);
        probe(&mut f, offset, FINGERPRINT_INTERIOR_PROBE_LEN, &mut h);
    }
    probe(
        &mut f,
        len - FINGERPRINT_EDGE_PROBE as u64,
        FINGERPRINT_EDGE_PROBE,
        &mut h,
    );
    Ok(h)
}

/// One open plotfile: the engine plus the identity it was opened under.
pub struct CatalogEntry {
    /// Path as opened.
    pub path: PathBuf,
    /// Shared-store key prefix allocated for this open.
    pub file_id: u64,
    /// Generation the engine was validated against.
    pub generation: Generation,
    /// The shared engine (queries take `&self`; clone the `Arc` freely).
    pub engine: Arc<QueryEngine>,
    /// Plane / region / ROI requests served from this entry, in that order
    /// (planned serving bypasses the engine's per-entry-point counters).
    pub served: [AtomicU64; 3],
    /// LRU stamp (catalog-internal).
    last_used: AtomicU64,
}

/// Catalog counters snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Files currently open.
    pub open_files: u64,
    /// Opens that built a new engine.
    pub opens: u64,
    /// Opens served by an existing engine.
    pub open_hits: u64,
    /// Opens that found a stale generation and invalidated it.
    pub reopens_stale: u64,
    /// Idle engines evicted to respect the open-file bound.
    pub evicted_idle: u64,
}

/// The engine pool. All methods take `&self`.
pub struct Catalog {
    store: Arc<ChunkStore>,
    entries: Mutex<HashMap<PathBuf, Arc<CatalogEntry>>>,
    clock: AtomicU64,
    next_file_id: AtomicU64,
    max_open: usize,
    workers: usize,
    opens: AtomicU64,
    open_hits: AtomicU64,
    reopens_stale: AtomicU64,
    evicted_idle: AtomicU64,
}

impl Catalog {
    /// Take the entries guard, recovering from poisoning: a worker that
    /// panicked while holding the lock must not wedge every subsequent
    /// request. The map is only ever mutated through insert/remove, both
    /// of which leave it structurally sound even if the panicking thread
    /// died mid-`open`, so the inner value is safe to adopt.
    fn lock_entries(&self) -> std::sync::MutexGuard<'_, HashMap<PathBuf, Arc<CatalogEntry>>> {
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Catalog whose engines share one `cache_bytes` store, keeping at
    /// most `max_open` idle engines and fetching with `workers` prefetch
    /// workers per engine.
    pub fn new(cache_bytes: u64, max_open: usize, workers: usize) -> Self {
        Catalog {
            store: Arc::new(ShardedLru::new(cache_bytes)),
            entries: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            next_file_id: AtomicU64::new(1),
            max_open: max_open.max(1),
            workers: workers.max(1),
            opens: AtomicU64::new(0),
            open_hits: AtomicU64::new(0),
            reopens_stale: AtomicU64::new(0),
            evicted_idle: AtomicU64::new(0),
        }
    }

    /// The shared chunk store every engine in the pool uses.
    pub fn store(&self) -> &Arc<ChunkStore> {
        &self.store
    }

    /// Open `path`, reusing the pooled engine while the file's
    /// generation matches; a stale generation is invalidated (engine
    /// dropped, cached chunks purged) and reopened fresh.
    pub fn open(&self, path: &Path) -> Result<Arc<CatalogEntry>, amr_query::QueryError> {
        let generation = Generation::of(path).map_err(h5lite::H5Error::Io)?;
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.lock_entries();
        if let Some(entry) = entries.get(path) {
            if entry.generation == generation {
                entry.last_used.store(stamp, Ordering::Relaxed);
                self.open_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(entry));
            }
            // Same path, different bytes: the snapshot was rewritten.
            // Purge the stale generation's chunks so the shared budget
            // never serves bytes from a file that no longer exists.
            let stale = entries.remove(path).expect("entry just observed");
            self.store.remove_matching(|(fid, _)| *fid == stale.file_id);
            self.reopens_stale.fetch_add(1, Ordering::Relaxed);
        }
        // Respect the open-file bound before adding a new engine: drop
        // idle entries (no connection holds them) oldest-first.
        while entries.len() >= self.max_open {
            let victim = entries
                .iter()
                .filter(|(_, e)| Arc::strong_count(e) == 1)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(p, _)| p.clone());
            match victim {
                Some(p) => {
                    let evicted = entries.remove(&p).expect("victim present");
                    self.store
                        .remove_matching(|(fid, _)| *fid == evicted.file_id);
                    self.evicted_idle.fetch_add(1, Ordering::Relaxed);
                }
                // Every entry is in use: exceed the bound rather than
                // fail the open (soft bound; the stats surface shows it).
                None => break,
            }
        }
        let file_id = self.next_file_id.fetch_add(1, Ordering::Relaxed);
        let engine = QueryEngine::open(path)?
            .with_shared_cache(Arc::clone(&self.store), file_id)
            .with_workers(self.workers);
        let entry = Arc::new(CatalogEntry {
            path: path.to_path_buf(),
            file_id,
            generation,
            engine: Arc::new(engine),
            served: Default::default(),
            last_used: AtomicU64::new(stamp),
        });
        entries.insert(path.to_path_buf(), Arc::clone(&entry));
        self.opens.fetch_add(1, Ordering::Relaxed);
        Ok(entry)
    }

    /// Snapshot of every open entry (stats reporting).
    pub fn entries(&self) -> Vec<Arc<CatalogEntry>> {
        let entries = self.lock_entries();
        let mut v: Vec<_> = entries.values().cloned().collect();
        v.sort_by_key(|e| e.file_id);
        v
    }

    /// Counter snapshot. Every counter is read while the entries guard
    /// is held: `open` bumps the counters under that same guard, so the
    /// snapshot is a consistent point-in-time view — `open_files` can
    /// never disagree with the opens/evictions that produced it.
    pub fn stats(&self) -> CatalogStats {
        let entries = self.lock_entries();
        CatalogStats {
            open_files: entries.len() as u64,
            opens: self.opens.load(Ordering::Relaxed),
            open_hits: self.open_hits.load(Ordering::Relaxed),
            reopens_stale: self.reopens_stale.load(Ordering::Relaxed),
            evicted_idle: self.evicted_idle.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_apps::prelude::*;

    fn write_plotfile(path: &Path) {
        let s = NyxScenario::new(7);
        let cfg = AmrRunConfig {
            coarse_dims: (16, 16, 16),
            max_grid_size: 8,
            blocking_factor: 8,
            nranks: 2,
            num_levels: 2,
            fine_fraction: 0.05,
            grid_eff: 0.7,
        };
        let h = build_hierarchy(&s, &cfg, 0.0);
        amric::writer::write_amric(path, &h, &amric::AmricConfig::lr(1e-3), 8).unwrap();
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "amr-serve-catalog-{}-{name}.h5l",
            std::process::id()
        ));
        p
    }

    /// Panic a thread while it holds the catalog's entries mutex,
    /// poisoning it.
    fn poison(cat: &Arc<Catalog>) {
        let c = Arc::clone(cat);
        let t = std::thread::spawn(move || {
            let _guard = c.entries.lock().unwrap();
            panic!("worker dies holding the catalog lock");
        });
        assert!(t.join().is_err());
        assert!(cat.entries.lock().is_err(), "mutex should be poisoned");
    }

    #[test]
    fn poisoned_catalog_lock_does_not_wedge_the_server() {
        let path = tmp("poison");
        write_plotfile(&path);
        let cat = Arc::new(Catalog::new(8 << 20, 4, 1));
        let first = cat.open(&path).unwrap();
        poison(&cat);
        // Every entry point recovers instead of propagating the panic:
        // stats, the entries snapshot, and a fresh open (cache hit).
        assert_eq!(cat.stats().open_files, 1);
        assert_eq!(cat.entries().len(), 1);
        let again = cat.open(&path).unwrap();
        assert_eq!(again.file_id, first.file_id);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_open_files_matches_entries_snapshot() {
        let a = tmp("stats-a");
        let b = tmp("stats-b");
        write_plotfile(&a);
        write_plotfile(&b);
        let cat = Catalog::new(8 << 20, 4, 1);
        cat.open(&a).unwrap();
        cat.open(&b).unwrap();
        cat.open(&a).unwrap();
        let st = cat.stats();
        assert_eq!(st.open_files, cat.entries().len() as u64);
        assert_eq!(st.open_files, 2);
        assert_eq!(st.opens, 2);
        assert_eq!(st.open_hits, 1);
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }
}
