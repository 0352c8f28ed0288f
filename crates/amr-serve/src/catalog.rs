//! The plotfile catalog: a pool of open [`QueryEngine`]s keyed by
//! `(path, generation)`, all sharing one byte-budgeted chunk store.
//!
//! * **Generation validation** — every open stats the file; the engine
//!   is reused only while `(len, mtime, content fingerprint)` match
//!   what it was opened
//!   against. A rewritten plotfile (in-situ pipelines overwrite
//!   snapshots in place) is detected on the next open: the stale
//!   engine is dropped, its file id is retired from the shared store
//!   (its cached chunks purged, and a connection still holding the
//!   engine decodes without caching), and a fresh engine under a fresh
//!   file id takes its place.
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

use amr_query::{ChunkStore, QueryEngine};
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

/// What the entries guard holds: the open entries by path, and the
/// counters `open` moves with them (`stats.open_files` stays 0: the map's
/// length is the count).
#[derive(Default)]
struct Pool {
    map: HashMap<PathBuf, Arc<CatalogEntry>>,
    stats: CatalogStats,
}

impl Pool {
    /// The entry of `path` if it was opened under `generation`, stamped
    /// and counted as an open hit.
    fn hit(
        &mut self,
        path: &Path,
        generation: Generation,
        stamp: u64,
    ) -> Option<Arc<CatalogEntry>> {
        let entry = self.map.get(path).filter(|e| e.generation == generation)?;
        entry.last_used.store(stamp, Ordering::Relaxed);
        self.stats.open_hits += 1;
        Some(Arc::clone(entry))
    }
}

/// The engine pool. All methods take `&self`.
pub struct Catalog {
    store: Arc<ChunkStore>,
    entries: Mutex<Pool>,
    clock: AtomicU64,
    next_file_id: AtomicU64,
    max_open: usize,
}

impl Catalog {
    /// Take the entries guard, recovering from poisoning: a worker that
    /// panicked while holding the lock must not wedge every subsequent
    /// request. The map is only ever mutated through insert/remove, both
    /// of which leave it structurally sound even if the panicking thread
    /// died mid-`open`, so the inner value is safe to adopt.
    fn lock_entries(&self) -> std::sync::MutexGuard<'_, Pool> {
        self.entries.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Catalog whose engines share one `cache_bytes` store, keeping at
    /// most `max_open` idle engines.
    pub fn new(cache_bytes: u64, max_open: usize) -> Self {
        Catalog {
            store: Arc::new(ChunkStore::new(cache_bytes)),
            entries: Mutex::default(),
            clock: AtomicU64::new(0),
            next_file_id: AtomicU64::new(1),
            max_open: max_open.max(1),
        }
    }

    /// The shared chunk store every engine in the pool uses.
    pub fn store(&self) -> &Arc<ChunkStore> {
        &self.store
    }

    /// Open `path`, reusing the pooled engine while the file's
    /// generation matches; a stale generation is invalidated (engine
    /// dropped, cached chunks purged) and reopened fresh.
    ///
    /// Two short sections hold the entries guard: the hit check, and the
    /// insert with its stale and idle evictions. The engine open and the
    /// store purge (all eight shard locks) run outside it, so a slow open
    /// never stalls the opens, hits and stats of other files. When a
    /// concurrent opener of the same path and generation inserts first,
    /// its entry is returned (an open hit) and this engine dropped.
    pub fn open(&self, path: &Path) -> Result<Arc<CatalogEntry>, amr_query::QueryError> {
        let generation = Generation::of(path).map_err(h5lite::H5Error::Io)?;
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        if let Some(entry) = self.lock_entries().hit(path, generation, stamp) {
            return Ok(entry);
        }
        let file_id = self.next_file_id.fetch_add(1, Ordering::Relaxed);
        let engine = QueryEngine::open(path)?.with_shared_cache(Arc::clone(&self.store), file_id);
        let entry = Arc::new(CatalogEntry {
            path: path.to_path_buf(),
            file_id,
            generation,
            engine: Arc::new(engine),
            served: Default::default(),
            last_used: AtomicU64::new(stamp),
        });
        let mut pool = self.lock_entries();
        if let Some(entry) = pool.hit(path, generation, stamp) {
            return Ok(entry);
        }
        pool.stats.opens += 1;
        let mut purge = Vec::new();
        // Same path, different bytes: the snapshot was rewritten.
        if let Some(stale) = pool.map.remove(path) {
            purge.push(stale.file_id);
            pool.stats.reopens_stale += 1;
        }
        // Respect the open-file bound: drop idle entries (no connection
        // holds them) oldest-first.
        while pool.map.len() >= self.max_open {
            let victim = pool
                .map
                .iter()
                .filter(|(_, e)| Arc::strong_count(e) == 1)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(p, _)| p.clone());
            // Every entry is in use: exceed the bound rather than fail the
            // open (soft bound; the stats surface shows it).
            let Some(p) = victim else { break };
            purge.push(pool.map.remove(&p).expect("victim present").file_id);
            pool.stats.evicted_idle += 1;
        }
        pool.map.insert(path.to_path_buf(), Arc::clone(&entry));
        drop(pool);
        // The shared budget must never serve bytes of a dropped entry, nor
        // take new ones from a connection still holding its engine.
        if !purge.is_empty() {
            self.store.retire(&purge);
        }
        Ok(entry)
    }

    /// Snapshot of every open entry (stats reporting).
    pub fn entries(&self) -> Vec<Arc<CatalogEntry>> {
        let mut v: Vec<_> = self.lock_entries().map.values().cloned().collect();
        v.sort_by_key(|e| e.file_id);
        v
    }

    /// Counter snapshot. The counters live beside the map under the one
    /// entries guard, so the snapshot is a consistent point-in-time view —
    /// `open_files` can never disagree with the opens/evictions that
    /// produced it.
    pub fn stats(&self) -> CatalogStats {
        let pool = self.lock_entries();
        CatalogStats {
            open_files: pool.map.len() as u64,
            ..pool.stats
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
        let cat = Arc::new(Catalog::new(8 << 20, 4));
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
    fn concurrent_first_opens_share_one_engine() {
        const N: usize = 8;
        let path = tmp("concurrent");
        write_plotfile(&path);
        let cat = Catalog::new(8 << 20, 4);
        let start = std::sync::Barrier::new(N);
        let ids: Vec<u64> = std::thread::scope(|s| {
            let opens: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cat.open(&path).unwrap().file_id
                    })
                })
                .collect();
            opens.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let entries = cat.entries();
        assert_eq!(entries.len(), 1);
        assert!(ids.iter().all(|&id| id == entries[0].file_id), "{ids:?}");
        let st = cat.stats();
        assert_eq!(st.opens, 1);
        assert_eq!(st.opens + st.open_hits, N as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_opens_of_distinct_paths_keep_the_bound() {
        // The pool is full of idle entries; as many new paths as the bound
        // open at once. Each opener checks the bound again when it
        // inserts, so the pool ends at the bound, never past it. Rounds
        // repeat the race.
        const M: usize = 4;
        let paths: Vec<PathBuf> = (0..2 * M).map(|i| tmp(&format!("distinct-{i}"))).collect();
        paths.iter().for_each(|p| write_plotfile(p));
        for round in 0..16 {
            let cat = Catalog::new(8 << 20, M);
            for p in &paths[..M] {
                cat.open(p).unwrap();
            }
            let start = std::sync::Barrier::new(M);
            std::thread::scope(|s| {
                for p in &paths[M..] {
                    let (cat, start) = (&cat, &start);
                    s.spawn(move || {
                        start.wait();
                        cat.open(p).unwrap();
                    });
                }
            });
            let st = cat.stats();
            assert_eq!(cat.entries().len(), M, "round {round}");
            assert_eq!((st.opens, st.evicted_idle), (2 * M as u64, M as u64));
        }
        paths.iter().for_each(|p| std::fs::remove_file(p).unwrap());
    }

    #[test]
    fn a_connection_holding_a_retired_engine_does_not_grow_the_store() {
        let path = tmp("retired");
        write_plotfile(&path);
        let cat = Catalog::new(8 << 20, 4);
        let held = cat.open(&path).unwrap();
        let roi = amr_mesh::prelude::IntBox::from_extents(12, 16, 9);
        let query = || {
            held.engine
                .roi(1, roi, amr_query::LevelSelect::All)
                .unwrap()
        };
        let before = query();
        // The same bytes under a new mtime: a new generation.
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        let mtime = file.metadata().unwrap().modified().unwrap();
        file.set_modified(mtime + std::time::Duration::from_secs(1))
            .unwrap();
        let fresh = cat.open(&path).unwrap();
        assert_ne!(fresh.file_id, held.file_id);
        assert_eq!(cat.store().resident_bytes(), 0, "the stale entry is purged");
        // The held engine still answers, decoding what it needs, and
        // stores none of it under its retired id.
        let insertions = held.engine.cache_stats().insertions;
        let after = query();
        assert_eq!(cat.store().resident_bytes(), 0);
        assert_eq!(held.engine.cache_stats().insertions, insertions);
        assert!(held.engine.stats().chunks_decoded > 0);
        assert_eq!(before.levels.len(), after.levels.len());
        for (a, b) in before.levels.iter().zip(&after.levels) {
            let bits = |l: &amr_query::LevelRegion| {
                l.data
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(a), bits(b), "level {}", a.level);
        }
        // The fresh engine caches as before.
        fresh
            .engine
            .roi(1, roi, amr_query::LevelSelect::All)
            .unwrap();
        assert!(cat.store().resident_bytes() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_open_files_matches_entries_snapshot() {
        let a = tmp("stats-a");
        let b = tmp("stats-b");
        write_plotfile(&a);
        write_plotfile(&b);
        let cat = Catalog::new(8 << 20, 4);
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
