//! Sharded, byte-bounded LRU cache of decompressed chunks — usable as a
//! private per-engine cache or as one **global store shared by every
//! open plotfile in a process** (the `amr-serve` service tier).
//!
//! Decoding a chunk costs a full SZ decompression; analysis workloads
//! (pan a region of interest, step through neighboring slices) hit the
//! same chunks over and over. The cache sits between the query planner
//! and the codecs so repeated or overlapping queries served from one
//! process pay the decode once.
//!
//! Two layers:
//!
//! * [`ChunkStore`] — the storage engine, keyed by [`GlobalChunkKey`].
//!   Keys hash onto independently-locked shards; the byte budget is split
//!   evenly across shards; an insert evicts that shard's
//!   least-recently-used entries until the newcomer fits (the newest
//!   entry of a shard is never evicted by its own insert, so a single
//!   chunk larger than a shard's budget still caches and is first out on
//!   the next insert). Values are `Arc`ed unit-block vectors: eviction
//!   never invalidates data a query is still assembling from. An entry
//!   may hold only some of its chunk's units ([`ChunkUnits`]) — those the
//!   queries that decoded it asked for — and a lookup that needs a unit
//!   the entry lacks is a miss. A file id the owner retired
//!   ([`ChunkStore::retire`]) is refused any further insert.
//! * [`ChunkCache`] — the engine-facing handle: a key prefix (the
//!   *file id*) plus its own atomic hit/miss/insert/evict counters over
//!   a [`ChunkStore`] that may be its own ([`ChunkCache::new`]) or
//!   shared ([`ChunkCache::shared`]). Sharing the store while keeping
//!   counters on the handle is what gives the service tier per-tenant
//!   statistics under one global byte budget.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use sz_codec::Buffer3;

/// Cache key within one plotfile: `(level, field, chunk position)` of a
/// field dataset's chunk (chunk position = writing rank in AMRIC
/// plotfiles).
pub type ChunkKey = (usize, usize, usize);

/// Store-wide key: a [`ChunkKey`] qualified by the owning file's id, so
/// many open plotfiles can share one byte budget without colliding.
pub type GlobalChunkKey = (u64, ChunkKey);

/// A cached decoded chunk: the unit blocks of one rank's chunk, in plan
/// order.
pub type CachedChunk = Arc<Vec<Buffer3>>;

/// A resident chunk as a lookup finds it: the units its entry holds, in
/// plan order, and where each unit of the chunk is among them.
#[derive(Clone, Debug)]
pub struct ChunkUnits {
    units: CachedChunk,
    /// Per unit of the chunk, its position in `units` or [`ABSENT`];
    /// `None` when the entry holds every unit.
    slots: Option<Arc<[u32]>>,
}

/// The slot of a unit an entry does not hold.
const ABSENT: u32 = u32::MAX;

impl ChunkUnits {
    /// Every unit of a chunk.
    pub fn whole(units: CachedChunk) -> Self {
        ChunkUnits { units, slots: None }
    }

    /// The units `resident` and `fresh` hold between them, of a chunk of
    /// `total` units: `fresh` holds newly decoded units by unit-plan
    /// index, none of them one `resident` holds; resident units are
    /// copied.
    pub fn merge(
        resident: Option<&ChunkUnits>,
        fresh: Vec<(usize, Buffer3)>,
        total: usize,
    ) -> Self {
        let old = resident.into_iter().flat_map(ChunkUnits::iter);
        let mut all: Vec<(usize, Buffer3)> =
            old.map(|(i, u)| (i, u.clone())).chain(fresh).collect();
        all.sort_unstable_by_key(|&(i, _)| i);
        let mut slots = vec![ABSENT; total];
        for (at, &(i, _)) in all.iter().enumerate() {
            slots[i] = at as u32;
        }
        ChunkUnits {
            slots: (all.len() != total).then(|| slots.into()),
            units: Arc::new(all.into_iter().map(|(_, u)| u).collect()),
        }
    }

    /// Unit `i` of the chunk, if the entry holds it.
    #[inline]
    pub fn unit(&self, i: usize) -> Option<&Buffer3> {
        match &self.slots {
            None => self.units.get(i),
            Some(slots) => self.units.get(*slots.get(i)? as usize),
        }
    }

    /// The units held, as `(unit-plan index, values)` in plan order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Buffer3)> {
        let n = self.slots.as_ref().map_or(self.units.len(), |s| s.len());
        (0..n).filter_map(|i| Some((i, self.unit(i)?)))
    }

    /// Whether the entry holds every unit `want` lists (`None`: every unit
    /// of the chunk).
    pub fn covers(&self, want: Option<&[u32]>) -> bool {
        match (&self.slots, want) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(slots), Some(want)) => want
                .iter()
                .all(|&u| slots.get(u as usize).is_some_and(|&at| at != ABSENT)),
        }
    }

    /// Every unit of the chunk, if the entry holds them all.
    pub fn into_whole(self) -> Option<CachedChunk> {
        self.slots.is_none().then_some(self.units)
    }
}

/// Snapshot of a cache handle's counters (hits/misses/insertions/
/// evictions are the handle's own; resident/capacity describe the
/// underlying store, which may be shared).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a decode.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Decoded bytes currently resident (whole store).
    pub resident_bytes: u64,
    /// Configured budget in bytes (whole store).
    pub capacity_bytes: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    /// The units held, in plan order.
    value: CachedChunk,
    /// Where each unit is in `value` ([`ChunkUnits`]'s `slots`).
    slots: Option<Arc<[u32]>>,
    bytes: u64,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<GlobalChunkKey, Entry>,
    bytes: u64,
}

/// The sharded LRU storage engine every [`ChunkCache`] handle points at.
/// All methods take `&self`; the store is shared by prefetch workers and,
/// in the service tier, by every open plotfile's engine.
pub struct ChunkStore {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: u64,
    capacity: u64,
    /// Sum of the shards' `bytes`, moved under the shard lock by every
    /// change to one, so reading it locks nothing.
    resident: AtomicU64,
    /// File ids whose inserts are refused ([`ChunkStore::retire`]).
    retired: Mutex<HashSet<u64>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

/// Shard count: enough to keep a handful of prefetch workers off each
/// other's locks without fragmenting small budgets.
const SHARDS: usize = 8;

/// Approximate resident size of a decoded chunk (unit payloads dominate;
/// the accounting ignores per-`Buffer3` header overhead).
pub fn chunk_bytes(units: &[Buffer3]) -> u64 {
    units.iter().map(|u| u.dims().len() as u64 * 8).sum()
}

impl ChunkStore {
    /// Store bounded by `max_bytes` of decoded data (split evenly across
    /// the shards).
    pub fn new(max_bytes: u64) -> Self {
        ChunkStore {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: max_bytes / SHARDS as u64,
            capacity: max_bytes,
            resident: AtomicU64::new(0),
            retired: Mutex::new(HashSet::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &GlobalChunkKey) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Carry a shard's change from `before` to `after` bytes into the
    /// store-wide total; called with that shard's lock held.
    fn account(&self, before: u64, after: u64) {
        if after >= before {
            self.resident.fetch_add(after - before, Ordering::Relaxed);
        } else {
            self.resident.fetch_sub(before - after, Ordering::Relaxed);
        }
    }

    /// Look a whole chunk up, refreshing its recency on a hit; an entry
    /// that lacks a unit is a miss.
    pub fn get(&self, key: &GlobalChunkKey) -> Option<CachedChunk> {
        self.lookup(key, None).ok().and_then(ChunkUnits::into_whole)
    }

    /// Look up the units `want` lists of a chunk (ascending unit-plan
    /// indices; `None`: every unit). A hit — the entry holds them all —
    /// refreshes its recency; otherwise the miss carries the resident
    /// entry, if any, so the caller decodes only what it lacks.
    pub fn lookup(
        &self,
        key: &GlobalChunkKey,
        want: Option<&[u32]>,
    ) -> Result<ChunkUnits, Option<ChunkUnits>> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_for(key).lock();
        let Some(e) = shard.entries.get_mut(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Err(None);
        };
        let units = ChunkUnits {
            units: Arc::clone(&e.value),
            slots: e.slots.clone(),
        };
        if units.covers(want) {
            e.last_used = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            Ok(units)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            Err(Some(units))
        }
    }

    /// Insert a whole decoded chunk: [`ChunkStore::insert_units`], 0
    /// evictions when the key's file id is retired.
    pub fn insert(&self, key: GlobalChunkKey, value: CachedChunk) -> u64 {
        self.insert_units(key, ChunkUnits::whole(value))
            .unwrap_or(0)
    }

    /// Insert a chunk's units, replacing the key's entry and evicting the
    /// shard's least-recently-used entries until it fits (the newcomer
    /// itself is never evicted by its own insert). Returns the number of
    /// entries evicted to make room, or `None` — nothing stored — when
    /// the key's file id is retired.
    pub fn insert_units(&self, key: GlobalChunkKey, units: ChunkUnits) -> Option<u64> {
        let ChunkUnits {
            units: value,
            slots,
        } = units;
        let bytes = chunk_bytes(&value);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_for(&key).lock();
        // Under the shard lock: a retire either sees this entry in its
        // purge or is seen here.
        if self.retired.lock().contains(&key.0) {
            return None;
        }
        let before = shard.bytes;
        if let Some(old) = shard.entries.remove(&key) {
            shard.bytes -= old.bytes;
        }
        let mut evicted_here = 0u64;
        while shard.bytes + bytes > self.shard_capacity && !shard.entries.is_empty() {
            let victim = *shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
                .expect("non-empty shard");
            let evicted = shard.entries.remove(&victim).expect("victim present");
            shard.bytes -= evicted.bytes;
            evicted_here += 1;
        }
        shard.bytes += bytes;
        shard.entries.insert(
            key,
            Entry {
                value,
                slots,
                bytes,
                last_used: stamp,
            },
        );
        self.account(before, shard.bytes);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted_here, Ordering::Relaxed);
        Some(evicted_here)
    }

    /// Retire the file ids `ids`: refuse every later insert under them
    /// and drop their resident entries, returning the count removed. An
    /// engine whose id is retired still answers — from what it decodes,
    /// no longer cached.
    pub fn retire(&self, ids: &[u64]) -> u64 {
        self.retired.lock().extend(ids.iter().copied());
        self.remove_matching(|(f, _)| ids.contains(f))
    }

    /// Drop every entry whose key matches `pred`; returns the count
    /// removed. The service catalog uses this to invalidate a stale
    /// file's chunks when a plotfile is reopened under a new generation.
    pub fn remove_matching(&self, pred: impl Fn(&GlobalChunkKey) -> bool) -> u64 {
        let mut removed = 0u64;
        for s in &self.shards {
            let mut s = s.lock();
            let before = s.bytes;
            let victims: Vec<GlobalChunkKey> =
                s.entries.keys().filter(|k| pred(k)).copied().collect();
            for k in victims {
                let e = s.entries.remove(&k).expect("listed key present");
                s.bytes -= e.bytes;
                removed += 1;
            }
            self.account(before, s.bytes);
        }
        removed
    }

    /// Store-wide counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes(),
            capacity_bytes: self.capacity,
        }
    }

    /// Decoded bytes currently resident across all shards (no shard lock
    /// taken).
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }
}

/// Engine-facing cache handle: a file-id key prefix plus per-handle
/// counters over a [`ChunkStore`].
///
/// Every [`crate::QueryEngine`] owns one handle. With
/// [`ChunkCache::new`] the handle is file id 0 over a store of its own:
/// the classic per-engine cache. With [`ChunkCache::shared`] many
/// engines point at one store under one global byte budget while each
/// handle still counts its own hits/misses/insertions/evictions — the
/// per-tenant statistics the service tier reports.
pub struct ChunkCache {
    store: Arc<ChunkStore>,
    file_id: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ChunkCache {
    /// Cache bounded by `max_bytes` of decoded data: file id 0 over a
    /// fresh store.
    pub fn new(max_bytes: u64) -> Self {
        ChunkCache::shared(Arc::new(ChunkStore::new(max_bytes)), 0)
    }

    /// Handle into a shared store, qualifying every key with `file_id`.
    /// Distinct open files (and distinct generations of the same path)
    /// must use distinct ids; the catalog allocates them.
    pub fn shared(store: Arc<ChunkStore>, file_id: u64) -> Self {
        ChunkCache {
            store,
            file_id,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look a whole chunk up, refreshing its recency on a hit.
    pub fn get(&self, key: &ChunkKey) -> Option<CachedChunk> {
        self.lookup(key, None).ok().and_then(ChunkUnits::into_whole)
    }

    /// Look up the units `want` lists of a chunk ([`ChunkStore::lookup`]).
    pub fn lookup(
        &self,
        key: &ChunkKey,
        want: Option<&[u32]>,
    ) -> Result<ChunkUnits, Option<ChunkUnits>> {
        let got = self.store.lookup(&(self.file_id, *key), want);
        match &got {
            Ok(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Insert a whole decoded chunk.
    pub fn insert(&self, key: ChunkKey, value: CachedChunk) {
        self.insert_units(key, ChunkUnits::whole(value));
    }

    /// Insert a chunk's units (evictions it causes are charged to this
    /// handle; nothing is stored once the store retired the handle's file
    /// id).
    pub fn insert_units(&self, key: ChunkKey, units: ChunkUnits) {
        if let Some(evicted) = self.store.insert_units((self.file_id, key), units) {
            self.insertions.fetch_add(1, Ordering::Relaxed);
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Handle-local counter snapshot over store-wide residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.store.resident_bytes(),
            capacity_bytes: self.store.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sz_codec::Dims3;

    fn chunk(cells: usize, tag: f64) -> CachedChunk {
        Arc::new(vec![Buffer3::from_vec(
            Dims3::new(cells, 1, 1),
            vec![tag; cells],
        )])
    }

    #[test]
    fn hit_miss_accounting() {
        let c = ChunkCache::new(1 << 20);
        assert!(c.get(&(0, 0, 0)).is_none());
        c.insert((0, 0, 0), chunk(16, 1.0));
        let v = c.get(&(0, 0, 0)).expect("hit");
        assert_eq!(v[0].data()[0], 1.0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.resident_bytes, 16 * 8);
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        // One shard's budget holds two 64-cell chunks; pin every key to
        // the same shard by brute-force search (the store hashes the
        // global `(file_id, key)` tuple; `ChunkCache::new` uses id 0).
        let c = ChunkCache::new((64 * 8 * 2) * SHARDS as u64);
        let shard_of = |key: &ChunkKey| {
            let mut h = DefaultHasher::new();
            (0u64, *key).hash(&mut h);
            (h.finish() as usize) % SHARDS
        };
        let keys: Vec<ChunkKey> = (0..1000usize)
            .map(|i| (i, 0, 0))
            .filter(|k| shard_of(k) == 0)
            .take(3)
            .collect();
        assert_eq!(keys.len(), 3);
        c.insert(keys[0], chunk(64, 0.0));
        c.insert(keys[1], chunk(64, 1.0));
        // Touch keys[0] so keys[1] is the LRU when keys[2] arrives.
        assert!(c.get(&keys[0]).is_some());
        c.insert(keys[2], chunk(64, 2.0));
        assert!(c.get(&keys[0]).is_some(), "recently used entry survives");
        assert!(c.get(&keys[1]).is_none(), "LRU entry evicted");
        assert!(c.get(&keys[2]).is_some(), "newcomer resident");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_entry_still_caches() {
        let c = ChunkCache::new(64); // 8 bytes per shard
        c.insert((0, 0, 0), chunk(100, 3.0));
        assert!(c.get(&(0, 0, 0)).is_some());
        // The next insert into the same shard evicts it.
        let s = c.stats();
        assert_eq!(s.insertions, 1);
        assert!(s.resident_bytes > 64);
    }

    #[test]
    fn shared_store_isolates_files_and_counters() {
        let store: Arc<ChunkStore> = Arc::new(ChunkStore::new(1 << 20));
        let a = ChunkCache::shared(Arc::clone(&store), 1);
        let b = ChunkCache::shared(Arc::clone(&store), 2);
        a.insert((0, 0, 0), chunk(16, 1.0));
        // Same chunk key, different file id: b must not see a's entry.
        assert!(b.get(&(0, 0, 0)).is_none());
        b.insert((0, 0, 0), chunk(16, 2.0));
        assert_eq!(a.get(&(0, 0, 0)).expect("a's entry")[0].data()[0], 1.0);
        assert_eq!(b.get(&(0, 0, 0)).expect("b's entry")[0].data()[0], 2.0);
        // Handle counters are per-tenant; the store aggregates.
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!((sa.hits, sa.misses, sa.insertions), (1, 0, 1));
        assert_eq!((sb.hits, sb.misses, sb.insertions), (1, 1, 1));
        let g = store.stats();
        assert_eq!((g.hits, g.misses, g.insertions), (2, 1, 2));
        // Both files' bytes count against the one budget.
        assert_eq!(g.resident_bytes, 2 * 16 * 8);
    }

    #[test]
    fn remove_matching_invalidates_a_generation() {
        let store: Arc<ChunkStore> = Arc::new(ChunkStore::new(1 << 20));
        let old = ChunkCache::shared(Arc::clone(&store), 3);
        for r in 0..5 {
            old.insert((0, 0, r), chunk(8, r as f64));
        }
        assert_eq!(store.remove_matching(|(f, _)| *f == 3), 5);
        assert_eq!(store.resident_bytes(), 0);
        assert!(old.get(&(0, 0, 0)).is_none());
    }

    #[test]
    fn a_lookup_hits_only_where_the_entry_holds_every_wanted_unit() {
        let c = ChunkCache::new(1 << 20);
        let unit = |tag: f64| Buffer3::from_vec(Dims3::new(4, 1, 1), vec![tag; 4]);
        let part = ChunkUnits::merge(None, vec![(1, unit(1.0)), (3, unit(3.0))], 5);
        c.insert_units((0, 0, 0), part);
        assert!(c.lookup(&(0, 0, 0), Some(&[1, 3])).is_ok());
        let resident = c.lookup(&(0, 0, 0), Some(&[1, 2])).unwrap_err();
        let resident = resident.expect("the partial entry comes with the miss");
        assert!(
            c.get(&(0, 0, 0)).is_none(),
            "a partial entry is no whole chunk"
        );
        assert_eq!(resident.unit(3).map(|u| u.data()[0]), Some(3.0));
        assert!(resident.unit(2).is_none() && resident.unit(9).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.resident_bytes), (1, 2, 2 * 4 * 8));
        // The missing units beside the resident ones make the chunk whole.
        let rest = vec![(0, unit(0.0)), (2, unit(2.0)), (4, unit(4.0))];
        c.insert_units((0, 0, 0), ChunkUnits::merge(Some(&resident), rest, 5));
        let whole = c.get(&(0, 0, 0)).expect("whole");
        let tags: Vec<f64> = whole.iter().map(|u| u.data()[0]).collect();
        assert_eq!(tags, [0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.stats().resident_bytes, 5 * 4 * 8);
    }

    #[test]
    fn a_retired_file_id_is_purged_and_refused() {
        let store = Arc::new(ChunkStore::new(1 << 20));
        let old = ChunkCache::shared(Arc::clone(&store), 1);
        let new = ChunkCache::shared(Arc::clone(&store), 2);
        old.insert((0, 0, 0), chunk(16, 1.0));
        new.insert((0, 0, 0), chunk(16, 2.0));
        assert_eq!(store.retire(&[1]), 1);
        old.insert((0, 0, 1), chunk(16, 1.0));
        assert!(old.get(&(0, 0, 1)).is_none());
        assert_eq!(old.stats().insertions, 1, "a refused insert is not counted");
        assert_eq!(store.resident_bytes(), 16 * 8);
        new.insert((0, 0, 1), chunk(16, 2.0));
        assert_eq!(store.resident_bytes(), 2 * 16 * 8);
    }

    /// The store's resident total against its entries, summed afresh.
    fn assert_resident_is_entry_sum(store: &ChunkStore, what: &str) {
        let sum: u64 = store
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .entries
                    .values()
                    .map(|e| chunk_bytes(&e.value))
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(store.resident_bytes(), sum, "{what}");
    }

    #[test]
    fn resident_total_follows_every_shard_change() {
        // Two 64-cell chunks fill a shard; three keys of shard 0.
        let store = ChunkStore::new((64 * 8 * 2) * SHARDS as u64);
        let keys: Vec<GlobalChunkKey> = (0..1000usize)
            .map(|i| (1, (i, 0, 0)))
            .filter(|k| std::ptr::eq(store.shard_for(k), &store.shards[0]))
            .take(3)
            .collect();
        assert_eq!(keys.len(), 3);
        store.insert(keys[0], chunk(64, 0.0));
        store.insert(keys[1], chunk(32, 1.0));
        assert_resident_is_entry_sum(&store, "insert");
        store.insert(keys[1], chunk(48, 1.5));
        assert_resident_is_entry_sum(&store, "re-insert of the same key");
        assert_eq!(store.insert(keys[2], chunk(64, 2.0)), 1);
        assert_resident_is_entry_sum(&store, "eviction");
        store.insert((2, (0, 0, 0)), chunk(16, 3.0));
        assert_eq!(store.remove_matching(|(f, _)| *f == 1), 2);
        assert_resident_is_entry_sum(&store, "remove_matching");
        assert_eq!(store.resident_bytes(), 16 * 8);
    }
}
