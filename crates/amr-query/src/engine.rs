//! [`QueryEngine`]: answer spatial/level queries against an AMRIC
//! plotfile by reading only the chunks that intersect the query and
//! reconstructing only the units of them that it meets.
//!
//! # A query is planned once
//!
//! The stored chunk is large by design (one per rank per field, paper
//! §3.3) and every unit position is re-derived from box metadata (§3.1),
//! so everything a query needs is known before a byte is read. One
//! planner ([`QueryEngine::plan_roi`] / [`QueryEngine::plan_region`] /
//! [`QueryEngine::plan_plane`]) validates the arguments, refines and
//! clips the region per level, and prunes chunks — the stored chunk index
//! (chunk → codec id + extent bounding box, checked against the unit
//! plans at open) by rectangle intersection, then the reconstructed unit
//! plan exactly, which leaves each chunk's list of the units the region
//! meets. The resulting [`QueryPlan`] is the query; the rest are views:
//!
//! * [`QueryPlan::cost`] — chunks and decoded bytes (of the planned
//!   units) a cold cache pays, what admission control bounds and
//!   classifies on, and [`QueryPlan::answer_bytes`] — the dense boxes the
//!   answer allocates (bounded too: a sparse level decodes little and
//!   answers a lot).
//! * [`QueryEngine::warm`] — decode a run of the plan's chunks into the
//!   sharded decompressed-chunk cache; misses decode serially, in plan
//!   order, through one raw-byte buffer and the one chunk loader,
//!   [`amric::reader::load_chunk`].
//! * [`QueryEngine::pieces`] — fetch the plan's units (cache, else
//!   decode) and visit every planned unit's overlap with its region: the
//!   answer before it is pasted anywhere. The service tier ships the
//!   [`Piece`]s as they are; nothing dense is built on the server.
//! * [`QueryEngine::answer`] — the dense sink of that walk: one zeroed
//!   box per planned region, every piece pasted in. Cells no unit covers
//!   (outside every grid, or removed as fine-covered redundancy at write
//!   time) stay zero — exactly what the full decode leaves there, so
//!   partial and full reads are bitwise interchangeable (the equivalence
//!   suite enforces it).
//!
//! [`QueryEngine::roi`], [`QueryEngine::level_region`],
//! [`QueryEngine::plane_slice`] and [`QueryEngine::roi_cost`] are
//! plan-then-view wrappers.
//!
//! # A miss reconstructs the units it lacks
//!
//! A cache entry holds some or all of a chunk's units
//! ([`crate::cache::ChunkUnits`]). A lookup that lacks a planned unit is
//! a miss; the miss decodes the chunk to a destination that wants just
//! the planned units the resident entry lacks
//! ([`sz_codec::UnitDest::wants`]) — SZ_L/R under SLE entropy-decodes
//! the chunk once and predicts no other unit, the other modes
//! reconstruct their clusters and copy out the wanted units — and caches
//! one entry holding the old units and the new. Decoded bytes therefore
//! never exceed the plan's cost, and repeated queries converge to hits.
//! [`QueryEngine::point_sample`] and a delta chunk's reference fetch
//! whole chunks; the restart decodes every unit.
//!
//! # The restart is the engine's too
//!
//! A full decode ([`QueryEngine::restart`], [`read_amric_hierarchy`])
//! drives [`amric::reader::restart_with`] over the chunks the engine found
//! at open and runs each through the same per-chunk step as a cache miss —
//! [`amric::reader::load_chunk`], the reference source, the error mapping
//! — decoding straight into fresh per-level fabs, serially, past the cache.
//!
//! # Temporal snapshots
//!
//! A snapshot written by `amric::temporal::TemporalSession` is an ordinary
//! plotfile whose chunks may be delta streams against the previous
//! snapshot. Such an engine is given the referenced snapshot's engine
//! ([`QueryEngine::with_reference`], the one place a reference id is
//! checked), and a delta chunk's reference comes through that engine's own
//! fetch and cache: a cold query or a restart at chain depth *d* decodes
//! at most *d* + 1 chunks per chunk it touches.

use crate::cache::{CacheStats, CachedChunk, ChunkCache, ChunkKey, ChunkStore, ChunkUnits};
use crate::error::{QueryError, QueryResult};
use amr_mesh::prelude::*;
use amric::pipeline::{decompress_field_units_into, no_reference};
use amric::preprocess::{plan_bounding_box, region_dims, UnitRef};
use amric::reader::{
    load_chunk, read_plotfile_meta, restart_with, stored_chunks, Plotfile, PlotfileMeta,
};
use amric::temporal::{read_temporal_meta, TemporalMeta};
use amric::writer::field_dataset;
use h5lite::index::ChunkIndexEntry;
use h5lite::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use sz_codec::{Buffer3, CodecError, CodecResult, Dims3, StridedMut, UnitDest};

/// A rectangular region of interest in index space (alias of the mesh
/// crate's inclusive [`IntBox`]).
pub type Box3 = IntBox;

/// Which AMR levels a query covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LevelSelect {
    /// Every level in the file.
    All,
    /// One level.
    Level(usize),
    /// An inclusive level range `lo..=hi`.
    Range(usize, usize),
    /// Only the finest level.
    Finest,
}

impl LevelSelect {
    /// Resolve to concrete level numbers, validating against the file.
    pub fn resolve(self, num_levels: usize) -> QueryResult<Vec<usize>> {
        let check = |l| check_level(l, num_levels);
        Ok(match self {
            LevelSelect::All => (0..num_levels).collect(),
            LevelSelect::Level(l) => vec![check(l)?],
            LevelSelect::Range(lo, hi) => {
                if lo > hi {
                    return Err(QueryError::BadQuery(format!(
                        "level range {lo}..={hi} is empty"
                    )));
                }
                (check(lo)?..=check(hi)?).collect()
            }
            LevelSelect::Finest => vec![num_levels
                .checked_sub(1)
                .ok_or_else(|| QueryError::BadQuery("file has no levels".into()))?],
        })
    }
}

/// `level`, or the one "level out of range" error every entry point
/// reports.
fn check_level(level: usize, num_levels: usize) -> QueryResult<usize> {
    if level < num_levels {
        Ok(level)
    } else {
        Err(QueryError::BadQuery(format!(
            "level {level} out of range (file has {num_levels} levels)"
        )))
    }
}

/// One level's slice of a query result.
#[derive(Clone, Debug)]
pub struct LevelRegion {
    /// Which level the data came from.
    pub level: usize,
    /// The queried region in the level's own index space (the ROI refined
    /// to the level and clipped to its domain).
    pub region: IntBox,
    /// Values over `region` in Fortran order. Cells no unit covers are
    /// zero (same convention as the full decode).
    pub data: Buffer3,
}

impl LevelRegion {
    /// Value at a point given in the level's index space (`None` outside
    /// the region).
    pub fn value_at(&self, p: &IntVect) -> Option<f64> {
        if !self.region.contains(p) {
            return None;
        }
        let d = p.get(0) - self.region.lo.get(0);
        let e = p.get(1) - self.region.lo.get(1);
        let g = p.get(2) - self.region.lo.get(2);
        Some(self.data.get(d as usize, e as usize, g as usize))
    }
}

/// Result of a region-of-interest query: one [`LevelRegion`] per selected
/// level that intersects the ROI, coarsest first.
#[derive(Clone, Debug)]
pub struct RegionView {
    /// Queried field (component index).
    pub field: usize,
    /// Queried field name.
    pub field_name: String,
    /// Per-level slices.
    pub levels: Vec<LevelRegion>,
}

impl RegionView {
    /// The slice for one level, if it intersected the ROI.
    pub fn level(&self, level: usize) -> Option<&LevelRegion> {
        self.levels.iter().find(|l| l.level == level)
    }
}

/// Result of a point sample: the value at the finest level whose valid
/// (non-redundant) data covers the point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PointSample {
    /// Level that answered.
    pub level: usize,
    /// The sampled cell in that level's index space.
    pub cell: IntVect,
    /// The decoded value.
    pub value: f64,
}

/// One stored unit's overlap with one planned region, as
/// [`QueryEngine::pieces`] visits it: the cells of an answer that are
/// actually stored, before anything is pasted into a dense box.
#[derive(Clone, Copy, Debug)]
pub struct Piece<'a> {
    /// Index of the region in [`QueryPlan::regions`].
    pub region: usize,
    /// The stored unit, in the level's index space.
    pub unit: IntBox,
    /// `unit` ∩ the planned region: never empty.
    pub overlap: IntBox,
    /// The unit's decoded values (Fortran order over `unit`).
    values: &'a Buffer3,
}

impl Piece<'_> {
    /// The overlap's x-runs out of the unit's buffer, y then z: `row`
    /// gets `(y, z, values)` with `y` / `z` in the level's index space
    /// and `values` covering `overlap.lo.x ..= overlap.hi.x`.
    #[inline]
    pub fn for_each_row(&self, mut row: impl FnMut(i64, i64, &[f64])) {
        let (dims, data) = (self.values.dims(), self.values.data());
        let at = self.overlap.lo - self.unit.lo;
        let run = self.overlap.size().get(0) as usize;
        for z in self.overlap.lo.get(2)..=self.overlap.hi.get(2) {
            for y in self.overlap.lo.get(1)..=self.overlap.hi.get(1) {
                let src = dims.idx(
                    at.get(0) as usize,
                    (y - self.unit.lo.get(1)) as usize,
                    (z - self.unit.lo.get(2)) as usize,
                );
                row(y, z, &data[src..src + run]);
            }
        }
    }

    /// The overlap's values, x-fastest, as contiguous runs of the unit's
    /// buffer: the whole buffer at once when the unit lies inside the
    /// region (most units of a region do), its x-runs otherwise.
    #[inline]
    pub fn for_each_run(&self, mut run: impl FnMut(&[f64])) {
        if self.overlap == self.unit {
            run(self.values.data());
        } else {
            self.for_each_row(|_, _, row| run(row));
        }
    }
}

/// Per-level planning state: the reconstructed unit plans and the chunk
/// extents used for pruning.
struct LevelPlan {
    /// `[rank] -> units`, in chunk layout order.
    plans: Vec<Vec<UnitRef>>,
    /// One pruning entry per chunk: the stored index, checked at open.
    extents: Vec<ChunkIndexEntry>,
    /// `(tile, rank, unit index)` of every unit of a rank that stored a
    /// chunk, sorted — built by the first point sample, never at open.
    by_tile: OnceLock<Vec<([i64; 3], u32, u32)>>,
}

impl LevelPlan {
    /// The units that may hold `cell`, as `(rank, unit index)` in rank
    /// then plan order. `IntBox::tiles` anchors tiles at multiples of the
    /// level's unit `edge`, so a planned unit lies inside the one global
    /// tile `lo.coarsened(edge)` and the candidates are the units
    /// keyed by the cell's tile: one on an aligned plan, a few clipped ones
    /// on an unaligned plan. The table is only as large as the
    /// plans the engine already holds, whatever domain a file claims.
    fn units_near(&self, cell: &IntVect, edge: i64) -> impl Iterator<Item = (usize, usize)> + '_ {
        let table = self.by_tile.get_or_init(|| {
            let mut table = Vec::new();
            for (rank, plan) in self.plans.iter().enumerate().take(self.extents.len()) {
                for (ui, u) in plan.iter().enumerate() {
                    table.push((u.region.lo.coarsened(edge).0, rank as u32, ui as u32));
                }
            }
            table.sort_unstable();
            table
        });
        let tile = cell.coarsened(edge).0;
        table[table.partition_point(|entry| entry.0 < tile)..]
            .iter()
            .take_while(move |entry| entry.0 == tile)
            .map(|&(_, rank, ui)| (rank as usize, ui as usize))
    }
}

/// Lock-free snapshot of an engine's lifetime counters (the satellite
/// stats surface: atomics only, no lock on the read path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// [`QueryEngine::roi`] calls answered (including errors).
    pub roi_queries: u64,
    /// [`QueryEngine::level_region`] calls answered.
    pub region_queries: u64,
    /// [`QueryEngine::plane_slice`] calls answered.
    pub plane_queries: u64,
    /// [`QueryEngine::point_sample`] calls answered.
    pub point_queries: u64,
    /// Chunks decoded (cache misses that went to the codecs, and the
    /// restart's chunks).
    pub chunks_decoded: u64,
    /// Bytes of the units those decodes delivered: a restart's every
    /// unit, a miss's planned units its cache entry lacked (a point
    /// sample's or a reference fetch's whole chunk).
    pub decoded_bytes: u64,
    /// Stored (compressed) bytes read from the container.
    pub read_bytes: u64,
    /// The engine's cache-handle counters.
    pub cache: CacheStats,
}

/// Atomic counter block behind [`EngineStats`].
#[derive(Default)]
struct EngineCounters {
    roi_queries: AtomicU64,
    region_queries: AtomicU64,
    plane_queries: AtomicU64,
    point_queries: AtomicU64,
    chunks_decoded: AtomicU64,
    decoded_bytes: AtomicU64,
    read_bytes: AtomicU64,
}

/// Cost of answering a query with a cold cache: every chunk with a unit
/// that meets the (refined, clipped) query region, and the decoded bytes
/// of those units — what a cold engine then counts, exactly. The service
/// tier's admission control classifies and bounds requests with this
/// **before** any byte is read; a warm cache only ever makes the real
/// cost smaller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Chunks the planner would touch.
    pub chunks: usize,
    /// Decoded bytes of the units of those chunks that meet the region.
    pub decode_bytes: u64,
}

/// A validated, planned query: which field, which region of each level,
/// and the pruned list of chunks that hold it. Built only by
/// [`QueryEngine::plan_roi`] / [`QueryEngine::plan_region`] /
/// [`QueryEngine::plan_plane`], and meaningful only to the engine that
/// built it.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    field: usize,
    /// `(level, region)` — the query region in each selected level's own
    /// index space, clipped to its domain; coarsest first.
    regions: Vec<(usize, IntBox)>,
    /// The chunks whose units intersect a region, level-major then rank.
    chunks: Vec<ChunkKey>,
    /// The units of each chunk that meet its level's region (unit-plan
    /// indices, ascending), aligned with `chunks`.
    units: Vec<Vec<u32>>,
    /// Decoded size of those units per chunk, aligned with `chunks`.
    chunk_bytes: Vec<u64>,
}

impl QueryPlan {
    /// Queried field (component index).
    pub fn field(&self) -> usize {
        self.field
    }

    /// The per-level regions the answer will cover.
    pub fn regions(&self) -> &[(usize, IntBox)] {
        &self.regions
    }

    /// Decoded bytes of each planned chunk's units that meet the query, in
    /// fetch order.
    pub fn chunk_bytes(&self) -> &[u64] {
        &self.chunk_bytes
    }

    /// Cold-cache cost of the plan.
    pub fn cost(&self) -> QueryCost {
        QueryCost {
            chunks: self.chunks.len(),
            decode_bytes: self.chunk_bytes.iter().sum(),
        }
    }

    /// Bytes of the answer itself: one dense `f64` box per planned region,
    /// however little of it the chunks cover (saturating: a box too large
    /// to count is too large to answer).
    pub fn answer_bytes(&self) -> u64 {
        self.regions.iter().fold(0, |sum: u64, (_, region)| {
            let size = region.size();
            let bytes = (0..3).try_fold(8u64, |bytes, d| {
                bytes.checked_mul(u64::try_from(size.get(d)).ok()?)
            });
            sum.saturating_add(bytes.unwrap_or(u64::MAX))
        })
    }

    /// Partition the chunk list, in order, into runs whose planned decoded
    /// bytes sum to at most `target_bytes` — never fewer than one chunk
    /// per run, since the chunk is the smallest unit that can be decoded.
    pub fn batches(&self, target_bytes: u64) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        let (mut start, mut sum) = (0, 0u64);
        for (i, &bytes) in self.chunk_bytes.iter().enumerate() {
            if i > start && sum.saturating_add(bytes) > target_bytes {
                out.push(start..i);
                (start, sum) = (i, 0);
            }
            sum = sum.saturating_add(bytes);
        }
        if start < self.chunks.len() {
            out.push(start..self.chunks.len());
        }
        out
    }
}

/// Default cache budget: 256 MiB of decoded chunks.
const DEFAULT_CACHE_BYTES: u64 = 256 << 20;

/// Random-access reader over one AMRIC plotfile.
///
/// All query methods take `&self` (the reader uses positioned reads, the
/// cache and counters use interior locking/atomics), so one engine is
/// safely shared across threads for concurrent reads — `QueryEngine` is
/// `Send + Sync` and the concurrent-readers suite exercises exactly
/// that. The service tier wraps engines in `Arc` and serves many
/// connections from each.
pub struct QueryEngine {
    reader: H5Reader,
    meta: PlotfileMeta,
    levels: Vec<LevelPlan>,
    cache: ChunkCache,
    counters: EngineCounters,
    /// Temporal linkage of the file (`None` for a plain plotfile).
    temporal: Option<TemporalMeta>,
    /// The engine of the snapshot this file's delta chunks predict from.
    reference: Option<Arc<QueryEngine>>,
}

// Compile-time guarantee that the engine stays shareable across threads;
// a field losing `Send + Sync` breaks the service tier, so fail the
// build, not the server.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine>();
};

impl QueryEngine {
    /// Open a plotfile and build the query plans from its metadata. No
    /// field data is read or decoded here.
    pub fn open(path: impl AsRef<std::path::Path>) -> QueryResult<Self> {
        Self::from_reader(H5Reader::open(path)?)
    }

    /// Build an engine over an already-open container — a file, or a
    /// [`h5lite::MemStorage`] image that never touched a filesystem. Every
    /// level's chunk index must be present, and every stored extent must
    /// equal the bounding box of its rank's re-derived unit plan.
    pub fn from_reader(reader: H5Reader) -> QueryResult<Self> {
        let meta = read_plotfile_meta(&reader)?;
        let temporal = read_temporal_meta(&reader)?;
        if meta.bf <= 0 {
            return Err(QueryError::BadQuery(
                "not an AMRIC plotfile (no blocking factor recorded; \
                 baseline/no-compression files have no unit layout to query)"
                    .into(),
            ));
        }
        if meta.num_levels() == 0 {
            return Err(QueryError::Inconsistent(
                "plotfile header records zero AMR levels".into(),
            ));
        }
        let mut levels = Vec::with_capacity(meta.num_levels());
        for l in 0..meta.num_levels() {
            let plans: Vec<Vec<UnitRef>> = (0..meta.nranks).map(|r| meta.unit_plan(l, r)).collect();
            // All fields of a level share one layout and one chunk count;
            // dataset 0's index speaks for the level.
            stored_chunks(&reader, &meta, l).map_err(|e| match e {
                H5Error::NotFound(n) => {
                    QueryError::BadQuery(format!("not an AMRIC plotfile (missing dataset {n})"))
                }
                H5Error::Format(m) => QueryError::Inconsistent(m),
                other => QueryError::H5(other),
            })?;
            let name = field_dataset(l, 0);
            let index = reader.chunk_index(&name)?.ok_or_else(|| {
                QueryError::BadQuery(format!("not an AMRIC plotfile ({name} has no chunk index)"))
            })?;
            // Pruning trusts the stored extents: each must be the writer's
            // own bounding box of the rank's units (h5lite already holds the
            // index to one entry per chunk).
            for (rank, entry) in index.entries.iter().enumerate() {
                let derived = plan_bounding_box(&plans[rank]);
                if entry.extent != derived {
                    return Err(QueryError::Inconsistent(format!(
                        "level {l} rank {rank}: chunk index extent {:?}, unit plan {derived:?}",
                        entry.extent
                    )));
                }
            }
            levels.push(LevelPlan {
                plans,
                extents: index.entries.clone(),
                by_tile: OnceLock::new(),
            });
        }
        Ok(QueryEngine {
            reader,
            meta,
            levels,
            cache: ChunkCache::new(DEFAULT_CACHE_BYTES),
            counters: EngineCounters::default(),
            temporal,
            reference: None,
        })
    }

    /// Give a temporal snapshot's engine the engine of the snapshot its
    /// delta chunks predict from. The reference must be the snapshot this
    /// file names in its `meta/temporal` linkage — anything else is refused
    /// here, before a chunk is read. Without a reference, a query that
    /// touches a delta chunk fails with [`QueryError::Codec`].
    pub fn with_reference(mut self, reference: Arc<QueryEngine>) -> QueryResult<Self> {
        let named = self.temporal.and_then(|t| t.reference_id);
        let held = reference.temporal.map(|t| t.snapshot_id);
        if named.is_none() || held != named {
            return Err(QueryError::BadQuery(format!(
                "file references snapshot {named:?}, the reference engine holds snapshot {held:?}"
            )));
        }
        self.reference = Some(reference);
        Ok(self)
    }

    /// Returns the engine unchanged: misses decode serially and no
    /// worker count exists. Kept only because `amric_benchmark` still
    /// calls it; ROADMAP item 5, which rewrites the benchmark, deletes it.
    pub fn with_workers(self, _n: usize) -> Self {
        self
    }

    /// Replace the decompressed-chunk cache with an empty one bounded by
    /// `max_bytes`.
    pub fn with_cache_bytes(mut self, max_bytes: u64) -> Self {
        self.cache = ChunkCache::new(max_bytes);
        self
    }

    /// Point the engine at a **shared** chunk store under `file_id`: its
    /// decoded chunks then compete for the store's global byte budget
    /// with every other engine sharing it, while hit/miss accounting
    /// stays per-engine. The service catalog allocates one distinct
    /// `file_id` per open `(path, generation)`.
    pub fn with_shared_cache(mut self, store: Arc<ChunkStore>, file_id: u64) -> Self {
        self.cache = ChunkCache::shared(store, file_id);
        self
    }

    /// The plotfile's structural metadata.
    pub fn meta(&self) -> &PlotfileMeta {
        &self.meta
    }

    /// The file's temporal linkage, as read at open (`None` for a plain
    /// plotfile): its snapshot id and the snapshot its delta chunks
    /// predict from.
    pub fn linkage(&self) -> Option<TemporalMeta> {
        self.temporal
    }

    /// The per-chunk index entries of one level (codec id, pruning
    /// extent, and — for delta-coded temporal chunks — the reference
    /// snapshot id). Empty when the level stored no chunks.
    pub fn chunk_entries(&self, level: usize) -> QueryResult<&[ChunkIndexEntry]> {
        let level = check_level(level, self.levels.len())?;
        Ok(&self.levels[level].extents)
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Lifetime counter snapshot (atomic loads only — cheap enough for a
    /// stats endpoint to poll on every request).
    pub fn stats(&self) -> EngineStats {
        let c = &self.counters;
        EngineStats {
            roi_queries: c.roi_queries.load(Ordering::Relaxed),
            region_queries: c.region_queries.load(Ordering::Relaxed),
            plane_queries: c.plane_queries.load(Ordering::Relaxed),
            point_queries: c.point_queries.load(Ordering::Relaxed),
            chunks_decoded: c.chunks_decoded.load(Ordering::Relaxed),
            decoded_bytes: c.decoded_bytes.load(Ordering::Relaxed),
            read_bytes: c.read_bytes.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// Component index of a named field.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.meta.field_names.iter().position(|n| n == name)
    }

    fn check_field(&self, field: usize) -> QueryResult<()> {
        if field < self.meta.field_names.len() {
            Ok(())
        } else {
            Err(QueryError::BadQuery(format!(
                "field {field} out of range (file has {} fields)",
                self.meta.field_names.len()
            )))
        }
    }

    /// Plan a region-of-interest query. `roi` is given in **level-0
    /// (coarsest) index space** and is refined to each selected level;
    /// levels whose refined ROI misses their domain are omitted.
    pub fn plan_roi(&self, field: usize, roi: Box3, select: LevelSelect) -> QueryResult<QueryPlan> {
        self.check_field(field)?;
        let mut regions = Vec::new();
        for l in select.resolve(self.meta.num_levels())? {
            let refined = roi.refined(self.meta.refine_factor(l));
            if let Some(clipped) = refined.intersection(&self.meta.levels[l].domain) {
                regions.push((l, clipped));
            }
        }
        Ok(self.plan(field, regions))
    }

    /// Plan one rectangular region at one level (`region` in that level's
    /// index space, clipped to its domain; missing the domain is an
    /// error).
    pub fn plan_region(&self, field: usize, level: usize, region: Box3) -> QueryResult<QueryPlan> {
        self.check_field(field)?;
        let domain = self.meta.levels[check_level(level, self.meta.num_levels())?].domain;
        let clipped = region.intersection(&domain).ok_or_else(|| {
            QueryError::BadQuery(format!(
                "region {region:?} misses level {level}'s domain {domain:?}"
            ))
        })?;
        Ok(self.plan(field, vec![(level, clipped)]))
    }

    /// Plan a full-domain plane slice at one level: `axis` (0 = x, 1 = y,
    /// 2 = z) pinned to `coord` in the level's index space.
    pub fn plan_plane(
        &self,
        field: usize,
        level: usize,
        axis: usize,
        coord: i64,
    ) -> QueryResult<QueryPlan> {
        self.check_field(field)?;
        if axis >= 3 {
            return Err(QueryError::BadQuery(format!("axis {axis} out of range")));
        }
        let domain = self.meta.levels[check_level(level, self.meta.num_levels())?].domain;
        if coord < domain.lo.get(axis) || coord > domain.hi.get(axis) {
            return Err(QueryError::BadQuery(format!(
                "plane {coord} outside level {level}'s domain along axis {axis}"
            )));
        }
        let (mut lo, mut hi) = (domain.lo, domain.hi);
        lo.0[axis] = coord;
        hi.0[axis] = coord;
        Ok(self.plan(field, vec![(level, IntBox::new(lo, hi))]))
    }

    /// The planner proper: prune each level's chunks, and their units,
    /// against its (validated, clipped) region so one fetch covers the
    /// whole query and reconstructs no unit it does not meet.
    fn plan(&self, field: usize, regions: Vec<(usize, IntBox)>) -> QueryPlan {
        let (mut chunks, mut units, mut chunk_bytes) = (Vec::new(), Vec::new(), Vec::new());
        for &(l, region) in &regions {
            for (rank, met) in self.chunks_for_region(l, &region) {
                let plan = &self.levels[l].plans[rank];
                chunk_bytes.push(met.iter().map(|&u| unit_bytes(&plan[u as usize])).sum());
                chunks.push((l, field, rank));
                units.push(met);
            }
        }
        QueryPlan {
            field,
            regions,
            chunks,
            units,
            chunk_bytes,
        }
    }

    /// Decode chunks `range` of the plan's chunk list into the cache
    /// without assembling anything (resident chunks are skipped). The
    /// service tier warms a scan one [`QueryPlan::batches`] run at a
    /// time, each under the fair gate, before [`QueryEngine::answer`].
    pub fn warm(&self, plan: &QueryPlan, range: Range<usize>) -> QueryResult<()> {
        let chunks = plan.chunks.get(range.clone()).ok_or_else(|| {
            QueryError::BadQuery(format!(
                "chunk range {range:?} outside the plan's {} chunks",
                plan.chunks.len()
            ))
        })?;
        self.fetch(chunks, Some(&plan.units[range])).map(drop)
    }

    /// Visit the plan's answer piece by piece: fetch its chunks' planned
    /// units once (from the cache, else decoded — correctness never
    /// depends on residency; they stay alive for the whole walk), then
    /// call `visit` for every stored unit that meets a planned region —
    /// regions in plan order, chunks in plan order, units in unit-plan
    /// order. A region no unit meets yields no piece.
    #[inline]
    pub fn pieces(&self, plan: &QueryPlan, mut visit: impl FnMut(Piece<'_>)) -> QueryResult<()> {
        let fetched = self.fetch(&plan.chunks, Some(&plan.units))?;
        for (region, &(level, bounds)) in plan.regions.iter().enumerate() {
            for ((key, met), chunk) in plan.chunks.iter().zip(&plan.units).zip(&fetched) {
                if key.0 != level {
                    continue;
                }
                let units = &self.levels[level].plans[key.2];
                for &ui in met {
                    let u = &units[ui as usize];
                    if let Some(overlap) = u.region.intersection(&bounds) {
                        visit(Piece {
                            region,
                            unit: u.region,
                            overlap,
                            values: chunk.unit(ui as usize).expect("a planned unit is fetched"),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Answer a plan densely: one zeroed [`LevelRegion`] per planned
    /// region, coarsest first, with every [`Piece`] pasted in (plan order:
    /// a later piece overwrites an earlier one).
    pub fn answer(&self, plan: &QueryPlan) -> QueryResult<Vec<LevelRegion>> {
        let mut levels: Vec<LevelRegion> = Vec::with_capacity(plan.regions.len());
        // A box is zeroed when the walk reaches its region, not before:
        // a small coarse box zeroed ahead of a large fine one is evicted
        // by that fill before it is pasted.
        let open = |levels: &mut Vec<LevelRegion>, upto: usize| {
            for &(level, region) in &plan.regions[levels.len()..upto] {
                levels.push(LevelRegion {
                    level,
                    region,
                    data: Buffer3::zeros(region_dims(&region)),
                });
            }
        };
        self.pieces(plan, |piece| {
            open(&mut levels, piece.region + 1);
            let LevelRegion { region, data, .. } = &mut levels[piece.region];
            let (dims, x) = (data.dims(), piece.overlap.lo.get(0) - region.lo.get(0));
            let out = data.data_mut();
            piece.for_each_row(|y, z, row| {
                let dst = dims.idx(
                    x as usize,
                    (y - region.lo.get(1)) as usize,
                    (z - region.lo.get(2)) as usize,
                );
                out[dst..dst + row.len()].copy_from_slice(row);
            });
        })?;
        open(&mut levels, plan.regions.len());
        Ok(levels)
    }

    /// Answer a region-of-interest query ([`QueryEngine::plan_roi`] then
    /// [`QueryEngine::answer`]). Only chunks whose indexed extent
    /// intersects the refined ROI are read and decoded.
    pub fn roi(&self, field: usize, roi: Box3, select: LevelSelect) -> QueryResult<RegionView> {
        self.counters.roi_queries.fetch_add(1, Ordering::Relaxed);
        let levels = self.answer(&self.plan_roi(field, roi, select)?)?;
        Ok(RegionView {
            field,
            field_name: self.meta.field_names[field].clone(),
            levels,
        })
    }

    /// Cold-cache cost bound of [`QueryEngine::roi`] with the same
    /// arguments: planning only, no bytes read. Same validation errors as
    /// the query itself.
    pub fn roi_cost(&self, field: usize, roi: Box3, select: LevelSelect) -> QueryResult<QueryCost> {
        Ok(self.plan_roi(field, roi, select)?.cost())
    }

    /// Extract one rectangular region at one specific level
    /// ([`QueryEngine::plan_region`] then [`QueryEngine::answer`]).
    pub fn level_region(
        &self,
        field: usize,
        level: usize,
        region: Box3,
    ) -> QueryResult<LevelRegion> {
        self.counters.region_queries.fetch_add(1, Ordering::Relaxed);
        self.answer_one(&self.plan_region(field, level, region)?)
    }

    /// Full-domain plane slice at one level ([`QueryEngine::plan_plane`]
    /// then [`QueryEngine::answer`]).
    pub fn plane_slice(
        &self,
        field: usize,
        level: usize,
        axis: usize,
        coord: i64,
    ) -> QueryResult<LevelRegion> {
        self.counters.plane_queries.fetch_add(1, Ordering::Relaxed);
        self.answer_one(&self.plan_plane(field, level, axis, coord)?)
    }

    /// [`QueryEngine::answer`] for a single-region plan.
    fn answer_one(&self, plan: &QueryPlan) -> QueryResult<LevelRegion> {
        let mut levels = self.answer(plan)?;
        Ok(levels
            .pop()
            .expect("region and plane plans hold one region"))
    }

    /// Sample the value at a cell given in **finest-level index space**,
    /// answered by the finest level whose valid (non-redundant) data
    /// covers the cell. `Ok(None)` when no level holds the cell.
    pub fn point_sample(&self, field: usize, p: IntVect) -> QueryResult<Option<PointSample>> {
        self.counters.point_queries.fetch_add(1, Ordering::Relaxed);
        self.check_field(field)?;
        let n = self.meta.num_levels();
        let finest_factor = self.meta.refine_factor(n - 1);
        for l in (0..n).rev() {
            let down = finest_factor / self.meta.refine_factor(l);
            let cell = p.coarsened(down);
            if !self.meta.levels[l].domain.contains(&cell) {
                continue;
            }
            let lp = &self.levels[l];
            let holder = lp
                .units_near(&cell, self.meta.unit_edge(l))
                .find(|&(rank, ui)| {
                    lp.extents[rank].intersects(cell.0, cell.0)
                        && lp.plans[rank][ui].region.contains(&cell)
                });
            if let Some((rank, ui)) = holder {
                let chunk = self
                    .fetch(&[(l, field, rank)], None)?
                    .pop()
                    .expect("one request, one chunk");
                let at = cell - lp.plans[rank][ui].region.lo;
                let (d, e, g) = (at.get(0) as usize, at.get(1) as usize, at.get(2) as usize);
                let unit = chunk.unit(ui).expect("a whole chunk is fetched");
                return Ok(Some(PointSample {
                    level: l,
                    cell,
                    value: unit.get(d, e, g),
                }));
            }
        }
        Ok(None)
    }

    /// Restart: decode every stored chunk straight into fresh per-level
    /// fabs, serially through one raw-byte buffer and past the cache;
    /// cells no unit covers stay zero. A delta file restarts only through
    /// an engine given its reference ([`QueryEngine::with_reference`]);
    /// without one its first delta chunk is a [`QueryError::Codec`].
    pub fn restart(&self) -> QueryResult<Plotfile> {
        let plans = self.levels.iter().map(|lp| lp.plans.clone()).collect();
        let stored: Vec<usize> = self.levels.iter().map(|lp| lp.extents.len()).collect();
        restart_with(&self.meta, plans, &stored, |key, plan, raw, dest| {
            self.decode_chunk(key, raw, dest, plan.iter().map(unit_bytes).sum())
        })
    }

    /// Chunk positions (= ranks) of a level whose indexed extent
    /// intersects `region`, refined by an exact unit-plan check: each with
    /// the units that meet `region` (unit-plan indices, ascending), never
    /// none.
    fn chunks_for_region(&self, level: usize, region: &IntBox) -> Vec<(usize, Vec<u32>)> {
        let lp = &self.levels[level];
        let (lo, hi) = (region.lo.0, region.hi.0);
        // `IntBox::intersects` on the corner arrays, where the compiler
        // sees every index: a plan holds thousands of units.
        let meets = |u: &UnitRef| {
            let (ulo, uhi) = (u.region.lo.0, u.region.hi.0);
            (0..3).all(|d| ulo[d] <= hi[d] && lo[d] <= uhi[d])
        };
        (0..lp.extents.len())
            .filter(|&rank| lp.extents[rank].intersects(lo, hi))
            .filter_map(|rank| {
                let plan = lp.plans[rank].iter().enumerate();
                let met: Vec<u32> = plan
                    .filter(|(_, u)| meets(u))
                    .map(|(ui, _)| ui as u32)
                    .collect();
                (!met.is_empty()).then_some((rank, met))
            })
            .collect()
    }

    /// The decoded chunk `key`, whole, as a delta chunk of the next
    /// snapshot asks for it: through [`QueryEngine::fetch`], after checking
    /// that this file holds such a chunk at all.
    fn reference_chunk(&self, key @ (level, field, rank): ChunkKey) -> QueryResult<CachedChunk> {
        let stored = self.levels.get(level).map_or(0, |lp| lp.extents.len());
        if field >= self.meta.field_names.len() || rank >= stored {
            let msg = format!("the reference holds no chunk {key:?} (level, field, rank)");
            return Err(QueryError::Codec(CodecError::corrupt(msg)));
        }
        let chunk = self
            .fetch(&[key], None)?
            .pop()
            .expect("one request, one chunk");
        Ok(chunk.into_whole().expect("a whole chunk is fetched"))
    }

    /// The one per-chunk step of a restart and of a cache miss: read chunk
    /// `key` into `raw` and decode it to `dest` through the one chunk
    /// loader, [`load_chunk`], counting `bytes` — the units `dest` takes —
    /// as decoded. A delta chunk takes its reference from the reference
    /// engine, and a failure there is reported as that engine's own error.
    fn decode_chunk(
        &self,
        key @ (level, _, rank): ChunkKey,
        raw: &mut Vec<u8>,
        dest: &mut dyn UnitDest,
        bytes: u64,
    ) -> QueryResult<()> {
        let mut failed = None;
        let named = self.temporal.and_then(|t| t.reference_id);
        let mut source = || match (&self.reference, named) {
            (Some(engine), Some(id)) => match engine.reference_chunk(key) {
                Ok(chunk) => Ok((id, chunk)),
                Err(e) => {
                    failed = Some(e);
                    Err(CodecError::corrupt("reference chunk unavailable"))
                }
            },
            _ => no_reference(),
        };
        let plan = &self.levels[level].plans[rank];
        load_chunk(&self.reader, key, plan, raw, dest, |raw, dest| {
            self.counters
                .read_bytes
                .fetch_add(raw.len() as u64, Ordering::Relaxed);
            Ok(decompress_field_units_into(raw, dest, &mut source)?)
        })
        .map_err(|e| match (failed.take(), e) {
            (Some(cause), _) => cause,
            (None, H5Error::Codec(e)) => QueryError::Codec(e),
            // The loader's own verdict: decoded units that do not match
            // the reconstructed plan.
            (None, H5Error::Format(m)) => QueryError::Inconsistent(m),
            (None, other) => QueryError::H5(other),
        })?;
        self.counters.chunks_decoded.fetch_add(1, Ordering::Relaxed);
        self.counters
            .decoded_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Fetch the requested chunks, each holding at least the units `units`
    /// lists for it (aligned with `requests`, unit-plan indices ascending;
    /// `None`: every unit): every lookup first, then each miss in request
    /// order — the units its resident entry lacks decoded through one
    /// raw-byte buffer and cached beside the resident ones. Returns the
    /// chunks aligned with `requests`.
    fn fetch(
        &self,
        requests: &[ChunkKey],
        units: Option<&[Vec<u32>]>,
    ) -> QueryResult<Vec<ChunkUnits>> {
        let wanted = |slot: usize| units.map(|u| &u[slot][..]);
        let mut out: Vec<Option<ChunkUnits>> = Vec::with_capacity(requests.len());
        let mut missing = Vec::new();
        for (slot, key) in requests.iter().enumerate() {
            match self.cache.lookup(key, wanted(slot)) {
                Ok(hit) => out.push(Some(hit)),
                Err(resident) => {
                    out.push(None);
                    missing.push((slot, resident));
                }
            }
        }
        let mut raw = Vec::new();
        for (slot, resident) in missing {
            let key = requests[slot];
            let plan = &self.levels[key.0].plans[key.2];
            let mut miss = Miss::new(plan.len(), wanted(slot), resident.as_ref());
            let bytes = plan.iter().zip(&miss.want).filter(|(_, &w)| w);
            let bytes = bytes.map(|(u, _)| unit_bytes(u)).sum();
            self.decode_chunk(key, &mut raw, &mut miss, bytes)?;
            let merged = ChunkUnits::merge(resident.as_ref(), miss.fresh, plan.len());
            self.cache.insert_units(key, merged.clone());
            out[slot] = Some(merged);
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every request resolved"))
            .collect())
    }
}

/// Decoded size in bytes of a planned unit.
fn unit_bytes(u: &UnitRef) -> u64 {
    u.region.num_cells() * 8
}

/// A cache miss's destination: a fresh buffer for each unit `want` marks —
/// the units a fetch asked for that the resident entry lacks — and every
/// other unit passed over.
struct Miss {
    want: Vec<bool>,
    /// The units delivered, by unit-plan index.
    fresh: Vec<(usize, Buffer3)>,
}

impl Miss {
    /// For a chunk of `n` units: those `wanted` lists (`None`: all) that
    /// `resident` does not hold.
    fn new(n: usize, wanted: Option<&[u32]>, resident: Option<&ChunkUnits>) -> Self {
        let mut want = vec![wanted.is_none(); n];
        for &u in wanted.unwrap_or_default() {
            want[u as usize] = true;
        }
        for (u, _) in resident.into_iter().flat_map(ChunkUnits::iter) {
            want[u] = false;
        }
        Miss {
            want,
            fresh: Vec::new(),
        }
    }
}

impl UnitDest for Miss {
    fn wants(&mut self, i: usize, _dims: Dims3) -> CodecResult<bool> {
        Ok(self.want[i])
    }

    fn unit(&mut self, i: usize, dims: Dims3) -> CodecResult<StridedMut<'_>> {
        self.fresh.push((i, Buffer3::zeros(dims)));
        let (_, unit) = self.fresh.last_mut().expect("just pushed");
        StridedMut::new(dims, unit.data_mut(), dims.nx, dims.nx * dims.ny)
    }
}

/// Restart an AMRIC plotfile: [`QueryEngine::open`] then
/// [`QueryEngine::restart`]. A delta snapshot of a temporal series
/// restarts through an engine given its reference instead.
pub fn read_amric_hierarchy(path: impl AsRef<std::path::Path>) -> QueryResult<Plotfile> {
    QueryEngine::open(path)?.restart()
}
