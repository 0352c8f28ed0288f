//! [`QueryEngine`]: answer spatial/level queries against an AMRIC
//! plotfile by touching only the chunks that intersect the query.
//!
//! # A query is planned once
//!
//! The stored chunk is large by design (one per rank per field, paper
//! §3.3) and every unit position is re-derived from box metadata (§3.1),
//! so everything a query needs is known before a byte is read. One
//! planner ([`QueryEngine::plan_roi`] / [`QueryEngine::plan_region`] /
//! [`QueryEngine::plan_plane`]) validates the arguments, refines and
//! clips the region per level, and prunes chunks — the persistent chunk
//! index (chunk → codec id + extent bounding box) by rectangle
//! intersection, then the reconstructed unit plan exactly. Legacy files
//! without an index fall back to a scan at open: codec ids are sniffed
//! from the stored chunk envelopes and extents re-derived from the unit
//! plans. The resulting [`QueryPlan`] is the query; the rest are views:
//!
//! * [`QueryPlan::cost`] — chunks and decoded bytes a cold cache pays
//!   (what admission control bounds and classifies on), and
//!   [`QueryPlan::answer_bytes`] — the dense boxes the answer allocates
//!   (bounded too: a sparse level decodes little and answers a lot).
//! * [`QueryEngine::warm`] — decode a run of the plan's chunks into the
//!   sharded decompressed-chunk cache; misses fan out over a `rankpar`
//!   worker pool (per-worker raw-byte scratch, ordered reassembly)
//!   through the one chunk loader, [`amric::reader::load_chunk`].
//! * [`QueryEngine::pieces`] — fetch the plan's chunks (cache, else
//!   decode) and visit every stored unit's overlap with a planned region:
//!   the answer before it is pasted anywhere. The service tier ships the
//!   [`Piece`]s as they are; nothing dense is built on the server.
//! * [`QueryEngine::answer`] — the dense sink of that walk: one zeroed
//!   box per planned region, every piece pasted in. Cells no unit covers
//!   (outside every grid, or removed as fine-covered redundancy at write
//!   time) stay zero — exactly what a full
//!   [`amric::reader::read_amric_hierarchy`] decode leaves there, so
//!   partial and full reads are bitwise interchangeable (the equivalence
//!   suite enforces it).
//!
//! [`QueryEngine::roi`], [`QueryEngine::level_region`],
//! [`QueryEngine::plane_slice`] and [`QueryEngine::roi_cost`] are
//! plan-then-view wrappers.

use crate::cache::{chunk_bytes, CacheStats, CachedChunk, ChunkCache, ChunkKey, ChunkStore};
use crate::error::{QueryError, QueryResult};
use amr_mesh::prelude::*;
use amric::pipeline::decompress_field_units_into;
use amric::preprocess::{plan_bounding_box, region_dims, UnitRef};
use amric::reader::{load_chunk, read_plotfile_meta, PlotfileMeta};
use amric::writer::field_dataset;
use h5lite::index::ChunkIndexEntry;
use h5lite::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use sz_codec::Buffer3;

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
    /// One pruning entry per chunk (persisted index, or re-derived for
    /// legacy files).
    extents: Vec<ChunkIndexEntry>,
    /// `[rank] -> decoded size in bytes` of the rank's chunk (sum of its
    /// unit volumes × 8), precomputed for cost estimation.
    chunk_bytes: Vec<u64>,
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
    /// on an unaligned legacy plan. The table is only as large as the
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
    /// Chunks decoded (cache misses that went to the codecs).
    pub chunks_decoded: u64,
    /// Decoded output bytes produced by those decodes.
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

/// Predicted cost of answering a query with a cold cache: every chunk
/// whose indexed extent intersects the (refined, clipped) query region,
/// and the decoded bytes those chunks expand to. The service tier's
/// admission control classifies and bounds requests with this **before**
/// any byte is read; a warm cache only ever makes the real cost smaller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCost {
    /// Chunks the planner would touch.
    pub chunks: usize,
    /// Decoded bytes those chunks expand to.
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
    /// Decoded size of each chunk, aligned with `chunks`.
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

    /// Decoded bytes of each planned chunk, in fetch order.
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

    /// Partition the chunk list, in order, into runs whose decoded bytes
    /// sum to at most `target_bytes` — never fewer than one chunk per
    /// run, since the chunk is the smallest unit that can be decoded.
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
    /// Whether the file carried a persistent chunk index (false = legacy
    /// fallback scan).
    indexed: bool,
    cache: ChunkCache,
    workers: usize,
    counters: EngineCounters,
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
    /// [`h5lite::MemStorage`] image that never touched a filesystem.
    pub fn from_reader(reader: H5Reader) -> QueryResult<Self> {
        let meta = read_plotfile_meta(&reader)?;
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
        let mut indexed = true;
        for l in 0..meta.num_levels() {
            let plans: Vec<Vec<UnitRef>> = (0..meta.nranks).map(|r| meta.unit_plan(l, r)).collect();
            // All fields of a level share one layout; dataset 0 speaks for
            // the level. Chunk count must be 0 (nothing kept) or nranks.
            let name = field_dataset(l, 0);
            let dmeta = reader.meta(&name).map_err(|e| match e {
                H5Error::NotFound(n) => {
                    QueryError::BadQuery(format!("not an AMRIC plotfile (missing dataset {n})"))
                }
                other => QueryError::H5(other),
            })?;
            let nchunks = dmeta.chunks.len();
            if nchunks != 0 && nchunks != meta.nranks {
                return Err(QueryError::Inconsistent(format!(
                    "{name}: {nchunks} chunks for {} ranks",
                    meta.nranks
                )));
            }
            let extents = match reader.chunk_index(&name)? {
                Some(idx) => idx.entries.clone(),
                None => {
                    // Legacy file: sniff codec ids from the stored chunk
                    // envelopes, re-derive extents from the unit plans.
                    indexed = false;
                    let scanned = reader.scan_chunk_index(&name)?;
                    scanned
                        .entries
                        .iter()
                        .enumerate()
                        .map(|(rank, e)| {
                            ChunkIndexEntry::new(e.codec_id, plan_bounding_box(&plans[rank]))
                        })
                        .collect()
                }
            };
            let chunk_bytes = plans
                .iter()
                .map(|p| p.iter().map(|u| u.region.num_cells() * 8).sum())
                .collect();
            levels.push(LevelPlan {
                plans,
                extents,
                chunk_bytes,
                by_tile: OnceLock::new(),
            });
        }
        Ok(QueryEngine {
            reader,
            meta,
            levels,
            indexed,
            cache: ChunkCache::new(DEFAULT_CACHE_BYTES),
            workers: 1,
            counters: EngineCounters::default(),
        })
    }

    /// Set the prefetch worker count (`n <= 1` fetches serially). Decoded
    /// results are bitwise-identical for every worker count.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
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

    /// Did the file carry a persistent chunk index (`false` = answered
    /// through the legacy fallback scan)?
    pub fn has_persistent_index(&self) -> bool {
        self.indexed
    }

    /// The per-chunk index entries of one level (codec id, pruning
    /// extent, and — for delta-coded temporal chunks — the reference
    /// snapshot id). Empty when the level stored no chunks.
    pub fn chunk_entries(&self, level: usize) -> QueryResult<&[ChunkIndexEntry]> {
        let level = check_level(level, self.levels.len())?;
        Ok(&self.levels[level].extents)
    }

    /// Reference snapshot id of one chunk, if it is delta-coded — the
    /// planner-level answer to "which prior file does random access into
    /// this chunk need?", resolved from the index without decoding.
    pub fn chunk_reference(&self, level: usize, chunk: usize) -> QueryResult<Option<u64>> {
        let entries = self.chunk_entries(level)?;
        entries.get(chunk).map(|e| e.reference).ok_or_else(|| {
            QueryError::BadQuery(format!("level {level} chunk {chunk} out of range"))
        })
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

    /// Drop all cached chunks (for cold-read measurements).
    pub fn clear_cache(&self) {
        self.cache.clear()
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

    /// The planner proper: prune each level's chunks against its
    /// (validated, clipped) region so one fetch covers the whole query.
    fn plan(&self, field: usize, regions: Vec<(usize, IntBox)>) -> QueryPlan {
        let mut chunks = Vec::new();
        let mut chunk_bytes = Vec::new();
        for &(l, region) in &regions {
            for rank in self.chunks_for_region(l, &region) {
                chunks.push((l, field, rank));
                chunk_bytes.push(self.levels[l].chunk_bytes[rank]);
            }
        }
        QueryPlan {
            field,
            regions,
            chunks,
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
        self.fetch(chunks).map(drop)
    }

    /// Visit the plan's answer piece by piece: fetch its chunks once (from
    /// the cache, else decoded — correctness never depends on residency;
    /// they stay alive for the whole walk), then call `visit` for every
    /// stored unit that meets a planned region — regions in plan order,
    /// chunks in plan order, units in unit-plan order. A region no unit
    /// meets yields no piece.
    #[inline]
    pub fn pieces(&self, plan: &QueryPlan, mut visit: impl FnMut(Piece<'_>)) -> QueryResult<()> {
        let fetched = self.fetch(&plan.chunks)?;
        for (region, &(level, bounds)) in plan.regions.iter().enumerate() {
            for (key, units) in plan.chunks.iter().zip(&fetched) {
                if key.0 != level {
                    continue;
                }
                for (u, values) in self.levels[level].plans[key.2].iter().zip(units.iter()) {
                    if let Some(overlap) = u.region.intersection(&bounds) {
                        visit(Piece {
                            region,
                            unit: u.region,
                            overlap,
                            values,
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
                let units = self
                    .fetch(std::slice::from_ref(&(l, field, rank)))?
                    .pop()
                    .expect("one request, one chunk");
                let at = cell - lp.plans[rank][ui].region.lo;
                let (d, e, g) = (at.get(0) as usize, at.get(1) as usize, at.get(2) as usize);
                return Ok(Some(PointSample {
                    level: l,
                    cell,
                    value: units[ui].get(d, e, g),
                }));
            }
        }
        Ok(None)
    }

    /// Chunk positions (= ranks) of a level whose indexed extent
    /// intersects `region`, refined by an exact unit-plan check.
    fn chunks_for_region(&self, level: usize, region: &IntBox) -> Vec<usize> {
        let lp = &self.levels[level];
        let lo = [region.lo.get(0), region.lo.get(1), region.lo.get(2)];
        let hi = [region.hi.get(0), region.hi.get(1), region.hi.get(2)];
        (0..lp.extents.len())
            .filter(|&rank| lp.extents[rank].intersects(lo, hi))
            .filter(|&rank| lp.plans[rank].iter().any(|u| u.region.intersects(region)))
            .collect()
    }

    /// Fetch the requested chunks, serving from the cache and decoding
    /// misses on the worker pool (ordered reassembly; per-worker byte
    /// scratch). Returns decoded chunks aligned with `requests`.
    fn fetch(&self, requests: &[ChunkKey]) -> QueryResult<Vec<CachedChunk>> {
        let mut out: Vec<Option<CachedChunk>> = Vec::with_capacity(requests.len());
        let mut missing: Vec<(usize, ChunkKey)> = Vec::new();
        for (i, key) in requests.iter().enumerate() {
            match self.cache.get(key) {
                Some(v) => out.push(Some(v)),
                None => {
                    out.push(None);
                    missing.push((i, *key));
                }
            }
        }
        if !missing.is_empty() {
            rankpar::pool::for_each_ordered(
                &missing,
                self.workers.min(missing.len()),
                (2 * self.workers).max(2),
                Vec::new, // per-worker raw-byte scratch
                |buf: &mut Vec<u8>, _j, &(slot, key @ (level, _, rank))| {
                    let plan = &self.levels[level].plans[rank];
                    let mut units = Vec::with_capacity(plan.len());
                    load_chunk(&self.reader, key, plan, buf, &mut units, |raw, dest| {
                        self.counters
                            .read_bytes
                            .fetch_add(raw.len() as u64, Ordering::Relaxed);
                        Ok(decompress_field_units_into(raw, dest)?)
                    })
                    .map_err(|e| match e {
                        H5Error::Codec(e) => QueryError::Codec(e),
                        // The loader's own verdict: decoded units that do
                        // not match the reconstructed plan.
                        H5Error::Format(m) => QueryError::Inconsistent(m),
                        other => QueryError::H5(other),
                    })?;
                    self.counters.chunks_decoded.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .decoded_bytes
                        .fetch_add(chunk_bytes(&units), Ordering::Relaxed);
                    Ok::<_, QueryError>((slot, Arc::new(units)))
                },
                |_j, (slot, value): (usize, CachedChunk)| {
                    self.cache.insert(requests[slot], Arc::clone(&value));
                    out[slot] = Some(value);
                    Ok(())
                },
            )?;
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every request resolved"))
            .collect())
    }
}
