//! The in-situ AMRIC writer (paper §3.3): field-major data layout, one
//! global chunk sized to the largest rank, the size-aware SZ filter, and
//! collective writes through the h5lite container.
//!
//! Per level and field, every rank stages its surviving unit blocks into a
//! single buffer (the layout change of §3.3 Solution 1 — same-field data
//! grouped together instead of AMReX's per-box field interleaving), the
//! global chunk size is the max staged size over ranks (§3.3 Solution 2),
//! and each rank contributes exactly one chunk whose *actual* length rides
//! in the chunk metadata so no padding is ever compressed.

use crate::config::AmricConfig;
use crate::pipeline::{
    compress_delta_into, compress_on_thread_scratch, decompress_field_units, Reference,
    ResolvedBound, UnitOrigins,
};
use crate::preprocess::{
    plan_bounding_box, plan_units, stage_units, unit_edge_for_level, PlanExtent, UnitRef,
};
use amr_mesh::prelude::*;
use h5lite::prelude::*;
use rankpar::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use sz_codec::codec::CodecId;
use sz_codec::lr;
use sz_codec::{Buffer3, CodecError, Dims3, View3};

/// Filter id for the AMRIC application-defined filter (outside h5lite's
/// built-in registry, like a dynamically loaded HDF5 plugin).
pub const FILTER_AMRIC: u32 = 100;

/// The AMRIC chunk filter: the chunk payload is a concatenation of cubic
/// unit blocks of edge `unit_edge`; encode runs the full §3.1–3.2
/// pipeline on them. Encoding appends into the caller's buffer through
/// the calling thread's scratch (rank threads and pool workers each have
/// their own), so the per-chunk hot path allocates no fresh quantization
/// scratch and workers never contend on hot buffers.
#[derive(Clone, Copy, Debug)]
pub struct AmricFieldFilter {
    /// Pipeline configuration.
    pub cfg: AmricConfig,
    /// Unit-block edge for the level being written.
    pub unit_edge: usize,
    /// Error bound, resolved by the writer from the *global* (all-rank)
    /// range of the field on this level — standard SZ REL semantics over
    /// the whole dataset. Quiet ranks therefore quantize to
    /// near-constants, which is where WarpX's huge ratios come from.
    /// [`ResolvedBound::Fixed`] is the paper path (byte-identical to the
    /// pre-policy writer); [`ResolvedBound::Adaptive`] spends the budget
    /// per unit block.
    pub bound: ResolvedBound,
}

impl AmricFieldFilter {
    /// Filter with one uniform absolute bound — the pre-policy
    /// constructor shape, used throughout the fixed-bound suites.
    pub fn fixed(cfg: AmricConfig, unit_edge: usize, abs_eb: f64) -> Self {
        AmricFieldFilter {
            cfg,
            unit_edge,
            bound: ResolvedBound::Fixed(abs_eb),
        }
    }
}

/// Flatten decoded unit blocks back into the chunk payload a generic
/// `ChunkFilter::decode` caller expects (exactly `n_elems` values).
/// `n_elems` is the directory's record, so a stream holding any other
/// count contradicts the file.
fn flatten_units(units: &[Buffer3], n_elems: usize) -> H5Result<Vec<f64>> {
    let held: usize = units.iter().map(|u| u.dims().len()).sum();
    if held != n_elems {
        return Err(H5Error::Format(format!(
            "chunk decoded {held} elems, chunk record says {n_elems}"
        )));
    }
    let mut out = Vec::with_capacity(n_elems);
    for u in units {
        out.extend_from_slice(u.data());
    }
    Ok(out)
}

/// Cut a staged chunk into its cubic unit blocks of edge `edge` — the
/// chunk's own slices, so the staged chunk is the only copy between the fab
/// and the codec. A length that is not a multiple of the unit volume is a
/// typed error, never a panic (the PR 2 regression contract).
fn unit_views(chunk: &[f64], edge: usize) -> H5Result<Vec<View3<'_>>> {
    let e3 = edge * edge * edge;
    if e3 == 0 || !chunk.len().is_multiple_of(e3) {
        return Err(H5Error::Codec(CodecError::dims(format!(
            "chunk of {} elems is not a multiple of unit {edge}³",
            chunk.len()
        ))));
    }
    let cube = Dims3::cube(edge);
    Ok(chunk
        .chunks_exact(e3)
        .map(|u| View3::new(cube, u))
        .collect())
}

impl ChunkFilter for AmricFieldFilter {
    fn id(&self) -> u32 {
        FILTER_AMRIC
    }

    fn client_data(&self) -> Vec<u8> {
        vec![self.unit_edge as u8]
    }

    fn encode_into(&self, chunk: &[f64], out: &mut Vec<u8>) -> H5Result<()> {
        let units = unit_views(chunk, self.unit_edge)?;
        compress_on_thread_scratch(&units, None, &self.cfg, self.unit_edge, self.bound, out);
        Ok(())
    }

    fn decode(&self, bytes: &[u8], n_elems: usize) -> H5Result<Vec<f64>> {
        flatten_units(&decompress_field_units(bytes)?, n_elems)
    }
}

/// One field dataset's filter in a snapshot write: an [`AmricFieldFilter`]
/// (its id, client data and bound) that knows where its units lie — the
/// `(rank, level)` plan's unit origins, so dense SZ_Interp chunks are
/// compressed in place — and that a temporal session extends. With a
/// `delta` plan (previous snapshot id, its decoded units of this chunk, the
/// unit map into them) it also encodes the delta stream and ships the
/// smaller, ties to spatial: a chunk is never larger than the spatial
/// stream. With `keep` it records what shipped: decoded state, and if it
/// was delta.
struct SnapshotFilter {
    plain: AmricFieldFilter,
    origins: Arc<UnitOrigins>,
    delta: Option<(Reference, Arc<[Option<u32>]>)>,
    keep: bool,
    shipped: OnceLock<(Vec<Buffer3>, bool)>,
}

impl ChunkFilter for SnapshotFilter {
    fn id(&self) -> u32 {
        self.plain.id()
    }

    fn client_data(&self) -> Vec<u8> {
        self.plain.client_data()
    }

    fn encode_into(&self, chunk: &[f64], out: &mut Vec<u8>) -> H5Result<()> {
        let start = out.len();
        let (cfg, edge) = (&self.plain.cfg, self.plain.unit_edge);
        let units = unit_views(chunk, edge)?;
        if units.len() != self.origins.len() {
            return Err(H5Error::Codec(CodecError::dims(format!(
                "chunk holds {} units, its plan {}",
                units.len(),
                self.origins.len()
            ))));
        }
        let origins = Some(&*self.origins);
        compress_on_thread_scratch(&units, origins, cfg, edge, self.plain.bound, out);
        if !self.keep {
            return Ok(());
        }
        let mut shipped = None;
        if let (Some(((id, reference), map)), ResolvedBound::Fixed(eb)) =
            (&self.delta, self.plain.bound)
        {
            let (reference, mut stream) = ((*id, reference.as_slice()), Vec::new());
            let encoded = lr::with_thread_scratch(|scratch| {
                let stream = &mut stream;
                compress_delta_into(
                    &units, origins, cfg, edge, eb, reference, map, scratch, stream,
                )
            })?;
            if stream.len() < out.len() - start {
                shipped = Some((encoded.into_state(&stream)?, true));
                out.truncate(start);
                out.extend_from_slice(&stream);
            }
        }
        let shipped = match shipped {
            Some(shipped) => shipped,
            None => (decompress_field_units(&out[start..])?, false),
        };
        // One chunk per rank and field: the cell is still empty.
        let _ = self.shipped.set(shipped);
        Ok(())
    }

    fn decode(&self, bytes: &[u8], n_elems: usize) -> H5Result<Vec<f64>> {
        self.plain.decode(bytes, n_elems)
    }
}

/// The unit map of a plan against the previous snapshot's plan of the same
/// rank and level, by region identity: unit `i` maps to the previous unit
/// with the same index-space box. Any level or layout change (refined
/// away, coarsened, redistributed) misses the map. `None` when no unit
/// maps.
fn region_map(plan: &[UnitRef], prev: &[UnitRef]) -> Option<Arc<[Option<u32>]>> {
    let key = |b: &IntBox| (b.lo.0, b.hi.0);
    let by_region: HashMap<_, u32> = (prev.iter().enumerate())
        .map(|(i, u)| (key(&u.region), i as u32))
        .collect();
    let map: Arc<[Option<u32>]> = plan
        .iter()
        .map(|u| by_region.get(&key(&u.region)).copied())
        .collect();
    map.iter().any(Option::is_some).then_some(map)
}

/// The previous snapshot a temporal write codes against: its id and what
/// its write kept, `[rank][level]`.
pub(crate) struct Previous {
    pub(crate) id: u64,
    pub(crate) ranks: Vec<Vec<LevelState>>,
}

/// What a snapshot write keeps of one `(rank, level)`: its chunk-index
/// extent, whether any field's chunk shipped the delta stream, and — when
/// the write keeps state — the unit plan and each field's decoded units.
pub(crate) struct LevelState {
    extent: Option<PlanExtent>,
    delta: bool,
    plan: Vec<UnitRef>,
    fields: Vec<Arc<Vec<Buffer3>>>,
}

/// Outcome of one snapshot write: per-rank cost ledgers plus size
/// accounting.
#[derive(Clone, Debug)]
pub struct WriteReport {
    /// World size the snapshot was written with.
    pub nranks: usize,
    /// Per-rank storage-event ledgers (includes measured encode seconds).
    pub ledgers: Vec<IoLedger>,
    /// Per-rank measured pre-processing seconds (staging, planning,
    /// layout).
    pub prep_seconds: Vec<f64>,
    /// Raw snapshot bytes (all levels × fields × cells × 8, including
    /// redundant coarse data — what a no-compression write stores).
    pub orig_bytes: u64,
    /// Stored payload bytes of the field datasets.
    pub stored_bytes: u64,
    /// Collectives each rank entered for the snapshot (rank 0's count;
    /// every rank enters the same sequence).
    pub collectives: u64,
}

impl WriteReport {
    /// End-to-end compression ratio of the snapshot.
    pub fn compression_ratio(&self) -> f64 {
        self.orig_bytes as f64 / self.stored_bytes.max(1) as f64
    }

    /// Modeled (prep, io) seconds for the slowest rank under a PFS model.
    pub fn modeled_seconds(&self, params: &PfsParams) -> (f64, f64) {
        let prep = self.prep_seconds.iter().cloned().fold(0.0, f64::max);
        let io = job_seconds(&self.ledgers, params, self.nranks);
        (prep, io)
    }
}

/// The one agreement of a level: every rank brings each field's local
/// `(min, max, staged elems)` to one allgather and gets back, per field,
/// the value range across **all** ranks (0.0 for constant or empty fields)
/// — the range REL bounds resolve against — and the global chunk size, the
/// largest rank's staged length (§3.3 Solution 2).
fn agree_level(comm: &Communicator, local: Vec<(f64, f64, u64)>) -> Vec<(f64, usize)> {
    let nfields = local.len();
    let all = comm.allgather(local);
    (0..nfields)
        .map(|f| {
            let glo = all.iter().map(|r| r[f].0).fold(f64::INFINITY, f64::min);
            let ghi = all.iter().map(|r| r[f].1).fold(f64::NEG_INFINITY, f64::max);
            let elems = all.iter().map(|r| r[f].2).max().unwrap_or(0);
            (if ghi > glo { ghi - glo } else { 0.0 }, elems as usize)
        })
        .collect()
}

/// Encode a u64 list as f64s (exact below 2⁵³) for metadata datasets.
pub(crate) fn ints_to_f64(vals: impl IntoIterator<Item = u64>) -> Vec<f64> {
    vals.into_iter().map(|v| v as f64).collect()
}

/// Write hierarchy-structure metadata (domains, boxes, owners, field
/// names) — the plotfile header AMReX also stores uncompressed.
pub(crate) fn write_metadata(writer: &H5Writer, h: &AmrHierarchy, extra: &[u64]) -> H5Result<()> {
    let nranks = h.level(0).data.distribution().nranks() as u64;
    let mut header: Vec<u64> = vec![h.num_levels() as u64, h.field_names().len() as u64, nranks];
    header.extend_from_slice(extra);
    for l in 0..h.num_levels() {
        let level = h.level(l);
        let n = level.domain.size();
        header.push(n.get(0) as u64);
        header.push(n.get(1) as u64);
        header.push(n.get(2) as u64);
        header.push(level.data.box_array().len() as u64);
        header.push(if l + 1 < h.num_levels() {
            h.ref_ratio(l) as u64
        } else {
            0
        });
    }
    let header_f = ints_to_f64(header);
    writer.write_dataset("meta/header", &header_f, header_f.len().max(1), &NoFilter)?;
    // Field names as UTF-8 bytes, each byte one f64.
    let mut names = Vec::new();
    for n in h.field_names() {
        names.push(n.len() as u64);
        names.extend(n.as_bytes().iter().map(|&b| b as u64));
    }
    let names_f = ints_to_f64(names);
    writer.write_dataset(
        "meta/field_names",
        &names_f,
        names_f.len().max(1),
        &NoFilter,
    )?;
    for l in 0..h.num_levels() {
        let level = h.level(l);
        let mut boxes = Vec::new();
        for (i, b) in level.data.box_array().iter().enumerate() {
            for d in 0..3 {
                boxes.push(b.lo.get(d) as u64);
            }
            for d in 0..3 {
                boxes.push(b.hi.get(d) as u64);
            }
            boxes.push(level.data.distribution().owner(i) as u64);
        }
        let boxes_f = ints_to_f64(boxes);
        writer.write_dataset(
            &format!("meta/level_{l}/boxes"),
            &boxes_f,
            boxes_f.len().max(1),
            &NoFilter,
        )?;
    }
    Ok(())
}

/// Dataset name for one level/field pair (fields addressed by index so
/// arbitrary names cannot collide with the path syntax). Public because
/// the read side — including the `amr-query` planner — addresses chunks
/// through the same naming.
pub fn field_dataset(level: usize, field: usize) -> String {
    format!("level_{level}/field_{field}")
}

/// The scaffolding every snapshot writer shares: run `body` once per rank
/// — it stages and writes the rank's datasets through the collective
/// engine, charging `ledger` and the prep-seconds counter — let rank 0 add
/// the plotfile header, and assemble the [`WriteReport`] plus the per-rank
/// `body` results in rank order. The caller still owns the container tail
/// (chunk indexes, `finish`).
///
/// A write call commits or aborts on every rank at once, so when `body`
/// fails it fails on *every* rank: the rank at fault with its typed cause,
/// its peers with the engine's abort notice (`H5Error::Format`). The typed
/// cause is the one surfaced; nothing panics out of a rank closure.
pub(crate) fn run_snapshot_ranks<T: Send>(
    writer: &H5Writer,
    h: &AmrHierarchy,
    header_extra: &[u64],
    body: impl Fn(&Communicator, &mut IoLedger, &mut f64) -> H5Result<T> + Sync,
) -> H5Result<(WriteReport, Vec<T>)> {
    let nranks = h.level(0).data.distribution().nranks();
    let per_rank = run_ranks(nranks, |comm| {
        let mut ledger = IoLedger::default();
        let mut prep_s = 0.0;
        let out = body(&comm, &mut ledger, &mut prep_s)?;
        // No collective follows: rank 0 adds the header after its last
        // vote, when every dataset is registered.
        if comm.rank() == 0 {
            write_metadata(writer, h, header_extra)?;
        }
        Ok((ledger, prep_s, out, comm.collectives()))
    });
    let mut report = WriteReport {
        nranks,
        ledgers: Vec::with_capacity(nranks),
        prep_seconds: Vec::with_capacity(nranks),
        orig_bytes: h.snapshot_bytes(),
        stored_bytes: 0,
        collectives: 0,
    };
    let mut outs = Vec::with_capacity(nranks);
    let mut notice = None;
    for result in per_rank {
        match result {
            Ok((ledger, prep_s, out, collectives)) => {
                debug_assert!(outs.is_empty() || collectives == report.collectives);
                report.collectives = collectives;
                report.stored_bytes += ledger.bytes_written;
                report.ledgers.push(ledger);
                report.prep_seconds.push(prep_s);
                outs.push(out);
            }
            Err(e @ H5Error::Format(_)) => notice = notice.or(Some(e)),
            Err(cause) => return Err(cause),
        }
    }
    notice.map_or(Ok((report, outs)), Err)
}

/// Write one snapshot with the full AMRIC pipeline. Returns the per-rank
/// cost report. The blocking factor `bf` must match the hierarchy's fine
/// grids (it drives unit sizes via [`unit_edge_for_level`]).
pub fn write_amric(
    path: impl AsRef<std::path::Path>,
    h: &AmrHierarchy,
    cfg: &AmricConfig,
    bf: i64,
) -> H5Result<WriteReport> {
    write_amric_to(Arc::new(H5Writer::create(path)?), h, cfg, bf)
}

/// The AMRIC pipeline over an already-created writer (a file, or
/// `H5Writer::in_memory`): runs the rank collectives and finishes the
/// container. A chunk that fails to encode aborts its level's write call
/// on every rank and surfaces here as the typed error (`H5Error::Codec`
/// for filter failures), never a panic.
pub fn write_amric_to(
    writer: Arc<H5Writer>,
    h: &AmrHierarchy,
    cfg: &AmricConfig,
    bf: i64,
) -> H5Result<WriteReport> {
    let (report, _) = write_snapshot(&writer, h, cfg, bf, None, false)?;
    writer.finish()?;
    Ok(report)
}

/// The one snapshot writer, under [`write_amric_to`] and
/// [`crate::temporal::TemporalSession`]: plan, stage and agree per level,
/// write every field dataset through the collective engine, and persist
/// the chunk indexes (the caller finishes the container). With `prev`, a
/// chunk whose units map into the previous snapshot's plan also tries the
/// delta stream against it; with `keep`, each `(rank, level)` comes back
/// with its plan and decoded fields, the next snapshot's reference.
pub(crate) fn write_snapshot(
    writer: &H5Writer,
    h: &AmrHierarchy,
    cfg: &AmricConfig,
    bf: i64,
    prev: Option<&Previous>,
    keep: bool,
) -> H5Result<(WriteReport, Vec<Vec<LevelState>>)> {
    let num_levels = h.num_levels();
    let nfields = h.field_names().len();
    let header_extra = [bf as u64, u64::from(cfg.remove_redundancy)];
    let body = |comm: &Communicator, ledger: &mut IoLedger, prep_s: &mut f64| {
        let rank = comm.rank();
        // Plan every level before anything is committed. The chunk filter
        // re-cuts a staged chunk into `unit³` cubes (§3.1: AMReX's blocking
        // factor guarantees unit-aligned grids), so a hierarchy that plans
        // any other unit shape is refused here, on every rank in lockstep,
        // instead of being written into a file nobody can read.
        let t0 = Instant::now();
        let plans: Vec<_> = (0..num_levels)
            .map(|l| {
                let finer =
                    (l + 1 < num_levels).then(|| (h.level(l + 1).data.box_array(), h.ref_ratio(l)));
                let unit = unit_edge_for_level(bf, l, num_levels);
                let units = plan_units(&h.level(l).data, finer, unit, rank, cfg.remove_redundancy);
                (unit, units)
            })
            .collect();
        *prep_s += t0.elapsed().as_secs_f64();
        let unaligned = plans.iter().position(|(unit, units)| {
            units
                .iter()
                .any(|u| u.region.size() != IntVect::new(*unit, *unit, *unit))
        });
        // One offending level + 1, the same on every rank (0 = all cubes).
        let unaligned = comm.allreduce_max(unaligned.map_or(0, |l| l as u64 + 1));
        if unaligned > 0 {
            let l = unaligned as usize - 1;
            let n = h.level(l).domain.size();
            return Err(H5Error::Format(format!(
                "level {l}: grids over the {}x{}x{} domain do not cut into {unit}³ unit blocks \
                 (blocking factor {bf}); AMRIC needs blocking-factor-aligned grids",
                n.get(0),
                n.get(1),
                n.get(2),
                unit = plans[l].0
            )));
        }
        // Per level: the bounding box of this rank's units — the extent the
        // chunk index persists, collected here so the index costs no
        // second planning pass — and what the write keeps.
        let mut levels = Vec::with_capacity(num_levels);
        for (l, (unit, units)) in plans.into_iter().enumerate() {
            let level = &h.level(l).data;
            // Pass 1 — stage every field field-major (§3.3 Solution 1:
            // this rank's units of one field, concatenated) and agree on
            // the write metadata (global bound + global chunk size) in
            // one collective. With the metadata known up front, pass 2
            // can overlap compression with the writes (the paper's
            // one-pass write).
            let t0 = Instant::now();
            let staged: Vec<Vec<f64>> = (0..nfields)
                .map(|f| stage_units(level, &units, f))
                .collect();
            *prep_s += t0.elapsed().as_secs_f64();
            let local = staged.iter().map(|s| {
                let (lo, hi) = sz_codec::buffer3::min_max(s);
                (lo, hi, s.len() as u64)
            });
            let agreed = agree_level(comm, local.collect());
            // The previous snapshot's state of this rank and level, and the
            // unit map into its plan.
            let prev_level = prev
                .and_then(|p| Some((p.id, p.ranks.get(rank)?.get(l)?)))
                .filter(|(_, p)| p.fields.len() == nfields);
            let map = prev_level.and_then(|(_, p)| region_map(&units, &p.plan));
            let origins = units.iter().map(|u| u.region.lo).collect();
            let origins = Arc::new(UnitOrigins::new(origins, unit as usize));
            let mut staged_fields = Vec::with_capacity(nfields);
            for (f, (staged, (range, chunk_elems))) in staged.into_iter().zip(agreed).enumerate() {
                // Resolve the relative bound against the field's global
                // range on this level. Constant (range-0) fields fall back
                // to the raw relative value — same contract as
                // `resolve_abs_eb`, so quiet ranks get a well-defined,
                // non-degenerate bound. Under an adaptive policy both
                // tight and loose resolve against the same global range.
                let filter = SnapshotFilter {
                    plain: AmricFieldFilter {
                        cfg: *cfg,
                        unit_edge: unit as usize,
                        bound: ResolvedBound::from_policy(cfg.bound, cfg.rel_eb, range),
                    },
                    origins: Arc::clone(&origins),
                    delta: prev_level
                        .zip(map.as_ref())
                        .map(|((id, p), map)| ((id, Arc::clone(&p.fields[f])), Arc::clone(map))),
                    keep,
                    shipped: OnceLock::new(),
                };
                let chunks = if chunk_elems == 0 {
                    Vec::new()
                } else {
                    vec![ChunkData::full(staged)]
                };
                staged_fields.push((field_dataset(l, f), chunks, chunk_elems.max(1), filter));
            }
            // Pass 2 — the write engine: compress on the rank-local pool
            // (inline at `workers = 1`), commit in field order, one vote.
            let jobs: Vec<DatasetJob> = staged_fields
                .iter()
                .map(|(name, chunks, chunk_elems, filter)| DatasetJob {
                    name,
                    chunks,
                    chunk_elems: *chunk_elems,
                    filter,
                    mode: FilterMode::SizeAware,
                })
                .collect();
            ledger.merge(&collective_write_many(comm, writer, &jobs, cfg.workers)?);
            let mut state = LevelState {
                extent: plan_bounding_box(&units),
                delta: false,
                plan: Vec::new(),
                fields: Vec::new(),
            };
            for (.., filter) in staged_fields {
                let (units, delta) = filter.shipped.into_inner().unwrap_or_default();
                state.delta |= delta;
                state.fields.extend(keep.then(|| Arc::new(units)));
            }
            if keep {
                state.plan = units;
            }
            levels.push(state);
        }
        Ok(levels)
    };
    let (report, ranks) = run_snapshot_ranks(writer, h, &header_extra, body)?;

    // The chunk index of every field dataset: one entry per rank chunk
    // with the pipeline's codec id, the bounding box of the rank's units
    // and, for a chunk that shipped a delta stream, the snapshot id it
    // predicts from. The `amr-query` engine requires this index, checks
    // its extents against the unit plans at open, and prunes chunks with
    // it without decoding anything. A level where no rank kept any cells
    // registers zero chunks; otherwise every rank contributed exactly one.
    for l in 0..num_levels {
        let states = || ranks.iter().map(|levels| &levels[l]);
        let entries: Vec<ChunkIndexEntry> = if states().all(|s| s.extent.is_none()) {
            Vec::new()
        } else {
            let entry = |s: &LevelState| {
                let entry = ChunkIndexEntry::new(CodecId::AmricPipeline as u32, s.extent);
                match prev.filter(|_| s.delta) {
                    Some(p) => entry.with_reference(p.id),
                    None => entry,
                }
            };
            states().map(entry).collect()
        };
        for f in 0..nfields {
            writer.set_chunk_index(&field_dataset(l, f), ChunkIndex::new(entries.clone()))?;
        }
    }
    Ok((report, ranks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::TemporalSession;
    use amr_apps::prelude::*;

    /// Run the full pipeline into an in-memory container and reopen it —
    /// no filesystem, nothing to leak on panic.
    fn write_mem(h: &AmrHierarchy, cfg: &AmricConfig, bf: i64) -> (WriteReport, H5Reader) {
        let (w, mem) = H5Writer::in_memory();
        let report = write_amric_to(Arc::new(w), h, cfg, bf).unwrap();
        (report, H5Reader::from_storage(Box::new(mem)).unwrap())
    }

    fn small_nyx_cfg() -> AmrRunConfig {
        AmrRunConfig {
            coarse_dims: (16, 16, 16),
            max_grid_size: 8,
            blocking_factor: 8,
            nranks: 2,
            num_levels: 2,
            fine_fraction: 0.05,
            grid_eff: 0.7,
        }
    }

    fn small_nyx() -> AmrHierarchy {
        build_hierarchy(&NyxScenario::new(11), &small_nyx_cfg(), 0.0)
    }

    #[test]
    fn amric_write_produces_compressed_file() {
        let h = small_nyx();
        let (report, r) = write_mem(&h, &AmricConfig::lr(1e-3), 8);
        assert_eq!(report.nranks, 2);
        assert!(
            report.compression_ratio() > 2.0,
            "CR {}",
            report.compression_ratio()
        );
        // One filter call per (rank-with-data, level, field).
        let total_filters: u64 = report.ledgers.iter().map(|l| l.filter_calls).sum();
        assert!(total_filters <= 2 * 2 * 6);
        assert!(r.dataset_names().contains(&"level_0/field_0"));
        assert!(r.dataset_names().contains(&"meta/header"));
    }

    #[test]
    fn interp_variant_writes() {
        let h = small_nyx();
        let (report, _) = write_mem(&h, &AmricConfig::interp(1e-3), 8);
        assert!(report.compression_ratio() > 2.0);
    }

    #[test]
    fn filter_roundtrip_standalone() {
        // Bound = rel bound × data range used below.
        let filter = AmricFieldFilter::fixed(AmricConfig::lr(1e-3), 4, 1e-3 * 3.2);
        let mut chunk = Vec::new();
        for u in 0..5 {
            for i in 0..64 {
                chunk.push((u * 64 + i) as f64 * 0.01);
            }
        }
        let enc = filter.encode(&chunk).unwrap();
        let dec = filter.decode(&enc, chunk.len()).unwrap();
        let range = chunk.len() as f64 * 0.01;
        for (o, r) in chunk.iter().zip(&dec) {
            assert!((o - r).abs() <= 1e-3 * range + 1e-12);
        }
        // A chunk record that contradicts its stream is a format error
        // either way, never a silent cut.
        for n in [chunk.len() - 1, chunk.len() + 1] {
            assert!(matches!(filter.decode(&enc, n), Err(H5Error::Format(_))));
        }
    }

    #[test]
    fn filter_rejects_non_unit_multiple_chunks() {
        // Regression: a chunk whose length is not a multiple of the unit
        // volume must surface as a typed error, not an assert panic.
        let filter = AmricFieldFilter::fixed(AmricConfig::lr(1e-3), 4, 1e-3);
        let chunk = vec![0.0; 63]; // 4³ = 64 ∤ 63
        let err = filter.encode(&chunk).unwrap_err();
        assert!(
            matches!(err.as_codec(), Some(CodecError::DimsMismatch { .. })),
            "{err:?}"
        );
        let mut out = vec![0xAAu8; 3];
        assert!(filter.encode_into(&chunk, &mut out).is_err());
        // A zero unit edge is equally rejected (no division-by-zero path).
        let zero = AmricFieldFilter {
            unit_edge: 0,
            ..filter
        };
        assert!(zero.encode(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn parallel_write_is_byte_identical_to_serial() {
        // The tentpole invariant at the writer level: every dataset's
        // stored chunk bytes match between the serial path and the
        // overlapped pool path, for both codec families, at every
        // worker count.
        let h = small_nyx();
        for (tag, cfg) in [
            ("lr", AmricConfig::lr(1e-3)),
            ("interp", AmricConfig::interp(1e-3)),
        ] {
            let (rs, a) = write_mem(&h, &cfg, 8);
            for workers in [2, 4] {
                let (rp, b) = write_mem(&h, &cfg.with_workers(workers), 8);
                let tag = format!("{tag} workers={workers}");
                assert_eq!(rs.stored_bytes, rp.stored_bytes, "{tag}");
                assert_eq!(a.dataset_names(), b.dataset_names(), "{tag}");
                for name in a.dataset_names() {
                    let (ma, mb) = (a.meta(name).unwrap(), b.meta(name).unwrap());
                    assert_eq!(ma.chunks.len(), mb.chunks.len(), "{tag}/{name}");
                    for i in 0..ma.chunks.len() {
                        assert_eq!(
                            a.read_chunk_raw(name, i).unwrap(),
                            b.read_chunk_raw(name, i).unwrap(),
                            "{tag}/{name} chunk {i} bytes differ"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn field_jobs_with_leading_and_trailing_empty_fields() {
        // Zero-chunk fields before, between, and after chunked fields
        // must all register (the engine has to ride them along), with the
        // AMRIC filter encoding on pool workers.
        let (writer, mem) = H5Writer::in_memory();
        let writer = Arc::new(writer);
        let w = Arc::clone(&writer);
        let filter = AmricFieldFilter::fixed(AmricConfig::lr(1e-3), 4, 1e-3);
        let ledgers = rankpar::run_ranks(2, move |comm| {
            let data: Vec<f64> = (0..128).map(|i| (i as f64 * 0.03).sin()).collect();
            let full = [ChunkData::full(data)];
            let names = ["f0", "f1", "f2", "f3", "f4"];
            let jobs: Vec<DatasetJob> = (0..5)
                .map(|f| DatasetJob {
                    name: names[f],
                    chunks: if f % 2 == 1 { &full } else { &[] },
                    chunk_elems: 128,
                    filter: &filter,
                    mode: FilterMode::SizeAware,
                })
                .collect();
            collective_write_many(&comm, &w, &jobs, 3).unwrap()
        });
        for l in &ledgers {
            assert_eq!(l.dataset_creates, 5);
            assert_eq!(l.filter_calls, 2);
        }
        writer.finish().unwrap();
        let rd = H5Reader::from_storage(Box::new(mem)).unwrap();
        assert_eq!(rd.dataset_names(), vec!["f0", "f1", "f2", "f3", "f4"]);
        assert_eq!(rd.meta("f0").unwrap().chunks.len(), 0);
        assert_eq!(rd.meta("f1").unwrap().chunks.len(), 2);
    }

    #[test]
    fn multi_chunk_field_streams_batches_and_matches_serial() {
        // A field staging many chunks per rank: frames must stream to
        // storage in batches (bounded memory) and still produce the same
        // stored chunk bytes, in rank-major chunk order, as workers=1.
        let filter = AmricFieldFilter::fixed(AmricConfig::lr(1e-3), 4, 1e-3);
        let chunk = |rank: usize, c: usize| {
            ChunkData::full(
                (0..128)
                    .map(|i| ((rank * 2048 + c * 128 + i) as f64 * 0.011).sin())
                    .collect(),
            )
        };
        let write = |workers: usize| {
            let (writer, mem) = H5Writer::in_memory();
            let writer = Arc::new(writer);
            let w = Arc::clone(&writer);
            let ledgers = rankpar::run_ranks(2, move |comm| {
                let chunks: Vec<ChunkData> = (0..11).map(|c| chunk(comm.rank(), c)).collect();
                let job = DatasetJob {
                    name: "many",
                    chunks: &chunks,
                    chunk_elems: 128,
                    filter: &filter,
                    mode: FilterMode::SizeAware,
                };
                collective_write_many(&comm, &w, &[job], workers).unwrap()
            });
            writer.finish().unwrap();
            (ledgers, H5Reader::from_storage(Box::new(mem)).unwrap())
        };
        let (r1, a) = write(1);
        let (r4, b) = write(4);
        for (rs, rp) in r1.iter().zip(&r4) {
            assert_eq!(rs.filter_calls, 11);
            assert_eq!(rp.filter_calls, 11);
            assert_eq!(rs.bytes_written, rp.bytes_written);
        }
        let (ma, mb) = (a.meta("many").unwrap(), b.meta("many").unwrap());
        assert_eq!(ma.chunks.len(), 22);
        assert_eq!(mb.chunks.len(), 22);
        for i in 0..22 {
            assert_eq!(
                a.read_chunk_raw("many", i).unwrap(),
                b.read_chunk_raw("many", i).unwrap(),
                "chunk {i}"
            );
            assert_eq!(ma.chunks[i].logical_elems, mb.chunks[i].logical_elems);
        }
    }

    #[test]
    fn filter_error_surfaces_as_typed_codec_error() {
        // Rank 1 stages a chunk that is not whole unit blocks: the AMRIC
        // filter rejects it, the call's vote aborts every rank, and the caller
        // gets the typed cause — not rank 0's abort notice, and not a
        // panic out of the rank closure.
        let h = small_nyx();
        let filter = AmricFieldFilter::fixed(AmricConfig::lr(1e-3), 4, 1e-3);
        for workers in [1, 3] {
            let (w, _mem) = H5Writer::in_memory();
            let err = run_snapshot_ranks(&w, &h, &[0, 0], |comm, _, _| {
                let chunks = [ChunkData::full(vec![0.0; 64 - comm.rank()])];
                let job = DatasetJob {
                    name: "f",
                    chunks: &chunks,
                    chunk_elems: 64,
                    filter: &filter,
                    mode: FilterMode::SizeAware,
                };
                collective_write_many(comm, &w, &[job], workers).map(drop)
            })
            .unwrap_err();
            assert!(
                matches!(err, H5Error::Codec(CodecError::DimsMismatch { .. })),
                "workers={workers}: {err:?}"
            );
        }
    }

    #[test]
    fn a_snapshot_costs_two_collectives_per_level() {
        // 2 levels × 6 fields at every rank count: AMRIC agrees on the
        // grid alignment once, then per level on its bounds (one gather)
        // and on its write call (one vote); the temporal session is the
        // same writer, and the baseline skips the alignment check.
        // `run_snapshot_ranks` checks in debug builds that every rank
        // entered the same count.
        let dir = h5lite::testutil::TempDir::new("amric-collectives");
        for nranks in [1, 2, 4, 16] {
            let cfg = AmrRunConfig {
                nranks,
                ..small_nyx_cfg()
            };
            let h = build_hierarchy(&NyxScenario::new(11), &cfg, 0.0);
            assert_eq!((h.num_levels(), h.field_names().len()), (2, 6));
            let (amric, _) = write_mem(&h, &AmricConfig::lr(1e-3), 8);
            let mut session = TemporalSession::new(AmricConfig::lr(1e-3), 8);
            let temporal = session.write_to(Arc::new(H5Writer::in_memory().0), &h);
            let baseline = crate::baseline::write_amrex_baseline(
                dir.file(&format!("b{nranks}.h5l")),
                &h,
                &crate::config::BaselineConfig::new(1e-2),
            );
            let counts = (
                amric.collectives,
                temporal.unwrap().collectives,
                baseline.unwrap().collectives,
            );
            assert_eq!(counts, (5, 5, 4), "nranks={nranks}");
        }
    }

    #[test]
    fn modeled_seconds_monotone_in_scale() {
        let h = small_nyx();
        let (report, _) = write_mem(&h, &AmricConfig::lr(1e-3), 8);
        let params = PfsParams::default();
        let (_, io) = report.modeled_seconds(&params);
        assert!(io > 0.0);
    }
}
