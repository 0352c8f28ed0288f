//! Cross-snapshot temporal compression sessions — threading the
//! `sz_codec::temporal` delta family through the AMRIC write/read paths.
//!
//! A [`TemporalSession`] writes a *series* of snapshots. For each one it
//! plans units exactly like [`crate::writer::write_amric_to`], then maps
//! every unit against the previous snapshot's plan **by region identity**
//! (same level, same rank, same index-space box): units whose region
//! survived regridding delta-code against the previous snapshot's
//! *decoded* values; units whose region changed level or layout fall back
//! to the spatial-only path inside the same stream. Mapped streams are
//! additionally **size-gated**: a surviving region only proves the layout
//! held still, so each (level, rank, field) stream is encoded both ways
//! and the smaller one ships — temporal output is never larger than
//! spatial-only output, even under dynamics violent enough that residuals
//! cost more than the field itself. The session retains
//! the decoded state of everything it writes (returned by the codec
//! during encoding — never a second decode pass), so the next snapshot
//! predicts from exactly what any reader will reconstruct and error never
//! accumulates across steps.
//!
//! Reference linkage is recorded twice, at different granularities:
//!
//! * the per-chunk **chunk index** entry carries the reference snapshot
//!   id ([`h5lite::ChunkIndexEntry::reference`]) so random access — the
//!   `amr-query` planner — can resolve which prior file a delta chunk
//!   needs without decoding anything, and
//! * the small `meta/temporal` dataset stores
//!   `[snapshot_id, reference_id]` for the whole file (0 = none).
//!
//! Spatial-only temporal streams are self-contained, and delta streams
//! decoded without their reference fail with a typed error naming it
//! rather than decoding wrong data (see the `sz_codec::temporal` module
//! docs).

use crate::preprocess::{
    extract_units, plan_bounding_box, plan_units, unit_edge_for_level, PlanExtent, UnitRef,
};
use crate::reader::{load_plotfile, Plotfile};
use crate::writer::{
    agree_level, field_dataset, flatten_units, run_snapshot_ranks, write_chunk_indexes, WriteReport,
};
use amr_mesh::prelude::*;
use h5lite::prelude::*;
use rankpar::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use sz_codec::buffer3::place_unit;
use sz_codec::codec::CodecId;
use sz_codec::temporal::{TemporalCodec, TemporalConfig, TemporalReference};
use sz_codec::{AsView3, Buffer3, CodecResult};

/// Filter id for the temporal delta filter (registered like the AMRIC
/// filter, outside h5lite's built-in registry).
pub const FILTER_TEMPORAL: u32 = 101;

/// Chunk-filter face of the temporal family — carries the dataset
/// metadata (filter id, unit edge) and decodes **self-contained** chunks
/// for generic readers. Delta chunks need their reference and are decoded
/// by [`read_temporal_hierarchy`], which resolves references per rank.
#[derive(Clone, Copy, Debug)]
pub struct TemporalFieldFilter {
    /// Unit-block edge for the level being written.
    pub unit_edge: usize,
}

impl ChunkFilter for TemporalFieldFilter {
    fn id(&self) -> u32 {
        FILTER_TEMPORAL
    }

    fn client_data(&self) -> Vec<u8> {
        vec![self.unit_edge as u8]
    }

    fn encode_into(&self, _chunk: &[f64], _out: &mut Vec<u8>) -> H5Result<()> {
        // The session encodes through the codec directly (it needs the
        // decoded state back); the filter only describes the dataset.
        Err(H5Error::Format(
            "TemporalFieldFilter encodes through TemporalSession".into(),
        ))
    }

    fn decode(&self, bytes: &[u8], n_elems: usize) -> H5Result<Vec<f64>> {
        flatten_units(&TemporalCodec::decoder().decompress(bytes)?, n_elems)
    }
}

/// Session-level configuration (a snapshot's streams are still fully
/// self-describing; this drives the write side only).
#[derive(Clone, Copy, Debug)]
pub struct TemporalSessionConfig {
    /// Value-range-relative error bound, resolved per (level, field)
    /// against the global range — same REL semantics as the AMRIC writer.
    pub rel_eb: f64,
    /// Remove redundant coarse data under finer levels (paper §3.1).
    pub remove_redundancy: bool,
    /// SZ block size of the spatial fallback streams.
    pub block_size: usize,
}

impl TemporalSessionConfig {
    /// Stock configuration at the given relative bound.
    pub fn new(rel_eb: f64) -> Self {
        TemporalSessionConfig {
            rel_eb,
            remove_redundancy: true,
            block_size: 6,
        }
    }
}

/// Everything the session retains about the previous snapshot: its id,
/// its unit plans (for region-identity mapping), and the decoded units of
/// every (level, rank, field) stream, already wrapped as codec references.
struct PrevSnapshot {
    id: u64,
    nfields: usize,
    /// `[rank][level]` outcomes, exactly as the rank closures left them.
    ranks: Vec<Vec<LevelOut>>,
}

/// Per-(rank, level) outcome carried out of the rank closures.
struct LevelOut {
    extent: Option<PlanExtent>,
    /// The rank's unit plan (for region-identity mapping next snapshot).
    plan: Vec<UnitRef>,
    any_delta: bool,
    /// Per-field decoded state, the next snapshot's reference.
    field_refs: Vec<Arc<TemporalReference>>,
}

/// A multi-snapshot temporal write session. Create one per series, call
/// [`TemporalSession::write`] once per snapshot (each snapshot is its own
/// container file); the first snapshot — and any unit whose region the
/// regrid schedule moved — is coded spatially, everything else as deltas.
pub struct TemporalSession {
    cfg: TemporalSessionConfig,
    bf: i64,
    next_id: u64,
    prev: Option<PrevSnapshot>,
    /// Automatic keyframe cadence: every `n`-th write drops the retained
    /// reference first (0 = never, the default).
    keyframe_interval: u64,
    /// Writes since the last keyframe (a spatial-only snapshot).
    since_keyframe: u64,
}

/// Corner-tuple key for region-identity unit mapping (IntBox carries no
/// Hash impl; the corners are the identity that matters).
fn region_key(b: &IntBox) -> ([i64; 3], [i64; 3]) {
    (
        [b.lo.get(0), b.lo.get(1), b.lo.get(2)],
        [b.hi.get(0), b.hi.get(1), b.hi.get(2)],
    )
}

/// Encode one (level, rank, field) stream. Size-aware mode choice: a
/// surviving region only proves the *layout* held still — violent dynamics
/// can make residuals cost more than re-coding the field spatially. So
/// when a region mapping exists (`delta`: the reference plus the per-unit
/// map into it) the stream is encoded both ways and the smaller one
/// ships: temporal output is never larger than spatial-only output.
/// Returns the frame, the decoded state, and whether the delta won.
fn encode_stream(
    tcfg: TemporalConfig,
    bufs: &[Buffer3],
    delta: Option<(Arc<TemporalReference>, Vec<Option<u32>>)>,
) -> CodecResult<(EncodedFrame, Vec<Buffer3>, bool)> {
    let t0 = Instant::now();
    let mut bytes = Vec::new();
    let mut decoded = TemporalCodec::spatial(tcfg).compress_with_state(bufs, &mut bytes)?;
    let mut shipped_delta = false;
    if let Some((reference, unit_refs)) = delta {
        let mut delta_bytes = Vec::new();
        let delta_decoded = TemporalCodec::with_reference(tcfg, reference, unit_refs)
            .compress_with_state(bufs, &mut delta_bytes)?;
        if delta_bytes.len() < bytes.len() {
            bytes = delta_bytes;
            decoded = delta_decoded;
            shipped_delta = true;
        }
    }
    let frame = EncodedFrame {
        bytes,
        logical_elems: bufs.iter().map(|b| b.dims().len() as u64).sum(),
        encode_seconds: t0.elapsed().as_secs_f64(),
    };
    Ok((frame, decoded, shipped_delta))
}

impl TemporalSession {
    /// New session; `bf` is the blocking factor of the hierarchies the
    /// session will write (drives unit sizes, fixed across the series).
    pub fn new(cfg: TemporalSessionConfig, bf: i64) -> Self {
        TemporalSession {
            cfg,
            bf,
            next_id: 1,
            prev: None,
            keyframe_interval: 0,
            since_keyframe: 0,
        }
    }

    /// Automatic [`reset_reference`](TemporalSession::reset_reference)
    /// cadence: every `n`-th snapshot is written spatial-only (a
    /// keyframe), bounding every delta chain to `n - 1` links so a reader
    /// never has to walk more than `n` files and a lost snapshot orphans
    /// at most one interval. `n = 1` disables delta coding entirely;
    /// `n = 0` means no automatic cadence (the default). A manual
    /// `reset_reference` call restarts the interval count.
    pub fn with_keyframe_interval(mut self, n: u64) -> Self {
        self.keyframe_interval = n;
        self
    }

    /// Snapshot id the next [`TemporalSession::write`] call will record.
    pub fn next_snapshot_id(&self) -> u64 {
        self.next_id
    }

    /// Drop the retained reference state: the next snapshot is written
    /// spatial-only, starting a fresh delta chain.
    pub fn reset_reference(&mut self) {
        self.prev = None;
        self.since_keyframe = 0;
    }

    /// Write one snapshot of the series to a new container at `path`.
    pub fn write(
        &mut self,
        path: impl AsRef<std::path::Path>,
        h: &AmrHierarchy,
    ) -> H5Result<WriteReport> {
        self.write_to(Arc::new(H5Writer::create(path)?), h)
    }

    /// Backend-agnostic variant of [`TemporalSession::write`]: runs the
    /// rank collectives against an already-created writer and finishes
    /// the container.
    pub fn write_to(&mut self, writer: Arc<H5Writer>, h: &AmrHierarchy) -> H5Result<WriteReport> {
        // Keyframe cadence: due snapshots drop the reference *before*
        // encoding, so the stream, chunk index, and `meta/temporal` all
        // record a self-contained snapshot (no reference anywhere).
        if self.keyframe_interval > 0 && self.since_keyframe >= self.keyframe_interval {
            self.reset_reference();
        }
        self.since_keyframe += 1;
        let num_levels = h.num_levels();
        let nfields = h.field_names().len();
        let id = self.next_id;
        let cfg = self.cfg;
        let bf = self.bf;
        let prev = self.prev.as_ref();

        let header_extra = [bf as u64, u64::from(cfg.remove_redundancy)];
        let body = |comm: &Communicator, ledger: &mut IoLedger, prep_s: &mut f64| {
            let rank = comm.rank();
            let mut levels_out = Vec::with_capacity(num_levels);
            for l in 0..num_levels {
                let level = &h.level(l).data;
                let finer =
                    (l + 1 < num_levels).then(|| (h.level(l + 1).data.box_array(), h.ref_ratio(l)));
                let unit = unit_edge_for_level(bf, l, num_levels);
                let t0 = Instant::now();
                let units = plan_units(level, finer, unit, rank, cfg.remove_redundancy);
                let extent = plan_bounding_box(&units);
                // Regrid-aware mapping: a unit delta-codes iff the same
                // region existed in this rank's plan for this level last
                // snapshot. Any level/layout change (refined away,
                // coarsened, redistributed, re-truncated) misses the map
                // and falls back to spatial coding.
                let prev_level = prev
                    .filter(|p| p.nfields == nfields)
                    .and_then(|p| p.ranks.get(rank)?.get(l));
                let unit_refs: Vec<Option<u32>> = match prev_level {
                    Some(p) => {
                        let by_region: HashMap<_, u32> = p
                            .plan
                            .iter()
                            .enumerate()
                            .map(|(i, u)| (region_key(&u.region), i as u32))
                            .collect();
                        units
                            .iter()
                            .map(|u| by_region.get(&region_key(&u.region)).copied())
                            .collect()
                    }
                    _ => vec![None; units.len()],
                };
                let any_mapped = unit_refs.iter().any(Option::is_some);
                let fields: Vec<Vec<Buffer3>> = (0..nfields)
                    .map(|f| extract_units(level, &units, f))
                    .collect();
                *prep_s += t0.elapsed().as_secs_f64();
                // Global REL bound and global chunk size per field, agreed
                // in one collective like the AMRIC writer.
                let local = fields.iter().map(|bufs| {
                    let extremes = bufs.iter().map(Buffer3::min_max);
                    let (lo, hi) = extremes.fold((f64::INFINITY, f64::NEG_INFINITY), |a, b| {
                        (a.0.min(b.0), a.1.max(b.1))
                    });
                    (lo, hi, bufs.iter().map(|b| b.dims().len() as u64).sum())
                });
                let agreed = agree_level(comm, local.collect());
                // Encode every field stream, keeping its decoded state (the
                // next snapshot's reference) and whether any stream shipped
                // delta-coded bytes (the chunk index records the reference
                // only then). The first failure stops the level and becomes
                // this rank's vote, so the peers abort with it.
                let mut any_delta = false;
                let mut field_refs = Vec::with_capacity(nfields);
                let mut encode = |f: usize, (range, chunk_elems)| {
                    let tcfg = TemporalConfig {
                        abs_eb: sz_codec::quantizer::absolute_bound(cfg.rel_eb, range),
                        block_size: cfg.block_size,
                    };
                    let delta = any_mapped.then(|| {
                        let reference = &prev_level.expect("mapping implies prev").field_refs[f];
                        (Arc::clone(reference), unit_refs.clone())
                    });
                    let (frames, decoded) = match chunk_elems {
                        0 => (Vec::new(), Vec::new()),
                        _ => {
                            let (frame, decoded, delta) = encode_stream(tcfg, &fields[f], delta)?;
                            any_delta |= delta;
                            (vec![frame], decoded)
                        }
                    };
                    field_refs.push(Arc::new(TemporalReference::new(id, decoded)));
                    Ok(frames)
                };
                let frames = (0..nfields)
                    .map(|f| encode(f, agreed[f]))
                    .collect::<CodecResult<Vec<_>>>()
                    .map_err(H5Error::Codec);
                let filter = TemporalFieldFilter {
                    unit_edge: unit as usize,
                };
                let names: Vec<String> = (0..nfields).map(|f| field_dataset(l, f)).collect();
                let jobs: Vec<DatasetJob> = names
                    .iter()
                    .zip(&agreed)
                    .map(|(name, &(_, chunk_elems))| DatasetJob {
                        name,
                        chunks: &[],
                        chunk_elems: chunk_elems.max(1),
                        filter: &filter,
                        mode: FilterMode::SizeAware,
                    })
                    .collect();
                ledger.merge(&collective_write_frames(comm, &writer, &jobs, frames)?);
                levels_out.push(LevelOut {
                    extent,
                    plan: units,
                    any_delta,
                    field_refs,
                });
            }
            Ok(levels_out)
        };
        let (report, per_rank) = run_snapshot_ranks(&writer, h, &header_extra, body)?;

        // Chunk index: codec id + extent per rank chunk, plus the
        // reference snapshot id on chunks that delta-code.
        let prev_id = prev.map(|p| p.id);
        let extents: Vec<Vec<Option<PlanExtent>>> = (0..num_levels)
            .map(|l| per_rank.iter().map(|levels| levels[l].extent).collect())
            .collect();
        write_chunk_indexes(&writer, nfields, CodecId::Temporal, &extents, |l, rank| {
            prev_id.filter(|_| per_rank[rank][l].any_delta)
        })?;
        // Whole-file temporal linkage (0 = no reference).
        writer.write_dataset(
            "meta/temporal",
            &[id as f64, prev_id.unwrap_or(0) as f64],
            2,
            &NoFilter,
        )?;
        writer.finish()?;

        self.prev = Some(PrevSnapshot {
            id,
            nfields,
            ranks: per_rank,
        });
        self.next_id += 1;
        Ok(report)
    }
}

/// Temporal linkage of one file, from its `meta/temporal` dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemporalMeta {
    /// This snapshot's id within its write session.
    pub snapshot_id: u64,
    /// Snapshot id this file's delta chunks predict from, if any.
    pub reference_id: Option<u64>,
}

/// Read the temporal linkage of an open container. Errors on files
/// without a `meta/temporal` dataset (non-temporal plotfiles).
pub fn read_temporal_meta(r: &H5Reader) -> H5Result<TemporalMeta> {
    let raw = r.read_dataset("meta/temporal")?;
    if raw.len() < 2 {
        return Err(H5Error::Format(format!(
            "meta/temporal holds {} values, expected 2",
            raw.len()
        )));
    }
    let reference = raw[1] as u64;
    Ok(TemporalMeta {
        snapshot_id: raw[0] as u64,
        reference_id: (reference != 0).then_some(reference),
    })
}

/// Decoded reference state carried between [`read_temporal_hierarchy`]
/// calls — the read-side mirror of the session's retained state.
pub struct TemporalReadState {
    /// Snapshot id of the decoded file.
    pub id: u64,
    /// Decoded reference state per `(level, rank, field)` stream.
    refs: HashMap<(usize, usize, usize), Arc<TemporalReference>>,
}

/// Load one snapshot of a temporal series from an open container,
/// resolving delta chunks against `prev` (the state returned by decoding
/// the referenced snapshot). Pass `None` for the first snapshot of a
/// chain; a delta file decoded without its reference fails with a typed
/// error, and a `prev` whose id does not match the file's recorded
/// reference id is rejected before any chunk is touched.
pub fn read_temporal_hierarchy(
    r: &H5Reader,
    prev: Option<&TemporalReadState>,
) -> H5Result<(Plotfile, TemporalReadState)> {
    let tmeta = read_temporal_meta(r)?;
    if let (Some(rid), Some(p)) = (tmeta.reference_id, prev) {
        if p.id != rid {
            return Err(H5Error::Format(format!(
                "file references snapshot {rid}, reader holds {}",
                p.id
            )));
        }
    }
    let mut refs = HashMap::new();
    let pf = load_plotfile(r, |l, rank, f, raw, dest| {
        let codec = match prev.and_then(|p| p.refs.get(&(l, rank, f))) {
            Some(reference) => TemporalCodec::decoder_with(Arc::clone(reference)),
            None => TemporalCodec::decoder(),
        };
        // The decoded units are the next snapshot's reference, so they are
        // kept whole and copied to the fabs.
        let units = codec.decompress(raw)?;
        for (i, unit) in units.iter().enumerate() {
            place_unit(dest, i, unit.view())?;
        }
        let state = TemporalReference::new(tmeta.snapshot_id, units);
        refs.insert((l, rank, f), Arc::new(state));
        Ok(())
    })?;
    // Ranks of a level that stored no chunks hold an empty reference.
    let nfields = pf.field_names.len();
    for (l, ranks) in pf.unit_plans.iter().enumerate() {
        for key in (0..ranks.len()).flat_map(|r| (0..nfields).map(move |f| (l, r, f))) {
            let empty = || Arc::new(TemporalReference::new(tmeta.snapshot_id, Vec::new()));
            refs.entry(key).or_insert_with(empty);
        }
    }
    Ok((
        pf,
        TemporalReadState {
            id: tmeta.snapshot_id,
            refs,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{read_plotfile_meta, verify_against};
    use amr_apps::prelude::*;
    use sz_codec::CodecError;

    fn series_cfg() -> AmrRunConfig {
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

    fn write_series(dt: f64, nsteps: usize, rel_eb: f64) -> Vec<(AmrHierarchy, H5Reader)> {
        let scenario = NyxScenario::new(11);
        let cfg = series_cfg();
        let mut session = TemporalSession::new(TemporalSessionConfig::new(rel_eb), 8);
        TimeSeries::new(&scenario, cfg, dt, nsteps)
            .map(|(_, _, h)| {
                let (w, mem) = H5Writer::in_memory();
                session.write_to(Arc::new(w), &h).unwrap();
                (h, H5Reader::from_storage(Box::new(mem)).unwrap())
            })
            .collect()
    }

    #[test]
    fn series_roundtrip_respects_bounds() {
        let rel_eb = 1e-3;
        let series = write_series(0.02, 3, rel_eb);
        let mut state: Option<TemporalReadState> = None;
        for (step, (h, reader)) in series.iter().enumerate() {
            let (pf, next) = read_temporal_hierarchy(reader, state.as_ref()).unwrap();
            for c in verify_against(&pf, h, rel_eb) {
                assert!(c.bound_ok, "step {step} field {} violates bound", c.field);
            }
            state = Some(next);
        }
    }

    #[test]
    fn later_snapshots_record_reference_linkage() {
        let series = write_series(0.02, 2, 1e-3);
        let first = read_temporal_meta(&series[0].1).unwrap();
        assert_eq!(first.snapshot_id, 1);
        assert_eq!(first.reference_id, None);
        let second = read_temporal_meta(&series[1].1).unwrap();
        assert_eq!(second.snapshot_id, 2);
        assert_eq!(second.reference_id, Some(1));
        // The chunk index carries the reference per chunk.
        let idx = series[1].1.chunk_index("level_0/field_0").unwrap().unwrap();
        assert!(!idx.entries.is_empty());
        assert!(
            idx.entries.iter().any(|e| e.reference == Some(1)),
            "no chunk records its reference: {:?}",
            idx.entries
        );
        assert!(idx
            .entries
            .iter()
            .all(|e| e.codec_id == CodecId::Temporal as u32));
    }

    #[test]
    fn delta_file_without_reference_fails_typed() {
        let series = write_series(0.02, 2, 1e-3);
        let err = match read_temporal_hierarchy(&series[1].1, None) {
            Err(e) => e,
            Ok(_) => panic!("delta file must not decode without its reference"),
        };
        assert!(
            matches!(err.as_codec(), Some(CodecError::BadParameter { .. })),
            "{err:?}"
        );
        // Mismatched reference state is rejected up front.
        let (_, state0) = read_temporal_hierarchy(&series[0].1, None).unwrap();
        let (_, state1) = read_temporal_hierarchy(&series[1].1, Some(&state0)).unwrap();
        assert!(read_temporal_hierarchy(&series[1].1, Some(&state1)).is_err());
    }

    #[test]
    fn session_reset_starts_fresh_chain() {
        let scenario = NyxScenario::new(11);
        let cfg = series_cfg();
        let mut session = TemporalSession::new(TemporalSessionConfig::new(1e-3), 8);
        let h = build_hierarchy(&scenario, &cfg, 0.0);
        let (w1, m1) = H5Writer::in_memory();
        session.write_to(Arc::new(w1), &h).unwrap();
        session.reset_reference();
        let (w2, m2) = H5Writer::in_memory();
        session.write_to(Arc::new(w2), &h).unwrap();
        let r2 = H5Reader::from_storage(Box::new(m2)).unwrap();
        assert_eq!(read_temporal_meta(&r2).unwrap().reference_id, None);
        // Self-contained: decodes with no prior state.
        let (pf, _) = read_temporal_hierarchy(&r2, None).unwrap();
        for c in verify_against(&pf, &h, 1e-3) {
            assert!(c.bound_ok);
        }
        drop(m1);
    }

    #[test]
    fn keyframe_interval_resets_chain_automatically() {
        // Interval 2: snapshots 1, 3, 5, … are keyframes. The chain
        // contract for a keyframe is total — `meta/temporal` records no
        // reference, every chunk index entry carries none, and the file
        // decodes with no prior state.
        let scenario = NyxScenario::new(11);
        let cfg = series_cfg();
        let mut session =
            TemporalSession::new(TemporalSessionConfig::new(1e-3), 8).with_keyframe_interval(2);
        let series: Vec<(AmrHierarchy, H5Reader)> = TimeSeries::new(&scenario, cfg, 0.02, 5)
            .map(|(_, _, h)| {
                let (w, mem) = H5Writer::in_memory();
                session.write_to(Arc::new(w), &h).unwrap();
                (h, H5Reader::from_storage(Box::new(mem)).unwrap())
            })
            .collect();
        let refs: Vec<Option<u64>> = series
            .iter()
            .map(|(_, r)| read_temporal_meta(r).unwrap().reference_id)
            .collect();
        assert_eq!(refs, vec![None, Some(1), None, Some(3), None]);
        for keyframe in [2usize, 4] {
            let (h, reader) = &series[keyframe];
            let meta = read_plotfile_meta(reader).unwrap();
            for l in 0..meta.num_levels() {
                for f in 0..meta.field_names.len() {
                    let idx = reader.chunk_index(&field_dataset(l, f)).unwrap().unwrap();
                    for e in &idx.entries {
                        assert_eq!(e.reference, None, "keyframe chunk carries a reference");
                    }
                }
            }
            // Self-contained: decodes with no prior state, within bound.
            let (pf, _) = read_temporal_hierarchy(reader, None).unwrap();
            for c in verify_against(&pf, h, 1e-3) {
                assert!(c.bound_ok);
            }
        }
        // A delta snapshot in between still needs its reference.
        assert!(read_temporal_hierarchy(&series[1].1, None).is_err());
    }

    #[test]
    fn keyframe_interval_one_disables_deltas_and_manual_reset_restarts_count() {
        let scenario = NyxScenario::new(11);
        let cfg = series_cfg();
        let mut every =
            TemporalSession::new(TemporalSessionConfig::new(1e-3), 8).with_keyframe_interval(1);
        for (_, _, h) in TimeSeries::new(&scenario, cfg, 0.02, 3) {
            let (w, mem) = H5Writer::in_memory();
            every.write_to(Arc::new(w), &h).unwrap();
            let r = H5Reader::from_storage(Box::new(mem)).unwrap();
            assert_eq!(read_temporal_meta(&r).unwrap().reference_id, None);
        }
        // Manual reset restarts the interval: with interval 3, snapshots
        // 1 and 4 would be keyframes, but a reset before #3 makes the
        // cadence 1, 3, 6.
        let mut session =
            TemporalSession::new(TemporalSessionConfig::new(1e-3), 8).with_keyframe_interval(3);
        let mut refs = Vec::new();
        for (i, (_, _, h)) in TimeSeries::new(&scenario, cfg, 0.02, 6).enumerate() {
            if i == 2 {
                session.reset_reference();
            }
            let (w, mem) = H5Writer::in_memory();
            session.write_to(Arc::new(w), &h).unwrap();
            let r = H5Reader::from_storage(Box::new(mem)).unwrap();
            refs.push(read_temporal_meta(&r).unwrap().reference_id);
        }
        assert_eq!(
            refs,
            vec![None, Some(1), None, Some(3), Some(4), None],
            "manual reset must restart the keyframe count"
        );
    }

    #[test]
    fn every_stream_decodes_given_its_reference() {
        // Every temporal stream round-trips bitwise given its reference: a
        // decoder with the right reference installed returns exactly what
        // the session reader reconstructs.
        let series = write_series(0.02, 2, 1e-3);
        let (_, state0) = read_temporal_hierarchy(&series[0].1, None).unwrap();
        let (pf1, _) = read_temporal_hierarchy(&series[1].1, Some(&state0)).unwrap();
        let reader = &series[1].1;
        let meta = read_plotfile_meta(reader).unwrap();
        for l in 0..meta.num_levels() {
            for f in 0..meta.field_names.len() {
                let name = field_dataset(l, f);
                let nchunks = reader.meta(&name).unwrap().chunks.len();
                for rank in 0..nchunks {
                    let raw = reader.read_chunk_raw(&name, rank).unwrap();
                    let reference = state0.refs[&(l, rank, f)].clone();
                    let units = TemporalCodec::decoder_with(reference)
                        .decompress(&raw)
                        .unwrap();
                    // Bitwise parity with the session reader's scatter.
                    let plan = &pf1.unit_plans[l][rank];
                    for (u, p) in units.iter().zip(plan) {
                        let recon = pf1.levels[l].fab(p.box_index).extract_region(&p.region, f);
                        for (a, b) in u.data().iter().zip(&recon) {
                            assert_eq!(a.to_bits(), b.to_bits());
                        }
                    }
                }
            }
        }
    }
}
