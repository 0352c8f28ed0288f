//! Cross-snapshot temporal compression: a [`TemporalSession`] writes a
//! series of ordinary AMRIC plotfiles whose chunks may delta-code against
//! the previous snapshot.
//!
//! The session holds state only — snapshot ids, the keyframe cadence and
//! what the last write kept — and writes through the one snapshot writer
//! behind [`crate::writer::write_amric_to`]. Per chunk that writer maps
//! every unit against the previous snapshot's plan of the same rank and
//! level **by region identity** (same index-space box). A chunk with a
//! mapped unit is encoded twice, as the plain pipeline stream and as the
//! pipeline's delta mode (mapped units as residuals against the previous
//! snapshot's *decoded* values, the rest in a nested stream of the
//! configured mode), and the smaller ships, ties to plain: a chunk is never
//! larger than `write_amric_to`'s, and a keyframe's field datasets are
//! byte-identical to it. The decoded state of what shipped comes back
//! through the chunk filter — delta units from the encoder, the rest from
//! one decode of the stream — so the next snapshot predicts from exactly
//! what any reader reconstructs, and error never accumulates across steps.
//! Delta coding applies under [`BoundPolicy::Fixed`]; a
//! `GradientAdaptive` session writes the plain adaptive stream.
//!
//! Reference linkage is recorded twice:
//!
//! * the chunk index entry of a chunk that shipped a delta stream carries
//!   the reference snapshot id ([`h5lite::ChunkIndexEntry::reference`]),
//!   so a planner sees which prior file a chunk needs without decoding;
//! * the `meta/temporal` dataset stores `[snapshot_id, reference_id]` for
//!   the whole file (0 = none), read back by [`read_temporal_meta`].
//!
//! Reading needs the referenced snapshot: a restart passes its
//! [`crate::reader::Plotfile`] to [`crate::reader::read_amric_from`], a
//! query engine gets the reference snapshot's engine. Each checks the id
//! before any chunk is read; a delta chunk decoded without its reference
//! fails typed.

use crate::config::{AmricConfig, BoundPolicy};
use crate::writer::{write_snapshot, Previous, WriteReport};
use amr_mesh::prelude::*;
use h5lite::prelude::*;
use std::sync::Arc;

/// A multi-snapshot temporal write session. Create one per series and call
/// [`TemporalSession::write`] once per snapshot (each snapshot is its own
/// container); the first snapshot — and any chunk whose regions the regrid
/// schedule moved — is coded spatially, everything else as deltas where
/// that is smaller.
pub struct TemporalSession {
    cfg: AmricConfig,
    bf: i64,
    next_id: u64,
    prev: Option<Previous>,
    /// Automatic keyframe cadence: every `n`-th write drops the retained
    /// reference first (0 = never, the default).
    keyframe_interval: u64,
    /// Writes since the last keyframe (a snapshot with no reference).
    since_keyframe: u64,
}

impl TemporalSession {
    /// New session writing with `cfg`; `bf` is the blocking factor of the
    /// hierarchies the session will write (drives unit sizes, fixed across
    /// the series).
    pub fn new(cfg: AmricConfig, bf: i64) -> Self {
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
    /// cadence: every `n`-th snapshot is a keyframe, bounding every delta
    /// chain to `n - 1` links so a reader never walks more than `n` files
    /// and a lost snapshot orphans at most one interval. `n = 1` disables
    /// delta coding; `n = 0` means no automatic cadence (the default). A
    /// manual `reset_reference` call restarts the interval count.
    pub fn with_keyframe_interval(mut self, n: u64) -> Self {
        self.keyframe_interval = n;
        self
    }

    /// Drop the retained reference state: the next snapshot is a keyframe,
    /// starting a fresh delta chain.
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

    /// Backend-agnostic variant of [`TemporalSession::write`]: writes the
    /// snapshot through an already-created writer and finishes the
    /// container.
    pub fn write_to(&mut self, writer: Arc<H5Writer>, h: &AmrHierarchy) -> H5Result<WriteReport> {
        // Keyframe cadence: a due snapshot drops the reference *before*
        // encoding, so its chunks, chunk index and `meta/temporal` all
        // record a self-contained snapshot.
        if self.keyframe_interval > 0 && self.since_keyframe >= self.keyframe_interval {
            self.reset_reference();
        }
        self.since_keyframe += 1;
        let id = self.next_id;
        let keep = self.cfg.bound == BoundPolicy::Fixed;
        let prev = self.prev.as_ref();
        let (report, ranks) = write_snapshot(&writer, h, &self.cfg, self.bf, prev, keep)?;
        let reference = prev.map_or(0, |p| p.id);
        writer.write_dataset(
            "meta/temporal",
            &[id as f64, reference as f64],
            2,
            &NoFilter,
        )?;
        writer.finish()?;
        self.prev = keep.then_some(Previous { id, ranks });
        self.next_id += 1;
        Ok(report)
    }
}

/// Temporal linkage of one file, from its `meta/temporal` dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemporalMeta {
    /// This snapshot's id within its write session (never 0).
    pub snapshot_id: u64,
    /// Snapshot id this file's delta chunks predict from, if any.
    pub reference_id: Option<u64>,
}

/// Read the temporal linkage of an open container: `None` for a file
/// without a `meta/temporal` dataset (a plain AMRIC plotfile). Total over
/// forged values: an id that is not a finite non-negative integer of at
/// most 2⁵³, or a snapshot id of 0, is an [`H5Error::Format`].
pub fn read_temporal_meta(r: &H5Reader) -> H5Result<Option<TemporalMeta>> {
    let raw = match r.read_dataset("meta/temporal") {
        Err(H5Error::NotFound(_)) => return Ok(None),
        raw => raw?,
    };
    let id = |v: f64| {
        let exact = v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= (1u64 << 53) as f64;
        exact
            .then_some(v as u64)
            .ok_or_else(|| H5Error::Format(format!("meta/temporal holds {v}, not a snapshot id")))
    };
    let &[snapshot, reference] = raw.as_slice() else {
        return Err(H5Error::Format(format!(
            "meta/temporal holds {} values, expected 2",
            raw.len()
        )));
    };
    let (snapshot_id, reference) = (id(snapshot)?, id(reference)?);
    if snapshot_id == 0 {
        return Err(H5Error::Format(
            "meta/temporal records snapshot id 0".into(),
        ));
    }
    Ok(Some(TemporalMeta {
        snapshot_id,
        reference_id: (reference != 0).then_some(reference),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{
        compress_delta_into, compress_field_units, decompress_field_units,
        decompress_field_units_into, no_reference, AmricScratch, Reference,
    };
    use crate::reader::{read_amric_from, read_plotfile_meta, verify_against, Plotfile};
    use crate::writer::{field_dataset, write_amric_to};
    use amr_apps::prelude::*;
    use sz_codec::codec::{expect_envelope, CodecId, FLAG_REFERENCED};
    use sz_codec::{Buffer3, CodecError, CodecResult, Dims3, ErrorStats};

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

    /// Write `nsteps` snapshots of a Nyx series through `session`.
    fn write_with(
        session: &mut TemporalSession,
        dt: f64,
        nsteps: usize,
    ) -> Vec<(AmrHierarchy, H5Reader)> {
        TimeSeries::new(&NyxScenario::new(11), series_cfg(), dt, nsteps)
            .map(|(_, _, h)| {
                let (w, mem) = H5Writer::in_memory();
                session.write_to(Arc::new(w), &h).unwrap();
                (h, H5Reader::from_storage(Box::new(mem)).unwrap())
            })
            .collect()
    }

    fn write_series(dt: f64, nsteps: usize, rel_eb: f64) -> Vec<(AmrHierarchy, H5Reader)> {
        write_with(
            &mut TemporalSession::new(AmricConfig::lr(rel_eb), 8),
            dt,
            nsteps,
        )
    }

    fn linkage(r: &H5Reader) -> TemporalMeta {
        read_temporal_meta(r).unwrap().expect("a temporal snapshot")
    }

    /// Restart every snapshot of a chain, each given the one before it
    /// when it names one.
    fn restart_chain(series: &[(AmrHierarchy, H5Reader)]) -> Vec<Plotfile> {
        let mut chain: Vec<Plotfile> = Vec::new();
        for (_, r) in series {
            let reference = linkage(r).reference_id.and(chain.last());
            chain.push(read_amric_from(r, reference).unwrap());
        }
        chain
    }

    /// Deterministic per-cell roughness, constant in time.
    fn grain(i: usize, j: usize, k: usize) -> f64 {
        let h =
            (i.wrapping_mul(73_856_093) ^ j.wrapping_mul(19_349_663) ^ k.wrapping_mul(83_492_791))
                % 1024;
        h as f64 / 1024.0 - 0.5
    }

    fn snapshot(n: usize, t: f64) -> Vec<Buffer3> {
        (0..4)
            .map(|u| {
                let mut b = Buffer3::zeros(Dims3::cube(n));
                b.fill_with(|i, j, k| {
                    let (x, y, z) = (
                        i as f64 / n as f64,
                        j as f64 / n as f64,
                        k as f64 / n as f64,
                    );
                    (6.0 * (x + t)).sin() * (5.0 * y).cos()
                        + 0.5 * (4.0 * (z - t)).sin()
                        + 0.05 * grain(i, j, k)
                        + u as f64 * 0.1
                });
                b
            })
            .collect()
    }

    /// The delta stream of `units` against `reference` (snapshot `id`).
    fn delta_stream(
        units: &[Buffer3],
        eb: f64,
        id: u64,
        reference: &[Buffer3],
        map: &[Option<u32>],
    ) -> CodecResult<Vec<u8>> {
        let mut out = Vec::new();
        let edge = units.first().map_or(8, |u| u.dims().nx);
        let cfg = AmricConfig::lr(eb);
        let mut scratch = AmricScratch::default();
        compress_delta_into(
            units,
            None,
            &cfg,
            edge,
            eb,
            (id, reference),
            map,
            &mut scratch,
            &mut out,
        )?;
        Ok(out)
    }

    fn decode_with(stream: &[u8], reference: Reference) -> CodecResult<Vec<Buffer3>> {
        let mut units = Vec::new();
        decompress_field_units_into(stream, &mut units, &mut || Ok(reference.clone()))?;
        Ok(units)
    }

    fn assert_within(orig: &[Buffer3], back: &[Buffer3], eb: f64) {
        assert_eq!(orig.len(), back.len());
        for (o, r) in orig.iter().zip(back) {
            assert_eq!(o.dims(), r.dims());
            let stats = ErrorStats::compare(o.data(), r.data());
            assert!(
                stats.max_abs_err <= eb * (1.0 + 1e-12),
                "{}",
                stats.max_abs_err
            );
        }
    }

    #[test]
    fn mixed_spatial_and_delta_roundtrip() {
        let eb = 5e-4;
        let prev = snapshot(8, 0.0);
        let next = snapshot(8, 0.02);
        // Units 1 and 3 regridded away: only 0 and 2 have references.
        let reference = vec![prev[0].clone(), prev[2].clone()];
        let stream = delta_stream(&next, eb, 3, &reference, &[Some(0), None, Some(1), None]);
        let stream = stream.unwrap();
        let env = expect_envelope(&stream, CodecId::AmricPipeline, 1).unwrap();
        assert_ne!(env.flags & FLAG_REFERENCED, 0);
        assert_within(
            &next,
            &decode_with(&stream, (3, Arc::new(reference))).unwrap(),
            eb,
        );
    }

    #[test]
    fn spatial_only_stream_is_self_contained() {
        // A keyframe chunk is the plain pipeline stream: no reference
        // flag, and a decoder with no reference handles it.
        let units = snapshot(8, 0.5);
        let stream = compress_field_units(&units, &AmricConfig::lr(1e-3), 8);
        let env = expect_envelope(&stream, CodecId::AmricPipeline, 1).unwrap();
        assert_eq!(env.flags & FLAG_REFERENCED, 0);
        let eb = crate::pipeline::resolve_abs_eb(&units, 1e-3);
        assert_within(&units, &decompress_field_units(&stream).unwrap(), eb);
    }

    #[test]
    fn stable_series_beats_per_snapshot_lr() {
        // The mode's reason to exist: on a slowly evolving series the
        // delta symbols concentrate near zero and compress far better
        // than re-coding the spatial structure every step.
        let eb = 1e-3;
        let cfg = AmricConfig::lr(eb);
        let mut reference: Option<Vec<Buffer3>> = None;
        let (mut temporal_bytes, mut lr_bytes) = (0, 0);
        for step in 0..4 {
            let units = snapshot(12, step as f64 * 0.005);
            let plain = compress_field_units(&units, &cfg, 12);
            lr_bytes += plain.len();
            let (stream, state) = match &reference {
                None => (plain.clone(), decompress_field_units(&plain).unwrap()),
                Some(r) => {
                    let mut out = Vec::new();
                    let map = [Some(0), Some(1), Some(2), Some(3)];
                    let mut scratch = AmricScratch::default();
                    let encoded = compress_delta_into(
                        &units,
                        None,
                        &cfg,
                        12,
                        eb,
                        (step, r),
                        &map,
                        &mut scratch,
                        &mut out,
                    )
                    .unwrap();
                    let state = encoded.into_state(&out).unwrap();
                    (out, state)
                }
            };
            temporal_bytes += stream.len();
            reference = Some(state);
        }
        assert!(
            temporal_bytes < lr_bytes,
            "temporal {temporal_bytes} B should beat per-snapshot LR {lr_bytes} B"
        );
    }

    #[test]
    fn decoder_with_installed_reference_decodes() {
        let prev = snapshot(8, 0.0);
        let next = snapshot(8, 0.01);
        let map = [Some(0), Some(1), None, Some(3)];
        let stream = delta_stream(&next, 1e-3, 42, &prev, &map).unwrap();
        // No reference: a typed failure naming the missing reference.
        assert!(matches!(
            decompress_field_units(&stream),
            Err(CodecError::BadParameter { .. })
        ));
        let mut units = Vec::new();
        let err = decompress_field_units_into(&stream, &mut units, &mut no_reference);
        assert!(matches!(err, Err(CodecError::BadParameter { .. })));
        // The reference resolves it, and the encoder's own state is
        // bitwise what the decoder rebuilds.
        let mut out = Vec::new();
        let cfg = AmricConfig::lr(1e-3);
        let mut scratch = AmricScratch::default();
        let encoded = compress_delta_into(
            &next,
            None,
            &cfg,
            8,
            1e-3,
            (42, &prev),
            &map,
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(out, stream);
        let state = encoded.into_state(&out).unwrap();
        let back = decode_with(&stream, (42, Arc::new(prev))).unwrap();
        for (a, b) in state.iter().zip(&back) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn forged_reference_id_is_corrupt() {
        let prev = snapshot(8, 0.0);
        let next = snapshot(8, 0.01);
        let map = [Some(0), Some(1), Some(2), Some(3)];
        let stream = delta_stream(&next, 1e-3, 5, &prev, &map).unwrap();
        assert!(matches!(
            decode_with(&stream, (6, Arc::new(prev))),
            Err(CodecError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_stream_roundtrip() {
        // An empty chunk is the pipeline's empty marker, with or without a
        // previous snapshot: the session never writes an empty delta.
        let units: Vec<Buffer3> = Vec::new();
        let stream = compress_field_units(&units, &AmricConfig::lr(1e-3), 8);
        assert_eq!(stream.len(), 9);
        assert!(decompress_field_units(&stream).unwrap().is_empty());
        let empty = delta_stream(&units, 1e-3, 1, &[], &[]).unwrap();
        assert!(decode_with(&empty, (1, Arc::default())).unwrap().is_empty());
    }

    #[test]
    fn encode_rejects_bad_mapping() {
        let units = snapshot(8, 0.0);
        let reference = snapshot(8, 0.0);
        // Mapping length mismatch.
        assert!(delta_stream(&units, 1e-3, 1, &reference, &[Some(0)]).is_err());
        // Out-of-range target.
        let map = [Some(9), None, None, None];
        assert!(delta_stream(&units, 1e-3, 1, &reference, &map).is_err());
        // Dims mismatch against the reference.
        let small = snapshot(4, 0.0);
        let map = [Some(0), Some(1), Some(2), Some(3)];
        assert!(delta_stream(&units, 1e-3, 1, &small, &map).is_err());
        // A degenerate bound.
        assert!(matches!(
            delta_stream(&units, 0.0, 1, &reference, &map),
            Err(CodecError::BadParameter { .. })
        ));
    }

    #[test]
    fn series_roundtrip_respects_bounds() {
        let rel_eb = 1e-3;
        let series = write_series(0.02, 3, rel_eb);
        for (step, ((h, _), pf)) in series.iter().zip(restart_chain(&series)).enumerate() {
            for c in verify_against(&pf, h, rel_eb) {
                assert!(c.bound_ok, "step {step} field {} violates bound", c.field);
            }
        }
    }

    #[test]
    fn later_snapshots_record_reference_linkage() {
        let series = write_series(0.02, 2, 1e-3);
        let first = linkage(&series[0].1);
        assert_eq!((first.snapshot_id, first.reference_id), (1, None));
        let second = linkage(&series[1].1);
        assert_eq!((second.snapshot_id, second.reference_id), (2, Some(1)));
        // The chunk index carries the reference per chunk that shipped a
        // delta stream, under the pipeline's one codec id.
        let idx = series[1].1.chunk_index("level_0/field_0").unwrap().unwrap();
        assert!(!idx.entries.is_empty());
        assert!(
            idx.entries.iter().any(|e| e.reference == Some(1)),
            "no chunk records its reference: {:?}",
            idx.entries
        );
        let pipeline = CodecId::AmricPipeline as u32;
        assert!(idx.entries.iter().all(|e| e.codec_id == pipeline));
        // A plain plotfile has no linkage at all.
        let (w, mem) = H5Writer::in_memory();
        write_amric_to(Arc::new(w), &series[0].0, &AmricConfig::lr(1e-3), 8).unwrap();
        let plain = H5Reader::from_storage(Box::new(mem)).unwrap();
        assert_eq!(read_temporal_meta(&plain).unwrap(), None);
    }

    #[test]
    fn delta_file_without_reference_fails_typed() {
        let series = write_series(0.02, 2, 1e-3);
        let err = match read_amric_from(&series[1].1, None) {
            Err(e) => e,
            Ok(_) => panic!("delta file must not decode without its reference"),
        };
        assert!(
            matches!(err.as_codec(), Some(CodecError::BadParameter { .. })),
            "{err:?}"
        );
        // A reference the file does not name is refused up front: the
        // file itself, and a plain restart with no linkage.
        let chain = restart_chain(&series);
        for wrong in [&chain[1], &read_amric_from(&series[0].1, None).unwrap()] {
            let mut unlinked = read_amric_from(&series[0].1, None).unwrap();
            unlinked.temporal = None;
            for reference in [wrong, &unlinked] {
                if reference.temporal.map(|t| t.snapshot_id) == Some(1) {
                    continue;
                }
                let refused = read_amric_from(&series[1].1, Some(reference));
                assert!(matches!(refused, Err(H5Error::Format(_))));
            }
        }
        // And a keyframe names no reference, so none is accepted.
        assert!(matches!(
            read_amric_from(&series[0].1, Some(&chain[0])),
            Err(H5Error::Format(_))
        ));
    }

    #[test]
    fn session_reset_starts_fresh_chain() {
        let mut session = TemporalSession::new(AmricConfig::lr(1e-3), 8);
        let h = build_hierarchy(&NyxScenario::new(11), &series_cfg(), 0.0);
        session
            .write_to(Arc::new(H5Writer::in_memory().0), &h)
            .unwrap();
        session.reset_reference();
        let (w2, m2) = H5Writer::in_memory();
        session.write_to(Arc::new(w2), &h).unwrap();
        let r2 = H5Reader::from_storage(Box::new(m2)).unwrap();
        assert_eq!(linkage(&r2).reference_id, None);
        // Self-contained: decodes with no prior state.
        let pf = read_amric_from(&r2, None).unwrap();
        for c in verify_against(&pf, &h, 1e-3) {
            assert!(c.bound_ok);
        }
    }

    #[test]
    fn keyframe_interval_resets_chain_automatically() {
        // Interval 2: snapshots 1, 3, 5, … are keyframes. The chain
        // contract for a keyframe is total — `meta/temporal` records no
        // reference, every chunk index entry carries none, and the file
        // decodes with no prior state.
        let mut session = TemporalSession::new(AmricConfig::lr(1e-3), 8).with_keyframe_interval(2);
        let series = write_with(&mut session, 0.02, 5);
        let refs: Vec<Option<u64>> = series
            .iter()
            .map(|(_, r)| linkage(r).reference_id)
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
            let pf = read_amric_from(reader, None).unwrap();
            for c in verify_against(&pf, h, 1e-3) {
                assert!(c.bound_ok);
            }
        }
        // A delta snapshot in between still needs its reference.
        assert!(read_amric_from(&series[1].1, None).is_err());
    }

    #[test]
    fn keyframe_interval_one_disables_deltas_and_manual_reset_restarts_count() {
        let mut every = TemporalSession::new(AmricConfig::lr(1e-3), 8).with_keyframe_interval(1);
        for (_, r) in write_with(&mut every, 0.02, 3) {
            assert_eq!(linkage(&r).reference_id, None);
        }
        // Manual reset restarts the interval: with interval 3, snapshots
        // 1 and 4 would be keyframes, but a reset before #3 makes the
        // cadence 1, 3, 6.
        let mut session = TemporalSession::new(AmricConfig::lr(1e-3), 8).with_keyframe_interval(3);
        let mut refs = Vec::new();
        for (i, (_, _, h)) in
            TimeSeries::new(&NyxScenario::new(11), series_cfg(), 0.02, 6).enumerate()
        {
            if i == 2 {
                session.reset_reference();
            }
            let (w, mem) = H5Writer::in_memory();
            session.write_to(Arc::new(w), &h).unwrap();
            let r = H5Reader::from_storage(Box::new(mem)).unwrap();
            refs.push(linkage(&r).reference_id);
        }
        assert_eq!(
            refs,
            vec![None, Some(1), None, Some(3), Some(4), None],
            "manual reset must restart the keyframe count"
        );
    }

    #[test]
    fn every_stream_decodes_given_its_reference() {
        // Every stored stream decodes bitwise given the referenced
        // snapshot's chunk, exactly as the chain restart places it, and a
        // chunk that shipped a delta stream is the one its index says.
        let series = write_series(0.02, 2, 1e-3);
        let chain = restart_chain(&series);
        let reader = &series[1].1;
        let meta = read_plotfile_meta(reader).unwrap();
        let mut deltas = 0;
        for l in 0..meta.num_levels() {
            let entries = &reader
                .chunk_index(&field_dataset(l, 0))
                .unwrap()
                .unwrap()
                .entries;
            for f in 0..meta.field_names.len() {
                let name = field_dataset(l, f);
                for (rank, entry) in entries.iter().enumerate() {
                    let raw = reader.read_chunk_raw(&name, rank).unwrap();
                    let env = expect_envelope(&raw, CodecId::AmricPipeline, 1).unwrap();
                    let delta = env.flags & FLAG_REFERENCED != 0;
                    deltas += usize::from(delta);
                    if delta {
                        assert_eq!(entry.reference, Some(1));
                    }
                    let reference = Arc::new(chain[0].chunk_units(l, rank, f).unwrap());
                    let units = decode_with(&raw, (1, reference)).unwrap();
                    assert_eq!(units, chain[1].chunk_units(l, rank, f).unwrap());
                }
            }
        }
        assert!(
            deltas > 0,
            "no chunk of a stable series shipped a delta stream"
        );
    }

    /// Every field dataset's stored chunks, in name order.
    fn field_chunks(r: &H5Reader) -> Vec<(String, Vec<Vec<u8>>)> {
        let names = r
            .dataset_names()
            .into_iter()
            .filter(|n| n.starts_with("level_"));
        names
            .map(|name| {
                let n = r.meta(name).unwrap().chunks.len();
                let chunks = (0..n).map(|i| r.read_chunk_raw(name, i).unwrap()).collect();
                (name.to_string(), chunks)
            })
            .collect()
    }

    #[test]
    fn keyframe_field_datasets_equal_the_plain_writer() {
        let h = build_hierarchy(&NyxScenario::new(11), &series_cfg(), 0.0);
        for cfg in [AmricConfig::lr(1e-3), AmricConfig::interp(1e-3)] {
            let (w, mem) = H5Writer::in_memory();
            let plain = write_amric_to(Arc::new(w), &h, &cfg, 8).unwrap();
            let plain_reader = H5Reader::from_storage(Box::new(mem)).unwrap();
            let (w, mem) = H5Writer::in_memory();
            let keyframe = TemporalSession::new(cfg, 8)
                .write_to(Arc::new(w), &h)
                .unwrap();
            let key_reader = H5Reader::from_storage(Box::new(mem)).unwrap();
            assert_eq!(plain.stored_bytes, keyframe.stored_bytes);
            assert_eq!(field_chunks(&plain_reader), field_chunks(&key_reader));
            for name in plain_reader
                .dataset_names()
                .into_iter()
                .filter(|n| n.starts_with("level_"))
            {
                assert_eq!(
                    plain_reader.chunk_index(name).unwrap(),
                    key_reader.chunk_index(name).unwrap()
                );
            }
        }
    }

    #[test]
    fn session_containers_do_not_depend_on_workers() {
        // One rank: the whole container is byte-identical. Two ranks race
        // for chunk offsets, so there the stored chunks are compared.
        for nranks in [1, 2] {
            let run = AmrRunConfig {
                nranks,
                ..series_cfg()
            };
            let images = |workers: usize| {
                let cfg = AmricConfig::lr(1e-3).with_workers(workers);
                let mut session = TemporalSession::new(cfg, 8);
                TimeSeries::new(&NyxScenario::new(11), run, 0.02, 3)
                    .map(|(_, _, h)| {
                        let (w, mem) = H5Writer::in_memory();
                        session.write_to(Arc::new(w), &h).unwrap();
                        let r = H5Reader::from_storage(Box::new(mem.clone())).unwrap();
                        (mem.to_bytes(), field_chunks(&r))
                    })
                    .collect::<Vec<_>>()
            };
            let serial = images(1);
            for workers in [2, 4] {
                for (t, (a, b)) in serial.iter().zip(images(workers)).enumerate() {
                    let what = format!("nranks={nranks} workers={workers} snapshot {t}");
                    assert!(a.1 == b.1, "{what}: chunks differ");
                    assert!(nranks > 1 || a.0 == b.0, "{what}: containers differ");
                }
            }
        }
    }

    #[test]
    fn gradient_adaptive_session_writes_no_delta_stream() {
        let policy = BoundPolicy::GradientAdaptive {
            tight: 1e-4,
            loose: 1e-2,
        };
        let mut session = TemporalSession::new(AmricConfig::lr(1e-3).with_bound_policy(policy), 8);
        let series = write_with(&mut session, 0.02, 3);
        for (step, (_, r)) in series.iter().enumerate() {
            assert_eq!(linkage(r).reference_id, None, "step {step}");
            for (name, chunks) in field_chunks(r) {
                for raw in chunks {
                    let env = expect_envelope(&raw, CodecId::AmricPipeline, 1).unwrap();
                    assert_eq!(env.flags & FLAG_REFERENCED, 0, "step {step} {name}");
                }
            }
            assert!(read_amric_from(r, None).is_ok());
        }
    }
}
