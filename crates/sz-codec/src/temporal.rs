//! Cross-snapshot temporal delta coding — the time axis the spatial
//! families don't exploit.
//!
//! AMR simulations emit hundreds of time-coherent snapshots; compressing
//! each independently rediscovers the same structure every step. This
//! family codes each unit block as **residuals against the previous
//! snapshot's decoded values**, spatially predicted by the 3-D Lorenzo
//! stencil over the already-reconstructed residual field — time removes
//! the bulk of the signal, Lorenzo removes the spatial smoothness of
//! what's left. The quantizer bounds the residual error, so the absolute
//! error bound holds on the full values, and because the prediction base
//! is *decoded* (not original) data, quantization error never
//! accumulates across steps. Units whose region changed level or layout
//! under regridding have no usable reference and fall back to a
//! **spatial-only** embedded SZ_L/R stream inside the same envelope.
//!
//! # Stream layout (version 1)
//!
//! ```text
//! envelope(Temporal, 1, flags)            FLAG_EMPTY | FLAG_REFERENCED
//! lossless-compressed payload:
//!   abs_eb        f64
//!   reference_id  u64   (0 when no unit is delta-coded)
//!   nunits        u32
//!   per unit: nx ny nz  u32×3
//!             mode      u8    0 = spatial fallback, 1 = temporal delta
//!             ref_unit  u32   (delta only: index into the reference's units)
//!   spatial block (if any spatial unit): length-prefixed, self-contained
//!             SZ_L/R multi-domain stream over the spatial units in order
//!   delta block (if any delta unit): shared Huffman block of quantization
//!             symbols, then u64 outlier count + raw f64 outliers
//! ```
//!
//! # Decode contract
//!
//! A stream **without** [`FLAG_REFERENCED`] is fully self-contained — a
//! bare [`TemporalCodec::decoder`] decodes it. A stream **with** the flag
//! needs its reference snapshot installed in the decoder
//! ([`TemporalCodec::decoder_with`]); decoding without one fails
//! with a typed [`CodecError::BadParameter`], and a reference whose id
//! does not match the stream's recorded id is rejected as
//! [`CodecError::Corrupt`] — a forged or mis-resolved reference can never
//! silently reconstruct garbage.

use crate::buffer3::{Buffer3, Dims3};
use crate::codec::{expect_envelope, write_envelope, CodecId, FLAG_EMPTY, FLAG_REFERENCED};
use crate::huffman;
use crate::lorenzo::lorenzo3;
use crate::lossless;
use crate::lr::{self, LrConfig};
use crate::quantizer::{Quantizer, OUTLIER_SYMBOL};
use crate::wire::{CodecError, CodecResult, Reader, Writer};
use std::sync::Arc;

/// Temporal payload format version (rides in the envelope header).
const VERSION: u8 = 1;

/// Unit coding modes stored per unit in the stream header.
const MODE_SPATIAL: u8 = 0;
const MODE_DELTA: u8 = 1;

/// Configuration for one temporal compression call.
#[derive(Clone, Copy, Debug)]
pub struct TemporalConfig {
    /// Absolute error bound (applies to the full reconstructed values,
    /// not the deltas).
    pub abs_eb: f64,
    /// SZ block size of the embedded spatial fallback stream.
    pub block_size: usize,
}

impl TemporalConfig {
    /// Stock configuration (6³ spatial fallback blocks).
    pub fn new(abs_eb: f64) -> Self {
        TemporalConfig {
            abs_eb,
            block_size: 6,
        }
    }

    /// Override the spatial fallback block size.
    pub fn with_block_size(mut self, bs: usize) -> Self {
        assert!(bs >= 1);
        self.block_size = bs;
        self
    }

    fn spatial(&self) -> LrConfig {
        LrConfig {
            abs_eb: self.abs_eb,
            block_size: self.block_size,
        }
    }
}

/// The decoded state one temporal stream predicts from: an id naming the
/// reference snapshot (the writer's monotone snapshot counter) and the
/// reference's decoded unit blocks, in the order that snapshot's stream
/// held them. Shared via `Arc` — one reference typically serves many
/// streams (every field of a level) without copying.
#[derive(Clone, Debug, Default)]
pub struct TemporalReference {
    /// Snapshot id the units belong to.
    pub id: u64,
    /// Decoded unit blocks of the reference snapshot.
    pub units: Vec<Buffer3>,
}

impl TemporalReference {
    /// Reference over decoded units.
    pub fn new(id: u64, units: Vec<Buffer3>) -> Self {
        TemporalReference { id, units }
    }
}

/// The temporal delta family: one encoder configuration or one decoder.
///
/// Compression needs a per-unit mapping (`unit_refs[i] = Some(j)` means
/// unit `i` delta-codes against `reference.units[j]`; `None` falls back
/// to spatial). Decompression only needs `reference` — and only for
/// streams carrying [`FLAG_REFERENCED`].
#[derive(Clone, Debug)]
pub struct TemporalCodec {
    /// Compression configuration (ignored on decode — streams are
    /// self-describing).
    pub cfg: TemporalConfig,
    /// Previous snapshot's decoded units, if any.
    pub reference: Option<Arc<TemporalReference>>,
    /// Per-unit reference mapping, index-aligned with the units passed to
    /// [`compress_with_state`](TemporalCodec::compress_with_state). Empty
    /// for decode-only instances.
    pub unit_refs: Vec<Option<u32>>,
}

impl TemporalCodec {
    /// Decode-only instance. Decodes any self-contained (spatial-only)
    /// temporal stream; referenced streams fail typed.
    pub fn decoder() -> Self {
        TemporalCodec {
            cfg: TemporalConfig::new(1e-3),
            reference: None,
            unit_refs: Vec::new(),
        }
    }

    /// Decode-only instance with a reference snapshot installed: decodes
    /// the streams that reference it as well as self-contained ones.
    pub fn decoder_with(reference: Arc<TemporalReference>) -> Self {
        TemporalCodec {
            cfg: TemporalConfig::new(1e-3),
            reference: Some(reference),
            unit_refs: Vec::new(),
        }
    }

    /// Compressor with no reference: every unit takes the spatial
    /// fallback (the first snapshot of a series, or a fully regridded
    /// level).
    pub fn spatial(cfg: TemporalConfig) -> Self {
        TemporalCodec {
            cfg,
            reference: None,
            unit_refs: Vec::new(),
        }
    }

    /// Compressor delta-coding against `reference` with the given
    /// per-unit mapping.
    pub fn with_reference(
        cfg: TemporalConfig,
        reference: Arc<TemporalReference>,
        unit_refs: Vec<Option<u32>>,
    ) -> Self {
        TemporalCodec {
            cfg,
            reference: Some(reference),
            unit_refs,
        }
    }

    /// Compress `units`, **appending** the stream to `out`, and return the
    /// units **as the decoder will reconstruct them** — the state a write
    /// driver must retain to serve as the next snapshot's reference
    /// without re-reading its own output.
    pub fn compress_with_state(
        &self,
        units: &[Buffer3],
        out: &mut Vec<u8>,
    ) -> CodecResult<Vec<Buffer3>> {
        if units.is_empty() {
            let mut w = Writer::from_vec(std::mem::take(out));
            write_envelope(&mut w, CodecId::Temporal, VERSION, FLAG_EMPTY);
            *out = w.into_bytes();
            return Ok(Vec::new());
        }
        if !(self.cfg.abs_eb > 0.0 && self.cfg.abs_eb.is_finite()) {
            return Err(CodecError::BadParameter {
                what: "error bound",
            });
        }
        // Resolve the per-unit mapping: an empty `unit_refs` means
        // all-spatial; otherwise it must be index-aligned with `units`
        // and every target must exist with matching dims.
        let refs: Vec<Option<u32>> = if self.unit_refs.is_empty() {
            vec![None; units.len()]
        } else if self.unit_refs.len() == units.len() {
            self.unit_refs.clone()
        } else {
            return Err(CodecError::dims(format!(
                "temporal codec holds {} unit refs for {} units",
                self.unit_refs.len(),
                units.len()
            )));
        };
        let n_delta = refs.iter().filter(|r| r.is_some()).count();
        let reference = match (n_delta, &self.reference) {
            (0, _) => None,
            (_, Some(r)) => Some(r.as_ref()),
            (_, None) => {
                return Err(CodecError::BadParameter {
                    what: "temporal reference (delta units mapped but no reference installed)",
                })
            }
        };
        if let Some(r) = reference {
            for (i, m) in refs.iter().enumerate() {
                if let Some(j) = m {
                    let prev = r.units.get(*j as usize).ok_or_else(|| {
                        CodecError::dims(format!(
                            "unit {i} maps to reference unit {j}, reference holds {}",
                            r.units.len()
                        ))
                    })?;
                    if prev.dims() != units[i].dims() {
                        return Err(CodecError::dims(format!(
                            "unit {i} dims {:?} != reference unit {j} dims {:?}",
                            units[i].dims(),
                            prev.dims()
                        )));
                    }
                }
            }
        }

        // Quantize the delta units; collect the spatial fallbacks.
        let q = Quantizer::new(self.cfg.abs_eb);
        let mut delta_syms: Vec<u32> = Vec::new();
        let mut delta_outliers: Vec<f64> = Vec::new();
        let mut spatial_units: Vec<&Buffer3> = Vec::new();
        // Decoded state in unit order (filled lazily for spatial units
        // after the embedded stream exists).
        let mut decoded: Vec<Option<Buffer3>> = Vec::with_capacity(units.len());
        for (u, m) in units.iter().zip(&refs) {
            match m {
                Some(t) => {
                    let prev = &reference.expect("checked above").units[*t as usize];
                    let d = u.dims();
                    // Residual field r = val − prev, predicted by the 3-D
                    // Lorenzo stencil over already-reconstructed residuals.
                    let mut res = Buffer3::zeros(d);
                    let mut recon = Buffer3::zeros(d);
                    for k in 0..d.nz {
                        for j in 0..d.ny {
                            for i in 0..d.nx {
                                let val = u.get(i, j, k);
                                let pv = prev.get(i, j, k);
                                let pred = lorenzo3(&res, i, j, k);
                                let (sym, rec_r) = q.quantize(val - pv, pred);
                                delta_syms.push(sym);
                                let value = if sym == OUTLIER_SYMBOL {
                                    // Outliers carry the full value so
                                    // they restore bit-exactly.
                                    delta_outliers.push(val);
                                    res.set(i, j, k, val - pv);
                                    val
                                } else {
                                    res.set(i, j, k, rec_r);
                                    pv + rec_r
                                };
                                recon.set(i, j, k, value);
                            }
                        }
                    }
                    decoded.push(Some(recon));
                }
                None => {
                    spatial_units.push(u);
                    decoded.push(None);
                }
            }
        }
        let spatial_stream = if spatial_units.is_empty() {
            Vec::new()
        } else {
            lr::compress_domains(&spatial_units, &self.cfg.spatial())
        };
        // Spatial units reconstruct through the embedded stream — decode
        // what was just written so retained state is exactly what any
        // reader will see.
        let mut spatial_decoded = if spatial_stream.is_empty() {
            Vec::new()
        } else {
            lr::decompress_domains(&spatial_stream)?
        }
        .into_iter();
        let mut state = Vec::with_capacity(units.len());
        for d in decoded {
            state.push(match d {
                Some(b) => b,
                None => spatial_decoded
                    .next()
                    .ok_or_else(|| CodecError::corrupt("embedded spatial stream lost a unit"))?,
            });
        }

        // Assemble the payload, envelope it, lossless-wrap it.
        let mut w = Writer::new();
        w.put_f64(self.cfg.abs_eb);
        w.put_u64(if n_delta > 0 {
            reference.expect("checked above").id
        } else {
            0
        });
        w.put_u32(units.len() as u32);
        for (u, m) in units.iter().zip(&refs) {
            let d = u.dims();
            w.put_u32(d.nx as u32);
            w.put_u32(d.ny as u32);
            w.put_u32(d.nz as u32);
            match m {
                None => w.put_u8(MODE_SPATIAL),
                Some(j) => {
                    w.put_u8(MODE_DELTA);
                    w.put_u32(*j);
                }
            }
        }
        if !spatial_units.is_empty() {
            w.put_block(&spatial_stream);
        }
        if n_delta > 0 {
            huffman::encode_block_into(&delta_syms, &mut w);
            w.put_u64(delta_outliers.len() as u64);
            w.put_f64s(&delta_outliers);
        }
        let payload = w.into_bytes();
        let flags = if n_delta > 0 { FLAG_REFERENCED } else { 0 };
        let mut env = Writer::from_vec(std::mem::take(out));
        write_envelope(&mut env, CodecId::Temporal, VERSION, flags);
        *out = env.into_bytes();
        lossless::compress_into(&payload, out);
        Ok(state)
    }

    /// Decompress a temporal stream back to its units, in order. A
    /// referenced stream needs the decoder's installed reference to carry
    /// the id the stream records.
    pub fn decompress(&self, bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
        let env = expect_envelope(bytes, CodecId::Temporal, VERSION)?;
        if env.flags & FLAG_EMPTY != 0 {
            return Ok(Vec::new());
        }
        let payload = lossless::decompress(&bytes[env.payload_offset..])?;
        let mut r = Reader::new(&payload);
        let abs_eb = r.get_f64()?;
        if !(abs_eb > 0.0 && abs_eb.is_finite()) {
            return Err(CodecError::BadParameter {
                what: "error bound",
            });
        }
        let reference_id = r.get_u64()?;
        let nunits = r.get_u32()? as usize;
        // Each unit header is at least 13 bytes (3 × u32 dims + mode).
        r.check_count(nunits, 13)?;
        struct UnitHeader {
            dims: (usize, usize, usize),
            cells: u128,
            ref_unit: Option<u32>,
        }
        let mut headers = Vec::with_capacity(nunits);
        let mut delta_cells: u128 = 0;
        let mut n_spatial = 0usize;
        for _ in 0..nunits {
            let nx = r.get_u32()? as usize;
            let ny = r.get_u32()? as usize;
            let nz = r.get_u32()? as usize;
            if nx == 0 || ny == 0 || nz == 0 {
                return Err(CodecError::dims(format!(
                    "degenerate unit dims {nx}x{ny}x{nz}"
                )));
            }
            let cells = nx as u128 * ny as u128 * nz as u128;
            let ref_unit = match r.get_u8()? {
                MODE_SPATIAL => {
                    n_spatial += 1;
                    None
                }
                MODE_DELTA => {
                    delta_cells += cells;
                    Some(r.get_u32()?)
                }
                other => return Err(CodecError::BadMode { found: other }),
            };
            headers.push(UnitHeader {
                dims: (nx, ny, nz),
                cells,
                ref_unit,
            });
        }
        // Every delta cell consumes at least one Huffman bit of the
        // remaining payload; corrupt headers can't demand more cells than
        // the stream could encode (bounding allocations by input size).
        // Spatial cells are bounded by the embedded stream's own guards.
        if delta_cells > r.remaining() as u128 * 8 + 64 {
            return Err(CodecError::LimitExceeded {
                what: "delta unit cells",
                claimed: delta_cells,
                available: r.remaining() as u128 * 8 + 64,
            });
        }
        let n_delta = nunits - n_spatial;
        let reference = if n_delta > 0 {
            let reference = self.reference.as_ref().ok_or(CodecError::BadParameter {
                what: "temporal reference (stream is delta-coded, none installed)",
            })?;
            if reference.id != reference_id {
                return Err(CodecError::corrupt(format!(
                    "stream references snapshot {reference_id}, decoder holds {}",
                    reference.id
                )));
            }
            Some(reference.as_ref())
        } else {
            None
        };
        // Decode the spatial fallbacks (self-contained embedded stream).
        let mut spatial = if n_spatial > 0 {
            let decoded = lr::decompress_domains(r.get_block()?)?;
            if decoded.len() != n_spatial {
                return Err(CodecError::dims(format!(
                    "embedded spatial stream holds {} units, header says {n_spatial}",
                    decoded.len()
                )));
            }
            decoded
        } else {
            Vec::new()
        }
        .into_iter();
        // Decode the shared delta symbol block.
        let (delta_syms, delta_outliers) = if n_delta > 0 {
            let syms = huffman::decode_with_table(r.get_block()?)?;
            if syms.len() as u128 != delta_cells {
                return Err(CodecError::dims(format!(
                    "delta block holds {} symbols, header demands {delta_cells}",
                    syms.len()
                )));
            }
            let n_out = r.get_u64()? as usize;
            let outliers = r.get_f64s(n_out)?;
            (syms, outliers)
        } else {
            (Vec::new(), Vec::new())
        };

        let q = Quantizer::new(abs_eb);
        let mut syms = delta_syms.into_iter();
        let mut outliers = delta_outliers.into_iter();
        let exhausted = || CodecError::corrupt("temporal delta stream exhausted");
        let mut out = Vec::with_capacity(nunits);
        for (i, h) in headers.iter().enumerate() {
            let dims = Dims3::new(h.dims.0, h.dims.1, h.dims.2);
            match h.ref_unit {
                None => {
                    let buf = spatial.next().expect("count checked");
                    if buf.dims() != dims {
                        return Err(CodecError::dims(format!(
                            "spatial unit {i} decoded as {:?}, header says {dims:?}",
                            buf.dims()
                        )));
                    }
                    out.push(buf);
                }
                Some(t) => {
                    let rf = reference.expect("n_delta > 0");
                    let prev = rf.units.get(t as usize).ok_or_else(|| {
                        CodecError::corrupt(format!(
                            "unit {i} references unit {t} of snapshot {reference_id}, which holds {}",
                            rf.units.len()
                        ))
                    })?;
                    if prev.dims() != dims {
                        return Err(CodecError::corrupt(format!(
                            "unit {i} dims {dims:?} != reference unit {t} dims {:?}",
                            prev.dims()
                        )));
                    }
                    debug_assert_eq!(h.cells, dims.len() as u128);
                    let mut res = Buffer3::zeros(dims);
                    let mut buf = Buffer3::zeros(dims);
                    for k in 0..dims.nz {
                        for j in 0..dims.ny {
                            for x in 0..dims.nx {
                                let sym = syms.next().ok_or_else(exhausted)?;
                                let pv = prev.get(x, j, k);
                                let value = if sym == OUTLIER_SYMBOL {
                                    let val = outliers.next().ok_or_else(exhausted)?;
                                    res.set(x, j, k, val - pv);
                                    val
                                } else {
                                    let pred = lorenzo3(&res, x, j, k);
                                    let rec_r = q.try_reconstruct(sym, pred)?;
                                    res.set(x, j, k, rec_r);
                                    pv + rec_r
                                };
                                buf.set(x, j, k, value);
                            }
                        }
                    }
                    out.push(buf);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ErrorStats;

    /// The stream alone, the decoded state dropped.
    fn encode(codec: &TemporalCodec, units: &[Buffer3]) -> CodecResult<Vec<u8>> {
        let mut out = Vec::new();
        codec.compress_with_state(units, &mut out)?;
        Ok(out)
    }

    /// Deterministic per-cell roughness, constant in time — the fine
    /// structure real fields carry that spatial codecs must re-code
    /// every snapshot but temporal deltas never see.
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

    fn all_delta(n: usize) -> Vec<Option<u32>> {
        (0..n as u32).map(Some).collect()
    }

    #[test]
    fn delta_roundtrip_respects_error_bound() {
        let eb = 1e-3;
        let prev = snapshot(10, 0.0);
        let next = snapshot(10, 0.01);
        let reference = Arc::new(TemporalReference::new(7, prev));
        let codec =
            TemporalCodec::with_reference(TemporalConfig::new(eb), reference.clone(), all_delta(4));
        let stream = encode(&codec, &next).unwrap();
        let back = codec.decompress(&stream).unwrap();
        assert_eq!(back.len(), 4);
        for (o, r) in next.iter().zip(&back) {
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
        let reference = Arc::new(TemporalReference::new(
            3,
            vec![prev[0].clone(), prev[2].clone()],
        ));
        let refs = vec![Some(0), None, Some(1), None];
        let codec = TemporalCodec::with_reference(TemporalConfig::new(eb), reference, refs);
        let stream = encode(&codec, &next).unwrap();
        let env = expect_envelope(&stream, CodecId::Temporal, 1).unwrap();
        assert!(env.flags & FLAG_REFERENCED != 0);
        let back = codec.decompress(&stream).unwrap();
        for (o, r) in next.iter().zip(&back) {
            assert_eq!(o.dims(), r.dims());
            let stats = ErrorStats::compare(o.data(), r.data());
            assert!(stats.max_abs_err <= eb * (1.0 + 1e-12));
        }
    }

    #[test]
    fn spatial_only_stream_is_self_contained() {
        let units = snapshot(8, 0.5);
        let codec = TemporalCodec::spatial(TemporalConfig::new(1e-3));
        let stream = encode(&codec, &units).unwrap();
        let env = expect_envelope(&stream, CodecId::Temporal, 1).unwrap();
        assert_eq!(env.flags & FLAG_REFERENCED, 0);
        // A bare decoder (no reference) handles it.
        let back = TemporalCodec::decoder().decompress(&stream).unwrap();
        for (o, r) in units.iter().zip(&back) {
            let stats = ErrorStats::compare(o.data(), r.data());
            assert!(stats.max_abs_err <= 1e-3 * (1.0 + 1e-12));
        }
    }

    #[test]
    fn stable_series_beats_per_snapshot_lr() {
        // The family's reason to exist: on a slowly evolving series the
        // delta symbols concentrate near zero and compress far better
        // than re-coding the spatial structure every step.
        let eb = 1e-3;
        let cfg = TemporalConfig::new(eb);
        let mut reference: Option<Arc<TemporalReference>> = None;
        let mut temporal_bytes = 0usize;
        let mut lr_bytes = 0usize;
        for step in 0..4 {
            let units = snapshot(12, step as f64 * 0.005);
            let codec = match &reference {
                None => TemporalCodec::spatial(cfg),
                Some(r) => TemporalCodec::with_reference(cfg, r.clone(), all_delta(4)),
            };
            let mut stream = Vec::new();
            let decoded = codec.compress_with_state(&units, &mut stream).unwrap();
            assert_eq!(decoded.len(), 4);
            temporal_bytes += stream.len();
            let refs: Vec<&Buffer3> = units.iter().collect();
            lr_bytes += lr::compress_domains(&refs, &LrConfig::new(eb)).len();
            reference = Some(Arc::new(TemporalReference::new(step as u64, decoded)));
        }
        assert!(
            temporal_bytes < lr_bytes,
            "temporal {temporal_bytes} B should beat per-snapshot LR {lr_bytes} B"
        );
    }

    #[test]
    fn state_matches_decoder_output_bitwise() {
        let prev = snapshot(9, 0.0);
        let next = snapshot(9, 0.03);
        let reference = Arc::new(TemporalReference::new(1, prev));
        let refs = vec![Some(0), None, Some(2), Some(3)];
        let codec = TemporalCodec::with_reference(TemporalConfig::new(1e-3), reference, refs);
        let mut stream = Vec::new();
        let state = codec.compress_with_state(&next, &mut stream).unwrap();
        let back = codec.decompress(&stream).unwrap();
        assert_eq!(state.len(), back.len());
        for (s, b) in state.iter().zip(&back) {
            assert_eq!(s.dims(), b.dims());
            for (x, y) in s.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn decoder_with_installed_reference_decodes() {
        let prev = snapshot(8, 0.0);
        let next = snapshot(8, 0.01);
        let reference = Arc::new(TemporalReference::new(42, prev));
        let codec = TemporalCodec::with_reference(
            TemporalConfig::new(1e-3),
            reference.clone(),
            all_delta(4),
        );
        let stream = encode(&codec, &next).unwrap();

        // Bare decoder: typed failure naming the missing reference.
        assert!(matches!(
            TemporalCodec::decoder().decompress(&stream),
            Err(CodecError::BadParameter { .. })
        ));
        // Installing the reference resolves it, bitwise-identical to the
        // codec's own decode.
        let installed = TemporalCodec::decoder_with(reference)
            .decompress(&stream)
            .unwrap();
        let direct = codec.decompress(&stream).unwrap();
        assert_eq!(installed.len(), direct.len());
        for (a, b) in installed.iter().zip(&direct) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn forged_reference_id_is_corrupt() {
        let prev = snapshot(8, 0.0);
        let next = snapshot(8, 0.01);
        let reference = Arc::new(TemporalReference::new(5, prev.clone()));
        let codec =
            TemporalCodec::with_reference(TemporalConfig::new(1e-3), reference, all_delta(4));
        let stream = encode(&codec, &next).unwrap();
        let wrong = Arc::new(TemporalReference::new(6, prev));
        assert!(matches!(
            TemporalCodec::decoder_with(wrong).decompress(&stream),
            Err(CodecError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_stream_roundtrip() {
        let codec = TemporalCodec::spatial(TemporalConfig::new(1e-3));
        let stream = encode(&codec, &[]).unwrap();
        assert_eq!(stream.len(), 8); // bare envelope
        assert_eq!(codec.decompress(&stream).unwrap(), Vec::new());
    }

    #[test]
    fn encode_rejects_bad_mapping() {
        let units = snapshot(8, 0.0);
        let reference = Arc::new(TemporalReference::new(1, snapshot(8, 0.0)));
        // Mapping length mismatch.
        let codec = TemporalCodec::with_reference(
            TemporalConfig::new(1e-3),
            reference.clone(),
            vec![Some(0)],
        );
        assert!(encode(&codec, &units).is_err());
        // Out-of-range target.
        let codec = TemporalCodec::with_reference(
            TemporalConfig::new(1e-3),
            reference.clone(),
            vec![Some(9), None, None, None],
        );
        assert!(encode(&codec, &units).is_err());
        // Dims mismatch against the reference.
        let small = Arc::new(TemporalReference::new(1, snapshot(4, 0.0)));
        let codec = TemporalCodec::with_reference(TemporalConfig::new(1e-3), small, all_delta(4));
        assert!(encode(&codec, &units).is_err());
        // Delta mapping but no reference installed.
        let codec = TemporalCodec {
            cfg: TemporalConfig::new(1e-3),
            reference: None,
            unit_refs: all_delta(4),
        };
        assert!(matches!(
            encode(&codec, &units),
            Err(CodecError::BadParameter { .. })
        ));
    }

    #[test]
    fn outliers_roundtrip_exactly() {
        // A reference so far from the data that every delta overflows the
        // quantizer radius: all cells become outliers and must restore
        // bit-exactly.
        let mut a = Buffer3::zeros(Dims3::cube(4));
        a.fill_with(|i, j, k| (i + j + k) as f64);
        let mut b = Buffer3::zeros(Dims3::cube(4));
        b.fill_with(|i, j, k| (i * j * k) as f64 * 1e9 + 0.125);
        let reference = Arc::new(TemporalReference::new(2, vec![a]));
        let codec =
            TemporalCodec::with_reference(TemporalConfig::new(1e-6), reference, vec![Some(0)]);
        let stream = encode(&codec, std::slice::from_ref(&b)).unwrap();
        let back = codec.decompress(&stream).unwrap();
        for (x, y) in b.data().iter().zip(back[0].data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
