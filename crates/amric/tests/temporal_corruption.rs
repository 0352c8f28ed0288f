//! Robustness suite for the pipeline's temporal delta mode, in the style
//! of the golden-stream corruption corpus: the decoder is total over
//! `&[u8]` — every truncation fails typed, bit flips return (`Ok` for
//! flips the checks cannot see, else a typed error) and never panic, and
//! no forged field drives an allocation the input did not pay for. Forged
//! reference ids, map entries, unit counts and reference shapes are
//! crafted explicitly at the payload level, not just hoped for via random
//! flips.

use amric::prelude::*;
use std::sync::Arc;
use sz_codec::codec::{write_envelope, FLAG_REFERENCED};
use sz_codec::prelude::*;
use sz_codec::wire::{Reader, Writer};
use sz_codec::{lossless, StridedMut};

fn grain(i: usize, j: usize, k: usize) -> f64 {
    let h = (i.wrapping_mul(73_856_093) ^ j.wrapping_mul(19_349_663) ^ k.wrapping_mul(83_492_791))
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

/// A delta stream (units 1 and 3 spatial, 0 and 2 delta) plus the
/// reference its decoder needs.
fn mixed_stream() -> (Vec<u8>, Reference) {
    let prev = snapshot(8, 0.0);
    let next = snapshot(8, 0.02);
    let map = [Some(0), None, Some(2), None];
    let mut out = Vec::new();
    let cfg = AmricConfig::lr(1e-3);
    let mut scratch = AmricScratch::default();
    compress_delta_into(
        &next,
        &cfg,
        8,
        1e-3,
        (9, &prev),
        &map,
        &mut scratch,
        &mut out,
    )
    .unwrap();
    (out, (9, Arc::new(prev)))
}

fn decode(bytes: &[u8], reference: Option<&Reference>) -> CodecResult<Vec<Buffer3>> {
    let mut units = Vec::new();
    let mut source = || reference.cloned().map_or_else(no_reference, Ok);
    decompress_field_units_into(bytes, &mut units, &mut source)?;
    Ok(units)
}

/// A delta stream taken apart: the nested stream and the decompressed
/// payload after it.
fn split(stream: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut r = Reader::new(&stream[9..]);
    let len = r.get_u32().unwrap() as usize;
    let nested = r.get_raw(len).unwrap().to_vec();
    let payload = lossless::decompress(r.get_raw(r.remaining()).unwrap()).unwrap();
    (nested, payload)
}

/// Put a delta stream back together around a (forged) nested stream and
/// payload.
fn assemble(nested: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    write_envelope(&mut w, CodecId::AmricPipeline, 1, FLAG_REFERENCED);
    w.put_u8(5);
    w.put_u32(nested.len() as u32);
    w.put_raw(nested);
    let mut bytes = w.into_bytes();
    lossless::compress_into(payload, &mut bytes);
    bytes
}

/// A payload header: reference id, bound, unit count, map entries.
fn header(reference_id: u64, n: u32, map: &[u32]) -> Writer {
    let mut w = Writer::new();
    w.put_u64(reference_id);
    w.put_f64(1e-3);
    w.put_u32(n);
    for &m in map {
        w.put_u32(m);
    }
    w
}

fn assault(name: &str, valid: &[u8], reference: Option<&Reference>) {
    assert!(
        decode(valid, reference).is_ok(),
        "{name}: pristine stream must decode"
    );
    for cut in 0..valid.len() {
        assert!(
            decode(&valid[..cut], reference).is_err(),
            "{name}: truncation to {cut}/{} bytes must be rejected",
            valid.len()
        );
    }
    let step = if cfg!(debug_assertions) { 7 } else { 1 };
    for pos in (0..valid.len()).step_by(step) {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = valid.to_vec();
            corrupt[pos] ^= mask;
            // Must return (Ok or Err) rather than panic or abort.
            let _ = decode(&corrupt, reference);
        }
    }
}

#[test]
fn spatial_only_stream_total() {
    // A keyframe chunk is the plain pipeline stream: it needs nothing.
    let stream = compress_field_units(&snapshot(8, 0.5), &AmricConfig::lr(1e-3), 8);
    assault("keyframe", &stream, None);
}

#[test]
fn referenced_stream_total() {
    let (stream, reference) = mixed_stream();
    assault("delta/mixed", &stream, Some(&reference));
}

#[test]
fn garbage_and_empty_inputs_rejected() {
    let garbage: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let (_, reference) = mixed_stream();
    assert!(decode(&[], Some(&reference)).is_err());
    assert!(decode(&garbage, Some(&reference)).is_err());
    // A valid envelope and mode byte over a garbage payload still fail.
    let mut w = Writer::new();
    write_envelope(&mut w, CodecId::AmricPipeline, 1, FLAG_REFERENCED);
    w.put_u8(5);
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(&garbage);
    assert!(decode(&bytes, Some(&reference)).is_err());
    // A nested length past the end is a truncation.
    let mut long = bytes[..9].to_vec();
    long.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode(&long, Some(&reference)),
        Err(CodecError::Truncated { .. })
    ));
}

#[test]
fn forged_reference_id_is_corrupt_never_wrong_data() {
    let (stream, (id, units)) = mixed_stream();
    // Right units, wrong id: rejected as corruption.
    let wrong = (id + 1, units);
    assert!(matches!(
        decode(&stream, Some(&wrong)),
        Err(CodecError::Corrupt { .. })
    ));
    // A forged id in the payload is the same mismatch seen from the file.
    let (nested, mut payload) = split(&stream);
    payload[..8].copy_from_slice(&(id + 5).to_le_bytes());
    let forged = assemble(&nested, &payload);
    let reference = (id, wrong.1);
    assert!(matches!(
        decode(&forged, Some(&reference)),
        Err(CodecError::Corrupt { .. })
    ));
}

#[test]
fn a_missing_reference_is_a_typed_error() {
    let (stream, _) = mixed_stream();
    assert!(matches!(
        decode(&stream, None),
        Err(CodecError::BadParameter { .. })
    ));
    assert!(matches!(
        decompress_field_units(&stream),
        Err(CodecError::BadParameter { .. })
    ));
    // The caller's own failure comes back as it was.
    let mut units = Vec::new();
    let mut failing = || Err(CodecError::corrupt("reference file lost"));
    let err = decompress_field_units_into(&stream, &mut units, &mut failing);
    assert!(matches!(err, Err(CodecError::Corrupt { .. })));
    assert!(units.is_empty());
}

#[test]
fn forged_mode_byte_is_typed_bad_mode() {
    let (stream, reference) = mixed_stream();
    let mut forged = stream.clone();
    forged[8] = 6;
    assert!(matches!(
        decode(&forged, Some(&reference)),
        Err(CodecError::BadMode { found: 6 })
    ));
    // A nested stream may not be a delta stream itself: it would need a
    // reference of its own, and gets none.
    let (_, payload) = split(&stream);
    let bytes = assemble(&stream, &payload);
    assert!(matches!(
        decode(&bytes, Some(&reference)),
        Err(CodecError::BadParameter { .. })
    ));
}

#[test]
fn forged_out_of_range_ref_unit_is_corrupt() {
    let (stream, reference) = mixed_stream();
    let (nested, mut payload) = split(&stream);
    // Map entry of unit 2 (bytes 20 + 4·2) names reference unit 4 of 4.
    payload[28..32].copy_from_slice(&5u32.to_le_bytes());
    let bytes = assemble(&nested, &payload);
    assert!(matches!(
        decode(&bytes, Some(&reference)),
        Err(CodecError::Corrupt { .. })
    ));
    // So does any map entry against an empty reference.
    let empty: Reference = (9, Arc::new(Vec::new()));
    assert!(matches!(
        decode(&stream, Some(&empty)),
        Err(CodecError::Corrupt { .. })
    ));
}

#[test]
fn absurd_unit_counts_and_dims_are_bounded() {
    let (stream, (id, units)) = mixed_stream();
    let (nested, payload) = split(&stream);
    // u32::MAX map entries of 4 bytes each: rejected by the count check.
    let bytes = assemble(&nested, &header(id, u32::MAX, &[1, 0]).into_bytes());
    assert!(matches!(
        decode(&bytes, Some(&(id, units.clone()))),
        Err(CodecError::LimitExceeded { .. })
    ));
    // A few thousand units all mapped to one 64³ reference unit claim
    // ~10⁹ delta cells against a payload of a few kilobytes: refused by
    // the delta-cell budget before the symbol block is decoded.
    let big: Reference = (id, Arc::new(vec![Buffer3::zeros(Dims3::cube(64))]));
    let mut w = header(id, 4096, &[1; 4096]);
    w.put_raw(&payload[20 + 16..]);
    let bytes = assemble(&[], &w.into_bytes());
    match decode(&bytes, Some(&big)) {
        Err(CodecError::LimitExceeded { what, .. }) => assert_eq!(what, "delta unit cells"),
        other => panic!("expected LimitExceeded, got {other:?}"),
    }
    // A spatial unit without a nested stream, and a nested stream with
    // no spatial unit, are typed dims errors.
    let all_delta = assemble(&nested, &{
        let mut p = payload.clone();
        p[24..28].copy_from_slice(&2u32.to_le_bytes());
        p[32..36].copy_from_slice(&4u32.to_le_bytes());
        p
    });
    assert!(matches!(
        decode(&all_delta, Some(&(id, units.clone()))),
        Err(CodecError::DimsMismatch { .. })
    ));
    let no_nested = assemble(&[], &payload);
    assert!(matches!(
        decode(&no_nested, Some(&(id, units))),
        Err(CodecError::DimsMismatch { .. })
    ));
}

/// A destination that, like a restart's unit plan, holds every unit to
/// one shape.
struct Shaped(Dims3, Vec<Buffer3>);

impl UnitDest for Shaped {
    fn unit(&mut self, i: usize, dims: Dims3) -> CodecResult<StridedMut<'_>> {
        if dims != self.0 {
            return Err(CodecError::dims(format!(
                "unit {i} is {dims:?}, the plan {:?}",
                self.0
            )));
        }
        self.1.unit(i, dims)
    }
}

#[test]
fn reference_units_of_another_shape_are_typed_errors() {
    let (stream, (id, _)) = mixed_stream();
    // Other cell counts: the symbol block does not match the map.
    for edge in [4, 9] {
        let other: Reference = (id, Arc::new(snapshot(edge, 0.0)));
        assert!(matches!(
            decode(&stream, Some(&other)),
            Err(CodecError::DimsMismatch { .. })
        ));
    }
    // The same cell count in another shape decodes — into units the plan
    // refuses.
    let flat: Reference = (id, Arc::new(vec![Buffer3::zeros(Dims3::new(16, 8, 4)); 4]));
    assert!(decode(&stream, Some(&flat)).is_ok());
    let mut plan = Shaped(Dims3::cube(8), Vec::new());
    let mut source = || Ok(flat.clone());
    let err = decompress_field_units_into(&stream, &mut plan, &mut source);
    assert!(
        matches!(err, Err(CodecError::DimsMismatch { .. })),
        "{err:?}"
    );
}

#[test]
fn truncated_delta_symbol_block_is_corrupt_not_panic() {
    // Truncate *inside the lossless payload* (after decompression the
    // symbol block runs dry) by re-wrapping a shortened payload.
    let (stream, reference) = mixed_stream();
    let (nested, payload) = split(&stream);
    for cut in 0..payload.len() {
        let bytes = assemble(&nested, &payload[..cut]);
        assert!(
            decode(&bytes, Some(&reference)).is_err(),
            "payload truncated to {cut}/{} must be rejected",
            payload.len()
        );
    }
}
