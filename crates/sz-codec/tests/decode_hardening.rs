//! Crafted-stream decode hardening.
//!
//! A Huffman table is attacker-controlled bytes: it can carry *any* `u32`
//! as a symbol, including the outlier marker `0` for a stream that stored
//! no raw values, or a quantization symbol far beyond `2·QUANT_RADIUS`.
//! Every decode loop must surface those as typed [`CodecError::Corrupt`]
//! — never a panic, never silently garbage data.
//!
//! The tests build *real* streams with the encoder, then surgically patch
//! the serialized Huffman table inside the (lossless-unwrapped) payload
//! and re-wrap — so everything around the injected corruption stays
//! wire-exact.

use sz_codec::buffer3::{Buffer3, Dims3};
use sz_codec::codec::read_envelope;
use sz_codec::error::CodecError;
use sz_codec::huffman;
use sz_codec::interp::{self, InterpConfig};
use sz_codec::lossless;
use sz_codec::lr::{self, LrConfig};
use sz_codec::quantizer::QUANT_RADIUS;
use sz_codec::wire::{Reader, Writer};

fn smooth(n: usize) -> Buffer3 {
    let mut b = Buffer3::zeros(Dims3::cube(n));
    b.fill_with(|i, j, k| (i as f64 * 0.2).sin() + 0.05 * j as f64 - 0.01 * k as f64);
    b
}

/// Split an envelope stream into (envelope prefix, lossless-decompressed
/// payload).
fn unwrap_stream(bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let env = read_envelope(bytes).expect("valid envelope");
    let payload = lossless::decompress(&bytes[env.payload_offset..]).expect("valid lossless");
    (bytes[..env.payload_offset].to_vec(), payload)
}

/// Reattach the envelope prefix and re-compress the (patched) payload.
fn rewrap_stream(prefix: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = prefix.to_vec();
    lossless::compress_into(payload, &mut out);
    out
}

/// Offset of the *data* Huffman block inside an SZ_L/R payload, found by
/// walking the container fields in front of it.
fn lr_data_block_offset(payload: &[u8]) -> usize {
    let mut r = Reader::new(payload);
    r.get_f64().unwrap(); // error bound
    r.get_u8().unwrap(); // block size
    let ndom = r.get_u32().unwrap() as usize;
    for _ in 0..3 * ndom {
        r.get_u32().unwrap(); // per-domain dims
    }
    let nsel = r.get_u64().unwrap() as usize;
    r.get_raw(nsel.div_ceil(8)).unwrap(); // selection bitmap
    r.get_block().unwrap(); // coefficient huffman block
    let ncoef = r.get_u64().unwrap() as usize;
    r.get_raw(ncoef * 8).unwrap(); // coefficient outliers
    payload.len() - r.remaining()
}

/// Offset of the data Huffman block inside an SZ_Interp payload.
fn interp_data_block_offset(payload: &[u8]) -> usize {
    let mut r = Reader::new(payload);
    r.get_f64().unwrap(); // error bound
    for _ in 0..3 {
        r.get_u32().unwrap(); // dims
    }
    payload.len() - r.remaining()
}

/// Overwrite the first Huffman-table entry's symbol inside the block at
/// `block_off`. Block layout: `[u64 outer len][u32 n_lens]
/// [(u32 symbol, u8 len) × n][u64 n_syms][u64 payload_len][bits]`.
/// Code *lengths* are untouched, so the canonical code set — and the bit
/// payload that follows — still decodes; only the symbol it maps to is
/// forged.
fn patch_first_table_symbol(payload: &mut [u8], block_off: usize, new_sym: u32) {
    let n_lens = u32::from_le_bytes(payload[block_off + 8..block_off + 12].try_into().unwrap());
    assert!(n_lens > 0, "data table must not be empty");
    payload[block_off + 12..block_off + 16].copy_from_slice(&new_sym.to_le_bytes());
}

fn assert_corrupt(res: Result<Buffer3, CodecError>) {
    match res {
        Err(CodecError::Corrupt { .. }) => {}
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("forged stream decoded successfully"),
    }
}

fn forged_lr_stream(new_sym: u32) -> Vec<u8> {
    let data = smooth(12);
    let stream = lr::compress(&data, &LrConfig::new(1e-3));
    assert!(lr::decompress(&stream).is_ok(), "baseline stream is valid");
    let (prefix, mut payload) = unwrap_stream(&stream);
    let off = lr_data_block_offset(&payload);
    patch_first_table_symbol(&mut payload, off, new_sym);
    rewrap_stream(&prefix, &payload)
}

fn forged_interp_stream(new_sym: u32) -> Vec<u8> {
    let data = smooth(12);
    let stream = interp::compress(&data, &InterpConfig::new(1e-3));
    assert!(
        interp::decompress(&stream).is_ok(),
        "baseline stream is valid"
    );
    let (prefix, mut payload) = unwrap_stream(&stream);
    let off = interp_data_block_offset(&payload);
    patch_first_table_symbol(&mut payload, off, new_sym);
    rewrap_stream(&prefix, &payload)
}

#[test]
fn lr_out_of_range_symbol_is_typed_corrupt() {
    // 2·QUANT_RADIUS is the first out-of-range quantization symbol; go
    // well past it to mimic an arbitrary forged u32.
    assert_corrupt(lr::decompress(&forged_lr_stream(
        2 * QUANT_RADIUS as u32 + 4404,
    )));
}

#[test]
fn lr_symbol_zero_without_raw_value_is_typed_corrupt() {
    // The smooth field stores no outliers, so a forged outlier marker has
    // no raw value to pull — the decoder must not invent one.
    assert_corrupt(lr::decompress(&forged_lr_stream(0)));
}

#[test]
fn interp_out_of_range_symbol_is_typed_corrupt() {
    assert_corrupt(interp::decompress(&forged_interp_stream(
        2 * QUANT_RADIUS as u32 + 4404,
    )));
}

#[test]
fn interp_symbol_zero_without_raw_value_is_typed_corrupt() {
    assert_corrupt(interp::decompress(&forged_interp_stream(0)));
}

/// Rebuild an SZ_Interp stream after editing its decoded symbol stream
/// and outlier list — a forgery at a *chosen* point of the traversal,
/// with everything around it wire-exact.
fn edit_interp_stream(stream: &[u8], edit: impl FnOnce(&mut Vec<u32>, &mut Vec<f64>)) -> Vec<u8> {
    let (prefix, payload) = unwrap_stream(stream);
    let mut r = Reader::new(&payload);
    let mut w = Writer::new();
    w.put_f64(r.get_f64().unwrap()); // error bound
    for _ in 0..3 {
        w.put_u32(r.get_u32().unwrap()); // dims
    }
    let mut syms = huffman::decode_with_table(r.get_block().unwrap()).unwrap();
    let n_out = r.get_u64().unwrap();
    let mut outliers: Vec<f64> = (0..n_out).map(|_| r.get_f64().unwrap()).collect();
    edit(&mut syms, &mut outliers);
    huffman::encode_block_into(&syms, &mut w);
    w.put_u64(outliers.len() as u64);
    for v in outliers {
        w.put_f64(v);
    }
    rewrap_stream(&prefix, &w.into_bytes())
}

/// Emission positions in a 12³ stream, by the kind of pass that decodes
/// them. The even lattice (all coarser levels) is the first 6³ = 216
/// symbols, the stride-1 X pass the next 216 — both decoded point by
/// point; the stride-1 Y pass (432 symbols) and Z pass (864) follow and
/// are decoded as lane rows of 12.
const SCALAR_POSITIONS: [usize; 4] = [0, 5, 215, 216 + 10];
const LANE_POSITIONS: [usize; 5] = [432, 432 + 50, 864, 864 + 100, 1727];

fn forged_interp_symbol_at(pos: usize, sym: u32) -> Vec<u8> {
    let stream = interp::compress(&smooth(12), &InterpConfig::new(1e-3));
    let forged = edit_interp_stream(&stream, |syms, outliers| {
        assert_eq!(syms.len(), 12 * 12 * 12);
        assert!(outliers.is_empty(), "the smooth field stores no raw value");
        syms[pos] = sym;
    });
    assert_ne!(forged, stream);
    forged
}

#[test]
fn interp_edit_roundtrip_is_wire_exact() {
    // The forging helper itself: an empty edit reproduces the stream.
    let stream = interp::compress(&smooth(12), &InterpConfig::new(1e-3));
    assert_eq!(edit_interp_stream(&stream, |_, _| {}), stream);
}

#[test]
fn interp_out_of_range_symbol_in_lane_row_and_scalar_pass_is_typed_corrupt() {
    for pos in SCALAR_POSITIONS.into_iter().chain(LANE_POSITIONS) {
        for sym in [2 * QUANT_RADIUS as u32, 2 * QUANT_RADIUS as u32 + 4404] {
            assert_corrupt(interp::decompress(&forged_interp_symbol_at(pos, sym)));
        }
    }
}

#[test]
fn interp_symbol_zero_without_raw_value_in_lane_row_and_scalar_pass_is_typed_corrupt() {
    for pos in SCALAR_POSITIONS.into_iter().chain(LANE_POSITIONS) {
        assert_corrupt(interp::decompress(&forged_interp_symbol_at(pos, 0)));
    }
}

#[test]
fn interp_outlier_list_one_short_in_lane_row_is_typed_corrupt() {
    // Spikes at odd z are decoded by the stride-1 Z pass, the last one:
    // two share a lane row, one sits alone in a later row. Dropping the
    // final raw value leaves that last row one short.
    let mut data = smooth(12);
    for (i, j, k) in [(2, 4, 7), (9, 4, 7), (5, 3, 11)] {
        data.set(i, j, k, 1.0e9);
    }
    let stream = interp::compress(&data, &InterpConfig::new(1e-3));
    let back = interp::decompress(&stream).expect("valid stream decodes");
    assert_eq!(back.get(5, 3, 11), 1.0e9);
    let short = edit_interp_stream(&stream, |_, outliers| {
        assert_eq!(outliers, &[1.0e9; 3]);
        outliers.pop();
    });
    assert_corrupt(interp::decompress(&short));
    // One *extra* forged marker in the crowded row runs the list dry one
    // row later instead.
    let extra = edit_interp_stream(&stream, |syms, _| {
        let at = 864 + 12 * (4 + 12 * 3); // Z pass, plane z = 7, row y = 4
        assert_eq!((syms[at + 2], syms[at + 9]), (0, 0));
        syms[at + 5] = 0;
    });
    assert_corrupt(interp::decompress(&extra));
}

/// Truncate an encoded Huffman stream at every byte boundary and, at each
/// boundary, damage every bit of the byte that becomes the new tail —
/// bit-offset-granular coverage of mid-stream loss. The decoder must
/// return a typed error or a clean value; it must never panic.
#[test]
fn truncated_huffman_streams_never_panic() {
    let syms: Vec<u32> = (0..4000u32)
        .map(|i| i.wrapping_mul(2654435761) % 300)
        .collect();
    let full = huffman::encode_with_table(&syms);
    assert_eq!(huffman::decode_with_table(&full).unwrap(), syms);
    for cut in 0..full.len() {
        let truncated = &full[..cut];
        if let Ok(decoded) = huffman::decode_with_table(truncated) {
            // A short prefix may still parse (e.g. cut lands after a
            // self-contained empty block) — but it must never silently
            // yield the full symbol stream.
            assert_ne!(decoded, syms, "truncation at {cut} decoded as complete");
        }
        if cut == 0 {
            continue;
        }
        let mut damaged = full[..cut].to_vec();
        for bit in 0..8 {
            damaged[cut - 1] ^= 1 << bit;
            let _ = huffman::decode_with_table(&damaged); // must not panic
            damaged[cut - 1] ^= 1 << bit;
        }
    }
}

/// Same sweep against full-length streams with a single flipped bit: any
/// byte of the stream — table, counts, payload — may be damaged, and the
/// decoder must come back with `Ok` (possibly different symbols: flips in
/// the table or payload are not detectable) or a typed error, never a
/// panic or an unbounded allocation.
#[test]
fn bit_flipped_huffman_streams_never_panic() {
    let syms: Vec<u32> = (0..1500u32).map(|i| (i * 40503) % 97).collect();
    let full = huffman::encode_with_table(&syms);
    for pos in 0..full.len() {
        let mut damaged = full.clone();
        for bit in 0..8 {
            damaged[pos] ^= 1 << bit;
            if let Err(e) = huffman::decode_with_table(&damaged) {
                let _ = e.to_string(); // typed, displayable
            }
            damaged[pos] ^= 1 << bit;
        }
    }
}
