//! Placed decode is held to the owned one.
//!
//! `lr::decompress_domains` is `lr::decompress_domains_into` with the
//! allocating destination, so there is one decoder — but a decoder that
//! reconstructs *in place* inside someone else's array can go wrong in
//! ways an owned buffer forgives: a stencil that reads a neighbour's cell,
//! a row written past the unit's edge, a cell read before it is written.
//! Every stream here is decoded twice, into fresh buffers and into
//! [`Embedded`] holes at non-trivial strides and offsets in NaN-sentinel
//! buffers, and the two must agree bit for bit with every cell outside
//! the units left alone — on valid streams, on every truncation and on
//! seeded bit flips.

#[path = "common/embedded.rs"]
mod embedded;

use embedded::{assert_placed_matches_owned, lcg, rewrap_stored as rewrap_stream, Embedded};
use sz_codec::buffer3::{place_unit, AsView3, Buffer3, Dims3, StridedMut, UnitDest};
use sz_codec::codec::read_envelope;
use sz_codec::error::{CodecError, CodecResult};
use sz_codec::lossless;
use sz_codec::lr::{self, LrConfig};

/// A smooth trend (regression wins), noise (Lorenzo wins on some blocks)
/// and raw-stored outliers: spikes, NaN, ±∞.
fn field(dims: Dims3, seed: u64) -> Buffer3 {
    let mut state = seed;
    let mut b = Buffer3::zeros(dims);
    b.fill_with(|i, j, k| {
        let trend = (i as f64 * 0.31 + seed as f64).sin() + 0.07 * j as f64 - 0.03 * k as f64;
        let noise = (lcg(&mut state) - 0.5) * if (i / 4 + j / 4) % 2 == 0 { 0.8 } else { 0.0 };
        match (lcg(&mut state) * 97.0) as u32 {
            0 => 1.0e9,
            1 => f64::NAN,
            2 => f64::NEG_INFINITY,
            _ => trend + noise,
        }
    });
    b
}

const SHAPES: [(usize, usize, usize); 5] =
    [(1, 1, 1), (5, 1, 3), (13, 7, 9), (8, 8, 8), (17, 9, 5)];

fn domains(n: usize, seed: u64) -> Vec<Buffer3> {
    (0..n)
        .map(|u| {
            let (nx, ny, nz) = SHAPES[(u + seed as usize) % SHAPES.len()];
            field(Dims3::new(nx, ny, nz), seed * 131 + u as u64)
        })
        .collect()
}

fn decode_lr(stream: &[u8]) -> impl Fn(&mut dyn UnitDest) -> CodecResult<()> + '_ {
    move |dest| lr::decompress_domains_into(stream, dest).map(drop)
}

#[test]
fn placed_lr_decode_matches_owned_and_touches_nothing_else() {
    for n in [1usize, 5, 64] {
        for (seed, bs, eb) in [(1u64, 4usize, 1e-2), (2, 6, 1e-4), (3, 255, 1e-3)] {
            let what = format!("{n} domains, seed {seed}, block {bs}, eb {eb}");
            let units = domains(n, seed);
            let stream = lr::compress_domains(&units, &LrConfig::new(eb).with_block_size(bs));
            let owned = assert_placed_matches_owned(decode_lr(&stream), false, &what)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            // The owned face is the same call.
            let faced = lr::decompress_domains(&stream).expect("decode");
            assert!(embedded::same_units(&owned, &faced, false), "{what}");
            assert_eq!(owned.len(), n, "{what}");
            for (o, d) in units.iter().zip(&owned) {
                assert_eq!(o.dims(), d.dims(), "{what}");
                for (a, b) in o.data().iter().zip(d.data()) {
                    // Non-finite values are stored raw, payload bits and all.
                    assert!(
                        a.to_bits() == b.to_bits() || (a - b).abs() <= eb * (1.0 + 1e-12),
                        "{what}: {a} decoded as {b}"
                    );
                }
            }
        }
    }
}

/// Envelope prefix and lossless-unwrapped payload of a stream.
fn unwrap_stream(bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let env = read_envelope(bytes).expect("valid envelope");
    let payload = lossless::decompress(&bytes[env.payload_offset..]).expect("valid lossless");
    (bytes[..env.payload_offset].to_vec(), payload)
}

#[test]
fn hostile_lr_streams_get_one_outcome_through_both_destinations() {
    // Ragged 13×7×9 units: both predictors, clipped blocks, outliers.
    let units: Vec<Buffer3> = (0..5)
        .map(|u| field(Dims3::new(13, 7, 9), 40 + u))
        .collect();
    let stream = lr::compress_domains(&units, &LrConfig::new(1e-3).with_block_size(6));
    let (prefix, payload) = unwrap_stream(&stream);
    assert!(assert_placed_matches_owned(decode_lr(&stream), false, "pristine").is_ok());
    // Every truncation, of the stream and of the payload inside it.
    for cut in 0..stream.len() {
        let what = format!("stream cut at {cut}");
        assert!(assert_placed_matches_owned(decode_lr(&stream[..cut]), true, &what).is_err());
    }
    for cut in 0..payload.len() {
        let damaged = rewrap_stream(&prefix, &payload[..cut]);
        let _ = assert_placed_matches_owned(decode_lr(&damaged), true, &format!("cut {cut}"));
    }
    // Seeded bit flips in the payload: header fields, selection bits, both
    // Huffman tables and bit streams, outlier counts and raw values.
    let mut x = 2025u64;
    let (mut decoded, mut refused) = (0, 0);
    for _ in 0..2000 {
        let at = (lcg(&mut x) * payload.len() as f64) as usize;
        let bit = (lcg(&mut x) * 8.0) as u32;
        let mut damaged = payload.clone();
        damaged[at] ^= 1 << bit;
        let damaged = rewrap_stream(&prefix, &damaged);
        let what = format!("bit {bit} of payload byte {at}");
        match assert_placed_matches_owned(decode_lr(&damaged), true, &what) {
            Ok(_) => decoded += 1,
            Err(_) => refused += 1,
        }
    }
    // The flips must reach both the guards and the reconstruction.
    assert!(decoded > 100 && refused > 100, "{decoded} / {refused}");
}

#[test]
fn strided_mut_is_the_one_guard() {
    let d = Dims3::new(4, 3, 2);
    let mut buf = vec![0.0; 64];
    // Dense, padded, and exactly long enough.
    assert!(StridedMut::new(d, &mut buf[..24], 4, 12).is_ok());
    assert!(StridedMut::new(d, &mut buf, 5, 17).is_ok());
    let span = 17 + 2 * 5 + 4;
    assert!(StridedMut::new(d, &mut buf[..span], 5, 17).is_ok());
    let refused = |r: CodecResult<StridedMut<'_>>, what: &str| match r {
        Err(CodecError::DimsMismatch { .. }) => {}
        Err(e) => panic!("{what}: {e:?}"),
        Ok(_) => panic!("{what}: admitted"),
    };
    // One cell short; rows that overlap; planes that overlap.
    refused(
        StridedMut::new(d, &mut buf[..span - 1], 5, 17),
        "one cell short",
    );
    refused(
        StridedMut::new(d, &mut buf[..23], 4, 12),
        "dense, one short",
    );
    refused(StridedMut::new(d, &mut buf, 3, 12), "row < nx");
    refused(StridedMut::new(d, &mut buf, 5, 14), "plane < row·ny");
    // Strides whose products leave usize.
    refused(StridedMut::new(d, &mut buf, usize::MAX, 12), "row·ny");
    refused(
        StridedMut::new(d, &mut buf, 4, usize::MAX),
        "plane·(nz − 1)",
    );
    refused(
        StridedMut::new(d, &mut buf, usize::MAX / 4, usize::MAX - 10),
        "last plane + last row",
    );
    refused(StridedMut::new(d, &mut [], 4, 12), "empty");
}

/// [`Embedded`] with one planted fault: `fail_at` is refused, or answered
/// with a hole made for another shape.
struct Faulty {
    inner: Embedded,
    fail_at: usize,
    other_dims: bool,
}

impl UnitDest for Faulty {
    fn unit(&mut self, i: usize, dims: Dims3) -> CodecResult<StridedMut<'_>> {
        if i != self.fail_at {
            return self.inner.unit(i, dims);
        }
        if self.other_dims {
            return self
                .inner
                .unit(i, Dims3::new(dims.nx + 1, dims.ny, dims.nz));
        }
        Err(CodecError::dims(format!("no room for unit {i}")))
    }
}

#[test]
fn a_destination_that_refuses_is_a_typed_error_before_the_unit_is_written() {
    let units = domains(5, 7);
    let stream = lr::compress_domains(&units, &LrConfig::new(1e-3));
    let owned = lr::decompress_domains(&stream).expect("decode");
    for other_dims in [false, true] {
        for fail_at in 0..5 {
            let mut dest = Faulty {
                inner: Embedded::default(),
                fail_at,
                other_dims,
            };
            let err = lr::decompress_domains_into(&stream, &mut dest).unwrap_err();
            assert!(matches!(err, CodecError::DimsMismatch { .. }), "{err:?}");
            // The units before it are whole, it and its successors are not
            // there — and a hole of the wrong shape was never written to.
            let placed = dest.inner.units();
            assert_eq!(placed.len(), fail_at + other_dims as usize);
            assert!(embedded::same_units(
                &placed[..fail_at],
                &owned[..fail_at],
                false
            ));
            if other_dims {
                assert!(dest.inner.untouched(fail_at));
            }
            // The copy helper asks the same question the same way.
            let mut dest = Faulty {
                inner: Embedded::default(),
                fail_at,
                other_dims,
            };
            let copied = owned
                .iter()
                .enumerate()
                .try_for_each(|(i, u)| place_unit(&mut dest, i, u.view()));
            assert!(matches!(copied, Err(CodecError::DimsMismatch { .. })));
            assert_eq!(dest.inner.units().len(), fail_at + other_dims as usize);
            assert!(!other_dims || dest.inner.untouched(fail_at));
        }
    }
    // The allocating destination takes units in order only.
    let mut out = vec![Buffer3::zeros(Dims3::cube(2))];
    assert!(matches!(
        out.unit(0, Dims3::cube(2)),
        Err(CodecError::DimsMismatch { .. })
    ));
}
