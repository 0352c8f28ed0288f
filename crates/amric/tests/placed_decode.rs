//! Placed decode is held to the owned one, one layer up from
//! `sz-codec/tests/placed_decode.rs`: every pipeline stream mode, and the
//! committed golden corpus, decode into holes at non-trivial strides and
//! offsets of NaN-sentinel buffers to exactly the values the allocating
//! destination gets (for the goldens: to the committed `.digest`), with
//! every cell outside the units left alone — and hostile streams get one
//! outcome through both destinations.

#[allow(dead_code)] // shared with the sz-codec suite, which uses all of it
#[path = "../../sz-codec/tests/common/embedded.rs"]
mod embedded;

use amr_mesh::prelude::IntVect;
use amric::config::{AmricConfig, MergePolicy};
use amric::pipeline::{
    compress_field_units, compress_field_units_resolved_into, compress_placed_into,
    decompress_field_units, decompress_field_units_into, no_reference, AmricScratch, ResolvedBound,
    UnitOrigins,
};
use embedded::{assert_placed_matches_owned, lcg, rewrap_stored as rewrap, same_units, Embedded};
use sz_codec::codec::{read_envelope, CodecId};
use sz_codec::prelude::*;
use sz_codec::{lossless, CodecResult};

/// A trend with seeded noise and a few raw-stored spikes; every other
/// unit rough, so the adaptive mode fills both of its groups.
fn unit(dims: Dims3, seed: u64) -> Buffer3 {
    let mut state = seed;
    let rough = if seed.is_multiple_of(2) { 0.9 } else { 0.01 };
    let mut b = Buffer3::zeros(dims);
    b.fill_with(|i, j, k| {
        let trend = (i as f64 * 0.4 + seed as f64).sin() + 0.06 * j as f64 - 0.02 * k as f64;
        let spike = if lcg(&mut state) < 0.01 { 1.0e7 } else { 0.0 };
        trend + (lcg(&mut state) - 0.5) * rough + spike
    });
    b
}

fn units(n: usize, dims: impl Fn(usize) -> Dims3, seed: u64) -> Vec<Buffer3> {
    (0..n)
        .map(|u| unit(dims(u), seed * 1000 + u as u64))
        .collect()
}

/// The stream-mode byte of a pipeline stream.
fn mode_of(stream: &[u8]) -> u8 {
    stream[read_envelope(stream).expect("envelope").payload_offset]
}

fn decode_pipeline(stream: &[u8]) -> impl Fn(&mut dyn UnitDest) -> CodecResult<()> + '_ {
    move |dest| decompress_field_units_into(stream, dest, &mut no_reference)
}

fn adaptive(units: &[Buffer3]) -> Vec<u8> {
    let bound = ResolvedBound::Adaptive {
        tight: 1e-4,
        loose: 1e-2,
    };
    let mut out = Vec::new();
    let cfg = AmricConfig::lr(1e-3);
    compress_field_units_resolved_into(
        units,
        &cfg,
        8,
        bound,
        &mut AmricScratch::default(),
        &mut out,
    );
    out
}

/// The placed-mode stream of 64 cubes of edge 6 filling a 4³ block of
/// unit slots, handed over in a scrambled order.
fn placed(units: &[Buffer3]) -> Vec<u8> {
    let origins = (0..64i64)
        .map(|i| (i * 29) % 64)
        .map(|s| IntVect::new(s % 4 * 6, s / 4 % 4 * 6, s / 16 * 6))
        .collect();
    let origins = UnitOrigins::new(origins, 6);
    let (cfg, bound) = (AmricConfig::interp(1e-3), ResolvedBound::Fixed(1e-3));
    let mut out = Vec::new();
    let scratch = &mut AmricScratch::default();
    compress_placed_into(units, Some(&origins), &cfg, 6, bound, scratch, &mut out);
    out
}

#[test]
fn every_pipeline_mode_places_what_it_returns() {
    let ragged = |u: usize| match u % 4 {
        0 => Dims3::new(13, 7, 9),
        1 => Dims3::new(1, 1, 1),
        2 => Dims3::new(5, 1, 3),
        _ => Dims3::cube(8),
    };
    // Uniform x/y footprint, ragged along z: what the linear modes merge.
    let slabs = |u: usize| Dims3::new(5, 1, 1 + u % 3);
    let lm = AmricConfig::lr(1e-3).with_merge(MergePolicy::LinearMerge);
    let interp = AmricConfig::interp(1e-3);
    let interp_linear = interp.with_cluster_arrangement(false);
    for n in [1usize, 5, 64] {
        let seed = n as u64;
        let mut cases: Vec<(&str, u8, Vec<u8>)> = vec![
            (
                "LR-SLE, ragged",
                0,
                compress_field_units(&units(n, ragged, seed), &AmricConfig::lr(1e-3), 8),
            ),
            (
                "LR-SLE under an interp config it cannot pack",
                if n == 1 { 2 } else { 0 },
                compress_field_units(&units(n, ragged, seed), &interp, 8),
            ),
            (
                "LR linear merge",
                1,
                compress_field_units(&units(n, slabs, seed), &lm, 8),
            ),
            (
                "interp linear",
                2,
                compress_field_units(&units(n, slabs, seed), &interp_linear, 8),
            ),
            (
                "interp cluster, 8³",
                3,
                compress_field_units(&units(n, |_| Dims3::cube(8), seed), &interp, 8),
            ),
            (
                "interp cluster, 1³",
                3,
                compress_field_units(&units(n, |_| Dims3::cube(1), seed), &interp, 1),
            ),
            ("adaptive, ragged", 4, adaptive(&units(n, ragged, seed))),
        ];
        if n == 64 {
            let cubes = units(n, |_| Dims3::cube(6), seed);
            cases.push(("interp placed, 6³", 6, placed(&cubes)));
        }
        for (name, mode, stream) in cases {
            let what = format!("{name}, {n} units");
            assert_eq!(mode_of(&stream), mode, "{what}: stream mode");
            let owned = assert_placed_matches_owned(decode_pipeline(&stream), false, &what)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(owned.len(), n, "{what}");
            // The owned face is the same call.
            let faced = decompress_field_units(&stream).expect("decode");
            assert!(same_units(&owned, &faced, false), "{what}");
        }
    }
}

/// FNV-1a (64-bit) over decoded units — `golden_streams.rs`'s digest.
fn decoded_digest(units: &[Buffer3]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(units.len() as u64);
    for u in units {
        let d = u.dims();
        for n in [d.nx, d.ny, d.nz] {
            eat(n as u64);
        }
        for &v in u.data() {
            eat(v.to_bits());
        }
    }
    h
}

#[test]
fn golden_corpus_places_to_its_committed_digests() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut placed_streams = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("golden dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "bin") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let stream = std::fs::read(&path).expect("golden stream");
        let env = read_envelope(&stream).expect("golden envelope");
        // The streams with a placing decoder: SZ_L/R and the pipeline.
        // The rest of the corpus (SZ_Interp, TAC) only decodes owned. The
        // delta golden predicts from the decode of `pipeline_lr_sle`, as
        // snapshot 1.
        let mut placed = Embedded::default();
        let mut reference = || {
            let sle = std::fs::read(dir.join("pipeline_lr_sle.bin")).expect("golden stream");
            Ok((1, std::sync::Arc::new(decompress_field_units(&sle)?)))
        };
        if env.codec == CodecId::AmricPipeline as u16 {
            decompress_field_units_into(&stream, &mut placed, &mut reference)
                .expect("pipeline golden decodes");
        } else if env.codec == CodecId::LrSle as u16 {
            lr::decompress_domains_into(&stream, &mut placed).expect("SZ_L/R golden decodes");
        } else {
            continue;
        }
        let digest = std::fs::read_to_string(dir.join(format!("{name}.digest"))).expect("digest");
        assert_eq!(
            format!("{:016x}\n", decoded_digest(&placed.units())),
            digest,
            "{name}: placed values diverge from the golden digest"
        );
        placed_streams.push(name);
    }
    placed_streams.sort();
    assert_eq!(
        placed_streams,
        [
            "lr_ragged",
            "lr_sle",
            "pipeline_delta",
            "pipeline_empty",
            "pipeline_interp_cluster",
            "pipeline_interp_linear",
            "pipeline_interp_placed",
            "pipeline_lr_lm",
            "pipeline_lr_sle",
        ]
    );
}

/// A pipeline stream with the lossless stage of its SZ stream taken off:
/// `(bytes up to and including the SZ envelope, SZ payload)`. Modes 0 and
/// 3 carry their SZ stream last, after `header` mode-specific bytes.
fn unwrap_pipeline(stream: &[u8], header: usize) -> (Vec<u8>, Vec<u8>) {
    let sz_at = read_envelope(stream).expect("envelope").payload_offset + 1 + 4 + header;
    let sz_env = read_envelope(&stream[sz_at..]).expect("SZ envelope");
    let payload_at = sz_at + sz_env.payload_offset;
    let payload = lossless::decompress(&stream[payload_at..]).expect("valid lossless");
    (stream[..payload_at].to_vec(), payload)
}

/// Mode 6 for the hostile-stream test: the stream, and the bytes of its
/// header between the unit count and the SZ_Interp stream (edge, cluster
/// count, cluster dims, the length-prefixed slot map).
fn placed_case() -> (&'static str, usize, Vec<u8>) {
    let stream = placed(&units(64, |_| Dims3::cube(6), 79));
    let at = read_envelope(&stream).expect("envelope").payload_offset + 1 + 4;
    let word = |at: usize| u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
    let k = word(at + 4);
    let map_len = word(at + 8 + 12 * k);
    ("mode 6", 8 + 12 * k + 4 + map_len, stream)
}

#[test]
fn hostile_pipeline_streams_get_one_outcome_through_both_destinations() {
    let lr_units = units(5, |_| Dims3::new(13, 7, 9), 77);
    let cubes = units(5, |_| Dims3::cube(6), 78);
    let cases = [
        (
            "mode 0",
            0usize,
            compress_field_units(&lr_units, &AmricConfig::lr(1e-3), 8),
        ),
        (
            "mode 3",
            16,
            compress_field_units(&cubes, &AmricConfig::interp(1e-3), 6),
        ),
        placed_case(),
    ];
    for (name, header, stream) in cases {
        assert!(assert_placed_matches_owned(decode_pipeline(&stream), false, name).is_ok());
        let (prefix, payload) = unwrap_pipeline(&stream, header);
        assert!(assert_placed_matches_owned(
            decode_pipeline(&rewrap(&prefix, &payload)),
            false,
            name
        )
        .is_ok());
        // Every truncation, of the stream and of the SZ payload inside it.
        for cut in 0..stream.len() {
            let what = format!("{name}: stream cut at {cut}");
            let cut = &stream[..cut];
            assert!(assert_placed_matches_owned(decode_pipeline(cut), true, &what).is_err());
        }
        for cut in 0..payload.len() {
            let damaged = rewrap(&prefix, &payload[..cut]);
            let what = format!("{name}: payload cut at {cut}");
            let _ = assert_placed_matches_owned(decode_pipeline(&damaged), true, &what);
        }
        // Seeded bit flips: the pipeline header in front, then the payload.
        let mut x = 4242u64;
        let (mut decoded, mut refused) = (0, 0);
        for flip in 0..2000 {
            let mut damaged = rewrap(&prefix, &payload);
            let span = if flip % 8 == 0 {
                0..prefix.len()
            } else {
                prefix.len()..damaged.len()
            };
            let at = span.start + (lcg(&mut x) * span.len() as f64) as usize;
            let bit = (lcg(&mut x) * 8.0) as u32;
            damaged[at] ^= 1 << bit;
            let what = format!("{name}: bit {bit} of byte {at}");
            match assert_placed_matches_owned(decode_pipeline(&damaged), true, &what) {
                Ok(_) => decoded += 1,
                Err(_) => refused += 1,
            }
        }
        assert!(
            decoded > 100 && refused > 100,
            "{name}: {decoded} / {refused}"
        );
    }
}
