//! The shared-envelope contract: every codec family writes the same 8-byte
//! envelope naming itself, each family's own decoder restores its streams,
//! and malformed streams fail with the *specific* [`CodecError`] variant —
//! not just "is_err" — whichever of the decoders they reach, the
//! pipeline's temporal delta mode included.

use amr_mesh::IntVect;
use amric::prelude::*;
use amric::tac::{tac_compress, tac_decompress};
use sz_codec::codec::{read_envelope, ENVELOPE_MAGIC};
use sz_codec::prelude::*;

fn units(n: usize, edge: usize) -> Vec<Buffer3> {
    (0..n)
        .map(|u| {
            let mut b = Buffer3::zeros(Dims3::cube(edge));
            b.fill_with(|i, j, k| {
                (u as f64 * 1.1).sin() * 6.0 + ((i + j) as f64 * 0.3).cos() + k as f64 * 0.04
            });
            b
        })
        .collect()
}

fn origins(n: usize, edge: usize) -> Vec<IntVect> {
    (0..n)
        .map(|u| {
            let (u, e) = (u as i64, edge as i64);
            IntVect::new((u % 2) * e, ((u / 2) % 2) * e, (u / 4) * e)
        })
        .collect()
}

/// One surviving family: the id its envelope carries and its own encode /
/// decode pair, both at a value-range-relative bound of 1e-3.
struct Family {
    id: CodecId,
    encode: fn(&[Buffer3]) -> Vec<u8>,
    decode: fn(&[u8]) -> CodecResult<Vec<Buffer3>>,
}

/// The snapshot the delta family predicts from: every probe's units,
/// slightly moved, and a few more.
fn delta_reference() -> Reference {
    let mut moved = units(8, 8);
    for u in &mut moved {
        u.data_mut().iter_mut().for_each(|v| *v += 1e-3);
    }
    (3, std::sync::Arc::new(moved))
}

fn families() -> [Family; 5] {
    [
        Family {
            id: CodecId::LrSle,
            encode: |u| lr::compress_domains(u, &LrConfig::new(resolve_abs_eb(u, 1e-3))),
            decode: lr::decompress_domains,
        },
        Family {
            // SZ_Interp holds one buffer per stream: the first unit.
            id: CodecId::Interp,
            encode: |u| interp::compress(&u[0], &InterpConfig::new(resolve_abs_eb(u, 1e-3))),
            decode: |b| interp::decompress(b).map(|u| vec![u]),
        },
        Family {
            id: CodecId::AmricPipeline,
            encode: |u| compress_field_units(u, &AmricConfig::lr(1e-3), u[0].dims().nx),
            decode: decompress_field_units,
        },
        Family {
            id: CodecId::Tac,
            encode: |u| tac_compress(u, &origins(u.len(), u[0].dims().nx), 1e-3),
            decode: tac_decompress,
        },
        Family {
            // The pipeline's delta mode: every other unit against the
            // reference, the rest in the nested stream.
            id: CodecId::AmricPipeline,
            encode: |u| {
                let (id, reference) = delta_reference();
                let map: Vec<Option<u32>> = (0..u.len() as u32)
                    .map(|i| (i % 2 == 0).then_some(i))
                    .collect();
                let (cfg, edge) = (AmricConfig::lr(1e-3), u[0].dims().nx);
                let mut out = Vec::new();
                let mut scratch = AmricScratch::default();
                let abs = resolve_abs_eb(u, 1e-3);
                compress_delta_into(
                    u,
                    &cfg,
                    edge,
                    abs,
                    (id, &reference),
                    &map,
                    &mut scratch,
                    &mut out,
                )
                .expect("delta encode");
                out
            },
            decode: |b| {
                let mut units = Vec::new();
                decompress_field_units_into(b, &mut units, &mut || Ok(delta_reference()))?;
                Ok(units)
            },
        },
    ]
}

#[test]
fn dispatch_matrix_roundtrips_every_family() {
    // One stream per family: the envelope names the family that wrote it,
    // and the family's own decoder restores the units within the bound.
    let u = units(6, 8);
    let abs = resolve_abs_eb(&u, 1e-3);
    let mut seen = Vec::new();
    for f in families() {
        let stream = (f.encode)(&u);
        let env = read_envelope(&stream).unwrap();
        assert_eq!(env.codec, f.id as u16, "{}", f.id.name());
        seen.push(env.codec);

        let back = (f.decode)(&stream).unwrap();
        let n = if f.id == CodecId::Interp { 1 } else { u.len() };
        let expected = &u[..n];
        assert_eq!(back.len(), expected.len(), "{}", f.id.name());
        for (o, d) in expected.iter().zip(&back) {
            assert_eq!(o.dims(), d.dims());
            let s = ErrorStats::compare(o.data(), d.data());
            assert!(
                s.max_abs_err <= abs * (1.0 + 1e-9),
                "{}: max err {}",
                f.id.name(),
                s.max_abs_err
            );
        }
    }
    assert_eq!(
        seen,
        vec![1, 2, 3, 4, 3],
        "every live id and the delta mode exercised"
    );
}

#[test]
fn truncation_is_reported_as_truncated() {
    // Cutting inside the envelope header must surface the Truncated
    // variant (with honest need/have accounting), for every family.
    for f in families() {
        let stream = (f.encode)(&units(4, 8));
        for cut in [0, 1, 5, 7] {
            let err = (f.decode)(&stream[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. }),
                "{} cut at {cut}: {err:?}",
                f.id.name()
            );
        }
        // An empty input is the degenerate truncation.
        let err = (f.decode)(&[]).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { have: 0, .. }));
    }
}

#[test]
fn wrong_magic_is_reported_as_bad_magic() {
    for f in families() {
        let mut stream = (f.encode)(&units(4, 8));
        stream[0] ^= 0xFF;
        let found = u32::from_le_bytes(stream[..4].try_into().unwrap());
        assert_ne!(found, ENVELOPE_MAGIC);
        let err = (f.decode)(&stream).unwrap_err();
        assert!(
            matches!(err, CodecError::BadMagic { found: f } if f == found),
            "{}: {err:?}",
            f.id.name()
        );
    }
}

#[test]
fn bad_amric_mode_is_reported_as_bad_mode() {
    let cfg = AmricConfig::lr(1e-3);
    let mut stream = compress_field_units(&units(4, 8), &cfg, 8);
    // The pipeline mode byte sits right after the 8-byte envelope.
    stream[8] = 9;
    let err = decompress_field_units(&stream).unwrap_err();
    assert!(matches!(err, CodecError::BadMode { found: 9 }), "{err:?}");
}

#[test]
fn wrong_family_decoder_is_reported_as_wrong_codec() {
    // Every family's stream handed to every other family's decoder is a
    // typed mismatch naming both sides, not a parse explosion — both ways
    // round for each pair.
    let u = units(3, 8);
    for writer in families() {
        let stream = (writer.encode)(&u);
        for reader in families().into_iter().filter(|r| r.id != writer.id) {
            let err = (reader.decode)(&stream).unwrap_err();
            assert_eq!(
                err,
                CodecError::WrongCodec {
                    expected: reader.id as u16,
                    found: writer.id as u16
                },
                "{} stream to the {} decoder",
                writer.id.name(),
                reader.id.name()
            );
        }
        // Ids 5, 6 and 7 are retired: no decoder takes them either.
        for retired in [5u16, 6, 7] {
            let mut forged = stream.clone();
            forged[4..6].copy_from_slice(&retired.to_le_bytes());
            assert!(matches!(
                (writer.decode)(&forged),
                Err(CodecError::WrongCodec { found, .. }) if found == retired
            ));
        }
    }
}
