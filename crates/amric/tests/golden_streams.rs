//! Golden-stream corpus: small fixed inputs compressed through every
//! stream shape a file, a bin or the benchmark writes — SZ_L/R, bare
//! SZ_Interp, the four AMRIC pipeline modes, its empty marker, its
//! gradient-adaptive mode, its temporal delta mode and its placed
//! SZ_Interp mode, and TAC —
//! with the expected stream bytes committed under
//! `tests/golden/`. Kernel rewrites (vectorization, cache blocking,
//! fused passes) must keep every stream byte-identical to the scalar
//! baseline these files were generated from — any diff here is a format
//! or bitstream break, not a perf regression.
//!
//! Next to every `<name>.bin` sits `<name>.digest`: an FNV-1a hash of the
//! *decoded* values (bit patterns, dims included). "Within bound" would
//! let a decoder rewrite shift a value by an ulp unnoticed; the digest
//! pins the decode side as tightly as the `.bin` pins the encode side.
//!
//! Regenerate both after an *intentional* format change with
//! `AMRIC_GOLDEN_BLESS=1 cargo test -p amric --test golden_streams`.

use amr_mesh::geom::IntVect;
use amric::prelude::*;
use amric::tac::{tac_compress, tac_decompress};
use std::path::PathBuf;
use sz_codec::prelude::*;

/// Deterministic LCG in [-0.5, 0.5).
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// Fixed unit set: `n` blocks of `dims`, a smooth trend plus seeded noise
/// (exercises both predictors, some outliers, all symbol ranges).
fn units(n: usize, dims: Dims3, seed: u64) -> Vec<Buffer3> {
    let mut state = seed;
    (0..n)
        .map(|u| {
            let mut b = Buffer3::zeros(dims);
            b.fill_with(|i, j, k| {
                let base = ((i as f64 * 0.37 + u as f64).sin() + (j as f64 * 0.21).cos())
                    * (1.0 + k as f64 * 0.05);
                base + lcg(&mut state) * 0.02 + if (i + j + k + u) % 97 == 0 { 3.0 } else { 0.0 }
            });
            b
        })
        .collect()
}

fn origins(n: usize) -> Vec<IntVect> {
    // Scattered (non-contiguous) origins so TAC's Morton grouping does
    // real work.
    (0..n)
        .map(|u| {
            let u = u as i64;
            IntVect::new((u * 8) % 24, ((u / 3) * 8) % 16, (u * 16) % 32)
        })
        .collect()
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// FNV-1a (64-bit) over the decoded units: the unit count, then per unit
/// its dims and every value's `f64::to_bits`, all as little-endian `u64`s.
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

/// Compare `bytes` against the committed golden file (or rewrite it when
/// blessing), then prove the stream still round-trips through its
/// family's own `decode` within the error bound and to exactly the
/// committed decoded values.
fn check(
    name: &str,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> CodecResult<Vec<Buffer3>>,
    orig: &[Buffer3],
    abs_eb: f64,
) {
    let path = golden_dir().join(format!("{name}.bin"));
    let digest_path = golden_dir().join(format!("{name}.digest"));
    let bless = std::env::var("AMRIC_GOLDEN_BLESS").is_ok();
    if bless {
        std::fs::create_dir_all(golden_dir()).expect("mkdir golden");
        std::fs::write(&path, bytes).expect("write golden");
    }
    let expected = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); bless first", path.display()));
    assert_eq!(
        expected.len(),
        bytes.len(),
        "{name}: stream length changed ({} -> {})",
        expected.len(),
        bytes.len()
    );
    if expected != bytes {
        let first_diff = expected
            .iter()
            .zip(bytes)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        panic!("{name}: stream bytes diverge from golden at offset {first_diff}");
    }
    // Sanity: the pinned stream is decodable and within bound.
    let back = decode(bytes).expect("golden stream decodes");
    assert_eq!(back.len(), orig.len(), "{name}: unit count");
    for (o, b) in orig.iter().zip(&back) {
        assert_eq!(o.dims(), b.dims(), "{name}: dims");
        let s = ErrorStats::compare(o.data(), b.data());
        assert!(
            s.max_abs_err <= abs_eb * (1.0 + 1e-9),
            "{name}: max err {} > {abs_eb}",
            s.max_abs_err
        );
    }
    // The decoded values themselves are pinned, bit for bit.
    let digest = format!("{:016x}\n", decoded_digest(&back));
    if bless {
        std::fs::write(&digest_path, &digest).expect("write golden digest");
    }
    let expected = std::fs::read_to_string(&digest_path).unwrap_or_else(|e| {
        panic!(
            "missing golden digest {} ({e}); bless first",
            digest_path.display()
        )
    });
    assert_eq!(
        expected, digest,
        "{name}: decoded values diverge from the golden digest"
    );
}

/// SZ_Interp holds one buffer per stream.
fn interp_units(bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
    interp::decompress(bytes).map(|u| vec![u])
}

/// The pipeline stream the writer's filter emits at a resolved bound.
fn pipeline(units: &[Buffer3], cfg: &AmricConfig, abs_eb: f64) -> Vec<u8> {
    let mut out = Vec::new();
    let scratch = &mut AmricScratch::default();
    compress_field_units_with_bound_into(units, cfg, 8, abs_eb, scratch, &mut out);
    out
}

/// An SZ_L/R stream of `groups` groups, its data part stored or not.
fn lr_stream(u: &[Buffer3], abs: f64, groups: usize, data_stored: bool) -> Vec<u8> {
    let stream = lr::compress_domains(u, &LrConfig::new(abs));
    let layout = lr::layout(&stream).expect("layout");
    assert_eq!(layout.groups, groups, "{layout:?}");
    assert_eq!(
        layout.data.map(|d| d.mode == 0),
        Some(data_stored),
        "{layout:?}"
    );
    stream
}

#[test]
fn golden_lr_sle() {
    // 6 000 cells: a group closes at the fifth domain, the sixth is one
    // of its own. `lr_sle.v2` is the version-2 stream of the same units.
    let u = units(6, Dims3::cube(10), 0xA001);
    let abs = resolve_abs_eb(&u, 1e-3);
    let stream = lr_stream(&u, abs, 2, true);
    check("lr_sle", &stream, lr::decompress_domains, &u, abs);
}

#[test]
fn golden_lr_groups() {
    // Five, five and three domains of 10³: three groups.
    let u = units(13, Dims3::cube(10), 0xA005);
    let abs = resolve_abs_eb(&u, 1e-3);
    let stream = lr_stream(&u, abs, 3, true);
    check("lr_groups", &stream, lr::decompress_domains, &u, abs);
}

#[test]
fn golden_lr_groups_lz() {
    // A loose bound leaves the trend's runs of one short code: the data
    // part takes the LZ stage.
    let u = units(10, Dims3::cube(10), 0xA006);
    let abs = resolve_abs_eb(&u, 1e-1);
    let stream = lr_stream(&u, abs, 2, false);
    check("lr_groups_lz", &stream, lr::decompress_domains, &u, abs);
}

/// A decode-only fixture `<name>.v2.bin` holds `<name>`'s units as the
/// encoder wrote them before the data block was cut into groups (format
/// version 2). It must decode, through the one decoder, to the digest
/// beside it, which is also `<name>`'s: the same values.
#[test]
fn version_2_fixtures_decode_to_the_values_of_their_successors() {
    let mut pairs = Vec::new();
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir") {
        let path = entry.expect("dir entry").path();
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let Some(name) = file.strip_suffix(".v2.bin") else {
            continue;
        };
        let bytes = std::fs::read(&path).expect("fixture");
        let env = sz_codec::codec::read_envelope(&bytes).expect("envelope");
        assert_eq!(
            (env.codec, env.version),
            (CodecId::LrSle as u16, 2),
            "{file}"
        );
        let back = lr::decompress_domains(&bytes).expect("version-2 fixture decodes");
        let digest = format!("{:016x}\n", decoded_digest(&back));
        for pinned in [format!("{name}.v2.digest"), format!("{name}.digest")] {
            let expected = std::fs::read_to_string(golden_dir().join(&pinned)).expect("digest");
            assert_eq!(digest, expected, "{file} against {pinned}");
        }
        pairs.push(name.to_string());
    }
    assert_eq!(pairs, ["lr_sle"]);
}

#[test]
fn golden_lr_ragged() {
    // Mixed shapes: domain-edge blocks exercise the boundary paths of the
    // Lorenzo and regression kernels.
    let mut u = units(3, Dims3::cube(8), 0xA002);
    u.extend(units(1, Dims3::new(8, 8, 3), 0xA003));
    u.extend(units(1, Dims3::new(5, 7, 8), 0xA004));
    let abs = resolve_abs_eb(&u, 1e-3);
    let stream = lr::compress_domains(&u, &LrConfig::new(abs));
    assert_eq!(lr::layout(&stream).expect("layout").groups, 1);
    check("lr_ragged", &stream, lr::decompress_domains, &u, abs);
}

#[test]
fn golden_interp() {
    let u = units(1, Dims3::new(17, 12, 9), 0xB001);
    let abs = resolve_abs_eb(&u, 1e-3);
    let stream = interp::compress(&u[0], &InterpConfig::new(abs));
    check("interp", &stream, interp_units, &u, abs);
}

#[test]
fn golden_pipeline_modes() {
    // All four AMRIC pipeline stream modes.
    let u = units(8, Dims3::cube(8), 0xC001);
    let abs = resolve_abs_eb(&u, 1e-3);
    let cases: [(&str, AmricConfig); 4] = [
        ("pipeline_lr_sle", AmricConfig::lr(1e-3)),
        (
            "pipeline_lr_lm",
            AmricConfig::lr(1e-3).with_merge(MergePolicy::LinearMerge),
        ),
        ("pipeline_interp_cluster", AmricConfig::interp(1e-3)),
        (
            "pipeline_interp_linear",
            AmricConfig::interp(1e-3).with_cluster_arrangement(false),
        ),
    ];
    for (name, cfg) in cases {
        let stream = pipeline(&u, &cfg, abs);
        check(name, &stream, decompress_field_units, &u, abs);
    }
}

#[test]
fn golden_pipeline_adaptive() {
    // Mode 4: the gradient-adaptive stream, its rough units under the
    // tight bound and its smooth ones under the loose bound, each group
    // one SZ_L/R substream.
    let u = units(8, Dims3::cube(8), 0xC003);
    let (tight, loose) = (resolve_abs_eb(&u, 1e-4), resolve_abs_eb(&u, 1e-2));
    let mut stream = Vec::new();
    let cfg = AmricConfig::lr(1e-3);
    let scratch = &mut AmricScratch::default();
    let bound = ResolvedBound::Adaptive { tight, loose };
    compress_placed_into(&u, None, &cfg, 8, bound, scratch, &mut stream);
    let layout = stream_layout(&stream).expect("layout");
    assert_eq!(layout.mode, "adaptive");
    let bounds = stream_unit_bounds(&stream)
        .expect("unit bounds")
        .expect("adaptive");
    assert!(
        bounds.contains(&tight) && bounds.contains(&loose),
        "{bounds:?}"
    );
    check(
        "pipeline_adaptive",
        &stream,
        decompress_field_units,
        &u,
        loose,
    );
}

#[test]
fn golden_pipeline_interp_placed() {
    // The placed mode: 15 units of 8³ fill a 4×2×2 block of unit slots but
    // slot 6, handed over out of index-space order — one cluster with a
    // hole, and a slot map that jumps.
    let u = units(15, Dims3::cube(8), 0xC002);
    let abs = resolve_abs_eb(&u, 1e-3);
    let mut slots: Vec<i64> = (0..16).filter(|&s| s != 6).collect();
    slots.sort_by_key(|s| (s * 7) % 16);
    let origins = slots
        .iter()
        .map(|s| IntVect::new(s % 4 * 8, s / 4 % 2 * 8, s / 8 * 8))
        .collect();
    let origins = UnitOrigins::new(origins, 8);
    let mut stream = Vec::new();
    let cfg = AmricConfig::interp(1e-3);
    let scratch = &mut AmricScratch::default();
    let bound = ResolvedBound::Fixed(abs);
    compress_placed_into(&u, Some(&origins), &cfg, 8, bound, scratch, &mut stream);
    let layout = stream_layout(&stream).expect("layout");
    assert_eq!(layout.mode, "interp-placed");
    let shape = layout.placed.expect("placed");
    assert_eq!(
        (shape.clusters, shape.cells, shape.holes),
        (1, 16 * 512, 512)
    );
    check(
        "pipeline_interp_placed",
        &stream,
        decompress_field_units,
        &u,
        abs,
    );
}

/// The snapshot after `units(8, cube 8, 0xC001)`: every value drifted a
/// little, as a slowly evolving field does between two steps.
fn drifted(u: &[Buffer3]) -> Vec<Buffer3> {
    let mut next = u.to_vec();
    for (n, b) in next.iter_mut().enumerate() {
        let d = b.dims();
        for k in 0..d.nz {
            for j in 0..d.ny {
                for i in 0..d.nx {
                    let v = b.get(i, j, k) + 0.01 * ((i + 2 * j + 3 * k + n) as f64 * 0.3).sin();
                    b.set(i, j, k, v);
                }
            }
        }
    }
    next
}

#[test]
fn golden_pipeline_delta() {
    // The delta mode against the decode of `pipeline_lr_sle` as snapshot
    // 1 (the corpus pins that decode by its digest): six units delta-code,
    // two go to a nested SZ_Interp cluster stream.
    let prev = units(8, Dims3::cube(8), 0xC001);
    let reference = decompress_field_units(&pipeline(
        &prev,
        &AmricConfig::lr(1e-3),
        resolve_abs_eb(&prev, 1e-3),
    ))
    .expect("reference decodes");
    let u = drifted(&prev);
    let abs = resolve_abs_eb(&u, 1e-3);
    let map = [
        Some(0),
        None,
        Some(2),
        Some(3),
        None,
        Some(5),
        Some(7),
        Some(6),
    ];
    let mut stream = Vec::new();
    let cfg = AmricConfig::interp(1e-3);
    let scratch = &mut AmricScratch::default();
    compress_delta_into(
        &u,
        None,
        &cfg,
        8,
        abs,
        (1, &reference),
        &map,
        scratch,
        &mut stream,
    )
    .expect("delta encode");
    let reference: Reference = (1, std::sync::Arc::new(reference));
    let decode = |bytes: &[u8]| {
        let mut units = Vec::new();
        decompress_field_units_into(bytes, &mut units, &mut || Ok(reference.clone()))?;
        Ok(units)
    };
    check("pipeline_delta", &stream, decode, &u, abs);
}

#[test]
fn golden_tac() {
    let u = units(6, Dims3::cube(8), 0xD001);
    let abs = resolve_abs_eb(&u, 1e-3);
    let stream = tac_compress(&u, &origins(6), 1e-3);
    check("tac", &stream, tac_decompress, &u, abs);
}

#[test]
fn golden_empty_streams() {
    // The zero-unit pipeline stream (a rank with no units on a level) is
    // format too.
    let stream = pipeline(&[], &AmricConfig::lr(1e-3), 1e-3);
    check("pipeline_empty", &stream, decompress_field_units, &[], 1e-3);
}
