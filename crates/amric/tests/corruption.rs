//! Fuzz-lite robustness suite for the self-describing wire formats.
//!
//! Every decoder must be total over `&[u8]`: corrupted or truncated
//! AMRIC and TAC streams (and the underlying SZ_L/R / SZ_Interp
//! containers) return `Err` — they never panic, never assert, and never
//! let a flipped length field drive an absurd allocation. The tests
//! derive corrupt inputs from valid streams by truncation and byte
//! flips; a panic anywhere fails the test by unwinding.
//!
//! The same contract holds one layer up: the plotfile metadata parser is
//! total over forged `meta/*` datasets, and the writer refuses a
//! hierarchy its own reader could not load.

use amr_mesh::prelude::*;
use amric::config::AmricConfig;
use amric::pipeline::{
    compress_field_units, compress_placed_into, decompress_field_units, stream_layout,
    AmricScratch, ResolvedBound, UnitOrigins,
};
use amric::reader::{
    read_amric_hierarchy, read_baseline_hierarchy, read_plotfile_meta, verify_against, PlotfileMeta,
};
use amric::tac::{tac_compress, tac_decompress};
use amric::temporal::{read_temporal_meta, TemporalMeta};
use amric::writer::{write_amric, write_amric_to};
use amric::MergePolicy;
use h5lite::prelude::*;
use std::sync::Arc;
use sz_codec::prelude::*;
use sz_codec::CodecError;

/// Unit blocks with mild structure (so all pipeline modes exercise their
/// real paths: selection bitmaps, outliers, huffman tables, LZ matches).
fn units(n: usize, edge: usize) -> Vec<Buffer3> {
    (0..n)
        .map(|u| {
            let mut b = Buffer3::zeros(Dims3::cube(edge));
            b.fill_with(|i, j, k| {
                (u as f64 * 1.3).sin() * 20.0
                    + ((i as f64 * 0.5).sin() + (j as f64 * 0.4).cos()) * (1.0 + k as f64 * 0.05)
            });
            b
        })
        .collect()
}

fn origins(n: usize, edge: usize) -> Vec<IntVect> {
    (0..n)
        .map(|u| {
            let u = u as i64;
            let e = edge as i64;
            IntVect::new((u % 3) * e, ((u / 3) % 3) * e, (u / 9) * e)
        })
        .collect()
}

/// Truncation lengths to probe: every short prefix, then an even spread.
fn truncation_points(len: usize) -> Vec<usize> {
    let mut pts: Vec<usize> = (0..len.min(48)).collect();
    let step = (len / 64).max(1);
    pts.extend((48..len).step_by(step));
    pts.push(len.saturating_sub(1));
    pts.retain(|&p| p < len);
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// Byte positions to flip: dense over the header, sampled over the body.
fn flip_points(len: usize) -> Vec<usize> {
    let mut pts: Vec<usize> = (0..len.min(64)).collect();
    let step = (len / 96).max(1);
    pts.extend((64..len).step_by(step));
    pts.retain(|&p| p < len);
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// Drive one decoder over truncations (must `Err`) and byte flips (must
/// not panic; `Ok` with different payload is acceptable).
fn assault<T>(name: &str, valid: &[u8], decode: impl Fn(&[u8]) -> Result<T, CodecError>) {
    assert!(decode(valid).is_ok(), "{name}: pristine stream must decode");
    for cut in truncation_points(valid.len()) {
        assert!(
            decode(&valid[..cut]).is_err(),
            "{name}: truncation to {cut}/{} bytes must be rejected",
            valid.len()
        );
    }
    for pos in flip_points(valid.len()) {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = valid.to_vec();
            corrupt[pos] ^= mask;
            // Must return (Ok or Err) rather than panic/abort.
            let _ = decode(&corrupt);
        }
    }
}

#[test]
fn amric_stream_lr_sle_total() {
    let u = units(24, 8);
    let bytes = compress_field_units(&u, &AmricConfig::lr(1e-3), 8);
    assault("amric/lr-sle", &bytes, decompress_field_units);
}

#[test]
fn amric_stream_lr_linear_merge_total() {
    let u = units(24, 8);
    let cfg = AmricConfig::lr(1e-3).with_merge(MergePolicy::LinearMerge);
    let bytes = compress_field_units(&u, &cfg, 8);
    assault("amric/lr-lm", &bytes, decompress_field_units);
}

#[test]
fn amric_stream_interp_cluster_total() {
    let u = units(27, 8);
    let bytes = compress_field_units(&u, &AmricConfig::interp(1e-3), 8);
    assault("amric/interp-cluster", &bytes, decompress_field_units);
}

#[test]
fn amric_stream_interp_linear_total() {
    let u = units(27, 8);
    let cfg = AmricConfig::interp(1e-3).with_cluster_arrangement(false);
    let bytes = compress_field_units(&u, &cfg, 8);
    assault("amric/interp-linear", &bytes, decompress_field_units);
}

/// A placed-mode stream (pipeline mode 6): 16 units of 4³ in a 2×2×4
/// block, handed over column by column — one cluster of 16 slots.
fn placed_stream() -> Vec<u8> {
    let u = units(16, 4);
    let origins = (0..16)
        .map(|i| IntVect::new(i / 8 * 4, i / 4 % 2 * 4, i % 4 * 4))
        .collect();
    let origins = UnitOrigins::new(origins, 4);
    let (cfg, scratch) = (AmricConfig::interp(1e-3), &mut AmricScratch::default());
    let mut out = Vec::new();
    let bound = ResolvedBound::Fixed(1e-3);
    compress_placed_into(&u, Some(&origins), &cfg, 4, bound, scratch, &mut out);
    assert_eq!(stream_layout(&out).unwrap().mode, "interp-placed");
    out
}

/// Where the fields of a placed stream sit: after the 8-byte envelope, the
/// mode byte, then `n`, the unit edge and the cluster count (u32s), the
/// clusters' dims (3 × u32 each) and the length-prefixed slot map.
const PLACED_N: usize = 9;
const PLACED_K: usize = 17;
const PLACED_DIMS: usize = 21;

/// `stream` with its one cluster's slot map replaced by `pairs` of
/// (cluster change, slot skip), zig-zag varints as the encoder writes them.
fn with_slot_map(stream: &[u8], pairs: &[(i64, i64)]) -> Vec<u8> {
    let at = PLACED_DIMS + 12;
    let old_len = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
    let mut map = Vec::new();
    for &(dc, ds) in pairs {
        for v in [dc, ds] {
            let mut z = ((v << 1) ^ (v >> 63)) as u64;
            while z >= 0x80 {
                map.push(z as u8 | 0x80);
                z >>= 7;
            }
            map.push(z as u8);
        }
    }
    let map = sz_codec::lossless::compress(&map);
    let mut out = stream[..at].to_vec();
    out.extend_from_slice(&(map.len() as u32).to_le_bytes());
    out.extend_from_slice(&map);
    out.extend_from_slice(&stream[at + 4 + old_len..]);
    out
}

#[test]
fn amric_stream_interp_placed_total() {
    let bytes = placed_stream();
    assault("amric/interp-placed", &bytes, decompress_field_units);
    for cut in 0..bytes.len() {
        assert!(
            decompress_field_units(&bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes must be rejected",
            bytes.len()
        );
    }
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            let _ = decompress_field_units(&flipped);
            let _ = stream_layout(&flipped);
        }
    }
}

#[test]
fn forged_placed_headers_and_slot_maps_are_typed_errors() {
    let bytes = placed_stream();
    let put = |at: usize, v: u32| {
        let mut forged = bytes.clone();
        forged[at..at + 4].copy_from_slice(&v.to_le_bytes());
        forged
    };
    // Cluster dims over the budget (twice the units' slots) are refused
    // before anything is sized by them.
    for (what, forged) in [
        ("a wide cluster", put(PLACED_DIMS, 1000)),
        ("a 2^96-slot cluster", {
            let mut f = put(PLACED_DIMS, u32::MAX);
            f[PLACED_DIMS + 4..PLACED_DIMS + 12].fill(0xFF);
            f
        }),
    ] {
        let err = decompress_field_units(&forged).unwrap_err();
        assert!(
            matches!(
                err,
                CodecError::LimitExceeded {
                    what: "cluster cells",
                    ..
                }
            ),
            "{what}: {err:?}"
        );
        assert!(stream_layout(&forged).is_err(), "{what}");
    }
    // A map in slot order is valid too; each forgery below differs from
    // it in one entry.
    let column: Vec<(i64, i64)> = (0..16).map(|_| (0, 0)).collect();
    let mut inside = column.clone();
    inside[3] = (0, 12); // unit 3 at slot 15, unit 4 would land at 16
    let mut twice = column.clone();
    twice[9] = (0, -1); // unit 9 on unit 8's slot
    let mut stray = column.clone();
    stray[5] = (1, 0); // a second cluster that does not exist
    let forged: [(&str, Vec<u8>); 7] = [
        ("a slot outside its cluster", with_slot_map(&bytes, &inside)),
        ("two units on one slot", with_slot_map(&bytes, &twice)),
        ("a unit in no cluster", with_slot_map(&bytes, &stray)),
        ("a map of 15 units", with_slot_map(&bytes, &column[..15])),
        (
            "a map of 17 units",
            with_slot_map(&bytes, &[&column[..], &[(0, -16)]].concat()),
        ),
        ("a unit count above the map's", put(PLACED_N, 17)),
        ("a cluster count of 0", put(PLACED_K, 0)),
    ];
    let natural: Vec<(i64, i64)> = vec![(0, 0); 16];
    assert!(decompress_field_units(&with_slot_map(&bytes, &natural)).is_ok());
    for (what, forged) in forged {
        let err = decompress_field_units(&forged).expect_err(what);
        assert!(
            matches!(
                err,
                CodecError::Corrupt { .. } | CodecError::DimsMismatch { .. }
            ),
            "{what}: {err:?}"
        );
    }
    // A unit count below the map's leaves map entries over.
    assert!(decompress_field_units(&put(PLACED_N, 15)).is_err());
}

#[test]
fn tac_stream_total() {
    let u = units(20, 8);
    let o = origins(20, 8);
    let bytes = tac_compress(&u, &o, 1e-3);
    assault("tac", &bytes, tac_decompress);
}

#[test]
fn sz_lr_stream_total() {
    let mut b = Buffer3::zeros(Dims3::cube(12));
    b.fill_with(|i, j, k| (i as f64 * 0.3).sin() + (j + 2 * k) as f64 * 0.02);
    let bytes = lr::compress(&b, &LrConfig::new(1e-3));
    assault("sz/lr", &bytes, lr::decompress);
}

#[test]
fn sz_interp_stream_total() {
    let mut b = Buffer3::zeros(Dims3::cube(12));
    b.fill_with(|i, j, k| (k as f64 * 0.2).cos() * 3.0 + (i + j) as f64 * 0.01);
    let bytes = interp::compress(&b, &InterpConfig::new(1e-3));
    assault("sz/interp", &bytes, interp::decompress);
}

#[test]
fn garbage_and_empty_inputs_rejected() {
    let garbage: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    assert!(decompress_field_units(&[]).is_err());
    assert!(decompress_field_units(&garbage).is_err());
    assert!(tac_decompress(&[]).is_err());
    assert!(tac_decompress(&garbage).is_err());
    assert!(lr::decompress(&[]).is_err());
    assert!(lr::decompress(&garbage).is_err());
    assert!(interp::decompress(&[]).is_err());
    assert!(interp::decompress(&garbage).is_err());
    assert!(sz_codec::lossless::decompress(&garbage).is_err());
}

/// Parse the metadata of a container holding exactly these `meta/*`
/// datasets (one level; the parser never touches field data).
fn parse_meta(header: &[f64], names: &[f64], boxes: &[f64]) -> H5Result<PlotfileMeta> {
    let (w, mem) = H5Writer::in_memory();
    for (name, values) in [
        ("meta/header", header),
        ("meta/field_names", names),
        ("meta/level_0/boxes", boxes),
    ] {
        w.write_dataset(name, values, values.len().max(1), &NoFilter)?;
    }
    w.finish()?;
    read_plotfile_meta(&H5Reader::from_storage(Box::new(mem))?)
}

#[test]
fn forged_plotfile_metadata_is_a_typed_error() {
    // [nlevels, nfields, nranks, bf, remove_redundancy | nx, ny, nz, nboxes, ratio]
    let header = [1.0, 1.0, 1.0, 8.0, 1.0, 8.0, 8.0, 8.0, 1.0, 0.0];
    let names = [1.0, f64::from(b'a')];
    let boxes = [0.0, 0.0, 0.0, 7.0, 7.0, 7.0, 0.0];
    let meta = parse_meta(&header, &names, &boxes).expect("pristine metadata parses");
    assert_eq!((meta.num_levels(), meta.nranks), (1, 1));

    let with = |at: usize, v: f64| {
        let mut h = header;
        h[at] = v;
        h
    };
    let mut inverted = boxes;
    inverted[3] = -1.0; // hi.x < lo.x
    let mut stray_owner = boxes;
    stray_owner[6] = 5.0; // one rank, owner 5
    let forged: [(&str, [f64; 10], [f64; 7]); 8] = [
        ("level count sized past the header", with(0, 1e18), boxes),
        ("abort-sized level count", with(0, 1e12), boxes),
        (
            "field count sized past the name table",
            with(1, 1e18),
            boxes,
        ),
        ("box count whose table size overflows", with(8, 3e18), boxes),
        ("zero ranks", with(2, 0.0), boxes),
        ("owner beyond the rank count", header, stray_owner),
        ("zero level extent", with(5, 0.0), boxes),
        ("box with hi < lo", header, inverted),
    ];
    for (what, header, boxes) in forged {
        let err = parse_meta(&header, &names, &boxes).expect_err(what);
        assert!(matches!(err, H5Error::Format(_)), "{what}: {err:?}");
    }
    // A name length that runs past (or wraps) the table is equally typed.
    for len in [2.0, 1e19] {
        let err = parse_meta(&header, &[len, f64::from(b'a')], &boxes).unwrap_err();
        assert!(
            matches!(err, H5Error::Format(_)),
            "name length {len}: {err:?}"
        );
    }
}

/// `meta/temporal` as written into an otherwise empty in-memory
/// container, read back through the linkage parser.
fn parse_temporal(values: &[f64]) -> H5Result<Option<TemporalMeta>> {
    let (w, mem) = H5Writer::in_memory();
    w.write_dataset("meta/temporal", values, values.len().max(1), &NoFilter)?;
    w.finish()?;
    read_temporal_meta(&H5Reader::from_storage(Box::new(mem))?)
}

#[test]
fn forged_temporal_linkage_is_a_typed_error() {
    // The restart entry and the query engine trust this dataset before
    // they read a chunk, so every id must be an exact snapshot id.
    let linked = parse_temporal(&[2.0, 1.0]).expect("pristine linkage parses");
    let linked = linked.expect("present");
    assert_eq!((linked.snapshot_id, linked.reference_id), (2, Some(1)));
    let keyframe = parse_temporal(&[1.0, 0.0]).unwrap().unwrap();
    assert_eq!(keyframe.reference_id, None);
    let top = (1u64 << 53) as f64;
    assert_eq!(
        parse_temporal(&[top, 0.0]).unwrap().unwrap().snapshot_id,
        1 << 53
    );
    let forged: [(&str, &[f64]); 11] = [
        ("negative reference", &[2.0, -1.0]),
        ("NaN reference", &[2.0, f64::NAN]),
        ("fractional reference", &[2.0, 0.5]),
        ("infinite reference", &[2.0, f64::INFINITY]),
        ("reference above 2^53", &[2.0, 2.0 * top]),
        ("negative snapshot id", &[-3.0, 0.0]),
        ("NaN snapshot id", &[f64::NAN, 0.0]),
        ("fractional snapshot id", &[1.5, 0.0]),
        ("snapshot id 0", &[0.0, 0.0]),
        ("one value", &[2.0]),
        ("three values", &[2.0, 1.0, 0.0]),
    ];
    for (what, values) in forged {
        let err = parse_temporal(values).expect_err(what);
        assert!(matches!(err, H5Error::Format(_)), "{what}: {err:?}");
    }
}

/// Read back a baseline-layout container built by hand: one level, one
/// field, two ranks owning one 8³ box each side by side; `level_0/data` in
/// 64-element standard chunks and `meta/level_0/rank_elems` as given.
fn read_baseline(data: &[f64], rank_elems: &[f64]) -> H5Result<amric::reader::Plotfile> {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "amric-corruption-{}-base{id}.h5l",
        std::process::id()
    ));
    let w = H5Writer::create(&path)?;
    // [nlevels, nfields, nranks, bf, remove_redundancy | nx, ny, nz, nboxes, ratio]
    let header = [1.0, 1.0, 2.0, 8.0, 0.0, 16.0, 8.0, 8.0, 2.0, 0.0];
    let names = [1.0, f64::from(b'a')];
    #[rustfmt::skip]
    let boxes = [
        0.0, 0.0, 0.0,  7.0, 7.0, 7.0, 0.0,
        8.0, 0.0, 0.0, 15.0, 7.0, 7.0, 1.0,
    ];
    for (name, values, chunk) in [
        ("meta/header", &header[..], header.len()),
        ("meta/field_names", &names[..], names.len()),
        ("meta/level_0/boxes", &boxes[..], boxes.len()),
        ("meta/level_0/rank_elems", rank_elems, rank_elems.len()),
        ("level_0/data", data, 64),
    ] {
        w.write_dataset(name, values, chunk, &NoFilter)?;
    }
    w.finish()?;
    let result = read_baseline_hierarchy(&path);
    std::fs::remove_file(&path).ok();
    result
}

#[test]
fn forged_rank_elems_is_a_typed_error() {
    let data: Vec<f64> = (0..1024).map(|i| i as f64 + 0.25).collect();
    let pf = read_baseline(&data, &[512.0, 512.0]).expect("pristine container loads");
    assert_eq!(pf.levels[0].fab(0).data(), &data[..512]);
    assert_eq!(pf.levels[0].fab(1).data(), &data[512..]);

    let forged: [(&str, &[f64], &[f64]); 7] = [
        ("understated", &data, &[10.0, 512.0]),
        ("overstated", &data, &[600.0, 424.0]),
        ("overstated past the data", &data, &[512.0, 600.0]),
        ("1.8e19 on the first rank", &data, &[1.8e19, 512.0]),
        // `offset + elems` and the padded stride both leave `usize`.
        ("1.8e19 behind a valid rank", &data, &[512.0, 1.8e19]),
        (
            "data shorter than rank_elems claims",
            &data[..700],
            &[512.0, 512.0],
        ),
        ("not a count", &data, &[f64::NAN, -512.0]),
    ];
    for (what, data, rank_elems) in forged {
        let err = read_baseline(data, rank_elems).err();
        assert!(matches!(err, Some(H5Error::Format(_))), "{what}: {err:?}");
    }
}

/// Two levels over an `nx × ny × nz` coarse domain in 8-cell grids: one
/// blocking-factor-8-aligned 16³ fine grid over the coarse corner.
fn two_level_hierarchy((nx, ny, nz): (i64, i64, i64), nranks: usize) -> AmrHierarchy {
    let domain = IntBox::from_extents(nx, ny, nz);
    let mut h = AmrHierarchy::new(domain, 8, nranks, vec!["rho".into()]);
    let fine = BoxArray::new(vec![IntBox::from_extents(16, 16, 16)]);
    h.push_level(fine, 2, nranks);
    h.fill_field_physical(0, |x, y, z| (6.0 * x).sin() + y * z);
    h
}

#[test]
fn unaligned_hierarchy_is_refused_before_anything_is_committed() {
    // Coarse unit edge is 4 (bf 8, two levels): 18 = 4·4 + 2 leaves
    // 2-wide unit slivers the cube-cutting chunk filter cannot represent:
    // written anyway, the first shape yields a file `read_amric_hierarchy`
    // rejects, the second a late, misleading filter error.
    for (dims, nranks) in [((24, 18, 16), 1), ((18, 16, 16), 2)] {
        let h = two_level_hierarchy(dims, nranks);
        let (w, mem) = H5Writer::in_memory();
        let err = write_amric_to(Arc::new(w), &h, &AmricConfig::lr(1e-3), 8).unwrap_err();
        let H5Error::Format(msg) = &err else {
            panic!("{dims:?}: expected a Format error, got {err:?}");
        };
        let (nx, ny, nz) = dims;
        for needle in ["level 0", &format!("{nx}x{ny}x{nz}"), "4³"] {
            assert!(msg.contains(needle), "{dims:?}: {msg:?} lacks {needle:?}");
        }
        let untouched = H5Writer::in_memory().1.to_bytes();
        assert_eq!(mem.to_bytes(), untouched, "{dims:?}: bytes were committed");
    }
}

#[test]
fn aligned_non_cubic_domain_still_roundtrips() {
    // 20 = 5·4 and 12 = 3·4: every coarse unit is a 4³ cube even though
    // the domain is no multiple of the grid size.
    let h = two_level_hierarchy((20, 16, 12), 2);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "amric-corruption-{}-aligned.h5l",
        std::process::id()
    ));
    write_amric(&path, &h, &AmricConfig::lr(1e-3), 8).unwrap();
    let pf = read_amric_hierarchy(&path).unwrap();
    std::fs::remove_file(&path).ok();
    for check in verify_against(&pf, &h, 1e-3) {
        assert!(check.bound_ok, "field {} violates its bound", check.field);
    }
}

#[test]
fn streams_that_contradict_the_plan_are_a_format_error() {
    // Every stream of the file is valid; the header is edited so that the
    // unit plan reconstructed from it no longer describes them. The restart
    // reconstructs in place, so the plan check stands in front of every
    // write: the file is refused, with the loader's own message.
    let h = two_level_hierarchy((16, 16, 16), 2);
    let mut path = std::env::temp_dir();
    path.push(format!("amric-corruption-{}-plan.h5l", std::process::id()));
    for cfg in [AmricConfig::lr(1e-3), AmricConfig::interp(1e-3)] {
        write_amric(&path, &h, &cfg, 8).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        assert!(
            read_amric_hierarchy(&path).is_ok(),
            "pristine file restarts"
        );
        // `meta/header` is stored raw: [nlevels, nfields, nranks, bf,
        // remove_redundancy, …] as little-endian doubles.
        let header_at = {
            let r = H5Reader::open(&path).unwrap();
            r.meta("meta/header").unwrap().chunks[0].offset as usize
        };
        let forged: [(&str, usize, f64); 2] = [
            // More units planned than stored: the count is short.
            ("redundancy removal switched off", 4, 0.0),
            // 8³ units planned where 4³ ones are stored: the first is refused.
            ("blocking factor doubled", 3, 16.0),
        ];
        for (what, slot, value) in forged {
            let mut bytes = pristine.clone();
            let at = header_at + 8 * slot;
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match read_amric_hierarchy(&path) {
                Err(H5Error::Format(msg)) => assert!(
                    msg.starts_with("level 0 field 0 rank 0: decoded units do not match the")
                        && msg.ends_with("-unit plan"),
                    "{what}: {msg:?}"
                ),
                Err(other) => panic!("{what}: expected a Format error, got {other:?}"),
                Ok(_) => panic!("{what}: a self-contradicting file restarted"),
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
