//! The adaptive-bound acceptance harness: at **equal stored bytes**,
//! `BoundPolicy::GradientAdaptive` must (a) keep every reconstructed
//! value within its loose bound, and (b) beat the fixed-bound PSNR on
//! the tagged-region Nyx scenario — the paper-style "spend bits where
//! the data is rough" payoff, measured end to end through plotfiles.

use amr_apps::prelude::*;
use amr_query::read_amric_hierarchy;
use amric::config::{AmricConfig, BoundPolicy};
use amric::writer::write_amric;
use sz_codec::prelude::absolute_bound;

const TIGHT: f64 = 1e-4;
const LOOSE: f64 = 8e-3;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "amr-quality-adapt-{}-{name}.h5l",
        std::process::id()
    ));
    p
}

/// The tagged-region Nyx hierarchy: gradient tagging concentrates the
/// fine level (and the rough data) in a small fraction of the domain.
fn nyx(seed: u64) -> amr_mesh::AmrHierarchy {
    let s = NyxScenario::new(seed);
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    build_hierarchy(&s, &cfg, 0.0)
}

fn stored_bytes(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// Binary-search a fixed `rel_eb` whose plotfile stores (about) the same
/// bytes as `target` — compressed size shrinks monotonically as the
/// bound loosens.
fn write_fixed_at_bytes(
    path: &std::path::Path,
    h: &amr_mesh::AmrHierarchy,
    target: u64,
) -> (f64, u64) {
    let (mut lo, mut hi) = (TIGHT, LOOSE);
    let mut best = (lo, u64::MAX);
    for _ in 0..12 {
        let eb = (lo * hi).sqrt();
        write_amric(path, h, &AmricConfig::lr(eb), 8).unwrap();
        let bytes = stored_bytes(path);
        if bytes.abs_diff(target) < best.1.abs_diff(target) {
            best = (eb, bytes);
        }
        if bytes > target {
            lo = eb; // too many bytes: loosen
        } else {
            hi = eb;
        }
    }
    // Re-write the best candidate so the file on disk matches it.
    write_amric(path, h, &AmricConfig::lr(best.0), 8).unwrap();
    best
}

#[test]
fn adaptive_beats_fixed_psnr_at_equal_bytes_and_respects_loose_bound() {
    let h = nyx(181);
    let reference = tmp("ref");
    let adaptive = tmp("adaptive");
    let fixed = tmp("fixed");
    write_amric(&reference, &h, &AmricConfig::lr(1e-12), 8).unwrap();
    let adaptive_cfg = AmricConfig::lr(1e-3).with_bound_policy(BoundPolicy::GradientAdaptive {
        tight: TIGHT,
        loose: LOOSE,
    });
    write_amric(&adaptive, &h, &adaptive_cfg, 8).unwrap();
    let target = stored_bytes(&adaptive);
    let (fixed_eb, fixed_bytes) = write_fixed_at_bytes(&fixed, &h, target);

    // Equal stored bytes, within tolerance — otherwise the PSNR
    // comparison is meaningless.
    let skew = fixed_bytes.abs_diff(target) as f64 / target as f64;
    assert!(
        skew < 0.03,
        "could not match stored bytes: adaptive {target}, fixed {fixed_bytes} (eb {fixed_eb:.2e})"
    );

    // (a) Bound compliance everywhere: every reconstructed cell of the
    // adaptive file is within the *loose* absolute bound of the
    // reference decode (whose own error, at rel 1e-12, is negligible).
    // Comparing decode-vs-decode keeps the redundancy-removed zero
    // pattern identical on both sides.
    let pf_ref = read_amric_hierarchy(&reference).unwrap();
    let pf_ad = read_amric_hierarchy(&adaptive).unwrap();
    for (level, (mf_ref, mf_ad)) in pf_ref.levels.iter().zip(&pf_ad.levels).enumerate() {
        for field in 0..h.field_names().len() {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for (i, fab) in mf_ref.iter() {
                for p in mf_ref.box_array().get(i).iter_points() {
                    let v = fab.get(&p, field);
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            let loose_abs = absolute_bound(LOOSE, hi - lo);
            let tol = loose_abs * (1.0 + 1e-9) + 1e-12;
            for (i, fab) in mf_ref.iter() {
                for p in mf_ref.box_array().get(i).iter_points() {
                    let err = (fab.get(&p, field) - mf_ad.fab(i).get(&p, field)).abs();
                    assert!(
                        err <= tol,
                        "level {level} field {field} cell {p:?}: err {err:.3e} > loose {loose_abs:.3e}"
                    );
                }
            }
        }
    }

    // (b) At equal bytes, adaptive wins on the **tagged region** — the
    // cells the writer actually classified rough and bounded tight,
    // recovered from the stored streams via `stream_unit_bounds`. (Over
    // the whole domain a uniform bound is MSE-optimal at a given byte
    // budget; the adaptive payoff is concentrating fidelity where the
    // visualization looks.)
    let pf_fx = read_amric_hierarchy(&fixed).unwrap();
    let file = h5lite::H5Reader::open(&adaptive).unwrap();
    let nfields = h.field_names().len();
    let mut sse_ad = 0.0f64; // range-normalized squared errors
    let mut sse_fx = 0.0f64;
    let mut tagged_cells = 0u64;
    for level in 0..pf_ad.levels.len() {
        for field in 0..nfields {
            let (lo, hi) = level_field_range(&pf_ref.levels[level], field);
            let range = (hi - lo).max(f64::MIN_POSITIVE);
            let name = format!("level_{level}/field_{field}");
            let nchunks = file.meta(&name).unwrap().chunks.len();
            for rank in 0..nchunks {
                let raw = file.read_chunk_raw(&name, rank).unwrap();
                let Some(bounds) = amric::stream_unit_bounds(&raw).unwrap() else {
                    continue; // empty / non-adaptive chunk
                };
                let plan = &pf_ad.unit_plans[level][rank];
                assert_eq!(bounds.len(), plan.len(), "{name} rank {rank}");
                let chunk_max = bounds.iter().cloned().fold(0.0f64, f64::max);
                for (u, b) in plan.iter().zip(&bounds) {
                    if *b >= chunk_max {
                        continue; // loose (or single-group) unit
                    }
                    for p in u.region.iter_points() {
                        let r = pf_ref.levels[level].value_at(&p, field).unwrap_or(0.0);
                        let ea =
                            (r - pf_ad.levels[level].value_at(&p, field).unwrap_or(0.0)) / range;
                        let ef =
                            (r - pf_fx.levels[level].value_at(&p, field).unwrap_or(0.0)) / range;
                        sse_ad += ea * ea;
                        sse_fx += ef * ef;
                        tagged_cells += 1;
                    }
                }
            }
        }
    }
    assert!(
        tagged_cells > 1000,
        "classifier found too few tight-bounded cells ({tagged_cells})"
    );
    let gap_db = 10.0 * (sse_fx / sse_ad).log10();
    assert!(
        sse_ad < sse_fx,
        "adaptive must beat fixed (eb {fixed_eb:.2e}) on the {tagged_cells} tight-bounded \
         cells at {target} stored bytes: gap {gap_db:.2} dB"
    );

    for p in [&reference, &adaptive, &fixed] {
        std::fs::remove_file(p).ok();
    }
}

/// Reference value range of one field over one decoded level (all fab
/// cells, the same population the writer's range allgather sees).
fn level_field_range(mf: &amr_mesh::MultiFab, field: usize) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (i, fab) in mf.iter() {
        for p in mf.box_array().get(i).iter_points() {
            let v = fab.get(&p, field);
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    (lo, hi)
}

/// Every compressed stream of a plotfile, keyed by dataset name and
/// chunk (= rank) index. Container *placement* of chunks is
/// scheduling-dependent (rank threads allocate space in completion
/// order), so per-chunk stream identity is the strongest determinism the
/// writer guarantees.
fn stream_map(path: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    let r = h5lite::H5Reader::open(path).unwrap();
    let mut m = std::collections::BTreeMap::new();
    for name in r.dataset_names() {
        for i in 0..r.meta(name).unwrap().chunks.len() {
            m.insert(format!("{name}#{i}"), r.read_chunk_raw(name, i).unwrap());
        }
    }
    m
}

#[test]
fn explicit_fixed_policy_streams_are_byte_identical_to_default() {
    // `BoundPolicy::Fixed` is the default; opting into it explicitly must
    // not perturb a single byte of any compressed stream. (The
    // pipeline-level golden corpus in `amric` pins the same contract
    // against the pre-policy stream format.)
    let h = nyx(182);
    let a = tmp("default");
    let b = tmp("explicit-fixed");
    write_amric(&a, &h, &AmricConfig::lr(1e-3), 8).unwrap();
    write_amric(
        &b,
        &h,
        &AmricConfig::lr(1e-3).with_bound_policy(BoundPolicy::Fixed),
        8,
    )
    .unwrap();
    let (ma, mb) = (stream_map(&a), stream_map(&b));
    assert_eq!(ma.keys().collect::<Vec<_>>(), mb.keys().collect::<Vec<_>>());
    for (k, va) in &ma {
        assert_eq!(Some(va), mb.get(k), "stream {k} differs");
    }
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}
