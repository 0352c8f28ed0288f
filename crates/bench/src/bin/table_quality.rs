//! Quality evaluation: fixed vs gradient-adaptive error bounds at
//! **equal stored bytes**, scored with the `amr-quality` metrics.
//!
//! For each scenario (Nyx clumpy cosmology, WarpX smooth laser pulse):
//!
//! 1. write a near-lossless reference plotfile (rel 1e-12);
//! 2. write the adaptive plotfile (`GradientAdaptive { tight, loose }`);
//! 3. binary-search a fixed `rel_eb` whose plotfile stores the same
//!    bytes (±5%), so the comparison is rate-matched;
//! 4. score both against the reference: whole-domain PSNR/SSIM per field
//!    (worst level, mid-plane slices — `QualityReport`), plus PSNR over
//!    the **tagged region** (the cells the adaptive writer bounded
//!    tight, recovered from the streams via
//!    `QualityReport::tight_unit_regions`).
//!
//! The acceptance inequality — adaptive ≥ fixed PSNR on the tagged Nyx
//! region at equal bytes — is asserted here, so smoke runs fail loudly.
//! Whole-domain PSNR is *expected* to favor fixed (a uniform bound is
//! MSE-optimal for a uniform metric); both numbers are reported.
//!
//! Emits `BENCH_quality.json` (`AMRIC_BENCH_OUT` overrides the path).
//! `--smoke` (or `AMRIC_QUALITY_SMOKE=1`) shrinks the domains for CI and
//! writes only the file `AMRIC_BENCH_OUT` names.

use amr_apps::prelude::*;
use amr_quality::{Psnr, QualityReport};
use amr_query::QueryEngine;
use amric::config::BoundPolicy;
use amric::prelude::*;
use amric_bench::{print_table, scratch};

const TIGHT: f64 = 1e-4;
const LOOSE: f64 = 8e-3;
const REFERENCE_EB: f64 = 1e-12;

struct FieldRow {
    scenario: &'static str,
    field: String,
    psnr_adaptive: Psnr,
    psnr_fixed: Psnr,
    ssim_adaptive: f64,
    ssim_fixed: f64,
    tagged_psnr_adaptive: Option<Psnr>,
    tagged_psnr_fixed: Option<Psnr>,
}

struct ScenarioResult {
    scenario: &'static str,
    stored_bytes: u64,
    fixed_bytes: u64,
    fixed_eb: f64,
    tagged_cells: u64,
    /// 10·log10(SSE_fixed / SSE_adaptive) over the tagged region,
    /// range-normalized per (level, field). Positive = adaptive wins.
    tagged_gap_db: f64,
    rows: Vec<FieldRow>,
}

fn stored(path: &std::path::Path, h: &amr_mesh::AmrHierarchy, cfg: &AmricConfig, bf: i64) -> u64 {
    write_amric(path, h, cfg, bf)
        .expect("write plotfile")
        .stored_bytes
}

/// Binary-search a fixed `rel_eb` storing (about) `target` bytes.
fn match_bytes(
    path: &std::path::Path,
    h: &amr_mesh::AmrHierarchy,
    bf: i64,
    target: u64,
    iters: usize,
) -> (f64, u64) {
    let (mut lo, mut hi) = (TIGHT, LOOSE);
    let mut best = (lo, u64::MAX);
    for _ in 0..iters {
        let eb = (lo * hi).sqrt();
        let bytes = stored(path, h, &AmricConfig::lr(eb), bf);
        if bytes.abs_diff(target) < best.1.abs_diff(target) {
            best = (eb, bytes);
        }
        if bytes > target {
            lo = eb;
        } else {
            hi = eb;
        }
    }
    stored(path, h, &AmricConfig::lr(best.0), bf);
    best
}

fn run_scenario(
    scenario: &'static str,
    s: &dyn Scenario,
    cfg: AmrRunConfig,
    bf: i64,
    iters: usize,
) -> ScenarioResult {
    let h = build_hierarchy(s, &cfg, 0.0);
    let reference = scratch(&format!("quality-{scenario}-ref"));
    let adaptive = scratch(&format!("quality-{scenario}-adaptive"));
    let fixed = scratch(&format!("quality-{scenario}-fixed"));
    stored(&reference, &h, &AmricConfig::lr(REFERENCE_EB), bf);
    let adaptive_cfg = AmricConfig::lr(1e-3).with_bound_policy(BoundPolicy::GradientAdaptive {
        tight: TIGHT,
        loose: LOOSE,
    });
    let stored_bytes = stored(&adaptive, &h, &adaptive_cfg, bf);
    let (fixed_eb, fixed_bytes) = match_bytes(&fixed, &h, bf, stored_bytes, iters);
    let skew = fixed_bytes.abs_diff(stored_bytes) as f64 / stored_bytes as f64;
    assert!(
        skew < 0.05,
        "{scenario}: rate matching failed (adaptive {stored_bytes} B, fixed {fixed_bytes} B)"
    );

    let re = QueryEngine::open(&reference).expect("open reference");
    let ea = QueryEngine::open(&adaptive).expect("open adaptive");
    let ef = QueryEngine::open(&fixed).expect("open fixed");
    let ra = QualityReport::compare(&re, &ea).expect("compare adaptive");
    let rf = QualityReport::compare(&re, &ef).expect("compare fixed");

    // Tagged-region score: gather the tight-bounded cells through the
    // query engines, per field (concatenated across levels).
    let tight = QualityReport::tight_unit_regions(&adaptive).expect("tight regions");
    let nfields = h.field_names().len();
    let mut tagged_cells = 0u64;
    let (mut sse_ad, mut sse_fx) = (0.0f64, 0.0f64);
    let mut per_field: Vec<Option<(Psnr, Psnr)>> = Vec::with_capacity(nfields);
    for field in 0..nfields {
        let (mut vref, mut vad, mut vfx) = (Vec::new(), Vec::new(), Vec::new());
        for (level, fields) in tight.iter().enumerate() {
            if fields[field].is_empty() {
                continue;
            }
            let domain = re.meta().levels[level].domain;
            let full = re.level_region(field, level, domain).expect("ref range");
            let (lo, hi) = full.data.min_max();
            let range = (hi - lo).max(f64::MIN_POSITIVE);
            for region in &fields[field] {
                let r = re.level_region(field, level, *region).expect("ref region");
                let a = ea.level_region(field, level, *region).expect("ad region");
                let f = ef.level_region(field, level, *region).expect("fx region");
                for ((&x, &y), &z) in r.data.data().iter().zip(a.data.data()).zip(f.data.data()) {
                    let (da, df) = ((x - y) / range, (x - z) / range);
                    sse_ad += da * da;
                    sse_fx += df * df;
                    tagged_cells += 1;
                }
                vref.extend_from_slice(r.data.data());
                vad.extend_from_slice(a.data.data());
                vfx.extend_from_slice(f.data.data());
            }
        }
        per_field.push(
            (!vref.is_empty()).then(|| (Psnr::compute(&vref, &vad), Psnr::compute(&vref, &vfx))),
        );
    }
    let tagged_gap_db = if sse_ad > 0.0 && sse_fx > 0.0 {
        10.0 * (sse_fx / sse_ad).log10()
    } else {
        0.0
    };

    let rows = (0..nfields)
        .map(|f| FieldRow {
            scenario,
            field: h.field_names()[f].clone(),
            psnr_adaptive: ra.fields[f].min_psnr(),
            psnr_fixed: rf.fields[f].min_psnr(),
            ssim_adaptive: ra.fields[f].min_ssim(),
            ssim_fixed: rf.fields[f].min_ssim(),
            tagged_psnr_adaptive: per_field[f].map(|(a, _)| a),
            tagged_psnr_fixed: per_field[f].map(|(_, x)| x),
        })
        .collect();

    for p in [&reference, &adaptive, &fixed] {
        std::fs::remove_file(p).ok();
    }
    ScenarioResult {
        scenario,
        stored_bytes,
        fixed_bytes,
        fixed_eb,
        tagged_cells,
        tagged_gap_db,
        rows,
    }
}

fn jnum(p: Option<Psnr>) -> String {
    match p {
        Some(p) if p.db().is_finite() => format!("{:.3}", p.db()),
        Some(_) => "1e9".into(), // exact reconstruction; JSON has no inf
        None => "null".into(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("AMRIC_QUALITY_SMOKE").is_ok_and(|v| v == "1");
    let (nyx_edge, iters) = if smoke { (16, 8) } else { (32, 12) };

    let nyx_cfg = AmrRunConfig {
        coarse_dims: (nyx_edge, nyx_edge, nyx_edge),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    let warpx_cfg = AmrRunConfig {
        coarse_dims: (8, 8, if smoke { 32 } else { 64 }),
        max_grid_size: 16,
        blocking_factor: 4,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.03,
        grid_eff: 0.7,
    };
    let results = vec![
        run_scenario("nyx", &NyxScenario::new(11), nyx_cfg, 8, iters),
        run_scenario("warpx", &WarpXScenario::new(4), warpx_cfg, 4, iters),
    ];

    let rows: Vec<Vec<String>> = results
        .iter()
        .flat_map(|r| &r.rows)
        .map(|r| {
            vec![
                r.scenario.to_string(),
                r.field.clone(),
                format!("{}", r.psnr_adaptive),
                format!("{}", r.psnr_fixed),
                format!("{:.4}", r.ssim_adaptive),
                format!("{:.4}", r.ssim_fixed),
                r.tagged_psnr_adaptive
                    .map_or("-".into(), |p| format!("{p}")),
                r.tagged_psnr_fixed.map_or("-".into(), |p| format!("{p}")),
            ]
        })
        .collect();
    print_table(
        &format!("Fixed vs adaptive bounds at equal stored bytes (tight {TIGHT}, loose {LOOSE})"),
        &[
            "scenario",
            "field",
            "psnr ad",
            "psnr fx",
            "ssim ad",
            "ssim fx",
            "tag-psnr ad",
            "tag-psnr fx",
        ],
        &rows,
    );
    for r in &results {
        println!(
            "{}: {} B adaptive vs {} B fixed (eb {:.2e}); tagged region: {} cells, gap {:+.2} dB",
            r.scenario, r.stored_bytes, r.fixed_bytes, r.fixed_eb, r.tagged_cells, r.tagged_gap_db
        );
    }

    // Acceptance: on the tagged Nyx region, adaptive ≥ fixed PSNR at
    // equal stored bytes.
    let nyx = &results[0];
    assert!(nyx.tagged_cells > 0, "nyx: classifier tagged no cells");
    assert!(
        nyx.tagged_gap_db >= 0.0,
        "nyx: adaptive must not lose on the tagged region (gap {:.2} dB)",
        nyx.tagged_gap_db
    );

    let mut json = String::from("{\n  \"bench\": \"quality\",\n");
    json.push_str(&format!(
        "  \"tight\": {TIGHT}, \"loose\": {LOOSE}, \"smoke\": {smoke}, \"cores\": {},\n  \"scenarios\": [\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    for (si, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"stored_bytes\": {}, \"fixed_bytes\": {}, \"fixed_eb\": {:.6e}, \"tagged_cells\": {}, \"tagged_gap_db\": {:.3}, \"fields\": [\n",
            r.scenario, r.stored_bytes, r.fixed_bytes, r.fixed_eb, r.tagged_cells, r.tagged_gap_db
        ));
        for (fi, f) in r.rows.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"field\": \"{}\", \"psnr_adaptive\": {}, \"psnr_fixed\": {}, \"ssim_adaptive\": {:.5}, \"ssim_fixed\": {:.5}, \"tagged_psnr_adaptive\": {}, \"tagged_psnr_fixed\": {}}}{}\n",
                f.field,
                jnum(Some(f.psnr_adaptive)),
                jnum(Some(f.psnr_fixed)),
                f.ssim_adaptive,
                f.ssim_fixed,
                jnum(f.tagged_psnr_adaptive),
                jnum(f.tagged_psnr_fixed),
                if fi + 1 < r.rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "    ]}}{}\n",
            if si + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let committed = (!smoke).then(|| "BENCH_quality.json".into());
    if let Some(out) = std::env::var("AMRIC_BENCH_OUT").ok().or(committed) {
        std::fs::write(&out, json).expect("write quality trajectory");
        println!("wrote {out}");
    }
}
