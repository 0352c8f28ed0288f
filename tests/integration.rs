//! Cross-crate integration tests: the full in-situ pipeline from synthetic
//! application through preprocessing, compression, the h5lite container,
//! thread-rank collective writes, and back.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::read_amric_hierarchy;
use amric::prelude::*;
use amric::reader::read_baseline_hierarchy;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("amric-it-{}-{name}.h5l", std::process::id()));
    p
}

fn nyx(seed: u64, nranks: usize) -> (AmrHierarchy, AmrRunConfig) {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 32),
        max_grid_size: 16,
        blocking_factor: 8,
        nranks,
        num_levels: 2,
        fine_fraction: 0.04,
        grid_eff: 0.7,
    };
    (build_hierarchy(&NyxScenario::new(seed), &cfg, 0.0), cfg)
}

fn warpx(seed: u64, nranks: usize) -> (AmrHierarchy, AmrRunConfig) {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 64),
        max_grid_size: 16,
        blocking_factor: 8,
        nranks,
        num_levels: 2,
        fine_fraction: 0.03,
        grid_eff: 0.7,
    };
    (build_hierarchy(&WarpXScenario::new(seed), &cfg, 0.0), cfg)
}

#[test]
fn full_pipeline_nyx_lr() {
    let (h, mesh) = nyx(1, 3);
    let path = tmp("nyx-lr");
    let report = write_amric(&path, &h, &AmricConfig::lr(1e-3), mesh.blocking_factor).unwrap();
    assert!(report.compression_ratio() > 2.0);
    let pf = read_amric_hierarchy(&path).unwrap();
    assert_eq!(pf.field_names, NYX_FIELDS.to_vec());
    for c in verify_against(&pf, &h, 1e-3) {
        assert!(c.bound_ok, "field {} out of bound", c.field);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn full_pipeline_warpx_interp() {
    let (h, mesh) = warpx(2, 4);
    let path = tmp("warpx-interp");
    let report = write_amric(&path, &h, &AmricConfig::interp(1e-3), mesh.blocking_factor).unwrap();
    // Smooth WarpX data must compress at least an order of magnitude.
    assert!(
        report.compression_ratio() > 10.0,
        "CR {}",
        report.compression_ratio()
    );
    let pf = read_amric_hierarchy(&path).unwrap();
    for c in verify_against(&pf, &h, 1e-3) {
        assert!(c.bound_ok, "field {} out of bound", c.field);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn warpx_compresses_much_better_than_nyx() {
    // The Table-2 contrast between the two applications.
    let (hn, mn) = nyx(3, 2);
    let (hw, mw) = warpx(3, 2);
    let pn = tmp("contrast-nyx");
    let pw = tmp("contrast-warpx");
    let rn = write_amric(&pn, &hn, &AmricConfig::lr(1e-3), mn.blocking_factor).unwrap();
    let rw = write_amric(&pw, &hw, &AmricConfig::lr(1e-3), mw.blocking_factor).unwrap();
    assert!(
        rw.compression_ratio() > 2.0 * rn.compression_ratio(),
        "WarpX {} vs Nyx {}",
        rw.compression_ratio(),
        rn.compression_ratio()
    );
    std::fs::remove_file(&pn).ok();
    std::fs::remove_file(&pw).ok();
}

#[test]
fn amric_beats_baseline_on_both_metrics() {
    // The paper's headline: better ratio AND better quality, with AMRIC at
    // a 10× tighter bound.
    let (h, mesh) = nyx(4, 2);
    let pb = tmp("headline-base");
    let pa = tmp("headline-amric");
    let rb = write_amrex_baseline(&pb, &h, &BaselineConfig::new(1e-2)).unwrap();
    let ra = write_amric(&pa, &h, &AmricConfig::lr(1e-3), mesh.blocking_factor).unwrap();
    assert!(ra.compression_ratio() > rb.compression_ratio());
    let pfb = read_baseline_hierarchy(&pb).unwrap();
    let pfa = read_amric_hierarchy(&pa).unwrap();
    let psnr = |checks: Vec<amric::reader::FieldVerification>| {
        checks.iter().map(|c| c.stats.psnr()).sum::<f64>() / checks.len() as f64
    };
    let qb = psnr(verify_against(&pfb, &h, 1e-2));
    let qa = psnr(verify_against(&pfa, &h, 1e-3));
    assert!(qa > qb, "AMRIC {qa} dB vs baseline {qb} dB");
    std::fs::remove_file(&pb).ok();
    std::fs::remove_file(&pa).ok();
}

#[test]
fn baseline_filter_call_explosion() {
    // §4.4: the baseline's calls scale with elements/1024; AMRIC's with
    // ranks × levels × fields.
    let (h, mesh) = nyx(5, 2);
    let pb = tmp("calls-base");
    let pa = tmp("calls-amric");
    let rb = write_amrex_baseline(&pb, &h, &BaselineConfig::new(1e-2)).unwrap();
    let ra = write_amric(&pa, &h, &AmricConfig::lr(1e-3), mesh.blocking_factor).unwrap();
    let cb: u64 = rb.ledgers.iter().map(|l| l.filter_calls).sum();
    let ca: u64 = ra.ledgers.iter().map(|l| l.filter_calls).sum();
    assert!(cb > 5 * ca, "baseline {cb} calls vs AMRIC {ca}");
    std::fs::remove_file(&pb).ok();
    std::fs::remove_file(&pa).ok();
}

#[test]
fn redundancy_removal_shrinks_stream() {
    let (h, mesh) = nyx(6, 2);
    let p1 = tmp("red-on");
    let p2 = tmp("red-off");
    let cfg = AmricConfig::lr(1e-3);
    let r_on = write_amric(&p1, &h, &cfg, mesh.blocking_factor).unwrap();
    let cfg_off = cfg.with_remove_redundancy(false);
    let r_off = write_amric(&p2, &h, &cfg_off, mesh.blocking_factor).unwrap();
    assert!(
        r_on.stored_bytes < r_off.stored_bytes,
        "with removal {} vs without {}",
        r_on.stored_bytes,
        r_off.stored_bytes
    );
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
}

#[test]
fn multi_timestep_series_roundtrips() {
    let scenario = WarpXScenario::new(8);
    let mesh = AmrRunConfig {
        coarse_dims: (16, 16, 64),
        max_grid_size: 16,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.03,
        grid_eff: 0.7,
    };
    for (step, _t, h) in TimeSeries::new(&scenario, mesh, 0.4, 3) {
        let path = tmp(&format!("series-{step}"));
        write_amric(&path, &h, &AmricConfig::lr(1e-3), mesh.blocking_factor).unwrap();
        let pf = read_amric_hierarchy(&path).unwrap();
        for c in verify_against(&pf, &h, 1e-3) {
            assert!(c.bound_ok, "step {step} field {} out of bound", c.field);
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn nocomp_exact_and_sized() {
    let (h, _) = nyx(9, 2);
    let path = tmp("nocomp");
    let report = write_nocomp(&path, &h).unwrap();
    assert_eq!(report.stored_bytes, h.snapshot_bytes());
    let pf = read_baseline_hierarchy(&path).unwrap();
    for c in verify_against(&pf, &h, 1e-12) {
        assert_eq!(c.stats.max_abs_err, 0.0);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn single_level_hierarchy_writes() {
    // No refinement (empty tags) must degrade gracefully.
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 1,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    let h = build_hierarchy(&NyxScenario::new(10), &cfg, 0.0);
    assert_eq!(h.num_levels(), 1);
    let path = tmp("single-level");
    let report = write_amric(&path, &h, &AmricConfig::lr(1e-3), 8).unwrap();
    assert!(report.compression_ratio() > 1.0);
    let pf = read_amric_hierarchy(&path).unwrap();
    for c in verify_against(&pf, &h, 1e-3) {
        assert!(c.bound_ok);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn many_ranks_uneven_load() {
    // More ranks than fine boxes: some ranks hold no fine data; the
    // size-aware chunking must handle empty contributions.
    let (h, mesh) = nyx(12, 6);
    let path = tmp("uneven");
    write_amric(&path, &h, &AmricConfig::lr(1e-3), mesh.blocking_factor).unwrap();
    let pf = read_amric_hierarchy(&path).unwrap();
    for c in verify_against(&pf, &h, 1e-3) {
        assert!(c.bound_ok);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn three_level_amric_roundtrip() {
    // The writer/reader must generalize beyond the paper's 2-level runs:
    // unit edges halve per coarser level (16 → 8 → 4 at bf 16).
    let cfg = AmrRunConfig {
        coarse_dims: (32, 32, 32),
        max_grid_size: 16,
        blocking_factor: 16,
        nranks: 2,
        num_levels: 3,
        fine_fraction: 0.08,
        grid_eff: 0.7,
    };
    let h = build_hierarchy(&NyxScenario::new(55), &cfg, 0.0);
    if h.num_levels() < 3 {
        // Clustering may stop early on very concentrated tags; the 2-level
        // case is covered elsewhere.
        return;
    }
    assert_eq!(unit_edge_for_level(16, 2, 3), 16);
    assert_eq!(unit_edge_for_level(16, 1, 3), 8);
    assert_eq!(unit_edge_for_level(16, 0, 3), 4);
    let path = tmp("three-level");
    let report = write_amric(&path, &h, &AmricConfig::lr(1e-3), 16).unwrap();
    assert!(report.compression_ratio() > 1.0);
    let pf = read_amric_hierarchy(&path).unwrap();
    assert_eq!(pf.levels.len(), 3);
    for c in verify_against(&pf, &h, 1e-3) {
        assert!(c.bound_ok, "field {} out of bound", c.field);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn inspect_tool_compatible_file_layout() {
    // The plotfile must stay readable as a plain h5lite container (the
    // amric_inspect CLI path): dataset names, metadata and stored sizes.
    let (h, mesh) = nyx(60, 2);
    let path = tmp("inspectable");
    write_amric(&path, &h, &AmricConfig::lr(1e-3), mesh.blocking_factor).unwrap();
    let r = h5lite::H5Reader::open(&path).unwrap();
    let names = r.dataset_names();
    assert!(names.contains(&"meta/header"));
    assert!(names.contains(&"level_0/field_0"));
    assert!(names.contains(&"level_1/field_5"));
    for name in names {
        let m = r.meta(name).unwrap();
        assert!(m.stored_bytes() > 0 || m.total_elems == 0);
    }
    std::fs::remove_file(&path).ok();
}
