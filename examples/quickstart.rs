//! Quickstart: build a small two-level AMR hierarchy, write it with AMRIC
//! in-situ compression, restart it through the query engine
//! (`amr_query::read_amric_hierarchy`), and verify the error bound.
//!
//! Run with: `cargo run --release --example quickstart`

use amr_apps::prelude::*;
use amr_query::read_amric_hierarchy;
use amric::prelude::*;

fn main() {
    // 1. A "simulation": the synthetic Nyx scenario on a 32³ coarse grid
    //    with one refined level, distributed over 4 thread-ranks.
    let scenario = NyxScenario::new(7);
    let mesh = AmrRunConfig {
        coarse_dims: (32, 32, 32),
        max_grid_size: 16,
        blocking_factor: 8,
        nranks: 4,
        num_levels: 2,
        fine_fraction: 0.02,
        grid_eff: 0.7,
    };
    let hierarchy = build_hierarchy(&scenario, &mesh, 0.0);
    println!(
        "built {} levels, {} cells, {:.1} MB raw",
        hierarchy.num_levels(),
        hierarchy.total_cells(),
        hierarchy.snapshot_bytes() as f64 / (1 << 20) as f64
    );

    // 2. Write one snapshot with the AMRIC pipeline (SZ_L/R variant,
    //    range-relative error bound 1e-3).
    let path = std::env::temp_dir().join("amric-quickstart.h5l");
    let config = AmricConfig::lr(1e-3);
    let report =
        write_amric(&path, &hierarchy, &config, mesh.blocking_factor).expect("in-situ write");
    println!(
        "wrote {} -> {} bytes (CR {:.1}x), {} compressor calls",
        report.orig_bytes,
        report.stored_bytes,
        report.compression_ratio(),
        report.ledgers.iter().map(|l| l.filter_calls).sum::<u64>()
    );

    // 3. Restart it (`QueryEngine::open` + `restart`) and verify the
    //    error-bound contract per field.
    let plotfile = read_amric_hierarchy(&path).expect("read back");
    let checks = verify_against(&plotfile, &hierarchy, config.rel_eb);
    for (check, name) in checks.iter().zip(plotfile.field_names.iter()) {
        println!(
            "field {:<22} PSNR {:>6.2} dB  max|err| {:.3e}  bound {}",
            name,
            check.stats.psnr(),
            check.stats.max_abs_err,
            if check.bound_ok { "OK" } else { "VIOLATED" }
        );
        assert!(check.bound_ok);
    }
    std::fs::remove_file(&path).ok();
    println!("quickstart finished: error bounds verified.");
}
