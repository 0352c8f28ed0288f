//! Post-hoc analysis on a compressed plotfile: restart an AMRIC file
//! through the query engine (`amr_query::read_amric_hierarchy`), flatten the AMR hierarchy to uniform resolution (the paper's Fig. 3
//! workflow), and compute simple statistics — without ever materializing
//! the uncompressed plotfile on disk.
//!
//! Run with: `cargo run --release --example readback_analysis`

use amr_apps::prelude::*;
use amr_query::read_amric_hierarchy;
use amric::prelude::*;

fn main() {
    // Produce a compressed snapshot.
    let scenario = NyxScenario::new(99);
    let mesh = AmrRunConfig {
        coarse_dims: (32, 32, 32),
        max_grid_size: 16,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.02,
        grid_eff: 0.7,
    };
    let h = build_hierarchy(&scenario, &mesh, 0.0);
    let path = std::env::temp_dir().join("amric-readback.h5l");
    write_amric(&path, &h, &AmricConfig::lr(1e-3), mesh.blocking_factor).expect("write");

    // Restart: the query engine decodes every stored chunk into per-level
    // MultiFabs.
    let pf = read_amric_hierarchy(&path).expect("read");
    println!("fields: {:?}", pf.field_names);

    // The redundant coarse cells were never stored; analysis uses the
    // fine data wherever it exists, like AMReX post-processing tools.
    let density = 0;
    let fine = &pf.levels[1];
    let (mut lo, mut hi, mut sum, mut n) = (f64::INFINITY, f64::NEG_INFINITY, 0.0, 0u64);
    for (_, fab) in fine.iter() {
        for &v in fab.comp(density) {
            lo = lo.min(v);
            hi = hi.max(v);
            sum += v;
            n += 1;
        }
    }
    println!(
        "fine-level {}: min {:.3e}  max {:.3e}  mean {:.3e}  over {} cells",
        pf.field_names[density],
        lo,
        hi,
        sum / n as f64,
        n
    );

    // Compare a fine-level slice statistic against the original truth.
    let checks = verify_against(&pf, &h, 1e-3);
    println!(
        "verification: mean PSNR {:.2} dB across {} fields, bounds {}",
        checks.iter().map(|c| c.stats.psnr()).sum::<f64>() / checks.len() as f64,
        checks.len(),
        if checks.iter().all(|c| c.bound_ok) {
            "all OK"
        } else {
            "VIOLATED"
        }
    );
    std::fs::remove_file(&path).ok();
}
