//! Figure 5: rate-distortion (PSNR vs CR) of the linear vs cluster unit
//! block arrangements under SZ_Interp, on the fine (sparse) and coarse
//! (dense) levels of the §3 Nyx study.

use amr_apps::level_stats;
use amric::pipeline::{compress_field_units, decompress_field_units};
use amric_bench::{
    amric_interp, f1, f2, level_units, print_table, rate_point, rd_bounds, section3_nyx,
};

fn main() {
    let h = section3_nyx(64);
    let stats = level_stats(&h);
    let cov =
        amr_mesh::overlap::coverage(h.level(0).data.box_array(), h.level(1).data.box_array(), 2);
    let cov_summary = amr_mesh::overlap::summarize(&cov, h.level(0).data.box_array());
    println!(
        "section-3 Nyx study: fine density {:.1}% (paper: 17.4%), coarse valid {:.1}% (paper: 82.3%)",
        stats[1].density * 100.0,
        cov_summary.kept_fraction() * 100.0
    );
    for (label, level, unit) in [("Fine level", 1usize, 16i64), ("Coarse level", 0, 8)] {
        let units = level_units(&h, level, unit, 0);
        let mut rows = Vec::new();
        for rel_eb in rd_bounds() {
            let point = |cluster: bool| {
                let cfg = amric_interp(rel_eb).with_cluster_arrangement(cluster);
                rate_point(
                    &units,
                    |u| compress_field_units(u, &cfg, unit as usize),
                    |b| decompress_field_units(b).expect("decode"),
                )
            };
            let (cr_lin, psnr_lin) = point(false);
            let (cr_clu, psnr_clu) = point(true);
            rows.push(vec![
                format!("{rel_eb:.0e}"),
                f1(cr_lin),
                f2(psnr_lin),
                f1(cr_clu),
                f2(psnr_clu),
            ]);
        }
        print_table(
            &format!("Figure 5 ({label}, unit={unit}): linear vs cluster arrangement, SZ_Interp"),
            &[
                "rel_eb",
                "CR(linear)",
                "PSNR(linear)",
                "CR(cluster)",
                "PSNR(cluster)",
            ],
            &rows,
        );
    }
    println!(
        "\nPaper Fig. 5 reports cluster ≥ linear at matched PSNR. Our from-scratch\nSZ_Interp reproduces the *coarse-level* near-tie but shows linear ahead on\nthe fine level: a linear (16,16,N) column keeps two of three interpolation\naxes entirely inside unit blocks, while the cube packing crosses block\nboundaries in all three. DESIGN.md (\"Cluster against linear arrangement\")\nrecords the analysis: fixed predictor and axis-order variants of SZ_Interp\nall lose CR, so SZ3-style direction tuning would not close the gap here."
    );
}
