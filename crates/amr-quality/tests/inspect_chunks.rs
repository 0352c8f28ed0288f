//! `amric_inspect --chunks` names each AMRIC chunk's stream mode, and for
//! the placed SZ_Interp mode the clusters it compressed in place.

use amr_apps::prelude::*;
use amric::config::AmricConfig;
use amric::writer::write_amric;
use std::process::Command;

fn inspect_chunks(cfg: &AmricConfig, name: &str) -> String {
    let run = AmrRunConfig {
        coarse_dims: (16, 16, 256),
        max_grid_size: 16,
        blocking_factor: 8,
        nranks: 1,
        num_levels: 2,
        fine_fraction: 0.02,
        grid_eff: 0.7,
    };
    let h = build_hierarchy(&WarpXScenario::new(1), &run, 0.0);
    let mut path = std::env::temp_dir();
    path.push(format!("amric-inspect-{}-{name}.h5l", std::process::id()));
    write_amric(&path, &h, cfg, 8).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_amric_inspect"))
        .arg(&path)
        .arg("--chunks")
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn chunks_name_their_stream_mode() {
    let interp = inspect_chunks(&AmricConfig::interp(1e-3), "interp");
    let level0 = interp
        .lines()
        .skip_while(|l| !l.starts_with("level_0/field_0"))
        .nth(1)
        .expect("a chunk row under level_0/field_0");
    assert!(
        level0.contains("mode interp-placed  clusters 1  cells 65536  holes 3.5%"),
        "{level0}"
    );
    let lr = inspect_chunks(&AmricConfig::lr(1e-3), "lr");
    assert!(lr.contains("mode lr-sle"), "{lr}");
    assert!(!lr.contains("clusters"), "{lr}");
}
