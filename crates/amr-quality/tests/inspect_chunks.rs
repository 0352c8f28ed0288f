//! `amric_inspect --chunks` names each AMRIC chunk's stream mode, and for
//! the placed SZ_Interp mode the clusters it compressed in place;
//! `amric_inspect --header` prints a file's metadata and temporal linkage
//! without decoding a chunk.

use amr_apps::prelude::*;
use amric::config::AmricConfig;
use amric::temporal::TemporalSession;
use amric::writer::write_amric;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `amric_inspect <path> <flag>`'s standard output; the run must succeed.
fn inspect(path: &Path, flag: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_amric_inspect"))
        .arg(path)
        .arg(flag)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("amric-inspect-{}-{name}.h5l", std::process::id()));
    path
}

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
    let path = tmp(name);
    write_amric(&path, &h, cfg, 8).unwrap();
    let out = inspect(&path, "--chunks");
    std::fs::remove_file(&path).ok();
    out
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

/// The header lines `--header` printed when it restarted the file: one
/// summary, the blocking factor, then per level the domain, the box count
/// and the density — here built from a full restart.
fn restarted_header(path: &Path) -> Vec<String> {
    let pf = amr_query::read_amric_hierarchy(path).unwrap();
    let mut lines = vec![
        format!(
            "AMRIC plotfile: {} levels, fields {:?}",
            pf.levels.len(),
            pf.field_names
        ),
        format!(
            "blocking factor {}, redundancy removed: {}",
            pf.bf, pf.remove_redundancy
        ),
    ];
    for (l, (mf, domain)) in pf.levels.iter().zip(&pf.domains).enumerate() {
        let n = domain.size();
        lines.push(format!(
            "  level {l}: domain {}x{}x{}, {} boxes, density {:.2}%",
            n.get(0),
            n.get(1),
            n.get(2),
            mf.box_array().len(),
            mf.box_array().density_in(domain) * 100.0
        ));
    }
    lines
}

/// The lines of `out` from the header's summary line on.
fn header_block(out: &str) -> Vec<String> {
    out.lines()
        .skip_while(|l| !l.starts_with("AMRIC plotfile:"))
        .map(str::to_string)
        .collect()
}

fn small_run() -> AmrRunConfig {
    AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    }
}

#[test]
fn header_of_a_plain_plotfile_is_the_restarted_metadata() {
    let h = build_hierarchy(&NyxScenario::new(5), &small_run(), 0.0);
    let path = tmp("header-plain");
    write_amric(&path, &h, &AmricConfig::lr(1e-3), 8).unwrap();
    let out = inspect(&path, "--header");
    let expected = restarted_header(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(header_block(&out), expected, "{out}");
}

#[test]
fn header_of_a_delta_snapshot_prints_its_linkage() {
    let mut session = TemporalSession::new(AmricConfig::lr(1e-3), 8);
    let paths = [tmp("header-key"), tmp("header-delta")];
    let scenario = NyxScenario::new(11);
    for ((_, _, h), path) in TimeSeries::new(&scenario, small_run(), 0.02, 2).zip(&paths) {
        session.write(path, &h).unwrap();
    }
    let outs: Vec<String> = paths.iter().map(|p| inspect(p, "--header")).collect();
    let expected = restarted_header(&paths[0]);
    for path in &paths {
        std::fs::remove_file(path).ok();
    }
    let mut keyframe = expected.clone();
    keyframe.push("temporal snapshot 1, keyframe (no reference)".into());
    assert_eq!(header_block(&outs[0]), keyframe, "{}", outs[0]);
    // The delta snapshot restarts only through its reference; its header
    // needs none.
    let delta = header_block(&outs[1]);
    assert!(!outs[1].contains("not an AMRIC plotfile"), "{}", outs[1]);
    assert_eq!(
        delta.last().map(String::as_str),
        Some("temporal snapshot 2, delta chunks reference snapshot 1"),
        "{}",
        outs[1]
    );
    assert_eq!(delta.len(), expected.len() + 1, "{}", outs[1]);
    assert!(
        delta[0].starts_with("AMRIC plotfile: 2 levels"),
        "{}",
        outs[1]
    );
}
