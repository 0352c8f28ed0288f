//! Temporal-compression study: a time series written two ways at the
//! same error bound and the same pipeline configuration (SZ_L/R) — the
//! cross-snapshot temporal session (a chunk ships the pipeline's delta
//! stream against the previous snapshot's decoded state when that is
//! smaller) and per-snapshot SZ_L/R (the AMRIC pipeline, re-coding every
//! snapshot from scratch).
//!
//! Two regrid regimes bracket the design space:
//!
//! * `stable` — Nyx at a small dt; the hierarchy holds still, almost
//!   every unit delta-codes, and the temporal session must beat
//!   per-snapshot LR outright.
//! * `regrid` — WarpX at a dt violent enough that the fine level
//!   relocates every step; most units have no reference and the session
//!   must cost no more than per-snapshot LR (the per-chunk size gate makes
//!   every chunk at most the plain writer's).
//!
//! Emits `BENCH_temporal.json` at the committed step count; any other
//! count writes only the file `AMRIC_BENCH_OUT` names. Both acceptance
//! inequalities are asserted on every run, so CI smoke runs fail loudly
//! if a regression breaks either regime.

use amr_apps::prelude::*;
use amr_mesh::AmrHierarchy;
use amric::prelude::*;
use amric_bench::print_table;
use h5lite::H5Writer;
use std::sync::Arc;

const REL_EB: f64 = 1e-3;
/// Snapshots per schedule in the committed `BENCH_temporal.json`.
const COMMITTED_STEPS: usize = 6;

struct SchedulePoint {
    schedule: &'static str,
    step: usize,
    regrid_change: f64,
    orig_bytes: u64,
    temporal_bytes: u64,
    lr_bytes: u64,
}

fn temporal_in_memory(session: &mut TemporalSession, h: &AmrHierarchy) -> u64 {
    let (w, _mem) = H5Writer::in_memory();
    session
        .write_to(Arc::new(w), h)
        .expect("temporal write")
        .stored_bytes
}

fn lr_in_memory(h: &AmrHierarchy, bf: i64) -> u64 {
    let (w, _mem) = H5Writer::in_memory();
    write_amric_to(Arc::new(w), h, &AmricConfig::lr(REL_EB), bf)
        .expect("lr write")
        .stored_bytes
}

fn run_schedule(
    schedule: &'static str,
    scenario: &dyn Scenario,
    cfg: AmrRunConfig,
    bf: i64,
    dt: f64,
    nsteps: usize,
    points: &mut Vec<SchedulePoint>,
) {
    let mut session = TemporalSession::new(AmricConfig::lr(REL_EB), bf);
    let mut prev: Option<AmrHierarchy> = None;
    for (step, _, h) in TimeSeries::new(scenario, cfg, dt, nsteps) {
        let change = prev.as_ref().map_or(0.0, |p| regrid_change(p, &h));
        let temporal_bytes = temporal_in_memory(&mut session, &h);
        points.push(SchedulePoint {
            schedule,
            step,
            regrid_change: change,
            orig_bytes: h.snapshot_bytes(),
            temporal_bytes,
            lr_bytes: lr_in_memory(&h, bf),
        });
        prev = Some(h);
    }
}

/// Total `(temporal, lr)` bytes of one schedule.
fn totals(points: &[SchedulePoint], schedule: &str) -> (u64, u64) {
    points
        .iter()
        .filter(|p| p.schedule == schedule)
        .fold((0, 0), |acc, p| {
            (acc.0 + p.temporal_bytes, acc.1 + p.lr_bytes)
        })
}

fn main() {
    let nsteps: usize = std::env::var("AMRIC_TEMPORAL_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(COMMITTED_STEPS)
        .max(2);
    let mut points = Vec::new();

    let stable_cfg = AmrRunConfig {
        coarse_dims: (32, 32, 32),
        max_grid_size: 16,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    run_schedule(
        "stable",
        &NyxScenario::new(11),
        stable_cfg,
        8,
        0.02,
        nsteps,
        &mut points,
    );

    let regrid_cfg = AmrRunConfig {
        coarse_dims: (8, 8, 64),
        max_grid_size: 16,
        blocking_factor: 4,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.03,
        grid_eff: 0.7,
    };
    run_schedule(
        "regrid",
        &WarpXScenario::new(4),
        regrid_cfg,
        4,
        0.4,
        nsteps,
        &mut points,
    );

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.schedule.to_string(),
                p.step.to_string(),
                format!("{:.3}", p.regrid_change),
                format!("{:.2}", p.orig_bytes as f64 / p.temporal_bytes as f64),
                format!("{:.2}", p.orig_bytes as f64 / p.lr_bytes as f64),
            ]
        })
        .collect();
    print_table(
        &format!("Temporal vs per-snapshot compression (rel_eb {REL_EB}, {nsteps} steps)"),
        &["schedule", "step", "regrid", "CR temporal", "CR lr"],
        &rows,
    );

    // Acceptance inequalities (the size gate's contract).
    let (stable_t, stable_lr) = totals(&points, "stable");
    assert!(
        stable_t < stable_lr,
        "stable series: temporal {stable_t} B must beat per-snapshot LR {stable_lr} B"
    );
    let (regrid_t, regrid_lr) = totals(&points, "regrid");
    assert!(
        regrid_t <= regrid_lr,
        "regrid series: temporal {regrid_t} B must not exceed per-snapshot LR {regrid_lr} B"
    );
    println!(
        "\nstable: temporal/lr = {:.4}   regrid: temporal/lr = {:.4}",
        stable_t as f64 / stable_lr as f64,
        regrid_t as f64 / regrid_lr as f64
    );

    // Trajectory file: hand-rolled JSON (no serde in-tree).
    let mut json = String::from("{\n  \"bench\": \"temporal\",\n");
    json.push_str(&format!(
        "  \"rel_eb\": {REL_EB},\n  \"nsteps\": {nsteps},\n  \"cores\": {},\n  \"points\": [\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"schedule\": \"{}\", \"step\": {}, \"regrid_change\": {:.4}, \"orig_bytes\": {}, \"temporal_bytes\": {}, \"lr_bytes\": {}}}{}\n",
            p.schedule,
            p.step,
            p.regrid_change,
            p.orig_bytes,
            p.temporal_bytes,
            p.lr_bytes,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"stable_temporal_over_lr\": {:.4},\n  \"regrid_temporal_over_lr\": {:.4}\n}}\n",
        stable_t as f64 / stable_lr as f64,
        regrid_t as f64 / regrid_lr as f64
    ));
    let committed = (nsteps == COMMITTED_STEPS).then(|| "BENCH_temporal.json".into());
    if let Some(out) = std::env::var("AMRIC_BENCH_OUT").ok().or(committed) {
        std::fs::write(&out, json).expect("write trajectory file");
        println!("wrote {out}");
    }
}
