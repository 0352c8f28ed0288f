//! Temporal-compression study: a time series written three ways at the
//! same error bound — the cross-snapshot temporal session (delta coding
//! against the previous snapshot's decoded state), per-snapshot SZ_L/R
//! (the AMRIC pipeline, re-coding every snapshot from scratch), and a
//! spatial-only temporal session (fresh reference chain every snapshot,
//! isolating the envelope overhead from the delta win).
//!
//! Two regrid regimes bracket the design space:
//!
//! * `stable` — Nyx at a small dt; the hierarchy holds still, almost
//!   every unit delta-codes, and the temporal session must beat
//!   per-snapshot LR outright.
//! * `regrid` — WarpX at a dt violent enough that the fine level
//!   relocates every step; most units fall back to the spatial path and
//!   the session must cost no more than spatial-only coding (the
//!   fallback rule's overhead bound).
//!
//! Emits `BENCH_temporal.json` at the committed step count; any other
//! count writes only the file `AMRIC_BENCH_OUT` names. Both acceptance
//! inequalities are asserted on every run, so CI smoke runs fail loudly
//! if a regression breaks either regime.

use amr_apps::prelude::*;
use amr_mesh::AmrHierarchy;
use amric::prelude::*;
use amric::temporal::{TemporalSession, TemporalSessionConfig};
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
    spatial_only_bytes: u64,
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
    let mut session = TemporalSession::new(TemporalSessionConfig::new(REL_EB), bf);
    let mut spatial_only = TemporalSession::new(TemporalSessionConfig::new(REL_EB), bf);
    let mut prev: Option<AmrHierarchy> = None;
    for (step, _, h) in TimeSeries::new(scenario, cfg, dt, nsteps) {
        let change = prev.as_ref().map_or(0.0, |p| regrid_change(p, &h));
        let temporal_bytes = temporal_in_memory(&mut session, &h);
        spatial_only.reset_reference();
        let spatial_only_bytes = temporal_in_memory(&mut spatial_only, &h);
        points.push(SchedulePoint {
            schedule,
            step,
            regrid_change: change,
            orig_bytes: h.snapshot_bytes(),
            temporal_bytes,
            lr_bytes: lr_in_memory(&h, bf),
            spatial_only_bytes,
        });
        prev = Some(h);
    }
}

fn totals(points: &[SchedulePoint], schedule: &str) -> (u64, u64, u64, u64) {
    points
        .iter()
        .filter(|p| p.schedule == schedule)
        .fold((0, 0, 0, 0), |acc, p| {
            (
                acc.0 + p.orig_bytes,
                acc.1 + p.temporal_bytes,
                acc.2 + p.lr_bytes,
                acc.3 + p.spatial_only_bytes,
            )
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
                format!("{:.2}", p.orig_bytes as f64 / p.spatial_only_bytes as f64),
            ]
        })
        .collect();
    print_table(
        &format!("Temporal vs per-snapshot compression (rel_eb {REL_EB}, {nsteps} steps)"),
        &[
            "schedule",
            "step",
            "regrid",
            "CR temporal",
            "CR lr",
            "CR spatial-only",
        ],
        &rows,
    );

    // Acceptance inequalities (the fallback rule's contract).
    let (_, stable_t, stable_lr, _) = totals(&points, "stable");
    assert!(
        stable_t < stable_lr,
        "stable series: temporal {stable_t} B must beat per-snapshot LR {stable_lr} B"
    );
    let (_, regrid_t, _, regrid_sp) = totals(&points, "regrid");
    assert!(
        regrid_t as f64 <= regrid_sp as f64 * 1.03,
        "regrid series: temporal {regrid_t} B must stay within 3% of spatial-only {regrid_sp} B"
    );
    println!(
        "\nstable: temporal/lr = {:.3}   regrid: temporal/spatial-only = {:.3}",
        stable_t as f64 / stable_lr as f64,
        regrid_t as f64 / regrid_sp as f64
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
            "    {{\"schedule\": \"{}\", \"step\": {}, \"regrid_change\": {:.4}, \"orig_bytes\": {}, \"temporal_bytes\": {}, \"lr_bytes\": {}, \"spatial_only_bytes\": {}}}{}\n",
            p.schedule,
            p.step,
            p.regrid_change,
            p.orig_bytes,
            p.temporal_bytes,
            p.lr_bytes,
            p.spatial_only_bytes,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"stable_temporal_over_lr\": {:.4},\n  \"regrid_temporal_over_spatial_only\": {:.4}\n}}\n",
        stable_t as f64 / stable_lr as f64,
        regrid_t as f64 / regrid_sp as f64
    ));
    let committed = (nsteps == COMMITTED_STEPS).then(|| "BENCH_temporal.json".into());
    if let Some(out) = std::env::var("AMRIC_BENCH_OUT").ok().or(committed) {
        std::fs::write(&out, json).expect("write trajectory file");
        println!("wrote {out}");
    }
}
