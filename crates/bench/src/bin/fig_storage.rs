//! Storage-backend study: the same Nyx_1 snapshot written through the
//! file and sharded backends, then read back with cold / cached /
//! parallel ROI queries against both. Verifies bitwise equality of every
//! query answer across backends before timing anything, prints the
//! wall-clock table, and emits `BENCH_storage.json` for the trajectory
//! tracker.
//!
//! On single-core hosts expect the backends to tie; the sharded fan-out
//! win (independent file descriptors under parallel prefetch) appears
//! with real cores and real devices.

use amr_mesh::{IntBox, IntVect};
use amr_query::{LevelSelect, QueryEngine, RegionView};
use amric::prelude::*;
use amric_bench::{default_workers, print_table, scratch, secs, table1_runs};
use std::io::Write;
use std::time::Instant;

struct Point {
    backend: &'static str,
    series: &'static str,
    workers: usize,
    ms_per_iter: f64,
}

fn time_iters(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up pass, excluded from timing
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() * 1000.0 / iters as f64
}

fn view_bits(v: &RegionView) -> Vec<u64> {
    v.levels
        .iter()
        .flat_map(|l| l.data.data().iter().map(|x| x.to_bits()))
        .collect()
}

fn main() {
    let spec = table1_runs()
        .into_iter()
        .find(|s| s.name == "Nyx_1")
        .expect("Nyx_1");
    let h = spec.build(0.0);
    let iters: usize = std::env::var("AMRIC_STORAGE_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let shards = 4usize;
    let cfg = AmricConfig::lr(spec.amric_rel_eb);
    let fp = scratch("fig-storage-file");
    let sp = scratch("fig-storage-sharded");

    let mut points = Vec::new();

    // Write side: one timed series per backend, identical payload.
    let file_write_ms = time_iters(iters.clamp(1, 5), || {
        write_amric(&fp, &h, &cfg, spec.blocking_factor).expect("file write");
    });
    points.push(Point {
        backend: "file",
        series: "write",
        workers: 1,
        ms_per_iter: file_write_ms,
    });
    let write_sharded = || {
        let w = h5lite::H5Writer::create_sharded(&sp, shards)?;
        write_amric_to(std::sync::Arc::new(w), &h, &cfg, spec.blocking_factor)
    };
    let sharded_write_ms = time_iters(iters.clamp(1, 5), || {
        write_sharded().expect("sharded write");
    });
    points.push(Point {
        backend: "sharded",
        series: "write",
        workers: 1,
        ms_per_iter: sharded_write_ms,
    });
    let rf = write_amric(&fp, &h, &cfg, spec.blocking_factor).expect("file write");
    let rs = write_sharded().expect("shard write");
    assert_eq!(
        rf.stored_bytes, rs.stored_bytes,
        "backends stored different payloads"
    );

    // Correctness gate before any read timing: the probe ROI answers
    // bitwise-identical across backends (cold engines on both sides).
    let roi = IntBox::new(IntVect::new(8, 8, 8), IntVect::new(23, 23, 23));
    {
        let ef = QueryEngine::open(&fp).expect("open file");
        let es = QueryEngine::open(&sp).expect("open sharded");
        for field in 0..3 {
            let a = ef.roi(field, roi, LevelSelect::All).expect("file roi");
            let b = es.roi(field, roi, LevelSelect::All).expect("sharded roi");
            assert_eq!(
                view_bits(&a),
                view_bits(&b),
                "field {field}: sharded ROI diverges from single-file"
            );
        }
    }

    // Read side: cold, cached, and parallel-cold per backend.
    let workers = default_workers().max(4);
    for (backend, path) in [("file", &fp), ("sharded", &sp)] {
        let cold_ms = time_iters(iters, || {
            let engine = QueryEngine::open(path).expect("open");
            engine.roi(0, roi, LevelSelect::All).expect("roi");
        });
        points.push(Point {
            backend,
            series: "roi_cold",
            workers: 1,
            ms_per_iter: cold_ms,
        });
        let warm = QueryEngine::open(path).expect("open");
        warm.roi(0, roi, LevelSelect::All).expect("roi");
        let warm_ms = time_iters(iters, || {
            warm.roi(0, roi, LevelSelect::All).expect("roi");
        });
        assert!(warm.cache_stats().hits > 0, "{backend}: cache never hit");
        points.push(Point {
            backend,
            series: "roi_cached",
            workers: 1,
            ms_per_iter: warm_ms,
        });
        let par_ms = time_iters(iters, || {
            let engine = QueryEngine::open(path).expect("open").with_workers(workers);
            engine.roi(0, roi, LevelSelect::All).expect("roi");
        });
        points.push(Point {
            backend,
            series: "roi_cold_parallel",
            workers,
            ms_per_iter: par_ms,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.backend.to_string(),
                p.series.to_string(),
                p.workers.to_string(),
                secs(p.ms_per_iter / 1000.0),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Storage backends (Nyx_1, {shards} shards, {iters} iters/point, {} cores available)",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        ),
        &["backend", "series", "workers", "s/iter"],
        &rows,
    );

    // Trajectory file: hand-rolled JSON (no serde in-tree).
    let mut json = String::from("{\n  \"bench\": \"storage\",\n  \"run\": \"Nyx_1\",\n");
    json.push_str(&format!(
        "  \"shards\": {shards},\n  \"cores\": {},\n  \"iters_per_point\": {iters},\n  \"series\": [\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"series\": \"{}\", \"workers\": {}, \"ms_per_iter\": {:.3}}}{}\n",
            p.backend,
            p.series,
            p.workers,
            p.ms_per_iter,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"sharded_write_overhead\": {:.3}\n}}\n",
        sharded_write_ms / file_write_ms
    ));
    let out = std::env::var("AMRIC_BENCH_OUT").unwrap_or_else(|_| "BENCH_storage.json".into());
    let mut f = std::fs::File::create(&out).expect("create trajectory file");
    f.write_all(json.as_bytes()).expect("write trajectory file");
    println!("\nwrote {out}");
    std::fs::remove_file(&fp).ok();
    std::fs::remove_dir_all(&sp).ok();
}
