//! Criterion benches of the end-to-end in-situ write path (preprocess +
//! compress + collective write to a local file) for the three solutions,
//! one per paper table row style (small Nyx run).

use amric::prelude::*;
use amric_bench::{default_workers, scratch, table1_runs};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use h5lite::H5Writer;
use std::sync::Arc;

fn bench_writers(c: &mut Criterion) {
    let spec = table1_runs()
        .into_iter()
        .find(|s| s.name == "Nyx_1")
        .expect("Nyx_1");
    let h = spec.build(0.0);
    let bytes = h.snapshot_bytes();
    let mut g = c.benchmark_group("io_pipeline/nyx1");
    g.throughput(Throughput::Bytes(bytes));
    g.sample_size(10);
    g.bench_function("nocomp", |b| {
        b.iter(|| {
            let path = scratch("bench-nocomp");
            write_nocomp(&path, &h).unwrap();
            std::fs::remove_file(&path).ok();
        })
    });
    g.bench_function("amrex_baseline", |b| {
        b.iter(|| {
            let path = scratch("bench-amrex");
            write_amrex_baseline(&path, &h, &BaselineConfig::new(spec.amrex_rel_eb)).unwrap();
            std::fs::remove_file(&path).ok();
        })
    });
    g.bench_function("amric_lr", |b| {
        b.iter(|| {
            let path = scratch("bench-amric-lr");
            write_amric(
                &path,
                &h,
                &AmricConfig::lr(spec.amric_rel_eb),
                spec.blocking_factor,
            )
            .unwrap();
            std::fs::remove_file(&path).ok();
        })
    });
    g.bench_function("amric_interp", |b| {
        b.iter(|| {
            let path = scratch("bench-amric-interp");
            write_amric(
                &path,
                &h,
                &AmricConfig::interp(spec.amric_rel_eb),
                spec.blocking_factor,
            )
            .unwrap();
            std::fs::remove_file(&path).ok();
        })
    });
    // Parallel axis: the overlapped write path on the harness-default
    // worker count (≥ 2 so the pool engages even on small CI runners).
    // Byte-identical output, different wall-clock — the overlap win.
    let workers = default_workers().max(2);
    g.bench_function("amric_lr_parallel", |b| {
        b.iter(|| {
            let path = scratch("bench-amric-lr-par");
            write_amric(
                &path,
                &h,
                &AmricConfig::lr(spec.amric_rel_eb).with_workers(workers),
                spec.blocking_factor,
            )
            .unwrap();
            std::fs::remove_file(&path).ok();
        })
    });
    g.bench_function("amric_interp_parallel", |b| {
        b.iter(|| {
            let path = scratch("bench-amric-interp-par");
            write_amric(
                &path,
                &h,
                &AmricConfig::interp(spec.amric_rel_eb).with_workers(workers),
                spec.blocking_factor,
            )
            .unwrap();
            std::fs::remove_file(&path).ok();
        })
    });
    // Storage axis: the same write landing on the sharded backend (4
    // shard files + manifest). Logical content is byte-identical to the
    // single-file rows (the storage equivalence suite enforces it).
    g.bench_function("sharded_write", |b| {
        b.iter(|| {
            let path = scratch("bench-amric-sharded");
            write_amric_to(
                Arc::new(H5Writer::create_sharded(&path, 4).unwrap()),
                &h,
                &AmricConfig::lr(spec.amric_rel_eb),
                spec.blocking_factor,
            )
            .unwrap();
            std::fs::remove_dir_all(&path).ok();
        })
    });
    g.finish();
}

fn bench_read_roi(c: &mut Criterion) {
    // Read side of the pipeline: ROI queries against a written plotfile —
    // cold (fresh engine, empty cache), warm (cache hit), and a parallel
    // cold fetch. Results are bitwise-identical across all three (the
    // amr-query equivalence suite enforces it); only wall-clock differs.
    let spec = table1_runs()
        .into_iter()
        .find(|s| s.name == "Nyx_1")
        .expect("Nyx_1");
    let h = spec.build(0.0);
    let path = scratch("bench-read-roi");
    write_amric(
        &path,
        &h,
        &AmricConfig::lr(spec.amric_rel_eb),
        spec.blocking_factor,
    )
    .unwrap();
    // Half-edge cube in the interior of Nyx_1's 32³ coarse domain.
    let roi = amr_query::Box3::new(
        amr_mesh::IntVect::new(8, 8, 8),
        amr_mesh::IntVect::new(23, 23, 23),
    );
    let mut g = c.benchmark_group("io_pipeline/read_roi");
    g.sample_size(10);
    g.bench_function("cold", |b| {
        b.iter(|| {
            let engine = amr_query::QueryEngine::open(&path).unwrap();
            engine.roi(0, roi, amr_query::LevelSelect::All).unwrap()
        })
    });
    let warm_engine = amr_query::QueryEngine::open(&path).unwrap();
    warm_engine
        .roi(0, roi, amr_query::LevelSelect::All)
        .unwrap();
    g.bench_function("warm", |b| {
        b.iter(|| {
            warm_engine
                .roi(0, roi, amr_query::LevelSelect::All)
                .unwrap()
        })
    });
    let workers = default_workers().max(2);
    g.bench_function("cold_parallel", |b| {
        b.iter(|| {
            let engine = amr_query::QueryEngine::open(&path)
                .unwrap()
                .with_workers(workers);
            engine.roi(0, roi, amr_query::LevelSelect::All).unwrap()
        })
    });
    // Same ROI against the sharded backend: cold fetch resolves chunk
    // ranges through the manifest and lands on independent shard fds.
    let spath = scratch("bench-read-roi-sharded");
    write_amric_to(
        Arc::new(H5Writer::create_sharded(&spath, 4).unwrap()),
        &h,
        &AmricConfig::lr(spec.amric_rel_eb),
        spec.blocking_factor,
    )
    .unwrap();
    g.bench_function("sharded_roi", |b| {
        b.iter(|| {
            let engine = amr_query::QueryEngine::open(&spath).unwrap();
            engine.roi(0, roi, amr_query::LevelSelect::All).unwrap()
        })
    });
    g.bench_function("sharded_roi_parallel", |b| {
        b.iter(|| {
            let engine = amr_query::QueryEngine::open(&spath)
                .unwrap()
                .with_workers(workers);
            engine.roi(0, roi, amr_query::LevelSelect::All).unwrap()
        })
    });
    g.finish();
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&spath).ok();
}

fn bench_preprocess(c: &mut Criterion) {
    let spec = table1_runs()
        .into_iter()
        .find(|s| s.name == "Nyx_1")
        .expect("Nyx_1");
    let h = spec.build(0.0);
    let coarse = &h.level(0).data;
    let fine_ba = h.level(1).data.box_array();
    let mut g = c.benchmark_group("io_pipeline/preprocess");
    g.bench_function("plan_units_coarse", |b| {
        b.iter(|| plan_units(coarse, Some((fine_ba, 2)), 4, 0, true))
    });
    let plan = plan_units(coarse, Some((fine_ba, 2)), 4, 0, true);
    g.bench_function("extract_units_field0", |b| {
        b.iter(|| extract_units(coarse, &plan, 0))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_writers, bench_read_roi, bench_preprocess
}
criterion_main!(benches);
