//! The fairness acceptance check: point-sample tail latency while a
//! full-file ROI scan hammers the same server must stay within a small
//! factor of its solo tail latency — the whole reason admission control
//! warms scans one gate-bounded chunk batch at a time.

use amr_apps::prelude::*;
use amr_serve::prelude::*;
use amric::config::AmricConfig;
use amric::writer::write_amric;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("amr-serve-fair-{}-{name}.h5l", std::process::id()));
    p
}

fn p95(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[(samples.len() * 95) / 100]
}

fn measure_points(client: &mut Client, handle: u32, n: usize) -> Vec<Duration> {
    (0..n)
        .map(|i| {
            let p = [
                (7 * i as i64) % 32,
                (3 * i as i64) % 32,
                (11 * i as i64) % 32,
            ];
            let t = Instant::now();
            client.point(handle, 0, p).unwrap();
            t.elapsed()
        })
        .collect()
}

#[test]
fn point_latency_survives_concurrent_full_file_scan() {
    let path = tmp("scan-vs-point");
    let s = NyxScenario::new(97);
    let cfg = AmrRunConfig {
        coarse_dims: (32, 32, 32),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 4,
        num_levels: 2,
        fine_fraction: 0.08,
        grid_eff: 0.7,
    };
    let h = build_hierarchy(&s, &cfg, 0.0);
    write_amric(&path, &h, &AmricConfig::lr(1e-3), 8).unwrap();

    // Starved cache: scans must actually decode every pass (a fully
    // cache-resident scan would make fairness trivial), and one-chunk batches
    // keep the gate hold times short.
    let mut server = Server::new(ServeConfig {
        cache_bytes: 256 << 10,
        max_open_files: 4,
        admission: AdmissionConfig {
            max_request_bytes: 1 << 30,
            scan_threshold_bytes: 64 << 10,
            scan_slots: 1,
            scan_slab_bytes: 64 << 10,
        },
        ..ServeConfig::default()
    });
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let path_str = path.to_str().unwrap().to_string();

    // Solo baseline.
    let mut point_client = Client::connect_tcp(addr).unwrap();
    let handle = point_client.open(&path_str).unwrap().handle;
    measure_points(&mut point_client, handle, 30); // warm up connection + file
    let solo = p95(measure_points(&mut point_client, handle, 200));

    // Two clients scanning the entire file in a loop.
    let stop = Arc::new(AtomicBool::new(false));
    let scanners: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let path_str = path_str.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect_tcp(addr).unwrap();
                let h = c.open(&path_str).unwrap().handle;
                let mut scans = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    c.roi(h, 0, [0, 0, 0], [31, 31, 31], WireSelect::All)
                        .unwrap();
                    scans += 1;
                }
                scans
            })
        })
        .collect();
    // Let the scans get going before measuring.
    std::thread::sleep(Duration::from_millis(100));
    let contended = p95(measure_points(&mut point_client, handle, 200));
    stop.store(true, Ordering::Relaxed);
    let total_scans: u64 = scanners.into_iter().map(|s| s.join().unwrap()).sum();
    assert!(total_scans >= 2, "scanners must have completed full passes");

    // ISSUE acceptance: contended p95 < ~5x solo. Floor the bound at
    // 50ms so scheduler noise on tiny solo latencies can't flake CI.
    let bound = (solo * 5).max(Duration::from_millis(50));
    assert!(
        contended < bound,
        "point p95 under scan load {contended:?} exceeded bound {bound:?} (solo {solo:?}, {total_scans} scans)"
    );

    let stats = point_client.stats().unwrap();
    assert!(
        stats.scan_queries >= total_scans,
        "scans must classify as scans"
    );
    assert!(
        stats.scan_slabs > stats.scan_queries,
        "full-file scans must take the gate once per chunk batch"
    );
    point_client.shutdown_server().unwrap();
    server.shutdown_and_join();
    std::fs::remove_file(&path).ok();
}
