//! Loopback end-to-end: real server, real sockets, concurrent clients,
//! and every wire answer compared **bitwise** against a direct
//! `QueryEngine` on the same plotfile. Also covers catalog
//! stale-generation invalidation, the Unix-socket transport, typed
//! `TooLarge` rejection before any byte is read (on the decode estimate
//! and on the size of the answer), one gate hold per chunk batch of a
//! scan, typed planning errors, multi-MB answers shipped as their stored
//! pieces and counted to the byte, regions no unit meets, a hand-built
//! file whose clipped units share a tile, a file of placed SZ_Interp
//! chunks, and the stats endpoint.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::prelude::*;
use amr_serve::prelude::*;
use amric::config::AmricConfig;
use amric::writer::write_amric;
use std::path::PathBuf;
use std::sync::Arc;

#[path = "../../amr-query/tests/common/mod.rs"]
#[allow(dead_code)] // shared with the suites that rewrite chunk indexes
mod common;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("amr-serve-e2e-{}-{name}.h5l", std::process::id()));
    p
}

fn write_plotfile(seed: u64, path: &std::path::Path) {
    write_plotfile_sized(seed, path, 16)
}

/// A two-level plotfile over a `coarse`³ level-0 domain.
fn write_plotfile_sized(seed: u64, path: &std::path::Path, coarse: i64) {
    let s = NyxScenario::new(seed);
    let cfg = AmrRunConfig {
        coarse_dims: (coarse, coarse, coarse),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    let h = build_hierarchy(&s, &cfg, 0.0);
    write_amric(path, &h, &AmricConfig::lr(1e-3), 8).unwrap();
}

/// Wire region data as bit patterns, keyed by level and box, for exact
/// comparison with a direct engine answer.
fn wire_bits(r: &WireRegion) -> (u32, [i64; 3], [i64; 3], Vec<u64>) {
    (
        r.level,
        r.lo,
        r.hi,
        r.data.iter().map(|v| v.to_bits()).collect(),
    )
}

fn direct_bits(lr: &amr_query::LevelRegion) -> (u32, [i64; 3], [i64; 3], Vec<u64>) {
    let v = |p: &IntVect| [p.get(0), p.get(1), p.get(2)];
    (
        lr.level as u32,
        v(&lr.region.lo),
        v(&lr.region.hi),
        lr.data.data().iter().map(|x| x.to_bits()).collect(),
    )
}

/// Small-threshold config so the 16^3 test files still exercise the
/// scan path (chunk batches under the fair gate) rather than running
/// everything interactive.
fn test_config() -> ServeConfig {
    ServeConfig {
        cache_bytes: 4 << 20,
        max_open_files: 8,
        admission: AdmissionConfig {
            max_request_bytes: 64 << 20,
            scan_threshold_bytes: 64 << 10,
            scan_slots: 1,
            scan_slab_bytes: 32 << 10,
        },
        ..ServeConfig::default()
    }
}

#[test]
fn concurrent_clients_match_direct_engine_bitwise() {
    let path_a = tmp("multi-a");
    let path_b = tmp("multi-b");
    write_plotfile(91, &path_a);
    write_plotfile(92, &path_b);
    let mut server = Server::new(test_config());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();

    // Direct baselines, one engine per file, independent of the server.
    let direct_a = QueryEngine::open(&path_a).unwrap();
    let direct_b = QueryEngine::open(&path_b).unwrap();
    let rois = [
        IntBox::new(IntVect::new(4, 4, 4), IntVect::new(11, 11, 11)),
        IntBox::from_extents(16, 16, 16),
    ];
    let expect_roi: Vec<Vec<_>> = [&direct_a, &direct_b]
        .iter()
        .flat_map(|e| {
            rois.iter().map(|roi| {
                e.roi(0, *roi, LevelSelect::All)
                    .unwrap()
                    .levels
                    .iter()
                    .map(direct_bits)
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let points: Vec<IntVect> = (0..12)
        .map(|i| IntVect::new((5 * i) % 16, i % 16, (3 * i) % 16))
        .collect();
    let expect_point: Vec<Vec<_>> = [&direct_a, &direct_b]
        .iter()
        .map(|e| {
            points
                .iter()
                .map(|p| {
                    e.point_sample(1, *p)
                        .unwrap()
                        .map(|s| (s.level as u32, s.value.to_bits()))
                })
                .collect()
        })
        .collect();
    let expect_plane: Vec<_> = [&direct_a, &direct_b]
        .iter()
        .map(|e| direct_bits(&e.plane_slice(0, 1, 2, 16).unwrap()))
        .collect();

    let paths = [path_a.clone(), path_b.clone()];
    let expect_roi = Arc::new(expect_roi);
    let expect_point = Arc::new(expect_point);
    let expect_plane = Arc::new(expect_plane);
    let mut handles = Vec::new();
    for t in 0..6usize {
        let paths = paths.clone();
        let points = points.to_vec();
        let rois = rois.to_vec();
        let (expect_roi, expect_point, expect_plane) = (
            Arc::clone(&expect_roi),
            Arc::clone(&expect_point),
            Arc::clone(&expect_plane),
        );
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(addr).unwrap();
            // Each client opens both files (catalog shares one engine per
            // file under the hood).
            let h: Vec<u32> = paths
                .iter()
                .map(|p| client.open(p.to_str().unwrap()).unwrap().handle)
                .collect();
            for round in 0..4 {
                let fi = (t + round) % 2;
                for (ri, roi) in rois.iter().enumerate() {
                    let view = client
                        .roi(
                            h[fi],
                            0,
                            [roi.lo.get(0), roi.lo.get(1), roi.lo.get(2)],
                            [roi.hi.get(0), roi.hi.get(1), roi.hi.get(2)],
                            WireSelect::All,
                        )
                        .unwrap();
                    let got: Vec<_> = view.levels.iter().map(wire_bits).collect();
                    assert_eq!(
                        got,
                        expect_roi[fi * 2 + ri],
                        "client {t} file {fi} roi {ri}"
                    );
                }
                for (pi, p) in points.iter().enumerate() {
                    let got = client
                        .point(h[fi], 1, [p.get(0), p.get(1), p.get(2)])
                        .unwrap()
                        .map(|(lvl, _, v)| (lvl, v.to_bits()));
                    assert_eq!(got, expect_point[fi][pi], "client {t} file {fi} point {pi}");
                }
                let plane = client.plane(h[fi], 0, 1, 2, 16).unwrap();
                assert_eq!(wire_bits(&plane), expect_plane[fi], "client {t} file {fi}");
            }
            for handle in h {
                client.close_handle(handle).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Stats reflect the multi-tenant reality: one engine per file, both
    // interactive and scan traffic, and a shared cache doing real work.
    let mut client = Client::connect_tcp(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.catalog.open_files, 2, "one pooled engine per file");
    assert_eq!(stats.catalog.opens, 2);
    assert_eq!(
        stats.catalog.open_hits, 10,
        "6 clients x 2 files minus 2 builds"
    );
    assert!(stats.interactive_queries > 0, "points must be interactive");
    assert!(stats.scan_queries > 0, "full-domain ROI must be a scan");
    assert!(
        stats.scan_slabs >= stats.scan_queries,
        "scans hold the gate"
    );
    assert!(stats.store.hits > 0, "repeat traffic must hit the cache");
    assert_eq!(stats.files.len(), 2);
    assert!(stats.files.iter().all(|f| f.engine.chunks_decoded > 0));
    assert_eq!(stats.rejected_too_large, 0);

    // A point is a cell of the **finest** index space (32³ here), not of
    // level 0 (16³): one beyond the coarse extent is answered by whichever
    // level holds it, in that level's own index space; one beyond the
    // finest domain is held by no level.
    let h = client.open(path_a.to_str().unwrap()).unwrap().handle;
    let beyond_coarse = IntVect::new(21, 30, 17);
    let expect = direct_a.point_sample(0, beyond_coarse).unwrap().unwrap();
    assert_eq!(
        expect.cell,
        beyond_coarse.coarsened(if expect.level == 0 { 2 } else { 1 })
    );
    assert_eq!(
        client.point(h, 0, beyond_coarse.0).unwrap(),
        Some((expect.level as u32, expect.cell.0, expect.value))
    );
    assert_eq!(client.point(h, 0, [32, 30, 17]).unwrap(), None);

    client.shutdown_server().unwrap();
    server.shutdown_and_join();
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}

#[test]
fn uds_transport_answers_identically_to_tcp() {
    let path = tmp("uds");
    write_plotfile(93, &path);
    let mut sock = std::env::temp_dir();
    sock.push(format!("amr-serve-e2e-{}.sock", std::process::id()));
    let mut server = Server::new(test_config());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    server.listen_uds(&sock).unwrap();

    let mut tcp = Client::connect_tcp(addr).unwrap();
    let mut uds = Client::connect_uds(&sock).unwrap();
    let ht = tcp.open(path.to_str().unwrap()).unwrap();
    let hu = uds.open(path.to_str().unwrap()).unwrap();
    // Same pooled engine: same file id, same generation, fresh handle.
    assert_eq!(ht.file_id, hu.file_id);
    assert_eq!(ht.generation, hu.generation);
    let a = tcp
        .roi(ht.handle, 0, [0, 0, 0], [15, 15, 15], WireSelect::All)
        .unwrap();
    let b = uds
        .roi(hu.handle, 0, [0, 0, 0], [15, 15, 15], WireSelect::All)
        .unwrap();
    assert_eq!(a.field_name, b.field_name);
    let bits = |v: &amr_serve::RoiView| v.levels.iter().map(wire_bits).collect::<Vec<_>>();
    assert_eq!(bits(&a), bits(&b), "transports must not change answers");

    uds.shutdown_server().unwrap();
    server.shutdown_and_join();
    std::fs::remove_file(&sock).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn multi_megabyte_answers_cross_both_transports_bitwise_and_counted() {
    // 32³ under a 64³ fine domain: a full-domain ROI answers 2.36 MB of
    // dense boxes, most of it fine cells no unit stores. What crosses the
    // wire is the stored pieces — still hundreds of `put_f64s` runs, a
    // frame the socket delivers in many reads.
    let path = tmp("multi-mb");
    write_plotfile_sized(99, &path, 32);
    let mut sock = std::env::temp_dir();
    sock.push(format!("amr-serve-e2e-{}-mb.sock", std::process::id()));
    let mut server = Server::new(test_config());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    server.listen_uds(&sock).unwrap();

    let direct = QueryEngine::open(&path).unwrap();
    let roi = IntBox::from_extents(32, 32, 32);
    let view = direct.roi(1, roi, LevelSelect::All).unwrap();
    let expect: Vec<_> = view.levels.iter().map(direct_bits).collect();
    // The payload the server must send for it, to the byte, from the
    // direct engine's pieces: the view header (opcode, field, name block,
    // region count), 56 B a region, 24 B + 8 B a cell a piece.
    let plan = direct.plan_roi(1, roi, LevelSelect::All).unwrap();
    let mut payload = 1 + 4 + (8 + view.field_name.len()) + 4 + 56 * plan.regions().len();
    direct
        .pieces(&plan, |piece| {
            payload += 24 + 8 * piece.overlap.num_cells() as usize
        })
        .unwrap();
    // The dense encoding of the same answer.
    let dense = amr_serve::Response::View {
        field: 1,
        field_name: view.field_name.clone(),
        levels: view
            .levels
            .iter()
            .map(|lr| WireRegion {
                level: lr.level as u32,
                lo: lr.region.lo.0,
                hi: lr.region.hi.0,
                data: lr.data.data().to_vec(),
            })
            .collect(),
    }
    .encode();
    assert!(dense.len() > 2 << 20, "{} B is not multi-MB", dense.len());
    // Still most of a megabyte, and well under half of the dense bytes
    // (this fixture refines 31 % of its fine domain).
    assert!(
        (800_000..dense.len() * 2 / 5).contains(&payload),
        "{payload} B of pieces against {} B dense",
        dense.len()
    );

    let clients = [
        ("tcp", Client::connect_tcp(addr).unwrap()),
        ("uds", Client::connect_uds(&sock).unwrap()),
    ];
    for (transport, mut client) in clients {
        let handle = client.open(path.to_str().unwrap()).unwrap().handle;
        // A stats reply counts itself after the snapshot it carries, so
        // two back-to-back readings give its (fixed) size.
        let idle = client.stats().unwrap().response_bytes;
        let before = client.stats().unwrap().response_bytes;
        let got = client
            .roi(handle, 1, [0; 3], [31; 3], WireSelect::All)
            .unwrap();
        let after = client.stats().unwrap().response_bytes;
        assert_eq!(
            got.levels.iter().map(wire_bits).collect::<Vec<_>>(),
            expect,
            "{transport}"
        );
        assert_eq!(
            after - before - (before - idle),
            payload as u64,
            "{transport}: response bytes counted"
        );
    }

    server.shutdown_and_join();
    std::fs::remove_file(&sock).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn holes_and_clipped_legacy_units_are_served_like_the_direct_engine() {
    let corners = |b: &IntBox| (b.lo.0, b.hi.0);
    let mut server = Server::new(test_config());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();

    // A fine-level block the refinement left out: no unit meets it, so
    // its reply is a region header and nothing else, and its box is +0.0
    // everywhere — as the direct engine answers it.
    let path = tmp("hole");
    write_plotfile(99, &path);
    let direct = QueryEngine::open(&path).unwrap();
    let fine = &direct.meta().levels[1];
    let hole = fine
        .domain
        .tiles(8)
        .into_iter()
        .find(|t| !fine.boxes.intersects(t))
        .expect("an unrefined block");
    let handle = client.open(path.to_str().unwrap()).unwrap().handle;
    let idle = client.stats().unwrap().response_bytes;
    let before = client.stats().unwrap().response_bytes;
    let (lo, hi) = corners(&hole);
    let got = client.region(handle, 0, 1, lo, hi).unwrap();
    let after = client.stats().unwrap().response_bytes;
    assert_eq!(after - before - (before - idle), 1 + 56, "a bare header");
    assert_eq!(got.data.len(), 512);
    assert!(got.data.iter().all(|v| v.to_bits() == 0));
    let expect = direct.level_region(0, 1, hole).unwrap();
    assert_eq!(wire_bits(&got), direct_bits(&expect));
    assert_eq!(client.stats().unwrap().files[0].engine.chunks_decoded, 0);
    std::fs::remove_file(&path).ok();

    // The hand-built file of `amr-query`'s point oracle: units
    // clipped off the tile grid, three of them from two ranks inside one
    // tile, a strip no box covers. Region, plane and ROI, served against
    // direct.
    let path = tmp("unaligned");
    common::write_unaligned_file(&path);
    let direct = QueryEngine::open(&path).unwrap();
    let info = client.open(path.to_str().unwrap()).unwrap();
    let domain = direct.meta().levels[0].domain;
    let across_the_tile = IntBox::new(IntVect::new(1, 3, 1), IntVect::new(5, 6, 2));
    for region in [domain, across_the_tile] {
        let (lo, hi) = corners(&region);
        let got = client.region(info.handle, 0, 0, lo, hi).unwrap();
        let expect = direct.level_region(0, 0, region).unwrap();
        assert_eq!(wire_bits(&got), direct_bits(&expect), "{region:?}");
        assert!(got.data.iter().any(|&v| v != 0.0), "{region:?}");
    }
    let got = client.plane(info.handle, 0, 0, 1, 5).unwrap();
    assert_eq!(
        wire_bits(&got),
        direct_bits(&direct.plane_slice(0, 0, 1, 5).unwrap())
    );
    let (lo, hi) = corners(&domain);
    let got = client.roi(info.handle, 0, lo, hi, WireSelect::All).unwrap();
    let expect = direct.roi(0, domain, LevelSelect::All).unwrap();
    assert_eq!(
        got.levels.iter().map(wire_bits).collect::<Vec<_>>(),
        expect.levels.iter().map(direct_bits).collect::<Vec<_>>()
    );
    std::fs::remove_file(&path).ok();

    client.shutdown_server().unwrap();
    server.shutdown_and_join();
}

#[test]
fn placed_interp_chunks_are_served_like_the_direct_engine() {
    // A WarpX file whose dense level-0 chunks are stored as unit clusters
    // compressed where they lie (pipeline mode 6): region, plane and ROI
    // answers cross the wire bit for bit as the direct engine gives them.
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 256),
        max_grid_size: 16,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.02,
        grid_eff: 0.7,
    };
    let h = build_hierarchy(&WarpXScenario::new(1), &cfg, 0.0);
    let path = tmp("placed");
    write_amric(&path, &h, &AmricConfig::interp(1e-3), 8).unwrap();
    let direct = QueryEngine::open(&path).unwrap();
    let mut server = Server::new(test_config());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();
    let handle = client.open(path.to_str().unwrap()).unwrap().handle;
    let corners = |b: &IntBox| (b.lo.0, b.hi.0);
    let domain = direct.meta().levels[0].domain;
    let slab = IntBox::new(IntVect::new(3, 5, 100), IntVect::new(12, 9, 170));
    for field in [0u32, 3] {
        for region in [domain, slab] {
            let (lo, hi) = corners(&region);
            let got = client.region(handle, field, 0, lo, hi).unwrap();
            let expect = direct.level_region(field as usize, 0, region).unwrap();
            assert_eq!(wire_bits(&got), direct_bits(&expect), "{region:?}");
        }
        let got = client.plane(handle, field, 0, 2, 37).unwrap();
        let expect = direct.plane_slice(field as usize, 0, 2, 37).unwrap();
        assert_eq!(wire_bits(&got), direct_bits(&expect));
        let (lo, hi) = corners(&slab);
        let got = client.roi(handle, field, lo, hi, WireSelect::All).unwrap();
        let expect = direct.roi(field as usize, slab, LevelSelect::All).unwrap();
        assert_eq!(
            got.levels.iter().map(wire_bits).collect::<Vec<_>>(),
            expect.levels.iter().map(direct_bits).collect::<Vec<_>>()
        );
    }
    client.shutdown_server().unwrap();
    server.shutdown_and_join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn rewritten_plotfile_invalidates_stale_engine() {
    let path = tmp("stale");
    write_plotfile(94, &path);
    let mut server = Server::new(test_config());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();

    let first = client.open(path.to_str().unwrap()).unwrap();
    let before = client.point(first.handle, 0, [8, 8, 8]).unwrap().unwrap();

    // In-situ pipelines rewrite snapshots in place: replace the file's
    // bytes with a different run.
    write_plotfile(95, &path);
    let direct = QueryEngine::open(&path).unwrap();
    let expect = direct
        .point_sample(0, IntVect::new(8, 8, 8))
        .unwrap()
        .unwrap();

    let second = client.open(path.to_str().unwrap()).unwrap();
    assert_ne!(
        second.file_id, first.file_id,
        "stale engine must not be reused"
    );
    assert_ne!(second.generation, first.generation);
    let after = client.point(second.handle, 0, [8, 8, 8]).unwrap().unwrap();
    assert_eq!(
        after.2.to_bits(),
        expect.value.to_bits(),
        "new bytes served"
    );
    assert_ne!(
        after.2.to_bits(),
        before.2.to_bits(),
        "seeds differ by design"
    );

    let stats = client.stats().unwrap();
    assert_eq!(stats.catalog.reopens_stale, 1);
    assert_eq!(
        stats.catalog.open_files, 1,
        "stale entry replaced, not accumulated"
    );

    // The *old* handle now points at a dropped catalog entry — still
    // answers (the engine lives while the handle holds it), from the old
    // bytes' in-memory state or fails the read; either way no panic and
    // the connection survives.
    let _ = client.point(first.handle, 0, [8, 8, 8]);
    assert!(
        client.stats().is_ok(),
        "connection must survive stale-handle use"
    );

    client.shutdown_server().unwrap();
    server.shutdown_and_join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn oversized_requests_get_typed_rejection() {
    let path = tmp("toolarge");
    write_plotfile(96, &path);
    let mut cfg = test_config();
    cfg.admission.max_request_bytes = 16 << 10; // reject almost everything
    let mut server = Server::new(cfg);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();
    let info = client.open(path.to_str().unwrap()).unwrap();
    let err = client
        .roi(info.handle, 0, [0, 0, 0], [15, 15, 15], WireSelect::All)
        .unwrap_err();
    match err {
        ServeError::Remote { code, .. } => assert_eq!(code, ErrorCode::TooLarge),
        other => panic!("expected typed TooLarge, got {other}"),
    }
    // The rejection came from the plan's cost: no stored byte was read,
    // nothing decoded, and the request was never classified.
    let stats = client.stats().unwrap();
    assert_eq!(stats.rejected_too_large, 1);
    assert_eq!((stats.interactive_queries, stats.scan_queries), (0, 0));
    assert_eq!(
        (
            stats.files[0].engine.read_bytes,
            stats.files[0].engine.chunks_decoded
        ),
        (0, 0)
    );
    // Connection is intact and small queries still pass.
    assert!(client.point(info.handle, 0, [1, 1, 1]).is_ok());
    client.shutdown_server().unwrap();
    server.shutdown_and_join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn admission_charges_the_answer_not_only_the_decode() {
    // A sparsely refined level decodes little and answers its whole dense
    // box: the full fine domain costs two small chunks to decode but a
    // 32³ box to answer. A bound between the two must refuse it, before
    // any byte is read, and still answer a patch-sized region.
    let path = tmp("answer-bytes");
    write_plotfile(99, &path);
    let direct = QueryEngine::open(&path).unwrap();
    let fine = direct.meta().levels[1].domain;
    let patch = *direct.meta().levels[1].boxes.get(0);
    let full_plan = direct.plan_region(0, 1, fine).unwrap();
    let patch_plan = direct.plan_region(0, 1, patch).unwrap();
    let (decode, answer) = (full_plan.cost().decode_bytes, full_plan.answer_bytes());
    assert_eq!(answer, fine.num_cells() * 8);
    assert!(
        patch_plan.cost().decode_bytes <= decode && decode < answer,
        "fixture must be sparse: decodes {decode} B, answers {answer} B"
    );
    let mut cfg = test_config();
    cfg.admission.max_request_bytes = (decode + answer) / 2;
    assert!(patch_plan.answer_bytes() <= cfg.admission.max_request_bytes);

    let mut server = Server::new(cfg);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();
    let handle = client.open(path.to_str().unwrap()).unwrap().handle;
    let corners = |b: &IntBox| (b.lo.0, b.hi.0);
    let (lo, hi) = corners(&fine);
    match client.region(handle, 0, 1, lo, hi).unwrap_err() {
        ServeError::Remote { code, message } => {
            assert_eq!(code, ErrorCode::TooLarge, "{message}");
            assert!(message.contains(&answer.to_string()), "{message}");
        }
        other => panic!("expected typed TooLarge, got {other}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.rejected_too_large, 1);
    assert_eq!((stats.interactive_queries, stats.scan_queries), (0, 0));
    assert_eq!(
        (
            stats.files[0].engine.read_bytes,
            stats.files[0].engine.chunks_decoded
        ),
        (0, 0),
        "refused before any byte was read"
    );
    // Same connection, same level, one patch: answered, bitwise.
    let (lo, hi) = corners(&patch);
    let got = client.region(handle, 0, 1, lo, hi).unwrap();
    let expect = direct.level_region(0, 1, patch).unwrap();
    assert_eq!(wire_bits(&got), direct_bits(&expect));
    assert_eq!(client.stats().unwrap().rejected_too_large, 1);

    client.shutdown_server().unwrap();
    server.shutdown_and_join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn scans_hold_the_gate_once_per_chunk_batch() {
    let path = tmp("batches");
    write_plotfile(97, &path);
    // Everything is scan-class. A 32 KiB batch holds both of the file's
    // small coarse chunks but only one ~88 KiB fine chunk, so the three
    // plans below take fewer holds than chunks, one per chunk, and one.
    let mut cfg = test_config();
    cfg.admission.scan_threshold_bytes = 1;
    let adm = cfg.admission;
    let mut server = Server::new(cfg);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();
    let handle = client.open(path.to_str().unwrap()).unwrap().handle;
    let direct = QueryEngine::open(&path).unwrap();

    // The same three plans the handlers build, planned on a direct engine.
    let full = IntBox::from_extents(16, 16, 16);
    let fine = IntBox::from_extents(32, 32, 32);
    let plans = [
        direct.plan_roi(0, full, LevelSelect::All).unwrap(),
        direct.plan_region(1, 1, fine).unwrap(),
        direct.plan_plane(2, 0, 1, 5).unwrap(),
    ];
    let mut seen = client.stats().unwrap();
    for (i, plan) in plans.iter().enumerate() {
        match i {
            0 => drop(
                client
                    .roi(handle, 0, [0; 3], [15; 3], WireSelect::All)
                    .unwrap(),
            ),
            1 => drop(client.region(handle, 1, 1, [0; 3], [31; 3]).unwrap()),
            _ => drop(client.plane(handle, 2, 0, 1, 5).unwrap()),
        }
        let now = client.stats().unwrap();
        let cost = plan.cost();
        assert_eq!(now.scan_queries - seen.scan_queries, 1, "query {i}");
        let holds = now.scan_slabs - seen.scan_slabs;
        assert_eq!(
            holds,
            plan.batches(adm.scan_slab_bytes).len() as u64,
            "query {i}: one gate hold per chunk batch"
        );
        assert!(
            (1..=cost.chunks as u64).contains(&holds),
            "query {i}: {holds} holds for {} chunks",
            cost.chunks
        );
        // Cold engine, distinct fields: the scan decoded its plan's
        // chunks exactly once.
        let (f_now, f_seen) = (&now.files[0].engine, &seen.files[0].engine);
        assert_eq!(
            f_now.chunks_decoded - f_seen.chunks_decoded,
            cost.chunks as u64,
            "query {i}"
        );
        assert_eq!(
            f_now.decoded_bytes - f_seen.decoded_bytes,
            cost.decode_bytes,
            "query {i}"
        );
        seen = now;
    }
    client.shutdown_server().unwrap();
    server.shutdown_and_join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn invalid_query_arguments_are_typed_planning_errors() {
    let path = tmp("badargs");
    write_plotfile(98, &path);
    let mut server = Server::new(test_config());
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let mut client = Client::connect_tcp(addr).unwrap();
    let h = client.open(path.to_str().unwrap()).unwrap().handle;
    let (lo, hi) = ([0; 3], [3; 3]);
    let far = ([99; 3], [100; 3]);
    let outcomes = [
        (
            "roi: field",
            client.roi(h, 99, lo, hi, WireSelect::All).err(),
        ),
        (
            "roi: level",
            client.roi(h, 0, lo, hi, WireSelect::Level(9)).err(),
        ),
        (
            "roi: empty range",
            client.roi(h, 0, lo, hi, WireSelect::Range(1, 0)).err(),
        ),
        ("region: field", client.region(h, 99, 0, lo, hi).err()),
        ("region: level", client.region(h, 0, 9, lo, hi).err()),
        (
            "region: misses the domain",
            client.region(h, 0, 0, far.0, far.1).err(),
        ),
        ("plane: field", client.plane(h, 99, 0, 0, 0).err()),
        ("plane: level", client.plane(h, 0, 9, 0, 0).err()),
        ("plane: axis", client.plane(h, 0, 0, 3, 0).err()),
        ("plane: coord", client.plane(h, 0, 0, 2, -5).err()),
    ];
    let n = outcomes.len() as u64;
    for (what, err) in outcomes {
        match err {
            Some(ServeError::Remote { code, .. }) => {
                assert_eq!(code, ErrorCode::BadQuery, "{what}")
            }
            other => panic!("{what}: expected typed BadQuery, got {other:?}"),
        }
    }
    // Planning errors never reach classification, the gate or the file.
    let stats = client.stats().unwrap();
    assert_eq!(stats.errors, n);
    assert_eq!(
        (
            stats.interactive_queries,
            stats.scan_queries,
            stats.scan_slabs
        ),
        (0, 0, 0)
    );
    assert_eq!(stats.files[0].engine.read_bytes, 0);
    // A ROI that merely misses every domain is a valid, empty answer.
    let empty = client.roi(h, 0, far.0, far.1, WireSelect::All).unwrap();
    assert!(empty.levels.is_empty());
    client.shutdown_server().unwrap();
    server.shutdown_and_join();
    std::fs::remove_file(&path).ok();
}

#[test]
fn same_stat_rewrite_is_detected_by_fingerprint() {
    // Back-to-back in-situ rewrite: same length, mtime restored to the
    // original value (coarse-granularity filesystems produce identical
    // stamps on their own), different bytes. `(len, mtime_ns)` alone
    // cannot distinguish the generations — the sampled content
    // fingerprint must.
    let path = tmp("fingerprint");
    write_plotfile(96, &path);
    let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
    let gen_before = Generation::of(&path).unwrap();

    let catalog = Catalog::new(4 << 20, 4);
    let first = catalog.open(&path).unwrap();

    // Rewrite: flip bytes inside an interior fingerprint probe window
    // (offset formula mirrors the sampler), keep the length, restore the
    // mtime so the stat-visible identity is byte-for-byte unchanged.
    let mut bytes = std::fs::read(&path).unwrap();
    let off = (bytes.len() / 9) * 4 + 7;
    for b in &mut bytes[off..off + 16] {
        *b ^= 0xA5;
    }
    std::fs::write(&path, &bytes).unwrap();
    std::fs::File::options()
        .write(true)
        .open(&path)
        .unwrap()
        .set_modified(mtime)
        .unwrap();

    let gen_after = Generation::of(&path).unwrap();
    assert_eq!(gen_after.len, gen_before.len, "rewrite preserved length");
    assert_eq!(
        gen_after.mtime_ns, gen_before.mtime_ns,
        "rewrite preserved mtime"
    );
    assert_ne!(
        gen_after.fingerprint, gen_before.fingerprint,
        "content fingerprint must see the rewrite"
    );

    // Catalog path: the pooled engine must be invalidated, not reused.
    // (The patched file may or may not still parse as a plotfile; either
    // way the stale engine is gone and the counter says why.)
    if let Ok(second) = catalog.open(&path) {
        assert_ne!(second.file_id, first.file_id);
    }
    assert_eq!(catalog.stats().reopens_stale, 1);
    assert_eq!(catalog.stats().open_hits, 0);
    std::fs::remove_file(&path).ok();
}
