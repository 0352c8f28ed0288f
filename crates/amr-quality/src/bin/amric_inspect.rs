//! `amric-inspect` — h5ls-style inspection of h5lite plotfiles.
//!
//! ```text
//! amric_inspect <file.h5l>              # dataset table + totals
//! amric_inspect <file.h5l> --chunks     # per-chunk detail
//! amric_inspect <file.h5l> --header     # AMR header, boxes, temporal linkage (no decode)
//! amric_inspect <file.h5l> --index      # chunk index + per-level ratios
//! amric_inspect <file.h5l> --stats      # query-engine counters after probes
//! amric_inspect --quality <ref> <cmp>   # per-level PSNR/SSIM table of cmp vs ref
//! ```
//!
//! (Hosted by `amr-quality` — `--quality` compares two plotfiles through
//! a pair of `QueryEngine`s, the layer above the `amric` pipeline crate.)

use amric::pipeline::{stream_layout, StreamLayout};
use amric::writer::FILTER_AMRIC;
use h5lite::prelude::*;
use std::process::ExitCode;
use sz_codec::lr::FrameLayout;

fn human(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

fn filter_name(id: u32) -> &'static str {
    match id {
        0 => "none",
        1 => "sz",
        100 => "amric",
        _ => "custom",
    }
}

/// A lossless frame: its mode, and its bytes stored → expanded.
fn frame(f: &FrameLayout) -> String {
    format!("lossless {} {} → {}", f.mode, f.stored, f.bytes)
}

/// Why an AMRIC chunk is stored the way it is: its stream mode; for the
/// placed mode the clusters it compressed in place; for SZ_L/R under SLE
/// its groups, its head and its data part.
fn stream_mode(r: &H5Reader, name: &str, chunk: usize) -> String {
    let layout = r
        .read_chunk_raw(name, chunk)
        .map_err(|e| e.to_string())
        .and_then(|raw| stream_layout(&raw).map_err(|e| e.to_string()));
    match layout {
        Ok(StreamLayout {
            mode,
            placed: Some(p),
            ..
        }) => format!(
            "  mode {mode}  clusters {}  cells {}  holes {:.1}%",
            p.clusters,
            p.cells,
            100.0 * p.holes as f64 / p.cells.max(1) as f64
        ),
        Ok(StreamLayout {
            mode, lr: Some(l), ..
        }) => {
            let data = l.data.as_ref().map_or("in head".into(), frame);
            format!(
                "  mode {mode}  groups {}  head {}  data {data}",
                l.groups,
                frame(&l.head)
            )
        }
        Ok(StreamLayout { mode, .. }) => format!("  mode {mode}"),
        Err(e) => format!("  mode ? ({e})"),
    }
}

fn print_datasets(r: &H5Reader, chunks: bool) {
    let mut total_logical = 0u64;
    let mut total_stored = 0u64;
    println!(
        "{:<28} {:>12} {:>12} {:>10} {:>8} {:>7} {:>6}",
        "dataset", "elems", "stored", "chunk", "filter", "mode", "CR"
    );
    for name in r.dataset_names() {
        let m = r.meta(name).expect("listed dataset");
        let stored = m.stored_bytes();
        total_logical += m.total_elems * 8;
        total_stored += stored;
        println!(
            "{:<28} {:>12} {:>12} {:>10} {:>8} {:>7} {:>6.1}",
            name,
            m.total_elems,
            human(stored),
            m.chunk_elems,
            filter_name(m.filter_id),
            match m.filter_mode {
                FilterMode::Standard => "std",
                FilterMode::SizeAware => "aware",
            },
            m.compression_ratio(),
        );
        if chunks {
            for (i, c) in m.chunks.iter().enumerate() {
                let layout = match m.filter_id {
                    FILTER_AMRIC => stream_mode(r, name, i),
                    _ => String::new(),
                };
                println!(
                    "    chunk {:<4} offset {:>10}  stored {:>10}  logical {:>10}{layout}",
                    i,
                    c.offset,
                    human(c.stored_bytes),
                    c.logical_elems
                );
            }
        }
    }
    println!(
        "\ntotals: logical {} stored {} overall CR {:.1}",
        human(total_logical),
        human(total_stored),
        total_logical as f64 / total_stored.max(1) as f64
    );
}

fn codec_name(id: u32) -> String {
    if id == CODEC_RAW {
        return "raw".into();
    }
    u16::try_from(id)
        .ok()
        .and_then(sz_codec::codec::CodecId::from_u16)
        .map(|c| c.name().to_string())
        .unwrap_or_else(|| format!("#{id}"))
}

/// Dump every dataset's stored chunk index (one `-` row for a dataset
/// the writer did not index: `meta/*`, baseline files) plus a per-level
/// compression summary.
fn print_index(r: &H5Reader) {
    println!(
        "{:<28} {:>5} {:>10} {:>10} {:>10} {:>12}  extent",
        "dataset", "chunk", "offset", "stored", "logical", "codec"
    );
    for name in r.dataset_names() {
        let m = r.meta(name).expect("listed dataset");
        let Some(index) = r.chunk_index(name).expect("listed dataset") else {
            println!("{name:<28} {:>5}", "-");
            continue;
        };
        for (i, (rec, e)) in m.chunks.iter().zip(&index.entries).enumerate() {
            let extent = match e.extent {
                Some((lo, hi)) => format!(
                    "[{},{},{}]..[{},{},{}]",
                    lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]
                ),
                None => "-".into(),
            };
            println!(
                "{:<28} {:>5} {:>10} {:>10} {:>10} {:>12}  {}",
                if i == 0 { name } else { "" },
                i,
                rec.offset,
                rec.stored_bytes,
                rec.logical_elems,
                codec_name(e.codec_id),
                extent
            );
        }
    }
    // Per-level compression ratios over the field datasets.
    println!(
        "\n{:<8} {:>10} {:>12} {:>12} {:>6}",
        "level", "datasets", "logical", "stored", "CR"
    );
    let mut level = 0usize;
    loop {
        let prefix = format!("level_{level}/");
        let members: Vec<_> = r
            .dataset_names()
            .into_iter()
            .filter(|n| n.starts_with(&prefix))
            .collect();
        if members.is_empty() {
            break;
        }
        let logical: u64 = members
            .iter()
            .map(|n| r.meta(n).expect("listed").total_elems * 8)
            .sum();
        let stored: u64 = members
            .iter()
            .map(|n| r.meta(n).expect("listed").stored_bytes())
            .sum();
        println!(
            "{:<8} {:>10} {:>12} {:>12} {:>6.1}",
            level,
            members.len(),
            human(logical),
            human(stored),
            logical as f64 / stored.max(1) as f64
        );
        level += 1;
    }
}

fn print_header(path: &str) {
    let engine = match amr_query::QueryEngine::open(path) {
        Ok(engine) => engine,
        Err(e) => {
            println!("not an AMRIC plotfile ({e}); raw dataset listing only");
            return;
        }
    };
    let meta = engine.meta();
    println!(
        "AMRIC plotfile: {} levels, fields {:?}",
        meta.num_levels(),
        meta.field_names
    );
    println!(
        "blocking factor {}, redundancy removed: {}",
        meta.bf, meta.remove_redundancy
    );
    for (l, level) in meta.levels.iter().enumerate() {
        let n = level.domain.size();
        println!(
            "  level {l}: domain {}x{}x{}, {} boxes, density {:.2}%",
            n.get(0),
            n.get(1),
            n.get(2),
            level.boxes.len(),
            level.boxes.density_in(&level.domain) * 100.0
        );
    }
    if let Some(t) = engine.linkage() {
        match t.reference_id {
            Some(r) => println!(
                "temporal snapshot {}, delta chunks reference snapshot {r}",
                t.snapshot_id
            ),
            None => println!(
                "temporal snapshot {}, keyframe (no reference)",
                t.snapshot_id
            ),
        }
    }
}

/// Exercise a representative query workload through an
/// [`amr_query::QueryEngine`]
/// and dump the engine/cache counter snapshot — the same atomics the
/// `amr-serve` stats endpoint reports per open file.
fn print_stats(path: &str) {
    use amr_query::prelude::*;
    let engine = match QueryEngine::open(path) {
        Ok(e) => e,
        Err(e) => {
            println!("query stats unavailable: {e}");
            return;
        }
    };
    let meta = engine.meta();
    let domain = meta.levels[0].domain;
    let center = amr_mesh::IntVect::new(
        (domain.lo.get(0) + domain.hi.get(0)) / 2,
        (domain.lo.get(1) + domain.hi.get(1)) / 2,
        (domain.lo.get(2) + domain.hi.get(2)) / 2,
    );
    // Probe workload: a point, a mid-plane, an octant ROI (cold), and
    // the same ROI again (warm) so hit/miss counters show both paths.
    engine.point_sample(0, center).ok();
    engine.plane_slice(0, 0, 2, center.get(2)).ok();
    let octant = amr_mesh::IntBox::new(domain.lo, center);
    engine.roi(0, octant, LevelSelect::All).ok();
    engine.roi(0, octant, LevelSelect::All).ok();
    let s = engine.stats();
    println!("query-engine stats after probe workload (point, plane, 2x ROI):");
    println!(
        "  queries: {} roi, {} region, {} plane, {} point",
        s.roi_queries, s.region_queries, s.plane_queries, s.point_queries
    );
    println!(
        "  chunks decoded: {} ({} decoded, {} compressed read)",
        s.chunks_decoded,
        human(s.decoded_bytes),
        human(s.read_bytes)
    );
    if let Ok(cost) = engine.roi_cost(0, domain, LevelSelect::All) {
        println!(
            "  full-domain ROI estimate: {} chunks, {} decoded",
            cost.chunks,
            human(cost.decode_bytes)
        );
    }
    let c = &s.cache;
    println!("  cache: {} hits / {} misses (rate {:.1}%), {} insertions, {} evictions, resident {} of {}", c.hits, c.misses, c.hit_rate() * 100.0, c.insertions, c.evictions, human(c.resident_bytes), human(c.capacity_bytes));
}

/// Compare `cmp` against `ref` and print the per-level PSNR/SSIM table.
fn print_quality(reference: &str, candidate: &str) -> ExitCode {
    use amr_query::QueryEngine;
    let open = |p: &str| match QueryEngine::open(p) {
        Ok(e) => Some(e),
        Err(e) => {
            eprintln!("cannot open {p}: {e}");
            None
        }
    };
    let (Some(re), Some(ce)) = (open(reference), open(candidate)) else {
        return ExitCode::FAILURE;
    };
    match amr_quality::QualityReport::compare(&re, &ce) {
        Ok(report) => {
            println!("quality of {candidate} vs {reference}:");
            print!("{}", report.render_table());
            println!("worst-level PSNR: {} dB", report.min_psnr());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("comparison failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if args.iter().any(|a| a == "--quality") {
        if let [reference, candidate] = paths[..] {
            return print_quality(reference, candidate);
        }
        eprintln!("usage: amric_inspect --quality <reference.h5l> <candidate.h5l>");
        return ExitCode::FAILURE;
    }
    let Some(path) = paths.first().copied() else {
        eprintln!(
            "usage: amric_inspect <file.h5l> [--chunks] [--header] [--index] [--stats]\n       amric_inspect --quality <reference.h5l> <candidate.h5l>"
        );
        return ExitCode::FAILURE;
    };
    let r = match H5Reader::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_datasets(&r, args.iter().any(|a| a == "--chunks"));
    if args.iter().any(|a| a == "--index") {
        println!();
        print_index(&r);
    }
    if args.iter().any(|a| a == "--header") {
        println!();
        print_header(path);
    }
    if args.iter().any(|a| a == "--stats") {
        println!();
        print_stats(path);
    }
    ExitCode::SUCCESS
}
