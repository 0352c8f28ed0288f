//! The metric vocabulary: every end-to-end and per-layer metric by name,
//! with its unit, direction and — for end-to-end metrics — regression
//! bound. `BENCHMARK.json` lists the same names (a test holds the two
//! together); later issues name their claims with them.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// A per-layer metric, with the end-to-end metric it should move.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Counts that must repeat bit-for-bit on the same seed.
    pub exact: bool,
    /// Which end-to-end metric a change here should move, and where.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload with `--trace 0`. A
/// sampled timing is its floor — each distinct operation's best
/// repetition, averaged over the operations — at the nominal clock
/// (`stats`, `host::CALIB_NOMINAL_MS`).
/// Failed ÷ attempted operations is the eleventh: it travels in the
/// result line's `failed` and `attempted` keys, because a metric that is
/// 0 on every healthy run cannot carry a relative bound.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25,
        what: "one set-up of the workload once its inputs exist: both fixture plotfiles written, engine opened, two servers started, clients connected and files opened (median of 5)" },
    EndToEnd { name: "write_mb_s", unit: "MB/s", better: Higher, bound: 0.25,
        what: "dump: raw snapshot bytes / time of write_amric (hierarchy in memory -> finished container)" },
    EndToEnd { name: "read_full_mb_s", unit: "MB/s", better: Higher, bound: 0.25,
        what: "restart: the same raw bytes / time of read_amric_hierarchy" },
    EndToEnd { name: "compression_ratio", unit: "x", better: Higher, bound: 0.15,
        what: "WriteReport::compression_ratio() of the t=0 snapshot; repeats exactly on one seed, moves about 4 % between seeds" },
    EndToEnd { name: "roi_cold_ms", unit: "ms", better: Lower, bound: 0.25,
        what: "QueryEngine::open + one ROI box (an octant of the seeded cut: half-edge on average), all levels, on a fresh engine (file in the OS page cache)" },
    EndToEnd { name: "roi_warm_ms", unit: "ms", better: Lower, bound: 0.25,
        what: "the same ROI on a long-lived engine whose chunk cache holds the working set" },
    EndToEnd { name: "point_us", unit: "us", better: Lower, bound: 0.25,
        what: "1000-point point_sample batch on the warm engine / 1000" },
    EndToEnd { name: "serve_scan_ms", unit: "ms", better: Lower, bound: 0.25,
        what: "client-side round trip of the same ROI queries over loopback TCP, files rotating, warm server cache, 1 closed-loop client" },
    EndToEnd { name: "serve_scan_cold_ms", unit: "ms", better: Lower, bound: 0.25,
        what: "the same against a server whose cache cannot hold one decoded coarse chunk, 1 client" },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.20,
        what: "VmHWM of the workload's process when it ends" },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
        moves,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
        moves,
    }
}

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: &[Layer] = &[
    layer("sz_codec.lr_compress_mb_s", "MB/s", Higher, "write_mb_s on nyx_lr; none on warpx_interp"),
    layer("sz_codec.lr_decompress_mb_s", "MB/s", Higher, "read_full_mb_s, roi_cold_ms, serve_scan_cold_ms on nyx_lr; none on warpx_interp"),
    layer("sz_codec.interp_compress_mb_s", "MB/s", Higher, "write_mb_s on warpx_interp; none on nyx_lr"),
    layer("sz_codec.interp_decompress_mb_s", "MB/s", Higher, "read_full_mb_s, roi_cold_ms, serve_scan_cold_ms on warpx_interp; none on nyx_lr"),
    layer("sz_codec.huffman_encode_msym_s", "Msym/s", Higher, "write_mb_s on nyx_lr; none on warpx_interp (near-constant stream)"),
    layer("sz_codec.huffman_decode_msym_s", "Msym/s", Higher, "read_full_mb_s, roi_cold_ms on nyx_lr; none on warpx_interp"),
    layer("sz_codec.lossless_compress_mb_s", "MB/s", Higher, "write_mb_s on nyx_lr"),
    layer("sz_codec.lossless_decompress_mb_s", "MB/s", Higher, "read_full_mb_s, roi_cold_ms on nyx_lr"),
    exact("sz_codec.bits_per_value", "bits", Lower, "compression_ratio on both"),
    layer("amric.preprocess.plan_ms", "ms", Lower, "write_mb_s, warpx_interp most"),
    layer("amric.preprocess.extract_mb_s", "MB/s", Higher, "write_mb_s, warpx_interp most"),
    exact("amric.preprocess.redundant_frac", "fraction", Higher, "compression_ratio on both"),
    layer("amric.pipeline.compress_mb_s", "MB/s", Higher, "write_mb_s on both"),
    layer("amric.pipeline.decompress_mb_s", "MB/s", Higher, "read_full_mb_s, roi_cold_ms, serve_scan_cold_ms on both"),
    layer("amric.pipeline.overhead_frac", "fraction", Lower, "write_mb_s: reorganize and envelope on top of the bare codec"),
    layer("amric.writer.total_ms", "ms", Lower, "write_mb_s (the traced dump itself)"),
    layer("amric.writer.prep_s", "s", Lower, "write_mb_s: WriteReport slowest-rank staging"),
    layer("amric.writer.compute_s", "s", Lower, "write_mb_s: WriteReport slowest-rank encode"),
    layer("amric.writer.residual_frac", "fraction", Lower, "write_mb_s: share of a dump the replayed layers do not explain"),
    layer("amric.reader.meta_ms", "ms", Lower, "read_full_mb_s, roi_cold_ms: metadata parse and unit-plan rebuild"),
    layer("amric.reader.scatter_mb_s", "MB/s", Higher, "read_full_mb_s on both"),
    layer("amric.reader.residual_frac", "fraction", Lower, "read_full_mb_s: share of a restart the replayed layers do not explain"),
    layer("h5lite.write_frames_ms", "ms", Lower, "write_mb_s, warpx_interp most"),
    layer("h5lite.finish_ms", "ms", Lower, "write_mb_s, warpx_interp most"),
    layer("h5lite.open_ms", "ms", Lower, "roi_cold_ms, read_full_mb_s"),
    layer("h5lite.read_chunk_raw_mb_s", "MB/s", Higher, "roi_cold_ms, read_full_mb_s"),
    exact("h5lite.filter_calls", "count", Lower, "write_mb_s: one call per rank, level and field"),
    exact("h5lite.write_calls", "count", Lower, "write_mb_s"),
    exact("h5lite.bytes_written", "bytes", Lower, "compression_ratio"),
    exact("h5lite.container_overhead_frac", "fraction", Lower, "compression_ratio: directory, index and metadata share of the file"),
    layer("h5lite.mem_vs_file", "ratio", Higher, "write_mb_s: in-memory dump time / file dump time; 1 - this is the syscall and sync share"),
    layer("rankpar.collective_us", "us", Lower, "write_mb_s, warpx_interp most"),
    layer("rankpar.run_ranks_spawn_us", "us", Lower, "write_mb_s, warpx_interp most"),
    layer("rankpar.rank_scaling", "ratio", Higher, "write_mb_s: the measured dump (1 rank x 1 worker) / the same cells from 2 ranks x 1 worker"),
    layer("rankpar.pool_scaling", "ratio", Higher, "write_mb_s: the measured dump / the same dump with 2 pool workers"),
    layer("amr_query.open_ms", "ms", Lower, "roi_cold_ms"),
    layer("amr_query.plan_us", "us", Lower, "roi_cold_ms, roi_warm_ms"),
    exact("amr_query.chunks_per_roi", "count", Lower, "roi_cold_ms"),
    exact("amr_query.read_bytes_per_roi", "bytes", Lower, "roi_cold_ms"),
    exact("amr_query.useful_frac", "fraction", Higher, "roi_cold_ms: answer bytes / decoded bytes caps what a faster decoder returns"),
    layer("amr_query.assemble_mb_s", "MB/s", Higher, "roi_warm_ms, serve_scan_ms"),
    exact("amr_query.cache_hit_rate", "fraction", Higher, "roi_warm_ms: must read 1 on the warm engine"),
    layer("amr_query.roi_starved_ms", "ms", Lower, "guards a warm-path gain bought with cache memory"),
    layer("amr_query.evictions_per_roi", "count", Lower, "the same, as a count (1 for a box that misses the fine patch, 2 otherwise)"),
    layer("amr_query.plane_ms", "ms", Lower, "roi_warm_ms (same assemble path, one plane)"),
    layer("amr_query.prefetch_scaling", "ratio", Higher, "roi_cold_ms: cold ROI at 1 prefetch worker / at 2"),
    layer("amr_query.cold_residual_frac", "fraction", Lower, "roi_cold_ms: share open + read + decode + assemble do not explain"),
    layer("amr_serve.encode_mb_s", "MB/s", Higher, "serve_scan_ms, serve_scan_cold_ms"),
    layer("amr_serve.decode_mb_s", "MB/s", Higher, "serve_scan_ms, serve_scan_cold_ms"),
    layer("amr_serve.frame_mb_s", "MB/s", Higher, "serve_scan_ms, serve_scan_cold_ms"),
    layer("amr_serve.socket_overhead_ms", "ms", Lower, "serve_scan_ms minus the in-process warm ROI of the same box"),
    layer("amr_serve.point_rtt_p50_us", "us", Lower, "none: the kernel's wake-up path, informational"),
    layer("amr_serve.point_rtt_p99_us", "us", Lower, "none: informational"),
    layer("amr_serve.scan_two_clients_ms", "ms", Lower, "serve_scan_ms when two connections scan at once (warm)"),
    layer("amr_serve.gate_wait_frac", "fraction", Lower, "serve_scan_cold_ms under contention: (2-client - 1-client) / 2-client cold scan"),
    exact("amr_serve.scan_slabs_per_scan", "count", Lower, "serve_scan_ms"),
    exact("amr_serve.response_bytes_per_scan", "bytes", Lower, "serve_scan_ms"),
    exact("amr_serve.errors", "count", Lower, "any served request answered with an error frame"),
    layer("amric.baseline.cr_gain", "ratio", Higher, "the paper's headline shape: AMRIC CR / AMReX-filter CR; not a gate"),
    layer("amric.baseline.filter_call_ratio", "ratio", Higher, "AMReX-filter calls / AMRIC calls; not a gate"),
    layer("amric.baseline.write_speedup", "ratio", Higher, "AMReX-filter dump time / AMRIC dump time; not a gate"),
    layer("harness.generate_s", "s", Lower, "none: input generation, outside setup_s"),
    layer("harness.calib_ms", "ms", Lower, "none: a fixed scalar loop between rounds; its spread marks a noisy host"),
    layer("harness.calib_spread", "fraction", Lower, "none: (max - min) / median of the per-round calibration; above 0.10 the run is marked noisy"),
    layer("harness.cpu_util", "fraction", Higher, "none: process CPU / (wall x cores) over the measured phase"),
    layer("harness.steal_frac", "fraction", Lower, "none: /proc/stat steal share over the measured phase"),
    layer("harness.ops_total", "count", Higher, "none: operations attempted; a run that did less work shows"),
    layer("harness.trace_overhead_frac", "fraction", Lower, "none: (traced - untraced) / untraced dump time within the traced run"),
];

/// Is `name` a legal metric or workload name for `BENCHMARK.json`?
pub fn legal_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Is `unit` a legal unit for `BENCHMARK.json`?
pub fn legal_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;
    use crate::json::{self, Value};

    #[test]
    fn names_and_units_fit_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(legal_name(name), "{name}");
            assert!(legal_unit(unit), "{name}: {unit}");
            assert!(!seen.contains(&name), "{name} used twice");
            seen.push(name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(!legal_name("") && !legal_name(".x") && !legal_name("a b"));
        assert!(!legal_name(&"x".repeat(65)) && !legal_unit("µs") && !legal_unit(""));
    }

    /// `BENCHMARK.json` must list exactly these workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let b = json::parse(&text).unwrap();
        let keys: Vec<&str> = b
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let s = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let listed = |k: &str| b.get(k).and_then(Value::as_arr).unwrap().to_vec();

        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, spec) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(
                (s(w, "name"), s(w, "why")),
                (spec.name.into(), spec.why.into())
            );
            assert_eq!(w.as_obj().unwrap().len(), 2);
        }
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(s(j, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(
                j.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert_eq!(j.as_obj().unwrap().len(), 4);
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(s(j, "name"), m.name);
            assert_eq!(s(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(s(j, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(j.as_obj().unwrap().len(), 3);
        }
        let secs = b.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs == secs.trunc());
    }
}
