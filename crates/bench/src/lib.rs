//! Shared experiment harness for the paper-reproduction binaries
//! (`src/bin/table*.rs`, `src/bin/fig*.rs`); see `REPRODUCE.md`.
//!
//! Everything here is deterministic (fixed seeds); the binaries print the
//! same rows/series the paper reports, scaled per README.md. Absolute
//! numbers differ from Summit, the *shape* (who wins, by what factor,
//! where crossovers sit) is the reproduction target.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::read_amric_hierarchy;
use amric::prelude::*;
use amric::reader::read_baseline_hierarchy;
use sz_codec::prelude::*;

/// Which synthetic application drives a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// Cosmology-like (hard to compress).
    Nyx,
    /// Laser-PIC-like (very smooth).
    WarpX,
}

/// One evaluation run (a scaled row of the paper's Table 1).
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// Run name ("Nyx_1", "WarpX_3", ...).
    pub name: &'static str,
    /// Application.
    pub app: App,
    /// Coarse (level-0) domain.
    pub coarse_dims: (i64, i64, i64),
    /// Thread-rank count (weak scaling: cells/rank constant per app).
    pub nranks: usize,
    /// Paper-scale counterpart, for the printed tables.
    pub paper_ranks: usize,
    /// Target tagged fraction (paper's fine density).
    pub fine_fraction: f64,
    /// AMRIC relative error bound (paper Table 1, col 7 first value).
    pub amric_rel_eb: f64,
    /// AMReX-baseline relative error bound (col 7 second value).
    pub amrex_rel_eb: f64,
    /// Fine-level blocking factor = AMRIC unit size.
    pub blocking_factor: i64,
    /// `amr.max_grid_size` per level.
    pub max_grid_size: i64,
    /// Generator seed.
    pub seed: u64,
}

/// The six scaled Table-1 runs. Weak scaling: WarpX keeps 32 768
/// cells/rank, Nyx 16 384 cells/rank (the paper's 8× ratio between the
/// apps' per-rank sizes is kept at 2× to fit the test machine).
pub fn table1_runs() -> Vec<RunSpec> {
    vec![
        RunSpec {
            name: "WarpX_1",
            app: App::WarpX,
            coarse_dims: (32, 32, 128),
            nranks: 4,
            paper_ranks: 64,
            fine_fraction: 0.02,
            amric_rel_eb: 1e-3,
            amrex_rel_eb: 5e-3,
            blocking_factor: 8,
            max_grid_size: 32,
            seed: 101,
        },
        RunSpec {
            name: "WarpX_2",
            app: App::WarpX,
            coarse_dims: (32, 32, 256),
            nranks: 8,
            paper_ranks: 512,
            fine_fraction: 0.02,
            amric_rel_eb: 1e-3,
            amrex_rel_eb: 5e-3,
            blocking_factor: 8,
            max_grid_size: 32,
            seed: 102,
        },
        RunSpec {
            name: "WarpX_3",
            app: App::WarpX,
            coarse_dims: (32, 64, 256),
            nranks: 16,
            paper_ranks: 4096,
            fine_fraction: 0.01,
            amric_rel_eb: 1e-4,
            amrex_rel_eb: 5e-4,
            blocking_factor: 8,
            max_grid_size: 32,
            seed: 103,
        },
        RunSpec {
            name: "Nyx_1",
            app: App::Nyx,
            coarse_dims: (32, 32, 32),
            nranks: 2,
            paper_ranks: 64,
            fine_fraction: 0.014,
            amric_rel_eb: 1e-3,
            amrex_rel_eb: 1e-2,
            blocking_factor: 8,
            max_grid_size: 16,
            seed: 201,
        },
        RunSpec {
            name: "Nyx_2",
            app: App::Nyx,
            coarse_dims: (32, 32, 64),
            nranks: 4,
            paper_ranks: 512,
            fine_fraction: 0.032,
            amric_rel_eb: 1e-3,
            amrex_rel_eb: 1e-2,
            blocking_factor: 8,
            max_grid_size: 16,
            seed: 202,
        },
        RunSpec {
            name: "Nyx_3",
            app: App::Nyx,
            coarse_dims: (32, 64, 64),
            nranks: 8,
            paper_ranks: 4096,
            fine_fraction: 0.017,
            amric_rel_eb: 1e-3,
            amrex_rel_eb: 1e-2,
            blocking_factor: 8,
            max_grid_size: 16,
            seed: 203,
        },
    ]
}

impl RunSpec {
    /// Mesh configuration for this run.
    pub fn amr_config(&self) -> AmrRunConfig {
        AmrRunConfig {
            coarse_dims: self.coarse_dims,
            max_grid_size: self.max_grid_size,
            blocking_factor: self.blocking_factor,
            nranks: self.nranks,
            num_levels: 2,
            fine_fraction: self.fine_fraction,
            grid_eff: 0.7,
        }
    }

    /// Build the hierarchy at time `t`.
    pub fn build(&self, t: f64) -> AmrHierarchy {
        let cfg = self.amr_config();
        match self.app {
            App::Nyx => build_hierarchy(&NyxScenario::new(self.seed), &cfg, t),
            App::WarpX => build_hierarchy(&WarpXScenario::new(self.seed), &cfg, t),
        }
    }
}

/// Rank-local compression workers the harness defaults to: the
/// `AMRIC_WORKERS` env var when set (workers=1 forces the serial
/// reference path), otherwise every available core. Parallelism never
/// changes compressed bytes — only wall-clock — so results stay
/// comparable across machines.
pub fn default_workers() -> usize {
    std::env::var("AMRIC_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// AMRIC(SZ_L/R) configuration with the harness-default write
/// parallelism — what every figure/table binary should build instead of
/// hardcoding the single-threaded preset, so writer-driven experiments
/// pick up one consistent default. Note the `parallelism` field is read
/// only by the in-situ writer (`write_amric` and friends); the offline
/// unit-compression studies (`compress_field_units`) are single-stream
/// and ignore it.
pub fn amric_lr(rel_eb: f64) -> AmricConfig {
    AmricConfig::lr(rel_eb).with_workers(default_workers())
}

/// AMRIC(SZ_Interp) configuration with the harness-default write
/// parallelism (see [`amric_lr`] for which paths read it).
pub fn amric_interp(rel_eb: f64) -> AmricConfig {
    AmricConfig::interp(rel_eb).with_workers(default_workers())
}

/// A temp path under the OS temp dir, unique per (process, tag). The tag
/// is sanitized (method labels contain '/' and parentheses).
pub fn scratch(tag: &str) -> std::path::PathBuf {
    let safe: String = tag
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let mut p = std::env::temp_dir();
    p.push(format!("amric-bench-{}-{safe}.h5l", std::process::id()));
    p
}

/// Measured outcome of writing one snapshot with one method.
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// Method label ("NoComp", "AMReX", "AMRIC(SZ_L/R)", ...).
    pub method: String,
    /// Compression ratio (orig / stored).
    pub compression_ratio: f64,
    /// Mean per-field PSNR of the reconstruction (dB); `None` for NoComp.
    pub psnr: Option<f64>,
    /// Modeled prep seconds (slowest rank).
    pub prep_s: f64,
    /// Modeled I/O seconds including compression (slowest rank).
    pub io_s: f64,
    /// Total filter calls across ranks.
    pub filter_calls: u64,
    /// Stored bytes.
    pub stored_bytes: u64,
    /// Slowest rank's ledger (for paper-scale projection).
    pub worst_ledger: rankpar::IoLedger,
    /// Whether this method's call/write counts scale with per-rank data
    /// volume (true for the chunk-per-1024-elements baseline; false for
    /// one-call-per-field AMRIC and NoComp).
    pub calls_scale_with_data: bool,
}

impl MethodResult {
    /// Project the slowest rank's modeled I/O seconds to the paper-scale
    /// per-rank data volume (`factor` = paper cells/rank ÷ ours). Bytes
    /// and measured compression compute scale with volume; call counts
    /// scale only for methods that issue one call per fixed-size chunk.
    pub fn projected_io_seconds(
        &self,
        factor: f64,
        params: &rankpar::PfsParams,
        nranks: usize,
    ) -> f64 {
        let l = &self.worst_ledger;
        let call_factor = if self.calls_scale_with_data {
            factor
        } else {
            1.0
        };
        let mut p = rankpar::IoLedger {
            bytes_written: (l.bytes_written as f64 * factor) as u64,
            write_calls: (l.write_calls as f64 * call_factor) as u64,
            filter_calls: (l.filter_calls as f64 * call_factor) as u64,
            dataset_creates: l.dataset_creates,
            measured_compute_s: l.measured_compute_s * factor,
        };
        let _ = &mut p;
        rankpar::pfs::job_seconds(&[p], params, nranks)
    }
}

/// Paper per-rank cells ÷ scaled per-rank cells for a run (weak scaling
/// keeps this constant per app): WarpX 128³/32³ = 64, Nyx 64³/16·32² = 16.
pub fn paper_volume_factor(spec: &RunSpec) -> f64 {
    match spec.app {
        App::WarpX => 64.0,
        App::Nyx => 16.0,
    }
}

/// Mean per-field PSNR from read-back verification.
pub fn mean_psnr(checks: &[amric::reader::FieldVerification]) -> f64 {
    let vals: Vec<f64> = checks
        .iter()
        .map(|c| c.stats.psnr())
        .filter(|p| p.is_finite())
        .collect();
    if vals.is_empty() {
        f64::INFINITY
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// The ledger of the slowest rank in a write report.
fn worst(report: &amric::writer::WriteReport) -> rankpar::IoLedger {
    *report
        .ledgers
        .iter()
        .max_by(|a, b| {
            a.measured_compute_s
                .partial_cmp(&b.measured_compute_s)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least one rank")
}

/// Run all four methods of Figs. 17/18 + Tables 2/3 on one spec.
pub fn evaluate_run(spec: &RunSpec, params: &rankpar::PfsParams) -> Vec<MethodResult> {
    let h = spec.build(0.0);
    let mut out = Vec::new();

    // NoComp.
    {
        let path = scratch(&format!("{}-nocomp", spec.name));
        let report = write_nocomp(&path, &h).expect("nocomp write");
        let (prep_s, io_s) = report.modeled_seconds(params);
        out.push(MethodResult {
            method: "NoComp".into(),
            compression_ratio: report.compression_ratio(),
            psnr: None,
            prep_s,
            io_s,
            filter_calls: report.ledgers.iter().map(|l| l.filter_calls).sum(),
            stored_bytes: report.stored_bytes,
            worst_ledger: worst(&report),
            calls_scale_with_data: false,
        });
        std::fs::remove_file(&path).ok();
    }
    // AMReX baseline.
    {
        let path = scratch(&format!("{}-amrex", spec.name));
        let report = write_amrex_baseline(&path, &h, &BaselineConfig::new(spec.amrex_rel_eb))
            .expect("baseline write");
        let pf = read_baseline_hierarchy(&path).expect("baseline read");
        let checks = verify_against(&pf, &h, spec.amrex_rel_eb);
        let (prep_s, io_s) = report.modeled_seconds(params);
        out.push(MethodResult {
            method: "AMReX(1D)".into(),
            compression_ratio: report.compression_ratio(),
            psnr: Some(mean_psnr(&checks)),
            prep_s,
            io_s,
            filter_calls: report.ledgers.iter().map(|l| l.filter_calls).sum(),
            stored_bytes: report.stored_bytes,
            worst_ledger: worst(&report),
            calls_scale_with_data: true,
        });
        std::fs::remove_file(&path).ok();
    }
    // AMRIC variants (harness-default parallelism; bytes are identical
    // to serial, so CR/PSNR stay machine-independent).
    for (label, cfg) in [
        ("AMRIC(SZ_L/R)", amric_lr(spec.amric_rel_eb)),
        ("AMRIC(SZ_Interp)", amric_interp(spec.amric_rel_eb)),
    ] {
        let path = scratch(&format!("{}-{label}", spec.name));
        let report = write_amric(&path, &h, &cfg, spec.blocking_factor).expect("amric write");
        let pf = read_amric_hierarchy(&path).expect("amric read");
        let checks = verify_against(&pf, &h, spec.amric_rel_eb);
        let (prep_s, io_s) = report.modeled_seconds(params);
        out.push(MethodResult {
            method: label.into(),
            compression_ratio: report.compression_ratio(),
            psnr: Some(mean_psnr(&checks)),
            prep_s,
            io_s,
            filter_calls: report.ledgers.iter().map(|l| l.filter_calls).sum(),
            stored_bytes: report.stored_bytes,
            worst_ledger: worst(&report),
            calls_scale_with_data: false,
        });
        std::fs::remove_file(&path).ok();
    }
    out
}

/// Single-field ("baryon density" only) view of the Nyx scenario — the §3
/// studies use one field, and skipping the other five makes data
/// generation 6× cheaper.
pub struct NyxDensity(pub NyxScenario);

impl Scenario for NyxDensity {
    fn name(&self) -> &str {
        "nyx-density"
    }
    fn field_names(&self) -> Vec<String> {
        vec!["baryon_density".into()]
    }
    fn eval(&self, _field: usize, x: f64, y: f64, z: f64, t: f64) -> f64 {
        self.0.eval(0, x, y, z, t)
    }
    fn refine_value(&self, x: f64, y: f64, z: f64, t: f64) -> f64 {
        self.0.refine_value(x, y, z, t)
    }
}

/// The Fig. 5/6/7/9 test hierarchy: a scaled version of the paper's §3
/// Nyx study (two levels, one field, fine density in the ~17 % regime,
/// coarse valid fraction ≈ 80 %). `coarse` is the level-0 edge length
/// (64 for the figure binaries, 32 for fast tests).
pub fn section3_nyx(coarse: i64) -> AmrHierarchy {
    let cfg = AmrRunConfig {
        coarse_dims: (coarse, coarse, coarse),
        max_grid_size: coarse / 2,
        blocking_factor: 16,
        nranks: 1,
        num_levels: 2,
        fine_fraction: 0.012,
        grid_eff: 0.85,
    };
    build_hierarchy(&NyxDensity(NyxScenario::new(777)), &cfg, 0.0)
}

/// The relative error bounds of the paper's rate-distortion sweeps
/// (Figs. 5, 7, 16): 2·10⁻² down to 3·10⁻⁴.
pub fn rd_bounds() -> Vec<f64> {
    vec![2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 3e-4]
}

/// Extract one level's unit blocks (single rank) for a field, the §3
/// studies' working set.
pub fn level_units(h: &AmrHierarchy, level: usize, unit: i64, field: usize) -> Vec<Buffer3> {
    let finer = (level + 1 < h.num_levels())
        .then(|| (h.level(level + 1).data.box_array(), h.ref_ratio(level)));
    let plan = plan_units(&h.level(level).data, finer, unit, 0, true);
    extract_units(&h.level(level).data, &plan, field)
}

/// Evaluate (CR, PSNR) of an arbitrary compress/decompress pair on unit
/// blocks.
pub fn rate_point(
    units: &[Buffer3],
    compress: impl Fn(&[Buffer3]) -> Vec<u8>,
    decompress: impl Fn(&[u8]) -> Vec<Buffer3>,
) -> (f64, f64) {
    let orig_bytes: usize = units.iter().map(|u| u.dims().len() * 8).sum();
    let stream = compress(units);
    let back = decompress(&stream);
    let orig: Vec<f64> = units
        .iter()
        .flat_map(|u| u.data().iter().copied())
        .collect();
    let recon: Vec<f64> = back.iter().flat_map(|u| u.data().iter().copied()).collect();
    let stats = ErrorStats::compare(&orig, &recon);
    (orig_bytes as f64 / stream.len() as f64, stats.psnr())
}

/// Fixed-width table printer for the harness binaries.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Format helpers for the tables.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}
/// Two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}
/// Three significant-ish decimals for seconds.
pub fn secs(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_specs_weak_scale() {
        let runs = table1_runs();
        assert_eq!(runs.len(), 6);
        for r in &runs {
            let cells = r.coarse_dims.0 * r.coarse_dims.1 * r.coarse_dims.2;
            let per_rank = cells as usize / r.nranks;
            match r.app {
                App::WarpX => assert_eq!(per_rank, 32 * 32 * 32, "{}", r.name),
                App::Nyx => assert_eq!(per_rank, 16 * 32 * 32, "{}", r.name),
            }
        }
    }

    #[test]
    fn section3_data_has_paper_densities() {
        let h = section3_nyx(32);
        assert_eq!(h.num_levels(), 2);
        let stats = level_stats(&h);
        // At the 32³ test size the box-snap granularity floors the density
        // well above the paper's 17.4 % — the 64³ figure binaries land in
        // the paper regime (19.5 % in `fig5`); here we only check the
        // fixture builds a sane two-level mesh.
        assert!(
            stats[1].density > 0.05 && stats[1].density < 0.9,
            "fine density {}",
            stats[1].density
        );
    }

    #[test]
    fn rate_point_smoke() {
        let h = section3_nyx(32);
        let units = level_units(&h, 1, 16, 0);
        assert!(!units.is_empty());
        let cfg = AmricConfig::lr(1e-3);
        let (cr, psnr) = rate_point(
            &units,
            |u| compress_field_units(u, &cfg, 16),
            |b| decompress_field_units(b).unwrap(),
        );
        assert!(cr > 1.0 && psnr > 20.0, "cr={cr} psnr={psnr}");
    }
}
