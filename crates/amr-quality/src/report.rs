//! Whole-plotfile quality reports: compare a compressed plotfile against
//! a reference through two [`QueryEngine`]s, field by field and level by
//! level.
//!
//! Full-domain [`QueryEngine::level_region`] extractions drive the error
//! statistics (max/mean absolute error, the range-relative histogram),
//! while a mid-domain z plane drives the visualization metrics
//! (PSNR/SSIM) — the slice a viewer would actually render.

use crate::metrics::{ssim_plane, ErrorHistogram, Psnr};
use amr_query::{QueryEngine, QueryError, QueryResult};

/// Quality of one field at one AMR level.
#[derive(Clone, Debug)]
pub struct LevelQuality {
    /// AMR level (0 = coarsest).
    pub level: usize,
    /// Cells compared (the level's full domain).
    pub cells: usize,
    /// Reference value range over the full level domain.
    pub value_range: f64,
    /// Maximum pointwise absolute error over the full level domain.
    pub max_abs_err: f64,
    /// Mean pointwise absolute error over the full level domain.
    pub mean_abs_err: f64,
    /// PSNR of the mid-domain z plane slice.
    pub psnr: Psnr,
    /// Mean SSIM of the mid-domain z plane slice.
    pub ssim: f64,
    /// Histogram of absolute errors scaled by `value_range`.
    pub histogram: ErrorHistogram,
}

/// Quality of one field across all levels.
#[derive(Clone, Debug)]
pub struct FieldQuality {
    /// Field name (from the plotfile metadata).
    pub field: String,
    /// Per-level rows, coarsest first.
    pub levels: Vec<LevelQuality>,
}

impl FieldQuality {
    /// Worst (lowest) per-level PSNR, the single number the bench table
    /// reports. `Psnr::Infinite` only when every level is exact.
    pub fn min_psnr(&self) -> Psnr {
        self.levels
            .iter()
            .map(|l| l.psnr)
            .min_by(|a, b| a.db().total_cmp(&b.db()))
            .unwrap_or(Psnr::Infinite)
    }

    /// Worst (lowest) per-level SSIM.
    pub fn min_ssim(&self) -> f64 {
        self.levels
            .iter()
            .map(|l| l.ssim)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Quality report over every field of a plotfile pair.
#[derive(Clone, Debug)]
pub struct QualityReport {
    /// Per-field results, in component order.
    pub fields: Vec<FieldQuality>,
}

impl QualityReport {
    /// Compare `candidate` against `reference` field by field, level by
    /// level. The two plotfiles must agree structurally (same fields,
    /// same level domains) — mismatches are [`QueryError::BadQuery`],
    /// not silent partial comparisons.
    pub fn compare(reference: &QueryEngine, candidate: &QueryEngine) -> QueryResult<QualityReport> {
        let rm = reference.meta();
        let cm = candidate.meta();
        if rm.field_names != cm.field_names {
            return Err(QueryError::BadQuery(format!(
                "field mismatch: reference has {:?}, candidate has {:?}",
                rm.field_names, cm.field_names
            )));
        }
        if rm.num_levels() != cm.num_levels() {
            return Err(QueryError::BadQuery(format!(
                "level-count mismatch: reference has {}, candidate has {}",
                rm.num_levels(),
                cm.num_levels()
            )));
        }
        for (l, (a, b)) in rm.levels.iter().zip(&cm.levels).enumerate() {
            if a.domain != b.domain {
                return Err(QueryError::BadQuery(format!(
                    "level {l} domain mismatch: {:?} vs {:?}",
                    a.domain, b.domain
                )));
            }
        }
        let mut fields = Vec::with_capacity(rm.field_names.len());
        for (f, name) in rm.field_names.iter().enumerate() {
            let mut levels = Vec::with_capacity(rm.num_levels());
            for l in 0..rm.num_levels() {
                levels.push(Self::compare_level(reference, candidate, f, l)?);
            }
            fields.push(FieldQuality {
                field: name.clone(),
                levels,
            });
        }
        Ok(QualityReport { fields })
    }

    fn compare_level(
        reference: &QueryEngine,
        candidate: &QueryEngine,
        field: usize,
        level: usize,
    ) -> QueryResult<LevelQuality> {
        let domain = reference.meta().levels[level].domain;
        let r_full = reference.level_region(field, level, domain)?;
        let c_full = candidate.level_region(field, level, domain)?;
        let (rd, cd) = (r_full.data.data(), c_full.data.data());
        let (lo, hi) = r_full.data.min_max();
        let value_range = hi - lo;
        let mut max_abs = 0.0f64;
        let mut sum_abs = 0.0f64;
        for (&a, &b) in rd.iter().zip(cd) {
            let e = (a - b).abs();
            max_abs = max_abs.max(e);
            sum_abs += e;
        }
        let histogram = ErrorHistogram::collect(rd, cd, value_range);

        let mid = (domain.lo.get(2) + domain.hi.get(2)) / 2;
        let r_plane = reference.plane_slice(field, level, 2, mid)?;
        let c_plane = candidate.plane_slice(field, level, 2, mid)?;
        let psnr = Psnr::compute(r_plane.data.data(), c_plane.data.data());
        let ssim = ssim_plane(&r_plane.data, &c_plane.data);

        Ok(LevelQuality {
            level,
            cells: rd.len(),
            value_range,
            max_abs_err: max_abs,
            mean_abs_err: sum_abs / rd.len().max(1) as f64,
            psnr,
            ssim,
            histogram,
        })
    }

    /// Worst per-field PSNR across all fields and levels.
    pub fn min_psnr(&self) -> Psnr {
        self.fields
            .iter()
            .map(|f| f.min_psnr())
            .min_by(|a, b| a.db().total_cmp(&b.db()))
            .unwrap_or(Psnr::Infinite)
    }

    /// The **tagged region** of an adaptive-bound plotfile: for each
    /// `(level, field)`, the unit regions (level-local index space) the
    /// writer classified rough and bounded tight, recovered from the
    /// stored streams via [`amric::stream_unit_bounds`]. Fixed-policy
    /// and empty chunks contribute nothing, so a `Fixed` plotfile yields
    /// all-empty region lists.
    ///
    /// This is the region the equal-bytes evaluation scores: adaptive
    /// bounds trade whole-domain MSE for fidelity exactly here.
    pub fn tight_unit_regions(
        path: impl AsRef<std::path::Path>,
    ) -> QueryResult<Vec<Vec<Vec<amr_mesh::IntBox>>>> {
        let r = h5lite::H5Reader::open(path)?;
        let meta = amric::reader::read_plotfile_meta(&r)?;
        let nfields = meta.field_names.len();
        let mut out = vec![vec![Vec::new(); nfields]; meta.num_levels()];
        for (level, fields) in out.iter_mut().enumerate() {
            let stored = amric::reader::stored_chunks(&r, &meta, level)?;
            for (field, regions) in fields.iter_mut().enumerate() {
                let name = amric::writer::field_dataset(level, field);
                for rank in 0..stored {
                    let raw = r.read_chunk_raw(&name, rank)?;
                    let Some(bounds) = amric::stream_unit_bounds(&raw)? else {
                        continue;
                    };
                    let plan = meta.unit_plan(level, rank);
                    if plan.len() != bounds.len() {
                        return Err(QueryError::BadQuery(format!(
                            "{name} chunk {rank}: {} planned units vs {} stream bounds",
                            plan.len(),
                            bounds.len()
                        )));
                    }
                    let chunk_max = bounds.iter().cloned().fold(0.0f64, f64::max);
                    regions.extend(
                        plan.iter()
                            .zip(&bounds)
                            .filter(|(_, &b)| b < chunk_max)
                            .map(|(u, _)| u.region),
                    );
                }
            }
        }
        Ok(out)
    }

    /// Render the per-level PSNR/SSIM table `amric_inspect --quality`
    /// prints.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "field                level      cells      psnr(db)   ssim     max_err      mean_err\n",
        );
        for f in &self.fields {
            for l in &f.levels {
                out.push_str(&format!(
                    "{:<20} {:<10} {:<10} {:<10} {:<8.4} {:<12.4e} {:<12.4e}\n",
                    f.field,
                    l.level,
                    l.cells,
                    format!("{}", l.psnr),
                    l.ssim,
                    l.max_abs_err,
                    l.mean_abs_err,
                ));
            }
        }
        out
    }
}
