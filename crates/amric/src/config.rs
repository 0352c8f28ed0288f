//! AMRIC configuration: compressor choice, error bounds, and the ablation
//! switches for every design decision §3 of the paper introduces.
//!
//! Both config structs are `#[non_exhaustive]` with builder-style
//! `with_*` setters, so future ablation switches can be added without a
//! breaking change: start from a paper preset ([`AmricConfig::lr`] /
//! [`AmricConfig::interp`] / [`BaselineConfig::new`]) and chain the
//! switches you want to flip.
//!
//! ```
//! use amric::config::{AmricConfig, MergePolicy};
//!
//! let ablated = AmricConfig::lr(1e-3)
//!     .with_merge(MergePolicy::LinearMerge)
//!     .with_adaptive_block_size(false);
//! assert_eq!(ablated.merge, MergePolicy::LinearMerge);
//! ```

use sz_codec::SzAlgorithm;

/// How the writer spends the error budget across unit blocks.
///
/// `Fixed` is the paper's behavior: one absolute bound per (level, field),
/// resolved from the configured relative bound against the global value
/// range. `GradientAdaptive` scores each unit block's gradient activity
/// during the pre-process pass and gives rough (high-gradient) units the
/// `tight` bound and smooth units the `loose` one — the quality-per-byte
/// trade the visualization follow-up work evaluates. Both bounds are
/// value-range-relative, like [`AmricConfig::rel_eb`], and the bound each
/// unit actually used is recorded in the stream (the
/// [`sz_codec::codec::FLAG_UNIT_BOUNDS`] envelope bit) so decoders and
/// quality metrics can recover it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BoundPolicy {
    /// One uniform bound per (level, field) — the paper's configuration.
    Fixed,
    /// Per-unit bounds picked by gradient activity: `tight` for rough
    /// units, `loose` for smooth ones (both value-range-relative).
    GradientAdaptive {
        /// Relative bound for high-gradient (rough) units.
        tight: f64,
        /// Relative bound for smooth units; must be `>= tight`.
        loose: f64,
    },
}

/// How unit blocks are merged before SZ sees them (paper §3.1–3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergePolicy {
    /// Linear merging (LM): stack unit blocks along z and compress as one
    /// domain — predictions cross unit boundaries (the baseline AMRIC
    /// improves on, Fig. 6 right).
    LinearMerge,
    /// Shared Lossless Encoding (SLE): predict each unit independently,
    /// encode together under one Huffman tree (§3.2 Solution 1).
    SharedEncoding,
}

/// Full AMRIC pipeline configuration.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct AmricConfig {
    /// Which SZ algorithm compresses the arranged data.
    pub algorithm: SzAlgorithm,
    /// Value-range-relative error bound, resolved per field per rank
    /// (the paper's Table 1 bounds).
    pub rel_eb: f64,
    /// Merge policy for SZ_L/R (ignored by SZ_Interp).
    pub merge: MergePolicy,
    /// Adaptive SZ block size per Equation 1 (§3.2 Solution 2). When
    /// false, stock 6³ blocks are used regardless of unit size.
    pub adaptive_block_size: bool,
    /// Cluster (cube-like) arrangement for SZ_Interp (§3.1, Fig. 5).
    /// When false, unit blocks are arranged linearly.
    pub cluster_arrangement: bool,
    /// Remove coarse data covered by finer levels (§3.1). Disabling keeps
    /// the redundant cells (ablation).
    pub remove_redundancy: bool,
    /// Rank-local compression workers of the write path (always ≥ 1).
    /// With 1 every chunk is compressed inline on the rank thread; with
    /// more, a pool overlaps compression with the collective writes. Does
    /// not affect the stored bytes (enforced by the engine-equivalence and
    /// `parallel_determinism` suites).
    pub workers: usize,
    /// Error-bound policy: one uniform bound ([`BoundPolicy::Fixed`],
    /// paper behavior, byte-identical to pre-policy streams) or per-unit
    /// gradient-adaptive bounds. Under `GradientAdaptive` the `rel_eb`
    /// field is ignored in favor of the policy's tight/loose pair.
    pub bound: BoundPolicy,
}

impl AmricConfig {
    /// The paper's AMRIC(SZ_L/R) configuration.
    pub fn lr(rel_eb: f64) -> Self {
        AmricConfig {
            algorithm: SzAlgorithm::LorenzoRegression,
            rel_eb,
            merge: MergePolicy::SharedEncoding,
            adaptive_block_size: true,
            cluster_arrangement: false,
            remove_redundancy: true,
            workers: 1,
            bound: BoundPolicy::Fixed,
        }
    }

    /// The paper's AMRIC(SZ_Interp) configuration.
    pub fn interp(rel_eb: f64) -> Self {
        AmricConfig {
            algorithm: SzAlgorithm::Interpolation,
            rel_eb,
            merge: MergePolicy::SharedEncoding,
            adaptive_block_size: false,
            cluster_arrangement: true,
            remove_redundancy: true,
            workers: 1,
            bound: BoundPolicy::Fixed,
        }
    }

    /// Set the SZ algorithm.
    pub fn with_algorithm(mut self, algorithm: SzAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Set the value-range-relative error bound.
    pub fn with_rel_eb(mut self, rel_eb: f64) -> Self {
        self.rel_eb = rel_eb;
        self
    }

    /// Set the SZ_L/R merge policy (ablation switch).
    pub fn with_merge(mut self, merge: MergePolicy) -> Self {
        self.merge = merge;
        self
    }

    /// Toggle the adaptive SZ block size (ablation switch).
    pub fn with_adaptive_block_size(mut self, on: bool) -> Self {
        self.adaptive_block_size = on;
        self
    }

    /// Toggle the cluster arrangement for SZ_Interp (ablation switch).
    pub fn with_cluster_arrangement(mut self, on: bool) -> Self {
        self.cluster_arrangement = on;
        self
    }

    /// Toggle coarse-redundancy removal (ablation switch).
    pub fn with_remove_redundancy(mut self, on: bool) -> Self {
        self.remove_redundancy = on;
        self
    }

    /// Set the rank-local compression worker count for the write path
    /// (`n <= 1` compresses inline on the rank thread).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Set the error-bound policy. `GradientAdaptive` bounds are
    /// value-range-relative and must satisfy `0 < tight <= loose`.
    pub fn with_bound_policy(mut self, bound: BoundPolicy) -> Self {
        if let BoundPolicy::GradientAdaptive { tight, loose } = bound {
            assert!(
                tight > 0.0 && tight.is_finite() && loose >= tight && loose.is_finite(),
                "adaptive bounds need 0 < tight <= loose"
            );
        }
        self.bound = bound;
        self
    }

    /// SZ block size for a given unit edge under this config.
    pub fn sz_block_size(&self, unit_edge: usize) -> usize {
        if self.adaptive_block_size {
            sz_codec::adaptive::adaptive_block_size(unit_edge)
        } else {
            6
        }
    }
}

/// AMReX-baseline configuration (the paper's comparison target): 1-D SZ
/// through small standard-mode chunks on the interleaved layout.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct BaselineConfig {
    /// Value-range-relative error bound.
    pub rel_eb: f64,
    /// HDF5 chunk size in elements (1024 in stock AMReX; the paper bumps
    /// WarpX_3 to 4096).
    pub chunk_elems: usize,
}

impl BaselineConfig {
    /// Stock AMReX compression settings.
    pub fn new(rel_eb: f64) -> Self {
        BaselineConfig {
            rel_eb,
            chunk_elems: 1024,
        }
    }

    /// Set the value-range-relative error bound.
    pub fn with_rel_eb(mut self, rel_eb: f64) -> Self {
        self.rel_eb = rel_eb;
        self
    }

    /// Set the HDF5 chunk size in elements.
    pub fn with_chunk_elems(mut self, chunk_elems: usize) -> Self {
        self.chunk_elems = chunk_elems;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let lr = AmricConfig::lr(1e-3);
        assert_eq!(lr.algorithm, SzAlgorithm::LorenzoRegression);
        assert!(lr.adaptive_block_size);
        assert_eq!(lr.merge, MergePolicy::SharedEncoding);
        assert!(lr.remove_redundancy);
        assert_eq!(lr.workers, 1);
        let it = AmricConfig::interp(1e-3);
        assert_eq!(it.algorithm, SzAlgorithm::Interpolation);
        assert!(it.cluster_arrangement);
    }

    #[test]
    fn workers_builder_and_policy() {
        // 0 and 1 both mean "inline on the rank thread".
        for n in [0, 1] {
            assert_eq!(AmricConfig::lr(1e-3).with_workers(n).workers, 1);
        }
        assert_eq!(AmricConfig::lr(1e-3).with_workers(4).workers, 4);
        assert_eq!(AmricConfig::interp(1e-3).with_workers(7).workers, 7);
    }

    #[test]
    fn builders_flip_every_switch() {
        let cfg = AmricConfig::lr(1e-3)
            .with_algorithm(SzAlgorithm::Interpolation)
            .with_rel_eb(1e-4)
            .with_merge(MergePolicy::LinearMerge)
            .with_adaptive_block_size(false)
            .with_cluster_arrangement(true)
            .with_remove_redundancy(false);
        assert_eq!(cfg.algorithm, SzAlgorithm::Interpolation);
        assert_eq!(cfg.rel_eb, 1e-4);
        assert_eq!(cfg.merge, MergePolicy::LinearMerge);
        assert!(!cfg.adaptive_block_size);
        assert!(cfg.cluster_arrangement);
        assert!(!cfg.remove_redundancy);
        let base = BaselineConfig::new(1e-2)
            .with_chunk_elems(4096)
            .with_rel_eb(5e-3);
        assert_eq!(base.chunk_elems, 4096);
        assert_eq!(base.rel_eb, 5e-3);
    }

    #[test]
    fn sz_block_size_follows_eq1_when_adaptive() {
        let cfg = AmricConfig::lr(1e-3);
        assert_eq!(cfg.sz_block_size(8), 4);
        assert_eq!(cfg.sz_block_size(16), 6);
        let fixed = cfg.with_adaptive_block_size(false);
        assert_eq!(fixed.sz_block_size(8), 6);
    }
}
