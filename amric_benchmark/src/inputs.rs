//! Workload definitions and seeded input generation. The crates under
//! test only ever see what is generated here: `amr-apps` scenarios built
//! from `--seed`, and query boxes and probe points drawn from the
//! benchmark's own PRNG on the same seed.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amric::config::AmricConfig;

/// Relative error bound of every AMRIC write (paper Table 1).
pub const REL_EB: f64 = 1e-3;
/// `amr.blocking_factor` of every run: AMRIC's fine-level unit edge.
pub const BLOCKING_FACTOR: i64 = 8;
/// Ranks of every measured dump: one, so that one thread is busy (see
/// `lifecycle`). The traced pass also dumps from two ranks, as a layer
/// metric.
pub const NRANKS: usize = 1;
/// ROI boxes per workload (each queried for every field): the octants of
/// one seeded cut through the domain.
pub const ROI_BOXES: usize = 8;
/// Probe points per `point_sample` batch.
pub const POINT_BATCH: usize = 1000;

/// Which synthetic application generates the data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    Nyx,
    WarpX,
}

/// Which SZ family the AMRIC pipeline runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// SZ_L/R with shared lossless encoding.
    Lr,
    /// SZ_Interp over the cluster arrangement.
    Interp,
}

/// One workload: a data set, a codec family and a size.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub app: App,
    pub family: Family,
    /// Coarse domain of a full run.
    pub coarse: (i64, i64, i64),
    /// Coarse domain under `--smoke`.
    pub smoke_coarse: (i64, i64, i64),
    /// AMReX-baseline bound the paper pairs with `REL_EB` (Table 1).
    pub amrex_rel_eb: f64,
}

/// The benchmark's workloads. Each is one pass over the whole life of a
/// snapshot — dump, restart, post-hoc query, served scan — so that every
/// end-to-end metric is defined, and sampled, on every workload; what
/// differs is the data and the codec family, and with them the layer
/// that carries the time.
pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "nyx_lr",
        why: "Rough cosmology fields through SZ_L/R: high-entropy codes, so predict/quantize, Huffman and the lossless stage carry dump, restart and cold reads. The codec-bound case.",
        app: App::Nyx,
        family: Family::Lr,
        // 64³ coarse cells on the one rank: the paper's per-rank Nyx volume.
        coarse: (64, 64, 64),
        smoke_coarse: (16, 16, 32),
        amrex_rel_eb: 1e-2,
    },
    Spec {
        name: "warpx_interp",
        why: "Smooth laser pulse through SZ_Interp (CR ~57): near-constant symbol stream, entropy coding idles, so interpolation, staging and the container carry the time. An entropy-coder gain must not move it.",
        app: App::WarpX,
        family: Family::Interp,
        // Elongated like the paper's WarpX domain, twice the Nyx cells.
        coarse: (32, 32, 512),
        smoke_coarse: (16, 16, 64),
        amrex_rel_eb: 5e-3,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// The AMRIC configuration of every write of this workload: one
    /// compression worker on the one rank.
    pub fn amric_config(&self) -> AmricConfig {
        match self.family {
            Family::Lr => AmricConfig::lr(REL_EB),
            Family::Interp => AmricConfig::interp(REL_EB),
        }
        .with_workers(1)
    }

    /// Mesh parameters at full or smoke size.
    pub fn run_config(&self, smoke: bool, nranks: usize) -> AmrRunConfig {
        AmrRunConfig {
            coarse_dims: if smoke {
                self.smoke_coarse
            } else {
                self.coarse
            },
            max_grid_size: if smoke { 8 } else { 32 },
            blocking_factor: BLOCKING_FACTOR,
            nranks,
            num_levels: 2,
            // Tiny domains need a larger share tagged for the clustering
            // to leave a fine level at all.
            fine_fraction: if smoke { 0.05 } else { 0.02 },
            grid_eff: 0.7,
        }
    }

    fn scenario(&self, seed: u64) -> Box<dyn Scenario + Send> {
        match self.app {
            App::Nyx => Box::new(NyxScenario::new(seed)),
            App::WarpX => Box::new(WarpXScenario::new(seed)),
        }
    }
}

/// SplitMix64: the benchmark's own generator for boxes and points.
pub struct Prng(u64);

impl Prng {
    pub fn new(seed: u64) -> Self {
        Prng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: i64) -> i64 {
        (self.next_u64() % n as u64) as i64
    }
}

/// Everything a workload measures on, generated from one seed.
pub struct Inputs {
    pub spec: &'static Spec,
    /// Snapshots at t = 0 and t = 1.
    pub snapshots: [AmrHierarchy; 2],
    /// `(field, box)` ROI queries in level-0 cells: every box × every
    /// field, box-major.
    pub queries: Vec<(usize, IntBox)>,
    /// Probe points in finest-level cells.
    pub points: Vec<IntVect>,
    /// The whole coarse domain (the served scan's ROI).
    pub domain: IntBox,
    /// Seconds the generation took (both snapshots, built side by side).
    pub generate_s: f64,
}

/// Generate a workload's inputs. The two snapshots are built on two
/// threads: generation is the benchmark's cost, not the system's.
pub fn generate(spec: &'static Spec, seed: u64, smoke: bool) -> Inputs {
    let t0 = std::time::Instant::now();
    let cfg = spec.run_config(smoke, NRANKS);
    let build = |t: f64| build_hierarchy(spec.scenario(seed).as_ref(), &cfg, t);
    let (h0, h1) = std::thread::scope(|s| {
        let second = s.spawn(|| build(1.0));
        let first = build(0.0);
        (first, second.join().expect("generator thread panicked"))
    });
    let generate_s = t0.elapsed().as_secs_f64();

    let (nx, ny, nz) = cfg.coarse_dims;
    let domain = IntBox::from_extents(nx, ny, nz);
    let mut rng = Prng::new(seed);
    // One seeded cut per axis, within a sixteenth of its middle; the eight
    // boxes it makes are the queries. They are half-edge boxes give or
    // take an eighth, straddle grid boundaries wherever the seed puts the
    // cut, and tile the domain: a cycle over them reads every cell of
    // every level exactly once on any seed. Boxes placed independently
    // would cover the fine patch 0 to 8 times depending on the seed; a
    // cut anywhere in the middle half made octants of 1/64 to 27/64 of
    // the domain, and the mean served scan then took 3.6–5.4 ms over ten
    // seeds.
    let mut cut = |n: i64| n * 7 / 16 + rng.below(n / 8);
    let cuts = [cut(nx), cut(ny), cut(nz)];
    let dims = [nx, ny, nz];
    let boxes: Vec<IntBox> = (0..ROI_BOXES)
        .map(|octant| {
            let side = |axis: usize| {
                if octant >> axis & 1 == 0 {
                    (0, cuts[axis] - 1)
                } else {
                    (cuts[axis], dims[axis] - 1)
                }
            };
            let (x, y, z) = (side(0), side(1), side(2));
            IntBox::new(IntVect::new(x.0, y.0, z.0), IntVect::new(x.1, y.1, z.1))
        })
        .collect();
    let nfields = h0.field_names().len();
    let queries = boxes
        .iter()
        .flat_map(|b| (0..nfields).map(move |f| (f, *b)))
        .collect();
    let finest = 1i64 << (h0.num_levels() - 1);
    let points = (0..POINT_BATCH)
        .map(|_| {
            IntVect::new(
                rng.below(nx * finest),
                rng.below(ny * finest),
                rng.below(nz * finest),
            )
        })
        .collect();
    Inputs {
        spec,
        snapshots: [h0, h1],
        queries,
        points,
        domain,
        generate_s,
    }
}

/// The same cells as `h` with its grids dealt out to `nranks` ranks — the
/// two-rank side of the rank-scaling layer metric.
pub fn redistributed(h: &AmrHierarchy, nranks: usize) -> AmrHierarchy {
    let l0 = h.level(0);
    let max_grid = l0
        .data
        .box_array()
        .iter()
        .map(|b| {
            let s = b.size();
            s.get(0).max(s.get(1)).max(s.get(2))
        })
        .max()
        .expect("level 0 has boxes");
    let mut out = AmrHierarchy::new(l0.domain, max_grid, nranks, h.field_names().to_vec());
    for l in 1..h.num_levels() {
        out.push_level(
            h.level(l).data.box_array().clone(),
            h.ref_ratio(l - 1),
            nranks,
        );
    }
    for l in 0..h.num_levels() {
        out.level_mut(l).data.copy_from(&h.level(l).data);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(i: &Inputs) -> (u64, Vec<(usize, IntBox)>, Vec<IntVect>) {
        let bits = i.snapshots[0]
            .level(0)
            .data
            .fab(0)
            .data()
            .iter()
            .fold(0u64, |h, v| h.rotate_left(5) ^ v.to_bits());
        (bits, i.queries.clone(), i.points.clone())
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = &WORKLOADS[0];
        let a = generate(spec, 7, true);
        let b = generate(spec, 7, true);
        let c = generate(spec, 8, true);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let (fa, fc) = (fingerprint(&a), fingerprint(&c));
        assert_ne!(fa.0, fc.0, "field data must depend on the seed");
        assert_ne!(fa.1, fc.1, "boxes must depend on the seed");
        assert_ne!(fa.2, fc.2, "points must depend on the seed");
    }

    #[test]
    fn queries_and_points_lie_inside_the_domain() {
        for spec in WORKLOADS {
            let i = generate(spec, 3, true);
            assert_eq!(i.snapshots[0].num_levels(), 2, "{}", spec.name);
            let nfields = i.snapshots[0].field_names().len();
            assert_eq!(i.queries.len(), ROI_BOXES * nfields);
            assert_eq!(i.points.len(), POINT_BATCH);
            for (f, b) in &i.queries {
                assert!(*f < nfields && i.domain.contains_box(b), "{b:?}");
            }
            // The boxes tile the domain: inside it, disjoint, same volume.
            let boxes: Vec<IntBox> = i.queries.iter().step_by(nfields).map(|q| q.1).collect();
            assert_eq!(boxes.len(), ROI_BOXES);
            for (k, a) in boxes.iter().enumerate() {
                assert!(boxes[..k].iter().all(|b| a.intersection(b).is_none()));
            }
            let cells: u64 = boxes.iter().map(IntBox::num_cells).sum();
            assert_eq!(cells, i.domain.num_cells());
            let fine = i.domain.refined(2);
            assert!(i.points.iter().all(|p| fine.contains(p)));
        }
    }

    #[test]
    fn redistribution_keeps_cells_and_moves_ownership() {
        let i = generate(&WORKLOADS[0], 5, true);
        let two = redistributed(&i.snapshots[0], 2);
        assert_eq!(two.snapshot_bytes(), i.snapshots[0].snapshot_bytes());
        for l in 0..2 {
            let (a, b) = (&i.snapshots[0].level(l).data, &two.level(l).data);
            assert_eq!(
                (a.distribution().nranks(), b.distribution().nranks()),
                (1, 2)
            );
            assert_eq!(a.box_array().boxes(), b.box_array().boxes());
            for bi in 0..a.box_array().len() {
                assert_eq!(a.fab(bi).data(), b.fab(bi).data());
            }
        }
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for (i, s) in WORKLOADS.iter().enumerate() {
            assert!(find(s.name).is_some());
            assert!(WORKLOADS[..i].iter().all(|t| t.name != s.name));
            assert!(s.why.len() <= 200 && !s.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }
}
