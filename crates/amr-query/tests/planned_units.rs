//! A cold query reconstructs only the units its regions meet. Over every
//! pipeline stream mode (0–6; the delta mode through `with_reference`):
//! ROI, plane, `pieces` and the serving walk (the plan warmed batch by
//! batch, then walked piece by piece) answer bitwise what the restart
//! holds; a cold plan decodes exactly its planned units, an overlapping
//! plan only the planned units the cache lacks, a repeat nothing; and a
//! point sample on a partly filled cache entry still answers the
//! restart's value.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::prelude::*;
use amric::config::{AmricConfig, BoundPolicy, MergePolicy};
use amric::pipeline::stream_layout;
use amric::reader::Plotfile;
use amric::temporal::{read_temporal_meta, TemporalSession};
use amric::writer::write_amric_to;
use h5lite::{H5Reader, H5Writer, MemStorage};
use std::collections::BTreeSet;
use std::sync::Arc;

const REL_EB: f64 = 1e-3;

/// A queried file: the last image of `images`, each image the reference
/// snapshot of the next (one image for a plain plotfile).
struct Fixture {
    name: &'static str,
    images: Vec<MemStorage>,
}

fn reader(image: &MemStorage) -> H5Reader {
    H5Reader::from_storage(Box::new(image.clone())).unwrap()
}

impl Fixture {
    fn plain(name: &'static str, h: &AmrHierarchy, cfg: AmricConfig) -> Self {
        let (w, mem) = H5Writer::in_memory();
        write_amric_to(Arc::new(w), h, &cfg, 8).unwrap();
        Fixture {
            name,
            images: vec![mem],
        }
    }

    /// A fresh, cold engine over the queried file, given a fresh chain of
    /// reference engines.
    fn engine(&self) -> Arc<QueryEngine> {
        let mut prev: Option<Arc<QueryEngine>> = None;
        for image in &self.images {
            let mut engine = QueryEngine::from_reader(reader(image)).unwrap();
            let linkage = read_temporal_meta(&reader(image)).unwrap();
            if linkage.and_then(|t| t.reference_id).is_some() {
                engine = engine.with_reference(prev.take().unwrap()).unwrap();
            }
            prev = Some(Arc::new(engine));
        }
        prev.unwrap()
    }

    /// The stream mode of every stored chunk of the queried file.
    fn modes(&self) -> BTreeSet<String> {
        let r = reader(self.images.last().unwrap());
        let mut modes = BTreeSet::new();
        for name in r
            .dataset_names()
            .into_iter()
            .filter(|n| n.starts_with("level_"))
        {
            for c in 0..r.meta(name).unwrap().chunks.len() {
                let raw = r.read_chunk_raw(name, c).unwrap();
                modes.insert(stream_layout(&raw).unwrap().mode.to_string());
            }
        }
        modes
    }
}

fn run(coarse: (i64, i64, i64), max_grid: i64, fine_fraction: f64) -> AmrRunConfig {
    AmrRunConfig {
        coarse_dims: coarse,
        max_grid_size: max_grid,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction,
        grid_eff: 0.7,
    }
}

fn nyx() -> AmrHierarchy {
    build_hierarchy(&NyxScenario::new(93), &run((16, 16, 16), 8, 0.05), 0.0)
}

/// Shaped like the `warpx_interp` benchmark: level 0 dense enough to
/// place its clusters (mode 6).
fn warpx() -> AmrHierarchy {
    build_hierarchy(&WarpXScenario::new(1), &run((16, 16, 256), 16, 0.02), 0.0)
}

/// A three-snapshot Nyx chain under SZ_L/R: the last snapshot ships
/// delta streams (mode 5).
fn nyx_chain() -> Fixture {
    let mut session = TemporalSession::new(AmricConfig::lr(REL_EB), 8);
    let images = TimeSeries::new(&NyxScenario::new(11), run((16, 16, 16), 8, 0.05), 0.02, 3)
        .map(|(_, _, h)| {
            let (w, mem) = H5Writer::in_memory();
            session.write_to(Arc::new(w), &h).unwrap();
            mem
        })
        .collect();
    Fixture {
        name: "delta",
        images,
    }
}

fn fixtures() -> Vec<Fixture> {
    let adaptive = BoundPolicy::GradientAdaptive {
        tight: 1e-4,
        loose: 1e-2,
    };
    let h = nyx();
    vec![
        Fixture::plain("lr-sle", &h, AmricConfig::lr(REL_EB)),
        Fixture::plain(
            "lr-lm",
            &h,
            AmricConfig::lr(REL_EB)
                .with_merge(MergePolicy::LinearMerge)
                .with_remove_redundancy(false),
        ),
        Fixture::plain(
            "interp-linear",
            &h,
            AmricConfig::interp(REL_EB).with_cluster_arrangement(false),
        ),
        Fixture::plain("interp-cluster", &h, AmricConfig::interp(REL_EB)),
        Fixture::plain(
            "adaptive",
            &h,
            AmricConfig::lr(REL_EB).with_bound_policy(adaptive),
        ),
        nyx_chain(),
        Fixture::plain("interp-placed", &warpx(), AmricConfig::interp(REL_EB)),
    ]
}

/// The restart's value of every cell of `region` on `level`, as bits (0.0
/// where no box covers the cell).
fn restart_bits(pf: &Plotfile, level: usize, region: &IntBox, field: usize) -> Vec<u64> {
    let at = |p: IntVect| pf.levels[level].value_at(&p, field).unwrap_or(0.0);
    region.iter_points().map(|p| at(p).to_bits()).collect()
}

fn bits(lr: &LevelRegion) -> Vec<u64> {
    lr.data.data().iter().map(|v| v.to_bits()).collect()
}

/// `(level, rank, unit)` of every stored unit that meets one of the
/// plan's regions, found from the metadata alone.
fn planned_units(engine: &QueryEngine, plan: &QueryPlan) -> BTreeSet<(usize, usize, usize)> {
    let mut units = BTreeSet::new();
    for &(level, region) in plan.regions() {
        for rank in 0..engine.chunk_entries(level).unwrap().len() {
            for (ui, u) in engine.meta().unit_plan(level, rank).iter().enumerate() {
                if u.region.intersects(&region) {
                    units.insert((level, rank, ui));
                }
            }
        }
    }
    units
}

/// Decoded bytes of `units`.
fn unit_bytes<'a>(
    engine: &QueryEngine,
    units: impl IntoIterator<Item = &'a (usize, usize, usize)>,
) -> u64 {
    let meta = engine.meta();
    units
        .into_iter()
        .map(|&(l, rank, ui)| meta.unit_plan(l, rank)[ui].region.num_cells() * 8)
        .sum()
}

/// Level-0 ROIs scaled to the level-0 domain: a small off-centre box, one
/// cell, a half slab, the whole domain; then one 8³ unit each at the low
/// corner, the middle and the high corner — on `warpx()` a window of one
/// unit in a placed cluster of many, at the cluster's faces (the `Prev`
/// and `Linear` predictors) and inside it.
fn rois(engine: &QueryEngine) -> Vec<IntBox> {
    let d = engine.meta().levels[0].domain.size();
    let at = |fx: i64, fy: i64, fz: i64| {
        IntVect::new(d.get(0) * fx / 8, d.get(1) * fy / 8, d.get(2) * fz / 8)
    };
    let hi = |p: IntVect| p - IntVect::ONE;
    let unit = |lo: IntVect| IntBox::new(lo, lo + IntVect::splat(7));
    vec![
        IntBox::new(at(1, 2, 0), hi(at(3, 5, 6))),
        IntBox::new(at(4, 4, 4), at(4, 4, 4)),
        IntBox::new(at(0, 4, 0), hi(at(8, 8, 4))),
        IntBox::new(at(0, 0, 0), hi(at(8, 8, 8))),
        unit(IntVect::ZERO),
        unit(at(4, 4, 4)),
        unit(d - IntVect::splat(8)),
    ]
}

/// Cold ROI and the serving walk, each on a fresh engine, answer the
/// restart's cells and decode exactly their planned units; a repeat on a
/// warm engine is all hits.
fn check_rois(fx: &Fixture, pf: &Plotfile, field: usize) {
    let probe = fx.engine();
    for roi in rois(&probe) {
        let what = format!("{} field {field} roi {roi:?}", fx.name);
        let cold = fx.engine();
        let plan = cold.plan_roi(field, roi, LevelSelect::All).unwrap();
        let cost = plan.cost();
        let planned = planned_units(&cold, &plan);
        assert_eq!(cost.decode_bytes, unit_bytes(&cold, &planned), "{what}");
        for lr in cold.answer(&plan).unwrap() {
            let want = restart_bits(pf, lr.level, &lr.region, field);
            assert_eq!(bits(&lr), want, "{what}: level {}", lr.level);
        }
        let stats = cold.stats();
        assert_eq!(stats.decoded_bytes, cost.decode_bytes, "{what}");
        assert_eq!(stats.chunks_decoded as usize, cost.chunks, "{what}");

        // A warm repeat decodes nothing and misses nothing.
        let before = (cold.stats(), cold.cache_stats());
        cold.answer(&plan).unwrap();
        let after = (cold.stats(), cold.cache_stats());
        assert_eq!(
            after.0.decoded_bytes, before.0.decoded_bytes,
            "{what}: repeat"
        );
        assert_eq!(after.1.misses, before.1.misses, "{what}: repeat");
        assert_eq!(
            after.1.hits,
            before.1.hits + cost.chunks as u64,
            "{what}: repeat"
        );

        // Serving: warm one-chunk batches, then paste the pieces.
        let served = fx.engine();
        let plan = served.plan_roi(field, roi, LevelSelect::All).unwrap();
        for batch in plan.batches(1) {
            served.warm(&plan, batch).unwrap();
        }
        let regions = plan.regions();
        let mut boxes: Vec<Vec<u64>> = regions
            .iter()
            .map(|(_, r)| vec![0f64.to_bits(); r.num_cells() as usize])
            .collect();
        served
            .pieces(&plan, |piece| {
                let region = regions[piece.region].1;
                let x0 = piece.overlap.lo.get(0);
                piece.for_each_row(|y, z, row| {
                    for (i, v) in row.iter().enumerate() {
                        let p = IntVect::new(x0 + i as i64, y, z);
                        boxes[piece.region][region.linear_index(&p)] = v.to_bits();
                    }
                });
            })
            .unwrap();
        for ((level, region), got) in regions.iter().zip(&boxes) {
            let want = restart_bits(pf, *level, region, field);
            assert_eq!(got, &want, "{what}: served level {level}");
        }
        assert_eq!(
            served.stats().decoded_bytes,
            cost.decode_bytes,
            "{what}: served"
        );
        assert_eq!(
            served.cache_stats().misses,
            cost.chunks as u64,
            "{what}: served"
        );
    }
}

/// Mid-domain planes of every level, each on a fresh engine.
fn check_planes(fx: &Fixture, pf: &Plotfile, field: usize) {
    let probe = fx.engine();
    for level in 0..probe.meta().num_levels() {
        let domain = probe.meta().levels[level].domain;
        for axis in 0..3 {
            let coord = (domain.lo.get(axis) + domain.hi.get(axis)) / 2;
            let what = format!(
                "{} field {field} level {level} plane {axis}/{coord}",
                fx.name
            );
            let cold = fx.engine();
            let plane = cold.plane_slice(field, level, axis, coord).unwrap();
            let want = restart_bits(pf, level, &plane.region, field);
            assert_eq!(bits(&plane), want, "{what}");
            let cost = cold.plan_plane(field, level, axis, coord).unwrap().cost();
            assert_eq!(cold.stats().decoded_bytes, cost.decode_bytes, "{what}");
        }
    }
}

/// Two overlapping ROIs on one engine: the second decodes the planned
/// units the first left out, and nothing else.
fn check_overlap(fx: &Fixture, field: usize) {
    let engine = fx.engine();
    let (a, b) = {
        let r = rois(&engine);
        (r[0], r[2])
    };
    let what = format!("{} field {field}: {a:?} then {b:?}", fx.name);
    let plan_a = engine.plan_roi(field, a, LevelSelect::All).unwrap();
    let plan_b = engine.plan_roi(field, b, LevelSelect::All).unwrap();
    let (units_a, units_b) = (
        planned_units(&engine, &plan_a),
        planned_units(&engine, &plan_b),
    );
    assert!(
        units_a.intersection(&units_b).next().is_some(),
        "{what}: the plans share no unit"
    );
    engine.answer(&plan_a).unwrap();
    let before = engine.stats().decoded_bytes;
    engine.answer(&plan_b).unwrap();
    let spent = engine.stats().decoded_bytes - before;
    assert_eq!(
        spent,
        unit_bytes(&engine, units_b.difference(&units_a)),
        "{what}"
    );
    assert!(spent < plan_b.cost().decode_bytes, "{what}");
}

/// Points over the finest index space after a small ROI left partly
/// filled entries: every sample is the restart's value, each touched
/// chunk is completed once (the units the ROI left out), and the same
/// points again decode nothing.
fn check_points(fx: &Fixture, pf: &Plotfile, field: usize) {
    let engine = fx.engine();
    let meta = engine.meta().clone();
    let roi = rois(&engine)[0];
    let plan = engine.plan_roi(field, roi, LevelSelect::All).unwrap();
    let held = planned_units(&engine, &plan);
    engine.answer(&plan).unwrap();
    let n = meta.num_levels();
    let finest = meta.levels[n - 1].domain.size();
    let points: Vec<IntVect> = (0..97i64)
        .map(|i| {
            IntVect::new(
                (7 * i + 3) % finest.get(0),
                (11 * i + 5) % finest.get(1),
                (37 * i + 1) % finest.get(2),
            )
        })
        .collect();
    let before = engine.stats().decoded_bytes;
    let mut touched = BTreeSet::new();
    for p in &points {
        let Some(s) = engine.point_sample(field, *p).unwrap() else {
            continue;
        };
        let want = pf.levels[s.level].value_at(&s.cell, field).unwrap();
        let what = format!("{} field {field} point {p:?}", fx.name);
        assert_eq!(s.value.to_bits(), want.to_bits(), "{what}");
        let rank = (0..engine.chunk_entries(s.level).unwrap().len())
            .find(|&r| {
                meta.unit_plan(s.level, r)
                    .iter()
                    .any(|u| u.region.contains(&s.cell))
            })
            .expect("a stored unit holds the sample");
        touched.insert((s.level, rank));
    }
    let partly: Vec<_> = held.iter().map(|&(l, r, _)| (l, r)).collect();
    assert!(
        partly.iter().any(|c| touched.contains(c)),
        "{}: no point met a partly filled entry",
        fx.name
    );
    let lacking: BTreeSet<_> = touched
        .iter()
        .flat_map(|&(l, r)| (0..meta.unit_plan(l, r).len()).map(move |ui| (l, r, ui)))
        .filter(|u| !held.contains(u))
        .collect();
    let spent = engine.stats().decoded_bytes - before;
    assert_eq!(
        spent,
        unit_bytes(&engine, &lacking),
        "{} field {field}",
        fx.name
    );
    let before = engine.stats().decoded_bytes;
    for p in &points {
        engine.point_sample(field, *p).unwrap();
    }
    assert_eq!(
        engine.stats().decoded_bytes,
        before,
        "{}: points again",
        fx.name
    );
}

#[test]
fn every_stream_mode_reconstructs_only_its_planned_units() {
    let mut modes = BTreeSet::new();
    for fx in fixtures() {
        modes.extend(fx.modes());
        let pf = fx.engine().restart().unwrap();
        let nfields = pf.field_names.len();
        for field in [0, nfields - 1] {
            check_rois(&fx, &pf, field);
            check_planes(&fx, &pf, field);
            check_overlap(&fx, field);
            check_points(&fx, &pf, field);
        }
    }
    let want = [
        "lr-sle",
        "lr-lm",
        "interp-linear",
        "interp-cluster",
        "adaptive",
        "delta",
        "interp-placed",
    ];
    for mode in want {
        assert!(
            modes.contains(mode),
            "no fixture stores a {mode} chunk: {modes:?}"
        );
    }
}

#[test]
fn a_small_roi_leaves_level_0_units_undecoded_in_every_fixture() {
    // The suite above means something only where a cold ROI leaves units
    // of a chunk it touches undecoded.
    for fx in fixtures() {
        let engine = fx.engine();
        let plan = engine
            .plan_roi(0, rois(&engine)[0], LevelSelect::Level(0))
            .unwrap();
        let planned = planned_units(&engine, &plan).len();
        let stored: usize = (0..engine.chunk_entries(0).unwrap().len())
            .map(|rank| engine.meta().unit_plan(0, rank).len())
            .sum();
        assert!(
            0 < planned && planned < stored,
            "{}: {planned} of {stored} level-0 units planned",
            fx.name
        );
    }
}

#[test]
fn the_warpx_fixture_places_level_0_in_clusters_of_many_units() {
    // The one-unit ROIs of `rois()` reconstruct a window of a cluster
    // only if level 0 is stored in clusters of many units.
    let fx = Fixture::plain("interp-placed", &warpx(), AmricConfig::interp(REL_EB));
    let (r, engine) = (reader(&fx.images[0]), fx.engine());
    let name = amric::writer::field_dataset(0, 0);
    let chunks = r.meta(&name).unwrap().chunks.len();
    assert!(chunks > 0);
    for c in 0..chunks {
        let layout = stream_layout(&r.read_chunk_raw(&name, c).unwrap()).unwrap();
        let placed = layout.placed.expect("a placed chunk");
        let units = engine.meta().unit_plan(0, c).len();
        assert!(
            units >= 8 * placed.clusters,
            "chunk {c}: {units} units, {placed:?}"
        );
    }
}
