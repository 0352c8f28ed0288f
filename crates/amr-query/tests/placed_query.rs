//! Queries over placed SZ_Interp chunks (pipeline mode 6, dense unit
//! clusters compressed where they lie): ROI, plane, point and `pieces`
//! answer exactly what the restart holds, and the restart holds every
//! valid cell within the bound.

use amr_apps::prelude::*;
use amr_mesh::prelude::*;
use amr_query::prelude::*;
use amric::config::AmricConfig;
use amric::pipeline::stream_layout;
use amric::reader::{read_amric_hierarchy, verify_against, Plotfile};
use amric::writer::{field_dataset, write_amric};
use h5lite::prelude::*;

const REL_EB: f64 = 1e-3;

/// A small WarpX hierarchy shaped like the `warpx_interp` benchmark's, on
/// two ranks: both ranks' level-0 chunks are dense enough to place.
fn warpx() -> AmrHierarchy {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 256),
        max_grid_size: 16,
        blocking_factor: 8,
        nranks: 2,
        num_levels: 2,
        fine_fraction: 0.02,
        grid_eff: 0.7,
    };
    build_hierarchy(&WarpXScenario::new(1), &cfg, 0.0)
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

#[test]
fn every_query_face_of_a_placed_file_answers_the_restart() {
    let h = warpx();
    let mut path = std::env::temp_dir();
    path.push(format!("amr-query-placed-{}.h5l", std::process::id()));
    write_amric(&path, &h, &AmricConfig::interp(REL_EB), 8).unwrap();
    let r = H5Reader::open(&path).unwrap();
    let level0 = field_dataset(0, 0);
    for c in 0..r.meta(&level0).unwrap().chunks.len() {
        let raw = r.read_chunk_raw(&level0, c).unwrap();
        assert_eq!(
            stream_layout(&raw).unwrap().mode,
            "interp-placed",
            "chunk {c}"
        );
    }
    let pf = read_amric_hierarchy(&path).unwrap();
    for check in verify_against(&pf, &h, REL_EB) {
        assert!(check.bound_ok, "field {} violates its bound", check.field);
    }
    let engine = QueryEngine::open(&path).unwrap();
    let domain = IntBox::from_extents(16, 16, 256);
    let rois = [
        domain,
        IntBox::new(IntVect::new(3, 5, 100), IntVect::new(12, 9, 170)),
        IntBox::new(IntVect::new(0, 7, 0), IntVect::new(15, 7, 255)),
    ];
    for field in [0, 3] {
        for roi in rois {
            for lr in engine.roi(field, roi, LevelSelect::All).unwrap().levels {
                let want = restart_bits(&pf, lr.level, &lr.region, field);
                assert_eq!(bits(&lr), want, "field {field} {roi:?} level {}", lr.level);
            }
            // Zero-fill + paste of the pieces is the answer.
            let plan = engine.plan_roi(field, roi, LevelSelect::All).unwrap();
            let regions = plan.regions();
            let mut boxes: Vec<Vec<u64>> = regions
                .iter()
                .map(|(_, r)| vec![0f64.to_bits(); r.num_cells() as usize])
                .collect();
            engine
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
            let answer: Vec<Vec<u64>> = engine.answer(&plan).unwrap().iter().map(bits).collect();
            assert_eq!(boxes, answer, "field {field} {roi:?}: pieces");
        }
        for (level, coord) in [(0, 37), (1, 250)] {
            let plane = engine.plane_slice(field, level, 2, coord).unwrap();
            let want = restart_bits(&pf, level, &plane.region, field);
            assert_eq!(bits(&plane), want, "field {field} plane {level}/{coord}");
        }
        for i in 0..64i64 {
            let p = IntVect::new((7 * i) % 32, (11 * i) % 32, (37 * i) % 512);
            let s = engine
                .point_sample(field, p)
                .unwrap()
                .expect("inside the domain");
            let want = pf.levels[s.level]
                .value_at(&s.cell, field)
                .expect("a stored cell");
            assert_eq!(s.value.to_bits(), want.to_bits(), "field {field} {p:?}");
        }
    }
    std::fs::remove_file(&path).ok();
}
