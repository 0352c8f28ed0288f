//! Fixtures shared by the test binaries of `amr-query` and (by path)
//! `amr-serve`: a plotfile no current writer produces, and a copy of a
//! plotfile with its chunk indexes replaced.

use amr_mesh::prelude::*;
use amric::config::AmricConfig;
use amric::pipeline::compress_field_units;
use amric::preprocess::{plan_bounding_box, region_dims, UnitRef};
use amric::reader::read_plotfile_meta;
use amric::writer::field_dataset;
use h5lite::prelude::*;
use std::path::Path;
use sz_codec::codec::CodecId;
use sz_codec::View3;

/// A chunk filter that cuts each chunk into the ragged units of whichever
/// plan has its length — the writer refuses layouts like this one, so the
/// file is built by hand, as a pre-alignment-check writer would have.
struct RaggedFilter {
    plans: Vec<Vec<UnitRef>>,
}

impl ChunkFilter for RaggedFilter {
    fn id(&self) -> u32 {
        amric::writer::FILTER_AMRIC
    }

    fn encode_into(&self, chunk: &[f64], out: &mut Vec<u8>) -> H5Result<()> {
        let cells = |plan: &&Vec<UnitRef>| {
            let cells: u64 = plan.iter().map(|u| u.region.num_cells()).sum();
            cells as usize == chunk.len()
        };
        let plan = self.plans.iter().find(cells).expect("a plan of this size");
        let mut rest = chunk;
        let mut units = Vec::new();
        for u in plan {
            let (unit, tail) = rest.split_at(u.region.num_cells() as usize);
            units.push(View3::new(region_dims(&u.region), unit));
            rest = tail;
        }
        out.extend(compress_field_units(&units, &AmricConfig::lr(1e-3), 4));
        Ok(())
    }
}

/// One level, blocking factor 4, three boxes on two ranks whose faces sit
/// off the 4-cell tile grid, and a strip of the 12×8×4 domain no box
/// covers. Tile (0, 1, 0) holds three clipped units from both ranks. Its
/// chunk index records each rank's `plan_bounding_box`, as the writer's
/// does.
pub fn write_unaligned_file(path: &Path) {
    let corners = |b: &IntBox| [b.lo.0, b.hi.0].concat();
    let boxes = [
        (IntBox::new(IntVect::new(0, 0, 0), IntVect::new(2, 7, 3)), 0),
        (IntBox::new(IntVect::new(3, 0, 0), IntVect::new(7, 4, 3)), 1),
        (IntBox::new(IntVect::new(3, 5, 0), IntVect::new(7, 7, 3)), 0),
    ];
    let w = H5Writer::create(path).unwrap();
    // [nlevels, nfields, nranks, bf, remove_redundancy | nx, ny, nz, nboxes, ratio]
    let header = [1.0, 1.0, 2.0, 4.0, 1.0, 12.0, 8.0, 4.0, 3.0, 0.0];
    let names = [1.0, f64::from(b'a')];
    let table: Vec<f64> = boxes
        .iter()
        .flat_map(|(b, owner)| corners(b).into_iter().chain([*owner]))
        .map(|v| v as f64)
        .collect();
    for (name, values) in [
        ("meta/header", &header[..]),
        ("meta/field_names", &names[..]),
        ("meta/level_0/boxes", &table[..]),
    ] {
        w.write_dataset(name, values, values.len(), &NoFilter)
            .unwrap();
    }
    w.finish().unwrap();
    // Plan from the metadata just written, exactly as a reader will.
    let meta = read_plotfile_meta(&H5Reader::open(path).unwrap()).unwrap();
    let plans = vec![meta.unit_plan(0, 0), meta.unit_plan(0, 1)];
    let shares_a_tile = |plan: &[UnitRef]| {
        let tile = IntVect::new(0, 1, 0);
        plan.iter()
            .filter(|u| u.region.lo.coarsened(4) == tile)
            .count()
    };
    assert_eq!((shares_a_tile(&plans[0]), shares_a_tile(&plans[1])), (2, 1));
    assert!(plans.iter().flatten().any(|u| !u.region.is_aligned(4)));
    let value = |p: &IntVect| (p.get(0) + 16 * p.get(1) + 256 * p.get(2)) as f64 * 0.37 + 1.0;
    let chunks: Vec<ChunkData> = plans
        .iter()
        .map(|plan| {
            let cells = plan.iter().flat_map(|u| u.region.iter_points());
            ChunkData::full(cells.map(|p| value(&p)).collect())
        })
        .collect();
    let chunk_elems = chunks.iter().map(|c| c.logical).max().unwrap();
    let index = ChunkIndex::new(
        plans
            .iter()
            .map(|plan| {
                ChunkIndexEntry::new(CodecId::AmricPipeline as u32, plan_bounding_box(plan))
            })
            .collect(),
    );
    // Rewrite the container whole: metadata, then the field dataset.
    let w = H5Writer::create(path).unwrap();
    for (name, values) in [
        ("meta/header", &header[..]),
        ("meta/field_names", &names[..]),
        ("meta/level_0/boxes", &table[..]),
    ] {
        w.write_dataset(name, values, values.len(), &NoFilter)
            .unwrap();
    }
    let filter = RaggedFilter { plans };
    w.write_dataset_chunks(
        &field_dataset(0, 0),
        &chunks,
        chunk_elems,
        &filter,
        FilterMode::SizeAware,
        None,
    )
    .unwrap();
    w.set_chunk_index(&field_dataset(0, 0), index).unwrap();
    w.finish().unwrap();
}

/// Copy the plotfile `src` to `dst` dataset by dataset, stored bytes
/// unchanged, with each dataset's chunk index replaced by what `index`
/// returns for `(name, stored index)` (`None` = no index).
pub fn rewrite_with_index(
    src: &Path,
    dst: &Path,
    index: impl Fn(&str, Option<&ChunkIndex>) -> Option<ChunkIndex>,
) {
    let r = H5Reader::open(src).unwrap();
    let w = H5Writer::create(dst).unwrap();
    for name in r.dataset_names() {
        let meta = r.meta(name).unwrap();
        let mut chunks = Vec::with_capacity(meta.chunks.len());
        for (i, rec) in meta.chunks.iter().enumerate() {
            let bytes = r.read_chunk_raw(name, i).unwrap();
            let offset = w.reserve_extent([bytes.len() as u64]).offsets[0];
            w.write_at(offset, &bytes).unwrap();
            chunks.push(ChunkRecord { offset, ..*rec });
        }
        w.register_dataset(DatasetMeta {
            chunks,
            ..meta.clone()
        })
        .unwrap();
        if let Some(idx) = index(name, r.chunk_index(name).unwrap()) {
            w.set_chunk_index(name, idx).unwrap();
        }
    }
    w.finish().unwrap();
}
