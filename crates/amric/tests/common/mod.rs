//! Helpers shared by the integration tests that restart temporal chains
//! held in memory.

use amr_query::QueryEngine;
use amric::temporal::{read_temporal_meta, TemporalMeta};
use h5lite::{H5Reader, MemStorage};
use std::sync::Arc;

/// A reader over a container image.
pub fn reader(image: &MemStorage) -> H5Reader {
    H5Reader::from_storage(Box::new(image.clone())).unwrap()
}

/// The temporal linkage a snapshot records.
pub fn linkage(image: &MemStorage) -> TemporalMeta {
    read_temporal_meta(&reader(image))
        .unwrap()
        .expect("a temporal snapshot")
}

/// Engines over a chain in snapshot order, each given the engine of the
/// snapshot before it when its file names a reference.
pub fn chain_engines<'a>(
    images: impl IntoIterator<Item = &'a MemStorage>,
) -> Vec<Arc<QueryEngine>> {
    let mut engines: Vec<Arc<QueryEngine>> = Vec::new();
    for image in images {
        let mut engine = QueryEngine::from_reader(reader(image)).unwrap();
        if linkage(image).reference_id.is_some() {
            let reference = Arc::clone(engines.last().unwrap());
            engine = engine.with_reference(reference).unwrap();
        }
        engines.push(Arc::new(engine));
    }
    engines
}
