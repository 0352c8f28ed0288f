//! Dataset and chunk metadata plus directory (de)serialization.

use crate::error::{H5Error, H5Result};
use crate::filter::FilterMode;
use sz_codec::wire::{Reader, Writer};

/// One contiguous byte extent pre-reserved for a batch of frames whose
/// sizes were computed before the write (the paper's one-pass write:
/// compress first, then reserve the exact extent once and stream the
/// frames out while the next chunks compress).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtentPlan {
    /// File offset where the extent starts.
    pub base: u64,
    /// Absolute file offset of each frame, in frame order.
    pub offsets: Vec<u64>,
    /// Total reserved bytes (`sum(sizes)`).
    pub total_bytes: u64,
}

/// Location and shape of one stored chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Byte offset of the encoded chunk in the file.
    pub offset: u64,
    /// Encoded (stored) size in bytes.
    pub stored_bytes: u64,
    /// Number of meaningful elements the chunk decodes to. Equal to the
    /// chunk size in standard-filter mode; the actual per-rank data size in
    /// AMRIC's size-aware mode.
    pub logical_elems: u64,
}

/// Directory entry for one dataset.
#[derive(Clone, Debug)]
pub struct DatasetMeta {
    /// Path-style dataset name ("level_0/density").
    pub name: String,
    /// Logical element count of the whole dataset.
    pub total_elems: u64,
    /// Uniform chunk size in elements (HDF5 requires one per dataset —
    /// the constraint at the heart of the paper's §3.3).
    pub chunk_elems: u64,
    /// Filter id ([`crate::filter::FILTER_NONE`] etc.).
    pub filter_id: u32,
    /// Standard vs size-aware filter semantics.
    pub filter_mode: FilterMode,
    /// Opaque filter parameters.
    pub client_data: Vec<u8>,
    /// Chunk records in dataset order.
    pub chunks: Vec<ChunkRecord>,
}

impl DatasetMeta {
    /// Total stored bytes across the dataset's chunks.
    pub fn stored_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.stored_bytes).sum()
    }

    /// Compression ratio versus raw f64 storage of the logical elements.
    pub fn compression_ratio(&self) -> f64 {
        self.total_elems as f64 * 8.0 / self.stored_bytes().max(1) as f64
    }

    pub(crate) fn write_to(&self, w: &mut Writer) {
        let name = self.name.as_bytes();
        w.put_u16(name.len() as u16);
        w.put_raw(name);
        w.put_u64(self.total_elems);
        w.put_u64(self.chunk_elems);
        w.put_u32(self.filter_id);
        w.put_u8(self.filter_mode.to_u8());
        w.put_block(&self.client_data);
        w.put_u32(self.chunks.len() as u32);
        for c in &self.chunks {
            w.put_u64(c.offset);
            w.put_u64(c.stored_bytes);
            w.put_u64(c.logical_elems);
        }
    }

    pub(crate) fn read_from(r: &mut Reader<'_>) -> H5Result<Self> {
        let name_len = r.get_u16()? as usize;
        let name = String::from_utf8(r.get_raw(name_len)?.to_vec())
            .map_err(|_| H5Error::Format("dataset name is not UTF-8".into()))?;
        let total_elems = r.get_u64()?;
        let chunk_elems = r.get_u64()?;
        let filter_id = r.get_u32()?;
        let filter_mode = FilterMode::from_u8(r.get_u8()?)?;
        let client_data = r.get_block()?.to_vec();
        let nchunks = r.get_u32()? as usize;
        let mut chunks = Vec::with_capacity(r.check_count(nchunks, 24)?);
        for _ in 0..nchunks {
            chunks.push(ChunkRecord {
                offset: r.get_u64()?,
                stored_bytes: r.get_u64()?,
                logical_elems: r.get_u64()?,
            });
        }
        Ok(DatasetMeta {
            name,
            total_elems,
            chunk_elems,
            filter_id,
            filter_mode,
            client_data,
            chunks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DatasetMeta {
        DatasetMeta {
            name: "level_0/density".into(),
            total_elems: 1000,
            chunk_elems: 256,
            filter_id: 1,
            filter_mode: FilterMode::SizeAware,
            client_data: vec![0, 1, 2],
            chunks: vec![
                ChunkRecord {
                    offset: 5,
                    stored_bytes: 100,
                    logical_elems: 256,
                },
                ChunkRecord {
                    offset: 105,
                    stored_bytes: 80,
                    logical_elems: 200,
                },
            ],
        }
    }

    #[test]
    fn directory_roundtrip() {
        let meta = sample();
        let mut w = Writer::new();
        meta.write_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = DatasetMeta::read_from(&mut r).unwrap();
        assert_eq!(back.name, meta.name);
        assert_eq!(back.total_elems, meta.total_elems);
        assert_eq!(back.chunk_elems, meta.chunk_elems);
        assert_eq!(back.filter_id, meta.filter_id);
        assert_eq!(back.filter_mode, meta.filter_mode);
        assert_eq!(back.client_data, meta.client_data);
        assert_eq!(back.chunks, meta.chunks);
    }

    #[test]
    fn stored_bytes_and_ratio() {
        let meta = sample();
        assert_eq!(meta.stored_bytes(), 180);
        let cr = meta.compression_ratio();
        assert!((cr - 8000.0 / 180.0).abs() < 1e-9);
    }

    #[test]
    fn truncated_directory_errors() {
        let meta = sample();
        let mut w = Writer::new();
        meta.write_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..10]);
        assert!(DatasetMeta::read_from(&mut r).is_err());
    }
}
