//! Persistent per-dataset chunk index — the read-side acceleration
//! structure behind the `amr-query` subsystem.
//!
//! The directory already records *where* each chunk lives
//! ([`crate::dataset::ChunkRecord`]); the chunk index adds what a random
//! -access reader needs to touch only relevant chunks without decoding
//! anything:
//!
//! * the **codec id** of the chunk's stream envelope (so tooling and
//!   planners know how a chunk decodes without reading its payload),
//! * an optional **box extent**: the index-space bounding box of the data
//!   the chunk covers (the AMRIC writer stores the bounding box of the
//!   rank's surviving unit blocks), letting a region-of-interest planner
//!   prune chunks by rectangle intersection alone, and
//! * an optional **reference id**: for delta-coded chunks (the temporal
//!   codec family), the snapshot id whose decoded data the chunk predicts
//!   from — random access can resolve exactly which prior file a delta
//!   chunk needs without decoding anything.
//!
//! The index is written by [`crate::file::H5Writer::finish`] as a section
//! *after* the dataset entries inside the directory block, one index per
//! dataset that registered one; a container where none did has no
//! section at all. [`crate::file::H5Reader::chunk_index`] exposes the
//! parsed index per dataset (`None` where the writer stored none).

use crate::error::{H5Error, H5Result};
use sz_codec::wire::{Reader, Writer};

/// Magic marking the start of the optional chunk-index section inside the
/// directory block (`CIDX` little-endian).
pub(crate) const INDEX_MAGIC: u32 = 0x5844_4943;

/// Codec id recorded for chunks whose payload carries no stream envelope
/// (raw/unfiltered data).
pub const CODEC_RAW: u32 = u32::MAX;

/// Index entry for one chunk of a dataset (position matches the chunk's
/// position in [`crate::dataset::DatasetMeta::chunks`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkIndexEntry {
    /// Envelope codec id of the stored stream ([`CODEC_RAW`] when the
    /// chunk has none).
    pub codec_id: u32,
    /// Index-space bounding box of the chunk's data as `(lo, hi)`
    /// inclusive corners; `None` when the chunk holds no spatial data
    /// (empty rank) or the producer recorded no geometry.
    pub extent: Option<([i64; 3], [i64; 3])>,
    /// Snapshot id the chunk's stream is delta-coded against (temporal
    /// codec family); `None` for self-contained chunks. Files recording
    /// no references serialize byte-identically to the pre-reference
    /// format.
    pub reference: Option<u64>,
}

impl ChunkIndexEntry {
    /// Self-contained entry (no reference).
    pub fn new(codec_id: u32, extent: Option<([i64; 3], [i64; 3])>) -> Self {
        ChunkIndexEntry {
            codec_id,
            extent,
            reference: None,
        }
    }

    /// Record the reference snapshot id the chunk predicts from.
    pub fn with_reference(mut self, reference: u64) -> Self {
        self.reference = Some(reference);
        self
    }

    /// Does the entry's extent intersect the inclusive box `[lo, hi]`?
    /// Extent-less entries never intersect (they hold no spatial data).
    pub fn intersects(&self, lo: [i64; 3], hi: [i64; 3]) -> bool {
        match self.extent {
            Some((elo, ehi)) => (0..3).all(|d| elo[d] <= hi[d] && lo[d] <= ehi[d]),
            None => false,
        }
    }
}

/// Chunk index of one dataset: one entry per stored chunk, in chunk
/// (= rank-major) order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChunkIndex {
    /// Entries aligned with the dataset's chunk records.
    pub entries: Vec<ChunkIndexEntry>,
}

impl ChunkIndex {
    /// Index over pre-built entries.
    pub fn new(entries: Vec<ChunkIndexEntry>) -> Self {
        ChunkIndex { entries }
    }

    /// Chunk positions whose extent intersects the inclusive box
    /// `[lo, hi]`.
    pub fn intersecting(&self, lo: [i64; 3], hi: [i64; 3]) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.intersects(lo, hi))
            .map(|(i, _)| i)
            .collect()
    }

    // Entry tag bits: the tag byte after the codec id is a bitset —
    // bit 0 = box extent follows, bit 1 = reference id follows. Entries
    // without a reference emit tag 0/1, byte-identical to the
    // pre-reference format.
    const TAG_EXTENT: u8 = 0b01;
    const TAG_REFERENCE: u8 = 0b10;

    pub(crate) fn write_to(&self, w: &mut Writer) {
        w.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            w.put_u32(e.codec_id);
            let mut tag = 0u8;
            if e.extent.is_some() {
                tag |= Self::TAG_EXTENT;
            }
            if e.reference.is_some() {
                tag |= Self::TAG_REFERENCE;
            }
            w.put_u8(tag);
            if let Some((lo, hi)) = e.extent {
                for v in lo.iter().chain(hi.iter()) {
                    w.put_u64(*v as u64);
                }
            }
            if let Some(r) = e.reference {
                w.put_u64(r);
            }
        }
    }

    pub(crate) fn read_from(r: &mut Reader<'_>) -> H5Result<Self> {
        let n = r.get_u32()? as usize;
        // Each entry is at least 5 bytes; reject counts the stream cannot
        // hold before allocating (corrupt counts must not drive absurd
        // allocations).
        r.check_count(n, 5)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let codec_id = r.get_u32()?;
            let tag = r.get_u8()?;
            if tag & !(Self::TAG_EXTENT | Self::TAG_REFERENCE) != 0 {
                return Err(H5Error::Format(format!("bad chunk index extent tag {tag}")));
            }
            let extent = if tag & Self::TAG_EXTENT != 0 {
                let mut c = [0i64; 6];
                for v in &mut c {
                    *v = r.get_u64()? as i64;
                }
                let (lo, hi) = ([c[0], c[1], c[2]], [c[3], c[4], c[5]]);
                if (0..3).any(|d| lo[d] > hi[d]) {
                    return Err(H5Error::Format(format!(
                        "chunk index extent has lo {lo:?} > hi {hi:?}"
                    )));
                }
                Some((lo, hi))
            } else {
                None
            };
            let reference = if tag & Self::TAG_REFERENCE != 0 {
                Some(r.get_u64()?)
            } else {
                None
            };
            entries.push(ChunkIndexEntry {
                codec_id,
                extent,
                reference,
            });
        }
        Ok(ChunkIndex { entries })
    }
}

/// Serialize the index section (`INDEX_MAGIC`, dataset count, then
/// name + index per dataset).
pub(crate) fn write_index_section(w: &mut Writer, indexes: &[(String, ChunkIndex)]) {
    w.put_u32(INDEX_MAGIC);
    w.put_u32(indexes.len() as u32);
    for (name, idx) in indexes {
        let bytes = name.as_bytes();
        w.put_u16(bytes.len() as u16);
        w.put_raw(bytes);
        idx.write_to(w);
    }
}

/// Parse the index section if the reader is positioned at one. Returns
/// `None` when the remaining bytes hold no index (no dataset registered
/// one, or an unknown trailing section — both read as "no index").
pub(crate) fn read_index_section(
    r: &mut Reader<'_>,
) -> H5Result<Option<Vec<(String, ChunkIndex)>>> {
    if r.remaining() < 4 {
        return Ok(None);
    }
    let mut probe = Reader::new(r.get_raw(r.remaining())?);
    if probe.get_u32()? != INDEX_MAGIC {
        return Ok(None);
    }
    let n = probe.get_u32()? as usize;
    // A dataset's index is at least 6 bytes (empty name + empty entries).
    probe.check_count(n, 6)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name_len = probe.get_u16()? as usize;
        let name = String::from_utf8(probe.get_raw(name_len)?.to_vec())
            .map_err(|_| H5Error::Format("chunk index dataset name is not UTF-8".into()))?;
        let idx = ChunkIndex::read_from(&mut probe)?;
        out.push((name, idx));
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(String, ChunkIndex)> {
        vec![
            (
                "level_0/field_0".into(),
                ChunkIndex::new(vec![
                    ChunkIndexEntry::new(3, Some(([0, 0, 0], [7, 7, 7]))),
                    ChunkIndexEntry::new(3, None),
                    ChunkIndexEntry::new(7, Some(([8, 0, 0], [15, 7, 7]))).with_reference(41),
                    ChunkIndexEntry::new(7, None).with_reference(2),
                ]),
            ),
            ("meta/header".into(), ChunkIndex::default()),
        ]
    }

    #[test]
    fn section_roundtrip() {
        let indexes = sample();
        let mut w = Writer::new();
        write_index_section(&mut w, &indexes);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_index_section(&mut r).unwrap().expect("index present");
        assert_eq!(back, indexes);
    }

    #[test]
    fn missing_section_reads_as_none() {
        let mut r = Reader::new(&[]);
        assert!(read_index_section(&mut r).unwrap().is_none());
        // Unknown trailing section: ignored, not an error.
        let mut w = Writer::new();
        w.put_u32(0xDEAD_BEEF);
        w.put_u32(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(read_index_section(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_section_is_typed_error() {
        let indexes = sample();
        let mut w = Writer::new();
        write_index_section(&mut w, &indexes);
        let bytes = w.into_bytes();
        for cut in 5..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                read_index_section(&mut r).is_err(),
                "truncation to {cut}/{} must be rejected",
                bytes.len()
            );
        }
    }

    #[test]
    fn absurd_counts_rejected_before_allocation() {
        // Entry count far beyond what the bytes can hold.
        let mut w = Writer::new();
        w.put_u32(INDEX_MAGIC);
        w.put_u32(1);
        w.put_u16(1);
        w.put_raw(b"d");
        w.put_u32(u32::MAX); // entry count
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(read_index_section(&mut r).is_err());
        // Dataset count beyond what the bytes can hold.
        let mut w = Writer::new();
        w.put_u32(INDEX_MAGIC);
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(read_index_section(&mut r).is_err());
    }

    #[test]
    fn invalid_extent_rejected() {
        let mut w = Writer::new();
        w.put_u32(1); // one entry
        w.put_u32(3);
        w.put_u8(1);
        for v in [5i64, 0, 0, 2, 7, 7] {
            w.put_u64(v as u64); // lo.x 5 > hi.x 2
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(ChunkIndex::read_from(&mut r).is_err());
        // Bad extent tag.
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_u32(3);
        w.put_u8(9);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(ChunkIndex::read_from(&mut r).is_err());
    }

    #[test]
    fn intersection_queries() {
        let idx = ChunkIndex::new(vec![
            ChunkIndexEntry::new(3, Some(([0, 0, 0], [7, 7, 7]))),
            ChunkIndexEntry::new(3, Some(([8, 0, 0], [15, 7, 7]))),
            ChunkIndexEntry::new(3, None),
        ]);
        assert_eq!(idx.intersecting([0, 0, 0], [3, 3, 3]), vec![0]);
        assert_eq!(idx.intersecting([6, 0, 0], [9, 3, 3]), vec![0, 1]);
        assert!(idx.intersecting([20, 20, 20], [30, 30, 30]).is_empty());
    }

    #[test]
    fn reference_free_entries_keep_legacy_bytes() {
        // An index with no references must serialize byte-identically to
        // the pre-reference format (tag 0/1, nothing appended) so
        // existing files and the golden storage fixture stay valid.
        let idx = ChunkIndex::new(vec![
            ChunkIndexEntry::new(3, Some(([0, 0, 0], [7, 7, 7]))),
            ChunkIndexEntry::new(3, None),
        ]);
        let mut w = Writer::new();
        idx.write_to(&mut w);
        let bytes = w.into_bytes();
        let mut legacy = Writer::new();
        legacy.put_u32(2);
        legacy.put_u32(3);
        legacy.put_u8(1);
        for v in [0u64, 0, 0, 7, 7, 7] {
            legacy.put_u64(v);
        }
        legacy.put_u32(3);
        legacy.put_u8(0);
        assert_eq!(bytes, legacy.into_bytes());
    }

    #[test]
    fn truncated_reference_is_typed_error() {
        let idx = ChunkIndex::new(vec![ChunkIndexEntry::new(7, None).with_reference(9)]);
        let mut w = Writer::new();
        idx.write_to(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(ChunkIndex::read_from(&mut r).unwrap(), idx);
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(ChunkIndex::read_from(&mut r).is_err());
        }
    }
}
