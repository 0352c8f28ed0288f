//! Fuzz-lite robustness suite for the container tail — the dataset
//! directory, the persistent chunk-index section and the footer (mirrors
//! the `amric` crate's `corruption.rs` style): every malformed tail must
//! surface as a typed `H5Error` or read as a container without an index
//! section — never a panic, never an absurd allocation.
//!
//! Runs on [`MemStorage`] images: thousands of mutants open without a
//! single filesystem write, and a panicking case leaks nothing.

use h5lite::prelude::*;

/// Container bytes with the same two datasets, with or without indexes.
fn build(with_index: bool) -> Vec<u8> {
    let (w, mem) = H5Writer::in_memory();
    let data: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.003).sin()).collect();
    w.write_dataset("a/raw", &data, 1024, &NoFilter).unwrap();
    w.write_dataset("a/sz", &data, 1024, &SzFilter::one_dimensional(1e-3))
        .unwrap();
    if with_index {
        for name in ["a/raw", "a/sz"] {
            let entries = (0..3)
                .map(|i| {
                    ChunkIndexEntry::new(
                        if name == "a/raw" { CODEC_RAW } else { 1 },
                        Some(([0, 0, i * 8], [15, 15, i * 8 + 7])),
                    )
                })
                .collect();
            w.set_chunk_index(name, ChunkIndex::new(entries)).unwrap();
        }
    }
    w.finish().unwrap();
    mem.to_bytes()
}

fn open_bytes(bytes: Vec<u8>) -> H5Result<H5Reader> {
    H5Reader::from_storage(Box::new(MemStorage::from_bytes(bytes)))
}

/// The byte span of the index section: everything the indexed image has
/// that the index-less twin does not (both end with the same 12-byte
/// footer).
fn section_span(indexed: &[u8], legacy: &[u8]) -> std::ops::Range<usize> {
    assert!(indexed.len() > legacy.len());
    let start = legacy.len() - 12;
    let end = indexed.len() - 12;
    assert_eq!(&indexed[..start], &legacy[..start], "common prefix differs");
    assert_eq!(&indexed[end..], &legacy[start..], "footers differ");
    start..end
}

/// Open + exercise a possibly-corrupt image: any typed `Err` is fine, a
/// panic is not; on `Ok` every surfaced index and dataset must still read
/// without panicking.
fn exercise(bytes: &[u8]) {
    if let Ok(r) = open_bytes(bytes.to_vec()) {
        for name in r.dataset_names() {
            let _ = r.chunk_index(name).map(|i| i.cloned());
            let _ = r.read_dataset(name);
        }
    }
}

/// Where the container directory begins (the footer's `dir_offset`).
fn dir_offset(bytes: &[u8]) -> usize {
    let n = bytes.len();
    u64::from_le_bytes(bytes[n - 12..n - 4].try_into().unwrap()) as usize
}

#[test]
fn index_section_is_total_over_byte_flips() {
    // The whole tail — directory, index section and footer: every count,
    // offset and length a reader trusts before touching a chunk.
    let indexed = build(true);
    for pos in dir_offset(&indexed)..indexed.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = indexed.clone();
            corrupt[pos] ^= mask;
            exercise(&corrupt);
        }
    }
}

#[test]
fn truncated_index_streams_are_typed_errors() {
    let indexed = build(true);
    let legacy = build(false);
    let span = section_span(&indexed, &legacy);
    let section_len = span.len();
    // Splice k bytes out of the tail of the index section, keeping the
    // footer intact: the index magic survives, its stream is short.
    // (Cuts that leave fewer than 4 bytes erase the magic itself; those
    // read as an unknown trailing section — i.e. "no index" — by design.)
    for k in 1..=section_len - 4 {
        let mut spliced = Vec::with_capacity(indexed.len() - k);
        spliced.extend_from_slice(&indexed[..span.end - k]);
        spliced.extend_from_slice(&indexed[span.end..]);
        match open_bytes(spliced) {
            Err(H5Error::Format(_)) | Err(H5Error::Codec(_)) => {}
            Err(other) => panic!("cut {k}: unexpected error class {other:?}"),
            Ok(_) => panic!("cut {k}: truncated index must not parse"),
        }
    }
    // Splicing the whole section out reads as a container without one.
    let mut stripped = Vec::new();
    stripped.extend_from_slice(&indexed[..span.start]);
    stripped.extend_from_slice(&indexed[span.end..]);
    let r = open_bytes(stripped).expect("index-less layout must open");
    assert!(r.chunk_index("a/sz").unwrap().is_none());
}

#[test]
fn absurd_index_counts_rejected_without_allocation() {
    let legacy = build(false);
    let insert_at = legacy.len() - 12;
    // Crafted sections claiming counts far beyond the stream's bytes: a
    // dataset count of u32::MAX and an entry count of u32::MAX. Both must
    // fail the pre-allocation bounds check, not allocate gigabytes.
    let magic = 0x5844_4943u32.to_le_bytes();
    let mut absurd_datasets = magic.to_vec();
    absurd_datasets.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut absurd_entries = magic.to_vec();
    absurd_entries.extend_from_slice(&1u32.to_le_bytes());
    absurd_entries.extend_from_slice(&2u16.to_le_bytes());
    absurd_entries.extend_from_slice(b"a/");
    absurd_entries.extend_from_slice(&u32::MAX.to_le_bytes());
    for section in [absurd_datasets, absurd_entries] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&legacy[..insert_at]);
        bytes.extend_from_slice(&section);
        bytes.extend_from_slice(&legacy[insert_at..]);
        match open_bytes(bytes) {
            Err(H5Error::Format(_)) | Err(H5Error::Codec(_)) => {}
            Err(other) => panic!("absurd count: unexpected error class {other:?}"),
            Ok(_) => panic!("absurd count must be a typed error"),
        }
    }
    // The directory's own fields. Its first entry is "a/raw" (NoFilter,
    // no client data, 3 chunks of 1024): u16 name length, 5 name bytes,
    // total_elems, chunk_elems, filter id, mode, client-data length, the
    // chunk count, then (offset, stored_bytes, logical_elems) per chunk.
    let total_elems = dir_offset(&legacy) + 4 + 2 + 5;
    let nchunks = total_elems + 8 + 8 + 4 + 1 + 8;
    let chunk0 = nchunks + 4;
    let forge = |at: usize, field: &[u8]| {
        let mut bytes = legacy.clone();
        bytes[at..at + field.len()].copy_from_slice(field);
        bytes
    };
    for (ctx, forged) in [
        (
            "chunk count u32::MAX",
            forge(nchunks, &u32::MAX.to_le_bytes()),
        ),
        (
            "chunk offset u64::MAX - 3",
            forge(chunk0, &(u64::MAX - 3).to_le_bytes()),
        ),
        (
            "chunk offset inside the superblock",
            forge(chunk0, &2u64.to_le_bytes()),
        ),
        (
            "stored_bytes 2^38",
            forge(chunk0 + 8, &(1u64 << 38).to_le_bytes()),
        ),
    ] {
        match open_bytes(forged) {
            Err(H5Error::Format(_)) | Err(H5Error::Codec(_)) => {}
            Err(other) => panic!("{ctx}: unexpected error class {other:?}"),
            Ok(_) => panic!("{ctx}: forged directory must not open"),
        }
    }
    // A forged total is a capacity hint, not a structure: the dataset
    // reads back as what its stored chunks decode to.
    let r = open_bytes(forge(total_elems, &(1u64 << 40).to_le_bytes())).unwrap();
    assert_eq!(r.read_dataset("a/raw").unwrap().len(), 3 * 1024);
}

#[test]
fn index_for_unknown_dataset_or_wrong_arity_rejected() {
    let legacy = build(false);
    let insert_at = legacy.len() - 12;
    let magic = 0x5844_4943u32.to_le_bytes();
    // Index naming a dataset the directory does not hold.
    let mut unknown = magic.to_vec();
    unknown.extend_from_slice(&1u32.to_le_bytes());
    unknown.extend_from_slice(&4u16.to_le_bytes());
    unknown.extend_from_slice(b"ghost");
    // (name says 4 bytes: "ghos" — remaining "t" feeds the entry count,
    // which then truncates; either way a typed error.)
    unknown.extend_from_slice(&0u32.to_le_bytes());
    // Index with the wrong entry count for a real dataset.
    let mut arity = magic.to_vec();
    arity.extend_from_slice(&1u32.to_le_bytes());
    arity.extend_from_slice(&5u16.to_le_bytes());
    arity.extend_from_slice(b"a/raw");
    arity.extend_from_slice(&1u32.to_le_bytes()); // dataset has 3 chunks
    arity.extend_from_slice(&CODEC_RAW.to_le_bytes());
    arity.push(0);
    for section in [unknown, arity] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&legacy[..insert_at]);
        bytes.extend_from_slice(&section);
        bytes.extend_from_slice(&legacy[insert_at..]);
        match open_bytes(bytes) {
            Err(H5Error::Format(_)) | Err(H5Error::Codec(_)) => {}
            Err(other) => panic!("inconsistent index: unexpected error class {other:?}"),
            Ok(_) => panic!("inconsistent index must be a typed error"),
        }
    }
}
