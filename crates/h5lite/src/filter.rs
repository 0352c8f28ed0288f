//! Chunk filter pipeline (HDF5 `H5Z` equivalent).
//!
//! A filter transforms one chunk of `f64` data into bytes on the way to
//! storage and back. The crucial AMRIC-relevant semantics are reproduced:
//!
//! * **Standard mode** (stock HDF5): the filter always receives the full,
//!   padded chunk buffer — it cannot know how much of it is real data, so
//!   padding gets compressed too.
//! * **Size-aware mode** (AMRIC's modified filter, paper §3.3 Solution 2):
//!   the writer passes the *actual* per-rank data size and only the logical
//!   prefix of the chunk reaches the filter; the chunk record keeps the
//!   logical element count as metadata for decompression.

use crate::error::{H5Error, H5Result};
use crate::file::ChunkData;
use sz_codec::prelude::*;

/// Filter id for "no filter" (raw little-endian f64 bytes).
pub const FILTER_NONE: u32 = 0;
/// Filter id for the SZ error-bounded filter.
pub const FILTER_SZ: u32 = 1;

/// Whether the writer hands filters the padded chunk or the logical prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterMode {
    /// Stock HDF5: filters see full chunks including padding.
    Standard,
    /// AMRIC's modification: filters see only the actual data.
    SizeAware,
}

impl FilterMode {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            FilterMode::Standard => 0,
            FilterMode::SizeAware => 1,
        }
    }

    pub(crate) fn from_u8(v: u8) -> H5Result<Self> {
        match v {
            0 => Ok(FilterMode::Standard),
            1 => Ok(FilterMode::SizeAware),
            _ => Err(H5Error::Format(format!("bad filter mode {v}"))),
        }
    }
}

/// A chunk transform on the write path. Reading decodes the built-in
/// filters through [`decode_chunk`]; an application-defined filter's
/// reader decodes its raw chunks itself.
///
/// `encode_into` is the primary entry point: it **appends** to a
/// caller-provided buffer (the writer reuses one buffer across chunks, so
/// the per-chunk hot path allocates no fresh output `Vec`) and it is
/// fallible — a filter handed a chunk it cannot represent returns `Err`
/// instead of panicking.
pub trait ChunkFilter: Send + Sync {
    /// Stable id stored in the file.
    fn id(&self) -> u32;
    /// Opaque parameter bytes stored next to the id (HDF5 "client data").
    fn client_data(&self) -> Vec<u8> {
        Vec::new()
    }
    /// Encode one chunk (already cut to the data the filter may see),
    /// appending the bytes to `out`.
    fn encode_into(&self, chunk: &[f64], out: &mut Vec<u8>) -> H5Result<()>;
    /// Convenience: encode into a fresh buffer.
    fn encode(&self, chunk: &[f64]) -> H5Result<Vec<u8>> {
        let mut out = Vec::new();
        self.encode_into(chunk, &mut out)?;
        Ok(out)
    }
}

/// One chunk's encoded bytes plus the metadata the collective write path
/// records for it — the unit of work the pool's helpers hand to the rank
/// thread, which commits it in submission order.
#[derive(Clone, Debug)]
pub struct EncodedFrame {
    /// Filter output for this chunk.
    pub bytes: Vec<u8>,
    /// Meaningful element count the frame decodes to (chunk size in
    /// standard mode, the actual data size in size-aware mode).
    pub logical_elems: u64,
    /// Seconds spent inside the filter encode for this frame.
    pub encode_seconds: f64,
}

/// Resolve which values of `chunk` the filter may see under `mode`, and
/// the logical element count to record. Standard mode zero-pads short
/// chunks to `chunk_elems` (into the reusable `pad` buffer); size-aware
/// mode exposes only the logical prefix.
fn staged_chunk<'a>(
    chunk: &'a ChunkData,
    chunk_elems: usize,
    mode: FilterMode,
    pad: &'a mut Vec<f64>,
) -> H5Result<(&'a [f64], u64)> {
    if chunk.data.len() > chunk_elems {
        return Err(H5Error::Format(format!(
            "chunk holds {} elems, exceeds chunk size {chunk_elems}",
            chunk.data.len()
        )));
    }
    if chunk.logical > chunk.data.len() {
        return Err(H5Error::Format(format!(
            "chunk logical length {} exceeds its {} elems",
            chunk.logical,
            chunk.data.len()
        )));
    }
    match mode {
        FilterMode::Standard => {
            if chunk.data.len() == chunk_elems {
                Ok((&chunk.data, chunk_elems as u64))
            } else {
                pad.clear();
                pad.extend_from_slice(&chunk.data);
                pad.resize(chunk_elems, 0.0);
                Ok((pad, chunk_elems as u64))
            }
        }
        FilterMode::SizeAware => Ok((&chunk.data[..chunk.logical], chunk.logical as u64)),
    }
}

/// Encode one chunk into an owned [`EncodedFrame`] — the encode step of
/// the write engine ([`crate::collective`]), run inline or on a pool
/// worker. `pad` is the caller's reusable padding buffer.
pub fn encode_frame(
    chunk: &ChunkData,
    chunk_elems: usize,
    filter: &dyn ChunkFilter,
    mode: FilterMode,
    pad: &mut Vec<f64>,
) -> H5Result<EncodedFrame> {
    let t0 = std::time::Instant::now();
    let (data, logical_elems) = staged_chunk(chunk, chunk_elems, mode, pad)?;
    let mut bytes = Vec::new();
    filter.encode_into(data, &mut bytes)?;
    Ok(EncodedFrame {
        bytes,
        logical_elems,
        encode_seconds: t0.elapsed().as_secs_f64(),
    })
}

/// Identity filter: raw little-endian f64 bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFilter;

impl ChunkFilter for NoFilter {
    fn id(&self) -> u32 {
        FILTER_NONE
    }

    fn encode_into(&self, chunk: &[f64], out: &mut Vec<u8>) -> H5Result<()> {
        out.reserve(chunk.len() * 8);
        for v in chunk {
            out.extend_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }
}

/// SZ error-bounded lossy filter (H5Z-SZ equivalent), as AMReX's stock
/// integration runs it: every chunk is one 1-D SZ_L/R stream, and the
/// relative bound resolves against **each chunk's own value range** —
/// exactly H5Z-SZ's `REL` mode, where the range is taken per compression
/// call.
#[derive(Clone, Copy, Debug)]
pub struct SzFilter {
    /// Value-range-relative error bound.
    pub rel_eb: f64,
}

/// The client data an [`SzFilter`] stores: SZ_L/R tag 0, bound mode 1
/// (REL), then the bound as a little-endian `f64`.
const SZ_CLIENT_TAG: [u8; 2] = [0, 1];

impl SzFilter {
    /// 1-D range-relative SZ_L/R filter.
    pub fn one_dimensional(rel_eb: f64) -> Self {
        SzFilter { rel_eb }
    }
}

impl ChunkFilter for SzFilter {
    fn id(&self) -> u32 {
        FILTER_SZ
    }

    fn client_data(&self) -> Vec<u8> {
        // Informational (streams are self-describing).
        let mut cd = SZ_CLIENT_TAG.to_vec();
        cd.extend_from_slice(&self.rel_eb.to_le_bytes());
        cd
    }

    fn encode_into(&self, chunk: &[f64], out: &mut Vec<u8>) -> H5Result<()> {
        if chunk.is_empty() {
            // Zero-length chunks carry no bytes; decode restores them
            // symmetrically without touching the SZ layer.
            return Ok(());
        }
        let (lo, hi) = sz_codec::buffer3::min_max(chunk);
        let cfg = LrConfig::new(absolute_bound(self.rel_eb, hi - lo));
        // SZ_L/R reads the chunk in place.
        let row = View3::new(Dims3::new(chunk.len(), 1, 1), chunk);
        lr::with_thread_scratch(|s| lr::compress_domains_into(&[row], &cfg, s, out));
        Ok(())
    }
}

/// Decode one chunk stored through a built-in filter ([`NoFilter`],
/// [`SzFilter`]) to exactly `n_elems` values; the stored
/// `(filter_id, client_data)` pair names the filter. `n_elems` is the
/// directory's record: a stream that disagrees with it, either way,
/// contradicts the file.
pub fn decode_chunk(
    filter_id: u32,
    client_data: &[u8],
    bytes: &[u8],
    n_elems: usize,
) -> H5Result<Vec<f64>> {
    match filter_id {
        FILTER_NONE => {
            // Checked: a forged count is a size mismatch, not an overflow.
            if n_elems.checked_mul(8) != Some(bytes.len()) {
                return Err(H5Error::Format(format!(
                    "raw chunk is {} bytes, expected {n_elems} values",
                    bytes.len()
                )));
            }
            Ok(bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
                .collect())
        }
        FILTER_SZ => {
            // The stream is self-describing and the bound informational,
            // but only the client data `SzFilter` writes names this filter.
            if client_data.strip_prefix(&SZ_CLIENT_TAG).map(<[u8]>::len) != Some(8) {
                return Err(H5Error::Format("bad SZ filter client data".into()));
            }
            if n_elems == 0 {
                return Ok(Vec::new());
            }
            let data = lr::decompress(bytes)?.into_vec();
            if data.len() != n_elems {
                return Err(H5Error::Format(format!(
                    "decoded {} elems, chunk record says {n_elems}",
                    data.len()
                )));
            }
            Ok(data)
        }
        other => Err(H5Error::UnknownFilter(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(f: &dyn ChunkFilter, bytes: &[u8], n_elems: usize) -> H5Result<Vec<f64>> {
        decode_chunk(f.id(), &f.client_data(), bytes, n_elems)
    }

    #[test]
    fn no_filter_roundtrip() {
        let data = vec![1.5, -2.25, 1e300, 0.0];
        let f = NoFilter;
        let enc = f.encode(&data).unwrap();
        assert_eq!(enc.len(), 32);
        assert_eq!(decode(&f, &enc, 4).unwrap(), data);
        assert!(decode(&f, &enc, 3).is_err());
    }

    #[test]
    fn sz_filter_roundtrip_1d() {
        let data: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.01).sin()).collect();
        let f = SzFilter::one_dimensional(1e-3);
        let enc = f.encode(&data).unwrap();
        assert!(enc.len() < data.len() * 8);
        let dec = decode(&f, &enc, 2000).unwrap();
        // REL mode: bound resolves against the chunk's own range.
        let range = 2.0;
        for (o, r) in data.iter().zip(&dec) {
            assert!((o - r).abs() <= 1e-3 * range + 1e-12);
        }
        // The chunk record is outside input: a stream holding more
        // values than it claims is a contradiction, not a prefix.
        assert!(decode(&f, &enc, 1999).is_err());
        assert!(decode(&f, &enc, 2001).is_err());
    }

    #[test]
    fn sz_filter_empty_chunk_is_not_a_panic() {
        // Regression: the fallible filter contract extends to zero-length
        // chunks — no Buffer3 dims assert, symmetric decode.
        let f = SzFilter::one_dimensional(1e-3);
        let enc = f.encode(&[]).unwrap();
        assert!(enc.is_empty());
        assert_eq!(decode(&f, &enc, 0).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn decoder_registry_roundtrip() {
        let f = SzFilter::one_dimensional(5e-3);
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let enc = f.encode(&data).unwrap();
        let dec = decode_chunk(FILTER_SZ, &f.client_data(), &enc, 100).unwrap();
        for (o, r) in data.iter().zip(&dec) {
            assert!((o - r).abs() <= 5e-3 * 99.0 + 1e-12);
        }
        assert!(matches!(
            decode_chunk(99, &[], &enc, 100),
            Err(H5Error::UnknownFilter(99))
        ));
        // Only the client data `SzFilter` writes decodes: any other tag,
        // bound mode or length is a format error.
        let cd = f.client_data();
        let mut other_algorithm = cd.clone();
        other_algorithm[0] = 1;
        let mut abs_bound = cd.clone();
        abs_bound[1] = 0;
        let mut longer = cd.clone();
        longer.push(0);
        for bad in [&[][..], &cd[..9], &other_algorithm, &abs_bound, &longer] {
            assert!(
                matches!(
                    decode_chunk(FILTER_SZ, bad, &enc, 100),
                    Err(H5Error::Format(_))
                ),
                "{bad:?}"
            );
        }
    }
}
