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
use sz_codec::ErrorBound;

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

/// A bidirectional chunk transform.
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
    /// Decode to exactly `n_elems` values.
    fn decode(&self, bytes: &[u8], n_elems: usize) -> H5Result<Vec<f64>>;
}

/// One chunk's encoded bytes plus the metadata the collective write path
/// records for it — the unit of work the parallel compression engine
/// hands from workers to the ordered reassembly stage.
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

    fn decode(&self, bytes: &[u8], n_elems: usize) -> H5Result<Vec<f64>> {
        if bytes.len() != n_elems * 8 {
            return Err(H5Error::Format(format!(
                "raw chunk is {} bytes, expected {}",
                bytes.len(),
                n_elems * 8
            )));
        }
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect())
    }
}

/// SZ error-bounded lossy filter (H5Z-SZ equivalent). The chunk is treated
/// as a 1-D stream unless `dims_hint` reshapes it — AMRIC's pre-processing
/// hands 3-D-arranged buffers through this hint, the AMReX baseline leaves
/// it unset and gets 1-D compression.
///
/// With a relative bound, the bound resolves against **each chunk's own
/// value range** — exactly H5Z-SZ's `REL` mode, where the range is taken
/// per compression call.
#[derive(Clone, Copy, Debug)]
pub struct SzFilter {
    /// Which SZ algorithm to run.
    pub algorithm: SzAlgorithm,
    /// Error bound applied inside the filter.
    pub eb: ErrorBound,
    /// Optional 3-D shape of the incoming chunk. Element count must match
    /// the chunk exactly when set.
    pub dims_hint: Option<Dims3>,
    /// SZ_L/R block size override (None = stock 6).
    pub block_size: Option<usize>,
}

impl SzFilter {
    /// 1-D range-relative SZ_L/R filter — what AMReX's stock integration
    /// uses.
    pub fn one_dimensional(rel_eb: f64) -> Self {
        SzFilter {
            algorithm: SzAlgorithm::LorenzoRegression,
            eb: ErrorBound::Rel(rel_eb),
            dims_hint: None,
            block_size: None,
        }
    }

    /// 3-D filter with a shape hint and absolute bound (AMRIC path).
    pub fn three_dimensional(algorithm: SzAlgorithm, abs_eb: f64, dims: Dims3) -> Self {
        SzFilter {
            algorithm,
            eb: ErrorBound::Abs(abs_eb),
            dims_hint: Some(dims),
            block_size: None,
        }
    }
}

impl ChunkFilter for SzFilter {
    fn id(&self) -> u32 {
        FILTER_SZ
    }

    fn client_data(&self) -> Vec<u8> {
        // algorithm tag + bound mode + value, informational (streams are
        // self-describing).
        let (mode, value) = match self.eb {
            ErrorBound::Abs(v) => (0u8, v),
            ErrorBound::Rel(v) => (1u8, v),
        };
        let mut cd = vec![
            match self.algorithm {
                SzAlgorithm::LorenzoRegression => 0u8,
                SzAlgorithm::Interpolation => 1u8,
            },
            mode,
        ];
        cd.extend_from_slice(&value.to_le_bytes());
        cd
    }

    fn encode_into(&self, chunk: &[f64], out: &mut Vec<u8>) -> H5Result<()> {
        if chunk.is_empty() {
            // Zero-length chunks carry no bytes; decode restores them
            // symmetrically without touching the SZ layer.
            return Ok(());
        }
        let dims = match self.dims_hint {
            Some(d) if d.len() == chunk.len() => d,
            _ => Dims3::new(chunk.len().max(1), 1, 1),
        };
        let (lo, hi) = sz_codec::buffer3::min_max(chunk);
        let abs_eb = self.eb.to_absolute(hi - lo);
        match self.algorithm {
            SzAlgorithm::LorenzoRegression => {
                let mut cfg = LrConfig::new(abs_eb);
                if let Some(bs) = self.block_size {
                    cfg = cfg.with_block_size(bs);
                }
                // SZ_L/R reads the chunk in place.
                lr::compress_domains_pooled(&[View3::new(dims, chunk)], &cfg, out);
            }
            SzAlgorithm::Interpolation => {
                let buf = Buffer3::from_vec(dims, chunk.to_vec());
                interp::compress_into(&buf, &InterpConfig::new(abs_eb), out)
            }
        }
        Ok(())
    }

    fn decode(&self, bytes: &[u8], n_elems: usize) -> H5Result<Vec<f64>> {
        if n_elems == 0 {
            return Ok(Vec::new());
        }
        let buf = match self.algorithm {
            SzAlgorithm::LorenzoRegression => lr::decompress(bytes)?,
            SzAlgorithm::Interpolation => interp::decompress(bytes)?,
        };
        let mut data = buf.into_vec();
        if data.len() < n_elems {
            return Err(H5Error::Format(format!(
                "decoded {} elems, need {}",
                data.len(),
                n_elems
            )));
        }
        data.truncate(n_elems);
        Ok(data)
    }
}

/// Decoder lookup for reading: maps a stored `(filter_id, client_data)`
/// pair back to a filter instance.
pub fn decoder_for(filter_id: u32, client_data: &[u8]) -> H5Result<Box<dyn ChunkFilter>> {
    match filter_id {
        FILTER_NONE => Ok(Box::new(NoFilter)),
        FILTER_SZ => {
            let algorithm = match client_data.first() {
                Some(0) => SzAlgorithm::LorenzoRegression,
                Some(1) => SzAlgorithm::Interpolation,
                _ => return Err(H5Error::Format("bad SZ filter client data".into())),
            };
            let mode = client_data
                .get(1)
                .ok_or_else(|| H5Error::Format("short SZ filter client data".into()))?;
            let value = client_data
                .get(2..10)
                .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte value")))
                .ok_or_else(|| H5Error::Format("short SZ filter client data".into()))?;
            let eb = match mode {
                0 => ErrorBound::Abs(value),
                1 => ErrorBound::Rel(value),
                _ => return Err(H5Error::Format("bad SZ bound mode".into())),
            };
            Ok(Box::new(SzFilter {
                algorithm,
                eb,
                dims_hint: None,
                block_size: None,
            }))
        }
        other => Err(H5Error::UnknownFilter(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_filter_roundtrip() {
        let data = vec![1.5, -2.25, 1e300, 0.0];
        let f = NoFilter;
        let enc = f.encode(&data).unwrap();
        assert_eq!(enc.len(), 32);
        assert_eq!(f.decode(&enc, 4).unwrap(), data);
        assert!(f.decode(&enc, 3).is_err());
    }

    #[test]
    fn sz_filter_roundtrip_1d() {
        let data: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.01).sin()).collect();
        let f = SzFilter::one_dimensional(1e-3);
        let enc = f.encode(&data).unwrap();
        assert!(enc.len() < data.len() * 8);
        let dec = f.decode(&enc, 2000).unwrap();
        // REL mode: bound resolves against the chunk's own range.
        let range = 2.0;
        for (o, r) in data.iter().zip(&dec) {
            assert!((o - r).abs() <= 1e-3 * range + 1e-12);
        }
    }

    #[test]
    fn sz_filter_3d_hint_beats_1d() {
        // 3-D structure exploited through the dims hint → better ratio on
        // spatially smooth data. This is the heart of AMRIC's "3-D vs 1-D"
        // argument.
        let dims = Dims3::cube(24);
        let mut buf = Buffer3::zeros(dims);
        buf.fill_with(|i, j, k| {
            ((i as f64) * 0.2).sin() * ((j as f64) * 0.15).cos() + (k as f64 * 0.1).sin()
        });
        let data = buf.data().to_vec();
        let f1 = SzFilter::one_dimensional(1e-3);
        let f3 = SzFilter::three_dimensional(SzAlgorithm::LorenzoRegression, 1e-3, dims);
        let e1 = f1.encode(&data).unwrap().len();
        let e3 = f3.encode(&data).unwrap().len();
        assert!(e3 < e1, "3-D ({e3}) should beat 1-D ({e1})");
        let dec = f3.decode(&f3.encode(&data).unwrap(), data.len()).unwrap();
        for (o, r) in data.iter().zip(&dec) {
            assert!((o - r).abs() <= 1e-3);
        }
    }

    #[test]
    fn interp_filter_roundtrip() {
        let dims = Dims3::cube(16);
        let mut buf = Buffer3::zeros(dims);
        buf.fill_with(|i, j, k| (i + 2 * j + 3 * k) as f64 * 0.05);
        let f = SzFilter::three_dimensional(SzAlgorithm::Interpolation, 1e-4, dims);
        let enc = f.encode(buf.data()).unwrap();
        let dec = f.decode(&enc, dims.len()).unwrap();
        for (o, r) in buf.data().iter().zip(&dec) {
            assert!((o - r).abs() <= 1e-4);
        }
    }

    #[test]
    fn sz_filter_empty_chunk_is_not_a_panic() {
        // Regression: the fallible filter contract extends to zero-length
        // chunks — no Buffer3 dims assert, symmetric decode.
        let f = SzFilter::one_dimensional(1e-3);
        let enc = f.encode(&[]).unwrap();
        assert!(enc.is_empty());
        assert_eq!(f.decode(&enc, 0).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn decoder_registry_roundtrip() {
        let f = SzFilter::one_dimensional(5e-3);
        let d = decoder_for(f.id(), &f.client_data()).unwrap();
        assert_eq!(d.id(), FILTER_SZ);
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let enc = f.encode(&data).unwrap();
        let dec = d.decode(&enc, 100).unwrap();
        for (o, r) in data.iter().zip(&dec) {
            assert!((o - r).abs() <= 5e-3 * 99.0 + 1e-12);
        }
        assert!(matches!(
            decoder_for(99, &[]),
            Err(H5Error::UnknownFilter(99))
        ));
    }
}
