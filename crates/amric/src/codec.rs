//! [`Codec`] implementations for every compressor family this crate hosts
//! — the full AMRIC pipeline plus the three offline comparators — and the
//! workspace-wide [`default_registry`] / [`decompress_auto`] dispatch.
//!
//! Together with `sz-codec`'s [`LrCodec`] and [`InterpCodec`], this makes
//! all six families pluggable behind one trait: a writer, bench, or test
//! can hold a `&dyn Codec` and swap compressors without touching call
//! sites, and any stream produced anywhere in the workspace decodes
//! through [`decompress_auto`] with no out-of-band context.

use crate::config::{AmricConfig, BaselineConfig};
use crate::pipeline::{
    compress_on_thread_scratch, decompress_field_units, local_range, resolve_abs_eb, ResolvedBound,
};
use amr_mesh::IntVect;
use sz_codec::codec::{expect_envelope, write_envelope, FLAG_MULTI};
use sz_codec::prelude::*;
use sz_codec::wire::{Reader, Writer};

/// [`Codec`] adapter for the full AMRIC pipeline (reorganize + optimized
/// SZ, paper §3.1–3.2).
#[derive(Clone, Copy, Debug)]
pub struct AmricCodec {
    /// Pipeline configuration (algorithm, merge policy, ablations).
    pub cfg: AmricConfig,
    /// Unit-block edge of the level being compressed.
    pub unit_edge: usize,
    /// Absolute error bound override. `None` resolves the configured
    /// relative bound against the local value range of the units (offline
    /// studies); the in-situ writer passes the globally resolved bound.
    pub abs_eb: Option<f64>,
}

impl AmricCodec {
    /// Codec resolving the relative bound locally.
    pub fn new(cfg: AmricConfig, unit_edge: usize) -> Self {
        AmricCodec {
            cfg,
            unit_edge,
            abs_eb: None,
        }
    }

    /// Codec with a writer-resolved absolute bound.
    pub fn with_bound(cfg: AmricConfig, unit_edge: usize, abs_eb: f64) -> Self {
        AmricCodec {
            cfg,
            unit_edge,
            abs_eb: Some(abs_eb),
        }
    }

    /// Decode-only instance for registries (streams are self-describing;
    /// the compression configuration is irrelevant on decode).
    pub fn decoder() -> Self {
        AmricCodec::new(AmricConfig::lr(1e-3), 8)
    }
}

impl Codec for AmricCodec {
    fn id(&self) -> CodecId {
        CodecId::AmricPipeline
    }

    fn compress_into(&self, units: &[Buffer3], out: &mut Vec<u8>) -> CodecResult<StreamInfo> {
        // An explicit absolute bound overrides the policy (the writer has
        // already resolved it); otherwise resolve the configured policy
        // against the local value range.
        let bound = match self.abs_eb {
            Some(eb) => ResolvedBound::Fixed(eb),
            None if units.is_empty() => ResolvedBound::Fixed(1.0), // unused: empty marker
            None => ResolvedBound::from_policy(self.cfg.bound, self.cfg.rel_eb, local_range(units)),
        };
        let (cfg, edge) = (&self.cfg, self.unit_edge);
        Ok(compress_on_thread_scratch(units, cfg, edge, bound, out))
    }

    fn decompress(&self, bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
        decompress_field_units(bytes)
    }
}

/// [`Codec`] adapter for the TAC comparator. Compression needs the unit
/// origins (TAC's Morton ordering is spatial); the permutation rides in
/// the stream, so decompression is self-contained.
#[derive(Clone, Debug)]
pub struct TacCodec {
    /// Value-range-relative error bound.
    pub rel_eb: f64,
    /// Unit-block origins, index-aligned with the units passed to
    /// `compress_into`. May be empty for decode-only instances.
    pub origins: Vec<IntVect>,
}

impl TacCodec {
    /// Codec for units at the given origins.
    pub fn new(rel_eb: f64, origins: Vec<IntVect>) -> Self {
        TacCodec { rel_eb, origins }
    }

    /// Decode-only instance for registries.
    pub fn decoder() -> Self {
        TacCodec::new(1e-3, Vec::new())
    }
}

impl Codec for TacCodec {
    fn id(&self) -> CodecId {
        CodecId::Tac
    }

    fn compress_into(&self, units: &[Buffer3], out: &mut Vec<u8>) -> CodecResult<StreamInfo> {
        if units.len() != self.origins.len() {
            return Err(CodecError::dims(format!(
                "TAC codec holds {} origins for {} units",
                self.origins.len(),
                units.len()
            )));
        }
        let start = out.len();
        crate::tac::tac_compress_into(units, &self.origins, self.rel_eb, out);
        Ok(StreamInfo {
            codec: CodecId::Tac,
            bytes: out.len() - start,
            units: units.len(),
            cells: units.iter().map(|u| u.dims().len()).sum(),
        })
    }

    fn decompress(&self, bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
        crate::tac::tac_decompress(bytes)
    }
}

/// [`Codec`] adapter for zMesh: all cells of all units are laid out in one
/// 1-D array ordered by the Morton code of their absolute position, then
/// compressed through SZ_L/R's 1-D path.
///
/// Two stream shapes share the zMesh codec id: the unit-level container
/// this codec writes ([`FLAG_MULTI`]: dims + origins + locality-ordered
/// values, fully self-contained), and the hierarchy-level stream of
/// [`crate::zmesh::zmesh_compress`] (no flags: positions are reproducible
/// from hierarchy metadata, so only the values are stored). `decompress`
/// accepts both; for the latter it returns the values as a single 1-D
/// buffer, since the spatial layout is not in the stream.
#[derive(Clone, Debug)]
pub struct ZmeshCodec {
    /// Value-range-relative error bound.
    pub rel_eb: f64,
    /// Unit-block origins, index-aligned with the units passed to
    /// `compress_into`. May be empty for decode-only instances.
    pub origins: Vec<IntVect>,
}

impl ZmeshCodec {
    /// Codec for units at the given origins.
    pub fn new(rel_eb: f64, origins: Vec<IntVect>) -> Self {
        ZmeshCodec { rel_eb, origins }
    }

    /// Decode-only instance for registries.
    pub fn decoder() -> Self {
        ZmeshCodec::new(1e-3, Vec::new())
    }
}

/// Largest coordinate a zMesh unit origin may carry. [`morton3`]
/// interleaves the low 21 bits of each coordinate, so origins are
/// restricted to the non-negative half of that domain: positions
/// (origin + extent) keep faithful locality keys, nothing wraps, and
/// `origin + extent` can never overflow. Enforced symmetrically at
/// compress and decompress time, so every accepted stream round-trips.
///
/// [`morton3`]: crate::tac::morton3
const ZMESH_MAX_ORIGIN: i64 = 1 << 20;

fn zmesh_origin_in_range(o: &IntVect) -> bool {
    (0..3).all(|axis| (0..=ZMESH_MAX_ORIGIN).contains(&o.get(axis)))
}

/// Morton-ordered `(key, unit, data index)` enumeration of all cells —
/// identical on the compress and decompress side, which is what makes the
/// unit-level stream self-contained.
fn zmesh_cell_order(dims: &[Dims3], origins: &[IntVect]) -> Vec<(u128, u32, u32)> {
    let mut cells = Vec::with_capacity(dims.iter().map(|d| d.len()).sum());
    for (u, (d, o)) in dims.iter().zip(origins).enumerate() {
        for k in 0..d.nz {
            for j in 0..d.ny {
                for i in 0..d.nx {
                    let p = IntVect::new(
                        o.get(0) + i as i64,
                        o.get(1) + j as i64,
                        o.get(2) + k as i64,
                    );
                    cells.push((crate::tac::morton3(&p), u as u32, d.idx(i, j, k) as u32));
                }
            }
        }
    }
    // Stable sort: duplicate keys (overlapping units) keep input order on
    // both sides.
    cells.sort_by_key(|c| c.0);
    cells
}

impl Codec for ZmeshCodec {
    fn id(&self) -> CodecId {
        CodecId::Zmesh
    }

    fn compress_into(&self, units: &[Buffer3], out: &mut Vec<u8>) -> CodecResult<StreamInfo> {
        if units.len() != self.origins.len() {
            return Err(CodecError::dims(format!(
                "zMesh codec holds {} origins for {} units",
                self.origins.len(),
                units.len()
            )));
        }
        if !self.origins.iter().all(zmesh_origin_in_range) {
            return Err(CodecError::BadParameter {
                what: "unit origin out of range",
            });
        }
        let start = out.len();
        let mut w = Writer::from_vec(std::mem::take(out));
        write_envelope(&mut w, CodecId::Zmesh, crate::zmesh::VERSION, FLAG_MULTI);
        w.put_u32(units.len() as u32);
        for (u, o) in units.iter().zip(&self.origins) {
            let d = u.dims();
            w.put_u32(d.nx as u32);
            w.put_u32(d.ny as u32);
            w.put_u32(d.nz as u32);
            for axis in 0..3 {
                w.put_u64(o.get(axis) as u64);
            }
        }
        let cells = if units.is_empty() {
            0
        } else {
            let dims: Vec<Dims3> = units.iter().map(|u| u.dims()).collect();
            let order = zmesh_cell_order(&dims, &self.origins);
            let values: Vec<f64> = order
                .iter()
                .map(|&(_, u, idx)| units[u as usize].data()[idx as usize])
                .collect();
            let abs_eb = resolve_abs_eb(units, self.rel_eb);
            w.put_raw(&lr::compress_1d(&values, abs_eb));
            values.len()
        };
        *out = w.into_bytes();
        Ok(StreamInfo {
            codec: CodecId::Zmesh,
            bytes: out.len() - start,
            units: units.len(),
            cells,
        })
    }

    fn decompress(&self, bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
        let env = expect_envelope(bytes, CodecId::Zmesh, crate::zmesh::VERSION)?;
        let mut r = Reader::new(&bytes[env.payload_offset..]);
        if env.flags & FLAG_MULTI == 0 {
            // Hierarchy-level stream: the layout is not in the stream, so
            // hand back the locality-ordered values as one 1-D buffer.
            let n = r.get_u64()? as usize;
            let buf = lr::decompress(r.get_block()?)?;
            if buf.dims().len() != n {
                return Err(CodecError::dims("zMesh length mismatch"));
            }
            return Ok(vec![buf]);
        }
        let nunits = r.get_u32()? as usize;
        // Each unit header is 3 × u32 + 3 × u64.
        r.check_count(nunits, 36)?;
        let mut dims = Vec::with_capacity(nunits);
        let mut origins = Vec::with_capacity(nunits);
        let mut total: u128 = 0;
        for _ in 0..nunits {
            let nx = r.get_u32()? as usize;
            let ny = r.get_u32()? as usize;
            let nz = r.get_u32()? as usize;
            if nx == 0 || ny == 0 || nz == 0 {
                return Err(CodecError::dims(format!(
                    "degenerate unit dims {nx}x{ny}x{nz}"
                )));
            }
            total += nx as u128 * ny as u128 * nz as u128;
            dims.push(Dims3::new(nx, ny, nz));
            let o = IntVect::new(
                r.get_u64()? as i64,
                r.get_u64()? as i64,
                r.get_u64()? as i64,
            );
            // Reject implausible origins so `origin + extent` cannot
            // overflow in the Morton enumeration — the same bound the
            // compressor enforces, so every produced stream decodes.
            if !zmesh_origin_in_range(&o) {
                return Err(CodecError::corrupt("implausible unit origin"));
            }
            origins.push(o);
        }
        if nunits == 0 {
            return Ok(Vec::new());
        }
        // No cells-vs-remaining-bytes plausibility check here: `r` still
        // holds lossless-compressed data (constant fields legitimately
        // pack far below one bit per cell), and the SZ layer applies its
        // own post-expansion guards. Nothing allocates from `total`
        // until it has been matched against the actual decoded length.
        let values = lr::decompress(r.get_raw(r.remaining())?)?.into_vec();
        if values.len() as u128 != total {
            return Err(CodecError::dims(format!(
                "zMesh stream holds {} values for {total} cells",
                values.len()
            )));
        }
        let mut units: Vec<Buffer3> = dims.iter().map(|&d| Buffer3::zeros(d)).collect();
        for (&(_, u, idx), &v) in zmesh_cell_order(&dims, &origins).iter().zip(&values) {
            units[u as usize].data_mut()[idx as usize] = v;
        }
        Ok(units)
    }
}

/// [`Codec`] adapter for the AMReX baseline: the units are flattened in
/// input order and pushed through 1-D SZ_L/R in small standard-mode
/// chunks, one compressor call per chunk with a chunk-local REL bound —
/// the §2.3 behaviour AMRIC improves on, as an offline stream format.
#[derive(Clone, Copy, Debug)]
pub struct BaselineCodec {
    /// Baseline configuration (relative bound + chunk size).
    pub cfg: BaselineConfig,
}

/// Baseline payload format version (rides in the envelope header).
const BASELINE_VERSION: u8 = 1;

impl BaselineCodec {
    /// Build from a configuration.
    pub fn new(cfg: BaselineConfig) -> Self {
        BaselineCodec { cfg }
    }

    /// Decode-only instance for registries.
    pub fn decoder() -> Self {
        BaselineCodec::new(BaselineConfig::new(1e-2))
    }
}

impl Codec for BaselineCodec {
    fn id(&self) -> CodecId {
        CodecId::AmrexBaseline
    }

    fn compress_into(&self, units: &[Buffer3], out: &mut Vec<u8>) -> CodecResult<StreamInfo> {
        let start = out.len();
        let mut w = Writer::from_vec(std::mem::take(out));
        write_envelope(&mut w, CodecId::AmrexBaseline, BASELINE_VERSION, 0);
        w.put_u32(units.len() as u32);
        let mut flat = Vec::with_capacity(units.iter().map(|u| u.dims().len()).sum());
        for u in units {
            let d = u.dims();
            w.put_u32(d.nx as u32);
            w.put_u32(d.ny as u32);
            w.put_u32(d.nz as u32);
            flat.extend_from_slice(u.data());
        }
        let chunk_elems = self.cfg.chunk_elems.max(1);
        w.put_u32(flat.len().div_ceil(chunk_elems) as u32);
        for chunk in flat.chunks(chunk_elems) {
            // H5Z-SZ REL semantics: the bound resolves per chunk.
            let (lo, hi) = chunk
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, u), &v| {
                    (l.min(v), u.max(v))
                });
            let abs_eb = absolute_bound(self.cfg.rel_eb, if hi > lo { hi - lo } else { 0.0 });
            w.put_block(&lr::compress_1d(chunk, abs_eb));
        }
        *out = w.into_bytes();
        Ok(StreamInfo {
            codec: CodecId::AmrexBaseline,
            bytes: out.len() - start,
            units: units.len(),
            cells: flat.len(),
        })
    }

    fn decompress(&self, bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
        let env = expect_envelope(bytes, CodecId::AmrexBaseline, BASELINE_VERSION)?;
        let mut r = Reader::new(&bytes[env.payload_offset..]);
        let nunits = r.get_u32()? as usize;
        // Each unit header is 3 × u32.
        r.check_count(nunits, 12)?;
        let mut dims = Vec::with_capacity(nunits);
        let mut total: u128 = 0;
        for _ in 0..nunits {
            let nx = r.get_u32()? as usize;
            let ny = r.get_u32()? as usize;
            let nz = r.get_u32()? as usize;
            if nx == 0 || ny == 0 || nz == 0 {
                return Err(CodecError::dims(format!(
                    "degenerate unit dims {nx}x{ny}x{nz}"
                )));
            }
            total += nx as u128 * ny as u128 * nz as u128;
            dims.push(Dims3::new(nx, ny, nz));
        }
        let nchunks = r.get_u32()? as usize;
        r.check_count(nchunks, 8)?;
        // No cells-vs-remaining-bytes plausibility check: the chunk
        // payloads are lossless-compressed (constant fields pack far
        // below one bit per cell) and each chunk decode is guarded
        // internally. The capacity hint is capped so a corrupted `total`
        // cannot drive a huge upfront allocation — the vec grows only
        // with actually decoded data.
        let mut flat = Vec::with_capacity((total as usize).min(1 << 24));
        for _ in 0..nchunks {
            flat.extend(lr::decompress(r.get_block()?)?.into_vec());
        }
        if flat.len() as u128 != total {
            return Err(CodecError::dims(format!(
                "baseline stream holds {} values for {total} cells",
                flat.len()
            )));
        }
        let mut units = Vec::with_capacity(nunits);
        let mut off = 0usize;
        for d in dims {
            let n = d.len();
            units.push(Buffer3::from_vec(d, flat[off..off + n].to_vec()));
            off += n;
        }
        Ok(units)
    }
}

/// Registry covering all seven codec families of the workspace: SZ_L/R,
/// SZ_Interp, the AMRIC pipeline, TAC, zMesh, the AMReX baseline, and
/// temporal delta streams. The temporal decoder registered here carries
/// no reference snapshot: it decodes any self-contained (spatial-only)
/// temporal stream, and referenced streams fail with a typed error
/// naming the missing reference — re-register
/// `TemporalCodec::decoder_with(reference)` (later registration wins) to
/// resolve those too.
pub fn default_registry() -> CodecRegistry {
    let mut reg = CodecRegistry::sz_only();
    reg.register(Box::new(AmricCodec::decoder()))
        .register(Box::new(TacCodec::decoder()))
        .register(Box::new(ZmeshCodec::decoder()))
        .register(Box::new(BaselineCodec::decoder()))
        .register(Box::new(sz_codec::temporal::TemporalCodec::decoder()));
    reg
}

/// Decode any envelope stream produced anywhere in the workspace,
/// dispatching on the codec id in the header.
pub fn decompress_auto(bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
    static REGISTRY: std::sync::OnceLock<CodecRegistry> = std::sync::OnceLock::new();
    REGISTRY
        .get_or_init(default_registry)
        .decompress_auto(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units(n: usize, edge: usize) -> Vec<Buffer3> {
        (0..n)
            .map(|u| {
                let mut b = Buffer3::zeros(Dims3::cube(edge));
                b.fill_with(|i, j, k| {
                    (u as f64 * 0.9).sin() * 4.0
                        + ((i + 2 * j) as f64 * 0.2).cos()
                        + k as f64 * 0.05
                });
                b
            })
            .collect()
    }

    fn origins(n: usize, edge: usize) -> Vec<IntVect> {
        (0..n)
            .map(|u| {
                let (u, e) = (u as i64, edge as i64);
                IntVect::new((u % 2) * e, ((u / 2) % 2) * e, (u / 4) * e)
            })
            .collect()
    }

    #[test]
    fn zmesh_unit_codec_roundtrip() {
        let u = units(6, 8);
        let codec = ZmeshCodec::new(1e-3, origins(6, 8));
        let bytes = codec.compress(&u).unwrap();
        let back = codec.decompress(&bytes).unwrap();
        let abs = resolve_abs_eb(&u, 1e-3);
        assert_eq!(back.len(), u.len());
        for (o, b) in u.iter().zip(&back) {
            assert_eq!(o.dims(), b.dims());
            let s = ErrorStats::compare(o.data(), b.data());
            assert!(s.max_abs_err <= abs * (1.0 + 1e-9), "{}", s.max_abs_err);
        }
    }

    #[test]
    fn baseline_codec_roundtrip_mixed_dims() {
        let mut u = units(3, 8);
        let mut odd = Buffer3::zeros(Dims3::new(5, 7, 3));
        odd.fill_with(|i, j, k| (i * j + k) as f64 * 0.1);
        u.push(odd);
        let codec = BaselineCodec::new(BaselineConfig::new(1e-3));
        let bytes = codec.compress(&u).unwrap();
        let back = codec.decompress(&bytes).unwrap();
        assert_eq!(back.len(), u.len());
        for (o, b) in u.iter().zip(&back) {
            assert_eq!(o.dims(), b.dims());
            let abs = 1e-3 * o.data().len() as f64; // loose: per-chunk ranges vary
            let s = ErrorStats::compare(o.data(), b.data());
            assert!(s.max_abs_err <= abs, "{}", s.max_abs_err);
        }
    }

    #[test]
    fn empty_units_roundtrip_through_every_family() {
        let codecs: Vec<Box<dyn Codec>> = vec![
            Box::new(LrCodec::default()),
            Box::new(InterpCodec::default()),
            Box::new(AmricCodec::decoder()),
            Box::new(TacCodec::decoder()),
            Box::new(ZmeshCodec::decoder()),
            Box::new(BaselineCodec::decoder()),
        ];
        for codec in &codecs {
            let bytes = codec.compress(&[]).unwrap();
            assert!(
                codec.decompress(&bytes).unwrap().is_empty(),
                "{:?}",
                codec.id()
            );
            assert!(
                decompress_auto(&bytes).unwrap().is_empty(),
                "{:?}",
                codec.id()
            );
        }
    }

    #[test]
    fn constant_units_roundtrip_through_every_family() {
        // Regression: constant data packs far below one bit per cell, so
        // any cells-vs-compressed-bytes plausibility guard run before
        // lossless expansion rejects these perfectly valid streams.
        let u = vec![Buffer3::from_vec(Dims3::cube(8), vec![2.5; 512]); 8];
        let codecs: Vec<Box<dyn Codec>> = vec![
            Box::new(LrCodec::default()),
            Box::new(InterpCodec::default()),
            Box::new(AmricCodec::decoder()),
            Box::new(TacCodec::new(1e-3, origins(8, 8))),
            Box::new(ZmeshCodec::new(1e-3, origins(8, 8))),
            Box::new(BaselineCodec::decoder()),
        ];
        for codec in &codecs {
            let stream = codec.compress(&u).unwrap();
            let back =
                decompress_auto(&stream).unwrap_or_else(|e| panic!("{}: {e}", codec.id().name()));
            assert_eq!(back.len(), u.len(), "{}", codec.id().name());
            for (o, b) in u.iter().zip(&back) {
                assert_eq!(o.dims(), b.dims());
                // Constant-field REL fallback: bound is rel_eb itself.
                for (&x, &y) in o.data().iter().zip(b.data()) {
                    assert!((x - y).abs() <= 1e-3, "{}", codec.id().name());
                }
            }
        }
    }

    #[test]
    fn zmesh_out_of_range_origin_rejected_at_compress() {
        // Compress and decompress enforce the same origin bound, so the
        // codec never produces a stream it cannot decode.
        let codec = ZmeshCodec::new(1e-3, vec![IntVect::new(1i64 << 41, 0, 0)]);
        let err = codec.compress(&units(1, 4)).unwrap_err();
        assert!(matches!(err, CodecError::BadParameter { .. }), "{err:?}");
    }

    #[test]
    fn zmesh_implausible_origin_is_error_not_overflow() {
        // Regression: a corrupt multi stream carrying a huge origin must
        // fail typed, not overflow `origin + extent` in the Morton
        // enumeration (debug builds panicked before the origin check).
        let codec = ZmeshCodec::new(1e-3, vec![IntVect::new(0, 0, 0)]);
        let u = units(1, 4);
        let mut stream = codec.compress(&u).unwrap();
        // Unit header starts after envelope (8) + count (4) + dims (12):
        // overwrite origin.x with i64::MAX.
        stream[24..32].copy_from_slice(&(i64::MAX as u64).to_le_bytes());
        let err = codec.decompress(&stream).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn mismatched_origin_count_is_error() {
        let u = units(3, 8);
        assert!(matches!(
            TacCodec::new(1e-3, Vec::new()).compress(&u),
            Err(CodecError::DimsMismatch { .. })
        ));
        assert!(matches!(
            ZmeshCodec::new(1e-3, Vec::new()).compress(&u),
            Err(CodecError::DimsMismatch { .. })
        ));
    }
}
