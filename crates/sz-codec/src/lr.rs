//! SZ_L/R: the blockwise Lorenzo / linear-regression compressor (SZ2
//! algorithm, Liang et al. 2018), with multi-domain (SLE) support.
//!
//! The compressor partitions each *prediction domain* into `block_size`³
//! blocks. Per block it picks the better of the 3-D Lorenzo predictor
//! (crosses block boundaries via reconstructed neighbours, like SZ2) and a
//! per-block linear regression (coefficients delta-quantized into the
//! stream). Residuals are quantized and Huffman-coded under one book.
//!
//! **Layout.** The data symbols are cut into *groups*: a group closes at
//! the first domain boundary at or past `GROUP_CELLS` (4 096) cells. The
//! *head* — error bound, domain dims, selection bitmap, coefficient block,
//! the data block's book, its symbol count, the group table (per group:
//! domains, bits, raw outliers) and the raw outliers — passes through the
//! lossless stage; the data bits, one Huffman stream whose groups start
//! where the group before them ends, pass through a lossless stage of
//! their own, which stores them when LZ would not pay. A decoder decodes the head whole, builds the data
//! book's table once, and Huffman-decodes only the groups that hold a
//! domain it wants. A stream of one group keeps the older layout (format
//! version 2): its data block rides in the head's one lossless frame.
//!
//! **Shared Lossless Encoding (SLE), paper §3.2 Solution 1** falls out of
//! the multi-domain API: [`compress_domains`] predicts every domain (unit
//! block) independently — predictions never cross domain boundaries — but
//! all quantization codes land in one stream under a single shared Huffman
//! tree. Calling it with one merged domain is the paper's "linear merging"
//! (LM) baseline; calling it per-unit with separate invocations is the
//! "compress each box individually" strawman the paper rejects.

use crate::buffer3::{AsView3, Buffer3, Dims3, UnitDest, View3};
use crate::codec::{expect_envelope, read_envelope, write_envelope, CodecId};
use crate::huffman::{self, HuffmanCode};
use crate::kernels::{self, SymbolReader};
use crate::lossless;
use crate::quantizer::{Quantizer, OUTLIER_SYMBOL, QUANT_RADIUS};
use crate::regression::{fit_block, CoefficientCodec, Coefficients};
pub use crate::scratch::with_lr_scratch as with_thread_scratch;
use crate::wire::{CodecError, CodecResult, Reader, Writer};
use std::convert::Infallible;

/// SZ_L/R payload format versions (ride in the envelope header). A stream
/// of one group is written as version 2: its data block rides in the one
/// lossless frame with everything else. Version 3 cuts the data block into
/// groups: their bits get a lossless frame of their own, and the head's
/// frame holds the book and the group table.
const ONE_GROUP: u8 = 2;
const GROUPED: u8 = 3;

/// A group of the data block closes at the first domain boundary at or
/// past this many cells. The group table says where its Huffman bits
/// start, so a decoder that wants none of its domains leaves them
/// undecoded.
const GROUP_CELLS: usize = 4096;

/// Regression is never attempted for blocks with fewer cells than this
/// (coefficient overhead would dominate).
const MIN_REGRESSION_CELLS: usize = 8;

/// Configuration for one SZ_L/R compression call.
#[derive(Clone, Copy, Debug)]
pub struct LrConfig {
    /// Absolute error bound (convert relative bounds with
    /// [`crate::quantizer::absolute_bound`]).
    pub abs_eb: f64,
    /// Edge length of the SZ prediction blocks (6 in stock SZ2; 4 under
    /// the paper's adaptive scheme).
    pub block_size: usize,
}

impl LrConfig {
    /// Stock SZ2 configuration (6³ blocks).
    pub fn new(abs_eb: f64) -> Self {
        LrConfig {
            abs_eb,
            block_size: 6,
        }
    }

    /// Override the SZ block size.
    pub fn with_block_size(mut self, bs: usize) -> Self {
        assert!(bs >= 1);
        self.block_size = bs;
        self
    }
}

/// Stack-allocated per-row symbol/reconstruction scratch: block edges
/// serialize as `u8`, so rows never exceed 255 cells.
const MAX_BLOCK_EDGE: usize = 256;

#[derive(Default)]
struct Streams {
    selection: Vec<bool>,
    data_syms: Vec<u32>,
    data_outliers: Vec<f64>,
    coeff_syms: Vec<u32>,
    coeff_outliers: Vec<f64>,
    /// Fused data-symbol histogram, filled while quantizing (dense over
    /// the `2·QUANT_RADIUS` symbol space) so the entropy stage skips its
    /// counting pass. `freq_touched` tracks the nonzero entries so reset
    /// is O(distinct symbols), not O(65536).
    data_freq: Vec<u64>,
    freq_touched: Vec<u32>,
}

impl Streams {
    fn clear(&mut self) {
        self.selection.clear();
        self.data_syms.clear();
        self.data_outliers.clear();
        self.coeff_syms.clear();
        self.coeff_outliers.clear();
        for &t in &self.freq_touched {
            self.data_freq[t as usize] = 0;
        }
        self.freq_touched.clear();
        self.data_freq.resize(2 * QUANT_RADIUS as usize, 0);
    }

    /// Drain one kernel-produced symbol row into the streams: push raw
    /// values for outlier symbols (row order — the order the scalar path
    /// interleaved them), update the fused histogram, and append the
    /// symbols. The unpredictable-outlier branch lives here, outside the
    /// lane loops.
    #[inline]
    fn drain_row(&mut self, vals: &[f64], syms: &[u32]) {
        for (x, &sym) in syms.iter().enumerate() {
            if sym == OUTLIER_SYMBOL {
                self.data_outliers.push(vals[x]);
            }
            let f = &mut self.data_freq[sym as usize];
            if *f == 0 {
                self.freq_touched.push(sym);
            }
            *f += 1;
        }
        self.data_syms.extend_from_slice(syms);
    }

    /// The sparse `(symbol, count)` histogram of `data_syms`, equal to
    /// `huffman::count_frequencies(&self.data_syms)`.
    fn data_freqs(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .freq_touched
            .iter()
            .map(|&s| (s, self.data_freq[s as usize]))
            .collect();
        v.sort_unstable_by_key(|&(s, _)| s);
        v
    }
}

/// Reusable compression scratch: the quantization-symbol streams, the
/// pre-lossless payload buffer, and the reconstruction the Lorenzo
/// stencil reads. Hot paths (the in-situ writer encoding one chunk per
/// (rank, level, field)) reuse one across calls and stop paying per-call —
/// and per-unit — allocations; [`with_thread_scratch`] lends the calling
/// thread's.
#[derive(Default)]
pub struct LrScratch {
    streams: Streams,
    payload: Vec<u8>,
    /// The groups' Huffman bits of a grouped stream, before their frame.
    data: Vec<u8>,
    /// Reconstruction of the domain being predicted. Every cell is written
    /// before a later cell's stencil reads it, so it is sized per domain
    /// and never cleared.
    recon: Vec<f64>,
}

/// Zero row standing in for out-of-domain stencil neighbours.
static ZEROS: [f64; MAX_BLOCK_EDGE] = [0.0; MAX_BLOCK_EDGE];

/// Compress a set of prediction domains with one shared encoding (SLE).
/// A single-element slice reproduces plain SZ_L/R on that buffer.
pub fn compress_domains<U: AsView3>(domains: &[U], cfg: &LrConfig) -> Vec<u8> {
    let mut out = Vec::new();
    with_thread_scratch(|s| compress_domains_into(domains, cfg, s, &mut out));
    out
}

/// Compress a set of prediction domains with one shared encoding (SLE),
/// **appending** the stream to `out` and reusing `scratch` across calls —
/// the zero-alloc variant of [`compress_domains`]. Domains are read in
/// place: owned buffers, references and [`View3`]s over a staged chunk
/// all do.
pub fn compress_domains_into<U: AsView3>(
    domains: &[U],
    cfg: &LrConfig,
    scratch: &mut LrScratch,
    out: &mut Vec<u8>,
) {
    assert!(!domains.is_empty(), "no domains to compress");
    assert!(
        cfg.block_size < MAX_BLOCK_EDGE,
        "block size must fit the u8 stream field"
    );
    scratch.streams.clear();
    scratch.payload.clear();
    let mut w = Writer::from_vec(std::mem::take(&mut scratch.payload));
    w.put_f64(cfg.abs_eb);
    w.put_u8(cfg.block_size as u8);
    w.put_u32(domains.len() as u32);
    let mut enc = Encoder {
        data: domains[0].view(),
        q: Quantizer::new(cfg.abs_eb),
        coeff_codec: CoefficientCodec::new(cfg.abs_eb, cfg.block_size),
        s: &mut scratch.streams,
        syms_row: [0; MAX_BLOCK_EDGE],
    };
    // Per group: its domains, and where its symbols and raw values end.
    let mut groups = Vec::new();
    let (mut first, mut cells) = (0, 0);
    for (i, domain) in domains.iter().enumerate() {
        enc.data = domain.view();
        let dims = enc.data.dims();
        w.put_u32(dims.nx as u32);
        w.put_u32(dims.ny as u32);
        w.put_u32(dims.nz as u32);
        scratch.recon.resize(dims.len(), 0.0);
        // Dense strides: a row's base is the same in `recon` and the input.
        let dense = (dims.nx, dims.nx * dims.ny);
        let Ok(()) = traverse(dims, cfg.block_size, dense, &mut scratch.recon, &mut enc);
        cells += dims.len();
        if cells >= GROUP_CELLS || i + 1 == domains.len() {
            let s = &enc.s;
            groups.push((i + 1 - first, s.data_syms.len(), s.data_outliers.len()));
            (first, cells) = (i + 1, 0);
        }
    }
    // The header and domain dims are in; the selection bitmap and the
    // four symbol/outlier streams follow.
    let s = &scratch.streams;
    w.put_u64(s.selection.len() as u64);
    for bits in s.selection.chunks(8) {
        let packed = bits.iter().enumerate().map(|(i, &b)| (b as u8) << (7 - i));
        w.put_u8(packed.fold(0, |acc, bit| acc | bit));
    }
    huffman::encode_block_into(&s.coeff_syms, &mut w);
    w.put_u64(s.coeff_outliers.len() as u64);
    w.put_f64s(&s.coeff_outliers);
    // The histogram was accumulated during quantization, so the entropy
    // stage has no counting pass.
    let version = if let [_] = groups[..] {
        // One group: the data block emits straight into the payload.
        huffman::encode_block_with_histogram_into(&s.data_syms, &s.data_freqs(), &mut w);
        ONE_GROUP
    } else {
        let code = HuffmanCode::from_frequencies(&s.data_freqs());
        code.write_table(&mut w);
        w.put_u64(s.data_syms.len() as u64);
        w.put_varint(groups.len() as u64);
        let (mut sym, mut raw) = (0, 0);
        for &(domains, sym_end, raw_end) in &groups {
            let syms = &s.data_syms[sym..sym_end];
            let bits: u64 = syms.iter().map(|&x| code.code_len(x) as u64).sum();
            w.put_varint(domains as u64);
            w.put_varint(bits);
            w.put_varint((raw_end - raw) as u64);
            (sym, raw) = (sym_end, raw_end);
        }
        // One bit stream, as a single group's: a group starts where the
        // one before it ends, so padding never breaks the runs LZ finds.
        scratch.data.clear();
        code.encode_into(&s.data_syms, &mut scratch.data);
        GROUPED
    };
    w.put_u64(s.data_outliers.len() as u64);
    w.put_f64s(&s.data_outliers);
    scratch.payload = w.into_bytes();
    let mut env = Writer::from_vec(std::mem::take(out));
    write_envelope(&mut env, CodecId::LrSle, version, 0);
    *out = env.into_bytes();
    lossless::compress_into(&scratch.payload, out);
    if version == GROUPED {
        lossless::compress_into(&scratch.data, out);
    }
}

/// Convenience wrapper: single domain.
pub fn compress(data: &Buffer3, cfg: &LrConfig) -> Vec<u8> {
    compress_domains(&[data], cfg)
}

/// Compress a flat 1-D array (AMReX's baseline compresses box payloads this
/// way); internally a `(n,1,1)` domain, so the Lorenzo stencil degenerates
/// to previous-value prediction.
pub fn compress_1d(data: &[f64], abs_eb: f64) -> Vec<u8> {
    // An empty array goes in as one zero.
    let data = if data.is_empty() { &[0.0][..] } else { data };
    let row = View3::new(Dims3::new(data.len(), 1, 1), data);
    compress_domains(&[row], &LrConfig::new(abs_eb))
}

/// Decompress a stream produced by any of the `compress*` functions.
/// Returns one buffer per prediction domain, in input order.
pub fn decompress_domains(bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
    let mut domains = Vec::new();
    decompress_domains_into(bytes, &mut domains)?;
    Ok(domains)
}

/// [`decompress_domains`], reconstructing each prediction domain where
/// `dest` says it goes and returning how many there were. The destination
/// is asked whether it wants each domain, in order, after every header
/// guard; then for each wanted domain, before its first cell is written,
/// where it goes. A stencil never leaves its domain, so the neighbouring
/// cells of a larger destination are not even read.
///
/// Only the groups holding a wanted domain have their data symbols
/// decoded. A domain `dest` does not want is passed over: its blocks'
/// selection bits and regression coefficients are read (the coefficient
/// codec delta-codes across blocks), and its raw outliers are counted off
/// — by its symbols in a decoded group, by the group table in another —
/// and none of its cells is predicted.
pub fn decompress_domains_into(bytes: &[u8], dest: &mut dyn UnitDest) -> CodecResult<usize> {
    let frames = Frames::read(bytes)?;
    let stream = Stream::parse(&frames)?;
    let ndomains = stream.dims.len();
    let mut wanted = Vec::with_capacity(ndomains);
    for (i, &d) in stream.dims.iter().enumerate() {
        wanted.push(dest.wants(i, d)?);
    }
    let mut parts = Vec::with_capacity(stream.groups.len());
    let mut first = 0;
    for g in &stream.groups {
        if wanted[first..first + g.domains].contains(&true) {
            parts.push((g.bytes, g.skip, g.cells));
        }
        first += g.domains;
    }
    let data_syms = stream.code.decode::<u32>(&parts)?;
    let block_size = stream.block_size;
    let mut dec = Decoder {
        coeff_codec: CoefficientCodec::new(stream.abs_eb, block_size),
        selection: (0..stream.nblocks).map(|i| stream.selection[i / 8] >> (7 - i % 8) & 1 == 1),
        coeff_syms: stream.coeff_syms.into_iter(),
        coeff_outliers: stream.coeff_outliers.into_iter(),
        data: SymbolReader {
            q: Quantizer::new(stream.abs_eb),
            syms: &data_syms,
            outliers: &stream.data_outliers,
            truncated: TRUNCATED,
        },
        preds: [0.0; MAX_BLOCK_EDGE],
    };
    let mut first = 0;
    for g in &stream.groups {
        let domains = first..first + g.domains;
        first = domains.end;
        let raw_before = dec.data.outliers.len();
        if !wanted[domains.clone()].contains(&true) {
            for &d in &stream.dims[domains] {
                dec.pass_blocks(d, block_size)?;
            }
            // The group table's outlier counts sum to the stream's.
            dec.data.outliers = &dec.data.outliers[g.outliers..];
            continue;
        }
        for i in domains {
            let d = stream.dims[i];
            if wanted[i] {
                let to = dest.unit(i, d)?.for_dims(d)?;
                traverse(d, block_size, (to.row, to.plane), to.data, &mut dec)?;
            } else {
                dec.pass_blocks(d, block_size)?;
                dec.data.skip(d.len())?;
            }
        }
        if raw_before - dec.data.outliers.len() != g.outliers {
            return Err(CodecError::corrupt(GROUP_OUTLIERS));
        }
    }
    Ok(ndomains)
}

const GROUP_OUTLIERS: &str = "SZ_L/R group outlier count disagrees with its symbols";

/// Where an SZ_L/R stream's bytes went, read by the decoder's own parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LrLayout {
    /// Groups of the data block, each decodable on its own.
    pub groups: usize,
    /// The head's lossless frame: its mode, bytes stored and expanded. On
    /// a stream of one group the head holds the data block too.
    pub head: FrameLayout,
    /// The data part's lossless frame, on a stream of several groups.
    pub data: Option<FrameLayout>,
}

/// One lossless frame of a stream, as [`lossless::read_frame`] finds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameLayout {
    /// 0 stored, 1 LZ, 2 LZ + byte Huffman.
    pub mode: u8,
    /// Bytes in the stream, frame header included.
    pub stored: usize,
    /// Bytes once expanded.
    pub bytes: usize,
}

impl FrameLayout {
    fn of(f: &lossless::Frame<'_>) -> Self {
        FrameLayout {
            mode: f.mode,
            stored: f.stored,
            bytes: f.bytes.len(),
        }
    }
}

/// Parse an SZ_L/R stream as [`decompress_domains_into`] does, up to its
/// data symbols, and say where its bytes went.
pub fn layout(bytes: &[u8]) -> CodecResult<LrLayout> {
    let frames = Frames::read(bytes)?;
    let stream = Stream::parse(&frames)?;
    Ok(LrLayout {
        groups: stream.groups.len(),
        head: FrameLayout::of(&frames.head),
        data: frames.data.as_ref().map(FrameLayout::of),
    })
}

/// The lossless frames of a stream: the head, and on a grouped stream the
/// data part after it.
struct Frames<'a> {
    head: lossless::Frame<'a>,
    data: Option<lossless::Frame<'a>>,
}

impl<'a> Frames<'a> {
    fn read(bytes: &'a [u8]) -> CodecResult<Self> {
        let version = read_envelope(bytes)?.version;
        let version = if version == ONE_GROUP {
            ONE_GROUP
        } else {
            GROUPED
        };
        let env = expect_envelope(bytes, CodecId::LrSle, version)?;
        let mut r = Reader::new(&bytes[env.payload_offset..]);
        let head = lossless::read_frame(&mut r)?;
        let data = match version {
            GROUPED => Some(lossless::read_frame(&mut r)?),
            _ => None,
        };
        Ok(Frames { head, data })
    }
}

/// A stream parsed up to its data symbols, every count checked against
/// what the bytes can hold.
struct Stream<'a> {
    abs_eb: f64,
    block_size: usize,
    dims: Vec<Dims3>,
    nblocks: usize,
    /// The selection bitmap: one bit per block, MSB first.
    selection: &'a [u8],
    coeff_syms: Vec<u32>,
    coeff_outliers: Vec<f64>,
    /// The data block's book, shared by its groups.
    code: HuffmanCode,
    groups: Vec<Group<'a>>,
    data_outliers: Vec<f64>,
}

/// A run of domains whose data symbols decode on their own.
struct Group<'a> {
    domains: usize,
    /// Cells over its domains: its symbol count.
    cells: usize,
    /// The bytes its bits lie in, from the one holding its first bit,
    /// `skip` bits into it, on.
    bytes: &'a [u8],
    skip: u32,
    bits: u64,
    /// Its symbols' raw values.
    outliers: usize,
}

impl<'a> Stream<'a> {
    fn parse(frames: &'a Frames<'_>) -> CodecResult<Self> {
        let mut r = Reader::new(&frames.head.bytes);
        let data: &[u8] = frames.data.as_ref().map_or(&[], |f| &f.bytes);
        let abs_eb = r.get_f64()?;
        if !(abs_eb > 0.0 && abs_eb.is_finite()) {
            return Err(CodecError::BadParameter {
                what: "error bound",
            });
        }
        let block_size = r.get_u8()? as usize;
        if block_size == 0 {
            return Err(CodecError::BadParameter { what: "block size" });
        }
        let ndomains = r.get_u32()? as usize;
        // Each domain header is 3 × u32; reject counts the stream can't hold.
        r.check_count(ndomains, 12)?;
        let mut dims = Vec::with_capacity(ndomains);
        let mut total_cells: u128 = 0;
        for _ in 0..ndomains {
            let nx = r.get_u32()? as usize;
            let ny = r.get_u32()? as usize;
            let nz = r.get_u32()? as usize;
            if nx == 0 || ny == 0 || nz == 0 {
                return Err(CodecError::dims(format!(
                    "degenerate domain dims {nx}x{ny}x{nz}"
                )));
            }
            total_cells += nx as u128 * ny as u128 * nz as u128;
            dims.push(Dims3::new(nx, ny, nz));
        }
        // Every cell consumes at least one bit of the rest of the head and
        // the data part, so corrupted dims can't demand more cells than
        // the stream could encode (this also keeps buffer allocations
        // bounded by the input size).
        let available = (r.remaining() + data.len()) as u128 * 8 + 64;
        if total_cells > available {
            return Err(CodecError::LimitExceeded {
                what: "domain cells",
                claimed: total_cells,
                available,
            });
        }
        let nblocks = r.get_u64()? as usize;
        let selection = r.get_raw(nblocks.div_ceil(8))?;
        let coeff_syms = huffman::decode_with_table(r.get_block()?)?;
        let n_coeff_out = r.get_u64()? as usize;
        let coeff_outliers = r.get_f64s(n_coeff_out)?;
        let (code, n, mut groups) = match frames.data {
            None => {
                // Version 2: the data block, whole, as one group.
                let mut b = Reader::new(r.get_block()?);
                let code = HuffmanCode::read_table(&mut b)?;
                let n = b.get_u64()?;
                let bytes = b.get_block()?;
                let one = Group {
                    domains: ndomains,
                    cells: total_cells as usize,
                    bytes,
                    skip: 0,
                    bits: bytes.len() as u64 * 8,
                    outliers: 0,
                };
                (code, n, vec![one])
            }
            Some(_) => {
                let code = HuffmanCode::read_table(&mut r)?;
                let n = r.get_u64()?;
                (code, n, read_groups(&mut r, &dims, data)?)
            }
        };
        if n as u128 != total_cells {
            return Err(CodecError::corrupt(format!(
                "{n} data symbols for {total_cells} cells"
            )));
        }
        for g in &groups {
            if g.cells as u64 > g.bits {
                return Err(CodecError::LimitExceeded {
                    what: "group symbols",
                    claimed: g.cells as u128,
                    available: g.bits as u128,
                });
            }
        }
        let n_out = r.get_u64()?;
        if let [one] = &mut groups[..] {
            one.outliers = n_out as usize;
        }
        if groups.iter().map(|g| g.outliers as u128).sum::<u128>() != n_out as u128 {
            return Err(CodecError::corrupt(
                "SZ_L/R group outlier counts disagree with the stream's",
            ));
        }
        let data_outliers = r.get_f64s(n_out as usize)?;
        Ok(Stream {
            abs_eb,
            block_size,
            dims,
            nblocks,
            selection,
            coeff_syms,
            coeff_outliers,
            code,
            groups,
            data_outliers,
        })
    }
}

/// The group table of a grouped stream, each group's bits cut from
/// `data`: the groups must cover the domains, and their bits the data
/// part up to its last byte.
fn read_groups<'a>(
    r: &mut Reader<'_>,
    dims: &[Dims3],
    data: &'a [u8],
) -> CodecResult<Vec<Group<'a>>> {
    let bad = |what: &str| CodecError::corrupt(format!("SZ_L/R group table: {what}"));
    let ngroups = r.get_varint()?;
    // A group is three varints, a byte each at least.
    r.check_count(ngroups.try_into().unwrap_or(usize::MAX), 3)?;
    let mut groups = Vec::with_capacity(ngroups as usize);
    let (mut dims, mut at) = (dims, 0u64);
    let data_bits = data.len() as u64 * 8;
    for _ in 0..ngroups {
        let domains = r.get_varint()?;
        let bits = r.get_varint()?;
        let outliers = r.get_varint()?;
        if domains == 0 || domains > dims.len() as u64 {
            return Err(bad("domain counts overrun the stream's"));
        }
        if bits > data_bits - at {
            return Err(bad("bit lengths overrun the data part"));
        }
        let (mine, rest) = dims.split_at(domains as usize);
        let end = at + bits;
        groups.push(Group {
            domains: mine.len(),
            // The cell guard has bounded every sum of cells.
            cells: mine.iter().map(Dims3::len).sum(),
            bytes: &data[(at / 8) as usize..end.div_ceil(8) as usize],
            skip: (at % 8) as u32,
            bits,
            outliers: outliers.try_into().unwrap_or(usize::MAX),
        });
        (dims, at) = (rest, end);
    }
    if !dims.is_empty() {
        return Err(bad("domain counts fall short of the stream's"));
    }
    if at.div_ceil(8) != data.len() as u64 {
        return Err(bad("bit lengths fall short of the data part"));
    }
    Ok(groups)
}

const TRUNCATED: &str = "SZ_L/R stream truncated";

/// Convenience wrapper: single-domain decompress.
pub fn decompress(bytes: &[u8]) -> CodecResult<Buffer3> {
    let mut v = decompress_domains(bytes)?;
    if v.len() != 1 {
        return Err(CodecError::dims(format!(
            "expected 1 domain, found {}",
            v.len()
        )));
    }
    Ok(v.pop().expect("len checked"))
}

/// Iterate the blocks of a domain in x-fastest block order, yielding
/// `(origin, block_dims)`.
fn blocks_of(dims: Dims3, bs: usize) -> impl Iterator<Item = ((usize, usize, usize), Dims3)> {
    let (mut oi, mut oj, mut ok) = (0, 0, 0);
    std::iter::from_fn(move || {
        if ok >= dims.nz {
            return None;
        }
        let extent = |o: usize, n: usize| bs.min(n - o);
        let block = (
            (oi, oj, ok),
            Dims3::new(
                extent(oi, dims.nx),
                extent(oj, dims.ny),
                extent(ok, dims.nz),
            ),
        );
        oi += bs;
        if oi >= dims.nx {
            (oi, oj) = (0, oj + bs);
            if oj >= dims.ny {
                (oj, ok) = (0, ok + bs);
            }
        }
        Some(block)
    })
}

/// One direction of the codec, driven by [`traverse`]: the encoder turns
/// each row of values into symbols, the decoder each row of symbols back
/// into values. Either way the reconstruction must end up in the row
/// handed over — later Lorenzo stencils read it.
trait Direction {
    /// What can go wrong ([`Infallible`] for the encoder).
    type Err;
    /// The predictor of the block at `(oi, oj, ok)`: the quantized
    /// regression coefficients, or `None` for Lorenzo — chosen by the
    /// encoder, read back by the decoder.
    fn block(
        &mut self,
        origin: (usize, usize, usize),
        bd: Dims3,
    ) -> Result<Option<Coefficients>, Self::Err>;
    /// The x-row of a regression block at flat index `base`, predicted
    /// `((b0 + bx·i) + by) + bz` at its `i`-th cell.
    fn affine_row(&mut self, base: usize, b: [f64; 4], row: &mut [f64]) -> Result<(), Self::Err>;
    /// The x-row of a Lorenzo block at flat index `base`, with its three
    /// neighbour rows and `left`, the four stencil rows' values one cell
    /// before the row, in [`kernels::lorenzo_quantize_row`]'s order.
    fn lorenzo_row(
        &mut self,
        base: usize,
        above: [&[f64]; 3],
        left: [f64; 4],
        row: &mut [f64],
    ) -> Result<(), Self::Err>;
}

/// The SZ_L/R traversal of one domain — block order, row order and the
/// Lorenzo stencil geometry, stated once for both directions (statically
/// dispatched, so each gets its own specialised copy of the nest).
///
/// Blocks run x-fastest, their rows y then z. Cell `(i, j, k)` lives at
/// `recon[i + j·row + k·plane]`: dense for the encoder, a box inside a
/// larger array when a decoder reconstructs in place. A Lorenzo row reads
/// the reconstruction at `(i − 1, ·)`, `(·, j − 1, ·)`, `(·, ·, k − 1)` and
/// their corners, across block boundaries and zero beyond the *domain's*
/// faces, whatever `recon` holds there. All of them lie strictly before
/// the row in flat order, so splitting `recon` at the row start gives
/// aliasing-free read slices.
fn traverse<D: Direction>(
    dims: Dims3,
    block_size: usize,
    (row, plane): (usize, usize),
    recon: &mut [f64],
    dir: &mut D,
) -> Result<(), D::Err> {
    for ((oi, oj, ok), bd) in blocks_of(dims, block_size) {
        if let Some(qc) = dir.block((oi, oj, ok), bd)? {
            for k in 0..bd.nz {
                let bz = qc.b[2] * k as f64;
                for j in 0..bd.ny {
                    let by = qc.b[1] * j as f64;
                    let base = oi + (oj + j) * row + (ok + k) * plane;
                    dir.affine_row(
                        base,
                        [qc.b0, qc.b[0], by, bz],
                        &mut recon[base..base + bd.nx],
                    )?;
                }
            }
            continue;
        }
        for k in 0..bd.nz {
            let ka = ok + k;
            for j in 0..bd.ny {
                let ja = oj + j;
                let base = oi + ja * row + ka * plane;
                let (head, tail) = recon.split_at_mut(base);
                // The stencil row `back` cells before this one, and its
                // value one cell before the block; zeros outside the domain.
                let up = |back: usize, inside: bool| {
                    if inside {
                        &head[base - back..][..bd.nx]
                    } else {
                        &ZEROS[..bd.nx]
                    }
                };
                let left = |back: usize, inside: bool| {
                    if inside && oi > 0 {
                        head[base - back - 1]
                    } else {
                        0.0
                    }
                };
                let (jm, km, jkm) = (row, plane, plane + row);
                let (has_j, has_k) = (ja > 0, ka > 0);
                dir.lorenzo_row(
                    base,
                    [up(jm, has_j), up(km, has_k), up(jkm, has_j && has_k)],
                    [
                        left(0, true),
                        left(jm, has_j),
                        left(km, has_k),
                        left(jkm, has_j && has_k),
                    ],
                    &mut tail[..bd.nx],
                )?;
            }
        }
    }
    Ok(())
}

/// The encoding [`Direction`]: select each block's predictor on the
/// original data, quantize each row against its prediction.
struct Encoder<'a> {
    data: View3<'a>,
    q: Quantizer,
    coeff_codec: CoefficientCodec,
    s: &'a mut Streams,
    syms_row: [u32; MAX_BLOCK_EDGE],
}

impl Direction for Encoder<'_> {
    type Err = Infallible;

    fn block(
        &mut self,
        (oi, oj, ok): (usize, usize, usize),
        bd: Dims3,
    ) -> Result<Option<Coefficients>, Infallible> {
        // Predictor selection on the original data (SZ2 style): one fit,
        // then both selection statistics in a single fused sweep while
        // the block is cache-resident.
        let regression = if bd.len() >= MIN_REGRESSION_CELLS {
            let coeffs = fit_block(self.data, oi, oj, ok, bd);
            let (reg_err, lor_err) = kernels::selection_errors(self.data, oi, oj, ok, bd, &coeffs);
            (reg_err < lor_err).then_some(coeffs)
        } else {
            None
        };
        let s = &mut *self.s;
        s.selection.push(regression.is_some());
        Ok(regression.map(|c| {
            self.coeff_codec
                .encode(&c, &mut s.coeff_syms, &mut s.coeff_outliers)
        }))
    }

    #[inline]
    fn affine_row(
        &mut self,
        base: usize,
        [b0, bx, by, bz]: [f64; 4],
        row: &mut [f64],
    ) -> Result<(), Infallible> {
        let vals = &self.data.data()[base..base + row.len()];
        let syms = &mut self.syms_row[..row.len()];
        kernels::quantize_affine_row(&self.q, vals, b0, bx, by, bz, syms, row);
        self.s.drain_row(vals, syms);
        Ok(())
    }

    #[inline]
    fn lorenzo_row(
        &mut self,
        base: usize,
        [jm, km, jkm]: [&[f64]; 3],
        left: [f64; 4],
        row: &mut [f64],
    ) -> Result<(), Infallible> {
        let vals = &self.data.data()[base..base + row.len()];
        let syms = &mut self.syms_row[..row.len()];
        kernels::lorenzo_quantize_row(&self.q, vals, jm, km, jkm, left, syms, row);
        self.s.drain_row(vals, syms);
        Ok(())
    }
}

/// The decoding [`Direction`]: consume the selection bits, the
/// coefficient stream and the data symbols in emission order.
struct Decoder<'a, S> {
    coeff_codec: CoefficientCodec,
    selection: S,
    coeff_syms: std::vec::IntoIter<u32>,
    coeff_outliers: std::vec::IntoIter<f64>,
    data: SymbolReader<'a>,
    preds: [f64; MAX_BLOCK_EDGE],
}

impl<S: Iterator<Item = bool>> Decoder<'_, S> {
    /// Consume a `dims` domain's selection bits and coefficients without
    /// reconstructing it: what [`traverse`] would read, block by block.
    fn pass_blocks(&mut self, dims: Dims3, block_size: usize) -> CodecResult<()> {
        for (origin, bd) in blocks_of(dims, block_size) {
            self.block(origin, bd)?;
        }
        Ok(())
    }
}

impl<S: Iterator<Item = bool>> Direction for Decoder<'_, S> {
    type Err = CodecError;

    fn block(
        &mut self,
        _origin: (usize, usize, usize),
        _bd: Dims3,
    ) -> CodecResult<Option<Coefficients>> {
        let truncated = || CodecError::corrupt(TRUNCATED);
        if !self.selection.next().ok_or_else(truncated)? {
            return Ok(None);
        }
        let (syms, outliers) = (&mut self.coeff_syms, &mut self.coeff_outliers);
        self.coeff_codec.decode(syms, outliers).map(Some)
    }

    #[inline]
    fn affine_row(
        &mut self,
        _base: usize,
        [b0, bx, by, bz]: [f64; 4],
        row: &mut [f64],
    ) -> CodecResult<()> {
        // The tree `quantize_affine_row` evaluates, as a prediction row.
        let preds = &mut self.preds[..row.len()];
        for (i, p) in preds.iter_mut().enumerate() {
            *p = ((b0 + bx * i as f64) + by) + bz;
        }
        self.data.row(preds, row)
    }

    #[inline]
    fn lorenzo_row(
        &mut self,
        _base: usize,
        [jm, km, jkm]: [&[f64]; 3],
        left: [f64; 4],
        row: &mut [f64],
    ) -> CodecResult<()> {
        self.data.lorenzo_row(jm, km, jkm, left, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lorenzo::lorenzo3;
    use crate::metrics::ErrorStats;

    /// The per-point decoder the shipping code replaced, kept whole as the
    /// oracle — its own copy of every header guard and of the group table's
    /// checks, every group's symbols walked bit by bit on their own and
    /// all of them pulled one at a time through iterators, prediction through
    /// `Coefficients::predict` or the bounds-checked `lorenzo3`, one branch
    /// and one `Buffer3::set` per cell.
    fn decompress_domains_reference(bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
        let version = read_envelope(bytes)?.version;
        let grouped = version != ONE_GROUP;
        let version = if grouped { GROUPED } else { ONE_GROUP };
        let env = expect_envelope(bytes, CodecId::LrSle, version)?;
        let mut frames = Reader::new(&bytes[env.payload_offset..]);
        let payload = lossless::read_frame(&mut frames)?.bytes;
        // A grouped stream's data part; a one-group stream's data block,
        // once read.
        let mut data = match grouped {
            true => lossless::read_frame(&mut frames)?.bytes,
            false => std::borrow::Cow::Borrowed(&[][..]),
        };
        let mut r = Reader::new(&payload);
        let abs_eb = r.get_f64()?;
        if !(abs_eb > 0.0 && abs_eb.is_finite()) {
            return Err(CodecError::BadParameter {
                what: "error bound",
            });
        }
        let block_size = r.get_u8()? as usize;
        if block_size == 0 {
            return Err(CodecError::BadParameter { what: "block size" });
        }
        let ndomains = r.get_u32()? as usize;
        r.check_count(ndomains, 12)?;
        let mut dims = Vec::with_capacity(ndomains);
        let mut total_cells: u128 = 0;
        for _ in 0..ndomains {
            let nx = r.get_u32()? as usize;
            let ny = r.get_u32()? as usize;
            let nz = r.get_u32()? as usize;
            if nx == 0 || ny == 0 || nz == 0 {
                return Err(CodecError::dims(format!(
                    "degenerate domain dims {nx}x{ny}x{nz}"
                )));
            }
            total_cells += nx as u128 * ny as u128 * nz as u128;
            dims.push(Dims3::new(nx, ny, nz));
        }
        if total_cells > (r.remaining() + data.len()) as u128 * 8 + 64 {
            return Err(CodecError::LimitExceeded {
                what: "domain cells",
                claimed: total_cells,
                available: (r.remaining() + data.len()) as u128 * 8 + 64,
            });
        }
        let nblocks = r.get_u64()? as usize;
        let sel_bytes = r.get_raw(nblocks.div_ceil(8))?;
        let selection: Vec<bool> = (0..nblocks)
            .map(|i| sel_bytes[i / 8] >> (7 - i % 8) & 1 == 1)
            .collect();
        let coeff_syms = huffman::decode_with_table(r.get_block()?)?;
        let n_coeff_out = r.get_u64()? as usize;
        let coeff_outliers = r.get_f64s(n_coeff_out)?;
        // The data block: its book, its symbol count, and per group its
        // domain count, its bits and its raw values (`None`: version 2's
        // one group, whose count is the stream's).
        let table_error = |what: &str| Err(CodecError::corrupt(format!("group table: {what}")));
        let (book, n, groups) = if grouped {
            let book = HuffmanCode::read_table(&mut r)?;
            let n = r.get_u64()?;
            let ngroups = r.get_varint()?;
            r.check_count(ngroups as usize, 3)?;
            let (mut groups, mut domains, mut at) = (Vec::new(), 0u64, 0u64);
            for _ in 0..ngroups {
                let (d, len, raw) = (r.get_varint()?, r.get_varint()?, r.get_varint()?);
                if d == 0 || domains + d > ndomains as u64 {
                    return table_error("domains");
                }
                if len > data.len() as u64 * 8 - at {
                    return table_error("bits");
                }
                groups.push((d as usize, (at, len), Some(raw)));
                (domains, at) = (domains + d, at + len);
            }
            if domains != ndomains as u64 {
                return table_error("domains");
            }
            if at.div_ceil(8) != data.len() as u64 {
                return table_error("bits");
            }
            (book, n, groups)
        } else {
            let mut b = Reader::new(r.get_block()?);
            let book = HuffmanCode::read_table(&mut b)?;
            let n = b.get_u64()?;
            let block = b.get_block()?;
            data = std::borrow::Cow::Borrowed(block);
            (book, n, vec![(ndomains, (0, block.len() as u64 * 8), None)])
        };
        if n as u128 != total_cells {
            return Err(CodecError::corrupt("symbol count"));
        }
        let mut first = 0;
        let mut group_cells = Vec::new();
        for &(d, (_, bits), _) in &groups {
            let cells: usize = dims[first..first + d].iter().map(Dims3::len).sum();
            if cells as u64 > bits {
                return Err(CodecError::LimitExceeded {
                    what: "group symbols",
                    claimed: cells as u128,
                    available: bits as u128,
                });
            }
            group_cells.push(cells);
            first += d;
        }
        let n_out = r.get_u64()?;
        let raw_counts: Vec<u64> = groups.iter().map(|g| g.2.unwrap_or(n_out)).collect();
        if raw_counts.iter().map(|&c| c as u128).sum::<u128>() != n_out as u128 {
            return Err(CodecError::corrupt("group outliers"));
        }
        let data_outliers = r.get_f64s(n_out as usize)?;
        // Each group on its own, walked bit by bit over the bytes its bits
        // lie in.
        let mut data_syms = Vec::new();
        for (&(_, (at, bits), _), &cells) in groups.iter().zip(&group_cells) {
            let bytes = &data[(at / 8) as usize..(at + bits).div_ceil(8) as usize];
            data_syms.extend(book.decode_reference::<u32>(bytes, (at % 8) as u32, cells)?);
        }
        // The domain each group ends at, and the raw values consumed by then.
        let mut group_ends = Vec::new();
        let (mut last, mut raw) = (0, 0);
        for (&(d, _, _), &count) in groups.iter().zip(&raw_counts) {
            (last, raw) = (last + d, raw + count as usize);
            group_ends.push((last, raw));
        }
        let mut group_ends = group_ends.into_iter().peekable();

        let q = Quantizer::new(abs_eb);
        let mut coeff_codec = CoefficientCodec::new(abs_eb, block_size);
        let mut sel_iter = selection.into_iter();
        let mut sym_iter = data_syms.into_iter();
        let mut out_iter = data_outliers.into_iter();
        let mut csym_iter = coeff_syms.into_iter();
        let mut cout_iter = coeff_outliers.into_iter();
        let truncated = || CodecError::corrupt("SZ_L/R stream truncated");
        let mut result = Vec::with_capacity(ndomains);
        for (i, dims) in dims.into_iter().enumerate() {
            let mut recon = Buffer3::zeros(dims);
            for ((oi, oj, ok), bd) in blocks_of(dims, block_size) {
                let use_regression = sel_iter.next().ok_or_else(truncated)?;
                if use_regression {
                    let qc = coeff_codec.decode(&mut csym_iter, &mut cout_iter)?;
                    for k in 0..bd.nz {
                        for j in 0..bd.ny {
                            for i in 0..bd.nx {
                                let sym = sym_iter.next().ok_or_else(truncated)?;
                                let v = if sym == OUTLIER_SYMBOL {
                                    out_iter.next().ok_or_else(truncated)?
                                } else {
                                    q.try_reconstruct(sym, qc.predict(i, j, k))?
                                };
                                recon.set(oi + i, oj + j, ok + k, v);
                            }
                        }
                    }
                } else {
                    for k in 0..bd.nz {
                        for j in 0..bd.ny {
                            for i in 0..bd.nx {
                                let sym = sym_iter.next().ok_or_else(truncated)?;
                                let v = if sym == OUTLIER_SYMBOL {
                                    out_iter.next().ok_or_else(truncated)?
                                } else {
                                    let pred = lorenzo3(&recon, oi + i, oj + j, ok + k);
                                    q.try_reconstruct(sym, pred)?
                                };
                                recon.set(oi + i, oj + j, ok + k, v);
                            }
                        }
                    }
                }
            }
            result.push(recon);
            if let Some((_, raw)) = group_ends.next_if(|&(end, _)| end == i + 1) {
                if n_out as usize - out_iter.len() != raw {
                    return Err(CodecError::corrupt("group outliers"));
                }
            }
        }
        Ok(result)
    }

    /// The test fields: a smooth trend, the same under uniform noise of
    /// amplitude 1, and [`crate::interp::tests::spiky`]'s outliers (huge
    /// spikes, NaN, ±∞, a whole poisoned row, planes left clean). `unit`
    /// shifts the field so the domains of one stream differ.
    fn field(kind: usize, dims: Dims3, unit: usize) -> Buffer3 {
        let mut b = crate::interp::tests::spiky(dims, kind == 2);
        let mut x = 17 + unit as u64;
        for v in b.data_mut() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            *v += unit as f64 * 0.37 + if kind == 1 { noise } else { 0.0 };
        }
        b
    }

    /// Stored raw: non-finite, or far beyond anything the trend predicts.
    fn is_spike(v: f64) -> bool {
        !v.is_finite() || v.abs() > 1.0e5
    }

    const ORACLE_DIMS: [(usize, usize, usize); 5] =
        [(1, 1, 1), (5, 1, 3), (17, 9, 5), (13, 7, 9), (20, 20, 20)];

    /// A stream's lossless frames, expanded: the head (a one-group
    /// stream's whole payload) and a grouped stream's data part.
    fn frames_of(stream: &[u8]) -> (Vec<u8>, Option<Vec<u8>>) {
        let frames = Frames::read(stream).unwrap();
        let data = frames.data.map(|f| f.bytes.into_owned());
        (frames.head.bytes.into_owned(), data)
    }

    /// The selection bits of a stream, one per block in traversal order.
    fn selection_bits(stream: &[u8]) -> Vec<bool> {
        let payload = frames_of(stream).0;
        let mut r = Reader::new(&payload);
        r.get_raw(8 + 1).unwrap();
        let ndomains = r.get_u32().unwrap() as usize;
        r.get_raw(12 * ndomains).unwrap();
        let nblocks = r.get_u64().unwrap() as usize;
        let bytes = r.get_raw(nblocks.div_ceil(8)).unwrap();
        (0..nblocks)
            .map(|i| bytes[i / 8] >> (7 - i % 8) & 1 == 1)
            .collect()
    }

    #[test]
    fn row_decoder_matches_per_point_reference_bitwise() {
        // census[regression as usize][min(outliers in the row, 2)]
        let mut census = [[0usize; 3]; 2];
        for ndomains in [1usize, 5, 64] {
            // One domain: each shape on its own; several: the shapes in
            // turn (the 20³ one only where it is alone or one of five).
            let shapes = if ndomains == 64 { 4 } else { 5 };
            let sets: Vec<Vec<usize>> = match ndomains {
                1 => (0..shapes).map(|d| vec![d]).collect(),
                n => vec![(0..n).map(|u| u % shapes).collect()],
            };
            for (set, kind, bs, eb) in sets.iter().flat_map(|set| {
                (0..3).flat_map(move |kind| {
                    [4usize, 6, 255]
                        .into_iter()
                        .flat_map(move |bs| [1e-2, 1e-4].map(|eb| (set, kind, bs, eb)))
                })
            }) {
                let what = format!("{ndomains} domains {set:?} kind {kind} bs {bs} eb {eb}");
                let domains: Vec<Buffer3> = set
                    .iter()
                    .enumerate()
                    .map(|(u, &d)| {
                        let (nx, ny, nz) = ORACLE_DIMS[d];
                        field(kind, Dims3::new(nx, ny, nz), u)
                    })
                    .collect();
                let cfg = LrConfig::new(eb).with_block_size(bs);
                let stream = compress_domains(&domains, &cfg);
                let fast = decompress_domains(&stream).expect("decode");
                let slow = decompress_domains_reference(&stream).expect("reference decode");
                assert_eq!(fast.len(), domains.len(), "{what}");
                let mut selection = selection_bits(&stream).into_iter();
                for ((orig, a), b) in domains.iter().zip(&fast).zip(&slow) {
                    assert_eq!(a.dims(), orig.dims(), "{what}");
                    assert_eq!(b.dims(), orig.dims(), "{what}");
                    for (idx, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
                        assert_eq!(x.to_bits(), y.to_bits(), "{what}: cell {idx} differs");
                    }
                    // Outliers are stored raw, so they come back exactly —
                    // NaN payload bits included; everything else within
                    // the bound.
                    for (o, r) in orig.data().iter().zip(a.data()) {
                        if is_spike(*o) {
                            assert_eq!(o.to_bits(), r.to_bits(), "{what}");
                        } else {
                            assert!((o - r).abs() <= eb * (1.0 + 1e-12), "{what}");
                        }
                    }
                    for ((oi, oj, ok), bd) in blocks_of(orig.dims(), bs) {
                        let regression = selection.next().expect("one bit per block");
                        for (j, k) in (0..bd.nz).flat_map(|k| (0..bd.ny).map(move |j| (j, k))) {
                            let raw = (0..bd.nx)
                                .filter(|i| is_spike(orig.get(oi + i, oj + j, ok + k)))
                                .count();
                            census[regression as usize][raw.min(2)] += 1;
                        }
                    }
                }
                assert_eq!(selection.next(), None, "{what}");
            }
        }
        // The equivalence above is only as good as its inputs: both
        // predictors must have met rows with no, one and many outliers.
        for (predictor, rows) in ["Lorenzo", "regression"].iter().zip(census) {
            for (outliers, n) in ["no", "one", "many"].iter().zip(rows) {
                assert!(n > 0, "no {predictor} row with {outliers} outliers");
            }
        }
    }

    /// An SZ_L/R stream around a hand-edited head and, for a grouped
    /// stream, data part, stored (lossless mode 0) rather than parsed
    /// again for every edit.
    fn wrap(head: &[u8], data: Option<&[u8]>) -> Vec<u8> {
        let mut w = Writer::new();
        let version = if data.is_some() { GROUPED } else { ONE_GROUP };
        write_envelope(&mut w, CodecId::LrSle, version, 0);
        for frame in std::iter::once(head).chain(data) {
            w.put_u64(frame.len() as u64);
            w.put_u8(0);
            w.put_block(frame);
        }
        w.into_bytes()
    }

    /// Both decoders on one hostile stream: the same values bit for bit,
    /// or the same error variant. A panic in either fails the test.
    ///
    /// One exception: a NaN that a damaged stream makes a decoder
    /// *compute* (a valid symbol on a prediction that is NaN, which no
    /// encoder emits — a NaN prediction always quantizes to an outlier)
    /// compares as NaN only. When two NaNs meet in one add, which one's
    /// sign and payload survive depends on the operand order the compiler
    /// picked, and optimised builds pick differently for the two loops.
    fn assert_same_outcome(stream: &[u8], what: &str) {
        let fast = decompress_domains(stream);
        let slow = decompress_domains_reference(stream);
        match (&fast, &slow) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len(), "{what}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.dims(), y.dims(), "{what}");
                    for (p, q) in x.data().iter().zip(y.data()) {
                        assert!(
                            p.to_bits() == q.to_bits() || p.is_nan() && q.is_nan(),
                            "{what}"
                        );
                    }
                }
            }
            (Err(a), Err(b)) => assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{what}: {a:?} vs {b:?}"
            ),
            _ => panic!("{what}: row decoder {fast:?}, reference {slow:?}"),
        }
    }

    /// Thirteen-by-seven-by-nine domains of [`field`]'s outliers: five make
    /// one group (4 095 cells), thirteen make three.
    fn spiky_stream(n: usize) -> Vec<u8> {
        let domains: Vec<Buffer3> = (0..n).map(|u| field(2, Dims3::new(13, 7, 9), u)).collect();
        compress_domains(&domains, &LrConfig::new(1e-3).with_block_size(6))
    }

    #[test]
    fn hostile_streams_get_the_reference_outcome() {
        // Regression and Lorenzo blocks, ragged edges, outliers of every
        // kind, several domains under one book, in one group and in three.
        for (n, groups) in [(5, 1), (13, 3)] {
            let stream = spiky_stream(n);
            assert_eq!(layout(&stream).unwrap().groups, groups);
            let (head, data) = frames_of(&stream);
            let data = data.as_deref();
            assert_same_outcome(&wrap(&head, data), "pristine");
            assert!(decompress_domains(&wrap(&head, data)).is_ok());
            let selection = selection_bits(&stream);
            assert!(selection.contains(&true) && selection.contains(&false));
            // Every truncation of each frame (the streams run dry mid-row,
            // mid-table, mid-header, mid-group) and of the stream around
            // them.
            for cut in 0..head.len() {
                assert_same_outcome(
                    &wrap(&head[..cut], data),
                    &format!("{n}: head cut at {cut}"),
                );
            }
            for cut in 0..data.map_or(0, <[u8]>::len) {
                let cut_data = data.map(|d| &d[..cut]);
                assert_same_outcome(&wrap(&head, cut_data), &format!("{n}: data cut at {cut}"));
            }
            for cut in 0..stream.len() {
                assert_same_outcome(&stream[..cut], &format!("{n}: stream cut at {cut}"));
            }
            // Seeded bit flips: header fields, selection bits, the books,
            // the group table and every group's bits, outlier counts and
            // raw values.
            let mut x = 2024u64;
            for _ in 0..2000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (mut head, mut data) = (head.clone(), data.map(<[u8]>::to_vec));
                let frame = match data.as_mut() {
                    Some(data) if x >> 63 == 1 => data,
                    _ => &mut head,
                };
                let (at, bit) = ((x >> 33) as usize % frame.len(), (x >> 8) % 8);
                frame[at] ^= 1 << bit;
                let what = format!("{n}: bit {bit} of byte {at}, data part {}", x >> 63);
                assert_same_outcome(&wrap(&head, data.as_deref()), &what);
            }
        }
    }

    /// A grouped stream's head, its group table (per group: domains,
    /// bits, raw values) and its data symbol count edited by `edit`.
    fn forge_table(head: &[u8], edit: impl FnOnce(&mut Vec<[u64; 3]>, &mut u64)) -> Vec<u8> {
        let mut r = Reader::new(head);
        r.get_raw(8 + 1).unwrap();
        let ndomains = r.get_u32().unwrap() as usize;
        r.get_raw(12 * ndomains).unwrap();
        let nblocks = r.get_u64().unwrap() as usize;
        r.get_raw(nblocks.div_ceil(8)).unwrap();
        r.get_block().unwrap();
        let n_coeff_out = r.get_u64().unwrap() as usize;
        r.get_raw(8 * n_coeff_out).unwrap();
        HuffmanCode::read_table(&mut r).unwrap();
        let mut w = Writer::new();
        w.put_raw(&head[..head.len() - r.remaining()]);
        let mut n = r.get_u64().unwrap();
        let mut table: Vec<[u64; 3]> = (0..r.get_varint().unwrap())
            .map(|_| [(); 3].map(|_| r.get_varint().unwrap()))
            .collect();
        edit(&mut table, &mut n);
        w.put_u64(n);
        w.put_varint(table.len() as u64);
        for v in table.iter().flatten() {
            w.put_varint(*v);
        }
        w.put_raw(r.get_raw(r.remaining()).unwrap());
        w.into_bytes()
    }

    fn corrupt(r: &CodecResult<Vec<Buffer3>>) -> bool {
        matches!(r, Err(CodecError::Corrupt { .. }))
    }

    fn too_many(r: &CodecResult<Vec<Buffer3>>) -> bool {
        matches!(r, Err(CodecError::LimitExceeded { .. }))
    }

    #[test]
    fn forged_group_tables_are_typed_errors_before_any_traversal() {
        let stream = spiky_stream(13);
        let (head, data) = frames_of(&stream);
        let data = data.expect("grouped");
        assert_eq!(
            forge_table(&head, |_, _| {}),
            head,
            "the forger rewrites what it read"
        );
        type Edit = fn(&mut Vec<[u64; 3]>, &mut u64);
        type Expect = fn(&CodecResult<Vec<Buffer3>>) -> bool;
        let cases: [(&str, Edit, Expect); 9] = [
            (
                "bit lengths short of the data part",
                |t, _| t[2][1] -= 8,
                corrupt,
            ),
            (
                "bit lengths past the data part",
                |t, _| t[2][1] += 8,
                corrupt,
            ),
            (
                "outlier counts short of the stream's",
                |t, _| t[1][2] ^= 1,
                corrupt,
            ),
            (
                "an outlier counted in the wrong group",
                |t, _| {
                    let most = (0..t.len()).max_by_key(|&k| t[k][2]).unwrap();
                    assert!(t[most][2] > 0);
                    let next = (most + 1) % t.len();
                    t[most][2] -= 1;
                    t[next][2] += 1;
                },
                corrupt,
            ),
            (
                "domain counts short of the stream's",
                |t, _| t[0][0] -= 1,
                corrupt,
            ),
            (
                "domain counts past the stream's",
                |t, _| t[2][0] += 1,
                corrupt,
            ),
            ("an empty group", |t, _| t.insert(1, [0, 0, 0]), corrupt),
            (
                "a group of more cells than bits",
                |t, _| {
                    let moved = t[0][1] - 10;
                    t[0][1] = 10;
                    t[1][1] += moved;
                },
                too_many,
            ),
            (
                "a symbol count that is not the cells'",
                |_, n| *n += 1,
                corrupt,
            ),
        ];
        for (what, edit, expect) in cases {
            let forged = wrap(&forge_table(&head, edit), Some(&data));
            let got = decompress_domains(&forged);
            assert!(expect(&got), "{what}: {got:?}");
            assert_same_outcome(&forged, what);
        }
        // The cells a stream may claim count the data part: smooth domains
        // whose head alone could not back them.
        let domains: Vec<Buffer3> = (0..4).map(|_| smooth_cube(20)).collect();
        let stream = compress_domains(&domains, &LrConfig::new(1e-3));
        let (head, data) = frames_of(&stream);
        assert!(
            head.len() * 8 + 64 < 4 * 20usize.pow(3),
            "head of {} B",
            head.len()
        );
        assert!(decompress_domains(&wrap(&head, data.as_deref())).is_ok());
        let got = decompress_domains(&wrap(&head, Some(&[])));
        assert!(
            matches!(
                got,
                Err(CodecError::LimitExceeded {
                    what: "domain cells",
                    ..
                })
            ),
            "{got:?}"
        );
    }

    /// A destination that keeps the domains `keep` marks, each in a buffer
    /// of its own, and passes over the rest; it counts what it is asked.
    struct Subset {
        keep: Vec<bool>,
        kept: Vec<(usize, Buffer3)>,
        asked: usize,
    }

    impl Subset {
        fn new(keep: Vec<bool>) -> Self {
            Subset {
                keep,
                kept: Vec::new(),
                asked: 0,
            }
        }
    }

    impl UnitDest for Subset {
        fn wants(&mut self, i: usize, _dims: Dims3) -> CodecResult<bool> {
            assert_eq!(i, self.asked, "domains are offered once each, in order");
            self.asked += 1;
            Ok(self.keep[i])
        }

        fn unit(&mut self, i: usize, dims: Dims3) -> CodecResult<crate::StridedMut<'_>> {
            assert!(self.keep[i], "domain {i} was declined, then asked for");
            self.kept.push((i, Buffer3::zeros(dims)));
            let (_, b) = self.kept.last_mut().expect("just pushed");
            crate::StridedMut::new(dims, b.data_mut(), dims.nx, dims.nx * dims.ny)
        }
    }

    #[test]
    fn skipped_domains_leave_the_kept_ones_bitwise_equal() {
        // Random subsets of streams with regression and Lorenzo blocks,
        // ragged edges and outliers of every kind (a skipped domain must
        // still step over its coefficients and raw values), plus the
        // empty and the full subset.
        let mut x = 41u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut skipped_with_outliers = 0;
        for case in 0..96 {
            let n = 1 + next() as usize % 12;
            let (kind, bs) = (next() as usize % 3, [3usize, 4, 6][next() as usize % 3]);
            let domains: Vec<Buffer3> = (0..n)
                .map(|u| {
                    let (nx, ny, nz) = ORACLE_DIMS[next() as usize % 4];
                    field(kind, Dims3::new(nx, ny, nz), u)
                })
                .collect();
            let stream = compress_domains(&domains, &LrConfig::new(1e-3).with_block_size(bs));
            let full = decompress_domains(&stream).expect("full decode");
            let keep: Vec<bool> = match case {
                0 => vec![false; n],
                1 => vec![true; n],
                _ => (0..n).map(|_| next() % 2 == 0).collect(),
            };
            let what = format!("case {case}: {n} domains kind {kind} bs {bs} keep {keep:?}");
            assert_kept_domains_match(&stream, &keep, &full, &what);
            skipped_with_outliers += (0..n)
                .filter(|&i| !keep[i] && domains[i].data().iter().any(|&v| is_spike(v)))
                .count();
        }
        assert!(
            skipped_with_outliers > 0,
            "no skipped domain held an outlier"
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error_under_a_skipping_destination() {
        // One group and three: a cut anywhere, in either frame or in the
        // stream around them, fails the same way for a destination that
        // wants nothing, every other domain, or the others.
        for n in [5, 13] {
            let stream = spiky_stream(n);
            let (head, data) = frames_of(&stream);
            let data = data.as_deref();
            let data_cuts = (0..data.map_or(0, <[u8]>::len)).map(|cut| {
                let what = format!("{n}: data cut at {cut}");
                (wrap(&head, data.map(|d| &d[..cut])), what)
            });
            let cuts = (0..head.len())
                .map(|cut| (wrap(&head[..cut], data), format!("{n}: head cut at {cut}")))
                .chain(data_cuts)
                .chain(
                    (0..stream.len())
                        .map(|cut| (stream[..cut].to_vec(), format!("{n}: stream cut at {cut}"))),
                );
            for (cut, what) in cuts {
                for parity in [None, Some(0), Some(1)] {
                    let keep: Vec<bool> = (0..n).map(|i| Some(i % 2) == parity).collect();
                    let skipping = decompress_domains_into(&cut, &mut Subset::new(keep.clone()));
                    let full = decompress_domains(&cut);
                    match (&skipping, &full) {
                        (Err(a), Err(b)) => assert_eq!(
                            std::mem::discriminant(a),
                            std::mem::discriminant(b),
                            "{what}, keep {keep:?}: {a:?} vs {b:?}"
                        ),
                        _ => panic!("{what}, keep {keep:?}: skipping {skipping:?}, full {full:?}"),
                    }
                }
            }
        }
    }

    /// Per group of a grouped stream: its domains and its bits in the
    /// data part, from the decoder's parse.
    fn group_spans(stream: &[u8]) -> Vec<(std::ops::Range<usize>, std::ops::Range<u64>)> {
        let frames = Frames::read(stream).unwrap();
        let parsed = Stream::parse(&frames).unwrap();
        let (mut domain, mut bit) = (0, 0);
        let mut spans = Vec::new();
        for g in &parsed.groups {
            spans.push((domain..domain + g.domains, bit..bit + g.bits));
            (domain, bit) = (domain + g.domains, bit + g.bits);
        }
        spans
    }

    /// Decode `stream` through a [`Subset`] keeping `keep`, and hold every
    /// kept domain to `full`, bit for bit.
    fn assert_kept_domains_match(stream: &[u8], keep: &[bool], full: &[Buffer3], what: &str) {
        let mut dest = Subset::new(keep.to_vec());
        assert_eq!(
            decompress_domains_into(stream, &mut dest),
            Ok(keep.len()),
            "{what}"
        );
        assert_eq!(dest.asked, keep.len(), "{what}");
        let wanted: Vec<usize> = (0..keep.len()).filter(|&i| keep[i]).collect();
        let got: Vec<usize> = dest.kept.iter().map(|(i, _)| *i).collect();
        assert_eq!(got, wanted, "{what}");
        let bits = |b: &Buffer3| b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, b) in &dest.kept {
            assert_eq!(bits(b), bits(&full[*i]), "{what}: domain {i}");
        }
    }

    #[test]
    fn garbage_in_unwanted_groups_leaves_the_wanted_domains_bitwise_equal() {
        // Forty 9×8×7 domains with outliers, nine to a group but the last,
        // the data part stored: every data bit of a group holding no
        // wanted domain is overwritten, and the wanted domains must not
        // notice.
        let domains: Vec<Buffer3> = (0..40).map(|u| field(2, Dims3::new(9, 8, 7), u)).collect();
        let stream = compress_domains(&domains, &LrConfig::new(1e-3).with_block_size(4));
        let full = decompress_domains(&stream).unwrap();
        let (head, data) = frames_of(&stream);
        let data = data.expect("grouped");
        let spans = group_spans(&stream);
        assert_eq!(spans.len(), 5);
        let mut x = 7u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut garbled_groups = 0;
        for case in 0..40 {
            let keep: Vec<bool> = match case {
                0 => vec![false; 40],
                1 => (0..40).map(|i| i == 22).collect(),
                // Runs of wanted domains, as a region query asks.
                _ => {
                    let (from, len) = (next() as usize % 40, 1 + next() as usize % 12);
                    (0..40).map(|i| (from..from + len).contains(&i)).collect()
                }
            };
            let mut garbage = data.clone();
            for (domains, bits) in &spans {
                if !keep[domains.clone()].contains(&true) {
                    for bit in bits.clone() {
                        let (byte, mask) = ((bit / 8) as usize, 0x80 >> (bit % 8));
                        garbage[byte] = garbage[byte] & !mask | mask & next() as u8;
                    }
                    garbled_groups += 1;
                }
            }
            let garbled = wrap(&head, Some(&garbage));
            let what = format!("case {case}: keep {keep:?}");
            assert_kept_domains_match(&garbled, &keep, &full, &what);
            // The garbage is real: a full decode of the garbled stream
            // does not give the pristine values back.
            if case > 0 {
                assert_ne!(
                    decompress_domains(&garbled).ok(),
                    Some(full.clone()),
                    "{what}"
                );
            }
        }
        assert!(garbled_groups > 40, "only {garbled_groups} groups garbled");
    }

    #[test]
    fn windowed_decodes_match_the_full_decode_with_a_stored_and_an_lz_data_part() {
        // Noisy domains leave the groups' bits incompressible (stored);
        // smooth ones at a loose bound make runs of one short code (LZ).
        let noisy: Vec<Buffer3> = (0..20).map(|u| field(1, Dims3::new(13, 7, 9), u)).collect();
        let smooth: Vec<Buffer3> = (0..20).map(|_| smooth_cube(10)).collect();
        for (domains, eb, stored) in [(noisy, 1e-3, true), (smooth, 1e-1, false)] {
            let stream = compress_domains(&domains, &LrConfig::new(eb));
            let layout = layout(&stream).unwrap();
            assert!(layout.groups >= 3, "{layout:?}");
            let mode = layout.data.expect("grouped").mode;
            assert_eq!(mode == 0, stored, "{layout:?}");
            let full = decompress_domains(&stream).unwrap();
            assert_eq!(full, decompress_domains_reference(&stream).unwrap());
            let n = domains.len();
            let mut x = 5u64 + mode as u64;
            for case in 0..24 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let keep: Vec<bool> = match case {
                    0 => vec![true; n],
                    1 => vec![false; n],
                    _ => (0..n).map(|i| (x >> (i + 20)) & 3 == 0).collect(),
                };
                let what = format!("data mode {mode}, keep {keep:?}");
                assert_kept_domains_match(&stream, &keep, &full, &what);
            }
        }
    }

    fn smooth_cube(n: usize) -> Buffer3 {
        let mut b = Buffer3::zeros(Dims3::cube(n));
        b.fill_with(|i, j, k| {
            let (x, y, z) = (
                i as f64 / n as f64,
                j as f64 / n as f64,
                k as f64 / n as f64,
            );
            (6.0 * x).sin() * (5.0 * y).cos() + 0.5 * (4.0 * z).sin()
        });
        b
    }

    fn rough_cube(n: usize) -> Buffer3 {
        let mut x = 99u64;
        let mut b = Buffer3::zeros(Dims3::cube(n));
        b.fill_with(|i, j, k| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (i + j + k) as f64 * 0.05 + noise
        });
        b
    }

    #[test]
    fn roundtrip_respects_error_bound() {
        for data in [smooth_cube(20), rough_cube(20)] {
            for eb in [1e-2, 1e-3, 1e-4] {
                let c = compress(&data, &LrConfig::new(eb));
                let back = decompress(&c).expect("decode");
                let stats = ErrorStats::compare(data.data(), back.data());
                assert!(
                    stats.max_abs_err <= eb * (1.0 + 1e-12),
                    "eb={eb}: max err {}",
                    stats.max_abs_err
                );
            }
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_cube(32);
        let c = compress(&data, &LrConfig::new(1e-3));
        let orig = data.dims().len() * 8;
        assert!(
            c.len() * 8 < orig,
            "CR {} too low",
            orig as f64 / c.len() as f64
        );
        assert!(orig as f64 / c.len() as f64 > 8.0);
    }

    #[test]
    fn non_cubic_dims_roundtrip() {
        let mut b = Buffer3::zeros(Dims3::new(17, 9, 5));
        b.fill_with(|i, j, k| (i * 3 + j * 7 + k * 11) as f64 * 0.01);
        let c = compress(&b, &LrConfig::new(1e-4));
        let back = decompress(&c).expect("decode");
        let stats = ErrorStats::compare(b.data(), back.data());
        assert!(stats.max_abs_err <= 1e-4 * (1.0 + 1e-12));
    }

    #[test]
    fn sle_multi_domain_roundtrip() {
        let units: Vec<Buffer3> = (0..5)
            .map(|u| {
                let mut b = Buffer3::zeros(Dims3::cube(8));
                b.fill_with(|i, j, k| ((i + j + k) as f64 * 0.1 + u as f64).sin());
                b
            })
            .collect();
        let refs: Vec<&Buffer3> = units.iter().collect();
        let c = compress_domains(&refs, &LrConfig::new(1e-3));
        let back = decompress_domains(&c).expect("decode");
        assert_eq!(back.len(), units.len());
        for (orig, rec) in units.iter().zip(&back) {
            assert_eq!(orig.dims(), rec.dims());
            let stats = ErrorStats::compare(orig.data(), rec.data());
            assert!(stats.max_abs_err <= 1e-3 * (1.0 + 1e-12));
        }
    }

    #[test]
    fn shared_tree_beats_separate_encoding() {
        // SLE's reason to exist: many small blocks with one shared Huffman
        // tree outperform per-block compression calls (paper Challenge 1).
        let units: Vec<Buffer3> = (0..64)
            .map(|u| {
                let mut b = Buffer3::zeros(Dims3::cube(8));
                b.fill_with(|i, j, k| ((i * 31 + j * 17 + k * 7 + u * 131) % 97) as f64 * 0.013);
                b
            })
            .collect();
        let refs: Vec<&Buffer3> = units.iter().collect();
        let cfg = LrConfig::new(1e-3);
        let shared = compress_domains(&refs, &cfg).len();
        let separate: usize = units.iter().map(|u| compress(u, &cfg).len()).sum();
        assert!(
            shared < separate,
            "SLE ({shared}) should beat per-unit calls ({separate})"
        );
    }

    #[test]
    fn one_dimensional_roundtrip() {
        let data: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.01).sin() * 3.0).collect();
        let c = compress_1d(&data, 1e-3);
        let back = decompress(&c).expect("decode");
        let stats = ErrorStats::compare(&data, back.data());
        assert!(stats.max_abs_err <= 1e-3 * (1.0 + 1e-12));
    }

    #[test]
    fn constant_field_tiny_output() {
        let b = Buffer3::from_vec(Dims3::cube(16), vec![4.2; 4096]);
        let c = compress(&b, &LrConfig::new(1e-6));
        assert!(c.len() < 400, "constant field compressed to {} B", c.len());
        let back = decompress(&c).expect("decode");
        assert!(back.data().iter().all(|&v| (v - 4.2).abs() <= 1e-6));
    }

    #[test]
    fn corrupted_stream_is_error_not_panic() {
        let data = smooth_cube(8);
        let c = compress(&data, &LrConfig::new(1e-3));
        assert!(decompress(&c[..8]).is_err());
        let mut bad = c.clone();
        bad[0] ^= 0xFF;
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn block_partition_covers_domain() {
        let dims = Dims3::new(13, 7, 9);
        let blocks: Vec<_> = blocks_of(dims, 6).collect();
        let total: usize = blocks.iter().map(|(_, bd)| bd.len()).sum();
        assert_eq!(total, dims.len());
        // 13 → 6+6+1, 7 → 6+1, 9 → 6+3 ⇒ 3×2×2 blocks.
        assert_eq!(blocks.len(), 12);
    }
}
