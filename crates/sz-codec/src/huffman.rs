//! Canonical Huffman coding over `u32` symbols.
//!
//! SZ encodes error-quantization codes (≈2¹⁶ possible bins) with a
//! customized Huffman coder; this is the equivalent. Codes are canonical so
//! the table serializes as (symbol, length) pairs and decoding needs only
//! per-length first-code offsets.

use crate::bitstream::BitReader;
use crate::wire::{CodecError, CodecResult, Reader, Writer};
use std::collections::BinaryHeap;

/// Maximum admitted code length. Frequencies are flattened and the tree is
/// rebuilt if a longer code appears (pathological skew).
const MAX_CODE_LEN: u32 = 32;

/// Width of the primary decode lookup table. Every code of length
/// ≤ `DECODE_TABLE_BITS` resolves with one table load; longer codes fall
/// back to the canonical per-length walk. 12 bits ⇒ a 4096-entry table
/// (32 KiB) that stays L1/L2-resident while covering the entire hot
/// symbol mass of quantization streams.
const DECODE_TABLE_BITS: u32 = 12;

/// Below this symbol count the lookup-table build costs more than it
/// saves; decode falls through to the bit-by-bit reference walk.
const DECODE_TABLE_MIN_SYMBOLS: usize = 64;

/// Stack bytes `encode_into` fills between appends: whole 4-byte words.
const FLUSH_BLOCK: usize = 1024;

/// A built Huffman code book.
#[derive(Clone, Debug)]
pub struct HuffmanCode {
    /// (symbol, code length) for every used symbol, canonical order.
    lens: Vec<(u32, u32)>,
    /// Dense encode table indexed by symbol: (code, len); len = 0 = unused.
    /// Built only by [`HuffmanCode::from_frequencies`] — books read from a
    /// stream are decode-only and keep it empty, so nothing on the decode
    /// path is ever sized by a (forgeable) symbol *value*.
    encode: Vec<(u64, u32)>,
}

impl HuffmanCode {
    /// Build a code book from symbol frequencies. `freqs` maps symbol →
    /// count; zero-count symbols are ignored. Panics if no symbol has a
    /// positive count.
    pub fn from_frequencies(freqs: &[(u32, u64)]) -> Self {
        let used: Vec<(u32, u64)> = freqs.iter().copied().filter(|&(_, c)| c > 0).collect();
        assert!(!used.is_empty(), "Huffman build with no symbols");
        let mut shift = 0u32;
        loop {
            let lens = build_lengths(&used, shift);
            if lens.iter().all(|&(_, l)| l <= MAX_CODE_LEN) {
                let mut book = Self::from_lengths(lens);
                book.build_encode_table();
                return book;
            }
            shift += 4; // flatten frequencies and retry
        }
    }

    /// Decode-only book from explicit (symbol, length) pairs (e.g. read
    /// from a stream header). Lengths define canonical codes; every
    /// allocation is proportional to the entry *count*.
    fn from_lengths(mut lens: Vec<(u32, u32)>) -> Self {
        // Canonical order: by (length, symbol).
        lens.sort_by_key(|&(s, l)| (l, s));
        HuffmanCode {
            lens,
            encode: Vec::new(),
        }
    }

    /// Fill the dense symbol-indexed encode table from the canonical
    /// lengths. Encode side only: the symbols are the caller's own data.
    fn build_encode_table(&mut self) {
        let max_symbol = self.lens.iter().map(|&(s, _)| s).max().unwrap_or(0);
        self.encode = vec![(0u64, 0u32); max_symbol as usize + 1];
        let mut code = 0u64;
        let mut prev_len = 0u32;
        for &(sym, len) in &self.lens {
            code <<= len - prev_len;
            prev_len = len;
            self.encode[sym as usize] = (code, len);
            code += 1;
        }
    }

    /// Append the bit-packed encoding of `symbols` to `out`: one shift+or
    /// per symbol into a 64-bit accumulator, drained 32 bits at a time
    /// into a stack block that is appended whole. MSB-first packing of 32
    /// bits is the big-endian word, so the bytes are those of the per-bit
    /// `bitstream::BitWriter` loop (the test oracle).
    pub fn encode_into<S: Copy + Into<u32>>(&self, symbols: &[S], out: &mut Vec<u8>) {
        // Valid bits live in acc[0, nbits) and nbits < 32 before every
        // add, so `acc << len` with len ≤ MAX_CODE_LEN = 32 keeps them
        // inside 64 bits. Stale bits above the valid region are cut by
        // the `as u32` casts.
        let mut block = [0u8; FLUSH_BLOCK];
        let mut fill = 0;
        let mut acc = 0u64;
        let mut nbits = 0u32;
        for &s in symbols {
            let s: u32 = s.into();
            let (code, len) = self.encode[s as usize];
            debug_assert!(len > 0, "symbol {s} not in code book");
            acc = (acc << len) | code;
            nbits += len;
            if nbits >= 32 {
                nbits -= 32;
                block[fill..fill + 4].copy_from_slice(&((acc >> nbits) as u32).to_be_bytes());
                fill += 4;
                if fill == FLUSH_BLOCK {
                    out.extend_from_slice(&block);
                    fill = 0;
                }
            }
        }
        out.extend_from_slice(&block[..fill]);
        // The last nbits < 32 bits, left-aligned and zero-padded to a byte.
        let tail = ((acc << (32 - nbits)) as u32).to_be_bytes();
        out.extend_from_slice(&tail[..nbits.div_ceil(8) as usize]);
    }

    /// Code length in bits for `sym`; 0 when the symbol is not in the book.
    fn code_len(&self, sym: u32) -> u32 {
        self.encode.get(sym as usize).map(|&(_, l)| l).unwrap_or(0)
    }

    /// Decode exactly `n` symbols from the bit stream into the symbol type
    /// the caller stores; a symbol that does not fit it is corrupt.
    ///
    /// Table-driven: codes of length ≤ `DECODE_TABLE_BITS` resolve with
    /// a single lookup on the next 12 peeked bits; longer codes continue
    /// the canonical per-length walk from the peeked prefix, and the final
    /// few bytes fall back to the bit-by-bit walk so end-of-stream
    /// handling matches the private `decode_reference` walk exactly. Because
    /// the code is prefix-free, the table lookup selects the same unique
    /// code the reference walk finds, so results (including the typed
    /// errors on truncated or invalid streams) are identical.
    pub fn decode<S: TryFrom<u32>>(&self, bytes: &[u8], n: usize) -> CodecResult<Vec<S>> {
        // Every symbol costs at least one bit, so a count beyond 8 bits
        // per payload byte can only come from a corrupted header.
        if n as u128 > bytes.len() as u128 * 8 {
            return Err(CodecError::LimitExceeded {
                what: "symbol count",
                claimed: n as u128,
                available: bytes.len() as u128 * 8,
            });
        }
        if n < DECODE_TABLE_MIN_SYMBOLS || self.lens.is_empty() {
            return self.decode_reference(bytes, n);
        }
        let canon = Canonical::build(&self.lens);
        let max_len = canon.max_len;
        let tb = DECODE_TABLE_BITS.min(max_len as u32);
        // lut[next tb bits] = (symbol, code length); length 0 = long code.
        // Canonical codes are assigned in (length, symbol) order, so every
        // slot sharing a code's prefix is filled exactly once.
        let mut lut = vec![(0u32, 0u8); 1usize << tb];
        {
            let mut code = 0u64;
            let mut prev_len = 0u32;
            for &(sym, len) in &self.lens {
                code <<= len - prev_len;
                prev_len = len;
                if len <= tb {
                    // A forged table can over-subscribe the code space
                    // (Kraft sum > 1), spilling the canonical assignment
                    // past `len` bits and off the end of the LUT. The
                    // reference walk is total over such tables and is
                    // this decoder's behavioural contract, so defer to
                    // it rather than index out of range.
                    if code >> len != 0 {
                        return self.decode_reference(bytes, n);
                    }
                    let base = (code << (tb - len)) as usize;
                    for e in &mut lut[base..base + (1usize << (tb - len))] {
                        *e = (sym, len as u8);
                    }
                }
                code += 1;
            }
        }
        let total_bits = bytes.len() * 8;
        let mut out = Vec::with_capacity(n);
        // Persistent bit buffer: the next unconsumed bits sit left-aligned
        // in `buf`, `nbits` of them counted, the byte after them at
        // `byte_pos`. Whatever `buf` holds below the counted bits is zero
        // or the stream bits that follow them, so a refill may OR bits in
        // that are already there.
        let mut buf: u64 = 0;
        let mut nbits: u32 = 0;
        let mut byte_pos = 0usize;
        // A word refill leaves ≥ 56 counted bits: this many table hits of
        // ≤ `tb` bits each need no refill test between them.
        let group = (56 / tb) as usize;
        while out.len() < n {
            // Fast phase, while a whole word and a whole group remain.
            // `nbits ≤ 63` here (a symbol has been taken since any byte
            // refill to 64), and the word supplies whole bytes up to 56–63
            // counted bits: `nbits + 8·((63 − nbits) >> 3) = nbits | 56`.
            if let (true, Some(word)) = (n - out.len() >= group, bytes.get(byte_pos..byte_pos + 8))
            {
                buf |= u64::from_be_bytes(word.try_into().expect("8 bytes")) >> nbits;
                byte_pos += ((63 - nbits) >> 3) as usize;
                nbits |= 56;
                let mut hits = 0;
                while hits < group {
                    let (sym, hit_len) = lut[(buf >> (64 - tb)) as usize];
                    if hit_len == 0 {
                        break;
                    }
                    out.push(narrow(sym)?);
                    buf <<= hit_len;
                    nbits -= hit_len as u32;
                    hits += 1;
                }
                if hits == group {
                    continue;
                }
            }
            // One symbol, refilled a byte at a time: a long code (the
            // group above stopped at it with ≥ `tb` bits still counted),
            // the last < 8 bytes and the last few symbols.
            while nbits <= 56 && byte_pos < bytes.len() {
                buf |= (bytes[byte_pos] as u64) << (56 - nbits);
                nbits += 8;
                byte_pos += 1;
            }
            // With ≥ `tb` bits buffered, a table hit — or, when no code of
            // length ≤ tb matches the peeked bits, the canonical walk on
            // the raw stream with those tb bits already consumed. With
            // fewer, the stream is drained: the exact reference bit-by-bit
            // walk for the tail symbols.
            let pos = byte_pos * 8 - nbits as usize;
            let (prefix, len0) = if nbits >= tb {
                let idx = (buf >> (64 - tb)) as usize;
                let (sym, hit_len) = lut[idx];
                if hit_len != 0 {
                    out.push(narrow(sym)?);
                    buf <<= hit_len;
                    nbits -= hit_len as u32;
                    continue;
                }
                (idx as u64, tb)
            } else {
                (0, 0)
            };
            let (sym, new_pos) =
                self.walk_one(bytes, total_bits, pos + len0 as usize, prefix, len0, &canon)?;
            out.push(narrow(sym)?);
            // Re-sync the buffer to the walk's position. Long codes are
            // rare by construction, so the cost is noise.
            byte_pos = new_pos.div_ceil(8);
            nbits = (byte_pos * 8 - new_pos) as u32;
            buf = if nbits == 0 {
                0
            } else {
                (bytes[byte_pos - 1] as u64) << (56 + (8 - nbits))
            };
        }
        Ok(out)
    }

    /// One symbol of the canonical bit-by-bit walk, starting `len0` bits
    /// into a code whose prefix is `code0`. Bit-for-bit the reference
    /// decode loop, including the order of the exhausted/invalid checks.
    fn walk_one(
        &self,
        bytes: &[u8],
        total_bits: usize,
        mut pos: usize,
        code0: u64,
        len0: u32,
        canon: &Canonical,
    ) -> CodecResult<(u32, usize)> {
        let mut code = code0;
        let mut len = len0 as usize;
        loop {
            if pos >= total_bits {
                return Err(CodecError::corrupt("huffman stream exhausted"));
            }
            let bit = ((bytes[pos >> 3] >> (7 - (pos & 7))) & 1) as u64;
            pos += 1;
            code = (code << 1) | bit;
            len += 1;
            if len > canon.max_len {
                return Err(CodecError::corrupt("invalid huffman code"));
            }
            let rel = code.wrapping_sub(canon.first_code[len]);
            if canon.count[len] > 0
                && code >= canon.first_code[len]
                && (rel as usize) < canon.count[len]
            {
                return Ok((self.lens[canon.first_index[len] + rel as usize].0, pos));
            }
        }
    }

    /// The bit-by-bit canonical walk: the decoder of short streams and of
    /// forged tables the lookup path cannot index, and the equivalence
    /// oracle of [`HuffmanCode::decode`].
    fn decode_reference<S: TryFrom<u32>>(&self, bytes: &[u8], n: usize) -> CodecResult<Vec<S>> {
        if n as u128 > bytes.len() as u128 * 8 {
            return Err(CodecError::LimitExceeded {
                what: "symbol count",
                claimed: n as u128,
                available: bytes.len() as u128 * 8,
            });
        }
        // Per-length canonical decode tables.
        let max_len = self.lens.last().map(|&(_, l)| l).unwrap_or(0);
        // first_code[len], first_index[len] into self.lens.
        let mut first_code = vec![0u64; max_len as usize + 2];
        let mut first_index = vec![0usize; max_len as usize + 2];
        let mut count = vec![0usize; max_len as usize + 2];
        for &(_, l) in &self.lens {
            count[l as usize] += 1;
        }
        let mut code = 0u64;
        let mut index = 0usize;
        for len in 1..=max_len as usize {
            code <<= 1;
            first_code[len] = code;
            first_index[len] = index;
            code += count[len] as u64;
            index += count[len];
        }
        let mut out = Vec::with_capacity(n);
        let mut r = BitReader::new(bytes);
        // Single-symbol streams use 1-bit codes; the general path handles it.
        for _ in 0..n {
            let mut code = 0u64;
            let mut len = 0usize;
            loop {
                let bit = r
                    .read_bit()
                    .ok_or_else(|| CodecError::corrupt("huffman stream exhausted"))?;
                code = (code << 1) | bit;
                len += 1;
                if len > max_len as usize {
                    return Err(CodecError::corrupt("invalid huffman code"));
                }
                let rel = code.wrapping_sub(first_code[len]);
                if count[len] > 0 && code >= first_code[len] && (rel as usize) < count[len] {
                    out.push(narrow(self.lens[first_index[len] + rel as usize].0)?);
                    break;
                }
            }
        }
        Ok(out)
    }

    /// Serialize the code book (symbol/length pairs).
    pub fn write_table(&self, w: &mut Writer) {
        w.put_u32(self.lens.len() as u32);
        for &(s, l) in &self.lens {
            w.put_u32(s);
            w.put_u8(l as u8);
        }
    }

    /// Deserialize a code book written by [`HuffmanCode::write_table`].
    pub fn read_table(r: &mut Reader<'_>) -> CodecResult<Self> {
        let n = r.get_u32()? as usize;
        if n == 0 {
            return Err(CodecError::corrupt("empty huffman table"));
        }
        // Each table entry occupies 5 bytes (u32 symbol + u8 length).
        r.check_count(n, 5)?;
        let mut lens = Vec::with_capacity(n);
        for _ in 0..n {
            let s = r.get_u32()?;
            let l = r.get_u8()? as u32;
            if l == 0 || l > MAX_CODE_LEN {
                return Err(CodecError::corrupt(format!("bad code length {l}")));
            }
            lens.push((s, l));
        }
        Ok(Self::from_lengths(lens))
    }
}

/// A decoded symbol as the caller's symbol type. A book read from a
/// stream can name any `u32`, so one that does not fit (a byte-token book
/// emitting a symbol above `0xFF`) is corrupt, never a truncating cast.
#[inline(always)]
fn narrow<S: TryFrom<u32>>(sym: u32) -> CodecResult<S> {
    S::try_from(sym).map_err(|_| CodecError::corrupt("token out of byte range"))
}

/// Per-length canonical decode arrays shared by the table decoder's slow
/// paths: `first_code[len]` / `first_index[len]` into the canonical
/// (length, symbol)-ordered code list, `count[len]` codes per length.
struct Canonical {
    max_len: usize,
    first_code: Vec<u64>,
    first_index: Vec<usize>,
    count: Vec<usize>,
}

impl Canonical {
    fn build(lens: &[(u32, u32)]) -> Self {
        let max_len = lens.last().map(|&(_, l)| l).unwrap_or(0) as usize;
        let mut first_code = vec![0u64; max_len + 2];
        let mut first_index = vec![0usize; max_len + 2];
        let mut count = vec![0usize; max_len + 2];
        for &(_, l) in lens {
            count[l as usize] += 1;
        }
        let mut code = 0u64;
        let mut index = 0usize;
        for len in 1..=max_len {
            code <<= 1;
            first_code[len] = code;
            first_index[len] = index;
            code += count[len] as u64;
            index += count[len];
        }
        Canonical {
            max_len,
            first_code,
            first_index,
            count,
        }
    }
}

/// Compute code lengths by building the Huffman tree over (possibly
/// flattened) frequencies. `shift` right-shifts counts (then +1) to reduce
/// skew when length limiting is needed.
fn build_lengths(used: &[(u32, u64)], shift: u32) -> Vec<(u32, u32)> {
    if used.len() == 1 {
        return vec![(used[0].0, 1)];
    }
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for min-heap; tie-break on id for determinism.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    // children[id] = (left, right); leaves are ids < used.len().
    let mut children: Vec<(usize, usize)> = Vec::with_capacity(used.len());
    let mut heap = BinaryHeap::with_capacity(used.len());
    for (i, &(_, c)) in used.iter().enumerate() {
        let w = if shift == 0 { c } else { (c >> shift) + 1 };
        heap.push(Node { weight: w, id: i });
    }
    let mut next_id = used.len();
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1");
        let b = heap.pop().expect("len > 1");
        children.push((a.id, b.id));
        heap.push(Node {
            weight: a.weight + b.weight,
            id: next_id,
        });
        next_id += 1;
    }
    let root = heap.pop().expect("non-empty").id;
    // Depth-first traversal to get leaf depths.
    let mut lens = vec![0u32; used.len()];
    let mut stack = vec![(root, 0u32)];
    while let Some((id, depth)) = stack.pop() {
        if id < used.len() {
            lens[id] = depth.max(1);
        } else {
            let (l, r) = children[id - used.len()];
            stack.push((l, depth + 1));
            stack.push((r, depth + 1));
        }
    }
    used.iter()
        .enumerate()
        .map(|(i, &(s, _))| (s, lens[i]))
        .collect()
}

/// Alphabets up to this bound are counted with a dense histogram; larger
/// symbols fall back to the map path. Quantization symbols are
/// `< 2·QUANT_RADIUS = 2¹⁶`, well inside the bound.
const DENSE_HISTOGRAM_MAX: usize = 1 << 17;

/// Count symbol frequencies of a sequence into the sparse `(symbol, count)`
/// form [`HuffmanCode::from_frequencies`] expects.
///
/// Dense-histogram fast path: one pass bounds the alphabet, one pass
/// counts into a flat array, and the symbol-ascending sweep yields the
/// same sorted output the map fallback produces.
pub fn count_frequencies<S: Copy + Into<u32>>(symbols: &[S]) -> Vec<(u32, u64)> {
    let max = match symbols.iter().map(|&s| s.into()).max() {
        Some(m) => m,
        None => return Vec::new(),
    };
    if (max as usize) >= DENSE_HISTOGRAM_MAX {
        return count_frequencies_sparse(symbols);
    }
    let mut hist = vec![0u64; max as usize + 1];
    for &s in symbols {
        hist[s.into() as usize] += 1;
    }
    hist.iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(s, &c)| (s as u32, c))
        .collect()
}

/// Map-based frequency count: the general-alphabet fallback and the
/// equivalence oracle of the dense path.
fn count_frequencies_sparse<S: Copy + Into<u32>>(symbols: &[S]) -> Vec<(u32, u64)> {
    let mut map = std::collections::BTreeMap::new();
    for &s in symbols {
        *map.entry(s.into()).or_insert(0u64) += 1;
    }
    map.into_iter().collect()
}

/// The block a symbol stream encodes to — `table ‖ count ‖ byte length ‖
/// bitstream`, or a lone zero table count for the empty stream — sized
/// from the histogram (`Σ len(s)·freq(s)` bits) before the first bit is
/// packed, so callers can write an outer length prefix, or decide against
/// the block, without an intermediate buffer.
pub struct BlockPlan {
    /// `None` for the empty stream.
    code: Option<HuffmanCode>,
    payload_bytes: u64,
}

impl BlockPlan {
    /// Plan the block of a stream from its exact sorted histogram (what
    /// [`count_frequencies`] produces for it).
    pub fn new(freqs: &[(u32, u64)]) -> Self {
        let code = (!freqs.is_empty()).then(|| HuffmanCode::from_frequencies(freqs));
        let len_of = |s| code.as_ref().map_or(0, |c| c.code_len(s)) as u64;
        let total_bits: u64 = freqs.iter().map(|&(s, n)| len_of(s) * n).sum();
        BlockPlan {
            code,
            payload_bytes: total_bits.div_ceil(8),
        }
    }

    /// Bytes [`BlockPlan::write`] appends: 5 per table entry behind a
    /// `u32` count, then two `u64` fields and the bit stream.
    pub fn byte_len(&self) -> u64 {
        self.code.as_ref().map_or(4, |c| {
            4 + 5 * c.lens.len() as u64 + 8 + 8 + self.payload_bytes
        })
    }

    /// Append the block for `symbols`, the stream the plan was built for.
    pub fn write<S: Copy + Into<u32>>(&self, symbols: &[S], w: &mut Writer) {
        let Some(code) = &self.code else {
            return w.put_u32(0);
        };
        code.write_table(w);
        w.put_u64(symbols.len() as u64);
        w.put_u64(self.payload_bytes);
        let before = w.len();
        code.encode_into(symbols, w.buf_mut());
        debug_assert_eq!(
            (w.len() - before) as u64,
            self.payload_bytes,
            "histogram does not match symbol stream"
        );
    }
}

/// Convenience: encode `symbols` as one block.
pub fn encode_with_table(symbols: &[u32]) -> Vec<u8> {
    let mut w = Writer::new();
    BlockPlan::new(&count_frequencies(symbols)).write(symbols, &mut w);
    w.into_bytes()
}

/// Append `w.put_block(&encode_with_table(symbols))`-equivalent bytes
/// without materializing the inner block. `freqs` must be the exact
/// sorted histogram [`count_frequencies`] would produce for `symbols` —
/// callers that histogram while quantizing skip the counting pass.
pub fn encode_block_with_histogram_into(symbols: &[u32], freqs: &[(u32, u64)], w: &mut Writer) {
    let plan = BlockPlan::new(freqs);
    w.put_u64(plan.byte_len());
    plan.write(symbols, w);
}

/// [`encode_block_with_histogram_into`] with the histogram computed here.
pub fn encode_block_into(symbols: &[u32], w: &mut Writer) {
    encode_block_with_histogram_into(symbols, &count_frequencies(symbols), w);
}

/// Inverse of [`encode_with_table`].
pub fn decode_with_table(bytes: &[u8]) -> CodecResult<Vec<u32>> {
    decode_with_table_as(bytes)
}

/// [`decode_with_table`] into the symbol type the caller stores — the twin
/// of the encode side's `S: Into<u32>`: the lossless stage's tokens are
/// bytes and decode straight to bytes.
pub fn decode_with_table_as<S: TryFrom<u32>>(bytes: &[u8]) -> CodecResult<Vec<S>> {
    let mut r = Reader::new(bytes);
    // Peek the symbol count; 0 means the empty-stream marker.
    let n_table = {
        let mut peek = Reader::new(bytes);
        peek.get_u32()?
    };
    if n_table == 0 {
        return Ok(Vec::new());
    }
    let code = HuffmanCode::read_table(&mut r)?;
    let n = r.get_u64()? as usize;
    let payload = r.get_block()?;
    code.decode(payload, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitWriter;

    impl HuffmanCode {
        /// The original per-bit encode loop: the oracle of `encode_into`.
        fn encode_reference(&self, symbols: &[u32]) -> Vec<u8> {
            let mut w = BitWriter::new();
            for &s in symbols {
                let (code, len) = self.encode[s as usize];
                assert!(len > 0, "symbol {s} not in code book");
                w.write_bits(code, len);
            }
            w.into_bytes()
        }
    }

    /// The original buffer-building encode path (map count, per-bit
    /// writer, intermediate payload vector).
    fn encode_with_table_reference(symbols: &[u32]) -> Vec<u8> {
        let mut w = Writer::new();
        if symbols.is_empty() {
            w.put_u32(0);
            return w.into_bytes();
        }
        let freqs = count_frequencies_sparse(symbols);
        let code = HuffmanCode::from_frequencies(&freqs);
        code.write_table(&mut w);
        w.put_u64(symbols.len() as u64);
        w.put_block(&code.encode_reference(symbols));
        w.into_bytes()
    }

    /// [`decode_with_table`] through the bit-by-bit reference decoder.
    fn decode_with_table_reference(bytes: &[u8]) -> CodecResult<Vec<u32>> {
        let mut r = Reader::new(bytes);
        if Reader::new(bytes).get_u32()? == 0 {
            return Ok(Vec::new());
        }
        let code = HuffmanCode::read_table(&mut r)?;
        let n = r.get_u64()? as usize;
        code.decode_reference(r.get_block()?, n)
    }

    fn roundtrip(symbols: &[u32]) {
        let bytes = encode_with_table(symbols);
        let back = decode_with_table(&bytes).expect("decode");
        assert_eq!(back, symbols);
    }

    #[test]
    fn empty_stream() {
        roundtrip(&[]);
    }

    #[test]
    fn single_distinct_symbol() {
        roundtrip(&[42; 1000]);
        // 1000 × 1-bit codes ≈ 125 bytes payload.
        let bytes = encode_with_table(&[42; 1000]);
        assert!(bytes.len() < 160, "single-symbol stream too large");
    }

    #[test]
    fn two_symbols() {
        let mut syms = vec![7u32; 100];
        syms.extend(vec![9u32; 50]);
        roundtrip(&syms);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95 % center symbol → ≈1.3 bits/symbol, far below the 17 bits a
        // flat encoding of 2^16-range codes would need.
        let mut syms = Vec::new();
        for i in 0..10_000u32 {
            syms.push(if i % 20 == 0 { 32768 + (i % 7) } else { 32768 });
        }
        let bytes = encode_with_table(&syms);
        assert!(bytes.len() < 10_000 * 3 / 8 + 200);
        roundtrip(&syms);
    }

    #[test]
    fn many_symbols_roundtrip() {
        // Pseudo-random (LCG) spread over a wide alphabet.
        let mut x = 12345u64;
        let syms: Vec<u32> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) % 4096) as u32
            })
            .collect();
        roundtrip(&syms);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let freqs: Vec<(u32, u64)> = (0..64u32).map(|s| (s, (s as u64 + 1) * 3)).collect();
        let code = HuffmanCode::from_frequencies(&freqs);
        // Kraft sum must be ≤ 1 and codes distinct.
        let mut kraft = 0.0f64;
        let mut seen = std::collections::HashSet::new();
        for &(s, l) in &code.lens {
            kraft += 2f64.powi(-(l as i32));
            let (c, ll) = code.encode[s as usize];
            assert!(seen.insert((c, ll)));
        }
        assert!(kraft <= 1.0 + 1e-9, "kraft {kraft}");
    }

    #[test]
    fn forged_symbol_id_does_not_size_any_table() {
        // Regression: a 1-entry table naming symbol 0xFFFF_FFFF used to
        // allocate a 4-Gi-entry (34 GB) dense encode table on *decode*.
        // Books read from a stream carry no symbol-indexed table at all.
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_u32(u32::MAX);
        w.put_u8(1);
        let table = w.into_bytes();
        let code = HuffmanCode::read_table(&mut Reader::new(&table)).expect("parses");
        assert_eq!(code.lens.len(), 1);
        assert!(code.encode.len() <= code.lens.len());
        // 100 one-bit codes (all zero bits) decode to the forged symbol on
        // both decoders; the bit-flipped stream fails typed on both.
        for n in [5usize, 100] {
            let payload = vec![0u8; n.div_ceil(8)];
            assert_eq!(code.decode::<u32>(&payload, n).unwrap(), vec![u32::MAX; n]);
            assert_eq!(
                code.decode_reference::<u32>(&payload, n).unwrap(),
                vec![u32::MAX; n]
            );
            let bad = vec![0xFFu8; n.div_ceil(8)];
            assert!(code.decode::<u32>(&bad, n).is_err());
        }
    }

    #[test]
    fn truncated_table_errors() {
        let bytes = encode_with_table(&[1, 2, 3, 1, 2, 3]);
        assert!(decode_with_table(&bytes[..3]).is_err());
    }

    /// Deterministic pseudo-random symbol stream over `alphabet` symbols.
    fn lcg_symbols(n: usize, alphabet: u32, seed: u64) -> Vec<u32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) % alphabet as u64) as u32
            })
            .collect()
    }

    /// Skewed stream: mostly one symbol, occasional spread — the shape of
    /// real quantization streams (short hot codes + a long-code tail).
    fn skewed_symbols(n: usize, seed: u64) -> Vec<u32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let r = x >> 33;
                if r % 100 < 90 {
                    32768
                } else {
                    32768 + (r % 4096) as u32
                }
            })
            .collect()
    }

    #[test]
    fn encode_into_matches_reference() {
        for syms in [
            lcg_symbols(5000, 4096, 1),
            skewed_symbols(5000, 2),
            vec![7u32; 300],
            vec![3u32],
        ] {
            let freqs = count_frequencies(&syms);
            let code = HuffmanCode::from_frequencies(&freqs);
            let mut fast = Vec::new();
            code.encode_into(&syms, &mut fast);
            assert_eq!(fast, code.encode_reference(&syms));
        }
    }

    #[test]
    fn count_frequencies_matches_reference() {
        for syms in [
            lcg_symbols(5000, 4096, 3),
            skewed_symbols(2000, 4),
            Vec::new(),
            vec![0u32; 10],
            // Huge symbols force the map fallback.
            vec![u32::MAX, 5, u32::MAX, 0],
        ] {
            assert_eq!(count_frequencies(&syms), count_frequencies_sparse(&syms));
        }
    }

    #[test]
    fn table_decode_matches_reference() {
        for syms in [
            lcg_symbols(10_000, 4096, 5),
            lcg_symbols(10_000, 65536, 6), // wide alphabet → long codes
            skewed_symbols(10_000, 7),
            lcg_symbols(100, 17, 8), // near the table-build threshold
            vec![42u32; 1000],
        ] {
            let bytes = encode_with_table(&syms);
            assert_eq!(decode_with_table(&bytes).expect("decode"), syms);
            assert_eq!(decode_with_table_reference(&bytes).expect("ref"), syms);
        }
    }

    /// The table decoder against the bit-by-bit walk on the same bytes and
    /// count: the same symbols, or the same error — variant and text.
    fn assert_parity(code: &HuffmanCode, bytes: &[u8], n: usize, what: &str) {
        let fast = code.decode::<u32>(bytes, n);
        let slow = code.decode_reference::<u32>(bytes, n);
        assert_eq!(fast, slow, "{what}");
    }

    /// A book, and its encoding of a stream.
    fn coded(syms: &[u32]) -> (HuffmanCode, Vec<u8>) {
        let code = HuffmanCode::from_frequencies(&count_frequencies(syms));
        let mut payload = Vec::new();
        code.encode_into(syms, &mut payload);
        (code, payload)
    }

    #[test]
    fn table_decode_error_parity_on_damage() {
        // Truncations and bit flips must produce the same outcome as the
        // reference decoder (zero padding can legitimately decode, so "is
        // error" alone is not enough — compare both ways). Both streams
        // are long enough for the word-refill phase; the wide alphabet
        // adds codes the table misses.
        for syms in [skewed_symbols(3000, 9), lcg_symbols(3000, 65536, 10)] {
            let (code, payload) = coded(&syms);
            for cut in (0..payload.len()).step_by(7) {
                assert_parity(&code, &payload[..cut], syms.len(), &format!("cut={cut}"));
            }
            let mut flipped = payload.clone();
            for i in (0..flipped.len()).step_by(11) {
                flipped[i] ^= 0x40;
                assert_parity(&code, &flipped, syms.len(), &format!("flip={i}"));
                flipped[i] ^= 0x40;
            }
        }
    }

    #[test]
    fn word_refill_parity_on_short_payloads_and_odd_counts() {
        // The fast phase needs 8 stream bytes and a whole group of
        // symbols (4 at 12 table bits, 56 under the one-symbol book's
        // 1-bit table): payloads of 0–17 bytes sit either side of the
        // first test, the counts either side of the second and of the
        // 64-symbol table threshold. Most of these fail — equally.
        let books = [
            coded(&skewed_symbols(4000, 21)),
            coded(&lcg_symbols(4000, 17, 22)),
            (fibonacci_book(33), vec![0x55; 64]),
            coded(&[9; 4000]),
        ];
        for (b, (code, payload)) in books.iter().enumerate() {
            for len in 0..=17 {
                for n in [1, 63, 64, 65, 66, 67, 8 * len, 8 * len + 1] {
                    assert_parity(
                        code,
                        &payload[..len],
                        n,
                        &format!("book {b}: {len} B × {n}"),
                    );
                }
            }
        }
        // Whole streams of every count mod 4, decoded to the last symbol.
        for n in [63usize, 64, 65, 66, 67, 1001, 1002, 1003, 1004] {
            for syms in [skewed_symbols(n, n as u64), lcg_symbols(n, 300, n as u64)] {
                let (code, payload) = coded(&syms);
                assert_eq!(code.decode::<u32>(&payload, n).unwrap(), syms, "n={n}");
                assert_parity(&code, &payload, n, &format!("n={n}"));
                assert_parity(&code, &payload, n - 1, &format!("n={n}, one short"));
            }
        }
    }

    #[test]
    fn table_miss_lands_on_every_slot_of_a_refill_group() {
        // Fibonacci weights: a 1-bit code and codes of every length up to
        // 32, so lengths 13–32 miss the 12-bit table. A group restarts
        // after each miss, so `slot` one-bit symbols before every long one
        // put the miss on that slot of its group, at every bit phase.
        let code = fibonacci_book(33);
        let short = code.lens[0].0;
        assert_eq!(code.lens[0].1, 1, "the heaviest symbol has the 1-bit code");
        let long: Vec<u32> = code
            .lens
            .iter()
            .filter(|&&(_, l)| l > DECODE_TABLE_BITS)
            .map(|&(s, _)| s)
            .collect();
        assert_eq!(long.len(), 21, "lengths 13..=32, the last one twice");
        for slot in 0..4 {
            let mut syms = Vec::new();
            for rep in 0..3 {
                for &l in &long {
                    syms.extend(std::iter::repeat_n(short, slot));
                    syms.push(l);
                    // Back-to-back misses too.
                    syms.extend(std::iter::repeat_n(l, rep));
                }
            }
            syms.extend(std::iter::repeat_n(short, 70));
            let mut payload = Vec::new();
            code.encode_into(&syms, &mut payload);
            assert_eq!(
                code.decode::<u32>(&payload, syms.len()).unwrap(),
                syms,
                "slot {slot}"
            );
            for cut in 0..payload.len() {
                assert_parity(
                    &code,
                    &payload[..cut],
                    syms.len(),
                    &format!("slot {slot} cut {cut}"),
                );
            }
        }
    }

    #[test]
    fn every_truncation_of_a_4k_stream_matches_the_reference() {
        let syms = skewed_symbols(16_200, 31);
        let (code, payload) = coded(&syms);
        assert!((4096..4400).contains(&payload.len()), "{} B", payload.len());
        assert_eq!(code.decode::<u32>(&payload, syms.len()).unwrap(), syms);
        for cut in 0..payload.len() {
            assert_parity(&code, &payload[..cut], syms.len(), &format!("cut={cut}"));
            // A count the shortened stream can back: how far it gets, and
            // what it says there, is the reference's.
            assert_parity(
                &code,
                &payload[..cut],
                cut,
                &format!("cut={cut}, count {cut}"),
            );
        }
    }

    #[test]
    fn symbol_above_a_byte_decodes_wide_and_is_corrupt_narrow() {
        // Both decoders, both sides of the 64-symbol table threshold.
        let bad_token = Err(CodecError::corrupt("token out of byte range"));
        for n in [10usize, 500] {
            let mut syms: Vec<u32> = (0..n).map(|i| 65 + (i % 3) as u32).collect();
            let (code, payload) = coded(&syms);
            let bytes: Vec<u8> = syms.iter().map(|&s| s as u8).collect();
            assert_eq!(code.decode::<u8>(&payload, n), Ok(bytes.clone()));
            assert_eq!(code.decode_reference::<u8>(&payload, n), Ok(bytes));
            syms[n / 2] = 256;
            let (code, payload) = coded(&syms);
            assert_eq!(code.decode::<u32>(&payload, n).as_ref(), Ok(&syms));
            assert_eq!(code.decode::<u8>(&payload, n), bad_token);
            assert_eq!(code.decode_reference::<u8>(&payload, n), bad_token);
            assert_eq!(
                decode_with_table(&encode_with_table(&syms)),
                Ok(syms.clone())
            );
            assert_eq!(
                decode_with_table_as::<u8>(&encode_with_table(&syms)),
                bad_token
            );
        }
    }

    #[test]
    fn block_emit_matches_put_block() {
        for syms in [
            skewed_symbols(3000, 12),
            lcg_symbols(500, 9, 13),
            Vec::new(),
        ] {
            let mut a = Writer::new();
            encode_block_into(&syms, &mut a);
            let mut b = Writer::new();
            b.put_block(&encode_with_table_reference(&syms));
            assert_eq!(a.into_bytes(), b.into_bytes());
        }
    }

    #[test]
    fn fused_histogram_encode_matches() {
        let syms = skewed_symbols(4000, 10);
        let mut w = Writer::new();
        BlockPlan::new(&count_frequencies(&syms)).write(&syms, &mut w);
        assert_eq!(w.into_bytes(), encode_with_table_reference(&syms));
        assert_eq!(encode_with_table(&syms), encode_with_table_reference(&syms));
        assert_eq!(
            encode_with_table(&[]),
            encode_with_table_reference(&[]),
            "empty marker"
        );
        // Byte tokens code exactly like the same values widened.
        let bytes: Vec<u8> = syms.iter().map(|&s| (s % 251) as u8).collect();
        let wide: Vec<u32> = bytes.iter().map(|&b| b as u32).collect();
        let mut w = Writer::new();
        BlockPlan::new(&count_frequencies(&bytes)).write(&bytes, &mut w);
        assert_eq!(w.into_bytes(), encode_with_table_reference(&wide));
    }

    /// A book whose symbol `i` has weight Fibonacci(i): the most skewed
    /// tree there is, with codes up to `n − 1` bits long.
    fn fibonacci_book(n: u32) -> HuffmanCode {
        let (mut a, mut b) = (1u64, 1u64);
        let freqs: Vec<(u32, u64)> = (0..n)
            .map(|s| {
                let f = a;
                (a, b) = (b, a + b);
                (s, f)
            })
            .collect();
        HuffmanCode::from_frequencies(&freqs)
    }

    #[test]
    fn word_flush_matches_per_bit_oracle_at_the_longest_codes() {
        // 31 / 32 / 33 Fibonacci weights ⇒ longest codes of 30 / 31 / 32
        // bits: the add that puts 32 bits on top of 31 pending ones is the
        // accumulator's worst case.
        for n in [31u32, 32, 33] {
            let code = fibonacci_book(n);
            let longest = code.lens.iter().map(|&(_, l)| l).max().unwrap();
            assert_eq!(longest, n - 1, "fibonacci tree depth");
            // Every phase of the accumulator: runs of the two rarest
            // symbols (longest codes) broken up by 1-, 2- and 3-bit ones.
            let mut syms = Vec::new();
            for i in 0..400u32 {
                syms.push(i % 2);
                syms.extend((0..i % 7).map(|k| n - 1 - k % 3));
                syms.push(lcg_symbols(1, n, i as u64)[0]);
            }
            let mut fast = vec![0xEE];
            code.encode_into(&syms, &mut fast);
            assert_eq!(fast[0], 0xEE, "appends");
            assert_eq!(&fast[1..], code.encode_reference(&syms), "n={n}");
            assert_eq!(code.decode::<u32>(&fast[1..], syms.len()).unwrap(), syms);
        }
    }

    #[test]
    fn word_flush_matches_per_bit_oracle_at_block_edges() {
        // 256 equally likely symbols ⇒ 8-bit codes, so 1024 symbols fill
        // the 1024-byte stack block exactly; the counts straddle that
        // edge, the empty stream and four blocks plus one byte. The
        // single-symbol book (1-bit codes) leaves 1–7 tail bits at every
        // count; the Fibonacci book mixes lengths.
        let flat: Vec<(u32, u64)> = (0..256).map(|s| (s, 1)).collect();
        let books = [
            HuffmanCode::from_frequencies(&flat),
            HuffmanCode::from_frequencies(&[(9, 5)]),
            fibonacci_book(20),
        ];
        for (b, code) in books.iter().enumerate() {
            let alphabet: Vec<u32> = code.lens.iter().map(|&(s, _)| s).collect();
            for count in [0usize, 1, 1023, 1024, 1025, 4097] {
                let syms: Vec<u32> = lcg_symbols(count, alphabet.len() as u32, count as u64)
                    .iter()
                    .map(|&i| alphabet[i as usize])
                    .collect();
                let mut fast = Vec::new();
                code.encode_into(&syms, &mut fast);
                assert_eq!(fast, code.encode_reference(&syms), "book {b} × {count}");
                assert_eq!(
                    code.decode::<u32>(&fast, count).unwrap(),
                    syms,
                    "book {b} × {count}"
                );
                if b == 0 {
                    assert_eq!(fast.len(), count, "8-bit codes");
                }
            }
        }
    }
}
