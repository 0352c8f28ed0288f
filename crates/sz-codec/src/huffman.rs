//! Canonical Huffman coding over `u32` symbols.
//!
//! SZ encodes error-quantization codes (≈2¹⁶ possible bins) with a
//! customized Huffman coder; this is the equivalent. Codes are canonical so
//! the table serializes as (symbol, length) pairs and decoding needs only
//! per-length first-code offsets.

use crate::wire::{CodecError, CodecResult, Reader, Writer};
use std::collections::BinaryHeap;

/// Maximum admitted code length. Frequencies are flattened and the tree is
/// rebuilt if a longer code appears (pathological skew).
const MAX_CODE_LEN: u32 = 32;

/// Width of the decode table: one slot per value of the next 12 peeked
/// bits. The slot's meta byte (4 KiB for the table) is the only load on
/// the bit chain; its symbols (`SLOT_SYMBOLS` of the caller's type each)
/// are copied out beside it. Codes longer than the window are read from
/// the bit buffer against per-length canonical limits.
const DECODE_TABLE_BITS: u32 = 12;

/// Most whole codes one slot yields.
const SLOT_SYMBOLS: usize = 4;

/// The mode rule, in whole codes per 16 slots: slots hold several codes
/// only when, every window equally likely (the code's own model), a
/// lookup would yield at least this many / 16 of them on average.
const SEVERAL_MIN_PER_16_SLOTS: usize = 24;

/// Below this symbol count the lookup-table build costs more than it
/// saves; decode runs without the table, every symbol a one-symbol step.
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
    pub fn code_len(&self, sym: u32) -> u32 {
        self.encode.get(sym as usize).map(|&(_, l)| l).unwrap_or(0)
    }

    /// Decode `parts` into one run of the symbol type the caller stores; a
    /// symbol that does not fit it is corrupt. A part `(bytes, skip, n)`
    /// is a bit stream of exactly `n` symbols that starts `skip` (< 8) bits
    /// into `bytes`. A block is one part from bit 0; a stream cut into
    /// groups that may be read alone passes the groups it wants, and they
    /// share one table.
    ///
    /// One loop for every block. From `DECODE_TABLE_MIN_SYMBOLS` symbols
    /// on it builds a table: the next 12 peeked bits select a slot holding
    /// every whole code they start with (up to four, or one when the mode
    /// rule says several do not pay), taken with one lookup. Anything else
    /// — every symbol of a shorter block, a code longer than the window, a
    /// symbol that does not fit `S`, the last bytes and the last symbols —
    /// takes the one-symbol step, which finds the code length by comparing
    /// the buffered bits with the canonical limits and, short of bits,
    /// fails with the error the bit-by-bit canonical walk meets there.
    /// Both resolve the unique code that walk finds, so results, typed
    /// errors included, are the walk's.
    pub fn decode<S: TryFrom<u32> + Copy + Default>(
        &self,
        parts: &[(&[u8], u32, usize)],
    ) -> CodecResult<Vec<S>> {
        // Every symbol costs at least one bit, so a count beyond the bits
        // of a part can only come from a corrupted header.
        for &(bytes, skip, n) in parts {
            let bits = (bytes.len() as u128 * 8).saturating_sub(skip as u128);
            if skip >= 8 || n as u128 > bits {
                return Err(CodecError::LimitExceeded {
                    what: "symbol count",
                    claimed: n as u128,
                    available: bits,
                });
            }
        }
        // At most 8 symbols per byte of parts that exist: no overflow.
        let n: usize = parts.iter().map(|&(_, _, n)| n).sum();
        let canon = Canonical::build(&self.lens);
        let slots = (n >= DECODE_TABLE_MIN_SYMBOLS).then(|| Slots::<S>::build(&self.lens, &canon));
        let per_slot = match &slots {
            Some(slots) if slots.several => SLOT_SYMBOLS,
            _ => 1,
        };
        // A slot is copied whole and `o` advanced by its count, so `out`
        // has `SLOT_SYMBOLS − 1` spare symbols past the last one.
        let mut out = vec![S::default(); n + SLOT_SYMBOLS - 1];
        let mut o = 0;
        for &(bytes, skip, part) in parts {
            // Symbols up to `n` are this part's; a slot copied whole may
            // spill into the next part's, which its own decode overwrites.
            let n = o + part;
            // Persistent bit buffer: the next unconsumed bits sit left-aligned
            // in `buf`, `nbits` of them counted, the byte after them at
            // `byte_pos`. Whatever `buf` holds below the counted bits is zero
            // or the stream bits that follow them, so a refill may OR bits in
            // that are already there. A part that starts inside its first
            // byte counts that byte's last `8 − skip` bits.
            let mut buf: u64 = 0;
            let mut nbits: u32 = 0;
            let mut byte_pos = 0usize;
            if let (1..8, Some(&first)) = (skip, bytes.first()) {
                buf = (first as u64) << (56 + skip);
                nbits = 8 - skip;
                byte_pos = 1;
            }
            while o < n {
                if let Some(word) = bytes.get(byte_pos..byte_pos + 8) {
                    // Word refill. `nbits ≤ 63` here (a symbol has been taken
                    // since any byte refill to 64), and the word supplies whole
                    // bytes up to 56–63 counted bits:
                    // `nbits + 8·((63 − nbits) >> 3) = nbits | 56`.
                    buf |= u64::from_be_bytes(word.try_into().expect("8 bytes")) >> nbits;
                    byte_pos += ((63 - nbits) >> 3) as usize;
                    nbits |= 56;
                    // Fast phase, with a table: a group of lookups with no
                    // refill test between them, while a whole group of
                    // symbols remains. It stops at a slot without a whole
                    // code of type `S`; after a refill that slot takes the
                    // one-symbol step.
                    if let Some(slots) = slots.as_ref().filter(|s| n - o >= s.group * per_slot) {
                        let mut hits = 0;
                        while hits < slots.group {
                            let slot = (buf >> (64 - DECODE_TABLE_BITS)) as usize;
                            let meta = slots.meta[slot];
                            if meta < 16 {
                                break;
                            }
                            out[o..o + SLOT_SYMBOLS].copy_from_slice(&slots.syms[slot]);
                            o += (meta >> 4) as usize;
                            buf <<= meta & 15;
                            nbits -= (meta & 15) as u32;
                            hits += 1;
                        }
                        if hits > 0 {
                            continue;
                        }
                    }
                } else {
                    // The last bytes, one at a time: then either > 56 bits
                    // are counted or all that remain are.
                    while nbits <= 56 && byte_pos < bytes.len() {
                        buf |= (bytes[byte_pos] as u64) << (56 - nbits);
                        nbits += 8;
                        byte_pos += 1;
                    }
                }
                // One symbol: any symbol without a table, else a code longer
                // than the window or not of type `S`, the last bytes, the
                // last symbols. Its length is the smallest whose canonical
                // limit the left-aligned bits are below (the limits never
                // decrease, so that is one count), looked for from where the
                // slot's own entry leaves off, or from length 1.
                let slot = (buf >> (64 - DECODE_TABLE_BITS)) as usize;
                let from = match slots.as_ref().map(|slots| slots.meta[slot]) {
                    Some(0) => DECODE_TABLE_BITS as usize + 1,
                    Some(meta @ 1..16) => meta as usize,
                    _ => 1,
                };
                let top = buf >> 32;
                let len = from + canon.limit.iter().skip(from).filter(|&&l| top >= l).count();
                // No code within the counted bits: if they are the last ones
                // and no more than the longest code, the walk runs out first.
                if len > canon.max_len || len > nbits as usize {
                    return Err(CodecError::corrupt(if nbits as usize <= canon.max_len {
                        "huffman stream exhausted"
                    } else {
                        "invalid huffman code"
                    }));
                }
                let rel = (top >> (32 - len)) - canon.first_code[len];
                out[o] = narrow(self.lens[canon.first_index[len] + rel as usize].0)?;
                o += 1;
                buf <<= len;
                nbits -= len as u32;
            }
        }
        out.truncate(n);
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

/// Per-length canonical decode arrays: `first_code[len]` /
/// `first_index[len]` into the canonical (length, symbol)-ordered code
/// list, `count[len]` codes per length.
///
/// `limit[len]` is `first_code[len] + count[len]` left-aligned in 32 bits.
/// The reference walk stops at the first length whose code is below that
/// sum (a code that is not is ≥ the next length's `first_code` once
/// doubled), and the limits never decrease, so a code's length is the
/// smallest whose limit the next 32 stream bits are below — on any book,
/// over-subscribed ones included.
struct Canonical {
    max_len: usize,
    first_code: Vec<u64>,
    first_index: Vec<usize>,
    count: Vec<usize>,
    limit: Vec<u64>,
}

impl Canonical {
    fn build(lens: &[(u32, u32)]) -> Self {
        let max_len = lens.last().map(|&(_, l)| l).unwrap_or(0) as usize;
        let mut first_code = vec![0u64; max_len + 2];
        let mut first_index = vec![0usize; max_len + 2];
        let mut count = vec![0usize; max_len + 2];
        let mut limit = vec![0u64; max_len + 1];
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
            // < 2³² entries, so code < 2^(len + 32) and this cannot wrap.
            limit[len] = code << (32 - len);
        }
        Canonical {
            max_len,
            first_code,
            first_index,
            count,
            limit,
        }
    }
}

/// The table of [`HuffmanCode::decode`], built per call from the book.
struct Slots<S> {
    /// Per window: `count << 4 | bits` of the whole codes its slot holds;
    /// count 0 sends the lookup to the one-symbol step, with the length of
    /// a code the window starts with that does not fit `S` in `bits`, or
    /// 0 when its code is longer than the window.
    meta: Box<[u8; 1 << DECODE_TABLE_BITS]>,
    /// Per window: its codes' symbols, narrowed; lanes past count unused.
    syms: Box<[[S; SLOT_SYMBOLS]; 1 << DECODE_TABLE_BITS]>,
    /// The mode rule's verdict: slots hold several codes, or one.
    several: bool,
    /// Lookups a word refill feeds: it leaves ≥ 56 counted bits, and no
    /// slot takes more than the widest.
    group: usize,
}

impl<S: TryFrom<u32> + Copy + Default> Slots<S> {
    fn build(lens: &[(u32, u32)], canon: &Canonical) -> Self {
        const TB: usize = DECODE_TABLE_BITS as usize;
        // One code per slot first: each code of ≤ TB bits fills the
        // windows it starts (canonical order gives each its own range);
        // `placed[len]` counts the codes that got windows.
        let mut meta = Box::new([0u8; 1 << TB]);
        let mut syms = Box::new([[S::default(); SLOT_SYMBOLS]; 1 << TB]);
        let mut placed = [0u64; TB + 1];
        for len in 1..=TB.min(canon.max_len) {
            for i in 0..canon.count[len] {
                let code = (canon.first_code[len] + i as u64) as usize;
                // An over-subscribed book assigns codes past `len` bits:
                // no window starts with those.
                if code >> len != 0 {
                    break;
                }
                placed[len] += 1;
                let windows = code << (TB - len)..(code + 1) << (TB - len);
                let (m, sym) = match S::try_from(lens[canon.first_index[len] + i].0) {
                    Ok(sym) => (1 << 4 | len as u8, sym),
                    Err(_) => (len as u8, S::default()),
                };
                meta[windows.clone()].fill(m);
                for slot in &mut syms[windows] {
                    slot[0] = sym;
                }
            }
        }
        let several = whole_codes(&placed) * 16 >= (SEVERAL_MIN_PER_16_SLOTS << TB) as u64;
        // Several codes per slot: lane k takes the one-code entry (lane 0)
        // of the window after the codes before it, counted while the codes
        // are whole and fit `S`. `ends[k]`: bits before lane k. Past the
        // slot's end the lanes read on unchecked (a branch there costs
        // more than the reads), and nothing of them is kept.
        let mut multi = meta.clone();
        if several {
            for w in 0..1 << TB {
                let (mut ends, mut taken, mut whole) = ([0u8; SLOT_SYMBOLS + 1], 0, true);
                for k in 0..SLOT_SYMBOLS {
                    let next = (w << ends[k]) & ((1 << TB) - 1);
                    ends[k + 1] = ends[k] + (meta[next] & 15);
                    whole &= (meta[next] >= 16) & (ends[k + 1] as usize <= TB);
                    syms[w][k] = syms[next][0];
                    taken += whole as usize;
                }
                if taken > 0 {
                    multi[w] = (taken << 4) as u8 | ends[taken];
                }
            }
        }
        let widest = multi.iter().filter(|&&m| m >= 16).map(|&m| m & 15).max();
        Slots {
            meta: multi,
            syms,
            several,
            group: 56 / widest.unwrap_or(1) as usize,
        }
    }
}

/// The whole codes of all slots together, at most `SLOT_SYMBOLS` per slot,
/// from the code lengths alone: `placed[len]` codes of each length start
/// some window. `ways[s]` windows start with k whole codes of s bits in
/// all; each code of length l takes 2^−l of the windows that reach it.
fn whole_codes(placed: &[u64; DECODE_TABLE_BITS as usize + 1]) -> u64 {
    let mut ways = [0u64; DECODE_TABLE_BITS as usize + 1];
    ways[0] = 1 << DECODE_TABLE_BITS;
    let mut whole = 0;
    for _ in 0..SLOT_SYMBOLS {
        let mut next = [0u64; DECODE_TABLE_BITS as usize + 1];
        for (s, n) in next.iter_mut().enumerate() {
            *n = (1..=s).map(|l| (ways[s - l] >> l) * placed[l]).sum();
        }
        whole += next.iter().sum::<u64>();
        ways = next;
    }
    whole
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
pub fn decode_with_table_as<S: TryFrom<u32> + Copy + Default>(bytes: &[u8]) -> CodecResult<Vec<S>> {
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
    code.decode(&[(payload, 0, n)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::{BitReader, BitWriter};

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

        /// The bit-by-bit canonical walk over the bits of `bytes` after
        /// the first `skip`: the oracle of `decode` on one part.
        pub(crate) fn decode_reference<S: TryFrom<u32>>(
            &self,
            bytes: &[u8],
            skip: u32,
            n: usize,
        ) -> CodecResult<Vec<S>> {
            let bits = (bytes.len() as u128 * 8).saturating_sub(skip as u128);
            if skip >= 8 || n as u128 > bits {
                return Err(CodecError::LimitExceeded {
                    what: "symbol count",
                    claimed: n as u128,
                    available: bits,
                });
            }
            let Canonical {
                max_len,
                first_code,
                first_index,
                count,
                ..
            } = Canonical::build(&self.lens);
            let mut out = Vec::with_capacity(n);
            let mut r = BitReader::new(bytes);
            (0..skip).for_each(|_| _ = r.read_bit());
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
                    if len > max_len {
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
        code.decode_reference(r.get_block()?, 0, n)
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
            assert_eq!(
                code.decode::<u32>(&[(&payload, 0, n)]).unwrap(),
                vec![u32::MAX; n]
            );
            assert_eq!(
                code.decode_reference::<u32>(&payload, 0, n).unwrap(),
                vec![u32::MAX; n]
            );
            let bad = vec![0xFFu8; n.div_ceil(8)];
            assert!(code.decode::<u32>(&[(&bad, 0, n)]).is_err());
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
        let fast = code.decode::<u32>(&[(bytes, 0, n)]);
        let slow = code.decode_reference::<u32>(bytes, 0, n);
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
    fn parts_decode_as_the_walk_over_each_part() {
        // One stream cut into groups of 1–70 symbols at bit offsets (part
        // ends before, inside and after the fast phase's reach): any
        // selection of them, damaged or not, decodes to the walk over each
        // part in turn, or fails as the first failing walk does.
        for (b, syms) in [skewed_symbols(3000, 31), lcg_symbols(3000, 65536, 32)]
            .into_iter()
            .enumerate()
        {
            let (code, payload) = coded(&syms);
            let mut groups = Vec::new();
            let (mut at, mut bit) = (0, 0u64);
            for len in (1..=70).cycle() {
                if at >= syms.len() {
                    break;
                }
                let group = &syms[at..syms.len().min(at + len)];
                let bits: u64 = group.iter().map(|&s| code.code_len(s) as u64).sum();
                groups.push((bit, bit + bits, group.len()));
                (at, bit) = (at + group.len(), bit + bits);
            }
            let part = |&(from, to, n): &(u64, u64, usize)| {
                let bytes = &payload[(from / 8) as usize..to.div_ceil(8) as usize];
                (bytes, (from % 8) as u32, n)
            };
            let walk = |parts: &[(&[u8], u32, usize)]| -> CodecResult<Vec<u32>> {
                let mut out = Vec::new();
                for &(bytes, skip, n) in parts {
                    out.extend(code.decode_reference::<u32>(bytes, skip, n)?);
                }
                Ok(out)
            };
            let all: Vec<_> = groups.iter().map(part).collect();
            assert!(all.iter().any(|&(_, skip, _)| skip > 0));
            assert_eq!(code.decode::<u32>(&all).as_ref(), Ok(&syms), "book {b}");
            let every_other: Vec<_> = all.iter().copied().step_by(2).collect();
            assert_eq!(code.decode(&every_other), walk(&every_other), "book {b}");
            assert_eq!(code.decode::<u32>(&[]), Ok(Vec::new()));
            // A part one symbol short or long, a part cut, a bit flipped.
            for at in (0..all.len()).step_by(5) {
                let mut parts = all.clone();
                let (bytes, skip, n) = all[at];
                for edit in [
                    (bytes, skip, n + 1),
                    (bytes, skip, n - 1),
                    (&bytes[..bytes.len() / 2], skip, n),
                ] {
                    parts[at] = edit;
                    let what = format!("book {b}, part {at}, {edit:?}");
                    assert_eq!(code.decode(&parts), walk(&parts), "{what}");
                }
                let mut flipped = bytes.to_vec();
                flipped[0] ^= 0x80 >> skip;
                parts[at] = (&flipped, skip, n);
                assert_eq!(
                    code.decode(&parts),
                    walk(&parts),
                    "book {b}, part {at} flipped"
                );
            }
        }
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
                assert_eq!(
                    code.decode::<u32>(&[(&payload, 0, n)]).unwrap(),
                    syms,
                    "n={n}"
                );
                assert_parity(&code, &payload, n, &format!("n={n}"));
                assert_parity(&code, &payload, n - 1, &format!("n={n}, one short"));
            }
        }
        // Blocks of 1..=65 symbols, below the table's threshold and just
        // past it, under the one-bit book, a Fibonacci book (codes up to
        // 19 bits), a byte book holding 300, and an over-subscribed forged
        // book: every truncation and every bit flip, as `u32` and as `u8`.
        let bytes_and_300: Vec<(u32, u64)> = (0..256)
            .map(|s| (s, 1 + s as u64 % 7))
            .chain([(300, 40)])
            .collect();
        let short_books = [
            book_of_lengths(&[1]),
            fibonacci_book(20),
            HuffmanCode::from_frequencies(&bytes_and_300),
            book_of_lengths(&[1, 1, 2, 2, 5]),
        ];
        for (b, code) in short_books.iter().enumerate() {
            let forged = b == 3;
            for n in 1..=65usize {
                // The book's symbols in a stride-7 cycle, so every length
                // (and 300) turns up across the counts; the forged book
                // encodes nothing, so its stream is seeded bytes.
                let mut bytes = if forged {
                    lcg_symbols(n.div_ceil(2), 256, n as u64)
                        .iter()
                        .map(|&r| r as u8)
                        .collect()
                } else {
                    let syms: Vec<u32> = (0..n)
                        .map(|i| code.lens[(7 * i + n) % code.lens.len()].0)
                        .collect();
                    let bytes = payload(code, &syms);
                    assert_eq!(code.decode::<u32>(&[(&bytes, 0, n)]).as_ref(), Ok(&syms));
                    bytes
                };
                for cut in 0..bytes.len() {
                    let what = format!("book {b}: {n} symbols, cut {cut}");
                    assert_parity_both_widths(code, &bytes[..cut], n, &what);
                }
                for bit in 0..bytes.len() * 8 {
                    bytes[bit / 8] ^= 0x80 >> (bit % 8);
                    let what = format!("book {b}: {n} symbols, flip {bit}");
                    assert_parity_both_widths(code, &bytes, n, &what);
                    bytes[bit / 8] ^= 0x80 >> (bit % 8);
                }
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
                code.decode::<u32>(&[(&payload, 0, syms.len())]).unwrap(),
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
        assert_eq!(
            code.decode::<u32>(&[(&payload, 0, syms.len())]).unwrap(),
            syms
        );
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
            assert_eq!(code.decode::<u8>(&[(&payload, 0, n)]), Ok(bytes.clone()));
            assert_eq!(code.decode_reference::<u8>(&payload, 0, n), Ok(bytes));
            syms[n / 2] = 256;
            let (code, payload) = coded(&syms);
            assert_eq!(code.decode::<u32>(&[(&payload, 0, n)]).as_ref(), Ok(&syms));
            assert_eq!(code.decode::<u8>(&[(&payload, 0, n)]), bad_token);
            assert_eq!(code.decode_reference::<u8>(&payload, 0, n), bad_token);
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
            assert_eq!(
                code.decode::<u32>(&[(&fast[1..], 0, syms.len())]).unwrap(),
                syms
            );
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
                    code.decode::<u32>(&[(&fast, 0, count)]).unwrap(),
                    syms,
                    "book {b} × {count}"
                );
                if b == 0 {
                    assert_eq!(fast.len(), count, "8-bit codes");
                }
            }
        }
    }

    /// An encodable book with the given code lengths, symbols from 0 in
    /// canonical order.
    fn book_of_lengths(lens: &[u32]) -> HuffmanCode {
        let mut code = HuffmanCode::from_lengths(
            lens.iter()
                .enumerate()
                .map(|(s, &l)| (s as u32, l))
                .collect(),
        );
        code.build_encode_table();
        code
    }

    /// A complete book: one code of each length in `short`, then as many
    /// codes of `long` bits as fill the code space.
    fn filled_book(short: &[u32], long: u32) -> HuffmanCode {
        let used: u64 = short.iter().map(|&l| 1u64 << (long - l)).sum();
        let mut lens = short.to_vec();
        lens.extend(std::iter::repeat_n(long, ((1u64 << long) - used) as usize));
        book_of_lengths(&lens)
    }

    fn payload(code: &HuffmanCode, syms: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        code.encode_into(syms, &mut out);
        out
    }

    /// Both decoders as `u32` and as `u8`: the same symbols, or the same
    /// error, on `bytes` read as `n` symbols.
    fn assert_parity_both_widths(code: &HuffmanCode, bytes: &[u8], n: usize, what: &str) {
        assert_parity(code, bytes, n, what);
        assert_eq!(
            code.decode::<u8>(&[(bytes, 0, n)]),
            code.decode_reference::<u8>(bytes, 0, n),
            "{what} as u8"
        );
    }

    /// [`assert_parity`] on every `step`-th truncation of `bytes`, and on
    /// `bytes` with every `step`-th bit flipped.
    fn assert_parity_when_damaged(code: &HuffmanCode, bytes: &[u8], n: usize, step: usize) {
        for cut in (0..bytes.len()).step_by(step) {
            assert_parity(code, &bytes[..cut], n, &format!("cut {cut}"));
        }
        let mut flipped = bytes.to_vec();
        for bit in (0..bytes.len() * 8).step_by(step) {
            flipped[bit / 8] ^= 0x80 >> (bit % 8);
            assert_parity(code, &flipped, n, &format!("flip {bit}"));
            flipped[bit / 8] ^= 0x80 >> (bit % 8);
        }
    }

    fn several<S: TryFrom<u32> + Copy + Default>(code: &HuffmanCode) -> bool {
        Slots::<S>::build(&code.lens, &Canonical::build(&code.lens)).several
    }

    #[test]
    fn one_bit_books_decode_like_the_reference() {
        // One symbol (code `0`, and `1` is no code at all: under the
        // uniform-window model half the slots are empty, so one code a
        // slot), and two symbols of one bit each (12 codes a slot, capped).
        for code in [book_of_lengths(&[1]), book_of_lengths(&[1, 1])] {
            assert_eq!(several::<u32>(&code), code.lens.len() == 2);
            let alphabet = code.lens.len() as u32;
            let syms = lcg_symbols(1200, alphabet, 40);
            let bytes = payload(&code, &syms);
            assert_eq!(
                code.decode::<u32>(&[(&bytes, 0, syms.len())]).unwrap(),
                syms
            );
            assert_parity_when_damaged(&code, &bytes, syms.len(), 1);
            for cut in 0..bytes.len() {
                for n in [8 * cut, 8 * cut + 1] {
                    assert_parity_both_widths(&code, &bytes[..cut], n, &format!("cut {cut} × {n}"));
                }
            }
        }
    }

    #[test]
    fn codes_exactly_as_wide_as_the_table_decode_like_the_reference() {
        // Every code 12 bits (one code per slot, the one-symbol mode), and
        // 1-, 2- and 3-bit codes among 12-bit ones (several codes per
        // slot, and slots of a single 12-bit code).
        let flat = filled_book(&[], DECODE_TABLE_BITS);
        let mixed = filled_book(&[1, 2, 3], DECODE_TABLE_BITS);
        assert!(!several::<u32>(&flat) && several::<u32>(&mixed));
        for code in [flat, mixed] {
            let syms: Vec<u32> = lcg_symbols(1500, 9, 41)
                .iter()
                .zip(lcg_symbols(1500, code.lens.len() as u32, 42))
                .map(|(&coin, wide)| if coin < 5 { 0 } else { wide })
                .collect();
            let bytes = payload(&code, &syms);
            assert_eq!(
                code.decode::<u32>(&[(&bytes, 0, syms.len())]).unwrap(),
                syms
            );
            assert_parity_when_damaged(&code, &bytes, syms.len(), 5);
        }
    }

    #[test]
    fn a_long_code_after_the_last_whole_code_of_a_slot_is_read_from_the_buffer() {
        // 1-, 2- and 3-bit codes, the rest of the code space 13 and 20
        // bits long: `k` short codes, then a long one, at every phase.
        let code = book_of_lengths(&[vec![1, 2, 3], vec![13; 1022], vec![20; 256]].concat());
        assert!(several::<u32>(&code));
        let long = [3u32, 500, 1024, 1025, 1280];
        let mut syms = Vec::new();
        for k in 0..8 {
            for &l in &long {
                syms.extend(lcg_symbols(k, 3, k as u64));
                syms.push(l);
            }
        }
        syms.extend(lcg_symbols(100, 3, 43));
        let bytes = payload(&code, &syms);
        assert_eq!(
            code.decode::<u32>(&[(&bytes, 0, syms.len())]).unwrap(),
            syms
        );
        assert_parity_when_damaged(&code, &bytes, syms.len(), 1);
    }

    #[test]
    fn a_wide_symbol_ends_a_byte_slot_and_fails_where_the_reference_does() {
        // 'A' has the 1-bit code, 300 the 2-bit one: `k` A's and then 300
        // put the symbol that does not fit a byte at lane k + 1 of the
        // first slot.
        let mut code = HuffmanCode::from_lengths(vec![(65, 1), (300, 2), (66, 3), (67, 3)]);
        code.build_encode_table();
        assert!(several::<u8>(&code));
        let bad_token = Err(CodecError::corrupt("token out of byte range"));
        for k in 1..SLOT_SYMBOLS {
            let mut syms = vec![65; k];
            syms.push(300);
            syms.extend(lcg_symbols(200, 2, k as u64).iter().map(|&c| 66 + c));
            let bytes = payload(&code, &syms);
            let slots = Slots::<u8>::build(&code.lens, &Canonical::build(&code.lens));
            let first = (u16::from_be_bytes([bytes[0], bytes[1]]) >> 4) as usize;
            assert_eq!(slots.meta[first] >> 4, k as u8, "lane {}", k + 1);
            assert_eq!(
                code.decode::<u32>(&[(&bytes, 0, syms.len())]).as_ref(),
                Ok(&syms)
            );
            assert_eq!(code.decode::<u8>(&[(&bytes, 0, syms.len())]), bad_token);
            assert_parity_both_widths(&code, &bytes, syms.len(), &format!("lane {}", k + 1));
        }
    }

    #[test]
    fn several_symbol_phase_hands_over_at_every_count() {
        // The fast phase runs while a whole group of slots can be taken
        // (`group · SLOT_SYMBOLS` symbols); counts around that point and
        // its multiples, decoded whole and one short.
        let code = filled_book(&[1, 3, 3, 4], 8);
        assert!(several::<u32>(&code));
        let group = Slots::<u32>::build(&code.lens, &Canonical::build(&code.lens)).group;
        let edge = group * SLOT_SYMBOLS;
        for n in (64..edge + 4)
            .chain(2 * edge - 3..2 * edge + 3)
            .chain(500..520)
        {
            let syms: Vec<u32> = lcg_symbols(n, 100, n as u64)
                .iter()
                .map(|&r| {
                    if r < 70 {
                        0
                    } else {
                        r % code.lens.len() as u32
                    }
                })
                .collect();
            let bytes = payload(&code, &syms);
            assert_eq!(
                code.decode::<u32>(&[(&bytes, 0, n)]).unwrap(),
                syms,
                "n={n}"
            );
            assert_parity(&code, &bytes, n - 1, &format!("n={n}, one short"));
            assert_parity(
                &code,
                &bytes[..bytes.len() - 1],
                n,
                &format!("n={n}, a byte short"),
            );
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_4k_stream_in_each_mode() {
        // One mode each: a byte-token-like stream (≈ 8 bits a symbol)
        // with a tail of long codes, and a quantization-like one.
        let tokens: Vec<u32> = lcg_symbols(4900, 100, 44)
            .iter()
            .zip(lcg_symbols(4900, 65536, 45))
            .map(|(&r, wide)| if r < 97 { r * 2 } else { 1000 + wide })
            .collect();
        // Five hot symbols of 1–4 bits, 7 % spread over 4096 long codes.
        let quant: Vec<u32> = lcg_symbols(11_000, 100, 46)
            .iter()
            .zip(lcg_symbols(11_000, 4096, 47))
            .map(|(&r, wide)| match r {
                0..40 => 0,
                40..60 => 1,
                60..75 => 2,
                75..86 => 3,
                86..93 => 4,
                _ => 5 + wide,
            })
            .collect();
        for (syms, several_mode) in [(tokens, false), (quant, true)] {
            let (code, bytes) = coded(&syms);
            assert_eq!(several::<u32>(&code), several_mode);
            assert!((4000..4400).contains(&bytes.len()), "{} B", bytes.len());
            assert_eq!(
                code.decode::<u32>(&[(&bytes, 0, syms.len())]).unwrap(),
                syms
            );
            for cut in 0..bytes.len() {
                assert_parity(&code, &bytes[..cut], syms.len(), &format!("cut={cut}"));
            }
            // Every bit optimised (CI runs this filter in release too);
            // unoptimised, where each flip costs ~2 ms, every 61st.
            let mut flipped = bytes.clone();
            for bit in (0..bytes.len() * 8).step_by(if cfg!(debug_assertions) { 61 } else { 1 }) {
                flipped[bit / 8] ^= 0x80 >> (bit % 8);
                assert_parity(&code, &flipped, syms.len(), &format!("flip={bit}"));
                flipped[bit / 8] ^= 0x80 >> (bit % 8);
            }
        }
    }

    #[test]
    fn the_mode_rule_depends_on_the_code_lengths_alone() {
        // The rule's count is the slots' greedy count of whole codes
        // (capped), found here by the reference walk on every window.
        for code in [
            coded(&skewed_symbols(5000, 47)).0,
            coded(&lcg_symbols(5000, 300, 48)).0,
            filled_book(&[1, 3, 3, 4], 8),
            filled_book(&[2, 2, 3], 13),
            book_of_lengths(&[1]),
        ] {
            let canon = Canonical::build(&code.lens);
            let mut placed = [0u64; DECODE_TABLE_BITS as usize + 1];
            for (len, p) in placed.iter_mut().enumerate().skip(1) {
                *p = canon.count.get(len).copied().unwrap_or(0) as u64;
            }
            let greedy: usize = (0..1u32 << DECODE_TABLE_BITS)
                .map(|w| {
                    let window = ((w << 4) as u16).to_be_bytes();
                    (1..=SLOT_SYMBOLS)
                        .take_while(|&k| {
                            let bits: u32 = match code.decode_reference::<u32>(&window, 0, k) {
                                Ok(s) => s.iter().map(|&s| code.code_len(s)).sum(),
                                Err(_) => u32::MAX,
                            };
                            bits <= DECODE_TABLE_BITS
                        })
                        .count()
                })
                .sum();
            assert_eq!(whole_codes(&placed), greedy as u64);
            // Relabelled, and with every symbol too wide for a byte: the
            // slots change, the verdict does not.
            let wide = HuffmanCode::from_lengths(
                code.lens
                    .iter()
                    .map(|&(s, l)| (s.wrapping_mul(7) | 0x100, l))
                    .collect(),
            );
            assert_eq!(several::<u32>(&code), several::<u32>(&wide));
            assert_eq!(several::<u32>(&code), several::<u8>(&wide));
        }
    }

    #[test]
    fn forged_books_decode_like_the_reference() {
        // Over-subscribed (three 1-bit codes; 2-bit codes past two 1-bit
        // ones) and incomplete books: the table decoder is total on them.
        for lens in [
            vec![1, 1, 1],
            vec![1, 1, 2, 2, 5],
            vec![2, 3, 13],
            vec![1, 14, 14],
        ] {
            let code = book_of_lengths(&lens);
            let bytes: Vec<u8> = lcg_symbols(600, 256, lens.len() as u64)
                .iter()
                .map(|&b| b as u8)
                .collect();
            for n in [64, 100, 1000, 4800] {
                for cut in (0..bytes.len()).step_by(13) {
                    assert_parity_both_widths(
                        &code,
                        &bytes[..cut],
                        n,
                        &format!("{lens:?} {cut}×{n}"),
                    );
                }
            }
        }
    }
}
