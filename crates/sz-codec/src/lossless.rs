//! Lossless back end: LZ77 (hash-chain match finder) + order-0 byte
//! Huffman.
//!
//! SZ runs Zstd over its Huffman-coded quantization stream; this module is
//! the from-scratch stand-in (see README.md). What matters for the paper's
//! experiments is the *scaling behaviour*: long repeated patterns (runs of
//! the centre quantization code in smooth data) collapse to near-zero size,
//! and encoding efficiency grows with buffer size — which is exactly what
//! makes many small HDF5 chunks lose to one large chunk.

use crate::huffman::{self, BlockPlan};
use crate::scratch;
use crate::wire::{CodecError, CodecResult, Reader, Writer};
use std::borrow::Cow;

const MIN_MATCH: usize = 4;
const WINDOW: usize = 1 << 16; // u16 distances
/// Width of the match finder's hash table. Buckets of a narrower table
/// are unions of this one's, so a 15-bit chain holds the same candidates
/// in the same order plus the collisions of three more buckets; the two
/// parse alike except where `MAX_CHAIN` cuts the longer chain short.
const HASH_BITS: u32 = 17;
const MAX_CHAIN: usize = 48;

/// Compress `data`. The output embeds the original length.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(data, &mut out);
    out
}

/// Compress `data`, appending to `out` (the buffer-reusing hot path). The
/// match finder is the calling thread's; its state never shows in the
/// bytes.
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    scratch::with_match_finder(|finder| {
        let tokens = finder.parse::<HASH_BITS>(data);
        // The byte-Huffman block is sized from the token histogram, so
        // the choice below needs no trial encoding.
        let coded = BlockPlan::new(&huffman::count_frequencies(tokens));
        let mut w = Writer::from_vec(std::mem::take(out));
        w.put_u64(data.len() as u64);
        // Keep whichever representation is smaller; raw fallback keeps the
        // worst case bounded (header + data).
        if coded.byte_len() < tokens.len() as u64 {
            w.put_u8(2); // LZ + Huffman
            w.put_u64(coded.byte_len());
            coded.write(tokens, &mut w);
        } else if tokens.len() < data.len() {
            w.put_u8(1); // LZ only
            w.put_block(tokens);
        } else {
            w.put_u8(0); // stored
            w.put_block(data);
        }
        *out = w.into_bytes();
    })
}

/// Ceiling on a stream's declared decompressed length. LZ matches expand
/// legitimately without any input-proportional bound (long RLE runs), so
/// a corrupt header can't be caught by comparing against the token count;
/// this cap rejects absurd claims deterministically, far above any
/// payload this workspace produces (whole snapshots are megabytes).
const MAX_DECODE_LEN: usize = 1 << 34; // 16 GiB

/// Decompress a stream produced by [`compress`].
pub fn decompress(bytes: &[u8]) -> CodecResult<Vec<u8>> {
    read_frame(&mut Reader::new(bytes)).map(|f| f.bytes.into_owned())
}

/// One [`compress_into`] output as it sits in a longer stream.
pub struct Frame<'a> {
    /// How it was stored: 0 as is, 1 LZ, 2 LZ + byte Huffman.
    pub mode: u8,
    /// Bytes the frame takes in the stream, its header included.
    pub stored: usize,
    /// The original bytes: borrowed from the stream when stored as is,
    /// expanded otherwise.
    pub bytes: Cow<'a, [u8]>,
}

/// Read the frame at `r` and leave `r` just past it, so frames can follow
/// each other in one stream.
pub fn read_frame<'a>(r: &mut Reader<'a>) -> CodecResult<Frame<'a>> {
    let before = r.remaining();
    let orig_len = r.get_u64()? as usize;
    if orig_len > MAX_DECODE_LEN {
        return Err(CodecError::LimitExceeded {
            what: "declared length",
            claimed: orig_len as u128,
            available: MAX_DECODE_LEN as u128,
        });
    }
    let mode = r.get_u8()?;
    let payload = r.get_block()?;
    let bytes = match mode {
        0 => {
            if payload.len() != orig_len {
                return Err(CodecError::corrupt("stored block length mismatch"));
            }
            Cow::Borrowed(payload)
        }
        1 => Cow::Owned(lz_expand(payload, orig_len)?),
        2 => Cow::Owned(lz_expand(
            &huffman::decode_with_table_as::<u8>(payload)?,
            orig_len,
        )?),
        m => return Err(CodecError::BadMode { found: m }),
    };
    Ok(Frame {
        mode,
        stored: before - r.remaining(),
        bytes,
    })
}

/// The hash-chain match finder's reusable state. Positions are `u32`s on
/// a clock that runs on from input to input, each starting a window past
/// the end of the one before: whatever earlier inputs left in the tables
/// reads as out of window, so an input costs O(its length), never
/// O(table), and parses the same on a fresh finder and a used one.
#[derive(Default)]
pub(crate) struct MatchFinder {
    /// Clock position of the latest insert per hash bucket.
    head: Vec<u32>,
    /// `prev[p % WINDOW]`: what `head` held when clock position `p` was
    /// inserted. A ring suffices — a chain is never followed past the
    /// window, and nothing within a window of the cursor is overwritten.
    prev: Vec<u32>,
    /// Clock position of the current input's first byte.
    base: u32,
    tokens: Vec<u8>,
}

impl MatchFinder {
    /// Greedy hash-chain LZ77 parse of `data` on a `BITS`-wide table into
    /// the token format:
    /// * literal run: control byte `0x00..=0x7F` = run length − 1 (0x7F
    ///   adds a varint extension), then the literal bytes;
    /// * match: control byte `0x80 | (len − MIN_MATCH)` (0x7F extension
    ///   adds a varint), then a little-endian u16 distance (≥ 1).
    ///
    /// A position takes the nearest of its longest chain candidates, seen
    /// through two filters that drop only candidates which could not have
    /// been taken: one whose first four bytes differ from the cursor's
    /// matches fewer than `MIN_MATCH` and never becomes a token; one that
    /// differs at offset `best_len` cannot beat the best so far, which
    /// only a strictly longer match replaces.
    pub(crate) fn parse<const BITS: u32>(&mut self, data: &[u8]) -> &[u8] {
        let n = data.len();
        // Start over where the clock would wrap and bring stale entries
        // back into the window (also on first use, and on a table of
        // another width). An input longer than the clock itself parses
        // with wrapped positions — every candidate is checked against
        // the data — and leaves a clock that forces the next reset.
        let end_from = |base: u32| base as u64 + n as u64 + WINDOW as u64;
        if self.head.len() != 1 << BITS || end_from(self.base) > u32::MAX as u64 {
            self.head.clear();
            self.head.resize(1 << BITS, 0);
            self.prev.resize(WINDOW, 0);
            self.base = WINDOW as u32;
        }
        let base = self.base;
        self.base = u32::try_from(end_from(base)).unwrap_or(u32::MAX);
        let (head, prev) = (&mut self.head[..1 << BITS], &mut self.prev[..WINDOW]);
        let out = &mut self.tokens;
        out.clear();
        let word = |p: usize| u32::from_le_bytes(data[p..p + 4].try_into().expect("4 bytes"));
        let bucket = |w: u32| (w.wrapping_mul(2654435761) >> (32 - BITS)) as usize;
        let clock = |p: usize| base.wrapping_add(p as u32);
        let hash_limit = n.saturating_sub(MIN_MATCH - 1);
        let mut lit_start = 0usize;
        let mut i = 0usize;
        while i < n {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let mut end = i + 1;
            if i < hash_limit {
                let cur = word(i);
                let limit = n - i;
                let mut cand = head[bucket(cur)];
                for _ in 0..MAX_CHAIN {
                    let dist = clock(i).wrapping_sub(cand) as usize;
                    if dist == 0 || dist >= WINDOW || best_len == limit {
                        break;
                    }
                    let c = i - dist;
                    if word(c) == cur
                        && (best_len < MIN_MATCH || data[c + best_len] == data[i + best_len])
                    {
                        let l = MIN_MATCH
                            + common_prefix(
                                &data[c + MIN_MATCH..c + limit],
                                &data[i + MIN_MATCH..],
                            );
                        if l > best_len {
                            best_len = l;
                            best_dist = dist;
                        }
                    }
                    cand = prev[cand as usize % WINDOW];
                }
            }
            if best_len >= MIN_MATCH {
                flush_literals(out, &data[lit_start..i]);
                emit_match(out, best_len, best_dist);
                end = i + best_len;
                lit_start = end;
            }
            // Register the position — all the covered ones behind a match —
            // so later matches can point into them.
            for p in i..end.min(hash_limit) {
                let (h, at) = (bucket(word(p)), clock(p));
                prev[at as usize % WINDOW] = head[h];
                head[h] = at;
            }
            i = end;
        }
        flush_literals(out, &data[lit_start..]);
        out
    }
}

/// Length of the common prefix of two equally long slices, compared eight
/// bytes at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut l = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(y.try_into().expect("8 bytes"));
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..]
        .iter()
        .zip(&b[l..])
        .take_while(|(x, y)| x == y)
        .count()
}

fn put_varint(out: &mut Vec<u8>, mut v: usize) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

/// Pop one token; `what` names the field for the truncation error.
#[inline]
fn take(rest: &mut &[u8], what: &'static str) -> CodecResult<u8> {
    let (&t, tail) = rest
        .split_first()
        .ok_or_else(|| CodecError::corrupt(what))?;
    *rest = tail;
    Ok(t)
}

fn get_varint(rest: &mut &[u8]) -> CodecResult<usize> {
    let mut v = 0usize;
    let mut shift = 0u32;
    loop {
        let b = take(rest, "varint truncated")?;
        v |= ((b & 0x7F) as usize) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 56 {
            return Err(CodecError::corrupt("varint overflow"));
        }
    }
}

fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    if lits.is_empty() {
        return;
    }
    let n = lits.len();
    if n - 1 < 0x7F {
        out.push((n - 1) as u8);
    } else {
        out.push(0x7F);
        put_varint(out, n - 1 - 0x7F);
    }
    out.extend_from_slice(lits);
}

fn emit_match(out: &mut Vec<u8>, len: usize, dist: usize) {
    debug_assert!(len >= MIN_MATCH && (1..WINDOW).contains(&dist));
    let code = len - MIN_MATCH;
    if code < 0x7F {
        out.push(0x80 | code as u8);
    } else {
        out.push(0x80 | 0x7F);
        put_varint(out, code - 0x7F);
    }
    out.extend_from_slice(&(dist as u16).to_le_bytes());
}

fn lz_expand(tokens: &[u8], orig_len: usize) -> CodecResult<Vec<u8>> {
    // Capacity is a hint only: a corrupted `orig_len` must not drive a
    // multi-GB upfront allocation, so cap it; the vec grows as needed for
    // legitimately large (highly repetitive) streams.
    let mut out = Vec::with_capacity(orig_len.min(1 << 24));
    let mut rest = tokens;
    while out.len() < orig_len {
        let control = take(&mut rest, "token stream truncated")?;
        if control & 0x80 == 0 {
            let mut n = (control & 0x7F) as usize + 1;
            if control & 0x7F == 0x7F {
                n += get_varint(&mut rest)?;
            }
            if n > orig_len - out.len() {
                return Err(CodecError::corrupt("literal run overflows declared length"));
            }
            let (run, tail) = rest
                .split_at_checked(n)
                .ok_or_else(|| CodecError::corrupt("literal run truncated"))?;
            rest = tail;
            out.try_reserve(n)
                .map_err(|_| CodecError::corrupt("literal run exceeds available memory"))?;
            out.extend_from_slice(run);
        } else {
            let mut len = (control & 0x7F) as usize + MIN_MATCH;
            if control & 0x7F == 0x7F {
                len += get_varint(&mut rest)?;
            }
            let lo = take(&mut rest, "match dist truncated")?;
            let hi = take(&mut rest, "match dist truncated")?;
            let dist = u16::from_le_bytes([lo, hi]) as usize;
            if dist == 0 || dist > out.len() {
                return Err(CodecError::corrupt(format!(
                    "bad match distance {dist} at output {}",
                    out.len()
                )));
            }
            if len > orig_len - out.len() {
                return Err(CodecError::corrupt("match overflows declared length"));
            }
            out.try_reserve(len)
                .map_err(|_| CodecError::corrupt("match exceeds available memory"))?;
            // A forward byte copy, done in blocks. Each block is the
            // whole span written since `start`, so it never overlaps its
            // source; for an overlapping (RLE-style) match that span is a
            // whole number of periods and doubles every round, for
            // `dist ≥ len` the first block is the match.
            let start = out.len() - dist;
            let end = out.len() + len;
            while out.len() < end {
                let n = (out.len() - start).min(end - out.len());
                out.extend_from_within(start..start + n);
            }
        }
    }
    if out.len() != orig_len {
        return Err(CodecError::corrupt("decompressed length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecId;

    /// The byte-wise parser this module shipped before the candidate
    /// filter: `usize` positions, fresh 15-bit tables per call, every
    /// chain candidate compared byte by byte from offset 0. Kept verbatim
    /// as the oracle of [`MatchFinder::parse`].
    fn lz_parse_reference(data: &[u8]) -> Vec<u8> {
        const HASH_BITS: u32 = 15;
        fn hash4(data: &[u8], i: usize) -> usize {
            let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
            (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
        }
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; data.len()];
        fn insert(data: &[u8], head: &mut [usize], prev: &mut [usize], p: usize) {
            let h = hash4(data, p);
            prev[p] = head[h];
            head[h] = p;
        }
        let hash_limit = data.len().saturating_sub(MIN_MATCH - 1);
        let mut lit_start = 0usize;
        let mut i = 0usize;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i < hash_limit {
                let h = hash4(data, i);
                let mut cand = head[h];
                let mut chain = 0;
                while cand != usize::MAX && i - cand < WINDOW && chain < MAX_CHAIN {
                    let dist = i - cand;
                    let limit = data.len() - i;
                    let mut l = 0usize;
                    while l < limit && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                    }
                    cand = prev[cand];
                    chain += 1;
                }
            }
            if best_len >= MIN_MATCH {
                flush_literals(&mut out, &data[lit_start..i]);
                emit_match(&mut out, best_len, best_dist);
                let end = (i + best_len).min(hash_limit);
                for p in i..end {
                    insert(data, &mut head, &mut prev, p);
                }
                i += best_len;
                lit_start = i;
            } else {
                if i < hash_limit {
                    insert(data, &mut head, &mut prev, i);
                }
                i += 1;
            }
        }
        flush_literals(&mut out, &data[lit_start..]);
        out
    }

    /// Splitmix-style byte source for the parser corpora.
    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    /// `head ‖ gap ‖ head`: a 300-byte phrase repeating at distance
    /// `dist`, everything else incompressible.
    fn repeat_at(dist: usize) -> Vec<u8> {
        let mut data = noise(dist + 300, dist as u64);
        let (first, second) = data.split_at_mut(dist);
        second.copy_from_slice(&first[..300]);
        data.extend(noise(500, 3));
        data
    }

    /// Inputs that exercise every branch of the match finder.
    fn parser_corpus() -> Vec<(String, Vec<u8>)> {
        let mut corpus: Vec<(String, Vec<u8>)> = (0..=7)
            .map(|n| (format!("{n} bytes"), b"abababa"[..n].to_vec()))
            .collect();
        corpus.push(("single-byte run".into(), vec![7u8; 100_000]));
        // One bucket collects a position per period: the 48-candidate
        // cut-off decides from the 49th repeat on.
        let period: Vec<u8> = (0..64u32).map(|i| (i as u8).wrapping_mul(3)).collect();
        corpus.push(("period 64 × 120".into(), period.repeat(120)));
        let mut drifting = Vec::new();
        for rep in 0..200u32 {
            drifting.extend_from_slice(&period);
            drifting[rep as usize * 64 + (rep as usize * 7) % 60 + 4] ^= rep as u8;
        }
        corpus.push(("period 64, one byte off per repeat".into(), drifting));
        for dist in [WINDOW - 1, WINDOW, WINDOW + 1] {
            corpus.push((format!("repeat at distance {dist}"), repeat_at(dist)));
        }
        corpus.push(("high entropy".into(), noise(70_000, 11)));
        let mut mixed = Vec::new();
        for i in 0..3000u32 {
            mixed.extend_from_slice(b"headerheaderheader");
            mixed.push(i as u8);
            mixed.extend_from_slice(&(i as u64 * 77).to_le_bytes());
            if i % 5 == 0 {
                mixed.extend(noise(i as usize % 23, i as u64));
            }
        }
        corpus.push(("mixed structure".into(), mixed));
        corpus.extend((0..150u64).map(|seed| (format!("mixture {seed}"), mixture(seed))));
        corpus
    }

    /// Literals, runs and repeats of earlier output in seeded proportions
    /// and lengths, a few hundred bytes to ~100 KB.
    fn mixture(seed: u64) -> Vec<u8> {
        let draws: Vec<usize> = noise(4 * (20 + seed as usize * 3), seed)
            .chunks(2)
            .map(|b| b[0] as usize | (b[1] as usize) << 8)
            .collect();
        let mut data = Vec::new();
        for op in draws.chunks(2) {
            let len = op[1] % if seed.is_multiple_of(4) { 2000 } else { 40 };
            match op[0] % 3 {
                0 => data.extend(noise(len, op[1] as u64)),
                1 => data.extend(std::iter::repeat_n(op[1] as u8, len)),
                _ if data.is_empty() => data.push(op[0] as u8),
                _ => {
                    let dist = 1 + op[0] / 3 % data.len().min(70_000);
                    for _ in 0..len {
                        data.push(data[data.len() - dist]);
                    }
                }
            }
        }
        data
    }

    /// The pre-lossless SZ payloads inside the golden stream corpus and
    /// the golden container (whose SZ filter chunks are the 1-D streams
    /// of the AMReX baseline): what the parser sees in production. Every
    /// SZ_L/R or SZ_Interp stream — bare, in a chunk, or nested in a
    /// pipeline or TAC container — is an envelope followed by a lossless
    /// stream.
    fn golden_payloads() -> Vec<(String, Vec<u8>)> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let golden = |dir: &str| std::fs::read_dir(format!("{root}/{dir}")).expect("golden");
        let mut found = Vec::new();
        for entry in golden("amric/tests/golden").chain(golden("h5lite/tests/golden")) {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|e| e != "bin" && e != "h5l") {
                continue;
            }
            let bytes = std::fs::read(&path).expect("golden stream");
            for at in 0..bytes.len().saturating_sub(8) {
                let Ok(env) = crate::codec::read_envelope(&bytes[at..]) else {
                    continue;
                };
                let sz = [CodecId::LrSle as u16, CodecId::Interp as u16].contains(&env.codec);
                if let (true, Ok(payload)) = (sz, decompress(&bytes[at + env.payload_offset..])) {
                    found.push((format!("{} @ {at}", path.display()), payload));
                }
            }
        }
        found
    }

    #[test]
    fn filtered_parser_makes_the_reference_parse() {
        let golden = golden_payloads();
        assert!(golden.len() >= 12, "found {} SZ payloads", golden.len());
        let mut finder = MatchFinder::default();
        for (name, data) in parser_corpus().into_iter().chain(golden) {
            let expect = lz_parse_reference(&data);
            // One finder carried across all inputs, and a fresh one.
            assert!(finder.parse::<15>(&data) == expect, "{name} (used finder)");
            assert!(
                MatchFinder::default().parse::<15>(&data) == expect,
                "{name} (fresh finder)"
            );
            // The shipping width makes a parse that expands to the input.
            let tokens = finder.parse::<HASH_BITS>(&data).to_vec();
            assert!(lz_expand(&tokens, data.len()).unwrap() == data, "{name}");
        }
    }

    #[test]
    fn clock_wrap_resets_the_tables() {
        // A finder whose clock is about to run out starts over instead of
        // letting positions wrap into the window of stale entries.
        let data = mixture(8);
        let expect = lz_parse_reference(&data);
        let mut finder = MatchFinder::default();
        finder.parse::<15>(&data);
        for base in [
            u32::MAX - data.len() as u32,
            u32::MAX - WINDOW as u32,
            u32::MAX,
        ] {
            finder.base = base;
            assert!(finder.parse::<15>(&data) == expect, "base {base}");
            assert!(finder.base < u32::MAX / 2, "clock restarted");
        }
    }

    #[test]
    fn bytes_do_not_depend_on_what_the_thread_compressed_before() {
        let corpus = parser_corpus();
        let (a, b) = (&corpus[9].1, &corpus[15].1);
        let fresh = std::thread::scope(|s| s.spawn(|| compress(a)).join().expect("no panic"));
        let used = std::thread::scope(|s| {
            let run = || {
                let first = compress(a);
                compress(b);
                (first, compress(a))
            };
            s.spawn(run).join().expect("no panic")
        });
        assert_eq!(used.0, fresh);
        assert_eq!(used.1, fresh, "A after B differs from A on a fresh thread");
        assert_eq!(decompress(&fresh).unwrap(), *a);
    }

    fn roundtrip(data: &[u8]) -> usize {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data);
        c.len()
    }

    /// Mode-1 bomb payload: one literal byte, then a match with dist 1
    /// and an enormous varint-extended length.
    fn bomb_stream(declared_len: u64) -> Vec<u8> {
        let mut tokens = vec![0x00, 0x41]; // literal run of 1 × 'A'
        tokens.push(0x80 | 0x7F); // match, varint-extended length
        tokens.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]); // huge varint
        tokens.extend_from_slice(&1u16.to_le_bytes()); // dist = 1
        stream(declared_len, 1, &tokens)
    }

    /// A hand-built stream: declared length, mode, token block.
    fn stream(declared_len: u64, mode: u8, block: &[u8]) -> Vec<u8> {
        let mut w = crate::wire::Writer::new();
        w.put_u64(declared_len);
        w.put_u8(mode);
        w.put_block(block);
        w.into_bytes()
    }

    #[test]
    fn matches_expand_like_a_byte_by_byte_copy() {
        // Overlapping (dist < len, RLE-style), touching (dist == len) and
        // disjoint matches against the definition: out[p] = out[p - dist].
        let prefix: Vec<u8> = (0..13u8).map(|i| i * 17 + 3).collect();
        for dist in [1usize, 2, 3, 7, 8, 12, 13] {
            for len in [4usize, 5, 12, 13, 14, 64, 131, 1000] {
                let mut tokens = vec![prefix.len() as u8 - 1];
                tokens.extend_from_slice(&prefix);
                emit_match(&mut tokens, len, dist);
                let mut expect = prefix.clone();
                for _ in 0..len {
                    expect.push(expect[expect.len() - dist]);
                }
                let got = decompress(&stream(expect.len() as u64, 1, &tokens));
                assert_eq!(got.unwrap(), expect, "dist {dist} len {len}");
                // The same tokens as Huffman symbols (mode 2).
                let syms: Vec<u32> = tokens.iter().map(|&b| b as u32).collect();
                let block = huffman::encode_with_table(&syms);
                let got = decompress(&stream(expect.len() as u64, 2, &block));
                assert_eq!(got.unwrap(), expect, "mode 2, dist {dist} len {len}");
            }
        }
    }

    #[test]
    fn mode2_symbol_that_is_not_a_byte_is_corrupt() {
        // Literal run "abcd" then a match; poison, in turn, a control
        // token, a literal, and a distance byte with a symbol > 0xFF.
        let mut tokens = vec![3u8];
        tokens.extend_from_slice(b"abcd");
        emit_match(&mut tokens, 8, 4);
        let clean: Vec<u32> = tokens.iter().map(|&b| b as u32).collect();
        let ok = stream(12, 2, &huffman::encode_with_table(&clean));
        assert_eq!(decompress(&ok).unwrap(), b"abcdabcdabcd");
        for at in [0, 2, 5, 6] {
            let mut syms = clean.clone();
            syms[at] = 0x100 + at as u32;
            let bad = stream(12, 2, &huffman::encode_with_table(&syms));
            let bad_token = Err(CodecError::corrupt("token out of byte range"));
            assert_eq!(decompress(&bad), bad_token, "symbol {at} forged");
        }
        // A token stream long enough for the slot table (≥ 64 symbols).
        let mut long: Vec<u32> = vec![99];
        long.extend((0..100u32).map(|i| i % 7 + 48));
        let ok = stream(100, 2, &huffman::encode_with_table(&long));
        assert_eq!(decompress(&ok).unwrap().len(), 100);
        long[77] = 256;
        let bad = stream(100, 2, &huffman::encode_with_table(&long));
        let bad_token = Err(CodecError::corrupt("token out of byte range"));
        assert_eq!(decompress(&bad), bad_token);
    }

    #[test]
    fn truncated_literal_run_is_corrupt() {
        // Run of 8 declared, 3 bytes present.
        let s = stream(8, 1, &[7, b'x', b'y', b'z']);
        assert!(matches!(decompress(&s), Err(CodecError::Corrupt { .. })));
    }

    #[test]
    fn absurd_declared_length_rejected_at_header() {
        // A petabyte claim dies at the MAX_DECODE_LEN ceiling before any
        // token is read.
        assert!(decompress(&bomb_stream(1 << 50)).is_err());
    }

    #[test]
    fn decompression_bomb_rejected_in_expansion() {
        // A claim under the ceiling reaches lz_expand; the huge-varint
        // match (len ≫ declared length) must hit the overflow guard, not
        // expand the output toward the varint value.
        assert!(decompress(&bomb_stream(1 << 30)).is_err());
    }

    #[test]
    fn lying_length_header_rejected() {
        // Declared length larger than the tokens (a single literal byte)
        // can produce: truncation error, not a hang or giant allocation.
        assert!(decompress(&stream(10_000_000, 1, &[0x00, 0x41])).is_err());
    }

    #[test]
    fn empty() {
        roundtrip(&[]);
    }

    #[test]
    fn short_incompressible() {
        roundtrip(b"a");
        roundtrip(b"abcdefg");
    }

    #[test]
    fn long_zero_run_collapses() {
        let data = vec![0u8; 100_000];
        let n = roundtrip(&data);
        assert!(n < 200, "zero run compressed to {n} bytes");
    }

    #[test]
    fn repeated_pattern() {
        let data: Vec<u8> = (0..50_000)
            .map(|i| ((i % 64) as u8).wrapping_mul(3))
            .collect();
        let n = roundtrip(&data);
        assert!(n < 2_000, "periodic data compressed to {n} bytes");
    }

    #[test]
    fn pseudo_random_does_not_explode() {
        let mut x = 1u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect();
        let n = roundtrip(&data);
        assert!(n <= data.len() + 64, "worst case bounded, got {n}");
    }

    #[test]
    fn mixed_structure() {
        let mut data = Vec::new();
        for i in 0..200 {
            data.extend_from_slice(b"headerheaderheader");
            data.push(i as u8);
            data.extend_from_slice(&(i as u64 * 77).to_le_bytes());
        }
        let n = roundtrip(&data);
        assert!(n < data.len() / 2);
    }

    #[test]
    fn bigger_is_denser() {
        // Encoding efficiency must improve with buffer size — the property
        // behind the paper's small-chunk pathology (§2.1).
        let unit: Vec<u8> = (0..1024u32).flat_map(|i| (i % 17).to_le_bytes()).collect();
        let small: usize = unit.chunks(256).map(|c| compress(c).len()).sum();
        let large = compress(&unit).len();
        assert!(
            large < small,
            "one large buffer ({large}) should beat many small ({small})"
        );
    }

    #[test]
    fn corrupt_stream_errors() {
        let c = compress(b"hello world hello world hello world");
        assert!(decompress(&c[..4]).is_err());
        let mut bad = c.clone();
        let last = bad.len() - 1;
        bad.truncate(last);
        // Truncation may or may not break depending on padding; flipping the
        // declared length always must.
        let mut bad2 = c;
        bad2[0] ^= 0xFF;
        assert!(decompress(&bad2).is_err());
    }

    #[test]
    fn long_literal_run_extension() {
        // >128 distinct literals force the varint extension path.
        let data: Vec<u8> = (0..=255u8).chain(0..=255).collect();
        roundtrip(&data);
    }
}
