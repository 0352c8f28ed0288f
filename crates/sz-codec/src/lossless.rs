//! Lossless back end: LZ77 (hash-chain match finder) + order-0 byte
//! Huffman.
//!
//! SZ runs Zstd over its Huffman-coded quantization stream; this module is
//! the from-scratch stand-in (see README.md). What matters for the paper's
//! experiments is the *scaling behaviour*: long repeated patterns (runs of
//! the centre quantization code in smooth data) collapse to near-zero size,
//! and encoding efficiency grows with buffer size — which is exactly what
//! makes many small HDF5 chunks lose to one large chunk.

use crate::huffman;
use crate::wire::{CodecError, CodecResult, Reader, Writer};

const MIN_MATCH: usize = 4;
const WINDOW: usize = 1 << 16; // u16 distances
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 48;

/// Compress `data`. The output embeds the original length.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(data, &mut out);
    out
}

/// Compress `data`, appending to `out` (the buffer-reusing hot path).
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    let tokens = lz_parse(data);
    let entropy = huffman::encode_with_table(&tokens.iter().map(|&b| b as u32).collect::<Vec<_>>());
    let mut w = Writer::from_vec(std::mem::take(out));
    w.put_u64(data.len() as u64);
    // Keep whichever representation is smaller; raw fallback keeps the
    // worst case bounded (header + data).
    if entropy.len() < tokens.len() {
        w.put_u8(2); // LZ + Huffman
        w.put_block(&entropy);
    } else if tokens.len() < data.len() {
        w.put_u8(1); // LZ only
        w.put_block(&tokens);
    } else {
        w.put_u8(0); // stored
        w.put_block(data);
    }
    *out = w.into_bytes();
}

/// Ceiling on a stream's declared decompressed length. LZ matches expand
/// legitimately without any input-proportional bound (long RLE runs), so
/// a corrupt header can't be caught by comparing against the token count;
/// this cap rejects absurd claims deterministically, far above any
/// payload this workspace produces (whole snapshots are megabytes).
const MAX_DECODE_LEN: usize = 1 << 34; // 16 GiB

/// Decompress a stream produced by [`compress`].
pub fn decompress(bytes: &[u8]) -> CodecResult<Vec<u8>> {
    let mut r = Reader::new(bytes);
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
    match mode {
        0 => {
            if payload.len() != orig_len {
                return Err(CodecError::corrupt("stored block length mismatch"));
            }
            Ok(payload.to_vec())
        }
        1 => lz_expand(payload, orig_len),
        2 => lz_expand(&huffman::decode_with_table(payload)?, orig_len),
        m => Err(CodecError::BadMode { found: m }),
    }
}

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Greedy hash-chain LZ77 parse into the token format:
/// * literal run: control byte `0x00..=0x7F` = run length − 1 (0x7F adds a
///   varint extension), then the literal bytes;
/// * match: control byte `0x80 | (len − MIN_MATCH)` (0x7F extension adds a
///   varint), then a little-endian u16 distance (≥ 1).
fn lz_parse(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len()];
    // Insert position p into its hash chain.
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
            // Register the covered positions so later matches can point
            // into them.
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

/// One element of an LZ token stream: a byte as stored (mode 1), or a
/// Huffman symbol that has to be one (mode 2). Symbols are narrowed as
/// the expansion consumes them, so mode 2 needs no byte copy of the
/// token stream.
trait Token: Copy + Into<u32> {
    /// Append a literal run, rejecting any element that is not a byte.
    fn append_run(run: &[Self], out: &mut Vec<u8>) -> CodecResult<()>;
}

fn bad_token() -> CodecError {
    CodecError::corrupt("token out of byte range")
}

impl Token for u8 {
    #[inline]
    fn append_run(run: &[u8], out: &mut Vec<u8>) -> CodecResult<()> {
        out.extend_from_slice(run);
        Ok(())
    }
}

impl Token for u32 {
    #[inline]
    fn append_run(run: &[u32], out: &mut Vec<u8>) -> CodecResult<()> {
        if run.iter().any(|&t| t > 0xFF) {
            return Err(bad_token());
        }
        out.extend(run.iter().map(|&t| t as u8));
        Ok(())
    }
}

/// Pop one token as a byte; `what` names the field for the truncation
/// error.
#[inline]
fn take<T: Token>(rest: &mut &[T], what: &'static str) -> CodecResult<u8> {
    let (&t, tail) = rest
        .split_first()
        .ok_or_else(|| CodecError::corrupt(what))?;
    *rest = tail;
    u8::try_from(t.into()).map_err(|_| bad_token())
}

fn get_varint<T: Token>(rest: &mut &[T]) -> CodecResult<usize> {
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

fn lz_expand<T: Token>(tokens: &[T], orig_len: usize) -> CodecResult<Vec<u8>> {
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
            T::append_run(run, &mut out)?;
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
            match decompress(&bad) {
                Err(CodecError::Corrupt { .. }) => {}
                other => panic!("symbol {at} forged: expected Corrupt, got {other:?}"),
            }
        }
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
