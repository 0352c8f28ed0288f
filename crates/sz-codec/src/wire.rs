//! Little-endian serialization helpers for the compressed-stream headers.
//!
//! Kept deliberately tiny (no serde in the hot format): every multi-byte
//! integer is little-endian, lengths are `u64`, floats are IEEE-754 bits.
//! Decode failures surface as the workspace-wide [`CodecError`].

pub use crate::error::{CodecError, CodecResult};

/// Append-only writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing buffer and append to it — the zero-alloc path:
    /// `mem::take` a caller's scratch `Vec`, write, hand it back with
    /// [`Writer::into_bytes`].
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A run of doubles, no count prefix: one reservation, then whole
    /// stack blocks of little-endian lanes (no per-value append).
    pub fn put_f64s(&mut self, values: &[f64]) {
        self.buf.reserve(values.len() * 8);
        let mut block = [0u8; 4096];
        for run in values.chunks(block.len() / 8) {
            for (lane, v) in block.chunks_exact_mut(8).zip(run) {
                lane.copy_from_slice(&v.to_le_bytes());
            }
            self.buf.extend_from_slice(&block[..run.len() * 8]);
        }
    }

    /// LEB128: seven bits per byte, low first, the top bit set on every
    /// byte but the last.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Length-prefixed (u64) byte block.
    pub fn put_block(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Raw bytes, no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Mutable access to the underlying buffer — lets `*_into` helpers
    /// append through an existing writer without unwrapping it.
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Finish.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Sequential reader with bounds checking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        // `n` may come straight from a corrupted length field; checked
        // comparison avoids `pos + n` overflowing on absurd values.
        if n > self.buf.len() - self.pos {
            return Err(CodecError::Truncated {
                offset: self.pos,
                need: n,
                have: self.buf.len() - self.pos,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u16(&mut self) -> CodecResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn get_u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `n` doubles (see [`Writer::put_f64s`]). `n` is checked against
    /// the bytes present before anything is reserved, so a forged count
    /// is [`CodecError::LimitExceeded`], never an allocation.
    pub fn get_f64s(&mut self, n: usize) -> CodecResult<Vec<f64>> {
        let lanes = self.take(self.check_count(n, 8)? * 8)?.chunks_exact(8);
        Ok(lanes
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect())
    }

    /// The next `out.len()` doubles into `out` (the lanes of
    /// [`Reader::get_f64s`], for a caller that owns the destination).
    /// Too few bytes: [`CodecError::Truncated`], nothing consumed or
    /// written.
    #[inline]
    pub fn get_f64s_into(&mut self, out: &mut [f64]) -> CodecResult<()> {
        // A slice that exists is at most `isize::MAX` bytes long.
        let lanes = self.take(out.len() * 8)?.chunks_exact(8);
        for (v, b) in out.iter_mut().zip(lanes) {
            *v = f64::from_le_bytes(b.try_into().unwrap());
        }
        Ok(())
    }

    /// A [`Writer::put_varint`] value; one that does not fit a `u64` is
    /// corrupt.
    pub fn get_varint(&mut self) -> CodecResult<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.get_u8()?;
            if shift == 63 && b > 1 {
                break;
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::corrupt("varint overflow"))
    }

    /// Length-prefixed byte block (see [`Writer::put_block`]).
    pub fn get_block(&mut self) -> CodecResult<&'a [u8]> {
        let n = self.get_u64()? as usize;
        self.take(n)
    }

    /// Raw bytes of known length.
    pub fn get_raw(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        self.take(n)
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Validate an element count decoded from the stream against the
    /// minimum bytes each element must still occupy. Rejecting implausible
    /// counts here keeps corrupted length fields from driving huge
    /// preallocations (which would abort, not unwind) in decode paths.
    pub fn check_count(&self, n: usize, min_bytes_per_elem: usize) -> CodecResult<usize> {
        let need = (n as u128) * (min_bytes_per_elem.max(1) as u128);
        if need > self.remaining() as u128 {
            return Err(CodecError::LimitExceeded {
                what: "element count",
                claimed: need,
                available: self.remaining() as u128,
            });
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_f64(-0.125);
        w.put_block(b"hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert_eq!(r.get_block().unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varints_roundtrip_and_refuse_what_no_u64_holds() {
        let values = [0, 1, 0x7F, 0x80, 300, 1 << 35, u64::MAX - 1, u64::MAX];
        let mut w = Writer::new();
        for v in values {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        // 1 + 1 + 1 + 2 + 2 + 6 + 10 + 10 bytes.
        assert_eq!(bytes.len(), 33);
        let mut r = Reader::new(&bytes);
        for v in values {
            assert_eq!(r.get_varint(), Ok(v));
        }
        assert_eq!(r.remaining(), 0);
        for bad in [[0xFF; 10], {
            let mut b = [0xFF; 10];
            b[9] = 0x02;
            b
        }] {
            assert!(matches!(
                Reader::new(&bad).get_varint(),
                Err(CodecError::Corrupt { .. })
            ));
        }
        assert!(matches!(
            Reader::new(&[0x80, 0x80]).get_varint(),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn truncated_stream_errors() {
        let mut w = Writer::new();
        w.put_u32(5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..2]);
        assert!(matches!(
            r.get_u32(),
            Err(CodecError::Truncated {
                offset: 0,
                need: 4,
                have: 2
            })
        ));
        let mut r2 = Reader::new(&bytes);
        assert!(matches!(r2.get_u64(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn block_with_bad_length_errors() {
        let mut w = Writer::new();
        w.put_u64(1000); // claims 1000 bytes follow
        w.put_raw(b"xx");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_block(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn implausible_count_is_limit_exceeded() {
        let r = Reader::new(b"1234");
        assert!(matches!(
            r.check_count(10_000, 8),
            Err(CodecError::LimitExceeded { .. })
        ));
        assert_eq!(r.check_count(4, 1).unwrap(), 4);
    }

    #[test]
    fn f64_runs_match_the_per_value_calls_bit_for_bit() {
        let specials = [
            f64::from_bits(0x7ff8_dead_beef_0001), // quiet NaN with payload
            f64::from_bits(0xfff0_0000_0000_0001), // signalling NaN, sign set
            -0.0,
            f64::from_bits(1), // smallest subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // Around the 512-value stack block, and several blocks plus a tail.
        for n in [0, 1, 511, 512, 513, 3 * 512 + 7] {
            let values: Vec<f64> = (0..n)
                .map(|i| match specials.get(i % 11) {
                    Some(&v) => v,
                    None => i as f64 * -1.25e-3,
                })
                .collect();
            let mut w = Writer::from_vec(vec![0xEE]);
            w.put_f64s(&values);
            let mut per_value = Writer::from_vec(vec![0xEE]);
            values.iter().for_each(|&x| per_value.put_f64(x));
            let bytes = w.into_bytes();
            assert_eq!(bytes, per_value.into_bytes(), "n = {n}");

            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_u8().unwrap(), 0xEE);
            let back = r.get_f64s(n).unwrap();
            assert_eq!(back.capacity(), n, "collected at exact size");
            assert!(back
                .iter()
                .zip(&values)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!((back.len(), r.remaining()), (n, 0));

            // The same lanes into a slice the caller owns, sentinels
            // either side untouched.
            let mut r = Reader::new(&bytes[1..]);
            let mut owned = vec![f64::from_bits(0xA5A5); n + 2];
            r.get_f64s_into(&mut owned[1..=n]).unwrap();
            assert_eq!(
                (owned[0].to_bits(), owned[n + 1].to_bits()),
                (0xA5A5, 0xA5A5)
            );
            assert!(owned[1..=n]
                .iter()
                .zip(&values)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn f64s_into_a_slice_longer_than_the_tail_is_truncated_and_writes_nothing() {
        let mut w = Writer::new();
        w.put_f64s(&[1.0, 2.0]);
        w.put_u8(9);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut out = [-1.0; 3];
        assert!(matches!(
            r.get_f64s_into(&mut out),
            Err(CodecError::Truncated {
                offset: 0,
                need: 24,
                have: 17
            })
        ));
        assert_eq!((out, r.remaining()), ([-1.0; 3], 17));
        r.get_f64s_into(&mut out[..2]).unwrap();
        r.get_f64s_into(&mut []).unwrap();
        assert_eq!((out, r.get_u8().unwrap()), ([1.0, 2.0, -1.0], 9));
    }

    #[test]
    fn forged_f64_count_is_limit_exceeded_and_consumes_nothing() {
        let mut w = Writer::new();
        w.put_f64s(&[1.0, 2.0]);
        w.put_u8(9);
        let bytes = w.into_bytes();
        // 2^60 values over an empty tail, over a short tail, and one
        // value more than the 17 bytes hold.
        for (skip, n) in [(17, 1usize << 60), (0, 1 << 60), (0, 3), (16, 1)] {
            let mut r = Reader::new(&bytes);
            r.get_raw(skip).unwrap();
            assert!(
                matches!(r.get_f64s(n), Err(CodecError::LimitExceeded { .. })),
                "skip {skip}, n {n}"
            );
            assert_eq!(r.remaining(), bytes.len() - skip, "nothing consumed");
        }
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_f64s(2).unwrap(), [1.0, 2.0]);
        assert!(r.get_f64s(0).unwrap().is_empty());
        assert_eq!(r.get_u8().unwrap(), 9);
    }

    #[test]
    fn from_vec_appends() {
        let mut w = Writer::from_vec(vec![0xFF]);
        w.put_u8(1);
        assert_eq!(w.into_bytes(), vec![0xFF, 1]);
    }
}
