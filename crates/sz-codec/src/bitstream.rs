//! Per-bit reader and writer: the oracles the Huffman coder's word-wise
//! decode and emit are held to. The library itself reads and writes bits
//! in 64-bit words; nothing here is compiled outside tests.
//!
//! Bits are packed MSB-first within each byte, which keeps canonical
//! Huffman codes directly comparable as integers while decoding.

/// Sequential bit reader over a byte slice: the bit-by-bit canonical
/// walk's input.
#[cfg(test)]
pub(crate) struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

#[cfg(test)]
impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Read one bit. Returns `None` past the end.
    pub fn read_bit(&mut self) -> Option<u64> {
        let byte = *self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Some(bit as u64)
    }

    /// Read `nbits` bits MSB-first. Returns `None` if the stream is
    /// exhausted first.
    pub fn read_bits(&mut self, nbits: u32) -> Option<u64> {
        debug_assert!(nbits <= 64);
        let mut v = 0u64;
        for _ in 0..nbits {
            v = (v << 1) | self.read_bit()?;
        }
        Some(v)
    }
}

/// Append-only per-bit writer: the oracle of the Huffman coder's
/// word-wise emit.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the last byte (0..8). 0 means the last byte is
    /// full (or the stream is empty).
    used: u32,
}

#[cfg(test)]
impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write the lowest `nbits` bits of `value`, most significant first.
    pub fn write_bits(&mut self, value: u64, nbits: u32) {
        debug_assert!(nbits <= 64);
        debug_assert!(nbits == 64 || value < (1u64 << nbits));
        let mut remaining = nbits;
        while remaining > 0 {
            // used == 0 ⇔ the last byte is full (or the stream is empty):
            // start a fresh byte.
            if self.used == 0 {
                self.bytes.push(0);
            }
            let free = 8 - self.used;
            let take = free.min(remaining);
            let shift = remaining - take;
            let chunk = ((value >> shift) & ((1u64 << take) - 1)) as u8;
            let last = self.bytes.last_mut().expect("byte pushed above");
            *last |= chunk << (free - take);
            self.used = (self.used + take) % 8;
            remaining -= take;
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.bytes.is_empty() {
            0
        } else {
            (self.bytes.len() - 1) * 8
                + if self.used == 0 {
                    8
                } else {
                    self.used as usize
                }
        }
    }

    /// Finish and return the packed bytes (final byte zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_aligned() {
        let mut w = BitWriter::new();
        w.write_bits(0xAB, 8);
        w.write_bits(0xCD, 8);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0xAB, 0xCD]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0xAB));
        assert_eq!(r.read_bits(8), Some(0xCD));
    }

    #[test]
    fn roundtrip_unaligned() {
        let mut w = BitWriter::new();
        let fields: &[(u64, u32)] = &[(0b101, 3), (0b1, 1), (0x3FF, 10), (0, 2), (0x12345, 17)];
        for &(v, n) in fields {
            w.write_bits(v, n);
        }
        assert_eq!(w.bit_len(), 33);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in fields {
            assert_eq!(r.read_bits(n), Some(v), "field {v:#x}/{n}");
        }
    }

    #[test]
    fn read_past_end() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0b11000000)); // zero padding readable
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn wide_values() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        w.write_bits(u64::MAX >> 1, 63);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(1), Some(0));
        assert_eq!(r.read_bits(63), Some(u64::MAX >> 1));
    }

    #[test]
    fn bit_len_counts() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0xFF, 8);
        assert_eq!(w.bit_len(), 9);
    }
}
