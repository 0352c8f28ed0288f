//! The stream envelope every compressor family in the workspace writes.
//!
//! Every compressed stream starts with the same 8-byte header:
//!
//! ```text
//! magic  u32  = AMEC ("AMric Envelope Codec")
//! codec  u16  — which family wrote the payload (see [`CodecId`])
//! version u8  — format version of that family's payload
//! flags  u8   — family-independent stream flags ([`FLAG_REFERENCED`], …)
//! ```
//!
//! The payload that follows is family-specific. Each family is a pair of
//! functions (`lr::compress_domains` / `lr::decompress_domains`, …) whose
//! decoder opens with [`expect_envelope`], so a stream handed to the wrong
//! family fails as [`CodecError::WrongCodec`] naming both ids. Stored
//! chunks name their family through the container's filter id; the
//! envelope id is the stream's own check.

use crate::error::{CodecError, CodecResult};
use crate::wire::{Reader, Writer};

/// Envelope magic: the bytes `AMEC` on disk (little-endian u32). The
/// header's version byte belongs to the family payload, so an envelope
/// layout change would come with a new magic.
pub const ENVELOPE_MAGIC: u32 = 0x4345_4D41;

// Bit 0 flagged a payload-less empty stream of a retired format; it stays
// unassigned.

/// Flag bit: the payload depends on a **reference snapshot** — at least
/// one unit is delta-coded against previously decoded data identified by
/// the reference id in the payload (the AMRIC pipeline's delta mode).
/// Streams without this flag are self-contained; streams with it decode
/// only given their reference.
pub const FLAG_REFERENCED: u8 = 0b0000_0100;

/// Flag bit: the payload header records a **per-unit error bound** — the
/// stream was produced under an adaptive bound policy and each unit block
/// carries (directly or via a group table) the absolute bound it was
/// quantized with, so decoders and quality metrics can recover the bound
/// actually used. Streams without this flag used one uniform bound.
pub const FLAG_UNIT_BOUNDS: u8 = 0b0000_1000;

/// Stable codec identifiers for the envelope header.
///
/// These ids are part of the on-disk format and must never be renumbered.
/// Families implemented outside this crate (the AMRIC pipeline and the
/// TAC comparator) still take their ids from here so the namespace stays
/// collision-free workspace-wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[repr(u16)]
pub enum CodecId {
    /// SZ_L/R with Shared Lossless Encoding (this crate, [`crate::lr`]).
    LrSle = 1,
    /// SZ_Interp dynamic spline (this crate, [`crate::interp`]).
    Interp = 2,
    /// The full AMRIC pipeline (reorganize + optimized SZ).
    AmricPipeline = 3,
    /// The TAC offline comparator (Morton grouping + black-box SZ).
    Tac = 4,
    // Ids 5 and 6 named two retired offline stream formats, id 7 the
    // retired stand-alone temporal family (temporal delta coding is a mode
    // of the AMRIC pipeline); they stay unknown and are not reused.
}

impl CodecId {
    /// Decode a raw id from an envelope header.
    pub fn from_u16(v: u16) -> Option<CodecId> {
        Some(match v {
            1 => CodecId::LrSle,
            2 => CodecId::Interp,
            3 => CodecId::AmricPipeline,
            4 => CodecId::Tac,
            _ => return None,
        })
    }

    /// Human-readable family name.
    pub fn name(self) -> &'static str {
        match self {
            CodecId::LrSle => "sz-lr",
            CodecId::Interp => "sz-interp",
            CodecId::AmricPipeline => "amric",
            CodecId::Tac => "tac",
        }
    }
}

/// Parsed envelope header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Raw codec id (kept raw so decoders can report unknown ids).
    pub codec: u16,
    /// Payload format version.
    pub version: u8,
    /// Stream flags ([`FLAG_REFERENCED`], [`FLAG_UNIT_BOUNDS`]).
    pub flags: u8,
    /// Byte offset where the family payload starts.
    pub payload_offset: usize,
}

/// Append an envelope header for `id` to the writer.
pub fn write_envelope(w: &mut Writer, id: CodecId, version: u8, flags: u8) {
    w.put_u32(ENVELOPE_MAGIC);
    w.put_u16(id as u16);
    w.put_u8(version);
    w.put_u8(flags);
}

/// Parse the envelope header off the front of `bytes`.
pub fn read_envelope(bytes: &[u8]) -> CodecResult<Envelope> {
    let mut r = Reader::new(bytes);
    let magic = r.get_u32()?;
    if magic != ENVELOPE_MAGIC {
        return Err(CodecError::BadMagic { found: magic });
    }
    let codec = r.get_u16()?;
    let version = r.get_u8()?;
    let flags = r.get_u8()?;
    Ok(Envelope {
        codec,
        version,
        flags,
        payload_offset: bytes.len() - r.remaining(),
    })
}

/// Parse the envelope and require a specific codec id and version — the
/// standard prologue of every family's `decompress`.
pub fn expect_envelope(bytes: &[u8], id: CodecId, version: u8) -> CodecResult<Envelope> {
    let env = read_envelope(bytes)?;
    if env.codec != id as u16 {
        return Err(CodecError::WrongCodec {
            expected: id as u16,
            found: env.codec,
        });
    }
    if env.version != version {
        return Err(CodecError::BadVersion { found: env.version });
    }
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrip() {
        let mut w = Writer::new();
        write_envelope(&mut w, CodecId::Tac, 3, FLAG_REFERENCED);
        w.put_u8(0xAB);
        let bytes = w.into_bytes();
        let env = read_envelope(&bytes).unwrap();
        assert_eq!(env.codec, CodecId::Tac as u16);
        assert_eq!(env.version, 3);
        assert_eq!(env.flags, FLAG_REFERENCED);
        assert_eq!(bytes[env.payload_offset], 0xAB);
    }

    #[test]
    fn envelope_rejects_bad_magic_and_truncation() {
        assert!(matches!(
            read_envelope(b"XXXXXXXX"),
            Err(CodecError::BadMagic { .. })
        ));
        let mut w = Writer::new();
        write_envelope(&mut w, CodecId::LrSle, 1, 0);
        let bytes = w.into_bytes();
        assert!(matches!(
            read_envelope(&bytes[..5]),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn expect_envelope_checks_id_and_version() {
        let mut w = Writer::new();
        write_envelope(&mut w, CodecId::Interp, 1, 0);
        let bytes = w.into_bytes();
        assert!(expect_envelope(&bytes, CodecId::Interp, 1).is_ok());
        assert!(matches!(
            expect_envelope(&bytes, CodecId::LrSle, 1),
            Err(CodecError::WrongCodec { expected, found })
                if expected == CodecId::LrSle as u16 && found == CodecId::Interp as u16
        ));
        assert!(matches!(
            expect_envelope(&bytes, CodecId::Interp, 2),
            Err(CodecError::BadVersion { found: 1 })
        ));
    }

    #[test]
    fn codec_id_round_trips_through_u16() {
        for id in [
            CodecId::LrSle,
            CodecId::Interp,
            CodecId::AmricPipeline,
            CodecId::Tac,
        ] {
            assert_eq!(CodecId::from_u16(id as u16), Some(id));
            assert!(!id.name().is_empty());
        }
        // 5, 6 and 7 are retired, never reassigned.
        for retired in [0, 5, 6, 7] {
            assert_eq!(CodecId::from_u16(retired), None);
        }
        assert_eq!(CodecId::from_u16(999), None);
    }
}
