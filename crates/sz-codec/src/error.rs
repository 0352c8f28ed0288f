//! Structured error hierarchy for every compressed-stream decoder in the
//! workspace.
//!
//! All decode paths — the wire primitives, the SZ containers, the AMRIC
//! pipeline, and the offline comparators — fail through [`CodecError`], a
//! typed enum instead of a stringly error. Callers can match on the
//! variant (e.g. distinguish a truncated stream from a wrong-family magic)
//! and `h5lite` converts it losslessly into its own error type.

/// Error type for malformed or unsupported compressed streams.
///
/// The enum is `#[non_exhaustive]`: new failure classes may be added
/// without a breaking change, so downstream matches need a `_` arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The stream ended before a read completed.
    Truncated {
        /// Byte offset the failed read started at.
        offset: usize,
        /// Bytes the read needed.
        need: usize,
        /// Bytes that were actually left.
        have: usize,
    },
    /// The leading magic word does not match the expected stream family.
    BadMagic {
        /// The magic word found in the stream.
        found: u32,
    },
    /// The stream's format version is not supported by this build.
    BadVersion {
        /// The version byte found in the stream.
        found: u8,
    },
    /// An unknown mode / tag byte inside an otherwise valid stream.
    BadMode {
        /// The mode byte found in the stream.
        found: u8,
    },
    /// The stream belongs to a different (known) codec family than the
    /// decoder it was handed to.
    WrongCodec {
        /// The codec id the decoder expected.
        expected: u16,
        /// The codec id found in the envelope.
        found: u16,
    },
    /// A header parameter is structurally invalid (non-positive error
    /// bound, zero block size, …).
    BadParameter {
        /// Which parameter was rejected.
        what: &'static str,
    },
    /// Decoded dimensions, extents, or counts are mutually inconsistent.
    DimsMismatch {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A decoded count or length implies more data than the stream holds —
    /// rejected before it can drive an absurd allocation.
    LimitExceeded {
        /// What was being counted.
        what: &'static str,
        /// The (implausible) value the stream claimed.
        claimed: u128,
        /// What the stream could actually back.
        available: u128,
    },
    /// Any other structural corruption (invalid entropy code, LZ token
    /// stream inconsistency, exhausted symbol stream, …).
    Corrupt {
        /// Human-readable description of the corruption.
        detail: String,
    },
}

impl CodecError {
    /// Catch-all constructor for structural corruption.
    pub fn corrupt(detail: impl Into<String>) -> Self {
        CodecError::Corrupt {
            detail: detail.into(),
        }
    }

    /// Constructor for dimension / extent / count inconsistencies.
    pub fn dims(detail: impl Into<String>) -> Self {
        CodecError::DimsMismatch {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { offset, need, have } => write!(
                f,
                "truncated stream: need {need} bytes at offset {offset}, have {have}"
            ),
            CodecError::BadMagic { found } => write!(f, "bad stream magic {found:#010x}"),
            CodecError::BadVersion { found } => write!(f, "unsupported format version {found}"),
            CodecError::BadMode { found } => write!(f, "unknown stream mode {found}"),
            CodecError::WrongCodec { expected, found } => write!(
                f,
                "stream belongs to codec id {found}, decoder expected {expected}"
            ),
            CodecError::BadParameter { what } => write!(f, "invalid stream parameter: {what}"),
            CodecError::DimsMismatch { detail } => write!(f, "dimension mismatch: {detail}"),
            CodecError::LimitExceeded {
                what,
                claimed,
                available,
            } => write!(
                f,
                "implausible {what}: stream claims {claimed}, can back {available}"
            ),
            CodecError::Corrupt { detail } => write!(f, "corrupt stream: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decode paths.
pub type CodecResult<T> = Result<T, CodecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CodecError::Truncated {
            offset: 4,
            need: 8,
            have: 2,
        };
        assert!(e.to_string().contains("offset 4"));
        assert!(CodecError::BadMagic { found: 0xdead_beef }
            .to_string()
            .contains("0xdeadbeef"));
        assert!(CodecError::corrupt("x").to_string().contains('x'));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CodecError::BadMode { found: 7 });
    }
}
