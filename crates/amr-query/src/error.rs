//! Typed errors for the query subsystem.

use h5lite::H5Error;
use sz_codec::CodecError;

/// Anything that can go wrong answering a query.
#[derive(Debug)]
pub enum QueryError {
    /// The container layer failed (I/O, malformed file, missing dataset).
    H5(H5Error),
    /// A chunk stream failed to decode.
    Codec(CodecError),
    /// The query itself is invalid for this file (bad field, level out of
    /// range, coordinate outside the domain, …).
    BadQuery(String),
    /// The file's stored layout contradicts its own metadata (a stored
    /// chunk extent or a decoded chunk does not match the reconstructed
    /// unit plan).
    Inconsistent(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::H5(e) => write!(f, "container error: {e}"),
            QueryError::Codec(e) => write!(f, "chunk decode failed: {e}"),
            QueryError::BadQuery(m) => write!(f, "invalid query: {m}"),
            QueryError::Inconsistent(m) => write!(f, "inconsistent plotfile: {m}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::H5(e) => Some(e),
            QueryError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<H5Error> for QueryError {
    fn from(e: H5Error) -> Self {
        QueryError::H5(e)
    }
}

impl From<CodecError> for QueryError {
    fn from(e: CodecError) -> Self {
        QueryError::Codec(e)
    }
}

/// Result alias.
pub type QueryResult<T> = Result<T, QueryError>;
