//! Typed errors for the fault-tolerance substrate.
//!
//! Mirrors the `TimeStepError` pattern from `sph-core`: every fallible
//! `sph-ft` operation names *what* failed in a matchable enum instead of
//! a formatted `String`, so recovery code can branch on the failure kind
//! (missing vs corrupt vs unsupported) and the chaos suite can assert
//! the exact fault that was detected.

use crate::codec::CodecError;
use std::error::Error;
use std::fmt;

/// Everything that can go wrong in checkpoint storage and the SDC
/// machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum FtError {
    /// Snapshot bytes failed to decode (bad magic, truncation, checksum…).
    Codec(CodecError),
    /// No snapshot stored under this label.
    MissingCheckpoint { label: String },
    /// No blob stored under this label.
    MissingBlob { label: String },
    /// A blob's integrity trailer failed verification *before* decoding.
    BlobCorrupted { label: String, detail: String },
    /// Underlying storage I/O failed (disk tier only).
    Io { label: String, detail: String },
    /// The store does not implement this operation.
    Unsupported { what: &'static str },
}

impl fmt::Display for FtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtError::Codec(e) => write!(f, "{e}"),
            FtError::MissingCheckpoint { label } => write!(f, "no checkpoint '{label}'"),
            FtError::MissingBlob { label } => write!(f, "no blob '{label}'"),
            FtError::BlobCorrupted { label, detail } => {
                write!(f, "blob '{label}' corrupted: {detail}")
            }
            FtError::Io { label, detail } => write!(f, "storage I/O on '{label}': {detail}"),
            FtError::Unsupported { what } => {
                write!(f, "this checkpoint store does not support {what}")
            }
        }
    }
}

impl Error for FtError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FtError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for FtError {
    fn from(e: CodecError) -> Self {
        FtError::Codec(e)
    }
}

impl From<FtError> for String {
    fn from(e: FtError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_specific() {
        let e = FtError::BlobCorrupted { label: "ck3".into(), detail: "trailer mismatch".into() };
        assert_eq!(e.to_string(), "blob 'ck3' corrupted: trailer mismatch");
        let e: FtError = CodecError::ChecksumMismatch.into();
        assert!(matches!(e, FtError::Codec(CodecError::ChecksumMismatch)));
        let s: String = FtError::Unsupported { what: "raw blobs" }.into();
        assert!(s.contains("raw blobs"));
    }
}
