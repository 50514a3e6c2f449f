//! Typed errors for the fault-tolerance substrate.
//!
//! Mirrors the `TimeStepError` pattern from `sph-core`: every fallible
//! `sph-ft` operation names *what* failed in a matchable enum instead of
//! a formatted `String`, so recovery code can branch on the failure kind
//! (missing vs corrupt vs unstorable) and the chaos suite can assert
//! the exact fault that was detected.

use crate::codec::CodecError;
use std::error::Error;
use std::fmt;

/// Everything that can go wrong in checkpoint storage and the SDC
/// machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum FtError {
    /// Stored bytes failed to decode (bad magic, truncation, checksum…).
    Codec(CodecError),
    /// Nothing stored under this label.
    MissingCheckpoint { label: String },
    /// Underlying storage I/O failed (disk tier only).
    Io { label: String, detail: String },
    /// The store cannot keep this label so that `labels()` returns it
    /// unchanged (disk tier: outside `[A-Za-z0-9_-]`, or empty).
    BadLabel { label: String },
}

impl fmt::Display for FtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtError::Codec(e) => write!(f, "{e}"),
            FtError::MissingCheckpoint { label } => write!(f, "no checkpoint '{label}'"),
            FtError::Io { label, detail } => write!(f, "storage I/O on '{label}': {detail}"),
            FtError::BadLabel { label } => {
                write!(f, "checkpoint label '{label}' is not one of [A-Za-z0-9_-]+")
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
        let e = FtError::Io { label: "ck3".into(), detail: "disk full".into() };
        assert_eq!(e.to_string(), "storage I/O on 'ck3': disk full");
        let e: FtError = CodecError::ChecksumMismatch.into();
        assert!(matches!(e, FtError::Codec(CodecError::ChecksumMismatch)));
        let s: String = FtError::BadLabel { label: "a.b".into() }.into();
        assert!(s.contains("'a.b'"), "{s}");
    }
}
