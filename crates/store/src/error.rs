//! [`StoreError`]: every persistence failure, with the context a user needs
//! to act on it — which file, at which byte offset, in which format.

use std::error::Error;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use lfi_profile::ProfileError;

/// The on-disk format a load path detected (or was asked to write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFormat {
    /// The XML interchange format (`to_xml`/`from_xml`).
    Xml,
    /// The `lfi-store` binary record format (magic `LFIS`).
    Binary,
}

impl fmt::Display for StoreFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreFormat::Xml => f.write_str("xml"),
            StoreFormat::Binary => f.write_str("binary"),
        }
    }
}

/// What went wrong, independent of where.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreErrorKind {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The bytes do not decode as the detected format.
    Corrupt {
        /// What the decoder was reading when it gave up.
        message: String,
    },
    /// The file carries the right magic but a format version this build
    /// does not understand.
    UnsupportedVersion {
        /// The version the file claims.
        found: u16,
    },
    /// An XML-format document failed to parse.
    Xml(ProfileError),
}

/// A persistence error, carrying the path, byte offset and detected format
/// of the failing load or save.  Load paths never panic on truncated or
/// hostile input — every such condition surfaces as a `StoreError`.
#[derive(Debug)]
pub struct StoreError {
    /// The file involved, when the operation had one.
    pub path: Option<PathBuf>,
    /// Byte offset of the failure within the file, when known.
    pub offset: Option<u64>,
    /// The format the operation detected or targeted, when known.
    pub format: Option<StoreFormat>,
    /// The underlying failure.
    pub kind: StoreErrorKind,
}

impl StoreError {
    /// An IO failure with no location context yet.
    pub(crate) fn io(error: io::Error) -> Self {
        Self { path: None, offset: None, format: None, kind: StoreErrorKind::Io(error) }
    }

    /// A corruption failure at a byte offset.
    pub(crate) fn corrupt(offset: u64, message: impl Into<String>) -> Self {
        Self {
            path: None,
            offset: Some(offset),
            format: Some(StoreFormat::Binary),
            kind: StoreErrorKind::Corrupt { message: message.into() },
        }
    }

    /// A version-mismatch failure.
    pub(crate) fn unsupported_version(found: u16) -> Self {
        Self {
            path: None,
            offset: None,
            format: Some(StoreFormat::Binary),
            kind: StoreErrorKind::UnsupportedVersion { found },
        }
    }

    /// An XML parse failure.
    pub(crate) fn xml(error: ProfileError) -> Self {
        Self { path: None, offset: None, format: Some(StoreFormat::Xml), kind: StoreErrorKind::Xml(error) }
    }

    /// Attaches the file path (kept if already set).
    pub(crate) fn with_path(mut self, path: impl AsRef<Path>) -> Self {
        if self.path.is_none() {
            self.path = Some(path.as_ref().to_path_buf());
        }
        self
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            StoreErrorKind::Io(error) => write!(f, "store io error: {error}")?,
            StoreErrorKind::Corrupt { message } => write!(f, "corrupt store data: {message}")?,
            StoreErrorKind::UnsupportedVersion { found } => {
                write!(f, "unsupported store format version {found}")?;
            }
            StoreErrorKind::Xml(error) => write!(f, "xml parse error: {error}")?,
        }
        if let Some(format) = self.format {
            write!(f, " [format: {format}]")?;
        }
        if let Some(offset) = self.offset {
            write!(f, " [offset: {offset}]")?;
        }
        if let Some(path) = &self.path {
            write!(f, " [path: {}]", path.display())?;
        }
        Ok(())
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            StoreErrorKind::Io(error) => Some(error),
            StoreErrorKind::Xml(error) => Some(error),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(error: io::Error) -> Self {
        StoreError::io(error)
    }
}
