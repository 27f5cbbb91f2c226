//! # lfi-store — journaled binary persistence for LFI state
//!
//! The paper's workflow (§3, §6) computes fault profiles once and replays
//! them across many campaigns, and its exploration state must survive
//! kills: both call for persistence that is cheap to *update*, not just to
//! write.  The XML stores (`ProfileStore::to_xml`,
//! `ExplorationStore::to_xml`) stay as the human-readable interchange
//! format; this crate adds the machine format behind them:
//!
//! * **A versioned, checksummed record format** ([`mod@format`]) — magic +
//!   format version per file, CRC-32 per record — encoding the profile and
//!   exploration stores compactly (decoded in place from the file's
//!   bytes, without copying the payload).
//!   Decoding never panics on hostile bytes: every failure is a
//!   [`StoreError`] naming the path, byte offset and detected format.
//! * **A write-ahead journal** ([`Journal`], [`ExplorationJournal`]) —
//!   full-snapshot records plus O(delta)
//!   [`ExplorationDelta`](lfi_explore::ExplorationDelta) records, which the
//!   explorer's batch loop and the fabric scheduler both append — with
//!   periodic compaction and torn-tail recovery: a kill mid-append loses at
//!   most the record being written.
//! * **Format-sniffing file helpers** ([`load_profile_store`],
//!   [`load_exploration`], …) — load paths accept either format by magic,
//!   so binary adoption never breaks an XML workflow.
//!
//! The byte-identity contract: a store written and reloaded through the
//! binary codec equals the original exactly, so XML → binary → XML
//! round-trips byte-identically.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod error;
pub mod format;
mod journal;

use std::fs;
use std::io::Read;
use std::path::Path;

use lfi_explore::ExplorationStore;
use lfi_profile::{FaultProfile, ProfileKey, ProfileStore};

pub use codec::{
    decode_exploration_delta, decode_exploration_store, decode_profile_entry, decode_profile_store,
    encode_exploration_delta, encode_exploration_store, encode_profile_entry, encode_profile_store,
};
pub use error::{StoreError, StoreErrorKind, StoreFormat};
pub use journal::{ExplorationJournal, Journal, DEFAULT_COMPACT_EVERY};

/// One journaled record — the unit the [`Journal`] appends and recovers.
#[derive(Debug, Clone)]
pub enum Record {
    /// A full exploration snapshot.
    ExplorationSnapshot(ExplorationStore),
    /// One exploration step's state changes.
    ExplorationDelta(lfi_explore::ExplorationDelta),
    /// A full profile-store snapshot.
    ProfileSnapshot(ProfileStore),
    /// One profile insertion.
    ProfileInsert(ProfileEntry),
}

/// One profile-store insertion: the key and the profile stored under it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// The store key.
    pub key: ProfileKey,
    /// The stored profile.
    pub profile: FaultProfile,
}

/// Sniffs the on-disk format of `path` by its magic bytes.
pub fn sniff_format(path: impl AsRef<Path>) -> Result<StoreFormat, StoreError> {
    let path = path.as_ref();
    let mut magic = [0u8; 4];
    let mut file = fs::File::open(path).map_err(|e| StoreError::io(e).with_path(path))?;
    let read = file.read(&mut magic).map_err(|e| StoreError::io(e).with_path(path))?;
    Ok(if read == 4 && magic == format::MAGIC { StoreFormat::Binary } else { StoreFormat::Xml })
}

/// Reads a whole file, with path context on failure.
fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    fs::read(path).map_err(|e| StoreError::io(e).with_path(path))
}

/// Decodes a single-record binary snapshot file, checking header and kind,
/// by handing `decode` the record's payload in place.
fn read_snapshot<T>(
    path: &Path,
    expect: format::RecordKind,
    decode: impl FnOnce(&[u8]) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let data = read_file(path)?;
    let start = format::check_header(&data).map_err(|e| e.with_path(path))?;
    match format::read_frame(&data, start) {
        format::Frame::Record { kind, payload, .. } if kind == expect => decode(payload).map_err(|e| e.with_path(path)),
        format::Frame::Record { kind, .. } => Err(StoreError::corrupt(
            start as u64,
            format!(
                "expected a {} record, found {}",
                journal::record_kind_name(expect),
                journal::record_kind_name(kind)
            ),
        )
        .with_path(path)),
        _ => Err(StoreError::corrupt(start as u64, "damaged or truncated snapshot record").with_path(path)),
    }
}

/// Writes a single-record binary snapshot file (header + one record).
fn write_snapshot(path: &Path, kind: format::RecordKind, payload: &[u8]) -> Result<(), StoreError> {
    let mut bytes = Vec::with_capacity(format::HEADER_LEN + format::FRAME_LEN + payload.len());
    format::write_header(&mut bytes);
    format::write_frame(&mut bytes, kind, payload);
    fs::write(path, bytes).map_err(|e| StoreError::io(e).with_path(path))
}

/// Saves a [`ProfileStore`] as a binary snapshot file.
pub fn save_profile_store(path: impl AsRef<Path>, store: &ProfileStore) -> Result<(), StoreError> {
    write_snapshot(path.as_ref(), format::RecordKind::ProfileSnapshot, &encode_profile_store(store))
}

/// Loads a [`ProfileStore`] from `path`, sniffing the format by magic:
/// binary snapshot files decode through the checked codec, anything else
/// parses as the XML interchange format.  Errors name the path, offset and
/// detected format; truncated or hostile input never panics.
pub fn load_profile_store(path: impl AsRef<Path>) -> Result<ProfileStore, StoreError> {
    let path = path.as_ref();
    match sniff_format(path)? {
        StoreFormat::Binary => read_snapshot(path, format::RecordKind::ProfileSnapshot, decode_profile_store),
        StoreFormat::Xml => {
            let text = String::from_utf8(read_file(path)?).map_err(|e| {
                StoreError::corrupt(e.utf8_error().valid_up_to() as u64, "non-UTF-8 XML document")
                    .with_format(StoreFormat::Xml)
                    .with_path(path)
            })?;
            ProfileStore::from_xml(&text).map_err(|e| StoreError::xml(e).with_path(path))
        }
    }
}

/// Saves an [`ExplorationStore`] as a binary snapshot file.
pub fn save_exploration(path: impl AsRef<Path>, store: &ExplorationStore) -> Result<(), StoreError> {
    write_snapshot(path.as_ref(), format::RecordKind::ExplorationSnapshot, &encode_exploration_store(store))
}

/// Loads an [`ExplorationStore`] from `path`, sniffing the format by
/// magic.  A binary file may be either a plain snapshot or a full journal
/// — a journal is recovered (snapshot + durable deltas, torn tail
/// truncated in memory, the file left untouched).
pub fn load_exploration(path: impl AsRef<Path>) -> Result<ExplorationStore, StoreError> {
    let path = path.as_ref();
    match sniff_format(path)? {
        StoreFormat::Binary => journal::durable_records(&read_file(path)?)
            .and_then(|(records, _)| journal::fold_exploration(records))
            .map_err(|e| e.with_path(path)),
        StoreFormat::Xml => {
            let text = String::from_utf8(read_file(path)?).map_err(|e| {
                StoreError::corrupt(e.utf8_error().valid_up_to() as u64, "non-UTF-8 XML document")
                    .with_format(StoreFormat::Xml)
                    .with_path(path)
            })?;
            ExplorationStore::from_xml(&text).map_err(|e| StoreError::xml(e).with_path(path))
        }
    }
}

/// Parses an [`ExplorationStore`] from XML text, wrapping failures in a
/// [`StoreError`] (format context included) instead of a raw
/// `ProfileError` — the robustness wrapper in-memory callers share with
/// the file path.
pub fn exploration_from_xml(text: &str) -> Result<ExplorationStore, StoreError> {
    ExplorationStore::from_xml(text).map_err(StoreError::xml)
}

/// Parses a [`ProfileStore`] from XML text, wrapping failures in a
/// [`StoreError`].
pub fn profile_store_from_xml(text: &str) -> Result<ProfileStore, StoreError> {
    ProfileStore::from_xml(text).map_err(StoreError::xml)
}
