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
//!   A profile snapshot's entries decode in parallel on the worker pool
//!   the profiler shares ([`lfi_profile::run_pooled`]) after one
//!   sequential scan delimits them, with exactly the sequential loop's
//!   result: the first failing entry in entry order reports the error
//!   (see [`decode_profile_store`]).
//! * **One write-ahead exploration journal** ([`Journal`]) — a
//!   full-snapshot record plus O(delta)
//!   [`ExplorationDelta`](lfi_explore::ExplorationDelta) records, which the
//!   explorer's batch loop and the fabric scheduler both append — with one
//!   compaction policy (every 32 appends, from the caller's snapshot) and
//!   torn-tail recovery: a kill mid-append loses at most the record being
//!   written.  The journal keeps no copy of the state it records.
//! * **Format-sniffing file helpers** ([`load_profile_store`],
//!   [`load_exploration`], …) — load paths accept either format by magic,
//!   so binary adoption never breaks an XML workflow.
//!
//! The byte-identity contract: a store written and reloaded through the
//! binary codec equals the original exactly, so XML → binary → XML
//! round-trips byte-identically.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod codec;
mod error;
pub mod format;
mod journal;

use std::fs::{self, File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};

use lfi_explore::ExplorationStore;
use lfi_profile::ProfileStore;

pub use codec::{
    decode_exploration_delta, decode_exploration_store, decode_profile_store, encode_exploration_delta,
    encode_exploration_store, encode_profile_store,
};
pub use error::{StoreError, StoreErrorKind, StoreFormat};
pub use journal::Journal;

/// Sniffs the on-disk format of `path` by its magic bytes.
pub fn sniff_format(path: impl AsRef<Path>) -> Result<StoreFormat, StoreError> {
    let path = path.as_ref();
    let mut magic = [0u8; 4];
    let mut file = fs::File::open(path).map_err(|e| StoreError::io(e).with_path(path))?;
    let read = file.read(&mut magic).map_err(|e| StoreError::io(e).with_path(path))?;
    Ok(sniff_bytes(&magic[..read]))
}

/// The format a file's leading bytes announce.
fn sniff_bytes(data: &[u8]) -> StoreFormat {
    if data.starts_with(&format::MAGIC) {
        StoreFormat::Binary
    } else {
        StoreFormat::Xml
    }
}

/// Reads a whole file, with path context on failure.
fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    fs::read(path).map_err(|e| StoreError::io(e).with_path(path))
}

/// Takes a file's bytes as XML text, without copying them.
fn xml_text(data: Vec<u8>) -> Result<String, StoreError> {
    String::from_utf8(data).map_err(|e| StoreError {
        format: Some(StoreFormat::Xml),
        ..StoreError::corrupt(e.utf8_error().valid_up_to() as u64, "non-UTF-8 XML document")
    })
}

/// Decodes a single-record binary snapshot file's bytes, checking header
/// and kind, by handing `decode` the record's payload in place.
fn read_snapshot<T>(
    data: &[u8],
    expect: format::RecordKind,
    decode: impl FnOnce(&[u8]) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let start = format::check_header(data)?;
    match format::read_frame(data, start) {
        format::Frame::Record { kind, payload, .. } if kind == expect => decode(payload),
        format::Frame::Record { kind, .. } => Err(StoreError::corrupt(
            start as u64,
            format!("expected a {} record, found {}", expect.name(), kind.name()),
        )),
        _ => Err(StoreError::corrupt(start as u64, "damaged or truncated snapshot record")),
    }
}

/// Replaces `path` with a single-record binary snapshot file (header + one
/// record): writes `<file name>.tmp`, syncs it, renames it over `path` and
/// syncs the directory, so a kill or a failed write mid-save leaves either
/// the old file or the new one, never a mix.  Returns the new file,
/// positioned after the record for appends.
pub(crate) fn write_snapshot(path: &Path, kind: format::RecordKind, payload: &[u8]) -> Result<File, StoreError> {
    let tmp = temp_path(path);
    let io = |error| StoreError::io(error).with_path(&tmp);
    let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(&tmp).map_err(io)?;
    format::write_single_record(&mut file, kind, payload).map_err(io)?;
    file.sync_all().map_err(io)?;
    fs::rename(&tmp, path).map_err(|error| StoreError::io(error).with_path(path))?;
    sync_parent(path)?;
    Ok(file)
}

/// The temp file a snapshot is written to before it is renamed over
/// `path`: the file name with `.tmp` appended, so it is never `path` itself
/// (`x.tmp` is written through `x.tmp.tmp`).
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Syncs the directory holding `path`, so that a created or renamed entry
/// survives a crash.
fn sync_parent(path: &Path) -> Result<(), StoreError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)
        .and_then(|dir| dir.sync_all())
        .map_err(|error| StoreError::io(error).with_path(dir))
}

/// Saves a [`ProfileStore`] as a binary snapshot file, atomically: a
/// failed save leaves the previous file at `path` as it was.
pub fn save_profile_store(path: impl AsRef<Path>, store: &ProfileStore) -> Result<(), StoreError> {
    write_snapshot(path.as_ref(), format::RecordKind::ProfileSnapshot, &encode_profile_store(store)).map(drop)
}

/// Loads a [`ProfileStore`] from `path`, sniffing the format by magic:
/// binary snapshot files decode through the checked codec, anything else
/// parses as the XML interchange format.  Errors name the path, offset and
/// detected format; truncated or hostile input never panics.
pub fn load_profile_store(path: impl AsRef<Path>) -> Result<ProfileStore, StoreError> {
    let path = path.as_ref();
    let data = read_file(path)?;
    match sniff_bytes(&data) {
        StoreFormat::Binary => read_snapshot(&data, format::RecordKind::ProfileSnapshot, decode_profile_store),
        StoreFormat::Xml => xml_text(data).and_then(|text| ProfileStore::from_xml(&text).map_err(StoreError::xml)),
    }
    .map_err(|e| e.with_path(path))
}

/// Saves an [`ExplorationStore`] as a binary snapshot file, atomically: a
/// failed save leaves the previous file at `path` as it was.
pub fn save_exploration(path: impl AsRef<Path>, store: &ExplorationStore) -> Result<(), StoreError> {
    write_snapshot(path.as_ref(), format::RecordKind::ExplorationSnapshot, &encode_exploration_store(store)).map(drop)
}

/// Loads an [`ExplorationStore`] from `path`, sniffing the format by
/// magic.  A binary file may be either a plain snapshot or a full journal
/// — a journal is recovered through the same fold as [`Journal::open`]
/// (snapshot + durable deltas, torn tail truncated in memory, the file
/// left untouched).
pub fn load_exploration(path: impl AsRef<Path>) -> Result<ExplorationStore, StoreError> {
    let path = path.as_ref();
    let data = read_file(path)?;
    match sniff_bytes(&data) {
        StoreFormat::Binary => journal::recover(&data).map(|(store, ..)| store),
        StoreFormat::Xml => xml_text(data).and_then(|text| ExplorationStore::from_xml(&text).map_err(StoreError::xml)),
    }
    .map_err(|e| e.with_path(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_snapshot_temp_file_is_never_the_target_itself() {
        for path in ["x.tmp", "dir/x.tmp", "journal", "job.lfij", "/abs/a.b.tmp", ".tmp"] {
            let path = Path::new(path);
            let tmp = temp_path(path);
            assert_ne!(tmp, path);
            assert_eq!(tmp.parent(), path.parent(), "{tmp:?} stays beside {path:?}");
        }
        assert_eq!(temp_path(Path::new("dir/x.tmp")), Path::new("dir/x.tmp.tmp"));
    }
}
