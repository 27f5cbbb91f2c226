//! The exploration journal: an append-only record file holding a leading
//! [`ExplorationStore`] snapshot and the [`ExplorationDelta`]s after it,
//! with torn-tail recovery and snapshot-rewrite compaction.
//!
//! ```text
//!   create ──► write [header][Snapshot] to <name>.tmp, fsync, rename, fsync dir
//!   append ──► [header][Snapshot][Delta][Delta][Delta]...      (O(delta))
//!   compact ─► write [header][Snapshot'] to <name>.tmp, fsync, rename, fsync dir
//!   open ───► fold records until the first bad frame, truncate there
//! ```
//!
//! Appends are buffered writes (no per-record fsync) — the CRC framing
//! makes a torn tail *detectable*, and recovery truncates at the first
//! record that fails validation, so a kill mid-append loses at most the
//! record being written, never the records before it.  Creation and
//! compaction go through a temp file + atomic rename, and sync the
//! directory after the rename, so a kill mid-compaction leaves either the
//! old journal or the new snapshot, never a mix.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use lfi_explore::{ExplorationDelta, ExplorationStore};

use crate::format::{self, Frame, RecordKind};
use crate::{codec, StoreError};

/// Appends after which [`Journal::append`] compacts the journal back to one
/// snapshot — the one compaction policy the explorer and the fabric share.
const COMPACT_EVERY: u64 = 32;

/// An open exploration journal: the one journal the explorer and the
/// fabric both append to, compact and recover through.
///
/// The journal holds no copy of the state it records: the caller owns the
/// live store (an [`Explorer`](lfi_explore::Explorer) or a fabric job) and
/// hands a snapshot of it over when a compaction is due.
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Records appended since the journal's leading snapshot was written
    /// (by [`Journal::create`] or the last [`Journal::compact`]).
    appended: u64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("appended", &self.appended)
            .finish()
    }
}

impl Journal {
    /// Creates (or replaces) a journal at `path` holding one snapshot of
    /// `store`, written the way [`Journal::compact`] writes it.
    pub fn create(path: impl AsRef<Path>, store: &ExplorationStore) -> Result<Journal, StoreError> {
        let path = path.as_ref();
        let file = write_snapshot(path, store)?;
        Ok(Journal { path: path.to_path_buf(), file, appended: 0 })
    }

    /// Opens an existing journal and folds its durable records — the
    /// leading snapshot with every delta after it applied — into the store
    /// they describe.  A torn tail — any trailing bytes that fail frame
    /// validation — is truncated off the file, so the journal is
    /// immediately appendable again.  Hostile bytes never panic: a bad
    /// header or version is an error, a bad record is simply where
    /// durability ends, and a file the fold refuses is left untouched.
    pub fn open(path: impl AsRef<Path>) -> Result<(Journal, ExplorationStore), StoreError> {
        let path = path.as_ref();
        let io = |error| StoreError::io(error).with_path(path);
        let data = std::fs::read(path).map_err(io)?;
        let (store, appended, end) = recover(&data).map_err(|error| error.with_path(path))?;
        let file = OpenOptions::new().append(true).open(path).map_err(io)?;
        file.set_len(end as u64).map_err(io)?;
        Ok((Journal { path: path.to_path_buf(), file, appended }, store))
    }

    /// Appends one delta record (O(delta) bytes; buffered write, no fsync —
    /// see the module docs for the durability trade).  Every 32nd append
    /// since the leading snapshot compacts the journal to `snapshot()`,
    /// which must be the store with this delta applied; `snapshot` is not
    /// called otherwise.  A `None` snapshot puts the compaction off to the
    /// next append.
    pub fn append<S: Into<Option<ExplorationStore>>>(
        &mut self,
        delta: &ExplorationDelta,
        snapshot: impl FnOnce() -> S,
    ) -> Result<(), StoreError> {
        let payload = codec::encode_exploration_delta(delta);
        let mut bytes = Vec::with_capacity(format::FRAME_LEN + payload.len());
        format::write_frame(&mut bytes, RecordKind::ExplorationDelta, &payload);
        self.file.write_all(&bytes).map_err(|error| StoreError::io(error).with_path(&self.path))?;
        self.appended += 1;
        if self.appended < COMPACT_EVERY {
            return Ok(());
        }
        match snapshot().into() {
            Some(store) => self.compact(&store),
            None => Ok(()),
        }
    }

    /// Rewrites the journal as one snapshot of `store` (temp file + fsync +
    /// atomic rename + directory fsync), resetting the append counter.
    pub fn compact(&mut self, store: &ExplorationStore) -> Result<(), StoreError> {
        self.file = write_snapshot(&self.path, store)?;
        self.appended = 0;
        Ok(())
    }

    /// Records appended since the leading snapshot.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Replaces `path` with a one-snapshot journal of `store` (see
/// [`crate::write_snapshot`]), returning the file positioned for appends.
fn write_snapshot(path: &Path, store: &ExplorationStore) -> Result<File, StoreError> {
    crate::write_snapshot(path, RecordKind::ExplorationSnapshot, &codec::encode_exploration_store(store))
}

/// The one exploration fold, shared by [`Journal::open`] and
/// [`load_exploration`](crate::load_exploration): a snapshot record sets
/// the state, each delta record applies to it.  Returns the store, the
/// records after the first, and the offset where durability ends: the
/// first frame that fails validation or whose payload does not decode.  A
/// record of another kind, or a delta before any snapshot, is an error
/// naming that record's byte offset.
pub(crate) fn recover(data: &[u8]) -> Result<(ExplorationStore, u64, usize), StoreError> {
    let mut offset = format::check_header(data)?;
    let mut state: Option<ExplorationStore> = None;
    let mut records = 0u64;
    while let Frame::Record { kind, payload, next } = format::read_frame(data, offset) {
        match kind {
            RecordKind::ExplorationSnapshot => match codec::decode_exploration_store(payload) {
                Ok(store) => state = Some(store),
                Err(_) => break,
            },
            RecordKind::ExplorationDelta => {
                let Ok(delta) = codec::decode_exploration_delta(payload) else {
                    break;
                };
                let Some(state) = state.as_mut() else {
                    return Err(StoreError::corrupt(offset as u64, "delta before any snapshot"));
                };
                delta.apply(state);
            }
            other => {
                return Err(StoreError::corrupt(
                    offset as u64,
                    format!("{} record in an exploration journal", other.name()),
                ))
            }
        }
        records += 1;
        offset = next;
    }
    let state = state
        .ok_or_else(|| StoreError::corrupt(format::HEADER_LEN as u64, "no durable exploration snapshot record"))?;
    Ok((state, records - 1, offset))
}
