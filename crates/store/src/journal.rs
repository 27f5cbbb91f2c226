//! The write-ahead journal: an append-only record file with torn-tail
//! recovery and snapshot-rewrite compaction.
//!
//! ```text
//!   create ──► [header][Snapshot]
//!   append ──► [header][Snapshot][Delta][Delta][Delta]...      (O(delta))
//!   compact ─► write [header][Snapshot'] to path.tmp, fsync, rename
//!   open ───► read records until the first bad frame, truncate there
//! ```
//!
//! Appends are buffered writes (no per-record fsync) — the CRC framing
//! makes a torn tail *detectable*, and recovery truncates at the first
//! record that fails validation, so a kill mid-append loses at most the
//! record being written, never the records before it.  Compaction goes
//! through a temp file + atomic rename, so a kill mid-compaction leaves
//! either the old journal or the new snapshot, never a mix.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use lfi_explore::{ExplorationDelta, ExplorationStore};

use crate::format::{self, Frame, RecordKind};
use crate::{codec, Record, StoreError};

/// How many records a typed journal appends after a snapshot before it
/// compacts by default.
pub const DEFAULT_COMPACT_EVERY: u64 = 64;

/// An open append-only record journal.  The typed wrappers
/// ([`ExplorationJournal`]) layer state-tracking and compaction policy on
/// top; the fabric drives this type directly for its job journals, whose
/// deltas it folds itself.
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
    /// Creates (or truncates) a journal at `path`, writing the header and
    /// the given first record — normally a snapshot.
    pub fn create(path: impl AsRef<Path>, first: &Record) -> Result<Journal, StoreError> {
        let path = path.as_ref();
        let (kind, payload) = first.encode();
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StoreError::io(e).with_path(path))?;
        format::write_single_record(&mut file, kind, &payload).map_err(|e| StoreError::io(e).with_path(path))?;
        file.sync_all().map_err(|e| StoreError::io(e).with_path(path))?;
        Ok(Journal { path: path.to_path_buf(), file, appended: 0 })
    }

    /// Opens an existing journal, recovering its durable records.  A torn
    /// tail — any trailing bytes that fail frame validation — is truncated
    /// off the file, so the journal is immediately appendable again.
    /// Hostile bytes never panic: a bad header or version is an error, a
    /// bad record is simply where durability ends.
    pub fn open(path: impl AsRef<Path>) -> Result<(Journal, Vec<Record>), StoreError> {
        let (journal, records) = Self::open_located(path.as_ref())?;
        Ok((journal, records.into_iter().map(|(_, record)| record).collect()))
    }

    /// Opens an exploration journal — a leading [`ExplorationStore`]
    /// snapshot followed by [`ExplorationDelta`] records, as an
    /// [`ExplorationJournal`] or a fabric job writes it — and folds its
    /// durable records into the store they describe (see
    /// [`Journal::open`] for the torn-tail handling).
    pub fn open_exploration(path: impl AsRef<Path>) -> Result<(Journal, ExplorationStore), StoreError> {
        let path = path.as_ref();
        let (journal, records) = Self::open_located(path)?;
        let state = fold_exploration(records).map_err(|e| e.with_path(path))?;
        Ok((journal, state))
    }

    /// [`Journal::open`], keeping each record's byte offset for errors.
    fn open_located(path: &Path) -> Result<(Journal, Vec<(usize, Record)>), StoreError> {
        let mut data = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut data))
            .map_err(|e| StoreError::io(e).with_path(path))?;
        let (records, end) = durable_records(&data).map_err(|e| e.with_path(path))?;
        let file = OpenOptions::new().write(true).open(path).map_err(|e| StoreError::io(e).with_path(path))?;
        file.set_len(end as u64).map_err(|e| StoreError::io(e).with_path(path))?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| StoreError::io(e).with_path(path))?;
        let appended = records.len().saturating_sub(1) as u64;
        Ok((Journal { path: path.to_path_buf(), file, appended }, records))
    }

    /// Appends one record.  Buffered write, no fsync — see the module docs
    /// for the durability trade.
    pub fn append(&mut self, record: &Record) -> Result<(), StoreError> {
        let (kind, payload) = record.encode();
        let mut bytes = Vec::with_capacity(format::FRAME_LEN + payload.len());
        format::write_frame(&mut bytes, kind, &payload);
        self.file.write_all(&bytes).map_err(|e| StoreError::io(e).with_path(&self.path))?;
        self.appended += 1;
        Ok(())
    }

    /// Rewrites the journal as header + `snapshot` alone (temp file +
    /// fsync + atomic rename), resetting the append counter.
    pub fn compact(&mut self, snapshot: &Record) -> Result<(), StoreError> {
        let (kind, payload) = snapshot.encode();
        let tmp = self.path.with_extension("tmp");
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| StoreError::io(e).with_path(&tmp))?;
        format::write_single_record(&mut file, kind, &payload).map_err(|e| StoreError::io(e).with_path(&tmp))?;
        file.sync_all().map_err(|e| StoreError::io(e).with_path(&tmp))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| StoreError::io(e).with_path(&self.path))?;
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| StoreError::io(e).with_path(&self.path))?;
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

/// A typed journal for one exploration: a leading
/// [`ExplorationStore`] snapshot followed by [`ExplorationDelta`] records,
/// compacted back to a fresh snapshot every
/// [`compact_every`](ExplorationJournal::compact_every) deltas.
///
/// The wrapper maintains the folded state in memory, so
/// [`ExplorationJournal::state`] is always the store a recovery would
/// produce — and compaction writes exactly that.
#[derive(Debug)]
pub struct ExplorationJournal {
    journal: Journal,
    state: ExplorationStore,
    compact_every: u64,
}

impl ExplorationJournal {
    /// Creates a journal seeded with a full snapshot of `store`.
    pub fn create(path: impl AsRef<Path>, store: &ExplorationStore) -> Result<Self, StoreError> {
        let journal = Journal::create(path, &Record::ExplorationSnapshot(store.clone()))?;
        Ok(Self { journal, state: store.clone(), compact_every: DEFAULT_COMPACT_EVERY })
    }

    /// Opens and recovers a journal: the leading snapshot with every
    /// durable delta folded in.  Torn tails are truncated (see
    /// [`Journal::open`]).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let (journal, state) = Journal::open_exploration(path)?;
        Ok(Self { journal, state, compact_every: DEFAULT_COMPACT_EVERY })
    }

    /// Sets how many deltas accumulate before an append triggers
    /// compaction (default [`DEFAULT_COMPACT_EVERY`]; clamped to ≥ 1).
    pub fn compact_every(mut self, deltas: u64) -> Self {
        self.compact_every = deltas.max(1);
        self
    }

    /// Appends one delta (O(delta) bytes) and folds it into the in-memory
    /// state; compacts when the configured threshold is reached.
    pub fn append_delta(&mut self, delta: &ExplorationDelta) -> Result<(), StoreError> {
        delta.apply(&mut self.state);
        self.journal.append(&Record::ExplorationDelta(delta.clone()))?;
        if self.journal.appended() >= self.compact_every {
            self.compact()?;
        }
        Ok(())
    }

    /// Rewrites the journal as a single fresh snapshot of the current
    /// state.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        self.journal.compact(&Record::ExplorationSnapshot(self.state.clone()))
    }

    /// The recovered/folded store — what a crashed process would get back.
    pub fn state(&self) -> &ExplorationStore {
        &self.state
    }

    /// Deltas appended since the leading snapshot.
    pub fn deltas_since_snapshot(&self) -> u64 {
        self.journal.appended()
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }
}

/// Decodes a store file's durable records, each with the byte offset of
/// its frame, and the offset where durability ends: the first frame that
/// fails validation or decoding (a CRC-valid but undecodable payload is not
/// usable state either).
pub(crate) fn durable_records(data: &[u8]) -> Result<(Vec<(usize, Record)>, usize), StoreError> {
    let mut offset = format::check_header(data)?;
    let mut records = Vec::new();
    while let Frame::Record { kind, payload, next } = format::read_frame(data, offset) {
        let Ok(record) = Record::decode(kind, payload) else {
            break;
        };
        records.push((offset, record));
        offset = next;
    }
    Ok((records, offset))
}

/// The one exploration fold: a snapshot record sets the state, each delta
/// record applies to it.  Errors name the offending record's byte offset.
pub(crate) fn fold_exploration(records: Vec<(usize, Record)>) -> Result<ExplorationStore, StoreError> {
    let mut state: Option<ExplorationStore> = None;
    for (offset, record) in records {
        match (record, state.as_mut()) {
            (Record::ExplorationSnapshot(store), _) => state = Some(store),
            (Record::ExplorationDelta(delta), Some(state)) => delta.apply(state),
            (Record::ExplorationDelta(_), None) => {
                return Err(StoreError::corrupt(offset as u64, "delta before any snapshot"))
            }
            (record, _) => {
                return Err(StoreError::corrupt(
                    offset as u64,
                    format!("{} record in an exploration journal", record.kind_name()),
                ))
            }
        }
    }
    state.ok_or_else(|| StoreError::corrupt(format::HEADER_LEN as u64, "no durable exploration snapshot record"))
}

/// The human-readable name of a record kind.
pub(crate) fn record_kind_name(kind: RecordKind) -> &'static str {
    match kind {
        RecordKind::ExplorationSnapshot => "exploration-snapshot",
        RecordKind::ExplorationDelta => "exploration-delta",
        RecordKind::ProfileSnapshot => "profile-snapshot",
        RecordKind::ProfileInsert => "profile-insert",
    }
}

impl Record {
    /// Encodes the record to its kind tag and payload bytes.
    pub fn encode(&self) -> (RecordKind, Vec<u8>) {
        match self {
            Record::ExplorationSnapshot(store) => {
                (RecordKind::ExplorationSnapshot, codec::encode_exploration_store(store))
            }
            Record::ExplorationDelta(delta) => (RecordKind::ExplorationDelta, codec::encode_exploration_delta(delta)),
            Record::ProfileSnapshot(store) => (RecordKind::ProfileSnapshot, codec::encode_profile_store(store)),
            Record::ProfileInsert(entry) => (RecordKind::ProfileInsert, codec::encode_profile_entry(entry)),
        }
    }

    /// Decodes a record from its kind tag and payload bytes.
    pub fn decode(kind: RecordKind, payload: &[u8]) -> Result<Record, StoreError> {
        let record = match kind {
            RecordKind::ExplorationSnapshot => Record::ExplorationSnapshot(codec::decode_exploration_store(payload)?),
            RecordKind::ExplorationDelta => Record::ExplorationDelta(codec::decode_exploration_delta(payload)?),
            RecordKind::ProfileSnapshot => Record::ProfileSnapshot(codec::decode_profile_store(payload)?),
            RecordKind::ProfileInsert => Record::ProfileInsert(codec::decode_profile_entry(payload)?),
        };
        Ok(record)
    }

    /// The human-readable name of the record's kind.
    pub fn kind_name(&self) -> &'static str {
        record_kind_name(self.encode_kind())
    }

    fn encode_kind(&self) -> RecordKind {
        match self {
            Record::ExplorationSnapshot(_) => RecordKind::ExplorationSnapshot,
            Record::ExplorationDelta(_) => RecordKind::ExplorationDelta,
            Record::ProfileSnapshot(_) => RecordKind::ProfileSnapshot,
            Record::ProfileInsert(_) => RecordKind::ProfileInsert,
        }
    }
}
