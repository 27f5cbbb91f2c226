//! The on-disk framing: file header, record frames, and the CRC that
//! guards them.
//!
//! ```text
//! file   := header record*
//! header := magic "LFIS" (4) | version u16 LE | reserved u16 LE
//! record := kind u8 | len u32 LE | crc u32 LE | payload (len bytes)
//! ```
//!
//! `crc` is CRC-32 (IEEE) over `kind` followed by the payload, so neither a
//! flipped kind byte nor a damaged payload passes validation.  A record
//! that fails any check — short header, impossible length, bad CRC,
//! unknown kind — marks the *torn tail*: readers stop at the offset where
//! that record starts and report everything before it as durable.

/// The four magic bytes every `lfi-store` file starts with.
pub const MAGIC: [u8; 4] = *b"LFIS";

/// The format version this build reads and writes.  Version 3 dropped the
/// wall-clock fields of exploration snapshots and deltas and a delta's list
/// of removed frontier cells (the fold derives it); version 2 dropped
/// version 1's fabric ack record.  A file of any other version gets the
/// unsupported-version error before anything reads or truncates it.
pub const FORMAT_VERSION: u16 = 3;

/// Size of the file header in bytes.
pub const HEADER_LEN: usize = 8;

/// Size of a record frame's own header (kind + len + crc) in bytes.
pub const FRAME_LEN: usize = 9;

/// Record kind tags.  Unknown tags are treated as corruption, which is
/// what lets a future version extend the set: an old reader stops cleanly
/// at the first record it does not understand.  The explorer and the
/// fabric both journal a leading exploration snapshot followed by
/// exploration deltas; a profile store file is one profile snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// A full [`ExplorationStore`](lfi_explore::ExplorationStore) snapshot.
    ExplorationSnapshot = 1,
    /// An [`ExplorationDelta`](lfi_explore::ExplorationDelta).
    ExplorationDelta = 2,
    // Tag 3 held version 1's fabric ack record: retired, never reuse.
    /// A full [`ProfileStore`](lfi_profile::ProfileStore) snapshot.
    ProfileSnapshot = 4,
    // Tag 5 held a single profile insertion that nothing wrote: retired,
    // never reuse.
}

impl RecordKind {
    /// Decodes a kind tag.
    pub fn from_u8(tag: u8) -> Option<RecordKind> {
        match tag {
            1 => Some(RecordKind::ExplorationSnapshot),
            2 => Some(RecordKind::ExplorationDelta),
            4 => Some(RecordKind::ProfileSnapshot),
            _ => None,
        }
    }

    /// The kind's human-readable name, as errors print it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            RecordKind::ExplorationSnapshot => "exploration-snapshot",
            RecordKind::ExplorationDelta => "exploration-delta",
            RecordKind::ProfileSnapshot => "profile-snapshot",
        }
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) over `bytes`,
/// seeded by `seed` (start from `0` for a fresh checksum).  Table-driven —
/// no external crate.
pub fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    // Slicing-by-8: table[0] is the classic byte-at-a-time table, table[k]
    // folds a byte that sits k positions deeper into the stream, so each
    // step consumes 8 input bytes with 8 independent lookups.
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for i in 0..256u32 {
            let mut crc = i;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            tables[0][i as usize] = crc;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            }
        }
        tables
    });
    let mut crc = !seed;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = tables[7][(lo & 0xFF) as usize]
            ^ tables[6][((lo >> 8) & 0xFF) as usize]
            ^ tables[5][((lo >> 16) & 0xFF) as usize]
            ^ tables[4][(lo >> 24) as usize]
            ^ tables[3][(hi & 0xFF) as usize]
            ^ tables[2][((hi >> 8) & 0xFF) as usize]
            ^ tables[1][((hi >> 16) & 0xFF) as usize]
            ^ tables[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ tables[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// The CRC a record frame carries: over the kind byte, then the payload.
pub fn record_crc(kind: RecordKind, payload: &[u8]) -> u32 {
    crc32(crc32(0, &[kind as u8]), payload)
}

/// Writes the 8-byte file header into `out`.
pub fn write_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
}

/// The frame header of a record carrying `payload`: kind, length, CRC.
pub(crate) fn frame_header(kind: RecordKind, payload: &[u8]) -> [u8; FRAME_LEN] {
    let mut header = [0u8; FRAME_LEN];
    header[0] = kind as u8;
    header[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[5..].copy_from_slice(&record_crc(kind, payload).to_le_bytes());
    header
}

/// Appends one framed record to `out`.
pub fn write_frame(out: &mut Vec<u8>, kind: RecordKind, payload: &[u8]) {
    out.extend_from_slice(&frame_header(kind, payload));
    out.extend_from_slice(payload);
}

/// Writes a whole single-record file — header, then one framed record — to
/// `file`, handing it the payload in place rather than copying it into a
/// file-sized buffer first.
pub(crate) fn write_single_record(
    file: &mut impl std::io::Write,
    kind: RecordKind,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut head = Vec::with_capacity(HEADER_LEN + FRAME_LEN);
    write_header(&mut head);
    head.extend_from_slice(&frame_header(kind, payload));
    file.write_all(&head)?;
    file.write_all(payload)
}

/// Result of [`read_frame`]: a validated record, the torn tail, or the
/// clean end of the file.
pub enum Frame<'a> {
    /// A record whose CRC checked out: its kind, payload, and the offset of
    /// the next frame.
    Record {
        /// The record kind.
        kind: RecordKind,
        /// The checksummed payload bytes.
        payload: &'a [u8],
        /// Offset of the byte after this record.
        next: usize,
    },
    /// Exactly the end of the data — no partial frame.
    End,
    /// The frame starting at this offset is damaged or incomplete (short
    /// header, impossible length, unknown kind, or CRC mismatch).  Readers
    /// truncate here.
    Torn,
}

/// Reads the frame starting at `offset` in `data`.  Never panics: every
/// malformed condition is [`Frame::Torn`].
pub fn read_frame(data: &[u8], offset: usize) -> Frame<'_> {
    if offset == data.len() {
        return Frame::End;
    }
    let Some(frame) = data.get(offset..) else {
        return Frame::Torn;
    };
    if frame.len() < FRAME_LEN {
        return Frame::Torn;
    }
    let Some(kind) = RecordKind::from_u8(frame[0]) else {
        return Frame::Torn;
    };
    let len = u32::from_le_bytes([frame[1], frame[2], frame[3], frame[4]]) as usize;
    let crc = u32::from_le_bytes([frame[5], frame[6], frame[7], frame[8]]);
    let Some(payload) = frame.get(FRAME_LEN..FRAME_LEN + len) else {
        return Frame::Torn;
    };
    if record_crc(kind, payload) != crc {
        return Frame::Torn;
    }
    Frame::Record { kind, payload, next: offset + FRAME_LEN + len }
}

/// Checks a file header.  Returns the offset of the first record on
/// success.
pub fn check_header(data: &[u8]) -> Result<usize, crate::StoreError> {
    if data.len() < HEADER_LEN || data[..4] != MAGIC {
        return Err(crate::StoreError::corrupt(0, "missing LFIS magic"));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != FORMAT_VERSION {
        return Err(crate::StoreError::unsupported_version(version));
    }
    Ok(HEADER_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_the_reference_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(crc32(0, b"1234"), b"56789"), 0xCBF4_3926, "chaining is equivalent");
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_reference_at_every_length() {
        fn reference(seed: u32, bytes: &[u8]) -> u32 {
            let mut crc = !seed;
            for &byte in bytes {
                crc ^= u32::from(byte);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                }
            }
            !crc
        }
        // Lengths straddling the 8-byte slicing boundary, unaligned seeds.
        let data: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(37) ^ (i >> 3)) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(0, &data[..len]), reference(0, &data[..len]), "len {len}");
            assert_eq!(crc32(0x1234_5678, &data[..len]), reference(0x1234_5678, &data[..len]), "seeded len {len}");
        }
    }

    #[test]
    fn frames_round_trip_and_tears_are_detected() {
        let mut data = Vec::new();
        write_header(&mut data);
        write_frame(&mut data, RecordKind::ProfileSnapshot, b"hello");
        let start = check_header(&data).unwrap();
        match read_frame(&data, start) {
            Frame::Record { kind, payload, next } => {
                assert_eq!(kind, RecordKind::ProfileSnapshot);
                assert_eq!(payload, b"hello");
                assert!(matches!(read_frame(&data, next), Frame::End));
            }
            _ => panic!("expected a valid record"),
        }
        // Any truncation of the record is a torn tail, not a panic.
        for cut in start..data.len() {
            assert!(matches!(read_frame(&data[..cut], start), Frame::Torn | Frame::End));
        }
        // A flipped payload byte fails the CRC.
        let mut flipped = data.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        assert!(matches!(read_frame(&flipped, start), Frame::Torn));
        // A flipped kind byte fails too (CRC covers the kind).
        let mut rekinded = data.clone();
        rekinded[start] = RecordKind::ExplorationDelta as u8;
        assert!(matches!(read_frame(&rekinded, start), Frame::Torn));
        // An unknown kind is a clean stop even under a valid CRC, the
        // retired tags 3 and 5 included.
        for tag in [3, 5, 0xEE] {
            let mut unknown = data.clone();
            unknown[start] = tag;
            let crc = crc32(crc32(0, &[tag]), b"hello");
            unknown[start + 5..start + FRAME_LEN].copy_from_slice(&crc.to_le_bytes());
            assert!(matches!(read_frame(&unknown, start), Frame::Torn), "tag {tag}");
        }
    }

    #[test]
    fn headers_are_validated() {
        assert!(check_header(b"").is_err());
        assert!(check_header(b"LFIS").is_err());
        assert!(check_header(b"NOPE\x01\x00\x00\x00").is_err());
        let mut wrong_version = Vec::new();
        write_header(&mut wrong_version);
        wrong_version[4] = 0xFF;
        assert!(check_header(&wrong_version).is_err());
        let mut good = Vec::new();
        write_header(&mut good);
        assert_eq!(check_header(&good).unwrap(), HEADER_LEN);
    }
}
