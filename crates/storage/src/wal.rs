//! The CRC-framed write-ahead log.

use crate::backend::LogBackend;
use hh_crypto::crc32;
use std::fmt;

/// Frame header: 4-byte length + 4-byte CRC32 of the payload.
const HEADER_LEN: usize = 8;

/// Maximum record size. Replay takes a longer length field for
/// corruption, so appends refuse a longer record instead of writing one
/// that replay would stop at.
pub const MAX_RECORD_LEN: usize = 1 << 26; // 64 MiB

/// Errors from WAL operations.
#[derive(Debug)]
pub enum WalError {
    /// The medium failed.
    Io(std::io::Error),
    /// A record longer than [`MAX_RECORD_LEN`] bytes, which the log would
    /// not replay; nothing was written.
    RecordTooLarge(usize),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::RecordTooLarge(len) => {
                write!(f, "wal record of {len} bytes exceeds the {MAX_RECORD_LEN}-byte limit")
            }
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::RecordTooLarge(_) => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// A write-ahead log of length+CRC framed records.
///
/// Replay stops silently at the first torn or corrupted frame: everything
/// before it is intact (CRC-verified), everything after is discarded —
/// which models exactly what a crash mid-append may leave behind. The
/// first append after such a replay cuts the log back to its intact
/// prefix, so what is appended after a restart is not hidden behind the
/// torn frame at the next replay.
#[derive(Debug)]
pub struct Wal<B: LogBackend> {
    backend: B,
    records: u64,
    /// Where the intact prefix ends, when the last replay found bytes
    /// after it that the next append must cut off.
    intact_len: Option<usize>,
    /// Reused framing buffer; appends happen once per persisted vertex on
    /// the simulator's hot path, so the frame is assembled in place.
    frame: Vec<u8>,
}

impl<B: LogBackend> Wal<B> {
    /// Wraps a backend. Existing contents are preserved (call
    /// [`Wal::replay`] to read them).
    pub fn new(backend: B) -> Self {
        Wal { backend, records: 0, intact_len: None, frame: Vec::new() }
    }

    /// Appends one record, after cutting off the torn tail the last
    /// [`Wal::replay`] stopped at, if any.
    ///
    /// # Errors
    ///
    /// * [`WalError::RecordTooLarge`] if `record` is longer than
    ///   [`MAX_RECORD_LEN`]; the log is left as it was.
    /// * [`WalError::Io`] if the backend truncation or write fails.
    pub fn append(&mut self, record: &[u8]) -> Result<(), WalError> {
        check_len(record)?;
        if let Some(len) = self.intact_len {
            self.backend.truncate_to(len)?;
            self.intact_len = None;
        }
        self.frame.clear();
        self.frame.reserve(HEADER_LEN + record.len());
        frame_into(&mut self.frame, record);
        self.backend.append(&self.frame)?;
        self.records += 1;
        Ok(())
    }

    /// Reads every intact record from the start of the log, and remembers
    /// where they end for the next [`Wal::append`].
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the backend read fails. Torn or
    /// corrupted tails are not errors; replay simply stops there.
    pub fn replay(&mut self) -> Result<Vec<Vec<u8>>, WalError> {
        let bytes = self.backend.read_all()?;
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos + HEADER_LEN <= bytes.len() {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
            let crc = u32::from_be_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
            let len = len as usize;
            if len > MAX_RECORD_LEN {
                break; // corrupted length field
            }
            let start = pos + HEADER_LEN;
            let end = start + len;
            if end > bytes.len() {
                break; // torn tail
            }
            let payload = &bytes[start..end];
            if crc32(payload) != crc {
                break; // corrupted payload
            }
            out.push(payload.to_vec());
            pos = end;
        }
        self.intact_len = (pos < bytes.len()).then_some(pos);
        Ok(out)
    }

    /// Forces the log to durable storage (see [`LogBackend::sync`]).
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the backend cannot sync.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.backend.sync().map_err(WalError::Io)
    }

    /// Rewrites the log to contain exactly `records` (compaction).
    ///
    /// # Errors
    ///
    /// * [`WalError::RecordTooLarge`] if any record is longer than
    ///   [`MAX_RECORD_LEN`]; the log is left as it was.
    /// * [`WalError::Io`] if the backend rewrite fails.
    pub fn compact_to(&mut self, records: &[Vec<u8>]) -> Result<(), WalError> {
        let mut bytes = Vec::new();
        for r in records {
            check_len(r)?;
            frame_into(&mut bytes, r);
        }
        self.backend.rewrite(&bytes)?;
        self.intact_len = None;
        self.records = records.len() as u64;
        Ok(())
    }

    /// Records appended through this handle (not counting pre-existing).
    pub fn appended(&self) -> u64 {
        self.records
    }

    /// Size of the log in bytes.
    pub fn size_bytes(&self) -> usize {
        self.backend.len()
    }

    /// Borrows the backend (e.g. to clone a [`crate::MemBackend`] handle).
    pub fn backend(&self) -> &B {
        &self.backend
    }
}

fn check_len(record: &[u8]) -> Result<(), WalError> {
    if record.len() > MAX_RECORD_LEN {
        return Err(WalError::RecordTooLarge(record.len()));
    }
    Ok(())
}

/// Appends `record`'s frame to `out`; `record` passed [`check_len`], so
/// its length fits the header's `u32`.
fn frame_into(out: &mut Vec<u8>, record: &[u8]) {
    out.extend_from_slice(&(record.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(record).to_be_bytes());
    out.extend_from_slice(record);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn append_replay_roundtrip() {
        let mem = MemBackend::new();
        let mut wal = Wal::new(mem.clone());
        wal.append(b"alpha").unwrap();
        wal.append(b"").unwrap(); // empty records are legal
        wal.append(&[0xFFu8; 1000]).unwrap();
        let records = Wal::new(mem).replay().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], b"alpha");
        assert_eq!(records[1], b"");
        assert_eq!(records[2], vec![0xFFu8; 1000]);
    }

    #[test]
    fn torn_tail_drops_only_last_record() {
        let mem = MemBackend::new();
        let mut wal = Wal::new(mem.clone());
        wal.append(b"keep-1").unwrap();
        wal.append(b"keep-2").unwrap();
        wal.append(b"torn-record").unwrap();
        // Chop 3 bytes off the end: the last frame is incomplete.
        mem.truncate(mem.len() - 3);
        let records = Wal::new(mem).replay().unwrap();
        assert_eq!(records, vec![b"keep-1".to_vec(), b"keep-2".to_vec()]);
    }

    #[test]
    fn corrupted_payload_stops_replay() {
        let mem = MemBackend::new();
        let mut wal = Wal::new(mem.clone());
        wal.append(b"good").unwrap();
        wal.append(b"bad-soon").unwrap();
        wal.append(b"unreachable").unwrap();
        // Corrupt one byte inside the second record's payload.
        let offset = (8 + 4) + 8 + 2;
        mem.corrupt(offset);
        let records = Wal::new(mem).replay().unwrap();
        assert_eq!(records, vec![b"good".to_vec()]);
    }

    #[test]
    fn corrupted_length_field_stops_replay() {
        let mem = MemBackend::new();
        let mut wal = Wal::new(mem.clone());
        wal.append(b"good").unwrap();
        // Append garbage that claims a gigantic length.
        let mut garbage = Vec::new();
        garbage.extend_from_slice(&u32::MAX.to_be_bytes());
        garbage.extend_from_slice(&[0u8; 12]);
        use crate::backend::LogBackend;
        let mut raw = mem.clone();
        raw.append(&garbage).unwrap();
        let records = Wal::new(mem).replay().unwrap();
        assert_eq!(records, vec![b"good".to_vec()]);
    }

    #[test]
    fn compaction_rewrites_log() {
        let mem = MemBackend::new();
        let mut wal = Wal::new(mem.clone());
        for i in 0..100u32 {
            wal.append(&i.to_be_bytes()).unwrap();
        }
        let before = wal.size_bytes();
        wal.compact_to(&[b"snapshot".to_vec()]).unwrap();
        assert!(wal.size_bytes() < before);
        // Appends after compaction still work.
        wal.append(b"tail").unwrap();
        let records = Wal::new(mem).replay().unwrap();
        assert_eq!(records, vec![b"snapshot".to_vec(), b"tail".to_vec()]);
    }

    /// Appends `alpha` and `bravo`, tears `bravo`, then restarts twice
    /// over the same medium: what the first restart appends survives the
    /// second.
    fn appends_after_a_torn_tail_survive_the_next_replay<B: LogBackend>(
        open: impl Fn() -> B,
        tear: impl FnOnce(usize),
    ) {
        let mut wal = Wal::new(open());
        wal.append(b"alpha").unwrap();
        wal.append(b"bravo").unwrap();
        tear(wal.size_bytes() - 2);
        let mut wal = Wal::new(open());
        assert_eq!(wal.replay().unwrap(), vec![b"alpha".to_vec()]);
        wal.append(b"charlie").unwrap();
        let mut wal = Wal::new(open());
        assert_eq!(wal.replay().unwrap(), vec![b"alpha".to_vec(), b"charlie".to_vec()]);
        // An intact log is appended to as it is.
        wal.append(b"delta").unwrap();
        let expected: Vec<Vec<u8>> = vec![b"alpha".into(), b"charlie".into(), b"delta".into()];
        assert_eq!(Wal::new(open()).replay().unwrap(), expected);
    }

    #[test]
    fn appends_after_a_torn_tail_survive_in_memory() {
        let mem = MemBackend::new();
        appends_after_a_torn_tail_survive_the_next_replay(|| mem.clone(), |len| mem.truncate(len));
    }

    #[test]
    fn appends_after_a_torn_tail_survive_on_file() {
        use crate::backend::FileBackend;
        let path =
            std::env::temp_dir().join(format!("hh-wal-torn-tail-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        appends_after_a_torn_tail_survive_the_next_replay(
            || FileBackend::open(&path).unwrap(),
            |len| {
                let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                file.set_len(len as u64).unwrap();
            },
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_record_replay_would_reject_is_refused() {
        let mem = MemBackend::new();
        let mut wal = Wal::new(mem.clone());
        wal.append(b"alpha").unwrap();
        let big = vec![0u8; MAX_RECORD_LEN + 1];
        assert!(matches!(wal.append(&big), Err(WalError::RecordTooLarge(len)) if len == big.len()));
        wal.append(b"charlie").unwrap();
        let mut wal = Wal::new(mem.clone());
        assert_eq!(wal.replay().unwrap(), vec![b"alpha".to_vec(), b"charlie".to_vec()]);
        wal.append(b"delta").unwrap();
        let expected: Vec<Vec<u8>> = vec![b"alpha".into(), b"charlie".into(), b"delta".into()];
        assert_eq!(Wal::new(mem.clone()).replay().unwrap(), expected);
        // Compaction refuses it too, and keeps the log it had.
        let refused = wal.compact_to(&[b"snapshot".to_vec(), big]);
        assert!(matches!(refused, Err(WalError::RecordTooLarge(_))));
        assert_eq!(Wal::new(mem).replay().unwrap(), expected);
    }

    #[test]
    fn empty_log_replays_empty() {
        let mut wal = Wal::new(MemBackend::new());
        assert!(wal.replay().unwrap().is_empty());
    }
}
