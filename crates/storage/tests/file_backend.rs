//! File-backed WAL durability tests: torn writes against a *real* file,
//! crash-atomic rewrites, and bit-equivalence between the file and memory
//! backends.
//!
//! The in-crate unit tests cover these properties on `MemBackend`
//! (where truncation is a method call); this suite proves the same
//! guarantees hold when the log is an actual file on disk — the form a
//! crashed `hh-node` leaves behind.

use hh_storage::{FileBackend, LogBackend, MemBackend, ValidatorStore, Wal};
use hh_types::{Block, Committee, Round, ValidatorId, Vertex};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch file per test, removed on drop with its `.tmp`.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "hh-file-backend-{}-{}-{tag}.log",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_file(&path);
        TempFile(path)
    }

    /// Where `FileBackend::rewrite` stages a new log: `<log>.tmp`.
    fn staged(&self) -> PathBuf {
        let mut tmp = self.0.clone().into_os_string();
        tmp.push(".tmp");
        tmp.into()
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.staged());
    }
}

fn vertex(c: &Committee, round: u64, author: u16) -> Vertex {
    Vertex::new(
        Round(round),
        ValidatorId(author),
        Block::empty(),
        vec![],
        &c.keypair(ValidatorId(author)),
    )
}

/// Truncating the file mid-record (a torn write at crash time) must
/// leave every preceding record replayable and drop only the tail.
#[test]
fn torn_tail_on_disk_recovers_prefix() {
    let tmp = TempFile::new("torn");
    let mut wal = Wal::new(FileBackend::open(&tmp.0).unwrap());
    for i in 0..5u8 {
        wal.append(&[i; 64]).unwrap();
    }
    drop(wal);

    // Cut the file inside the last record's payload.
    let full = std::fs::metadata(&tmp.0).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&tmp.0).unwrap();
    file.set_len(full - 10).unwrap();
    drop(file);

    let mut wal = Wal::new(FileBackend::open(&tmp.0).unwrap());
    let records = wal.replay().unwrap();
    assert_eq!(records.len(), 4, "only the torn tail record is lost");
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.as_slice(), &[i as u8; 64]);
    }
}

/// Truncating inside a record *header* (torn before the length landed)
/// must behave the same way.
#[test]
fn torn_header_on_disk_recovers_prefix() {
    let tmp = TempFile::new("torn-header");
    let mut wal = Wal::new(FileBackend::open(&tmp.0).unwrap());
    wal.append(b"first").unwrap();
    wal.append(b"second").unwrap();
    drop(wal);

    // A record is 8 header bytes + payload; leave the first record and
    // 3 bytes of the second's header.
    let first_len = 8 + b"first".len() as u64;
    let file = std::fs::OpenOptions::new().write(true).open(&tmp.0).unwrap();
    file.set_len(first_len + 3).unwrap();
    drop(file);

    let mut wal = Wal::new(FileBackend::open(&tmp.0).unwrap());
    let records = wal.replay().unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].as_slice(), b"first");
}

/// Appending resumes cleanly after a torn-tail recovery: the WAL built
/// on the truncated file accepts new records and replays prefix + new.
#[test]
fn appends_resume_after_torn_recovery() {
    let tmp = TempFile::new("resume");
    let mut wal = Wal::new(FileBackend::open(&tmp.0).unwrap());
    wal.append(b"keep").unwrap();
    wal.append(b"lost").unwrap();
    drop(wal);

    let full = std::fs::metadata(&tmp.0).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&tmp.0).unwrap();
    file.set_len(full - 2).unwrap();
    drop(file);

    // The torn tail is garbage bytes mid-file: replay stops at the tear,
    // and compaction rewrites the log to just the valid prefix, after
    // which appends are replayable again.
    let mut wal = Wal::new(FileBackend::open(&tmp.0).unwrap());
    let prefix = wal.replay().unwrap();
    assert_eq!(prefix.len(), 1);
    wal.compact_to(&prefix).unwrap();
    wal.append(b"after").unwrap();
    wal.sync().unwrap();

    let records = Wal::new(FileBackend::open(&tmp.0).unwrap()).replay().unwrap();
    let payloads: Vec<&[u8]> = records.iter().map(|r| r.as_slice()).collect();
    assert_eq!(payloads, vec![b"keep".as_slice(), b"after".as_slice()]);
}

/// The same event sequence through `ValidatorStore` must produce
/// bit-identical logs on the memory and file backends, and recover to
/// identical state — so every simulator persistence test transfers to
/// the real node's on-disk format verbatim.
#[test]
fn file_and_mem_backends_are_bit_equivalent() {
    let c = Committee::new_equal_stake(4);
    let tmp = TempFile::new("equiv");
    let mem = MemBackend::new();
    let mut on_disk = ValidatorStore::new(FileBackend::open(&tmp.0).unwrap());
    let mut in_mem = ValidatorStore::new(mem.clone());

    for round in 0..3u64 {
        for author in 0..4u16 {
            let v = vertex(&c, round, author);
            on_disk.persist_vertex(&v).unwrap();
            in_mem.persist_vertex(&v).unwrap();
        }
        let hash = hh_crypto::sha256(&round.to_be_bytes());
        on_disk.persist_checkpoint(round, hash).unwrap();
        in_mem.persist_checkpoint(round, hash).unwrap();
    }
    on_disk.sync().unwrap();

    let disk_bytes = std::fs::read(&tmp.0).unwrap();
    let mem_bytes = mem.read_all().unwrap();
    assert_eq!(disk_bytes, mem_bytes, "backends diverged on identical event sequences");

    let from_disk = ValidatorStore::new(FileBackend::open(&tmp.0).unwrap()).recover().unwrap();
    let from_mem = ValidatorStore::new(mem).recover().unwrap();
    assert_eq!(from_disk.vertices, from_mem.vertices);
    assert_eq!(from_disk.last_checkpoint, from_mem.last_checkpoint);
    assert_eq!(from_disk.vertices.len(), 12);
    assert_eq!(from_disk.last_checkpoint.map(|(i, _)| i), Some(2));
}

/// `sync()` is the graceful-shutdown flush: it must succeed on a live
/// file store and everything appended before it must be visible to an
/// independent reopen.
#[test]
fn sync_then_reopen_sees_everything() {
    let c = Committee::new_equal_stake(4);
    let tmp = TempFile::new("sync");
    let mut store = ValidatorStore::new(FileBackend::open(&tmp.0).unwrap());
    store.persist_vertex(&vertex(&c, 0, 1)).unwrap();
    store.persist_checkpoint(0, hh_crypto::sha256(b"cp")).unwrap();
    store.sync().unwrap();

    let recovered = ValidatorStore::new(FileBackend::open(&tmp.0).unwrap()).recover().unwrap();
    assert_eq!(recovered.vertices.len(), 1);
    assert!(recovered.last_checkpoint.is_some());
}

/// A rewrite replaces the log's contents whole, appends continue after
/// it, and it leaves no staging file behind.
#[test]
fn rewrite_replaces_contents_and_leaves_no_tmp() {
    let tmp = TempFile::new("rewrite");
    let mut log = FileBackend::open(&tmp.0).unwrap();
    log.append(b"old contents").unwrap();
    log.rewrite(b"new").unwrap();
    assert_eq!(std::fs::read(&tmp.0).unwrap(), b"new");
    assert!(!tmp.staged().exists(), "the staging file was renamed away");
    log.append(b"+").unwrap();
    assert_eq!(FileBackend::open(&tmp.0).unwrap().read_all().unwrap(), b"new+");
}

/// A `.tmp` a crash left mid-rewrite is never read as the log: not when
/// the log is reopened, and not by the next rewrite, which overwrites it.
#[test]
fn stale_tmp_never_shows_up_in_the_log() {
    let tmp = TempFile::new("stale");
    let mut wal = Wal::new(FileBackend::open(&tmp.0).unwrap());
    wal.append(b"kept").unwrap();
    drop(wal);
    std::fs::write(tmp.staged(), b"a half-written compaction, longer than the log").unwrap();

    assert_eq!(Wal::new(FileBackend::open(&tmp.0).unwrap()).replay().unwrap(), vec![b"kept"]);
    let mut log = FileBackend::open(&tmp.0).unwrap();
    log.rewrite(b"xy").unwrap();
    assert_eq!(log.read_all().unwrap(), b"xy");
    assert!(!tmp.staged().exists());
}

/// Replay after `compact_to` yields exactly the compacted records, and
/// records appended after the compaction follow them.
#[test]
fn replay_after_compaction_yields_the_compacted_records() {
    let tmp = TempFile::new("compact");
    let mut wal = Wal::new(FileBackend::open(&tmp.0).unwrap());
    for i in 0..6u8 {
        wal.append(&[i; 16]).unwrap();
    }
    let kept: Vec<Vec<u8>> = wal.replay().unwrap().into_iter().skip(4).collect();
    wal.compact_to(&kept).unwrap();
    drop(wal);

    let mut wal = Wal::new(FileBackend::open(&tmp.0).unwrap());
    assert_eq!(wal.replay().unwrap(), kept);
    wal.append(b"after").unwrap();
    let mut want = kept;
    want.push(b"after".to_vec());
    assert_eq!(Wal::new(FileBackend::open(&tmp.0).unwrap()).replay().unwrap(), want);
    assert!(!tmp.staged().exists());
}
