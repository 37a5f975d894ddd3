//! The validator node: proposer, broadcast, consensus, transaction pool,
//! execution model, persistence and crash-recovery.
//!
//! [`Validator`] is a runtime-agnostic state machine: handlers take the
//! current time in microseconds and return [`Output`]s (messages to send,
//! timers to arm). The simulation harness (`hh-sim`) and `hh-node` both
//! run it on [`crate::Driver`], over the discrete-event network and over
//! TCP on the wall clock. The Bullshark baseline and HammerHead are the
//! *same* node, differing only in [`ScheduleConfig`].
//!
//! Protocol flow per round `r`:
//!
//! 1. wait for quorum stake of round `r-1` vertices;
//! 2. pace (`min_round_delay_us`), and when leaving an anchor-*candidate*
//!    round of the engine's commit instance wait up to `leader_timeout_us`
//!    for that round's leader vertex — the leader-await that makes crashed
//!    leaders expensive for static schedules — unless its leader has
//!    already proposed above it or, under HammerHead, has never been
//!    heard from;
//! 3. propose: batch transactions (bounded by block size and the
//!    uncommitted-tx backpressure budget), link to all known `r-1`
//!    vertices (sharing the parent list of a round-`r` vertex that links
//!    to the same ones), broadcast via the reliable-broadcast layer;
//! 4. feed every delivered vertex to the consensus engine; committed
//!    sub-DAGs drain through the execution-rate model, release
//!    backpressure budget, trigger checkpoints and DAG garbage collection.

use crate::config::{ScheduleConfig, ValidatorConfig};
use crate::policy::{EpochSummary, HammerheadPolicy};
use hh_consensus::{
    Bullshark, CommittedSubDag, RoundRobinPolicy, ScheduleDecision, SchedulePolicy, SlotSchedule,
};
use hh_crypto::{Digest, Keypair};
use hh_dag::{Dag, EvidenceLedger, InsertOutcome};
use hh_rbc::{BroadcastMode, Rbc, RbcMessage};
use hh_storage::{LogBackend, ValidatorStore};
use hh_types::codec::{Decoder, Encode, EncodeExt};
use hh_types::{Block, Committee, Round, Transaction, TypeError, ValidatorId, Vertex, VertexRef};
use std::collections::VecDeque;
use std::sync::Arc;

/// Timer token: re-check round advancement (the pacing or the
/// leader-await deadline, whichever [`Validator::drive`] armed).
const TOKEN_WAKE: u64 = 1;
/// Timer token: broadcast-layer maintenance tick.
const TOKEN_TICK: u64 = 2;

/// Commits between durable checkpoints.
const CHECKPOINT_INTERVAL: u64 = 10;

/// Max transactions per vertex.
const MAX_BLOCK_TXS: usize = 2_000;
/// Transaction pool capacity; submissions beyond it are shed.
const POOL_CAPACITY: usize = 20_000;
/// Backpressure budget: own transactions proposed but not yet committed
/// before the proposer stops pulling from the pool (models Narwhal's
/// bounded pending state).
const MAX_UNCOMMITTED_TXS: usize = 10_000;
const _: () = assert!(MAX_BLOCK_TXS <= POOL_CAPACITY);

/// Messages a validator exchanges (with peers and with clients).
#[derive(Clone, Debug)]
pub enum ValidatorMessage {
    /// Broadcast-layer traffic between validators.
    Rbc(RbcMessage),
    /// A client submitting a transaction.
    Submit(Transaction),
    /// Finality confirmation back to the submitting client (the paper
    /// measures latency to exactly this event). `executed_at` is the
    /// execution-pipeline completion instant; a confirmation carrying
    /// `executed_at == u64::MAX` reports a shed (failed) transaction.
    Confirm {
        /// The confirmed transaction.
        id: hh_types::TxId,
        /// Execution completion time (µs), or `u64::MAX` for a shed tx.
        executed_at: u64,
    },
}

impl Encode for ValidatorMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ValidatorMessage::Rbc(m) => {
                buf.put_u8(0);
                m.encode(buf);
            }
            ValidatorMessage::Submit(tx) => {
                buf.put_u8(1);
                tx.encode(buf);
            }
            ValidatorMessage::Confirm { id, executed_at } => {
                buf.put_u8(2);
                id.encode(buf);
                buf.put_u64(*executed_at);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok(match d.take_u8()? {
            0 => ValidatorMessage::Rbc(RbcMessage::decode(d)?),
            1 => ValidatorMessage::Submit(Transaction::decode(d)?),
            2 => ValidatorMessage::Confirm {
                id: hh_types::TxId::decode(d)?,
                executed_at: d.take_u64()?,
            },
            _ => return Err(TypeError::Decode("invalid validator message tag")),
        })
    }
}

/// One committed sub-DAG as this validator observed it — the unit the
/// safety invariant checker consumes. Records are appended on every
/// commit, *including* commits recomputed during crash-recovery replay,
/// so the checker can hold replayed history to the same prefix the
/// validator had already exposed before the crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Position in the total order of commits (0-based, the engine's
    /// `commit_index`).
    pub index: u64,
    /// The committed anchor.
    pub anchor: VertexRef,
    /// Every vertex of the sub-DAG, in commit (deterministic traversal)
    /// order.
    pub vertices: Vec<VertexRef>,
    /// The GC round the committing DAG moves to after this commit
    /// (`anchor.round − gc_depth`, saturating): no later commit of this
    /// validator can name a vertex below it.
    pub horizon: Round,
    /// Whether this record was produced by crash-recovery replay rather
    /// than live consensus.
    pub replayed: bool,
    /// The schedule switches made since the previous commit, oldest first:
    /// empty unless this is the first commit of a new epoch (see
    /// [`HammerheadPolicy::take_summaries_before`]). Each switch leaves the
    /// validator here and nowhere else.
    pub summaries: Vec<EpochSummary>,
}

/// Effects a handler asks the runtime to perform.
#[derive(Clone, Debug)]
pub enum Output {
    /// Send to one validator.
    Send(ValidatorId, ValidatorMessage),
    /// Send to every other validator.
    Broadcast(ValidatorMessage),
    /// Arm a one-shot timer.
    SetTimer {
        /// Delay from now, in microseconds.
        delay_us: u64,
        /// Token passed back to [`Validator::on_timer`].
        token: u64,
    },
    /// The durable store rejected a write (or could not be read during
    /// recovery). The validator has fail-stopped: it drops the failed
    /// operation and ignores further input until [`Validator::on_restart`]
    /// — a node that cannot uphold the write-ahead discipline must not keep
    /// acting, but a storage fault is the *runtime's* problem to surface,
    /// never a reason to panic the whole process. It is the failing step's
    /// only output: nothing the step queued leaves, own vertex included.
    StorageError(StorageFault),
}

/// A storage fault that fail-stopped a validator ([`Output::StorageError`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageFault {
    /// What the node was doing ("persist vertex", "persist proposal",
    /// "persist checkpoint", "recover", "shutdown flush").
    pub context: &'static str,
    /// The underlying I/O error.
    pub detail: String,
}

impl std::fmt::Display for StorageFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "storage error ({}): {}", self.context, self.detail)
    }
}

/// Latency record for one of this validator's own transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecRecord {
    /// Client submission time (µs).
    pub submitted_at: u64,
    /// Consensus commit time (µs).
    pub committed_at: u64,
    /// Execution completion time (µs) — the paper's "finality" instant.
    pub executed_at: u64,
    /// Modeled wire bytes of the transaction (header + payload) — the
    /// unit behind byte-goodput metrics.
    pub bytes: u32,
}

/// Append-only log of [`ExecRecord`]s, held at what the execution
/// pipeline cannot predict instead of at 32 B a record.
///
/// A validator executes a commit's transactions back to back
/// (`Validator::on_commit`), so the records of one commit share
/// `committed_at`, follow one another at one `executed_at` spacing and
/// mostly have one size. A record is *regular* when it shares the
/// previous record's `committed_at` and `bytes` and its `executed_at` is
/// the previous one's plus the stride, the last spacing seen between two
/// records of one commit: only its *gap*, its `submitted_at` less the
/// previous record's, is news. The log is a sequence of *runs*, each a
/// record coded in full, its head, and the up to 64 regular records after
/// it, coded by their gaps alone:
///
/// - the head's `bytes` over a flag bit set when gaps follow, then three
///   zigzag-coded LEB128 differences: its `submitted_at` and
///   `executed_at` less the previous record's, and `executed_at −
///   committed_at` (the execution backlog); inside one commit the head
///   resets the stride;
/// - when gaps follow: their count less one (a byte), the least of them
///   read as signed (zigzag-coded), and a width byte `w`, the bits the
///   greatest less the least needs; then each gap less the least in `w`
///   bits, packed from the least significant bit up into ⌈count · w / 8⌉
///   bytes.
///
/// The gaps of submissions at a constant rate with ±10 % jitter all lie
/// within 512 µs of each other, nine bits a record: a 600-second n = 10
/// run (`sim_n10_long`, runs of 42 gaps) costs 1.42 B a record, and a
/// 15-second n = 100 one (`sim_n100_f33`, runs of 7 gaps at 12 bits)
/// 3.36 B. The differences wrap, so any field values round-trip —
/// out-of-order times and gaps of any spread cost bytes, never
/// correctness. The prediction starts from an all-zero record and a zero
/// stride and travels with the log, so a log taken off a validator
/// decodes on its own.
///
/// The open run's head waits in the log, and its gaps are staged as
/// zigzag varints at the last chunk's tail; the run closes when a record
/// is not regular, at its 64th gap, or when the chunk has no room for the
/// next staged gap, and is then written where its gaps were staged (in a
/// new chunk when it no longer fits there).
/// The bytes live in chunks of 1 KiB, 2 KiB, 4 KiB … up to 64 KiB and
/// then 64 KiB each, allocated full-size, filled front to back and never
/// grown or copied; a run never straddles two. A log leaves only its last
/// chunk's room unused (under 64 KiB, and little more than it has filled
/// while its chunks are still doubling) and under 559 B, the longest run,
/// at the end of each full chunk, and an empty log allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ExecLog {
    chunks: Vec<Vec<u8>>,
    len: usize,
    /// What the next record is predicted from.
    prediction: Prediction,
    /// The run the next regular record joins.
    open: Option<OpenRun>,
}

/// Capacity of an [`ExecLog`]'s chunk number `i`: 1 KiB, doubling up to
/// 64 KiB.
fn exec_log_chunk(i: usize) -> usize {
    1024 << i.min(6)
}

/// Most gaps one run holds (its count less one is a byte); the regular
/// records after them open a run of their own.
const RUN_GAPS_MAX: usize = 64;

/// Most bytes one varint takes.
const VARINT_MAX: usize = 10;

/// Most bytes one run encodes to: a five-byte head and three
/// differences, the count, the least gap, the width, and every gap at
/// 64 bits. Any run fits an empty chunk.
const EXEC_RUN_MAX: usize = 5 + 3 * VARINT_MAX + 1 + VARINT_MAX + 1 + 8 * RUN_GAPS_MAX;
const _: () = assert!(EXEC_RUN_MAX <= 1024 && RUN_GAPS_MAX <= 256);

/// The state both ends of the [`ExecLog`] code keep: the record before
/// (all zeros before the first) and the stride.
#[derive(Clone, Copy, Debug)]
struct Prediction {
    last: ExecRecord,
    stride: u64,
}

impl Default for Prediction {
    fn default() -> Self {
        let last = ExecRecord { submitted_at: 0, committed_at: 0, executed_at: 0, bytes: 0 };
        Prediction { last, stride: 0 }
    }
}

impl Prediction {
    /// The regular record submitted `gap` µs (wrapping) after the last
    /// one.
    fn predict(&self, gap: u64) -> ExecRecord {
        ExecRecord {
            submitted_at: self.last.submitted_at.wrapping_add(gap),
            executed_at: self.last.executed_at.wrapping_add(self.stride),
            ..self.last
        }
    }

    /// Moves past `rec`: a record of the same commit sets the stride.
    fn advance(&mut self, rec: ExecRecord) {
        if rec.committed_at == self.last.committed_at {
            self.stride = rec.executed_at.wrapping_sub(self.last.executed_at);
        }
        self.last = rec;
    }
}

/// The run an [`ExecLog`] is adding to.
#[derive(Clone, Copy, Debug)]
struct OpenRun {
    /// Its head's varints, the flag bit clear.
    head: [u64; 4],
    /// Gaps staged, from byte `at` of the last chunk to its end.
    gaps: usize,
    at: usize,
}

impl OpenRun {
    /// Stages a gap at the tail of the last of `chunks`, in a new chunk
    /// for the run's first; false, staging nothing, when the chunk the
    /// run's gaps are staged in is full.
    fn stage(&mut self, chunks: &mut Vec<Vec<u8>>, gap: u64) -> bool {
        if chunks.last().is_none_or(|c| c.capacity() - c.len() < VARINT_MAX) {
            if self.gaps > 0 {
                return false;
            }
            chunks.push(Vec::with_capacity(exec_log_chunk(chunks.len())));
        }
        let chunk = chunks.last_mut().expect("a chunk with room for the gap");
        if self.gaps == 0 {
            self.at = chunk.len();
        }
        put_varint(chunk, zigzag(gap));
        self.gaps += 1;
        true
    }

    /// The gaps, read back from where they are staged in the last of
    /// `chunks`, and the bytes they are staged in.
    fn staged<'g>(
        &self,
        chunks: &[Vec<u8>],
        gaps: &'g mut [u64; RUN_GAPS_MAX],
    ) -> (&'g [u64], usize) {
        let mut staged = match (self.gaps, chunks.last()) {
            (1.., Some(chunk)) => &chunk[self.at..],
            _ => &[][..],
        };
        let bytes = staged.len();
        for gap in &mut gaps[..self.gaps] {
            *gap = unzigzag(take_varint(&mut staged));
        }
        (&gaps[..self.gaps], bytes)
    }

    /// The head's varints, the first flagged when gaps follow.
    fn head(&self, gaps: &[u64]) -> [u64; 4] {
        let [bytes, submitted, executed, backlog] = self.head;
        [bytes | !gaps.is_empty() as u64, submitted, executed, backlog]
    }

    /// Writes the run: its head and `gaps`, packed.
    fn write(&self, chunk: &mut Vec<u8>, gaps: &[u64]) {
        for v in self.head(gaps) {
            put_varint(chunk, v);
        }
        let Some(last) = gaps.len().checked_sub(1) else { return };
        let packed = Packed::of(gaps);
        chunk.push(last as u8);
        put_varint(chunk, zigzag(packed.least));
        chunk.push(packed.width as u8);
        let (mut bits, mut filled) = (0u128, 0);
        for &gap in gaps {
            bits |= (gap.wrapping_sub(packed.least) as u128) << filled;
            filled += packed.width;
            while filled >= 8 {
                chunk.push(bits as u8);
                bits >>= 8;
                filled -= 8;
            }
        }
        if filled > 0 {
            chunk.push(bits as u8);
        }
    }

    /// Bytes [`OpenRun::write`] writes for the run with `gaps`.
    fn bytes(&self, gaps: &[u64]) -> usize {
        let packed = Packed::of(gaps);
        let varint = |v: u64| (64 - v.leading_zeros() as usize).div_ceil(7).max(1);
        let head: usize = self.head(gaps).into_iter().map(varint).sum();
        match gaps.len() {
            0 => head,
            n => head + 2 + varint(zigzag(packed.least)) + packed.bytes(n),
        }
    }
}

/// The varints that code `rec` against the record before it: `bytes`
/// over a clear flag bit, the `submitted_at` and `executed_at`
/// differences and the backlog, zigzag-coded.
fn code_head(before: &ExecRecord, rec: &ExecRecord) -> [u64; 4] {
    [
        (rec.bytes as u64) << 1,
        zigzag(rec.submitted_at.wrapping_sub(before.submitted_at)),
        zigzag(rec.executed_at.wrapping_sub(before.executed_at)),
        zigzag(rec.executed_at.wrapping_sub(rec.committed_at)),
    ]
}

/// The inverse of [`code_head`].
fn decode_head(before: &ExecRecord, head: [u64; 4]) -> ExecRecord {
    let submitted_at = before.submitted_at.wrapping_add(unzigzag(head[1]));
    let executed_at = before.executed_at.wrapping_add(unzigzag(head[2]));
    let committed_at = executed_at.wrapping_sub(unzigzag(head[3]));
    ExecRecord { submitted_at, committed_at, executed_at, bytes: (head[0] >> 1) as u32 }
}

impl ExecLog {
    /// Appends one record.
    pub fn push(&mut self, rec: ExecRecord) {
        let p = self.prediction;
        let gap = rec.submitted_at.wrapping_sub(p.last.submitted_at);
        let joined = match &mut self.open {
            Some(run) if run.gaps < RUN_GAPS_MAX && p.predict(gap) == rec => {
                run.stage(&mut self.chunks, gap)
            }
            _ => false,
        };
        if !joined {
            self.close();
            self.open = Some(OpenRun { head: code_head(&p.last, &rec), gaps: 0, at: 0 });
        }
        self.prediction.advance(rec);
        self.len += 1;
    }

    /// Writes the open run out: where its gaps were staged, or in a new
    /// chunk when it does not fit the last one's room.
    fn close(&mut self) {
        let Some(run) = self.open.take() else { return };
        let mut buf = [0; RUN_GAPS_MAX];
        let (gaps, staged) = run.staged(&self.chunks, &mut buf);
        if let Some(chunk) = self.chunks.last_mut() {
            chunk.truncate(chunk.len() - staged);
        }
        let bytes = run.bytes(gaps);
        if self.chunks.last().is_none_or(|c| c.capacity() - c.len() < bytes) {
            // A chunk the run leaves empty (a clone's, cut to size) gives
            // way: every chunk but the last holds a run.
            self.chunks.pop_if(|c| c.is_empty());
            self.chunks.push(Vec::with_capacity(exec_log_chunk(self.chunks.len())));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room for the run");
        let at = chunk.len();
        run.write(chunk, gaps);
        debug_assert_eq!(chunk.len() - at, bytes, "a run's size is what it writes");
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the records are encoded in, the open run counted as it will
    /// be written (the chunks' unused capacity not counted).
    pub fn encoded_bytes(&self) -> usize {
        let chunks: usize = self.chunks.iter().map(Vec::len).sum();
        let Some(run) = &self.open else { return chunks };
        let mut buf = [0; RUN_GAPS_MAX];
        let (gaps, staged) = run.staged(&self.chunks, &mut buf);
        chunks - staged + run.bytes(gaps)
    }

    /// The records in push order, decoded as they are yielded.
    pub fn iter(&self) -> ExecLogIter<'_> {
        let (last, chunks) = match self.chunks.split_last() {
            Some((last, chunks)) => (&last[..], chunks),
            None => (&[][..], &[][..]),
        };
        let (tail, staged) = match self.open {
            Some(run) if run.gaps > 0 => last.split_at(run.at),
            _ => (last, &[][..]),
        };
        ExecLogIter {
            chunks: chunks.iter(),
            tail,
            open: self.open.map(|run| (run.head, staged)),
            rest: &[],
            packed: Unpacking::default(),
            staged: &[],
            prediction: Prediction::default(),
        }
    }
}

/// How a run's gaps are packed: each less the least, in `width` bits.
#[derive(Clone, Copy, Debug, Default)]
struct Packed {
    least: u64,
    width: u32,
}

impl Packed {
    /// The packing of `gaps`: the least of them read as signed, and the
    /// bits the greatest less it needs.
    fn of(gaps: &[u64]) -> Packed {
        let signed = || gaps.iter().map(|&g| g as i64);
        let (least, most) = (signed().min().unwrap_or(0), signed().max().unwrap_or(0));
        Packed { least: least as u64, width: 64 - most.abs_diff(least).leading_zeros() }
    }

    /// Bytes `count` gaps pack into.
    fn bytes(self, count: usize) -> usize {
        (count * self.width as usize).div_ceil(8)
    }
}

/// `d` read as signed and zigzag-coded, so a small negative stays small.
fn zigzag(d: u64) -> u64 {
    let d = d as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

fn put_varint(chunk: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        chunk.push(v as u8 | 0x80);
        v >>= 7;
    }
    chunk.push(v as u8);
}

/// The next byte of `bytes`. The bytes are [`ExecLog::push`]'s own, and
/// a run never straddles two chunks, so a run that has begun is wholly
/// present.
fn take_byte(bytes: &mut &[u8]) -> u8 {
    let (&byte, rest) = bytes.split_first().expect("a log ends on a whole run");
    *bytes = rest;
    byte
}

/// The next varint of `bytes`.
fn take_varint(bytes: &mut &[u8]) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let byte = take_byte(bytes);
        v |= ((byte & 0x7f) as u64) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

impl<'a> IntoIterator for &'a ExecLog {
    type Item = ExecRecord;
    type IntoIter = ExecLogIter<'a>;
    fn into_iter(self) -> ExecLogIter<'a> {
        self.iter()
    }
}

/// Decoding iterator over an [`ExecLog`]; yields [`ExecRecord`]s by value.
#[derive(Clone, Debug)]
pub struct ExecLogIter<'a> {
    /// The chunks before the last.
    chunks: std::slice::Iter<'a, Vec<u8>>,
    /// The last chunk's written runs, before the open run's staged gaps.
    tail: &'a [u8],
    /// The open run's head and its staged gaps, yielded last.
    open: Option<([u64; 4], &'a [u8])>,
    /// What is left of the written runs being decoded.
    rest: &'a [u8],
    /// The packed gaps left of the run being decoded.
    packed: Unpacking,
    /// The open run's staged gaps left, once its head is yielded.
    staged: &'a [u8],
    prediction: Prediction,
}

/// A run's packed gaps as they are read: how many are left, and the bits
/// read but not yet yielded.
#[derive(Clone, Copy, Debug, Default)]
struct Unpacking {
    left: usize,
    packing: Packed,
    bits: u128,
    filled: u32,
}

impl Unpacking {
    /// The run's next gap, read off `bytes`, if any is left.
    fn next(&mut self, bytes: &mut &[u8]) -> Option<u64> {
        self.left = self.left.checked_sub(1)?;
        let width = self.packing.width;
        while self.filled < width {
            self.bits |= (take_byte(bytes) as u128) << self.filled;
            self.filled += 8;
        }
        let offset = (self.bits & ((1 << width) - 1)) as u64;
        (self.bits, self.filled) = (self.bits >> width, self.filled - width);
        Some(offset.wrapping_add(self.packing.least))
    }
}

impl ExecLogIter<'_> {
    /// Decodes the head of the run `rest` starts with, and readies its
    /// gaps.
    fn take_head(&mut self) -> ExecRecord {
        let mut head = [0; 4];
        for v in &mut head {
            *v = take_varint(&mut self.rest);
        }
        if head[0] & 1 == 1 {
            let left = take_byte(&mut self.rest) as usize + 1;
            let least = unzigzag(take_varint(&mut self.rest));
            let width = take_byte(&mut self.rest) as u32;
            let packing = Packed { least, width };
            self.packed = Unpacking { left, packing, ..Unpacking::default() };
        }
        decode_head(&self.prediction.last, head)
    }
}

impl Iterator for ExecLogIter<'_> {
    type Item = ExecRecord;

    fn next(&mut self) -> Option<ExecRecord> {
        let p = self.prediction;
        let rec = if let Some(gap) = self.packed.next(&mut self.rest) {
            p.predict(gap)
        } else if !self.staged.is_empty() {
            p.predict(unzigzag(take_varint(&mut self.staged)))
        } else {
            if self.rest.is_empty() {
                // Every chunk but the last holds a run.
                self.rest = match self.chunks.next() {
                    Some(chunk) => chunk,
                    None => std::mem::take(&mut self.tail),
                };
            }
            if self.rest.is_empty() {
                let (head, staged) = self.open.take()?;
                self.staged = staged;
                decode_head(&p.last, head)
            } else {
                self.take_head()
            }
        };
        self.prediction.advance(rec);
        Some(rec)
    }
}

/// Counters exposed for the experiment harness and monitoring.
#[derive(Clone, Debug, Default)]
pub struct ValidatorMetrics {
    /// Transactions accepted into the pool.
    pub txs_accepted: u64,
    /// Transactions shed because the pool was full (backpressure).
    pub txs_shed: u64,
    /// Transactions committed in this validator's own vertices.
    pub own_txs_committed: u64,
    /// Vertices proposed.
    pub proposals: u64,
    /// Modeled wire bytes batched into own proposals.
    pub bytes_proposed: u64,
    /// Modeled wire bytes across all committed transactions (every
    /// validator's blocks, not just our own).
    pub bytes_committed: u64,
    /// Leader-await deadlines that expired (anchor never arrived in time).
    pub leader_timeouts: u64,
    /// Own proposals the catch-up jumped over (rounds that reached quorum
    /// before this validator proposed in them).
    pub rounds_skipped: u64,
    /// Committed sub-DAGs observed.
    pub commits: u64,
    /// Times the node restarted from persistent storage.
    pub restarts: u64,
    /// Storage writes (or recovery reads) that failed; each one halts the
    /// node until the next restart.
    pub storage_errors: u64,
    /// Set if post-restart recomputation diverged from the last durable
    /// checkpoint (should never happen; monitoring tripwire).
    pub recovery_divergence: bool,
    /// Per-own-transaction latency records.
    pub exec_records: ExecLog,
}

/// Leader-schedule policy dispatch: a fixed slot table (round-robin, or
/// one pinned leader) or HammerHead's reputation schedule.
enum PolicyKind {
    RoundRobin(RoundRobinPolicy),
    Hammerhead(Box<HammerheadPolicy>),
}

impl SchedulePolicy for PolicyKind {
    fn leader_at(&self, round: Round) -> ValidatorId {
        match self {
            PolicyKind::RoundRobin(p) => p.leader_at(round),
            PolicyKind::Hammerhead(p) => p.leader_at(round),
        }
    }
    fn candidates_at(&self, round: Round) -> &[ValidatorId] {
        match self {
            PolicyKind::RoundRobin(p) => p.candidates_at(round),
            PolicyKind::Hammerhead(p) => p.candidates_at(round),
        }
    }
    fn heard_from(&self, leader: ValidatorId) -> bool {
        match self {
            PolicyKind::RoundRobin(p) => p.heard_from(leader),
            PolicyKind::Hammerhead(p) => p.heard_from(leader),
        }
    }
    fn initial_round(&self) -> Round {
        match self {
            PolicyKind::RoundRobin(p) => p.initial_round(),
            PolicyKind::Hammerhead(p) => p.initial_round(),
        }
    }
    fn epoch(&self) -> u64 {
        match self {
            PolicyKind::RoundRobin(p) => p.epoch(),
            PolicyKind::Hammerhead(p) => p.epoch(),
        }
    }
    fn before_order_anchor(
        &mut self,
        anchor: &Vertex,
        dag: &Dag,
        ordered: &hh_consensus::OrderedSet,
    ) -> ScheduleDecision {
        match self {
            PolicyKind::RoundRobin(p) => p.before_order_anchor(anchor, dag, ordered),
            PolicyKind::Hammerhead(p) => p.before_order_anchor(anchor, dag, ordered),
        }
    }
    fn on_vertex_ordered(
        &mut self,
        vertex: &Vertex,
        dag: &Dag,
        ordered: &hh_consensus::OrderedSet,
    ) {
        match self {
            PolicyKind::RoundRobin(p) => p.on_vertex_ordered(vertex, dag, ordered),
            PolicyKind::Hammerhead(p) => p.on_vertex_ordered(vertex, dag, ordered),
        }
    }
}

impl PolicyKind {
    /// The slot table the run starts from.
    fn initial_schedule(&self) -> &SlotSchedule {
        match self {
            PolicyKind::RoundRobin(p) => p.schedule(),
            PolicyKind::Hammerhead(p) => p.initial_schedule(),
        }
    }

    /// See [`HammerheadPolicy::take_summaries_before`]; a fixed table never
    /// switches.
    fn take_summaries_before(&mut self, epoch: u64) -> Vec<EpochSummary> {
        match self {
            PolicyKind::RoundRobin(_) => Vec::new(),
            PolicyKind::Hammerhead(p) => p.take_summaries_before(epoch),
        }
    }
}

/// A full HammerHead (or baseline Bullshark) validator.
///
/// See the module docs for the protocol flow and `hh-sim` for how nodes are
/// assembled into a network.
pub struct Validator<B: LogBackend> {
    id: ValidatorId,
    committee: Committee,
    config: ValidatorConfig,
    keypair: Keypair,

    dag: Dag,
    rbc: Rbc,
    engine: Bullshark<PolicyKind>,
    store: Option<ValidatorStore<B>>,

    /// The round of this validator's next proposal.
    next_round: Round,
    /// Time of the last own proposal (pacing basis).
    last_proposal_at: u64,
    /// Highest round known to hold quorum stake (cached).
    best_quorum_round: Option<Round>,

    tx_pool: VecDeque<Transaction>,
    /// Own transactions proposed but not yet committed (backpressure).
    uncommitted_txs: u64,

    /// When the (modelled) execution pipeline becomes free.
    exec_free_at: u64,

    /// Earliest armed wake-up, to suppress redundant timers.
    next_wake: u64,
    /// Suppress metric/persistence side effects during recovery replay.
    replaying: bool,
    /// Fail-stopped after a storage error; cleared by the next restart.
    halted: bool,
    /// Network address each client submitted from, for finality
    /// confirmations. Client addresses live outside the committee's id
    /// range; `ValidatorId` doubles as the generic network address here.
    /// Kept across [`Validator::on_restart`]: a simulated client does not
    /// reconnect, so this stands in for its doing so.
    client_addr: std::collections::HashMap<u32, ValidatorId>,

    /// Commit records awaiting collection by the safety checker (see
    /// [`Validator::take_commit_records`]). Replay commits land here
    /// too, flagged `replayed`.
    commit_log: Vec<CommitRecord>,

    metrics: ValidatorMetrics,
    /// Deduplicated equivocation evidence observed by this node. Like
    /// `metrics`, it survives [`Validator::on_restart`]: crash-recovery
    /// replay inserts straight into the DAG, so replayed vertices can
    /// never re-count evidence.
    evidence: EvidenceLedger,
}

impl<B: LogBackend> Validator<B> {
    /// Builds a validator. `backend` enables persistence and
    /// crash-recovery; pass `None` for a volatile node.
    pub fn new(
        committee: Committee,
        id: ValidatorId,
        config: ValidatorConfig,
        backend: Option<B>,
    ) -> Self {
        let keypair = committee.keypair(id);
        let policy = Self::build_policy(&committee, &config);
        Validator {
            id,
            keypair,
            dag: Dag::new(committee.clone()),
            rbc: Rbc::new(committee.clone(), id, config.broadcast_mode),
            engine: Bullshark::new(committee.clone(), policy),
            store: backend.map(ValidatorStore::new),
            next_round: Round(0),
            last_proposal_at: 0,
            best_quorum_round: None,
            tx_pool: VecDeque::new(),
            uncommitted_txs: 0,
            exec_free_at: 0,
            next_wake: u64::MAX,
            replaying: false,
            halted: false,
            client_addr: std::collections::HashMap::new(),
            commit_log: Vec::new(),
            metrics: ValidatorMetrics::default(),
            evidence: EvidenceLedger::new(),
            committee,
            config,
        }
    }

    fn build_policy(committee: &Committee, config: &ValidatorConfig) -> PolicyKind {
        match &config.schedule {
            ScheduleConfig::RoundRobin => {
                PolicyKind::RoundRobin(RoundRobinPolicy::new(SlotSchedule::round_robin(committee)))
            }
            ScheduleConfig::Hammerhead(h) => PolicyKind::Hammerhead(Box::new(
                HammerheadPolicy::new(committee.clone(), h.clone()),
            )),
            ScheduleConfig::StaticLeader(leader) => {
                PolicyKind::RoundRobin(RoundRobinPolicy::new(SlotSchedule::from_slots(vec![
                    *leader,
                ])))
            }
        }
    }

    /// This validator's id.
    pub fn id(&self) -> ValidatorId {
        self.id
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &ValidatorMetrics {
        &self.metrics
    }

    /// Takes the latency records accumulated since the last call,
    /// leaving the buffer empty.
    ///
    /// The real node drains this every status interval, so that a process
    /// that runs for days holds no per-transaction state (the simulator
    /// leaves a run's log in place and reads it when the run stops); the
    /// other counters in [`ValidatorMetrics`] are untouched.
    pub fn take_exec_records(&mut self) -> ExecLog {
        std::mem::take(&mut self.metrics.exec_records)
    }

    /// The local DAG (inspection).
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Takes the commit records accumulated since the last call, in
    /// commit order, leaving the buffer empty. [`crate::Driver::step`]
    /// calls this after every handler call and feeds the safety invariant
    /// checker.
    pub fn take_commit_records(&mut self) -> Vec<CommitRecord> {
        std::mem::take(&mut self.commit_log)
    }

    /// Broadcast-layer retransmissions (sync re-requests + proposal
    /// re-broadcasts) since the last restart — the self-healing
    /// delivery's cost metric. Resets with the RBC state on restart.
    pub fn rbc_retransmits(&self) -> u64 {
        self.rbc.retransmits()
    }

    /// Deduplicated equivocation evidence observed by this node: each
    /// distinct twin pair per `(round, author)` slot is charged exactly
    /// once, no matter how often it is retransmitted.
    pub fn equivocation_evidence(&self) -> &EvidenceLedger {
        &self.evidence
    }

    /// Number of commits observed.
    pub fn commit_count(&self) -> u64 {
        self.engine.commit_count()
    }

    /// The commit chain hash (agreement checks).
    pub fn chain_hash(&self) -> Digest {
        self.engine.chain_hash()
    }

    /// The first anchor of the latest commit; `None` before the first.
    pub fn last_anchor(&self) -> Option<&VertexRef> {
        self.engine.last_anchor()
    }

    /// [`Validator::last_anchor`] as a slice of at most one anchor. The
    /// validator keeps no other: the whole sequence is the run's
    /// [`SafetyChecker::anchor_prefix`](crate::SafetyChecker::anchor_prefix)
    /// of [`Validator::commit_count`].
    pub fn committed_anchors(&self) -> &[VertexRef] {
        self.last_anchor().map_or(&[], std::slice::from_ref)
    }

    /// How many leader slots the ordered prefix decided skip (Lemma 6's
    /// skipped leader rounds; [`Bullshark::passed_over_candidates`]).
    pub fn passed_over_candidates(&self) -> u64 {
        self.engine.passed_over_candidates()
    }

    /// How many leader slots the ordered prefix decided
    /// ([`Bullshark::leader_rounds`]).
    pub fn leader_rounds(&self) -> u64 {
        self.engine.leader_rounds()
    }

    /// The round of this validator's next proposal.
    pub fn current_round(&self) -> Round {
        self.next_round
    }

    /// The HammerHead policy, when configured.
    pub fn hammerhead_policy(&self) -> Option<&HammerheadPolicy> {
        match self.engine.policy() {
            PolicyKind::Hammerhead(p) => Some(p),
            _ => None,
        }
    }

    /// The leader this validator's schedule assigns to `round`, a round
    /// at or above its DAG's GC horizon: the validator keeps no schedule
    /// below it. The run's [`SafetyChecker`](crate::SafetyChecker) answers
    /// for past rounds.
    pub fn leader_at(&self, round: Round) -> ValidatorId {
        self.engine.current_leader(round)
    }

    /// The slot table the run starts from: S0 under HammerHead, the fixed
    /// table otherwise. It leads every round below the first switch.
    pub fn initial_schedule(&self) -> &SlotSchedule {
        self.engine.policy().initial_schedule()
    }

    /// Whether the node has fail-stopped after a storage error (see
    /// [`Output::StorageError`]).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether the store holds a log to restart from.
    pub(crate) fn holds_log(&self) -> bool {
        self.store.as_ref().is_some_and(|s| s.size_bytes() > 0)
    }

    /// Startup: arm the maintenance tick and propose the genesis vertex.
    pub fn on_start(&mut self, now: u64) -> Vec<Output> {
        if self.halted {
            return Vec::new();
        }
        let mut out = Vec::new();
        out.push(Output::SetTimer { delay_us: self.config.sync_tick_us, token: TOKEN_TICK });
        self.drive(now, &mut out);
        out
    }

    /// Handles a message from a peer validator or a client.
    ///
    /// Borrows the message: the network layer shares one frame between
    /// all recipients, and the broadcast layer's `Arc`'d vertex payloads
    /// mean nothing on this path needs an owned copy (a submitted
    /// transaction is the one small exception, cloned into the pool).
    pub fn on_message(
        &mut self,
        from: ValidatorId,
        msg: &ValidatorMessage,
        now: u64,
    ) -> Vec<Output> {
        if self.halted {
            return Vec::new();
        }
        let mut out = Vec::new();
        match msg {
            ValidatorMessage::Submit(tx) => {
                self.client_addr.insert(tx.client, from);
                if self.tx_pool.len() < POOL_CAPACITY {
                    self.tx_pool.push_back(*tx);
                    self.metrics.txs_accepted += 1;
                } else {
                    self.metrics.txs_shed += 1;
                    // Failure confirmation so the client's in-flight window
                    // does not leak.
                    out.push(Output::Send(
                        from,
                        ValidatorMessage::Confirm { id: tx.id(), executed_at: u64::MAX },
                    ));
                }
            }
            ValidatorMessage::Rbc(rbc_msg) => {
                let fx = self.rbc.handle(from, rbc_msg, &mut self.dag);
                self.absorb_rbc(fx, now, &mut out);
            }
            ValidatorMessage::Confirm { .. } => {
                // Validators never consume confirmations.
            }
        }
        self.drive(now, &mut out);
        out
    }

    /// Handles a timer armed through an earlier [`Output::SetTimer`].
    pub fn on_timer(&mut self, token: u64, now: u64) -> Vec<Output> {
        if self.halted {
            return Vec::new();
        }
        let mut out = Vec::new();
        match token {
            TOKEN_TICK => {
                let fx = self.rbc.tick(&self.dag);
                self.absorb_rbc(fx, now, &mut out);
                out.push(Output::SetTimer {
                    delay_us: self.config.sync_tick_us,
                    token: TOKEN_TICK,
                });
            }
            TOKEN_WAKE if self.next_wake <= now => {
                self.next_wake = u64::MAX;
            }
            _ => {}
        }
        self.drive(now, &mut out);
        out
    }

    /// Restart after a crash: drop all volatile state and rebuild from the
    /// persistent store (if any), then resume proposing.
    ///
    /// Commits are recomputed by replaying persisted vertices through a
    /// fresh engine — never trusted from disk — and cross-checked against
    /// the last durable checkpoint.
    pub fn on_restart(&mut self, now: u64) -> Vec<Output> {
        // Volatile state dies with the crash — a storage-fault halt too:
        // the node retries against its (possibly repaired) store from
        // scratch. What survives is named here: the store; the metrics,
        // the evidence ledger and the commit log, which belong to whoever
        // observes the node; and the clients' addresses, the simulator's
        // stand-in for clients reconnecting to a restarted node.
        let fresh = Self::new(self.committee.clone(), self.id, self.config.clone(), None);
        let crashed = std::mem::replace(self, fresh);
        self.store = crashed.store;
        self.metrics = crashed.metrics;
        self.evidence = crashed.evidence;
        self.commit_log = crashed.commit_log;
        self.client_addr = crashed.client_addr;
        self.metrics.restarts += 1;

        let mut unfinished = None;
        if let Some(store) = &mut self.store {
            let recovered = match store.recover() {
                Ok(recovered) => recovered,
                Err(e) => {
                    let mut out = Vec::new();
                    self.halt_on_storage_error("recover", &e, &mut out);
                    return out;
                }
            };
            self.replaying = true;
            let mut replay_out = Vec::new();
            // The replay feeds the engine the vertices in the order it
            // first saw them, so it passes through the checkpointed state
            // between two deliveries.
            let at_checkpoint = |engine: &Bullshark<PolicyKind>| {
                recovered.last_checkpoint.is_none_or(|(idx, expected)| {
                    engine.commit_count() == idx && engine.chain_hash() == expected
                })
            };
            let mut reached = at_checkpoint(&self.engine);
            for vertex in recovered.vertices {
                // The log holds each digest once, so a fresh DAG stores this
                // very allocation.
                let vertex = Arc::new(vertex);
                if self.dag.try_insert_arc(vertex.clone()) == Ok(InsertOutcome::Inserted) {
                    if vertex.author() == self.id {
                        self.uncommitted_txs += vertex.block().len() as u64;
                        if vertex.round() >= self.next_round {
                            self.next_round = vertex.round().next();
                        }
                    }
                    self.on_delivered(vertex, now, &mut replay_out);
                    reached |= at_checkpoint(&self.engine);
                }
            }
            debug_assert!(replay_out.is_empty(), "replay must not emit effects");
            self.replaying = false;
            // Cross-check the recomputed chain against the durable
            // checkpoint.
            self.metrics.recovery_divergence |= !reached;
            // The newest own proposal the replay did not deliver was in
            // flight at the crash (certified mode).
            unfinished = recovered.proposal.filter(|v| v.round() >= self.next_round);
        }

        self.last_proposal_at = now;
        let mut out = Vec::new();
        out.push(Output::SetTimer { delay_us: self.config.sync_tick_us, token: TOKEN_TICK });
        // Re-announce our latest vertex so peers learn we are back and can
        // serve us anything we missed (their responses resync us forward).
        // Best-effort only: a certified peer accepts a vertex only with its
        // certificate, and certificates are not persisted.
        if self.next_round.0 > 0 && self.rbc.mode() == BroadcastMode::BestEffort {
            if let Some(v) = self.dag.vertex_by_author(self.next_round.prev(), self.id) {
                out.push(Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Vertex(v.clone()))));
            }
        }
        // Its acks may be out: propose that very vertex again.
        if let Some(vertex) = unfinished {
            self.uncommitted_txs += vertex.block().len() as u64;
            self.next_round = vertex.round().next();
            let fx = self.rbc.broadcast_own(vertex, &mut self.dag);
            self.absorb_rbc(fx, now, &mut out);
        }
        self.drive(now, &mut out);
        out
    }

    /// Graceful shutdown: persist a final commit checkpoint and force the
    /// store to durable media, so a subsequent [`Validator::on_restart`]
    /// recovers to the exact shutdown state without replay divergence.
    ///
    /// Idempotent and safe on a halted node (a storage fault during the
    /// flush is surfaced as [`Output::StorageError`], like any other write
    /// failure). `hh-node` steps its driver through
    /// [`Event::Shutdown`](crate::Event::Shutdown) when its control stdin
    /// closes, before exiting; the simulator never needs it because
    /// `MemBackend` has nothing to flush.
    pub fn on_shutdown(&mut self, _now: u64) -> Vec<Output> {
        let mut out = Vec::new();
        if let Some(store) = &mut self.store {
            let result = store
                .persist_checkpoint(self.engine.commit_count(), self.engine.chain_hash())
                .and_then(|()| store.sync());
            if let Err(e) = result {
                self.halt_on_storage_error("shutdown flush", &e, &mut out);
            }
        }
        out
    }

    /// Routes broadcast-layer outputs and feeds delivered vertices to the
    /// consensus engine.
    fn absorb_rbc(&mut self, fx: hh_rbc::RbcEffects, now: u64, out: &mut Vec<Output>) {
        for (to, msg) in fx.send {
            out.push(Output::Send(to, ValidatorMessage::Rbc(msg)));
        }
        for msg in fx.broadcast {
            out.push(Output::Broadcast(ValidatorMessage::Rbc(msg)));
        }
        for ev in &fx.evidence {
            self.evidence.observe_evidence(ev);
        }
        for vertex in fx.delivered {
            self.on_delivered(vertex, now, out);
        }
    }

    fn on_delivered(&mut self, vertex: Arc<Vertex>, now: u64, out: &mut Vec<Output>) {
        if self.halted {
            return;
        }
        if !self.replaying {
            if let Some(store) = &mut self.store {
                // Persist before acting (write-ahead discipline): on an
                // I/O failure the vertex is dropped un-acted-upon and the
                // node fail-stops.
                if let Err(e) = store.persist_vertex(&vertex) {
                    self.halt_on_storage_error("persist vertex", &e, out);
                    return;
                }
            }
        }
        self.note_quorum(vertex.round());
        let commits = self.engine.process_vertex(&vertex, &self.dag);
        for sd in commits {
            self.on_commit(sd, now, out);
        }
    }

    /// Fail-stop on a storage fault: record it, replace the step's queued
    /// outputs with a typed [`Output::StorageError`], and ignore further
    /// input until restart.
    fn halt_on_storage_error(
        &mut self,
        context: &'static str,
        error: &dyn std::fmt::Display,
        out: &mut Vec<Output>,
    ) {
        self.metrics.storage_errors += 1;
        self.halted = true;
        out.clear();
        out.push(Output::StorageError(StorageFault { context, detail: error.to_string() }));
    }

    fn note_quorum(&mut self, round: Round) {
        if self.best_quorum_round.is_none_or(|b| round > b) && self.dag.is_quorum_at(round) {
            self.best_quorum_round = Some(round);
        }
    }

    fn on_commit(&mut self, sd: CommittedSubDag, now: u64, out: &mut Vec<Output>) {
        self.metrics.commits += 1;
        let horizon = Round(sd.anchor.round.0.saturating_sub(self.config.gc_depth));
        self.commit_log.push(CommitRecord {
            index: sd.commit_index,
            anchor: sd.anchor,
            vertices: sd.vertices.iter().map(|v| v.reference()).collect(),
            horizon,
            replayed: self.replaying,
            summaries: self.engine.policy_mut().take_summaries_before(sd.schedule_epoch),
        });
        let tx_interval_us = 1_000_000 / self.config.exec_rate_tps.max(1);
        for vertex in &sd.vertices {
            let own = vertex.author() == self.id;
            if own {
                self.uncommitted_txs =
                    self.uncommitted_txs.saturating_sub(vertex.block().len() as u64);
            }
            // Replay recomputes the order; the transactions below a restart
            // were executed before the crash, and charging them again would
            // start the node a whole history behind its execution pipeline.
            if self.replaying {
                continue;
            }
            for tx in vertex.block().transactions() {
                // Every validator executes every committed transaction at a
                // bounded rate (the Sui execution-pipeline stand-in).
                let start = self.exec_free_at.max(now);
                let finish = start + tx_interval_us;
                self.exec_free_at = finish;
                self.metrics.bytes_committed += tx.wire_bytes() as u64;
                if own {
                    self.metrics.own_txs_committed += 1;
                    self.metrics.exec_records.push(ExecRecord {
                        submitted_at: tx.submitted_at,
                        committed_at: now,
                        executed_at: finish,
                        bytes: tx.wire_bytes().min(u32::MAX as usize) as u32,
                    });
                    // Finality confirmation to the submitting client.
                    if let Some(addr) = self.client_addr.get(&tx.client) {
                        out.push(Output::Send(
                            *addr,
                            ValidatorMessage::Confirm { id: tx.id(), executed_at: finish },
                        ));
                    }
                }
            }
        }
        if !self.replaying {
            if let Some(store) = &mut self.store {
                if sd.commit_index.is_multiple_of(CHECKPOINT_INTERVAL) {
                    let result = store
                        .persist_checkpoint(self.engine.commit_count(), self.engine.chain_hash());
                    if let Err(e) = result {
                        self.halt_on_storage_error("persist checkpoint", &e, out);
                        return;
                    }
                }
            }
        }
        // Garbage-collect far-ordered history.
        self.dag.gc(horizon);
    }

    /// The proposer loop: advance as many rounds as conditions allow; on a
    /// time-gated condition, arm a precise wake-up timer.
    ///
    /// Catch-up: when a round at or above the next proposal already holds
    /// quorum, the rounds up to it are lost — the committee moved on
    /// without this validator's vertices — and the proposer resumes above
    /// it. The one exception is a quorum candidate round this validator
    /// *leads*: the others are sitting in their leader-await for exactly
    /// that anchor, so skipping it would cost everyone `leader_timeout_us`
    /// for an honest leader. The proposer resumes *at* that round instead
    /// (the round below it holds quorum: every stored vertex has its
    /// parents stored).
    ///
    /// Leader-await: leaving a round that holds an anchor candidate
    /// ([`Bullshark::is_candidate_round`]) waits for its leader's vertex,
    /// but not for one that cannot come. A commit at the (f+1)-th vote can
    /// switch schedules while slower validators are still in the anchor's
    /// round, and the new schedule may name for that round a leader that
    /// skipped it; its vertex one round up says so. Nor does it wait for a
    /// leader nobody has heard from: once round 0 has closed, a leader the
    /// policy reports never ordered ([`SchedulePolicy::heard_from`]) is
    /// passed by at once unless this validator's DAG holds one of its
    /// vertices in a retained round. The engine reads the same predicate
    /// and decides such a leader's slot at the quorum of the round above
    /// ([`Bullshark::process_vertex`]), so no commit waits for it either.
    ///
    /// That last guard is what keeps the rule live. A validator that is
    /// sending has vertices in this DAG, ordered yet or not, and is awaited
    /// exactly as without the rule, so no live leader loses the wait it
    /// needs to anchor; one whose first vertex arrives late is awaited
    /// from that delivery on. Only a leader that has stayed silent towards
    /// this validator is passed, and such a validator scores zero and
    /// ranks lowest at the first switch anyway. Without the guard a leader
    /// that is delivered but never ordered (an equivocator nobody links to)
    /// would never be awaited, and its clients' transactions would stop
    /// committing.
    ///
    /// Which rounds are candidates is read off this validator's own engine,
    /// whose instance may be one commit behind the committee's: then it
    /// awaits the leader of a round that is no candidate any more, or
    /// passes by one that has become one. Either costs latency — a wait
    /// that was not needed, an anchor short of a vote — never safety: the
    /// order is a function of the DAG, not of who waited for whom.
    fn drive(&mut self, now: u64, out: &mut Vec<Output>) {
        loop {
            if self.halted {
                return;
            }
            if self.next_round == Round(0) {
                self.propose(Round(0), now, out);
                continue;
            }
            if let Some(best) = self.best_quorum_round {
                if best >= self.next_round {
                    let leads = self.engine.is_candidate_round(best)
                        && self.engine.current_leader(best) == self.id;
                    let resume = if leads { best } else { best.next() };
                    self.metrics.rounds_skipped += resume.0 - self.next_round.0;
                    self.next_round = resume;
                }
            }
            let prev = self.next_round.prev();
            if !self.dag.is_quorum_at(prev) {
                return; // wait for deliveries
            }
            let elapsed = now.saturating_sub(self.last_proposal_at);
            if elapsed < self.config.min_round_delay_us {
                self.arm_wake(now, self.last_proposal_at + self.config.min_round_delay_us, out);
                return;
            }
            if self.engine.is_candidate_round(prev) {
                let leader = self.engine.current_leader(prev);
                // An anchor is still to come only while its author has not
                // proposed above it: nobody returns to a round they passed.
                // And only from a leader that has been heard from.
                let awaited = leader != self.id
                    && self.dag.vertex_by_author(prev, leader).is_none()
                    && self.dag.vertex_by_author(self.next_round, leader).is_none()
                    && (self.engine.policy().heard_from(leader) || self.dag.holds_author(leader));
                if awaited {
                    if elapsed < self.config.leader_timeout_us {
                        self.arm_wake(
                            now,
                            self.last_proposal_at + self.config.leader_timeout_us,
                            out,
                        );
                        return;
                    }
                    self.metrics.leader_timeouts += 1;
                }
            }
            let round = self.next_round;
            self.propose(round, now, out);
        }
    }

    fn arm_wake(&mut self, now: u64, deadline: u64, out: &mut Vec<Output>) {
        if deadline < self.next_wake || self.next_wake <= now {
            self.next_wake = deadline;
            let delay_us = deadline.saturating_sub(now).max(1);
            out.push(Output::SetTimer { delay_us, token: TOKEN_WAKE });
        }
    }

    fn propose(&mut self, round: Round, now: u64, out: &mut Vec<Output>) {
        // `round_vertices` walks the round's vertices in ascending author
        // order — identical DAG state yields identical vertex digests.
        let below = match round.0 {
            0 => [].iter(),
            _ => self.dag.round_vertices(round.prev()),
        };
        // Where the committee is in step every proposer links the same
        // parents: a round-`round` vertex already held with an equal list
        // lends its allocation, so the round stores the list once; else the
        // list is built in one allocation of its exact size (the walk knows
        // its length). The digest, the signature and the wire bytes are the
        // same either way.
        let equal = |v: &&Arc<Vertex>| v.parents().iter().eq(below.clone().map(|p| p.digest_ref()));
        let parents: Arc<[Digest]> = match self.dag.round_vertices(round).find(equal) {
            Some(v) => v.shared_parents().clone(),
            None => below.map(|p| p.digest()).collect(),
        };
        // Backpressure: stop pulling from the pool once too many of our
        // transactions sit uncommitted.
        let budget = (MAX_UNCOMMITTED_TXS as u64).saturating_sub(self.uncommitted_txs);
        let max_take = self.tx_pool.len().min(MAX_BLOCK_TXS).min(budget as usize);
        // Byte bound: batch until the next transaction would overflow
        // `max_block_bytes`; the first transaction always fits so an
        // oversized one cannot wedge the pool.
        let mut take = 0;
        let mut batch_bytes = 0usize;
        while take < max_take {
            let wire = self.tx_pool[take].wire_bytes();
            if take > 0 && batch_bytes.saturating_add(wire) > self.config.max_block_bytes {
                break;
            }
            batch_bytes += wire;
            take += 1;
        }
        let batch: Vec<Transaction> = self.tx_pool.drain(..take).collect();
        self.uncommitted_txs += batch.len() as u64;
        if !batch.is_empty() {
            self.metrics.bytes_proposed += batch_bytes as u64;
        }

        let vertex = Vertex::new(round, self.id, Block::new(batch), parents, &self.keypair);
        self.metrics.proposals += 1;
        // Certified mode asks for acks before the vertex is delivered, and
        // so persisted: write it ahead, so that a restart proposes it again
        // instead of a second vertex for its round.
        let certified = self.rbc.mode() == BroadcastMode::Certified;
        if let Some(store) = self.store.as_mut().filter(|_| certified) {
            if let Err(e) = store.persist_proposal(&vertex) {
                self.halt_on_storage_error("persist proposal", &e, out);
                return;
            }
        }
        let fx = self.rbc.broadcast_own(vertex, &mut self.dag);
        self.absorb_rbc(fx, now, out);
        self.next_round = round.next();
        self.last_proposal_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{route, Driver, Event, SafetyChecker, Transport};
    use hh_net::wheel::TimingWheel;
    use hh_net::SimTime;
    use hh_storage::MemBackend;

    /// A validator alone in its committee on the driver: quorum 1, so it
    /// self-paces rounds and commits alone, exercising the whole propose →
    /// deliver → commit → execute pipeline without a network. Its commits
    /// go to `checker`; storage faults are collected in `faults`.
    ///
    /// It is its own transport: with no peers, sends and broadcasts go
    /// nowhere but are counted in `routed`, and timers wait in the
    /// simulator's wheel, keyed by deadline and arming order.
    struct Solo<B: LogBackend = MemBackend> {
        driver: Driver<B>,
        timers: TimingWheel<u64>,
        now: u64,
        checker: SafetyChecker,
        faults: Vec<StorageFault>,
        routed: usize,
    }

    impl<B: LogBackend> Transport for Solo<B> {
        fn send(&mut self, _: ValidatorId, _: ValidatorMessage) {
            self.routed += 1;
        }
        fn broadcast(&mut self, _: ValidatorMessage) {
            self.routed += 1;
        }
        fn set_timer(&mut self, delay_us: u64, token: u64) {
            self.routed += 1;
            self.timers.arm(SimTime(self.now + delay_us), token);
        }
    }

    impl Solo {
        fn volatile(config: ValidatorConfig) -> Self {
            Solo::new(config, None, SafetyChecker::new())
        }
    }

    impl<B: LogBackend> Solo<B> {
        fn new(config: ValidatorConfig, backend: Option<B>, checker: SafetyChecker) -> Self {
            let v = Validator::new(Committee::new_equal_stake(1), ValidatorId(0), config, backend);
            let driver = Driver::new(v, Some(checker.clone()));
            let (timers, now, faults) = (TimingWheel::new(), 0, Vec::new());
            Solo { driver, timers, now, checker, faults, routed: 0 }
        }

        fn v(&self) -> &Validator<B> {
            self.driver.validator()
        }

        fn step(&mut self, event: Event<'_>) {
            let out = self.driver.step(event, self.now);
            let routed = self.routed;
            if let Err(fault) = route(out, self) {
                assert_eq!(self.routed, routed, "{fault}: the failing step routed its outputs");
                self.faults.push(fault);
            }
        }

        fn submit(&mut self, tx: Transaction) {
            self.step(Event::Message(ValidatorId(0), &ValidatorMessage::Submit(tx)));
        }

        /// Fires every timer due by `deadline`, then moves the clock there.
        fn run_until(&mut self, deadline: u64) {
            while let Some((at, token)) = self.timers.pop_if_at_most(SimTime(deadline)) {
                self.now = at.0;
                self.step(Event::Timer(token));
            }
            self.now = deadline;
        }
    }

    fn fast_config() -> ValidatorConfig {
        ValidatorConfig {
            min_round_delay_us: 1_000,
            leader_timeout_us: 10_000,
            sync_tick_us: 50_000,
            ..ValidatorConfig::default()
        }
    }

    #[test]
    fn solo_validator_commits_and_executes() {
        let mut solo = Solo::volatile(fast_config());
        solo.step(Event::Boot);
        for i in 0..10 {
            solo.submit(Transaction::new(0, i, 0));
        }
        solo.run_until(1_000_000);
        let v = solo.v();
        assert!(v.commit_count() > 10, "commits: {}", v.commit_count());
        assert_eq!(solo.checker.records_seen(), v.commit_count(), "the driver audits every commit");
        solo.checker.assert_clean();
        assert_eq!(v.metrics().txs_accepted, 10);
        assert_eq!(v.metrics().own_txs_committed, 10);
        assert_eq!(v.metrics().exec_records.len(), 10);
        for rec in &v.metrics().exec_records {
            assert!(rec.committed_at >= rec.submitted_at);
            assert!(rec.executed_at > rec.committed_at);
        }
        // No leader timeouts: the solo node is always its own leader.
        assert_eq!(v.metrics().leader_timeouts, 0);
    }

    #[test]
    fn pool_capacity_sheds_excess() {
        let mut solo = Solo::volatile(fast_config());
        solo.step(Event::Boot);
        // Submit while the proposer is paced out, so the pool fills up.
        let offered = POOL_CAPACITY as u64 + 10;
        for i in 0..offered {
            solo.submit(Transaction::new(0, i, 0));
        }
        let m = solo.v().metrics();
        assert_eq!((m.txs_accepted, m.txs_shed), (POOL_CAPACITY as u64, 10));
    }

    #[test]
    fn rounds_are_paced() {
        let config = ValidatorConfig { min_round_delay_us: 100_000, ..fast_config() };
        let mut solo = Solo::volatile(config);
        solo.step(Event::Boot);
        solo.run_until(1_000_000);
        // ~1s / 100ms pacing → about 10 proposals (plus genesis).
        let proposals = solo.v().metrics().proposals;
        assert!((8..=13).contains(&proposals), "proposals: {proposals}");
    }

    #[test]
    fn crash_recovery_restores_commits_from_storage() {
        let backend = MemBackend::new();
        let mut solo = Solo::new(fast_config(), Some(backend.clone()), SafetyChecker::new());
        solo.step(Event::Boot);
        for i in 0..5 {
            solo.submit(Transaction::new(0, i, 0));
        }
        solo.run_until(500_000);
        let commits_before = solo.v().commit_count();
        let chain_before = solo.checker.anchor_prefix(commits_before);
        assert!(commits_before > 0);

        // Crash: a fresh validator boots from the same store, audited by
        // the same checker, which holds every replayed commit to the
        // pre-crash one of its index: anchor, sub-DAG and schedule switches.
        let mut revived = Solo::new(fast_config(), Some(backend), solo.checker.clone());
        revived.now = 600_000;
        revived.step(Event::Boot);
        assert_eq!(revived.v().metrics().restarts, 1, "a store holding a log boots a restart");
        assert!(revived.v().commit_count() >= commits_before.saturating_sub(1));
        assert!(!revived.v().metrics().recovery_divergence, "checkpoint must match");
        // The replay recomputes the pre-crash chain, commit by commit.
        let recovered = revived.checker.anchor_prefix(revived.v().commit_count());
        assert_eq!(recovered, chain_before[..recovered.len()], "not a prefix");
        assert_eq!(revived.checker.records_seen(), commits_before + revived.v().commit_count());
        // Replay must not duplicate execution records.
        assert!(revived.v().metrics().exec_records.is_empty());
        // And the node keeps committing after recovery.
        revived.run_until(1_200_000);
        assert!(revived.v().commit_count() > commits_before);
        revived.checker.assert_clean();
    }

    #[test]
    fn restart_on_an_empty_store_is_a_new_validator_but_for_the_survivors() {
        /// Every field that dies with a crash, as something comparable.
        /// The pattern is exhaustive: a new field has to be placed here or
        /// among the survivors before this compiles.
        fn volatile(v: &Validator<MemBackend>) -> impl PartialEq + std::fmt::Debug {
            let Validator {
                id,
                committee,
                config,
                keypair,
                dag,
                rbc,
                engine,
                next_round,
                last_proposal_at,
                best_quorum_round,
                tx_pool,
                uncommitted_txs,
                exec_free_at,
                next_wake,
                replaying,
                halted,
                store: _,
                metrics: _,
                evidence: _,
                commit_log: _,
                client_addr: _,
            } = v;
            (
                (*id, committee.size(), config.clone(), keypair.public()),
                (dag.len(), dag.highest_round(), rbc.pending_len(), rbc.retransmits()),
                (engine.commit_count(), engine.chain_hash(), engine.current_leader(Round(2))),
                (*next_round, *last_proposal_at, *best_quorum_round, tx_pool.clone()),
                (*uncommitted_txs, *exec_free_at, *next_wake, *replaying, *halted),
            )
        }

        let committee = Committee::new_equal_stake(4);
        let make =
            |backend| Validator::new(committee.clone(), ValidatorId(1), fast_config(), backend);
        // A validator that ran, without a store to fill: its volatile parts
        // go onto one whose store is there and empty.
        let mut ran: Validator<MemBackend> = make(None);
        let submit = ValidatorMessage::Submit(Transaction::new(7, 0, 0));
        ran.on_message(ValidatorId(40), &submit, 5);
        ran.on_message(ValidatorId(40), &submit, 5);
        ran.on_start(10);
        ran.halted = true;
        let fresh = volatile(&make(None));
        assert_ne!(volatile(&ran), fresh);
        let mut crashed = Validator { store: Some(ValidatorStore::new(MemBackend::new())), ..ran };

        let mut started = make(Some(MemBackend::new()));
        let restarted = format!("{:?}", crashed.on_restart(50));
        assert_eq!(restarted, format!("{:?}", started.on_start(50)));
        assert_eq!(volatile(&crashed), volatile(&started));
        assert_ne!(volatile(&crashed), fresh, "both proposed their genesis vertex");
        // The survivors.
        assert!(crashed.store.is_some());
        assert_eq!(crashed.client_addr.get(&7), Some(&ValidatorId(40)));
        let m = crashed.metrics();
        assert_eq!((m.restarts, m.txs_accepted, m.proposals), (1, 2, 2));
    }

    #[test]
    fn replay_does_not_charge_the_execution_pipeline() {
        // 1,200 committed transactions in the store are 286 ms of
        // execution at 4,200 tx/s: a restart that ran them through the
        // pipeline again would make the next transaction wait that long.
        let config = fast_config();
        let backend = MemBackend::new();
        let mut solo = Solo::new(config.clone(), Some(backend.clone()), SafetyChecker::new());
        solo.step(Event::Boot);
        for i in 0..1_200 {
            solo.submit(Transaction::new(0, i, 0));
        }
        solo.run_until(1_000_000);
        assert_eq!(solo.v().metrics().own_txs_committed, 1_200);

        let mut revived = Solo::new(config.clone(), Some(backend), SafetyChecker::new());
        revived.now = 1_000_000;
        revived.step(Event::Boot);
        revived.submit(Transaction::new(0, 1_200, revived.now));
        revived.run_until(1_500_000);

        let recs: Vec<_> = revived.v().metrics().exec_records.iter().collect();
        assert_eq!(recs.len(), 1, "only the transaction submitted after the restart");
        let bound_us = 100 * (1_000_000 / config.exec_rate_tps);
        let waited = recs[0].executed_at - recs[0].committed_at;
        assert!(
            waited <= bound_us,
            "commit → execute {waited} µs, 100 transactions are {bound_us} µs"
        );
    }

    #[test]
    fn exec_log_costs_at_most_one_and_a_half_bytes_a_record_on_the_benchmarks_stream() {
        // The benchmark's arrival process (hh-sim's `Workload::constant()`
        // at 3,000 tx/s over seven clients): 428 tx/s, each interval
        // 2,333 µs ± 10 %, so the gaps of a run lie within 467 µs of each
        // other, nine bits each. At the default pacing and execution rate
        // a commit's records are one run of about 43: 1.4 B a record here,
        // against 32 B for the struct. A prediction that stops holding, or
        // gaps packed wider than their spread, must not go unnoticed.
        let mut solo = Solo::volatile(ValidatorConfig::default());
        solo.step(Event::Boot);
        let (mut state, mut at) = (0x9e37_79b9_7f4a_7c15u64, 0);
        for i in 0..10_000 {
            // xorshift64: any uniform draw will do.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            at += 2_100 + state % 467;
            solo.run_until(at);
            solo.submit(Transaction::new(0, i, solo.now));
        }
        solo.run_until(at + 1_000_000);
        let log = &solo.v().metrics().exec_records;
        assert_eq!(log.len(), 10_000);
        assert!(
            2 * log.encoded_bytes() <= 3 * log.len(),
            "{} B for {} records",
            log.encoded_bytes(),
            log.len()
        );
    }

    #[test]
    fn exec_log_chunks_double_to_64_kib_and_never_grow() {
        let capacity = |log: &ExecLog| log.chunks.iter().map(Vec::capacity).sum::<usize>();
        let mut log = ExecLog::default();
        assert_eq!((log.chunks.capacity(), capacity(&log)), (0, 0), "an empty log allocates");
        // Commits of 40 records and a size change every 13: runs of
        // several lengths and widths, so chunks end on ragged tails.
        let rec = |i: u64| ExecRecord {
            submitted_at: i * i,
            committed_at: i / 40 * 97,
            executed_at: i * 250,
            bytes: (i / 13 * 7_919 % 70_000) as u32,
        };
        // Where each chunk's bytes live: a chunk that reallocated moves.
        let mut opened = Vec::new();
        let mut cut_to_size = 0;
        for i in 0..300_000 {
            log.push(rec(i));
            if log.chunks.len() > opened.len() {
                opened.push(log.chunks.last().unwrap().as_ptr());
            }
            // A clone's chunks are cut to size: one holding only an open
            // run's first staged gap has no room for the run it closes to.
            if log.open.is_some_and(|run| run.gaps == 1 && run.at == 0) {
                let mut copy = log.clone();
                copy.push(rec(i + 1));
                assert!(copy.iter().eq((0..=i + 1).map(rec)), "a clone taken at {i}");
                cut_to_size += 1;
            }
        }
        assert!(cut_to_size > 0);
        let capacities: Vec<usize> = log.chunks.iter().map(Vec::capacity).collect();
        assert!(capacities.len() > 9, "{} chunks", capacities.len());
        let kib = [1, 2, 4, 8, 16, 32].into_iter().chain(std::iter::repeat(64));
        let planned = kib.map(|k| k << 10).take(capacities.len());
        assert!(capacities.iter().copied().eq(planned), "{capacities:?}");
        assert!(log.chunks.iter().map(|c| c.as_ptr()).eq(opened), "a chunk reallocated");
        // A full chunk leaves under one run's bytes unused, and a run never
        // straddles two: each full chunk decodes alone to whole runs.
        let full = &log.chunks[..log.chunks.len() - 1];
        assert!(full.iter().all(|c| c.capacity() - c.len() < EXEC_RUN_MAX));
        let empty = ExecLog::default();
        let alone = |chunk| ExecLogIter { rest: chunk, ..empty.iter() }.count();
        let starts: Vec<usize> = full
            .iter()
            .scan(0, |at, c| {
                *at += alone(c);
                Some(*at)
            })
            .collect();
        let open = log.open.map_or(0, |run| run.gaps + 1);
        assert_eq!(starts.last().unwrap() + alone(log.iter().tail) + open, log.len());
        // Runs end at a commit (every 40) or a size change (every 13), or
        // where a full chunk cuts them: most chunks open inside a run.
        let cut = starts.iter().filter(|&&i| i % 40 != 0 && i % 13 != 0).count();
        assert!(2 * cut > starts.len(), "{cut} of {} chunks open inside a run", starts.len());

        // A clone holds its bytes exactly, and a copied chunk it adds to is
        // never grown: the run that no longer fits moves to a new chunk.
        let mut copy = log.clone();
        let written: Vec<usize> = log.chunks.iter().map(Vec::len).collect();
        assert!(copy.chunks.iter().map(Vec::capacity).eq(written.iter().copied()));
        let copied: Vec<*const u8> = copy.chunks.iter().map(|c| c.as_ptr()).collect();
        for i in 300_000..300_100 {
            copy.push(rec(i));
        }
        assert!(copy.chunks.len() > log.chunks.len());
        assert!(copy.chunks.iter().map(|c| c.as_ptr()).take(copied.len()).eq(copied));
        assert!(copy.chunks.iter().map(Vec::capacity).take(written.len()).eq(written));
        assert!(copy.iter().eq((0..300_100).map(rec)));
        assert!(log.iter().eq((0..300_000).map(rec)));
    }

    /// Which writes a [`FailingBackend`] fails; its handles share one.
    #[derive(Debug, Default)]
    struct Plan {
        /// Appends that went through.
        appends: usize,
        /// Fail every append from this one (0-based) on.
        fail_from: Option<usize>,
        /// Fail the next rewrite.
        fail_rewrite: bool,
        /// Fail the next sync.
        fail_sync: bool,
    }

    /// A memory log whose writes fail as its [`Plan`] says: the "disk full
    /// / device gone" shape.
    #[derive(Clone, Debug, Default)]
    struct FailingBackend {
        inner: MemBackend,
        plan: Arc<std::sync::Mutex<Plan>>,
    }

    impl FailingBackend {
        fn plan(&self) -> std::sync::MutexGuard<'_, Plan> {
            self.plan.lock().expect("no test panics holding the plan")
        }
    }

    fn injected() -> std::io::Error {
        std::io::Error::other("injected fault")
    }

    impl LogBackend for FailingBackend {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            {
                let mut plan = self.plan();
                if plan.fail_from.is_some_and(|k| plan.appends >= k) {
                    return Err(injected());
                }
                plan.appends += 1;
            }
            self.inner.append(bytes)
        }
        fn read_all(&self) -> std::io::Result<Vec<u8>> {
            self.inner.read_all()
        }
        fn rewrite(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            if std::mem::take(&mut self.plan().fail_rewrite) {
                return Err(injected());
            }
            self.inner.rewrite(bytes)
        }
        fn len(&self) -> usize {
            LogBackend::len(&self.inner)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            if std::mem::take(&mut self.plan().fail_sync) {
                return Err(injected());
            }
            Ok(())
        }
    }

    /// The storage sweep's fixed solo run: ten transactions, then 150
    /// rounds of 1 ms.
    fn fixed_run(backend: &FailingBackend) -> Solo<FailingBackend> {
        let mut solo = Solo::new(fast_config(), Some(backend.clone()), SafetyChecker::new());
        solo.step(Event::Boot);
        for i in 0..10 {
            solo.submit(Transaction::new(0, i, 0));
        }
        solo.run_until(150_000);
        solo
    }

    /// `solo` fail-stopped on exactly one typed fault, in `context`, and
    /// ignores input; restarted on the repaired store, it recovers a
    /// prefix of the fault-free run's `chain`.
    fn fails_once_then_recovers_a_prefix(
        mut solo: Solo<FailingBackend>,
        backend: &FailingBackend,
        context: &str,
        chain: &[VertexRef],
    ) {
        assert_eq!(solo.faults.len(), 1, "one typed error, then silence: {:?}", solo.faults);
        assert_eq!(solo.faults[0].context, context);
        assert!(solo.faults[0].detail.contains("injected fault"), "{}", solo.faults[0]);
        assert!(solo.v().is_halted(), "the node fail-stops");
        assert_eq!(solo.v().metrics().storage_errors, 1);
        let submit = ValidatorMessage::Submit(Transaction::new(0, 99, solo.now));
        let out = solo.driver.step(Event::Message(ValidatorId(0), &submit), solo.now);
        assert!(out.is_empty(), "a halted node emits nothing");

        *backend.plan() = Plan::default();
        solo.step(Event::Restart);
        assert_eq!(solo.faults.len(), 1, "{context}: the repaired store takes every write");
        assert!(!solo.v().is_halted());
        assert!(!solo.v().metrics().recovery_divergence);
        let recovered = solo.checker.anchor_prefix(solo.v().commit_count());
        assert_eq!(recovered, chain[..recovered.len()], "{context}: not a prefix");
        solo.checker.assert_clean();
    }

    #[test]
    fn storage_failure_fail_stops_instead_of_panicking() {
        let clean = FailingBackend::default();
        let solo = fixed_run(&clean);
        assert!(solo.faults.is_empty());
        let chain = solo.checker.anchor_prefix(solo.v().commit_count());
        assert_eq!(chain.len() as u64, solo.v().commit_count(), "the chain is whole");
        let appends = clean.plan().appends;
        assert!(appends > 100, "{appends} appends");

        let mut contexts = std::collections::BTreeSet::new();
        for k in 0..appends {
            let backend = FailingBackend::default();
            backend.plan().fail_from = Some(k);
            let solo = fixed_run(&backend);
            let context = solo.faults.first().map_or("none", |f| f.context);
            contexts.insert(context);
            fails_once_then_recovers_a_prefix(solo, &backend, context, &chain);
        }
        assert_eq!(Vec::from_iter(contexts), ["persist checkpoint", "persist vertex"]);

        // A rewrite: the restart after a torn write cuts the tear off,
        // through `rewrite`, before its next append.
        let backend = FailingBackend::default();
        let mut solo = fixed_run(&backend);
        backend.inner.truncate(LogBackend::len(&backend.inner) - 3);
        backend.plan().fail_rewrite = true;
        solo.step(Event::Restart);
        solo.run_until(300_000);
        fails_once_then_recovers_a_prefix(solo, &backend, "persist vertex", &chain);

        // A sync: the graceful-shutdown flush.
        let backend = FailingBackend::default();
        let mut solo = fixed_run(&backend);
        backend.plan().fail_sync = true;
        solo.step(Event::Shutdown);
        fails_once_then_recovers_a_prefix(solo, &backend, "shutdown flush", &chain);
    }

    #[test]
    fn block_bytes_cap_bounds_batches_by_payload() {
        // 1000-byte payloads (1020 wire bytes each) under a 4 KiB block
        // cap: at most 4 transactions fit a block, although
        // MAX_BLOCK_TXS would allow all 10 at once.
        let config = ValidatorConfig {
            max_block_bytes: 4_096,
            min_round_delay_us: 100_000,
            ..fast_config()
        };
        let mut solo = Solo::volatile(config);
        solo.step(Event::Boot);
        for i in 0..10 {
            solo.submit(Transaction::with_payload(0, i, 0, 1_000));
        }
        solo.run_until(2_000_000);
        let m = solo.v().metrics();
        assert_eq!(m.own_txs_committed, 10, "everything commits across several blocks");
        assert_eq!(m.bytes_proposed, 10 * 1_020, "all batched bytes are accounted");
        assert_eq!(m.bytes_committed, 10 * 1_020);
        for rec in &m.exec_records {
            assert_eq!(rec.bytes, 1_020);
        }
        // With 100 ms pacing and all 10 txs pooled up front, an
        // unbounded proposer drains the pool into one block (one commit
        // instant); the byte cap forces several blocks across rounds.
        let commit_instants = m
            .exec_records
            .iter()
            .map(|r| r.committed_at)
            .collect::<std::collections::BTreeSet<_>>();
        assert!(
            commit_instants.len() >= 2,
            "payloads must spread across blocks, got commit instants {commit_instants:?}"
        );
    }

    #[test]
    fn oversized_transaction_still_ships_alone() {
        // One transaction bigger than the whole block cap must still be
        // proposed (alone) instead of wedging the pool forever.
        let config = ValidatorConfig { max_block_bytes: 64, ..fast_config() };
        let mut solo = Solo::volatile(config);
        solo.step(Event::Boot);
        solo.submit(Transaction::with_payload(0, 0, 0, 10_000));
        solo.submit(Transaction::with_payload(0, 1, 0, 10_000));
        solo.run_until(1_000_000);
        assert_eq!(solo.v().metrics().own_txs_committed, 2);
    }

    #[test]
    fn backpressure_limits_uncommitted() {
        // Three short of the budget: only 3 more txs may be in flight.
        let mut solo = Solo::volatile(fast_config());
        solo.driver.validator_mut().uncommitted_txs = MAX_UNCOMMITTED_TXS as u64 - 3;
        solo.step(Event::Boot);
        for i in 0..9 {
            solo.submit(Transaction::new(0, i, 0));
        }
        solo.run_until(2_000_000);
        // All eventually commit (budget releases on commit), but never more
        // than 3 in one block.
        let m = solo.v().metrics();
        assert_eq!(m.own_txs_committed, 9);
        let commits: std::collections::BTreeSet<u64> =
            m.exec_records.iter().map(|r| r.committed_at).collect();
        assert_eq!(commits.len(), 3, "three blocks of three");
    }

    /// This validator's own vertices among the broadcasts in `out`, as
    /// delivered vertices (best-effort) or proposals (certified).
    fn own_broadcasts(out: &[Output], me: ValidatorId) -> Vec<Arc<Vertex>> {
        out.iter()
            .filter_map(|o| match o {
                Output::Broadcast(ValidatorMessage::Rbc(
                    RbcMessage::Vertex(vertex) | RbcMessage::Propose(vertex),
                )) if vertex.author() == me => Some(vertex.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_restart_proposes_the_vertex_it_had_proposed_for_the_round() {
        for broadcast_mode in [BroadcastMode::BestEffort, BroadcastMode::Certified] {
            let config = ValidatorConfig { broadcast_mode, ..fast_config() };
            let committee = Committee::new_equal_stake(4);
            let me = ValidatorId(0);
            let mut v = Validator::new(committee, me, config, Some(MemBackend::new()));
            let mut out = v.on_message(me, &ValidatorMessage::Submit(Transaction::new(0, 0, 0)), 0);
            out.extend(v.on_start(0));
            let before = own_broadcasts(&out, me);
            let after = own_broadcasts(&v.on_restart(1_000), me);
            assert_eq!((before.len(), before[0].round()), (1, Round(0)), "{broadcast_mode:?}");
            assert_eq!(before, after, "{broadcast_mode:?}: a second vertex for round 0");
        }
    }

    #[test]
    fn a_restart_re_announces_its_latest_vertex_only_in_best_effort_mode() {
        let committee = Committee::new_equal_stake(4);
        let me = ValidatorId(0);
        let own =
            Vertex::new(Round(0), me, Block::new(Vec::new()), Vec::new(), &committee.keypair(me));
        for broadcast_mode in [BroadcastMode::BestEffort, BroadcastMode::Certified] {
            let backend = MemBackend::new();
            ValidatorStore::new(backend.clone()).persist_vertex(&own).unwrap();
            let config = ValidatorConfig { broadcast_mode, ..fast_config() };
            let mut v = Validator::new(committee.clone(), me, config, Some(backend));
            // A certified peer accepts a vertex only with its certificate.
            let expected = match broadcast_mode {
                BroadcastMode::BestEffort => vec![Arc::new(own.clone())],
                BroadcastMode::Certified => vec![],
            };
            assert_eq!(own_broadcasts(&v.on_restart(0), me), expected, "{broadcast_mode:?}");
        }
    }

    /// Hands `v` a round-`round` vertex of every one of `peers`, each linking
    /// to `parents`, the way the network would at `now`. Returns the
    /// vertices' digests and what `v` proposed in response.
    fn deliver_from(
        v: &mut Validator<MemBackend>,
        peers: &[ValidatorId],
        round: u64,
        parents: &[Digest],
        now: u64,
    ) -> (Vec<Digest>, Vec<Arc<Vertex>>) {
        let mut made = Vec::new();
        let mut proposed = Vec::new();
        for &peer in peers {
            let vertex = Arc::new(Vertex::new(
                Round(round),
                peer,
                Block::new(Vec::new()),
                parents.to_vec(),
                &v.committee.keypair(peer),
            ));
            made.push(vertex.digest());
            let out = v.on_message(peer, &ValidatorMessage::Rbc(RbcMessage::Vertex(vertex)), now);
            proposed.extend(own_broadcasts(&out, v.id));
        }
        (made, proposed)
    }

    /// One validator of a committee of four, two rounds into a run in step
    /// with its three peers — which are the test: it signs their vertices
    /// and hands them over. Returns the validator, the peers and the
    /// round-1 digests; the next pacing deadline is t = 2 000. Under
    /// round-robin v1 leads rounds 2 and 3 and v2 round 4; the anchors of
    /// rounds 0 and 1 are ordered once round 2 forms, so round 2 holds the
    /// next candidate.
    fn one_of_four(me: ValidatorId) -> (Validator<MemBackend>, Vec<ValidatorId>, Vec<Digest>) {
        let committee = Committee::new_equal_stake(4);
        let peers: Vec<ValidatorId> = committee.ids().filter(|id| *id != me).collect();
        let mut v = Validator::new(committee, me, fast_config(), None);
        let mut r0 = vec![own_broadcasts(&v.on_start(0), me)[0].digest()];
        r0.extend(deliver_from(&mut v, &peers, 0, &[], 100).0);
        let mut r1 = vec![own_broadcasts(&v.on_timer(TOKEN_WAKE, 1_000), me)[0].digest()];
        r1.extend(deliver_from(&mut v, &peers, 1, &r0, 1_100).0);
        assert_eq!(v.current_round(), Round(2));
        (v, peers, r1)
    }

    #[test]
    fn late_leader_still_proposes_its_anchor() {
        let me = ValidatorId(1);
        let (mut v, peers, r1) = one_of_four(me);
        assert_eq!(v.leader_at(Round(2)), me);
        assert_ne!(v.leader_at(Round(4)), me);

        // The peers reach round 2 — which this validator leads — before its
        // pacing timer fires: round 2 holds quorum without its anchor.
        let (mut r2, early) = deliver_from(&mut v, &peers, 2, &r1, 1_500);
        assert!(early.is_empty(), "pacing holds the proposer back");
        assert!(v.dag().is_quorum_at(Round(2)));
        let proposed = own_broadcasts(&v.on_timer(TOKEN_WAKE, 2_000), me);
        assert_eq!(proposed.len(), 1);
        assert_eq!(proposed[0].round(), Round(2), "the leader proposes its anchor, late or not");
        assert!(v.dag().vertex_by_author(Round(2), me).is_some());
        assert_eq!(v.metrics().rounds_skipped, 0);
        r2.push(proposed[0].digest());

        // Rounds 3 and 4 form without it too. Round 3 is its slot as well,
        // but an anchor there could gather no votes any more — round 4 is
        // already up — and round 4 it does not lead: it gives both up and
        // resumes at round 5.
        let (r3, _) = deliver_from(&mut v, &peers, 3, &r2, 2_400);
        deliver_from(&mut v, &peers, 4, &r3, 2_500);
        let proposed = own_broadcasts(&v.on_timer(TOKEN_WAKE, 3_000), me);
        assert_eq!(proposed.len(), 1);
        assert_eq!(proposed[0].round(), Round(5));
        assert!(v.dag().vertex_by_author(Round(3), me).is_none());
        assert!(v.dag().vertex_by_author(Round(4), me).is_none());
        assert_eq!(v.metrics().rounds_skipped, 2);
    }

    #[test]
    fn a_proposal_shares_an_equal_parent_list_it_holds() {
        let me = ValidatorId(0);
        let (mut v, peers, r1) = one_of_four(me);
        let held = |v: &Validator<MemBackend>, round: u64, author| {
            v.dag().vertex_by_author(Round(round), author).expect("held").clone()
        };
        // Round 2: one peer links all of round 1, as this validator will;
        // one links three of it. The proposal shares the first one's list.
        deliver_from(&mut v, &peers[..1], 2, &r1, 1_500);
        deliver_from(&mut v, &peers[1..2], 2, &r1[..3], 1_500);
        let mine = own_broadcasts(&v.on_timer(TOKEN_WAKE, 2_000), me).remove(0);
        assert_eq!(mine.parents(), r1);
        assert!(Arc::ptr_eq(mine.shared_parents(), held(&v, 2, peers[0]).shared_parents()));
        assert!(!Arc::ptr_eq(mine.shared_parents(), held(&v, 2, peers[1]).shared_parents()));
        // The same vertex, digest and bytes as from a list of its own.
        let fresh = Vertex::new(Round(2), me, mine.block().clone(), r1.clone(), &v.keypair);
        assert_eq!(fresh.digest(), mine.digest());
        assert_eq!(hh_types::codec::encode_to_vec(&fresh), hh_types::codec::encode_to_vec(&*mine));

        // Round 3: the one peer vertex held links only three of round 2,
        // so the proposal, linking all four, gets its own allocation.
        deliver_from(&mut v, &peers[2..], 2, &r1, 2_100);
        let r2: Vec<Digest> = v.dag().round_vertices(Round(2)).map(|w| w.digest()).collect();
        assert_eq!(r2.len(), 4);
        deliver_from(&mut v, &peers[..1], 3, &r2[..3], 2_500);
        let mine = own_broadcasts(&v.on_timer(TOKEN_WAKE, 3_000), me).remove(0);
        assert_eq!(mine.parents(), r2);
        assert!(!Arc::ptr_eq(mine.shared_parents(), held(&v, 3, peers[0]).shared_parents()));
    }

    #[test]
    fn nobody_waits_for_a_leader_that_moved_on() {
        let me = ValidatorId(0);
        let (mut v, peers, r1) = one_of_four(me);
        let leader = v.leader_at(Round(2));
        assert_ne!(leader, me);
        let others: Vec<ValidatorId> = peers.into_iter().filter(|p| *p != leader).collect();

        // Round 2 forms without its leader's anchor: the await begins.
        let mut r2 = vec![own_broadcasts(&v.on_timer(TOKEN_WAKE, 2_000), me)[0].digest()];
        r2.extend(deliver_from(&mut v, &others, 2, &r1, 2_100).0);
        assert!(own_broadcasts(&v.on_timer(TOKEN_WAKE, 3_000), me).is_empty());
        assert_eq!(v.current_round(), Round(3));

        // The leader's round-3 vertex shows it skipped round 2; waiting out
        // the timeout would be waiting for nothing.
        let (_, proposed) = deliver_from(&mut v, &[leader], 3, &r2, 3_100);
        assert_eq!(proposed.len(), 1);
        assert_eq!(proposed[0].round(), Round(3));
        assert_eq!(v.metrics().leader_timeouts, 0);
    }

    /// One HammerHead validator of four in step with two peers through
    /// rounds 0..=4, a round a millisecond. The fourth, `slow`, leads round
    /// 4 and nobody links to its vertices. If `slow_sends`, each of them
    /// reaches the validator just after the validator proposed one round
    /// up: delivered, never ordered. Otherwise `slow` is silent. Returns
    /// the validator before its t = 5 000 pacing timer, and `slow`.
    fn facing_an_unordered_round_4_leader(
        slow_sends: bool,
    ) -> (Validator<MemBackend>, ValidatorId) {
        let committee = Committee::new_equal_stake(4);
        let config = ValidatorConfig {
            schedule: ScheduleConfig::Hammerhead(crate::HammerheadConfig::default()),
            ..fast_config()
        };
        let probe: Validator<MemBackend> =
            Validator::new(committee.clone(), ValidatorId(0), config.clone(), None);
        let slow = probe.leader_at(Round(4));
        let me = committee.ids().find(|id| *id != slow).expect("n > 1");
        let peers: Vec<ValidatorId> =
            committee.ids().filter(|id| *id != me && *id != slow).collect();
        let mut v = Validator::new(committee, me, config, None);
        // The digests of round `round − 1` but `slow`'s.
        let linked = |v: &Validator<MemBackend>, round: u64| -> Vec<Digest> {
            round.checked_sub(1).map_or(Vec::new(), |prev| {
                let held = v.dag().round_vertices(Round(prev));
                held.filter(|w| w.author() != slow).map(|w| w.digest()).collect()
            })
        };
        for round in 0..=4u64 {
            let now = round * 1_000;
            let out = if round == 0 { v.on_start(now) } else { v.on_timer(TOKEN_WAKE, now) };
            assert_eq!(own_broadcasts(&out, me).len(), 1, "round {round} proposed on pacing");
            let parents = linked(&v, round);
            deliver_from(&mut v, &peers, round, &parents, now + 100);
            if slow_sends && round > 0 {
                let parents = linked(&v, round - 1);
                deliver_from(&mut v, &[slow], round - 1, &parents, now + 200);
            }
        }
        (v, slow)
    }

    #[test]
    fn a_leader_never_heard_from_is_passed_but_one_delivered_unordered_is_awaited() {
        for slow_sends in [false, true] {
            let (mut v, slow) = facing_an_unordered_round_4_leader(slow_sends);
            // Round 0 has closed, `slow` has never been ordered, and round
            // 4 holds quorum without its anchor.
            assert!(v.engine.is_candidate_round(Round(4)));
            assert!(!v.engine.policy().heard_from(slow));
            assert_eq!(v.dag().holds_author(slow), slow_sends);
            assert!(v.dag().vertex_by_author(Round(4), slow).is_none());
            let proposed = own_broadcasts(&v.on_timer(TOKEN_WAKE, 5_000), v.id);
            if slow_sends {
                // Sending, so awaited in full: its vertices are here.
                assert!(proposed.is_empty(), "a leader whose vertices arrive is awaited");
                let proposed = own_broadcasts(&v.on_timer(TOKEN_WAKE, 14_000), v.id);
                assert_eq!(proposed.len(), 1);
                assert_eq!(v.metrics().leader_timeouts, 1);
            } else {
                assert_eq!(proposed.len(), 1, "nobody waits for a leader never heard from");
                assert_eq!(v.metrics().leader_timeouts, 0);
            }
            assert_eq!(v.current_round(), Round(6));
        }
    }

    #[test]
    fn hammerhead_config_builds_and_runs_solo() {
        let config = ValidatorConfig {
            schedule: ScheduleConfig::Hammerhead(crate::HammerheadConfig {
                period_rounds: 4,
                ..Default::default()
            }),
            ..fast_config()
        };
        let mut solo = Solo::volatile(config);
        solo.step(Event::Boot);
        solo.run_until(1_000_000);
        assert!(solo.v().commit_count() > 4);
        let policy = solo.v().hammerhead_policy().expect("hammerhead policy");
        assert!(policy.epoch() >= 1, "schedule rotated for solo committee");
    }
}
