//! The validator node: proposer, broadcast, consensus, transaction pool,
//! execution model, persistence and crash-recovery.
//!
//! [`Validator`] is a runtime-agnostic state machine: handlers take the
//! current time in microseconds and return [`Output`]s (messages to send,
//! timers to arm). The simulation harness (`hh-sim`) adapts it to the
//! discrete-event network; `hh-node` drives the same type over TCP on
//! the wall clock. The Bullshark baseline and HammerHead are the *same*
//! node, differing only in [`ScheduleConfig`].
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
use crate::policy::HammerheadPolicy;
use hh_consensus::{
    Bullshark, CommittedSubDag, RoundRobinPolicy, ScheduleDecision, SchedulePolicy, SlotSchedule,
};
use hh_crypto::{Digest, Keypair};
use hh_dag::{Dag, EvidenceLedger};
use hh_rbc::{Rbc, RbcMessage};
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
    /// Whether this record was produced by crash-recovery replay rather
    /// than live consensus.
    pub replayed: bool,
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
    /// never a reason to panic the whole process.
    StorageError {
        /// What the node was persisting ("persist vertex", "persist
        /// checkpoint", "recover").
        context: &'static str,
        /// The underlying I/O error.
        detail: String,
    },
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
/// records of one commit. A regular record is one LEB128 varint: its
/// `submitted_at` less the previous record's, zigzag-coded, over a 0
/// flag bit — two bytes at the protocol's arrival rates (97.7 % of the
/// records of a 600-second n = 10 run). Every other record, and a regular
/// one whose zigzag difference reaches 2⁶³ (the flag bit would cut it
/// short), is `bytes` over a 1 flag bit, then three zigzag-coded
/// differences: `submitted_at` and `executed_at` less the previous
/// record's, and `executed_at − committed_at` (the execution backlog);
/// inside one commit it resets the stride. The differences wrap, so any
/// field values round-trip — out-of-order times cost bytes, never
/// correctness. The prediction starts from an all-zero record and a zero
/// stride and travels with the log, so a log taken off a validator
/// decodes on its own.
///
/// The bytes live in 64 KiB chunks that are allocated full-size, filled
/// front to back and never grown or copied; a record never straddles
/// two. A log leaves at most one chunk unused (and under 35 B, the
/// longest record, at the end of each full chunk), and an empty log
/// allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ExecLog {
    chunks: Vec<Vec<u8>>,
    len: usize,
    /// What the next record is predicted from.
    prediction: Prediction,
}

/// Capacity of one [`ExecLog`] chunk.
const EXEC_LOG_CHUNK: usize = 64 * 1024;

/// Most bytes one record encodes to: a five-byte head and three ten-byte
/// varints. A chunk with less room left is full.
const EXEC_RECORD_MAX: usize = 5 + 3 * 10;

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
    /// The regular record submitted `submitted_delta` µs (wrapping) after
    /// the last one.
    fn predict(&self, submitted_delta: u64) -> ExecRecord {
        ExecRecord {
            submitted_at: self.last.submitted_at.wrapping_add(submitted_delta),
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

impl ExecLog {
    /// Appends one record.
    pub fn push(&mut self, rec: ExecRecord) {
        if self.chunks.last().is_none_or(|c| c.capacity() - c.len() < EXEC_RECORD_MAX) {
            self.chunks.push(Vec::with_capacity(EXEC_LOG_CHUNK));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room for the record");
        let p = self.prediction;
        let submitted_delta = rec.submitted_at.wrapping_sub(p.last.submitted_at);
        let submitted = zigzag(submitted_delta);
        if p.predict(submitted_delta) == rec && submitted >> 63 == 0 {
            put_varint(chunk, submitted << 1);
        } else {
            put_varint(chunk, (rec.bytes as u64) << 1 | 1);
            put_varint(chunk, submitted);
            put_varint(chunk, zigzag(rec.executed_at.wrapping_sub(p.last.executed_at)));
            put_varint(chunk, zigzag(rec.executed_at.wrapping_sub(rec.committed_at)));
        }
        self.prediction.advance(rec);
        self.len += 1;
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the log holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the records are encoded in (the chunks' unused capacity
    /// not counted).
    pub fn encoded_bytes(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// The records in push order, decoded as they are yielded.
    pub fn iter(&self) -> ExecLogIter<'_> {
        ExecLogIter { chunks: self.chunks.iter(), rest: &[], prediction: Prediction::default() }
    }
}

/// `d` read as signed and zigzag-coded, so a small negative stays small.
fn zigzag(d: u64) -> u64 {
    let d = d as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn put_varint(chunk: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        chunk.push(v as u8 | 0x80);
        v >>= 7;
    }
    chunk.push(v as u8);
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
    chunks: std::slice::Iter<'a, Vec<u8>>,
    /// What is left of the chunk being decoded.
    rest: &'a [u8],
    prediction: Prediction,
}

impl ExecLogIter<'_> {
    /// The next varint. The bytes are [`ExecLog::push`]'s own, and a
    /// record never straddles two chunks, so a record that has begun is
    /// wholly present.
    fn take_varint(&mut self) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let (&byte, rest) = self.rest.split_first().expect("a log ends on a whole record");
            self.rest = rest;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// The next zigzag-coded difference, as the wrapped `u64` it was.
    fn take_delta(&mut self) -> u64 {
        unzigzag(self.take_varint())
    }
}

/// The inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

impl Iterator for ExecLogIter<'_> {
    type Item = ExecRecord;

    fn next(&mut self) -> Option<ExecRecord> {
        if self.rest.is_empty() {
            // A chunk holds at least the record that opened it.
            self.rest = self.chunks.next()?;
        }
        let head = self.take_varint();
        let p = self.prediction;
        let rec = if head & 1 == 0 {
            p.predict(unzigzag(head >> 1))
        } else {
            let submitted_at = p.last.submitted_at.wrapping_add(self.take_delta());
            let executed_at = p.last.executed_at.wrapping_add(self.take_delta());
            let committed_at = executed_at.wrapping_sub(self.take_delta());
            ExecRecord { submitted_at, committed_at, executed_at, bytes: (head >> 1) as u32 }
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
    fn awaits_leader(&self, leader: ValidatorId) -> bool {
        match self {
            PolicyKind::RoundRobin(p) => p.awaits_leader(leader),
            PolicyKind::Hammerhead(p) => p.awaits_leader(leader),
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
    /// commit order, leaving the buffer empty. The simulator's validator
    /// actor (`hh-sim`) calls this after every handler call and feeds the
    /// safety invariant checker; the WAL audits call it after a replay.
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

    /// The first anchor of every commit, in order.
    pub fn committed_anchors(&self) -> &[hh_types::VertexRef] {
        self.engine.committed_anchors()
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

    /// The leader this validator's schedule assigns to `round` (past
    /// rounds resolve through the schedule history) — the probe the
    /// re-inclusion analysis uses to find a validator's first
    /// post-recovery leader slot.
    pub fn leader_at(&self, round: Round) -> ValidatorId {
        self.engine.current_leader(round)
    }

    /// Whether the node has fail-stopped after a storage error (see
    /// [`Output::StorageError`]).
    pub fn is_halted(&self) -> bool {
        self.halted
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
                self.client_addr.insert(tx.id.client, from);
                if self.tx_pool.len() < self.config.pool_capacity {
                    self.tx_pool.push_back(*tx);
                    self.metrics.txs_accepted += 1;
                } else {
                    self.metrics.txs_shed += 1;
                    // Failure confirmation so the client's in-flight window
                    // does not leak.
                    out.push(Output::Send(
                        from,
                        ValidatorMessage::Confirm { id: tx.id, executed_at: u64::MAX },
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

        if let Some(store) = &self.store {
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
                let digest = vertex.digest();
                if self.dag.try_insert(vertex).is_ok() {
                    let vertex = self.dag.get(&digest).expect("just inserted").clone();
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
        }

        self.last_proposal_at = now;
        let mut out = Vec::new();
        out.push(Output::SetTimer { delay_us: self.config.sync_tick_us, token: TOKEN_TICK });
        // Re-announce our latest vertex so peers learn we are back and can
        // serve us anything we missed (their responses resync us forward).
        if self.next_round.0 > 0 {
            if let Some(v) = self.dag.vertex_by_author(self.next_round.prev(), self.id) {
                out.push(Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Vertex(v.clone()))));
            }
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
    /// failure). The real-node runtime (`hh-node`) calls this when its
    /// control stdin closes, before exiting; the simulator never needs it
    /// because `MemBackend` has nothing to flush.
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

    /// Fail-stop on a storage fault: record it, surface a typed
    /// [`Output::StorageError`], and ignore further input until restart.
    fn halt_on_storage_error(
        &mut self,
        context: &'static str,
        error: &dyn std::fmt::Display,
        out: &mut Vec<Output>,
    ) {
        self.metrics.storage_errors += 1;
        self.halted = true;
        out.push(Output::StorageError { context, detail: error.to_string() });
    }

    fn note_quorum(&mut self, round: Round) {
        if self.best_quorum_round.is_none_or(|b| round > b) && self.dag.is_quorum_at(round) {
            self.best_quorum_round = Some(round);
        }
    }

    fn on_commit(&mut self, sd: CommittedSubDag, now: u64, out: &mut Vec<Output>) {
        self.metrics.commits += 1;
        self.commit_log.push(CommitRecord {
            index: sd.commit_index,
            anchor: sd.anchor,
            vertices: sd.vertices.iter().map(|v| v.reference()).collect(),
            replayed: self.replaying,
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
                    if let Some(addr) = self.client_addr.get(&tx.id.client) {
                        out.push(Output::Send(
                            *addr,
                            ValidatorMessage::Confirm { id: tx.id, executed_at: finish },
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
        let anchor_round = sd.anchor.round;
        if anchor_round.0 > self.config.gc_depth {
            self.dag.gc(Round(anchor_round.0 - self.config.gc_depth));
        }
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
    /// policy reports never ordered ([`SchedulePolicy::awaits_leader`]) is
    /// passed by at once unless this validator's DAG holds one of its
    /// vertices in a retained round.
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
                    && (self.engine.policy().awaits_leader(leader)
                        || self.dag.holds_author(leader));
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
        // `round_vertices` iterates the round's author-indexed slot
        // table, so parents come out in ascending author order —
        // identical DAG state yields identical vertex digests. Sized up
        // front: the iterator cannot say how many it yields.
        let mut parents: Vec<Digest> = Vec::new();
        if round.0 > 0 {
            parents.reserve_exact(self.dag.round_len(round.prev()));
            parents.extend(self.dag.round_vertices(round.prev()).map(|v| v.digest()));
        }
        // Where the committee is in step every proposer links the same
        // parents: a round-`round` vertex already held with an equal list
        // lends its allocation, so the round stores the list once. The
        // digest, the signature and the wire bytes are the same either way.
        let parents: Arc<[Digest]> =
            match self.dag.round_vertices(round).find(|v| v.parents() == parents.as_slice()) {
                Some(v) => v.shared_parents().clone(),
                None => parents.into(),
            };
        // Backpressure: stop pulling from the pool once too many of our
        // transactions sit uncommitted.
        let budget = (self.config.max_uncommitted_txs as u64).saturating_sub(self.uncommitted_txs);
        let max_take = self.tx_pool.len().min(self.config.max_block_txs).min(budget as usize);
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
        let fx = self.rbc.broadcast_own(vertex, &mut self.dag);
        self.absorb_rbc(fx, now, out);
        self.next_round = round.next();
        self.last_proposal_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_storage::MemBackend;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Drives a single validator through its timers: a committee of one has
    /// quorum 1, so the node self-paces rounds and commits alone —
    /// exercising the full propose → deliver → commit → execute pipeline
    /// without a network.
    struct SoloPump {
        v: Validator<MemBackend>,
        now: u64,
        timers: BinaryHeap<Reverse<(u64, u64)>>,
    }

    impl SoloPump {
        fn new(config: ValidatorConfig, backend: Option<MemBackend>) -> Self {
            let committee = Committee::new_equal_stake(1);
            let v = Validator::new(committee, ValidatorId(0), config, backend);
            SoloPump { v, now: 0, timers: BinaryHeap::new() }
        }

        fn start(&mut self) {
            let out = self.v.on_start(self.now);
            self.absorb(out);
        }

        fn absorb(&mut self, out: Vec<Output>) {
            for o in out {
                match o {
                    Output::SetTimer { delay_us, token } => {
                        self.timers.push(Reverse((self.now + delay_us, token)));
                    }
                    // Committee of one: no peers to send to.
                    Output::Send(_, _) | Output::Broadcast(_) => {}
                    Output::StorageError { context, detail } => {
                        panic!("unexpected storage error ({context}): {detail}")
                    }
                }
            }
        }

        fn run_until(&mut self, deadline: u64) {
            while let Some(Reverse((at, token))) = self.timers.peek().copied() {
                if at > deadline {
                    break;
                }
                self.timers.pop();
                self.now = at;
                let out = self.v.on_timer(token, self.now);
                self.absorb(out);
            }
            self.now = deadline;
        }

        fn submit(&mut self, tx: Transaction) {
            let out = self.v.on_message(ValidatorId(0), &ValidatorMessage::Submit(tx), self.now);
            self.absorb(out);
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
        let mut pump = SoloPump::new(fast_config(), None);
        pump.start();
        for i in 0..10 {
            pump.submit(Transaction::new(0, i, 0));
        }
        pump.run_until(1_000_000);
        assert!(pump.v.commit_count() > 10, "commits: {}", pump.v.commit_count());
        assert_eq!(pump.v.metrics().txs_accepted, 10);
        assert_eq!(pump.v.metrics().own_txs_committed, 10);
        assert_eq!(pump.v.metrics().exec_records.len(), 10);
        for rec in &pump.v.metrics().exec_records {
            assert!(rec.committed_at >= rec.submitted_at);
            assert!(rec.executed_at > rec.committed_at);
        }
        // No leader timeouts: the solo node is always its own leader.
        assert_eq!(pump.v.metrics().leader_timeouts, 0);
    }

    #[test]
    fn pool_capacity_sheds_excess() {
        let config = ValidatorConfig { pool_capacity: 5, ..fast_config() };
        let mut pump = SoloPump::new(config, None);
        pump.start();
        // Submit while the proposer is paced out, so the pool fills up.
        for i in 0..10 {
            pump.submit(Transaction::new(0, i, 0));
        }
        let m = pump.v.metrics();
        assert_eq!(m.txs_accepted + m.txs_shed, 10);
        assert!(m.txs_shed > 0, "pool should shed beyond capacity");
    }

    #[test]
    fn rounds_are_paced() {
        let config = ValidatorConfig { min_round_delay_us: 100_000, ..fast_config() };
        let mut pump = SoloPump::new(config, None);
        pump.start();
        pump.run_until(1_000_000);
        // ~1s / 100ms pacing → about 10 proposals (plus genesis).
        let proposals = pump.v.metrics().proposals;
        assert!((8..=13).contains(&proposals), "proposals: {proposals}");
    }

    #[test]
    fn crash_recovery_restores_commits_from_storage() {
        let backend = MemBackend::new();
        let mut pump = SoloPump::new(fast_config(), Some(backend.clone()));
        pump.start();
        for i in 0..5 {
            pump.submit(Transaction::new(0, i, 0));
        }
        pump.run_until(500_000);
        let commits_before = pump.v.commit_count();
        let log_before = pump.v.take_commit_records();
        assert!(commits_before > 0);
        assert_eq!(log_before.len() as u64, commits_before);

        // Crash: rebuild the validator object from the same backend.
        let committee = Committee::new_equal_stake(1);
        let mut revived: Validator<MemBackend> =
            Validator::new(committee, ValidatorId(0), fast_config(), Some(backend));
        let out = revived.on_restart(600_000);
        assert!(!out.is_empty());
        assert!(revived.commit_count() >= commits_before.saturating_sub(1));
        assert!(!revived.metrics().recovery_divergence, "checkpoint must match");
        // The replay recomputes every pre-crash commit: the same index,
        // anchor and sub-DAG, commit by commit.
        let replayed = revived.take_commit_records();
        assert!(replayed.iter().all(|r| r.replayed));
        let without_origin = |r: &CommitRecord| (r.index, r.anchor, r.vertices.clone());
        assert!(replayed.len() >= log_before.len());
        assert_eq!(
            replayed[..log_before.len()].iter().map(without_origin).collect::<Vec<_>>(),
            log_before.iter().map(without_origin).collect::<Vec<_>>()
        );
        // Replay must not duplicate execution records.
        assert!(revived.metrics().exec_records.is_empty());
        // And the node keeps committing after recovery.
        let mut pump2 = SoloPump { v: revived, now: 600_000, timers: BinaryHeap::new() };
        pump2.absorb(out);
        pump2.run_until(1_200_000);
        assert!(pump2.v.commit_count() > commits_before);
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
        let config = ValidatorConfig { max_block_txs: 100, ..fast_config() };
        let backend = MemBackend::new();
        let mut pump = SoloPump::new(config.clone(), Some(backend.clone()));
        pump.start();
        for i in 0..1_200 {
            pump.submit(Transaction::new(0, i, 0));
        }
        pump.run_until(1_000_000);
        assert_eq!(pump.v.metrics().own_txs_committed, 1_200);

        let committee = Committee::new_equal_stake(1);
        let mut revived: Validator<MemBackend> =
            Validator::new(committee, ValidatorId(0), config.clone(), Some(backend));
        let out = revived.on_restart(1_000_000);
        let mut pump = SoloPump { v: revived, now: 1_000_000, timers: BinaryHeap::new() };
        pump.absorb(out);
        pump.submit(Transaction::new(0, 1_200, pump.now));
        pump.run_until(1_500_000);

        let recs: Vec<_> = pump.v.metrics().exec_records.iter().collect();
        assert_eq!(recs.len(), 1, "only the transaction submitted after the restart");
        let block_us = config.max_block_txs as u64 * (1_000_000 / config.exec_rate_tps);
        let waited = recs[0].executed_at - recs[0].committed_at;
        assert!(waited <= block_us, "commit → execute {waited} µs, one block is {block_us} µs");
    }

    #[test]
    fn exec_log_costs_at_most_three_bytes_a_record_on_the_protocols_stream() {
        // The default pacing and execution rate under a steady 1,000 tx/s:
        // all but the first record or two of a commit are regular, one
        // two-byte submission difference each — 2.07 B a record here
        // against 8.8 B while every record stored four varints, and 32 B
        // for the struct. A prediction that stops holding must not go
        // unnoticed.
        let mut pump = SoloPump::new(ValidatorConfig::default(), None);
        pump.start();
        for i in 0..5_000 {
            pump.run_until(i * 1_000);
            pump.submit(Transaction::new(0, i, pump.now));
        }
        pump.run_until(6_000_000);
        let log = &pump.v.metrics().exec_records;
        assert_eq!(log.len(), 5_000);
        assert!(
            log.encoded_bytes() <= 3 * log.len(),
            "{} B for {} records",
            log.encoded_bytes(),
            log.len()
        );
    }

    #[test]
    fn exec_log_allocates_at_most_one_chunk_beyond_its_encoding() {
        let capacity = |log: &ExecLog| log.chunks.iter().map(Vec::capacity).sum::<usize>();
        let mut log = ExecLog::default();
        assert_eq!((log.chunks.capacity(), capacity(&log)), (0, 0), "an empty log allocates");
        // Commits of 40 records and a size change every 13: regular and
        // irregular records of several lengths, so chunks end on ragged
        // tails.
        let rec = |i: u64| ExecRecord {
            submitted_at: i * i,
            committed_at: i / 40 * 97,
            executed_at: i * 250,
            bytes: (i / 13 * 7_919 % 70_000) as u32,
        };
        for i in 0..300_000 {
            log.push(rec(i));
            if i % 1_000 == 0 {
                // A full chunk leaves under one record's bytes unused.
                let full = log.chunks.len() - 1;
                let bound = log.encoded_bytes() + EXEC_LOG_CHUNK + full * EXEC_RECORD_MAX;
                assert!(capacity(&log) <= bound, "{} B allocated", capacity(&log));
            }
        }
        assert!(log.chunks.len() > 4, "{} chunks", log.chunks.len());
        assert!(log.chunks.iter().all(|c| c.capacity() == EXEC_LOG_CHUNK), "a chunk grew");

        // A clone holds its encoding exactly and opens a chunk rather than
        // grow one it copied.
        let mut copy = log.clone();
        assert_eq!(capacity(&copy), log.encoded_bytes());
        copy.push(rec(300_000));
        assert_eq!(copy.chunks.len(), log.chunks.len() + 1);
        assert!(copy.iter().eq((0..=300_000).map(rec)));
    }

    /// A backend that accepts a fixed number of appends, then fails every
    /// write — the "disk full / device gone" shape.
    #[derive(Clone, Debug)]
    struct FailingBackend {
        inner: MemBackend,
        appends_left: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl FailingBackend {
        fn failing_after(appends: usize) -> Self {
            FailingBackend {
                inner: MemBackend::new(),
                appends_left: std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(appends)),
            }
        }
    }

    impl hh_storage::LogBackend for FailingBackend {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            use std::sync::atomic::Ordering;
            let left = self.appends_left.load(Ordering::SeqCst);
            if left == 0 {
                return Err(std::io::Error::other("injected append failure"));
            }
            self.appends_left.store(left - 1, Ordering::SeqCst);
            self.inner.append(bytes)
        }
        fn read_all(&self) -> std::io::Result<Vec<u8>> {
            self.inner.read_all()
        }
        fn rewrite(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.rewrite(bytes)
        }
        fn len(&self) -> usize {
            hh_storage::LogBackend::len(&self.inner)
        }
    }

    #[test]
    fn storage_failure_fail_stops_instead_of_panicking() {
        // A solo validator on a backend that dies after 3 appends: the
        // node must surface Output::StorageError, halt, and never panic.
        let committee = Committee::new_equal_stake(1);
        let backend = FailingBackend::failing_after(3);
        let appends_left = backend.appends_left.clone();
        let mut v: Validator<FailingBackend> =
            Validator::new(committee, ValidatorId(0), fast_config(), Some(backend));
        let mut timers: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut storage_errors = Vec::new();
        let absorb = |out: Vec<Output>,
                      now: u64,
                      timers: &mut BinaryHeap<Reverse<(u64, u64)>>,
                      errors: &mut Vec<&'static str>| {
            for o in out {
                match o {
                    Output::SetTimer { delay_us, token } => {
                        timers.push(Reverse((now + delay_us, token)));
                    }
                    Output::StorageError { context, detail } => {
                        assert!(detail.contains("injected append failure"), "{detail}");
                        errors.push(context);
                    }
                    Output::Send(_, _) | Output::Broadcast(_) => {}
                }
            }
        };

        let out = v.on_start(0);
        absorb(out, 0, &mut timers, &mut storage_errors);
        let mut now = 0u64;
        while let Some(Reverse((at, token))) = timers.peek().copied() {
            if at > 2_000_000 {
                break;
            }
            timers.pop();
            now = at;
            let out = v.on_timer(token, now);
            absorb(out, now, &mut timers, &mut storage_errors);
        }

        assert_eq!(storage_errors.len(), 1, "one typed error, then silence: {storage_errors:?}");
        assert!(
            storage_errors[0] == "persist vertex" || storage_errors[0] == "persist checkpoint",
            "{storage_errors:?}"
        );
        assert_eq!(v.metrics().storage_errors, 1);
        assert!(v.is_halted(), "the node fail-stops");
        let proposals_at_halt = v.metrics().proposals;
        // Further input is ignored without panicking.
        let out = v.on_message(
            ValidatorId(0),
            &ValidatorMessage::Submit(Transaction::new(0, 0, now)),
            now,
        );
        assert!(out.is_empty(), "halted node emits nothing");
        assert_eq!(v.metrics().proposals, proposals_at_halt);

        // A restart against a repaired store clears the halt and resumes.
        appends_left.store(usize::MAX, std::sync::atomic::Ordering::SeqCst);
        let out = v.on_restart(now + 1_000);
        assert!(!v.is_halted());
        assert!(!out.is_empty(), "restart resumes the protocol");
        assert!(!v.metrics().recovery_divergence);
    }

    #[test]
    fn block_bytes_cap_bounds_batches_by_payload() {
        // 1000-byte payloads (1020 wire bytes each) under a 4 KiB block
        // cap: at most 4 transactions fit a block, although
        // max_block_txs would allow all 10 at once.
        let config = ValidatorConfig {
            max_block_bytes: 4_096,
            max_block_txs: 100,
            min_round_delay_us: 100_000,
            ..fast_config()
        };
        let mut pump = SoloPump::new(config, None);
        pump.start();
        for i in 0..10 {
            pump.submit(Transaction::with_payload(0, i, 0, 1_000));
        }
        pump.run_until(2_000_000);
        let m = pump.v.metrics();
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
        let config = ValidatorConfig { max_block_bytes: 64, max_block_txs: 100, ..fast_config() };
        let mut pump = SoloPump::new(config, None);
        pump.start();
        pump.submit(Transaction::with_payload(0, 0, 0, 10_000));
        pump.submit(Transaction::with_payload(0, 1, 0, 10_000));
        pump.run_until(1_000_000);
        assert_eq!(pump.v.metrics().own_txs_committed, 2);
    }

    #[test]
    fn backpressure_limits_uncommitted() {
        // Tiny budget: only 3 txs may be in flight.
        let config = ValidatorConfig { max_uncommitted_txs: 3, max_block_txs: 10, ..fast_config() };
        let mut pump = SoloPump::new(config, None);
        pump.start();
        for i in 0..9 {
            pump.submit(Transaction::new(0, i, 0));
        }
        pump.run_until(2_000_000);
        // All eventually commit (budget releases on commit), but never more
        // than 3 in one block.
        assert_eq!(pump.v.metrics().own_txs_committed, 9);
    }

    /// This validator's own vertices among the broadcasts in `out`.
    fn own_broadcasts(out: &[Output], me: ValidatorId) -> Vec<Arc<Vertex>> {
        out.iter()
            .filter_map(|o| match o {
                Output::Broadcast(ValidatorMessage::Rbc(RbcMessage::Vertex(vertex)))
                    if vertex.author() == me =>
                {
                    Some(vertex.clone())
                }
                _ => None,
            })
            .collect()
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
            assert!(!v.engine.policy().awaits_leader(slow));
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
        let mut pump = SoloPump::new(config, None);
        pump.start();
        pump.run_until(1_000_000);
        assert!(pump.v.commit_count() > 4);
        let policy = pump.v.hammerhead_policy().expect("hammerhead policy");
        assert!(policy.epoch() >= 1, "schedule rotated for solo committee");
    }
}
