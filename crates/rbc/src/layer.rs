//! The broadcast layer state machine.

use crate::cert::{Certificate, ACK_CONTEXT};
use hh_crypto::{Digest, Keypair, Signature};
use hh_dag::{Dag, DagError, EquivocationEvidence, InsertOutcome};
use hh_types::codec::{Decoder, Encode, EncodeExt};
use hh_types::{
    Committee, DigestMap, Round, SlotDigests, Stake, TypeError, ValidatorId, Vertex, VertexRef,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Maximum vertices returned per sync response (keeps messages bounded).
const SYNC_RESPONSE_CAP: usize = 128;

/// Maximum missing digests re-requested per tick. Bounds the burst a
/// single tick can put on the wire while a node digs out of heavy loss;
/// digests past the budget stay due and go out on following ticks.
const SYNC_RETRY_BUDGET: usize = 128;

/// Retries that keep the historical every-tick cadence before the
/// exponential backoff kicks in. Healthy runs resolve their sync
/// requests within a tick or two, so they never see the backoff at all.
const BACKOFF_EVERY_TICK_ATTEMPTS: u32 = 2;

/// Upper bound on the retry gap in ticks.
const BACKOFF_CAP_TICKS: u64 = 8;

/// Consecutive no-progress ticks before stall recovery kicks in. A
/// healthy network advances the DAG front well inside one sync tick, so
/// this path sends nothing there (existing runs stay bit-identical);
/// under heavy loss it is the self-healing floor — pull whole rounds
/// from a rotating peer and re-push our own front vertex.
const STALL_PULL_AFTER_TICKS: u64 = 3;

/// Maximum vertices buffered while awaiting ancestry.
const PENDING_CAP: usize = 10_000;

/// Rounds of lag — buffered front minus inserted front — beyond which
/// the node switches from backward parent-walking to bulk range sync.
/// Backward walking fetches one round per round trip, so a recovering
/// node with a long outage would lose the race against its peers' GC
/// horizon; whole-round pulls catch up orders of magnitude faster.
const CATCH_UP_GAP: u64 = 10;

/// Maximum vertices returned per range response (several whole rounds
/// per round trip at practical committee sizes).
const RANGE_RESPONSE_CAP: usize = 256;

/// Which reliable-broadcast instantiation to run (see crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BroadcastMode {
    /// Push + pull-based sync; sufficient under crash faults.
    BestEffort,
    /// Header → quorum acks → certificate; prevents equivocation.
    Certified,
}

/// Wire messages exchanged by the broadcast layer.
///
/// Vertex-carrying variants hold `Arc<Vertex>` so the fan-out,
/// delivery, and DAG-intake paths share one allocation: a broadcast to
/// n−1 peers bumps a refcount per hop instead of deep-copying the block
/// and parent list. The wire encoding is unchanged (an `Arc` encodes as
/// its payload).
#[derive(Clone, Debug)]
pub enum RbcMessage {
    /// Best-effort vertex push.
    Vertex(Arc<Vertex>),
    /// Certified mode: header proposal awaiting acks.
    Propose(Arc<Vertex>),
    /// Certified mode: signed acknowledgment of a proposal.
    Ack {
        /// The acknowledged vertex.
        vertex: VertexRef,
        /// Signature over the vertex digest under the ack context.
        sig: Signature,
    },
    /// Certified mode: a vertex together with its availability certificate.
    Certified(Arc<Vertex>, Certificate),
    /// Pull request for missing vertices by digest.
    SyncRequest(Vec<Digest>),
    /// Bulk pull of whole rounds starting at `from` — sent by a node
    /// that detects it is far behind the network front (crash-recovery
    /// catch-up). Answered with an ordinary [`RbcMessage::SyncResponse`].
    RangeRequest {
        /// First round wanted (the requester's inserted front).
        from: Round,
    },
    /// Response carrying vertices (with certificates in certified mode).
    SyncResponse(Vec<(Arc<Vertex>, Option<Certificate>)>),
}

/// The outputs of one layer invocation.
#[derive(Debug, Default)]
pub struct RbcEffects {
    /// Vertices newly *delivered*: inserted into the DAG with complete
    /// ancestry, in insertion order. Feed these to consensus.
    pub delivered: Vec<Arc<Vertex>>,
    /// Point-to-point messages to send.
    pub send: Vec<(ValidatorId, RbcMessage)>,
    /// Messages to broadcast to every other validator.
    pub broadcast: Vec<RbcMessage>,
    /// Equivocations witnessed during this invocation: a second distinct
    /// vertex (or header) for a `(round, author)` slot this node already
    /// holds. Raw observations — retransmits of the same twin reappear
    /// here; feed them to an `EvidenceLedger` for deduplicated counts.
    pub evidence: Vec<EquivocationEvidence>,
}

impl RbcEffects {
    fn merge(&mut self, other: RbcEffects) {
        self.delivered.extend(other.delivered);
        self.send.extend(other.send);
        self.broadcast.extend(other.broadcast);
        self.evidence.extend(other.evidence);
    }
}

impl Encode for RbcMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            RbcMessage::Vertex(v) => {
                buf.put_u8(0);
                v.encode(buf);
            }
            RbcMessage::Propose(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
            RbcMessage::Ack { vertex, sig } => {
                buf.put_u8(2);
                vertex.encode(buf);
                sig.encode(buf);
            }
            RbcMessage::Certified(v, cert) => {
                buf.put_u8(3);
                v.encode(buf);
                cert.encode(buf);
            }
            RbcMessage::SyncRequest(digests) => {
                buf.put_u8(4);
                digests.encode(buf);
            }
            RbcMessage::RangeRequest { from } => {
                buf.put_u8(5);
                from.encode(buf);
            }
            RbcMessage::SyncResponse(pairs) => {
                buf.put_u8(6);
                pairs.encode(buf);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok(match d.take_u8()? {
            0 => RbcMessage::Vertex(Arc::new(Vertex::decode(d)?)),
            1 => RbcMessage::Propose(Arc::new(Vertex::decode(d)?)),
            2 => RbcMessage::Ack { vertex: VertexRef::decode(d)?, sig: Signature::decode(d)? },
            3 => RbcMessage::Certified(Arc::new(Vertex::decode(d)?), Certificate::decode(d)?),
            4 => RbcMessage::SyncRequest(Vec::decode(d)?),
            5 => RbcMessage::RangeRequest { from: Round::decode(d)? },
            6 => RbcMessage::SyncResponse(Vec::decode(d)?),
            _ => return Err(TypeError::Decode("invalid rbc message tag")),
        })
    }
}

/// Per-item retransmit state: how often we have re-asked for a missing
/// digest, and the earliest tick the next retry may go out.
#[derive(Clone, Copy, Debug, Default)]
struct RetryState {
    attempts: u32,
    next_due_tick: u64,
}

/// Retry gap (in ticks) after `attempts` requests have gone out: the
/// first couple of retries fire every tick, then the gap doubles to
/// [`BACKOFF_CAP_TICKS`]. Heavy loss converges without a retry storm;
/// a healthy network never leaves the every-tick prefix.
fn backoff_ticks(attempts: u32) -> u64 {
    if attempts <= BACKOFF_EVERY_TICK_ATTEMPTS {
        1
    } else {
        let exp = u64::from(attempts - BACKOFF_EVERY_TICK_ATTEMPTS).min(63);
        (1u64 << exp.min(BACKOFF_CAP_TICKS.ilog2() as u64)).min(BACKOFF_CAP_TICKS)
    }
}

/// Deterministic per-digest jitter added to backed-off retries so
/// retransmits for different digests de-synchronize instead of bursting
/// on the same tick. Zero during the every-tick prefix.
fn jitter_ticks(digest: &Digest, attempts: u32, delay: u64) -> u64 {
    if attempts <= BACKOFF_EVERY_TICK_ATTEMPTS || delay < 2 {
        return 0;
    }
    let span = delay / 2 + 1;
    (digest.prefix_u64() >> 32).wrapping_add(u64::from(attempts)) % span
}

/// A validated vertex held back until its ancestry is in the DAG.
struct Buffered {
    vertex: Arc<Vertex>,
    cert: Option<Certificate>,
    /// Parents not yet in the DAG; each lists this vertex among its
    /// [`Awaited::waiters`].
    missing: usize,
}

/// A digest that buffered vertices name as a parent and the DAG lacks.
struct Awaited {
    /// The buffered children waiting on it, in arrival order; never empty.
    waiters: Vec<Digest>,
    /// Re-request schedule, kept until the digest is inserted. `None` for
    /// a digest that was buffered before anyone waited on it (it is here,
    /// waiting on ancestry of its own) — until it is dropped from there.
    retry: Option<RetryState>,
}

struct PendingProposal {
    vertex: Arc<Vertex>,
    acks: BTreeMap<ValidatorId, Signature>,
    certified: bool,
    /// Re-broadcast attempts so far (same backoff as sync retries).
    rebroadcasts: u32,
    /// Earliest tick of the next re-broadcast.
    next_due_tick: u64,
}

/// The reliable-broadcast state machine for one validator.
///
/// See the crate-level example for usage.
pub struct Rbc {
    committee: Committee,
    me: ValidatorId,
    keypair: Keypair,
    mode: BroadcastMode,
    /// Vertices validated but awaiting ancestry, by their own digest.
    /// Digest-keyed maps here use the pass-through hasher — this layer
    /// does several lookups per delivered vertex.
    pending: DigestMap<Digest, Buffered>,
    /// The missing parents of `pending`, by the missing digest. An entry
    /// lives exactly as long as some buffered vertex waits on it, so
    /// `tick` can only ever ask for a vertex somebody waits on.
    awaited: DigestMap<Digest, Awaited>,
    /// Certified mode, author side: my proposals collecting acks.
    proposals: BTreeMap<Round, PendingProposal>,
    /// Certified mode, voter side: first header acked per (round, author).
    acked: SlotDigests,
    /// Certificates for vertices we accepted (served in sync responses).
    certs: DigestMap<Digest, Certificate>,
    /// Statistics: equivocation attempts observed at this layer.
    equivocation_attempts: u64,
    /// Range-sync requests issued so far (rotates the target peer).
    catch_up_attempts: u64,
    /// Ticks observed (drives the retransmit backoff schedule).
    ticks: u64,
    /// Sync *re*-requests sent from `tick` (excludes the initial
    /// request issued when a gap is first discovered).
    sync_retransmits: u64,
    /// Proposal re-broadcasts sent from `tick`.
    proposal_rebroadcasts: u64,
    /// DAG front at the previous tick (stall detection).
    last_front: Round,
    /// Consecutive ticks the front has not advanced.
    stalled_ticks: u64,
    /// `stalled_ticks` threshold of the next stall-recovery pull.
    next_stall_pull: u64,
    /// Pulls fired within the current stall (drives its backoff).
    stall_attempts: u32,
    /// Stall-recovery pulls sent from `tick`, all time.
    stall_pulls: u64,
}

impl Rbc {
    /// Creates the layer for validator `me`.
    pub fn new(committee: Committee, me: ValidatorId, mode: BroadcastMode) -> Self {
        let keypair = committee.keypair(me);
        Rbc {
            committee,
            me,
            keypair,
            mode,
            pending: DigestMap::default(),
            awaited: DigestMap::default(),
            proposals: BTreeMap::new(),
            acked: SlotDigests::new(),
            certs: DigestMap::default(),
            equivocation_attempts: 0,
            catch_up_attempts: 0,
            ticks: 0,
            sync_retransmits: 0,
            proposal_rebroadcasts: 0,
            last_front: Round(0),
            stalled_ticks: 0,
            next_stall_pull: STALL_PULL_AFTER_TICKS,
            stall_attempts: 0,
            stall_pulls: 0,
        }
    }

    /// The broadcast mode in force.
    pub fn mode(&self) -> BroadcastMode {
        self.mode
    }

    /// Number of vertices buffered awaiting ancestry.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Equivocation attempts observed (second distinct header per round).
    pub fn equivocation_attempts(&self) -> u64 {
        self.equivocation_attempts
    }

    /// Sync re-requests sent from `tick` (the initial request when a
    /// gap is discovered is not counted).
    pub fn sync_retransmits(&self) -> u64 {
        self.sync_retransmits
    }

    /// Uncertified-proposal re-broadcasts sent from `tick`.
    pub fn proposal_rebroadcasts(&self) -> u64 {
        self.proposal_rebroadcasts
    }

    /// Stall-recovery pulls sent from `tick`.
    pub fn stall_pulls(&self) -> u64 {
        self.stall_pulls
    }

    /// Total retransmissions: sync re-requests, proposal re-broadcasts
    /// and stall-recovery pulls. The retry-storm regression gate
    /// watches this.
    pub fn retransmits(&self) -> u64 {
        self.sync_retransmits + self.proposal_rebroadcasts + self.stall_pulls
    }

    /// Broadcasts this validator's own `vertex`.
    ///
    /// Best-effort mode delivers it locally at once; certified mode holds it
    /// until quorum acks arrive (self-ack included).
    ///
    /// # Panics
    ///
    /// Panics if the validator constructed a structurally invalid vertex for
    /// its own DAG — a local programming error, never a remote fault.
    pub fn broadcast_own(&mut self, vertex: Vertex, dag: &mut Dag) -> RbcEffects {
        // One allocation from here on: the local DAG, the delivered list
        // and the broadcast message all share this `Arc`.
        let vertex = Arc::new(vertex);
        let mut fx = RbcEffects::default();
        match self.mode {
            BroadcastMode::BestEffort => {
                match dag.try_insert_arc(vertex.clone()) {
                    Ok(_) => {}
                    Err(e) => panic!("own vertex rejected by local dag: {e}"),
                }
                fx.delivered.push(vertex.clone());
                fx.broadcast.push(RbcMessage::Vertex(vertex));
                // Our vertex may unblock buffered children (possible after
                // crash-recovery replays).
                let cascade = self.cascade_from(fx.delivered[0].digest(), dag);
                fx.merge(cascade);
            }
            BroadcastMode::Certified => {
                let round = vertex.round();
                let vref = vertex.reference();
                let self_sig = self.keypair.sign(ACK_CONTEXT, vref.digest.as_bytes());
                let mut acks = BTreeMap::new();
                acks.insert(self.me, self_sig);
                self.acked.record(round, self.me, vref.digest);
                self.proposals.insert(
                    round,
                    PendingProposal {
                        vertex: vertex.clone(),
                        acks,
                        certified: false,
                        rebroadcasts: 0,
                        next_due_tick: 0,
                    },
                );
                fx.broadcast.push(RbcMessage::Propose(vertex));
                // Degenerate committees (or whales) may self-certify.
                let done = self.try_finalize_proposal(round, dag);
                fx.merge(done);
            }
        }
        fx
    }

    /// Processes an incoming broadcast-layer message from `from`.
    ///
    /// Borrows the message: vertex payloads are `Arc`'d, so the paths
    /// that keep one (DAG insert, pending buffer, delivery) bump its
    /// refcount rather than deep-copying — the caller can hand the same
    /// frame to this layer and still own it afterwards.
    pub fn handle(&mut self, from: ValidatorId, msg: &RbcMessage, dag: &mut Dag) -> RbcEffects {
        match msg {
            RbcMessage::Vertex(v) => {
                if self.mode != BroadcastMode::BestEffort {
                    return RbcEffects::default();
                }
                if !self.author_signature_ok(v) {
                    return RbcEffects::default();
                }
                self.accept(v.clone(), None, dag)
            }
            RbcMessage::Propose(v) => self.on_propose(v),
            RbcMessage::Ack { vertex, sig } => self.on_ack(from, *vertex, *sig, dag),
            RbcMessage::Certified(v, cert) => {
                if self.mode != BroadcastMode::Certified || cert.vertex() != v.reference() {
                    return RbcEffects::default();
                }
                self.accept_certified(v, cert, dag)
            }
            RbcMessage::SyncRequest(digests) => self.on_sync_request(from, digests, dag),
            RbcMessage::RangeRequest { from: start } => self.on_range_request(from, *start, dag),
            RbcMessage::SyncResponse(pairs) => {
                let mut fx = RbcEffects::default();
                for (v, cert) in pairs {
                    match (self.mode, cert) {
                        (BroadcastMode::BestEffort, _) => {
                            if self.author_signature_ok(v) {
                                fx.merge(self.accept(v.clone(), None, dag));
                            }
                        }
                        (BroadcastMode::Certified, Some(cert)) => {
                            if cert.vertex() == v.reference() {
                                fx.merge(self.accept_certified(v, cert, dag));
                            }
                        }
                        (BroadcastMode::Certified, None) => {}
                    }
                }
                fx
            }
        }
    }

    /// Periodic maintenance: re-request still-missing ancestry (per-item
    /// exponential backoff, rotating targets, bounded per-tick budget),
    /// re-broadcast own uncertified proposals on the same backoff, and
    /// prune state below the DAG's GC horizon. Call every few hundred
    /// milliseconds.
    pub fn tick(&mut self, dag: &Dag) -> RbcEffects {
        let mut fx = RbcEffects::default();
        self.ticks += 1;
        let now = self.ticks;
        // Re-request due missing digests from a rotating peer. `awaited`
        // is a hash map, so its iteration order is arbitrary — the explicit
        // sort below is what makes retry batches deterministic. Digests
        // past the per-tick budget stay due and drain on later ticks.
        let me = self.me;
        let n = self.committee.size() as u64;
        let mut by_peer: BTreeMap<ValidatorId, Vec<Digest>> = BTreeMap::new();
        let mut due: Vec<Digest> = self
            .awaited
            .iter()
            .filter(|(_, a)| a.retry.is_some_and(|s| s.next_due_tick <= now))
            .map(|(d, _)| *d)
            .collect();
        due.sort();
        due.truncate(SYNC_RETRY_BUDGET);
        for digest in due {
            let state = self.awaited.get_mut(&digest).and_then(|a| a.retry.as_mut()).expect("due");
            state.attempts += 1;
            let delay = backoff_ticks(state.attempts);
            state.next_due_tick = now + delay + jitter_ticks(&digest, state.attempts, delay);
            self.sync_retransmits += 1;
            let seed = digest.prefix_u64().wrapping_add(state.attempts as u64);
            let peer = rotate_peer(me, n, seed);
            by_peer.entry(peer).or_default().push(digest);
        }
        for (peer, digests) in by_peer {
            fx.send.push((peer, RbcMessage::SyncRequest(digests)));
        }
        // Bulk catch-up: buffered vertices far above the inserted front
        // mean we are recovering from an outage. Backward parent-walking
        // would fetch one round per round trip and lose the race against
        // the peers' advancing GC horizon, so pull whole rounds from a
        // rotating peer until the gap closes.
        let front = dag.highest_round().unwrap_or(Round(0));
        let buffered_front = self.pending.values().map(|b| b.vertex.round().0).max().unwrap_or(0);
        if buffered_front > front.0 + CATCH_UP_GAP {
            self.catch_up_attempts += 1;
            let peer = rotate_peer(me, n, me.0 as u64 + self.catch_up_attempts);
            fx.send.push((peer, RbcMessage::RangeRequest { from: front }));
        }

        // Stall recovery: a lossy network can strand the whole committee
        // with nothing buffered and nothing requested — every copy of a
        // round's vertices died on the wire, so no reference ever names
        // them and the pull-by-digest path above has nothing to pull.
        // When the front stops advancing, fetch whole rounds from a
        // rotating peer and re-push our own front vertex (peers may have
        // lost every copy of it), backing off while the stall persists.
        if front == self.last_front {
            self.stalled_ticks += 1;
        } else {
            self.last_front = front;
            self.stalled_ticks = 0;
            self.stall_attempts = 0;
            self.next_stall_pull = STALL_PULL_AFTER_TICKS;
        }
        if self.stalled_ticks >= self.next_stall_pull {
            self.stall_attempts += 1;
            self.next_stall_pull = self.stalled_ticks + backoff_ticks(self.stall_attempts);
            self.stall_pulls += 1;
            let peer = rotate_peer(me, n, me.0 as u64 + self.stall_pulls);
            fx.send.push((peer, RbcMessage::RangeRequest { from: front }));
            if let Some(mine) = dag.vertex_by_author(front, me).cloned() {
                match self.mode {
                    BroadcastMode::BestEffort => fx.broadcast.push(RbcMessage::Vertex(mine)),
                    // Certified mode: a vertex in our DAG carries a
                    // certificate; re-push it so peers can accept
                    // without a fresh ack round. (Uncertified proposals
                    // are re-pushed by the loop below.)
                    BroadcastMode::Certified => {
                        if let Some(cert) = self.certs.get(&mine.digest()).cloned() {
                            fx.broadcast.push(RbcMessage::Certified(mine, cert));
                        }
                    }
                }
            }
        }

        // Re-broadcast uncertified proposals (frames a lossy link dropped) on the
        // same backoff schedule as sync retries.
        for p in self.proposals.values_mut() {
            if !p.certified && p.next_due_tick <= now {
                p.rebroadcasts += 1;
                p.next_due_tick = now + backoff_ticks(p.rebroadcasts);
                self.proposal_rebroadcasts += 1;
                fx.broadcast.push(RbcMessage::Propose(p.vertex.clone()));
            }
        }
        // Prune below GC. A certificate is kept exactly while its vertex
        // is in the DAG: it is stored when the vertex is inserted, names
        // the vertex's own round (checked at intake), and only GC removes
        // vertices.
        let gc = dag.gc_round();
        self.acked.prune_below(gc);
        self.proposals.retain(|round, _| *round >= gc);
        self.certs.retain(|_, cert| cert.vertex().round >= gc);
        let stale: Vec<Digest> =
            self.pending.iter().filter(|(_, b)| b.vertex.round() < gc).map(|(d, _)| *d).collect();
        for d in stale {
            self.drop_pending(&d);
        }
        fx
    }

    fn author_signature_ok(&self, v: &Vertex) -> bool {
        match self.committee.validator(v.author()) {
            Ok(info) => v.verify(info.public_key()),
            Err(_) => false,
        }
    }

    /// Takes in a certified vertex whose certificate names it. A digest
    /// the DAG or the ancestry buffer holds passed both checks when it
    /// arrived, so only a new one pays for the author's signature and the
    /// certificate's quorum of ack signatures; a held one meets `accept`'s
    /// already-present arm, and a buffered one waits for its parents.
    fn accept_certified(
        &mut self,
        v: &Arc<Vertex>,
        cert: &Certificate,
        dag: &mut Dag,
    ) -> RbcEffects {
        if dag.get(v.round(), v.digest_ref()).is_some() {
            return self.accept(v.clone(), None, dag);
        }
        if self.pending.contains_key(v.digest_ref())
            || !self.author_signature_ok(v)
            || cert.verify(&self.committee).is_err()
        {
            return RbcEffects::default();
        }
        self.accept(v.clone(), Some(cert.clone()), dag)
    }

    fn on_propose(&mut self, v: &Arc<Vertex>) -> RbcEffects {
        let mut fx = RbcEffects::default();
        if self.mode != BroadcastMode::Certified || !self.author_signature_ok(v) {
            return fx;
        }
        if let Some(stored) = self.acked.record(v.round(), v.author(), v.digest()) {
            // Second distinct header this round: equivocation attempt.
            self.equivocation_attempts += 1;
            fx.evidence.push(EquivocationEvidence {
                round: v.round(),
                author: v.author(),
                stored,
                offending: v.digest(),
            });
            return fx;
        }
        let sig = self.keypair.sign(ACK_CONTEXT, v.digest().as_bytes());
        fx.send.push((v.author(), RbcMessage::Ack { vertex: v.reference(), sig }));
        fx
    }

    fn on_ack(
        &mut self,
        from: ValidatorId,
        vref: VertexRef,
        sig: Signature,
        dag: &mut Dag,
    ) -> RbcEffects {
        if self.mode != BroadcastMode::Certified {
            return RbcEffects::default();
        }
        let Ok(info) = self.committee.validator(from) else {
            return RbcEffects::default();
        };
        if !info.public_key().verify(ACK_CONTEXT, vref.digest.as_bytes(), &sig) {
            return RbcEffects::default();
        }
        let Some(p) = self.proposals.get_mut(&vref.round) else {
            return RbcEffects::default();
        };
        if p.certified || p.vertex.digest() != vref.digest {
            return RbcEffects::default();
        }
        p.acks.insert(from, sig);
        self.try_finalize_proposal(vref.round, dag)
    }

    /// If the proposal for `round` has quorum acks, certify, deliver
    /// locally, and broadcast.
    fn try_finalize_proposal(&mut self, round: Round, dag: &mut Dag) -> RbcEffects {
        let mut fx = RbcEffects::default();
        let Some(p) = self.proposals.get_mut(&round) else {
            return fx;
        };
        if p.certified {
            return fx;
        }
        let stake: Stake = p.acks.keys().map(|v| self.committee.stake_of(*v)).sum();
        if stake < self.committee.quorum_threshold() {
            return fx;
        }
        p.certified = true;
        let vertex = p.vertex.clone();
        let cert =
            Certificate::new(vertex.reference(), p.acks.iter().map(|(v, s)| (*v, *s)).collect());
        debug_assert!(cert.verify(&self.committee).is_ok());
        fx.broadcast.push(RbcMessage::Certified(vertex.clone(), cert.clone()));
        fx.merge(self.accept(vertex, Some(cert), dag));
        fx
    }

    /// Validated-vertex intake: insert, or buffer + request missing
    /// ancestry. Cascades over buffered children on success. The
    /// `Arc` travels untouched: inserted into the DAG and pushed to
    /// `delivered` as refcount bumps, never re-allocated.
    fn accept(
        &mut self,
        vertex: Arc<Vertex>,
        cert: Option<Certificate>,
        dag: &mut Dag,
    ) -> RbcEffects {
        let mut fx = RbcEffects::default();
        let mut queue: VecDeque<(Arc<Vertex>, Option<Certificate>)> = VecDeque::new();
        queue.push_back((vertex, cert));

        while let Some((v, cert)) = queue.pop_front() {
            let digest = v.digest();
            let author = v.author();
            match dag.try_insert_arc(v.clone()) {
                Ok(InsertOutcome::Inserted) => {
                    if let Some(c) = cert {
                        self.certs.insert(digest, c);
                    }
                    fx.delivered.push(v);
                    queue.extend(self.release_waiters(&digest));
                }
                Ok(InsertOutcome::AlreadyPresent) => {
                    // Buffered children await only digests the DAG lacked
                    // in their round below. One awaiting a vertex the DAG
                    // holds names it from another round, which no arrival
                    // can fix: drop it rather than ask again until GC.
                    if let Some(awaited) = self.awaited.get(&digest) {
                        for child in awaited.waiters.clone() {
                            self.drop_pending(&child);
                        }
                    }
                }
                Err(DagError::MissingParents(missing)) => {
                    if self.pending.contains_key(&digest) {
                        continue;
                    }
                    if self.pending.len() >= PENDING_CAP {
                        self.evict_one_pending();
                    }
                    let mut to_request = Vec::new();
                    for m in &missing {
                        match self.awaited.entry(*m) {
                            Entry::Occupied(awaited) => awaited.into_mut().waiters.push(digest),
                            Entry::Vacant(slot) => {
                                // A parent that is here, held back like this
                                // vertex, is not asked for.
                                let retry = (!self.pending.contains_key(m)).then(|| {
                                    to_request.push(*m);
                                    RetryState::default()
                                });
                                slot.insert(Awaited { waiters: vec![digest], retry });
                            }
                        }
                    }
                    self.pending
                        .insert(digest, Buffered { vertex: v, cert, missing: missing.len() });
                    if !to_request.is_empty() {
                        // First ask the child's author: Claim 1 guarantees
                        // it holds the full ancestry.
                        fx.send.push((author, RbcMessage::SyncRequest(to_request)));
                    }
                }
                Err(DagError::Equivocation { .. }) => {
                    self.equivocation_attempts += 1;
                    if let Some(stored) = dag.vertex_by_author(v.round(), author) {
                        fx.evidence.push(EquivocationEvidence {
                            round: v.round(),
                            author,
                            stored: stored.digest(),
                            offending: digest,
                        });
                    }
                }
                Err(_) => {
                    // Structurally invalid or below GC: drop.
                }
            }
        }
        fx
    }

    /// `digest` is in the DAG: nobody awaits it any more. Returns the
    /// buffered vertices it was the last missing parent of, in arrival
    /// order, for the caller to insert.
    fn release_waiters(&mut self, digest: &Digest) -> Vec<(Arc<Vertex>, Option<Certificate>)> {
        let Some(awaited) = self.awaited.remove(digest) else {
            return Vec::new();
        };
        let mut ready = Vec::new();
        for child in awaited.waiters {
            let buffered = self.pending.get_mut(&child).expect("a waiter is buffered");
            buffered.missing -= 1;
            if buffered.missing == 0 {
                let buffered = self.pending.remove(&child).expect("present above");
                ready.push((buffered.vertex, buffered.cert));
            }
        }
        ready
    }

    /// Re-run the cascade as if `digest` was just inserted (used after
    /// crash-recovery replay inserts vertices directly into the DAG).
    fn cascade_from(&mut self, digest: Digest, dag: &mut Dag) -> RbcEffects {
        let mut fx = RbcEffects::default();
        for (vertex, cert) in self.release_waiters(&digest) {
            fx.merge(self.accept(vertex, cert, dag));
        }
        fx
    }

    /// Serves the first [`SYNC_RESPONSE_CAP`] of `digests`, in request
    /// order. A request names no rounds, so they are looked up together
    /// with [`Dag::find_all`]: one scan of the retained rounds, newest
    /// first, that ends when the last of them is found. A request costs at
    /// most one pass over the retained rounds (`gc_depth` rounds and the
    /// uncommitted front, `n` slots each), whatever it asks for.
    fn on_sync_request(&self, from: ValidatorId, digests: &[Digest], dag: &Dag) -> RbcEffects {
        let mut fx = RbcEffects::default();
        let asked = &digests[..digests.len().min(SYNC_RESPONSE_CAP)];
        let stored = dag.find_all(&asked.iter().copied().collect());
        let mut found: Vec<(Arc<Vertex>, Option<Certificate>)> = Vec::new();
        for d in asked {
            if let Some(&v) = stored.get(d) {
                let cert = self.certs.get(d).cloned();
                if self.mode == BroadcastMode::Certified && cert.is_none() {
                    continue; // cannot prove availability without the cert
                }
                found.push((v.clone(), cert));
            }
        }
        if !found.is_empty() {
            // Parents first, so the receiver can insert without buffering.
            found.sort_by_key(|(v, _)| v.round());
            fx.send.push((from, RbcMessage::SyncResponse(found)));
        }
        fx
    }

    /// Serves a bulk catch-up request: whole rounds from `start` upward
    /// (ascending round, ascending author — the author-indexed slot
    /// order), as many as fit in one response. The requester re-issues
    /// from its new front on its next tick until the gap closes.
    ///
    /// A responder that has already garbage-collected past `start`
    /// cannot help: serving its retained suffix would hand the requester
    /// vertices whose ancestry no longer exists anywhere, so it declines
    /// (empty response) and the requester's rotation tries other peers.
    /// An outage long enough that *every* peer has GC'd the requester's
    /// front is unrecoverable by replay — that needs checkpoint/state
    /// sync (a ROADMAP item), not a deeper backfill.
    fn on_range_request(&self, from: ValidatorId, start: Round, dag: &Dag) -> RbcEffects {
        let mut fx = RbcEffects::default();
        if start < dag.gc_round() {
            return fx;
        }
        let mut found: Vec<(Arc<Vertex>, Option<Certificate>)> = Vec::new();
        let top = dag.highest_round().unwrap_or(Round(0));
        let mut round = start;
        while round <= top && found.len() < RANGE_RESPONSE_CAP {
            for v in dag.round_vertices(round) {
                let cert = self.certs.get(&v.digest()).cloned();
                if self.mode == BroadcastMode::Certified && cert.is_none() {
                    continue; // cannot prove availability without the cert
                }
                found.push((v.clone(), cert));
                if found.len() >= RANGE_RESPONSE_CAP {
                    break;
                }
            }
            round = round.next();
        }
        if !found.is_empty() {
            fx.send.push((from, RbcMessage::SyncResponse(found)));
        }
        fx
    }

    fn evict_one_pending(&mut self) {
        if let Some(victim) =
            self.pending.iter().min_by_key(|(_, b)| b.vertex.round()).map(|(d, _)| *d)
        {
            self.drop_pending(&victim);
        }
    }

    /// Forgets a buffered vertex: it stops waiting on its parents, and a
    /// vertex still waiting on *it* goes back to asking for it.
    fn drop_pending(&mut self, digest: &Digest) {
        let Some(dropped) = self.pending.remove(digest) else {
            return;
        };
        for parent in dropped.vertex.parents() {
            if let Some(awaited) = self.awaited.get_mut(parent) {
                awaited.waiters.retain(|d| d != digest);
                if awaited.waiters.is_empty() {
                    self.awaited.remove(parent);
                }
            }
        }
        if let Some(awaited) = self.awaited.get_mut(digest) {
            awaited.retry = Some(RetryState::default());
        }
    }
}

/// The peer at position `seed` of a committee of `n`, skipping `me` for
/// the next one: every sync or range request picks its target by this
/// one rotation rule.
fn rotate_peer(me: ValidatorId, n: u64, seed: u64) -> ValidatorId {
    let mut idx = seed % n;
    if idx == me.0 as u64 {
        idx = (idx + 1) % n;
    }
    ValidatorId(idx as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_types::Block;

    fn committee4() -> Committee {
        Committee::new_equal_stake(4)
    }

    fn make_vertex(c: &Committee, round: u64, author: u16, parents: Vec<Digest>) -> Vertex {
        Vertex::new(
            Round(round),
            ValidatorId(author),
            Block::empty(),
            parents,
            &c.keypair(ValidatorId(author)),
        )
    }

    /// Builds one node's (rbc, dag) pair.
    fn node(c: &Committee, id: u16, mode: BroadcastMode) -> (Rbc, Dag) {
        (Rbc::new(c.clone(), ValidatorId(id), mode), Dag::new(c.clone()))
    }

    #[test]
    fn best_effort_push_delivers() {
        let c = committee4();
        let (mut rbc0, mut dag0) = node(&c, 0, BroadcastMode::BestEffort);
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::BestEffort);

        let v = make_vertex(&c, 0, 0, vec![]);
        let fx = rbc0.broadcast_own(v.clone(), &mut dag0);
        assert_eq!(fx.delivered.len(), 1);
        assert_eq!(fx.broadcast.len(), 1);

        let fx1 = rbc1.handle(ValidatorId(0), &fx.broadcast[0], &mut dag1);
        assert_eq!(fx1.delivered.len(), 1);
        assert!(dag1.get(v.round(), &v.digest()).is_some());
    }

    /// Inserts fully-connected rounds `0..rounds` into `dag`.
    fn fill_rounds(c: &Committee, dag: &mut Dag, rounds: u64) {
        let mut parents: Vec<Digest> = Vec::new();
        for r in 0..rounds {
            let vertices: Vec<Vertex> =
                (0..c.size() as u16).map(|a| make_vertex(c, r, a, parents.clone())).collect();
            parents = vertices.iter().map(|v| v.digest()).collect();
            for v in vertices {
                dag.try_insert(v).unwrap();
            }
        }
    }

    #[test]
    fn far_behind_node_range_syncs_to_the_front() {
        // An up-to-date peer holds 30 rounds; the recovering node holds 5
        // and then sees a front-round broadcast. Backward parent-walking
        // would need ~25 round trips; the tick must instead issue one
        // RangeRequest, and the peer's single response must close the gap.
        let c = committee4();
        let (mut ahead, mut dag_ahead) = node(&c, 0, BroadcastMode::BestEffort);
        let (mut behind, mut dag_behind) = node(&c, 1, BroadcastMode::BestEffort);
        fill_rounds(&c, &mut dag_ahead, 30);
        fill_rounds(&c, &mut dag_behind, 5);

        // A current broadcast arrives: buffered, far above the front.
        let front_vertex = dag_ahead
            .vertex_by_author(Round(29), ValidatorId(0))
            .expect("front vertex")
            .as_ref()
            .clone();
        behind.handle(
            ValidatorId(0),
            &RbcMessage::Vertex(Arc::new(front_vertex.clone())),
            &mut dag_behind,
        );
        assert!(dag_behind.get(Round(29), &front_vertex.digest()).is_none(), "buffered");

        // Tick detects the gap and asks a peer for whole rounds.
        let fx = behind.tick(&dag_behind);
        let request = fx
            .send
            .iter()
            .find(|(_, m)| matches!(m, RbcMessage::RangeRequest { .. }))
            .expect("gap triggers a range request");
        let (peer, request) = (request.0, request.1.clone());
        assert_eq!(request_round(&request), Round(4), "requests from the inserted front");
        assert_eq!(peer, ValidatorId(2), "deterministic peer rotation (me + attempts)");

        // The peer answers with whole rounds; the gap closes in one hop
        // and the buffered front vertex delivers.
        let response = ahead.handle(ValidatorId(1), &request, &mut dag_ahead);
        let (_, reply) = response.send.into_iter().next().expect("peer responds");
        let fx = behind.handle(ValidatorId(0), &reply, &mut dag_behind);
        assert!(!fx.delivered.is_empty());
        assert_eq!(dag_behind.highest_round(), Some(Round(29)));
        assert!(dag_behind.get(Round(29), &front_vertex.digest()).is_some());

        // Once caught up, ticks stop range-requesting.
        let fx = behind.tick(&dag_behind);
        assert!(
            !fx.send.iter().any(|(_, m)| matches!(m, RbcMessage::RangeRequest { .. })),
            "no gap, no range sync"
        );
    }

    fn request_round(msg: &RbcMessage) -> Round {
        match msg {
            RbcMessage::RangeRequest { from } => *from,
            other => panic!("not a range request: {other:?}"),
        }
    }

    #[test]
    fn small_lag_does_not_range_sync() {
        // Ordinary operation buffers vertices a round or two ahead; that
        // must keep using targeted parent requests, not bulk pulls.
        let c = committee4();
        let (mut behind, mut dag_behind) = node(&c, 1, BroadcastMode::BestEffort);
        let (_, mut dag_ahead) = node(&c, 0, BroadcastMode::BestEffort);
        fill_rounds(&c, &mut dag_ahead, 8);
        fill_rounds(&c, &mut dag_behind, 5);
        let near = dag_ahead
            .vertex_by_author(Round(6), ValidatorId(0))
            .expect("near vertex")
            .as_ref()
            .clone();
        behind.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(near)), &mut dag_behind);
        let fx = behind.tick(&dag_behind);
        assert!(
            !fx.send.iter().any(|(_, m)| matches!(m, RbcMessage::RangeRequest { .. })),
            "a 2-round lag stays on the targeted sync path"
        );
    }

    #[test]
    fn tampered_vertex_rejected() {
        let c = committee4();
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::BestEffort);
        // Signed with the wrong key: author claims v0 but signs with v2.
        let forged = Vertex::new(
            Round(0),
            ValidatorId(0),
            Block::empty(),
            vec![],
            &c.keypair(ValidatorId(2)),
        );
        let fx = rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(forged)), &mut dag1);
        assert!(fx.delivered.is_empty());
        assert!(dag1.is_empty());
    }

    #[test]
    fn missing_ancestry_buffers_and_requests() {
        let c = committee4();
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::BestEffort);

        // Build rounds 0-1 externally.
        let genesis: Vec<Vertex> = (0..4).map(|i| make_vertex(&c, 0, i, vec![])).collect();
        let parents: Vec<Digest> = genesis.iter().map(|v| v.digest()).collect();
        let child = make_vertex(&c, 1, 0, parents.clone());

        // Child arrives before its parents.
        let fx =
            rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(child.clone())), &mut dag1);
        assert!(fx.delivered.is_empty());
        assert_eq!(rbc1.pending_len(), 1);
        // A sync request went to the child's author.
        assert!(matches!(
            &fx.send[..],
            [(ValidatorId(0), RbcMessage::SyncRequest(missing))] if missing.len() == 4
        ));

        // Parents arrive (out of order); child cascades in at the end.
        let mut delivered = 0;
        for g in genesis.iter().rev() {
            let fx =
                rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(g.clone())), &mut dag1);
            delivered += fx.delivered.len();
        }
        assert_eq!(delivered, 5, "4 parents + cascaded child");
        assert!(dag1.get(child.round(), &child.digest()).is_some());
        assert_eq!(rbc1.pending_len(), 0);
    }

    #[test]
    fn sync_request_answered_parents_first() {
        let c = committee4();
        let (mut rbc0, mut dag0) = node(&c, 0, BroadcastMode::BestEffort);
        let genesis: Vec<Vertex> = (0..4).map(|i| make_vertex(&c, 0, i, vec![])).collect();
        for g in &genesis {
            rbc0.handle(
                ValidatorId(g.author().0),
                &RbcMessage::Vertex(Arc::new(g.clone())),
                &mut dag0,
            );
        }
        let parents: Vec<Digest> = genesis.iter().map(|v| v.digest()).collect();
        let child = make_vertex(&c, 1, 0, parents.clone());
        rbc0.broadcast_own(child.clone(), &mut dag0);

        let mut wanted = vec![child.digest()];
        wanted.extend(parents.clone());
        let fx = rbc0.handle(ValidatorId(2), &RbcMessage::SyncRequest(wanted), &mut dag0);
        match &fx.send[..] {
            [(ValidatorId(2), RbcMessage::SyncResponse(pairs))] => {
                assert_eq!(pairs.len(), 5);
                // Rounds ascend, so a receiver can insert directly.
                let rounds: Vec<u64> = pairs.iter().map(|(v, _)| v.round().0).collect();
                let mut sorted = rounds.clone();
                sorted.sort();
                assert_eq!(rounds, sorted);
            }
            other => panic!("unexpected effects {other:?}"),
        }
    }

    /// The served digests of the one `SyncResponse` in `fx`, or none.
    fn served(fx: &RbcEffects) -> Vec<Digest> {
        fx.send
            .iter()
            .filter_map(|(_, m)| match m {
                RbcMessage::SyncResponse(pairs) => Some(pairs.iter().map(|(v, _)| v.digest())),
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn sync_request_serves_any_retained_round_and_nothing_else() {
        let c = committee4();
        let (mut rbc0, mut dag0) = node(&c, 0, BroadcastMode::BestEffort);
        fill_rounds(&c, &mut dag0, 6);
        let at = |dag: &Dag, r, a| dag.vertex_by_author(Round(r), ValidatorId(a)).unwrap().digest();
        let (old, front) = (at(&dag0, 1, 2), at(&dag0, 5, 3));
        let ghost = hh_crypto::sha256(b"ghost");
        let ask = |rbc: &mut Rbc, dag: &mut Dag, wanted: Vec<Digest>| {
            served(&rbc.handle(ValidatorId(1), &RbcMessage::SyncRequest(wanted), dag))
        };
        assert_eq!(ask(&mut rbc0, &mut dag0, vec![front, ghost, old]), [old, front]);
        assert!(ask(&mut rbc0, &mut dag0, vec![ghost]).is_empty(), "nothing to send");
        // Only unknown digests, past the cap: one scan finds none of them,
        // and a stored digest beyond the cap is not looked at.
        let mut unknown: Vec<Digest> = (0..2 * SYNC_RESPONSE_CAP as u32)
            .map(|i| hh_crypto::sha256(&i.to_le_bytes()))
            .collect();
        assert!(ask(&mut rbc0, &mut dag0, unknown.clone()).is_empty());
        unknown.push(front);
        assert!(ask(&mut rbc0, &mut dag0, unknown).is_empty(), "past the cap");
        // Request order is kept within a round, repeats included.
        let (a, b) = (at(&dag0, 3, 1), at(&dag0, 3, 0));
        assert_eq!(ask(&mut rbc0, &mut dag0, vec![a, front, b, a]), [a, b, a, front]);
        dag0.gc(Round(2));
        assert_eq!(ask(&mut rbc0, &mut dag0, vec![old, front]), [front], "round 1 is collected");
    }

    #[test]
    fn a_parent_named_from_the_wrong_round_is_dropped_after_one_round_trip() {
        let c = committee4();
        let (mut rbc0, mut dag0) = node(&c, 0, BroadcastMode::BestEffort);
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::BestEffort);
        fill_rounds(&c, &mut dag0, 3);
        fill_rounds(&c, &mut dag1, 3);
        // Validator 0 signs a round-3 vertex that names three round-2
        // vertices and one from round 1, which both DAGs hold.
        let two_down = dag1.vertex_by_author(Round(1), ValidatorId(3)).unwrap().digest();
        let mut parents: Vec<Digest> = dag1.round_vertices(Round(2)).map(|v| v.digest()).collect();
        parents[3] = two_down;
        let bent = Arc::new(make_vertex(&c, 3, 0, parents));
        let fx = rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(bent.clone()), &mut dag1);
        assert!(fx.delivered.is_empty());
        assert_eq!(rbc1.pending_len(), 1);
        let [(ValidatorId(0), request)] = &fx.send[..] else {
            panic!("expected one sync request to the author, got {:?}", fx.send);
        };
        assert!(matches!(request, RbcMessage::SyncRequest(d) if d == &[two_down]));

        // The author serves the round-1 vertex; it is already stored, so
        // nothing can ever release the child and it is dropped.
        let reply = rbc0.handle(ValidatorId(1), request, &mut dag0);
        let [(_, response)] = &reply.send[..] else { panic!("expected one reply") };
        let fx = rbc1.handle(ValidatorId(0), response, &mut dag1);
        assert!(fx.delivered.is_empty());
        assert_eq!(rbc1.pending_len(), 0);
        assert!(rbc1.awaited.is_empty());
        assert_buffer_consistent(&rbc1, &dag1);
        assert!(rbc1.tick(&dag1).send.is_empty(), "nothing left to ask for");
        assert!(dag1.get(bent.round(), &bent.digest()).is_none());
    }

    /// Certifies `v` with the acks of validators 0-2.
    fn certify(c: &Committee, v: &Vertex) -> Certificate {
        let acks = (0..3u16)
            .map(|i| {
                (ValidatorId(i), c.keypair(ValidatorId(i)).sign(ACK_CONTEXT, v.digest().as_bytes()))
            })
            .collect();
        Certificate::new(v.reference(), acks)
    }

    #[test]
    fn certified_tick_keeps_certificates_from_the_gc_horizon_up() {
        let c = committee4();
        let (mut rbc0, mut dag0) = node(&c, 0, BroadcastMode::Certified);
        let mut source = Dag::new(c.clone());
        fill_rounds(&c, &mut source, 5);
        for r in 0..5 {
            for v in source.round_vertices(Round(r)) {
                let msg = RbcMessage::Certified(v.clone(), certify(&c, v));
                assert_eq!(rbc0.handle(v.author(), &msg, &mut dag0).delivered.len(), 1);
            }
        }
        // A certificate naming another round than its vertex's is refused:
        // the signatures cover the digest alone.
        let v = Arc::new(make_vertex(
            &c,
            5,
            1,
            source.round_vertices(Round(4)).map(|v| v.digest()).collect(),
        ));
        let mut cert = certify(&c, &v);
        let VertexRef { author, digest, .. } = cert.vertex();
        cert =
            Certificate::new(VertexRef { round: Round(99), author, digest }, cert.acks().to_vec());
        assert!(cert.verify(&c).is_ok());
        let fx = rbc0.handle(ValidatorId(1), &RbcMessage::Certified(v, cert), &mut dag0);
        assert!(fx.delivered.is_empty());

        assert_eq!(rbc0.certs.len(), 5 * 4);
        dag0.gc(Round(2));
        rbc0.tick(&dag0);
        let mut kept: Vec<u64> = rbc0.certs.values().map(|cert| cert.vertex().round.0).collect();
        kept.sort();
        assert_eq!(kept, [2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4]);
        // What is kept is served, with its certificate.
        let wanted = vec![source.vertex_by_author(Round(2), ValidatorId(3)).unwrap().digest()];
        let fx = rbc0.handle(ValidatorId(1), &RbcMessage::SyncRequest(wanted.clone()), &mut dag0);
        assert!(matches!(
            &fx.send[..],
            [(_, RbcMessage::SyncResponse(pairs))] if pairs.len() == 1 && pairs[0].1.is_some()
        ));
        assert_eq!(served(&fx), wanted);
    }

    #[test]
    fn a_held_or_buffered_certified_vertex_is_not_verified_again() {
        let c = committee4();
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::Certified);
        let genesis: Vec<Arc<Vertex>> =
            (0..3).map(|a| Arc::new(make_vertex(&c, 0, a, vec![]))).collect();
        let parents: Vec<Digest> = genesis.iter().map(|v| v.digest()).collect();
        let child = Arc::new(make_vertex(&c, 1, 0, parents.clone()));
        let certified = |v: &Arc<Vertex>| RbcMessage::Certified(v.clone(), certify(&c, v));
        let synced =
            |v: &Arc<Vertex>| RbcMessage::SyncResponse(vec![(v.clone(), Some(certify(&c, v)))]);
        // What one message does, and the signature operations it costs on
        // this thread.
        hh_crypto::prof::set_enabled(true);
        let sig_ops = |rbc: &mut Rbc, dag: &mut Dag, msg: &RbcMessage| {
            let before = hh_crypto::prof::snapshot();
            let fx = rbc.handle(ValidatorId(0), msg, dag);
            (fx, hh_crypto::prof::snapshot().since(&before).sig_ops)
        };

        // A new vertex pays for its author's signature and the 2f + 1 acks.
        for v in genesis.iter().chain([&child]) {
            let (fx, ops) = sig_ops(&mut rbc1, &mut dag1, &certified(v));
            assert_eq!((fx.delivered.len(), ops), (1, 1 + 3));
        }
        // Held: re-delivered on either path, it costs no signature check.
        for msg in [certified(&genesis[0]), synced(&genesis[0]), certified(&child), synced(&child)]
        {
            let (fx, ops) = sig_ops(&mut rbc1, &mut dag1, &msg);
            assert!(fx.delivered.is_empty() && fx.send.is_empty() && fx.evidence.is_empty());
            assert_eq!(ops, 0, "a held vertex is not verified again: {msg:?}");
        }
        // Buffered: a vertex waiting for its parents is not verified again
        // either, and still waits.
        let orphan = Arc::new(make_vertex(&c, 3, 2, vec![hh_crypto::sha256(b"unseen")]));
        let (fx, ops) = sig_ops(&mut rbc1, &mut dag1, &certified(&orphan));
        assert_eq!((fx.delivered.len(), fx.send.len(), ops), (0, 1, 1 + 3));
        for msg in [certified(&orphan), synced(&orphan)] {
            let (fx, ops) = sig_ops(&mut rbc1, &mut dag1, &msg);
            assert!(fx.delivered.is_empty() && fx.send.is_empty());
            assert_eq!(ops, 0, "a buffered vertex is not verified again: {msg:?}");
        }
        assert_eq!(rbc1.pending_len(), 1);
        // A new vertex under a forged certificate is still refused.
        let stranger = Arc::new(make_vertex(&c, 1, 2, parents));
        let mut acks = certify(&c, &stranger).acks().to_vec();
        acks[2].1 = c.keypair(ValidatorId(3)).sign(ACK_CONTEXT, stranger.digest().as_bytes());
        let forged = Certificate::new(stranger.reference(), acks);
        let (fx, _) =
            sig_ops(&mut rbc1, &mut dag1, &RbcMessage::Certified(stranger.clone(), forged));
        assert!(fx.delivered.is_empty());
        assert!(dag1.get(stranger.round(), &stranger.digest()).is_none());
        let (fx, _) = sig_ops(&mut rbc1, &mut dag1, &certified(&stranger));
        assert_eq!(fx.delivered.len(), 1, "the genuine certificate is taken");
    }

    #[test]
    fn certified_flow_produces_certificate() {
        let c = committee4();
        let (mut rbc0, mut dag0) = node(&c, 0, BroadcastMode::Certified);
        let v = make_vertex(&c, 0, 0, vec![]);
        let fx = rbc0.broadcast_own(v.clone(), &mut dag0);
        // Not yet certified: only a proposal went out.
        assert!(fx.delivered.is_empty());
        assert!(matches!(&fx.broadcast[..], [RbcMessage::Propose(_)]));

        // Voters 1 and 2 ack.
        let mut acks = Vec::new();
        for i in 1..=2u16 {
            let (mut rbc_i, mut dag_i) = node(&c, i, BroadcastMode::Certified);
            let fx_i = rbc_i.handle(ValidatorId(0), &fx.broadcast[0], &mut dag_i);
            assert_eq!(fx_i.send.len(), 1);
            acks.push(fx_i.send[0].1.clone());
        }

        // First ack: still below quorum (self + 1 = 2 < 3).
        let fx1 = rbc0.handle(ValidatorId(1), &acks[0], &mut dag0);
        assert!(fx1.delivered.is_empty());
        // Second ack: quorum reached; vertex delivered + Certified broadcast.
        let fx2 = rbc0.handle(ValidatorId(2), &acks[1], &mut dag0);
        assert_eq!(fx2.delivered.len(), 1);
        let certified = fx2
            .broadcast
            .iter()
            .find(|m| matches!(m, RbcMessage::Certified(_, _)))
            .expect("certified broadcast");

        // A fourth node accepts the certified vertex directly.
        let (mut rbc3, mut dag3) = node(&c, 3, BroadcastMode::Certified);
        let fx3 = rbc3.handle(ValidatorId(0), certified, &mut dag3);
        assert_eq!(fx3.delivered.len(), 1);
        assert!(dag3.get(v.round(), &v.digest()).is_some());
    }

    #[test]
    fn certified_mode_blocks_equivocation() {
        let c = committee4();
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::Certified);
        let v_a = make_vertex(&c, 0, 0, vec![]);
        let v_b = Vertex::new(
            Round(0),
            ValidatorId(0),
            Block::new(vec![hh_types::Transaction::new(9, 9, 9)]),
            vec![],
            &c.keypair(ValidatorId(0)),
        );
        assert_ne!(v_a.digest(), v_b.digest());

        let fx_a =
            rbc1.handle(ValidatorId(0), &RbcMessage::Propose(Arc::new(v_a.clone())), &mut dag1);
        assert_eq!(fx_a.send.len(), 1, "first header acked");
        let fx_b =
            rbc1.handle(ValidatorId(0), &RbcMessage::Propose(Arc::new(v_b.clone())), &mut dag1);
        assert!(fx_b.send.is_empty(), "second distinct header refused");
        assert_eq!(rbc1.equivocation_attempts(), 1);
        // The refusal carries evidence naming both headers.
        assert_eq!(
            fx_b.evidence,
            vec![EquivocationEvidence {
                round: Round(0),
                author: ValidatorId(0),
                stored: v_a.digest(),
                offending: v_b.digest(),
            }]
        );
        // Re-proposing the same first header is fine (retransmission).
        let fx_a2 = rbc1.handle(ValidatorId(0), &RbcMessage::Propose(Arc::new(v_a)), &mut dag1);
        assert_eq!(fx_a2.send.len(), 1);
        assert!(fx_a2.evidence.is_empty());
    }

    #[test]
    fn best_effort_twin_push_surfaces_evidence() {
        let c = committee4();
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::BestEffort);
        let v_a = make_vertex(&c, 0, 0, vec![]);
        let v_b = Vertex::new(
            Round(0),
            ValidatorId(0),
            Block::new(vec![hh_types::Transaction::new(9, 9, 9)]),
            vec![],
            &c.keypair(ValidatorId(0)),
        );
        let fx_a =
            rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(v_a.clone())), &mut dag1);
        assert_eq!(fx_a.delivered.len(), 1);
        assert!(fx_a.evidence.is_empty());
        // A twin push is rejected by the DAG and surfaced as evidence —
        // every time it is retransmitted (deduplication is the ledger's job).
        for _ in 0..2 {
            let fx_b =
                rbc1.handle(ValidatorId(2), &RbcMessage::Vertex(Arc::new(v_b.clone())), &mut dag1);
            assert!(fx_b.delivered.is_empty());
            assert_eq!(
                fx_b.evidence,
                vec![EquivocationEvidence {
                    round: Round(0),
                    author: ValidatorId(0),
                    stored: v_a.digest(),
                    offending: v_b.digest(),
                }]
            );
        }
    }

    #[test]
    fn uncertified_vertex_push_ignored_in_certified_mode() {
        let c = committee4();
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::Certified);
        let v = make_vertex(&c, 0, 0, vec![]);
        let fx = rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(v)), &mut dag1);
        assert!(fx.delivered.is_empty());
        assert!(dag1.is_empty());
    }

    #[test]
    fn forged_ack_ignored() {
        let c = committee4();
        let (mut rbc0, mut dag0) = node(&c, 0, BroadcastMode::Certified);
        let v = make_vertex(&c, 0, 0, vec![]);
        rbc0.broadcast_own(v.clone(), &mut dag0);
        // Ack "from v1" signed by v3's key.
        let bad_sig = c.keypair(ValidatorId(3)).sign(ACK_CONTEXT, v.digest().as_bytes());
        let fx = rbc0.handle(
            ValidatorId(1),
            &RbcMessage::Ack { vertex: v.reference(), sig: bad_sig },
            &mut dag0,
        );
        assert!(fx.delivered.is_empty());
        // Legit acks from v1 and v2 still certify (forgery left no trace).
        for i in 1..=2u16 {
            let sig = c.keypair(ValidatorId(i)).sign(ACK_CONTEXT, v.digest().as_bytes());
            rbc0.handle(ValidatorId(i), &RbcMessage::Ack { vertex: v.reference(), sig }, &mut dag0);
        }
        assert!(dag0.get(v.round(), &v.digest()).is_some());
    }

    #[test]
    fn integrity_no_double_delivery() {
        let c = committee4();
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::BestEffort);
        let v = make_vertex(&c, 0, 0, vec![]);
        let fx1 = rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(v.clone())), &mut dag1);
        let fx2 = rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(v.clone())), &mut dag1);
        assert_eq!(fx1.delivered.len(), 1);
        assert!(fx2.delivered.is_empty(), "duplicate push must not re-deliver");
    }

    #[test]
    fn tick_rerequests_missing_from_rotating_peers() {
        let c = committee4();
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::BestEffort);
        let genesis: Vec<Vertex> = (0..4).map(|i| make_vertex(&c, 0, i, vec![])).collect();
        let parents: Vec<Digest> = genesis.iter().map(|v| v.digest()).collect();
        let child = make_vertex(&c, 1, 0, parents);
        rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(child)), &mut dag1);

        let mut peers = std::collections::HashSet::new();
        for _ in 0..6 {
            let fx = rbc1.tick(&dag1);
            for (peer, msg) in fx.send {
                assert_ne!(peer, ValidatorId(1), "never sync from self");
                match msg {
                    RbcMessage::SyncRequest(_) => {
                        peers.insert(peer);
                    }
                    // The front never advances here, so stall-recovery
                    // pulls ride along; they have their own test.
                    RbcMessage::RangeRequest { .. } => {}
                    _ => panic!("unexpected tick message"),
                }
            }
        }
        assert!(peers.len() > 1, "targets rotate: {peers:?}");
    }

    #[test]
    fn stalled_front_pulls_whole_rounds_with_backoff() {
        let c = committee4();
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::BestEffort);
        // Quiet before the stall threshold: a healthy network never sees
        // this path, which is what keeps existing runs bit-identical.
        for _ in 0..STALL_PULL_AFTER_TICKS - 1 {
            let fx = rbc1.tick(&dag1);
            assert!(fx.send.is_empty() && fx.broadcast.is_empty(), "quiet before the threshold");
        }
        // Then pulls fire: rotating targets, exponential backoff.
        let mut pulls = 0u64;
        let mut peers = std::collections::HashSet::new();
        for _ in 0..30 {
            let fx = rbc1.tick(&dag1);
            for (peer, msg) in fx.send {
                assert!(matches!(msg, RbcMessage::RangeRequest { .. }));
                assert_ne!(peer, ValidatorId(1), "never pull from self");
                peers.insert(peer);
                pulls += 1;
            }
        }
        assert_eq!(pulls, rbc1.stall_pulls());
        assert!((4..=10).contains(&pulls), "backed off, not storming: {pulls}");
        assert!(peers.len() > 1, "targets rotate: {peers:?}");

        // Progress resets the stall machinery.
        let genesis: Vec<Vertex> = (0..4).map(|i| make_vertex(&c, 0, i, vec![])).collect();
        let parents: Vec<Digest> = genesis.iter().map(|v| v.digest()).collect();
        for g in &genesis {
            rbc1.handle(g.author(), &RbcMessage::Vertex(Arc::new(g.clone())), &mut dag1);
        }
        let child = make_vertex(&c, 1, 0, parents);
        rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(child)), &mut dag1);
        let fx = rbc1.tick(&dag1);
        assert!(fx.send.is_empty(), "fresh progress silences the stall path");
    }

    #[test]
    fn tick_rebroadcasts_uncertified_proposals() {
        let c = committee4();
        let (mut rbc0, mut dag0) = node(&c, 0, BroadcastMode::Certified);
        let v = make_vertex(&c, 0, 0, vec![]);
        rbc0.broadcast_own(v.clone(), &mut dag0);
        let fx = rbc0.tick(&dag0);
        assert!(
            fx.broadcast.iter().any(|m| matches!(m, RbcMessage::Propose(_))),
            "uncertified proposal re-broadcast"
        );
        // Certify it; tick stops re-broadcasting.
        for i in 1..=2u16 {
            let sig = c.keypair(ValidatorId(i)).sign(ACK_CONTEXT, v.digest().as_bytes());
            rbc0.handle(ValidatorId(i), &RbcMessage::Ack { vertex: v.reference(), sig }, &mut dag0);
        }
        let fx = rbc0.tick(&dag0);
        assert!(!fx.broadcast.iter().any(|m| matches!(m, RbcMessage::Propose(_))));
    }

    #[test]
    fn backoff_keeps_every_tick_prefix_then_doubles_to_cap() {
        // The first two retries keep the historical every-tick cadence —
        // healthy runs must be byte-identical to the fixed-cadence code.
        assert_eq!(backoff_ticks(1), 1);
        assert_eq!(backoff_ticks(2), 1);
        // Then the gap doubles…
        assert_eq!(backoff_ticks(3), 2);
        assert_eq!(backoff_ticks(4), 4);
        // …and saturates at the cap.
        assert_eq!(backoff_ticks(5), 8);
        assert_eq!(backoff_ticks(6), 8);
        assert_eq!(backoff_ticks(1000), 8);
    }

    #[test]
    fn jitter_is_zero_in_the_prefix_and_bounded_after() {
        let d = hh_crypto::sha256(b"jitter");
        assert_eq!(jitter_ticks(&d, 1, backoff_ticks(1)), 0);
        assert_eq!(jitter_ticks(&d, 2, backoff_ticks(2)), 0);
        for attempts in 3..20u32 {
            let delay = backoff_ticks(attempts);
            let j = jitter_ticks(&d, attempts, delay);
            assert!(j <= delay / 2, "jitter {j} exceeds half the delay {delay}");
        }
        // Different digests spread out (not all zero).
        let spread: std::collections::HashSet<u64> = (0..64u8)
            .map(|i| jitter_ticks(&hh_crypto::sha256(&[i]), 5, backoff_ticks(5)))
            .collect();
        assert!(spread.len() > 1, "jitter must vary by digest");
    }

    #[test]
    fn persistent_loss_backs_off_instead_of_storming() {
        // One digest stays missing for 40 ticks (nobody ever answers —
        // total loss). The fixed-cadence code sent 40 re-requests; the
        // backoff must stay within a small constant of the no-loss cost.
        let c = committee4();
        let (mut rbc1, dag1) = node(&c, 1, BroadcastMode::BestEffort);
        let genesis: Vec<Vertex> = (0..4).map(|i| make_vertex(&c, 0, i, vec![])).collect();
        let parents: Vec<Digest> = genesis.iter().map(|v| v.digest()).collect();
        let child = make_vertex(&c, 1, 0, parents);
        let mut dag1 = dag1;
        rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(child)), &mut dag1);

        let mut sent = 0usize;
        for _ in 0..40 {
            let fx = rbc1.tick(&dag1);
            for (_, msg) in fx.send {
                if let RbcMessage::SyncRequest(ds) = msg {
                    sent += ds.len();
                }
            }
        }
        // 4 missing parents, each re-requested on the backoff schedule:
        // ticks 1,2,3,~5,~9,~17,~25,~33 ⇒ ~8 apiece, far below 40.
        let per_digest = rbc1.sync_retransmits() as f64 / 4.0;
        assert!(per_digest <= 12.0, "retry storm: {per_digest} re-requests per digest");
        assert!(per_digest >= 5.0, "backoff must keep retrying: {per_digest}");
        assert_eq!(sent as u64, rbc1.sync_retransmits(), "counter matches the wire");
    }

    #[test]
    fn arrival_resets_the_backoff() {
        // After the missing digest arrives, `awaited` forgets it; if
        // it ever goes missing again the schedule restarts from attempt
        // one (reset-on-ack).
        let c = committee4();
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::BestEffort);
        let genesis: Vec<Vertex> = (0..4).map(|i| make_vertex(&c, 0, i, vec![])).collect();
        let parents: Vec<Digest> = genesis.iter().map(|v| v.digest()).collect();
        let child = make_vertex(&c, 1, 0, parents);
        rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(child)), &mut dag1);
        for _ in 0..10 {
            rbc1.tick(&dag1);
        }
        let attempts = |a: &Awaited| a.retry.map_or(0, |s| s.attempts);
        assert!(rbc1.awaited.values().any(|a| attempts(a) >= 3), "deep into backoff");
        for g in &genesis {
            rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(g.clone())), &mut dag1);
        }
        assert!(rbc1.awaited.is_empty(), "arrival clears retransmit state");
        let before = rbc1.sync_retransmits();
        rbc1.tick(&dag1);
        assert_eq!(rbc1.sync_retransmits(), before, "nothing left to retransmit");
    }

    /// How many digests `fx` asks peers for by name.
    fn digests_requested(fx: &RbcEffects) -> Vec<Digest> {
        fx.send
            .iter()
            .filter_map(|(_, m)| match m {
                RbcMessage::SyncRequest(digests) => Some(digests.clone()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn pruned_child_stops_the_requests_for_its_parents() {
        // A buffered child falls below the GC horizon and is pruned: its
        // parents are wanted by nobody, so nothing may ask for them again
        // (the retry state used to outlive the child, for ever).
        let c = committee4();
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::BestEffort);
        let parents: Vec<Digest> = (0..4).map(|i| make_vertex(&c, 0, i, vec![]).digest()).collect();
        let child = make_vertex(&c, 1, 0, parents);
        let fx = rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(child)), &mut dag1);
        assert_eq!(digests_requested(&fx).len(), 4);

        dag1.gc(Round(5));
        rbc1.tick(&dag1);
        assert_eq!(rbc1.pending_len(), 0, "the tick pruned the child");
        let asked: usize = (0..40).map(|_| digests_requested(&rbc1.tick(&dag1)).len()).sum();
        assert_eq!(asked, 0, "requests for the parents of a pruned vertex");
        assert!(rbc1.awaited.is_empty());
    }

    #[test]
    fn duplicate_at_the_cap_evicts_nothing() {
        // A full buffer sheds its lowest round to admit a *new* vertex; a
        // retransmit of one it already holds must cost nobody their place.
        let c = committee4();
        let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::BestEffort);
        let buffered: Vec<Arc<Vertex>> = (0..PENDING_CAP as u64)
            .map(|i| {
                let unknown_parent = hh_crypto::sha256(&i.to_le_bytes());
                Arc::new(make_vertex(&c, 1 + i / 4, (i % 4) as u16, vec![unknown_parent]))
            })
            .collect();
        for v in &buffered {
            rbc1.handle(v.author(), &RbcMessage::Vertex(v.clone()), &mut dag1);
        }
        assert_eq!(rbc1.pending_len(), PENDING_CAP);
        let again = buffered.last().expect("non-empty").clone();
        rbc1.handle(again.author(), &RbcMessage::Vertex(again), &mut dag1);
        assert_eq!(rbc1.pending_len(), PENDING_CAP, "the duplicate evicted a buffered vertex");
        // A new vertex does take the place of the lowest round.
        let newcomer = make_vertex(&c, 9_999, 0, vec![hh_crypto::sha256(b"newcomer")]);
        rbc1.handle(ValidatorId(0), &RbcMessage::Vertex(Arc::new(newcomer)), &mut dag1);
        assert_eq!(rbc1.pending_len(), PENDING_CAP);
        assert_eq!(rbc1.pending.values().filter(|b| b.vertex.round() == Round(1)).count(), 3);
    }

    /// The two maps describe each other: every awaited digest is missing
    /// from the DAG, has waiters and is either asked for or buffered itself;
    /// every waiter is buffered and counts exactly the lists that name it.
    /// (A list naming a stored vertex from the wrong round breaks the first
    /// clause until the one sync round trip that drops its vertex.)
    fn assert_buffer_consistent(rbc: &Rbc, dag: &Dag) {
        let awaited_digests = rbc.awaited.keys().copied().collect();
        assert!(dag.find_all(&awaited_digests).is_empty(), "awaiting a vertex the DAG holds");
        let mut named: std::collections::HashMap<Digest, usize> = Default::default();
        for (digest, awaited) in rbc.awaited.iter() {
            assert!(!awaited.waiters.is_empty(), "awaited by nobody");
            assert!(awaited.retry.is_some() || rbc.pending.contains_key(digest), "nobody asks");
            for waiter in &awaited.waiters {
                assert!(rbc.pending[waiter].vertex.parents().contains(digest));
                *named.entry(*waiter).or_default() += 1;
            }
        }
        for (digest, buffered) in rbc.pending.iter() {
            assert_eq!(named.get(digest).copied().unwrap_or(0), buffered.missing);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random arrival orders with losses (a vertex may never be picked),
        /// duplicates, GC advances and ticks: a tick only ever asks for a
        /// digest that a vertex buffered at that moment names as a parent.
        #[test]
        fn tick_only_names_digests_a_buffered_vertex_waits_on(
            ops in proptest::collection::vec(proptest::any::<u64>(), 20..160),
        ) {
            let c = committee4();
            let mut source = Dag::new(c.clone());
            fill_rounds(&c, &mut source, 8);
            let all: Vec<Arc<Vertex>> =
                (0..8).flat_map(|r| source.round_vertices(Round(r)).cloned()).collect();
            let (mut rbc1, mut dag1) = node(&c, 1, BroadcastMode::BestEffort);
            for op in ops {
                match op % 8 {
                    0 => dag1.gc(Round(dag1.gc_round().0 + 1)),
                    1 | 2 => {
                        let waited_on: std::collections::HashSet<Digest> = rbc1
                            .pending
                            .values()
                            .flat_map(|b| b.vertex.parents().iter().copied())
                            .collect();
                        let requested = digests_requested(&rbc1.tick(&dag1));
                        for digest in &requested {
                            proptest::prop_assert!(waited_on.contains(digest), "nobody waits on it");
                        }
                        let requested = requested.into_iter().collect();
                        proptest::prop_assert!(dag1.find_all(&requested).is_empty());
                    }
                    _ => {
                        let v = all[(op >> 8) as usize % all.len()].clone();
                        rbc1.handle(v.author(), &RbcMessage::Vertex(v), &mut dag1);
                    }
                }
                assert_buffer_consistent(&rbc1, &dag1);
            }
        }
    }

    #[test]
    fn proposal_rebroadcast_backs_off_until_certified() {
        let c = committee4();
        let (mut rbc0, mut dag0) = node(&c, 0, BroadcastMode::Certified);
        let v = make_vertex(&c, 0, 0, vec![]);
        rbc0.broadcast_own(v.clone(), &mut dag0);
        let mut per_tick = Vec::new();
        for _ in 0..20 {
            let fx = rbc0.tick(&dag0);
            per_tick
                .push(fx.broadcast.iter().filter(|m| matches!(m, RbcMessage::Propose(_))).count());
        }
        let total: usize = per_tick.iter().sum();
        assert_eq!(per_tick[0], 1, "first tick still rebroadcasts immediately");
        assert!(total < 10, "20 ticks must not rebroadcast 20 times: {total}");
        assert_eq!(total as u64, rbc0.proposal_rebroadcasts());
        assert!(rbc0.retransmits() >= rbc0.proposal_rebroadcasts());
    }

    #[test]
    fn rbc_messages_roundtrip_on_the_wire() {
        use hh_types::codec::{decode_framed, encode_framed};
        let c = committee4();
        let v = make_vertex(&c, 3, 2, vec![hh_crypto::sha256(b"p")]);
        let sig = c.keypair(ValidatorId(1)).sign(ACK_CONTEXT, v.digest().as_bytes());
        let cert = Certificate::new(
            v.reference(),
            (0..3u16)
                .map(|i| {
                    let kp = c.keypair(ValidatorId(i));
                    (ValidatorId(i), kp.sign(ACK_CONTEXT, v.digest().as_bytes()))
                })
                .collect(),
        );
        let messages = vec![
            RbcMessage::Vertex(Arc::new(v.clone())),
            RbcMessage::Propose(Arc::new(v.clone())),
            RbcMessage::Ack { vertex: v.reference(), sig },
            RbcMessage::Certified(Arc::new(v.clone()), cert.clone()),
            RbcMessage::SyncRequest(vec![hh_crypto::sha256(b"a"), hh_crypto::sha256(b"b")]),
            RbcMessage::RangeRequest { from: Round(17) },
            RbcMessage::SyncResponse(vec![
                (Arc::new(v.clone()), Some(cert)),
                (Arc::new(v.clone()), None),
            ]),
        ];
        for msg in messages {
            let frame = encode_framed(&msg);
            let back: RbcMessage = decode_framed(&frame).expect("roundtrip");
            // RbcMessage has no PartialEq (Vertex caches digests); compare
            // re-encodings instead.
            assert_eq!(encode_framed(&back), frame, "lossless roundtrip for {msg:?}");
        }
        // A truncated or tag-mangled frame dies at decode.
        let mut frame = encode_framed(&RbcMessage::RangeRequest { from: Round(1) });
        frame[0] = 99;
        assert!(decode_framed::<RbcMessage>(&frame).is_err());
    }

    #[test]
    fn late_ack_after_certification_ignored() {
        let c = committee4();
        let (mut rbc0, mut dag0) = node(&c, 0, BroadcastMode::Certified);
        let v = make_vertex(&c, 0, 0, vec![]);
        rbc0.broadcast_own(v.clone(), &mut dag0);
        for i in 1..=2u16 {
            let sig = c.keypair(ValidatorId(i)).sign(ACK_CONTEXT, v.digest().as_bytes());
            rbc0.handle(ValidatorId(i), &RbcMessage::Ack { vertex: v.reference(), sig }, &mut dag0);
        }
        let sig3 = c.keypair(ValidatorId(3)).sign(ACK_CONTEXT, v.digest().as_bytes());
        let fx = rbc0.handle(
            ValidatorId(3),
            &RbcMessage::Ack { vertex: v.reference(), sig: sig3 },
            &mut dag0,
        );
        assert!(fx.delivered.is_empty());
        assert!(fx.broadcast.is_empty());
    }
}
