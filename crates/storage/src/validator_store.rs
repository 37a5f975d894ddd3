//! Typed persistence for a validator: vertices, commit checkpoints and
//! its own certified-mode proposals.

use crate::backend::LogBackend;
use crate::wal::{Wal, WalError};
use hh_crypto::Digest;
use hh_types::codec::{decode_from_slice, encode_to_vec, Decoder, Encode, EncodeExt};
use hh_types::{TypeError, Vertex};

/// A record in the validator's durable log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreRecord {
    /// A vertex delivered by the broadcast layer.
    Vertex(Vertex),
    /// A commit checkpoint: `(commit_index, chain_hash)`. Written
    /// periodically so recovery can cross-check the recomputed commit
    /// sequence against what this validator had observed before crashing.
    CommitCheckpoint {
        /// Index of the last commit covered by this checkpoint.
        commit_index: u64,
        /// The engine's commit chain hash at that point.
        chain_hash: Digest,
    },
    /// This validator's own proposal, written before its acks are asked
    /// for (certified mode), so a restart proposes that vertex again
    /// instead of a second one for its round.
    Proposal(Vertex),
}

impl Encode for StoreRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StoreRecord::Vertex(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
            StoreRecord::CommitCheckpoint { commit_index, chain_hash } => {
                buf.put_u8(2);
                buf.put_u64(*commit_index);
                chain_hash.encode(buf);
            }
            StoreRecord::Proposal(v) => {
                buf.put_u8(3);
                v.encode(buf);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        match d.take_u8()? {
            1 => Ok(StoreRecord::Vertex(Vertex::decode(d)?)),
            2 => Ok(StoreRecord::CommitCheckpoint {
                commit_index: d.take_u64()?,
                chain_hash: Digest::decode(d)?,
            }),
            3 => Ok(StoreRecord::Proposal(Vertex::decode(d)?)),
            _ => Err(TypeError::Decode("unknown store record tag")),
        }
    }
}

/// Everything recovered from a validator's log.
#[derive(Clone, Debug, Default)]
pub struct RecoveredState {
    /// Unique vertices in insertion-safe order (ascending round; parents
    /// always precede children because delivery respects causality and
    /// recovery re-sorts by round).
    pub vertices: Vec<Vertex>,
    /// The latest commit checkpoint, if any.
    pub last_checkpoint: Option<(u64, Digest)>,
    /// The newest own proposal, if any (certified mode).
    pub proposal: Option<Vertex>,
}

/// The durable log a validator appends to as it runs.
///
/// Recovery strategy (used by `hammerhead::Validator::on_restart`): replay
/// vertices into a fresh DAG and a fresh consensus engine in round order.
/// Commits are *recomputed*, not trusted from disk; the checkpoint is a
/// cross-check that the recovered sequence extends the pre-crash one.
#[derive(Debug)]
pub struct ValidatorStore<B: LogBackend> {
    wal: Wal<B>,
    /// Reused encode buffer: persisting a vertex is once-per-delivery on
    /// the simulator's hot path, so the record is serialized in place
    /// rather than through a fresh allocation per append.
    scratch: Vec<u8>,
}

impl<B: LogBackend> ValidatorStore<B> {
    /// Opens the store over `backend`.
    pub fn new(backend: B) -> Self {
        ValidatorStore { wal: Wal::new(backend), scratch: Vec::new() }
    }

    /// Persists a delivered vertex.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the medium rejects the append, and
    /// [`WalError::RecordTooLarge`] for a vertex whose record the log
    /// could not replay (see [`crate::MAX_RECORD_LEN`]).
    pub fn persist_vertex(&mut self, vertex: &Vertex) -> Result<(), WalError> {
        self.append_vertex(1, vertex)
    }

    /// Persists this validator's own proposal ([`StoreRecord::Proposal`]).
    ///
    /// # Errors
    ///
    /// As [`ValidatorStore::persist_vertex`].
    pub fn persist_proposal(&mut self, vertex: &Vertex) -> Result<(), WalError> {
        self.append_vertex(3, vertex)
    }

    fn append_vertex(&mut self, tag: u8, vertex: &Vertex) -> Result<(), WalError> {
        // Byte-for-byte the encoding of the `tag`'s record, written without
        // cloning the vertex into a temporary record.
        self.scratch.clear();
        self.scratch.put_u8(tag);
        vertex.encode(&mut self.scratch);
        self.wal.append(&self.scratch)
    }

    /// Persists a commit checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the medium rejects the append.
    pub fn persist_checkpoint(
        &mut self,
        commit_index: u64,
        chain_hash: Digest,
    ) -> Result<(), WalError> {
        self.wal.append(&encode_to_vec(&StoreRecord::CommitCheckpoint { commit_index, chain_hash }))
    }

    /// Forces everything appended so far to durable storage — the
    /// graceful-shutdown flush.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the medium cannot sync.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.wal.sync()
    }

    /// Replays the log into a [`RecoveredState`].
    ///
    /// Duplicate vertices (possible if a crash interrupted between delivery
    /// and dedup) are dropped; vertices are returned in ascending
    /// `(round, author)` order so they can be re-inserted directly.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the medium cannot be read. Undecodable
    /// records (torn writes already excluded by the WAL) are skipped.
    pub fn recover(&mut self) -> Result<RecoveredState, WalError> {
        let mut state = RecoveredState::default();
        let mut seen = std::collections::HashSet::new();
        for raw in self.wal.replay()? {
            match decode_from_slice::<StoreRecord>(&raw) {
                Ok(StoreRecord::Vertex(v)) => {
                    if seen.insert(v.digest()) {
                        state.vertices.push(v);
                    }
                }
                Ok(StoreRecord::CommitCheckpoint { commit_index, chain_hash }) => {
                    state.last_checkpoint = Some((commit_index, chain_hash));
                }
                Ok(StoreRecord::Proposal(v)) => state.proposal = Some(v),
                Err(_) => {}
            }
        }
        state.vertices.sort_by_key(|v| (v.round(), v.author()));
        Ok(state)
    }

    /// Size of the underlying log in bytes.
    pub fn size_bytes(&self) -> usize {
        self.wal.size_bytes()
    }

    /// Borrows the backend (to clone a [`crate::MemBackend`] handle).
    pub fn backend(&self) -> &B {
        self.wal.backend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use hh_types::{Block, Committee, Round, ValidatorId};

    fn vertex(c: &Committee, round: u64, author: u16, parents: Vec<Digest>) -> Vertex {
        Vertex::new(
            Round(round),
            ValidatorId(author),
            Block::empty(),
            parents,
            &c.keypair(ValidatorId(author)),
        )
    }

    #[test]
    fn vertices_roundtrip_in_round_order() {
        let c = Committee::new_equal_stake(4);
        let backend = MemBackend::new();
        let mut store = ValidatorStore::new(backend.clone());

        let genesis: Vec<Vertex> = (0..4).map(|i| vertex(&c, 0, i, vec![])).collect();
        let parents: Vec<Digest> = genesis.iter().map(|v| v.digest()).collect();
        let child = vertex(&c, 1, 0, parents);

        // Persist child first: recovery must still order by round.
        store.persist_vertex(&child).unwrap();
        for g in &genesis {
            store.persist_vertex(g).unwrap();
        }

        let recovered = ValidatorStore::new(backend).recover().unwrap();
        assert_eq!(recovered.vertices.len(), 5);
        assert_eq!(recovered.vertices.last().unwrap().digest(), child.digest());
        let rounds: Vec<u64> = recovered.vertices.iter().map(|v| v.round().0).collect();
        assert_eq!(rounds, vec![0, 0, 0, 0, 1]);
    }

    #[test]
    fn duplicates_deduplicated() {
        let c = Committee::new_equal_stake(4);
        let backend = MemBackend::new();
        let mut store = ValidatorStore::new(backend.clone());
        let v = vertex(&c, 0, 0, vec![]);
        store.persist_vertex(&v).unwrap();
        store.persist_vertex(&v).unwrap();
        let recovered = ValidatorStore::new(backend).recover().unwrap();
        assert_eq!(recovered.vertices.len(), 1);
    }

    #[test]
    fn latest_checkpoint_wins() {
        let backend = MemBackend::new();
        let mut store = ValidatorStore::new(backend.clone());
        store.persist_checkpoint(3, hh_crypto::sha256(b"a")).unwrap();
        store.persist_checkpoint(7, hh_crypto::sha256(b"b")).unwrap();
        let recovered = ValidatorStore::new(backend).recover().unwrap();
        assert_eq!(recovered.last_checkpoint, Some((7, hh_crypto::sha256(b"b"))));
    }

    #[test]
    fn newest_proposal_wins_and_is_no_delivered_vertex() {
        let c = Committee::new_equal_stake(4);
        let backend = MemBackend::new();
        let mut store = ValidatorStore::new(backend.clone());
        let r0 = vertex(&c, 0, 0, vec![]);
        let r1 = vertex(&c, 1, 0, vec![r0.digest()]);
        store.persist_proposal(&r0).unwrap();
        store.persist_vertex(&r0).unwrap();
        store.persist_proposal(&r1).unwrap();
        let recovered = ValidatorStore::new(backend).recover().unwrap();
        assert_eq!(recovered.proposal, Some(r1));
        assert_eq!(recovered.vertices, [r0]);
    }

    #[test]
    fn torn_tail_preserves_prefix() {
        let c = Committee::new_equal_stake(4);
        let backend = MemBackend::new();
        let mut store = ValidatorStore::new(backend.clone());
        store.persist_vertex(&vertex(&c, 0, 0, vec![])).unwrap();
        store.persist_vertex(&vertex(&c, 0, 1, vec![])).unwrap();
        backend.truncate(backend.read_all().unwrap().len() - 5);
        let recovered = ValidatorStore::new(backend).recover().unwrap();
        assert_eq!(recovered.vertices.len(), 1);
        assert_eq!(recovered.vertices[0].author(), ValidatorId(0));
    }

    #[test]
    fn an_append_writes_the_records_encoding() {
        // A fresh vertex carrying a block, and a clone of it: each logged
        // record is `encode_to_vec` of its `StoreRecord`, and the log's
        // bytes are those the store has always written.
        let c = Committee::new_equal_stake(4);
        let txs = vec![hh_types::Transaction::new(1, 2, 3), hh_types::Transaction::new(4, 5, 6)];
        let (id, parents) = (ValidatorId(1), vec![hh_crypto::sha256(b"p")]);
        let fresh = Vertex::new(Round(1), id, Block::new(txs), parents, &c.keypair(id));
        let cloned = fresh.clone();
        let backend = MemBackend::new();
        let mut store = ValidatorStore::new(backend.clone());
        store.persist_vertex(&fresh).unwrap();
        store.persist_proposal(&fresh).unwrap();
        store.persist_vertex(&cloned).unwrap();
        let expected = [
            StoreRecord::Vertex(fresh.clone()),
            StoreRecord::Proposal(fresh),
            StoreRecord::Vertex(cloned),
        ]
        .map(|r| encode_to_vec(&r));
        assert_eq!(Wal::new(backend.clone()).replay().unwrap(), expected);
        assert_eq!(
            hh_crypto::sha256(&backend.read_all().unwrap()).to_hex(),
            "0479e14b773509fbbcb572359e2e4353c7f7c8874d2b7ff7710570e9b5d9d392"
        );
    }

    #[test]
    fn empty_store_recovers_empty() {
        let recovered = ValidatorStore::new(MemBackend::new()).recover().unwrap();
        assert!(recovered.vertices.is_empty());
        assert!(recovered.last_checkpoint.is_none());
    }
}
