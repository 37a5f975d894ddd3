//! Rounds, blocks and DAG vertices.
//!
//! A [`Vertex`] is the paper's Algorithm 1 `struct vertex`: the round it
//! belongs to, the party that broadcast it (`source`), a block of
//! transactions, and edges to at least quorum-stake vertices of the previous
//! round. Vertices are content-addressed by a SHA-256 [`Digest`] over their
//! canonical encoding and signed by their author.

use crate::codec::{encode_slice, Decoder, Encode};
use crate::{AuthorMask, Transaction, TypeError, ValidatorId};
use hh_crypto::prof::{self, Site};
use hh_crypto::{Digest, Keypair, PublicKey, Sha256, Signature};
use std::fmt;
use std::sync::Arc;

/// Domain-separation context for vertex signatures.
const VERTEX_CONTEXT: &[u8] = b"hammerhead-vertex-v1";

/// A DAG round number. Round 0 holds the parentless genesis vertices.
/// Every round has a leader; which rounds hold anchor candidates is the
/// commit engine's state (`hh_consensus::Bullshark::is_candidate_round`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Round(pub u64);

impl Round {
    /// Whether the round number is even.
    pub fn is_even(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// The next round.
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// The previous round; saturates at 0.
    pub fn prev(self) -> Round {
        Round(self.0.saturating_sub(1))
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::ops::Add<u64> for Round {
    type Output = Round;
    fn add(self, rhs: u64) -> Round {
        Round(self.0 + rhs)
    }
}

impl std::ops::Sub<u64> for Round {
    type Output = Round;
    fn sub(self, rhs: u64) -> Round {
        Round(self.0.saturating_sub(rhs))
    }
}

/// A block of transactions carried by a vertex.
///
/// The transactions sit in one exact allocation. Broadcast fan-out shares
/// the `Arc<Vertex>` that holds the block, so a block is not shared on its
/// own: `clone` is a deep copy, which a run makes only in
/// [`Vertex::clone`] (chaos corruption, recovery replay).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Block {
    transactions: Box<[Transaction]>,
}

impl Block {
    /// An empty block.
    pub fn empty() -> Self {
        Block::default()
    }

    /// Wraps transactions into a block.
    pub fn new(transactions: Vec<Transaction>) -> Self {
        Block { transactions: transactions.into_boxed_slice() }
    }

    /// The carried transactions.
    pub fn transactions(&self) -> &[Transaction] {
        &self.transactions
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// Whether the block carries no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }
}

impl Encode for Block {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_slice(&self.transactions, buf);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok(Block::new(Vec::<Transaction>::decode(d)?))
    }
}

/// A compact reference to a vertex: `(round, author, digest)`.
///
/// Used in sync requests and as the stable identity of committed anchors.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VertexRef {
    /// The referenced vertex's round.
    pub round: Round,
    /// The referenced vertex's author.
    pub author: ValidatorId,
    /// The referenced vertex's content digest.
    pub digest: Digest,
}

impl fmt::Display for VertexRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@r{}({})", self.author, self.round, self.digest)
    }
}

impl Encode for VertexRef {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.round.encode(buf);
        self.author.encode(buf);
        self.digest.encode(buf);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok(VertexRef {
            round: Round::decode(d)?,
            author: ValidatorId::decode(d)?,
            digest: Digest::decode(d)?,
        })
    }
}

/// A vertex in the DAG (Algorithm 1's `struct vertex`).
///
/// Construction goes through [`Vertex::new`], which computes the content
/// digest and author signature; the fields are immutable afterwards so the
/// digest can never go stale.
///
/// ```
/// use hh_types::{Block, Round, Vertex, ValidatorId};
/// use hh_crypto::Keypair;
///
/// let kp = Keypair::from_seed(0);
/// let genesis = Vertex::new(Round(0), ValidatorId(0), Block::empty(), vec![], &kp);
/// assert!(genesis.verify(&kp.public()));
/// assert_eq!(genesis.parents().len(), 0);
/// ```
#[derive(Debug)]
pub struct Vertex {
    round: Round,
    author: ValidatorId,
    block: Block,
    /// Digests of vertices in `round - 1` this vertex links to (the paper's
    /// `v.edges`). Empty only for round 0. Reference-counted so that the
    /// per-recipient broadcast clone in the simulator is O(1), and a
    /// slice so that the allocation is exactly the digests: a proposer's
    /// list grown by doubling would otherwise ride along at up to twice
    /// its length for as long as any validator stores the vertex.
    parents: Arc<[Digest]>,
    digest: Digest,
    signature: Signature,
    /// Memoized [`Vertex::verify`] outcome. The fields above are immutable
    /// after construction, so a signature check against a given key can
    /// never change — and because broadcast fan-out shares one `Arc`'d
    /// allocation, the first recipient's check warms the cache for every
    /// other recipient. Packing: bits 2.. hold the checked key's
    /// fingerprint (`PublicKey::id() & !0b11`), bits 0..2 the state
    /// (0 = unchecked, 1 = valid, 2 = invalid). A single atomic word keeps
    /// the (fingerprint, state) pair tear-free across threads.
    verify_cache: std::sync::atomic::AtomicU64,
    /// Memoized committee mask of the parents' authors
    /// ([`Vertex::parent_authors`]). A parent digest names one vertex and
    /// so one author, which makes the mask a function of the content too:
    /// the first DAG to resolve the parents fills it, and every validator
    /// storing the same allocation reads it instead of keeping a copy of
    /// its own. Inline up to 128 members: no allocation of its own.
    parent_authors: std::sync::OnceLock<AuthorMask>,
}

impl Clone for Vertex {
    fn clone(&self) -> Self {
        Vertex {
            round: self.round,
            author: self.author,
            block: self.block.clone(),
            parents: self.parents.clone(),
            digest: self.digest,
            signature: self.signature,
            // The cache is a pure function of the (immutable) content and
            // the key it was checked against, so the clone may keep it.
            verify_cache: std::sync::atomic::AtomicU64::new(
                self.verify_cache.load(std::sync::atomic::Ordering::Relaxed),
            ),
            // A function of the content as well, and small: kept.
            parent_authors: self.parent_authors.clone(),
        }
    }
}

/// Equality is content equality; the memos are ignored.
impl PartialEq for Vertex {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.signature == other.signature
    }
}
impl Eq for Vertex {}

impl Vertex {
    /// Builds and signs a vertex.
    ///
    /// The digest covers `(round, author, parents, block)`; the signature
    /// covers the digest under the vertex domain-separation context.
    /// `parents` may be another vertex's [`Vertex::shared_parents`]: an
    /// equal list shared is one allocation for both.
    pub fn new(
        round: Round,
        author: ValidatorId,
        block: Block,
        parents: impl Into<Arc<[Digest]>>,
        keypair: &Keypair,
    ) -> Self {
        let parents = parents.into();
        let digest = Self::compute_digest(round, author, &block, &parents);
        let signature = keypair.sign(VERTEX_CONTEXT, digest.as_bytes());
        // Deliberately NOT pre-marked valid: `new` signs with whatever
        // keypair it is handed, which tests (and Byzantine actors) exploit
        // to author vertices under the wrong key. `verify` must really
        // check the first time.
        Vertex {
            round,
            author,
            block,
            parents,
            digest,
            signature,
            verify_cache: std::sync::atomic::AtomicU64::new(0),
            parent_authors: std::sync::OnceLock::new(),
        }
    }

    fn compute_digest(
        round: Round,
        author: ValidatorId,
        block: &Block,
        parents: &[Digest],
    ) -> Digest {
        prof::time(Site::Digest, || Self::compute_digest_inner(round, author, block, parents))
    }

    fn compute_digest_inner(
        round: Round,
        author: ValidatorId,
        block: &Block,
        parents: &[Digest],
    ) -> Digest {
        let mut h = Sha256::new();
        h.update(&round.0.to_be_bytes());
        h.update(&author.0.to_be_bytes());
        h.update(&(parents.len() as u32).to_be_bytes());
        for p in parents {
            h.update(p.as_bytes());
        }
        // The block is hashed via its canonical encoding, so block identity
        // and wire encoding can never diverge. The encoding lands in a
        // reused thread-local buffer: digesting is hot (every construction
        // and every wire decode) and the bytes are identical either way.
        thread_local! {
            static SCRATCH: std::cell::RefCell<Vec<u8>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SCRATCH.with(|scratch| {
            let mut buf = scratch.borrow_mut();
            buf.clear();
            block.encode(&mut buf);
            h.update(&buf);
        });
        h.finalize()
    }

    /// The vertex's round (`v.round`).
    pub fn round(&self) -> Round {
        self.round
    }

    /// The party that broadcast the vertex (`v.source`).
    pub fn author(&self) -> ValidatorId {
        self.author
    }

    /// The carried transaction block (`v.block`).
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// Edges to previous-round vertices (`v.edges`), as digests.
    pub fn parents(&self) -> &[Digest] {
        &self.parents
    }

    /// The parent list's allocation, to hand [`Vertex::new`] for a vertex
    /// with equal parents.
    pub fn shared_parents(&self) -> &Arc<[Digest]> {
        &self.parents
    }

    /// The content digest.
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// The content digest where it is stored, for containers that key a
    /// vertex by the digest it already carries.
    pub fn digest_ref(&self) -> &Digest {
        &self.digest
    }

    /// The author's signature over the digest.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// A compact reference to this vertex.
    pub fn reference(&self) -> VertexRef {
        VertexRef { round: self.round, author: self.author, digest: self.digest }
    }

    /// Whether this vertex links to `parent`.
    pub fn has_parent(&self, parent: &Digest) -> bool {
        self.parents.contains(parent)
    }

    /// The committee mask of the parents' authors (member `i` when a
    /// parent was authored by validator `i`), as stored by
    /// [`Vertex::init_parent_authors`]; empty until a DAG stores it.
    #[inline]
    pub fn parent_authors(&self) -> &AuthorMask {
        static NONE_STORED: AuthorMask = AuthorMask::new();
        self.parent_authors.get().unwrap_or(&NONE_STORED)
    }

    /// Stores `mask` as the parents' author mask if none is stored yet and
    /// returns the stored one, which every caller that resolved the same
    /// parents computed identically.
    pub fn init_parent_authors(&self, mask: AuthorMask) -> &AuthorMask {
        self.parent_authors.get_or_init(|| mask)
    }

    /// Verifies the author signature over the content digest.
    ///
    /// The digest field is private and only ever produced by
    /// [`Vertex::new`] (computed) or the codec's decode path (recomputed
    /// from the transmitted content), so every `Vertex` *value* carries a
    /// digest that matches its content by construction — verification only
    /// needs the signature check. Debug builds re-derive the digest as a
    /// tripwire.
    pub fn verify(&self, author_key: &PublicKey) -> bool {
        debug_assert_eq!(
            Self::compute_digest(self.round, self.author, &self.block, &self.parents),
            self.digest,
            "vertex digest/content invariant broken"
        );
        use std::sync::atomic::Ordering::Relaxed;
        let fingerprint = author_key.id() & !0b11;
        let cached = self.verify_cache.load(Relaxed);
        if cached & !0b11 == fingerprint {
            match cached & 0b11 {
                1 => return true,
                2 => return false,
                _ => {}
            }
        }
        let ok = author_key.verify(VERTEX_CONTEXT, self.digest.as_bytes(), &self.signature);
        self.verify_cache.store(fingerprint | if ok { 1 } else { 2 }, Relaxed);
        ok
    }
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vertex({}@r{}, {} txs, {} parents)",
            self.author,
            self.round,
            self.block.len(),
            self.parents.len()
        )
    }
}

impl Encode for Vertex {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.round.encode(buf);
        self.author.encode(buf);
        self.block.encode(buf);
        encode_slice(&self.parents, buf);
        self.signature.encode(buf);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        let round = Round::decode(d)?;
        let author = ValidatorId::decode(d)?;
        let block = Block::decode(d)?;
        let parents = Vec::<Digest>::decode(d)?;
        let signature = Signature::decode(d)?;
        // Recompute rather than trust a transmitted digest: this is what
        // lets `verify` skip the recomputation (see there).
        let digest = Self::compute_digest(round, author, &block, &parents);
        Ok(Vertex {
            round,
            author,
            block,
            parents: parents.into(),
            digest,
            signature,
            verify_cache: std::sync::atomic::AtomicU64::new(0),
            parent_authors: std::sync::OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_vec};

    fn keypair(id: u16) -> Keypair {
        Keypair::from_seed(id as u64)
    }

    fn sample_vertex() -> Vertex {
        let txs = vec![Transaction::new(0, 1, 10), Transaction::new(1, 2, 20)];
        Vertex::new(
            Round(2),
            ValidatorId(1),
            Block::new(txs),
            vec![hh_crypto::sha256(b"p1"), hh_crypto::sha256(b"p2")],
            &keypair(1),
        )
    }

    #[test]
    fn digest_covers_all_fields() {
        let base = sample_vertex();
        let kp = keypair(1);
        let other_round = Vertex::new(
            Round(4),
            base.author(),
            base.block().clone(),
            base.parents().to_vec(),
            &kp,
        );
        let other_parents =
            Vertex::new(base.round(), base.author(), base.block().clone(), vec![], &kp);
        let other_block =
            Vertex::new(base.round(), base.author(), Block::empty(), base.parents().to_vec(), &kp);
        assert_ne!(base.digest(), other_round.digest());
        assert_ne!(base.digest(), other_parents.digest());
        assert_ne!(base.digest(), other_block.digest());
    }

    #[test]
    fn a_transaction_is_24_bytes_a_vertex_152_and_a_known_digest_stands() {
        // Two 8-byte fields and two 4-byte ones, with no padding between
        // them; the codec writes the header alone, in its own order, so the
        // layout reaches no digest, signature or log byte.
        assert_eq!(std::mem::size_of::<Transaction>(), 24);
        // The content, the verify memo and the parent mask, inline: a field
        // added here is paid once by every distinct vertex of a run.
        assert_eq!(std::mem::size_of::<Vertex>(), 152);
        // An `Arc<Vertex>` is the two counts and the vertex in one
        // allocation: 168 B, a 176-byte chunk of glibc's malloc, where one
        // more word would take a 192-byte chunk for every distinct vertex.
        let counts = std::alloc::Layout::new::<[std::sync::atomic::AtomicUsize; 2]>();
        let (arc, _) = counts.extend(std::alloc::Layout::new::<Vertex>()).unwrap();
        assert_eq!(arc.pad_to_align().size(), 168);
        let txs =
            vec![Transaction::with_payload(7, 1 << 40, 123_456, 512), Transaction::new(0, 1, 10)];
        let parents = sample_vertex().parents().to_vec();
        let v = Vertex::new(Round(3), ValidatorId(2), Block::new(txs), parents, &keypair(2));
        assert_eq!(
            v.digest().to_hex(),
            "70a26f4bcce780d9eab2c6ca05e804e716fa3bef346bc37eb30ccc7b6ba59d80"
        );
    }

    #[test]
    fn verify_accepts_authentic_vertex() {
        let v = sample_vertex();
        assert!(v.verify(&keypair(1).public()));
    }

    #[test]
    fn verify_rejects_wrong_author_key() {
        let v = sample_vertex();
        assert!(!v.verify(&keypair(2).public()));
    }

    #[test]
    fn codec_roundtrip_preserves_digest_and_signature() {
        let v = sample_vertex();
        let bytes = encode_to_vec(&v);
        let back: Vertex = decode_from_slice(&bytes).unwrap();
        assert_eq!(v, back);
        assert_eq!(v.digest(), back.digest());
        assert!(back.verify(&keypair(1).public()));
    }

    #[test]
    fn decode_recomputes_digest_over_content() {
        // Corrupt one payload byte: decoding succeeds structurally but the
        // signature no longer matches the recomputed digest.
        let v = sample_vertex();
        let mut bytes = encode_to_vec(&v);
        let idx = bytes.len() - 40; // inside parents/signature region
        bytes[idx] ^= 0xFF;
        if let Ok(corrupted) = decode_from_slice::<Vertex>(&bytes) {
            assert!(!corrupted.verify(&keypair(1).public()));
        }
    }

    #[test]
    fn round_helpers() {
        assert!(Round(0).is_even());
        assert!(!Round(3).is_even());
        assert_eq!(Round(3).next(), Round(4));
        assert_eq!(Round(0).prev(), Round(0));
        assert_eq!(Round(5) - 7, Round(0));
        assert_eq!(Round(5) + 2, Round(7));
    }

    #[test]
    fn reference_matches_fields() {
        let v = sample_vertex();
        let r = v.reference();
        assert_eq!(r.round, v.round());
        assert_eq!(r.author, v.author());
        assert_eq!(r.digest, v.digest());
    }

    #[test]
    fn has_parent() {
        let v = sample_vertex();
        assert!(v.has_parent(&hh_crypto::sha256(b"p1")));
        assert!(!v.has_parent(&hh_crypto::sha256(b"p3")));
    }

    #[test]
    fn parent_authors_are_written_once_and_cloned_but_not_decoded() {
        let v = sample_vertex();
        let mask = |members: &[usize]| members.iter().copied().collect::<AuthorMask>();
        assert!(v.parent_authors().is_empty());
        assert_eq!(v.init_parent_authors(mask(&[1, 2])), &mask(&[1, 2]));
        assert_eq!(v.init_parent_authors(mask(&[0])), &mask(&[1, 2]), "the first store stays");
        assert_eq!(v.clone().parent_authors(), &mask(&[1, 2]));
        let decoded: Vertex = decode_from_slice(&encode_to_vec(&v)).unwrap();
        assert!(decoded.parent_authors().is_empty());
    }

    /// Heap bytes behind a vertex's parent list. The annotation pins the
    /// field to a slice: a `Vec` there would bring its capacity back.
    fn parent_storage_bytes(v: &Vertex) -> usize {
        let stored: &std::sync::Arc<[Digest]> = &v.parents;
        std::mem::size_of_val(&**stored)
    }

    #[test]
    fn parent_storage_is_exactly_the_digests() {
        // What a proposer does at n = 100 / f = 33: collect 67 digests
        // from an iterator that cannot say how many it will yield, so the
        // `Vec` doubles to 128 entries (4,096 B for 2,144 B of digests).
        let collected: Vec<Digest> = (0..67u32)
            .filter(|i| i % 1000 != 999)
            .map(|i| hh_crypto::sha256(&i.to_be_bytes()))
            .collect();
        assert!(collected.capacity() > collected.len(), "the collection over-allocated");
        let built = Vertex::new(Round(3), ValidatorId(1), Block::empty(), collected, &keypair(1));
        let decoded: Vertex =
            crate::codec::decode_framed(&crate::codec::encode_framed(&built)).unwrap();
        assert_eq!(decoded.parents(), built.parents());
        for v in [&built, &decoded] {
            assert_eq!(parent_storage_bytes(v), 32 * v.parents().len());
        }
    }

    #[test]
    fn an_equal_parent_list_is_shared_and_changes_no_byte() {
        let a = sample_vertex();
        let kp = keypair(3);
        let build = |parents: Arc<[Digest]>| {
            Vertex::new(a.round(), ValidatorId(3), Block::empty(), parents, &kp)
        };
        let shared = build(a.shared_parents().clone());
        let fresh = build(a.parents().to_vec().into());
        assert!(Arc::ptr_eq(a.shared_parents(), shared.shared_parents()));
        assert!(!Arc::ptr_eq(a.shared_parents(), fresh.shared_parents()));
        assert_eq!(shared.digest(), fresh.digest());
        assert_eq!(shared.signature(), fresh.signature());
        assert_eq!(encode_to_vec(&shared), encode_to_vec(&fresh));
    }

    #[test]
    fn block_accessors() {
        let b = Block::new(vec![Transaction::new(0, 0, 0)]);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert!(Block::empty().is_empty());
    }
}
