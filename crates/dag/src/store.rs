//! The DAG store: validated insertion, `(round, author)` addressing,
//! parent-mask reachability, histories, GC.
//!
//! Insertion enforces one vertex per `(round, author)`, so that pair is
//! the only internal address. Each round keeps, per committee author, only
//! the shared `Arc<Vertex>`; the committee bitmask of a vertex's parents'
//! authors is stored once, with the vertex ([`Vertex::parent_authors`]),
//! by the first DAG that resolves its parents, and every DAG holding the
//! same allocation reads it there. Every traversal ORs those masks level
//! by level and resolves authors through the round index, and a vertex's
//! votes are read off the masks of the round above. A digest is resolved
//! only at the boundary (wire messages and parent lists identify vertices
//! by digest), inside the round it has to live in: validity puts every
//! parent in the round below, so insertion finds each one with a forward
//! pass over that round's author slots, and no digest-keyed table exists.
//! The lookup by digest alone, [`Dag::find_all`], answers a set of digests
//! with one scan of the retained rounds from the newest down. See `docs/architecture.md` ("DAG indexing &
//! complexity") for the complexity table.

use hh_crypto::Digest;
use hh_types::{Committee, DigestMap, DigestSet, Round, Stake, TypeError, ValidatorId, Vertex};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Errors rejecting a vertex at insertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// The author is not a committee member.
    UnknownAuthor(ValidatorId),
    /// One or more parents are not in the round below yet. The caller (the
    /// broadcast layer) should fetch them and retry; the missing digests are
    /// listed in parent order. A parent stored in any other round counts as
    /// missing: validity allows it nowhere but the round below.
    MissingParents(Vec<Digest>),
    /// The parents carry less than quorum stake.
    InsufficientParentStake {
        /// Stake carried by the vertex's parents.
        have: Stake,
        /// The committee's quorum threshold.
        need: Stake,
    },
    /// The parents list contains a duplicate digest or duplicate author.
    DuplicateParents,
    /// A non-genesis vertex carries no parents or more than the committee
    /// has validators, or a genesis vertex carries some.
    MalformedParents(&'static str),
    /// The vertex's round is below the garbage-collection horizon.
    BelowGc {
        /// The rejected vertex's round.
        round: Round,
        /// The current horizon (lowest retained round).
        gc_round: Round,
    },
    /// The author already has a different vertex in this round
    /// (equivocation); the original is kept.
    Equivocation {
        /// The equivocating author.
        author: ValidatorId,
        /// The round in which two distinct vertices were observed.
        round: Round,
    },
    /// A structural error bubbled up from type validation.
    Type(TypeError),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownAuthor(id) => write!(f, "unknown author {id}"),
            DagError::MissingParents(p) => write!(f, "{} parents missing from the dag", p.len()),
            DagError::InsufficientParentStake { have, need } => {
                write!(f, "parent stake {have} below quorum {need}")
            }
            DagError::DuplicateParents => write!(f, "duplicate parent digest or author"),
            DagError::MalformedParents(why) => write!(f, "malformed parents: {why}"),
            DagError::BelowGc { round, gc_round } => {
                write!(f, "vertex round {round} below gc horizon {gc_round}")
            }
            DagError::Equivocation { author, round } => {
                write!(f, "equivocation by {author} in round {round}")
            }
            DagError::Type(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DagError {}

impl From<TypeError> for DagError {
    fn from(e: TypeError) -> Self {
        DagError::Type(e)
    }
}

/// Result of a successful [`Dag::try_insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The vertex is new and was stored.
    Inserted,
    /// The identical vertex was already present (idempotent re-insert).
    AlreadyPresent,
}

/// Whether bit `i` is set; a row shorter than the bit (an absent
/// author's, which is empty) has it clear.
fn test_bit(mask: &[u64], i: usize) -> bool {
    mask.get(i / 64).is_some_and(|word| word & (1 << (i % 64)) != 0)
}

fn set_bit(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

/// The positions of the set bits, ascending.
fn ones(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// Committee-mask words that fit the stack buffer (n ≤ 256).
const STACK_WORDS: usize = 4;

/// A zeroed committee mask for one call: on the stack for the committee
/// sizes we actually simulate, heap spill only beyond.
struct MaskBuf {
    stack: [u64; STACK_WORDS],
    spill: Vec<u64>,
    words: usize,
}

impl MaskBuf {
    fn new(words: usize) -> Self {
        let spill = if words > STACK_WORDS { vec![0; words] } else { Vec::new() };
        MaskBuf { stack: [0; STACK_WORDS], spill, words }
    }
}

impl Deref for MaskBuf {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        if self.words > STACK_WORDS {
            &self.spill
        } else {
            &self.stack[..self.words]
        }
    }
}

impl DerefMut for MaskBuf {
    fn deref_mut(&mut self) -> &mut [u64] {
        if self.words > STACK_WORDS {
            &mut self.spill
        } else {
            &mut self.stack[..self.words]
        }
    }
}

/// One round of the DAG, indexed by author position: one pointer per
/// author slot is all a vertex costs this DAG beyond its shared payload.
#[derive(Clone, Debug)]
struct RoundIndex {
    vertices: Vec<Option<Arc<Vertex>>>,
    len: usize,
    stake: Stake,
}

impl RoundIndex {
    fn new(n: usize) -> Self {
        RoundIndex { vertices: vec![None; n], len: 0, stake: Stake(0) }
    }

    /// The committee mask of `author`'s vertex's parents' authors (all in
    /// the previous round), read through the stored vertex: final at
    /// insert time and kept when that round is garbage-collected. An
    /// absent author's row is empty.
    fn parent_mask(&self, author: usize) -> &[u64] {
        self.vertices[author].as_deref().map_or(&[], Vertex::parent_authors)
    }

    /// The author slot of the vertex with `digest`, probing from slot `from`
    /// (`from ≤ n`) to the last and then wrapping around to the first: at
    /// most `n` probes, and one when `digest` is the next stored vertex.
    fn position(&self, digest: &Digest, from: usize) -> Option<usize> {
        let holds =
            |slot: &Option<Arc<Vertex>>| slot.as_deref().is_some_and(|v| v.digest_ref() == digest);
        let (wrapped, ahead) = self.vertices.split_at(from);
        ahead.iter().position(holds).map(|i| from + i).or_else(|| wrapped.iter().position(holds))
    }
}

/// Resolves each of `parents`, in list order, to its author slot in
/// `below` — the round a parent must live in — or to `None` where `below`
/// does not hold it (absent, or no such round). Each probe starts one slot
/// past the previous match, so a list in ascending author order (what
/// honest proposers send) costs one pass over the round, and any other
/// order at most `n` probes a parent.
fn resolve<'a>(
    below: Option<&'a RoundIndex>,
    parents: &'a [Digest],
) -> impl Iterator<Item = (&'a Digest, Option<usize>)> + 'a {
    let mut cursor = 0;
    parents.iter().map(move |parent| {
        let slot = below.and_then(|ri| ri.position(parent, cursor));
        if let Some(idx) = slot {
            cursor = idx + 1;
        }
        (parent, slot)
    })
}

/// Reusable traversal state for the sub-DAG walk.
///
/// [`Dag::causal_sub_dag_with`] keeps one committee mask per level of the
/// walk (the authors of that round that belong to the emitted sub-DAG).
/// Owning one of these per consumer (the consensus engine, the schedule
/// policy) makes the commit walk allocation-free apart from the returned
/// vertex list itself.
#[derive(Clone, Debug, Default)]
pub struct SubDagScratch {
    /// `⌈n/64⌉` words per level, the anchor's round first.
    levels: Vec<u64>,
}

impl SubDagScratch {
    /// An empty scratch; the buffer grows to the walk's depth on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The round-structured DAG (the paper's `DAG_i[]`).
///
/// Holds at most one vertex per `(round, author)`; a second, different
/// vertex from the same author in the same round is rejected as
/// equivocation and counted (with best-effort broadcast a Byzantine author
/// can attempt this; with certified broadcast it cannot happen).
///
/// Internally vertices are addressed by `(round, author)` and edges are
/// per-vertex committee masks (see the module docs); digests only matter
/// at the insertion/lookup boundary.
#[derive(Clone, Debug)]
pub struct Dag {
    committee: Committee,
    /// The only index: each retained round's author slots.
    rounds: BTreeMap<Round, RoundIndex>,
    gc_round: Round,
    /// Vertices stored in `rounds`.
    len: usize,
    equivocations: u64,
}

impl Dag {
    /// An empty DAG for `committee`.
    pub fn new(committee: Committee) -> Self {
        Dag { committee, rounds: BTreeMap::new(), gc_round: Round(0), len: 0, equivocations: 0 }
    }

    /// The committee this DAG validates against.
    pub fn committee(&self) -> &Committee {
        &self.committee
    }

    /// Words per committee mask: `⌈n/64⌉`.
    fn words(&self) -> usize {
        self.committee.size().div_ceil(64)
    }

    /// The round index and author position of `v`, if `v` is the vertex
    /// stored at its `(round, author)` address (not foreign, equivocating
    /// or garbage-collected).
    fn locate(&self, v: &Vertex) -> Option<(&RoundIndex, usize)> {
        let ri = self.rounds.get(&v.round())?;
        let idx = v.author().index();
        let stored = ri.vertices.get(idx)?.as_ref()?;
        (stored.digest_ref() == v.digest_ref()).then_some((ri, idx))
    }

    /// Validates and stores a vertex.
    ///
    /// Validation enforces Algorithm 1's invariants:
    /// * the author is a committee member;
    /// * round 0 vertices have no parents; later rounds have at most `n`
    ///   parents that (a) are all present in `round - 1` (a parent stored
    ///   in any other round counts as missing), (b) have distinct authors,
    ///   and (c) carry at least quorum stake;
    /// * the author has no *different* vertex in this round.
    ///
    /// # Errors
    ///
    /// See [`DagError`]. On [`DagError::MissingParents`] the caller should
    /// sync the listed digests and retry — this is the signal driving the
    /// broadcast layer's fetcher.
    pub fn try_insert(&mut self, vertex: Vertex) -> Result<InsertOutcome, DagError> {
        self.try_insert_arc(Arc::new(vertex))
    }

    /// [`Dag::try_insert`] for a vertex already behind an `Arc` — the
    /// broadcast layer's zero-copy intake. On success the DAG stores
    /// the *same* allocation (a refcount bump, no deep copy of the
    /// block or parent list).
    ///
    /// # Errors
    ///
    /// See [`Dag::try_insert`].
    pub fn try_insert_arc(&mut self, vertex: Arc<Vertex>) -> Result<InsertOutcome, DagError> {
        let round = vertex.round();
        let author = vertex.author();

        if !self.committee.contains(author) {
            return Err(DagError::UnknownAuthor(author));
        }
        if round < self.gc_round {
            return Err(DagError::BelowGc { round, gc_round: self.gc_round });
        }
        if let Some(existing) = self.vertex_by_author(round, author) {
            if existing.digest() == vertex.digest() {
                return Ok(InsertOutcome::AlreadyPresent);
            }
            self.equivocations += 1;
            return Err(DagError::Equivocation { author, round });
        }

        // The parents' author mask: the duplicate-author check fills it,
        // and the vertex keeps it unless another DAG stored it first.
        // Nothing on the all-parents-present path allocates but that
        // first store.
        let mut parents = MaskBuf::new(self.words());
        if round == Round(0) {
            if !vertex.parents().is_empty() {
                return Err(DagError::MalformedParents("genesis vertex with parents"));
            }
        } else {
            if vertex.parents().is_empty() {
                return Err(DagError::MalformedParents("non-genesis vertex without parents"));
            }
            // An honest list names each author once. Rejecting a longer one
            // before resolving caps `resolve` at `n` probes for each of at
            // most `n` parents, whatever a signed frame carries.
            if vertex.parents().len() > self.committee.size() {
                return Err(DagError::MalformedParents("more parents than validators"));
            }
            // One pass over the round below resolves the list (see
            // `resolve`). Missing parents are collected in list order; the
            // list allocates only on that path. A duplicate digest implies a
            // duplicate author (digests resolve to unique vertices), so the
            // author mask covers both duplicate checks for resolvable
            // parents; unresolvable duplicates surface via the missing path
            // and are re-validated after sync.
            let mut missing = Vec::new();
            let mut stake = Stake(0);
            for (parent, slot) in resolve(self.rounds.get(&round.prev()), vertex.parents()) {
                let Some(idx) = slot else {
                    missing.push(*parent);
                    continue;
                };
                if test_bit(&parents, idx) {
                    return Err(DagError::DuplicateParents);
                }
                set_bit(&mut parents, idx);
                stake += self.committee.stake_of(ValidatorId(idx as u16));
            }
            if !missing.is_empty() {
                return Err(DagError::MissingParents(missing));
            }
            if stake < self.committee.quorum_threshold() {
                return Err(DagError::InsufficientParentStake {
                    have: stake,
                    need: self.committee.quorum_threshold(),
                });
            }
        }

        // Commit the insert: store the mask with the vertex, index the
        // vertex at its address.
        let stored = vertex.init_parent_authors(&parents);
        debug_assert_eq!(stored, &parents[..], "parent authors resolved differently");
        let n = self.committee.size();
        let ri = self.rounds.entry(round).or_insert_with(|| RoundIndex::new(n));
        ri.vertices[author.index()] = Some(vertex);
        ri.len += 1;
        ri.stake += self.committee.stake_of(author);
        self.len += 1;
        Ok(InsertOutcome::Inserted)
    }

    /// The vertex with this digest in `round`, if stored: one scan of the
    /// round's `n` author slots.
    pub fn get(&self, round: Round, digest: &Digest) -> Option<&Arc<Vertex>> {
        self.round_vertices(round).find(|v| v.digest_ref() == digest)
    }

    /// The stored vertices among `digests`, by digest: one pass over the
    /// retained rounds from the newest down, which stops once every digest
    /// is found. However many digests are asked for, a call costs at most
    /// one pass over every retained round (`n` slot reads and one set probe
    /// per stored vertex). For lookups that know no round (a peer's sync
    /// request); everything else addresses by `(round, author)` or
    /// [`Dag::get`].
    pub fn find_all(&self, digests: &DigestSet) -> DigestMap<Digest, &Arc<Vertex>> {
        let mut found = DigestMap::default();
        if digests.is_empty() {
            return found;
        }
        for v in self.rounds.values().rev().flat_map(|ri| ri.vertices.iter().flatten()) {
            if digests.contains(v.digest_ref()) {
                found.insert(v.digest(), v);
                if found.len() == digests.len() {
                    break;
                }
            }
        }
        found
    }

    /// The vertex authored by `author` in `round`, if any.
    pub fn vertex_by_author(&self, round: Round, author: ValidatorId) -> Option<&Arc<Vertex>> {
        self.rounds.get(&round)?.vertices.get(author.index())?.as_ref()
    }

    /// Whether any retained round holds a vertex authored by `author`.
    pub fn holds_author(&self, author: ValidatorId) -> bool {
        self.rounds.values().any(|ri| ri.vertices.get(author.index()).is_some_and(Option::is_some))
    }

    /// All vertices of `round`, in ascending author order.
    pub fn round_vertices(&self, round: Round) -> impl Iterator<Item = &Arc<Vertex>> {
        self.rounds.get(&round).into_iter().flat_map(|ri| ri.vertices.iter().flatten())
    }

    /// Number of vertices in `round`.
    pub fn round_len(&self, round: Round) -> usize {
        self.rounds.get(&round).map(|r| r.len).unwrap_or(0)
    }

    /// Total stake of the authors present in `round` (O(1), cached).
    pub fn round_stake(&self, round: Round) -> Stake {
        self.rounds.get(&round).map(|r| r.stake).unwrap_or(Stake(0))
    }

    /// Whether `round` holds quorum stake worth of vertices.
    pub fn is_quorum_at(&self, round: Round) -> bool {
        self.round_stake(round) >= self.committee.quorum_threshold()
    }

    /// Total stake of the next-round vertices linking to (voting for)
    /// `target`: one probe of the target author's bit in the parent mask of
    /// each vertex of the round above, at most `n` of them. A `target` not
    /// stored at its `(round, author)` (foreign, equivocating or
    /// garbage-collected) has no votes.
    ///
    /// With one vertex per `(round, author)` (enforced at insertion), each
    /// author contributes its stake at most once per target. An absent
    /// author has no vertex and so an empty row, which never counts.
    pub fn vote_stake(&self, target: &Vertex) -> Stake {
        let Some((_, idx)) = self.locate(target) else {
            return Stake(0);
        };
        let Some(above) = self.rounds.get(&target.round().next()) else {
            return Stake(0);
        };
        self.committee
            .iter()
            .enumerate()
            .filter(|(voter, _)| test_bit(above.parent_mask(*voter), idx))
            .map(|(_, info)| info.stake())
            .sum()
    }

    /// The highest round containing any vertex.
    pub fn highest_round(&self) -> Option<Round> {
        self.rounds.keys().next_back().copied()
    }

    /// The lowest retained round (GC horizon).
    pub fn gc_round(&self) -> Round {
        self.gc_round
    }

    /// Number of equivocation attempts rejected so far.
    pub fn equivocations(&self) -> u64 {
        self.equivocations
    }

    /// Total number of stored vertices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the DAG holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The paper's `path(v, u)`: is there a chain of parent edges from
    /// `from` down to `to`?
    ///
    /// One frontier-mask descent: the frontier starts as the authors of
    /// `from`'s parents and each step ORs the parent masks of the
    /// frontier's vertices, until `to`'s round, where `to`'s author bit
    /// answers. One vertex per `(round, author)` (enforced at insertion)
    /// makes that bit equivalent to a digest comparison. Edges only
    /// reference stored vertices, so a foreign or equivocating `to` is
    /// unreachable, and rounds pruned by GC are dead ends (their history
    /// is already ordered). A `from` foreign to the DAG reaches whatever
    /// its parent digests resolve to in the round below it.
    pub fn reachable(&self, from: &Vertex, to: &Vertex) -> bool {
        if from.digest() == to.digest() {
            return true;
        }
        if from.round() <= to.round() || self.locate(to).is_none() {
            return false;
        }
        let mut frontier = MaskBuf::new(self.words());
        let mut next = MaskBuf::new(self.words());
        let mut r = from.round().prev();
        match self.locate(from) {
            Some((ri, idx)) => frontier.copy_from_slice(ri.parent_mask(idx)),
            None => {
                for (_, slot) in resolve(self.rounds.get(&r), from.parents()) {
                    if let Some(idx) = slot {
                        set_bit(&mut frontier, idx);
                    }
                }
            }
        }
        while r > to.round() {
            let Some(ri) = self.rounds.get(&r) else {
                return false;
            };
            next.fill(0);
            for author in ones(&frontier) {
                for (acc, word) in next.iter_mut().zip(ri.parent_mask(author)) {
                    *acc |= word;
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            r = r.prev();
        }
        test_bit(&frontier, to.author().index())
    }

    /// Every stored ancestor of `from`, including `from` itself, in
    /// ascending `(round, author)` order.
    pub fn causal_history(&self, from: &Vertex) -> Vec<Arc<Vertex>> {
        self.causal_sub_dag(from, |_| false)
    }

    /// The ancestors of `anchor` (including it) for which `is_ordered`
    /// returns `false`, pruning descent at ordered vertices — with a
    /// freshly allocated scratch. Hot callers keep a [`SubDagScratch`]
    /// and use [`Dag::causal_sub_dag_with`].
    pub fn causal_sub_dag(
        &self,
        anchor: &Vertex,
        is_ordered: impl Fn(&Vertex) -> bool,
    ) -> Vec<Arc<Vertex>> {
        self.causal_sub_dag_with(anchor, is_ordered, &mut SubDagScratch::new())
    }

    /// The ancestors of `anchor` (including it) for which `is_ordered`
    /// returns `false`, pruning descent at ordered vertices.
    ///
    /// This is the sub-DAG a freshly committed anchor delivers: ordering
    /// always delivers complete histories, so once a vertex is ordered its
    /// whole history is too, and the search need not descend past it.
    /// Garbage-collected rounds likewise end the descent.
    ///
    /// The walk runs level by level: the kept vertices' parent masks OR
    /// into one candidate mask for the round below, and each candidate
    /// author is resolved — one index read, one `is_ordered` call —
    /// exactly once however many siblings share it. Emission is in
    /// ascending `(round, author)` order — exactly the deterministic
    /// delivery order the commit rule needs, so consumers sort nothing.
    /// Apart from the returned list, all state lives in `scratch`.
    pub fn causal_sub_dag_with(
        &self,
        anchor: &Vertex,
        is_ordered: impl Fn(&Vertex) -> bool,
        scratch: &mut SubDagScratch,
    ) -> Vec<Arc<Vertex>> {
        let Some((mut ri, idx)) = self.locate(anchor) else {
            return Vec::new();
        };
        if is_ordered(anchor) {
            return Vec::new();
        }
        let words = self.words();
        let levels = &mut scratch.levels;
        levels.clear();
        levels.resize(words, 0);
        set_bit(levels, idx);
        let top = anchor.round();
        let mut low = top;
        let mut count = 1;

        // Mark phase: rounds descend one by one; when a level keeps
        // nothing the frontier died out (edges never skip rounds).
        while let Some(below) = low.0.checked_sub(1).and_then(|r| self.rounds.get(&Round(r))) {
            let (above, level) = {
                let filled = levels.len();
                levels.resize(filled + words, 0);
                levels.split_at_mut(filled)
            };
            for author in ones(&above[above.len() - words..]) {
                for (acc, word) in level.iter_mut().zip(ri.parent_mask(author)) {
                    *acc |= word;
                }
            }
            let mut kept = 0;
            for (w, word) in level.iter_mut().enumerate() {
                for bit in ones(&[*word]) {
                    let v = below.vertices[w * 64 + bit].as_ref().expect("a parent is stored");
                    if is_ordered(v) {
                        *word &= !(1 << bit);
                    } else {
                        kept += 1;
                    }
                }
            }
            if kept == 0 {
                levels.truncate(levels.len() - words);
                break;
            }
            count += kept;
            ri = below;
            low = low.prev();
        }

        // Emit phase: ascending rounds, authors ascending within each.
        let mut out = Vec::with_capacity(count);
        for ((_, ri), level) in self.rounds.range(low..=top).zip(levels.chunks(words).rev()) {
            out.extend(
                ones(level).map(|a| ri.vertices[a].clone().expect("a kept vertex is stored")),
            );
        }
        out
    }

    /// Whether `from` links to (votes for) the previous-round vertex
    /// authored by `author`. Powers the reputation policy's vote
    /// accounting.
    ///
    /// For stored vertices this is one probe of the insert-time parent
    /// mask, so the answer never flickers when the linked round is
    /// later garbage-collected — vote accounting stays independent of
    /// each validator's local GC timing (a live lookup could answer
    /// differently on two validators for a vertex ordered right at the
    /// horizon). Foreign vertices — never produced by the ordering path,
    /// which only traverses stored vertices — fall back to scanning
    /// their parent list against the currently stored `(round, author)`
    /// vertex.
    pub fn links_to_author(&self, from: &Vertex, author: ValidatorId) -> bool {
        if from.round().0 == 0 || !self.committee.contains(author) {
            return false;
        }
        match self.locate(from) {
            Some((ri, idx)) => test_bit(ri.parent_mask(idx), author.index()),
            None => self
                .vertex_by_author(from.round().prev(), author)
                .is_some_and(|stored| from.has_parent(&stored.digest())),
        }
    }

    /// Drops all rounds strictly below `round`. Future inserts below the
    /// horizon are rejected with [`DagError::BelowGc`].
    ///
    /// The lowest retained round keeps its parent masks, since they are
    /// stored with its vertices: they name addresses in a round that no
    /// longer resolves, which every traversal treats as a dead end.
    ///
    /// Callers must only GC rounds whose vertices are already ordered
    /// everywhere they are needed (the validator keeps a safety margin,
    /// `gc_depth`, below its last committed round).
    pub fn gc(&mut self, round: Round) {
        if round <= self.gc_round {
            return;
        }
        let keep = self.rounds.split_off(&round);
        let dropped = std::mem::replace(&mut self.rounds, keep);
        self.len -= dropped.values().map(|ri| ri.len).sum::<usize>();
        self.gc_round = round;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::DagBuilder;
    use hh_types::Block;
    use std::collections::HashSet;

    fn committee4() -> Committee {
        Committee::new_equal_stake(4)
    }

    #[test]
    fn genesis_round_inserts() {
        let mut builder = DagBuilder::new(committee4());
        builder.extend_full_rounds(1);
        assert_eq!(builder.dag().round_len(Round(0)), 4);
        assert!(builder.dag().is_quorum_at(Round(0)));
    }

    #[test]
    fn genesis_with_parents_rejected() {
        let c = committee4();
        let mut dag = Dag::new(c.clone());
        let kp = c.keypair(ValidatorId(0));
        let fake_parent = hh_crypto::sha256(b"ghost");
        let v = Vertex::new(Round(0), ValidatorId(0), Block::empty(), vec![fake_parent], &kp);
        assert!(matches!(dag.try_insert(v), Err(DagError::MalformedParents(_))));
    }

    #[test]
    fn non_genesis_without_parents_rejected() {
        let c = committee4();
        let mut dag = Dag::new(c.clone());
        let kp = c.keypair(ValidatorId(0));
        let v = Vertex::new(Round(1), ValidatorId(0), Block::empty(), vec![], &kp);
        assert!(matches!(dag.try_insert(v), Err(DagError::MalformedParents(_))));
    }

    #[test]
    fn missing_parents_reported() {
        let c = committee4();
        let mut dag = Dag::new(c.clone());
        let kp = c.keypair(ValidatorId(0));
        let ghost1 = hh_crypto::sha256(b"g1");
        let ghost2 = hh_crypto::sha256(b"g2");
        let ghost3 = hh_crypto::sha256(b"g3");
        let v = Vertex::new(
            Round(1),
            ValidatorId(0),
            Block::empty(),
            vec![ghost1, ghost2, ghost3],
            &kp,
        );
        match dag.try_insert(v) {
            Err(DagError::MissingParents(m)) => assert_eq!(m.len(), 3),
            other => panic!("expected MissingParents, got {other:?}"),
        }
    }

    #[test]
    fn more_parents_than_validators_rejected_before_resolving() {
        let c = committee4();
        let mut builder = DagBuilder::new(c.clone());
        builder.extend_full_rounds(1);
        let kp = c.keypair(ValidatorId(0));
        let mut parents: Vec<Digest> =
            builder.dag().round_vertices(Round(0)).map(|v| v.digest()).collect();
        let mut dag = builder.into_dag();
        // n parents are fine; one more, known or made up, is malformed
        // rather than a duplicate or a missing parent.
        let full = Vertex::new(Round(1), ValidatorId(0), Block::empty(), parents.clone(), &kp);
        for extra in [parents[1], hh_crypto::sha256(b"ghost")] {
            parents.push(extra);
            let v = Vertex::new(Round(1), ValidatorId(0), Block::empty(), parents.clone(), &kp);
            assert!(matches!(dag.try_insert(v), Err(DagError::MalformedParents(_))));
            parents.pop();
        }
        assert_eq!(dag.try_insert(full), Ok(InsertOutcome::Inserted));
    }

    #[test]
    fn insufficient_parent_stake_rejected() {
        let c = committee4();
        let mut builder = DagBuilder::new(c.clone());
        builder.extend_full_rounds(1);
        // Only 2 parents (< quorum 3 for n=4).
        let parents: Vec<Digest> =
            builder.dag().round_vertices(Round(0)).take(2).map(|v| v.digest()).collect();
        let kp = c.keypair(ValidatorId(0));
        let v = Vertex::new(Round(1), ValidatorId(0), Block::empty(), parents, &kp);
        let mut dag = builder.into_dag();
        assert!(matches!(dag.try_insert(v), Err(DagError::InsufficientParentStake { .. })));
    }

    #[test]
    fn duplicate_parent_digest_rejected() {
        let c = committee4();
        let mut builder = DagBuilder::new(c.clone());
        builder.extend_full_rounds(1);
        let first = builder.dag().vertex_by_author(Round(0), ValidatorId(0)).unwrap().digest();
        let kp = c.keypair(ValidatorId(1));
        let v =
            Vertex::new(Round(1), ValidatorId(1), Block::empty(), vec![first, first, first], &kp);
        let mut dag = builder.into_dag();
        assert_eq!(dag.try_insert(v), Err(DagError::DuplicateParents));
    }

    #[test]
    fn parent_outside_the_round_below_is_missing() {
        let c = committee4();
        let mut builder = DagBuilder::new(c.clone());
        builder.extend_full_rounds(2); // rounds 0 and 1
        let dag = builder.dag();
        // A round-2 vertex linking three round-1 vertices and one stored
        // in round 0.
        let stale = dag.vertex_by_author(Round(0), ValidatorId(3)).unwrap().digest();
        let mut parents: Vec<Digest> =
            dag.round_vertices(Round(1)).take(3).map(|v| v.digest()).collect();
        parents.push(stale);
        let kp = c.keypair(ValidatorId(0));
        let v = Vertex::new(Round(2), ValidatorId(0), Block::empty(), parents, &kp);
        let mut dag = builder.into_dag();
        assert_eq!(dag.try_insert(v), Err(DagError::MissingParents(vec![stale])));
        assert_eq!(dag.round_len(Round(2)), 0, "never inserted");
    }

    #[test]
    fn parent_order_does_not_change_the_mask() {
        let c = committee4();
        let mut builder = DagBuilder::new(c.clone());
        builder.extend_full_rounds(1);
        builder.extend_round_excluding(&[ValidatorId(2)]);
        let dag = builder.dag();
        let sorted: Vec<Digest> = [0, 1, 3]
            .map(|a| dag.vertex_by_author(Round(1), ValidatorId(a)).unwrap().digest())
            .to_vec();
        let kp = |a| c.keypair(ValidatorId(a));
        let make = |author: u16, parents: Vec<Digest>| {
            Vertex::new(Round(2), ValidatorId(author), Block::empty(), parents, &kp(author))
        };
        let mut dag = builder.into_dag();
        // The sorted list first, then three shuffles of it.
        for (author, order) in [(0, [0, 1, 2]), (1, [2, 0, 1]), (2, [1, 2, 0]), (3, [2, 1, 0])] {
            let list = order.map(|i| sorted[i]).to_vec();
            assert_eq!(dag.try_insert(make(author, list)), Ok(InsertOutcome::Inserted));
            assert_eq!(
                dag.vertex_by_author(Round(2), ValidatorId(author)).unwrap().parent_authors(),
                [0b1011],
                "order {order:?}"
            );
        }
        // A duplicate is a duplicate wherever it sits, sorted or not.
        let above: Vec<Digest> = dag.round_vertices(Round(2)).take(3).map(|v| v.digest()).collect();
        for (at, twice) in [(0, 0), (1, 2), (3, 2), (2, 1)] {
            let mut parents = above.clone();
            parents.insert(at, above[twice]);
            let v = Vertex::new(Round(3), ValidatorId(0), Block::empty(), parents, &kp(0));
            assert_eq!(dag.try_insert(v), Err(DagError::DuplicateParents), "{twice} at {at}");
        }
    }

    #[test]
    fn reinsert_is_idempotent() {
        let c = committee4();
        let mut dag = Dag::new(c.clone());
        let kp = c.keypair(ValidatorId(0));
        let v = Vertex::new(Round(0), ValidatorId(0), Block::empty(), vec![], &kp);
        assert_eq!(dag.try_insert(v.clone()), Ok(InsertOutcome::Inserted));
        assert_eq!(dag.try_insert(v), Ok(InsertOutcome::AlreadyPresent));
        assert_eq!(dag.len(), 1);
    }

    #[test]
    fn equivocation_detected_first_kept() {
        let c = committee4();
        let mut dag = Dag::new(c.clone());
        let kp = c.keypair(ValidatorId(0));
        let v1 = Vertex::new(Round(0), ValidatorId(0), Block::empty(), vec![], &kp);
        let v2 = Vertex::new(
            Round(0),
            ValidatorId(0),
            Block::new(vec![hh_types::Transaction::new(0, 0, 0)]),
            vec![],
            &kp,
        );
        assert_ne!(v1.digest(), v2.digest());
        dag.try_insert(v1.clone()).unwrap();
        assert!(matches!(
            dag.try_insert(v2),
            Err(DagError::Equivocation { author: ValidatorId(0), round: Round(0) })
        ));
        assert_eq!(dag.equivocations(), 1);
        assert_eq!(dag.vertex_by_author(Round(0), ValidatorId(0)).unwrap().digest(), v1.digest());
    }

    #[test]
    fn unknown_author_rejected() {
        let c = committee4();
        let mut dag = Dag::new(c);
        let kp = hh_crypto::Keypair::from_seed(99);
        let v = Vertex::new(Round(0), ValidatorId(9), Block::empty(), vec![], &kp);
        assert_eq!(dag.try_insert(v), Err(DagError::UnknownAuthor(ValidatorId(9))));
    }

    #[test]
    fn reachability_through_full_rounds() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(5);
        let dag = builder.dag();
        let top = dag.vertex_by_author(Round(4), ValidatorId(0)).unwrap().clone();
        let bottom = dag.vertex_by_author(Round(0), ValidatorId(3)).unwrap().clone();
        assert!(dag.reachable(&top, &bottom));
        assert!(!dag.reachable(&bottom, &top), "edges point down only");
        assert!(dag.reachable(&top, &top), "reflexive");
    }

    #[test]
    fn reachability_respects_missing_links() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(1);
        // Round 1: every vertex links to all of round 0 EXCEPT v3's vertex.
        builder.extend_round_excluding(&[ValidatorId(3)]);
        let dag = builder.dag();
        let top = dag.vertex_by_author(Round(1), ValidatorId(0)).unwrap().clone();
        let excluded = dag.vertex_by_author(Round(0), ValidatorId(3)).unwrap().clone();
        let included = dag.vertex_by_author(Round(0), ValidatorId(0)).unwrap().clone();
        assert!(!dag.reachable(&top, &excluded));
        assert!(dag.reachable(&top, &included));
    }

    #[test]
    fn links_to_author_matches_parent_scan() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(1);
        builder.extend_round_excluding(&[ValidatorId(2)]);
        let dag = builder.dag();
        for v in dag.round_vertices(Round(1)) {
            for author in dag.committee().ids() {
                let stored = dag.vertex_by_author(Round(0), author).unwrap();
                assert_eq!(
                    dag.links_to_author(v, author),
                    v.has_parent(&stored.digest()),
                    "{v} -> {author}"
                );
            }
        }
        // Genesis vertices vote for nobody.
        let g = dag.vertex_by_author(Round(0), ValidatorId(0)).unwrap();
        assert!(!dag.links_to_author(g, ValidatorId(1)));
    }

    #[test]
    fn causal_history_is_complete() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(4);
        let dag = builder.dag();
        let top = dag.vertex_by_author(Round(3), ValidatorId(1)).unwrap().clone();
        let history = dag.causal_history(&top);
        // Full rounds: history = self + 3 complete rounds of 4.
        assert_eq!(history.len(), 1 + 3 * 4);
        // Closure: every parent of a history vertex is in the history
        // (except genesis, which has none).
        let digests: HashSet<Digest> = history.iter().map(|v| v.digest()).collect();
        for v in &history {
            for p in v.parents() {
                assert!(digests.contains(p));
            }
        }
        // Emission is ascending (round, author) — no caller-side sort.
        let keys: Vec<_> = history.iter().map(|v| (v.round(), v.author())).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn causal_sub_dag_prunes_ordered() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(4);
        let dag = builder.dag();
        let top = dag.vertex_by_author(Round(3), ValidatorId(1)).unwrap().clone();
        // Mark all of rounds 0-1 ordered.
        let ordered: HashSet<Digest> = dag
            .round_vertices(Round(0))
            .chain(dag.round_vertices(Round(1)))
            .map(|v| v.digest())
            .collect();
        let sub = dag.causal_sub_dag(&top, |v| ordered.contains(v.digest_ref()));
        assert_eq!(sub.len(), 1 + 4, "self plus round 2");
        assert!(sub.iter().all(|v| v.round() >= Round(2)));
    }

    #[test]
    fn sub_dag_scratch_is_reusable() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(5);
        let dag = builder.dag();
        let mut scratch = SubDagScratch::new();
        let top = dag.vertex_by_author(Round(4), ValidatorId(0)).unwrap().clone();
        let a = dag.causal_sub_dag_with(&top, |_| false, &mut scratch);
        let b = dag.causal_sub_dag_with(&top, |_| false, &mut scratch);
        assert_eq!(a.len(), b.len(), "stale marks would shrink the second walk");
        assert_eq!(
            a.iter().map(|v| v.digest()).collect::<Vec<_>>(),
            b.iter().map(|v| v.digest()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gc_drops_rounds_and_blocks_reinsertion() {
        let c = committee4();
        let mut builder = DagBuilder::new(c.clone());
        builder.extend_full_rounds(5);
        let mut dag = builder.into_dag();
        let victim = dag.vertex_by_author(Round(0), ValidatorId(0)).unwrap().clone();
        dag.gc(Round(2));
        assert_eq!(dag.gc_round(), Round(2));
        assert!(dag.get(Round(0), &victim.digest()).is_none());
        assert_eq!(dag.round_len(Round(0)), 0);
        assert_eq!(dag.round_len(Round(2)), 4);
        let kp = c.keypair(ValidatorId(0));
        let stale =
            Vertex::new(Round(1), ValidatorId(0), Block::empty(), vec![victim.digest()], &kp);
        assert!(matches!(dag.try_insert(stale), Err(DagError::BelowGc { .. })));
        // GC going backwards is a no-op.
        dag.gc(Round(1));
        assert_eq!(dag.gc_round(), Round(2));
    }

    #[test]
    fn holds_author_looks_at_retained_rounds_only() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(1);
        builder.extend_round_without(&[ValidatorId(3)]);
        builder.extend_round_without(&[ValidatorId(3)]);
        let mut dag = builder.into_dag();
        assert!(dag.holds_author(ValidatorId(3)), "its round-0 vertex");
        dag.gc(Round(1));
        assert!(!dag.holds_author(ValidatorId(3)));
        assert!(dag.holds_author(ValidatorId(0)));
    }

    #[test]
    fn queries_stay_consistent_across_gc_and_later_inserts() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(6);
        let mut dag = builder.into_dag();
        dag.gc(Round(3));
        assert_eq!(dag.len(), 3 * 4);
        // New rounds land above the horizon; every query keeps working.
        for r in 6..9u64 {
            let parents: Vec<Digest> = {
                let mut refs: Vec<(ValidatorId, Digest)> =
                    dag.round_vertices(Round(r - 1)).map(|v| (v.author(), v.digest())).collect();
                refs.sort();
                refs.into_iter().map(|(_, d)| d).collect()
            };
            for author in dag.committee().ids().collect::<Vec<_>>() {
                let kp = dag.committee().keypair(author);
                let v = Vertex::new(Round(r), author, Block::empty(), parents.clone(), &kp);
                assert_eq!(dag.try_insert(v), Ok(InsertOutcome::Inserted));
            }
        }
        assert_eq!(dag.len(), 6 * 4);
        let top = dag.vertex_by_author(Round(8), ValidatorId(0)).unwrap().clone();
        let mid = dag.vertex_by_author(Round(4), ValidatorId(2)).unwrap().clone();
        assert!(dag.reachable(&top, &mid));
        // History bottoms out at the GC horizon (round 3).
        let history = dag.causal_history(&top);
        assert_eq!(history.len(), 6 * 4 - 3, "rounds 3..=8, minus round-8 peers");
        assert!(history.iter().all(|v| v.round() >= Round(3)));
    }

    #[test]
    fn reachability_survives_gc_of_ordered_prefix() {
        let c = committee4();
        let mut builder = DagBuilder::new(c);
        builder.extend_full_rounds(6);
        let mut dag = builder.into_dag();
        dag.gc(Round(2));
        let top = dag.vertex_by_author(Round(5), ValidatorId(0)).unwrap().clone();
        let mid = dag.vertex_by_author(Round(3), ValidatorId(2)).unwrap().clone();
        assert!(dag.reachable(&top, &mid));
    }

    #[test]
    fn only_unresolved_parents_are_listed_missing() {
        let c = committee4();
        let mut builder = DagBuilder::new(c.clone());
        builder.extend_full_rounds(1);
        let dag = builder.dag();
        let known: Vec<Digest> = dag.round_vertices(Round(0)).map(|v| v.digest()).collect();
        let (ghost1, ghost2) = (hh_crypto::sha256(b"ghost1"), hh_crypto::sha256(b"ghost2"));
        let kp = c.keypair(ValidatorId(0));
        let parents = vec![ghost2, known[0], ghost1, known[2]];
        let v = Vertex::new(Round(1), ValidatorId(0), Block::empty(), parents, &kp);
        let mut dag = builder.into_dag();
        assert_eq!(dag.try_insert(v), Err(DagError::MissingParents(vec![ghost2, ghost1])));
        let v = Vertex::new(Round(1), ValidatorId(0), Block::empty(), known, &kp);
        assert_eq!(dag.try_insert(v), Ok(InsertOutcome::Inserted));
    }

    /// Heap bytes the DAG owns for its index: everything except the shared
    /// `Arc<Vertex>` payloads, parent masks included. The exhaustive
    /// destructuring makes a new field fail to compile until it is
    /// accounted for here.
    fn index_bytes(dag: &Dag) -> usize {
        use std::mem::size_of;
        let Dag { committee: _, rounds, gc_round: _, len: _, equivocations: _ } = dag;
        rounds
            .values()
            .map(|ri| {
                let RoundIndex { vertices, len: _, stake: _ } = ri;
                size_of::<(Round, RoundIndex)>()
                    + vertices.capacity() * size_of::<Option<Arc<Vertex>>>()
            })
            .sum()
    }

    #[test]
    fn index_footprint_per_vertex_is_bounded() {
        // The paper's headline shape: n = 100 with the last 33 crashed
        // from the start, so every round stores 67 vertices. A per-vertex
        // index that grows with a lookback window (the 64-row reach index
        // cost about 1,350 B here) must not come back unnoticed, nor a
        // second array per author slot (the vote-stake array cost 8 B a
        // slot for what the parent masks of the round above already say;
        // a mask row per slot cost 16 B for what the stored vertex already
        // holds, once for every validator storing it), nor a digest table
        // beside the round index (one pointer and one control byte per
        // bucket, 12.3 B per vertex at the headline point, for what the
        // round index already says).
        let n = 100;
        let (present, rounds) = (67, 5);
        let crashed: Vec<ValidatorId> = (present as u16..n as u16).map(ValidatorId).collect();
        let mut builder = DagBuilder::new(Committee::new_equal_stake(n));
        for _ in 0..rounds {
            builder.extend_round_without(&crashed);
        }
        let dag = builder.dag();
        assert_eq!(dag.len(), rounds * present);
        let round_index = index_bytes(dag);
        // What one array costs: one pointer per author slot and the
        // round's header, 12.7 B per stored vertex here.
        let per_round = n * 8 + std::mem::size_of::<(Round, RoundIndex)>();
        assert!(
            round_index <= rounds * per_round,
            "{} B of index per vertex, bound {} B",
            round_index / dag.len(),
            per_round / present
        );
    }

    #[test]
    fn a_vertex_stored_by_two_dags_has_one_parent_mask() {
        let mut builder = DagBuilder::new(committee4());
        builder.extend_full_rounds(2);
        builder.extend_round_excluding(&[ValidatorId(1)]);
        let first = builder.dag();
        let mut second = Dag::new(committee4());
        for r in 0..3 {
            for v in first.round_vertices(Round(r)) {
                assert_eq!(second.try_insert_arc(v.clone()), Ok(InsertOutcome::Inserted));
            }
        }
        let (a, b) = (&first.rounds[&Round(2)], &second.rounds[&Round(2)]);
        for author in 0..4 {
            let mask = a.parent_mask(author);
            assert_eq!(mask, [0b1101], "v1 is left out of every parent list");
            assert!(std::ptr::eq(mask, b.parent_mask(author)), "author {author}: two masks");
            assert!(std::ptr::eq(mask, a.vertices[author].as_ref().unwrap().parent_authors()));
        }

        // A private copy of the same content gets a mask of its own, equal
        // to the shared one, which stays where it was.
        use hh_types::codec::{decode_from_slice, encode_to_vec};
        let v = a.vertices[0].as_ref().unwrap();
        let copy: Vertex = decode_from_slice(&encode_to_vec(&**v)).unwrap();
        assert!(copy.parent_authors().is_empty(), "no DAG has stored the copy");
        let mut third = Dag::new(committee4());
        for r in 0..2 {
            for v in first.round_vertices(Round(r)) {
                third.try_insert_arc(v.clone()).unwrap();
            }
        }
        third.try_insert(copy).unwrap();
        let own = third.rounds[&Round(2)].parent_mask(0);
        assert_eq!(own, a.parent_mask(0));
        assert!(!std::ptr::eq(own, a.parent_mask(0)));
    }

    #[test]
    fn digest_lookups_see_stored_vertices_only() {
        let c = committee4();
        let mut builder = DagBuilder::new(c.clone());
        builder.extend_full_rounds(3);
        let mut dag = builder.into_dag();

        let find = |dag: &Dag, digests: &[Digest]| -> Vec<Digest> {
            let mut found: Vec<Digest> =
                dag.find_all(&digests.iter().copied().collect()).into_keys().collect();
            found.sort();
            found
        };

        let present = dag.vertex_by_author(Round(2), ValidatorId(1)).unwrap().clone();
        assert!(Arc::ptr_eq(dag.get(Round(2), &present.digest()).unwrap(), &present));
        assert!(dag.get(Round(1), &present.digest()).is_none(), "another round");

        // A set answers with what is stored of it, from any retained round,
        // as the allocation stored.
        let ghost = hh_crypto::sha256(b"ghost");
        assert!(dag.get(Round(2), &ghost).is_none());
        let oldest = dag.vertex_by_author(Round(0), ValidatorId(2)).unwrap().clone();
        let asked: DigestSet = [present.digest(), ghost, oldest.digest()].into_iter().collect();
        let found = dag.find_all(&asked);
        assert_eq!(found.len(), 2);
        assert!(Arc::ptr_eq(found[&present.digest()], &present));
        assert!(Arc::ptr_eq(found[&oldest.digest()], &oldest));
        assert!(find(&dag, &[ghost]).is_empty());
        assert!(find(&dag, &[]).is_empty());

        // A twin at a stored address: rejected, so its digest resolves to
        // nothing while the original's still does.
        let twin = crate::testkit::twin_of(&present, &c.keypair(ValidatorId(1)));
        assert!(matches!(dag.try_insert(twin.clone()), Err(DagError::Equivocation { .. })));
        assert_eq!(find(&dag, &[twin.digest(), present.digest()]), [present.digest()]);
        assert_eq!(dag.vote_stake(&twin), Stake(0));

        let collected = dag.vertex_by_author(Round(0), ValidatorId(3)).unwrap().clone();
        let voted = dag.vertex_by_author(Round(1), ValidatorId(3)).unwrap().clone();
        assert_eq!(dag.vote_stake(&collected), Stake(4));
        dag.gc(Round(1));
        assert_eq!(find(&dag, &[collected.digest(), voted.digest()]), [voted.digest()]);
        assert!(dag.get(Round(0), &collected.digest()).is_none());
        assert_eq!(dag.vote_stake(&collected), Stake(0));
        assert_eq!(dag.vote_stake(&voted), Stake(4));
        assert_eq!(dag.len(), 2 * 4);
    }
}
