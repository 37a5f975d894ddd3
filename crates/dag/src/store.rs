//! The DAG store: validated insertion, `(round, author)` addressing,
//! parent-mask reachability, histories, GC.
//!
//! Insertion enforces one vertex per `(round, author)`, so that pair is
//! the only internal address. Each round keeps a committee mask of the
//! authors present and, for each of them only, the shared `Arc<Vertex>`,
//! in ascending author order (an author's rank in the mask is its
//! vertex's position); the committee bitmask of a vertex's parents'
//! authors is stored once, with the vertex ([`Vertex::parent_authors`]),
//! by the first DAG that resolves its parents, and every DAG holding the
//! same allocation reads it there. Every traversal ORs those masks level
//! by level and resolves authors through the round index, and a vertex's
//! votes are read off the masks of the round above. A digest is resolved
//! only at the boundary (wire messages and parent lists identify vertices
//! by digest), inside the round it has to live in: validity puts every
//! parent in the round below, so insertion finds each one with a forward
//! pass over that round's stored vertices, and no digest-keyed table exists.
//! The lookup by digest alone, [`Dag::find_all`], answers a set of digests
//! with one scan of the retained rounds from the newest down. See `docs/architecture.md` ("DAG indexing &
//! complexity") for the complexity table.

use hh_crypto::Digest;
use hh_types::{
    AuthorMask, AuthorRow, Committee, DigestMap, DigestSet, Round, Stake, TypeError, ValidatorId,
    Vertex,
};
use std::collections::VecDeque;
use std::fmt;
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

/// One round of the DAG: the authors present and their vertices, an
/// [`AuthorRow`] in ascending author order, and their stake. A stored
/// vertex costs this DAG one pointer beyond its shared payload and an
/// absent author one mask bit, whichever authors are absent; an author's
/// vertex sits at its rank, the number of present authors below it.
#[derive(Clone, Debug)]
struct RoundIndex {
    row: AuthorRow<Arc<Vertex>>,
    stake: Stake,
}

impl RoundIndex {
    /// Stores `vertex` at its author's rank; the author must be absent.
    /// The row is sized for a quorum of authors when the round opens and
    /// grows once, to all `n`, if more arrive: never a doubling's slack.
    fn insert(&mut self, vertex: Arc<Vertex>, stake: Stake, n: usize) {
        if self.row.len() == self.row.capacity() {
            self.row.reserve_exact(n - self.row.len());
        }
        self.row.insert(vertex.author().index(), vertex);
        self.stake += stake;
    }

    /// The position in `vertices` of the vertex with `digest`, probing
    /// from position `from` (`from ≤ len`) to the last and then wrapping
    /// around to the first: at most one probe per present vertex, and one
    /// when `digest` is the next stored vertex.
    fn position(&self, digest: &Digest, from: usize) -> Option<usize> {
        let holds = |v: &Arc<Vertex>| v.digest_ref() == digest;
        let (wrapped, ahead) = self.row.entries().split_at(from);
        ahead.iter().position(holds).map(|i| from + i).or_else(|| wrapped.iter().position(holds))
    }
}

/// Resolves each of `parents`, in list order, to its author's index if
/// `below` — the round a parent must live in — holds it, or to `None`
/// where `below` does not (absent, or no such round). Each probe starts one
/// vertex past the previous match, so a list in ascending author order
/// (what honest proposers send) costs one pass over the round's present
/// vertices, and any other order at most one probe per present vertex a
/// parent.
fn resolve<'a>(
    below: Option<&'a RoundIndex>,
    parents: &'a [Digest],
) -> impl Iterator<Item = (&'a Digest, Option<usize>)> + 'a {
    let mut cursor = 0;
    parents.iter().map(move |parent| {
        let slot = below.and_then(|ri| {
            let at = ri.position(parent, cursor)?;
            cursor = at + 1;
            Some(ri.row.entries()[at].author().index())
        });
        (parent, slot)
    })
}

/// Reusable traversal state for the sub-DAG walk.
///
/// [`Dag::causal_sub_dag_with`] keeps one author mask per level of the
/// walk (the authors of that round that belong to the emitted sub-DAG).
/// Owning one of these per consumer (the consensus engine, the schedule
/// policy) makes the commit walk allocation-free apart from the returned
/// vertex list itself, for committees whose masks are inline (n ≤ 128).
#[derive(Clone, Debug, Default)]
pub struct SubDagScratch {
    /// One mask per level, the anchor's round first.
    levels: Vec<AuthorMask>,
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
    /// The only index: each retained round's present authors and vertices,
    /// round `gc_round + i` at position `i`. The retained rounds are
    /// contiguous: a round opens at genesis or with parents in the round
    /// below, which must be held, so a new round is the one above the top.
    rounds: VecDeque<RoundIndex>,
    gc_round: Round,
    /// Vertices stored in `rounds`.
    len: usize,
    equivocations: u64,
}

impl Dag {
    /// An empty DAG for `committee`.
    pub fn new(committee: Committee) -> Self {
        Dag { committee, rounds: VecDeque::new(), gc_round: Round(0), len: 0, equivocations: 0 }
    }

    /// The committee this DAG validates against.
    pub fn committee(&self) -> &Committee {
        &self.committee
    }

    /// The position of `round` in `rounds`: `round − gc_round`, or `None`
    /// below the GC floor. The only place the addressing rule is written.
    fn offset(&self, round: Round) -> Option<usize> {
        round.0.checked_sub(self.gc_round.0).map(|d| d as usize)
    }

    /// The index of `round`, if retained and holding a vertex.
    fn retained(&self, round: Round) -> Option<&RoundIndex> {
        self.rounds.get(self.offset(round)?)
    }

    /// The round index of `v` and the allocation stored there, if `v` is
    /// the vertex stored at its `(round, author)` address (not foreign,
    /// equivocating or garbage-collected). The stored allocation carries
    /// the parent mask; `v` may be a copy that does not.
    fn locate(&self, v: &Vertex) -> Option<(&RoundIndex, &Arc<Vertex>)> {
        let ri = self.retained(v.round())?;
        let stored = ri.row.get(v.author().index())?;
        (stored.digest_ref() == v.digest_ref()).then_some((ri, stored))
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
        let mut parents = AuthorMask::new();
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
            for (parent, slot) in resolve(self.retained(round.prev()), vertex.parents()) {
                let Some(idx) = slot else {
                    missing.push(*parent);
                    continue;
                };
                if parents.contains(idx) {
                    return Err(DagError::DuplicateParents);
                }
                parents.insert(idx);
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
        debug_assert!(
            vertex.parent_authors().is_empty() || *vertex.parent_authors() == parents,
            "parent authors resolved differently"
        );
        vertex.init_parent_authors(parents);
        // A round opens with room for a quorum's authors (one author per
        // unit of stake; a weighted committee's count is capped at `n`).
        let n = self.committee.size();
        let quorum_authors = (self.committee.quorum_threshold().0 as usize).min(n);
        // Genesis at an empty floor, or parents found in the round below:
        // the round is held or the one above the top.
        let at = self.offset(round).expect("checked against the GC floor above");
        if at == self.rounds.len() {
            self.rounds.push_back(RoundIndex {
                row: AuthorRow::with_capacity(quorum_authors),
                stake: Stake(0),
            });
        }
        self.rounds[at].insert(vertex, self.committee.stake_of(author), n);
        self.len += 1;
        Ok(InsertOutcome::Inserted)
    }

    /// The vertex with this digest in `round`, if stored: one scan of the
    /// round's stored vertices.
    pub fn get(&self, round: Round, digest: &Digest) -> Option<&Arc<Vertex>> {
        self.round_vertices(round).find(|v| v.digest_ref() == digest)
    }

    /// The stored vertices among `digests`, by digest: one pass over the
    /// retained rounds from the newest down, which stops once every digest
    /// is found. However many digests are asked for, a call costs at most
    /// one pass over every retained round (one set probe per stored vertex;
    /// absent authors cost nothing). For lookups that know no round (a peer's sync
    /// request); everything else addresses by `(round, author)` or
    /// [`Dag::get`].
    pub fn find_all(&self, digests: &DigestSet) -> DigestMap<Digest, &Arc<Vertex>> {
        let mut found = DigestMap::default();
        if digests.is_empty() {
            return found;
        }
        for v in self.rounds.iter().rev().flat_map(|ri| ri.row.entries()) {
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
        self.retained(round)?.row.get(author.index())
    }

    /// Whether any retained round holds a vertex authored by `author`.
    pub fn holds_author(&self, author: ValidatorId) -> bool {
        self.rounds.iter().any(|ri| ri.row.get(author.index()).is_some())
    }

    /// All vertices of `round`, in ascending author order (an exact-size
    /// iterator: `len()` counts them).
    pub fn round_vertices(&self, round: Round) -> std::slice::Iter<'_, Arc<Vertex>> {
        self.retained(round).map_or(&[][..], |ri| ri.row.entries()).iter()
    }

    /// Total stake of the authors present in `round` (O(1), cached).
    pub fn round_stake(&self, round: Round) -> Stake {
        self.retained(round).map_or(Stake(0), |r| r.stake)
    }

    /// Whether `round` holds quorum stake worth of vertices.
    pub fn is_quorum_at(&self, round: Round) -> bool {
        self.round_stake(round) >= self.committee.quorum_threshold()
    }

    /// Total stake of the next-round vertices linking to (voting for)
    /// `target`: one probe of the target author's bit in the parent mask of
    /// each vertex stored in the round above. A `target` not stored at its
    /// `(round, author)` (foreign, equivocating or garbage-collected) has
    /// no votes.
    ///
    /// With one vertex per `(round, author)` (enforced at insertion), each
    /// author contributes its stake at most once per target.
    pub fn vote_stake(&self, target: &Vertex) -> Stake {
        if self.locate(target).is_none() {
            return Stake(0);
        }
        let idx = target.author().index();
        self.round_vertices(target.round().next())
            .filter(|voter| voter.parent_authors().contains(idx))
            .map(|voter| self.committee.stake_of(voter.author()))
            .sum()
    }

    /// The highest round containing any vertex.
    pub fn highest_round(&self) -> Option<Round> {
        self.rounds.len().checked_sub(1).map(|top| Round(self.gc_round.0 + top as u64))
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
        let mut r = from.round().prev();
        let mut frontier = match self.locate(from) {
            Some((_, stored)) => stored.parent_authors().clone(),
            None => {
                resolve(self.retained(r), from.parents()).filter_map(|(_, slot)| slot).collect()
            }
        };
        while r > to.round() {
            let Some(ri) = self.retained(r) else {
                return false;
            };
            let mut next = AuthorMask::new();
            for (_, v) in ri.row.iter_in(&frontier) {
                next.union_with(v.parent_authors());
            }
            frontier = next;
            r = r.prev();
        }
        frontier.contains(to.author().index())
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
        let Some((mut ri, _)) = self.locate(anchor) else {
            return Vec::new();
        };
        if is_ordered(anchor) {
            return Vec::new();
        }
        let levels = &mut scratch.levels;
        levels.clear();
        levels.push(AuthorMask::from_iter([anchor.author().index()]));
        let top = anchor.round();
        let mut low = top;
        let mut count = 1;

        // Mark phase: rounds descend one by one; when a level keeps
        // nothing the frontier died out (edges never skip rounds).
        while let Some(below) = low.0.checked_sub(1).and_then(|r| self.retained(Round(r))) {
            let above = levels.last().expect("the anchor's level");
            let mut level = AuthorMask::new();
            for (_, v) in ri.row.iter_in(above) {
                level.union_with(v.parent_authors());
            }
            // Every member names a parent insertion found in the round below.
            let mut ordered = AuthorMask::new();
            let (mut found, mut kept) = (0, 0);
            for (author, v) in below.row.iter_in(&level) {
                found += 1;
                if is_ordered(v) {
                    ordered.insert(author);
                } else {
                    kept += 1;
                }
            }
            assert_eq!(found, level.len(), "a parent is stored");
            if kept == 0 {
                break;
            }
            level.remove_all(&ordered);
            levels.push(level);
            count += kept;
            ri = below;
            low = low.prev();
        }

        // Emit phase: ascending rounds, authors ascending within each.
        let mut out = Vec::with_capacity(count);
        let at = |r: Round| self.offset(r).expect("a traversed round is retained");
        for (ri, level) in self.rounds.range(at(low)..=at(top)).zip(levels.iter().rev()) {
            out.extend(ri.row.iter_in(level).map(|(_, v)| v.clone()));
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
            Some((_, stored)) => stored.parent_authors().contains(author.index()),
            None => self
                .vertex_by_author(from.round().prev(), author)
                .is_some_and(|stored| from.has_parent(&stored.digest())),
        }
    }

    /// Drops all rounds strictly below `round`. Future inserts below the
    /// horizon are rejected with [`DagError::BelowGc`]. A horizon above
    /// the top round empties the DAG for good: a vertex at the horizon
    /// misses its parents, and one above it the round below.
    ///
    /// The lowest retained round keeps its parent masks, since they are
    /// stored with its vertices: they name addresses in a round that no
    /// longer resolves, which every traversal treats as a dead end.
    ///
    /// Callers must only GC rounds whose vertices are already ordered
    /// everywhere they are needed (the validator keeps a safety margin,
    /// `gc_depth`, below its last committed round).
    pub fn gc(&mut self, round: Round) {
        let Some(dropped) = self.offset(round) else {
            return;
        };
        let dropped = self.rounds.drain(..dropped.min(self.rounds.len()));
        self.len -= dropped.map(|ri| ri.row.len()).sum::<usize>();
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
        assert_eq!(builder.dag().round_vertices(Round(0)).len(), 4);
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
        assert_eq!(dag.round_vertices(Round(2)).len(), 0, "never inserted");
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
                &AuthorMask::from_iter([0, 1, 3]),
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
        assert_eq!(dag.round_vertices(Round(0)).len(), 0);
        assert_eq!(dag.round_vertices(Round(2)).len(), 4);
        let kp = c.keypair(ValidatorId(0));
        let stale =
            Vertex::new(Round(1), ValidatorId(0), Block::empty(), vec![victim.digest()], &kp);
        assert!(matches!(dag.try_insert(stale), Err(DagError::BelowGc { .. })));
        // GC going backwards is a no-op.
        dag.gc(Round(1));
        assert_eq!(dag.gc_round(), Round(2));
        // Rounds below the floor and above the top hold nothing.
        for round in [Round(1), Round(5), Round(u64::MAX)] {
            assert!(dag.vertex_by_author(round, ValidatorId(0)).is_none(), "{round}");
            assert_eq!(
                (dag.round_vertices(round).len(), dag.round_stake(round)),
                (0, Stake(0)),
                "{round}"
            );
        }
        // GC past the top empties the DAG for good: a vertex at the floor
        // misses its parents.
        let top: Vec<Digest> = dag.round_vertices(Round(4)).map(|v| v.digest()).collect();
        dag.gc(Round(7));
        assert_eq!((dag.len(), dag.highest_round()), (0, None));
        let floor = Vertex::new(Round(7), ValidatorId(0), Block::empty(), top.clone(), &kp);
        assert_eq!(dag.try_insert(floor), Err(DagError::MissingParents(top)));
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
    /// `Arc<Vertex>` payloads, whose parent masks are inline. The exhaustive
    /// destructuring makes a new field fail to compile until it is
    /// accounted for here.
    fn index_bytes(dag: &Dag) -> usize {
        use std::mem::size_of;
        let Dag { committee: _, rounds, gc_round: _, len: _, equivocations: _ } = dag;
        let slots = rounds.capacity() * size_of::<RoundIndex>();
        slots
            + rounds
                .iter()
                .map(|ri| {
                    let RoundIndex { row, stake: _ } = ri;
                    row.capacity() * size_of::<Arc<Vertex>>()
                })
                .sum::<usize>()
    }

    #[test]
    fn index_footprint_per_vertex_is_bounded() {
        // The paper's headline shape: n = 100 with 33 crashed from the
        // start, so every round stores 67 vertices. A per-vertex index that
        // grows with a lookback window (the 64-row reach index cost about
        // 1,350 B here) must not come back unnoticed, nor a second array
        // per author slot (the vote-stake array cost 8 B a slot for what
        // the parent masks of the round above already say; a mask row per
        // slot cost 16 B for what the stored vertex already holds, once for
        // every validator storing it), nor a digest table beside the round
        // index (one pointer and one control byte per bucket, 12.3 B per
        // vertex at the headline point, for what the round index already
        // says), nor a slot per absent author (an 800-byte array of
        // pointers a round, 12.7 B per stored vertex here), nor a boxed
        // mask of who is present (16 B a round, in a 32-byte malloc chunk).
        // Which 33 are absent changes nothing: the last, the first or a
        // scattered set.
        let n = 100;
        let (present, rounds) = (67, 5);
        let last: Vec<u16> = (67..100).collect();
        let first: Vec<u16> = (0..33).collect();
        let scattered: Vec<u16> = (0..33).map(|i| i * 3 + 1).collect();
        let mut footprints = Vec::new();
        for absent in [last, first, scattered] {
            let crashed: Vec<ValidatorId> = absent.into_iter().map(ValidatorId).collect();
            let mut builder = DagBuilder::new(Committee::new_equal_stake(n));
            for _ in 0..rounds {
                builder.extend_round_without(&crashed);
            }
            let dag = builder.dag();
            assert_eq!(dag.len(), rounds * present);
            for ri in &dag.rounds {
                assert_eq!(ri.row.capacity(), present, "no slack beyond a quorum");
            }
            // One pointer per stored vertex, plus the round's header (its
            // mask among it, inline: `insert_allocs.rs` counts that) in the
            // round deque, which holds at most twice the rounds: 9.7 B per
            // stored vertex here.
            let per_round = present * 8 + 2 * std::mem::size_of::<RoundIndex>();
            let bytes = index_bytes(dag);
            assert!(
                bytes <= rounds * per_round,
                "{} B of index per vertex, bound {} B",
                bytes / dag.len(),
                per_round / present
            );
            footprints.push(bytes);
        }
        assert!(footprints.iter().all(|&b| b == footprints[0]), "{footprints:?}");
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
        let (a, b) = (&first.rounds[2], &second.rounds[2]);
        fn mask(ri: &RoundIndex, author: usize) -> &AuthorMask {
            ri.row.get(author).unwrap().parent_authors()
        }
        for author in 0..4 {
            let stored = mask(a, author);
            assert_eq!(stored, &AuthorMask::from_iter([0, 2, 3]), "v1 is left out of every list");
            assert!(std::ptr::eq(stored, mask(b, author)), "author {author}: two masks");
        }

        // A private copy of the same content gets a mask of its own, equal
        // to the shared one, which stays where it was.
        use hh_types::codec::{decode_from_slice, encode_to_vec};
        let v = a.row.get(0).unwrap();
        let copy: Vertex = decode_from_slice(&encode_to_vec(&**v)).unwrap();
        assert!(copy.parent_authors().is_empty(), "no DAG has stored the copy");
        let mut third = Dag::new(committee4());
        for r in 0..2 {
            for v in first.round_vertices(Round(r)) {
                third.try_insert_arc(v.clone()).unwrap();
            }
        }
        third.try_insert(copy).unwrap();
        let own = mask(&third.rounds[2], 0);
        assert_eq!(own, mask(a, 0));
        assert!(!std::ptr::eq(own, mask(a, 0)));
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
