//! Deterministic DAG construction for tests and benchmarks.
//!
//! Consensus and scheduling tests need DAGs with precise shapes: full
//! rounds, rounds missing specific authors, rounds whose vertices skip
//! specific parents (withheld votes). [`DagBuilder`] builds them on top of
//! the real validation path ([`Dag::try_insert`]), so test DAGs obey
//! exactly the invariants production DAGs do.

use crate::store::Dag;
use hh_crypto::{Digest, Keypair};
use hh_types::{Block, Committee, Round, Transaction, ValidatorId, Vertex};

/// Builds the deterministic *twin* of `vertex`: same round, author and
/// parents, but a different block — hence a different digest — signed
/// with the author's key.
///
/// This is the canonical equivocation artifact: a DAG holding `vertex`
/// rejects the twin with `DagError::Equivocation`, and the certified
/// broadcast layer refuses to ack it after the original. Used by the
/// simulator's `equivocate` adversary and the evidence oracle tests, so
/// twins in tests and twins under attack are byte-for-byte the same
/// construction.
///
/// The twin's block is a single marker transaction whose client id is
/// `u32::MAX` — outside any real client's id space — so the twin can
/// never collide with an honestly proposed block.
pub fn twin_of(vertex: &Vertex, keypair: &Keypair) -> Vertex {
    let marker = Transaction::new(u32::MAX, vertex.round().0, 0);
    let twin = Vertex::new(
        vertex.round(),
        vertex.author(),
        Block::new(vec![marker]),
        vertex.parents().to_vec(),
        keypair,
    );
    debug_assert_ne!(twin.digest(), vertex.digest(), "twin must differ from the original");
    twin
}

/// Builds structured DAGs for tests.
///
/// ```
/// use hh_dag::testkit::DagBuilder;
/// use hh_types::{Committee, Round, ValidatorId};
///
/// let mut b = DagBuilder::new(Committee::new_equal_stake(4));
/// b.extend_full_rounds(2);              // rounds 0,1: everyone, all edges
/// b.extend_round_without(&[ValidatorId(2)]); // round 2: v2 missing
/// assert_eq!(b.dag().round_vertices(Round(2)).len(), 3);
/// ```
#[derive(Debug)]
pub struct DagBuilder {
    dag: Dag,
    committee: Committee,
    next_round: Round,
    tx_seq: u64,
}

impl DagBuilder {
    /// A builder over an empty DAG.
    pub fn new(committee: Committee) -> Self {
        DagBuilder { dag: Dag::new(committee.clone()), committee, next_round: Round(0), tx_seq: 0 }
    }

    /// The round the next `extend_*` call will create.
    pub fn next_round(&self) -> Round {
        self.next_round
    }

    /// Borrows the DAG under construction.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Consumes the builder, returning the DAG.
    pub fn into_dag(self) -> Dag {
        self.dag
    }

    /// Appends `count` rounds in which every validator authors a vertex
    /// linking to every previous-round vertex.
    pub fn extend_full_rounds(&mut self, count: usize) -> &mut Self {
        for _ in 0..count {
            let all: Vec<ValidatorId> = self.committee.ids().collect();
            self.extend_round_custom(&all, |_| None);
        }
        self
    }

    /// Appends one round authored by everyone, where every vertex links to
    /// all previous-round vertices *except* those authored by `excluded`.
    ///
    /// Models "the excluded authors' vertices arrived too late to vote for".
    pub fn extend_round_excluding(&mut self, excluded: &[ValidatorId]) -> &mut Self {
        let all: Vec<ValidatorId> = self.committee.ids().collect();
        let excluded = excluded.to_vec();
        self.extend_round_custom(&all, move |_| Some(excluded.clone()))
    }

    /// Appends one round in which only validators *not* in `absent` author
    /// vertices (modelling crashed validators), each linking to all
    /// previous-round vertices.
    pub fn extend_round_without(&mut self, absent: &[ValidatorId]) -> &mut Self {
        let authors: Vec<ValidatorId> =
            self.committee.ids().filter(|id| !absent.contains(id)).collect();
        self.extend_round_custom(&authors, |_| None)
    }

    /// Appends one round authored by `authors`; for each author,
    /// `exclude_parents(author)` names previous-round authors whose vertices
    /// must *not* be linked (`None` = link everything available).
    ///
    /// # Panics
    ///
    /// Panics if the produced vertices violate DAG invariants (e.g. the
    /// remaining parents fall below quorum) — test shapes are expected to
    /// be constructed deliberately.
    pub fn extend_round_custom(
        &mut self,
        authors: &[ValidatorId],
        exclude_parents: impl Fn(ValidatorId) -> Option<Vec<ValidatorId>>,
    ) -> &mut Self {
        let round = self.next_round;
        let prev = if round.0 == 0 { None } else { Some(round.prev()) };
        for &author in authors {
            let parents: Vec<Digest> = match prev {
                None => Vec::new(),
                Some(prev_round) => {
                    let excluded = exclude_parents(author).unwrap_or_default();
                    let mut parents: Vec<(ValidatorId, Digest)> = self
                        .dag
                        .round_vertices(prev_round)
                        .filter(|v| !excluded.contains(&v.author()))
                        .map(|v| (v.author(), v.digest()))
                        .collect();
                    parents.sort(); // deterministic parent order
                    parents.into_iter().map(|(_, d)| d).collect()
                }
            };
            let tx = Transaction::new(author.0 as u32, self.tx_seq, round.0 * 1000);
            self.tx_seq += 1;
            let vertex = Vertex::new(
                round,
                author,
                Block::new(vec![tx]),
                parents,
                &self.committee.keypair(author),
            );
            self.dag
                .try_insert(vertex)
                .unwrap_or_else(|e| panic!("testkit vertex rejected in round {round}: {e}"));
        }
        self.next_round = round.next();
        self
    }

    /// The twin (see [`twin_of`]) of the vertex `author` holds in `round`.
    ///
    /// The twin is *returned, not inserted*: the DAG enforces one vertex
    /// per `(round, author)`, so feeding the twin back through
    /// `try_insert` is exactly the equivocation rejection tests exercise.
    ///
    /// # Panics
    ///
    /// Panics if `author` has no vertex in `round`.
    pub fn twin_for(&self, round: Round, author: ValidatorId) -> Vertex {
        let original = self
            .dag
            .vertex_by_author(round, author)
            .unwrap_or_else(|| panic!("no vertex by {author} in round {round}"));
        twin_of(original, &self.committee.keypair(author))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_rounds_have_everyone() {
        let mut b = DagBuilder::new(Committee::new_equal_stake(7));
        b.extend_full_rounds(3);
        for r in 0..3 {
            assert_eq!(b.dag().round_vertices(Round(r)).len(), 7);
        }
        assert_eq!(b.next_round(), Round(3));
    }

    #[test]
    fn excluding_removes_edges_not_vertices() {
        let mut b = DagBuilder::new(Committee::new_equal_stake(4));
        b.extend_full_rounds(1);
        b.extend_round_excluding(&[ValidatorId(3)]);
        let dag = b.dag();
        assert_eq!(dag.round_vertices(Round(1)).len(), 4);
        for v in dag.round_vertices(Round(1)) {
            assert_eq!(v.parents().len(), 3);
        }
    }

    #[test]
    fn without_removes_vertices() {
        let mut b = DagBuilder::new(Committee::new_equal_stake(4));
        b.extend_full_rounds(1);
        b.extend_round_without(&[ValidatorId(0)]);
        assert_eq!(b.dag().round_vertices(Round(1)).len(), 3);
        assert!(b.dag().vertex_by_author(Round(1), ValidatorId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "testkit vertex rejected")]
    fn sub_quorum_parents_panic() {
        let mut b = DagBuilder::new(Committee::new_equal_stake(4));
        b.extend_full_rounds(1);
        // Excluding 2 of 4 parents leaves stake 2 < quorum 3.
        b.extend_round_excluding(&[ValidatorId(0), ValidatorId(1)]);
    }

    #[test]
    fn twin_shares_slot_but_not_digest() {
        let committee = Committee::new_equal_stake(4);
        let mut b = DagBuilder::new(committee.clone());
        b.extend_full_rounds(2);
        let original = b.dag().vertex_by_author(Round(1), ValidatorId(2)).unwrap().clone();
        let twin = b.twin_for(Round(1), ValidatorId(2));
        assert_eq!(twin.round(), original.round());
        assert_eq!(twin.author(), original.author());
        assert_eq!(twin.parents(), original.parents());
        assert_ne!(twin.digest(), original.digest());
        // Signed with the real key: the structural validation path accepts
        // it, so only the one-vertex-per-slot rule can reject it.
        assert!(twin.verify(committee.validator(ValidatorId(2)).unwrap().public_key()));
        // Deterministic: the same slot always yields the same twin.
        assert_eq!(b.twin_for(Round(1), ValidatorId(2)).digest(), twin.digest());
    }

    #[test]
    fn twin_is_rejected_as_equivocation() {
        let mut b = DagBuilder::new(Committee::new_equal_stake(4));
        b.extend_full_rounds(2);
        let twin = b.twin_for(Round(1), ValidatorId(0));
        let mut dag = b.into_dag();
        assert!(matches!(
            dag.try_insert(twin),
            Err(crate::DagError::Equivocation { author: ValidatorId(0), round: Round(1) })
        ));
    }
}
