//! The Bullshark commit engine (Algorithm 2's `TryCommitting`,
//! `orderAnchors`, `orderHistory`), generic over the schedule policy.

use crate::ordered::OrderedSet;
use crate::policy::{ScheduleDecision, SchedulePolicy};
use hh_crypto::{Digest, Sha256};
use hh_dag::{Dag, SubDagScratch};
use hh_types::{Committee, Round, ValidatorId, Vertex, VertexRef};
use std::sync::Arc;

/// One committed anchor and the sub-DAG it orders.
#[derive(Clone, Debug)]
pub struct CommittedSubDag {
    /// The committed anchor (leader vertex).
    pub anchor: VertexRef,
    /// Position in the total order of commits (0-based).
    pub commit_index: u64,
    /// The schedule epoch the anchor was committed under.
    pub schedule_epoch: u64,
    /// All newly ordered vertices, in delivery order (ascending
    /// `(round, author)`), ending with the anchor's round peers.
    pub vertices: Vec<Arc<Vertex>>,
}

/// The Bullshark engine for one validator.
///
/// Feed every vertex the broadcast layer delivers to
/// [`Bullshark::process_vertex`]; collect [`CommittedSubDag`]s. The engine
/// is deterministic: identical DAG content yields identical commit
/// sequences regardless of delivery interleaving (asserted via
/// [`Bullshark::chain_hash`]).
pub struct Bullshark<P: SchedulePolicy> {
    committee: Committee,
    policy: P,
    /// The ordered (delivered) vertices still within the DAG's GC horizon.
    ordered: OrderedSet,
    /// Round of the last *ordered* anchor (the paper's `lastOrderedRound`):
    /// the floor of every walk-back. It advances only when an anchor is
    /// ordered, never when one is merely looked at.
    last_ordered_anchor_round: Option<Round>,
    commit_index: u64,
    /// Running hash over the commit sequence (anchor digests in order).
    chain_hash: Digest,
    /// Full anchor sequence, kept for agreement assertions and monitoring.
    committed_anchors: Vec<VertexRef>,
    /// Reusable state for the indexed sub-DAG walk (no per-commit
    /// allocations beyond the delivered vertex list).
    scratch: SubDagScratch,
    /// Reusable `orderAnchors` stack.
    anchor_stack: Vec<Arc<Vertex>>,
}

impl<P: SchedulePolicy> Bullshark<P> {
    /// Creates an engine with the given schedule policy.
    pub fn new(committee: Committee, policy: P) -> Self {
        Bullshark {
            ordered: OrderedSet::new(committee.size()),
            committee,
            policy,
            last_ordered_anchor_round: None,
            commit_index: 0,
            chain_hash: Digest::ZERO,
            committed_anchors: Vec::new(),
            scratch: SubDagScratch::new(),
            anchor_stack: Vec::new(),
        }
    }

    /// The schedule policy (e.g. to inspect reputation state).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Number of commits so far.
    pub fn commit_count(&self) -> u64 {
        self.commit_index
    }

    /// Anchor references in commit order.
    pub fn committed_anchors(&self) -> &[VertexRef] {
        &self.committed_anchors
    }

    /// Running hash over the commit sequence: equal hashes ⇒ equal
    /// sequences (collision-resistance of SHA-256). The cheap way to assert
    /// Total Order across validators.
    pub fn chain_hash(&self) -> Digest {
        self.chain_hash
    }

    /// Whether the DAG-resident `vertex` has been ordered.
    pub fn is_ordered(&self, vertex: &Vertex) -> bool {
        self.ordered.contains(vertex)
    }

    /// Round of the last ordered anchor, if any.
    pub fn last_ordered_anchor_round(&self) -> Option<Round> {
        self.last_ordered_anchor_round
    }

    /// The leader of `round` under the currently active schedule — exposed
    /// for the proposer's leader-await logic.
    pub fn current_leader(&self, round: Round) -> ValidatorId {
        self.policy.leader_at(round)
    }

    /// Algorithm 2's `TryCommitting`, run where an anchor's votes change,
    /// extended with the schedule-switch re-walk. Call with every delivered
    /// vertex, after it entered `dag`; returns the sub-DAGs this vertex's
    /// arrival committed (usually empty).
    ///
    /// **Trigger.** An anchor's vote stake changes only when a vertex of
    /// the voting (odd) round above it is inserted — children enter the
    /// DAG after their parents — so the rule runs on delivery of an odd
    /// vertex `v`, for the anchor of `v.round − 1`: it commits with the
    /// (f+1)-th vote. Algorithm 2 runs it literally one round later, on a
    /// round-`r` vertex for the round-`r−2` anchor; a validator's first
    /// such vertex is its own, proposed only after a full quorum of votes
    /// plus pacing. A [`ScheduleDecision::Switched`] renames the leaders of
    /// every round from the switching anchor's up, so those rounds are
    /// evaluated once more under the new schedule.
    ///
    /// **Invariant.** When this returns, no even round above
    /// [`Bullshark::last_ordered_anchor_round`] has an active-schedule
    /// leader vertex that is in `dag`, unordered, and carries
    /// validity-threshold vote stake (given the same held before `v` was
    /// inserted).
    ///
    /// **Order.** The total order is the same function of the DAG as under
    /// the literal trigger: safety needs only that f+1 votes exist (every
    /// round-`r+2` vertex has 2f+1 parents and so meets a voter, hence
    /// every later anchor reaches this one in its walk-back), not when a
    /// validator notices them.
    pub fn process_vertex(&mut self, v: &Arc<Vertex>, dag: &Dag) -> Vec<CommittedSubDag> {
        let mut outputs = Vec::new();
        if v.round().is_even() {
            return outputs;
        }
        let mut round = v.round() - 1;
        let mut last = round;
        while round <= last {
            match self.try_commit(round, dag, &mut outputs) {
                // Each switch starts strictly above the previous one's
                // initial round, so the sweep terminates.
                Some(switched_at) => {
                    round = switched_at;
                    last = dag.highest_round().unwrap_or(last);
                }
                None => round = round + 2,
            }
        }
        outputs
    }

    /// Commits the anchor of (even) `anchor_round` if it holds
    /// validity-threshold votes, together with every earlier unordered
    /// anchor it reaches. Returns the round of the anchor at which the
    /// policy switched schedules, if it did: the anchors still stacked
    /// were derived under the old schedule and are dropped.
    fn try_commit(
        &mut self,
        anchor_round: Round,
        dag: &Dag,
        outputs: &mut Vec<CommittedSubDag>,
    ) -> Option<Round> {
        let leader = self.policy.leader_at(anchor_round);
        let anchor = dag.vertex_by_author(anchor_round, leader)?.clone(); // line 7: no anchor vertex
        if self.ordered.contains(&anchor) {
            return None; // already committed by an earlier vote
        }

        // Lines 12-13: validity-threshold stake of votes for the anchor,
        // counted over the whole local DAG ("the anchor has f+1 votes")
        // rather than within one triggering vertex's edges: once f+1
        // voters exist, every quorum of that round contains one, whoever
        // looks. The DAG reads it off the voting round's parent masks, one
        // bit per author.
        if dag.vote_stake(&anchor.digest()) < self.committee.validity_threshold() {
            return None;
        }

        // Lines 15-24 (`orderAnchors`): walk back to the last ordered
        // anchor, keeping earlier anchors reachable from later ones.
        // Each `reachable` is one frontier-mask descent over the DAG's
        // parent masks, two rounds deep between consecutive anchors;
        // the stack buffer is reused across calls.
        self.anchor_stack.clear();
        self.anchor_stack.push(anchor.clone());
        let mut cur = anchor;
        let mut r = anchor_round;
        while r.0 >= 2 {
            r = r - 2;
            if self.last_ordered_anchor_round.is_some_and(|floor| r <= floor) {
                break;
            }
            let prev_leader = self.policy.leader_at(r);
            if let Some(prev) = dag.vertex_by_author(r, prev_leader) {
                if !self.ordered.contains(prev) && dag.reachable(&cur, prev) {
                    self.anchor_stack.push(prev.clone());
                    cur = prev.clone();
                }
            }
        }

        // Lines 27-37 (`orderHistory`): oldest anchor first.
        while let Some(a) = self.anchor_stack.pop() {
            match self.policy.before_order_anchor(&a, dag, &self.ordered) {
                // Lines 30-33: a new schedule starts at `a`.
                ScheduleDecision::Switched => return Some(a.round()),
                ScheduleDecision::Continue => outputs.push(self.order_sub_dag(&a, dag)),
            }
        }
        None
    }

    /// Orders the anchor's not-yet-ordered causal history deterministically
    /// (lines 34-37) and advances the commit bookkeeping.
    fn order_sub_dag(&mut self, anchor: &Arc<Vertex>, dag: &Dag) -> CommittedSubDag {
        // Only DAG-resident vertices are ever looked up, so marks below
        // the DAG's GC horizon are dead weight that would otherwise grow
        // for as long as the node runs.
        self.ordered.forget_below(dag.gc_round());
        // "in some deterministic order": the indexed walk already emits
        // ascending (round, author).
        let ordered = &self.ordered;
        let vertices =
            dag.causal_sub_dag_with(anchor, |d| ordered.contains_digest(dag, d), &mut self.scratch);
        for v in &vertices {
            self.ordered.insert(v);
            self.policy.on_vertex_ordered(v, dag);
        }
        self.last_ordered_anchor_round = Some(anchor.round());
        let commit_index = self.commit_index;
        self.commit_index += 1;

        // Extend the commit chain hash with this anchor.
        let mut h = Sha256::new();
        h.update(self.chain_hash.as_bytes());
        h.update(anchor.digest().as_bytes());
        self.chain_hash = h.finalize();
        self.committed_anchors.push(anchor.reference());

        CommittedSubDag {
            anchor: anchor.reference(),
            commit_index,
            schedule_epoch: self.policy.epoch(),
            vertices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{RoundRobinPolicy, SlotSchedule};
    use hh_dag::testkit::DagBuilder;
    use hh_types::Committee;
    use std::collections::HashSet;

    fn committee4() -> Committee {
        Committee::new_equal_stake(4)
    }

    fn engine(c: &Committee) -> Bullshark<RoundRobinPolicy> {
        Bullshark::new(c.clone(), RoundRobinPolicy::new(SlotSchedule::round_robin(c)))
    }

    /// Feeds all vertices of rounds `0..=max` in (round, author) order.
    fn feed_all(
        engine: &mut Bullshark<RoundRobinPolicy>,
        dag: &Dag,
        max: u64,
    ) -> Vec<CommittedSubDag> {
        let mut out = Vec::new();
        for r in 0..=max {
            let mut vs: Vec<_> = dag.round_vertices(Round(r)).cloned().collect();
            vs.sort_by_key(|v| v.author());
            for v in vs {
                out.extend(engine.process_vertex(&v, dag));
            }
        }
        out
    }

    #[test]
    fn anchors_commit_in_round_order() {
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(9); // rounds 0..=8
        let dag = b.into_dag();
        let mut e = engine(&c);
        let commits = feed_all(&mut e, &dag, 8);
        let rounds: Vec<u64> = commits.iter().map(|cmt| cmt.anchor.round.0).collect();
        assert_eq!(rounds, vec![0, 2, 4, 6]);
        // Leaders rotate.
        let leaders: Vec<ValidatorId> = commits.iter().map(|cmt| cmt.anchor.author).collect();
        assert_eq!(leaders, vec![ValidatorId(0), ValidatorId(1), ValidatorId(2), ValidatorId(3)]);
        assert_eq!(e.commit_count(), 4);
    }

    #[test]
    fn ordering_is_exhaustive_and_disjoint() {
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(9);
        let dag = b.into_dag();
        let mut e = engine(&c);
        let commits = feed_all(&mut e, &dag, 8);
        let mut seen = HashSet::new();
        for cmt in &commits {
            for v in &cmt.vertices {
                assert!(seen.insert(v.digest()), "vertex delivered twice");
            }
            // Delivery order is ascending (round, author).
            let keys: Vec<_> = cmt.vertices.iter().map(|v| (v.round(), v.author())).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted);
        }
        // Everything up to round 5 is ordered once round-6 anchor commits
        // (the last commit orders history through its round).
        let last_round = commits.last().unwrap().anchor.round;
        for r in 0..last_round.0 {
            for v in dag.round_vertices(Round(r)) {
                assert!(seen.contains(&v.digest()), "round {r} vertex unordered");
            }
        }
    }

    #[test]
    fn crashed_leader_round_is_skipped_then_bridged() {
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        // Rounds 0,1 full. Round 2's leader is v1 — leave v1 out.
        b.extend_full_rounds(2);
        b.extend_round_without(&[ValidatorId(1)]);
        b.extend_full_rounds(6); // rounds 3..=8
        let dag = b.into_dag();
        let mut e = engine(&c);
        let commits = feed_all(&mut e, &dag, 8);
        let rounds: Vec<u64> = commits.iter().map(|cmt| cmt.anchor.round.0).collect();
        // Round 2 has no anchor vertex: skipped entirely; its vertices are
        // swept up by round 4's anchor.
        assert_eq!(rounds, vec![0, 4, 6]);
        let r4 = commits.iter().find(|cmt| cmt.anchor.round.0 == 4).unwrap();
        assert!(
            r4.vertices.iter().any(|v| v.round().0 == 2),
            "round-2 vertices ordered transitively"
        );
    }

    #[test]
    fn sub_validity_votes_defer_commit_to_next_anchor() {
        let c = committee4();
        // Validity threshold for n=4 is 2. Round-2 leader is v1 (round-robin
        // slot 1). Make only ONE round-3 vertex vote for (link to) it.
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(3); // rounds 0,1,2
        let anchor_author = ValidatorId(1);
        b.extend_round_custom(&c.ids().collect::<Vec<_>>(), move |voter| {
            if voter == ValidatorId(0) {
                None // v0 votes for the anchor
            } else {
                Some(vec![anchor_author]) // others exclude it
            }
        }); // round 3
        b.extend_full_rounds(3); // rounds 4,5,6
        let dag = b.into_dag();
        let mut e = engine(&c);
        let commits = feed_all(&mut e, &dag, 6);
        let rounds: Vec<u64> = commits.iter().map(|cmt| cmt.anchor.round.0).collect();
        // Round 2's anchor lacks direct validity votes; round 4's anchor
        // reaches it through v0's round-3 vertex, so it commits then.
        assert_eq!(rounds, vec![0, 2, 4]);
        let positions: Vec<(u64, u64)> =
            commits.iter().map(|cmt| (cmt.commit_index, cmt.anchor.round.0)).collect();
        assert_eq!(positions, vec![(0, 0), (1, 2), (2, 4)]);
    }

    #[test]
    fn agreement_under_different_feeding_orders() {
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(11);
        let dag = b.into_dag();

        // Engine A: fed in (round, author) order.
        let mut ea = engine(&c);
        feed_all(&mut ea, &dag, 10);

        // Engine B: fed in (round, reverse author) order — a different but
        // still causally-valid delivery schedule.
        let mut eb = engine(&c);
        for r in 0..=10u64 {
            let mut vs: Vec<_> = dag.round_vertices(Round(r)).cloned().collect();
            vs.sort_by_key(|v| std::cmp::Reverse(v.author()));
            for v in vs {
                eb.process_vertex(&v, &dag);
            }
        }
        assert_eq!(ea.chain_hash(), eb.chain_hash());
        assert_eq!(ea.committed_anchors(), eb.committed_anchors());
    }

    #[test]
    fn duplicate_trigger_vertices_commit_once() {
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(5);
        let dag = b.into_dag();
        let mut e = engine(&c);
        feed_all(&mut e, &dag, 4);
        let before = e.commit_count();
        // Re-feeding the same round-4 vertices must not re-commit.
        let vs: Vec<_> = dag.round_vertices(Round(4)).cloned().collect();
        for v in vs {
            assert!(e.process_vertex(&v, &dag).is_empty());
        }
        assert_eq!(e.commit_count(), before);
    }

    #[test]
    fn commit_fires_on_the_f_plus_1th_vote() {
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(2); // rounds 0,1
        b.extend_round_without(&[ValidatorId(1)]); // round 2: its leader v1 is absent
        b.extend_full_rounds(4); // rounds 3..=6
        let full = b.into_dag();

        // Deliver one vertex at a time, the way the node does.
        let mut dag = Dag::new(c.clone());
        let mut e = engine(&c);
        let mut deliver = |round: u64| -> Vec<Vec<u64>> {
            let mut vs: Vec<_> = full.round_vertices(Round(round)).cloned().collect();
            vs.sort_by_key(|v| v.author());
            vs.iter()
                .map(|v| {
                    dag.try_insert_arc(v.clone()).unwrap();
                    e.process_vertex(v, &dag).iter().map(|sd| sd.anchor.round.0).collect()
                })
                .collect()
        };
        let none = Vec::<u64>::new();

        // Round 0 holds no votes. In round 1 the first vote is below the
        // validity threshold (f+1 = 2), the second commits the round-0
        // anchor, the rest change nothing.
        assert_eq!(deliver(0), vec![none.clone(); 4]);
        assert_eq!(deliver(1), vec![none.clone(), vec![0], none.clone(), none.clone()]);
        // The next round's vertices are no trigger any more.
        assert_eq!(deliver(2), vec![none.clone(); 3]);
        // Votes for an anchor that is not there commit nothing.
        assert_eq!(deliver(3), vec![none.clone(); 4]);
        assert_eq!(deliver(4), vec![none.clone(); 4]);
        assert_eq!(deliver(5), vec![none.clone(), vec![4], none.clone(), none.clone()]);
        assert_eq!(deliver(6), vec![none.clone(); 4]);
    }

    #[test]
    fn commit_chain_hash_tracks_sequence() {
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(7);
        let dag = b.into_dag();
        let mut e1 = engine(&c);
        let mut e2 = engine(&c);
        feed_all(&mut e1, &dag, 6);
        feed_all(&mut e2, &dag, 4); // shorter prefix
        assert_ne!(e1.chain_hash(), e2.chain_hash());
        // Prefix property: e2's anchors are a prefix of e1's.
        assert_eq!(&e1.committed_anchors()[..e2.committed_anchors().len()], e2.committed_anchors());
    }

    #[test]
    fn gc_bounds_the_ordered_set_without_changing_commits() {
        // 160 rounds against a GC depth of 10, the way `Validator` drives
        // it: after every commit the DAG drops what lies more than
        // `GC_DEPTH` rounds below the anchor, and the engine follows the
        // DAG's horizon. Every twelfth round loses its leader, so some
        // anchors are skipped and bridged.
        const ROUNDS: u64 = 160;
        const GC_DEPTH: u64 = 10;
        const SLACK: u64 = 6;
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        for r in 0..ROUNDS {
            if r % 12 == 6 {
                b.extend_round_without(&[ValidatorId((r / 2 % 4) as u16)]);
            } else {
                b.extend_full_rounds(1);
            }
        }
        let full = b.into_dag();

        let run = |gc_depth: Option<u64>| {
            let mut dag = Dag::new(c.clone());
            let mut e = engine(&c);
            let mut commits = Vec::new();
            let mut peak = 0;
            for r in 0..ROUNDS {
                for v in full.round_vertices(Round(r)) {
                    dag.try_insert_arc(v.clone()).unwrap();
                    for sd in e.process_vertex(v, &dag) {
                        if let Some(h) = gc_depth.and_then(|d| sd.anchor.round.0.checked_sub(d)) {
                            dag.gc(Round(h));
                        }
                        commits.push(sd);
                    }
                    peak = peak.max(e.ordered.len());
                }
            }
            (e.chain_hash(), commits, peak)
        };
        let (hash, commits, peak) = run(Some(GC_DEPTH));
        let (full_hash, full_commits, full_peak) = run(None);

        assert!(commits.len() > 60, "only {} commits", commits.len());
        assert_eq!(hash, full_hash);
        assert_eq!(commits.len(), full_commits.len());
        for (a, b) in commits.iter().zip(&full_commits) {
            assert_eq!((a.anchor, a.commit_index), (b.anchor, b.commit_index));
            let digests = |sd: &CommittedSubDag| -> Vec<Digest> {
                sd.vertices.iter().map(|v| v.digest()).collect()
            };
            assert_eq!(digests(a), digests(b), "sub-DAG of commit {}", a.commit_index);
        }
        let bound = ((GC_DEPTH + SLACK) * 4) as usize;
        assert!(peak <= bound, "ordered set peaked at {peak} entries, bound {bound}");
        assert!(full_peak > 8 * bound, "unpruned run only reached {full_peak} entries");
    }
}
