//! The Bullshark commit engine (Algorithm 2's `TryCommitting`,
//! `orderAnchors`, `orderHistory`) run one commit instance per ordered
//! anchor (Shoal's pipelining), generic over the schedule policy.

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
    /// First round of the current commit instance: 0 at genesis, one above
    /// the last ordered anchor afterwards (the paper's `lastOrderedRound`,
    /// plus one). It is the floor of every walk-back and fixes which rounds
    /// hold anchor candidates; it advances only when an anchor is ordered,
    /// never when one is merely looked at.
    instance_start: Round,
    commit_index: u64,
    /// Running hash over the commit sequence (anchor digests in order).
    chain_hash: Digest,
    /// Full anchor sequence, kept for agreement assertions and monitoring.
    committed_anchors: Vec<VertexRef>,
    /// Reusable state for the indexed sub-DAG walk (no per-commit
    /// allocations beyond the delivered vertex list).
    scratch: SubDagScratch,
}

impl<P: SchedulePolicy> Bullshark<P> {
    /// Creates an engine with the given schedule policy.
    pub fn new(committee: Committee, policy: P) -> Self {
        Bullshark {
            ordered: OrderedSet::new(committee.size()),
            committee,
            policy,
            instance_start: Round(0),
            commit_index: 0,
            chain_hash: Digest::ZERO,
            committed_anchors: Vec::new(),
            scratch: SubDagScratch::new(),
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

    /// Whether `round` holds an anchor candidate of the current commit
    /// instance: the instance's first round, or an even number of rounds
    /// above it. The proposer's leader-await asks this.
    pub fn is_candidate_round(&self, round: Round) -> bool {
        round >= self.instance_start && (round.0 - self.instance_start.0).is_multiple_of(2)
    }

    /// The leader of `round` under the currently active schedule — exposed
    /// for the proposer's leader-await logic.
    pub fn current_leader(&self, round: Round) -> ValidatorId {
        self.policy.leader_at(round)
    }

    /// Algorithm 2's `TryCommitting`, run where an anchor's votes change
    /// and restarted above every ordered anchor. Call with every delivered
    /// vertex, after it entered `dag`; returns the sub-DAGs this vertex's
    /// arrival committed (usually empty).
    ///
    /// **Rule.** The engine runs one Bullshark *instance* at a time. An
    /// instance starts at `instance_start` (round 0 at genesis); its anchor
    /// *candidates* are the active-schedule leader vertices of rounds
    /// `instance_start, instance_start + 2, …`. A candidate of round `c`
    /// commits directly once round-`c+1` vertices linking to it carry
    /// validity-threshold stake (`f+1`). The walk-back (`orderAnchors`)
    /// then descends over the instance's candidates down to
    /// `instance_start`, chaining each earlier candidate the chain reaches —
    /// and only the **earliest** anchor of that chain is ordered. The next
    /// instance starts one round above it, and every round from there to
    /// the DAG's top is evaluated again, as candidates of the new instance.
    /// In a DAG where every leader is voted for, every round's leader
    /// vertex is therefore an anchor: the fixed even-round grid cost a
    /// transaction up to two rounds of waiting for the next anchor, this
    /// rule at most one (Shoal, Spiegelman et al., FC 2024, does the same
    /// to Bullshark and leaves who leads to the schedule).
    ///
    /// **Trigger.** A candidate's vote stake changes only when a vertex of
    /// the round above it is inserted — children enter the DAG after their
    /// parents — so the rule runs on delivery of `v`, for round
    /// `v.round − 1` when that is a candidate round: it commits with the
    /// (f+1)-th vote. A [`ScheduleDecision::Switched`] renames the leaders
    /// of every round from the switching anchor's up, so those rounds are
    /// evaluated once more under the new schedule, within the same
    /// instance.
    ///
    /// **Invariant.** When this returns, no candidate round of the current
    /// instance has an active-schedule leader vertex that is in `dag` and
    /// carries validity-threshold vote stake (given the same held before
    /// `v` was inserted). Nothing at or above `instance_start` is ordered.
    ///
    /// **Safety.** Bullshark's argument per instance, induction over
    /// instances. Validators that agree on the ordered prefix agree on
    /// `instance_start` and on the schedule, hence on the instance's
    /// candidates. Inside an instance candidates are two rounds apart:
    /// every vertex of round `c + 2` or above has `2f+1` parents and so
    /// meets one of the `f+1` voters of a directly committed candidate `c`,
    /// which puts `c` in the causal history of every later candidate. Take
    /// the lowest candidate `c*` that ever holds `f+1` votes: whichever
    /// candidate a validator commits directly is `c*` or above it, its
    /// walk-back reaches `c*`, and below `c*` the walk reads only `c*`'s
    /// causal history, which is the same at everyone. All validators thus
    /// order the same earliest anchor — or switch schedules at it, a
    /// function of the ordered prefix and that anchor, and repeat the
    /// argument under the new schedule — and agree on the next
    /// `instance_start` and on everything after it. Safety needs only that
    /// the votes exist, not when a validator notices them, so the order is
    /// a function of the DAG alone.
    pub fn process_vertex(&mut self, v: &Arc<Vertex>, dag: &Dag) -> Vec<CommittedSubDag> {
        let mut outputs = Vec::new();
        // Round-0 vertices vote for nothing.
        let Some(mut round) = v.round().0.checked_sub(1).map(Round) else {
            return outputs;
        };
        if !self.is_candidate_round(round) {
            return outputs;
        }
        let mut last = round;
        while round <= last {
            match self.try_commit(round, dag, &mut outputs) {
                // An ordered anchor moves `instance_start` above itself; a
                // switch starts strictly above the previous one's initial
                // round. Either way the sweep terminates.
                Some(again_from) => {
                    round = again_from;
                    last = dag.highest_round().unwrap_or(last);
                }
                None => round = round + 2,
            }
        }
        outputs
    }

    /// Evaluates the candidate of `anchor_round`: if it holds
    /// validity-threshold votes, orders the earliest anchor of the
    /// current instance it reaches. Returns the round to evaluate again
    /// from when something changed: the new `instance_start` after an
    /// ordered anchor, or the round of the anchor at which the policy
    /// switched schedules (that anchor was derived under the old schedule
    /// and is dropped).
    fn try_commit(
        &mut self,
        anchor_round: Round,
        dag: &Dag,
        outputs: &mut Vec<CommittedSubDag>,
    ) -> Option<Round> {
        let leader = self.policy.leader_at(anchor_round);
        let anchor = dag.vertex_by_author(anchor_round, leader)?; // line 7: no anchor vertex

        // Lines 12-13: validity-threshold stake of votes for the anchor,
        // counted over the whole local DAG ("the anchor has f+1 votes")
        // rather than within one triggering vertex's edges: once f+1
        // voters exist, every quorum of that round contains one, whoever
        // looks. The DAG reads it off the voting round's parent masks, one
        // bit per author.
        if dag.vote_stake(&anchor.digest()) < self.committee.validity_threshold() {
            return None;
        }

        // Lines 15-24 (`orderAnchors`): walk back over the instance's
        // candidates, keeping earlier ones reachable from later ones.
        // Each `reachable` is one frontier-mask descent over the DAG's
        // parent masks, two rounds deep between consecutive candidates.
        // Only the bottom of the chain is ordered now; the rest of it is
        // found again by the instances that follow.
        let mut earliest = anchor;
        let mut r = anchor_round;
        while r.0 >= self.instance_start.0 + 2 {
            r = r - 2;
            if let Some(prev) = dag.vertex_by_author(r, self.policy.leader_at(r)) {
                if dag.reachable(earliest, prev) {
                    earliest = prev;
                }
            }
        }
        let earliest = earliest.clone();

        match self.policy.before_order_anchor(&earliest, dag, &self.ordered) {
            // Lines 30-33: a new schedule starts at `earliest`.
            ScheduleDecision::Switched => Some(earliest.round()),
            // Lines 27-37 (`orderHistory`).
            ScheduleDecision::Continue => {
                outputs.push(self.order_sub_dag(&earliest, dag));
                Some(self.instance_start)
            }
        }
    }

    /// Orders the anchor's not-yet-ordered causal history deterministically
    /// (lines 34-37), advances the commit bookkeeping and starts the next
    /// instance one round above the anchor.
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
        self.instance_start = anchor.round().next();
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

/// The candidate rounds a committed anchor sequence passed over — Lemma
/// 6's skipped leader rounds. The instance above an ordered anchor `a`
/// tries the leaders of rounds `a+1, a+3, …` until it orders the anchor of
/// one, `b`: the passed-over candidates between consecutive ordered
/// anchors `a < b` are `a+1, a+3, …, b−2`, and before the first anchor
/// `0, 2, …`. Rounds that held no candidate of any instance are no leader
/// round and are not counted.
pub fn passed_over_candidates(anchors: &[VertexRef]) -> impl Iterator<Item = Round> + '_ {
    let instance_starts = std::iter::once(0).chain(anchors.iter().map(|a| a.round.0 + 1));
    instance_starts
        .zip(anchors)
        .flat_map(|(start, anchor)| (start..anchor.round.0).step_by(2).map(Round))
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
        // Every round's leader vertex is an anchor; round 8's awaits votes.
        let rounds: Vec<u64> = commits.iter().map(|cmt| cmt.anchor.round.0).collect();
        assert_eq!(rounds, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // Leaders rotate, each slot anchoring its two rounds.
        let leaders: Vec<u16> = commits.iter().map(|cmt| cmt.anchor.author.0).collect();
        assert_eq!(leaders, vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert_eq!(e.commit_count(), 8);
    }

    #[test]
    fn passed_over_candidates_follow_the_instances() {
        let at = |round: u64| VertexRef {
            round: Round(round),
            author: ValidatorId(0),
            digest: Digest::ZERO,
        };
        let rounds = |anchors: &[VertexRef]| -> Vec<u64> {
            passed_over_candidates(anchors).map(|r| r.0).collect()
        };
        assert_eq!(rounds(&[]), Vec::<u64>::new());
        assert_eq!(rounds(&[at(0), at(1), at(2)]), Vec::<u64>::new());
        // Instances start at 0, 5, 6 and 11; the one at 6 passed 6 and 8.
        assert_eq!(rounds(&[at(4), at(5), at(10), at(11)]), vec![0, 2, 6, 8]);
        // An odd start: rounds 4 and 6 held no candidate.
        assert_eq!(rounds(&[at(2), at(7)]), vec![0, 3, 5]);
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
        // Everything below the last anchor's round is ordered (a commit
        // orders the anchor's history through the round below it).
        let last_round = commits.last().unwrap().anchor.round;
        for r in 0..last_round.0 {
            for v in dag.round_vertices(Round(r)) {
                assert!(seen.contains(&v.digest()), "round {r} vertex unordered");
            }
        }
    }

    #[test]
    fn crashed_slot_costs_one_candidate_and_the_next_is_two_rounds_up() {
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        // Rounds 0,1 full. Slot 1 — rounds 2 and 3 — is v1's: leave v1 out.
        b.extend_full_rounds(2);
        b.extend_round_without(&[ValidatorId(1)]);
        b.extend_round_without(&[ValidatorId(1)]);
        b.extend_full_rounds(5); // rounds 4..=8
        let dag = b.into_dag();
        let mut e = engine(&c);
        let commits = feed_all(&mut e, &dag, 8);
        let rounds: Vec<u64> = commits.iter().map(|cmt| cmt.anchor.round.0).collect();
        // The instance above anchor 1 finds no candidate in round 2 and
        // has its next one in round 4: round 3 never holds a candidate, so
        // the crashed slot is tried once. Its rounds' vertices are swept up
        // by round 4's anchor, and the grid is back to every round.
        assert_eq!(rounds, vec![0, 1, 4, 5, 6, 7]);
        let r4 = commits.iter().find(|cmt| cmt.anchor.round.0 == 4).unwrap();
        for skipped in [2, 3] {
            assert_eq!(
                r4.vertices.iter().filter(|v| v.round().0 == skipped).count(),
                3,
                "round-{skipped} vertices ordered transitively"
            );
        }
    }

    /// Rounds 0..=6 of four validators, full but for round 3, where only
    /// `voters` link to the round-2 candidate (v1's vertex; the validity
    /// threshold is 2), delivered one round at a time: the anchor rounds
    /// each round's delivery committed.
    fn commits_per_round_with_round_2_voters(voters: &'static [ValidatorId]) -> Vec<Vec<u64>> {
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(3); // rounds 0,1,2
        b.extend_round_custom(&c.ids().collect::<Vec<_>>(), move |voter| {
            (!voters.contains(&voter)).then(|| vec![ValidatorId(1)])
        }); // round 3
        b.extend_full_rounds(3); // rounds 4,5,6
        let full = b.into_dag();
        let mut dag = Dag::new(c.clone());
        let mut e = engine(&c);
        (0..=6)
            .map(|r| {
                let mut committed = Vec::new();
                for v in full.round_vertices(Round(r)) {
                    dag.try_insert_arc(v.clone()).unwrap();
                    committed.extend(e.process_vertex(v, &dag).iter().map(|sd| sd.anchor.round.0));
                }
                committed
            })
            .collect()
    }

    #[test]
    fn candidate_short_of_votes_is_bridged_and_the_instance_restarts_above_it() {
        // One vote for the round-2 candidate. Round 4's commits directly in
        // round 5 and reaches it through the voter's round-3 vertex — and
        // only it, the earliest, is ordered: the next instance starts at
        // round 3, whose leader vertex holds its votes already, then
        // round 4's is found again.
        let per_round = commits_per_round_with_round_2_voters(&[ValidatorId(0)]);
        let none = Vec::<u64>::new();
        assert_eq!(
            per_round,
            vec![none.clone(), vec![0], vec![1], none.clone(), none, vec![2, 3, 4], vec![5]]
        );
    }

    #[test]
    fn candidate_nobody_links_to_is_passed_over() {
        // No round-3 vertex links to the round-2 candidate: round 4's walk
        // back does not reach it, and the next instance starts at round 5.
        let per_round = commits_per_round_with_round_2_voters(&[]);
        let none = Vec::<u64>::new();
        assert_eq!(
            per_round,
            vec![none.clone(), vec![0], vec![1], none.clone(), none, vec![4], vec![5]]
        );
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
        b.extend_full_rounds(4); // rounds 3..=6, v1 back
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
        // The next instance starts at round 1: round 2 holds its votes.
        assert_eq!(deliver(2), vec![none.clone(), vec![1], none.clone()]);
        // Votes for a candidate that is not there commit nothing.
        assert_eq!(deliver(3), vec![none.clone(); 4]);
        // Nor do votes for a round that holds no candidate: the instance
        // started at round 2, so its next one is in round 4, although v1,
        // whose slot round 3 is too, has a vertex there.
        assert_eq!(deliver(4), vec![none.clone(); 4]);
        assert_eq!(deliver(5), vec![none.clone(), vec![4], none.clone(), none.clone()]);
        assert_eq!(deliver(6), vec![none.clone(), vec![5], none.clone(), none.clone()]);
    }

    #[test]
    fn commit_chain_hash_tracks_sequence() {
        let c = committee4();
        // The builder is deterministic: the shorter DAG is a prefix.
        let dag_of = |rounds: usize| {
            let mut b = DagBuilder::new(c.clone());
            b.extend_full_rounds(rounds);
            b.into_dag()
        };
        let mut e1 = engine(&c);
        let mut e2 = engine(&c);
        feed_all(&mut e1, &dag_of(7), 6);
        feed_all(&mut e2, &dag_of(5), 4);
        assert_ne!(e1.chain_hash(), e2.chain_hash());
        assert_eq!(e2.commit_count(), 4);
        // Prefix property: e2's anchors are a prefix of e1's.
        assert_eq!(&e1.committed_anchors()[..e2.committed_anchors().len()], e2.committed_anchors());
    }

    #[test]
    fn gc_bounds_the_ordered_set_without_changing_commits() {
        // 160 rounds against a GC depth of 10, the way `Validator` drives
        // it: after every commit the DAG drops what lies more than
        // `GC_DEPTH` rounds below the anchor, and the engine follows the
        // DAG's horizon. Every twelfth round loses its leader, so some
        // candidates are passed over.
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
