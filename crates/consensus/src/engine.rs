//! The Bullshark commit engine (Algorithm 2's `TryCommitting`,
//! `orderAnchors`, `orderHistory`) run one commit instance per ordered
//! round (Shoal's pipelining), with the policy's earned anchor candidates
//! beside each candidate round's leader (Mysticeti's slots), generic over
//! the schedule policy.

use crate::ordered::OrderedSet;
use crate::policy::{ScheduleDecision, SchedulePolicy};
use hh_crypto::{Digest, Sha256};
use hh_dag::{Dag, SubDagScratch};
use hh_types::{Committee, Round, Stake, ValidatorId, Vertex, VertexRef};
use std::sync::Arc;

/// One decided round's committed anchors and the sub-DAG they order.
#[derive(Clone, Debug)]
pub struct CommittedSubDag {
    /// The round's first committed anchor: its leader vertex when that
    /// committed, otherwise the best-ranked earned candidate's.
    pub anchor: VertexRef,
    /// Position in the total order of commits (0-based).
    pub commit_index: u64,
    /// The schedule epoch the round was committed under.
    pub schedule_epoch: u64,
    /// All newly ordered vertices: each committed anchor's not-yet-ordered
    /// causal history in ascending `(round, author)` order, the anchors
    /// taken in slot order, so the round's anchors are the only vertices of
    /// `anchor.round`.
    pub vertices: Vec<Arc<Vertex>>,
}

/// What the local DAG decides about one anchor slot.
#[derive(Clone, Copy, Debug)]
enum Decision<'d> {
    Commit(&'d Arc<Vertex>),
    Skip,
    Undecided,
}

/// Per candidate round of the instance, by `(round − instance_start) / 2`:
/// the anchor that decides its slots indirectly, once looked for (`None`
/// inside: none yet, or the first one above is undecided).
type AnchorMemo<'d> = Vec<Option<Option<&'d Arc<Vertex>>>>;

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
    /// the last ordered round afterwards (the paper's `lastOrderedRound`,
    /// plus one). It is the floor of every decision and fixes which rounds
    /// hold anchor candidates; it advances only when a round is ordered.
    instance_start: Round,
    commit_index: u64,
    /// Running hash over the commit sequence (anchor digests in order).
    chain_hash: Digest,
    /// The first anchor of every commit, kept for agreement assertions and
    /// monitoring.
    committed_anchors: Vec<VertexRef>,
    /// Leader slots the ordered prefix decided skip.
    passed_over: u64,
    /// Of those, the ones whose round was ordered on its earned anchors.
    passed_over_in_ordered_rounds: u64,
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
            passed_over: 0,
            passed_over_in_ordered_rounds: 0,
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

    /// The first anchor of every commit, in commit order.
    pub fn committed_anchors(&self) -> &[VertexRef] {
        &self.committed_anchors
    }

    /// How many candidate rounds' leader slots the ordered prefix decided
    /// skip — Lemma 6's skipped leader rounds. A round ordered on its
    /// earned anchors counts when its leader did not commit.
    pub fn passed_over_candidates(&self) -> u64 {
        self.passed_over
    }

    /// How many candidate rounds' leader slots the ordered prefix decided:
    /// every ordered round's, and every passed-over round's below it.
    pub fn leader_rounds(&self) -> u64 {
        self.commit_index + self.passed_over - self.passed_over_in_ordered_rounds
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

    /// Whether `round` holds anchor candidates of the current commit
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

    /// Algorithm 2's `TryCommitting`, run where a candidate's votes change
    /// and restarted above every ordered round. Call with every delivered
    /// vertex, after it entered `dag`; returns the sub-DAGs this vertex's
    /// arrival committed (usually empty).
    ///
    /// **Slots.** The engine runs one commit *instance* at a time. An
    /// instance starts at `instance_start` (round 0 at genesis) and its
    /// candidate rounds are `instance_start, instance_start + 2, …`. A
    /// candidate round `r` holds anchor *slots*: its active-schedule
    /// leader's first, then the policy's earned candidates in rank order
    /// ([`SchedulePolicy::candidates_at`]). Each slot is decided commit,
    /// skip, or not yet:
    ///
    /// * the leader slot commits directly once round-`r+1` vertices linking
    ///   to its vertex — its votes — carry validity-threshold stake
    ///   (`f+1`); otherwise the instance's next committed anchor above
    ///   decides it, commit iff that anchor reaches it;
    /// * an earned slot commits directly at quorum (`2f+1`) vote stake, and
    ///   is skipped directly once round-`r+1` vertices not linking to it
    ///   carry quorum stake; otherwise the next committed anchor above
    ///   decides it, commit iff the round-`r+1` vertices in that anchor's
    ///   causal history carry `f+1` vote stake for it.
    ///
    /// The anchor that decides round `r`'s slots indirectly is the first
    /// slot of the candidate rounds `r+2, r+4, …`, in slot order, that is
    /// not decided skip; if it is undecided, so is the slot. From
    /// `instance_start` up, the first round none of whose slots is
    /// undecided and some of whose slots commit is ordered: the committed
    /// anchors' histories in slot order, one [`CommittedSubDag`]. Rounds
    /// below it were all skip. Ordering stops at the first undecided slot.
    /// The next instance starts one round above the ordered round, and
    /// every round from there up is decided again. In a DAG where the
    /// round above votes for every candidate, a transaction in a
    /// candidate's vertex is ordered by its own round's votes, one round
    /// before the leader one round up would order it.
    ///
    /// **Trigger.** A slot's votes change only when a vertex of the round
    /// above it is inserted — children enter the DAG after their parents —
    /// and so do its non-votes and every decision built on them. The rule
    /// therefore runs on delivery of `v` when round `v.round − 1` is a
    /// candidate round. A [`ScheduleDecision::Switched`] renames the slots
    /// of every round from the switching anchor's up, and the instance is
    /// decided again under the new schedule.
    ///
    /// **Invariant.** When this returns, deciding the current instance
    /// again on the same DAG orders nothing. Nothing at or above
    /// `instance_start` is ordered.
    ///
    /// **Safety.** Per instance, then by induction over instances.
    /// Validators that agree on the ordered prefix agree on
    /// `instance_start`, the schedule and the candidacy — the policy is a
    /// function of the ordered prefix at a fixed point in the sequence —
    /// hence on every slot. Within an instance a validator's decision of a
    /// slot is the one every validator reaches, if it reaches one:
    ///
    /// * any two quorums of round `r+1` share `f+1` stake, and every anchor
    ///   at round `r+2` or above has a quorum of round `r+1` in its history:
    ///   an earned slot's direct commit (`2f+1` votes) forces the indirect
    ///   commit (`f+1` of them in the anchor's history). A leader's `f+1`
    ///   voters meet that quorum, so the anchor reaches the leader;
    /// * a quorum of non-votes leaves at most `f` votes anywhere, so a
    ///   direct skip forces the indirect skip. Direct commit and direct skip
    ///   need two disjoint quorums and exclude each other;
    /// * the anchor of an indirect decision is the same at every validator
    ///   that has one, by induction from the top (Mysticeti's argument): a
    ///   slot above that one validator decided skip is skip wherever it is
    ///   decided, so nobody takes a later slot while an earlier one may
    ///   still commit, and the anchor's causal history is the same
    ///   everywhere.
    ///
    /// So every validator orders the same round with the same anchors — or
    /// switches schedules at its first anchor, a function of the ordered
    /// prefix and that anchor, and repeats the argument under the new
    /// schedule — and agrees on the next `instance_start` and on everything
    /// after it. Safety needs only that the votes exist, not when a
    /// validator notices them, so the order is a function of the DAG alone.
    pub fn process_vertex(&mut self, v: &Arc<Vertex>, dag: &Dag) -> Vec<CommittedSubDag> {
        let mut outputs = Vec::new();
        // Round-0 vertices vote for nothing.
        if v.round().0.checked_sub(1).is_some_and(|r| self.is_candidate_round(Round(r))) {
            // An ordered round moves `instance_start` above itself and a
            // switch moves the schedule's initial round up, so this ends.
            while self.try_order(dag, &mut outputs) {}
        }
        outputs
    }

    /// The slots of `round`: its leader's (`true`), then the earned
    /// candidates' in rank order.
    fn slots(&self, round: Round) -> impl DoubleEndedIterator<Item = (bool, ValidatorId)> + '_ {
        let leader = self.policy.leader_at(round);
        std::iter::once((true, leader)).chain(
            self.policy
                .candidates_at(round)
                .iter()
                .filter(move |c| **c != leader)
                .map(|c| (false, *c)),
        )
    }

    /// Decides `author`'s slot in candidate round `round`: directly from
    /// the round above, else from the anchor above (see
    /// [`Bullshark::process_vertex`]).
    fn decide<'d>(
        &self,
        round: Round,
        leads: bool,
        author: ValidatorId,
        dag: &'d Dag,
        memo: &mut AnchorMemo<'d>,
    ) -> Decision<'d> {
        let vertex = dag.vertex_by_author(round, author);
        // Votes are read off the voting round's parent masks, one bit per
        // author, over the whole local DAG: once they exist, whoever looks
        // finds them.
        let votes = || vertex.map_or(Stake(0), |v| dag.vote_stake(v));
        if leads {
            if let Some(v) = vertex.filter(|_| votes() >= self.committee.validity_threshold()) {
                return Decision::Commit(v);
            }
        } else {
            // Neither votes nor non-votes reach a quorum before the round
            // above does.
            let quorum = self.committee.quorum_threshold();
            let voting = dag.round_stake(round.next());
            if voting >= quorum {
                let votes = votes();
                match vertex {
                    Some(v) if votes >= quorum => return Decision::Commit(v),
                    _ if voting.0 - votes.0 >= quorum.0 => return Decision::Skip,
                    _ => {}
                }
            }
        }
        let Some(anchor) = self.anchor_above(round, dag, memo) else {
            return Decision::Undecided;
        };
        match vertex {
            Some(v) if leads && dag.reachable(anchor, v) => Decision::Commit(v),
            Some(v) if !leads && self.votes_seen_by(anchor, v, dag) => Decision::Commit(v),
            _ => Decision::Skip,
        }
    }

    /// Whether the round-`v.round+1` vertices in `anchor`'s causal history
    /// carry validity-threshold vote stake for `v`.
    fn votes_seen_by(&self, anchor: &Vertex, v: &Vertex, dag: &Dag) -> bool {
        let seen: Stake = dag
            .round_vertices(v.round().next())
            .filter(|w| dag.links_to_author(w, v.author()) && dag.reachable(anchor, w))
            .map(|w| self.committee.stake_of(w.author()))
            .sum();
        seen >= self.committee.validity_threshold()
    }

    /// The anchor that decides candidate round `round`'s slots indirectly:
    /// the first slot of a higher candidate round, in slot order, not
    /// decided skip — `None` if there is none yet or it is undecided.
    fn anchor_above<'d>(
        &self,
        round: Round,
        dag: &'d Dag,
        memo: &mut AnchorMemo<'d>,
    ) -> Option<&'d Arc<Vertex>> {
        // A slot of the DAG's top round has neither votes nor non-votes.
        let top = dag.highest_round().unwrap_or(round);
        if round + 2 >= top {
            return None;
        }
        let key = ((round.0 - self.instance_start.0) / 2) as usize;
        if let Some(Some(known)) = memo.get(key) {
            return *known;
        }
        let mut found = None;
        let mut r = round + 2;
        'rounds: while r < top {
            for (leads, author) in self.slots(r) {
                match self.decide(r, leads, author, dag, memo) {
                    Decision::Skip => {}
                    Decision::Commit(v) => {
                        found = Some(v);
                        break 'rounds;
                    }
                    Decision::Undecided => break 'rounds,
                }
            }
            r = r + 2;
        }
        if memo.len() <= key {
            memo.resize(key + 1, None);
        }
        memo[key] = Some(found);
        found
    }

    /// Decides the current instance from `instance_start` up to the first
    /// round with a committed slot and orders that round, unless the policy
    /// switches schedules at its first anchor. Returns whether anything
    /// changed: a round ordered or a schedule switched.
    fn try_order(&mut self, dag: &Dag, outputs: &mut Vec<CommittedSubDag>) -> bool {
        let Some(top) = dag.highest_round() else {
            return false;
        };
        let mut memo = AnchorMemo::new();
        // Leader slots decided skip in the rounds passed over so far.
        let mut passed = 0;
        let mut round = self.instance_start;
        while round < top {
            // A round is ordered only with every slot decided, and no
            // decision depends on the order slots are looked at: last first
            // finds a still undecided earned slot before the leader's votes
            // are counted.
            let mut committed = Vec::new();
            let mut leader_skipped = false;
            for (leads, author) in self.slots(round).rev() {
                match self.decide(round, leads, author, dag, &mut memo) {
                    Decision::Commit(v) => committed.push(v),
                    Decision::Skip => leader_skipped |= leads,
                    Decision::Undecided => return false,
                }
            }
            committed.reverse();
            let Some(first) = committed.first() else {
                passed += 1;
                round = round + 2;
                continue;
            };
            return match self.policy.before_order_anchor(first, dag, &self.ordered) {
                // Lines 30-33: a new schedule starts at `first`'s round.
                ScheduleDecision::Switched => true,
                // Lines 27-37 (`orderHistory`).
                ScheduleDecision::Continue => {
                    let leader_skipped = u64::from(leader_skipped);
                    self.passed_over += passed + leader_skipped;
                    self.passed_over_in_ordered_rounds += leader_skipped;
                    outputs.push(self.order_round(&committed, dag));
                    true
                }
            };
        }
        false
    }

    /// Orders the committed anchors' not-yet-ordered causal histories in
    /// slot order (lines 34-37), advances the commit bookkeeping and starts
    /// the next instance one round above them.
    fn order_round(&mut self, anchors: &[&Arc<Vertex>], dag: &Dag) -> CommittedSubDag {
        // Only DAG-resident vertices are ever looked up, so marks below
        // the DAG's GC horizon are dead weight that would otherwise grow
        // for as long as the node runs.
        self.ordered.forget_below(dag.gc_round());
        let mut vertices = Vec::new();
        let mut h = Sha256::new();
        h.update(self.chain_hash.as_bytes());
        for anchor in anchors {
            // Ordering delivers whole histories, so an anchor whose parents
            // are all ordered brings only itself — as every earned anchor
            // of a round whose round below was ordered whole does.
            // Otherwise "in some deterministic order": the indexed walk
            // already emits ascending (round, author).
            let ordered = &self.ordered;
            let history = if ordered.contains_all(anchor.round().prev(), anchor.parent_authors()) {
                vec![Arc::clone(anchor)]
            } else {
                dag.causal_sub_dag_with(anchor, |v| ordered.contains(v), &mut self.scratch)
            };
            for v in &history {
                self.ordered.insert(v);
                self.policy.on_vertex_ordered(v, dag, &self.ordered);
            }
            vertices.extend(history);
            h.update(anchor.digest().as_bytes());
        }
        self.chain_hash = h.finalize();
        let anchor = anchors[0].reference();
        self.instance_start = anchor.round.next();
        let commit_index = self.commit_index;
        self.commit_index += 1;
        self.committed_anchors.push(anchor);

        CommittedSubDag { anchor, commit_index, schedule_epoch: self.policy.epoch(), vertices }
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

    /// Round-robin leaders and the same earned candidates in every round.
    struct Earned {
        leaders: RoundRobinPolicy,
        candidates: Vec<ValidatorId>,
    }

    impl SchedulePolicy for Earned {
        fn leader_at(&self, round: Round) -> ValidatorId {
            self.leaders.leader_at(round)
        }
        fn candidates_at(&self, _round: Round) -> &[ValidatorId] {
            &self.candidates
        }
        fn initial_round(&self) -> Round {
            Round(0)
        }
        fn epoch(&self) -> u64 {
            0
        }
        fn before_order_anchor(&mut self, _: &Vertex, _: &Dag, _: &OrderedSet) -> ScheduleDecision {
            ScheduleDecision::Continue
        }
        fn on_vertex_ordered(&mut self, _: &Vertex, _: &Dag, _: &OrderedSet) {}
    }

    fn earned_engine(c: &Committee, candidates: &[u16]) -> Bullshark<Earned> {
        let leaders = RoundRobinPolicy::new(SlotSchedule::round_robin(c));
        let candidates = candidates.iter().map(|i| ValidatorId(*i)).collect();
        Bullshark::new(c.clone(), Earned { leaders, candidates })
    }

    /// Feeds all vertices of rounds `0..=max` in (round, author) order.
    fn feed_all<P: SchedulePolicy>(
        engine: &mut Bullshark<P>,
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

    /// Inserts `full`'s rounds into a fresh DAG one vertex at a time in
    /// (round, author) order, and lists per round, per delivered vertex,
    /// the anchor rounds its delivery committed.
    fn per_delivery<P: SchedulePolicy>(
        engine: &mut Bullshark<P>,
        full: &Dag,
        rounds: u64,
    ) -> Vec<Vec<Vec<u64>>> {
        let mut dag = Dag::new(full.committee().clone());
        (0..rounds)
            .map(|r| {
                let mut vs: Vec<_> = full.round_vertices(Round(r)).cloned().collect();
                vs.sort_by_key(|v| v.author());
                vs.iter()
                    .map(|v| {
                        dag.try_insert_arc(v.clone()).unwrap();
                        engine.process_vertex(v, &dag).iter().map(|sd| sd.anchor.round.0).collect()
                    })
                    .collect()
            })
            .collect()
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
        assert_eq!((e.passed_over_candidates(), e.leader_rounds()), (0, 8));
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
        // Round 2's leader slot is the one passed over; round 3 held none.
        assert_eq!((e.passed_over_candidates(), e.leader_rounds()), (1, 7));
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
        per_delivery(&mut engine(&c), &full, 7).into_iter().map(|r| r.concat()).collect()
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
        let none = Vec::<u64>::new();

        // Round 0 holds no votes. In round 1 the first vote is below the
        // validity threshold (f+1 = 2), the second commits the round-0
        // anchor, the rest change nothing. The next instance starts at
        // round 1: round 2 holds its votes. Votes for a candidate that is
        // not there commit nothing (round 3), nor do votes for a round
        // that holds no candidate (round 4): the instance started at round
        // 2, so its next one is in round 4, although v1, whose slot round
        // 3 is too, has a vertex there.
        assert_eq!(
            per_delivery(&mut engine(&c), &full, 7),
            vec![
                vec![none.clone(); 4],
                vec![none.clone(), vec![0], none.clone(), none.clone()],
                vec![none.clone(), vec![1], none.clone()],
                vec![none.clone(); 4],
                vec![none.clone(); 4],
                vec![none.clone(), vec![4], none.clone(), none.clone()],
                vec![none.clone(), vec![5], none.clone(), none],
            ]
        );
    }

    #[test]
    fn earned_candidates_commit_at_quorum_votes_in_their_own_round() {
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(5); // rounds 0..=4
        let full = b.into_dag();
        let none = Vec::<u64>::new();
        // Everyone is a candidate: a round's leader commits with its second
        // vote as before, but the round is ordered with the third, the
        // quorum the earned slots wait for.
        let mut e = earned_engine(&c, &[0, 1, 2, 3]);
        for (r, deliveries) in per_delivery(&mut e, &full, 5).into_iter().enumerate().skip(1) {
            assert_eq!(deliveries, [none.clone(), none.clone(), vec![r as u64 - 1], none.clone()]);
        }
        // Each commit orders its whole round, leader first.
        let mut e = earned_engine(&c, &[3, 2, 1, 0]);
        let commits = feed_all(&mut e, &full, 4);
        assert_eq!(commits.len(), 4);
        for (r, cmt) in commits.iter().enumerate() {
            let own: Vec<u16> = cmt
                .vertices
                .iter()
                .filter(|v| v.round().0 == r as u64)
                .map(|v| v.author().0)
                .collect();
            let leader = (r / 2) as u16;
            let mut slots = vec![leader];
            slots.extend([3, 2, 1, 0].into_iter().filter(|a| *a != leader));
            assert_eq!(own, slots, "round {r}");
            assert_eq!(cmt.anchor.author.0, leader);
        }
        // The chain hash covers every committed slot.
        assert_ne!(e.chain_hash(), feed_and_hash(&mut engine(&c), &full));
    }

    fn feed_and_hash<P: SchedulePolicy>(e: &mut Bullshark<P>, dag: &Dag) -> Digest {
        feed_all(e, dag, dag.highest_round().unwrap().0);
        e.chain_hash()
    }

    #[test]
    fn an_earned_anchor_in_a_passed_over_leader_round_counts_the_leader_as_skipped() {
        // Round 2's leader v1 is absent; v0, v2 and v3 are earned
        // candidates and hold quorum votes. The leader slot stays undecided
        // until round 4's leader commits and does not reach it, then round
        // 2 is ordered on its earned anchors: a commit in a round whose
        // leader was passed over. Lemma 6 counts the leader slot all the
        // same, and the anchor rounds alone would not show it; the round
        // is one leader round, not two.
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(2);
        b.extend_round_without(&[ValidatorId(1)]);
        b.extend_full_rounds(4); // rounds 3..=6
        let full = b.into_dag();
        let mut e = earned_engine(&c, &[0, 2, 3]);
        let per_round: Vec<Vec<u64>> =
            per_delivery(&mut e, &full, 7).into_iter().map(|r| r.concat()).collect();
        let none = Vec::<u64>::new();
        assert_eq!(
            per_round,
            vec![none.clone(), vec![0], vec![1], none.clone(), none, vec![2, 3, 4], vec![5]]
        );
        assert_eq!((e.passed_over_candidates(), e.leader_rounds()), (1, 6));
        let round2 = e.committed_anchors()[2];
        assert_eq!((round2.round, round2.author), (Round(2), ValidatorId(0)));
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
