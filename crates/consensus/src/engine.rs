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

/// A round's leader, or its earned anchors, and the sub-DAG they order.
#[derive(Clone, Debug)]
pub struct CommittedSubDag {
    /// The commit's first anchor: the round's leader vertex, or its
    /// best-ranked committed earned candidate's.
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
    /// hold anchor candidates; it advances only when a round is ordered
    /// whole.
    instance_start: Round,
    /// Whether `instance_start`'s leader committed and is ordered: its
    /// earned slots are then the round's rest, a commit of their own. The
    /// leader's commit moves `instance_start` to its round, not above it.
    leader_ordered: bool,
    commit_index: u64,
    /// Running hash over the commit sequence (anchor digests in order).
    chain_hash: Digest,
    /// The first anchor of the latest commit (monitoring). The agreement
    /// summary is `commit_index` and `chain_hash`; the whole sequence is
    /// what the returned [`CommittedSubDag`]s name, in order.
    last_anchor: Option<VertexRef>,
    /// Leader slots the ordered prefix decided skip.
    passed_over: u64,
    /// Leader slots the ordered prefix decided: each ordered round's, and
    /// each passed-over round's below it.
    leader_rounds: u64,
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
            leader_ordered: false,
            commit_index: 0,
            chain_hash: Digest::ZERO,
            last_anchor: None,
            passed_over: 0,
            leader_rounds: 0,
            scratch: SubDagScratch::new(),
        }
    }

    /// The schedule policy (e.g. to inspect reputation state).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The schedule policy, to hand over what it records (the HammerHead
    /// policy's epoch summaries). Changing its schedule breaks agreement.
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Number of commits so far.
    pub fn commit_count(&self) -> u64 {
        self.commit_index
    }

    /// The first anchor of the latest commit, `commit_count() − 1`; `None`
    /// before the first.
    pub fn last_anchor(&self) -> Option<&VertexRef> {
        self.last_anchor.as_ref()
    }

    /// How many candidate rounds' leader slots the ordered prefix decided
    /// skip — Lemma 6's skipped leader rounds. A round ordered on its
    /// earned anchors counts when its leader did not commit.
    pub fn passed_over_candidates(&self) -> u64 {
        self.passed_over
    }

    /// How many candidate rounds' leader slots the ordered prefix decided:
    /// every ordered round's, and every passed-over round's below it. A
    /// round is one leader round however many commits order it.
    pub fn leader_rounds(&self) -> u64 {
        self.leader_rounds
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
    ///   causal history carry `f+1` vote stake for it;
    /// * the leader slot of a leader the ordered prefix has not heard from
    ///   ([`SchedulePolicy::heard_from`]) is decided by the earned-slot
    ///   rule, so a silent leader's round is skipped at its round above's
    ///   quorum instead of at the anchor two rounds up. It is still the
    ///   round's leader slot for [`Bullshark::passed_over_candidates`].
    ///
    /// The anchor that decides round `r`'s slots indirectly is the first
    /// slot of the candidate rounds `r+2, r+4, …`, in slot order, that is
    /// not decided skip; if it is undecided, so is the slot.
    ///
    /// **Commits.** From `instance_start` up, the first round with a
    /// committed slot is ordered, in up to two commits, each one
    /// [`CommittedSubDag`]. Its leader's slot is decided first: once it
    /// commits, the leader's history is a commit of its own, whatever the
    /// round's earned slots still wait for. Then the earned slots, named
    /// after that commit was ordered: once none is undecided, the committed
    /// ones' histories in slot order are the second commit. A round whose
    /// leader slot is skip is ordered in one commit, once none of its slots
    /// is undecided and some commit. Rounds below it were all skip.
    /// Ordering stops at the first undecided slot. The next instance
    /// starts one round above the ordered round, and every round from
    /// there up is decided again. In a DAG where the round above votes for
    /// every candidate, a leader's transactions are ordered at its
    /// (f+1)-th vote and every other candidate's at its own (2f+1)-th, one
    /// round before the leader one round up would order them.
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
    /// `instance_start` is ordered but its leader's vertex, once that
    /// committed.
    ///
    /// **Safety.** Per instance, then by induction over instances.
    /// Validators that agree on the ordered prefix agree on
    /// `instance_start`, the schedule, the candidacy and whom it has heard
    /// from — the policy is a function of the ordered prefix at a fixed
    /// point in the sequence — hence on every slot and on the rule that
    /// decides it. Within an instance a validator's decision of a slot is
    /// the one every validator reaches, if it reaches one:
    ///
    /// * any two quorums of round `r+1` share `f+1` stake, and every anchor
    ///   at round `r+2` or above has a quorum of round `r+1` in its history:
    ///   a direct commit at `2f+1` votes (an earned slot's, or a silent
    ///   leader's) forces the indirect commit (`f+1` of them in the
    ///   anchor's history). An awaited leader's `f+1` voters meet that
    ///   quorum, so the anchor reaches the leader;
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
    ///
    /// The split into two commits keeps this. Where a commit ends is a
    /// function of the DAG: a committed leader is its own commit in every
    /// delivery order, even at a validator that receives all of the round
    /// above at once. The round's earned slots are named after the leader's
    /// commit is ordered, which closes round `r − 2` and may grant or
    /// revoke candidacy or make a leader heard from; that state is a
    /// function of the ordered prefix, now one commit longer, so every
    /// validator decides those slots under the same names. A schedule
    /// boundary is a round, so only a round's first commit can switch, and
    /// the earned commit of a round whose leader committed is not shown to
    /// the policy. Round-robin names no candidates: its commits, their
    /// boundaries and the chain hash are those of one commit per round.
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
    fn slots(&self, round: Round) -> impl Iterator<Item = (bool, ValidatorId)> + '_ {
        let leader = self.policy.leader_at(round);
        std::iter::once((true, leader)).chain(self.earned(round).map(|c| (false, c)))
    }

    /// The earned candidates of `round` in rank order, its leader left out.
    fn earned(&self, round: Round) -> impl DoubleEndedIterator<Item = ValidatorId> + '_ {
        let leader = self.policy.leader_at(round);
        self.policy.candidates_at(round).iter().copied().filter(move |c| *c != leader)
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
        // A leader the ordered prefix never heard from has its slot decided
        // the way an earned one is.
        let awaited = leads && self.policy.heard_from(author);
        // Votes are read off the voting round's parent masks, one bit per
        // author, over the whole local DAG: once they exist, whoever looks
        // finds them.
        let votes = || vertex.map_or(Stake(0), |v| dag.vote_stake(v));
        if awaited {
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
            Some(v) if awaited && dag.reachable(anchor, v) => Decision::Commit(v),
            Some(v) if !awaited && self.votes_seen_by(anchor, v, dag) => Decision::Commit(v),
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
    /// round with a committed slot and orders its next commit, unless the
    /// policy switches schedules at the commit's first anchor. Returns
    /// whether anything changed: a commit ordered, a round finished or a
    /// schedule switched.
    fn try_order(&mut self, dag: &Dag, outputs: &mut Vec<CommittedSubDag>) -> bool {
        let Some(top) = dag.highest_round() else {
            return false;
        };
        let mut memo = AnchorMemo::new();
        // Leader slots decided skip so far.
        let mut skipped = 0;
        let mut round = self.instance_start;
        while round < top {
            let leader_ordered = round == self.instance_start && self.leader_ordered;
            if !leader_ordered {
                let leader = self.policy.leader_at(round);
                match self.decide(round, true, leader, dag, &mut memo) {
                    Decision::Undecided => return false,
                    Decision::Skip => skipped += 1,
                    Decision::Commit(v) => {
                        if self.may_order(v, dag, skipped, skipped + 1) {
                            outputs.push(self.order_anchors(&[v], dag));
                            // The rounds below were skip; this one's earned
                            // slots are still to order.
                            self.instance_start = round;
                            self.leader_ordered = true;
                        }
                        return true;
                    }
                }
            }
            // The earned slots. None commits before all are decided, and
            // no decision depends on the order slots are looked at: last
            // first finds a still undecided slot soonest.
            let mut committed = Vec::new();
            for author in self.earned(round).rev() {
                match self.decide(round, false, author, dag, &mut memo) {
                    Decision::Commit(v) => committed.push(v),
                    Decision::Skip => {}
                    Decision::Undecided => return false,
                }
            }
            committed.reverse();
            if let Some(first) = committed.first() {
                // A round's first commit may switch; the earned commit
                // after its leader's lies on the same side of the boundary.
                if !leader_ordered && !self.may_order(first, dag, skipped, skipped) {
                    return true;
                }
                outputs.push(self.order_anchors(&committed, dag));
            } else if !leader_ordered {
                round = round + 2;
                continue;
            }
            self.instance_start = round.next();
            self.leader_ordered = false;
            return true;
        }
        false
    }

    /// Shows the first anchor of a round's first commit to the policy:
    /// `false` if a new schedule starts at its round (lines 30-33).
    /// Otherwise counts the `decided` leader slots up to that round,
    /// `skipped` of them skip.
    fn may_order(&mut self, first: &Vertex, dag: &Dag, skipped: u64, decided: u64) -> bool {
        match self.policy.before_order_anchor(first, dag, &self.ordered) {
            ScheduleDecision::Switched => false,
            ScheduleDecision::Continue => {
                self.passed_over += skipped;
                self.leader_rounds += decided;
                true
            }
        }
    }

    /// Orders the anchors' not-yet-ordered causal histories in slot order
    /// (lines 34-37, `orderHistory`) as one commit and advances the commit
    /// bookkeeping; the caller moves the instance.
    fn order_anchors(&mut self, anchors: &[&Arc<Vertex>], dag: &Dag) -> CommittedSubDag {
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
        let commit_index = self.commit_index;
        self.commit_index += 1;
        self.last_anchor = Some(anchor);

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

    /// Round-robin leaders and the same earned candidates in every round;
    /// the ordered prefix has heard from everyone but `unheard`.
    struct Earned {
        leaders: RoundRobinPolicy,
        candidates: Vec<ValidatorId>,
        unheard: Vec<ValidatorId>,
    }

    impl SchedulePolicy for Earned {
        fn leader_at(&self, round: Round) -> ValidatorId {
            self.leaders.leader_at(round)
        }
        fn candidates_at(&self, _round: Round) -> &[ValidatorId] {
            &self.candidates
        }
        fn heard_from(&self, leader: ValidatorId) -> bool {
            !self.unheard.contains(&leader)
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
        unheard_engine(c, candidates, &[])
    }

    fn unheard_engine(c: &Committee, candidates: &[u16], unheard: &[u16]) -> Bullshark<Earned> {
        let leaders = RoundRobinPolicy::new(SlotSchedule::round_robin(c));
        let ids = |ids: &[u16]| ids.iter().map(|i| ValidatorId(*i)).collect();
        Bullshark::new(
            c.clone(),
            Earned { leaders, candidates: ids(candidates), unheard: ids(unheard) },
        )
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

    fn anchors(commits: &[CommittedSubDag]) -> Vec<VertexRef> {
        commits.iter().map(|sd| sd.anchor).collect()
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
        assert_eq!((ea.commit_count(), ea.chain_hash()), (eb.commit_count(), eb.chain_hash()));
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
        // vote as before, a commit of its own, and the rest of the round
        // with the third, the quorum the earned slots wait for.
        let mut e = earned_engine(&c, &[0, 1, 2, 3]);
        for (r, deliveries) in per_delivery(&mut e, &full, 5).into_iter().enumerate().skip(1) {
            let below = vec![r as u64 - 1];
            assert_eq!(deliveries, [none.clone(), below.clone(), below, none.clone()]);
        }
        // Each round is two commits: its leader's vertex, then the others
        // in rank order.
        let mut e = earned_engine(&c, &[3, 2, 1, 0]);
        let commits = feed_all(&mut e, &full, 4);
        assert_eq!(commits.len(), 8);
        for (r, pair) in commits.chunks(2).enumerate() {
            let own = |cmt: &CommittedSubDag| -> Vec<u16> {
                cmt.vertices
                    .iter()
                    .filter(|v| v.round().0 == r as u64)
                    .map(|v| v.author().0)
                    .collect()
            };
            let leader = (r / 2) as u16;
            let earned: Vec<u16> = [3, 2, 1, 0].into_iter().filter(|a| *a != leader).collect();
            assert_eq!((own(&pair[0]), own(&pair[1])), (vec![leader], earned.clone()), "round {r}");
            assert_eq!((pair[0].anchor.author.0, pair[1].anchor.author.0), (leader, earned[0]));
        }
        // The chain hash covers every committed slot.
        assert_ne!(e.chain_hash(), feed_and_hash(&mut engine(&c), &full));
    }

    /// Seven validators (`f = 2`), everyone a candidate, rounds 0 and 1
    /// full, fed vertex by vertex in (round, author) order: the commits
    /// each delivery emitted.
    fn seven_candidates_vote_by_vote() -> (Dag, Bullshark<Earned>, Vec<Vec<CommittedSubDag>>) {
        let c = Committee::new_equal_stake(7);
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(2);
        let full = b.into_dag();
        let mut e = earned_engine(&c, &[6, 5, 4, 3, 2, 1, 0]);
        let mut dag = Dag::new(c);
        let mut emitted = Vec::new();
        for r in 0..2 {
            let mut vs: Vec<_> = full.round_vertices(Round(r)).cloned().collect();
            vs.sort_by_key(|v| v.author());
            for v in vs {
                dag.try_insert_arc(v.clone()).unwrap();
                emitted.push(e.process_vertex(&v, &dag));
            }
        }
        (full, e, emitted)
    }

    #[test]
    fn a_leader_commits_at_its_f_plus_1th_vote_ahead_of_its_rounds_earned_slots() {
        // Round 1 delivered one vote at a time: the third (f+1) commits
        // round 0's leader on its own, and the fifth (2f+1) the other six
        // vertices of round 0, the quorum their slots wait for.
        let (_, e, emitted) = seven_candidates_vote_by_vote();
        let own = |sd: &CommittedSubDag| -> Vec<u16> {
            sd.vertices.iter().filter(|v| v.round().0 == 0).map(|v| v.author().0).collect()
        };
        let emitted: Vec<Vec<Vec<u16>>> =
            emitted.iter().map(|out| out.iter().map(own).collect()).collect();
        let mut expected = vec![Vec::new(); 14];
        expected[7 + 2] = vec![vec![0]];
        expected[7 + 4] = vec![vec![6, 5, 4, 3, 2, 1]];
        assert_eq!(emitted, expected);
        assert_eq!((e.commit_count(), e.passed_over_candidates(), e.leader_rounds()), (2, 0, 1));
    }

    #[test]
    fn the_leaders_commit_is_its_own_however_the_votes_arrive() {
        // One validator gets round 1 vote by vote, the other all of it
        // before its engine looks: both emit round 0's leader, then its
        // earned anchors, as two commits with one chain hash.
        let commits = |out: Vec<CommittedSubDag>| -> Vec<(VertexRef, Vec<Digest>)> {
            out.into_iter()
                .map(|sd| (sd.anchor, sd.vertices.iter().map(|v| v.digest()).collect()))
                .collect()
        };
        let (full, one_by_one, emitted) = seven_candidates_vote_by_vote();
        let a = commits(emitted.into_iter().flatten().collect());
        let mut at_once = earned_engine(full.committee(), &[6, 5, 4, 3, 2, 1, 0]);
        let b = commits(feed_all(&mut at_once, &full, 1));
        let leader = full.vertex_by_author(Round(0), ValidatorId(0)).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a[0], (leader.reference(), vec![leader.digest()]));
        assert_eq!(a, b);
        assert_eq!(one_by_one.chain_hash(), at_once.chain_hash());
    }

    #[test]
    fn round_robin_commits_are_those_of_one_commit_per_round() {
        // Leaders only: splitting off the leader's commit changes nothing.
        // Every twelfth round loses its leader; the anchors and the chain
        // hash are those the engine gave when a round was one commit.
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        for r in 0..40u64 {
            if r % 12 == 6 {
                b.extend_round_without(&[ValidatorId((r / 2 % 4) as u16)]);
            } else {
                b.extend_full_rounds(1);
            }
        }
        let full = b.into_dag();
        let mut e = engine(&c);
        let commits = feed_all(&mut e, &full, 39);
        let rounds: Vec<u64> = commits.iter().map(|cmt| cmt.anchor.round.0).collect();
        let grid: Vec<u64> = (0..6).chain(8..18).chain(20..30).chain(32..39).collect();
        assert_eq!(rounds, grid);
        assert_eq!(
            e.chain_hash().to_hex(),
            "d2eebb4e29620dabe7c02dd5725867798d9a0253fd2b77ca3fd0fdc12b996914"
        );
        assert_eq!((e.passed_over_candidates(), e.leader_rounds()), (3, 36));
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
        // 2 is ordered on its earned anchors, in one commit: a commit in a
        // round whose leader was passed over. Every other round is its
        // leader's commit, then its earned anchors'. Lemma 6 counts the
        // leader slot all the same, and the anchor rounds alone would not
        // show it; each round is one leader round, however many commits.
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
            vec![
                none.clone(),
                vec![0, 0],
                vec![1, 1],
                none.clone(),
                none,
                vec![2, 3, 3, 4, 4],
                vec![5, 5]
            ]
        );
        assert_eq!((e.passed_over_candidates(), e.leader_rounds()), (1, 6));
        // The same sequence, fed from the finished DAG, names round 2's anchor.
        let mut again = earned_engine(&c, &[0, 2, 3]);
        let all = anchors(&feed_all(&mut again, &full, 6));
        assert_eq!(again.chain_hash(), e.chain_hash());
        let round2: Vec<_> = all.iter().filter(|a| a.round == Round(2)).collect();
        assert_eq!(round2.len(), 1);
        assert_eq!(round2[0].author, ValidatorId(0));
    }

    #[test]
    fn a_silent_leaders_slot_is_skipped_at_the_quorum_of_the_round_above() {
        // The DAG above: round 2's leader v1 is absent, and v0, v2 and v3
        // are earned candidates. Heard from, v1's slot waits for round 4's
        // anchor, as above. Never heard from, it is skipped directly once
        // the round-3 vertices not linking to it carry quorum stake, and
        // round 2 is ordered on its earned anchors at its own votes. The
        // slot still counts as round 2's passed-over leader slot.
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(2);
        b.extend_round_without(&[ValidatorId(1)]);
        b.extend_full_rounds(4); // rounds 3..=6
        let full = b.into_dag();
        let none = Vec::<u64>::new();
        let mut heard = unheard_engine(&c, &[0, 2, 3], &[]);
        let mut unheard = unheard_engine(&c, &[0, 2, 3], &[1]);
        let round_3 = |e: &mut Bullshark<Earned>| per_delivery(e, &full, 7).swap_remove(3);
        assert_eq!(round_3(&mut heard), vec![none.clone(); 4]);
        assert_eq!(round_3(&mut unheard), [none.clone(), none.clone(), vec![2], none]);
        assert_eq!((unheard.passed_over_candidates(), unheard.leader_rounds()), (1, 6));
        assert_eq!(heard.chain_hash(), unheard.chain_hash());
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
        let a1 = anchors(&feed_all(&mut e1, &dag_of(7), 6));
        let a2 = anchors(&feed_all(&mut e2, &dag_of(5), 4));
        assert_ne!(e1.chain_hash(), e2.chain_hash());
        assert_eq!(e2.commit_count(), 4);
        // Prefix property: e2's anchors are a prefix of e1's.
        assert_eq!(a1[..a2.len()], a2);
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
            assert_eq!(e.last_anchor(), commits.last().map(|sd| &sd.anchor), "the one kept");
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
