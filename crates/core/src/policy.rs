//! The HammerHead schedule policy: epochs, score finalization, retroactive
//! switching (Algorithm 2's `updateSchedule` + the schedule bookkeeping).

use crate::config::{HammerheadConfig, ScoringRule};
use crate::schedule::compute_next_schedule;
use crate::scores::ReputationScores;
use hh_consensus::{OrderedSet, ScheduleDecision, SchedulePolicy, SlotSchedule};
use hh_dag::{Dag, SubDagScratch};
use hh_types::{Committee, Round, Stake, ValidatorId, Vertex};

/// Bonus awarded to a committed anchor's author under
/// [`ScoringRule::LeaderOutcome`].
const LEADER_COMMIT_BONUS: u64 = 10;

/// The record of one schedule switch: the epoch it closed and the schedule
/// it opened.
///
/// The policy hands each one over once, on the commit record of the first
/// commit of the epoch it opens, and keeps none: the run's
/// [`SafetyChecker`](crate::SafetyChecker) holds the one copy of the
/// schedule history ([`SafetyChecker::epoch_summaries`](crate::SafetyChecker::epoch_summaries)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochSummary {
    /// The epoch that just *ended* (scores below were accumulated in it).
    pub epoch: u64,
    /// First round of the new schedule.
    pub new_initial_round: Round,
    /// Validators who lost their slots (the `B` set).
    pub excluded: Vec<ValidatorId>,
    /// Validators who gained those slots (the `G` set).
    pub promoted: Vec<ValidatorId>,
    /// Final scores of the ended epoch, indexed by validator id.
    pub final_scores: Vec<u64>,
    /// The new epoch's anchor candidates, best score first: everyone
    /// outside `excluded` if the committee earned candidacy, else nobody
    /// (see [`HammerheadPolicy`]). Epoch 0's are earned when round 0
    /// closes, and no summary carries them.
    pub candidates: Vec<ValidatorId>,
    /// The new epoch's slot table: it names the leader of every round
    /// from `new_initial_round` up to the next switch's.
    pub slots: SlotSchedule,
}

/// One live schedule: `slots` and `candidates` govern rounds
/// `[initial_round, next_entry.initial_round)`.
#[derive(Clone, Debug)]
struct ScheduleEntry {
    initial_round: Round,
    slots: SlotSchedule,
    /// The epoch's anchor candidates, best score first; emptied by the
    /// first miss.
    candidates: Vec<ValidatorId>,
}

/// The reputation-based leader schedule (the paper's contribution).
///
/// Plugs into [`hh_consensus::Bullshark`] via [`SchedulePolicy`]. All state
/// transitions are driven exclusively by the committed sequence, so every
/// honest validator's policy walks through identical schedules
/// (Proposition 1).
///
/// Beside the leaders it names the epoch's *anchor candidates*, whose
/// vertices the engine commits at quorum votes in their own round. The
/// bar is timeliness: a vertex is *timely* when it is ordered and the
/// ordered vertices of the round above that link to it carry quorum stake.
/// Candidacy is earned and lost by the committee as a whole, since one
/// late candidate holds up the ordering of its round until the anchor two
/// rounds up decides it. Round `r` is *closed* when the first vertex of
/// round `r+2` is ordered, and its timeliness is judged then, once. The
/// first candidate whose vertex in a closed round is not timely ends
/// everyone's candidacy for the rest of the epoch. Candidacy is earned by
/// one rule at two points: at each switch, for the new epoch, with the
/// switch's *B*; and when round 0 closes, for the rest of epoch 0, with
/// *B* taken to be the validators that have no ordered round-0 vertex.
/// Every validator outside *B* becomes a candidate, ranked by score, iff
/// each of them had ordered vertices in the epoch's closed rounds and each
/// of those was timely. Every input is read off the ordered set and the
/// parent masks when a round closes, a fixed point of the ordered
/// sequence, so candidacy agrees everywhere too: no validator's garbage
/// collection or delivery batching enters it.
///
/// The ordered sequence also says whom the committee has heard from
/// ([`SchedulePolicy::heard_from`]): once round 0 has closed, not from a
/// validator none of whose vertices was ever ordered. A proposer does not
/// await such a leader, and the engine decides its slot at the quorum of
/// the round above, as an earned slot's, so a leader crashed from the
/// start costs epoch 0 no round. It has scored nothing, so the first
/// switch ranks it lowest.
#[derive(Clone, Debug)]
pub struct HammerheadPolicy {
    committee: Committee,
    config: HammerheadConfig,
    /// S0, the base every switch swaps against: the committee's table,
    /// shared by every validator's policy.
    base: SlotSchedule,
    /// The schedules that govern a round at or above the DAG's GC horizon,
    /// oldest first; the last entry is active. Keyed by initial round so
    /// `leader_at` stays well-defined for rounds committed late across a
    /// switch (the retroactive re-interpretation of §3.1). Each switch
    /// drops the entries wholly below the horizon (see
    /// [`HammerheadPolicy::entry_for`]).
    schedules: Vec<ScheduleEntry>,
    scores: ReputationScores,
    epoch: u64,
    /// Summaries of the switches no commit has carried yet (see
    /// [`HammerheadPolicy::take_summaries_before`]).
    unsent: Vec<EpochSummary>,
    /// Reusable traversal state for the epoch-boundary pending walk.
    scratch: SubDagScratch,
    /// The lowest round not closed yet.
    unchecked: Round,
    /// What the ordered sequence showed of each validator, by validator
    /// index.
    seen: Vec<Seen>,
}

/// What the ordered sequence showed of one validator's vertices.
#[derive(Clone, Copy, Debug, Default)]
struct Seen {
    /// What the current epoch's closed rounds showed.
    timeliness: Timeliness,
    /// Whether any of its vertices was ever ordered; never reset.
    ordered_once: bool,
}

/// What one validator's vertices in an epoch's closed rounds showed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Timeliness {
    /// None was ordered.
    #[default]
    Unseen,
    /// Every ordered one was timely.
    Timely,
    /// An ordered one was not.
    Late,
}

impl HammerheadPolicy {
    /// Creates the policy with the unbiased initial schedule S0
    /// (stake-weighted slots, seeded permutation — §3), the committee's
    /// one table ([`SlotSchedule::initial`]).
    ///
    /// # Panics
    ///
    /// Panics if `config.period_rounds < 2`, which
    /// [`HammerheadConfig::validate`] rejects: a leader slot spans two
    /// rounds.
    pub fn new(committee: Committee, config: HammerheadConfig) -> Self {
        assert!(
            config.period_rounds >= 2,
            "period_rounds must be at least 2 (a leader slot spans two rounds)"
        );
        let s0 = SlotSchedule::initial(&committee);
        let scores = ReputationScores::new(&committee);
        let n = committee.size();
        HammerheadPolicy {
            committee,
            config,
            schedules: vec![ScheduleEntry {
                initial_round: Round(0),
                slots: s0.clone(),
                candidates: Vec::new(),
            }],
            base: s0,
            scores,
            epoch: 0,
            unsent: Vec::new(),
            scratch: SubDagScratch::new(),
            unchecked: Round(0),
            seen: vec![Seen::default(); n],
        }
    }

    /// The live (not yet finalized) scores of the current epoch.
    pub fn scores(&self) -> &ReputationScores {
        &self.scores
    }

    /// Hands over the summaries of the switches that opened the epochs up
    /// to `epoch`, oldest first, and forgets them. A commit made in epoch
    /// `epoch` carries them: the first commit after a switch carries its
    /// summary, and a deep catch-up that switched twice before committing
    /// hands both to the one commit.
    pub fn take_summaries_before(&mut self, epoch: u64) -> Vec<EpochSummary> {
        let due = self.unsent.partition_point(|s| s.epoch < epoch);
        self.unsent.drain(..due).collect()
    }

    /// The summaries of the switches no commit has carried yet, oldest
    /// first: at most the ones the next commit will carry.
    pub fn unsent_summaries(&self) -> &[EpochSummary] {
        &self.unsent
    }

    /// The initial schedule S0, which every switch swaps against.
    pub fn initial_schedule(&self) -> &SlotSchedule {
        &self.base
    }

    /// The active slot table.
    pub fn active_schedule(&self) -> &SlotSchedule {
        &self.schedules.last().expect("never empty").slots
    }

    /// How many schedules the policy holds: the active one and those still
    /// governing a round at or above the DAG's GC horizon.
    pub fn retained_schedules(&self) -> usize {
        self.schedules.len()
    }

    /// The schedule entry covering `round`.
    ///
    /// Only rounds at or above the DAG's GC horizon are asked for, and a
    /// switch keeps every entry that governs one. The engine decides slots
    /// from its instance start up, one round above its last ordered anchor
    /// and so above the horizon, which that anchor's round less `gc_depth`
    /// set. The proposer asks for a round only once the engine calls it a
    /// candidate round, at or above the instance start too. A vote counts
    /// only for a leader round at or above the active schedule's initial
    /// round. A round below the oldest entry is therefore a bug.
    fn entry_for(&self, round: Round) -> &ScheduleEntry {
        // Entries are ascending by initial_round; pick the last one at or
        // below `round`.
        let covering = self.schedules.partition_point(|e| e.initial_round <= round);
        debug_assert!(covering > 0, "round {round} is below every retained schedule");
        &self.schedules[covering.saturating_sub(1)]
    }

    /// Counts `vertex`'s vote (if any) toward the current epoch.
    ///
    /// A vote is a parent edge from a round-`r` vertex (`r ≥ 1`) to the
    /// round-`r−1` vertex of `leader_at(r − 1)`, whether or not that round
    /// was an anchor candidate of the engine's instance at the time: the
    /// score stays a function of the ordered vertices alone. Only leader
    /// rounds at or after the active schedule's initial round count:
    /// earlier rounds belong to a closed epoch, which prevents double
    /// counting across switches.
    ///
    /// The edge test reads the vertex's stored parent mask
    /// ([`Dag::links_to_author`]): one probe instead of a digest scan
    /// over the parent list, and no leader-vertex lookup on the miss path.
    fn accumulate_vote(&mut self, vertex: &Vertex, dag: &Dag) {
        let Some(leader_round) = vertex.round().0.checked_sub(1).map(Round) else {
            return;
        };
        if leader_round < self.initial_round() {
            return;
        }
        let leader = self.leader_at(leader_round);
        if dag.links_to_author(vertex, leader) {
            self.scores.record_vote(vertex.author());
        }
    }

    fn stake_bound(&self) -> Stake {
        self.config.max_excluded_stake.unwrap_or_else(|| self.committee.max_faulty_stake())
    }

    /// The one candidacy rule: every validator outside `excluded`, best
    /// score first, if each of them had ordered vertices in the epoch's
    /// closed rounds and each of those was timely; otherwise nobody.
    fn earned_candidates(&self, excluded: impl Fn(ValidatorId) -> bool) -> Vec<ValidatorId> {
        let candidates: Vec<ValidatorId> = self
            .scores
            .ranked_ascending()
            .into_iter()
            .rev()
            .map(|(id, _)| id)
            .filter(|id| !excluded(*id))
            .collect();
        let timely = |id: &ValidatorId| self.seen[id.index()].timeliness == Timeliness::Timely;
        if candidates.iter().all(timely) {
            candidates
        } else {
            Vec::new()
        }
    }
}

impl SchedulePolicy for HammerheadPolicy {
    fn leader_at(&self, round: Round) -> ValidatorId {
        self.entry_for(round).slots.leader_at(round)
    }

    fn candidates_at(&self, round: Round) -> &[ValidatorId] {
        &self.entry_for(round).candidates
    }

    /// Everyone until round 0 closes; after that, only a validator with an
    /// ordered vertex. One that never had one scores zero and ranks lowest
    /// at the first switch, so waiting out its slots buys nothing.
    ///
    /// Round 0 is awaited in full because until it closes the ordered
    /// prefix has shown nobody: every leader, live or crashed, would be
    /// passed by the proposers and decided at quorum by the engine, and
    /// the run would start without the waits that let a slow leader
    /// anchor. Under heavy message loss such a start is slow to converge
    /// (at 50 % loss it made 3 commits where the awaited start makes 14),
    /// and what it saves, the round-0 timeout per crashed leader, does not
    /// show in the latency of a run with a third of the committee crashed.
    fn heard_from(&self, leader: ValidatorId) -> bool {
        self.unchecked == Round(0) || self.seen[leader.index()].ordered_once
    }

    fn initial_round(&self) -> Round {
        self.schedules.last().expect("never empty").initial_round
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn before_order_anchor(
        &mut self,
        anchor: &Vertex,
        dag: &Dag,
        ordered: &OrderedSet,
    ) -> ScheduleDecision {
        let boundary = self.initial_round() + self.config.period_rounds;
        if anchor.round() < boundary {
            // Not switching: under the leader-outcome rule, the committed
            // leader earns the bonus now.
            if self.config.scoring_rule == ScoringRule::LeaderOutcome
                && anchor.author() == self.leader_at(anchor.round())
            {
                self.scores.add(anchor.author(), LEADER_COMMIT_BONUS);
            }
            return ScheduleDecision::Continue;
        }

        // Epoch boundary crossed (Algorithm 2 lines 30-33). Finalize the
        // epoch's scores from committed information only: the accumulated
        // ordered vertices plus the anchor's still-unordered causal history
        // — which Observation 2 makes identical at every honest validator —
        // up to but excluding the committed leader itself.
        if self.config.scoring_rule == ScoringRule::VoteBased {
            // The indexed walk already emits canonically — ascending
            // (round, author) — so the votes accumulate in deterministic
            // order with no sorting and no vertex clones.
            let pending =
                dag.causal_sub_dag_with(anchor, |v| ordered.contains(v), &mut self.scratch);
            for v in pending.iter().filter(|v| v.digest() != anchor.digest()) {
                self.accumulate_vote(v, dag);
            }
        }

        // Every epoch's B→G swap is computed against S0, not against the
        // schedule the previous epochs patched: a validator that leaves
        // the bottom set regains its base slots. Patching cumulatively
        // would hand them back only to a validator that ranks into G,
        // which a recovered one never does once scores saturate into ties.
        let change =
            compute_next_schedule(&self.base, &self.scores, &self.committee, self.stake_bound());

        // Candidacy for the new epoch, as the closing epoch's closed rounds
        // showed it.
        let candidates = self.earned_candidates(|id| change.excluded.contains(&id));

        self.unsent.push(EpochSummary {
            epoch: self.epoch,
            new_initial_round: anchor.round(),
            excluded: change.excluded,
            promoted: change.promoted,
            final_scores: self.scores.as_slice().to_vec(),
            candidates: candidates.clone(),
            slots: change.schedule.clone(),
        });
        self.schedules.push(ScheduleEntry {
            initial_round: anchor.round(),
            slots: change.schedule,
            candidates,
        });
        // Keep the entry that governs the horizon and those above it; the
        // new one starts at the anchor, above the horizon.
        let at_or_below = self.schedules.partition_point(|e| e.initial_round <= dag.gc_round());
        self.schedules.drain(..at_or_below.saturating_sub(1));
        // The closing epoch's rounds that are still open belong to no
        // epoch's evidence.
        self.unchecked = self.unchecked.max(anchor.round());
        for seen in &mut self.seen {
            seen.timeliness = Timeliness::Unseen;
        }
        self.epoch += 1;
        self.scores.reset();
        ScheduleDecision::Switched
    }

    fn on_vertex_ordered(&mut self, vertex: &Vertex, dag: &Dag, ordered: &OrderedSet) {
        // The first ordered vertex of round r+2 closes round r. No anchor
        // above round r+1 was ordered before it, so a DAG that keeps two
        // or more rounds below its last anchor still holds rounds r and
        // r+1, however the validator's deliveries were batched.
        while self.unchecked + 2 <= vertex.round() {
            let round = self.unchecked;
            let timely = timely(&self.committee, round, dag, ordered);
            let entry = self.schedules.last_mut().expect("never empty");
            if !entry.candidates.iter().all(|c| timely[c.index()]) {
                entry.candidates.clear();
            }
            for (id, seen) in self.committee.ids().zip(&mut self.seen) {
                if dag.vertex_by_author(round, id).is_some_and(|v| ordered.contains(v)) {
                    seen.timeliness = match (seen.timeliness, timely[id.index()]) {
                        (Timeliness::Late, _) | (_, false) => Timeliness::Late,
                        _ => Timeliness::Timely,
                    };
                }
            }
            if round == Round(0) {
                // Epoch 0 earns candidacy here, not at its end: `B` is
                // whoever round 0 did not show. A switch moves `unchecked`
                // past round 0, so only epoch 0 gets here.
                let unseen =
                    |id: ValidatorId| self.seen[id.index()].timeliness == Timeliness::Unseen;
                let candidates = self.earned_candidates(unseen);
                self.schedules.last_mut().expect("never empty").candidates = candidates;
            }
            self.unchecked = round.next();
        }
        self.seen[vertex.author().index()].ordered_once = true;
        if self.config.scoring_rule == ScoringRule::VoteBased {
            self.accumulate_vote(vertex, dag);
        }
    }
}

/// Which authors' `round` vertices are timely, by author index: the
/// ordered vertices of the round above that link to one carry quorum
/// stake. One pass over those vertices' parent masks; a vertex an ordered
/// one links to is ordered itself, since ordering delivers whole histories.
fn timely(committee: &Committee, round: Round, dag: &Dag, ordered: &OrderedSet) -> Vec<bool> {
    let mut votes = vec![Stake(0); committee.size()];
    for w in dag.round_vertices(round.next()).filter(|w| ordered.contains(w)) {
        let stake = committee.stake_of(w.author());
        for (author, votes) in votes.iter_mut().enumerate() {
            if w.parent_authors().contains(author) {
                *votes += stake;
            }
        }
    }
    votes.into_iter().map(|votes| votes >= committee.quorum_threshold()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_consensus::{Bullshark, CommittedSubDag, RoundRobinPolicy};
    use hh_dag::testkit::DagBuilder;
    use std::sync::Arc;

    fn committee4() -> Committee {
        Committee::new_equal_stake(4)
    }

    fn engine_with(c: &Committee, config: HammerheadConfig) -> Bullshark<HammerheadPolicy> {
        Bullshark::new(c.clone(), HammerheadPolicy::new(c.clone(), config))
    }

    /// Every summary `engine`'s policy has not handed over yet: with no
    /// validator taking them at its commits, all it switched through.
    fn summaries(engine: &mut Bullshark<HammerheadPolicy>) -> Vec<EpochSummary> {
        engine.policy_mut().take_summaries_before(u64::MAX)
    }

    /// Feeds `rounds` of `dag` to `engine`, ascending author order within
    /// each round, and returns the anchors of the commits it made.
    fn feed<P: SchedulePolicy>(
        engine: &mut Bullshark<P>,
        dag: &Dag,
        rounds: std::ops::RangeInclusive<u64>,
    ) -> Vec<hh_types::VertexRef> {
        let mut anchors = Vec::new();
        for r in rounds {
            let mut vs: Vec<_> = dag.round_vertices(Round(r)).cloned().collect();
            vs.sort_by_key(|v| v.author());
            for v in vs {
                anchors.extend(engine.process_vertex(&v, dag).iter().map(|sd| sd.anchor));
            }
        }
        anchors
    }

    /// [`feed`] of rounds `0..=max` in descending author order: another
    /// causally valid delivery schedule of the same DAG.
    fn feed_all_reversed(engine: &mut Bullshark<HammerheadPolicy>, dag: &Dag, max: u64) {
        for r in 0..=max {
            let mut vs: Vec<_> = dag.round_vertices(Round(r)).cloned().collect();
            vs.sort_by_key(|v| std::cmp::Reverse(v.author()));
            for v in vs {
                engine.process_vertex(&v, dag);
            }
        }
    }

    #[test]
    fn epoch_rolls_over_at_period_boundary() {
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 4, ..Default::default() };
        let mut e = engine_with(&c, config);
        let mut b = DagBuilder::new(c);
        b.extend_full_rounds(13);
        let dag = b.into_dag();
        feed(&mut e, &dag, 0..=12);
        // An anchor in every round; boundary at initial+4: the anchor at
        // round 4 triggers S0→S1, round 8 S1→S2, round 12 S2→S3 once the
        // round-13 votes are in.
        assert!(e.policy().epoch() >= 2, "epoch = {}", e.policy().epoch());
        let hist = summaries(&mut e);
        assert_eq!(hist.len() as u64, e.policy().epoch());
        assert_eq!(hist[0].new_initial_round, Round(4));
        assert_eq!(hist[1].new_initial_round, Round(8));
        // Each summary carries the slot table its epoch runs on.
        assert_eq!(&hist[hist.len() - 1].slots, e.policy().active_schedule());
        assert!(summaries(&mut e).is_empty(), "each summary is handed over once");
    }

    #[test]
    fn a_timely_committee_earns_candidacy_at_the_switch() {
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 4, ..Default::default() };
        let mut e = engine_with(&c, config);
        let mut b = DagBuilder::new(c);
        b.extend_full_rounds(9);
        let dag = b.into_dag();
        feed(&mut e, &dag, 0..=8);
        // Epoch 0's candidacy was earned when round 0 closed, with nobody
        // in B. Tied scores put v0 in the switch's B; everyone else is a
        // candidate from the switch at round 4 on, highest (score, id)
        // first, and the rounds it governs order the whole round at once.
        let hist = summaries(&mut e);
        let p = e.policy();
        let ids = |ids: &[u16]| ids.iter().map(|i| ValidatorId(*i)).collect::<Vec<_>>();
        assert_eq!(p.candidates_at(Round(3)), ids(&[3, 2, 1, 0]));
        assert_eq!(hist[0].excluded, ids(&[0]));
        assert_eq!(hist[0].candidates, ids(&[3, 2, 1]));
        assert_eq!(p.candidates_at(Round(5)), ids(&[3, 2, 1]));
    }

    #[test]
    fn a_timely_committee_earns_candidacy_when_round_zero_closes() {
        // v3 is silent from the start, everyone else timely. Round 0 closes
        // when the anchor of round 2 orders a round-2 vertex: v3, without
        // an ordered round-0 vertex, is round 0's B, and the others are
        // candidates for the rest of epoch 0, long before its switch.
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        let mut e = engine_with(&c, HammerheadConfig { period_rounds: 20, ..Default::default() });
        extend_without_v3(&mut b, 2);
        let mut anchors = feed(&mut e, b.dag(), 0..=1);
        assert!(e.policy().candidates_at(Round(1)).is_empty(), "round 0 is still open");
        extend_without_v3(&mut b, 10);
        anchors.extend(feed(&mut e, b.dag(), 2..=11));
        assert_eq!(e.policy().epoch(), 0);
        let ids = |ids: &[u16]| ids.iter().map(|i| ValidatorId(*i)).collect::<Vec<_>>();
        assert_eq!(e.policy().candidates_at(Round(10)), ids(&[2, 1, 0]));
        // From round 4 on, the first candidate round after round 0 closed,
        // every round is ordered on its own votes, v3's leader rounds too:
        // the engine skips its slot at the quorum of the round above and
        // orders the round on its earned anchors. A live leader's round is
        // two commits, its leader's and then its earned anchors'.
        let mut rounds: Vec<u64> = anchors.iter().map(|a| a.round.0).collect();
        assert!(rounds.windows(2).any(|w| w[0] == w[1]), "no round split: {rounds:?}");
        rounds.dedup();
        assert_eq!(rounds[rounds.len() - 7..], [4, 5, 6, 7, 8, 9, 10]);
        assert!((4..=10).any(|r| e.policy().leader_at(Round(r)) == ValidatorId(3)));
        assert!(e.passed_over_candidates() > 0);
    }

    #[test]
    fn one_late_round_zero_vertex_leaves_epoch_zero_leader_only() {
        // Only two of the round-1 vertices link to one validator's round-0
        // vertex, not the quorum of three: when round 0 closes, nobody
        // becomes a candidate, where the same DAG with that vertex timely
        // earns everyone candidacy.
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 20, ..Default::default() };
        let leader = HammerheadPolicy::new(c.clone(), config.clone()).leader_at(Round(0));
        let late = if leader == ValidatorId(3) { ValidatorId(2) } else { ValidatorId(3) };
        let candidates_after_round_zero = |late_in_round_0: bool| {
            let mut b = DagBuilder::new(c.clone());
            b.extend_full_rounds(1);
            b.extend_round_custom(&c.ids().collect::<Vec<_>>(), |author| {
                (late_in_round_0 && author.0 < 2).then(|| vec![late])
            });
            b.extend_full_rounds(6); // rounds 2..=7
            let dag = b.into_dag();
            let mut e = engine_with(&c, config.clone());
            feed(&mut e, &dag, 0..=7);
            assert!(e.policy().unchecked > Round(0), "round 0 closed");
            assert_eq!(e.policy().epoch(), 0);
            e.policy().candidates_at(Round(6)).to_vec()
        };
        assert!(candidates_after_round_zero(true).is_empty());
        assert_eq!(candidates_after_round_zero(false).len(), 4);
    }

    #[test]
    fn one_late_validator_outside_b_keeps_the_committee_from_earning_candidacy() {
        // Only two of the round-1 vertices link to one validator's round-0
        // vertex, not the quorum of three. Round 0 closes before the switch
        // at round 4, so nobody is a candidate in epoch 1; epoch 1's closed
        // rounds, 4 and up, are clean.
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 4, ..Default::default() };
        let leader = HammerheadPolicy::new(c.clone(), config.clone()).leader_at(Round(0));
        let late = if leader == ValidatorId(3) { ValidatorId(2) } else { ValidatorId(3) };
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(1);
        b.extend_round_custom(&c.ids().collect::<Vec<_>>(), |author| {
            (author.0 < 2).then(|| vec![late])
        });
        b.extend_full_rounds(8); // rounds 2..=9
        let dag = b.into_dag();
        let mut e = engine_with(&c, config);
        feed(&mut e, &dag, 0..=9);
        let hist = summaries(&mut e);
        assert!(!hist[0].excluded.contains(&late));
        assert!(hist[0].candidates.is_empty());
        assert!(!hist[1].candidates.is_empty());
    }

    #[test]
    fn one_late_candidate_ends_the_committees_candidacy_for_the_epoch() {
        // As above, but only v2 and v3 link to v3's round-5 vertex: two
        // votes of a quorum of three. The anchor above commits it, and
        // once round 7 is ordered nobody is a candidate for the rest of
        // epoch 1. The late round closed before the switch at round 8, so
        // epoch 2 holds no candidates either; epoch 2's closed rounds are
        // clean again.
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 4, ..Default::default() };
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(6); // rounds 0..=5
        b.extend_round_custom(&c.ids().collect::<Vec<_>>(), |author| {
            (author.0 < 2).then(|| vec![ValidatorId(3)])
        }); // round 6
        b.extend_full_rounds(7); // rounds 7..=13
        let dag = b.into_dag();
        let mut e = engine_with(&c, config.clone());
        feed(&mut e, &dag, 0..=13);
        let hist = summaries(&mut e);
        let p = e.policy();
        assert!(!hist[0].candidates.is_empty() && hist[0].candidates.contains(&ValidatorId(3)));
        assert!(p.candidates_at(Round(5)).is_empty());
        assert!(hist[1].candidates.is_empty());
        assert!(!hist[2].candidates.is_empty());
        assert_eq!(p.candidates_at(Round(13)), hist[2].candidates);
        let late = dag.vertex_by_author(Round(5), ValidatorId(3)).unwrap();
        assert!(e.is_ordered(late));

        // Candidacy is a function of the ordered prefix.
        let mut e2 = engine_with(&c, config);
        feed_all_reversed(&mut e2, &dag, 13);
        assert_eq!(e.chain_hash(), e2.chain_hash());
        assert!(e2.policy().candidates_at(Round(5)).is_empty());
    }

    #[test]
    fn candidacy_agrees_between_a_validator_that_collects_as_it_goes_and_one_that_batches() {
        // Epochs of 12 rounds against a GC depth of 4, and one late vertex
        // early in epoch 0: two of a quorum of three link to a validator's
        // round-1 vertex. Validator A receives the DAG a vertex at a time
        // and collects garbage after every delivery that committed, as
        // `Validator` does, so at the switch at round 12 its DAG starts at
        // round 7. Validator B receives the whole DAG before ordering
        // anything: one delivery orders it all, and B collects nothing
        // until that returns. Both judged round 1 when it closed, so
        // neither grants candidacy at the switch, and they agree.
        const GC_DEPTH: u64 = 4;
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 12, ..Default::default() };
        let leader = HammerheadPolicy::new(c.clone(), config.clone()).leader_at(Round(1));
        let late = if leader == ValidatorId(3) { ValidatorId(2) } else { ValidatorId(3) };
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(2); // rounds 0, 1
        b.extend_round_custom(&c.ids().collect::<Vec<_>>(), |author| {
            (author.0 < 2).then(|| vec![late])
        }); // round 2
        b.extend_full_rounds(15); // rounds 3..=17
        let full = b.into_dag();
        let vertices: Vec<Arc<Vertex>> =
            (0..=17).flat_map(|r| full.round_vertices(Round(r)).cloned()).collect();
        let collect = |dag: &mut Dag, commits: &[CommittedSubDag]| {
            if let Some(h) = commits.last().and_then(|sd| sd.anchor.round.0.checked_sub(GC_DEPTH)) {
                dag.gc(Round(h));
            }
        };

        let mut a = engine_with(&c, config.clone());
        let mut dag_a = Dag::new(c.clone());
        let mut horizon_at_switch = Round(0);
        for v in &vertices {
            dag_a.try_insert_arc(v.clone()).unwrap();
            let before = dag_a.gc_round();
            let commits = a.process_vertex(v, &dag_a);
            if a.policy().epoch() == 1 && horizon_at_switch == Round(0) {
                horizon_at_switch = before;
            }
            collect(&mut dag_a, &commits);
        }

        let mut b = engine_with(&c, config);
        let mut dag_b = Dag::new(c.clone());
        for v in &vertices {
            dag_b.try_insert_arc(v.clone()).unwrap();
        }
        let mut batches = Vec::new();
        for v in &vertices {
            let commits = b.process_vertex(v, &dag_b);
            batches.extend((!commits.is_empty()).then_some(commits.len()));
            collect(&mut dag_b, &commits);
        }

        assert!(horizon_at_switch > Round(2), "A collected rounds 1 and 2 before the switch");
        assert_eq!(batches, [b.commit_count() as usize], "B ordered everything at once");
        for e in [&mut a, &mut b] {
            let hist = summaries(e);
            assert_eq!(hist[0].new_initial_round, Round(12));
            assert!(!hist[0].excluded.contains(&late));
            assert!(hist[0].candidates.is_empty(), "{:?}", hist[0].candidates);
        }
        assert_eq!(a.chain_hash(), b.chain_hash());
        assert_eq!(a.commit_count(), b.commit_count());
    }

    /// Appends `rounds` rounds in which v3 does not propose.
    fn extend_without_v3(b: &mut DagBuilder, rounds: usize) {
        for _ in 0..rounds {
            b.extend_round_without(&[ValidatorId(3)]);
        }
    }

    #[test]
    fn everyone_is_awaited_until_round_zero_closes_then_only_the_ordered() {
        let c = committee4();
        let silent = ValidatorId(3);
        let mut b = DagBuilder::new(c.clone());
        let mut e = engine_with(&c, HammerheadConfig { period_rounds: 20, ..Default::default() });
        assert!(c.ids().all(|id| e.policy().heard_from(id)), "nothing ordered yet");
        // Rounds 0 and 1 may order round 0, but no round-2 vertex: round 0
        // is still open, and nobody has been judged.
        extend_without_v3(&mut b, 2);
        feed(&mut e, b.dag(), 0..=1);
        assert_eq!(e.policy().unchecked, Round(0));
        assert!(c.ids().all(|id| e.policy().heard_from(id)));
        // An anchor at round 2 or above orders a round-2 vertex and closes
        // round 0: v3, never ordered, is not awaited from then on.
        extend_without_v3(&mut b, 6);
        feed(&mut e, b.dag(), 2..=7);
        assert!(e.policy().unchecked > Round(0));
        assert!(!e.policy().heard_from(silent));
        assert!(c.ids().filter(|id| *id != silent).all(|id| e.policy().heard_from(id)));
    }

    #[test]
    fn a_validator_ordered_once_stays_awaited_across_switches() {
        // v3 proposes in rounds 0..=2, then falls silent for good. Its
        // vertices were ordered, so it is still awaited after two switches,
        // though it has been in B since the first.
        let c = committee4();
        let silent = ValidatorId(3);
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(3);
        extend_without_v3(&mut b, 14);
        let dag = b.into_dag();
        let mut e = engine_with(&c, HammerheadConfig { period_rounds: 4, ..Default::default() });
        feed(&mut e, &dag, 0..=16);
        assert!(e.policy().epoch() >= 2, "epoch {}", e.policy().epoch());
        assert!(summaries(&mut e).iter().all(|h| h.excluded == [silent]));
        assert!(c.ids().all(|id| e.policy().heard_from(id)));
    }

    #[test]
    fn round_robin_awaits_every_leader() {
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        extend_without_v3(&mut b, 8);
        let mut e = Bullshark::new(c.clone(), RoundRobinPolicy::new(SlotSchedule::round_robin(&c)));
        feed(&mut e, b.dag(), 0..=7);
        assert!(e.commit_count() > 0);
        assert!(c.ids().all(|id| e.policy().heard_from(id)));
    }

    #[test]
    fn full_dag_everyone_scores_equally() {
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 8, ..Default::default() };
        let mut e = engine_with(&c, config);
        let mut b = DagBuilder::new(c);
        b.extend_full_rounds(13);
        let dag = b.into_dag();
        feed(&mut e, &dag, 0..=12);
        let hist = summaries(&mut e);
        assert!(!hist.is_empty());
        let scores = &hist[0].final_scores;
        // Fully-connected DAG: every validator voted for every leader; all
        // scores in the closed epoch are equal and positive.
        assert!(scores.iter().all(|s| *s == scores[0] && *s > 0), "{scores:?}");
    }

    /// Appends rounds `from..=to` to `b`: full, except that in the rounds
    /// `withholds(r)` holds for, v3 leaves the previous round's leader (when
    /// that is someone else) out of its parents — it withholds its vote.
    fn extend_with_v3_withholding(
        b: &mut DagBuilder,
        c: &Committee,
        probe: &HammerheadPolicy,
        rounds: std::ops::RangeInclusive<u64>,
        withholds: impl Fn(u64) -> bool,
    ) {
        for r in rounds {
            let leader = probe.leader_at(Round(r - 1));
            if withholds(r) && leader != ValidatorId(3) {
                b.extend_round_custom(&c.ids().collect::<Vec<_>>(), move |author| {
                    (author == ValidatorId(3)).then(|| vec![leader])
                });
            } else {
                b.extend_full_rounds(1);
            }
        }
    }

    #[test]
    fn vote_withholder_scores_lowest_and_is_excluded() {
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 4, ..Default::default() };

        // v3 authors vertices but never links to a leader's: a vote is cast
        // in every round, so it withholds in every round.
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(1); // round 0
        let p0 = HammerheadPolicy::new(c.clone(), config.clone());
        extend_with_v3_withholding(&mut b, &c, &p0, 1..=12, |_| true);
        let dag = b.into_dag();

        let mut e = engine_with(&c, config.clone());
        feed(&mut e, &dag, 0..=12);
        let hist = summaries(&mut e);
        assert!(!hist.is_empty());
        // Epoch 0 closes at the anchor of round 4 on the votes cast in
        // rounds 1..=3: three points for a voter, and for v3 only the vote
        // its own vertex is where S0 has it lead. It is the one excluded.
        let scores = &hist[0].final_scores;
        assert_eq!(scores[..3], [3, 3, 3], "one vote a round");
        assert!(scores[3] < 3, "{scores:?}");
        assert_eq!(hist[0].excluded, vec![ValidatorId(3)]);
        // Note: leader_at for v3's slots now maps elsewhere.
        let excluded_slots = e.policy().active_schedule().slot_count(ValidatorId(3));
        assert_eq!(excluded_slots, 0);

        // Scores are a function of the ordered prefix: an engine fed the
        // same DAG in another order holds the same ones, closed and live.
        let mut e2 = engine_with(&c, config);
        feed_all_reversed(&mut e2, &dag, 12);
        assert_eq!((e.commit_count(), e.chain_hash()), (e2.commit_count(), e2.chain_hash()));
        assert_eq!(e.policy().scores().as_slice(), e2.policy().scores().as_slice());
        let closed = |hist: Vec<EpochSummary>| -> Vec<Vec<u64>> {
            hist.into_iter().map(|h| h.final_scores).collect()
        };
        assert_eq!(closed(hist), closed(summaries(&mut e2)));
    }

    /// Builds a DAG where v3 withholds votes during epoch 0 (rounds
    /// 1..=4) and participates fully afterwards, and feeds it to an
    /// engine with the given config.
    fn engine_after_rebound(config: HammerheadConfig) -> Bullshark<HammerheadPolicy> {
        let c = committee4();
        let p0 = HammerheadPolicy::new(c.clone(), config.clone());
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(1); // round 0
        extend_with_v3_withholding(&mut b, &c, &p0, 1..=12, |r| r <= 4);
        let dag = b.into_dag();
        let mut e = engine_with(&c, config);
        feed(&mut e, &dag, 0..=12);
        e
    }

    #[test]
    fn rebounded_validator_regains_its_base_slots() {
        // v3 loses its slots in epoch 0; from epoch 1 on its score ties
        // everyone's. Epoch 1's switch puts v3 in G (highest tied id not
        // in B) and demotes v0. Because the swap is computed against S0,
        // v3 regains its own base slot *and* takes v0's, and epoch 0's
        // promotee v2 is back to its one base slot. (A swap patched onto
        // the previous epoch's schedule would hand v3 only v0's slot and
        // leave v2 with two — v3's base slot gone for good.)
        let config = HammerheadConfig { period_rounds: 4, ..Default::default() };
        let engine = engine_after_rebound(config);
        assert!(engine.policy().epoch() >= 2);
        let sched = engine.policy().active_schedule();
        assert_eq!(sched.slot_count(ValidatorId(3)), 2, "base slot restored plus v0's");
        assert_eq!(sched.slot_count(ValidatorId(2)), 1, "promotions do not compound");
    }

    #[test]
    fn schedule_history_keeps_old_rounds_interpretable() {
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 4, ..Default::default() };
        let mut e = engine_with(&c, config);
        let mut b = DagBuilder::new(c);
        b.extend_full_rounds(13);
        let dag = b.into_dag();

        // Record pre-switch leader assignments.
        let before: Vec<ValidatorId> = (0..3).map(|i| e.policy().leader_at(Round(i * 2))).collect();
        feed(&mut e, &dag, 0..=12);
        assert!(e.policy().epoch() >= 1);
        // Old rounds still resolve to the same leaders after switches, as
        // long as the DAG holds them (this one collects nothing).
        let after: Vec<ValidatorId> = (0..3).map(|i| e.policy().leader_at(Round(i * 2))).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn a_switch_drops_the_schedules_wholly_below_the_gc_horizon() {
        // Epochs of 4 rounds against a GC depth of 6: after a switch the
        // policy holds the schedules of at most three epochs, and names the
        // same leaders for the rounds it keeps as a policy whose DAG
        // collects nothing.
        const GC_DEPTH: u64 = 6;
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 4, ..Default::default() };
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(41);
        let full = b.into_dag();
        let mut collecting = engine_with(&c, config.clone());
        let mut keeping = engine_with(&c, config);
        let mut dag = Dag::new(c.clone());
        for r in 0..=40 {
            for v in full.round_vertices(Round(r)) {
                dag.try_insert_arc(v.clone()).unwrap();
                let commits = collecting.process_vertex(v, &dag);
                if let Some(h) =
                    commits.last().and_then(|sd| sd.anchor.round.0.checked_sub(GC_DEPTH))
                {
                    dag.gc(Round(h));
                }
                keeping.process_vertex(v, &full);
                assert!(collecting.policy().retained_schedules() <= 3, "round {r}");
            }
        }
        assert!(collecting.policy().epoch() >= 8, "epoch {}", collecting.policy().epoch());
        let all = keeping.policy().retained_schedules() as u64;
        assert_eq!(all, keeping.policy().epoch() + 1, "a DAG that keeps everything");
        assert_eq!(collecting.chain_hash(), keeping.chain_hash());
        for r in dag.gc_round().0..=40 {
            assert_eq!(
                collecting.policy().leader_at(Round(r)),
                keeping.policy().leader_at(Round(r))
            );
        }
        assert_eq!(collecting.policy().initial_schedule(), keeping.policy().initial_schedule());
    }

    #[test]
    fn leader_outcome_rule_rewards_committed_leaders() {
        let c = committee4();
        let config = HammerheadConfig {
            period_rounds: 8,
            scoring_rule: ScoringRule::LeaderOutcome,
            ..Default::default()
        };
        let mut e = engine_with(&c, config);
        let mut b = DagBuilder::new(c);
        b.extend_full_rounds(9);
        let dag = b.into_dag();
        let anchors = feed(&mut e, &dag, 0..=8);
        // Committed anchors at rounds 0..=7 → their authors hold bonuses.
        let committed_authors: std::collections::HashSet<ValidatorId> =
            anchors.iter().map(|a| a.author).collect();
        for author in committed_authors {
            assert!(e.policy().scores().get(author) >= LEADER_COMMIT_BONUS);
        }
    }

    #[test]
    fn deep_catch_up_crosses_multiple_epochs_in_one_walk() {
        // Proposition 1's induction case: no candidate commits directly
        // for a long stretch (votes stay below validity), then one late
        // vertex brings the votes — the single `process_vertex` call must
        // run instance after instance, each walking back from the top of
        // the DAG to the earliest anchor it reaches, switching schedules
        // at the epoch boundaries on the way and re-interpreting the DAG
        // each time.
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 4, ..Default::default() };
        let probe = HammerheadPolicy::new(c.clone(), config.clone());

        // Rounds 1..=13: all but one validator exclude the previous
        // round's leader from their parents (1 vote < validity 2), so no
        // candidate commits directly under any schedule.
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(1);
        for r in 1..=13u64 {
            // The leader under ANY schedule the engine might be in — use
            // S0's leader; what matters is keeping direct votes scarce.
            let leader = probe.leader_at(Round(r - 1));
            let committee_ids = c.ids().collect::<Vec<_>>();
            let voter = committee_ids.iter().find(|id| **id != leader).copied().expect("n > 1");
            b.extend_round_custom(&committee_ids, move |author| {
                if author == voter {
                    None
                } else {
                    Some(vec![leader])
                }
            });
        }
        // Rounds 14..=16 fully connected: round 15's vertices finally carry
        // validity votes for round 14's anchor, unleashing the walks.
        b.extend_full_rounds(3);
        let dag = b.into_dag();

        let mut e = engine_with(&c, config);
        let anchors = feed(&mut e, &dag, 0..=16);
        // The walks crossed at least two epoch boundaries (rounds 4 and 8
        // under T=4) and still committed a consistent sequence.
        assert!(e.policy().epoch() >= 2, "epochs: {}", e.policy().epoch());
        assert!(e.commit_count() >= 1);
        // Anchor rounds strictly increase (total order sanity).
        let rounds: Vec<u64> = anchors.iter().map(|a| a.round.0).collect();
        let mut sorted = rounds.clone();
        sorted.sort();
        assert_eq!(rounds, sorted);

        // A second engine fed in reverse author order agrees exactly.
        let mut e2 = engine_with(&c, HammerheadConfig { period_rounds: 4, ..Default::default() });
        feed_all_reversed(&mut e2, &dag, 16);
        assert_eq!(e.chain_hash(), e2.chain_hash());
        assert_eq!(e.policy().epoch(), e2.policy().epoch());
    }

    #[test]
    fn agreement_across_validators_with_switches() {
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 4, ..Default::default() };
        let mut b = DagBuilder::new(c.clone());
        b.extend_full_rounds(17);
        let dag = b.into_dag();

        let mut e1 = engine_with(&c, config.clone());
        let mut e2 = engine_with(&c, config);
        feed(&mut e1, &dag, 0..=16);
        // e2 sees vertices in a different (reverse-author) order.
        feed_all_reversed(&mut e2, &dag, 16);
        assert_eq!(e1.chain_hash(), e2.chain_hash());
        assert_eq!(e1.policy().epoch(), e2.policy().epoch());
        assert_eq!(e1.policy().active_schedule().slots(), e2.policy().active_schedule().slots());
    }
}
