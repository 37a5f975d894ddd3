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

/// Monitoring record for one completed schedule epoch.
#[derive(Clone, Debug)]
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
    /// (see [`HammerheadPolicy`]).
    pub candidates: Vec<ValidatorId>,
}

/// One entry of the schedule history: `slots` and `candidates` govern
/// rounds `[initial_round, next_entry.initial_round)`.
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
/// everyone's candidacy for the rest of the epoch. Nobody is a candidate
/// in epoch 0. At each switch every validator outside *B* becomes a
/// candidate for the new epoch, ranked by the score the swap ranked by,
/// iff each of them had ordered vertices in the closing epoch's closed
/// rounds and each of those was timely. Every input is read off the
/// ordered set and the parent masks when a round closes, a fixed point of
/// the ordered sequence, so candidacy agrees everywhere too: no
/// validator's garbage collection or delivery batching enters it.
///
/// The ordered sequence also says whom a proposer need not await: once
/// round 0 has closed, a validator none of whose vertices was ever ordered
/// ([`SchedulePolicy::awaits_leader`]). It has scored nothing, so the
/// first switch ranks it lowest.
#[derive(Clone, Debug)]
pub struct HammerheadPolicy {
    committee: Committee,
    config: HammerheadConfig,
    /// Piecewise schedule history; the last entry is active. Keyed by
    /// initial round so `leader_at` stays well-defined for rounds committed
    /// late across a switch (the retroactive re-interpretation of §3.1).
    schedules: Vec<ScheduleEntry>,
    scores: ReputationScores,
    /// Cross-epoch smoothed scores (milli-points), maintained only under
    /// [`ScoringRule::VoteEma`].
    ema_milli: Vec<u64>,
    epoch: u64,
    history: Vec<EpochSummary>,
    /// Reusable traversal state for the epoch-boundary pending walk.
    scratch: SubDagScratch,
    /// The lowest round not closed yet.
    unchecked: Round,
    /// What the current epoch's closed rounds showed of each validator's
    /// vertices, by validator index.
    timeliness: Vec<Timeliness>,
    /// Whether any vertex of each validator was ever ordered, by validator
    /// index; never reset.
    ordered_once: Vec<bool>,
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

/// Seed of the permutation that makes the initial schedule S0 unbiased.
/// Every validator must use the same one; a deployment would derive it
/// from the epoch's randomness, which this reproduction does not model.
const S0_SEED: u64 = 0;

impl HammerheadPolicy {
    /// Creates the policy with the unbiased initial schedule S0
    /// (stake-weighted slots, seeded permutation — §3).
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
        let s0 = SlotSchedule::permuted(&committee, S0_SEED);
        let scores = ReputationScores::new(&committee);
        let n = committee.size();
        HammerheadPolicy {
            committee,
            config,
            schedules: vec![ScheduleEntry {
                initial_round: Round(0),
                slots: s0,
                candidates: Vec::new(),
            }],
            scores,
            ema_milli: vec![0; n],
            epoch: 0,
            history: Vec::new(),
            scratch: SubDagScratch::new(),
            unchecked: Round(0),
            timeliness: vec![Timeliness::Unseen; n],
            ordered_once: vec![false; n],
        }
    }

    /// The live (not yet finalized) scores of the current epoch.
    pub fn scores(&self) -> &ReputationScores {
        &self.scores
    }

    /// Cross-epoch smoothed scores in milli-points (only meaningful under
    /// [`ScoringRule::VoteEma`]).
    pub fn ema_scores_milli(&self) -> &[u64] {
        &self.ema_milli
    }

    /// Completed-epoch records, oldest first.
    pub fn epoch_history(&self) -> &[EpochSummary] {
        &self.history
    }

    /// The active slot table.
    pub fn active_schedule(&self) -> &SlotSchedule {
        &self.schedules.last().expect("never empty").slots
    }

    /// The schedule entry covering `round`.
    fn entry_for(&self, round: Round) -> &ScheduleEntry {
        // Entries are ascending by initial_round; pick the last one at or
        // below `round`. Rounds before round 0 cannot occur.
        self.schedules
            .iter()
            .rev()
            .find(|e| e.initial_round <= round)
            .unwrap_or_else(|| self.schedules.first().expect("never empty"))
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
    fn awaits_leader(&self, leader: ValidatorId) -> bool {
        self.unchecked == Round(0) || self.ordered_once[leader.index()]
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
        if matches!(self.config.scoring_rule, ScoringRule::VoteBased | ScoringRule::VoteEma { .. })
        {
            // The indexed walk already emits canonically — ascending
            // (round, author) — so the votes accumulate in deterministic
            // order with no sorting and no vertex clones.
            let pending =
                dag.causal_sub_dag_with(anchor, |v| ordered.contains(v), &mut self.scratch);
            for v in pending.iter().filter(|v| v.digest() != anchor.digest()) {
                self.accumulate_vote(v, dag);
            }
        }

        // Under EMA scoring, the ranking input is the smoothed cross-epoch
        // score; plain integer arithmetic keeps it deterministic.
        let ranking_scores =
            if let ScoringRule::VoteEma { alpha_percent } = self.config.scoring_rule {
                let alpha = alpha_percent.min(100) as u64;
                let mut smoothed = ReputationScores::new(&self.committee);
                for id in self.committee.ids() {
                    let epoch_milli = self.scores.get(id) * 1000;
                    let prev_milli = self.ema_milli[id.index()];
                    let next = (alpha * epoch_milli + (100 - alpha) * prev_milli) / 100;
                    self.ema_milli[id.index()] = next;
                    smoothed.add(id, next);
                }
                smoothed
            } else {
                self.scores.clone()
            };

        // Every epoch's B→G swap is computed against S0, not against the
        // schedule the previous epochs patched: a validator that leaves
        // the bottom set regains its base slots. Patching cumulatively
        // would hand them back only to a validator that ranks into G,
        // which a recovered one never does once scores saturate into ties.
        let base = &self.schedules.first().expect("never empty").slots;
        let change =
            compute_next_schedule(base, &ranking_scores, &self.committee, self.stake_bound());

        // Candidacy for the new epoch, as the closing epoch's closed rounds
        // showed it.
        let mut candidates: Vec<ValidatorId> = ranking_scores
            .ranked_ascending()
            .into_iter()
            .rev()
            .map(|(id, _)| id)
            .filter(|id| !change.excluded.contains(id))
            .collect();
        if !candidates.iter().all(|id| self.timeliness[id.index()] == Timeliness::Timely) {
            candidates.clear();
        }

        self.history.push(EpochSummary {
            epoch: self.epoch,
            new_initial_round: anchor.round(),
            excluded: change.excluded.clone(),
            promoted: change.promoted.clone(),
            final_scores: self.scores.as_slice().to_vec(),
            candidates: candidates.clone(),
        });
        self.schedules.push(ScheduleEntry {
            initial_round: anchor.round(),
            slots: change.schedule,
            candidates,
        });
        // The closing epoch's rounds that are still open belong to no
        // epoch's evidence.
        self.unchecked = self.unchecked.max(anchor.round());
        self.timeliness.fill(Timeliness::Unseen);
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
            for (id, seen) in self.committee.ids().zip(&mut self.timeliness) {
                if dag.vertex_by_author(round, id).is_some_and(|v| ordered.contains(v)) {
                    *seen = match (*seen, timely[id.index()]) {
                        (Timeliness::Late, _) | (_, false) => Timeliness::Late,
                        _ => Timeliness::Timely,
                    };
                }
            }
            self.unchecked = round.next();
        }
        self.ordered_once[vertex.author().index()] = true;
        if matches!(self.config.scoring_rule, ScoringRule::VoteBased | ScoringRule::VoteEma { .. })
        {
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
            if w.parent_authors()
                .get(author / 64)
                .is_some_and(|word| word >> (author % 64) & 1 == 1)
            {
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

    /// Feeds `rounds` of `dag` to `engine`, ascending author order within
    /// each round.
    fn feed<P: SchedulePolicy>(
        engine: &mut Bullshark<P>,
        dag: &Dag,
        rounds: std::ops::RangeInclusive<u64>,
    ) {
        for r in rounds {
            let mut vs: Vec<_> = dag.round_vertices(Round(r)).cloned().collect();
            vs.sort_by_key(|v| v.author());
            for v in vs {
                engine.process_vertex(&v, dag);
            }
        }
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
        let hist = e.policy().epoch_history();
        assert_eq!(hist[0].new_initial_round, Round(4));
        assert_eq!(hist[1].new_initial_round, Round(8));
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
        // Nobody in epoch 0. Tied scores put v0 in B; everyone else is a
        // candidate from the switch at round 4 on, highest (score, id)
        // first, and the rounds it governs order the whole round at once.
        let p = e.policy();
        assert!(p.candidates_at(Round(3)).is_empty());
        let ids = |ids: &[u16]| ids.iter().map(|i| ValidatorId(*i)).collect::<Vec<_>>();
        assert_eq!(p.epoch_history()[0].excluded, ids(&[0]));
        assert_eq!(p.epoch_history()[0].candidates, ids(&[3, 2, 1]));
        assert_eq!(p.candidates_at(Round(5)), ids(&[3, 2, 1]));
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
        let hist = e.policy().epoch_history();
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
        let p = e.policy();
        let hist = p.epoch_history();
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
        for e in [&a, &b] {
            let hist = e.policy().epoch_history();
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
        assert!(c.ids().all(|id| e.policy().awaits_leader(id)), "nothing ordered yet");
        // Rounds 0 and 1 may order round 0, but no round-2 vertex: round 0
        // is still open, and nobody has been judged.
        extend_without_v3(&mut b, 2);
        feed(&mut e, b.dag(), 0..=1);
        assert_eq!(e.policy().unchecked, Round(0));
        assert!(c.ids().all(|id| e.policy().awaits_leader(id)));
        // An anchor at round 2 or above orders a round-2 vertex and closes
        // round 0: v3, never ordered, is not awaited from then on.
        extend_without_v3(&mut b, 6);
        feed(&mut e, b.dag(), 2..=7);
        assert!(e.policy().unchecked > Round(0));
        assert!(!e.policy().awaits_leader(silent));
        assert!(c.ids().filter(|id| *id != silent).all(|id| e.policy().awaits_leader(id)));
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
        let p = e.policy();
        assert!(p.epoch() >= 2, "epoch {}", p.epoch());
        assert!(p.epoch_history().iter().all(|h| h.excluded == [silent]));
        assert!(c.ids().all(|id| p.awaits_leader(id)));
    }

    #[test]
    fn round_robin_awaits_every_leader() {
        let c = committee4();
        let mut b = DagBuilder::new(c.clone());
        extend_without_v3(&mut b, 8);
        let mut e = Bullshark::new(c.clone(), RoundRobinPolicy::new(SlotSchedule::round_robin(&c)));
        feed(&mut e, b.dag(), 0..=7);
        assert!(e.commit_count() > 0);
        assert!(c.ids().all(|id| e.policy().awaits_leader(id)));
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
        let hist = e.policy().epoch_history();
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
        let hist = e.policy().epoch_history();
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
        assert_eq!(e.committed_anchors(), e2.committed_anchors());
        assert_eq!(e.policy().scores().as_slice(), e2.policy().scores().as_slice());
        let closed = |e: &Bullshark<HammerheadPolicy>| -> Vec<Vec<u64>> {
            e.policy().epoch_history().iter().map(|h| h.final_scores.clone()).collect()
        };
        assert_eq!(closed(&e), closed(&e2));
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
        // Old rounds still resolve to the same leaders after switches.
        let after: Vec<ValidatorId> = (0..3).map(|i| e.policy().leader_at(Round(i * 2))).collect();
        assert_eq!(before, after);
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
        feed(&mut e, &dag, 0..=8);
        // Committed anchors at rounds 0..=7 → their authors hold bonuses.
        let committed_authors: std::collections::HashSet<ValidatorId> =
            e.committed_anchors().iter().map(|a| a.author).collect();
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
        feed(&mut e, &dag, 0..=16);
        // The walks crossed at least two epoch boundaries (rounds 4 and 8
        // under T=4) and still committed a consistent sequence.
        assert!(e.policy().epoch() >= 2, "epochs: {}", e.policy().epoch());
        assert!(e.commit_count() >= 1);
        // Anchor rounds strictly increase (total order sanity).
        let rounds: Vec<u64> = e.committed_anchors().iter().map(|a| a.round.0).collect();
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
    fn ema_alpha_100_matches_vote_based() {
        let c = committee4();
        let mut dag_builder = DagBuilder::new(c.clone());
        dag_builder.extend_full_rounds(13);
        let dag = dag_builder.into_dag();

        let vote = HammerheadConfig { period_rounds: 4, ..Default::default() };
        let ema = HammerheadConfig {
            period_rounds: 4,
            scoring_rule: ScoringRule::VoteEma { alpha_percent: 100 },
            ..Default::default()
        };
        let mut ev = engine_with(&c, vote);
        let mut ee = engine_with(&c, ema);
        feed(&mut ev, &dag, 0..=12);
        feed(&mut ee, &dag, 0..=12);
        assert_eq!(ev.chain_hash(), ee.chain_hash());
        assert_eq!(ev.policy().active_schedule().slots(), ee.policy().active_schedule().slots());
        // EMA with alpha=1 carries score×1000 exactly.
        let hist = ee.policy().epoch_history();
        assert!(!hist.is_empty());
    }

    #[test]
    fn ema_smooths_across_epochs() {
        // A validator with a perfect first epoch and an empty second epoch
        // keeps a positive smoothed score; pure per-epoch scores forget.
        let c = committee4();
        let config = HammerheadConfig {
            period_rounds: 4,
            scoring_rule: ScoringRule::VoteEma { alpha_percent: 50 },
            ..Default::default()
        };
        let mut e = engine_with(&c, config);
        let mut b = DagBuilder::new(c);
        b.extend_full_rounds(13);
        let dag = b.into_dag();
        feed(&mut e, &dag, 0..=12);
        assert!(e.policy().epoch() >= 2);
        // Fully-connected DAG: every epoch every validator scored; EMA is
        // positive and equal across validators.
        let ema = e.policy().ema_scores_milli();
        assert!(ema.iter().all(|m| *m > 0 && *m == ema[0]), "{ema:?}");
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
