//! The HammerHead schedule policy: epochs, score finalization, retroactive
//! switching (Algorithm 2's `updateSchedule` + the schedule bookkeeping).

use crate::config::{HammerheadConfig, ScoringRule};
use crate::schedule::compute_next_schedule;
use crate::scores::ReputationScores;
use hh_consensus::{OrderedSet, ScheduleDecision, SchedulePolicy, SlotSchedule};
use hh_dag::{Dag, SubDagScratch};
use hh_types::{Committee, Round, ValidatorId, Vertex};

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
}

/// One entry of the schedule history: `slots` governs rounds
/// `[initial_round, next_entry.initial_round)`.
#[derive(Clone, Debug)]
struct ScheduleEntry {
    initial_round: Round,
    slots: SlotSchedule,
}

/// The reputation-based leader schedule (the paper's contribution).
///
/// Plugs into [`hh_consensus::Bullshark`] via [`SchedulePolicy`]. All state
/// transitions are driven exclusively by the committed sequence, so every
/// honest validator's policy walks through identical schedules
/// (Proposition 1).
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
            schedules: vec![ScheduleEntry { initial_round: Round(0), slots: s0 }],
            scores,
            ema_milli: vec![0; n],
            epoch: 0,
            history: Vec::new(),
            scratch: SubDagScratch::new(),
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

    fn stake_bound(&self) -> hh_types::Stake {
        self.config.max_excluded_stake.unwrap_or_else(|| self.committee.max_faulty_stake())
    }
}

impl SchedulePolicy for HammerheadPolicy {
    fn leader_at(&self, round: Round) -> ValidatorId {
        self.entry_for(round).slots.leader_at(round)
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
            // anchor's author earns the bonus now.
            if self.config.scoring_rule == ScoringRule::LeaderOutcome {
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
            let pending = dag.causal_sub_dag_with(
                anchor,
                |d| ordered.contains_digest(dag, d),
                &mut self.scratch,
            );
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
        self.history.push(EpochSummary {
            epoch: self.epoch,
            new_initial_round: anchor.round(),
            excluded: change.excluded.clone(),
            promoted: change.promoted.clone(),
            final_scores: self.scores.as_slice().to_vec(),
        });
        self.schedules
            .push(ScheduleEntry { initial_round: anchor.round(), slots: change.schedule });
        self.epoch += 1;
        self.scores.reset();
        ScheduleDecision::Switched
    }

    fn on_vertex_ordered(&mut self, vertex: &Vertex, dag: &Dag) {
        if matches!(self.config.scoring_rule, ScoringRule::VoteBased | ScoringRule::VoteEma { .. })
        {
            self.accumulate_vote(vertex, dag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_consensus::Bullshark;
    use hh_dag::testkit::DagBuilder;

    fn committee4() -> Committee {
        Committee::new_equal_stake(4)
    }

    fn engine_with(c: &Committee, config: HammerheadConfig) -> Bullshark<HammerheadPolicy> {
        Bullshark::new(c.clone(), HammerheadPolicy::new(c.clone(), config))
    }

    fn feed_all(engine: &mut Bullshark<HammerheadPolicy>, dag: &Dag, max: u64) {
        for r in 0..=max {
            let mut vs: Vec<_> = dag.round_vertices(Round(r)).cloned().collect();
            vs.sort_by_key(|v| v.author());
            for v in vs {
                engine.process_vertex(&v, dag);
            }
        }
    }

    /// [`feed_all`] in descending author order: another causally valid
    /// delivery schedule of the same DAG.
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
        feed_all(&mut e, &dag, 12);
        // An anchor in every round; boundary at initial+4: the anchor at
        // round 4 triggers S0→S1, round 8 S1→S2, round 12 S2→S3 once the
        // round-13 votes are in.
        assert!(e.policy().epoch() >= 2, "epoch = {}", e.policy().epoch());
        let hist = e.policy().epoch_history();
        assert_eq!(hist[0].new_initial_round, Round(4));
        assert_eq!(hist[1].new_initial_round, Round(8));
    }

    #[test]
    fn full_dag_everyone_scores_equally() {
        let c = committee4();
        let config = HammerheadConfig { period_rounds: 8, ..Default::default() };
        let mut e = engine_with(&c, config);
        let mut b = DagBuilder::new(c);
        b.extend_full_rounds(13);
        let dag = b.into_dag();
        feed_all(&mut e, &dag, 12);
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
        feed_all(&mut e, &dag, 12);
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
        feed_all(&mut e, &dag, 12);
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
        feed_all(&mut e, &dag, 12);
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
        feed_all(&mut e, &dag, 8);
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
        feed_all(&mut e, &dag, 16);
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
        feed_all(&mut ev, &dag, 12);
        feed_all(&mut ee, &dag, 12);
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
        feed_all(&mut e, &dag, 12);
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
        feed_all(&mut e1, &dag, 16);
        // e2 sees vertices in a different (reverse-author) order.
        feed_all_reversed(&mut e2, &dag, 16);
        assert_eq!(e1.chain_hash(), e2.chain_hash());
        assert_eq!(e1.policy().epoch(), e2.policy().epoch());
        assert_eq!(e1.policy().active_schedule().slots(), e2.policy().active_schedule().slots());
    }
}
