//! The report rows a finished run's fault families add: how soon a
//! recovered validator got leader slots back, and how fast an attacker
//! lost its own. [`crate::collect_metrics`] builds both through its one
//! observer's view.

use crate::byzantine::ByzantineSchedule;
use crate::experiment::SimHandle;
use hammerhead::EpochSummary;
use hh_types::{Round, ValidatorId};

/// Re-inclusion measurements for one recovered validator: how long the
/// leader schedule took to hand it slots again after its restart.
#[derive(Clone, Debug, PartialEq)]
pub struct ReinclusionRow {
    /// The recovered validator.
    pub validator: u16,
    /// Recovery instant (µs of simulated time).
    pub recovered_at_us: u64,
    /// Network round at the recovery instant (the measurement baseline).
    pub recovery_round: u64,
    /// First round at or after recovery where the schedule names this
    /// validator leader; `None` if no slot arrived within the run.
    pub first_leader_round: Option<u64>,
    /// `first_leader_round - recovery_round`.
    pub rounds_to_first_leader: Option<u64>,
    /// Round of this validator's first committed anchor after recovery
    /// (its first *successful* leader slot); `None` if none committed.
    pub first_commit_round: Option<u64>,
    /// `first_commit_round - recovery_round`.
    pub rounds_to_first_commit: Option<u64>,
    /// This validator's final score in each completed epoch, oldest
    /// first (HammerHead runs; empty for the baseline) — the rebound the
    /// re-inclusion rides on.
    pub score_trajectory: Vec<u64>,
}

/// Adversary measurements for one byzantine validator: how fast the
/// reputation mechanism pushed the attacker out of the leader schedule,
/// and what the attack cost everyone while it lasted.
#[derive(Clone, Debug, PartialEq)]
pub struct AdversaryRow {
    /// The attacker.
    pub validator: u16,
    /// Its strategy label(s) from the schedule (`+`-joined when a node
    /// runs different strategies in different windows).
    pub strategy: String,
    /// Round at which the first schedule excluding the attacker took
    /// effect; `None` if it was never demoted (always for round-robin).
    pub rounds_to_demotion: Option<u64>,
    /// Epoch whose closing scores first excluded the attacker.
    pub epochs_to_demotion: Option<u64>,
    /// Completed epochs whose closing scores excluded the attacker.
    pub exclusions: u64,
    /// Fraction of the rounds up to the last committed anchor where the
    /// schedule named the attacker leader. Round-robin pins
    /// this near `1/n`; a demoting scorer drives it toward zero.
    pub leader_share_overall: f64,
    /// The same share per completed epoch, oldest first (HammerHead
    /// runs; empty for the baseline) — the attacker's slot share decaying
    /// over time.
    pub leader_share_by_epoch: Vec<f64>,
    /// Equivocation evidence units charged to the attacker in the
    /// observer's ledger (non-zero only for equivocating strategies).
    pub evidence_units: u64,
}

/// The adversary analysis: for every byzantine validator, how fast the
/// schedule demoted it (rounds and epochs to its first exclusion), how
/// its leader-slot share evolved across the epochs of `summaries`, and how
/// much equivocation evidence validator `observer` holds against it.
pub(crate) fn adversary_rows(
    handle: &SimHandle,
    observer: usize,
    last_anchor_round: u64,
    summaries: &[EpochSummary],
    schedule: &ByzantineSchedule,
) -> Vec<AdversaryRow> {
    let observer = handle.validator(observer);

    // Share of the rounds in `[from, until)` that `v` leads (0 of none).
    let share_over = |from: u64, until: u64, v: ValidatorId| -> f64 {
        if until <= from {
            return 0.0;
        }
        let held = (from..until).filter(|r| handle.leader_at(Round(*r)) == v).count();
        held as f64 / (until - from) as f64
    };

    schedule
        .nodes()
        .into_iter()
        .map(|node| {
            let v = ValidatorId(node);
            let mut labels: Vec<&str> = schedule
                .entries()
                .iter()
                .filter(|e| e.node == node)
                .map(|e| e.strategy.label())
                .collect();
            labels.dedup();
            let mut rounds_to_demotion = None;
            let mut epochs_to_demotion = None;
            let mut exclusions = 0u64;
            let mut leader_share_by_epoch = Vec::new();
            // Epoch k's schedule governs the rounds between boundary k-1's
            // new round and boundary k's.
            let mut span_start = 0u64;
            for summary in summaries {
                let boundary = summary.new_initial_round.0;
                leader_share_by_epoch.push(share_over(span_start, boundary, v));
                if summary.excluded.contains(&v) {
                    exclusions += 1;
                    if epochs_to_demotion.is_none() {
                        epochs_to_demotion = Some(summary.epoch);
                        rounds_to_demotion = Some(boundary);
                    }
                }
                span_start = boundary;
            }
            AdversaryRow {
                validator: node,
                strategy: labels.join("+"),
                rounds_to_demotion,
                epochs_to_demotion,
                exclusions,
                leader_share_overall: share_over(0, last_anchor_round + 1, v),
                leader_share_by_epoch,
                evidence_units: observer.equivocation_evidence().count_for(v),
            }
        })
        .collect()
}

/// The re-inclusion analysis: for every recovery the handle sampled, how
/// long the schedule took to hand the recovered validator a leader slot
/// again and how long until the first of them committed, measured in
/// rounds from the network round at its recovery, plus its per-epoch
/// score trajectory across `summaries` (none under round-robin).
pub(crate) fn reinclusion_rows(
    handle: &SimHandle,
    observer: usize,
    last_anchor_round: u64,
    summaries: &[EpochSummary],
) -> Vec<ReinclusionRow> {
    if handle.recovery_rounds.is_empty() {
        return Vec::new();
    }
    // The observer's anchors, which its own list keeps only down to its
    // GC horizon: the run's checker holds the whole sequence.
    let anchors = handle.safety.anchor_prefix(handle.validator(observer).commit_count());

    handle
        .recoveries
        .iter()
        .zip(&handle.recovery_rounds)
        .map(|(&(validator, at_us), &recovery_round)| {
            let v = ValidatorId(validator);
            // Every round has a leader; scan from the recovery round up
            // to the last committed anchor.
            let first_leader_round =
                (recovery_round..=last_anchor_round).find(|r| handle.leader_at(Round(*r)) == v);
            let first_commit_round = anchors
                .iter()
                .find(|a| {
                    a.author == v && a.round.0 >= recovery_round && handle.leader_at(a.round) == v
                })
                .map(|a| a.round.0);
            let score_trajectory = summaries
                .iter()
                .map(|e| e.final_scores.get(v.index()).copied().unwrap_or(0))
                .collect();
            ReinclusionRow {
                validator,
                recovered_at_us: at_us,
                recovery_round,
                first_leader_round,
                rounds_to_first_leader: first_leader_round.map(|r| r - recovery_round),
                first_commit_round,
                rounds_to_first_commit: first_commit_round.map(|r| r - recovery_round),
                score_trajectory,
            }
        })
        .collect()
}
