//! Configuration for the HammerHead policy and the validator node.

use hh_rbc::BroadcastMode;
use hh_types::{Committee, Stake, ValidatorId};

/// How reputation points are assigned (`docs/architecture.md` §5; the rules
/// are compared in `scenarios/ablation_scoring.toml`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoringRule {
    /// The paper's rule: +1 to a validator each time one of its vertices
    /// votes for (links to) the previous round's leader. Discourages vote
    /// withholding (§7).
    VoteBased,
    /// Shoal-style (§7): reward leaders whose anchors commit; voters earn
    /// nothing. Skipped leaders simply accrue nothing.
    LeaderOutcome,
    /// The "more adaptive reputation scoring" the paper's §7 leaves as an
    /// open question, implemented here as an extension: vote-based scores
    /// smoothed across epochs with an exponential moving average,
    /// `ema' = (alpha·score + (100−alpha)·ema) / 100`. Long memory
    /// (small `alpha_percent`) tolerates brief hiccups but readmits
    /// recovered validators more slowly; `alpha_percent = 100` degenerates
    /// to [`ScoringRule::VoteBased`].
    VoteEma {
        /// Weight (percent) of the just-finished epoch's score.
        alpha_percent: u8,
    },
}

/// Parameters of the HammerHead scheduling mechanism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HammerheadConfig {
    /// Schedule-epoch length `T` in rounds (Algorithm 2 line 30). The
    /// paper's anchors arrive every 2 rounds, so its benchmark setting of
    /// "recompute every 10 commits" is ≈ 20 rounds and Sui mainnet's
    /// 300 commits ≈ 600 rounds (footnote 15). This engine can order an
    /// anchor in every round, so 20 rounds are here up to 20 commits: the
    /// same rounds, hence the same wall-clock epoch.
    pub period_rounds: u64,
    /// Maximum total stake removable from the schedule (set `B`). The
    /// paper's benchmarks exclude the bottom 33% (= `f`); Sui mainnet uses
    /// a more conservative 20%. `None` means "use the committee's `f`".
    pub max_excluded_stake: Option<Stake>,
    /// The scoring rule in force.
    pub scoring_rule: ScoringRule,
}

impl HammerheadConfig {
    /// Checks the parameters against the committee they will schedule.
    ///
    /// Rejects periods too short to ever contain a committed anchor,
    /// exclusion budgets above the committee's `f` (Lemma 6's liveness
    /// argument), and out-of-range EMA weights. [`ValidatorConfig::validate`]
    /// asks here.
    pub fn validate(&self, committee: &Committee) -> Result<(), String> {
        if self.period_rounds < 2 {
            return Err(format!(
                "period_rounds must be at least 2 (a leader slot spans two rounds), got {}",
                self.period_rounds
            ));
        }
        if let Some(requested) = self.max_excluded_stake {
            let max_faulty = committee.max_faulty_stake();
            if requested > max_faulty {
                return Err(format!(
                    "max_excluded_stake {} exceeds the committee's f = {}",
                    requested.0, max_faulty.0
                ));
            }
        }
        if let ScoringRule::VoteEma { alpha_percent } = self.scoring_rule {
            if alpha_percent == 0 || alpha_percent > 100 {
                return Err(format!(
                    "vote-ema alpha_percent must be in 1..=100, got {alpha_percent}"
                ));
            }
        }
        Ok(())
    }
}

impl Default for HammerheadConfig {
    fn default() -> Self {
        HammerheadConfig {
            // The paper's benchmark setting: 10 commits ≈ 20 rounds.
            period_rounds: 20,
            max_excluded_stake: None,
            scoring_rule: ScoringRule::VoteBased,
        }
    }
}

/// Which leader schedule the validator runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleConfig {
    /// Vanilla Bullshark: static stake-weighted round-robin (the baseline).
    RoundRobin,
    /// HammerHead reputation scheduling.
    Hammerhead(HammerheadConfig),
    /// PBFT-style fixed leader (§7 extreme; ablations only).
    StaticLeader(ValidatorId),
}

/// Full configuration of a validator node.
///
/// Durations are in microseconds of simulation time; defaults are the
/// calibration used by the experiment harness (see `docs/architecture.md`
/// §2 and §6 for what each models).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidatorConfig {
    /// Leader schedule (HammerHead vs baseline).
    pub schedule: ScheduleConfig,
    /// Vertex dissemination mode.
    pub broadcast_mode: BroadcastMode,
    /// Minimum spacing between a validator's own proposals (µs). Paces the
    /// DAG; Narwhal's `min_header_delay` analogue.
    pub min_round_delay_us: u64,
    /// How long a proposer leaving an anchor-candidate round waits for
    /// that round's leader vertex before giving up (µs). This is what makes crashed
    /// leaders expensive for the baseline. Under HammerHead, once round 0
    /// has closed, only a leader with an ordered vertex or a vertex in the
    /// proposer's DAG is awaited (see `Validator::drive`).
    pub leader_timeout_us: u64,
    /// Max transactions per vertex.
    pub max_block_txs: usize,
    /// Max modeled wire bytes per vertex block (transaction headers plus
    /// payloads). The proposer stops batching once the next transaction
    /// would cross this bound, except that a block always carries at
    /// least one transaction (an oversized single transaction must not
    /// wedge the pool). `usize::MAX` — the default — disables the bound,
    /// leaving `max_block_txs` as the only batch limit.
    pub max_block_bytes: usize,
    /// Transaction pool capacity; submissions beyond it are shed.
    pub pool_capacity: usize,
    /// Backpressure budget: own transactions proposed but not yet committed
    /// before the proposer stops pulling from the pool (models Narwhal's
    /// bounded pending state).
    pub max_uncommitted_txs: usize,
    /// Execution drain rate (transactions per second) — the stand-in for
    /// the Sui execution pipeline; the system-wide capacity ceiling.
    pub exec_rate_tps: u64,
    /// Rounds retained below the last committed anchor before GC.
    pub gc_depth: u64,
    /// Broadcast-layer maintenance tick (µs): sync retries, proposal
    /// re-broadcast.
    pub sync_tick_us: u64,
}

impl Default for ValidatorConfig {
    fn default() -> Self {
        ValidatorConfig {
            schedule: ScheduleConfig::RoundRobin,
            broadcast_mode: BroadcastMode::BestEffort,
            // Calibrated so that vertices from remote regions (one-way
            // ≈ 75–165 ms in the geo matrix) sometimes miss the voting
            // window — the effect behind the paper's faultless latency gap
            // (Fig. 1) and the reputation signal for slow validators.
            min_round_delay_us: 100_000,
            // Must comfortably exceed the worst one-way geo delay (~180 ms
            // with jitter); the ratio to the round time (~6x) mirrors the
            // production timeout-to-round ratio, keeping the Fig. 2
            // latency degradation factors in the paper's range.
            leader_timeout_us: 600_000,
            max_block_txs: 2_000,
            max_block_bytes: usize::MAX,
            pool_capacity: 20_000,
            max_uncommitted_txs: 10_000,
            exec_rate_tps: 4_200,
            gc_depth: 200,
            sync_tick_us: 500_000,
        }
    }
}

impl ValidatorConfig {
    /// Baseline Bullshark with defaults.
    pub fn bullshark() -> Self {
        ValidatorConfig::default()
    }

    /// HammerHead with the paper's benchmark parameters.
    pub fn hammerhead() -> Self {
        ValidatorConfig {
            schedule: ScheduleConfig::Hammerhead(HammerheadConfig::default()),
            ..ValidatorConfig::default()
        }
    }

    /// Checks the pacing against itself (a zero tick re-arms at the
    /// instant it fires, and the event loop never leaves that instant),
    /// then the schedule against `committee`: a static leader must be in
    /// it, and the HammerHead parameters must fit it.
    pub fn validate(&self, committee: &Committee) -> Result<(), String> {
        if self.min_round_delay_us == 0 || self.min_round_delay_us >= self.leader_timeout_us {
            return Err("need 0 < min_round_delay_us < leader_timeout_us".into());
        }
        if self.sync_tick_us == 0 {
            return Err("need sync_tick_us > 0".into());
        }
        match &self.schedule {
            ScheduleConfig::Hammerhead(hh) => hh.validate(committee),
            ScheduleConfig::StaticLeader(leader) if !committee.contains(*leader) => Err(format!(
                "validator {} is outside the committee of {}",
                leader.0,
                committee.size()
            )),
            ScheduleConfig::RoundRobin | ScheduleConfig::StaticLeader(_) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ValidatorConfig::default();
        assert!(c.min_round_delay_us < c.leader_timeout_us);
        assert!(c.max_block_txs <= c.pool_capacity);
        assert!(matches!(c.schedule, ScheduleConfig::RoundRobin));
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_knobs() {
        let committee = Committee::new_equal_stake(10);
        assert!(HammerheadConfig::default().validate(&committee).is_ok());

        let short = HammerheadConfig { period_rounds: 1, ..HammerheadConfig::default() };
        assert_eq!(
            short.validate(&committee).unwrap_err(),
            "period_rounds must be at least 2 (a leader slot spans two rounds), got 1"
        );

        // f = 3 for n = 10 equal-stake validators; 4 is over budget.
        let greedy =
            HammerheadConfig { max_excluded_stake: Some(Stake(4)), ..HammerheadConfig::default() };
        assert_eq!(
            greedy.validate(&committee).unwrap_err(),
            "max_excluded_stake 4 exceeds the committee's f = 3"
        );
        let exact = HammerheadConfig {
            max_excluded_stake: Some(committee.max_faulty_stake()),
            ..HammerheadConfig::default()
        };
        assert!(exact.validate(&committee).is_ok());

        let ema = HammerheadConfig {
            scoring_rule: ScoringRule::VoteEma { alpha_percent: 0 },
            ..HammerheadConfig::default()
        };
        assert_eq!(
            ema.validate(&committee).unwrap_err(),
            "vote-ema alpha_percent must be in 1..=100, got 0"
        );
    }

    #[test]
    fn hammerhead_preset_enables_reputation() {
        let c = ValidatorConfig::hammerhead();
        match c.schedule {
            ScheduleConfig::Hammerhead(h) => {
                assert_eq!(h.period_rounds, 20);
                assert_eq!(h.scoring_rule, ScoringRule::VoteBased);
            }
            other => panic!("unexpected schedule {other:?}"),
        }
    }
}
