//! Reputation scores (§3): the on-chain activity metric.

use hh_types::{Committee, ValidatorId};
use std::fmt;

/// Per-validator reputation accumulated during one schedule epoch.
///
/// Scores are a pure function of the committed sub-DAG sequence: both the
/// vote-counting rule and the leader-outcome rule only look at ordered
/// vertices, which all honest validators observe identically
/// (Observation 2), so schedules derived from scores agree everywhere.
///
/// ```
/// use hammerhead::ReputationScores;
/// use hh_types::{Committee, ValidatorId};
///
/// let committee = Committee::new_equal_stake(4);
/// let mut scores = ReputationScores::new(&committee);
/// scores.record_vote(ValidatorId(2));
/// scores.record_vote(ValidatorId(2));
/// assert_eq!(scores.get(ValidatorId(2)), 2);
/// assert_eq!(scores.get(ValidatorId(0)), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReputationScores {
    scores: Vec<u64>,
}

impl ReputationScores {
    /// Zeroed scores for every committee member.
    pub fn new(committee: &Committee) -> Self {
        ReputationScores { scores: vec![0; committee.size()] }
    }

    /// +1: `voter` voted for a leader's proposal (the paper's rule).
    pub fn record_vote(&mut self, voter: ValidatorId) {
        if let Some(s) = self.scores.get_mut(voter.index()) {
            *s += 1;
        }
    }

    /// Adds `points` (used by the leader-outcome ablation rule).
    pub fn add(&mut self, validator: ValidatorId, points: u64) {
        if let Some(s) = self.scores.get_mut(validator.index()) {
            *s += points;
        }
    }

    /// The score of `validator` (0 for foreign ids).
    pub fn get(&self, validator: ValidatorId) -> u64 {
        self.scores.get(validator.index()).copied().unwrap_or(0)
    }

    /// All scores, indexed by validator id.
    pub fn as_slice(&self) -> &[u64] {
        &self.scores
    }

    /// Resets every score to zero (epoch rollover).
    pub fn reset(&mut self) {
        self.scores.iter_mut().for_each(|s| *s = 0);
    }

    /// Validators sorted ascending by `(score, id)` — the deterministic
    /// order used to pick the `B` (worst) set; reverse for `G`.
    pub fn ranked_ascending(&self) -> Vec<(ValidatorId, u64)> {
        let mut ranked: Vec<(ValidatorId, u64)> =
            self.scores.iter().enumerate().map(|(i, s)| (ValidatorId(i as u16), *s)).collect();
        ranked.sort_by_key(|(id, s)| (*s, *id));
        ranked
    }
}

impl fmt::Display for ReputationScores {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.scores.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "v{i}:{s}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn votes_accumulate() {
        let c = Committee::new_equal_stake(3);
        let mut s = ReputationScores::new(&c);
        s.record_vote(ValidatorId(0));
        s.record_vote(ValidatorId(0));
        s.record_vote(ValidatorId(1));
        assert_eq!(s.as_slice(), &[2, 1, 0]);
    }

    #[test]
    fn foreign_ids_ignored() {
        let c = Committee::new_equal_stake(2);
        let mut s = ReputationScores::new(&c);
        s.record_vote(ValidatorId(5));
        s.add(ValidatorId(9), 100);
        assert_eq!(s.as_slice(), &[0, 0]);
        assert_eq!(s.get(ValidatorId(5)), 0);
    }

    #[test]
    fn reset_zeroes() {
        let c = Committee::new_equal_stake(2);
        let mut s = ReputationScores::new(&c);
        s.record_vote(ValidatorId(1));
        s.reset();
        assert_eq!(s.as_slice(), &[0, 0]);
    }

    #[test]
    fn ranking_breaks_ties_by_id() {
        let c = Committee::new_equal_stake(4);
        let mut s = ReputationScores::new(&c);
        s.add(ValidatorId(0), 5);
        s.add(ValidatorId(1), 1);
        s.add(ValidatorId(2), 5);
        s.add(ValidatorId(3), 1);
        let ranked = s.ranked_ascending();
        assert_eq!(
            ranked,
            vec![
                (ValidatorId(1), 1),
                (ValidatorId(3), 1),
                (ValidatorId(0), 5),
                (ValidatorId(2), 5),
            ]
        );
    }

    #[test]
    fn display_lists_everyone() {
        let c = Committee::new_equal_stake(2);
        let mut s = ReputationScores::new(&c);
        s.record_vote(ValidatorId(1));
        assert_eq!(s.to_string(), "[v0:0 v1:1]");
    }
}
