//! Validator identities, stake, and committees.
//!
//! The paper's model (§2.1): `n` parties, an adversary corrupting parties
//! holding at most `f < n/3` of the stake. Thresholds are stake sums:
//! quorum = `2f + 1`, validity = `f + 1` (with unit stake these are the
//! familiar vertex-count thresholds).

use crate::TypeError;
use hh_crypto::{Keypair, PublicKey};
use std::fmt;

/// Index of a validator within its committee.
///
/// Stable across the whole execution; doubles as the seed for the
/// validator's (simulated) keypair.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ValidatorId(pub u16);

impl fmt::Display for ValidatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl ValidatorId {
    /// The validator's position as a `usize`, for indexing score tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Voting power. Stake sums use saturating arithmetic; committees small
/// enough to simulate never overflow `u64`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Stake(pub u64);

impl fmt::Display for Stake {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::ops::Add for Stake {
    type Output = Stake;
    fn add(self, rhs: Stake) -> Stake {
        Stake(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::AddAssign for Stake {
    fn add_assign(&mut self, rhs: Stake) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for Stake {
    fn sum<I: Iterator<Item = Stake>>(iter: I) -> Stake {
        iter.fold(Stake(0), |a, b| a + b)
    }
}

/// Public information about one committee member.
#[derive(Clone, Debug)]
pub struct ValidatorInfo {
    id: ValidatorId,
    stake: Stake,
    public_key: PublicKey,
}

impl ValidatorInfo {
    /// The validator's committee index.
    pub fn id(&self) -> ValidatorId {
        self.id
    }

    /// The validator's voting power.
    pub fn stake(&self) -> Stake {
        self.stake
    }

    /// The validator's verifying key.
    pub fn public_key(&self) -> &PublicKey {
        &self.public_key
    }
}

/// The validator set and its stake-weighted thresholds.
///
/// Construct with [`Committee::new_equal_stake`] for unit-stake committees
/// or [`CommitteeBuilder`] for weighted ones.
///
/// ```
/// use hh_types::{CommitteeBuilder, Stake};
/// let committee = CommitteeBuilder::new()
///     .add(Stake(5))
///     .add(Stake(3))
///     .add(Stake(1))
///     .add(Stake(1))
///     .build()
///     .unwrap();
/// assert_eq!(committee.total_stake(), Stake(10));
/// assert_eq!(committee.max_faulty_stake(), Stake(3)); // f = floor((10-1)/3)
/// assert_eq!(committee.quorum_threshold(), Stake(7)); // 2f+1
/// ```
#[derive(Clone, Debug)]
pub struct Committee {
    /// Shared: a validator's DAG, broadcast layer, consensus engine and
    /// schedule policy each hold the committee, and a clone is a pointer.
    validators: std::sync::Arc<[ValidatorInfo]>,
    total_stake: Stake,
    f: Stake,
}

impl Committee {
    /// A committee of `n` validators with one unit of stake each.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (an empty committee is meaningless; the fallible
    /// path is [`CommitteeBuilder::build`]).
    pub fn new_equal_stake(n: usize) -> Self {
        let mut b = CommitteeBuilder::new();
        for _ in 0..n {
            b = b.add(Stake(1));
        }
        b.build().expect("n > 0")
    }

    /// Number of validators.
    pub fn size(&self) -> usize {
        self.validators.len()
    }

    /// Total voting power.
    pub fn total_stake(&self) -> Stake {
        self.total_stake
    }

    /// The maximum stake the adversary may hold: `f = floor((N - 1) / 3)`.
    pub fn max_faulty_stake(&self) -> Stake {
        self.f
    }

    /// Quorum threshold: `⌊2N/3⌋ + 1` stake (equals `2f + 1` when
    /// `N = 3f + 1`). Any two quorums intersect in more than `f` stake, so
    /// in at least one honest validator.
    pub fn quorum_threshold(&self) -> Stake {
        Stake(2 * self.total_stake.0 / 3 + 1)
    }

    /// Validity threshold: `⌈N/3⌉` stake (equals `f + 1` when `N = 3f + 1`).
    /// Any set with this much stake contains at least one honest validator.
    pub fn validity_threshold(&self) -> Stake {
        Stake(self.total_stake.0.div_ceil(3))
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: ValidatorId) -> bool {
        id.index() < self.validators.len()
    }

    /// Member info, or an error for foreign ids.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::UnknownValidator`] if `id` is not a member.
    pub fn validator(&self, id: ValidatorId) -> Result<&ValidatorInfo, TypeError> {
        self.validators.get(id.index()).ok_or(TypeError::UnknownValidator(id))
    }

    /// The stake of `id`, or zero for foreign ids (convenient in hot paths
    /// where foreign ids have already been filtered out).
    pub fn stake_of(&self, id: ValidatorId) -> Stake {
        self.validators.get(id.index()).map(|v| v.stake).unwrap_or(Stake(0))
    }

    /// Iterates over members in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ValidatorInfo> {
        self.validators.iter()
    }

    /// All member ids in order.
    pub fn ids(&self) -> impl Iterator<Item = ValidatorId> + '_ {
        self.validators.iter().map(|v| v.id)
    }

    /// Sums the stake of the given validators, counting duplicates once.
    pub fn stake_of_set<I: IntoIterator<Item = ValidatorId>>(&self, ids: I) -> Stake {
        let mut seen = vec![false; self.validators.len()];
        let mut total = Stake(0);
        for id in ids {
            if let Some(slot) = seen.get_mut(id.index()) {
                if !*slot {
                    *slot = true;
                    total += self.stake_of(id);
                }
            }
        }
        total
    }

    /// Whether the given set holds at least quorum (`2f+1`) stake.
    pub fn is_quorum<I: IntoIterator<Item = ValidatorId>>(&self, ids: I) -> bool {
        self.stake_of_set(ids) >= self.quorum_threshold()
    }

    /// Whether the given set holds at least validity (`f+1`) stake.
    pub fn is_validity<I: IntoIterator<Item = ValidatorId>>(&self, ids: I) -> bool {
        self.stake_of_set(ids) >= self.validity_threshold()
    }

    /// The keypair of validator `id`.
    ///
    /// Key material is deterministic (seeded by the id), so any component —
    /// including tests — can reconstruct it. See `hh-crypto` for the
    /// simulation caveat.
    pub fn keypair(&self, id: ValidatorId) -> Keypair {
        Keypair::from_seed(id.0 as u64)
    }
}

/// Incrementally builds a stake-weighted [`Committee`].
#[derive(Debug, Default)]
pub struct CommitteeBuilder {
    stakes: Vec<Stake>,
}

impl CommitteeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a validator with the given stake; ids are assigned in call order.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, stake: Stake) -> Self {
        self.stakes.push(stake);
        self
    }

    /// Finalizes the committee.
    ///
    /// # Errors
    ///
    /// * [`TypeError::EmptyCommittee`] if no validators were added.
    /// * [`TypeError::ZeroStake`] if any validator has zero stake.
    pub fn build(self) -> Result<Committee, TypeError> {
        if self.stakes.is_empty() {
            return Err(TypeError::EmptyCommittee);
        }
        if let Some(pos) = self.stakes.iter().position(|s| s.0 == 0) {
            return Err(TypeError::ZeroStake(ValidatorId(pos as u16)));
        }
        let validators: std::sync::Arc<[ValidatorInfo]> = self
            .stakes
            .iter()
            .enumerate()
            .map(|(i, &stake)| {
                let id = ValidatorId(i as u16);
                ValidatorInfo { id, stake, public_key: Keypair::from_seed(id.0 as u64).public() }
            })
            .collect();
        let total_stake: Stake = self.stakes.iter().copied().sum();
        let f = Stake((total_stake.0.saturating_sub(1)) / 3);
        Ok(Committee { validators, total_stake, f })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_stake_thresholds() {
        // Canonical BFT sizes: n = 3f + 1.
        for (n, f) in [(4usize, 1u64), (7, 2), (10, 3), (100, 33)] {
            let c = Committee::new_equal_stake(n);
            assert_eq!(c.max_faulty_stake(), Stake(f), "n={n}");
            assert_eq!(c.quorum_threshold(), Stake(2 * f + 1));
            assert_eq!(c.validity_threshold(), Stake(f + 1));
        }
    }

    #[test]
    fn quorum_intersection_holds() {
        // Two quorums must overlap in > f stake for all sizes we simulate,
        // including sizes that are not of the form 3f + 1.
        for n in 4..=120usize {
            let c = Committee::new_equal_stake(n);
            let q = c.quorum_threshold().0;
            let total = c.total_stake().0;
            assert!(
                2 * q > total + c.max_faulty_stake().0,
                "n={n} q={q} f={}",
                c.max_faulty_stake().0
            );
        }
    }

    #[test]
    fn weighted_stake_thresholds() {
        let c = CommitteeBuilder::new()
            .add(Stake(5))
            .add(Stake(3))
            .add(Stake(1))
            .add(Stake(1))
            .build()
            .unwrap();
        assert_eq!(c.total_stake(), Stake(10));
        assert_eq!(c.max_faulty_stake(), Stake(3));
        // v0 alone (stake 5) is not a quorum; v0+v1 (8) is.
        assert!(!c.is_quorum([ValidatorId(0)]));
        assert!(c.is_quorum([ValidatorId(0), ValidatorId(1)]));
        // v1 alone (stake 3) is not validity (needs 4); v0 alone is.
        assert!(!c.is_validity([ValidatorId(1)]));
        assert!(c.is_validity([ValidatorId(0)]));
    }

    #[test]
    fn duplicate_ids_counted_once() {
        let c = Committee::new_equal_stake(4);
        let dup = [ValidatorId(0), ValidatorId(0), ValidatorId(0)];
        assert_eq!(c.stake_of_set(dup), Stake(1));
        assert!(!c.is_quorum(dup));
    }

    #[test]
    fn empty_committee_rejected() {
        assert!(matches!(CommitteeBuilder::new().build(), Err(TypeError::EmptyCommittee)));
    }

    #[test]
    fn zero_stake_rejected() {
        let err = CommitteeBuilder::new().add(Stake(1)).add(Stake(0)).build().unwrap_err();
        assert!(matches!(err, TypeError::ZeroStake(ValidatorId(1))));
    }

    #[test]
    fn unknown_validator_errors() {
        let c = Committee::new_equal_stake(4);
        assert!(c.validator(ValidatorId(4)).is_err());
        assert_eq!(c.stake_of(ValidatorId(9)), Stake(0));
        assert!(!c.contains(ValidatorId(4)));
    }

    #[test]
    fn keypairs_match_registry() {
        let c = Committee::new_equal_stake(3);
        for v in c.iter() {
            let kp = c.keypair(v.id());
            let sig = kp.sign(b"t", b"m");
            assert!(v.public_key().verify(b"t", b"m", &sig));
        }
    }
}
