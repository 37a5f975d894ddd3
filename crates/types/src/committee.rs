//! Validator identities, stake, and committees, with what every member
//! shares: the key registry and the initial leader schedule S0.
//!
//! The paper's model (§2.1): `n` parties, an adversary corrupting parties
//! holding at most `f < n/3` of the stake. Thresholds are stake sums:
//! quorum = `2f + 1`, validity = `f + 1` (with unit stake these are the
//! familiar vertex-count thresholds).

use crate::TypeError;
use hh_crypto::{Keypair, PublicKey};
use std::fmt;
use std::sync::Arc;

/// Seed of the permutation that makes the initial schedule S0 unbiased
/// (§3). Every validator must use the same one; a deployment would derive
/// it from the epoch's randomness, which this reproduction does not model.
pub const S0_SEED: u64 = 0;

/// The most members a committee can hold: one per [`ValidatorId`].
pub const MAX_COMMITTEE_SIZE: usize = u16::MAX as usize + 1;

/// Permutes a leader slot table in place by a deterministic seed: the
/// paper's "randomly permute" for S0 ([`Committee::initial_slots`], seed
/// [`S0_SEED`]) and the one permutation any schedule uses.
///
/// Fisher–Yates driven by a splitmix64 stream: no dependency on a
/// particular RNG crate's stability guarantees.
pub fn permute_slots(slots: &mut [ValidatorId], seed: u64) {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..slots.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        slots.swap(i, j);
    }
}

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

/// Public information about one committee member, and the key registry's
/// entry for it (see `hh-crypto` for the simulation caveat).
#[derive(Clone, Debug)]
pub struct ValidatorInfo {
    id: ValidatorId,
    stake: Stake,
    public_key: PublicKey,
    /// Derived once, when the committee is built; handed out by
    /// [`Committee::keypair`].
    keypair: Keypair,
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
    /// schedule policy each hold the committee, and a clone is one pointer
    /// and one reference count.
    members: Arc<Members>,
}

/// Everything a [`Committee`] knows, built once by
/// [`CommitteeBuilder::build`].
#[derive(Debug)]
struct Members {
    validators: Box<[ValidatorInfo]>,
    /// S0: every validator's schedule policy starts from this one table
    /// ([`Committee::initial_slots`]).
    initial_slots: Arc<[ValidatorId]>,
    total_stake: Stake,
    f: Stake,
}

impl Committee {
    /// A committee of `n` validators with one unit of stake each.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (an empty committee is meaningless) or `n`
    /// exceeds [`MAX_COMMITTEE_SIZE`]; the fallible path is
    /// [`CommitteeBuilder::build`].
    pub fn new_equal_stake(n: usize) -> Self {
        CommitteeBuilder { stakes: vec![Stake(1); n] }.build().expect("0 < n <= MAX_COMMITTEE_SIZE")
    }

    /// Number of validators.
    pub fn size(&self) -> usize {
        self.members.validators.len()
    }

    /// Total voting power.
    pub fn total_stake(&self) -> Stake {
        self.members.total_stake
    }

    /// The maximum stake the adversary may hold: `f = floor((N - 1) / 3)`.
    pub fn max_faulty_stake(&self) -> Stake {
        self.members.f
    }

    /// Quorum threshold: `⌊2N/3⌋ + 1` stake (equals `2f + 1` when
    /// `N = 3f + 1`). Any two quorums intersect in more than `f` stake, so
    /// in at least one honest validator.
    pub fn quorum_threshold(&self) -> Stake {
        Stake(2 * self.members.total_stake.0 / 3 + 1)
    }

    /// Validity threshold: `⌈N/3⌉` stake (equals `f + 1` when `N = 3f + 1`).
    /// Any set with this much stake contains at least one honest validator.
    pub fn validity_threshold(&self) -> Stake {
        Stake(self.members.total_stake.0.div_ceil(3))
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: ValidatorId) -> bool {
        id.index() < self.members.validators.len()
    }

    /// Member info, or an error for foreign ids.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::UnknownValidator`] if `id` is not a member.
    pub fn validator(&self, id: ValidatorId) -> Result<&ValidatorInfo, TypeError> {
        self.members.validators.get(id.index()).ok_or(TypeError::UnknownValidator(id))
    }

    /// The stake of `id`, or zero for foreign ids (convenient in hot paths
    /// where foreign ids have already been filtered out).
    pub fn stake_of(&self, id: ValidatorId) -> Stake {
        self.members.validators.get(id.index()).map(|v| v.stake).unwrap_or(Stake(0))
    }

    /// Iterates over members in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ValidatorInfo> {
        self.members.validators.iter()
    }

    /// All member ids in order.
    pub fn ids(&self) -> impl Iterator<Item = ValidatorId> + '_ {
        self.members.validators.iter().map(|v| v.id)
    }

    /// The keypair of validator `id`: for a member, a copy of the one the
    /// registry derived when the committee was built.
    ///
    /// Key material is deterministic (`Keypair::from_seed` of the id), so
    /// any component — including tests — can reconstruct it, a foreign
    /// id's too. See `hh-crypto` for the simulation caveat.
    pub fn keypair(&self, id: ValidatorId) -> Keypair {
        self.members
            .validators
            .get(id.index())
            .map_or_else(|| Keypair::from_seed(id.0 as u64), |v| v.keypair.clone())
    }

    /// The stake-weighted slot table in validator-id order: every member
    /// once per unit of its stake.
    pub fn weighted_slots(&self) -> Vec<ValidatorId> {
        weighted_slots(&self.members.validators, self.members.total_stake)
    }

    /// The initial leader schedule S0 (§3): [`Committee::weighted_slots`]
    /// permuted by [`permute_slots`] under [`S0_SEED`]. Computed once, when
    /// the committee is built; every clone of the committee shares it.
    pub fn initial_slots(&self) -> &Arc<[ValidatorId]> {
        &self.members.initial_slots
    }
}

fn weighted_slots(validators: &[ValidatorInfo], total_stake: Stake) -> Vec<ValidatorId> {
    let mut slots = Vec::with_capacity(usize::try_from(total_stake.0).unwrap_or(0));
    for v in validators {
        slots.extend(std::iter::repeat_n(v.id, v.stake.0 as usize));
    }
    slots
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

    /// Finalizes the committee: derives every member's key and the initial
    /// schedule S0, once for every clone of it.
    ///
    /// # Errors
    ///
    /// * [`TypeError::EmptyCommittee`] if no validators were added.
    /// * [`TypeError::TooManyValidators`] beyond [`MAX_COMMITTEE_SIZE`]
    ///   members, whose ids would wrap.
    /// * [`TypeError::ZeroStake`] if any validator has zero stake.
    pub fn build(self) -> Result<Committee, TypeError> {
        if self.stakes.is_empty() {
            return Err(TypeError::EmptyCommittee);
        }
        if self.stakes.len() > MAX_COMMITTEE_SIZE {
            return Err(TypeError::TooManyValidators(self.stakes.len()));
        }
        if let Some(pos) = self.stakes.iter().position(|s| s.0 == 0) {
            return Err(TypeError::ZeroStake(ValidatorId(pos as u16)));
        }
        let validators: Box<[ValidatorInfo]> = self
            .stakes
            .iter()
            .enumerate()
            .map(|(i, &stake)| {
                let id = ValidatorId(i as u16);
                let keypair = Keypair::from_seed(id.0 as u64);
                ValidatorInfo { id, stake, public_key: keypair.public(), keypair }
            })
            .collect();
        let total_stake: Stake = self.stakes.iter().copied().sum();
        let f = Stake((total_stake.0.saturating_sub(1)) / 3);
        let mut slots = weighted_slots(&validators, total_stake);
        permute_slots(&mut slots, S0_SEED);
        let members = Members { validators, initial_slots: slots.into(), total_stake, f };
        Ok(Committee { members: Arc::new(members) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_refuses_more_members_than_validator_ids() {
        let stakes = |n| CommitteeBuilder { stakes: vec![Stake(1); n] };
        let over = MAX_COMMITTEE_SIZE + 1;
        assert_eq!(stakes(over).build().unwrap_err(), TypeError::TooManyValidators(over));
        let full = stakes(MAX_COMMITTEE_SIZE).build().expect("one member per id");
        assert_eq!(full.iter().last().map(|v| v.id), Some(ValidatorId(u16::MAX)));
    }

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
        assert_eq!((c.quorum_threshold(), c.validity_threshold()), (Stake(7), Stake(4)));
        let stake = |ids: &[u16]| ids.iter().map(|&i| c.stake_of(ValidatorId(i))).sum::<Stake>();
        // v0 alone (stake 5) is not a quorum; v0+v1 (8) is.
        assert!(stake(&[0]) < c.quorum_threshold());
        assert!(stake(&[0, 1]) >= c.quorum_threshold());
        // v1 alone (stake 3) is not validity (needs 4); v0 alone is.
        assert!(stake(&[1]) < c.validity_threshold());
        assert!(stake(&[0]) >= c.validity_threshold());
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
    fn initial_slots_are_pinned() {
        let ids = |c: &Committee| c.initial_slots().iter().map(|v| v.0).collect::<Vec<_>>();
        assert_eq!(ids(&Committee::new_equal_stake(4)), [2, 3, 1, 0]);
        assert_eq!(ids(&Committee::new_equal_stake(10)), [8, 7, 6, 5, 3, 9, 2, 4, 1, 0]);
        let weighted = CommitteeBuilder::new()
            .add(Stake(5))
            .add(Stake(3))
            .add(Stake(1))
            .add(Stake(1))
            .build()
            .unwrap();
        assert_eq!(ids(&weighted), [2, 1, 1, 1, 0, 3, 0, 0, 0, 0]);
        let n100 = ids(&Committee::new_equal_stake(100));
        assert_eq!(
            n100,
            [
                77, 2, 84, 85, 12, 50, 71, 93, 53, 44, 29, 30, 27, 8, 89, 69, 25, 9, 14, 75, 54, 4,
                17, 82, 65, 28, 86, 97, 76, 40, 37, 99, 20, 43, 96, 73, 87, 68, 39, 16, 91, 31, 7,
                36, 24, 52, 32, 94, 35, 26, 72, 6, 90, 45, 51, 66, 3, 21, 83, 81, 41, 98, 56, 33,
                58, 79, 88, 49, 60, 80, 15, 34, 11, 70, 5, 67, 13, 22, 55, 61, 78, 95, 59, 62, 10,
                57, 38, 23, 47, 46, 19, 74, 92, 64, 63, 42, 48, 18, 1, 0,
            ]
        );
    }

    #[test]
    fn keypairs_match_registry() {
        let c = Committee::new_equal_stake(3);
        for v in c.iter() {
            let kp = c.keypair(v.id());
            let sig = kp.sign(b"t", b"m");
            assert!(v.public_key().verify(b"t", b"m", &sig));
            let seeded = Keypair::from_seed(v.id().0 as u64);
            assert_eq!(sig, seeded.sign(b"t", b"m"), "the key is the seeded one");
            assert_eq!(*v.public_key(), seeded.public());
        }
        // A foreign id's key is derived on the spot.
        assert_eq!(c.keypair(ValidatorId(7)).public(), Keypair::from_seed(7).public());
    }
}
