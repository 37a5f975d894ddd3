//! Leader-schedule policies.
//!
//! [`SchedulePolicy`] is the seam between the generic Bullshark engine and
//! the scheduling mechanism. The baseline [`RoundRobinPolicy`] reproduces
//! vanilla Bullshark (static stake-weighted rotation) and, over a
//! one-slot table, the PBFT-style fixed leader the paper's §7 discusses as
//! an extreme; the `hammerhead` crate provides the reputation-based policy
//! that actually switches schedules.

use crate::ordered::OrderedSet;
use hh_dag::Dag;
use hh_types::{permute_slots, Committee, Round, ValidatorId, Vertex};
use std::sync::Arc;

/// What the policy decided when shown an anchor about to be ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleDecision {
    /// Keep the active schedule; order the anchor.
    Continue,
    /// A new schedule was installed starting at this anchor's round. The
    /// engine must drop the anchor (it was derived under the old schedule)
    /// and re-interpret the DAG.
    Switched,
}

/// Maps rounds to leaders and decides schedule changes.
///
/// Implementations must be **deterministic functions of the committed
/// prefix**: every honest validator feeds the policy the same ordered
/// sequence of anchors and vertices, so every honest validator must derive
/// the same schedule (the paper's Proposition 1 relies on exactly this).
pub trait SchedulePolicy {
    /// The leader of `round` under the active schedule. Every round has
    /// one; whether its vertex is an anchor candidate is the engine's
    /// question ([`crate::Bullshark::is_candidate_round`]).
    fn leader_at(&self, round: Round) -> ValidatorId;

    /// The validators whose round-`round` vertices are anchor candidates
    /// beside the leader's, best-ranked first (the leader is skipped if
    /// listed). The engine commits such a vertex at quorum votes rather
    /// than `f+1` (see [`crate::Bullshark::process_vertex`]). Like the
    /// schedule, the list must be a function of the ordered prefix. None
    /// by default.
    fn candidates_at(&self, _round: Round) -> &[ValidatorId] {
        &[]
    }

    /// Whether the ordered prefix has heard from `leader`, which decides how
    /// its leader slots are awaited in two places. A proposer leaving a
    /// candidate round led by a leader not heard from passes it at once
    /// (unless its own DAG holds one of its vertices), and the engine
    /// decides that slot by the earned-slot quorum rule instead of waiting
    /// for the anchor above (see [`crate::Bullshark::process_vertex`]).
    /// Like the schedule, a function of the ordered prefix. Always by
    /// default.
    fn heard_from(&self, _leader: ValidatorId) -> bool {
        true
    }

    /// First round covered by the active schedule
    /// (`activeSchedule.initialRound` in Algorithm 2).
    fn initial_round(&self) -> Round;

    /// Monotone schedule counter: 0 for S0, 1 for S1, …
    fn epoch(&self) -> u64;

    /// Called with each committed anchor, oldest-first, *before* its
    /// sub-DAG is ordered. `ordered` is the set of already-ordered
    /// vertices (the anchor's unordered causal history is exactly the part
    /// of the DAG reachable from it and not in `ordered`).
    fn before_order_anchor(
        &mut self,
        anchor: &Vertex,
        dag: &Dag,
        ordered: &OrderedSet,
    ) -> ScheduleDecision;

    /// Called for every vertex as it is ordered (in delivery order), after
    /// the decision to order its anchor; `ordered` already holds it.
    /// Reputation scoring lives here.
    fn on_vertex_ordered(&mut self, vertex: &Vertex, dag: &Dag, ordered: &OrderedSet);
}

/// A leader slot table: `leader(round) = slots[(round / 2) % len]`, so
/// slot `k` leads rounds `2k` and `2k + 1`. A live leader anchors both; a
/// commit instance that passes over the slot's first round has its next
/// candidate two rounds up, so a crashed slot is tried once per pass.
///
/// Slots repeat validators proportionally to stake, so election frequency
/// matches voting power (§3: each validator `u` leads
/// `TR × stake(u) / Σ stake` rounds). An optional seeded permutation
/// unbiases the initial order, as the paper prescribes for S0.
///
/// The table is shared: a clone is a pointer, and every
/// [`SlotSchedule::initial`] of one committee is the committee's own S0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotSchedule {
    slots: Arc<[ValidatorId]>,
}

impl SlotSchedule {
    /// Stake-weighted slots in validator-id order (deterministic).
    pub fn round_robin(committee: &Committee) -> Self {
        SlotSchedule { slots: committee.weighted_slots().into() }
    }

    /// Stake-weighted slots permuted by a deterministic seed
    /// ([`permute_slots`]); all validators must use the same seed.
    pub fn permuted(committee: &Committee, seed: u64) -> Self {
        let mut slots = committee.weighted_slots();
        permute_slots(&mut slots, seed);
        SlotSchedule { slots: slots.into() }
    }

    /// The initial schedule S0 (§3): the committee's
    /// [`Committee::initial_slots`], shared, not copied. Equal to
    /// [`SlotSchedule::permuted`] under [`hh_types::S0_SEED`].
    pub fn initial(committee: &Committee) -> Self {
        SlotSchedule { slots: Arc::clone(committee.initial_slots()) }
    }

    /// Builds a schedule from explicit slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    pub fn from_slots(slots: Vec<ValidatorId>) -> Self {
        assert!(!slots.is_empty(), "schedule needs at least one slot");
        SlotSchedule { slots: slots.into() }
    }

    /// The slot table.
    pub fn slots(&self) -> &[ValidatorId] {
        &self.slots
    }

    /// The leader of `round`.
    pub fn leader_at(&self, round: Round) -> ValidatorId {
        self.slots[((round.0 / 2) as usize) % self.slots.len()]
    }

    /// How many slots each validator owns (for tests and monitoring).
    pub fn slot_count(&self, v: ValidatorId) -> usize {
        self.slots.iter().filter(|s| **s == v).count()
    }
}

/// Vanilla Bullshark: a fixed stake-weighted rotation, never switching,
/// with no anchor candidate but the leader.
#[derive(Clone, Debug)]
pub struct RoundRobinPolicy {
    schedule: SlotSchedule,
}

impl RoundRobinPolicy {
    /// Wraps a slot schedule as a static policy.
    pub fn new(schedule: SlotSchedule) -> Self {
        RoundRobinPolicy { schedule }
    }

    /// The underlying slot table.
    pub fn schedule(&self) -> &SlotSchedule {
        &self.schedule
    }
}

impl SchedulePolicy for RoundRobinPolicy {
    fn leader_at(&self, round: Round) -> ValidatorId {
        self.schedule.leader_at(round)
    }

    fn initial_round(&self) -> Round {
        Round(0)
    }

    fn epoch(&self) -> u64 {
        0
    }

    fn before_order_anchor(
        &mut self,
        _anchor: &Vertex,
        _dag: &Dag,
        _ordered: &OrderedSet,
    ) -> ScheduleDecision {
        ScheduleDecision::Continue
    }

    fn on_vertex_ordered(&mut self, _vertex: &Vertex, _dag: &Dag, _ordered: &OrderedSet) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_types::{CommitteeBuilder, Stake};

    #[test]
    fn round_robin_slots_follow_stake() {
        let committee =
            CommitteeBuilder::new().add(Stake(3)).add(Stake(1)).add(Stake(2)).build().unwrap();
        let s = SlotSchedule::round_robin(&committee);
        assert_eq!(s.slots().len(), 6);
        assert_eq!(s.slot_count(ValidatorId(0)), 3);
        assert_eq!(s.slot_count(ValidatorId(1)), 1);
        assert_eq!(s.slot_count(ValidatorId(2)), 2);
    }

    #[test]
    fn each_slot_leads_two_consecutive_rounds() {
        let committee = Committee::new_equal_stake(3);
        let s = SlotSchedule::round_robin(&committee);
        let leaders: Vec<u16> = (0..8).map(|r| s.leader_at(Round(r)).0).collect();
        assert_eq!(leaders, vec![0, 0, 1, 1, 2, 2, 0, 0]);
    }

    #[test]
    fn permutation_is_deterministic_and_stake_preserving() {
        let committee = CommitteeBuilder::new()
            .add(Stake(2))
            .add(Stake(2))
            .add(Stake(2))
            .add(Stake(2))
            .build()
            .unwrap();
        let a = SlotSchedule::permuted(&committee, 7);
        let b = SlotSchedule::permuted(&committee, 7);
        assert_eq!(a, b, "same seed, same permutation");
        for i in 0..4 {
            assert_eq!(a.slot_count(ValidatorId(i)), 2, "stake preserved");
        }
        // Different seeds almost surely differ on 8 slots; check a few.
        let c = SlotSchedule::permuted(&committee, 8);
        let d = SlotSchedule::permuted(&committee, 9);
        assert!(a != c || a != d, "permutation actually permutes");
    }

    #[test]
    fn initial_is_the_s0_seed_permutation_and_shared() {
        let weighted = CommitteeBuilder::new()
            .add(Stake(5))
            .add(Stake(3))
            .add(Stake(1))
            .add(Stake(1))
            .build()
            .unwrap();
        for committee in [Committee::new_equal_stake(4), Committee::new_equal_stake(100), weighted]
        {
            let s0 = SlotSchedule::initial(&committee);
            assert_eq!(s0, SlotSchedule::permuted(&committee, hh_types::S0_SEED));
            assert!(Arc::ptr_eq(&s0.slots, committee.initial_slots()));
        }
    }

    #[test]
    fn one_slot_schedule_never_rotates() {
        let p = RoundRobinPolicy::new(SlotSchedule::from_slots(vec![ValidatorId(2)]));
        for r in [0u64, 1, 2, 4, 100] {
            assert_eq!(p.leader_at(Round(r)), ValidatorId(2));
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_slots_panics() {
        SlotSchedule::from_slots(vec![]);
    }
}
