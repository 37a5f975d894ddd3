//! The always-on safety invariant checker.
//!
//! Every run feeds the committed sub-DAGs of every validator — live
//! commits and crash-recovery replay alike — into a [`SafetyChecker`],
//! which asserts the five invariants an adversarial network must never
//! be able to break (it may only slow the system down):
//!
//! 1. **No fork**: all validators agree on the whole commit at every
//!    commit index — its anchor and its vertex list — checked against the
//!    first writer of each index.
//! 2. **Slot uniqueness**: across every committed sub-DAG, a
//!    `(round, author)` slot resolves to exactly one vertex digest.
//! 3. **Commit monotonicity**: each validator's commit indices advance
//!    contiguously; a WAL replay may restart the sequence from zero but
//!    must then reproduce the same prefix (rule 1 holds it to the
//!    commits the cluster already exposed before the crash).
//! 4. **Nothing ordered from a collected round**: no commit names a
//!    vertex below the GC horizon of the same validator's previous
//!    commit ([`CommitRecord::horizon`]); a replay rewinding to zero
//!    starts again from horizon zero.
//! 5. **Schedule agreement** (Proposition 1): all validators make the
//!    same schedule switches at every commit index — the
//!    [`CommitRecord::summaries`] of a record equal those of the first
//!    write of its index.
//!
//! The checker holds one entry per commit index, the run's one full copy
//! of the anchor sequence ([`SafetyChecker::anchor_prefix`]); one summary
//! per schedule switch, the run's one copy of the schedule history
//! ([`SafetyChecker::epoch_summaries`], [`SafetyChecker::leader_at`]); and
//! the slots of the rounds no validator has collected yet, one digest row
//! per round ([`SlotDigests`]). What it keeps grows with the commit count
//! by the first two alone.
//!
//! A validator's records reach the checker inside the event that produced
//! them ([`crate::Driver::step`] hands them over before it returns), so a
//! violation is recorded at the event that caused it and no validator
//! holds a record between events; the node's testnet harness restarts
//! every WAL on a driver with one checker.
//! Violations are collected rather than panicking at the observation
//! site, so a failing run can dump *all* divergence before the harness
//! aborts with a per-validator diagnostic.

use crate::{CommitRecord, EpochSummary};
use hh_crypto::{Digest, Sha256};
use hh_types::{Round, SlotDigests, ValidatorId, VertexRef};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// One detected safety violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SafetyViolation {
    /// The validator whose observation exposed the violation.
    pub validator: u16,
    /// Human-readable description naming both sides of the divergence.
    pub detail: String,
}

impl std::fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "validator {}: {}", self.validator, self.detail)
    }
}

/// The first record any validator exposed for one commit index.
#[derive(Debug)]
struct FirstWrite {
    /// The validator that exposed it.
    by: u16,
    anchor: VertexRef,
    /// SHA-256 over the record's vertex digests, in commit order.
    list: Digest,
}

/// A schedule switch as the first write of its commit index exposed it.
#[derive(Debug)]
struct Switch {
    /// The commit index whose record carried it.
    index: u64,
    summary: EpochSummary,
}

/// Where one validator's commit sequence stands.
#[derive(Debug, Default)]
struct Cursor {
    /// The next commit index expected (invariant 3).
    next: u64,
    /// The horizon of its previous record (invariant 4).
    horizon: Round,
}

/// What the checker has seen so far.
///
/// **Why invariant 2 needs only a window.** Slots are checked for the
/// first write of each index alone, and only at or above `slot_floor`,
/// the previous first write's horizon; the rows below it are dropped as
/// it rises. Nothing a validator commits escapes the check:
///
/// * a record for an index already written is held to the first
///   writer's vertex list by invariant 1's digest, so its slots are the
///   first writer's;
/// * the first writer of index `i` committed index `i − 1` before it
///   (invariant 3), with the anchor of that index's first write
///   (invariant 1), hence with the same horizon: a horizon is the anchor
///   round less `gc_depth`, and every validator of a run is built from
///   one `ValidatorConfig`, so `gc_depth` is the same run-wide.
///   Invariant 4 then stops that writer from naming a slot below
///   `slot_floor`;
/// * floors only rise, so a slot at or above the current floor that an
///   earlier first write named was recorded then and is still held.
#[derive(Debug, Default)]
struct Observed {
    /// Commit index `i` → its first write, at position `i`: indices are
    /// dense, and one past the end is a monotonicity violation already.
    commits: Vec<FirstWrite>,
    /// The first writes' schedule switches, in commit order.
    switches: Vec<Switch>,
    /// `(round, author)` → the committed digest, for the rounds at or
    /// above `slot_floor`.
    slots: SlotDigests,
    /// The horizon of the latest first write.
    slot_floor: Round,
    cursors: HashMap<u16, Cursor>,
    /// Total records observed.
    records_seen: u64,
    /// Whether any of `violations` is a fork (invariant 1).
    forked: bool,
    violations: Vec<SafetyViolation>,
}

/// Cross-validator safety invariant checker (see module docs).
///
/// A clone is another handle on the same checker: a run's validator
/// drivers each hold one and feed it as they commit, and the run's
/// `SimHandle::safety` reads the verdict off the same state.
#[derive(Clone, Debug, Default)]
pub struct SafetyChecker(Arc<Mutex<Observed>>);

impl SafetyChecker {
    /// A fresh checker with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    fn observed(&self) -> MutexGuard<'_, Observed> {
        self.0.lock().expect("nothing panics while it holds the checker")
    }

    /// Feeds one validator's commit records, in the order the validator
    /// produced them.
    pub fn observe_all(&mut self, validator: u16, records: &[CommitRecord]) {
        let mut observed = self.observed();
        for r in records {
            observed.observe(validator, r);
        }
    }

    /// Feeds a single commit record.
    pub fn observe(&mut self, validator: u16, record: &CommitRecord) {
        self.observed().observe(validator, record);
    }

    /// Violations detected so far, in detection order.
    pub fn violations(&self) -> Vec<SafetyViolation> {
        self.observed().violations.clone()
    }

    /// Whether no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.observed().violations.is_empty()
    }

    /// Whether invariant 1 holds: no validator, live or replaying, ever
    /// exposed a commit other than the first one exposed for its commit
    /// index — every pair of commit sequences is prefix-consistent.
    pub fn fork_free(&self) -> bool {
        !self.observed().forked
    }

    /// Total commit records observed.
    pub fn records_seen(&self) -> u64 {
        self.observed().records_seen
    }

    /// The anchors of the first `len` commit indices, as first exposed
    /// (all of them when fewer were observed). A validator that has made
    /// `k` commits without a violation committed `anchor_prefix(k)`.
    pub fn anchor_prefix(&self, len: u64) -> Vec<VertexRef> {
        self.observed().commits.iter().take(len as usize).map(|c| c.anchor).collect()
    }

    /// The schedule switches the first `len` commit indices carried,
    /// oldest first (all of them when fewer were observed): a validator
    /// that has made `k` commits without a violation made these switches,
    /// and besides them only those its next commit will carry.
    pub fn epoch_summaries(&self, len: u64) -> Vec<EpochSummary> {
        self.observed().carried(len).iter().map(|s| s.summary.clone()).collect()
    }

    /// The validators the switches of [`SafetyChecker::epoch_summaries`]
    /// excluded, counted without copying the history: each switch's
    /// `excluded` set, summed.
    pub fn exclusions(&self, len: u64) -> u64 {
        self.observed().carried(len).iter().map(|s| s.summary.excluded.len() as u64).sum()
    }

    /// The leader of `round` under the latest switch observed that starts
    /// at or below it, or `None` when none does: the initial schedule S0
    /// leads such a round.
    pub fn leader_at(&self, round: Round) -> Option<ValidatorId> {
        let observed = self.observed();
        let switched = observed.switches.partition_point(|s| s.summary.new_initial_round <= round);
        let latest = &observed.switches[..switched].last()?.summary;
        Some(latest.slots.leader_at(round))
    }

    /// How many `(round, author)` slots invariant 2 holds right now.
    pub fn retained_slots(&self) -> usize {
        self.observed().slots.len()
    }

    /// Aborts the run if any invariant has been violated.
    ///
    /// # Panics
    ///
    /// Panics with [`SafetyChecker::diagnostic_dump`] — every detected
    /// violation plus each validator's commit cursor and the global
    /// commit front — when the checker is not clean.
    pub fn assert_clean(&self) {
        if !self.is_clean() {
            panic!("safety invariant violated\n{}", self.diagnostic_dump());
        }
    }

    /// A per-validator diagnostic dump for failing runs: every
    /// violation plus each validator's commit cursor and the global
    /// commit front.
    pub fn diagnostic_dump(&self) -> String {
        use std::fmt::Write as _;
        let observed = self.observed();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "safety checker: {} violation(s) over {} record(s)",
            observed.violations.len(),
            observed.records_seen
        );
        for v in &observed.violations {
            let _ = writeln!(out, "  - {v}");
        }
        let mut cursors: Vec<(&u16, &Cursor)> = observed.cursors.iter().collect();
        cursors.sort_by_key(|(validator, _)| **validator);
        for (validator, cursor) in cursors {
            let _ = writeln!(
                out,
                "  validator {validator}: next commit index {}, horizon {}",
                cursor.next, cursor.horizon
            );
        }
        if let Some(front) = observed.commits.last() {
            let _ = writeln!(
                out,
                "  commit front: index {} anchor {} (first by {})",
                observed.commits.len() - 1,
                front.anchor,
                front.by
            );
        }
        out
    }
}

impl Observed {
    /// The switches the first `len` commit indices carried.
    fn carried(&self, len: u64) -> &[Switch] {
        &self.switches[..self.switches.partition_point(|s| s.index < len)]
    }

    fn observe(&mut self, validator: u16, record: &CommitRecord) {
        self.records_seen += 1;

        // Invariant 3: contiguous per-validator indices; only a WAL
        // replay may rewind, and only to the very start of the sequence.
        let rewinds = record.replayed && record.index == 0;
        let cursor = self.cursors.entry(validator).or_default();
        if record.index != cursor.next && !rewinds {
            self.violations.push(SafetyViolation {
                validator,
                detail: format!(
                    "non-monotonic commit: index {} arrived while expecting {}{}",
                    record.index,
                    cursor.next,
                    if record.replayed { " (during replay)" } else { "" }
                ),
            });
        }
        cursor.next = record.index + 1;

        // Invariant 4: the DAG that committed this dropped every round
        // below its previous commit's horizon.
        if rewinds {
            cursor.horizon = Round(0);
        }
        if let Some(v) = record.vertices.iter().find(|v| v.round < cursor.horizon) {
            self.violations.push(SafetyViolation {
                validator,
                detail: format!(
                    "commit index {} orders vertex {} of round {}, below horizon {} of this \
                     validator's previous commit",
                    record.index, v.digest, v.round, cursor.horizon
                ),
            });
        }
        cursor.horizon = cursor.horizon.max(record.horizon);

        // Invariant 1: every validator exposes the same commit per index.
        let mut h = Sha256::new();
        for v in &record.vertices {
            h.update(v.digest.as_bytes());
        }
        let list = h.finalize();
        match self.commits.get(record.index as usize) {
            Some(first) if first.anchor != record.anchor || first.list != list => {
                self.forked = true;
                self.violations.push(SafetyViolation {
                    validator,
                    detail: format!(
                        "fork at commit index {}: anchor {} with vertex list {} disagrees with \
                         anchor {} with vertex list {} first exposed by validator {}",
                        record.index, record.anchor, list, first.anchor, first.list, first.by
                    ),
                });
            }
            // Invariant 5: and the same schedule switches.
            Some(first) => {
                let from = self.switches.partition_point(|s| s.index < record.index);
                let to = self.switches.partition_point(|s| s.index <= record.index);
                let carried = &self.switches[from..to];
                if !carried.iter().map(|s| &s.summary).eq(&record.summaries) {
                    let mine = describe(&record.summaries);
                    let theirs = describe(carried.iter().map(|s| &s.summary));
                    self.violations.push(SafetyViolation {
                        validator,
                        detail: format!(
                            "schedule divergence at commit index {}: switches {mine} disagree \
                             with {theirs} first exposed by validator {}",
                            record.index, first.by
                        ),
                    });
                }
            }
            None if record.index == self.commits.len() as u64 => {
                self.first_write(validator, record);
                self.commits.push(FirstWrite { by: validator, anchor: record.anchor, list });
                self.switches.extend(
                    record
                        .summaries
                        .iter()
                        .map(|s| Switch { index: record.index, summary: s.clone() }),
                );
            }
            // Past the front: invariant 3 has flagged the gap.
            None => {}
        }
    }

    /// Invariant 2 over a first write: one digest per `(round, author)`
    /// slot, ever — checked in the window `Observed` argues is enough.
    fn first_write(&mut self, validator: u16, record: &CommitRecord) {
        let floor = self.slot_floor;
        for v in record.vertices.iter().filter(|v| v.round >= floor) {
            if let Some(first) = self.slots.record(v.round, v.author, v.digest) {
                self.violations.push(SafetyViolation {
                    validator,
                    detail: format!(
                        "two committed vertices for slot ({}, {}): {} and {}",
                        v.round, v.author, first, v.digest
                    ),
                });
            }
        }
        self.slot_floor = floor.max(record.horizon);
        self.slots.prune_below(self.slot_floor);
    }
}

/// Names a commit's schedule switches for a violation: the epoch each
/// opened, where, and whom it excluded.
fn describe<'a>(summaries: impl IntoIterator<Item = &'a EpochSummary>) -> String {
    let named: Vec<String> = summaries
        .into_iter()
        .map(|s| {
            format!(
                "epoch {} from round {} without {:?}",
                s.epoch + 1,
                s.new_initial_round,
                s.excluded
            )
        })
        .collect();
    if named.is_empty() {
        "[none]".into()
    } else {
        format!("[{}]", named.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vref(round: u64, author: u16, tag: u8) -> VertexRef {
        VertexRef {
            round: Round(round),
            author: ValidatorId(author),
            digest: hh_crypto::sha256(&[tag, round as u8, author as u8]),
        }
    }

    fn record(index: u64, anchor: VertexRef, vertices: Vec<VertexRef>) -> CommitRecord {
        CommitRecord {
            index,
            anchor,
            vertices,
            horizon: Round(0),
            replayed: false,
            summaries: Vec::new(),
        }
    }

    #[test]
    fn agreeing_validators_stay_clean() {
        let mut c = SafetyChecker::new();
        let a0 = vref(2, 0, 0);
        let a1 = vref(4, 1, 0);
        let subdag0 = vec![vref(1, 0, 0), vref(1, 1, 0), a0];
        let subdag1 = vec![vref(3, 2, 0), a1];
        for validator in 0..4u16 {
            c.observe(validator, &record(0, a0, subdag0.clone()));
            c.observe(validator, &record(1, a1, subdag1.clone()));
        }
        assert!(c.is_clean(), "{}", c.diagnostic_dump());
        assert_eq!(c.records_seen(), 8);
    }

    #[test]
    fn forked_anchor_is_detected_with_both_sides_named() {
        let mut c = SafetyChecker::new();
        let honest = vref(2, 0, 0);
        let forked = vref(2, 0, 9);
        c.observe(0, &record(0, honest, vec![honest]));
        c.observe(1, &record(0, forked, vec![forked]));
        assert!(!c.is_clean());
        let dump = c.diagnostic_dump();
        assert!(dump.contains("fork at commit index 0"), "{dump}");
        assert!(dump.contains(&honest.digest.to_string()), "{dump}");
        assert!(dump.contains(&forked.digest.to_string()), "{dump}");
    }

    #[test]
    fn equal_anchors_with_different_vertex_lists_are_a_fork() {
        let mut c = SafetyChecker::new();
        let a = vref(2, 0, 0);
        c.observe(0, &record(0, a, vec![vref(1, 3, 0), a]));
        c.observe(1, &record(0, a, vec![vref(1, 2, 0), a]));
        assert!(!c.fork_free());
        let dump = c.diagnostic_dump();
        assert_eq!(c.violations().len(), 1, "{dump}");
        assert!(dump.contains("fork at commit index 0"), "{dump}");
    }

    #[test]
    fn twins_at_two_first_written_indices_are_a_slot_violation() {
        let mut c = SafetyChecker::new();
        let a0 = vref(2, 0, 0);
        let a1 = vref(3, 1, 0);
        let twin_a = vref(1, 3, 0);
        let twin_b = vref(1, 3, 7); // same slot (round 1, author 3), new digest
        c.observe(0, &record(0, a0, vec![twin_a, a0]));
        c.observe(0, &record(1, a1, vec![twin_b, a1]));
        let dump = c.diagnostic_dump();
        assert!(c.fork_free(), "{dump}");
        assert_eq!(c.violations().len(), 1, "{dump}");
        assert!(dump.contains("two committed vertices for slot (1, v3)"), "{dump}");
    }

    #[test]
    fn slots_below_the_previous_first_writes_horizon_are_dropped() {
        let mut c = SafetyChecker::new();
        for index in 0..200u64 {
            let round = index + 10;
            let anchor = vref(round, 0, 0);
            let vertices = vec![vref(round - 1, 1, 0), vref(round - 1, 2, 0), anchor];
            let horizon = Round(round - 4);
            for validator in 0..3 {
                let r = CommitRecord { horizon, ..record(index, anchor, vertices.clone()) };
                c.observe(validator, &r);
            }
        }
        assert!(c.is_clean(), "{}", c.diagnostic_dump());
        // Three slots a round, in the rows from the last floor (the last
        // anchor's round, 209, less 4) up to that anchor's.
        let (top, floor) = (209, 209 - 4);
        let bound = (top - floor + 1) * 3;
        assert!(c.retained_slots() <= bound, "{} slots, bound {bound}", c.retained_slots());
        assert_eq!(c.anchor_prefix(1_000).len(), 200);
        assert_eq!(c.anchor_prefix(2), vec![vref(10, 0, 0), vref(11, 0, 0)]);
    }

    #[test]
    fn naming_a_vertex_below_the_previous_horizon_is_flagged_unless_replay_rewound() {
        let a0 = vref(12, 0, 0);
        let a1 = vref(13, 1, 0);
        let first = CommitRecord { horizon: Round(2), ..record(0, a0, vec![vref(1, 1, 0), a0]) };

        let mut c = SafetyChecker::new();
        c.observe(0, &first);
        c.observe(0, &CommitRecord { horizon: Round(3), ..record(1, a1, vec![vref(1, 2, 0), a1]) });
        let dump = c.diagnostic_dump();
        assert_eq!(c.violations().len(), 1, "{dump}");
        assert!(dump.contains("of round 1, below horizon 2"), "{dump}");

        // A replay rewinding to index 0 starts from an empty DAG again.
        let mut c = SafetyChecker::new();
        c.observe(0, &first);
        c.observe(0, &CommitRecord { horizon: Round(3), ..record(1, a1, vec![a1]) });
        c.observe(0, &CommitRecord { replayed: true, ..first.clone() });
        assert!(c.is_clean(), "{}", c.diagnostic_dump());
    }

    fn switch(epoch: u64, from: u64, excluded: u16, slots: &[u16]) -> EpochSummary {
        let ids = |ids: &[u16]| ids.iter().map(|i| ValidatorId(*i)).collect::<Vec<_>>();
        EpochSummary {
            epoch,
            new_initial_round: Round(from),
            excluded: ids(&[excluded]),
            promoted: ids(&[slots[0]]),
            final_scores: vec![1; 4],
            candidates: Vec::new(),
            slots: hh_consensus::SlotSchedule::from_slots(ids(slots)),
        }
    }

    #[test]
    fn the_first_write_of_each_switch_is_the_runs_schedule_history() {
        let mut c = SafetyChecker::new();
        let a = [vref(2, 0, 0), vref(9, 1, 0), vref(12, 2, 0), vref(21, 0, 0)];
        let s0 = switch(0, 8, 3, &[1, 2, 0, 1]);
        let s1 = switch(1, 20, 1, &[0, 2, 0, 3]);
        let summaries = [vec![], vec![s0.clone()], vec![], vec![s1.clone()]];
        for validator in 0..3u16 {
            for (index, (anchor, summaries)) in a.iter().zip(&summaries).enumerate() {
                let r = CommitRecord {
                    summaries: summaries.clone(),
                    ..record(index as u64, *anchor, vec![*anchor])
                };
                c.observe(validator, &r);
            }
        }
        assert!(c.is_clean(), "{}", c.diagnostic_dump());
        assert_eq!(c.epoch_summaries(u64::MAX), vec![s0.clone(), s1.clone()]);
        assert_eq!(c.epoch_summaries(3), vec![s0]);
        assert_eq!(c.epoch_summaries(1), vec![]);
        // S0 leads below the first switch; each switch's slots from its round up.
        assert_eq!(c.leader_at(Round(7)), None);
        assert_eq!(c.leader_at(Round(8)), Some(ValidatorId(1)));
        assert_eq!(c.leader_at(Round(19)), Some(ValidatorId(2)));
        assert_eq!(c.leader_at(Round(20)), Some(ValidatorId(0)));
        assert_eq!(c.leader_at(Round(22)), Some(ValidatorId(3)));
    }

    #[test]
    fn a_switch_other_than_the_first_write_at_its_index_is_a_violation() {
        let a0 = vref(2, 0, 0);
        let a1 = vref(9, 1, 0);
        let first = CommitRecord {
            summaries: vec![switch(0, 8, 3, &[1, 2, 0, 1])],
            ..record(1, a1, vec![a1])
        };
        let cases = [
            ("another B", vec![switch(0, 8, 2, &[1, 3, 0, 1])]),
            ("no switch", vec![]),
            ("a second switch", vec![first.summaries[0].clone(), switch(1, 9, 3, &[1, 2, 0, 1])]),
        ];
        for (what, summaries) in cases {
            let mut c = SafetyChecker::new();
            for validator in 0..2 {
                c.observe(validator, &record(0, a0, vec![a0]));
            }
            c.observe(0, &first);
            c.observe(1, &CommitRecord { summaries, ..first.clone() });
            let dump = c.diagnostic_dump();
            assert!(c.fork_free(), "{what}: {dump}");
            assert_eq!(c.violations().len(), 1, "{what}: {dump}");
            assert!(
                dump.contains("validator 1: schedule divergence at commit index 1"),
                "{what}: {dump}"
            );
            assert!(dump.contains("first exposed by validator 0"), "{what}: {dump}");
        }
        // A switch where the first write had none diverges just as much.
        let mut c = SafetyChecker::new();
        c.observe(0, &record(0, a0, vec![a0]));
        c.observe(
            1,
            &CommitRecord { summaries: first.summaries.clone(), ..record(0, a0, vec![a0]) },
        );
        assert_eq!(c.violations().len(), 1, "{}", c.diagnostic_dump());
        assert_eq!(c.epoch_summaries(u64::MAX), vec![]);
    }

    #[test]
    fn skipped_commit_index_is_non_monotonic() {
        let mut c = SafetyChecker::new();
        let a0 = vref(2, 0, 0);
        let a2 = vref(6, 2, 0);
        c.observe(0, &record(0, a0, vec![a0]));
        c.observe(0, &record(2, a2, vec![a2]));
        assert!(!c.is_clean());
        assert!(c.violations()[0].detail.contains("index 2 arrived while expecting 1"));
    }

    #[test]
    fn replay_may_rewind_to_zero_but_must_match() {
        let mut c = SafetyChecker::new();
        let a0 = vref(2, 0, 0);
        let a1 = vref(4, 1, 0);
        c.observe(3, &record(0, a0, vec![a0]));
        c.observe(3, &record(1, a1, vec![a1]));
        // Crash; replay reproduces the same prefix from zero.
        c.observe(3, &CommitRecord { replayed: true, ..record(0, a0, vec![a0]) });
        c.observe(3, &CommitRecord { replayed: true, ..record(1, a1, vec![a1]) });
        // Live commits continue past the replayed front.
        let a2 = vref(6, 2, 0);
        c.observe(3, &record(2, a2, vec![a2]));
        assert!(c.is_clean(), "{}", c.diagnostic_dump());

        // A replay that rewrites history is a fork.
        let rogue = vref(4, 1, 9);
        c.observe(3, &CommitRecord { replayed: true, ..record(0, a0, vec![a0]) });
        c.observe(3, &CommitRecord { replayed: true, ..record(1, rogue, vec![rogue]) });
        assert!(!c.is_clean());
        assert!(c.violations()[0].detail.contains("fork at commit index 1"));
    }

    #[test]
    fn live_rewind_without_replay_flag_is_flagged() {
        let mut c = SafetyChecker::new();
        let a0 = vref(2, 0, 0);
        c.observe(0, &record(0, a0, vec![a0]));
        c.observe(0, &record(0, a0, vec![a0]));
        assert!(!c.is_clean());
        assert!(c.violations()[0].detail.contains("index 0 arrived while expecting 1"));
    }
}
