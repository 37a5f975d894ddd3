//! The always-on safety invariant checker.
//!
//! Every run feeds the committed sub-DAGs of every validator — live
//! commits and crash-recovery replay alike — into a [`SafetyChecker`],
//! which asserts the three invariants an adversarial network must never
//! be able to break (it may only slow the system down):
//!
//! 1. **No fork**: all validators agree on the anchor at every commit
//!    index — pairwise commit-prefix consistency, checked against the
//!    first writer of each index.
//! 2. **Slot uniqueness**: across every committed sub-DAG, a
//!    `(round, author)` slot resolves to exactly one vertex digest.
//! 3. **Commit monotonicity**: each validator's commit indices advance
//!    contiguously; a WAL replay may restart the sequence from zero but
//!    must then reproduce the same prefix (rule 1 holds it to the
//!    anchors the cluster already exposed before the crash).
//!
//! A simulated validator's records reach the checker inside the event
//! that produced them (`hh-sim`'s validator actor hands them over before
//! its handler returns), so a violation is recorded at the event that
//! caused it and no validator holds a record between events; the node's
//! testnet harness feeds it the commit sequences its WAL audit recomputes.
//! Violations are collected rather than panicking at the observation
//! site, so a failing run can dump *all* divergence before the harness
//! aborts with a per-validator diagnostic.

use crate::CommitRecord;
use hh_crypto::Digest;
use hh_types::{Round, ValidatorId, VertexRef};
use std::collections::{BTreeMap, HashMap};
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

/// What the checker has seen so far.
#[derive(Debug, Default)]
struct Observed {
    /// Commit index → the first anchor any validator exposed for it.
    anchors: BTreeMap<u64, (u16, VertexRef)>,
    /// `(round, author)` → the first committed digest for that slot.
    slots: HashMap<(Round, ValidatorId), Digest>,
    /// Per-validator next expected commit index.
    cursors: HashMap<u16, u64>,
    /// Total records observed.
    records_seen: u64,
    /// Whether any of `violations` is a fork (invariant 1).
    forked: bool,
    violations: Vec<SafetyViolation>,
}

/// Cross-validator safety invariant checker (see module docs).
///
/// A clone is another handle on the same checker: a run's validator
/// actors each hold one and feed it as they commit, and the run's
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
    /// exposed an anchor other than the first one exposed for its commit
    /// index — every pair of commit sequences is prefix-consistent.
    pub fn fork_free(&self) -> bool {
        !self.observed().forked
    }

    /// Total commit records observed.
    pub fn records_seen(&self) -> u64 {
        self.observed().records_seen
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
        let mut cursors: Vec<(&u16, &u64)> = observed.cursors.iter().collect();
        cursors.sort();
        for (validator, cursor) in cursors {
            let _ = writeln!(out, "  validator {validator}: next commit index {cursor}");
        }
        if let Some((idx, (by, anchor))) = observed.anchors.iter().next_back() {
            let _ = writeln!(out, "  commit front: index {idx} anchor {anchor} (first by {by})");
        }
        out
    }
}

impl Observed {
    fn observe(&mut self, validator: u16, record: &CommitRecord) {
        self.records_seen += 1;

        // Invariant 3: contiguous per-validator indices; only a WAL
        // replay may rewind, and only to the very start of the sequence.
        let cursor = self.cursors.entry(validator).or_insert(0);
        if record.index == *cursor {
            *cursor += 1;
        } else if record.replayed && record.index == 0 {
            *cursor = 1;
        } else {
            self.violations.push(SafetyViolation {
                validator,
                detail: format!(
                    "non-monotonic commit: index {} arrived while expecting {}{}",
                    record.index,
                    cursor,
                    if record.replayed { " (during replay)" } else { "" }
                ),
            });
            *cursor = record.index + 1;
        }

        // Invariant 1: every validator exposes the same anchor per index.
        match self.anchors.get(&record.index) {
            None => {
                self.anchors.insert(record.index, (validator, record.anchor));
            }
            Some((first_by, first)) if *first != record.anchor => {
                self.forked = true;
                self.violations.push(SafetyViolation {
                    validator,
                    detail: format!(
                        "fork at commit index {}: anchor {} disagrees with {} first exposed \
                         by validator {}",
                        record.index, record.anchor, first, first_by
                    ),
                });
            }
            Some(_) => {}
        }

        // Invariant 2: one digest per (round, author) slot, ever.
        for v in &record.vertices {
            match self.slots.get(&(v.round, v.author)) {
                None => {
                    self.slots.insert((v.round, v.author), v.digest);
                }
                Some(first) if *first != v.digest => {
                    self.violations.push(SafetyViolation {
                        validator,
                        detail: format!(
                            "two committed vertices for slot ({}, {}): {} and {}",
                            v.round, v.author, first, v.digest
                        ),
                    });
                }
                Some(_) => {}
            }
        }
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
        CommitRecord { index, anchor, vertices, replayed: false }
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
    fn duplicate_slot_with_distinct_digest_is_detected() {
        let mut c = SafetyChecker::new();
        let a = vref(2, 0, 0);
        let twin_a = vref(1, 3, 0);
        let twin_b = vref(1, 3, 7); // same slot (round 1, author 3), new digest
        c.observe(0, &record(0, a, vec![twin_a, a]));
        c.observe(1, &record(0, a, vec![twin_b, a]));
        let dump = c.diagnostic_dump();
        assert_eq!(c.violations().len(), 1, "{dump}");
        assert!(dump.contains("two committed vertices for slot"), "{dump}");
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
