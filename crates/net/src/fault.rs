//! The fault schedule: one ordered timeline of crash, recovery, slowdown
//! and partition events for a run.
//!
//! This is the single fault model flowing through every layer: scenario
//! files parse into it (via `hh-scenario`), [`FaultSchedule::validate`]
//! rejects unrunnable timelines up front, and the [`crate::Simulator`]
//! executes the same value. The experiment harness reads it to decide
//! which validators carry persistent storage (runs with recoveries get a
//! WAL-backed store so `hammerhead::Validator::on_restart` has something
//! to replay), which validators count as live for metrics, and when to
//! sample the network round for the re-inclusion analysis. The paper's
//! evaluation needs:
//!
//! * crash faults from t=0 (Fig. 2: 3/16/33 crashed validators);
//! * "less responsive" validators (the §1 Sui mainnet incident: 10% of
//!   validators suddenly slow);
//! * recovery (the crash-recovery feature of the production implementation);
//! * partitions, modelling the pre-GST adversary in liveness tests.
//!
//! The queries the simulator makes on the hot path —
//! [`FaultSchedule::slowdown_delay`] and
//! [`FaultSchedule::partition_release`] run once per routed message,
//! [`FaultSchedule::crashed_at`] per liveness probe — are answered from
//! indexes built as events are appended: a per-node crash/recovery
//! timeline sorted for binary search, and window lists stably sorted by
//! start so a lookup scans only windows that have already opened. The
//! event list itself stays in insertion order because the simulator turns
//! crashes and recoveries into queue events whose sequence numbers must
//! be stable.
//!
//! All times are microseconds of simulated time.

use crate::time::{Duration, SimTime};
use crate::NodeId;
use std::fmt;

/// One timed fault event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// `node` stops processing messages and timers at `at_us`.
    Crash {
        /// The crashing validator.
        node: u16,
        /// Crash instant (µs).
        at_us: u64,
    },
    /// `node` restarts at `at_us`: volatile state is dropped and rebuilt
    /// from its persistent store (`Validator::on_restart`).
    Recover {
        /// The restarting validator.
        node: u16,
        /// Restart instant (µs).
        at_us: u64,
    },
    /// Messages to and from `node` gain `extra_us` one-way delay during
    /// `[from_us, until_us)`.
    Slowdown {
        /// The degraded validator.
        node: u16,
        /// Window start (inclusive, µs).
        from_us: u64,
        /// Window end (exclusive, µs); `u64::MAX` for "until the end".
        until_us: u64,
        /// Extra one-way delay (µs).
        extra_us: u64,
    },
    /// Messages between `group_a` and `group_b` are buffered during
    /// `[from_us, until_us)` and delivered after the heal (links stay
    /// reliable, per the model in §2.1).
    Partition {
        /// One side of the cut.
        group_a: Vec<u16>,
        /// The other side; validators in neither group talk to everyone.
        group_b: Vec<u16>,
        /// Window start (inclusive, µs).
        from_us: u64,
        /// Heal time (exclusive, µs).
        until_us: u64,
    },
}

/// An unrunnable fault schedule (contradictory or liveness-destroying).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultScheduleError(String);

impl fmt::Display for FaultScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for FaultScheduleError {}

/// What happened to a node at a point on its crash/recovery timeline.
///
/// `Crash < Recover` so that at equal timestamps the recovery sorts last
/// and wins: a node crashed and recovered at the same instant is up.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Crash,
    Recover,
}

/// A slowdown window in the simulator's own units.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SlowWindow {
    node: NodeId,
    from: SimTime,
    until: SimTime,
    extra: Duration,
}

/// A partition window with its groups sorted for binary-search
/// membership.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CutWindow {
    group_a: Vec<NodeId>,
    group_b: Vec<NodeId>,
    from: SimTime,
    until: SimTime,
}

impl CutWindow {
    fn severs(&self, from: NodeId, to: NodeId) -> bool {
        let a_from = self.group_a.binary_search(&from).is_ok();
        let b_from = self.group_b.binary_search(&from).is_ok();
        let a_to = self.group_a.binary_search(&to).is_ok();
        let b_to = self.group_b.binary_search(&to).is_ok();
        (a_from && b_to) || (b_from && a_to)
    }
}

/// The full fault schedule of a run: an ordered list of [`FaultEvent`]s.
///
/// Two schedules with the same events in the same order produce
/// bit-identical simulations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Insertion order (the simulator's event-seq contract).
    events: Vec<FaultEvent>,
    /// Per-node crash/recovery timeline sorted by `(node, at_us, phase)`;
    /// `crashed_at` binary-searches the node's segment.
    timeline: Vec<(u16, u64, Phase)>,
    /// Slowdown windows stably sorted by `from`.
    slowdowns: Vec<SlowWindow>,
    /// Partition windows stably sorted by `from`.
    partitions: Vec<CutWindow>,
}

impl FaultSchedule {
    /// An empty schedule (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// The events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    fn node_event(mut self, node: u16, at_us: u64, phase: Phase) -> Self {
        let entry = (node, at_us, phase);
        let pos = self.timeline.partition_point(|e| *e <= entry);
        self.timeline.insert(pos, entry);
        self.events.push(match phase {
            Phase::Crash => FaultEvent::Crash { node, at_us },
            Phase::Recover => FaultEvent::Recover { node, at_us },
        });
        self
    }

    /// Appends a crash event.
    #[must_use]
    pub fn crash(self, node: u16, at_us: u64) -> Self {
        self.node_event(node, at_us, Phase::Crash)
    }

    /// Crashes `nodes` at simulation start (the Fig. 2 configuration).
    #[must_use]
    pub fn crash_from_start<I: IntoIterator<Item = u16>>(self, nodes: I) -> Self {
        nodes.into_iter().fold(self, |schedule, node| schedule.crash(node, 0))
    }

    /// Appends a recovery event.
    #[must_use]
    pub fn recover(self, node: u16, at_us: u64) -> Self {
        self.node_event(node, at_us, Phase::Recover)
    }

    /// Appends a bounded slowdown window.
    #[must_use]
    pub fn slowdown(mut self, node: u16, from_us: u64, until_us: u64, extra_us: u64) -> Self {
        let window = SlowWindow {
            node: NodeId(node as usize),
            from: SimTime(from_us),
            until: SimTime(until_us),
            extra: Duration::from_micros(extra_us),
        };
        let pos = self.slowdowns.partition_point(|s| s.from <= window.from);
        self.slowdowns.insert(pos, window);
        self.events.push(FaultEvent::Slowdown { node, from_us, until_us, extra_us });
        self
    }

    /// Appends an open-ended slowdown (degraded until the end of the run)
    /// — the §1 incident's shape.
    #[must_use]
    pub fn slowdown_from(self, node: u16, from_us: u64, extra_us: u64) -> Self {
        self.slowdown(node, from_us, u64::MAX, extra_us)
    }

    /// Appends a partition window.
    #[must_use]
    pub fn partition(
        mut self,
        group_a: Vec<u16>,
        group_b: Vec<u16>,
        from_us: u64,
        until_us: u64,
    ) -> Self {
        let sorted = |group: &[u16]| {
            let mut ids: Vec<NodeId> = group.iter().map(|i| NodeId(*i as usize)).collect();
            ids.sort_unstable();
            ids
        };
        let window = CutWindow {
            group_a: sorted(&group_a),
            group_b: sorted(&group_b),
            from: SimTime(from_us),
            until: SimTime(until_us),
        };
        let pos = self.partitions.partition_point(|p| p.from <= window.from);
        self.partitions.insert(pos, window);
        self.events.push(FaultEvent::Partition { group_a, group_b, from_us, until_us });
        self
    }

    /// Crash the *last* `count` validators from t=0 (keeps leader slots of
    /// early ids intact, matching "maximum tolerable faults" benchmarks).
    ///
    /// # Errors
    ///
    /// Fails when `count >= committee_size`: crashing everyone (or more
    /// validators than exist) leaves nothing to measure.
    pub fn crash_last(committee_size: usize, count: usize) -> Result<Self, FaultScheduleError> {
        if count >= committee_size {
            return Err(FaultScheduleError(format!(
                "crash_last: crashing the last {count} of {committee_size} validators leaves \
                 no live validator"
            )));
        }
        let first = committee_size - count;
        Ok(FaultSchedule::new().crash_from_start((first..committee_size).map(|i| i as u16)))
    }

    /// Whether the schedule contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether any recovery event is scheduled (such runs get WAL-backed
    /// validator stores so `on_restart` has state to replay).
    pub fn has_recoveries(&self) -> bool {
        self.events.iter().any(|e| matches!(e, FaultEvent::Recover { .. }))
    }

    /// Crash events as `(validator, at_us)`, in insertion order.
    pub fn crashes(&self) -> Vec<(u16, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Crash { node, at_us } => Some((*node, *at_us)),
                _ => None,
            })
            .collect()
    }

    /// Recovery events as `(validator, at_us)`, in insertion order.
    pub fn recoveries(&self) -> Vec<(u16, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Recover { node, at_us } => Some((*node, *at_us)),
                _ => None,
            })
            .collect()
    }

    /// Distinct validators with a crash event anywhere on the timeline,
    /// ascending (the run's fault count).
    pub fn crashed_nodes(&self) -> Vec<u16> {
        let crashes = self.timeline.iter().filter(|e| e.2 == Phase::Crash);
        let mut nodes: Vec<u16> = crashes.map(|e| e.0).collect();
        nodes.dedup();
        nodes
    }

    /// Whether `node` is crashed at `t_us`: crashed at or before, with no
    /// recovery at or after that crash up to `t_us`.
    ///
    /// Answered by binary search over the node's sorted event timeline:
    /// the latest crash-or-recover event at or before `t_us` decides. The
    /// simulator, the metrics layer and the harness all ask here, so they
    /// agree on who is down.
    pub fn crashed_at(&self, node: u16, t_us: u64) -> bool {
        let before = self.timeline.partition_point(|e| (e.0, e.1) <= (node, t_us));
        matches!(self.timeline[..before].last(), Some((n, _, Phase::Crash)) if *n == node)
    }

    /// Validator indices not crashed at `t_us`, ascending.
    pub fn live_at(&self, committee_size: usize, t_us: u64) -> Vec<usize> {
        (0..committee_size).filter(|i| !self.crashed_at(*i as u16, t_us)).collect()
    }

    /// Extra one-way delay affecting a `from → to` message sent at `now`:
    /// the sum over every open slowdown window touching either endpoint.
    pub fn slowdown_delay(&self, from: NodeId, to: NodeId, now: SimTime) -> Duration {
        let mut extra = Duration::ZERO;
        // Windows are sorted by start; everything past the partition point
        // has not opened yet.
        let opened = self.slowdowns.partition_point(|s| s.from <= now);
        for s in &self.slowdowns[..opened] {
            if (s.node == from || s.node == to) && now < s.until {
                extra = extra + s.extra;
            }
        }
        extra
    }

    /// If a `from → to` message sent at `now` crosses an active partition,
    /// returns the (latest) heal time it must wait for.
    pub fn partition_release(&self, from: NodeId, to: NodeId, now: SimTime) -> Option<SimTime> {
        let opened = self.partitions.partition_point(|p| p.from <= now);
        self.partitions[..opened]
            .iter()
            .filter(|p| now < p.until && p.severs(from, to))
            .map(|p| p.until)
            .max()
    }

    /// Checks the schedule against a committee of `committee_size`:
    ///
    /// * every referenced validator exists;
    /// * no contradictory crash/recovery sequencing — a recovery must
    ///   follow a crash of the same node, and a node cannot crash twice
    ///   without recovering in between;
    /// * at most `f = (n - 1) / 3` validators are crashed at any instant
    ///   (beyond that the protocol cannot commit and the run measures
    ///   nothing);
    /// * partitions have disjoint non-empty groups and non-empty windows;
    /// * slowdowns have positive delay and non-empty windows.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultScheduleError`] naming the first violation.
    pub fn validate(&self, committee_size: usize) -> Result<(), FaultScheduleError> {
        let n = committee_size;
        let in_range = |node: u16| -> Result<(), FaultScheduleError> {
            if node as usize >= n {
                return Err(FaultScheduleError(format!(
                    "validator {node} is outside the committee of {n}"
                )));
            }
            Ok(())
        };

        for event in &self.events {
            match event {
                FaultEvent::Crash { node, .. } | FaultEvent::Recover { node, .. } => {
                    in_range(*node)?;
                }
                FaultEvent::Slowdown { node, from_us, until_us, extra_us } => {
                    in_range(*node)?;
                    if *extra_us == 0 {
                        return Err(FaultScheduleError(format!(
                            "slowdown of validator {node} has zero extra delay"
                        )));
                    }
                    if *until_us <= *from_us {
                        return Err(FaultScheduleError(format!(
                            "slowdown window of validator {node} is empty \
                             ({from_us}µs..{until_us}µs)"
                        )));
                    }
                }
                FaultEvent::Partition { group_a, group_b, from_us, until_us } => {
                    if group_a.is_empty() || group_b.is_empty() {
                        return Err(FaultScheduleError(
                            "partition groups must both be non-empty".into(),
                        ));
                    }
                    for node in group_a.iter().chain(group_b) {
                        in_range(*node)?;
                    }
                    if let Some(shared) = group_a.iter().find(|x| group_b.contains(x)) {
                        return Err(FaultScheduleError(format!(
                            "validator {shared} is on both sides of a partition"
                        )));
                    }
                    if *until_us <= *from_us {
                        return Err(FaultScheduleError(format!(
                            "partition window is empty ({from_us}µs..{until_us}µs)"
                        )));
                    }
                }
            }
        }

        // Sequencing: the timeline is already sorted per node by time (a
        // crash and recovery at the same instant order crash-first, a
        // zero-length outage); require strict crash/recover alternation
        // starting with a crash. Each outage's ends go on the sweep as
        // they are met; a zero-length one occupies no instant, so its
        // crash comes back off.
        let mut open: Option<(u16, u64)> = None;
        let mut sweep: Vec<(u64, bool)> = Vec::new();
        for &(node, at, phase) in &self.timeline {
            let since = open.filter(|(down, _)| *down == node).map(|(_, since)| since);
            match (phase, since) {
                (Phase::Crash, Some(_)) => {
                    return Err(FaultScheduleError(format!(
                        "validator {node} crashes again at {at}µs without recovering first"
                    )))
                }
                (Phase::Recover, None) => {
                    return Err(FaultScheduleError(format!(
                        "validator {node} recovers at {at}µs without a preceding crash"
                    )))
                }
                (Phase::Crash, None) => {
                    open = Some((node, at));
                    sweep.push((at, true));
                }
                (Phase::Recover, Some(since)) => {
                    open = None;
                    if at == since {
                        sweep.pop();
                    } else {
                        sweep.push((at, false));
                    }
                }
            }
        }

        // Concurrency sweep: at no instant may more than f validators be
        // down. A recovery at t frees its node at t (window semantics), so
        // another node's crash at t sorts after it.
        let f = n.saturating_sub(1) / 3;
        sweep.sort_unstable();
        let mut down = 0usize;
        for (at, is_crash) in sweep {
            if is_crash {
                down += 1;
                if down > f {
                    return Err(FaultScheduleError(format!(
                        "{down} validators crashed at once at {at}µs exceeds f = {f} for a \
                         committee of {n}"
                    )));
                }
            } else {
                down -= 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn crash_last_crashes_the_tail() {
        let s = FaultSchedule::crash_last(10, 3).expect("valid");
        assert_eq!(s.crashed_nodes(), vec![7, 8, 9]);
        assert!(s.crashed_at(8, 0));
        assert!(s.crashed_at(9, 100_000_000));
        assert!(!s.crashed_at(0, 0));
        assert_eq!(s.live_at(10, 0), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn crash_last_rejects_oversized_counts() {
        assert!(FaultSchedule::crash_last(4, 5).is_err());
        assert!(FaultSchedule::crash_last(4, 4).is_err());
        assert!(FaultSchedule::crash_last(0, 0).is_err());
    }

    #[test]
    fn crash_and_recover_windows() {
        let s = FaultSchedule::new().crash(2, 5_000_000).recover(2, 9_000_000);
        assert!(!s.crashed_at(2, 4_999_999));
        assert!(s.crashed_at(2, 5_000_000));
        assert!(s.crashed_at(2, 8_999_999));
        assert!(!s.crashed_at(2, 9_000_000), "the recovery instant is up");
        assert!(!s.crashed_at(1, 6_000_000));
        assert!(!s.crashed_at(3, 6_000_000));
        assert_eq!(s.live_at(4, 6_000_000), vec![0, 1, 3]);
        assert_eq!(s.live_at(4, 10_000_000), vec![0, 1, 2, 3]);
        assert!(s.has_recoveries());
        assert_eq!(s.recoveries(), vec![(2, 9_000_000)]);
    }

    #[test]
    fn repeated_crash_after_recovery() {
        let s = FaultSchedule::new().crash(1, 10).recover(1, 20).crash(1, 30);
        assert!(!s.crashed_at(1, 25));
        assert!(s.crashed_at(1, 31));
        assert_eq!(s.crashed_nodes(), vec![1]);
    }

    #[test]
    fn recover_at_crash_instant_means_up() {
        let s = FaultSchedule::new().crash(1, 10).recover(1, 10);
        assert!(!s.crashed_at(1, 10));
        assert!(!s.crashed_at(1, 11));
    }

    #[test]
    fn stray_recovery_before_crash_does_not_cancel_it() {
        let s = FaultSchedule::new().recover(1, 5).crash(1, 10);
        assert!(!s.crashed_at(1, 7));
        assert!(s.crashed_at(1, 15));
    }

    #[test]
    fn builder_order_is_preserved_for_event_accessors() {
        // The simulator's event sequence numbers follow accessor order, so
        // the index must never re-shuffle these.
        let s = FaultSchedule::new().crash(3, 9).crash(1, 0).recover(3, 12).recover(1, 4);
        assert_eq!(s.crashes(), vec![(3, 9), (1, 0)]);
        assert_eq!(s.recoveries(), vec![(3, 12), (1, 4)]);
        assert_eq!(s.events()[1], FaultEvent::Crash { node: 1, at_us: 0 });
        assert_eq!(s.crashed_nodes(), vec![1, 3]);
    }

    #[test]
    fn slowdown_applies_both_directions_within_window() {
        let s = FaultSchedule::new().slowdown(2, 1_000_000, 2_000_000, 100_000);
        let t = SimTime::from_millis(1500);
        let extra = Duration::from_millis(100);
        assert_eq!(s.slowdown_delay(NodeId(2), NodeId(0), t), extra);
        assert_eq!(s.slowdown_delay(NodeId(0), NodeId(2), t), extra);
        assert_eq!(s.slowdown_delay(NodeId(0), NodeId(1), t), Duration::ZERO);
        assert_eq!(s.slowdown_delay(NodeId(2), NodeId(0), SimTime::from_secs(1)), extra);
        let end = SimTime::from_secs(2);
        assert_eq!(s.slowdown_delay(NodeId(2), NodeId(0), end), Duration::ZERO, "exclusive end");
    }

    #[test]
    fn overlapping_slowdowns_accumulate() {
        let s = FaultSchedule::new().slowdown_from(1, 0, 50_000).slowdown_from(1, 0, 25_000);
        let both = Duration::from_millis(75);
        assert_eq!(s.slowdown_delay(NodeId(1), NodeId(0), SimTime::from_secs(1)), both);
        // `u64::MAX` is "until the end".
        assert_eq!(s.slowdown_delay(NodeId(1), NodeId(0), SimTime(u64::MAX - 1)), both);
    }

    #[test]
    fn partition_severs_cross_traffic_only() {
        let s = FaultSchedule::new().partition(vec![1, 0], vec![3, 2], 1_000_000, 5_000_000);
        let mid = SimTime::from_secs(2);
        let heal = Some(SimTime::from_secs(5));
        assert_eq!(s.partition_release(NodeId(0), NodeId(2), mid), heal);
        assert_eq!(s.partition_release(NodeId(3), NodeId(1), mid), heal);
        assert_eq!(s.partition_release(NodeId(0), NodeId(1), mid), None);
        assert_eq!(s.partition_release(NodeId(0), NodeId(2), SimTime::from_secs(5)), None);
        assert_eq!(s.partition_release(NodeId(0), NodeId(2), SimTime::from_secs(6)), None);
        // A node outside both groups is unaffected.
        assert_eq!(s.partition_release(NodeId(0), NodeId(9), mid), None);
        // The event keeps the groups as given; only the index sorts them.
        assert!(
            matches!(&s.events()[0], FaultEvent::Partition { group_a, .. } if group_a == &[1, 0])
        );
    }

    #[test]
    fn overlapping_partitions_release_at_the_latest_heal() {
        // Inserted out of start order; the index sorts them.
        let s = FaultSchedule::new().partition(vec![0], vec![1], 3_000_000, 9_000_000);
        let s = s.partition(vec![0], vec![1], 1_000_000, 5_000_000);
        let release = |secs| s.partition_release(NodeId(0), NodeId(1), SimTime::from_secs(secs));
        assert_eq!(release(4), Some(SimTime::from_secs(9)));
        assert_eq!(release(2), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn mixed_schedule_indexes_every_event_kind() {
        let s = FaultSchedule::new()
            .crash_from_start([2, 3])
            .recover(3, 7_000_000)
            .slowdown_from(1, 1_000_000, 250_000)
            .partition(vec![0], vec![1], 2_000_000, 4_000_000);
        assert_eq!(s.crashes(), vec![(2, 0), (3, 0)]);
        assert_eq!(s.recoveries(), vec![(3, 7_000_000)]);
        assert!(s.crashed_at(2, 8_000_000));
        assert!(!s.crashed_at(3, 8_000_000));
        assert_eq!(
            s.slowdown_delay(NodeId(1), NodeId(0), SimTime(1_500_000)),
            Duration::from_micros(250_000)
        );
        assert_eq!(
            s.partition_release(NodeId(0), NodeId(1), SimTime(3_000_000)),
            Some(SimTime(4_000_000))
        );
    }

    /// The indexed `crashed_at` must agree with a direct transcription of
    /// the window semantics on randomized event sets.
    #[test]
    fn crashed_at_matches_naive_oracle_on_random_schedules() {
        fn naive(crashes: &[(u16, u64)], recoveries: &[(u16, u64)], node: u16, t: u64) -> bool {
            let last_crash =
                crashes.iter().filter(|(n, at)| *n == node && *at <= t).map(|(_, at)| *at).max();
            let Some(crash_time) = last_crash else {
                return false;
            };
            !recoveries.iter().any(|(n, at)| *n == node && *at >= crash_time && *at <= t)
        }

        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let mut s = FaultSchedule::new();
            for _ in 0..rng.gen_range(0..24usize) {
                let node = rng.gen_range(0..6);
                let at = rng.gen_range(0..40);
                s = if rng.gen_bool(0.5) { s.crash(node, at) } else { s.recover(node, at) };
            }
            for _ in 0..40 {
                let node = rng.gen_range(0..6);
                let t = rng.gen_range(0..44);
                assert_eq!(
                    s.crashed_at(node, t),
                    naive(&s.crashes(), &s.recoveries(), node, t),
                    "node {node} at {t}: {:?}",
                    s.events()
                );
            }
        }
    }

    #[test]
    fn validate_accepts_a_full_dynamic_schedule() {
        let s = FaultSchedule::new()
            .crash(3, 2_000_000)
            .recover(3, 6_000_000)
            .crash(3, 9_000_000)
            .recover(3, 12_000_000)
            .slowdown_from(1, 4_000_000, 300_000)
            .partition(vec![0, 1], vec![2, 3, 4, 5, 6], 3_000_000, 5_000_000);
        assert!(s.validate(7).is_ok());
    }

    #[test]
    fn validate_rejects_recover_before_crash() {
        let s = FaultSchedule::new().recover(1, 5_000_000);
        let err = s.validate(4).unwrap_err().to_string();
        assert!(err.contains("without a preceding crash"), "{err}");

        let s = FaultSchedule::new().crash(1, 8_000_000).recover(1, 5_000_000);
        let err = s.validate(4).unwrap_err().to_string();
        assert!(err.contains("without a preceding crash"), "{err}");
    }

    #[test]
    fn validate_rejects_double_crash() {
        let s = FaultSchedule::new().crash(1, 1_000_000).crash(1, 2_000_000);
        let err = s.validate(7).unwrap_err().to_string();
        assert!(err.contains("crashes again"), "{err}");
        // Another validator's open outage is not this one's.
        let s = FaultSchedule::new().crash(1, 1_000_000).recover(2, 2_000_000);
        let err = s.validate(7).unwrap_err().to_string();
        assert!(err.contains("validator 2 recovers"), "{err}");
    }

    #[test]
    fn validate_rejects_more_than_f_concurrent_crashes() {
        // n = 7 → f = 2; three validators down at once is unrunnable ...
        let s = FaultSchedule::new().crash(0, 0).crash(1, 0).crash(2, 1_000_000);
        let err = s.validate(7).unwrap_err().to_string();
        assert!(err.contains("exceeds f = 2"), "{err}");
        // ... but fine once staggered around a recovery.
        let s =
            FaultSchedule::new().crash(0, 0).crash(1, 0).recover(0, 500_000).crash(2, 1_000_000);
        assert!(s.validate(7).is_ok());
    }

    #[test]
    fn validate_counts_a_zero_length_outage_as_never_down() {
        // n = 4 → f = 1. v0 crashes and recovers at the same instant, so
        // it is never down and v1 may crash later ...
        let s = FaultSchedule::new().crash(0, 1_000_000).recover(0, 1_000_000).crash(1, 2_000_000);
        assert!(!s.crashed_at(0, 2_000_000));
        assert_eq!(s.validate(4), Ok(()));
        // ... or at that very instant, or while v0's later real outage is over.
        let s = FaultSchedule::new().crash(0, 1_000_000).recover(0, 1_000_000).crash(1, 1_000_000);
        assert_eq!(s.validate(4), Ok(()));
        let s = s.recover(1, 3_000_000).crash(0, 3_000_000);
        assert_eq!(s.validate(4), Ok(()));
        // A real outage of v0 still counts against v1's crash.
        let s = FaultSchedule::new().crash(0, 1_000_000).recover(0, 1_000_001).crash(1, 1_000_000);
        let err = s.validate(4).unwrap_err().to_string();
        assert!(err.contains("2 validators crashed at once at 1000000µs"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_partitions_and_ranges() {
        let overlap = FaultSchedule::new().partition(vec![0, 1], vec![1, 2], 0, 1_000_000);
        assert!(overlap.validate(4).unwrap_err().to_string().contains("both sides"));

        let empty = FaultSchedule::new().partition(vec![], vec![1], 0, 1_000_000);
        assert!(empty.validate(4).is_err());

        let inverted = FaultSchedule::new().partition(vec![0], vec![1], 2_000_000, 1_000_000);
        assert!(inverted.validate(4).unwrap_err().to_string().contains("empty"));

        let out_of_range = FaultSchedule::new().crash(9, 0);
        assert!(out_of_range.validate(4).unwrap_err().to_string().contains("outside"));
    }
}
