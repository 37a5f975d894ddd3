//! The adverse-network chaos schedule: timed windows of frame drop,
//! duplication, reordering and corruption on selected links.
//!
//! This has the [`FaultSchedule`](crate::FaultSchedule) shape: scenario
//! files parse `[[faults.chaos]]` tables into a [`ChaosSchedule`],
//! [`ChaosSchedule::validate`] rejects unrunnable timelines up front with
//! precise errors, and the [`crate::Simulator`] executes the same value.
//! Each [`ChaosEntry`] covers a set of directed links (all links, one
//! node's links, or a single directed pair) for a half-open time interval
//! and carries independent rates for each effect. Unlike crashes, chaos
//! never changes the *logical* fault model — every effect acts on encoded
//! frames below the protocol, so an honest protocol must ride it out
//! (drop → retransmit, duplicate → idempotent absorb, corrupt → die at
//! the codec, reorder → DAG buffering).
//!
//! The simulator consults [`ChaosSchedule::window_at`] on every routed
//! frame; when no window matches — in particular, in every chaos-free run
//! — nothing is drawn from the RNG, so existing executions stay
//! bit-identical. Overlap on the same directed link at the same instant
//! is rejected by `validate`, so `window_at` can return the first match
//! without ambiguity.
//!
//! All times are microseconds of simulated time.

use crate::sim::NodeId;
use crate::time::SimTime;
use std::fmt;

/// Which links one chaos entry covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosTarget {
    /// Every validator-to-validator link.
    AllLinks,
    /// Every link touching one validator, inbound or outbound.
    Node(u16),
    /// One directed link.
    Pair {
        /// Sender side.
        from: u16,
        /// Receiver side.
        to: u16,
    },
}

impl ChaosTarget {
    /// Whether the directed link `from -> to` falls under this target.
    fn covers(&self, from: NodeId, to: NodeId) -> bool {
        match *self {
            ChaosTarget::AllLinks => true,
            ChaosTarget::Node(n) => from.0 == n as usize || to.0 == n as usize,
            ChaosTarget::Pair { from: f, to: t } => from.0 == f as usize && to.0 == t as usize,
        }
    }

    /// Whether two targets share at least one directed link. Any two
    /// node targets intersect (the link between the two nodes belongs to
    /// both), which is what makes first-match lookup unambiguous once
    /// time-overlapping intersecting windows are rejected.
    fn intersects(&self, other: &ChaosTarget) -> bool {
        match (*self, *other) {
            (ChaosTarget::AllLinks, _) | (_, ChaosTarget::AllLinks) => true,
            (ChaosTarget::Node(_), ChaosTarget::Node(_)) => true,
            (ChaosTarget::Node(n), ChaosTarget::Pair { from, to })
            | (ChaosTarget::Pair { from, to }, ChaosTarget::Node(n)) => from == n || to == n,
            (ChaosTarget::Pair { .. }, ChaosTarget::Pair { .. }) => self == other,
        }
    }
}

impl fmt::Display for ChaosTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosTarget::AllLinks => write!(f, "all links"),
            ChaosTarget::Node(n) => write!(f, "links of validator {n}"),
            ChaosTarget::Pair { from, to } => write!(f, "link {from} -> {to}"),
        }
    }
}

/// One chaos window: per-frame effect rates over a link set and a
/// half-open time interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosEntry {
    /// The links covered.
    pub target: ChaosTarget,
    /// Window start (inclusive, µs).
    pub from_us: u64,
    /// Window end (exclusive, µs); `u64::MAX` for "until the end".
    pub until_us: u64,
    /// Probability a frame is dropped outright.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame's encoded bytes are flipped in flight.
    pub corrupt: f64,
    /// Maximum extra per-frame delay (µs), drawn uniformly per frame —
    /// frames overtake each other when it exceeds the latency spread.
    pub reorder_us: u64,
}

impl ChaosEntry {
    /// A quiet entry covering all links forever; set rates from here.
    pub fn all_links(from_us: u64, until_us: u64) -> Self {
        ChaosEntry {
            target: ChaosTarget::AllLinks,
            from_us,
            until_us,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder_us: 0,
        }
    }

    fn has_effect(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0 || self.corrupt > 0.0 || self.reorder_us > 0
    }
}

/// An unrunnable chaos schedule (out-of-range rates, unknown
/// validators, empty or ambiguously overlapping windows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosScheduleError(String);

impl fmt::Display for ChaosScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ChaosScheduleError {}

/// The full chaos timeline of a run: an ordered list of [`ChaosEntry`]s,
/// plus the id bound separating validators from co-simulated clients.
///
/// Since validation rejects windows that overlap in time on a shared
/// link, entry order never changes which window governs a frame.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSchedule {
    /// Insertion order (validation errors name entries by this index).
    entries: Vec<ChaosEntry>,
    /// The same entries stably sorted by `from_us`, for lookup.
    windows: Vec<ChaosEntry>,
    /// Chaos only touches links whose endpoints are both below this
    /// bound; client actors ride above the validator ids and keep clean
    /// links to their local validator.
    committee_size: usize,
}

impl Default for ChaosSchedule {
    fn default() -> Self {
        ChaosSchedule { entries: Vec::new(), windows: Vec::new(), committee_size: usize::MAX }
    }
}

impl ChaosSchedule {
    /// An empty schedule (a perfectly behaved network).
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[ChaosEntry] {
        &self.entries
    }

    /// Appends an entry.
    #[must_use]
    pub fn entry(mut self, e: ChaosEntry) -> Self {
        let pos = self.windows.partition_point(|w| w.from_us <= e.from_us);
        self.windows.insert(pos, e);
        self.entries.push(e);
        self
    }

    /// Restricts chaos to links whose endpoints are both below
    /// `committee_size` (the validator ids; clients sit at and above it).
    #[must_use]
    pub fn restrict_to(mut self, committee_size: usize) -> Self {
        self.committee_size = committee_size;
        self
    }

    /// Whether the schedule contains no entries. Empty schedules draw
    /// nothing from the simulator RNG — chaos-free runs stay
    /// bit-identical to builds without the chaos layer.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The window governing the directed link `from -> to` at `now`,
    /// if any. First match wins; validation guarantees there is at most
    /// one.
    pub fn window_at(&self, from: NodeId, to: NodeId, now: SimTime) -> Option<&ChaosEntry> {
        if self.windows.is_empty() || from.0 >= self.committee_size || to.0 >= self.committee_size {
            return None;
        }
        let started = self.windows.partition_point(|w| w.from_us <= now.0);
        self.windows[..started].iter().find(|w| now.0 < w.until_us && w.target.covers(from, to))
    }

    /// Checks the schedule against a committee of `committee_size`:
    ///
    /// * every rate lies in `[0, 1]`;
    /// * every referenced validator exists;
    /// * directed pairs have distinct endpoints;
    /// * every window is non-empty and has at least one effect;
    /// * no two windows overlap in time while sharing a directed link —
    ///   lookups resolve first-match, so an overlap would silently shadow
    ///   one window's rates with the other's.
    ///
    /// # Errors
    ///
    /// Returns a [`ChaosScheduleError`] naming the first violation.
    pub fn validate(&self, committee_size: usize) -> Result<(), ChaosScheduleError> {
        let n = committee_size;
        let in_range = |node: u16| -> Result<(), ChaosScheduleError> {
            if node as usize >= n {
                return Err(ChaosScheduleError(format!(
                    "validator {node} is outside the committee of {n}"
                )));
            }
            Ok(())
        };
        for (i, e) in self.entries.iter().enumerate() {
            for (name, rate) in
                [("drop", e.drop), ("duplicate", e.duplicate), ("corrupt", e.corrupt)]
            {
                if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                    return Err(ChaosScheduleError(format!(
                        "chaos window {i} ({}): {name} rate {rate} is outside [0, 1]",
                        e.target
                    )));
                }
            }
            match e.target {
                ChaosTarget::AllLinks => {}
                ChaosTarget::Node(node) => in_range(node)?,
                ChaosTarget::Pair { from, to } => {
                    in_range(from)?;
                    in_range(to)?;
                    if from == to {
                        return Err(ChaosScheduleError(format!(
                            "chaos window {i}: a link needs two distinct endpoints, got \
                             {from} -> {to}"
                        )));
                    }
                }
            }
            if e.until_us <= e.from_us {
                return Err(ChaosScheduleError(format!(
                    "chaos window {i} ({}) is empty ({}µs..{}µs)",
                    e.target, e.from_us, e.until_us
                )));
            }
            if !e.has_effect() {
                return Err(ChaosScheduleError(format!(
                    "chaos window {i} ({}) has no effect: all rates zero and no reorder",
                    e.target
                )));
            }
        }
        // Pairwise overlap check: half-open time intervals intersecting
        // while the targets share at least one directed link.
        for i in 0..self.entries.len() {
            for j in (i + 1)..self.entries.len() {
                let (a, b) = (&self.entries[i], &self.entries[j]);
                let time_overlap = a.from_us < b.until_us && b.from_us < a.until_us;
                if time_overlap && a.target.intersects(&b.target) {
                    return Err(ChaosScheduleError(format!(
                        "chaos windows {i} ({}) and {j} ({}) overlap in \
                         [{}µs, {}µs) on a shared link; split the windows or merge the rates",
                        a.target,
                        b.target,
                        a.from_us.max(b.from_us),
                        a.until_us.min(b.until_us),
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(target: ChaosTarget, from_us: u64, until_us: u64, drop: f64) -> ChaosEntry {
        ChaosEntry { drop, ..ChaosEntry { target, ..ChaosEntry::all_links(from_us, until_us) } }
    }

    #[test]
    fn target_coverage() {
        let all = ChaosTarget::AllLinks;
        let node = ChaosTarget::Node(2);
        let pair = ChaosTarget::Pair { from: 1, to: 3 };
        assert!(all.covers(NodeId(0), NodeId(9)));
        assert!(node.covers(NodeId(2), NodeId(5)));
        assert!(node.covers(NodeId(5), NodeId(2)));
        assert!(!node.covers(NodeId(0), NodeId(1)));
        assert!(pair.covers(NodeId(1), NodeId(3)));
        assert!(!pair.covers(NodeId(3), NodeId(1)), "pair target is directed");
    }

    #[test]
    fn target_intersection_is_symmetric_and_link_based() {
        let node_a = ChaosTarget::Node(0);
        let node_b = ChaosTarget::Node(1);
        // The link 0 -> 1 belongs to both node targets.
        assert!(node_a.intersects(&node_b));
        let pair = ChaosTarget::Pair { from: 2, to: 3 };
        assert!(!node_a.intersects(&pair));
        assert!(pair.intersects(&ChaosTarget::Node(3)));
        assert!(ChaosTarget::Node(3).intersects(&pair));
        assert!(pair.intersects(&pair));
        let other_pair = ChaosTarget::Pair { from: 3, to: 2 };
        assert!(!pair.intersects(&other_pair), "reversed pair is a different link");
    }

    #[test]
    fn window_at_respects_time_and_target() {
        // Inserted out of start order; lookup goes over the sorted list
        // while `entries` keeps insertion order.
        let s = ChaosSchedule::new()
            .entry(entry(ChaosTarget::AllLinks, 300_000, 400_000, 0.5))
            .entry(entry(ChaosTarget::Node(1), 100_000, 200_000, 0.25));
        assert_eq!(s.entries()[0].target, ChaosTarget::AllLinks);
        let at = |from, to, ms| s.window_at(NodeId(from), NodeId(to), SimTime::from_millis(ms));
        assert!(at(0, 1, 50).is_none());
        assert_eq!(at(0, 1, 100).map(|w| w.drop), Some(0.25), "window start is inclusive");
        assert!(at(0, 1, 150).is_some());
        assert!(at(0, 2, 150).is_none());
        assert!(at(0, 1, 200).is_none(), "window end is exclusive");
        assert_eq!(at(5, 6, 350).map(|w| w.drop), Some(0.5));
    }

    #[test]
    fn committee_bound_exempts_client_links() {
        let s = ChaosSchedule::new()
            .entry(entry(ChaosTarget::AllLinks, 0, u64::MAX, 0.5))
            .restrict_to(4);
        assert!(s.window_at(NodeId(0), NodeId(3), SimTime(10)).is_some());
        // Client 4 talking to validator 0 keeps a clean link.
        assert!(s.window_at(NodeId(4), NodeId(0), SimTime(10)).is_none());
        assert!(s.window_at(NodeId(0), NodeId(4), SimTime(10)).is_none());
        // `u64::MAX` is an endless window.
        assert!(s.window_at(NodeId(0), NodeId(1), SimTime(u64::MAX - 1)).is_some());
    }

    #[test]
    fn empty_schedule_never_matches() {
        let s = ChaosSchedule::new();
        assert!(s.is_empty());
        assert!(s.window_at(NodeId(0), NodeId(1), SimTime::from_millis(1)).is_none());
    }

    #[test]
    fn validate_accepts_disjoint_windows() {
        let s = ChaosSchedule::new()
            .entry(entry(ChaosTarget::AllLinks, 0, 5_000_000, 0.3))
            .entry(entry(ChaosTarget::AllLinks, 5_000_000, 10_000_000, 0.1))
            .entry(entry(ChaosTarget::Node(2), 12_000_000, 14_000_000, 0.5));
        assert!(s.validate(4).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_rates() {
        let s = ChaosSchedule::new().entry(entry(ChaosTarget::AllLinks, 0, 1_000_000, 1.5));
        let err = s.validate(4).unwrap_err().to_string();
        assert!(err.contains("drop rate 1.5 is outside [0, 1]"), "{err}");
        let s = ChaosSchedule::new()
            .entry(ChaosEntry { duplicate: -0.1, ..ChaosEntry::all_links(0, 1_000_000) });
        assert!(s.validate(4).is_err());
    }

    #[test]
    fn validate_rejects_unknown_validators_and_self_links() {
        let s = ChaosSchedule::new().entry(entry(ChaosTarget::Node(9), 0, 1_000_000, 0.5));
        assert!(s.validate(4).unwrap_err().to_string().contains("outside the committee"));
        let s = ChaosSchedule::new().entry(entry(
            ChaosTarget::Pair { from: 1, to: 1 },
            0,
            1_000_000,
            0.5,
        ));
        assert!(s.validate(4).unwrap_err().to_string().contains("two distinct endpoints"));
    }

    #[test]
    fn validate_rejects_empty_and_effectless_windows() {
        let s = ChaosSchedule::new().entry(entry(ChaosTarget::AllLinks, 2_000_000, 1_000_000, 0.5));
        assert!(s.validate(4).unwrap_err().to_string().contains("is empty"));
        let s = ChaosSchedule::new().entry(ChaosEntry::all_links(0, 1_000_000));
        assert!(s.validate(4).unwrap_err().to_string().contains("has no effect"));
    }

    #[test]
    fn validate_rejects_same_link_time_overlap() {
        // Node(1) and Pair{0 -> 1} share the link 0 -> 1.
        let s = ChaosSchedule::new()
            .entry(entry(ChaosTarget::Node(1), 0, 2_000_000, 0.2))
            .entry(entry(ChaosTarget::Pair { from: 0, to: 1 }, 1_000_000, 3_000_000, 0.4));
        let err = s.validate(4).unwrap_err().to_string();
        assert!(err.contains("overlap"), "{err}");
        // Disjoint link sets may overlap in time.
        let s = ChaosSchedule::new()
            .entry(entry(ChaosTarget::Pair { from: 0, to: 1 }, 0, 2_000_000, 0.2))
            .entry(entry(ChaosTarget::Pair { from: 1, to: 0 }, 0, 2_000_000, 0.4));
        assert!(s.validate(4).is_ok());
    }
}
