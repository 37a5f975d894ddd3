//! Bullshark consensus over the DAG, with a pluggable leader schedule.
//!
//! This crate implements the commit rule and recursive anchor ordering of
//! eventually-synchronous Bullshark exactly as the paper's Algorithm 2
//! frames it, but with the leader schedule abstracted behind
//! [`SchedulePolicy`]:
//!
//! * anchors live on even rounds; a round-`r` vertex `v` (even `r ≥ 2`)
//!   *directly commits* the round-`r-2` anchor when the voting edges from
//!   `v.edges` (round `r-1` vertices) that reach the anchor carry at least
//!   validity-threshold stake (`f+1`);
//! * on a direct commit the engine walks back through even rounds down to
//!   the last ordered anchor, pushing every earlier anchor reachable from
//!   the later one (`orderAnchors`), then pops them oldest-first and
//!   delivers each anchor's not-yet-ordered causal sub-DAG in a
//!   deterministic `(round, author)` order (`orderHistory`);
//! * **the HammerHead hook**: before an anchor is ordered, the policy may
//!   switch schedules ([`ScheduleDecision::Switched`]). The engine then
//!   discards the remaining (stale) anchor stack and re-runs the walk under
//!   the new schedule — the retroactive re-interpretation of the DAG that
//!   §3.1 of the paper describes. [`RoundRobinPolicy`] never switches,
//!   which makes the engine vanilla Bullshark (the paper's baseline).
//!
//! Since every honest validator feeds the engine the same DAG (reliable
//! broadcast) and the policy is a deterministic function of the committed
//! prefix, all honest validators produce identical commit sequences; the
//! engine maintains a running [commit chain hash](Bullshark::chain_hash)
//! so tests can assert agreement in O(1).
//!
//! # Example
//!
//! ```
//! use hh_consensus::{Bullshark, RoundRobinPolicy, SlotSchedule};
//! use hh_dag::testkit::DagBuilder;
//! use hh_types::{Committee, Round};
//!
//! let committee = Committee::new_equal_stake(4);
//! let mut builder = DagBuilder::new(committee.clone());
//! builder.extend_full_rounds(5); // rounds 0..=4
//! let dag = builder.into_dag();
//!
//! let policy = RoundRobinPolicy::new(SlotSchedule::round_robin(&committee));
//! let mut engine = Bullshark::new(committee, policy);
//!
//! let mut commits = Vec::new();
//! for r in 0..=4u64 {
//!     let vs: Vec<_> = dag.round_vertices(Round(r)).cloned().collect();
//!     for v in vs {
//!         commits.extend(engine.process_vertex(&v, &dag));
//!     }
//! }
//! // Rounds 0 and 2 committed (round 4's anchor needs a round-6 vertex).
//! assert_eq!(commits.len(), 2);
//! assert_eq!(commits[0].anchor.round, Round(0));
//! assert_eq!(commits[1].anchor.round, Round(2));
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod engine;
mod ordered;
mod policy;

pub use engine::{Bullshark, CommittedSubDag};
pub use ordered::OrderedSet;
pub use policy::{
    RoundRobinPolicy, ScheduleDecision, SchedulePolicy, SlotSchedule, StaticLeaderPolicy,
};
