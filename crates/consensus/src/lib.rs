//! Bullshark consensus over the DAG, with a pluggable leader schedule.
//!
//! This crate implements the commit rule and recursive anchor ordering of
//! eventually-synchronous Bullshark as the paper's Algorithm 2 frames
//! them — except for *when* the rule runs, below — with the leader
//! schedule abstracted behind [`SchedulePolicy`]:
//!
//! * anchors live on even rounds; the round-`r` anchor is *directly
//!   committed* once round-`r+1` vertices linking to it — its votes — carry
//!   validity-threshold stake (`f+1`). The rule runs where that stake can
//!   change: on delivery of each round-`r+1` vertex, so the commit fires
//!   with the (f+1)-th vote, and once more over the renamed rounds after a
//!   schedule switch. When [`Bullshark::process_vertex`] returns, no even
//!   round above the last ordered anchor has an active-schedule leader
//!   vertex that is in the DAG, unordered, and holds `f+1` votes.
//!   Algorithm 2 runs the rule literally one round later (a round-`r`
//!   vertex checks the round-`r−2` anchor); the total order is the same
//!   function of the DAG — safety needs only that `f+1` votes exist, since
//!   every round-`r+2` vertex has `2f+1` parents and so meets a voter — and
//!   only the instant of the commit moves (`tests/delivery_order.rs` holds
//!   the engine to the literal trigger's order);
//! * on a direct commit the engine walks back through even rounds down to
//!   the last ordered anchor, pushing every earlier anchor reachable from
//!   the later one (`orderAnchors`), then pops them oldest-first and
//!   delivers each anchor's not-yet-ordered causal sub-DAG in a
//!   deterministic `(round, author)` order (`orderHistory`);
//! * **the HammerHead hook**: before an anchor is ordered, the policy may
//!   switch schedules ([`ScheduleDecision::Switched`]). The engine then
//!   discards the remaining (stale) anchor stack and evaluates the rounds
//!   from that anchor's up under the new schedule — the retroactive
//!   re-interpretation of the DAG that §3.1 of the paper describes.
//!   [`RoundRobinPolicy`] never switches, which makes the engine vanilla
//!   Bullshark (the paper's baseline).
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
//! // Rounds 0 and 2 committed (round 4's anchor needs round-5 votes).
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
pub use policy::{RoundRobinPolicy, ScheduleDecision, SchedulePolicy, SlotSchedule};
