//! Bullshark consensus over the DAG, with a pluggable leader schedule.
//!
//! This crate implements the commit rule and recursive anchor ordering of
//! eventually-synchronous Bullshark as the paper's Algorithm 2 frames
//! them — except for *when* the rule runs and *which* rounds hold anchors,
//! below — with the leader schedule abstracted behind [`SchedulePolicy`]:
//!
//! * every round has a leader, and the engine runs one commit *instance*
//!   at a time: it starts at `instance_start` (round 0 at genesis) and its
//!   anchor *candidates* are the leader vertices of rounds
//!   `instance_start, instance_start + 2, …`
//!   ([`Bullshark::is_candidate_round`]). The candidate of round `c` is
//!   *directly committed* once round-`c+1` vertices linking to it — its
//!   votes — carry validity-threshold stake (`f+1`). The rule runs where
//!   that stake can change: on delivery of each round-`c+1` vertex, so the
//!   commit fires with the (f+1)-th vote, and once more over the rounds
//!   above an ordered anchor or a schedule switch. When
//!   [`Bullshark::process_vertex`] returns, no candidate round of the
//!   current instance has an active-schedule leader vertex that is in the
//!   DAG, unordered, and holds `f+1` votes. Algorithm 2 runs the rule
//!   literally one round later (a round-`r` vertex checks the round-`r−2`
//!   anchor); safety needs only that `f+1` votes exist, since every
//!   round-`c+2` vertex has `2f+1` parents and so meets a voter, and only
//!   the instant of the commit moves;
//! * on a direct commit the engine walks back over the instance's
//!   candidates down to `instance_start`, chaining every earlier candidate
//!   reachable from the later one (`orderAnchors`), and orders the
//!   **earliest** anchor of the chain: it delivers that anchor's
//!   not-yet-ordered causal sub-DAG in a deterministic `(round, author)`
//!   order (`orderHistory`). The next instance starts one round above it,
//!   and every round from there to the DAG's top is evaluated again.
//!   Algorithm 2 keeps a fixed grid of even rounds and orders the whole
//!   chain at once; restarting the grid above every ordered anchor is
//!   Shoal's pipelining (Spiegelman et al., FC 2024) and puts an anchor in
//!   every round of a healthy DAG. The total order is a different — still
//!   deterministic — function of the DAG; the safety argument is on
//!   [`Bullshark::process_vertex`], and `tests/delivery_order.rs` holds the
//!   engine to an oracle that reads the order off the finished DAG;
//! * **the HammerHead hook**: before an anchor is ordered, the policy may
//!   switch schedules ([`ScheduleDecision::Switched`]). The engine then
//!   drops that (stale) anchor and evaluates the rounds from its round up
//!   under the new schedule, in the same instance — the retroactive
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
//! // One anchor per round (round 4's needs round-5 votes), each of the
//! // first two leader slots anchoring its two rounds.
//! assert_eq!(commits.len(), 4);
//! assert_eq!(commits[1].anchor.round, Round(1));
//! assert_eq!(commits[1].anchor.author, commits[0].anchor.author);
//! assert_ne!(commits[2].anchor.author, commits[1].anchor.author);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod engine;
mod ordered;
mod policy;

pub use engine::{passed_over_candidates, Bullshark, CommittedSubDag};
pub use ordered::OrderedSet;
pub use policy::{RoundRobinPolicy, ScheduleDecision, SchedulePolicy, SlotSchedule};
