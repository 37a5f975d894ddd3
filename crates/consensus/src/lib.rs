//! Bullshark consensus over the DAG, with a pluggable leader schedule.
//!
//! This crate implements the commit rule and recursive anchor ordering of
//! eventually-synchronous Bullshark as the paper's Algorithm 2 frames
//! them — except for *when* the rule runs, *which* rounds hold anchors and
//! *how many* a round holds, below — with the leader schedule abstracted
//! behind [`SchedulePolicy`]:
//!
//! * every round has a leader, and the engine runs one commit *instance*
//!   at a time: it starts at `instance_start` (round 0 at genesis) and its
//!   candidate rounds are `instance_start, instance_start + 2, …`
//!   ([`Bullshark::is_candidate_round`]). A candidate round `c` holds anchor
//!   *slots*: the leader's vertex first, then the vertices of the policy's
//!   earned candidates in rank order ([`SchedulePolicy::candidates_at`];
//!   none under [`RoundRobinPolicy`]). The leader's is *directly committed*
//!   once round-`c+1` vertices linking to it — its votes — carry
//!   validity-threshold stake (`f+1`); an earned candidate's at quorum
//!   (`2f+1`), and it is directly skipped once quorum stake of round
//!   `c+1` does not link to it. The rule runs where that stake can change:
//!   on delivery of each round-`c+1` vertex, so a commit fires with the
//!   deciding vote, and once more over the rounds above an ordered round
//!   or a schedule switch. Algorithm 2 runs the leader rule literally one
//!   round later (a round-`r` vertex checks the round-`r−2` anchor);
//!   safety needs only that the votes exist, and only the instant of the
//!   commit moves;
//! * a slot not decided directly is decided by the first slot above it,
//!   in slot order, that is not skipped, once that one commits: a leader
//!   commits iff that anchor reaches it (`orderAnchors`), an earned
//!   candidate iff the round-`c+1` vertices in the anchor's causal history
//!   carry `f+1` votes for it (Mysticeti's indirect rule). The lowest
//!   round with a committed slot is ordered, in up to two commits of
//!   not-yet-ordered causal sub-DAGs, each in a deterministic
//!   `(round, author)` order (`orderHistory`): its leader's as soon as
//!   that slot commits, then its committed earned anchors', in slot order,
//!   once none of them is undecided (a round whose leader is skip is the
//!   second alone). The next instance starts one round above it, and
//!   every round from there to the DAG's top is decided again. Algorithm 2 keeps a fixed grid of even rounds, one
//!   anchor per round, and orders the whole chain at once; restarting the
//!   grid above every ordered round is Shoal's pipelining (Spiegelman et
//!   al., FC 2024), which puts an anchor in every round of a healthy DAG,
//!   and the earned slots order a candidate's vertex by its own round's
//!   votes, while the leader's is ordered at its own `f+1` without
//!   waiting for them. The total order is a different — still deterministic —
//!   function of the DAG; the safety argument is on
//!   [`Bullshark::process_vertex`], and `tests/delivery_order.rs` holds the
//!   engine to an oracle that decides every slot of the finished DAG;
//! * **the HammerHead hook**: before a round's first commit, the policy
//!   may switch schedules at its first anchor ([`ScheduleDecision::Switched`]).
//!   The engine then drops that (stale) round and decides the instance
//!   again under the new schedule — the retroactive re-interpretation of
//!   the DAG that §3.1 of the paper describes. [`RoundRobinPolicy`] never
//!   switches and names no candidates, which makes the engine vanilla
//!   Bullshark with Shoal's pipelining (the paper's baseline).
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

pub use engine::{Bullshark, CommittedSubDag};
pub use ordered::OrderedSet;
pub use policy::{RoundRobinPolicy, ScheduleDecision, SchedulePolicy, SlotSchedule};
