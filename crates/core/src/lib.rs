//! **HammerHead** — reputation-based leader scheduling for DAG BFT.
//!
//! This crate is the paper's contribution, layered on the substrates in
//! this workspace exactly the way the production implementation layers on
//! Narwhal-Bullshark:
//!
//! * [`ReputationScores`] — the on-chain metric (§3): a validator earns a
//!   point whenever one of its vertices *votes* for a leader (carries a
//!   parent edge to the previous round's leader vertex — one vote a
//!   round). Scores are computed only
//!   from committed sub-DAGs, so every honest validator derives identical
//!   scores.
//! * [`compute_next_schedule`] — the schedule switch: the lowest-scoring
//!   validators (set `B`, at most `f` by stake) lose their slots to the
//!   highest-scoring ones (set `G`, `|G| = |B|`), round-robin, with
//!   deterministic tie-breaks.
//! * [`HammerheadPolicy`] — plugs the above into the Bullshark engine's
//!   [`SchedulePolicy`](hh_consensus::SchedulePolicy) seam. Epochs last
//!   `T` rounds; the switch triggers
//!   on the first committed anchor at or past the boundary, finalizing
//!   scores from the anchor's (agreed) causal history *up to but excluding
//!   the committed leader*, and the engine re-interprets the DAG under the
//!   new schedule — the retroactive application §3.1 describes. A schedule
//!   history keyed by initial round keeps `getLeader` well-defined across
//!   switches (Proposition 1's agreement argument in code).
//! * [`Validator`] — the production-shaped node: proposer with
//!   leader-await, reliable broadcast, consensus, transaction pool with
//!   backpressure, execution-rate model, persistence and crash-recovery.
//!   The Bullshark baseline is the same node with
//!   [`ScheduleConfig::RoundRobin`].
//!
//! # Quickstart
//!
//! ```
//! use hammerhead::{HammerheadConfig, HammerheadPolicy};
//! use hh_consensus::{Bullshark, SchedulePolicy};
//! use hh_dag::testkit::DagBuilder;
//! use hh_types::{Committee, Round};
//!
//! let committee = Committee::new_equal_stake(4);
//! let config = HammerheadConfig { period_rounds: 4, ..HammerheadConfig::default() };
//! let policy = HammerheadPolicy::new(committee.clone(), config);
//! let mut engine = Bullshark::new(committee.clone(), policy);
//!
//! // Drive a fully-connected DAG through the engine: schedules rotate
//! // every 4 rounds, and with everyone voting everywhere the swap is a
//! // deterministic function of the tie-break.
//! let mut b = DagBuilder::new(committee);
//! b.extend_full_rounds(13);
//! let dag = b.into_dag();
//! for r in 0..13u64 {
//!     let mut vs: Vec<_> = dag.round_vertices(Round(r)).cloned().collect();
//!     vs.sort_by_key(|v| v.author());
//!     for v in vs {
//!         engine.process_vertex(&v, &dag);
//!     }
//! }
//! assert!(engine.policy().epoch() >= 2, "schedule rotated");
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod config;
mod node;
mod policy;
mod safety;
mod schedule;
mod scores;

pub use config::{ConfigError, HammerheadConfig, ScheduleConfig, ScoringRule, ValidatorConfig};
pub use node::{
    CommitRecord, ExecLog, ExecLogIter, ExecRecord, Output, Validator, ValidatorMessage,
    ValidatorMetrics,
};
pub use policy::{EpochSummary, HammerheadPolicy};
pub use safety::{SafetyChecker, SafetyViolation};
pub use schedule::{compute_next_schedule, ScheduleChange};
pub use scores::ReputationScores;
