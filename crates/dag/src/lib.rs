//! The round-structured DAG substrate.
//!
//! Every DAG-based BFT protocol in the paper's family (Bullshark, Tusk,
//! DAG-Rider, Fino) interprets the same structure: vertices arranged in
//! rounds, each vertex linking to at least quorum-stake vertices of the
//! previous round. This crate owns that structure:
//!
//! * [`Dag`] — insertion with full structural validation (Algorithm 1's
//!   `struct vertex` invariants). Vertices are addressed by
//!   `(round, author)` — insertion enforces one per address — and each
//!   carries one committee bitmask of its parents' authors, stored with
//!   the vertex by the first DAG to resolve them and read by every DAG
//!   holding the same allocation; lookup by
//!   digest survives only at the boundary, as a set of the stored
//!   pointers keyed by the digest each vertex carries;
//! * reachability ([`Dag::reachable`], the paper's `path(v, u)`) — one
//!   frontier-mask descent, a round per step;
//! * causal histories ([`Dag::causal_history`], [`Dag::causal_sub_dag`],
//!   allocation-free via [`Dag::causal_sub_dag_with`] + [`SubDagScratch`])
//!   — the sub-DAG a committed anchor orders, emitted in ascending
//!   `(round, author)` order;
//! * garbage collection of ordered prefixes (whole rounds drop);
//! * equivocation detection (two vertices by one author in one round);
//! * [`testkit`] — deterministic DAG construction helpers shared by the
//!   consensus and scheduling test suites.
//!
//! # Example
//!
//! ```
//! use hh_dag::{Dag, testkit::DagBuilder};
//! use hh_types::{Committee, Round};
//!
//! let committee = Committee::new_equal_stake(4);
//! // Three full rounds where everyone links to everyone.
//! let mut builder = DagBuilder::new(committee.clone());
//! builder.extend_full_rounds(3);
//! let dag: &Dag = builder.dag();
//! assert_eq!(dag.highest_round(), Some(Round(2)));
//! assert!(dag.is_quorum_at(Round(2)));
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod evidence;
mod store;
pub mod testkit;

pub use evidence::{EquivocationEvidence, EvidenceLedger};
pub use store::{Dag, DagError, InsertOutcome, SubDagScratch};
