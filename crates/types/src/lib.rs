//! Shared domain types for the HammerHead reproduction.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`ValidatorId`], [`Stake`], [`Round`] — primitive identifiers;
//! * [`Committee`] — the validator set with stake-weighted quorum
//!   (`2f+1`) and validity (`f+1`) thresholds, exactly as the paper's model
//!   (§2.1) defines them;
//! * [`Transaction`], [`Block`], [`Vertex`] — the data that flows through
//!   the DAG. A [`Vertex`] is the paper's Algorithm 1 `struct vertex`:
//!   a round, a source, a block of transactions, and edges to at least
//!   `n − f` (by stake: quorum) vertices of the previous round;
//! * [`codec`] — a deterministic hand-rolled binary codec used for wire
//!   messages and the storage WAL (the [`codec`] docs say why no serde);
//! * [`AuthorMask`], [`AuthorRow`], [`SlotDigests`] — committee-indexed
//!   sets, rows and per-round slot tables, where a `(round, author)`
//!   address costs one mask bit;
//! * [`DigestHasher`], [`DigestMap`], [`DigestSet`] — pass-through
//!   hashing for the broadcast layer's digest-keyed collections (digests
//!   are already uniform; re-hashing them through SipHash is pure cost).
//!
//! # Example
//!
//! ```
//! use hh_types::{Committee, ValidatorId};
//!
//! let committee = Committee::new_equal_stake(4);
//! assert_eq!(committee.size(), 4);
//! assert_eq!(committee.total_stake().0, 4);
//! assert_eq!(committee.max_faulty_stake().0, 1);   // f
//! assert_eq!(committee.quorum_threshold().0, 3);   // 2f + 1
//! assert_eq!(committee.validity_threshold().0, 2); // f + 1
//! assert!(committee.contains(ValidatorId(3)));
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod author;
pub mod codec;
mod committee;
mod error;
mod hash;
pub mod toml;
mod transaction;
mod vertex;

pub use author::{AuthorMask, AuthorRow, SlotDigests};
pub use committee::{
    permute_slots, Committee, CommitteeBuilder, Stake, ValidatorId, ValidatorInfo,
    MAX_COMMITTEE_SIZE, S0_SEED,
};
pub use error::TypeError;
pub use hash::{DigestHasher, DigestMap, DigestSet};
pub use transaction::{Transaction, TxId, TX_HEADER_BYTES};
pub use vertex::{Block, Round, Vertex, VertexRef};

pub use hh_crypto::Digest;
