//! Cryptographic substrate for the HammerHead reproduction.
//!
//! The production HammerHead implementation (Sui/Narwhal) uses
//! [fastcrypto](https://github.com/MystenLabs/fastcrypto) Ed25519 signatures
//! and BLAKE2 digests. This crate provides the equivalents the protocol
//! actually depends on:
//!
//! * [`sha256`] — a real, from-scratch FIPS 180-4 SHA-256 implementation
//!   (validated against NIST test vectors in this crate's tests), used for
//!   all content digests.
//! * [`Digest`] — a 32-byte content address.
//! * [`crc32`] — CRC-32 (IEEE) used by the storage write-ahead log to detect
//!   torn writes.
//! * [`Keypair`] / [`Signature`] — *simulated* authenticated signatures:
//!   `sig = SHA-256(seed ‖ context ‖ msg)`. These authenticate messages
//!   against the committee's key registry but are **not** secure against a
//!   real adversary holding the registry; the simulated adversary in this
//!   reproduction never forges (the paper's evaluation is crash-fault only).
//!
//! # Example
//!
//! ```
//! use hh_crypto::{sha256, Digest, Keypair};
//!
//! let d: Digest = sha256(b"abc");
//! assert_eq!(
//!     d.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
//! );
//!
//! let kp = Keypair::from_seed(7);
//! let sig = kp.sign(b"vote", b"hello");
//! assert!(kp.public().verify(b"vote", b"hello", &sig));
//! assert!(!kp.public().verify(b"vote", b"tampered", &sig));
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod crc;
mod digest;
pub mod prof;
mod sha256;
mod sign;

pub use crc::crc32;
pub use digest::Digest;
pub use sha256::{sha256, Sha256};
pub use sign::{Keypair, PublicKey, Signature};
