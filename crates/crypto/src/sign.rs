//! Simulated authenticated signatures.
//!
//! The production system signs vertices and certificate votes with Ed25519.
//! This reproduction replaces them with a keyed-hash construction:
//! `sig = SHA-256(seed ‖ len(context) ‖ context ‖ msg)`. Verification
//! recomputes the same hash from the "public key", which (in this simulation)
//! carries the seed. This provides:
//!
//! * **authentication within the simulation** — a message only verifies
//!   against the keypair that signed it, and any tampering with the context
//!   or message is detected;
//! * **determinism** — identical runs produce identical bytes, which the
//!   reproducible experiments rely on.
//!
//! It intentionally does **not** provide security against an adversary who
//! can read the key registry; the paper's evaluation is crash-fault-only and
//! the simulated Byzantine behaviours used in tests (equivocation, vote
//! withholding) do not involve forgery.

use crate::prof::{self, Site};
use crate::{sha256, Digest, Sha256};
use std::fmt;

/// A signature produced by [`Keypair::sign`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Signature(Digest);

impl Signature {
    /// Borrows the underlying digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        self.0.as_bytes()
    }

    /// Wraps raw bytes (used by the codec when decoding).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Signature(Digest::new(bytes))
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({})", self.0)
    }
}

/// The verifying half of a [`Keypair`].
///
/// In this simulation the public key embeds the seed (see module docs); it
/// still only verifies messages signed by the matching keypair.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    seed: [u8; 32],
    id: u64,
}

impl PublicKey {
    /// Checks that `sig` is `kp.sign(context, msg)` for the matching keypair.
    pub fn verify(&self, context: &[u8], msg: &[u8], sig: &Signature) -> bool {
        prof::time(Site::Sig, || sign_inner(&self.seed, context, msg) == sig.0)
    }

    /// A stable numeric identifier derived from the seed, handy for logs.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey(#{})", self.id)
    }
}

/// A signing keypair, deterministically derived from a numeric seed.
///
/// ```
/// use hh_crypto::Keypair;
/// let kp = Keypair::from_seed(42);
/// let sig = kp.sign(b"ctx", b"payload");
/// assert!(kp.public().verify(b"ctx", b"payload", &sig));
/// // A different keypair does not verify it.
/// assert!(!Keypair::from_seed(43).public().verify(b"ctx", b"payload", &sig));
/// ```
#[derive(Clone)]
pub struct Keypair {
    seed: [u8; 32],
    id: u64,
}

impl Keypair {
    /// Derives a keypair from a numeric seed (e.g. a validator index).
    pub fn from_seed(seed: u64) -> Self {
        let expanded = sha256(&seed.to_be_bytes()).into_bytes();
        Keypair { seed: expanded, id: seed }
    }

    /// Signs `msg` under a domain-separation `context`.
    ///
    /// Distinct contexts (e.g. `b"vertex"` vs `b"ack"`) guarantee a signature
    /// from one protocol message type can never be replayed as another.
    pub fn sign(&self, context: &[u8], msg: &[u8]) -> Signature {
        prof::time(Site::Sig, || Signature(sign_inner(&self.seed, context, msg)))
    }

    /// Returns the verifying half.
    pub fn public(&self) -> PublicKey {
        PublicKey { seed: self.seed, id: self.id }
    }
}

impl fmt::Debug for Keypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Keypair(#{})", self.id)
    }
}

fn sign_inner(seed: &[u8; 32], context: &[u8], msg: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(seed);
    h.update(&(context.len() as u64).to_be_bytes());
    h.update(context);
    h.update(msg);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = Keypair::from_seed(1);
        let sig = kp.sign(b"vertex", b"data");
        assert!(kp.public().verify(b"vertex", b"data", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = Keypair::from_seed(1);
        let sig = kp.sign(b"vertex", b"data");
        assert!(!kp.public().verify(b"vertex", b"other", &sig));
    }

    #[test]
    fn wrong_context_rejected() {
        let kp = Keypair::from_seed(1);
        let sig = kp.sign(b"vertex", b"data");
        assert!(!kp.public().verify(b"ack", b"data", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let sig = Keypair::from_seed(1).sign(b"vertex", b"data");
        assert!(!Keypair::from_seed(2).public().verify(b"vertex", b"data", &sig));
    }

    #[test]
    fn deterministic_across_instances() {
        let a = Keypair::from_seed(9).sign(b"c", b"m");
        let b = Keypair::from_seed(9).sign(b"c", b"m");
        assert_eq!(a, b);
    }

    #[test]
    fn context_length_is_domain_separated() {
        // (context="ab", msg="c") must differ from (context="a", msg="bc").
        let kp = Keypair::from_seed(5);
        assert_ne!(kp.sign(b"ab", b"c"), kp.sign(b"a", b"bc"));
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let kp = Keypair::from_seed(3);
        let sig = kp.sign(b"x", b"y");
        let restored = Signature::from_bytes(*sig.as_bytes());
        assert_eq!(sig, restored);
        assert!(kp.public().verify(b"x", b"y", &restored));
    }
}
