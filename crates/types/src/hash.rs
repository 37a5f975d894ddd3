//! Pass-through hashing for [`Digest`]-keyed collections.
//!
//! Digests are SHA-256 outputs: already uniformly distributed over
//! 32 bytes. Feeding them through SipHash (std's default) re-mixes
//! entropy that is already perfect and shows up on the broadcast layer's
//! hot path, where every delivered vertex costs several map lookups.
//! [`DigestHasher`] instead folds the written bytes into a
//! `u64` with xor — for a digest key that means "take 8 of its random
//! bytes", which is exactly as collision-resistant as SipHash on this
//! key distribution while costing a couple of instructions.
//!
//! The hasher is only meant for *content-address* keys (digests,
//! values embedding a digest). It is deliberately not DoS-hardened:
//! an adversary cannot grind SHA-256 preimages to cluster buckets any
//! cheaper than breaking the hash itself, and the maps keyed this way
//! only ever hold validated protocol data.

use hh_crypto::Digest;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A trivial [`Hasher`] for uniformly distributed keys: xor-folds every
/// written word into the state instead of mixing.
#[derive(Clone, Copy, Debug, Default)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fold 8-byte words; a digest contributes its first word intact
        // (length prefixes and shorter fragments xor in harmlessly).
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 ^= u64::from_le_bytes(word);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.0 ^= i as u64;
    }

    fn write_u16(&mut self, i: u16) {
        self.0 ^= i as u64;
    }

    fn write_u32(&mut self, i: u32) {
        self.0 ^= i as u64;
    }

    fn write_u64(&mut self, i: u64) {
        self.0 ^= i;
    }

    fn write_usize(&mut self, i: usize) {
        self.0 ^= i as u64;
    }
}

/// `HashMap` keyed by [`Digest`]s (or digest-embedding values) through
/// the pass-through hasher.
pub type DigestMap<K, V> = HashMap<K, V, BuildHasherDefault<DigestHasher>>;

/// `HashSet` of [`Digest`]s through the pass-through hasher.
pub type DigestSet = HashSet<Digest, BuildHasherDefault<DigestHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(d: &Digest) -> u64 {
        BuildHasherDefault::<DigestHasher>::default().hash_one(d)
    }

    #[test]
    fn distinct_digests_hash_distinctly() {
        let a = hh_crypto::sha256(b"a");
        let b = hh_crypto::sha256(b"b");
        assert_ne!(hash_of(&a), hash_of(&b));
        assert_eq!(hash_of(&a), hash_of(&a), "stable within a process");
    }

    #[test]
    fn digest_map_round_trips() {
        let mut map: DigestMap<Digest, u64> = DigestMap::default();
        let digests: Vec<Digest> =
            (0..1000u32).map(|i| hh_crypto::sha256(&i.to_be_bytes())).collect();
        for (i, d) in digests.iter().enumerate() {
            map.insert(*d, i as u64);
        }
        assert_eq!(map.len(), 1000);
        for (i, d) in digests.iter().enumerate() {
            assert_eq!(map.get(d), Some(&(i as u64)));
        }
        let mut set = DigestSet::default();
        for d in &digests {
            assert!(set.insert(*d));
        }
        assert!(!set.insert(digests[0]));
    }
}
