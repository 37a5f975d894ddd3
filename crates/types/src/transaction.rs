//! Client transactions.
//!
//! The paper's benchmark transactions are "simple increments of a shared
//! counter" submitted by geo-distributed load generators. We model a
//! transaction as an opaque fixed-layout record carrying its origin (which
//! client submitted it, and when) so the harness can compute end-to-end
//! latency, plus a small payload standing in for the counter increment.

use crate::codec::{Decoder, Encode, EncodeExt};
use crate::TypeError;
use std::fmt;

/// Globally unique transaction identifier: `(client, sequence)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TxId {
    /// The submitting client (load generator index).
    pub client: u32,
    /// The client-local sequence number.
    pub seq: u64,
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}:{}", self.client, self.seq)
    }
}

/// The encoded size of a transaction's fixed header — client id (4),
/// sequence (8), submission timestamp (8) — and thus the wire weight of
/// a payloadless transaction.
pub const TX_HEADER_BYTES: usize = 20;

/// A client transaction as carried in a [`crate::Block`].
///
/// The fields of its [`TxId`] sit inline, beside the other 4-byte field,
/// so a transaction is 24 bytes with no padding (a nested `TxId` pads to
/// 16 and the whole to 32); [`Transaction::id`] reassembles the identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Transaction {
    /// The submitting client (load generator index).
    pub client: u32,
    /// Modeled payload size in bytes (the counter-increment argument the
    /// paper's benchmark transactions carry, generalized to configurable
    /// sizes by the workload subsystem). This is an *accounting weight*:
    /// proposers bound blocks by [`Transaction::wire_bytes`] and the
    /// metrics pipeline reports byte goodput from it, but the codec —
    /// and therefore vertex digests, signatures and the WAL — carries
    /// only the [`TX_HEADER_BYTES`] header, so the modeled size can
    /// never change a run's chain hashes. A transaction decoded from the
    /// wire or replayed from the WAL reports a zero payload.
    pub payload_bytes: u32,
    /// The client-local sequence number.
    pub seq: u64,
    /// Client submission timestamp, in simulation microseconds. Used by the
    /// metrics pipeline; consensus itself never reads it.
    pub submitted_at: u64,
}

impl Transaction {
    /// Creates a transaction submitted by `client` with sequence `seq` at
    /// time `submitted_at` (µs), with no modeled payload.
    pub fn new(client: u32, seq: u64, submitted_at: u64) -> Self {
        Transaction::with_payload(client, seq, submitted_at, 0)
    }

    /// Creates a transaction carrying `payload_bytes` of modeled payload.
    pub fn with_payload(client: u32, seq: u64, submitted_at: u64, payload_bytes: u32) -> Self {
        Transaction { client, payload_bytes, seq, submitted_at }
    }

    /// Identity of the transaction.
    pub fn id(&self) -> TxId {
        TxId { client: self.client, seq: self.seq }
    }

    /// The modeled wire size: fixed header plus payload.
    pub fn wire_bytes(&self) -> usize {
        TX_HEADER_BYTES + self.payload_bytes as usize
    }
}

impl Encode for TxId {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u32(self.client);
        buf.put_u64(self.seq);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok(TxId { client: d.take_u32()?, seq: d.take_u64()? })
    }
}

impl Encode for Transaction {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id().encode(buf);
        buf.put_u64(self.submitted_at);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        let TxId { client, seq } = TxId::decode(d)?;
        Ok(Transaction::new(client, seq, d.take_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from_slice, encode_to_vec};

    #[test]
    fn tx_roundtrip() {
        let tx = Transaction::new(7, 42, 123_456);
        let bytes = encode_to_vec(&tx);
        let back: Transaction = decode_from_slice(&bytes).unwrap();
        assert_eq!(tx, back);
    }

    #[test]
    fn payload_is_accounting_only_and_never_reaches_the_wire() {
        let plain = Transaction::new(7, 42, 123_456);
        let heavy = Transaction::with_payload(7, 42, 123_456, 4_096);
        assert_eq!(plain.wire_bytes(), TX_HEADER_BYTES);
        assert_eq!(heavy.wire_bytes(), TX_HEADER_BYTES + 4_096);
        // Identical encodings: the modeled payload cannot perturb
        // digests, signatures, or any checked-in scenario's chain hash.
        assert_eq!(encode_to_vec(&plain), encode_to_vec(&heavy));
        assert_eq!(encode_to_vec(&plain).len(), TX_HEADER_BYTES);
        let back: Transaction = decode_from_slice(&encode_to_vec(&heavy)).unwrap();
        assert_eq!(back.payload_bytes, 0, "decode reports no modeled payload");
    }

    #[test]
    fn txid_ordering_groups_by_client() {
        let a = TxId { client: 0, seq: 100 };
        let b = TxId { client: 1, seq: 0 };
        assert!(a < b);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TxId { client: 3, seq: 9 }.to_string(), "tx3:9");
    }
}
