//! Deterministic binary codec.
//!
//! A small hand-rolled encoding used for wire messages and the storage WAL.
//! All integers are big-endian fixed width; collections are a `u32` length
//! prefix followed by the elements. The format is byte-stable across runs,
//! which the deterministic simulator and the WAL recovery tests rely on.
//!
//! The workspace deliberately avoids `serde`: the codec is ~200 lines, has
//! no derive machinery, and its determinism is directly testable.
//!
//! # Example
//!
//! ```
//! use hh_types::codec::{encode_to_vec, decode_from_slice};
//!
//! let v: Vec<u64> = vec![1, 2, 3];
//! let bytes = encode_to_vec(&v);
//! let back: Vec<u64> = decode_from_slice(&bytes).unwrap();
//! assert_eq!(v, back);
//! ```

use crate::TypeError;
use hh_crypto::{Digest, Signature};

/// Maximum number of elements a decoded collection may claim. Guards the
/// decoder against hostile length prefixes allocating unbounded memory.
pub const MAX_COLLECTION_LEN: u32 = 1 << 24;

/// Types encodable to / decodable from the deterministic binary format.
pub trait Encode: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the front of `d`.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Decode`] when the buffer is truncated or
    /// malformed.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError>;
}

/// Encodes `value` into a fresh buffer.
pub fn encode_to_vec<T: Encode>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// Decodes exactly one `T` from `bytes`, rejecting trailing garbage.
///
/// # Errors
///
/// Returns [`TypeError::Decode`] on truncation, malformed content, or
/// leftover bytes.
pub fn decode_from_slice<T: Encode>(bytes: &[u8]) -> Result<T, TypeError> {
    let mut d = Decoder::new(bytes);
    let value = T::decode(&mut d)?;
    if !d.is_empty() {
        return Err(TypeError::Decode("trailing bytes"));
    }
    Ok(value)
}

/// Encodes `value` as a checksummed wire frame: the payload followed by
/// a big-endian CRC-32 trailer over it. The frame is what travels on a
/// (simulated) link; [`decode_framed`] verifies the trailer before
/// touching the payload, so in-flight bit flips die here instead of
/// surfacing as a different valid message.
pub fn encode_framed<T: Encode>(value: &T) -> Vec<u8> {
    hh_crypto::prof::time_codec(|| {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let crc = hh_crypto::crc32(&buf);
        buf.extend_from_slice(&crc.to_be_bytes());
        buf
    })
}

/// Decodes one checksummed wire frame produced by [`encode_framed`].
///
/// # Errors
///
/// Returns [`TypeError::Decode`] when the frame is shorter than the
/// trailer, the CRC-32 does not match the payload, or the payload
/// itself is truncated, malformed, or has leftover bytes.
pub fn decode_framed<T: Encode>(frame: &[u8]) -> Result<T, TypeError> {
    hh_crypto::prof::time_codec(|| {
        if frame.len() < 4 {
            return Err(TypeError::Decode("frame shorter than its checksum"));
        }
        let (payload, trailer) = frame.split_at(frame.len() - 4);
        let expected = u32::from_be_bytes(trailer.try_into().expect("4-byte trailer"));
        if hh_crypto::crc32(payload) != expected {
            return Err(TypeError::Decode("frame checksum mismatch"));
        }
        decode_from_slice(payload)
    })
}

/// A cursor over bytes being decoded.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
}

impl<'a> Decoder<'a> {
    /// Wraps `bytes` for decoding.
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes }
    }

    /// Remaining undecoded byte count.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Whether all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TypeError> {
        if self.bytes.len() < n {
            return Err(TypeError::Decode("unexpected end of input"));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, TypeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, TypeError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, TypeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a big-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, TypeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads exactly 32 bytes.
    pub fn take_array32(&mut self) -> Result<[u8; 32], TypeError> {
        Ok(self.take(32)?.try_into().unwrap())
    }
}

/// Convenience writers on `Vec<u8>`.
pub trait EncodeExt {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16);
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends a length-prefixed byte string.
    fn put_bytes(&mut self, v: &[u8]);
}

impl EncodeExt for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.extend_from_slice(v);
    }
}

impl Encode for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u8(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        d.take_u8()
    }
}

impl Encode for u16 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u16(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        d.take_u16()
    }
}

impl Encode for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u32(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        d.take_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u64(*self);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        d.take_u64()
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u8(*self as u8);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        match d.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(TypeError::Decode("invalid bool")),
        }
    }
}

/// The sequence encoding: a `u32` length, then the items. What
/// `Vec<T>` writes, for sequences held as something else.
pub(crate) fn encode_slice<T: Encode>(items: &[T], buf: &mut Vec<u8>) {
    buf.put_u32(items.len() as u32);
    for item in items {
        item.encode(buf);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_slice(self, buf);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        let len = d.take_u32()?;
        if len > MAX_COLLECTION_LEN {
            return Err(TypeError::Decode("collection length exceeds limit"));
        }
        // Don't trust the claimed length for pre-allocation beyond what the
        // remaining bytes could possibly hold.
        let cap = (len as usize).min(d.remaining());
        let mut out = Vec::with_capacity(cap);
        for _ in 0..len {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for std::sync::Arc<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok(std::sync::Arc::new(T::decode(d)?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        match d.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            _ => Err(TypeError::Decode("invalid option tag")),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

impl Encode for Digest {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok(Digest::new(d.take_array32()?))
    }
}

impl Encode for Signature {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok(Signature::from_bytes(d.take_array32()?))
    }
}

impl Encode for crate::ValidatorId {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u16(self.0);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok(crate::ValidatorId(d.take_u16()?))
    }
}

impl Encode for crate::Stake {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u64(self.0);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok(crate::Stake(d.take_u64()?))
    }
}

impl Encode for crate::Round {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u64(self.0);
    }
    fn decode(d: &mut Decoder<'_>) -> Result<Self, TypeError> {
        Ok(crate::Round(d.take_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Round, Stake, ValidatorId};

    #[test]
    fn primitive_roundtrips() {
        let bytes = encode_to_vec(&0xDEAD_BEEFu32);
        assert_eq!(decode_from_slice::<u32>(&bytes).unwrap(), 0xDEAD_BEEF);
        let bytes = encode_to_vec(&true);
        assert!(decode_from_slice::<bool>(&bytes).unwrap());
    }

    #[test]
    fn vec_roundtrip() {
        let v: Vec<u16> = vec![1, 2, 3, 65535];
        let back: Vec<u16> = decode_from_slice(&encode_to_vec(&v)).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn option_roundtrip() {
        let some: Option<u64> = Some(9);
        let none: Option<u64> = None;
        assert_eq!(decode_from_slice::<Option<u64>>(&encode_to_vec(&some)).unwrap(), some);
        assert_eq!(decode_from_slice::<Option<u64>>(&encode_to_vec(&none)).unwrap(), none);
    }

    #[test]
    fn tuple_and_newtype_roundtrips() {
        let v = (ValidatorId(7), Stake(100));
        let back: (ValidatorId, Stake) = decode_from_slice(&encode_to_vec(&v)).unwrap();
        assert_eq!(v, back);
        let r = Round(123);
        assert_eq!(decode_from_slice::<Round>(&encode_to_vec(&r)).unwrap(), r);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_to_vec(&1u8);
        bytes.push(0);
        assert!(decode_from_slice::<u8>(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_to_vec(&1u64);
        assert!(decode_from_slice::<u64>(&bytes[..4]).is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        assert!(decode_from_slice::<bool>(&[2]).is_err());
    }

    #[test]
    fn invalid_option_tag_rejected() {
        assert!(decode_from_slice::<Option<u8>>(&[9, 0]).is_err());
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // Claims 2^32-1 elements with a 4-byte body: must error, not OOM.
        let mut bytes = Vec::new();
        bytes.put_u32(u32::MAX);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(decode_from_slice::<Vec<u64>>(&bytes).is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let v: Vec<(ValidatorId, Stake)> =
            (0..50).map(|i| (ValidatorId(i), Stake(i as u64 + 1))).collect();
        assert_eq!(encode_to_vec(&v), encode_to_vec(&v.clone()));
    }

    #[test]
    fn framed_roundtrip() {
        let v: Vec<(ValidatorId, Stake)> =
            (0..8).map(|i| (ValidatorId(i), Stake(i as u64 + 1))).collect();
        let frame = encode_framed(&v);
        assert_eq!(frame.len(), encode_to_vec(&v).len() + 4);
        let back: Vec<(ValidatorId, Stake)> = decode_framed(&frame).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn framed_rejects_any_single_bit_flip() {
        let v: Vec<u64> = vec![7, 11, 13];
        let frame = encode_framed(&v);
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    decode_framed::<Vec<u64>>(&bad).is_err(),
                    "flip at byte {i} bit {bit} survived"
                );
            }
        }
    }

    #[test]
    fn framed_rejects_truncation_and_empty() {
        let frame = encode_framed(&42u64);
        assert!(decode_framed::<u64>(&frame[..frame.len() - 1]).is_err());
        assert!(decode_framed::<u64>(&[]).is_err());
        assert!(decode_framed::<u64>(&frame[..3]).is_err());
    }
}
