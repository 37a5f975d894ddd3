//! The on-wire message type: a [`ValidatorMessage`] behind the
//! transport-agnostic [`WireCodec`] trait.
//!
//! `hh-net`'s TCP layer is generic over the payload codec (it knows
//! frames, not protocols); this newtype plugs the repo's canonical
//! CRC-framed codec in. The `Arc` lets a broadcast encode once and lets
//! received messages flow into `Validator::on_message` by reference
//! without a copy.

use hammerhead::ValidatorMessage;
use hh_net::tcp::WireCodec;
use hh_types::codec::{decode_framed, encode_framed};
use std::sync::Arc;

/// A validator message as it travels over TCP.
#[derive(Clone, Debug)]
pub struct WireMsg(pub Arc<ValidatorMessage>);

impl WireMsg {
    /// Wraps a message for sending.
    pub fn new(msg: ValidatorMessage) -> Self {
        WireMsg(Arc::new(msg))
    }
}

impl WireCodec for WireMsg {
    fn encode_frame(&self) -> Vec<u8> {
        encode_framed(self.0.as_ref())
    }

    fn decode_frame(bytes: &[u8]) -> Result<Self, String> {
        decode_framed::<ValidatorMessage>(bytes)
            .map(|m| WireMsg(Arc::new(m)))
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_types::Transaction;

    #[test]
    fn roundtrips_through_the_framed_codec() {
        let msg = WireMsg::new(ValidatorMessage::Submit(Transaction::new(7, 42, 1_000)));
        let bytes = msg.encode_frame();
        let back = WireMsg::decode_frame(&bytes).expect("decode");
        match back.0.as_ref() {
            ValidatorMessage::Submit(tx) => {
                assert_eq!(tx.client, 7);
                assert_eq!(tx.seq, 42);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn rejects_corrupt_frames() {
        let mut bytes = WireMsg::new(ValidatorMessage::Confirm {
            id: hh_types::TxId { client: 1, seq: 2 },
            executed_at: 3,
        })
        .encode_frame();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(WireMsg::decode_frame(&bytes).is_err());
    }
}
