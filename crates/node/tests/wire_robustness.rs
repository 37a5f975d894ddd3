//! Wire robustness of the *real* node codec: hostile byte streams
//! against a `TcpTransport<WireMsg>` endpoint.
//!
//! `crates/net/tests/tcp_wire.rs` proves the framing layer survives
//! malicious peers with a toy codec; these tests close the gap to the
//! production stack — CRC-framed [`ValidatorMessage`]s — so a corrupt
//! or adversarial frame can never panic a peer thread or wedge a
//! validator.

use hammerhead::ValidatorMessage;
use hh_net::tcp::{write_frame, write_handshake, TcpConfig, TcpEvent, TcpTransport, WireCodec};
use hh_node::WireMsg;
use hh_types::Transaction;
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn endpoint(id: u16) -> TcpTransport<WireMsg> {
    let bind: SocketAddr = "127.0.0.1:0".parse().unwrap();
    TcpTransport::start(TcpConfig::new(id, bind, Vec::new())).expect("bind")
}

fn submit_frame(client: u32, seq: u64) -> Vec<u8> {
    WireMsg::new(ValidatorMessage::Submit(Transaction::new(client, seq, 0))).encode_frame()
}

/// Sends one valid Submit and asserts it arrives — proof the endpoint
/// still serves honest clients after whatever abuse preceded the call.
fn assert_still_serving(t: &TcpTransport<WireMsg>, probe_id: u16) {
    let mut probe = TcpStream::connect(t.local_addr()).expect("probe connect");
    write_handshake(&mut probe, probe_id).unwrap();
    write_frame(&mut probe, &submit_frame(probe_id as u32, 1)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        match t.events().recv_timeout(Duration::from_millis(200)) {
            Ok(TcpEvent::Message { from, msg }) if from == probe_id => match msg.0.as_ref() {
                ValidatorMessage::Submit(tx) => {
                    assert_eq!(tx.client, probe_id as u32);
                    return;
                }
                other => panic!("probe decoded wrong message: {other:?}"),
            },
            Ok(_) => continue,
            Err(_) => continue,
        }
    }
    panic!("endpoint stopped serving honest traffic");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any single bit flipped anywhere in a real Submit frame must be
    /// rejected by the CRC (or the decoder), counted, and must not
    /// disturb later honest traffic on a fresh connection.
    #[test]
    fn bit_flipped_validator_message_is_rejected(seq in any::<u64>(), bit in 0usize..8) {
        let t = endpoint(0);
        let mut frame = submit_frame(7, seq);
        let before = t.stats().snapshot().2;
        // Flip one bit in a byte chosen from the payload (every byte of a
        // Submit frame is CRC-covered).
        let idx = (seq as usize) % frame.len();
        frame[idx] ^= 1 << bit;

        let mut s = TcpStream::connect(t.local_addr()).unwrap();
        write_handshake(&mut s, 100).unwrap();
        write_frame(&mut s, &frame).unwrap();

        // Either the corruption is detected (counter ticks) or the flip
        // landed on a byte the decoder tolerates — but it must never
        // produce a different transaction silently *and* the endpoint
        // must keep serving.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let errs = t.stats().snapshot().2;
            if errs > before {
                break;
            }
            if let Ok(TcpEvent::Message { msg, .. }) =
                t.events().recv_timeout(Duration::from_millis(50))
            {
                // A frame that still decodes after a bit flip would be a
                // CRC collision — with CRC-32 on a short frame this means
                // the flip was undone by idx aliasing; the decoded tx
                // must then be byte-identical to the original.
                if let ValidatorMessage::Submit(tx) = msg.0.as_ref() {
                    prop_assert_eq!(tx.seq, seq);
                }
                break;
            }
            if std::time::Instant::now() > deadline {
                prop_assert!(false, "corrupt frame neither rejected nor decoded");
            }
        }
        assert_still_serving(&t, 200);
        t.shutdown();
    }

    /// Random garbage wrapped in a valid length prefix must be counted
    /// as a decode error without killing the acceptor.
    #[test]
    fn framed_garbage_is_rejected(payload in proptest::collection::vec(any::<u8>(), 1..256)) {
        let t = endpoint(0);
        let before = t.stats().snapshot().2;
        let mut s = TcpStream::connect(t.local_addr()).unwrap();
        write_handshake(&mut s, 100).unwrap();
        write_frame(&mut s, &payload).unwrap();
        let _ = s.flush();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut rejected = false;
        while std::time::Instant::now() < deadline {
            if t.stats().snapshot().2 > before {
                rejected = true;
                break;
            }
            // An arbitrary byte string that round-trips the CRC *and*
            // decodes as a ValidatorMessage is possible but would have
            // to be a genuine encoding; accept it.
            if let Ok(TcpEvent::Message { .. }) =
                t.events().recv_timeout(Duration::from_millis(20))
            {
                rejected = true;
                break;
            }
        }
        prop_assert!(rejected, "garbage frame neither rejected nor decoded");
        assert_still_serving(&t, 200);
        t.shutdown();
    }
}

/// A truncated real frame (connection cut mid-message) must leave the
/// endpoint fully operational.
#[test]
fn truncated_validator_frame_is_harmless() {
    let t = endpoint(0);
    let frame = submit_frame(3, 9);
    {
        let mut s = TcpStream::connect(t.local_addr()).unwrap();
        write_handshake(&mut s, 100).unwrap();
        // Length prefix promises the full frame; deliver half and vanish.
        s.write_all(&(frame.len() as u32).to_be_bytes()).unwrap();
        s.write_all(&frame[..frame.len() / 2]).unwrap();
    }
    assert_still_serving(&t, 200);
    t.shutdown();
}

/// Two endpoints exchanging real validator messages both directions —
/// the positive control for this suite.
#[test]
fn validator_messages_flow_between_endpoints() {
    let a = endpoint(10);
    let b_bind: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let b = TcpTransport::<WireMsg>::start(TcpConfig::new(11, b_bind, vec![(10, a.local_addr())]))
        .expect("bind b");

    b.send(10, &WireMsg::new(ValidatorMessage::Submit(Transaction::new(1, 2, 3))));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match a.events().recv_timeout(Duration::from_millis(200)) {
            Ok(TcpEvent::Message { from, msg }) => {
                assert_eq!(from, 11);
                match msg.0.as_ref() {
                    ValidatorMessage::Submit(tx) => assert_eq!(tx.client, 1),
                    other => panic!("wrong message: {other:?}"),
                }
                break;
            }
            _ if std::time::Instant::now() > deadline => panic!("frame never arrived"),
            _ => continue,
        }
    }
    a.shutdown();
    b.shutdown();
}
