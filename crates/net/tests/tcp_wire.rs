//! Wire-robustness properties for the framed TCP transport.
//!
//! The socket-layer extension of `crates/rbc/tests/corruption.rs`: where
//! those properties pin "a corrupted frame dies at the codec", these pin
//! "a malicious byte *stream* dies at the transport". Random bytes,
//! truncated and oversized length prefixes, checksum-corrupt frames, slow
//! byte-at-a-time writes and mid-frame disconnects must never panic a peer
//! thread or wedge the endpoint: the hostile connection is dropped, a
//! counter ticks, and honest traffic keeps flowing.

use hh_net::tcp::{
    write_frame, write_handshake, TcpConfig, TcpEvent, TcpTransport, WireCodec, HANDSHAKE_MAGIC,
    MAX_FRAME_LEN,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Toy codec: u64 payload plus a xor-checksum byte. Deliberately strict so
/// random bytes essentially never decode.
#[derive(Debug, PartialEq)]
struct TestMsg(u64);

impl WireCodec for TestMsg {
    fn encode_frame(&self) -> Vec<u8> {
        let mut out = self.0.to_be_bytes().to_vec();
        out.push(out.iter().fold(0u8, |acc, b| acc ^ b));
        out
    }
    fn decode_frame(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() != 9 {
            return Err(format!("bad length {}", bytes.len()));
        }
        let (body, check) = bytes.split_at(8);
        if body.iter().fold(0u8, |acc, b| acc ^ b) != check[0] {
            return Err("checksum mismatch".into());
        }
        Ok(TestMsg(u64::from_be_bytes(body.try_into().expect("8 bytes"))))
    }
}

fn endpoint() -> TcpTransport<TestMsg> {
    let cfg = TcpConfig::new(0, "127.0.0.1:0".parse().expect("addr"), vec![]);
    TcpTransport::start(cfg).expect("bind")
}

/// Opens a raw connection, handshakes as `id`, and returns the stream.
fn raw_client(t: &TcpTransport<TestMsg>, id: u16) -> TcpStream {
    let mut sock = TcpStream::connect(t.local_addr()).expect("connect");
    write_handshake(&mut sock, id).expect("handshake");
    sock
}

/// Waits until a `Message` arrives, returning it (drops Connected /
/// Disconnected events).
fn recv_message(t: &TcpTransport<TestMsg>, deadline: Duration) -> Option<(u16, TestMsg)> {
    let end = Instant::now() + deadline;
    loop {
        let left = end.saturating_duration_since(Instant::now());
        match t.events().recv_timeout(left) {
            Ok(TcpEvent::Message { from, msg }) => return Some((from, msg)),
            Ok(_) => continue,
            Err(_) => return None,
        }
    }
}

/// Proves the endpoint is still alive: a fresh honest connection delivers.
fn assert_still_serving(t: &TcpTransport<TestMsg>, probe_id: u16) {
    let mut sock = raw_client(t, probe_id);
    write_frame(&mut sock, &TestMsg(0xA11E).encode_frame()).expect("probe frame");
    loop {
        let (from, msg) = recv_message(t, Duration::from_secs(10))
            .expect("endpoint wedged: honest probe frame never delivered");
        // Garbage written by the hostile connection in the same test can
        // occasionally decode by luck; only the probe id proves liveness.
        if from == probe_id {
            assert_eq!(msg, TestMsg(0xA11E));
            return;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary bytes in place of a handshake: the connection is
    /// rejected, the endpoint keeps serving.
    fn random_bytes_instead_of_handshake(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Skip streams that accidentally start with the real magic.
        if bytes.len() >= 4 && bytes[0..4] == HANDSHAKE_MAGIC {
            return;
        }
        let t = endpoint();
        let mut sock = TcpStream::connect(t.local_addr()).expect("connect");
        let _ = sock.write_all(&bytes);
        drop(sock);
        assert_still_serving(&t, 7);
        t.shutdown();
    }

    /// Arbitrary bytes after a *valid* handshake: the peer thread must
    /// reject and drop, never panic or wedge.
    fn random_bytes_after_handshake(bytes in proptest::collection::vec(any::<u8>(), 1..256)) {
        let t = endpoint();
        let mut sock = raw_client(&t, 99);
        let _ = sock.write_all(&bytes);
        drop(sock);
        assert_still_serving(&t, 7);
        t.shutdown();
    }

    /// Honest frames survive a slow writer: payload dribbled one byte at a
    /// time must still decode (TCP offers no message boundaries; the
    /// reader must reassemble).
    fn slow_partial_writes_still_deliver(value in any::<u64>()) {
        let t = endpoint();
        let mut sock = raw_client(&t, 42);
        let payload = TestMsg(value).encode_frame();
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&payload);
        for byte in wire {
            sock.write_all(&[byte]).expect("slow write");
            sock.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (from, msg) = recv_message(&t, Duration::from_secs(10)).expect("frame");
        prop_assert_eq!((from, msg), (42, TestMsg(value)));
        t.shutdown();
    }

    /// Corrupting any single bit of an honest frame payload must tick the
    /// decode counter, not deliver a forged message.
    fn bit_flipped_frame_is_rejected(value in any::<u64>(), bit in 0usize..72) {
        let t = endpoint();
        let mut sock = raw_client(&t, 13);
        let mut payload = TestMsg(value).encode_frame();
        payload[bit / 8] ^= 1 << (bit % 8);
        write_frame(&mut sock, &payload).expect("frame");
        // The endpoint must reject (counter) and keep serving.
        let end = Instant::now() + Duration::from_secs(10);
        while t.stats().decode_errors.load(Ordering::Relaxed) == 0 {
            prop_assert!(Instant::now() < end, "decode error never counted");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_still_serving(&t, 7);
        t.shutdown();
    }
}

#[test]
fn truncated_length_prefix_is_harmless() {
    let t = endpoint();
    let mut sock = raw_client(&t, 55);
    // Two bytes of a four-byte length prefix, then disconnect.
    sock.write_all(&[0x00, 0x01]).expect("partial header");
    drop(sock);
    assert_still_serving(&t, 7);
    t.shutdown();
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let t = endpoint();
    let mut sock = raw_client(&t, 55);
    // Claims a 4 GiB frame; must be rejected from the prefix alone.
    sock.write_all(&u32::MAX.to_be_bytes()).expect("header");
    let end = Instant::now() + Duration::from_secs(10);
    while t.stats().decode_errors.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < end, "oversized prefix never rejected");
        std::thread::sleep(Duration::from_millis(5));
    }
    // A length one past the cap is rejected too.
    let mut sock2 = raw_client(&t, 56);
    sock2.write_all(&((MAX_FRAME_LEN as u32 + 1).to_be_bytes())).expect("header");
    assert_still_serving(&t, 7);
    t.shutdown();
}

#[test]
fn mid_frame_disconnect_is_harmless() {
    let t = endpoint();
    let mut sock = raw_client(&t, 55);
    // Header promises 1000 bytes; deliver 10 and vanish.
    sock.write_all(&1000u32.to_be_bytes()).expect("header");
    sock.write_all(&[0xAB; 10]).expect("partial body");
    drop(sock);
    assert_still_serving(&t, 7);
    t.shutdown();
}

#[test]
fn hostile_stream_does_not_starve_concurrent_honest_traffic() {
    let t = endpoint();
    // A hostile connection spraying garbage concurrently with an honest
    // client sending real frames: every honest frame arrives.
    let addr = t.local_addr();
    let hostile = std::thread::spawn(move || {
        for i in 0..50u8 {
            if let Ok(mut sock) = TcpStream::connect(addr) {
                let _ = sock.write_all(&[i; 33]);
            }
        }
    });
    let mut honest = raw_client(&t, 3);
    for i in 0..20u64 {
        write_frame(&mut honest, &TestMsg(i).encode_frame()).expect("frame");
    }
    let mut got = 0;
    while got < 20 {
        let (from, msg) = recv_message(&t, Duration::from_secs(10)).expect("frame");
        if from == 3 {
            assert_eq!(msg, TestMsg(got));
            got += 1;
        }
    }
    hostile.join().expect("hostile thread");
    t.shutdown();
}

#[test]
fn rebinds_an_address_right_after_closing_a_connection_accepted_on_it() {
    let t = endpoint();
    let addr = t.local_addr();
    // A frame that fails its checksum makes the endpoint hang up first —
    // the read below ends only once it has — so it is the endpoint's side
    // of the connection, on the listener's port, that sits in TIME-WAIT.
    let mut sock = raw_client(&t, 55);
    write_frame(&mut sock, &[0xFF; 9]).expect("frame");
    assert_eq!(sock.read(&mut [0u8; 1]).expect("orderly close"), 0);
    drop(sock);
    t.shutdown();
    // A restarted node binds that port at once: on Unix std's
    // `TcpListener::bind` sets SO_REUSEADDR.
    let cfg = TcpConfig::new(0, addr, vec![]);
    let again = TcpTransport::<TestMsg>::start(cfg).expect("rebind over TIME-WAIT");
    assert_still_serving(&again, 7);
    again.shutdown();
}
