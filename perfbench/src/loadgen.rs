//! Open-loop load generator for the `hh-node` testnet.
//!
//! The submit schedule is generated up front from the seed; the program
//! under test only ever sees the resulting frames. One sender thread
//! multiplexes every connection (frames due in the same 1 ms tick are
//! coalesced into one write per socket) and one receiver thread reads
//! every connection, so the generator never uses more than two threads.
//! Each transaction is timed from the instant it was *due*, not from when
//! it was written: a generator or socket stall is charged to the
//! transactions it delayed instead of silently thinning the load.

use hammerhead::ValidatorMessage;
use hh_net::tcp::{read_frame, write_frame, write_handshake};
use hh_types::codec::{decode_framed, encode_framed};
use hh_types::Transaction;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// "Never happened" marker in the per-transaction time vectors.
pub const NEVER: u64 = u64::MAX;

/// A small seedable generator (SplitMix64): the schedule must be a pure
/// function of `--seed`, and nothing here needs more than uniform draws.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Due times (µs, ascending) of a Poisson arrival process of `rate_tps`
/// over `[from_us, to_us)`, conditioned on its expected count: exactly
/// `rate × length` arrivals at sorted uniform instants. Fixing the count
/// keeps the offered load identical across seeds while the spacing stays
/// memoryless.
pub fn poisson_arrivals(rng: &mut SplitMix64, rate_tps: u64, from_us: u64, to_us: u64) -> Vec<u64> {
    let length = to_us - from_us;
    let count = (rate_tps as u128 * length as u128 / 1_000_000) as usize;
    let mut due: Vec<u64> = (0..count).map(|_| from_us + rng.below(length)).collect();
    due.sort_unstable();
    due
}

/// What the generator observed, indexed by transaction (= schedule index).
#[derive(Clone, Debug, Default)]
pub struct LoadLog {
    /// When each submit was handed to the socket (µs from load start).
    pub sent_us: Vec<u64>,
    /// When each `Confirm` was read ([`NEVER`] if none arrived).
    pub confirm_us: Vec<u64>,
    /// Confirms reporting a shed transaction (`executed_at == u64::MAX`).
    pub shed: u64,
    /// Confirms for an id already confirmed.
    pub duplicates: u64,
    /// Confirms for an id that was never submitted on that connection.
    pub unknown: u64,
}

/// Latency accounting over the measured window of a run.
#[derive(Clone, Debug, Default)]
pub struct Accounting {
    /// Transactions due inside the window.
    pub attempted: u64,
    /// Of those, how many got no confirmation (shed ones included).
    pub failed: u64,
    /// Due → confirm, µs, ascending, one per confirmed transaction.
    pub latencies_us: Vec<u64>,
    /// The same latencies as `(due, latency)` in due order.
    pub samples: Vec<(u64, u64)>,
    /// Largest `sent − due` inside the window: how late the generator ran.
    pub late_max_us: u64,
    /// Arrival of the last confirmation of a windowed transaction.
    pub last_confirm_us: u64,
}

/// Accounts the transactions due in `[from_us, to_us)`. Warm-up traffic
/// before `from_us` is dropped; latency runs from the due time.
pub fn account(
    due_us: &[u64],
    sent_us: &[u64],
    confirm_us: &[u64],
    from_us: u64,
    to_us: u64,
) -> Accounting {
    let mut acc = Accounting::default();
    for ((&due, &sent), &confirm) in due_us.iter().zip(sent_us).zip(confirm_us) {
        if due < from_us || due >= to_us {
            continue;
        }
        acc.attempted += 1;
        if sent != NEVER {
            acc.late_max_us = acc.late_max_us.max(sent.saturating_sub(due));
        }
        if confirm == NEVER {
            acc.failed += 1;
        } else {
            acc.samples.push((due, confirm.saturating_sub(due)));
            acc.last_confirm_us = acc.last_confirm_us.max(confirm);
        }
    }
    acc.latencies_us = acc.samples.iter().map(|s| s.1).collect();
    acc.latencies_us.sort_unstable();
    acc
}

/// One client connection: transactions `k` with `k % conns == index`.
struct Conn {
    stream: TcpStream,
    client_id: u16,
    /// Every submit frame of this connection, length-prefixed, back to back.
    frames: Vec<u8>,
    /// End offset in `frames` of this connection's i-th transaction.
    ends: Vec<usize>,
}

fn connect(addr: SocketAddr, client_id: u16) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    write_handshake(&mut stream, client_id).map_err(|e| format!("handshake {addr}: {e}"))?;
    // Both threads share the socket, so both directions are non-blocking:
    // the receiver polls, the sender retries a full buffer.
    stream.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
    Ok(stream)
}

fn write_all_retrying(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Runs the schedule against `addrs` (one connection each, client ids
/// `first_client_id..`), then waits until every transaction is confirmed
/// or `confirm_timeout` has passed since the last submit. `origin` is
/// load time zero. Setting `abort` ends both threads early.
///
/// # Errors
///
/// Returns a description of a connection or socket failure.
pub fn run_load(
    addrs: &[SocketAddr],
    first_client_id: u16,
    due_us: &[u64],
    origin: Instant,
    confirm_timeout: Duration,
    abort: &AtomicBool,
) -> Result<LoadLog, String> {
    let conns_n = addrs.len();
    let mut conns = Vec::new();
    for (i, addr) in addrs.iter().enumerate() {
        let client_id = first_client_id + i as u16;
        conns.push(Conn {
            stream: connect(*addr, client_id)?,
            client_id,
            frames: Vec::new(),
            ends: Vec::new(),
        });
    }
    for (k, &due) in due_us.iter().enumerate() {
        let conn = &mut conns[k % conns_n];
        let tx = Transaction::new(conn.client_id as u32, k as u64, due);
        let payload = encode_framed(&ValidatorMessage::Submit(tx));
        write_frame(&mut conn.frames, &payload).expect("write to a Vec");
        conn.ends.push(conn.frames.len());
    }
    let mut readers = Vec::new();
    for conn in &conns {
        let stream = conn.stream.try_clone().map_err(|e| format!("clone socket: {e}"))?;
        readers.push((stream, conn.client_id));
    }

    let total = due_us.len();
    let sender_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let result = send_loop(&mut conns, due_us, origin, abort);
            sender_done.store(true, Ordering::SeqCst);
            result
        });
        let receiver = scope.spawn(|| {
            receive_loop(&mut readers, total, origin, confirm_timeout, &sender_done, abort)
        });
        let sent_us = sender.join().map_err(|_| "sender thread panicked".to_string())??;
        let mut log = receiver.join().map_err(|_| "receiver thread panicked".to_string())??;
        log.sent_us = sent_us;
        Ok(log)
    })
}

fn send_loop(
    conns: &mut [Conn],
    due_us: &[u64],
    origin: Instant,
    abort: &AtomicBool,
) -> Result<Vec<u64>, String> {
    let conns_n = conns.len();
    let mut sent_us = vec![NEVER; due_us.len()];
    // Per connection: transactions already written, byte offset written.
    let mut done: Vec<(usize, usize)> = vec![(0, 0); conns_n];
    let mut next = 0usize;
    let tick = Duration::from_millis(1);
    while next < due_us.len() && !abort.load(Ordering::Relaxed) {
        let tick_start = Instant::now();
        let now = origin.elapsed().as_micros() as u64;
        let from = next;
        while next < due_us.len() && due_us[next] <= now {
            next += 1;
        }
        if next > from {
            for (c, conn) in conns.iter_mut().enumerate() {
                // How many of this connection's transactions lie below `next`.
                let upto = (next + conns_n - 1 - c) / conns_n;
                let (written, offset) = done[c];
                if upto > written {
                    let end = conn.ends[upto - 1];
                    write_all_retrying(&mut conn.stream, &conn.frames[offset..end])
                        .map_err(|e| format!("submit to client {}: {e}", conn.client_id))?;
                    done[c] = (upto, end);
                }
            }
            let wrote_at = origin.elapsed().as_micros() as u64;
            sent_us[from..next].fill(wrote_at);
        }
        if let Some(rest) = tick.checked_sub(tick_start.elapsed()) {
            std::thread::sleep(rest);
        }
    }
    Ok(sent_us)
}

fn receive_loop(
    readers: &mut [(TcpStream, u16)],
    total: usize,
    origin: Instant,
    confirm_timeout: Duration,
    sender_done: &AtomicBool,
    abort: &AtomicBool,
) -> Result<LoadLog, String> {
    let conns_n = readers.len();
    let mut log = LoadLog { confirm_us: vec![NEVER; total], ..LoadLog::default() };
    let mut pending: Vec<Vec<u8>> = vec![Vec::new(); conns_n];
    let mut chunk = vec![0u8; 64 * 1024];
    let mut confirmed = 0usize;
    let mut drain_deadline: Option<Instant> = None;
    while confirmed + (log.shed as usize) < total && !abort.load(Ordering::Relaxed) {
        if drain_deadline.is_none() && sender_done.load(Ordering::SeqCst) {
            drain_deadline = Some(Instant::now() + confirm_timeout);
        }
        if drain_deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let mut idle = true;
        for (c, (stream, client_id)) in readers.iter_mut().enumerate() {
            match stream.read(&mut chunk) {
                Ok(0) => return Err(format!("node closed the connection of client {client_id}")),
                Ok(n) => {
                    idle = false;
                    pending[c].extend_from_slice(&chunk[..n]);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(e) => return Err(format!("read from client {client_id}: {e}")),
            }
            let now = origin.elapsed().as_micros() as u64;
            let mut cursor = 0usize;
            // Only whole frames are handed to `read_frame`.
            while let Some(len) = frame_len(&pending[c][cursor..]) {
                let mut frame = &pending[c][cursor..cursor + 4 + len];
                let payload = read_frame(&mut frame).map_err(|e| format!("frame: {e}"))?;
                cursor += 4 + len;
                let msg: ValidatorMessage =
                    decode_framed(&payload).map_err(|e| format!("confirm frame: {e}"))?;
                let ValidatorMessage::Confirm { id, executed_at } = msg else {
                    log.unknown += 1;
                    continue;
                };
                let k = id.seq as usize;
                if id.client != *client_id as u32 || k >= total || k % conns_n != c {
                    log.unknown += 1;
                } else if executed_at == u64::MAX {
                    log.shed += 1;
                } else if log.confirm_us[k] != NEVER {
                    log.duplicates += 1;
                } else {
                    log.confirm_us[k] = now;
                    confirmed += 1;
                }
            }
            pending[c].drain(..cursor);
        }
        if idle {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    Ok(log)
}

/// Payload length of the first frame in `buf` if the whole frame is there.
fn frame_len(buf: &[u8]) -> Option<usize> {
    let header: [u8; 4] = buf.get(..4)?.try_into().ok()?;
    let len = u32::from_be_bytes(header) as usize;
    (buf.len() >= 4 + len).then_some(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed_with_an_exact_count() {
        let draw = |seed| poisson_arrivals(&mut SplitMix64(seed), 400, 3_000_000, 13_000_000);
        let a = draw(7);
        assert_eq!(a.len(), 4_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|t| (3_000_000..13_000_000).contains(t)));
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
    }

    #[test]
    fn latency_runs_from_the_due_time_when_the_sender_is_late() {
        // Tx 0 is warm-up. Tx 1 was due at 1.0 s but the sender was stalled
        // until 1.05 s; the node confirmed it 100 ms after it was written.
        // Tx 2 was on time. Tx 3 never came back. Tx 4 is past the window.
        let due = [500_000, 1_000_000, 1_200_000, 1_300_000, 2_000_000];
        let sent = [500_100, 1_050_000, 1_200_200, 1_300_100, 2_000_100];
        let confirm = [600_000, 1_150_000, 1_330_200, NEVER, 2_100_000];
        let acc = account(&due, &sent, &confirm, 1_000_000, 2_000_000);
        assert_eq!(acc.attempted, 3);
        assert_eq!(acc.failed, 1);
        // 150 ms for the stalled one — not the 100 ms the node took.
        assert_eq!(acc.latencies_us, vec![130_200, 150_000]);
        assert_eq!(acc.samples, vec![(1_000_000, 150_000), (1_200_000, 130_200)]);
        assert_eq!(acc.late_max_us, 50_000);
        assert_eq!(acc.last_confirm_us, 1_330_200);
    }

    #[test]
    fn only_whole_frames_are_parsed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(frame_len(&buf), Some(5));
        assert_eq!(frame_len(&buf[..8]), None);
        assert_eq!(frame_len(&buf[..3]), None);
    }
}
