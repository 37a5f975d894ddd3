//! Framed TCP transport: the real-socket counterpart of the simulator's
//! message routing.
//!
//! This is the wire layer of `hh-node`: length-prefixed frames over plain
//! `std::net` TCP, thread-per-peer over crossbeam channels — no async
//! runtime, matching the repo-wide no-tokio constraint. The design mirrors
//! the WAL's framing discipline (`hh-storage`): a 4-byte big-endian length
//! prefix bounds every read, and the payload itself carries whatever
//! integrity trailer the [`WireCodec`] implementation adds (the node uses
//! the `hh_types` CRC-32 framed codec).
//!
//! Topology: every endpoint binds one listener and opens one *outbound*
//! connection per configured peer. Traffic from `i` to `j` always travels
//! on `i`'s outbound connection to `j`; replies come back on `j`'s own
//! outbound connection to `i`. Endpoints that handshake with an id outside
//! the configured peer set (clients) are *duplex*: the acceptor registers a
//! writer for them so responses can be routed back over the same socket.
//!
//! Robustness invariants, exercised by `tests/tcp_wire.rs`:
//!
//! * a malicious or broken byte stream (bad handshake, random bytes,
//!   truncated or oversized length prefixes, CRC-corrupt payloads,
//!   mid-frame disconnects, byte-at-a-time slow writes) can never panic a
//!   peer thread or wedge the endpoint — the offending connection is
//!   dropped, a counter ticks, and everything else keeps flowing; so is
//!   a connection the OS refuses a thread for;
//! * outbound connections reconnect with capped exponential backoff, so a
//!   peer that crashes and restarts is re-linked without operator action
//!   — even on the same port: on Unix std's `TcpListener::bind` sets
//!   `SO_REUSEADDR`, so the restarted listener does not wait out the
//!   TIME-WAIT of its predecessor's connections;
//! * writer queues are bounded: a dead or slow peer costs a fixed amount
//!   of memory, never the whole process (the broadcast layer's
//!   retransmission logic recovers anything dropped here).

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, SyncSender, TrySendError};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Maximum frame payload accepted off the wire (16 MiB, matching the
/// `hh_types` codec's collection bound). A hostile length prefix above
/// this is rejected *before* any allocation.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Handshake magic: identifies the HammerHead node protocol.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"HHN1";

/// Wire protocol version carried in the handshake.
pub const WIRE_VERSION: u16 = 1;

/// Bytes of the fixed-size connection handshake: magic, version, sender id.
pub const HANDSHAKE_LEN: usize = 8;

/// How a message type crosses the framed TCP transport.
///
/// Implementations must be *total* on `decode_frame`: any byte slice is
/// either a valid message or an error — never a panic. The node implements
/// this with the `hh_types` CRC-32 framed codec.
pub trait WireCodec: Sized + Send + 'static {
    /// Serializes the message into one frame payload (integrity trailer
    /// included, if the codec has one).
    fn encode_frame(&self) -> Vec<u8>;
    /// Parses one frame payload. Must reject, never panic, on garbage.
    fn decode_frame(bytes: &[u8]) -> Result<Self, String>;
}

/// Why a frame could not be read off a connection.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (includes EOF / mid-frame disconnect).
    Io(io::Error),
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// The payload was read whole but the codec rejected it.
    Corrupt(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::TooLarge(len) => {
                write!(f, "length prefix {len} exceeds max frame {MAX_FRAME_LEN}")
            }
            FrameError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
        }
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame, rejecting hostile lengths before
/// allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header).map_err(FrameError::Io)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(payload)
}

/// Writes the connection handshake for endpoint `id`.
pub fn write_handshake(w: &mut impl Write, id: u16) -> io::Result<()> {
    let mut hs = [0u8; HANDSHAKE_LEN];
    hs[0..4].copy_from_slice(&HANDSHAKE_MAGIC);
    hs[4..6].copy_from_slice(&WIRE_VERSION.to_be_bytes());
    hs[6..8].copy_from_slice(&id.to_be_bytes());
    w.write_all(&hs)?;
    w.flush()
}

/// Reads and validates a connection handshake, returning the peer's id.
pub fn read_handshake(r: &mut impl Read) -> Result<u16, FrameError> {
    let mut hs = [0u8; HANDSHAKE_LEN];
    r.read_exact(&mut hs).map_err(FrameError::Io)?;
    if hs[0..4] != HANDSHAKE_MAGIC {
        return Err(FrameError::Corrupt("bad handshake magic".into()));
    }
    let version = u16::from_be_bytes([hs[4], hs[5]]);
    if version != WIRE_VERSION {
        return Err(FrameError::Corrupt(format!("unsupported wire version {version}")));
    }
    Ok(u16::from_be_bytes([hs[6], hs[7]]))
}

/// Static transport configuration for one endpoint.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// This endpoint's id, sent in every handshake.
    pub id: u16,
    /// Listener address.
    pub bind: SocketAddr,
    /// Outbound peers as `(id, addr)`; the own id, if present, is skipped.
    pub peers: Vec<(u16, SocketAddr)>,
}

impl TcpConfig {
    /// The configuration of endpoint `id`.
    pub fn new(id: u16, bind: SocketAddr, peers: Vec<(u16, SocketAddr)>) -> Self {
        TcpConfig { id, bind, peers }
    }
}

/// What the transport delivers to its owner.
#[derive(Debug)]
pub enum TcpEvent<M> {
    /// A decoded frame from endpoint `from` (peer or client).
    Message {
        /// Handshake id of the sending endpoint.
        from: u16,
        /// The decoded message.
        msg: M,
    },
    /// An inbound connection completed its handshake.
    Connected {
        /// Handshake id of the connecting endpoint.
        from: u16,
    },
    /// An inbound connection ended (EOF, error, or rejected frame).
    Disconnected {
        /// Handshake id of the departed endpoint.
        from: u16,
    },
}

/// Wire counters (monotonic; shared across all transport threads).
#[derive(Default)]
pub struct TcpStats {
    /// Frames handed to writer threads.
    pub frames_sent: AtomicU64,
    /// Frames decoded and delivered.
    pub frames_received: AtomicU64,
    /// Frames or handshakes rejected (bad magic, oversized length prefix,
    /// codec rejection). Disconnections mid-frame are not counted here.
    pub decode_errors: AtomicU64,
    /// Outbound reconnection attempts after a drop or failure.
    pub reconnects: AtomicU64,
    /// Messages dropped for lack of a route or a full writer queue.
    pub dropped: AtomicU64,
    /// Inbound connections closed because the OS refused a thread to
    /// serve them (their reader or their reply writer).
    pub spawn_failures: AtomicU64,
}

impl TcpStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of (sent, received, decode_errors, reconnects, dropped,
    /// spawn_failures).
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.frames_sent.load(Ordering::Relaxed),
            self.frames_received.load(Ordering::Relaxed),
            self.decode_errors.load(Ordering::Relaxed),
            self.reconnects.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
            self.spawn_failures.load(Ordering::Relaxed),
        )
    }
}

/// Per-writer queue depth. A full queue sheds (the RBC layer retransmits);
/// it must never block the node's event loop.
const WRITER_QUEUE: usize = 8192;

/// Reply routes by handshake id. The `Arc` is the route's identity: the
/// connection that installed it holds a clone to recognise it by.
type Routes = HashMap<u16, Arc<SyncSender<Arc<[u8]>>>>;
type SharedWriters = Arc<Mutex<Routes>>;

/// Locks the reply routes. Every critical section is a single map
/// operation, so a thread that panicked holding the lock left the map
/// whole, and a poisoned lock is used as it is.
fn routes(writers: &SharedWriters) -> MutexGuard<'_, Routes> {
    writers.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running framed-TCP endpoint.
///
/// Spawned threads: one acceptor, one reader+writer pair per inbound
/// connection, one writer (with reconnect loop) per configured peer.
pub struct TcpTransport<M> {
    id: u16,
    local_addr: SocketAddr,
    events_rx: Receiver<TcpEvent<M>>,
    /// Outbound writer queues, keyed by peer id.
    peer_tx: HashMap<u16, SyncSender<Arc<[u8]>>>,
    /// Reply routes for inbound (client) connections, keyed by handshake id.
    inbound_writers: SharedWriters,
    stats: Arc<TcpStats>,
    running: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl<M: WireCodec> TcpTransport<M> {
    /// Binds the listener and spawns the acceptor and per-peer writer
    /// threads. Returns as soon as the listener is live; outbound
    /// connections are established (and re-established) in the background.
    /// A thread the OS refuses stops whatever had started and is returned
    /// as the error.
    pub fn start(cfg: TcpConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(cfg.bind)?;
        let (events_tx, events_rx) = unbounded();
        let mut transport = TcpTransport {
            id: cfg.id,
            local_addr: listener.local_addr()?,
            events_rx,
            peer_tx: HashMap::new(),
            inbound_writers: Arc::new(Mutex::new(HashMap::new())),
            stats: Arc::new(TcpStats::default()),
            running: Arc::new(AtomicBool::new(true)),
            handles: Vec::new(),
        };

        // Acceptor.
        let stats = Arc::clone(&transport.stats);
        let running = Arc::clone(&transport.running);
        let inbound_writers = Arc::clone(&transport.inbound_writers);
        transport.handles.push(thread::Builder::new().spawn(move || {
            accept_loop(listener, events_tx, stats, running, inbound_writers);
        })?);

        // One outbound writer per peer.
        for &(peer, addr) in cfg.peers.iter().filter(|&&(p, _)| p != cfg.id) {
            let (tx, rx) = bounded::<Arc<[u8]>>(WRITER_QUEUE);
            let stats = Arc::clone(&transport.stats);
            let running = Arc::clone(&transport.running);
            let own_id = cfg.id;
            match thread::Builder::new()
                .spawn(move || outbound_loop(own_id, addr, rx, stats, running))
            {
                Ok(handle) => {
                    transport.peer_tx.insert(peer, tx);
                    transport.handles.push(handle);
                }
                Err(e) => {
                    transport.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(transport)
    }

    /// This endpoint's id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// The bound listener address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The inbound event stream.
    pub fn events(&self) -> &Receiver<TcpEvent<M>> {
        &self.events_rx
    }

    /// Wire counters.
    pub fn stats(&self) -> &TcpStats {
        &self.stats
    }

    /// Sends to one endpoint: a configured peer via its outbound
    /// connection, otherwise an inbound (client) reply route. Unroutable
    /// or backpressured messages are shed and counted, never blocked on.
    pub fn send(&self, to: u16, msg: &M) {
        let frame: Arc<[u8]> = msg.encode_frame().into();
        self.send_raw(to, frame);
    }

    /// Sends an already-encoded frame (shared broadcast path).
    fn send_raw(&self, to: u16, frame: Arc<[u8]>) {
        let sent = if let Some(tx) = self.peer_tx.get(&to) {
            enqueue(tx, frame)
        } else if let Some(tx) = routes(&self.inbound_writers).get(&to) {
            enqueue(tx, frame)
        } else {
            false
        };
        if sent {
            TcpStats::bump(&self.stats.frames_sent);
        } else {
            TcpStats::bump(&self.stats.dropped);
        }
    }

    /// Broadcasts to every configured peer, encoding once.
    pub fn broadcast(&self, msg: &M) {
        let frame: Arc<[u8]> = msg.encode_frame().into();
        for &peer in self.peer_tx.keys().collect::<Vec<_>>() {
            self.send_raw(peer, Arc::clone(&frame));
        }
    }

    /// Stops every thread and joins them. Safe to call once; dropping the
    /// transport without calling it aborts the threads' channels anyway.
    pub fn shutdown(mut self) {
        self.running.store(false, Ordering::SeqCst);
        self.peer_tx.clear();
        routes(&self.inbound_writers).clear();
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn enqueue(tx: &SyncSender<Arc<[u8]>>, frame: Arc<[u8]>) -> bool {
    match tx.try_send(frame) {
        Ok(()) => true,
        Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => false,
    }
}

fn accept_loop<M: WireCodec>(
    listener: TcpListener,
    events_tx: Sender<TcpEvent<M>>,
    stats: Arc<TcpStats>,
    running: Arc<AtomicBool>,
    inbound_writers: SharedWriters,
) {
    while running.load(Ordering::SeqCst) {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => continue,
        };
        if !running.load(Ordering::SeqCst) {
            return;
        }
        let events_tx = events_tx.clone();
        let conn_stats = Arc::clone(&stats);
        let running = Arc::clone(&running);
        let inbound_writers = Arc::clone(&inbound_writers);
        let spawned = thread::Builder::new().spawn(move || {
            inbound_connection(stream, events_tx, conn_stats, running, inbound_writers);
        });
        // A peer opening connections can exhaust the OS's threads: the
        // refused closure took the stream with it, so the connection is
        // closed, and the node keeps going.
        if spawned.is_err() {
            TcpStats::bump(&stats.spawn_failures);
        }
    }
}

/// Services one accepted connection: handshake, register a reply writer,
/// then decode frames until the stream ends or turns hostile. Every exit
/// path unregisters the writer and emits `Disconnected`.
fn inbound_connection<M: WireCodec>(
    mut stream: TcpStream,
    events_tx: Sender<TcpEvent<M>>,
    stats: Arc<TcpStats>,
    running: Arc<AtomicBool>,
    inbound_writers: SharedWriters,
) {
    // A connection that never completes its handshake may not hold the
    // thread hostage.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let from = match read_handshake(&mut stream) {
        Ok(id) => id,
        Err(err) => {
            if !matches!(err, FrameError::Io(_)) {
                TcpStats::bump(&stats.decode_errors);
            }
            return;
        }
    };
    let _ = stream.set_read_timeout(None);
    let _ = stream.set_nodelay(true);

    // Reply route: a dedicated writer thread so sends to this endpoint
    // never block the owner. Last handshake for an id wins (a reconnecting
    // client replaces its dead route).
    let (writer_tx, writer_rx) = bounded::<Arc<[u8]>>(WRITER_QUEUE);
    let mut writer_handle = None;
    if let Ok(mut half) = stream.try_clone() {
        let spawned = thread::Builder::new().spawn(move || {
            while let Ok(frame) = writer_rx.recv() {
                if write_frame(&mut half, &frame).is_err() {
                    return;
                }
            }
        });
        match spawned {
            Ok(handle) => writer_handle = Some(handle),
            Err(_) => {
                // No thread to reply with: close the connection unannounced.
                TcpStats::bump(&stats.spawn_failures);
                return;
            }
        }
    }
    let writer_tx = Arc::new(writer_tx);
    routes(&inbound_writers).insert(from, Arc::clone(&writer_tx));
    let _ = events_tx.send(TcpEvent::Connected { from });

    loop {
        if !running.load(Ordering::SeqCst) {
            break;
        }
        let payload = match read_frame(&mut stream) {
            Ok(payload) => payload,
            Err(FrameError::Io(_)) => break,
            Err(_) => {
                // Oversized prefix or unreadable frame: the stream's
                // framing can no longer be trusted — drop the connection.
                TcpStats::bump(&stats.decode_errors);
                break;
            }
        };
        match M::decode_frame(&payload) {
            Ok(msg) => {
                TcpStats::bump(&stats.frames_received);
                if events_tx.send(TcpEvent::Message { from, msg }).is_err() {
                    break;
                }
            }
            Err(_) => {
                TcpStats::bump(&stats.decode_errors);
                break;
            }
        }
    }

    // Only unregister our own route: a reconnect may already have
    // installed a fresh one under the same id.
    {
        let mut writers = routes(&inbound_writers);
        if writers.get(&from).is_some_and(|route| Arc::ptr_eq(route, &writer_tx)) {
            writers.remove(&from);
        }
    }
    drop(writer_handle);
    let _ = events_tx.send(TcpEvent::Disconnected { from });
}

/// First reconnect delay after a failed outbound connection (fast: the
/// peers of a loopback testnet come up within milliseconds of each other).
const INITIAL_BACKOFF: Duration = Duration::from_millis(50);

/// Reconnect backoff cap.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Owns the outbound connection to one peer: connect with capped
/// exponential backoff, handshake, then drain the send queue. A write
/// failure falls back to reconnecting; the frame in hand is retried once
/// on the new connection.
fn outbound_loop(
    own_id: u16,
    addr: SocketAddr,
    rx: Receiver<Arc<[u8]>>,
    stats: Arc<TcpStats>,
    running: Arc<AtomicBool>,
) {
    let mut backoff = INITIAL_BACKOFF;
    let mut pending: Option<Arc<[u8]>> = None;
    'reconnect: while running.load(Ordering::SeqCst) {
        let mut stream = match TcpStream::connect_timeout(&addr, Duration::from_secs(1)) {
            Ok(stream) => stream,
            Err(_) => {
                TcpStats::bump(&stats.reconnects);
                thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        if write_handshake(&mut stream, own_id).is_err() {
            TcpStats::bump(&stats.reconnects);
            thread::sleep(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF);
            continue;
        }
        backoff = INITIAL_BACKOFF;

        loop {
            let frame = match pending.take() {
                Some(frame) => frame,
                None => match rx.recv_timeout(Duration::from_millis(100)) {
                    Ok(frame) => frame,
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                        if running.load(Ordering::SeqCst) {
                            continue;
                        }
                        return;
                    }
                    Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                },
            };
            if write_frame(&mut stream, &frame).is_err() {
                // Retry this frame on the next connection.
                pending = Some(frame);
                TcpStats::bump(&stats.reconnects);
                thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
                continue 'reconnect;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy codec: u64 payload plus a xor checksum byte.
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

    fn transport(id: u16, peers: Vec<(u16, SocketAddr)>) -> TcpTransport<TestMsg> {
        let cfg = TcpConfig::new(id, "127.0.0.1:0".parse().expect("addr"), peers);
        TcpTransport::start(cfg).expect("bind")
    }

    fn recv_message(t: &TcpTransport<TestMsg>, deadline: Duration) -> Option<(u16, TestMsg)> {
        let end = std::time::Instant::now() + deadline;
        loop {
            let left = end.saturating_duration_since(std::time::Instant::now());
            match t.events().recv_timeout(left) {
                Ok(TcpEvent::Message { from, msg }) => return Some((from, msg)),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
    }

    #[test]
    fn two_endpoints_exchange_frames() {
        let a = transport(0, vec![]);
        let b = transport(1, vec![(0, a.local_addr())]);
        // b connects out to a lazily; send a few frames.
        for i in 0..5u64 {
            b.send(0, &TestMsg(i));
        }
        for i in 0..5u64 {
            let (from, msg) = recv_message(&a, Duration::from_secs(5)).expect("frame");
            assert_eq!(from, 1);
            assert_eq!(msg, TestMsg(i));
        }
        b.shutdown();
        a.shutdown();
    }

    #[test]
    fn reconnects_after_peer_restart() {
        let a = transport(0, vec![]);
        let addr = a.local_addr();
        let b = transport(1, vec![(0, addr)]);
        b.send(0, &TestMsg(1));
        assert!(recv_message(&a, Duration::from_secs(5)).is_some());
        // Kill and immediately rebind the same port: std's SO_REUSEADDR
        // plus the outbound backoff loop must re-link the pair.
        a.shutdown();
        let a2 = TcpTransport::<TestMsg>::start(TcpConfig::new(0, addr, vec![]))
            .expect("rebind same port");
        // The first frames may race the reconnect and be retried; keep
        // sending until one lands.
        let end = std::time::Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while std::time::Instant::now() < end {
            b.send(0, &TestMsg(42));
            if let Some((_, TestMsg(42))) = recv_message(&a2, Duration::from_millis(200)) {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "no frame delivered after peer restart");
        b.shutdown();
        a2.shutdown();
    }

    #[test]
    fn client_reply_route_works() {
        let node = transport(0, vec![]);
        // A raw "client" connects, handshakes as id 100, sends one frame,
        // and expects a reply over the same socket.
        let mut sock = TcpStream::connect(node.local_addr()).expect("connect");
        write_handshake(&mut sock, 100).expect("handshake");
        write_frame(&mut sock, &TestMsg(7).encode_frame()).expect("frame");
        let (from, msg) = recv_message(&node, Duration::from_secs(5)).expect("frame");
        assert_eq!((from, msg), (100, TestMsg(7)));
        node.send(100, &TestMsg(8));
        let payload = read_frame(&mut sock).expect("reply");
        assert_eq!(TestMsg::decode_frame(&payload).expect("decode"), TestMsg(8));
        node.shutdown();
    }

    #[test]
    fn a_reconnected_client_keeps_its_reply_route_when_the_old_connection_ends() {
        let node = transport(0, vec![]);
        let wait_for = |what: &str, wanted: fn(&TcpEvent<TestMsg>) -> bool| loop {
            let event = node.events().recv_timeout(Duration::from_secs(5));
            if wanted(&event.unwrap_or_else(|_| panic!("no {what} event"))) {
                break;
            }
        };
        let connect = || {
            let mut sock = TcpStream::connect(node.local_addr()).expect("connect");
            write_handshake(&mut sock, 100).expect("handshake");
            wait_for("Connected", |e| matches!(e, TcpEvent::Connected { from: 100 }));
            sock
        };
        // The same client twice: the second handshake replaces the route,
        // and only afterwards does the first connection's reader see EOF.
        let old = connect();
        let mut new = connect();
        drop(old);
        wait_for("Disconnected", |e| matches!(e, TcpEvent::Disconnected { from: 100 }));

        node.send(100, &TestMsg(8));
        assert_eq!(node.stats().dropped.load(Ordering::Relaxed), 0, "the new route is gone");
        new.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let payload = read_frame(&mut new).expect("reply on the second socket");
        assert_eq!(TestMsg::decode_frame(&payload).expect("decode"), TestMsg(8));
        node.shutdown();
    }

    #[test]
    fn a_poisoned_writer_registry_still_routes_and_shuts_down() {
        let node = transport(0, vec![]);
        let mut sock = TcpStream::connect(node.local_addr()).expect("connect");
        write_handshake(&mut sock, 100).expect("handshake");
        while !matches!(
            node.events().recv_timeout(Duration::from_secs(5)).expect("no Connected event"),
            TcpEvent::Connected { from: 100 }
        ) {}
        // A thread that panics holding the lock poisons it.
        let registry = Arc::clone(&node.inbound_writers);
        let _ = thread::spawn(move || {
            let _held = registry.lock();
            panic!("poisoning the writer registry on purpose");
        })
        .join();
        assert!(node.inbound_writers.is_poisoned());

        node.send(100, &TestMsg(8));
        assert_eq!(node.stats().dropped.load(Ordering::Relaxed), 0, "the route is gone");
        sock.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let payload = read_frame(&mut sock).expect("reply");
        assert_eq!(TestMsg::decode_frame(&payload).expect("decode"), TestMsg(8));
        node.shutdown();
    }

    #[test]
    fn unroutable_send_is_shed_not_blocked() {
        let node = transport(0, vec![]);
        node.send(9, &TestMsg(1));
        assert_eq!(node.stats().dropped.load(Ordering::Relaxed), 1);
        node.shutdown();
    }
}
