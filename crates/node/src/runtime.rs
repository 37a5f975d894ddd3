//! The node runtime: one OS process driving one [`Validator`] over real
//! sockets.
//!
//! The validator runs on [`hammerhead::Driver`], the driver the simulator
//! runs it on: each event is stepped, audited and routed by the same
//! code. What this runtime adds are the OS concerns: "now" is a
//! monotonic wall clock, sends go through [`hh_net::tcp::TcpTransport`]
//! instead of a latency model, stdin is the control channel, and a status
//! line goes to stdout. Timers wait in the simulator's
//! [`TimingWheel`], keyed by deadline and arming order, so timers due at
//! the same instant fire in the order they were armed in both runtimes.
//!
//! # Lifecycle
//!
//! * **Boot** — open the WAL file; [`Event::Boot`] restarts from a
//!   non-empty log ([`Validator::on_restart`]: WAL replay + RBC
//!   re-announce for range-sync) and starts otherwise.
//! * **Run** — deliver frames, fire timers, and print an `HH-STATUS`
//!   line every `status_interval_ms` so a harness can watch progress
//!   without any extra protocol.
//! * **Shutdown** — the node owns no signal handlers (pure std): its
//!   control channel is **stdin**. A `shutdown` line or EOF triggers a
//!   graceful exit: [`Event::Shutdown`] writes a final checkpoint and
//!   fsyncs the WAL, an `HH-FINAL` line reports the closing state, and
//!   the process exits 0. A SIGKILL simply never reaches any of this —
//!   which is exactly what the crash-recovery test wants.

use crate::config::NodeConfig;
use crate::wire::WireMsg;
use crossbeam::channel::Receiver;
use hammerhead::{route, Driver, Event, Transport, Validator, ValidatorMessage};
use hh_net::tcp::{TcpEvent, TcpTransport};
use hh_net::wheel::TimingWheel;
use hh_net::SimTime;
use hh_storage::FileBackend;
use hh_types::ValidatorId;
use std::io::{BufRead, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closing state of a node run, as also printed on the `HH-FINAL` line.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// This validator's id.
    pub id: u16,
    /// Committed sub-DAGs observed over the whole run (including any
    /// recovered by WAL replay at boot).
    pub commits: u64,
    /// Round of the newest committed anchor.
    pub committed_round: u64,
    /// Whether the run ended by graceful shutdown with a synced WAL.
    pub clean: bool,
}

/// Watches stdin on a helper thread; flips `stop` on EOF or a
/// `shutdown` line. The thread never needs joining: once `stop` is set
/// its work is done, and process exit reaps it.
fn watch_stdin(stop: Arc<AtomicBool>) -> std::io::Result<()> {
    std::thread::Builder::new().name("hh-node-stdin".into()).spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) if l.trim() == "shutdown" => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        stop.store(true, Ordering::SeqCst);
    })?;
    Ok(())
}

/// Most events one wake-up handles before the loop looks at its timers,
/// the status tick and the stop flag again: sustained inbound traffic
/// must not starve the leader timeout or a shutdown request.
const MAX_BURST: usize = 256;

/// Handles `first`, then whatever is already queued on `events`, at most
/// [`MAX_BURST`] events in all; stops early once `handle` returns
/// `false` (the validator fail-stopped).
fn drain_burst<T>(first: T, events: &Receiver<T>, mut handle: impl FnMut(T) -> bool) {
    if !handle(first) {
        return;
    }
    for _ in 1..MAX_BURST {
        let Ok(ev) = events.try_recv() else { return };
        if !handle(ev) {
            return;
        }
    }
}

/// The validator's side of the process, and its [`Transport`]: the
/// driver, the sockets, the timers, the time of the event being routed,
/// and the storage fault that ended the run, if one did.
struct NodeState<'a> {
    driver: Driver<FileBackend>,
    tcp: &'a TcpTransport<WireMsg>,
    /// One-shot timers on the wall clock (µs since boot).
    timers: TimingWheel<u64>,
    now: u64,
    fatal: Option<String>,
}

impl NodeState<'_> {
    /// Steps `event` at `now` and routes what it produced.
    fn handle(&mut self, event: Event<'_>, now: u64) {
        self.now = now;
        let out = self.driver.step(event, now);
        if let Err(fault) = route(out, self) {
            self.fatal.get_or_insert(fault.to_string());
        }
    }
}

impl Transport for NodeState<'_> {
    fn send(&mut self, to: ValidatorId, msg: ValidatorMessage) {
        self.tcp.send(to.0, &WireMsg::new(msg));
    }

    fn broadcast(&mut self, msg: ValidatorMessage) {
        self.tcp.broadcast(&WireMsg::new(msg));
    }

    fn set_timer(&mut self, delay_us: u64, token: u64) {
        self.timers.arm(SimTime(self.now.saturating_add(delay_us)), token);
    }
}

/// Runs a node to completion.
///
/// Returns when stdin closes (graceful shutdown) or the validator
/// fail-stops on a storage error.
///
/// # Errors
///
/// Returns a description of a boot failure (WAL, socket or the stdin
/// watcher's thread) or of the storage error that halted the validator.
pub fn run_node(cfg: &NodeConfig) -> Result<NodeReport, String> {
    cfg.validate()?;
    let backend =
        FileBackend::open(&cfg.wal).map_err(|e| format!("open WAL {}: {e}", cfg.wal.display()))?;
    let validator = Validator::new(
        cfg.committee(),
        ValidatorId(cfg.id),
        cfg.validator_config()?,
        Some(backend),
    );
    let tcp = TcpTransport::<WireMsg>::start(cfg.tcp_config()?)
        .map_err(|e| format!("bind {}: {e}", cfg.peers[cfg.id as usize]))?;

    let stop = Arc::new(AtomicBool::new(false));
    if let Err(e) = watch_stdin(stop.clone()) {
        tcp.shutdown();
        return Err(format!("spawn stdin watcher: {e}"));
    }

    let start = Instant::now();
    let now_us = || start.elapsed().as_micros() as u64;
    // The harness audits commits, and the schedule switches they carry,
    // from the WAL: the driver drops the records, keeping the run bounded.
    let driver = Driver::new(validator, None);
    let mut node = NodeState { driver, tcp: &tcp, timers: TimingWheel::new(), now: 0, fatal: None };
    node.handle(Event::Boot, now_us());
    let v = node.driver.validator();
    eprintln!(
        "hh-node {}: {} with {} recovered commits, listening on {}",
        cfg.id,
        if v.metrics().restarts > 0 { "restarted" } else { "started" },
        v.commit_count(),
        cfg.peers[cfg.id as usize],
    );

    let status_interval = cfg.status_interval_us()?;
    let mut next_status = status_interval;
    let committed_round =
        |v: &Validator<FileBackend>| -> u64 { v.last_anchor().map_or(0, |a| a.round.0) };

    while node.fatal.is_none() && !stop.load(Ordering::SeqCst) {
        let now = now_us();

        // Fire every due timer before blocking again.
        while let Some((_, token)) = node.timers.pop_if_at_most(SimTime(now)) {
            node.handle(Event::Timer(token), now);
        }

        if now >= next_status {
            next_status = now + status_interval;
            let v = node.driver.validator_mut();
            println!(
                "HH-STATUS id={} commits={} round={} cround={}",
                cfg.id,
                v.commit_count(),
                v.current_round().0,
                committed_round(v),
            );
            let _ = std::io::stdout().flush();
            // Keep the in-memory run bounded: nothing here reads latencies.
            v.take_exec_records();
        }

        // Sleep until the next timer, status tick, or inbound frame.
        let next_deadline = node.timers.peek_at().map_or(next_status, |at| at.0.min(next_status));
        let wait = Duration::from_micros(next_deadline.saturating_sub(now).clamp(100, 20_000));
        match tcp.events().recv_timeout(wait) {
            Ok(first) => {
                // Drain a burst without re-checking timers per frame.
                drain_burst(first, tcp.events(), |ev| {
                    // Connected / Disconnected are transport-level noise.
                    if let TcpEvent::Message { from, msg } = ev {
                        node.handle(Event::Message(ValidatorId(from), &msg.0), now_us());
                    }
                    node.fatal.is_none()
                });
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                node.fatal = Some("transport event channel closed".into());
            }
        }
    }

    // Graceful close: final checkpoint + fsync, then report.
    node.handle(Event::Shutdown, now_us());
    let v = node.driver.validator();
    let report = NodeReport {
        id: cfg.id,
        commits: v.commit_count(),
        committed_round: committed_round(v),
        clean: node.fatal.is_none(),
    };
    println!(
        "HH-FINAL id={} commits={} cround={} clean={}",
        report.id, report.commits, report.committed_round, report.clean,
    );
    let _ = std::io::stdout().flush();
    let fatal = node.fatal;
    tcp.shutdown();

    match fatal {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

/// Parses one `HH-STATUS`/`HH-FINAL` key from a line the runtime printed
/// (`key=value`); the testnet harness uses this to watch child nodes.
pub fn parse_status_field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_drain_stops_at_the_bound_and_on_a_fatal_event() {
        let (tx, rx) = crossbeam::channel::unbounded();
        for i in 1..2 * MAX_BURST {
            tx.send(i).unwrap();
        }
        let mut seen = Vec::new();
        drain_burst(0, &rx, |i| {
            seen.push(i);
            true
        });
        assert_eq!(seen, (0..MAX_BURST).collect::<Vec<_>>());
        // The rest stays queued, in order, for the next wake-up; a
        // handler reporting a fail-stop ends the drain at once.
        seen.clear();
        drain_burst(rx.try_recv().unwrap(), &rx, |i| {
            seen.push(i);
            i < MAX_BURST + 2
        });
        assert_eq!(seen, [MAX_BURST, MAX_BURST + 1, MAX_BURST + 2]);
        assert_eq!(rx.try_recv(), Ok(MAX_BURST + 3));
        // A short queue is drained to the end.
        drop(tx);
        seen.clear();
        drain_burst(rx.try_recv().unwrap(), &rx, |i| {
            seen.push(i);
            true
        });
        assert_eq!(seen, (MAX_BURST + 4..2 * MAX_BURST).collect::<Vec<_>>());
    }

    #[test]
    fn timers_due_together_fire_in_arming_order() {
        // Due at one instant, in the wheel's ring or beyond its horizon,
        // timers fire in the order they were armed, as in the simulator:
        // a validator that arms its sync tick (token 2) and then a wake-up
        // (token 1) for the same deadline gets the tick first.
        let mut timers = TimingWheel::new();
        for (deadline, token) in
            [(500, 2), (500, 1), (300, 7), (500, 0), (900_000, 5), (900_000, 4)]
        {
            timers.arm(SimTime(deadline), token);
        }
        let mut fire = |now| {
            std::iter::from_fn(|| timers.pop_if_at_most(SimTime(now)).map(|(_, t)| t))
                .collect::<Vec<u64>>()
        };
        assert!(fire(299).is_empty());
        assert_eq!(fire(500), [7, 2, 1, 0]);
        assert_eq!(fire(u64::MAX), [5, 4]);
    }

    #[test]
    fn status_lines_parse() {
        let line = "HH-STATUS id=3 commits=41 round=88 cround=86";
        assert_eq!(parse_status_field(line, "id"), Some(3));
        assert_eq!(parse_status_field(line, "commits"), Some(41));
        assert_eq!(parse_status_field(line, "cround"), Some(86));
        assert_eq!(parse_status_field(line, "missing"), None);
        assert_eq!(parse_status_field("noise", "commits"), None);
    }
}
