//! The node runtime: one OS process driving one [`Validator`] over real
//! sockets.
//!
//! The event loop is the operational twin of the simulator's
//! [`hh_net::sim`] runtime: the validator is the same pure state machine
//! returning [`Output`] effects, but here "now" is a monotonic wall
//! clock, timers live in a local heap, and sends go through
//! [`hh_net::tcp::TcpTransport`] instead of a latency model.
//!
//! # Lifecycle
//!
//! * **Boot** — open the WAL file; a non-empty log means this is a
//!   restart, so boot through [`Validator::on_restart`] (WAL replay +
//!   RBC re-announce for range-sync) instead of
//!   [`Validator::on_start`].
//! * **Run** — deliver frames, fire timers, and print an `HH-STATUS`
//!   line every `status_interval_ms` so a harness can watch progress
//!   without any extra protocol.
//! * **Shutdown** — the node owns no signal handlers (pure std): its
//!   control channel is **stdin**. A `shutdown` line or EOF triggers a
//!   graceful exit: [`Validator::on_shutdown`] writes a final
//!   checkpoint and fsyncs the WAL, an `HH-FINAL` line reports the
//!   closing state, and the process exits 0. A SIGKILL simply never
//!   reaches any of this — which is exactly what the crash-recovery
//!   test wants.

use crate::config::NodeConfig;
use crate::wire::WireMsg;
use crossbeam::channel::Receiver;
use hammerhead::{Output, Validator};
use hh_net::tcp::{TcpEvent, TcpTransport};
use hh_storage::FileBackend;
use hh_types::ValidatorId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
    let resumed = !hh_storage::LogBackend::is_empty(&backend);

    let mut validator = Validator::new(
        cfg.committee(),
        ValidatorId(cfg.id),
        cfg.validator_config()?,
        Some(backend),
    );
    let transport = TcpTransport::<WireMsg>::start(cfg.tcp_config()?)
        .map_err(|e| format!("bind {}: {e}", cfg.peers[cfg.id as usize]))?;

    let stop = Arc::new(AtomicBool::new(false));
    if let Err(e) = watch_stdin(stop.clone()) {
        transport.shutdown();
        return Err(format!("spawn stdin watcher: {e}"));
    }

    let start = Instant::now();
    let now_us = |start: &Instant| start.elapsed().as_micros() as u64;
    // One-shot timers: (deadline_us, token), earliest first.
    let mut timers: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut fatal: Option<String> = None;

    let dispatch = |outputs: Vec<Output>,
                    now: u64,
                    timers: &mut BinaryHeap<Reverse<(u64, u64)>>,
                    fatal: &mut Option<String>| {
        for out in outputs {
            match out {
                Output::Send(to, msg) => transport.send(to.0, &WireMsg::new(msg)),
                Output::Broadcast(msg) => transport.broadcast(&WireMsg::new(msg)),
                Output::SetTimer { delay_us, token } => {
                    timers.push(Reverse((now.saturating_add(delay_us), token)));
                }
                Output::StorageError { context, detail } => {
                    *fatal = Some(format!("storage error ({context}): {detail}"));
                }
            }
        }
    };

    let boot_now = now_us(&start);
    let boot = if resumed { validator.on_restart(boot_now) } else { validator.on_start(boot_now) };
    dispatch(boot, boot_now, &mut timers, &mut fatal);
    eprintln!(
        "hh-node {}: {} with {} recovered commits, listening on {}",
        cfg.id,
        if resumed { "restarted" } else { "started" },
        validator.commit_count(),
        cfg.peers[cfg.id as usize],
    );

    let status_interval = cfg.status_interval_us()?;
    let mut next_status = status_interval;
    let committed_round = |v: &Validator<FileBackend>| -> u64 {
        v.committed_anchors().last().map_or(0, |a| a.round.0)
    };

    while fatal.is_none() && !stop.load(Ordering::SeqCst) {
        let now = now_us(&start);

        // Fire every due timer before blocking again.
        while let Some(&Reverse((deadline, token))) = timers.peek() {
            if deadline > now {
                break;
            }
            timers.pop();
            let outs = validator.on_timer(token, now);
            dispatch(outs, now, &mut timers, &mut fatal);
        }

        if now >= next_status {
            next_status = now + status_interval;
            println!(
                "HH-STATUS id={} commits={} round={} cround={}",
                cfg.id,
                validator.commit_count(),
                validator.current_round().0,
                committed_round(&validator),
            );
            let _ = std::io::stdout().flush();
            // Keep the in-memory run bounded: the harness audits commits,
            // and the schedule switches they carry, from the WAL, not from
            // this process's memory.
            validator.take_commit_records();
            validator.take_exec_records();
        }

        // Sleep until the next timer, status tick, or inbound frame.
        let next_deadline =
            timers.peek().map_or(next_status, |&Reverse((d, _))| d.min(next_status));
        let wait = Duration::from_micros(next_deadline.saturating_sub(now).clamp(100, 20_000));
        match transport.events().recv_timeout(wait) {
            Ok(first) => {
                // Drain a burst without re-checking timers per frame.
                drain_burst(first, transport.events(), |ev| {
                    // Connected / Disconnected are transport-level noise.
                    if let TcpEvent::Message { from, msg } = ev {
                        let now = now_us(&start);
                        let outs = validator.on_message(ValidatorId(from), msg.0.as_ref(), now);
                        dispatch(outs, now, &mut timers, &mut fatal);
                    }
                    fatal.is_none()
                });
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                fatal = Some("transport event channel closed".into());
            }
        }
    }

    // Graceful close: final checkpoint + fsync, then report.
    let now = now_us(&start);
    let mut clean = fatal.is_none();
    for out in validator.on_shutdown(now) {
        if let Output::StorageError { context, detail } = out {
            clean = false;
            if fatal.is_none() {
                fatal = Some(format!("storage error ({context}): {detail}"));
            }
        }
    }
    let report = NodeReport {
        id: cfg.id,
        commits: validator.commit_count(),
        committed_round: committed_round(&validator),
        clean,
    };
    println!(
        "HH-FINAL id={} commits={} cround={} clean={}",
        report.id, report.commits, report.committed_round, report.clean,
    );
    let _ = std::io::stdout().flush();
    transport.shutdown();

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
    fn status_lines_parse() {
        let line = "HH-STATUS id=3 commits=41 round=88 cround=86";
        assert_eq!(parse_status_field(line, "id"), Some(3));
        assert_eq!(parse_status_field(line, "commits"), Some(41));
        assert_eq!(parse_status_field(line, "cround"), Some(86));
        assert_eq!(parse_status_field(line, "missing"), None);
        assert_eq!(parse_status_field("noise", "commits"), None);
    }
}
