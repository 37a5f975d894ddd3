//! The local-testnet harness: a committee of real `hh-node` OS
//! processes on loopback, driven by workload clients, crash-tested with
//! SIGKILL, and audited with the safety checker.
//!
//! One [`run_testnet`] call is a full experiment:
//!
//! 1. generate per-node TOML configs (fresh scratch dir, free loopback
//!    ports),
//! 2. spawn the committee as child processes of the real `hh-node`
//!    binary,
//! 3. drive load through per-node TCP clients, each paced at an equal
//!    share of the offered rate,
//! 4. optionally SIGKILL one node mid-run and restart it against its
//!    surviving WAL,
//! 5. stop everyone gracefully (close stdin), and
//! 6. **audit from disk**: replay every node's WAL through a fresh
//!    [`Validator`] and feed the recomputed commit sequences to the
//!    [`SafetyChecker`] — the committed prefixes of independent OS
//!    processes must agree, including across the victim's crash.
//!
//! The audit replays a *copy* of each WAL: `Validator::on_restart`
//! appends a fresh proposal after recovery, and the audit must not
//! grow the artifact it is auditing.

use crate::config::NodeConfig;
use crate::runtime::parse_status_field;
use crate::wire::WireMsg;
use hammerhead::{SafetyChecker, Validator, ValidatorMessage};
use hh_net::tcp::{write_frame, write_handshake, WireCodec};
use hh_storage::FileBackend;
use hh_types::{Transaction, ValidatorId};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Crash plan: SIGKILL `victim` at `at`, restart it `restart_after`
/// later against its surviving WAL.
#[derive(Clone, Debug)]
pub struct KillPlan {
    /// Which node to kill (validator id).
    pub victim: u16,
    /// When to kill it, measured from testnet start.
    pub at: Duration,
    /// How long to leave it dead.
    pub restart_after: Duration,
}

/// Parameters of a testnet run.
#[derive(Clone, Debug)]
pub struct TestnetOpts {
    /// Committee size (4..=20).
    pub nodes: u16,
    /// How long to drive load before the graceful stop.
    pub duration: Duration,
    /// Total offered load across all clients (tx/s).
    pub tps: f64,
    /// First listener port; node `i` binds `base_port + i`. `0` asks the
    /// OS for free ports instead.
    pub base_port: u16,
    /// Leader schedule (`"hammerhead"` or `"round-robin"`).
    pub schedule: String,
    /// Optional kill-and-restart crash test.
    pub kill: Option<KillPlan>,
    /// Gate: every node must commit at least this many sub-DAGs.
    pub min_commits: u64,
    /// Gate: the committee's newest committed anchor must reach this round.
    pub min_committed_round: u64,
    /// Scratch directory (configs + WALs). Defaults to a fresh directory
    /// under the system temp dir.
    pub dir: Option<PathBuf>,
    /// Path of the `hh-node` binary. Defaults to [`locate_node_binary`].
    pub node_binary: Option<PathBuf>,
    /// Keep the scratch directory after a passing run (it is always kept
    /// after a failing one, so the WALs can be inspected).
    pub keep_dir: bool,
}

impl TestnetOpts {
    /// Defaults for an `n`-node run: 10 s, 200 tx/s, hammerhead
    /// schedule, OS-assigned ports, no crash test, gates of 10 commits
    /// per node and committed round 20.
    pub fn new(nodes: u16) -> Self {
        TestnetOpts {
            nodes,
            duration: Duration::from_secs(10),
            tps: 200.0,
            base_port: 0,
            schedule: "hammerhead".into(),
            kill: None,
            min_commits: 10,
            min_committed_round: 20,
            dir: None,
            node_binary: None,
            keep_dir: false,
        }
    }
}

/// What happened to the crash-test victim.
#[derive(Clone, Debug)]
pub struct VictimReport {
    /// The killed node's id.
    pub id: u16,
    /// Commits it had reported just before the SIGKILL.
    pub commits_at_kill: u64,
    /// Commits recovered from its WAL at the end of the run. Strictly
    /// more than `commits_at_kill` proves it replayed its log *and*
    /// caught back up with the committee after the restart.
    pub commits_final: u64,
}

/// Everything a testnet run produced.
#[derive(Clone, Debug)]
pub struct TestnetReport {
    /// Committee size.
    pub nodes: u16,
    /// Per-node commit counts, recomputed from each node's WAL.
    pub commits: Vec<u64>,
    /// Per-node round of the newest committed anchor.
    pub committed_rounds: Vec<u64>,
    /// Safety violations across all nodes' committed prefixes.
    pub safety_violations: usize,
    /// Crash-test outcome, if a [`KillPlan`] was set.
    pub victim: Option<VictimReport>,
    /// Whether every node exited 0 after a stdin-close shutdown.
    pub clean_shutdown: bool,
    /// Every violated gate; empty means the run passed.
    pub failures: Vec<String>,
}

impl TestnetReport {
    /// Whether every gate held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the report as JSON (the `hh-node testnet` output format).
    pub fn to_json(&self) -> String {
        let list = |v: &[u64]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ");
        let victim = match &self.victim {
            Some(v) => format!(
                "{{ \"id\": {}, \"commits_at_kill\": {}, \"commits_final\": {} }}",
                v.id, v.commits_at_kill, v.commits_final
            ),
            None => "null".into(),
        };
        let failures =
            self.failures.iter().map(|f| format!("{f:?}")).collect::<Vec<_>>().join(", ");
        format!(
            "{{\n  \"nodes\": {},\n  \"commits\": [{}],\n  \"committed_rounds\": [{}],\n  \
             \"safety_violations\": {},\n  \"victim\": {},\n  \"clean_shutdown\": {},\n  \
             \"passed\": {},\n  \"failures\": [{}]\n}}",
            self.nodes,
            list(&self.commits),
            list(&self.committed_rounds),
            self.safety_violations,
            victim,
            self.clean_shutdown,
            self.passed(),
            failures,
        )
    }
}

/// Live progress of one child node, fed by its stdout-watcher thread.
#[derive(Default)]
struct Progress {
    commits: AtomicU64,
    committed_round: AtomicU64,
}

/// A spawned node child whose stdout is being watched.
struct NodeProc {
    child: Child,
    progress: Arc<Progress>,
}

/// The running committee. Owns the children; kills every still-running
/// one when dropped, so an early-erroring harness never leaks orphans.
struct Fleet(Vec<Option<NodeProc>>);

impl Drop for Fleet {
    fn drop(&mut self) {
        for slot in &mut self.0 {
            if let Some(mut proc_) = slot.take() {
                let _ = proc_.child.kill();
                let _ = proc_.child.wait();
            }
        }
    }
}

/// Finds the `hh-node` binary: `$HH_NODE_BIN`, then next to the current
/// executable (test binaries live in `target/<profile>/deps`, so the
/// parent directory is probed too), then a `cargo build -p hh-node`
/// from the workspace this crate was compiled in.
///
/// # Errors
///
/// Returns a description of every probed location if none works.
pub fn locate_node_binary() -> Result<PathBuf, String> {
    if let Ok(p) = std::env::var("HH_NODE_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(format!("HH_NODE_BIN={} does not exist", p.display()));
    }
    let mut probed = Vec::new();
    if let Ok(exe) = std::env::current_exe() {
        if exe.file_stem().is_some_and(|s| s == "hh-node") {
            return Ok(exe);
        }
        let candidates = [
            exe.parent().map(|d| d.join("hh-node")),
            exe.parent().and_then(Path::parent).map(|d| d.join("hh-node")),
        ];
        for c in candidates.into_iter().flatten() {
            if c.is_file() {
                return Ok(c);
            }
            probed.push(c);
        }
    }
    // Last resort: build it. CARGO_MANIFEST_DIR is baked in at compile
    // time and points at crates/node inside this workspace.
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(&cargo)
        .args(["build", "-p", "hh-node", "--bin", "hh-node"])
        .current_dir(&workspace)
        .status()
        .map_err(|e| format!("running {cargo} build: {e}"))?;
    if !status.success() {
        return Err("cargo build -p hh-node failed".into());
    }
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| workspace.join("target"));
    let built = target.join("debug/hh-node");
    if built.is_file() {
        return Ok(built);
    }
    probed.push(built);
    Err(format!(
        "cannot locate hh-node binary; probed: {}",
        probed.iter().map(|p| p.display().to_string()).collect::<Vec<_>>().join(", ")
    ))
}

fn pick_ports(opts: &TestnetOpts) -> Result<Vec<u16>, String> {
    if opts.base_port != 0 {
        return Ok((0..opts.nodes).map(|i| opts.base_port + i).collect());
    }
    // Ask the OS: hold all listeners open until every port is assigned
    // so the same port is never handed out twice.
    let mut listeners = Vec::new();
    for _ in 0..opts.nodes {
        let l = std::net::TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("probing for a free port: {e}"))?;
        listeners.push(l);
    }
    listeners.iter().map(|l| l.local_addr().map(|a| a.port()).map_err(|e| e.to_string())).collect()
}

fn spawn_node(binary: &Path, config_path: &Path) -> Result<NodeProc, String> {
    let mut child = Command::new(binary)
        .arg("--config")
        .arg(config_path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
    let stdout = child.stdout.take().ok_or("child stdout not captured")?;
    let progress = Arc::new(Progress::default());
    let watcher = progress.clone();
    std::thread::Builder::new()
        .name("hh-testnet-watch".into())
        .spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(c) = parse_status_field(&line, "commits") {
                    watcher.commits.store(c, Ordering::SeqCst);
                }
                if let Some(r) = parse_status_field(&line, "cround") {
                    watcher.committed_round.store(r, Ordering::SeqCst);
                }
            }
        })
        .map_err(|e| format!("spawn watcher: {e}"))?;
    Ok(NodeProc { child, progress })
}

/// One load client: connects to its node, submits transactions at a
/// constant `tps`, drains confirmations, reconnects if the node goes away
/// (it will, in a crash test).
fn client_loop(addr: String, client_id: u16, tps: f64, stop: Arc<AtomicBool>) {
    let interval = if tps > 0.0 {
        Duration::from_secs_f64(1.0 / tps).min(Duration::from_millis(100))
    } else {
        Duration::from_millis(20)
    };
    let start = Instant::now();
    let mut seq: u64 = 0;
    'reconnect: while !stop.load(Ordering::SeqCst) {
        let Ok(mut stream) = TcpStream::connect(&addr) else {
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        let _ = stream.set_nodelay(true);
        if write_handshake(&mut stream, client_id).is_err() {
            continue;
        }
        // Drain confirmations on a companion reader so the node's reply
        // writer never backs up against an unread socket.
        if let Ok(mut rd) = stream.try_clone() {
            std::thread::Builder::new()
                .name("hh-client-drain".into())
                .spawn(move || {
                    let mut buf = [0u8; 4096];
                    while matches!(rd.read(&mut buf), Ok(n) if n > 0) {}
                })
                .ok();
        }
        while !stop.load(Ordering::SeqCst) {
            let now_us = start.elapsed().as_micros() as u64;
            let tx = Transaction::new(client_id as u32, seq, now_us);
            let frame = WireMsg::new(ValidatorMessage::Submit(tx)).encode_frame();
            if write_frame(&mut stream, &frame).is_err() {
                continue 'reconnect; // Node died; retry against its restart.
            }
            seq += 1;
            std::thread::sleep(interval);
        }
        return;
    }
}

/// Closes a child's stdin (the graceful-shutdown signal) and waits up
/// to `grace` for exit 0.
fn stop_gracefully(child: &mut Child, grace: Duration) -> Result<(), String> {
    if let Some(mut stdin) = child.stdin.take() {
        let _ = stdin.write_all(b"shutdown\n");
        // Dropping stdin closes the pipe: EOF is the shutdown signal
        // even if the line above was never read.
    }
    let deadline = Instant::now() + grace;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("exited with {status}"))
                };
            }
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("did not exit within the grace period".into());
            }
            Err(e) => return Err(format!("wait failed: {e}")),
        }
    }
}

/// Replays a copy of one node's WAL through a fresh validator and
/// returns its recomputed commit history.
fn audit_node(cfg: &NodeConfig) -> Result<(u64, u64, Vec<hammerhead::CommitRecord>), String> {
    let copy = cfg.wal.with_extension("audit");
    std::fs::copy(&cfg.wal, &copy)
        .map_err(|e| format!("copying WAL {}: {e}", cfg.wal.display()))?;
    let backend = FileBackend::open(&copy).map_err(|e| format!("open audit WAL: {e}"))?;
    let mut v = Validator::new(
        cfg.committee(),
        ValidatorId(cfg.id),
        cfg.validator_config()?,
        Some(backend),
    );
    v.on_restart(0);
    let records = v.take_commit_records();
    let round = v.committed_anchors().last().map_or(0, |a| a.round.0);
    Ok((v.commit_count(), round, records))
}

/// Runs a full local testnet. See the module docs for the phases.
///
/// # Errors
///
/// Returns a description of a *setup* failure (bad options, unusable
/// scratch dir, missing binary, spawn failure). Gate violations are not
/// errors: they come back in [`TestnetReport::failures`] so the caller
/// can still see how far the run got.
pub fn run_testnet(opts: &TestnetOpts) -> Result<TestnetReport, String> {
    if !(4..=20).contains(&opts.nodes) {
        return Err(format!("nodes must be in 4..=20, got {}", opts.nodes));
    }
    if let Some(kill) = &opts.kill {
        if kill.victim >= opts.nodes {
            return Err(format!("kill victim {} out of range", kill.victim));
        }
        if kill.at + kill.restart_after >= opts.duration {
            return Err("kill plan must complete before the run ends".into());
        }
    }

    let dir = match &opts.dir {
        Some(d) => d.clone(),
        None => {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            std::env::temp_dir().join(format!(
                "hh-testnet-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::SeqCst)
            ))
        }
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;

    let binary = match &opts.node_binary {
        Some(b) => b.clone(),
        None => locate_node_binary()?,
    };
    let ports = pick_ports(opts)?;
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();

    // Per-node configs, written once and reused verbatim by a restart.
    let mut configs = Vec::new();
    let mut config_paths = Vec::new();
    for i in 0..opts.nodes {
        let mut cfg = NodeConfig::template(i);
        cfg.peers = peers.clone();
        cfg.wal = dir.join(format!("wal-{i}.log"));
        cfg.schedule = opts.schedule.clone();
        cfg.validate()?;
        let path = dir.join(format!("node-{i}.toml"));
        std::fs::write(&path, cfg.to_toml()).map_err(|e| format!("write config: {e}"))?;
        configs.push(cfg);
        config_paths.push(path);
    }

    let mut fleet = Fleet(Vec::new());
    for path in &config_paths {
        let proc_ = spawn_node(&binary, path)?;
        fleet.0.push(Some(proc_));
    }
    let procs = &mut fleet.0;

    // Load clients: client k drives node k at an equal share of the
    // offered load; ids start past the committee's so the transport
    // routes replies, never consensus.
    let stop = Arc::new(AtomicBool::new(false));
    let rate = opts.tps / opts.nodes as f64;
    let mut client_threads = Vec::new();
    for (k, addr) in peers.iter().cloned().enumerate() {
        let id = opts.nodes + k as u16;
        let stop = stop.clone();
        client_threads.push(
            std::thread::Builder::new()
                .name(format!("hh-client-{k}"))
                .spawn(move || client_loop(addr, id, rate, stop))
                .map_err(|e| format!("spawn client: {e}"))?,
        );
    }

    // Timeline: watch for unexpected deaths, execute the kill plan.
    let started = Instant::now();
    let mut failures = Vec::new();
    let mut victim: Option<VictimReport> = None;
    let mut killed_at: Option<Duration> = None;
    while started.elapsed() < opts.duration {
        std::thread::sleep(Duration::from_millis(50));
        if let Some(kill) = &opts.kill {
            let idx = kill.victim as usize;
            if killed_at.is_none() && started.elapsed() >= kill.at {
                if let Some(proc_) = &mut procs[idx] {
                    let commits_at_kill = proc_.progress.commits.load(Ordering::SeqCst);
                    let _ = proc_.child.kill(); // SIGKILL: no goodbye, no flush.
                    let _ = proc_.child.wait();
                    procs[idx] = None;
                    killed_at = Some(started.elapsed());
                    victim =
                        Some(VictimReport { id: kill.victim, commits_at_kill, commits_final: 0 });
                }
            }
            if let Some(t) = killed_at {
                if procs[idx].is_none() && started.elapsed() >= t + kill.restart_after {
                    procs[idx] = Some(spawn_node(&binary, &config_paths[idx])?);
                }
            }
        }
        for (i, slot) in procs.iter_mut().enumerate() {
            if let Some(proc_) = slot {
                if let Ok(Some(status)) = proc_.child.try_wait() {
                    failures.push(format!("node {i} died unexpectedly ({status})"));
                    *slot = None;
                }
            }
        }
    }

    // Graceful stop: clients first, then stdin-close every node.
    stop.store(true, Ordering::SeqCst);
    for t in client_threads {
        let _ = t.join();
    }
    let mut clean_shutdown = true;
    for (i, slot) in procs.iter_mut().enumerate() {
        match slot.take() {
            Some(mut proc_) => {
                if let Err(e) = stop_gracefully(&mut proc_.child, Duration::from_secs(10)) {
                    clean_shutdown = false;
                    failures.push(format!("node {i} unclean shutdown: {e}"));
                }
            }
            // A missing node here already produced an "unexpected death"
            // failure in the timeline loop (the victim is respawned, so
            // its slot is only empty if the restart itself failed).
            None => clean_shutdown = false,
        }
    }
    drop(fleet);

    // Audit every WAL from disk; cross-check with the safety checker.
    let mut checker = SafetyChecker::new();
    let mut commits = Vec::new();
    let mut committed_rounds = Vec::new();
    for cfg in &configs {
        match audit_node(cfg) {
            Ok((count, round, records)) => {
                checker.observe_all(cfg.id, &records);
                commits.push(count);
                committed_rounds.push(round);
                if count < opts.min_commits {
                    failures
                        .push(format!("node {} committed {count} < {}", cfg.id, opts.min_commits));
                }
                if let Some(v) = &mut victim {
                    if v.id == cfg.id {
                        v.commits_final = count;
                    }
                }
            }
            Err(e) => {
                commits.push(0);
                committed_rounds.push(0);
                failures.push(format!("node {} audit failed: {e}", cfg.id));
            }
        }
    }
    let best_round = committed_rounds.iter().copied().max().unwrap_or(0);
    if best_round < opts.min_committed_round {
        failures.push(format!(
            "committee reached committed round {best_round} < {}",
            opts.min_committed_round
        ));
    }
    if !checker.is_clean() {
        failures.push(format!("safety checker found {} violation(s)", checker.violations().len()));
    }
    if let Some(v) = &victim {
        if v.commits_final <= v.commits_at_kill {
            failures.push(format!(
                "victim {} did not catch up: {} commits at kill, {} after restart",
                v.id, v.commits_at_kill, v.commits_final
            ));
        }
    }

    let report = TestnetReport {
        nodes: opts.nodes,
        commits,
        committed_rounds,
        safety_violations: checker.violations().len(),
        victim,
        clean_shutdown,
        failures,
    };
    if report.passed() && !opts.keep_dir && opts.dir.is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    } else if !report.passed() {
        eprintln!("testnet artifacts kept at {}", dir.display());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_validation() {
        let small = TestnetOpts::new(3);
        assert!(run_testnet(&small).is_err());
        let mut bad_kill = TestnetOpts::new(4);
        bad_kill.kill = Some(KillPlan {
            victim: 9,
            at: Duration::from_secs(1),
            restart_after: Duration::from_secs(1),
        });
        assert!(run_testnet(&bad_kill).is_err());
        let mut late_kill = TestnetOpts::new(4);
        late_kill.kill = Some(KillPlan {
            victim: 0,
            at: Duration::from_secs(9),
            restart_after: Duration::from_secs(5),
        });
        assert!(run_testnet(&late_kill).is_err());
    }

    #[test]
    fn report_json_shape() {
        let report = TestnetReport {
            nodes: 4,
            commits: vec![12, 11, 13, 12],
            committed_rounds: vec![30, 30, 31, 30],
            safety_violations: 0,
            victim: Some(VictimReport { id: 2, commits_at_kill: 5, commits_final: 13 }),
            clean_shutdown: true,
            failures: vec![],
        };
        let json = report.to_json();
        assert!(json.contains("\"safety_violations\": 0"));
        assert!(json.contains("\"commits_at_kill\": 5"));
        assert!(json.contains("\"passed\": true"));
        assert!(report.passed());
    }
}
