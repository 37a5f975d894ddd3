//! A committee of real `hh-node` processes, driven strictly as a black
//! box: the benchmark writes each node's TOML config, spawns the release
//! binary, reads `HH-STATUS` / `HH-FINAL` lines from a per-node stdout
//! file, samples `/proc/<pid>`, and stops nodes by closing stdin.
//!
//! [`Fleet`] owns the children and kills every still-running one when
//! dropped, so no exit path — error, panic, timeout — leaks a process.

use crate::procstat;
use std::fs::File;
use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The `[validator]` table written to every node's config: the template
/// `hh-node` ships (`docs/node.md`). The WAL audit rebuilds the
/// validator's protocol configuration from these same values.
#[derive(Clone, Copy, Debug)]
pub struct Knobs {
    pub schedule: &'static str,
    pub min_round_delay_ms: u64,
    pub leader_timeout_ms: u64,
    pub sync_tick_ms: u64,
    pub status_interval_ms: u64,
    pub exec_rate_tps: u64,
}

/// The shipped loopback-testnet knobs.
pub const TEMPLATE: Knobs = Knobs {
    schedule: "hammerhead",
    min_round_delay_ms: 40,
    leader_timeout_ms: 400,
    sync_tick_ms: 200,
    status_interval_ms: 250,
    exec_rate_tps: 100_000,
};

/// One `HH-STATUS` line and when the benchmark saw it.
#[derive(Clone, Copy, Debug)]
pub struct Status {
    pub seen: Instant,
    pub commits: u64,
    pub round: u64,
    pub cround: u64,
}

/// The `HH-FINAL` line of a stopped node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Final {
    pub commits: u64,
    pub cround: u64,
    pub clean: bool,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|kv| kv.1)
}

fn parse_status(line: &str, seen: Instant) -> Option<Status> {
    line.strip_prefix("HH-STATUS ")?;
    Some(Status {
        seen,
        commits: field(line, "commits")?.parse().ok()?,
        round: field(line, "round")?.parse().ok()?,
        cround: field(line, "cround")?.parse().ok()?,
    })
}

fn parse_final(line: &str) -> Option<Final> {
    line.strip_prefix("HH-FINAL ")?;
    Some(Final {
        commits: field(line, "commits")?.parse().ok()?,
        cround: field(line, "cround")?.parse().ok()?,
        clean: field(line, "clean")?.parse().ok()?,
    })
}

/// One committee member.
pub struct Node {
    child: Option<Child>,
    config: PathBuf,
    stdout: PathBuf,
    /// Read handle on the stdout file; its cursor is what was read so far.
    reader: File,
    /// The node's write-ahead log.
    pub wal: PathBuf,
    /// Where the node listens.
    pub addr: SocketAddr,
    partial: String,
    /// Every status line seen so far, oldest first.
    pub statuses: Vec<Status>,
    /// The final line, once the node has printed it.
    pub final_line: Option<Final>,
}

impl Node {
    /// Pid of the running process, if it is running.
    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Latest status, if any.
    pub fn last_status(&self) -> Option<&Status> {
        self.statuses.last()
    }

    /// Reads whatever the node has printed since the last call.
    fn read_stdout(&mut self) -> Result<(), String> {
        self.reader.read_to_string(&mut self.partial).map_err(|e| format!("read stdout: {e}"))?;
        let seen = Instant::now();
        while let Some(end) = self.partial.find('\n') {
            let line: String = self.partial.drain(..=end).collect();
            if let Some(status) = parse_status(line.trim_end(), seen) {
                self.statuses.push(status);
            } else if let Some(fin) = parse_final(line.trim_end()) {
                self.final_line = Some(fin);
            }
        }
        Ok(())
    }
}

/// A running committee. Dropping it SIGKILLs and reaps every child.
pub struct Fleet {
    binary: PathBuf,
    /// The members, indexed by validator id.
    pub nodes: Vec<Node>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            if let Some(mut child) = node.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Asks the OS for `n` free loopback ports, holding every listener open
/// until all are assigned so no port is handed out twice.
fn free_ports(n: usize) -> Result<Vec<u16>, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probing for a port: {e}")))
        .collect::<Result<_, _>>()?;
    listeners.iter().map(|l| l.local_addr().map(|a| a.port()).map_err(|e| e.to_string())).collect()
}

fn spawn(binary: &Path, config: &Path, stdout: &Path, append: bool) -> Result<Child, String> {
    let open = |path: &Path| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .truncate(false)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))
    };
    if !append {
        let _ = std::fs::remove_file(stdout);
    }
    Command::new(binary)
        .arg("--config")
        .arg(config)
        .stdin(Stdio::piped())
        .stdout(open(stdout)?)
        .stderr(open(&stdout.with_extension("err"))?)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", binary.display()))
}

impl Fleet {
    /// Writes configs for an `n`-member committee into `dir` (created
    /// fresh) and spawns it on OS-assigned loopback ports.
    ///
    /// # Errors
    ///
    /// Returns a description of the first I/O or spawn failure; children
    /// already spawned are killed.
    pub fn spawn(binary: &Path, dir: &Path, n: usize, knobs: Knobs) -> Result<Fleet, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let ports = free_ports(n)?;
        let peers =
            ports.iter().map(|p| format!("\"127.0.0.1:{p}\"")).collect::<Vec<_>>().join(", ");
        let mut fleet = Fleet { binary: binary.to_path_buf(), nodes: Vec::new() };
        for (i, port) in ports.iter().enumerate() {
            let wal = dir.join(format!("wal-{i}.log"));
            let config = dir.join(format!("node-{i}.toml"));
            let stdout = dir.join(format!("node-{i}.out"));
            let toml = format!(
                "[node]\nid = {i}\nwal = {:?}\n\n[committee]\npeers = [{peers}]\n\n\
                 [validator]\nschedule = {:?}\nmin_round_delay_ms = {}\nleader_timeout_ms = {}\n\
                 sync_tick_ms = {}\nstatus_interval_ms = {}\nexec_rate_tps = {}\n",
                wal.display().to_string(),
                knobs.schedule,
                knobs.min_round_delay_ms,
                knobs.leader_timeout_ms,
                knobs.sync_tick_ms,
                knobs.status_interval_ms,
                knobs.exec_rate_tps,
            );
            std::fs::write(&config, toml).map_err(|e| format!("write config: {e}"))?;
            let child = spawn(binary, &config, &stdout, false)?;
            let reader =
                File::open(&stdout).map_err(|e| format!("open {}: {e}", stdout.display()))?;
            fleet.nodes.push(Node {
                child: Some(child),
                config,
                stdout,
                reader,
                wal,
                addr: SocketAddr::from(([127, 0, 0, 1], *port)),
                partial: String::new(),
                statuses: Vec::new(),
                final_line: None,
            });
        }
        Ok(fleet)
    }

    /// Collects fresh status lines and checks that no node died.
    ///
    /// # Errors
    ///
    /// Returns which node exited on its own, with its exit status.
    pub fn poll(&mut self) -> Result<(), String> {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.read_stdout()?;
            if let Some(child) = &mut node.child {
                if let Ok(Some(status)) = child.try_wait() {
                    node.child = None;
                    return Err(format!(
                        "node {i} died unexpectedly ({status}); see {}",
                        node.stdout.with_extension("err").display()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Polls until every running node reports `round >= round`.
    ///
    /// # Errors
    ///
    /// Returns a timeout or an unexpected node death.
    pub fn wait_for_round(&mut self, round: u64, deadline: Instant) -> Result<(), String> {
        loop {
            self.poll()?;
            let ready = self
                .nodes
                .iter()
                .filter(|n| n.child.is_some())
                .all(|n| n.last_status().is_some_and(|s| s.round >= round));
            if ready {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!("committee did not reach round {round} in time"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Summed CPU seconds `(user, system)` of the running nodes.
    pub fn cpu_seconds(&self) -> (f64, f64) {
        self.nodes
            .iter()
            .filter_map(|n| procstat::cpu_split_seconds(&n.pid()?.to_string()))
            .fold((0.0, 0.0), |sum, cpu| (sum.0 + cpu.0, sum.1 + cpu.1))
    }

    /// Peak resident set of a node, MB: the mean over the running nodes.
    pub fn peak_rss_mb(&self) -> f64 {
        let peaks: Vec<f64> = self
            .nodes
            .iter()
            .filter_map(|n| procstat::peak_rss_mb(&n.pid()?.to_string()))
            .collect();
        peaks.iter().sum::<f64>() / (peaks.len() as f64).max(1.0)
    }

    /// SIGKILLs node `i`: no goodbye, no flush.
    pub fn kill(&mut self, i: usize) {
        if let Some(mut child) = self.nodes[i].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Restarts node `i` on its surviving WAL, same config, same port.
    ///
    /// # Errors
    ///
    /// Returns the spawn failure.
    pub fn respawn(&mut self, i: usize) -> Result<(), String> {
        let node = &mut self.nodes[i];
        node.child = Some(spawn(&self.binary, &node.config, &node.stdout, true)?);
        Ok(())
    }

    /// Closes every node's stdin (the graceful-shutdown signal), waits up
    /// to `grace` for exit 0, and reads the final lines. Nodes that
    /// overstay are killed.
    ///
    /// # Errors
    ///
    /// Returns every node that did not exit 0 in time.
    pub fn stop(&mut self, grace: Duration) -> Result<(), String> {
        for node in &mut self.nodes {
            if let Some(child) = &mut node.child {
                drop(child.stdin.take()); // EOF is the shutdown signal.
            }
        }
        let deadline = Instant::now() + grace;
        let mut problems = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let Some(mut child) = node.child.take() else { continue };
            loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => {
                        problems.push(format!("node {i} exited with {status}"));
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Ok(None) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        problems.push(format!("node {i} ignored the shutdown signal"));
                        break;
                    }
                    Err(e) => {
                        problems.push(format!("node {i}: wait failed: {e}"));
                        break;
                    }
                }
            }
            node.read_stdout()?;
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_final_lines_parse() {
        let now = Instant::now();
        let s = parse_status("HH-STATUS id=3 commits=41 round=88 cround=86", now).expect("status");
        assert_eq!((s.commits, s.round, s.cround), (41, 88, 86));
        assert!(parse_status("HH-FINAL id=3 commits=41 cround=86 clean=true", now).is_none());
        assert!(parse_status("HH-STATUS id=3 commits=x round=1 cround=1", now).is_none());

        let f = parse_final("HH-FINAL id=0 commits=67 cround=158 clean=true").expect("final");
        assert_eq!(f, Final { commits: 67, cround: 158, clean: true });
        assert!(!parse_final("HH-FINAL id=0 commits=67 cround=158 clean=false").unwrap().clean);
        assert!(parse_final("hh-node 0: started").is_none());
    }
}
