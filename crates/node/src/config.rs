//! TOML node configuration: committee membership, peer addresses, WAL
//! path, and the protocol knobs every committee member must agree on.
//!
//! The format (see `docs/node.md` for the walkthrough):
//!
//! ```toml
//! [node]
//! id = 0
//! wal = "testnet/wal-0.log"
//!
//! [committee]
//! peers = ["127.0.0.1:7800", "127.0.0.1:7801", "127.0.0.1:7802", "127.0.0.1:7803"]
//!
//! [validator]
//! schedule = "hammerhead"
//! min_round_delay_ms = 40
//! leader_timeout_ms = 400
//! sync_tick_ms = 200
//! status_interval_ms = 500
//! exec_rate_tps = 100000
//! ```
//!
//! The committee is *derived*: `peers.len()` fixes its size and
//! `Committee::new_equal_stake` reconstructs the same deterministic
//! keypairs in every process, so a config needs no key material — only
//! who listens where. Every `[validator]` knob must be identical across
//! the committee (they parameterize consensus, not the local host).

use hammerhead::{HammerheadConfig, ScheduleConfig, ValidatorConfig};
use hh_net::tcp::TcpConfig;
use hh_types::toml::{self, Value};
use hh_types::Committee;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

/// Configuration of one `hh-node` process.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeConfig {
    /// This validator's id (index into `peers`).
    pub id: u16,
    /// Listener address of every committee member, indexed by validator id.
    pub peers: Vec<String>,
    /// Path of the write-ahead log file. A non-empty WAL at startup means
    /// the node is restarting: it recovers via `Validator::on_restart`.
    pub wal: PathBuf,
    /// Leader schedule: `"hammerhead"` or `"round-robin"`.
    pub schedule: String,
    /// Minimum spacing between own proposals (ms).
    pub min_round_delay_ms: u64,
    /// How long to wait for a candidate round's anchor before advancing (ms).
    pub leader_timeout_ms: u64,
    /// Broadcast-layer maintenance tick (ms): sync retries, re-broadcasts.
    pub sync_tick_ms: u64,
    /// How often the node prints an `HH-STATUS` line (ms).
    pub status_interval_ms: u64,
    /// Modeled execution drain rate (tx/s).
    pub exec_rate_tps: u64,
}

impl NodeConfig {
    /// A config with the loopback-testnet protocol knobs; `peers` and
    /// `wal` still to be filled in.
    pub fn template(id: u16) -> Self {
        NodeConfig {
            id,
            peers: Vec::new(),
            wal: PathBuf::new(),
            schedule: "hammerhead".into(),
            // Loopback latency is microseconds, so the round pace is set
            // entirely by this knob: 40 ms ≈ 25 rounds/s ≈ 12 commits/s.
            min_round_delay_ms: 40,
            leader_timeout_ms: 400,
            sync_tick_ms: 200,
            status_interval_ms: 250,
            exec_rate_tps: 100_000,
        }
    }

    /// Parses a config document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or semantic problem; a
    /// table or key the format does not have is one.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = toml::parse(text).map_err(|e| format!("config: {e}"))?;
        let root = root.as_table().ok_or("config: root is not a table")?;

        only_keys(root, &["node", "committee", "validator"], "the config root")?;
        let node = table(root, "node", &["id", "wal"])?;
        let committee = table(root, "committee", &["peers"])?;
        let validator = table(
            root,
            "validator",
            &[
                "schedule",
                "min_round_delay_ms",
                "leader_timeout_ms",
                "sync_tick_ms",
                "status_interval_ms",
                "exec_rate_tps",
            ],
        )?;

        let id = int(node, "id")?;
        let id = u16::try_from(id).map_err(|_| format!("config: node id {id} is not a u16"))?;
        let wal = PathBuf::from(string(node, "wal")?);
        let peers = string_array(committee, "peers")?;
        let config = NodeConfig {
            id,
            peers,
            wal,
            schedule: string(validator, "schedule")?,
            min_round_delay_ms: int(validator, "min_round_delay_ms")? as u64,
            leader_timeout_ms: int(validator, "leader_timeout_ms")? as u64,
            sync_tick_ms: int(validator, "sync_tick_ms")? as u64,
            status_interval_ms: int(validator, "status_interval_ms")? as u64,
            exec_rate_tps: int(validator, "exec_rate_tps")? as u64,
        };
        config.validate()?;
        Ok(config)
    }

    /// Reads and parses the config file at `path`.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O or parse failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Serializes back to the TOML format [`NodeConfig::parse`] accepts.
    pub fn to_toml(&self) -> String {
        let peers = self.peers.iter().map(|p| format!("{p:?}")).collect::<Vec<_>>().join(", ");
        format!(
            "[node]\nid = {}\nwal = {:?}\n\n[committee]\npeers = [{}]\n\n\
             [validator]\nschedule = {:?}\nmin_round_delay_ms = {}\n\
             leader_timeout_ms = {}\nsync_tick_ms = {}\nstatus_interval_ms = {}\n\
             exec_rate_tps = {}\n",
            self.id,
            self.wal.display().to_string(),
            peers,
            self.schedule,
            self.min_round_delay_ms,
            self.leader_timeout_ms,
            self.sync_tick_ms,
            self.status_interval_ms,
            self.exec_rate_tps,
        )
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.peers.len() < 4 {
            return Err(format!(
                "committee needs >= 4 peers (3f+1, f >= 1), got {}",
                self.peers.len()
            ));
        }
        if self.peers.len() > u16::MAX as usize {
            return Err("committee too large".into());
        }
        if self.id as usize >= self.peers.len() {
            return Err(format!("node id {} out of range for {} peers", self.id, self.peers.len()));
        }
        if self.wal.as_os_str().is_empty() {
            return Err("wal path is empty".into());
        }
        if self.min_round_delay_ms == 0 || self.min_round_delay_ms >= self.leader_timeout_ms {
            return Err("need 0 < min_round_delay_ms < leader_timeout_ms".into());
        }
        for (i, peer) in self.peers.iter().enumerate() {
            peer.parse::<SocketAddr>().map_err(|e| format!("peer {i} address {peer:?}: {e}"))?;
        }
        self.status_interval_us()?;
        self.validator_config().map(|_| ())
    }

    /// Committee size (= number of peers).
    pub fn committee_size(&self) -> u16 {
        self.peers.len() as u16
    }

    /// The committee every node reconstructs from the peer count.
    pub fn committee(&self) -> Committee {
        Committee::new_equal_stake(self.peers.len())
    }

    /// This node's listener address.
    ///
    /// # Errors
    ///
    /// Returns a description of an unparsable address.
    pub fn bind_addr(&self) -> Result<SocketAddr, String> {
        self.peers[self.id as usize].parse().map_err(|e| format!("bind address: {e}"))
    }

    /// The transport configuration (listener plus one outbound connection
    /// per other committee member).
    ///
    /// # Errors
    ///
    /// Returns a description of an unparsable peer address.
    pub fn tcp_config(&self) -> Result<TcpConfig, String> {
        let mut peers = Vec::new();
        for (i, peer) in self.peers.iter().enumerate() {
            let addr = peer.parse().map_err(|e| format!("peer {i} address: {e}"))?;
            peers.push((i as u16, addr));
        }
        Ok(TcpConfig::new(self.id, self.bind_addr()?, peers))
    }

    fn schedule_config(&self) -> Result<ScheduleConfig, String> {
        match self.schedule.as_str() {
            "hammerhead" => Ok(ScheduleConfig::Hammerhead(HammerheadConfig::default())),
            "round-robin" => Ok(ScheduleConfig::RoundRobin),
            other => Err(format!("unknown schedule {other:?} (want hammerhead | round-robin)")),
        }
    }

    /// Lowers to the validator's protocol configuration. Identical on
    /// every committee member by construction: every field comes from
    /// `[validator]` keys that the testnet generator stamps uniformly.
    ///
    /// # Errors
    ///
    /// Returns a description of an invalid schedule name or of a `*_ms`
    /// value too large to express in microseconds.
    pub fn validator_config(&self) -> Result<ValidatorConfig, String> {
        Ok(ValidatorConfig {
            schedule: self.schedule_config()?,
            min_round_delay_us: ms_to_us("min_round_delay_ms", self.min_round_delay_ms)?,
            leader_timeout_us: ms_to_us("leader_timeout_ms", self.leader_timeout_ms)?,
            sync_tick_us: ms_to_us("sync_tick_ms", self.sync_tick_ms)?,
            exec_rate_tps: self.exec_rate_tps,
            ..ValidatorConfig::default()
        })
    }

    /// The spacing of `HH-STATUS` lines in microseconds (at least one
    /// millisecond).
    ///
    /// # Errors
    ///
    /// Returns a description of a value too large to express in microseconds.
    pub fn status_interval_us(&self) -> Result<u64, String> {
        ms_to_us("status_interval_ms", self.status_interval_ms.max(1))
    }
}

fn ms_to_us(key: &str, ms: u64) -> Result<u64, String> {
    ms.checked_mul(1_000).ok_or_else(|| format!("{key} = {ms} overflows microseconds"))
}

/// A key outside `allowed` would be read by nobody: the file does not say
/// what its author meant.
fn only_keys(t: &BTreeMap<String, Value>, allowed: &[&str], at: &str) -> Result<(), String> {
    match t.keys().find(|key| !allowed.contains(&key.as_str())) {
        Some(key) => {
            Err(format!("config: unknown key `{key}` in {at} (allowed: {})", allowed.join(", ")))
        }
        None => Ok(()),
    }
}

fn table<'a>(
    root: &'a BTreeMap<String, Value>,
    key: &str,
    allowed: &[&str],
) -> Result<&'a BTreeMap<String, Value>, String> {
    let table = root
        .get(key)
        .and_then(Value::as_table)
        .ok_or_else(|| format!("config: missing [{key}] table"))?;
    only_keys(table, allowed, &format!("[{key}]"))?;
    Ok(table)
}

fn string(t: &BTreeMap<String, Value>, key: &str) -> Result<String, String> {
    match t.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("config: missing or non-string key {key:?}")),
    }
}

fn int(t: &BTreeMap<String, Value>, key: &str) -> Result<i64, String> {
    match t.get(key) {
        Some(Value::Int(i)) if *i >= 0 => Ok(*i),
        _ => Err(format!("config: missing or invalid integer key {key:?}")),
    }
}

fn string_array(t: &BTreeMap<String, Value>, key: &str) -> Result<Vec<String>, String> {
    let Some(Value::Array(items)) = t.get(key) else {
        return Err(format!("config: missing array key {key:?}"));
    };
    items
        .iter()
        .map(|v| match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(format!("config: non-string entry in {key:?}: {other:?}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeConfig {
        let mut cfg = NodeConfig::template(2);
        cfg.peers = (0..4).map(|i| format!("127.0.0.1:{}", 7800 + i)).collect();
        cfg.wal = PathBuf::from("wal-2.log");
        cfg
    }

    #[test]
    fn toml_roundtrip() {
        let cfg = sample();
        let parsed = NodeConfig::parse(&cfg.to_toml()).expect("parse");
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut small = sample();
        small.peers.truncate(3);
        small.id = 0;
        assert!(small.validate().is_err());

        let mut out_of_range = sample();
        out_of_range.id = 4;
        assert!(out_of_range.validate().is_err());

        let mut bad_addr = sample();
        bad_addr.peers[1] = "not-an-address".into();
        assert!(bad_addr.validate().is_err());

        let mut bad_schedule = sample();
        bad_schedule.schedule = "static".into();
        assert!(bad_schedule.validate().is_err());
    }

    #[test]
    fn parse_rejects_a_wrapped_id_and_an_overflowing_timeout() {
        // 65538 = 2 mod 2^16: must not boot as validator 2.
        let wrapped = sample().to_toml().replace("id = 2", "id = 65538");
        let err = NodeConfig::parse(&wrapped).unwrap_err();
        assert!(err.contains("node id 65538"), "{err}");

        // (`min_round_delay_ms` must stay below `leader_timeout_ms`, which
        // then overflows first.)
        for (key, given) in
            [("leader_timeout_ms", 400), ("sync_tick_ms", 200), ("status_interval_ms", 250)]
        {
            let absurd = format!("{key} = {}", i64::MAX);
            let doc = sample().to_toml().replace(&format!("{key} = {given}"), &absurd);
            let err = NodeConfig::parse(&doc).unwrap_err();
            assert!(err.contains(&absurd) && err.contains("overflows"), "{err}");
        }
    }

    #[test]
    fn parse_rejects_tables_and_keys_nobody_reads() {
        let doc = sample().to_toml();
        for (extra, message) in [
            (
                "pool_capacity = 5\n",
                "unknown key `pool_capacity` in [validator] (allowed: schedule, ",
            ),
            (
                "[storage]\nsync = true\n",
                "unknown key `storage` in the config root (allowed: node, ",
            ),
        ] {
            let err = NodeConfig::parse(&format!("{doc}{extra}")).unwrap_err();
            assert!(err.contains(message), "{err}");
        }
        let misplaced = doc.replace("[committee]", "wal_dir = \"x\"\n[committee]");
        let err = NodeConfig::parse(&misplaced).unwrap_err();
        assert!(err.contains("unknown key `wal_dir` in [node] (allowed: id, wal)"), "{err}");
    }

    #[test]
    fn lowers_to_validator_and_tcp_configs() {
        let cfg = sample();
        let vcfg = cfg.validator_config().expect("validator config");
        assert_eq!(vcfg.min_round_delay_us, 40_000);
        assert_eq!(vcfg.leader_timeout_us, 400_000);
        let tcp = cfg.tcp_config().expect("tcp config");
        assert_eq!(tcp.id, 2);
        assert_eq!(tcp.peers.len(), 4);
        assert_eq!(tcp.bind, "127.0.0.1:7802".parse().unwrap());
    }
}
