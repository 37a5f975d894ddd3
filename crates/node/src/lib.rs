//! `hh-node` — a real HammerHead validator over TCP, and the
//! local-testnet harness that proves it.
//!
//! Everything below the socket is the code the simulator already
//! exercises: the same [`hammerhead::Validator`] state machine, the
//! same CRC-framed codec, the same WAL. This crate adds only the
//! operational shell:
//!
//! * [`config`] — the TOML file describing one node: committee peer
//!   addresses, WAL path, protocol knobs.
//! * [`wire`] — [`wire::WireMsg`], plugging `ValidatorMessage` into the
//!   transport's codec seam.
//! * [`runtime`] — [`runtime::run_node`]: the event loop binding the
//!   validator to a [`hh_net::tcp::TcpTransport`], a wall clock, a
//!   [`hh_net::wheel::TimingWheel`] of timers, and a stdin-driven
//!   graceful shutdown.
//! * [`testnet`] — [`testnet::run_testnet`]: spawn a whole committee as
//!   OS processes on loopback, drive load, SIGKILL one node and restart
//!   it, then audit every WAL with the safety checker.
//!
//! The binary (`hh-node --config node.toml`, `hh-node testnet ...`)
//! lives in `src/main.rs`.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod runtime;
pub mod testnet;
pub mod wire;

pub use config::NodeConfig;
pub use runtime::{run_node, NodeReport};
pub use testnet::{
    locate_node_binary, run_testnet, KillPlan, TestnetOpts, TestnetReport, VictimReport,
};
pub use wire::WireMsg;
