//! Spin up a real 4-node committee as OS processes on loopback TCP,
//! SIGKILL one validator mid-run, restart it against its WAL, and print
//! the audited report. This is the library form of `hh-node testnet`;
//! see `docs/node.md` for the full walkthrough.
//!
//! ```sh
//! cargo run --release --example local_testnet
//! ```

use hammerhead_repro::hh_node::{run_testnet, KillPlan, TestnetOpts};
use std::time::Duration;

fn main() {
    let mut opts = TestnetOpts::new(4);
    opts.duration = Duration::from_secs(12);
    opts.tps = 200.0;
    opts.min_commits = 10;
    opts.min_committed_round = 30;
    // Kill node 1 a third of the way in; leave it dead for two seconds.
    opts.kill = Some(KillPlan {
        victim: 1,
        at: Duration::from_secs(4),
        restart_after: Duration::from_secs(2),
    });

    match run_testnet(&opts) {
        Ok(report) => {
            println!("{}", report.to_json());
            if let Some(v) = &report.victim {
                println!(
                    "victim {} had {} commits when killed, recovered + caught up to {}",
                    v.id, v.commits_at_kill, v.commits_final
                );
            }
            if !report.passed() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("testnet failed to launch: {e}");
            std::process::exit(1);
        }
    }
}
