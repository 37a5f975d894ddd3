//! `hh-node` — run one validator over TCP, or a whole local testnet.

use hh_node::{run_node, run_testnet, KillPlan, NodeConfig, TestnetOpts};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
hh-node — a HammerHead validator over real sockets

USAGE:
    hh-node --config <node.toml>       run one validator until stdin closes
                                       (send `shutdown\\n` or close the pipe
                                       for a graceful, WAL-flushing exit)
    hh-node testnet [OPTIONS]          run a local committee of hh-node
                                       processes on loopback and audit it

TESTNET OPTIONS:
    --nodes <n>               committee size, 4..=20 (default 4)
    --duration-secs <s>       load phase length (default 10)
    --tps <n>                 total offered load, tx/s (default 200)
    --base-port <p>           first listener port; 0 = OS-assigned (default 0)
    --schedule <s>            hammerhead | round-robin (default hammerhead)
    --kill <id>               SIGKILL node <id> mid-run and restart it
    --kill-after-secs <s>     when to kill (default duration/3)
    --restart-after-secs <s>  how long to leave it dead (default 2)
    --min-commits <n>         per-node commit gate (default 10)
    --min-rounds <n>          committee committed-round gate (default 20)
    --dir <path>              scratch dir (default: fresh temp dir)
    --node-binary <path>      hh-node binary to spawn (default: self)
    --keep                    keep the scratch dir after a passing run

Prints a JSON report; exits 0 iff every gate passed.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--config") => cmd_node(&args[1..]),
        Some("testnet") => cmd_testnet(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_node(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("error: --config needs a path\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let cfg = match NodeConfig::load(path) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_node(&cfg) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // Exit 2 marks a fail-stop (storage fault) as distinct from
            // a config mistake: the harness treats it as unclean.
            ExitCode::from(2)
        }
    }
}

fn cmd_testnet(args: &[String]) -> ExitCode {
    let opts = match parse_testnet_args(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run_testnet(&opts) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_testnet_args(args: &[String]) -> Result<TestnetOpts, String> {
    let mut opts = TestnetOpts::new(4);
    let mut kill_victim: Option<u16> = None;
    let mut kill_after: Option<u64> = None;
    let mut restart_after: u64 = 2;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--nodes" => opts.nodes = parse(&value("--nodes")?)?,
            "--duration-secs" => {
                opts.duration = Duration::from_secs(parse(&value("--duration-secs")?)?)
            }
            "--tps" => opts.tps = parse(&value("--tps")?)?,
            "--base-port" => opts.base_port = parse(&value("--base-port")?)?,
            "--schedule" => opts.schedule = value("--schedule")?,
            "--kill" => kill_victim = Some(parse(&value("--kill")?)?),
            "--kill-after-secs" => kill_after = Some(parse(&value("--kill-after-secs")?)?),
            "--restart-after-secs" => restart_after = parse(&value("--restart-after-secs")?)?,
            "--min-commits" => opts.min_commits = parse(&value("--min-commits")?)?,
            "--min-rounds" => opts.min_committed_round = parse(&value("--min-rounds")?)?,
            "--dir" => opts.dir = Some(PathBuf::from(value("--dir")?)),
            "--node-binary" => opts.node_binary = Some(PathBuf::from(value("--node-binary")?)),
            "--keep" => opts.keep_dir = true,
            other => return Err(format!("unknown testnet flag `{other}`")),
        }
    }
    if let Some(victim) = kill_victim {
        let at = kill_after.unwrap_or_else(|| (opts.duration.as_secs() / 3).max(1));
        opts.kill = Some(KillPlan {
            victim,
            at: Duration::from_secs(at),
            restart_after: Duration::from_secs(restart_after),
        });
    }
    Ok(opts)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("invalid value {s:?}: {e}"))
}
