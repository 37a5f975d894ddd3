//! `benchmark` — the repo's benchmark, one command.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//!     one workload; the last stdout line is one JSON object
//!     {"correct", "attempted", "failed", "metrics"}: the end-to-end
//!     metrics untraced, the per-layer metrics traced
//! benchmark --all --seed <n> [--runs <k>] [--trace] [--out <set.json>] [--ledger <file>]
//!     every workload, every metric by name with its unit; optionally a
//!     result set for --compare and one appended ledger line
//! benchmark --scenario <name> --seed <n> [--trace]   an ungated run of the real node
//!     (node4_loaded, node4_steady, node4_restart)
//! benchmark --compare <a.json> <b.json>             judge two result sets by the bounds
//! benchmark --manifest                              print BENCHMARK.json
//! ```
//!
//! See `perfbench/README.md` for what every metric means.

mod compare;
mod fleet;
mod json;
mod loadgen;
mod manifest;
mod pipeline;
mod procstat;
mod simrun;
mod spans;
mod stats;
mod testnet;

use json::Json;
use manifest::{MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS, SCENARIOS, WORKLOADS};
use pipeline::Shape;
use simrun::SimWorkload;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use testnet::{Inject, KillPlan, NodeWorkload};

/// Hard limit on one workload run, set-up to audit.
const WORKLOAD_TIME_LIMIT: Duration = Duration::from_secs(150);

/// What every workload run needs to know.
pub struct RunCtx {
    /// The `hh-node` release binary under test.
    pub node_bin: PathBuf,
    /// Scratch space inside the checkout (under the cargo target dir).
    pub work_root: PathBuf,
    /// Seeds the submit schedule, the simulator and the vertex stream.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Whether this is the traced pass.
    pub trace: bool,
    /// `nproc`: caps generator connections and threads.
    pub nproc: usize,
    /// When the run must have ended.
    pub deadline: Instant,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted inside the measured window.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Every metric the run measured, by declared name.
    pub metrics: Vec<(String, f64)>,
    /// Violations of the correctness gate; empty means correct.
    pub problems: Vec<String>,
    /// Outside-only spans of the run (filled on traced runs).
    pub tracer: Tracer,
}

enum Workload {
    Node(NodeWorkload),
    Sim(SimWorkload),
}

/// The workload or scenario named `name`, and the stream shape its traced
/// run pushes through the layer pipeline: its own committee and block size.
fn workload(name: &str) -> Option<(Workload, Shape)> {
    let node = |name, rate_tps, kill| Workload::Node(NodeWorkload { name, rate_tps, kill });
    let crash = KillPlan {
        victim: 3,
        kill_at: Duration::from_secs(6),
        respawn_at: Duration::from_secs(10),
    };
    Some(match name {
        "node4_loaded" => (
            node("node4_loaded", 8_000, None),
            Shape { n: 4, authors: 3, txs_per_block: 80, rounds: 300 },
        ),
        "node4_steady" => (
            node("node4_steady", 400, None),
            Shape { n: 4, authors: 3, txs_per_block: 4, rounds: 300 },
        ),
        "node4_restart" => (
            node("node4_restart", 600, Some(crash)),
            Shape { n: 4, authors: 3, txs_per_block: 6, rounds: 300 },
        ),
        "sim_n100_f33" => (
            Workload::Sim(SimWorkload {
                committee: 100,
                crashed: 33,
                load_tps: 3_000,
                sim_secs: 15,
                warmup_secs: 5,
            }),
            Shape { n: 100, authors: 67, txs_per_block: 13, rounds: 24 },
        ),
        "sim_n10_long" => (
            Workload::Sim(SimWorkload {
                committee: 10,
                crashed: 3,
                load_tps: 3_000,
                sim_secs: 600,
                warmup_secs: 10,
            }),
            Shape { n: 10, authors: 7, txs_per_block: 85, rounds: 150 },
        ),
        _ => return None,
    })
}

fn target_dir() -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    std::path::absolute(&dir).unwrap_or(dir)
}

/// Runs one workload (and, traced, its layer pipeline); writes trace files.
fn run_workload(name: &str, ctx: &RunCtx, inject: Inject) -> Result<Outcome, String> {
    let (kind, shape) =
        workload(name).ok_or_else(|| format!("no workload or scenario `{name}`"))?;
    let mut outcome = match &kind {
        Workload::Node(spec) => testnet::run(spec, ctx, inject)?,
        Workload::Sim(spec) => simrun::run(spec, ctx)?,
    };
    if ctx.trace {
        let mut tracer = Tracer::new();
        let dir = ctx.work_root.join(format!("pipeline-{name}-{}", std::process::id()));
        let layer_metrics = pipeline::run(&shape, ctx.seed, &dir, &mut tracer);
        let _ = std::fs::remove_dir_all(&dir);
        outcome.metrics.extend(layer_metrics?);
        let meta = |what: &str| {
            Json::obj()
                .with("workload", Json::str(name))
                .with("seed", Json::Num(ctx.seed as f64))
                .with("spans", Json::str(what))
        };
        let file = |what: &str| {
            target_dir()
                .join("perfbench")
                .join(format!("trace-{name}-seed{}-{what}.json", ctx.seed))
        };
        spans::write_trace(&file("run"), meta("run"), &outcome.tracer.spans)?;
        spans::write_trace(&file("pipeline"), meta("pipeline"), &tracer.spans)?;
        eprintln!("traces: {} and {}", file("run").display(), file("pipeline").display());
    }
    Ok(outcome)
}

/// The value of every metric of `specs`; a layer the workload does not
/// exercise reports 0.
fn select(outcome: &Outcome, specs: &'static [MetricSpec]) -> Vec<(&'static MetricSpec, f64)> {
    specs
        .iter()
        .map(|spec| {
            let value =
                outcome.metrics.iter().find(|(n, _)| n == spec.name).map_or(0.0, |(_, v)| *v);
            (spec, value)
        })
        .collect()
}

fn print_metrics(workload: &str, metrics: &[(&MetricSpec, f64)]) {
    for (spec, value) in metrics {
        println!("{workload:<14} {:<34} {value:>18.6} {}", spec.name, spec.unit);
    }
}

/// The contract's result object.
fn result_line(correct: bool, outcome: &Outcome, metrics: &[(&MetricSpec, f64)]) -> String {
    let metrics = metrics.iter().fold(Json::obj(), |doc, (spec, value)| {
        doc.with(
            spec.name,
            Json::obj().with("value", Json::Num(*value)).with("unit", Json::str(spec.unit)),
        )
    });
    Json::obj()
        .with("correct", Json::Bool(correct))
        .with("attempted", Json::Num(outcome.attempted.max(1) as f64))
        .with("failed", Json::Num(outcome.failed as f64))
        .with("metrics", metrics)
        .compact()
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    scenario: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    ledger: Option<PathBuf>,
    node_bin: Option<PathBuf>,
    inject: Inject,
    compare: Option<(PathBuf, PathBuf)>,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { seed: 1, seconds: RUN_SECONDS, runs: 1, ..Args::default() };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        fn number<T: std::str::FromStr>(name: &str, s: String) -> Result<T, String> {
            s.parse().map_err(|_| format!("{name}: `{s}` is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--all" => args.all = true,
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?,
            "--runs" => args.runs = number("--runs", value("--runs")?)?,
            "--out" => args.out = Some(value("--out")?.into()),
            "--ledger" => args.ledger = Some(value("--ledger")?.into()),
            "--node-bin" => args.node_bin = Some(value("--node-bin")?.into()),
            "--manifest" => args.manifest = true,
            "--compare" => {
                args.compare = Some((value("--compare")?.into(), value("--compare")?.into()))
            }
            "--inject" => {
                args.inject = match value("--inject")?.as_str() {
                    "corrupt-wal" => Inject::CorruptWal,
                    "kill-node" => Inject::KillNode,
                    other => return Err(format!("--inject: unknown fault `{other}`")),
                }
            }
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                args.trace = it.next_if(|v| v == "0" || v == "1").is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(1..=120).contains(&args.seconds) || args.runs == 0 {
        return Err("--seconds must be in 1..=120 and --runs at least 1".into());
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `name` must be one of `listed` (the gated workloads or the scenarios).
fn require_listed(name: &str, what: &str, listed: &[(&str, &str)]) -> Result<(), String> {
    if listed.iter().any(|(n, _)| *n == name) {
        return Ok(());
    }
    let names: Vec<_> = listed.iter().map(|(n, _)| *n).collect();
    Err(format!("`{name}` is not a {what} (have: {})", names.join(", ")))
}

fn context(args: &Args, seed: u64) -> Result<RunCtx, String> {
    let node_bin = match &args.node_bin {
        Some(path) => path.clone(),
        None => std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .with_file_name("hh-node"),
    };
    Ok(RunCtx {
        node_bin,
        work_root: target_dir().join("perfbench").join("work"),
        seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: nproc(),
        deadline: Instant::now() + WORKLOAD_TIME_LIMIT,
    })
}

fn report_problems(name: &str, outcome: &Outcome) {
    for problem in &outcome.problems {
        eprintln!("{name}: CORRECTNESS GATE FAILED: {problem}");
    }
}

/// Contract mode: one gated workload, one JSON line last.
fn cmd_workload(args: &Args, name: &str) -> Result<ExitCode, String> {
    require_listed(name, "gated workload", WORKLOADS)?;
    let ctx = context(args, args.seed)?;
    let outcome = run_workload(name, &ctx, Inject::None)?;
    let correct = outcome.problems.is_empty();
    report_problems(name, &outcome);
    // A run that failed its gate withholds the numbers.
    let metrics = match (correct, args.trace) {
        (false, _) => Vec::new(),
        (true, false) => select(&outcome, END_TO_END),
        (true, true) => select(&outcome, PER_LAYER),
    };
    print_metrics(name, &metrics);
    println!("{}", result_line(correct, &outcome, &metrics));
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// One gated workload in a process of its own, exactly as the driver
/// runs it (so `VmHWM` and the allocator start fresh); returns the parsed
/// result line, or `None` when the run failed its gate.
fn run_in_child(args: &Args, name: &str, seed: u64, trace: bool) -> Result<Option<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child.args(["--workload", name, "--seed", &seed.to_string()]);
    child.args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }]);
    if let Some(node_bin) = &args.node_bin {
        child.arg("--node-bin").arg(node_bin);
    }
    let output = child
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let result = stdout.lines().last().map(Json::parse).transpose()?;
    match result {
        Some(result) if output.status.success() => Ok(Some(result)),
        Some(_) => Ok(None),
        None => Err(format!("{name} printed no result ({})", output.status)),
    }
}

/// Every gated workload, `--runs` times each (seeds `seed..seed+runs`).
fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let mut set: Vec<(String, compare::MetricRuns)> = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        let mut per_metric: compare::MetricRuns =
            END_TO_END.iter().map(|m| (m.name.to_string(), Vec::new())).collect();
        for seed in (args.seed..).take(args.runs) {
            let Some(result) = run_in_child(args, name, seed, false)? else {
                all_correct = false;
                continue;
            };
            for (metric, values) in &mut per_metric {
                let value =
                    result.get("metrics").and_then(|m| m.get(metric)?.get("value")?.as_f64());
                values.push(value.ok_or_else(|| format!("{name}: no {metric} in the result"))?);
            }
            if args.trace {
                all_correct &= run_in_child(args, name, seed, true)?.is_some();
            }
        }
        set.push((name.to_string(), per_metric));
    }
    if !all_correct {
        eprintln!("a workload failed its correctness gate: no result set, no ledger line");
        return Ok(ExitCode::FAILURE);
    }
    let doc = compare::result_set(&git_commit(), args.seed, nproc(), &set);
    if let Some(path) = &args.out {
        std::fs::write(path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("result set written to {}", path.display());
    }
    if let Some(path) = &args.ledger {
        append_line(path, &compare::ledger_line(&doc))?;
        println!("ledger line appended to {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("append to {}: {e}", path.display()))
}

/// An ungated run: prints everything it measured, in measuring order.
fn cmd_scenario(args: &Args, name: &str) -> Result<ExitCode, String> {
    require_listed(name, "scenario", SCENARIOS)?;
    let ctx = context(args, args.seed)?;
    let outcome = run_workload(name, &ctx, args.inject)?;
    report_problems(name, &outcome);
    println!("{name}: seed {} attempted {} failed {}", ctx.seed, outcome.attempted, outcome.failed);
    for (metric, value) in &outcome.metrics {
        let spec = manifest::spec(metric).ok_or_else(|| format!("{metric} is not declared"))?;
        print_metrics(name, &[(spec, *value)]);
    }
    Ok(if outcome.problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |path: &Path| {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (table, all_ok) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let run = || -> Result<ExitCode, String> {
        let args = parse_args()?;
        if args.manifest {
            print!("{}", manifest::manifest().pretty());
            return Ok(ExitCode::SUCCESS);
        }
        if let Some((a, b)) = &args.compare {
            return cmd_compare(a, b);
        }
        if let Some(name) = &args.scenario {
            return cmd_scenario(&args, name);
        }
        match (&args.workload, args.all) {
            (Some(name), false) => cmd_workload(&args, name),
            (None, true) => cmd_all(&args),
            _ => Err(
                "give exactly one of --workload <name>, --all, --scenario, --compare, --manifest"
                    .into(),
            ),
        }
    };
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
