//! `hh-cli` — run, sweep, list and validate HammerHead scenarios.
//!
//! ```text
//! hh-cli run scenarios/fig1_faultless.toml [--quick] [--rounds 50] [--out out.json]
//! hh-cli run scenarios/fig2_faults.toml --set hammerhead.period_rounds=4,20,120
//! hh-cli list [scenarios/]
//! hh-cli validate scenarios/fig2_faults.toml [--dump]
//! ```
//!
//! `run` executes every run a scenario expands to and prints a row per
//! run; `--out` additionally writes the deterministic JSON report, and
//! each `--set key=v1,v2,...` patch with a list value becomes a sweep
//! axis. `list` shows every scenario in a directory with its expanded run
//! count. `validate` parses and expands without running.

use hh_scenario::{
    load_scenario, load_with_sets, parse_set, render_header, report_json, run_plan, ExecOptions,
    PlanOptions, RunLimit, ScenarioError,
};
use hh_types::toml;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
hh-cli — declarative scenario runner for the HammerHead reproduction

USAGE:
    hh-cli run <scenario.toml> [OPTIONS]      execute a scenario
    hh-cli list [dir]                         list scenarios (default: scenarios/)
    hh-cli validate <scenario.toml> [--dump]  parse + expand without running

OPTIONS (run):
    --quick           apply the scenario's [quick] scaled-down overrides
    --duration <s>    override the duration axis (simulated seconds)
    --seed <n>        override the seed axis
    --rounds <n>      stop each run once the DAG passes round <n>
    --jobs <n>        run up to <n> runs in parallel (default: the
                      host's available parallelism); output is
                      byte-identical for every <n>
    --profile         print per-run wall-clock and simulated-events/sec
                      to stderr; the report (rows, JSON) is unchanged
    --set <k=v,..>    patch a scenario key before validation; list values
                      become sweep axes (repeatable)
    --out <file>      write the JSON report to <file>
    --json            print the JSON report to stdout instead of rows
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

struct RunArgs {
    scenario: PathBuf,
    quick: bool,
    duration: Option<u64>,
    seed: Option<u64>,
    rounds: Option<u64>,
    jobs: usize,
    sets: Vec<(Vec<String>, toml::Value)>,
    out: Option<PathBuf>,
    json: bool,
    profile: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        scenario: PathBuf::new(),
        quick: false,
        duration: None,
        seed: None,
        rounds: None,
        jobs: ExecOptions::default_jobs(),
        sets: Vec::new(),
        out: None,
        json: false,
        profile: false,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json" => parsed.json = true,
            "--profile" => parsed.profile = true,
            "--duration" => parsed.duration = Some(flag_u64(&mut it, "--duration")?),
            "--seed" => parsed.seed = Some(flag_u64(&mut it, "--seed")?),
            "--rounds" => parsed.rounds = Some(flag_u64(&mut it, "--rounds")?),
            "--jobs" => {
                let jobs = flag_u64(&mut it, "--jobs")?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                parsed.jobs = jobs as usize;
            }
            "--out" => {
                parsed.out = Some(PathBuf::from(it.next().ok_or("--out requires a file path")?))
            }
            "--set" => {
                let kv = it.next().ok_or("--set requires key=value[,value...]")?;
                parsed.sets.push(parse_set(kv)?);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => positional.push(other.to_string()),
        }
    }
    match positional.as_slice() {
        [one] => parsed.scenario = PathBuf::from(one),
        [] => return Err("missing scenario file".into()),
        more => return Err(format!("expected one scenario file, got {more:?}")),
    }
    Ok(parsed)
}

fn flag_u64<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<u64, String> {
    it.next()
        .ok_or(format!("{flag} requires a number"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let args = parse_run_args(args)?;
    let spec = load_with_sets(&args.scenario, &args.sets)?;
    let opts = PlanOptions {
        quick: args.quick,
        duration_override: args.duration,
        seed_override: args.seed,
    };
    let plan = spec.plan(&opts).map_err(|e| e.to_string())?;
    let limit = match args.rounds {
        Some(n) => RunLimit::Rounds(n),
        None => RunLimit::Duration,
    };

    // Note: the worker count is deliberately absent from the output —
    // rows, progress lines, and JSON are byte-identical for any --jobs.
    if !args.json {
        println!(
            "# scenario {} — {} run(s){}",
            plan.name,
            plan.runs.len(),
            if args.quick { " [quick]" } else { "" }
        );
    }
    let opts = ExecOptions { jobs: args.jobs, verbose: !args.json, profile: args.profile };
    let report = run_plan(&plan, limit, &opts);
    if !args.json {
        println!("{}", render_header(&report));
    }
    let json = report_json(&report).render();
    if args.json {
        print!("{json}");
    }
    if let Some(out) = &args.out {
        std::fs::write(out, &json).map_err(|e| format!("{}: {e}", out.display()))?;
        if !args.json {
            println!("wrote {}", out.display());
        }
    }
    Ok(())
}

fn cmd_list(args: &[String]) -> Result<(), String> {
    let dir = match args {
        [] => PathBuf::from("scenarios"),
        [one] => PathBuf::from(one),
        more => return Err(format!("expected at most one directory, got {more:?}")),
    };
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        println!("no scenarios in {}", dir.display());
        return Ok(());
    }
    for path in entries {
        let file = path.file_name().unwrap_or_default().to_string_lossy();
        match load_scenario(&path).and_then(|spec| spec.plan(&PlanOptions::default())) {
            Ok(plan) => println!("{file:<34} {:>4} runs  {}", plan.runs.len(), plan.description),
            Err(e) => println!("{file:<34} INVALID: {e}"),
        }
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let mut dump = false;
    let mut path = None;
    for arg in args {
        match arg.as_str() {
            "--dump" => dump = true,
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => {
                if path.replace(PathBuf::from(other)).is_some() {
                    return Err("expected exactly one scenario file".into());
                }
            }
        }
    }
    let path = path.ok_or("missing scenario file")?;
    let spec = load_scenario(&path).map_err(|e| match e {
        ScenarioError::Io(m) => m,
        other => other.to_string(),
    })?;
    let plan = spec.plan(&PlanOptions::default()).map_err(|e| e.to_string())?;
    // The runs are committee-major: one stretch of runs per size.
    let mut sizes: Vec<usize> = plan.runs.iter().map(|run| run.config.committee_size).collect();
    sizes.dedup();
    println!(
        "{}: ok — {} run(s) across {} committee size(s)",
        plan.name,
        plan.runs.len(),
        sizes.len()
    );
    if dump {
        print!("{}", spec.to_toml());
    }
    Ok(())
}
