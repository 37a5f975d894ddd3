//! Declarative scenario engine for the HammerHead reproduction.
//!
//! Every claim in the paper is a *scenario* — a committee shape, a load,
//! a fault schedule, a scheduling configuration, and the metrics that
//! come out. This crate turns those from hard-coded binaries into data:
//!
//! * a TOML schema (see `docs/scenarios.md`) parsed by [`ScenarioSpec`]
//!   — unknown keys and wrong types are rejected there;
//! * axis expansion ([`ScenarioSpec::plan`]): list-valued knobs
//!   (committee sizes, loads, seeds, periods…) expand into the cross
//!   product of concrete [`hh_sim::ExperimentConfig`]s. A scenario is
//!   valid iff it plans: the fault, byzantine, chaos and workload tables
//!   are lowered per run straight from their schema rows, and
//!   [`hh_sim::ExperimentConfig::validate`] — the check `build_sim` makes
//!   too — asks each lowered schedule's own `validate`, so each such rule
//!   has one statement and one error text;
//! * a `plan → execute → report` pipeline: [`run_plan`] (on a scoped
//!   worker pool of [`ExecOptions::jobs`] workers, one at `--jobs 1`)
//!   turns every planned run into a row via the simulator's one driver
//!   ([`hh_sim::run_sim`]), and the report layer assembles a
//!   [`ScenarioReport`] whose rows render the run's [`hh_sim::RunResult`]
//!   (the simulator measures; this crate measures nothing itself): the
//!   paper's metrics, the declared latency windows, skipped leader rounds
//!   and B/G churn always, the re-inclusion / adversary / chaos blocks
//!   when the run's schedules hold recoveries / byzantine validators /
//!   chaos windows;
//! * deterministic JSON output ([`report_json`]) — same seeds, same
//!   bytes, for any `--jobs` worker count;
//! * `--set` patches ([`parse_set`], applied by [`load_with_sets`]), which
//!   rewrite a scenario's TOML document before the schema reads it, for
//!   `hh-cli` and the gate tests alike;
//! * the `hh-cli` binary: `hh-cli run scenarios/fig1_faultless.toml`
//!   (`--set k=v1,v2` sweeps), `hh-cli list`, `hh-cli validate`.
//!
//! The checked-in scenario files under `scenarios/` reproduce the
//! paper's figures.
//!
//! # Example
//!
//! ```
//! use hh_scenario::{ExecOptions, PlanOptions, RunLimit, ScenarioSpec};
//!
//! let spec = ScenarioSpec::parse(r#"
//! name = "smoke"
//! [committee]
//! sizes = 4
//! [run]
//! duration_secs = 2
//! warmup_secs = 1
//! [network]
//! model = "flat"
//! "#).unwrap();
//! let plan = spec.plan(&PlanOptions::default()).unwrap();
//! let report = hh_scenario::run_plan(&plan, RunLimit::Duration, &ExecOptions::default());
//! assert!(report.rows[0].result.agreement_ok);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod engine;
mod executor;
mod json;
mod spec;

pub use engine::{
    render_header, render_profile, render_row, report_json, run_plan, ExecOptions, RunProfile,
    RunRow, ScenarioReport,
};
pub use hh_sim::RunLimit;
pub use json::Json;
pub use spec::{
    parse_scoring, scoring_name, CountExpr, PlanOptions, PlannedRun, ScenarioError, ScenarioPlan,
    ScenarioSpec, WhenSpec,
};

use hh_types::toml;
use std::path::{Path, PathBuf};

/// Loads and parses a scenario file.
pub fn load_scenario(path: &Path) -> Result<ScenarioSpec, ScenarioError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.display())))?;
    ScenarioSpec::parse(&text)
}

/// Parses `a.b.c=v1,v2` (the argument of `hh-cli --set`) into a key path
/// and a TOML value (an array when multiple comma-separated values are
/// given).
pub fn parse_set(kv: &str) -> Result<(Vec<String>, toml::Value), String> {
    let (path, values) =
        kv.split_once('=').ok_or_else(|| format!("--set `{kv}` is not of the form key=value"))?;
    let path: Vec<String> = path.split('.').map(str::to_string).collect();
    if path.iter().any(String::is_empty) {
        return Err(format!("--set `{kv}` has an empty key segment"));
    }
    let parts: Vec<toml::Value> = values.split(',').map(parse_scalar).collect();
    let value = if parts.len() == 1 {
        parts.into_iter().next().expect("split yields at least one part")
    } else {
        toml::Value::Array(parts)
    };
    Ok((path, value))
}

/// A `--set` value as the TOML reader would type it: `nan`, `inf` and an
/// overflowing literal are no float there, so they stay strings here (and
/// a float key turns them away).
fn parse_scalar(s: &str) -> toml::Value {
    if let Ok(i) = s.parse::<i64>() {
        return toml::Value::Int(i);
    }
    if let Some(x) = s.parse::<f64>().ok().filter(|x| x.is_finite()) {
        return toml::Value::Float(x);
    }
    match s {
        "true" => toml::Value::Bool(true),
        "false" => toml::Value::Bool(false),
        _ => toml::Value::Str(s.to_string()),
    }
}

/// Applies a `--set` patch to the parsed scenario document, creating
/// intermediate tables as needed.
fn apply_set(root: &mut toml::Value, path: &[String], value: toml::Value) -> Result<(), String> {
    let (last, prefix) = path.split_last().expect("parse_set rejects empty paths");
    let mut table = match root {
        toml::Value::Table(t) => t,
        _ => return Err("scenario root is not a table".into()),
    };
    for part in prefix {
        table = match table.entry(part.clone()).or_insert_with(toml::Value::table) {
            toml::Value::Table(t) => t,
            other => return Err(format!("--set path segment `{part}` is not a table ({other:?})")),
        };
    }
    table.insert(last.clone(), value);
    Ok(())
}

/// Loads a scenario file with `--set` patches (see [`parse_set`]) applied
/// to its TOML document before the schema reads it.
pub fn load_with_sets(
    path: &Path,
    sets: &[(Vec<String>, toml::Value)],
) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut root = toml::parse(&text).map_err(|e| e.to_string())?;
    for (set_path, value) in sets {
        apply_set(&mut root, set_path, value.clone())?;
    }
    ScenarioSpec::from_value(&root).map_err(|e| e.to_string())
}

/// The repository's `scenarios/` directory, resolved relative to this
/// crate at compile time — lets tests find the checked-in scenario
/// files regardless of the working directory.
pub fn repo_scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_values_are_never_non_finite_floats() {
        assert_eq!(parse_scalar("2.5"), toml::Value::Float(2.5));
        assert_eq!(parse_scalar("7"), toml::Value::Int(7));
        for text in ["nan", "NaN", "inf", "-inf", "infinity", "1e400"] {
            assert_eq!(parse_scalar(text), toml::Value::Str(text.into()), "{text}");
        }
        let (_, value) = parse_set("workload.burst_secs=nan").unwrap();
        let mut root = toml::parse("name = \"x\"\n").unwrap();
        apply_set(&mut root, &["workload".into(), "burst_secs".into()], value).unwrap();
        let err = ScenarioSpec::from_value(&root).unwrap_err().to_string();
        assert!(err.contains("`burst_secs` in [workload] must be a number"), "{err}");
    }
}
