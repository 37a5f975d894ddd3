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
//!   are lowered per run straight from their schema rows and judged by
//!   the lowered schedule's own `validate` — the value the simulator
//!   executes — so each such rule has one statement and one error text;
//! * a `plan → execute → report` pipeline: [`run_plan_with`] (on the
//!   calling thread or a scoped worker pool, per [`ExecOptions`]) turns
//!   every planned run into a row via the simulator's one driver
//!   ([`hh_sim::run_sim`]), and the
//!   report layer assembles a [`ScenarioReport`] whose rows are a
//!   function of the run: the paper's metrics, the declared latency
//!   windows, skipped leader rounds and B/G churn always, the
//!   re-inclusion / adversary / chaos blocks when the run's schedules
//!   hold recoveries / byzantine validators / chaos windows;
//! * deterministic JSON output ([`report_json`]) — same seeds, same
//!   bytes, for any `--jobs` worker count;
//! * the `hh-cli` binary: `hh-cli run scenarios/fig1_faultless.toml`,
//!   `hh-cli list`, `hh-cli matrix`, `hh-cli validate`.
//!
//! The checked-in scenario files under `scenarios/` reproduce the
//! paper's figures.
//!
//! # Example
//!
//! ```
//! use hh_scenario::{PlanOptions, RunLimit, ScenarioSpec};
//!
//! let spec = ScenarioSpec::parse(r#"
//! name = "smoke"
//! [committee]
//! size = 4
//! [run]
//! duration_secs = 2
//! warmup_secs = 1
//! [network]
//! model = "flat"
//! "#).unwrap();
//! let plan = spec.plan(&PlanOptions::default()).unwrap();
//! let report = hh_scenario::run_plan(&plan, RunLimit::Duration, false);
//! assert!(report.rows[0].result.agreement_ok);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod engine;
mod executor;
mod json;
mod spec;

pub use engine::{
    render_header, render_profile, render_row, report_json, run_plan, run_plan_with, AdversaryRow,
    AnalysisRow, ExecOptions, ReinclusionRow, RunProfile, RunRow, ScenarioReport,
};
pub use hh_sim::RunLimit;
pub use json::Json;
pub use spec::{
    parse_scoring, scoring_name, CountExpr, ExclusionSpec, PlanOptions, PlannedRun, ScenarioError,
    ScenarioPlan, ScenarioSpec, SystemSpec, VariantSpec, WhenSpec,
};

use std::path::{Path, PathBuf};

/// Loads and parses a scenario file.
pub fn load_scenario(path: &Path) -> Result<ScenarioSpec, ScenarioError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.display())))?;
    ScenarioSpec::parse(&text)
}

/// The repository's `scenarios/` directory, resolved relative to this
/// crate at compile time — lets tests find the checked-in scenario
/// files regardless of the working directory.
pub fn repo_scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}
