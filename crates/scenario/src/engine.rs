//! The report layer: assembles executed runs into a [`ScenarioReport`]
//! and renders it.
//!
//! One [`RunRow`] per planned run: the standard paper metrics
//! ([`hh_sim::RunResult`]) plus the analyses of the finished simulation
//! ([`AnalysisRow`]). Which blocks a row renders follows from the run
//! itself: every row carries the metrics (with the `workload` and
//! `recovery` blocks), the latency windows, skipped leader rounds and
//! B/G churn; the `reinclusion`, `adversary` and `chaos` blocks appear
//! exactly when the run's fault schedule has recoveries, its byzantine
//! schedule is non-empty and its chaos schedule is non-empty. Reports
//! render as an aligned text table for humans and as deterministic JSON
//! for `BENCH_*.json`-style artifacts.
//!
//! Execution itself lives in [`crate::executor`]; this module owns all
//! output. Progress rows are printed here, from the ordered emission
//! the executor contract guarantees, so worker threads never write to
//! stdout and verbose/quiet runs build the same report.

use crate::executor::execute;
use crate::json::Json;
use crate::spec::{PlannedRun, ScenarioPlan};
use hh_sim::{LatencySummary, RunLimit, RunResult};
use std::fmt::Write as _;

/// Re-inclusion measurements for one recovered validator: how long the
/// leader schedule took to hand it slots again after its restart.
#[derive(Clone, Debug)]
pub struct ReinclusionRow {
    /// The recovered validator.
    pub validator: u16,
    /// Recovery instant (µs of simulated time).
    pub recovered_at_us: u64,
    /// Network round at the recovery instant (the measurement baseline).
    pub recovery_round: u64,
    /// First round at or after recovery where the schedule names this
    /// validator leader; `None` if no slot arrived within the run.
    pub first_leader_round: Option<u64>,
    /// `first_leader_round - recovery_round`.
    pub rounds_to_first_leader: Option<u64>,
    /// Round of this validator's first committed anchor after recovery
    /// (its first *successful* leader slot); `None` if none committed.
    pub first_commit_round: Option<u64>,
    /// `first_commit_round - recovery_round`.
    pub rounds_to_first_commit: Option<u64>,
    /// This validator's final score in each completed epoch, oldest
    /// first (HammerHead runs; empty for the baseline) — the rebound the
    /// re-inclusion rides on.
    pub score_trajectory: Vec<u64>,
}

/// Adversary measurements for one byzantine validator: how fast the
/// reputation mechanism pushed the attacker out of the leader schedule,
/// and what the attack cost everyone while it lasted.
#[derive(Clone, Debug)]
pub struct AdversaryRow {
    /// The attacker.
    pub validator: u16,
    /// Its strategy label(s) from the schedule (`+`-joined when a node
    /// runs different strategies in different windows).
    pub strategy: String,
    /// Round at which the first schedule excluding the attacker took
    /// effect; `None` if it was never demoted (always for round-robin).
    pub rounds_to_demotion: Option<u64>,
    /// Epoch whose closing scores first excluded the attacker.
    pub epochs_to_demotion: Option<u64>,
    /// Completed epochs whose closing scores excluded the attacker.
    pub exclusions: u64,
    /// Fraction of the rounds up to the last committed anchor where the
    /// schedule named the attacker leader. Round-robin pins
    /// this near `1/n`; a demoting scorer drives it toward zero.
    pub leader_share_overall: f64,
    /// The same share per completed epoch, oldest first (HammerHead
    /// runs; empty for the baseline) — the attacker's slot share decaying
    /// over time.
    pub leader_share_by_epoch: Vec<f64>,
    /// Equivocation evidence units charged to the attacker in the
    /// observer's ledger (non-zero only for equivocating strategies).
    pub evidence_units: u64,
}

/// What the finished simulation shows beyond the standard metrics.
#[derive(Clone, Debug)]
pub struct AnalysisRow {
    /// Leader slots the ordered prefix decided skip (Lemma 6's metric,
    /// [`hh_consensus::Bullshark::passed_over_candidates`]).
    pub skipped_rounds: u64,
    /// Rounds whose leader slot the ordered prefix decided: the ordered
    /// rounds and the rounds passed over below them.
    pub leader_rounds: u64,
    /// Round of the last committed anchor.
    pub last_anchor_round: u64,
    /// Total validators swapped out across all schedule switches (the
    /// size of every epoch's B set summed; 0 for the baseline).
    pub bg_churn: u64,
    /// One entry per recovery event the run reached.
    pub reinclusion: Vec<ReinclusionRow>,
    /// One entry per byzantine validator.
    pub adversary: Vec<AdversaryRow>,
}

/// Execution-cost sample for one run, rendered only under `--profile`.
///
/// Wall-clock is inherently nondeterministic, so none of this may ever
/// reach the report's rows or JSON — CI enforces that `--profile`
/// leaves the JSON byte-identical.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunProfile {
    /// Wall-clock seconds the run took on its worker.
    pub wall_s: f64,
    /// Simulator events the run processed (deterministic).
    pub sim_events: u64,
    /// Where the run's wall-clock went, by site, while profiling was on.
    /// The shares overlap: deliver and timer time include what their
    /// handlers hashed, signed, encoded and queued.
    pub breakdown: Option<hh_sim::prof::Prof>,
}

/// One finished run.
#[derive(Clone, Debug)]
pub struct RunRow {
    /// The plan entry that produced this row.
    pub run: PlannedRun,
    /// Standard metrics.
    pub result: RunResult,
    /// Analyses of the finished simulation.
    pub analysis: AnalysisRow,
    /// Execution-cost sample (never part of the report output).
    pub profile: RunProfile,
}

/// A fully executed scenario.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Scenario description.
    pub description: String,
    /// Paper figure, if declared.
    pub figure: Option<String>,
    /// Stop rule the runs used.
    pub limit: RunLimit,
    /// One row per run, in plan order.
    pub rows: Vec<RunRow>,
}

/// How a plan executes: worker count, progress verbosity, profiling.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Worker threads (0 counts as 1); every run executes on a worker.
    pub jobs: usize,
    /// Print one progress row per finished run (always in plan order).
    pub verbose: bool,
    /// Print per-run wall-clock and simulated-events/sec to stderr.
    /// Never changes the report: rows and JSON stay byte-identical.
    pub profile: bool,
}

impl ExecOptions {
    /// The `--jobs` default: every core the host offers (1 when the
    /// parallelism cannot be determined).
    pub fn default_jobs() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { jobs: 1, verbose: false, profile: false }
    }
}

/// Executes every run of the plan on `opts.jobs` workers and assembles
/// the report.
///
/// The report — rows, progress lines, JSON bytes — is identical for
/// every worker count: runs are dispatched by index, each row is a pure
/// function of its plan entry, and rows are emitted and assembled in
/// plan order.
///
/// # Panics
///
/// Panics if a run breaks a safety invariant, with the failing run's
/// labels in the message regardless of which worker hit it.
pub fn run_plan(plan: &ScenarioPlan, limit: RunLimit, opts: &ExecOptions) -> ScenarioReport {
    // Arm (or disarm) the hot-path counters before any worker starts;
    // wall-clock never reaches the report either way, so the JSON stays
    // byte-identical with or without profiling.
    hh_sim::prof::set_enabled(opts.profile);
    // All stdout happens here, on the calling thread, from the ordered
    // emission.
    let mut emit = |row: &RunRow| {
        if opts.verbose {
            println!("{}", render_row(row));
        }
        if opts.profile {
            // Stderr, so `--json` pipelines stay clean; wall-clock never
            // enters the report.
            eprintln!("{}", render_profile(row));
        }
    };
    let rows = execute(plan, limit, opts.jobs, &mut emit);
    ScenarioReport {
        name: plan.name.clone(),
        description: plan.description.clone(),
        figure: plan.figure.clone(),
        limit,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Text rendering
// ---------------------------------------------------------------------------

/// One aligned human-readable line for a finished run.
pub fn render_row(row: &RunRow) -> String {
    let r = &row.result;
    let mut line = format!(
        "  {:<16} n={:<3} f={:<2} load={:<5} -> {:>7.0} tx/s | latency {:>6.2}s ±{:>5.2} \
         (p50 {:>5.2} p95 {:>5.2}) | commits {:>5} timeouts {:>4} epochs {:>3}",
        row.run.variant,
        row.run.config.committee_size,
        row.run.fault_count,
        row.run.config.load_tps,
        r.throughput_tps,
        r.latency.mean,
        r.latency.stddev,
        r.latency.p50,
        r.latency.p95,
        r.commits,
        r.leader_timeouts,
        r.schedule_epochs,
    );
    let a = &row.analysis;
    for (name, latency) in &r.windows {
        let _ = write!(
            line,
            "\n      window {:<10} p50 {:>6.3}s p95 {:>6.3}s mean {:>6.3}s ({} txs)",
            name, latency.p50, latency.p95, latency.mean, latency.count
        );
    }
    let _ = write!(
        line,
        "\n      skipped {} of {} leader rounds (last anchor round {}) | schedule churn: {} \
         validators swapped out",
        a.skipped_rounds, a.leader_rounds, a.last_anchor_round, a.bg_churn,
    );
    if r.restarts > 0 {
        let _ = write!(
            line,
            "\n      recovery: {} restart(s){}",
            r.restarts,
            if r.recovery_divergence { " [DIVERGENCE]" } else { "" }
        );
    }
    for r in &a.reinclusion {
        let fmt_rounds = |x: Option<u64>| match x {
            Some(rounds) => format!("+{rounds}"),
            None => "never".to_string(),
        };
        let _ = write!(
            line,
            "\n      reinclusion v{}: recovered at round {} | first slot {} | first commit {}",
            r.validator,
            r.recovery_round,
            fmt_rounds(r.rounds_to_first_leader),
            fmt_rounds(r.rounds_to_first_commit),
        );
    }
    for adv in &a.adversary {
        let demotion = match (adv.epochs_to_demotion, adv.rounds_to_demotion) {
            (Some(e), Some(r)) => format!("demoted after epoch {e} (round {r})"),
            _ => "never demoted".to_string(),
        };
        let _ = write!(
            line,
            "\n      adversary v{} ({}): {demotion} | excluded {}x | \
             slot share {:.1}% | evidence {}",
            adv.validator,
            adv.strategy,
            adv.exclusions,
            adv.leader_share_overall * 100.0,
            adv.evidence_units,
        );
    }
    if !row.run.config.chaos.is_empty() {
        let _ = write!(
            line,
            "\n      chaos: delivered {} | dropped {} dup {} corrupt-rejected {} reordered {} \
             | retransmits {} | safety {} records, {} violations",
            r.frames_delivered,
            r.chaos_dropped,
            r.chaos_duplicated,
            r.chaos_corrupt_rejected,
            r.chaos_reordered,
            r.rbc_retransmits,
            r.safety_records,
            r.safety_violations,
        );
    }
    line
}

/// The `--profile` line for a finished run: execution cost, not metrics.
pub fn render_profile(row: &RunRow) -> String {
    let p = &row.profile;
    let mut line = format!(
        "  profile {:<16} n={:<3} load={:<5} wall {:>7.3}s | {:>9} sim events | {:>10.0} events/s",
        row.run.variant,
        row.run.config.committee_size,
        row.run.config.load_tps,
        p.wall_s,
        p.sim_events,
        p.sim_events as f64 / p.wall_s.max(1e-9),
    );
    if let Some(b) = &p.breakdown {
        let wall_ns = (p.wall_s * 1e9).max(1.0);
        let pct = |ns: u64| ns as f64 * 100.0 / wall_ns;
        let _ = write!(
            line,
            "\n  profile   breakdown: queue {:.1}% ({} ops) | deliver {:.1}% ({} msgs) | \
             timers {:.1}% ({}) | digest {:.1}% ({}) | sign/verify {:.1}% ({}) | \
             codec {:.1}% ({} frames)  [shares overlap: crypto, codec and a handler's \
             queue ops nest inside deliver or timers; boot and restart replay are in neither]",
            pct(b.queue_ns),
            b.queue_ops,
            pct(b.deliver_ns),
            b.deliver_ops,
            pct(b.timer_ns),
            b.timer_ops,
            pct(b.digest_ns),
            b.digest_ops,
            pct(b.sig_ns),
            b.sig_ops,
            pct(b.codec_ns),
            b.codec_ops,
        );
    }
    line
}

/// The report header line.
pub fn render_header(report: &ScenarioReport) -> String {
    let mut line = format!("# scenario {}", report.name);
    if let Some(figure) = &report.figure {
        let _ = write!(line, " ({figure})");
    }
    if !report.description.is_empty() {
        let _ = write!(line, " — {}", report.description);
    }
    line
}

// ---------------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------------

fn latency_json(latency: &LatencySummary) -> Json {
    Json::object()
        .with("count", Json::Int(latency.count as i64))
        .with("mean_s", Json::Float(latency.mean))
        .with("stddev_s", Json::Float(latency.stddev))
        .with("p50_s", Json::Float(latency.p50))
        .with("p95_s", Json::Float(latency.p95))
        .with("max_s", Json::Float(latency.max))
}

/// The per-run workload block: offered vs accepted vs committed
/// goodput, shed rate, byte goodput.
fn workload_json(row: &RunRow) -> Json {
    let r = &row.result;
    let offered = r.submitted + r.client_skipped;
    let accepted = r.submitted.saturating_sub(r.shed);
    let elapsed = r.elapsed_secs.max(1e-6);
    let shed_rate = if r.submitted > 0 { r.shed as f64 / r.submitted as f64 } else { 0.0 };
    Json::object()
        .with("offered", Json::Int(offered as i64))
        .with("offered_tps", Json::Float(offered as f64 / elapsed))
        .with("submitted", Json::Int(r.submitted as i64))
        .with("accepted", Json::Int(accepted as i64))
        .with("committed", Json::Int(r.executed as i64))
        .with("goodput_tps", Json::Float(r.throughput_tps))
        .with("shed_rate", Json::Float(shed_rate))
        .with("payload_bytes", Json::Int(row.run.config.workload.payload_bytes as i64))
        .with("bytes_submitted", Json::Int(r.bytes_submitted as i64))
        .with("bytes_committed", Json::Int(r.bytes_committed as i64))
        .with("goodput_bytes_per_sec", Json::Float(r.bytes_committed as f64 / elapsed))
}

fn opt_int(x: Option<u64>) -> Json {
    match x {
        Some(v) => Json::Int(v as i64),
        None => Json::Null,
    }
}

fn reinclusion_json(r: &ReinclusionRow) -> Json {
    Json::object()
        .with("validator", Json::Int(r.validator as i64))
        .with("recovered_at_us", Json::Int(r.recovered_at_us as i64))
        .with("recovery_round", Json::Int(r.recovery_round as i64))
        .with("first_leader_round", opt_int(r.first_leader_round))
        .with("rounds_to_first_leader", opt_int(r.rounds_to_first_leader))
        .with("first_commit_round", opt_int(r.first_commit_round))
        .with("rounds_to_first_commit", opt_int(r.rounds_to_first_commit))
        .with(
            "score_trajectory",
            Json::Array(r.score_trajectory.iter().map(|s| Json::Int(*s as i64)).collect()),
        )
}

fn adversary_json(adv: &AdversaryRow) -> Json {
    Json::object()
        .with("validator", Json::Int(adv.validator as i64))
        .with("strategy", Json::Str(adv.strategy.clone()))
        .with("rounds_to_demotion", opt_int(adv.rounds_to_demotion))
        .with("epochs_to_demotion", opt_int(adv.epochs_to_demotion))
        .with("exclusions", Json::Int(adv.exclusions as i64))
        .with("leader_share_overall", Json::Float(adv.leader_share_overall))
        .with(
            "leader_share_by_epoch",
            Json::Array(adv.leader_share_by_epoch.iter().map(|s| Json::Float(*s)).collect()),
        )
        .with("evidence_units", Json::Int(adv.evidence_units as i64))
}

/// Chaos-delivery accounting: what the adverse network did to the wire,
/// what the self-healing delivery layer spent riding it out, and the
/// safety checker's verdict (zero violations on any run that reports).
fn chaos_json(r: &RunResult) -> Json {
    Json::object()
        .with("delivered", Json::Int(r.frames_delivered as i64))
        .with("dropped", Json::Int(r.chaos_dropped as i64))
        .with("duplicated", Json::Int(r.chaos_duplicated as i64))
        .with("corrupt_rejected", Json::Int(r.chaos_corrupt_rejected as i64))
        .with("reordered", Json::Int(r.chaos_reordered as i64))
        .with("retransmits", Json::Int(r.rbc_retransmits as i64))
        .with("safety_records", Json::Int(r.safety_records as i64))
        .with("safety_violations", Json::Int(r.safety_violations as i64))
}

fn row_json(row: &RunRow) -> Json {
    // Only inherently numeric labels render as JSON numbers; free-form
    // labels (variant, scoring, exclusion) stay strings even when they
    // happen to look numeric, so consumers see stable types.
    const NUMERIC_LABELS: &[&str] =
        &["committee", "faults", "load_tps", "duration_secs", "seed", "period_rounds"];
    let mut labels = Json::object();
    for (key, value) in &row.run.labels {
        let as_int: Option<i64> =
            if NUMERIC_LABELS.contains(&key.as_str()) { value.parse().ok() } else { None };
        labels = labels.with(
            key,
            match as_int {
                Some(i) => Json::Int(i),
                None => Json::Str(value.clone()),
            },
        );
    }
    let r = &row.result;
    let metrics = Json::object()
        .with("throughput_tps", Json::Float(r.throughput_tps))
        .with("latency", latency_json(&r.latency))
        .with("commit_latency", latency_json(&r.commit_latency))
        .with("commits", Json::Int(r.commits as i64))
        .with("leader_timeouts", Json::Int(r.leader_timeouts as i64))
        .with("submitted", Json::Int(r.submitted as i64))
        .with("client_skipped", Json::Int(r.client_skipped as i64))
        .with("shed", Json::Int(r.shed as i64))
        .with("schedule_epochs", Json::Int(r.schedule_epochs as i64))
        .with("agreement_ok", Json::Bool(r.agreement_ok))
        .with("chain_hash", Json::Str(r.chain_hash.to_string()))
        .with("workload", workload_json(row))
        .with(
            "recovery",
            Json::object()
                .with("restarts", Json::Int(r.restarts as i64))
                .with("recovery_divergence", Json::Bool(r.recovery_divergence)),
        );

    let a = &row.analysis;
    let windows = r.windows.iter().map(|(name, latency)| {
        Json::object().with("name", Json::Str(name.clone())).with("latency", latency_json(latency))
    });
    let mut analysis = Json::object()
        .with("windows", Json::Array(windows.collect()))
        .with("skipped_leader_rounds", Json::Int(a.skipped_rounds as i64))
        .with("last_anchor_round", Json::Int(a.last_anchor_round as i64))
        .with("bg_churn", Json::Int(a.bg_churn as i64));
    // The fault-derived blocks: present exactly when the run's schedules
    // hold that fault family, whatever the run then measured.
    let config = &row.run.config;
    if config.faults.has_recoveries() {
        analysis = analysis
            .with("reinclusion", Json::Array(a.reinclusion.iter().map(reinclusion_json).collect()));
    }
    if !config.byzantine.is_empty() {
        analysis = analysis
            .with("adversary", Json::Array(a.adversary.iter().map(adversary_json).collect()));
    }
    if !config.chaos.is_empty() {
        analysis = analysis.with("chaos", chaos_json(r));
    }
    Json::object().with("labels", labels).with("metrics", metrics).with("analysis", analysis)
}

/// Renders the whole report as deterministic JSON.
pub fn report_json(report: &ScenarioReport) -> Json {
    let limit = match report.limit {
        RunLimit::Duration => Json::Str("duration".into()),
        RunLimit::Rounds(n) => Json::object().with("rounds", Json::Int(n as i64)),
    };
    Json::object()
        .with("scenario", Json::Str(report.name.clone()))
        .with("description", Json::Str(report.description.clone()))
        .with(
            "figure",
            match &report.figure {
                Some(f) => Json::Str(f.clone()),
                None => Json::Null,
            },
        )
        .with("limit", limit)
        .with("runs", Json::Array(report.rows.iter().map(row_json).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PlanOptions, ScenarioSpec};

    fn tiny_spec(extra: &str) -> ScenarioSpec {
        ScenarioSpec::parse(&format!(
            r#"
name = "engine-test"
[committee]
size = 4
[load]
tps = 200
[run]
duration_secs = 3
warmup_secs = 1
[network]
model = "flat"
{extra}
"#
        ))
        .unwrap()
    }

    #[test]
    fn runs_plan_and_reports_metrics() {
        let plan = tiny_spec("").plan(&PlanOptions::default()).unwrap();
        let report = run_plan(&plan, RunLimit::Duration, &ExecOptions::default());
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert!(row.result.agreement_ok);
        assert!(row.result.commits > 0);
        let json = report_json(&report).render();
        assert!(json.contains("\"scenario\": \"engine-test\""));
        assert!(json.contains("\"throughput_tps\""));
    }

    #[test]
    fn a_fault_free_row_carries_the_windows_and_no_fault_block() {
        let extra = r#"
[[analysis.window]]
name = "early"
from_frac = 0.0
to_frac = 0.5
[[analysis.window]]
name = "late"
from_frac = 0.5
to_frac = 1.0
"#;
        let plan = tiny_spec(extra).plan(&PlanOptions::default()).unwrap();
        let report = run_plan(&plan, RunLimit::Duration, &ExecOptions::default());
        assert_eq!(report.rows[0].result.windows.len(), 2);
        let a = &report.rows[0].analysis;
        assert!(a.last_anchor_round > 0 && a.skipped_rounds < a.last_anchor_round);
        let json = report_json(&report).render();
        for key in ["skipped_leader_rounds", "bg_churn", "\"early\"", "goodput_tps", "restarts"] {
            assert!(json.contains(key), "{key} is in every row");
        }
        for key in ["reinclusion", "adversary", "chaos"] {
            assert!(!json.contains(key), "{key} needs its fault family");
        }
    }

    #[test]
    fn numeric_looking_variant_labels_stay_strings() {
        let spec = ScenarioSpec::parse(
            r#"
name = "labels"
[committee]
size = 4
[run]
duration_secs = 2
warmup_secs = 1
[network]
model = "flat"
[[variant]]
label = "120"
period_rounds = 120
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        let report = run_plan(&plan, RunLimit::Duration, &ExecOptions::default());
        let json = report_json(&report).render();
        assert!(json.contains("\"variant\": \"120\""), "free-form label must stay a string");
        assert!(json.contains("\"period_rounds\": 120"), "numeric label renders as a number");
    }

    #[test]
    fn identical_seeds_render_identical_json() {
        let plan = tiny_spec("").plan(&PlanOptions::default()).unwrap();
        let a = report_json(&run_plan(&plan, RunLimit::Duration, &ExecOptions::default())).render();
        let b = report_json(&run_plan(&plan, RunLimit::Duration, &ExecOptions::default())).render();
        assert_eq!(a, b);
    }

    #[test]
    fn verbose_and_quiet_runs_build_the_same_report() {
        // Progress printing lives in the report layer, outside the
        // execution path — toggling it must not change a byte of the
        // report.
        let extra = r#"
[[analysis.window]]
name = "whole"
from_frac = 0.0
to_frac = 1.0
"#;
        let plan = tiny_spec(extra).plan(&PlanOptions::default()).unwrap();
        let quiet =
            report_json(&run_plan(&plan, RunLimit::Duration, &ExecOptions::default())).render();
        let verbose = report_json(&run_plan(
            &plan,
            RunLimit::Duration,
            &ExecOptions { verbose: true, ..ExecOptions::default() },
        ))
        .render();
        assert_eq!(quiet, verbose);
    }

    #[test]
    fn worker_count_does_not_change_the_json() {
        let spec = ScenarioSpec::parse(
            r#"
name = "jobs-test"
[committee]
size = 4
[load]
tps = [100, 200]
[run]
duration_secs = 2
warmup_secs = 1
seeds = [1, 2]
[network]
model = "flat"
[[analysis.window]]
name = "late"
from_frac = 0.5
to_frac = 1.0
"#,
        )
        .unwrap();
        let plan = spec.plan(&PlanOptions::default()).unwrap();
        let serial = report_json(&run_plan(
            &plan,
            RunLimit::Duration,
            &ExecOptions { jobs: 1, verbose: false, profile: false },
        ))
        .render();
        let pooled = report_json(&run_plan(
            &plan,
            RunLimit::Duration,
            &ExecOptions { jobs: 4, verbose: false, profile: false },
        ))
        .render();
        assert_eq!(serial, pooled, "--jobs must never change report bytes");
    }
}
