//! Run execution: every planned run on a scoped worker pool, one worker
//! at `--jobs 1`.
//!
//! The pipeline is `ScenarioPlan → execute → ScenarioReport`: the plan
//! (from [`crate::spec`]) is an indexed list of independent simulated
//! runs, [`execute`] turns every index into a [`RunRow`], and the report
//! layer in [`crate::engine`] assembles and renders them. Runs are
//! *dispatched by index* and rows are always surfaced in plan order, so
//! the report — progress lines, text table, JSON bytes — is identical
//! whatever the worker count.
//!
//! Scoped worker threads pull indices off a shared atomic counter
//! (self-scheduling, so long runs never serialize behind short ones) and
//! send finished rows back over a standard channel. Workers never touch
//! stdout; ordered emission happens on the collecting thread.
//! A panicking run — the safety checker, above all — aborts the pool and
//! is re-raised with the failing run's labels attached.

use crate::engine::{RunProfile, RunRow};
use crate::spec::{PlannedRun, ScenarioPlan};
use hh_sim::{run_sim, RunLimit};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Human-readable `k=v` labels of a planned run (panic messages,
/// progress rows).
pub(crate) fn describe(run: &PlannedRun) -> String {
    run.labels.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

/// Executes run `index` of the plan: [`run_sim`], held to the always-on
/// safety checker's verdict.
///
/// Pure in `(plan, index, limit)` — every worker produces the same row
/// for the same index, which is what makes the report independent of
/// scheduling.
///
/// # Panics
///
/// Panics if the run breaks a safety invariant ([`hh_sim::SafetyChecker`])
/// — a safety violation is never something to report as a data point.
pub(crate) fn execute_run(plan: &ScenarioPlan, index: usize, limit: RunLimit) -> RunRow {
    let started = std::time::Instant::now();
    // Thread-local baselines: the whole run executes on this thread, so
    // the counter movement from here to the end is exactly its cost.
    let before = hh_sim::prof::enabled().then(hh_sim::prof::snapshot);
    let run = &plan.runs[index];
    let (handle, result) = run_sim(&run.config, limit);
    assert!(
        result.agreement_ok,
        "TOTAL ORDER VIOLATION in scenario `{}`, run {} ({})",
        plan.name,
        index,
        describe(run)
    );
    // Execution-cost sample: always taken (it is two reads), only
    // rendered under --profile, and kept out of the report output so
    // rows and JSON stay deterministic.
    let profile = RunProfile {
        wall_s: started.elapsed().as_secs_f64(),
        sim_events: handle.sim.stats().events,
        breakdown: before.map(|before| hh_sim::prof::snapshot().since(&before)),
    };
    RunRow { run: run.clone(), result, profile }
}

/// Turns every run of a plan into a [`RunRow`], on `jobs` threads.
///
/// Calls `emit` exactly once per run, in plan order (run 0 first), each
/// call made after that run finished — the report layer relies on this
/// for race-free ordered progress output — and returns the rows in plan
/// order.
///
/// Indices are claimed from a shared atomic counter, so workers
/// self-schedule: whoever finishes first takes the next run, keeping
/// every thread busy through uneven run lengths. Finished rows flow back
/// over an unbounded channel to the calling thread, which buffers
/// out-of-order arrivals and emits strictly in plan order. One
/// job is one worker: the same path, so a failing run is named the same
/// way at any worker count.
pub(crate) fn execute(
    plan: &ScenarioPlan,
    limit: RunLimit,
    jobs: usize,
    emit: &mut dyn FnMut(&RunRow),
) -> Vec<RunRow> {
    let total = plan.runs.len();
    let jobs = jobs.min(total).max(1);
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let (row_tx, row_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let row_tx = row_tx.clone();
            let (next, abort) = (&next, &abort);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= total || abort.load(Ordering::Relaxed) {
                    break;
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| execute_run(plan, index, limit)));
                let failed = outcome.is_err();
                if row_tx.send((index, outcome)).is_err() || failed {
                    break;
                }
            });
        }
        drop(row_tx);

        let mut slots: Vec<Option<RunRow>> = (0..total).map(|_| None).collect();
        let mut emitted = 0;
        for (index, outcome) in row_rx.iter() {
            match outcome {
                Ok(row) => {
                    slots[index] = Some(row);
                    while emitted < total {
                        match &slots[emitted] {
                            Some(row) => emit(row),
                            None => break,
                        }
                        emitted += 1;
                    }
                }
                Err(payload) => {
                    // Stop handing out new work, then re-raise with the
                    // failing run's labels so a Total Order violation in
                    // a 300-run sweep names its run.
                    abort.store(true, Ordering::Relaxed);
                    let labels = describe(&plan.runs[index]);
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned());
                    match message {
                        Some(m) => panic!("run {index} ({labels}) failed: {m}"),
                        None => {
                            // Opaque payloads can't be wrapped without
                            // losing them — name the run on stderr, then
                            // re-raise the original.
                            eprintln!("run {index} ({labels}) failed; re-raising its panic");
                            std::panic::resume_unwind(payload)
                        }
                    }
                }
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("run {i} produced no row")))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PlanOptions, ScenarioSpec};

    fn sweep_plan() -> ScenarioPlan {
        ScenarioSpec::parse(
            r#"
name = "executor-test"
[committee]
sizes = 4
[load]
tps = [100, 200, 300]
[run]
duration_secs = 2
warmup_secs = 1
seeds = [1, 2]
[network]
model = "flat"
"#,
        )
        .expect("parses")
        .plan(&PlanOptions::default())
        .expect("plans")
    }

    #[test]
    fn pooled_rows_match_serial_in_order_and_content() {
        let plan = sweep_plan();
        assert_eq!(plan.runs.len(), 6);
        let mut serial_seen = Vec::new();
        let serial = execute(&plan, RunLimit::Duration, 1, &mut |row| {
            serial_seen.push(row.run.labels.clone())
        });
        let mut pooled_seen = Vec::new();
        let pooled = execute(&plan, RunLimit::Duration, 4, &mut |row| {
            pooled_seen.push(row.run.labels.clone())
        });

        assert_eq!(serial_seen, pooled_seen, "emission order must be plan order");
        assert_eq!(serial.len(), pooled.len());
        for (s, p) in serial.iter().zip(&pooled) {
            assert_eq!(s.run.labels, p.run.labels);
            assert_eq!(s.result, p.result);
        }
    }

    #[test]
    fn pooled_with_more_workers_than_runs_still_completes() {
        let plan = sweep_plan();
        let rows = execute(&plan, RunLimit::Rounds(20), 64, &mut |_| {});
        assert_eq!(rows.len(), plan.runs.len());
        assert!(rows.iter().all(|r| r.result.agreement_ok));
    }

    #[test]
    fn pooled_panic_carries_run_labels() {
        // A plan whose second run cannot even build (everyone crashed)
        // panics inside a worker; at one job as at four, the pool must
        // re-raise on the calling thread with that run's labels attached,
        // not hang or lose it.
        let good = sweep_plan();
        let mut bad_config = good.runs[0].config.clone();
        bad_config.faults = hh_sim::FaultSchedule::new().crash_from_start([0, 1, 2, 3]);
        let bad = PlannedRun {
            variant: "doomed".into(),
            system: "bullshark".into(),
            labels: vec![("variant".into(), "doomed".into()), ("committee".into(), "4".into())],
            fault_count: 4,
            config: bad_config,
        };
        let plan = ScenarioPlan {
            name: "panic-test".into(),
            description: String::new(),
            figure: None,
            runs: vec![good.runs[0].clone(), bad],
        };

        for jobs in [1, 4] {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                execute(&plan, RunLimit::Rounds(10), jobs, &mut |_| {})
            }));
            let payload = result.expect_err("the worker panic must propagate");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                message.contains("variant=doomed"),
                "jobs = {jobs}: the panic should carry the failing run's labels, got: {message}"
            );
        }
    }
}
