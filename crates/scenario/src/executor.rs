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
//! send finished rows back over the vendored crossbeam channel. Workers
//! never touch stdout; ordered emission happens on the collecting thread.
//! A panicking run — the safety checker, above all — aborts the pool and
//! is re-raised with the failing run's labels attached.

use crate::engine::{AdversaryRow, AnalysisRow, ReinclusionRow, RunProfile, RunRow};
use crate::spec::{PlannedRun, ScenarioPlan};
use hammerhead::EpochSummary;
use hh_sim::{run_sim, ByzantineSchedule, RunLimit, SimHandle};
use hh_types::{Round, ValidatorId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Human-readable `k=v` labels of a planned run (panic messages,
/// progress rows).
pub(crate) fn describe(run: &PlannedRun) -> String {
    run.labels.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

/// Executes run `index` of the plan: [`run_sim`], held to the always-on
/// safety checker's verdict, then the analyses of the handle.
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
    let profiling = hh_sim::prof::enabled();
    let net_before = hh_sim::prof::net_snapshot();
    let crypto_before = hh_sim::prof::crypto_snapshot();
    let run = &plan.runs[index];
    let (handle, result) = run_sim(&run.config, limit);
    assert!(
        result.agreement_ok,
        "TOTAL ORDER VIOLATION in scenario `{}`, run {} ({})",
        plan.name,
        index,
        describe(run)
    );
    let analysis = analyze(run, &handle);
    // Execution-cost sample: always taken (it is two reads), only
    // rendered under --profile, and kept out of the report output so
    // rows and JSON stay deterministic.
    let profile = RunProfile {
        wall_s: started.elapsed().as_secs_f64(),
        sim_events: handle.sim.stats().events,
        breakdown: profiling.then(|| crate::engine::ProfBreakdown {
            net: hh_sim::prof::net_snapshot().since(&net_before),
            crypto: hh_sim::prof::crypto_snapshot().since(&crypto_before),
        }),
    };
    RunRow { run: run.clone(), result, analysis, profile }
}

/// Computes the handle-derived analyses: skipped leader rounds, B/G
/// churn, re-inclusion, adversary.
fn analyze(run: &PlannedRun, handle: &SimHandle) -> AnalysisRow {
    // Live at the actual stop, matching the metrics collector.
    let live: Vec<usize> =
        run.config.faults.live_at(handle.n_validators, handle.sim.now().as_micros());

    // Lemma 6: the leader slots the ordered prefix decided skip, and all
    // it decided, in the most advanced live validator's view, as its
    // engine counted them.
    let most_advanced = live.iter().map(|i| handle.validator(*i)).max_by_key(|v| v.commit_count());
    let last_anchor_round =
        most_advanced.and_then(|v| v.committed_anchors().last()).map(|a| a.round.0).unwrap_or(0);
    let skipped_rounds = most_advanced.map_or(0, |v| v.passed_over_candidates());
    let leader_rounds = most_advanced.map_or(0, |v| v.leader_rounds());

    // Re-inclusion and demotion are judged through the most advanced live
    // validator's view (ties break toward the lowest index): the run's
    // schedule history resolves the leader of every committed round, the
    // switches it made and the anchors it committed (the checker's records
    // up to its commit count) bound the search (a slot past the last
    // anchor is unknown, not pending) and its evidence ledger is as
    // complete as any honest node's.
    let observer = live
        .iter()
        .copied()
        .max_by_key(|i| (handle.validator(*i).commit_count(), std::cmp::Reverse(*i)));
    let churn =
        |summaries: &[EpochSummary]| summaries.iter().map(|e| e.excluded.len() as u64).sum();
    let bg_churn = live.iter().map(|i| churn(&handle.epoch_summaries(*i))).max().unwrap_or(0);
    let summaries = observer.map(|i| handle.epoch_summaries(i)).unwrap_or_default();
    let (reinclusion, adversary) = match observer {
        Some(observer) => (
            reinclusion_rows(handle, observer, &summaries),
            adversary_rows(handle, observer, &summaries, &run.config.byzantine),
        ),
        None => (Vec::new(), Vec::new()),
    };

    AnalysisRow {
        skipped_rounds,
        leader_rounds,
        last_anchor_round,
        bg_churn,
        reinclusion,
        adversary,
    }
}

/// The adversary analysis: for every byzantine validator, how fast the
/// schedule demoted it (rounds and epochs to its first exclusion), how
/// its leader-slot share evolved across the epochs of `summaries`, and how
/// much equivocation evidence validator `observer` holds against it.
fn adversary_rows(
    handle: &SimHandle,
    observer: usize,
    summaries: &[EpochSummary],
    schedule: &ByzantineSchedule,
) -> Vec<AdversaryRow> {
    let observer = handle.validator(observer);
    let last_anchor_round = observer.committed_anchors().last().map(|a| a.round.0).unwrap_or(0);

    // Share of the rounds in `[from, until)` that `v` leads.
    let share_over = |from: u64, until: u64, v: ValidatorId| -> f64 {
        let (mut held, mut total) = (0u64, 0u64);
        for r in from..until {
            total += 1;
            if handle.leader_at(Round(r)) == v {
                held += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            held as f64 / total as f64
        }
    };

    schedule
        .nodes()
        .into_iter()
        .map(|node| {
            let v = ValidatorId(node);
            let mut labels: Vec<&str> = schedule
                .entries()
                .iter()
                .filter(|e| e.node == node)
                .map(|e| e.strategy.label())
                .collect();
            labels.dedup();
            let mut rounds_to_demotion = None;
            let mut epochs_to_demotion = None;
            let mut exclusions = 0u64;
            let mut leader_share_by_epoch = Vec::new();
            // Epoch k's schedule governs the rounds between boundary k-1's
            // new round and boundary k's.
            let mut span_start = 0u64;
            for summary in summaries {
                let boundary = summary.new_initial_round.0;
                leader_share_by_epoch.push(share_over(span_start, boundary, v));
                if summary.excluded.contains(&v) {
                    exclusions += 1;
                    if epochs_to_demotion.is_none() {
                        epochs_to_demotion = Some(summary.epoch);
                        rounds_to_demotion = Some(boundary);
                    }
                }
                span_start = boundary;
            }
            AdversaryRow {
                validator: node,
                strategy: labels.join("+"),
                rounds_to_demotion,
                epochs_to_demotion,
                exclusions,
                leader_share_overall: share_over(0, last_anchor_round + 1, v),
                leader_share_by_epoch,
                evidence_units: observer.equivocation_evidence().count_for(v),
            }
        })
        .collect()
}

/// The re-inclusion analysis: for every recovered validator, how long the
/// schedule took to hand it a leader slot again and how long until the
/// first of them committed, measured in rounds from the network round at
/// its recovery (sampled by the sim driver), plus its per-epoch score
/// trajectory across `summaries` (none under round-robin).
fn reinclusion_rows(
    handle: &SimHandle,
    observer: usize,
    summaries: &[EpochSummary],
) -> Vec<ReinclusionRow> {
    let observer = handle.validator(observer);
    let anchors = handle.safety.anchor_prefix(observer.commit_count());
    let last_anchor_round = anchors.last().map(|a| a.round.0).unwrap_or(0);

    handle
        .recovery_samples
        .iter()
        .map(|sample| {
            let v = ValidatorId(sample.validator);
            let recovery_round = sample.network_round;
            // Every round has a leader; scan from the recovery round up
            // to the last committed anchor.
            let first_leader_round =
                (recovery_round..=last_anchor_round).find(|r| handle.leader_at(Round(*r)) == v);
            let first_commit_round = anchors
                .iter()
                .find(|a| {
                    a.author == v && a.round.0 >= recovery_round && handle.leader_at(a.round) == v
                })
                .map(|a| a.round.0);
            let score_trajectory = summaries
                .iter()
                .map(|e| e.final_scores.get(v.index()).copied().unwrap_or(0))
                .collect();
            ReinclusionRow {
                validator: sample.validator,
                recovered_at_us: sample.at_us,
                recovery_round,
                first_leader_round,
                rounds_to_first_leader: first_leader_round.map(|r| r - recovery_round),
                first_commit_round,
                rounds_to_first_commit: first_commit_round.map(|r| r - recovery_round),
                score_trajectory,
            }
        })
        .collect()
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
/// over an unbounded crossbeam channel to the calling thread, which
/// buffers out-of-order arrivals and emits strictly in plan order. One
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
    let (row_tx, row_rx) = crossbeam::channel::unbounded();
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
size = 4
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
            assert_eq!(s.result.chain_hash, p.result.chain_hash);
            assert_eq!(s.result.throughput_tps, p.result.throughput_tps);
            assert_eq!(s.result.latency, p.result.latency);
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
