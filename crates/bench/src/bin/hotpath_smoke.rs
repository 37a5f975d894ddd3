//! `hotpath_smoke` — a fast, JSON-emitting smoke benchmark of the
//! ordering hot path, run by `ci.sh` to seed the perf trajectory.
//!
//! Unlike the criterion microbenches (statistical, minutes), this runs
//! each probe a handful of times and reports the best observed wall
//! clock — coarse, but stable enough that `--min-speedup` can gate CI
//! against an order-of-magnitude hot-path regression. Probes:
//!
//! * `commit_walk_ns` — `Bullshark::process_vertex` fed every vertex of
//!   a full 50-validator, 100-round DAG, reported per vertex;
//! * `reachable_ns` — one anchor-to-anchor `Dag::reachable` query
//!   (depth 2, the commit rule's shape: a two-step frontier-mask
//!   descent, a few hundred ns) on the same DAG;
//! * `causal_sub_dag_ns` — one full-history `Dag::causal_sub_dag` from
//!   a top vertex;
//! * `sim_events_per_sec` — a quick 4-validator scenario driven to
//!   round 60, simulator events over event-loop wall clock (the sim is
//!   built outside the timed region and the safety audit runs after
//!   it); `--min-sim-events <n>` gates CI on this floor.
//!
//! The emitted JSON carries a `baseline` object alongside `current`:
//! the pre-indexing numbers (digest-keyed BFS walk) measured on this
//! machine class before the store indexed vertices by `(round, author)`,
//! so every later run can report its speedup against the same anchor.
//! `--min-speedup <x>` exits non-zero when the commit-walk speedup
//! drops below `x` — the CI floor is set well under the observed 30–50×
//! so slower machine classes pass while a reverted/regressed index
//! (≈1×) fails.
//!
//! Usage: `hotpath_smoke [--out BENCH_hotpath.json] [--min-speedup X]`

use hh_consensus::{Bullshark, RoundRobinPolicy, SlotSchedule};
use hh_dag::testkit::DagBuilder;
use hh_dag::Dag;
use hh_scenario::Json;
use hh_sim::{build_sim, run_sim_limited, ExperimentConfig, RunLimit, SystemKind};
use hh_types::{Committee, Round, ValidatorId};
use std::time::Instant;

/// Pre-indexing numbers (PR 2 tree: per-query BFS with digest
/// hashing), measured with this same binary before the store was
/// indexed. Kept as the fixed anchor the acceptance gate compares
/// against.
const BASELINE_COMMIT_WALK_NS: f64 = 3355.0;
const BASELINE_REACHABLE_NS: f64 = 122230.0;
const BASELINE_CAUSAL_SUB_DAG_NS: f64 = 12608096.0;
const BASELINE_SIM_EVENTS_PER_SEC: f64 = 554203.0;

const COMMITTEE: usize = 50;
const ROUNDS: usize = 100;
/// Round the sim throughput probe drives its 4-validator scenario to.
const SIM_TARGET_ROUND: u64 = 60;

fn full_dag(n: usize, rounds: usize) -> Dag {
    let mut b = DagBuilder::new(Committee::new_equal_stake(n));
    b.extend_full_rounds(rounds);
    b.into_dag()
}

/// Best-of-`iters` wall clock of `f`, in nanoseconds.
fn best_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut min_speedup: Option<f64> = None;
    let mut min_sim_events: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = Some(args.next().expect("--out requires a path")),
            "--min-speedup" => {
                let value = args.next().expect("--min-speedup requires a number");
                min_speedup = Some(value.parse().expect("--min-speedup requires a number"));
            }
            "--min-sim-events" => {
                let value = args.next().expect("--min-sim-events requires a number");
                min_sim_events = Some(value.parse().expect("--min-sim-events requires a number"));
            }
            other => {
                eprintln!(
                    "unknown argument `{other}`\n\
                     usage: hotpath_smoke [--out FILE] [--min-speedup X] [--min-sim-events N]"
                );
                std::process::exit(2);
            }
        }
    }

    // The DAG probes live in their own scope so their 5000-vertex DAG is
    // off the heap before the sim throughput probe below runs.
    let (commit_walk_ns, reachable_ns, causal_sub_dag_ns) = {
        let committee = Committee::new_equal_stake(COMMITTEE);
        let dag = full_dag(COMMITTEE, ROUNDS);
        let vertex_count = dag.len() as f64;

        // The commit walk: every vertex of the DAG through a fresh engine.
        let commit_walk_total_ns = best_ns(5, || {
            let mut engine = Bullshark::new(
                committee.clone(),
                RoundRobinPolicy::new(SlotSchedule::round_robin(&committee)),
            );
            let mut commits = 0usize;
            for r in 0..ROUNDS as u64 {
                for v in dag.round_vertices(Round(r)) {
                    commits += engine.process_vertex(v, &dag).len();
                }
            }
            assert!(commits >= ROUNDS / 2 - 2, "commit walk under-committed: {commits}");
        });

        // Anchor-to-anchor reachability (depth 2, the orderAnchors shape).
        let from = dag.vertex_by_author(Round(10), ValidatorId(0)).unwrap().clone();
        let to = dag.vertex_by_author(Round(8), ValidatorId(1)).unwrap().clone();
        let reachable_ns = best_ns(7, || {
            for _ in 0..1000 {
                assert!(dag.reachable(&from, &to));
            }
        }) / 1000.0;

        // Full-history delivery from a top vertex.
        let top = dag.vertex_by_author(Round(ROUNDS as u64 - 1), ValidatorId(0)).unwrap().clone();
        let causal_sub_dag_ns = best_ns(5, || {
            assert!(dag.causal_history(&top).len() > COMMITTEE * (ROUNDS - 2));
        });

        (commit_walk_total_ns / vertex_count, reachable_ns, causal_sub_dag_ns)
    };

    // Whole-system events/sec on a quick deterministic scenario, timed
    // over the event loop alone: the simulator is built outside the
    // clock and the end-of-run safety audit happens after it stops, so
    // the number reports event-processing throughput rather than setup
    // and teardown. The drive replicates `RunLimit::Rounds`: advance in
    // 250 ms slices until the fastest validator reaches round 60. One
    // discarded warm-up run, then best-of-7 (the `reachable` probe's
    // draw count) — each run is ~1 ms and this box's scheduler is noisy
    // enough that the minimum needs several draws to stabilize.
    let config = ExperimentConfig::quick_test(SystemKind::Hammerhead);
    let cap_us = config.duration_secs * 1_000_000;
    let mut sim_events = 0u64;
    let mut sim_run_ns = || {
        let mut handle = build_sim(&config);
        let t = Instant::now();
        let mut now_us = 0u64;
        while now_us < cap_us {
            now_us = (now_us + 250_000).min(cap_us);
            handle.sim.run_until(hh_net::SimTime(now_us));
            let best = (0..handle.n_validators)
                .map(|i| handle.validator(i).current_round().0)
                .max()
                .unwrap_or(0);
            if best >= SIM_TARGET_ROUND {
                break;
            }
        }
        let wall = t.elapsed().as_nanos() as f64;
        sim_events = handle.sim.stats().events;
        wall
    };
    let _ = sim_run_ns();
    let mut sim_wall_ns = f64::INFINITY;
    for _ in 0..7 {
        sim_wall_ns = sim_wall_ns.min(sim_run_ns());
    }
    let sim_events_per_sec = sim_events as f64 / (sim_wall_ns / 1e9).max(1e-9);

    // The full harness path (build + drive + safety audit) must agree on
    // the event count, so the loop-only number above describes the same
    // run the scenario engine executes.
    let (harness, _end_us) = run_sim_limited(&config, RunLimit::Rounds(SIM_TARGET_ROUND));
    assert_eq!(
        harness.sim.stats().events,
        sim_events,
        "loop-only probe diverged from run_sim_limited"
    );

    let probe = |walk: f64, reach: f64, sub: f64, eps: f64| {
        Json::object()
            .with("commit_walk_ns_per_vertex", Json::Float(walk))
            .with("reachable_ns", Json::Float(reach))
            .with("causal_sub_dag_ns", Json::Float(sub))
            .with("sim_events_per_sec", Json::Float(eps))
    };
    let report = Json::object()
        .with("bench", Json::Str("hotpath".into()))
        .with(
            "setup",
            Json::object()
                .with("committee", Json::Int(COMMITTEE as i64))
                .with("rounds", Json::Int(ROUNDS as i64)),
        )
        .with(
            "baseline",
            probe(
                BASELINE_COMMIT_WALK_NS,
                BASELINE_REACHABLE_NS,
                BASELINE_CAUSAL_SUB_DAG_NS,
                BASELINE_SIM_EVENTS_PER_SEC,
            ),
        )
        .with(
            "current",
            probe(commit_walk_ns, reachable_ns, causal_sub_dag_ns, sim_events_per_sec),
        );
    let rendered = report.render();

    println!(
        "hotpath: commit walk {:.0} ns/vertex | reachable {:.0} ns | causal_sub_dag {:.0} ns | \
         {:.0} sim events/s",
        commit_walk_ns, reachable_ns, causal_sub_dag_ns, sim_events_per_sec
    );
    if BASELINE_COMMIT_WALK_NS > 0.0 {
        println!(
            "         vs baseline: commit walk {:.1}x | reachable {:.1}x | causal_sub_dag {:.1}x",
            BASELINE_COMMIT_WALK_NS / commit_walk_ns,
            BASELINE_REACHABLE_NS / reachable_ns,
            BASELINE_CAUSAL_SUB_DAG_NS / causal_sub_dag_ns
        );
    }
    if let Some(path) = out_path {
        std::fs::write(&path, &rendered).expect("write report");
        println!("wrote {path}");
    }
    if let Some(floor) = min_speedup {
        let speedup = BASELINE_COMMIT_WALK_NS / commit_walk_ns;
        if speedup < floor {
            eprintln!(
                "FAIL: commit walk speedup {speedup:.1}x below the --min-speedup {floor}x floor \
                 ({commit_walk_ns:.0} ns/vertex vs baseline {BASELINE_COMMIT_WALK_NS:.0})"
            );
            std::process::exit(1);
        }
        println!("commit walk speedup {speedup:.1}x >= {floor}x floor: ok");
    }
    if let Some(floor) = min_sim_events {
        if sim_events_per_sec < floor {
            eprintln!(
                "FAIL: {sim_events_per_sec:.0} sim events/s below the --min-sim-events \
                 {floor:.0} floor"
            );
            std::process::exit(1);
        }
        println!("sim throughput {sim_events_per_sec:.0} events/s >= {floor:.0} floor: ok");
    }
}
