//! The `sim_*` workloads: the deterministic simulator on the paper's
//! crash-fault shape (`fig2_faults`: the last `f` validators down from
//! t=0, 13-region geo latency matrix), repeated back to back in one
//! process. Host time, processor time and memory are measured; the
//! simulated latency and throughput are seed-exact and must agree
//! between repetitions.

use crate::spans::Tracer;
use crate::stats::percentile;
use crate::{procstat, Outcome, RunCtx};
use hh_net::{NodeId, SimTime};
use hh_sim::{
    build_sim, collect_metrics, prof, ExperimentConfig, FaultSchedule, RunResult, SystemKind,
};
use std::time::{Duration, Instant};

/// One simulator workload.
#[derive(Clone, Copy, Debug)]
pub struct SimWorkload {
    pub committee: usize,
    pub crashed: usize,
    pub load_tps: u64,
    /// Simulated seconds per repetition.
    pub sim_secs: u64,
    /// Simulated seconds dropped from the latency statistics.
    pub warmup_secs: u64,
}

/// `build_sim` calls timed in one go, and how often in a repetition: an
/// untraced run times set-up between the slices of its event loops, so
/// that the samples are spread evenly over the whole run; `setup_s` is
/// the least-disturbed one of them all. The places are fixed, not timed,
/// so that one seed always makes the same allocations in the same order.
const SETUPS: usize = 10;
const SETUP_WINDOWS: u64 = 15;
/// Fewest untraced repetitions of the event loop in a run, however long
/// they take: the second is the first one on a warm heap, and the check
/// that the run is deterministic needs two.
const MIN_REPS: usize = 2;

fn config(spec: &SimWorkload, seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper(SystemKind::Hammerhead, spec.committee, spec.load_tps);
    config.duration_secs = spec.sim_secs;
    config.warmup_secs = spec.warmup_secs;
    config.faults = FaultSchedule::crash_last(spec.committee, spec.crashed)
        .expect("workload crash counts are within f");
    config.seed = seed;
    config
}

/// One repetition: the event loop alone is timed; the safety audit and
/// metric collection happen after the clock stops.
struct Rep {
    /// Host seconds of the whole event loop.
    wall_s: f64,
    /// Host and processor seconds of each simulated second of it.
    slices: Vec<(f64, f64)>,
    events: u64,
    delivered: u64,
    result: RunResult,
    p50_us: u64,
    p99_us: u64,
    safety_clean: bool,
}

fn repetition(
    config: &ExperimentConfig,
    ctx: &RunCtx,
    tracer: &mut Tracer,
    setups: &mut Vec<f64>,
) -> Result<Rep, String> {
    let index = tracer.spans.len() as u64 / 2;
    let (mut handle, _) = tracer.time("sim.build", None, index, || build_sim(config));
    let span = tracer.open("sim.loop", None, index);
    let started = Instant::now();
    // One simulated second per slice, each timed on its own: the time
    // limit is honoured, and a disturbance costs one slice, not the
    // repetition. Slicing `run_until` never reorders events.
    let mut slices = Vec::with_capacity(config.duration_secs as usize);
    let setups_every = (config.duration_secs / SETUP_WINDOWS).max(1);
    for t in 1..=config.duration_secs {
        let (wall, cpu) = (Instant::now(), procstat::own_cpu_seconds());
        handle.sim.run_until(SimTime::from_secs(t));
        slices.push((wall.elapsed().as_secs_f64(), procstat::own_cpu_seconds() - cpu));
        if Instant::now() >= ctx.deadline {
            return Err("simulator repetition exceeded the time limit".into());
        }
        // Set-up samples, outside the slices' clocks. A traced run reports
        // the loop's times and not `setup_s`, and leaves its loop alone.
        if !ctx.trace && t % setups_every == 0 {
            time_setups(config, setups);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    tracer.close(span);
    tracer.set_count(span, handle.sim.stats().events);

    // The drivers' always-on safety audit, by hand: drain every
    // validator's commit records (crashed ones too) into the checker.
    for i in 0..handle.n_validators {
        let records = handle
            .sim
            .node_mut(NodeId(i))
            .as_validator_mut()
            .expect("validator ids come first")
            .take_commit_records();
        handle.safety.observe_all(i as u16, &records);
    }
    let end_us = config.duration_secs * 1_000_000;
    let result = collect_metrics(config, &handle, end_us);

    // Exact nearest-rank percentiles over the same records the harness
    // summarises (its own are histogram estimates and stop at p95).
    let warmup_us = config.warmup_secs * 1_000_000;
    let mut latencies: Vec<u64> = Vec::new();
    for i in config.faults.live_at(handle.n_validators, end_us) {
        latencies.extend(
            handle
                .validator(i)
                .metrics()
                .exec_records
                .iter()
                .filter(|r| r.executed_at <= end_us && r.submitted_at >= warmup_us)
                .map(|r| r.executed_at - r.submitted_at),
        );
    }
    latencies.sort_unstable();
    let stats = handle.sim.stats();
    Ok(Rep {
        wall_s,
        slices,
        events: stats.events,
        delivered: stats.delivered,
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
        safety_clean: handle.safety.is_clean(),
        result,
    })
}

fn least(samples: impl Iterator<Item = f64>) -> f64 {
    samples.fold(f64::INFINITY, f64::min)
}

/// Times `SETUPS` calls of `build_sim`.
fn time_setups(config: &ExperimentConfig, into: &mut Vec<f64>) {
    into.extend((0..SETUPS).map(|_| {
        let t = Instant::now();
        std::hint::black_box(build_sim(config));
        t.elapsed().as_secs_f64()
    }));
}

/// The event loop's least-disturbed `(host, processor)` seconds: slice by
/// slice, the least any repetition took, summed. Every repetition does
/// the same work in the same slice, and contention on a shared host only
/// ever adds time.
fn least_disturbed(reps: &[&[(f64, f64)]]) -> (f64, f64) {
    let slices = reps.iter().map(|r| r.len()).min().unwrap_or(0);
    let sum = |pick: fn(&(f64, f64)) -> f64| -> f64 {
        (0..slices).map(|s| least(reps.iter().map(|r| pick(&r[s])))).sum()
    };
    (sum(|s| s.0), sum(|s| s.1))
}

/// Runs one simulator workload.
///
/// # Errors
///
/// Returns a time-limit overrun. Correctness failures come back in
/// [`Outcome::problems`].
pub fn run(spec: &SimWorkload, ctx: &RunCtx) -> Result<Outcome, String> {
    let config = config(spec, ctx.seed);

    // Untraced repetitions for the length of the run; a traced run adds
    // one with `prof` on.
    // Building a simulator and running its event loop are deterministic
    // work, and contention on a shared host only ever adds time, so the
    // least-disturbed sample is the repeatable one (a median still moved
    // by a third between quiet and busy minutes of the sizing host).
    let mut tracer = Tracer::new();
    let mut setups = Vec::new();
    time_setups(&config, &mut setups);
    let (started, length) = (Instant::now(), Duration::from_secs(ctx.seconds));
    let mut reps = vec![repetition(&config, ctx, &mut tracer, &mut setups)?];
    // What one simulation costs a user; later repetitions add only what
    // the allocator could not reuse, which depends on how many there are.
    let peak_rss_mb = procstat::peak_rss_mb("self").unwrap_or(0.0);
    while reps.len() < MIN_REPS || started.elapsed() < length {
        reps.push(repetition(&config, ctx, &mut tracer, &mut setups)?);
    }
    eprintln!(
        "event-loop wall per repetition: {:?} s",
        reps.iter().map(|r| (r.wall_s * 1e3).round() / 1e3).collect::<Vec<_>>()
    );
    let (wall_s, cpu_s) =
        least_disturbed(&reps.iter().map(|r| r.slices.as_slice()).collect::<Vec<_>>());

    let first = &reps[0];
    let mut outcome = Outcome {
        attempted: first.result.executed + first.result.shed,
        failed: first.result.shed,
        ..Outcome::default()
    };
    for (i, rep) in reps.iter().enumerate() {
        if !rep.result.agreement_ok {
            outcome
                .problems
                .push(format!("repetition {i}: validators disagree on the commit order"));
        }
        if !rep.safety_clean || rep.result.safety_violations > 0 {
            outcome.problems.push(format!("repetition {i}: safety checker violation"));
        }
        if rep.result.chain_hash != first.result.chain_hash || rep.events != first.events {
            outcome.problems.push(format!("repetition {i} diverged from repetition 0 on one seed"));
        }
    }
    if first.result.executed == 0 || first.result.commits == 0 {
        outcome.problems.push("the simulated committee committed nothing".into());
    }

    let mut traced: Option<(Rep, prof::NetProf, prof::CryptoProf)> = None;
    if ctx.trace {
        let (net0, crypto0) = (prof::net_snapshot(), prof::crypto_snapshot());
        prof::set_enabled(true);
        let rep = repetition(&config, ctx, &mut tracer, &mut setups);
        prof::set_enabled(false);
        let rep = rep?;
        if rep.result.chain_hash != first.result.chain_hash {
            outcome.problems.push("profiling changed the simulated outcome".into());
        }
        traced =
            Some((rep, prof::net_snapshot().since(&net0), prof::crypto_snapshot().since(&crypto0)));
    }

    let executed = (first.result.executed as f64).max(1.0);
    let mut put = |name: &str, value: f64| outcome.metrics.push((name.to_string(), value));
    put("sim_latency_p50_ms", first.p50_us as f64 / 1e3);
    put("sim_throughput_tps", first.result.throughput_tps);
    put("peak_rss_mb", peak_rss_mb);
    put("setup_s", least(setups.iter().copied()));
    put("sim.cpu_us_per_tx", cpu_s * 1e6 / executed);
    put("sim.wall_s", wall_s);
    put("sim.latency_p99_ms", first.p99_us as f64 / 1e3);
    put("sim.events", first.events as f64);
    put("sim.events_per_s", first.events as f64 / wall_s.max(1e-9));
    put("sim.commits", first.result.commits as f64);
    put("sim.leader_timeouts", first.result.leader_timeouts as f64);
    put("sim.msgs_per_commit", first.delivered as f64 / (first.result.commits as f64).max(1.0));
    if let Some((rep, net, crypto)) = &traced {
        let loop_ns = rep.wall_s * 1e9;
        put("sim.queue_share", net.queue_ns as f64 / loop_ns);
        put("sim.deliver_share", net.deliver_ns as f64 / loop_ns);
        put("sim.timers_share", net.timer_ns as f64 / loop_ns);
        put("sim.digest_share", crypto.digest_ns as f64 / loop_ns);
        put("sim.sig_share", crypto.sig_ns as f64 / loop_ns);
        // Whole repetition against whole repetition.
        let untraced = least(reps.iter().map(|r| r.wall_s));
        put("sim.trace_overhead_ratio", (rep.wall_s - untraced) / untraced.max(1e-9));
    }
    outcome.tracer = tracer;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_disturbed_takes_each_slice_from_its_quietest_repetition() {
        // A disturbance hit a different slice of each repetition, and host
        // and processor time need not be least in the same one.
        let a = [(1.0, 0.9), (5.0, 2.5), (3.0, 2.0)];
        let b = [(4.0, 0.8), (2.0, 1.9), (3.5, 3.0)];
        assert_eq!(least_disturbed(&[&a, &b]), (1.0 + 2.0 + 3.0, 0.8 + 1.9 + 2.0));
        assert_eq!(least_disturbed(&[&a]), (9.0, 5.4));
        assert_eq!(least_disturbed(&[]), (0.0, 0.0));
    }
}
