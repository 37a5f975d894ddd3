//! The `node4_*` workloads: a 4-node `hh-node` committee on loopback
//! under open-loop Poisson load, measured from outside, then stopped
//! gracefully and audited from its write-ahead logs.
//!
//! No message delay is injected between the nodes (plain loopback), so
//! what a client sees is round pacing + protocol timers + processor time.

use crate::fleet::{Fleet, Knobs, Status, TEMPLATE};
use crate::loadgen::{account, poisson_arrivals, run_load, Accounting, LoadLog, SplitMix64, NEVER};
use crate::spans::Tracer;
use crate::stats::{median, percentile, sliced_percentile, supported_tail};
use crate::{procstat, Outcome, RunCtx};
use hammerhead::{HammerheadConfig, ScheduleConfig, Validator, ValidatorConfig};
use hh_sim::SafetyChecker;
use hh_storage::{FileBackend, Wal};
use hh_types::{Committee, ValidatorId};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Committee size of every node workload.
const COMMITTEE: usize = 4;
/// Load before the measured window; its samples are dropped.
const WARMUP: Duration = Duration::from_secs(3);
/// A transaction with no `Confirm` this long after the last submit failed.
const CONFIRM_TIMEOUT: Duration = Duration::from_secs(5);
/// Set-up is "spawn → every node's status shows this round": the
/// committee is connected and pacing. Later rounds are no steadier a mark:
/// from round 3 on a start-up leader timeout hits about half the boots.
const READY_ROUND: u64 = 2;
/// Committees brought up and timed per run; `setup_s` is the median.
const SETUPS: usize = 5;
/// Longest a committee may take to reach its ready round.
const BOOT_LIMIT: Duration = Duration::from_secs(30);
/// How long a node gets to exit after its stdin closes.
const STOP_GRACE: Duration = Duration::from_secs(10);
/// How often the main thread polls the committee under load.
const POLL: Duration = Duration::from_millis(50);
/// Status period of the timed committees, so `setup_s` resolves 5 ms;
/// the committee under load keeps the template's 250 ms.
const SETUP_STATUS_MS: u64 = 5;
/// The committee under load takes traffic once it shows this round.
const LOAD_READY_ROUND: u64 = 10;
/// Most transactions whose spans a traced run writes out.
const TRACED_TXS: usize = 40_000;
/// The slices whose p99 `node.confirm_p99_sliced_ms` is the median of.
const SLICE_US: u64 = 1_000_000;

/// SIGKILL `victim` at `kill_at` (from load start), respawn it on the
/// same WAL at `respawn_at`.
#[derive(Clone, Copy, Debug)]
pub struct KillPlan {
    pub victim: usize,
    pub kill_at: Duration,
    pub respawn_at: Duration,
}

/// One node workload.
#[derive(Clone, Copy, Debug)]
pub struct NodeWorkload {
    pub name: &'static str,
    /// Offered load, open loop, Poisson.
    pub rate_tps: u64,
    /// Crash test (the `node4_restart` scenario only).
    pub kill: Option<KillPlan>,
}

/// Deliberate faults that must make the correctness gate fail; used to
/// show that the gate works (`--inject`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Inject {
    #[default]
    None,
    /// Flip one byte in the middle of node 2's WAL before the audit.
    CorruptWal,
    /// SIGKILL node 1 instead of stopping it gracefully.
    KillNode,
}

/// The validator configuration `hh-node` derives from the `[validator]`
/// table, rebuilt here from the same values for the WAL audit.
fn audit_config(knobs: &Knobs) -> ValidatorConfig {
    ValidatorConfig {
        schedule: match knobs.schedule {
            "hammerhead" => ScheduleConfig::Hammerhead(HammerheadConfig::default()),
            _ => ScheduleConfig::RoundRobin,
        },
        min_round_delay_us: knobs.min_round_delay_ms * 1_000,
        leader_timeout_us: knobs.leader_timeout_ms * 1_000,
        sync_tick_us: knobs.sync_tick_ms * 1_000,
        exec_rate_tps: knobs.exec_rate_tps,
        ..ValidatorConfig::default()
    }
}

/// What replaying one node's WAL recomputed.
struct Audit {
    commits: u64,
    cround: u64,
    records: usize,
    replay_ns: u64,
    diverged: bool,
    commit_records: Vec<hammerhead::CommitRecord>,
}

/// Replays a *copy* of `wal` through a fresh validator: recovery appends
/// a fresh proposal, and the audit must not grow what it audits.
fn audit_wal(wal: &Path, id: usize, knobs: &Knobs) -> Result<Audit, String> {
    let copy = wal.with_extension("audit");
    std::fs::copy(wal, &copy).map_err(|e| format!("copy {}: {e}", wal.display()))?;
    let open = || FileBackend::open(&copy).map_err(|e| format!("open audit WAL: {e}"));
    let records = Wal::new(open()?).replay().map_err(|e| format!("read audit WAL: {e}"))?.len();
    let mut v = Validator::new(
        Committee::new_equal_stake(COMMITTEE),
        ValidatorId(id as u16),
        audit_config(knobs),
        Some(open()?),
    );
    let t = Instant::now();
    v.on_restart(0);
    let replay_ns = t.elapsed().as_nanos() as u64;
    if v.is_halted() {
        return Err(format!("node {id}: WAL replay hit a storage error"));
    }
    Ok(Audit {
        commits: v.commit_count(),
        cround: v.committed_anchors().last().map_or(0, |a| a.round.0),
        records,
        replay_ns,
        diverged: v.metrics().recovery_divergence,
        commit_records: v.take_commit_records(),
    })
}

/// Status lines of one node seen inside `[from, to]`.
fn window(statuses: &[Status], from: Instant, to: Instant) -> &[Status] {
    let lo = statuses.partition_point(|s| s.seen < from);
    let hi = statuses.partition_point(|s| s.seen <= to);
    &statuses[lo..hi.max(lo)]
}

/// Longest pause between consecutive confirmation arrivals at or after
/// `from_us`, counting the stretch from the last one to `until_us`.
fn longest_gap_us(confirm_us: &[u64], from_us: u64, until_us: u64) -> u64 {
    let mut arrivals: Vec<u64> =
        confirm_us.iter().copied().filter(|t| *t != NEVER && *t >= from_us).collect();
    arrivals.sort_unstable();
    let mut longest = 0;
    let mut prev = from_us;
    for t in arrivals.into_iter().chain([until_us.max(from_us)]) {
        longest = longest.max(t.saturating_sub(prev));
        prev = prev.max(t);
    }
    longest
}

/// Runs one node workload end to end.
///
/// # Errors
///
/// Returns infrastructure failures (spawn, socket, timeout). A run that
/// completed but failed its correctness gate comes back as an
/// [`Outcome`] with `problems`.
pub fn run(spec: &NodeWorkload, ctx: &RunCtx, inject: Inject) -> Result<Outcome, String> {
    if !ctx.node_bin.is_file() {
        return Err(format!(
            "{} not found: `perfbench/run.sh --scenario ...` builds it; or build it with \
             `cargo build --release -p hh-node` into the benchmark's target directory, or pass \
             --node-bin",
            ctx.node_bin.display()
        ));
    }
    let dir = ctx.work_root.join(format!("{}-seed{}-{}", spec.name, ctx.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_in(spec, ctx, inject, &dir);
    let orphans = procstat::children_named("hh-node");
    let result = result.map(|mut outcome| {
        if !orphans.is_empty() {
            outcome.problems.push(format!("orphaned hh-node processes: {orphans:?}"));
        }
        outcome
    });
    match &result {
        Ok(outcome) if outcome.problems.is_empty() => {
            let _ = std::fs::remove_dir_all(&dir);
        }
        _ => eprintln!("artifacts (configs, node output, WALs) kept at {}", dir.display()),
    }
    result
}

/// Brings up `SETUPS` committees one after the other and times each
/// from spawn to the round that shows it pacing.
fn time_setups(ctx: &RunCtx, dir: &Path, knobs: Knobs) -> Result<Vec<f64>, String> {
    let timed = Knobs { status_interval_ms: SETUP_STATUS_MS, ..knobs };
    (0..SETUPS)
        .map(|i| {
            let started = Instant::now();
            let dir = dir.join(format!("setup-{i}"));
            let mut fleet = Fleet::spawn(&ctx.node_bin, &dir, COMMITTEE, timed)?;
            fleet.wait_for_round(READY_ROUND, ctx.deadline.min(started + BOOT_LIMIT))?;
            let took = started.elapsed().as_secs_f64();
            fleet.stop(STOP_GRACE)?;
            Ok(took)
        })
        .collect()
}

/// What the main thread saw while the generator threads ran.
struct Watched {
    log: LoadLog,
    /// Committee CPU seconds `(user, system)` spent inside the window.
    cpu_window: (f64, f64),
    /// The benchmark's own CPU seconds and wall seconds over the load.
    generator: (f64, f64),
    killed_at: Option<Instant>,
    /// Respawn → victim's committed round within 4 of the best.
    catchup: Option<Duration>,
}

/// Runs the load from two generator threads while this thread polls the
/// committee, samples its CPU at the window's edges and executes the
/// kill plan.
fn drive_load(
    spec: &NodeWorkload,
    ctx: &RunCtx,
    fleet: &mut Fleet,
    due_us: &[u64],
    origin: Instant,
    window: (Instant, Instant),
) -> Result<Watched, String> {
    let conns = ctx.nproc.clamp(1, COMMITTEE);
    let addrs: Vec<_> = fleet.nodes[..conns].iter().map(|n| n.addr).collect();
    let abort = AtomicBool::new(false);
    let self_cpu_start = procstat::cpu_seconds("self").unwrap_or(0.0);
    let mut cpu_window: [Option<(f64, f64)>; 2] = [None, None];
    let (mut killed_at, mut respawned_at, mut catchup) = (None, None, None);

    let log = std::thread::scope(|scope| {
        let generator = scope
            .spawn(|| run_load(&addrs, COMMITTEE as u16, due_us, origin, CONFIRM_TIMEOUT, &abort));
        let mut watch = || -> Result<(), String> {
            while !generator.is_finished() {
                let now = Instant::now();
                fleet.poll()?;
                if now >= ctx.deadline {
                    return Err(format!("{} exceeded its time limit", spec.name));
                }
                for (slot, at) in cpu_window.iter_mut().zip([window.0, window.1]) {
                    if slot.is_none() && now >= at {
                        *slot = Some(fleet.cpu_seconds());
                    }
                }
                if let Some(plan) = spec.kill {
                    if killed_at.is_none() && now >= origin + plan.kill_at {
                        fleet.kill(plan.victim);
                        killed_at = Some(now);
                    }
                    if respawned_at.is_none() && now >= origin + plan.respawn_at {
                        fleet.respawn(plan.victim)?;
                        respawned_at = Some(now);
                    }
                    if let (Some(back), None) = (respawned_at, catchup) {
                        let best = fleet.nodes.iter().filter_map(|n| n.last_status());
                        let best = best.map(|s| s.cround).max().unwrap_or(0);
                        let victim = fleet.nodes[plan.victim].last_status();
                        if victim.is_some_and(|s| s.seen > back && s.cround + 4 >= best) {
                            catchup = Some(now - back);
                        }
                    }
                }
                // Sleep to the next poll or the next sampling instant.
                let edge = [window.0, window.1].into_iter().filter(|t| *t > now).min();
                std::thread::sleep(edge.map_or(POLL, |t| (t - now).min(POLL)));
            }
            Ok(())
        };
        let watched = watch();
        if watched.is_err() {
            abort.store(true, Ordering::SeqCst);
        }
        let log = generator.join().map_err(|_| "load generator panicked".to_string())?;
        watched.and(log)
    })?;

    let generator = (
        procstat::cpu_seconds("self").unwrap_or(0.0) - self_cpu_start,
        origin.elapsed().as_secs_f64(),
    );
    let [Some(start), Some(end)] = cpu_window else {
        return Err("load ended before the measured window closed".into());
    };
    let cpu_window = (end.0 - start.0, end.1 - start.1);
    Ok(Watched { log, cpu_window, generator, killed_at, catchup })
}

/// What the correctness gate measured on its way.
#[derive(Default)]
struct Audited {
    problems: Vec<String>,
    wal_bytes: u64,
    replay_ns: u64,
    records: usize,
    /// Committed round of every cleanly stopped node.
    final_crounds: Vec<u64>,
}

/// Stops the committee and audits it: clean `HH-FINAL` lines, every WAL
/// replaying to what its node reported, the safety checker across all.
fn stop_and_audit(fleet: &mut Fleet, knobs: &Knobs, inject: Inject) -> Result<Audited, String> {
    let mut audited = Audited::default();
    if inject == Inject::KillNode {
        fleet.kill(1);
    }
    if let Err(e) = fleet.stop(STOP_GRACE) {
        audited.problems.push(format!("unclean shutdown: {e}"));
    }
    if inject == Inject::CorruptWal {
        let wal = &fleet.nodes[2].wal;
        let mut bytes = std::fs::read(wal).map_err(|e| format!("read WAL: {e}"))?;
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        std::fs::write(wal, bytes).map_err(|e| format!("write WAL: {e}"))?;
    }
    let mut checker = SafetyChecker::new();
    for (i, node) in fleet.nodes.iter().enumerate() {
        audited.wal_bytes += std::fs::metadata(&node.wal).map_or(0, |m| m.len());
        let Some(fin) = node.final_line.filter(|f| f.clean) else {
            audited.problems.push(format!("node {i} printed no `HH-FINAL ... clean=true`"));
            continue;
        };
        audited.final_crounds.push(fin.cround);
        match audit_wal(&node.wal, i, knobs) {
            Ok(audit) => {
                checker.observe_all(i as u16, &audit.commit_records);
                audited.replay_ns += audit.replay_ns;
                audited.records += audit.records;
                if audit.diverged {
                    audited
                        .problems
                        .push(format!("node {i}: replay diverges from its last checkpoint"));
                }
                if (audit.commits, audit.cround) != (fin.commits, fin.cround) {
                    audited.problems.push(format!(
                        "node {i}: WAL replays to {} commits / round {}, the node reported {} / {}",
                        audit.commits, audit.cround, fin.commits, fin.cround
                    ));
                }
            }
            Err(e) => audited.problems.push(e),
        }
    }
    if !checker.is_clean() {
        audited.problems.push(format!(
            "safety checker: {} violation(s) across the WALs",
            checker.violations().len()
        ));
    }
    Ok(audited)
}

/// Per-node progress inside the window, read off the status lines.
#[derive(Default)]
struct Progress {
    /// Mean over nodes.
    rounds_per_s: f64,
    commits_per_s: f64,
    rounds_advanced: f64,
    /// Status intervals that advanced less than half the paced ideal, on
    /// the worst node.
    stall_intervals: u64,
}

fn progress(fleet: &Fleet, knobs: &Knobs, from: Instant, to: Instant) -> Progress {
    let ideal_per_interval = knobs.status_interval_ms as f64 / knobs.min_round_delay_ms as f64;
    let mut total = Progress::default();
    let mut observed = 0.0;
    for node in &fleet.nodes {
        let seen = window(&node.statuses, from, to);
        let (Some(first), Some(last)) = (seen.first(), seen.last()) else { continue };
        let span_s = (last.seen - first.seen).as_secs_f64();
        if span_s <= 0.0 {
            continue;
        }
        observed += 1.0;
        total.rounds_per_s += (last.round - first.round) as f64 / span_s;
        total.commits_per_s += (last.commits - first.commits) as f64 / span_s;
        total.rounds_advanced += (last.round - first.round) as f64;
        let stalled = seen
            .windows(2)
            .filter(|w| ((w[1].round - w[0].round) as f64) < ideal_per_interval / 2.0)
            .count() as u64;
        total.stall_intervals = total.stall_intervals.max(stalled);
    }
    if observed > 0.0 {
        total.rounds_per_s /= observed;
        total.commits_per_s /= observed;
        total.rounds_advanced /= observed;
    }
    total
}

/// Outside-only spans: one root per transaction (due → confirm) with the
/// generator's wait and the committee's time as children, and one span
/// per node per status interval counting the rounds it advanced.
fn record_spans(
    tracer: &mut Tracer,
    fleet: &Fleet,
    due_us: &[u64],
    log: &LoadLog,
    warmup_us: u64,
    origin: Instant,
) {
    let ns = |us: u64| us * 1_000;
    // Every k-th transaction, so the trace file stays a few MB.
    let stride = due_us.len().div_ceil(TRACED_TXS).max(1);
    for (k, ((&due, &sent), &confirm)) in
        due_us.iter().zip(&log.sent_us).zip(&log.confirm_us).enumerate().step_by(stride)
    {
        if due < warmup_us || sent == NEVER || confirm == NEVER {
            continue;
        }
        let root = tracer.record("tx", None, k as u64, ns(due), ns(confirm));
        tracer.record("gen.submit", Some(root), k as u64, ns(due), ns(sent));
        tracer.record("node.confirm", Some(root), k as u64, ns(sent), ns(confirm));
    }
    for (i, node) in fleet.nodes.iter().enumerate() {
        for w in node.statuses.windows(2).filter(|w| w[0].seen >= origin) {
            let at = |s: &Status| (s.seen - origin).as_nanos() as u64;
            let id = tracer.record("node.rounds", None, i as u64, at(&w[0]), at(&w[1]));
            tracer.set_count(id, w[1].round.saturating_sub(w[0].round));
        }
    }
}

fn run_in(
    spec: &NodeWorkload,
    ctx: &RunCtx,
    inject: Inject,
    dir: &Path,
) -> Result<Outcome, String> {
    let knobs = TEMPLATE;
    let setup_s = time_setups(ctx, dir, knobs)?;

    // The committee that takes the load, on the shipped knobs.
    let started = Instant::now();
    let mut fleet = Fleet::spawn(&ctx.node_bin, &dir.join("fleet"), COMMITTEE, knobs)?;
    fleet.wait_for_round(LOAD_READY_ROUND, ctx.deadline.min(started + BOOT_LIMIT))?;

    // Inputs: the whole submit schedule, from the seed, before any load.
    let measured = Duration::from_secs(ctx.seconds);
    let warmup_us = WARMUP.as_micros() as u64;
    let load_us = (WARMUP + measured).as_micros() as u64;
    let mut rng = SplitMix64(ctx.seed);
    let mut due_us = poisson_arrivals(&mut rng, spec.rate_tps, 0, warmup_us);
    due_us.extend(poisson_arrivals(&mut rng, spec.rate_tps, warmup_us, load_us));

    let origin = Instant::now();
    let (t0, t1) = (origin + WARMUP, origin + WARMUP + measured);
    let watched = drive_load(spec, ctx, &mut fleet, &due_us, origin, (t0, t1))?;
    let log = &watched.log;
    fleet.poll()?;
    let peak_rss_mb = fleet.peak_rss_mb();

    let mut audited = stop_and_audit(&mut fleet, &knobs, inject)?;
    if log.duplicates > 0 || log.unknown > 0 {
        audited.problems.push(format!(
            "{} transaction(s) confirmed twice, {} unknown id(s) confirmed",
            log.duplicates, log.unknown
        ));
    }

    // Accounting over the measured window.
    let acc: Accounting = account(&due_us, &log.sent_us, &log.confirm_us, warmup_us, load_us);
    let confirmed = acc.latencies_us.len();
    if spec.kill.is_none() && supported_tail(confirmed).is_none_or(|p| p < 99.0) {
        audited.problems.push(format!("{confirmed} confirmed samples do not support a p99"));
    }
    let ms = |us: u64| us as f64 / 1e3;
    let percentile_ms = |p: f64| ms(percentile(&acc.latencies_us, p));
    let confirmed_f = (confirmed as f64).max(1.0);
    let served_s = acc.last_confirm_us.saturating_sub(warmup_us) as f64 / 1e6;
    let (cpu_user_s, cpu_system_s) = watched.cpu_window;
    let cpu_s = cpu_user_s + cpu_system_s;
    let pace = progress(&fleet, &knobs, t0, t1);
    let all_confirmed = log.confirm_us.iter().filter(|t| **t != NEVER).count().max(1) as f64;
    let skew = audited.final_crounds.iter().max().zip(audited.final_crounds.iter().min());

    let mut outcome = Outcome {
        attempted: acc.attempted,
        failed: acc.failed,
        problems: audited.problems,
        ..Outcome::default()
    };
    let mut put = |name: &str, value: f64| outcome.metrics.push((name.to_string(), value));
    put("node.cpu_us_per_tx", cpu_s * 1e6 / confirmed_f);
    put("node.peak_rss_mb", peak_rss_mb);
    put("node.setup_s", median(&setup_s));
    put("node.rounds_per_s", pace.rounds_per_s);
    put("node.commits_per_s", pace.commits_per_s);
    put("node.stall_intervals", pace.stall_intervals as f64);
    put("node.commit_skew_rounds", skew.map_or(0.0, |(hi, lo)| (hi - lo) as f64));
    put("node.cpu_us_per_round", cpu_s * 1e6 / pace.rounds_advanced.max(1.0));
    put("node.cpu_user_us_per_tx", cpu_user_s * 1e6 / confirmed_f);
    put("node.cpu_system_us_per_tx", cpu_system_s * 1e6 / confirmed_f);
    put("node.wal_bytes_per_tx", audited.wal_bytes as f64 / all_confirmed);
    put("node.confirm_samples", confirmed as f64);
    put("node.committed_tps", confirmed as f64 / served_s.max(1e-9));
    put("node.confirm_p10_ms", percentile_ms(10.0));
    put("node.confirm_p50_ms", percentile_ms(50.0));
    put("node.confirm_p90_ms", percentile_ms(90.0));
    put("node.confirm_p99_ms", percentile_ms(99.0));
    put(
        "node.confirm_p99_sliced_ms",
        sliced_percentile(&acc.samples, warmup_us, SLICE_US, 99.0) / 1e3,
    );
    put(
        "node.confirm_mean_ms",
        acc.latencies_us.iter().map(|l| *l as f64).sum::<f64>() / confirmed_f / 1e3,
    );
    put("node.gen_late_max_ms", ms(acc.late_max_us));
    put("node.gen_cpu_share", watched.generator.0 / watched.generator.1.max(1e-9));
    put(
        "node.audit_replay_ns_per_record",
        audited.replay_ns as f64 / (audited.records as f64).max(1.0),
    );
    if let (Some(plan), Some(killed)) = (spec.kill, watched.killed_at) {
        let kill_us = (killed - origin).as_micros() as u64;
        let gap_us = longest_gap_us(&log.confirm_us, kill_us, load_us);
        put("node.kill_no_service_ms", ms(gap_us));
        put("node.kill_wedged", f64::from(u8::from(gap_us >= 5_000_000)));
        // Never caught up: charge the whole rest of the run.
        let wait = watched.catchup.unwrap_or(t1 - (origin + plan.respawn_at));
        put("node.restart_catchup_ms", wait.as_secs_f64() * 1e3);
    }
    if ctx.trace {
        record_spans(&mut outcome.tracer, &fleet, &due_us, log, warmup_us, origin);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_gap_counts_the_silence_after_the_last_confirm() {
        let confirms = [1_000, 2_000, NEVER, 9_000, 2_500];
        // From 1 500: 2 000, 2 500, 9 000, then silence until 20 000.
        assert_eq!(longest_gap_us(&confirms, 1_500, 20_000), 11_000);
        assert_eq!(longest_gap_us(&confirms, 1_500, 9_500), 6_500);
        // Nothing after the kill at all: the whole stretch is the gap.
        assert_eq!(longest_gap_us(&confirms, 10_000, 16_000), 6_000);
    }

    #[test]
    fn audit_config_mirrors_the_toml_knobs() {
        let cfg = audit_config(&TEMPLATE);
        assert_eq!(cfg.min_round_delay_us, 40_000);
        assert_eq!(cfg.leader_timeout_us, 400_000);
        assert_eq!(cfg.sync_tick_us, 200_000);
        assert_eq!(cfg.exec_rate_tps, 100_000);
        assert!(matches!(cfg.schedule, ScheduleConfig::Hammerhead(_)));
    }
}
