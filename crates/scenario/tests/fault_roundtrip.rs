//! Property tests round-tripping random fault schedules through the
//! whole declaration pipeline: generated `FaultsSpec` → canonical TOML →
//! re-parsed `ScenarioSpec` → planned `ExperimentConfig` →
//! `hh_sim::FaultSchedule` → the `hh_net::Simulator` executing it.
//!
//! Five invariants: the canonical TOML re-parses to an equal spec —
//! also when the generator has broken a rule, since whether a schedule
//! is runnable is `plan()`'s call alone — and plans to the same verdict
//! in the same words; the planned schedule contains exactly the generated
//! events; the schedule's indexed `crashed_at` equals a linear scan of
//! its events; and a simulator driven under the schedule has exactly the
//! nodes down that `crashed_at` says are down.

use hh_net::{Context, NetworkConfig, Node, NodeId, SimTime, Simulator};
use hh_scenario::{
    NodeSel, PartitionEntry, PartitionSel, PlanOptions, ScenarioSpec, SlowdownEntry,
    TimedFaultEntry, WhenSpec,
};
use hh_sim::FaultEvent;
use proptest::prelude::*;

mod common;
use common::Mix;

const DURATION_SECS: u64 = 20;

/// A random instant, quantized so frac and secs forms both resolve
/// exactly: whole seconds, or quarter fractions of the 20s run.
fn random_when(rng: &mut Mix, lo_secs: u64, hi_secs: u64) -> WhenSpec {
    let secs = lo_secs + rng.below(hi_secs.saturating_sub(lo_secs).max(1));
    if rng.below(3) == 0 && secs.is_multiple_of(5) {
        WhenSpec::Frac(secs as f64 / DURATION_SECS as f64)
    } else {
        WhenSpec::Secs(secs)
    }
}

fn base_spec(n: usize) -> ScenarioSpec {
    ScenarioSpec::parse(&format!(
        "name = \"fault-roundtrip\"\n[committee]\nsize = {n}\n[run]\nduration_secs = \
         {DURATION_SECS}\nwarmup_secs = 2\n[network]\nmodel = \"flat\"\n"
    ))
    .expect("base spec parses")
}

fn timed(node: u16, at: WhenSpec) -> TimedFaultEntry {
    TimedFaultEntry { nodes: NodeSel::Ids(vec![node]), at }
}

/// Generates a valid dynamic fault spec on `n` validators: at most `f`
/// even-numbered nodes carry a real outage (never concurrent beyond `f`
/// since only those nodes are ever down), sometimes followed by a
/// second, final crash; up to two odd-numbered nodes carry a zero-length
/// outage (recovery at the crash instant), which takes nothing from the
/// `f` budget however the others crash around it; plus optional
/// slowdowns and one partition.
fn random_faults(rng: &mut Mix, n: usize, spec: &mut ScenarioSpec) {
    let f = (n - 1) / 3;
    for node in (0..rng.below(f as u64 + 1)).map(|k| k as u16 * 2) {
        // Crash somewhere in [1, 9]; recover in [10, 18].
        spec.faults.crashes.push(timed(node, random_when(rng, 1, 9)));
        spec.faults.recovers.push(timed(node, random_when(rng, 10, 18)));
        if rng.below(3) == 0 {
            spec.faults.crashes.push(timed(node, WhenSpec::Secs(19)));
        }
    }
    for node in (0..rng.below(3)).map(|k| k as u16 * 2 + 1) {
        let at = random_when(rng, 1, 19);
        spec.faults.crashes.push(timed(node, at));
        spec.faults.recovers.push(timed(node, at));
    }
    for _ in 0..rng.below(3) {
        let from = 1 + rng.below(8);
        spec.faults.slowdowns.push(SlowdownEntry {
            nodes: NodeSel::Ids(vec![rng.below(n as u64) as u16]),
            at: WhenSpec::Secs(from),
            until: if rng.below(2) == 0 {
                Some(WhenSpec::Secs(from + 1 + rng.below(8)))
            } else {
                None
            },
            extra_ms: 1 + rng.below(500),
        });
    }
    if rng.below(2) == 0 {
        let k = 1 + rng.below((n - 1) as u64) as usize;
        let sel = if rng.below(2) == 0 {
            PartitionSel::IsolateFirst(hh_scenario::CountExpr::Abs(k as u64))
        } else {
            PartitionSel::Groups { a: (0..k as u16).collect(), b: (k as u16..n as u16).collect() }
        };
        let from = 1 + rng.below(9);
        spec.faults.partitions.push(PartitionEntry {
            sel,
            from: WhenSpec::Secs(from),
            until: WhenSpec::Secs(from + 1 + rng.below(9)),
        });
    }
}

/// Breaks one rule `FaultSchedule::validate` owns in an otherwise valid
/// spec and returns the words it must be rejected in.
fn spoil_faults(rng: &mut Mix, n: usize, spec: &mut ScenarioSpec) -> &'static str {
    let faults = &mut spec.faults;
    let slowdown = |at, until, extra_ms| SlowdownEntry {
        nodes: NodeSel::Ids(vec![0]),
        at,
        until: Some(until),
        extra_ms,
    };
    let groups = |a: Vec<u16>, b: Vec<u16>| PartitionSel::Groups { a, b };
    let cut = |sel, from, until| PartitionEntry { sel, from, until };
    match rng.below(8) {
        0 => {
            faults.slowdowns.push(slowdown(WhenSpec::Secs(1), WhenSpec::Secs(2), 0));
            "has zero extra delay"
        }
        1 => {
            faults.slowdowns.push(slowdown(WhenSpec::Secs(9), WhenSpec::Secs(3), 5));
            "slowdown window of validator 0 is empty"
        }
        2 => {
            faults.slowdowns.push(slowdown(WhenSpec::Frac(0.5), WhenSpec::Frac(0.5), 5));
            "slowdown window of validator 0 is empty"
        }
        3 => {
            let sel = groups(vec![0, 1], vec![1, 2]);
            faults.partitions.push(cut(sel, WhenSpec::Secs(1), WhenSpec::Secs(2)));
            "validator 1 is on both sides of a partition"
        }
        4 => {
            let sel = groups(vec![], vec![1]);
            faults.partitions.push(cut(sel, WhenSpec::Secs(1), WhenSpec::Secs(2)));
            "partition groups must both be non-empty"
        }
        5 => {
            let sel = groups(vec![0], vec![1]);
            faults.partitions.push(cut(sel, WhenSpec::Frac(0.75), WhenSpec::Frac(0.25)));
            "partition window is empty"
        }
        6 => {
            // Everyone the generator never crashes for real, at once.
            faults.crashes.clear();
            faults.recovers.clear();
            faults.crashed = (0..=(n as u16 - 1) / 3).collect();
            "validators crashed at once at 0µs exceeds f"
        }
        _ => {
            faults.crashed = vec![n as u16];
            "is outside the committee"
        }
    }
}

/// The linear-scan definition of "crashed at `t_us`": crashed at or
/// before, with no recovery at or after that crash up to `t_us`. The
/// oracle for the schedule's binary-searched timeline.
fn linear_scan_crashed_at(events: &[FaultEvent], node: u16, t_us: u64) -> bool {
    let last_crash = events
        .iter()
        .filter_map(|e| match e {
            FaultEvent::Crash { node: n, at_us } if *n == node && *at_us <= t_us => Some(*at_us),
            _ => None,
        })
        .max();
    let Some(crash_us) = last_crash else {
        return false;
    };
    !events.iter().any(|e| {
        matches!(e, FaultEvent::Recover { node: n, at_us }
            if *n == node && *at_us >= crash_us && *at_us <= t_us)
    })
}

/// A node that does nothing, so the simulator's crash bookkeeping is all
/// that runs.
struct Inert;

impl Node for Inert {
    type Message = ();
    fn on_start(&mut self, _ctx: &mut Context<'_, ()>) {}
    fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut Context<'_, ()>) {}
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, ()>) {}
}

/// The µs instant a generated `WhenSpec` resolves to.
fn resolve(when: WhenSpec) -> u64 {
    when.resolve_us(DURATION_SECS).expect("generated instants are small")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn fault_schedules_round_trip_to_the_simulator(
        n in 4usize..11,
        seed in any::<u64>(),
    ) {
        let mut rng = Mix(seed);
        let mut spec = base_spec(n);
        random_faults(&mut rng, n, &mut spec);
        let spoiled = (rng.below(4) == 0).then(|| spoil_faults(&mut rng, n, &mut spec));

        if common::assert_round_trip(&spec, "fault schedule", spoiled) {
            assert_lowers_and_executes(&spec, n, seed);
        }
    }
}

/// Invariants two to four, for a spec that plans.
fn assert_lowers_and_executes(spec: &ScenarioSpec, n: usize, seed: u64) {
    // Planning lowers to a validated FaultSchedule with exactly the
    // generated events.
    let plan = spec
        .plan(&PlanOptions::default())
        .unwrap_or_else(|e| panic!("valid schedule rejected: {e}\n{}", spec.to_toml()));
    prop_assert_eq!(plan.runs.len(), 1);
    let schedule = &plan.runs[0].config.faults;

    let mut expected: Vec<FaultEvent> = Vec::new();
    for entry in &spec.faults.crashes {
        if let NodeSel::Ids(ids) = &entry.nodes {
            expected.push(FaultEvent::Crash { node: ids[0], at_us: resolve(entry.at) });
        }
    }
    for entry in &spec.faults.recovers {
        if let NodeSel::Ids(ids) = &entry.nodes {
            expected.push(FaultEvent::Recover { node: ids[0], at_us: resolve(entry.at) });
        }
    }
    for entry in &spec.faults.slowdowns {
        if let NodeSel::Ids(ids) = &entry.nodes {
            expected.push(FaultEvent::Slowdown {
                node: ids[0],
                from_us: resolve(entry.at),
                until_us: entry.until.map(resolve).unwrap_or(u64::MAX),
                extra_us: entry.extra_ms * 1000,
            });
        }
    }
    for entry in &spec.faults.partitions {
        let (a, b) = match &entry.sel {
            PartitionSel::Groups { a, b } => (a.clone(), b.clone()),
            PartitionSel::IsolateFirst(count) => {
                let k = count.resolve(n).min(n - 1);
                ((0..k as u16).collect(), (k as u16..n as u16).collect())
            }
        };
        expected.push(FaultEvent::Partition {
            group_a: a,
            group_b: b,
            from_us: resolve(entry.from),
            until_us: resolve(entry.until),
        });
    }
    prop_assert_eq!(schedule.events(), expected.as_slice());

    // One answer to "who is down": at every crash / recovery instant
    // ± 1 µs the indexed query equals the linear scan, and the
    // simulator's `Crash` / `Recover` queue events have left exactly
    // those nodes down.
    let mut probes = vec![0, DURATION_SECS * 1_000_000];
    for (_, at_us) in schedule.crashes().into_iter().chain(schedule.recoveries()) {
        probes.extend([at_us - 1, at_us, at_us + 1]);
    }
    probes.sort_unstable();
    let net = NetworkConfig { faults: schedule.clone(), ..NetworkConfig::default() };
    let mut sim = Simulator::new((0..n).map(|_| Inert).collect(), net, seed);
    for t in probes {
        sim.run_until(SimTime(t));
        for node in 0..n as u16 {
            let down = schedule.crashed_at(node, t);
            prop_assert_eq!(
                down,
                linear_scan_crashed_at(schedule.events(), node, t),
                "index and scan disagree for v{} at {}µs",
                node,
                t
            );
            prop_assert_eq!(
                sim.is_crashed(NodeId(node as usize)),
                down,
                "simulator and schedule disagree for v{} at {}µs",
                node,
                t
            );
        }
    }
}
