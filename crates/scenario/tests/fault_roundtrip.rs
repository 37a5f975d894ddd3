//! Property tests round-tripping random fault schedules through the
//! whole declaration pipeline: generated `[faults]` text → `ScenarioSpec`
//! → canonical TOML → re-parsed `ScenarioSpec` → planned
//! `ExperimentConfig` → `hh_sim::FaultSchedule` → the `hh_net::Simulator`
//! executing it.
//!
//! Five invariants: the canonical TOML re-parses to an equal spec —
//! also when the generator has broken a rule, since whether a schedule
//! is runnable is `plan()`'s call alone — and plans to the same verdict
//! in the same words; the planned schedule holds exactly the events the
//! generator declared, in the lowering's order; the schedule's indexed
//! `crashed_at` equals a linear scan of its events; and a simulator driven
//! under the schedule has exactly the nodes down that `crashed_at` says
//! are down.

use hh_net::{Context, NetworkConfig, Node, NodeId, SimTime, Simulator};
use hh_scenario::{PlanOptions, ScenarioSpec};
use hh_sim::FaultEvent;
use proptest::prelude::*;

mod common;
use common::{Mix, When, DURATION_SECS};

/// A generated fault declaration: the text of its crash entries and of
/// its other entries, and the events each kind of entry lowers to, in
/// file order.
#[derive(Default)]
struct Faults {
    outages: String,
    others: String,
    crashes: Vec<FaultEvent>,
    /// What the `recover_at` of a crash lowers to.
    recovers: Vec<FaultEvent>,
    slowdowns: Vec<FaultEvent>,
    partitions: Vec<FaultEvent>,
}

impl Faults {
    fn text(&self, n: usize) -> String {
        let base = common::base("fault-roundtrip", n);
        format!("{base}{}{}", self.outages, self.others)
    }

    /// The planned schedule's events: the kinds in the order the lowering
    /// pushes them, each in file order.
    fn events(&self) -> Vec<FaultEvent> {
        [&self.crashes, &self.recovers, &self.slowdowns, &self.partitions]
            .into_iter()
            .flatten()
            .cloned()
            .collect()
    }

    /// One `[[faults.crash]]` of `node` at `at`, recovered by its
    /// `recover_at` if `until` is given.
    fn outage(&mut self, node: u16, at: When, until: Option<When>) {
        self.outages += &format!("[[faults.crash]]\nnodes = [{node}]\n{}", at.line("at"));
        self.crashes.push(FaultEvent::Crash { node, at_us: at.us() });
        if let Some(until) = until {
            self.outages += &until.line("recover_at");
            self.recovers.push(FaultEvent::Recover { node, at_us: until.us() });
        }
    }

    fn slowdown(&mut self, node: u16, at: When, until: Option<When>, extra_ms: u64) {
        let until_line = until.map_or(String::new(), |until| until.line("until"));
        self.others += &format!(
            "[[faults.slowdown]]\nnodes = [{node}]\n{}{until_line}extra_ms = {extra_ms}\n",
            at.line("at")
        );
        self.slowdowns.push(FaultEvent::Slowdown {
            node,
            from_us: at.us(),
            until_us: until.map_or(u64::MAX, When::us),
            extra_us: extra_ms * 1_000,
        });
    }

    /// A partition of the first `k` of `n` validators against the rest.
    fn partition(&mut self, n: usize, k: u16, from: When, until: When) {
        let window = from.line("from") + &until.line("until");
        self.others += &format!("[[faults.partition]]\nisolate_first = {k}\n{window}");
        let (group_a, group_b) = ((0..k).collect(), (k..n as u16).collect());
        let (from_us, until_us) = (from.us(), until.us());
        self.partitions.push(FaultEvent::Partition { group_a, group_b, from_us, until_us });
    }
}

/// Generates a valid dynamic fault declaration on `n` validators: at most
/// `f` even-numbered nodes carry a real outage (never concurrent beyond
/// `f` since only those nodes are ever down), sometimes followed by a
/// second, final crash; up to two odd-numbered nodes carry a zero-length
/// outage (recovery at the crash instant), which takes nothing from the
/// `f` budget however the others crash around it; plus optional
/// slowdowns and one partition.
fn random_faults(rng: &mut Mix, n: usize) -> Faults {
    let f = (n - 1) / 3;
    let mut faults = Faults::default();
    for node in (0..rng.below(f as u64 + 1)).map(|k| k as u16 * 2) {
        // Crash somewhere in [1, 9]; recover in [10, 18].
        let (at, until) = (When::random(rng, 1, 9), When::random(rng, 10, 18));
        faults.outage(node, at, Some(until));
        if rng.below(3) == 0 {
            faults.outage(node, When::secs(19), None);
        }
    }
    for node in (0..rng.below(3)).map(|k| k as u16 * 2 + 1) {
        let at = When::random(rng, 1, 19);
        faults.outage(node, at, Some(at));
    }
    for _ in 0..rng.below(3) {
        let (node, from) = (rng.below(n as u64) as u16, 1 + rng.below(8));
        let until = (rng.below(2) == 0).then(|| When::secs(from + 1 + rng.below(8)));
        faults.slowdown(node, When::secs(from), until, 1 + rng.below(500));
    }
    if rng.below(2) == 0 {
        let k = 1 + rng.below((n - 1) as u64) as u16;
        let from = 1 + rng.below(9);
        let until = When::secs(from + 1 + rng.below(9));
        faults.partition(n, k, When::secs(from), until);
    }
    faults
}

/// Breaks one rule `FaultSchedule::validate` owns in an otherwise valid
/// declaration and returns the words it must be rejected in.
fn spoil_faults(rng: &mut Mix, n: usize, faults: &mut Faults) -> &'static str {
    let (one, two) = (When::secs(1), When::secs(2));
    match rng.below(7) {
        0 => {
            faults.slowdown(0, one, Some(two), 0);
            "has zero extra delay"
        }
        1 => {
            faults.slowdown(0, When::secs(9), Some(When::secs(3)), 5);
            "slowdown window of validator 0 is empty"
        }
        2 => {
            faults.slowdown(0, When::frac(10), Some(When::frac(10)), 5);
            "slowdown window of validator 0 is empty"
        }
        3 => {
            faults.partition(n, 0, one, two);
            "partition groups must both be non-empty"
        }
        4 => {
            faults.partition(n, 1, When::frac(15), When::frac(5));
            "partition window is empty"
        }
        5 => {
            // f + 1 validators at t = 0, in place of the generated outages
            // (which would crash one of them twice).
            let crashed: Vec<u16> = (0..=(n as u16 - 1) / 3).collect();
            faults.outages = format!("[[faults.crash]]\nnodes = {crashed:?}\n");
            "validators crashed at once at 0µs exceeds f"
        }
        _ => {
            faults.outages += &format!("[[faults.crash]]\nnodes = [{n}]\n");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn fault_schedules_round_trip_to_the_simulator(
        n in 4usize..11,
        seed in any::<u64>(),
    ) {
        let mut rng = Mix(seed);
        let mut faults = random_faults(&mut rng, n);
        let spoiled = (rng.below(4) == 0).then(|| spoil_faults(&mut rng, n, &mut faults));
        let spec = common::parse(&faults.text(n));

        if common::assert_round_trip(&spec, "fault schedule", spoiled) {
            assert_lowers_and_executes(&spec, &faults.events(), n, seed);
        }
    }
}

/// Invariants two to four, for a spec that plans.
fn assert_lowers_and_executes(spec: &ScenarioSpec, expected: &[FaultEvent], n: usize, seed: u64) {
    // Planning lowers to a validated FaultSchedule with exactly the
    // generated events.
    let plan = spec
        .plan(&PlanOptions::default())
        .unwrap_or_else(|e| panic!("valid schedule rejected: {e}\n{}", spec.to_toml()));
    prop_assert_eq!(plan.runs.len(), 1);
    let schedule = &plan.runs[0].config.faults;
    prop_assert_eq!(schedule.events(), expected);

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
