//! Property tests round-tripping random byzantine schedules through the
//! whole declaration pipeline: generated `[[faults.byzantine]]` text →
//! `ScenarioSpec` → canonical TOML → re-parsed `ScenarioSpec` → planned
//! `ExperimentConfig` → `hh_sim::ByzantineSchedule`.
//!
//! Three invariants: the canonical TOML re-parses to an equal spec —
//! also when the generator has broken a rule, since whether a schedule
//! is runnable is `plan()`'s call alone — and plans to the same verdict
//! in the same words; and the planned schedule contains exactly the
//! generated windows with times resolved and units converted (ms → µs
//! delays, s → µs flip periods). The deterministic tests below pin the
//! rejection cases the grammar must catch: more than `f` attackers,
//! unknown strategies, overlapping windows, bad withhold targets,
//! misapplied parameters.

use hh_scenario::{PlanOptions, ScenarioSpec};
use hh_sim::{ByzantineEntry, ByzantineSchedule, ByzantineStrategy};
use proptest::prelude::*;

mod common;
use common::{Mix, When};

/// Generated `[[faults.byzantine]]` entries: their text, and the schedule
/// they lower to.
#[derive(Default)]
struct Windows {
    text: String,
    expected: ByzantineSchedule,
}

impl Windows {
    /// One window of `node` running `strategy` (given as its TOML lines)
    /// from `from` until `until`, or the end of the run.
    fn push(
        &mut self,
        node: u16,
        (lines, strategy): (String, ByzantineStrategy),
        from: When,
        until: Option<When>,
    ) {
        let until_line = until.map_or(String::new(), |until| until.line("until"));
        self.text += &format!(
            "[[faults.byzantine]]\nnode = {node}\n{lines}{}{until_line}",
            from.line("from")
        );
        let until_us = until.map_or(u64::MAX, When::us);
        let entry = ByzantineEntry { node, strategy, from_us: from.us(), until_us };
        self.expected = std::mem::take(&mut self.expected).entry(entry);
    }
}

fn equivocate() -> (String, ByzantineStrategy) {
    ("strategy = \"equivocate\"\n".into(), ByzantineStrategy::Equivocate)
}

fn withhold_votes(targets: Vec<u16>) -> (String, ByzantineStrategy) {
    let lines = format!("strategy = \"withhold_votes\"\ntargets = {targets:?}\n");
    (lines, ByzantineStrategy::WithholdVotes { targets })
}

fn lazy_leader(delay_ms: u64) -> (String, ByzantineStrategy) {
    let lines = format!("strategy = \"lazy_leader\"\ndelay_ms = {delay_ms}\n");
    (lines, ByzantineStrategy::LazyLeader { delay_us: delay_ms * 1_000 })
}

/// A random strategy whose parameters are valid for attacker `node` in
/// a committee of `n`: withhold targets are 1..=f validators other than
/// the attacker, delays are positive, flip periods are whole seconds.
fn random_strategy(rng: &mut Mix, node: u16, n: usize) -> (String, ByzantineStrategy) {
    let f = (n - 1) / 3;
    match rng.below(4) {
        0 => equivocate(),
        1 => {
            let count = 1 + rng.below(f as u64) as usize;
            let mut pool: Vec<u16> = (0..n as u16).filter(|v| *v != node).collect();
            let rot = rng.below(pool.len() as u64) as usize;
            pool.rotate_left(rot);
            let mut targets: Vec<u16> = pool.into_iter().take(count).collect();
            targets.sort_unstable();
            withhold_votes(targets)
        }
        2 => lazy_leader(1 + rng.below(1_000)),
        _ => {
            let (flip_secs, delay_ms) = (1 + rng.below(5), 1 + rng.below(1_000));
            let lines = format!(
                "strategy = \"flip_flop\"\nflip_secs = {flip_secs}\ndelay_ms = {delay_ms}\n"
            );
            let (flip_us, delay_us) = (flip_secs * 1_000_000, delay_ms * 1_000);
            (lines, ByzantineStrategy::FlipFlop { flip_us, delay_us })
        }
    }
}

/// Generates valid byzantine windows on `n` validators: at most `f`
/// attackers, each with one window — or two disjoint windows split
/// around the 10s midpoint, possibly with different strategies.
fn random_byzantine(rng: &mut Mix, n: usize) -> Windows {
    let f = (n - 1) / 3;
    let mut windows = Windows::default();
    for node in 0..rng.below(f as u64 + 1) as u16 {
        if rng.below(2) == 0 {
            let strategy = random_strategy(rng, node, n);
            let from = When::random(rng, 0, 10);
            let until = (rng.below(3) != 0).then(|| When::random(rng, 11, 19));
            windows.push(node, strategy, from, until);
        } else {
            // First window inside [0, 10), second starting at or after
            // 10 — disjoint by construction, back-to-back allowed.
            let strategy = random_strategy(rng, node, n);
            let (from, until) = (When::random(rng, 0, 5), When::random(rng, 5, 10));
            windows.push(node, strategy, from, Some(until));
            let strategy = random_strategy(rng, node, n);
            let from = When::random(rng, 10, 15);
            let until = (rng.below(2) != 0).then(|| When::random(rng, 15, 19));
            windows.push(node, strategy, from, until);
        }
    }
    windows
}

/// Replaces the generated windows (their attackers may already number
/// `f`) with ones that break one rule `ByzantineSchedule::validate` owns,
/// and returns the words they must be rejected in.
fn spoil_byzantine(rng: &mut Mix, n: usize) -> (Windows, &'static str) {
    let mut windows = Windows::default();
    let mut whole_run = |node, strategy| windows.push(node, strategy, When::secs(0), None);
    let attacker = n as u16 - 1;
    let words = match rng.below(6) {
        0 => {
            let f = (n as u16 - 1) / 3;
            (0..=f).for_each(|node| whole_run(node, equivocate()));
            "byzantine validators exceeds f"
        }
        1 => {
            whole_run(attacker, equivocate());
            whole_run(attacker, lazy_leader(5));
            "overlapping"
        }
        2 => {
            whole_run(attacker, withhold_votes(vec![attacker]));
            "cannot withhold votes from itself"
        }
        3 => {
            whole_run(attacker, lazy_leader(0));
            "has zero delay"
        }
        4 => {
            windows.push(attacker, equivocate(), When::secs(0), Some(When::frac(0)));
            "is empty"
        }
        _ => {
            whole_run(n as u16, equivocate());
            "is outside the committee"
        }
    };
    (windows, words)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn byzantine_schedules_round_trip_to_the_sim_schedule(
        n in 4usize..14,
        seed in any::<u64>(),
    ) {
        let mut rng = Mix(seed);
        let mut windows = random_byzantine(&mut rng, n);
        let spoiled = (rng.below(4) == 0).then(|| {
            let (spoilt, words) = spoil_byzantine(&mut rng, n);
            windows = spoilt;
            words
        });
        let spec = common::parse(&(common::base("byzantine-roundtrip", n) + &windows.text));

        if common::assert_round_trip(&spec, "byzantine schedule", spoiled) {
            assert_lowers(&spec, &windows.expected);
        }
    }
}

/// Invariant three, for a spec that plans: planning lowers to a validated
/// ByzantineSchedule with exactly the generated windows, times resolved
/// and units converted.
fn assert_lowers(spec: &ScenarioSpec, expected: &ByzantineSchedule) {
    let plan = spec
        .plan(&PlanOptions::default())
        .unwrap_or_else(|e| panic!("valid schedule rejected: {e}\n{}", spec.to_toml()));
    prop_assert_eq!(plan.runs.len(), 1);
    prop_assert_eq!(&plan.runs[0].config.byzantine, expected);
}

// ---------------------------------------------------------------------------
// Rejection cases
// ---------------------------------------------------------------------------

fn spec_with(faults: &str) -> Result<ScenarioSpec, hh_scenario::ScenarioError> {
    ScenarioSpec::parse(&format!(
        "name = \"rejection\"\n[committee]\nsizes = 4\n[run]\nduration_secs = 20\nwarmup_secs = \
         2\n[network]\nmodel = \"flat\"\n{faults}"
    ))
}

/// Parses fine, fails at plan time with the given message fragment.
fn assert_plan_rejects(faults: &str, fragment: &str) {
    let spec = spec_with(faults).expect("well-typed spec parses");
    let err = spec.plan(&PlanOptions::default()).expect_err("unrunnable schedule must be rejected");
    let message = err.to_string();
    assert!(message.contains(fragment), "expected `{fragment}` in: {message}");
}

/// [`assert_plan_rejects`] for a rule of the entry's shape: a schema error.
fn assert_shape_rejects(faults: &str, fragment: &str) {
    assert_plan_rejects(faults, "schema error: ");
    assert_plan_rejects(faults, fragment);
}

#[test]
fn more_than_f_byzantine_nodes_is_rejected() {
    // n = 4 tolerates f = 1; two distinct attackers are unrunnable.
    assert_plan_rejects(
        "[[faults.byzantine]]\nnode = 0\nstrategy = \"equivocate\"\n\
         [[faults.byzantine]]\nnode = 1\nstrategy = \"lazy_leader\"\ndelay_ms = 100\n",
        "exceeds f",
    );
}

#[test]
fn unknown_strategy_is_a_schema_error() {
    assert_shape_rejects(
        "[[faults.byzantine]]\nnode = 0\nstrategy = \"bribe\"\n",
        "unknown byzantine strategy `bribe`",
    );
}

#[test]
fn overlapping_windows_on_one_node_are_rejected() {
    assert_plan_rejects(
        "[[faults.byzantine]]\nnode = 0\nstrategy = \"equivocate\"\nuntil_secs = 10\n\
         [[faults.byzantine]]\nnode = 0\nstrategy = \"lazy_leader\"\ndelay_ms = 100\n\
         from_secs = 5\n",
        "overlapping",
    );
}

#[test]
fn out_of_range_attacker_is_rejected() {
    assert_plan_rejects("[[faults.byzantine]]\nnode = 9\nstrategy = \"equivocate\"\n", "committee");
}

#[test]
fn withhold_targets_are_validated() {
    // Targeting itself is meaningless.
    assert_plan_rejects(
        "[[faults.byzantine]]\nnode = 0\nstrategy = \"withhold_votes\"\ntargets = [0]\n",
        "itself",
    );
    // An out-of-range victim.
    assert_plan_rejects(
        "[[faults.byzantine]]\nnode = 0\nstrategy = \"withhold_votes\"\ntargets = [9]\n",
        "committee",
    );
    // Missing targets entirely is a schema error.
    assert_shape_rejects(
        "[[faults.byzantine]]\nnode = 0\nstrategy = \"withhold_votes\"\n",
        "requires `targets`",
    );
}

#[test]
fn strategy_parameters_are_strict() {
    // A missing required parameter.
    assert_shape_rejects(
        "[[faults.byzantine]]\nnode = 0\nstrategy = \"lazy_leader\"\n",
        "requires `delay_ms`",
    );
    // A parameter from a different strategy.
    assert_shape_rejects(
        "[[faults.byzantine]]\nnode = 0\nstrategy = \"equivocate\"\ndelay_ms = 100\n",
        "does not apply",
    );
    // An unknown key is caught by the strict table check, as the file parses.
    let err = spec_with("[[faults.byzantine]]\nnode = 0\nstrategy = \"equivocate\"\nbribe = 1\n")
        .expect_err("an unknown key must be rejected");
    assert!(err.to_string().contains("unknown key"), "{err}");
}
