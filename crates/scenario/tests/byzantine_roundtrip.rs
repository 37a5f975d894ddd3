//! Property tests round-tripping random byzantine schedules through the
//! whole declaration pipeline: generated `ByzantineEntrySpec`s →
//! canonical TOML → re-parsed `ScenarioSpec` → planned
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

use hh_scenario::{ByzantineEntrySpec, ByzantineStrategySpec, PlanOptions, ScenarioSpec, WhenSpec};
use hh_sim::ByzantineSchedule;
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
        "name = \"byzantine-roundtrip\"\n[committee]\nsize = {n}\n[run]\nduration_secs = \
         {DURATION_SECS}\nwarmup_secs = 2\n[network]\nmodel = \"flat\"\n"
    ))
    .expect("base spec parses")
}

/// A random strategy whose parameters are valid for attacker `node` in
/// a committee of `n`: withhold targets are 1..=f validators other than
/// the attacker, delays are positive, flip periods are whole seconds.
fn random_strategy(rng: &mut Mix, node: u16, n: usize) -> ByzantineStrategySpec {
    let f = (n - 1) / 3;
    match rng.below(4) {
        0 => ByzantineStrategySpec::Equivocate,
        1 => {
            let count = 1 + rng.below(f as u64) as usize;
            let mut pool: Vec<u16> = (0..n as u16).filter(|v| *v != node).collect();
            let rot = rng.below(pool.len() as u64) as usize;
            pool.rotate_left(rot);
            let mut targets: Vec<u16> = pool.into_iter().take(count).collect();
            targets.sort_unstable();
            ByzantineStrategySpec::WithholdVotes { targets }
        }
        2 => ByzantineStrategySpec::LazyLeader { delay_ms: 1 + rng.below(1_000) },
        _ => ByzantineStrategySpec::FlipFlop {
            flip_secs: 1 + rng.below(5),
            delay_ms: 1 + rng.below(1_000),
        },
    }
}

/// Generates a valid byzantine spec on `n` validators: at most `f`
/// attackers, each with one window — or two disjoint windows split
/// around the 10s midpoint, possibly with different strategies.
fn random_byzantine(rng: &mut Mix, n: usize, spec: &mut ScenarioSpec) {
    let f = (n - 1) / 3;
    for node in 0..rng.below(f as u64 + 1) as u16 {
        if rng.below(2) == 0 {
            spec.faults.byzantine.push(ByzantineEntrySpec {
                node,
                strategy: random_strategy(rng, node, n),
                from: random_when(rng, 0, 10),
                until: if rng.below(3) == 0 { None } else { Some(random_when(rng, 11, 19)) },
            });
        } else {
            // First window inside [0, 10), second starting at or after
            // 10 — disjoint by construction, back-to-back allowed.
            spec.faults.byzantine.push(ByzantineEntrySpec {
                node,
                strategy: random_strategy(rng, node, n),
                from: random_when(rng, 0, 5),
                until: Some(random_when(rng, 5, 10)),
            });
            spec.faults.byzantine.push(ByzantineEntrySpec {
                node,
                strategy: random_strategy(rng, node, n),
                from: random_when(rng, 10, 15),
                until: if rng.below(2) == 0 { None } else { Some(random_when(rng, 15, 19)) },
            });
        }
    }
}

/// Replaces the generated windows (their attackers may already number
/// `f`) with ones that break one rule `ByzantineSchedule::validate` owns,
/// and returns the words they must be rejected in.
fn spoil_byzantine(rng: &mut Mix, n: usize, spec: &mut ScenarioSpec) -> &'static str {
    let windows = &mut spec.faults.byzantine;
    windows.clear();
    let whole_run = |node, strategy| ByzantineEntrySpec {
        node,
        strategy,
        from: WhenSpec::Secs(0),
        until: None,
    };
    let attacker = n as u16 - 1;
    match rng.below(6) {
        0 => {
            let f = (n as u16 - 1) / 3;
            windows.extend((0..=f).map(|node| whole_run(node, ByzantineStrategySpec::Equivocate)));
            "byzantine validators exceeds f"
        }
        1 => {
            windows.push(whole_run(attacker, ByzantineStrategySpec::Equivocate));
            windows.push(whole_run(attacker, ByzantineStrategySpec::LazyLeader { delay_ms: 5 }));
            "overlapping"
        }
        2 => {
            let targets = vec![attacker];
            windows.push(whole_run(attacker, ByzantineStrategySpec::WithholdVotes { targets }));
            "cannot withhold votes from itself"
        }
        3 => {
            windows.push(whole_run(attacker, ByzantineStrategySpec::LazyLeader { delay_ms: 0 }));
            "has zero delay"
        }
        4 => {
            windows.push(ByzantineEntrySpec {
                until: Some(WhenSpec::Frac(0.0)),
                ..whole_run(attacker, ByzantineStrategySpec::Equivocate)
            });
            "is empty"
        }
        _ => {
            windows.push(whole_run(n as u16, ByzantineStrategySpec::Equivocate));
            "is outside the committee"
        }
    }
}

/// The µs instant a generated `WhenSpec` resolves to.
fn resolve(when: WhenSpec) -> u64 {
    when.resolve_us(DURATION_SECS).expect("generated instants are small")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn byzantine_schedules_round_trip_to_the_sim_schedule(
        n in 4usize..14,
        seed in any::<u64>(),
    ) {
        let mut rng = Mix(seed);
        let mut spec = base_spec(n);
        random_byzantine(&mut rng, n, &mut spec);
        let spoiled = (rng.below(4) == 0).then(|| spoil_byzantine(&mut rng, n, &mut spec));

        if common::assert_round_trip(&spec, "byzantine schedule", spoiled) {
            assert_lowers(&spec);
        }
    }
}

/// Invariant three, for a spec that plans: planning lowers to a validated
/// ByzantineSchedule with exactly the generated windows, times resolved
/// and units converted.
fn assert_lowers(spec: &ScenarioSpec) {
    let plan = spec
        .plan(&PlanOptions::default())
        .unwrap_or_else(|e| panic!("valid schedule rejected: {e}\n{}", spec.to_toml()));
    prop_assert_eq!(plan.runs.len(), 1);

    let mut expected = ByzantineSchedule::new();
    for entry in &spec.faults.byzantine {
        let from_us = resolve(entry.from);
        let until_us = entry.until.map(resolve).unwrap_or(u64::MAX);
        expected = match &entry.strategy {
            ByzantineStrategySpec::Equivocate => expected.equivocate(entry.node, from_us, until_us),
            ByzantineStrategySpec::WithholdVotes { targets } => {
                expected.withhold_votes(entry.node, targets.clone(), from_us, until_us)
            }
            ByzantineStrategySpec::LazyLeader { delay_ms } => {
                expected.lazy_leader(entry.node, delay_ms * 1_000, from_us, until_us)
            }
            ByzantineStrategySpec::FlipFlop { flip_secs, delay_ms } => expected.flip_flop(
                entry.node,
                flip_secs * 1_000_000,
                delay_ms * 1_000,
                from_us,
                until_us,
            ),
        };
    }
    prop_assert_eq!(&plan.runs[0].config.byzantine, &expected);
}

// ---------------------------------------------------------------------------
// Rejection cases
// ---------------------------------------------------------------------------

fn spec_with(faults: &str) -> Result<ScenarioSpec, hh_scenario::ScenarioError> {
    ScenarioSpec::parse(&format!(
        "name = \"rejection\"\n[committee]\nsize = 4\n[run]\nduration_secs = 20\nwarmup_secs = \
         2\n[network]\nmodel = \"flat\"\n{faults}"
    ))
}

/// Parses fine, fails at plan time with the given message fragment.
fn assert_plan_rejects(faults: &str, fragment: &str) {
    let spec = spec_with(faults).expect("schema-valid spec parses");
    let err = spec.plan(&PlanOptions::default()).expect_err("unrunnable schedule must be rejected");
    let message = err.to_string();
    assert!(message.contains(fragment), "expected `{fragment}` in: {message}");
}

/// Fails at parse time with the given message fragment.
fn assert_parse_rejects(faults: &str, fragment: &str) {
    let err = spec_with(faults).expect_err("schema violation must be rejected");
    let message = err.to_string();
    assert!(message.contains(fragment), "expected `{fragment}` in: {message}");
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
fn unknown_strategy_is_rejected_at_parse_time() {
    assert_parse_rejects(
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
    assert_parse_rejects(
        "[[faults.byzantine]]\nnode = 0\nstrategy = \"withhold_votes\"\n",
        "requires `targets`",
    );
}

#[test]
fn strategy_parameters_are_strict() {
    // A missing required parameter.
    assert_parse_rejects(
        "[[faults.byzantine]]\nnode = 0\nstrategy = \"lazy_leader\"\n",
        "requires `delay_ms`",
    );
    // A parameter from a different strategy.
    assert_parse_rejects(
        "[[faults.byzantine]]\nnode = 0\nstrategy = \"equivocate\"\ndelay_ms = 100\n",
        "does not apply",
    );
    // An unknown key is caught by the strict table check.
    assert_parse_rejects(
        "[[faults.byzantine]]\nnode = 0\nstrategy = \"equivocate\"\nbribe = 1\n",
        "unknown key",
    );
}
