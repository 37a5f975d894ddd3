//! Property tests round-tripping random workload declarations through
//! the whole pipeline: generated `WorkloadSpec` → canonical TOML →
//! re-parsed `ScenarioSpec` → planned `ExperimentConfig` →
//! `hh_sim::Workload`.
//!
//! Four invariants: the canonical TOML re-parses to an equal spec —
//! also when the generator has broken a rule, since whether a workload is
//! runnable is `plan()`'s call alone — and plans to the same verdict in
//! the same words; the planned workload contains exactly the generated
//! phases (fracs and absolute rates resolved against the run); and the
//! lowered workload passes `hh_sim`'s own validation.

use hh_scenario::{ArrivalSpec, PlanOptions, RateSpec, ScenarioSpec, WhenSpec, WorkloadPhaseSpec};
use hh_sim::{Arrival, Phase, SubmissionMode, Workload};
use proptest::prelude::*;

mod common;
use common::Mix;

const DURATION_SECS: u64 = 20;
const LOAD_TPS: u64 = 800;

fn base_spec() -> ScenarioSpec {
    ScenarioSpec::parse(&format!(
        "name = \"workload-roundtrip\"\n[committee]\nsize = 4\n[load]\ntps = {LOAD_TPS}\n[run]\n\
         duration_secs = {DURATION_SECS}\nwarmup_secs = 2\n[network]\nmodel = \"flat\"\n\
         [workload]\n"
    ))
    .expect("base spec parses")
}

/// A random arrival process with quantized parameters (halves of a
/// second, tenths of a scale) so serialized floats resolve exactly.
fn random_arrival(rng: &mut Mix) -> ArrivalSpec {
    match rng.below(4) {
        0 => ArrivalSpec::Constant,
        1 => ArrivalSpec::Poisson,
        2 => ArrivalSpec::OnOff {
            burst_secs: (1 + rng.below(6)) as f64 * 0.5,
            idle_secs: rng.below(6) as f64 * 0.5,
        },
        _ => ArrivalSpec::Ramp {
            from_scale: rng.below(3) as f64 * 0.5,
            to_scale: (1 + rng.below(4)) as f64 * 0.5,
        },
    }
}

/// A random phase start inside a 20s run: whole seconds, or — only for
/// multiples of 5 s, whose quarter fractions are exactly representable —
/// the equivalent `from_frac`.
fn random_from(rng: &mut Mix, secs: u64) -> WhenSpec {
    if rng.below(3) == 0 && secs.is_multiple_of(5) {
        WhenSpec::Frac(secs as f64 / DURATION_SECS as f64)
    } else {
        WhenSpec::Secs(secs)
    }
}

/// Mutates the declared workload into a random valid shape and returns
/// the phases' expected lowering.
fn random_workload(rng: &mut Mix, spec: &mut ScenarioSpec) -> Vec<Phase> {
    let w = &mut spec.workload;
    w.mode = if rng.below(2) == 0 { SubmissionMode::Closed } else { SubmissionMode::Open };
    w.payload_bytes = (rng.below(5) * 256) as u32;
    w.spread = 1.0 + rng.below(4) as f64;
    w.block_bytes = if rng.below(2) == 0 { Some(4_096 + rng.below(4) * 65_536) } else { None };

    let lower = |arrival: &ArrivalSpec, scale: f64| match *arrival {
        ArrivalSpec::Constant => Arrival::Constant { scale },
        ArrivalSpec::Poisson => Arrival::Poisson { scale },
        ArrivalSpec::OnOff { burst_secs, idle_secs } => {
            Arrival::OnOff { scale, burst_secs, idle_secs }
        }
        ArrivalSpec::Ramp { from_scale, to_scale } => Arrival::Ramp { from_scale, to_scale },
    };

    if rng.below(3) == 0 {
        // Single-phase form: the top-level arrival at scale 1.
        w.arrival = random_arrival(rng);
        w.phases.clear();
        return vec![Phase { from_us: 0, arrival: lower(&w.arrival.clone(), 1.0) }];
    }

    let count = 1 + rng.below(3) as usize;
    // Strictly ascending starts: 0, then distinct seconds below 20.
    let mut starts = vec![0u64];
    while starts.len() < count {
        let s = 1 + rng.below(DURATION_SECS - 1);
        if !starts.contains(&s) {
            starts.push(s);
        }
    }
    starts.sort_unstable();

    w.phases.clear();
    let mut expected = Vec::new();
    let mut any_active = false;
    for (i, &secs) in starts.iter().enumerate() {
        let arrival = random_arrival(rng);
        let rate = if matches!(arrival, ArrivalSpec::Ramp { .. }) {
            // Ramps carry their own scales; the rate field is unused and
            // must serialize as the default.
            RateSpec::Scale(1.0)
        } else if rng.below(3) == 0 {
            RateSpec::Tps((1 + rng.below(4)) * LOAD_TPS / 2)
        } else {
            // Quantized scale; allow zero-rate (idle) phases except when
            // everything else is idle too.
            RateSpec::Scale(rng.below(5) as f64 * 0.5)
        };
        let scale = match rate {
            RateSpec::Scale(s) => s,
            RateSpec::Tps(t) => t as f64 / LOAD_TPS as f64,
        };
        let peak = match arrival {
            ArrivalSpec::Ramp { from_scale, to_scale } => from_scale.max(to_scale),
            _ => scale,
        };
        any_active |= peak > 0.0;
        let from = if i == 0 { WhenSpec::Secs(0) } else { random_from(rng, secs) };
        w.phases.push(WorkloadPhaseSpec { from, rate, arrival });
        expected.push(Phase { from_us: secs * 1_000_000, arrival: lower(&arrival, scale) });
    }
    if !any_active {
        // Force one active phase so the workload is runnable.
        w.phases[0].rate = RateSpec::Scale(1.0);
        w.phases[0].arrival = ArrivalSpec::Constant;
        expected[0].arrival = Arrival::Constant { scale: 1.0 };
    }
    expected
}

/// Breaks one rule `Workload::validate` owns in an otherwise valid spec
/// and returns the words it must be rejected in.
fn spoil_workload(rng: &mut Mix, spec: &mut ScenarioSpec) -> &'static str {
    let w = &mut spec.workload;
    // A timeline replaces the single-phase form, which only the default
    // arrival can sit beside.
    let mut timeline = |phases: Vec<WorkloadPhaseSpec>| {
        w.arrival = ArrivalSpec::Constant;
        w.phases = phases;
    };
    let phase = |from, arrival| WorkloadPhaseSpec { from, rate: RateSpec::Scale(1.0), arrival };
    match rng.below(8) {
        0 => {
            w.spread = 0.5;
            "spread must be ≥ 1, got 0.5"
        }
        1 => {
            w.payload_bytes = 2 << 20;
            "payload_bytes 2097152 exceeds the 1048576 cap"
        }
        2 => {
            timeline(vec![phase(WhenSpec::Secs(3), ArrivalSpec::Constant)]);
            "the first phase must start at 0"
        }
        3 => {
            let starts = [WhenSpec::Secs(0), WhenSpec::Frac(0.5), WhenSpec::Frac(0.25)];
            timeline(starts.map(|from| phase(from, ArrivalSpec::Poisson)).to_vec());
            "phase starts must be strictly ascending (10000000 then 5000000)"
        }
        4 => {
            timeline(vec![WorkloadPhaseSpec {
                from: WhenSpec::Secs(0),
                rate: RateSpec::Scale(0.0),
                arrival: ArrivalSpec::Constant,
            }]);
            "every phase has zero rate — nothing ever arrives"
        }
        5 => {
            let burst = ArrivalSpec::OnOff { burst_secs: 0.0, idle_secs: 1.0 };
            timeline(vec![phase(WhenSpec::Secs(0), burst)]);
            "burst_secs must be at least 1 µs, got 0"
        }
        6 => {
            let burst = ArrivalSpec::OnOff { burst_secs: 1.0, idle_secs: -0.5 };
            timeline(vec![phase(WhenSpec::Secs(0), burst)]);
            "idle_secs must be non-negative, got -0.5"
        }
        _ => {
            let flat = ArrivalSpec::Ramp { from_scale: 0.0, to_scale: 0.0 };
            timeline(vec![
                phase(WhenSpec::Secs(0), flat),
                phase(WhenSpec::Secs(5), ArrivalSpec::Constant),
            ]);
            "ramp never leaves zero"
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn workloads_round_trip_to_the_sim_shape(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let mut spec = base_spec();
        let expected_phases = random_workload(&mut rng, &mut spec);
        let spoiled = (rng.below(4) == 0).then(|| spoil_workload(&mut rng, &mut spec));

        if common::assert_round_trip(&spec, "workload", spoiled) {
            assert_lowers(&spec, &expected_phases);
        }
    }
}

/// Invariants three and four, for a spec that plans.
fn assert_lowers(spec: &ScenarioSpec, expected_phases: &[Phase]) {
    let text = spec.to_toml();
    // Planning lowers to a validated hh_sim::Workload with exactly
    // the generated phases.
    let plan = spec
        .plan(&PlanOptions::default())
        .unwrap_or_else(|e| panic!("valid workload rejected: {e}\n{text}"));
    prop_assert_eq!(plan.runs.len(), 1);
    let workload: &Workload = &plan.runs[0].config.workload;
    prop_assert_eq!(workload.phases.as_slice(), expected_phases, "spec:\n{}", text);
    prop_assert_eq!(workload.mode, spec.workload.mode);
    prop_assert_eq!(workload.payload_bytes, spec.workload.payload_bytes);
    prop_assert_eq!(workload.spread, spec.workload.spread);
    prop_assert!(workload.validate().is_ok());
    prop_assert_eq!(
        plan.runs[0].config.validator.max_block_bytes,
        spec.workload.block_bytes.map_or(usize::MAX, |b| b as usize)
    );
}
