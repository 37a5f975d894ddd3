//! Property tests round-tripping random workload declarations through
//! the whole pipeline: generated `[workload]` text → `ScenarioSpec` →
//! canonical TOML → re-parsed `ScenarioSpec` → planned `ExperimentConfig`
//! → `hh_sim::Workload`.
//!
//! Four invariants: the canonical TOML re-parses to an equal spec —
//! also when the generator has broken a rule, since whether a workload is
//! runnable is `plan()`'s call alone — and plans to the same verdict in
//! the same words; the planned workload is exactly the generated one
//! (fracs resolved against the run); and the lowered
//! workload passes `hh_sim`'s own validation.

use hh_scenario::{PlanOptions, ScenarioSpec};
use hh_sim::{Arrival, Phase, SubmissionMode, Workload};
use proptest::prelude::*;
use std::collections::BTreeMap;

mod common;
use common::{Mix, When, DURATION_SECS};

const LOAD_TPS: u64 = 800;

/// A generated `[workload]` table: its scalar keys, its single-phase
/// arrival lines, its `[[workload.phase]]` entries, and the workload and
/// block bound they lower to.
struct Declared {
    keys: BTreeMap<&'static str, String>,
    arrival: String,
    phases: Vec<String>,
    expected: Workload,
    block_bytes: Option<u64>,
}

impl Declared {
    fn text(&self) -> String {
        let mut text = common::base("workload-roundtrip", 4);
        text += &format!("[load]\ntps = {LOAD_TPS}\n[workload]\n");
        text.extend(self.keys.iter().map(|(key, value)| format!("{key} = {value}\n")));
        text += &self.arrival;
        text.extend(self.phases.iter().map(|phase| format!("[[workload.phase]]\n{phase}")));
        text
    }
}

/// A random arrival process as its TOML lines and its lowering at scale 1,
/// with quantized parameters (halves of a second, halves of a scale) so
/// serialized floats resolve exactly.
fn random_arrival(rng: &mut Mix) -> (String, Arrival) {
    let half = |k: u64| k as f64 * 0.5;
    match rng.below(4) {
        0 => ("arrival = \"constant\"\n".into(), Arrival::Constant { scale: 1.0 }),
        1 => ("arrival = \"poisson\"\n".into(), Arrival::Poisson { scale: 1.0 }),
        2 => {
            let (burst_secs, idle_secs) = (half(1 + rng.below(6)), half(rng.below(6)));
            let lines = format!(
                "arrival = \"onoff\"\nburst_secs = {burst_secs:?}\nidle_secs = {idle_secs:?}\n"
            );
            (lines, Arrival::OnOff { scale: 1.0, burst_secs, idle_secs })
        }
        _ => {
            let (from_scale, to_scale) = (half(rng.below(3)), half(1 + rng.below(4)));
            let lines = format!(
                "arrival = \"ramp\"\nramp_from_scale = {from_scale:?}\nramp_to_scale = {to_scale:?}\n"
            );
            (lines, Arrival::Ramp { from_scale, to_scale })
        }
    }
}

/// `arrival` at `scale` (a ramp carries its own scales).
fn scaled(arrival: Arrival, scale: f64) -> Arrival {
    match arrival {
        Arrival::Constant { .. } => Arrival::Constant { scale },
        Arrival::Poisson { .. } => Arrival::Poisson { scale },
        Arrival::OnOff { burst_secs, idle_secs, .. } => {
            Arrival::OnOff { scale, burst_secs, idle_secs }
        }
        ramp => ramp,
    }
}

/// Generates a random valid workload declaration.
fn random_workload(rng: &mut Mix) -> Declared {
    let mode = if rng.below(2) == 0 { SubmissionMode::Closed } else { SubmissionMode::Open };
    let payload_bytes = (rng.below(5) * 256) as u32;
    let block_bytes = (rng.below(2) == 0).then(|| 4_096 + rng.below(4) * 65_536);
    let mut keys = BTreeMap::from([
        ("mode", format!("{:?}", if mode == SubmissionMode::Open { "open" } else { "closed" })),
        ("payload_bytes", payload_bytes.to_string()),
    ]);
    if let Some(bytes) = block_bytes {
        keys.insert("block_bytes", bytes.to_string());
    }
    let mut declared = Declared {
        keys,
        arrival: String::new(),
        phases: Vec::new(),
        expected: Workload { phases: Vec::new(), mode, payload_bytes },
        block_bytes,
    };

    if rng.below(3) == 0 {
        // Single-phase form: the top-level arrival at scale 1.
        let (lines, arrival) = random_arrival(rng);
        declared.arrival = lines;
        declared.expected.phases = vec![Phase { from_us: 0, arrival }];
        return declared;
    }

    let count = 1 + rng.below(3) as usize;
    // Strictly ascending starts: 0, then distinct instants below 20 s.
    let mut starts = vec![When::secs(0)];
    while starts.len() < count {
        let from = When::random(rng, 1, DURATION_SECS);
        if starts.iter().all(|start| start.secs != from.secs) {
            starts.push(from);
        }
    }
    starts.sort_unstable_by_key(|start| start.secs);

    let mut any_active = false;
    for from in starts {
        let (lines, arrival) = random_arrival(rng);
        let (rate, scale) = if matches!(arrival, Arrival::Ramp { .. }) {
            // Ramps carry their own scales and take no rate.
            (String::new(), 1.0)
        } else {
            // Quantized scale; allow zero-rate (idle) phases except when
            // everything else is idle too.
            let scale = rng.below(5) as f64 * 0.5;
            (format!("scale = {scale:?}\n"), scale)
        };
        let arrival = scaled(arrival, scale);
        any_active |= match arrival {
            Arrival::Ramp { from_scale, to_scale } => from_scale.max(to_scale) > 0.0,
            _ => scale > 0.0,
        };
        declared.phases.push(format!("{}{rate}{lines}", from.line("from")));
        declared.expected.phases.push(Phase { from_us: from.us(), arrival });
    }
    if !any_active {
        // Force one active phase so the workload is runnable.
        declared.phases[0] = "scale = 1.0\n".into();
        declared.expected.phases[0].arrival = Arrival::Constant { scale: 1.0 };
    }
    declared
}

/// Breaks one rule `Workload::validate` owns in an otherwise valid
/// declaration and returns the words it must be rejected in.
fn spoil_workload(rng: &mut Mix, declared: &mut Declared) -> &'static str {
    // A timeline replaces the single-phase form.
    let mut timeline = |phases: &[(When, &str)]| {
        declared.arrival.clear();
        declared.phases =
            phases.iter().map(|(from, arrival)| from.line("from") + arrival).collect();
    };
    let (poisson, constant) = ("arrival = \"poisson\"\n", "");
    match rng.below(8) {
        0 => {
            timeline(&[(When::secs(0), "scale = -1.0\n")]);
            "bad rate scale -1"
        }
        1 => {
            // (A block bound would turn the payload away first.)
            declared.keys.remove("block_bytes");
            declared.keys.insert("payload_bytes", (2u64 << 20).to_string());
            "payload_bytes 2097152 exceeds the 1048576 cap"
        }
        2 => {
            timeline(&[(When::secs(3), constant)]);
            "the first phase must start at 0"
        }
        3 => {
            timeline(&[
                (When::secs(0), poisson),
                (When::frac(10), poisson),
                (When::frac(5), poisson),
            ]);
            "phase starts must be strictly ascending (10000000 then 5000000)"
        }
        4 => {
            timeline(&[(When::secs(0), "scale = 0.0\n")]);
            "every phase has zero rate — nothing ever arrives"
        }
        5 => {
            timeline(&[(
                When::secs(0),
                "arrival = \"onoff\"\nburst_secs = 0.0\nidle_secs = 1.0\n",
            )]);
            "burst_secs must be at least 1 µs, got 0"
        }
        6 => {
            timeline(&[(
                When::secs(0),
                "arrival = \"onoff\"\nburst_secs = 1.0\nidle_secs = -0.5\n",
            )]);
            "idle_secs must be non-negative, got -0.5"
        }
        _ => {
            let flat = "arrival = \"ramp\"\nramp_from_scale = 0.0\nramp_to_scale = 0.0\n";
            timeline(&[(When::secs(0), flat), (When::secs(5), constant)]);
            "ramp never leaves zero"
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn workloads_round_trip_to_the_sim_shape(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let mut declared = random_workload(&mut rng);
        let spoiled = (rng.below(4) == 0).then(|| spoil_workload(&mut rng, &mut declared));
        let spec = common::parse(&declared.text());

        if common::assert_round_trip(&spec, "workload", spoiled) {
            assert_lowers(&spec, &declared);
        }
    }
}

/// Invariants three and four, for a spec that plans.
fn assert_lowers(spec: &ScenarioSpec, declared: &Declared) {
    let text = spec.to_toml();
    // Planning lowers to a validated hh_sim::Workload that is exactly the
    // generated one.
    let plan = spec
        .plan(&PlanOptions::default())
        .unwrap_or_else(|e| panic!("valid workload rejected: {e}\n{text}"));
    prop_assert_eq!(plan.runs.len(), 1);
    let workload: &Workload = &plan.runs[0].config.workload;
    prop_assert_eq!(workload, &declared.expected, "spec:\n{}", text);
    prop_assert!(workload.validate().is_ok());
    prop_assert_eq!(
        plan.runs[0].config.validator.max_block_bytes,
        declared.block_bytes.map_or(usize::MAX, |b| b as usize)
    );
}
