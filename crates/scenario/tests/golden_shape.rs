//! Golden-file test pinning the shape of `hh-cli run` JSON output.
//!
//! Consumers (plot scripts, CI trend tracking) key on the report's
//! structure, and a row's key set follows from the fault families of its
//! scenario. This test runs a tiny scenario per fault-derived block set,
//! extracts the set of key paths from each JSON, and compares them to
//! the checked-in golden file.
//! Values are free to drift with the simulator; the *shape* is not —
//! regenerate `tests/golden/report_shape.txt` deliberately when
//! extending the format (instructions in the assertion message).

use hh_scenario::{report_json, run_plan, ExecOptions, Json, PlanOptions, RunLimit, ScenarioSpec};
use std::collections::BTreeSet;

const GOLDEN: &str = include_str!("golden/report_shape.txt");

/// Collects `a.b[].c`-style key paths; array elements collapse into `[]`
/// so run count does not affect the shape.
fn shape(json: &Json, prefix: &str, out: &mut BTreeSet<String>) {
    match json {
        Json::Object(pairs) => {
            for (key, value) in pairs {
                let path = if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                out.insert(path.clone());
                shape(value, &path, out);
            }
        }
        Json::Array(items) => {
            for item in items {
                shape(item, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

/// Every scenario shares this base; the fault tables differ.
const BASE: &str = r#"
[committee]
sizes = 4
[load]
tps = 200
[run]
duration_secs = 3
warmup_secs = 1
[network]
model = "flat"
[[analysis.window]]
name = "whole"
from_frac = 0.0
to_frac = 1.0
"#;

/// One scenario per fault-derived block set: a byzantine validator
/// (`adversary`), and a crash that recovers under a chaos window
/// (`reinclusion`, `chaos`).
const FAULTS: [(&str, &str); 2] = [
    (
        "byzantine",
        r#"
[[faults.byzantine]]
node = 3
strategy = "lazy_leader"
delay_ms = 200
"#,
    ),
    (
        "recovery-chaos",
        r#"
[[faults.crash]]
nodes = [3]
at_secs = 1
recover_at_secs = 2
[[faults.chaos]]
drop = 0.05
"#,
    ),
];

#[test]
fn report_json_shape_is_pinned() {
    let shapes: Vec<BTreeSet<String>> = FAULTS
        .iter()
        .map(|(_, faults)| {
            let spec = ScenarioSpec::parse(&format!("name = \"golden\"\n{BASE}{faults}"))
                .expect("golden scenario parses");
            let plan = spec.plan(&PlanOptions::default()).expect("plans");
            let mut got = BTreeSet::new();
            shape(
                &report_json(&run_plan(&plan, RunLimit::Duration, &ExecOptions::default())),
                "",
                &mut got,
            );
            got
        })
        .collect();
    // What every report has, then what each fault family adds to it.
    let common: BTreeSet<String> = shapes[0].intersection(&shapes[1]).cloned().collect();
    let mut got_text = String::from("# every scenario\n");
    got_text.extend(common.iter().map(|p| format!("{p}\n")));
    for ((name, _), shape) in FAULTS.iter().zip(&shapes) {
        got_text.push_str(&format!("# {name} adds\n"));
        got_text.extend(shape.difference(&common).map(|p| format!("{p}\n")));
    }

    assert_eq!(
        got_text.trim(),
        GOLDEN.trim(),
        "hh-cli JSON report shape changed.\n\
         If intentional, update crates/scenario/tests/golden/report_shape.txt \
         with the shape printed above."
    );
}
