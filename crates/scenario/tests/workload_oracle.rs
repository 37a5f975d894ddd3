//! Oracle tests pinning the `[load] tps` → `[workload]` desugaring: an
//! explicitly declared constant closed-loop workload must reproduce the
//! historical client — and therefore the sugar path — bit for bit, at
//! any worker count. This is the same invariant CI checks at full scale
//! by diffing `hh-cli run scenarios/fig2_faults.toml --quick --seed 7`
//! JSON against `--jobs 4` output (and across releases, against its
//! checked-in byte-identical history).

use hh_scenario::{run_plan_with, ExecOptions, PlanOptions, RunLimit, ScenarioSpec};

const BASE: &str = r#"
name = "sugar-oracle"
[committee]
size = 4
[load]
tps = 300
[run]
duration_secs = 3
warmup_secs = 1
seeds = [7]
[network]
model = "flat"
"#;

fn opts(jobs: usize) -> ExecOptions {
    ExecOptions { jobs, verbose: false, profile: false }
}

#[test]
fn explicit_constant_workload_reproduces_the_sugar_bit_for_bit() {
    let sugar = ScenarioSpec::parse(BASE).unwrap();
    let explicit = ScenarioSpec::parse(&format!(
        "{BASE}[workload]\nmode = \"closed\"\narrival = \"constant\"\n"
    ))
    .unwrap();

    // The lowered simulator configs are equal...
    let sugar_plan = sugar.plan(&PlanOptions::default()).unwrap();
    let explicit_plan = explicit.plan(&PlanOptions::default()).unwrap();
    assert_eq!(
        sugar_plan.runs[0].config.workload, explicit_plan.runs[0].config.workload,
        "an explicit constant workload must lower to the sugar's exact shape"
    );

    // ...and so is every simulated metric, including the chain hash —
    // same RNG draws, same event sequence, same bytes.
    let sugar_report = run_plan_with(&sugar_plan, RunLimit::Duration, &opts(1));
    let explicit_report = run_plan_with(&explicit_plan, RunLimit::Duration, &opts(1));
    let (a, b) = (&sugar_report.rows[0].result, &explicit_report.rows[0].result);
    assert_eq!(a.chain_hash, b.chain_hash);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.throughput_tps, b.throughput_tps);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.commit_latency, b.commit_latency);
    assert_eq!(a.submitted, b.submitted);
    assert_eq!(a.client_skipped, b.client_skipped);
    assert_eq!(a.shed, b.shed);

    // Writing the table out changes no byte of the report, goodput block
    // included.
    let sugar_json = hh_scenario::report_json(&sugar_report).render();
    let explicit_json = hh_scenario::report_json(&explicit_report).render();
    assert_eq!(sugar_json, explicit_json);
    assert!(sugar_json.contains("\"goodput_tps\"") && sugar_json.contains("\"shed_rate\""));
}

#[test]
fn workload_reports_are_worker_count_independent() {
    let spec = ScenarioSpec::parse(&format!(
        "{BASE}[workload]\narrival = \"poisson\"\nmode = \"open\"\npayload_bytes = 128\n"
    ))
    .unwrap();
    let plan = spec.plan(&PlanOptions::default()).unwrap();
    let serial = hh_scenario::report_json(&run_plan_with(&plan, RunLimit::Duration, &opts(1)));
    let pooled = hh_scenario::report_json(&run_plan_with(&plan, RunLimit::Duration, &opts(4)));
    assert_eq!(serial.render(), pooled.render(), "--jobs must never change workload reports");
}
