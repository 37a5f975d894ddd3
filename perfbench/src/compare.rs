//! Result sets on disk, the before/after comparison over them, and the
//! append-only ledger.
//!
//! A result set is what `benchmark --all --out <file>` writes: for each
//! workload, every end-to-end metric with one value per run. `--compare`
//! judges two sets by the bounds the benchmark itself declares.

use crate::json::Json;
use crate::manifest::{Better, MetricSpec, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

/// How metric `b` stands against metric `a`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the data cannot tell "unchanged" from "regressed".
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct Judged {
    pub a: f64,
    pub b: f64,
    /// `(b − a) / a`, signed as measured.
    pub relative: f64,
    pub verdict: Verdict,
}

/// Judges the runs `b` of one metric against the runs `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Judged {
    let (ma, mb) = (median(a), median(b));
    let relative = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = match better {
        Better::Lower => relative,
        Better::Higher => -relative,
    };
    let verdict = if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Judged { a: ma, b: mb, relative, verdict }
}

/// The values recorded for `metric` of `workload` in a result set.
fn values(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let runs = set.get("workloads")?.get(workload)?.get(metric)?;
    let values: Vec<f64> = runs.items().iter().filter_map(Json::as_f64).collect();
    (!values.is_empty()).then_some(values)
}

/// Compares two result-set documents; returns the printable table and
/// whether every pairing came out [`Verdict::Ok`].
///
/// # Errors
///
/// Returns which workload or metric a set is missing.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "a (median)", "b (median)", "diff", "bound", "verdict"
    );
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        for MetricSpec { name, unit, better, bound } in END_TO_END {
            let bound = bound.expect("end-to-end metrics are bounded");
            let side = |set: &Json, which: &str| {
                values(set, workload, name)
                    .ok_or_else(|| format!("set {which} has no {name} for {workload}"))
            };
            let judged = judge(&side(a, "a")?, &side(b, "b")?, *better, bound);
            all_ok &= judged.verdict == Verdict::Ok;
            table.push_str(&format!(
                "{workload:<14} {name:<16} {:>14} {:>14} {:>+8.2}% {:>6.0}%  {}\n",
                format!("{:.4} {unit}", judged.a),
                format!("{:.4} {unit}", judged.b),
                judged.relative * 100.0,
                bound * 100.0,
                judged.verdict.label(),
            ));
        }
    }
    Ok((table, all_ok))
}

/// One workload's runs: per metric name, one value per run.
pub type MetricRuns = Vec<(String, Vec<f64>)>;

/// A result set: `runs[workload][metric]` is one value per run.
pub fn result_set(commit: &str, seed: u64, nproc: usize, runs: &[(String, MetricRuns)]) -> Json {
    let workloads = runs.iter().fold(Json::obj(), |doc, (workload, metrics)| {
        let metrics = metrics.iter().fold(Json::obj(), |doc, (name, values)| {
            doc.with(name, Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()))
        });
        doc.with(workload, metrics)
    });
    Json::obj()
        .with("commit", Json::str(commit))
        .with("seed", Json::Num(seed as f64))
        .with("nproc", Json::Num(nproc as f64))
        .with("workloads", workloads)
}

/// The ledger line of a result set: the same document with every
/// metric reduced to its median, on one line.
pub fn ledger_line(set: &Json) -> String {
    let reduce = |metrics: &Json| {
        metrics.members().iter().fold(Json::obj(), |doc, (name, values)| {
            let values: Vec<f64> = values.items().iter().filter_map(Json::as_f64).collect();
            doc.with(name, Json::Num(median(&values)))
        })
    };
    let workloads = set
        .get("workloads")
        .map(|w| w.members().iter().fold(Json::obj(), |doc, (name, m)| doc.with(name, reduce(m))))
        .unwrap_or_else(Json::obj);
    let mut line = Json::obj();
    for key in ["commit", "seed", "nproc"] {
        line = line.with(key, set.get(key).cloned().unwrap_or(Json::Null));
    }
    line.with("workloads", workloads).compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_checked_in_the_metric_s_own_direction() {
        // Lower is better, bound 10 %: +8 % passes, +12 % regresses.
        assert_eq!(judge(&[100.0], &[108.0], Better::Lower, 0.10).verdict, Verdict::Ok);
        assert_eq!(judge(&[100.0], &[112.0], Better::Lower, 0.10).verdict, Verdict::Regressed);
        // Getting better is never a regression, however large.
        assert_eq!(judge(&[100.0], &[40.0], Better::Lower, 0.10).verdict, Verdict::Ok);
        // Higher is better, bound 2 %: −1 % passes, −3 % regresses, +30 % passes.
        assert_eq!(judge(&[400.0], &[396.0], Better::Higher, 0.02).verdict, Verdict::Ok);
        assert_eq!(judge(&[400.0], &[388.0], Better::Higher, 0.02).verdict, Verdict::Regressed);
        assert_eq!(judge(&[400.0], &[520.0], Better::Higher, 0.02).verdict, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.2];
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        assert_eq!(judge(&steady, &steady, Better::Lower, 0.10).verdict, Verdict::Ok);
        assert_eq!(judge(&steady, &noisy, Better::Lower, 0.10).verdict, Verdict::Unresolved);
        assert_eq!(judge(&noisy, &steady, Better::Lower, 0.10).verdict, Verdict::Unresolved);
        let j = judge(&steady, &[120.0, 121.0, 119.0], Better::Lower, 0.10);
        assert_eq!(j.verdict, Verdict::Regressed);
        assert!((j.relative - 0.198).abs() < 0.01);
    }

    fn set(value: f64) -> Json {
        let metrics: MetricRuns =
            END_TO_END.iter().map(|m| (m.name.to_string(), vec![value, value * 1.01])).collect();
        let runs: Vec<_> =
            WORKLOADS.iter().map(|(w, _)| (w.to_string(), metrics.clone())).collect();
        result_set("abc123", 7, 2, &runs)
    }

    #[test]
    fn two_sets_compare_per_workload_and_metric() {
        let (table, ok) = compare(&set(100.0), &set(101.0)).expect("compare");
        assert!(ok, "{table}");
        assert_eq!(table.lines().count(), 1 + WORKLOADS.len() * END_TO_END.len());
        let (table, ok) = compare(&set(100.0), &set(150.0)).expect("compare");
        assert!(!ok && table.contains("regressed"), "{table}");
        let broken = Json::parse("{\"workloads\": {}}").unwrap();
        assert!(compare(&set(100.0), &broken).is_err());
    }

    #[test]
    fn ledger_lines_hold_medians_on_one_line() {
        let line = ledger_line(&set(200.0));
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("ledger line is JSON");
        assert_eq!(parsed.get("commit").and_then(Json::as_str), Some("abc123"));
        let cpu = parsed.get("workloads").and_then(|w| w.get("sim_n10_long")?.get("setup_s"));
        assert_eq!(cpu.and_then(Json::as_f64), Some(201.0));
    }
}
