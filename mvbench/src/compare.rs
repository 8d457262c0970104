//! `mvbench compare A B`: judges two sets of recorded runs against the
//! bounds `BENCHMARK.json` fixes for each end-to-end metric.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::spec::{Better, MetricSpec, Spec};
use crate::stats::{median, quartiles};

/// Every recorded value of each metric of each workload, untraced runs
/// only.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut values = Values::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: record without a workload", n + 1))?;
        if record.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        if record.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{path}:{}: {workload} run was not correct", n + 1));
        }
        let metrics = record.get("metrics").map(Json::as_obj).unwrap_or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values
                    .entry(workload.to_owned())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(values)
}

/// Distance between the quartiles as a share of the median; 0 when
/// there are too few values to have quartiles.
fn spread(values: &[f64]) -> f64 {
    let mid = median(&mut values.to_vec());
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

/// One (workload, metric) row of the comparison.
struct Row {
    median_a: f64,
    median_b: f64,
    /// Share of A's median by which B's is worse (negative: better).
    worse_by: f64,
    spread_a: f64,
    spread_b: f64,
    verdict: &'static str,
}

/// `worse` when B's median is worse than A's by more than the bound,
/// `unresolved` when either side's spread is wider than the bound (the
/// medians cannot then be told apart), else `ok`. `setup_s` is judged
/// on its medians alone: one run already reports a median of several
/// set-ups.
fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Row {
    let (median_a, median_b) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let worse_by = match metric.better {
        Better::Lower => (median_b - median_a) / median_a,
        Better::Higher => (median_a - median_b) / median_a,
    };
    let bound = metric.bound.unwrap_or(0.0);
    let (spread_a, spread_b) = (spread(a), spread(b));
    let verdict = if metric.name != "setup_s" && (spread_a > bound || spread_b > bound) {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    };
    Row {
        median_a,
        median_b,
        worse_by,
        spread_a,
        spread_b,
        verdict,
    }
}

/// Prints one row per (workload, end-to-end metric) and returns whether
/// any row is `worse`.
pub fn compare(spec: &Spec, a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse%", "iqr A%", "iqr B%", "bound%"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            fn side<'v>(v: &'v Values, workload: &str, metric: &str) -> Option<&'v Vec<f64>> {
                v.get(workload)?.get(metric).filter(|v| !v.is_empty())
            }
            let (Some(va), Some(vb)) = (
                side(&a, workload, &metric.name),
                side(&b, workload, &metric.name),
            ) else {
                println!("{workload:<16} {:<12} missing on one side", metric.name);
                unresolved += 1;
                continue;
            };
            let row = judge(metric, va, vb);
            worse += usize::from(row.verdict == "worse");
            unresolved += usize::from(row.verdict == "unresolved");
            println!(
                "{workload:<16} {:<12} {:>12.4} {:>12.4} {:>8.2} {:>8.2} {:>8.2} {:>6.0}  {}",
                metric.name,
                row.median_a,
                row.median_b,
                row.worse_by * 100.0,
                row.spread_a * 100.0,
                row.spread_b * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                row.verdict
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, better: Better) -> MetricSpec {
        MetricSpec {
            name: name.to_owned(),
            unit: "ms".to_owned(),
            better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let wild = [5.0, 10.0, 15.0, 20.0, 10.0];
        let latency = metric("op_p50_ms", Better::Lower);
        assert_eq!(judge(&latency, &steady, &steady).verdict, "ok");
        assert_eq!(judge(&latency, &steady, &slower).verdict, "worse");
        assert_eq!(judge(&latency, &slower, &steady).verdict, "ok");
        assert_eq!(judge(&latency, &steady, &wild).verdict, "unresolved");
        // The same numbers read the other way for a rate.
        let rate = metric("ops_per_s", Better::Higher);
        assert_eq!(judge(&rate, &steady, &slower).verdict, "ok");
        assert_eq!(judge(&rate, &slower, &steady).verdict, "worse");
        // Set-up time is judged on medians alone.
        let setup = metric("setup_s", Better::Lower);
        assert_eq!(judge(&setup, &steady, &wild).verdict, "ok");
    }
}
