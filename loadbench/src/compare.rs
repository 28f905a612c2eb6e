//! `co-load compare`: two suite reports judged against the regression
//! bounds in `BENCHMARK.json`, one row per workload × end-to-end metric.

use co_bench::json::Json;

use crate::stats::{median, quartiles};

/// One end-to-end metric's regression rule.
#[derive(Clone, Debug)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the base median by which it may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` rules of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = e.get("better").and_then(Json::as_str).ok_or("metric without better")?;
            let bound = e.get("bound").and_then(Json::as_num).ok_or("metric without a bound")?;
            Ok(Bound { name: name.to_string(), lower_is_better: better == "lower", bound })
        })
        .collect()
}

/// How a metric moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the base's own spread.
    Better,
    /// Worse by more than the bound: a regression.
    Worse,
    /// Neither.
    Within,
    /// The run-to-run spread is wider than the bound, and not every new
    /// run beats every base run.
    Unresolved,
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of the base runs.
    pub base: f64,
    /// Median of the new runs.
    pub new: f64,
    /// Relative change, positive when worse.
    pub worse_by: f64,
    /// The wider of the two sides' quartile distance over median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Quartile distance over median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Judges one metric from the runs of both sides.
pub fn judge(base: &[f64], new: &[f64], rule: &Bound) -> (Verdict, f64, f64) {
    let (mb, mn) = (median(base), median(new));
    let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if mb == 0.0 { 0.0 } else { sign * (mn - mb) / mb.abs() };
    let noise = spread(base).max(spread(new));
    let beats = |n: f64, b: f64| sign * (n - b) < 0.0;
    let all_better = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
    let verdict = if noise > rule.bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > rule.bound {
        Verdict::Worse
    } else if -worse_by > noise.max(f64::EPSILON) {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (verdict, worse_by, noise)
}

/// The end-to-end values a suite report holds for one workload and metric.
fn values(report: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let v =
        report.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?.get("values")?;
    v.as_arr()?.iter().map(Json::as_num).collect()
}

fn workload_names(report: &Json) -> Vec<String> {
    match report.get("workloads") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

/// Compares every workload present in both reports on every rule.
pub fn compare(base: &Json, new: &Json, rules: &[Bound]) -> Vec<Row> {
    let theirs = workload_names(new);
    let mut rows = Vec::new();
    for w in workload_names(base).into_iter().filter(|w| theirs.contains(w)) {
        for rule in rules {
            let (Some(b), Some(n)) = (values(base, &w, &rule.name), values(new, &w, &rule.name))
            else {
                continue;
            };
            let (verdict, worse_by, spread) = judge(&b, &n, rule);
            rows.push(Row {
                workload: w.clone(),
                metric: rule.name.clone(),
                base: median(&b),
                new: median(&n),
                worse_by,
                spread,
                bound: rule.bound,
                verdict,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower: bool) -> Bound {
        Bound { name: "m".into(), lower_is_better: lower, bound: 0.1 }
    }

    #[test]
    fn judges_regressions_gains_and_noise() {
        let base = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(judge(&base, &[10.0, 10.05, 9.95, 10.0], &rule(true)).0, Verdict::Within);
        assert_eq!(judge(&base, &[12.0, 12.1, 11.9, 12.0], &rule(true)).0, Verdict::Worse);
        assert_eq!(judge(&base, &[8.0, 8.1, 7.9, 8.0], &rule(true)).0, Verdict::Better);
        assert_eq!(judge(&base, &[8.0, 8.1, 7.9, 8.0], &rule(false)).0, Verdict::Worse);
        let noisy = [5.0, 15.0, 10.0, 20.0];
        assert_eq!(judge(&noisy, &[12.0, 12.0, 12.0, 12.0], &rule(true)).0, Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[1.0, 1.0, 1.0, 1.0], &rule(true)).0, Verdict::Better);
    }
}
