//! `bench-diff`: compares two sets of runs, the parent's and a change's.
//!
//! Runs are paired by seed; make them alternately (parent, change,
//! change, parent, ...) with identical benchmark code and settings. For
//! every end-to-end metric, one row per workload:
//!
//! * **gain** — at least [`MIN_PAIRS`] pairs, the change wins at least
//!   nine tenths of them (ties count for neither side), and the medians
//!   differ in the change's favour by more than the parent's quartile
//!   spread;
//! * **unresolved** — the parent's own spread (quartile distance over
//!   median) exceeds the metric's bound, unless every change run beats
//!   every parent run;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound recorded in `BENCHMARK.json`;
//! * **no-regression** — otherwise.

use dimmerd::json::{self, Json};

use crate::stats::{median, quartiles};

/// Fewest pairs a gain may rest on.
pub const MIN_PAIRS: usize = 10;

/// One untraced run, as read from a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// `(name, value)` of every metric.
    pub metrics: Vec<(String, f64)>,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// An end-to-end metric's direction and bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by the gain rule.
    Gain,
    /// The change is not worse than the parent by more than the bound.
    NoRegression,
    /// The change is worse than the parent by more than the bound.
    Regressed,
    /// The parent's spread exceeds the bound, so no conclusion is drawn.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::NoRegression => "no-regression",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Seeds run on both sides.
    pub pairs: usize,
    /// Pairs the change won.
    pub wins: usize,
    /// Parent median.
    pub parent_median: f64,
    /// Change median.
    pub change_median: f64,
    /// Parent quartile distance over its median.
    pub parent_spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Reads a result file (or a benchmark output line) into a [`Run`];
/// traced runs yield `None`.
pub fn parse_run(text: &str) -> Result<Option<Run>, String> {
    let v = json::parse(text.trim())?;
    if v.get("trace").and_then(Json::as_bool) == Some(true) {
        return Ok(None);
    }
    let workload = v
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("result has no workload")?
        .to_string();
    let seed = v
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("result has no seed")?;
    let Some(Json::Obj(fields)) = v.get("metrics") else {
        return Err("result has no metrics object".into());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = match m.get("value") {
                Some(Json::Num(x)) => Ok(*x),
                Some(Json::Int(n)) => Ok(*n as f64),
                _ => Err(format!("metric {name} has no numeric value")),
            }?;
            Ok((name.clone(), value))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Some(Run {
        workload,
        seed,
        metrics,
    }))
}

/// The end-to-end bounds recorded in a `BENCHMARK.json` text.
pub fn parse_bounds(benchmark: &str) -> Result<Vec<Bound>, String> {
    let v = json::parse(benchmark)?;
    let items = v
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    items
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let bound = match m.get("bound") {
                Some(Json::Num(x)) => *x,
                Some(Json::Int(n)) => *n as f64,
                _ => return Err(format!("metric {name} has no bound")),
            };
            Ok(Bound {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}

/// Compares `parent` with `change`, one row per workload and metric.
pub fn compare(parent: &[Run], change: &[Run], bounds: &[Bound]) -> Vec<Row> {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for workload in workloads {
        for bound in bounds {
            let mut pairs: Vec<(u64, f64, f64)> = Vec::new();
            for p in parent.iter().filter(|r| r.workload == workload) {
                let c = change
                    .iter()
                    .find(|c| c.workload == workload && c.seed == p.seed);
                if let (Some(pv), Some(cv)) =
                    (p.metric(&bound.name), c.and_then(|c| c.metric(&bound.name)))
                {
                    pairs.push((p.seed, pv, cv));
                }
            }
            if pairs.is_empty() {
                continue;
            }
            rows.push(judge(workload, bound, &pairs));
        }
    }
    rows
}

fn judge(workload: &str, bound: &Bound, pairs: &[(u64, f64, f64)]) -> Row {
    let sign = if bound.higher_is_better { 1.0 } else { -1.0 };
    let parent: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.2).collect();
    let wins = pairs
        .iter()
        .filter(|(_, p, c)| sign * (c - p) > 0.0)
        .count();
    let (pm, cm) = (median(&parent), median(&change));
    let iqr = quartiles(&parent).map_or(0.0, |[q1, _, q3]| q3 - q1);
    let spread = if pm != 0.0 {
        iqr / pm.abs()
    } else {
        f64::INFINITY
    };
    let gain_gap = sign * (cm - pm);
    let worse_share = if pm != 0.0 { -gain_gap / pm.abs() } else { 0.0 };
    let all_better = change
        .iter()
        .all(|c| parent.iter().all(|p| sign * (c - p) > 0.0));
    let verdict = if pairs.len() >= MIN_PAIRS && wins * 10 >= 9 * pairs.len() && gain_gap > iqr {
        Verdict::Gain
    } else if spread > bound.bound && !all_better {
        Verdict::Unresolved
    } else if worse_share > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::NoRegression
    };
    Row {
        workload: workload.to_string(),
        metric: bound.name.clone(),
        pairs: pairs.len(),
        wins,
        parent_median: pm,
        change_median: cm,
        parent_spread: spread,
        bound: bound.bound,
        verdict,
    }
}

/// Renders rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>8} {:>7} {:>6}  verdict\n",
        "workload", "metric", "parent_median", "change_median", "change", "spread", "wins", "bound"
    );
    for r in rows {
        let change = if r.parent_median != 0.0 {
            format!(
                "{:+.1}%",
                100.0 * (r.change_median - r.parent_median) / r.parent_median.abs()
            )
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<16} {:<18} {:>14.6} {:>14.6} {:>8} {:>7.1}% {:>7} {:>6}  {}\n",
            r.workload,
            r.metric,
            r.parent_median,
            r.change_median,
            change,
            100.0 * r.parent_spread,
            format!("{}/{}", r.wins, r.pairs),
            r.bound,
            r.verdict.label()
        ));
    }
    out
}
