//! `benchmark compare`: judge one set of results against another with
//! the bounds `BENCHMARK.json` fixes for each end-to-end metric.

use std::collections::BTreeMap;
use std::fmt;

use serde::Value;

use crate::report::median;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse and still count as
    /// the same.
    pub bound: f64,
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B beats the bound and every B sample beats every A sample.
    Better,
    /// The medians differ by no more than the bound.
    Same,
    /// B misses the bound and every B sample is worse than every A one.
    Worse,
    /// The medians differ by more than the bound but the samples overlap.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Compare B's samples against A's under `bound`.
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if bound.lower_is_better {
        mb - ma
    } else {
        ma - mb
    };
    if worse_by.abs() <= bound.bound * ma.abs() {
        return Verdict::Same;
    }
    let lo = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (b_below, b_above) = (hi(b) < lo(a), lo(b) > hi(a));
    let (b_all_worse, b_all_better) = if bound.lower_is_better {
        (b_above, b_below)
    } else {
        (b_below, b_above)
    };
    match (worse_by > 0.0, b_all_worse, b_all_better) {
        (true, true, _) => Verdict::Worse,
        (false, _, true) => Verdict::Better,
        _ => Verdict::Unresolved,
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `end_to_end` bounds of a `BENCHMARK.json`.
pub fn load_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let doc = read_json(path)?;
    let Some(Value::Array(metrics)) = doc.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    metrics
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m["name"]
                    .as_str()
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m["better"] == "lower",
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Per-rep samples of every end-to-end metric in `paths`, pooled per
/// `(workload, metric)`.
pub fn load_samples(paths: &[&str]) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for path in paths {
        let doc = read_json(path)?;
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            return Err(format!("{path}: no workloads list"));
        };
        for w in workloads {
            let name = w["name"].as_str().ok_or("workload without a name")?;
            let Some(Value::Array(metrics)) = w.get("metrics") else {
                continue;
            };
            for m in metrics.iter().filter(|m| m["kind"] == "end_to_end") {
                let Some(Value::Array(samples)) = m.get("samples") else {
                    continue;
                };
                let metric = m["name"].as_str().ok_or("metric without a name")?;
                out.entry((name.to_string(), metric.to_string()))
                    .or_default()
                    .extend(samples.iter().filter_map(Value::as_f64));
            }
        }
    }
    Ok(out)
}

/// One row of the comparison.
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's and B's medians.
    pub medians: (f64, f64),
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare every (workload, end-to-end metric) present on both sides.
pub fn compare(
    bounds: &[Bound],
    a: &BTreeMap<(String, String), Vec<f64>>,
    b: &BTreeMap<(String, String), Vec<f64>>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, metric), sa) in a {
        let Some(bound) = bounds.iter().find(|x| &x.name == metric) else {
            continue;
        };
        let Some(sb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            medians: (median(sa), median(sb)),
            verdict: verdict(sa, sb, bound),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "run_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_separation() {
        let a = [1.0, 1.02, 0.98];
        assert_eq!(verdict(&a, &[1.05, 1.04, 1.06], &lower(0.1)), Verdict::Same);
        assert_eq!(verdict(&a, &[1.3, 1.25, 1.28], &lower(0.1)), Verdict::Worse);
        assert_eq!(
            verdict(&a, &[1.3, 0.99, 1.28], &lower(0.1)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&a, &[0.7, 0.72, 0.75], &lower(0.1)),
            Verdict::Better
        );
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.01)
        };
        assert_eq!(verdict(&[0.5], &[0.4], &higher), Verdict::Worse);
        assert_eq!(verdict(&[0.5], &[0.5], &higher), Verdict::Same);
    }
}
