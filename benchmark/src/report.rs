//! The metric catalogue, and the reduction of a [`Measurement`] to named
//! metrics, correctness checks and JSON.
//!
//! End-to-end metrics come only from untraced reps; per-layer metrics
//! come from the last traced rep (its spans and its deterministic
//! outcome, which the fingerprint gate proves equal to every other rep's).

use serde::Value;

use crate::chaos::Finding;
use crate::trace::{Span, Tracer};
use crate::workloads::{Measurement, Outcome, Rep, Workload};

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("slo_attainment", "fraction"),
];

/// Per-layer metrics: `(name, unit)`, named after the crate or module
/// they measure. Every workload reports all of them; a layer the
/// workload never enters reads 0. Host time spent in a layer is given as
/// its share of the traced rep's run (or setup) time, so an absent layer
/// reads a share of 0, never a time of 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("turnaround_p50_s", "sim_s"),
    ("turnaround_p99_s", "sim_s"),
    ("goodput_per_gpu_s", "1/s"),
    ("failed_frac", "fraction"),
    ("simcore.events", "count"),
    ("simcore.heap_pushes", "count"),
    ("simcore.heap_pops", "count"),
    ("simcore.ns_per_event", "ns"),
    ("step.arrival.count", "count"),
    ("step.arrival.frac", "fraction"),
    ("step.arrival.alloc_ops", "count"),
    ("step.completion.count", "count"),
    ("step.completion.frac", "fraction"),
    ("step.completion.alloc_ops", "count"),
    ("step.control.count", "count"),
    ("step.control.frac", "fraction"),
    ("step.control.alloc_ops", "count"),
    ("step.other.count", "count"),
    ("step.other.frac", "fraction"),
    ("step.other.alloc_ops", "count"),
    ("faas.submit_calls", "count"),
    ("faas.submit_frac", "fraction"),
    ("faas.submit_alloc_ops", "count"),
    ("faas.queue_wait_p50_s", "sim_s"),
    ("faas.queue_wait_p99_s", "sim_s"),
    ("faas.startup_p50_s", "sim_s"),
    ("faas.startup_p99_s", "sim_s"),
    ("faas.exec_p50_s", "sim_s"),
    ("faas.exec_p99_s", "sim_s"),
    ("faas.retries", "count"),
    ("faas.failed", "count"),
    ("faas.world_new_frac", "fraction"),
    ("faas.boot_frac", "fraction"),
    ("gpu.recompute_calls", "count"),
    ("gpu.domains_visited", "count"),
    ("gpu.domains_skipped", "count"),
    ("gpu.skip_ratio", "fraction"),
    ("monitoring.samples", "count"),
    ("monitoring.worker_events", "count"),
    ("core.plan_frac", "fraction"),
    ("workloads.trace_frac", "fraction"),
    ("autoscale.decisions", "count"),
    ("autoscale.started", "count"),
    ("autoscale.held", "count"),
    ("autoscale.refused", "count"),
    ("reconfig.txns_committed", "count"),
    ("reconfig.txns_failed", "count"),
    ("reconfig.txns_aborted", "count"),
    ("reconfig.rollbacks", "count"),
    ("reconfig.commit_ratio", "fraction"),
    ("drain.started", "count"),
    ("drain.forced_kills", "count"),
    ("recovery.respawns", "count"),
    ("chaos.schedules", "count"),
    ("chaos.violating", "count"),
    ("chaos.actions_attempted", "count"),
    ("chaos.actions_applied", "count"),
    ("chaos.refusals", "count"),
    ("chaos.events", "count"),
    ("chaos.hook_frac", "fraction"),
    ("alloc.ops", "count"),
    ("alloc.bytes", "bytes"),
    ("alloc.ops_per_event", "ops/event"),
    ("trace.overhead_frac", "fraction"),
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The value: a median for per-rep samples.
    pub value: f64,
    /// Samples behind the value (reps, requests or spans).
    pub n: u64,
    /// Per-rep values of an end-to-end metric; empty for per-layer ones.
    pub samples: Vec<f64>,
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Everything reported about one workload.
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Failed checks; empty means correct.
    pub problems: Vec<String>,
    /// Operations attempted over all reps: requests, or schedules for
    /// `chaos-search`.
    pub attempted: u64,
    /// Operations that failed: requests failed terminally (a schedule
    /// that trips an oracle is a finding, not a failed operation).
    pub failed: u64,
    /// Reps run, and how many of them were traced.
    pub reps: (usize, usize),
    /// The first rep's outcome.
    pub outcome: Outcome,
    /// End-to-end metrics, in catalogue order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in catalogue order; empty without a traced rep.
    pub per_layer: Vec<Metric>,
    /// Spans of the last traced rep.
    pub spans: Option<Value>,
    /// Violating chaos schedules, shrunk.
    pub findings: Vec<Finding>,
}

fn end_to_end(untraced: &[&Rep]) -> Vec<Metric> {
    let o = &untraced[0].outcome;
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let sample = |r: &&Rep| match name {
                "setup_s" => r.setup_s,
                "run_s" => r.run_s,
                "peak_heap_mb" => r.peak_heap_bytes as f64 / (1024.0 * 1024.0),
                "slo_attainment" => ratio(r.outcome.requests.slo_met, r.outcome.requests.submitted),
                _ => unreachable!("unknown end-to-end metric {name}"),
            };
            let samples: Vec<f64> = untraced.iter().map(sample).collect();
            let n = match name {
                "slo_attainment" => o.requests.submitted,
                _ => samples.len() as u64,
            };
            Metric {
                name,
                unit,
                value: median(&samples),
                n,
                samples,
            }
        })
        .collect()
}

fn per_layer(w: Workload, rep: &Rep, t: &Tracer, overhead: f64, pairs: u64) -> Vec<Metric> {
    let o = &rep.outcome;
    let r = &o.requests;
    let c = &o.control;
    let ch = &o.chaos;
    let count = |v: u64| (v as f64, 1);
    let sim_p = |p: u64| (secs(p), r.completed);
    // Shares of the traced rep's own run and setup time.
    let run_frac = |s: Span| (t.stats(s).total_s() / rep.run_s, t.stats(s).count);
    let setup_frac = |s: Span| (t.stats(s).total_s() / rep.setup_s, t.stats(s).count);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, n) = match name {
                "turnaround_p50_s" => sim_p(r.turnaround_ns[0]),
                "turnaround_p99_s" => sim_p(r.turnaround_ns[1]),
                "goodput_per_gpu_s" => {
                    let gpu_s = o.gpus as f64 * secs(r.makespan_ns);
                    let v = if gpu_s > 0.0 {
                        r.slo_met as f64 / gpu_s
                    } else {
                        0.0
                    };
                    (v, r.slo_met)
                }
                "failed_frac" if w == Workload::ChaosSearch => {
                    (ratio(ch.violating.len() as u64, ch.schedules), ch.schedules)
                }
                "failed_frac" => (ratio(r.failed, r.submitted), r.submitted),
                "simcore.events" => count(o.events),
                "simcore.heap_pushes" => count(o.heap_pushes),
                "simcore.heap_pops" => count(o.heap_pops),
                "simcore.ns_per_event" => (rep.run_s * 1e9 / o.events.max(1) as f64, o.events),
                "faas.submit_calls" => count(t.stats(Span::Submit).count),
                "faas.submit_frac" => run_frac(Span::Submit),
                "faas.submit_alloc_ops" => count(t.stats(Span::Submit).alloc_ops),
                "faas.queue_wait_p50_s" => sim_p(r.queue_wait_ns[0]),
                "faas.queue_wait_p99_s" => sim_p(r.queue_wait_ns[1]),
                "faas.startup_p50_s" => sim_p(r.startup_ns[0]),
                "faas.startup_p99_s" => sim_p(r.startup_ns[1]),
                "faas.exec_p50_s" => sim_p(r.exec_ns[0]),
                "faas.exec_p99_s" => sim_p(r.exec_ns[1]),
                "faas.retries" => count(r.retries),
                "faas.failed" => count(r.failed),
                "faas.world_new_frac" => setup_frac(Span::WorldNew),
                "faas.boot_frac" => setup_frac(Span::Boot),
                "gpu.recompute_calls" => count(o.gpu[0]),
                "gpu.domains_visited" => count(o.gpu[1]),
                "gpu.domains_skipped" => count(o.gpu[2]),
                "gpu.skip_ratio" => (ratio(o.gpu[2], o.gpu[1] + o.gpu[2]), o.gpu[1] + o.gpu[2]),
                "monitoring.samples" => count(o.monitoring[0]),
                "monitoring.worker_events" => count(o.monitoring[1]),
                "core.plan_frac" => setup_frac(Span::Plan),
                "workloads.trace_frac" => setup_frac(Span::TraceGen),
                "autoscale.decisions" => count(c.decisions),
                "autoscale.started" => count(c.started),
                "autoscale.held" => count(c.held),
                "autoscale.refused" => count(c.refused),
                "drain.started" => count(c.reconfig[0]),
                "drain.forced_kills" => count(c.reconfig[1]),
                "reconfig.txns_committed" => count(c.reconfig[2]),
                "reconfig.txns_failed" => count(c.reconfig[3]),
                "reconfig.txns_aborted" => count(c.reconfig[4]),
                "reconfig.rollbacks" => count(c.reconfig[5]),
                "reconfig.commit_ratio" => {
                    let attempts = c.reconfig[2] + c.reconfig[3] + c.reconfig[4];
                    (ratio(c.reconfig[2], attempts), attempts)
                }
                "recovery.respawns" => count(c.respawns),
                "chaos.schedules" => count(ch.schedules),
                "chaos.violating" => count(ch.violating.len() as u64),
                "chaos.actions_attempted" => count(ch.actions_attempted),
                "chaos.actions_applied" => count(ch.actions_applied),
                "chaos.refusals" => count(ch.refusals),
                "chaos.events" => count(if w == Workload::ChaosSearch {
                    o.events
                } else {
                    0
                }),
                "chaos.hook_frac" => run_frac(Span::Hook),
                "alloc.ops" => count(rep.alloc_ops),
                "alloc.bytes" => count(rep.alloc_bytes),
                "alloc.ops_per_event" => (ratio(rep.alloc_ops, o.events), o.events),
                "trace.overhead_frac" => (overhead, pairs),
                step => {
                    let (class, field) = step
                        .strip_prefix("step.")
                        .and_then(|s| s.split_once('.'))
                        .unwrap_or_else(|| unreachable!("unknown per-layer metric {name}"));
                    let span = Span::STEPS
                        .into_iter()
                        .find(|s| s.name() == format!("step.{class}"))
                        .expect("step class");
                    match field {
                        "count" => count(t.stats(span).count),
                        "frac" => run_frac(span),
                        "alloc_ops" => count(t.stats(span).alloc_ops),
                        _ => unreachable!("unknown step field {field}"),
                    }
                }
            };
            Metric {
                name,
                unit,
                value,
                n,
                samples: Vec::new(),
            }
        })
        .collect()
}

/// Checks on a traced rep: the step classes partition the engine's
/// events, and no child span outlasts its parent.
fn check_spans(w: Workload, rep: &Rep, t: &Tracer, problems: &mut Vec<String>) {
    let steps: u64 = Span::STEPS.iter().map(|s| t.stats(*s).count).sum();
    if w != Workload::ChaosSearch && steps != rep.outcome.events {
        problems.push(format!(
            "step classes count {steps} steps but the engine fired {} events",
            rep.outcome.events
        ));
    }
    for (child, parent) in [
        (Span::Submit, Span::StepArrival),
        (Span::Hook, Span::RunSchedule),
    ] {
        let (c, p) = (t.stats(child).total_s(), t.stats(parent).total_s());
        if c > p {
            problems.push(format!(
                "child span {} ({c} s) outlasts its parent {} ({p} s)",
                child.name(),
                parent.name(),
            ));
        }
    }
}

/// Reduce a measurement to its report.
pub fn report(m: &Measurement) -> WorkloadReport {
    let w = m.workload;
    let first = &m.reps[0].outcome;
    let mut problems = Vec::new();
    for (i, rep) in m.reps.iter().enumerate().skip(1) {
        if rep.outcome != *first {
            problems.push(format!(
                "rep {i} fingerprint {:#018x} differs from rep 0 {:#018x}",
                rep.outcome.fingerprint(),
                first.fingerprint()
            ));
        }
    }
    let r = &first.requests;
    if w != Workload::ChaosSearch && r.completed + r.failed != r.submitted {
        problems.push(format!(
            "{} of {} requests never settled",
            r.submitted - r.completed - r.failed,
            r.submitted
        ));
    }
    if matches!(w, Workload::FleetMig | Workload::FleetMps) && r.failed != 0 {
        problems.push(format!(
            "{} requests failed on a fault-free fleet",
            r.failed
        ));
    }
    // Rep 0 is the warm-up: it joins the fingerprint gate above only.
    let untraced: Vec<&Rep> = m.reps[1..].iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = m.reps[1..].iter().filter(|r| r.traced).collect();
    let (per_layer, spans) = match traced.last().and_then(|r| Some((r, r.tracer.as_ref()?))) {
        Some((rep, t)) => {
            check_spans(w, rep, t, &mut problems);
            // Each traced rep against the untraced rep right after it:
            // neighbours share the host's contention, which comes in
            // episodes longer than a rep.
            let pairs: Vec<f64> = m.reps[1..]
                .windows(2)
                .filter(|p| p[0].traced && !p[1].traced)
                .map(|p| p[0].run_s / p[1].run_s - 1.0)
                .collect();
            let (overhead, n) = (median(&pairs), pairs.len() as u64);
            (per_layer(w, rep, t, overhead, n), Some(t.to_value()))
        }
        None => (Vec::new(), None),
    };
    let (attempted, failed) = if w == Workload::ChaosSearch {
        (first.chaos.schedules, 0)
    } else {
        (r.submitted, r.failed)
    };
    let reps = m.reps.len() as u64;
    WorkloadReport {
        name: w.name(),
        problems,
        attempted: attempted * reps,
        failed: failed * reps,
        reps: (m.reps.len(), traced.len()),
        outcome: first.clone(),
        end_to_end: end_to_end(&untraced),
        per_layer,
        spans,
        findings: m.findings.clone(),
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn finding_value(f: &Finding) -> Value {
    let oracles = f.oracles.iter().map(|o| Value::String(o.to_string()));
    obj(vec![
        ("case_index", Value::UInt(f.case_index)),
        ("oracles", Value::Array(oracles.collect())),
        ("events", Value::UInt(f.events.0 as u64)),
        ("shrunk_events", Value::UInt(f.events.1 as u64)),
        ("corpus", Value::String(f.corpus.clone())),
    ])
}

fn metric_value(m: &Metric, kind: &str) -> Value {
    obj(vec![
        ("name", Value::String(m.name.to_string())),
        ("kind", Value::String(kind.to_string())),
        ("value", Value::Float(m.value)),
        ("unit", Value::String(m.unit.to_string())),
        ("n", Value::UInt(m.n)),
        (
            "samples",
            Value::Array(m.samples.iter().map(|&s| Value::Float(s)).collect()),
        ),
    ])
}

impl WorkloadReport {
    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The line printed for the deterministic outcome, so two runs can be
    /// compared by eye.
    pub fn fingerprint_line(&self) -> String {
        let o = &self.outcome;
        let q = &o.requests;
        format!(
            "fingerprint {} {:#018x} events={} heap_pushes={} heap_pops={} submitted={} \
             completed={} failed={} makespan_ns={} turnaround={:#018x} violating={}",
            self.name,
            o.fingerprint(),
            o.events,
            o.heap_pushes,
            o.heap_pops,
            q.submitted,
            q.completed,
            q.failed,
            q.makespan_ns,
            q.turnaround_digest,
            o.chaos.violating.len()
        )
    }

    /// This workload's entry in `results.json`.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .end_to_end
            .iter()
            .map(|m| metric_value(m, "end_to_end"))
            .chain(self.per_layer.iter().map(|m| metric_value(m, "per_layer")))
            .collect();
        obj(vec![
            ("name", Value::String(self.name.to_string())),
            ("correct", Value::Bool(self.correct())),
            (
                "problems",
                Value::Array(
                    self.problems
                        .iter()
                        .map(|p| Value::String(p.clone()))
                        .collect(),
                ),
            ),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("reps", Value::UInt(self.reps.0 as u64)),
            ("traced_reps", Value::UInt(self.reps.1 as u64)),
            (
                "fingerprint",
                Value::String(format!("{:#018x}", self.outcome.fingerprint())),
            ),
            ("metrics", Value::Array(metrics)),
            (
                "findings",
                Value::Array(self.findings.iter().map(finding_value).collect()),
            ),
        ])
    }

    /// The one-line result: end-to-end metrics, or per-layer ones when
    /// `traced`.
    pub fn summary(&self, traced: bool) -> Value {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            (
                "metrics",
                Value::Object(
                    metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                obj(vec![
                                    ("value", Value::Float(m.value)),
                                    ("unit", Value::String(m.unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
