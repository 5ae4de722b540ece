//! Every workload at tiny size (4 GPUs × 2,000 requests, 1,000 requests
//! per autoscale tenant, 10 chaos schedules): the reported metrics are
//! exactly the ones `BENCHMARK.json` lists, fingerprints repeat, step
//! classes partition the engine's events, and child spans fit inside
//! their parents.

use parfait_benchmark::report::{report, END_TO_END, PER_LAYER};
use parfait_benchmark::trace::Span;
use parfait_benchmark::workloads::{measure, Scale, Workload};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Value, key: &str, field: &str) -> Vec<String> {
    match &doc[key] {
        Value::Array(items) => items
            .iter()
            .map(|m| m[field].as_str().expect("string field").to_string())
            .collect(),
        other => panic!("{key} is not a list: {other:?}"),
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let names: Vec<String> = catalogue.iter().map(|(n, _)| n.to_string()).collect();
        let units: Vec<String> = catalogue.iter().map(|(_, u)| u.to_string()).collect();
        assert_eq!(listed(&doc, key, "name"), names, "{key} names");
        assert_eq!(listed(&doc, key, "unit"), units, "{key} units");
    }
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed(&doc, "workloads", "name"), workloads);
}

#[test]
fn tiny_runs_repeat_and_trace_consistently() {
    for w in Workload::ALL {
        // Zero seconds: the warm-up, one traced and one untraced rep.
        let m = measure(w, Scale::Tiny, 7, 0.0, true);
        let r = report(&m);
        assert!(r.correct(), "{}: {:?}", w.name(), r.problems);
        assert_eq!(m.reps.len(), 3);
        for rep in &m.reps[1..] {
            assert_eq!(
                rep.outcome.fingerprint(),
                m.reps[0].outcome.fingerprint(),
                "{}: tracing or a later rep changed the simulation",
                w.name()
            );
        }

        let printed: Vec<&str> = r.end_to_end.iter().map(|m| m.name).collect();
        assert_eq!(
            printed,
            END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        let printed: Vec<&str> = r.per_layer.iter().map(|m| m.name).collect();
        assert_eq!(
            printed,
            PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        for m in &r.end_to_end {
            assert!(m.value > 0.0, "{}: {} reads {}", w.name(), m.name, m.value);
        }
        let line = serde_json::to_string(&r.summary(false)).expect("serializes");
        let line: Value = serde_json::from_str(&line).expect("round-trips");
        assert_eq!(line["correct"], Value::Bool(true));
        assert!(line["attempted"].as_f64().expect("attempted") >= 1.0);
        assert_eq!(line["failed"].as_f64(), Some(0.0));

        let traced = &m.reps[1];
        let t = traced.tracer.as_ref().expect("second rep is traced");
        if w != Workload::ChaosSearch {
            let steps: u64 = Span::STEPS.iter().map(|s| t.stats(*s).count).sum();
            assert_eq!(steps, traced.outcome.events, "{}", w.name());
            let step_s: f64 = Span::STEPS.iter().map(|s| t.stats(*s).total_s()).sum();
            assert!(step_s > 0.0 && step_s <= traced.run_s, "{}", w.name());
        }
        for (child, parent) in [
            (Span::Submit, Span::StepArrival),
            (Span::Hook, Span::RunSchedule),
        ] {
            assert!(t.stats(child).total_ns <= t.stats(parent).total_ns);
        }
    }
}
