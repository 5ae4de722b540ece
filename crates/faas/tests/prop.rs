//! Property-based tests for the FaaS runtime: arbitrary task DAGs settle,
//! dependencies are honoured, and the worker pool conserves tasks.

use parfait_faas::app::bodies::CpuBurn;
use parfait_faas::*;
use parfait_gpu::host::GpuFleet;
use parfait_simcore::{Engine, SimDuration};
use proptest::prelude::*;

/// A randomly-shaped DAG workload: task `i` may depend on any subset of
/// earlier tasks (encoded as a bitmask over the previous ≤8 tasks).
#[derive(Debug, Clone)]
struct DagSpec {
    durations_ms: Vec<u64>,
    dep_masks: Vec<u8>,
}

fn arb_dag() -> impl Strategy<Value = DagSpec> {
    (1usize..25).prop_flat_map(|n| {
        (
            proptest::collection::vec(10u64..2_000, n),
            proptest::collection::vec(any::<u8>(), n),
        )
            .prop_map(|(durations_ms, dep_masks)| DagSpec {
                durations_ms,
                dep_masks,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any DAG on any worker count: everything settles, nothing fails,
    /// and every task starts only after all of its dependencies finished.
    #[test]
    fn dag_execution_respects_dependencies(dag in arb_dag(), workers in 1usize..6, seed in any::<u64>()) {
        let config = Config::new(vec![ExecutorConfig::cpu("cpu", workers)]);
        let mut w = FaasWorld::new(config, GpuFleet::new(), seed);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        let mut ids: Vec<TaskId> = Vec::new();
        for (i, (&ms, &mask)) in dag.durations_ms.iter().zip(&dag.dep_masks).enumerate() {
            let deps: Vec<TaskId> = (0..8)
                .filter(|b| mask & (1 << b) != 0)
                .filter_map(|b| i.checked_sub(b + 1).map(|j| ids[j]))
                .collect();
            let call = AppCall::new("t", "cpu", move |_| {
                Box::new(CpuBurn::new(SimDuration::from_millis(ms)))
            })
            .after(&deps);
            ids.push(submit(&mut w, &mut eng, call));
        }
        eng.run(&mut w);
        prop_assert!(w.dfk.all_settled());
        prop_assert_eq!(w.dfk.done_count() as usize, dag.durations_ms.len());
        prop_assert_eq!(w.dfk.failed_count(), 0);
        for (i, &id) in ids.iter().enumerate() {
            let t = w.dfk.task(id);
            let started = t.started.unwrap();
            for dep in w.dfk.depends_on(id) {
                let df = w.dfk.task(*dep).finished.unwrap();
                prop_assert!(
                    started >= df,
                    "task {i} started {} before dep finished {}",
                    started,
                    df
                );
            }
        }
    }

    /// With one worker, total busy time equals the sum of task durations
    /// (no work lost or duplicated).
    #[test]
    fn single_worker_serializes_exactly(durations_ms in proptest::collection::vec(10u64..1_000, 1..20)) {
        let config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
        let mut w = FaasWorld::new(config, GpuFleet::new(), 1);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        let ids: Vec<TaskId> = durations_ms
            .iter()
            .map(|&ms| {
                submit(
                    &mut w,
                    &mut eng,
                    AppCall::new("t", "cpu", move |_| {
                        Box::new(CpuBurn::new(SimDuration::from_millis(ms)))
                    }),
                )
            })
            .collect();
        eng.run(&mut w);
        let first_start = ids.iter().map(|i| w.dfk.task(*i).started.unwrap()).min().unwrap();
        let last_end = ids.iter().map(|i| w.dfk.task(*i).finished.unwrap()).max().unwrap();
        let span_ms = last_end.duration_since(first_start).as_millis_f64();
        let total_ms: u64 = durations_ms.iter().sum();
        // Each dispatch adds one wire-serialization latency (< 2 ms for
        // the default small payload); no work may be lost or duplicated.
        let n = durations_ms.len() as f64;
        prop_assert!(
            span_ms >= total_ms as f64 - 1.0 && span_ms <= total_ms as f64 + n * 2.0,
            "span {span_ms} vs total {total_ms} (+ up to {n}×2 ms dispatch)"
        );
    }

    /// Deterministic replay: the same seed yields the identical task
    /// table timestamps.
    #[test]
    fn identical_seeds_identical_schedules(seed in any::<u64>()) {
        let run = |seed: u64| -> Vec<(u64, u64)> {
            let config = Config::new(vec![ExecutorConfig::cpu("cpu", 3)]);
            let mut w = FaasWorld::new(config, GpuFleet::new(), seed);
            let mut eng = Engine::new();
            boot(&mut w, &mut eng);
            for i in 0..10u64 {
                submit(
                    &mut w,
                    &mut eng,
                    AppCall::new("t", "cpu", move |rng| {
                        let ms = 50 + rng.below(500) + i;
                        Box::new(CpuBurn::new(SimDuration::from_millis(ms)))
                    }),
                );
            }
            eng.run(&mut w);
            w.dfk
                .tasks()
                .iter()
                .map(|t| {
                    (
                        t.started.unwrap().as_nanos(),
                        t.finished.unwrap().as_nanos(),
                    )
                })
                .collect()
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
