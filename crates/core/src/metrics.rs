//! Experiment metrics over a finished platform run.
//!
//! Small, figure-oriented reductions of the DFK task table: makespan
//! (Fig. 4's "task completion time"), mean/percentile per-request latency
//! (Fig. 5), throughput (the abstract's 2.5× claim), utilization
//! summaries (Table 1 quantified), and the per-app phase timeline
//! (Fig. 3).

use parfait_faas::{FaasWorld, TaskState};
use parfait_simcore::stats::OnlineStats;
use parfait_simcore::timeline::Timeline;
use parfait_simcore::{SimDuration, SimTime};
use serde::Serialize;

/// Makespan of all successfully finished tasks of one app (first submit →
/// last finish). `None` when nothing finished.
pub fn makespan(world: &FaasWorld, app: &str) -> Option<SimDuration> {
    let done = world
        .dfk
        .tasks()
        .iter()
        .filter(|t| *t.app == *app && t.state == TaskState::Done);
    let mut first: Option<SimTime> = None;
    let mut last: Option<SimTime> = None;
    for t in done {
        first = Some(first.map_or(t.submitted, |f| f.min(t.submitted)));
        let fin = t.finished.expect("done tasks have finish times");
        last = Some(last.map_or(fin, |l| l.max(fin)));
    }
    Some(last?.duration_since(first?))
}

/// Execution-latency statistics (start → finish, excluding queueing and
/// model load) of one app's successful tasks.
pub fn exec_latency(world: &FaasWorld, app: &str) -> OnlineStats {
    let mut s = OnlineStats::new();
    for t in world.dfk.tasks() {
        if *t.app == *app && t.state == TaskState::Done {
            if let (Some(st), Some(fin)) = (t.started, t.finished) {
                s.record(fin.duration_since(st).as_secs_f64());
            }
        }
    }
    s
}

/// Turnaround statistics (submit → finish) of one app's successful tasks.
pub fn turnaround(world: &FaasWorld, app: &str) -> OnlineStats {
    let mut s = OnlineStats::new();
    for t in world.dfk.tasks() {
        if *t.app == *app && t.state == TaskState::Done {
            if let Some(fin) = t.finished {
                s.record(fin.duration_since(t.submitted).as_secs_f64());
            }
        }
    }
    s
}

/// Completed tasks per second of one app over its makespan.
pub fn throughput(world: &FaasWorld, app: &str) -> f64 {
    let n = world
        .dfk
        .tasks()
        .iter()
        .filter(|t| *t.app == *app && t.state == TaskState::Done)
        .count();
    match makespan(world, app) {
        Some(m) if m.as_secs_f64() > 0.0 => n as f64 / m.as_secs_f64(),
        _ => 0.0,
    }
}

/// The Fig. 3 phase timeline: one span per task that started and
/// settled, on its app's track, from its first body start to its
/// settle. A retried task contributes one span, not one per attempt, and
/// that span includes its failed attempts and the retry gaps between
/// them.
pub fn timeline(world: &FaasWorld) -> Timeline {
    let mut tl = Timeline::new();
    for t in world.dfk.tasks() {
        if let (Some(start), Some(end)) = (t.started, t.finished) {
            tl.add(&t.app, start, end);
        }
    }
    tl
}

/// One row of the quantified Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct ModeSummary {
    /// Sharing-mode name.
    pub mode: String,
    /// Makespan in seconds.
    pub makespan_s: f64,
    /// Mean per-request execution latency.
    pub mean_latency_s: f64,
    /// Requests per second.
    pub throughput: f64,
    /// Mean sampled GPU utilization in `[0,1]`.
    pub mean_utilization: f64,
}

/// Summarize a finished run for one app on one GPU.
pub fn summarize(world: &FaasWorld, app: &str, gpu: u32, mode: &str) -> ModeSummary {
    ModeSummary {
        mode: mode.to_string(),
        makespan_s: makespan(world, app).map(|d| d.as_secs_f64()).unwrap_or(0.0),
        mean_latency_s: exec_latency(world, app).mean(),
        throughput: throughput(world, app),
        mean_utilization: world.monitor.mean_utilization(gpu),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfait_faas::app::bodies::{CpuBurn, KernelSeq};
    use parfait_faas::monitoring::WorkerEventKind;
    use parfait_faas::{boot, submit, AppCall, Config, ExecutorConfig};
    use parfait_gpu::host::GpuFleet;
    use parfait_gpu::KernelDesc;
    use parfait_simcore::{Engine, SimDuration};
    use std::cell::Cell;

    fn run_two_apps() -> FaasWorld {
        let config = Config::new(vec![ExecutorConfig::cpu("cpu", 2)]);
        let mut w = FaasWorld::new(config, GpuFleet::new(), 3);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        for secs in [2u64, 4] {
            submit(
                &mut w,
                &mut eng,
                AppCall::new("alpha", "cpu", move |_| {
                    Box::new(CpuBurn::new(SimDuration::from_secs(secs)))
                }),
            );
        }
        submit(
            &mut w,
            &mut eng,
            AppCall::new("beta", "cpu", |_| {
                Box::new(CpuBurn::new(SimDuration::from_secs(1)))
            }),
        );
        eng.run(&mut w);
        w
    }

    #[test]
    fn per_app_metrics_are_isolated() {
        let w = run_two_apps();
        let alpha = exec_latency(&w, "alpha");
        assert_eq!(alpha.count(), 2);
        assert!((alpha.mean() - 3.0).abs() < 0.01, "mean {}", alpha.mean());
        let beta = exec_latency(&w, "beta");
        assert_eq!(beta.count(), 1);
        assert!((beta.mean() - 1.0).abs() < 0.01);
        assert!(exec_latency(&w, "gamma").count() == 0);
    }

    #[test]
    fn makespan_and_throughput() {
        let w = run_two_apps();
        let m = makespan(&w, "alpha").unwrap().as_secs_f64();
        // Both submitted at t=0 on 2 workers: makespan ≈ slowest exec +
        // startup; certainly ≥ 4 s and < 10 s.
        assert!((4.0..10.0).contains(&m), "makespan {m}");
        let thr = throughput(&w, "alpha");
        assert!((thr - 2.0 / m).abs() < 1e-9);
        assert_eq!(makespan(&w, "gamma"), None);
        assert_eq!(throughput(&w, "gamma"), 0.0);
    }

    #[test]
    fn turnaround_includes_queueing_and_startup() {
        let w = run_two_apps();
        let turn = turnaround(&w, "alpha");
        let exec = exec_latency(&w, "alpha");
        assert!(turn.mean() > exec.mean(), "turnaround must include waiting");
    }

    #[test]
    fn timeline_has_one_span_per_task_on_its_app_track() {
        let w = run_two_apps();
        let tl = timeline(&w);
        assert_eq!(tl.tracks(), vec!["alpha".to_string(), "beta".to_string()]);
        for app in ["alpha", "beta"] {
            let spans: Vec<(SimTime, SimTime)> = w
                .dfk
                .tasks()
                .iter()
                .filter(|t| *t.app == *app)
                .map(|t| (t.started.unwrap(), t.finished.unwrap()))
                .collect();
            assert_eq!(tl.track_spans(app), spans.as_slice());
        }
        let end = tl.horizon();
        // alpha's two bursts overlap on the two workers, so their union
        // runs from the first start to the last finish; beta runs alone.
        let alpha = w.dfk.tasks().iter().filter(|t| *t.app == *"alpha");
        let lo = alpha.clone().map(|t| t.started.unwrap()).min().unwrap();
        let hi = alpha.map(|t| t.finished.unwrap()).max().unwrap();
        assert_eq!(
            tl.union_busy("alpha", SimTime::ZERO, end),
            hi.duration_since(lo)
        );
        let beta = &w.dfk.tasks()[2];
        assert_eq!(
            tl.union_busy("beta", SimTime::ZERO, end),
            beta.finished.unwrap().duration_since(beta.started.unwrap())
        );

        // A retried task is still one span, from its first attempt's body
        // start to its settle: the failed attempt and the retry gap are
        // inside it. The first attempt fails (a GPU step on a CPU
        // worker); the retry burns 1 s of CPU.
        let config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
        let mut w = FaasWorld::new(config, GpuFleet::new(), 3);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        let made = Cell::new(0u32);
        let id = submit(
            &mut w,
            &mut eng,
            AppCall::new("retried", "cpu", move |_| {
                made.set(made.get() + 1);
                if made.get() == 1 {
                    let k = KernelDesc::new("k", 1.0, 75_600, 75_600, 0.0);
                    Box::new(KernelSeq::new(vec![k], SimDuration::ZERO))
                } else {
                    Box::new(CpuBurn::new(SimDuration::from_secs(1)))
                }
            }),
        );
        eng.run(&mut w);
        let t = w.dfk.task(id);
        assert_eq!((t.state, t.attempts), (TaskState::Done, 2));
        let span = (t.started.unwrap(), t.finished.unwrap());
        assert_eq!(timeline(&w).track_spans("retried"), &[span]);
        let starts: Vec<SimTime> = w
            .monitor
            .worker_events
            .iter()
            .filter(|e| e.kind == WorkerEventKind::TaskStart)
            .map(|e| e.t)
            .collect();
        assert_eq!(starts.len(), 2, "one dispatch per attempt");
        // The span opens before the retry's dispatch and closes no
        // sooner than the retry's 1 s body after it.
        assert!(
            starts[0] <= span.0 && span.0 < starts[1],
            "the span opens at the first attempt"
        );
        assert!(span.1.duration_since(starts[1]) >= SimDuration::from_secs(1));
    }

    #[test]
    fn summarize_shape() {
        let w = run_two_apps();
        let s = summarize(&w, "alpha", 0, "test-mode");
        assert_eq!(s.mode, "test-mode");
        assert!(s.makespan_s > 0.0);
        assert!(s.throughput > 0.0);
        assert_eq!(s.mean_utilization, 0.0, "no GPU in this platform");
    }
}
