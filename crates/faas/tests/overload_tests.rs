//! Overload protection: bounded queues with shed policies, deadline-aware
//! admission, retry budgets under a correlated outage, straggler hedging
//! with exactly-once completion (including the primary-crash race and the
//! duplicate-completion race), and the brownout degraded tier.

use parfait_faas::app::bodies::KernelSeq;
use parfait_faas::*;
use parfait_gpu::{DeviceMode, GpuFleet, GpuSpec, KernelDesc};
use parfait_simcore::{Engine, SimDuration, SimTime};

fn fleet_n(n: u32, mode: DeviceMode) -> GpuFleet {
    let mut fleet = GpuFleet::new();
    for _ in 0..n {
        let g = fleet.add(GpuSpec::a100_80gb());
        let d = fleet.device_mut(g);
        if matches!(mode, DeviceMode::MpsDefault | DeviceMode::MpsPartitioned) {
            d.mps.start();
        }
        d.set_mode(mode).unwrap();
    }
    fleet
}

/// A checkpointable GPU task: `kernels` one-second (full-device) kernels.
fn seq_call(app: &str, kernels: usize) -> AppCall {
    let app = app.to_string();
    AppCall::new(app, "gpu", move |_| {
        Box::new(KernelSeq::new(
            vec![KernelDesc::new("k", 108.0, 75_600, 75_600, 0.0); kernels],
            SimDuration::ZERO,
        ))
    })
}

fn one_worker_config() -> Config {
    Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )])
}

/// Under `Reject`, a full queue refuses the newcomer; admitted work is
/// untouched and still completes.
#[test]
fn reject_policy_refuses_past_queue_cap() {
    let mut config = one_worker_config();
    config.overload.queue_cap = Some(2);
    config.overload.shed_policy = ShedPolicy::Reject;
    let mut w = FaasWorld::new(config, fleet_n(1, DeviceMode::TimeSharing), 7);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    // All five land before the worker finishes cold start, so the queue
    // only drains afterwards: 2 admitted, 3 turned away at the door.
    let ids: Vec<TaskId> = (0..5)
        .map(|i| submit(&mut w, &mut eng, seq_call(&format!("t{i}"), 3)))
        .collect();
    assert_eq!(w.overload.stats.tasks_rejected, 3);
    assert_eq!(w.overload.stats.tasks_shed, 0);
    eng.run(&mut w);
    assert_eq!(w.dfk.done_count(), 2);
    assert_eq!(w.dfk.failed_count(), 3);
    for id in &ids[2..] {
        let t = w.dfk.task(*id);
        assert_eq!(t.state, TaskState::Failed);
        assert!(
            t.error.as_deref().unwrap().contains("queue full"),
            "refusal reason recorded: {:?}",
            t.error
        );
        assert_eq!(t.attempts, 0, "rejected work never dispatched");
    }
}

/// `ShedOldest` evicts the head of the queue to admit newer work.
#[test]
fn shed_oldest_evicts_head_of_queue() {
    let mut config = one_worker_config();
    config.overload.queue_cap = Some(2);
    config.overload.shed_policy = ShedPolicy::ShedOldest;
    let mut w = FaasWorld::new(config, fleet_n(1, DeviceMode::TimeSharing), 8);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let ids: Vec<TaskId> = (0..5)
        .map(|i| submit(&mut w, &mut eng, seq_call(&format!("t{i}"), 3)))
        .collect();
    // t0,t1 fill the cap; t2 sheds t0, t3 sheds t1, t4 sheds t2.
    assert_eq!(w.overload.stats.tasks_shed, 3);
    assert_eq!(w.overload.stats.tasks_rejected, 0);
    eng.run(&mut w);
    for id in &ids[..3] {
        assert_eq!(w.dfk.task(*id).state, TaskState::Failed);
        assert!(w.dfk.task(*id).error.as_deref().unwrap().contains("oldest"));
    }
    for id in &ids[3..] {
        assert_eq!(w.dfk.task(*id).state, TaskState::Done);
    }
}

/// `ShedLowestPriority` victimizes the lowest-priority task — the
/// newcomer itself when it ranks lowest, a queued task otherwise.
#[test]
fn shed_lowest_priority_picks_min_priority_victim() {
    let mut config = one_worker_config();
    config.overload.queue_cap = Some(2);
    config.overload.shed_policy = ShedPolicy::ShedLowestPriority;
    let mut w = FaasWorld::new(config, fleet_n(1, DeviceMode::TimeSharing), 9);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let t0 = submit(&mut w, &mut eng, seq_call("t0", 3).with_priority(5));
    let t1 = submit(&mut w, &mut eng, seq_call("t1", 3).with_priority(5));
    // Lowest-ranked newcomer: rejected at the door, queue untouched.
    let t2 = submit(&mut w, &mut eng, seq_call("t2", 3).with_priority(1));
    assert_eq!(w.overload.stats.tasks_rejected, 1);
    assert_eq!(w.dfk.task(t2).state, TaskState::Failed);
    // High-priority newcomer: one of the queued pri-5 tasks is shed.
    let t3 = submit(&mut w, &mut eng, seq_call("t3", 3).with_priority(10));
    assert_eq!(w.overload.stats.tasks_shed, 1);
    eng.run(&mut w);
    assert_eq!(w.dfk.task(t3).state, TaskState::Done);
    let survivors = [t0, t1]
        .iter()
        .filter(|id| w.dfk.task(**id).state == TaskState::Done)
        .count();
    assert_eq!(survivors, 1, "exactly one pri-5 task was shed");
    assert_eq!(w.dfk.done_count(), 2);
    assert_eq!(w.dfk.failed_count(), 2);
}

/// Deadline-aware admission refuses work whose estimated queue wait plus
/// service time already exceeds its deadline at submit.
#[test]
fn deadline_admission_rejects_unattainable_work() {
    let mut config = one_worker_config();
    config.overload.deadline_admission = true;
    let mut w = FaasWorld::new(config, fleet_n(1, DeviceMode::TimeSharing), 10);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let est = SimDuration::from_secs(10);
    let t0 = submit(
        &mut w,
        &mut eng,
        seq_call("t0", 10)
            .with_est_service(est)
            .with_deadline(SimDuration::from_secs(100)),
    );
    // One 10 s task queued, one worker: estimated wait 10 s + service
    // 10 s = 20 s > 15 s deadline.
    let t1 = submit(
        &mut w,
        &mut eng,
        seq_call("t1", 10)
            .with_est_service(est)
            .with_deadline(SimDuration::from_secs(15)),
    );
    // Same position but a feasible deadline: admitted.
    let t2 = submit(
        &mut w,
        &mut eng,
        seq_call("t2", 10)
            .with_est_service(est)
            .with_deadline(SimDuration::from_secs(120)),
    );
    assert_eq!(w.overload.stats.tasks_rejected, 1);
    assert_eq!(w.dfk.task(t1).state, TaskState::Failed);
    assert!(w
        .dfk
        .task(t1)
        .error
        .as_deref()
        .unwrap()
        .contains("deadline"));
    eng.run(&mut w);
    assert_eq!(w.dfk.task(t0).state, TaskState::Done);
    assert_eq!(w.dfk.task(t2).state, TaskState::Done);
    // The admission refusal is visible in the monitoring stream.
    assert!(w
        .monitor
        .fault_records
        .iter()
        .any(|r| r.kind == "admission-reject"));
}

fn hedge_world(seed: u64, hedge: Option<HedgePolicy>) -> FaasWorld {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0), AcceleratorSpec::Gpu(1)],
    )]);
    config.retries = 3;
    config.overload.hedge = hedge;
    FaasWorld::new(config, fleet_n(2, DeviceMode::TimeSharing), seed)
}

/// Slow the GPU running `task`'s primary attempt by 4× for a long time.
fn slow_primary_gpu(w: &mut FaasWorld, eng: &mut Engine<FaasWorld>, task: TaskId) -> u32 {
    let wid = w.dfk.task(task).worker.expect("dispatched");
    let (gpu, _) = w.workers[wid].gpu.expect("gpu worker");
    inject_fault(
        w,
        eng,
        &FaultKind::Straggler {
            gpu: gpu.0,
            factor: 0.25,
            duration: SimDuration::from_secs(500),
        },
    );
    gpu.0
}

/// A hedge launched against a straggling primary wins on the healthy
/// GPU, the loser is cancelled, and the task completes exactly once —
/// faster than the same task without hedging.
#[test]
fn hedge_beats_straggler_and_counts_exactly_once() {
    let run_one = |hedge: Option<HedgePolicy>| {
        let mut w = hedge_world(21, hedge);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        let id = submit(
            &mut w,
            &mut eng,
            seq_call("svc", 10).with_est_service(SimDuration::from_secs(10)),
        );
        // Let the primary start, then throttle its GPU to 1/4 speed.
        eng.run_until(&mut w, SimTime::from_secs(5));
        assert_eq!(w.dfk.task(id).state, TaskState::Running);
        slow_primary_gpu(&mut w, &mut eng, id);
        eng.run(&mut w);
        let t = w.dfk.task(id);
        assert_eq!(t.state, TaskState::Done);
        let latency = t
            .finished
            .unwrap()
            .duration_since(t.submitted)
            .as_secs_f64();
        (w, latency)
    };

    let (slow_w, unhedged) = run_one(None);
    assert_eq!(slow_w.overload.stats.hedges_launched, 0);

    let (w, hedged) = run_one(Some(HedgePolicy {
        trigger_factor: 1.2,
        jitter: 0.0,
        cancel_latency: SimDuration::from_millis(50),
    }));
    assert_eq!(w.overload.stats.hedges_launched, 1);
    assert_eq!(w.overload.stats.hedges_won, 1, "duplicate finished first");
    assert_eq!(w.overload.stats.hedges_wasted, 0);
    assert_eq!(w.dfk.done_count(), 1);
    assert_eq!(w.dfk.failed_count(), 0);
    assert_eq!(
        w.workers.iter().map(|wk| wk.tasks_completed).sum::<u64>(),
        1,
        "exactly one attempt counted as a completion"
    );
    assert_eq!(w.dfk.task(TaskId(0)).attempts, 1, "hedge is not an attempt");
    // The loser's cancellation is speculation cost, not failure loss.
    assert_eq!(w.recovery.stats.work_lost_s, 0.0);
    assert!(
        hedged < 0.75 * unhedged,
        "hedging beat the straggler: {hedged:.1}s vs {unhedged:.1}s"
    );
}

/// Duplicate completion is idempotent: with cancellation effectively
/// disabled, the straggling loser also runs to completion, and the
/// second `Ok` must not double-count anything. The hedge restores from
/// the primary's committed checkpoint instead of cold-starting.
#[test]
fn hedge_duplicate_completion_is_idempotent() {
    let mut w = hedge_world(
        22,
        Some(HedgePolicy {
            trigger_factor: 1.5,
            jitter: 0.0,
            // So large the loser finishes long before the cancel arrives:
            // both attempts complete, exercising the duplicate-Ok path.
            cancel_latency: SimDuration::from_secs(10_000),
        }),
    );
    w.config.checkpoint = CheckpointPolicy {
        interval: Some(SimDuration::from_secs(2)),
        overhead: SimDuration::from_millis(200),
        jitter: 0.0,
    };
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(
        &mut w,
        &mut eng,
        seq_call("svc", 10).with_est_service(SimDuration::from_secs(10)),
    );
    eng.run_until(&mut w, SimTime::from_secs(5));
    assert_eq!(w.dfk.task(id).state, TaskState::Running);
    slow_primary_gpu(&mut w, &mut eng, id);
    eng.run(&mut w);

    assert_eq!(w.overload.stats.hedges_launched, 1);
    assert_eq!(w.overload.stats.hedges_won, 1);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
    assert_eq!(w.dfk.done_count(), 1, "one task, one completion");
    assert_eq!(
        w.workers.iter().map(|wk| wk.tasks_completed).sum::<u64>(),
        1,
        "the loser's late Ok did not count a second completion"
    );
    assert_eq!(
        w.recovery.stats.tasks_resumed, 1,
        "the hedge resumed from the committed checkpoint exactly once"
    );
    assert!(w.recovery.stats.checkpoints_committed >= 1);
    assert!(
        w.checkpoints.is_empty(),
        "a loser's post-settlement commit must not leak a snapshot"
    );
    assert_eq!(w.recovery.stats.work_lost_s, 0.0);
}

/// The primary-crash race has a defined winner: a worker dying between
/// hedge launch and first completion leaves the duplicate as sole owner;
/// the task completes exactly once with no retry scheduled.
#[test]
fn hedge_survives_primary_crash_with_defined_winner() {
    let mut w = hedge_world(
        23,
        Some(HedgePolicy {
            trigger_factor: 1.2,
            jitter: 0.0,
            cancel_latency: SimDuration::from_millis(50),
        }),
    );
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(
        &mut w,
        &mut eng,
        seq_call("svc", 10).with_est_service(SimDuration::from_secs(10)),
    );
    eng.run_until(&mut w, SimTime::from_secs(5));
    assert_eq!(w.dfk.task(id).state, TaskState::Running);
    slow_primary_gpu(&mut w, &mut eng, id);
    // Hedge fires 12 s after body start; kill the primary in the window
    // between launch and the duplicate's completion.
    eng.run_until(&mut w, SimTime::from_secs(18));
    assert_eq!(w.overload.stats.hedges_launched, 1);
    assert!(w.overload.is_hedged(id), "pair still racing at 18 s");
    let primary = w.dfk.task(id).worker.expect("primary recorded");
    kill_worker(&mut w, &mut eng, primary, "host lost");
    assert!(
        !w.overload.is_hedged(id),
        "the crash dissolved the pair; the duplicate is sole owner"
    );
    assert_eq!(
        w.dfk.task(id).state,
        TaskState::Running,
        "task stays Running on the partner, no DFK failure"
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
    assert_eq!(w.dfk.done_count(), 1);
    assert_eq!(w.dfk.task(id).attempts, 1);
    assert_eq!(
        w.recovery.stats.retries_scheduled, 0,
        "no retry for the crash"
    );
    assert_eq!(
        w.workers.iter().map(|wk| wk.tasks_completed).sum::<u64>(),
        1
    );
    // Neither side won a race that the crash already decided.
    assert_eq!(w.overload.stats.hedges_won, 0);
    assert_eq!(w.overload.stats.hedges_wasted, 0);
}

/// A correlated host-reboot outage fails every in-flight task at once;
/// the retry budget caps the resulting retry traffic at the configured
/// fraction and recovery still converges once the domain re-admits.
#[test]
fn retry_budget_bounds_retry_storm_during_host_outage() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0), AcceleratorSpec::Gpu(1)],
    )]);
    config.retries = 5;
    // Default topology: both GPUs on host 0.
    config.recovery.host_reboot = SimDuration::from_secs(20);
    config.recovery.gpu_reenroll_stagger = SimDuration::from_secs(2);
    let budget = RetryBudget {
        ratio: 0.1,
        burst: 1.0,
    };
    config.overload.retry_budget = Some(budget);
    let mut w = FaasWorld::new(config, fleet_n(2, DeviceMode::TimeSharing), 24);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    // One shared service: all six tasks draw on the same app bucket.
    let n = 6;
    for _ in 0..n {
        submit(&mut w, &mut eng, seq_call("svc", 60));
    }
    install_faults(
        &mut w,
        &mut eng,
        &FaultPlan::one(SimTime::from_secs(10), FaultKind::HostReboot { host: 0 }),
    );
    eng.run_until(&mut w, SimTime::from_secs(11));
    // Two in-flight tasks died with the host: one retry fit the budget,
    // the other was suppressed and failed permanently.
    assert_eq!(w.recovery.stats.retries_scheduled, 1);
    assert_eq!(w.overload.stats.retries_suppressed, 1);
    assert_eq!(w.overload.retry_tokens("svc"), Some(0.0));
    assert!(
        (w.recovery.stats.retries_scheduled as f64) <= budget.burst + budget.ratio * n as f64,
        "retry traffic stays within the budget fraction"
    );
    assert!(w
        .monitor
        .fault_records
        .iter()
        .any(|r| r.kind == "retry-suppressed"));

    eng.run(&mut w);
    assert!(w.dfk.all_settled(), "recovery converged after re-admission");
    assert_eq!(w.dfk.done_count(), n - 1);
    assert_eq!(w.dfk.failed_count(), 1);
}

/// Sustained pressure engages the brownout tier (small MPS shares), the
/// extra capacity drains the backlog, and release retires the tier and
/// accounts the engaged time.
#[test]
fn brownout_engages_degraded_tier_and_releases() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![
            AcceleratorSpec::GpuPercentage(0, 40),
            AcceleratorSpec::GpuPercentage(0, 40),
        ],
    )]);
    config.retries = 3;
    let mut w = FaasWorld::new(config, fleet_n(1, DeviceMode::MpsPartitioned), 25);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let ids: Vec<TaskId> = (0..12)
        .map(|i| submit(&mut w, &mut eng, seq_call(&format!("t{i}"), 4)))
        .collect();
    let baseline_workers = w.workers.len();
    enable_brownout(
        &mut w,
        &mut eng,
        0,
        vec![
            AcceleratorSpec::GpuPercentage(0, 10),
            AcceleratorSpec::GpuPercentage(0, 10),
        ],
    );
    eng.run(&mut w);
    for id in &ids {
        assert_eq!(w.dfk.task(*id).state, TaskState::Done);
    }
    assert!(
        w.overload.stats.brownout_seconds > 0.0,
        "tier engaged under pressure and the engagement was accounted"
    );
    assert!(w
        .monitor
        .fault_records
        .iter()
        .any(|r| r.kind == "brownout-engaged"));
    assert!(w
        .monitor
        .fault_records
        .iter()
        .any(|r| r.kind == "brownout-released"));
    assert_eq!(
        w.workers.len(),
        baseline_workers + 2,
        "the degraded tier was spawned"
    );
    assert!(
        w.workers[baseline_workers..]
            .iter()
            .all(|wk| wk.state == WorkerState::Dead),
        "release drained every tier worker"
    );
    // Queue-time percentiles over the drained backlog are well-formed.
    let p = time_in_queue_percentiles(&w.dfk, 0).unwrap();
    assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
    assert!(p.p99 > 0.0, "a 12-deep backlog queued somebody");
}
