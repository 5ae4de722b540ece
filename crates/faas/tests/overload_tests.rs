//! Overload protection: bounded queues that shed their oldest entry,
//! deadline-aware admission, retry budgets under a correlated outage,
//! straggler hedging with exactly-once completion (including the
//! primary-crash race and the duplicate-completion race), hedge-loser
//! cancellation (the in-flight kernel is aborted, the worker survives),
//! and the brownout degraded tier.

use parfait_faas::app::bodies::KernelSeq;
use parfait_faas::monitoring::WorkerEventKind;
use parfait_faas::*;
use parfait_gpu::{DeviceMode, GpuFleet, GpuId, GpuSpec, KernelDesc};
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

/// A full-GPU kernel of `sm_seconds` SM-seconds of work.
fn gpu_kernel(sm_seconds: f64) -> KernelDesc {
    KernelDesc::new("k", sm_seconds, 75_600, 75_600, 0.0)
}

/// A checkpointable GPU task: `kernels` one-second (full-device) kernels.
fn seq_call(app: &str, kernels: usize) -> AppCall {
    let app = app.to_string();
    AppCall::new(app, "gpu", move |_| {
        Box::new(KernelSeq::new(
            vec![gpu_kernel(108.0); kernels],
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

/// A full bounded queue evicts its head to admit newer work.
#[test]
fn shed_oldest_evicts_head_of_queue() {
    let mut config = one_worker_config();
    config.overload.queue_cap = Some(2);
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

fn hedge_world(seed: u64, hedge_trigger: Option<f64>) -> FaasWorld {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0), AcceleratorSpec::Gpu(1)],
    )]);
    config.retries = 3;
    config.overload.hedge_trigger = hedge_trigger;
    FaasWorld::new(config, fleet_n(2, DeviceMode::TimeSharing), seed)
}

/// Slow the GPU running `task`'s primary attempt by 4× for `duration`.
fn slow_primary_gpu(
    w: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    task: TaskId,
    duration: SimDuration,
) -> u32 {
    let wid = w.dfk.task(task).worker.expect("dispatched");
    let (gpu, _) = w.workers[wid].gpu.expect("gpu worker");
    inject_fault(
        w,
        eng,
        &FaultKind::Straggler {
            gpu: gpu.0,
            factor: 0.25,
            duration,
        },
    );
    gpu.0
}

/// A hedge launched against a straggling primary wins on the healthy
/// GPU, the loser is cancelled, and the task completes exactly once —
/// faster than the same task without hedging.
#[test]
fn hedge_beats_straggler_and_counts_exactly_once() {
    let run_one = |hedge_trigger: Option<f64>| {
        let mut w = hedge_world(21, hedge_trigger);
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
        slow_primary_gpu(&mut w, &mut eng, id, SimDuration::from_secs(500));
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

    let (w, hedged) = run_one(Some(1.2));
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

/// Duplicate completion is idempotent: the straggling loser finishes
/// inside the 50 ms cancel latency, before its cancellation arrives, and
/// the second `Ok` must not double-count anything. The hedge restores
/// from the primary's committed checkpoint instead of cold-starting.
#[test]
fn hedge_duplicate_completion_is_idempotent() {
    let mut w = hedge_world(22, Some(1.5));
    w.config.checkpoint_interval = Some(SimDuration::from_secs(2));
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(
        &mut w,
        &mut eng,
        seq_call("svc", 10).with_est_service(SimDuration::from_secs(10)),
    );
    eng.run_until(&mut w, SimTime::from_secs(5));
    assert_eq!(w.dfk.task(id).state, TaskState::Running);
    // A 14 s episode at 1/4 speed: the hedge (resumed from a snapshot on
    // the healthy GPU) wins, and the primary, back at full speed, trails
    // it by about 22 ms.
    slow_primary_gpu(&mut w, &mut eng, id, SimDuration::from_secs(14));
    eng.run(&mut w);

    assert_eq!(w.overload.stats.hedges_launched, 1);
    assert_eq!(w.overload.stats.hedges_won, 1);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
    assert_eq!(w.dfk.done_count(), 1, "one task, one completion");
    // Both attempts ended `ok`, the loser inside the cancel latency: its
    // late `Ok` was reached, and no cancellation tore it down.
    let primary = w.dfk.task(id).worker.expect("dispatched");
    let ends: Vec<(usize, SimTime, &str)> = w
        .monitor
        .worker_events
        .iter()
        .filter(|e| e.kind == WorkerEventKind::TaskEnd)
        .map(|e| (e.worker, e.t, e.detail.as_str()))
        .collect();
    assert_eq!(ends.len(), 2, "{ends:?}");
    let (winner, won_at, winner_end) = ends[0];
    let (loser, lost_at, loser_end) = ends[1];
    assert_ne!(winner, primary, "the hedge won");
    assert_eq!(loser, primary, "the primary lost");
    assert_eq!((winner_end, loser_end), ("task 0 ok", "task 0 ok"));
    assert!(lost_at > won_at, "{ends:?}");
    assert!(
        lost_at.duration_since(won_at) < config::HEDGE_CANCEL_LATENCY,
        "{ends:?}"
    );
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
    let mut w = hedge_world(23, Some(1.2));
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(
        &mut w,
        &mut eng,
        seq_call("svc", 10).with_est_service(SimDuration::from_secs(10)),
    );
    eng.run_until(&mut w, SimTime::from_secs(5));
    assert_eq!(w.dfk.task(id).state, TaskState::Running);
    slow_primary_gpu(&mut w, &mut eng, id, SimDuration::from_secs(500));
    // Hedge fires 12–13.2 s after body start (est · 1.2, jittered by up
    // to 10%); kill the primary in the window between launch and the
    // duplicate's completion.
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

/// A hedge loser's cancellation aborts its in-flight kernel on the
/// device while its worker survives and serves the next task.
#[test]
fn hedge_loser_cancel_aborts_kernel_but_not_worker() {
    // The primary finishes its 20 s kernel first; the duplicate, started
    // ~3 s later on the other GPU, is cancelled 50 ms after: its kernel
    // dies on the device, its worker survives and serves the next task.
    let mut w = hedge_world(51, Some(1.5));
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(
        &mut w,
        &mut eng,
        AppCall::new("runaway", "gpu", |_| {
            Box::new(KernelSeq::new(
                vec![gpu_kernel(108.0 * 20.0)],
                SimDuration::ZERO,
            ))
        })
        .with_est_service(SimDuration::from_secs(2)),
    );
    while w.dfk.task(id).state != TaskState::Done {
        assert!(eng.step(&mut w), "the primary completes");
    }
    assert_eq!(w.overload.stats.hedges_launched, 1);
    assert_eq!(w.overload.stats.hedges_wasted, 1, "the primary won");
    let primary = w.dfk.task(id).worker.expect("dispatched");
    let loser = 1 - primary;
    let loser_gpu = GpuId(loser as u32);
    assert_eq!(w.workers[loser].state, WorkerState::Busy, "still racing");
    assert_eq!(w.fleet.device(loser_gpu).active_kernels(), 1);
    let won_at = w.dfk.task(id).finished.expect("done");
    eng.run_until(&mut w, won_at + config::HEDGE_CANCEL_LATENCY);
    assert_eq!(w.workers[loser].state, WorkerState::Idle, "worker survived");
    // The aborted kernel is gone from the device: its 20 s would have
    // run ~3 s past the primary's finish.
    assert_eq!(w.fleet.device(loser_gpu).active_kernels(), 0);
    assert!(w.fleet.device(loser_gpu).next_wake(eng.now()).is_none());
    assert!(w.monitor.worker_events.iter().any(|e| e.worker == loser
        && e.kind == WorkerEventKind::TaskEnd
        && e.detail == format!("task {} cancelled (hedge loser)", id.0)));
    assert_eq!(w.dfk.done_count(), 1);
    assert_eq!(w.workers[loser].tasks_completed, 0);
    // Both workers serve the next two tasks, the loser included.
    let next: Vec<TaskId> = (0..2)
        .map(|_| {
            submit(
                &mut w,
                &mut eng,
                AppCall::new("healthy", "gpu", |_| {
                    Box::new(KernelSeq::new(vec![gpu_kernel(54.0)], SimDuration::ZERO))
                }),
            )
        })
        .collect();
    eng.run(&mut w);
    assert_eq!(w.dfk.done_count(), 3);
    assert_eq!(w.workers[loser].tasks_completed, 1, "the loser served");
    assert_eq!(w.recovery.stats.work_lost_s, 0.0);
    // Two 0.5 s tasks side by side after the cancel, not queued behind
    // the loser's remaining ~3 s.
    for id in next {
        let end = w.dfk.task(id).finished.unwrap().duration_since(won_at);
        assert!(end.as_secs_f64() < 1.0, "ended {end} after the win");
    }
}

/// Regression guard for the tag-sequencing: a hedge loser's kernel is
/// aborted mid-flight and the loser moves straight on to the next queued
/// task; nothing of the cancelled attempt may advance the new one, so
/// every task still runs its whole body.
#[test]
fn orphaned_kernel_completion_cannot_resume_next_task() {
    let mut w = hedge_world(52, Some(1.5));
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let body = || {
        Box::new(KernelSeq::new(
            vec![gpu_kernel(108.0 * 3.0), gpu_kernel(54.0)],
            SimDuration::from_millis(200),
        ))
    };
    let hedged = submit(
        &mut w,
        &mut eng,
        AppCall::new("mixed", "gpu", move |_| body()).with_est_service(SimDuration::from_secs(1)),
    );
    // Queue two more once the duplicate is running, so the loser picks
    // one up the moment it is cancelled.
    while !w.overload.is_hedged(hedged) {
        assert!(eng.step(&mut w), "the hedge launches");
    }
    let queued: Vec<TaskId> = (0..2)
        .map(|_| {
            submit(
                &mut w,
                &mut eng,
                AppCall::new("mixed", "gpu", move |_| body()),
            )
        })
        .collect();
    eng.run(&mut w);
    assert!(w.dfk.all_settled());
    assert_eq!(w.dfk.done_count(), 3);
    assert_eq!(w.overload.stats.hedges_launched, 1);
    assert_eq!(
        w.overload.stats.hedges_won + w.overload.stats.hedges_wasted,
        1
    );
    assert_eq!(
        w.workers.iter().map(|wk| wk.tasks_completed).sum::<u64>(),
        3,
        "each task completed exactly once"
    );
    // The 200 ms gaps are host time (no GPU contention), so every body
    // takes at least 0.2 + 3 + 0.2 + 0.5 s of execution.
    for id in queued {
        let t = w.dfk.task(id);
        let exec = t.finished.unwrap().duration_since(t.started.unwrap());
        assert!(exec.as_secs_f64() >= 3.9 - 1e-6, "task {} ran {exec}", id.0);
    }
    for g in 0..2 {
        assert_eq!(w.fleet.device(GpuId(g)).active_kernels(), 0);
    }
}

/// A correlated host-reboot outage fails every in-flight task at once;
/// the retry budget caps the resulting retry traffic at its fixed
/// fraction and recovery still converges once the domain re-admits.
#[test]
fn retry_budget_bounds_retry_storm_during_host_outage() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        (0..4).map(AcceleratorSpec::Gpu).collect(),
    )]);
    config.retries = 5;
    // Default topology: all four GPUs on host 0.
    config.recovery.host_reboot = SimDuration::from_secs(20);
    config.recovery.gpu_reenroll_stagger = SimDuration::from_secs(2);
    config.overload.retry_budget = true;
    let (ratio, burst) = (config::RETRY_BUDGET_RATIO, config::RETRY_BUDGET_BURST);
    assert_eq!((ratio, burst), (0.1, 3.0));
    let mut w = FaasWorld::new(config, fleet_n(4, DeviceMode::TimeSharing), 24);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    // One shared service: all eight tasks draw on the same app bucket.
    let n = 8;
    for _ in 0..n {
        submit(&mut w, &mut eng, seq_call("svc", 60));
    }
    install_faults(
        &mut w,
        &mut eng,
        &FaultPlan::one(SimTime::from_secs(10), FaultKind::HostReboot { host: 0 }),
    );
    eng.run_until(&mut w, SimTime::from_secs(11));
    // Four in-flight tasks died with the host: three retries fit the
    // burst, the fourth was suppressed and failed permanently.
    assert_eq!(w.recovery.stats.retries_scheduled, 3);
    assert_eq!(w.overload.stats.retries_suppressed, 1);
    assert_eq!(w.overload.retry_tokens("svc"), Some(0.0));
    assert!(
        (w.recovery.stats.retries_scheduled as f64) <= burst + ratio * n as f64,
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
