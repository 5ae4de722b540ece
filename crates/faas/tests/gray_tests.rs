//! Gray-failure detection: overlapping straggler episodes, watchdog
//! exemptions for drained/checkpointing workers, a zombie on one side of
//! a hedge pair, and the peer-relative fail-slow detector under a
//! device-wide straggler.

use std::cell::Cell;
use std::rc::Rc;

use parfait_faas::app::bodies::KernelSeq;
use parfait_faas::monitoring::FaultPhase;
use parfait_faas::*;
use parfait_gpu::{nvml, DeviceMode, GpuFleet, GpuId, GpuSpec, KernelDesc};
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

fn detected(w: &FaasWorld, kind: &str) -> usize {
    w.monitor
        .fault_records
        .iter()
        .filter(|r| r.kind == kind && matches!(r.phase, FaultPhase::Detected))
        .count()
}

/// Regression for overlapping straggler episodes: the first episode's
/// clear used to fire `set_slowdown(t, 1.0)` mid-second-episode,
/// silently restoring full speed. With the generation guard the device
/// stays slowed until the *last* overlapping episode ends.
#[test]
fn overlapping_stragglers_keep_device_slowed_until_last_clears() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    config.retries = 1;
    let mut w = FaasWorld::new(config, fleet_n(1, DeviceMode::TimeSharing), 23);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(&mut w, &mut eng, seq_call("long", 60));
    // Episode A: [2 s, 22 s) at half speed. Episode B arrives mid-A:
    // [10 s, 40 s) at quarter speed.
    let plan = FaultPlan::default()
        .with(
            SimTime::from_secs(2),
            FaultKind::Straggler {
                gpu: 0,
                factor: 0.5,
                duration: SimDuration::from_secs(20),
            },
        )
        .with(
            SimTime::from_secs(10),
            FaultKind::Straggler {
                gpu: 0,
                factor: 0.25,
                duration: SimDuration::from_secs(30),
            },
        );
    install_faults(&mut eng, &plan);

    eng.run_until(&mut w, SimTime::from_secs(25));
    // A's clear (t = 22 s) landed mid-B and must have been ignored.
    assert_eq!(
        w.fleet.device(GpuId(0)).slowdown(),
        0.25,
        "first episode's clear must not restore speed mid-second-episode"
    );
    eng.run_until(&mut w, SimTime::from_secs(41));
    assert_eq!(
        w.fleet.device(GpuId(0)).slowdown(),
        1.0,
        "speed restored once the last overlapping episode ends"
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
}

/// Racing test for the watchdog exemptions: a worker paused by a staged
/// drain, then stalled on a link-degraded checkpoint writeback far past
/// both the heartbeat and progress timeouts, is never declared dead —
/// the heartbeat watchdog sees healthy heartbeats and the progress
/// watchdog exempts draining / link-busy workers.
#[test]
fn drained_and_checkpointing_worker_is_never_declared_dead() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    config.retries = 3;
    // Tight progress watchdog: far shorter than the writeback below.
    config.recovery.progress_timeout = Some(SimDuration::from_secs(3));
    let mut w = FaasWorld::new(config, fleet_n(1, DeviceMode::TimeSharing), 29);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(&mut w, &mut eng, seq_call("t", 12));
    eng.run_until(&mut w, SimTime::from_secs(8));
    assert_eq!(w.workers[0].state, WorkerState::Busy, "mid-task");
    // Degrade the link 250×: the 64 MiB checkpoint writeback now takes
    // ~6.7 s — beyond the 2 s heartbeat timeout and the 3 s progress
    // timeout, but inside the 30 s drain force-kill window.
    inject_fault(
        &mut w,
        &mut eng,
        &FaultKind::FlakyLink {
            gpu: 0,
            factor: 0.004,
            duration: SimDuration::from_secs(60),
        },
    );
    let outcome: Rc<Cell<Option<DrainOutcome>>> = Rc::new(Cell::new(None));
    let seen = Rc::clone(&outcome);
    begin_drain(
        &mut w,
        &mut eng,
        0,
        vec![0],
        Box::new(move |_w, _e, o| seen.set(Some(o))),
    )
    .unwrap();
    eng.run_until(&mut w, SimTime::from_secs(30));
    let o = outcome.get().expect("drain completed inside the window");
    assert_eq!(o.forced_kills, 0, "member quiesced before the timeout");
    assert!(
        w.monitor
            .fault_records
            .iter()
            .any(|r| r.kind == "checkpoint-commit"),
        "the slow checkpoint writeback actually ran"
    );
    assert_eq!(
        w.recovery.stats.crashes_detected, 0,
        "heartbeat watchdog must not fire on a paused worker"
    );
    assert_eq!(detected(&w, "worker-crash"), 0);
    assert_eq!(
        w.recovery.gray.progress_kills, 0,
        "progress watchdog must exempt draining / link-busy workers"
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
}

/// A zombie fired on one side of a hedge pair: the primary freezes
/// (heartbeats continue, progress stops), the hedge launches on the
/// healthy GPU and wins — the task completes exactly once, and the
/// zombie is reaped by the progress watchdog, not double-completed.
#[test]
fn zombie_on_hedge_primary_survivor_wins_exactly_once() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0), AcceleratorSpec::Gpu(1)],
    )]);
    config.retries = 3;
    config.overload.hedge_trigger = Some(1.2);
    // Long enough that the hedge (armed at est · 1.2 = 12 s, plus up to
    // 10% jitter) resolves the task before the zombie is reaped.
    config.recovery.progress_timeout = Some(SimDuration::from_secs(30));
    let mut w = FaasWorld::new(config, fleet_n(2, DeviceMode::TimeSharing), 21);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(
        &mut w,
        &mut eng,
        seq_call("svc", 10).with_est_service(SimDuration::from_secs(10)),
    );
    eng.run_until(&mut w, SimTime::from_secs(5));
    assert_eq!(w.dfk.task(id).state, TaskState::Running);
    let primary = w.dfk.task(id).worker.expect("dispatched") as usize;
    inject_fault(
        &mut w,
        &mut eng,
        &FaultKind::ZombieWorker { worker: primary },
    );
    eng.run(&mut w);

    assert_eq!(w.recovery.gray.zombies_injected, 1);
    assert_eq!(w.overload.stats.hedges_launched, 1, "hedge fired");
    assert_eq!(w.overload.stats.hedges_won, 1, "survivor won exactly once");
    assert_eq!(w.overload.stats.hedges_wasted, 0);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
    assert_eq!(w.dfk.done_count(), 1);
    assert_eq!(w.dfk.failed_count(), 0);
    assert_eq!(
        w.workers.iter().map(|wk| wk.tasks_completed).sum::<u64>(),
        1,
        "exactly one attempt counted as a completion"
    );
}

/// The peer-relative fail-slow detector under an injected device-wide
/// straggler: every worker on the slow device shares one device-level
/// score, so the episode becomes a *device* probation (staged drain +
/// canary), never per-worker gray kills — zero workers are declared
/// dead or zombie.
#[test]
fn device_wide_straggler_is_probed_not_misread_as_worker_deaths() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0), AcceleratorSpec::Gpu(1)],
    )]);
    config.retries = 3;
    config.recovery.progress_timeout = Some(SimDuration::from_secs(10));
    config.recovery.fail_slow = true;
    let mut w = FaasWorld::new(config, fleet_n(2, DeviceMode::TimeSharing), 31);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let ids: Vec<TaskId> = (0..10)
        .map(|i| submit(&mut w, &mut eng, seq_call(&format!("t{i}"), 6)))
        .collect();
    // Halve GPU 1's rate for a long stretch: its 1 s steps become 2 s,
    // 2.0× over the GPU 0 peer baseline (threshold 1.6×) — but still
    // far inside the 10 s progress timeout.
    install_faults(
        &mut eng,
        &FaultPlan::one(
            SimTime::from_secs(3),
            FaultKind::Straggler {
                gpu: 1,
                factor: 0.5,
                duration: SimDuration::from_secs(60),
            },
        ),
    );
    eng.run(&mut w);

    assert_eq!(
        w.recovery.gray.progress_kills, 0,
        "a device-wide slowdown is not N zombie workers"
    );
    assert_eq!(w.recovery.stats.crashes_detected, 0);
    assert!(
        w.recovery.gray.probations >= 1,
        "the slow device entered probation"
    );
    assert_eq!(
        w.recovery.gray.readmits + w.recovery.gray.parks,
        w.recovery.gray.probations,
        "every probation reached a verdict"
    );
    let failslow_gpus: Vec<Option<u32>> = w
        .monitor
        .fault_records
        .iter()
        .filter(|r| r.kind == "fail-slow" && matches!(r.phase, FaultPhase::Detected))
        .map(|r| r.gpu)
        .collect();
    assert!(!failslow_gpus.is_empty(), "fail-slow detection recorded");
    assert!(
        failslow_gpus.iter().all(|&g| g == Some(1)),
        "only the straggling device is accused, got {failslow_gpus:?}"
    );
    for id in &ids {
        assert_eq!(w.dfk.task(*id).state, TaskState::Done);
    }
}

/// How far `drive_probe_fence` has got.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Stage {
    AwaitProbation,
    AwaitProbeCanary,
    Fenced,
}

/// Every 1 ms: once GPU 1 enters probation, kill its residents, so the
/// canary has no context to borrow and brings its own probe context;
/// once that canary runs, fence the device.
fn drive_probe_fence(w: &mut FaasWorld, e: &mut Engine<FaasWorld>, stage: Rc<Cell<Stage>>) {
    let gpu = GpuId(1);
    match stage.get() {
        Stage::AwaitProbation if w.recovery.gray.probations >= 1 => {
            let residents: Vec<usize> = w
                .workers
                .iter()
                .filter(|wk| wk.gpu.is_some_and(|(g, _)| g == gpu))
                .map(|wk| wk.id)
                .collect();
            for wid in residents {
                kill_worker(w, e, wid, "test: evacuation lost every resident");
            }
            stage.set(Stage::AwaitProbeCanary);
        }
        Stage::AwaitProbeCanary => {
            let probe_busy = nvml::list_processes(&mut w.fleet, gpu, e.now())
                .iter()
                .any(|p| p.label == "gray.canary")
                && w.fleet.device(gpu).busy_sms() > 0.0;
            if probe_busy {
                quarantine_gpu(w, e, gpu, "test: fence mid-canary");
                stage.set(Stage::Fenced);
                return;
            }
        }
        _ => {}
    }
    if stage.get() != Stage::Fenced {
        e.schedule_in(SimDuration::from_millis(1), move |w, e| {
            drive_probe_fence(w, e, stage)
        });
    }
}

/// A fence that lands while the canary runs on its own probe context
/// aborts the canary with the context. On a time-shared device the wake
/// is armed only for a completion, so the teardown must resync the
/// device: a wake left at the aborted canary's finish would deliver
/// nothing (debug builds assert every time-sharing wake delivers a
/// completion).
#[test]
fn fence_during_probe_context_canary_resyncs_the_device() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0), AcceleratorSpec::Gpu(1)],
    )]);
    config.retries = 3;
    config.recovery.progress_timeout = Some(SimDuration::from_secs(10));
    config.recovery.fail_slow = true;
    let mut w = FaasWorld::new(config, fleet_n(2, DeviceMode::TimeSharing), 31);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let ids: Vec<TaskId> = (0..10)
        .map(|i| submit(&mut w, &mut eng, seq_call(&format!("t{i}"), 6)))
        .collect();
    install_faults(
        &mut eng,
        &FaultPlan::one(
            SimTime::from_secs(3),
            FaultKind::Straggler {
                gpu: 1,
                factor: 0.5,
                duration: SimDuration::from_secs(60),
            },
        ),
    );
    let stage = Rc::new(Cell::new(Stage::AwaitProbation));
    let poll = stage.clone();
    eng.schedule_at(SimTime::ZERO, move |w, e| drive_probe_fence(w, e, poll));
    eng.run(&mut w);

    assert_eq!(stage.get(), Stage::Fenced, "the fence hit a probe canary");
    assert!(detected(&w, "gpu-quarantine") >= 1);
    assert!(
        nvml::list_processes(&mut w.fleet, GpuId(1), eng.now())
            .iter()
            .all(|p| p.label != "gray.canary"),
        "the fence destroyed the probe context"
    );
    for id in &ids {
        assert_eq!(w.dfk.task(*id).state, TaskState::Done);
    }
}
