//! Fault injection, detection, and recovery: blast radius per device
//! mode, heartbeat watchdog, backoff retry, restart budget, circuit
//! breaker, and end-to-end determinism.

use parfait_faas::app::bodies::{CpuBurn, KernelSeq};
use parfait_faas::chaos::{generate_schedule, ChaosAction, ChaosConfig};
use parfait_faas::monitoring::export_json;
use parfait_faas::*;
use parfait_gpu::{DeviceMode, GpuFleet, GpuId, GpuSpec, KernelDesc, GIB};
use parfait_simcore::{Engine, SimDuration, SimTime};

fn fleet_one(mode: DeviceMode) -> GpuFleet {
    let mut fleet = GpuFleet::new();
    let g = fleet.add(GpuSpec::a100_80gb());
    let d = fleet.device_mut(g);
    if matches!(mode, DeviceMode::MpsDefault | DeviceMode::MpsPartitioned) {
        d.mps.start();
    }
    d.set_mode(mode).unwrap();
    fleet
}

fn cpu_call(app: &str, secs: u64) -> AppCall {
    AppCall::new(app, "cpu", move |_| {
        Box::new(CpuBurn::new(SimDuration::from_secs(secs)))
    })
}

fn gpu_call(app: &str, sm_seconds: f64) -> AppCall {
    AppCall::new(app, "gpu", move |_| {
        Box::new(KernelSeq::new(
            vec![KernelDesc::new("k", sm_seconds, 75_600, 75_600, 0.0)],
            SimDuration::ZERO,
        ))
    })
}

/// The acceptance scenario, MPS half: a fatal client fault under
/// `MpsDefault` poisons the shared context — every co-resident worker on
/// the device dies and the device is quarantined — yet every task still
/// completes after re-admission.
#[test]
fn mps_client_fault_kills_all_residents_then_recovers() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![
            AcceleratorSpec::Gpu(0),
            AcceleratorSpec::Gpu(0),
            AcceleratorSpec::Gpu(0),
        ],
    )]);
    config.retries = 3;
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::MpsDefault), 42);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let ids: Vec<TaskId> = (0..6)
        .map(|i| submit(&mut w, &mut eng, gpu_call(&format!("t{i}"), 3.0)))
        .collect();
    let plan = FaultPlan::one(
        SimTime::from_secs(15),
        FaultKind::GpuClientFault { worker: 0 },
    );
    install_faults(&mut eng, &plan);

    eng.run_until(&mut w, SimTime::from_secs(16));
    assert!(
        w.workers.iter().all(|wk| wk.state == WorkerState::Dead),
        "MPS blast radius: every co-resident client dies, states: {:?}",
        w.workers.iter().map(|wk| wk.state).collect::<Vec<_>>()
    );
    assert!(gpu_quarantined(&w, GpuId(0)), "device quarantined");
    assert!(!w.fleet.device(GpuId(0)).is_healthy());
    assert_eq!(w.fleet.device(GpuId(0)).context_count(), 0);
    assert_eq!(w.recovery.stats.quarantines, 1);
    assert!(w.recovery.stats.workers_lost >= 3);

    eng.run(&mut w);
    assert!(
        !gpu_quarantined(&w, GpuId(0)),
        "cooldown elapsed, breaker closed"
    );
    assert!(w.fleet.device(GpuId(0)).is_healthy());
    for id in &ids {
        assert_eq!(
            w.dfk.task(*id).state,
            TaskState::Done,
            "task {} must complete after re-admission",
            id.0
        );
    }
    assert!(w.recovery.stats.respawns >= 3, "parked workers respawned");
    assert!(w.monitor.mttr_s().is_some(), "incidents paired for MTTR");
}

/// The acceptance scenario, MIG half: the *same* fault under MIG is
/// contained to the faulting instance — exactly one worker dies, the
/// others never stop, and the breaker does not trip.
#[test]
fn mig_client_fault_is_contained_to_one_instance() {
    let mut fleet = fleet_one(DeviceMode::Mig);
    let d = fleet.device_mut(GpuId(0));
    let uuids: Vec<String> = (0..3)
        .map(|_| {
            let iid = d.mig_create("2g.20gb").unwrap();
            d.mig.get(iid).unwrap().uuid.clone()
        })
        .collect();
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        uuids.iter().cloned().map(AcceleratorSpec::Mig).collect(),
    )]);
    config.retries = 3;
    let mut w = FaasWorld::new(config, fleet, 42);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let ids: Vec<TaskId> = (0..6)
        .map(|i| submit(&mut w, &mut eng, gpu_call(&format!("t{i}"), 3.0)))
        .collect();
    let plan = FaultPlan::one(
        SimTime::from_secs(15),
        FaultKind::GpuClientFault { worker: 0 },
    );
    install_faults(&mut eng, &plan);

    eng.run_until(&mut w, SimTime::from_secs(16));
    // The victim died (and may already be cold-starting its respawn).
    assert_eq!(w.recovery.stats.workers_lost, 1, "exactly one worker lost");
    assert_eq!(w.workers[0].restarts_used, 1, "victim respawning");
    let survivors = w
        .workers
        .iter()
        .skip(1)
        .filter(|wk| matches!(wk.state, WorkerState::Idle | WorkerState::Busy))
        .count();
    assert_eq!(
        survivors,
        2,
        "MIG contains the fault: co-resident instances untouched, states: {:?}",
        w.workers.iter().map(|wk| wk.state).collect::<Vec<_>>()
    );
    assert!(!gpu_quarantined(&w, GpuId(0)), "one fault does not trip");
    assert!(w.fleet.device(GpuId(0)).is_healthy());

    eng.run(&mut w);
    for id in &ids {
        assert_eq!(w.dfk.task(*id).state, TaskState::Done);
    }
    assert_eq!(w.recovery.stats.quarantines, 0);
    assert!(w.recovery.stats.respawns >= 1, "victim respawned");
}

/// A silent crash is invisible until the heartbeat watchdog times out; the
/// task held by the crashed worker is only failed (and retried) at
/// detection time.
#[test]
fn watchdog_detects_silent_crash_after_timeout() {
    let config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
    let timeout = config.recovery.heartbeat_timeout;
    let mut w = FaasWorld::new(config, GpuFleet::new(), 7);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(&mut w, &mut eng, cpu_call("long", 60));
    let crash_at = SimTime::from_secs(10);
    install_faults(
        &mut eng,
        &FaultPlan::one(crash_at, FaultKind::WorkerCrash { worker: 0 }),
    );

    eng.run_until(&mut w, crash_at + SimDuration::from_millis(1));
    assert_eq!(w.workers[0].state, WorkerState::Crashed);
    assert_eq!(
        w.dfk.task(id).state,
        TaskState::Running,
        "platform has not noticed yet"
    );

    eng.run(&mut w);
    let detected = w
        .monitor
        .fault_records
        .iter()
        .find(|r| r.kind == "worker-crash" && matches!(r.phase, FaultPhase::Detected))
        .expect("watchdog records the detection");
    let silence = detected.t.duration_since(crash_at);
    assert!(
        silence >= timeout,
        "detected after only {silence:?} of silence"
    );
    assert!(
        silence <= timeout + SimDuration::from_secs(1),
        "detection is prompt: {silence:?}"
    );
    assert_eq!(w.dfk.task(id).state, TaskState::Done, "retried and done");
    assert_eq!(w.recovery.stats.crashes_detected, 1);
    assert_eq!(w.recovery.stats.respawns, 1);
}

/// Failed attempts re-queue with exponential backoff, not instantly: the
/// gap between consecutive dispatches of the same task grows.
#[test]
fn retries_back_off_exponentially() {
    let mut config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
    config.retries = 3;
    let mut w = FaasWorld::new(config, GpuFleet::new(), 9);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    // A GPU step on a CPU-only worker fails instantly on every attempt.
    let id = submit(
        &mut w,
        &mut eng,
        AppCall::new("doomed", "cpu", |_| {
            Box::new(KernelSeq::new(
                vec![KernelDesc::new("k", 1.0, 75_600, 75_600, 0.0)],
                SimDuration::ZERO,
            ))
        }),
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Failed);
    assert_eq!(w.dfk.task(id).attempts, 4, "1 try + 3 retries");
    assert_eq!(w.recovery.stats.retries_scheduled, 3);
    let detail = format!("task {}", id.0);
    let starts: Vec<SimTime> = w
        .monitor
        .worker_events
        .iter()
        .filter(|e| {
            matches!(e.kind, parfait_faas::monitoring::WorkerEventKind::TaskStart)
                && e.detail == detail
        })
        .map(|e| e.t)
        .collect();
    assert_eq!(starts.len(), 4);
    let gaps: Vec<f64> = starts
        .windows(2)
        .map(|p| p[1].duration_since(p[0]).as_secs_f64())
        .collect();
    // base 100 ms doubling, jitter in [1, 1.25): each gap is at least the
    // deterministic floor and the sequence grows.
    assert!(gaps[0] >= 0.1, "first backoff {gaps:?}");
    assert!(gaps[1] >= 0.2, "second backoff {gaps:?}");
    assert!(gaps[2] >= 0.4, "third backoff {gaps:?}");
    assert!(gaps[0] < gaps[1] && gaps[1] < gaps[2], "growing: {gaps:?}");
}

/// Auto-respawn is budgeted: after `restart_budget` restarts the worker
/// stays down and the exhaustion is recorded.
#[test]
fn restart_budget_caps_auto_respawns() {
    let mut config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
    config.recovery.restart_budget = 2;
    let mut w = FaasWorld::new(config, GpuFleet::new(), 11);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let plan = FaultPlan::default()
        .with(SimTime::from_secs(10), FaultKind::WorkerCrash { worker: 0 })
        .with(SimTime::from_secs(40), FaultKind::WorkerCrash { worker: 0 })
        .with(SimTime::from_secs(80), FaultKind::WorkerCrash { worker: 0 });
    install_faults(&mut eng, &plan);
    eng.run(&mut w);
    assert_eq!(w.workers[0].state, WorkerState::Dead, "stays down");
    assert_eq!(w.recovery.stats.respawns, 2);
    assert_eq!(w.workers[0].restarts_used, 2);
    assert!(w
        .monitor
        .fault_records
        .iter()
        .any(|r| r.kind == "restart-budget-exhausted"));
}

/// Contained client faults accumulate on the per-GPU breaker and trip it
/// at the threshold, quarantining the device.
#[test]
fn breaker_trips_after_repeated_contained_faults() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    config.retries = 5;
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 13);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(&mut w, &mut eng, gpu_call("t", 100.0));
    let plan = FaultPlan::default()
        .with(
            SimTime::from_secs(15),
            FaultKind::GpuClientFault { worker: 0 },
        )
        .with(
            SimTime::from_secs(30),
            FaultKind::GpuClientFault { worker: 0 },
        )
        .with(
            SimTime::from_secs(45),
            FaultKind::GpuClientFault { worker: 0 },
        );
    install_faults(&mut eng, &plan);
    assert_eq!(config::BREAKER_THRESHOLD, 3);
    eng.run_until(&mut w, SimTime::from_secs(20));
    assert!(
        !gpu_quarantined(&w, GpuId(0)),
        "below threshold: no quarantine yet"
    );
    eng.run_until(&mut w, SimTime::from_secs(35));
    assert!(
        !gpu_quarantined(&w, GpuId(0)),
        "still below threshold after the second fault"
    );
    eng.run_until(&mut w, SimTime::from_secs(46));
    assert!(gpu_quarantined(&w, GpuId(0)), "third fault trips");
    eng.run(&mut w);
    assert_eq!(w.recovery.stats.quarantines, 1);
    // 100 SM-seconds never fit before a fault; the task exhausts retries
    // or completes after re-admission — either way the world drains.
    let t = w.dfk.task(id);
    assert!(matches!(t.state, TaskState::Done | TaskState::Failed));
}

/// Provisioning failures and model-load OOMs are absorbed: the worker
/// retries provisioning (budgeted) and the task retries its load.
#[test]
fn provisioning_failure_and_model_oom_recover() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    config.retries = 2;
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 17);
    let mut eng = Engine::new();
    // Poison the first provisioning attempt before boot.
    inject_fault(
        &mut w,
        &mut eng,
        &FaultKind::ProvisioningFailure { worker: 0 },
    );
    boot(&mut w, &mut eng);
    let model = ModelProfile::private(7, GIB);
    let id = submit(
        &mut w,
        &mut eng,
        AppCall::new("infer", "gpu", move |_| {
            Box::new(
                KernelSeq::new(
                    vec![KernelDesc::new("k", 1.0, 75_600, 75_600, 0.0)],
                    SimDuration::ZERO,
                )
                .with_model(model),
            )
        }),
    );
    install_faults(
        &mut eng,
        &FaultPlan::one(SimTime::from_secs(1), FaultKind::ModelLoadOom { worker: 0 }),
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
    assert_eq!(w.recovery.stats.respawns, 1, "provisioning retried");
    assert!(w.dfk.task(id).attempts >= 2, "load OOM burned one attempt");
    assert!(w
        .monitor
        .fault_records
        .iter()
        .any(|r| r.kind == "provisioning-failure"));
    assert!(w
        .monitor
        .fault_records
        .iter()
        .any(|r| r.kind == "model-load-oom"));
}

/// A straggler episode slows kernels and then clears, recording both
/// phases.
#[test]
fn straggler_slows_then_clears() {
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 19);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    // 216 SM-seconds on 108 SMs ≈ 2 s of device time at nominal rate.
    let fast = submit(&mut w, &mut eng, gpu_call("fast", 216.0));
    let plan = FaultPlan::one(
        SimTime::from_secs(2),
        FaultKind::Straggler {
            gpu: 0,
            factor: 0.25,
            duration: SimDuration::from_secs(60),
        },
    );
    install_faults(&mut eng, &plan);
    eng.run(&mut w);
    let t = w.dfk.task(fast);
    assert_eq!(t.state, TaskState::Done);
    // At quarter speed the ~2 s kernel takes ~8 s.
    let dur = t
        .finished
        .unwrap()
        .duration_since(t.started.unwrap())
        .as_secs_f64();
    assert!(dur > 4.0, "straggler must stretch the kernel, took {dur}s");
    assert_eq!(w.fleet.device(GpuId(0)).slowdown(), 1.0, "restored");
    assert!(w
        .monitor
        .fault_records
        .iter()
        .any(|r| r.kind == "straggler-cleared"));
}

/// The faults the chaos grammar draws for cases `0..cases` of search
/// `seed` on `cfg`'s fleet, as plan events.
fn chaos_faults(seed: u64, cases: u64, cfg: &ChaosConfig) -> Vec<FaultEvent> {
    (0..cases)
        .flat_map(|case| generate_schedule(seed, case, cfg).events)
        .filter_map(|e| match e.action {
            ChaosAction::Fault(kind) => Some(FaultEvent { at: e.at, kind }),
            _ => None,
        })
        .collect()
}

/// Same seed + same plan ⇒ bit-identical monitoring export (fault
/// records, task rows, worker events), including faults the chaos
/// grammar draws.
#[test]
fn fault_runs_are_deterministic() {
    fn run_once() -> (String, FaultPlan, u64) {
        let mut config = Config::new(vec![ExecutorConfig::gpu(
            "gpu",
            vec![AcceleratorSpec::Gpu(0), AcceleratorSpec::Gpu(0)],
        )]);
        config.retries = 3;
        let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 12345);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        for i in 0..8 {
            submit(&mut w, &mut eng, gpu_call(&format!("t{i}"), 2.0));
        }
        let cfg = ChaosConfig {
            gpus: 1,
            workers_per_gpu: 2,
            max_events: 8,
            window: SimDuration::from_secs(120),
        };
        let mut plan = FaultPlan::one(SimTime::from_secs(12), FaultKind::WorkerCrash { worker: 0 });
        plan.events.extend(chaos_faults(12345, 4, &cfg));
        install_faults(&mut eng, &plan);
        eng.run(&mut w);
        (export_json(&w.dfk, &w.monitor), plan, eng.events_fired())
    }
    let (a_json, a_plan, a_fired) = run_once();
    let (b_json, b_plan, b_fired) = run_once();
    assert!(a_plan.events.len() > 1, "the grammar drew faults");
    assert_eq!(a_plan, b_plan, "identical fault schedules");
    assert_eq!(a_fired, b_fired, "identical event traces");
    assert_eq!(a_json, b_json, "bit-identical monitoring export");
}

/// The fuzz-hardened refusal paths: invalid or already-dead targets are
/// reported as `InjectOutcome::Refused` with a stable reason and leave
/// the world untouched — they never panic, and never perturb state the
/// chaos search would then mis-attribute.
#[test]
fn invalid_fault_targets_are_refused_without_side_effects() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    config.retries = 1;
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 99);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    eng.run_until(&mut w, SimTime::from_secs(15));
    assert_eq!(w.workers[0].state, WorkerState::Idle, "cold start finished");
    let events_before = eng.events_fired();

    let cases: Vec<(FaultKind, &str)> = vec![
        (FaultKind::WorkerCrash { worker: 99 }, "unknown-worker"),
        (FaultKind::GpuClientFault { worker: 42 }, "unknown-worker"),
        (FaultKind::ZombieWorker { worker: 7 }, "unknown-worker"),
        (FaultKind::ModelLoadOom { worker: 7 }, "unknown-worker"),
        (
            FaultKind::ProvisioningFailure { worker: 7 },
            "unknown-worker",
        ),
        (FaultKind::DeviceFault { gpu: 5 }, "unknown-gpu"),
        (FaultKind::ReconfigFail { gpu: 5 }, "unknown-gpu"),
        (
            FaultKind::Straggler {
                gpu: 5,
                factor: 0.5,
                duration: SimDuration::from_secs(5),
            },
            "unknown-gpu",
        ),
        (
            FaultKind::FlakyLink {
                gpu: 5,
                factor: 0.5,
                duration: SimDuration::from_secs(5),
            },
            "unknown-gpu",
        ),
        (FaultKind::HostReboot { host: 9 }, "empty-host"),
        (FaultKind::RackPower { rack: 9 }, "empty-rack"),
    ];
    for (kind, want) in cases {
        match inject_fault(&mut w, &mut eng, &kind) {
            InjectOutcome::Refused(reason) => {
                assert_eq!(reason, want, "refusal reason for {kind:?}")
            }
            InjectOutcome::Applied => panic!("{kind:?} must be refused"),
        }
    }
    assert_eq!(
        eng.events_fired(),
        events_before,
        "refused injections schedule nothing"
    );
    assert_eq!(w.workers[0].state, WorkerState::Idle, "world untouched");
    assert_eq!(w.monitor.fault_records.len(), 0, "nothing recorded");
}

/// Crashing an already-dead worker is a refusal, not a double-kill:
/// the first crash is applied, the second (before any restart) refuses
/// with `worker-not-live` and does not burn another restart attempt.
#[test]
fn refault_of_dead_worker_is_refused() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    config.retries = 2;
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 101);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    submit(&mut w, &mut eng, gpu_call("t", 3.0));
    eng.run_until(&mut w, SimTime::from_secs(1));
    assert_eq!(
        inject_fault(&mut w, &mut eng, &FaultKind::WorkerCrash { worker: 0 }),
        InjectOutcome::Applied
    );
    assert_eq!(
        inject_fault(&mut w, &mut eng, &FaultKind::WorkerCrash { worker: 0 }),
        InjectOutcome::Refused("worker-not-live"),
        "a crashed worker cannot crash again until restarted"
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.done_count(), 1, "task still completes after restart");
}

/// `begin_drain` refuses (with an error, not a panic, and without
/// invoking the completion callback) while a drain is already active on
/// the same GPU — and accepts a fresh drain once the first completes.
#[test]
fn overlapping_drain_is_refused_then_allowed_after_completion() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    config.retries = 1;
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 103);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    // A long task keeps the member busy, so the first drain stays
    // pending (an idle member would let it complete synchronously).
    submit(&mut w, &mut eng, gpu_call("long", 108.0 * 30.0));
    eng.run_until(&mut w, SimTime::from_secs(10));
    assert_eq!(w.workers[0].state, WorkerState::Busy, "mid-task");
    assert!(begin_drain(&mut w, &mut eng, 0, vec![0], Box::new(|_, _, _| {})).is_ok());
    let second = begin_drain(
        &mut w,
        &mut eng,
        0,
        vec![0],
        Box::new(|_, _, _| panic!("refused drain must not run its callback")),
    );
    assert_eq!(second, Err(DrainError::AlreadyDraining(0)));
    assert_eq!(
        format!("{}", DrainError::AlreadyDraining(0)),
        "drain already active on GPU 0"
    );
    eng.run(&mut w);
    assert_eq!(w.reconfig.active_drains(), 0, "first drain completed");
    assert!(
        begin_drain(&mut w, &mut eng, 0, vec![0], Box::new(|_, _, _| {})).is_ok(),
        "fresh drain accepted once the previous one finished"
    );
    eng.run(&mut w);
}

/// A checkpointable GPU body that holds scratch memory across its
/// kernels, so attempts and checkpoint replays both allocate and free.
struct ScratchSeq {
    steps: std::vec::IntoIter<TaskStep>,
    model: Option<ModelProfile>,
}

impl TaskBody for ScratchSeq {
    fn model(&self) -> Option<ModelProfile> {
        self.model
    }
    fn checkpointable(&self) -> bool {
        true
    }
    fn next(&mut self, _ctx: &mut TaskCtx<'_>) -> TaskStep {
        self.steps.next().unwrap_or(TaskStep::Done)
    }
}

/// Arrival `i` of the faulty-fleet scenario: 2–5 kernels of half a
/// whole-device second, host time before each, and 2 GiB of scratch
/// held throughout; every third call needs a model.
fn scratch_call(i: usize) -> AppCall {
    let kernels = 2 + i % 4;
    let model = i
        .is_multiple_of(3)
        .then(|| ModelProfile::private(i as u64 % 2, 4 * GIB));
    let executor = if i.is_multiple_of(2) { "mps" } else { "ts" };
    AppCall::new(format!("app{}", i % 3), executor, move |_| {
        let mut steps = vec![TaskStep::AllocGpu(2 * GIB)];
        for _ in 0..kernels {
            steps.push(TaskStep::Cpu(SimDuration::from_millis(20)));
            steps.push(TaskStep::Gpu(KernelDesc::new(
                "k", 54.0, 75_600, 75_600, 0.0,
            )));
        }
        steps.push(TaskStep::FreeGpu(2 * GIB));
        Box::new(ScratchSeq {
            steps: steps.into_iter(),
            model,
        })
    })
    .with_est_service(SimDuration::from_secs(kernels as u64))
    .with_deadline(SimDuration::from_secs(40))
}

/// Chaos schedules whose faults the faulty-fleet scenario injects. With
/// the two long gray episodes, every count from 2 to 16 reaches every
/// fault path over seeds 1–6; with 1, no retry is ever suppressed.
const FAULTY_FLEET_CASES: u64 = 6;

/// One run of the faulty-fleet scenario: 4 A100s (2 MPS-partitioned,
/// 2 time-sharing) on 2 hosts, an executor per sharing mode, every
/// protection on, brownout on the time-sharing executor, 600 bursty
/// arrivals, and the faults of the chaos grammar's first
/// `FAULTY_FLEET_CASES` schedules under `seed` on top of explicit ones.
/// Returns the drained world and its fired-event count.
fn faulty_fleet_run(seed: u64, fast_paths: bool) -> (FaasWorld, u64) {
    let mut fleet = GpuFleet::new();
    for mode in [
        DeviceMode::MpsPartitioned,
        DeviceMode::MpsPartitioned,
        DeviceMode::TimeSharing,
        DeviceMode::TimeSharing,
    ] {
        let g = fleet.add(GpuSpec::a100_80gb());
        let d = fleet.device_mut(g);
        if mode == DeviceMode::MpsPartitioned {
            d.mps.start();
        }
        d.set_mode(mode).unwrap();
    }
    let mut config = Config::new(vec![
        ExecutorConfig::gpu(
            "mps",
            vec![
                AcceleratorSpec::GpuPercentage(0, 50),
                AcceleratorSpec::GpuPercentage(0, 50),
                AcceleratorSpec::GpuPercentage(1, 50),
                AcceleratorSpec::GpuPercentage(1, 50),
            ],
        ),
        ExecutorConfig::gpu(
            "ts",
            vec![
                AcceleratorSpec::Gpu(2),
                AcceleratorSpec::Gpu(2),
                AcceleratorSpec::Gpu(3),
                AcceleratorSpec::Gpu(3),
            ],
        ),
    ]);
    config.retries = 3;
    config.topology = Topology {
        gpus_per_host: 2,
        hosts_per_rack: 2,
    };
    config.checkpoint_interval = Some(SimDuration::from_secs(2));
    config.overload.queue_cap = Some(12);
    config.overload.deadline_admission = true;
    config.overload.retry_budget = true;
    config.overload.hedge_trigger = Some(1.5);
    config.recovery.progress_timeout = Some(SimDuration::from_secs(20));
    config.recovery.fail_slow = true;
    let mut w = FaasWorld::new(config, fleet, seed);
    w.set_index_enabled(fast_paths);
    w.fleet.set_dirty_tracking(fast_paths);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    // The burst backlog engages a degraded tier of two more
    // time-sharing workers, so `add_worker` runs on both index sides.
    enable_brownout(
        &mut w,
        &mut eng,
        1,
        vec![AcceleratorSpec::Gpu(2), AcceleratorSpec::Gpu(3)],
    );
    // Bursts of 24 arrivals every 8 s overflow the queue caps.
    for i in 0..600 {
        let at = SimTime::ZERO
            + SimDuration::from_millis((i / 24) as u64 * 8_000 + (i % 24) as u64 * 50);
        eng.schedule_at(at, move |w: &mut FaasWorld, e| {
            submit(w, e, scratch_call(i));
        });
    }
    let mut plan = FaultPlan {
        events: vec![
            FaultEvent {
                at: SimTime::from_secs(3),
                kind: FaultKind::ModelLoadOom { worker: 1 },
            },
            FaultEvent {
                at: SimTime::from_secs(30),
                kind: FaultKind::ProvisioningFailure { worker: 5 },
            },
            FaultEvent {
                at: SimTime::from_secs(31),
                kind: FaultKind::WorkerCrash { worker: 5 },
            },
            FaultEvent {
                at: SimTime::from_secs(60),
                kind: FaultKind::ReconfigFail { gpu: 0 },
            },
            // Two long gray episodes, one after the other across the
            // arrivals: the grammar's last at most 21 s, too short for
            // fail-slow probation to park a device or for an evacuation
            // drain to force-kill a slowed member.
            FaultEvent {
                at: SimTime::from_secs(10),
                kind: FaultKind::Straggler {
                    gpu: 2,
                    factor: 0.3,
                    duration: SimDuration::from_secs(90),
                },
            },
            FaultEvent {
                at: SimTime::from_secs(100),
                kind: FaultKind::FlakyLink {
                    gpu: 3,
                    factor: 0.25,
                    duration: SimDuration::from_secs(90),
                },
            },
        ],
    };
    let grammar = ChaosConfig {
        gpus: 4,
        workers_per_gpu: 2,
        max_events: 8,
        window: SimDuration::from_secs(200),
    };
    plan.events
        .extend(chaos_faults(seed, FAULTY_FLEET_CASES, &grammar));
    install_faults(&mut eng, &plan);
    eng.run(&mut w);
    let fired = eng.events_fired();
    (w, fired)
}

/// The index-off reference run on a faulty fleet. The world index and
/// dirty tracking are fast paths over full scans and full recomputes; a
/// run with both off must match a run with both on exactly. `repro
/// fleet` checks this on a fault-free fleet only; here the fault
/// handlers' crashed, dead, resident, busy and live queries run on both
/// sides.
#[test]
fn index_off_reference_run_matches_on_a_faulty_fleet() {
    let stats = |w: &FaasWorld| {
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}",
            w.recovery.stats, w.recovery.gray, w.overload.stats, w.reconfig.stats
        )
    };
    // Quarantines, fail-overs, probations, parks, hedges, drain forced
    // kills, deadline rejections, suppressed retries, brownout
    // engagements: summed over seeds, so the scenario provably reaches
    // each fault path.
    let mut reached = [0u64; 9];
    for seed in 1..=6 {
        let (fast, fast_fired) = faulty_fleet_run(seed, true);
        let (reference, reference_fired) = faulty_fleet_run(seed, false);
        assert_eq!(stats(&fast), stats(&reference), "seed {seed}: stats differ");
        assert_eq!(
            fast_fired, reference_fired,
            "seed {seed}: events_fired differ"
        );
        assert!(
            export_json(&fast.dfk, &fast.monitor)
                == export_json(&reference.dfk, &reference.monitor),
            "seed {seed}: monitoring exports differ"
        );
        let (r, g, o) = (
            &fast.recovery.stats,
            &fast.recovery.gray,
            &fast.overload.stats,
        );
        let counts = [
            r.quarantines,
            r.failovers,
            g.probations,
            g.parks,
            o.hedges_launched,
            fast.reconfig.stats.drains_forced_kills,
            o.tasks_rejected,
            o.retries_suppressed,
            u64::from(o.brownout_seconds > 0.0),
        ];
        for (sum, n) in reached.iter_mut().zip(counts) {
            *sum += n;
        }
    }
    assert!(
        reached.iter().all(|&n| n > 0),
        "the scenario no longer reaches every fault path: {reached:?}"
    );
}
