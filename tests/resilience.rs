//! Failure injection and load-shape tests across the full stack.

use parfait::core::{
    apply_plan, begin_resize_mps, plan, reconfigure_mig_equal, resize_mps, ReconfigError, Strategy,
};
use parfait::faas::app::bodies::CpuBurn;
use parfait::faas::drain::DRAIN_TIMEOUT;
use parfait::faas::{
    boot, crash_worker, fault_host, fault_rack, inject_fault, kill_worker, quarantine_gpu,
    respawn_worker, submit, AcceleratorSpec, AppCall, Config, ExecutorConfig, FaasWorld, FaultKind,
    InjectOutcome, WorkerState,
};
use parfait::gpu::host::GpuFleet;
use parfait::gpu::{GpuId, GpuSpec};
use parfait::simcore::{Engine, SimDuration, SimRng, SimTime};
use parfait::workloads::{CompletionBody, LlmSpec};
use parfait_bench::scenarios::{open_loop_serving, SEED};

/// Random kill/respawn chaos against a busy platform: with a retry
/// budget, every task still settles, no GPU memory leaks, and the
/// device's context table matches the live workers.
#[test]
fn chaos_kill_respawn_preserves_invariants() {
    let gpu_spec = GpuSpec::a100_80gb();
    let llm = LlmSpec::llama2_7b(2);
    let mut fleet = GpuFleet::new();
    fleet.add(gpu_spec.clone());
    let p = plan(&gpu_spec, 0, 3, &Strategy::MpsEqual).unwrap();
    let specs = apply_plan(&mut fleet, &p).unwrap();
    let mut config = Config::new(vec![ExecutorConfig::gpu("gpu", specs)]);
    config.retries = 10; // chaos may kill the same task several times
    let mut w = FaasWorld::new(config, fleet, 1234);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    for _ in 0..12 {
        let (llm2, gpu2) = (llm.clone(), gpu_spec.clone());
        submit(
            &mut w,
            &mut eng,
            AppCall::new("chat", "gpu", move |_| {
                Box::new(CompletionBody::paper_request(llm2.clone(), gpu2.clone()))
            }),
        );
    }
    // Chaos: at randomized times, kill a random worker and respawn it.
    let mut chaos_rng = SimRng::new(777);
    for i in 0..6u64 {
        let at =
            SimTime::from_nanos((10 + i * 17) * 1_000_000_000 + chaos_rng.below(5_000_000_000));
        let victim = chaos_rng.below(3) as usize;
        eng.schedule_at(at, move |w: &mut FaasWorld, e| {
            if w.workers[victim].state != WorkerState::Dead {
                kill_worker(w, e, victim, "chaos monkey");
                respawn_worker(w, e, victim, None).expect("the kill leaves the victim Dead");
            }
        });
    }
    eng.run(&mut w);
    assert!(w.dfk.all_settled(), "tasks must settle despite chaos");
    assert_eq!(
        w.dfk.done_count(),
        12,
        "retries absorb the chaos: {:?}",
        w.dfk
            .tasks()
            .iter()
            .filter_map(|t| t.error.clone())
            .collect::<Vec<_>>()
    );
    // Memory invariant: device holds exactly the live workers' models.
    let live_model_bytes: u64 = w
        .workers
        .iter()
        .filter(|wk| wk.state != WorkerState::Dead && wk.has_model(llm.model_profile().id))
        .count() as u64
        * llm.footprint_bytes();
    assert_eq!(w.fleet.device(GpuId(0)).memory_used(), live_model_bytes);
    // Context invariant: one context per live GPU-bound worker.
    let live = w
        .workers
        .iter()
        .filter(|wk| wk.state != WorkerState::Dead && wk.gpu.is_some())
        .count();
    assert_eq!(w.fleet.device(GpuId(0)).context_count(), live);
}

/// A worker whose accelerator cannot resolve dies cleanly and the rest of
/// the platform keeps serving.
#[test]
fn bad_binding_kills_only_that_worker() {
    let mut fleet = GpuFleet::new();
    fleet.add(GpuSpec::a100_80gb());
    let config = Config::new(vec![
        ExecutorConfig::cpu("cpu", 1),
        ExecutorConfig::gpu(
            "gpu",
            vec![parfait::faas::AcceleratorSpec::Mig(
                "MIG-does-not-exist".into(),
            )],
        ),
    ]);
    let mut w = FaasWorld::new(config, fleet, 9);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let ok = submit(
        &mut w,
        &mut eng,
        AppCall::new("fine", "cpu", |_| {
            Box::new(CpuBurn::new(SimDuration::from_secs(1)))
        }),
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.task(ok).state, parfait::faas::TaskState::Done);
    let gpu_worker = w.workers.iter().find(|wk| wk.executor == 1).unwrap();
    assert_eq!(gpu_worker.state, WorkerState::Dead);
    assert!(w.executor_dead(1));
}

/// Open-loop saturation: the single instance saturates near its service
/// rate (~0.17 req/s) with exploding turnaround, while 4-way MPS sustains
/// about 3× the offered load with bounded turnaround — the operator-side
/// framing of the paper's abstract claim.
#[test]
fn open_loop_mps_sustains_higher_load() {
    let rate = 0.30;
    let single = open_loop_serving(&Strategy::TimeSharing, 1, rate, 40, SEED);
    let mps4 = open_loop_serving(&Strategy::MpsEqual, 4, rate, 40, SEED);
    assert!(
        single.achieved_rate < 0.8 * rate,
        "single instance should saturate: achieved {:.3} of {rate}",
        single.achieved_rate
    );
    assert!(
        mps4.achieved_rate > 0.9 * rate,
        "4-way MPS should keep up: achieved {:.3} of {rate}",
        mps4.achieved_rate
    );
    assert!(
        mps4.p95_turnaround_s < single.p95_turnaround_s / 4.0,
        "queueing collapse vs bounded tail: {:.1}s vs {:.1}s",
        mps4.p95_turnaround_s,
        single.p95_turnaround_s
    );
}

/// One A100 shared 50/50 under MPS, with knobs for the reconfig racing
/// tests.
fn mps_platform(configure: impl FnOnce(&mut Config)) -> (FaasWorld, Engine<FaasWorld>, LlmSpec) {
    let gpu_spec = GpuSpec::a100_80gb();
    let mut fleet = GpuFleet::new();
    fleet.add(gpu_spec.clone());
    let p = plan(&gpu_spec, 0, 2, &Strategy::MpsEqual).unwrap();
    let specs = apply_plan(&mut fleet, &p).unwrap();
    let mut config = Config::new(vec![ExecutorConfig::gpu("gpu", specs)]);
    config.retries = 4;
    configure(&mut config);
    (
        FaasWorld::new(config, fleet, SEED),
        Engine::new(),
        LlmSpec::llama2_7b(2),
    )
}

/// Current MPS shares, in worker order.
fn mps_pcts(w: &FaasWorld) -> Vec<u32> {
    w.workers
        .iter()
        .filter_map(|wk| match wk.accel {
            Some(AcceleratorSpec::GpuPercentage(_, p)) => Some(p),
            _ => None,
        })
        .collect()
}

/// A chat session generating `new_tokens` tokens (220 run ~35 s on a
/// half share) — long enough that a reconfig drain has to wait on it
/// (and a checkpoint restore saves real work).
fn long_session(llm: &LlmSpec, new_tokens: u32) -> AppCall {
    let llm = llm.clone();
    let gpu = GpuSpec::a100_80gb();
    AppCall::new("session", "gpu", move |_| {
        Box::new(CompletionBody::new(
            llm.clone(),
            gpu.clone(),
            96,
            new_tokens,
        ))
    })
}

/// Racing fault #1: a resize request racing an active host outage is
/// refused outright — no drain starts, no worker restarts, and after the
/// host returns the workers come back with their *old* shares.
#[test]
fn resize_refused_during_host_outage() {
    let (mut w, mut eng, _llm) = mps_platform(|_| {});
    boot(&mut w, &mut eng);
    let fenced = fault_host(&mut w, &mut eng, 0);
    assert_eq!(fenced, 1, "host 0 owns the only GPU");

    assert_eq!(
        resize_mps(&mut w, &mut eng, 0, &[70, 30]).unwrap_err(),
        ReconfigError::GpuFenced(0)
    );
    assert_eq!(
        begin_resize_mps(&mut w, &mut eng, 0, vec![70, 30]).unwrap_err(),
        ReconfigError::GpuFenced(0)
    );
    assert_eq!(
        reconfigure_mig_equal(&mut w, &mut eng, 0, 2).unwrap_err(),
        ReconfigError::GpuFenced(0)
    );
    assert_eq!(w.reconfig.stats.drains_started, 0);

    eng.run(&mut w); // host reboots, GPU re-enrolls, workers respawn
    assert_eq!(mps_pcts(&w), vec![50, 50], "old shares survive the outage");
    assert!(w
        .workers
        .iter()
        .all(|wk| wk.state != WorkerState::Dead && wk.state != WorkerState::Crashed));
}

/// A Crashed (silently dead, not yet reaped) victim is refused: the
/// watchdog owns that worker's lifecycle, not the resize path.
#[test]
fn resize_refuses_crashed_worker() {
    let (mut w, mut eng, _llm) = mps_platform(|_| {});
    boot(&mut w, &mut eng);
    crash_worker(&mut w, &mut eng, 1, "induced for test");
    assert_eq!(
        resize_mps(&mut w, &mut eng, 0, &[70, 30]).unwrap_err(),
        ReconfigError::WorkerUnhealthy { worker: 1 }
    );
    // Quarantine refusal holds for the MIG path on a healthy-worker GPU
    // too.
    let (mut w2, mut eng2, _llm) = mps_platform(|_| {});
    boot(&mut w2, &mut eng2);
    quarantine_gpu(&mut w2, &mut eng2, GpuId(0), "induced for test");
    assert_eq!(
        reconfigure_mig_equal(&mut w2, &mut eng2, 0, 2).unwrap_err(),
        ReconfigError::GpuFenced(0)
    );
}

/// An immediate resize runs the same transaction commit as the staged
/// path, so an injected commit failure rolls the victims back to their
/// old shares through the budgeted respawn path and reports
/// `CommitFailed` instead of applying the new split.
#[test]
fn immediate_resize_commit_failure_rolls_back() {
    let (mut w, mut eng, llm) = mps_platform(|_| {});
    boot(&mut w, &mut eng);
    for _ in 0..2 {
        submit(&mut w, &mut eng, long_session(&llm, 220));
    }
    eng.run_until(&mut w, SimTime::from_secs(5));
    assert_eq!(
        inject_fault(&mut w, &mut eng, &FaultKind::ReconfigFail { gpu: 0 }),
        InjectOutcome::Applied
    );
    assert_eq!(
        resize_mps(&mut w, &mut eng, 0, &[70, 30]).unwrap_err(),
        ReconfigError::CommitFailed(0)
    );
    eng.run(&mut w);

    assert_eq!(w.reconfig.stats.txns_failed, 1);
    assert_eq!(w.reconfig.stats.rollbacks, 1);
    assert_eq!(w.reconfig.stats.txns_committed, 0);
    assert_eq!(w.reconfig.stats.drains_started, 0);
    assert_eq!(mps_pcts(&w), vec![50, 50], "rollback keeps the old shares");
    assert!(w.dfk.all_settled());
    assert_eq!(w.dfk.done_count(), 2, "retries absorb the rollback");
}

/// Racing fault #2: a rack-power fence lands mid-drain. The fence kills
/// the draining workers (resolving the drain), the transaction aborts at
/// commit because the GPU is fenced, and after power restore + re-enroll
/// the workers return with their pre-transaction shares.
#[test]
fn rack_fence_mid_drain_aborts_transaction() {
    let (mut w, mut eng, llm) = mps_platform(|_| {});
    boot(&mut w, &mut eng);
    for _ in 0..2 {
        submit(&mut w, &mut eng, long_session(&llm, 220));
    }
    eng.schedule_at(SimTime::from_secs(5), |w: &mut FaasWorld, e| {
        begin_resize_mps(w, e, 0, vec![70, 30]).expect("gpu is healthy at begin");
    });
    eng.schedule_at(SimTime::from_secs(6), |w: &mut FaasWorld, e| {
        fault_rack(w, e, 0);
    });
    eng.run(&mut w);

    assert_eq!(w.reconfig.stats.drains_started, 1);
    assert_eq!(
        w.reconfig.stats.txns_aborted, 1,
        "fenced mid-drain must abort"
    );
    assert_eq!(w.reconfig.stats.txns_committed, 0);
    assert_eq!(w.reconfig.stats.rollbacks, 0);
    assert_eq!(
        mps_pcts(&w),
        vec![50, 50],
        "aborted transaction must leave the old shares"
    );
    assert!(w.dfk.all_settled());
    assert_eq!(w.dfk.done_count(), 2, "retries absorb the fence");
}

/// Racing fault #3: in-flight sessions outlive the drain timeout, get
/// force-killed, and the transaction still commits the new shares; the
/// killed attempts then restore from their drain-requested checkpoints
/// instead of replaying from scratch.
#[test]
fn drain_timeout_forced_kill_restores_from_checkpoint() {
    let (mut w, mut eng, llm) = mps_platform(|c| {
        c.checkpoint_interval = Some(SimDuration::from_secs(2));
    });
    boot(&mut w, &mut eng);
    for _ in 0..2 {
        submit(&mut w, &mut eng, long_session(&llm, 660));
    }
    eng.schedule_at(SimTime::from_secs(10), |w: &mut FaasWorld, e| {
        begin_resize_mps(w, e, 0, vec![70, 30]).expect("gpu is healthy at begin");
    });
    eng.run(&mut w);

    assert_eq!(w.reconfig.stats.drains_started, 1);
    assert_eq!(DRAIN_TIMEOUT, SimDuration::from_secs(30));
    assert!(
        w.reconfig.stats.drains_forced_kills > 0,
        "~105 s sessions must outlive the 30 s drain timeout"
    );
    assert_eq!(w.reconfig.stats.txns_committed, 1);
    assert_eq!(mps_pcts(&w), vec![70, 30], "committed shares apply");
    assert!(
        w.recovery.stats.tasks_resumed > 0,
        "killed attempts must restore from checkpoints: {:?}",
        w.recovery.stats
    );
    assert!(w.dfk.all_settled());
    assert_eq!(w.dfk.done_count(), 2);
}
