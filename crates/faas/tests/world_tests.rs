//! Integration tests for the FaaS runtime: worker lifecycle, task
//! dispatch, model caching, failures, and accelerator binding.

use parfait_faas::app::bodies::{CpuBurn, KernelSeq};
use parfait_faas::*;
use parfait_gpu::{DeviceMode, GpuFleet, GpuId, GpuSpec, KernelDesc, GIB};
use parfait_simcore::{Engine, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

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

/// A full-GPU kernel of `sm_seconds` SM-seconds of work.
fn gpu_kernel(sm_seconds: f64) -> KernelDesc {
    KernelDesc::new("k", sm_seconds, 75_600, 75_600, 0.0)
}

#[test]
fn cpu_task_runs_to_completion() {
    let config = Config::new(vec![ExecutorConfig::cpu("cpu", 2)]);
    let mut w = FaasWorld::new(config, GpuFleet::new(), 1);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(&mut w, &mut eng, cpu_call("hello", 3));
    eng.run(&mut w);
    let t = w.dfk.task(id);
    assert_eq!(t.state, TaskState::Done);
    // finish = spawn delay + cold start + 3 s of work
    let fin = t.finished.unwrap().as_secs_f64();
    assert!(fin > 3.0 && fin < 7.0, "finished at {fin}");
    assert_eq!(w.dfk.done_count(), 1);
}

/// An `available_accelerators` entry naming a GPU outside the fleet is
/// refused at cold start like an unknown MIG uuid: that worker goes Dead
/// with a Killed event naming the index, and the rest keep serving.
#[test]
fn gpu_index_outside_the_fleet_kills_only_that_worker() {
    let config = Config::new(vec![
        ExecutorConfig::cpu("cpu", 1),
        ExecutorConfig::gpu(
            "gpu",
            vec![
                AcceleratorSpec::Gpu(0),
                AcceleratorSpec::Gpu(3),
                AcceleratorSpec::GpuPercentage(1, 50),
                AcceleratorSpec::VgpuSlot(2, 0),
            ],
        ),
    ]);
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 1);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(&mut w, &mut eng, cpu_call("hello", 1));
    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
    let gpu_workers: Vec<&Worker> = w.workers.iter().filter(|wk| wk.executor == 1).collect();
    assert_eq!(gpu_workers[0].state, WorkerState::Idle, "GPU 0 binds");
    for (wk, gpu) in gpu_workers[1..].iter().zip([3, 1, 2]) {
        assert_eq!(
            wk.state,
            WorkerState::Dead,
            "GPU {gpu} is outside the fleet"
        );
        assert!(
            w.monitor.worker_events.iter().any(|e| e.worker == wk.id
                && e.kind == monitoring::WorkerEventKind::Killed
                && e.detail.contains(&format!("GPU {gpu} "))),
            "a Killed event names GPU {gpu}"
        );
    }
}

#[test]
fn unknown_executor_label_fails_terminally_instead_of_panicking() {
    let config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
    let mut w = FaasWorld::new(config, GpuFleet::new(), 1);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let bad = AppCall::new("app", "no-such-pool", |_| {
        Box::new(CpuBurn::new(SimDuration::from_secs(1)))
    });
    let id = submit(&mut w, &mut eng, bad);
    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Failed);
    assert!(
        w.dfk
            .error(id)
            .unwrap_or_default()
            .contains("unknown executor"),
        "error: {:?}",
        w.dfk.error(id)
    );
    // The platform keeps serving well-formed work afterwards.
    let ok = submit(&mut w, &mut eng, cpu_call("hello", 1));
    eng.run(&mut w);
    assert_eq!(w.dfk.task(ok).state, TaskState::Done);
}

/// A settled task drops its body factory, and with it everything the
/// factory captured: after Done, after a fatal failure with retries
/// exhausted, and after `cancel`. A pending retry keeps it.
#[test]
fn settled_tasks_release_their_body_factory() {
    let config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
    let mut w = FaasWorld::new(config, GpuFleet::new(), 21);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let marker = std::rc::Rc::new(());
    let call = |secs: u64| {
        let m = std::rc::Rc::clone(&marker);
        AppCall::new("a", "cpu", move |_| {
            let _ = std::rc::Rc::clone(&m);
            Box::new(CpuBurn::new(SimDuration::from_secs(secs)))
        })
    };
    let gpu_call = || {
        let m = std::rc::Rc::clone(&marker);
        AppCall::new("a", "cpu", move |_| {
            let _ = std::rc::Rc::clone(&m);
            Box::new(KernelSeq::new(vec![gpu_kernel(1.0)], SimDuration::ZERO))
        })
    };

    let ok = submit(&mut w, &mut eng, call(1));
    assert_eq!(std::rc::Rc::strong_count(&marker), 2);
    eng.run(&mut w);
    assert_eq!(w.dfk.task(ok).state, TaskState::Done);
    assert_eq!(std::rc::Rc::strong_count(&marker), 1, "released at Done");

    // A GPU step on the CPU-only worker fails every attempt (retries: 1).
    let doomed = submit(&mut w, &mut eng, gpu_call());
    while w.dfk.error(doomed).is_none() {
        assert!(eng.step(&mut w), "the first attempt must fail");
    }
    assert_eq!(w.dfk.task(doomed).state, TaskState::Ready);
    assert_eq!(
        std::rc::Rc::strong_count(&marker),
        2,
        "a pending retry keeps its factory"
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.task(doomed).state, TaskState::Failed);
    assert_eq!(
        std::rc::Rc::strong_count(&marker),
        1,
        "released at fatal failure"
    );

    // One worker: the second task waits in the queue until cancelled.
    let running = submit(&mut w, &mut eng, call(1));
    let queued = submit(&mut w, &mut eng, call(1));
    assert_eq!(std::rc::Rc::strong_count(&marker), 3);
    assert!(cancel(&mut w, &mut eng, queued));
    assert_eq!(std::rc::Rc::strong_count(&marker), 2, "released at cancel");
    eng.run(&mut w);
    assert_eq!(w.dfk.task(running).state, TaskState::Done);
    assert_eq!(std::rc::Rc::strong_count(&marker), 1);
}

#[test]
fn cold_start_precedes_first_task() {
    let config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
    let mut w = FaasWorld::new(config, GpuFleet::new(), 2);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(&mut w, &mut eng, cpu_call("a", 1));
    eng.run(&mut w);
    let worker = &w.workers[0];
    let ready = worker.ready_at.unwrap();
    let started = w.dfk.task(id).started.unwrap();
    assert!(started >= ready, "task started before cold start finished");
    let b = worker.cold_breakdown.unwrap();
    assert!(
        b.gpu_context_init.is_zero(),
        "CPU worker has no GPU context"
    );
    assert!(!b.function_init.is_zero());
}

#[test]
fn queue_drains_with_fewer_workers_than_tasks() {
    let config = Config::new(vec![ExecutorConfig::cpu("cpu", 2)]);
    let mut w = FaasWorld::new(config, GpuFleet::new(), 3);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let ids: Vec<TaskId> = (0..6)
        .map(|_| submit(&mut w, &mut eng, cpu_call("a", 2)))
        .collect();
    eng.run(&mut w);
    assert!(w.dfk.all_settled());
    assert_eq!(w.dfk.done_count(), 6);
    // 6 × 2 s on 2 workers ⇒ last finishes ≥ 6 s after workers ready.
    let last = ids
        .iter()
        .map(|i| w.dfk.task(*i).finished.unwrap())
        .max()
        .unwrap();
    let ready = w
        .workers
        .iter()
        .map(|wk| wk.ready_at.unwrap())
        .min()
        .unwrap();
    assert!(last.duration_since(ready) >= SimDuration::from_secs(6));
}

#[test]
fn dependencies_run_in_order_across_executors() {
    let config = Config::new(vec![
        ExecutorConfig::cpu("cpu", 2),
        ExecutorConfig::cpu("cpu2", 1),
    ]);
    let mut w = FaasWorld::new(config, GpuFleet::new(), 4);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let a = submit(&mut w, &mut eng, cpu_call("stage-a", 2));
    let b = submit(
        &mut w,
        &mut eng,
        AppCall::new("stage-b", "cpu2", |_| {
            Box::new(CpuBurn::new(SimDuration::from_secs(1)))
        })
        .after(&[a]),
    );
    eng.run(&mut w);
    let fa = w.dfk.task(a).finished.unwrap();
    let sb = w.dfk.task(b).started.unwrap();
    assert!(
        sb >= fa,
        "dependent started at {sb} before dep finished at {fa}"
    );
    assert_eq!(w.dfk.task(b).state, TaskState::Done);
}

#[test]
fn gpu_task_executes_kernels() {
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 5);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(
        &mut w,
        &mut eng,
        AppCall::new("infer", "gpu", |_| {
            Box::new(KernelSeq::new(
                vec![gpu_kernel(54.0), gpu_kernel(54.0)],
                SimDuration::from_millis(100),
            ))
        }),
    );
    eng.run(&mut w);
    let t = w.dfk.task(id);
    assert_eq!(t.state, TaskState::Done);
    // 2 × (0.1 host + 0.5 GPU) = 1.2 s of execution.
    let exec = t
        .finished
        .unwrap()
        .duration_since(t.started.unwrap())
        .as_secs_f64();
    assert!((exec - 1.2).abs() < 0.01, "exec {exec}");
    // Env var surface of §4.
    assert_eq!(
        w.workers[0].env.get("CUDA_VISIBLE_DEVICES"),
        Some(&"0".to_string())
    );
}

#[test]
fn mps_percentage_binding_sets_env_and_caps() {
    let mut fleet = fleet_one(DeviceMode::MpsPartitioned);
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![
            AcceleratorSpec::GpuPercentage(0, 50),
            AcceleratorSpec::GpuPercentage(0, 50),
        ],
    )]);
    fleet.device_mut(GpuId(0)).mps.start();
    let mut w = FaasWorld::new(config, fleet, 6);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let mk = || {
        AppCall::new("infer", "gpu", |_| {
            Box::new(KernelSeq::new(vec![gpu_kernel(54.0)], SimDuration::ZERO))
        })
    };
    let a = submit(&mut w, &mut eng, mk());
    let b = submit(&mut w, &mut eng, mk());
    eng.run(&mut w);
    for id in [a, b] {
        let t = w.dfk.task(id);
        assert_eq!(t.state, TaskState::Done);
        // 54 SM-s at a 54-SM cap → 1 s each, concurrently.
        let exec = t
            .finished
            .unwrap()
            .duration_since(t.started.unwrap())
            .as_secs_f64();
        assert!((exec - 1.0).abs() < 0.01, "exec {exec}");
    }
    assert_eq!(
        w.workers[0].env.get("CUDA_MPS_ACTIVE_THREAD_PERCENTAGE"),
        Some(&"50".to_string())
    );
}

#[test]
fn mig_uuid_binding_resolves() {
    let mut fleet = fleet_one(DeviceMode::Mig);
    let iid = fleet.device_mut(GpuId(0)).mig_create("3g.40gb").unwrap();
    let uuid = fleet.device(GpuId(0)).mig.get(iid).unwrap().uuid.clone();
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Mig(uuid.clone())],
    )]);
    let mut w = FaasWorld::new(config, fleet, 7);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(
        &mut w,
        &mut eng,
        AppCall::new("infer", "gpu", |_| {
            Box::new(KernelSeq::new(vec![gpu_kernel(42.0)], SimDuration::ZERO))
        }),
    );
    eng.run(&mut w);
    let t = w.dfk.task(id);
    assert_eq!(t.state, TaskState::Done);
    // 42 SM-s in a 42-SM instance → 1 s.
    let exec = t
        .finished
        .unwrap()
        .duration_since(t.started.unwrap())
        .as_secs_f64();
    assert!((exec - 1.0).abs() < 0.01, "exec {exec}");
    assert_eq!(w.workers[0].env.get("CUDA_VISIBLE_DEVICES"), Some(&uuid));
}

#[test]
fn model_loads_once_then_stays_warm() {
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 8);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let model = ModelProfile::private(42, 10 * GIB); // 10 GiB at 2.5 GB/s ≈ 4.3 s load
    let mk = move || {
        AppCall::new("infer", "gpu", move |_| {
            Box::new(KernelSeq::new(vec![gpu_kernel(10.8)], SimDuration::ZERO).with_model(model))
        })
    };
    let a = submit(&mut w, &mut eng, mk());
    let b = submit(&mut w, &mut eng, mk());
    eng.run(&mut w);
    let ta = w.dfk.task(a);
    let tb = w.dfk.task(b);
    // First task pays dispatch→start load gap; second starts immediately.
    let load_a = ta
        .started
        .unwrap()
        .duration_since(ta.dispatched.unwrap())
        .as_secs_f64();
    let load_b = tb
        .started
        .unwrap()
        .duration_since(tb.dispatched.unwrap())
        .as_secs_f64();
    assert!(load_a > 4.0, "cold model load {load_a}");
    assert!(load_b < 0.01, "warm model load {load_b}");
    assert!(w.workers[0].has_model(42));
    // Weights stay resident.
    assert_eq!(w.fleet.device(GpuId(0)).memory_used(), 10 * GIB);
}

#[test]
fn model_oom_fails_task_after_retries() {
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 9);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let model = ModelProfile::private(1, 100 * GIB); // exceeds the 80 GiB A100
    let id = submit(
        &mut w,
        &mut eng,
        AppCall::new("big", "gpu", move |_| {
            Box::new(KernelSeq::new(vec![gpu_kernel(1.0)], SimDuration::ZERO).with_model(model))
        }),
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Failed);
    assert!(w.dfk.error(id).unwrap().contains("alloc failed"));
    assert_eq!(w.dfk.failed_count(), 1);
}

#[test]
fn gpu_step_on_cpu_worker_fails() {
    let config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
    let mut w = FaasWorld::new(config, GpuFleet::new(), 10);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(
        &mut w,
        &mut eng,
        AppCall::new("bad", "cpu", |_| {
            Box::new(KernelSeq::new(vec![gpu_kernel(1.0)], SimDuration::ZERO))
        }),
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Failed);
}

#[test]
fn kill_and_respawn_worker_reloads_model() {
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 11);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let model = ModelProfile::private(7, GIB);
    let mk = move || {
        AppCall::new("infer", "gpu", move |_| {
            Box::new(KernelSeq::new(vec![gpu_kernel(10.8)], SimDuration::ZERO).with_model(model))
        })
    };
    let a = submit(&mut w, &mut eng, mk());
    eng.run(&mut w);
    assert_eq!(w.dfk.task(a).state, TaskState::Done);
    assert!(w.workers[0].has_model(7));
    let epoch_before = w.workers[0].epoch();

    kill_worker(&mut w, &mut eng, 0, "reconfigure");
    assert_eq!(w.workers[0].state, WorkerState::Dead);
    assert!(!w.workers[0].has_model(7), "kill clears the model cache");
    assert_eq!(
        w.fleet.device(GpuId(0)).memory_used(),
        0,
        "context memory freed"
    );

    respawn_worker(&mut w, &mut eng, 0, Some(AcceleratorSpec::Gpu(0))).unwrap();
    let b = submit(&mut w, &mut eng, mk());
    eng.run(&mut w);
    let tb = w.dfk.task(b);
    assert_eq!(tb.state, TaskState::Done);
    assert!(w.workers[0].epoch() > epoch_before);
    // Model reloaded (dispatch→start gap ≈ 0.43 s for 1 GiB).
    let load = tb
        .started
        .unwrap()
        .duration_since(tb.dispatched.unwrap())
        .as_secs_f64();
    assert!(
        load > 0.3,
        "respawned worker must reload the model, load={load}"
    );
}

#[test]
fn killing_busy_worker_retries_task_elsewhere() {
    let config = Config::new(vec![ExecutorConfig::cpu("cpu", 2)]);
    let mut w = FaasWorld::new(config, GpuFleet::new(), 12);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(&mut w, &mut eng, cpu_call("long", 100));
    // Let it start…
    eng.run_until(&mut w, SimTime::from_secs(10));
    let victim = w.dfk.task(id).worker.unwrap() as usize;
    kill_worker(&mut w, &mut eng, victim, "chaos");
    eng.run(&mut w);
    let t = w.dfk.task(id);
    assert_eq!(t.state, TaskState::Done, "retry on the surviving worker");
    assert_ne!(t.worker.unwrap() as usize, victim);
}

#[test]
fn driver_hooks_fire() {
    struct Chain {
        submitted: u32,
    }
    impl Driver for Chain {
        fn on_start(&mut self, w: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
            self.submitted += 1;
            submit(w, eng, cpu_call("chain", 1));
        }
        fn on_task_done(&mut self, w: &mut FaasWorld, eng: &mut Engine<FaasWorld>, _t: TaskId) {
            if self.submitted < 4 {
                self.submitted += 1;
                submit(w, eng, cpu_call("chain", 1));
            }
        }
    }
    let config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
    let mut w = FaasWorld::new(config, GpuFleet::new(), 13);
    w.set_driver(Chain { submitted: 0 });
    let mut eng = Engine::new();
    run(&mut w, &mut eng);
    assert_eq!(w.dfk.done_count(), 4, "closed-loop driver chained 4 tasks");
}

#[test]
fn monitoring_samples_gpu_utilization() {
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 14);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    submit(
        &mut w,
        &mut eng,
        AppCall::new("infer", "gpu", |_| {
            Box::new(KernelSeq::new(vec![gpu_kernel(540.0)], SimDuration::ZERO))
        }),
    );
    eng.run(&mut w);
    assert!(!w.monitor.samples.is_empty());
    let peak = w
        .monitor
        .samples
        .iter()
        .map(|s| s.utilization)
        .fold(0.0, f64::max);
    assert!(peak > 0.9, "kernel should saturate the GPU, peak={peak}");
}

#[test]
fn five_llama_instances_oom_on_80gb() {
    // The paper's constraint: only four 7B instances fit in 80 GB.
    let per_instance = (16.6 * GIB as f64) as u64;
    let mut fleet = fleet_one(DeviceMode::MpsPartitioned);
    fleet.device_mut(GpuId(0)).mps.start();
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        (0..5)
            .map(|_| AcceleratorSpec::GpuPercentage(0, 20))
            .collect(),
    )]);
    let mut w = FaasWorld::new(config, fleet, 15);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    for i in 0..5u64 {
        // five distinct chatbot deployments
        let model = ModelProfile::private(i, per_instance);
        submit(
            &mut w,
            &mut eng,
            AppCall::new("chat", "gpu", move |_| {
                Box::new(KernelSeq::new(vec![gpu_kernel(1.0)], SimDuration::ZERO).with_model(model))
            }),
        );
    }
    eng.run(&mut w);
    assert_eq!(w.dfk.done_count(), 4, "exactly four instances fit");
    assert_eq!(w.dfk.failed_count(), 1, "the fifth OOMs");
}

#[test]
fn kill_sole_worker_mid_task_recovers_after_respawn() {
    // Regression: killing a Busy worker requeues its task; the retry must
    // not land on the dying worker (it is torn down in the same event)
    // but must run on the respawned incarnation afterwards.
    let config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
    let mut w = FaasWorld::new(config, GpuFleet::new(), 77);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(&mut w, &mut eng, cpu_call("long", 50));
    eng.run_until(&mut w, SimTime::from_secs(10));
    assert_eq!(w.workers[0].state, WorkerState::Busy);
    kill_worker(&mut w, &mut eng, 0, "chaos");
    assert_eq!(w.workers[0].state, WorkerState::Dead);
    assert!(w.workers[0].current_task().is_none(), "no orphaned task");
    assert_eq!(w.dfk.task(id).state, TaskState::Ready, "task requeued");
    respawn_worker(&mut w, &mut eng, 0, None).unwrap();
    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
    assert_eq!(w.dfk.done_count(), 1);
}

#[test]
fn concurrent_streams_within_one_context() {
    // A single process may have several kernels in flight (CUDA streams);
    // they share the context's SM budget.
    let mut fleet = fleet_one(DeviceMode::TimeSharing);
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    let g = GpuId(0);
    let ctx = fleet
        .device_mut(g)
        .create_context(SimTime::ZERO, "streams", parfait_gpu::CtxBinding::Bare)
        .unwrap();
    // Two half-GPU kernels launched together: they run side by side and
    // finish at ~1 s (not 2 s serialized).
    fleet
        .device_mut(g)
        .launch(SimTime::ZERO, ctx, gpu_kernel(54.0), 0)
        .unwrap();
    fleet
        .device_mut(g)
        .launch(SimTime::ZERO, ctx, gpu_kernel(54.0), 1)
        .unwrap();
    let wake = fleet.device(g).next_wake(SimTime::ZERO).unwrap();
    assert!((wake.as_secs_f64() - 1.0).abs() < 1e-5, "wake {wake}");
    let done = fleet.device_mut(g).collect_finished(wake);
    assert_eq!(done.len(), 2);
    let _ = config;
}

#[test]
fn cpu_oversubscription_slows_compute_steps() {
    // 48 compute-bound workers on a 24-core node: each 10 s step takes
    // ~2x; with 24 workers it runs at full speed. Tasks are submitted
    // once every worker is warm, so all steps start together.
    let run = |workers: usize| -> f64 {
        let config = Config::new(vec![ExecutorConfig::cpu("cpu", workers)]);
        let mut w = FaasWorld::new(config, GpuFleet::new(), 22);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        run_until_cond(&mut w, &mut eng, 60, |w| {
            w.workers.iter().all(|wk| wk.state == WorkerState::Idle)
        });
        let ids: Vec<TaskId> = (0..workers)
            .map(|_| submit(&mut w, &mut eng, cpu_call("burn", 10)))
            .collect();
        eng.run(&mut w);
        ids.iter()
            .map(|i| {
                let t = w.dfk.task(*i);
                t.finished
                    .unwrap()
                    .duration_since(t.started.unwrap())
                    .as_secs_f64()
            })
            .fold(0.0, f64::max)
    };
    let fits = run(24);
    let over = run(48);
    assert!((fits - 10.0).abs() < 0.1, "24 workers on 24 cores: {fits}s");
    assert!(
        (18.0..=22.0).contains(&over),
        "48 workers on 24 cores should take ~2x: {over}s"
    );
}

/// Records every task the platform reports settled, in report order.
struct Settled(Rc<RefCell<Vec<TaskId>>>);

impl Driver for Settled {
    fn on_task_done(&mut self, _w: &mut FaasWorld, _e: &mut Engine<FaasWorld>, task: TaskId) {
        self.0.borrow_mut().push(task);
    }
}

/// Only tasks that have not started cancel: waiting and ready tasks fail
/// with "cancelled" and leave their queue, a dependent cascades, running
/// and done tasks refuse, and the driver hears each settled task once.
#[test]
fn world_cancel_removes_from_queue() {
    let config = Config::new(vec![ExecutorConfig::cpu("cpu", 1)]);
    let mut w = FaasWorld::new(config, GpuFleet::new(), 41);
    let heard = Rc::new(RefCell::new(Vec::new()));
    w.set_driver(Settled(Rc::clone(&heard)));
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let running = submit(&mut w, &mut eng, cpu_call("long", 60));
    let queued = submit(&mut w, &mut eng, cpu_call("queued", 5));
    let dependent = submit(&mut w, &mut eng, cpu_call("dependent", 5).after(&[queued]));
    let waiting = submit(&mut w, &mut eng, cpu_call("waiting", 5).after(&[running]));
    eng.run_until(&mut w, SimTime::from_secs(10));
    assert_eq!(w.dfk.task(waiting).state, TaskState::Waiting);
    assert!(cancel(&mut w, &mut eng, waiting), "waiting task cancels");
    assert!(cancel(&mut w, &mut eng, queued), "ready task cancels");
    assert!(!cancel(&mut w, &mut eng, running), "running task does not");
    assert!(w.queues[0].is_empty(), "the cancelled task left its queue");
    eng.run(&mut w);
    assert!(!cancel(&mut w, &mut eng, running), "done task does not");
    assert_eq!(w.dfk.task(running).state, TaskState::Done);
    for t in [waiting, queued] {
        assert_eq!(w.dfk.task(t).state, TaskState::Failed);
        assert_eq!(w.dfk.error(t), Some("cancelled"));
    }
    assert_eq!(w.dfk.task(dependent).state, TaskState::Failed, "cascaded");
    assert!(w.dfk.all_settled());
    let mut heard = heard.borrow().clone();
    heard.sort();
    assert_eq!(
        heard,
        vec![running, queued, dependent, waiting],
        "each settled task reported exactly once"
    );
}

/// Cancelling a task while it backs off before a retry drops the
/// snapshot its killed attempt committed: a settled task keeps no
/// checkpoint.
#[test]
fn cancel_during_retry_backoff_purges_checkpoint() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    config.checkpoint_interval = Some(SimDuration::from_secs(2));
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 43);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(
        &mut w,
        &mut eng,
        AppCall::new("long", "gpu", |_| {
            Box::new(KernelSeq::new(
                vec![gpu_kernel(108.0); 30],
                SimDuration::ZERO,
            ))
        }),
    );
    eng.run_until(&mut w, SimTime::from_secs(10));
    assert!(w.checkpoints.contains_key(&id), "a snapshot committed");
    kill_worker(&mut w, &mut eng, 0, "test");
    assert_eq!(w.dfk.task(id).state, TaskState::Ready, "backing off");
    assert!(w.checkpoints.contains_key(&id), "kept for the retry");
    assert!(cancel(&mut w, &mut eng, id));
    assert!(
        w.checkpoints.is_empty(),
        "the cancelled task's snapshot is gone"
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.error(id), Some("cancelled"));
}

// ---------------------------------------------------------------------
// Worker death at awkward lifecycle points
// ---------------------------------------------------------------------

/// Drive the engine in small steps until `cond` holds (or panic).
fn run_until_cond(
    w: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    limit_s: u64,
    mut cond: impl FnMut(&FaasWorld) -> bool,
) {
    let mut t = 0u64;
    while t < limit_s * 100 {
        t += 1;
        eng.run_until(w, SimTime::from_nanos(t * 10_000_000));
        if cond(w) {
            return;
        }
    }
    panic!("condition not reached within {limit_s}s");
}

#[test]
fn kill_during_cold_start_leaves_clean_state() {
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 23);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    run_until_cond(&mut w, &mut eng, 30, |w| {
        w.workers[0].state == WorkerState::ColdStart
    });
    kill_worker(&mut w, &mut eng, 0, "mid-cold-start kill");
    assert_eq!(w.workers[0].state, WorkerState::Dead);
    assert_eq!(w.fleet.device(GpuId(0)).context_count(), 0);
    assert_eq!(w.fleet.device(GpuId(0)).memory_used(), 0);
    // The stale cold-start completion timer must not resurrect it.
    eng.run(&mut w);
    assert_eq!(w.workers[0].state, WorkerState::Dead);
    // And the slot is fully reusable.
    respawn_worker(&mut w, &mut eng, 0, None).unwrap();
    let id = submit(
        &mut w,
        &mut eng,
        AppCall::new("after", "gpu", |_| {
            Box::new(KernelSeq::new(vec![gpu_kernel(1.0)], SimDuration::ZERO))
        }),
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
}

#[test]
fn kill_mid_model_load_keeps_cache_and_device_consistent() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    config.retries = 2;
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::TimeSharing), 29);
    w.weight_cache.set_enabled(true);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let model = ModelProfile {
        id: 7,
        bytes: 5 * GIB,
        shared_bytes: 4 * GIB,
    };
    let id = submit(
        &mut w,
        &mut eng,
        AppCall::new("infer", "gpu", move |_| {
            Box::new(KernelSeq::new(vec![gpu_kernel(1.0)], SimDuration::ZERO).with_model(model))
        }),
    );
    // Wait until the load is in flight: dispatched, not yet started.
    run_until_cond(&mut w, &mut eng, 60, |w| {
        w.dfk.task(id).dispatched.is_some() && w.dfk.task(id).started.is_none()
    });
    assert_eq!(w.workers[0].state, WorkerState::Busy);
    kill_worker(&mut w, &mut eng, 0, "mid-model-load kill");
    assert_eq!(w.workers[0].state, WorkerState::Dead);
    assert!(!w.workers[0].has_model(7), "partial load not recorded");
    assert_eq!(w.fleet.device(GpuId(0)).active_kernels(), 0);
    // The shared weights live in the device-wide cache and survive the
    // process; only the private context allocation is torn down.
    assert!(w.weight_cache.contains(0, 7));
    assert_eq!(
        w.fleet.device(GpuId(0)).cache_used(),
        4 * GIB,
        "pinned shared weights survive the process"
    );
    respawn_worker(&mut w, &mut eng, 0, None).unwrap();
    eng.run(&mut w);
    let t = w.dfk.task(id);
    assert_eq!(
        t.state,
        TaskState::Done,
        "retry completes: {:?}",
        w.dfk.error(id)
    );
    assert!(w.workers[0].has_model(7));
    assert_eq!(w.dfk.reexecuted_attempts(), 1);
}

/// The primary (the first body made) runs a 432 SM-second kernel; its
/// hedge duplicate runs `hedge_work` SM-seconds. Both workers share one
/// MPS-partitioned GPU at 50 % each.
fn shared_gpu_race(hedge_work: f64) -> (FaasWorld, Engine<FaasWorld>, TaskId) {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![
            AcceleratorSpec::GpuPercentage(0, 50),
            AcceleratorSpec::GpuPercentage(0, 50),
        ],
    )]);
    config.retries = 0;
    config.overload.hedge_trigger = Some(1.5);
    let mut w = FaasWorld::new(config, fleet_one(DeviceMode::MpsPartitioned), 31);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let made = Rc::new(std::cell::Cell::new(0u32));
    let id = submit(
        &mut w,
        &mut eng,
        AppCall::new("racing", "gpu", move |_| {
            let n = made.get();
            made.set(n + 1);
            let work = if n == 0 { 432.0 } else { hedge_work };
            Box::new(KernelSeq::new(vec![gpu_kernel(work)], SimDuration::ZERO))
        })
        .with_est_service(SimDuration::from_secs(2)),
    );
    // Stop on the primary's completion event itself.
    while w.dfk.task(id).state != TaskState::Done {
        assert!(eng.step(&mut w), "the primary completes");
    }
    (w, eng, id)
}

#[test]
fn hedge_cancel_racing_kernel_completion_is_clean() {
    // The loser's kernel is sized to complete at the very nanosecond its
    // cancellation fires, 50 ms after the primary wins. The primary's
    // completion schedules the cancellation before the device re-arms
    // its wake, so FIFO ordering fires the cancellation first and the
    // completion must be inert.
    let (probe, probe_eng, id) = shared_gpu_race(432.0);
    let t = probe.dfk.task(id);
    let rate = 432.0
        / t.finished
            .unwrap()
            .duration_since(t.started.unwrap())
            .as_secs_f64();
    let won_at = t.finished.unwrap();
    let lead = probe
        .fleet
        .device(GpuId(0))
        .next_wake(probe_eng.now())
        .unwrap()
        .duration_since(won_at);
    let cancel = config::HEDGE_CANCEL_LATENCY;
    let hedge_work = 432.0 - rate * (lead.as_secs_f64() - cancel.as_secs_f64());
    let (mut w, mut eng, id) = shared_gpu_race(hedge_work);
    let won_at = w.dfk.task(id).finished.unwrap();
    let loser = 1 - w.dfk.task(id).worker.unwrap() as usize;
    assert_eq!(
        w.fleet.device(GpuId(0)).next_wake(eng.now()),
        Some(won_at + cancel),
        "the loser's kernel completes as its cancellation fires"
    );
    eng.run(&mut w);
    assert_eq!(w.overload.stats.hedges_wasted, 1, "the primary won");
    assert_eq!(w.dfk.done_count(), 1);
    assert_eq!(w.fleet.device(GpuId(0)).active_kernels(), 0);
    assert_eq!(w.fleet.device(GpuId(0)).memory_used(), 0);
    assert_eq!(w.workers[loser].state, WorkerState::Idle, "worker survives");
    assert_eq!(w.workers[loser].tasks_completed, 0, "completion was inert");
    assert!(w.monitor.worker_events.iter().any(|e| e.worker == loser
        && e.kind == monitoring::WorkerEventKind::TaskEnd
        && e.detail == format!("task {} cancelled (hedge loser)", id.0)));
    // The loser is immediately reusable.
    let ok = submit(
        &mut w,
        &mut eng,
        AppCall::new("fits", "gpu", |_| {
            Box::new(KernelSeq::new(vec![gpu_kernel(54.0)], SimDuration::ZERO))
        }),
    );
    eng.run(&mut w);
    assert_eq!(w.dfk.task(ok).state, TaskState::Done);
}
