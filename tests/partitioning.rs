//! Cross-crate integration tests for the partitioning lifecycle: plans
//! through the executor, live reconfiguration, and the weight cache.

use parfait::core::{
    apply_plan, enable_slo_autoscaler, plan, reconfigure_mig_equal, resize_mps, switch_strategy,
    weightcache, GpuTenancy, SloAction, SloPolicy, Strategy, MIG_RESET_TIME,
};
use parfait::faas::{
    boot, submit, AcceleratorSpec, AppCall, Config, ExecutorConfig, FaasWorld, TaskState,
    WorkerState,
};
use parfait::gpu::host::GpuFleet;
use parfait::gpu::{GpuId, GpuSpec, GIB};
use parfait::simcore::{Engine, SimDuration};
use parfait::workloads::{CompletionBody, LlmSpec};

fn platform(strategy: &Strategy, procs: usize) -> (FaasWorld, Engine<FaasWorld>, LlmSpec, GpuSpec) {
    let gpu_spec = GpuSpec::a100_80gb();
    let llm = LlmSpec::llama2_7b(2);
    let mut fleet = GpuFleet::new();
    let g = fleet.add(gpu_spec.clone());
    if matches!(strategy, Strategy::MigEqual) {
        fleet.device_mut(g).set_uvm(true);
    }
    let p = plan(&gpu_spec, 0, procs, strategy).unwrap();
    let specs = apply_plan(&mut fleet, &p).unwrap();
    let config = Config::new(vec![ExecutorConfig::gpu("gpu", specs)]);
    (
        FaasWorld::new(config, fleet, 99),
        Engine::new(),
        llm,
        gpu_spec,
    )
}

fn chat(llm: &LlmSpec, gpu: &GpuSpec, app: &str) -> AppCall {
    let llm = llm.clone();
    let gpu = gpu.clone();
    AppCall::new(app, "gpu", move |_| {
        Box::new(CompletionBody::paper_request(llm.clone(), gpu.clone()))
    })
}

#[test]
fn mps_resize_restarts_workers_and_applies_new_percentages() {
    let (mut w, mut eng, llm, gpu) = platform(&Strategy::MpsEqual, 2);
    boot(&mut w, &mut eng);
    for _ in 0..2 {
        submit(&mut w, &mut eng, chat(&llm, &gpu, "warm"));
    }
    eng.run(&mut w);
    let epochs: Vec<u64> = w.workers.iter().map(|wk| wk.epoch()).collect();

    let report = resize_mps(&mut w, &mut eng, 0, &[75, 25]).unwrap();
    assert_eq!(report.workers_restarted.len(), 2);
    assert!(!report.gpu_reset);
    // An immediate resize is a transaction whose drain already finished.
    assert_eq!(w.reconfig.stats.txns_committed, 1);
    assert_eq!(w.reconfig.stats.drains_started, 0);
    eng.run(&mut w);

    for (wk, old_epoch) in w.workers.iter().zip(epochs) {
        assert!(wk.epoch() > old_epoch, "worker must be restarted");
        assert_eq!(wk.state, WorkerState::Idle);
    }
    assert_eq!(
        w.workers[0].env.get("CUDA_MPS_ACTIVE_THREAD_PERCENTAGE"),
        Some(&"75".to_string())
    );
    assert_eq!(
        w.workers[1].env.get("CUDA_MPS_ACTIVE_THREAD_PERCENTAGE"),
        Some(&"25".to_string())
    );
    // And the platform still serves requests.
    submit(&mut w, &mut eng, chat(&llm, &gpu, "after"));
    eng.run(&mut w);
    assert_eq!(
        w.dfk
            .tasks()
            .iter()
            .filter(|t| *t.app == *"after" && t.state == TaskState::Done)
            .count(),
        1
    );
}

#[test]
fn mps_resize_validates_input() {
    let (mut w, mut eng, _llm, _gpu) = platform(&Strategy::MpsEqual, 2);
    boot(&mut w, &mut eng);
    eng.run(&mut w);
    assert!(
        resize_mps(&mut w, &mut eng, 0, &[50]).is_err(),
        "length mismatch"
    );
    assert!(
        resize_mps(&mut w, &mut eng, 0, &[50, 0]).is_err(),
        "bad pct"
    );
}

/// Regression found by the PR-10 chaos search (corpus entries
/// `timeshare-resize-strand.chaos` / `timeshare-autoscale-strand.chaos`):
/// an MPS resize on a time-sharing GPU used to drain and commit,
/// respawning workers with percentage bindings the device rejects —
/// permanently dead workers, stranded queues. Both entry points must
/// refuse with `WrongMode` and leave the fleet untouched.
#[test]
fn mps_resize_refuses_non_mps_devices() {
    use parfait::core::{begin_resize_mps, ReconfigError};
    use parfait::gpu::DeviceMode;

    let (mut w, mut eng, llm, gpu) = platform(&Strategy::TimeSharing, 2);
    boot(&mut w, &mut eng);
    eng.run(&mut w);
    assert_eq!(
        resize_mps(&mut w, &mut eng, 0, &[60, 40]).unwrap_err(),
        ReconfigError::WrongMode {
            gpu: 0,
            mode: DeviceMode::TimeSharing
        }
    );
    assert_eq!(
        begin_resize_mps(&mut w, &mut eng, 0, vec![60, 40]).unwrap_err(),
        ReconfigError::WrongMode {
            gpu: 0,
            mode: DeviceMode::TimeSharing
        }
    );
    eng.run(&mut w);
    for wk in &w.workers {
        assert_eq!(
            wk.state,
            WorkerState::Idle,
            "refusal must not touch workers"
        );
        assert!(
            matches!(wk.accel, Some(AcceleratorSpec::Gpu(0))),
            "bindings unchanged: {:?}",
            wk.accel
        );
    }
    assert_eq!(w.reconfig.stats.drains_started, 0, "no drain was staged");
    // And the platform still serves requests after the refusals.
    submit(&mut w, &mut eng, chat(&llm, &gpu, "after"));
    eng.run(&mut w);
    assert_eq!(w.dfk.failed_count(), 0);
}

#[test]
fn mig_reconfigure_resets_gpu_and_rebinds_uuids() {
    let (mut w, mut eng, llm, gpu) = platform(&Strategy::MigEqual, 2);
    boot(&mut w, &mut eng);
    for _ in 0..2 {
        submit(&mut w, &mut eng, chat(&llm, &gpu, "warm"));
    }
    eng.run(&mut w);
    let old_uuid = w.workers[0]
        .env
        .get("CUDA_VISIBLE_DEVICES")
        .cloned()
        .unwrap();
    assert!(old_uuid.contains("3g.40gb"));

    let t0 = eng.now();
    let report = reconfigure_mig_equal(&mut w, &mut eng, 0, 2).unwrap();
    assert!(report.gpu_reset);
    assert_eq!(w.reconfig.stats.txns_committed, 1);
    assert_eq!(w.reconfig.stats.drains_started, 0);
    eng.run(&mut w);
    let new_uuid = w.workers[0]
        .env
        .get("CUDA_VISIBLE_DEVICES")
        .cloned()
        .unwrap();
    assert_ne!(old_uuid, new_uuid, "instances recreated with new UUIDs");
    // Workers only respawn after the GPU reset delay.
    let ready = w.workers[0].ready_at.unwrap();
    assert!(ready >= t0 + MIG_RESET_TIME);
    assert_eq!(w.fleet.device(GpuId(0)).mig.instance_count(), 2);
    // Serves traffic again.
    submit(&mut w, &mut eng, chat(&llm, &gpu, "after"));
    eng.run(&mut w);
    assert_eq!(w.dfk.failed_count(), 0);
}

/// A §6 resize or re-slice aimed at a GPU outside the fleet is refused
/// with `UnknownGpu` by every entry point, before any worker is touched;
/// `workers_on_gpu` finds no tenant there, even with MIG workers present.
#[test]
fn reconfiguration_refuses_a_gpu_outside_the_fleet() {
    use parfait::core::reconfig::workers_on_gpu;
    use parfait::core::{begin_reconfigure_mig, begin_resize_mps, ReconfigError};

    let (mut w, mut eng, llm, gpu) = platform(&Strategy::MigEqual, 2);
    boot(&mut w, &mut eng);
    eng.run(&mut w);
    let specs: Vec<_> = w.workers.iter().map(|wk| wk.accel.clone()).collect();
    assert_eq!(workers_on_gpu(&w, 0).len(), 2);
    assert!(workers_on_gpu(&w, 1).is_empty());
    let unknown = ReconfigError::UnknownGpu(1);
    assert_eq!(
        resize_mps(&mut w, &mut eng, 1, &[50, 50]).unwrap_err(),
        unknown
    );
    assert_eq!(
        begin_resize_mps(&mut w, &mut eng, 1, vec![50, 50]).unwrap_err(),
        unknown
    );
    assert_eq!(
        reconfigure_mig_equal(&mut w, &mut eng, 1, 2).unwrap_err(),
        unknown
    );
    assert_eq!(
        begin_reconfigure_mig(&mut w, &mut eng, 1, 2).unwrap_err(),
        unknown
    );
    assert_eq!(
        switch_strategy(&mut w, &mut eng, 1, &Strategy::MpsEqual).unwrap_err(),
        unknown
    );
    assert_eq!(unknown.to_string(), "GPU 1 is not in the fleet");
    eng.run(&mut w);
    for (wk, spec) in w.workers.iter().zip(&specs) {
        assert_eq!(
            wk.state,
            WorkerState::Idle,
            "refusal must not touch workers"
        );
        assert_eq!(&wk.accel, spec, "bindings unchanged");
    }
    assert_eq!(w.reconfig.stats.drains_started, 0, "no drain was staged");
    submit(&mut w, &mut eng, chat(&llm, &gpu, "after"));
    eng.run(&mut w);
    assert_eq!(w.dfk.done_count(), 1);
}

#[test]
fn strategy_switch_timesharing_to_mps() {
    let (mut w, mut eng, llm, gpu) = platform(&Strategy::TimeSharing, 3);
    boot(&mut w, &mut eng);
    submit(&mut w, &mut eng, chat(&llm, &gpu, "warm"));
    eng.run(&mut w);
    let report = switch_strategy(&mut w, &mut eng, 0, &Strategy::MpsEqual).unwrap();
    assert_eq!(report.workers_restarted.len(), 3);
    eng.run(&mut w);
    assert_eq!(
        w.workers[0].env.get("CUDA_MPS_ACTIVE_THREAD_PERCENTAGE"),
        Some(&"33".to_string())
    );
    submit(&mut w, &mut eng, chat(&llm, &gpu, "after"));
    eng.run(&mut w);
    assert_eq!(w.dfk.failed_count(), 0);
}

#[test]
fn weight_cache_survives_worker_restart_but_not_gpu_reset() {
    let (mut w, mut eng, llm, gpu) = platform(&Strategy::MpsEqual, 2);
    weightcache::enable(&mut w);
    boot(&mut w, &mut eng);
    for _ in 0..2 {
        submit(&mut w, &mut eng, chat(&llm, &gpu, "warm"));
    }
    eng.run(&mut w);
    let pinned = w.fleet.device(GpuId(0)).cache_used();
    assert_eq!(pinned, llm.weight_bytes(), "one shared copy of the weights");

    // Restart path: weights survive; the reload is a cache hit.
    resize_mps(&mut w, &mut eng, 0, &[60, 40]).unwrap();
    submit(&mut w, &mut eng, chat(&llm, &gpu, "after"));
    eng.run(&mut w);
    let report = weightcache::report(&w);
    assert!(report.hits >= 2, "restarted workers re-bind: {report:?}");
    assert_eq!(w.fleet.device(GpuId(0)).cache_used(), pinned);

    // GPU reset wipes the cache (strategy switch resets the device).
    switch_strategy(&mut w, &mut eng, 0, &Strategy::MpsEqual).unwrap();
    eng.run(&mut w);
    assert_eq!(
        w.fleet.device(GpuId(0)).cache_used(),
        0,
        "reset wipes pinned weights"
    );
    assert!(w.weight_cache.is_empty());
}

#[test]
fn weight_cache_shares_one_copy_across_four_instances() {
    // Memory benefit of §7: with the cache, 4 instances hold ONE copy of
    // the weights + 4 private KV/workspace regions.
    let (mut w, mut eng, llm, gpu) = platform(&Strategy::MpsEqual, 4);
    weightcache::enable(&mut w);
    boot(&mut w, &mut eng);
    for _ in 0..4 {
        submit(&mut w, &mut eng, chat(&llm, &gpu, "warm"));
    }
    eng.run(&mut w);
    assert_eq!(w.dfk.failed_count(), 0);
    let total = w.fleet.device(GpuId(0)).memory_used();
    let stock = 4 * llm.footprint_bytes();
    let shared = llm.weight_bytes() + 4 * (llm.footprint_bytes() - llm.weight_bytes());
    assert_eq!(total, shared);
    assert!(
        stock - total > 30 * GIB,
        "sharing should save ~3 weight copies ({} vs {})",
        total,
        stock
    );
}

#[test]
fn weight_cache_eviction_releases_memory() {
    let (mut w, mut eng, llm, gpu) = platform(&Strategy::MpsEqual, 2);
    weightcache::enable(&mut w);
    boot(&mut w, &mut eng);
    submit(&mut w, &mut eng, chat(&llm, &gpu, "warm"));
    eng.run(&mut w);
    let model_id = llm.model_profile().id;
    let freed = weightcache::evict(&mut w, &mut eng, 0, model_id);
    assert_eq!(freed, llm.weight_bytes());
    assert_eq!(w.fleet.device(GpuId(0)).cache_used(), 0);
    assert_eq!(
        weightcache::evict(&mut w, &mut eng, 0, model_id),
        0,
        "double evict is a no-op"
    );
}

#[test]
fn paper_listing2_end_to_end() {
    // Listing 2 verbatim: three GPUs at 50/25/30 percent. Build a 5-GPU
    // fleet so indices 1, 2, 4 exist; parse the strings; run a task on
    // each partition.
    let mut fleet = GpuFleet::new();
    for _ in 0..5 {
        fleet.add(GpuSpec::a100_40gb());
    }
    for i in [1u32, 2, 4] {
        let d = fleet.device_mut(GpuId(i));
        d.mps.start();
        d.set_mode(parfait::gpu::DeviceMode::MpsPartitioned)
            .unwrap();
    }
    let specs = parfait::core::parse_accelerators(&["1", "2", "4"], Some(&[50, 25, 30])).unwrap();
    let config = Config::new(vec![ExecutorConfig::gpu("gpu", specs)]);
    let mut w = FaasWorld::new(config, fleet, 5);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let gpu = GpuSpec::a100_40gb();
    let llm = LlmSpec::llama2_7b(4);
    for _ in 0..3 {
        submit(&mut w, &mut eng, chat(&llm, &gpu, "probe"));
    }
    eng.run(&mut w);
    assert_eq!(w.dfk.done_count(), 3);
    let envs: Vec<_> = w
        .workers
        .iter()
        .map(|wk| {
            (
                wk.env.get("CUDA_VISIBLE_DEVICES").cloned().unwrap(),
                wk.env
                    .get("CUDA_MPS_ACTIVE_THREAD_PERCENTAGE")
                    .cloned()
                    .unwrap(),
            )
        })
        .collect();
    assert_eq!(
        envs,
        vec![
            ("1".to_string(), "50".to_string()),
            ("2".to_string(), "25".to_string()),
            ("4".to_string(), "30".to_string()),
        ]
    );
}

#[test]
fn amd_cu_masking_path() {
    // Table 1's AMD column: CU masking is the MPS-percentage analog; MIG
    // must be rejected on an AMD part.
    let mut fleet = GpuFleet::new();
    let g = fleet.add(GpuSpec::mi210());
    assert!(fleet
        .device_mut(g)
        .set_mode(parfait::gpu::DeviceMode::Mig)
        .is_err());
    let d = fleet.device_mut(g);
    d.mps.start();
    d.set_mode(parfait::gpu::DeviceMode::MpsPartitioned)
        .unwrap();
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![
            AcceleratorSpec::GpuPercentage(0, 50),
            AcceleratorSpec::GpuPercentage(0, 50),
        ],
    )]);
    let mut w = FaasWorld::new(config, fleet, 6);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let gpu = GpuSpec::mi210();
    let llm = LlmSpec::llama2_7b(4);
    for _ in 0..2 {
        submit(&mut w, &mut eng, chat(&llm, &gpu, "probe"));
    }
    eng.run(&mut w);
    assert_eq!(w.dfk.done_count(), 2, "CU-masked workers serve traffic");
}

/// End-to-end §7 autoscaling: two tenants at 50/50; tenant A gets a burst
/// of 20 completions while B idles. The SLO controller, with an objective
/// no turnaround reaches, acts on backlog alone: it shifts share toward A
/// (through §6 restarts, softened by the §7 weight cache) once, and A's
/// burst drains faster than with the static split.
#[test]
fn autoscaler_shifts_share_toward_backlogged_tenant() {
    let gpu_spec = GpuSpec::a100_80gb();
    let llm = LlmSpec::llama2_7b(2);
    let run = |autoscale: bool| -> (f64, Vec<u32>, Vec<Vec<u32>>) {
        let mut fleet = GpuFleet::new();
        fleet.add(gpu_spec.clone());
        let p = plan(&gpu_spec, 0, 2, &Strategy::MpsEqual).unwrap();
        let specs = apply_plan(&mut fleet, &p).unwrap();
        let config = Config::new(vec![
            ExecutorConfig::gpu("tenant-a", vec![specs[0].clone()]),
            ExecutorConfig::gpu("tenant-b", vec![specs[1].clone()]),
        ]);
        let mut w = FaasWorld::new(config, fleet, 5150);
        weightcache::enable(&mut w);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        // Warm both tenants.
        let warm = |w: &mut FaasWorld, eng: &mut Engine<FaasWorld>, exec: &str| {
            let (l, g) = (llm.clone(), gpu_spec.clone());
            submit(
                w,
                eng,
                AppCall::new("warm", exec.to_string(), move |_| {
                    Box::new(CompletionBody::paper_request(l.clone(), g.clone()))
                }),
            );
        };
        warm(&mut w, &mut eng, "tenant-a");
        warm(&mut w, &mut eng, "tenant-b");
        eng.run(&mut w);
        // Burst: 20 completions for tenant A only, then start the
        // controller (it only lives while unsettled work exists).
        for _ in 0..20 {
            let (l, g) = (llm.clone(), gpu_spec.clone());
            submit(
                &mut w,
                &mut eng,
                AppCall::new("burst", "tenant-a", move |_| {
                    Box::new(CompletionBody::paper_request(l.clone(), g.clone()))
                }),
            );
        }
        let log = if autoscale {
            Some(enable_slo_autoscaler(
                &mut w,
                &mut eng,
                vec![GpuTenancy {
                    gpu: 0,
                    tenants: vec![0, 1],
                }],
                SloPolicy {
                    period: SimDuration::from_secs(15),
                    slo: SimDuration::from_secs(1_000_000),
                    min_pct: 10,
                    min_shift: 15,
                    max_concurrent: 1,
                    ..SloPolicy::default()
                },
            ))
        } else {
            None
        };
        eng.run(&mut w);
        assert!(w.dfk.all_settled());
        assert_eq!(w.dfk.failed_count(), 0);
        let makespan = parfait::core::metrics::makespan(&w, "burst")
            .unwrap()
            .as_secs_f64();
        let final_pcts: Vec<u32> = w
            .workers
            .iter()
            .filter_map(|wk| match &wk.accel {
                Some(AcceleratorSpec::GpuPercentage(_, p)) => Some(*p),
                _ => None,
            })
            .collect();
        let started: Vec<Vec<u32>> = log
            .map(|l| {
                l.borrow()
                    .iter()
                    .filter_map(|d| match &d.action {
                        SloAction::Started(split) => Some(split.clone()),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        (makespan, final_pcts, started)
    };

    let (static_t, static_pcts, _) = run(false);
    let (auto_t, _, started) = run(true);
    assert_eq!(static_pcts, vec![50, 50], "static split unchanged");
    assert!(!started.is_empty(), "controller must act on the imbalance");
    assert!(
        started.iter().any(|p| p[0] > 60),
        "some started split must favour the backlogged tenant: {started:?}"
    );
    assert_eq!(
        started.len(),
        1,
        "one transaction per demand peak: {started:?}"
    );
    assert!(
        auto_t < static_t,
        "autoscaled burst ({auto_t:.1}s) should beat static 50/50 ({static_t:.1}s)"
    );
}
