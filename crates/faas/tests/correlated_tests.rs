//! Correlated fault domains (host reboot, rack power) and
//! checkpoint/restore of in-flight task state: domain blast radius,
//! staggered re-admission, fence extension over an existing quarantine,
//! torn-snapshot safety, and resume-from-checkpoint progress.

use parfait_faas::app::bodies::KernelSeq;
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

/// A checkpointable GPU task: `kernels` one-second kernels in sequence.
fn seq_call(app: &str, kernels: usize) -> AppCall {
    let app = app.to_string();
    AppCall::new(app, "gpu", move |_| {
        Box::new(KernelSeq::new(
            vec![KernelDesc::new("k", 108.0, 75_600, 75_600, 0.0); kernels],
            SimDuration::ZERO,
        ))
    })
}

/// A host reboot fences every GPU on the host atomically, kills all
/// resident workers, and re-admits the GPUs *staggered* after the host
/// is back — never before, never simultaneously.
#[test]
fn host_reboot_fences_all_host_gpus_with_staggered_readmission() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0), AcceleratorSpec::Gpu(1)],
    )]);
    config.retries = 3;
    // Default topology: 4 GPUs/host, so both GPUs live on host 0.
    config.recovery.host_reboot = SimDuration::from_secs(20);
    config.recovery.gpu_reenroll_stagger = SimDuration::from_secs(4);
    let mut w = FaasWorld::new(config, fleet_n(2, DeviceMode::TimeSharing), 42);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let ids: Vec<TaskId> = (0..4)
        .map(|i| submit(&mut w, &mut eng, seq_call(&format!("t{i}"), 60)))
        .collect();
    let at = SimTime::from_secs(10);
    install_faults(
        &mut eng,
        &FaultPlan::one(at, FaultKind::HostReboot { host: 0 }),
    );

    eng.run_until(&mut w, SimTime::from_secs(11));
    assert!(gpu_quarantined(&w, GpuId(0)), "GPU 0 fenced");
    assert!(gpu_quarantined(&w, GpuId(1)), "GPU 1 fenced");
    assert!(
        w.workers.iter().all(|wk| wk.state == WorkerState::Dead),
        "every resident worker dies with the host: {:?}",
        w.workers.iter().map(|wk| wk.state).collect::<Vec<_>>()
    );
    assert_eq!(w.recovery.stats.domain_outages, 1);
    assert_eq!(w.recovery.stats.workers_lost, 2);
    assert_eq!(
        w.recovery.stats.crashes_detected, 2,
        "teardown on the blast-radius path is a platform-side discovery"
    );

    // Host back at 30 s; GPU k re-enrolls at 30 + 4·(k+1).
    eng.run_until(&mut w, SimTime::from_secs(35));
    assert!(!gpu_quarantined(&w, GpuId(0)), "GPU 0 re-enrolled at 34 s");
    assert!(gpu_quarantined(&w, GpuId(1)), "GPU 1 still fenced at 35 s");
    eng.run_until(&mut w, SimTime::from_secs(39));
    assert!(!gpu_quarantined(&w, GpuId(1)), "GPU 1 re-enrolled at 38 s");

    eng.run(&mut w);
    for id in &ids {
        assert_eq!(w.dfk.task(*id).state, TaskState::Done);
    }
    assert!(w.monitor.mttr_s().is_some(), "fence/readmit pairs close");
}

/// A rack power event takes out every host in the rack; hosts boot back
/// staggered, and each host's GPUs re-enroll only after their host.
#[test]
fn rack_power_fences_every_host_in_the_rack() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0), AcceleratorSpec::Gpu(1)],
    )]);
    config.retries = 3;
    // One GPU per host, two hosts per rack: the two GPUs are on
    // different hosts of the same rack.
    config.topology = Topology {
        gpus_per_host: 1,
        hosts_per_rack: 2,
    };
    config.recovery.host_reboot = SimDuration::from_secs(20);
    config.recovery.gpu_reenroll_stagger = SimDuration::from_secs(2);
    let mut w = FaasWorld::new(config, fleet_n(2, DeviceMode::TimeSharing), 43);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let ids: Vec<TaskId> = (0..4)
        .map(|i| submit(&mut w, &mut eng, seq_call(&format!("t{i}"), 60)))
        .collect();
    install_faults(
        &mut eng,
        &FaultPlan::one(SimTime::from_secs(10), FaultKind::RackPower { rack: 0 }),
    );

    eng.run_until(&mut w, SimTime::from_secs(11));
    assert!(gpu_quarantined(&w, GpuId(0)), "host 0's GPU fenced");
    assert!(gpu_quarantined(&w, GpuId(1)), "host 1's GPU fenced");
    assert_eq!(w.recovery.stats.domain_outages, 1, "one rack outage");
    assert_eq!(w.recovery.stats.workers_lost, 2);

    // Power returns after 60 s and a boot takes 20 s: host 0 back at
    // 10+60+20 = 90 s, GPU at 92 s; host 1 back at 105 s (one 15 s boot
    // stagger later), GPU at 107 s.
    assert_eq!(config::RACK_POWER_RESTORE, SimDuration::from_secs(60));
    assert_eq!(config::HOST_BOOT_STAGGER, SimDuration::from_secs(15));
    eng.run_until(&mut w, SimTime::from_secs(93));
    assert!(!gpu_quarantined(&w, GpuId(0)), "host 0's GPU re-enrolled");
    assert!(gpu_quarantined(&w, GpuId(1)), "host 1 still booting");
    eng.run_until(&mut w, SimTime::from_secs(108));
    assert!(!gpu_quarantined(&w, GpuId(1)), "host 1's GPU re-enrolled");

    eng.run(&mut w);
    for id in &ids {
        assert_eq!(w.dfk.task(*id).state, TaskState::Done);
    }
}

/// A rack fault hitting an already-quarantined GPU *extends* the fence
/// to the domain's re-admission time — the earlier breaker cooldown
/// must not re-admit the device while its host is still down.
#[test]
fn rack_fault_extends_existing_quarantine() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::Gpu(0)],
    )]);
    config.retries = 3;
    config.topology = Topology {
        gpus_per_host: 1,
        hosts_per_rack: 1,
    };
    config.recovery.host_reboot = SimDuration::from_secs(20);
    config.recovery.gpu_reenroll_stagger = SimDuration::from_secs(2);
    let mut w = FaasWorld::new(config, fleet_n(1, DeviceMode::TimeSharing), 44);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    let id = submit(&mut w, &mut eng, seq_call("t", 60));

    // Quarantine at 5 s (the 30 s cooldown would re-admit at 35 s), then
    // the rack dies at 6 s (re-admission at 6+60+20+2 = 88 s).
    assert_eq!(config::BREAKER_COOLDOWN, SimDuration::from_secs(30));
    assert_eq!(config::RACK_POWER_RESTORE, SimDuration::from_secs(60));
    eng.run_until(&mut w, SimTime::from_secs(5));
    quarantine_gpu(&mut w, &mut eng, GpuId(0), "test: breaker trip");
    assert!(gpu_quarantined(&w, GpuId(0)));
    eng.run_until(&mut w, SimTime::from_secs(6));
    install_faults(
        &mut eng,
        &FaultPlan::one(SimTime::from_secs(6), FaultKind::RackPower { rack: 0 }),
    );

    // The original cooldown elapses with the rack still dark: the stale
    // re-admission event must not close the extended fence.
    eng.run_until(&mut w, SimTime::from_secs(40));
    assert!(
        gpu_quarantined(&w, GpuId(0)),
        "breaker cooldown must not re-admit a GPU whose rack is down"
    );
    eng.run_until(&mut w, SimTime::from_secs(87));
    assert!(gpu_quarantined(&w, GpuId(0)), "still fenced just before");
    eng.run_until(&mut w, SimTime::from_secs(89));
    assert!(!gpu_quarantined(&w, GpuId(0)), "re-admitted at 88 s");
    assert_eq!(
        w.recovery.stats.quarantines, 1,
        "extension is not a second quarantine"
    );

    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
}

/// A worker killed mid-checkpoint-write never publishes the snapshot:
/// the commit is epoch-guarded, so the restart re-executes from scratch
/// (or from the previous committed snapshot) — never from a torn one.
#[test]
fn checkpoint_write_torn_by_host_reboot_is_not_restored() {
    fn platform() -> (FaasWorld, Engine<FaasWorld>, TaskId) {
        let mut config = Config::new(vec![ExecutorConfig::gpu(
            "gpu",
            vec![AcceleratorSpec::Gpu(0)],
        )]);
        config.retries = 3;
        config.checkpoint_interval = Some(SimDuration::from_secs(10));
        config.recovery.host_reboot = SimDuration::from_secs(10);
        config.recovery.gpu_reenroll_stagger = SimDuration::from_secs(1);
        let mut w = FaasWorld::new(config, fleet_n(1, DeviceMode::TimeSharing), 45);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        let id = submit(&mut w, &mut eng, seq_call("t", 30));
        (w, eng, id)
    }

    // The world is deterministic: a first, fault-free run of it reads
    // the first snapshot's write window — captured at a step boundary
    // after the jittered 10 s timer, committed 200 ms plus the
    // writeback later.
    let (mut probe, mut probe_eng, probe_id) = platform();
    while probe.recovery.stats.checkpoints_committed == 0 {
        assert!(probe_eng.step(&mut probe), "the probe must commit");
    }
    let captured = probe.checkpoints[&probe_id].captured_at;
    let committed = probe_eng.now();
    let window = committed.duration_since(captured);
    assert!(window > config::CHECKPOINT_OVERHEAD, "window {window}");

    // Replay the same world with a host reboot halfway through that
    // window.
    let (mut w, mut eng, id) = platform();
    let reboot = captured + SimDuration::from_nanos(window.as_nanos() / 2);
    install_faults(
        &mut eng,
        &FaultPlan::one(reboot, FaultKind::HostReboot { host: 0 }),
    );

    eng.run_until(&mut w, committed + SimDuration::from_secs(5));
    assert_eq!(
        w.recovery.stats.workers_lost, 1,
        "the reboot hit the writer"
    );
    assert_eq!(
        w.recovery.stats.checkpoints_committed, 0,
        "the in-flight write died with the worker"
    );
    assert!(w.checkpoints.is_empty(), "no torn snapshot in the store");

    eng.run(&mut w);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
    assert_eq!(
        w.recovery.stats.tasks_resumed, 0,
        "restart re-executes from scratch, not from a torn snapshot"
    );
    assert!(!w
        .monitor
        .fault_records
        .iter()
        .any(|r| r.kind == "checkpoint-restore"));
}

/// Committed checkpoints survive the worker and the whole host: after a
/// reboot the retried attempt restores the snapshot and fast-forwards
/// past the completed steps instead of re-executing them, finishing
/// strictly earlier than the same scenario without checkpointing.
#[test]
fn resume_from_checkpoint_skips_completed_work() {
    fn run_once(ckpt: bool) -> (FaasWorld, TaskId, Engine<FaasWorld>) {
        let mut config = Config::new(vec![ExecutorConfig::gpu(
            "gpu",
            vec![AcceleratorSpec::Gpu(0)],
        )]);
        config.retries = 3;
        if ckpt {
            config.checkpoint_interval = Some(SimDuration::from_secs(5));
        }
        config.recovery.host_reboot = SimDuration::from_secs(10);
        config.recovery.gpu_reenroll_stagger = SimDuration::from_secs(1);
        let mut w = FaasWorld::new(config, fleet_n(1, DeviceMode::TimeSharing), 46);
        let mut eng = Engine::new();
        boot(&mut w, &mut eng);
        let id = submit(&mut w, &mut eng, seq_call("t", 30));
        install_faults(
            &mut eng,
            &FaultPlan::one(SimTime::from_secs(22), FaultKind::HostReboot { host: 0 }),
        );
        eng.run(&mut w);
        (w, id, eng)
    }

    let (w, id, _eng) = run_once(true);
    assert_eq!(w.dfk.task(id).state, TaskState::Done);
    assert!(
        w.recovery.stats.checkpoints_committed >= 2,
        "{:?}",
        w.recovery.stats
    );
    assert_eq!(w.recovery.stats.tasks_resumed, 1, "{:?}", w.recovery.stats);
    assert!(w
        .monitor
        .fault_records
        .iter()
        .any(|r| r.kind == "checkpoint-restore"));
    let done_ckpt = w.dfk.task(id).finished.expect("finished");

    let (w_none, id_none, _eng) = run_once(false);
    assert_eq!(w_none.dfk.task(id_none).state, TaskState::Done);
    assert_eq!(w_none.recovery.stats.tasks_resumed, 0);
    let done_none = w_none.dfk.task(id_none).finished.expect("finished");
    assert!(
        done_ckpt < done_none,
        "resume must beat full re-execution: ckpt={done_ckpt:?} none={done_none:?}"
    );
    // The snapshot held ~20 s of the 30 s body; the saving must be of
    // that order, not epsilon.
    let saved = done_none.duration_since(done_ckpt).as_secs_f64();
    assert!(saved > 10.0, "saved only {saved}s");

    // Settled tasks leave no checkpoint behind.
    assert!(w.checkpoints.is_empty(), "store drained after completion");
}

/// PR-4 pin for the `crashes_detected` counter: the MPS blast-radius
/// teardown is a platform-side *discovery* of each resident's death and
/// must count every one — previously only watchdog timeouts counted and
/// MPS runs reported `crashes_detected: 0` despite losing four workers.
#[test]
fn blast_radius_teardown_counts_as_detected_crashes() {
    let mut config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![
            AcceleratorSpec::Gpu(0),
            AcceleratorSpec::Gpu(0),
            AcceleratorSpec::Gpu(0),
        ],
    )]);
    config.retries = 3;
    let mut w = FaasWorld::new(config, fleet_n(1, DeviceMode::MpsDefault), 47);
    let mut eng = Engine::new();
    boot(&mut w, &mut eng);
    for i in 0..3 {
        submit(&mut w, &mut eng, seq_call(&format!("t{i}"), 10));
    }
    install_faults(
        &mut eng,
        &FaultPlan::one(
            SimTime::from_secs(5),
            FaultKind::GpuClientFault { worker: 0 },
        ),
    );
    eng.run_until(&mut w, SimTime::from_secs(6));
    assert_eq!(w.recovery.stats.workers_lost, 3);
    assert_eq!(
        w.recovery.stats.crashes_detected, 3,
        "every blast-radius death is a detected crash: {:?}",
        w.recovery.stats
    );
    eng.run(&mut w);
}
