//! Scenario-level GPU tests: mode-transition matrix, time-sharing
//! scheduling details, MIG fragmentation, and per-process accounting.

use parfait_gpu::host::{launch_kernel, GpuFleet, GpuHost};
use parfait_gpu::sharing::{TS_QUANTUM, TS_SWITCH_PENALTY};
use parfait_gpu::{
    nvml, CtxBinding, DeviceMode, GpuDevice, GpuId, GpuSpec, KernelDesc, KernelDone,
};
use parfait_simcore::{Engine, SimTime};

fn device(mode: DeviceMode) -> GpuDevice {
    let mut d = GpuDevice::new(GpuId(0), GpuSpec::a100_80gb());
    if matches!(mode, DeviceMode::MpsDefault | DeviceMode::MpsPartitioned) {
        d.mps.start();
    }
    d.set_mode(mode).unwrap();
    d
}

#[test]
fn mode_transition_matrix_on_idle_device() {
    // Every mode can reach every other mode on an idle device.
    let modes = [
        DeviceMode::TimeSharing,
        DeviceMode::MpsDefault,
        DeviceMode::MpsPartitioned,
        DeviceMode::Mig,
        DeviceMode::Vgpu { slots: 2 },
    ];
    let mut d = GpuDevice::new(GpuId(0), GpuSpec::a100_80gb());
    d.mps.start();
    for from in &modes {
        for to in &modes {
            d.set_mode(*from)
                .unwrap_or_else(|e| panic!("enter {from:?}: {e}"));
            d.set_mode(*to)
                .unwrap_or_else(|e| panic!("{from:?} -> {to:?}: {e}"));
        }
    }
}

#[test]
fn mode_change_blocked_until_last_context_exits() {
    let mut d = device(DeviceMode::TimeSharing);
    let a = d
        .create_context(SimTime::ZERO, "a", CtxBinding::Bare)
        .unwrap();
    let b = d
        .create_context(SimTime::ZERO, "b", CtxBinding::Bare)
        .unwrap();
    assert!(d.set_mode(DeviceMode::MpsDefault).is_err());
    d.destroy_context(SimTime::ZERO, a).unwrap();
    assert!(
        d.set_mode(DeviceMode::MpsDefault).is_err(),
        "one context left"
    );
    d.destroy_context(SimTime::ZERO, b).unwrap();
    d.set_mode(DeviceMode::MpsDefault).unwrap();
}

#[test]
fn timesharing_quantum_rotation_is_fair() {
    // Two contexts with long kernels must each attain ~half of the device
    // over a long window (round-robin quanta).
    let mut d = device(DeviceMode::TimeSharing);
    let a = d
        .create_context(SimTime::ZERO, "a", CtxBinding::Bare)
        .unwrap();
    let b = d
        .create_context(SimTime::ZERO, "b", CtxBinding::Bare)
        .unwrap();
    d.launch(
        SimTime::ZERO,
        a,
        KernelDesc::new("ka", 1e6, 75_600, 75_600, 0.0),
        0,
    )
    .unwrap();
    d.launch(
        SimTime::ZERO,
        b,
        KernelDesc::new("kb", 1e6, 75_600, 75_600, 0.0),
        1,
    )
    .unwrap();
    // Drive the rotation events manually for 10 s.
    let mut now = SimTime::ZERO;
    let horizon = SimTime::from_secs(10);
    while let Some(w) = d.next_wake(now) {
        if w > horizon {
            break;
        }
        now = w;
        d.collect_finished(now);
    }
    d.advance(horizon);
    let sa = d.attained_service(a);
    let sb = d.attained_service(b);
    let total = sa + sb;
    assert!((sa / total - 0.5).abs() < 0.02, "share {:.3}", sa / total);
    // Switch overhead: one penalty per quantum, 750 µs per 25 ms ≈ 2.9%
    // loss.
    let q = TS_QUANTUM.as_secs_f64();
    let efficiency = q / (q + TS_SWITCH_PENALTY.as_secs_f64());
    let expected = efficiency * 108.0 * 10.0;
    assert!((total / expected - 1.0).abs() < 1e-3, "attained {total}");
    assert!(total > 0.97 * 108.0 * 10.0, "attained {total}");
    assert!(total <= 108.0 * 10.0 + 1e-6);
}

#[test]
fn mig_fragmentation_and_defragmentation() {
    // Create 4+2+1, destroy the middle, show a 3g cannot fit until the
    // right slices free up — the rigidity §5.2 holds against MIG.
    let mut d = device(DeviceMode::Mig);
    let i4 = d.mig_create("4g.40gb").unwrap(); // slices 0-3
    let i2 = d.mig_create("2g.20gb").unwrap(); // slices 4-5
    let i1 = d.mig_create("1g.10gb").unwrap(); // slice 6
    assert_eq!(d.mig.free_slices(), 0);
    // Freeing the 2g leaves slices 4-5: a 3g (starts {0,4}) cannot fit.
    d.mig_destroy(i2).unwrap();
    assert!(d.mig_create("3g.40gb").is_err(), "fragmented");
    // Freeing the 1g exposes start 4 with 3 slices -> 3g fits.
    d.mig_destroy(i1).unwrap();
    let i3 = d.mig_create("3g.40gb").unwrap();
    assert_eq!(d.mig.get(i3).unwrap().start_slice, 4);
    d.mig_destroy(i4).unwrap();
    d.mig_destroy(i3).unwrap();
    assert_eq!(d.mig.free_slices(), 7);
}

#[test]
fn vgpu_slots_are_memory_isolated() {
    let mut d = device(DeviceMode::Vgpu { slots: 4 });
    let a = d
        .create_context(SimTime::ZERO, "vm0", CtxBinding::VgpuSlot(0))
        .unwrap();
    let b = d
        .create_context(SimTime::ZERO, "vm1", CtxBinding::VgpuSlot(1))
        .unwrap();
    // Each slot owns 20 GiB; one tenant cannot eat another's share.
    d.alloc_memory(SimTime::ZERO, a, 20 * parfait_gpu::GIB)
        .unwrap();
    assert!(d.alloc_memory(SimTime::ZERO, a, 1).is_err(), "slot 0 full");
    d.alloc_memory(SimTime::ZERO, b, 20 * parfait_gpu::GIB)
        .unwrap();
}

#[test]
fn mps_daemon_restart_cycle_with_device() {
    let mut d = device(DeviceMode::MpsPartitioned);
    let c = d
        .create_context(SimTime::ZERO, "p", CtxBinding::MpsPercentage(40))
        .unwrap();
    assert_eq!(d.mps.client_count(), 1);
    assert!(d.mps.stop().is_err(), "client connected");
    d.destroy_context(SimTime::ZERO, c).unwrap();
    d.mps.stop().unwrap();
    // With the daemon down, new MPS contexts are refused (§4.1: the
    // daemon must run before any GPU function).
    assert!(d
        .create_context(SimTime::ZERO, "q", CtxBinding::MpsPercentage(40))
        .is_err());
    d.mps.start();
    d.create_context(SimTime::ZERO, "q", CtxBinding::MpsPercentage(40))
        .unwrap();
}

#[test]
fn end_to_end_two_tenant_attained_service_via_nvml() {
    struct W {
        fleet: GpuFleet,
        done: usize,
    }
    impl GpuHost for W {
        fn fleet_mut(&mut self) -> &mut GpuFleet {
            &mut self.fleet
        }
        fn on_kernel_done(&mut self, _e: &mut Engine<Self>, _d: KernelDone) {
            self.done += 1;
        }
    }
    let mut fleet = GpuFleet::new();
    let g = fleet.add(GpuSpec::a100_80gb());
    fleet.device_mut(g).mps.start();
    fleet
        .device_mut(g)
        .set_mode(DeviceMode::MpsPartitioned)
        .unwrap();
    let a = fleet
        .device_mut(g)
        .create_context(SimTime::ZERO, "tenant-a", CtxBinding::MpsPercentage(75))
        .unwrap();
    let b = fleet
        .device_mut(g)
        .create_context(SimTime::ZERO, "tenant-b", CtxBinding::MpsPercentage(25))
        .unwrap();
    let mut w = W { fleet, done: 0 };
    let mut eng = Engine::new();
    for (ctx, tag) in [(a, 1u64), (b, 2)] {
        launch_kernel(
            &mut w,
            &mut eng,
            g,
            ctx,
            KernelDesc::new("k", 200.0, 75_600, 75_600, 0.0),
            tag,
        )
        .unwrap();
    }
    eng.run_until(&mut w, SimTime::from_secs(2));
    // Bring the accounting up to "now" before reading it (the device
    // integrates lazily, at events).
    w.fleet.device_mut(g).advance(eng.now());
    let ps = nvml::list_processes(&mut w.fleet, g, eng.now());
    let sa = ps
        .iter()
        .find(|p| p.label == "tenant-a")
        .unwrap()
        .attained_sm_s;
    let sb = ps
        .iter()
        .find(|p| p.label == "tenant-b")
        .unwrap()
        .attained_sm_s;
    // 75/25 caps on 108 SMs -> 81 vs 27 SMs sustained.
    assert!((sa / sb - 3.0).abs() < 0.05, "ratio {}", sa / sb);
    eng.run(&mut w);
    assert_eq!(w.done, 2);
}
