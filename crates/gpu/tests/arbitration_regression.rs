//! Regression lock on the arbitration numerics.
//!
//! Replays the `contended_arbitration` bench setup (8 MPS contexts ×
//! 50 kernels each on one A100-80GB) and asserts the kernel completion
//! times and per-context attained service are **bit-identical** to the
//! values produced by the pre-slab `BTreeMap` implementation. Any change
//! to f64 summation order in `GpuDevice::recompute`/`advance` shows up
//! here before it can silently shift a paper figure. A second trace runs
//! one device per arbitration path (time-sharing rotation, partitioned
//! MPS caps, MIG slices of different sizes, vGPU slots, UVM overcommit,
//! a slowdown window) with completion handlers that relaunch on the
//! same device.

use parfait_gpu::host::{launch_kernel, resync, GpuFleet, GpuHost};
use parfait_gpu::{CtxBinding, CtxId, DeviceMode, GpuId, GpuSpec, KernelDesc, KernelDone, GIB};
use parfait_simcore::{Engine, SimDuration, SimTime};

struct World {
    fleet: GpuFleet,
    completions: Vec<(u64, u64)>,
}

impl GpuHost for World {
    fn fleet_mut(&mut self) -> &mut GpuFleet {
        &mut self.fleet
    }
    fn on_kernel_done(&mut self, _e: &mut Engine<Self>, d: KernelDone) {
        self.completions.push((d.tag, d.finished.as_nanos()));
    }
}

/// FNV-1a over a u64 stream; stable, dependency-free fingerprint.
fn fnv1a(acc: u64, x: u64) -> u64 {
    let mut h = acc;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn run_trace() -> (Vec<(u64, u64)>, Vec<u64>, u64) {
    let mut fleet = GpuFleet::new();
    let gid = fleet.add(GpuSpec::a100_80gb());
    fleet.device_mut(gid).mps.start();
    fleet
        .device_mut(gid)
        .set_mode(DeviceMode::MpsDefault)
        .expect("mode");
    let ctxs: Vec<CtxId> = (0..8)
        .map(|i| {
            fleet
                .device_mut(gid)
                .create_context(SimTime::ZERO, &format!("p{i}"), CtxBinding::Bare)
                .expect("ctx")
        })
        .collect();
    let mut w = World {
        fleet,
        completions: Vec::new(),
    };
    let mut eng = Engine::new();
    for (i, &ctx) in ctxs.iter().enumerate() {
        for j in 0..50u64 {
            launch_kernel(
                &mut w,
                &mut eng,
                gid,
                ctx,
                KernelDesc::new("k", 0.5 + j as f64 * 0.01, 40, 40, 0.3),
                (i as u64) << 32 | j,
            )
            .expect("launch");
        }
    }
    eng.run(&mut w);
    let attained: Vec<u64> = ctxs
        .iter()
        .map(|&c| w.fleet.device(gid).attained_service(c).to_bits())
        .collect();
    (w.completions, attained, eng.now().as_nanos())
}

/// Recorded with the pre-slab `BTreeMap<u64, ActiveKernel>` device and
/// `BinaryHeap<Scheduled>` engine. FNV-1a over the (tag, finish-nanos)
/// completion stream.
const BASELINE_TRACE_HASH: u64 = 0x5c30d016884a1ccd;
/// Simulated end time of the trace under the baseline implementation.
const BASELINE_END_NANOS: u64 = 2_780_601_853;
/// Per-context attained service, as raw f64 bits. The workload is
/// symmetric, so all eight contexts attain the same service.
const BASELINE_ATTAINED_BITS: u64 = 0x40429ffffffffff1;

#[test]
fn contended_trace_is_bit_identical_to_recorded_baseline() {
    let (completions, attained, end) = run_trace();
    assert_eq!(completions.len(), 400, "all 400 kernels complete");

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(tag, t) in &completions {
        h = fnv1a(h, tag);
        h = fnv1a(h, t);
    }
    assert_eq!(
        h, BASELINE_TRACE_HASH,
        "completion stream (order, tags, or times) diverged from the recorded baseline"
    );
    assert_eq!(end, BASELINE_END_NANOS, "simulated makespan diverged");
    for (i, &a) in attained.iter().enumerate() {
        assert_eq!(
            a,
            BASELINE_ATTAINED_BITS,
            "attained_service(ctx {i}) not bit-identical: got {} want {}",
            f64::from_bits(a),
            f64::from_bits(BASELINE_ATTAINED_BITS),
        );
    }
    // Spot anchors, human-readable: first and last completion instants.
    assert_eq!(completions[0], (0, 1_851_851_852));
    assert_eq!(completions[399].1, BASELINE_END_NANOS);
}

/// Completion stream of the mixed-mode trace: `(gpu, tag, finish nanos)`.
type Completions = Vec<(u32, u64, u64)>;

/// A world whose completion handler relaunches each kernel's successor
/// on the same context, so every chain runs through the
/// relaunch-inside-a-device-tick path.
struct ChainWorld {
    fleet: GpuFleet,
    completions: Completions,
}

/// Kernels per chain.
const CHAIN: u64 = 12;

/// Tag layout: gpu << 40 | ctx << 24 | lane << 16 | position in chain.
fn chain_tag(gpu: u32, ctx: u32, lane: u64, j: u64) -> u64 {
    (gpu as u64) << 40 | (ctx as u64) << 24 | lane << 16 | j
}

/// A deterministic spread of kernel shapes: small decode grids, grids
/// larger than any cap, bandwidth-hungry and compute-only kernels.
fn chain_desc(tag: u64) -> KernelDesc {
    const BLOCKS: [u32; 6] = [20, 432, 75_600, 7, 108, 40];
    const USEFUL: [u32; 5] = [20, 108, 64, 40, 108];
    const MEM: [f64; 4] = [0.0, 0.3, 0.8, 0.15];
    let h = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    KernelDesc::new(
        "mixed",
        0.3 + (h % 13) as f64 * 0.37,
        BLOCKS[(h % 6) as usize],
        USEFUL[(h / 7 % 5) as usize],
        MEM[(h / 35 % 4) as usize],
    )
}

impl GpuHost for ChainWorld {
    fn fleet_mut(&mut self) -> &mut GpuFleet {
        &mut self.fleet
    }
    fn on_kernel_done(&mut self, e: &mut Engine<Self>, d: KernelDone) {
        self.completions
            .push((d.gpu.0, d.tag, d.finished.as_nanos()));
        let j = d.tag & 0xFFFF;
        if j + 1 < CHAIN {
            let next = d.tag + 1;
            launch_kernel(self, e, d.gpu, d.ctx, chain_desc(next), next).expect("relaunch");
        }
    }
}

/// One device per arbitration path, all in one engine:
/// - gpu 0, time-sharing: three contexts rotate; one is destroyed
///   mid-run while it may hold the GPU.
/// - gpu 1, partitioned MPS (50/30/20 %) with interference: two chains
///   per context, so per-context demand exceeds the cap; the device
///   pool is UVM-overcommitted; one chain is aborted by tag.
/// - gpu 2, MIG with 4g, 2g and 1g instances: two contexts share the
///   4g slice; the 1g slice's pool is UVM-overcommitted.
/// - gpu 3, three vGPU slots, two contexts on slot 0.
/// - gpu 4, default MPS with interference and a slowdown window.
fn run_mixed_trace() -> (Completions, Vec<u64>, u64) {
    let spec = GpuSpec::a100_80gb();
    let mut fleet = GpuFleet::new();
    let gpus: Vec<GpuId> = (0..5).map(|_| fleet.add(spec.clone())).collect();
    let t0 = SimTime::ZERO;
    // (gpu, ctx, chains) started at t = 0.
    let mut starts: Vec<(GpuId, CtxId, u64)> = Vec::new();

    let ts = fleet.device_mut(gpus[0]);
    for i in 0..3 {
        let c = ts
            .create_context(t0, &format!("ts{i}"), CtxBinding::Bare)
            .expect("ts ctx");
        starts.push((gpus[0], c, 1));
    }

    let mpsp = fleet.device_mut(gpus[1]);
    mpsp.mps.start();
    mpsp.set_mode(DeviceMode::MpsPartitioned).expect("mode");
    mpsp.set_mps_interference(0.06);
    mpsp.set_uvm(true);
    for (i, pct) in [50, 30, 20].into_iter().enumerate() {
        let c = mpsp
            .create_context(t0, &format!("mps{i}"), CtxBinding::MpsPercentage(pct))
            .expect("mps ctx");
        mpsp.alloc_memory(c, 30 * GIB).expect("uvm alloc");
        starts.push((gpus[1], c, 2));
    }
    assert!(mpsp.memory().overcommitted(), "90 GiB on an 80 GiB pool");

    let mig = fleet.device_mut(gpus[2]);
    mig.set_uvm(true);
    mig.set_mode(DeviceMode::Mig).expect("mode");
    for (profile, ctxs) in [("4g.40gb", 2), ("2g.20gb", 1), ("1g.10gb", 1)] {
        let iid = mig.mig_create(profile).expect("instance");
        let uuid = mig.mig.get(iid).expect("live").uuid.clone();
        for i in 0..ctxs {
            let c = mig
                .create_context(
                    t0,
                    &format!("{profile}-{i}"),
                    CtxBinding::MigInstance(uuid.clone()),
                )
                .expect("mig ctx");
            if profile == "1g.10gb" {
                mig.alloc_memory(c, 16 * GIB).expect("uvm alloc");
                assert!(mig.mig_memory(iid).expect("pool").overcommitted());
            }
            starts.push((gpus[2], c, 1));
        }
    }

    let vgpu = fleet.device_mut(gpus[3]);
    vgpu.set_mode(DeviceMode::Vgpu { slots: 3 }).expect("mode");
    for slot in [0, 0, 1, 2] {
        let c = vgpu
            .create_context(t0, &format!("vm{slot}"), CtxBinding::VgpuSlot(slot))
            .expect("vgpu ctx");
        starts.push((gpus[3], c, 1));
    }

    let mpsd = fleet.device_mut(gpus[4]);
    mpsd.mps.start();
    mpsd.set_mode(DeviceMode::MpsDefault).expect("mode");
    mpsd.set_mps_interference(0.06);
    for i in 0..3 {
        let c = mpsd
            .create_context(t0, &format!("mpsd{i}"), CtxBinding::Bare)
            .expect("mpsd ctx");
        starts.push((gpus[4], c, 1));
    }

    let mut w = ChainWorld {
        fleet,
        completions: Vec::new(),
    };
    let mut eng = Engine::new();
    for &(g, c, lanes) in &starts {
        for lane in 0..lanes {
            let tag = chain_tag(g.0, c.0, lane, 0);
            launch_kernel(&mut w, &mut eng, g, c, chain_desc(tag), tag).expect("launch");
        }
    }
    let at = |s: f64| SimTime::ZERO + SimDuration::from_secs_f64(s);
    let (ts_gpu, ts_victim) = (gpus[0], starts[1].1);
    eng.schedule_at(at(0.41), move |w: &mut ChainWorld, e| {
        let now = e.now();
        w.fleet
            .device_mut(ts_gpu)
            .destroy_context(now, ts_victim)
            .expect("destroy");
        resync(w, e, ts_gpu);
    });
    let (mps_gpu, mps_victim) = (gpus[1], starts[4].1);
    eng.schedule_at(at(0.23), move |w: &mut ChainWorld, e| {
        let now = e.now();
        // Whichever kernel of the 30 % context's second chain is in
        // flight: tags encode the chain position, so try them all.
        let aborted: usize = (0..CHAIN)
            .map(|j| {
                w.fleet
                    .device_mut(mps_gpu)
                    .abort_tagged(now, chain_tag(mps_gpu.0, mps_victim.0, 1, j))
            })
            .sum();
        assert_eq!(aborted, 1, "exactly one kernel of the chain is in flight");
        resync(w, e, mps_gpu);
    });
    let slow_gpu = gpus[4];
    for (s, factor) in [(0.3, 0.5), (0.9, 1.0)] {
        eng.schedule_at(at(s), move |w: &mut ChainWorld, e| {
            let now = e.now();
            w.fleet.device_mut(slow_gpu).set_slowdown(now, factor);
            resync(w, e, slow_gpu);
        });
    }
    eng.run(&mut w);
    let attained = starts
        .iter()
        .map(|&(g, c, _)| w.fleet.device(g).attained_service(c).to_bits())
        .collect();
    (w.completions, attained, eng.now().as_nanos())
}

/// Recorded before the per-kernel arbitration cache, the one-pass
/// demand derivation and the one-re-arm-per-tick rule: FNV-1a over the
/// `(gpu, tag, finish-nanos)` completion stream.
const MIXED_TRACE_HASH: u64 = 0x4bed_fc82_a31c_0096;
/// FNV-1a over every context's attained-service bits, in creation order.
const MIXED_ATTAINED_HASH: u64 = 0x61bb_2cd3_e471_dc58;
/// Simulated end time of the mixed trace.
const MIXED_END_NANOS: u64 = 5_400_751_034;
/// Completions: 20 chains of [`CHAIN`] kernels, minus the destroyed
/// context's and the aborted chain's unfinished tails.
const MIXED_COMPLETIONS: usize = 218;

#[test]
fn mixed_mode_trace_is_bit_identical_to_recorded_baseline() {
    let (completions, attained, end) = run_mixed_trace();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(gpu, tag, t) in &completions {
        h = fnv1a(h, gpu as u64);
        h = fnv1a(h, tag);
        h = fnv1a(h, t);
    }
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    for &bits in &attained {
        a = fnv1a(a, bits);
    }
    for g in 0..5u32 {
        assert!(
            completions.iter().any(|c| c.0 == g),
            "gpu {g} completed nothing"
        );
    }
    assert_eq!(completions.len(), MIXED_COMPLETIONS, "completion count");
    assert_eq!(h, MIXED_TRACE_HASH, "completion stream diverged: {h:#x}");
    assert_eq!(a, MIXED_ATTAINED_HASH, "attained service diverged: {a:#x}");
    assert_eq!(end, MIXED_END_NANOS, "simulated makespan diverged");
}
