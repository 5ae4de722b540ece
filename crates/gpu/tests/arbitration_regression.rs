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
//! same device. A third trace drives one time-shared device through the
//! rotation's edge cases (memory ops on running and parked contexts, a
//! UVM overcommit flip, a slowdown window, destroying the pending switch
//! target, a zero-work kernel on a parked context) while a probe reads
//! the device every 7 ms. A fourth slows a time-shared device so far
//! that thousands of quanta pass between completions.

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

/// FNV-1a offset basis: the hash of an empty stream.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

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
    /// FNV-1a over every probe reading (edge trace only).
    probe_hash: u64,
    /// Probe events fired (edge trace only).
    probes: u64,
}

impl ChainWorld {
    fn new(fleet: GpuFleet) -> Self {
        ChainWorld {
            fleet,
            completions: Vec::new(),
            probe_hash: FNV_OFFSET,
            probes: 0,
        }
    }
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
        mpsp.alloc_memory(t0, c, 30 * GIB).expect("uvm alloc");
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
                mig.alloc_memory(t0, c, 16 * GIB).expect("uvm alloc");
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

    let mut w = ChainWorld::new(fleet);
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

/// The three contexts of the edge trace, in creation order.
type EdgeCtxs = [CtxId; 3];

/// Read the device the way a monitor does, through the read barrier:
/// busy SMs and every context's attained service, folded into the probe
/// hash. Re-arms itself every 7 ms while kernels remain.
fn edge_probe(w: &mut ChainWorld, e: &mut Engine<ChainWorld>, gpu: GpuId, ctxs: EdgeCtxs) {
    let d = w.fleet.device_mut(gpu);
    d.sync(e.now());
    let mut h = fnv1a(w.probe_hash, d.busy_sms().to_bits());
    for c in ctxs {
        h = fnv1a(h, d.attained_service(c).to_bits());
    }
    w.probe_hash = h;
    w.probes += 1;
    if d.active_kernels() > 0 {
        e.schedule_in(SimDuration::from_millis(7), move |w: &mut ChainWorld, e| {
            edge_probe(w, e, gpu, ctxs)
        });
    }
}

/// One time-shared A100 with UVM on and three relaunching contexts A, B
/// and C. Each chain opens with a 10 SM-s full-grid kernel (92.6 ms at
/// 108 SMs), so the first rotations are quantum-driven: A holds the GPU
/// over [0, 25 ms), B over [25.75, 50.75 ms), and the switch to C runs
/// over [50.75, 51.5 ms). Disturbances, at instants that fall on no
/// rotation boundary:
/// - 5.5 ms: a zero-work kernel on C, parked.
/// - 12.3 ms: A (running) allocates 50 GiB and C (parked) 30 GiB.
/// - 31.1 ms: B (running) allocates 10 GiB: 90 GiB on 80 flips the pool
///   to UVM overcommit.
/// - 40.1 ms to 120.3 ms: a 0.5 slowdown window.
/// - 51.0 ms: C is destroyed mid-switch, as the pending target; its
///   30 GiB go, which flips the pool back.
/// - 63.3 ms: B (parked) frees its 10 GiB; 70.7 ms: A (running) frees
///   its 50 GiB.
///
/// A probe reads busy SMs and attained service every 7 ms from 0.3 ms.
fn run_edge_trace() -> (Completions, u64, u64, Vec<u64>, u64, (u64, u64, u64)) {
    let mut fleet = GpuFleet::new();
    let gpu = fleet.add(GpuSpec::a100_80gb());
    let t0 = SimTime::ZERO;
    let dev = fleet.device_mut(gpu);
    dev.set_uvm(true);
    let ctxs: EdgeCtxs = [0, 1, 2].map(|i| {
        dev.create_context(t0, &format!("ts{i}"), CtxBinding::Bare)
            .expect("ts ctx")
    });
    let [a, b, c] = ctxs;
    let mut w = ChainWorld::new(fleet);
    let mut eng = Engine::new();
    for ctx in ctxs {
        let tag = chain_tag(gpu.0, ctx.0, 0, 0);
        let opener = KernelDesc::new("opener", 10.0, 75_600, 75_600, 0.0);
        launch_kernel(&mut w, &mut eng, gpu, ctx, opener, tag).expect("launch");
    }
    let at = |ms: f64| SimTime::ZERO + SimDuration::from_secs_f64(ms * 1e-3);
    eng.schedule_at(at(0.3), move |w: &mut ChainWorld, e| {
        edge_probe(w, e, gpu, ctxs)
    });
    // Lane 7 at the chain's last position: the handler does not relaunch.
    let nop_tag = chain_tag(gpu.0, c.0, 7, CHAIN - 1);
    eng.schedule_at(at(5.5), move |w: &mut ChainWorld, e| {
        let nop = KernelDesc::new("nop", 0.0, 1, 1, 0.0);
        launch_kernel(w, e, gpu, c, nop, nop_tag).expect("zero-work launch");
    });
    // (instant in ms, context, GiB, allocate?)
    let mem_ops = [
        (12.345_678, a, 50, true),
        (12.345_678, c, 30, true),
        (31.111_333, b, 10, true),
        (63.333_111, b, 10, false),
        (70.707_070, a, 50, false),
    ];
    for (ms, ctx, gib, alloc) in mem_ops {
        eng.schedule_at(at(ms), move |w: &mut ChainWorld, e| {
            let now = e.now();
            let d = w.fleet.device_mut(gpu);
            if alloc {
                d.alloc_memory(now, ctx, gib * GIB).expect("alloc");
            } else {
                d.free_memory(now, ctx, gib * GIB).expect("free");
            }
            resync(w, e, gpu);
        });
    }
    for (ms, factor) in [(40.101_010, 0.5), (120.303_030, 1.0)] {
        eng.schedule_at(at(ms), move |w: &mut ChainWorld, e| {
            let now = e.now();
            w.fleet.device_mut(gpu).set_slowdown(now, factor);
            resync(w, e, gpu);
        });
    }
    eng.schedule_at(at(51.0), move |w: &mut ChainWorld, e| {
        let now = e.now();
        let d = w.fleet.device_mut(gpu);
        d.sync(now);
        assert_eq!(d.busy_sms(), 0.0, "mid-switch: nothing runs");
        d.destroy_context(now, c).expect("destroy");
        assert!(!d.memory().overcommitted(), "C's 30 GiB went with it");
        resync(w, e, gpu);
    });
    eng.run(&mut w);
    let attained = ctxs
        .iter()
        .map(|&ctx| w.fleet.device(gpu).attained_service(ctx).to_bits())
        .collect();
    (
        w.completions,
        w.probe_hash,
        w.probes,
        attained,
        eng.now().as_nanos(),
        w.fleet.device(gpu).cost_counters(),
    )
}

/// Recorded before time-sharing rotation became lazy (one engine event
/// per quantum end and per switch end): FNV-1a over the
/// `(gpu, tag, finish-nanos)` completion stream.
const EDGE_TRACE_HASH: u64 = 0x1000_a474_3015_e9c6;
/// FNV-1a over every probe's busy-SM and attained-service bits.
const EDGE_PROBE_HASH: u64 = 0x3955_7230_fa96_0743;
/// Probe events fired.
const EDGE_PROBES: u64 = 358;
/// FNV-1a over the three contexts' final attained-service bits.
const EDGE_ATTAINED_HASH: u64 = 0xe8c4_6d43_6e13_4b9f;
/// Simulated end time of the edge trace: the last probe, the first one
/// after the last completion.
const EDGE_END_NANOS: u64 = 2_499_300_000;
/// Completions: A's and B's chains of [`CHAIN`] kernels and the
/// zero-work kernel; C is destroyed before its opener finishes.
const EDGE_COMPLETIONS: usize = 25;
/// `cost_counters()` at the end of the edge trace (recompute calls,
/// domains visited, domains skipped), recorded when every replayed tick
/// still ran the full `recompute`.
const EDGE_COST_COUNTERS: (u64, u64, u64) = (242, 112, 0);

#[test]
fn time_sharing_edge_trace_is_bit_identical_to_recorded_baseline() {
    let (completions, probe_hash, probes, attained, end, counters) = run_edge_trace();
    let mut h = FNV_OFFSET;
    for &(gpu, tag, t) in &completions {
        h = fnv1a(h, gpu as u64);
        h = fnv1a(h, tag);
        h = fnv1a(h, t);
    }
    let a = attained
        .iter()
        .fold(FNV_OFFSET, |acc, &bits| fnv1a(acc, bits));
    assert_eq!(completions.len(), EDGE_COMPLETIONS, "completion count");
    assert_eq!(h, EDGE_TRACE_HASH, "completion stream diverged: {h:#x}");
    assert_eq!(probes, EDGE_PROBES, "probe count");
    assert_eq!(
        probe_hash, EDGE_PROBE_HASH,
        "probe readings diverged: {probe_hash:#x}"
    );
    assert_eq!(a, EDGE_ATTAINED_HASH, "attained service diverged: {a:#x}");
    assert_eq!(end, EDGE_END_NANOS, "simulated makespan diverged");
    assert_eq!(counters, EDGE_COST_COUNTERS, "cost counters diverged");
}

/// One time-shared A100 with three contexts, each running the last three
/// kernels of a relaunching chain, slowed to 1e-3 from the start until
/// 150 s: every kernel needs minutes of quanta, so thousands of rotation
/// ticks separate completions and the wake emulation reaches its tick
/// cap again and again. Returns the completions, each context's final
/// attained-service bits, the end time, the engine events fired and the
/// device's cost counters.
fn run_straggler_trace() -> (Completions, Vec<u64>, u64, u64, (u64, u64, u64)) {
    let mut fleet = GpuFleet::new();
    let gpu = fleet.add(GpuSpec::a100_80gb());
    let t0 = SimTime::ZERO;
    let dev = fleet.device_mut(gpu);
    let ctxs: Vec<CtxId> = (0..3)
        .map(|i| {
            dev.create_context(t0, &format!("ts{i}"), CtxBinding::Bare)
                .expect("ts ctx")
        })
        .collect();
    dev.set_slowdown(t0, 1e-3);
    let mut w = ChainWorld::new(fleet);
    let mut eng = Engine::new();
    for &ctx in &ctxs {
        let tag = chain_tag(gpu.0, ctx.0, 0, CHAIN - 3);
        launch_kernel(&mut w, &mut eng, gpu, ctx, chain_desc(tag), tag).expect("launch");
    }
    eng.schedule_at(
        t0 + SimDuration::from_secs(150),
        move |w: &mut ChainWorld, e| {
            let now = e.now();
            w.fleet.device_mut(gpu).set_slowdown(now, 1.0);
            resync(w, e, gpu);
        },
    );
    eng.run(&mut w);
    let attained = ctxs
        .iter()
        .map(|&ctx| w.fleet.device(gpu).attained_service(ctx).to_bits())
        .collect();
    (
        w.completions,
        attained,
        eng.now().as_nanos(),
        eng.events_fired(),
        w.fleet.device(gpu).cost_counters(),
    )
}

/// Recorded with one engine event per device tick: FNV-1a over the
/// `(gpu, tag, finish-nanos)` completion stream.
const STRAGGLER_TRACE_HASH: u64 = 0xdf1e_72a5_abc3_e1e1;
/// FNV-1a over the three contexts' final attained-service bits.
const STRAGGLER_ATTAINED_HASH: u64 = 0xab41_5610_a8ba_9a4a;
/// Simulated end time of the straggler trace: the last completion.
const STRAGGLER_END_NANOS: u64 = 150_810_829_072;
/// Engine events the trace fired with one event per device tick.
const STRAGGLER_TICK_EVENTS: u64 = 11_680;
/// `cost_counters()` at the end of the straggler trace, recorded when
/// every replayed tick still ran the full `recompute`.
const STRAGGLER_COST_COUNTERS: (u64, u64, u64) = (11_693, 5_844, 0);

#[test]
fn time_sharing_straggler_trace_is_bit_identical_to_recorded_baseline() {
    let (completions, attained, end, events, counters) = run_straggler_trace();
    let mut h = FNV_OFFSET;
    for &(gpu, tag, t) in &completions {
        h = fnv1a(h, gpu as u64);
        h = fnv1a(h, tag);
        h = fnv1a(h, t);
    }
    let a = attained
        .iter()
        .fold(FNV_OFFSET, |acc, &bits| fnv1a(acc, bits));
    assert_eq!(completions.len(), 9, "three chains of three kernels");
    assert_eq!(
        h, STRAGGLER_TRACE_HASH,
        "completion stream diverged: {h:#x}"
    );
    assert_eq!(
        a, STRAGGLER_ATTAINED_HASH,
        "attained service diverged: {a:#x}"
    );
    assert_eq!(end, STRAGGLER_END_NANOS, "simulated makespan diverged");
    assert_eq!(counters, STRAGGLER_COST_COUNTERS, "cost counters diverged");
    // Completions, the slowdown's end, and the capped emulation's wakes.
    assert!(
        events > completions.len() as u64 + 1,
        "the emulation cap woke the device: {events} events"
    );
    assert!(
        events * 100 < STRAGGLER_TICK_EVENTS,
        "rotation ticks are not engine events: {events} events"
    );
}
