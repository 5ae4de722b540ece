//! Property-based tests for the GPU arbitration model.

use parfait_gpu::host::{launch_kernel, resync, GpuFleet, GpuHost};
use parfait_gpu::CtxId;
use parfait_gpu::{CtxBinding, DeviceMode, GpuDevice, GpuId, GpuSpec, KernelDesc, KernelDone, GIB};
use parfait_simcore::{Engine, SimDuration, SimTime};
use proptest::prelude::*;

fn arb_kernel() -> impl Strategy<Value = KernelDesc> {
    (0.01f64..50.0, 1u32..500, 1u32..200, 0.0f64..1.0)
        .prop_map(|(work, blocks, max_u, mem)| KernelDesc::new("prop", work, blocks, max_u, mem))
}

/// Kernels for the dirty-tracking equivalence test: zero memory so that
/// launches never OOM on small MIG instances and every op exercises the
/// rate recompute path rather than the allocator.
fn arb_domain_kernel() -> impl Strategy<Value = KernelDesc> {
    (0.01f64..50.0, 1u32..500, 1u32..200)
        .prop_map(|(work, blocks, max_u)| KernelDesc::new("prop", work, blocks, max_u, 0.0))
}

/// Run one op sequence against a fresh device in the selected mode and
/// record `kernel_rates()` (rates as raw bits for exact comparison) after
/// every op. Ops: 0 = launch, 1 = collect_finished sweep, 2 = destroy the
/// selected context and recreate it with the same binding, 3 =
/// `abort_tagged` of one of the last four launches' tags.
fn rate_trace(
    mode_sel: usize,
    ops: &[(u8, KernelDesc, usize, u64)],
    tracking: bool,
) -> Vec<Vec<(u64, u64)>> {
    let mut d = GpuDevice::new(GpuId(0), GpuSpec::a100_80gb());
    d.set_dirty_tracking(tracking);
    let bindings: Vec<CtxBinding> = match mode_sel {
        0 => {
            d.set_mode(DeviceMode::TimeSharing).unwrap();
            vec![CtxBinding::Bare; 3]
        }
        1 => {
            d.mps.start();
            d.set_mode(DeviceMode::MpsDefault).unwrap();
            vec![CtxBinding::Bare; 3]
        }
        2 => {
            d.mps.start();
            d.set_mode(DeviceMode::MpsPartitioned).unwrap();
            vec![CtxBinding::MpsPercentage(25); 3]
        }
        3 => {
            d.set_mode(DeviceMode::Mig).unwrap();
            let a = d.mig_create("3g.40gb").unwrap();
            let b = d.mig_create("3g.40gb").unwrap();
            vec![
                CtxBinding::MigInstance(d.mig.get(a).unwrap().uuid.clone()),
                CtxBinding::MigInstance(d.mig.get(b).unwrap().uuid.clone()),
            ]
        }
        _ => {
            d.set_mode(DeviceMode::Vgpu { slots: 4 }).unwrap();
            vec![
                CtxBinding::VgpuSlot(0),
                CtxBinding::VgpuSlot(1),
                CtxBinding::VgpuSlot(2),
            ]
        }
    };
    let mut ctxs: Vec<(CtxId, CtxBinding)> = bindings
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                d.create_context(SimTime::ZERO, &format!("p{i}"), b.clone())
                    .unwrap(),
                b.clone(),
            )
        })
        .collect();
    let mut now = SimTime::ZERO;
    let mut trace = Vec::with_capacity(ops.len());
    let mut tags = Vec::new();
    for (i, (op, kernel, sel, dt)) in ops.iter().enumerate() {
        now += SimDuration::from_nanos(*dt);
        let slot = sel % ctxs.len();
        match op {
            0 => {
                d.launch(now, ctxs[slot].0, kernel.clone(), i as u64)
                    .unwrap();
                tags.push(i as u64);
            }
            1 => {
                d.collect_finished(now);
            }
            2 => {
                let binding = ctxs[slot].1.clone();
                d.destroy_context(now, ctxs[slot].0).unwrap();
                let id = d
                    .create_context(now, &format!("r{i}"), binding.clone())
                    .unwrap();
                ctxs[slot] = (id, binding);
            }
            _ => {
                if !tags.is_empty() {
                    d.abort_tagged(now, tags[tags.len() - 1 - sel % tags.len()]);
                }
            }
        }
        trace.push(
            d.kernel_rates()
                .into_iter()
                .map(|(kid, rate)| (kid, rate.to_bits()))
                .collect(),
        );
    }
    trace
}

/// One op of a time-shared run driven through `host`: `(kind, kernel,
/// (context selector, microseconds after the previous op), (relaunches,
/// GiB))`. Kinds: 0 launches a kernel that its handler relaunches that
/// many times, 1 allocates and 2 frees memory on the context, 3
/// destroys the context and creates a fresh one in its place.
type TsOp = (u8, KernelDesc, (usize, u64), (u64, u64));

/// Kernels with `work` SM·s on at least `min_sms` blocks and useful SMs
/// (below 500 and 200).
fn arb_ts_kernel(work: std::ops::Range<f64>, min_sms: u32) -> impl Strategy<Value = KernelDesc> {
    (work, min_sms..500, min_sms..200)
        .prop_map(|(work, blocks, max_u)| KernelDesc::new("ts", work, blocks, max_u, 0.0))
}

/// Ops carry kernels of up to 20 SM·s, so chains run dozens of
/// quantum/switch turns, on grids and useful SMs down to one.
fn arb_ts_op() -> impl Strategy<Value = TsOp> {
    (
        0u8..4,
        arb_ts_kernel(0.001..20.0, 1),
        (0usize..4, 0u64..60_000),
        (0u64..4, 1u64..40),
    )
}

/// A time-shared run: contexts (2–4), whether dirty tracking is on, an
/// optional slowdown window `(start µs, length µs, factor)`, and the
/// ops. Two kernels of 3–20 SM·s on at least 20 SMs open it on the
/// first two contexts at time zero, so every run has a chain of whole
/// turns to walk.
type TsRun = (usize, bool, Option<(u64, u64, f64)>, Vec<TsOp>);

fn arb_ts_run() -> impl Strategy<Value = TsRun> {
    (
        (2usize..5, any::<bool>()),
        (any::<bool>(), (0u64..200_000, 1u64..400_000, 0.05f64..3.0)),
        (arb_ts_kernel(3.0..20.0, 20), arb_ts_kernel(3.0..20.0, 20)),
        proptest::collection::vec(arb_ts_op(), 0..24),
    )
        .prop_map(|((ctxs, tracking), (slow, window), (a, b), ops)| {
            let mut all = vec![(0, a, (0, 0), (1, 1)), (0, b, (1, 0), (1, 1))];
            all.extend(ops);
            (ctxs, tracking, slow.then_some(window), all)
        })
}

/// The world of [`observed_run`]: completions as `(tag, finish nanos)`;
/// tag `op << 8 | relaunches left`.
struct ObsWorld {
    fleet: GpuFleet,
    /// The contexts ops select from; a recreated one replaces its
    /// predecessor.
    ctxs: Vec<CtxId>,
    descs: Vec<KernelDesc>,
    completions: Vec<(u64, u64)>,
}

impl GpuHost for ObsWorld {
    fn fleet_mut(&mut self) -> &mut GpuFleet {
        &mut self.fleet
    }
    fn on_kernel_done(&mut self, e: &mut Engine<Self>, d: KernelDone) {
        self.completions.push((d.tag, d.finished.as_nanos()));
        if d.tag & 0xFF > 0 {
            let desc = self.descs[(d.tag >> 8) as usize].clone();
            launch_kernel(self, e, d.gpu, d.ctx, desc, d.tag - 1).unwrap();
        }
    }
}

/// What [`observed_run`] compares: the completion stream, the end-of-run
/// attained-service and average-utilization bits, and the cost counters.
type Observed = (Vec<(u64, u64)>, Vec<u64>, (u64, u64, u64));

/// Replay `run` on one time-shared A100. With `probe`, an event every
/// 3 ms reads the device through the barrier (busy SMs, every context's
/// attained service): no 25.75 ms turn fits between probes, so that run
/// replays tick by tick. Returns what the two runs must share, read at
/// the last completion or op, and the device's chain counters.
fn observed_run(run: &TsRun, probe: bool) -> (Observed, (u64, u64)) {
    let (n_ctx, tracking, slow, ops) = run;
    let mut fleet = GpuFleet::new();
    let gpu = fleet.add(GpuSpec::a100_80gb());
    fleet.device_mut(gpu).set_dirty_tracking(*tracking);
    let ctxs: Vec<CtxId> = (0..*n_ctx)
        .map(|i| {
            fleet
                .device_mut(gpu)
                .create_context(SimTime::ZERO, &format!("p{i}"), CtxBinding::Bare)
                .unwrap()
        })
        .collect();
    let mut w = ObsWorld {
        fleet,
        ctxs,
        descs: ops.iter().map(|op| op.1.clone()).collect(),
        completions: Vec::new(),
    };
    let mut eng: Engine<ObsWorld> = Engine::new();
    let mut at = SimTime::ZERO;
    for (i, (kind, _, (sel, dt_us), (relaunches, gib))) in ops.iter().cloned().enumerate() {
        at += SimDuration::from_micros(dt_us);
        let sel = sel % n_ctx;
        eng.schedule_at(at, move |w: &mut ObsWorld, e| {
            let now = e.now();
            let ctx = w.ctxs[sel];
            let d = w.fleet.device_mut(gpu);
            match kind {
                0 => {
                    let desc = w.descs[i].clone();
                    let tag = (i as u64) << 8 | relaunches;
                    launch_kernel(w, e, gpu, ctx, desc, tag).unwrap();
                }
                1 => {
                    let _ = d.alloc_memory(now, ctx, gib * GIB);
                }
                2 => {
                    let _ = d.free_memory(now, ctx, gib * GIB);
                }
                _ => {
                    d.destroy_context(now, ctx).unwrap();
                    w.ctxs[sel] = d.create_context(now, "fresh", CtxBinding::Bare).unwrap();
                }
            }
            resync(w, e, gpu);
        });
    }
    let mut last_op = at;
    if let Some((start_us, len_us, factor)) = *slow {
        let start = SimTime::ZERO + SimDuration::from_micros(start_us);
        let end = start + SimDuration::from_micros(len_us);
        for (t, f) in [(start, factor), (end, 1.0)] {
            eng.schedule_at(t, move |w: &mut ObsWorld, e| {
                w.fleet.device_mut(gpu).set_slowdown(e.now(), f);
                resync(w, e, gpu);
            });
        }
        last_op = last_op.max(end);
    }
    if probe {
        fn probe(w: &mut ObsWorld, e: &mut Engine<ObsWorld>, gpu: GpuId, last_op: SimTime) {
            let now = e.now();
            let d = w.fleet.device_mut(gpu);
            d.sync(now);
            let attained: f64 = d.contexts().map(|c| d.attained_service(c.id)).sum();
            assert!((d.busy_sms() + attained).is_finite());
            if d.active_kernels() > 0 || now < last_op {
                e.schedule_in(SimDuration::from_millis(3), move |w: &mut ObsWorld, e| {
                    probe(w, e, gpu, last_op)
                });
            }
        }
        eng.schedule_at(SimTime::ZERO, move |w: &mut ObsWorld, e| {
            probe(w, e, gpu, last_op)
        });
    }
    eng.run(&mut w);
    let last_done = w.completions.iter().map(|c| c.1).max().unwrap_or(0);
    let end = last_op.max(SimTime::from_nanos(last_done));
    let d = w.fleet.device_mut(gpu);
    d.sync(end);
    let mut finals: Vec<u64> = w
        .ctxs
        .iter()
        .map(|&c| d.attained_service(c).to_bits())
        .collect();
    finals.push(d.average_utilization(end).to_bits());
    let observed = (w.completions, finals, d.cost_counters());
    (observed, d.chain_counters())
}

proptest! {
    /// Effective SMs never exceed the allocation, the block count, or the
    /// usefulness cap, and are monotone non-decreasing in the allocation.
    #[test]
    fn effective_sms_invariants(k in arb_kernel(), alloc in 0.0f64..200.0) {
        let eff = k.effective_sms(alloc);
        prop_assert!(eff >= 0.0);
        prop_assert!(eff <= alloc + 1e-9);
        prop_assert!(eff <= k.blocks as f64 + 1e-9);
        prop_assert!(eff <= k.max_useful_sms as f64 + 1e-9);
        let eff_more = k.effective_sms(alloc + 1.0);
        prop_assert!(eff_more + 1e-9 >= eff, "not monotone at {alloc}");
    }

    /// Under any mode, the sum of kernel rates never exceeds the device's
    /// SM count, and each kernel's rate is non-negative.
    #[test]
    fn rates_conserve_sms(
        kernels in proptest::collection::vec(arb_kernel(), 1..12),
        mode_sel in 0usize..3,
    ) {
        let mut d = GpuDevice::new(GpuId(0), GpuSpec::a100_80gb());
        let mode = match mode_sel {
            0 => DeviceMode::TimeSharing,
            1 => DeviceMode::MpsDefault,
            _ => DeviceMode::MpsPartitioned,
        };
        if mode_sel > 0 {
            d.mps.start();
        }
        d.set_mode(mode).unwrap();
        let n = kernels.len().min(4);
        let ctxs: Vec<_> = (0..n)
            .map(|i| {
                let binding = if mode == DeviceMode::MpsPartitioned {
                    CtxBinding::MpsPercentage(25)
                } else {
                    CtxBinding::Bare
                };
                d.create_context(SimTime::ZERO, &format!("p{i}"), binding).unwrap()
            })
            .collect();
        for (i, k) in kernels.iter().enumerate() {
            d.launch(SimTime::ZERO, ctxs[i % n], k.clone(), i as u64).unwrap();
        }
        prop_assert!(d.busy_sms() <= 108.0 + 1e-6, "busy {}", d.busy_sms());
        prop_assert!(d.busy_sms() >= 0.0);
    }

    /// Work conservation end-to-end: a batch of kernels on one context
    /// completes in exactly max over kernels of their finishing time, and
    /// total wall time is at least total work / device SMs.
    #[test]
    fn work_conservation(kernels in proptest::collection::vec(arb_kernel(), 1..8)) {
        struct W {
            fleet: GpuFleet,
            done: usize,
            last: SimTime,
        }
        impl GpuHost for W {
            fn fleet_mut(&mut self) -> &mut GpuFleet {
                &mut self.fleet
            }
            fn on_kernel_done(&mut self, eng: &mut Engine<Self>, _d: KernelDone) {
                self.done += 1;
                self.last = eng.now();
            }
        }
        let mut fleet = GpuFleet::new();
        let g = fleet.add(GpuSpec::a100_80gb());
        fleet.device_mut(g).mps.start();
        fleet.device_mut(g).set_mode(DeviceMode::MpsDefault).unwrap();
        let c = fleet
            .device_mut(g)
            .create_context(SimTime::ZERO, "p", CtxBinding::Bare)
            .unwrap();
        let mut w = W { fleet, done: 0, last: SimTime::ZERO };
        let mut eng = Engine::new();
        let total_work: f64 = kernels.iter().map(|k| k.work_sm_s).sum();
        for (i, k) in kernels.iter().enumerate() {
            launch_kernel(&mut w, &mut eng, g, c, k.clone(), i as u64).unwrap();
        }
        eng.run(&mut w);
        prop_assert_eq!(w.done, kernels.len(), "all kernels complete");
        let wall = w.last.as_secs_f64();
        prop_assert!(
            wall + 1e-6 >= total_work / 108.0,
            "wall {wall} beats the physical bound {}",
            total_work / 108.0
        );
        prop_assert!(w.fleet.device(g).active_kernels() == 0);
    }

    /// Memory accounting: any sequence of alloc/free on contexts keeps
    /// used() equal to the running ledger and never exceeds capacity in
    /// strict mode.
    #[test]
    fn memory_ledger(ops in proptest::collection::vec((0u8..2, 0u64..(40u64 << 30)), 1..60)) {
        let mut d = GpuDevice::new(GpuId(0), GpuSpec::a100_80gb());
        let c = d.create_context(SimTime::ZERO, "p", CtxBinding::Bare).unwrap();
        let mut ledger: u64 = 0;
        for (op, bytes) in ops {
            match op {
                0 => {
                    if d.alloc_memory(SimTime::ZERO, c, bytes).is_ok() {
                        ledger += bytes;
                    }
                }
                _ => {
                    if d.free_memory(SimTime::ZERO, c, bytes).is_ok() {
                        ledger -= bytes;
                    }
                }
            }
            prop_assert_eq!(d.memory_used(), ledger);
            prop_assert!(d.memory_used() <= 80u64 << 30);
        }
    }

    /// Per-domain dirty tracking is a pure strength reduction: any
    /// interleaving of launches, completion sweeps, context
    /// teardown/recreate (the client-fault path) and tagged aborts (a
    /// cancelled attempt) on any device mode must yield byte-identical
    /// per-kernel rate traces with dirty tracking on and off.
    #[test]
    fn dirty_tracking_matches_full_recompute(
        mode_sel in 0usize..5,
        ops in proptest::collection::vec(
            (0u8..4, arb_domain_kernel(), 0usize..4, 1u64..400_000_000u64),
            1..30,
        ),
    ) {
        let incremental = rate_trace(mode_sel, &ops, true);
        let full = rate_trace(mode_sel, &ops, false);
        prop_assert_eq!(incremental, full, "rate traces diverged in mode {}", mode_sel);
    }

    /// MIG placement: any sequence of create/destroy leaves slice
    /// occupancy consistent (free slices + occupied slices = 7).
    #[test]
    fn mig_slice_accounting(ops in proptest::collection::vec((0u8..2, 0usize..5), 1..40)) {
        let profiles = ["1g.10gb", "2g.20gb", "3g.40gb", "4g.40gb", "7g.80gb"];
        let mut d = GpuDevice::new(GpuId(0), GpuSpec::a100_80gb());
        d.set_mode(DeviceMode::Mig).unwrap();
        let mut live: Vec<(u32, u8)> = Vec::new(); // (id, slices)
        for (op, pi) in ops {
            if op == 0 {
                if let Ok(id) = d.mig_create(profiles[pi]) {
                    let g = d.mig.get(id).unwrap().profile.compute_slices;
                    live.push((id, g));
                }
            } else if let Some((id, _)) = live.first().copied() {
                if d.mig_destroy(id).is_ok() {
                    live.remove(0);
                }
            }
            let occupied: u8 = live.iter().map(|(_, g)| *g).sum();
            prop_assert_eq!(d.mig.free_slices() + occupied, 7);
        }
    }

    /// Observing never perturbs: reading a time-shared device through
    /// the read barrier (`sync`) replays rotation ticks without
    /// integrating past them, so a run probed every 3 ms completes the
    /// same kernels at the same nanoseconds, and ends with the same
    /// attained-service and utilization bits and cost counters, as the
    /// same run unprobed, which walks most of its chain as whole turns.
    /// With 2–4 contexts, dirty tracking on or off, and an optional
    /// slowdown window.
    #[test]
    fn observing_never_perturbs_time_sharing(run in arb_ts_run()) {
        let (quiet, (_, turns)) = observed_run(&run, false);
        let (probed, _) = observed_run(&run, true);
        prop_assert!(turns > 0, "the unprobed run walked no whole turn");
        prop_assert_eq!(quiet, probed, "a read-barrier probe changed the run");
    }
}
