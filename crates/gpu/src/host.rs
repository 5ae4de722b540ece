//! Engine glue: turning [`GpuDevice`] state machines into discrete events.
//!
//! Any simulation world that owns GPUs implements [`GpuHost`]; the free
//! functions here ([`launch_kernel`], [`resync`]) keep exactly one pending
//! wake event armed per device and deliver completions through
//! [`GpuHost::on_kernel_done`].
//!
//! A device's wake tick re-arms it once, after every completion handler
//! has run: while the tick delivers completions, a `resync` of that
//! device (including the one inside a handler's [`launch_kernel`])
//! returns at once. Deferring is exact: a re-arm made inside the tick
//! would be cancelled by the tick's trailing `resync` before any event
//! could fire, and the trailing `resync` schedules the live wake at the
//! same point either way, so every live event keeps its `(time, seq)`
//! order. Resyncs of other devices are untouched.
//!
//! A time-shared device is woken only for completions. Its quantum ends
//! and switch ends that complete nothing are ticks of a chain the device
//! replays itself when it is next touched or read
//! ([`GpuDevice::sync`]); `resync` re-bases that chain at `now` and arms
//! the first tick that delivers a completion (`GpuDevice::rearm`). Both
//! walk the chain the same way, mostly in whole quantum/switch turns
//! (the device module docs).
//! The armed wake therefore stays exact only if every direct device
//! mutation is followed by a `resync` of that device at the same
//! instant, which this module has always required. Debug builds assert
//! that every time-sharing wake delivers a completion, except a wake at
//! the last tick a capped prediction reached, which runs as an ordinary
//! tick.

use crate::device::{CtxId, GpuDevice, GpuId, KernelDone, KernelId};
use crate::error::Result;
use crate::kernel::KernelDesc;
use crate::mig;
use crate::spec::GpuSpec;
use parfait_simcore::Engine;

/// The machine's set of GPUs.
#[derive(Debug, Default)]
pub struct GpuFleet {
    devices: Vec<GpuDevice>,
}

impl GpuFleet {
    /// Empty fleet.
    pub fn new() -> Self {
        GpuFleet::default()
    }

    /// Install a device; returns its fleet id.
    pub fn add(&mut self, spec: GpuSpec) -> GpuId {
        let id = GpuId(self.devices.len() as u32);
        self.devices.push(GpuDevice::new(id, spec));
        id
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the fleet has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Borrow a device.
    pub fn device(&self, id: GpuId) -> &GpuDevice {
        &self.devices[id.0 as usize]
    }

    /// Borrow a device mutably.
    pub fn device_mut(&mut self, id: GpuId) -> &mut GpuDevice {
        &mut self.devices[id.0 as usize]
    }

    /// Iterate devices.
    pub fn iter(&self) -> impl Iterator<Item = &GpuDevice> {
        self.devices.iter()
    }

    /// The device holding the MIG instance `uuid`: the one the uuid
    /// names ([`mig::uuid_gpu`]), if it holds it.
    pub fn mig_device(&self, uuid: &str) -> Option<GpuId> {
        mig::uuid_gpu(uuid).filter(|g| {
            self.devices
                .get(g.0 as usize)
                .is_some_and(|d| d.mig.by_uuid(uuid).is_some())
        })
    }

    /// Toggle per-domain dirty tracking on every device (see
    /// [`GpuDevice::set_dirty_tracking`]).
    pub fn set_dirty_tracking(&mut self, on: bool) {
        for d in &mut self.devices {
            d.set_dirty_tracking(on);
        }
    }

    /// Fleet-wide deterministic cost counters: summed `(recompute
    /// calls, dirty domains re-derived, clean domains skipped)`.
    pub fn cost_counters(&self) -> (u64, u64, u64) {
        let mut total = (0, 0, 0);
        for d in &self.devices {
            let (c, v, s) = d.cost_counters();
            total.0 += c;
            total.1 += v;
            total.2 += s;
        }
        total
    }
}

/// A simulation world that owns a [`GpuFleet`].
pub trait GpuHost: Sized + 'static {
    /// Access the fleet.
    fn fleet_mut(&mut self) -> &mut GpuFleet;
    /// A kernel completed. Handlers may launch further kernels, allocate
    /// memory, destroy contexts — any device mutation is legal here.
    fn on_kernel_done(&mut self, eng: &mut Engine<Self>, done: KernelDone);
}

/// Launch a kernel and (re)arm the device's wake event.
pub fn launch_kernel<W: GpuHost>(
    world: &mut W,
    eng: &mut Engine<W>,
    gpu: GpuId,
    ctx: CtxId,
    desc: KernelDesc,
    tag: u64,
) -> Result<KernelId> {
    let now = eng.now();
    let id = world
        .fleet_mut()
        .device_mut(gpu)
        .launch(now, ctx, desc, tag)?;
    resync(world, eng, gpu);
    Ok(id)
}

/// Re-arm the single pending wake event for `gpu` after any state change
/// made directly on the device (context churn, memory ops, mode changes).
/// Inside the device's own wake tick this is deferred to the tick's end.
pub fn resync<W: GpuHost>(world: &mut W, eng: &mut Engine<W>, gpu: GpuId) {
    let now = eng.now();
    let dev = world.fleet_mut().device_mut(gpu);
    if dev.ticking() {
        return;
    }
    if let Some(ev) = dev.take_pending_event() {
        eng.cancel(ev);
    }
    if let Some(at) = dev.rearm(now) {
        let ev = eng.schedule_at(at, move |w: &mut W, e| tick(w, e, gpu));
        world.fleet_mut().device_mut(gpu).set_pending_event(ev);
    }
}

/// Wake handler: pop completions, deliver them, re-arm once.
fn tick<W: GpuHost>(world: &mut W, eng: &mut Engine<W>, gpu: GpuId) {
    // The wake that fired is spent; resyncs of this device wait for the
    // re-arm below.
    let dev = world.fleet_mut().device_mut(gpu);
    dev.set_ticking(true);
    let done = dev.collect_finished(eng.now());
    debug_assert!(
        !done.is_empty() || !dev.wake_completes(),
        "time-sharing wake of gpu {} at {} delivered no completion",
        gpu.0,
        eng.now()
    );
    for d in done {
        world.on_kernel_done(eng, d);
    }
    world.fleet_mut().device_mut(gpu).set_ticking(false);
    resync(world, eng, gpu);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharing::{CtxBinding, DeviceMode};
    use parfait_simcore::SimTime;

    struct World {
        fleet: GpuFleet,
        completions: Vec<(u64, SimTime)>,
        chain: u64,
        chain_ctx: Option<CtxId>,
        /// Tags whose completion destroys the kernel's own context.
        destroy_on: Vec<u64>,
        /// `(tag, gpu)`: the tag's completion launches tag + 1 on `gpu`.
        launch_on: Vec<(u64, GpuId)>,
    }

    impl World {
        fn new(fleet: GpuFleet) -> Self {
            World {
                fleet,
                completions: Vec::new(),
                chain: 0,
                chain_ctx: None,
                destroy_on: Vec::new(),
                launch_on: Vec::new(),
            }
        }
    }

    impl GpuHost for World {
        fn fleet_mut(&mut self) -> &mut GpuFleet {
            &mut self.fleet
        }
        fn on_kernel_done(&mut self, eng: &mut Engine<Self>, done: KernelDone) {
            self.completions.push((done.tag, done.finished));
            if self.destroy_on.contains(&done.tag) {
                let now = eng.now();
                self.fleet
                    .device_mut(done.gpu)
                    .destroy_context(now, done.ctx)
                    .unwrap();
                resync(self, eng, done.gpu);
            }
            if let Some(&(_, gpu)) = self.launch_on.iter().find(|l| l.0 == done.tag) {
                let ctx = self.fleet.device(gpu).contexts().next().unwrap().id;
                launch_kernel(
                    self,
                    eng,
                    gpu,
                    ctx,
                    KernelDesc::new("hop", 21.6, 75_600, 75_600, 0.0),
                    done.tag + 1,
                )
                .unwrap();
            }
            if self.chain > 0 {
                self.chain -= 1;
                let ctx = self.chain_ctx.expect("chain ctx");
                let next_tag = done.tag + 1;
                launch_kernel(
                    self,
                    eng,
                    done.gpu,
                    ctx,
                    KernelDesc::new("chain", 10.8, 75_600, 75_600, 0.0),
                    next_tag,
                )
                .unwrap();
            }
        }
    }

    fn world(mode: DeviceMode) -> (World, Engine<World>, GpuId, CtxId) {
        let mut fleet = GpuFleet::new();
        let gpu = fleet.add(GpuSpec::a100_80gb());
        {
            let d = fleet.device_mut(gpu);
            if matches!(mode, DeviceMode::MpsDefault | DeviceMode::MpsPartitioned) {
                d.mps.start();
            }
            d.set_mode(mode).unwrap();
        }
        let ctx = fleet
            .device_mut(gpu)
            .create_context(SimTime::ZERO, "w0", CtxBinding::Bare)
            .unwrap();
        (World::new(fleet), Engine::new(), gpu, ctx)
    }

    /// Every device with work has exactly one armed wake, every idle
    /// device none, and the engine holds nothing else.
    fn assert_one_wake_per_busy_device(w: &mut World, eng: &Engine<World>) {
        let now = eng.now();
        let mut armed = 0;
        for g in 0..w.fleet.len() as u32 {
            let d = w.fleet.device_mut(GpuId(g));
            let ev = d.take_pending_event();
            assert_eq!(ev.is_some(), d.next_wake(now).is_some(), "gpu {g} at {now}");
            if let Some(ev) = ev {
                d.set_pending_event(ev);
                armed += 1;
            }
        }
        assert_eq!(eng.pending(), armed, "only device wakes are scheduled");
    }

    #[test]
    fn mig_uuid_resolves_on_its_named_device() {
        let mut fleet = GpuFleet::new();
        for _ in 0..3 {
            let g = fleet.add(GpuSpec::a100_80gb());
            fleet.device_mut(g).set_mode(DeviceMode::Mig).unwrap();
        }
        let i = fleet.device_mut(GpuId(2)).mig_create("3g.40gb").unwrap();
        let uuid = fleet.device(GpuId(2)).mig.get(i).unwrap().uuid.clone();
        assert_eq!(fleet.mig_device(&uuid), Some(GpuId(2)));
        fleet.device_mut(GpuId(2)).mig_destroy(i).unwrap();
        assert_eq!(fleet.mig_device(&uuid), None, "destroyed");
        assert_eq!(
            fleet.mig_device("MIG-GPU7-0-3g.40gb"),
            None,
            "beyond the fleet"
        );
        assert_eq!(fleet.mig_device("GPU-unnamed"), None);
    }

    #[test]
    fn end_to_end_single_kernel() {
        let (mut w, mut eng, gpu, ctx) = world(DeviceMode::TimeSharing);
        launch_kernel(
            &mut w,
            &mut eng,
            gpu,
            ctx,
            KernelDesc::new("k", 54.0, 75_600, 75_600, 0.0),
            42,
        )
        .unwrap();
        eng.run(&mut w);
        assert_eq!(w.completions.len(), 1);
        let (tag, at) = w.completions[0];
        assert_eq!(tag, 42);
        assert!(
            (at.as_secs_f64() - 0.5).abs() < 1e-6,
            "54/108 SMs = 0.5 s, got {at}"
        );
    }

    #[test]
    fn chained_launches_from_completion_handler() {
        let (mut w, mut eng, gpu, ctx) = world(DeviceMode::TimeSharing);
        w.chain = 4;
        w.chain_ctx = Some(ctx);
        launch_kernel(
            &mut w,
            &mut eng,
            gpu,
            ctx,
            KernelDesc::new("chain", 10.8, 75_600, 75_600, 0.0),
            0,
        )
        .unwrap();
        while w.completions.len() < 5 {
            assert_eq!(eng.pending(), 1, "one armed wake while work remains");
            assert!(eng.step(&mut w));
        }
        assert_eq!(eng.pending(), 0);
        let tags: Vec<u64> = w.completions.iter().map(|c| c.0).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
        let last = w.completions.last().unwrap().1;
        assert!(
            (last.as_secs_f64() - 0.5).abs() < 1e-5,
            "5 × 0.1 s, got {last}"
        );
        // One wake per kernel: the tick re-arms once, after the handler's
        // relaunch, instead of once inside `launch_kernel` and again at
        // the end of the tick.
        assert_eq!(eng.heap_pushes(), 5);
    }

    #[test]
    fn handlers_that_destroy_or_hop_devices_leave_one_wake_each() {
        let mut fleet = GpuFleet::new();
        let g0 = fleet.add(GpuSpec::a100_80gb());
        let g1 = fleet.add(GpuSpec::a100_80gb());
        let d0 = fleet.device_mut(g0);
        d0.mps.start();
        d0.set_mode(DeviceMode::MpsDefault).unwrap();
        let own = d0
            .create_context(SimTime::ZERO, "own", CtxBinding::Bare)
            .unwrap();
        let other = d0
            .create_context(SimTime::ZERO, "other", CtxBinding::Bare)
            .unwrap();
        fleet
            .device_mut(g1)
            .create_context(SimTime::ZERO, "remote", CtxBinding::Bare)
            .unwrap();
        let mut w = World::new(fleet);
        // Tag 1 finishing destroys its own context, aborting tag 2 on the
        // ticking device; tag 3 finishing launches tag 4 on the other GPU.
        w.destroy_on.push(1);
        w.launch_on.push((3, g1));
        let mut eng = Engine::new();
        let launches = [
            (own, KernelDesc::new("short", 2.0, 20, 20, 0.0), 1),
            (own, KernelDesc::new("aborted", 500.0, 40, 40, 0.0), 2),
            (other, KernelDesc::new("long", 8.0, 40, 40, 0.3), 3),
        ];
        for (ctx, desc, tag) in launches {
            launch_kernel(&mut w, &mut eng, g0, ctx, desc, tag).unwrap();
            assert_one_wake_per_busy_device(&mut w, &eng);
        }
        while eng.step(&mut w) {
            assert_one_wake_per_busy_device(&mut w, &eng);
        }
        assert_eq!(w.fleet.device(g0).context_count(), 1);
        let got: Vec<(u64, u64)> = w
            .completions
            .iter()
            .map(|&(tag, at)| (tag, at.as_nanos()))
            .collect();
        assert_eq!(
            got,
            vec![(1, 100_000_001), (3, 200_000_001), (4, 400_000_002)]
        );
    }

    #[test]
    fn concurrent_kernels_two_devices() {
        let mut fleet = GpuFleet::new();
        let g0 = fleet.add(GpuSpec::a100_40gb());
        let g1 = fleet.add(GpuSpec::a100_40gb());
        let c0 = fleet
            .device_mut(g0)
            .create_context(SimTime::ZERO, "a", CtxBinding::Bare)
            .unwrap();
        let c1 = fleet
            .device_mut(g1)
            .create_context(SimTime::ZERO, "b", CtxBinding::Bare)
            .unwrap();
        let mut w = World::new(fleet);
        let mut eng = Engine::new();
        launch_kernel(
            &mut w,
            &mut eng,
            g0,
            c0,
            KernelDesc::new("k0", 108.0, 75_600, 75_600, 0.0),
            0,
        )
        .unwrap();
        launch_kernel(
            &mut w,
            &mut eng,
            g1,
            c1,
            KernelDesc::new("k1", 108.0, 75_600, 75_600, 0.0),
            1,
        )
        .unwrap();
        eng.run(&mut w);
        assert_eq!(w.completions.len(), 2);
        // Both finish at ~1 s — devices are independent.
        for (_, at) in &w.completions {
            assert!((at.as_secs_f64() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn resync_is_idempotent() {
        let (mut w, mut eng, gpu, ctx) = world(DeviceMode::TimeSharing);
        launch_kernel(
            &mut w,
            &mut eng,
            gpu,
            ctx,
            KernelDesc::new("k", 10.8, 75_600, 75_600, 0.0),
            0,
        )
        .unwrap();
        for _ in 0..5 {
            resync(&mut w, &mut eng, gpu);
        }
        assert_eq!(eng.pending(), 1, "exactly one armed wake event");
        eng.run(&mut w);
        assert_eq!(w.completions.len(), 1);
    }

    #[test]
    fn timeshared_latency_stretches_with_coresidents() {
        // The Fig. 5 phenomenon in miniature: a fixed kernel takes ~n×
        // longer when n equal processes time-share the GPU.
        let run = |n: usize| -> f64 {
            let mut fleet = GpuFleet::new();
            let gpu = fleet.add(GpuSpec::a100_80gb());
            let ctxs: Vec<CtxId> = (0..n)
                .map(|i| {
                    fleet
                        .device_mut(gpu)
                        .create_context(SimTime::ZERO, &format!("p{i}"), CtxBinding::Bare)
                        .unwrap()
                })
                .collect();
            let mut w = World::new(fleet);
            let mut eng = Engine::new();
            for (i, &c) in ctxs.iter().enumerate() {
                launch_kernel(
                    &mut w,
                    &mut eng,
                    gpu,
                    c,
                    KernelDesc::new("k", 108.0, 75_600, 75_600, 0.0),
                    i as u64,
                )
                .unwrap();
            }
            eng.run(&mut w);
            w.completions
                .iter()
                .map(|(_, at)| at.as_secs_f64())
                .fold(0.0, f64::max)
                / w.completions.len() as f64
                * w.completions.len() as f64 // makespan
        };
        let t1 = run(1);
        let t4 = run(4);
        assert!(t4 / t1 > 3.9, "t1={t1} t4={t4}");
        assert!(t4 / t1 < 4.3, "switch overhead too large: t1={t1} t4={t4}");
    }
}
