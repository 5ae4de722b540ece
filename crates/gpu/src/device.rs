//! The simulated GPU device: contexts, kernel execution, SM arbitration.
//!
//! [`GpuDevice`] is a *passive* state machine over virtual time. The owner
//! calls [`GpuDevice::launch`], [`GpuDevice::collect_finished`] and
//! [`GpuDevice::next_wake`]; the engine glue in [`crate::host`] turns those
//! into discrete events.
//!
//! ## Execution model
//!
//! Between events every active kernel `k` progresses at a constant rate
//! `rate_k` (effective SMs). Rates are recomputed on every change (launch,
//! completion, context churn, time-sharing rotation) in three steps:
//!
//! 1. **SM shares** — each context gets at most its cap (MPS percentage,
//!    MIG instance size, vGPU slot, or the whole device); kernels inside a
//!    context split the cap proportionally to their block demand; the
//!    domain (device or MIG slice) then scales everyone down if
//!    oversubscribed.
//! 2. **Wave quantization** — shares are pushed through
//!    [`KernelDesc::effective_sms`], producing the staircase that makes
//!    small-grid LLM kernels insensitive to SMs beyond ~20 (Fig. 2).
//! 3. **Bandwidth contention** — aggregate HBM demand above the domain's
//!    bandwidth scales all rates down proportionally. This is what MPS/
//!    time-sharing share (no isolation) and MIG partitions (isolation),
//!    quantifying Table 1's utilization-vs-isolation trade-off.
//!
//! ## Cost per change
//!
//! `launch` copies onto each kernel the rate inputs its context fixes for
//! the kernel's whole life: the arbitration-domain key, the domain's
//! geometry (MIG instance SMs and bandwidth, vGPU slot share, or the whole
//! device) and the context's SM cap. They cannot change while the kernel
//! runs: no API mutates a live context, `set_mode` refuses while contexts
//! exist, `mig_destroy` refuses while a context is bound to the instance,
//! and `destroy_context` and `reset` remove the kernels too. So
//! `recompute` consults no map per kernel or per context, and reads the
//! overcommit flag of the domain's one memory pool once per dirty domain.
//! Per-context sums (demand in `recompute`, attained service in `advance`)
//! live in dense arrays indexed by a context's accounting slot, the lowest
//! slot no live context holds, so they grow with live contexts only.
//!
//! A dirty domain is derived in kid-ascending passes: per-context demand,
//! then shares and the domain total, then wave quantization and bandwidth,
//! then rates. Every f64 sum adds its terms in kid order (a context's
//! demand over its own kernels, the domain totals over all members), the
//! order the reproduction's numbers were recorded with, so rates are
//! bit-identical (`tests/arbitration_regression.rs` pins this for every
//! mode).

use crate::error::{GpuError, Result};
use crate::kernel::KernelDesc;
use crate::memory::MemoryPool;
use crate::mig::MigManager;
use crate::mps::MpsDaemon;
use crate::sharing::{CtxBinding, DeviceMode, TS_QUANTUM, TS_SWITCH_PENALTY};
use crate::spec::{GpuSpec, Vendor};
use parfait_simcore::stats::TimeWeighted;
use parfait_simcore::{EventId, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Fleet-level device index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuId(pub u32);

/// Device-local context (process) id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxId(pub u32);

/// Device-local kernel id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u64);

/// Work left below this many SM-seconds counts as finished (absorbs f64
/// integration error; ≈1 µs of a single SM).
const WORK_EPS: f64 = 1e-6;

/// vGPU mediation efficiency: vGPU multiplexes at VM rather than process
/// level (Table 1), paying hypervisor scheduling overhead on every slot.
const VGPU_SCHED_EFFICIENCY: f64 = 0.88;

/// Completion record handed to [`crate::host::GpuHost::on_kernel_done`].
#[derive(Debug, Clone)]
pub struct KernelDone {
    /// Device the kernel ran on.
    pub gpu: GpuId,
    /// Owning context.
    pub ctx: CtxId,
    /// Kernel id.
    pub kernel: KernelId,
    /// Caller-provided correlation tag.
    pub tag: u64,
    /// Kernel name.
    pub name: &'static str,
    /// Launch time.
    pub launched: SimTime,
    /// Completion time.
    pub finished: SimTime,
}

/// A process's CUDA context on this device.
#[derive(Debug, Clone)]
pub struct GpuContext {
    /// Context id.
    pub id: CtxId,
    /// Process label (worker name) for monitoring.
    pub label: String,
    /// How it was bound at creation.
    pub binding: CtxBinding,
    /// Resolved MIG instance (when `binding` is `MigInstance`).
    pub mig_instance: Option<u32>,
    /// Resolved vGPU slot.
    pub vgpu_slot: Option<u32>,
    /// MPS SM cap percentage.
    pub mps_pct: Option<u32>,
    /// Slot in the device's per-context accounting array; reused after
    /// the context is destroyed.
    acct: u32,
}

#[derive(Debug, Clone)]
struct ActiveKernel {
    /// Monotonic kernel id (never reused, unlike the slab slot).
    kid: u64,
    ctx: u32,
    /// The context's accounting slot ([`GpuContext::acct`]).
    acct: u32,
    /// Arbitration-domain key ([`domain_key`] of the context).
    dom: u32,
    /// Geometry of that domain.
    geom: Dom,
    /// The context's SM cap inside the domain.
    cap: f64,
    desc: KernelDesc,
    remaining: f64,
    rate: f64,
    tag: u64,
    launched: SimTime,
}

/// Slab of in-flight kernels addressed by slot index.
///
/// `order` lists live slots in kernel-id (= launch) ascending order and
/// is what every numeric pass iterates: f64 summation order is part of
/// the reproduction contract (see `arbitration_regression`), and kid
/// order is exactly what the previous `BTreeMap<u64, _>` storage gave.
/// Slots are recycled through a free list, so steady-state launch/
/// complete churn does not grow the slab or allocate.
#[derive(Debug, Default)]
struct KernelSlab {
    slots: Vec<Option<ActiveKernel>>,
    free: Vec<u32>,
    /// Live slots, kid-ascending. Appends stay sorted because kids are
    /// monotonic; removals preserve relative order.
    order: Vec<u32>,
    /// In-flight kernel count per context; keys are exactly the
    /// contexts with work on the device, ascending.
    ctx_counts: BTreeMap<u32, u32>,
}

impl KernelSlab {
    fn len(&self) -> usize {
        self.order.len()
    }

    fn get(&self, slot: u32) -> &ActiveKernel {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    fn get_mut(&mut self, slot: u32) -> &mut ActiveKernel {
        self.slots[slot as usize].as_mut().expect("live slot")
    }

    /// Live kernels in kid-ascending order.
    fn iter(&self) -> impl Iterator<Item = &ActiveKernel> {
        self.order.iter().map(|&s| self.get(s))
    }

    fn insert(&mut self, k: ActiveKernel) -> u32 {
        let ctx = k.ctx;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(k);
                s
            }
            None => {
                self.slots.push(Some(k));
                (self.slots.len() - 1) as u32
            }
        };
        self.order.push(slot);
        *self.ctx_counts.entry(ctx).or_insert(0) += 1;
        slot
    }

    /// Vacate one slot (free list + context count); the caller is
    /// responsible for compacting `order` afterwards.
    fn take_at(&mut self, slot: u32) -> ActiveKernel {
        let k = self.slots[slot as usize].take().expect("live slot");
        self.free.push(slot);
        match self.ctx_counts.get_mut(&k.ctx) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.ctx_counts.remove(&k.ctx);
            }
        }
        k
    }

    /// Drop vacated slots from `order`, preserving relative order.
    fn compact_order(&mut self) {
        let slots = &self.slots;
        self.order.retain(|&s| slots[s as usize].is_some());
    }

    /// Remove every kernel failing `keep`; returns how many went.
    fn retain(&mut self, mut keep: impl FnMut(&ActiveKernel) -> bool) -> usize {
        let mut removed = 0;
        for i in 0..self.order.len() {
            let slot = self.order[i];
            if !keep(self.get(slot)) {
                self.take_at(slot);
                removed += 1;
            }
        }
        if removed > 0 {
            self.compact_order();
        }
        removed
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.order.clear();
        self.ctx_counts.clear();
    }
}

/// Domain key marking kernels parked by time-sharing rotation.
const NO_DOMAIN: u32 = u32::MAX;

/// Arbitration-domain key of a context: MIG instance / vGPU slot index
/// plus one, or 0 for the whole device. In the whole-device modes every
/// kernel shares one domain — MPS interference couples all co-resident
/// contexts, so no finer dirty granularity is sound there (DESIGN.md
/// §10).
fn domain_key(mode: DeviceMode, c: &GpuContext) -> u32 {
    match mode {
        DeviceMode::Mig => 1 + c.mig_instance.expect("mig ctx bound"),
        DeviceMode::Vgpu { .. } => 1 + c.vgpu_slot.expect("vgpu ctx bound"),
        _ => 0,
    }
}

/// SM/bandwidth geometry of an arbitration domain (whole device, MIG
/// instance, or vGPU slot).
#[derive(Debug, Clone, Copy)]
struct Dom {
    sms: f64,
    bw: f64,
}

/// Reusable `recompute` buffers, hoisted onto the device so the
/// per-change rate recomputation allocates nothing in steady state.
/// `share`, `eff` and `dom_of` are parallel to `KernelSlab::order`.
#[derive(Debug, Default)]
struct Scratch {
    /// Provisional SM share per kernel.
    share: Vec<f64>,
    /// Post-wave-quantization effective SMs.
    eff: Vec<f64>,
    /// Arbitration domain key per kernel ([`NO_DOMAIN`] when parked).
    dom_of: Vec<u32>,
    /// Distinct domain keys, ascending.
    domains: Vec<u32>,
    /// Block demand of the domain being processed, summed per context
    /// and indexed by accounting slot ([`UNSEEN`] for contexts with no
    /// kernel there).
    ctx_demand: Vec<f64>,
}

/// `Scratch::ctx_demand` entry of a context with no kernel in the
/// domain being processed (demands are never negative).
const UNSEEN: f64 = -1.0;

/// The simulated GPU.
#[derive(Debug)]
pub struct GpuDevice {
    /// Fleet index of this device.
    pub id: GpuId,
    /// Hardware spec.
    pub spec: GpuSpec,
    mode: DeviceMode,
    /// MPS co-residency interference: with `n` client processes actively
    /// running kernels, every MPS kernel's rate is scaled by
    /// `1 / (1 + mps_interference * (n - 1))` — the L2/scheduler
    /// contention MPS does not isolate (Table 1's "resource starved due
    /// to contention"). Zero (the default) disables the term; the paper
    /// reproduction scenarios use 0.06.
    mps_interference: f64,
    allow_uvm: bool,

    ctxs: BTreeMap<u32, GpuContext>,
    next_ctx: u32,
    kernels: KernelSlab,
    next_kernel: u64,
    /// Slots with `rate > 0`, kid-ascending; rebuilt by `recompute` so
    /// `advance`/`next_wake` never scan stalled kernels.
    running: Vec<u32>,
    scratch: Scratch,

    /// Device-wide memory (used in non-MIG, non-vGPU modes).
    mem: MemoryPool,
    /// Per-MIG-instance memory.
    mig_mem: BTreeMap<u32, MemoryPool>,
    /// Per-vGPU-slot memory.
    vgpu_mem: Vec<MemoryPool>,

    /// MIG instance manager.
    pub mig: MigManager,
    /// MPS control daemon.
    pub mps: MpsDaemon,

    // Time-sharing rotation state.
    ts_current: Option<u32>,
    ts_pending: Option<u32>,
    ts_quantum_end: SimTime,
    ts_switch_end: SimTime,

    /// Cleared by an uncorrectable (ECC/Xid-style) fault; an unhealthy
    /// device refuses new contexts and launches until re-admitted.
    healthy: bool,
    /// Straggler multiplier on every kernel rate (1.0 = nominal). Models
    /// transient slowdowns: thermal throttling, a flaky PCIe link, a
    /// noisy neighbour outside the simulated node.
    slowdown: f64,

    /// Domains whose kernel membership or rate inputs changed since the
    /// last `recompute`; only these are re-derived (the rest keep their
    /// exact previous f64 rates). See DESIGN.md §10 for the invariant.
    /// A small unordered list: it holds at most one entry per domain,
    /// and clearing it keeps its buffer, so marking never allocates in
    /// steady state.
    dirty_domains: Vec<u32>,
    /// Device-wide change (mode, slowdown, UVM, config): every domain is
    /// dirty regardless of the set above.
    all_dirty: bool,
    /// When false `recompute` re-derives every domain (the pre-change
    /// behaviour) while marks stay maintained — A/B cost benchmarking.
    dirty_tracking: bool,
    /// Deterministic cost counters (pure functions of the event
    /// schedule; see the cost ratchet in `repro`).
    recompute_calls: u64,
    domains_visited: u64,
    domains_skipped: u64,

    last: SimTime,
    busy_sms: TimeWeighted,
    kernels_completed: u64,
    /// SM-seconds of service attained per context (DCGM-style
    /// accounting; survives kernel completion, cleared with the
    /// context), indexed by the context's accounting slot.
    attained: Vec<f64>,
    wake: Wake,
}

/// The device's wake event, as kept by [`crate::host`].
#[derive(Debug, Clone, Copy)]
enum Wake {
    /// Nothing scheduled.
    Idle,
    /// A wake event is pending.
    Armed(EventId),
    /// The wake fired and its completions are being delivered; `resync`
    /// defers the re-arm to the end of the tick.
    Ticking,
}

impl GpuDevice {
    /// New device in [`DeviceMode::TimeSharing`] (the NVIDIA default).
    pub fn new(id: GpuId, spec: GpuSpec) -> Self {
        let mem = MemoryPool::new(spec.memory_bytes);
        GpuDevice {
            id,
            spec,
            mode: DeviceMode::TimeSharing,
            mps_interference: 0.0,
            allow_uvm: false,
            ctxs: BTreeMap::new(),
            next_ctx: 0,
            kernels: KernelSlab::default(),
            next_kernel: 0,
            running: Vec::new(),
            scratch: Scratch::default(),
            mem,
            mig_mem: BTreeMap::new(),
            vgpu_mem: Vec::new(),
            mig: MigManager::new(),
            mps: MpsDaemon::new(),
            ts_current: None,
            ts_pending: None,
            ts_quantum_end: SimTime::ZERO,
            ts_switch_end: SimTime::ZERO,
            healthy: true,
            slowdown: 1.0,
            dirty_domains: Vec::new(),
            all_dirty: true,
            dirty_tracking: true,
            recompute_calls: 0,
            domains_visited: 0,
            domains_skipped: 0,
            last: SimTime::ZERO,
            busy_sms: TimeWeighted::new(SimTime::ZERO, 0.0),
            kernels_completed: 0,
            attained: Vec::new(),
            wake: Wake::Idle,
        }
    }

    /// Set the MPS co-residency interference coefficient (see the
    /// field's doc; 0 disables the term).
    pub fn set_mps_interference(&mut self, mps_interference: f64) {
        self.mps_interference = mps_interference;
        self.mark_all_dirty();
    }

    /// Mark one arbitration domain as needing re-derivation.
    #[inline]
    fn mark_domain_dirty(&mut self, dom: u32) {
        if !self.all_dirty && !self.dirty_domains.contains(&dom) {
            self.dirty_domains.push(dom);
        }
    }

    /// Mark every domain dirty (device-wide parameter change).
    #[inline]
    fn mark_all_dirty(&mut self) {
        self.all_dirty = true;
        self.dirty_domains.clear();
    }

    /// Toggle per-domain dirty tracking (default on). Marks are always
    /// maintained; disabling only forces `recompute` to re-derive every
    /// domain — the pre-change behaviour, kept so the fleet benchmark
    /// can measure the optimization against its own baseline.
    pub fn set_dirty_tracking(&mut self, on: bool) {
        self.dirty_tracking = on;
        if !on {
            self.mark_all_dirty();
        }
    }

    /// Deterministic cost counters: `(recompute calls, dirty domains
    /// re-derived, clean domains skipped)`. Pure functions of the event
    /// schedule, reported in the BENCH artifacts and ratcheted in CI.
    pub fn cost_counters(&self) -> (u64, u64, u64) {
        (
            self.recompute_calls,
            self.domains_visited,
            self.domains_skipped,
        )
    }

    /// `(kernel id, current rate)` for every in-flight kernel,
    /// kid-ascending. Test hook for the full-vs-incremental recompute
    /// equivalence property.
    pub fn kernel_rates(&self) -> Vec<(u64, f64)> {
        self.kernels.iter().map(|k| (k.kid, k.rate)).collect()
    }

    /// Enable CUDA unified-memory oversubscription on all memory pools.
    pub fn set_uvm(&mut self, allow: bool) {
        self.allow_uvm = allow;
        self.mark_all_dirty();
        self.mem.set_oversubscription(allow);
        for p in self.mig_mem.values_mut() {
            p.set_oversubscription(allow);
        }
        for p in &mut self.vgpu_mem {
            p.set_oversubscription(allow);
        }
    }

    /// Current mode.
    pub fn mode(&self) -> DeviceMode {
        self.mode
    }

    /// Is the device healthy (no uncorrected fault outstanding)?
    pub fn is_healthy(&self) -> bool {
        self.healthy
    }

    /// Record an uncorrectable (ECC/Xid-style) fault: the device refuses
    /// new contexts and launches until [`GpuDevice::mark_healthy`].
    /// Existing contexts/kernels are untouched — the platform layer is
    /// responsible for tearing down residents (the blast radius).
    pub fn mark_unhealthy(&mut self, now: SimTime) {
        self.advance(now);
        self.healthy = false;
    }

    /// Clear the fault state (driver reload / re-admission).
    pub fn mark_healthy(&mut self) {
        self.healthy = true;
    }

    /// Current straggler rate multiplier (1.0 = nominal).
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Scale every kernel rate by `factor` from `now` on (transient
    /// straggler: thermal throttling, flaky link). `factor` is clamped to
    /// a small positive value; `1.0` restores nominal speed. The owner
    /// should `resync` afterwards.
    pub fn set_slowdown(&mut self, now: SimTime, factor: f64) {
        self.advance(now);
        self.slowdown = factor.max(1e-6);
        self.mark_all_dirty();
        self.recompute(now);
    }

    /// Change the sharing mode. Requires an idle device (no contexts) —
    /// in hardware this is a GPU reset; its *cost* is modelled by the
    /// reconfiguration engine in `parfait-core`.
    pub fn set_mode(&mut self, mode: DeviceMode) -> Result<()> {
        if !self.ctxs.is_empty() {
            return Err(GpuError::DeviceBusy {
                contexts: self.ctxs.len(),
            });
        }
        match mode {
            DeviceMode::Mig => {
                if !self.spec.mig_capable {
                    return Err(GpuError::WrongMode {
                        expected: "MIG-capable device",
                        actual: self.spec.name,
                    });
                }
                self.mig.set_enabled(true)?;
            }
            DeviceMode::Vgpu { slots } => {
                if slots == 0 {
                    return Err(GpuError::BadPercentage(0));
                }
                self.vgpu_mem = self.vgpu_pools(slots);
            }
            DeviceMode::TimeSharing | DeviceMode::MpsDefault | DeviceMode::MpsPartitioned => {
                if self.mig.enabled() {
                    self.mig.destroy_all();
                    self.mig.set_enabled(false)?;
                }
            }
        }
        if !matches!(mode, DeviceMode::Vgpu { .. }) {
            self.vgpu_mem.clear();
        }
        self.mode = mode;
        self.mark_all_dirty();
        Ok(())
    }

    /// `slots` empty, equal vGPU slot pools under the current UVM setting.
    fn vgpu_pools(&self, slots: u32) -> Vec<MemoryPool> {
        let per = self.spec.memory_bytes / slots as u64;
        (0..slots)
            .map(|_| {
                let mut p = MemoryPool::new(per);
                p.set_oversubscription(self.allow_uvm);
                p
            })
            .collect()
    }

    /// Create a MIG instance (device must be in MIG mode).
    pub fn mig_create(&mut self, profile: &str) -> Result<u32> {
        if self.mode != DeviceMode::Mig {
            return Err(GpuError::WrongMode {
                expected: "MIG",
                actual: self.mode.name(),
            });
        }
        let gpu = self.id.0;
        let iid = self.mig.create(&self.spec.clone(), gpu, profile)?;
        let inst = self.mig.get(iid).expect("just created");
        let mut pool = MemoryPool::new(inst.memory_bytes);
        pool.set_oversubscription(self.allow_uvm);
        self.mig_mem.insert(iid, pool);
        self.mark_all_dirty();
        Ok(iid)
    }

    /// Destroy a MIG instance; fails while any context is bound to it.
    pub fn mig_destroy(&mut self, instance: u32) -> Result<()> {
        if self.ctxs.values().any(|c| c.mig_instance == Some(instance)) {
            return Err(GpuError::DeviceBusy {
                contexts: self
                    .ctxs
                    .values()
                    .filter(|c| c.mig_instance == Some(instance))
                    .count(),
            });
        }
        self.mig.destroy(instance)?;
        self.mig_mem.remove(&instance);
        self.mark_all_dirty();
        Ok(())
    }

    /// Live contexts.
    pub fn contexts(&self) -> impl Iterator<Item = &GpuContext> {
        self.ctxs.values()
    }

    /// Context count.
    pub fn context_count(&self) -> usize {
        self.ctxs.len()
    }

    /// Look up a context.
    pub fn context(&self, ctx: CtxId) -> Option<&GpuContext> {
        self.ctxs.get(&ctx.0)
    }

    /// Create a process context with the given binding.
    pub fn create_context(
        &mut self,
        now: SimTime,
        label: &str,
        binding: CtxBinding,
    ) -> Result<CtxId> {
        if !self.healthy {
            return Err(GpuError::Unhealthy);
        }
        let (mig_instance, vgpu_slot, mps_pct) = match (&self.mode, &binding) {
            (DeviceMode::TimeSharing, CtxBinding::Bare) => (None, None, None),
            (DeviceMode::MpsDefault, CtxBinding::Bare) => (None, None, None),
            (DeviceMode::MpsPartitioned, CtxBinding::MpsPercentage(p)) => {
                if !(1..=100).contains(p) {
                    return Err(GpuError::BadPercentage(*p));
                }
                (None, None, Some(*p))
            }
            (DeviceMode::MpsPartitioned, CtxBinding::Bare) => (None, None, None),
            (DeviceMode::Mig, CtxBinding::MigInstance(uuid)) => {
                let inst = self
                    .mig
                    .by_uuid(uuid)
                    .ok_or_else(|| GpuError::MigProfileUnknown(uuid.clone()))?;
                (Some(inst.id), None, None)
            }
            (DeviceMode::Vgpu { slots }, CtxBinding::VgpuSlot(s)) => {
                if *s >= *slots {
                    return Err(GpuError::UnknownInstance(*s));
                }
                (None, Some(*s), None)
            }
            _ => {
                return Err(GpuError::WrongMode {
                    expected: "binding compatible with device mode",
                    actual: self.mode.name(),
                })
            }
        };
        // MPS modes require the control daemon (§4.1: it must be launched
        // on the node before any GPU function runs).
        if matches!(
            self.mode,
            DeviceMode::MpsDefault | DeviceMode::MpsPartitioned
        ) && !self.mps.running()
        {
            return Err(GpuError::WrongMode {
                expected: "MPS daemon running",
                actual: "MPS daemon stopped",
            });
        }
        let id = self.next_ctx;
        self.next_ctx += 1;
        if matches!(
            self.mode,
            DeviceMode::MpsDefault | DeviceMode::MpsPartitioned
        ) {
            self.mps.connect(id, mps_pct)?;
        }
        // The lowest accounting slot no live context holds, so the
        // accounting array grows with live contexts only.
        let acct = (0..self.attained.len() as u32)
            .find(|a| self.ctxs.values().all(|c| c.acct != *a))
            .unwrap_or_else(|| {
                self.attained.push(0.0);
                (self.attained.len() - 1) as u32
            });
        self.attained[acct as usize] = 0.0;
        self.ctxs.insert(
            id,
            GpuContext {
                id: CtxId(id),
                label: label.to_string(),
                binding,
                mig_instance,
                vgpu_slot,
                mps_pct,
                acct,
            },
        );
        self.advance(now);
        self.recompute(now);
        Ok(CtxId(id))
    }

    /// Destroy a context: abort its kernels, free its memory, disconnect
    /// from MPS. Returns the number of aborted kernels.
    pub fn destroy_context(&mut self, now: SimTime, ctx: CtxId) -> Result<usize> {
        let c = self
            .ctxs
            .remove(&ctx.0)
            .ok_or(GpuError::UnknownContext(ctx.0))?;
        self.advance(now);
        // Mark before the ctx map loses the binding: the domain's ctx
        // population (and so MPS interference) changes even when the
        // context had no kernels in flight.
        let dom = domain_key(self.mode, &c);
        self.mark_domain_dirty(dom);
        let aborted = self.kernels.retain(|k| k.ctx != ctx.0);
        self.mem_pool_for(&c).release_owner(ctx.0);
        self.mps.disconnect(ctx.0);
        if self.ts_current == Some(ctx.0) {
            self.ts_current = None;
        }
        if self.ts_pending == Some(ctx.0) {
            self.ts_pending = None;
        }
        self.recompute(now);
        Ok(aborted)
    }

    fn mem_pool_for(&mut self, c: &GpuContext) -> &mut MemoryPool {
        if let Some(i) = c.mig_instance {
            self.mig_mem.get_mut(&i).expect("instance pool exists")
        } else if let Some(s) = c.vgpu_slot {
            &mut self.vgpu_mem[s as usize]
        } else {
            &mut self.mem
        }
    }

    /// Is the memory pool behind arbitration domain `dom` overcommitted?
    /// Each domain has exactly one pool: the MIG instance's, the vGPU
    /// slot's, or the device-wide one.
    fn domain_overcommitted(&self, dom: u32) -> bool {
        match self.mode {
            DeviceMode::Mig => self
                .mig_mem
                .get(&(dom - 1))
                .is_some_and(|p| p.overcommitted()),
            DeviceMode::Vgpu { .. } => self.vgpu_mem[(dom - 1) as usize].overcommitted(),
            _ => self.mem.overcommitted(),
        }
    }

    /// Allocate device memory on behalf of `ctx`.
    pub fn alloc_memory(&mut self, ctx: CtxId, bytes: u64) -> Result<()> {
        let c = self
            .ctxs
            .get(&ctx.0)
            .ok_or(GpuError::UnknownContext(ctx.0))?
            .clone();
        self.mem_pool_for(&c).alloc(ctx.0, bytes)?;
        // UVM overcommit state may have flipped; the *next* recompute
        // re-derives the domain (memory ops never recompute directly,
        // matching the pre-change deferred semantics).
        let dom = domain_key(self.mode, &c);
        self.mark_domain_dirty(dom);
        Ok(())
    }

    /// Free device memory held by `ctx`.
    pub fn free_memory(&mut self, ctx: CtxId, bytes: u64) -> Result<()> {
        let c = self
            .ctxs
            .get(&ctx.0)
            .ok_or(GpuError::UnknownContext(ctx.0))?
            .clone();
        self.mem_pool_for(&c).freeb(ctx.0, bytes)?;
        let dom = domain_key(self.mode, &c);
        self.mark_domain_dirty(dom);
        Ok(())
    }

    /// Reserve device-wide memory for the GPU-resident model weight cache
    /// (the paper's §7 future-work apparatus). Cache memory belongs to no
    /// process context and survives context teardown.
    pub fn cache_alloc(&mut self, bytes: u64) -> Result<()> {
        self.mem.alloc(Self::CACHE_OWNER, bytes)?;
        // The cache lives in the device-wide pool, whose overcommit
        // state feeds every whole-device domain; rare op, so be blunt.
        self.mark_all_dirty();
        Ok(())
    }

    /// Release weight-cache memory.
    pub fn cache_free(&mut self, bytes: u64) -> Result<()> {
        self.mem.freeb(Self::CACHE_OWNER, bytes)?;
        self.mark_all_dirty();
        Ok(())
    }

    /// Bytes currently pinned by the weight cache.
    pub fn cache_used(&self) -> u64 {
        self.mem.owner_usage(Self::CACHE_OWNER)
    }

    /// Synthetic owner id for cache allocations.
    const CACHE_OWNER: u32 = u32::MAX;

    /// Bytes used across all memory domains.
    pub fn memory_used(&self) -> u64 {
        self.mem.used()
            + self.mig_mem.values().map(|p| p.used()).sum::<u64>()
            + self.vgpu_mem.iter().map(|p| p.used()).sum::<u64>()
    }

    /// Device-wide memory pool (non-MIG/vGPU domains).
    pub fn memory(&self) -> &MemoryPool {
        &self.mem
    }

    /// Memory pool of one MIG instance.
    pub fn mig_memory(&self, instance: u32) -> Option<&MemoryPool> {
        self.mig_mem.get(&instance)
    }

    /// Launch a kernel for `ctx`. `tag` is echoed in the completion.
    pub fn launch(
        &mut self,
        now: SimTime,
        ctx: CtxId,
        desc: KernelDesc,
        tag: u64,
    ) -> Result<KernelId> {
        if !self.healthy {
            return Err(GpuError::Unhealthy);
        }
        let c = self
            .ctxs
            .get(&ctx.0)
            .ok_or(GpuError::UnknownContext(ctx.0))?;
        // Rate inputs fixed for the kernel's whole life (module docs).
        let acct = c.acct;
        let dom = domain_key(self.mode, c);
        let geom = match self.mode {
            DeviceMode::Mig => {
                let inst = self
                    .mig
                    .get(c.mig_instance.expect("mig ctx bound"))
                    .expect("instance exists");
                Dom {
                    sms: inst.sms as f64,
                    bw: inst.bandwidth_fraction,
                }
            }
            DeviceMode::Vgpu { slots } => Dom {
                sms: self.spec.sms as f64 / slots as f64,
                bw: 1.0 / slots as f64,
            },
            _ => Dom {
                sms: self.spec.sms as f64,
                bw: 1.0,
            },
        };
        let cap = match (self.mode, c.mps_pct) {
            (DeviceMode::MpsPartitioned, Some(p)) => {
                (self.spec.sms as f64 * p as f64 / 100.0).min(geom.sms)
            }
            _ => geom.sms,
        };
        self.advance(now);
        let id = self.next_kernel;
        self.next_kernel += 1;
        let slot = self.kernels.insert(ActiveKernel {
            kid: id,
            ctx: ctx.0,
            acct,
            dom,
            geom,
            cap,
            desc,
            remaining: 0.0,
            rate: 0.0,
            tag,
            launched: now,
        });
        // remaining initialised after insert so zero-work kernels still
        // complete through the normal path.
        let k = self.kernels.get_mut(slot);
        k.remaining = k.desc.work_sm_s.max(0.0);
        self.mark_domain_dirty(dom);
        self.recompute(now);
        Ok(KernelId(id))
    }

    /// Abort every in-flight kernel carrying `tag` (a cancelled
    /// attempt's launches). Returns how many were removed. The owner should
    /// `resync` afterwards.
    pub fn abort_tagged(&mut self, now: SimTime, tag: u64) -> usize {
        self.advance(now);
        let mut dirty: Vec<u32> = Vec::new();
        let removed = self.kernels.retain(|k| {
            if k.tag == tag {
                dirty.push(k.dom);
                false
            } else {
                true
            }
        });
        for dom in dirty {
            self.mark_domain_dirty(dom);
        }
        if removed > 0 {
            self.recompute(now);
        }
        removed
    }

    /// Number of in-flight kernels.
    pub fn active_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Lifetime completed-kernel count.
    pub fn kernels_completed(&self) -> u64 {
        self.kernels_completed
    }

    /// Instantaneous busy SMs (sum of kernel rates).
    pub fn busy_sms(&self) -> f64 {
        self.busy_sms.current()
    }

    /// Instantaneous busy SMs of one context's kernels.
    pub fn ctx_busy_sms(&self, ctx: CtxId) -> f64 {
        self.kernels
            .iter()
            .filter(|k| k.ctx == ctx.0)
            .map(|k| k.rate)
            .sum()
    }

    /// Bytes of device memory held by one context (its memory domain's
    /// per-owner ledger).
    pub fn ctx_memory_used(&self, ctx: CtxId) -> u64 {
        let Some(c) = self.ctxs.get(&ctx.0) else {
            return 0;
        };
        if let Some(i) = c.mig_instance {
            self.mig_mem
                .get(&i)
                .map(|p| p.owner_usage(ctx.0))
                .unwrap_or(0)
        } else if let Some(sl) = c.vgpu_slot {
            self.vgpu_mem[sl as usize].owner_usage(ctx.0)
        } else {
            self.mem.owner_usage(ctx.0)
        }
    }

    /// Time-averaged SM utilization in `[0,1]` since device creation.
    pub fn average_utilization(&self, now: SimTime) -> f64 {
        self.busy_sms.average(now) / self.spec.sms as f64
    }

    /// Integrate kernel progress up to `now`. Only the `running` list
    /// (kernels with a positive rate, kid-ascending) is walked — stalled
    /// kernels cannot make progress, so skipping them is exact.
    pub fn advance(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last).as_secs_f64();
        if dt > 0.0 {
            for i in 0..self.running.len() {
                let k = self.kernels.get_mut(self.running[i]);
                if k.rate > 0.0 {
                    let served = (k.rate * dt).min(k.remaining);
                    k.remaining -= served;
                    self.attained[k.acct as usize] += served;
                }
            }
        }
        self.last = now;
    }

    /// SM-seconds of service a context has attained (DCGM-style
    /// accounting). Quantifies Table 1's "resource starved due to
    /// contention" drawback of default MPS: compare attained service
    /// across tenants.
    pub fn attained_service(&self, ctx: CtxId) -> f64 {
        self.ctxs
            .get(&ctx.0)
            .map_or(0.0, |c| self.attained[c.acct as usize])
    }

    /// Time-sharing rotation bookkeeping; called from `recompute`. The
    /// active-context set is read straight off the slab's incrementally
    /// maintained per-context counts — no per-call collect/sort/dedup.
    fn ts_housekeeping(&mut self, now: SimTime) {
        // Complete an in-flight switch.
        if self.ts_pending.is_some() && now >= self.ts_switch_end {
            self.ts_current = self.ts_pending.take();
            self.ts_quantum_end = now + TS_QUANTUM;
        }
        if self.ts_pending.is_some() {
            return; // mid-switch: nothing runs
        }
        let active = &self.kernels.ctx_counts;
        let Some(&first) = active.keys().next() else {
            return;
        };
        let current_active = self
            .ts_current
            .map(|c| active.contains_key(&c))
            .unwrap_or(false);
        let next_after = |cur: Option<u32>| -> u32 {
            match cur {
                Some(c) => active
                    .range((Bound::Excluded(c), Bound::Unbounded))
                    .next()
                    .map(|(&a, _)| a)
                    .unwrap_or(first),
                None => first,
            }
        };
        if !current_active {
            let nxt = next_after(self.ts_current);
            if self.ts_current.is_none() {
                // GPU was idle: adopt immediately, no switch cost.
                self.ts_current = Some(nxt);
                self.ts_quantum_end = now + TS_QUANTUM;
            } else {
                // Current process went host-side; rotate with penalty.
                self.ts_pending = Some(nxt);
                self.ts_switch_end = now + TS_SWITCH_PENALTY;
                self.ts_current = None;
            }
        } else if now >= self.ts_quantum_end {
            if active.len() >= 2 {
                let nxt = next_after(self.ts_current);
                self.ts_pending = Some(nxt);
                self.ts_switch_end = now + TS_SWITCH_PENALTY;
                self.ts_current = None;
            } else {
                self.ts_quantum_end = now + TS_QUANTUM;
            }
        }
    }

    /// Recompute all kernel rates for the regime starting at `now`.
    /// Callers must have `advance`d to `now` first.
    ///
    /// Allocation-free in steady state: every buffer lives in
    /// [`Scratch`] and is reused across calls. No map is consulted per
    /// kernel or per context: each kernel carries its domain key,
    /// geometry and context cap from `launch`, and the pool overcommit
    /// flag is read once per dirty domain.
    ///
    /// Every f64 accumulation iterates kernels in kid-ascending order
    /// (via `KernelSlab::order`), which reproduces the summation order of
    /// the previous `BTreeMap`-based implementation bit for bit — the
    /// `arbitration_regression` test pins this down. That includes each
    /// context's demand total, summed over its own kernels in kid order.
    ///
    /// With dirty tracking on, only domains marked since the previous
    /// call are re-derived; every kernel in a clean domain keeps its
    /// exact previous f64 rate, so the final summation below is
    /// bit-identical to a full re-derivation (the clean inputs have not
    /// changed, and f64 arithmetic is deterministic).
    pub fn recompute(&mut self, now: SimTime) {
        self.recompute_calls += 1;
        if self.mode == DeviceMode::TimeSharing {
            // A rotation re-partitions kernels between domain 0 and the
            // parked set, so it dirties the whole-device domain.
            let before = (self.ts_current, self.ts_pending);
            self.ts_housekeeping(now);
            if (self.ts_current, self.ts_pending) != before {
                self.mark_domain_dirty(0);
            }
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let n = self.kernels.len();
        scratch.share.clear();
        scratch.share.resize(n, 0.0);
        scratch.eff.clear();
        scratch.eff.resize(n, 0.0);
        scratch.dom_of.clear();
        scratch.domains.clear();

        let ts_parks = self.mode == DeviceMode::TimeSharing;
        for p in 0..n {
            let k = self.kernels.get_mut(self.kernels.order[p]);
            // Time-sharing: only the current context's kernels run.
            if ts_parks && Some(k.ctx) != self.ts_current {
                k.rate = 0.0;
                scratch.dom_of.push(NO_DOMAIN);
                continue;
            }
            // Kernels in clean domains keep their previous rate; dirty
            // domains overwrite every member below.
            scratch.dom_of.push(k.dom);
            if scratch.domains.last() != Some(&k.dom) {
                scratch.domains.push(k.dom);
            }
        }
        scratch.domains.sort_unstable();
        scratch.domains.dedup();

        let mps_mode = matches!(
            self.mode,
            DeviceMode::MpsDefault | DeviceMode::MpsPartitioned
        );
        for di in 0..scratch.domains.len() {
            let dom_key = scratch.domains[di];
            if self.dirty_tracking && !self.all_dirty && !self.dirty_domains.contains(&dom_key) {
                // Clean domain: no membership or rate-input change since
                // the last recompute; its kernels keep their rates.
                self.domains_skipped += 1;
                continue;
            }
            self.domains_visited += 1;
            // Per-context block demand, one kid-ordered pass; a context's
            // first kernel sets its total (the `0.0 + d` of a fresh sum).
            // Every member carries the same domain geometry.
            scratch.ctx_demand.clear();
            scratch.ctx_demand.resize(self.attained.len(), UNSEEN);
            let mut ctxs_in_dom = 0usize;
            let mut dom = Dom { sms: 0.0, bw: 0.0 };
            for p in 0..n {
                if scratch.dom_of[p] == dom_key {
                    let k = self.kernels.get(self.kernels.order[p]);
                    dom = k.geom;
                    let d = k.desc.peak_parallelism() as f64;
                    let total = &mut scratch.ctx_demand[k.acct as usize];
                    if *total == UNSEEN {
                        ctxs_in_dom += 1;
                        *total = d;
                    } else {
                        *total += d;
                    }
                }
            }
            // MPS co-residency interference (L2/scheduler contention).
            let mut interference = if mps_mode && self.mps_interference > 0.0 {
                1.0 / (1.0 + self.mps_interference * (ctxs_in_dom.saturating_sub(1)) as f64)
            } else {
                1.0
            };
            if matches!(self.mode, DeviceMode::Vgpu { .. }) {
                interference *= VGPU_SCHED_EFFICIENCY;
            }
            // Provisional shares: each context's kernels split its cap in
            // proportion to their demand. Then domain-wide overload.
            let mut total = 0.0;
            for p in 0..n {
                if scratch.dom_of[p] == dom_key {
                    let k = self.kernels.get(self.kernels.order[p]);
                    let d = k.desc.peak_parallelism() as f64;
                    let ctx_total = scratch.ctx_demand[k.acct as usize];
                    let share = if ctx_total > k.cap {
                        d * k.cap / ctx_total
                    } else {
                        d
                    };
                    scratch.share[p] = share;
                    total += share;
                }
            }
            let scale = if total > dom.sms {
                dom.sms / total
            } else {
                1.0
            };
            // Wave quantization + bandwidth.
            let mut bw_total = 0.0;
            for p in 0..n {
                if scratch.dom_of[p] == dom_key {
                    let desc = &self.kernels.get(self.kernels.order[p]).desc;
                    let eff = desc.effective_sms(scratch.share[p] * scale);
                    bw_total += desc.bandwidth_demand(eff);
                    scratch.eff[p] = eff;
                }
            }
            let bw_scale = if bw_total > dom.bw {
                dom.bw / bw_total
            } else {
                1.0
            };
            let uvm_penalty = self.domain_overcommitted(dom_key);
            for p in 0..n {
                if scratch.dom_of[p] == dom_key {
                    let mut rate = scratch.eff[p] * bw_scale * interference;
                    if uvm_penalty {
                        rate *= self.spec.uvm_penalty;
                    }
                    // Gated so the nominal case multiplies by nothing and
                    // the arbitration bit-stream is untouched.
                    if self.slowdown != 1.0 {
                        rate *= self.slowdown;
                    }
                    self.kernels.get_mut(self.kernels.order[p]).rate = rate;
                }
            }
        }

        // Sum busy SMs and rebuild the running list, both kid-ascending.
        let mut busy = 0.0;
        self.running.clear();
        for p in 0..n {
            let slot = self.kernels.order[p];
            let rate = self.kernels.get(slot).rate;
            busy += rate;
            if rate > 0.0 {
                self.running.push(slot);
            }
        }
        self.busy_sms.set(now, busy);
        self.scratch = scratch;
        self.dirty_domains.clear();
        self.all_dirty = false;
    }

    /// When should the engine next wake this device? `None` = nothing
    /// scheduled (fully idle or permanently blocked).
    pub fn next_wake(&self, now: SimTime) -> Option<SimTime> {
        let mut t = SimTime::MAX;
        for &slot in &self.running {
            let k = self.kernels.get(slot);
            if k.rate > 0.0 {
                let secs = k.remaining / k.rate;
                let at = now
                    .saturating_add(SimDuration::from_secs_f64(secs))
                    .saturating_add(SimDuration::from_nanos(1));
                t = t.min(at);
            }
        }
        if self.mode == DeviceMode::TimeSharing {
            if self.ts_pending.is_some() {
                t = t.min(self.ts_switch_end.max(now));
            } else if self.kernels.ctx_counts.len() >= 2 {
                t = t.min(self.ts_quantum_end.max(now));
            }
        }
        (t < SimTime::MAX).then_some(t)
    }

    /// Advance to `now`, pop finished kernels, and recompute rates
    /// (handling any due time-sharing rotation).
    pub fn collect_finished(&mut self, now: SimTime) -> Vec<KernelDone> {
        self.advance(now);
        let mut done = Vec::new();
        for i in 0..self.kernels.order.len() {
            let slot = self.kernels.order[i];
            let k = self.kernels.get(slot);
            if k.remaining <= WORK_EPS && (k.rate > 0.0 || k.desc.work_sm_s <= WORK_EPS) {
                let k = self.kernels.take_at(slot);
                self.kernels_completed += 1;
                self.mark_domain_dirty(k.dom);
                done.push(KernelDone {
                    gpu: self.id,
                    ctx: CtxId(k.ctx),
                    kernel: KernelId(k.kid),
                    tag: k.tag,
                    name: k.desc.name,
                    launched: k.launched,
                    finished: now,
                });
            }
        }
        if !done.is_empty() {
            self.kernels.compact_order();
        }
        self.recompute(now);
        done
    }

    /// Hard reset: drops every context, kernel, allocation and MIG
    /// instance. Used for MIG reconfiguration (§6: "to reallocate MIG, we
    /// must shut down all the applications running on the GPU").
    pub fn reset(&mut self, now: SimTime) {
        self.advance(now);
        self.kernels.clear();
        self.running.clear();
        for (_, c) in std::mem::take(&mut self.ctxs) {
            self.mps.disconnect(c.id.0);
        }
        self.mem = MemoryPool::new(self.spec.memory_bytes);
        self.mem.set_oversubscription(self.allow_uvm);
        if let DeviceMode::Vgpu { slots } = self.mode {
            self.vgpu_mem = self.vgpu_pools(slots);
        }
        self.mig_mem.clear();
        self.mig.destroy_all();
        self.attained.clear();
        self.ts_current = None;
        self.ts_pending = None;
        self.mark_all_dirty();
        self.recompute(now);
    }

    /// Swap out the stored wake event id, if any.
    pub fn take_pending_event(&mut self) -> Option<EventId> {
        match self.wake {
            Wake::Armed(ev) => {
                self.wake = Wake::Idle;
                Some(ev)
            }
            Wake::Idle | Wake::Ticking => None,
        }
    }

    /// Store the wake event id.
    pub fn set_pending_event(&mut self, ev: EventId) {
        self.wake = Wake::Armed(ev);
    }

    /// Is the device inside a wake tick, delivering completions?
    pub(crate) fn ticking(&self) -> bool {
        matches!(self.wake, Wake::Ticking)
    }

    /// Enter a wake tick (`true`, after its event fired) or leave it.
    pub(crate) fn set_ticking(&mut self, on: bool) {
        self.wake = if on { Wake::Ticking } else { Wake::Idle };
    }

    /// Vendor passthrough.
    pub fn vendor(&self) -> Vendor {
        self.spec.vendor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs_f: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(secs_f)
    }

    fn dev(mode: DeviceMode) -> GpuDevice {
        let mut d = GpuDevice::new(GpuId(0), GpuSpec::a100_80gb());
        if matches!(mode, DeviceMode::MpsDefault | DeviceMode::MpsPartitioned) {
            d.mps.start();
        }
        d.set_mode(mode).unwrap();
        d
    }

    fn big_kernel(work: f64) -> KernelDesc {
        KernelDesc::new("big", work, 75_600, 75_600, 0.0)
    }

    fn small_kernel(work: f64) -> KernelDesc {
        // Decode-style kernel that can use at most 20 SMs.
        KernelDesc::new("small", work, 20, 20, 0.0)
    }

    #[test]
    fn single_kernel_runs_at_full_speed() {
        let mut d = dev(DeviceMode::TimeSharing);
        let c = d
            .create_context(SimTime::ZERO, "p0", CtxBinding::Bare)
            .unwrap();
        d.launch(SimTime::ZERO, c, big_kernel(108.0), 1).unwrap();
        // 108 SM-seconds on 108 SMs → 1 second.
        let wake = d.next_wake(SimTime::ZERO).unwrap();
        assert!((wake.as_secs_f64() - 1.0).abs() < 1e-6, "wake {wake}");
        let done = d.collect_finished(wake);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
    }

    #[test]
    fn small_kernel_capped_at_its_parallelism() {
        let mut d = dev(DeviceMode::TimeSharing);
        let c = d
            .create_context(SimTime::ZERO, "p0", CtxBinding::Bare)
            .unwrap();
        d.launch(SimTime::ZERO, c, small_kernel(20.0), 0).unwrap();
        // 20 SM-seconds at 20 effective SMs → 1 second even with 108 SMs.
        let wake = d.next_wake(SimTime::ZERO).unwrap();
        assert!((wake.as_secs_f64() - 1.0).abs() < 1e-6);
        assert!((d.busy_sms() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn timesharing_serializes_two_contexts() {
        let mut d = dev(DeviceMode::TimeSharing);
        let c0 = d
            .create_context(SimTime::ZERO, "p0", CtxBinding::Bare)
            .unwrap();
        let c1 = d
            .create_context(SimTime::ZERO, "p1", CtxBinding::Bare)
            .unwrap();
        d.launch(SimTime::ZERO, c0, big_kernel(108.0), 0).unwrap();
        d.launch(SimTime::ZERO, c1, big_kernel(108.0), 1).unwrap();
        // Only c0 runs initially.
        let rates: Vec<f64> = d.kernels.iter().map(|k| k.rate).collect();
        assert_eq!(rates.iter().filter(|r| **r > 0.0).count(), 1);
        // Work conservation: 216 SM-s of work on 108 SMs ≥ 2 s wall, plus
        // switch penalties. Run to completion via the wake loop.
        let mut now = SimTime::ZERO;
        let mut done = 0;
        for _ in 0..10_000 {
            match d.next_wake(now) {
                Some(w) => {
                    now = w;
                    done += d.collect_finished(now).len();
                    if done == 2 {
                        break;
                    }
                }
                None => break,
            }
        }
        assert_eq!(done, 2);
        let wall = now.as_secs_f64();
        assert!(wall >= 2.0, "wall {wall} < work lower bound");
        assert!(wall < 2.2, "switch overhead exploded: {wall}");
    }

    #[test]
    fn timesharing_single_context_pays_no_switches() {
        let mut d = dev(DeviceMode::TimeSharing);
        let c = d
            .create_context(SimTime::ZERO, "p", CtxBinding::Bare)
            .unwrap();
        let mut now = SimTime::ZERO;
        for i in 0..5 {
            d.launch(now, c, big_kernel(10.8), i).unwrap();
            now = d.next_wake(now).unwrap();
            assert_eq!(d.collect_finished(now).len(), 1);
        }
        assert!((now.as_secs_f64() - 0.5).abs() < 1e-5, "5×0.1 s, got {now}");
    }

    #[test]
    fn mps_default_runs_contexts_concurrently() {
        let mut d = dev(DeviceMode::MpsDefault);
        let c0 = d
            .create_context(SimTime::ZERO, "p0", CtxBinding::Bare)
            .unwrap();
        let c1 = d
            .create_context(SimTime::ZERO, "p1", CtxBinding::Bare)
            .unwrap();
        // Two 20-SM kernels fit side by side on 108 SMs.
        d.launch(SimTime::ZERO, c0, small_kernel(20.0), 0).unwrap();
        d.launch(SimTime::ZERO, c1, small_kernel(20.0), 1).unwrap();
        let wake = d.next_wake(SimTime::ZERO).unwrap();
        assert!((wake.as_secs_f64() - 1.0).abs() < 1e-6, "parallel, not 2 s");
        assert_eq!(d.collect_finished(wake).len(), 2);
    }

    #[test]
    fn mps_default_overload_is_proportional() {
        let mut d = dev(DeviceMode::MpsDefault);
        let c0 = d
            .create_context(SimTime::ZERO, "p0", CtxBinding::Bare)
            .unwrap();
        let c1 = d
            .create_context(SimTime::ZERO, "p1", CtxBinding::Bare)
            .unwrap();
        d.launch(SimTime::ZERO, c0, big_kernel(108.0), 0).unwrap();
        d.launch(SimTime::ZERO, c1, big_kernel(108.0), 1).unwrap();
        // Each demands 75 600 blocks (divisible by 54); proportional split → 54 SMs each.
        for k in d.kernels.iter() {
            assert!((k.rate - 54.0).abs() < 1.0, "rate {}", k.rate);
        }
    }

    #[test]
    fn mps_percentage_caps_context() {
        let mut d = dev(DeviceMode::MpsPartitioned);
        let c = d
            .create_context(SimTime::ZERO, "p0", CtxBinding::MpsPercentage(50))
            .unwrap();
        d.launch(SimTime::ZERO, c, big_kernel(54.0), 0).unwrap();
        // 50% of 108 = 54 SMs → 1 second.
        let wake = d.next_wake(SimTime::ZERO).unwrap();
        assert!((wake.as_secs_f64() - 1.0).abs() < 1e-6, "wake {wake}");
    }

    #[test]
    fn mps_needs_daemon() {
        let mut d = GpuDevice::new(GpuId(0), GpuSpec::a100_80gb());
        d.set_mode(DeviceMode::MpsPartitioned).unwrap();
        let err = d
            .create_context(SimTime::ZERO, "p", CtxBinding::MpsPercentage(50))
            .unwrap_err();
        assert!(matches!(err, GpuError::WrongMode { .. }));
    }

    #[test]
    fn mig_contexts_are_isolated() {
        let mut d = dev(DeviceMode::Mig);
        let i0 = d.mig_create("3g.40gb").unwrap();
        let i1 = d.mig_create("3g.40gb").unwrap();
        let u0 = d.mig.get(i0).unwrap().uuid.clone();
        let u1 = d.mig.get(i1).unwrap().uuid.clone();
        let c0 = d
            .create_context(SimTime::ZERO, "p0", CtxBinding::MigInstance(u0))
            .unwrap();
        let c1 = d
            .create_context(SimTime::ZERO, "p1", CtxBinding::MigInstance(u1))
            .unwrap();
        // Each instance has 42 SMs; a big kernel takes 42 SM-s / 42 = 1 s,
        // regardless of the neighbour.
        d.launch(SimTime::ZERO, c0, big_kernel(42.0), 0).unwrap();
        d.launch(SimTime::ZERO, c1, big_kernel(42.0), 1).unwrap();
        let wake = d.next_wake(SimTime::ZERO).unwrap();
        assert!((wake.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(d.collect_finished(wake).len(), 2);
    }

    #[test]
    fn mig_memory_is_per_instance() {
        let mut d = dev(DeviceMode::Mig);
        let i0 = d.mig_create("1g.10gb").unwrap();
        let u0 = d.mig.get(i0).unwrap().uuid.clone();
        let c0 = d
            .create_context(SimTime::ZERO, "p0", CtxBinding::MigInstance(u0))
            .unwrap();
        let cap = d.mig_memory(i0).unwrap().capacity();
        assert_eq!(cap, 10 * crate::spec::GIB);
        assert!(d.alloc_memory(c0, cap + 1).is_err(), "exceeds slice");
        d.alloc_memory(c0, cap).unwrap();
    }

    #[test]
    fn mig_uvm_oversubscription_slows_kernels() {
        let mut d = dev(DeviceMode::Mig);
        d.set_uvm(true);
        let i0 = d.mig_create("1g.10gb").unwrap();
        let u0 = d.mig.get(i0).unwrap().uuid.clone();
        let c0 = d
            .create_context(SimTime::ZERO, "p0", CtxBinding::MigInstance(u0))
            .unwrap();
        d.alloc_memory(c0, 16 * crate::spec::GIB).unwrap(); // > 10 GiB slice
        d.launch(SimTime::ZERO, c0, big_kernel(14.0), 0).unwrap();
        // 14 SMs × 0.90 penalty → rate 12.6.
        let k = d.kernels.iter().next().unwrap();
        assert!((k.rate - 14.0 * 0.90).abs() < 1e-9, "rate {}", k.rate);
    }

    #[test]
    fn bandwidth_contention_scales_rates() {
        let mut d = dev(DeviceMode::MpsDefault);
        let c0 = d
            .create_context(SimTime::ZERO, "p0", CtxBinding::Bare)
            .unwrap();
        let c1 = d
            .create_context(SimTime::ZERO, "p1", CtxBinding::Bare)
            .unwrap();
        let hungry = KernelDesc::new("bw", 20.0, 20, 20, 0.8);
        d.launch(SimTime::ZERO, c0, hungry.clone(), 0).unwrap();
        d.launch(SimTime::ZERO, c1, hungry, 1).unwrap();
        // Σ bandwidth demand = 1.6 > 1.0 → all rates × 1/1.6.
        for k in d.kernels.iter() {
            assert!((k.rate - 20.0 / 1.6).abs() < 1e-9, "rate {}", k.rate);
        }
    }

    #[test]
    fn vgpu_slots_split_statically() {
        let mut d = dev(DeviceMode::Vgpu { slots: 4 });
        let c0 = d
            .create_context(SimTime::ZERO, "vm0", CtxBinding::VgpuSlot(0))
            .unwrap();
        d.launch(SimTime::ZERO, c0, big_kernel(27.0 * 0.88), 0)
            .unwrap();
        // 108/4 = 27 SMs × 0.88 hypervisor mediation → 1 s, even with the
        // rest of the GPU idle.
        let wake = d.next_wake(SimTime::ZERO).unwrap();
        assert!((wake.as_secs_f64() - 1.0).abs() < 1e-6);
        // Slot memory = 20 GiB.
        assert!(d.alloc_memory(c0, 21 * crate::spec::GIB).is_err());
    }

    #[test]
    fn mode_change_requires_idle() {
        let mut d = dev(DeviceMode::TimeSharing);
        let _c = d
            .create_context(SimTime::ZERO, "p", CtxBinding::Bare)
            .unwrap();
        assert!(matches!(
            d.set_mode(DeviceMode::MpsDefault),
            Err(GpuError::DeviceBusy { .. })
        ));
    }

    #[test]
    fn destroy_context_aborts_kernels_and_frees_memory() {
        let mut d = dev(DeviceMode::TimeSharing);
        let c = d
            .create_context(SimTime::ZERO, "p", CtxBinding::Bare)
            .unwrap();
        d.alloc_memory(c, 1024).unwrap();
        d.launch(SimTime::ZERO, c, big_kernel(100.0), 0).unwrap();
        let aborted = d.destroy_context(t(0.5), c).unwrap();
        assert_eq!(aborted, 1);
        assert_eq!(d.memory_used(), 0);
        assert_eq!(d.active_kernels(), 0);
        assert!(d.next_wake(t(0.5)).is_none());
    }

    #[test]
    fn reset_clears_everything() {
        let mut d = dev(DeviceMode::Mig);
        let i = d.mig_create("7g.80gb").unwrap();
        let u = d.mig.get(i).unwrap().uuid.clone();
        let c = d
            .create_context(SimTime::ZERO, "p", CtxBinding::MigInstance(u))
            .unwrap();
        d.alloc_memory(c, 1 << 30).unwrap();
        d.launch(SimTime::ZERO, c, big_kernel(10.0), 0).unwrap();
        d.reset(t(0.1));
        assert_eq!(d.context_count(), 0);
        assert_eq!(d.active_kernels(), 0);
        assert_eq!(d.mig.instance_count(), 0);
        assert_eq!(d.memory_used(), 0);

        // vGPU slot pools drop the bytes of the contexts they held.
        let gib = crate::spec::GIB;
        let mut d = dev(DeviceMode::Vgpu { slots: 2 });
        let c = d
            .create_context(SimTime::ZERO, "vm0", CtxBinding::VgpuSlot(0))
            .unwrap();
        d.alloc_memory(c, 30 * gib).unwrap();
        d.reset(t(1.0));
        assert_eq!(d.memory_used(), 0);
        let c = d
            .create_context(t(1.0), "vm0", CtxBinding::VgpuSlot(0))
            .unwrap();
        d.alloc_memory(c, 30 * gib).unwrap();
        // Same 40 GiB slot, still without UVM.
        assert_eq!(
            d.alloc_memory(c, 11 * gib),
            Err(GpuError::OutOfMemory {
                requested: 11 * gib,
                available: 10 * gib,
            })
        );
    }

    #[test]
    fn zero_work_kernel_completes_immediately() {
        let mut d = dev(DeviceMode::TimeSharing);
        let c = d
            .create_context(SimTime::ZERO, "p", CtxBinding::Bare)
            .unwrap();
        d.launch(SimTime::ZERO, c, KernelDesc::new("nop", 0.0, 1, 1, 0.0), 7)
            .unwrap();
        let wake = d.next_wake(SimTime::ZERO).unwrap();
        let done = d.collect_finished(wake);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
    }

    #[test]
    fn utilization_accounting() {
        let mut d = dev(DeviceMode::TimeSharing);
        let c = d
            .create_context(SimTime::ZERO, "p", CtxBinding::Bare)
            .unwrap();
        d.launch(SimTime::ZERO, c, big_kernel(108.0), 0).unwrap();
        let wake = d.next_wake(SimTime::ZERO).unwrap();
        d.collect_finished(wake);
        // Busy 108 SMs for 1 s; at t=2 s average = 108/2 /108 = 0.5.
        let u = d.average_utilization(t(2.0));
        assert!((u - 0.5).abs() < 1e-3, "util {u}");
    }

    #[test]
    fn attained_service_accounting_quantifies_contention() {
        // Default MPS, one giant-grid tenant vs one small-grid tenant:
        // the giant grid grabs most SMs (proportional split), and the
        // accounting exposes the imbalance Table 1 warns about.
        let mut d = dev(DeviceMode::MpsDefault);
        let hog = d
            .create_context(SimTime::ZERO, "hog", CtxBinding::Bare)
            .unwrap();
        let meek = d
            .create_context(SimTime::ZERO, "meek", CtxBinding::Bare)
            .unwrap();
        // The meek tenant only needs 20 SMs; the hog floods the device.
        d.launch(
            SimTime::ZERO,
            hog,
            KernelDesc::new("hog", 1000.0, 75_600, 75_600, 0.0),
            0,
        )
        .unwrap();
        d.launch(
            SimTime::ZERO,
            meek,
            KernelDesc::new("meek", 1000.0, 20, 20, 0.0),
            1,
        )
        .unwrap();
        d.advance(t(10.0));
        let a_hog = d.attained_service(hog);
        let a_meek = d.attained_service(meek);
        // Proportional split of 128 demanded SMs over 108: the meek
        // tenant is pushed below its 20-SM need (≈169 < 200 SM·s).
        assert!(a_meek < 0.9 * 200.0, "meek should be starved: {a_meek}");
        assert!(a_hog > 4.0 * a_meek, "hog {a_hog} vs meek {a_meek}");
        // Work conservation: total attained never exceeds SMs × time, and
        // wave quantization loses only a little of it.
        let total = a_hog + a_meek;
        assert!(total <= 108.0 * 10.0 + 1e-6);
        assert!(
            total > 0.9 * 108.0 * 10.0,
            "too much lost to waves: {total}"
        );
        // Context teardown clears the ledger.
        d.destroy_context(t(10.0), meek).unwrap();
        assert_eq!(d.attained_service(meek), 0.0);
    }

    #[test]
    fn mps_percentage_prevents_starvation() {
        // Same tenants under partitioned MPS 50/50: caps equalize service.
        let mut d = dev(DeviceMode::MpsPartitioned);
        let a = d
            .create_context(SimTime::ZERO, "a", CtxBinding::MpsPercentage(50))
            .unwrap();
        let b = d
            .create_context(SimTime::ZERO, "b", CtxBinding::MpsPercentage(50))
            .unwrap();
        d.launch(
            SimTime::ZERO,
            a,
            KernelDesc::new("hog", 1000.0, 75_600, 75_600, 0.0),
            0,
        )
        .unwrap();
        d.launch(
            SimTime::ZERO,
            b,
            KernelDesc::new("meek", 1000.0, 20, 20, 0.0),
            1,
        )
        .unwrap();
        d.advance(t(10.0));
        // With a 50% cap on the hog, the meek tenant attains its full
        // 20-SM demand: no starvation.
        let a_meek = d.attained_service(b);
        assert!((a_meek - 200.0).abs() < 1e-6, "meek un-starved: {a_meek}");
        assert!((d.attained_service(a) - 540.0).abs() < 1e-6);
    }

    #[test]
    fn unhealthy_device_refuses_new_work() {
        let mut d = dev(DeviceMode::TimeSharing);
        let c = d
            .create_context(SimTime::ZERO, "p0", CtxBinding::Bare)
            .unwrap();
        d.mark_unhealthy(SimTime::ZERO);
        assert!(!d.is_healthy());
        assert_eq!(
            d.launch(SimTime::ZERO, c, big_kernel(10.0), 0),
            Err(GpuError::Unhealthy)
        );
        assert_eq!(
            d.create_context(SimTime::ZERO, "p1", CtxBinding::Bare),
            Err(GpuError::Unhealthy)
        );
        // Teardown of residents still works while quarantined.
        assert!(d.destroy_context(SimTime::ZERO, c).is_ok());
        d.mark_healthy();
        assert!(d
            .create_context(SimTime::ZERO, "p2", CtxBinding::Bare)
            .is_ok());
    }

    #[test]
    fn slowdown_stretches_completion_and_restores() {
        let mut d = dev(DeviceMode::TimeSharing);
        let c = d
            .create_context(SimTime::ZERO, "p0", CtxBinding::Bare)
            .unwrap();
        d.launch(SimTime::ZERO, c, big_kernel(108.0), 0).unwrap();
        // Nominal: 1 s. At half rate the remaining work takes twice as long.
        d.set_slowdown(SimTime::ZERO, 0.5);
        let wake = d.next_wake(SimTime::ZERO).unwrap();
        assert!((wake.as_secs_f64() - 2.0).abs() < 1e-6, "wake {wake}");
        // Half the work done by t=1; restoring speed finishes at t=1.5.
        d.set_slowdown(t(1.0), 1.0);
        let wake = d.next_wake(t(1.0)).unwrap();
        assert!((wake.as_secs_f64() - 1.5).abs() < 1e-6, "wake {wake}");
        let done = d.collect_finished(wake);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn binding_mode_mismatches_rejected() {
        let mut d = dev(DeviceMode::TimeSharing);
        assert!(d
            .create_context(SimTime::ZERO, "p", CtxBinding::MpsPercentage(50))
            .is_err());
        let mut d = dev(DeviceMode::Mig);
        assert!(d
            .create_context(SimTime::ZERO, "p", CtxBinding::Bare)
            .is_err());
        assert!(d
            .create_context(
                SimTime::ZERO,
                "p",
                CtxBinding::MigInstance("MIG-nope".into())
            )
            .is_err());
        let mut d = dev(DeviceMode::Vgpu { slots: 2 });
        assert!(d
            .create_context(SimTime::ZERO, "p", CtxBinding::VgpuSlot(2))
            .is_err());
    }
}
