//! The running platform: executors, workers, and event wiring.
//!
//! [`FaasWorld`] is the simulation world type — it owns the GPU fleet, the
//! DataFlowKernel, the worker pool, the monitoring store, and an optional
//! experiment [`Driver`]. Free functions ([`boot`], [`submit`],
//! [`kill_worker`], ...) mutate it under an `Engine<FaasWorld>`. The
//! Fig. 3 phase timeline is not recorded here:
//! `parfait_core::metrics::timeline` derives it from the task table.
//!
//! ## Worker lifecycle (HighThroughputExecutor pilot model)
//!
//! ```text
//! Provisioning --spawn delay--> ColdStart --fi+ctx init--> Idle
//!     Idle --task assigned--> Busy --steps/kernels--> Idle ...
//!     any --kill_worker--> Dead --respawn_worker--> Provisioning
//! ```
//!
//! Cold start covers §6 parts (1) function init and (2) GPU context init;
//! part (3), model load, is paid by the first task whose
//! [`crate::app::ModelProfile`] is not yet resident on the worker —
//! subsequent tasks reuse the warm model exactly like a warmed serverless
//! function instance.
//!
//! ## One function per lifecycle job
//!
//! - Build a worker: `Worker::new` (index registration stays in
//!   [`FaasWorld::new`] and [`add_worker`]).
//! - Start an attempt, primary or hedge: `start_attempt`.
//! - Run body steps: `next_step` and `apply_mem_step`, driven live by
//!   `advance_worker` and on checkpoint replay by `fast_forward`.
//! - Guard an attempt timer: `Worker::on_attempt`.
//! - End an attempt: `release_attempt`, after `abort_kernel` when the
//!   attempt is cut short; `finish_task` then settles the task and
//!   `cancel_attempt` discards a hedge loser.
//! - End an incarnation, killed or silently crashed: `end_incarnation`.
//! - Leave probation, by verdict or fence: `clear_probation`.
//! - Answer an index-or-scan question: the query methods in the `index`
//!   module.

use crate::app::{AppCall, ModelProfile, TaskBody, TaskCtx, TaskId, TaskStep};
use crate::cache::WeightCache;
use crate::checkpoint::{Checkpoint, CHECKPOINT_BASE_BYTES};
use crate::config::{
    AcceleratorSpec, Config, BACKOFF_BASE, BACKOFF_CAP, BACKOFF_JITTER, BREAKER_COOLDOWN,
    BREAKER_THRESHOLD, CANARY_FACTOR, CANARY_NOMINAL, CHECKPOINT_JITTER, CHECKPOINT_OVERHEAD,
    FAIL_SLOW_ALPHA, FAIL_SLOW_CHECK_PERIOD, FAIL_SLOW_COOLDOWN, FAIL_SLOW_LINK_RATIO,
    FAIL_SLOW_MIN_SAMPLES, FAIL_SLOW_PEER_RATIO, HEARTBEAT_PERIOD, HEDGE_CANCEL_LATENCY,
    HEDGE_JITTER, HOST_BOOT_STAGGER, NODE_CORES, RACK_POWER_RESTORE, RETRY_BUDGET_BURST,
    RETRY_BUDGET_RATIO, SPAWN_DELAY,
};
use crate::dfk::{Dfk, FailureOutcome, TaskState};
use crate::drain::{begin_drain, note_drained, ReconfigControl};
use crate::faults::{Probation, RecoveryState};
use crate::index::WorldIndex;
use crate::monitoring::{FaultPhase, Monitoring, QueueSample, UtilSample, WorkerEventKind};
use crate::overload::{HedgePair, OverloadState};
use parfait_gpu::context::{self, ColdStartBreakdown};
use parfait_gpu::host::{launch_kernel, resync, GpuFleet, GpuHost};
use parfait_gpu::mps::MPS_ENV_VAR;
use parfait_gpu::{CtxBinding, CtxId, DeviceMode, GpuId, KernelDesc, KernelDone};
use parfait_simcore::resource::{PsJobId, PsPool};
use parfait_simcore::{streams, Engine, EventId, SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Kernel tags carry (worker, launch-sequence) so completions of aborted
/// or superseded launches cannot resume the wrong task. 20 bits of worker
/// id leave 44 bits of sequence.
fn pack_kernel_tag(wid: usize, seq: u64) -> u64 {
    debug_assert!(wid < (1 << 20), "worker id overflows tag packing");
    (wid as u64) | (seq << 20)
}

fn unpack_kernel_tag(tag: u64) -> (usize, u64) {
    ((tag & 0xF_FFFF) as usize, tag >> 20)
}

/// Sentinel worker id carried in canary-probe kernel tags (near the top
/// of the 20-bit worker range, unreachable by any realistic fleet). The
/// sequence bits carry the probed device id instead of a launch number.
pub(crate) const CANARY_TAG_WID: usize = 0xF_FFFE;

/// Bytes moved by the canary's link probe (a checkpoint-write-sized
/// host↔device transfer priced at the device's *current* link rate, so a
/// flaky link fails the canary even though kernels look healthy).
const CANARY_PROBE_BYTES: u64 = 1 << 30;

/// The canary probe kernel. The grid is deliberately tiny: with 8 blocks
/// its effective parallelism saturates at 8 SMs under any partition
/// (MPS percentage, MIG slice, or whole device), so the healthy duration
/// is mode-independent and one [`CANARY_NOMINAL`] fits every cell of a
/// sweep.
fn canary_kernel() -> KernelDesc {
    KernelDesc::new("gray.canary", 0.8, 8, 8, 0.05)
}

/// Worker lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Waiting for the provider to hand over a process slot.
    Provisioning,
    /// Function + GPU context initialization in progress.
    ColdStart,
    /// Ready for a task.
    Idle,
    /// Executing a task.
    Busy,
    /// Process lost silently (injected crash); the platform still thinks
    /// it is alive until the heartbeat watchdog times out.
    Crashed,
    /// Terminated.
    Dead,
}

struct Running {
    task: TaskId,
    body: Option<Box<dyn TaskBody>>,
    /// Bytes allocated by the task body, auto-released at task end.
    task_allocs: u64,
    /// Model load in progress for this profile.
    loading: Option<ModelProfile>,
    /// Body steps issued this attempt. Incremented at issue time, so at
    /// a step *boundary* (top of the advance loop) it equals the number
    /// of completed steps — the checkpoint cursor.
    steps_issued: u64,
    /// The checkpoint timer fired; a snapshot is captured at the next
    /// step boundary.
    ckpt_pending: bool,
    /// Time after which this attempt's completed work is unpreserved:
    /// body start, then each committed snapshot's capture time. Failing
    /// the attempt charges `now - progress_mark` to `work_lost_s`.
    progress_mark: Option<SimTime>,
    /// This attempt is a speculative straggler hedge (duplicate of a
    /// primary attempt running elsewhere). Hedges never arm further
    /// hedges and never touch the DFK dispatch/attempt accounting.
    is_hedge: bool,
    /// Last instant the attempt demonstrably moved: dispatch, body start,
    /// each step boundary, checkpoint capture/commit, restore completion.
    /// The progress watchdog compares this against `progress_timeout`.
    /// Distinct from `progress_mark`, which tracks *preserved* work for
    /// the `work_lost_s` accounting and must not move at step boundaries.
    last_progress: SimTime,
    /// A priced link transfer (checkpoint writeback or restore) is in
    /// flight: the body is legitimately silent, and the progress watchdog
    /// must not read the stall as a zombie. Model loads are covered by
    /// `loading` the same way.
    link_busy: bool,
}

/// One worker process.
pub struct Worker {
    /// Index in `FaasWorld::workers`.
    pub id: usize,
    /// Owning executor index.
    pub executor: usize,
    /// Display name, e.g. `"gpu.w0"`.
    pub label: String,
    /// Accelerator slot assigned by the executor config.
    pub accel: Option<AcceleratorSpec>,
    /// Resolved GPU binding once the context exists.
    pub gpu: Option<(GpuId, parfait_gpu::CtxId)>,
    /// The environment the executor exported to this process (§4's
    /// `CUDA_VISIBLE_DEVICES` / `CUDA_MPS_ACTIVE_THREAD_PERCENTAGE`).
    pub env: BTreeMap<String, String>,
    /// Lifecycle state.
    pub state: WorkerState,
    /// Cold-start decomposition of the most recent start.
    pub cold_breakdown: Option<ColdStartBreakdown>,
    /// When the current incarnation was spawned.
    pub spawned_at: SimTime,
    /// When it became idle (cold start complete).
    pub ready_at: Option<SimTime>,
    /// Tasks completed over all incarnations.
    pub tasks_completed: u64,
    /// Models resident in this worker's GPU memory.
    loaded_models: BTreeSet<u64>,
    /// Bytes held by resident models.
    model_bytes: u64,
    current: Option<Running>,
    /// Monotone kernel-launch sequence; completions only resume the
    /// launch they belong to (stale/orphaned kernels are ignored).
    kernel_seq: u64,
    /// The sequence number the worker is currently blocked on.
    awaiting_kernel: Option<u64>,
    /// Incarnation counter; timers from older incarnations are ignored.
    epoch: u64,
    rng: SimRng,
    /// When the process silently crashed (set while `Crashed`; the
    /// watchdog compares this against the heartbeat timeout).
    pub(crate) crashed_at: Option<SimTime>,
    /// Automatic restarts consumed from the recovery budget.
    pub restarts_used: u32,
    /// True between a budgeted auto-respawn and the next Ready; closes
    /// the fault incident (MTTR) when cold start completes.
    pub(crate) recovering: bool,
    /// Injected fault: the next provider hand-over fails.
    pub(crate) provision_poisoned: bool,
    /// Injected fault: the next model load dies with a transient OOM.
    pub(crate) model_load_poisoned: bool,
    /// Gray fault: the process is wedged — it keeps heartbeating (never
    /// goes `Crashed`) but its body never advances again. Cleared when
    /// the incarnation is torn down (kill/crash); a respawn is a fresh
    /// process.
    pub(crate) zombie: bool,
}

impl Worker {
    /// A fresh worker in `Provisioning`. The caller registers it with the
    /// world index.
    fn new(
        id: usize,
        executor: usize,
        label: String,
        accel: Option<AcceleratorSpec>,
        spawned_at: SimTime,
        rng: SimRng,
    ) -> Self {
        Worker {
            id,
            executor,
            label,
            accel,
            gpu: None,
            env: BTreeMap::new(),
            state: WorkerState::Provisioning,
            cold_breakdown: None,
            spawned_at,
            ready_at: None,
            tasks_completed: 0,
            loaded_models: BTreeSet::new(),
            model_bytes: 0,
            current: None,
            kernel_seq: 0,
            awaiting_kernel: None,
            epoch: 0,
            rng,
            crashed_at: None,
            restarts_used: 0,
            recovering: false,
            provision_poisoned: false,
            model_load_poisoned: false,
            zombie: false,
        }
    }

    /// Is this worker still in incarnation `epoch` and busy on `task`?
    /// Attempt timers (checkpoint, restore, hedge, hedge cancel) die with
    /// the attempt they were armed for.
    fn on_attempt(&self, epoch: u64, task: TaskId) -> bool {
        self.epoch == epoch && self.state == WorkerState::Busy && self.current_task() == Some(task)
    }

    /// Task currently running, if any.
    pub fn current_task(&self) -> Option<TaskId> {
        self.current.as_ref().map(|r| r.task)
    }

    /// Incarnation number (bumped by kill/respawn).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Is a model resident?
    pub fn has_model(&self, id: u64) -> bool {
        self.loaded_models.contains(&id)
    }
}

/// Experiment logic hooked into the platform.
pub trait Driver: 'static {
    /// Called once at boot (submit initial tasks here).
    fn on_start(&mut self, _w: &mut FaasWorld, _eng: &mut Engine<FaasWorld>) {}
    /// Called when a task reaches a terminal state (done or failed).
    fn on_task_done(&mut self, _w: &mut FaasWorld, _eng: &mut Engine<FaasWorld>, _task: TaskId) {}
}

/// The platform state (the DES world type).
pub struct FaasWorld {
    /// Static configuration.
    pub config: Config,
    /// GPUs on the node.
    pub fleet: GpuFleet,
    /// All workers across executors.
    pub workers: Vec<Worker>,
    /// Per-executor ready queues.
    pub queues: Vec<VecDeque<TaskId>>,
    /// Task table.
    pub dfk: Dfk,
    /// Monitoring store.
    pub monitor: Monitoring,
    /// Root RNG.
    pub rng: SimRng,
    /// §7 GPU-resident model weight cache (disabled by default).
    pub weight_cache: WeightCache,
    /// Processor-sharing pool over the node's cores: every CPU step is a
    /// job; oversubscription slows all compute-bound workers exactly
    /// proportionally (the testbed has 24 Xeons).
    cpu_pool: PsPool,
    /// Pool job → (worker, epoch) for resuming the right incarnation.
    cpu_jobs: BTreeMap<PsJobId, (usize, u64)>,
    /// Single armed wake event for the CPU pool.
    cpu_event: Option<EventId>,
    driver: Option<Box<dyn Driver>>,
    sampler_armed: bool,
    /// Failure-detection and recovery machinery (watchdog, backoff RNG,
    /// per-GPU circuit breakers, fault statistics).
    pub recovery: RecoveryState,
    /// Host-side checkpoint store, keyed by task: the last *committed*
    /// snapshot of each checkpointable in-flight task. Survives worker,
    /// GPU, and host fault domains; entries drop when tasks settle.
    pub checkpoints: BTreeMap<TaskId, Checkpoint>,
    /// Overload-protection state (hedge RNG stream, retry buckets, live
    /// hedge pairs, shed/hedge counters).
    pub overload: OverloadState,
    /// Online-reconfiguration state: active staged drains, the
    /// stop-dispatch set, injected commit-failure poison, and counters.
    pub reconfig: ReconfigControl,
    /// Incrementally maintained worker/queue lookup structures; hot
    /// paths use them instead of scanning `workers`/`queues` (see the
    /// `index` module). Always kept in sync; consult gated on
    /// [`FaasWorld::set_index_enabled`].
    pub(crate) index: WorldIndex,
}

impl GpuHost for FaasWorld {
    fn fleet_mut(&mut self) -> &mut GpuFleet {
        &mut self.fleet
    }
    fn on_kernel_done(&mut self, eng: &mut Engine<Self>, done: KernelDone) {
        let (wid, seq) = unpack_kernel_tag(done.tag);
        if wid == CANARY_TAG_WID {
            canary_kernel_done(self, eng, done);
            return;
        }
        if self.config.recovery.fail_slow {
            let obs = done.finished.duration_since(done.launched).as_secs_f64();
            note_step_sample(self, done.gpu, obs);
        }
        if wid < self.workers.len()
            && self.workers[wid].state == WorkerState::Busy
            && self.workers[wid].awaiting_kernel == Some(seq)
        {
            if self.workers[wid].zombie {
                // The wedged client never observes the completion: the
                // result drops on the floor and the worker stays Busy
                // with a stale progress mark — only the progress
                // watchdog gets it out.
                return;
            }
            self.workers[wid].awaiting_kernel = None;
            advance_worker(self, eng, wid);
        }
    }
}

impl FaasWorld {
    /// Build the platform. Workers are created in `Provisioning`; call
    /// [`boot`] to start them.
    // lint:allow(stream-hygiene, per-worker streams are WORKER_BASE + worker id, a fixed function of fleet layout, so the in-loop split cannot depend on iteration order)
    pub fn new(config: Config, fleet: GpuFleet, seed: u64) -> Self {
        let rng = SimRng::new(seed);
        let mut workers = Vec::new();
        let mut queues = Vec::new();
        for (ei, ex) in config.executors.iter().enumerate() {
            queues.push(VecDeque::new());
            for wi in 0..ex.max_workers {
                let id = workers.len();
                workers.push(Worker::new(
                    id,
                    ei,
                    format!("{}.w{}", ex.label, wi),
                    ex.accelerator_for(wi).cloned(),
                    SimTime::ZERO,
                    rng.split(streams::WORKER_BASE + id as u64),
                ));
            }
        }
        let retry_rng = rng.split(streams::RETRY_JITTER);
        let checkpoint_rng = rng.split(streams::CHECKPOINT_TIMING);
        let canary_rng = rng.split(streams::GRAY_CANARY);
        let recovery = RecoveryState::new(retry_rng, checkpoint_rng, canary_rng, fleet.len());
        let overload = OverloadState::new(rng.split(streams::HEDGE_TIMING));
        let reconfig_rng = rng.split(streams::RECONFIG_FAULTS);
        let reconfig = ReconfigControl::new(reconfig_rng);
        let mut index = WorldIndex::new(config.executors.len(), fleet.len());
        for w in &workers {
            index.register_worker(w.id, w.executor, w.state);
        }
        FaasWorld {
            config,
            fleet,
            workers,
            queues,
            dfk: Dfk::new(),
            monitor: Monitoring::new(),
            rng,
            weight_cache: WeightCache::new(),
            cpu_pool: PsPool::new(NODE_CORES, SimTime::ZERO),
            cpu_jobs: BTreeMap::new(),
            cpu_event: None,
            driver: None,
            sampler_armed: false,
            recovery,
            checkpoints: BTreeMap::new(),
            overload,
            reconfig,
            index,
        }
    }

    /// Toggle the indexed fast paths (dispatch, admission, watchdog,
    /// fencing, fail-over, scaling). The index is maintained either way;
    /// disabling only makes the hot paths fall back to the original
    /// full scans — the A/B baseline for the fleet benchmark.
    pub fn set_index_enabled(&mut self, on: bool) {
        self.index.enabled = on;
    }

    /// Apply a worker state change, keeping the index in sync. Every
    /// `state` write in the crate funnels through here.
    pub(crate) fn transition(&mut self, wid: usize, new: WorkerState) {
        let old = self.workers[wid].state;
        if old == new {
            return;
        }
        let exec = self.workers[wid].executor;
        self.index.on_state_change(wid, exec, old, new);
        self.workers[wid].state = new;
    }

    /// (Un)bind a worker's GPU context, keeping the resident sets in
    /// sync. Every `gpu` write in the crate funnels through here.
    pub(crate) fn bind_gpu(&mut self, wid: usize, binding: Option<(GpuId, parfait_gpu::CtxId)>) {
        let old = self.workers[wid].gpu.map(|(g, _)| g.0);
        self.index
            .on_gpu_change(wid, old, binding.map(|(g, _)| g.0));
        self.workers[wid].gpu = binding;
    }

    /// Recompute every index structure from scratch and assert it equals
    /// the incrementally maintained one. Debug builds only (the asserts
    /// and the recompute both compile away in release).
    pub fn check_index_consistency(&self) {
        #[cfg(debug_assertions)]
        {
            use std::collections::BTreeSet;
            let nexec = self.queues.len();
            let mut idle = vec![BTreeSet::new(); nexec];
            let mut live = vec![0usize; nexec];
            let mut not_dead = vec![0usize; nexec];
            let mut total = vec![0usize; nexec];
            let mut busy = BTreeSet::new();
            let mut crashed = BTreeSet::new();
            let mut dead = BTreeSet::new();
            let mut state_counts = [0usize; 6];
            let mut residents = vec![BTreeSet::new(); self.index.residents.len()];
            for w in &self.workers {
                total[w.executor] += 1;
                let slot = match w.state {
                    WorkerState::Provisioning => 0,
                    WorkerState::ColdStart => 1,
                    WorkerState::Idle => 2,
                    WorkerState::Busy => 3,
                    WorkerState::Crashed => 4,
                    WorkerState::Dead => 5,
                };
                state_counts[slot] += 1;
                match w.state {
                    WorkerState::Idle => {
                        idle[w.executor].insert(w.id);
                    }
                    WorkerState::Busy => {
                        busy.insert(w.id);
                    }
                    WorkerState::Crashed => {
                        crashed.insert(w.id);
                    }
                    WorkerState::Dead => {
                        dead.insert(w.id);
                    }
                    _ => {}
                }
                if !matches!(w.state, WorkerState::Dead | WorkerState::Crashed) {
                    live[w.executor] += 1;
                }
                if w.state != WorkerState::Dead {
                    not_dead[w.executor] += 1;
                }
                if let Some((g, _)) = w.gpu {
                    residents[g.0 as usize].insert(w.id);
                }
            }
            assert_eq!(self.index.idle, idle, "idle sets drifted");
            assert_eq!(self.index.live, live, "live counts drifted");
            assert_eq!(self.index.not_dead, not_dead, "not-dead counts drifted");
            assert_eq!(self.index.total, total, "total counts drifted");
            assert_eq!(self.index.busy, busy, "busy set drifted");
            assert_eq!(self.index.crashed, crashed, "crashed set drifted");
            assert_eq!(self.index.dead, dead, "dead set drifted");
            assert_eq!(
                self.index.state_counts, state_counts,
                "state counts drifted"
            );
            assert_eq!(self.index.residents, residents, "resident sets drifted");
            for e in 0..nexec {
                let mut known: u128 = 0;
                let mut unknown = 0usize;
                for t in &self.queues[e] {
                    match self.dfk.est_service(*t) {
                        Some(d) => known += d.as_nanos() as u128,
                        None => unknown += 1,
                    }
                }
                assert_eq!(
                    self.index.queued_known_nanos[e], known,
                    "queued estimate sum drifted (executor {e})"
                );
                assert_eq!(
                    self.index.queued_unknown[e], unknown,
                    "queued unknown count drifted (executor {e})"
                );
            }
        }
    }

    /// Install the experiment driver.
    pub fn set_driver(&mut self, d: impl Driver) {
        self.driver = Some(Box::new(d));
    }

    /// Are all workers of an executor dead?
    pub fn executor_dead(&self, exec: usize) -> bool {
        self.not_dead_workers(exec) == 0
    }

    fn with_driver(
        &mut self,
        eng: &mut Engine<FaasWorld>,
        f: impl FnOnce(&mut dyn Driver, &mut FaasWorld, &mut Engine<FaasWorld>),
    ) {
        if let Some(mut d) = self.driver.take() {
            f(d.as_mut(), self, eng);
            // A driver installed during dispatch would be overwritten;
            // drivers installing drivers is not supported.
            debug_assert!(self.driver.is_none());
            self.driver = Some(d);
        }
    }
}

/// Enqueue a task on an executor's ready queue, keeping the index's
/// queued-estimate totals in sync. Every queue push funnels through
/// here (and every removal through [`queue_pop_front`]/[`queue_remove`]).
fn queue_push(world: &mut FaasWorld, exec: usize, task: TaskId) {
    let est = world.dfk.est_service(task);
    world.index.queue_delta_push(exec, est);
    world.queues[exec].push_back(task);
}

/// Dequeue the oldest task of an executor's ready queue.
fn queue_pop_front(world: &mut FaasWorld, exec: usize) -> Option<TaskId> {
    let task = world.queues[exec].pop_front()?;
    let est = world.dfk.est_service(task);
    world.index.queue_delta_pop(exec, est);
    Some(task)
}

/// Remove a specific task from an executor's ready queue (shed, cancel).
fn queue_remove(world: &mut FaasWorld, exec: usize, task: TaskId) {
    let before = world.queues[exec].len();
    world.queues[exec].retain(|t| *t != task);
    let removed = before - world.queues[exec].len();
    let est = world.dfk.est_service(task);
    for _ in 0..removed {
        world.index.queue_delta_pop(exec, est);
    }
}

/// Start the platform: spawn every worker, arm the monitoring sampler,
/// and run the driver's `on_start`.
pub fn boot(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    for wid in 0..world.workers.len() {
        schedule_spawn(world, eng, wid);
    }
    if world.config.monitoring_period.is_some() && !world.sampler_armed {
        world.sampler_armed = true;
        sample_monitors(world, eng);
    }
    world.with_driver(eng, |d, w, e| d.on_start(w, e));
}

/// Hand a `Provisioning` worker its process slot after [`SPAWN_DELAY`],
/// then start its cold start.
fn schedule_spawn(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) {
    let epoch = world.workers[wid].epoch;
    eng.schedule_in(SPAWN_DELAY, move |w: &mut FaasWorld, e| {
        if w.workers[wid].epoch != epoch || w.workers[wid].state != WorkerState::Provisioning {
            return;
        }
        if w.workers[wid].provision_poisoned {
            // Injected provider failure: the slot never materializes.
            let now = e.now();
            w.workers[wid].provision_poisoned = false;
            w.transition(wid, WorkerState::Dead);
            w.workers[wid].recovering = false;
            w.recovery.stats.workers_lost += 1;
            w.monitor.fault_event(
                now,
                FaultPhase::Detected,
                "provisioning-failure",
                None,
                Some(wid),
                "provider failed to hand over the process slot",
            );
            w.monitor
                .worker_event(now, wid, WorkerEventKind::Killed, "provisioning failed");
            auto_respawn(w, e, wid);
            return;
        }
        begin_cold_start(w, e, wid);
    });
}

fn begin_cold_start(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) {
    let now = eng.now();
    world.transition(wid, WorkerState::ColdStart);
    let breakdown = {
        let w = &mut world.workers[wid];
        w.spawned_at = now;
        let b = context::sample(&mut w.rng, w.accel.is_some());
        w.cold_breakdown = Some(b);
        b
    };
    world
        .monitor
        .worker_event(now, wid, WorkerEventKind::Spawned, "");
    let epoch = world.workers[wid].epoch;
    eng.schedule_in(
        breakdown.function_init + breakdown.gpu_context_init,
        move |w: &mut FaasWorld, e| {
            if w.workers[wid].epoch != epoch || w.workers[wid].state != WorkerState::ColdStart {
                return;
            }
            finish_cold_start(w, e, wid);
        },
    );
}

/// Resolve an accelerator spec into a device + binding and build the
/// environment the worker process would see. A GPU index outside the
/// fleet, like an unknown MIG uuid, is an error.
fn resolve_accel(
    fleet: &GpuFleet,
    spec: &AcceleratorSpec,
) -> Result<(GpuId, CtxBinding, BTreeMap<String, String>), String> {
    if let Some(i) = spec.gpu_index().filter(|&i| i as usize >= fleet.len()) {
        return Err(format!("GPU {i} is not in the fleet"));
    }
    let mut env = BTreeMap::new();
    match spec {
        AcceleratorSpec::Gpu(i) => {
            env.insert("CUDA_VISIBLE_DEVICES".into(), i.to_string());
            Ok((GpuId(*i), CtxBinding::Bare, env))
        }
        AcceleratorSpec::GpuPercentage(i, pct) => {
            env.insert("CUDA_VISIBLE_DEVICES".into(), i.to_string());
            env.insert(MPS_ENV_VAR.into(), pct.to_string());
            Ok((GpuId(*i), CtxBinding::MpsPercentage(*pct), env))
        }
        AcceleratorSpec::Mig(uuid) => {
            env.insert("CUDA_VISIBLE_DEVICES".into(), uuid.clone());
            match fleet.mig_device(uuid) {
                Some(gpu) => Ok((gpu, CtxBinding::MigInstance(uuid.clone()), env)),
                None => Err(format!("MIG instance {uuid} not found on any device")),
            }
        }
        AcceleratorSpec::VgpuSlot(i, s) => {
            env.insert("CUDA_VISIBLE_DEVICES".into(), format!("vgpu{i}:{s}"));
            Ok((GpuId(*i), CtxBinding::VgpuSlot(*s), env))
        }
    }
}

fn finish_cold_start(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) {
    let now = eng.now();
    if let Some(spec) = world.workers[wid].accel.clone() {
        match resolve_accel(&world.fleet, &spec) {
            Ok((gpu, binding, env)) => {
                if gpu_quarantined(world, gpu) {
                    // The breaker is open: park instead of burning the
                    // restart budget on a doomed context creation. The
                    // worker respawns when the device is re-admitted.
                    world.transition(wid, WorkerState::Dead);
                    world.workers[wid].recovering = false;
                    world.recovery.health_mut(gpu).parked.push(wid);
                    world.monitor.worker_event(
                        now,
                        wid,
                        WorkerEventKind::Killed,
                        format!("GPU {} quarantined; parked for re-admission", gpu.0),
                    );
                    return;
                }
                let label = world.workers[wid].label.clone();
                match world
                    .fleet
                    .device_mut(gpu)
                    .create_context(now, &label, binding)
                {
                    Ok(ctx) => {
                        world.bind_gpu(wid, Some((gpu, ctx)));
                        world.workers[wid].env = env;
                        resync(world, eng, gpu);
                    }
                    Err(e) => {
                        world.transition(wid, WorkerState::Dead);
                        world.monitor.worker_event(
                            now,
                            wid,
                            WorkerEventKind::Killed,
                            format!("context creation failed: {e}"),
                        );
                        return;
                    }
                }
            }
            Err(e) => {
                world.transition(wid, WorkerState::Dead);
                world
                    .monitor
                    .worker_event(now, wid, WorkerEventKind::Killed, e);
                return;
            }
        }
    }
    world.transition(wid, WorkerState::Idle);
    world.workers[wid].ready_at = Some(now);
    let cold = world.workers[wid]
        .cold_breakdown
        .map(|b| format!("cold={:.3}s", b.total().as_secs_f64()))
        .unwrap_or_default();
    world
        .monitor
        .worker_event(now, wid, WorkerEventKind::Ready, cold);
    if world.workers[wid].recovering {
        // Auto-respawn completed: close the fault incident (MTTR).
        world.workers[wid].recovering = false;
        let gpu = world.workers[wid].gpu.map(|(g, _)| g.0);
        world.monitor.fault_event(
            now,
            FaultPhase::Recovered,
            "worker-restored",
            gpu,
            Some(wid),
            "respawn complete",
        );
    }
    kick_executor(world, eng, world.workers[wid].executor);
}

/// Submit an app call; returns its task id. A call naming an unknown
/// executor label is registered and immediately failed terminally (the
/// driver sees it as a fatal task, same as an admission refusal).
pub fn submit(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, call: AppCall) -> TaskId {
    let Some(exec) = world.config.executor_index(&call.executor) else {
        let label = call.executor.clone();
        let (id, _) = world.dfk.submit(eng.now(), call, 0, 0);
        fail_terminally(world, eng, id, &format!("unknown executor label {label:?}"));
        return id;
    };
    let retries = world.config.retries;
    let (id, ready) = world.dfk.submit(eng.now(), call, exec, retries);
    if ready {
        if !admit(world, eng, id, exec) {
            return id;
        }
        queue_push(world, exec, id);
        kick_executor(world, eng, exec);
    }
    id
}

/// Admission control for a ready task at submit time. Returns whether
/// the task may enter its executor queue; a refused task has already
/// been failed terminally. Tasks released later by completing
/// dependencies bypass this gate — their workflow was admitted whole,
/// and shedding the tail would waste the work sunk into the head.
fn admit(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, task: TaskId, exec: usize) -> bool {
    let ov = &world.config.overload;
    let now = eng.now();
    // Deadline-aware screening: estimate the queue wait from the service
    // estimates of everything already queued, spread over the executor's
    // live workers, and refuse work that cannot finish in time even if
    // nothing else goes wrong.
    if ov.deadline_admission {
        let dfk = &world.dfk;
        if let (Some(deadline), Some(est)) = (dfk.deadline(task), dfk.est_service(task)) {
            let live = world.live_workers(exec).max(1);
            let wait_est = world.queued_work(exec, est) / live as f64;
            if wait_est + est.as_secs_f64() > deadline.as_secs_f64() {
                world.overload.stats.tasks_rejected += 1;
                world.monitor.fault_event(
                    now,
                    FaultPhase::Detected,
                    "admission-reject",
                    None,
                    None,
                    format!(
                        "task {}: est wait {wait_est:.2}s + service {:.2}s exceeds deadline {:.2}s",
                        task.0,
                        est.as_secs_f64(),
                        deadline.as_secs_f64()
                    ),
                );
                fail_terminally(
                    world,
                    eng,
                    task,
                    "admission rejected: deadline unattainable",
                );
                return false;
            }
        }
    }
    // Bounded queue: past the cap, shed the oldest queued task (it has
    // waited longest and is the most likely to miss its deadline anyway).
    if let Some(cap) = ov.queue_cap {
        if world.queues[exec].len() >= cap {
            if let Some(victim) = queue_pop_front(world, exec) {
                world.overload.stats.tasks_shed += 1;
                world.monitor.fault_event(
                    now,
                    FaultPhase::Detected,
                    "queue-shed",
                    None,
                    None,
                    format!("task {}: shed for task {} (oldest)", victim.0, task.0),
                );
                fail_terminally(world, eng, victim, "shed: queue full (oldest)");
            }
        }
    }
    // An admitted first attempt funds its app's retry bucket.
    if world.config.overload.retry_budget {
        let app = world.dfk.task(task).app.clone();
        let tokens = world
            .overload
            .retry_tokens
            .entry(app)
            .or_insert(RETRY_BUDGET_BURST);
        *tokens = (*tokens + RETRY_BUDGET_RATIO).min(RETRY_BUDGET_BURST);
    }
    true
}

/// Fail a queued/ready task permanently (admission refusal, shed, or
/// suppressed retry): zero its remaining retries so the DFK cascades it
/// as fatal, then run the terminal bookkeeping `finish_task` would have.
fn fail_terminally(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, task: TaskId, error: &str) {
    let now = eng.now();
    world.dfk.task_mut(task).retries_left = 0;
    if let FailureOutcome::Fatal { cascade } = world.dfk.mark_failed(task, now, error) {
        for c in cascade {
            world.with_driver(eng, |d, w, e| d.on_task_done(w, e, c));
        }
    }
    world.checkpoints.remove(&task);
    world.with_driver(eng, |d, w, e| d.on_task_done(w, e, task));
}

/// Cancel a task that has not started running (queued, backing off
/// before a retry, or waiting on dependencies). Returns `true` on
/// success; running or settled tasks are not cancellable, matching
/// `concurrent.futures`, where `Future.cancel()` only succeeds before
/// execution begins. The task leaves its executor queue and fails
/// terminally with "cancelled", cascading to its dependents.
pub fn cancel(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, task: TaskId) -> bool {
    if !matches!(
        world.dfk.task(task).state,
        TaskState::Waiting | TaskState::Ready
    ) {
        return false;
    }
    for exec in 0..world.queues.len() {
        queue_remove(world, exec, task);
    }
    fail_terminally(world, eng, task, "cancelled");
    true
}

/// Hand queued tasks to idle workers of an executor.
pub fn kick_executor(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, exec: usize) {
    loop {
        if world.queues[exec].is_empty() {
            return;
        }
        let Some(wid) = world.dispatch_target(exec) else {
            return;
        };
        let task = queue_pop_front(world, exec).expect("non-empty");
        start_attempt(world, eng, wid, task, false);
    }
}

/// Is dispatch to `wid` blocked — by an active staged drain, or because
/// its device is under fail-slow probation (evacuated, canary pending)?
pub(crate) fn dispatch_blocked(world: &FaasWorld, wid: usize) -> bool {
    if world.reconfig.draining.contains(&wid) {
        return true;
    }
    world.recovery.probations_active > 0
        && world.workers[wid]
            .gpu
            .and_then(|(g, _)| world.recovery.gray_state(g))
            .is_some_and(|s| s.probation != Probation::Clear)
}

/// Start an attempt of `task` on idle worker `wid`: make its body, mark
/// the worker Busy, and deliver it after the wire dispatch latency. A
/// speculative hedge (`is_hedge`) leaves the DFK untouched — the task is
/// already `Running`, and hedge launches must not perturb the
/// dispatch/attempt accounting retries key off — and arms no gray-failure
/// detector. Either way the attempt flows through the normal
/// model-load/start-body path, including a checkpoint restore when the
/// task has a committed snapshot, so a hedge resumes instead of
/// cold-starting.
fn start_attempt(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    wid: usize,
    task: TaskId,
    is_hedge: bool,
) {
    let now = eng.now();
    if !is_hedge {
        world.dfk.mark_dispatched(task, now, wid);
    }
    world.transition(wid, WorkerState::Busy);
    let body = world.dfk.make_body(task, &mut world.workers[wid].rng);
    debug_assert!(body.is_some(), "a dispatched task is unsettled");
    // Guarded at the call site so the hot path skips the `format!` too.
    if world.monitor.record_worker_events {
        let hedge = if is_hedge { " (hedge)" } else { "" };
        world.monitor.worker_event(
            now,
            wid,
            WorkerEventKind::TaskStart,
            format!("task {}{hedge}", task.0),
        );
    }
    world.workers[wid].current = Some(Running {
        task,
        body,
        task_allocs: 0,
        loading: None,
        steps_issued: 0,
        ckpt_pending: false,
        progress_mark: None,
        is_hedge,
        last_progress: now,
        link_busy: false,
    });
    if !is_hedge {
        // Gray-failure detection rides on dispatch: both are cheap no-ops
        // (one flag test) unless their config knobs are set.
        arm_progress_watchdog(world, eng);
        arm_failslow(world, eng);
    }
    // Wire dispatch (interchange -> manager -> worker serialization).
    let delay = crate::wire::dispatch_latency();
    let epoch = world.workers[wid].epoch;
    eng.schedule_in(delay, move |w: &mut FaasWorld, e| {
        if w.workers[wid].epoch != epoch || w.workers[wid].state != WorkerState::Busy {
            return;
        }
        after_dispatch(w, e, wid);
    });
}

fn after_dispatch(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) {
    // Model load (§6 part 3) if this worker hasn't it resident.
    let model = world.workers[wid]
        .current
        .as_ref()
        .and_then(|r| r.body.as_ref())
        .and_then(|b| b.model());
    if let Some(m) = model {
        if !world.workers[wid].has_model(m.id) {
            begin_model_load(world, eng, wid, m);
            return;
        }
    }
    start_body(world, eng, wid);
}

fn begin_model_load(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    wid: usize,
    m: ModelProfile,
) {
    let Some((gpu, ctx)) = world.workers[wid].gpu else {
        finish_task(
            world,
            eng,
            wid,
            Err("model load requires a GPU worker".into()),
        );
        return;
    };
    if world.workers[wid].model_load_poisoned {
        // Injected transient OOM: the attempt fails, the worker survives,
        // and the retry (with backoff) loads cleanly.
        world.workers[wid].model_load_poisoned = false;
        world.monitor.fault_event(
            eng.now(),
            FaultPhase::Detected,
            "model-load-oom",
            None,
            None,
            format!("worker {wid}: model {} load hit transient OOM", m.id),
        );
        finish_task(
            world,
            eng,
            wid,
            Err("model load failed: injected out-of-memory".into()),
        );
        return;
    }
    // Decide the load path: stock (whole blob into the process context)
    // or through the §7 GPU-resident weight cache (shared weights pinned
    // device-wide, only private KV/workspace per process).
    let use_cache = world.weight_cache.enabled() && m.shared_bytes > 0;
    let (ctx_bytes, cache_bytes, secs) = if use_cache {
        if world.weight_cache.contains(gpu.0, m.id) {
            world.weight_cache.hits += 1;
            // Re-bind: pointer fix-up, no weight copy.
            (m.private_bytes(), 0, context::CACHED_ATTACH_S)
        } else {
            world.weight_cache.misses += 1;
            let lf = note_link_factor(world, gpu);
            let full = world.fleet.device(gpu).spec.model_load_seconds(m.bytes) / lf;
            (m.private_bytes(), m.shared_bytes, full)
        }
    } else {
        let lf = note_link_factor(world, gpu);
        let full = world.fleet.device(gpu).spec.model_load_seconds(m.bytes) / lf;
        (m.bytes, 0, full)
    };
    let now = eng.now();
    if cache_bytes > 0 {
        if let Err(e) = world.fleet.device_mut(gpu).cache_alloc(now, cache_bytes) {
            finish_task(world, eng, wid, Err(format!("model alloc failed: {e}")));
            return;
        }
        world.weight_cache.insert(gpu.0, m.id, cache_bytes);
    }
    if ctx_bytes > 0 {
        if let Err(e) = world
            .fleet
            .device_mut(gpu)
            .alloc_memory(now, ctx, ctx_bytes)
        {
            if cache_bytes > 0 {
                let _ = world.fleet.device_mut(gpu).cache_free(now, cache_bytes);
                world.weight_cache.remove(gpu.0, m.id);
            }
            finish_task(world, eng, wid, Err(format!("model alloc failed: {e}")));
            return;
        }
    }
    resync(world, eng, gpu);
    if let Some(r) = world.workers[wid].current.as_mut() {
        r.loading = Some(m);
    }
    let epoch = world.workers[wid].epoch;
    eng.schedule_in(
        SimDuration::from_secs_f64(secs),
        move |w: &mut FaasWorld, e| {
            if w.workers[wid].epoch != epoch || w.workers[wid].state != WorkerState::Busy {
                return;
            }
            {
                let wk = &mut w.workers[wid];
                wk.loaded_models.insert(m.id);
                wk.model_bytes += ctx_bytes;
                if let Some(r) = wk.current.as_mut() {
                    r.loading = None;
                }
            }
            start_body(w, e, wid);
        },
    );
}

fn start_body(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) {
    let now = eng.now();
    let task = world.workers[wid].current.as_ref().expect("running").task;
    world.dfk.mark_started(task, now);
    if let Some(r) = world.workers[wid].current.as_mut() {
        r.progress_mark = Some(now);
        r.last_progress = now;
    }
    arm_hedge(world, eng, wid, task);
    let ckpt_capable = world.workers[wid].gpu.is_some()
        && world.workers[wid]
            .current
            .as_ref()
            .and_then(|r| r.body.as_ref())
            .is_some_and(|b| b.checkpointable());
    if ckpt_capable {
        // Restore-on-respawn: a retried attempt with a committed
        // snapshot pays the host→device restore transfer, then
        // fast-forwards its fresh body to the snapshot cursor instead of
        // re-executing from scratch.
        let snapshot = world.checkpoints.get(&task).copied();
        if let (Some(ck), Some((gpu, _))) = (snapshot, world.workers[wid].gpu) {
            if ck.steps > 0 {
                let lf = note_link_factor(world, gpu);
                let secs = world
                    .fleet
                    .device(gpu)
                    .spec
                    .checkpoint_restore_seconds(ck.bytes)
                    / lf;
                world.recovery.stats.tasks_resumed += 1;
                world.monitor.fault_event(
                    now,
                    FaultPhase::Recovered,
                    "checkpoint-restore",
                    None,
                    None,
                    format!(
                        "task {}: resuming from step {} ({} bytes, {secs:.3}s restore)",
                        task.0, ck.steps, ck.bytes
                    ),
                );
                let epoch = world.workers[wid].epoch;
                if let Some(r) = world.workers[wid].current.as_mut() {
                    // The restore transfer is priced, not kernel-backed:
                    // exempt it from the progress watchdog.
                    r.link_busy = true;
                }
                eng.schedule_in(
                    SimDuration::from_secs_f64(secs),
                    move |w: &mut FaasWorld, e| {
                        if !w.workers[wid].on_attempt(epoch, task) {
                            return;
                        }
                        if let Some(r) = w.workers[wid].current.as_mut() {
                            r.link_busy = false;
                            r.last_progress = e.now();
                        }
                        if fast_forward(w, e, wid, ck.steps) {
                            arm_checkpoint(w, e, wid, task);
                            advance_worker(w, e, wid);
                        }
                    },
                );
                return;
            }
        }
        arm_checkpoint(world, eng, wid, task);
    }
    advance_worker(world, eng, wid);
}

/// Ask a busy worker to snapshot at its next step boundary (staged-drain
/// support: preserve in-flight progress before a planned restart). No-op
/// for idle workers, CPU-only workers, and non-checkpointable bodies.
pub(crate) fn request_checkpoint(world: &mut FaasWorld, wid: usize) {
    if world.workers[wid].gpu.is_none() {
        return;
    }
    if let Some(r) = world.workers[wid].current.as_mut() {
        if r.body.as_ref().is_some_and(|b| b.checkpointable()) {
            r.ckpt_pending = true;
        }
    }
}

/// Arm the (jittered) checkpoint timer for a checkpointable attempt. The
/// timer only *requests* a snapshot; it is captured at the next step
/// boundary so it is always consistent with completed work.
fn arm_checkpoint(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize, task: TaskId) {
    let Some(interval) = world.config.checkpoint_interval else {
        return;
    };
    let mult = 1.0 + CHECKPOINT_JITTER * world.recovery.ckpt_rng.f64();
    let epoch = world.workers[wid].epoch;
    eng.schedule_in(
        SimDuration::from_secs_f64(interval.as_secs_f64() * mult),
        move |w: &mut FaasWorld, _e| {
            if !w.workers[wid].on_attempt(epoch, task) {
                return; // attempt ended; the timer dies with it
            }
            if let Some(r) = w.workers[wid].current.as_mut() {
                r.ckpt_pending = true;
            }
        },
    );
}

/// Capture a snapshot at a step boundary and stall the body for the
/// device-priced writeback. The commit is epoch-guarded: a worker killed
/// mid-write never publishes a torn snapshot. Returns whether the body
/// stalled (caller returns) or the snapshot was skipped (caller keeps
/// advancing).
fn begin_checkpoint(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) -> bool {
    let now = eng.now();
    let (task, steps, bytes) = {
        let Some(r) = world.workers[wid].current.as_mut() else {
            return false;
        };
        r.ckpt_pending = false;
        let durable = r.body.as_ref().map(|b| b.checkpoint_bytes()).unwrap_or(0);
        (
            r.task,
            r.steps_issued,
            durable + r.task_allocs + CHECKPOINT_BASE_BYTES,
        )
    };
    let Some((gpu, _)) = world.workers[wid].gpu else {
        return false;
    };
    if steps == 0 {
        // Nothing completed yet; try again one interval later.
        arm_checkpoint(world, eng, wid, task);
        return false;
    }
    let lf = note_link_factor(world, gpu);
    let write = world.fleet.device(gpu).spec.checkpoint_write_seconds(bytes) / lf;
    let stall = CHECKPOINT_OVERHEAD + SimDuration::from_secs_f64(write);
    let captured_at = now;
    let epoch = world.workers[wid].epoch;
    if let Some(r) = world.workers[wid].current.as_mut() {
        // Writeback stall is priced, not kernel-backed: exempt it from
        // the progress watchdog for its (possibly link-degraded) length.
        r.link_busy = true;
        r.last_progress = now;
    }
    eng.schedule_in(stall, move |w: &mut FaasWorld, e| {
        if !w.workers[wid].on_attempt(epoch, task) {
            return; // died mid-write: the previous snapshot stands
        }
        w.checkpoints.insert(
            task,
            Checkpoint {
                steps,
                bytes,
                captured_at,
            },
        );
        w.recovery.stats.checkpoints_committed += 1;
        if let Some(r) = w.workers[wid].current.as_mut() {
            r.progress_mark = Some(captured_at);
            r.link_busy = false;
            r.last_progress = e.now();
        }
        w.monitor.fault_event(
            e.now(),
            FaultPhase::Recovered,
            "checkpoint-commit",
            None,
            None,
            format!("task {}: step {steps} ({bytes} bytes)", task.0),
        );
        arm_checkpoint(w, e, wid, task);
        advance_worker(w, e, wid);
    });
    true
}

/// Replay a fresh body up to `steps` completed steps without simulating
/// time: compute and kernel steps are skipped outright (their effects
/// were captured in the snapshot), while allocation steps are applied so
/// device memory accounting matches the restored state. Returns `false`
/// if the task settled during replay (short body, allocation failure).
fn fast_forward(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    wid: usize,
    steps: u64,
) -> bool {
    let now = eng.now();
    for _ in 0..steps {
        let Some(step) = next_step(world, wid, now) else {
            return false;
        };
        match step {
            TaskStep::Cpu(_) | TaskStep::Gpu(_) => {}
            TaskStep::AllocGpu(_) | TaskStep::FreeGpu(_) => {
                let alloc = matches!(step, TaskStep::AllocGpu(_));
                if let Err(e) =
                    apply_mem_step(world, eng, wid, step, "checkpoint restore alloc failed")
                {
                    if alloc {
                        // The restored state no longer fits; drop the
                        // snapshot so the next attempt re-executes.
                        if let Some(t) = world.workers[wid].current_task() {
                            world.checkpoints.remove(&t);
                        }
                    }
                    finish_task(world, eng, wid, Err(e));
                    return false;
                }
            }
            TaskStep::Done => {
                // The fresh body ran out before the snapshot cursor
                // (e.g. the snapshot outlived a shrunken replay) — it is
                // simply complete.
                finish_task(world, eng, wid, Ok(()));
                return false;
            }
        }
    }
    true
}

/// Pull the attempt's next body step, counting every step but `Done` in
/// `steps_issued` (so at a step boundary it equals the completed steps).
/// `None` when the worker holds no body (a spurious resume).
fn next_step(world: &mut FaasWorld, wid: usize, now: SimTime) -> Option<TaskStep> {
    let Worker { current, rng, .. } = &mut world.workers[wid];
    let r = current.as_mut()?;
    let step = r.body.as_mut()?.next(&mut TaskCtx { rng, now });
    if !matches!(step, TaskStep::Done) {
        r.steps_issued += 1;
    }
    Some(step)
}

/// Apply an `AllocGpu`/`FreeGpu` step to the worker's context, tracking
/// the attempt's scratch bytes. `Err` carries the attempt's failure
/// message; a refused allocation reads `"{alloc_failed}: {error}"`.
fn apply_mem_step(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    wid: usize,
    step: TaskStep,
    alloc_failed: &str,
) -> Result<(), String> {
    let (bytes, alloc) = match step {
        TaskStep::AllocGpu(bytes) => (bytes, true),
        TaskStep::FreeGpu(bytes) => (bytes, false),
        _ => return Ok(()),
    };
    let Some((gpu, ctx)) = world.workers[wid].gpu else {
        let op = if alloc { "alloc" } else { "free" };
        return Err(format!("GPU {op} on CPU-only worker"));
    };
    let now = eng.now();
    let dev = world.fleet.device_mut(gpu);
    if alloc {
        dev.alloc_memory(now, ctx, bytes)
            .map_err(|e| format!("{alloc_failed}: {e}"))?;
    } else {
        dev.free_memory(now, ctx, bytes)
            .map_err(|e| format!("free failed: {e}"))?;
    }
    if let Some(r) = world.workers[wid].current.as_mut() {
        r.task_allocs = if alloc {
            r.task_allocs + bytes
        } else {
            r.task_allocs.saturating_sub(bytes)
        };
    }
    resync(world, eng, gpu);
    Ok(())
}

/// Drive the current task body until it blocks or finishes.
fn advance_worker(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) {
    // A zombified worker keeps its heartbeat (state stays Busy) but its
    // execution loop is wedged: it never reaches another step boundary.
    if world.workers[wid].zombie {
        return;
    }
    loop {
        let now = eng.now();
        // Step boundary: the progress watchdog's definition of liveness.
        if let Some(r) = world.workers[wid].current.as_mut() {
            r.last_progress = now;
        }
        // Step boundary: every previously issued step has completed. If
        // the checkpoint timer fired since the last boundary, capture a
        // snapshot here (stalling the body for the writeback).
        if world.workers[wid]
            .current
            .as_ref()
            .is_some_and(|r| r.ckpt_pending)
            && begin_checkpoint(world, eng, wid)
        {
            return; // resumed by the snapshot commit
        }
        let Some(step) = next_step(world, wid, now) else {
            return; // spurious resume
        };
        match step {
            TaskStep::Cpu(d) => {
                // Core contention via exact egalitarian processor
                // sharing: the step is a job of `d` core-seconds in the
                // node's pool; with more compute-bound workers than
                // cores, everyone slows proportionally (and speeds back
                // up as the pool drains).
                let epoch = world.workers[wid].epoch;
                let job = world.cpu_pool.add(now, d.as_secs_f64());
                world.cpu_jobs.insert(job, (wid, epoch));
                cpu_resync(world, eng);
                return;
            }
            TaskStep::Gpu(desc) => {
                let Some((gpu, ctx)) = world.workers[wid].gpu else {
                    finish_task(world, eng, wid, Err("GPU step on CPU-only worker".into()));
                    return;
                };
                let seq = {
                    let w = &mut world.workers[wid];
                    w.kernel_seq += 1;
                    w.awaiting_kernel = Some(w.kernel_seq);
                    w.kernel_seq
                };
                match launch_kernel(world, eng, gpu, ctx, desc, pack_kernel_tag(wid, seq)) {
                    Ok(_) => return, // resumed by on_kernel_done
                    Err(e) => {
                        world.workers[wid].awaiting_kernel = None;
                        finish_task(world, eng, wid, Err(format!("kernel launch failed: {e}")));
                        return;
                    }
                }
            }
            TaskStep::AllocGpu(_) | TaskStep::FreeGpu(_) => {
                if let Err(e) = apply_mem_step(world, eng, wid, step, "allocation failed") {
                    finish_task(world, eng, wid, Err(e));
                    return;
                }
            }
            TaskStep::Done => {
                finish_task(world, eng, wid, Ok(()));
                return;
            }
        }
    }
}

/// Re-arm the single wake event for the CPU processor-sharing pool.
fn cpu_resync(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    if let Some(ev) = world.cpu_event.take() {
        eng.cancel(ev);
    }
    let now = eng.now();
    if let Some((_, at)) = world.cpu_pool.next_completion(now) {
        let at = at.saturating_add(SimDuration::from_nanos(1));
        world.cpu_event = Some(eng.schedule_at(at, cpu_tick));
    }
}

/// Pool wake: resume every worker whose CPU step finished.
fn cpu_tick(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    world.cpu_event = None;
    let now = eng.now();
    let done = world.cpu_pool.take_finished(now);
    for job in done {
        if let Some((wid, epoch)) = world.cpu_jobs.remove(&job) {
            if world.workers[wid].epoch == epoch && world.workers[wid].state == WorkerState::Busy {
                advance_worker(world, eng, wid);
            }
        }
    }
    cpu_resync(world, eng);
}

/// Drop any CPU-pool jobs belonging to `wid` (its task ended or the
/// worker died); remaining workers speed up accordingly.
fn cancel_cpu_jobs(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) {
    let now = eng.now();
    let mine: Vec<PsJobId> = world
        .cpu_jobs
        .iter()
        .filter(|(_, (w, _))| *w == wid)
        .map(|(j, _)| *j)
        .collect();
    if mine.is_empty() {
        return;
    }
    for j in mine {
        world.cpu_jobs.remove(&j);
        let _ = world.cpu_pool.remove(now, j);
    }
    cpu_resync(world, eng);
}

/// Arm the straggler-hedge timer for a freshly started *primary*
/// attempt: after `est_service * trigger * (1 + HEDGE_JITTER * U[0,1))`
/// the attempt is a straggler suspect and a duplicate is launched if
/// capacity allows. Hedge attempts and tasks without a service estimate
/// never arm.
fn arm_hedge(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize, task: TaskId) {
    let Some(trigger) = world.config.overload.hedge_trigger else {
        return;
    };
    let is_hedge = world.workers[wid]
        .current
        .as_ref()
        .is_some_and(|r| r.is_hedge);
    if is_hedge || world.overload.hedges.contains_key(&task) {
        return;
    }
    let Some(est) = world.dfk.est_service(task) else {
        return;
    };
    let mult = 1.0 + HEDGE_JITTER * world.overload.hedge_rng.f64();
    let delay = SimDuration::from_secs_f64(est.as_secs_f64() * trigger * mult);
    schedule_hedge_timer(world, eng, wid, task, delay);
}

/// (Re-)arm the hedge timer; the closure self-cancels if the primary
/// attempt moved on (finished, died, or was superseded).
fn schedule_hedge_timer(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    wid: usize,
    task: TaskId,
    delay: SimDuration,
) {
    let epoch = world.workers[wid].epoch;
    eng.schedule_in(delay, move |w: &mut FaasWorld, e| {
        if !w.workers[wid].on_attempt(epoch, task) || w.overload.hedges.contains_key(&task) {
            return;
        }
        try_launch_hedge(w, e, wid, task, delay);
    });
}

/// Launch a duplicate of `task` (running on `wid`) on an idle worker of
/// the same executor, preferring a different GPU. Queued first-attempt
/// work always outranks speculation: with a backlog (or no idle worker)
/// the timer re-arms instead.
fn try_launch_hedge(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    wid: usize,
    task: TaskId,
    delay: SimDuration,
) {
    let exec = world.workers[wid].executor;
    if !world.queues[exec].is_empty() {
        schedule_hedge_timer(world, eng, wid, task, delay);
        return;
    }
    let my_gpu = world.workers[wid].gpu.map(|(g, _)| g);
    // Prefer a different GPU; ties to the lowest id: the first idle id on
    // another device wins, else the first idle id overall.
    let mut same_gpu = None;
    let mut other_gpu = None;
    for cand in world.idle_workers(exec) {
        if cand == wid || dispatch_blocked(world, cand) {
            continue;
        }
        if world.workers[cand].gpu.map(|(g, _)| g) != my_gpu {
            other_gpu = Some(cand);
            break;
        }
        if same_gpu.is_none() {
            same_gpu = Some(cand);
        }
    }
    let Some(hw) = other_gpu.or(same_gpu) else {
        schedule_hedge_timer(world, eng, wid, task, delay);
        return;
    };
    world.overload.hedges.insert(
        task,
        HedgePair {
            primary: wid,
            hedge: hw,
        },
    );
    world.overload.stats.hedges_launched += 1;
    world.monitor.fault_event(
        eng.now(),
        FaultPhase::Detected,
        "hedge-launched",
        None,
        Some(hw),
        format!(
            "task {}: straggler suspect on worker {wid}, duplicate on worker {hw}",
            task.0
        ),
    );
    start_attempt(world, eng, hw, task, true);
}

/// After a hedged task's winner completes, tear the loser down one
/// control-plane round-trip ([`HEDGE_CANCEL_LATENCY`]) later.
fn schedule_hedge_cancel(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    wid: usize,
    task: TaskId,
) {
    let epoch = world.workers[wid].epoch;
    eng.schedule_in(HEDGE_CANCEL_LATENCY, move |w: &mut FaasWorld, e| {
        if w.workers[wid].on_attempt(epoch, task) {
            cancel_attempt(w, e, wid);
        }
    });
}

/// Tear down a worker's in-flight attempt without touching the task
/// table — the task already settled via its hedge partner. The worker's
/// kernel is aborted, CPU jobs dropped, scratch freed, and the worker
/// returns to Idle. Deliberately *not* charged to `work_lost_s`: a
/// cancelled loser is the designed cost of speculation (counted in
/// `hedges_wasted`/`hedges_won`), not failure-induced loss.
fn cancel_attempt(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) {
    abort_kernel(world, eng, wid);
    if release_attempt(world, eng, wid, "cancelled (hedge loser)").is_none() {
        return;
    }
    if world.reconfig.is_draining(wid) {
        note_drained(world, eng, wid);
    }
    kick_executor(world, eng, world.workers[wid].executor);
}

/// Abort the worker's in-flight kernel so it stops burning SMs and its
/// completion can never resume the attempt.
fn abort_kernel(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) {
    if let (Some((gpu, _ctx)), Some(seq)) =
        (world.workers[wid].gpu, world.workers[wid].awaiting_kernel)
    {
        world
            .fleet
            .device_mut(gpu)
            .abort_tagged(eng.now(), pack_kernel_tag(wid, seq));
        resync(world, eng, gpu);
    }
}

/// Unwind the worker side of an attempt: drop its CPU jobs, free its
/// scratch allocations, log `TaskEnd` with `outcome`, and return a Busy
/// worker to Idle. Returns the attempt, or `None` when the worker held
/// none.
fn release_attempt(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    wid: usize,
    outcome: &str,
) -> Option<Running> {
    let now = eng.now();
    world.workers[wid].awaiting_kernel = None;
    cancel_cpu_jobs(world, eng, wid);
    let run = world.workers[wid].current.take()?;
    // Release the task's scratch allocations (a well-behaved function
    // frees per-request tensors; the worker enforces it on failure too).
    if run.task_allocs > 0 {
        if let Some((gpu, ctx)) = world.workers[wid].gpu {
            let _ = world
                .fleet
                .device_mut(gpu)
                .free_memory(now, ctx, run.task_allocs);
            resync(world, eng, gpu);
        }
    }
    if world.monitor.record_worker_events {
        world.monitor.worker_event(
            now,
            wid,
            WorkerEventKind::TaskEnd,
            format!("task {} {outcome}", run.task.0),
        );
    }
    // Only a live worker returns to Idle; a worker being torn down
    // (kill_worker marks it Dead before failing its task) must stay Dead
    // so the requeued task cannot land back on it.
    if world.workers[wid].state == WorkerState::Busy {
        world.transition(wid, WorkerState::Idle);
    }
    Some(run)
}

fn finish_task(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    wid: usize,
    result: Result<(), String>,
) {
    let now = eng.now();
    let outcome = if result.is_ok() { "ok" } else { "failed" };
    let Some(run) = release_attempt(world, eng, wid, outcome) else {
        return;
    };
    // Completion is idempotent per task id: a hedge loser finishing (or
    // failing) after its partner already settled the task must not touch
    // the DFK, the counters, or the driver a second time.
    let already_done = world.dfk.task(run.task).state == TaskState::Done;
    // A failed attempt throws away everything since its last committed
    // snapshot (or since its body started, when none committed). A loser
    // outliving a settled task is discarded speculation, not loss.
    if result.is_err() && !already_done {
        if let Some(mark) = run.progress_mark {
            world.recovery.stats.work_lost_s += now.duration_since(mark).as_secs_f64();
        }
    }
    // The first attempt of a live hedge pair to finish — either way —
    // dissolves the pair; the other attempt becomes sole owner (Err) or
    // a cancellation target (Ok).
    let hedge = world.overload.hedges.remove(&run.task);
    let terminal = match result {
        Ok(()) if already_done => false,
        Ok(()) => {
            if let Some(pair) = hedge {
                let loser = if wid == pair.hedge {
                    world.overload.stats.hedges_won += 1;
                    pair.primary
                } else {
                    world.overload.stats.hedges_wasted += 1;
                    pair.hedge
                };
                schedule_hedge_cancel(world, eng, loser, run.task);
            }
            world.workers[wid].tasks_completed += 1;
            {
                // Live SLO telemetry: fold the turnaround into the
                // executor's EWMA for the closed-loop controller.
                let t = world.dfk.task(run.task);
                let (texec, submitted) = (t.executor as usize, t.submitted);
                world
                    .monitor
                    .note_latency(texec, now, now.duration_since(submitted).as_secs_f64());
            }
            let ready = world.dfk.mark_done(run.task, now);
            for r in ready {
                let rexec = world.dfk.task(r).executor as usize;
                queue_push(world, rexec, r);
            }
            true
        }
        Err(_) if already_done => false,
        Err(_) if hedge.is_some() => {
            // One attempt of a live pair died (crash, kill, fault);
            // the surviving partner is now the defined winner path and
            // the task stays Running on it. No retry, no DFK failure.
            false
        }
        Err(e) => match world.dfk.mark_failed(run.task, now, &e) {
            FailureOutcome::Retry => {
                schedule_retry(world, eng, run.task);
                false
            }
            FailureOutcome::Fatal { cascade } => {
                for c in &cascade {
                    let task = *c;
                    world.with_driver(eng, |d, w, e| d.on_task_done(w, e, task));
                }
                true
            }
        },
    };
    if terminal || already_done {
        // Settled: snapshot no longer needed. The `already_done` arm also
        // purges here because a loser can commit one more snapshot after
        // the winner's terminal removal (its commit guard only checks it
        // is still on the task), which would otherwise leak forever.
        world.checkpoints.remove(&run.task);
    }
    if terminal {
        let task = run.task;
        world.with_driver(eng, |d, w, e| d.on_task_done(w, e, task));
    }
    // A draining worker's attempt just unwound; this may complete the
    // drain (and run its reconfig transaction) before the queues below
    // are kicked against the post-reconfig worker set.
    if world.reconfig.is_draining(wid) {
        note_drained(world, eng, wid);
    }
    // Kick every executor: completions may have released tasks elsewhere.
    for e in 0..world.queues.len() {
        kick_executor(world, eng, e);
    }
}

/// Kill a worker process (§6 reconfiguration or another platform
/// teardown). The in-flight task, if any, fails with `reason` (and
/// retries elsewhere).
pub fn kill_worker(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize, reason: &str) {
    let now = eng.now();
    if world.workers[wid].state == WorkerState::Dead {
        return;
    }
    // Mark the worker Dead *before* failing its task: finish_task kicks
    // the executor queues, and the retried task must not be re-assigned
    // to the very worker being torn down.
    world.transition(wid, WorkerState::Dead);
    if world.workers[wid].current.is_some() {
        finish_task(world, eng, wid, Err(format!("worker killed: {reason}")));
    }
    debug_assert!(
        world.workers[wid].current.is_none(),
        "teardown leaves no task behind"
    );
    end_incarnation(world, eng, wid, None);
    world
        .monitor
        .worker_event(now, wid, WorkerEventKind::Killed, reason.to_string());
}

/// Tear down a worker's process: bump the epoch (timers of the old
/// incarnation go stale), forget its resident models, and destroy its
/// GPU context. `crashed_at` is the crash instant of a silent crash and
/// `None` for a kill.
fn end_incarnation(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    wid: usize,
    crashed_at: Option<SimTime>,
) {
    let now = eng.now();
    {
        let w = &mut world.workers[wid];
        w.epoch += 1;
        w.awaiting_kernel = None;
        w.loaded_models.clear();
        w.model_bytes = 0;
        w.ready_at = None;
        w.crashed_at = crashed_at;
        w.zombie = false;
    }
    let binding = world.workers[wid].gpu;
    world.bind_gpu(wid, None);
    if let Some((gpu, ctx)) = binding {
        let _ = world.fleet.device_mut(gpu).destroy_context(now, ctx);
        resync(world, eng, gpu);
    }
}

/// Why [`respawn_worker`] refused to act.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespawnError {
    /// The worker id does not exist.
    UnknownWorker(usize),
    /// The worker is not `Dead` (respawning a live or still-crashed
    /// worker would leak its context and task).
    NotDead {
        /// The worker that was targeted.
        worker: usize,
        /// Its actual state.
        state: WorkerState,
    },
}

impl std::fmt::Display for RespawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RespawnError::UnknownWorker(w) => write!(f, "unknown worker {w}"),
            RespawnError::NotDead { worker, state } => {
                write!(f, "worker {worker} is {state:?}, not Dead")
            }
        }
    }
}

impl std::error::Error for RespawnError {}

/// Restart a dead worker, optionally with a new accelerator binding — the
/// §6 MPS-resize path (process restart to change the GPU percentage).
///
/// Returns an error (instead of panicking) when the worker is unknown or
/// not `Dead`; the world is left untouched in that case.
pub fn respawn_worker(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    wid: usize,
    new_accel: Option<AcceleratorSpec>,
) -> Result<(), RespawnError> {
    {
        let Some(w) = world.workers.get_mut(wid) else {
            return Err(RespawnError::UnknownWorker(wid));
        };
        if w.state != WorkerState::Dead {
            return Err(RespawnError::NotDead {
                worker: wid,
                state: w.state,
            });
        }
        if let Some(a) = new_accel {
            w.accel = Some(a);
        }
    }
    world.transition(wid, WorkerState::Provisioning);
    schedule_spawn(world, eng, wid);
    Ok(())
}

/// Add a brand-new worker bound to `accel` to an executor at runtime
/// (§2.1's "rapid spin up of function instances"; the brownout tier's
/// scale-out). Returns the new worker's id, or `None` (without touching
/// the world) when `exec` is out of range.
pub fn add_worker(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    exec: usize,
    accel: AcceleratorSpec,
) -> Option<usize> {
    let id = world.workers.len();
    let ex = world.config.executors.get(exec)?;
    // `total` tracks per-executor membership exactly (workers never
    // migrate), replacing the filter-count scan.
    let within = world.index.total[exec];
    let rng = world.rng.split(streams::WORKER_BASE + id as u64);
    world.workers.push(Worker::new(
        id,
        exec,
        format!("{}.w{}", ex.label, within),
        Some(accel),
        eng.now(),
        rng,
    ));
    world
        .index
        .register_worker(id, exec, WorkerState::Provisioning);
    schedule_spawn(world, eng, id);
    Some(id)
}

// ---------------------------------------------------------------------
// Failure detection & recovery
// ---------------------------------------------------------------------

/// Crash a worker process *silently*: the process is gone, but unlike
/// [`kill_worker`] the platform does not notice — the in-flight task stays
/// `Running` and the worker stays occupied until the heartbeat watchdog
/// times out and declares it dead. This is the injection point for
/// process-crash faults.
pub fn crash_worker(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize, reason: &str) {
    let now = eng.now();
    let Some(w) = world.workers.get(wid) else {
        return;
    };
    if matches!(w.state, WorkerState::Dead | WorkerState::Crashed) {
        return;
    }
    // The process is gone: its CPU jobs stop consuming cores and the
    // driver reaps its GPU context (kernels die with it). The *platform*
    // still believes the worker is alive — the task table is untouched.
    cancel_cpu_jobs(world, eng, wid);
    world.transition(wid, WorkerState::Crashed);
    end_incarnation(world, eng, wid, Some(now));
    world.recovery.stats.workers_lost += 1;
    world
        .monitor
        .worker_event(now, wid, WorkerEventKind::Crashed, reason.to_string());
    arm_watchdog(world, eng);
}

/// Start the heartbeat watchdog if it is not already ticking. It disarms
/// itself once no crashed-but-undetected workers remain, so an idle
/// platform's event queue still drains.
pub(crate) fn arm_watchdog(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    if world.recovery.watchdog_armed {
        return;
    }
    world.recovery.watchdog_armed = true;
    eng.schedule_in(HEARTBEAT_PERIOD, watchdog_tick);
}

fn watchdog_tick(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    let now = eng.now();
    let timeout = world.config.recovery.heartbeat_timeout;
    let expired: Vec<usize> = world
        .crashed_workers()
        .filter(|&wid| {
            world.workers[wid]
                .crashed_at
                .is_some_and(|t0| now.duration_since(t0) >= timeout)
        })
        .collect();
    for wid in expired {
        detect_worker_death(world, eng, wid);
    }
    if world.crashed_workers().next().is_some() {
        eng.schedule_in(HEARTBEAT_PERIOD, watchdog_tick);
    } else {
        world.recovery.watchdog_armed = false;
    }
}

/// The watchdog noticed a crashed worker: tear it down (failing its task,
/// which re-queues with backoff) and start a budgeted respawn.
fn detect_worker_death(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) {
    let now = eng.now();
    let silent = world.workers[wid]
        .crashed_at
        .map(|t0| now.duration_since(t0).as_secs_f64())
        .unwrap_or(0.0);
    world.recovery.stats.crashes_detected += 1;
    world.monitor.fault_event(
        now,
        FaultPhase::Detected,
        "worker-crash",
        None,
        Some(wid),
        format!("heartbeat silent for {silent:.2}s"),
    );
    kill_worker(world, eng, wid, "heartbeat timeout");
    if let Some(gpu) = worker_target_gpu(world, wid) {
        if gpu_quarantined(world, gpu) {
            world.recovery.health_mut(gpu).parked.push(wid);
            return;
        }
    }
    auto_respawn(world, eng, wid);
}

/// Respawn a dead worker if its restart budget allows; marks it
/// `recovering` so the fault incident closes (MTTR) when it comes back
/// `Idle`. Returns whether a respawn was started. Public because a failed
/// MPS-resize commit recovers its victims through this budgeted path —
/// the rollback consumes restart budget, exactly like a fault would.
pub fn auto_respawn(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, wid: usize) -> bool {
    let now = eng.now();
    let budget = world.config.recovery.restart_budget;
    let used = world.workers[wid].restarts_used;
    if used >= budget {
        world.monitor.fault_event(
            now,
            FaultPhase::Detected,
            "restart-budget-exhausted",
            None,
            Some(wid),
            format!("{used}/{budget} restarts used; worker stays down"),
        );
        // The worker is gone for good: its executor's queue would wait on
        // it forever.
        fail_over_queues(world, eng);
        return false;
    }
    world.workers[wid].restarts_used = used + 1;
    world.workers[wid].recovering = true;
    if respawn_worker(world, eng, wid, None).is_err() {
        world.workers[wid].recovering = false;
        return false;
    }
    world.recovery.stats.respawns += 1;
    world.monitor.worker_event(
        now,
        wid,
        WorkerEventKind::Respawned,
        format!("automatic restart {}/{budget}", used + 1),
    );
    true
}

// ---------------------------------------------------------------------
// Gray-failure detection: progress watchdog, peer-relative fail-slow
// probation, canary probes
// ---------------------------------------------------------------------

/// Fold an observed kernel-step duration into the device's fail-slow
/// EWMA. Called from `on_kernel_done` only when fail-slow detection is
/// on, so undetected runs pay one flag test per completion.
fn note_step_sample(world: &mut FaasWorld, gpu: GpuId, obs_s: f64) {
    let slot = world.recovery.gray_mut(gpu);
    slot.step_ewma = Some(match slot.step_ewma {
        None => obs_s,
        Some(p) => p + FAIL_SLOW_ALPHA * (obs_s - p),
    });
    slot.step_samples += 1;
}

/// Current link-rate multiplier for a device, feeding the observation
/// (as the observed/nominal slowdown ratio) into the fail-slow link EWMA
/// when detection is on. Callers divide their nominal transfer
/// seconds by the returned factor, so a flaky link stretches checkpoint
/// writes/restores and model loads — and leaves evidence behind.
fn note_link_factor(world: &mut FaasWorld, gpu: GpuId) -> f64 {
    let lf = world.recovery.link_factor(gpu);
    if world.config.recovery.fail_slow {
        let ratio = 1.0 / lf;
        let slot = world.recovery.gray_mut(gpu);
        slot.link_ewma = Some(match slot.link_ewma {
            None => ratio,
            Some(p) => p + FAIL_SLOW_ALPHA * (ratio - p),
        });
    }
    lf
}

/// Start the progress watchdog if configured and not already ticking.
/// Armed from dispatch and from zombie injection; disarms itself when no
/// busy workers remain (so an idle platform's event queue still drains).
pub(crate) fn arm_progress_watchdog(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    if world.config.recovery.progress_timeout.is_none() || world.recovery.progress_watchdog_armed {
        return;
    }
    world.recovery.progress_watchdog_armed = true;
    eng.schedule_in(HEARTBEAT_PERIOD, progress_tick);
}

/// The progress watchdog: a busy worker whose heartbeats are healthy but
/// whose attempt has not reached a progress point (dispatch, body start,
/// step boundary, checkpoint capture/commit, restore completion) for
/// `progress_timeout` is declared gray and recovered through the normal
/// kill/retry/respawn path. Workers that are *legitimately* silent —
/// paused by a staged drain, stalled on a priced link transfer, or
/// mid-model-load — are exempt.
fn progress_tick(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    let now = eng.now();
    let Some(timeout) = world.config.recovery.progress_timeout else {
        world.recovery.progress_watchdog_armed = false;
        return;
    };
    // The scan list is reused from tick to tick: this runs every
    // heartbeat period for the whole run.
    let mut busy = std::mem::take(&mut world.recovery.progress_scan);
    busy.clear();
    busy.extend(world.busy_workers());
    for &wid in &busy {
        if world.workers[wid].state != WorkerState::Busy {
            continue; // torn down earlier this tick (blast radius)
        }
        let silent = {
            let Some(r) = world.workers[wid].current.as_ref() else {
                continue;
            };
            if r.loading.is_some() || r.link_busy || world.reconfig.is_draining(wid) {
                continue;
            }
            let gap = now.duration_since(r.last_progress);
            if gap < timeout {
                continue;
            }
            gap.as_secs_f64()
        };
        world.recovery.gray.progress_kills += 1;
        fault_kill_worker(
            world,
            eng,
            wid,
            "gray-progress",
            &format!(
                "heartbeats healthy but no step progress for {silent:.2}s \
                 (timeout {:.2}s); zombie suspected",
                timeout.as_secs_f64()
            ),
        );
        if let Some(gpu) = worker_target_gpu(world, wid) {
            if gpu_quarantined(world, gpu) {
                world.recovery.health_mut(gpu).parked.push(wid);
                continue;
            }
        }
        auto_respawn(world, eng, wid);
    }
    world.recovery.progress_scan = busy;
    if world.busy_workers().next().is_some() {
        eng.schedule_in(HEARTBEAT_PERIOD, progress_tick);
    } else {
        world.recovery.progress_watchdog_armed = false;
    }
}

/// Start the peer-relative fail-slow detector if it is on and not
/// already ticking. Armed from dispatch; disarms itself once all tasks
/// settle and no worker is active.
pub(crate) fn arm_failslow(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    if !world.config.recovery.fail_slow || world.recovery.failslow_armed {
        return;
    }
    world.recovery.failslow_armed = true;
    eng.schedule_in(FAIL_SLOW_CHECK_PERIOD, failslow_tick);
}

/// The fail-slow detector: score each device's step EWMA against its
/// *same-sharing-mode peers* and its link EWMA against the (absolutely
/// known) nominal link rate; suspects go on probation.
///
/// Peer-relative scoring is what keeps a device-wide straggler episode
/// from being misdiagnosed as N bad workers: every worker on the slow
/// device reports long steps, so per-worker scoring would kill them all,
/// while the device-level EWMA stands out against its healthy same-mode
/// peers and triggers *one* probation. Comparing only within a sharing
/// mode keeps mode-induced duration differences (an MPS percentage vs a
/// MIG slice) from looking like failures.
fn failslow_tick(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    if !world.config.recovery.fail_slow {
        world.recovery.failslow_armed = false;
        return;
    }
    let mut groups: BTreeMap<&'static str, Vec<(u32, f64)>> = BTreeMap::new();
    let tracked = world.recovery.gray_len().min(world.fleet.len());
    for g in 0..tracked as u32 {
        let Some(slot) = world.recovery.gray_state(GpuId(g)) else {
            continue;
        };
        if slot.step_samples < FAIL_SLOW_MIN_SAMPLES {
            continue;
        }
        let Some(e) = slot.step_ewma else { continue };
        groups
            .entry(world.fleet.device(GpuId(g)).mode().name())
            .or_default()
            .push((g, e));
    }
    let mut suspects: Vec<(u32, String)> = Vec::new();
    for (mode, members) in &groups {
        if members.len() < 2 {
            continue; // no peers to compare against
        }
        let baseline = members
            .iter()
            .map(|&(_, e)| e)
            .fold(f64::INFINITY, f64::min);
        for &(g, e) in members {
            if e > FAIL_SLOW_PEER_RATIO * baseline {
                suspects.push((
                    g,
                    format!(
                        "step EWMA {e:.4}s vs {mode} peer baseline {baseline:.4}s \
                         (x{:.2} > x{FAIL_SLOW_PEER_RATIO:.2} threshold)",
                        e / baseline
                    ),
                ));
            }
        }
    }
    // Link-path degradation is scored absolutely: the nominal transfer
    // rate is known from the device spec, so the slowdown ratio needs no
    // peer baseline — and a kernel-healthy device with a flaky link would
    // look fine to the step comparison.
    for g in 0..tracked as u32 {
        if suspects.iter().any(|&(s, _)| s == g) {
            continue;
        }
        let Some(slot) = world.recovery.gray_state(GpuId(g)) else {
            continue;
        };
        if let Some(r) = slot.link_ewma {
            if r > FAIL_SLOW_LINK_RATIO {
                suspects.push((
                    g,
                    format!(
                        "link transfers running x{r:.2} over nominal \
                         (> x{FAIL_SLOW_LINK_RATIO:.2} threshold)"
                    ),
                ));
            }
        }
    }
    suspects.sort_by_key(|&(g, _)| g);
    for (g, why) in suspects {
        try_start_probation(world, eng, GpuId(g), &why);
    }
    let active = !world.dfk.all_settled() || world.any_active();
    if active {
        eng.schedule_in(FAIL_SLOW_CHECK_PERIOD, failslow_tick);
    } else {
        world.recovery.failslow_armed = false;
    }
}

/// Put a fail-slow suspect on probation: evacuate it through the staged
/// drain transaction, then run a canary probe ([`begin_canary`] fires as
/// the drain's completion callback). Refuses silently when the device is
/// already fenced, already draining, already on probation, or inside its
/// post-verdict cooldown.
fn try_start_probation(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, gpu: GpuId, why: &str) {
    let now = eng.now();
    if gpu_quarantined(world, gpu) || world.reconfig.drain_active(gpu.0) {
        return;
    }
    {
        let slot = world.recovery.gray_mut(gpu);
        if slot.probation != Probation::Clear || slot.cooldown_until.is_some_and(|t| t > now) {
            return;
        }
        slot.probation = Probation::Draining;
    }
    world.recovery.probations_active += 1;
    world.recovery.gray.probations += 1;
    world.monitor.fault_event(
        now,
        FaultPhase::Detected,
        "fail-slow",
        Some(gpu.0),
        None,
        format!("device on probation: {why}"),
    );
    let members: Vec<usize> = world.residents(gpu).collect();
    let started = begin_drain(
        world,
        eng,
        gpu.0,
        members,
        Box::new(move |w, e, _outcome| begin_canary(w, e, gpu)),
    );
    if started.is_err() {
        // A refusal must unwind the probation flag set above, or the
        // dispatch gate would hold the device idle forever with no
        // canary scheduled to deliver a verdict.
        world.recovery.gray_mut(gpu).probation = Probation::Clear;
        world.recovery.probations_active = world.recovery.probations_active.saturating_sub(1);
    }
}

/// Evacuation complete: move to the canary stage. The drain transaction
/// released its stop-dispatch set when it completed, so from here until
/// the verdict the *probation gate* ([`dispatch_blocked`]) keeps the
/// device idle. The probe launch is delayed by a small jittered settle
/// (its own frozen stream) so back-to-back probations don't launch in
/// lockstep.
fn begin_canary(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, gpu: GpuId) {
    if world
        .recovery
        .gray_state(gpu)
        .is_none_or(|s| s.probation != Probation::Draining)
    {
        return; // probation was aborted (e.g. device fenced mid-drain)
    }
    world.recovery.gray_mut(gpu).probation = Probation::Canary;
    let jitter = world.recovery.canary_rng.f64();
    let delay = SimDuration::from_secs_f64(0.010 * (1.0 + jitter));
    eng.schedule_in(delay, move |w: &mut FaasWorld, e| launch_canary(w, e, gpu));
}

/// Launch the canary's compute kernel through a borrowed resident
/// context (the drain left the evacuated workers bound and idle — the
/// probe needs a context, not a worker process).
fn launch_canary(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, gpu: GpuId) {
    if world
        .recovery
        .gray_state(gpu)
        .is_none_or(|s| s.probation != Probation::Canary)
    {
        return;
    }
    if gpu_quarantined(world, gpu) {
        settle_probation(
            world,
            eng,
            gpu,
            false,
            "device fenced before the canary could run",
        );
        return;
    }
    let lender = world
        .residents(gpu)
        .find(|&wid| {
            !matches!(
                world.workers[wid].state,
                WorkerState::Dead | WorkerState::Crashed
            )
        })
        .and_then(|wid| world.workers[wid].gpu.map(|(_, ctx)| ctx));
    let ctx = match lender {
        Some(ctx) => ctx,
        // The evacuation can leave no live resident (every member was
        // force-killed at the drain timeout): bring a dedicated probe
        // context, destroyed when the probation settles.
        None => match create_probe_ctx(world, eng.now(), gpu) {
            Some(ctx) => {
                world.recovery.gray_mut(gpu).canary_probe_ctx = Some(ctx);
                ctx
            }
            None => {
                settle_probation(
                    world,
                    eng,
                    gpu,
                    false,
                    "no context available for the canary",
                );
                return;
            }
        },
    };
    world.recovery.gray.canaries_launched += 1;
    world.recovery.gray_mut(gpu).canary_started = Some(eng.now());
    if launch_kernel(
        world,
        eng,
        gpu,
        ctx,
        canary_kernel(),
        pack_kernel_tag(CANARY_TAG_WID, u64::from(gpu.0)),
    )
    .is_err()
    {
        settle_probation(world, eng, gpu, false, "canary kernel launch failed");
    }
}

/// Create a short-lived context for the canary on an evacuated device.
/// The binding follows the device mode: MIG probes through the first
/// live instance (deterministic: instances iterate id-ascending), vGPU
/// through slot 0, everything else bare.
fn create_probe_ctx(world: &mut FaasWorld, now: SimTime, gpu: GpuId) -> Option<CtxId> {
    let dev = world.fleet.device_mut(gpu);
    let binding = match dev.mode() {
        DeviceMode::Mig => CtxBinding::MigInstance(dev.mig.instances().next()?.uuid.clone()),
        DeviceMode::Vgpu { .. } => CtxBinding::VgpuSlot(0),
        _ => CtxBinding::Bare,
    };
    dev.create_context(now, "gray.canary", binding).ok()
}

/// The canary's compute kernel finished; chase it with a priced link
/// probe (a checkpoint-write-sized transfer at the device's *current*
/// link rate), then judge the total at the verdict. A flaky link fails
/// the canary even when kernels look healthy.
fn canary_kernel_done(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, done: KernelDone) {
    let gpu = done.gpu;
    if world
        .recovery
        .gray_state(gpu)
        .is_none_or(|s| s.probation != Probation::Canary || s.canary_started.is_none())
    {
        return; // stale completion: the probation settled early
    }
    let nominal = world
        .fleet
        .device(gpu)
        .spec
        .checkpoint_write_seconds(CANARY_PROBE_BYTES);
    let lf = world.recovery.link_factor(gpu);
    eng.schedule_in(
        SimDuration::from_secs_f64(nominal / lf),
        move |w: &mut FaasWorld, e| canary_verdict(w, e, gpu),
    );
}

/// Compare the canary's wall time (compute kernel + link probe) against
/// the healthy envelope `CANARY_FACTOR × CANARY_NOMINAL` and settle the
/// probation.
fn canary_verdict(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, gpu: GpuId) {
    let now = eng.now();
    let Some(started) = world
        .recovery
        .gray_state(gpu)
        .filter(|s| s.probation == Probation::Canary)
        .and_then(|s| s.canary_started)
    else {
        return;
    };
    if !world.config.recovery.fail_slow {
        return;
    }
    let observed = now.duration_since(started).as_secs_f64();
    let limit = CANARY_FACTOR * CANARY_NOMINAL.as_secs_f64();
    let pass = observed <= limit;
    settle_probation(
        world,
        eng,
        gpu,
        pass,
        &format!("canary took {observed:.3}s (limit {limit:.3}s)"),
    );
}

/// Close a probation: reset the device's EWMAs (the verdict consumed the
/// evidence), start the re-probe cooldown, and either re-admit (kick the
/// queues — the evacuated workers are idle and bound) or park the device
/// behind the circuit breaker.
fn settle_probation(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: GpuId,
    pass: bool,
    detail: &str,
) {
    let now = eng.now();
    let cooldown = if world.config.recovery.fail_slow {
        FAIL_SLOW_COOLDOWN
    } else {
        SimDuration::ZERO
    };
    if !clear_probation(world, eng, gpu, Some(now + cooldown)) {
        return;
    }
    if pass {
        world.recovery.gray.readmits += 1;
        world.monitor.fault_event(
            now,
            FaultPhase::Recovered,
            "fail-slow-readmit",
            Some(gpu.0),
            None,
            format!("canary passed; device re-admitted ({detail})"),
        );
        // Members force-killed at the drain timeout are Dead; bring them
        // back before kicking the queues (no fence ran, so nobody else
        // will). Budgeted like any other automatic restart.
        let dead: Vec<usize> = world
            .dead_workers()
            .filter(|&wid| worker_target_gpu(world, wid) == Some(gpu))
            .collect();
        for wid in dead {
            auto_respawn(world, eng, wid);
        }
        for e in 0..world.queues.len() {
            kick_executor(world, eng, e);
        }
    } else {
        world.recovery.gray.parks += 1;
        world.monitor.fault_event(
            now,
            FaultPhase::Detected,
            "fail-slow-park",
            Some(gpu.0),
            None,
            format!("canary failed; device parked ({detail})"),
        );
        quarantine_gpu(world, eng, gpu, "fail-slow canary failed");
    }
}

/// Leave probation: drop the evidence the probation consumed (EWMAs,
/// canary start), destroy a dedicated probe context (aborting a canary
/// still running there) and resync its device, and release the dispatch
/// gate. A verdict passes its re-probe `cooldown_until`; a fence
/// clears without one — the device is leaving service for something
/// stronger than a fail-slow suspicion and has its own re-admission
/// schedule, and no readmit/park counter moves. Returns whether a
/// probation was in flight.
fn clear_probation(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: GpuId,
    cooldown_until: Option<SimTime>,
) -> bool {
    if world
        .recovery
        .gray_state(gpu)
        .is_none_or(|s| s.probation == Probation::Clear)
    {
        return false;
    }
    let probe = {
        let slot = world.recovery.gray_mut(gpu);
        slot.probation = Probation::Clear;
        slot.canary_started = None;
        slot.step_ewma = None;
        slot.step_samples = 0;
        slot.link_ewma = None;
        if cooldown_until.is_some() {
            slot.cooldown_until = cooldown_until;
        }
        slot.canary_probe_ctx.take()
    };
    if let Some(ctx) = probe {
        let _ = world.fleet.device_mut(gpu).destroy_context(eng.now(), ctx);
        resync(world, eng, gpu);
    }
    world.recovery.probations_active = world.recovery.probations_active.saturating_sub(1);
    true
}

/// Re-queue a failed-but-retryable task after exponential backoff with
/// seeded jitter (immediate re-queueing hammers a still-broken executor).
fn schedule_retry(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, task: TaskId) {
    // Retry budget: every retry spends a token from its app's bucket
    // (funded by admitted first attempts). A dry bucket sheds the retry
    // permanently — during an outage the retry stream decays to
    // `RETRY_BUDGET_RATIO` of first-attempt traffic instead of a storm.
    if world.config.overload.retry_budget {
        let app = world.dfk.task(task).app.clone();
        let tokens = world
            .overload
            .retry_tokens
            .entry(app.clone())
            .or_insert(RETRY_BUDGET_BURST);
        if *tokens < 1.0 {
            world.overload.stats.retries_suppressed += 1;
            world.monitor.fault_event(
                eng.now(),
                FaultPhase::Detected,
                "retry-suppressed",
                None,
                None,
                format!("task {}: app {app:?} retry budget dry", task.0),
            );
            fail_terminally(world, eng, task, "retry suppressed: retry budget exhausted");
            return;
        }
        *tokens -= 1.0;
    }
    let attempt = world.dfk.task(task).attempts.max(1);
    let exp = (attempt - 1).min(16);
    let base = BACKOFF_BASE.as_secs_f64() * (1u64 << exp) as f64;
    let capped = base.min(BACKOFF_CAP.as_secs_f64());
    let mult = 1.0 + BACKOFF_JITTER * world.recovery.rng.f64();
    world.recovery.stats.retries_scheduled += 1;
    eng.schedule_in(
        SimDuration::from_secs_f64(capped * mult),
        move |w: &mut FaasWorld, e| {
            // The task may have been cancelled (or failed over and
            // already re-queued) while backing off.
            if w.dfk.task(task).state != TaskState::Ready {
                return;
            }
            let exec = w.dfk.task(task).executor as usize;
            if w.queues[exec].contains(&task) {
                return;
            }
            queue_push(w, exec, task);
            // The executor may have been lost for good while the task
            // backed off (its restart budgets ran out after the last
            // fail-over), and nothing would drain its queue again.
            if executor_lost(w, exec) {
                fail_over_queues(w, e);
            }
            kick_executor(w, e, exec);
        },
    );
}

/// Is `exec` gone for good: every worker `Dead`, and none parked behind a
/// fenced GPU (parked workers respawn at re-admission)?
fn executor_lost(world: &FaasWorld, exec: usize) -> bool {
    world.executor_dead(exec)
        && (0..world.fleet.len() as u32).all(|g| {
            world.recovery.health(GpuId(g)).is_none_or(|h| {
                h.open_until.is_none()
                    || h.parked
                        .iter()
                        .all(|&wid| world.workers[wid].executor != exec)
            })
        })
}

/// Kill a worker as collateral of a GPU-side fault, recording the loss.
pub(crate) fn fault_kill_worker(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    wid: usize,
    kind: &'static str,
    reason: &str,
) {
    // Crashed workers still hold a task, so they get killed too; only an
    // already-Dead worker is skipped.
    if world.workers[wid].state == WorkerState::Dead {
        return;
    }
    let gpu = world.workers[wid].gpu.map(|(g, _)| g.0);
    world.recovery.stats.workers_lost += 1;
    // This teardown is itself a platform-side *discovery* of the death
    // (fatal device error surfaced to the runtime), the moral equivalent
    // of a watchdog hit — count it, not just the injection.
    world.recovery.stats.crashes_detected += 1;
    world.monitor.fault_event(
        eng.now(),
        FaultPhase::Detected,
        kind,
        gpu,
        Some(wid),
        reason.to_string(),
    );
    kill_worker(world, eng, wid, reason);
}

/// Record a contained client fault against a device's circuit breaker;
/// trips (quarantines) after [`BREAKER_THRESHOLD`] faults. Returns
/// whether the breaker tripped.
pub(crate) fn note_client_fault(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: GpuId,
) -> bool {
    let h = world.recovery.health_mut(gpu);
    if h.open_until.is_some() {
        return true;
    }
    h.consecutive_faults += 1;
    if h.consecutive_faults >= BREAKER_THRESHOLD {
        quarantine_gpu(world, eng, gpu, "circuit breaker tripped");
        true
    } else {
        false
    }
}

/// Is the device's circuit breaker currently open?
pub fn gpu_quarantined(world: &FaasWorld, gpu: GpuId) -> bool {
    world
        .recovery
        .health(gpu)
        .is_some_and(|h| h.open_until.is_some())
}

/// Quarantine a GPU: mark it unhealthy, kill every resident client
/// (device-level blast radius), park its workers for re-admission, fail
/// queued work over to surviving executors, and schedule re-admission
/// after [`BREAKER_COOLDOWN`]. An already-quarantined device is
/// untouched (the breaker is already open; re-tripping it would extend
/// the outage for faults the fence itself caused).
pub fn quarantine_gpu(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: GpuId,
    reason: &str,
) {
    if gpu_quarantined(world, gpu) {
        return;
    }
    let until = eng.now() + BREAKER_COOLDOWN;
    fence_gpu(world, eng, gpu, until, "gpu-quarantine", reason);
}

/// Fence a GPU until `until`: mark it unhealthy, kill every resident,
/// park its dead workers, fail queued work over, and schedule
/// re-admission. Fencing an already-fenced device only *extends* its
/// outage window — a rack fault landing on a quarantined GPU must not
/// shorten the quarantine, and the earlier-scheduled re-admission
/// becomes a stale no-op (see [`readmit_gpu`]'s time guard).
pub(crate) fn fence_gpu(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: GpuId,
    until: SimTime,
    kind: &'static str,
    reason: &str,
) {
    let now = eng.now();
    // A fence overrides any in-flight probation without a verdict: the
    // device is leaving service anyway, and an aborted canary kernel
    // would otherwise never complete and leave the dispatch gate and
    // `probations_active` stuck.
    clear_probation(world, eng, gpu, None);
    let already = gpu_quarantined(world, gpu);
    let new_until = {
        let h = world.recovery.health_mut(gpu);
        let u = h.open_until.map_or(until, |t| t.max(until));
        h.open_until = Some(u);
        h.consecutive_faults = 0;
        u
    };
    if !already {
        world.recovery.stats.quarantines += 1;
        world.fleet.device_mut(gpu).mark_unhealthy(now);
    }
    world.monitor.fault_event(
        now,
        FaultPhase::Detected,
        kind,
        Some(gpu.0),
        None,
        reason.to_string(),
    );
    let residents: Vec<usize> = world.residents(gpu).collect();
    for wid in residents {
        fault_kill_worker(world, eng, wid, "gpu-blast-radius", reason);
    }
    // Park every dead worker slotted on this device (the residents just
    // killed, plus any earlier casualties): they respawn at re-admission
    // instead of failing cold start against an unhealthy device. The
    // dead set bounds the scan to actual casualties instead of the
    // whole fleet.
    let parked: Vec<usize> = world
        .dead_workers()
        .filter(|&wid| worker_target_gpu(world, wid) == Some(gpu))
        .collect();
    world.recovery.health_mut(gpu).parked = parked;
    fail_over_queues(world, eng);
    eng.schedule_at(new_until, move |w: &mut FaasWorld, e| {
        readmit_gpu(w, e, gpu)
    });
}

/// Apply a host-reboot domain fault: atomically fence every GPU the host
/// owns (per the configured [`crate::Topology`]). The host finishes
/// rebooting after `RecoveryConfig::host_reboot`; only then do its GPUs
/// re-enroll, one by one, staggered by
/// `RecoveryConfig::gpu_reenroll_stagger` (driver probe and MPS/MIG
/// re-setup serialize per host). Returns the number of GPUs fenced.
pub fn fault_host(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, host: u32) -> usize {
    let host_back = eng.now() + world.config.recovery.host_reboot;
    fence_host_gpus(world, eng, host, host_back, "host-reboot")
}

/// Apply a rack-power domain fault: every host in the rack loses power
/// in the same instant. Power returns after [`RACK_POWER_RESTORE`]; hosts
/// then boot staggered by [`HOST_BOOT_STAGGER`] (in host order), and each
/// host's GPUs re-enroll as in [`fault_host`]. Returns the number of GPUs
/// fenced.
pub fn fault_rack(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, rack: u32) -> usize {
    let now = eng.now();
    let topo = world.config.topology;
    let reboot = world.config.recovery.host_reboot;
    let hosts = topo.hosts_in_rack(rack, world.fleet.len() as u32);
    let mut fenced = 0;
    for (j, host) in hosts.iter().enumerate() {
        let host_back = now + RACK_POWER_RESTORE + reboot + HOST_BOOT_STAGGER * j as u64;
        fenced += fence_host_gpus(world, eng, *host, host_back, "rack-power");
    }
    fenced
}

/// Fence every GPU on one host, scheduling each GPU's re-enrollment at
/// `host_back + (k+1) * gpu_reenroll_stagger` for the host's `k`-th GPU —
/// the host is always back *before* any of its GPUs re-enroll.
fn fence_host_gpus(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    host: u32,
    host_back: SimTime,
    why: &'static str,
) -> usize {
    let topo = world.config.topology;
    let stagger = world.config.recovery.gpu_reenroll_stagger;
    let gpus = topo.gpus_on_host(host, world.fleet.len() as u32);
    for (k, g) in gpus.iter().enumerate() {
        let until = host_back + stagger * (k as u64 + 1);
        fence_gpu(
            world,
            eng,
            GpuId(*g),
            until,
            "gpu-fenced",
            &format!("{why}: host {host} down; re-enroll after host boot"),
        );
    }
    gpus.len()
}

/// Cooldown elapsed: close the breaker, mark the device healthy again,
/// and respawn its parked workers (budget permitting). Stale: if the
/// fence was *extended* after this re-admission was scheduled (a domain
/// fault landed on an already-quarantined device), the earlier event is
/// a no-op and the later one closes the breaker.
fn readmit_gpu(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, gpu: GpuId) {
    let now = eng.now();
    let parked = {
        let h = world.recovery.health_mut(gpu);
        match h.open_until {
            None => return,               // already re-admitted
            Some(t) if t > now => return, // fence extended; stale event
            Some(_) => {}
        }
        h.open_until = None;
        h.consecutive_faults = 0;
        std::mem::take(&mut h.parked)
    };
    world.fleet.device_mut(gpu).mark_healthy();
    world.monitor.fault_event(
        now,
        FaultPhase::Recovered,
        "gpu-readmitted",
        Some(gpu.0),
        None,
        "cooldown elapsed",
    );
    for wid in parked {
        if world.workers[wid].state == WorkerState::Dead {
            auto_respawn(world, eng, wid);
        }
    }
    for e in 0..world.queues.len() {
        kick_executor(world, eng, e);
    }
}

/// Move queued tasks off executors with no live workers onto the
/// healthiest surviving executor (most idle workers, ties to the lowest
/// index). Tasks keep their identity; only their placement changes.
fn fail_over_queues(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    let live_counts: Vec<usize> = (0..world.queues.len())
        .map(|e| world.live_workers(e))
        .collect();
    let Some(target) = (0..world.queues.len())
        .filter(|&e| live_counts[e] > 0)
        .max_by(|&a, &b| live_counts[a].cmp(&live_counts[b]).then(b.cmp(&a)))
    else {
        return; // nowhere to fail over to; queues drain at re-admission
    };
    let mut moved = 0usize;
    for (e, &live) in live_counts.iter().enumerate() {
        if e == target || live > 0 {
            continue;
        }
        while let Some(task) = queue_pop_front(world, e) {
            world.dfk.task_mut(task).executor =
                u32::try_from(target).expect("executor index fits in u32");
            queue_push(world, target, task);
            moved += 1;
        }
    }
    if moved > 0 {
        world.recovery.stats.failovers += moved as u64;
        world.monitor.fault_event(
            eng.now(),
            FaultPhase::Detected,
            "queue-failover",
            None,
            None,
            format!("{moved} queued tasks moved to executor {target}"),
        );
        kick_executor(world, eng, target);
    }
}

/// The GPU a worker is (or would be, after respawn) bound to.
fn worker_target_gpu(world: &FaasWorld, wid: usize) -> Option<GpuId> {
    if let Some((gpu, _)) = world.workers[wid].gpu {
        return Some(gpu);
    }
    let spec = world.workers[wid].accel.as_ref()?;
    resolve_accel(&world.fleet, spec).ok().map(|(g, _, _)| g)
}

fn sample_monitors(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    let Some(period) = world.config.monitoring_period else {
        return;
    };
    let now = eng.now();
    for gi in 0..world.fleet.len() as u32 {
        // Read through the barrier: a time-shared device shows its
        // rotation as of `now`.
        let d = world.fleet.device_mut(GpuId(gi));
        d.sync(now);
        world.monitor.samples.push(UtilSample {
            t: now,
            gpu: gi,
            busy_sms: d.busy_sms(),
            utilization: d.busy_sms() / d.spec.sms as f64,
            memory_used: d.memory_used(),
        });
    }
    for (ei, q) in world.queues.iter().enumerate() {
        world.monitor.queue_samples.push(QueueSample {
            t: now,
            executor: ei,
            depth: q.len(),
        });
    }
    // Keep sampling while work remains or workers are still coming up
    // (or silently crashed — the watchdog will generate more events).
    world.check_index_consistency();
    let active = !world.dfk.all_settled() || world.any_active();
    if active {
        eng.schedule_in(period, |w: &mut FaasWorld, e| sample_monitors(w, e));
    } else {
        world.sampler_armed = false;
    }
}

/// Re-arm the monitoring sampler after it stopped (it stops itself when
/// all tasks settle and no worker is active). Multi-phase experiments
/// call this when submitting a new phase of work.
pub fn resume_sampling(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    if world.config.monitoring_period.is_some() && !world.sampler_armed {
        world.sampler_armed = true;
        sample_monitors(world, eng);
    }
}

/// Convenience: boot and run until the event queue drains.
pub fn run(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>) {
    boot(world, eng);
    eng.run(world);
}
