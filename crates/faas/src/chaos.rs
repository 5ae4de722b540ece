//! Deterministic chaos search: randomized fault/reconfig schedules,
//! global safety oracles, and automatic schedule shrinking (DESIGN.md
//! §13).
//!
//! Every hand-written fault scenario in this repo tests a failure we
//! already thought of. This module *searches* the disturbance space
//! instead: a schedule grammar on its own frozen RNG streams composes
//! random interleavings of every existing disturbance — worker / GPU /
//! host / rack faults, zombies, flaky links, stragglers, staged MPS
//! resizes and MIG re-slices, autoscaler flips, flash-crowd bursts —
//! against a small fleet, runs each schedule to quiescence, and then
//! checks a catalog of global safety oracles over the end state.
//!
//! The moving parts:
//!
//! * [`generate_schedule`] — the grammar. A `(search_seed, case_index)`
//!   pair names one [`ChaosSchedule`] forever: every random choice is
//!   drawn from the per-case [`streams::CHAOS_SCHEDULE`] split, so a
//!   failing case replays bit-identically from two integers.
//! * [`chaos_platform`] — the canonical small fleet a schedule runs
//!   against. Checked into the schedule itself (mode / GPU count /
//!   workers per GPU) so corpus replays pin the platform exactly.
//! * [`run_schedule`] — drives background Poisson arrivals
//!   ([`streams::CHAOS_ARRIVALS`]) plus the schedule's events through
//!   the engine, samples the incremental oracles at every boundary, and
//!   returns a [`CaseReport`] with a deterministic trace string.
//! * [`OracleProbe`] — the oracle catalog: exactly-once completion,
//!   task conservation, quiescence liveness, fence monotonicity,
//!   checkpoint-epoch safety (plus `check_index_consistency`, asserted
//!   by the runner in debug builds).
//! * [`shrink_schedule`] — a delta-debugging (ddmin-style) shrinker
//!   that bisects a failing schedule to a locally minimal event list.
//! * [`schedule_to_corpus`] / [`schedule_from_corpus`] — the checked-in
//!   repro format under `tests/chaos_corpus/`, replayed forever by the
//!   tier-1 suite.
//!
//! Reconfiguration and autoscaler actions need `parfait-core`, which
//! sits *above* this crate; the runner therefore delegates them to an
//! injected [`ExtHook`]. The bench crate wires the real hook
//! (`begin_resize_mps` / `begin_reconfigure_mig` /
//! `enable_slo_autoscaler`); a `None`-returning hook refuses them,
//! which is itself a legal (and counted) outcome.

use std::collections::BTreeMap;

use parfait_gpu::{DeviceMode, GpuFleet, GpuId, GpuSpec, KernelDesc};
use parfait_simcore::{streams, Engine, SimDuration, SimRng, SimTime};

use crate::app::bodies::KernelSeq;
use crate::app::{AppCall, TaskId};
use crate::config::{
    AcceleratorSpec, CheckpointPolicy, Config, ExecutorConfig, HedgePolicy, OverloadConfig,
    RetryBudget, ShedPolicy, Topology,
};
use crate::dfk::TaskState;
use crate::faults::{inject_fault, FaultKind, InjectOutcome};
use crate::world::{boot, submit, FaasWorld, WorkerState};

/// Device-sharing mode of the chaos platform. MPS shares one server
/// process (whole-device blast radius); time-sharing isolates clients
/// (contained blast radius). MIG layouts are reached *through* the
/// schedule's [`ChaosAction::ReconfigMig`] events rather than built
/// statically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Partitioned MPS: equal active-thread percentages per tenant.
    Mps,
    /// Time-sharing: each tenant gets a full-device context.
    TimeShare,
}

impl ChaosMode {
    /// Stable token used by the corpus format.
    pub fn token(self) -> &'static str {
        match self {
            ChaosMode::Mps => "mps",
            ChaosMode::TimeShare => "timeshare",
        }
    }
}

/// One disturbance the schedule can apply.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Any of the existing injectable faults (crashes, device faults,
    /// domain outages, zombies, flaky links, stragglers, …).
    Fault(FaultKind),
    /// Staged MPS resize of every tenant on `gpu`; `skew` (0–40 points)
    /// shifts share from the rest to the first tenant. Applied by the
    /// [`ExtHook`].
    ResizeMps {
        /// Target device.
        gpu: u32,
        /// Share points moved to the first tenant.
        skew: u32,
    },
    /// Staged MIG re-slice of `gpu` to one instance per current tenant.
    /// Applied by the [`ExtHook`].
    ReconfigMig {
        /// Target device.
        gpu: u32,
    },
    /// Start (another) closed-loop SLO autoscaler over `gpu`. Applied
    /// by the [`ExtHook`]; duplicate controllers racing each other is a
    /// deliberate part of the search space — every entry point must
    /// refuse unsafe overlap on its own.
    AutoscaleFlip {
        /// Target device.
        gpu: u32,
    },
    /// Flash-crowd burst: submit `tasks` extra tasks immediately,
    /// round-robin across executors.
    Burst {
        /// Number of tasks submitted at once.
        tasks: u32,
    },
}

/// One timed disturbance.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    /// Virtual time the action is applied.
    pub at: SimTime,
    /// What happens.
    pub action: ChaosAction,
}

/// A complete, replayable chaos case: platform shape + event list.
/// Everything else the run depends on (arrival process, task bodies,
/// oracle horizon) is a fixed constant of the runner, so this struct is
/// the whole repro.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// Seed for the platform world *and* (via the frozen chaos streams)
    /// the schedule/arrival draws.
    pub case_seed: u64,
    /// Device-sharing mode of the platform.
    pub mode: ChaosMode,
    /// Fleet size.
    pub gpus: u32,
    /// Tenants (single-worker executors) per GPU.
    pub workers_per_gpu: u32,
    /// The disturbances, sorted by time.
    pub events: Vec<ChaosEvent>,
}

/// Grammar bounds for [`generate_schedule`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fleet size of generated cases.
    pub gpus: u32,
    /// Tenants per GPU of generated cases.
    pub workers_per_gpu: u32,
    /// Maximum events per schedule (at least 1 is always drawn).
    pub max_events: usize,
    /// Events land uniformly in `[1s, window]`.
    pub window: SimDuration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            gpus: 2,
            workers_per_gpu: 2,
            max_events: 8,
            window: SimDuration::from_secs(60),
        }
    }
}

/// Probability that a target draw is deliberately out of range, so the
/// refusal paths of every entry point are part of the search space.
const INVALID_TARGET_P: f64 = 0.08;

/// Background Poisson arrivals: mean inter-arrival seconds and the
/// window during which they occur.
const ARRIVAL_MEAN_S: f64 = 2.5;
const ARRIVAL_WINDOW: SimDuration = SimDuration::from_secs(75);

/// Kernels per background task (one-second full-device kernels).
const TASK_KERNELS: usize = 6;

/// How long past the last disturbance the world gets to drain before
/// the quiescence oracles run. Covers the slowest legal recovery chain
/// (rack power restore + staggered re-admission + cold restarts +
/// retried tail tasks) with a wide margin.
const QUIESCE_GRACE: SimDuration = SimDuration::from_secs(900);

/// Derive the deterministic per-case seed of `(search_seed, case_index)`.
pub fn case_seed(search_seed: u64, case_index: u64) -> u64 {
    // splitmix64-style spread so neighbouring case indices land far
    // apart in seed space.
    search_seed ^ case_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn draw_worker(rng: &mut SimRng, workers: u64) -> usize {
    if rng.chance(INVALID_TARGET_P) {
        (workers + rng.below(4)) as usize
    } else {
        rng.below(workers) as usize
    }
}

fn draw_gpu(rng: &mut SimRng, gpus: u64) -> u32 {
    if rng.chance(INVALID_TARGET_P) {
        (gpus + rng.below(2)) as u32
    } else {
        rng.below(gpus) as u32
    }
}

/// Generate the schedule named by `(search_seed, case_index)` under the
/// grammar bounds `cfg`. Pure: same inputs, same schedule, forever.
pub fn generate_schedule(search_seed: u64, case_index: u64, cfg: &ChaosConfig) -> ChaosSchedule {
    let seed = case_seed(search_seed, case_index);
    let base = SimRng::new(seed);
    let mut rng = base.split(streams::CHAOS_SCHEDULE);
    let mode = if rng.chance(0.5) {
        ChaosMode::Mps
    } else {
        ChaosMode::TimeShare
    };
    let workers = u64::from(cfg.gpus) * u64::from(cfg.workers_per_gpu);
    let gpus = u64::from(cfg.gpus);
    let topo = Topology::default();
    let hosts = u64::from(topo.host_of(cfg.gpus.saturating_sub(1))) + 1;
    let racks = u64::from(topo.rack_of(cfg.gpus.saturating_sub(1))) + 1;
    let n = 1 + rng.below(cfg.max_events.max(1) as u64) as usize;
    let window_s = cfg.window.as_secs_f64();
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let at = SimTime::ZERO
            + SimDuration::from_secs(1)
            + SimDuration::from_secs_f64(rng.f64() * (window_s - 1.0));
        let action = match rng.below(15) {
            0 => ChaosAction::Fault(FaultKind::WorkerCrash {
                worker: draw_worker(&mut rng, workers),
            }),
            1 => ChaosAction::Fault(FaultKind::GpuClientFault {
                worker: draw_worker(&mut rng, workers),
            }),
            2 => ChaosAction::Fault(FaultKind::DeviceFault {
                gpu: draw_gpu(&mut rng, gpus),
            }),
            3 => ChaosAction::Fault(FaultKind::ProvisioningFailure {
                worker: draw_worker(&mut rng, workers),
            }),
            4 => ChaosAction::Fault(FaultKind::Straggler {
                gpu: draw_gpu(&mut rng, gpus),
                factor: rng.range_f64(0.1, 0.6),
                duration: SimDuration::from_secs(2 + rng.below(20)),
            }),
            5 => ChaosAction::Fault(FaultKind::ModelLoadOom {
                worker: draw_worker(&mut rng, workers),
            }),
            6 => ChaosAction::Fault(FaultKind::HostReboot {
                host: if rng.chance(INVALID_TARGET_P) {
                    (hosts + rng.below(2)) as u32
                } else {
                    rng.below(hosts) as u32
                },
            }),
            7 => ChaosAction::Fault(FaultKind::RackPower {
                rack: if rng.chance(INVALID_TARGET_P) {
                    (racks + rng.below(2)) as u32
                } else {
                    rng.below(racks) as u32
                },
            }),
            8 => ChaosAction::Fault(FaultKind::ReconfigFail {
                gpu: draw_gpu(&mut rng, gpus),
            }),
            9 => ChaosAction::Fault(FaultKind::ZombieWorker {
                worker: draw_worker(&mut rng, workers),
            }),
            10 => ChaosAction::Fault(FaultKind::FlakyLink {
                gpu: draw_gpu(&mut rng, gpus),
                factor: rng.range_f64(0.01, 0.3),
                duration: SimDuration::from_secs(2 + rng.below(20)),
            }),
            11 => ChaosAction::ResizeMps {
                gpu: draw_gpu(&mut rng, gpus),
                skew: rng.below(41) as u32,
            },
            12 => ChaosAction::ReconfigMig {
                gpu: draw_gpu(&mut rng, gpus),
            },
            13 => ChaosAction::AutoscaleFlip {
                gpu: draw_gpu(&mut rng, gpus),
            },
            _ => ChaosAction::Burst {
                tasks: 1 + rng.below(16) as u32,
            },
        };
        events.push(ChaosEvent { at, action });
    }
    events.sort_by_key(|e| e.at); // stable: ties keep draw order
    ChaosSchedule {
        case_seed: seed,
        mode,
        gpus: cfg.gpus,
        workers_per_gpu: cfg.workers_per_gpu,
        events,
    }
}

/// Build the canonical chaos platform a schedule runs against: one
/// single-worker executor (`"t{i}"`) per tenant so reconfig and
/// autoscale actions have real tenancy to act on, with every protection
/// subsystem enabled — retries, periodic checkpoints, bounded queues
/// with shedding, retry budgets, hedging, the progress watchdog, and
/// the peer-relative fail-slow detector.
pub fn chaos_platform(s: &ChaosSchedule) -> (FaasWorld, Engine<FaasWorld>) {
    let wpg = s.workers_per_gpu.max(1);
    let mut execs = Vec::new();
    for g in 0..s.gpus {
        for k in 0..wpg {
            let spec = match s.mode {
                ChaosMode::Mps => AcceleratorSpec::GpuPercentage(g, 100 / wpg),
                ChaosMode::TimeShare => AcceleratorSpec::Gpu(g),
            };
            execs.push(ExecutorConfig::gpu(format!("t{}", g * wpg + k), vec![spec]));
        }
    }
    let mut config = Config::new(execs);
    config.retries = 2;
    config.checkpoint = CheckpointPolicy::every(SimDuration::from_secs(5));
    config.overload = OverloadConfig {
        queue_cap: Some(8),
        shed_policy: ShedPolicy::ShedOldest,
        deadline_admission: false,
        retry_budget: Some(RetryBudget::default()),
        hedge: Some(HedgePolicy::default()),
    };
    config.recovery.progress_timeout = Some(SimDuration::from_secs(10));
    config.recovery.fail_slow = true;
    let mut fleet = GpuFleet::new();
    for _ in 0..s.gpus {
        let g = fleet.add(GpuSpec::a100_80gb());
        let d = fleet.device_mut(g);
        let mode = match s.mode {
            ChaosMode::Mps => {
                d.mps.start();
                DeviceMode::MpsPartitioned
            }
            ChaosMode::TimeShare => DeviceMode::TimeSharing,
        };
        let set = d.set_mode(mode);
        debug_assert!(set.is_ok(), "fresh device accepts its mode");
    }
    let world = FaasWorld::new(config, fleet, s.case_seed);
    let eng = Engine::new();
    (world, eng)
}

/// One oracle violation: which invariant broke and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable oracle name (`"conservation"`, `"exactly-once"`,
    /// `"quiescence"`, `"fence-monotonicity"`, `"checkpoint-epoch"`,
    /// `"checkpoint-purge"`).
    pub oracle: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// Incremental + end-state oracle evaluation over one run.
///
/// [`OracleProbe::sample`] is called at every schedule boundary (each
/// arrival and each chaos action) and watches the two invariants that
/// are only visible *during* a run: per-GPU fence deadlines never move
/// backwards without an intervening re-admission, and a task's
/// committed checkpoint never loses steps. [`OracleProbe::finish`]
/// checks the end-state catalog once the world has had
/// [`QUIESCE_GRACE`] to drain.
#[derive(Debug, Default)]
pub struct OracleProbe {
    fences: BTreeMap<u32, Option<SimTime>>,
    ckpt_hi: BTreeMap<TaskId, u64>,
    records_seen: usize,
    violations: Vec<Violation>,
}

impl OracleProbe {
    /// Fresh probe.
    pub fn new() -> Self {
        OracleProbe::default()
    }

    /// Record fence deadlines and checkpoint steps; flag regressions.
    pub fn sample(&mut self, world: &FaasWorld, now: SimTime) {
        let records = &world.monitor.fault_records;
        for g in 0..world.fleet.len() as u32 {
            let cur = world.recovery.health(GpuId(g)).and_then(|h| h.open_until);
            let prev = self.fences.get(&g).copied().flatten();
            if let (Some(p), Some(c)) = (prev, cur) {
                // Some(p) -> Some(c < p) is legal only across a
                // re-admission (fence resolved, then re-fenced lower).
                let readmitted = records[self.records_seen.min(records.len())..]
                    .iter()
                    .any(|r| r.kind == "gpu-readmitted" && r.gpu == Some(g));
                if c < p && !readmitted {
                    self.violations.push(Violation {
                        oracle: "fence-monotonicity",
                        detail: format!(
                            "gpu {g} fence shrank {:.3}s -> {:.3}s at t={:.3}s \
                             with no re-admission in between",
                            p.as_secs_f64(),
                            c.as_secs_f64(),
                            now.as_secs_f64()
                        ),
                    });
                }
            }
            self.fences.insert(g, cur);
        }
        self.records_seen = records.len();
        for (&task, ck) in &world.checkpoints {
            let hi = self.ckpt_hi.get(&task).copied().unwrap_or(0);
            if ck.steps < hi {
                self.violations.push(Violation {
                    oracle: "checkpoint-epoch",
                    detail: format!(
                        "task {task:?} checkpoint went backwards: {} -> {} steps \
                         at t={:.3}s (torn/stale snapshot committed)",
                        hi,
                        ck.steps,
                        now.as_secs_f64()
                    ),
                });
            }
            self.ckpt_hi.insert(task, ck.steps.max(hi));
        }
    }

    /// End-state catalog; consumes the probe and returns every
    /// violation found across the run.
    pub fn finish(mut self, world: &FaasWorld) -> Vec<Violation> {
        let dfk = &world.dfk;
        let mut done_seen = 0u64;
        let mut failed_seen = 0u64;
        for t in dfk.tasks() {
            match t.state {
                TaskState::Done => done_seen += 1,
                TaskState::Failed => failed_seen += 1,
                ref other => self.violations.push(Violation {
                    oracle: "conservation",
                    detail: format!(
                        "task {:?} stranded in {:?} after the quiescence grace",
                        t.id, other
                    ),
                }),
            }
        }
        if done_seen != dfk.done_count() || failed_seen != dfk.failed_count() {
            self.violations.push(Violation {
                oracle: "exactly-once",
                detail: format!(
                    "settled-state counts drifted from counters: \
                     {done_seen} Done vs done_count {}, \
                     {failed_seen} Failed vs failed_count {}",
                    dfk.done_count(),
                    dfk.failed_count()
                ),
            });
        }
        if dfk.done_count() + dfk.failed_count() != dfk.len() as u64 {
            self.violations.push(Violation {
                oracle: "conservation",
                detail: format!(
                    "admitted {} != done {} + failed {} (shed {} rejected {})",
                    dfk.len(),
                    dfk.done_count(),
                    dfk.failed_count(),
                    world.overload.stats.tasks_shed,
                    world.overload.stats.tasks_rejected
                ),
            });
        }
        if world.overload.stats.tasks_shed + world.overload.stats.tasks_rejected
            > dfk.failed_count()
        {
            self.violations.push(Violation {
                oracle: "conservation",
                detail: format!(
                    "shed {} + rejected {} exceed terminal failures {}",
                    world.overload.stats.tasks_shed,
                    world.overload.stats.tasks_rejected,
                    dfk.failed_count()
                ),
            });
        }
        if !world.overload.hedges.is_empty() {
            self.violations.push(Violation {
                oracle: "exactly-once",
                detail: format!(
                    "{} hedge pair(s) never resolved to a single winner",
                    world.overload.hedges.len()
                ),
            });
        }
        for w in &world.workers {
            if !matches!(w.state, WorkerState::Idle | WorkerState::Dead) {
                self.violations.push(Violation {
                    oracle: "quiescence",
                    detail: format!("worker {} stuck in {:?}", w.id, w.state),
                });
            }
        }
        for (e, q) in world.queues.iter().enumerate() {
            if !q.is_empty() {
                self.violations.push(Violation {
                    oracle: "quiescence",
                    detail: format!("executor {e} still has {} queued task(s)", q.len()),
                });
            }
        }
        if world.reconfig.active_drains() != 0 {
            self.violations.push(Violation {
                oracle: "quiescence",
                detail: format!(
                    "{} staged drain(s) never completed",
                    world.reconfig.active_drains()
                ),
            });
        }
        if world.recovery.probations_active != 0 {
            self.violations.push(Violation {
                oracle: "quiescence",
                detail: format!(
                    "{} fail-slow probation(s) never reached a verdict",
                    world.recovery.probations_active
                ),
            });
        }
        for g in 0..world.fleet.len() as u32 {
            if let Some(t) = world.recovery.health(GpuId(g)).and_then(|h| h.open_until) {
                self.violations.push(Violation {
                    oracle: "quiescence",
                    detail: format!(
                        "gpu {g} fence unresolved at quiescence (open_until {:.3}s)",
                        t.as_secs_f64()
                    ),
                });
            }
        }
        for task in world.checkpoints.keys() {
            self.violations.push(Violation {
                oracle: "checkpoint-purge",
                detail: format!("settled task {task:?} still holds a checkpoint"),
            });
        }
        self.violations
    }
}

/// Deliberate, test-only regressions the runner can re-introduce so the
/// catch → shrink → corpus pipeline stays demonstrably alive. Shipped
/// code always runs with everything off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BugSwitches {
    /// After every applied device fault, re-commit the newest live
    /// checkpoint with `steps = 0` — the torn-snapshot bug the PR 4
    /// epoch guard exists to prevent. Caught by the
    /// `"checkpoint-epoch"` oracle.
    pub torn_checkpoint: bool,
}

/// Extension hook applying the actions that need `parfait-core`
/// ([`ChaosAction::ResizeMps`] / [`ChaosAction::ReconfigMig`] /
/// [`ChaosAction::AutoscaleFlip`]). Returns `Some(true)` when applied,
/// `Some(false)` when refused by the entry point, `None` when the hook
/// does not handle the action at all (counted as a refusal).
pub type ExtHook<'a> =
    &'a mut dyn FnMut(&mut FaasWorld, &mut Engine<FaasWorld>, &ChaosAction) -> Option<bool>;

/// What one chaos case did, plus everything the oracles found.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseReport {
    /// Actions attempted, by stable label.
    pub attempted: BTreeMap<&'static str, u64>,
    /// Actions that actually landed, by stable label.
    pub applied: BTreeMap<&'static str, u64>,
    /// Total refused actions (invalid target, fenced device, no hook…).
    pub refusals: u64,
    /// Tasks admitted over the whole run (arrivals + bursts).
    pub submitted: u64,
    /// Terminal counts at quiescence.
    pub done: u64,
    /// Terminally failed tasks (includes shed and rejected).
    pub failed: u64,
    /// Tasks shed by the bounded queues.
    pub shed: u64,
    /// Tasks rejected at admission.
    pub rejected: u64,
    /// Engine events processed.
    pub events_fired: u64,
    /// Everything the oracle catalog flagged (empty on healthy code).
    pub violations: Vec<Violation>,
    /// Deterministic line-per-action trace; byte-identical across
    /// replays of the same schedule.
    pub trace: String,
}

/// Stable label for coverage accounting.
pub fn action_label(action: &ChaosAction) -> &'static str {
    match action {
        ChaosAction::Fault(FaultKind::WorkerCrash { .. }) => "worker-crash",
        ChaosAction::Fault(FaultKind::GpuClientFault { .. }) => "gpu-client-fault",
        ChaosAction::Fault(FaultKind::DeviceFault { .. }) => "device-fault",
        ChaosAction::Fault(FaultKind::ProvisioningFailure { .. }) => "provisioning-failure",
        ChaosAction::Fault(FaultKind::Straggler { .. }) => "straggler",
        ChaosAction::Fault(FaultKind::ModelLoadOom { .. }) => "model-load-oom",
        ChaosAction::Fault(FaultKind::HostReboot { .. }) => "host-reboot",
        ChaosAction::Fault(FaultKind::RackPower { .. }) => "rack-power",
        ChaosAction::Fault(FaultKind::ReconfigFail { .. }) => "reconfig-fail",
        ChaosAction::Fault(FaultKind::ZombieWorker { .. }) => "zombie-worker",
        ChaosAction::Fault(FaultKind::FlakyLink { .. }) => "flaky-link",
        ChaosAction::ResizeMps { .. } => "resize-mps",
        ChaosAction::ReconfigMig { .. } => "reconfig-mig",
        ChaosAction::AutoscaleFlip { .. } => "autoscale-flip",
        ChaosAction::Burst { .. } => "burst",
    }
}

/// Every label [`action_label`] can return, for coverage reports.
pub const ALL_ACTION_LABELS: &[&str] = &[
    "worker-crash",
    "gpu-client-fault",
    "device-fault",
    "provisioning-failure",
    "straggler",
    "model-load-oom",
    "host-reboot",
    "rack-power",
    "reconfig-fail",
    "zombie-worker",
    "flaky-link",
    "resize-mps",
    "reconfig-mig",
    "autoscale-flip",
    "burst",
];

fn chaos_call(exec: usize) -> AppCall {
    AppCall::new("chaos", format!("t{exec}"), move |_| {
        Box::new(KernelSeq::new(
            vec![KernelDesc::new("k", 108.0, 75_600, 75_600, 0.0); TASK_KERNELS],
            SimDuration::ZERO,
        ))
    })
}

enum Point {
    Arrival(usize),
    Chaos(usize),
}

/// Run one schedule end to end: build the platform, drive background
/// arrivals plus the schedule's disturbances, give the world
/// [`QUIESCE_GRACE`] to drain, then evaluate every oracle. Fully
/// deterministic: the same schedule yields a byte-identical
/// [`CaseReport::trace`].
pub fn run_schedule(schedule: &ChaosSchedule, bugs: BugSwitches, hook: ExtHook<'_>) -> CaseReport {
    let (mut world, mut eng) = chaos_platform(schedule);
    boot(&mut world, &mut eng);
    let n_exec = (schedule.gpus * schedule.workers_per_gpu.max(1)) as usize;
    let mut arr_rng = world.rng.split(streams::CHAOS_ARRIVALS);
    let mut arrivals: Vec<(SimTime, usize)> = Vec::new();
    let mut t = 0.0;
    let window_s = ARRIVAL_WINDOW.as_secs_f64();
    loop {
        t += arr_rng.exp(ARRIVAL_MEAN_S);
        if t >= window_s {
            break;
        }
        let exec = arr_rng.below(n_exec as u64) as usize;
        arrivals.push((SimTime::ZERO + SimDuration::from_secs_f64(t), exec));
    }
    let mut timeline: Vec<(SimTime, Point)> = arrivals
        .iter()
        .map(|&(at, e)| (at, Point::Arrival(e)))
        .chain(
            schedule
                .events
                .iter()
                .enumerate()
                .map(|(i, ev)| (ev.at, Point::Chaos(i))),
        )
        .collect();
    timeline.sort_by_key(|&(at, _)| at); // stable: ties keep arrival-before-chaos draw order

    let mut probe = OracleProbe::new();
    let mut attempted: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut applied: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut refusals = 0u64;
    let mut trace = String::new();
    let mut burst_rr = 0usize;
    let mut last_at = SimTime::ZERO;
    for (at, point) in timeline {
        eng.run_until(&mut world, at);
        last_at = at;
        match point {
            Point::Arrival(exec) => {
                submit(&mut world, &mut eng, chaos_call(exec));
            }
            Point::Chaos(i) => {
                let action = &schedule.events[i].action;
                let label = action_label(action);
                *attempted.entry(label).or_insert(0) += 1;
                let ok = match action {
                    ChaosAction::Fault(kind) => match inject_fault(&mut world, &mut eng, kind) {
                        InjectOutcome::Applied => true,
                        InjectOutcome::Refused(_) => false,
                    },
                    ChaosAction::Burst { tasks } => {
                        for _ in 0..*tasks {
                            submit(&mut world, &mut eng, chaos_call(burst_rr % n_exec));
                            burst_rr += 1;
                        }
                        true
                    }
                    ext => hook(&mut world, &mut eng, ext).unwrap_or(false),
                };
                if ok {
                    *applied.entry(label).or_insert(0) += 1;
                    if bugs.torn_checkpoint {
                        if let ChaosAction::Fault(FaultKind::DeviceFault { .. }) = action {
                            if let Some((_, ck)) = world.checkpoints.iter_mut().next_back() {
                                ck.steps = 0;
                            }
                        }
                    }
                } else {
                    refusals += 1;
                }
                trace.push_str(&format!(
                    "t={:.6} {} -> {}\n",
                    at.as_secs_f64(),
                    label,
                    if ok { "applied" } else { "refused" }
                ));
            }
        }
        probe.sample(&world, at);
    }
    eng.run_until(&mut world, last_at + QUIESCE_GRACE);
    probe.sample(&world, eng.now());
    // Rebuild-assert of the incremental world index (debug builds).
    world.check_index_consistency();
    let violations = probe.finish(&world);
    trace.push_str(&format!(
        "quiesce done={} failed={} shed={} rejected={} events={} violations={}\n",
        world.dfk.done_count(),
        world.dfk.failed_count(),
        world.overload.stats.tasks_shed,
        world.overload.stats.tasks_rejected,
        eng.events_fired(),
        violations.len()
    ));
    CaseReport {
        attempted,
        applied,
        refusals,
        submitted: world.dfk.len() as u64,
        done: world.dfk.done_count(),
        failed: world.dfk.failed_count(),
        shed: world.overload.stats.tasks_shed,
        rejected: world.overload.stats.tasks_rejected,
        events_fired: eng.events_fired(),
        violations,
        trace,
    }
}

/// Delta-debugging (ddmin-style) shrinker: greedily remove event chunks
/// — halves down to single events — keeping every candidate that still
/// fails, until a full single-event pass removes nothing. `fails` must
/// be deterministic; returns the minimal schedule and how many
/// candidate runs it took.
pub fn shrink_schedule<F>(schedule: &ChaosSchedule, mut fails: F) -> (ChaosSchedule, u64)
where
    F: FnMut(&ChaosSchedule) -> bool,
{
    let mut best = schedule.clone();
    let mut attempts = 0u64;
    let mut empty = best.clone();
    empty.events.clear();
    attempts += 1;
    if fails(&empty) {
        return (empty, attempts);
    }
    loop {
        if best.events.len() <= 1 {
            break;
        }
        let mut improved = false;
        let mut chunk = best.events.len() / 2;
        while chunk >= 1 {
            let mut start = 0;
            while start < best.events.len() {
                let end = (start + chunk).min(best.events.len());
                let mut cand = best.clone();
                cand.events.drain(start..end);
                if cand.events.is_empty() {
                    start = end;
                    continue; // the empty schedule was already tried
                }
                attempts += 1;
                if fails(&cand) {
                    best = cand;
                    improved = true;
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        if !improved {
            break;
        }
    }
    (best, attempts)
}

// ---------------------------------------------------------------------------
// Corpus format (tests/chaos_corpus/*.chaos)
// ---------------------------------------------------------------------------

const CORPUS_HEADER: &str = "# parfait chaos corpus v1";

fn fmt_action(action: &ChaosAction) -> String {
    match action {
        ChaosAction::Fault(FaultKind::WorkerCrash { worker }) => {
            format!("worker-crash worker={worker}")
        }
        ChaosAction::Fault(FaultKind::GpuClientFault { worker }) => {
            format!("gpu-client-fault worker={worker}")
        }
        ChaosAction::Fault(FaultKind::DeviceFault { gpu }) => format!("device-fault gpu={gpu}"),
        ChaosAction::Fault(FaultKind::ProvisioningFailure { worker }) => {
            format!("provisioning-failure worker={worker}")
        }
        ChaosAction::Fault(FaultKind::Straggler {
            gpu,
            factor,
            duration,
        }) => format!(
            "straggler gpu={gpu} factor={factor:?} duration={}",
            duration.as_nanos()
        ),
        ChaosAction::Fault(FaultKind::ModelLoadOom { worker }) => {
            format!("model-load-oom worker={worker}")
        }
        ChaosAction::Fault(FaultKind::HostReboot { host }) => format!("host-reboot host={host}"),
        ChaosAction::Fault(FaultKind::RackPower { rack }) => format!("rack-power rack={rack}"),
        ChaosAction::Fault(FaultKind::ReconfigFail { gpu }) => format!("reconfig-fail gpu={gpu}"),
        ChaosAction::Fault(FaultKind::ZombieWorker { worker }) => {
            format!("zombie-worker worker={worker}")
        }
        ChaosAction::Fault(FaultKind::FlakyLink {
            gpu,
            factor,
            duration,
        }) => format!(
            "flaky-link gpu={gpu} factor={factor:?} duration={}",
            duration.as_nanos()
        ),
        ChaosAction::ResizeMps { gpu, skew } => format!("resize-mps gpu={gpu} skew={skew}"),
        ChaosAction::ReconfigMig { gpu } => format!("reconfig-mig gpu={gpu}"),
        ChaosAction::AutoscaleFlip { gpu } => format!("autoscale-flip gpu={gpu}"),
        ChaosAction::Burst { tasks } => format!("burst tasks={tasks}"),
    }
}

/// Serialize a schedule (plus the oracle it violated and a free-form
/// note) into the corpus text format. Round-trips exactly through
/// [`schedule_from_corpus`], including `f64` fault parameters.
pub fn schedule_to_corpus(s: &ChaosSchedule, oracle: &str, note: &str) -> String {
    let mut out = String::new();
    out.push_str(CORPUS_HEADER);
    out.push('\n');
    out.push_str(&format!("case_seed {}\n", s.case_seed));
    out.push_str(&format!("mode {}\n", s.mode.token()));
    out.push_str(&format!("gpus {}\n", s.gpus));
    out.push_str(&format!("workers_per_gpu {}\n", s.workers_per_gpu));
    out.push_str(&format!("oracle {oracle}\n"));
    out.push_str(&format!("note {note}\n"));
    for ev in &s.events {
        out.push_str(&format!(
            "event {} {}\n",
            ev.at.as_nanos(),
            fmt_action(&ev.action)
        ));
    }
    out
}

fn field<'a>(parts: &'a [&'a str], key: &str) -> Result<&'a str, String> {
    parts
        .iter()
        .find_map(|p| p.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: `{s}`"))
}

fn parse_action(kind: &str, parts: &[&str]) -> Result<ChaosAction, String> {
    let worker = || field(parts, "worker").and_then(|v| parse_num(v, "worker"));
    let gpu = || field(parts, "gpu").and_then(|v| parse_num(v, "gpu"));
    Ok(match kind {
        "worker-crash" => ChaosAction::Fault(FaultKind::WorkerCrash { worker: worker()? }),
        "gpu-client-fault" => ChaosAction::Fault(FaultKind::GpuClientFault { worker: worker()? }),
        "device-fault" => ChaosAction::Fault(FaultKind::DeviceFault { gpu: gpu()? }),
        "provisioning-failure" => {
            ChaosAction::Fault(FaultKind::ProvisioningFailure { worker: worker()? })
        }
        "straggler" => ChaosAction::Fault(FaultKind::Straggler {
            gpu: gpu()?,
            factor: field(parts, "factor").and_then(|v| parse_num(v, "factor"))?,
            duration: SimDuration::from_nanos(
                field(parts, "duration").and_then(|v| parse_num(v, "duration"))?,
            ),
        }),
        "model-load-oom" => ChaosAction::Fault(FaultKind::ModelLoadOom { worker: worker()? }),
        "host-reboot" => ChaosAction::Fault(FaultKind::HostReboot {
            host: field(parts, "host").and_then(|v| parse_num(v, "host"))?,
        }),
        "rack-power" => ChaosAction::Fault(FaultKind::RackPower {
            rack: field(parts, "rack").and_then(|v| parse_num(v, "rack"))?,
        }),
        "reconfig-fail" => ChaosAction::Fault(FaultKind::ReconfigFail { gpu: gpu()? }),
        "zombie-worker" => ChaosAction::Fault(FaultKind::ZombieWorker { worker: worker()? }),
        "flaky-link" => ChaosAction::Fault(FaultKind::FlakyLink {
            gpu: gpu()?,
            factor: field(parts, "factor").and_then(|v| parse_num(v, "factor"))?,
            duration: SimDuration::from_nanos(
                field(parts, "duration").and_then(|v| parse_num(v, "duration"))?,
            ),
        }),
        "resize-mps" => ChaosAction::ResizeMps {
            gpu: gpu()?,
            skew: field(parts, "skew").and_then(|v| parse_num(v, "skew"))?,
        },
        "reconfig-mig" => ChaosAction::ReconfigMig { gpu: gpu()? },
        "autoscale-flip" => ChaosAction::AutoscaleFlip { gpu: gpu()? },
        "burst" => ChaosAction::Burst {
            tasks: field(parts, "tasks").and_then(|v| parse_num(v, "tasks"))?,
        },
        other => return Err(format!("unknown action `{other}`")),
    })
}

/// Parse a corpus entry back into `(schedule, oracle, note)`.
pub fn schedule_from_corpus(text: &str) -> Result<(ChaosSchedule, String, String), String> {
    let mut case_seed: Option<u64> = None;
    let mut mode: Option<ChaosMode> = None;
    let mut gpus: Option<u32> = None;
    let mut wpg: Option<u32> = None;
    let mut oracle = String::new();
    let mut note = String::new();
    let mut events = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: String| format!("line {}: {m}", ln + 1);
        let (key, rest) = line.split_once(' ').ok_or_else(|| err("bare key".into()))?;
        match key {
            "case_seed" => case_seed = Some(parse_num(rest, "case_seed").map_err(err)?),
            "mode" => {
                mode = Some(match rest {
                    "mps" => ChaosMode::Mps,
                    "timeshare" => ChaosMode::TimeShare,
                    other => return Err(err(format!("unknown mode `{other}`"))),
                })
            }
            "gpus" => gpus = Some(parse_num(rest, "gpus").map_err(err)?),
            "workers_per_gpu" => wpg = Some(parse_num(rest, "workers_per_gpu").map_err(err)?),
            "oracle" => oracle = rest.to_string(),
            "note" => note = rest.to_string(),
            "event" => {
                let mut parts = rest.split_whitespace();
                let at: u64 = parts
                    .next()
                    .ok_or_else(|| err("event missing time".into()))
                    .and_then(|v| parse_num(v, "event time").map_err(err))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| err("event missing action".into()))?;
                let fields: Vec<&str> = parts.collect();
                let action = parse_action(kind, &fields).map_err(err)?;
                events.push(ChaosEvent {
                    at: SimTime::from_nanos(at),
                    action,
                });
            }
            other => return Err(err(format!("unknown key `{other}`"))),
        }
    }
    let schedule = ChaosSchedule {
        case_seed: case_seed.ok_or("missing case_seed")?,
        mode: mode.ok_or("missing mode")?,
        gpus: gpus.ok_or("missing gpus")?,
        workers_per_gpu: wpg.ok_or("missing workers_per_gpu")?,
        events,
    };
    Ok((schedule, oracle, note))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn no_hook() -> impl FnMut(&mut FaasWorld, &mut Engine<FaasWorld>, &ChaosAction) -> Option<bool>
    {
        |_, _, _| None
    }

    #[test]
    fn grammar_is_deterministic_and_seed_sensitive() {
        let cfg = ChaosConfig::default();
        let a = generate_schedule(7, 3, &cfg);
        let b = generate_schedule(7, 3, &cfg);
        assert_eq!(a, b, "same (seed, index) must name the same schedule");
        let c = generate_schedule(7, 4, &cfg);
        assert_ne!(a, c, "different case index must perturb the schedule");
        for w in a.events.windows(2) {
            assert!(w[0].at <= w[1].at, "events sorted by time");
        }
    }

    #[test]
    fn corpus_roundtrips_every_action_kind() {
        // Sweep enough cases that every grammar arm appears at least
        // once, and check exact round-trips (including f64 params).
        let cfg = ChaosConfig {
            max_events: 16,
            ..ChaosConfig::default()
        };
        let mut seen: std::collections::BTreeSet<&'static str> = Default::default();
        for i in 0..200 {
            let s = generate_schedule(11, i, &cfg);
            for ev in &s.events {
                seen.insert(action_label(&ev.action));
            }
            let text = schedule_to_corpus(&s, "none", "roundtrip test");
            let (back, oracle, note) = schedule_from_corpus(&text).expect("parse back");
            assert_eq!(s, back, "corpus round-trip must be exact");
            assert_eq!(oracle, "none");
            assert_eq!(note, "roundtrip test");
        }
        assert_eq!(
            seen.len(),
            ALL_ACTION_LABELS.len(),
            "grammar produced every action kind: {seen:?}"
        );
    }

    #[test]
    fn corpus_rejects_garbage() {
        assert!(schedule_from_corpus("case_seed x\n").is_err());
        assert!(schedule_from_corpus("event 5 warp-core-breach\n").is_err());
        assert!(schedule_from_corpus("").is_err(), "missing header fields");
    }

    #[test]
    fn healthy_run_has_no_violations() {
        let cfg = ChaosConfig::default();
        let mut hook = no_hook();
        for i in 0..3 {
            let s = generate_schedule(42, i, &cfg);
            let r = run_schedule(&s, BugSwitches::default(), &mut hook);
            assert!(
                r.violations.is_empty(),
                "case {i} violated: {:?}\ntrace:\n{}",
                r.violations,
                r.trace
            );
            assert!(r.submitted > 0 && r.done > 0, "run did real work");
        }
    }

    #[test]
    fn run_is_bit_identical_across_replays() {
        let s = generate_schedule(42, 1, &ChaosConfig::default());
        let mut hook = no_hook();
        let a = run_schedule(&s, BugSwitches::default(), &mut hook);
        let b = run_schedule(&s, BugSwitches::default(), &mut hook);
        assert_eq!(a.trace, b.trace, "trace must be byte-identical");
        assert_eq!(a, b, "whole report must replay identically");
    }

    /// The seeded torn-checkpoint regression: a noisy schedule is
    /// caught by the checkpoint-epoch oracle, shrinks to a handful of
    /// events, and the shrunk repro round-trips through the corpus
    /// format bit-identically.
    #[test]
    fn seeded_torn_checkpoint_is_caught_and_shrinks_small() {
        let bugs = BugSwitches {
            torn_checkpoint: true,
        };
        let cfg = ChaosConfig::default();
        // Find a generated schedule that trips the seeded bug (needs a
        // device fault landing while some checkpoint is live).
        let mut failing = None;
        for i in 0..40 {
            let s = generate_schedule(1337, i, &cfg);
            let mut hook = no_hook();
            let r = run_schedule(&s, bugs, &mut hook);
            if r.violations.iter().any(|v| v.oracle == "checkpoint-epoch") {
                failing = Some(s);
                break;
            }
        }
        let s = failing.expect("seeded bug reachable within 40 cases");
        let mut runs = 0u64;
        let (min, attempts) = shrink_schedule(&s, |cand| {
            runs += 1;
            let mut hook = no_hook();
            !run_schedule(cand, bugs, &mut hook).violations.is_empty()
        });
        assert!(attempts == runs && runs > 0);
        assert!(
            min.events.len() <= 5,
            "shrunk to {} events (wanted <= 5): {min:?}",
            min.events.len()
        );
        // Minimal repro still fails, and replays bit-identically after
        // a corpus round-trip.
        let text = schedule_to_corpus(&min, "checkpoint-epoch", "seeded-bug");
        let (back, _, _) = schedule_from_corpus(&text).expect("parse");
        assert_eq!(min, back);
        let mut hook_a = no_hook();
        let mut hook_b = no_hook();
        let a = run_schedule(&min, bugs, &mut hook_a);
        let b = run_schedule(&back, bugs, &mut hook_b);
        assert_eq!(a.trace, b.trace, "corpus replay is bit-identical");
        assert!(a.violations.iter().any(|v| v.oracle == "checkpoint-epoch"));
        // And the same schedule is clean without the seeded bug.
        let mut hook_c = no_hook();
        let clean = run_schedule(&min, BugSwitches::default(), &mut hook_c);
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);
    }

    // Shrinker properties, driven by the vendored proptest (whose own
    // shrinking — integer halving, vec element removal — minimizes any
    // counterexample these find).
    proptest! {
        #[test]
        fn shrinker_reaches_single_marker(
            marks in proptest::collection::vec(any::<bool>(), 1..12),
            force in 0usize..16,
        ) {
            // Synthetic predicate: a schedule "fails" iff it still
            // contains a marked event (bursts are markers). `force`
            // guarantees at least one marker exists.
            let mut marks = marks;
            let n = marks.len();
            marks[force % n] = true;
            let events: Vec<ChaosEvent> = marks
                .iter()
                .enumerate()
                .map(|(i, &m)| ChaosEvent {
                    at: SimTime::from_secs(i as u64 + 1),
                    action: if m {
                        ChaosAction::Burst { tasks: 1 }
                    } else {
                        ChaosAction::Fault(FaultKind::WorkerCrash { worker: i })
                    },
                })
                .collect();
            let s = ChaosSchedule {
                case_seed: 1,
                mode: ChaosMode::Mps,
                gpus: 2,
                workers_per_gpu: 2,
                events,
            };
            let (min, _) = shrink_schedule(&s, |cand| {
                cand.events
                    .iter()
                    .any(|e| matches!(e.action, ChaosAction::Burst { .. }))
            });
            prop_assert_eq!(min.events.len(), 1, "ddmin must reach the single marker");
            prop_assert!(matches!(min.events[0].action, ChaosAction::Burst { .. }));
        }

        #[test]
        fn shrinker_result_always_fails(n in 1usize..10, threshold in 1usize..4) {
            // Predicate: fails while at least `threshold` events remain.
            let events: Vec<ChaosEvent> = (0..n)
                .map(|i| ChaosEvent {
                    at: SimTime::from_secs(i as u64 + 1),
                    action: ChaosAction::Burst { tasks: 1 },
                })
                .collect();
            let s = ChaosSchedule {
                case_seed: 1,
                mode: ChaosMode::TimeShare,
                gpus: 1,
                workers_per_gpu: 1,
                events,
            };
            let fails = |cand: &ChaosSchedule| cand.events.len() >= threshold;
            let (min, _) = shrink_schedule(&s, fails);
            if n >= threshold {
                prop_assert!(fails(&min), "shrinker must return a failing schedule");
                prop_assert_eq!(min.events.len(), threshold, "and a minimal one");
            } else {
                prop_assert_eq!(min.events.len(), n, "non-failing input is untouched");
            }
        }
    }
}
