//! Deterministic fault injection and the recovery bookkeeping it drives.
//!
//! A [`FaultPlan`] is a schedule of [`FaultEvent`]s — either authored
//! explicitly or realized from [`StochasticFaults`] rates through a
//! dedicated `SimRng` stream, so the *same seed always produces the same
//! fault timeline*. [`install_faults`] arms the plan on the engine;
//! [`inject_fault`] applies one fault with the blast radius its device
//! mode implies:
//!
//! | fault                  | MPS (shared context)        | MIG / exclusive        |
//! |------------------------|-----------------------------|------------------------|
//! | fatal client fault     | all co-resident clients die | one worker dies        |
//! | device ECC/Xid fault   | device quarantined          | device quarantined     |
//! | process crash          | one worker (silent)         | one worker (silent)    |
//!
//! Detection and repair (heartbeat watchdog, backoff retry, budgeted
//! respawn, per-GPU circuit breaker) live in [`crate::world`]; this module
//! holds the plan types, the injection dispatch, and [`RecoveryState`].

use crate::monitoring::FaultPhase;
use crate::world::{
    crash_worker, fault_kill_worker, note_client_fault, quarantine_gpu, FaasWorld, WorkerState,
};
use parfait_gpu::host::resync;
use parfait_gpu::{CtxId, DeviceMode, GpuId};
use parfait_simcore::{streams, Engine, SimDuration, SimRng, SimTime};
use serde::Serialize;

/// What breaks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FaultKind {
    /// Worker process dies silently; the watchdog discovers it after the
    /// heartbeat timeout.
    WorkerCrash {
        /// Target worker id.
        worker: usize,
    },
    /// Fatal GPU fault raised by one client's work (illegal address,
    /// assert). Blast radius depends on the device mode: under MPS every
    /// co-resident client shares the faulted context and dies with it;
    /// under MIG or exclusive modes exactly one worker is lost.
    GpuClientFault {
        /// Worker whose kernel faults.
        worker: usize,
    },
    /// Uncorrectable device-level fault (double-bit ECC, Xid). The GPU is
    /// quarantined and every resident is lost, regardless of mode.
    DeviceFault {
        /// Target device index.
        gpu: u32,
    },
    /// The provider fails to hand over the process slot on the worker's
    /// next provisioning attempt.
    ProvisioningFailure {
        /// Target worker id.
        worker: usize,
    },
    /// Transient slowdown: every kernel on the device runs at
    /// `1/factor` speed for `duration` (thermal throttle, noisy
    /// neighbour on the host).
    Straggler {
        /// Target device index.
        gpu: u32,
        /// Rate multiplier in `(0, 1]` — `0.5` halves throughput.
        factor: f64,
        /// How long the slowdown lasts.
        duration: SimDuration,
    },
    /// The worker's next model load dies with a transient out-of-memory;
    /// the task fails and retries.
    ModelLoadOom {
        /// Target worker id.
        worker: usize,
    },
    /// Correlated domain fault: a host reboots, atomically fencing every
    /// GPU it owns (per [`crate::Topology`]) and killing their residents.
    /// The host comes back after `RecoveryConfig::host_reboot`; its GPUs
    /// then re-enroll one by one, staggered by
    /// `RecoveryConfig::gpu_reenroll_stagger`.
    HostReboot {
        /// Target host index.
        host: u32,
    },
    /// Correlated domain fault: a rack loses power, fencing every GPU on
    /// every host in the rack. Power is restored after
    /// [`crate::config::RACK_POWER_RESTORE`], hosts boot staggered by
    /// [`crate::config::HOST_BOOT_STAGGER`], and each host's GPUs then
    /// re-enroll staggered as for [`FaultKind::HostReboot`].
    RackPower {
        /// Target rack index.
        rack: u32,
    },
    /// The next reconfiguration transaction committed against this GPU
    /// fails: a failed MIG re-slice leaves the device quarantined on the
    /// degraded recovery path; a failed MPS respawn rolls the workers
    /// back to their previous percentages through the budgeted
    /// auto-respawn path (consuming restart budget).
    ReconfigFail {
        /// Target device index.
        gpu: u32,
    },
    /// Gray failure: the worker process keeps heartbeating but stops
    /// making progress (hung CUDA call, deadlocked client loop). The
    /// heartbeat watchdog never sees it — `crashed_at` stays `None` —
    /// so only the progress watchdog
    /// (`RecoveryConfig::progress_timeout`) can recover it.
    ZombieWorker {
        /// Target worker id.
        worker: usize,
    },
    /// Gray failure: intermittent PCIe/link degradation on one device.
    /// Every link transfer (model load, checkpoint write, checkpoint
    /// restore) runs at `1/factor` of the nominal rate for `duration`.
    /// Kernel execution is unaffected — the device looks healthy to any
    /// detector that only watches compute.
    FlakyLink {
        /// Target device index.
        gpu: u32,
        /// Link-rate multiplier in `(0, 1]` — `0.25` quadruples
        /// transfer times.
        factor: f64,
        /// How long the degradation lasts.
        duration: SimDuration,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultEvent {
    /// Absolute injection time.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Rates for drawing a random-but-reproducible fault schedule. Arrivals
/// are Poisson (exponential inter-arrival times) over `[0, horizon)`;
/// targets are drawn uniformly. Everything comes from one dedicated RNG
/// stream, so the realized schedule is a pure function of the world seed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StochasticFaults {
    /// Window faults may arrive in.
    pub horizon: SimDuration,
    /// Silent process crashes per hour (across all workers).
    pub crash_rate_per_hour: f64,
    /// Fatal client faults per hour (across all workers).
    pub client_fault_rate_per_hour: f64,
    /// Device ECC/Xid faults per hour (across all GPUs).
    pub device_fault_rate_per_hour: f64,
    /// Straggler episodes per hour (across all GPUs).
    pub straggler_rate_per_hour: f64,
    /// Slowdown factor stragglers apply.
    pub straggler_factor: f64,
    /// How long each straggler episode lasts.
    pub straggler_duration: SimDuration,
    /// Host reboots per hour (across all hosts with GPUs). Realized on
    /// the dedicated [`streams::CORRELATED_FAULTS`] stream so turning
    /// this on never perturbs the independent-fault draws above.
    pub host_reboot_rate_per_hour: f64,
    /// Rack power events per hour (across all racks with GPUs), realized
    /// on [`streams::CORRELATED_FAULTS`].
    pub rack_power_rate_per_hour: f64,
    /// Zombie-worker episodes per hour (across all workers). Realized on
    /// the dedicated [`streams::GRAY_FAULTS`] stream so turning gray
    /// rates on never perturbs a previously recorded crash schedule.
    pub zombie_rate_per_hour: f64,
    /// Flaky-link episodes per hour (across all GPUs), realized on
    /// [`streams::GRAY_FAULTS`].
    pub flaky_link_rate_per_hour: f64,
    /// Link-rate multiplier flaky-link episodes apply.
    pub flaky_link_factor: f64,
    /// How long each flaky-link episode lasts.
    pub flaky_link_duration: SimDuration,
}

impl StochasticFaults {
    /// All-zero rates over `horizon`; builder-style starting point.
    pub fn quiet(horizon: SimDuration) -> Self {
        StochasticFaults {
            horizon,
            crash_rate_per_hour: 0.0,
            client_fault_rate_per_hour: 0.0,
            device_fault_rate_per_hour: 0.0,
            straggler_rate_per_hour: 0.0,
            straggler_factor: 1.0,
            straggler_duration: SimDuration::ZERO,
            host_reboot_rate_per_hour: 0.0,
            rack_power_rate_per_hour: 0.0,
            zombie_rate_per_hour: 0.0,
            flaky_link_rate_per_hour: 0.0,
            flaky_link_factor: 1.0,
            flaky_link_duration: SimDuration::ZERO,
        }
    }
}

/// A complete fault schedule: explicit events plus optional stochastic
/// rates realized at install time.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Explicitly scheduled faults.
    pub events: Vec<FaultEvent>,
    /// Rates to realize into additional events (seeded, reproducible).
    pub stochastic: Option<StochasticFaults>,
}

impl FaultPlan {
    /// Plan a single fault.
    pub fn one(at: SimTime, kind: FaultKind) -> Self {
        FaultPlan {
            events: vec![FaultEvent { at, kind }],
            stochastic: None,
        }
    }

    /// Add a fault to the schedule (builder style).
    pub fn with(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }
}

/// Append Poisson arrivals at `rate_per_hour` over `[0, horizon)` (offset
/// by `base`), drawing each arrival's fault with `mk`. The draw order —
/// gap, fault, gap, ... — is frozen: recorded schedules depend on it.
fn poisson(
    out: &mut Vec<FaultEvent>,
    rate_per_hour: f64,
    horizon: SimDuration,
    base: SimTime,
    rng: &mut SimRng,
    mut mk: impl FnMut(&mut SimRng) -> FaultKind,
) {
    if rate_per_hour <= 0.0 {
        return;
    }
    let horizon = horizon.as_secs_f64();
    let mean_gap = 3600.0 / rate_per_hour;
    let mut t = rng.exp(mean_gap);
    while t < horizon {
        let kind = mk(rng);
        out.push(FaultEvent {
            at: base + SimDuration::from_secs_f64(t),
            kind,
        });
        t += rng.exp(mean_gap);
    }
}

fn realize_stochastic(
    s: &StochasticFaults,
    rng: &mut SimRng,
    base: SimTime,
    workers: usize,
    gpus: usize,
) -> Vec<FaultEvent> {
    let mut out = Vec::new();
    let h = s.horizon;
    if workers > 0 {
        let n = workers as u64;
        poisson(&mut out, s.crash_rate_per_hour, h, base, rng, |r| {
            FaultKind::WorkerCrash {
                worker: r.below(n) as usize,
            }
        });
        poisson(&mut out, s.client_fault_rate_per_hour, h, base, rng, |r| {
            FaultKind::GpuClientFault {
                worker: r.below(n) as usize,
            }
        });
    }
    if gpus > 0 {
        let n = gpus as u64;
        poisson(&mut out, s.device_fault_rate_per_hour, h, base, rng, |r| {
            FaultKind::DeviceFault {
                gpu: r.below(n) as u32,
            }
        });
        let factor = s.straggler_factor;
        let duration = s.straggler_duration;
        poisson(&mut out, s.straggler_rate_per_hour, h, base, rng, |r| {
            FaultKind::Straggler {
                gpu: r.below(n) as u32,
                factor,
                duration,
            }
        });
    }
    out
}

/// Realize the correlated (domain-level) rates on their own RNG stream.
/// Drawing these separately from [`realize_stochastic`] keeps previously
/// recorded independent-fault schedules bit-identical when correlated
/// rates are enabled alongside them.
fn realize_correlated(
    s: &StochasticFaults,
    rng: &mut SimRng,
    base: SimTime,
    hosts: u64,
    racks: u64,
) -> Vec<FaultEvent> {
    let mut out = Vec::new();
    let h = s.horizon;
    if hosts > 0 {
        poisson(&mut out, s.host_reboot_rate_per_hour, h, base, rng, |r| {
            FaultKind::HostReboot {
                host: r.below(hosts) as u32,
            }
        });
    }
    if racks > 0 {
        poisson(&mut out, s.rack_power_rate_per_hour, h, base, rng, |r| {
            FaultKind::RackPower {
                rack: r.below(racks) as u32,
            }
        });
    }
    out
}

/// Realize the gray (zombie / flaky-link) rates on their own RNG stream,
/// for the same reason [`realize_correlated`] has one: enabling gray
/// rates must not perturb previously recorded crash or domain schedules.
fn realize_gray(
    s: &StochasticFaults,
    rng: &mut SimRng,
    base: SimTime,
    workers: usize,
    gpus: usize,
) -> Vec<FaultEvent> {
    let mut out = Vec::new();
    let h = s.horizon;
    if workers > 0 {
        poisson(&mut out, s.zombie_rate_per_hour, h, base, rng, |r| {
            FaultKind::ZombieWorker {
                worker: r.below(workers as u64) as usize,
            }
        });
    }
    if gpus > 0 {
        let factor = s.flaky_link_factor;
        let duration = s.flaky_link_duration;
        poisson(&mut out, s.flaky_link_rate_per_hour, h, base, rng, |r| {
            FaultKind::FlakyLink {
                gpu: r.below(gpus as u64) as u32,
                factor,
                duration,
            }
        });
    }
    out
}

/// Realize and arm a fault plan on the engine. Events in the past fire
/// immediately (at `eng.now()`). Returns the realized schedule — explicit
/// events plus any stochastic draws — sorted by injection time, for
/// embedding in reports.
pub fn install_faults(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    plan: &FaultPlan,
) -> Vec<FaultEvent> {
    let mut events = plan.events.clone();
    if let Some(s) = &plan.stochastic {
        let mut rng = world.rng.split(streams::FAULT_REALIZATION);
        events.extend(realize_stochastic(
            s,
            &mut rng,
            eng.now(),
            world.workers.len(),
            world.fleet.len(),
        ));
        if s.host_reboot_rate_per_hour > 0.0 || s.rack_power_rate_per_hour > 0.0 {
            let topo = world.config.topology;
            let gpus = world.fleet.len() as u32;
            let hosts = if gpus == 0 {
                0
            } else {
                u64::from(topo.host_of(gpus - 1)) + 1
            };
            let racks = if gpus == 0 {
                0
            } else {
                u64::from(topo.rack_of(gpus - 1)) + 1
            };
            let mut crng = world.rng.split(streams::CORRELATED_FAULTS);
            events.extend(realize_correlated(s, &mut crng, eng.now(), hosts, racks));
        }
        if s.zombie_rate_per_hour > 0.0 || s.flaky_link_rate_per_hour > 0.0 {
            let mut grng = world.rng.split(streams::GRAY_FAULTS);
            events.extend(realize_gray(
                s,
                &mut grng,
                eng.now(),
                world.workers.len(),
                world.fleet.len(),
            ));
        }
    }
    events.sort_by_key(|e| e.at); // stable: simultaneous faults keep plan order
    for ev in &events {
        let kind = ev.kind.clone();
        let at = ev.at.max(eng.now());
        eng.schedule_at(at, move |w: &mut FaasWorld, e| {
            inject_fault(w, e, &kind);
        });
    }
    events
}

/// Outcome of a single [`inject_fault`] application.
///
/// Schedule-driven callers (the chaos search, hand-written scenarios)
/// use the refusal reason to distinguish "fault landed" from "fault was
/// a structural no-op" without parsing the monitoring log; the injector
/// itself never panics on an invalid target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectOutcome {
    /// The fault was applied against a live, valid target.
    Applied,
    /// The fault was dropped: the target is out of range, already dead,
    /// or has nothing to fault against. The reason is a stable static
    /// string suitable for counting and triage.
    Refused(&'static str),
}

/// Apply one fault right now, with mode-dependent blast radius. Invalid
/// or dead targets are refused (never a panic) — see [`InjectOutcome`].
pub fn inject_fault(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    kind: &FaultKind,
) -> InjectOutcome {
    let now = eng.now();
    match kind {
        FaultKind::WorkerCrash { worker } => {
            let Some(w) = world.workers.get(*worker) else {
                return InjectOutcome::Refused("unknown-worker");
            };
            if matches!(w.state, WorkerState::Dead | WorkerState::Crashed) {
                return InjectOutcome::Refused("worker-not-live");
            }
            world.recovery.stats.faults_injected += 1;
            world.monitor.fault_event(
                now,
                FaultPhase::Injected,
                "worker-crash",
                None,
                Some(*worker),
                "process crashed silently",
            );
            crash_worker(world, eng, *worker, "injected process crash");
        }
        FaultKind::GpuClientFault { worker } => {
            let Some(w) = world.workers.get(*worker) else {
                return InjectOutcome::Refused("unknown-worker");
            };
            let Some((gpu, _)) = w.gpu else {
                // No context — nothing to fault against.
                return InjectOutcome::Refused("no-gpu-context");
            };
            world.recovery.stats.faults_injected += 1;
            let mode = world.fleet.device(gpu).mode();
            world.monitor.fault_event(
                now,
                FaultPhase::Injected,
                "gpu-client-fault",
                Some(gpu.0),
                Some(*worker),
                format!("fatal CUDA fault under {mode:?}"),
            );
            match mode {
                // One MPS server process serves every client: a fatal
                // fault poisons the shared context and takes the whole
                // device's residents down.
                DeviceMode::MpsDefault | DeviceMode::MpsPartitioned => {
                    quarantine_gpu(world, eng, gpu, "MPS shared context poisoned");
                }
                // Hardware (MIG) or temporal (time-sharing / vGPU)
                // isolation contains the fault to the faulting client.
                DeviceMode::TimeSharing | DeviceMode::Mig | DeviceMode::Vgpu { .. } => {
                    fault_kill_worker(
                        world,
                        eng,
                        *worker,
                        "gpu-client-fault",
                        "fatal CUDA fault (contained)",
                    );
                    if !note_client_fault(world, eng, gpu) {
                        crate::world::auto_respawn(world, eng, *worker);
                    }
                }
            }
        }
        FaultKind::DeviceFault { gpu } => {
            if (*gpu as usize) >= world.fleet.len() {
                return InjectOutcome::Refused("unknown-gpu");
            }
            world.recovery.stats.faults_injected += 1;
            world.monitor.fault_event(
                now,
                FaultPhase::Injected,
                "device-fault",
                Some(*gpu),
                None,
                "uncorrectable ECC/Xid error",
            );
            quarantine_gpu(world, eng, GpuId(*gpu), "uncorrectable ECC/Xid error");
        }
        FaultKind::ProvisioningFailure { worker } => {
            if world.workers.get(*worker).is_none() {
                return InjectOutcome::Refused("unknown-worker");
            }
            world.recovery.stats.faults_injected += 1;
            world.monitor.fault_event(
                now,
                FaultPhase::Injected,
                "provisioning-failure",
                None,
                Some(*worker),
                "next provisioning attempt will fail",
            );
            world.workers[*worker].provision_poisoned = true;
        }
        FaultKind::Straggler {
            gpu,
            factor,
            duration,
        } => {
            if (*gpu as usize) >= world.fleet.len() {
                return InjectOutcome::Refused("unknown-gpu");
            }
            world.recovery.stats.faults_injected += 1;
            let id = GpuId(*gpu);
            world.monitor.fault_event(
                now,
                FaultPhase::Injected,
                "straggler",
                Some(*gpu),
                None,
                format!("kernel rates scaled by {factor:.2} for {duration:?}"),
            );
            world.fleet.device_mut(id).set_slowdown(now, *factor);
            resync(world, eng, id);
            // Episode generations: a clear may only restore nominal speed
            // if no newer episode has re-slowed the device since it was
            // scheduled. Without the guard, an overlapping second episode
            // is clobbered the moment the first one's clear fires.
            let slot = world.recovery.gray_mut(id);
            slot.slowdown_gen += 1;
            let gen = slot.slowdown_gen;
            let g = *gpu;
            eng.schedule_in(*duration, move |w: &mut FaasWorld, e| {
                let id = GpuId(g);
                if w.recovery.gray_mut(id).slowdown_gen != gen {
                    return; // superseded by a newer overlapping episode
                }
                let t = e.now();
                w.fleet.device_mut(id).set_slowdown(t, 1.0);
                resync(w, e, id);
                w.monitor.fault_event(
                    t,
                    FaultPhase::Recovered,
                    "straggler-cleared",
                    Some(g),
                    None,
                    "kernel rates restored",
                );
            });
        }
        FaultKind::ModelLoadOom { worker } => {
            if world.workers.get(*worker).is_none() {
                return InjectOutcome::Refused("unknown-worker");
            }
            world.recovery.stats.faults_injected += 1;
            world.monitor.fault_event(
                now,
                FaultPhase::Injected,
                "model-load-oom",
                None,
                None,
                format!("worker {worker}: next model load will OOM"),
            );
            world.workers[*worker].model_load_poisoned = true;
        }
        FaultKind::HostReboot { host } => {
            let gpus = world
                .config
                .topology
                .gpus_on_host(*host, world.fleet.len() as u32);
            if gpus.is_empty() {
                // Host owns none of the fleet — nothing to fence.
                return InjectOutcome::Refused("empty-host");
            }
            world.recovery.stats.faults_injected += 1;
            world.recovery.stats.domain_outages += 1;
            // Domain-level record carries no worker/GPU subject (MTTR
            // pairs on the per-GPU fence/re-admit records instead).
            world.monitor.fault_event(
                now,
                FaultPhase::Injected,
                "host-reboot",
                None,
                None,
                format!("host {host}: {} resident GPUs fenced", gpus.len()),
            );
            crate::world::fault_host(world, eng, *host);
        }
        FaultKind::RackPower { rack } => {
            let hosts = world
                .config
                .topology
                .hosts_in_rack(*rack, world.fleet.len() as u32);
            if hosts.is_empty() {
                return InjectOutcome::Refused("empty-rack");
            }
            world.recovery.stats.faults_injected += 1;
            world.recovery.stats.domain_outages += 1;
            world.monitor.fault_event(
                now,
                FaultPhase::Injected,
                "rack-power",
                None,
                None,
                format!("rack {rack}: {} hosts lost power", hosts.len()),
            );
            crate::world::fault_rack(world, eng, *rack);
        }
        FaultKind::ReconfigFail { gpu } => {
            if (*gpu as usize) >= world.fleet.len() {
                return InjectOutcome::Refused("unknown-gpu");
            }
            world.recovery.stats.faults_injected += 1;
            world.monitor.fault_event(
                now,
                FaultPhase::Injected,
                "reconfig-fail-armed",
                Some(*gpu),
                None,
                "next reconfiguration commit on this device will fail",
            );
            world.reconfig.poisoned.insert(*gpu);
        }
        FaultKind::ZombieWorker { worker } => {
            let Some(w) = world.workers.get(*worker) else {
                return InjectOutcome::Refused("unknown-worker");
            };
            if matches!(w.state, WorkerState::Dead | WorkerState::Crashed) {
                return InjectOutcome::Refused("worker-not-live");
            }
            world.recovery.stats.faults_injected += 1;
            world.recovery.gray.zombies_injected += 1;
            world.monitor.fault_event(
                now,
                FaultPhase::Injected,
                "zombie-worker",
                None,
                Some(*worker),
                "heartbeats continue, progress stops",
            );
            world.workers[*worker].zombie = true;
            // The heartbeat watchdog cannot see this worker (it never
            // goes Crashed); make sure the progress watchdog is ticking.
            crate::world::arm_progress_watchdog(world, eng);
        }
        FaultKind::FlakyLink {
            gpu,
            factor,
            duration,
        } => {
            if (*gpu as usize) >= world.fleet.len() {
                return InjectOutcome::Refused("unknown-gpu");
            }
            world.recovery.stats.faults_injected += 1;
            world.recovery.gray.flaky_links_injected += 1;
            world.monitor.fault_event(
                now,
                FaultPhase::Injected,
                "flaky-link",
                Some(*gpu),
                None,
                format!("link transfers scaled by {factor:.2} for {duration:?}"),
            );
            let slot = world.recovery.gray_mut(GpuId(*gpu));
            slot.link_factor = factor.clamp(1e-6, 1.0);
            slot.link_gen += 1;
            let gen = slot.link_gen;
            let g = *gpu;
            eng.schedule_in(*duration, move |w: &mut FaasWorld, e| {
                let slot = w.recovery.gray_mut(GpuId(g));
                if slot.link_gen != gen {
                    return; // superseded by a newer overlapping episode
                }
                slot.link_factor = 1.0;
                w.monitor.fault_event(
                    e.now(),
                    FaultPhase::Recovered,
                    "flaky-link-cleared",
                    Some(g),
                    None,
                    "link transfer rates restored",
                );
            });
        }
    }
    InjectOutcome::Applied
}

/// Per-GPU circuit-breaker state.
#[derive(Debug, Clone, Default)]
pub struct GpuHealth {
    /// `Some(t)` while quarantined; re-admission is scheduled for `t`.
    pub open_until: Option<SimTime>,
    /// Contained client faults since the last trip/re-admission.
    pub consecutive_faults: u32,
    /// Workers parked during quarantine, respawned at re-admission.
    pub parked: Vec<usize>,
}

/// Counters summarizing a run's fault and recovery activity.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct RecoveryStats {
    /// Faults actually applied (injections against dead targets are
    /// dropped and not counted).
    pub faults_injected: u64,
    /// Worker processes lost to faults (crash, blast radius, provider).
    pub workers_lost: u64,
    /// Worker deaths the platform itself discovered — heartbeat-watchdog
    /// timeouts *and* fatal-device-error teardowns on the quarantine /
    /// blast-radius path (every such death is platform-detected, not
    /// injector bookkeeping).
    pub crashes_detected: u64,
    /// Automatic respawns started (within the restart budget).
    pub respawns: u64,
    /// Task retries scheduled with backoff.
    pub retries_scheduled: u64,
    /// Circuit-breaker trips (device quarantines, including domain
    /// fences).
    pub quarantines: u64,
    /// Queued tasks failed over to a surviving executor.
    pub failovers: u64,
    /// Correlated domain faults applied (host reboots + rack power).
    pub domain_outages: u64,
    /// Checkpoints committed to the host-side store.
    pub checkpoints_committed: u64,
    /// Retried attempts that resumed from a committed checkpoint instead
    /// of re-executing from scratch.
    pub tasks_resumed: u64,
    /// Seconds of completed-but-unpreserved execution thrown away by
    /// failed attempts (time since the attempt's last committed
    /// checkpoint, or since its body started when none committed).
    pub work_lost_s: f64,
}

/// Counters summarizing gray-failure detection activity. Kept *separate*
/// from [`RecoveryStats`] deliberately: that struct is embedded verbatim
/// in recorded BENCH artifacts (`BENCH_faults.json`), so adding fields
/// there would change their bytes. Gray runs serialize this struct on
/// their own reports instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct GrayStats {
    /// Zombie-worker faults applied.
    pub zombies_injected: u64,
    /// Flaky-link episodes applied.
    pub flaky_links_injected: u64,
    /// Busy workers the progress watchdog declared gray and killed.
    pub progress_kills: u64,
    /// Fail-slow probations started (evacuation drains).
    pub probations: u64,
    /// Canary probes launched after an evacuation drain.
    pub canaries_launched: u64,
    /// Probations that ended in re-admission (canary passed).
    pub readmits: u64,
    /// Probations that ended in a circuit-breaker park (canary failed
    /// or could not run).
    pub parks: u64,
}

/// Where a device currently sits in the fail-slow probation machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Probation {
    /// Not suspected.
    #[default]
    Clear,
    /// Evacuation drain in progress (dispatch to the device is stopped
    /// by the drain transaction itself).
    Draining,
    /// Drain complete; canary kernel in flight. Dispatch stays blocked
    /// by the probation gate until the verdict.
    Canary,
}

/// Per-device gray-failure bookkeeping: fail-slow EWMAs, flaky-link
/// state, straggler episode generations, and the probation machine.
#[derive(Debug, Clone)]
pub(crate) struct DeviceGray {
    /// EWMA of observed kernel-step durations on this device (seconds).
    pub step_ewma: Option<f64>,
    /// Steps folded into `step_ewma` since the last reset.
    pub step_samples: u64,
    /// EWMA of observed/nominal link-transfer time ratios (1.0 nominal).
    pub link_ewma: Option<f64>,
    /// Current flaky-link rate multiplier (1.0 = nominal).
    pub link_factor: f64,
    /// Flaky-link episode generation (overlap guard).
    pub link_gen: u64,
    /// Straggler episode generation (overlap guard; the fix for the
    /// mid-episode `set_slowdown(t, 1.0)` clobber).
    pub slowdown_gen: u64,
    /// Probation machine state.
    pub probation: Probation,
    /// When the in-flight canary probe was launched.
    pub canary_started: Option<SimTime>,
    /// Dedicated probe context created for the canary when the
    /// evacuation left no live resident context to borrow (e.g. every
    /// member was force-killed at the drain timeout). Destroyed when the
    /// probation settles.
    pub canary_probe_ctx: Option<CtxId>,
    /// No new probation may start before this instant (post-verdict
    /// cooldown, so a device is not re-probed while its EWMA refills).
    pub cooldown_until: Option<SimTime>,
}

impl Default for DeviceGray {
    fn default() -> Self {
        DeviceGray {
            step_ewma: None,
            step_samples: 0,
            link_ewma: None,
            link_factor: 1.0,
            link_gen: 0,
            slowdown_gen: 0,
            probation: Probation::Clear,
            canary_started: None,
            canary_probe_ctx: None,
            cooldown_until: None,
        }
    }
}

/// The platform's recovery machinery: watchdog flag, jitter RNG, per-GPU
/// breakers, and counters. Owned by [`FaasWorld`].
#[derive(Debug)]
pub struct RecoveryState {
    /// Backoff-jitter RNG (its own stream; consuming jitter never
    /// perturbs workload randomness).
    pub(crate) rng: SimRng,
    /// Checkpoint-timer jitter RNG (its own stream; arming checkpoint
    /// timers never perturbs backoff jitter or workload randomness).
    pub(crate) ckpt_rng: SimRng,
    /// Canary-probe jitter RNG (its own stream; probation probes never
    /// perturb backoff or checkpoint jitter).
    pub(crate) canary_rng: SimRng,
    gpu_health: Vec<GpuHealth>,
    device_gray: Vec<DeviceGray>,
    /// True while the heartbeat watchdog is ticking.
    pub(crate) watchdog_armed: bool,
    /// True while the progress watchdog is ticking.
    pub(crate) progress_watchdog_armed: bool,
    /// True while the fail-slow detector is ticking.
    pub(crate) failslow_armed: bool,
    /// Devices currently in a non-`Clear` probation state. The dispatch
    /// hot path gates its probation check on this being non-zero, so
    /// runs without fail-slow activity pay one integer compare.
    pub(crate) probations_active: usize,
    /// Run counters.
    pub stats: RecoveryStats,
    /// Gray-failure counters (separate struct; see [`GrayStats`]).
    pub gray: GrayStats,
}

impl RecoveryState {
    /// Fresh state for a fleet of `gpus` devices.
    pub fn new(rng: SimRng, ckpt_rng: SimRng, canary_rng: SimRng, gpus: usize) -> Self {
        RecoveryState {
            rng,
            ckpt_rng,
            canary_rng,
            gpu_health: (0..gpus).map(|_| GpuHealth::default()).collect(),
            device_gray: (0..gpus).map(|_| DeviceGray::default()).collect(),
            watchdog_armed: false,
            progress_watchdog_armed: false,
            failslow_armed: false,
            probations_active: 0,
            stats: RecoveryStats::default(),
            gray: GrayStats::default(),
        }
    }

    /// Breaker state for a device, if tracked.
    pub fn health(&self, gpu: GpuId) -> Option<&GpuHealth> {
        self.gpu_health.get(gpu.0 as usize)
    }

    /// Mutable breaker state, growing the table if the fleet gained
    /// devices after construction.
    pub(crate) fn health_mut(&mut self, gpu: GpuId) -> &mut GpuHealth {
        let i = gpu.0 as usize;
        if i >= self.gpu_health.len() {
            self.gpu_health.resize_with(i + 1, GpuHealth::default);
        }
        &mut self.gpu_health[i]
    }

    /// Gray bookkeeping for a device, if tracked.
    pub(crate) fn gray_state(&self, gpu: GpuId) -> Option<&DeviceGray> {
        self.device_gray.get(gpu.0 as usize)
    }

    /// Mutable gray bookkeeping, growing the table on demand like
    /// [`RecoveryState::health_mut`].
    pub(crate) fn gray_mut(&mut self, gpu: GpuId) -> &mut DeviceGray {
        let i = gpu.0 as usize;
        if i >= self.device_gray.len() {
            self.device_gray.resize_with(i + 1, DeviceGray::default);
        }
        &mut self.device_gray[i]
    }

    /// Current link-rate multiplier for a device (1.0 when untracked).
    pub fn link_factor(&self, gpu: GpuId) -> f64 {
        self.gray_state(gpu).map_or(1.0, |g| g.link_factor)
    }

    /// Number of devices with gray bookkeeping (fleet size at
    /// construction, possibly grown).
    pub(crate) fn gray_len(&self) -> usize {
        self.device_gray.len()
    }
}
