//! Live reconfiguration of GPU partitions — the §6 cost model, executable.
//!
//! The paper measures two reconfiguration paths:
//!
//! * **MPS resize** — the active-thread percentage is fixed at client
//!   start, so changing a worker's share means killing and respawning
//!   its process: a full cold start plus a model reload ("10–20 seconds
//!   of setup time" for LLaMa2).
//! * **MIG resize** — all applications on the GPU must shut down, the
//!   GPU resets (an extra 1–2 s), instances are re-created, and every
//!   worker restarts.
//!
//! Both paths are implemented against the live platform; the timings fall
//! out of the simulation (cold-start model + load bandwidth + reset
//! constant) rather than being asserted. The §7 weight cache shortens the
//! MPS path by turning the model reload into a re-bind.
//!
//! Every reconfiguration is a transaction with one commit body per layout
//! (DESIGN.md §11): `commit_mps` kills each victim and respawns it under
//! its new share; `commit_replan` resets the device and applies a fresh
//! partition plan (MIG re-slice or strategy switch). Two tiers of entry
//! point run them:
//!
//! * [`begin_resize_mps`] / [`begin_reconfigure_mig`] — *staged*: a
//!   [`parfait_faas::begin_drain`] quiesces the victims first
//!   (stop-dispatch → checkpoint → await → timeout force-kill), then the
//!   commit runs at drain completion.
//! * [`resize_mps`] / [`reconfigure_mig_equal`] / [`switch_strategy`] —
//!   *immediate*: a transaction whose drain has already finished. Victims
//!   are killed on the spot (their in-flight tasks fail and retry);
//!   unhealthy targets are refused and a failed commit returns
//!   [`ReconfigError::CommitFailed`].
//!
//! The commit can fail by injection ([`parfait_faas::reconfig_commit_fails`]):
//!
//! | outcome | MPS path | re-plan path |
//! |---|---|---|
//! | fenced mid-drain | abort, keep old shares | abort, keep old slices |
//! | commit fails | rollback: budgeted respawn with old shares | degraded: device quarantined, workers parked for re-admission |
//! | commit succeeds | respawn with new shares | reset + re-slice; respawn after [`MIG_RESET_TIME`] for MIG, inline otherwise |

use crate::planner::{apply_plan, plan, PlanError, Strategy};
use parfait_faas::{
    auto_respawn, begin_drain, gpu_quarantined, kill_worker, quarantine_gpu, reconfig_commit_fails,
    respawn_worker, AcceleratorSpec, FaasWorld, FaultPhase, WorkerState,
};
use parfait_gpu::{context, resync, DeviceMode, GpuId};
use parfait_simcore::{Engine, SimDuration, SimTime};
use serde::Serialize;

/// GPU reset time for MIG reconfiguration (§6: "1–2 seconds").
pub const MIG_RESET_TIME: SimDuration = SimDuration::from_millis(1_500);

/// Why a reconfiguration was refused (before any worker was touched) or
/// why its commit did not apply.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigError {
    /// The target GPU index is outside the fleet.
    UnknownGpu(u32),
    /// The partition plan itself is invalid.
    Plan(PlanError),
    /// The target GPU is quarantined/fenced; reconfiguring a fenced
    /// device would race its recovery path.
    GpuFenced(u32),
    /// A victim worker is in a state that cannot be cleanly restarted
    /// (currently: `Crashed` — its watchdog kill is still in flight).
    WorkerUnhealthy {
        /// The offending worker id.
        worker: usize,
    },
    /// A staged drain/transaction is already active on this GPU.
    Busy(u32),
    /// The device is not in the sharing mode the operation requires
    /// (e.g. an MPS resize on a time-sharing GPU: there is no control
    /// daemon to repartition, and respawning workers with percentage
    /// bindings would leave them permanently dead).
    WrongMode {
        /// The target GPU.
        gpu: u32,
        /// The mode the device is actually in.
        mode: DeviceMode,
    },
    /// The commit on this GPU failed (injected, drawn at the config's
    /// `fail_prob`, or the reset device rejected the new plan): an MPS
    /// resize rolled back to the old shares, a re-plan left the device
    /// quarantined for re-admission.
    CommitFailed(u32),
}

impl From<PlanError> for ReconfigError {
    fn from(e: PlanError) -> Self {
        ReconfigError::Plan(e)
    }
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigError::UnknownGpu(g) => write!(f, "GPU {g} is not in the fleet"),
            ReconfigError::Plan(e) => write!(f, "invalid plan: {e}"),
            ReconfigError::GpuFenced(g) => write!(f, "GPU {g} is fenced/quarantined"),
            ReconfigError::WorkerUnhealthy { worker } => {
                write!(f, "worker {worker} is crashed; let recovery finish first")
            }
            ReconfigError::Busy(g) => write!(f, "a reconfiguration is already draining GPU {g}"),
            ReconfigError::WrongMode { gpu, mode } => {
                write!(
                    f,
                    "GPU {gpu} is in {mode:?} mode; MPS resize needs MpsPartitioned"
                )
            }
            ReconfigError::CommitFailed(g) => write!(f, "reconfiguration commit failed on GPU {g}"),
        }
    }
}

impl std::error::Error for ReconfigError {}

/// What a reconfiguration did (timestamps let callers measure downtime).
#[derive(Debug, Clone, Serialize)]
pub struct ReconfigReport {
    /// GPU index.
    pub gpu: u32,
    /// Wall-clock start (virtual).
    pub initiated_at: SimTime,
    /// Workers killed and respawned.
    pub workers_restarted: Vec<usize>,
    /// Whether a GPU reset was required (MIG path).
    pub gpu_reset: bool,
    /// New per-worker bindings.
    pub new_specs: Vec<AcceleratorSpec>,
}

/// Analytic cost of one MPS resize for a tenant whose model image is
/// `model_bytes` on `spec` (§6): process restart (function init + CUDA
/// context) plus either a full weight reload or a §7 cache re-bind.
pub fn estimate_mps_resize_cost(
    spec: &parfait_gpu::GpuSpec,
    model_bytes: u64,
    weight_cache_hit: bool,
) -> SimDuration {
    let b = if weight_cache_hit {
        context::mean_with_cache_hit()
    } else {
        context::mean(spec, model_bytes)
    };
    b.total()
}

/// Analytic cost of one MIG reconfiguration (§6): GPU reset plus a full
/// tenant restart. Restarts proceed in parallel across tenants, each
/// reloading its own weights, so the outage is reset + one cold start —
/// and the reset wipes the §7 weight cache, so there are no cache hits.
pub fn estimate_mig_reconfig_cost(spec: &parfait_gpu::GpuSpec, model_bytes: u64) -> SimDuration {
    MIG_RESET_TIME + context::mean(spec, model_bytes).total()
}

/// Workers currently bound to a GPU (any state but Dead).
pub fn workers_on_gpu(world: &FaasWorld, gpu: u32) -> Vec<usize> {
    world
        .workers
        .iter()
        .filter(|w| {
            w.state != WorkerState::Dead
                && match &w.accel {
                    Some(AcceleratorSpec::Gpu(g))
                    | Some(AcceleratorSpec::GpuPercentage(g, _))
                    | Some(AcceleratorSpec::VgpuSlot(g, _)) => *g == gpu,
                    Some(AcceleratorSpec::Mig(uuid)) => {
                        world.fleet.mig_device(uuid) == Some(GpuId(gpu))
                    }
                    None => false,
                }
        })
        .map(|w| w.id)
        .collect()
}

/// The first refusal of every reconfiguration entry point: a GPU index
/// outside the fleet names no device to read or reset.
fn check_known(world: &FaasWorld, gpu: u32) -> Result<(), ReconfigError> {
    if (gpu as usize) < world.fleet.len() {
        Ok(())
    } else {
        Err(ReconfigError::UnknownGpu(gpu))
    }
}

/// Common refusals shared by every reconfiguration entry point: never
/// touch a fenced device, never race an active drain, and (for the
/// immediate paths) never restart a worker whose crash is still being
/// detected.
fn check_target(
    world: &FaasWorld,
    gpu: u32,
    victims: &[usize],
    refuse_crashed: bool,
) -> Result<(), ReconfigError> {
    if gpu_quarantined(world, GpuId(gpu)) {
        return Err(ReconfigError::GpuFenced(gpu));
    }
    if world.reconfig.drain_active(gpu) {
        return Err(ReconfigError::Busy(gpu));
    }
    if refuse_crashed {
        for &wid in victims {
            if world.workers[wid].state == WorkerState::Crashed {
                return Err(ReconfigError::WorkerUnhealthy { worker: wid });
            }
        }
    }
    Ok(())
}

/// What an immediate reconfiguration did, read back from the victims'
/// bindings after the commit.
fn report(
    world: &FaasWorld,
    gpu: u32,
    initiated_at: SimTime,
    victims: Vec<usize>,
    gpu_reset: bool,
) -> ReconfigReport {
    ReconfigReport {
        gpu,
        initiated_at,
        new_specs: victims
            .iter()
            .filter_map(|&wid| world.workers[wid].accel.clone())
            .collect(),
        workers_restarted: victims,
        gpu_reset,
    }
}

/// Resize MPS partitions: kill each worker on `gpu` and respawn it with
/// the new percentage. The device stays in `MpsPartitioned` mode and
/// other GPUs are untouched — but each worker pays a §6 restart.
///
/// Refuses GPUs outside the fleet, fenced GPUs, crashed victims, and
/// GPUs mid-drain; use [`begin_resize_mps`] for the graceful staged
/// path. A failed commit rolls back to the old shares and returns
/// [`ReconfigError::CommitFailed`].
pub fn resize_mps(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: u32,
    new_percentages: &[u32],
) -> Result<ReconfigReport, ReconfigError> {
    check_known(world, gpu)?;
    let victims = workers_on_gpu(world, gpu);
    validate_mps(world, gpu, &victims, new_percentages)?;
    check_target(world, gpu, &victims, true)?;
    let initiated_at = eng.now();
    commit_mps(world, eng, gpu, &victims, new_percentages)?;
    Ok(report(world, gpu, initiated_at, victims, false))
}

fn validate_mps(
    world: &FaasWorld,
    gpu: u32,
    victims: &[usize],
    new_percentages: &[u32],
) -> Result<(), ReconfigError> {
    // An MPS resize only makes sense on an MPS-partitioned device: in any
    // other mode there is no control daemon to accept the new shares, and
    // committing anyway would respawn the victims with percentage bindings
    // the device rejects — permanently dead workers, stranded queues.
    let mode = world.fleet.device(GpuId(gpu)).mode();
    if mode != DeviceMode::MpsPartitioned {
        return Err(ReconfigError::WrongMode { gpu, mode });
    }
    if victims.len() != new_percentages.len() {
        return Err(PlanError::WeightLengthMismatch.into());
    }
    for &p in new_percentages {
        if !(1..=100).contains(&p) {
            return Err(PlanError::BadPercentage(p).into());
        }
    }
    Ok(())
}

/// Reconfigure MIG to `k` equal instances: shut down *every* application
/// on the GPU, reset it (destroying instances, wiping memory and the
/// weight cache), re-create instances, and respawn the workers bound to
/// the new UUIDs. Worker respawn is delayed by [`MIG_RESET_TIME`].
///
/// Refuses GPUs outside the fleet, fenced GPUs, crashed victims, and
/// GPUs mid-drain; use [`begin_reconfigure_mig`] for the graceful staged
/// path.
pub fn reconfigure_mig_equal(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: u32,
    k: usize,
) -> Result<ReconfigReport, ReconfigError> {
    check_known(world, gpu)?;
    if workers_on_gpu(world, gpu).len() != k {
        return Err(PlanError::WeightLengthMismatch.into());
    }
    switch_strategy(world, eng, gpu, &Strategy::MigEqual)
}

/// Switch a GPU's sharing strategy wholesale (e.g. time-sharing → MPS):
/// kill residents, reset the device, respawn with the plan's bindings.
///
/// Refuses GPUs outside the fleet, fenced GPUs, crashed victims, and
/// GPUs mid-drain. A failed commit quarantines the device and returns
/// [`ReconfigError::CommitFailed`].
pub fn switch_strategy(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: u32,
    strategy: &Strategy,
) -> Result<ReconfigReport, ReconfigError> {
    check_known(world, gpu)?;
    let victims = workers_on_gpu(world, gpu);
    check_target(world, gpu, &victims, true)?;
    // Validate the plan shape before touching any worker (pure); the
    // commit re-plans against the reset device.
    plan(
        &world.fleet.device(GpuId(gpu)).spec,
        gpu,
        victims.len(),
        strategy,
    )?;
    let initiated_at = eng.now();
    commit_replan(world, eng, gpu, strategy, &victims)?;
    let mig = *strategy == Strategy::MigEqual;
    Ok(report(world, gpu, initiated_at, victims, mig))
}

/// Staged MPS resize: drain the GPU's workers (DESIGN.md §11), then run
/// the resize as a transaction. Returns as soon as the drain is started;
/// the commit/abort outcome lands in `world.reconfig.stats` and the
/// monitoring fault log.
///
/// Unlike [`resize_mps`], crashed victims are accepted — the drain waits
/// for the watchdog (or the drain timeout) to resolve them.
pub fn begin_resize_mps(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: u32,
    new_percentages: Vec<u32>,
) -> Result<(), ReconfigError> {
    check_known(world, gpu)?;
    let victims = workers_on_gpu(world, gpu);
    validate_mps(world, gpu, &victims, &new_percentages)?;
    check_target(world, gpu, &victims, false)?;
    let members = victims.clone();
    begin_drain(
        world,
        eng,
        gpu,
        members,
        Box::new(move |w, e, _outcome| {
            // The outcome is recorded in the stats and the fault log.
            let _ = commit_mps(w, e, gpu, &victims, &new_percentages);
        }),
    )
    .map_err(|_| ReconfigError::Busy(gpu))
}

/// The MPS commit body: kill each victim and respawn it under its new
/// share. Staged resizes run it at drain completion, [`resize_mps`]
/// directly.
fn commit_mps(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: u32,
    victims: &[usize],
    pcts: &[u32],
) -> Result<(), ReconfigError> {
    let now = eng.now();
    if gpu_quarantined(world, GpuId(gpu)) {
        // The device got fenced mid-drain (host outage, rack power, …).
        // Abort: workers keep their previous shares — the ones the fence
        // killed are parked and re-admission respawns them unchanged.
        world.reconfig.stats.txns_aborted += 1;
        world.monitor.fault_event(
            now,
            FaultPhase::Detected,
            "reconfig-abort",
            Some(gpu),
            None,
            "GPU fenced mid-drain; workers keep previous MPS shares",
        );
        return Err(ReconfigError::GpuFenced(gpu));
    }
    if reconfig_commit_fails(world, gpu) {
        // Failed MPS respawn: roll back to the last known-good shares by
        // restarting victims with their old specs through the *budgeted*
        // recovery path — a failed reconfig spends restart budget.
        world.reconfig.stats.txns_failed += 1;
        world.reconfig.stats.rollbacks += 1;
        world.monitor.fault_event(
            now,
            FaultPhase::Detected,
            "reconfig-fail",
            Some(gpu),
            None,
            "MPS respawn failed; rolling back to previous shares",
        );
        for &wid in victims {
            kill_worker(world, eng, wid, "MPS resize failed");
            auto_respawn(world, eng, wid);
        }
        return Err(ReconfigError::CommitFailed(gpu));
    }
    for (&wid, &pct) in victims.iter().zip(pcts) {
        // §6: the env var is read at process start — restart required.
        // `kill_worker` leaves the worker Dead, so the respawn is accepted.
        kill_worker(world, eng, wid, "MPS resize");
        let spec = AcceleratorSpec::GpuPercentage(gpu, pct);
        let _ = respawn_worker(world, eng, wid, Some(spec));
    }
    world.reconfig.stats.txns_committed += 1;
    world.monitor.fault_event(
        now,
        FaultPhase::Recovered,
        "reconfig-commit",
        Some(gpu),
        None,
        format!("MPS shares now {pcts:?}"),
    );
    Ok(())
}

/// Staged MIG re-slice to `k` equal instances: drain, then reset +
/// re-partition as a transaction. See [`begin_resize_mps`] for the
/// drain/commit contract; the failure path here quarantines the device
/// (a botched re-slice leaves it unusable until re-admission).
pub fn begin_reconfigure_mig(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: u32,
    k: usize,
) -> Result<(), ReconfigError> {
    check_known(world, gpu)?;
    let victims = workers_on_gpu(world, gpu);
    if victims.len() != k {
        return Err(PlanError::WeightLengthMismatch.into());
    }
    // Validate the plan shape up front (pure); the commit re-plans
    // against the reset device.
    plan(
        &world.fleet.device(GpuId(gpu)).spec,
        gpu,
        k,
        &Strategy::MigEqual,
    )?;
    check_target(world, gpu, &victims, false)?;
    begin_drain(
        world,
        eng,
        gpu,
        victims.clone(),
        Box::new(move |w, e, _outcome| {
            // The outcome is recorded in the stats and the fault log.
            let _ = commit_replan(w, e, gpu, &Strategy::MigEqual, &victims);
        }),
    )
    .map_err(|_| ReconfigError::Busy(gpu))
}

/// The re-plan commit body: kill every victim, reset the device (wiping
/// its weight cache), apply a fresh `strategy` plan and bind each victim
/// to its new slot. Serves [`switch_strategy`], [`reconfigure_mig_equal`]
/// and, at drain completion, [`begin_reconfigure_mig`].
fn commit_replan(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: u32,
    strategy: &Strategy,
    victims: &[usize],
) -> Result<(), ReconfigError> {
    let now = eng.now();
    if gpu_quarantined(world, GpuId(gpu)) {
        world.reconfig.stats.txns_aborted += 1;
        world.monitor.fault_event(
            now,
            FaultPhase::Detected,
            "reconfig-abort",
            Some(gpu),
            None,
            "GPU fenced mid-drain; MIG layout unchanged",
        );
        return Err(ReconfigError::GpuFenced(gpu));
    }
    let mig = *strategy == Strategy::MigEqual;
    let reason = if mig {
        "MIG reconfiguration"
    } else {
        "strategy switch"
    };
    for &wid in victims {
        kill_worker(world, eng, wid, reason);
    }
    // Reset: drops contexts, allocations, instances — and the weight
    // cache contents on this GPU. A kernel no victim owned (a fail-slow
    // canary's) goes too, so disarm a wake still armed for it.
    world.fleet.device_mut(GpuId(gpu)).reset(now);
    resync(world, eng, GpuId(gpu));
    world.weight_cache.clear_gpu(gpu);
    let k = victims.len();
    let specs = plan(&world.fleet.device(GpuId(gpu)).spec, gpu, k, strategy)
        .and_then(|p| apply_plan(&mut world.fleet, &p));
    // Bind the new slots immediately (the old MIG UUIDs died with the
    // reset): if the device gets fenced during the reset window, the
    // fence can resolve each worker's target GPU and park it.
    if let Ok(specs) = &specs {
        for (&wid, spec) in victims.iter().zip(specs) {
            world.workers[wid].accel = Some(spec.clone());
        }
    }
    if specs.is_err() || reconfig_commit_fails(world, gpu) {
        // Failed re-slice: the device is left in a degraded state.
        // Quarantine it — the victims (all Dead) are parked against the
        // fence and re-admission brings them back on restart budget.
        world.reconfig.stats.txns_failed += 1;
        world.monitor.fault_event(
            now,
            FaultPhase::Detected,
            "reconfig-fail",
            Some(gpu),
            None,
            "MIG re-slice failed; device quarantined for recovery",
        );
        quarantine_gpu(world, eng, GpuId(gpu), "MIG re-slice failed");
        return Err(ReconfigError::CommitFailed(gpu));
    }
    world.reconfig.stats.txns_committed += 1;
    world.monitor.fault_event(
        now,
        FaultPhase::Recovered,
        "reconfig-commit",
        Some(gpu),
        None,
        if mig {
            format!("re-sliced to {k} equal MIG instances")
        } else {
            format!("re-planned {k} workers as {strategy:?}")
        },
    );
    if mig {
        // The reset takes 1–2 s before instances exist.
        let victims = victims.to_vec();
        eng.schedule_in(MIG_RESET_TIME, move |w: &mut FaasWorld, e| {
            respawn_victims(w, e, gpu, &victims)
        });
    } else {
        respawn_victims(world, eng, gpu, victims);
    }
    Ok(())
}

/// Respawn a committed re-plan's victims under their new bindings,
/// unless the device was fenced meanwhile (they stay parked for
/// re-admission).
fn respawn_victims(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    gpu: u32,
    victims: &[usize],
) {
    if gpu_quarantined(world, GpuId(gpu)) {
        return;
    }
    for &wid in victims {
        // Refused, harmlessly, for a worker already revived (e.g.
        // re-admitted after a fence).
        let _ = respawn_worker(world, eng, wid, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfait_gpu::GpuSpec;

    #[test]
    fn resize_estimates_match_paper_bands() {
        let spec = GpuSpec::a100_80gb();
        let fp16_7b = 7_000_000_000u64 * 2;
        let stock = estimate_mps_resize_cost(&spec, fp16_7b, false).as_secs_f64();
        let cached = estimate_mps_resize_cost(&spec, fp16_7b, true).as_secs_f64();
        // §6: restart with reload lands in the ~8-20 s band; the cache
        // collapses it to process startup (~2.5 s).
        assert!((7.0..=20.0).contains(&stock), "stock {stock}");
        assert!(cached < 3.5, "cached {cached}");
        assert!(stock / cached > 2.5);
    }

    #[test]
    fn mig_estimate_exceeds_mps_by_the_reset() {
        let spec = GpuSpec::a100_80gb();
        let fp16_7b = 7_000_000_000u64 * 2;
        let mps = estimate_mps_resize_cost(&spec, fp16_7b, false);
        let mig = estimate_mig_reconfig_cost(&spec, fp16_7b);
        assert_eq!(mig, MIG_RESET_TIME + mps, "MIG = reset + full restart");
    }
}
