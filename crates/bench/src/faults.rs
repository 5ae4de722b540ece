//! Fault-injection benchmark: the isolation column of Table 1, reproduced.
//!
//! `repro faults` runs the §5.2 LLaMa2-7B deployment under MPS, MIG, and
//! time-sharing, twice per mode — once clean, once with an *identical*
//! injected fault schedule (a fatal client fault, a silent worker crash,
//! and a straggler episode, at fixed offsets from measurement start) —
//! and reports what each isolation mode's blast radius costs: makespan
//! inflation, workers lost, re-executed tasks, MTTR, and goodput. Under
//! MPS the client fault poisons the shared context and takes every
//! co-resident worker down; under MIG and time-sharing it is contained
//! to one worker. The whole schedule is seeded, so `BENCH_faults.json`
//! is bit-identical across runs of the same build.

use crate::report::write_report;
use crate::scenarios::{
    build_platform, chat_call, makespan_since, mode_label, outcomes, session_call, trace_rows,
    warm_up,
};
use parfait_core::Strategy;
use parfait_faas::{
    install_faults, resume_sampling, submit, FaasWorld, FaultKind, FaultPlan, RecoveryStats,
    Topology,
};
use parfait_simcore::{SimDuration, SimTime};
use serde::Serialize;

/// Offsets (from measurement start) of the injected fault schedule. The
/// same offsets are used for every mode, so the only variable is the
/// isolation mechanism.
const CLIENT_FAULT_AT_S: u64 = 5;
const CRASH_AT_S: u64 = 20;
const STRAGGLER_AT_S: u64 = 35;

fn fault_plan(base: SimTime) -> FaultPlan {
    FaultPlan::default()
        .with(
            base + SimDuration::from_secs(CLIENT_FAULT_AT_S),
            FaultKind::GpuClientFault { worker: 0 },
        )
        .with(
            base + SimDuration::from_secs(CRASH_AT_S),
            FaultKind::WorkerCrash { worker: 1 },
        )
        .with(
            base + SimDuration::from_secs(STRAGGLER_AT_S),
            FaultKind::Straggler {
                gpu: 0,
                factor: 0.5,
                duration: SimDuration::from_secs(10),
            },
        )
}

/// Offsets (from measurement start) of the correlated-outage schedule:
/// a fatal client fault early (exercises the single-GPU blast radius),
/// then a whole-host reboot once the long sessions are mid-flight.
const CORR_CLIENT_FAULT_AT_S: u64 = 5;
const CORR_HOST_REBOOT_AT_S: u64 = 75;

/// Correlated-outage deployment shape: two GPUs on one host, two
/// workers per GPU, eight long chat sessions in the measured phase.
const SESSION_GPUS: usize = 2;
const SESSION_PROCS_PER_GPU: usize = 2;
const SESSION_COUNT: usize = 8;

fn correlated_plan(base: SimTime) -> FaultPlan {
    FaultPlan::default()
        .with(
            base + SimDuration::from_secs(CORR_CLIENT_FAULT_AT_S),
            FaultKind::GpuClientFault { worker: 0 },
        )
        .with(
            base + SimDuration::from_secs(CORR_HOST_REBOOT_AT_S),
            FaultKind::HostReboot { host: 0 },
        )
}

/// One mode's clean-vs-faulted comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ModeFaultReport {
    /// Sharing-mode label (`"mps"`, `"mig"`, `"time-sharing"`).
    pub mode: String,
    /// Makespan of the measured phase without faults (s).
    pub clean_makespan_s: f64,
    /// Makespan with the injected schedule (s).
    pub faulted_makespan_s: f64,
    /// Relative slowdown the faults cost, in percent.
    pub loss_pct: f64,
    /// Completions that finished despite the faults.
    pub completed: usize,
    /// Tasks that exhausted retries.
    pub failed: usize,
    /// Extra attempts beyond the first, summed over all tasks.
    pub reexecuted_tasks: u64,
    /// Mean time to recovery over paired incidents (s), if any closed.
    pub mttr_s: Option<f64>,
    /// Completions per second of faulted wall time (goodput).
    pub goodput_per_s: f64,
    /// Recovery counters for the faulted run.
    pub recovery: RecoveryStats,
    /// Engine events fired in the faulted run (trace fingerprint for the
    /// determinism acceptance check).
    pub events_fired: u64,
}

/// One cell of the correlated-outage sweep: a sharing mode crossed with
/// a checkpoint interval, run clean and then under the host-reboot
/// schedule.
#[derive(Debug, Clone, Serialize)]
pub struct CorrelatedOutageReport {
    /// Sharing-mode label (`"mps"`, `"mig"`).
    pub mode: String,
    /// Checkpoint interval in seconds (`None` = checkpointing off).
    pub checkpoint_interval_s: Option<u64>,
    /// Makespan of the measured sessions without faults (s); includes
    /// checkpoint overhead when the interval is set.
    pub clean_makespan_s: f64,
    /// Makespan with the client fault + host reboot injected (s).
    pub faulted_makespan_s: f64,
    /// Sessions that finished despite the outage.
    pub completed: usize,
    /// Sessions that exhausted retries.
    pub failed: usize,
    /// Extra attempts beyond the first, summed over all tasks.
    pub reexecuted_tasks: u64,
    /// Mean time to recovery over paired per-GPU incidents (s).
    pub mttr_s: Option<f64>,
    /// Recovery counters for the faulted run — `work_lost_s`,
    /// `tasks_resumed`, `checkpoints_committed`, `domain_outages`,
    /// `workers_lost` are the columns of interest here.
    pub recovery: RecoveryStats,
    /// Engine events fired in the faulted run (determinism fingerprint).
    pub events_fired: u64,
}

/// The full report written to `BENCH_faults.json`.
#[derive(Debug, Clone, Serialize)]
pub struct FaultsReport {
    /// World seed.
    pub seed: u64,
    /// Completions in the measured phase, per run.
    pub completions: usize,
    /// Fault offsets from measurement start (s), for the record.
    pub schedule_offsets_s: [u64; 3],
    /// One entry per sharing mode.
    pub modes: Vec<ModeFaultReport>,
    /// Correlated-outage offsets (client fault, host reboot), s.
    pub correlated_offsets_s: [u64; 2],
    /// The correlated-outage sweep: {mps, mig} × {off, 10 s, 30 s}.
    pub correlated: Vec<CorrelatedOutageReport>,
}

/// Warm the platform and run `completions` chat requests, optionally
/// under the fault schedule. Returns (makespan_s, world, events_fired).
fn run_phase(
    strategy: &Strategy,
    procs: usize,
    completions: usize,
    seed: u64,
    inject: bool,
) -> (f64, FaasWorld, u64) {
    let (mut world, mut eng, llm, gpu_spec) = build_platform(strategy, 1, procs, seed);
    // Faulted runs need headroom for re-execution and for workers lost
    // mid-flight; the clean run uses the same budget for comparability.
    world.config.retries = 4;
    warm_up(&mut world, &mut eng, procs, || {
        chat_call(&llm, &gpu_spec, "warmup")
    });
    let measure_start = eng.now();
    resume_sampling(&mut world, &mut eng);
    if inject {
        install_faults(&mut eng, &fault_plan(measure_start));
    }
    for _ in 0..completions {
        submit(&mut world, &mut eng, chat_call(&llm, &gpu_spec, "chat"));
    }
    eng.run(&mut world);
    let makespan = makespan_since(&world, "chat", measure_start);
    (makespan, world, eng.events_fired())
}

/// Warm the session platform and run the long-session phase, optionally
/// under the correlated-outage schedule. Returns (makespan_s, world,
/// events_fired). Pure function of its arguments.
fn run_correlated_phase(
    strategy: &Strategy,
    ckpt_interval: Option<SimDuration>,
    seed: u64,
    inject: bool,
) -> (f64, FaasWorld, u64) {
    let (mut world, mut eng, llm, gpu_spec) =
        build_platform(strategy, SESSION_GPUS, SESSION_PROCS_PER_GPU, seed);
    world.config.retries = 4;
    // Both GPUs live on host 0: a host reboot is a whole-fleet outage.
    world.config.topology = Topology {
        gpus_per_host: SESSION_GPUS as u32,
        hosts_per_rack: 4,
    };
    // Compressed reboot/re-enroll times keep the simulated episode short
    // without changing its structure (host back before GPUs re-enroll).
    world.config.recovery.host_reboot = SimDuration::from_secs(20);
    world.config.recovery.gpu_reenroll_stagger = SimDuration::from_secs(2);
    world.config.checkpoint_interval = ckpt_interval;
    warm_up(
        &mut world,
        &mut eng,
        SESSION_GPUS * SESSION_PROCS_PER_GPU,
        || chat_call(&llm, &gpu_spec, "warmup"),
    );
    let measure_start = eng.now();
    resume_sampling(&mut world, &mut eng);
    if inject {
        install_faults(&mut eng, &correlated_plan(measure_start));
    }
    for _ in 0..SESSION_COUNT {
        submit(
            &mut world,
            &mut eng,
            session_call(&llm, &gpu_spec, "session"),
        );
    }
    eng.run(&mut world);
    let makespan = makespan_since(&world, "session", measure_start);
    (makespan, world, eng.events_fired())
}

/// Run the clean/faulted pair for one (mode, checkpoint interval) cell;
/// returns the report and the faulted run's world.
pub fn correlated_mode_run(
    strategy: &Strategy,
    ckpt_interval_s: Option<u64>,
    seed: u64,
) -> (CorrelatedOutageReport, FaasWorld) {
    let interval = ckpt_interval_s.map(SimDuration::from_secs);
    let (clean_makespan_s, _, _) = run_correlated_phase(strategy, interval, seed, false);
    let (faulted_makespan_s, world, events_fired) =
        run_correlated_phase(strategy, interval, seed, true);
    let (completed, failed) = outcomes(&world, "session");
    let report = CorrelatedOutageReport {
        mode: mode_label(strategy),
        checkpoint_interval_s: ckpt_interval_s,
        clean_makespan_s,
        faulted_makespan_s,
        completed,
        failed,
        reexecuted_tasks: world.dfk.reexecuted_attempts(),
        mttr_s: world.monitor.mttr_s(),
        recovery: world.recovery.stats,
        events_fired,
    };
    (report, world)
}

/// Faulted correlated run plus a line-oriented trace (fault records +
/// task rows), byte-compared across double runs by `tests/determinism.rs`.
pub fn traced_correlated_run(
    strategy: &Strategy,
    ckpt_interval_s: Option<u64>,
    seed: u64,
) -> (CorrelatedOutageReport, String) {
    let (report, world) = correlated_mode_run(strategy, ckpt_interval_s, seed);
    let trace = format!(
        "mode={} ckpt={:?} seed={} events_fired={}\n{}",
        report.mode,
        ckpt_interval_s,
        seed,
        report.events_fired,
        trace_rows(&world)
    );
    (report, trace)
}

/// Sweep the correlated-outage scenario: {MPS, MIG} × checkpoint
/// interval {off, 10 s, 30 s}, identical seed and fault schedule.
pub fn measure_correlated(seed: u64) -> Vec<CorrelatedOutageReport> {
    let mut out = Vec::new();
    for strategy in [Strategy::MpsEqual, Strategy::MigEqual] {
        for interval in [None, Some(10), Some(30)] {
            out.push(correlated_mode_run(&strategy, interval, seed).0);
        }
    }
    out
}

/// Run one faulted phase for `strategy` and return the mode report
/// together with a line-oriented event trace: every fault-incident
/// record (inject/detect/recover) and every chat task's lifecycle row.
/// Two runs with the same seed must produce byte-identical traces — the
/// root `tests/determinism.rs` acceptance test byte-compares this (and
/// the serialized report) across runs under both MPS and MIG.
pub fn traced_mode_run(
    strategy: &Strategy,
    procs: usize,
    completions: usize,
    seed: u64,
) -> (ModeFaultReport, String) {
    let (report, world) = mode_report(strategy, procs, completions, seed);
    let trace = format!(
        "mode={} seed={} events_fired={}\n{}",
        report.mode,
        seed,
        report.events_fired,
        trace_rows(&world)
    );
    (report, trace)
}

/// Run the clean/faulted pair for one mode; returns the report and the
/// faulted run's world.
pub fn mode_report(
    strategy: &Strategy,
    procs: usize,
    completions: usize,
    seed: u64,
) -> (ModeFaultReport, FaasWorld) {
    let (clean_makespan_s, _, _) = run_phase(strategy, procs, completions, seed, false);
    let (faulted_makespan_s, world, events_fired) =
        run_phase(strategy, procs, completions, seed, true);
    let (completed, failed) = outcomes(&world, "chat");
    let loss_pct = if clean_makespan_s > 0.0 {
        (faulted_makespan_s / clean_makespan_s - 1.0) * 100.0
    } else {
        0.0
    };
    let report = ModeFaultReport {
        mode: mode_label(strategy),
        clean_makespan_s,
        faulted_makespan_s,
        loss_pct,
        completed,
        failed,
        reexecuted_tasks: world.dfk.reexecuted_attempts(),
        mttr_s: world.monitor.mttr_s(),
        goodput_per_s: if faulted_makespan_s > 0.0 {
            completed as f64 / faulted_makespan_s
        } else {
            0.0
        },
        recovery: world.recovery.stats,
        events_fired,
    };
    (report, world)
}

/// Run all three modes with the same seed and schedule.
pub fn measure(procs: usize, completions: usize, seed: u64) -> FaultsReport {
    let modes = [
        Strategy::MpsEqual,
        Strategy::MigEqual,
        Strategy::TimeSharing,
    ]
    .iter()
    .map(|s| mode_report(s, procs, completions, seed).0)
    .collect();
    FaultsReport {
        seed,
        completions,
        schedule_offsets_s: [CLIENT_FAULT_AT_S, CRASH_AT_S, STRAGGLER_AT_S],
        modes,
        correlated_offsets_s: [CORR_CLIENT_FAULT_AT_S, CORR_HOST_REBOOT_AT_S],
        correlated: measure_correlated(seed),
    }
}

/// Run the benchmark and write `BENCH_faults.json` into `dir`.
pub fn run_and_write(
    dir: &std::path::Path,
    procs: usize,
    completions: usize,
    seed: u64,
) -> std::io::Result<FaultsReport> {
    let report = measure(procs, completions, seed);
    write_report(dir, "BENCH_faults.json", &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance: same seed + same plan ⇒ bit-identical report.
    #[test]
    fn faults_report_is_deterministic() {
        let a = serde_json::to_string(&measure(4, 6, 99)).unwrap();
        let b = serde_json::to_string(&measure(4, 6, 99)).unwrap();
        assert_eq!(a, b, "BENCH_faults.json must be bit-identical");
    }

    /// The isolation contrast the benchmark exists to show: MPS loses
    /// every co-resident worker to the client fault, MIG and
    /// time-sharing lose one.
    #[test]
    fn mps_blast_radius_exceeds_mig() {
        let (mps, _) = mode_report(&Strategy::MpsEqual, 4, 6, 99);
        let (mig, _) = mode_report(&Strategy::MigEqual, 4, 6, 99);
        assert!(
            mps.recovery.workers_lost >= 4,
            "MPS client fault takes all residents: {:?}",
            mps.recovery
        );
        assert!(
            mps.recovery.quarantines >= 1,
            "MPS fault poisons the shared context"
        );
        // MIG: the client fault costs one worker, the crash another.
        assert!(
            mig.recovery.workers_lost < mps.recovery.workers_lost,
            "MIG contains the fault: mig={:?} mps={:?}",
            mig.recovery,
            mps.recovery
        );
        assert_eq!(mig.recovery.quarantines, 0);
        assert_eq!(mps.completed, 6, "all completions survive under MPS");
        assert_eq!(mig.completed, 6, "all completions survive under MIG");
    }

    /// Acceptance: at identical seed and fault schedule, checkpointing
    /// strictly reduces both work lost and faulted makespan relative to
    /// no-checkpoint, and recovery resumes tasks instead of re-running
    /// them from scratch.
    #[test]
    fn checkpointing_bounds_work_lost() {
        for strategy in [Strategy::MpsEqual, Strategy::MigEqual] {
            let (none, _) = correlated_mode_run(&strategy, None, 99);
            let (ckpt, _) = correlated_mode_run(&strategy, Some(10), 99);
            assert_eq!(none.recovery.tasks_resumed, 0, "{none:?}");
            assert_eq!(none.recovery.checkpoints_committed, 0, "{none:?}");
            assert!(ckpt.recovery.checkpoints_committed > 0, "{ckpt:?}");
            assert!(ckpt.recovery.tasks_resumed > 0, "{ckpt:?}");
            assert!(
                ckpt.recovery.work_lost_s < none.recovery.work_lost_s,
                "checkpointing must strictly reduce work lost: ckpt={ckpt:?} none={none:?}"
            );
            assert!(
                ckpt.faulted_makespan_s < none.faulted_makespan_s,
                "checkpointing must strictly reduce faulted makespan: ckpt={ckpt:?} none={none:?}"
            );
            assert_eq!(none.completed, SESSION_COUNT, "{none:?}");
            assert_eq!(ckpt.completed, SESSION_COUNT, "{ckpt:?}");
        }
    }

    /// Acceptance: under a whole-host reboot the MPS blast radius is at
    /// least as wide as MIG's — the early client fault takes every MPS
    /// co-resident on GPU 0 but only one MIG slice, and the reboot then
    /// levels both at four workers.
    #[test]
    fn host_reboot_blast_radius_mps_vs_mig() {
        let (mps, _) = correlated_mode_run(&Strategy::MpsEqual, None, 99);
        let (mig, _) = correlated_mode_run(&Strategy::MigEqual, None, 99);
        assert_eq!(mps.recovery.domain_outages, 1, "{mps:?}");
        assert_eq!(mig.recovery.domain_outages, 1, "{mig:?}");
        assert!(
            mps.recovery.workers_lost > mig.recovery.workers_lost,
            "MPS whole-host loss must exceed MIG: mps={mps:?} mig={mig:?}"
        );
        assert!(
            mps.recovery.work_lost_s >= mig.recovery.work_lost_s,
            "MPS loses at least as much in-flight work: mps={mps:?} mig={mig:?}"
        );
    }
}
