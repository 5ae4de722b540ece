//! Gray-failure benchmark: zombies, fail-slow devices, and flaky links
//! versus three detection configurations.
//!
//! `repro gray` runs the two-GPU session deployment under MPS and MIG,
//! sweeping detection arms {no detection, silence-only, progress+peer}
//! against an identical injected gray schedule — a zombie worker (heart-
//! beats continue, progress stops), a device-wide straggler episode, and
//! an intermittent per-GPU link degradation. The contrast the benchmark
//! exists to show: a heartbeat (silence-only) watchdog *never* detects a
//! zombie, because the failure mode is loud-but-useless, while the
//! progress watchdog + peer-relative fail-slow detector recover most of
//! the goodput the gray schedule costs. Every run is seeded, so
//! `BENCH_gray.json` is bit-identical across runs of the same build.

use crate::report::write_report;
use crate::scenarios::{
    app_tasks, build_platform, makespan_since, mode_label, outcomes, session_call, trace_rows,
    warm_up,
};
use parfait_core::Strategy;
use parfait_faas::{
    install_faults, resume_sampling, submit, FaasWorld, FaultKind, FaultPhase, FaultPlan,
    GrayStats, TaskState,
};
use parfait_simcore::{SimDuration, SimTime};
use serde::Serialize;

/// Deployment shape: two GPUs, two workers per GPU, eight long chat
/// sessions in the measured phase (same shape as the correlated-outage
/// benchmark, so the clean numbers are directly comparable).
const GRAY_GPUS: usize = 2;
const GRAY_PROCS_PER_GPU: usize = 2;
const GRAY_SESSIONS: usize = 8;

/// Offsets (from measurement start) of the injected gray schedule. The
/// zombie hits a worker on GPU 0, the straggler slows all of GPU 1, and
/// the flaky link degrades GPU 0's transfers — so each detector has a
/// distinct signal to find and the peer-relative comparison always has
/// a healthy same-mode peer on the other axis.
const ZOMBIE_AT_S: u64 = 5;
const ZOMBIE_WORKER: usize = 0; // resident on GPU 0
const STRAGGLER_AT_S: u64 = 10;
const STRAGGLER_GPU: u32 = 1;
const STRAGGLER_FACTOR: f64 = 0.5;
const STRAGGLER_DURATION_S: u64 = 25;
const FLAKY_AT_S: u64 = 12;
const FLAKY_GPU: u32 = 0;
const FLAKY_FACTOR: f64 = 0.25;
const FLAKY_DURATION_S: u64 = 30;

/// Hard horizon for faulted runs, measured from measurement start. An
/// undetected zombie pins its session forever (heartbeats keep the
/// sampler alive, so the event heap never drains); the measured phase is
/// cut off here and unfinished sessions count against goodput.
const HORIZON_S: u64 = 600;

/// Turnaround SLO (submission → completion) for attainment accounting.
const SLO_TURNAROUND_S: u64 = 150;

/// Progress-watchdog timeout for the progress+peer arm: far above any
/// healthy step (≈0.2 s) even under a 0.5× straggler, far below the
/// horizon.
const PROGRESS_TIMEOUT_S: u64 = 10;

/// Checkpoint interval: gives the drain something to preserve and puts
/// periodic priced transfers on every GPU's link, which is what the
/// flaky-link detector samples.
const CKPT_INTERVAL_S: u64 = 10;

fn gray_plan(base: SimTime) -> FaultPlan {
    FaultPlan::default()
        .with(
            base + SimDuration::from_secs(ZOMBIE_AT_S),
            FaultKind::ZombieWorker {
                worker: ZOMBIE_WORKER,
            },
        )
        .with(
            base + SimDuration::from_secs(STRAGGLER_AT_S),
            FaultKind::Straggler {
                gpu: STRAGGLER_GPU,
                factor: STRAGGLER_FACTOR,
                duration: SimDuration::from_secs(STRAGGLER_DURATION_S),
            },
        )
        .with(
            base + SimDuration::from_secs(FLAKY_AT_S),
            FaultKind::FlakyLink {
                gpu: FLAKY_GPU,
                factor: FLAKY_FACTOR,
                duration: SimDuration::from_secs(FLAKY_DURATION_S),
            },
        )
}

/// The detection arms the benchmark sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// Heartbeat watchdog effectively disabled (timeout ≫ horizon).
    NoDetection,
    /// The pre-existing silence-only heartbeat watchdog, default tuning.
    /// A zombie keeps heartbeating, so this arm detects nothing gray.
    SilenceOnly,
    /// Progress watchdog + peer-relative fail-slow detector + probation.
    ProgressPeer,
}

impl Detection {
    /// Stable label used in reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            Detection::NoDetection => "no-detection",
            Detection::SilenceOnly => "silence-only",
            Detection::ProgressPeer => "progress-peer",
        }
    }

    fn apply(self, world: &mut FaasWorld) {
        match self {
            Detection::NoDetection => {
                world.config.recovery.heartbeat_timeout = SimDuration::from_secs(3600);
            }
            Detection::SilenceOnly => {}
            Detection::ProgressPeer => {
                world.config.recovery.progress_timeout =
                    Some(SimDuration::from_secs(PROGRESS_TIMEOUT_S));
                // The fail-slow constants fit this deployment: the
                // uncontended canary (8-block probe kernel + 1 GiB link
                // probe on an A100's 2.5 GB/s effective link) takes
                // ≈0.53 s healthy, inside the 500 ms × 1.6 envelope, while
                // a 4× link degradation (≈1.8 s) or a still-straggled
                // device at probe time falls well outside it.
                world.config.recovery.fail_slow = true;
            }
        }
    }
}

/// One (mode × detection) cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct GrayCellReport {
    /// Sharing-mode label (`"mps"`, `"mig"`).
    pub mode: String,
    /// Detection-arm label.
    pub detection: String,
    /// Makespan of the measured sessions without faults (s).
    pub clean_makespan_s: f64,
    /// Time of the last completion under the gray schedule (s); sessions
    /// pinned by an undetected zombie never contribute here.
    pub faulted_makespan_s: f64,
    /// Goodput window under faults (s): last completion, or the horizon
    /// when any session is still unfinished at cutoff.
    pub window_s: f64,
    /// Sessions that finished despite the gray schedule.
    pub completed: usize,
    /// Sessions that exhausted retries.
    pub failed: usize,
    /// Sessions still in flight at the horizon (the zombie's hostage).
    pub unfinished: usize,
    /// Completions per second, clean run.
    pub clean_goodput_per_s: f64,
    /// Completions per second of the faulted window.
    pub goodput_per_s: f64,
    /// Fraction of sessions finishing within the turnaround SLO, clean.
    pub clean_slo_attainment: f64,
    /// Same under the gray schedule.
    pub slo_attainment: f64,
    /// Injection → first progress-watchdog kill (s), when one fired.
    pub time_to_detect_zombie_s: Option<f64>,
    /// Injection → first fail-slow probation on the same device (s),
    /// minimized over the straggled and link-degraded GPUs.
    pub time_to_detect_failslow_s: Option<f64>,
    /// Progress-watchdog kills in the *clean* run (must be zero).
    pub false_positive_kills: u64,
    /// Fail-slow probations in the *clean* run (must be zero).
    pub false_positive_probations: u64,
    /// Of the goodput the gray schedule cost the no-detection arm, the
    /// fraction this arm won back (only set on progress-peer cells).
    pub goodput_recovered_fraction: Option<f64>,
    /// Gray-failure counters for the faulted run.
    pub gray: GrayStats,
    /// Engine events fired in the faulted run (determinism fingerprint).
    pub events_fired: u64,
}

/// The full report written to `BENCH_gray.json`.
#[derive(Debug, Clone, Serialize)]
pub struct GrayReport {
    /// World seed.
    pub seed: u64,
    /// Sessions in the measured phase, per run.
    pub sessions: usize,
    /// Gray-schedule offsets from measurement start (zombie, straggler,
    /// flaky link), s.
    pub schedule_offsets_s: [u64; 3],
    /// Faulted-run horizon (s).
    pub horizon_s: u64,
    /// Turnaround SLO used for attainment (s).
    pub slo_turnaround_s: u64,
    /// One entry per (mode × detection arm).
    pub cells: Vec<GrayCellReport>,
}

/// Warm the session platform and run the measured phase under one
/// detection arm, optionally with the gray schedule injected. Pure
/// function of its arguments. Returns (world, events_fired,
/// measurement start).
fn run_gray_phase(
    strategy: &Strategy,
    detection: Detection,
    seed: u64,
    inject: bool,
) -> (FaasWorld, u64, SimTime) {
    let (mut world, mut eng, llm, gpu_spec) =
        build_platform(strategy, GRAY_GPUS, GRAY_PROCS_PER_GPU, seed);
    world.config.retries = 4;
    world.config.checkpoint_interval = Some(SimDuration::from_secs(CKPT_INTERVAL_S));
    detection.apply(&mut world);
    warm_up(&mut world, &mut eng, GRAY_GPUS * GRAY_PROCS_PER_GPU, || {
        session_call(&llm, &gpu_spec, "warmup")
    });
    let measure_start = eng.now();
    resume_sampling(&mut world, &mut eng);
    if inject {
        install_faults(&mut eng, &gray_plan(measure_start));
    }
    for _ in 0..GRAY_SESSIONS {
        submit(
            &mut world,
            &mut eng,
            session_call(&llm, &gpu_spec, "session"),
        );
    }
    // An undetected zombie never finishes its session, so the heap never
    // drains on its own — every phase runs under the same hard horizon.
    eng.run_until(
        &mut world,
        measure_start + SimDuration::from_secs(HORIZON_S),
    );
    let fired = eng.events_fired();
    (world, fired, measure_start)
}

/// Fraction of sessions done within the turnaround SLO.
fn slo_attainment(world: &FaasWorld) -> f64 {
    let slo = SimDuration::from_secs(SLO_TURNAROUND_S);
    let sessions: Vec<_> = app_tasks(world, "session").collect();
    if sessions.is_empty() {
        return 0.0;
    }
    let within = sessions
        .iter()
        .filter(|t| {
            t.state == TaskState::Done
                && t.finished
                    .is_some_and(|end| end.duration_since(t.submitted) <= slo)
        })
        .count();
    within as f64 / sessions.len() as f64
}

/// Injection → detection latency from the faulted run's fault records.
/// `detect_kind` records are matched to `inject_kind` records by GPU (or
/// ignoring GPU when `by_gpu` is false); the earliest pair wins.
fn time_to_detect(
    world: &FaasWorld,
    inject_kinds: &[&str],
    detect_kind: &str,
    by_gpu: bool,
) -> Option<f64> {
    let recs = &world.monitor.fault_records;
    let mut best: Option<f64> = None;
    for d in recs
        .iter()
        .filter(|r| r.phase == FaultPhase::Detected && r.kind == detect_kind)
    {
        let inject = recs
            .iter()
            .filter(|r| {
                r.phase == FaultPhase::Injected
                    && inject_kinds.contains(&r.kind)
                    && (!by_gpu || r.gpu == d.gpu)
                    && r.t <= d.t
            })
            .map(|r| r.t)
            .max();
        if let Some(t0) = inject {
            let dt = d.t.duration_since(t0).as_secs_f64();
            if best.is_none_or(|b| dt < b) {
                best = Some(dt);
            }
        }
    }
    best
}

/// Run the clean/faulted pair for one (mode × detection) cell; returns
/// the report and the faulted run's world.
pub fn gray_cell(
    strategy: &Strategy,
    detection: Detection,
    seed: u64,
) -> (GrayCellReport, FaasWorld) {
    let (clean_world, _, clean_start) = run_gray_phase(strategy, detection, seed, false);
    let (world, events_fired, start) = run_gray_phase(strategy, detection, seed, true);
    let clean_makespan_s = makespan_since(&clean_world, "session", clean_start);
    let faulted_makespan_s = makespan_since(&world, "session", start);
    let (completed, failed) = outcomes(&world, "session");
    let unfinished = GRAY_SESSIONS - completed - failed;
    let window_s = if unfinished > 0 {
        HORIZON_S as f64
    } else {
        faulted_makespan_s
    };
    let report = GrayCellReport {
        mode: mode_label(strategy),
        detection: detection.label().to_string(),
        clean_makespan_s,
        faulted_makespan_s,
        window_s,
        completed,
        failed,
        unfinished,
        clean_goodput_per_s: if clean_makespan_s > 0.0 {
            GRAY_SESSIONS as f64 / clean_makespan_s
        } else {
            0.0
        },
        goodput_per_s: if window_s > 0.0 {
            completed as f64 / window_s
        } else {
            0.0
        },
        clean_slo_attainment: slo_attainment(&clean_world),
        slo_attainment: slo_attainment(&world),
        time_to_detect_zombie_s: time_to_detect(&world, &["zombie-worker"], "gray-progress", false),
        time_to_detect_failslow_s: time_to_detect(
            &world,
            &["straggler", "flaky-link"],
            "fail-slow",
            true,
        ),
        false_positive_kills: clean_world.recovery.gray.progress_kills,
        false_positive_probations: clean_world.recovery.gray.probations,
        goodput_recovered_fraction: None, // filled in by `measure`
        gray: world.recovery.gray,
        events_fired,
    };
    (report, world)
}

/// Faulted gray run plus a line-oriented trace (fault records + task
/// rows), byte-compared across double runs by `tests/determinism.rs`.
pub fn traced_gray_run(
    strategy: &Strategy,
    detection: Detection,
    seed: u64,
) -> (GrayCellReport, String) {
    let (report, world) = gray_cell(strategy, detection, seed);
    let trace = format!(
        "mode={} detection={} seed={} events_fired={}\ngray={:?}\n{}",
        report.mode,
        detection.label(),
        seed,
        report.events_fired,
        world.recovery.gray,
        trace_rows(&world)
    );
    (report, trace)
}

/// Sweep {MPS, MIG} × {no detection, silence-only, progress+peer} with
/// the same seed and gray schedule, and derive the recovered-goodput
/// fraction for the progress+peer cells.
pub fn measure(seed: u64) -> GrayReport {
    let mut cells = Vec::new();
    for strategy in [Strategy::MpsEqual, Strategy::MigEqual] {
        let arm = |d| gray_cell(&strategy, d, seed).0;
        let none = arm(Detection::NoDetection);
        let silence = arm(Detection::SilenceOnly);
        let mut pp = arm(Detection::ProgressPeer);
        let lost = pp.clean_goodput_per_s - none.goodput_per_s;
        if lost > 0.0 {
            pp.goodput_recovered_fraction = Some((pp.goodput_per_s - none.goodput_per_s) / lost);
        }
        cells.extend([none, silence, pp]);
    }
    GrayReport {
        seed,
        sessions: GRAY_SESSIONS,
        schedule_offsets_s: [ZOMBIE_AT_S, STRAGGLER_AT_S, FLAKY_AT_S],
        horizon_s: HORIZON_S,
        slo_turnaround_s: SLO_TURNAROUND_S,
        cells,
    }
}

/// Run the benchmark and write `BENCH_gray.json` into `dir`.
pub fn run_and_write(dir: &std::path::Path, seed: u64) -> std::io::Result<GrayReport> {
    let report = measure(seed);
    write_report(dir, "BENCH_gray.json", &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance: same seed + same schedule ⇒ bit-identical report.
    #[test]
    fn gray_report_is_deterministic() {
        let a = serde_json::to_string(&measure(99)).unwrap();
        let b = serde_json::to_string(&measure(99)).unwrap();
        assert_eq!(a, b, "BENCH_gray.json must be bit-identical");
    }

    /// Acceptance: the silence-only watchdog never detects an injected
    /// zombie — heartbeats keep flowing, so the run loses the pinned
    /// session for the whole horizon.
    #[test]
    fn silence_only_watchdog_misses_zombies() {
        for strategy in [Strategy::MpsEqual, Strategy::MigEqual] {
            for d in [Detection::NoDetection, Detection::SilenceOnly] {
                let (cell, _) = gray_cell(&strategy, d, 99);
                assert!(cell.gray.zombies_injected >= 1, "{cell:?}");
                assert_eq!(cell.gray.progress_kills, 0, "{cell:?}");
                assert_eq!(cell.gray.probations, 0, "{cell:?}");
                assert!(cell.time_to_detect_zombie_s.is_none(), "{cell:?}");
                assert!(
                    cell.unfinished >= 1,
                    "zombie session must still be pinned at the horizon: {cell:?}"
                );
            }
        }
    }

    /// Acceptance: progress+peer detection recovers at least half the
    /// goodput the gray schedule costs the no-detection arm, and every
    /// session completes.
    #[test]
    fn progress_peer_recovers_goodput() {
        let report = measure(99);
        for strategy in ["mps", "mig"] {
            let pp = report
                .cells
                .iter()
                .find(|c| c.mode == strategy && c.detection == "progress-peer")
                .expect("cell present");
            assert!(pp.gray.progress_kills >= 1, "{pp:?}");
            assert!(pp.time_to_detect_zombie_s.is_some(), "{pp:?}");
            assert_eq!(pp.completed, GRAY_SESSIONS, "{pp:?}");
            assert_eq!(pp.unfinished, 0, "{pp:?}");
            let frac = pp.goodput_recovered_fraction.expect("lost goodput");
            assert!(
                frac >= 0.5,
                "progress+peer must win back ≥50% of lost goodput, got {frac}: {pp:?}"
            );
        }
    }

    /// Acceptance: zero false positives — the clean run of every arm
    /// kills and quarantines nothing.
    #[test]
    fn clean_runs_have_zero_false_positives() {
        let report = measure(99);
        for cell in &report.cells {
            assert_eq!(cell.false_positive_kills, 0, "{cell:?}");
            assert_eq!(cell.false_positive_probations, 0, "{cell:?}");
        }
    }

    /// The device-wide straggler is judged per *device* by the
    /// peer-relative detector, never as N bad workers: the only
    /// progress-watchdog kill in the whole schedule is the zombie.
    #[test]
    fn straggler_is_not_misread_as_worker_deaths() {
        for strategy in [Strategy::MpsEqual, Strategy::MigEqual] {
            let (cell, _) = gray_cell(&strategy, Detection::ProgressPeer, 99);
            assert_eq!(
                cell.gray.progress_kills, 1,
                "exactly the zombie, nothing else: {cell:?}"
            );
            assert!(cell.gray.probations >= 1, "{cell:?}");
            assert_eq!(
                cell.gray.readmits + cell.gray.parks,
                cell.gray.probations,
                "every probation settles: {cell:?}"
            );
        }
    }
}
