//! Overload-protection benchmark: goodput under offered-load sweep, plus
//! straggler hedging.
//!
//! `repro overload` sweeps offered load from 0.5× to 3× of measured
//! capacity over the §5.2 LLaMa deployment under {MPS, MIG} ×
//! {no-protection, shedding, shedding+hedging+brownout} and writes
//! `BENCH_overload.json`. The signal: with admission control and
//! shedding, goodput (deadline-met completions per second) stays flat
//! past saturation while the unprotected platform collapses — every
//! admitted request queues behind an unbounded backlog and misses its
//! deadline. A separate straggler scenario pins down hedging: a 4×
//! slowdown on one of two GPUs, eight spaced requests, and the p99 with
//! hedging must beat the p99 without — at identical completion counts
//! (exactly-once is load-bearing, not incidental).
//!
//! Everything is seeded (arrivals on `streams::ARRIVAL_TRACE`, hedge
//! jitter on `streams::HEDGE_TIMING`), so the JSON is bit-identical
//! across runs of the same build; `tests/determinism.rs` byte-compares a protected
//! cell across double runs.

use crate::report::write_report;
use crate::scenarios::{
    app_tasks, build_platform, chat_call, mean_service_s, mode_label, outcomes, trace_rows,
    turnarounds, warm_up,
};
use parfait_core::Strategy;
use parfait_faas::{
    enable_brownout, install_faults, resume_sampling, submit, AcceleratorSpec, FaasWorld,
    FaultKind, FaultPlan, OverloadStats, Percentiles,
};
use parfait_simcore::{streams, SimDuration, SimRng};
use parfait_workloads::trace;
use serde::Serialize;

/// Workers sharing the A100 in the sweep (§5.2 deployment shape).
const SWEEP_PROCS: usize = 4;
/// Offered-load multipliers relative to measured capacity.
const LOADS: [f64; 5] = [0.5, 1.0, 1.5, 2.0, 3.0];
/// Deadline as a multiple of the estimated service time.
const DEADLINE_FACTOR: f64 = 4.0;
/// Straggler scenario shape: two GPUs, two workers each, eight probes.
const STRAGGLER_GPUS: usize = 2;
const STRAGGLER_PROCS_PER_GPU: usize = 2;
const STRAGGLER_PROBES: usize = 8;

/// Protection level of one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// No overload protection: unbounded queue, no deadline screening.
    None,
    /// Bounded queue (shed-oldest), deadline-aware admission, retry
    /// budget.
    Shed,
    /// `Shed` plus straggler hedging and (under MPS) a brownout tier of
    /// small thread-percentage workers. Under MIG the degraded tier is
    /// empty — every slice is already placed, so brownout is honestly a
    /// no-op there.
    Full,
}

impl Protection {
    /// Stable label used in the report and tables.
    pub fn label(self) -> &'static str {
        match self {
            Protection::None => "none",
            Protection::Shed => "shed",
            Protection::Full => "full",
        }
    }
}

/// One (mode × protection × load) cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct OverloadCell {
    /// Sharing-mode label (`"mps"`, `"mig"`).
    pub mode: String,
    /// Protection label (`"none"`, `"shed"`, `"full"`).
    pub protection: String,
    /// Offered load as a multiple of measured capacity.
    pub load_x: f64,
    /// Offered arrival rate (req/s).
    pub offered_per_s: f64,
    /// Deadline-met completions per second of measured wall time — the
    /// goodput curve the benchmark exists to draw.
    pub goodput_per_s: f64,
    /// p99 end-to-end latency over admitted-and-completed requests (s).
    pub p99_latency_s: f64,
    /// Requests that passed admission (offered minus door rejections).
    pub admitted: usize,
    /// Admitted requests that completed.
    pub completed: usize,
    /// Completions that met their deadline.
    pub deadline_met: usize,
    /// Requests refused or shed (terminal failures).
    pub failed: usize,
    /// Queue-depth p50/p95/p99 from the periodic samples.
    pub queue_depth: Option<Percentiles>,
    /// Time-in-queue p50/p95/p99 over dispatched requests (s).
    pub time_in_queue_s: Option<Percentiles>,
    /// Shed/reject/hedge/brownout counters for the cell.
    pub overload: OverloadStats,
    /// Engine events fired (determinism fingerprint).
    pub events_fired: u64,
}

/// One arm of the straggler scenario.
#[derive(Debug, Clone, Serialize)]
pub struct StragglerReport {
    /// Sharing-mode label.
    pub mode: String,
    /// Whether hedging was enabled.
    pub hedged: bool,
    /// p50 end-to-end probe latency (s).
    pub p50_latency_s: f64,
    /// p99 end-to-end probe latency (s).
    pub p99_latency_s: f64,
    /// Probes that completed (must equal the probe count either way —
    /// hedging changes latency, never completion counts).
    pub completed: usize,
    /// Completions counted across all workers (warmup + probes); a
    /// duplicate-counting bug would show up here.
    pub worker_completions: u64,
    /// Hedge counters.
    pub overload: OverloadStats,
}

/// The full report written to `BENCH_overload.json`.
#[derive(Debug, Clone, Serialize)]
pub struct OverloadReport {
    /// World seed.
    pub seed: u64,
    /// Requests offered per sweep cell.
    pub requests: usize,
    /// Workers sharing the GPU in the sweep.
    pub procs: usize,
    /// Deadline factor over estimated service time.
    pub deadline_factor: f64,
    /// Per-mode estimated service time (s), measured from a warm run.
    pub est_service_s: Vec<(String, f64)>,
    /// Per-mode capacity (req/s) implied by the estimate.
    pub capacity_per_s: Vec<(String, f64)>,
    /// The sweep: mode × protection × load.
    pub cells: Vec<OverloadCell>,
    /// The straggler scenario: hedging off vs on.
    pub straggler: Vec<StragglerReport>,
}

/// Configure the world's overload knobs for a protection level. Returns
/// the brownout tier to install once traffic is flowing (empty tier ⇒
/// nothing to install).
fn apply_protection(
    world: &mut FaasWorld,
    protection: Protection,
    strategy: &Strategy,
    procs: usize,
) -> Option<Vec<AcceleratorSpec>> {
    if protection == Protection::None {
        return None;
    }
    world.config.overload.queue_cap = Some(2 * procs);
    world.config.overload.deadline_admission = true;
    world.config.overload.retry_budget = true;
    if protection != Protection::Full {
        return None;
    }
    world.config.overload.hedge_trigger = Some(2.0);
    let degraded = match strategy {
        // Two small thread-percentage workers; MPS lets the active
        // thread percentage oversubscribe, so the tier rides on top of
        // the equal split.
        Strategy::MpsEqual => vec![
            AcceleratorSpec::GpuPercentage(0, 15),
            AcceleratorSpec::GpuPercentage(0, 15),
        ],
        _ => Vec::new(),
    };
    (!degraded.is_empty()).then_some(degraded)
}

/// Measure the per-request service time (body start → finish, all
/// workers busy) from a warm run; the admission estimate and the
/// deadline derive from this.
pub fn measure_est(strategy: &Strategy, procs: usize, seed: u64) -> f64 {
    let (mut world, mut eng, llm, gpu_spec) = build_platform(strategy, 1, procs, seed);
    warm_up(&mut world, &mut eng, procs, || {
        chat_call(&llm, &gpu_spec, "warmup")
    });
    mean_service_s(&world)
}

/// Run one sweep cell: warm the platform, offer `requests` Poisson
/// arrivals at `load_x` × capacity, and report goodput/latency plus the
/// protection counters.
fn run_cell(
    strategy: &Strategy,
    protection: Protection,
    load_x: f64,
    requests: usize,
    est: f64,
    seed: u64,
) -> (OverloadCell, FaasWorld) {
    let procs = SWEEP_PROCS;
    let (mut world, mut eng, llm, gpu_spec) = build_platform(strategy, 1, procs, seed);
    world.config.retries = 2;
    let brownout = apply_protection(&mut world, protection, strategy, procs);
    warm_up(&mut world, &mut eng, procs, || {
        chat_call(&llm, &gpu_spec, "warmup")
    });
    let t0 = eng.now();
    resume_sampling(&mut world, &mut eng);

    let capacity = procs as f64 / est;
    let rate = load_x * capacity;
    let deadline = SimDuration::from_secs_f64(DEADLINE_FACTOR * est);
    let est_service = SimDuration::from_secs_f64(est);
    let mut rng = SimRng::new(seed).split(streams::ARRIVAL_TRACE);
    let tr = trace::poisson(&mut rng, rate, requests);
    for a in &tr.arrivals {
        let call = chat_call(&llm, &gpu_spec, "serve")
            .with_deadline(deadline)
            .with_est_service(est_service);
        let at = t0 + SimDuration::from_nanos(a.as_nanos());
        eng.schedule_at(at, move |w: &mut FaasWorld, e| {
            submit(w, e, call);
        });
    }
    // The brownout controller winds down whenever everything is settled,
    // so it starts with the traffic, just after the first arrival lands.
    if let (Some(degraded), Some(first)) = (brownout, tr.arrivals.first().copied()) {
        let at = t0 + SimDuration::from_nanos(first.as_nanos()) + SimDuration::from_millis(1);
        eng.schedule_at(at, move |w: &mut FaasWorld, e| {
            enable_brownout(w, e, 0, degraded);
        });
    }
    eng.run(&mut world);

    let window = eng.now().duration_since(t0).as_secs_f64();
    let latencies = turnarounds(&world, "serve");
    let completed = latencies.len();
    let deadline_met = latencies
        .iter()
        .filter(|&&l| l <= deadline.as_secs_f64())
        .count();
    let (_, failed) = outcomes(&world, "serve");
    let stats = world.overload.stats;
    let admitted = requests - stats.tasks_rejected as usize;
    let time_in_queue_s = Percentiles::of(
        app_tasks(&world, "serve")
            .filter_map(|t| Some(t.dispatched?.duration_since(t.submitted).as_secs_f64()))
            .collect(),
    );
    let cell = OverloadCell {
        mode: mode_label(strategy),
        protection: protection.label().to_string(),
        load_x,
        offered_per_s: rate,
        goodput_per_s: if window > 0.0 {
            deadline_met as f64 / window
        } else {
            0.0
        },
        p99_latency_s: Percentiles::of(latencies).map(|p| p.p99).unwrap_or(0.0),
        admitted,
        completed,
        deadline_met,
        failed,
        queue_depth: world.monitor.queue_depth_percentiles(0),
        time_in_queue_s,
        overload: stats,
        events_fired: eng.events_fired(),
    };
    (cell, world)
}

/// Run one arm of the straggler scenario: two GPUs, one throttled to
/// 1/4 speed, eight spaced probes; hedging either off or on.
pub fn straggler_run(strategy: &Strategy, hedged: bool, seed: u64) -> StragglerReport {
    let (mut world, mut eng, llm, gpu_spec) =
        build_platform(strategy, STRAGGLER_GPUS, STRAGGLER_PROCS_PER_GPU, seed);
    world.config.retries = 2;
    if hedged {
        world.config.overload.hedge_trigger = Some(1.5);
    }
    warm_up(
        &mut world,
        &mut eng,
        STRAGGLER_GPUS * STRAGGLER_PROCS_PER_GPU,
        || chat_call(&llm, &gpu_spec, "warmup"),
    );
    let est = mean_service_s(&world);
    let t0 = eng.now();
    resume_sampling(&mut world, &mut eng);
    install_faults(
        &mut world,
        &mut eng,
        &FaultPlan::one(
            t0 + SimDuration::from_millis(1),
            FaultKind::Straggler {
                gpu: 0,
                factor: 0.25,
                duration: SimDuration::from_secs(600),
            },
        ),
    );
    // Deterministically spaced probes (no RNG: the straggler scenario
    // isolates hedging, so the arrival process carries no noise). The
    // spacing leaves healthy headroom — hedges launch only when a worker
    // is idle, and the point here is tail latency, not saturation (the
    // sweep covers that).
    let est_service = SimDuration::from_secs_f64(est);
    for i in 0..STRAGGLER_PROBES {
        let call = chat_call(&llm, &gpu_spec, "probe").with_est_service(est_service);
        let at = t0 + SimDuration::from_secs_f64(1.2 * est * i as f64);
        eng.schedule_at(at, move |w: &mut FaasWorld, e| {
            submit(w, e, call);
        });
    }
    eng.run(&mut world);
    let latencies = turnarounds(&world, "probe");
    let completed = latencies.len();
    let p = Percentiles::of(latencies);
    StragglerReport {
        mode: mode_label(strategy),
        hedged,
        p50_latency_s: p.map(|p| p.p50).unwrap_or(0.0),
        p99_latency_s: p.map(|p| p.p99).unwrap_or(0.0),
        completed,
        worker_completions: world.workers.iter().map(|w| w.tasks_completed).sum(),
        overload: world.overload.stats,
    }
}

/// Run the full sweep plus the straggler scenario.
pub fn measure(requests: usize, seed: u64) -> OverloadReport {
    let mut est_service_s = Vec::new();
    let mut capacity_per_s = Vec::new();
    let mut cells = Vec::new();
    for strategy in [Strategy::MpsEqual, Strategy::MigEqual] {
        let est = measure_est(&strategy, SWEEP_PROCS, seed);
        est_service_s.push((mode_label(&strategy), est));
        capacity_per_s.push((mode_label(&strategy), SWEEP_PROCS as f64 / est));
        for protection in [Protection::None, Protection::Shed, Protection::Full] {
            for load_x in LOADS {
                let (cell, _) = run_cell(&strategy, protection, load_x, requests, est, seed);
                cells.push(cell);
            }
        }
    }
    let straggler = vec![
        straggler_run(&Strategy::MpsEqual, false, seed),
        straggler_run(&Strategy::MpsEqual, true, seed),
    ];
    OverloadReport {
        seed,
        requests,
        procs: SWEEP_PROCS,
        deadline_factor: DEADLINE_FACTOR,
        est_service_s,
        capacity_per_s,
        cells,
        straggler,
    }
}

/// One fully-protected cell at 2× load plus a line-oriented trace
/// (fault records + task rows + counters), byte-compared across double
/// runs by `tests/determinism.rs`. The cell exercises the hedge-delay
/// jitter stream (`HEDGE_TIMING`).
pub fn traced_overload_run(seed: u64) -> (OverloadCell, String) {
    let strategy = Strategy::MpsEqual;
    let est = measure_est(&strategy, SWEEP_PROCS, seed);
    let (cell, world) = run_cell(&strategy, Protection::Full, 2.0, 40, est, seed);
    let trace = format!(
        "mode={} protection={} load=2.0 seed={} events_fired={}\nstats={:?}\n{}",
        cell.mode,
        cell.protection,
        seed,
        cell.events_fired,
        world.overload.stats,
        trace_rows(&world)
    );
    (cell, trace)
}

/// Run the benchmark and write `BENCH_overload.json` into `dir`.
pub fn run_and_write(
    dir: &std::path::Path,
    requests: usize,
    seed: u64,
) -> std::io::Result<OverloadReport> {
    let report = measure(requests, seed);
    write_report(dir, "BENCH_overload.json", &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goodput_of(cells: &[OverloadCell], protection: &str, load_x: f64) -> f64 {
        cells
            .iter()
            .find(|c| c.protection == protection && c.load_x == load_x)
            .expect("cell present")
            .goodput_per_s
    }

    /// Acceptance: with protection, goodput at 3× offered load stays
    /// within 10% of the protected peak; without, it collapses by more
    /// than 40%.
    #[test]
    fn protection_keeps_goodput_flat_past_saturation() {
        let strategy = Strategy::MpsEqual;
        let est = measure_est(&strategy, SWEEP_PROCS, 99);
        let mut cells = Vec::new();
        for protection in [Protection::None, Protection::Full] {
            for load_x in [1.0, 3.0] {
                let (cell, _) = run_cell(&strategy, protection, load_x, 60, est, 99);
                cells.push(cell);
            }
        }
        let protected_peak = goodput_of(&cells, "full", 1.0).max(goodput_of(&cells, "full", 3.0));
        let protected_3x = goodput_of(&cells, "full", 3.0);
        assert!(
            protected_3x >= 0.9 * protected_peak,
            "protected goodput must stay within 10% of peak at 3x: {protected_3x} vs peak {protected_peak}"
        );
        let unprotected_peak = goodput_of(&cells, "none", 1.0).max(goodput_of(&cells, "none", 3.0));
        let unprotected_3x = goodput_of(&cells, "none", 3.0);
        assert!(
            unprotected_3x < 0.6 * unprotected_peak,
            "unprotected goodput must collapse >40% at 3x: {unprotected_3x} vs peak {unprotected_peak}"
        );
        // Protection actually acted: something was shed or rejected.
        let full_3x = cells
            .iter()
            .find(|c| c.protection == "full" && c.load_x == 3.0)
            .unwrap();
        assert!(full_3x.overload.tasks_rejected + full_3x.overload.tasks_shed > 0);
    }

    /// Acceptance: hedging cuts the straggler p99 without changing any
    /// completion count (exactly-once).
    #[test]
    fn hedging_reduces_straggler_p99_without_changing_counts() {
        let off = straggler_run(&Strategy::MpsEqual, false, 99);
        let on = straggler_run(&Strategy::MpsEqual, true, 99);
        assert_eq!(off.completed, STRAGGLER_PROBES, "{off:?}");
        assert_eq!(on.completed, STRAGGLER_PROBES, "{on:?}");
        let expect = (STRAGGLER_PROBES + STRAGGLER_GPUS * STRAGGLER_PROCS_PER_GPU) as u64;
        assert_eq!(off.worker_completions, expect, "{off:?}");
        assert_eq!(
            on.worker_completions, expect,
            "a hedge win must count exactly one completion: {on:?}"
        );
        assert!(on.overload.hedges_launched >= 1, "{on:?}");
        assert!(
            on.p99_latency_s < off.p99_latency_s,
            "hedging must reduce p99: {} vs {}",
            on.p99_latency_s,
            off.p99_latency_s
        );
    }

    /// Same seed ⇒ bit-identical protected cell and trace.
    #[test]
    fn overload_cell_is_deterministic() {
        let (cell_a, trace_a) = traced_overload_run(99);
        let (cell_b, trace_b) = traced_overload_run(99);
        assert_eq!(trace_a, trace_b);
        assert_eq!(
            serde_json::to_string(&cell_a).unwrap(),
            serde_json::to_string(&cell_b).unwrap()
        );
    }
}
