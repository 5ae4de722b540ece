//! Fleet-scale open-loop driver: the ISSUE-6 acceptance scenario.
//!
//! Pushes ~1M requests through a 1000-GPU MIG-partitioned topology and
//! measures how fast the *simulator* chews through it. The platform is
//! deliberately simple — one short kernel per request, no model loads,
//! no faults — so the run isolates the per-event cost of the substrate
//! (engine heap, GPU arbitration recompute, world dispatch/bookkeeping)
//! rather than the physics of any particular workload.
//!
//! Two runs are compared:
//! - **optimized**: world index + per-domain dirty tracking on (the
//!   defaults) and per-task monitoring rows off, at the full task count;
//! - **baseline**: all three off — every dispatch/watchdog/controller
//!   question answered by the original full scans, every recompute
//!   re-deriving every kernel, every task start/end retaining a
//!   formatted monitoring row — at `tasks / 10` (its per-event cost is
//!   what matters, and it grows with fleet size).
//!
//! The headline metric is engine events per wall-second; the acceptance
//! bar is `>= 10×` optimized over baseline. A third, small run re-checks
//! behavioural equivalence: the baseline task count executed *with* the
//! optimizations must produce bit-identical simulation results
//! (makespan, event counts, peak population) — the optimizations are
//! pure strength reductions, never semantic changes.
//!
//! Requests arrive open-loop on the `FLEET_ARRIVALS` stream via
//! [`parfait_workloads::trace::fleet`]: Poisson at 60% of fleet
//! capacity, modulated by a diurnal sinusoid (amplitude 0.3, 20 s "day")
//! and periodic flash crowds (1 s every 7 s at 1.6×), so the fleet
//! sweeps through under-load, saturation and queue-drain phases.

use crate::report::write_report;
use crate::scenarios::chain_arrivals;
use parfait_core::{apply_plan, plan, Strategy};
use parfait_faas::{boot, AppCall, Config, ExecutorConfig, FaasWorld, TaskState};
use parfait_gpu::host::{GpuFleet, GpuHost};
use parfait_gpu::{GpuSpec, KernelDesc};
use parfait_simcore::{streams, Engine, SimDuration, SimRng};
use parfait_workloads::trace::{self, FleetShape};
use serde::Serialize;
use std::time::Instant;

/// MIG instances (= workers) carved out of each GPU.
pub const WORKERS_PER_GPU: usize = 4;

/// Executor pools the fleet is sharded into (capped by the GPU count):
/// ~62 workers per pool at full scale, the granularity of a per-tenant
/// or per-rack pool. Each completion kicks every executor, so this also
/// scales the number of dispatch decisions per event.
pub const EXECUTOR_POOLS: usize = 64;

/// Single-request service time: the kernel is sized (8 blocks, 0.4
/// SM·s) so every MIG instance runs it at exactly 8 SMs → 50 ms,
/// independent of the instance profile.
const SERVICE_SECONDS: f64 = 0.05;

/// Offered base load as a fraction of fleet capacity.
const BASE_UTILIZATION: f64 = 0.6;

/// The arrival-rate profile for a fleet of `workers` workers.
pub fn arrival_shape(workers: usize) -> FleetShape {
    FleetShape {
        base_rate: BASE_UTILIZATION * workers as f64 / SERVICE_SECONDS,
        diurnal_amplitude: 0.3,
        day: SimDuration::from_secs(20),
        phase: 0.0,
        flash_every: SimDuration::from_secs(7),
        flash_len: SimDuration::from_secs(1),
        flash_factor: 1.6,
    }
}

/// The deterministic outcome of a run — a pure function of
/// `(gpus, tasks, seed)` and *provably independent* of the
/// optimization toggles (checked by [`measure`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FleetBehavior {
    /// Tasks that completed successfully.
    pub completed: usize,
    /// Tasks that failed (must be 0).
    pub failed: usize,
    /// First submission → last completion, in integer nanoseconds
    /// (exact compare; no float formatting in the equivalence check).
    pub makespan_ns: u64,
    /// Peak number of submitted-but-unfinished tasks.
    pub peak_in_flight: usize,
    /// Engine events executed.
    pub events_fired: u64,
    /// Event-heap pushes (deterministic cost proxy).
    pub heap_pushes: u64,
    /// Event-heap pops (fired events + drained tombstones).
    pub heap_pops: u64,
}

/// Deterministic statistics of one fleet run.
#[derive(Debug, Clone, Serialize)]
pub struct FleetSimStats {
    /// GPUs in the fleet.
    pub gpus: usize,
    /// Worker processes (MIG instances).
    pub workers: usize,
    /// Executor pools.
    pub executors: usize,
    /// Requests offered.
    pub tasks: usize,
    /// Toggle-independent outcome.
    pub behavior: FleetBehavior,
    /// GPU arbitration recomputes (cost proxy; *does* depend on the
    /// dirty-tracking toggle — that is the point of the counter).
    pub recompute_calls: u64,
    /// Dirty domains re-derived across all recomputes.
    pub domains_visited: u64,
    /// Clean domains skipped (0 with dirty tracking off).
    pub domains_skipped: u64,
}

/// One timed fleet run.
#[derive(Debug, Clone, Serialize)]
pub struct FleetRun {
    /// World index + dirty tracking enabled?
    pub optimized: bool,
    /// Deterministic statistics.
    pub sim: FleetSimStats,
    /// Wall-clock seconds spent inside the event loop.
    pub wall_s: f64,
    /// `behavior.events_fired / wall_s` — the headline metric.
    pub events_per_sec: f64,
    /// Peak of live heap bytes while the world is built, booted and run;
    /// the reduction to this record is not counted.
    pub peak_live_bytes: u64,
    /// `peak_live_bytes / tasks`: the heap a request costs at the peak,
    /// where the task table holds every request's record.
    pub peak_live_bytes_per_task: f64,
}

/// The full report written to `BENCH_fleet.json`.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Experiment seed.
    pub seed: u64,
    /// Full-scale run with the optimizations on.
    pub optimized: FleetRun,
    /// Scaled-down (`tasks / 10`) run with both optimizations off.
    pub baseline: FleetRun,
    /// `optimized.events_per_sec / baseline.events_per_sec`
    /// (acceptance bar: >= 10).
    pub speedup_events_per_sec: f64,
    /// Task count of the behavioural-equivalence cross-check (the
    /// baseline count re-run optimized and bit-compared).
    pub equivalence_checked_tasks: usize,
}

/// Build the fleet platform: `gpus` A100-80GBs, each MIG-partitioned
/// into [`WORKERS_PER_GPU`] instances, sharded round-robin over
/// `min(EXECUTOR_POOLS, gpus)` executor pools. Monitoring is off — this
/// is a throughput driver, not a figure.
fn build_platform(gpus: usize, seed: u64) -> (FaasWorld, Engine<FaasWorld>, usize) {
    let gpu_spec = GpuSpec::a100_80gb();
    let pools = EXECUTOR_POOLS.min(gpus).max(1);
    let mut fleet = GpuFleet::new();
    let mut pool_specs: Vec<Vec<parfait_faas::AcceleratorSpec>> = vec![Vec::new(); pools];
    for g in 0..gpus as u32 {
        fleet.add(gpu_spec.clone());
        let p = plan(&gpu_spec, g, WORKERS_PER_GPU, &Strategy::MigEqual).expect("valid plan");
        let specs = apply_plan(&mut fleet, &p).expect("plan applies");
        pool_specs[g as usize % pools].extend(specs);
    }
    let executors = pool_specs
        .into_iter()
        .enumerate()
        .map(|(i, specs)| ExecutorConfig::gpu(format!("pool{i}"), specs))
        .collect();
    let mut config = Config::new(executors);
    config.monitoring_period = None;
    let world = FaasWorld::new(config, fleet, seed);
    (world, Engine::new(), pools)
}

/// One request: a single 50 ms kernel, model-free.
fn fleet_call(pool: usize) -> AppCall {
    AppCall::new("fleet", format!("pool{pool}"), |_| {
        Box::new(parfait_faas::app::bodies::KernelSeq::new(
            vec![KernelDesc::new("fleet", 0.4, 8, 8, 0.0)],
            SimDuration::ZERO,
        ))
    })
}

/// Build, boot and run the fleet scenario; returns the finished world
/// and engine, the pool count and the event loop's wall seconds.
fn simulate(
    gpus: usize,
    tasks: usize,
    seed: u64,
    optimized: bool,
) -> (FaasWorld, Engine<FaasWorld>, usize, f64) {
    let (mut world, mut eng, pools) = build_platform(gpus, seed);
    let workers = gpus * WORKERS_PER_GPU;
    world.set_index_enabled(optimized);
    world.fleet_mut().set_dirty_tracking(optimized);
    // The third fleet-scale optimization: pre-change, every task start/
    // end retained a formatted monitoring row — O(tasks) memory and
    // allocator churn. The baseline keeps that behaviour; the store is
    // write-only, so the toggle cannot affect simulation behaviour
    // (and the equivalence check proves it).
    world.monitor.record_worker_events = !optimized;
    let mut rng = SimRng::new(seed).split(streams::FLEET_ARRIVALS);
    let tr = trace::fleet(&mut rng, &arrival_shape(workers), tasks);
    boot(&mut world, &mut eng);
    chain_arrivals(&mut eng, tr.arrivals, 0, move |i| fleet_call(i % pools));
    let t = Instant::now();
    eng.run(&mut world);
    (world, eng, pools, t.elapsed().as_secs_f64())
}

/// Run the fleet scenario once and reduce it to [`FleetRun`]. Also
/// returns the allocator traffic of the simulation alone (build, boot
/// and event loop), which excludes the reduction's own buffers.
pub fn run_fleet(
    gpus: usize,
    tasks: usize,
    seed: u64,
    optimized: bool,
) -> (FleetRun, crate::alloc::SectionCost) {
    let ((mut world, eng, pools, wall_s), heap) =
        crate::alloc::section(|| simulate(gpus, tasks, seed, optimized));
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut deltas: Vec<(u64, i32)> = Vec::with_capacity(2 * tasks);
    let mut last_done = 0u64;
    let mut first_submit = u64::MAX;
    for t in world.dfk.tasks() {
        match t.state {
            TaskState::Done => completed += 1,
            TaskState::Failed => failed += 1,
            _ => {}
        }
        let s = t.submitted.as_nanos();
        first_submit = first_submit.min(s);
        deltas.push((s, 1));
        if let Some(f) = t.finished {
            deltas.push((f.as_nanos(), -1));
            last_done = last_done.max(f.as_nanos());
        }
    }
    deltas.sort_unstable();
    let (mut cur, mut peak) = (0i64, 0i64);
    for (_, d) in deltas {
        cur += d as i64;
        peak = peak.max(cur);
    }
    let (recompute_calls, domains_visited, domains_skipped) = world.fleet_mut().cost_counters();
    let behavior = FleetBehavior {
        completed,
        failed,
        makespan_ns: last_done.saturating_sub(first_submit.min(last_done)),
        peak_in_flight: peak as usize,
        events_fired: eng.events_fired(),
        heap_pushes: eng.heap_pushes(),
        heap_pops: eng.heap_pops(),
    };
    let run = FleetRun {
        optimized,
        sim: FleetSimStats {
            gpus,
            workers: gpus * WORKERS_PER_GPU,
            executors: pools,
            tasks,
            behavior,
            recompute_calls,
            domains_visited,
            domains_skipped,
        },
        wall_s,
        events_per_sec: eng.events_fired() as f64 / wall_s.max(1e-9),
        peak_live_bytes: heap.peak_live_bytes,
        peak_live_bytes_per_task: heap.peak_live_bytes as f64 / tasks.max(1) as f64,
    };
    (run, heap)
}

/// Run the full comparison: optimized at `tasks`, baseline (both
/// optimizations off) at `tasks / 10`, plus the behavioural-equivalence
/// cross-check at the baseline scale.
pub fn measure(gpus: usize, tasks: usize, seed: u64) -> FleetReport {
    let base_tasks = (tasks / 10).max(1);
    let (optimized, _) = run_fleet(gpus, tasks, seed, true);
    let (baseline, _) = run_fleet(gpus, base_tasks, seed, false);
    let (check, _) = run_fleet(gpus, base_tasks, seed, true);
    assert_eq!(
        baseline.sim.behavior, check.sim.behavior,
        "optimizations changed simulation behaviour"
    );
    assert_eq!(optimized.sim.behavior.failed, 0, "fleet tasks failed");
    assert_eq!(
        optimized.sim.behavior.completed, tasks,
        "not all fleet tasks completed"
    );
    let speedup = optimized.events_per_sec / baseline.events_per_sec.max(1e-9);
    FleetReport {
        seed,
        optimized,
        baseline,
        speedup_events_per_sec: speedup,
        equivalence_checked_tasks: base_tasks,
    }
}

/// Measure and write `BENCH_fleet.json` into `dir`; returns the report
/// for printing.
pub fn run_and_write(
    dir: &std::path::Path,
    gpus: usize,
    tasks: usize,
    seed: u64,
) -> std::io::Result<FleetReport> {
    let report = measure(gpus, tasks, seed);
    write_report(dir, "BENCH_fleet.json", &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny fleet, end to end: everything completes, the population
    /// sweep is sane, and disabled-vs-enabled behaviour matches (the
    /// same assertion `measure` makes at scale).
    #[test]
    fn small_fleet_completes_and_matches_across_toggles() {
        let (on, _) = run_fleet(4, 300, 7, true);
        let (off, _) = run_fleet(4, 300, 7, false);
        assert_eq!(on.sim.behavior, off.sim.behavior);
        assert_eq!(on.sim.behavior.completed, 300);
        assert_eq!(on.sim.behavior.failed, 0);
        assert!(on.sim.behavior.peak_in_flight >= 1);
        assert!(on.sim.behavior.makespan_ns > 0);
        // Dirty tracking must actually skip clean domains on the
        // optimized run and skip nothing on the baseline.
        assert!(on.sim.domains_skipped > 0);
        assert_eq!(off.sim.domains_skipped, 0);
        assert_eq!(on.sim.recompute_calls, off.sim.recompute_calls);
    }

    #[test]
    fn arrival_shape_scales_with_workers() {
        let s = arrival_shape(4000);
        assert!((s.base_rate - 48_000.0).abs() < 1e-9);
        assert!(s.rate_max() > s.base_rate);
    }
}
