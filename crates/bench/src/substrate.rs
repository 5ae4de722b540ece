//! Substrate micro-benchmarks: how fast is the simulator itself?
//!
//! Every paper figure rides on two hot paths — the event engine's
//! schedule/cancel/fire cycle and the GPU device's arbitration
//! recompute. `repro substrate` times both with wall-clock sampling and
//! writes `BENCH_substrate.json` so substrate throughput is tracked in
//! the repo alongside the scientific outputs, and regressions show up
//! in review rather than as mysteriously slower campaigns.
//!
//! Cases:
//! - `timer_events_100k` — 100k one-shot timers scheduled upfront, run
//!   to completion (pure heap throughput; the acceptance metric).
//! - `cancel_heavy_100k` — 100k timers, every other one cancelled
//!   before the run (tombstone handling).
//! - `reschedule_heavy_100k` — 100k timers that each get cancelled and
//!   re-armed at a later instant, as a timeout wheel would.
//! - `contended_arbitration` — the 8-context × 50-kernel MPS trace
//!   (arbitration recompute throughput, reported in kernels/sec).
//! - `relaunch_chain` — 4 partitioned-MPS contexts × 8 kernels, each
//!   launched from its predecessor's completion handler (the wake
//!   re-arm path of multi-kernel requests, in kernels/sec).
//! - `timeshare` — 3 time-shared contexts × 8 chained 1 s kernels: about
//!   1,900 quantum and switch ends that the device walks lazily rather
//!   than as engine events, mostly as whole turns (in kernels/sec).

use crate::report::write_report;
use parfait_gpu::host::{launch_kernel, GpuFleet, GpuHost};
use parfait_gpu::{CtxBinding, CtxId, DeviceMode, GpuId, GpuSpec, KernelDesc, KernelDone};
use parfait_simcore::{Engine, SimTime};
use serde::Serialize;
use std::time::Instant;

/// Measured wall-clock samples per case (after one warmup run).
const RUNS: usize = 9;

/// One benchmark case: operation count and wall-time distribution.
#[derive(Debug, Clone, Serialize)]
pub struct CaseReport {
    /// Case name (stable key for cross-commit comparison).
    pub name: String,
    /// Logical operations per run (events fired or kernels completed).
    pub ops: u64,
    /// Measured runs (excluding warmup).
    pub runs: usize,
    /// Median wall seconds per run.
    pub wall_p50_s: f64,
    /// 95th-percentile wall seconds per run.
    pub wall_p95_s: f64,
    /// `ops / wall_p50_s`.
    pub ops_per_sec: f64,
}

/// The full substrate report written to `BENCH_substrate.json`.
#[derive(Debug, Clone, Serialize)]
pub struct SubstrateReport {
    /// Headline metric: events/sec on `timer_events_100k`.
    pub events_per_sec: f64,
    /// Headline metric: kernels/sec on `contended_arbitration`.
    pub kernels_per_sec: f64,
    /// All cases, with their wall-time distributions.
    pub cases: Vec<CaseReport>,
    /// Deterministic cost proxy (ratcheted by `cost-baseline.txt`).
    pub cost: CostProxy,
}

/// Deterministic cost counters over the fixed substrate cases: pure
/// functions of the code under test (no wall clock, no seed variance),
/// so CI can ratchet them exactly — a hot-path regression moves a
/// counter, not a ±30% timing sample.
#[derive(Debug, Clone, Serialize)]
pub struct CostProxy {
    /// Events fired by `timer_events_100k`.
    pub timer_events_fired: u64,
    /// Event-heap pushes on `timer_events_100k`.
    pub timer_heap_pushes: u64,
    /// Event-heap pops on `timer_events_100k` (fired + tombstones).
    pub timer_heap_pops: u64,
    /// Heap pops on `cancel_heavy_100k` (tombstone-drain cost).
    pub cancel_heap_pops: u64,
    /// Events fired by `contended_arbitration`.
    pub arbitration_events_fired: u64,
    /// `GpuDevice::recompute` invocations on `contended_arbitration`.
    pub arbitration_recompute_calls: u64,
    /// Dirty domains re-derived across those recomputes.
    pub arbitration_domains_visited: u64,
    /// Events fired by `relaunch_chain`.
    pub relaunch_events_fired: u64,
    /// Event-heap pushes on `relaunch_chain`: one wake per device tick,
    /// so a re-arm inside the completion handler shows up here.
    pub relaunch_heap_pushes: u64,
    /// `GpuDevice::recompute` invocations on `relaunch_chain`.
    pub relaunch_recompute_calls: u64,
    /// Events fired by `timeshare`: one wake per completion, so a return
    /// to one wake per quantum shows up here.
    pub timeshare_events_fired: u64,
    /// Event-heap pushes on `timeshare`.
    pub timeshare_heap_pushes: u64,
    /// `GpuDevice::recompute` invocations on `timeshare`, counting the
    /// replayed rotation ticks.
    pub timeshare_recompute_calls: u64,
    /// Time-sharing ticks walked one by one on `timeshare`, over
    /// predictions and replays (`GpuDevice::chain_counters`): a change
    /// that stops taking whole turns shows up here.
    pub timeshare_chain_ticks: u64,
    /// Whole turns walked on `timeshare`. Reported, not ratcheted: more
    /// turns is the cheap direction.
    pub timeshare_chain_turns: u64,
    /// Events fired by the scaled-down fleet case (4 GPUs × 2 000 tasks,
    /// seed 42, optimized driver) — extends the ratchet over the whole
    /// FaaS dispatch/monitoring path, not just the event substrate.
    pub fleet_events_fired: u64,
    /// Event-heap pushes on the scaled-down fleet case.
    pub fleet_heap_pushes: u64,
    /// Event-heap pops on the scaled-down fleet case.
    pub fleet_heap_pops: u64,
    /// Heap allocation calls while the scaled-down fleet case builds,
    /// boots and runs its world (not while the harness reduces it), from
    /// the counting global allocator ([`crate::alloc`]). Exact on the
    /// single-threaded `repro` binary; an increase means the dispatch
    /// hot path gained an allocation.
    pub fleet_alloc_ops: u64,
    /// Bytes requested from the allocator during the fleet case
    /// (`alloc` + `alloc_zeroed` + the grow side of `realloc`).
    pub fleet_alloc_bytes: u64,
    /// Peak of live heap bytes during the fleet case: what the run holds
    /// at its largest, including everything settled requests retain.
    pub fleet_peak_live_bytes: u64,
}

impl CostProxy {
    /// Stable `(name, value)` pairs — the `cost-baseline.txt` schema.
    pub fn entries(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("timer_events_fired", self.timer_events_fired),
            ("timer_heap_pushes", self.timer_heap_pushes),
            ("timer_heap_pops", self.timer_heap_pops),
            ("cancel_heap_pops", self.cancel_heap_pops),
            ("arbitration_events_fired", self.arbitration_events_fired),
            (
                "arbitration_recompute_calls",
                self.arbitration_recompute_calls,
            ),
            (
                "arbitration_domains_visited",
                self.arbitration_domains_visited,
            ),
            ("relaunch_events_fired", self.relaunch_events_fired),
            ("relaunch_heap_pushes", self.relaunch_heap_pushes),
            ("relaunch_recompute_calls", self.relaunch_recompute_calls),
            ("timeshare_events_fired", self.timeshare_events_fired),
            ("timeshare_heap_pushes", self.timeshare_heap_pushes),
            ("timeshare_recompute_calls", self.timeshare_recompute_calls),
            ("timeshare_chain_ticks", self.timeshare_chain_ticks),
            ("fleet_events_fired", self.fleet_events_fired),
            ("fleet_heap_pushes", self.fleet_heap_pushes),
            ("fleet_heap_pops", self.fleet_heap_pops),
            ("fleet_alloc_ops", self.fleet_alloc_ops),
            ("fleet_alloc_bytes", self.fleet_alloc_bytes),
            ("fleet_peak_live_bytes", self.fleet_peak_live_bytes),
        ]
    }
}

/// Time `f` once for warmup and [`RUNS`] times for real, returning the
/// per-run wall seconds. `f` returns the number of logical ops it did.
fn sample(mut f: impl FnMut() -> u64) -> (u64, Vec<f64>) {
    let ops = f();
    let mut walls = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let t = Instant::now();
        let got = std::hint::black_box(f());
        walls.push(t.elapsed().as_secs_f64());
        assert_eq!(got, ops, "benchmark case must be deterministic");
    }
    walls.sort_by(|a, b| a.total_cmp(b));
    (ops, walls)
}

/// Interpolated quantile of ascending-sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

fn case(name: &str, f: impl FnMut() -> u64) -> CaseReport {
    let (ops, walls) = sample(f);
    let p50 = quantile(&walls, 0.50);
    CaseReport {
        name: name.to_string(),
        ops,
        runs: walls.len(),
        wall_p50_s: p50,
        wall_p95_s: quantile(&walls, 0.95),
        ops_per_sec: ops as f64 / p50,
    }
}

/// 100k one-shot timers scheduled upfront (scattered over the first
/// simulated millisecond), run to completion. Returns
/// `(fired, heap pushes, heap pops)`.
fn timer_events_instrumented(n: u64) -> (u64, u64, u64) {
    let mut eng: Engine<u64> = Engine::new();
    let mut fired = 0u64;
    for i in 0..n {
        eng.schedule_at(SimTime::from_nanos(i * 997 % 1_000_000), |w, _| {
            *w += 1;
        });
    }
    eng.run(&mut fired);
    assert_eq!(fired, n);
    (fired, eng.heap_pushes(), eng.heap_pops())
}

fn timer_events(n: u64) -> u64 {
    timer_events_instrumented(n).0
}

/// 100k timers, every other one cancelled before the run starts; the
/// engine must skip 50k tombstones without firing them. Returns
/// `(scheduled, heap pops)`.
fn cancel_heavy_instrumented(n: u64) -> (u64, u64) {
    let mut eng: Engine<u64> = Engine::new();
    let mut fired = 0u64;
    let mut ids = Vec::with_capacity(n as usize);
    for i in 0..n {
        ids.push(
            eng.schedule_at(SimTime::from_nanos(i * 997 % 1_000_000), |w, _| {
                *w += 1;
            }),
        );
    }
    for id in ids.iter().step_by(2) {
        assert!(eng.cancel(*id));
    }
    eng.run(&mut fired);
    assert_eq!(fired, n - n / 2 - n % 2);
    (n, eng.heap_pops())
}

fn cancel_heavy(n: u64) -> u64 {
    cancel_heavy_instrumented(n).0
}

/// 100k timers that are each re-armed once (cancel + schedule later),
/// the dominant pattern for timeout bookkeeping.
fn reschedule_heavy(n: u64) -> u64 {
    let mut eng: Engine<u64> = Engine::new();
    let mut fired = 0u64;
    let mut ids = Vec::with_capacity(n as usize);
    for i in 0..n {
        ids.push(
            eng.schedule_at(SimTime::from_nanos(i * 997 % 1_000_000), |w, _| {
                *w += 1;
            }),
        );
    }
    for (i, id) in ids.into_iter().enumerate() {
        assert!(eng.cancel(id));
        eng.schedule_at(
            SimTime::from_nanos(1_000_000 + (i as u64 * 31) % 1_000_000),
            |w, _| {
                *w += 1;
            },
        );
    }
    eng.run(&mut fired);
    assert_eq!(fired, n);
    n
}

struct TraceWorld {
    fleet: GpuFleet,
    completions: u64,
}

impl GpuHost for TraceWorld {
    fn fleet_mut(&mut self) -> &mut GpuFleet {
        &mut self.fleet
    }
    fn on_kernel_done(&mut self, _e: &mut Engine<Self>, _d: KernelDone) {
        self.completions += 1;
    }
}

/// The contended MPS trace from `arbitration_regression`: 8 contexts ×
/// 50 kernels on one A100-80GB.
/// Returns `(completions, events fired, recompute calls, domains
/// visited)`.
fn contended_arbitration_instrumented() -> (u64, u64, u64, u64) {
    let mut fleet = GpuFleet::new();
    let gid = fleet.add(GpuSpec::a100_80gb());
    fleet.device_mut(gid).mps.start();
    fleet
        .device_mut(gid)
        .set_mode(DeviceMode::MpsDefault)
        .expect("mode");
    let ctxs: Vec<CtxId> = (0..8)
        .map(|i| {
            fleet
                .device_mut(gid)
                .create_context(SimTime::ZERO, &format!("p{i}"), CtxBinding::Bare)
                .expect("ctx")
        })
        .collect();
    let mut w = TraceWorld {
        fleet,
        completions: 0,
    };
    let mut eng = Engine::new();
    for (i, &ctx) in ctxs.iter().enumerate() {
        for j in 0..50u64 {
            launch_kernel(
                &mut w,
                &mut eng,
                gid,
                ctx,
                KernelDesc::new("k", 0.5 + j as f64 * 0.01, 40, 40, 0.3),
                (i as u64) << 32 | j,
            )
            .expect("launch");
        }
    }
    eng.run(&mut w);
    assert_eq!(w.completions, 400);
    let (calls, visited, _skipped) = w.fleet.cost_counters();
    (w.completions, eng.events_fired(), calls, visited)
}

fn contended_arbitration() -> u64 {
    contended_arbitration_instrumented().0
}

/// Kernels per context in `relaunch_chain`.
const CHAIN_LEN: u64 = 8;

/// Relaunches each finished kernel's successor on the same context, as
/// a multi-kernel request does.
struct ChainWorld {
    fleet: GpuFleet,
    completions: u64,
    /// The kernel a context launches, by context id.
    kernel: fn(u32) -> KernelDesc,
}

/// A 432-block kernel: 50 ms at a 25 % share of an A100 (27 SMs), a
/// little longer for the later contexts so completions interleave.
fn chain_kernel(ctx: u32) -> KernelDesc {
    KernelDesc::new("seq", 1.35 * (1.0 + ctx as f64 * 0.1), 432, 432, 0.0)
}

impl GpuHost for ChainWorld {
    fn fleet_mut(&mut self) -> &mut GpuFleet {
        &mut self.fleet
    }
    fn on_kernel_done(&mut self, e: &mut Engine<Self>, d: KernelDone) {
        self.completions += 1;
        if d.tag + 1 < CHAIN_LEN {
            let next = (self.kernel)(d.ctx.0);
            launch_kernel(self, e, d.gpu, d.ctx, next, d.tag + 1).expect("relaunch");
        }
    }
}

/// One partitioned-MPS A100-80GB, 4 contexts at 25 % × [`CHAIN_LEN`]
/// kernels chained from `on_kernel_done`.
fn relaunch_chain_instrumented() -> ChainRun {
    let mut fleet = GpuFleet::new();
    let gid = fleet.add(GpuSpec::a100_80gb());
    let dev = fleet.device_mut(gid);
    dev.mps.start();
    dev.set_mode(DeviceMode::MpsPartitioned).expect("mode");
    let ctxs: Vec<CtxId> = (0..4)
        .map(|i| {
            dev.create_context(
                SimTime::ZERO,
                &format!("p{i}"),
                CtxBinding::MpsPercentage(25),
            )
            .expect("ctx")
        })
        .collect();
    run_chains(fleet, &ctxs, chain_kernel)
}

fn relaunch_chain() -> u64 {
    relaunch_chain_instrumented().completions
}

/// Counts from one [`run_chains`] run.
struct ChainRun {
    completions: u64,
    events_fired: u64,
    heap_pushes: u64,
    recompute_calls: u64,
    /// The device's time-sharing `(single ticks, turns)`.
    chain: (u64, u64),
}

/// Launch one chain of [`CHAIN_LEN`] `kernel`s per context on the
/// fleet's only device and run to the end.
fn run_chains(fleet: GpuFleet, ctxs: &[CtxId], kernel: fn(u32) -> KernelDesc) -> ChainRun {
    let mut w = ChainWorld {
        fleet,
        completions: 0,
        kernel,
    };
    let mut eng = Engine::new();
    for &ctx in ctxs {
        launch_kernel(&mut w, &mut eng, GpuId(0), ctx, kernel(ctx.0), 0).expect("launch");
    }
    eng.run(&mut w);
    assert_eq!(w.completions, ctxs.len() as u64 * CHAIN_LEN);
    let (calls, _visited, _skipped) = w.fleet.cost_counters();
    ChainRun {
        completions: w.completions,
        events_fired: eng.events_fired(),
        heap_pushes: eng.heap_pushes(),
        recompute_calls: calls,
        chain: w.fleet.device(GpuId(0)).chain_counters(),
    }
}

/// A full-grid kernel of 108 SM-s: 1 s alone on an A100.
fn one_second_kernel(_ctx: u32) -> KernelDesc {
    KernelDesc::new("slice", 108.0, 75_600, 75_600, 0.0)
}

/// One time-shared A100-80GB, 3 contexts × [`CHAIN_LEN`] one-second
/// kernels chained from `on_kernel_done`: 24 s of quanta and switches
/// with a completion only every second or so.
fn timeshare_instrumented() -> ChainRun {
    let mut fleet = GpuFleet::new();
    let gid = fleet.add(GpuSpec::a100_80gb());
    let ctxs: Vec<CtxId> = (0..3)
        .map(|i| {
            fleet
                .device_mut(gid)
                .create_context(SimTime::ZERO, &format!("p{i}"), CtxBinding::Bare)
                .expect("ctx")
        })
        .collect();
    run_chains(fleet, &ctxs, one_second_kernel)
}

fn timeshare() -> u64 {
    timeshare_instrumented().completions
}

/// One instrumented pass over the deterministic cases, collecting the
/// exact operation counts (no timing involved).
pub fn cost_proxy() -> CostProxy {
    const N: u64 = 100_000;
    let (fired, pushes, pops) = timer_events_instrumented(N);
    let (_, cancel_pops) = cancel_heavy_instrumented(N);
    let (_, arb_fired, calls, visited) = contended_arbitration_instrumented();
    let relaunch = relaunch_chain_instrumented();
    let timeshare = timeshare_instrumented();
    let (fleet, heap) = crate::fleet::run_fleet(4, 2_000, 42, true);
    let fleet = fleet.sim.behavior;
    CostProxy {
        timer_events_fired: fired,
        timer_heap_pushes: pushes,
        timer_heap_pops: pops,
        cancel_heap_pops: cancel_pops,
        arbitration_events_fired: arb_fired,
        arbitration_recompute_calls: calls,
        arbitration_domains_visited: visited,
        relaunch_events_fired: relaunch.events_fired,
        relaunch_heap_pushes: relaunch.heap_pushes,
        relaunch_recompute_calls: relaunch.recompute_calls,
        timeshare_events_fired: timeshare.events_fired,
        timeshare_heap_pushes: timeshare.heap_pushes,
        timeshare_recompute_calls: timeshare.recompute_calls,
        timeshare_chain_ticks: timeshare.chain.0,
        timeshare_chain_turns: timeshare.chain.1,
        fleet_events_fired: fleet.events_fired,
        fleet_heap_pushes: fleet.heap_pushes,
        fleet_heap_pops: fleet.heap_pops,
        fleet_alloc_ops: heap.ops,
        fleet_alloc_bytes: heap.bytes,
        fleet_peak_live_bytes: heap.peak_live_bytes,
    }
}

/// Run every case and assemble the report.
pub fn measure() -> SubstrateReport {
    const N: u64 = 100_000;
    let cases = vec![
        case("timer_events_100k", || timer_events(N)),
        case("cancel_heavy_100k", || cancel_heavy(N)),
        case("reschedule_heavy_100k", || reschedule_heavy(N)),
        case("contended_arbitration", contended_arbitration),
        case("relaunch_chain", relaunch_chain),
        case("timeshare", timeshare),
    ];
    SubstrateReport {
        events_per_sec: cases[0].ops_per_sec,
        kernels_per_sec: cases[3].ops_per_sec,
        cases,
        cost: cost_proxy(),
    }
}

/// Measure and write `BENCH_substrate.json` into `dir`; returns the
/// report for printing.
pub fn run_and_write(dir: &std::path::Path) -> std::io::Result<SubstrateReport> {
    let report = measure();
    write_report(dir, "BENCH_substrate.json", &report)?;
    Ok(report)
}

/// Outcome of the cost-ratchet comparison.
#[derive(Debug, Clone)]
pub struct RatchetOutcome {
    /// Regressions — counters above their recorded baseline. Non-empty
    /// means the check fails.
    pub regressions: Vec<String>,
    /// Improvements — counters now below the baseline (advisory; the
    /// baseline should be re-recorded to lock the win in).
    pub improvements: Vec<String>,
}

/// Serialize `cost` in the `cost-baseline.txt` schema.
fn render_baseline(cost: &CostProxy) -> String {
    let mut out = String::from(
        "# Deterministic substrate cost baseline: exact operation counts on the\n\
         # fixed `repro substrate` cases (events fired, heap ops, recompute\n\
         # domain visits, allocator traffic). Pure functions of the code — no\n\
         # seed or timing variance — so any increase is a hot-path regression\n\
         # and fails CI.\n\
         # Re-record after a deliberate change with:\n\
         #   cargo run --release -p parfait-bench --bin repro -- substrate --record-cost\n",
    );
    for (name, value) in cost.entries() {
        out.push_str(&format!("{name} {value}\n"));
    }
    out
}

/// Compare `cost` against `dir/cost-baseline.txt`. With `record`, the
/// file is (re)written from the current counters instead and the check
/// trivially passes.
pub fn check_cost_ratchet(
    dir: &std::path::Path,
    cost: &CostProxy,
    record: bool,
) -> std::io::Result<RatchetOutcome> {
    let path = dir.join("cost-baseline.txt");
    let mut outcome = RatchetOutcome {
        regressions: Vec::new(),
        improvements: Vec::new(),
    };
    if record {
        std::fs::write(&path, render_baseline(cost))?;
        return Ok(outcome);
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => {
            outcome.regressions.push(format!(
                "missing {}: record it with `repro substrate --record-cost`",
                path.display()
            ));
            return Ok(outcome);
        }
    };
    let mut baseline = std::collections::BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (
            parts.next(),
            parts.next().and_then(|v| v.parse::<u64>().ok()),
        ) {
            (Some(name), Some(value)) => {
                baseline.insert(name.to_string(), value);
            }
            _ => outcome
                .regressions
                .push(format!("malformed cost-baseline.txt line: `{line}`")),
        }
    }
    for (name, value) in cost.entries() {
        match baseline.get(name) {
            None => outcome.regressions.push(format!(
                "counter `{name}` missing from cost-baseline.txt (current {value}); re-record"
            )),
            Some(&base) if value > base => outcome.regressions.push(format!(
                "cost regression: {name} {value} > baseline {base} (+{})",
                value - base
            )),
            Some(&base) if value < base => outcome.improvements.push(format!(
                "{name} improved: {value} < baseline {base} (-{}); consider --record-cost",
                base - value
            )),
            _ => {}
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_run_and_report_sane_numbers() {
        // Tiny sizes: correctness of the harness, not performance.
        assert_eq!(timer_events(500), 500);
        assert_eq!(cancel_heavy(500), 500);
        assert_eq!(reschedule_heavy(500), 500);
        assert_eq!(contended_arbitration(), 400);
        assert_eq!(relaunch_chain(), 32);
        assert_eq!(timeshare(), 24);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }
}
