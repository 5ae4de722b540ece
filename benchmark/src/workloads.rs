//! The benchmark's four workloads and the rep runner.
//!
//! Every workload is open-loop in simulated time: arrivals are pre-drawn
//! from the seed before the timed section, so the generator can never
//! run late. Each rep builds its platform from scratch (timed as setup),
//! runs the event loop to quiescence (timed as the run) and reduces the
//! world to a deterministic [`Outcome`] whose fingerprint must repeat
//! exactly across reps.

use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::time::Instant;

use parfait_core::{
    apply_plan, enable_slo_autoscaler, plan, GpuTenancy, SloAction, SloDecision, SloPolicy,
    Strategy,
};
use parfait_faas::app::bodies::KernelSeq;
use parfait_faas::{
    boot, submit, AcceleratorSpec, AppCall, Config, ExecutorConfig, FaasWorld, TaskState,
};
use parfait_gpu::host::GpuFleet;
use parfait_gpu::{GpuSpec, KernelDesc};
use parfait_simcore::{streams, Engine, SimDuration, SimRng, SimTime};
use parfait_workloads::trace::{self, FleetShape};

use crate::alloc;
use crate::chaos::{self, ChaosOutcome};
use crate::trace::{span, Span, Trace, Tracer};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1000 MIG-partitioned GPUs, 1M single-kernel requests: world
    /// dispatch and the engine heap dominate, GPU arbitration is idle.
    FleetMig,
    /// 250 MPS GPUs, 200k eight-kernel requests, monitoring on: coupled
    /// MPS domains re-derive the device on every launch and finish.
    FleetMps,
    /// 2 MPS GPUs under the closed-loop SLO autoscaler with failing
    /// commits: the only workload where control decides the outcome.
    AutoscaleDiurnal,
    /// 2,000 chaos schedules: fault injection, fencing, the oracles and
    /// thousands of small worlds.
    ChaosSearch,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetMig,
        Workload::FleetMps,
        Workload::AutoscaleDiurnal,
        Workload::ChaosSearch,
    ];

    /// Stable workload name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetMig => "fleet-mig",
            Workload::FleetMps => "fleet-mps",
            Workload::AutoscaleDiurnal => "autoscale-diurnal",
            Workload::ChaosSearch => "chaos-search",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload size: the benchmark always runs `Full`; `Tiny` exists for the
/// crate's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// A few thousand requests / ten schedules, for tests.
    Tiny,
}

/// Request-level results, in integer nanoseconds of simulated time.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Requests {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests that failed terminally (shed and rejected included).
    pub failed: u64,
    /// Completed requests whose turnaround met the workload's SLO.
    pub slo_met: u64,
    /// Dispatch attempts beyond the first, summed over requests.
    pub retries: u64,
    /// First submission to last terminal request, summed over cells.
    pub makespan_ns: u64,
    /// FNV-1a digest of every completed request's turnaround, in
    /// submission order.
    pub turnaround_digest: u64,
    /// Submit → finish, p50 and p99 over completed requests.
    pub turnaround_ns: [u64; 2],
    /// Submit → dispatch (last attempt), p50 and p99.
    pub queue_wait_ns: [u64; 2],
    /// Dispatch → body start (cold start, model load), p50 and p99.
    pub startup_ns: [u64; 2],
    /// Body start → finish, p50 and p99.
    pub exec_ns: [u64; 2],
}

/// Control-plane counters of a rep.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Control {
    /// SLO-controller decisions logged.
    pub decisions: u64,
    /// Decisions that started a reconfiguration.
    pub started: u64,
    /// Decisions that held within hysteresis.
    pub held: u64,
    /// Decisions refused by a guard or suppressed fleet-wide.
    pub refused: u64,
    /// `ReconfigStats`: drains started, forced kills, committed, failed,
    /// aborted, rollbacks.
    pub reconfig: [u64; 6],
    /// Workers respawned by recovery.
    pub respawns: u64,
}

/// Everything deterministic about one rep. Two reps of a workload at one
/// seed must produce equal outcomes; host timings live in [`Rep`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Outcome {
    /// Engine events fired.
    pub events: u64,
    /// Event-heap pushes.
    pub heap_pushes: u64,
    /// Event-heap pops.
    pub heap_pops: u64,
    /// GPUs in the fleet.
    pub gpus: u64,
    /// Request-level results.
    pub requests: Requests,
    /// `GpuFleet::cost_counters`: recompute calls, domains visited,
    /// domains skipped.
    pub gpu: [u64; 3],
    /// Monitoring: utilization samples and worker events retained.
    pub monitoring: [u64; 2],
    /// Control-plane counters.
    pub control: Control,
    /// Chaos-search results (chaos-search only).
    pub chaos: ChaosOutcome,
}

impl Outcome {
    /// FNV-1a digest of the whole outcome.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        self.hash(&mut h);
        h.finish()
    }
}

/// FNV-1a: a fixed, toolchain-independent hash for fingerprints.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One rep: host measurements plus the deterministic outcome. A rep of
/// several cells sums their times and takes the highest heap peak.
#[derive(Default)]
pub struct Rep {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Host seconds building the platform.
    pub setup_s: f64,
    /// Host seconds in the event loop (chaos: the whole search).
    pub run_s: f64,
    /// Peak live heap above the rep's starting level, bytes.
    pub peak_heap_bytes: i64,
    /// Allocation calls during the run.
    pub alloc_ops: u64,
    /// Bytes requested during the run.
    pub alloc_bytes: u64,
    /// Deterministic results.
    pub outcome: Outcome,
    /// The spans of a traced rep.
    pub tracer: Option<Tracer>,
}

/// A built platform, ready to run.
struct Sim {
    world: FaasWorld,
    eng: Engine<FaasWorld>,
    gpus: usize,
    slo: SimDuration,
    decisions: Option<Rc<RefCell<Vec<SloDecision>>>>,
}

/// Executor pools a fleet is sharded into (capped by the GPU count).
const POOLS: usize = 64;

/// Partitions (and workers) per fleet GPU.
const WORKERS_PER_GPU: usize = 4;

/// Fleet arrivals: base load at 60 % of capacity, diurnal ±30 % over a
/// 20 s day, a 1.6× flash crowd for 1 s every 7 s.
fn fleet_shape(workers: usize, service_s: f64) -> FleetShape {
    FleetShape {
        base_rate: 0.6 * workers as f64 / service_s,
        diurnal_amplitude: 0.3,
        day: SimDuration::from_secs(20),
        phase: 0.0,
        flash_every: SimDuration::from_secs(7),
        flash_len: SimDuration::from_secs(1),
        flash_factor: 1.6,
    }
}

/// The arrival chain of one request stream: the heap holds one pending
/// arrival at a time, and each arrival schedules the next.
struct Arrivals {
    times: Vec<SimTime>,
    call: Box<dyn Fn(usize) -> AppCall>,
    trace: Trace,
}

fn chain(eng: &mut Engine<FaasWorld>, arr: Rc<Arrivals>, i: usize) {
    let Some(&at) = arr.times.get(i) else {
        return;
    };
    eng.schedule_at(at, move |w: &mut FaasWorld, e| {
        let call = (arr.call)(i);
        span(&arr.trace, Span::Submit, || submit(w, e, call));
        chain(e, arr, i + 1);
    });
}

/// A request of `n` identical kernels on executor `exec`.
fn kernel_call(exec: String, kernel: &KernelDesc, n: usize) -> AppCall {
    let kernel = kernel.clone();
    AppCall::new("benchmark", exec, move |_| {
        Box::new(KernelSeq::new(vec![kernel.clone(); n], SimDuration::ZERO))
    })
}

struct FleetParams {
    gpus: usize,
    requests: usize,
    strategy: Strategy,
    kernel: KernelDesc,
    kernels_per_request: usize,
    service_s: f64,
    monitoring: bool,
    slo: SimDuration,
}

fn fleet_params(w: Workload, scale: Scale) -> FleetParams {
    let tiny = scale == Scale::Tiny;
    match w {
        // 8 blocks of 0.4 SM·s run at 8 SMs on every MIG profile: 50 ms.
        Workload::FleetMig => FleetParams {
            gpus: if tiny { 4 } else { 1000 },
            requests: if tiny { 2_000 } else { 1_000_000 },
            strategy: Strategy::MigEqual,
            kernel: KernelDesc::new("fleet-mig", 0.4, 8, 8, 0.0),
            kernels_per_request: 1,
            service_s: 0.05,
            monitoring: false,
            slo: SimDuration::from_secs(1),
        },
        // 1.35 SM·s over 432 blocks at a 25 % share (27 SMs): 50 ms per
        // kernel, 0.4 s per request.
        Workload::FleetMps => FleetParams {
            gpus: if tiny { 4 } else { 250 },
            requests: if tiny { 2_000 } else { 200_000 },
            strategy: Strategy::MpsEqual,
            kernel: KernelDesc::new("fleet-mps", 1.35, 432, 108, 0.0),
            kernels_per_request: 8,
            service_s: 0.4,
            monitoring: true,
            slo: SimDuration::from_secs(2),
        },
        _ => unreachable!("not a fleet workload"),
    }
}

fn setup_fleet(w: Workload, scale: Scale, seed: u64, trace: &Trace) -> Sim {
    let p = fleet_params(w, scale);
    let workers = p.gpus * WORKERS_PER_GPU;
    let times = span(trace, Span::TraceGen, || {
        let mut rng = SimRng::new(seed).split(streams::FLEET_ARRIVALS);
        trace::fleet(&mut rng, &fleet_shape(workers, p.service_s), p.requests).arrivals
    });
    let pools = POOLS.min(p.gpus).max(1);
    let (fleet, executors) = span(trace, Span::Plan, || {
        let spec = GpuSpec::a100_80gb();
        let mut fleet = GpuFleet::new();
        let mut pool_specs: Vec<Vec<AcceleratorSpec>> = vec![Vec::new(); pools];
        for g in 0..p.gpus as u32 {
            fleet.add(spec.clone());
            let plan = plan(&spec, g, WORKERS_PER_GPU, &p.strategy).expect("valid plan");
            let specs = apply_plan(&mut fleet, &plan).expect("plan applies");
            pool_specs[g as usize % pools].extend(specs);
        }
        let executors: Vec<ExecutorConfig> = pool_specs
            .into_iter()
            .enumerate()
            .map(|(i, specs)| ExecutorConfig::gpu(format!("pool{i}"), specs))
            .collect();
        (fleet, executors)
    });
    let mut world = span(trace, Span::WorldNew, || {
        let mut config = Config::new(executors);
        if !p.monitoring {
            config.monitoring_period = None;
        }
        FaasWorld::new(config, fleet, seed)
    });
    world.monitor.record_worker_events = p.monitoring;
    let mut eng = Engine::new();
    span(trace, Span::Boot, || boot(&mut world, &mut eng));
    let (kernel, n) = (p.kernel, p.kernels_per_request);
    let arrivals = Arrivals {
        times,
        call: Box::new(move |i| kernel_call(format!("pool{}", i % pools), &kernel, n)),
        trace: trace.clone(),
    };
    chain(&mut eng, Rc::new(arrivals), 0);
    Sim {
        world,
        eng,
        gpus: p.gpus,
        slo: p.slo,
        decisions: None,
    }
}

/// Autoscale cell: 2 tenants share every GPU; their diurnal demands are
/// half a day out of phase, so the split must chase the mix.
const TENANTS: usize = 2;
const AUTOSCALE_GPUS: usize = 2;
const AUTOSCALE_SLO: SimDuration = SimDuration::from_millis(500);

fn tenant_shape(phase: f64) -> FleetShape {
    FleetShape {
        base_rate: 2.7 * AUTOSCALE_GPUS as f64,
        diurnal_amplitude: 0.9,
        day: SimDuration::from_secs(240),
        phase,
        flash_every: SimDuration::from_secs(240),
        flash_len: SimDuration::ZERO,
        flash_factor: 1.0,
    }
}

fn setup_autoscale(scale: Scale, seed: u64, trace: &Trace) -> Sim {
    let per_tenant = if scale == Scale::Tiny { 1_000 } else { 100_000 };
    let (lat, bat) = span(trace, Span::TraceGen, || {
        let mut rng = SimRng::new(seed).split(streams::AUTOSCALE_ARRIVALS);
        let lat = trace::fleet(&mut rng, &tenant_shape(0.0), per_tenant).arrivals;
        let bat = trace::fleet(&mut rng, &tenant_shape(std::f64::consts::PI), per_tenant).arrivals;
        (lat, bat)
    });
    let horizon = *lat.last().max(bat.last()).expect("non-empty traces");
    let (fleet, tenant_specs) = span(trace, Span::Plan, || {
        let spec = GpuSpec::a100_80gb();
        let mut fleet = GpuFleet::new();
        let mut tenant_specs: Vec<Vec<AcceleratorSpec>> = vec![Vec::new(); TENANTS];
        for g in 0..AUTOSCALE_GPUS as u32 {
            fleet.add(spec.clone());
            let plan = plan(&spec, g, TENANTS, &Strategy::MpsEqual).expect("valid plan");
            for (t, s) in apply_plan(&mut fleet, &plan)
                .expect("plan applies")
                .into_iter()
                .enumerate()
            {
                tenant_specs[t].push(s);
            }
        }
        (fleet, tenant_specs)
    });
    let mut world = span(trace, Span::WorldNew, || {
        let executors = ["latency", "batch"]
            .into_iter()
            .zip(tenant_specs)
            .map(|(label, specs)| ExecutorConfig::gpu(label, specs))
            .collect();
        let mut config = Config::new(executors);
        config.monitoring_period = None;
        // Every fifth commit fails on average, exercising rollback; the
        // restart budget keeps rollbacks from retiring workers for good.
        config.reconfig.fail_prob = 0.2;
        config.recovery.restart_budget = 64;
        FaasWorld::new(config, fleet, seed)
    });
    let mut eng = Engine::new();
    span(trace, Span::Boot, || boot(&mut world, &mut eng));
    let decisions = span(trace, Span::Autoscaler, || {
        let tenancy = (0..AUTOSCALE_GPUS as u32)
            .map(|gpu| GpuTenancy {
                gpu,
                tenants: (0..TENANTS).collect(),
            })
            .collect();
        enable_slo_autoscaler(
            &mut world,
            &mut eng,
            tenancy,
            SloPolicy {
                period: SimDuration::from_secs(15),
                slo: AUTOSCALE_SLO,
                min_pct: 30,
                min_shift: 15,
                cooldown: SimDuration::from_secs(45),
                max_concurrent: 1,
                run_until: Some(horizon),
                staleness: None,
            },
        )
    });
    // 10.8 SM·s over 432 blocks: 100 ms on a whole A100, so the MPS
    // share moves the service time.
    let kernel = KernelDesc::new("autoscale", 10.8, 432, 108, 0.0);
    for (times, label) in [(lat, "latency"), (bat, "batch")] {
        let kernel = kernel.clone();
        let arrivals = Arrivals {
            times,
            call: Box::new(move |_| kernel_call(label.to_string(), &kernel, 1)),
            trace: trace.clone(),
        };
        chain(&mut eng, Rc::new(arrivals), 0);
    }
    Sim {
        world,
        eng,
        gpus: AUTOSCALE_GPUS,
        slo: AUTOSCALE_SLO,
        decisions: Some(decisions),
    }
}

/// What a step can have changed, read through O(1) public getters.
struct StepMarks {
    submits: u64,
    alloc_ops: u64,
    settled: u64,
    control: u64,
}

fn marks(sim: &Sim, tracer: &Tracer) -> StepMarks {
    let s = sim.world.reconfig.stats;
    StepMarks {
        submits: tracer.stats(Span::Submit).count,
        alloc_ops: alloc::ops(),
        settled: sim.world.dfk.done_count() + sim.world.dfk.failed_count(),
        control: sim
            .decisions
            .as_ref()
            .map_or(0, |d| d.borrow().len() as u64)
            + s.drains_started
            + s.drains_forced_kills
            + s.txns_committed
            + s.txns_failed
            + s.txns_aborted
            + s.rollbacks,
    }
}

/// The event loop with every step classed by what it did: arrival, else
/// completion, else control, else other. Each step is timed from where
/// the previous one ended, so the class times partition the loop and
/// every step costs one clock read. Every step is timed because a few
/// dozen of them (the task table growing inside `submit`, among others)
/// hold several percent of the run, which a sample would miss.
fn run_traced(sim: &mut Sim, tracer: &Rc<RefCell<Tracer>>) {
    let mut before = marks(sim, &tracer.borrow());
    let mut start = Instant::now();
    while sim.eng.step(&mut sim.world) {
        let end = Instant::now();
        let mut t = tracer.borrow_mut();
        let after = marks(sim, &t);
        let class = if after.submits != before.submits {
            Span::StepArrival
        } else if after.settled != before.settled {
            Span::StepCompletion
        } else if after.control != before.control {
            Span::StepControl
        } else {
            Span::StepOther
        };
        t.record(
            class,
            end.duration_since(start).as_nanos() as u64,
            after.alloc_ops - before.alloc_ops,
        );
        (before, start) = (after, end);
    }
}

/// Nearest-rank p50 and p99 of `xs` (reordered in place); zeros if empty.
fn p50_p99(xs: &mut [u64]) -> [u64; 2] {
    [0.5, 0.99].map(|q| {
        if xs.is_empty() {
            return 0;
        }
        let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
        *xs.select_nth_unstable(rank - 1).1
    })
}

/// Pools the cells of one rep: counters add up, per-request phase
/// samples collect until [`Tally::finish`] takes their percentiles.
#[derive(Default)]
struct Tally {
    outcome: Outcome,
    digest: Fnv,
    turnaround: Vec<u64>,
    queue: Vec<u64>,
    startup: Vec<u64>,
    exec: Vec<u64>,
}

impl Tally {
    fn add(&mut self, sim: &Sim) {
        let w = &sim.world;
        let o = &mut self.outcome;
        o.events += sim.eng.events_fired();
        o.heap_pushes += sim.eng.heap_pushes();
        o.heap_pops += sim.eng.heap_pops();
        o.gpus = sim.gpus as u64;
        let (recompute, visited, skipped) = w.fleet.cost_counters();
        for (sum, v) in o.gpu.iter_mut().zip([recompute, visited, skipped]) {
            *sum += v;
        }
        o.monitoring[0] += w.monitor.samples.len() as u64;
        o.monitoring[1] += w.monitor.worker_events.len() as u64;
        let s = w.reconfig.stats;
        let c = &mut o.control;
        let reconfig = [
            s.drains_started,
            s.drains_forced_kills,
            s.txns_committed,
            s.txns_failed,
            s.txns_aborted,
            s.rollbacks,
        ];
        for (sum, v) in c.reconfig.iter_mut().zip(reconfig) {
            *sum += v;
        }
        c.respawns += w.recovery.stats.respawns;
        if let Some(log) = &sim.decisions {
            for d in log.borrow().iter() {
                c.decisions += 1;
                match d.action {
                    SloAction::Started(_) => c.started += 1,
                    SloAction::Hold => c.held += 1,
                    SloAction::Refused(_) | SloAction::Suppressed(_) => c.refused += 1,
                }
            }
        }

        let r = &mut o.requests;
        let (mut first, mut last) = (u64::MAX, 0u64);
        for t in w.dfk.tasks() {
            r.submitted += 1;
            r.retries += u64::from(t.attempts.saturating_sub(1));
            first = first.min(t.submitted.as_nanos());
            if let Some(f) = t.finished {
                last = last.max(f.as_nanos());
            }
            match t.state {
                TaskState::Done => {
                    r.completed += 1;
                    let f = t.finished.expect("done task has a finish time");
                    let ta = f.duration_since(t.submitted).as_nanos();
                    self.digest.write_u64(ta);
                    self.turnaround.push(ta);
                    if ta <= sim.slo.as_nanos() {
                        r.slo_met += 1;
                    }
                    if let (Some(d), Some(s)) = (t.dispatched, t.started) {
                        self.queue.push(d.duration_since(t.submitted).as_nanos());
                        self.startup.push(s.duration_since(d).as_nanos());
                        self.exec.push(f.duration_since(s).as_nanos());
                    }
                }
                TaskState::Failed => r.failed += 1,
                _ => {}
            }
        }
        r.makespan_ns += last.saturating_sub(first.min(last));
    }

    fn finish(mut self) -> Outcome {
        let r = &mut self.outcome.requests;
        r.turnaround_digest = self.digest.finish();
        r.turnaround_ns = p50_p99(&mut self.turnaround);
        r.queue_wait_ns = p50_p99(&mut self.queue);
        r.startup_ns = p50_p99(&mut self.startup);
        r.exec_ns = p50_p99(&mut self.exec);
        self.outcome
    }
}

/// Independent cells one rep runs back to back, pooling their results.
/// Autoscale attainment hinges on how many of a cell's ~410 commits fail
/// (binomial at p = 0.2), which moves one cell's attainment by ±4 %
/// from seed to seed; four cells halve that. Cell 0 runs at the seed
/// itself, so it is the single-cell workload exactly.
fn cells(w: Workload) -> u64 {
    match w {
        Workload::AutoscaleDiurnal => 4,
        _ => 1,
    }
}

fn cell_seed(seed: u64, cell: u64) -> u64 {
    seed ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Rep {
    /// Time `setup` and `run` into this rep and take the heap peak, then
    /// `reduce` the final state (outside the timings and the peak) and
    /// drop it before the next cell starts.
    fn time<S>(
        &mut self,
        setup: impl FnOnce() -> S,
        run: impl FnOnce(&mut S),
        reduce: impl FnOnce(&S),
    ) {
        alloc::reset_peak();
        let base = alloc::live();
        let t0 = Instant::now();
        let mut state = setup();
        self.setup_s += t0.elapsed().as_secs_f64();
        let (ops0, bytes0) = (alloc::ops(), alloc::bytes());
        let t1 = Instant::now();
        run(&mut state);
        self.run_s += t1.elapsed().as_secs_f64();
        self.alloc_ops += alloc::ops() - ops0;
        self.alloc_bytes += alloc::bytes() - bytes0;
        self.peak_heap_bytes = self.peak_heap_bytes.max(alloc::peak() - base);
        reduce(&state);
    }
}

/// Run one rep of `w`.
fn run_rep(w: Workload, scale: Scale, seed: u64, traced: bool) -> Rep {
    let trace: Trace = traced.then(|| Rc::new(RefCell::new(Tracer::new())));
    let mut rep = Rep {
        traced,
        ..Rep::default()
    };
    let mut outcome = Outcome::default();
    if w == Workload::ChaosSearch {
        rep.time(
            || chaos::setup(scale, seed, &trace),
            |search| search.run(&trace),
            |search| outcome = search.outcome(),
        );
    } else {
        let mut tally = Tally::default();
        for cell in 0..cells(w) {
            let seed = cell_seed(seed, cell);
            rep.time(
                || match w {
                    Workload::AutoscaleDiurnal => setup_autoscale(scale, seed, &trace),
                    _ => setup_fleet(w, scale, seed, &trace),
                },
                |sim| match &trace {
                    None => sim.eng.run(&mut sim.world),
                    Some(t) => run_traced(sim, t),
                },
                |sim| tally.add(sim),
            );
        }
        outcome = tally.finish();
    }
    rep.outcome = outcome;
    rep.tracer = trace.map(|t| {
        Rc::try_unwrap(t)
            .ok()
            .expect("the rep's platforms are dropped, so no span handle remains")
            .into_inner()
    });
    rep
}

/// Every rep of one workload, plus the chaos findings.
pub struct Measurement {
    /// The workload measured.
    pub workload: Workload,
    /// Reps in run order. Rep 0 is the warm-up; after it, with tracing
    /// on, traced and untraced reps alternate.
    pub reps: Vec<Rep>,
    /// Violating chaos schedules, shrunk.
    pub findings: Vec<chaos::Finding>,
}

/// Run reps of `w` until `seconds` have passed. Rep 0 is a warm-up: the
/// first rep of a process also pays for faulting in fresh heap pages
/// (0.3–1 s on `fleet-mig`), so it joins the fingerprint gate but no
/// statistic. After it come untraced reps, alternating with traced ones
/// when `trace` is set, so the tracing overhead is measured under the
/// same conditions as the reps it is compared with.
pub fn measure(w: Workload, scale: Scale, seed: u64, seconds: f64, trace: bool) -> Measurement {
    let start = Instant::now();
    let min_reps = if trace { 3 } else { 2 };
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && reps.len() % 2 == 1;
        reps.push(run_rep(w, scale, seed, traced));
    }
    let findings = if w == Workload::ChaosSearch {
        chaos::shrink_findings(seed, &reps[0].outcome.chaos)
    } else {
        Vec::new()
    };
    Measurement {
        workload: w,
        reps,
        findings,
    }
}
