//! End-to-end experiment scenarios — one builder per paper artifact.
//!
//! Every scenario constructs a fresh deterministic platform (fleet +
//! executors + workloads), runs it to completion under the discrete-event
//! engine, and reduces the run to the numbers the corresponding table or
//! figure reports. The `repro` binary is a thin wrapper over these
//! functions.
//!
//! The harness they share with the fault, gray-failure, overload, fleet
//! and autoscale benchmarks has one function per job: [`build_platform`]
//! builds the §5.2 deployment, [`warm_up`] warms its workers,
//! [`chat_call`] and [`session_call`] are its two request shapes,
//! [`app_tasks`], [`outcomes`], [`makespan_since`], [`turnarounds`] and
//! [`mean_service_s`] reduce a finished run, [`trace_rows`] dumps it for
//! the determinism tests, and [`chain_arrivals`] feeds an open-loop
//! trace.

use parfait_core::metrics::{self, ModeSummary};
use parfait_core::{apply_plan, plan, resize_mps, weightcache, Strategy};
use parfait_faas::{
    boot, resume_sampling, submit, AcceleratorSpec, AppCall, Config, ExecutorConfig, FaasWorld,
    Percentiles, TaskRecord, TaskState,
};
use parfait_gpu::context;
use parfait_gpu::host::GpuFleet;
use parfait_gpu::{DeviceMode, GpuSpec};
use parfait_simcore::{Engine, SimTime};
use parfait_workloads::dnn::{exec, models};
use parfait_workloads::llm::RequestProfile;
use parfait_workloads::molecular::{Campaign, CampaignConfig, Selection};
use parfait_workloads::trace;
use parfait_workloads::{CompletionBody, LlmSpec};
use serde::Serialize;

/// Default experiment seed (any seed reproduces the paper's shapes; this
/// one is pinned so EXPERIMENTS.md numbers are exact).
pub const SEED: u64 = 20231112; // SC-W 2023 opening day

/// MPS co-residency interference used by the reproduction scenarios
/// (see `GpuDevice::set_mps_interference`).
pub const MPS_INTERFERENCE: f64 = 0.06;

/// Result of one multiplexing cell (one bar of Fig. 4 / point of Fig. 5).
#[derive(Debug, Clone, Serialize)]
pub struct MultiplexResult {
    /// Sharing-mode label.
    pub mode: String,
    /// Co-resident LLaMa2 processes.
    pub procs: usize,
    /// Completions executed.
    pub completions: usize,
    /// Fig. 4 value: time to finish all completions (s), workers warm.
    pub makespan_s: f64,
    /// Fig. 5 value: mean per-completion latency (s).
    pub mean_latency_s: f64,
    /// P95 per-completion latency (s).
    pub p95_latency_s: f64,
    /// Completions per second.
    pub throughput: f64,
    /// Mean sampled GPU utilization in `[0,1]`.
    pub mean_utilization: f64,
}

/// Build the §5.2 deployment: `gpus` A100-80GBs on one host, each
/// partitioned into `procs_per_gpu` LLaMa2-7B workers under `strategy`,
/// all feeding a single `"gpu"` executor, ready to [`warm_up`]. The
/// multiplexing figures run it on one GPU; the correlated-outage, gray-
/// failure and straggler benchmarks on two.
pub fn build_platform(
    strategy: &Strategy,
    gpus: usize,
    procs_per_gpu: usize,
    seed: u64,
) -> (FaasWorld, Engine<FaasWorld>, LlmSpec, GpuSpec) {
    let gpu_spec = GpuSpec::a100_80gb();
    // §5.2 deployment: fp16 7B so four instances fit in 80 GB.
    let llm = LlmSpec::llama2_7b(2);
    let mut fleet = GpuFleet::new();
    let mut specs = Vec::new();
    for g in 0..gpus as u32 {
        let id = fleet.add(gpu_spec.clone());
        fleet.device_mut(id).set_mps_interference(MPS_INTERFERENCE);
        let p = plan(&gpu_spec, g, procs_per_gpu, strategy).expect("valid plan");
        // A 4-way MIG split (1g.10gb) cannot hold a 16.6 GiB deployment;
        // the paper reports numbers anyway, so we enable UVM
        // oversubscription for MIG runs (documented in DESIGN.md §1,
        // inconsistency 2).
        if matches!(strategy, Strategy::MigEqual) {
            fleet.device_mut(id).set_uvm(true);
        }
        specs.extend(apply_plan(&mut fleet, &p).expect("plan applies"));
    }
    let config = Config::new(vec![ExecutorConfig::gpu("gpu", specs)]);
    let world = FaasWorld::new(config, fleet, seed);
    (world, Engine::new(), llm, gpu_spec)
}

/// Boot the platform and run `n` warm-up requests (`call()` each) to
/// completion, so cold starts and model loads happen before measurement.
/// Sampling is left paused: callers that measure utilization call
/// [`resume_sampling`] themselves.
///
/// # Panics
/// If any warm-up request failed; the message lists the task errors.
pub fn warm_up(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    n: usize,
    call: impl Fn() -> AppCall,
) {
    boot(world, eng);
    for _ in 0..n {
        submit(world, eng, call());
    }
    eng.run(world);
    assert_eq!(
        world.dfk.failed_count(),
        0,
        "warm-up failed: {:?}",
        world
            .dfk
            .tasks()
            .iter()
            .filter_map(|t| world.dfk.error(t.id))
            .collect::<Vec<_>>()
    );
}

/// One paper-profile chat completion against the `"gpu"` executor.
pub fn chat_call(llm: &LlmSpec, gpu_spec: &GpuSpec, app: &str) -> AppCall {
    let llm = llm.clone();
    let gpu_spec = gpu_spec.clone();
    AppCall::new(app, "gpu", move |_| {
        Box::new(CompletionBody::paper_request(llm.clone(), gpu_spec.clone()))
    })
}

/// A long-running chat session (~35 s of decode): 96 prompt tokens, 220
/// generated. Long enough that a mid-flight host reboot or an undetected
/// zombie costs real work.
pub fn session_call(llm: &LlmSpec, gpu_spec: &GpuSpec, app: &str) -> AppCall {
    let llm = llm.clone();
    let gpu_spec = gpu_spec.clone();
    AppCall::new(app, "gpu", move |_| {
        Box::new(CompletionBody::new(llm.clone(), gpu_spec.clone(), 96, 220))
    })
}

/// The tasks of `app`, in submission order.
pub fn app_tasks<'w>(world: &'w FaasWorld, app: &'w str) -> impl Iterator<Item = &'w TaskRecord> {
    world.dfk.tasks().iter().filter(move |t| *t.app == *app)
}

/// How many of `app`'s tasks are done, and how many failed.
pub fn outcomes(world: &FaasWorld, app: &str) -> (usize, usize) {
    let count = |st| app_tasks(world, app).filter(|t| t.state == st).count();
    (count(TaskState::Done), count(TaskState::Failed))
}

/// Last finish among `app`'s tasks, in seconds after `start`; 0 when
/// none finished.
pub fn makespan_since(world: &FaasWorld, app: &str, start: SimTime) -> f64 {
    app_tasks(world, app)
        .filter_map(|t| t.finished)
        .max()
        .map_or(0.0, |end| end.duration_since(start).as_secs_f64())
}

/// Turnaround (submit → finish, s) of each of `app`'s done tasks, in
/// submission order.
pub fn turnarounds(world: &FaasWorld, app: &str) -> Vec<f64> {
    app_tasks(world, app)
        .filter(|t| t.state == TaskState::Done)
        .map(|t| {
            t.finished
                .expect("done")
                .duration_since(t.submitted)
                .as_secs_f64()
        })
        .collect()
}

/// Mean service time (body start → finish, s) over every task that ran
/// to an end. Read after [`warm_up`], it is the per-request estimate the
/// overload benchmarks derive deadlines and hedge triggers from.
pub fn mean_service_s(world: &FaasWorld) -> f64 {
    let xs: Vec<f64> = world
        .dfk
        .tasks()
        .iter()
        .filter_map(|t| Some(t.finished?.duration_since(t.started?).as_secs_f64()))
        .collect();
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The fault records and task rows of a finished run, one line each —
/// the body of every trace `tests/determinism.rs` byte-compares.
pub fn trace_rows(world: &FaasWorld) -> String {
    let mut trace = String::new();
    for r in &world.monitor.fault_records {
        trace.push_str(&format!(
            "fault t={:?} phase={:?} kind={} gpu={:?} worker={:?} detail={}\n",
            r.t, r.phase, r.kind, r.gpu, r.worker, r.detail
        ));
    }
    for t in world.dfk.tasks() {
        trace.push_str(&format!(
            "task id={:?} app={} state={:?} submitted={:?} finished={:?} attempts={}\n",
            t.id, t.app, t.state, t.submitted, t.finished, t.attempts
        ));
    }
    trace
}

/// Schedule arrival `i` of an open-loop trace; when it fires it submits
/// `call(i)` and chains arrival `i + 1`, so the heap holds one pending
/// arrival at a time instead of all of them. With ~10⁶ requests,
/// preloading every boxed arrival closure costs hundreds of MB and makes
/// every heap push/pop a cache miss; chaining keeps the heap at
/// O(active devices + in-service work), so per-event cost stays
/// independent of the *total* request count too.
pub fn chain_arrivals<F>(eng: &mut Engine<FaasWorld>, times: Vec<SimTime>, i: usize, call: F)
where
    F: Fn(usize) -> AppCall + 'static,
{
    if i >= times.len() {
        return;
    }
    let at = times[i];
    eng.schedule_at(at, move |w: &mut FaasWorld, e| {
        submit(w, e, call(i));
        chain_arrivals(e, times, i + 1, call);
    });
}

/// One multiplexing cell: `procs` workers share one A100-80GB under
/// `strategy`, are warmed with one request each, and then drain
/// `requests` calls of `app` from the shared queue.
fn multiplex(
    strategy: &Strategy,
    procs: usize,
    requests: usize,
    seed: u64,
    app: &str,
    call: impl Fn(&LlmSpec, &GpuSpec, &str) -> AppCall,
) -> MultiplexResult {
    let (mut world, mut eng, llm, gpu_spec) = build_platform(strategy, 1, procs, seed);
    warm_up(&mut world, &mut eng, procs, || {
        call(&llm, &gpu_spec, "warmup")
    });
    resume_sampling(&mut world, &mut eng);
    for _ in 0..requests {
        submit(&mut world, &mut eng, call(&llm, &gpu_spec, app));
    }
    eng.run(&mut world);
    let lats = app_tasks(&world, app)
        .filter(|t| t.state == TaskState::Done)
        .filter_map(|t| Some(t.finished?.duration_since(t.started?).as_secs_f64()))
        .collect();
    MultiplexResult {
        mode: mode_label(strategy),
        procs,
        completions: requests,
        makespan_s: metrics::makespan(&world, app).map_or(0.0, |d| d.as_secs_f64()),
        mean_latency_s: metrics::exec_latency(&world, app).mean(),
        p95_latency_s: Percentiles::of(lats).map_or(0.0, |p| p.p95),
        throughput: metrics::throughput(&world, app),
        mean_utilization: world.monitor.mean_utilization(0),
    }
}

/// Run the §5.2 multiplexing experiment: `procs` LLaMa2-7B chatbot
/// workers share one A100-80GB under `strategy`; `completions` text
/// completions are drained from a shared queue. Workers are warmed (one
/// completion each) before measurement, matching the paper's steady-state
/// reading.
pub fn llama_multiplex(
    strategy: &Strategy,
    procs: usize,
    completions: usize,
    seed: u64,
) -> MultiplexResult {
    multiplex(strategy, procs, completions, seed, "chat", chat_call)
}

/// Human label for a strategy.
pub fn mode_label(s: &Strategy) -> String {
    match s {
        Strategy::TimeSharing => "time-sharing".into(),
        Strategy::MpsDefault => "mps-default".into(),
        Strategy::MpsEqual => "mps".into(),
        Strategy::MpsWeighted(_) => "mps-weighted".into(),
        Strategy::MigEqual => "mig".into(),
        Strategy::Vgpu => "vgpu".into(),
    }
}

/// One Fig. 2 point: measured completion latency with the model capped to
/// `pct` percent of the SMs (single process, warm worker).
pub fn fig2_point(llm: &LlmSpec, pct: u32, seed: u64) -> f64 {
    let gpu_spec = GpuSpec::a100_40gb();
    let mut fleet = GpuFleet::new();
    let g = fleet.add(gpu_spec.clone());
    fleet.device_mut(g).set_mps_interference(MPS_INTERFERENCE);
    fleet.device_mut(g).mps.start();
    fleet
        .device_mut(g)
        .set_mode(DeviceMode::MpsPartitioned)
        .expect("idle device");
    let config = Config::new(vec![ExecutorConfig::gpu(
        "gpu",
        vec![AcceleratorSpec::GpuPercentage(0, pct)],
    )]);
    let mut world = FaasWorld::new(config, fleet, seed);
    let mut eng = Engine::new();
    warm_up(&mut world, &mut eng, 1, || {
        chat_call(llm, &gpu_spec, "warmup")
    });
    for _ in 0..5 {
        submit(&mut world, &mut eng, chat_call(llm, &gpu_spec, "probe"));
    }
    eng.run(&mut world);
    assert_eq!(world.dfk.failed_count(), 0, "fig2 probe failed");
    metrics::exec_latency(&world, "probe").mean()
}

/// Fig. 3 result: the campaign timeline plus phase/idleness summaries.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignResult {
    /// Selection policy used.
    pub selection: String,
    /// Total campaign wall time (s).
    pub wall_s: f64,
    /// Union busy seconds per phase track.
    pub phase_busy_s: Vec<(String, f64)>,
    /// Fraction of monitoring samples with a fully idle GPU.
    pub gpu_idle_fraction: f64,
    /// Best ground-truth IP found.
    pub best_ip: f64,
    /// ASCII rendering of the phase timeline (the textual Fig. 3).
    pub ascii: String,
    /// Per-round best-IP progression.
    pub best_by_round: Vec<f64>,
}

/// Run the §3.1 molecular-design campaign on the Listing-1 platform
/// (16 CPU workers + 1 whole-GPU worker) and reduce it to Fig. 3.
pub fn molecular_campaign(selection: Selection, seed: u64) -> CampaignResult {
    molecular_campaign_with(selection, false, seed)
}

/// Campaign with the §3.4 pipelining flag exposed (overlap the next
/// round's CPU simulations with the GPU training/inference phases).
pub fn molecular_campaign_with(selection: Selection, pipelined: bool, seed: u64) -> CampaignResult {
    let gpu_spec = GpuSpec::a100_40gb();
    let mut fleet = GpuFleet::new();
    fleet.add(gpu_spec);
    let config = Config::new(vec![
        ExecutorConfig::cpu("cpu", 16),
        ExecutorConfig::gpu("gpu", vec![AcceleratorSpec::Gpu(0)]),
    ]);
    let mut world = FaasWorld::new(config, fleet, seed);
    let campaign = Campaign::new(
        CampaignConfig {
            selection,
            pipelined,
            ..CampaignConfig::default()
        },
        seed,
    );
    let history = campaign.history_handle();
    world.set_driver(campaign);
    let mut eng = Engine::new();
    parfait_faas::run(&mut world, &mut eng);
    let wall = eng.now();
    let timeline = metrics::timeline(&world);
    let phase_busy_s = timeline
        .tracks()
        .into_iter()
        .map(|t| {
            let busy = timeline.union_busy(&t, SimTime::ZERO, wall).as_secs_f64();
            (t, busy)
        })
        .collect();
    let rounds = history.borrow();
    let best_by_round: Vec<f64> = rounds.iter().map(|r| r.best_ip).collect();
    let best_ip = best_by_round.last().copied().unwrap_or(0.0);
    drop(rounds);
    CampaignResult {
        selection: format!("{selection:?}"),
        wall_s: wall.as_secs_f64(),
        phase_busy_s,
        gpu_idle_fraction: world.monitor.idle_fraction(0),
        best_ip,
        best_by_round,
        ascii: timeline.render_ascii(100),
    }
}

/// The §6 overheads, measured in-simulator.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadReport {
    /// Cold-start decomposition for a LLaMa2-7B fp32 worker (s):
    /// (function init, GPU context init, model load).
    pub cold_start_7b: (f64, f64, f64),
    /// Same for 13B fp32.
    pub cold_start_13b: (f64, f64, f64),
    /// Time from MPS resize to the first completion afterwards (s).
    pub mps_resize_to_first_completion_s: f64,
    /// Same with the §7 weight cache enabled.
    pub mps_resize_cached_s: f64,
    /// Steady-state completion latency (no resize), for reference.
    pub baseline_completion_s: f64,
}

/// Measure §6: cold-start decomposition and the MPS-resize penalty, with
/// and without the §7 weight cache.
pub fn overheads(seed: u64) -> OverheadReport {
    let spec = GpuSpec::a100_80gb();
    let b7 = context::mean(&spec, LlmSpec::llama2_7b(4).weight_bytes());
    let b13 = context::mean(
        &spec,
        // single-GPU fp32 13B image (what §6's "10-20 s" refers to).
        (13.0e9 * 4.0) as u64,
    );
    let resize = |cache: bool| -> (f64, f64) {
        let (mut world, mut eng, llm, gpu_spec) = build_platform(&Strategy::MpsEqual, 1, 2, seed);
        if cache {
            weightcache::enable(&mut world);
        }
        warm_up(&mut world, &mut eng, 2, || {
            chat_call(&llm, &gpu_spec, "warmup")
        });
        // Baseline warm completion.
        submit(&mut world, &mut eng, chat_call(&llm, &gpu_spec, "baseline"));
        eng.run(&mut world);
        let baseline = metrics::exec_latency(&world, "baseline").mean();
        // Resize 50/50 → 75/25 (the §6 scenario: reallocating GPU share).
        let t0 = eng.now();
        resize_mps(&mut world, &mut eng, 0, &[75, 25]).expect("resize");
        submit(&mut world, &mut eng, chat_call(&llm, &gpu_spec, "after"));
        eng.run(&mut world);
        let first_done = app_tasks(&world, "after")
            .filter(|t| t.state == TaskState::Done)
            .filter_map(|t| t.finished)
            .min()
            .expect("post-resize completion");
        (first_done.duration_since(t0).as_secs_f64(), baseline)
    };
    let (uncached, baseline) = resize(false);
    let (cached, _) = resize(true);
    OverheadReport {
        cold_start_7b: (
            b7.function_init.as_secs_f64(),
            b7.gpu_context_init.as_secs_f64(),
            b7.app_load.as_secs_f64(),
        ),
        cold_start_13b: (
            b13.function_init.as_secs_f64(),
            b13.gpu_context_init.as_secs_f64(),
            b13.app_load.as_secs_f64(),
        ),
        mps_resize_to_first_completion_s: uncached,
        mps_resize_cached_s: cached,
        baseline_completion_s: baseline,
    }
}

/// Quantified Table 1: run the 4-process LLaMa workload under every
/// multiplexing technique and report measured utilization/latency/
/// throughput next to the qualitative properties.
pub fn table1(completions: usize, seed: u64) -> Vec<(ModeSummary, &'static str, &'static str)> {
    let strategies: [(Strategy, &str, &str); 5] = [
        (Strategy::TimeSharing, "none", "low utilization"),
        (Strategy::MpsDefault, "none", "contention possible"),
        (Strategy::MpsEqual, "compute only", "restart to resize"),
        (Strategy::MigEqual, "compute+memory", "GPU reset to resize"),
        (Strategy::Vgpu, "compute+memory", "homogeneous only"),
    ];
    strategies
        .into_iter()
        .map(|(s, isolation, drawback)| {
            let r = llama_multiplex(&s, 4, completions, seed);
            (
                ModeSummary {
                    mode: r.mode.clone(),
                    makespan_s: r.makespan_s,
                    mean_latency_s: r.mean_latency_s,
                    throughput: r.throughput,
                    mean_utilization: r.mean_utilization,
                },
                isolation,
                drawback,
            )
        })
        .collect()
}

/// Extension: multiplex `procs` ResNet-50 batch-1 inference services on
/// one A100 and compare sharing modes — the §3.3/§3.4 workload the paper
/// profiles but never benchmarks end-to-end.
pub fn resnet_multiplex(
    strategy: &Strategy,
    procs: usize,
    images: usize,
    seed: u64,
) -> MultiplexResult {
    let model = models::resnet50();
    let kernels = exec::inference_kernels(&model, &GpuSpec::a100_80gb(), 1);
    let weight_bytes = model.weight_bytes(4);
    let profile = parfait_faas::ModelProfile {
        id: 0x7e5_e71,
        bytes: weight_bytes + parfait_gpu::GIB / 2,
        shared_bytes: weight_bytes,
    };
    multiplex(strategy, procs, images, seed, "infer", |_, _, app| {
        let kernels = kernels.clone();
        AppCall::new(app, "gpu", move |_| {
            Box::new(
                parfait_faas::app::bodies::KernelSeq::new(
                    kernels.clone(),
                    exec::layer_host_overhead(),
                )
                .with_model(profile),
            )
        })
    })
}

/// Extension: the §3.2 text-vs-chat deployment comparison — same model,
/// different request-length distributions, same MPS partition.
pub fn chat_vs_text(procs: usize, requests: usize, seed: u64) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for profile in [RequestProfile::text(), RequestProfile::chat()] {
        let (mut world, mut eng, llm, gpu_spec) =
            build_platform(&Strategy::MpsEqual, 1, procs, seed);
        warm_up(&mut world, &mut eng, procs, || {
            chat_call(&llm, &gpu_spec, "warmup")
        });
        let name = profile.name;
        for _ in 0..requests {
            let llm = llm.clone();
            let gpu_spec2 = gpu_spec.clone();
            let profile = profile.clone();
            submit(
                &mut world,
                &mut eng,
                AppCall::new("serve", "gpu", move |rng| {
                    Box::new(CompletionBody::sampled(
                        llm.clone(),
                        gpu_spec2.clone(),
                        &profile,
                        rng,
                    ))
                }),
            );
        }
        eng.run(&mut world);
        let lat = metrics::exec_latency(&world, "serve");
        out.push((
            name.to_string(),
            lat.mean(),
            metrics::throughput(&world, "serve"),
        ));
    }
    out
}

/// Result of an open-loop serving run.
#[derive(Debug, Clone, Serialize)]
pub struct ServingResult {
    /// Sharing-mode label.
    pub mode: String,
    /// Offered request rate (req/s).
    pub offered_rate: f64,
    /// Achieved throughput (req/s over the serving window).
    pub achieved_rate: f64,
    /// Mean *turnaround* (arrival → completion, queueing included).
    pub mean_turnaround_s: f64,
    /// P95 turnaround.
    pub p95_turnaround_s: f64,
}

/// Extension: open-loop Poisson serving — the serverless-operator view.
/// Requests for LLaMa2-7B completions arrive at `rate_per_sec`; the
/// platform runs `procs` workers under `strategy`. Saturation shows up as
/// exploding turnaround (arrival → completion), which the closed-loop
/// Fig. 4/5 experiments cannot express.
pub fn open_loop_serving(
    strategy: &Strategy,
    procs: usize,
    rate_per_sec: f64,
    requests: usize,
    seed: u64,
) -> ServingResult {
    let (mut world, mut eng, llm, gpu_spec) = build_platform(strategy, 1, procs, seed);
    warm_up(&mut world, &mut eng, procs, || {
        chat_call(&llm, &gpu_spec, "warmup")
    });
    // Generate the arrival trace and schedule submissions at those
    // offsets from "now".
    let mut rng = parfait_simcore::SimRng::new(seed).split(parfait_simcore::streams::ARRIVAL_TRACE);
    let tr = trace::poisson(&mut rng, rate_per_sec, requests);
    let t0 = eng.now();
    resume_sampling(&mut world, &mut eng);
    for a in &tr.arrivals {
        let call = chat_call(&llm, &gpu_spec, "serve");
        let at = t0 + parfait_simcore::SimDuration::from_nanos(a.as_nanos());
        eng.schedule_at(at, move |w: &mut FaasWorld, e| {
            submit(w, e, call);
        });
    }
    eng.run(&mut world);
    let mut turns = turnarounds(&world, "serve");
    turns.sort_by(f64::total_cmp);
    let n = turns.len();
    let mean = if n == 0 {
        0.0
    } else {
        turns.iter().sum::<f64>() / n as f64
    };
    let window = eng.now().duration_since(t0).as_secs_f64();
    ServingResult {
        mode: mode_label(strategy),
        offered_rate: rate_per_sec,
        achieved_rate: if window > 0.0 { n as f64 / window } else { 0.0 },
        mean_turnaround_s: mean,
        p95_turnaround_s: Percentiles::of(turns).map_or(0.0, |p| p.p95),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sub-millisecond ResNet-50 kernels make time-shared services thrash
    /// on context switches, while MPS and MIG run them side by side.
    #[test]
    fn resnet_spatial_sharing_scales_and_time_sharing_thrashes() {
        let makespan = |s: Strategy, procs| resnet_multiplex(&s, procs, 200, SEED).makespan_s;
        let single = makespan(Strategy::TimeSharing, 1);
        let ts4 = makespan(Strategy::TimeSharing, 4);
        assert!(ts4 > single, "4 time-shared {ts4} vs 1 service {single}");
        for s in [Strategy::MpsEqual, Strategy::MigEqual] {
            let label = mode_label(&s);
            let spatial = makespan(s, 4);
            assert!(
                single / spatial > 2.5,
                "4 {label} services {spatial} vs 1 service {single}"
            );
        }
    }

    /// The chat profile's longer requests cost more than twice the text
    /// profile's mean latency on the same 4-way MPS split.
    #[test]
    fn chat_profile_is_slower_than_text() {
        let rows = chat_vs_text(4, 60, SEED);
        let mean = |name: &str| {
            rows.iter()
                .find(|r| r.0 == name)
                .expect("profile present")
                .1
        };
        assert!(
            mean("chat") > 2.0 * mean("text"),
            "chat {} vs text {}",
            mean("chat"),
            mean("text")
        );
    }
}
