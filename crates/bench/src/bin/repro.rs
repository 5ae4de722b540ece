//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p parfait-bench --bin repro -- all
//! cargo run --release -p parfait-bench --bin repro -- fig4 --csv
//! ```
//!
//! Subcommands: `table1 fig1 fig2 fig3 fig4 fig5 overheads ablation
//! extension all`, plus explicit-only artifacts (never under
//! `all`): `substrate` times the simulator's own hot paths, writes
//! `BENCH_substrate.json`, and checks the deterministic cost-proxy
//! counters against `cost-baseline.txt` (exit 1 on regression;
//! `--record-cost` re-records); `faults` replays an identical injected
//! fault schedule under MPS / MIG / time-sharing and writes
//! `BENCH_faults.json` (the isolation column of Table 1, reproduced);
//! `overload` sweeps offered load past saturation under the
//! overload-protection stack and writes `BENCH_overload.json`; `lint`
//! runs the determinism static-analysis pass (`parfait-lint`) over the
//! workspace and writes `BENCH_lint.json`; `fleet` drives ~1M open-loop
//! requests through a 1000-GPU MIG topology (`--gpus N --tasks N` to
//! rescale) and writes `BENCH_fleet.json` with the optimized-vs-scans
//! events/sec comparison; `gray` replays a zombie + fail-slow gray
//! failure schedule under three detection arms and writes
//! `BENCH_gray.json` with time-to-detect, false-positive counts, and
//! the goodput recovered by progress+peer detection; `chaos` runs the
//! deterministic chaos search (`--seeds N` randomized fault/reconfig
//! schedules, shrunk to minimal repros on violation) plus the seeded
//! torn-checkpoint regression demo and writes `BENCH_chaos.json`.
//! `--csv` switches the output to CSV; `--completions N` rescales the
//! §5.2 experiments (default 100, as in the paper).

use parfait_bench::report::{csv, f2, f3, pct, text_table};
use parfait_bench::scenarios::{
    self, chat_vs_text, llama_multiplex, mode_label, molecular_campaign, molecular_campaign_with,
    open_loop_serving, overheads, resnet_multiplex, table1, SEED,
};
use parfait_bench::sweep;
use parfait_core::advisor::{recommend_strategy, TenancyRequirements};
use parfait_core::{recommend, rightsize, Strategy};
use parfait_gpu::GpuSpec;
use parfait_gpu::GIB;
use parfait_workloads::dnn::models;
use parfait_workloads::molecular::Selection;
use parfait_workloads::LlmSpec;

struct Opts {
    csv: bool,
    completions: usize,
    seed: u64,
    /// `repro fleet`: GPUs in the fleet scenario.
    gpus: usize,
    /// `repro fleet`: requests pushed through the fleet.
    tasks: usize,
    /// `--gpus` / `--tasks` given explicitly? (`repro autoscale` has its
    /// own, much smaller defaults than the fleet driver.)
    gpus_set: bool,
    tasks_set: bool,
    /// `repro substrate`: re-record cost-baseline.txt instead of
    /// checking against it.
    record_cost: bool,
    /// `repro chaos`: randomized schedules to search.
    seeds: u64,
}

fn emit(opts: &Opts, title: &str, headers: &[&str], rows: Vec<Vec<String>>) {
    println!("== {title} ==");
    if opts.csv {
        print!("{}", csv(headers, &rows));
    } else {
        print!("{}", text_table(headers, &rows));
    }
    println!();
}

fn run_table1(opts: &Opts) {
    let rows = table1(opts.completions, opts.seed)
        .into_iter()
        .map(|(s, isolation, drawback)| {
            vec![
                s.mode,
                pct(s.mean_utilization),
                f2(s.makespan_s),
                f2(s.mean_latency_s),
                f3(s.throughput),
                isolation.to_string(),
                drawback.to_string(),
            ]
        })
        .collect();
    emit(
        opts,
        "Table 1 (quantified): multiplexing techniques, 4 LLaMa2-7B workers / A100-80GB",
        &[
            "technique",
            "gpu util",
            "makespan (s)",
            "mean latency (s)",
            "req/s",
            "isolation",
            "drawback",
        ],
        rows,
    );
}

fn run_fig1(opts: &Opts) {
    for m in models::fig1_models() {
        let rows = m
            .conv_series()
            .into_iter()
            .enumerate()
            .map(|(i, (name, flops))| vec![i.to_string(), name, format!("{:.1}", flops / 1e6)])
            .collect();
        emit(
            opts,
            &format!(
                "Fig 1: per-conv-layer MFLOPs of {} ({} conv layers, {:.2} GFLOPs total)",
                m.name,
                m.conv_series().len(),
                m.flops_per_image() / 1e9
            ),
            &["layer#", "layer", "MFLOPs/image"],
            rows,
        );
    }
}

fn run_fig2(opts: &Opts) {
    let specs = [LlmSpec::llama2_7b(4), LlmSpec::llama2_13b(4)];
    let gpu = GpuSpec::a100_40gb();
    let sm_grid: Vec<u32> = vec![5, 10, 14, 18, 20, 22, 27, 32, 43, 54, 76, 97, 108];
    let mut rows = Vec::new();
    for llm in &specs {
        for &sms in &sm_grid {
            let pct_raw = (sms as f64 / gpu.sms as f64 * 100.0).round() as u32;
            let pct_arg = pct_raw.clamp(1, 100);
            let measured = scenarios::fig2_point(llm, pct_arg, opts.seed);
            let analytic = llm.solo_completion_seconds(&gpu, sms as f64, 16, 27);
            rows.push(vec![
                llm.name.to_string(),
                sms.to_string(),
                pct_arg.to_string(),
                f3(measured),
                f3(analytic),
            ]);
        }
        let cpu = llm.cpu_completion_seconds(&gpu, 16, 27);
        rows.push(vec![
            llm.name.to_string(),
            "cpu".into(),
            "-".into(),
            f2(cpu),
            f2(cpu),
        ]);
    }
    emit(
        opts,
        "Fig 2: LLaMa2 completion latency vs SMs (A100-40GB, fp32; 16-token prompt, 27 new tokens)",
        &["model", "SMs", "MPS %", "measured (s)", "analytic (s)"],
        rows,
    );
}

fn run_fig3(opts: &Opts) {
    for sel in [Selection::ActiveLearning, Selection::Random] {
        let r = molecular_campaign(sel, opts.seed);
        let mut rows: Vec<Vec<String>> = r
            .phase_busy_s
            .iter()
            .map(|(t, b)| vec![t.clone(), f2(*b), pct(b / r.wall_s)])
            .collect();
        rows.push(vec![
            "gpu idle samples".into(),
            "-".into(),
            pct(r.gpu_idle_fraction),
        ]);
        emit(
            opts,
            &format!(
                "Fig 3: molecular-design phases ({}; wall {:.0}s, best IP {:.3}, rounds {:?})",
                r.selection,
                r.wall_s,
                r.best_ip,
                r.best_by_round
                    .iter()
                    .map(|b| format!("{b:.2}"))
                    .collect::<Vec<_>>()
            ),
            &["phase", "busy (s)", "of wall"],
            rows,
        );
        if !opts.csv {
            println!("{}", r.ascii);
        }
    }
}

fn fig45_rows(opts: &Opts) -> Vec<scenarios::MultiplexResult> {
    let mut out = Vec::new();
    out.push(llama_multiplex(
        &Strategy::TimeSharing,
        1,
        opts.completions,
        opts.seed,
    ));
    for procs in [2usize, 3, 4] {
        for s in [
            Strategy::TimeSharing,
            Strategy::MpsEqual,
            Strategy::MigEqual,
        ] {
            out.push(llama_multiplex(&s, procs, opts.completions, opts.seed));
        }
    }
    out
}

fn run_fig4(opts: &Opts) {
    let results = fig45_rows(opts);
    let base = results[0].makespan_s;
    let rows = results
        .iter()
        .map(|r| {
            vec![
                r.procs.to_string(),
                r.mode.clone(),
                f2(r.makespan_s),
                format!("{:.2}x", base / r.makespan_s),
                f3(r.throughput),
                pct(r.mean_utilization),
            ]
        })
        .collect();
    emit(
        opts,
        &format!(
            "Fig 4: time to complete {} completions, 1-4 LLaMa2-7B processes (baseline {}s)",
            opts.completions,
            f2(base)
        ),
        &[
            "procs",
            "mode",
            "completion time (s)",
            "speedup",
            "req/s",
            "gpu util",
        ],
        rows,
    );
}

fn run_fig5(opts: &Opts) {
    let results = fig45_rows(opts);
    let rows = results
        .iter()
        .map(|r| {
            vec![
                r.procs.to_string(),
                r.mode.clone(),
                f3(r.mean_latency_s),
                f3(r.p95_latency_s),
            ]
        })
        .collect();
    emit(
        opts,
        "Fig 5: average LLaMa2 inference latency under multiplexing",
        &["procs", "mode", "mean latency (s)", "p95 (s)"],
        rows,
    );
}

fn run_overheads(opts: &Opts) {
    let o = overheads(opts.seed);
    let rows = vec![
        vec![
            "cold start 7B fp32".into(),
            f2(o.cold_start_7b.0),
            f2(o.cold_start_7b.1),
            f2(o.cold_start_7b.2),
            f2(o.cold_start_7b.0 + o.cold_start_7b.1 + o.cold_start_7b.2),
        ],
        vec![
            "cold start 13B fp32".into(),
            f2(o.cold_start_13b.0),
            f2(o.cold_start_13b.1),
            f2(o.cold_start_13b.2),
            f2(o.cold_start_13b.0 + o.cold_start_13b.1 + o.cold_start_13b.2),
        ],
    ];
    emit(
        opts,
        "§6 cold-start decomposition",
        &[
            "scenario",
            "function init (s)",
            "ctx init (s)",
            "model load (s)",
            "total (s)",
        ],
        rows,
    );
    let rows = vec![
        vec![
            "warm completion (no resize)".into(),
            f2(o.baseline_completion_s),
        ],
        vec![
            "MPS resize -> first completion".into(),
            f2(o.mps_resize_to_first_completion_s),
        ],
        vec![
            "MPS resize with weight cache (§7)".into(),
            f2(o.mps_resize_cached_s),
        ],
    ];
    emit(
        opts,
        "§6 reconfiguration penalty (LLaMa2-7B fp16, 2 workers, 50/50 -> 75/25)",
        &["scenario", "seconds"],
        rows,
    );
}

fn run_ablation(opts: &Opts) {
    // Right-sizing ablation (§7): recommendation vs sweep optimum.
    let gpu = GpuSpec::a100_40gb();
    let mut rows = Vec::new();
    let llm = LlmSpec::llama2_7b(4);
    let pts = rightsize::profile(
        |sms| llm.solo_completion_seconds(&gpu, sms, 16, 27),
        rightsize::full_grid(&gpu),
    );
    let rec = recommend(&gpu, &pts, llm.footprint_bytes(), 0.10).expect("profile non-empty");
    rows.push(vec![
        llm.name.to_string(),
        format!("{:.0}", rec.knee_sms),
        format!("{}%", rec.mps_percentage),
        rec.mig_profile.unwrap_or("-").to_string(),
    ]);
    for m in [models::resnet50(), models::resnet101(), models::vgg16()] {
        let pts = rightsize::profile(
            |sms| parfait_workloads::dnn::exec::solo_latency(&m, &gpu, 1, sms),
            rightsize::full_grid(&gpu),
        );
        let rec = recommend(&gpu, &pts, m.weight_bytes(4), 0.10).expect("profile non-empty");
        rows.push(vec![
            m.name.to_string(),
            format!("{:.0}", rec.knee_sms),
            format!("{}%", rec.mps_percentage),
            rec.mig_profile.unwrap_or("-").to_string(),
        ]);
    }
    emit(
        opts,
        "§7 ablation: right-sizing recommendations (10% latency tolerance)",
        &["workload", "knee (SMs)", "MPS %", "MIG profile"],
        rows,
    );

    // Weight-cache ablation is part of `overheads`; repeat the headline.
    let o = overheads(opts.seed);
    let speedup = o.mps_resize_to_first_completion_s / o.mps_resize_cached_s;
    emit(
        opts,
        "§7 ablation: GPU-resident weight cache on MPS resize",
        &["variant", "resize -> first completion (s)"],
        vec![
            vec![
                "stock (reload weights)".into(),
                f2(o.mps_resize_to_first_completion_s),
            ],
            vec!["weight cache (re-bind)".into(), f2(o.mps_resize_cached_s)],
            vec!["speedup".into(), format!("{speedup:.2}x")],
        ],
    );
}

fn run_extension(opts: &Opts) {
    // ResNet-50 services multiplexed (the workload the paper profiles in
    // §3.3/§3.4 but never benchmarks end-to-end).
    let images = 200;
    let mut rows = Vec::new();
    let base = resnet_multiplex(&Strategy::TimeSharing, 1, images, opts.seed);
    for (procs, s) in [
        (1usize, Strategy::TimeSharing),
        (4, Strategy::TimeSharing),
        (4, Strategy::MpsEqual),
        (4, Strategy::MigEqual),
    ] {
        let r = resnet_multiplex(&s, procs, images, opts.seed);
        rows.push(vec![
            procs.to_string(),
            r.mode.clone(),
            f2(r.makespan_s),
            format!("{:.2}x", base.makespan_s / r.makespan_s),
            f3(r.mean_latency_s),
        ]);
    }
    emit(
        opts,
        &format!(
            "Extension: {images} ResNet-50 batch-1 inferences, multiplexed services \
             (sub-ms kernels make time-sharing thrash; spatial sharing scales)"
        ),
        &[
            "procs",
            "mode",
            "makespan (s)",
            "speedup",
            "mean latency (s)",
        ],
        rows,
    );

    // Text vs chat deployments (§3.2's use-case distinction).
    let rows = chat_vs_text(4, 60, opts.seed)
        .into_iter()
        .map(|(name, lat, thr)| vec![name, f3(lat), f3(thr)])
        .collect();
    emit(
        opts,
        "Extension: LLaMa2 text vs chat request profiles (4-way MPS)",
        &["profile", "mean latency (s)", "req/s"],
        rows,
    );

    // Strategy advisor (Table 1 as a decision procedure).
    let cases = [
        (
            "4 trusted LLaMa tenants",
            TenancyRequirements {
                tenants: 4,
                require_isolation: false,
                sms_needed: 20,
                footprint_bytes: 16 * GIB,
                resize_rate_hz: 0.0,
                homogeneous: true,
            },
        ),
        (
            "2 untrusted tenants, 30 GiB each",
            TenancyRequirements {
                tenants: 2,
                require_isolation: true,
                sms_needed: 20,
                footprint_bytes: 30 * GIB,
                resize_rate_hz: 0.0,
                homogeneous: true,
            },
        ),
        (
            "4 untrusted tenants, 16 GiB each",
            TenancyRequirements {
                tenants: 4,
                require_isolation: true,
                sms_needed: 20,
                footprint_bytes: 16 * GIB,
                resize_rate_hz: 0.0,
                homogeneous: true,
            },
        ),
        (
            "frequent resizes (autoscaling)",
            TenancyRequirements {
                tenants: 4,
                require_isolation: false,
                sms_needed: 20,
                footprint_bytes: 16 * GIB,
                resize_rate_hz: 0.2,
                homogeneous: true,
            },
        ),
    ];
    let spec = parfait_gpu::GpuSpec::a100_80gb();
    let rows = cases
        .iter()
        .map(|(label, req)| {
            let a = recommend_strategy(&spec, req);
            vec![
                label.to_string(),
                mode_label(&a.strategy),
                a.rationale.last().cloned().unwrap_or_default(),
            ]
        })
        .collect();
    emit(
        opts,
        "Extension: strategy advisor (Table 1 as a decision procedure)",
        &["tenancy", "advice", "final rationale"],
        rows,
    );

    // Dynamic batching: the other §3.4 lever, measured end to end.
    {
        use parfait_simcore::{streams, SimDuration, SimRng};
        use parfait_workloads::batching::{BatchPolicy, BatchingDriver, BatchingService};
        use std::cell::RefCell;
        use std::rc::Rc;
        let serve = |policy: BatchPolicy| -> (f64, f64) {
            let gpu_spec = parfait_gpu::GpuSpec::a100_80gb();
            let mut fleet = parfait_gpu::host::GpuFleet::new();
            fleet.add(gpu_spec.clone());
            let config = parfait_faas::Config::new(vec![parfait_faas::ExecutorConfig::gpu(
                "gpu",
                vec![parfait_faas::AcceleratorSpec::Gpu(0)],
            )]);
            let mut world = parfait_faas::FaasWorld::new(config, fleet, opts.seed);
            let svc = Rc::new(RefCell::new(BatchingService::new(
                models::resnet50(),
                gpu_spec,
                "gpu",
                policy,
            )));
            let log = svc.borrow().log_handle();
            world.set_driver(BatchingDriver {
                service: Rc::clone(&svc),
            });
            let mut eng = parfait_simcore::Engine::new();
            parfait_faas::boot(&mut world, &mut eng);
            let mut rng = SimRng::new(opts.seed).split(streams::BATCH_ARRIVALS);
            let tr = parfait_workloads::trace::poisson(&mut rng, 200.0, 400);
            for a in tr.arrivals {
                let svc2 = Rc::clone(&svc);
                // Offset past the cold start so steady state dominates.
                let at = a + SimDuration::from_secs(3);
                eng.schedule_at(at, move |w: &mut parfait_faas::FaasWorld, e| {
                    BatchingService::request(w, e, &svc2);
                });
            }
            eng.run(&mut world);
            let recs = log.borrow();
            let mean_wait = recs
                .iter()
                .map(|r| r.completed.duration_since(r.arrived).as_secs_f64())
                .sum::<f64>()
                / recs.len() as f64;
            let first = recs.iter().map(|r| r.arrived).min().expect("records");
            let last = recs.iter().map(|r| r.completed).max().expect("records");
            let thr = recs.len() as f64 / last.duration_since(first).as_secs_f64();
            (thr, mean_wait)
        };
        let (t_un, w_un) = serve(BatchPolicy::none());
        let (t_b, w_b) = serve(BatchPolicy {
            max_batch: 8,
            max_delay: SimDuration::from_millis(40),
        });
        emit(
            opts,
            "Extension: dynamic batching (ResNet-50, 400 Poisson requests @ 200 req/s)",
            &["policy", "achieved req/s", "mean wait (s)"],
            vec![
                vec!["unbatched".into(), format!("{t_un:.1}"), f3(w_un)],
                vec!["batch ≤8, ≤40 ms".into(), format!("{t_b:.1}"), f3(w_b)],
            ],
        );
    }

    // §3.4 pipelining: overlap next-round simulations with GPU phases.
    let seq = molecular_campaign_with(
        parfait_workloads::molecular::Selection::ActiveLearning,
        false,
        opts.seed,
    );
    let pipe = molecular_campaign_with(
        parfait_workloads::molecular::Selection::ActiveLearning,
        true,
        opts.seed,
    );
    emit(
        opts,
        "Extension: §3.4 pipelined molecular-design campaign",
        &["variant", "wall (s)", "gpu idle samples", "best IP"],
        vec![
            vec![
                "sequential".into(),
                f2(seq.wall_s),
                pct(seq.gpu_idle_fraction),
                f3(seq.best_ip),
            ],
            vec![
                "pipelined".into(),
                f2(pipe.wall_s),
                pct(pipe.gpu_idle_fraction),
                f3(pipe.best_ip),
            ],
            vec![
                "wall reduction".into(),
                pct(1.0 - pipe.wall_s / seq.wall_s),
                "".into(),
                "".into(),
            ],
        ],
    );

    // §3.4 batch-size saturation: "to saturate the GPU SMs ... training
    // of a deep neural network using large data batches is usually
    // needed". Analytic ResNet-50 throughput vs batch on a full A100.
    let spec = parfait_gpu::GpuSpec::a100_80gb();
    let m = models::resnet50();
    let rows = [1u32, 4, 16, 64, 256]
        .into_iter()
        .map(|batch| {
            let t = parfait_workloads::dnn::exec::solo_latency(&m, &spec, batch, spec.sms as f64);
            let t_half = parfait_workloads::dnn::exec::solo_latency(&m, &spec, batch, 54.0);
            vec![
                batch.to_string(),
                format!("{:.1}", batch as f64 / t),
                format!("{:.3}", t * 1000.0 / batch as f64),
                format!("{:.2}x", t_half / t),
            ]
        })
        .collect();
    emit(
        opts,
        "Extension: §3.4 batch-size saturation (ResNet-50, full A100 vs half)",
        &["batch", "images/s", "ms/image", "speedup of 108 vs 54 SMs"],
        rows,
    );

    // Open-loop Poisson serving: sustainable load per sharing mode.
    let mut rows = Vec::new();
    for rate in [0.15f64, 0.3, 0.45] {
        for (strategy, procs) in [(Strategy::TimeSharing, 1usize), (Strategy::MpsEqual, 4)] {
            let r = open_loop_serving(&strategy, procs, rate, 60, opts.seed);
            rows.push(vec![
                format!("{:.2}", r.offered_rate),
                format!("{} x{}", r.mode, procs),
                f3(r.achieved_rate),
                f2(r.mean_turnaround_s),
                f2(r.p95_turnaround_s),
            ]);
        }
    }
    emit(
        opts,
        "Extension: open-loop Poisson serving (60 requests; turnaround includes queueing)",
        &[
            "offered req/s",
            "platform",
            "achieved req/s",
            "mean turnaround (s)",
            "p95 (s)",
        ],
        rows,
    );

    // Multi-seed confidence. The warmed LLaMa phase is fully
    // deterministic (zero variance by construction); the molecular
    // campaign carries real stochasticity (lognormal simulation times,
    // sampled molecules), so sweep that.
    let seeds = sweep::seed_series(opts.seed, 6);
    let r = sweep::run_replicas(&seeds, 3, |s| {
        molecular_campaign(Selection::ActiveLearning, s).wall_s
    });
    emit(
        opts,
        "Extension: 6-seed replica sweep of the Fig-3 campaign wall time",
        &["metric", "value"],
        vec![
            vec!["mean wall (s)".into(), f2(r.stats.mean())],
            vec!["std dev (s)".into(), f2(r.stats.std_dev())],
            vec!["relative spread".into(), pct(r.relative_spread())],
        ],
    );
}

fn run_faults(opts: &Opts) {
    // Fault runs re-execute work; a smaller completion count than the
    // throughput figures keeps the artifact quick (override with
    // --completions).
    let completions = opts.completions.min(40);
    let report =
        parfait_bench::faults::run_and_write(std::path::Path::new("."), 4, completions, opts.seed)
            .expect("write BENCH_faults.json");
    let rows = report
        .modes
        .iter()
        .map(|m| {
            vec![
                m.mode.clone(),
                f2(m.clean_makespan_s),
                f2(m.faulted_makespan_s),
                format!("{:+.1}%", m.loss_pct),
                m.recovery.workers_lost.to_string(),
                m.reexecuted_tasks.to_string(),
                m.mttr_s.map(f2).unwrap_or_else(|| "-".into()),
                f3(m.goodput_per_s),
            ]
        })
        .collect();
    emit(
        opts,
        &format!(
            "Faults: identical injected schedule per mode, {completions} completions \
             (written to BENCH_faults.json)"
        ),
        &[
            "mode",
            "clean (s)",
            "faulted (s)",
            "loss",
            "workers lost",
            "re-executed",
            "MTTR (s)",
            "goodput/s",
        ],
        rows,
    );

    let corr_rows = report
        .correlated
        .iter()
        .map(|c| {
            vec![
                c.mode.clone(),
                c.checkpoint_interval_s
                    .map(|s| format!("{s}s"))
                    .unwrap_or_else(|| "off".into()),
                f2(c.clean_makespan_s),
                f2(c.faulted_makespan_s),
                f2(c.recovery.work_lost_s),
                c.recovery.workers_lost.to_string(),
                format!(
                    "{}/{}",
                    c.recovery.tasks_resumed,
                    c.reexecuted_tasks.saturating_sub(c.recovery.tasks_resumed)
                ),
                c.recovery.checkpoints_committed.to_string(),
                c.mttr_s.map(f2).unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    emit(
        opts,
        &format!(
            "Correlated outage: client fault at +{}s, whole-host reboot at +{}s, \
             8 long sessions over 2 GPUs on one host (sweep of checkpoint interval)",
            report.correlated_offsets_s[0], report.correlated_offsets_s[1]
        ),
        &[
            "mode",
            "ckpt",
            "clean (s)",
            "faulted (s)",
            "work lost (s)",
            "workers lost",
            "resumed/re-run",
            "commits",
            "MTTR (s)",
        ],
        corr_rows,
    );
}

fn run_overload(opts: &Opts) {
    let report = parfait_bench::overload::run_and_write(
        std::path::Path::new("."),
        opts.completions,
        opts.seed,
    )
    .expect("write BENCH_overload.json");
    let rows = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.mode.clone(),
                c.protection.clone(),
                format!("{:.1}x", c.load_x),
                f3(c.offered_per_s),
                f3(c.goodput_per_s),
                f2(c.p99_latency_s),
                format!("{}/{}", c.deadline_met, c.admitted),
                (c.overload.tasks_shed + c.overload.tasks_rejected).to_string(),
                c.queue_depth
                    .map(|p| format!("{:.0}/{:.0}", p.p50, p.p99))
                    .unwrap_or_else(|| "-".into()),
                c.time_in_queue_s
                    .map(|p| format!("{}/{}", f2(p.p50), f2(p.p99)))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    emit(
        opts,
        &format!(
            "Overload: offered-load sweep, {} requests/cell, deadline {}x service \
             (written to BENCH_overload.json)",
            report.requests, report.deadline_factor
        ),
        &[
            "mode",
            "protection",
            "load",
            "offered/s",
            "goodput/s",
            "p99 (s)",
            "met/admitted",
            "shed+rej",
            "qdepth p50/p99",
            "queue-time p50/p99 (s)",
        ],
        rows,
    );

    let straggler_rows = report
        .straggler
        .iter()
        .map(|s| {
            vec![
                s.mode.clone(),
                if s.hedged { "on" } else { "off" }.to_string(),
                f2(s.p50_latency_s),
                f2(s.p99_latency_s),
                s.completed.to_string(),
                format!(
                    "{}/{}/{}",
                    s.overload.hedges_launched, s.overload.hedges_won, s.overload.hedges_wasted
                ),
            ]
        })
        .collect();
    emit(
        opts,
        "Straggler hedging: one of two GPUs at 1/4 speed, 8 spaced probes",
        &[
            "mode",
            "hedging",
            "p50 (s)",
            "p99 (s)",
            "completed",
            "hedges launched/won/wasted",
        ],
        straggler_rows,
    );
}

fn run_lint(opts: &Opts) {
    let report = parfait_bench::lint::run_and_write(std::path::Path::new("."))
        .expect("write BENCH_lint.json");
    for d in &report.diagnostics {
        println!("{d}");
    }
    let rows = report
        .budgets
        .iter()
        .map(|b| {
            vec![
                b.crate_name.clone(),
                format!("{}/{}", b.panics, b.base_panics),
                format!("{}/{}", b.unwraps, b.base_unwraps),
                if b.over { "OVER" } else { "ok" }.to_string(),
            ]
        })
        .collect();
    emit(
        opts,
        &format!(
            "Lint: determinism audit, {} files, {} stream id(s), {} — written to BENCH_lint.json",
            report.files_scanned,
            report.streams.len(),
            if report.clean { "clean" } else { "FAILING" }
        ),
        &["crate", "panic!/budget", "unwrap/budget", "status"],
        rows,
    );
    if !report.clean {
        std::process::exit(1);
    }
}

fn run_substrate(opts: &Opts) {
    let report = parfait_bench::substrate::run_and_write(std::path::Path::new("."))
        .expect("write BENCH_substrate.json");
    let rows = report
        .cases
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.ops.to_string(),
                format!("{:.3}", c.wall_p50_s * 1e3),
                format!("{:.3}", c.wall_p95_s * 1e3),
                format!("{:.3e}", c.ops_per_sec),
            ]
        })
        .collect();
    emit(
        opts,
        "Substrate: simulator hot-path throughput (written to BENCH_substrate.json)",
        &["case", "ops", "wall p50 (ms)", "wall p95 (ms)", "ops/sec"],
        rows,
    );
    let cost_rows = report
        .cost
        .entries()
        .into_iter()
        .map(|(name, value)| vec![name.to_string(), value.to_string()])
        .collect();
    emit(
        opts,
        "Substrate cost proxy: deterministic op counts (ratcheted by cost-baseline.txt)",
        &["counter", "value"],
        cost_rows,
    );
    let outcome = parfait_bench::substrate::check_cost_ratchet(
        std::path::Path::new("."),
        &report.cost,
        opts.record_cost,
    )
    .expect("read/write cost-baseline.txt");
    for msg in &outcome.improvements {
        println!("note: {msg}");
    }
    if !outcome.regressions.is_empty() {
        for msg in &outcome.regressions {
            eprintln!("error: {msg}");
        }
        std::process::exit(1);
    }
    if opts.record_cost {
        println!("cost-baseline.txt re-recorded from current counters");
    }
}

fn run_fleet(opts: &Opts) {
    let report = parfait_bench::fleet::run_and_write(
        std::path::Path::new("."),
        opts.gpus,
        opts.tasks,
        opts.seed,
    )
    .expect("write BENCH_fleet.json");
    let row = |r: &parfait_bench::fleet::FleetRun| {
        vec![
            if r.optimized { "optimized" } else { "baseline" }.to_string(),
            r.sim.gpus.to_string(),
            r.sim.workers.to_string(),
            r.sim.tasks.to_string(),
            f2(r.sim.behavior.makespan_ns as f64 / 1e9),
            r.sim.behavior.peak_in_flight.to_string(),
            r.sim.behavior.events_fired.to_string(),
            format!("{}/{}", r.sim.domains_visited, r.sim.domains_skipped),
            f2(r.wall_s),
            format!("{:.3e}", r.events_per_sec),
            f2(r.peak_live_bytes as f64 / (1u64 << 20) as f64),
        ]
    };
    emit(
        opts,
        &format!(
            "Fleet: open-loop driver, {} GPUs x {} MIG workers (written to BENCH_fleet.json; \
             equivalence checked at {} tasks)",
            report.optimized.sim.gpus,
            parfait_bench::fleet::WORKERS_PER_GPU,
            report.equivalence_checked_tasks
        ),
        &[
            "run",
            "gpus",
            "workers",
            "tasks",
            "makespan (s)",
            "peak in-flight",
            "events",
            "domains visited/skipped",
            "wall (s)",
            "events/sec",
            "peak heap (MiB)",
        ],
        vec![row(&report.optimized), row(&report.baseline)],
    );
    println!(
        "events/sec speedup (optimized vs scans+full-recompute): {:.1}x",
        report.speedup_events_per_sec
    );
    println!();
}

fn run_autoscale(opts: &Opts) {
    // The autoscale scenario is a control-plane study, not a throughput
    // driver: its own defaults are a small fleet and a few thousand
    // requests (a couple of simulated demand days).
    let gpus = if opts.gpus_set { opts.gpus } else { 2 };
    let tasks = if opts.tasks_set { opts.tasks } else { 2_000 };
    let report =
        parfait_bench::autoscale::run_and_write(std::path::Path::new("."), gpus, tasks, opts.seed)
            .expect("write BENCH_autoscale.json");
    let rows = report
        .cells
        .iter()
        .map(|c| {
            vec![
                format!("{:?}", c.mode),
                f2(c.fail_prob),
                c.behavior.submitted.to_string(),
                c.behavior.slo_met.to_string(),
                pct(c.attainment),
                f2(c.behavior.makespan_ns as f64 / 1e9),
                f3(c.slo_per_gpu_second),
                format!(
                    "{}/{}/{}",
                    c.behavior.txns_committed, c.behavior.txns_failed, c.behavior.txns_aborted
                ),
                c.behavior.rollbacks.to_string(),
                c.behavior.drains_forced_kills.to_string(),
            ]
        })
        .collect();
    emit(
        opts,
        &format!(
            "Autoscale: closed-loop SLO control, {} GPUs x 2 tenants, SLO {} ms \
             (written to BENCH_autoscale.json; closed/static = {:.2}x, \
             fault attainment ratio = {:.3})",
            report.gpus, report.slo_ms, report.closed_over_static, report.fault_attainment_ratio
        ),
        &[
            "mode",
            "fail prob",
            "tasks",
            "SLO met",
            "attainment",
            "makespan (s)",
            "SLO met/GPU-s",
            "commit/fail/abort",
            "rollbacks",
            "forced kills",
        ],
        rows,
    );
}

fn run_gray(opts: &Opts) {
    let report = parfait_bench::gray::run_and_write(std::path::Path::new("."), opts.seed)
        .expect("write BENCH_gray.json");
    let fmt_opt = |v: Option<f64>| v.map(f2).unwrap_or_else(|| "-".into());
    let rows = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.mode.clone(),
                c.detection.clone(),
                format!("{}/{}/{}", c.completed, c.failed, c.unfinished),
                f3(c.goodput_per_s),
                pct(c.slo_attainment),
                fmt_opt(c.time_to_detect_zombie_s),
                fmt_opt(c.time_to_detect_failslow_s),
                c.false_positive_kills.to_string(),
                fmt_opt(c.goodput_recovered_fraction),
            ]
        })
        .collect();
    emit(
        opts,
        &format!(
            "Gray failures: zombie + fail-slow schedule, {} sessions, {} s horizon \
             (written to BENCH_gray.json)",
            report.sessions, report.horizon_s
        ),
        &[
            "mode",
            "detection",
            "done/fail/stuck",
            "goodput/s",
            "SLO",
            "ttd zombie (s)",
            "ttd fail-slow (s)",
            "FP kills",
            "recovered",
        ],
        rows,
    );
}

fn run_chaos(opts: &Opts) {
    let report =
        parfait_bench::chaos::run_and_write(std::path::Path::new("."), opts.seed, opts.seeds)
            .expect("write BENCH_chaos.json");
    let s = &report.search;
    let rows = s
        .attempted
        .iter()
        .map(|(kind, n)| {
            vec![
                kind.clone(),
                n.to_string(),
                s.applied.get(kind).copied().unwrap_or(0).to_string(),
            ]
        })
        .collect();
    emit(
        opts,
        &format!(
            "Chaos: {} randomized schedules, seed {} — {} violation(s), {} refusals, \
             {}/{} action kinds attempted, {:.0} schedules/s (written to BENCH_chaos.json)",
            s.cases,
            s.search_seed,
            s.violations.len(),
            s.refusals,
            s.kinds_attempted,
            s.kinds_total,
            report.schedules_per_sec
        ),
        &["action", "attempted", "applied"],
        rows,
    );
    let reg = &s.seeded_regression;
    emit(
        opts,
        "Chaos: seeded torn-checkpoint regression (catch -> shrink -> corpus)",
        &["caught", "case", "events", "shrunk to", "shrink attempts"],
        vec![vec![
            reg.caught.to_string(),
            reg.case_index.to_string(),
            reg.events.to_string(),
            reg.shrunk_events.to_string(),
            reg.shrink_attempts.to_string(),
        ]],
    );
    for v in &s.violations {
        eprintln!(
            "error: case {} (seed {}) violated {:?}; minimal repro ({} events):\n{}",
            v.case_index, v.case_seed, v.oracles, v.shrunk_events, v.corpus
        );
    }
    if !s.violations.is_empty() || !reg.caught {
        std::process::exit(1);
    }
}

/// One `repro` artifact: its name, whether `all` runs it, and its driver.
type Artifact = (&'static str, bool, fn(&Opts));

/// Every artifact, in the order `repro` runs them. Substrate timing, fault
/// replay and the other development artifacts are not paper figures, so
/// they run only on explicit request and `repro all` output stays stable.
const ARTIFACTS: &[Artifact] = &[
    ("table1", true, run_table1),
    ("fig1", true, run_fig1),
    ("fig2", true, run_fig2),
    ("fig3", true, run_fig3),
    ("fig4", true, run_fig4),
    ("fig5", true, run_fig5),
    ("overheads", true, run_overheads),
    ("ablation", true, run_ablation),
    ("extension", true, run_extension),
    ("substrate", false, run_substrate),
    ("faults", false, run_faults),
    ("overload", false, run_overload),
    ("lint", false, run_lint),
    ("fleet", false, run_fleet),
    ("autoscale", false, run_autoscale),
    ("gray", false, run_gray),
    ("chaos", false, run_chaos),
];

/// The numeric value `args[i]` of `flag`; a missing or malformed value
/// exits with status 2, like an unknown artifact name.
fn number_arg<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("repro: {flag} expects a number");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut opts = Opts {
        csv: false,
        completions: 100,
        seed: SEED,
        gpus: 1000,
        tasks: 1_000_000,
        gpus_set: false,
        tasks_set: false,
        record_cost: false,
        seeds: 60,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => opts.csv = true,
            "--completions" => {
                i += 1;
                opts.completions = number_arg(&args, i, "--completions");
            }
            "--seed" => {
                i += 1;
                opts.seed = number_arg(&args, i, "--seed");
            }
            "--gpus" => {
                i += 1;
                opts.gpus = number_arg(&args, i, "--gpus");
                opts.gpus_set = true;
            }
            "--tasks" => {
                i += 1;
                opts.tasks = number_arg(&args, i, "--tasks");
                opts.tasks_set = true;
            }
            "--record-cost" => opts.record_cost = true,
            "--seeds" => {
                i += 1;
                opts.seeds = number_arg(&args, i, "--seeds");
            }
            other => which.push(other.to_string()),
        }
        i += 1;
    }
    let known: Vec<&str> = std::iter::once("all")
        .chain(ARTIFACTS.iter().map(|a| a.0))
        .collect();
    if let Some(bad) = which.iter().find(|w| !known.contains(&w.as_str())) {
        eprintln!(
            "repro: unknown artifact `{bad}` (known: {})",
            known.join(", ")
        );
        std::process::exit(2);
    }
    let all = which.is_empty() || which.iter().any(|w| w == "all");
    for &(name, in_all, run) in ARTIFACTS {
        if (all && in_all) || which.iter().any(|w| w == name) {
            run(&opts);
        }
    }
}
