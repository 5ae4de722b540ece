//! Quickstart: the Listing-1 platform running a few GPU functions.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's baseline configuration — 16 CPU workers plus one
//! whole-GPU worker on an A100 — submits a mix of CPU tasks and ResNet-50
//! inferences, and prints the task table and GPU utilization.

use parfait::faas::app::bodies::{CpuBurn, KernelSeq};
use parfait::faas::{boot, submit, AppCall, Config, FaasWorld};
use parfait::gpu::host::GpuFleet;
use parfait::gpu::{nvml, GpuId, GpuSpec};
use parfait::simcore::{Engine, SimDuration};
use parfait::workloads::dnn::{exec, models};

fn main() {
    // 1. Hardware: one A100-40GB, as in the paper's testbed.
    let mut fleet = GpuFleet::new();
    let gpu_spec = GpuSpec::a100_40gb();
    fleet.add(gpu_spec.clone());

    // 2. Platform: the paper's Listing-1 `hsc()` configuration.
    let config = Config::hsc();
    let mut world = FaasWorld::new(config, fleet, 42);
    let mut eng = Engine::new();
    boot(&mut world, &mut eng);

    // 3. Apps: a small quantum-chemistry-style CPU task and a ResNet-50
    //    inference lowered onto the simulated GPU.
    for i in 0..8 {
        submit(
            &mut world,
            &mut eng,
            AppCall::new("preprocess", "cpu", move |rng| {
                let secs = rng.range_f64(1.0, 3.0);
                Box::new(CpuBurn::new(SimDuration::from_secs_f64(secs)))
            }),
        );
        let _ = i;
    }
    let model = models::resnet50();
    let kernels = exec::inference_kernels(&model, &gpu_spec, 8);
    for _ in 0..6 {
        let kernels = kernels.clone();
        submit(
            &mut world,
            &mut eng,
            AppCall::new("resnet50-infer", "gpu", move |_| {
                Box::new(KernelSeq::new(kernels.clone(), exec::layer_host_overhead()))
            }),
        );
    }

    // 4. Run the virtual platform to completion.
    eng.run(&mut world);

    // 5. Report.
    println!(
        "tasks settled: {} done, {} failed",
        world.dfk.done_count(),
        world.dfk.failed_count()
    );
    for row in parfait::faas::monitoring::task_rows(&world.dfk) {
        println!(
            "  task {:>2}  {:<16} {:<6} turnaround {:>7}  exec {:>7}",
            row.id,
            row.app,
            row.state,
            row.turnaround_s
                .map(|t| format!("{t:.2}s"))
                .unwrap_or_else(|| "-".into()),
            row.exec_s
                .map(|t| format!("{t:.2}s"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    let now = eng.now();
    let info = nvml::device_info(&mut world.fleet, GpuId(0), now);
    println!(
        "\nGPU {} ({}): {} contexts, avg utilization {:.1}%",
        info.index,
        info.name,
        info.contexts,
        nvml::average_utilization(&mut world.fleet, GpuId(0), now) * 100.0
    );
    println!("virtual wall time: {}", eng.now());
}
