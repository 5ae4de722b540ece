//! MIG lifecycle walkthrough (§4.2 + §6): create instances, bind workers
//! by UUID (Listing 3), then live-reconfigure — showing both the MPS
//! restart path and the MIG reset path with their measured costs, and the
//! §7 weight cache shortening the restart.
//!
//! ```text
//! cargo run --release --example mig_partitioning
//! ```

use parfait::core::{apply_plan, plan, reconfigure_mig_equal, resize_mps, weightcache, Strategy};
use parfait::faas::{boot, submit, AppCall, Config, ExecutorConfig, FaasWorld, TaskState};
use parfait::gpu::host::GpuFleet;
use parfait::gpu::{nvml, GpuSpec};
use parfait::simcore::Engine;
use parfait::workloads::{CompletionBody, LlmSpec};

fn chat(llm: &LlmSpec, gpu: &GpuSpec, app: &str) -> AppCall {
    let llm = llm.clone();
    let gpu = gpu.clone();
    AppCall::new(app, "gpu", move |_| {
        Box::new(CompletionBody::paper_request(llm.clone(), gpu.clone()))
    })
}

fn first_completion_after(world: &FaasWorld, app: &str) -> Option<f64> {
    world
        .dfk
        .tasks()
        .iter()
        .filter(|t| *t.app == *app && t.state == TaskState::Done)
        .filter_map(|t| t.finished)
        .min()
        .map(|t| t.as_secs_f64())
}

fn main() {
    let gpu_spec = GpuSpec::a100_80gb();
    let llm = LlmSpec::llama2_7b(2);

    // --- Part 1: Listing-3 style MIG setup -------------------------------
    let mut fleet = GpuFleet::new();
    let g = fleet.add(gpu_spec.clone());
    let p = plan(&gpu_spec, 0, 2, &Strategy::MigEqual).expect("plan");
    let specs = apply_plan(&mut fleet, &p).expect("apply");
    println!("MIG instances on GPU 0:");
    for inst in nvml::list_mig_instances(&fleet, g) {
        println!(
            "  {}  profile {}  {} SMs  {:.0} GiB",
            inst.uuid,
            inst.profile,
            inst.sms,
            inst.memory_bytes as f64 / (1 << 30) as f64
        );
    }
    let config = Config::new(vec![ExecutorConfig::gpu("gpu", specs)]);
    let mut world = FaasWorld::new(config, fleet, 3);
    let mut eng = Engine::new();
    boot(&mut world, &mut eng);
    for _ in 0..2 {
        submit(&mut world, &mut eng, chat(&llm, &gpu_spec, "warm"));
    }
    eng.run(&mut world);
    println!(
        "warmed 2 workers on 3g.40gb instances; CUDA_VISIBLE_DEVICES of worker 0 = {:?}",
        world.workers[0].env.get("CUDA_VISIBLE_DEVICES")
    );

    // --- Part 2: MIG reconfiguration (2×3g → 4... here 2→ new shape) -----
    // Reconfigure the same two workers onto 2g instances (freeing slices
    // for more tenants). Requires killing all residents + GPU reset.
    let t0 = eng.now();
    reconfigure_mig_equal(&mut world, &mut eng, 0, 2).expect("mig reconfig");
    submit(&mut world, &mut eng, chat(&llm, &gpu_spec, "post-mig"));
    eng.run(&mut world);
    let t1 = first_completion_after(&world, "post-mig").expect("completed");
    println!(
        "\nMIG reconfigure → first completion: {:.2}s (includes 1.5s GPU reset + \
         full worker restart + model reload)",
        t1 - t0.as_secs_f64()
    );

    // --- Part 3: MPS resize, stock vs weight cache -----------------------
    for cache in [false, true] {
        let mut fleet = GpuFleet::new();
        fleet.add(gpu_spec.clone());
        let p = plan(&gpu_spec, 0, 2, &Strategy::MpsEqual).expect("plan");
        let specs = apply_plan(&mut fleet, &p).expect("apply");
        let config = Config::new(vec![ExecutorConfig::gpu("gpu", specs)]);
        let mut world = FaasWorld::new(config, fleet, 3);
        if cache {
            weightcache::enable(&mut world);
        }
        let mut eng = Engine::new();
        boot(&mut world, &mut eng);
        for _ in 0..2 {
            submit(&mut world, &mut eng, chat(&llm, &gpu_spec, "warm"));
        }
        eng.run(&mut world);
        let t0 = eng.now();
        resize_mps(&mut world, &mut eng, 0, &[75, 25]).expect("resize");
        submit(&mut world, &mut eng, chat(&llm, &gpu_spec, "post-mps"));
        eng.run(&mut world);
        let t1 = first_completion_after(&world, "post-mps").expect("completed");
        println!(
            "MPS resize (50/50 → 75/25){} → first completion: {:.2}s",
            if cache { " + §7 weight cache" } else { "" },
            t1 - t0.as_secs_f64()
        );
        if cache {
            let r = weightcache::report(&world);
            println!(
                "  cache: {} hits / {} misses ({:.0}% hit rate), {} entr{} resident",
                r.hits,
                r.misses,
                r.hit_rate * 100.0,
                r.entries,
                if r.entries == 1 { "y" } else { "ies" }
            );
        }
    }
}
