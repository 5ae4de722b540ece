//! The §3.1 molecular-design campaign: active learning over a synthetic
//! chemistry oracle on the Listing-1 platform, with the Fig. 3 phase
//! timeline rendered as ASCII.
//!
//! ```text
//! cargo run --release --example molecular_design
//! ```

use parfait::core::metrics;
use parfait::faas::{run, AcceleratorSpec, Config, ExecutorConfig, FaasWorld};
use parfait::gpu::host::GpuFleet;
use parfait::gpu::GpuSpec;
use parfait::simcore::{Engine, SimTime};
use parfait::workloads::molecular::Selection;
use parfait::workloads::{Campaign, CampaignConfig};

fn campaign(selection: Selection) -> (f64, Vec<f64>, String, f64) {
    let mut fleet = GpuFleet::new();
    fleet.add(GpuSpec::a100_40gb());
    let config = Config::new(vec![
        ExecutorConfig::cpu("cpu", 16),
        ExecutorConfig::gpu("gpu", vec![AcceleratorSpec::Gpu(0)]),
    ]);
    let mut world = FaasWorld::new(config, fleet, 11);
    let c = Campaign::new(
        CampaignConfig {
            selection,
            ..CampaignConfig::default()
        },
        11,
    );
    let history = c.history_handle();
    world.set_driver(c);
    let mut eng = Engine::new();
    run(&mut world, &mut eng);
    let wall = eng.now();
    let best: Vec<f64> = history.borrow().iter().map(|r| r.best_ip).collect();
    let timeline = metrics::timeline(&world);
    let gpu_busy = timeline
        .union_busy("training", SimTime::ZERO, wall)
        .as_secs_f64()
        + timeline
            .union_busy("inference", SimTime::ZERO, wall)
            .as_secs_f64();
    (
        wall.as_secs_f64(),
        best,
        timeline.render_ascii(96),
        gpu_busy,
    )
}

fn main() {
    println!("Molecular-design campaign (Colmena-style active learning)\n");
    let (wall, best, ascii, gpu_busy) = campaign(Selection::ActiveLearning);
    println!("active learning: wall {wall:.0}s, GPU busy {gpu_busy:.1}s");
    println!("best ionization potential by round: {best:?}\n");
    println!("{ascii}");
    println!("note the white (·) gaps on the GPU tracks while CPU simulations run —");
    println!("the idle time the paper's Fig. 3 highlights as the multiplexing opportunity.\n");

    let (_, best_rand, _, _) = campaign(Selection::Random);
    println!("random-selection baseline best IP by round: {best_rand:?}");
    let al = best.last().copied().unwrap_or(0.0);
    let rd = best_rand.last().copied().unwrap_or(0.0);
    println!("active learning finds IP {al:.3} vs random {rd:.3} (higher is better)");
}
