//! Policy layer over the GPU-resident weight cache (§7 future work).
//!
//! The mechanism lives in `parfait-faas::cache` (lookup + device-pinned
//! accounting, consulted by the worker's model-load path). This module
//! adds what an operator would script around it: enabling the apparatus,
//! reporting, and eviction to reclaim pinned memory under pressure.

use parfait_faas::FaasWorld;
use parfait_gpu::host::resync;
use parfait_gpu::GpuId;
use parfait_simcore::Engine;
use serde::Serialize;

/// Turn the cache on for a platform (stock Parsl behaviour = off).
pub fn enable(world: &mut FaasWorld) {
    world.weight_cache.set_enabled(true);
}

/// Cache effectiveness report.
#[derive(Debug, Clone, Serialize)]
pub struct CacheReport {
    /// Re-binds served from resident weights.
    pub hits: u64,
    /// Cold loads that populated the cache.
    pub misses: u64,
    /// Hit rate over all lookups.
    pub hit_rate: f64,
    /// Entries resident.
    pub entries: usize,
    /// Bytes pinned per GPU index.
    pub pinned_bytes: Vec<(u32, u64)>,
}

/// Snapshot cache effectiveness.
pub fn report(world: &FaasWorld) -> CacheReport {
    let gpus = world.fleet.len() as u32;
    CacheReport {
        hits: world.weight_cache.hits,
        misses: world.weight_cache.misses,
        hit_rate: world.weight_cache.hit_rate(),
        entries: world.weight_cache.len(),
        pinned_bytes: (0..gpus)
            .map(|g| (g, world.weight_cache.bytes_on(g)))
            .filter(|(_, b)| *b > 0)
            .collect(),
    }
}

/// Evict one model's weights from one GPU, releasing the pinned memory,
/// and resync the device. Returns the bytes released (0 if absent).
pub fn evict(world: &mut FaasWorld, eng: &mut Engine<FaasWorld>, gpu: u32, model: u64) -> u64 {
    match world.weight_cache.remove(gpu, model) {
        Some(bytes) => {
            let id = GpuId(gpu);
            let dev = world.fleet.device_mut(id);
            // Integrate to `now` first, so the resync predicts from the
            // work actually left.
            dev.advance(eng.now());
            dev.cache_free(eng.now(), bytes)
                .expect("cache accounting consistent");
            resync(world, eng, id);
            bytes
        }
        None => 0,
    }
}
