//! Cold-start cost model (§6 of the paper).
//!
//! The paper decomposes GPU serverless cold start into three parts:
//!
//! 1. **function initialization** — download/decompress the code package,
//!    start the interpreter, import frameworks;
//! 2. **GPU context initialization** — `cuInit` + primary context creation
//!    (driver allocates pinned staging buffers, JIT caches);
//! 3. **application loading** — e.g. copying model weights into HBM. The
//!    paper measures "up to 10 seconds" for LLaMa2-13B and "10–20 seconds
//!    of setup" before an LLM is ready after an MPS resize.
//!
//! [`sample`], [`mean`] and [`mean_with_cache_hit`] turn those into
//! durations; the FaaS worker and the reconfiguration engine both consume
//! them. The §7 *weight cache* future work shortens step 3 to
//! [`CACHED_ATTACH_S`] on a hit.

use crate::spec::GpuSpec;
use parfait_simcore::{SimDuration, SimRng};
use serde::Serialize;

/// Mean function-initialization time in seconds: Python + torch import
/// on the paper's testbed class machine.
const FUNCTION_INIT_MEAN_S: f64 = 1.8;
/// Lognormal sigma for function init (heavy tail: cold package cache).
const FUNCTION_INIT_SIGMA: f64 = 0.25;
/// Fixed CUDA context initialization time in seconds: `cuInit` + primary
/// context on an A100 with MPS.
const GPU_CONTEXT_INIT_S: f64 = 0.45;
/// Seconds to re-bind to weights already resident in GPU memory (§7
/// weight cache hit): pointer fix-up, no copy.
pub const CACHED_ATTACH_S: f64 = 0.20;

/// One sampled cold start, decomposed as in §6.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ColdStartBreakdown {
    /// Part (1): function initialization.
    pub function_init: SimDuration,
    /// Part (2): GPU context initialization (zero for CPU-only functions).
    pub gpu_context_init: SimDuration,
    /// Part (3): application loading (model weights → HBM).
    pub app_load: SimDuration,
}

impl ColdStartBreakdown {
    /// End-to-end cold-start duration.
    pub fn total(&self) -> SimDuration {
        self.function_init + self.gpu_context_init + self.app_load
    }
}

/// Sample a worker process's cold start: parts (1) and (2), the latter
/// only for a `gpu` worker. Weights load later, with the first task that
/// needs them, so part (3) is zero.
pub fn sample(rng: &mut SimRng, gpu: bool) -> ColdStartBreakdown {
    // Lognormal with the configured mean: mu = ln(mean) - sigma²/2.
    let mu = FUNCTION_INIT_MEAN_S.ln() - FUNCTION_INIT_SIGMA.powi(2) / 2.0;
    let fi = rng.lognormal(mu, FUNCTION_INIT_SIGMA);
    let ctx = if gpu { GPU_CONTEXT_INIT_S } else { 0.0 };
    ColdStartBreakdown {
        function_init: SimDuration::from_secs_f64(fi),
        gpu_context_init: SimDuration::from_secs_f64(ctx),
        app_load: SimDuration::ZERO,
    }
}

/// Deterministic (mean) cold start of a GPU function that loads
/// `model_bytes` of weights onto `spec` — used by analytical estimates
/// that must not consume randomness.
pub fn mean(spec: &GpuSpec, model_bytes: u64) -> ColdStartBreakdown {
    ColdStartBreakdown {
        function_init: SimDuration::from_secs_f64(FUNCTION_INIT_MEAN_S),
        gpu_context_init: SimDuration::from_secs_f64(GPU_CONTEXT_INIT_S),
        app_load: SimDuration::from_secs_f64(spec.model_load_seconds(model_bytes)),
    }
}

/// Restart with a §7 weight-cache hit: process restarts (function init
/// + context init) but attaches to cached weights instead of reloading.
pub fn mean_with_cache_hit() -> ColdStartBreakdown {
    ColdStartBreakdown {
        function_init: SimDuration::from_secs_f64(FUNCTION_INIT_MEAN_S),
        gpu_context_init: SimDuration::from_secs_f64(GPU_CONTEXT_INIT_S),
        app_load: SimDuration::from_secs_f64(CACHED_ATTACH_S),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama13b_restart_in_paper_band() {
        // §6: MPS resize of an LLM ⇒ "10-20 seconds of setup time".
        let spec = GpuSpec::a100_80gb();
        let fp16_13b = 13_000_000_000u64 * 2;
        let total = mean(&spec, fp16_13b).total().as_secs_f64();
        assert!((10.0..=20.0).contains(&total), "restart {total}s");
    }

    #[test]
    fn cpu_function_skips_gpu_parts() {
        let b = sample(&mut SimRng::new(4), false);
        assert!(b.gpu_context_init.is_zero());
        assert!(b.app_load.is_zero());
        assert!(!b.function_init.is_zero());
    }

    #[test]
    fn cache_hit_eliminates_weight_copy() {
        let spec = GpuSpec::a100_80gb();
        let fp16_7b = 7_000_000_000u64 * 2;
        let miss = mean(&spec, fp16_7b).total().as_secs_f64();
        let hit = mean_with_cache_hit().total().as_secs_f64();
        assert!(
            miss - hit > 4.0,
            "cache should save the ~5.6 s load: miss={miss} hit={hit}"
        );
    }

    #[test]
    fn sampled_function_init_mean_converges() {
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| sample(&mut rng, false).function_init.as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - FUNCTION_INIT_MEAN_S).abs() < 0.05, "mean {mean}");
    }
}
