//! Kernel descriptions and the wave-based execution-time model.
//!
//! A GPU kernel is dispatched as a grid of *thread blocks*; the hardware
//! places blocks on SMs in **waves**. With `B` blocks on `s` usable SMs the
//! kernel takes `ceil(B / s)` waves, so the *effective* parallelism is
//! `B / ceil(B / s)` SMs — a staircase in `s` that is exactly the phenomenon
//! behind the paper's Fig. 2: LLaMa2's small decode grids stop benefiting
//! beyond ~20 SMs, which is why the model multiplexes so well.
//!
//! On top of the wave model, each kernel declares a `mem_intensity`: the
//! fraction of device HBM bandwidth it consumes when running at full
//! effective parallelism. Sharing domains (whole device under MPS, a slice
//! under MIG) scale kernels down proportionally when aggregate demand
//! exceeds available bandwidth — this is the "no isolation"/contention
//! column of Table 1 made quantitative.

use serde::Serialize;

/// Immutable description of one kernel launch.
///
/// ```
/// use parfait_gpu::KernelDesc;
///
/// // A decode-style kernel: 2 SM-seconds of work, 20-block grid.
/// let k = KernelDesc::new("decode", 2.0, 20, 20, 0.3);
/// assert_eq!(k.effective_sms(108.0), 20.0); // can't use more than its grid
/// assert_eq!(k.effective_sms(14.0), 10.0);  // 2 waves of ≤14 blocks
/// assert_eq!(k.solo_runtime(20.0), 0.1);    // 2 SM·s / 20 SMs
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KernelDesc {
    /// Human-readable kernel name (e.g. `"llama2.decode"`).
    pub name: &'static str,
    /// Total work in SM-seconds at full efficiency: the kernel finishes
    /// after accumulating this much `effective-SMs × seconds`.
    pub work_sm_s: f64,
    /// Thread blocks in the launch grid.
    pub blocks: u32,
    /// Cap on useful concurrency (occupancy limits, serial fractions,
    /// launch overheads). Effective SMs never exceed
    /// `min(blocks, max_useful_sms)`.
    pub max_useful_sms: u32,
    /// Fraction of the device's HBM bandwidth consumed at full effective
    /// parallelism, in `[0, 1]`.
    pub mem_intensity: f64,
}

impl KernelDesc {
    /// Construct, validating ranges.
    pub fn new(
        name: &'static str,
        work_sm_s: f64,
        blocks: u32,
        max_useful_sms: u32,
        mem_intensity: f64,
    ) -> Self {
        assert!(
            work_sm_s >= 0.0 && work_sm_s.is_finite(),
            "bad work {work_sm_s}"
        );
        assert!(blocks >= 1, "kernel must have at least one block");
        assert!(max_useful_sms >= 1, "max_useful_sms must be >= 1");
        assert!(
            (0.0..=1.0).contains(&mem_intensity),
            "mem_intensity {mem_intensity} outside [0,1]"
        );
        KernelDesc {
            name,
            work_sm_s,
            blocks,
            max_useful_sms,
            mem_intensity,
        }
    }

    /// Highest parallelism the kernel can exploit, in SMs.
    #[inline]
    pub fn peak_parallelism(&self) -> u32 {
        self.blocks.min(self.max_useful_sms)
    }

    /// Effective SMs achieved when `alloc` SMs are made available.
    ///
    /// Wave quantization: usable SMs are `floor(min(alloc, peak))`; the
    /// launch needs `ceil(blocks / usable)` waves, so the average rate is
    /// `blocks / waves`. Sub-1 allocations degrade linearly (a kernel
    /// time-sliced onto a fraction of an SM).
    pub fn effective_sms(&self, alloc: f64) -> f64 {
        let peak = self.peak_parallelism() as f64;
        let a = alloc.min(peak);
        if a <= 0.0 {
            return 0.0;
        }
        if a < 1.0 {
            return a;
        }
        let usable = a.floor();
        let waves = (self.blocks as f64 / usable).ceil();
        self.blocks as f64 / waves
    }

    /// Run time in seconds on a dedicated allocation of `alloc` SMs
    /// (no bandwidth contention).
    pub fn solo_runtime(&self, alloc: f64) -> f64 {
        let eff = self.effective_sms(alloc);
        if eff <= 0.0 {
            f64::INFINITY
        } else {
            self.work_sm_s / eff
        }
    }

    /// HBM bandwidth demand (fraction of device bandwidth) when running at
    /// `eff` effective SMs.
    pub fn bandwidth_demand(&self, eff: f64) -> f64 {
        let peak = self.peak_parallelism() as f64;
        if peak <= 0.0 {
            0.0
        } else {
            self.mem_intensity * (eff / peak).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(blocks: u32, max_useful: u32) -> KernelDesc {
        KernelDesc::new("t", 1.0, blocks, max_useful, 0.0)
    }

    #[test]
    fn effective_sms_staircase() {
        let d = k(20, 108);
        assert_eq!(d.effective_sms(108.0), 20.0); // one wave
        assert_eq!(d.effective_sms(20.0), 20.0); // exactly one wave
        assert_eq!(d.effective_sms(19.0), 10.0); // 2 waves of ≤19
        assert_eq!(d.effective_sms(14.0), 10.0); // ceil(20/14)=2
        assert_eq!(d.effective_sms(10.0), 10.0); // 2 waves exactly
        assert_eq!(d.effective_sms(9.0), 20.0 / 3.0); // 3 waves
        assert_eq!(d.effective_sms(5.0), 5.0); // 4 waves
    }

    #[test]
    fn max_useful_caps_alloc() {
        let d = k(200, 20);
        assert_eq!(d.effective_sms(108.0), 20.0);
        assert_eq!(d.effective_sms(50.0), 20.0);
    }

    #[test]
    fn fractional_allocation_degrades_linearly() {
        let d = k(20, 108);
        assert!((d.effective_sms(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(d.effective_sms(0.0), 0.0);
    }

    #[test]
    fn solo_runtime_inverse_in_eff() {
        let d = KernelDesc::new("t", 10.0, 20, 108, 0.0);
        assert!((d.solo_runtime(20.0) - 0.5).abs() < 1e-12);
        assert!((d.solo_runtime(10.0) - 1.0).abs() < 1e-12);
        assert_eq!(d.solo_runtime(0.0), f64::INFINITY);
    }

    #[test]
    fn monotone_nondecreasing_in_alloc() {
        let d = k(37, 64);
        let mut prev = 0.0;
        for s in 1..=128 {
            let e = d.effective_sms(s as f64);
            assert!(
                e + 1e-12 >= prev,
                "effective SMs decreased at alloc={s}: {prev} -> {e}"
            );
            prev = e;
        }
    }

    #[test]
    fn bandwidth_scales_with_eff() {
        let d = KernelDesc::new("t", 1.0, 20, 20, 0.4);
        assert!((d.bandwidth_demand(20.0) - 0.4).abs() < 1e-12);
        assert!((d.bandwidth_demand(10.0) - 0.2).abs() < 1e-12);
        assert_eq!(d.bandwidth_demand(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = KernelDesc::new("bad", 1.0, 0, 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn bad_intensity_rejected() {
        let _ = KernelDesc::new("bad", 1.0, 1, 1, 1.5);
    }
}
