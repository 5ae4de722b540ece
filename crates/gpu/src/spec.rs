//! Hardware specifications for the simulated accelerators.
//!
//! Numbers are taken from vendor datasheets (and quoted in the paper §3.4):
//! the A100 has 108 SMs and 19.5 TF32 teraflops; the AMD MI210 has 104 CUs
//! and 22.6 fp32 teraflops. The *absolute* throughput constants matter less
//! than the ratios — every experiment in the paper is a comparison across
//! sharing modes on the same part.

use serde::Serialize;

/// Gibibytes → bytes.
pub const GIB: u64 = 1 << 30;

/// Vendor of a device (controls which sharing mechanisms exist — Table 1's
/// "AMD equivalent" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Vendor {
    /// NVIDIA: time-sharing, CUDA MPS (default + percentage), MIG, vGPU.
    Nvidia,
    /// AMD: ROCm default concurrent scheduling, CU masking, MxGPU.
    Amd,
}

/// Static description of one accelerator model.
#[derive(Debug, Clone, Serialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"A100-SXM4-40GB"`.
    pub name: &'static str,
    /// Device vendor.
    pub vendor: Vendor,
    /// Streaming multiprocessors (NVIDIA) or compute units (AMD).
    pub sms: u32,
    /// HBM capacity in bytes.
    pub memory_bytes: u64,
    /// HBM bandwidth in GB/s (used only for documentation/ratios; kernel
    /// interference is expressed through `mem_intensity` fractions).
    pub hbm_gbps: f64,
    /// Peak fp32 teraflops — converts workload FLOPs to SM-seconds.
    pub fp32_tflops: f64,
    /// Whether the part supports MIG (Ampere data-center class and newer).
    pub mig_capable: bool,
    /// SMs exposed by one MIG compute slice (a `1g` profile). MIG reserves
    /// some SMs, so this is less than `sms / 7`: 14 on A100 (98 of 108 SMs
    /// usable), 16 on H100. Zero when not MIG-capable.
    pub mig_slice_sms: u32,
    /// Effective host→device model-load bandwidth in GB/s. Deliberately far
    /// below PCIe peak: checkpoint deserialization and allocator traffic
    /// dominate. Calibrated so a fp16 LLaMa2-13B load ≈ 10 s (§6).
    pub load_gbps: f64,
    /// Rate multiplier applied to a context whose footprint exceeds its
    /// visible memory when UVM oversubscription is enabled.
    pub uvm_penalty: f64,
}

impl GpuSpec {
    /// NVIDIA A100 SXM4 40 GB — the paper's Fig. 2 testbed GPU (§5.1).
    pub fn a100_40gb() -> Self {
        GpuSpec {
            name: "A100-SXM4-40GB",
            vendor: Vendor::Nvidia,
            sms: 108,
            memory_bytes: 40 * GIB,
            hbm_gbps: 1555.0,
            fp32_tflops: 19.5,
            mig_capable: true,
            mig_slice_sms: 14,
            load_gbps: 2.5,
            uvm_penalty: 0.90,
        }
    }

    /// NVIDIA A100 80 GB — the §5.2 multiplexing testbed GPU.
    pub fn a100_80gb() -> Self {
        GpuSpec {
            name: "A100-SXM4-80GB",
            vendor: Vendor::Nvidia,
            sms: 108,
            memory_bytes: 80 * GIB,
            hbm_gbps: 2039.0,
            fp32_tflops: 19.5,
            mig_capable: true,
            mig_slice_sms: 14,
            load_gbps: 2.5,
            uvm_penalty: 0.90,
        }
    }

    /// AMD MI210 64 GB (§3.4's comparison part). Not MIG-capable; supports
    /// CU masking, the MPS-percentage analog of Table 1.
    pub fn mi210() -> Self {
        GpuSpec {
            name: "MI210",
            vendor: Vendor::Amd,
            sms: 104,
            memory_bytes: 64 * GIB,
            hbm_gbps: 1638.0,
            fp32_tflops: 22.6,
            mig_capable: false,
            mig_slice_sms: 0,
            load_gbps: 2.5,
            uvm_penalty: 0.90,
        }
    }

    /// Seconds of one SM's work represented by `flops` floating-point
    /// operations at peak throughput.
    pub fn flops_to_sm_seconds(&self, flops: f64) -> f64 {
        let per_sm = self.fp32_tflops * 1e12 / self.sms as f64;
        flops / per_sm
    }

    /// Time to move `bytes` of model weights host→device (cold load).
    pub fn model_load_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.load_gbps * 1e9)
    }

    /// Time to write a `bytes` checkpoint snapshot device→host. The link
    /// is symmetric at the effective rate `load_gbps` already models
    /// (serialization and allocator traffic dominate raw PCIe bandwidth
    /// in both directions).
    pub fn checkpoint_write_seconds(&self, bytes: u64) -> f64 {
        self.model_load_seconds(bytes)
    }

    /// Time to restore (deserialize + upload) a `bytes` checkpoint
    /// host→device when a retried attempt resumes from a snapshot.
    pub fn checkpoint_restore_seconds(&self, bytes: u64) -> f64 {
        self.model_load_seconds(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_transfer_priced_like_model_load() {
        let s = GpuSpec::a100_80gb();
        let bytes = 4 * GIB;
        let w = s.checkpoint_write_seconds(bytes);
        let r = s.checkpoint_restore_seconds(bytes);
        assert!((w - s.model_load_seconds(bytes)).abs() < 1e-12);
        assert!((r - w).abs() < 1e-12, "link is symmetric");
        // 4 GiB at 2.5 GB/s effective ≈ 1.7 s — checkpoints are not free.
        assert!(w > 1.0 && w < 3.0, "got {w}");
    }

    #[test]
    fn a100_matches_paper_quotes() {
        let s = GpuSpec::a100_40gb();
        assert_eq!(s.sms, 108);
        assert_eq!(s.memory_bytes, 40 * GIB);
        assert!((s.fp32_tflops - 19.5).abs() < 1e-9);
        assert!(s.mig_capable);
    }

    #[test]
    fn mi210_matches_paper_quotes() {
        let s = GpuSpec::mi210();
        assert_eq!(s.sms, 104);
        assert!((s.fp32_tflops - 22.6).abs() < 1e-9);
        assert!(!s.mig_capable);
    }

    #[test]
    fn flops_conversion_roundtrip() {
        let s = GpuSpec::a100_40gb();
        // All 108 SMs for one second = 19.5e12 FLOPs.
        let sm_s = s.flops_to_sm_seconds(19.5e12);
        assert!((sm_s - 108.0).abs() < 1e-6);
    }

    #[test]
    fn llama13b_fp16_load_near_ten_seconds() {
        // §6: "loading time of LLaMa 2 13B can take up to 10 seconds".
        let s = GpuSpec::a100_80gb();
        let bytes = 13_000_000_000u64 * 2; // fp16
        let t = s.model_load_seconds(bytes);
        assert!((9.0..12.0).contains(&t), "load time {t}");
    }
}
