//! Multiplexing modes and time-sharing constants — Table 1 of the paper
//! as a type.
//!
//! | Mode | Table 1 row | Mechanism modelled |
//! |------|-------------|--------------------|
//! | [`DeviceMode::TimeSharing`] | Time-sharing | quantum round-robin between process contexts, context-switch penalty, one context's kernels at a time |
//! | [`DeviceMode::MpsDefault`] | Default CUDA MPS | all kernels co-scheduled, proportional SM split under overload, shared HBM bandwidth (no isolation) |
//! | [`DeviceMode::MpsPartitioned`] | CUDA MPS with GPU % | per-client SM caps from `CUDA_MPS_ACTIVE_THREAD_PERCENTAGE`; caps may oversubscribe |
//! | [`DeviceMode::Mig`] | Multi-Instance GPU | hard SM/memory/bandwidth slices, placement rules, reset-to-reconfigure |
//! | [`DeviceMode::Vgpu`] | vGPU | homogeneous static split at VM granularity |
//!
//! AMD equivalents (Table 1 column): `MpsDefault` doubles as ROCm's default
//! concurrent scheduling and `MpsPartitioned` as CU masking — an
//! [`crate::spec::Vendor::Amd`] device accepts those modes but rejects
//! `Mig`/`Vgpu`.

use parfait_simcore::SimDuration;
use serde::Serialize;

/// How a device arbitrates SMs between process contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DeviceMode {
    /// Default NVIDIA behaviour without MPS: one process's kernels own the
    /// GPU at a time, rotated on a scheduling quantum.
    TimeSharing,
    /// `nvidia-cuda-mps-control` without percentages.
    MpsDefault,
    /// MPS with per-client active-thread percentages.
    MpsPartitioned,
    /// MIG mode (instances managed by [`crate::mig::MigManager`]).
    Mig,
    /// vGPU-style homogeneous split into `slots` equal shares.
    Vgpu {
        /// Number of equal VM slots.
        slots: u32,
    },
}

impl DeviceMode {
    /// Short stable name for logs and tables.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceMode::TimeSharing => "time-sharing",
            DeviceMode::MpsDefault => "mps-default",
            DeviceMode::MpsPartitioned => "mps-partitioned",
            DeviceMode::Mig => "mig",
            DeviceMode::Vgpu { .. } => "vgpu",
        }
    }

    /// Does this mode give co-resident clients memory isolation?
    /// (Table 1: only MIG and vGPU do.)
    pub fn memory_isolated(&self) -> bool {
        matches!(self, DeviceMode::Mig | DeviceMode::Vgpu { .. })
    }

    /// Can kernels from different processes execute concurrently?
    pub fn spatial(&self) -> bool {
        !matches!(self, DeviceMode::TimeSharing)
    }
}

/// Time-sharing scheduling quantum: a few kernel launches worth of
/// exclusive access before the driver rotates runlists between processes.
pub const TS_QUANTUM: SimDuration = SimDuration::from_millis(25);

/// Context-switch penalty when time-sharing rotates processes (pipeline
/// drain + context restore).
pub const TS_SWITCH_PENALTY: SimDuration = SimDuration::from_micros(750);

/// How a new process context binds to the device, mirroring what the
/// Parsl worker environment expresses (§4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum CtxBinding {
    /// Plain `CUDA_VISIBLE_DEVICES=<gpu>`; valid in `TimeSharing` and
    /// `MpsDefault` modes.
    Bare,
    /// `CUDA_MPS_ACTIVE_THREAD_PERCENTAGE=<pct>` under partitioned MPS.
    MpsPercentage(u32),
    /// `CUDA_VISIBLE_DEVICES=MIG-<uuid>`.
    MigInstance(String),
    /// Attached to a vGPU slot.
    VgpuSlot(u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_taxonomy_matches_table1() {
        assert!(!DeviceMode::TimeSharing.spatial());
        assert!(DeviceMode::MpsDefault.spatial());
        assert!(DeviceMode::MpsPartitioned.spatial());
        assert!(DeviceMode::Mig.spatial());
        assert!(!DeviceMode::MpsDefault.memory_isolated());
        assert!(!DeviceMode::MpsPartitioned.memory_isolated());
        assert!(DeviceMode::Mig.memory_isolated());
        assert!(DeviceMode::Vgpu { slots: 4 }.memory_isolated());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DeviceMode::TimeSharing.name(), "time-sharing");
        assert_eq!(DeviceMode::Vgpu { slots: 2 }.name(), "vgpu");
    }
}
