#![warn(missing_docs)]

//! # parfait-gpu
//!
//! A simulated data-center GPU substrate for the PARFAIT reproduction of
//! Dhakal et al., *Fine-grained accelerator partitioning for ML and
//! scientific computing in FaaS platforms* (SC-W 2023).
//!
//! The paper's experiments run on real A100s; this crate substitutes a
//! calibrated performance model that preserves the *scheduling* behaviour
//! the paper studies (see DESIGN.md §1 for the substitution argument):
//!
//! * [`spec`] — device catalog (A100-40/80 GB, MI210).
//! * [`kernel`] — wave-quantized kernel execution-time model.
//! * [`memory`] — byte-accurate allocator with UVM oversubscription.
//! * [`sharing`] — Table 1 as a type: time-sharing, default MPS,
//!   MPS-with-percentage, MIG, vGPU.
//! * [`mps`] — `nvidia-cuda-mps-control` daemon semantics, including the
//!   restart-to-resize constraint (§6).
//! * [`mig`] — profile catalog, slice-placement rules, instance lifecycle.
//! * [`device`] — the arbitration engine combining all of the above.
//! * [`host`] — discrete-event glue ([`host::GpuHost`], [`host::GpuFleet`]).
//! * [`nvml`] — NVML/`nvidia-smi`-style management facade.
//! * [`context`] — §6 cold-start decomposition model.

pub mod context;
pub mod device;
pub mod error;
pub mod host;
pub mod kernel;
pub mod memory;
pub mod mig;
pub mod mps;
pub mod nvml;
pub mod sharing;
pub mod spec;

pub use device::{CtxId, GpuDevice, GpuId, KernelDone, KernelId};
pub use error::{GpuError, Result};
pub use host::{launch_kernel, resync, GpuFleet, GpuHost};
pub use kernel::KernelDesc;
pub use sharing::{CtxBinding, DeviceMode};
pub use spec::{GpuSpec, Vendor, GIB};
