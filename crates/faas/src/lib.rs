#![warn(missing_docs)]

//! # parfait-faas
//!
//! A Parsl-workalike FaaS runtime over the PARFAIT discrete-event
//! simulator — the substrate the paper's contribution plugs into.
//!
//! The shape mirrors Parsl/Globus Compute (§2.2 of the paper):
//!
//! * [`app`] — apps, task bodies ([`app::TaskStep`] programs), futures'
//!   moral equivalent via task ids.
//! * [`config`] — `Config`/executor definitions matching Listings 1–3,
//!   including duplicated `available_accelerators` entries, per-worker
//!   `gpu_percentage`, and MIG UUIDs.
//! * [`dfk`] — the DataFlowKernel: dependencies, retries, lifecycle.
//! * [`world`] — the HighThroughputExecutor pilot model: a local provider
//!   spawns worker processes, workers cold-start (§6 decomposition), bind GPU
//!   contexts from their environment, pull tasks, and interpret task
//!   bodies against the simulated node.
//! * [`monitoring`] — Parsl-monitoring-style records feeding the figures.

pub mod app;
pub mod cache;
pub mod chaos;
pub mod checkpoint;
pub mod config;
pub mod dfk;
pub mod drain;
pub mod faults;
mod index;
pub mod monitoring;
pub mod overload;
pub mod strategy;
pub mod wire;
pub mod world;

pub use app::{AppCall, ModelProfile, TaskBody, TaskCtx, TaskId, TaskStep};
pub use cache::WeightCache;
pub use checkpoint::{Checkpoint, CHECKPOINT_BASE_BYTES};
pub use config::{
    AcceleratorSpec, Config, ExecutorConfig, OverloadConfig, ReconfigConfig, RecoveryConfig,
    Topology,
};
pub use dfk::{AppName, Dfk, FailureOutcome, TaskRecord, TaskState};
pub use drain::{
    begin_drain, reconfig_commit_fails, DrainCallback, DrainError, DrainOutcome, ReconfigControl,
    ReconfigStats,
};
pub use faults::{
    inject_fault, install_faults, FaultEvent, FaultKind, FaultPlan, GpuHealth, GrayStats,
    InjectOutcome, RecoveryState, RecoveryStats,
};
pub use monitoring::{time_in_queue_percentiles, FaultPhase, FaultRecord, Percentiles};
pub use overload::{OverloadState, OverloadStats};
pub use strategy::enable_brownout;
pub use world::{
    add_worker, auto_respawn, boot, cancel, crash_worker, fault_host, fault_rack, gpu_quarantined,
    kick_executor, kill_worker, quarantine_gpu, respawn_worker, resume_sampling, run, submit,
    Driver, FaasWorld, RespawnError, Worker, WorkerState,
};
