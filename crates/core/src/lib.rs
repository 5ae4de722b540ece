#![warn(missing_docs)]

//! # parfait-core
//!
//! The paper's contribution: **fine-grained accelerator partitioning for
//! a FaaS platform** (Dhakal et al., SC-W 2023), as a library over the
//! `parfait-faas` runtime and `parfait-gpu` substrate.
//!
//! * [`accel`] — the enhanced `available_accelerators` / `gpu_percentage`
//!   configuration surface of §4 (Listings 2–3): repeated GPU ids,
//!   per-entry MPS percentages, MIG UUIDs.
//! * [`planner`] — partition-plan synthesis (equal/weighted MPS splits,
//!   §5.2's MIG profile mapping, vGPU slots, multi-GPU fleets) and
//!   device application.
//! * [`advisor`] — Table 1's "no one-size-fits-all" navigation as a
//!   decision procedure: tenancy requirements → strategy + rationale.
//! * [`autoscale`] — §7's "change GPU resources depending on demand": a
//!   closed-loop SLO controller repartitioning MPS shares by backlog and
//!   latency through [`reconfig`]'s staged transactions, designed to pair
//!   with the [`weightcache`].
//! * [`reconfig`] — the §6 reconfiguration paths: MPS resize by process
//!   restart; MIG resize by GPU reset; strategy switches.
//! * [`rightsize`] — §7 "understanding GPU resource requirement": knee
//!   detection over latency profiles → MPS % / MIG profile
//!   recommendations.
//! * [`weightcache`] — §7 "re-configuring GPU resources faster": policy
//!   over the GPU-resident model weight cache.
//! * [`metrics`] — figure-oriented reductions (makespan, latency,
//!   throughput, utilization).

pub mod accel;
pub mod advisor;
pub mod autoscale;
pub mod metrics;
pub mod planner;
pub mod reconfig;
pub mod rightsize;
pub mod weightcache;

pub use accel::{parse_accelerators, parse_entry, AccelParseError};
pub use advisor::{recommend_strategy, StrategyAdvice, TenancyRequirements};
pub use autoscale::{
    demand_scores, enable_slo_autoscaler, proportional_split, GpuTenancy, SloAction, SloDecision,
    SloPolicy,
};
pub use planner::{
    apply_fleet, apply_plan, equal_mig_profile, plan, plan_fleet, PartitionPlan, PlanError,
    Strategy,
};
pub use reconfig::{
    begin_reconfigure_mig, begin_resize_mps, estimate_mig_reconfig_cost, estimate_mps_resize_cost,
    reconfigure_mig_equal, resize_mps, switch_strategy, ReconfigError, ReconfigReport,
    MIG_RESET_TIME,
};
pub use rightsize::{knee, profile, recommend, ProfilePoint, Recommendation};
