//! Strategy selection — Table 1's "no one-size-fits-all" discussion as a
//! decision procedure.
//!
//! §2.3: "there is no one-size-fits-all solution for GPU multiplexing;
//! the final choice will ultimately depend on application and user
//! requirements." The paper then navigates the trade-offs informally
//! (§5/§6): MPS for fine-grained shares and fast-ish resizes, MIG when
//! tenants need memory/fault isolation, time-sharing only when nothing
//! else is available. [`recommend_strategy`] encodes that navigation so
//! an operator can ask for a plan from workload facts.

use crate::planner::{equal_mig_profile, Strategy};
use crate::reconfig::{estimate_mig_reconfig_cost, estimate_mps_resize_cost};
use parfait_gpu::mig::profile_catalog;
use parfait_gpu::GpuSpec;
use serde::Serialize;

/// What the operator knows about the tenancy.
#[derive(Debug, Clone, Serialize)]
pub struct TenancyRequirements {
    /// Co-resident function processes on the GPU.
    pub tenants: usize,
    /// Do tenants belong to mutually untrusted users (⇒ memory/fault
    /// isolation required — Table 1's MIG/vGPU column)?
    pub require_isolation: bool,
    /// SMs one tenant needs to stay within its latency target (e.g. from
    /// [`crate::rightsize::recommend`]).
    pub sms_needed: u32,
    /// Resident bytes per tenant (weights + KV + workspace).
    pub footprint_bytes: u64,
    /// How often partitions must be resized (Hz). Frequent resizing
    /// penalizes MIG (GPU reset, §6) and favours MPS (+ weight cache).
    pub resize_rate_hz: f64,
    /// Are all tenants identical (homogeneous shares acceptable)?
    pub homogeneous: bool,
}

/// A recommendation with its rationale.
#[derive(Debug, Clone, Serialize)]
pub struct StrategyAdvice {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// Human-readable reasons, in decision order.
    pub rationale: Vec<String>,
    /// Hard blockers found (empty when the strategy fully satisfies the
    /// requirements).
    pub caveats: Vec<String>,
}

/// Pick a multiplexing strategy for `spec` under `req`.
pub fn recommend_strategy(spec: &GpuSpec, req: &TenancyRequirements) -> StrategyAdvice {
    let mut rationale = Vec::new();
    let mut caveats = Vec::new();

    if req.tenants <= 1 {
        rationale.push("single tenant: no multiplexing needed".into());
        return StrategyAdvice {
            strategy: Strategy::TimeSharing,
            rationale,
            caveats,
        };
    }

    // Memory feasibility on the whole device (shared modes).
    let fits_shared = req.footprint_bytes.saturating_mul(req.tenants as u64) <= spec.memory_bytes;
    if !fits_shared {
        caveats.push(format!(
            "{} tenants × {} B exceed device memory; shared modes would OOM",
            req.tenants, req.footprint_bytes
        ));
    }

    if req.require_isolation {
        rationale.push("isolation required: only MIG/vGPU qualify (Table 1)".into());
        // MIG if the part supports it and an equal profile satisfies both
        // the SM need and per-instance memory.
        if spec.mig_capable {
            if let Ok(profile) = equal_mig_profile(spec, req.tenants) {
                let p = profile_catalog(spec)
                    .into_iter()
                    .find(|p| p.name == profile)
                    .expect("profile from catalog");
                let sms = p.compute_slices as u32 * spec.mig_slice_sms;
                let mem = spec.memory_bytes / 8 * p.memory_slices as u64;
                if sms >= req.sms_needed && mem >= req.footprint_bytes {
                    rationale.push(format!(
                        "MIG {profile} gives {sms} SMs / {mem} B per tenant — enough"
                    ));
                    if req.resize_rate_hz > 0.01 {
                        let cost = estimate_mig_reconfig_cost(spec, req.footprint_bytes);
                        caveats.push(format!(
                            "frequent resizing: each MIG change resets the GPU and restarts all tenants \
                             (§6; ≈{:.1}s outage, {:.0}s/hour at this rate)",
                            cost.as_secs_f64(),
                            cost.as_secs_f64() * req.resize_rate_hz * 3600.0
                        ));
                    }
                    return StrategyAdvice {
                        strategy: Strategy::MigEqual,
                        rationale,
                        caveats,
                    };
                }
                rationale.push(format!(
                    "MIG {profile} too small ({sms} SMs / {mem} B per tenant)"
                ));
            } else {
                rationale.push(format!("no MIG profile supports {} tenants", req.tenants));
            }
        } else {
            rationale.push(format!("{} is not MIG-capable", spec.name));
        }
        if req.homogeneous {
            rationale.push("falling back to vGPU: homogeneous isolated slots".into());
            return StrategyAdvice {
                strategy: Strategy::Vgpu,
                rationale,
                caveats,
            };
        }
        caveats.push("no isolating mode satisfies the requirements; MPS is the closest fit".into());
    }

    // No isolation requirement (or nothing isolating fits): MPS with
    // right-sized percentages when the need is known, equal otherwise.
    let pct_needed = ((req.sms_needed as f64 / spec.sms as f64) * 100.0).ceil() as u32;
    let equal_pct = (100 / req.tenants as u32).max(1);
    if pct_needed > equal_pct {
        caveats.push(format!(
            "each tenant wants {pct_needed}% but an equal split gives {equal_pct}%: expect the Fig. 2 latency penalty"
        ));
    }
    if req.resize_rate_hz > 0.01 {
        let stock = estimate_mps_resize_cost(spec, req.footprint_bytes, false);
        let cached = estimate_mps_resize_cost(spec, req.footprint_bytes, true);
        rationale.push(format!(
            "frequent resizing favours MPS: restart one process, not the GPU \
             (≈{:.1}s per resize, {:.1}s with the §7 weight cache)",
            stock.as_secs_f64(),
            cached.as_secs_f64()
        ));
    }
    rationale.push(format!(
        "MPS equal split: {} × {equal_pct}% (finer-grained than MIG's 1/7 steps, §5.2)",
        req.tenants
    ));
    StrategyAdvice {
        strategy: Strategy::MpsEqual,
        rationale,
        caveats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfait_gpu::GIB;

    fn req() -> TenancyRequirements {
        TenancyRequirements {
            tenants: 4,
            require_isolation: false,
            sms_needed: 20,
            footprint_bytes: 16 * GIB,
            resize_rate_hz: 0.0,
            homogeneous: true,
        }
    }

    #[test]
    fn paper_scenario_picks_mps() {
        // §5.2's setup: 4 identical LLaMa2 tenants, no isolation mandate.
        let a = recommend_strategy(&GpuSpec::a100_80gb(), &req());
        assert_eq!(a.strategy, Strategy::MpsEqual);
        assert!(a.caveats.is_empty(), "caveats: {:?}", a.caveats);
    }

    #[test]
    fn isolation_with_adequate_slices_picks_mig() {
        let mut r = req();
        r.require_isolation = true;
        r.tenants = 2;
        r.sms_needed = 20;
        r.footprint_bytes = 30 * GIB; // fits 3g.40gb
        let a = recommend_strategy(&GpuSpec::a100_80gb(), &r);
        assert_eq!(a.strategy, Strategy::MigEqual);
    }

    #[test]
    fn isolation_with_oversized_footprint_falls_back_to_vgpu() {
        let mut r = req();
        r.require_isolation = true;
        r.tenants = 4; // 1g.10gb instances
        r.footprint_bytes = 16 * GIB; // > 10 GiB slice
        let a = recommend_strategy(&GpuSpec::a100_80gb(), &r);
        assert_eq!(a.strategy, Strategy::Vgpu);
        assert!(a.rationale.iter().any(|s| s.contains("too small")));
    }

    #[test]
    fn isolation_on_amd_part_cannot_use_mig() {
        let mut r = req();
        r.require_isolation = true;
        r.footprint_bytes = 8 * GIB;
        let a = recommend_strategy(&GpuSpec::mi210(), &r);
        assert!(a.rationale.iter().any(|s| s.contains("not MIG-capable")));
        assert_eq!(a.strategy, Strategy::Vgpu);
    }

    #[test]
    fn frequent_resizing_flags_mig_and_prefers_mps() {
        let mut r = req();
        r.resize_rate_hz = 0.1;
        let a = recommend_strategy(&GpuSpec::a100_80gb(), &r);
        assert_eq!(a.strategy, Strategy::MpsEqual);
        assert!(a.rationale.iter().any(|s| s.contains("weight cache")));

        r.require_isolation = true;
        r.tenants = 2;
        r.footprint_bytes = 30 * GIB;
        let a = recommend_strategy(&GpuSpec::a100_80gb(), &r);
        assert_eq!(a.strategy, Strategy::MigEqual);
        assert!(a.caveats.iter().any(|s| s.contains("resets the GPU")));
    }

    #[test]
    fn single_tenant_needs_nothing() {
        let mut r = req();
        r.tenants = 1;
        let a = recommend_strategy(&GpuSpec::a100_80gb(), &r);
        assert_eq!(a.strategy, Strategy::TimeSharing);
    }

    #[test]
    fn undersized_equal_split_is_flagged() {
        let mut r = req();
        r.tenants = 8;
        r.sms_needed = 40; // wants 38% but equal split is 12%
        r.footprint_bytes = 4 * GIB;
        let a = recommend_strategy(&GpuSpec::a100_80gb(), &r);
        assert_eq!(a.strategy, Strategy::MpsEqual);
        assert!(a.caveats.iter().any(|s| s.contains("latency penalty")));
    }

    #[test]
    fn shared_memory_overflow_flagged() {
        let mut r = req();
        r.tenants = 6; // 6 × 16 GiB = 96 GiB > 80
        let a = recommend_strategy(&GpuSpec::a100_80gb(), &r);
        assert!(a.caveats.iter().any(|s| s.contains("OOM")));
    }
}
