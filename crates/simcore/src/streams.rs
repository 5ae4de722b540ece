//! Central registry of RNG stream ids.
//!
//! Every [`crate::SimRng::split`] call in the workspace must name a
//! constant from this module (enforced by `parfait-lint` rule D3, see
//! DESIGN.md). Splitting on ad-hoc integer literals is how simulators
//! silently lose reproducibility: two subsystems pick the same id, their
//! draws become correlated, and "bit-identical under the same seed" stops
//! being checkable. Centralizing the ids makes collisions a compile-time
//! review question and a tested invariant ([`ALL`] must be duplicate-free).
//!
//! The numeric values are frozen: changing one changes every trace and
//! BENCH artifact downstream. Add new streams with fresh ids; never
//! renumber outside a deliberate artifact-regeneration change. When the
//! last reader of a stream goes, its constant goes too but its id is
//! *retired*, never reused: a reused id would silently correlate a new
//! subsystem with traces recorded under the old one. The retired ids are
//! listed in this module's tests.

/// Recovery machinery: exponential-backoff retry jitter and respawn
/// scheduling in `parfait-faas::world` (historically hard-coded as 617).
pub const RETRY_JITTER: u64 = 617;

/// Realization of stochastic fault plans in `parfait-faas::faults`
/// (historically hard-coded as 618).
pub const FAULT_REALIZATION: u64 = 618;

/// Checkpoint timer jitter for the periodic snapshotting of long-running
/// task bodies in `parfait-faas::world` (de-synchronizes co-resident
/// workers so snapshot writebacks do not all land on the PCIe link in
/// the same instant).
pub const CHECKPOINT_TIMING: u64 = 640;

/// Realization of *correlated* stochastic fault schedules (host reboots,
/// rack power events) in `parfait-faas::faults`. Kept separate from
/// [`FAULT_REALIZATION`] so enabling correlated rates never perturbs the
/// draws of a previously recorded independent-fault schedule.
pub const CORRELATED_FAULTS: u64 = 641;

/// Straggler-hedging timer jitter in `parfait-faas::world`: the delay
/// before a speculative duplicate of a slow task is launched is
/// `est_service * trigger * (1 + jitter * u)` with `u` drawn here. De-synchronizes hedge launches the same way
/// [`CHECKPOINT_TIMING`] de-synchronizes snapshot writebacks.
pub const HEDGE_TIMING: u64 = 642;

/// Base id for per-worker streams: worker `id` draws from
/// `WORKER_BASE + id`. The range `[WORKER_BASE, WORKER_BASE + 2^20)` is
/// reserved for workers; keep scalar stream ids out of it (enforced by
/// the registry test below).
pub const WORKER_BASE: u64 = 1000;

/// The molecular-design campaign's private stream (molecule features,
/// oracle noise, random selection) in `parfait-workloads::molecular`.
pub const MOLECULAR_CAMPAIGN: u64 = 77;

/// Poisson arrival traces for the open-loop serving scenarios in
/// `parfait-bench::scenarios`. Historically 4242, which sat inside the
/// per-worker reservation (collision with worker 3242); renumbered to
/// 424 alongside the deliberate artifact regeneration in PR 4.
pub const ARRIVAL_TRACE: u64 = 424;

/// Poisson arrival trace for the dynamic-batching extension experiment
/// in the `repro` binary.
pub const BATCH_ARRIVALS: u64 = 999;

/// Non-homogeneous Poisson arrivals (diurnal sinusoid × flash-crowd
/// windows, realized by thinning) for the fleet-scale open-loop driver
/// in `parfait-workloads::trace::fleet` / `parfait-bench::fleet`. Kept
/// separate from [`ARRIVAL_TRACE`] so the 1M-task fleet scenario never
/// perturbs the draws of the recorded open-loop serving artifacts.
pub const FLEET_ARRIVALS: u64 = 644;

/// Realization of injected reconfiguration failures
/// (`FaultKind::ReconfigFail` and the `reconfig_fail_prob` Bernoulli
/// draw) in `parfait-faas`. Kept separate from [`FAULT_REALIZATION`] so
/// enabling reconfig-fault injection never perturbs the draws of a
/// previously recorded worker/device fault schedule.
pub const RECONFIG_FAULTS: u64 = 645;

/// Arrival traces for the closed-loop autoscaling scenario in
/// `parfait-bench::autoscale` (two out-of-phase tenant mixes drawn
/// sequentially). Kept separate from [`FLEET_ARRIVALS`] so the autoscale
/// sweep never perturbs the recorded fleet artifact.
pub const AUTOSCALE_ARRIVALS: u64 = 646;

/// Realization of stochastic *gray* fault schedules (zombie workers,
/// flaky PCIe links) in `parfait-faas::faults`. Kept separate from
/// [`FAULT_REALIZATION`] and [`CORRELATED_FAULTS`] so enabling gray
/// rates never perturbs the draws of a previously recorded crash or
/// domain-outage schedule.
pub const GRAY_FAULTS: u64 = 647;

/// Canary-probe timer jitter for the fail-slow probation machine in
/// `parfait-faas::world`: the delay between a completed evacuation
/// drain and the canary kernel launch is jittered here so co-probing
/// devices do not synchronize their probes.
pub const GRAY_CANARY: u64 = 648;

/// Schedule generation for the deterministic chaos search in
/// `parfait-faas::chaos`: every random choice the schedule grammar makes
/// (event count, event kinds, targets, times, reconfig shapes) is drawn
/// from a per-case split of this stream, so a `(search_seed, case_index)`
/// pair names one schedule forever. Kept separate from every fault
/// stream so chaos runs never perturb recorded artifacts.
pub const CHAOS_SCHEDULE: u64 = 649;

/// Poisson arrival trace for the background workload a chaos schedule
/// runs against in `parfait-faas::chaos`. Kept separate from
/// [`CHAOS_SCHEDULE`] so editing the schedule grammar (more draws per
/// event) never changes which tasks arrive when.
pub const CHAOS_ARRIVALS: u64 = 650;

/// Every named stream, for the uniqueness check and for reports. Keep in
/// sync with the constants above; `parfait-lint` independently parses the
/// `pub const` declarations in this file, so a constant missing from this
/// table still participates in the duplicate-id check.
pub const ALL: &[(&str, u64)] = &[
    ("RETRY_JITTER", RETRY_JITTER),
    ("FAULT_REALIZATION", FAULT_REALIZATION),
    ("CHECKPOINT_TIMING", CHECKPOINT_TIMING),
    ("CORRELATED_FAULTS", CORRELATED_FAULTS),
    ("HEDGE_TIMING", HEDGE_TIMING),
    ("WORKER_BASE", WORKER_BASE),
    ("MOLECULAR_CAMPAIGN", MOLECULAR_CAMPAIGN),
    ("ARRIVAL_TRACE", ARRIVAL_TRACE),
    ("BATCH_ARRIVALS", BATCH_ARRIVALS),
    ("FLEET_ARRIVALS", FLEET_ARRIVALS),
    ("RECONFIG_FAULTS", RECONFIG_FAULTS),
    ("AUTOSCALE_ARRIVALS", AUTOSCALE_ARRIVALS),
    ("GRAY_FAULTS", GRAY_FAULTS),
    ("GRAY_CANARY", GRAY_CANARY),
    ("CHAOS_SCHEDULE", CHAOS_SCHEDULE),
    ("CHAOS_ARRIVALS", CHAOS_ARRIVALS),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_ids_are_unique() {
        let mut ids: Vec<u64> = ALL.iter().map(|(_, id)| *id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate RNG stream id in registry");
    }

    #[test]
    fn frozen_values() {
        // The historical literals these constants replaced (or, for
        // ARRIVAL_TRACE, the value fixed by the PR 4 regeneration);
        // renumbering them would silently change every seeded trace.
        assert_eq!(RETRY_JITTER, 617);
        assert_eq!(FAULT_REALIZATION, 618);
        assert_eq!(CHECKPOINT_TIMING, 640);
        assert_eq!(CORRELATED_FAULTS, 641);
        assert_eq!(HEDGE_TIMING, 642);
        assert_eq!(WORKER_BASE, 1000);
        assert_eq!(MOLECULAR_CAMPAIGN, 77);
        assert_eq!(ARRIVAL_TRACE, 424);
        assert_eq!(BATCH_ARRIVALS, 999);
        assert_eq!(FLEET_ARRIVALS, 644);
        assert_eq!(RECONFIG_FAULTS, 645);
        assert_eq!(AUTOSCALE_ARRIVALS, 646);
        assert_eq!(GRAY_FAULTS, 647);
        assert_eq!(GRAY_CANARY, 648);
        assert_eq!(CHAOS_SCHEDULE, 649);
        assert_eq!(CHAOS_ARRIVALS, 650);
    }

    /// Ids whose streams were deleted with their last reader. Kept out of
    /// the `pub const` items, which the lint parses as live streams.
    /// 643: admission tie-breaks of the deleted shed-lowest-priority
    /// policy.
    const RETIRED: &[u64] = &[643];

    #[test]
    fn retired_ids_stay_retired() {
        for (name, id) in ALL {
            assert!(
                !RETIRED.contains(id),
                "{name}={id} reuses a retired stream id"
            );
        }
    }

    #[test]
    fn scalar_ids_avoid_worker_range() {
        for (name, id) in ALL {
            if *name == "WORKER_BASE" {
                continue;
            }
            assert!(
                *id < WORKER_BASE,
                "{name}={id} lands in the per-worker stream range"
            );
        }
    }
}
