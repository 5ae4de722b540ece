//! End-to-end determinism acceptance: the whole platform — engine,
//! GPU arbitration, FaaS scheduling, fault injection and recovery — is
//! a pure function of configuration and seed. Each scenario runs the
//! §5.2 LLaMa deployment under the PR-2 fault schedule twice with the
//! same seed and asserts that the event trace (fault incidents + task
//! lifecycle rows + engine event count) and the serialized
//! `BENCH_faults.json` mode entry are byte-identical.
//!
//! This is the dynamic half of the determinism story; the static half
//! is `parfait-lint` (rules D1–D5), which keeps hash-order, wall-clock,
//! unregistered RNG streams and threading out of sim-visible code in
//! the first place.

use parfait_bench::faults::{traced_correlated_run, traced_mode_run};
use parfait_bench::gray::{traced_gray_run, Detection};
use parfait_bench::overload::traced_overload_run;
use parfait_bench::scenarios::SEED;
use parfait_core::Strategy;

fn assert_double_run_identical(strategy: Strategy) {
    let (report_a, trace_a) = traced_mode_run(&strategy, 4, 8, SEED);
    let (report_b, trace_b) = traced_mode_run(&strategy, 4, 8, SEED);
    assert_eq!(
        trace_a, trace_b,
        "event trace diverged across identically-seeded runs"
    );
    let json_a = serde_json::to_string(&report_a).expect("report serializes");
    let json_b = serde_json::to_string(&report_b).expect("report serializes");
    assert_eq!(
        json_a, json_b,
        "serialized fault report diverged across identically-seeded runs"
    );
    // A trace that contains no fault incidents or no tasks would make
    // the byte-compare vacuous.
    assert!(trace_a.contains("fault t="), "no fault records in trace");
    assert!(trace_a.contains("task id="), "no task rows in trace");
}

#[test]
fn mps_fault_scenario_is_bit_identical_across_runs() {
    assert_double_run_identical(Strategy::MpsEqual);
}

#[test]
fn mig_fault_scenario_is_bit_identical_across_runs() {
    assert_double_run_identical(Strategy::MigEqual);
}

/// The PR-4 correlated-outage scenario (host reboot + checkpoint/restore)
/// draws checkpoint jitter from its own RNG stream (`CHECKPOINT_TIMING`);
/// byte-compare it across double runs too.
fn assert_correlated_double_run_identical(strategy: Strategy, ckpt_s: Option<u64>) {
    let (report_a, trace_a) = traced_correlated_run(&strategy, ckpt_s, SEED);
    let (report_b, trace_b) = traced_correlated_run(&strategy, ckpt_s, SEED);
    assert_eq!(
        trace_a, trace_b,
        "correlated-outage trace diverged across identically-seeded runs"
    );
    let json_a = serde_json::to_string(&report_a).expect("report serializes");
    let json_b = serde_json::to_string(&report_b).expect("report serializes");
    assert_eq!(
        json_a, json_b,
        "serialized correlated report diverged across identically-seeded runs"
    );
    assert!(
        trace_a.contains("kind=host-reboot"),
        "no host-reboot incident in trace"
    );
    if ckpt_s.is_some() {
        assert!(
            trace_a.contains("kind=checkpoint-commit"),
            "no checkpoint commits in trace"
        );
        assert!(
            trace_a.contains("kind=checkpoint-restore"),
            "no checkpoint restores in trace"
        );
    }
}

/// The PR-5 overload scenario (bounded queues, deadline admission,
/// hedging, brownout) draws hedge jitter from its own RNG stream
/// (`HEDGE_TIMING`); byte-compare a fully-protected 2×-load cell across
/// double runs.
#[test]
fn overload_scenario_is_bit_identical_across_runs() {
    let (cell_a, trace_a) = traced_overload_run(SEED);
    let (cell_b, trace_b) = traced_overload_run(SEED);
    assert_eq!(
        trace_a, trace_b,
        "overload trace diverged across identically-seeded runs"
    );
    let json_a = serde_json::to_string(&cell_a).expect("cell serializes");
    let json_b = serde_json::to_string(&cell_b).expect("cell serializes");
    assert_eq!(
        json_a, json_b,
        "serialized overload cell diverged across identically-seeded runs"
    );
    assert!(trace_a.contains("task id="), "no task rows in trace");
    assert!(
        cell_a.overload.tasks_shed + cell_a.overload.tasks_rejected > 0,
        "a 2x-load protected cell must exercise admission control: {cell_a:?}"
    );
}

/// The PR-6 fleet scenario (open-loop Poisson × diurnal × flash-crowd
/// arrivals over the `FLEET_ARRIVALS` stream, indexed world, per-domain
/// dirty recompute): byte-compare the simulated half of an optimized run
/// across double runs. Wall-clock fields (`wall_s`, `events_per_sec`)
/// live outside `FleetSimStats`, so the comparison is exact.
#[test]
fn fleet_scenario_is_bit_identical_across_runs() {
    let (run_a, _) = parfait_bench::fleet::run_fleet(4, 2000, SEED, true);
    let (run_b, _) = parfait_bench::fleet::run_fleet(4, 2000, SEED, true);
    let json_a = serde_json::to_string(&run_a.sim).expect("fleet stats serialize");
    let json_b = serde_json::to_string(&run_b.sim).expect("fleet stats serialize");
    assert_eq!(
        json_a, json_b,
        "serialized fleet stats diverged across identically-seeded runs"
    );
    assert_eq!(run_a.sim.behavior.completed, 2000, "all tasks complete");
    assert!(
        run_a.sim.domains_skipped > 0,
        "optimized fleet run must exercise dirty-domain skipping"
    );
}

/// The PR-7 autoscale scenario (closed-loop SLO control over staged
/// reconfig transactions) draws from two new RNG streams
/// (`AUTOSCALE_ARRIVALS`, `RECONFIG_FAULTS`); byte-compare a faulty
/// closed-loop cell across double runs.
#[test]
fn autoscale_scenario_is_bit_identical_across_runs() {
    use parfait_bench::autoscale::{run_cell, Mode};
    let cell_a = run_cell(Mode::ClosedLoop, 2, 1000, SEED, 0.2);
    let cell_b = run_cell(Mode::ClosedLoop, 2, 1000, SEED, 0.2);
    let json_a = serde_json::to_string(&cell_a).expect("cell serializes");
    let json_b = serde_json::to_string(&cell_b).expect("cell serializes");
    assert_eq!(
        json_a, json_b,
        "serialized autoscale cell diverged across identically-seeded runs"
    );
    assert!(
        cell_a.behavior.txns_committed + cell_a.behavior.txns_failed > 0,
        "cell must exercise the reconfig transaction machinery: {cell_a:?}"
    );
    assert_eq!(
        cell_a.behavior.completed + cell_a.behavior.failed,
        cell_a.behavior.submitted,
        "every task settles"
    );
}

/// The PR-9 gray-failure scenario (zombie + fail-slow schedule under
/// the progress watchdog, peer-relative probation, and the canary
/// probe) draws canary jitter from its own RNG stream (`GRAY_CANARY`);
/// byte-compare the full progress+peer arm across double runs.
fn assert_gray_double_run_identical(strategy: Strategy) {
    let (report_a, trace_a) = traced_gray_run(&strategy, Detection::ProgressPeer, SEED);
    let (report_b, trace_b) = traced_gray_run(&strategy, Detection::ProgressPeer, SEED);
    assert_eq!(
        trace_a, trace_b,
        "gray-failure trace diverged across identically-seeded runs"
    );
    let json_a = serde_json::to_string(&report_a).expect("report serializes");
    let json_b = serde_json::to_string(&report_b).expect("report serializes");
    assert_eq!(
        json_a, json_b,
        "serialized gray report diverged across identically-seeded runs"
    );
    // A trace without the gray incidents would make the compare vacuous.
    assert!(
        trace_a.contains("kind=zombie-worker"),
        "no zombie injection in trace"
    );
    assert!(
        trace_a.contains("kind=gray-progress"),
        "no progress-watchdog detection in trace"
    );
    assert!(
        trace_a.contains("kind=fail-slow"),
        "no fail-slow detection in trace"
    );
}

#[test]
fn mps_gray_scenario_is_bit_identical_across_runs() {
    assert_gray_double_run_identical(Strategy::MpsEqual);
}

#[test]
fn mig_gray_scenario_is_bit_identical_across_runs() {
    assert_gray_double_run_identical(Strategy::MigEqual);
}

/// The PR-10 chaos scenario (randomized fault/reconfig schedules over
/// the `CHAOS_SCHEDULE` / `CHAOS_ARRIVALS` streams, full oracle
/// catalog): byte-compare the concatenated traces of several searched
/// cases across double runs. Any divergence here would also poison the
/// shrinker (candidates would stop reproducing), so this is the
/// canary for the whole chaos pipeline.
#[test]
fn chaos_scenario_is_bit_identical_across_runs() {
    use parfait_bench::chaos::{traced_chaos_run, SEARCH_SEED};
    for index in 0..4 {
        let trace_a = traced_chaos_run(SEARCH_SEED, index);
        let trace_b = traced_chaos_run(SEARCH_SEED, index);
        assert_eq!(
            trace_a, trace_b,
            "chaos case {index} trace diverged across identically-seeded runs"
        );
        assert!(
            trace_a.contains("quiesce done="),
            "chaos case {index} trace missing its quiescence summary"
        );
    }
}

#[test]
fn mps_correlated_outage_is_bit_identical_across_runs() {
    assert_correlated_double_run_identical(Strategy::MpsEqual, Some(10));
}

#[test]
fn mig_correlated_outage_is_bit_identical_across_runs() {
    assert_correlated_double_run_identical(Strategy::MigEqual, Some(10));
}
