//! `repro chaos` — the deterministic chaos-search bench arm.
//!
//! Drives `parfait_faas::chaos` at full strength: every generated
//! schedule runs with the *real* control-plane hook (staged MPS resizes
//! and MIG re-slices via `parfait-core::reconfig`, SLO-autoscaler flips
//! via `parfait-core::autoscale`), all safety oracles enabled. Any
//! violating schedule is shrunk to a minimal repro and serialized in
//! the `tests/chaos_corpus/` format. `BENCH_chaos.json` reports
//! schedules/sec, per-action coverage, and violations found — the CI
//! smoke job gates on zero violations and full fault-kind coverage.
//!
//! The torn-checkpoint *seeded regression* (a deliberate bug behind
//! `BugSwitches`) runs as part of every report: it proves the
//! catch → shrink → replay pipeline end to end on code where the
//! healthy search rightly finds nothing.

use crate::report::write_report;
use parfait_core::{
    begin_reconfigure_mig, begin_resize_mps, enable_slo_autoscaler, GpuTenancy, SloPolicy,
};
use parfait_faas::chaos::{
    case_seed, generate_schedule, run_schedule, schedule_to_corpus, shrink_schedule, BugSwitches,
    CaseReport, ChaosAction, ChaosConfig, ChaosSchedule, ALL_ACTION_LABELS,
};
use parfait_faas::FaasWorld;
use parfait_simcore::{Engine, SimDuration};
use serde::Serialize;
use std::collections::BTreeMap;

/// Search seed of the shipped smoke run (and the default for
/// `repro chaos`); any `--seed` reproduces any case from its report.
pub const SEARCH_SEED: u64 = 20231112;

/// Search seed of the seeded-regression demo, fixed so the checked-in
/// corpus entry regenerates bit-identically.
pub const DEMO_SEED: u64 = 4242;

/// Cases scanned for the seeded-regression demo before giving up.
const DEMO_CASES: u64 = 64;

/// MPS percentage floor/ceiling for skewed resize targets.
const MIN_PCT: u32 = 5;

/// Build the resize target for [`ChaosAction::ResizeMps`]: shift `skew`
/// points from the tail tenants to the first, clamped to keep every
/// share at least [`MIN_PCT`].
fn skewed_percentages(tenants: u32, skew: u32) -> Vec<u32> {
    let k = tenants.max(1);
    if k == 1 {
        return vec![100];
    }
    let base = 100 / k;
    let first = (base + skew).min(100 - MIN_PCT * (k - 1));
    let rest = (100 - first) / (k - 1);
    let mut out = vec![first];
    out.resize(k as usize, rest.max(MIN_PCT));
    out
}

/// The real control-plane hook: applies the reconfig/autoscale actions
/// a schedule contains through the same `parfait-core` entry points the
/// production controllers use, so the search fuzzes their guard rails
/// (fenced targets, overlapping drains, concurrent controllers) and
/// not a test double.
fn apply_core_action(
    world: &mut FaasWorld,
    eng: &mut Engine<FaasWorld>,
    action: &ChaosAction,
    workers_per_gpu: u32,
) -> Option<bool> {
    match action {
        ChaosAction::ResizeMps { gpu, skew } => Some(
            begin_resize_mps(world, eng, *gpu, skewed_percentages(workers_per_gpu, *skew)).is_ok(),
        ),
        ChaosAction::ReconfigMig { gpu } => {
            Some(begin_reconfigure_mig(world, eng, *gpu, workers_per_gpu as usize).is_ok())
        }
        ChaosAction::AutoscaleFlip { gpu } => {
            // The autoscaler builds its tenant list from the index.
            if *gpu as usize >= world.fleet.len() {
                return Some(false);
            }
            let tenants: Vec<usize> = (0..workers_per_gpu)
                .map(|k| (*gpu * workers_per_gpu + k) as usize)
                .collect();
            let policy = SloPolicy {
                period: SimDuration::from_secs(5),
                cooldown: SimDuration::from_secs(10),
                min_shift: 10,
                staleness: Some(SimDuration::from_secs(60)),
                ..SloPolicy::default()
            };
            let _log =
                enable_slo_autoscaler(world, eng, vec![GpuTenancy { gpu: *gpu, tenants }], policy);
            Some(true)
        }
        _ => None,
    }
}

/// Canonical full-strength run of one schedule: the faas runner plus
/// the real core hook. The search loop, the corpus replay suite, and
/// the determinism byte-compare all go through here, so they exercise
/// the identical pipeline.
pub fn run_case(schedule: &ChaosSchedule, bugs: BugSwitches) -> CaseReport {
    let wpg = schedule.workers_per_gpu;
    let mut hook = move |w: &mut FaasWorld, e: &mut Engine<FaasWorld>, a: &ChaosAction| {
        apply_core_action(w, e, a, wpg)
    };
    run_schedule(schedule, bugs, &mut hook)
}

/// One violating case found by the search, shrunk and serialized.
#[derive(Debug, Clone, Serialize)]
pub struct ViolationFinding {
    /// Case index within the search.
    pub case_index: u64,
    /// Derived case seed (replays the schedule without the search).
    pub case_seed: u64,
    /// Oracles that fired.
    pub oracles: Vec<String>,
    /// Events in the original schedule.
    pub events: usize,
    /// Events after shrinking.
    pub shrunk_events: usize,
    /// Candidate runs the shrinker spent.
    pub shrink_attempts: u64,
    /// Ready-to-check-in corpus entry for the minimal repro.
    pub corpus: String,
}

/// The seeded torn-checkpoint regression demo: proof the pipeline
/// catches, shrinks, and replays a real injected bug.
#[derive(Debug, Clone, Serialize)]
pub struct SeededRegression {
    /// Whether the seeded bug was caught within the demo budget (must
    /// be true; gated by tests and CI).
    pub caught: bool,
    /// Demo case index that tripped the oracle.
    pub case_index: u64,
    /// Events before shrinking.
    pub events: usize,
    /// Events after shrinking (acceptance: ≤ 5).
    pub shrunk_events: usize,
    /// Candidate runs the shrinker spent.
    pub shrink_attempts: u64,
    /// Corpus entry of the minimal repro (the checked-in
    /// `tests/chaos_corpus/seeded-torn-checkpoint.chaos`).
    pub corpus: String,
}

/// Deterministic search results (everything except wall-clock timing).
#[derive(Debug, Clone, Serialize)]
pub struct ChaosReport {
    /// Search seed; case `i` replays via `case_seed(search_seed, i)`.
    pub search_seed: u64,
    /// Cases run.
    pub cases: u64,
    /// Actions attempted across all cases, by kind.
    pub attempted: BTreeMap<String, u64>,
    /// Actions applied across all cases, by kind.
    pub applied: BTreeMap<String, u64>,
    /// Refused actions across all cases (invalid targets, fenced
    /// devices, busy drains — the hardened entry points at work).
    pub refusals: u64,
    /// Distinct action kinds attempted (acceptance: the full grammar).
    pub kinds_attempted: usize,
    /// Distinct action kinds applied at least once.
    pub kinds_applied: usize,
    /// The grammar's full kind count, for coverage gating.
    pub kinds_total: usize,
    /// Tasks admitted / completed / terminally failed across all cases.
    pub submitted: u64,
    /// Completed tasks across all cases.
    pub done: u64,
    /// Terminally failed tasks across all cases (includes shed).
    pub failed: u64,
    /// Oracle violations found on shipped code (must be empty; any
    /// entry ships with its minimized corpus repro).
    pub violations: Vec<ViolationFinding>,
    /// Violating cases the shrinker could not reproduce while
    /// shrinking (deterministic oracles make this structurally zero;
    /// gated anyway as a canary for nondeterminism).
    pub unshrunk_violations: u64,
    /// The seeded-regression demo results.
    pub seeded_regression: SeededRegression,
}

/// The artifact written to `BENCH_chaos.json`: deterministic search
/// results plus wall-clock throughput.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosArtifact {
    /// Wall-clock milliseconds for the whole search.
    pub wall_ms: u64,
    /// Schedules evaluated per wall-clock second.
    pub schedules_per_sec: f64,
    /// Deterministic search results.
    pub search: ChaosReport,
}

fn oracles_of(report: &CaseReport) -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    for v in &report.violations {
        if !seen.iter().any(|s| s == v.oracle) {
            seen.push(v.oracle.to_string());
        }
    }
    seen
}

/// Run the seeded-regression demo: scan [`DEMO_SEED`] cases with the
/// torn-checkpoint switch on, shrink the first case the
/// checkpoint-epoch oracle catches, and serialize the minimal repro.
pub fn seeded_regression() -> SeededRegression {
    let bugs = BugSwitches {
        torn_checkpoint: true,
    };
    let cfg = ChaosConfig::default();
    for i in 0..DEMO_CASES {
        let s = generate_schedule(DEMO_SEED, i, &cfg);
        let r = run_case(&s, bugs);
        if !r.violations.iter().any(|v| v.oracle == "checkpoint-epoch") {
            continue;
        }
        let (min, attempts) = shrink_schedule(&s, |cand| {
            run_case(cand, bugs)
                .violations
                .iter()
                .any(|v| v.oracle == "checkpoint-epoch")
        });
        let corpus = schedule_to_corpus(
            &min,
            "checkpoint-epoch",
            "bug=torn-checkpoint seeded regression: replay with \
             BugSwitches{torn_checkpoint} and expect the oracle to fire",
        );
        return SeededRegression {
            caught: true,
            case_index: i,
            events: s.events.len(),
            shrunk_events: min.events.len(),
            shrink_attempts: attempts,
            corpus,
        };
    }
    SeededRegression {
        caught: false,
        case_index: 0,
        events: 0,
        shrunk_events: 0,
        shrink_attempts: 0,
        corpus: String::new(),
    }
}

/// Run the chaos search: `cases` schedules from `search_seed`, all
/// oracles enabled, real core hook, healthy code (no bug switches).
/// Violating cases are shrunk and serialized into the report.
pub fn search(search_seed: u64, cases: u64) -> ChaosReport {
    let cfg = ChaosConfig::default();
    let mut attempted: BTreeMap<String, u64> = BTreeMap::new();
    let mut applied: BTreeMap<String, u64> = BTreeMap::new();
    let mut refusals = 0u64;
    let mut submitted = 0u64;
    let mut done = 0u64;
    let mut failed = 0u64;
    let mut violations = Vec::new();
    let mut unshrunk = 0u64;
    for i in 0..cases {
        let s = generate_schedule(search_seed, i, &cfg);
        let r = run_case(&s, BugSwitches::default());
        for (k, n) in &r.attempted {
            *attempted.entry((*k).to_string()).or_insert(0) += n;
        }
        for (k, n) in &r.applied {
            *applied.entry((*k).to_string()).or_insert(0) += n;
        }
        refusals += r.refusals;
        submitted += r.submitted;
        done += r.done;
        failed += r.failed;
        if r.violations.is_empty() {
            continue;
        }
        let oracles = oracles_of(&r);
        let (min, attempts) = shrink_schedule(&s, |cand| {
            !run_case(cand, BugSwitches::default()).violations.is_empty()
        });
        // A deterministic violation must still reproduce on the shrunk
        // schedule (at worst the shrinker returns the original).
        if run_case(&min, BugSwitches::default()).violations.is_empty() {
            unshrunk += 1;
        }
        violations.push(ViolationFinding {
            case_index: i,
            case_seed: case_seed(search_seed, i),
            oracles,
            events: s.events.len(),
            shrunk_events: min.events.len(),
            shrink_attempts: attempts,
            corpus: schedule_to_corpus(&min, "multiple", "found by repro chaos"),
        });
    }
    ChaosReport {
        search_seed,
        cases,
        kinds_attempted: attempted.len(),
        kinds_applied: applied.len(),
        kinds_total: ALL_ACTION_LABELS.len(),
        attempted,
        applied,
        refusals,
        submitted,
        done,
        failed,
        violations,
        unshrunk_violations: unshrunk,
        seeded_regression: seeded_regression(),
    }
}

/// One full-strength traced case for the determinism byte-compare in
/// `tests/determinism.rs`: returns the deterministic trace string of
/// case `index` under `search_seed`.
pub fn traced_chaos_run(search_seed: u64, index: u64) -> String {
    let s = generate_schedule(search_seed, index, &ChaosConfig::default());
    let r = run_case(&s, BugSwitches::default());
    let mut out = format!(
        "search_seed={search_seed} index={index} case_seed={} mode={} gpus={} wpg={} events={}\n",
        s.case_seed,
        s.mode.token(),
        s.gpus,
        s.workers_per_gpu,
        s.events.len()
    );
    out.push_str(&r.trace);
    out
}

/// Run the search and write `BENCH_chaos.json` into `dir`.
pub fn run_and_write(
    dir: &std::path::Path,
    search_seed: u64,
    cases: u64,
) -> std::io::Result<ChaosArtifact> {
    let t0 = std::time::Instant::now();
    let report = search(search_seed, cases);
    let wall = t0.elapsed();
    let artifact = ChaosArtifact {
        wall_ms: wall.as_millis() as u64,
        schedules_per_sec: if wall.as_secs_f64() > 0.0 {
            cases as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        search: report,
    };
    write_report(dir, "BENCH_chaos.json", &artifact)?;
    Ok(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parfait_faas::chaos::schedule_from_corpus;

    /// Acceptance: the search is deterministic — same seed, same
    /// report, byte for byte.
    #[test]
    fn search_report_is_deterministic() {
        let a = serde_json::to_string(&search(7, 12)).expect("serializes");
        let b = serde_json::to_string(&search(7, 12)).expect("serializes");
        assert_eq!(a, b, "search must be a pure function of its seed");
    }

    /// Acceptance: a smoke-sized search of shipped code finds zero
    /// oracle violations, attempts the full action grammar, and
    /// exercises both applied and refused paths.
    #[test]
    fn smoke_search_is_clean_with_full_grammar_coverage() {
        let r = search(SEARCH_SEED, 60);
        assert!(
            r.violations.is_empty(),
            "shipped code must pass every oracle: {:#?}",
            r.violations
        );
        assert_eq!(r.unshrunk_violations, 0);
        assert_eq!(
            r.kinds_attempted, r.kinds_total,
            "60 cases must attempt every grammar kind: {:?}",
            r.attempted
        );
        assert!(
            r.kinds_applied >= r.kinds_total - 3,
            "most kinds must actually land: {:?}",
            r.applied
        );
        assert!(r.refusals > 0, "refusal paths must be exercised");
        assert!(r.done > 0, "background workload must make progress");
    }

    /// Acceptance: the seeded torn-checkpoint bug is caught, shrinks
    /// to ≤ 5 events, and its corpus entry matches the checked-in
    /// `tests/chaos_corpus/seeded-torn-checkpoint.chaos` byte for byte
    /// (regenerate the file from this function when the grammar or
    /// platform changes).
    #[test]
    fn seeded_regression_matches_checked_in_corpus() {
        let demo = seeded_regression();
        assert!(demo.caught, "seeded bug must be caught within the budget");
        assert!(
            demo.shrunk_events <= 5,
            "must shrink to a handful of events, got {}",
            demo.shrunk_events
        );
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/chaos_corpus/seeded-torn-checkpoint.chaos"
        );
        let checked_in = std::fs::read_to_string(path).expect("corpus file checked in");
        assert_eq!(
            demo.corpus, checked_in,
            "regenerated seeded repro must match the corpus file"
        );
        // And the corpus entry replays: parses, fires the named oracle
        // under the bug switch, and is clean without it.
        let (s, oracle, note) = schedule_from_corpus(&demo.corpus).expect("parses");
        assert_eq!(oracle, "checkpoint-epoch");
        assert!(note.contains("bug=torn-checkpoint"));
        let bad = run_case(
            &s,
            BugSwitches {
                torn_checkpoint: true,
            },
        );
        assert!(bad
            .violations
            .iter()
            .any(|v| v.oracle == "checkpoint-epoch"));
        let clean = run_case(&s, BugSwitches::default());
        assert!(clean.violations.is_empty(), "{:#?}", clean.violations);
    }

    /// The skew helper always emits a valid MPS share vector.
    #[test]
    fn skewed_percentages_are_well_formed() {
        for tenants in 1..=4u32 {
            for skew in 0..=40u32 {
                let p = skewed_percentages(tenants, skew);
                assert_eq!(p.len(), tenants as usize);
                assert!(p.iter().all(|&x| x >= MIN_PCT || tenants == 1));
                assert!(p.iter().sum::<u32>() <= 100, "{p:?}");
            }
        }
    }
}
