//! `repro lint` — run the determinism static-analysis pass in-process
//! and write `BENCH_lint.json`: the rule catalog, the stream-id
//! registry, per-crate panic/unwrap budgets vs the checked-in baseline,
//! and any diagnostics. The artifact makes lint posture reviewable next
//! to the performance artifacts it protects: a BENCH number is only
//! comparable across runs because these rules hold.

use crate::report::write_report;
use parfait_lint::{
    find_workspace_root, rules::CATALOG, run_workspace_opts, Baseline, LintOptions,
};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// One catalog row.
#[derive(Debug, Clone, Serialize)]
pub struct RuleRow {
    /// Catalog code, e.g. `D1`.
    pub code: String,
    /// Rule id, e.g. `hash-order`.
    pub id: String,
    /// One-line summary.
    pub summary: String,
}

/// One registered RNG stream.
#[derive(Debug, Clone, Serialize)]
pub struct StreamRow {
    /// Constant name in `simcore::streams`.
    pub name: String,
    /// Stream id.
    pub id: u64,
}

/// One crate's D5 budget status.
#[derive(Debug, Clone, Serialize)]
pub struct BudgetRow {
    /// Crate name.
    pub crate_name: String,
    /// Current non-test `panic!` count.
    pub panics: u64,
    /// Current non-test `.unwrap()` count.
    pub unwraps: u64,
    /// Baseline panic budget.
    pub base_panics: u64,
    /// Baseline unwrap budget.
    pub base_unwraps: u64,
    /// Over budget (fails `--deny`).
    pub over: bool,
}

/// Wall time one lint pass spent in one phase, across all files.
#[derive(Debug, Clone, Serialize)]
pub struct RuleTimingRow {
    /// Pass key: `lex`, `scope`, or a rule code (`D1`..`F3`).
    pub pass: String,
    /// Accumulated nanoseconds.
    pub nanos: u64,
}

/// The full artifact written to `BENCH_lint.json`.
#[derive(Debug, Clone, Serialize)]
pub struct LintReport {
    /// Files scanned.
    pub files_scanned: usize,
    /// Whether the workspace passes `--deny` semantics.
    pub clean: bool,
    /// Rendered diagnostics (`path:line: [CODE id] msg`).
    pub diagnostics: Vec<String>,
    /// The rule catalog.
    pub rules: Vec<RuleRow>,
    /// The parsed stream registry.
    pub streams: Vec<StreamRow>,
    /// Per-crate budget status.
    pub budgets: Vec<BudgetRow>,
    /// Per-pass wall time. The lint crate is banned from wall clocks by
    /// its own D2 rule, so the clock is injected from here.
    pub rule_timings: Vec<RuleTimingRow>,
}

/// Run the lint over the workspace containing `start` and build the report.
pub fn measure(start: &Path) -> std::io::Result<LintReport> {
    let root = find_workspace_root(start).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::NotFound, "no workspace root found")
    })?;
    let t0 = Instant::now();
    let clock = move || t0.elapsed().as_nanos() as u64;
    let report = run_workspace_opts(
        &root,
        &LintOptions {
            clock: Some(&clock),
        },
    )?;
    let baseline = Baseline::load(&root)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let budgets: Vec<BudgetRow> = baseline
        .check(&report.budgets)
        .into_iter()
        .map(|c| BudgetRow {
            over: c.over(),
            crate_name: c.crate_name,
            panics: c.panics,
            unwraps: c.unwraps,
            base_panics: c.base_panics,
            base_unwraps: c.base_unwraps,
        })
        .collect();
    let clean = report.diagnostics.is_empty() && budgets.iter().all(|b| !b.over);
    Ok(LintReport {
        files_scanned: report.files_scanned,
        clean,
        diagnostics: report.diagnostics.iter().map(|d| d.to_string()).collect(),
        rules: CATALOG
            .iter()
            .map(|r| RuleRow {
                code: r.code.to_string(),
                id: r.id.to_string(),
                summary: r.summary.to_string(),
            })
            .collect(),
        streams: report
            .registry
            .iter()
            .map(|(name, id)| StreamRow {
                name: name.clone(),
                id: *id,
            })
            .collect(),
        budgets,
        rule_timings: report
            .rule_nanos
            .iter()
            .map(|(pass, nanos)| RuleTimingRow {
                pass: pass.clone(),
                nanos: *nanos,
            })
            .collect(),
    })
}

/// Run the lint and write `BENCH_lint.json` into `dir`.
pub fn run_and_write(dir: &Path) -> std::io::Result<LintReport> {
    let report = measure(dir)?;
    write_report(dir, "BENCH_lint.json", &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_report_is_clean_and_complete() {
        let r = measure(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("lint runs");
        assert!(r.clean, "diagnostics: {:?}", r.diagnostics);
        assert!(r.rules.len() >= 5);
        assert!(r.streams.len() >= 6);
        assert!(!r.budgets.is_empty());
        // Per-rule timings must be present (the CI artifact check keys
        // on them) and cover the structural passes.
        assert!(!r.rule_timings.is_empty());
        for pass in ["lex", "scope", "F1", "F2", "F3"] {
            assert!(
                r.rule_timings.iter().any(|t| t.pass == pass),
                "missing timing for pass {pass}: {:?}",
                r.rule_timings
            );
        }
    }
}
