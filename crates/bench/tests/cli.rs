//! The `repro` command line: a bad flag value or artifact name exits
//! with status 2 and a message instead of panicking, an artifact name
//! selects exactly that artifact, and `--seed` reaches the chaos search.

use std::path::Path;
use std::process::Command;

/// Run `repro args` in `dir`; returns (exit code, stdout, stderr).
fn repro_in(dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn repro(args: &[&str]) -> (Option<i32>, String, String) {
    repro_in(Path::new("."), args)
}

#[test]
fn non_numeric_flag_value_exits_2() {
    let (code, _, stderr) = repro(&["--seed", "x", "table1"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("repro: --seed expects a number"),
        "stderr: {stderr}"
    );
}

#[test]
fn missing_flag_value_exits_2() {
    let (code, _, stderr) = repro(&["--tasks"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("repro: --tasks expects a number"),
        "stderr: {stderr}"
    );
}

#[test]
fn unknown_artifact_exits_2_and_lists_every_artifact() {
    let (code, stdout, stderr) = repro(&["bogus"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert_eq!(stdout, "");
    assert_eq!(
        stderr,
        "repro: unknown artifact `bogus` (known: all, table1, fig1, fig2, fig3, fig4, fig5, \
         overheads, ablation, extension, substrate, faults, overload, lint, fleet, autoscale, \
         gray, chaos)\n"
    );
}

#[test]
fn artifact_name_runs_only_that_artifact() {
    let (code, stdout, stderr) = repro(&["fig1"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let titles: Vec<&str> = stdout.lines().filter(|l| l.starts_with("== ")).collect();
    assert_eq!(titles.len(), 4, "{titles:?}");
    assert!(
        titles.iter().all(|t| t.starts_with("== Fig 1: ")),
        "{titles:?}"
    );
}

#[test]
fn chaos_searches_the_given_seed() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-chaos-seed");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (code, stdout, stderr) = repro_in(&dir, &["chaos", "--seeds", "1", "--seed", "7"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("seed 7 "), "stdout: {stdout}");
    let json = std::fs::read_to_string(dir.join("BENCH_chaos.json")).expect("artifact written");
    assert!(json.contains("\"search_seed\": 7,"), "{json}");
}
