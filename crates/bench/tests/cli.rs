//! The `repro` command line rejects a bad flag value with a message and
//! exit status 2 (like an unknown artifact name) instead of panicking.

use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn non_numeric_flag_value_exits_2() {
    let (code, stderr) = repro(&["--seed", "x", "table1"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("repro: --seed expects a number"),
        "stderr: {stderr}"
    );
}

#[test]
fn missing_flag_value_exits_2() {
    let (code, stderr) = repro(&["--tasks"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("repro: --tasks expects a number"),
        "stderr: {stderr}"
    );
}
