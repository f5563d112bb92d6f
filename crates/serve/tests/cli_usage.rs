//! A bad invocation of either binary — `--help` or an unknown flag —
//! prints usage to stderr and exits with status 2, never a panic.

use std::process::Command;

fn assert_usage_exit(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("Usage:"), "{bin} {args:?}: {stderr}");
}

#[test]
fn serve_help_and_bad_flags_exit_2_with_usage() {
    let bin = env!("CARGO_BIN_EXE_serve");
    assert_usage_exit(bin, &["--help"]);
    assert_usage_exit(bin, &["--no-such-flag"]);
    assert_usage_exit(bin, &["--side", "not-a-number"]);
    assert_usage_exit(bin, &["--side"]);
}

#[test]
fn loadgen_help_and_bad_flags_exit_2_with_usage() {
    let bin = env!("CARGO_BIN_EXE_loadgen");
    assert_usage_exit(bin, &["--help"]);
    assert_usage_exit(bin, &["--no-such-flag"]);
    assert_usage_exit(bin, &["--threads", "-1"]);
    assert_usage_exit(bin, &["--out"]);
}
