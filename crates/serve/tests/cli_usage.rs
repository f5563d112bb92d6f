//! A bad invocation of either binary — `--help`, an unknown flag, a
//! missing or unparsable value, a raster the hierarchy cannot tile, an
//! address that does not parse — prints usage to stderr and exits with
//! status 2, never a panic. An artifact `serve` cannot read or parse
//! prints an error line and exits with status 1, never a panic.

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
    assert_usage_exit(bin, &["--side", "16", "--layers", "9"]);
    assert_usage_exit(bin, &["--side", "0"]);
    assert_usage_exit(bin, &["--ensemble", "2", "--side", "12", "--layers", "4"]);
    // serve has no coalescing window, batch cap or loop count to set
    assert_usage_exit(bin, &["--window-us", "500"]);
    assert_usage_exit(bin, &["--max-batch", "8"]);
    assert_usage_exit(bin, &["--loops", "2"]);
}

fn assert_error_exit(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("error: "), "{bin} {args:?}: {stderr}");
}

#[test]
fn serve_bad_index_artifacts_exit_1() {
    let bin = env!("CARGO_BIN_EXE_serve");
    let dir = std::env::temp_dir().join(format!("o4a-cli-index-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let missing = dir.join("no-such.o4aidx");
    assert_error_exit(bin, &["--index", missing.to_str().unwrap()]);
    let garbage = dir.join("garbage.o4aidx");
    std::fs::write(&garbage, b"this is not a combination index").unwrap();
    assert_error_exit(bin, &["--index", garbage.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn loadgen_help_and_bad_flags_exit_2_with_usage() {
    let bin = env!("CARGO_BIN_EXE_loadgen");
    assert_usage_exit(bin, &["--help"]);
    assert_usage_exit(bin, &["--no-such-flag"]);
    assert_usage_exit(bin, &["--threads", "-1"]);
    assert_usage_exit(bin, &["--out"]);
    assert_usage_exit(bin, &["--addr", "nonsense"]);
    assert_usage_exit(bin, &[]);
    let addr_file = std::env::temp_dir().join(format!("o4a-cli-usage-{}.addr", std::process::id()));
    std::fs::write(&addr_file, "nonsense").unwrap();
    assert_usage_exit(bin, &["--addr-file", addr_file.to_str().unwrap()]);
    std::fs::remove_file(&addr_file).unwrap();
}
