//! Command-line helpers shared by the `serve` and `loadgen` binaries: a
//! bad invocation (`--help`, an unknown flag, a missing or unparsable
//! value) prints the usage text to stderr and exits with status 2
//! instead of panicking.

use std::str::FromStr;

/// Prints `msg` (when non-empty) and `usage` to stderr, then exits with
/// status 2.
pub fn usage_exit(usage: &str, msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("{usage}");
    std::process::exit(2)
}

/// The value following `flag`, parsed; exits through [`usage_exit`] when
/// it is missing or does not parse.
pub fn flag_value<T: FromStr>(usage: &str, flag: &str, value: Option<String>) -> T {
    let Some(v) = value else {
        usage_exit(usage, &format!("missing value for {flag}"))
    };
    v.parse()
        .unwrap_or_else(|_| usage_exit(usage, &format!("bad value for {flag}: {v}")))
}
