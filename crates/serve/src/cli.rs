//! Command-line helpers shared by the `serve` and `loadgen` binaries: a
//! bad invocation (`--help`, an unknown flag, a missing or unparsable
//! value) prints the usage text to stderr and exits with status 2, and a
//! failed artifact or socket operation prints one error line and exits
//! with status 1, instead of panicking.

use std::fmt::Display;
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

/// The value of `result`; on an error prints `error: {what}: {err}` to
/// stderr and exits with status 1.
pub fn or_exit<T, E: Display>(result: Result<T, E>, what: impl Display) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1)
    })
}
