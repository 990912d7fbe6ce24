//! Numeric flags of `table1` and `bench_reseed`, exercised against the
//! real binaries: a missing, unparsable or zero value is a usage error
//! (diagnostic + exit 2), never a panic or a silent default. Every case
//! fails at argument-parsing time, before a core is generated.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary spawns")
}

fn assert_usage_error(exe: &str, args: &[&str], needle: &str) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "args {args:?}: {stderr}");
    assert!(stderr.contains(needle), "args {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "args {args:?}: {stderr}");
}

#[test]
fn table1_rejects_bad_numeric_flags() {
    let exe = env!("CARGO_BIN_EXE_table1");
    assert_usage_error(exe, &["--scale", "0"], "positive integer");
    assert_usage_error(exe, &["--scale", "abc"], "could not parse");
    assert_usage_error(exe, &["--scale"], "expects a value");
    assert_usage_error(exe, &["--patterns", "many"], "could not parse");
    assert_usage_error(exe, &["--obs", "-1"], "could not parse");
}

#[test]
fn bench_reseed_rejects_bad_numeric_flags() {
    let exe = env!("CARGO_BIN_EXE_bench_reseed");
    for flag in ["--scale", "--chains", "--prpg"] {
        assert_usage_error(exe, &[flag, "0"], "positive integer");
        assert_usage_error(exe, &[flag, "x"], "could not parse");
    }
    assert_usage_error(exe, &["--random", "x"], "could not parse");
    assert_usage_error(exe, &["--seed", "-3"], "could not parse");
    assert_usage_error(exe, &["--backtrack"], "expects a value");
}
