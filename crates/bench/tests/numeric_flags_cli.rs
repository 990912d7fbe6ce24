//! Numeric flags of the experiment binaries, exercised against the real
//! binaries: a missing, unparsable or zero value is a usage error
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

#[test]
fn bench_faultsim_rejects_bad_numeric_flags() {
    let exe = env!("CARGO_BIN_EXE_bench_faultsim");
    for flag in ["--scale", "--batches"] {
        assert_usage_error(exe, &[flag, "0"], "positive integer");
        assert_usage_error(exe, &[flag, "abc"], "could not parse");
    }
    assert_usage_error(exe, &["--lanes", "abc"], "could not parse");
    assert_usage_error(exe, &["--lanes", "96"], "must be 64, 128, 256 or 512");
    assert_usage_error(exe, &["--out"], "expects a value");
}

#[test]
fn bench_serve_rejects_bad_numeric_flags() {
    let exe = env!("CARGO_BIN_EXE_bench_serve");
    for flag in ["--scale", "--short-jobs"] {
        assert_usage_error(exe, &[flag, "0"], "positive integer");
        assert_usage_error(exe, &[flag, "x"], "could not parse");
    }
    assert_usage_error(exe, &["--out"], "expects a value");
}

#[test]
fn ablation_tpi_rejects_bad_numeric_flags() {
    let exe = env!("CARGO_BIN_EXE_ablation_tpi");
    for flag in ["--scale", "--patterns"] {
        assert_usage_error(exe, &[flag, "0"], "positive integer");
        assert_usage_error(exe, &[flag, "x"], "could not parse");
    }
    assert_usage_error(exe, &["--scale"], "expects a value");
}

#[test]
fn ablation_phase_rejects_bad_numeric_flags() {
    let exe = env!("CARGO_BIN_EXE_ablation_phase");
    for flag in ["--scale", "--batches"] {
        assert_usage_error(exe, &[flag, "0"], "positive integer");
        assert_usage_error(exe, &[flag, "x"], "could not parse");
    }
    assert_usage_error(exe, &["--batches"], "expects a value");
}

#[test]
fn ablation_capture_rejects_bad_numeric_flags() {
    let exe = env!("CARGO_BIN_EXE_ablation_capture");
    for flag in ["--scale", "--batches"] {
        assert_usage_error(exe, &[flag, "0"], "positive integer");
        assert_usage_error(exe, &[flag, "x"], "could not parse");
    }
    assert_usage_error(exe, &["--scale", "-2"], "could not parse");
}
