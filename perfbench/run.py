#!/usr/bin/env python3
"""Builds the benchmark package and runs it with the given arguments.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1-x --seed 42 --seconds 30 --trace 0

The build is `cargo build --release --locked --offline` on
perfbench/Cargo.toml; cargo's output goes to standard error and
CARGO_TARGET_DIR is honoured. The benchmark's own standard output is
passed through, so its last line is the result object. The exit code is
the benchmark's, or non-zero without a result when the build fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "lbist-perfbench"
# The benchmark bounds its own run; this only stops a hung process.
RUN_TIMEOUT_S = 170


def build():
    """Builds the package and returns the benchmark executable's path."""
    proc = subprocess.run(
        [
            "cargo", "build", "--release", "--locked", "--offline",
            "--manifest-path", MANIFEST, "--message-format=json-render-diagnostics",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"error: building {MANIFEST} failed (exit {proc.returncode})")
    executable = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("target", {}).get("name") == BINARY:
            executable = msg.get("executable") or executable
    if not executable:
        sys.exit("error: cargo reported no benchmark executable")
    return executable


def main():
    executable = build()
    try:
        proc = subprocess.run([executable, *sys.argv[1:]], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"error: the benchmark ran longer than {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
