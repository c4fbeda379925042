#!/usr/bin/env python3
"""Builds mcd-cli and mcd-perf from source, then runs mcd-perf.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-cold --seed 5 --seconds 20 --trace 0

Every argument is passed to mcd-perf unchanged. Both binaries are built
with `cargo build --release` into $CARGO_TARGET_DIR (default
`.bench_build`), so mcd-perf finds mcd-cli beside itself. Build output goes
to stderr; stdout carries only mcd-perf's report, whose last line is the
JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    status = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
    if status != 0:
        sys.exit(f"run.py: `{' '.join(cmd)}` failed with status {status}")


def main():
    target = os.path.join(os.getcwd(), os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    build(os.path.join(ROOT, "Cargo.toml"), "--bin", "mcd-cli")
    build(os.path.join(HERE, "Cargo.toml"))
    exe = os.path.join(target, "release", "mcd-perf")
    os.execv(exe, [exe, *sys.argv[1:]])


if __name__ == "__main__":
    main()
