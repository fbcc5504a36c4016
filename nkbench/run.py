#!/usr/bin/env python3
"""Builds nkbench from the checkout it runs in and runs one workload.

Usage, from the root of the repository:

    python3 nkbench/run.py --workload <kv_udp_open|http_short_closed|bulk_txrx> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/nkbench (default .bench_build/nkbench);
build output goes to stderr so the last line of stdout stays the benchmark's
JSON result. Exits nonzero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "nkbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("nkbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "nkbench")
    if not build(build_dir):
        return 1
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "nkbench")] + sys.argv[1:] + ["--spans-dir", spans_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("nkbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
