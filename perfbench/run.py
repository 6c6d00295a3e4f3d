#!/usr/bin/env python3
"""Build the RAMP benchmark driver from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload static_sweep --seed 1 \
        --seconds 20 --trace 0

The driver (perfbench/driver, built with perfbench/CMakeLists.txt
against ../src) goes to $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Build output goes to stderr. The driver's stdout
is relayed; its last line, the JSON result, is this script's last line.
--selftest runs the driver's own checks instead of a workload.

Exit codes: 0 with a result line; 2 when the sources are missing or the
build fails; the driver's code when it fails; 3 on a timeout.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_step(cmd, timeout):
    """Run one build command with its output on stderr."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}", 3)
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def build():
    """Configure once, then build the driver (a no-op when current)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            run_step(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        run_step(["cmake", "--build", str(out), "--target",
                  "ramp_perfbench", "-j", jobs], BUILD_TIMEOUT_S)
    binary = out / "ramp_perfbench"
    if not binary.is_file():
        fail(f"build produced no driver at {binary}")
    return binary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    return args


def driver_command(binary, args):
    if args.selftest:
        cmd = [str(binary), "--selftest"]
    else:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out", str(ROOT / ".bench_out")]
    return cmd


def main(argv):
    args = parse_args(argv)
    binary = build()
    proc = subprocess.Popen(driver_command(binary, args),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s", 3)
    lines = stdout.splitlines()
    if args.selftest:
        print(stdout, end="")
        return proc.returncode
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}", proc.returncode)
    if not lines:
        fail("driver printed no result", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver's last line is not JSON", 1)
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}", 1)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
