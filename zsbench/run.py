#!/usr/bin/env python3
"""zsbench: the zombiescope benchmark, one workload per invocation.

    python3 zsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds zsbench/ (which compiles the
checkout's src/) into .bench_build/zsbench, has zsbench_gen write the
seeded inputs, then runs the measured program on them. The measured
program's JSON result is the last line of stdout; everything else goes
to stderr. Exits non-zero on a build failure, a wrong output or a
timeout. See zsbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "zsbench")
WORKLOADS = ("batch_archive", "live_saturated", "live_paced", "wire_replay")


def log(message):
    print(f"[zsbench] {message}", file=sys.stderr, flush=True)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group, killed whole on timeout.
    Child output goes to stderr unless captured; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    return proc.returncode, out


def check(cmd, timeout):
    code, _ = run(cmd, timeout)
    if code != 0:
        raise RuntimeError(f"exit {code}: {' '.join(cmd)}")


def build(timeout):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no zombiescope sources at {ROOT}/src")
    started = time.monotonic()
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        check(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout)
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", BUILD, "--target", "zsbench", "zsbench_gen", "-j", jobs],
          timeout - (time.monotonic() - started))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build(timeout=850)
        # Past the (first-run) build, a run must end within 180 s.
        started = time.monotonic()
        inputs = os.path.join(BUILD, "inputs")
        os.makedirs(inputs, exist_ok=True)
        check([os.path.join(BUILD, "zsbench_gen"), "--seed", str(args.seed), "--out", inputs],
              timeout=60)
        code, out = run([os.path.join(BUILD, "zsbench"), "--workload", args.workload,
                         "--inputs", inputs, "--seconds", str(args.seconds),
                         "--trace", str(args.trace)],
                        timeout=170 - (time.monotonic() - started), capture=True)
    except (OSError, RuntimeError) as error:
        log(f"error: {error}")
        return 1
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"measured program failed (exit {code})")
        return code or 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
