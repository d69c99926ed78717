#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

    python3 phibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds phibench/ (which builds the phi library from the
repository root) into .bench_build/phibench as a Release build, then
runs one workload. Build output goes to stderr; the benchmark's stdout
is passed through, so its last line is the JSON result. The exit status
is the benchmark's: non-zero when the build fails or an output check
fails. Extra arguments after the four above (for example
--inject-fault) are handed to the benchmark binary unchanged.

With --trace 1 the workload runs twice, untraced and then traced, with
the same seed and length: the traced run reports its rate against the
untraced one as trace.overhead_pct. Only the traced run's output is
passed through.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "phibench")
OUT = os.path.join(".bench_build", "out")
BINARY = os.path.join(BUILD, "phibench")

# A run (both runs of a traced one) must end within 180 s; a first run
# also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    """Configure once, then (re)build; False on any failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "phibench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, env=env)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"phibench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"phibench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def run(cmd, deadline, **kwargs):
    """Run the benchmark binary; None if it outlives the run's deadline."""
    try:
        return subprocess.run(cmd, timeout=max(1, deadline - time.monotonic()),
                              **kwargs)
    except subprocess.TimeoutExpired:
        print("phibench: run timed out", file=sys.stderr)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    os.chdir(ROOT)
    if not build():
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", OUT]
    if args.trace == "1":
        # The untraced run of the same seed and length, whose rate the
        # traced run's is compared with; its output goes to stderr.
        done = run(cmd + ["--trace", "0"], deadline, stdout=subprocess.PIPE,
                   text=True)
        if done is None:
            return 1
        sys.stderr.write(done.stdout)
        if done.returncode != 0:
            return done.returncode
        rate = json.loads(done.stdout.splitlines()[-1])["metrics"][
            "served_per_s"]["value"]
        cmd += ["--baseline-rate", repr(rate)]
    done = run(cmd + ["--trace", args.trace] + extra, deadline)
    return 1 if done is None else done.returncode


if __name__ == "__main__":
    sys.exit(main())
