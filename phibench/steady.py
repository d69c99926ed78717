#!/usr/bin/env python3
"""Steadiness and fault checks of the serving benchmark.

    python3 phibench/steady.py [--runs N]
    python3 phibench/steady.py --selftest

The first form runs every workload of BENCHMARK.json N times (default
10), with seeds 1 to N, and prints for every metric its median,
quartiles and quartile spread as a share of the median, next to the
bound BENCHMARK.json sets. The spread of each end-to-end metric except
setup_s should stay below a third of its bound; the share of failed
operations must be identical in every run. On vgg16_* it also prints the
host-speed control (a fixed single-threaded decomposition timed after
every image) and its correlation with served_per_s across the runs.

--selftest runs each workload briefly with one served output corrupted
(--inject-fault) and requires the run to fail its checks, then runs the
benchmark from a directory holding only BENCHMARK.json and phibench/
and requires it to fail without printing a result.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, extra=(), cwd=ROOT, timeout=900):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"] + list(extra)
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done


def spread_table(spec, runs):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in [x["name"] for x in spec["workloads"]]:
        values, shares, control = {}, set(), []
        for seed in range(1, runs + 1):
            code, result, done = run_once(spec, w, seed)
            if code != 0 or result is None or not result["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {code})")
                print(done.stderr[-2000:])
                return 1
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True)
            # The run's own summary line, just above the JSON result.
            summary = done.stdout.strip().splitlines()[-2]
            print("    " + summary, flush=True)
            found = re.search(r"control_p50_ms=([0-9.]+)", summary)
            if found:
                control.append(float(found.group(1)))
        print(f"\n{w}: {runs} runs, failed-share values {sorted(shares)}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  above bound/3"
            print(f"  {name:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.4f} {bounds[name]:>6}{flag}")
        if len(control) == runs > 1:
            q1, med, q3 = statistics.quantiles(control, n=4)
            corr = statistics.correlation(control, values["served_per_s"])
            print(f"  host-speed control: median {med:.4g} ms, spread "
                  f"{(q3 - q1) / med:.4f}, correlation with served_per_s "
                  f"{corr:.3f}")
        print(flush=True)
    return 0


def selftest(spec):
    status = 0
    for w in [x["name"] for x in spec["workloads"]]:
        short = dict(spec, run_seconds=2)
        code, result, _ = run_once(short, w, 1, extra=["--inject-fault"])
        ok = code != 0 and result is not None and not result["correct"]
        print(f"{w}: corrupted output {'rejected' if ok else 'NOT rejected'}"
              f" (exit {code})")
        status |= 0 if ok else 1
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_selftest_") \
            as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path))
        w = spec["workloads"][0]["name"]
        code, result, _ = run_once(spec, w, 1, cwd=bare, timeout=180)
        ok = code != 0 and result is None
        print(f"bare directory: {'refused' if ok else 'NOT refused'} "
              f"(exit {code})")
        status |= 0 if ok else 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.selftest:
        return selftest(spec)
    return spread_table(spec, args.runs)


if __name__ == "__main__":
    sys.exit(main())
