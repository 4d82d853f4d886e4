#!/usr/bin/env python3
"""apres-sim benchmark runner.

Builds the benchmark (perfbench/CMakeLists.txt, which builds the
simulator from ../src) into .bench_build/ and runs one workload:

    python3 perfbench/run.py --workload figure-suite --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Other modes:

    python3 perfbench/run.py --self-test
        run the output checks against doctored results; exit 0 when
        every doctored result is rejected.
    python3 perfbench/run.py --stability 5 [--workloads a,b] [--seconds S]
        run each workload N times (seeds 1..N) and print, per metric,
        the median, quartiles and (Q3-Q1)/median, the failed share, and
        whether the recorded counts repeated exactly across the runs.

Run it from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ["figure-suite", "fullchip-apres", "serve-replay",
             "explore-campaign"]


def build():
    """Configure once, then build the two binaries the benchmark runs."""
    out = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=out, stderr=out)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "apresbench",
                    "apres_serve", "-j", jobs],
                   check=True, stdout=out, stderr=out)
    os.makedirs(WORK, exist_ok=True)


def commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def bench_command(workload, seed, seconds, trace):
    # Relative paths keep the daemon's AF_UNIX socket path short.
    rel = lambda p: os.path.relpath(p, ROOT)
    return [os.path.join(BUILD, "apresbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
            "--serve-bin", rel(os.path.join(BUILD, "apres", "tools",
                                            "apres_serve")),
            "--work-dir", rel(WORK), "--commit", commit()]


def stability(args):
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    ok = True
    for workload in workloads:
        runs = []
        for seed in range(1, args.stability + 1):
            proc = subprocess.run(
                bench_command(workload, seed, args.seconds, 0), cwd=ROOT,
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            counts = next((l.split(" ", 2)[2] for l in lines
                           if l.startswith("counts ")), "")
            runs.append((seed, result, counts))
            if not result["correct"]:
                print(f"{workload} seed {seed}: checks failed\n{proc.stderr}")
                ok = False
        if not runs:
            continue
        print(f"== {workload}: {len(runs)} runs, {args.seconds} s each")
        for name in runs[0][1]["metrics"]:
            values = [r[1]["metrics"][name]["value"] for r in runs]
            unit = runs[0][1]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:18s} median {med:12.6g} {unit:9s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} (q3-q1)/median {spread:.4f}")
            print("      runs: " + " ".join(f"{v:.6g}" for v in values))
        shares = {r[1]["failed"] / r[1]["attempted"] for r in runs}
        print(f"  failed share: {sorted(shares)}")
        digests = {r[2] for r in runs}
        if len(digests) != 1:
            ok = False
            print("  COUNTS DIFFER across runs:")
            for seed, _, counts in runs:
                print(f"    seed {seed}: {counts}")
        else:
            print("  recorded counts repeat exactly across runs")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--stability", type=int, default=0, metavar="N")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "apresbench"),
                               "--self-test"], cwd=ROOT).returncode
    if args.stability:
        return stability(args)
    if not args.workload:
        ap.error("--workload is required")
    return subprocess.run(bench_command(args.workload, args.seed,
                                        args.seconds, args.trace),
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
