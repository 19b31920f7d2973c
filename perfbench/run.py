#!/usr/bin/env python3
"""Build and run the open-loop serving benchmark.

Run from the root of a FUSE source tree:

    python3 perfbench/run.py --workload clouds_readonly --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the benchmark (and the `fuse` library
it links) into .bench_build/; later calls only rebuild what changed.

An untraced run (--trace 0) starts PROCESSES server processes one after
another, each measuring --seconds / PROCESSES, and reports the median of
their timings: on a shared host a process's speed follows the core it
lands on (the same build and seed land up to 2x apart from one process
to the next), so one process is one sample.  The generator guard applies
to the run's sends pooled over its processes (at most 1% may be later than
the bound, i.e. their p99 within it), so a host stall is not judged on the
few hundred sends of one process.  A traced run (--trace 1) is one process
measuring --seconds.

The last line of standard output is the JSON result; each process's full
report (host metadata, per-metric annotations, blocks, checks) and, for
--trace 1, the Chrome trace go to .bench_build/perfbench-out/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
PROCESSES = 5

# How an untraced run combines its processes' metrics.
COMBINE = {
    "setup_s": statistics.median,
    "latency_p50_ms": statistics.median,
    "server_cpu_ms_per_frame": statistics.median,
    "frames_served_frac": min,
    "pose_mae_cm": statistics.median,
    "peak_rss_mb": max,
}


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def source_rev():
    """The git commit when the tree is a checkout, else a source digest."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    # ccache (picked up by the root CMakeLists when installed) must not
    # write outside the checkout.
    env = dict(os.environ, CCACHE_DISABLE="1",
               CCACHE_DIR=os.path.join(BUILD, "ccache"))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_serve", "perfbench_checks_test"])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own tests instead")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    if not build():
        return 2
    if args.selftest:
        code = subprocess.run([os.path.join(BUILD, "perfbench_checks_test")],
                              timeout=RUN_TIMEOUT_S).returncode
        return code if selftest_pooled_guard() else 1

    env = dict(os.environ, PERFBENCH_SOURCE_REV=source_rev())
    deadline = time.monotonic() + RUN_TIMEOUT_S
    processes = 1 if args.trace else PROCESSES
    results, reports = [], []
    for part in range(processes):
        out_dir = os.path.join(BUILD, "perfbench-out", f"p{part}")
        result = run_process(args, args.seconds / processes, out_dir, env,
                             deadline)
        if result is None:
            return 3
        results.append(result)
        report = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                       f"-trace{args.trace}.json")
        try:
            with open(report) as fh:
                reports.append(json.load(fh)["checks"])
        except (OSError, ValueError, KeyError):
            log(f"no report at {report}")
            return 3
    if args.trace:
        combined = results[0]
    else:
        on_time = generator_on_time(reports)
        if not on_time:
            log("generator late on more than 1% of the sends: run invalid")
        combined = {
            "correct": (all(r["failed"] == 0 and c["balanced"]
                            for r, c in zip(results, reports))
                        and on_time),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        for name, combine in COMBINE.items():
            combined["metrics"][name] = {
                "value": combine([r["metrics"][name]["value"]
                                  for r in results]),
                "unit": results[0]["metrics"][name]["unit"],
            }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def generator_on_time(checks):
    """The generator guard over a run's processes: at most 1% of their
    sends may be later than the bound, i.e. the pooled p99 is within it."""
    sends = sum(c["sends"] for c in checks)
    late = sum(c["late_sends"] for c in checks)
    return late <= 0.01 * sends


def selftest_pooled_guard():
    """The pooled guard passes 1% late sends and catches one more, also
    when one process holds them all."""
    ok = (generator_on_time([{"sends": 500, "late_sends": 5},
                             {"sends": 500, "late_sends": 5}])
          and not generator_on_time([{"sends": 500, "late_sends": 0},
                                     {"sends": 500, "late_sends": 11}]))
    print(f"{'ok  ' if ok else 'FAIL'}  pooled generator guard")
    return ok


def run_process(args, seconds, out_dir, env, deadline):
    """One server process; its JSON result, or None if it printed none."""
    cmd = [os.path.join(BUILD, "perfbench_serve"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        # subprocess.run kills and reaps the child on timeout.
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from {' '.join(cmd)} (exit {proc.returncode})")
        return None


if __name__ == "__main__":
    sys.exit(main())
