#!/usr/bin/env python3
"""Self-test for every gate rule in check_regression.py.

Takes the committed serve baseline, injects synthetic regressions into a
copy (p99 latencies tripled, drop rate +0.5, telemetry overhead 25%,
adapted-clone RAM per 10k sessions x10, overload shed rate +0.5,
degraded-over-steady p99 ratio blown to 10x, recovered_within_window
flipped to false, the shard sweep's shard_p99_scaling_ok flipped to
false, the churn storm's leaked_in_flight gauge set to a nonzero
count, speedups halved, losses shifted by 0.1, a gated key deleted) and
asserts the gate exits non-zero with a REGRESSION line for each; the
committed DSP baseline gets its detection counts shifted by 10%.  Then
it replays each baseline against itself and asserts a clean pass.  This
is the "demonstrated gate" required by the observability and
overload-hardening PRs: proof the CI step would actually catch a
tail-latency, backpressure, or degradation-ladder regression, not just
parse the JSON.

Usage:  test_regression_gates.py [BASELINE]
        (default: bench/baselines/BENCH_serve_smoke.json next to this file)

Exits 0 when the gate behaves, 1 with a diagnostic when it does not.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(HERE, "check_regression.py")
DEFAULT_BASELINE = os.path.join(HERE, "baselines", "BENCH_serve_smoke.json")
DSP_BASELINE = os.path.join(HERE, "baselines", "BENCH_dsp.smoke.json")


def run_gate(baseline_path, fresh_path):
    proc = subprocess.run(
        [sys.executable, CHECKER, baseline_path, fresh_path],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def mutate(node, fn):
    """Applies fn(key, value) -> new value to every numeric leaf."""
    if isinstance(node, dict):
        for k, v in node.items():
            if isinstance(v, (dict, list)):
                mutate(v, fn)
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                node[k] = fn(k, v)
    elif isinstance(node, list):
        for item in node:
            mutate(item, fn)


def inject_p99(doc):
    mutate(doc, lambda k, v: v * 3.0 + 2.0 if k.endswith("p99_ms") else v)


def inject_drops(doc):
    mutate(doc, lambda k, v: v + 0.5 if "drop_rate" in k else v)


def inject_overhead(doc):
    mutate(doc, lambda k, v: 25.0 if "overhead_pct" in k else v)


def inject_ram(doc):
    # A clone-eviction regression: resident RAM per 10k adapting sessions
    # balloons (as if eviction stopped honouring the budget).
    mutate(doc, lambda k, v: v * 10.0
           if "ram_mb_per_10k_sessions" in k else v)


def inject_shed(doc):
    # The degradation ladder starts throwing away far more admitted work
    # at the same 4x offered load.
    mutate(doc, lambda k, v: v + 0.5 if "shed_rate" in k else v)


def inject_degraded_ratio(doc):
    # Deadline shedding stops bounding the admitted-frame tail: p99 under
    # overload blows out to 10x steady state, past the absolute 2x cap.
    mutate(doc, lambda k, v: 10.0 if "over_steady" in k else v)


def inject_leak(doc):
    # The churn storm leaves frames stuck on the in-flight gauge after
    # every session closed — an open/migrate/close accounting leak.
    mutate(doc, lambda k, v: 3 if "leaked" in k else v)


def inject_speedup(doc):
    mutate(doc, lambda k, v: v * 0.5 if "speedup" in k else v)


def inject_loss(doc):
    mutate(doc, lambda k, v: v + 0.1
           if "loss" in k and "speedup" not in k else v)


def inject_detections(doc):
    # Counts large enough that a 10% shift clears the +-2 absolute floor.
    mutate(doc, lambda k, v: round(v * 1.1) + 3
           if "detection" in k and "match" not in k else v)


def drop_key(node, key_substr):
    """Deletes the first key containing key_substr; returns whether it
    found one."""
    if isinstance(node, dict):
        for k in list(node):
            if key_substr in k:
                del node[k]
                return True
            if drop_key(node[k], key_substr):
                return True
    elif isinstance(node, list):
        return any(drop_key(item, key_substr) for item in node)
    return False


def flip_flags(node, key_substr):
    """Flips boolean leaves whose key contains key_substr (mutate() skips
    bools by design, so equivalence-flag flips need their own walker)."""
    if isinstance(node, dict):
        for k, v in node.items():
            if isinstance(v, (dict, list)):
                flip_flags(v, key_substr)
            elif isinstance(v, bool) and key_substr in k:
                node[k] = not v
    elif isinstance(node, list):
        for item in node:
            flip_flags(item, key_substr)


def main():
    baseline_path = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_BASELINE
    with open(baseline_path) as f:
        baseline = json.load(f)

    failures = []

    def check(name, doc, want_fail, want_text=None, base=baseline_path):
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False) as tmp:
            json.dump(doc, tmp)
            path = tmp.name
        try:
            rc, out = run_gate(base, path)
            if want_fail and rc != 1:
                failures.append(f"{name}: expected exit 1, got {rc}\n{out}")
            elif not want_fail and rc != 0:
                failures.append(f"{name}: expected exit 0, got {rc}\n{out}")
            elif want_text and want_text not in out:
                failures.append(
                    f"{name}: gate tripped but not on the injected field "
                    f"(no '{want_text}' in output)\n{out}")
            else:
                print(f"ok: {name}")
        finally:
            os.unlink(path)

    check("clean baseline passes", copy.deepcopy(baseline), want_fail=False)

    doc = copy.deepcopy(baseline)
    inject_p99(doc)
    check("injected p99 regression caught", doc, want_fail=True,
          want_text="p99 latency")

    doc = copy.deepcopy(baseline)
    inject_drops(doc)
    check("injected drop-rate regression caught", doc, want_fail=True,
          want_text="drop rate")

    doc = copy.deepcopy(baseline)
    inject_overhead(doc)
    check("injected telemetry overhead caught", doc, want_fail=True,
          want_text="overhead")

    doc = copy.deepcopy(baseline)
    inject_ram(doc)
    check("injected clone-RAM regression caught", doc, want_fail=True,
          want_text="adapted-clone RAM")

    doc = copy.deepcopy(baseline)
    inject_shed(doc)
    check("injected shed-rate regression caught", doc, want_fail=True,
          want_text="shed rate")

    doc = copy.deepcopy(baseline)
    inject_degraded_ratio(doc)
    check("injected degraded-p99 blowout caught", doc, want_fail=True,
          want_text="degraded-mode p99")

    doc = copy.deepcopy(baseline)
    inject_leak(doc)
    check("injected in-flight leak caught", doc, want_fail=True,
          want_text="leak counter")

    doc = copy.deepcopy(baseline)
    flip_flags(doc, "recovered")
    check("flipped recovery flag caught", doc, want_fail=True,
          want_text="equivalence flag")

    doc = copy.deepcopy(baseline)
    flip_flags(doc, "scaling_ok")
    check("flipped shard-scaling flag caught", doc, want_fail=True,
          want_text="equivalence flag")

    doc = copy.deepcopy(baseline)
    inject_speedup(doc)
    check("injected speedup drop caught", doc, want_fail=True,
          want_text="speedup")

    doc = copy.deepcopy(baseline)
    inject_loss(doc)
    check("injected loss drift caught", doc, want_fail=True,
          want_text="loss")

    doc = copy.deepcopy(baseline)
    if not drop_key(doc, "p99_ms"):
        failures.append("baseline has no p99_ms key to delete")
    check("missing gated key caught", doc, want_fail=True,
          want_text="missing from fresh run")

    with open(DSP_BASELINE) as f:
        dsp = json.load(f)
    check("clean DSP baseline passes", copy.deepcopy(dsp), want_fail=False,
          base=DSP_BASELINE)
    doc = copy.deepcopy(dsp)
    inject_detections(doc)
    check("injected detection-count drift caught", doc, want_fail=True,
          want_text="detection count", base=DSP_BASELINE)

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("regression-gate self-test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
