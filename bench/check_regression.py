#!/usr/bin/env python3
"""CI perf-regression gate for the committed bench JSONs.

Compares a freshly generated bench JSON (BENCH_train.json /
BENCH_serve.json, --smoke runs) against the committed baseline and fails
on:

  * any *speedup* ratio dropping more than --max-drop (default 15%) below
    the baseline — ratios (capped vs full-resident clone RAM, batched vs
    independent serving) are what the PRs promised and they are robust to
    the absolute speed of the CI runner, unlike raw frames/sec;
  * any *loss* field drifting more than --loss-tol (default 5e-3) from the
    baseline — losses are deterministic for a fixed seed and scale, so
    drift beyond compiler-rounding noise means the arithmetic changed;
  * any *detection* count drifting more than --det-tol (default 2%, with
    a +-2 absolute floor) from the baseline, and any equivalence flag
    (detections_match / rd_bit_identical) regressing at all.  The
    equivalence flags compare the planned and reference paths inside ONE
    binary, so they are hard-gated: a false flag is a correctness bug.
    Counts additionally depend on the host libm (the simulator's sin/cos)
    and so get the small cross-host allowance; real CFAR regressions move
    counts by far more than an ulp's worth of scene perturbation.
  * any *p99 latency* (keys ending in "p99_ms": end-to-end and per-stage
    quantiles from the serve telemetry layer) growing
    beyond baseline * --p99-factor (default 2x) AND by more than
    --p99-floor-ms (default 0.5 ms) absolutely.  Latencies scale with
    host speed, so the gate is multiplicative with an absolute floor:
    a tail that doubles past the floor is a scheduling/batching
    regression, not runner noise (CI runners are no slower than the
    baseline container).
  * any *drop rate* (keys containing "drop_rate") rising more than
    --drop-tol (default 0.02) absolutely above the baseline — the serve
    bench's preloaded queues are sized to drop nothing, so a rising drop
    rate means the backpressure behaviour changed.
  * the telemetry *overhead* (keys containing "overhead_pct") exceeding
    --overhead-tol percent (default 5; absolute cap, not baseline-
    relative) — the per-stage stats layer must stay ~free (<= 2% by
    design; the tolerance adds shared-core noise headroom).
  * any *adapted-clone RAM* key (containing "ram_mb_per_10k_sessions")
    growing more than --ram-tol (default 10%) above the baseline —
    resident clone RAM is deterministic (resident clones x bytes per
    clone), so growth means the clone store's eviction budget or its
    accounting regressed.  The capped-over-full reduction ratio is
    additionally gated through the generic speedup rule
    (clone_ram_reduction_speedup_x).
  * any *shed rate* (keys containing "shed_rate") rising more than
    --shed-tol (default 0.15) absolutely above the baseline — the
    overload sweep's offered load is fixed relative to serving capacity,
    so a rising shed rate at the same offered_x means the degradation
    ladder is throwing away more admitted work than it used to.
  * the *degraded-over-steady p99 ratio* (keys containing "over_steady")
    exceeding --degraded-cap (default 2.0; absolute cap, not baseline-
    relative) — the overload-hardening contract is that deadline shedding
    keeps the admitted-frame p99 within 2x steady state at 4x load.
  * any *recovered* flag (keys containing "recovered") regressing at all
    — the ladder must return to full fidelity within one detector window
    of the load dropping; this is hard-gated like the bit-identity flags.
  * any *leaked* counter (keys containing "leaked", e.g. the churn
    storm's leaked_in_flight) reading anything but zero — the in-flight
    gauge must return exactly to zero once every session is closed, so a
    leak is an accounting bug (lost or double-counted frames), never
    host noise.  Hard-gated with no tolerance, like the bit-identity
    flags.
  * any *scaling_ok* flag (the shard sweep's tail-sanity bit) regressing
    at all — sharding the scheduler must not blow up the end-to-end p99.
    The bench emits it vacuously true on hosts that cannot run the
    shards in parallel (< 4 hardware threads), so the gate is meaningful
    exactly where the measurement is.  The sweep's per-row p99s are
    additionally gated through the generic p99 rule, matched on the
    "shards" identity key.

Rows inside JSON arrays are matched by their identity keys (threads,
sessions, batch, stage, cap, shards) so a CI host with more cores than
the baseline host simply contributes extra, ungated rows.

Usage:
  check_regression.py BASELINE FRESH [--max-drop 0.15] [--loss-tol 5e-3]
"""

import argparse
import json
import sys
from collections import namedtuple

IDENTITY_KEYS = ("threads", "sessions", "batch", "stage", "cap", "shards")


def row_key(row):
    return tuple((k, row[k]) for k in IDENTITY_KEYS if k in row)


def check_leak(base, fresh, args):
    if fresh != 0:
        return (f"leak counter reads {fresh} (must be exactly 0) — the "
                "in-flight accounting lost or double-counted frames across "
                "open/migrate/close")


def check_detection(base, fresh, args):
    allowance = max(2.0, args.det_tol * abs(base))
    if abs(fresh - base) > allowance:
        return (f"detection count {fresh} drifted from baseline {base} by "
                f"{abs(fresh - base)} (allowance {allowance:.1f}) — "
                "CFAR/FFT arithmetic changed")


def check_speedup(base, fresh, args):
    floor = base * (1.0 - args.max_drop)
    if fresh < floor:
        return (f"speedup {fresh:.3f} dropped below {floor:.3f} (baseline "
                f"{base:.3f}, max drop {args.max_drop:.0%})")


def check_loss(base, fresh, args):
    if abs(fresh - base) > args.loss_tol:
        return (f"loss {fresh:.6f} drifted from baseline {base:.6f} by "
                f"{abs(fresh - base):.6f} (tol {args.loss_tol})")


def check_p99(base, fresh, args):
    ceiling = base * args.p99_factor
    if fresh > ceiling and fresh - base > args.p99_floor_ms:
        return (f"p99 latency {fresh:.3f} ms blew past {ceiling:.3f} ms "
                f"(baseline {base:.3f} ms x {args.p99_factor:g}, absolute "
                f"floor {args.p99_floor_ms:g} ms) — tail latency regression")


def check_drop_rate(base, fresh, args):
    if fresh > base + args.drop_tol:
        return (f"drop rate {fresh:.4f} rose above baseline {base:.4f} + "
                f"{args.drop_tol:g} — backpressure behaviour changed")


def check_shed_rate(base, fresh, args):
    if fresh > base + args.shed_tol:
        return (f"shed rate {fresh:.4f} rose above baseline {base:.4f} + "
                f"{args.shed_tol:g} — the degradation ladder sheds more "
                "admitted work at the same offered load")


def check_degraded_ratio(base, fresh, args):
    if fresh > args.degraded_cap:
        return (f"degraded-mode p99 is {fresh:.2f}x steady state, above the "
                f"absolute cap of {args.degraded_cap:g}x — deadline shedding "
                "no longer bounds tail latency under overload")


def check_overhead(base, fresh, args):
    if fresh > args.overhead_tol:
        return (f"telemetry overhead {fresh:.2f}% exceeds the absolute cap "
                f"of {args.overhead_tol:g}% — the stats layer is no longer "
                "~free")


def check_ram_budget(base, fresh, args):
    # Resident clone RAM is deterministic (clones * bytes-per-clone), so
    # any growth beyond the small tolerance means the eviction budget or
    # the accounting changed.
    if fresh > base * (1.0 + args.ram_tol):
        return (f"adapted-clone RAM {fresh:.1f} MB/10k sessions grew past "
                f"baseline {base:.1f} * {1.0 + args.ram_tol:g} — clone "
                "eviction budget regression")


def check_flag(base, fresh, args):
    if fresh != base:
        return (f"equivalence flag changed from {base} to {fresh} "
                "(bit-identity regression)")


# One gate per field class.  `matches` takes the JSON key; `flag` says
# whether the rule gates boolean leaves (else numeric ones); `check`
# returns the failure text or None.  A leaf is gated by the FIRST rule
# that matches it, so the order below is the precedence order.  A
# baseline key any rule matches must also be present in the fresh run.
Rule = namedtuple("Rule", "matches flag check")
RULES = (
    Rule(lambda k: "leaked" in k, False, check_leak),
    Rule(lambda k: "detection" in k and "match" not in k, False,
         check_detection),
    Rule(lambda k: "speedup" in k, False, check_speedup),
    Rule(lambda k: "loss" in k and "speedup" not in k, False, check_loss),
    Rule(lambda k: k.endswith("p99_ms"), False, check_p99),
    Rule(lambda k: "drop_rate" in k, False, check_drop_rate),
    Rule(lambda k: "shed_rate" in k, False, check_shed_rate),
    Rule(lambda k: "over_steady" in k, False, check_degraded_ratio),
    Rule(lambda k: "overhead_pct" in k, False, check_overhead),
    Rule(lambda k: "ram_mb_per_10k_sessions" in k, False, check_ram_budget),
    Rule(lambda k: any(s in k for s in ("match", "identical", "recovered",
                                        "scaling_ok")), True, check_flag),
)


def compare(baseline, fresh, path, args, failures, checked):
    if isinstance(baseline, dict):
        if not isinstance(fresh, dict):
            failures.append(f"{path}: fresh value is not an object")
            return
        for key, base_val in baseline.items():
            if key not in fresh:
                if any(rule.matches(key) for rule in RULES):
                    failures.append(f"{path}.{key}: missing from fresh run")
                continue
            compare(base_val, fresh[key], f"{path}.{key}", args, failures,
                    checked)
    elif isinstance(baseline, list):
        if not isinstance(fresh, list):
            failures.append(f"{path}: fresh value is not an array")
            return
        if baseline and isinstance(baseline[0], dict):
            fresh_by_key = {row_key(r): r for r in fresh
                            if isinstance(r, dict)}
            for row in baseline:
                key = row_key(row)
                match = fresh_by_key.get(key)
                if match is None:
                    # A baseline row the CI host cannot reproduce (e.g. a
                    # thread count beyond its cores) is skipped, not failed.
                    print(f"note: {path}{list(key)}: no matching fresh row, "
                          "skipped")
                    continue
                compare(row, match, f"{path}{list(key)}", args, failures,
                        checked)
    elif isinstance(baseline, (bool, int, float)):
        key = path.rsplit(".", 1)[-1]
        flag = isinstance(baseline, bool)
        rule = next((r for r in RULES if r.flag == flag and r.matches(key)),
                    None)
        if rule is not None:
            checked.append(path)
            failure = rule.check(baseline, fresh, args)
            if failure:
                failures.append(f"{path}: {failure}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--max-drop", type=float, default=0.15,
                        help="max allowed fractional speedup drop")
    parser.add_argument("--loss-tol", type=float, default=5e-3,
                        help="max allowed absolute loss drift")
    parser.add_argument("--det-tol", type=float, default=0.02,
                        help="max allowed fractional detection-count drift "
                             "(with a +-2 absolute floor)")
    parser.add_argument("--p99-factor", type=float, default=2.0,
                        help="max allowed p99 latency growth as a multiple "
                             "of the baseline")
    parser.add_argument("--p99-floor-ms", type=float, default=0.5,
                        help="p99 growth below this absolute delta (ms) is "
                             "never flagged, whatever the ratio")
    parser.add_argument("--drop-tol", type=float, default=0.02,
                        help="max allowed absolute drop-rate increase")
    parser.add_argument("--overhead-tol", type=float, default=5.0,
                        help="absolute cap (percent) on the measured "
                             "telemetry overhead")
    parser.add_argument("--ram-tol", type=float, default=0.10,
                        help="max allowed fractional growth of the "
                             "RAM-per-10k-adapting-sessions keys")
    parser.add_argument("--shed-tol", type=float, default=0.15,
                        help="max allowed absolute shed-rate increase "
                             "(shed rate moves with host pass-time jitter: "
                             "slower passes age frames past the deadline)")
    parser.add_argument("--degraded-cap", type=float, default=2.0,
                        help="absolute cap on the degraded-over-steady "
                             "p99 ratio under the overload sweep")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    failures, checked = [], []
    compare(baseline, fresh, "$", args, failures, checked)

    if not checked:
        print(f"error: no speedup/loss fields found in {args.baseline}")
        return 2
    print(f"checked {len(checked)} gated fields from {args.baseline}")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}")
        return 1
    print("perf-regression gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
