"""Self-tests of the benchmark's output check and failure accounting.

    python3 perfbench/selftest.py

1. A perturbed count: ``count_in_tube`` returns one point too many on the
   parabola lattice query at N = 16, d = 1.  The check must fail that
   operation, count it, and clear ``correct``.
2. A raised ``CapExceeded``: ``m_fold_sumset`` raises on every GAP slot, so
   every Plünnecke operation of ``gap-energy`` fails (and the energy steps
   after it do not).
3. Short mode (one set-up probe, one pass of each kind) runs every
   workload end to end, with ``correct`` true.

Exits 0 when all hold; prints one line per check.
"""

import dataclasses
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def failed_share_is(result: dict, failed: int) -> bool:
    share = 1 - result["metrics"]["correct_share"]["value"]
    return math.isclose(share, failed / result["attempted"])


def check(label: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    return ok


def perturbed_count() -> bool:
    from curvecount import tube
    original = tube.count_in_tube

    def perturbed(query, keep_points=True):
        res = original(query, keep_points)
        # only the parabola lattice query at N = 16, d = 1
        if query.curve.kind == "polynomial-graph" \
                and getattr(query.source, "N", None) == 16 \
                and query.delta == Fraction(1, 256):
            return dataclasses.replace(res, count=res.count + 1)
        return res

    tube.count_in_tube = perturbed
    try:
        result = run.measure("tube-sweep", 1, 0, False, short=True)
    finally:
        tube.count_in_tube = original
    # the perturbed operation plus the known defect (the boundary case)
    return check("perturbed count", result["failed"] == 2
                 and not result["correct"]
                 and failed_share_is(result, 2),
                 f"failed={result['failed']} of {result['attempted']} "
                 f"(expected 2), correct={result['correct']}")


def raised_cap() -> bool:
    from curvecount import pointsets
    import workloads
    original = pointsets.m_fold_sumset

    def capped(A, m, cap=None):
        # every GAP slot has at least 96 points; warm-up and campaign sets
        # are smaller and run normally
        if len(A) >= 90:
            raise pointsets.CapExceeded("injected by the self-test")
        return original(A, m, cap)

    pointsets.m_fold_sumset = capped
    try:
        result = run.measure("gap-energy", 1, 0, False, short=True)
    finally:
        pointsets.m_fold_sumset = original
    slots = len(workloads.GAP_SLOTS)
    return check("raised CapExceeded", result["failed"] == slots
                 and not result["correct"]
                 and failed_share_is(result, slots),
                 f"failed={result['failed']} of {result['attempted']} "
                 f"(expected {slots}), correct={result['correct']}")


def short_mode() -> bool:
    ok = True
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.measure(workload, 1, 0, trace, short=True)
            ok &= check(f"short {workload} trace={int(trace)}",
                        result["correct"] and result["attempted"] > 0,
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']} "
                        f"metrics={len(result['metrics'])}")
    return ok


def main() -> int:
    run.load_library()
    results = [perturbed_count(), raised_cap(), short_mode()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
