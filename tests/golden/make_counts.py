"""Golden root counts: the survey histograms of the curves the benchmark
surveys, ``_count`` and ``mvt_consistency`` on seeded hyperplanes, and the
``certify_nondegenerate`` status of the benchmark's Wronskian chains.

    PYTHONPATH=src python3 tests/golden/make_counts.py

writes ``counts.json`` next to this script.  ``tests/test_golden.py``
recomputes ``compute()`` and compares it with the file, so a count that
changes by one, in any histogram bin, fails it.
"""

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

from curvecount import (Hyperplane, certify_nondegenerate, circle_arc,
                        lift_curve, make_Ms, moment_curve, mvt_consistency,
                        parabola, polynomial_curve, survey_intersections)
from curvecount.hyperplanes import _count

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "counts.json"

# (curve, trials): the benchmark's surveys, a partial arc and a lifted circle
SURVEYS = {"parabola": 400, "moment3": 250, "moment4": 150, "moment5": 150,
           "circle": 40, "arc": 40, "circle^M2": 20}
MVT_CURVES = ("parabola", "moment3", "moment4", "moment5")
MVT_PLANES = 26   # per curve: half drawn at random, half through chosen points
CHAINS = [(f"moment{n}", None) for n in (2, 3, 4, 5)]
CHAINS += [(base, s) for base in ("parabola", "cubic", "circle") for s in (1, 2, 3)]
CERTIFY_GRID = 256


def _curve(name: str):
    if name == "parabola":
        return parabola()
    if name == "cubic":
        return polynomial_curve([[0, 1], [0, 0, 0, 1]])
    if name == "circle":
        return circle_arc()
    if name == "arc":
        return circle_arc(F(1, 7), F(5, 9))
    if name == "circle^M2":
        return lift_curve(circle_arc(), make_Ms(2))
    return moment_curve(int(name[len("moment"):]))


def _planes(rng: random.Random, n: int) -> list:
    """Planes with coefficients k/2²⁴, as the surveys draw them, and planes
    ∏(t − r) = c through n parameters r ∈ {0, ⅛, …, 1}: repeated r make
    tangencies, r = 0 and 1 sit on the domain's ends, and c = 0 keeps the
    roots rational."""
    out = []
    while len(out) < MVT_PLANES // 2:
        a = [rng.randint(-1 << 24, 1 << 24) for _ in range(n + 1)]
        if any(a[1:]):
            out.append(Hyperplane(a[0], a[1:]))
    while len(out) < MVT_PLANES:
        prod = [F(1)]   # ∏(t − r), constant term first
        for _ in range(n):
            r = F(rng.randint(0, 8), 8)
            prod = [a - r * b for a, b in zip([F(0)] + prod, prod + [F(0)])]
        c = rng.choice((0, 0, F(rng.randint(-9, 9), 997)))
        out.append(Hyperplane(c - prod[0], prod[1:]))
    return out


def compute() -> dict:
    surveys = {}
    for seed, (name, trials) in enumerate(SURVEYS.items()):
        s = survey_intersections(_curve(name), trials, seed)
        surveys[name] = {"max_roots": s.max_roots,
                         "histogram": {str(k): v for k, v in sorted(s.histogram.items())}}
    rng = random.Random(25)
    mvt = {}
    for name in MVT_CURVES:
        curve = _curve(name)
        mvt[name] = [[str(p.a0), [str(a) for a in p.normal],
                      _count(curve, p.integer_form[1]),
                      mvt_consistency(curve, p)]
                     for p in _planes(rng, curve.dimension)]
    certify = {}
    for base, s in CHAINS:
        curve = _curve(base)
        if s is not None:
            curve = lift_curve(curve, make_Ms(s))
        c = certify_nondegenerate(curve, 0, CERTIFY_GRID)
        certify[base if s is None else f"{base}^M{s}"] = [c.status, c.exact]
    return {"surveys": surveys, "mvt": mvt, "certify": certify}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)", file=sys.stderr)
