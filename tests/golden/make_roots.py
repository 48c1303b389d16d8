"""Golden answers of ``intersect``: the roots as ``float.hex`` and
``certified``, for lines across the parabola, hyperplanes across the moment
curves in dimensions 3 and 4, and lines across the full circle and a partial
arc.

    PYTHONPATH=src python3 tests/golden/make_roots.py

writes ``roots.json`` next to this script.  ``tests/test_golden.py``
recomputes ``compute()`` and compares it with the file, so a root that moves
by one ulp fails it.
"""

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

from curvecount import (Hyperplane, circle_arc, intersect, moment_curve,
                        parabola)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "roots.json"

CURVES = {"parabola": parabola(), "moment3": moment_curve(3),
          "moment4": moment_curve(4), "circle": circle_arc(),
          "arc": circle_arc(F(1, 7), F(5, 9))}
PLANES = 10   # per curve


def _planes(rng: random.Random, name: str, dim: int) -> list:
    """Hyperplanes a₁x₁ + … + aₙxₙ = a₀ with small rational coefficients.

    On the moment curves (the parabola is the one of dimension 2) the first
    ones pass near n points γ(r) with r drawn from (0, 1): the plane of
    ∏(t − r) = c, for a small c, so most roots are irrational.  The rest,
    and every one on the circle, are drawn at random."""
    def coeff():
        return F(rng.randint(-12, 12), rng.randint(1, 6))
    out = []
    if name not in ("circle", "arc"):
        for _ in range(PLANES - 3):
            prod = [F(1)]   # ∏(t − r), constant term first
            for _ in range(dim):
                r = F(rng.randint(1, 23), 24)
                prod = [a - r * b for a, b in zip([F(0)] + prod, prod + [F(0)])]
            c = F(rng.randint(-9, 9), 997)
            out.append(Hyperplane(c - prod[0], prod[1:]))
    while len(out) < PLANES:
        normal = tuple(coeff() for _ in range(dim))
        if any(normal):
            out.append(Hyperplane(coeff() / 4, normal))
    return out


def compute() -> dict:
    rng = random.Random(8)
    out = {}
    for name, curve in CURVES.items():
        rows = []
        for plane in _planes(rng, name, curve.dimension):
            roots = intersect(curve, plane)
            rows.append({"a0": str(plane.a0),
                         "normal": [str(a) for a in plane.normal],
                         "roots": [float(t).hex() for t in roots],
                         "certified": roots.certified})
        out[name] = rows
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)", file=sys.stderr)
