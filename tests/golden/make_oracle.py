"""Golden answers of the brute-force tube oracle on lattice and explicit
sources: count, points in order, ``certified`` and ``arcs_examined``.

    PYTHONPATH=src python3 tests/golden/make_oracle.py

writes ``oracle.json`` next to this script.  ``tests/test_golden.py``
recomputes ``compute()`` and compares it with the file.  The lattice rows
are the benchmark's oracle shapes (parabola, cubic and circle; N = 8, 16,
32; δ = d/N², d ∈ {1, 4}), then an off-origin box with fractional bounds, a
partial circle arc, a parametric curve, the oracle's smallest grid (8
steps) and a box with no point within reach; the explicit rows put random
points about the circle and the moment curve.
"""

import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

from curvecount import (FiniteSet, LatticeSource, TubeQuery,
                        brute_force_tube_oracle, circle_arc, delta_from_rule,
                        line_segment, moment_curve, parabola, polynomial_curve)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "oracle.json"

CUBIC = polynomial_curve([[0, 1], [0, 0, 0, 1]])
SHAPES = {"parabola": (parabola(), ((0, 1), (0, 1))),
          "cubic": (CUBIC, ((0, 1), (0, 1))),
          "circle": (circle_arc(), ((-1, 1), (-1, 1)))}


def _tube(result) -> dict:
    return {"count": result.count, "certified": result.certified,
            "arcs_examined": result.arcs_examined,
            "points": [[str(c) for c in p] for p in result.points]}


def lattice_queries() -> dict:
    cases = {}
    for name, (curve, box) in SHAPES.items():
        for N in (8, 16, 32):
            for d in (1, 4):
                cases[f"{name}:N{N}:d{d}"] = TubeQuery(
                    curve, delta_from_rule(d, N, 2), LatticeSource(N, box))
    cases["cubic:off-origin"] = TubeQuery(
        CUBIC, F(1, 30), LatticeSource(12, ((F(1, 3), F(7, 5)),
                                            (F(-1, 7), F(9, 4)))))
    cases["arc:N20"] = TubeQuery(circle_arc(F(1, 7), F(5, 9)), F(1, 40),
                                 LatticeSource(20, ((-1, 1), (-1, 1))))
    cases["parametric:N24"] = TubeQuery(
        polynomial_curve([[0, 1], [F(1, 3), 0, -1, 2]], (F(1, 8), F(7, 8))),
        F(1, 50), LatticeSource(24, ((0, 1), (-1, 1))))
    # a segment of length 1/100 at δ = 9/10: 8 steps, one block of samples
    cases["segment:smallest-grid"] = TubeQuery(
        line_segment((0, 0), (F(1, 100), 0)), F(9, 10),
        LatticeSource(4, ((-2, 2), (-2, 2))))
    cases["circle:out-of-reach"] = TubeQuery(
        circle_arc(), F(1, 100), LatticeSource(8, ((3, 4), (-1, 1))))
    return cases


def explicit_queries() -> dict:
    rng = random.Random(23)
    ring = FiniteSet([(F(rng.randint(-60, 60), 50), F(rng.randint(-60, 60), 50))
                      for _ in range(300)])
    moment = FiniteSet([tuple(F(rng.randint(0, 24), 24) for _ in range(3))
                        for _ in range(200)], dimension=3)
    return {"ring:circle": TubeQuery(circle_arc(), F(1, 25), ring),
            "ring:arc": TubeQuery(circle_arc(0, F(1, 3)), F(1, 25), ring),
            "cube:moment3": TubeQuery(moment_curve(3), F(1, 12), moment)}


def compute() -> dict:
    return {"lattice": {k: _tube(brute_force_tube_oracle(q))
                        for k, q in lattice_queries().items()},
            "explicit": {k: _tube(brute_force_tube_oracle(q))
                         for k, q in explicit_queries().items()}}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)", file=sys.stderr)
