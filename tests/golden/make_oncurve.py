"""Golden on-curve answers: the exact lattice points of four planar graphs,
the on-curve energy rows, lattice-bijection reports and a seeded
``bijection`` campaign.

    PYTHONPATH=src python3 tests/golden/make_oncurve.py

writes ``oncurve.json`` next to this script.  ``tests/test_golden.py``
recomputes ``compute()`` and compares it with the file, so a point that
moves, appears or vanishes, or a report that changes by one byte, fails it.
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

from curvecount import (ExperimentConfig, FiniteSet, MonomialSet,
                        check_lattice_bijection, count_on_curve_lattice,
                        graph_curve, make_Ms, parabola, run_energy_experiment,
                        run_inequality_campaign)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "oncurve.json"

CURVES = {"parabola": parabola(),
          "x/3+2x^3/3": graph_curve([[0, F(1, 3), 0, F(2, 3)]]),
          "1/2+3x^2/5": graph_curve([[F(1, 2), 0, F(3, 5)]]),
          # a domain with fractional ends, so the columns start past 0
          "fractional-domain": graph_curve([[F(1, 4), F(-1, 6), F(2, 3)]],
                                           domain=(F(1, 5), F(9, 10)))}
SCHEDULE = tuple(range(1, 31)) + (64, 3 ** 5, 2 ** 7 * 5)
ENERGY_SCHEDULE = (4, 6, 12, 30, 64, 3 ** 5, 2 ** 7 * 5)
BIJECTION_NS = (1, 4, 9, 12, 16, 24, 25, 30, 64, 3 ** 5, 2 ** 7 * 5)
MONOMIALS = {"M1": make_Ms(1), "M2": make_Ms(2),
             "x,y,xy": MonomialSet([(1, 0), (0, 1), (1, 1)])}
# points off the 1/N-lattice, mixed into a bijection input so that its
# violations are named, in order
OFF_LATTICE = [(F(1, 7), F(1, 49)), (F(1, 2), F(1, 3)), (F(2, 5), 0)]


def _pts(points) -> list:
    return [[str(c) for c in p] for p in points]


def _report(rep) -> dict:
    return dict(rep.to_dict(), violations=list(rep.violations))


def compute() -> dict:
    points = {name: {str(N): _pts(count_on_curve_lattice(curve, N))
                     for N in SCHEDULE}
              for name, curve in CURVES.items()}
    energy = {f"{name}:m{m}": run_energy_experiment(ExperimentConfig(
        curve=curve, schedule=ENERGY_SCHEDULE, energy_m=m)).to_dict()
        for name, curve in CURVES.items() for m in (2, 3)}
    bijection = {}
    for name, curve in CURVES.items():
        for mname, M in MONOMIALS.items():
            bijection[f"{name}:{mname}"] = [
                _report(check_lattice_bijection(
                    curve, M, N, count_on_curve_lattice(curve, N)))
                for N in BIJECTION_NS]
    mixed = list(count_on_curve_lattice(parabola(), 12)) + OFF_LATTICE
    for kind, pts in (("list", mixed), ("set", FiniteSet(mixed))):
        bijection[f"parabola+off-lattice:{kind}:M2"] = _report(
            check_lattice_bijection(parabola(), make_Ms(2), 12, pts))
    return {"points": points, "energy": energy, "bijection": bijection,
            "campaign": run_inequality_campaign("bijection", 2030, 60).to_dict()}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)", file=sys.stderr)
