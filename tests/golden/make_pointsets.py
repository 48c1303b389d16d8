"""Golden answers of the point-set jobs: GAP chains, explicit and GAP tube
points, m-fold sumset sizes, campaign and energy-experiment reports, and the
``energy`` CLI on a fixture.

    PYTHONPATH=src python3 tests/golden/make_pointsets.py

writes ``pointsets.json`` next to this script.  ``tests/test_golden.py``
recomputes ``compute()`` and compares it with the file, so a change that is
meant to keep every answer leaves the file as it is.  Regenerate it only in a
change that alters these answers on purpose, and list what moved.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

from curvecount import (ExperimentConfig, FiniteSet, Gap, GapSource,
                        TubeQuery, brute_force_tube_oracle,
                        check_energy_lower_bound, check_plunnecke, circle_arc,
                        cli, count_in_tube, doubling, gap_enumerate,
                        m_fold_sumset, parabola, polynomial_curve,
                        run_energy_experiment, run_inequality_campaign,
                        sumset)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "pointsets.json"
FIXTURE = HERE / "energy_points.json"

CUBIC = polynomial_curve([[0, 1], [0, 0, 0, 1]])
# (lengths, m, curve, δ), as the slots of the benchmark's GAP chain
GAPS = (((10, 10), 3, parabola(), F(1, 40)),
        ((12, 12), 2, CUBIC, F(1, 40)),
        ((4, 5, 5), 3, parabola(), F(1, 40)))
CAMPAIGNS = (("lemma-2.4", 24, 20), ("plunnecke", 1931, 20),
             ("gap-doubling", 7, 4))


def _pts(points) -> list:
    return [[str(c) for c in p] for p in points]


def _tube(result) -> dict:
    return {"count": result.count, "certified": result.certified,
            "arcs_examined": result.arcs_examined,
            "points": _pts(result.points)}


def _random_gap(rng: random.Random, lengths) -> Gap:
    """A planar GAP in the unit box with generators over one denominator."""
    q = rng.choice((240, 420, 504))
    k = len(lengths)
    gens = [(F(rng.randint(1, q // (k * n)), q), F(rng.randint(1, q // (k * n)), q))
            for n in lengths]
    return Gap((F(rng.randint(0, q // 20), q), F(rng.randint(0, q // 20), q)),
               gens, lengths)


def gap_chains() -> list:
    rng = random.Random(2024)
    out = []
    for lengths, m, curve, delta in GAPS:
        while True:   # a GAP with a few points in the tube
            g = _random_gap(rng, lengths)
            res = count_in_tube(TubeQuery(curve, delta, GapSource(g)))
            if 2 <= res.count <= 40:
                break
        A = gap_enumerate(g)
        row = {"size": len(A), "first": _pts(list(A)[:5]),
               "doubling": str(doubling(A)),
               "plunnecke": check_plunnecke(A, m).to_dict(),
               "tube": _tube(res)}
        B = FiniteSet(res.points, dimension=2)
        row["energy"] = check_energy_lower_bound(A, B, m).to_dict()
        out.append(row)
    return out


def explicit_tubes() -> dict:
    grid = FiniteSet([(F(i, 8), F(j, 8)) for i in range(9) for j in range(9)])
    rng = random.Random(7)
    ring = FiniteSet([(F(rng.randint(-60, 60), 50), F(rng.randint(-60, 60), 50))
                      for _ in range(300)])
    # numerators past 2⁵³: floats from Python int division
    big = 10 ** 18 + 9
    steep = FiniteSet([(F(k, 40) + F(1, big), F(k, 40) ** 2 + F(j, big))
                       for k in range(41) for j in (-3, 0, 5)])
    cases = {"grid:parabola": TubeQuery(parabola(), F(1, 20), grid),
             "ring:circle": TubeQuery(circle_arc(), F(1, 25), ring),
             "ring:arc": TubeQuery(circle_arc(0, F(1, 3)), F(1, 25), ring),
             "steep:parabola": TubeQuery(parabola(), F(4, big), steep)}
    out = {name: _tube(count_in_tube(q)) for name, q in cases.items()}
    out["grid:parabola:oracle"] = _tube(brute_force_tube_oracle(
        cases["grid:parabola"]))
    return out


def fold_sizes() -> dict:
    rng = random.Random(11)
    ints = FiniteSet([(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(20)])
    rats = FiniteSet([(F(rng.randint(-9, 9), rng.randint(1, 6)),)
                      for _ in range(12)])
    gap = gap_enumerate(Gap((F(1, 3), 0), [(F(1, 7), F(1, 5)), (1, F(-2, 9))],
                            [6, 5]))
    sizes = {name: [len(m_fold_sumset(A, m)) for m in (1, 2, 3, 4)]
             for name, A in (("ints", ints), ("rationals", rats), ("gap", gap))}
    sizes["ints+rationals^2"] = len(sumset(ints, FiniteSet([(p[0], p[0])
                                                            for p in rats])))
    return sizes


def cli_energy() -> list:
    out = []
    for argv in (["energy", "--points", str(FIXTURE), "--m", "2"],
                 ["energy", "--points", str(FIXTURE), "--m", "3"],
                 ["energy", "--points", str(FIXTURE), "--m", "3", "--cap", "50"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out.append({"argv": [a if a != str(FIXTURE) else FIXTURE.name
                             for a in argv],
                    "exit": code, "stdout": buf.getvalue()})
    return out


def compute() -> dict:
    energy = {}
    for m in (2, 3):
        energy[f"m{m}"] = run_energy_experiment(ExperimentConfig(
            curve=parabola(), schedule=(8, 16, 32), delta_d=1, delta_power=2,
            energy_m=m)).to_dict()
    return {"gaps": gap_chains(),
            "explicit_tubes": explicit_tubes(),
            "m_fold_sizes": fold_sizes(),
            "campaigns": {kind: run_inequality_campaign(kind, seed, n).to_dict()
                          for kind, seed, n in CAMPAIGNS},
            "energy_experiment": energy,
            "cli_energy": cli_energy()}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)", file=sys.stderr)
