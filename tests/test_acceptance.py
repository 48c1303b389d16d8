"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 2 is expected to fail: the exact counts certified by criterion 1
(M+1 at N = M², M = 2..20) make the least-squares slope of log count against
log N equal to 0.43172814..., below the required [0.45, 0.55] band.  A fit
without intercept would land at 0.52, but it cannot recover the exponent of
c·N^p data for c ≠ 1, which the fit-recovery requirement demands.  The
assertion is kept at the required tolerance rather than widened; the band
only becomes correct for longer schedules (squares up to 2500 give 0.457).
"""

import math
import random
import sys
import time
from fractions import Fraction as F

import pytest

from curvecount import (ExperimentConfig, FiniteSet, Hyperplane,
                        LatticeSource, MonomialSet, TubeQuery,
                        brute_force_tube_oracle, certify_nondegenerate,
                        check_energy_lower_bound, check_lattice_bijection,
                        check_plunnecke, circle_arc, count_in_tube,
                        count_on_curve_lattice, delta_from_rule, doubling,
                        energy_bruteforce, exponent, gap_enumerate,
                        intersect, lift_curve, lift_point,
                        lipschitz_constant_squared, make_Ms, moment_curve,
                        mvt_consistency, parabola, polynomial_curve,
                        run_exponent_experiment, squares_schedule,
                        wronskian, wronskian_symbolic, additive_energy)
from curvecount.curves import TrigCoord
from curvecount.experiments import REPORTING_MARGIN, _random_proper_gap


def _report(num: int, ok: bool, elapsed: float, detail: str = ""):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'}  ({elapsed:6.2f}s)"
    if detail:
        line += f"  {detail}"
    print(line, file=sys.stderr, flush=True)


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def test_criterion_01_parabola_on_curve_counts():
    with _Timer() as tm:
        ok = True
        for m in range(2, 21):
            n = m * m
            pts = count_on_curve_lattice(parabola(), n)
            ok &= len(pts) == m + 1
            ok &= len(pts) >= math.isqrt(n)
    ok = ok and tm.elapsed < 1.0
    _report(1, ok, tm.elapsed, "counts M+1 for N=M^2, M=2..20")
    assert ok


def test_criterion_02_exponent_fit_in_band():
    with _Timer() as tm:
        cfg = ExperimentConfig(curve=parabola(), schedule=squares_schedule(400))
        rep = run_exponent_experiment(cfg)
        slope = rep.fitted_slope
        in_band = slope is not None and 0.45 <= slope <= 0.55
    ok = in_band and tm.elapsed < 1.0
    _report(2, ok, tm.elapsed,
            f"fitted slope {slope:.6f}, required band [0.45, 0.55] "
            "(inconsistent with the exact counts of criterion 1; see module "
            "docstring)")
    assert ok


def test_criterion_03_moment_wronskian_factorials():
    with _Timer() as tm:
        ok = True
        for n in range(2, 6):
            expect = math.prod(math.factorial(k) for k in range(1, n + 1))
            curve = moment_curve(n)
            for i in range(9):
                ok &= wronskian(curve, F(i, 8)) == expect
    ok = ok and tm.elapsed < 1.0
    _report(3, ok, tm.elapsed, "W = prod k! exactly, n = 2..5, 9 params each")
    assert ok


def test_criterion_04_degenerate_lift_detection():
    with _Timer() as tm:
        lifted = lift_curve(circle_arc(), make_Ms(2))
        w = wronskian_symbolic(lifted)
        ok = w.is_zero()
        relation_exact = True
        wronskian_small = True
        for k in range(257):
            t = k / 256
            s = lifted.coords[2].eval(t) + lifted.coords[4].eval(t)
            relation_exact &= (s == 1.0)
            wronskian_small &= abs(w.eval(t)) < 1e-9
        residual = lifted.coords[2].add(lifted.coords[4]).add(
            TrigCoord({(0, 0): -1}))
        ok &= relation_exact and wronskian_small and residual.is_zero()
        for c0 in (0, F(1, 2), 1, 100):
            ok &= certify_nondegenerate(lifted, c0, 256).status == "failed"
    ok = ok and tm.elapsed < 5.0
    _report(4, ok, tm.elapsed,
            "x^2+y^2=1 exact at 256 points, |W| < 1e-9, certify failed")
    assert ok


def test_criterion_05_exponent_formula():
    with _Timer() as tm:
        ok = all(exponent(make_Ms(s)) == F(8, 3 * (s + 3)) for s in range(1, 7))
    ok = ok and tm.elapsed < 1.0
    _report(5, ok, tm.elapsed, "e(M_s) = 8/(3(s+3)) exactly, s = 1..6")
    assert ok


def test_criterion_06_lift_bijection():
    with _Timer() as tm:
        ok = True
        msets = (MonomialSet([(1, 0), (0, 1), (1, 1)]), make_Ms(2))
        for mset in msets:
            for n in (4, 9, 12, 16):
                pts = count_on_curve_lattice(parabola(), n)
                rep = check_lattice_bijection(parabola(), mset, n, pts)
                ok &= rep.bijection
                ok &= rep.cardinality_base == rep.cardinality_lifted
                for p in pts:
                    lifted = lift_point(p, mset)
                    for coord, m in zip(lifted, mset):
                        ok &= (F(coord) * n ** m.degree).denominator == 1
    ok = ok and tm.elapsed < 1.0
    _report(6, ok, tm.elapsed, "bijection for {x,y,xy} and M_2, N in {4,9,12,16}")
    assert ok


def test_criterion_07_energy_oracle_equivalence():
    with _Timer() as tm:
        rng = random.Random(1207)
        ok = True
        for _ in range(50):
            size = rng.randint(1, 12)
            pts = set()
            while len(pts) < size:
                pts.add((rng.randint(-20, 20), rng.randint(-20, 20)))
            a = FiniteSet(pts)
            m = rng.choice([2, 3])
            ok &= additive_energy(a, m) == energy_bruteforce(a, m)
    ok = ok and tm.elapsed < 30.0
    _report(7, ok, tm.elapsed, "50 random sets, |A| <= 12, m in {2,3}, exact")
    assert ok


def test_criterion_08_energy_lower_bound():
    with _Timer() as tm:
        rng = random.Random(24)
        ok = True
        for _ in range(100):
            size = rng.randint(2, 30)
            pts = set()
            while len(pts) < size:
                pts.add((rng.randint(-25, 25), rng.randint(-25, 25)))
            a = FiniteSet(pts)
            sub = rng.sample(sorted(a.points), rng.randint(1, size))
            rep = check_energy_lower_bound(a, FiniteSet(sub), rng.choice([2, 3]))
            ok &= rep.holds and rep.ratio >= 1
    ok = ok and tm.elapsed < 60.0
    _report(8, ok, tm.elapsed, "ratio >= 1 exactly on 100 random (A, B) pairs")
    assert ok


def test_criterion_09_plunnecke_and_gap_doubling():
    with _Timer() as tm:
        rng = random.Random(1931)
        ok = True
        for _ in range(100):
            gap, _ = _random_proper_gap(rng, max_product=500)
            ok &= gap.gap_dimension <= 3 and gap.nominal_size <= 500
            pts = gap_enumerate(gap)
            ok &= len(pts) == gap.nominal_size
            k = doubling(pts)
            ok &= k <= F(2) ** gap.gap_dimension
            m = rng.choice([2, 3])
            ok &= check_plunnecke(pts, m).holds
    ok = ok and tm.elapsed < 60.0
    _report(9, ok, tm.elapsed,
            "|mA| <= K^m |A| and K <= 2^m on 100 random proper GAPs")
    assert ok


def test_criterion_10_tube_oracle_equivalence():
    with _Timer() as tm:
        cubic = polynomial_curve([[0, 1], [0, 0, 0, 1]])
        cases = ((parabola(), ((0, 1), (0, 1))),
                 (cubic, ((0, 1), (0, 1))),
                 (circle_arc(), ((-1, 1), (-1, 1))))
        ok = True
        for curve, box in cases:
            for n in (8, 16, 32, 64, 128):
                for d in (1, 4):
                    q = TubeQuery(curve, delta_from_rule(d, n, 2),
                                  LatticeSource(n, box))
                    r = count_in_tube(q)
                    rb = brute_force_tube_oracle(q)
                    ok &= r.certified and rb.certified
                    ok &= r.count == rb.count
                    ok &= set(r.points) == set(rb.points)
    ok = ok and tm.elapsed < 120.0
    _report(10, ok, tm.elapsed,
            "count_in_tube == oracle, 3 curves x N in {8..128} x 2 deltas")
    assert ok


def test_criterion_11_hyperplane_bounds():
    with _Timer() as tm:
        rng = random.Random(123)
        denom = 1 << 24
        ok = True
        max_parabola = 0
        max_moment = 0
        pb = parabola()
        mc = moment_curve(3)
        for _ in range(1000):
            a = [F(rng.randint(-denom, denom), denom) for _ in range(3)]
            if all(x == 0 for x in a[1:]):
                continue
            plane = Hyperplane(a[0], a[1:])
            roots = intersect(pb, plane)
            k = len(roots)
            max_parabola = max(max_parabola, k)
            if k >= 2:
                ok &= mvt_consistency(pb, plane, roots)
        for _ in range(1000):
            a = [F(rng.randint(-denom, denom), denom) for _ in range(4)]
            if all(x == 0 for x in a[1:]):
                continue
            plane = Hyperplane(a[0], a[1:])
            roots = intersect(mc, plane)
            k = len(roots)
            max_moment = max(max_moment, k)
            if k >= 2:
                ok &= mvt_consistency(mc, plane, roots)
        ok &= max_parabola == 2 and max_moment <= 3
    ok = ok and tm.elapsed < 30.0
    _report(11, ok, tm.elapsed,
            f"parabola max = {max_parabola}, moment max = {max_moment}, "
            "MVT consistent on every k >= 2 trial")
    assert ok


def test_criterion_12_lipschitz_property():
    with _Timer() as tm:
        rng = random.Random(3412)
        msets = (make_Ms(1), make_Ms(2), make_Ms(3))
        c2 = {m: lipschitz_constant_squared(m, 1) for m in msets}
        ok = True
        for _ in range(1000):
            d1, d2 = rng.randint(1, 64), rng.randint(1, 64)
            p = (F(rng.randint(-d1, d1), d1), F(rng.randint(-d2, d2), d2))
            d3, d4 = rng.randint(1, 64), rng.randint(1, 64)
            q = (F(rng.randint(-d3, d3), d3), F(rng.randint(-d4, d4), d4))
            gap_sq = sum((x - y) ** 2 for x, y in zip(p, q))
            for mset in msets:
                lhs = sum((x - y) ** 2 for x, y in zip(lift_point(p, mset),
                                                       lift_point(q, mset)))
                ok &= lhs <= c2[mset] * gap_sq
    ok = ok and tm.elapsed < 10.0
    _report(12, ok, tm.elapsed,
            "squared Lipschitz bound exact for 1000 pairs x {M_1, M_2, M_3}")
    assert ok


def test_footer_slope_vs_exponent_reports():
    # the headline bounds carry unspecified constants; the required check is
    # fitted slope <= e(M_s) + 0.1 on parabola/M_s runs at N <= 256
    with _Timer() as tm:
        ok = True
        details = []
        for s, power in ((1, 2), (2, 5)):
            mset = make_Ms(s)
            cfg = ExperimentConfig(curve=parabola(),
                                   schedule=(8, 16, 32, 64, 128, 256),
                                   monomials=mset, delta_d=F(1),
                                   delta_power=power)
            rep = run_exponent_experiment(cfg)
            ok &= all(r["certified"] for r in rep.rows)
            ok &= rep.fitted_slope is not None
            ok &= rep.fitted_slope <= float(exponent(mset)) + REPORTING_MARGIN
            ok &= rep.verdict == "slope-consistent-with-exponent"
            details.append(f"s={s}: slope {rep.fitted_slope:.3f} "
                           f"vs e+margin {float(exponent(mset)) + 0.1:.3f}")
    _report(13, ok, tm.elapsed, "; ".join(details))
    assert ok
