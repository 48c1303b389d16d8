"""Exact polynomial arithmetic and Sturm root isolation, cross-checked
against numpy's eigenvalue-based root finder."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from curvecount import polys
from curvecount.curves import PolyCoord


def P(*coeffs):
    return polys.poly(coeffs)


def test_arithmetic_basics():
    p = P(1, 2)          # 1 + 2t
    q = P(0, 0, 3)       # 3t^2
    assert polys.add(p, q) == P(1, 2, 3)
    assert polys.mul(p, q) == P(0, 0, 3, 6)
    assert polys.sub(p, p) == polys.ZERO
    assert polys.derivative(P(5, 1, 4)) == P(1, 8)
    assert polys.power(P(0, 1), 5) == P(0, 0, 0, 0, 0, 1)
    assert polys.compose(P(1, 0, 1), P(0, 0, 1)) == P(1, 0, 0, 0, 1)


def test_eval_exact_and_float():
    p = P(F(1, 3), 0, 1)
    assert polys.eval_exact(p, F(1, 2)) == F(7, 12)
    assert abs(PolyCoord(p).eval(0.5) - 7 / 12) < 1e-15


def test_division_exact():
    p = polys.mul(P(-1, 1), P(2, 1))
    q, r = polys.divmod_exact(p, P(-1, 1))
    assert q == P(2, 1) and r == polys.ZERO
    with pytest.raises(ArithmeticError):
        polys.div_exact(P(1, 1), P(0, 1))


def test_gcd_and_squarefree():
    p = polys.mul(polys.mul(P(-1, 1), P(-1, 1)), P(1, 1))  # (t-1)^2 (t+1)
    g = polys.gcd(p, polys.derivative(p))
    assert g == P(-1, 1)
    assert polys.squarefree_part(p) == polys.mul(P(-1, 1), P(1, 1))


def test_count_roots_closed_endpoints():
    p = P(0, 6)  # 6t, root at 0
    assert polys.count_roots_closed(p, 0, 1) == 1
    assert polys.count_roots_open(p, 0, 1) == 0
    p2 = polys.mul(P(0, 1), P(-1, 1))  # t(t-1)
    assert polys.count_roots_closed(p2, 0, 1) == 2
    assert polys.count_roots_open(p2, 0, 1) == 0


def test_isolate_and_refine_known():
    p = P(-2, 0, 1)  # t^2 - 2
    ivs = polys.isolate_roots(p, 0, 2)
    assert len(ivs) == 1
    root = polys.refine_root(p, *ivs[0])
    assert abs(root - 2 ** 0.5) < 1e-14


def test_multiple_root_counted_once():
    p = polys.mul(P(F(-1, 2), 1), P(F(-1, 2), 1))  # (t - 1/2)^2
    roots = [polys.refine_root(p, a, b) for a, b in polys.isolate_roots(p, 0, 1)]
    assert len(roots) == 1 and abs(roots[0] - 0.5) < 1e-14


def test_random_roots_against_numpy():
    rng = random.Random(20240817)
    for _ in range(60):
        deg = rng.randint(1, 6)
        coeffs = [F(rng.randint(-8, 8)) for _ in range(deg + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[-1] = F(1)
        p = polys.poly(coeffs)
        if polys.degree(p) < 1:
            continue
        mine = [polys.refine_root(p, a, b)
                for a, b in polys.isolate_roots(p, 0, 1)]
        np_all = np.roots(list(map(float, reversed(p))))
        np_real = sorted({round(float(r.real), 9) for r in np_all
                          if abs(r.imag) < 1e-9 and -1e-9 <= r.real <= 1 + 1e-9})
        # dedupe numpy's multiple roots by rounding; compare counts and values
        assert len(mine) == len(np_real), (p, mine, np_real)
        for a, b in zip(sorted(mine), np_real):
            assert abs(a - b) < 1e-6, (p, mine, np_real)


def test_det_fraction_matches_poly_det():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        rows = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)]
        d1 = polys.det_fraction(rows)
        d2 = polys.det_ring([[polys.poly([x]) for x in row] for row in rows],
                            polys.ZERO, polys.add, polys.mul, polys.neg)
        assert polys.poly([d1]) == d2


def test_det_poly_known():
    t = P(0, 1)
    rows = [[t, P(1)], [P(1), polys.mul(t, t)]]
    assert polys.det_poly(rows) == P(-1, 0, 0, 1)


def test_sup_bound_dominates():
    rng = random.Random(3)
    for _ in range(20):
        p = polys.poly([F(rng.randint(-20, 20)) for _ in range(5)])
        bound = polys.sup_bound(p, 0, 1)
        for k in range(21):
            assert abs(PolyCoord(p).eval(k / 20)) <= bound + 1e-9
