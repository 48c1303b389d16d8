"""Exact polynomial arithmetic and the root kernel ``polys.Roots``,
cross-checked against numpy's eigenvalue-based root finder, against sympy's
root counts, and against its own Sturm chain."""

import math
import random
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from curvecount import polys
from curvecount.curves import PolyCoord, TrigCoord, TrigRoots, _plane_columns


def P(*coeffs):
    return polys.poly(coeffs)


def test_arithmetic_basics():
    p = P(1, 2)          # 1 + 2t
    q = P(0, 0, 3)       # 3t^2
    assert polys.add(p, q) == P(1, 2, 3)
    assert polys.mul(p, q) == P(0, 0, 3, 6)
    assert polys.derivative(P(5, 1, 4)) == P(1, 8)
    assert polys.power(P(0, 1), 5) == P(0, 0, 0, 0, 0, 1)


def test_eval_exact_and_float():
    p = P(F(1, 3), 0, 1)
    assert polys.eval_exact(p, F(1, 2)) == F(7, 12)
    assert abs(PolyCoord(p).eval(0.5) - 7 / 12) < 1e-15


def test_count_roots_closed_endpoints():
    roots = polys.Roots(P(0, 6))  # 6t, root at 0
    assert roots.closed(0, 1) == 1
    assert roots.open(0, 1) == 0
    roots = polys.Roots(polys.mul(P(0, 1), P(-1, 1)))  # t(t-1)
    assert roots.closed(0, 1) == 2
    assert roots.open(0, 1) == 0
    assert roots.closed(-1, 2) == 2 and roots.open(-1, 2) == 2
    with pytest.raises(ValueError):
        polys.Roots(polys.ZERO)


def test_isolate_and_refine_known():
    roots = polys.Roots(P(-2, 0, 1))  # t^2 - 2
    ivs = roots.isolate(0, 2)
    assert len(ivs) == 1
    assert abs(roots.refine(*ivs[0]) - 2 ** 0.5) < 1e-14
    # the named functions are the same kernel, built once per call
    assert polys.isolate_roots(P(-2, 0, 1), 0, 2) == ivs
    assert polys.refine_root(P(-2, 0, 1), *ivs[0]) == roots.refine(*ivs[0])


def test_multiple_root_counted_once():
    roots = polys.Roots(polys.mul(P(F(-1, 2), 1), P(F(-1, 2), 1)))  # (t - 1/2)^2
    found = [roots.refine(a, b) for a, b in roots.isolate(0, 1)]
    assert len(found) == 1 and abs(found[0] - 0.5) < 1e-14
    assert roots.closed(0, 1) == 1 and roots.closed(F(1, 2), F(1, 2)) == 1


def test_eval_homogeneous_is_the_scaled_value():
    rng = random.Random(5)
    for _ in range(40):
        e = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
        n, d = rng.randint(-50, 50), rng.randint(1, 30)
        expected = polys.eval_exact(polys.poly(e), F(n, d)) * d ** (len(e) - 1)
        assert polys.eval_homogeneous(e, n, d) == expected


def _mobius_by_zipped_lists(e, na, nb, D):
    """Reference for ``polys._mobius``: homogeneous Horner with the power
    (D(1 + x))^k kept as its own list, each product formed by zipping
    shifted copies."""
    acc, power = [], [1]
    for c in reversed(e):
        acc = [na * y + nb * z + c * w
               for y, z, w in zip(acc + [0], [0] + acc, power)]
        power = [D * (y + z) for y, z in zip(power + [0], [0] + power)]
    return acc


@settings(max_examples=300, deadline=None)
@given(e=st.lists(st.integers(-10 ** 20, 10 ** 20), max_size=10),
       na=st.integers(-10 ** 6, 10 ** 6), nb=st.integers(-10 ** 6, 10 ** 6),
       D=st.integers(1, 10 ** 6))
@example(e=[], na=0, nb=1, D=1)
@example(e=[5], na=-3, nb=7, D=2)
def test_mobius_keeps_its_coefficients(e, na, nb, D):
    assert polys._mobius(e, na, nb, D) == _mobius_by_zipped_lists(e, na, nb, D)


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
        roots = polys.Roots(p)
        mine = [roots.refine(a, b) for a, b in roots.isolate(0, 1)]
        np_all = np.roots(list(map(float, reversed(p))))
        np_real = sorted({round(float(r.real), 9) for r in np_all
                          if abs(r.imag) < 1e-9 and -1e-9 <= r.real <= 1 + 1e-9})
        # dedupe numpy's multiple roots by rounding; compare counts and values
        assert len(mine) == len(np_real), (p, mine, np_real)
        for a, b in zip(sorted(mine), np_real):
            assert abs(a - b) < 1e-6, (p, mine, np_real)


def test_det_fraction_matches_sympy():
    # integer matrices, a third of them singular (the last row a combination
    # of earlier ones), against sympy's own determinant
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 1 / 3:
            c = rng.randint(-2, 2)
            rows[-1] = [c * x + (y if n > 2 else 0) for x, y in zip(rows[0], rows[-2])]
        expected = sympy.Matrix(rows).det()
        got = polys.det_int(rows)
        assert type(got) is int and got == int(expected), rows
    # the 0×0 matrix has determinant 1
    for rows, expected in (([], 1), ([[7]], 7), ([[0]], 0), ([[-2 ** 70]], -2 ** 70)):
        assert polys.det_int(rows) == expected
    with pytest.raises(ValueError):
        polys.det_int([[1, 2]])


def test_rank_matches_sympy():
    # wide, tall and square integer matrices: sparse ones, low-rank products,
    # rows that are sums of other rows, zero rows and zero columns, and
    # entries beyond 2^63
    rng = random.Random(13)
    for trial in range(150):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        if trial % 3 == 0:
            rows = [[rng.randint(-2 ** 70, 2 ** 70) for _ in range(c)] for _ in range(r)]
        elif trial % 3 == 1:
            rows = [[rng.choice((-1, 0, 0, 0, 2)) for _ in range(c)] for _ in range(r)]
        else:
            k = rng.randint(1, 3)
            a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(r)]
            b = [[rng.randint(-2 ** 40, 2 ** 40) for _ in range(c)] for _ in range(k)]
            rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        if r > 2 and rng.random() < 0.5:
            i, j, k = rng.sample(range(r), 3)
            rows[i] = [x + y for x, y in zip(rows[j], rows[k])]
        if rng.random() < 0.3:
            rows[rng.randrange(r)] = [0] * c
        if rng.random() < 0.3:
            j = rng.randrange(c)
            for row in rows:
                row[j] = 0
        assert polys.rank_int(rows) == sympy.Matrix(rows).rank(), rows
    assert polys.rank_int([]) == 0
    assert polys.rank_int([[0, 0], [0, 0]]) == 0


def test_interpolate_recovers_the_polynomial():
    rng = random.Random(11)
    for _ in range(20):
        p = polys.poly([F(rng.randint(-9, 9), rng.randint(1, 5))
                        for _ in range(rng.randint(0, 7))])
        xs = [F(k, 3) for k in rng.sample(range(-20, 20), 8)]
        assert polys.interpolate(xs, [polys.eval_exact(p, x) for x in xs]) == p


def test_sup_bound_dominates():
    rng = random.Random(3)
    for _ in range(20):
        p = polys.poly([F(rng.randint(-20, 20)) for _ in range(5)])
        bound = polys.sup_bound(p, 0, 1)
        for k in range(21):
            assert abs(PolyCoord(p).eval(k / 20)) <= bound + 1e-9


# -- sympy as the second route ----------------------------------------------

X = sympy.Symbol("x")


def to_sympy(p):
    return sympy.Poly([sympy.Rational(c) for c in reversed(p)], X)


def sympy_open_count(sp, a, b):
    """Distinct roots in (a, b): sympy counts the closed interval."""
    a, b = sympy.Rational(a), sympy.Rational(b)
    if not a < b:
        return 0
    return sp.count_roots(a, b) - (sp.eval(a) == 0) - (sp.eval(b) == 0)


@st.composite
def polys_with_interval(draw):
    """A rational polynomial with repeated roots, roots at the ends of
    [a, b], at dyadic bisection nodes of [a, b] and at non-dyadic
    rationals, times a dense factor that may add irrational roots."""
    a = draw(st.fractions(-2, 2, max_denominator=12))
    b = a + draw(st.fractions(F(1, 8), 3, max_denominator=12))
    p = polys.poly([draw(st.fractions(-5, 5, max_denominator=6)
                         .filter(lambda c: c != 0))])
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("end", "node", "rational")))
        if kind == "end":
            r = draw(st.sampled_from((a, b)))
        elif kind == "node":
            k = draw(st.integers(1, 6))
            r = a + (b - a) * F(draw(st.integers(1, 2 ** k - 1)), 2 ** k)
        else:
            r = F(draw(st.integers(-40, 40)), draw(st.sampled_from((3, 5, 7, 9, 11))))
        p = polys.mul(p, polys.power(P(-r, 1), draw(st.integers(1, 3))))
    dense = [draw(st.fractions(-4, 4, max_denominator=5))
             for _ in range(draw(st.integers(0, 4)))]
    if polys.poly(dense):
        p = polys.mul(p, polys.poly(dense))
    return p, a, b


@settings(max_examples=150, deadline=None)
@given(polys_with_interval())
def test_root_counts_match_sympy(case):
    p, a, b = case
    sp = to_sympy(p)
    roots = polys.Roots(p)   # one chain answers every interval below
    ra, rb = sympy.Rational(a), sympy.Rational(b)
    assert roots.closed(a, b) == sp.count_roots(ra, rb)
    assert roots.open(a, b) == sympy_open_count(sp, a, b)
    mid = (a + b) / 2  # ends that may be roots, on a half interval
    assert roots.closed(mid, b) == sp.count_roots((ra + rb) / 2, rb)
    assert roots.open(a, mid) == sympy_open_count(sp, a, mid)
    assert roots.open(b, a) == 0
    assert roots.closed(b, a) == 0


@settings(max_examples=150, deadline=None)
@given(polys_with_interval())
def test_isolating_intervals_match_sympy(case):
    p, a, b = case
    sp = to_sympy(p)
    roots = polys.Roots(p)
    ivs = roots.isolate(a, b)
    assert len(ivs) == sp.count_roots(sympy.Rational(a), sympy.Rational(b))
    assert ivs == sorted(ivs, key=lambda iv: iv[0] + iv[1])
    for lo, hi in ivs:
        assert a <= lo <= hi <= b
        if lo == hi:
            assert polys.eval_exact(p, lo) == 0
            assert roots.refine(lo, hi) == float(lo)
            continue
        # an end may be a root, listed as its own degenerate interval
        assert sympy_open_count(sp, lo, hi) == 1
        root = roots.refine(lo, hi)
        assert float(lo) <= root <= float(hi)
    for (_, hi), (lo, _) in zip(ivs, ivs[1:]):
        assert hi <= lo


def test_refine_root_with_roots_at_the_ends():
    # (t - 1/3) t (t - 1): the ends 0 and 1 are roots and 1/3 is isolated
    roots = polys.Roots(polys.mul(polys.mul(P(F(-1, 3), 1), P(0, 1)), P(-1, 1)))
    assert roots.refine(F(0), F(1)) == pytest.approx(1 / 3, abs=1e-15)
    assert roots.refine(F(1), F(0)) == pytest.approx(1 / 3, abs=1e-15)
    with pytest.raises(ArithmeticError):
        polys.Roots(P(0, 1)).refine(F(0), F(1))


def test_gcd_keeps_the_common_roots():
    # (t − 1)(t − 2)(t − 3)² and (t − 2)(t − 3)(t + 5) share 2 and 3
    a = polys.mul(polys.mul(P(-1, 1), P(-2, 1)), polys.power(P(-3, 1), 2))
    b = polys.mul(polys.mul(P(-2, 1), P(-3, 1)), P(5, 1))
    g = polys.gcd(a, b)
    assert polys.degree(g) == 2 and all(polys.eval_exact(g, x) == 0 for x in (2, 3))
    assert polys.degree(polys.gcd(a, P(7, 1))) == 0


# -- the certificate against the chain ---------------------------------------

@st.composite
def kernel_cases(draw):
    """A polynomial of degree ≤ 8 with integer coefficients up to 2⁸⁰,
    repeated rational factors, roots exactly at the ends and at dyadic
    points between them, and ends a, b in either order, equal, or with
    denominators past 2⁶⁴."""
    def point():
        if draw(st.booleans()):
            return draw(st.fractions(-2, 2, max_denominator=12))
        d = draw(st.integers(2 ** 64 + 1, 2 ** 70))
        return F(draw(st.integers(-2 * d, 2 * d)), d)
    a = point()
    b = a if draw(st.integers(0, 5)) == 0 else point()
    coeff = st.integers(-2 ** 80, 2 ** 80)
    p = polys.poly([draw(coeff.filter(bool))])
    budget = 8
    while budget and draw(st.integers(0, 3)):
        kind = draw(st.sampled_from(("end", "between", "rational", "dense")))
        if kind == "dense":
            factor = polys.poly(draw(st.lists(coeff, min_size=2, max_size=budget + 1)))
        else:
            r = (draw(st.sampled_from((a, b))) if kind == "end" else
                 a + (b - a) * F(draw(st.integers(1, 15)), 16) if kind == "between"
                 else point())
            factor = polys.power(P(-r, 1), draw(st.integers(1, min(3, budget))))
        if polys.degree(factor) >= 1:
            p, budget = polys.mul(p, factor), budget - polys.degree(factor)
    return p, a, b


def _answers(roots, a, b) -> tuple:
    ivs = roots.isolate(a, b)
    return (roots.closed(a, b), roots.open(a, b), roots.closed(b, a),
            roots.open(b, a), ivs, [roots.refine(lo, hi) for lo, hi in ivs],
            [roots.refine(hi, lo) for lo, hi in ivs])


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
def test_certificate_answers_match_the_sturm_chain(case):
    p, a, b = case
    got = _answers(polys.Roots(p), a, b)
    # V = 2 everywhere sends every question to the chain
    with mock.patch.object(polys, "_descartes", lambda *args: 2):
        assert got == _answers(polys.Roots(p), a, b)


def _half_angle_by_fractions(f: TrigCoord) -> tuple:
    """(1 + s²)^D·f(u, v) and its Cauchy bound, in Fractions."""
    d = max(a + b for a, b in f.terms)
    p = polys.ZERO
    for (a, b), c in f.terms.items():
        term = polys.mul(polys.power(P(1, 0, -1), a), polys.power(P(0, 2), b))
        term = polys.mul(term, polys.power(P(1, 0, 1), d - a - b))
        p = polys.add(p, polys.mul(term, P(c)))
    return p, 1 + math.ceil(max((abs(c) for c in p[:-1]), default=0) / abs(p[-1]))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 4)),
                       st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6),
                       min_size=1, max_size=6))
def test_integer_half_angle_is_a_positive_multiple(terms):
    # the plane matrix of the curve t ↦ f takes the plane x = 0 to f's
    # half-angle form, and TrigRoots bounds its roots by the same bound
    f = TrigCoord(terms)
    assume(not f.is_zero())
    p = [col[1] for col in _plane_columns((f,), F(0), F(1))]
    ref, ref_bound = _half_angle_by_fractions(f)
    assert all(type(c) is int for c in p)
    assert len(p) == 2 * max(a + b for a, b in f.terms) + 1
    while not p[-1]:
        p.pop()
    ratio = F(p[-1]) / ref[-1]
    assert len(p) == len(ref)
    assert ratio > 0 and all(c == ratio * r for c, r in zip(p, ref))
    assert TrigRoots(p, F(0), F(1))._bound == ref_bound


# -- refinement by a guessed cell against the bisection ----------------------

def _bisected(roots, lo, hi, bits):
    """``Roots.refine`` as plain bisection: ``bits`` steps of exact sign
    bisection, on p when p is nonzero at both ends with V = 1 and on q
    otherwise, an end root taking the sign of q′ inside; the float of the
    last midpoint, or of a midpoint that is a root."""
    if lo == hi:
        return float(lo)
    D, L, H = polys._over(F(lo), F(hi))
    e = roots.coeffs
    slo, shi = (polys.eval_homogeneous(e, n, D) for n in (L, H))
    if not (slo and shi and polys._descartes(e, L, H, D) == 1):
        e = roots.chain[0]
        slo, shi = (polys.eval_homogeneous(e, n, D) for n in (L, H))
        inward = 1 if H > L else -1
        if not slo:
            slo = inward * polys.eval_homogeneous(roots.chain[1], L, D)
        if not shi:
            shi = -inward * polys.eval_homogeneous(roots.chain[1], H, D)
    k = 0
    for _ in range(bits):
        mid, k = L + H, k + 1
        v = polys.eval_homogeneous(e, mid, D << k)
        if not v:
            return float(F(mid, D << k))
        if (v > 0) == (slo > 0):
            L, H, slo = mid, 2 * H, v
        else:
            L, H = 2 * L, mid
    return float(F(L + H, D << (k + 1)))


def _same_refinements(roots, ivs, bits) -> None:
    # bit for bit, both ways round
    for lo, hi in ivs:
        for x, y in ((lo, hi), (hi, lo)):
            assert roots.refine(x, y, bits).hex() == _bisected(roots, x, y, bits).hex()


def _open_intervals(roots, a, b) -> list:
    return [iv for iv in roots.isolate(min(a, b), max(a, b)) if iv[0] != iv[1]]


@settings(max_examples=150, deadline=None)
@given(st.one_of(polys_with_interval(), kernel_cases()))
# t(t − 3/8)(t − 1) on [0, 1]: roots at both ends, and a midpoint root in
# the one open interval, refined on q with the inward signs of q′
@example((polys.mul(polys.mul(P(0, 1), P(F(-3, 8), 1)), P(-1, 1)), F(0), F(1)))
def test_refine_is_the_bisection_bit_for_bit(case):
    # at every depth TrigRoots.params asks for: B is the Cauchy bound
    p, a, b = case
    roots = polys.Roots(p)
    e = roots.coeffs
    B = 1 + -(-max(map(abs, e[:-1]), default=0) // abs(e[-1]))
    for bits in (0, 1, 60, 60 + B.bit_length()):
        _same_refinements(roots, _open_intervals(roots, a, b), bits)


@settings(max_examples=100, deadline=None)
@given(polys_with_interval(), st.sampled_from((0, 1, 60)), st.data())
def test_refine_checks_any_guessed_cell(case, bits, data):
    # a wrong guess costs time, never bits: a cell whose ends' signs do not
    # hold the root is not taken, and a second miss bisects
    p, a, b = case
    roots = polys.Roots(p)
    for iv in _open_intervals(roots, a, b):
        j = data.draw(st.integers(-2, (1 << bits) + 1))
        with mock.patch.object(polys, "_newton_cell", lambda *args: j):
            _same_refinements(roots, [iv], bits)


def test_a_guess_one_cell_off_is_moved_without_bisection():
    # √2 lies in the cell j = ⌊(√2 − 1)·2⁶⁰⌋ of depth 60 on [1, 2], and in
    # 2⁶⁰ − 1 − j counted from 2; a guess one cell to either side is moved
    # onto it by the signs at its ends
    roots = polys.Roots(P(-2, 0, 1))
    j = math.isqrt(2 << 120) - (1 << 60)
    for lo, hi, cell in ((F(1), F(2), j), (F(2), F(1), (1 << 60) - 1 - j)):
        expected = _bisected(roots, lo, hi, 60)
        for guess in (cell - 1, cell, cell + 1):
            with mock.patch.object(polys, "_newton_cell", lambda *args: guess), \
                    mock.patch.object(polys, "_bisect", side_effect=AssertionError):
                assert roots.refine(lo, hi) == expected


@settings(max_examples=30, deadline=None)
@given(st.integers(10 ** 309, 10 ** 400),
       st.fractions(F(1, 100), F(99, 100), max_denominator=1000))
def test_refine_past_float_range_bisects(K, r):
    # (t − r)(t² + K) has primitive coefficients past float range, so the
    # float guess overflows and every refinement takes the bisection
    roots = polys.Roots(polys.mul(P(-r, 1), P(K, 0, 1)))
    assert max(map(abs, roots.coeffs)) > 2 ** 1024
    calls = []
    bisect = polys._bisect
    with mock.patch.object(polys, "_bisect",
                           lambda *args: calls.append(args) or bisect(*args)):
        for bits in (0, 1, 60):
            _same_refinements(roots, [(F(0), F(1))], bits)
    assert len(calls) == 6
