"""Curve jets (the derivative rows at a point), Wronskians and
certification; the circle jets are checked against a sympy
symbolic-differentiation oracle."""

import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from curvecount import polys
from curvecount import (DomainError, InvalidCurveError, certify_nondegenerate,
                        circle_arc, graph_curve, moment_curve, parabola,
                        polynomial_curve, wronskian, wronskian_symbolic)
from curvecount.curves import (CurveSpec, NondegeneracyCertificate, PolyCoord,
                               TrigCoord, derivative_sup_bound, eval_array)


def _rows(curve, t, order):
    """The jet γ(t), γ'(t), …, γ^(order)(t): exact at a rational t on a
    polynomial curve, floats at a float t."""
    return [tuple(fn.eval(t) for fn in row) for row in curve.derivatives(order)]


def _translated(curve, vector):
    """A polynomial curve moved by an exact vector."""
    return polynomial_curve([polys.add(fn.coeffs, polys.poly([c]))
                             for fn, c in zip(curve.coords, vector)], curve.domain)


def test_moment_jet_at_zero():
    rows = _rows(moment_curve(3), 0, 3)
    assert rows == [(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 6)]
    assert all(isinstance(x, F) for row in rows for x in row)


def test_parabola_jet_exact():
    rows = _rows(parabola(), F(1, 2), 2)
    assert rows == [(F(1, 2), F(1, 4)), (1, 1), (0, 2)]
    assert all(isinstance(x, F) for row in rows for x in row)


def test_circle_jet_against_sympy_oracle():
    t = sp.symbols("t")
    gamma = (sp.cos(2 * sp.pi * t), sp.sin(2 * sp.pi * t))
    circle = circle_arc()
    for t0 in (0, 0.3, 0.77):
        rows = [tuple(fn.evalf(float(t0)) for fn in row)
                for row in circle.derivatives(4)]
        for k, row in enumerate(rows):
            for g, val in zip(gamma, row):
                expect = float(sp.diff(g, t, k).subs(t, t0))
                assert abs(val - expect) < 1e-10, (t0, k)


def test_circle_jet_order2_values():
    point, first, second = _rows(circle_arc(), 0, 2)
    assert abs(point[0] - 1) < 1e-12 and abs(point[1]) < 1e-12
    assert abs(first[0]) < 1e-12
    assert abs(first[1] - 2 * math.pi) < 1e-12
    assert abs(second[0] + 4 * math.pi ** 2) < 1e-11
    assert abs(second[1]) < 1e-11


def test_jet_errors():
    mc = moment_curve(3)
    with pytest.raises(DomainError):
        wronskian(mc, 2)
    # every representable curve is C^∞: jets of any order, zero past the degree
    assert _rows(mc, 0, 20)[4:] == [(0, 0, 0)] * 17
    with pytest.raises(InvalidCurveError):
        moment_curve(1)


def test_moment_curve_construction():
    assert _rows(moment_curve(5), 1, 0) == [(1, 1, 1, 1, 1)]
    assert _rows(moment_curve(2), F(1, 3), 0) == [(F(1, 3), F(1, 9))]


def test_moment_wronskian_factorials():
    for n in range(2, 6):
        expect = math.prod(math.factorial(k) for k in range(1, n + 1))
        mc = moment_curve(n)
        for i in range(9):
            assert wronskian(mc, F(i, 8)) == expect


def test_circle_wronskian_eight_pi_cubed():
    # sympy oracle: det of the rows gamma', gamma'' is (2 pi)^3 exactly
    t = sp.symbols("t")
    gamma = [sp.cos(2 * sp.pi * t), sp.sin(2 * sp.pi * t)]
    mat = sp.Matrix([[sp.diff(g, t, k) for g in gamma] for k in (1, 2)])
    assert sp.simplify(mat.det() - 8 * sp.pi ** 3) == 0
    assert abs(wronskian(circle_arc(), F(1, 3)) - 8 * math.pi ** 3) < 1e-9


def test_wronskian_row_scaling_multilinearity():
    coeffs = [[0, 1, 2], [1, 0, 0, 3], [0, 2, 0, 0, 1]]
    base = polynomial_curve(coeffs)
    lam = F(7, 3)
    scaled = polynomial_curve([coeffs[0], [lam * c for c in coeffs[1]], coeffs[2]])
    for t0 in (F(0), F(1, 4), F(9, 10)):
        assert wronskian(scaled, t0) == lam * wronskian(base, t0)


def test_float_mode_agrees_with_exact():
    curve = polynomial_curve([[1000, -999, 31], [0, F(1, 7), 0, 250, 0, 0, 1]])
    for t0 in (F(1, 3), F(2, 3), F(9, 10)):
        for row in curve.derivatives(6):
            for fn in row:
                a, b = fn.eval(t0), fn.evalf(float(t0))
                assert abs(float(a) - b) <= 1e-12 * max(1.0, abs(float(a)))
                assert abs(a - F(b)) <= fn.error_estimate(*curve.domain)


def test_certify_constant_wronskian():
    cert = certify_nondegenerate(moment_curve(3), 1, 64)
    assert cert.status == "certified"
    assert cert.min_sampled_wronskian == 12.0


def test_certify_detects_root():
    curve = polynomial_curve([[0, 1], [0, 0, 0, 1]])  # (t, t^3), W = 6t
    cert = certify_nondegenerate(curve, 0, 64)
    assert cert.status == "failed"


def test_certify_exact_root_isolation_agrees():
    curve = graph_curve([[0, 0, 0, 1]])  # (t, t^3): W = 6t, root at 0
    cert = certify_nondegenerate(curve, 0, 63)
    assert cert.status == "failed"
    # W of a planar graph (t, f) is f''; here f'' = -1 + 2t has its only
    # root at 1/2, which a 65-interval grid never samples: only the exact
    # root-isolation path catches it
    shifted = graph_curve([[0, 0, F(-1, 2), F(1, 3)]])
    cert2 = certify_nondegenerate(shifted, 0, 65)
    assert cert2.status == "failed"


def test_certify_circle_thresholds():
    circle = circle_arc()
    assert certify_nondegenerate(circle, 100, 256).status == "certified"
    assert certify_nondegenerate(circle, 300, 256).status == "failed"


def test_certify_exact_positive():
    cert = certify_nondegenerate(parabola(), 0, 64)
    assert cert.status == "certified" and cert.exact


def test_certify_is_exact_at_positive_c0():
    # f'' = 3 + 700·t(t − 1/4)(t − 1/2)(t − 3/4)(t − 1) is 3 at all five grid
    # points of grid 4, but its minimum on [0, 1] is about 0.518
    roots = polys.poly([1])
    for r in (0, F(1, 4), F(1, 2), F(3, 4), 1):
        roots = polys.mul(roots, polys.poly([-r, 1]))
    fpp = polys.add(polys.poly([3]), polys.mul(roots, polys.poly([700])))
    f = [0, 0] + [c / ((i + 1) * (i + 2)) for i, c in enumerate(fpp)]
    curve = graph_curve([f])  # W of a planar graph (t, f) is f''
    assert wronskian_symbolic(curve).coeffs == fpp
    cert = certify_nondegenerate(curve, 1, 4)
    assert cert.min_sampled_wronskian == 3.0
    assert cert.status == "failed" and not cert.exact
    cert = certify_nondegenerate(curve, F(1, 2), 4)
    assert cert.status == "certified" and cert.exact
    assert cert.margin_estimate == 0.0
    assert certify_nondegenerate(curve, F(52, 100), 4).status == "failed"


def test_translate_preserves_wronskian():
    pb = parabola()
    moved = _translated(pb, (F(3, 7), F(-2, 5)))
    for t0 in (F(0), F(1, 2), F(1)):
        assert wronskian(moved, t0) == wronskian(pb, t0)


def test_domain_validation():
    with pytest.raises(InvalidCurveError):
        polynomial_curve([[0, 1], [0, 0, 1]], domain=(F(1, 2), F(1, 3)))
    with pytest.raises(InvalidCurveError):
        polynomial_curve([[0, 1], [0, 0, 1]], domain=(0, 2))


def test_jets_of_lifted_circle():
    from curvecount import lift_curve, make_Ms
    lifted = lift_curve(circle_arc(), make_Ms(2))
    rows = _rows(lifted, 0.15, 5)
    assert len(rows) == 6
    assert all(isinstance(x, float) for row in rows for x in row)
    u, v = rows[0][0], rows[0][1]
    assert abs(rows[0][2] - u * u) < 1e-12
    assert abs(rows[0][3] - u * v) < 1e-12
    assert abs(rows[0][4] - v * v) < 1e-12


def test_wronskian_symbolic_cached():
    mc = moment_curve(4)
    w1 = wronskian_symbolic(mc)
    w2 = wronskian_symbolic(mc)
    assert w1 is w2


_rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
_poly_coords = st.lists(_rationals, max_size=8).map(PolyCoord)
_trig_coords = st.builds(
    TrigCoord,
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 5)), _rationals,
                    max_size=6),
    st.integers(0, 2))
_params = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.lists(_poly_coords, min_size=2, max_size=3),
                 st.lists(_trig_coords, min_size=2, max_size=3)),
       _params)
def test_array_and_scalar_evaluation_agree_bitwise(coords, ts):
    # one evaluator per coordinate class: the numpy path and the float path
    # must return the same bits at every order
    curve = CurveSpec("lifted", coords)
    for k in range(4):
        arr = eval_array(curve, ts, k)
        assert arr.shape == (len(ts), len(coords))
        row = curve.derivatives(k)[k]
        for i, t in enumerate(ts):
            want = [fn.eval(t) for fn in row]
            assert arr[i].tobytes() == np.array(want, dtype=float).tobytes()


def test_derivative_sup_bound_is_tight_on_the_circle():
    # |γ^(k)|² = (2π)^(2k)(u² + v²) reduces to (2π)^(2k) exactly, where the
    # sum of the coordinates' bounds gave (2π)^k·√2
    for k in (1, 2, 3):
        bound = derivative_sup_bound(circle_arc(), k)
        assert (2 * math.pi) ** k <= bound <= (2 * math.pi) ** k * (1 + 1e-9)


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.lists(_poly_coords, min_size=1, max_size=4),
                 st.lists(_trig_coords, min_size=1, max_size=4)),
       st.integers(0, 3),
       st.tuples(st.fractions(0, F(1, 2), max_denominator=8),
                 st.fractions(F(1, 2), 1, max_denominator=8))
       .filter(lambda d: d[0] < d[1]))
def test_derivative_sup_bound_is_sound_and_never_looser(coords, k, domain):
    # an upper bound on every sample of |γ^(k)|, and at most the old bound
    # √(Σ sup|fᵢ|²) but for its rounding up
    curve = CurveSpec("lifted", coords, domain)
    lo, hi = domain
    row = curve.derivatives(k)[k]
    old = math.sqrt(sum(fn.sup_abs(lo, hi) ** 2 for fn in row))
    bound = derivative_sup_bound(curve, k)
    assert bound <= old * (1 + 1e-12)
    ts = np.linspace(float(lo), float(hi), 257)
    sampled = np.sqrt((eval_array(curve, ts, k) ** 2).sum(axis=1)).max()
    assert sampled <= bound * (1 + 1e-12)


def _exact_value(f: TrigCoord, t: float):
    """f(t) at 200 bits, from the exact coefficients and the float t."""
    with mpmath.workprec(200):
        x = 2 * mpmath.pi * mpmath.mpf(t)
        u, v = mpmath.cos(x), mpmath.sin(x)
        value = sum(mpmath.mpf(c.numerator) / c.denominator * u ** a * v ** b
                    for (a, b), c in f.terms.items())
        return value * (2 * mpmath.pi) ** f.tau_power


def _evaluation_errors(f: TrigCoord, ts: list):
    """|evalf(t) − f(t)| for the float and the array paths, at each t."""
    arr = np.broadcast_to(f.evalf(np.array(ts)), len(ts))
    with mpmath.workprec(200):
        return [max(abs(f.evalf(t) - exact), abs(float(a) - exact))
                for t, a, exact in zip(ts, arr, (_exact_value(f, t) for t in ts))]


def test_trig_error_estimate_grows_with_the_degree():
    # sin(2πt)⁴⁰, a coordinate of the circle lifted by {x, y, y⁴⁰}: an
    # estimate that ignored the degree (2.76e-15) is exceeded (3.3e-15) at
    # some of these t
    f = TrigCoord({(0, 40): 1})
    rng = random.Random(1)
    errors = _evaluation_errors(f, [rng.random() for _ in range(2000)])
    assert max(errors) <= f.error_estimate(0, 1)


@settings(max_examples=50, deadline=None)
@given(st.builds(TrigCoord,
                 st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 40)),
                                 _rationals, min_size=1, max_size=6),
                 st.integers(0, 3)),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
def test_trig_error_estimate_is_sound(f, ts):
    # against 200-bit evaluation, on the domain [0, max t]
    assert max(_evaluation_errors(f, ts)) <= f.error_estimate(0, max(ts))


def _certify_by_fractions(curve, c0, grid: int) -> NondegeneracyCertificate:
    """Reference for certify_nondegenerate: the samples of W at
    tᵢ = lo + (hi − lo)·i/grid as Fractions (floats on trig curves), and
    W ∓ c0 in Fractions."""
    lo, hi = curve.domain
    w = wronskian_symbolic(curve)
    ts = [lo + (hi - lo) * F(i, grid) for i in range(grid + 1)]
    vals = [w.eval(t) if curve.is_exact else w.eval(float(t)) for t in ts]
    low = min(abs(v) for v in vals)
    margin = max(abs(b - a) for a, b in zip(vals, vals[1:]))

    def cert(status, exact=False):
        return NondegeneracyCertificate(float(low), float(c0), grid,
                                        0.0 if exact else float(margin),
                                        status, exact)

    if low <= c0:
        return cert("failed")
    if curve.is_exact:
        c = F(c0)
        clear = all(polys.Roots(polys.add(w.coeffs, (-s,))).closed(lo, hi) == 0
                    for s in {c, -c})
        return cert("certified", exact=True) if clear else cert("failed")
    return cert("certified" if low - margin > c0 else "sampled-only")


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.lists(_poly_coords, min_size=1, max_size=3),
                 st.lists(_trig_coords.map(lambda f: TrigCoord(f.terms)),
                          min_size=1, max_size=2)),
       st.tuples(st.fractions(0, F(1, 2), max_denominator=9),
                 st.fractions(F(1, 2), 1, max_denominator=9))
       .filter(lambda d: d[0] < d[1]),
       st.one_of(st.fractions(0, 50, max_denominator=7), st.floats(0, 50)),
       st.integers(2, 40))
def test_integer_samples_give_the_fraction_certificate(coords, domain, c0, grid):
    # W sampled on integer numerators over one denominator gives every field
    # of the certificate the Fraction samples give
    curve = CurveSpec("lifted", coords, domain)
    assert certify_nondegenerate(curve, c0, grid) == _certify_by_fractions(curve, c0, grid)
