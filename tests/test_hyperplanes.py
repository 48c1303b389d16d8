"""Hyperplane intersections, the MVT consistency check on the curve's
derivative row, and affine invariance of intersection counts."""

import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curvecount import (DegenerateIntersection, Hyperplane, circle_arc,
                        graph_curve, intersect, lift_curve, make_Ms,
                        moment_curve, mvt_consistency, parabola,
                        survey_intersections, wronskian)
from curvecount import polys
from curvecount.curves import (CurveSpec, InvalidCurveError, PolyCoord,
                               TrigCoord, TrigRoots, _half_angle_basis,
                               _plane_columns, _tan_bracket, polynomial_curve)
from curvecount.hyperplanes import (_PLANE_BLOCK, HyperplaneError, RootList,
                                    _count, _counts, _draws, _histogram, _plane_row,
                                    _poly_counts)
from curvecount.lifting import MonomialSet


def test_hyperplane_normalization():
    h = Hyperplane(F(1, 2), (F(1, 4), F(-1, 2)))
    assert max(abs(a) for a in h.normal) == 1
    assert h.a0 == 1 and h.normal == (F(1, 2), -1)
    with pytest.raises(HyperplaneError):
        Hyperplane(1, (0, 0))


def test_hyperplane_refuses_float_coefficients():
    # a float is a binary fraction: 0.1 would silently become
    # 3602879701896397/36028797018963968
    for a0, normal in ((0.1, (1, F(3, 10))), (F(1, 10), (1, 0.3)), (True, (1, 0))):
        with pytest.raises(TypeError):
            Hyperplane(a0, normal)


def test_intersect_parabola_horizontal_line():
    roots = intersect(parabola(), Hyperplane(F(1, 4), (0, 1)))
    assert len(roots) == 1 and abs(roots.roots[0] - 0.5) < 1e-14
    assert roots.certified


def test_intersect_moment_sum_zero():
    roots = intersect(moment_curve(3), Hyperplane(0, (1, 1, 1)))
    assert len(roots) == 1 and roots.roots[0] == 0.0


def test_tangential_root_counted_once():
    roots = intersect(parabola(), Hyperplane(0, (0, 1)))  # y = 0 tangent at 0
    assert len(roots) == 1


def test_degenerate_intersection_raises():
    lifted = lift_curve(parabola(), make_Ms(2))
    # the lift of y = x^2 satisfies coord2 = coord3 identically
    h = Hyperplane(0, (0, 1, -1, 0, 0))
    with pytest.raises(DegenerateIntersection):
        intersect(lifted, h)


def test_parabola_max_two_roots():
    rng = random.Random(4)
    for _ in range(200):
        a = [F(rng.randint(-2 ** 20, 2 ** 20), 2 ** 20) for _ in range(3)]
        if all(x == 0 for x in a[1:]):
            continue
        assert len(intersect(parabola(), Hyperplane(a[0], a[1:]))) <= 2


def test_derivative_curve_moment():
    # the derivative curve is the row that mvt_consistency pairs with H′
    curve = moment_curve(3)
    speed, *row = curve.derivatives(1)[1]
    assert tuple(speed.coeffs) == (1,)
    assert [tuple(c.coeffs) for c in row] == [(0, 2), (0, 0, 3)]
    # built once per curve, with its plane matrix
    dc = curve.derivative_row()
    assert dc is curve.derivative_row() and dc.coords == tuple(row)
    assert dc.domain == curve.domain
    # non-degeneracy inherited: W of (2t, 3t^2) is det [[2, 6t], [0, 6]] = 12
    for t in (F(0), F(1, 2), F(1)):
        assert wronskian(dc, t) == 12
    # g = (t − 1/4)(t − 1/2)(t − 3/4); g′ = 3t² − 3t + 11/16 has two roots
    # in [0, 1], so three intersections are consistent and four are not
    plane = Hyperplane(F(3, 32), (F(11, 16), F(-3, 2), 1))
    roots = intersect(moment_curve(3), plane)
    assert len(roots) == 3 and mvt_consistency(moment_curve(3), plane, roots)
    assert not mvt_consistency(moment_curve(3), plane,
                               RootList(roots.roots + (0.0,), True))


def test_derivative_curve_parabola_is_one_dimensional():
    speed, *row = parabola().derivatives(1)[1]
    assert len(row) == 1 and tuple(row[0].coeffs) == (0, 2)
    # −x + y = −3/16 meets (t, t²) at t = 1/4 and 3/4; g′ = 2t − 1 has one root
    plane = Hyperplane(F(-3, 16), (-1, 1))
    roots = intersect(parabola(), plane)
    assert len(roots) == 2 and mvt_consistency(parabola(), plane)
    assert not mvt_consistency(parabola(), plane, RootList((0.1, 0.2, 0.3), True))


def test_mvt_is_invariant_under_an_affine_reparameterization():
    # (1/4 + t/2, t²) on [0, 1] traces the graph y = (2x − 1/2)² on [1/4, 3/4]
    curve = polynomial_curve([[F(1, 4), F(1, 2)], [0, 0, 1]])
    graph = graph_curve([[F(1, 4), -2, 4]], (F(1, 4), F(3, 4)))
    rng = random.Random(8)
    for _ in range(100):
        # the chord through the points at two random parameters
        t1, t2 = sorted(F(rng.randint(0, 64), 64) for _ in range(2))
        if t1 == t2:
            continue
        (x1, y1), (x2, y2) = ((F(1, 4) + t / 2, t * t) for t in (t1, t2))
        plane = Hyperplane(x2 * y1 - x1 * y2, (y1 - y2, x2 - x1))
        assert _count(curve, plane.integer_form[1]) == \
            _count(graph, plane.integer_form[1]) == 2
        assert mvt_consistency(curve, plane) and mvt_consistency(graph, plane)
        three = RootList((0.1, 0.2, 0.3), True)
        assert not mvt_consistency(curve, plane, three)
        assert not mvt_consistency(graph, plane, three)


def test_mvt_refuses_a_nonaffine_first_coordinate():
    curve = polynomial_curve([[0, 0, 1], [0, 1]])
    with pytest.raises(InvalidCurveError):
        mvt_consistency(curve, Hyperplane(0, (1, 1)))


def test_mvt_consistency_random_lines():
    rng = random.Random(3)
    seen = 0
    for _ in range(400):
        a = [F(rng.randint(-2 ** 24, 2 ** 24), 2 ** 24) for _ in range(3)]
        if all(x == 0 for x in a[1:]):
            continue
        h = Hyperplane(a[0], a[1:])
        roots = intersect(parabola(), h)
        if len(roots) >= 2:
            seen += 1
            assert mvt_consistency(parabola(), h, roots)
    assert seen >= 1


def test_mvt_derived_hyperplane():
    # x = 1 has no derived plane a₁ + 0·x₂ = 0
    with pytest.raises(HyperplaneError):
        mvt_consistency(parabola(), Hyperplane(1, (1, 0)),
                        RootList((0.25, 0.5), True))
    assert mvt_consistency(parabola(), Hyperplane(F(1, 2), (1, 0)))


def test_moment_curve_root_counts_bounded_by_dimension():
    rng = random.Random(77)
    for n in (4, 5):
        curve = moment_curve(n)
        for _ in range(60):
            a = [F(rng.randint(-2 ** 16, 2 ** 16), 2 ** 16)
                 for _ in range(n + 1)]
            if all(x == 0 for x in a[1:]):
                continue
            assert len(intersect(curve, Hyperplane(a[0], a[1:]))) <= n


def test_max_intersections_seeded():
    assert survey_intersections(parabola(), 300, seed=7).max_roots == 2
    assert survey_intersections(moment_curve(3), 300, seed=7).max_roots <= 3
    survey = survey_intersections(circle_arc(), 100, seed=11)
    assert survey.max_roots <= 2
    assert sum(survey.histogram.values()) == 100


def test_affine_invariance_of_root_counts():
    rng = random.Random(14)
    pb = parabola()
    for _ in range(25):
        while True:
            m = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)]
                 for _ in range(2)]
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            if det != 0:
                break
        b = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)]
        # M·(t, t²) + b
        transformed = polynomial_curve([[b[0], m[0][0], m[0][1]],
                                        [b[1], m[1][0], m[1][1]]])
        a = [F(rng.randint(-2 ** 16, 2 ** 16), 2 ** 16) for _ in range(3)]
        if all(x == 0 for x in a[1:]):
            continue
        h = Hyperplane(a[0], a[1:])
        # pull the hyperplane back through x -> Mx + b: a' = a M^{-1}
        inv = [[m[1][1] / det, -m[0][1] / det], [-m[1][0] / det, m[0][0] / det]]
        a_prime = [a[1] * inv[0][0] + a[2] * inv[1][0],
                   a[1] * inv[0][1] + a[2] * inv[1][1]]
        a0_prime = a[0] + a_prime[0] * b[0] + a_prime[1] * b[1]
        if all(x == 0 for x in a_prime):
            continue
        h_t = Hyperplane(a0_prime, a_prime)
        assert len(intersect(pb, h)) == len(intersect(transformed, h_t))


def test_circle_arc_sampled_intersections():
    # horizontal line y = 1/2 meets the full circle twice
    roots = intersect(circle_arc(), Hyperplane(F(1, 2), (0, 1)))
    assert len(roots) == 2


def test_one_sturm_chain_per_polynomial(monkeypatch):
    # intersect builds at most one Sturm chain per polynomial, and none when
    # Descartes' rule of signs decides: isolation, refinement, both s-ranges
    # and the end brackets share it, and _tan_bracket's narrowing loop
    # builds no chain per step
    built = []
    chain = polys._squarefree_chain
    monkeypatch.setattr(polys, "_squarefree_chain",
                        lambda p: built.append(tuple(p)) or chain(p))
    # (t − 1/4)(t − 1/2)(t − 3/4) + 1/1000: three irrational roots in [0, 1]
    cubic = Hyperplane(F(3, 32) - F(1, 1000), (F(11, 16), F(-3, 2), 1))
    assert len(intersect(moment_curve(3), cubic)) == 3 and len(built) == 1
    # lines that miss the parabola, cross it once, and cross the full
    # circle once in each of its two s-ranges: the certificate decides alone
    for curve, plane, k in ((parabola(), Hyperplane(-1, (0, 1)), 0),
                            (parabola(), Hyperplane(F(1, 2), (0, 1)), 1),
                            (circle_arc(), Hyperplane(F(1, 3), (1, 1)), 2)):
        built.clear()
        assert len(intersect(curve, plane)) == k == _count(curve, plane.integer_form[1])
        assert built == []
    # y = 9/10 meets the arc [1/7, 5/9] twice in its one s-range, where the
    # half-angle form −9s² + 20s − 9 is primitive
    arc, plane = circle_arc(F(1, 7), F(5, 9)), Hyperplane(F(9, 10), (0, 1))
    built.clear()
    p = tuple(_plane_row(arc, plane.integer_form[1]))
    assert len(intersect(arc, plane)) == 2 and built == [p] == [(-9, 20, -9)]
    # a rational root within an ulp of tan π/3 = √3 is narrowed away on P's
    # chain; Q's count and gcd(P, Q)'s are decided by certificate
    s = F(math.tan(math.pi * float(F(1, 3))))
    roots = polys.Roots(polys.mul(polys.poly((-3, 0, 1)), polys.poly((-s, 1))))
    built.clear()
    a, b, k = _tan_bracket(roots, F(1, 3))
    assert k == 1 and a < b and not a <= s <= b
    assert built == [tuple(roots.coeffs)]


def test_tan_bracket_is_unsure_when_tan_misses(monkeypatch):
    # a math.tan far past its 4 ulps brackets 7/4 for tan π/3 = √3: P = 4s − 7
    # has its root there, and Q = 3s − s³, whose one root in a true bracket
    # is tan πx, has none, so the bracket decides nothing
    monkeypatch.setattr(math, "tan", lambda theta: 1.75)
    a, b, k = _tan_bracket(polys.Roots([-7, 4]), F(1, 3))
    assert k is None and a < F(7, 4) < b


def test_circle_tangency_on_grid_node():
    # y = 1 touches at t = 1/4
    roots = intersect(circle_arc(), Hyperplane(1, (0, 1)))
    assert len(roots) == 1 and abs(roots.roots[0] - 0.25) < 1e-12
    assert roots.certified


def test_circle_float_built_tangent_is_decided_exactly():
    # the float normal (cos 2π/3, sin 2π/3) has c² + s² − 1 ≈ −1.2e-16, so
    # the line lies just outside the unit circle and misses it exactly
    th = 2 * math.pi / 3
    c, s = F(math.cos(th)), F(math.sin(th))
    assert c * c + s * s < 1
    roots = intersect(circle_arc(), Hyperplane(F(1), (c, s)))
    assert len(roots) == 0 and roots.certified
    # pushed inward the line meets the circle twice
    inward = Hyperplane(F(999, 1000), (c, s))
    roots = intersect(circle_arc(), inward)
    assert len(roots) == 2 and roots.certified
    assert all(abs(r - 1 / 3) < 0.01 for r in roots)


def test_close_roots_stay_certified():
    # y = 1 − 10⁻⁶: two roots about 1.4e-4 apart around t = 1/4
    plane = Hyperplane(F(999999, 1000000), (0, 1))
    roots = intersect(circle_arc(), plane)
    assert len(roots) == 2 and roots.certified
    assert roots.roots[0] < 0.25 < roots.roots[1]


def test_circle_rational_tangent():
    # (3/5)x + (4/5)y = 1 touches the circle at (3/5, 4/5) only
    roots = intersect(circle_arc(), Hyperplane(1, (F(3, 5), F(4, 5))))
    assert len(roots) == 1 and roots.certified
    assert abs(roots.roots[0] - math.atan2(4, 3) / math.tau) < 1e-12


def test_circle_root_at_half_is_exact():
    # x = −1 meets the circle at t = 1/2, where s = tan πt is infinite
    roots = intersect(circle_arc(), Hyperplane(-1, (1, 0)))
    assert roots.roots == (0.5,) and roots.certified


def test_circle_root_at_zero_is_also_one():
    # x = 1 meets the circle at (1, 0), which is t = 0 and t = 1
    roots = intersect(circle_arc(), Hyperplane(1, (1, 0)))
    assert roots.roots == (0.0, 1.0) and roots.certified
    # an arc that stops short of 1 keeps only t = 0
    assert intersect(circle_arc(0, F(1, 2)), Hyperplane(1, (1, 0))).roots == (0.0,)


def test_partial_arc_end_roots_are_exact():
    # x = y meets the circle at t = 1/8 and 5/8, the ends of this arc
    roots = intersect(circle_arc(F(1, 8), F(5, 8)), Hyperplane(0, (1, -1)))
    assert roots.roots == (0.125, 0.625) and roots.certified
    # x = 0 at t = 1/4 and 3/4, where tan πt is ±1
    roots = intersect(circle_arc(F(1, 4), F(3, 4)), Hyperplane(0, (1, 0)))
    assert roots.roots == (0.25, 0.75) and roots.certified
    # strictly inside the arc nothing is in doubt
    roots = intersect(circle_arc(F(1, 16), F(11, 16)), Hyperplane(0, (1, -1)))
    assert len(roots) == 2 and roots.certified


def test_root_at_a_partial_arc_end_is_kept_and_one_past_it_is_not():
    plane = Hyperplane(0, (1, -1))
    roots = intersect(circle_arc(F(1, 8), F(1, 2)), plane)
    assert roots.roots == (0.125,) and roots.certified
    # 10⁻¹⁴ past the root: its float t would round into a 1e-12 end band
    roots = intersect(circle_arc(F(1, 8) + F(1, 10 ** 14), F(1, 2)), plane)
    assert roots.roots == () and roots.certified
    # and just before it, on an arc that ends there
    roots = intersect(circle_arc(0, F(1, 8) - F(1, 10 ** 14)), plane)
    assert roots.roots == () and roots.certified


def test_roots_near_half_do_not_blur_the_others():
    # this line passes just right of (−1, 0): its roots are s = 1 (t = 1/4)
    # and s ≈ −2e20, so the Cauchy bound on s is about 2e20
    plane = Hyperplane(1, (-1 - F(1, 10 ** 20), 1))
    roots = intersect(circle_arc(), plane)
    assert len(roots) == 2 and roots.certified
    assert abs(roots.roots[0] - 0.25) < 1e-12
    roots = intersect(circle_arc(0, F(1, 3)), plane)
    assert len(roots) == 1 and roots.certified
    assert abs(roots.roots[0] - 0.25) < 1e-12


def test_root_just_before_a_partial_arc_is_left_out():
    # y = 1e-10 meets the circle at t ≈ 1.59e-11, before this arc starts
    roots = intersect(circle_arc(F(1, 10 ** 9), F(1, 2)), Hyperplane(F(1, 10 ** 10), (0, 1)))
    assert len(roots) == 1 and roots.certified
    assert abs(roots.roots[0] - 0.5) < 1e-9


@pytest.mark.parametrize("gap", [10 ** 9, 10 ** 12])
def test_root_on_an_arc_ending_near_half_is_refined_in_full(gap):
    # tan πhi lies far beyond the Cauchy bound of the half-angle form of
    # x = 1/2; the root t = 1/6 is refined as on the full circle
    plane = Hyperplane(F(1, 2), (1, 0))
    roots = intersect(circle_arc(0, F(1, 2) - F(1, gap)), plane)
    assert roots.roots == (1 / 6,) and roots.certified


def test_ends_that_cannot_be_bracketed_clear_certified():
    # x = u₀ passes through the point at s₀ = fl(tan π/67), within an ulp of
    # the end 1/67, whose tan has no polynomial of degree ≤ 64 to narrow on
    s0 = F(math.tan(math.pi / 67))
    plane = Hyperplane((1 - s0 ** 2) / (1 + s0 ** 2), (1, 0))
    roots = intersect(circle_arc(0, F(1, 67)), plane)
    assert len(roots) == 1 and not roots.certified
    # an end 10⁻¹⁶ before ½, where floats cannot bound tan πhi at all
    plane = Hyperplane(F(1, 2), (1, 0))
    roots = intersect(circle_arc(0, F(1, 2) - F(1, 10 ** 16)), plane)
    assert roots.roots == (1 / 6,) and not roots.certified


def test_lifted_circle_inside_hyperplane_is_degenerate():
    M = make_Ms(2)
    normal = [1 if (m.a, m.b) in ((2, 0), (0, 2)) else 0 for m in M]
    with pytest.raises(DegenerateIntersection):
        intersect(lift_curve(circle_arc(), M), Hyperplane(1, normal))


def test_trig_coordinates_with_a_power_of_two_pi_are_refused():
    curve = CurveSpec("circle-arc", [TrigCoord({(1, 0): 1}, 1),
                                     TrigCoord({(0, 1): 1})])
    with pytest.raises(HyperplaneError):
        intersect(curve, Hyperplane(0, (1, 1)))
    with pytest.raises(HyperplaneError):
        _count(curve, (0, 1, 1))
    with pytest.raises(HyperplaneError):
        survey_intersections(curve, 10, seed=1)


_rational = st.fractions(min_value=-2, max_value=2, max_denominator=64)


@settings(max_examples=200, deadline=None)
@given(_rational, _rational, _rational)
def test_circle_line_counts_are_exact(a, b, c):
    assume(a or b)
    expected = 2 if c * c < a * a + b * b else 1 if c * c == a * a + b * b else 0
    expected += a == c  # (1, 0) on the line: t = 0 and t = 1 both count
    roots = intersect(circle_arc(), Hyperplane(c, (a, b)))
    assert len(roots) == expected and roots.certified


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["M2", "M3", "xy"]), st.randoms(use_true_random=False))
def test_lifted_circle_roots_are_roots(mset, rng):
    # every root has a tiny residual, and each sign change of g on a grid
    # brackets a distinct root, so their number bounds the count from below
    M = make_Ms(int(mset[1])) if mset != "xy" else MonomialSet([(1, 0), (0, 1), (1, 1)])
    curve = lift_curve(circle_arc(), M)
    a = [F(rng.randint(-2 ** 16, 2 ** 16), 2 ** 16) for _ in range(curve.dimension + 1)]
    assume(any(a[1:]))
    plane = Hyperplane(a[0], a[1:])
    try:
        roots = intersect(curve, plane)
    except DegenerateIntersection:
        return
    normal = [float(x) for x in plane.normal]

    def g(t):
        return sum(x * fn.eval(t) for x, fn in zip(normal, curve.coords)) - float(plane.a0)
    assert roots.certified
    assert all(abs(g(t)) < 1e-9 for t in roots)
    vals = [g(k / 512) for k in range(513)]
    changes = sum(1 for u, v in zip(vals, vals[1:]) if u * v < 0)
    assert changes <= len(roots)


def _circle_point(m):
    # the point of the circle at s = tan πt = m
    return ((1 - m * m) / (1 + m * m), 2 * m / (1 + m * m))


_slope = st.fractions(min_value=-10 ** 12, max_value=10 ** 12, max_denominator=10 ** 12)


@settings(max_examples=200, deadline=None)
@given(_slope, _slope)
def test_chord_roots_are_accurate_at_any_scale(m1, m2):
    # the chord through the points at s = m1 and s = m2, which may lie
    # arbitrarily close to (1, 0) or (−1, 0) and so make the bound on s huge
    assume(m1 != m2 and m1 and m2)
    (x1, y1), (x2, y2) = _circle_point(m1), _circle_point(m2)
    normal = (y2 - y1, x1 - x2)
    plane = Hyperplane(normal[0] * x1 + normal[1] * y1, normal)
    roots = intersect(circle_arc(), plane)
    expected = sorted(math.atan(m) / math.pi % 1.0 for m in (m1, m2))
    assert len(roots) == 2 and roots.certified
    assert all(abs(r - e) < 1e-12 for r, e in zip(roots, expected))


def _roots_by_fractions(curve, plane) -> tuple:
    """Reference for intersect on a polynomial curve: g = Σ aᵢγᵢ − a₀ built
    in Fractions, isolated and refined by the same kernel."""
    g = polys.poly([-plane.a0])
    for a, fn in zip(plane.normal, curve.coords):
        g = polys.add(g, polys.mul(fn.coeffs, polys.poly([a])))
    roots = polys.Roots(g)
    return tuple(roots.refine(a, b) for a, b in roots.isolate(*curve.domain))


_coefficient = st.fractions(-5, 5, max_denominator=30)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_coefficient, min_size=1, max_size=5), min_size=2, max_size=4),
       st.lists(st.fractions(-5, 5, max_denominator=1 << 24), min_size=5, max_size=5),
       st.tuples(st.fractions(0, F(1, 2), max_denominator=9),
                 st.fractions(F(1, 2), 1, max_denominator=9))
       .filter(lambda d: d[0] < d[1]))
def test_integer_combination_gives_the_fraction_roots(coords, coeffs, domain):
    # g on integer numerators is a positive multiple of the Fraction g: the
    # same roots, bit for bit, and always certified
    curve = polynomial_curve(coords, domain)
    n = curve.dimension
    assume(any(coeffs[1:n + 1]))
    plane = Hyperplane(coeffs[0], coeffs[1:n + 1])
    try:
        expected = _roots_by_fractions(curve, plane)
    except ValueError:   # g ≡ 0
        with pytest.raises(DegenerateIntersection):
            intersect(curve, plane)
        return
    roots = intersect(curve, plane)
    assert [x.hex() for x in roots.roots] == [x.hex() for x in expected]
    assert roots.certified


def _count_or_degenerate(fn, curve, plane):
    try:
        return fn(curve, plane)
    except DegenerateIntersection:
        return "degenerate"


def _value_and_tangent(curve, where):
    """γ and a tangent vector at a point of the curve, exactly: at a
    rational t on a polynomial curve, and at a rational point (u, v) of
    the unit circle on a curve in (cos 2πt, sin 2πt), where
    d(u^a·v^b)/dt is 2π(b·u^(a+1)·v^(b−1) − a·u^(a−1)·v^(b+1))."""
    if curve.is_exact:
        return ([polys.eval_exact(c.coeffs, where) for c in curve.coords],
                [polys.eval_exact(c.derivative().coeffs, where) for c in curve.coords])
    u, v = where
    value = [sum(c * u ** a * v ** b for (a, b), c in fn.terms.items())
             for fn in curve.coords]
    tangent = [sum(c * ((b * u ** (a + 1) * v ** (b - 1) if b else 0)
                        - (a * u ** (a - 1) * v ** (b + 1) if a else 0))
                   for (a, b), c in fn.terms.items()) for fn in curve.coords]
    return value, tangent


_ARC_ENDS = st.sampled_from([F(k, 8) for k in range(9)]) | \
    st.fractions(0, 1, max_denominator=12)
# the rational circle points at t = 0, ¼, ½, ¾ and at s = tan πt = m
_CIRCLE_POINTS = st.sampled_from([(F(1), F(0)), (F(0), F(1)), (F(-1), F(0)),
                                  (F(0), F(-1))]) | \
    st.fractions(-8, 8, max_denominator=8).map(_circle_point)


@st.composite
def counted_planes(draw):
    """A curve and a hyperplane: random rational polynomial curves, moment
    curves n = 2..5, partial circle arcs and lifted circles; planes random,
    through a point (an end of the domain, t = ½, an arc end at a multiple
    of ¼), or tangent there, so that a double root is counted once."""
    kind = draw(st.sampled_from(["polynomial", "moment", "arc", "lifted"]))
    if kind in ("polynomial", "moment"):
        if kind == "moment":
            curve = moment_curve(draw(st.integers(2, 5)))
        else:
            lo = draw(st.fractions(0, F(1, 2), max_denominator=8))
            hi = draw(st.fractions(F(1, 2), 1, max_denominator=8).filter(lambda h: h > lo))
            coords = st.lists(_coefficient, min_size=1, max_size=5)
            curve = polynomial_curve(draw(st.lists(coords, min_size=2, max_size=4)), (lo, hi))
        at = st.sampled_from([*curve.domain, F(1, 2)]) | \
            st.fractions(*curve.domain, max_denominator=16)
    else:
        lo, hi = draw(st.lists(_ARC_ENDS, min_size=2, max_size=2, unique=True)
                      .map(sorted))
        curve = circle_arc(lo, hi)
        if kind == "lifted":
            curve = lift_curve(curve, draw(st.sampled_from(
                [make_Ms(2), MonomialSet([(1, 0), (0, 1), (1, 1)])])))
        at = _CIRCLE_POINTS
    n = curve.dimension
    normal = draw(st.lists(st.sampled_from([0, 1, -1, 2]) | _coefficient,
                           min_size=n, max_size=n).filter(any))
    how = draw(st.sampled_from(["random", "through", "tangent"]))
    if how == "random":
        return curve, Hyperplane(draw(_coefficient), normal)
    value, tangent = _value_and_tangent(curve, draw(at))
    if how == "tangent" and any(tangent):
        # move one coefficient so that the normal is orthogonal to γ′
        j = next(i for i, x in enumerate(tangent) if x)
        normal[j] -= sum(a * x for a, x in zip(normal, tangent)) / tangent[j]
        assume(any(normal))
    return curve, Hyperplane(sum(a * x for a, x in zip(normal, value)), normal)


@settings(max_examples=200, deadline=None)
@given(counted_planes())
# the lift of the circle by M₂ lies in x² + y² = 1
@example((lift_curve(circle_arc(), make_Ms(2)),
          Hyperplane(1, [int((m.a, m.b) in ((2, 0), (0, 2))) for m in make_Ms(2)])))
# a curve with a constant coordinate lies in y = 1/3
@example((polynomial_curve([[0, 1], [F(1, 3)]]), Hyperplane(F(1, 3), (0, 1))))
# y = 1 touches the arc at its end t = ¼
@example((circle_arc(F(1, 8), F(1, 4)), Hyperplane(1, (0, 1))))
def test_count_is_the_length_of_intersect(case):
    # counting by Sturm counts gives what locating gives, and both routes
    # refuse the same planes
    curve, plane = case
    assert _count_or_degenerate(_count, curve, plane.integer_form[1]) == \
        _count_or_degenerate(lambda c, h: len(intersect(c, h)), curve, plane)


def _half_angle_row(f: TrigCoord) -> list:
    """The integers of (1 + s²)^d·f in s = tan πt at f's own degree d, the
    largest a + b of its terms, low degree first and untrimmed."""
    d = max(a + b for a, b in f.terms)
    row = [0] * (2 * d + 1)
    for (a, b), c in f.integer_form[1].items():
        for i, x in enumerate(_half_angle_basis(a, b, d)):
            row[i] += c * x
    return row


def _per_plane_trig_row(curve, plane):
    """The per-plane route the plane matrix replaced on a trigonometric
    curve: g = Σ nᵢ·(D/dᵢ)·eᵢ − n₀·D over the lcm D of the dᵢ with nᵢ ≠ 0,
    as a ``TrigCoord``, in half-angle form at g's own degree; None when
    g ≡ 0."""
    n0, *ns = plane
    forms = [(n, fn.integer_form) for n, fn in zip(ns, curve.coords) if n]
    D = math.lcm(*(d for _, (d, _) in forms))
    g = {(0, 0): -n0 * D}
    for n, (d, e) in forms:
        for key, c in e.items():
            g[key] = g.get(key, 0) + n * (D // d) * c
    f = TrigCoord(g)
    return None if f.is_zero() else _half_angle_row(f)


@st.composite
def trig_planes(draw):
    """A trigonometric curve and a plane: the full circle, arcs through ½
    with ends j/n (n ≤ 64, where tan πx can be narrowed, and beyond), and
    their lifts by M₁ to M₃; planes random, with the coordinates of the
    curve's largest degree zeroed, so that the matrix row carries a power
    of 1 + s², through t = 0, t = ½ or a rational circle point (some near
    t = 0), or tangent there, a double root."""
    lo, hi = F(0), F(1)
    if draw(st.booleans()):
        n = draw(st.integers(2, 64) | st.integers(65, 200))
        lo = F(draw(st.integers(0, n // 2)), n)
        hi = F(draw(st.integers(-(-n // 2), n)), n)
        if lo == hi:
            hi = F(1)
    curve = circle_arc(lo, hi)
    k = draw(st.integers(0, 3))
    if k:
        curve = lift_curve(curve, make_Ms(k))
    n = curve.dimension
    degrees = [max(a + b for a, b in fn.terms) for fn in curve.coords]
    normal = draw(st.lists(st.sampled_from([0, 1, -1, 2]) | _coefficient,
                           min_size=n, max_size=n))
    free = list(range(n))
    if draw(st.booleans()) and min(degrees) < max(degrees):
        free = [i for i in free if degrees[i] < max(degrees)]
        normal = [x if i in free else 0 for i, x in enumerate(normal)]
    assume(any(normal))
    how = draw(st.sampled_from(["random", "through", "tangent"]))
    if how == "random":
        return curve, Hyperplane(draw(_coefficient), normal)
    near_zero = st.fractions(F(-1, 100), F(1, 100), max_denominator=10 ** 6)
    value, tangent = _value_and_tangent(curve, draw(
        st.sampled_from([(F(1), F(0)), (F(-1), F(0))]) | _CIRCLE_POINTS
        | near_zero.map(_circle_point)))
    if how == "tangent" and any(tangent[i] for i in free):
        j = next(i for i in free if tangent[i])
        normal[j] -= sum(a * x for a, x in zip(normal, tangent)) / tangent[j]
        assume(any(normal))
    return curve, Hyperplane(sum(a * x for a, x in zip(normal, value)), normal)


@settings(max_examples=200, deadline=None)
@given(trig_planes())
# x = 1 touches the circle at t = 0 and t = 1; y = 0 through t = 0 and ½
@example((circle_arc(), Hyperplane(1, (1, 0))))
@example((circle_arc(), Hyperplane(0, (0, 1))))
# the M₂ lift, its degree-2 coordinates zeroed: the row is (1 + s²)·g, with
# a larger Cauchy bound than g's own form, and a root near t = 0 whose
# float the bound's grid would move by an ulp
@example((lift_curve(circle_arc(), make_Ms(2)), Hyperplane(F(1, 3), (1, 1, 0, 0, 0))))
@example((lift_curve(circle_arc(), make_Ms(2)),
          Hyperplane(-14692148, (-14691908, -1986691, 0, 0, 0))))
# an arc through ½ whose end 1/67 has no polynomial to narrow tan on
@example((circle_arc(F(1, 67), F(2, 3)), Hyperplane(F(1, 5), (1, 2))))
def test_trig_rows_match_the_per_plane_route(case):
    # the plane matrix's row is (1 + s²)^k times the per-plane half-angle
    # form: the same counts, the same floats bit for bit and the same
    # certificate, and the same planes refused, one plane or a block
    curve, plane = case
    ints = plane.integer_form[1]
    bound = max(map(abs, ints))
    row = _per_plane_trig_row(curve, ints)
    if row is None:
        for fn in (intersect, lambda c, h: _count(c, h.integer_form[1])):
            with pytest.raises(DegenerateIntersection):
                fn(curve, plane)
        assert _counts(curve, [ints], bound) == []
        return
    kernel = TrigRoots(row, *curve.domain)
    roots = intersect(curve, plane)
    assert [x.hex() for x in roots] == [x.hex() for x in kernel.params()]
    assert roots.certified == kernel.sure
    assert _count(curve, ints) == kernel.count() == _counts(curve, [ints], bound)[0]


@st.composite
def full_circle_rows(draw):
    """A nonzero row of the plane matrix of the full circle or of its lift
    by M₁ to M₃ or by {x, y, xy}: a random plane, one through a circle
    point ((1, 0) at t = 0 and 1, (−1, 0) at t = ½, or a rational one) or
    tangent there (a double root), or one through two circle points on the
    same half-line of s = tan πt (V ≥ 2 there).  Some planes zero the
    coordinates of the curve's largest degree, so that 1 + s² divides the
    row."""
    curve = circle_arc()
    lift = draw(st.sampled_from([None, make_Ms(1), make_Ms(2), make_Ms(3),
                                 MonomialSet([(1, 0), (0, 1), (1, 1)])]))
    if lift is not None:
        curve = lift_curve(curve, lift)
    n = curve.dimension
    degrees = [max(a + b for a, b in fn.terms) for fn in curve.coords]
    normal = draw(st.lists(st.sampled_from([0, 1, -1, 2]) | _coefficient,
                           min_size=n, max_size=n))
    free = list(range(n))
    if draw(st.booleans()) and min(degrees) < max(degrees):
        free = [i for i in free if degrees[i] < max(degrees)]
        normal = [x if i in free else 0 for i, x in enumerate(normal)]
    assume(any(normal))
    how = draw(st.sampled_from(["random", "through", "tangent", "chord"]))
    if how == "random":
        plane = Hyperplane(draw(_coefficient), normal)
    else:
        value, along = _value_and_tangent(curve, draw(_CIRCLE_POINTS))
        if how == "chord":
            side = draw(st.sampled_from([1, -1]))
            m1, m2 = draw(st.lists(st.fractions(F(1, 8), 8, max_denominator=8),
                                   min_size=2, max_size=2, unique=True))
            value, other = (_value_and_tangent(curve, _circle_point(side * m))[0]
                            for m in (m1, m2))
            along = [x - y for x, y in zip(value, other)]
        if how != "through" and any(along[i] for i in free):
            j = next(i for i in free if along[i])
            normal[j] -= sum(a * x for a, x in zip(normal, along)) / along[j]
            assume(any(normal))
        plane = Hyperplane(sum(a * x for a, x in zip(normal, value)), normal)
    row = [sum(map(operator.mul, plane.integer_form[1], col)) for col in curve.plane_matrix()]
    assume(any(row))
    return row


@settings(max_examples=200, deadline=None)
@given(full_circle_rows())
# x = 1 touches the circle at t = 0 and 1, x = −1 at ½, and y = 1/2 meets
# it twice on s > 0: P = s² − 4s + 1, with V = 2 there
@example([0, 0, 2])
@example([2, 0, 0])
@example([1, -4, 1])
# 1 + s² divides the row: (1 + s²)(s − 1)² has a double root at s = 1
@example([1, -2, 2, -2, 1])
def test_full_circle_counts_match_the_real_roots(row):
    # the roots t in [0, 1] are s = tan πt for the real roots s ≠ 0 of the
    # row, t = 0 and t = 1 for s = 0, and t = ½ when the row's last entry,
    # f(−1, 0), is 0; f ≤ 0 somewhere when it has a root, or when f(1, 0)
    # or f(−1, 0) is negative
    q = sp.Poly(row[::-1], sp.Symbol("s")).sqf_part()
    real = len(q.real_roots()) + (q.eval(0) == 0) + (row[-1] == 0)
    kernel = TrigRoots(row, F(0), F(1))
    assert kernel.sure and kernel.count() == real
    assert kernel.nonpositive() == bool(real or row[0] < 0 or row[-1] < 0)
    assert len(kernel.params()) == real


def _scalar_count(coords, lo, hi, plane):
    """The per-plane route the matrix kernel replaced: g = Σ nᵢ·(D/dᵢ)·eᵢ −
    n₀·D over the lcm D of the dᵢ with nᵢ ≠ 0, counted by
    ``polys.Roots(g).closed(lo, hi)``; None when g ≡ 0."""
    n0, *ns = plane
    forms = [(n, c.integer_form) for n, c in zip(ns, coords) if n]
    D = math.lcm(*(d for _, (d, _) in forms))
    g = [-n0 * D]
    for n, (d, e) in forms:
        g += [0] * (len(e) - len(g))
        for i, c in enumerate(e):
            g[i] += n * (D // d) * c
    while g and not g[-1]:
        g.pop()
    return polys.Roots(g).closed(lo, hi) if g else None


@st.composite
def kernel_blocks(draw):
    """Coefficient lists of a rational polynomial curve of degree ≤ 5, a
    domain lo < hi that may be negative or non-dyadic, and a block of planes
    as integers: random, through γ(t) or tangent there (a double root) at
    an end or inside, or with g's top coefficient cancelled; some scaled by
    3⁴⁰, past what int64 holds."""
    coords = draw(st.lists(st.lists(_coefficient, min_size=1, max_size=6),
                           min_size=1, max_size=4))
    lo, hi = draw(st.lists(st.fractions(-3, 3, max_denominator=12), min_size=2,
                           max_size=2, unique=True).map(sorted))
    fns = [polys.poly(c) for c in coords]
    top = max(len(p) for p in fns) - 1
    planes = []
    for _ in range(draw(st.integers(1, 6))):
        normal = draw(st.lists(st.sampled_from([0, 1, -1, 2]) | _coefficient,
                               min_size=len(coords), max_size=len(coords)))
        how = draw(st.sampled_from(["random", "through", "tangent", "low"]))
        if how == "random":
            k = 1 << 24
            plane = draw(st.lists(st.integers(-k, k), min_size=len(coords) + 1,
                                  max_size=len(coords) + 1))
        else:
            t = draw(st.sampled_from([lo, hi]) | st.fractions(lo, hi, max_denominator=16))
            if how == "tangent":
                along = [polys.eval_exact(polys.derivative(p), t) for p in fns]
            else:   # "through" moves nothing; "low" cancels g's top term
                along = [p[top] if len(p) > top >= 0 else 0 for p in fns]
            if how != "through" and any(along):
                j = next(i for i, x in enumerate(along) if x)
                normal[j] -= sum(a * x for a, x in zip(normal, along)) / along[j]
            a0 = sum(a * polys.eval_exact(p, t) for a, p in zip(normal, fns))
            plane = polys.integer_form([F(a0), *map(F, normal)])[1]
        scale = draw(st.sampled_from([1, 1, 1, 3 ** 40]))
        if any(plane[1:]):
            planes.append([scale * n for n in plane])
    assume(planes)
    return coords, lo, hi, planes


@settings(max_examples=200, deadline=None)
@given(kernel_blocks())
# on (t, t², 1/3) over [−1/3, 2/5]: g = (3t + 1)², a double root on the
# negative end; the plane 3z = 1, which holds the curve; a plane past int64
@example(([[0, 1], [0, 0, 1], [F(1, 3)]], F(-1, 3), F(2, 5),
          [[-1, 6, 9, 0], [1, 2, -3, 0], [1, 0, 0, 3], [3 ** 40, -(3 ** 41), 5, 7]]))
# on the twisted cubic over [−2/3, 5/7]: g without its t³ term, a root at
# t = 0, a plane past int64
@example(([[0, 1], [0, 0, 1], [0, 0, 0, 1]], F(-2, 3), F(5, 7),
          [[1, 2, -3, 0], [0, 1, 0, 0], [-(2 ** 70), 2 ** 69, 3, 2 ** 71]]))
def test_plane_kernel_matches_the_scalar_route(case):
    # one matrix product for the whole block gives every plane's count, and
    # drops the planes that contain the curve, as the per-plane route does
    coeffs, lo, hi, planes = case
    coords = [PolyCoord(c) for c in coeffs]
    bound = max(abs(n) for plane in planes for n in plane)
    expected = [_scalar_count(coords, lo, hi, p) for p in planes]
    assert _poly_counts(_plane_columns(coords, lo, hi), lo, hi, planes, bound) == \
        [k for k in expected if k is not None]


@st.composite
def moment_planes(draw):
    """A moment curve of degree n = 2..5 on a partial domain, perhaps with
    one more coordinate c₀ + Σ cᵢtⁱ, which puts the curve in a plane, and a
    plane: random, through γ(lo) or γ(hi), with g = Π(t − rᵢ) for up to n
    roots rᵢ in the domain (at its ends, repeated or inside), or the plane
    that holds the curve."""
    n = draw(st.integers(2, 5))
    lo, hi = draw(st.lists(_ARC_ENDS, min_size=2, max_size=2, unique=True)
                  .map(sorted).filter(lambda d: d != [0, 1]))
    coords = [[0] * i + [1] for i in range(1, n + 1)]
    extra = draw(st.none() | st.lists(_coefficient, min_size=n + 1, max_size=n + 1))
    if extra is not None:
        coords.append(extra)
    curve = polynomial_curve(coords, (lo, hi))
    how = draw(st.sampled_from(["random", "through", "roots"]
                               + ["holds"] * (extra is not None)))
    if how == "holds":
        return curve, Hyperplane(extra[0], [-c for c in extra[1:]] + [1])
    if how == "roots":
        g = polys.ONE
        for _ in range(draw(st.integers(1, n))):
            r = draw(st.sampled_from([lo, hi]) | st.fractions(lo, hi, max_denominator=40))
            g = polys.mul(g, polys.poly((-r, 1)))
        g += (0,) * (n + 1 - len(g))
        return curve, Hyperplane(-g[0], list(g[1:]) + [0] * (extra is not None))
    normal = draw(st.lists(_coefficient, min_size=curve.dimension,
                           max_size=curve.dimension).filter(any))
    if how == "random":
        return curve, Hyperplane(draw(_coefficient), normal)
    t = draw(st.sampled_from([lo, hi]))
    value = [polys.eval_exact(c.coeffs, t) for c in curve.coords]
    return curve, Hyperplane(sum(a * x for a, x in zip(normal, value)), normal)


@settings(max_examples=200, deadline=None)
@given(moment_planes())
def test_intersect_is_isolation_and_refinement_of_g(case):
    # the plane matrix's row, R's signs and the guessed cells give what
    # isolating and refining g = Σ aᵢγᵢ − a₀ by its own kernel gives, bit for
    # bit, and _count agrees; a plane that holds the curve raises both ways
    curve, plane = case
    g = polys.poly([-plane.a0])
    for a, c in zip(plane.normal, curve.coords):
        g = polys.add(g, polys.mul(polys.poly([a]), c.coeffs))
    if not g:
        for fn in (intersect, lambda c, h: _count(c, h.integer_form[1])):
            with pytest.raises(DegenerateIntersection):
                fn(curve, plane)
        return
    roots = polys.Roots(g)
    expected = [roots.refine(a, b) for a, b in roots.isolate(*curve.domain)]
    got = intersect(curve, plane)
    assert [x.hex() for x in got] == [x.hex() for x in expected]
    assert got.certified and _count(curve, plane.integer_form[1]) == len(expected)


def test_a_survey_past_one_block_matches_the_scalar_loop():
    # integers in [−2, 2] make zero normals and planes that contain the
    # curve common: (t, t, t²) lies in x − y = 0
    curve, trials = polynomial_curve([[0, 1], [0, 1], [0, 0, 1]]), _PLANE_BLOCK + 1
    small = random.Random(5)
    hist = _histogram(curve, lambda k: np.array(
        [[small.randint(-2, 2) for _ in range(4)] for _ in range(k)]), trials, 2)
    rng, expected, skipped = random.Random(5), {}, set()
    while sum(expected.values()) < trials:
        plane = [rng.randint(-2, 2) for _ in range(4)]
        if not any(plane[1:]):
            skipped.add("zero normal")
            continue
        k = _scalar_count(curve.coords, *curve.domain, plane)
        if k is None:
            skipped.add("contains the curve")
            continue
        expected[k] = expected.get(k, 0) + 1
    assert skipped == {"zero normal", "contains the curve"}
    assert hist == expected


@settings(max_examples=30, deadline=None)
@given(st.integers() | st.integers(min_value=1 << 64) | st.text(), st.integers(2, 9),
       st.integers(1, 40) | st.integers(_PLANE_BLOCK - 2, _PLANE_BLOCK + 40))
@example(-7, 9, 2 * _PLANE_BLOCK + 3)
# word 209 of this stream gives 2²⁵, the largest value randint keeps (the
# coefficient 2²⁴), and word 81 of the next 2²⁵ + 1, the least it refuses
@example(1283155, 2, 100)
@example(90272, 2, 100)
def test_the_bulk_draw_is_the_randint_stream(seed, n, trials):
    # the planes a survey asks for, a block at a time, with a zero normal
    # dropped, are those that n + 1 calls each of randint(−2²⁴, 2²⁴) give
    draw, planes = _draws(seed, n), []
    while len(planes) < trials:
        block = draw(min(trials - len(planes), _PLANE_BLOCK))
        assert block.dtype == np.int64 and block.shape[1] == n + 1
        planes += block[block[:, 1:].any(axis=1)].tolist()
    rng, expected = random.Random(seed), []
    while len(expected) < trials:
        plane = [rng.randint(-1 << 24, 1 << 24) for _ in range(n + 1)]
        if any(plane[1:]):
            expected.append(plane)
    assert planes == expected


def test_a_survey_leaves_numpy_random_unimported():
    # importing numpy.random costs about 14 ms, which every survey, the
    # benchmark's warm-up included, would pay
    code = ("import sys\n"
            "from curvecount import circle_arc, moment_curve, survey_intersections\n"
            "for curve in (moment_curve(3), circle_arc()):\n"
            "    survey_intersections(curve, 5000, 1)\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], timeout=60, capture_output=True,
                          env={**os.environ, "PYTHONPATH": src}, text=True)
    assert proc.returncode == 0, proc.stderr


def test_mvt_off_a_graph_keeps_the_curve_parameter():
    # x = 1/3 + 2t on [1/5, 4/5]: graph form would need x in [11/15, 28/15],
    # outside the [0, 1] that a curve's domain must lie in
    curve = polynomial_curve([[F(1, 3), 2], [0, 0, 1]], (F(1, 5), F(4, 5)))
    assert mvt_consistency(curve, Hyperplane(F(1, 2), (0, 1)))
    # with y = (t − 3/10)(t − 1/2)(t − 7/10), g = x/1000 + y − 1/3000 − 1/1000
    # is (t − 1/2)((t − 1/2)² − 19/500): three roots inside the domain
    cubic = polys.mul(polys.mul(polys.poly((F(-3, 10), 1)), polys.poly((F(-1, 2), 1))),
                      polys.poly((F(-7, 10), 1)))
    curve = polynomial_curve([[F(1, 3), 2], list(cubic)], (F(1, 5), F(4, 5)))
    plane = Hyperplane(F(1, 3000) + F(1, 1000), (F(1, 1000), 1))
    roots = intersect(curve, plane)
    assert len(roots) == 3
    # g′ = y′ + 1/500 has its two roots inside the domain, as Rolle says
    assert polys.Roots(polys.add(polys.derivative(cubic), (F(1, 500),))).closed(
        F(1, 5), F(4, 5)) == 2
    assert mvt_consistency(curve, plane, roots) and mvt_consistency(curve, plane)
    # four claimed roots would need three roots of g′
    assert not mvt_consistency(curve, plane, RootList(roots.roots + (0.0,), True))


@settings(max_examples=100, deadline=None)
@given(st.fractions(-2, 2, max_denominator=6), _coefficient.filter(bool),
       st.lists(st.lists(_coefficient, min_size=1, max_size=5), min_size=1, max_size=3),
       st.lists(_coefficient, min_size=5, max_size=5),
       st.tuples(st.fractions(0, F(1, 2), max_denominator=9),
                 st.fractions(F(1, 2), 1, max_denominator=9))
       .filter(lambda d: d[0] < d[1]))
def test_mvt_counts_roots_of_g_prime_in_the_curve_parameter(b, c, rest, coeffs,
                                                            domain):
    # on x₁ = b + c·t, the derived count is that of g′ = Σ aᵢγᵢ′ on the
    # curve's own domain, found here in Fractions: with m roots of g′,
    # m + 1 claimed roots of g are consistent and m + 2 are not
    curve = polynomial_curve([[b, c], *rest], domain)
    normal = coeffs[1:curve.dimension + 1]
    assume(any(normal[1:]))
    plane = Hyperplane(coeffs[0], normal)
    g_prime = polys.ZERO
    for a, fn in zip(plane.normal, curve.coords):
        g_prime = polys.add(g_prime, polys.mul(polys.derivative(fn.coeffs), polys.poly([a])))
    assume(g_prime)
    m = polys.Roots(g_prime).closed(*domain)
    assert mvt_consistency(curve, plane, RootList(tuple(range(m + 1)), True))
    assert not mvt_consistency(curve, plane, RootList(tuple(range(m + 2)), True))
