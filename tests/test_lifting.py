"""Monomial lifts: point/curve lifting, exponents, the Lipschitz constant,
and the lattice bijection."""

import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from curvecount import curves, polys
from curvecount import (InvalidCurveError, Monomial, MonomialSet, circle_arc,
                        check_lattice_bijection, count_on_curve_lattice,
                        exponent, graph_curve, lift_curve, lift_point,
                        lipschitz_constant_squared, make_Ms, parabola,
                        polynomial_curve, wronskian, wronskian_symbolic)
from curvecount.curves import CurveSpec, PolyCoord, TrigCoord
from curvecount.lifting import BijectionReport, LiftError, X, Y
from curvecount.pointsets import FiniteSet, InexactNumber, _integer_form

M_XY = MonomialSet([(1, 0), (0, 1)])
M_XY_XY = MonomialSet([(1, 0), (0, 1), (1, 1)])


def test_monomial_validation():
    with pytest.raises(ValueError):
        Monomial(0, 0)
    with pytest.raises(ValueError):
        Monomial(-1, 2)
    assert Monomial(2, 3).degree == 5


def test_monomial_set_canonical_order():
    ms = MonomialSet([(0, 2), (1, 1), (0, 1), (2, 0), (1, 0)])
    assert [str(m) for m in ms] == ["x", "y", "x^2", "x*y", "y^2"]
    with pytest.raises(LiftError):
        MonomialSet([(1, 0), (1, 0)])
    # a fractional exponent used to be truncated: {y, x^1.5} lifted as {y, x}
    for bad in ([(0, 1), (1.5, 0)], [(0, 1), (1, "2")], [(True, 0)]):
        with pytest.raises(LiftError, match="must be an integer"):
            MonomialSet(bad)


def test_make_ms_sizes():
    assert [str(m) for m in make_Ms(1)] == ["x", "y"]
    assert len(make_Ms(2)) == 5
    assert len(make_Ms(3)) == 9
    for s in range(1, 7):
        assert len(make_Ms(s)) == (s + 1) * (s + 2) // 2 - 1
    with pytest.raises(LiftError):
        make_Ms(0)


def test_lift_point_examples():
    assert lift_point((F(1, 2), F(1, 4)), MonomialSet([(1, 0), (0, 1), (2, 0)])) \
        == (F(1, 2), F(1, 4), F(1, 4))
    assert lift_point((0, 0), make_Ms(2)) == (0, 0, 0, 0, 0)
    assert lift_point((F(2, 3), F(1, 3)), make_Ms(2)) \
        == (F(2, 3), F(1, 3), F(4, 9), F(2, 9), F(1, 9))


def test_lift_point_projection_identity():
    rng = random.Random(5)
    for mset in (M_XY, M_XY_XY, make_Ms(2), make_Ms(3)):
        for _ in range(25):
            p = (F(rng.randint(-99, 99), rng.randint(1, 40)),
                 F(rng.randint(-99, 99), rng.randint(1, 40)))
            assert lift_point(p, mset)[:2] == p


def test_lift_curve_identity_and_moment():
    pb = parabola()
    same = lift_curve(pb, M_XY)
    assert [c.coeffs for c in same.coords] == [c.coeffs for c in pb.coords]
    lifted = lift_curve(pb, M_XY_XY)
    assert [c.coeffs for c in lifted.coords] == \
        [(F(0), F(1)), (F(0), F(0), F(1)), (F(0), F(0), F(0), F(1))]
    assert lifted.kind == "lifted"


def test_lift_by_the_full_degree_5_set():
    # 20 coordinates: the lift of a planar curve by any monomial set exists
    M5 = make_Ms(5)
    t = F(1, 3)
    lifted = lift_curve(parabola(), M5)
    assert lifted.dimension == 20
    point = tuple(fn.eval(t) for fn in lifted.coords)
    assert point == lift_point((t, t * t), M5)
    circle = lift_curve(circle_arc(), M5)
    assert circle.dimension == 20
    x, y = math.cos(math.tau / 3), math.sin(math.tau / 3)
    assert [fn.eval(1 / 3) for fn in circle.coords] == pytest.approx(
        [x ** m.a * y ** m.b for m in M5], abs=1e-12)


def test_lift_duplicate_coordinate_kills_wronskian():
    lifted = lift_curve(parabola(), MonomialSet([(1, 0), (0, 1), (2, 0)]))
    assert wronskian_symbolic(lifted).is_zero()


def test_lift_requires_planar():
    from curvecount import moment_curve
    with pytest.raises(InvalidCurveError):
        lift_curve(moment_curve(3), M_XY)


def test_lifted_wronskian_moment_value():
    for t in (F(0), F(1, 3), F(1, 2), F(7, 8)):
        assert wronskian(lift_curve(parabola(), M_XY_XY), t) == 12


def test_lifted_wronskian_y_squared_sympy_oracle():
    # lift (t, t^2) by {x, y, y^2} -> (t, t^2, t^4); oracle: symbolic det
    t = sp.symbols("t")
    mat = sp.Matrix([[sp.diff(g, t, k) for g in (t, t ** 2, t ** 4)]
                     for k in (1, 2, 3)])
    assert sp.expand(mat.det() - 48 * t) == 0
    lifted = lift_curve(parabola(), MonomialSet([(1, 0), (0, 1), (0, 2)]))
    assert wronskian_symbolic(lifted).coeffs == (F(0), F(48))


# -- the Wronskian of a lift against sympy's determinant ---------------------
# W is rebuilt from exact values by interpolation; these check it against
# sympy's determinant of the derivative matrix, differentiated by sympy.

T, THETA = sp.symbols("t theta")
MONOMIAL_SETS = st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2))
                        .filter(lambda m: sum(m) >= 1), min_size=1, max_size=5)


def _rat(x) -> F:
    x = sp.Rational(x)
    return F(int(x.p), int(x.q))


def _derivative_rows(fs, var):
    return [[sp.diff(f, (var, k)) for f in fs] for k in range(1, len(fs) + 1)]


@settings(max_examples=30, deadline=None)
@given(xc=st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1, max_size=3),
       yc=st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1, max_size=3),
       mons=MONOMIAL_SETS)
def test_polynomial_lift_wronskian_matches_sympy(xc, yc, mons):
    M = MonomialSet(sorted(mons))
    lifted = lift_curve(polynomial_curve([xc, yc]), M)
    x, y = (sum(sp.Rational(c.numerator, c.denominator) * T ** i
                for i, c in enumerate(cs)) for cs in (xc, yc))
    rows = _derivative_rows([x ** m.a * y ** m.b for m in M], T)
    det = sp.Poly(sp.expand(sp.Matrix(rows).det(method="berkowitz")), T)
    expected = tuple(_rat(c) for c in reversed(det.all_coeffs())) if not det.is_zero else ()
    assert wronskian_symbolic(lifted).coeffs == expected


def _circle_value(w: TrigCoord, u, v) -> F:
    return sum(c * u ** a * v ** b for (a, b), c in w.terms.items())


@settings(max_examples=30, deadline=None)
@given(mons=MONOMIAL_SETS)
@example(mons={(0, 1), (0, 2)})   # W = 2·(2π)³·u·(1 − v²), odd in u
def test_circle_lift_wronskian_matches_sympy_off_the_nodes(mons):
    # t-derivatives of cos^a 2πt·sin^b 2πt are (2π)^k times θ-derivatives
    # of cos^a θ·sin^b θ, so W = (2π)^(n(n+1)/2)·det of the θ-derivatives
    M = MonomialSet(sorted(mons))
    w = wronskian_symbolic(lift_curve(circle_arc(), M))
    n = M.n
    assert w.is_zero() or w.tau_power == n * (n + 1) // 2
    mat = sp.Matrix(_derivative_rows([sp.cos(THETA) ** m.a * sp.sin(THETA) ** m.b
                                      for m in M], THETA))
    # the interpolation nodes are s = tan πt = 1/m and m for integers m ≥ 2
    for s in (F(2, 3), F(-3, 5), F(7, 2), F(-5, 4)):
        u, v = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
        su, sv = (sp.Rational(q.numerator, q.denominator) for q in (u, v))
        expected = mat.subs({sp.cos(THETA): su, sp.sin(THETA): sv}).det()
        assert _circle_value(w, u, v) == _rat(expected)


# -- the rank step against the interpolation route -------------------------
# wronskian_symbolic returns W ≡ 0 when the first derivatives are dependent,
# without interpolating; the interpolation route on the full derivative
# table must give the same object, tau_power included (TrigCoord's == does
# not compare it for a zero W).

# monomial sets whose lift has dependent derivatives on the base curve
FORCED = {"graph": [{(0, 1), (2, 0)}],                        # y = x²
          "circle": [{(2, 0), (0, 2)},                        # x² + y² = 1
                     {(1, 0), (3, 0), (1, 2)}]}               # x³ + x·y² = x


def _interpolated(curve):
    build = curves._poly_wronskian if curve.is_exact else curves._trig_wronskian
    return build(*curve.derivatives(curve.dimension))


@st.composite
def lifted_curves(draw):
    coeffs = st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1, max_size=3)
    kind = draw(st.sampled_from(["polynomial", "graph", "circle"]))
    mons = set(draw(MONOMIAL_SETS))
    if kind == "polynomial":
        base = polynomial_curve([draw(coeffs), draw(coeffs)])
    elif kind == "graph":
        base = parabola()
    else:
        ends = draw(st.lists(st.fractions(0, 1, max_denominator=8), min_size=2,
                             max_size=2, unique=True))
        base = circle_arc(*sorted(ends))
    if kind in FORCED and draw(st.booleans()):
        mons |= draw(st.sampled_from(FORCED[kind]))
    coords = list(lift_curve(base, MonomialSet(sorted(mons))).coords)
    extra = draw(st.sampled_from(["none", "constant", "repeat"]))
    if extra == "constant":
        c = draw(st.fractions(-3, 3, max_denominator=3))
        const = PolyCoord([c]) if base.is_exact else TrigCoord({(0, 0): c})
        coords.insert(draw(st.integers(0, len(coords))), const)
    elif extra == "repeat":
        coords.append(coords[draw(st.integers(0, len(coords) - 1))])
    return CurveSpec("lifted", coords, base.domain)


@settings(max_examples=60, deadline=None)
@given(curve=lifted_curves())
@example(curve=lift_curve(parabola(), MonomialSet([(1, 0), (0, 1), (2, 0)])))
@example(curve=lift_curve(circle_arc(), MonomialSet([(1, 0), (2, 0), (0, 2)])))
@example(curve=lift_curve(circle_arc(), MonomialSet([(1, 0), (3, 0), (1, 2)])))
@example(curve=lift_curve(circle_arc(), make_Ms(3)))
def test_rank_step_matches_the_interpolation_route(curve):
    w = wronskian_symbolic(curve)
    expected = _interpolated(CurveSpec(curve.kind, curve.coords, curve.domain))
    assert type(w) is type(expected)
    if curve.is_exact:
        assert w.coeffs == expected.coeffs
    else:
        assert w.terms == expected.terms and w.tau_power == expected.tau_power


def test_dependent_derivatives_skip_the_determinants():
    # the circle lifted by M₃ holds x² and y²: the rank of its first
    # derivatives is below 9, so no higher derivative or determinant is built
    lifted = lift_curve(circle_arc(), make_Ms(3))
    with mock.patch.object(polys, "det_int", side_effect=AssertionError):
        w = wronskian_symbolic(lifted)
    assert w.is_zero() and w.tau_power == sum(range(1, 10))
    assert len(lifted._deriv_table) == 2


def test_large_graph_lift_wronskian_matches_sympy():
    # y = t⁵ + t lifted by M₄: n = 14 and deg W = 15
    lifted = lift_curve(graph_curve([[0, 1, 0, 0, 0, 1]]), make_Ms(4))
    w = wronskian_symbolic(lifted)
    assert len(w.coeffs) == 16
    x, y = sp.Poly(T, T), sp.Poly(T ** 5 + T, T)
    rows = _derivative_rows([x ** m.a * y ** m.b for m in make_Ms(4)], T)
    for t in (F(1, 3), F(-2, 5), F(3, 2), F(7, 11), F(-9, 4)):
        r = sp.Rational(t.numerator, t.denominator)
        expected = sp.Matrix([[p.eval(r) for p in row] for row in rows]).det()
        assert polys.eval_exact(w.coeffs, t) == _rat(expected)


def test_circle_lift_by_M4_has_zero_wronskian():
    # x² + y² = 1 is a linear relation among the coordinates of every M_s, s ≥ 2
    assert wronskian_symbolic(lift_curve(circle_arc(), make_Ms(4))).is_zero()


def test_circle_lift_hyperplane_containment():
    lifted = lift_curve(circle_arc(), make_Ms(2))
    # x^2 + y^2 = 1 becomes the linear relation coord3 + coord5 = 1
    residual = lifted.coords[2].add(lifted.coords[4]).add(TrigCoord({(0, 0): -1}))
    assert residual.is_zero()
    assert wronskian_symbolic(lifted).is_zero()


def test_exponent_values():
    assert exponent(M_XY) == F(2, 3)
    assert exponent(make_Ms(2)) == F(8, 15)
    assert exponent(make_Ms(3)) == F(4, 9)
    for s in range(1, 7):
        assert exponent(make_Ms(s)) == F(8, 3 * (s + 3))
    assert exponent(M_XY_XY) == F(2, 3)


def test_lipschitz_constant_values():
    assert lipschitz_constant_squared(M_XY, 1) == 2
    assert lipschitz_constant_squared(make_Ms(2), 1) == 14
    assert lipschitz_constant_squared(MonomialSet([(1, 0), (0, 1), (2, 0)]), 2) == 18
    with pytest.raises(LiftError):
        lipschitz_constant_squared(M_XY, F(1, 2))


def test_lipschitz_inequality_randomized_exact():
    rng = random.Random(99)
    for mset in (M_XY, make_Ms(2), MonomialSet([(1, 0), (0, 1), (3, 1), (0, 4)])):
        c2 = lipschitz_constant_squared(mset, 1)
        for _ in range(60):
            p = (F(rng.randint(-32, 32), 32), F(rng.randint(-32, 32), 32))
            q = (F(rng.randint(-32, 32), 32), F(rng.randint(-32, 32), 32))
            lhs = sum((a - b) ** 2 for a, b in zip(lift_point(p, mset),
                                                   lift_point(q, mset)))
            rhs = c2 * sum((a - b) ** 2 for a, b in zip(p, q))
            assert lhs <= rhs


def test_lipschitz_inequality_wider_box():
    rng = random.Random(41)
    mset = make_Ms(2)
    c2 = lipschitz_constant_squared(mset, 2)
    for _ in range(40):
        p = (F(rng.randint(-64, 64), 32), F(rng.randint(-64, 64), 32))
        q = (F(rng.randint(-64, 64), 32), F(rng.randint(-64, 64), 32))
        lhs = sum((a - b) ** 2 for a, b in zip(lift_point(p, mset),
                                               lift_point(q, mset)))
        assert lhs <= c2 * sum((a - b) ** 2 for a, b in zip(p, q))


def test_bijection_parabola_xy_times():
    pts = count_on_curve_lattice(parabola(), 4)
    rep = check_lattice_bijection(parabola(), M_XY_XY, 4, pts)
    assert rep.bijection
    assert rep.cardinality_base == 3 == rep.cardinality_lifted
    assert rep.degrees == (1, 1, 2)
    # third coordinate of every lift lies in (1/64)Z
    for p in pts:
        third = lift_point(p, M_XY_XY)[2]
        assert (F(third) * 64).denominator == 1


def test_bijection_identity_map():
    pts = count_on_curve_lattice(parabola(), 7)
    rep = check_lattice_bijection(parabola(), M_XY, 7, pts)
    assert rep.bijection and rep.cardinality_base == rep.cardinality_lifted


def test_bijection_parabola_m2_n9():
    pts = count_on_curve_lattice(parabola(), 9)
    assert sorted(p[0] for p in pts) == [0, F(1, 3), F(2, 3), 1]
    rep = check_lattice_bijection(parabola(), make_Ms(2), 9, pts)
    assert rep.bijection and rep.cardinality_base == 4
    denominators = (9, 9, 81, 81, 81)
    for p in pts:
        for coord, d in zip(lift_point(p, make_Ms(2)), denominators):
            assert (F(coord) * d).denominator == 1


def test_bijection_requires_xy():
    with pytest.raises(LiftError):
        check_lattice_bijection(parabola(), MonomialSet([(2, 0), (0, 2)]), 4, [])


def test_x_y_flags():
    assert make_Ms(2).contains_x and make_Ms(2).contains_y
    ms = MonomialSet([(2, 0), (0, 1)])
    assert not ms.contains_x and ms.contains_y
    assert X in make_Ms(1).monomials and Y in make_Ms(1).monomials


def _bijection_by_fractions(M, N, points) -> BijectionReport:
    """Reference for check_lattice_bijection: every point sorted and lifted
    in Fractions, each coordinate tested against its lattice."""
    pts = sorted(points)
    violations, lifted = [], set()
    for p in pts:
        for c in p:
            if (F(c) * N).denominator != 1:
                violations.append(f"point {p} is not a 1/N-integer point")
        q = lift_point(p, M)
        for coord, m in zip(q, M):
            if (F(coord) * N ** m.degree).denominator != 1:
                violations.append(
                    f"lift of {p}: coordinate {coord} not in (1/N^{m.degree})Z")
        lifted.add(q)
    return BijectionReport(M.n, M.degrees, exponent(M), len(pts), len(lifted),
                           len(lifted) == len(pts) and not violations,
                           tuple(violations))


@settings(max_examples=120, deadline=None)
@given(st.lists(st.fractions(-3, 3, max_denominator=6), min_size=1, max_size=4),
       st.integers(1, 30),
       st.sampled_from([M_XY, M_XY_XY, make_Ms(2), make_Ms(3)]),
       st.lists(st.tuples(st.fractions(-2, 2, max_denominator=40),
                          st.fractions(-2, 2, max_denominator=40)), max_size=6),
       st.sampled_from(["list", "set", "rows"]))
def test_integer_lifts_give_the_fraction_report(f, N, M, extra, form):
    # the on-curve points of a graph at any N, square or not, with points
    # off the lattice and repeated points mixed in, as a list, a set of
    # exact points, or a set that holds its integer rows: the report,
    # violations and their order included, is the one the Fraction lifts give
    curve = graph_curve([f])
    points = list(count_on_curve_lattice(curve, N)) + extra + extra[:1]
    if form != "list":
        points = FiniteSet(points, 2)
    if form == "rows":
        _integer_form(points)
    assert check_lattice_bijection(curve, M, N, points) \
        == _bijection_by_fractions(M, N, points)


def test_off_lattice_rows_are_named_from_the_rows():
    # the points of (1/12)Z² checked against the coarser (1/6)Z²: the row
    # (1/2, 1/4) is off it and is decoded to be named; the count's set
    # still holds only its rows
    pts = count_on_curve_lattice(parabola(), 12)
    coarse = check_lattice_bijection(parabola(), make_Ms(2), 6, pts)
    assert pts._points is None
    assert coarse == _bijection_by_fractions(make_Ms(2), 6, list(pts))
    assert not coarse.bijection and coarse.cardinality_base == 3


def test_lifts_refuse_floats_and_bools():
    # a float is a binary fraction and True is not a coordinate: both used to
    # be lifted (0.5 as 1/2, True as 1); a string is still parsed exactly
    for p in ((0.5, F(1, 4)), (F(1, 2), 0.25), (True, 0)):
        with pytest.raises(InexactNumber):
            lift_point(p, M_XY_XY)
        with pytest.raises(InexactNumber):
            check_lattice_bijection(parabola(), M_XY_XY, 4, [p])
    assert lift_point(("1/2", "1/4"), M_XY_XY) == (F(1, 2), F(1, 4), F(1, 8))
    rep = check_lattice_bijection(parabola(), M_XY_XY, 4, [("1/2", "1/4"), (0, 0)])
    assert rep.bijection and rep.cardinality_lifted == 2
