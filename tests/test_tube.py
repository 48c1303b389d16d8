"""Tube counting: exact on-curve enumeration, the production counter, the
brute-force oracle, and their agreement."""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from curvecount import pointsets, polys, tube
from curvecount import (CapExceeded, ExperimentConfig, ExplicitSource,
                        FiniteSet, Gap, GapSource, InvalidQuery, LatticeSource,
                        Monomial, MonomialSet, TubeQuery, additive_energy,
                        brute_force_tube_oracle, check_lattice_bijection,
                        circle_arc, count_in_tube, count_on_curve_lattice,
                        delta_from_rule, gap_enumerate, graph_curve, lift_curve,
                        line_segment, lipschitz_constant_squared, m_fold_sumset,
                        make_Ms, moment_curve, parabola, polynomial_curve,
                        representation_counts, survey_intersections)
from curvecount.curves import (PolyCoord, TrigCoord, TrigRoots, _half_angle_basis,
                               derivative_sup_bound, eval_array)
from curvecount.pointsets import InexactNumber
from curvecount.tube import _least_index


def _translated(curve, vector):
    """A polynomial curve moved by an exact vector."""
    return polynomial_curve([polys.add(fn.coeffs, polys.poly([c]))
                             for fn, c in zip(curve.coords, vector)], curve.domain)


def test_delta_rule():
    assert delta_from_rule(1, 4, 2) == F(1, 16)
    assert delta_from_rule(F(3, 2), 2, 3) == F(3, 16)


def test_on_curve_lattice_parabola():
    pts = count_on_curve_lattice(parabola(), 4)
    assert sorted(pts) == [(0, 0), (F(1, 2), F(1, 4)), (1, 1)]


def test_on_curve_lattice_square_N():
    for m in range(2, 12):
        pts = count_on_curve_lattice(parabola(), m * m)
        assert len(pts) == m + 1
        assert sorted(p[0] for p in pts) == [F(j, m) for j in range(m + 1)]


def test_on_curve_lattice_offset_graph():
    curve = graph_curve([[F(1, 3), 0, 1]])  # y = x^2 + 1/3
    pts = count_on_curve_lattice(curve, 3)
    assert sorted(p[0] for p in pts) == [0, 1]


def test_on_curve_lattice_needs_graph():
    with pytest.raises(InvalidQuery):
        count_on_curve_lattice(circle_arc(), 4)


@pytest.mark.parametrize("N", [4.0, 2.5, F(4), "4", 0, -3])
def test_on_curve_lattice_rejects_a_bad_N(N):
    with pytest.raises(ValueError):
        count_on_curve_lattice(parabola(), N)


def test_on_curve_lattice_accepts_integer_likes():
    assert count_on_curve_lattice(parabola(), np.int64(4)) == \
        count_on_curve_lattice(parabola(), 4)


def on_curve_by_fractions(f, N, lo, hi):
    """The x = k/N in [lo, hi] with N·f(k/N) an integer, by Fraction Horner."""
    pts = []
    for k in range(math.ceil(lo * N), math.floor(hi * N) + 1):
        x = F(k, N)
        y = F(0)
        for c in reversed(f):
            y = y * x + c
        if (y * N).denominator == 1:
            pts.append((x, y))
    return pts


rationals = st.fractions(-3, 3, max_denominator=8)


@settings(max_examples=200, deadline=None)
@given(f=st.lists(rationals, max_size=6),
       N=st.integers(1, 60),
       domain=st.tuples(st.fractions(0, F(1, 2), max_denominator=9),
                        st.fractions(F(1, 2), 1, max_denominator=9))
       .filter(lambda d: d[0] < d[1]))
def test_on_curve_lattice_matches_fraction_loop(f, N, domain):
    graph = graph_curve([f], domain=domain)
    coeffs = graph.coords[1].coeffs
    assert sorted(count_on_curve_lattice(graph, N)) == \
        on_curve_by_fractions(coeffs, N, *domain)


def _on_curve_by_fraction_pairs(graph, N):
    """Reference for count_on_curve_lattice: the FiniteSet of the Fraction
    pairs (k/N, A_k/(D·N^d)) of the columns with N·A_k ≡ 0 mod D·N^d, one
    pair built per point on the curve."""
    lo, hi = graph.domain
    k_lo = math.ceil(lo * N)
    modulus, values = tube._graph_numerators(graph.coords[1], N, k_lo,
                                             math.floor(hi * N))
    on = np.flatnonzero(N * values % modulus == 0)
    return FiniteSet([(F(k, N), F(acc, modulus))
                      for k, acc in zip((on + k_lo).tolist(),
                                        values[on].tolist())], dimension=2)


_PRIMES = (2, 3, 5, 7, 11, 13)
# primes, prime powers and their products: N's factors decide which columns
# reduce, so the rows' common factor varies
_moduli = st.builds(lambda p, a, q, b: p ** a * q ** b,
                    st.sampled_from(_PRIMES), st.integers(0, 6),
                    st.sampled_from(_PRIMES), st.integers(0, 2)) \
    .filter(lambda n: n <= 5000)


@settings(max_examples=150, deadline=None)
@given(f=st.lists(rationals, max_size=5), N=_moduli,
       domain=st.tuples(st.fractions(0, F(1, 2), max_denominator=9),
                        st.fractions(F(1, 2), 1, max_denominator=9))
       .filter(lambda d: d[0] < d[1]))
@example(f=[F(1, 4), F(-1, 6), F(2, 3)], N=2 ** 7 * 5,
         domain=(F(1, 5), F(9, 10)))
# no point: the empty set's denominator is 1, as for any empty set
@example(f=[F(1, 3)], N=2, domain=(0, F(1, 2)))
def test_on_curve_rows_are_the_fraction_pairs(f, N, domain):
    graph = graph_curve([f], domain=domain)
    got = count_on_curve_lattice(graph, N)
    want = _on_curve_by_fraction_pairs(graph, N)
    assert got._points is None
    (L, rows), (L_want, rows_want) = got._integer, pointsets._integer_form(want)
    assert L == L_want and rows.tolist() == rows_want.tolist()
    assert list(got) == sorted(want.points) and got.points == want.points


def test_on_curve_set_is_used_without_decoding():
    # length, lifts and energy read the count's integer rows
    pts = count_on_curve_lattice(parabola(), 36)
    assert len(pts) == 7
    rep = check_lattice_bijection(parabola(), make_Ms(2), 36, pts)
    assert rep.bijection and rep.cardinality_base == 7
    energy = additive_energy(pts, 2)
    assert pts._points is None
    decoded = FiniteSet(list(count_on_curve_lattice(parabola(), 36)))
    assert energy == additive_energy(decoded, 2)
    assert rep == check_lattice_bijection(parabola(), make_Ms(2), 36, decoded)


# degree 6 at N from 5000 up: N·A_k passes 2⁶³, so the column numerators are
# an object array of Python ints
_wide = st.fractions(-3, 3, max_denominator=10 ** 6)


@settings(max_examples=10, deadline=None)
@given(f=st.lists(_wide, min_size=7, max_size=7).filter(lambda c: c[-1]),
       N=st.integers(5000, 12000),
       domain=st.tuples(st.fractions(0, F(9, 10), max_denominator=50),
                        st.fractions(F(1, 100), F(1, 10), max_denominator=100))
       .map(lambda d: (d[0], d[0] + d[1])))
# N·f(k/N) = 10⁴k²/7 + k⁶/3: on the curve exactly when 21 divides k
@example(f=[0, 0, F(10 ** 8, 7), 0, 0, 0, F(10 ** 20, 3)], N=10 ** 4,
         domain=(0, 1))
def test_on_curve_lattice_past_int64(f, N, domain):
    graph = graph_curve([f], domain=domain)
    coeffs = graph.coords[1].coeffs
    k_lo, k_hi = math.ceil(domain[0] * N), math.floor(domain[1] * N)
    assert tube._graph_numerators(graph.coords[1], N, k_lo, k_hi)[1].dtype == object
    assert sorted(count_on_curve_lattice(graph, N)) == \
        on_curve_by_fractions(coeffs, N, *domain)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(0, 6), N=st.integers(2, 1000), data=st.data())
def test_graph_numerators_do_not_wrap_at_the_int64_limit(d, N, data):
    # integer coefficients sized so that N·Σ|P_i|·N^d lands on either side
    # of 2⁶³: where int64 is chosen, no product or sum may wrap
    top = 2 ** 65 // N ** (d + 1)
    P = data.draw(st.lists(st.integers(-top, top), min_size=d + 1, max_size=d + 1))
    graph = graph_curve([P])
    modulus, values = tube._graph_numerators(graph.coords[1], N, 0, N)
    # f(k/N) = exact[k] / N^d
    exact = [sum(c * k ** i * N ** (d - i) for i, c in enumerate(P)) for k in range(N + 1)]
    assert [a * N ** d for a in values.tolist()] == [e * modulus for e in exact]
    assert sorted(p[0] for p in count_on_curve_lattice(graph, N)) == \
        [F(k, N) for k, e in enumerate(exact) if N * e % N ** d == 0]


def test_segment_distance_decision():
    seg = line_segment((0, 0), (1, 0))
    src = ExplicitSource(FiniteSet([(F(1, 2), F(1, 20)), (F(1, 2), F(1, 5))]))
    q = TubeQuery(seg, F(1, 10), src)
    for counter in (count_in_tube, brute_force_tube_oracle):
        res = counter(q)
        assert res.count == 1 and res.certified
        assert res.points == ((F(1, 2), F(1, 20)),)


def test_huge_delta_counts_everything():
    q = TubeQuery(parabola(), F(100), LatticeSource(4, ((0, 1), (0, 1))))
    assert count_in_tube(q).count == 25
    assert brute_force_tube_oracle(q).count == 25


def test_on_curve_points_always_inside():
    pb = parabola()
    for N in (4, 9, 16):
        on_curve = set(count_on_curve_lattice(pb, N))
        for d in (F(1, N * N), F(1, N ** 3)):
            res = count_in_tube(TubeQuery(pb, d, LatticeSource(N, ((0, 1), (0, 1)))))
            assert on_curve <= set(res.points)


def test_monotone_in_delta():
    pb = parabola()
    src = LatticeSource(16, ((0, 1), (0, 1)))
    counts = [count_in_tube(TubeQuery(pb, d, src)).count
              for d in (F(1, 512), F(1, 256), F(1, 64), F(1, 16), F(1, 4))]
    assert counts == sorted(counts)


def test_translation_equivariance():
    pb = parabola()
    shift = (F(3, 7), F(-2, 5))
    src_pts = FiniteSet([(F(i, 8), F(j, 8)) for i in range(9) for j in range(9)])
    q1 = TubeQuery(pb, F(1, 64), ExplicitSource(src_pts))
    q2 = TubeQuery(_translated(pb, shift), F(1, 64),
                   ExplicitSource(FiniteSet((x + shift[0], y + shift[1])
                                            for x, y in src_pts)))
    r1 = count_in_tube(q1)
    r2 = count_in_tube(q2)
    assert r1.count == r2.count
    moved = {tuple(F(a) + F(b) for a, b in zip(p, shift)) for p in r1.points}
    assert moved == set(r2.points)


def test_gap_source():
    gap = Gap((0, 0), [(F(1, 8), 0), (0, F(1, 8))], [9, 9])
    q = TubeQuery(parabola(), F(1, 64), GapSource(gap))
    r = count_in_tube(q)
    rb = brute_force_tube_oracle(q)
    assert r.count == rb.count and r.count > 0


def test_oracle_equivalence_small_grid():
    cubic = polynomial_curve([[0, 1], [0, 0, 0, 1]])
    for curve, box in ((parabola(), ((0, 1), (0, 1))),
                       (cubic, ((0, 1), (0, 1))),
                       (circle_arc(), ((-1, 1), (-1, 1)))):
        for N in (8, 16):
            for d in (1, 4):
                q = TubeQuery(curve, delta_from_rule(d, N, 2),
                              LatticeSource(N, box))
                r = count_in_tube(q)
                rb = brute_force_tube_oracle(q)
                assert r.certified and rb.certified
                assert r.count == rb.count
                assert set(r.points) == set(rb.points)


def test_big_segment_count_path():
    # at theorem-scale δ arcs would hit MAX_SEGMENTS; the column walk
    # examines none and visits about one candidate per column
    pb = parabola()
    N = 32
    q = TubeQuery(pb, delta_from_rule(1, N, 5), LatticeSource(N, ((0, 1), (0, 1))))
    r = count_in_tube(q)
    assert r.certified and r.arcs_examined == 0
    assert set(count_on_curve_lattice(pb, N)) == set(r.points)


def test_exact_boundary_lattice_points_are_certified():
    # points at distance exactly δ: floats cannot tell them from the
    # boundary, the column walk decides them exactly
    N = 8
    r = count_in_tube(TubeQuery(parabola(), F(1, N),
                                LatticeSource(N, ((0, 1), (-1, 1)))))
    assert (0, F(-1, N)) in r.points and r.certified
    r = count_in_tube(TubeQuery(circle_arc(), F(1, 2),
                                LatticeSource(10, ((-2, 2), (-2, 2)))))
    on_boundary = [p for p in r.points if p[0] ** 2 + p[1] ** 2 == F(9, 4)]
    assert (F(9, 10), F(12, 10)) in on_boundary and len(on_boundary) == 12
    assert r.certified and r.arcs_examined == 0


def test_partial_circle_arc_oracle_equivalence():
    quarter = circle_arc(0, F(1, 4))
    q = TubeQuery(quarter, delta_from_rule(1, 16, 2),
                  LatticeSource(16, ((0, 1), (0, 1))))
    r = count_in_tube(q)
    rb = brute_force_tube_oracle(q)
    assert r.certified and rb.certified
    assert r.count == rb.count and set(r.points) == set(rb.points)
    # (1, 0) and (0, 1) are the arc endpoints, on the lattice for every N
    assert (1, 0) in set(r.points) and (0, 1) in set(r.points)


def test_invalid_queries():
    # δ below the least float, or past the largest, has no float for the chords
    for delta in (0, F(-1, 4), F(1, 10 ** 400), F(10 ** 400)):
        with pytest.raises(InvalidQuery):
            TubeQuery(parabola(), delta, LatticeSource(4, ((0, 1), (0, 1))))
    # δ is exact: inf and nan are floats, never read as a width
    for delta in (math.inf, math.nan):
        with pytest.raises(InexactNumber):
            TubeQuery(parabola(), delta, LatticeSource(4, ((0, 1), (0, 1))))
    with pytest.raises(InvalidQuery):
        LatticeSource(0, ((0, 1), (0, 1)))
    with pytest.raises(InvalidQuery):
        LatticeSource(4, None)
    with pytest.raises(CapExceeded):
        brute_force_tube_oracle(TubeQuery(parabola(), F(1, 4),
                                          LatticeSource(10 ** 6, ((0, 1), (0, 1)))))
    with pytest.raises(InvalidQuery):
        count_in_tube(TubeQuery(parabola(), F(1, 4),
                                ExplicitSource(FiniteSet([(1, 2, 3)]))))


@pytest.mark.parametrize("N", [4.0, 2.5, F(4), "4", True])
def test_lattice_N_and_delta_rule_refuse_non_integers(N):
    # none of these may be truncated, or fail later inside the count
    with pytest.raises(InvalidQuery):
        LatticeSource(N, ((0, 1), (0, 1)))
    with pytest.raises(InvalidQuery):
        delta_from_rule(1, N, 2)
    with pytest.raises(InvalidQuery):
        delta_from_rule(1, 4, N)
    assert type(LatticeSource(np.int64(4), ((0, 1), (0, 1))).N) is int
    # nor is an exponent, a trial count, the bijection's N or an order m:
    # Monomial(1.5, 0) had degree 1.5, trials=2.5 ran 3 planes and reported
    # 2.5, and True ran as 1
    A = FiniteSet([(0, 0), (1, 2)])
    for refuse in (lambda: Monomial(N, 0), lambda: Monomial(0, N),
                   lambda: survey_intersections(parabola(), N, 0),
                   lambda: check_lattice_bijection(parabola(), make_Ms(2), N, ()),
                   lambda: m_fold_sumset(A, N), lambda: additive_energy(A, N),
                   lambda: representation_counts(A, N)):
        with pytest.raises(ValueError, match="must be an integer"):
            refuse()


@pytest.mark.parametrize("bad", [0.1, True])
@pytest.mark.parametrize("build", [
    lambda x: polynomial_curve([[0, 1], [0, x]]),
    lambda x: graph_curve([[0, 0, x]]),
    lambda x: LatticeSource(10, ((x, 1), (0, 1))),
    lambda x: LatticeSource(10, ((0, 1), (0, x))),
    lambda x: delta_from_rule(x, 4, 2),
    lambda x: ExperimentConfig(parabola(), (4, 9), delta_d=x, delta_power=2),
    lambda x: ExperimentConfig(parabola(), (4, 9), box=((0, 1), (x, 1))),
    lambda x: lipschitz_constant_squared(make_Ms(2), x),
    # a tuple used to skip the parse, and a lattice count on the curve died
    # with AttributeError
    lambda x: PolyCoord((x, 0, 1)),
    # a float δ used to be read at its binary value, and True as width 1
    lambda x: TubeQuery(parabola(), x, LatticeSource(4, ((0, 1), (0, 1)))),
], ids=["polynomial", "graph", "box-x", "box-y", "delta-d", "config-delta-d",
        "config-box", "lipschitz-R", "coord-tuple", "tube-delta"])
def test_exact_inputs_refuse_floats_and_bools(build, bad):
    # a float is never rounded to a rational: 0.1 as a box end used to start
    # the box at index 2 of (1/10)Z and drop x = 1/10
    with pytest.raises(InexactNumber):
        build(bad)
    assert LatticeSource(10, (("1/10", 1), (0, 1))).index_bounds()[0] == (1, 10)


def test_result_counts_match_points():
    q = TubeQuery(parabola(), F(1, 16), LatticeSource(4, ((0, 1), (0, 1))))
    r = count_in_tube(q)
    assert r.count == len(r.points)
    r2 = count_in_tube(q, keep_points=False)
    assert r2.points is None and r2.count == r.count


def test_lattice_work_follows_candidates_not_box_size():
    # 4097² ≈ 1.7·10⁷ lattice points, more than the enumeration cap, but
    # each capped segment box holds at most a few of them
    pb = parabola()
    N = 4096
    r = count_in_tube(TubeQuery(pb, F(1, N * N),
                                LatticeSource(N, ((0, 1), (0, 1)))))
    assert r.certified
    assert set(count_on_curve_lattice(pb, N)) <= set(r.points)


def test_candidate_cells_are_capped():
    # a partial arc takes arcs: at δ = 1 the quarter circle, of length π/2,
    # needs ⌈π/2⌉ = 2 segments, and each segment box covers the whole 65²
    # box: 8,450 (segment, cell) pairs, counted before any is expanded
    q = TubeQuery(circle_arc(0, F(1, 4)), 1, LatticeSource(64, ((0, 1), (0, 1))))
    cap = 2 * 65 * 65
    with pytest.raises(CapExceeded):
        count_in_tube(q, cap=cap - 1)
    r = count_in_tube(q, cap=cap)
    assert r.count == 65 * 65 and r.arcs_examined == 2


@pytest.mark.parametrize("curve", [parabola(), circle_arc()],
                         ids=["parabola", "circle"])
def test_walk_candidates_are_capped(curve):
    # δ = 1 puts every point of the 65² box in a column's candidate range;
    # each column's candidates count against the cap before any is decided
    q = TubeQuery(curve, 1, LatticeSource(64, ((0, 1), (0, 1))))
    with pytest.raises(CapExceeded):
        count_in_tube(q, cap=65 * 65 - 1)
    r = count_in_tube(q, cap=65 * 65)
    assert r.count == 65 * 65 and r.arcs_examined == 0
    # the columns count too: 10⁹ of them are refused before any is walked
    with pytest.raises(CapExceeded):
        count_in_tube(TubeQuery(curve, F(1, 10 ** 18),
                                LatticeSource(10 ** 9, ((0, 1), (0, 1)))))


def test_walk_candidate_total_past_int64_is_charged_exactly():
    # at δ = 2⁶⁰ the parabola's reach is 3·2⁶⁰, so each of the columns x = 0
    # and x = 1 holds 6·2⁶⁰ + 1 candidates: each count fits int64, and their
    # total 3·2⁶² + 2 does not, which an int64 sum would wrap to a negative
    total = 2 * (6 * 2 ** 60 + 1)
    q = TubeQuery(parabola(), 2 ** 60, LatticeSource(1, ((0, 1), (-2 ** 62, 2 ** 62))))
    with pytest.raises(CapExceeded, match=f"work {total} exceeds cap {total - 1}$"):
        count_in_tube(q, cap=total - 1)
    with pytest.raises(CapExceeded):
        count_in_tube(q)


def test_clustered_points_need_few_cells():
    # all 199 points share one column, 10⁻¹⁸ apart: cells of side δ would
    # give 10¹² segments, and each segment box spans many cells.  At most 64
    # segments per point, and cell ranges clipped to the occupied cells,
    # keep the work small.  Every point is just outside the tube, which only
    # the exact decision can tell.  A subprocess with a timeout turns a
    # return to unbounded work into a failure instead of a hang.
    code = """
from fractions import Fraction as F
from curvecount import TubeQuery, FiniteSet, count_in_tube, line_segment
d = F(1, 10 ** 12)
pts = [(F(1, 2), F(1, 2) + d * (1 + F(k, 10 ** 6))) for k in range(1, 200)]
r = count_in_tube(TubeQuery(line_segment((0, F(1, 2)), (1, F(1, 2))), d,
                            FiniteSet(pts)))
assert r.count == 0 and r.certified, r
"""
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr


def test_points_just_off_the_boundary_are_decided_exactly():
    # 199 points at distance δ(1 + k·10⁻⁶) from a segment of length 10⁻⁶,
    # all at its midpoint or spread along it, and 199 points on a ray of the
    # unit circle, or of the arc [1/7, 5/9], at radius 1 ∓ δ(1 + k·10⁻⁶)
    # (none in the tube) or 1 ± δ(1 − k·10⁻⁶) (all in it).  The float
    # distances differ from δ by less than their rounding; the counts were
    # 33, 33, 47 and 196 on the segment and the circle, and 19 (outside) and
    # 108 (inside), both certified, on the arc.
    d = F(1, 10 ** 12)
    ks = range(1, 200)
    seg = line_segment((0, F(1, 2)), (F(1, 10 ** 6), F(1, 2)))
    above = [F(1, 2) + d * (1 + F(k, 10 ** 6)) for k in ks]
    for xs in ([F(1, 2 * 10 ** 6)] * 199, [F(k, 200 * 10 ** 6) for k in ks]):
        r = count_in_tube(TubeQuery(seg, d, FiniteSet(zip(xs, above))))
        assert r.count == 0 and r.certified
    for curve, (x, y) in ((circle_arc(), (F(3, 5), F(4, 5))),
                          (circle_arc(F(1, 7), F(5, 9)), (F(-3, 5), F(4, 5)))):
        for side in (1, -1):
            for radii, expected in (([1 - side * d * (1 + F(k, 10 ** 6)) for k in ks], 0),
                                    ([1 + side * d * (1 - F(k, 10 ** 6)) for k in ks], 199)):
                pts = FiniteSet([(x * r, y * r) for r in radii])
                r = count_in_tube(TubeQuery(curve, d, pts))
                assert r.count == expected and r.certified
                assert r.arcs_examined > 0


def test_arc_ends_are_bracketed_not_rounded():
    # math.tan(π·x) is an ulp or so off tan πx.  A point radially at exactly
    # δ outside the circle point at s, halfway between the two, is at
    # distance δ from the arc when s lies on the arc's side of tan πx, and
    # farther otherwise: floats alone cannot tell which.
    d = F(1, 10 ** 9)
    expected = []
    for k in range(1, 24):
        with mpmath.workprec(200):
            exact = mpmath.tan(mpmath.pi * k / 49)
            s = (F(math.tan(math.pi * (k / 49))) + F(int(exact * 2 ** 100), 2 ** 100)) / 2
            on_arc = mpmath.mpf(s.numerator) / s.denominator >= exact
        p = tuple((1 + d) * c for c in _circle_point(s))
        r = count_in_tube(TubeQuery(circle_arc(F(k, 49), F(1, 2)), d,
                                    FiniteSet([p])))
        assert r.certified and r.count == on_arc
        expected.append(on_arc)
    # the floats fall on either side
    assert not all(expected) and any(expected)


def test_an_end_that_cannot_be_bracketed_is_not_certified():
    # the point δ outside the circle at s₀ = fl(tan π/67), within an ulp of
    # the arc's end 1/67, whose tan has no polynomial of degree ≤ 64 to
    # narrow on: whether it is in the tube is left in doubt
    d = F(1, 10 ** 9)
    p = tuple((1 + d) * c for c in _circle_point(F(math.tan(math.pi / 67))))
    r = count_in_tube(TubeQuery(circle_arc(0, F(1, 67)), d, FiniteSet([p])))
    assert not r.certified


def test_pad_covers_the_rounding_of_large_coordinates():
    # floats near 10⁶ are an ulp = 2⁻³³ apart.  A segment at height y0,
    # 0.3 ulp above a float, and δ = 8.45 ulps: the point y0 + δ rounds up
    # to 9 ulps above float(y0), while float(y0) + δ rounds to 8 ulps above
    # it.  Only the pad's float error term keeps these hits in their boxes.
    ulp = F(1, 2 ** 33)
    d = F(845, 100) * ulp
    for y0 in (10 ** 6 + F(3, 10) * ulp, 10 ** 6 + F(1, 3) + F(1, 10 ** 15)):
        seg = line_segment((10 ** 6, y0), (10 ** 6 + 1, y0))
        pts = FiniteSet([(10 ** 6 + F(k, 7), y0 + s * d * (1 + e))
                         for k in range(1, 7) for s in (-1, 1)
                         for e in (0, F(-1, 10 ** 4), F(1, 10 ** 4), F(-1, 2))])
        r = count_in_tube(TubeQuery(seg, d, pts))
        expected = tuple(p for p in pts if _in_tube_by_fractions(seg, d, p))
        assert len(expected) == 36
        assert r.points == expected and r.certified


def _run_python(code: str):
    """Run code in a fresh interpreter on this checkout's sources, with a
    timeout that turns unbounded work into a failure instead of a hang."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", code], timeout=60,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)


def test_cli_imports_without_scipy():
    # the package depends on numpy alone; a None entry in sys.modules makes
    # every import of scipy fail
    proc = _run_python('import sys\nsys.modules["scipy"] = None\n'
                       'import curvecount.cli')
    assert proc.returncode == 0, proc.stderr


def test_tube_counts_leave_numpy_ma_unimported():
    # numpy's plain np.unique (and np.union1d) imports numpy.ma on its first
    # call, about 12 ms; a walked and an arc-route lattice count, an
    # explicit-set count and an oracle call must not pay for it
    proc = _run_python(
        "import sys\n"
        "from fractions import Fraction as F\n"
        "from curvecount import *\n"
        "box = LatticeSource(8, ((0, 1), (0, 1)))\n"
        "for curve in (parabola(), circle_arc(0, F(1, 4))):\n"
        "    count_in_tube(TubeQuery(curve, F(4, 64), box))\n"
        "pts = FiniteSet([(F(k, 7), F(k * k, 49) + F(1, 90)) for k in range(8)])\n"
        "count_in_tube(TubeQuery(parabola(), F(1, 64), ExplicitSource(pts)))\n"
        "brute_force_tube_oracle(TubeQuery(parabola(), F(1, 64), box))\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    assert proc.returncode == 0, proc.stderr


def test_oracle_sorts_on_the_widest_axes(monkeypatch):
    # a segment along the third axis, with the points in 7 columns of the
    # first axis: each of the 10⁴ first samples has 6 columns within reach,
    # and as the keys sort each column on the third axis, those runs hold
    # 10 715 candidate points in all.  Sorted on the first two axes, a run
    # would hold most of its column's points, 2.6·10⁷ candidates in all.  No
    # point is at distance δ, so both routes are certified.
    listed = []
    chunks = tube._chunks

    def counting(counts):
        # _reach_pairs lists the (center, column) runs, then their points
        listed.append(int(counts.sum()))
        assert sum(listed) <= 2 * 10 ** 5, "the oracle lists too many candidates"
        return chunks(counts)
    monkeypatch.setattr(tube, "_chunks", counting)
    pts = [(F(k % 7, 25000), F(k % 5, 25000), F(k, 3000)) for k in range(3000)]
    q = TubeQuery(line_segment((0, 0, 0), (0, 0, 1)), F(1, 10 ** 4), FiniteSet(pts))
    r, rb = count_in_tube(q), brute_force_tube_oracle(q)
    assert r.certified and rb.certified and r.points == rb.points
    assert len(listed) == 2 and listed[0] == 6 * 10001


_XY = MonomialSet([(1, 0), (0, 1), (1, 1)])
_LIFTS = {"parabola": lift_curve(parabola(), _XY),
          "circle": lift_curve(circle_arc(), _XY)}


@st.composite
def near_curve_queries(draw):
    """Rational points within a few δ of a random planar polynomial graph,
    of the parabola or circle lifted by {x, y, xy} into 3-D, or of a circle
    arc with random rational ends (most with an irrational tan πt, some
    around ½) or its lift; some at the domain's ends, and half of them on a
    normal at distance δ(1 ± 10⁻⁶) or δ(1 ± 2·10⁻⁹), closer to the boundary
    than the oracle's samples resolve without its zoom."""
    kind = draw(st.sampled_from(["graph", "lift", "arc"]))
    if kind == "graph":
        curve = graph_curve([draw(st.lists(st.fractions(-2, 2, max_denominator=6),
                                           min_size=1, max_size=5))])
    elif kind == "lift":
        curve = _LIFTS[draw(st.sampled_from(sorted(_LIFTS)))]
    else:
        ends = st.lists(st.fractions(0, 1, max_denominator=12), min_size=2,
                        max_size=2, unique=True).map(sorted)
        curve = circle_arc(*draw(ends))
        if draw(st.booleans()):
            curve = lift_curve(curve, _XY)
    delta = F(1, draw(st.integers(8, 200)))
    offsets = st.lists(st.fractions(-2, 2, max_denominator=50),
                       min_size=curve.dimension, max_size=curve.dimension)
    radii = st.sampled_from([1 - 1e-6, 1 + 1e-6, 1 - 2e-9, 1 + 2e-9])
    lo, hi = curve.domain
    params = st.sampled_from([lo, hi]) | st.fractions(lo, hi, max_denominator=64)
    pts = set()
    for t in draw(st.lists(params, min_size=1, max_size=12)):
        t = np.array([float(t)])
        v = np.array([float(o) for o in draw(offsets)])
        if draw(st.booleans()):
            w = eval_array(curve, t, 1)[0]
            v -= (v @ w) / (w @ w) * w
            v *= draw(radii) / max(np.linalg.norm(v), 1e-300)
        p = eval_array(curve, t)[0] + v * float(delta)
        pts.add(tuple(F(float(c)) for c in p))
    return TubeQuery(curve, delta, ExplicitSource(FiniteSet(pts)))


@settings(max_examples=90, deadline=None)
@given(near_curve_queries())
def test_oracle_matches_counter_near_curves(q):
    # explicit sources and, in 3-D, the oracle's sort on two of three axes;
    # where both are certified
    r = count_in_tube(q)
    rb = brute_force_tube_oracle(q)
    if r.certified and rb.certified:
        assert r.count == rb.count and set(r.points) == set(rb.points)


_PRUNING_CURVES = {
    "circle": circle_arc(),
    "arc": circle_arc(F(1, 7), F(5, 9)),
    "circle^M2": lift_curve(circle_arc(), make_Ms(2)),
    "cubic": polynomial_curve([[0, 1], [0, 0, 0, 1]]),
}


def _graph_or_named_curve(draw, planar=False):
    if draw(st.booleans()):
        return graph_curve([draw(st.lists(st.fractions(-2, 2, max_denominator=6),
                                          min_size=1, max_size=5))])
    names = sorted(k for k, c in _PRUNING_CURVES.items()
                   if c.dimension == 2 or not planar)
    return _PRUNING_CURVES[draw(st.sampled_from(names))]


def _grid(curve, steps):
    return tube._SampleGrid(float(curve.domain[0]), float(curve.domain[1]), steps)


@st.composite
def pruning_cases(draw):
    """A curve, a grid of 9 to 4001 samples, a radius `upper`, and lattice
    points or explicit points near the curve, about half of them at
    upper·(1 ± 10⁻⁹) or upper·(1 ± 10⁻¹²) from a sample."""
    curve = _graph_or_named_curve(draw)
    grid = _grid(curve, draw(st.integers(8, 4000)))
    upper = 1 / draw(st.integers(4, 400))
    if curve.dimension == 2 and draw(st.booleans()):
        N = draw(st.integers(2, 32))
        return curve, grid, tube.materialize_source(LatticeSource(N, ((-2, 2), (-2, 2))),
                                                    None)[1], upper
    radii = st.sampled_from([1 - 1e-9, 1 + 1e-9, 1 - 1e-12, 1 + 1e-12])
    pts = []
    for i in draw(st.lists(st.integers(0, grid.n), min_size=1, max_size=30)):
        v = np.array(draw(st.lists(st.floats(-1, 1), min_size=curve.dimension,
                                   max_size=curve.dimension)))
        if draw(st.booleans()) and np.linalg.norm(v) > 0:
            v *= draw(radii) / np.linalg.norm(v)
        pts.append(eval_array(curve, grid[[i]])[0] + upper * v)
    return curve, grid, np.array(pts), upper


def _past_the_end(curve, steps, upper):
    """A point just within `upper` of the grid's last sample, ahead of it
    along the tangent, on a grid whose last block is full: its nearest
    sample is as far from its block's first one as any point's can be."""
    grid = _grid(curve, steps)
    tangent = eval_array(curve, grid[[-1]], 1)[0]
    p = eval_array(curve, grid[[-1]])[0] + upper * (1 - 1e-12) * tangent / np.linalg.norm(tangent)
    return curve, grid, p[None, :], upper


def _all_pairs_nearest(curve, grid, pts, upper):
    """Each point's least squared distance to a sample γ(t) of
    np.linspace(lo, hi, n + 1), and the lowest index at which it is taken,
    from every (point, sample) pair, 256 points at a time; inf and -1 for a
    point more than 2·upper outside the samples' bounding box on some axis,
    which no sample is within upper of."""
    samples = eval_array(curve, np.linspace(grid.lo, grid.hi, grid.n + 1))
    d2, nearest = np.full(len(pts), np.inf), np.full(len(pts), -1)
    box = ((pts >= samples.min(axis=0) - 2 * upper)
           & (pts <= samples.max(axis=0) + 2 * upper)).all(axis=1)
    for s in np.array_split(np.flatnonzero(box), len(box) // 256 + 1):
        d = tube._sum_sq(samples[None, :, :] - pts[s, None, :])
        nearest[s] = d.argmin(axis=1)   # the first of equal minima
        d2[s] = d.min(axis=1)
    return d2, nearest


@settings(max_examples=80, deadline=None)
@given(pruning_cases())
@example(_past_the_end(_PRUNING_CURVES["arc"], 599, 1 / 400))
@example(_past_the_end(_PRUNING_CURVES["arc"], 3999, 1 / 4))
def test_pruned_samples_match_dense_samples(case):
    # the oracle measures each point against only the blocks of samples that
    # can be within `upper` of it; below `upper` it must see what every
    # sample shows
    curve, grid, pts, upper = case
    d2, nearest = _all_pairs_nearest(curve, grid, pts, upper)
    p2, pnearest = tube._grid_nearest(curve, grid, pts, upper,
                                      derivative_sup_bound(curve, 1))
    near = d2 < upper * upper
    assert np.array_equal(p2 < upper * upper, near)
    assert d2[near].tobytes() == p2[near].tobytes()
    assert np.array_equal(nearest[near], pnearest[near])


@st.composite
def reach_cases(draw):
    """Explicit points in 1 to 4 dimensions, as ``materialize_source`` gives
    their floats, centers, a reach and a block size for ``_PAIR_BLOCK``.
    Axes have unequal widths, so the widest two are often not 0 and 1.  The
    points hold a column of many points that share every coordinate but one,
    distinct exact x values that round to one float with y descending (so
    their exact order is not the floats'), and points at reach·(1 ± 10⁻¹²)
    and reach·(1 − 2⁻⁵²) from a center, some along an axis."""
    n = draw(st.integers(1, 4))
    scale = np.array(draw(st.lists(st.sampled_from([1e-3, 1.0, 1e3]),
                                   min_size=n, max_size=n)))
    reach = draw(st.sampled_from([1e-3, 0.1, 1.0, 30.0]))
    vectors = st.lists(st.floats(-1, 1), min_size=n, max_size=n).map(np.array)
    centers = np.array(draw(st.lists(vectors, min_size=1, max_size=20))) * scale
    pts = [v * scale for v in draw(st.lists(vectors, max_size=30))]
    base, axis = draw(vectors) * scale, draw(st.integers(0, n - 1))
    for j in range(draw(st.integers(0, 60))):
        p = base.copy()
        p[axis] += j * reach / 7
        pts.append(p)
    radii = st.sampled_from([1 - 1e-12, 1 + 1e-12, 1 - 2 ** -52])
    for c in draw(st.lists(st.sampled_from(list(centers)), max_size=10)):
        v = draw(vectors | st.integers(0, n - 1).map(lambda k: np.eye(n)[k]))
        if np.linalg.norm(v) > 0:
            pts.append(c + reach * draw(radii) * v / np.linalg.norm(v))
    exact = {tuple(F(x) for x in p) for p in pts}
    x0 = F(draw(st.floats(0.25, 1)) * scale[0])
    exact |= {(x0 + k * F(1, 10 ** 30),) + tuple(F(-k) for _ in range(n - 1))
              for k in range(draw(st.integers(1, 12)))}
    _, floats = tube.materialize_source(ExplicitSource(FiniteSet(exact)))
    return floats, centers, reach, draw(st.sampled_from([1, 5, 1 << 22]))


@settings(max_examples=150, deadline=None)
@given(reach_cases())
def test_reach_pairs_match_all_pairs(case):
    # bisection lists exactly the (point, center) pairs that pass the float
    # test, in center order, however the (center, column) runs are chunked
    pts, centers, reach, block = case
    passing = tube._sum_sq(pts[:, None, :] - centers[None, :, :]) < reach * reach
    with mock.patch.object(tube, "_PAIR_BLOCK", block):
        pid, cid = tube._reach_pairs(pts, centers, reach)
    assert (np.diff(cid) >= 0).all()
    assert sorted(zip(pid.tolist(), cid.tolist())) == list(zip(*np.nonzero(passing)))


@settings(max_examples=100, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3), st.integers(8, 10 ** 5),
       st.data())
def test_sample_grid_is_linspace_by_index(lo, width, steps, data):
    hi = lo + width
    grid, ts = tube._SampleGrid(lo, hi, steps), np.linspace(lo, hi, steps + 1)
    drawn = data.draw(st.lists(st.integers(-steps - 1, steps), max_size=20))
    idx = np.array(drawn + [0, steps, -1, -steps - 1], dtype=np.int64)
    assert len(grid) == len(ts)
    assert grid[idx].tobytes() == ts[idx].tobytes()


@st.composite
def lattice_queries(draw):
    """A planar curve, δ, and a lattice box of at most 33 × 33 points."""
    curve = _graph_or_named_curve(draw, planar=True)
    N = draw(st.integers(1, 16))
    ends = st.lists(st.fractions(-1, 1, max_denominator=7), min_size=2,
                    max_size=2).map(sorted)
    delta = F(draw(st.integers(1, 8)), draw(st.integers(2, 60)))
    return curve, delta, LatticeSource(N, (draw(ends), draw(ends)))


@settings(max_examples=40, deadline=None)
@given(lattice_queries())
def test_oracle_lattice_and_point_set_agree(case):
    # a lattice's floats come from int division, a point set's from
    # materialize_source, and both are paired with blocks by the same
    # bisection; both must give the oracle the same answer, certificate and
    # grid
    curve, delta, source = case
    (ilo, ihi), (jlo, jhi) = source.index_bounds()
    fs = FiniteSet([(F(i, source.N), F(j, source.N)) for i in range(ilo, ihi + 1)
                    for j in range(jlo, jhi + 1)], dimension=2)
    assert (brute_force_tube_oracle(TubeQuery(curve, delta, source))
            == brute_force_tube_oracle(TubeQuery(curve, delta, fs)))


def test_oracle_with_no_point_within_reach(monkeypatch):
    # every point is far from the circle: no point is paired with a block,
    # and the coarse step's first samples are all that is evaluated
    evaluated = []

    def counted(curve, ts, order=0):
        evaluated.append(np.size(ts))
        return eval_array(curve, ts, order)
    monkeypatch.setattr(tube, "eval_array", counted)
    delta = F(1, 100)
    steps = brute_force_tube_oracle(TubeQuery(circle_arc(), delta,
                                              FiniteSet([(1, 0)]))).arcs_examined
    blocks = steps // tube._SAMPLE_BLOCK + 1
    for source in (FiniteSet([(5, 5)]), LatticeSource(8, ((3, 4), (-1, 1)))):
        evaluated.clear()
        rb = brute_force_tube_oracle(TubeQuery(circle_arc(), delta, source))
        assert (rb.count, rb.points, rb.certified) == (0, (), True)
        assert rb.arcs_examined == steps and evaluated == [blocks]


def test_oracle_limits():
    # the box's size is held to cap before any row is built, as a GAP's is;
    # the grid to MAX_ORACLE_SAMPLES
    box = ((0, 1), (0, 1))
    with pytest.raises(CapExceeded, match="lattice box holds 121 points, cap 100"):
        brute_force_tube_oracle(TubeQuery(parabola(), F(1, 4), LatticeSource(10, box)),
                                cap=100)
    with pytest.raises(CapExceeded, match="lattice box holds 1002001 points, cap 1000000"):
        brute_force_tube_oracle(TubeQuery(parabola(), F(1, 4), LatticeSource(1000, box)),
                                cap=10 ** 6)
    with pytest.raises(InvalidQuery, match="oracle sampling budget exceeded"):
        brute_force_tube_oracle(TubeQuery(parabola(), F(1, 10 ** 6),
                                          LatticeSource(4, box)))
    # an empty box builds neither axis, however long the other one is
    empty = LatticeSource(10 ** 9, ((0, 1), (F(1, 3), F(1, 3))))
    assert brute_force_tube_oracle(TubeQuery(parabola(), F(1, 4), empty)).count == 0


def test_oracle_on_its_smallest_grid():
    # a segment of length 1/100 at δ ≥ 9/10 gets the smallest grid, 8 steps:
    # its 9 samples are one block
    seg = line_segment((0, 0), (F(1, 100), 0))
    pts = [(F(1, 200), F(1, 2)), (F(1, 200), F(-99, 100)), (F(1, 200), F(101, 100)),
           (F(-98, 100), 0), (F(-102, 100), 0), (F(2), F(2))]
    for delta, source in ((F(1), FiniteSet(pts)),
                          (F(9, 10), LatticeSource(4, ((-2, 2), (-2, 2))))):
        q = TubeQuery(seg, delta, source)
        r, rb = count_in_tube(q), brute_force_tube_oracle(q)
        assert rb.arcs_examined == 8 and r.certified and rb.certified
        assert rb.count > 0 and set(rb.points) == set(r.points)


def test_many_coordinates(monkeypatch):
    # 8 coordinates with ~10³ occupied cells each: a grid over all of them
    # would enumerate ~3⁸ cells per segment box, past the enumeration cap.
    # Every point is a clear hit in floats: none needs an exact decision.
    n = 1000
    on_curve = [tuple(F(k, n - 1) ** e for e in range(1, 9)) for k in range(n)]
    near = tuple(F(1, 3) ** e + (F(1, 10 ** 20) if e == 1 else 0)
                 for e in range(1, 9))
    decided = _count_exact_decisions(monkeypatch)
    r = count_in_tube(TubeQuery(moment_curve(8), F(1, 1000),
                                ExplicitSource(FiniteSet(on_curve + [near]))))
    assert r.certified and r.count == n + 1
    # the seam saw the count's one exact pass, and it had nothing to decide
    assert decided == [0]


_TUBE_CURVES = {
    "parabola": parabola(),
    "cubic": polynomial_curve([[0, 1], [0, 0, 0, 1]]),
    "circle": circle_arc(),
    "arc": circle_arc(F(1, 8), F(5, 8)),
    "shifted": _translated(parabola(), (F(-1, 3), F(2, 5))),
}


@st.composite
def lattice_queries(draw):
    N = draw(st.integers(1, 12))
    box = []
    for _ in range(2):
        lo = F(draw(st.integers(-6, 3)), draw(st.integers(2, 6)))
        box.append((lo, lo + F(draw(st.integers(0, 8)), draw(st.integers(1, 4)))))
    delta = F(draw(st.integers(1, 8)), N ** draw(st.integers(1, 3)))
    return draw(st.sampled_from(sorted(_TUBE_CURVES))), delta, N, tuple(box)


@settings(max_examples=60, deadline=None)
@given(lattice_queries())
def test_lattice_and_explicit_routes_agree(query):
    name, delta, N, box = query
    curve = _TUBE_CURVES[name]
    lattice = LatticeSource(N, box)
    (ilo, ihi), (jlo, jhi) = ((math.ceil(lo * N), math.floor(hi * N))
                              for lo, hi in box)
    pts = [(F(i, N), F(j, N))
           for i in range(ilo, ihi + 1) for j in range(jlo, jhi + 1)]
    r_lat = count_in_tube(TubeQuery(curve, delta, lattice))
    r_exp = count_in_tube(TubeQuery(curve, delta,
                                    ExplicitSource(FiniteSet(pts, dimension=2))))
    # both routes decide every point soundly, the partial arc's included
    assert r_exp.certified
    assert r_lat.count == r_exp.count and r_lat.points == r_exp.points


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 9), st.integers(-10 ** 12, 10 ** 12),
       st.integers(-3, 3), st.integers(-20, 20), st.integers(0, 40))
def test_lattice_index_bound_matches_float_test(N, i, ulps, lo_off, width):
    # boxes bound at the float of a lattice point, or a few ulps off it: the
    # least index must agree with the float test float(i/N) >= b exactly
    b = float(F(i, N))
    for _ in range(abs(ulps)):
        b = float(np.nextafter(b, np.inf if ulps > 0 else -np.inf))
    lo = i + lo_off
    hi = lo + width
    expected = next((k for k in range(lo, hi + 1) if k / N >= b), hi + 1)
    got = _least_index(np.array([b]), N, np.array([float(lo)]),
                       np.array([float(hi)]))
    assert int(got[0]) == expected


# the closed quadrants, by the signs of their points' coordinates, and the
# circle points at t = 0, ¼, ½, ¾ and 1
_QUADRANTS = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
_QUARTER_POINTS = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]


def _circle_point(s):
    """The point of the unit circle at s = tan πt."""
    return (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)


def _in_tube_by_fractions(curve, delta, p) -> bool:
    """dist(p, Γ) ≤ δ over the whole domain in exact arithmetic.  On a
    circle arc whose ends are multiples of ¼: | |p| − 1 | ≤ δ inside its
    closed sector (a union of closed quadrants), and the distance to the
    nearer end outside it.  On a polynomial curve: whether
    Σ (γᵢ(t) − pᵢ)² − δ² is ≤ 0 at lo or has a root in [lo, hi]."""
    lo, hi = curve.domain
    if not curve.is_exact:
        (x, y), quarters = p, range(int(4 * lo), int(4 * hi))
        if any(x * a >= 0 and y * b >= 0 for a, b in (_QUADRANTS[q] for q in quarters)):
            r2 = x * x + y * y
            return r2 <= (1 + delta) ** 2 and (delta >= 1 or r2 >= (1 - delta) ** 2)
        return any((x - ex) ** 2 + (y - ey) ** 2 <= delta ** 2
                   for ex, ey in (_QUARTER_POINTS[int(4 * e)] for e in (lo, hi)))
    D = (-delta * delta,)
    for fn, x in zip(curve.coords, p):
        g = polys.add(fn.coeffs, (-x,))
        D = polys.add(D, polys.mul(g, g))
    return polys.eval_exact(D, lo) <= 0 or polys.Roots(D).closed(lo, hi) > 0


@st.composite
def walked_queries(draw):
    """Random rational graphs of degree ≤ 4 on random subdomains, or the
    full circle, with δ from 1/N² up to 2 on small lattice boxes."""
    if draw(st.booleans()):
        lo = draw(st.fractions(0, F(3, 4), max_denominator=8))
        hi = draw(st.fractions(lo, 1, max_denominator=8).filter(lambda h: h > lo))
        f = draw(st.lists(st.fractions(-2, 2, max_denominator=6), max_size=5))
        curve = graph_curve([f], domain=(lo, hi))
        # boxes reach past the domain's ends, around the graph's height
        centre = (0, math.floor(polys.eval_exact(curve.coords[1].coeffs, lo)))
    else:
        curve = circle_arc()
        centre = (0, 0)
    N = draw(st.integers(1, 8))
    box = []
    for c in centre:
        lo = c + F(draw(st.integers(-10, 6)), 4)
        box.append((lo, lo + F(draw(st.integers(0, 10)), 4)))
    delta = draw(st.sampled_from([F(1, N * N), F(1, N), F(1, 2), F(1), F(2)])
                 | st.fractions(F(1, 50), 2, max_denominator=50))
    return curve, delta, LatticeSource(N, tuple(box))


@settings(max_examples=100, deadline=None)
@given(walked_queries())
# a steep graph: (3/8, 1) is a hit only through the domain's left end
@example((graph_curve([[0, 0, 4]], domain=(F(1, 2), 1)), F(1, 8),
          LatticeSource(8, ((0, 1), (0, 2)))))
# δ > 1: the whole disk is in the tube, the centre included
@example((circle_arc(), F(2), LatticeSource(2, ((-1, 1), (-1, 1)))))
def test_column_walk_matches_exact_brute_force(query):
    curve, delta, source = query
    expected = _lattice_hits_by_fractions(curve, delta, source)
    r = count_in_tube(TubeQuery(curve, delta, source))
    assert r.points == expected and r.count == len(expected)
    assert r.certified and r.arcs_examined == 0


def _lattice_hits_by_fractions(curve, delta, source) -> tuple:
    (ilo, ihi), (jlo, jhi) = source.index_bounds()
    N = source.N
    return tuple((F(i, N), F(j, N))
                 for i in range(ilo, ihi + 1) for j in range(jlo, jhi + 1)
                 if _in_tube_by_fractions(curve, delta, (F(i, N), F(j, N))))


def _segment_query(N):
    """δ = 1/N beside a line segment, which takes arcs, on an 11 × 21 box
    with corner (⌊N/3⌋, 2⌊N/3⌋)/N."""
    k = N // 3
    box = ((F(k, N), F(k + 10, N)), (F(2 * k, N), F(2 * k + 20, N)))
    return TubeQuery(line_segment((0, 0), (F(1, 2), 1)), F(1, N),
                     LatticeSource(N, box))


def test_arc_route_lattice_just_below_2_53_matches_exact_brute_force():
    q = _segment_query(3 ** 33)
    expected = _lattice_hits_by_fractions(q.curve, q.delta, q.source)
    r = count_in_tube(q)
    assert len(expected) == 51
    assert r.points == expected and r.count == 51 and r.certified


def test_arc_route_lattice_past_2_53_is_refused_at_once():
    # its float indices used to stop moving by ±1, and the count never returned
    start = time.perf_counter()
    with pytest.raises(InvalidQuery, match="below 2"):
        count_in_tube(_segment_query(3 ** 35))
    assert time.perf_counter() - start < 1.0


@st.composite
def wide_walked_queries(draw):
    """Degree-6 graphs with denominators up to 10⁶ at N from 3000 up, on a
    box of a few columns right of x ≥ ¼ around the graph: the column
    numerators leave int64."""
    f = draw(st.lists(_wide, min_size=7, max_size=7).filter(lambda c: c[-1]))
    curve = graph_curve([f])
    N = draw(st.integers(3000, 12000))
    x = draw(st.fractions(F(1, 4), F(3, 4), max_denominator=64))
    y = math.floor(polys.eval_exact(curve.coords[1].coeffs, x) * N)
    i, j = math.floor(x * N), y + draw(st.integers(-4, 4))
    box = ((F(i, N), F(i + draw(st.integers(0, 4)), N)),
           (F(j - 3, N), F(j + draw(st.integers(0, 6)), N)))
    delta = draw(st.sampled_from([F(1, N * N), F(1, N), F(4, N)])
                 | st.fractions(F(1, N * N), F(8, N), max_denominator=N * N))
    return curve, delta, LatticeSource(N, box)


@settings(max_examples=15, deadline=None)
@given(wide_walked_queries())
def test_column_walk_past_int64_matches_exact_brute_force(query):
    curve, delta, source = query
    (ilo, ihi), (jlo, jhi) = source.index_bounds()
    N = source.N
    assert tube._graph_numerators(curve.coords[1], N, ilo, ihi)[1].dtype == object
    expected = tuple((F(i, N), F(j, N))
                     for i in range(ilo, ihi + 1) for j in range(jlo, jhi + 1)
                     if _in_tube_by_fractions(curve, delta, (F(i, N), F(j, N))))
    r = count_in_tube(TubeQuery(curve, delta, source))
    assert r.points == expected and r.count == len(expected)
    assert r.certified and r.arcs_examined == 0


@st.composite
def raised_walk_queries(draw):
    """Graphs raised by up to ±40 on short domains, which may hold no column
    x = i/N, with boxes around the graph's height: the columns beside the
    domain take j ranges far from 0, at the ends of f."""
    N = draw(st.integers(1, 8))
    lo = draw(st.fractions(0, F(7, 8), max_denominator=24))
    hi = min(1, lo + draw(st.fractions(F(1, 9 * N), F(2, N), max_denominator=9 * N)))
    f = [draw(st.integers(-40, 40)), *draw(st.lists(_coeffs, max_size=4))]
    curve = graph_curve([f], domain=(lo, hi))
    y = math.floor(polys.eval_exact(curve.coords[1].coeffs, lo) * 4) + draw(st.integers(-8, 4))
    box = ((math.floor(lo * 4 - 4) / F(4), math.ceil(hi * 4 + 4) / F(4)),
           (y / F(4), (y + draw(st.integers(0, 12))) / F(4)))
    delta = draw(st.sampled_from([F(1, N * N), F(1, N), F(1, 4), F(1, 2), F(1)]))
    return curve, delta, LatticeSource(N, box)


@settings(max_examples=60, deadline=None)
@given(raised_walk_queries())
# no column in the domain [1/3, 2/5]: the hit (1/2, 10) sits beside it
@example((graph_curve([[10, 0, 1]], domain=(F(1, 3), F(2, 5))), F(1, 4),
          LatticeSource(2, ((0, 1), (10, 11)))))
def test_walk_beside_the_domain_matches_exact_brute_force(query):
    curve, delta, source = query
    expected = _lattice_hits_by_fractions(curve, delta, source)
    r = count_in_tube(TubeQuery(curve, delta, source))
    assert r.points == expected and r.count == len(expected) and r.certified


@st.composite
def window_cases(draw):
    """A graph of degree ≤ 4 on a random subdomain, δ from 1/N² up to 2, and
    walk candidates for its window chords: each a point of the graph, at a
    random parameter or an end of the domain (where its window is clipped),
    moved by δ(1 ± 10⁻ᵏ) along a rational unit vector."""
    lo = draw(st.fractions(0, F(3, 4), max_denominator=8))
    hi = draw(st.fractions(lo, 1, max_denominator=8).filter(lambda h: h > lo))
    curve = graph_curve([draw(st.lists(st.fractions(-2, 2, max_denominator=6),
                                       max_size=5))], domain=(lo, hi))
    N = draw(st.integers(1, 64))
    delta = draw(st.sampled_from([F(1, N * N), F(1, N), F(1, 2), F(1), F(2)])
                 | st.fractions(F(1, N * N), 2, max_denominator=N * N))
    pts = []
    for _ in range(draw(st.integers(1, 8))):
        t = draw(st.sampled_from([lo, hi]) | st.fractions(lo, hi, max_denominator=64))
        w = draw(st.sampled_from(_UNIT_2D))
        k = draw(st.integers(1, 15))
        s = draw(st.sampled_from([1, -1])) * (1 + draw(st.sampled_from([-1, 0, 1])) * F(1, 10 ** k))
        y = polys.eval_exact(curve.coords[1].coeffs, t)
        p = (t + delta * s * w[0], y + delta * s * w[1])
        # walk candidates lie in the columns of [lo − δ, hi + δ]
        if lo - delta <= p[0] <= hi + delta:
            pts.append(p)
    return curve, delta, pts


@settings(max_examples=150, deadline=None)
@given(window_cases())
# x = lo − δ: the window is the domain's end alone
@example((graph_curve([[0, 0, 1]], (F(1, 2), 1)), F(1, 100),
          [(F(1, 2) - F(1, 100), F(1, 4)), (F(1, 2) - F(1, 100), F(1, 4) + F(1, 10 ** 9))]))
# y = 2⁴⁰·t and δ = 2⁴⁰: the curve points within δ of p have t within 2⁻³⁹
# of x − δ = 2/3, and x = 2⁴⁰ + 2/3 rounds up by about 2⁻¹³·⁶, past them;
# only the window's outward widening for that rounding keeps them in it
@example((graph_curve([[0, 2 ** 40]]), F(2 ** 40),
          [(2 ** 40 + F(2, 3), 2 ** 40 * F(2, 3))]))
def test_window_chords_agree_with_the_exact_distance(case):
    # every float verdict the decision stage gives a walk candidate, hit or
    # miss, is the exact one
    curve, delta, pts = case
    assume(pts)
    floats = np.array([[float(x), float(y)] for x, y in pts])
    hit, miss = tube._GraphWindows(curve, delta).verdicts(floats)
    assert not (hit & miss).any()
    for p, h, m in zip(pts, hit, miss):
        if h or m:
            assert h == _in_tube_by_fractions(curve, delta, p)


def test_window_chords_give_verdicts_both_ways():
    # the stage gives verdicts, both ways: on the cubic at δ = 4/N², N = 256,
    # the 34 candidates the witness leaves all get one
    curve, N = polynomial_curve([[0, 1], [0, 0, 0, 1]]), 256
    delta = F(4, N * N)
    pts = [(F(i, N), F(j, N)) for i in range(N + 1) for j in range(N + 1)
           if abs(F(i, N) ** 3 - F(j, N)) <= 5 * delta
           and abs(F(i, N) ** 3 - F(j, N)) > delta]
    hit, miss = tube._GraphWindows(curve, delta).verdicts(
        np.array([[float(x), float(y)] for x, y in pts]))
    assert len(pts) == 34 and hit.any() and miss.any() and (hit | miss).all()


def test_walk_builds_fractions_only_for_what_it_reads(monkeypatch):
    # keep_points=False gives the count alone: the walk builds a Fraction
    # only for a point of its exact pass, and for each hit that is read
    built, decided = [], _count_exact_decisions(monkeypatch)
    monkeypatch.setattr(tube, "Fraction",
                        lambda *args: built.append(args) or F(*args))
    for curve, N, d in ((parabola(), 64, 1), (polynomial_curve([[0, 1], [0, 0, 0, 1]]), 8, 4)):
        q = TubeQuery(curve, F(d, N * N), LatticeSource(N, ((0, 1), (0, 1))))
        r = count_in_tube(q, keep_points=False)
        assert r.points is None and len(built) == 2 * sum(decided)
        kept = count_in_tube(q)
        assert kept.count == r.count == len(kept.points) > 0
        assert len(built) == 2 * sum(decided) + 2 * r.count
        built.clear()
        decided.clear()


# rational unit vectors: points at δ times one of them from a curve point are
# at distance exactly δ from it, and from the curve when it is a normal
_UNIT_2D = [(F(1), F(0)), (F(0), F(1)), (F(3, 5), F(4, 5)), (F(4, 5), F(-3, 5)),
            (F(5, 13), F(12, 13)), (F(-12, 13), F(5, 13))]
_DELTAS = st.sampled_from([F(1, 10 ** k) for k in range(13)]) | \
    st.fractions(F(1, 1000), 1, max_denominator=1000)
_coeffs = st.fractions(-2, 2, max_denominator=6)


@st.composite
def polynomial_tube_queries(draw):
    """Rational points near random polynomial graphs, planar parametric
    curves (segments along a Pythagorean direction among them), moment
    curves in 2-5 dimensions and the full circle, with δ from 10⁻¹² to 1.
    Each point is a curve point at a rational parameter plus δ·s·w for a
    rational unit w and s in {0, 1, 1 ± 10⁻⁹, 1 ± 10⁻⁶, 2} or a random
    rational: many lie at distance exactly δ."""
    kind = draw(st.sampled_from(["graph", "parametric", "segment", "moment",
                                 "circle"]))
    lo = draw(st.fractions(0, F(1, 2), max_denominator=8))
    hi = draw(st.fractions(F(1, 2), 1, max_denominator=8).filter(lambda h: h > lo))
    if kind == "graph":
        curve = graph_curve([draw(st.lists(_coeffs, max_size=5))], (lo, hi))
    elif kind == "parametric":
        curve = polynomial_curve([draw(st.lists(_coeffs, max_size=4))
                                  for _ in range(2)], (lo, hi))
    elif kind == "segment":
        a, b = draw(st.sampled_from(_UNIT_2D))
        base = (draw(_coeffs), draw(_coeffs))
        curve = line_segment(base, (base[0] + b, base[1] - a))
    elif kind == "moment":
        curve = moment_curve(draw(st.integers(2, 5)))
    else:
        curve = circle_arc()
    n = curve.dimension
    delta = draw(_DELTAS)
    scale = st.sampled_from([0, 1, 1 - F(1, 10 ** 9), 1 + F(1, 10 ** 9),
                             1 - F(1, 10 ** 6), 1 + F(1, 10 ** 6), 2]) | \
        st.fractions(0, 3, max_denominator=20)
    pts = set()
    params = st.fractions(*curve.domain, max_denominator=64)
    for t in draw(st.lists(params, min_size=1, max_size=8, unique=True)):
        if curve.is_exact:
            q = tuple(polys.eval_exact(fn.coeffs, t) for fn in curve.coords)
            i, j = draw(st.permutations(range(n)))[:2]
            a, b = draw(st.sampled_from(_UNIT_2D))
            w = [F(0)] * n
            w[i], w[j] = a, b
        else:
            # a rational point of the circle, and its radial direction
            q = w = ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
        s = draw(scale) * draw(st.sampled_from([-1, 1]))
        pts.add(tuple(c + delta * s * wc for c, wc in zip(q, w)))
    return TubeQuery(curve, delta, ExplicitSource(FiniteSet(pts)))


_QUARTERS = [F(k, 4) for k in range(5)]


@st.composite
def quarter_arc_queries(draw):
    """Rational points near circle arcs whose ends are multiples of ¼: a
    circle point at t = k/4 or at a rational s = tan πt, moved by δ·s·w
    along a rational unit w, radial or not, with s as in
    ``polynomial_tube_queries``."""
    lo, hi = draw(st.lists(st.sampled_from(_QUARTERS), min_size=2, max_size=2,
                           unique=True).map(sorted))
    delta = draw(_DELTAS)
    scale = st.sampled_from([0, 1, 1 - F(1, 10 ** 9), 1 + F(1, 10 ** 9),
                             1 - F(1, 10 ** 6), 1 + F(1, 10 ** 6), 2]) | \
        st.fractions(0, 3, max_denominator=20)
    pts = set()
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            q = draw(st.sampled_from(_QUARTER_POINTS))
        else:
            q = _circle_point(draw(st.fractions(-20, 20, max_denominator=20)))
        w = draw(st.sampled_from(_UNIT_2D + [q]))
        s = draw(scale) * draw(st.sampled_from([-1, 1]))
        pts.add(tuple(c + delta * s * wc for c, wc in zip(q, w)))
    return TubeQuery(circle_arc(lo, hi), delta, ExplicitSource(FiniteSet(pts)))


@st.composite
def full_circle_queries(draw):
    """Explicit and GAP sources around the full unit circle, which take the
    chord route like any other curve.  Explicit points: a rational circle
    point q scaled to |p| = 1 ± δ exactly or 10⁻⁹·δ inside or outside it, a
    random rational point, or the centre, which lies in the tube exactly
    when δ ≥ 1; at δ = 1, |γ − p|² − δ² ≡ 0 there.  A GAP runs along q in
    steps of δ·q, through |p| = 1 − δ, 1 and 1 + δ, and along a random
    second generator."""
    delta = draw(_DELTAS | st.just(F(1)))
    circle = st.sampled_from(_QUARTER_POINTS[:4]) | \
        st.fractions(-20, 20, max_denominator=20).map(_circle_point)
    if draw(st.booleans()):
        q, other = draw(circle), draw(st.tuples(_coeffs, _coeffs))
        base = tuple((1 - 2 * delta) * c - o for c, o in zip(q, other))
        gap = Gap(base, (tuple(delta * c for c in q), other),
                  (3, draw(st.integers(1, 4))))
        return TubeQuery(circle_arc(), delta, GapSource(gap))
    pts = set()
    for _ in range(draw(st.integers(1, 8))):
        how = draw(st.sampled_from(["radius", "random", "centre"]))
        if how == "radius":
            s = 1 + draw(st.sampled_from([-1, 1])) * delta * draw(
                st.sampled_from([1, 1 - F(1, 10 ** 9), 1 + F(1, 10 ** 9)]))
            pts.add(tuple(s * c for c in draw(circle)))
        elif how == "random":
            pts.add(draw(st.tuples(_coeffs, _coeffs)))
        else:
            pts.add((F(0), F(0)))
    return TubeQuery(circle_arc(), delta, ExplicitSource(FiniteSet(pts)))


@settings(max_examples=150, deadline=None)
@given(polynomial_tube_queries() | quarter_arc_queries() | full_circle_queries())
# a segment along (4, −3) and a point on its normal at exactly δ
@example(TubeQuery(line_segment((0, 0), (F(4, 5), F(-3, 5))), F(1, 10 ** 12),
                   FiniteSet([(F(2, 5) + F(3, 5 * 10 ** 12),
                               F(-3, 10) + F(4, 5 * 10 ** 12))])))
# the vertex of y = (x − 2/5)² bulges out of its chord's box: a hit at
# exactly δ below it is kept only by the sagitta term of the pad
@example(TubeQuery(graph_curve([[F(4, 25), F(-4, 5), 1]]), F(1, 10 ** 6),
                   FiniteSet([(F(2, 5), F(-1, 10 ** 6))])))
# on an arc through ½: (−1 − δ, 0) is at distance δ from its point at t = ½
# only; (−1 + 3δ/5·s, 4δ/5·s), s = 1 + 10⁻⁶, is within δ of points whose
# s = tan πt is about 10¹², past every bound but Cauchy's
@example(TubeQuery(circle_arc(F(1, 4), F(3, 4)), F(1, 10 ** 12),
                   FiniteSet([(-1 - F(1, 10 ** 12), 0)])))
@example(TubeQuery(circle_arc(F(1, 4), F(3, 4)), F(1, 10 ** 12),
                   FiniteSet([(-1 + F(3, 5 * 10 ** 12) * (1 + F(1, 10 ** 6)),
                               F(4, 5 * 10 ** 12) * (1 + F(1, 10 ** 6)))])))
# at exactly δ past the arc's end (0, 1), where a float tan π/4 is below 1
@example(TubeQuery(circle_arc(0, F(1, 4)), F(1, 10 ** 12),
                   FiniteSet([(-F(1, 10 ** 12), 1)])))
# the centre of the full circle at δ = 1, where |γ − p|² − δ² ≡ 0, and a
# point at |p| = 1 + δ = 2
@example(TubeQuery(circle_arc(), F(1), FiniteSet([(0, 0), (F(6, 5), F(8, 5))])))
def test_polynomial_and_circle_tubes_match_exact_brute_force(q):
    # no candidate pruning in the brute force: a Sturm count over the whole
    # domain, or the rational radius test, for every point
    src = q.source
    pts = gap_enumerate(src.gap) if isinstance(src, GapSource) else src.points
    expected = tuple(p for p in pts if _in_tube_by_fractions(q.curve, F(q.delta), p))
    r = count_in_tube(q)
    assert r.points == expected and r.count == len(expected)
    assert r.certified


def _half_angle_row(f: TrigCoord) -> list:
    """The integers of (1 + s²)^d·f in s = tan πt at f's own degree d, the
    largest a + b of its terms, low degree first and untrimmed."""
    d = max(a + b for a, b in f.terms)
    row = [0] * (2 * d + 1)
    for (a, b), c in f.integer_form[1].items():
        for i, x in enumerate(_half_angle_basis(a, b, d)):
            row[i] += c * x
    return row


def _trig_near_by_coordinates(curve, p, delta):
    """The per-candidate route the plane matrix replaced: D = |γ − p|² − δ²
    built as a ``TrigCoord``, ≤ 0 somewhere when it is ≡ 0 or as
    ``TrigRoots`` decides its half-angle form at its own degree."""
    D = TrigCoord({(0, 0): -delta * delta})
    for fn, x in zip(curve.coords, p):
        g = fn.add(TrigCoord({(0, 0): -x}))
        D = D.add(g.mul(g))
    return D.is_zero() or TrigRoots(_half_angle_row(D), *curve.domain).nonpositive()


@st.composite
def trig_near_cases(draw):
    """A curve in (cos 2πt, sin 2πt), δ and points for ``tube._trig_near``:
    the full circle, or an arc from ½ to an end j/n (n ≤ 64, where tan πx
    can be narrowed, and beyond), lifted by M₁ or M₂ or not.  Each point is
    random and rational, or the curve's point at t = 0, t = ½ or a rational
    circle point moved by δ·s along a rational unit vector in two of its
    coordinates, s = 1 or 1 ± 10⁻⁹: at distance exactly δ from it or
    nearly."""
    lo, hi = F(0), F(1)
    if draw(st.booleans()):
        n = draw(st.integers(3, 64) | st.integers(65, 200))
        x = F(draw(st.integers(1, n - 1)), n)
        assume(x != F(1, 2))
        lo, hi = sorted((x, F(1, 2)))
    curve = circle_arc(lo, hi)
    k = draw(st.integers(0, 2))
    if k:
        curve = lift_curve(curve, make_Ms(k))
    n = curve.dimension
    delta = draw(_DELTAS)
    pts = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            pts.append(tuple(draw(st.lists(_coeffs, min_size=n, max_size=n))))
            continue
        u, v = draw(st.sampled_from([(F(1), F(0)), (F(-1), F(0))])
                    | st.fractions(-20, 20, max_denominator=20).map(_circle_point))
        q = [sum(c * u ** a * v ** b for (a, b), c in fn.terms.items())
             for fn in curve.coords]
        i, j = draw(st.permutations(range(n)))[:2]
        a, b = draw(st.sampled_from(_UNIT_2D))
        s = draw(st.sampled_from([1, 1 - F(1, 10 ** 9), 1 + F(1, 10 ** 9)]))
        q[i] += delta * s * a
        q[j] += delta * s * b
        pts.append(tuple(q))
    return curve, pts, delta


@settings(max_examples=150, deadline=None)
@given(trig_near_cases())
# the centre of the full circle at δ = 1: |γ − p|² − δ² ≡ 0
@example((circle_arc(), [(F(0), F(0))], F(1)))
def test_trig_near_rows_decide_as_the_coordinate_algebra(case):
    # one row of the plane matrix of (γ, |γ|²) per point decides what D
    # built point by point as a TrigCoord decides, None included
    curve, pts, delta = case
    assert tube._trig_near(curve, pts, delta) == \
        [_trig_near_by_coordinates(curve, p, delta) for p in pts]


@st.composite
def near_decisions(draw):
    """A polynomial curve, δ and points for ``_poly_near``: graphs, planar
    parametric curves, Pythagorean segments and constant curves.  Each point
    is a curve point, at a random parameter or an end of the domain, moved
    by δ·s along a rational unit vector (the normal among them on a
    segment), with s = 1 or 1 ± 10⁻⁹ among the choices.  At an end the
    quadratic part's vertex can fall outside the window, and on a graph a
    point left of its lower end, x in [lo − δ, lo), has its window clipped
    there."""
    kind = draw(st.sampled_from(["graph", "parametric", "segment", "constant"]))
    lo = draw(st.fractions(0, F(1, 2), max_denominator=8))
    hi = draw(st.fractions(F(1, 2), 1, max_denominator=8).filter(lambda h: h > lo))
    directions = list(_UNIT_2D)
    if kind == "graph":
        curve = graph_curve([draw(st.lists(_coeffs, max_size=5))], (lo, hi))
    elif kind == "parametric":
        curve = polynomial_curve([draw(st.lists(_coeffs, min_size=2, max_size=4))
                                  for _ in range(2)], (lo, hi))
    elif kind == "segment":
        a, b = draw(st.sampled_from(_UNIT_2D))
        base = (draw(_coeffs), draw(_coeffs))
        curve = line_segment(base, (base[0] + b, base[1] - a))
        directions.append((a, b))
    else:
        curve = polynomial_curve([[draw(_coeffs)], [draw(_coeffs)]], (lo, hi))
    delta = draw(_DELTAS)
    lo, hi = curve.domain
    scale = st.sampled_from([0, 1, 1 - F(1, 10 ** 9), 1 + F(1, 10 ** 9), 2]) | \
        st.fractions(0, 3, max_denominator=20)
    pts = []
    for _ in range(draw(st.integers(1, 6))):
        t = draw(st.sampled_from([lo, hi]) | st.fractions(lo, hi, max_denominator=64))
        q = [polys.eval_exact(fn.coeffs, t) for fn in curve.coords]
        w = draw(st.sampled_from(directions))
        s = draw(scale) * draw(st.sampled_from([-1, 1]))
        pts.append(tuple(c + delta * s * wc for c, wc in zip(q, w)))
    return curve, delta, pts


@settings(max_examples=100, deadline=None)
@given(near_decisions())
# a window clipped at lo = ½: x = ½ − 3δ/5, at exactly δ from the end
@example((graph_curve([[0, 0, 1]], (F(1, 2), 1)), F(1, 100),
          [(F(1, 2) - F(3, 500), F(1, 4) + F(4, 500)),
           (F(1, 2) - F(1, 100), F(1, 4)), (F(1, 2) - F(1, 100), F(1, 3))]))
# the nearest point is the segment's end: the vertex lies outside the window
@example((line_segment((0, 0), (1, 0)), F(1, 10 ** 12),
          [(1 + F(3, 5 * 10 ** 12), F(4, 5 * 10 ** 12)),
           (1 + F(3, 5 * 10 ** 12) * (1 + F(1, 10 ** 9)), F(4, 5 * 10 ** 12))]))
# a constant curve, m = 0, at exactly δ and just past it
@example((polynomial_curve([[F(1, 3)], [F(2, 5)]]), F(1, 7),
          [(F(1, 3) + F(3, 35), F(2, 5) + F(4, 35)), (F(1, 3) + F(1, 7), F(2, 5) + F(1, 10 ** 9))]))
def test_quadratic_certificate_never_contradicts_the_sturm_count(case):
    # the certificate's verdict, when it gives one, is the Sturm-only
    # decision of the brute force; on a curve of degree ≤ 1, where the
    # quadratic model is exact, it always gives one
    curve, delta, pts = case
    linear = all(len(fn.coeffs) <= 2 for fn in curve.coords)
    for p in pts:
        expected = _in_tube_by_fractions(curve, delta, p)
        near = tube._PolyNear(curve, delta)
        model = near.model(p)
        verdict = False if model is None else tube._quadratic_certificate(*model)
        assert verdict is None or verdict == expected
        assert verdict is not None or not linear
        assert near(p) == expected


def test_degree_one_curves_never_reach_the_sturm_count(monkeypatch):
    # the 199 points of test_points_just_off_the_boundary_are_decided_exactly
    # spread along the segment all need an exact decision, and the quadratic
    # certificate gives every one.  The cubic's lattice walk at N = 256
    # leaves almost every candidate to the witness or its window chords:
    # a few exact decisions, and at most a handful of Sturm counts
    decided, counts = _count_exact_decisions(monkeypatch), []
    count = polys.Roots.closed
    monkeypatch.setattr(polys.Roots, "closed",
                        lambda *args: counts.append(args) or count(*args))
    d = F(1, 10 ** 12)
    seg = line_segment((0, F(1, 2)), (F(1, 10 ** 6), F(1, 2)))
    pts = FiniteSet([(F(k, 200 * 10 ** 6), F(1, 2) + d * (1 + F(k, 10 ** 6)))
                     for k in range(1, 200)])
    r = count_in_tube(TubeQuery(seg, d, pts))
    assert r.count == 0 and r.certified
    assert decided == [199] and not counts
    N = 256
    r = count_in_tube(TubeQuery(polynomial_curve([[0, 1], [0, 0, 0, 1]]),
                                F(4, N * N), LatticeSource(N, ((0, 1), (0, 1)))))
    assert r.certified and r.count == 26
    assert len(decided) == 2 and decided[1] <= 5 and len(counts) <= 5


def _count_exact_decisions(monkeypatch) -> list:
    """Patch the exact pass of the tube counts to record, per call, the
    number of points it decides; return that list."""
    decided, exact = [], tube._exact_near
    monkeypatch.setattr(tube, "_exact_near", lambda curve, points, delta:
                        decided.append(len(points)) or exact(curve, points, delta))
    return decided
