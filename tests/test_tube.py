"""Tube counting: exact on-curve enumeration, the production counter, the
brute-force oracle, and their agreement."""

import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvecount import polys, tube
from curvecount import (CapExceeded, ExplicitSource, FiniteSet, Gap,
                        GapSource, InvalidQuery, LatticeSource, MonomialSet,
                        TubeQuery, brute_force_tube_oracle, circle_arc,
                        count_in_tube, count_on_curve_lattice, delta_from_rule,
                        graph_curve, lift_curve, line_segment, make_Ms,
                        moment_curve, parabola, polynomial_curve)
from curvecount.curves import derivative_sup_bound, eval_array, translate_curve
from curvecount.tube import _least_index


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
       .filter(lambda d: d[0] < d[1]),
       x_range=st.none() | st.tuples(rationals, rationals))
def test_on_curve_lattice_matches_fraction_loop(f, N, domain, x_range):
    graph = graph_curve([f], domain=domain)
    lo, hi = domain
    if x_range is not None:
        lo, hi = max(x_range[0], lo), min(x_range[1], hi)
    coeffs = graph.coords[1].coeffs
    assert sorted(count_on_curve_lattice(graph, N, x_range)) == \
        on_curve_by_fractions(coeffs, N, lo, hi)


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
    q2 = TubeQuery(translate_curve(pb, shift), F(1, 64),
                   ExplicitSource(src_pts.translate(shift)))
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
    for delta in (0, math.inf, math.nan):
        with pytest.raises(InvalidQuery):
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
                assert (r.arcs_examined == 0) == (curve.domain == (0, 1))


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


def test_oracle_cells_follow_the_widest_axes():
    # a segment along the third axis: cells on the first two axes would put
    # all 10⁶ samples in one cell and measure each point against every one;
    # no point is at distance δ, so both routes are certified
    code = """
from fractions import Fraction as F
from curvecount import (FiniteSet, TubeQuery, brute_force_tube_oracle,
                        count_in_tube, line_segment)
pts = [(F(k % 7, 25000), F(k % 5, 25000), F(k, 3000)) for k in range(3000)]
q = TubeQuery(line_segment((0, 0, 0), (0, 0, 1)), F(1, 10 ** 4), FiniteSet(pts))
r, rb = count_in_tube(q), brute_force_tube_oracle(q)
assert r.certified and rb.certified and r.points == rb.points, (r, rb)
"""
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr


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
    # explicit sources and, in 3-D, the oracle's cells on two of three axes;
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


@st.composite
def pruning_cases(draw):
    """A curve, a grid of 9 to 4001 samples, a radius `upper`, and lattice
    points or explicit points near the curve, about half of them at
    upper·(1 ± 10⁻⁹) or upper·(1 ± 10⁻¹²) from a sample."""
    if draw(st.booleans()):
        curve = graph_curve([draw(st.lists(st.fractions(-2, 2, max_denominator=6),
                                           min_size=1, max_size=5))])
    else:
        curve = _PRUNING_CURVES[draw(st.sampled_from(sorted(_PRUNING_CURVES)))]
    lo, hi = float(curve.domain[0]), float(curve.domain[1])
    ts = np.linspace(lo, hi, draw(st.integers(8, 4000)) + 1)
    upper = 1 / draw(st.integers(4, 400))
    if curve.dimension == 2 and draw(st.booleans()):
        N = draw(st.integers(2, 32))
        pts = tube._oracle_points(LatticeSource(N, ((-2, 2), (-2, 2))), None)[0]
        return curve, ts, pts, upper
    radii = st.sampled_from([1 - 1e-9, 1 + 1e-9, 1 - 1e-12, 1 + 1e-12])
    pts = []
    for i in draw(st.lists(st.integers(0, len(ts) - 1), min_size=1, max_size=30)):
        v = np.array(draw(st.lists(st.floats(-1, 1), min_size=curve.dimension,
                                   max_size=curve.dimension)))
        if draw(st.booleans()) and np.linalg.norm(v) > 0:
            v *= draw(radii) / np.linalg.norm(v)
        pts.append(eval_array(curve, ts[i:i + 1])[0] + upper * v)
    return curve, ts, np.array(pts), upper


def _past_the_end(curve, steps, upper):
    """A point just within `upper` of the grid's last sample, ahead of it
    along the tangent, on a grid whose last block is full: its nearest
    sample is as far from its block's first one as any point's can be."""
    ts = np.linspace(float(curve.domain[0]), float(curve.domain[1]), steps + 1)
    tangent = eval_array(curve, ts[-1:], 1)[0]
    p = eval_array(curve, ts[-1:])[0] + upper * (1 - 1e-12) * tangent / np.linalg.norm(tangent)
    return curve, ts, p[None, :], upper


@settings(max_examples=80, deadline=None)
@given(pruning_cases())
@example(_past_the_end(_PRUNING_CURVES["arc"], 599, 1 / 400))
@example(_past_the_end(_PRUNING_CURVES["arc"], 3999, 1 / 4))
def test_pruned_samples_match_dense_samples(case):
    # the oracle evaluates only the blocks of samples that can be within
    # `upper` of a point; below `upper` it must see what every sample shows
    curve, ts, pts, upper = case
    d2, nearest = tube._nearest_samples(eval_array(curve, ts), pts, upper)
    p2, pnearest = tube._grid_nearest(curve, ts, pts, upper,
                                      derivative_sup_bound(curve, 1))
    near = d2 < upper * upper
    assert np.array_equal(p2 < upper * upper, near)
    assert d2[near].tobytes() == p2[near].tobytes()
    assert np.array_equal(nearest[near], pnearest[near])


def test_oracle_with_no_point_within_reach(monkeypatch):
    # every point is far from the circle: no block is kept, and only the
    # coarse pass measures distances
    calls = []
    nearest_samples = tube._nearest_samples

    def counted(samples, pts, upper):
        calls.append(len(samples))
        return nearest_samples(samples, pts, upper)
    monkeypatch.setattr(tube, "_nearest_samples", counted)
    delta = F(1, 100)
    grid = brute_force_tube_oracle(TubeQuery(circle_arc(), delta,
                                             FiniteSet([(1, 0)]))).arcs_examined
    for source in (FiniteSet([(5, 5)]), LatticeSource(8, ((3, 4), (-1, 1)))):
        calls.clear()
        rb = brute_force_tube_oracle(TubeQuery(circle_arc(), delta, source))
        assert (rb.count, rb.points, rb.certified) == (0, (), True)
        assert rb.arcs_examined == grid and len(calls) == 1 and calls[0] > 0


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
    exact_decisions = []
    monkeypatch.setattr(tube, "_poly_near",
                        lambda *args: exact_decisions.append(args))
    r = count_in_tube(TubeQuery(moment_curve(8), F(1, 1000),
                                ExplicitSource(FiniteSet(on_curve + [near]))))
    assert r.certified and r.count == n + 1 and not exact_decisions


_TUBE_CURVES = {
    "parabola": parabola(),
    "cubic": polynomial_curve([[0, 1], [0, 0, 0, 1]]),
    "circle": circle_arc(),
    "arc": circle_arc(F(1, 8), F(5, 8)),
    "shifted": translate_curve(parabola(), (F(-1, 3), F(2, 5))),
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
        g = polys.sub(fn.coeffs, (x,))
        D = polys.add(D, polys.mul(g, g))
    return polys.eval_exact(D, lo) <= 0 or polys.count_roots_closed(D, lo, hi) > 0


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
    (ilo, ihi), (jlo, jhi) = source.index_bounds()
    N = source.N
    expected = tuple((F(i, N), F(j, N))
                     for i in range(ilo, ihi + 1) for j in range(jlo, jhi + 1)
                     if _in_tube_by_fractions(curve, delta, (F(i, N), F(j, N))))
    r = count_in_tube(TubeQuery(curve, delta, source))
    assert r.points == expected and r.count == len(expected)
    assert r.certified and r.arcs_examined == 0


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


@settings(max_examples=150, deadline=None)
@given(polynomial_tube_queries() | quarter_arc_queries())
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
def test_polynomial_and_circle_tubes_match_exact_brute_force(q):
    # no candidate pruning in the brute force: a Sturm count over the whole
    # domain, or the rational radius test, for every point
    expected = tuple(p for p in q.source.points
                     if _in_tube_by_fractions(q.curve, F(q.delta), p))
    r = count_in_tube(q)
    assert r.points == expected and r.count == len(expected)
    assert r.certified
