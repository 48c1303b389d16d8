"""Hyperplane intersections, derivative curves, the MVT consistency check,
and affine invariance of intersection counts."""

import random
from fractions import Fraction as F

import pytest

from curvecount import (DegenerateIntersection, Hyperplane, circle_arc,
                        derivative_curve, intersect, lift_curve, make_Ms,
                        max_intersections, moment_curve, mvt_consistency,
                        parabola, survey_intersections, to_graph_form,
                        wronskian)
from curvecount.curves import InvalidCurveError, polynomial_curve
from curvecount.hyperplanes import HyperplaneError, mvt_derived_hyperplane


def test_hyperplane_normalization():
    h = Hyperplane(F(1, 2), (F(1, 4), F(-1, 2)))
    assert max(abs(a) for a in h.normal) == 1
    assert h.a0 == 1 and h.normal == (F(1, 2), -1)
    with pytest.raises(HyperplaneError):
        Hyperplane(1, (0, 0))


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
    dc = derivative_curve(moment_curve(3))
    assert dc.dimension == 2
    assert [tuple(c.coeffs) for c in dc.coords] == [(0, 2), (0, 0, 3)]
    # non-degeneracy inherited: W of (2t, 3t^2) is det [[2, 6t], [0, 6]] = 12
    for t in (F(0), F(1, 2), F(1)):
        assert wronskian(dc, t) == 12


def test_derivative_curve_parabola_is_one_dimensional():
    dc = derivative_curve(parabola())
    assert dc.dimension == 1
    assert tuple(dc.coords[0].coeffs) == (0, 2)


def test_to_graph_form_affine_reparameterization():
    curve = polynomial_curve([[F(1, 4), F(1, 2)], [0, 0, 1]])  # (1/4 + t/2, t^2)
    graph = to_graph_form(curve)
    assert graph.is_graph_form
    assert graph.domain == (F(1, 4), F(3, 4))
    # the graph must trace the same planar set: y = (2x - 1/2)^2
    from curvecount.curves import eval_jet
    for s in (F(1, 4), F(1, 2), F(3, 4)):
        y = eval_jet(graph, s, 0).point[1]
        assert y == (2 * s - F(1, 2)) ** 2


def test_to_graph_form_rejects_nonaffine():
    curve = polynomial_curve([[0, 0, 1], [0, 1]])
    with pytest.raises(InvalidCurveError):
        to_graph_form(curve)


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
    h = Hyperplane(F(1, 3), (F(1, 2), 1, F(-1, 4)))
    hd = mvt_derived_hyperplane(h)
    assert hd.dimension == 2
    with pytest.raises(HyperplaneError):
        mvt_derived_hyperplane(Hyperplane(1, (1, 0, 0)))


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
    assert max_intersections(parabola(), 300, seed=7) == 2
    assert max_intersections(moment_curve(3), 300, seed=7) <= 3
    survey = survey_intersections(circle_arc(), 100, seed=11, grid=512)
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
    roots = intersect(circle_arc(), Hyperplane(F(1, 2), (0, 1)), grid=512)
    assert len(roots) == 2


def test_circle_tangency_on_grid_node():
    # y = 1 touches at t = 1/4, an exact grid node where g evaluates to 0.0
    roots = intersect(circle_arc(), Hyperplane(1, (0, 1)), grid=2048)
    assert len(roots) == 1 and abs(roots.roots[0] - 0.25) < 1e-12


def test_circle_tangency_off_grid_flagged():
    import math
    th = 2 * math.pi / 3
    plane = Hyperplane(F(1), (F(math.cos(th)), F(math.sin(th))))
    roots = intersect(circle_arc(), plane, grid=2048)
    assert len(roots) == 1
    assert abs(roots.roots[0] - 1 / 3) < 1e-6
    assert not roots.certified
    assert any("tangential" in w for w in roots.warnings)
    # pushed outward the line misses entirely
    outward = Hyperplane(F(1001, 1000), (F(math.cos(th)), F(math.sin(th))))
    assert len(intersect(circle_arc(), outward, grid=2048)) == 0


def test_close_roots_clear_certified_flag():
    plane = Hyperplane(F(999999, 1000000), (0, 1))
    roots = intersect(circle_arc(), plane, grid=64)
    assert len(roots) == 2 and not roots.certified
    assert any("coarse" in w for w in roots.warnings)
