"""Curve-hyperplane intersections, the derivative curve, and the empirical
uniform intersection bound.

A hyperplane a₁x₁+…+aₙxₙ = a₀ meets the curve where
g(t) = Σ aᵢγᵢ(t) − a₀ vanishes.  For polynomial curves the roots in the
domain are isolated exactly (Sturm sign variations on rational polynomials,
square-free first so tangential intersections count once); for trigonometric
curves a sign-change grid scan plus bisection is used, with even-multiplicity
roots hunted best-effort among near-zero local minima of |g|.

The derivative curve of a graph (t, f₂(t), …, fₙ(t)) is
(f₂'(t), …, fₙ'(t)) in one dimension lower: the Mean Value Theorem sends k
intersection parameters of a hyperplane with the graph to at least k−1
intersection parameters of the derived hyperplane with the derivative curve,
which is the induction step behind the uniform bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import polys
from .curves import (CurveSpec, InvalidCurveError, PolyCoord, bisect_sign_change,
                     eval_array, point_fn)


class HyperplaneError(ValueError):
    pass


class DegenerateIntersection(ValueError):
    """The curve lies inside the hyperplane: infinitely many intersections."""


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Hyperplane:
    """a₁x₁ + … + aₙxₙ = a₀, normalized so max |aᵢ| = 1 for i ≥ 1."""
    a0: Fraction
    normal: tuple

    def __init__(self, a0, normal):
        normal = tuple(_as_fraction(a) for a in normal)
        a0 = _as_fraction(a0)
        if not normal or all(a == 0 for a in normal):
            raise HyperplaneError("normal coefficients a1..an must not all vanish")
        scale = max(abs(a) for a in normal)
        object.__setattr__(self, "a0", a0 / scale)
        object.__setattr__(self, "normal", tuple(a / scale for a in normal))

    @property
    def dimension(self) -> int:
        return len(self.normal)


@dataclass(frozen=True)
class RootList:
    """Intersection parameters, sorted; set-of-points semantics."""
    roots: tuple
    intervals: tuple  # exact isolating intervals, or None per root
    certified: bool
    warnings: tuple = ()

    def __len__(self):
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


def _combination_poly(curve: CurveSpec, plane: Hyperplane) -> polys.Poly:
    g = polys.poly([-plane.a0])
    for a, coord in zip(plane.normal, curve.coords):
        if a:
            g = polys.add(g, polys.scale(coord.coeffs, a))
    return g


def intersect(curve: CurveSpec, plane: Hyperplane, grid: int = 2048) -> RootList:
    """Parameters t in the domain with γ(t) ∈ H."""
    if plane.dimension != curve.dimension:
        raise HyperplaneError("hyperplane dimension does not match the curve")
    lo, hi = curve.domain
    if curve.is_exact:
        g = _combination_poly(curve, plane)
        if polys.is_zero(g):
            raise DegenerateIntersection("curve is contained in the hyperplane")
        intervals = polys.isolate_roots(g, lo, hi)
        roots = tuple(polys.refine_root(g, a, b) for a, b in intervals)
        return RootList(roots=roots, intervals=tuple(intervals), certified=True)
    return _intersect_sampled(curve, plane, grid)


def _intersect_sampled(curve: CurveSpec, plane: Hyperplane, grid: int) -> RootList:
    lo, hi = float(curve.domain[0]), float(curve.domain[1])
    fp = point_fn(curve)
    a0 = float(plane.a0)
    normal = [float(a) for a in plane.normal]

    def g(t: float) -> float:
        q = fp(t)
        return sum(a * x for a, x in zip(normal, q)) - a0

    # g on the whole grid in one vectorized pass: the same operations in the
    # same order, so each node value is bit-identical to g at that node
    ts = lo + (hi - lo) * np.arange(grid + 1) / grid
    gs = (sum(a * x for a, x in zip(normal, eval_array(curve, ts).T)) - a0).tolist()
    ts = ts.tolist()
    scale = max(max(abs(v) for v in gs), 1e-30)
    roots: list[float] = []
    warnings: list[str] = []
    certified = True

    for k in range(grid):
        g0, g1 = gs[k], gs[k + 1]
        if g0 == 0.0:
            roots.append(ts[k])
            continue
        if g0 * g1 < 0.0:
            roots.append(bisect_sign_change(g, ts[k], ts[k + 1], g0, 60))
    if gs[-1] == 0.0:
        roots.append(ts[-1])

    # best-effort tangential roots: interior near-zero minima of |g| without
    # a sign change.  Near a tangency g is locally quadratic, so a grid node
    # within h/2 of it sees |g| up to ~|g''| h^2/8; the candidate threshold
    # scales with h^2 while acceptance of the refined minimum stays strict.
    cand_tol = scale * max(1e-9, (8.0 / grid) ** 2)
    for k in range(1, grid):
        if abs(gs[k]) < cand_tol and gs[k] != 0.0 \
                and abs(gs[k]) <= abs(gs[k - 1]) and abs(gs[k]) <= abs(gs[k + 1]) \
                and gs[k - 1] * gs[k + 1] > 0.0:
            a, b = ts[k - 1], ts[k + 1]
            for _ in range(80):
                m1 = a + (b - a) / 3
                m2 = b - (b - a) / 3
                if abs(g(m1)) < abs(g(m2)):
                    b = m2
                else:
                    a = m1
            t_star = 0.5 * (a + b)
            if abs(g(t_star)) < 1e-12 * scale:
                roots.append(t_star)
                warnings.append(f"tangential root near t={t_star:.12g}")
                certified = False

    roots = sorted(roots)
    # collapse duplicates from adjacent grid cells
    merged: list[float] = []
    min_gap = (hi - lo) / grid * 1e-6
    for r in roots:
        if merged and abs(r - merged[-1]) < min_gap:
            continue
        merged.append(r)
    near = sum(1 for x, y in zip(merged, merged[1:]) if y - x < 2 * (hi - lo) / grid)
    if near:
        warnings.append("roots closer than two grid cells; grid may be too coarse")
        certified = False
    return RootList(roots=tuple(merged), intervals=(None,) * len(merged),
                    certified=certified, warnings=tuple(warnings))


def to_graph_form(curve: CurveSpec) -> CurveSpec:
    """Reparameterize a polynomial curve with affine first coordinate into
    graph form (t, f₂(t), …, fₙ(t))."""
    if not curve.is_exact:
        raise InvalidCurveError("graph form requires a polynomial curve")
    if curve.is_graph_form:
        return curve
    c0 = curve.coords[0].coeffs
    if polys.degree(c0) != 1:
        raise InvalidCurveError(
            "first coordinate is not affine; cannot reparameterize exactly")
    b = c0[0] if len(c0) > 0 else Fraction(0)
    a = c0[1]
    # t = (s - b)/a maps the first coordinate to the identity
    sub = polys.poly([-b / a, 1 / a])
    coords = [PolyCoord(polys.poly([0, 1]))]
    coords += [PolyCoord(polys.compose(fn.coeffs, sub)) for fn in curve.coords[1:]]
    lo, hi = curve.domain
    new_lo, new_hi = sorted((polys.eval_exact(c0, lo), polys.eval_exact(c0, hi)))
    return CurveSpec("polynomial-graph", coords, (new_lo, new_hi))


def derivative_curve(curve: CurveSpec) -> CurveSpec:
    """Γ' = (f₂'(t), …, fₙ'(t)) for a graph curve (t, f₂, …, fₙ)."""
    if not curve.is_exact:
        raise InvalidCurveError("derivative curve requires a polynomial curve")
    if not curve.is_graph_form:
        curve = to_graph_form(curve)
    if curve.dimension < 2:
        raise InvalidCurveError("derivative curve needs dimension >= 2")
    coords = [PolyCoord(polys.derivative(fn.coeffs)) for fn in curve.coords[1:]]
    return CurveSpec("polynomial-parametric", coords, curve.domain)


def mvt_derived_hyperplane(plane: Hyperplane) -> Hyperplane:
    """H' : a₁ + a₂x₂ + … + aₙxₙ = 0 in the derivative curve's coordinates."""
    a1, rest = plane.normal[0], plane.normal[1:]
    if not rest or all(a == 0 for a in rest):
        raise HyperplaneError("derived hyperplane is degenerate (vertical H)")
    return Hyperplane(-a1, rest)


def mvt_consistency(curve: CurveSpec, plane: Hyperplane,
                    roots: RootList | None = None) -> bool:
    """k intersections of H with the graph force ≥ k−1 intersections of H'
    with the derivative curve (Rolle between consecutive parameters)."""
    graph = curve if curve.is_graph_form else to_graph_form(curve)
    if roots is None:
        roots = intersect(graph, plane)
    k = len(roots)
    if k < 2:
        return True
    derived = derivative_curve(graph)
    plane_d = mvt_derived_hyperplane(plane)
    return len(intersect(derived, plane_d)) >= k - 1


@dataclass(frozen=True)
class IntersectionSurvey:
    """Empirical lower estimate of the uniform bound N(Γ); the true bound
    quantifies over all hyperplanes, which is not searchable."""
    max_roots: int
    trials: int
    seed: int
    histogram: dict = field(default_factory=dict)


def max_intersections(curve: CurveSpec, trials: int, seed: int,
                      grid: int = 2048) -> int:
    """Max intersection count over seeded random hyperplanes (coefficients
    uniform dyadic rationals in [−1, 1], normalized)."""
    return survey_intersections(curve, trials, seed, grid).max_roots


def survey_intersections(curve: CurveSpec, trials: int, seed: int,
                         grid: int = 2048) -> IntersectionSurvey:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    n = curve.dimension
    denom = 1 << 24
    best = 0
    hist: dict[int, int] = {}
    done = 0
    while done < trials:
        coeffs = [Fraction(rng.randint(-denom, denom), denom) for _ in range(n + 1)]
        if all(a == 0 for a in coeffs[1:]):
            continue
        plane = Hyperplane(coeffs[0], coeffs[1:])
        try:
            k = len(intersect(curve, plane, grid))
        except DegenerateIntersection:
            continue
        hist[k] = hist.get(k, 0) + 1
        best = max(best, k)
        done += 1
    return IntersectionSurvey(max_roots=best, trials=trials, seed=seed,
                              histogram=hist)
