"""Curve-hyperplane intersections, the Mean Value Theorem check, and the
empirical uniform intersection bound.

A hyperplane a₁x₁+…+aₙxₙ = a₀ meets the curve where
g(t) = Σ aᵢγᵢ(t) − a₀ vanishes.  g is built on integer numerators, as a
positive multiple with the same roots (``_combination``).  Every root is
counted and isolated exactly on one integer polynomial, ``polys.Roots`` of
g itself for polynomial curves, and for trigonometric curves of g in
(u, v) = (cos 2πt, sin 2πt) rewritten in s = tan πt by the half-angle
substitution and cleared of denominators.  The kernel decides an interval
by Descartes' rule of signs when its transform has 0 or 1 sign variations,
which is most random planes, and otherwise by the Sturm chain of the
polynomial's square-free part, built on first use, so tangential
intersections count once.

On a polynomial curve whose first coordinate is affine, x₁ = b + c·t, the
Mean Value Theorem sends k intersection parameters of a hyperplane with the
curve to at least k−1 parameters at which the curve's derivative row
(x₂′(t), …, xₙ′(t)), one dimension lower, meets the derived hyperplane
a₁·c + a₂x₂ + … + aₙxₙ = 0: the induction step behind the uniform bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import polys
from .curves import CurveSpec, InvalidCurveError, TrigCoord, TrigRoots
from .pointsets import exact_int, exact_point


class HyperplaneError(ValueError):
    pass


class DegenerateIntersection(ValueError):
    """The curve lies inside the hyperplane: infinitely many intersections."""


@dataclass(frozen=True)
class Hyperplane:
    """a₁x₁ + … + aₙxₙ = a₀, normalized so max |aᵢ| = 1 for i ≥ 1.
    ``integer_form`` is (q, (n₀, n₁, …, nₙ)) with aᵢ = nᵢ/q, q > 0."""
    a0: Fraction
    normal: tuple
    integer_form: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, a0, normal):
        # over a common denominator, the max-|aᵢ| normalization divides
        # integers: aᵢ/max|aⱼ| = nᵢ/max|nⱼ|
        _, (n0, *ns) = polys.integer_form(exact_point((a0, *normal)))
        scale = max(map(abs, ns), default=0)
        if not scale:
            raise HyperplaneError("normal coefficients a1..an must not all vanish")
        object.__setattr__(self, "a0", Fraction(n0, scale))
        object.__setattr__(self, "normal", tuple(Fraction(n, scale) for n in ns))
        object.__setattr__(self, "integer_form", (scale, (n0, *ns)))

    @property
    def dimension(self) -> int:
        return len(self.normal)


@dataclass(frozen=True)
class RootList:
    """Intersection parameters, sorted; set-of-points semantics."""
    roots: tuple
    certified: bool

    def __len__(self):
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)


def _combination(curve: CurveSpec, plane: tuple) -> dict:
    """A positive multiple of g = Σ aᵢγᵢ − a₀ with integer coefficients,
    coefficient by coefficient and without zero terms: keyed by degree for
    polynomial curves, by the reduced (a, b) of u^a·v^b for trigonometric
    ones.  ``plane`` is the integers (n₀, n₁, …, nₙ), aᵢ = nᵢ/q for some
    q > 0, as ``Hyperplane.integer_form`` holds them.

    With γᵢ = eᵢ/dᵢ (the ``integer_form`` of each coordinate) and D the lcm
    of the dᵢ with nᵢ ≠ 0, it is q·D·g = Σ nᵢ·(D/dᵢ)·eᵢ − n₀·D.  A
    positive multiple has the same roots and signs, the same primitive
    Sturm chain, Cauchy bound and zero test at t = ½.
    """
    exact = curve.is_exact
    if not exact and any(c.tau_power for c in curve.coords):
        raise HyperplaneError("a coordinate carries a power of 2π; g is not rational")
    n0, *ns = plane
    forms = [(n, coord.integer_form) for n, coord in zip(ns, curve.coords) if n]
    D = math.lcm(*(d for _, (d, _) in forms))
    g = {0 if exact else (0, 0): -n0 * D}
    for n, (d, e) in forms:
        s = n * (D // d)
        for key, c in enumerate(e) if exact else e.items():
            if c:
                g[key] = g.get(key, 0) + s * c
    g = {key: c for key, c in g.items() if c}
    if not g:
        raise DegenerateIntersection("curve is contained in the hyperplane")
    return g


def _kernel(curve: CurveSpec, plane: tuple):
    """The root kernel of g on the curve, for the plane's integers
    (n₀, …, nₙ): ``polys.Roots`` of g for a polynomial curve, ``TrigRoots``
    of g on the domain for a trigonometric one."""
    if len(plane) != curve.dimension + 1:
        raise HyperplaneError("hyperplane dimension does not match the curve")
    g = _combination(curve, plane)
    if curve.is_exact:
        return polys.Roots([g.get(i, 0) for i in range(max(g) + 1)])
    return TrigRoots(TrigCoord(g), *curve.domain)


def intersect(curve: CurveSpec, plane: Hyperplane) -> RootList:
    """Parameters t in the domain with γ(t) ∈ H.

    Polynomial curves isolate the roots of g on the domain.  Trigonometric
    curves take the roots of g on the domain from ``TrigRoots``: the roots
    s of the half-angle polynomial mapped to t = atan(s)/π mod 1, the
    domain's ends bracketed exactly and kept when they are roots, and t = ½.
    Either route builds one root kernel (``polys.Roots``) for its
    polynomial, and isolation, refinement and the end brackets share it.
    Both routes are exact; only an end that cannot be bracketed clears
    ``certified``.
    """
    kernel = _kernel(curve, plane.integer_form[1])
    if isinstance(kernel, TrigRoots):
        return RootList(roots=tuple(kernel.params()), certified=kernel.sure)
    ts = [kernel.refine(a, b) for a, b in kernel.isolate(*curve.domain)]
    return RootList(roots=tuple(ts), certified=True)


def _count(curve: CurveSpec, plane: tuple) -> int:
    """``len(intersect(curve, H))`` by root counts on the same kernel, with
    no root isolated or refined, for H's integers (n₀, …, nₙ)."""
    kernel = _kernel(curve, plane)
    if isinstance(kernel, TrigRoots):
        return kernel.count()
    return kernel.closed(*curve.domain)


def mvt_consistency(curve: CurveSpec, plane: Hyperplane,
                    roots: RootList | None = None) -> bool:
    """k intersections of H with the curve force ≥ k−1 intersections of H'
    with the derivative row (Rolle between consecutive parameters).

    The first coordinate is affine, x₁ = b + c·t, and Rolle runs in the
    curve's own parameter: g′(t) = a₁·c + Σ aᵢ·fᵢ′(t) pairs the curve's
    derivative row with H': a₁·c + a₂x₂ + … + aₙxₙ = 0 on the same domain.
    A vertical H (a₂ = … = aₙ = 0) has no H' and raises HyperplaneError."""
    if not curve.is_exact or polys.degree(curve.coords[0].coeffs) != 1:
        raise InvalidCurveError(
            "MVT check needs a polynomial curve with affine first coordinate")
    k = _count(curve, plane.integer_form[1]) if roots is None else len(roots)
    if k < 2:
        return True
    speed, *row = curve.derivatives(1)[1]   # speed = x₁′ = c ≠ 0
    a1, *rest = plane.normal
    derived = CurveSpec("polynomial-parametric", row, curve.domain)
    derived_plane = Hyperplane(-a1 * speed.coeffs[0], rest)
    return _count(derived, derived_plane.integer_form[1]) >= k - 1


@dataclass(frozen=True)
class IntersectionSurvey:
    """Empirical lower estimate of the uniform bound N(Γ); the true bound
    quantifies over all hyperplanes, which is not searchable."""
    max_roots: int
    trials: int
    seed: int
    histogram: dict = field(default_factory=dict)


def survey_intersections(curve: CurveSpec, trials: int,
                         seed: int) -> IntersectionSurvey:
    trials = exact_int(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    n = curve.dimension
    denom = 1 << 24
    best = 0
    hist: dict[int, int] = {}
    done = 0
    while done < trials:
        # the numerators of coefficients k/2²⁴, the plane's integers: the
        # common denominator does not change g's roots
        coeffs = [rng.randint(-denom, denom) for _ in range(n + 1)]
        if not any(coeffs[1:]):
            continue
        try:
            k = _count(curve, coeffs)
        except DegenerateIntersection:
            continue
        hist[k] = hist.get(k, 0) + 1
        best = max(best, k)
        done += 1
    return IntersectionSurvey(max_roots=best, trials=trials, seed=seed,
                              histogram=hist)
