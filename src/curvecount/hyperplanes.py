"""Curve-hyperplane intersections, the Mean Value Theorem check, and the
empirical uniform intersection bound.

A hyperplane a₁x₁+…+aₙxₙ = a₀ meets the curve where
g(t) = Σ aᵢγᵢ(t) − a₀ vanishes.  g is built on integer numerators, as a
positive multiple with the same roots: for a trigonometric curve by
``_combination``, and for a polynomial curve from the curve's plane matrix
(``CurveSpec.plane_matrix``), built once per curve, which takes a plane's
integers to g and to its Möbius transform R on the domain.  Trigonometric
curves isolate g's roots on the integer form of g in
(u, v) = (cos 2πt, sin 2πt), rewritten in s = tan πt by the half-angle
substitution and cleared of denominators, by ``polys.Roots``.  That kernel
decides an interval by Descartes' rule of signs when its transform has 0
or 1 sign variations, which is most random planes, and otherwise by the
Sturm chain of the polynomial's square-free part, built on first use, so
tangential intersections count once.

On a polynomial curve R's sign variations V decide most planes with no
kernel at all: V ≤ 1 is the number of roots inside the domain, and R's
first and last coefficients are g's values at its ends.  A survey's block
of planes is one integer matrix product (``_poly_counts``; int64 when
every product fits, Python ints otherwise), with the V of every row
counted at once.  One plane, in ``intersect`` and in ``_count``, which the
MVT check calls, is one row in Python ints (``_plane_row``): ``_count``
reads its count from R's signs, and ``intersect`` its isolating intervals,
the ends that are roots and the domain itself when V = 1, which it
refines on ``polys.Roots`` of g.  Only a plane with V ≥ 2 asks that kernel
to count or isolate, which builds its Sturm chain.

On a polynomial curve whose first coordinate is affine, x₁ = b + c·t, the
Mean Value Theorem sends k intersection parameters of a hyperplane with the
curve to at least k−1 parameters at which the curve's derivative row
(x₂′(t), …, xₙ′(t)), one dimension lower, meets the derived hyperplane
a₁·c + a₂x₂ + … + aₙxₙ = 0: the induction step behind the uniform bound.
The derivative row is a curve of its own, built with its plane matrix once
per curve (``CurveSpec.derivative_row``).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import pointsets, polys
from .curves import CurveSpec, InvalidCurveError, TrigCoord, TrigRoots
from .pointsets import exact_int, exact_point


_PLANE_BLOCK = 1 << 12   # survey: planes drawn and counted at once


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
    """A positive multiple of g = Σ aᵢγᵢ − a₀ with integer coefficients on a
    trigonometric curve, keyed by the reduced (a, b) of u^a·v^b and without
    zero terms.  ``plane`` is the integers (n₀, n₁, …, nₙ), aᵢ = nᵢ/q for
    some q > 0, as ``Hyperplane.integer_form`` holds them.

    With γᵢ = eᵢ/dᵢ (the ``integer_form`` of each coordinate) and D the lcm
    of the dᵢ with nᵢ ≠ 0, it is q·D·g = Σ nᵢ·(D/dᵢ)·eᵢ − n₀·D.  A
    positive multiple has the same roots and signs, the same primitive
    Sturm chain, Cauchy bound and zero test at t = ½.
    """
    if any(c.tau_power for c in curve.coords):
        raise HyperplaneError("a coordinate carries a power of 2π; g is not rational")
    n0, *ns = plane
    forms = [(n, coord.integer_form) for n, coord in zip(ns, curve.coords) if n]
    D = math.lcm(*(d for _, (d, _) in forms))
    g = {(0, 0): -n0 * D}
    for n, (d, e) in forms:
        s = n * (D // d)
        for key, c in e.items():
            g[key] = g.get(key, 0) + s * c
    g = {key: c for key, c in g.items() if c}
    if not g:
        raise DegenerateIntersection("curve is contained in the hyperplane")
    return g


def _poly_counts(matrix: tuple, lo: Fraction, hi: Fraction, planes: list,
                 bound: int) -> list[int]:
    """The number of distinct roots in [lo, hi] of g, for each plane
    (n₀, …, nₙ) within ±bound whose g is not ≡ 0, in order, by one integer
    matrix product: ``matrix`` is the columns of ``CurveSpec.plane_matrix``
    on [lo, hi], which take a plane's integers to g and its Möbius
    transform R.  A plane whose R has V ≤ 1 sign variations has
    z_lo + z_hi + V roots, z the ends where g vanishes (Descartes' rule of
    signs); only a plane with V ≥ 2 builds the Sturm chain of its g, by
    ``polys.Roots``.
    """
    w = len(matrix) // 2
    # every product lies within ±bound times the largest column sum of |M|
    reach = max(sum(map(abs, col)) for col in matrix)
    dtype = pointsets._dtype(bound * reach)
    y = np.array(planes, dtype=dtype) @ np.array(matrix, dtype=dtype).T
    y = y[(y[:, :w] != 0).any(axis=1)]
    signs = np.sign(y[:, w:])
    # V: the zeros moved past the signs, in order, and neighbours compared
    packed = np.take_along_axis(
        signs, np.argsort(signs == 0, axis=1, kind="stable"), axis=1)
    v = (packed[:, 1:] * packed[:, :-1] < 0).sum(axis=1)
    ks = (v + (signs[:, 0] == 0) + (signs[:, -1] == 0)).tolist()
    for i in np.flatnonzero(v > 1).tolist():
        ks[i] = polys.Roots(_trimmed(y[i, :w].tolist())).closed(lo, hi)
    return ks


def _plane_row(curve: CurveSpec, plane: tuple) -> tuple[list[int], list[int], int]:
    """g, without trailing zeros, R and R's sign variations V for one
    plane's integers on a polynomial curve: one row of the curve's plane
    matrix product, in Python ints.  g ≡ 0 raises DegenerateIntersection."""
    y = [sum(map(operator.mul, plane, col)) for col in curve.plane_matrix()]
    w = len(y) // 2
    return _trimmed(y[:w]), y[w:], polys._sign_changes(y[w:])


def _trimmed(g: list[int]) -> list[int]:
    """g's coefficients without trailing zeros; g ≡ 0 raises
    DegenerateIntersection."""
    while g and not g[-1]:
        g.pop()
    if not g:
        raise DegenerateIntersection("curve is contained in the hyperplane")
    return g


def _check_dimension(curve: CurveSpec, plane: tuple) -> None:
    if len(plane) != curve.dimension + 1:
        raise HyperplaneError("hyperplane dimension does not match the curve")


def intersect(curve: CurveSpec, plane: Hyperplane) -> RootList:
    """Parameters t in the domain with γ(t) ∈ H.

    Polynomial curves read g and its Möbius transform R on the domain from
    one row of the curve's plane matrix (``_plane_row``).  When R has V ≤ 1
    sign variations, R's signs give the isolating intervals, as
    ``polys.Roots.isolate`` would: each end where g vanishes (R's first or
    last coefficient is 0), and the domain itself when V = 1, which holds
    exactly one root.  Only V ≥ 2 isolates by ``polys.Roots``.  Trigonometric
    curves take the roots of g on the domain from ``TrigRoots``: the roots
    s of the half-angle polynomial mapped to t = atan(s)/π mod 1, the
    domain's ends bracketed exactly and kept when they are roots, and
    t = ½.  Either route builds at most one root kernel (``polys.Roots``)
    for its polynomial, and isolation, refinement and the end brackets
    share it.  Both routes are exact; only an end that cannot be bracketed
    clears ``certified``.
    """
    ints = plane.integer_form[1]
    _check_dimension(curve, ints)
    if not curve.is_exact:
        kernel = TrigRoots(TrigCoord(_combination(curve, ints)), *curve.domain)
        return RootList(roots=tuple(kernel.params()), certified=kernel.sure)
    g, R, v = _plane_row(curve, ints)
    lo, hi = curve.domain
    if v < 2:
        ivs = [(lo, lo)] * (not R[0]) + [(lo, hi)] * v + [(hi, hi)] * (not R[-1])
        roots = polys.Roots(g) if v else None
    else:
        roots = polys.Roots(g)
        ivs = roots.isolate(lo, hi)
    return RootList(roots=tuple(float(a) if a == b else roots.refine(a, b)
                                for a, b in ivs), certified=True)


def _counts(curve: CurveSpec, planes: list, bound: int) -> list[int]:
    """The number of distinct intersections with the curve of each plane,
    given by integers (n₀, …, nₙ) within ±bound, that does not contain the
    curve, in order: one matrix product for a polynomial curve
    (``_poly_counts``), one ``_count`` per plane for a trigonometric one."""
    if curve.is_exact:
        return _poly_counts(curve.plane_matrix(), *curve.domain, planes, bound)
    ks = []
    for plane in planes:
        try:
            ks.append(_count(curve, plane))
        except DegenerateIntersection:
            continue
    return ks


def _count(curve: CurveSpec, plane: tuple) -> int:
    """``len(intersect(curve, H))`` by root counts, with no root isolated or
    refined, for H's integers (n₀, …, nₙ).  A polynomial curve reads the
    same row as ``intersect``: z_lo + z_hi + V when R has V ≤ 1 sign
    variations, and ``polys.Roots(g).closed`` otherwise; a trigonometric
    one counts by ``TrigRoots``."""
    _check_dimension(curve, plane)
    if not curve.is_exact:
        return TrigRoots(TrigCoord(_combination(curve, plane)), *curve.domain).count()
    g, R, v = _plane_row(curve, plane)
    if v > 1:
        return polys.Roots(g).closed(*curve.domain)
    return v + (not R[0]) + (not R[-1])


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
    derived = curve.derivative_row()
    # H' times q·c_den > 0, for aᵢ = nᵢ/q and c = c_num/c_den, c = x₁′ ≠ 0
    c = curve.derivatives(1)[1][0].coeffs[0]
    n1, *rest = plane.integer_form[1][1:]
    if not any(rest):
        raise HyperplaneError("normal coefficients a1..an must not all vanish")
    derived_plane = (-n1 * c.numerator, *(n * c.denominator for n in rest))
    return _count(derived, derived_plane) >= k - 1


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
    """Count the intersections of ``trials`` random hyperplanes with the
    curve, each coefficient k/2²⁴ with k uniform in [−2²⁴, 2²⁴], skipping a
    zero normal and a plane that contains the curve.

    Planes are drawn and counted ``_PLANE_BLOCK`` = 4096 at a time
    (``_counts``).  So a survey holds at most one block in memory, its
    planes and, on a polynomial curve, their one matrix product, whatever
    ``trials`` is.
    """
    trials = exact_int(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    n = curve.dimension
    denom = 1 << 24
    hist: dict[int, int] = {}
    done = 0
    while done < trials:
        # the numerators of the coefficients, the plane's integers: the
        # common denominator does not change g's roots.  A block holds no
        # more planes than are still wanted, so no plane is drawn past the
        # last one counted.
        block = []
        while len(block) < min(trials - done, _PLANE_BLOCK):
            coeffs = [rng.randint(-denom, denom) for _ in range(n + 1)]
            if any(coeffs[1:]):
                block.append(coeffs)
        for k in _counts(curve, block, denom):
            hist[k] = hist.get(k, 0) + 1
            done += 1
    return IntersectionSurvey(max_roots=max(hist), trials=trials, seed=seed,
                              histogram=hist)
