"""Curve-hyperplane intersections, the Mean Value Theorem check, and the
empirical uniform intersection bound.

A hyperplane a₁x₁+…+aₙxₙ = a₀ meets the curve where
g(t) = Σ aᵢγᵢ(t) − a₀ vanishes.  The curve's plane matrix
(``CurveSpec.plane_matrix``), built once per curve, takes a plane's
integers to one row, a positive multiple of g in integers: g and its
Möbius transform R on the domain on a polynomial curve, and g's half-angle
form in s = tan πt on a trigonometric one.  A survey's block of planes is
one integer matrix product for either kind (int64 when every product
fits, Python ints otherwise), and one plane, in ``intersect`` and in
``_count``, which the MVT check calls, one row in Python ints
(``_plane_row``).

On a polynomial curve R's sign variations V decide most planes with no
kernel at all: V ≤ 1 is the number of roots inside the domain, and R's
first and last coefficients are g's values at its ends.  A survey counts
the V of every row of its block at once (``_poly_counts``); ``_count``
reads its count from R's signs, and ``intersect`` its isolating
intervals, the ends that are roots and the domain itself when V = 1,
which it refines on ``polys.Roots`` of g.  Only V ≥ 2 asks that kernel to
count or isolate, which builds its Sturm chain, so tangential
intersections count once.  On a trigonometric curve every nonzero row goes
to ``curves.TrigRoots``, which answers on ``polys.Roots`` of the
half-angle form.

On a polynomial curve whose first coordinate is affine, x₁ = b + c·t, the
Mean Value Theorem sends k intersection parameters of a hyperplane with the
curve to at least k−1 parameters at which the curve's derivative row
(x₂′(t), …, xₙ′(t)), one dimension lower, meets the derived hyperplane
a₁·c + a₂x₂ + … + aₙxₙ = 0: the induction step behind the uniform bound.
The derivative row is a curve of its own, built with its plane matrix once
per curve (``CurveSpec.derivative_row``).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import pointsets, polys
from .curves import CurveSpec, InvalidCurveError, TrigRoots
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


def _block(matrix: tuple, planes: list, bound: int) -> np.ndarray:
    """The rows of a block of planes (n₀, …, nₙ) within ±bound, by one matrix
    product, int64 when every product fits and Python ints otherwise."""
    # every product lies within ±bound times the largest column sum of |M|
    reach = max(sum(map(abs, col)) for col in matrix)
    dtype = pointsets._dtype(bound * reach)
    return np.array(planes, dtype=dtype) @ np.array(matrix, dtype=dtype).T


def _poly_counts(matrix: tuple, lo: Fraction, hi: Fraction, planes: list,
                 bound: int) -> list[int]:
    """The number of distinct roots in [lo, hi] of g, for each plane
    (n₀, …, nₙ) within ±bound whose g is not ≡ 0, in order, from the rows
    of a polynomial curve's plane matrix on [lo, hi], g and its Möbius
    transform R.  A plane whose R has V ≤ 1 sign variations has
    z_lo + z_hi + V roots, z the ends where g vanishes (Descartes' rule of
    signs); only V ≥ 2 builds the Sturm chain of g, by ``polys.Roots``.
    """
    w = len(matrix) // 2
    y = _block(matrix, planes, bound)
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


def _matrix(curve: CurveSpec) -> tuple:
    """The curve's plane matrix; a trig coordinate with a power of 2π
    raises HyperplaneError, as g is then not rational in (u, v)."""
    if not curve.is_exact and any(c.tau_power for c in curve.coords):
        raise HyperplaneError("a coordinate carries a power of 2π; g is not rational")
    return curve.plane_matrix()


def _plane_row(curve: CurveSpec, plane: tuple) -> list[int]:
    """One row of the curve's plane matrix product for one plane's integers,
    in Python ints: g's half-angle form on a trigonometric curve, g and then
    R on a polynomial one.  g ≡ 0 raises DegenerateIntersection."""
    if len(plane) != curve.dimension + 1:
        raise HyperplaneError("hyperplane dimension does not match the curve")
    y = [sum(map(operator.mul, plane, col)) for col in _matrix(curve)]
    if not any(y):
        raise DegenerateIntersection("curve is contained in the hyperplane")
    return y


def _trimmed(g: list[int]) -> list[int]:
    """g's coefficients, not all 0, without trailing zeros."""
    while not g[-1]:
        g.pop()
    return g


def intersect(curve: CurveSpec, plane: Hyperplane) -> RootList:
    """Parameters t in the domain with γ(t) ∈ H, from one row of the
    curve's plane matrix (``_plane_row``).

    On a polynomial curve, when R has V ≤ 1 sign variations, R's signs give
    the isolating intervals, as ``polys.Roots.isolate`` would: each end
    where g vanishes (R's first or last coefficient is 0), and the domain
    itself when V = 1.  Only V ≥ 2 isolates by ``polys.Roots``.  On a
    trigonometric curve ``TrigRoots`` takes the roots s of the half-angle
    form to t = atan(s)/π mod 1, with the domain's ends bracketed exactly
    and kept when they are roots, and t = ½.  Either route builds at most
    one root kernel, which isolation, refinement and the end brackets
    share.  Only an end that cannot be bracketed clears ``certified``.
    """
    y = _plane_row(curve, plane.integer_form[1])
    if not curve.is_exact:
        kernel = TrigRoots(y, *curve.domain)
        return RootList(roots=tuple(kernel.params()), certified=kernel.sure)
    w = len(y) // 2
    g, R = _trimmed(y[:w]), y[w:]
    v = polys._sign_changes(R)
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
    curve, in order, from one matrix product: by ``_poly_counts`` on a
    polynomial curve, and on a trigonometric one by ``TrigRoots``."""
    if curve.is_exact:
        return _poly_counts(_matrix(curve), *curve.domain, planes, bound)
    return [TrigRoots(row, *curve.domain).count()
            for row in _block(_matrix(curve), planes, bound).tolist() if any(row)]


def _count(curve: CurveSpec, plane: tuple) -> int:
    """``len(intersect(curve, H))`` by root counts, with no root isolated or
    refined, for H's integers (n₀, …, nₙ), from the same row as
    ``intersect``.  A polynomial curve counts z_lo + z_hi + V when R has
    V ≤ 1 sign variations, and ``polys.Roots(g).closed`` otherwise; a
    trigonometric one counts by ``TrigRoots``."""
    y = _plane_row(curve, plane)
    if not curve.is_exact:
        return TrigRoots(y, *curve.domain).count()
    w = len(y) // 2
    R = y[w:]
    v = polys._sign_changes(R)
    if v > 1:
        return polys.Roots(_trimmed(y[:w])).closed(*curve.domain)
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
    planes and their one matrix product, whatever ``trials`` is.
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
