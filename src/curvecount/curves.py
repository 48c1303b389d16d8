"""Parameterized curves with exact derivative jets, Wronskians, and
non-degeneracy certification.

Two coordinate-function representations cover every supported curve kind:

* ``PolyCoord`` -- a rational polynomial in the parameter t.  Jets of every
  order are exact.
* ``TrigCoord`` -- a polynomial in (u, v) = (cos 2πt, sin 2πt) with rational
  coefficients and an explicit power of 2π in front.  Differentiation maps
  u -> -2πv, v -> 2πu, so each derivative stays in the same class with the
  2π power bumped by one; only the final evaluation is floating point.
  Terms are kept reduced modulo cos² = 1 - sin² (u-exponent 0 or 1), which
  turns function identities like u² + v² = 1 into exact dictionary algebra.

Both classes are closed under differentiation and products, so every curve and
every monomial lift of a planar curve is C^∞: jets of any order exist, and no
smoothness order is declared or checked.

Each class has one float evaluator, ``evalf``, which takes a float or a numpy
array of parameters and returns bit-identical values either way.  ``eval``
(float branch) and ``eval_array`` are built on it, and ``error_estimate``
bounds its error.  ``TrigCoord.half_angle`` is the rational form in s = tan πt,
and ``half_angle_ranges`` gives a domain's s-ranges, its ends bracketed exactly.

The Wronskian W(γ₁',…,γₙ') -- the n×n determinant whose i-th row is the i-th
derivative vector -- is computed once as an exact coordinate function, by
interpolation from integer determinants at rational nodes, and then evaluated.
No float enters, so a degenerate lift comes out as W ≡ 0, where a float
determinant of jet samples would be roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, reduce

import numpy as np

from . import polys
from .polys import Poly

TAU = math.tau  # 2π
_U = 2.0 ** -53   # unit roundoff of float64

POLYNOMIAL_KINDS = ("moment", "polynomial-parametric", "polynomial-graph")
CURVE_KINDS = POLYNOMIAL_KINDS + ("circle-arc", "lifted")


class CurveError(ValueError):
    pass


class DomainError(CurveError):
    """Parameter outside the curve's domain."""


class InvalidCurveError(CurveError):
    """Ill-formed curve construction."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("exact rational expected, got float")
    return Fraction(x)


# ---------------------------------------------------------------------------
# Coordinate functions
# ---------------------------------------------------------------------------

class PolyCoord:
    """One curve coordinate as an exact polynomial in t."""

    __slots__ = ("coeffs", "_floats")
    exact = True

    def __init__(self, coeffs):
        self.coeffs: Poly = coeffs if isinstance(coeffs, tuple) else polys.poly(coeffs)
        self._floats = None

    def derivative(self) -> "PolyCoord":
        return PolyCoord(polys.derivative(self.coeffs))

    def eval(self, t):
        if isinstance(t, float):
            return self.evalf(t)
        return polys.eval_exact(self.coeffs, t)

    def evalf(self, t):
        """p(t) in floats by Horner on the coefficients, converted to floats
        once; t is a float, or a numpy array evaluated elementwise."""
        cs = self._floats
        if cs is None:
            cs = self._floats = [float(c) for c in reversed(self.coeffs)]
        acc = 0.0
        for c in cs:
            acc = acc * t + c
        return acc

    def sup_abs(self, lo, hi) -> float:
        return polys.sup_bound(self.coeffs, lo, hi)

    def error_estimate(self, lo, hi) -> float:
        # float Horner on rational coefficients: a few ulps of the sup bound
        return 4.0 * len(self.coeffs) * 2.3e-16 * self.sup_abs(lo, hi)

    def is_zero(self) -> bool:
        return polys.is_zero(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, PolyCoord) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"PolyCoord({self.coeffs!r})"


def _reduce_trig(terms: dict) -> dict:
    """Rewrite u^a v^b with a ≥ 2 via u² = 1 - v²; drop zero coefficients."""
    out: dict = {}
    stack = list(terms.items())
    while stack:
        (a, b), c = stack.pop()
        if c == 0:
            continue
        if a >= 2:
            stack.append(((a - 2, b), c))
            stack.append(((a - 2, b + 2), -c))
        else:
            key = (a, b)
            acc = out.get(key, 0) + c
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


class TrigCoord:
    """One curve coordinate as (2π)^k times a reduced polynomial in
    (cos 2πt, sin 2πt)."""

    __slots__ = ("terms", "tau_power", "_floats")
    exact = False

    def __init__(self, terms: dict, tau_power: int = 0):
        self.terms = _reduce_trig({k: _as_fraction(v) for k, v in terms.items()})
        self.tau_power = tau_power
        self._floats = None

    def derivative(self) -> "TrigCoord":
        out: dict = {}
        for (a, b), c in self.terms.items():
            if a:
                key = (a - 1, b + 1)
                out[key] = out.get(key, 0) - a * c
            if b:
                key = (a + 1, b - 1)
                out[key] = out.get(key, 0) + b * c
        return TrigCoord(out, self.tau_power + 1)

    def eval(self, t) -> float:
        return self.evalf(float(t))

    def evalf(self, t, circle=None):
        """Σ c·u^a·v^b over the sorted terms, times (2π)^k, in floats, with the
        coefficients converted once; t is a float or a numpy array evaluated
        elementwise, and ``circle`` is its ``_on_circle(t)`` when a row of
        coordinates shares one."""
        if self._floats is None:
            self._floats = (sorted((a, b, float(c)) for (a, b), c in self.terms.items()),
                            TAU ** self.tau_power)
        terms, scale = self._floats
        u, v, power = circle or _on_circle(t)
        acc = 0.0
        for a, b, c in terms:
            term = c
            if a:
                term *= u
            if b > 1:
                term *= power(b)
            elif b:
                term *= v
            acc += term
        return acc * scale

    def sup_abs(self, lo, hi) -> float:
        total = sum(abs(float(c)) for c in self.terms.values())
        return total * TAU ** self.tau_power

    def error_estimate(self, lo, hi) -> float:
        """A bound on |evalf(t) − f(t)| for float t in [lo, hi]: 2πt is off by
        at most 4π·u·|t|, and cos and sin are taken to be within 4 ulps of
        its, so û, v̂ are within ε = (4π·max(|lo|, |hi|) + 8)·u of u, v, and
        as |u|, |v| ≤ 1 a degree-k monomial within (1 + ε)^k − 1 of its value.
        float(c), the products and the power round a term by ≤ 7u relative,
        the m additions by u·Σ|terms| each, and (2π)^k by (k + 2)u."""
        if not self.terms:
            return 0.0
        eps = (4 * math.pi * max(abs(float(lo)), abs(float(hi))) + 8) * _U
        grow = math.expm1(max(a + b for a, b in self.terms) * math.log1p(eps))
        rel = grow + (len(self.terms) + 9 + self.tau_power) * _U * (1 + grow)
        return self.sup_abs(lo, hi) * rel * (1 + 1e-9)

    def half_angle(self) -> tuple:
        """(P, B) for a nonzero f, its 2π power aside: P = (1 + s²)^D·f(u, v),
        D the largest a + b, is rational in s = tan πt, its real roots are
        the roots t ≠ ½ of f, and each has |s| < B (Cauchy's bound)."""
        d = max(a + b for a, b in self.terms)
        p = polys.ZERO
        for (a, b), c in self.terms.items():
            term = polys.mul(polys.power(_HALF_U, a), polys.power(_HALF_V, b))
            p = polys.add(p, polys.scale(polys.mul(term, polys.power(_HALF_W, d - a - b)), c))
        return p, 1 + math.ceil(max((abs(c) for c in p[:-1]), default=0) / abs(p[-1]))

    def at_half(self) -> Fraction:
        """f at t = ½, where (u, v) = (−1, 0), its 2π power aside."""
        return sum((-c if a else c) for (a, b), c in self.terms.items() if not b)

    def is_zero(self) -> bool:
        return not self.terms

    @classmethod
    def _reduced(cls, terms: dict, tau_power: int) -> "TrigCoord":
        """Wrap terms that are already reduced, nonzero Fractions."""
        out = object.__new__(cls)
        out.terms, out.tau_power, out._floats = terms, tau_power, None
        return out

    def mul(self, other: "TrigCoord") -> "TrigCoord":
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return TrigCoord._reduced(_reduce_trig(out), self.tau_power + other.tau_power)

    # add only drops zero terms.  It lists the terms in reverse, the order
    # _reduce_trig's stack gives, because sup_abs sums in dict order and its
    # float must not change.

    def add(self, other: "TrigCoord") -> "TrigCoord":
        if self.tau_power != other.tau_power and self.terms and other.terms:
            raise ValueError("cannot add trig coordinates of different 2π powers")
        tau = self.tau_power if self.terms else other.tau_power
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return TrigCoord._reduced({k: c for k, c in reversed(out.items()) if c}, tau)

    def __eq__(self, other):
        return (isinstance(other, TrigCoord) and self.terms == other.terms
                and (self.tau_power == other.tau_power or not self.terms))

    def __repr__(self):
        return f"TrigCoord({self.terms!r}, tau_power={self.tau_power})"


# u = (1 − s²)/(1 + s²) and v = 2s/(1 + s²) at s = tan πt, times (1 + s²)
_HALF_U = polys.poly([1, 0, -1])
_HALF_V = polys.poly([0, 2])
_HALF_W = polys.poly([1, 0, 1])


def _tan_bracket(P: Poly, x: Fraction) -> tuple:
    """(a, b, k) for x in [0, 1] other than ½: rationals a ≤ tan πx ≤ b whose
    roots of P are tan πx alone when k = 1 and none when k = 0; k is None
    when neither floats nor tan's polynomial can tell.

    θ = fl(π·fl(x)) is within e = 4u·θ of πx (three roundings), math.tan is
    taken to be within 4 ulps of tan θ, and on [θ − e, θ + e] tan moves by
    at most e/c², c = |cos θ| − e = (1 + tan²θ)^(−1/2) − e.  A bracket with a
    root of P is narrowed on the signs of Q = Im (1 + is)^n, x = j/n in
    lowest terms, n ≤ 64, whose roots are the tan πi/n: its one root there
    is tan πx, a root of P exactly when of gcd(P, Q).
    """
    theta = math.pi * float(x)
    s = math.tan(theta)
    if 4 % x.denominator == 0:   # tan πx is 0 or ±1, and irrational at any other x
        s = Fraction(round(s))
        return s, s, 0 if polys.eval_exact(P, s) else 1
    e = 4 * _U * theta
    c = (1 - 1e-9) / math.sqrt(1 + (abs(s) * (1 + 1e-9)) ** 2) - e
    if c <= 0:
        return Fraction(s), Fraction(s), None
    r = Fraction((e / (c * c) + 8 * _U * abs(s)) * (1 + 1e-9))
    a, b = Fraction(s) - r, Fraction(s) + r
    if not polys.count_roots_closed(P, a, b):
        return a, b, 0
    n = x.denominator
    Q = polys.poly((-1) ** (i // 2) * math.comb(n, i) if i % 2 else 0
                   for i in range(n + 1)) if n <= 64 else polys.ZERO
    if not Q or polys.count_roots_closed(Q, a, b) != 1:
        return a, b, None
    k = 1 if polys.count_roots_closed(polys.gcd(P, Q), a, b) else 0
    qa = polys.eval_exact(Q, a)
    while polys.count_roots_closed(P, a, b) > k:
        m = (a + b) / 2
        qm = polys.eval_exact(Q, m)
        a, b, qa = (m, b, qm) if (qa > 0) == (qm > 0) else (a, m, qa)
    return a, b, k


def half_angle_ranges(P: Poly, B: int, lo: Fraction, hi: Fraction) -> tuple:
    """(ends, ranges, sure) for the roots s = tan πt of P at t ≠ ½ in [lo, hi]:
    the ends x ≠ ½ with P(tan πx) = 0, and open s-ranges that hold the others
    and no root from outside: (tan πlo, tan πhi), or (tan πlo, B) and
    (−B, tan πhi) around ½ (B > |s| at P's roots) less a side an end at ½
    leaves out, each finite end moved past its ``_tan_bracket``.  sure is
    False when an end cannot be bracketed; its range then takes it in."""
    br = {x: _tan_bracket(P, x) for x in {lo, hi} - {Fraction(1, 2)}}
    first = br[lo][0 if br[lo][2] is None else 1] if lo in br else None
    last = br[hi][1 if br[hi][2] is None else 0] if hi in br else None
    ranges = ([(first, last)] if not lo <= Fraction(1, 2) <= hi else
              [r for r, x in (((first, B), lo), ((-B, last), hi)) if x in br])
    return (sorted(x for x, (_, _, k) in br.items() if k), ranges,
            all(k is not None for _, _, k in br.values()))


def _on_circle(t) -> tuple:
    """(u, v) = (cos 2πt, sin 2πt) and b ↦ v^b, for a float t (math cos/sin)
    or a numpy array (numpy cos/sin, and each power computed once)."""
    x = TAU * t
    if not isinstance(t, np.ndarray):
        v = math.sin(x)
        return math.cos(x), v, v.__pow__
    v = np.sin(x)
    return np.cos(x), v, cache(partial(_elementwise_pow, v))


def _elementwise_pow(v: np.ndarray, b: int) -> np.ndarray:
    """v ** b with Python's float power: numpy's vectorized power may round
    differently, and the array path must match the scalar one bit for bit."""
    return np.array([x ** b for x in v.ravel().tolist()]).reshape(v.shape)


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

class CurveSpec:
    """A parameterized curve in R^n with derivative jets of every order.

    Immutable after construction; the derivative table and the symbolic
    Wronskian are cached lazily (pure functions of the curve).  A lift
    records its (base curve, monomial set) in ``lift_origin`` so it can be
    serialized and rebuilt exactly.
    """

    def __init__(self, kind: str, coords, domain=(0, 1), lift_origin=None):
        coords = tuple(coords)
        if kind not in CURVE_KINDS:
            raise InvalidCurveError(f"unknown curve kind {kind!r}")
        if len(coords) < 1:
            raise InvalidCurveError("curve needs at least one coordinate")
        if not (all(isinstance(c, PolyCoord) for c in coords)
                or all(isinstance(c, TrigCoord) for c in coords)):
            raise InvalidCurveError("coordinate representations must be homogeneous")
        lo, hi = (_as_fraction(domain[0]), _as_fraction(domain[1]))
        if not (0 <= lo < hi <= 1):
            raise InvalidCurveError("domain must satisfy 0 <= t_lo < t_hi <= 1")
        self.kind = kind
        self.coords = coords
        self.domain = (lo, hi)
        self.lift_origin = lift_origin
        self._deriv_table = [list(coords)]
        self._wronskian_sym = None

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def is_exact(self) -> bool:
        return all(c.exact for c in self.coords)

    @property
    def is_graph_form(self) -> bool:
        c0 = self.coords[0]
        return isinstance(c0, PolyCoord) and c0.coeffs == (Fraction(0), Fraction(1))

    def derivatives(self, order: int):
        """Rows 0..order of coordinate derivative functions (row k is γ^(k))."""
        while len(self._deriv_table) <= order:
            self._deriv_table.append([c.derivative() for c in self._deriv_table[-1]])
        return self._deriv_table[: order + 1]

    def contains_parameter(self, t) -> bool:
        lo, hi = self.domain
        if isinstance(t, float):
            return float(lo) - 1e-12 <= t <= float(hi) + 1e-12
        return lo <= Fraction(t) <= hi

    def __repr__(self):
        return (f"CurveSpec(kind={self.kind!r}, n={self.dimension}, "
                f"domain=({self.domain[0]}, {self.domain[1]}))")


@dataclass(frozen=True)
class Jet:
    """Point and derivative rows γ^(1)..γ^(k) of a curve at one parameter."""
    point: tuple
    derivatives: tuple
    arithmetic_mode: str  # 'exact' or 'floating'
    error_estimate: float = 0.0


@dataclass(frozen=True)
class NondegeneracyCertificate:
    min_sampled_wronskian: float
    claimed_lower_bound: float
    grid_resolution: int
    margin_estimate: float
    status: str  # 'certified' | 'sampled-only' | 'failed'
    exact: bool = False


# -- constructors -----------------------------------------------------------

def moment_curve(n: int) -> CurveSpec:
    """The moment curve (t, t², …, tⁿ) on [0, 1]."""
    if n < 2:
        raise InvalidCurveError("moment curve needs dimension n >= 2")
    coords = [PolyCoord((Fraction(0),) * j + (Fraction(1),)) for j in range(1, n + 1)]
    return CurveSpec("moment", coords)


def polynomial_curve(coeff_lists, domain=(0, 1),
                     kind="polynomial-parametric") -> CurveSpec:
    """Parametric polynomial curve from per-coordinate coefficient lists."""
    coords = [PolyCoord(polys.poly(cs)) for cs in coeff_lists]
    return CurveSpec(kind, coords, domain)


def graph_curve(f_coeff_lists, domain=(0, 1)) -> CurveSpec:
    """Graph-form curve (t, f₂(t), …, fₙ(t)) from the coefficients of the fᵢ."""
    coords = [PolyCoord((Fraction(0), Fraction(1)))]
    coords += [PolyCoord(polys.poly(cs)) for cs in f_coeff_lists]
    return CurveSpec("polynomial-graph", coords, domain)


def parabola(domain=(0, 1)) -> CurveSpec:
    """The model planar curve (t, t²)."""
    return graph_curve([[0, 0, 1]], domain)


def circle_arc(t_lo=0, t_hi=1) -> CurveSpec:
    """The arc t ↦ (cos 2πt, sin 2πt) for t in [t_lo, t_hi] ⊆ [0, 1]."""
    coords = [TrigCoord({(1, 0): 1}), TrigCoord({(0, 1): 1})]
    return CurveSpec("circle-arc", coords, (t_lo, t_hi))


def line_segment(p, q) -> CurveSpec:
    """The segment from p to q parameterized over [0, 1]."""
    p = [_as_fraction(x) for x in p]
    q = [_as_fraction(x) for x in q]
    if len(p) != len(q):
        raise InvalidCurveError("endpoint dimensions differ")
    coords = [PolyCoord((a, b - a)) for a, b in zip(p, q)]
    return CurveSpec("polynomial-parametric", coords)


# -- jets and Wronskians ----------------------------------------------------

def eval_jet(curve: CurveSpec, t, order: int) -> Jet:
    """γ(t) together with derivative rows γ^(1)(t)…γ^(order)(t).

    Exact rational arithmetic whenever the curve is polynomial and t is
    rational; floating otherwise, with a roundoff magnitude estimate.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if not curve.contains_parameter(t):
        raise DomainError(f"parameter {t} outside domain {curve.domain}")
    exact = curve.is_exact and not isinstance(t, float)
    table = curve.derivatives(order)
    tv = _as_fraction(t) if exact else float(t)
    rows = [tuple(fn.eval(tv) for fn in row) for row in table]
    err = 0.0
    if not exact:
        lo, hi = curve.domain
        err = max(fn.error_estimate(lo, hi) for row in table for fn in row)
    return Jet(point=rows[0], derivatives=tuple(rows[1:]),
               arithmetic_mode="exact" if exact else "floating",
               error_estimate=err)


def wronskian_symbolic(curve: CurveSpec):
    """The Wronskian W(γ₁',…,γₙ') as an exact coordinate function of t: the
    rows are γ^(1)…γ^(n), and W, of known degree, is interpolated from
    integer determinants at rational nodes, the columns cleared of
    denominators."""
    if curve._wronskian_sym is None:
        build = _poly_wronskian if curve.is_exact else _trig_wronskian
        curve._wronskian_sym = build(*curve.derivatives(curve.dimension))
    return curve._wronskian_sym


def _integer_rows(rows, terms):
    """rows as integer {key: coefficient} dicts, with each column times the
    lcm of its denominators; and the product of those lcms."""
    cols, den = [], 1
    for col in zip(*([terms(fn) for fn in row] for row in rows)):
        L = math.lcm(*(c.denominator for entry in col for c in entry.values()))
        cols.append([{k: c.numerator * (L // c.denominator) for k, c in entry.items()}
                     for entry in col])
        den *= L
    return list(zip(*cols)), den


def _poly_wronskian(coords, *rows) -> PolyCoord:
    """Entry (k, j) has degree deg γⱼ − k, so W has degree at most
    d = Σⱼ (deg γⱼ − j) and its values at 0…d fix it (W ≡ 0 if d < 0)."""
    xs = range(sum(polys.degree(fn.coeffs) - j for j, fn in enumerate(coords, 1)) + 1)
    rows, den = _integer_rows(rows, lambda fn: dict(enumerate(fn.coeffs)))
    ys = [polys.det_fraction([[sum(c * x ** i for i, c in e.items()) for e in row]
                              for row in rows]) / den for x in xs]
    return PolyCoord(polys.interpolate(xs, ys))


def _trig_wronskian(coords, *rows) -> TrigCoord:
    """Entry (k, j) is (2π)^(base_j + k) times a polynomial in (u, v) of total
    degree ≤ d_j, γⱼ's, as derivatives and u² = 1 − v² never raise it.  So
    W = (2π)^Σⱼ(base_j + j)·(A(v) + u·B(v)), deg A ≤ D = Σ d_j,
    deg B < D.  At the rational points (±u, v) = (±(m² − 1), 2m)/(m² + 1),
    m = 2…D + 2, with distinct v, A = (W₊ + W₋)/2 and B = (W₊ − W₋)/2u;
    column j times (m² + 1)^d_j is integral there."""
    degs = [max((a + b for a, b in fn.terms), default=0) for fn in coords]
    rows, den = _integer_rows(rows, lambda fn: fn.terms)
    nodes = []
    for m in range(2, sum(degs) + 3):
        w, u, v = m * m + 1, m * m - 1, 2 * m
        plus, minus = (polys.det_fraction(
            [[sum(c * su ** a * v ** b * w ** (d - a - b) for (a, b), c in e.items())
              for e, d in zip(row, degs)] for row in rows]) / (den * w ** sum(degs))
            for su in (u, -u))
        nodes.append((Fraction(v, w), (plus + minus) / 2, (plus - minus) * w / (2 * u)))
    vs, evens, odds = zip(*nodes)
    terms = {(a, b): c for a, ys in enumerate((evens, odds))
             for b, c in enumerate(polys.interpolate(vs, ys)) if c}
    return TrigCoord._reduced(terms, sum(fn.tau_power + j for j, fn in enumerate(coords, 1)))


def wronskian(curve: CurveSpec, t):
    """W(Γ)(t); exact Fraction for polynomial curves at rational t."""
    if not curve.contains_parameter(t):
        raise DomainError(f"parameter {t} outside domain {curve.domain}")
    return wronskian_symbolic(curve).eval(t)


def certify_nondegenerate(curve: CurveSpec, c0, grid: int) -> NondegeneracyCertificate:
    """Certify |W| > c0 on the whole domain.

    For exact polynomial curves the answer is exact at any c0: |W| > c0 on
    [lo, hi] exactly when |W(lo)| > c0 and neither W − c0 nor W + c0 has a
    root in [lo, hi], which the Sturm root counter decides.  The
    certificate is then ``certified`` with ``exact=True`` and margin 0, or
    ``failed``.

    Other curves sample |W| on grid+1 equispaced parameters and are
    ``certified`` if the sampled minimum clears the finite-difference
    margin, ``sampled-only`` if it does not.  Every curve fails if a sample
    has |W| ≤ c0.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    c0f = _as_fraction(c0) if not isinstance(c0, float) else c0
    if c0f < 0:
        raise ValueError("c0 must be >= 0")
    lo, hi = curve.domain
    w = wronskian_symbolic(curve)
    exact_vals = curve.is_exact
    ts = [lo + (hi - lo) * Fraction(i, grid) for i in range(grid + 1)]
    vals = [w.eval(t) if exact_vals else w.eval(float(t)) for t in ts]
    abs_vals = [abs(v) for v in vals]
    min_s = min(abs_vals)
    margin = max((abs(b - a) for a, b in zip(vals, vals[1:])), default=0)

    def cert(status, exact=False):
        return NondegeneracyCertificate(
            min_sampled_wronskian=float(min_s),
            claimed_lower_bound=float(c0f),
            grid_resolution=grid,
            margin_estimate=0.0 if exact else float(margin),
            status=status,
            exact=exact,
        )

    if any(v <= c0f for v in abs_vals):
        return cert("failed")
    if exact_vals:
        # the samples include W(lo), with |W(lo)| > c0 ≥ 0, so W ± c0 ≠ 0
        c = Fraction(c0f)
        clear = all(polys.count_roots_closed(polys.sub(w.coeffs, (s,)), lo, hi) == 0
                    for s in {c, -c})
        return cert("certified", exact=True) if clear else cert("failed")
    if min_s - margin > c0f:
        return cert("certified")
    return cert("sampled-only")


# -- transforms and bounds --------------------------------------------------

def translate_curve(curve: CurveSpec, vector) -> CurveSpec:
    """Translate the curve by an exact rational vector."""
    vec = [_as_fraction(x) for x in vector]
    if len(vec) != curve.dimension:
        raise InvalidCurveError("translation dimension mismatch")
    out = []
    for fn, c in zip(curve.coords, vec):
        if isinstance(fn, PolyCoord):
            out.append(PolyCoord(polys.add(fn.coeffs, polys.poly([c]))))
        else:
            out.append(fn.add(TrigCoord({(0, 0): c}, fn.tau_power)))
    kind = curve.kind if not curve.is_exact else "polynomial-parametric"
    return CurveSpec(kind, out, curve.domain)


def derivative_sup_bound(curve: CurveSpec, order: int) -> float:
    """Upper bound for sup |γ^(order)(t)| over the domain (Euclidean norm).

    |γ^(order)|² = Σ fᵢ² is bounded as one coordinate, after the products
    are added exactly, so that terms cancel: on the circle u² + v² reduces
    to 1 and the bound is 2π.  Reducing u² = 1 − v² can raise the sum of
    |coefficients|, so the bound is the smaller of that and Σ sup|fᵢ|², its
    square root rounded up.
    """
    lo, hi = curve.domain
    row = curve.derivatives(order)[order]
    bounds = [sum(fn.sup_abs(lo, hi) ** 2 for fn in row)]
    if isinstance(row[0], PolyCoord):
        squares = [polys.mul(fn.coeffs, fn.coeffs) for fn in row]
        bounds.append(polys.sup_bound(reduce(polys.add, squares), lo, hi))
    elif len({fn.tau_power for fn in row if fn.terms}) <= 1:
        bounds.append(reduce(TrigCoord.add, (fn.mul(fn) for fn in row)).sup_abs(lo, hi))
    return math.sqrt(min(bounds)) * (1 + 1e-12)


def eval_array(curve: CurveSpec, ts: np.ndarray, order: int = 0) -> np.ndarray:
    """Vectorized evaluation of γ^(order) at a parameter array; shape (len, n).
    A trig row takes cos 2πt, sin 2πt and each power of the sine once."""
    ts = np.asarray(ts, dtype=float)
    row = curve.derivatives(order)[order]
    if isinstance(row[0], TrigCoord):
        circle = _on_circle(ts)
        cols = [fn.evalf(ts, circle) for fn in row]
    else:
        cols = [fn.evalf(ts) for fn in row]
    return np.stack([np.broadcast_to(c, ts.shape) for c in cols], axis=-1)
