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

Each class caches one integer form of its coefficients, ``integer_form``:
their least common denominator and the integer numerators over it.
Hyperplane combinations, the Wronskian's integer rank and determinants, the
tube's integer distance polynomials and certificate samples read it, so
exact decisions run on integers.

Each class has one float evaluator, ``evalf``, which takes a float or a numpy
array of parameters and returns bit-identical values either way.  ``eval``
(float branch) and ``eval_array`` are built on it, and ``error_estimate``
bounds its error.

A curve's plane matrix (``CurveSpec.plane_matrix``) takes a hyperplane's
integers to a positive multiple of g = Σ aᵢγᵢ − a₀: g and its Möbius
transform on the domain for polynomial coordinates, g's half-angle form in
s = tan πt for trig ones.  ``TrigRoots`` answers every root question of a
trig function on a domain from such a row, a partial arc's ends bracketed
exactly: the hyperplane counts and roots and the tube's exact distance test.

The Wronskian W(γ₁',…,γₙ') -- the n×n determinant whose i-th row is the i-th
derivative vector -- is computed once as an exact coordinate function, and
then evaluated.  One integer rank comes first: that of the first derivatives
γ′ⱼ over the coordinates' own basis, tᵏ or the reduced u^a·v^b.  Below rank
n a rational relation among the γ′ⱼ holds for every higher derivative too,
so W ≡ 0, with no determinant and no interpolation.  Correctness rests on
that direction alone; for analytic coordinates W ≡ 0 only when the γ′ⱼ are
dependent (Bôcher; Bostan and Dumas, 2010), which ensures that the rank
catches every zero W.  At full rank W is interpolated from integer
determinants at rational nodes.  No float enters, so a degenerate lift
comes out as W ≡ 0, where a float determinant of jet samples would be
roundoff.  Certification samples W at the grid points n_i/q in integers
over one denominator (``polys.eval_homogeneous``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce

import numpy as np

from . import polys
from .pointsets import parse_frac
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


# ---------------------------------------------------------------------------
# Coordinate functions
# ---------------------------------------------------------------------------

class PolyCoord:
    """One curve coordinate as an exact polynomial in t.  Its coefficients,
    constant term first, are read by ``polys.poly``: a float or a bool
    raises InexactNumber."""

    __slots__ = ("coeffs", "_floats", "_integer")
    exact = True

    def __init__(self, coeffs):
        self.coeffs: Poly = polys.poly(coeffs)
        self._floats = self._integer = None

    @property
    def integer_form(self) -> tuple:
        """(den, e): the coefficients as integers e over their least common
        denominator den (``polys.integer_form``), computed once."""
        if self._integer is None:
            den, e = polys.integer_form(self.coeffs)
            self._integer = den, tuple(e)
        return self._integer

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

    __slots__ = ("terms", "tau_power", "_floats", "_integer")
    exact = False

    def __init__(self, terms: dict, tau_power: int = 0):
        self.terms = _reduce_trig({k: parse_frac(v) for k, v in terms.items()})
        self.tau_power = tau_power
        self._floats = self._integer = None

    @property
    def integer_form(self) -> tuple:
        """(den, {(a, b): e}): the coefficients as integers e over their least
        common denominator den (``polys.integer_form``), computed once."""
        if self._integer is None:
            den, e = polys.integer_form(self.terms.values())
            self._integer = den, dict(zip(self.terms, e))
        return self._integer

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
        u, powers = circle or _on_circle(t)
        acc = 0.0
        for a, b, c in terms:
            term = c
            if a:
                term *= u
            if b:
                while len(powers) <= b:
                    powers.append(powers[-1] * powers[1])
                term *= powers[b]
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
        float(c) and the products round a term by ≤ 7u relative, and the
        b − 1 products that build v^b by (b − 1)u more; the m additions round
        by u·Σ|terms| each, and (2π)^k by (k + 2)u."""
        if not self.terms:
            return 0.0
        eps = (4 * math.pi * max(abs(float(lo)), abs(float(hi))) + 8) * _U
        grow = math.expm1(max(a + b for a, b in self.terms) * math.log1p(eps))
        products = max(0, max(b for _, b in self.terms) - 1)
        rel = grow + (len(self.terms) + 9 + products + self.tau_power) * _U * (1 + grow)
        return self.sup_abs(lo, hi) * rel * (1 + 1e-9)

    def is_zero(self) -> bool:
        return not self.terms

    @classmethod
    def _reduced(cls, terms: dict, tau_power: int) -> "TrigCoord":
        """Wrap terms that are already reduced, nonzero Fractions."""
        out = object.__new__(cls)
        out.terms, out.tau_power = terms, tau_power
        out._floats = out._integer = None
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


_IDENTITY: Poly = (Fraction(0), Fraction(1))   # the coordinate t

# u = (1 − s²)/(1 + s²) and v = 2s/(1 + s²) at s = tan πt, times (1 + s²)
_HALF_U = polys.poly([1, 0, -1])
_HALF_V = polys.poly([0, 2])
_HALF_W = polys.poly([1, 0, 1])


def _own_degree(row) -> list:
    """The row without trailing zeros, divided by 1 + s² while that is
    exact: for a half-angle form (1 + s²)^D·f, the form at f's own degree d,
    so that its Cauchy bound and every float refined on it do not depend on
    D.  The form at degree d is not 0 at s = i, where it is Σ c·2^a·(2i)^b
    over f's terms u^a·v^b of degree d, reduced to v^d and u·v^(d−1)."""
    P = list(row)
    while not P[-1]:
        P.pop()
    while len(P) > 2:
        q = P[2:]   # the quotient from the top: q_m = P_(m+2) − q_(m+2)
        for m in range(len(q) - 3, -1, -1):
            q[m] -= q[m + 2]
        if P[:2] != (q + [0])[:2]:   # a remainder
            return P
        P = q
    return P


@cache
def _half_angle_basis(a: int, b: int, d: int) -> tuple:
    """The integers of (1 − s²)^a·(2s)^b·(1 + s²)^(d−a−b), (1 + s²)^d·u^a·v^b
    in s = tan πt, low degree first."""
    term = polys.mul(polys.mul(polys.power(_HALF_U, a), polys.power(_HALF_V, b)),
                     polys.power(_HALF_W, d - a - b))
    return tuple(polys.integer_form(term)[1])


def _tan_bracket(roots: polys.Roots, x: Fraction) -> tuple:
    """(a, b, k) for x in [0, 1] other than ½: rationals a ≤ tan πx ≤ b whose
    roots of P (``roots`` is P's kernel) are tan πx alone when k = 1 and
    none when k = 0; k is None when neither floats nor tan's polynomial can
    tell.

    θ = fl(π·fl(x)) is within e = 4u·θ of πx (three roundings), math.tan is
    taken to be within 4 ulps of tan θ, and on [θ − e, θ + e] tan moves by
    at most e/c², c = |cos θ| − e = (1 + tan²θ)^(−1/2) − e.  A bracket with a
    root of P is narrowed on the signs of Q = Im (1 + is)^n, x = j/n in
    lowest terms, n ≤ 64, whose roots are the tan πi/n: its one root there
    is tan πx, a root of P exactly when of gcd(P, Q).  P's kernel serves
    every count, the narrowing loop's included, and Q's signs are read in
    integers (``polys.eval_homogeneous``).

    While math.tan keeps its 4 ulps, Q has exactly one root in the bracket:
    its roots are the tangents of angles π/n apart on one branch, where
    tan′ ≥ 1, so they lie at least π/64 apart, and with |x − ½| ≥ 1/128
    the bracket is narrower than 10⁻¹⁰.  Any other count of Q means tan
    was farther off than that, and k is None.
    """
    theta = math.pi * float(x)
    s = math.tan(theta)
    if 4 % x.denominator == 0:   # tan πx is 0 or ±1, and irrational at any other x
        s = Fraction(round(s))
        return s, s, roots.closed(s, s)
    e = 4 * _U * theta
    c = (1 - 1e-9) / math.sqrt(1 + (abs(s) * (1 + 1e-9)) ** 2) - e
    if c <= 0:
        return Fraction(s), Fraction(s), None
    r = Fraction((e / (c * c) + 8 * _U * abs(s)) * (1 + 1e-9))
    a, b = Fraction(s) - r, Fraction(s) + r
    if not roots.closed(a, b):
        return a, b, 0
    n = x.denominator
    if n > 64:
        return a, b, None
    # Q = Σ (−1)^(i//2)·C(n, i)·s^i over odd i ≤ n, as integers
    Q = [(-1) ** (i // 2) * math.comb(n, i) if i % 2 else 0 for i in range(n + n % 2)]
    if polys.Roots(Q).closed(a, b) != 1:
        return a, b, None
    k = 1 if polys.Roots(polys.gcd(roots.coeffs, Q)).closed(a, b) else 0
    # Q's sign at a and at each midpoint; Q has no rational root there
    qa = polys.eval_homogeneous(Q, a.numerator, a.denominator) > 0
    while roots.closed(a, b) > k:
        m = (a + b) / 2
        qm = polys.eval_homogeneous(Q, m.numerator, m.denominator) > 0
        a, b, qa = (m, b, qm) if qa == qm else (a, m, qa)
    return a, b, k


_HALF = Fraction(1, 2)


class TrigRoots:
    """The roots t in [lo, hi] of a nonzero f in (u, v) = (cos 2πt, sin 2πt),
    its 2π power aside, on one root kernel.  ``row`` is a nonzero row of a
    trig curve's plane matrix: the integers of a positive multiple of
    (1 + s²)^D·f in s = tan πt, D ≥ deg f, whose last entry, the coefficient
    of s^(2D), is a positive multiple of f(−1, 0).  The kernel is
    ``polys.Roots`` of P, the row trimmed and at f's own degree
    (``_own_degree``), whose roots are the s = tan πt of the roots t ≠ ½.

    The domain's ends x ≠ ½ are bracketed exactly (``_tan_bracket``); an end
    with P(tan πx) = 0 is a root as it is, and the other roots lie in open
    s-ranges that hold no root from outside: (tan πlo, tan πhi), or
    (tan πlo, ∞) and (−∞, tan πhi) around ½, less a side an end at ½ leaves
    out, each finite end moved past its bracket and each range clipped to
    (−B, B), B the Cauchy bound of P, which holds every root.
    t = ½ (s = ∞) is a root exactly when the row's last entry is 0.  ``sure``
    is False when an end cannot be bracketed; its range then takes it in.
    Counts, isolation, refinement and the brackets share the one kernel.

    The full circle [0, 1] brackets nothing: tan πt is 0 at both ends, and
    its s-ranges are the half-lines (0, B) and (−B, 0).  One whose sign
    variations V, of P(s) or P(−s), are at most 1 holds V roots (Descartes'
    rule of signs); only V ≥ 2 asks the kernel.
    """

    def __init__(self, row, lo: Fraction, hi: Fraction):
        P = _own_degree(row)
        self._bound = B = 1 + -(-max(map(abs, P[:-1]), default=0) // abs(P[-1]))
        self._roots = roots = polys.Roots(P)
        # f(−1, 0), f at t = ½, times the row's scale, or None when the
        # domain does not hold ½
        self._half = row[-1] if lo <= _HALF <= hi else None
        if (lo, hi) == (0, 1):
            # the ends are roots when P(0) = 0; None leaves V ≥ 2 to the kernel
            self._ends, self.sure = [lo, hi] * (not P[0]), True
            self._ranges = [(0, B), (-B, 0)]
            self._known = [v if v < 2 else None for v in map(polys._sign_changes, (
                P, [-c if i % 2 else c for i, c in enumerate(P)]))]
            return
        br = {x: _tan_bracket(roots, x) for x in {lo, hi} - {_HALF}}
        first = br[lo][0 if br[lo][2] is None else 1] if lo in br else None
        last = br[hi][1 if br[hi][2] is None else 0] if hi in br else None
        self._ends = sorted(x for x, (_, _, k) in br.items() if k)
        self.sure = all(k is not None for _, _, k in br.values())
        if self._half is not None:
            ranges = [r for r, x in (((first, B), lo), ((-B, last), hi)) if x in br]
        else:
            ranges = [(first, last)]
        self._ranges = [(max(a, -B), min(b, B)) for a, b in ranges]
        self._known = [None] * len(self._ranges)

    def _inside(self):
        """The number of roots inside each open s-range."""
        return (self._roots.open(a, b) if k is None else k
                for k, (a, b) in zip(self._known, self._ranges))

    def count(self) -> int:
        """The number of roots: the ends that are roots, the roots inside
        each open s-range and t = ½, with none isolated or refined."""
        return len(self._ends) + sum(self._inside()) + (self._half == 0)

    def params(self) -> list:
        """The roots as sorted floats t: each end that is a root as it is,
        each root s refined to t = atan(s)/π mod 1, and ½."""
        # the ranges lie in (−B, B), so these bits put s within 2^-60
        # absolutely; |dt/ds| ≤ 1/π keeps t as close
        bits = 60 + self._bound.bit_length()
        roots = self._roots
        ts = [float(x) for x in self._ends]
        for a, b in self._ranges:
            ts += [math.atan(roots.refine(c, d, bits)) / math.pi % 1.0
                   for c, d in (roots.isolate(a, b) if a < b else ())
                   if c != d or a < c < b]   # the ranges are open
        if self._half == 0:
            ts.append(0.5)
        return sorted(ts)

    def nonpositive(self) -> bool | None:
        """Whether f ≤ 0 somewhere on [lo, hi]; None when an end that cannot
        be bracketed decides it.  f is ≤ 0 at ½, or has a root, or keeps one
        sign on the domain, which P gives at any point of its one s-range."""
        if self._half is not None and self._half <= 0:
            return True
        if self._ends or not self.sure or any(self._inside()):
            return True if self._ends or self.sure else None
        # P keeps one sign on the range: that of f(½) > 0 when it holds ½
        return (self._half is None
                and polys.eval_exact(self._roots.coeffs, self._ranges[0][0]) < 0)


def _on_circle(t) -> tuple:
    """u = cos 2πt and the powers [1, v, v², …] of v = sin 2πt, for a float t
    (math cos/sin) or a numpy array (numpy cos/sin).  evalf extends the list
    by v^b = v^(b−1)·v as far as its terms need, so each power is one float
    product, the same on either path, and is computed once per list."""
    x = TAU * t
    if not isinstance(t, np.ndarray):
        return math.cos(x), [1.0, math.sin(x)]
    return np.cos(x), [1.0, np.sin(x)]


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

class CurveSpec:
    """A parameterized curve in R^n with derivative jets of every order.

    Immutable after construction; the derivative table, the symbolic
    Wronskian, the plane matrix, the derivative-row curve and the derivative
    bounds are cached lazily (pure functions of the curve).  A lift records
    its (base curve, monomial set) in ``lift_origin`` so it can be
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
        lo, hi = (parse_frac(domain[0]), parse_frac(domain[1]))
        if not (0 <= lo < hi <= 1):
            raise InvalidCurveError("domain must satisfy 0 <= t_lo < t_hi <= 1")
        self.kind = kind
        self.coords = coords
        self.domain = (lo, hi)
        self.lift_origin = lift_origin
        self._deriv_table = [list(coords)]
        self._wronskian_sym = None
        self._plane_matrix = None
        self._derivative_row = None
        self._sup_bounds = {}

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def is_exact(self) -> bool:
        return all(c.exact for c in self.coords)

    @property
    def is_graph_form(self) -> bool:
        c0 = self.coords[0]
        return isinstance(c0, PolyCoord) and c0.coeffs == _IDENTITY

    def derivatives(self, order: int):
        """Rows 0..order of coordinate derivative functions (row k is γ^(k))."""
        while len(self._deriv_table) <= order:
            self._deriv_table.append([c.derivative() for c in self._deriv_table[-1]])
        return self._deriv_table[: order + 1]

    def plane_matrix(self) -> tuple:
        """``_plane_columns`` of the curve on its domain, built on first
        use: what hyperplane counts and roots read."""
        if self._plane_matrix is None:
            self._plane_matrix = _plane_columns(self.coords, *self.domain)
        return self._plane_matrix

    def derivative_row(self) -> CurveSpec:
        """The polynomial curve (x₂′, …, xₙ′) on the same domain, built on
        first use with its own cached plane matrix: what the MVT check
        counts its derived planes on."""
        if self._derivative_row is None:
            self._derivative_row = CurveSpec(
                "polynomial-parametric", self.derivatives(1)[1][1:], self.domain)
        return self._derivative_row

    def derivative_bound(self, order: int) -> float:
        """``derivative_sup_bound`` of the curve at ``order``, computed on
        first use: the speed and acceleration bounds every tube count reads."""
        if order not in self._sup_bounds:
            self._sup_bounds[order] = derivative_sup_bound(self, order)
        return self._sup_bounds[order]

    def contains_parameter(self, t) -> bool:
        lo, hi = self.domain
        if isinstance(t, float):
            return float(lo) - 1e-12 <= t <= float(hi) + 1e-12
        return lo <= Fraction(t) <= hi

    def __repr__(self):
        return (f"CurveSpec(kind={self.kind!r}, n={self.dimension}, "
                f"domain=({self.domain[0]}, {self.domain[1]}))")


def _plane_columns(coords, lo: Fraction, hi: Fraction) -> tuple:
    """The columns of the integer matrix that takes a hyperplane's integers
    (n₀, …, nₙ) to a positive multiple of g = Σ aᵢγᵢ − a₀, aᵢ = nᵢ/q for
    some q > 0, ≡ 0 exactly when the curve lies in the plane.

    With γᵢ = eᵢ/dᵢ the ``integer_form`` of each coordinate and L the lcm
    of all the dᵢ, g is Σ nᵢ·(L/dᵢ)·eᵢ − n₀·L.  For polynomial coordinates
    a row is g's coefficients up to the largest degree of a coordinate,
    then those of R, g's Möbius transform on (lo, hi) at that formal degree
    (``polys._mobius``); it is linear in g, so its rows are the transforms
    of g's rows.  R's constant and leading coefficients are the homogeneous
    values of g at lo and hi.  For trig coordinates a row is g's half-angle
    form (1 + s²)^D·g, D the largest degree of a term, in s = tan πt at
    formal degree 2D, which ``TrigRoots`` reads.
    """
    forms = [c.integer_form for c in coords]
    L = math.lcm(*[d for d, _ in forms])
    if not coords[0].exact:
        D = max([0] + [a + b for _, e in forms for a, b in e])
        rows = []
        for scale, e in [(-L, {(0, 0): 1})] + [(L // d, e) for d, e in forms]:
            row = [0] * (2 * D + 1)
            for (a, b), c in e.items():
                for i, x in enumerate(_half_angle_basis(a, b, D)):
                    row[i] += scale * c * x
            rows.append(row)
        return tuple(zip(*rows))
    w = max([1] + [len(e) for _, e in forms])
    rows = [[-L] + [0] * (w - 1)] + [[(L // d) * c for c in e] + [0] * (w - len(e))
                                     for d, e in forms]
    E, na, nb = polys._over(lo, hi)
    return tuple(zip(*(row + polys._mobius(row, na, nb, E) for row in rows)))


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


def polynomial_curve(coeff_lists, domain=(0, 1)) -> CurveSpec:
    """Parametric polynomial curve from per-coordinate coefficient lists."""
    coords = [PolyCoord(cs) for cs in coeff_lists]
    return CurveSpec("polynomial-parametric", coords, domain)


def graph_curve(f_coeff_lists, domain=(0, 1)) -> CurveSpec:
    """Graph-form curve (t, f₂(t), …, fₙ(t)) from the coefficients of the fᵢ."""
    coords = [PolyCoord(_IDENTITY)]
    coords += [PolyCoord(cs) for cs in f_coeff_lists]
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
    p = [parse_frac(x) for x in p]
    q = [parse_frac(x) for x in q]
    if len(p) != len(q):
        raise InvalidCurveError("endpoint dimensions differ")
    coords = [PolyCoord((a, b - a)) for a, b in zip(p, q)]
    return CurveSpec("polynomial-parametric", coords)


# -- Wronskians -------------------------------------------------------------

def wronskian_symbolic(curve: CurveSpec):
    """The Wronskian W(γ₁',…,γₙ') as an exact coordinate function of t.

    First the rank step: the first derivatives γ′ⱼ, each scaled by its
    own denominator, are rows of one integer matrix over the coordinates'
    own basis, tᵏ or the reduced u^a·v^b (``_derivative_rank``).  Below
    rank n a rational relation Σ cⱼγ′ⱼ ≡ 0 holds, and so Σ cⱼγⱼ^(k) ≡ 0
    for every k ≥ 1: the columns of W are dependent and W ≡ 0, found with
    no higher derivative, determinant or interpolation.  Only that
    direction is used for correctness; that the γ′ⱼ, being analytic, are
    independent whenever W ≢ 0 (Bôcher) only ensures that every zero W is
    caught here.  At full rank the rows are γ^(1)…γ^(n), and W, of known
    degree, is interpolated from integer determinants at rational nodes,
    the columns cleared of denominators."""
    if curve._wronskian_sym is None:
        coords, first = curve.derivatives(1)
        if _derivative_rank(first) < curve.dimension:
            curve._wronskian_sym = (PolyCoord(()) if curve.is_exact
                                    else TrigCoord._reduced({}, _tau_power(coords)))
        else:
            build = _poly_wronskian if curve.is_exact else _trig_wronskian
            curve._wronskian_sym = build(*curve.derivatives(curve.dimension))
    return curve._wronskian_sym


def _derivative_rank(row) -> int:
    """The rank of the functions in ``row`` over the rationals: that of the
    integer matrix whose j-th row is the numerators of the j-th function's
    ``integer_form``, one column per basis function tᵏ or u^a·v^b that
    occurs.  A row times its denominator keeps the rank, and the reduced
    u^a·v^b (a ≤ 1) are linearly independent functions, as the tᵏ are."""
    forms = [fn.integer_form[1] for fn in row]
    forms = [f if isinstance(f, dict) else dict(enumerate(f)) for f in forms]
    keys = set().union(*forms)
    return polys.rank_int([[f.get(k, 0) for k in keys] for f in forms])


def _integer_rows(rows, terms):
    """rows as integer {key: coefficient} dicts, ``terms`` of each entry's
    ``integer_form``, with each column times the lcm of its entries'
    denominators; and the product of those lcms."""
    cols, den = [], 1
    for col in zip(*rows):
        forms = [fn.integer_form for fn in col]
        L = math.lcm(*(d for d, _ in forms))
        cols.append([{k: c * (L // d) for k, c in terms(e)} for d, e in forms])
        den *= L
    return list(zip(*cols)), den


def _poly_wronskian(coords, *rows) -> PolyCoord:
    """Entry (k, j) has degree deg γⱼ − k, so W has degree at most
    d = Σⱼ (deg γⱼ − j) and its values at 0…d fix it (W ≡ 0 if d < 0)."""
    xs = range(sum(polys.degree(fn.coeffs) - j for j, fn in enumerate(coords, 1)) + 1)
    rows, den = _integer_rows(rows, enumerate)
    ys = [Fraction(polys.det_int([[sum(c * x ** i for i, c in e.items()) for e in row]
                                  for row in rows]), den) for x in xs]
    return PolyCoord(polys.interpolate(xs, ys))


def _trig_wronskian(coords, *rows) -> TrigCoord:
    """Entry (k, j) is (2π)^(base_j + k) times a polynomial in (u, v) of total
    degree ≤ d_j, γⱼ's, as derivatives and u² = 1 − v² never raise it.  So
    W = (2π)^Σⱼ(base_j + j)·(A(v) + u·B(v)), deg A ≤ D = Σ d_j,
    deg B < D.  At the rational points (±u, v) = (±(m² − 1), 2m)/(m² + 1),
    m = 2…D + 2, with distinct v, A = (W₊ + W₋)/2 and B = (W₊ − W₋)/2u;
    column j times (m² + 1)^d_j is integral there."""
    degs = [max((a + b for a, b in fn.terms), default=0) for fn in coords]
    rows, den = _integer_rows(rows, dict.items)
    nodes = []
    for m in range(2, sum(degs) + 3):
        w, u, v = m * m + 1, m * m - 1, 2 * m
        plus, minus = (Fraction(polys.det_int(
            [[sum(c * su ** a * v ** b * w ** (d - a - b) for (a, b), c in e.items())
              for e, d in zip(row, degs)] for row in rows]), den * w ** sum(degs))
            for su in (u, -u))
        nodes.append((Fraction(v, w), (plus + minus) / 2, (plus - minus) * w / (2 * u)))
    vs, evens, odds = zip(*nodes)
    terms = {(a, b): c for a, ys in enumerate((evens, odds))
             for b, c in enumerate(polys.interpolate(vs, ys)) if c}
    return TrigCoord._reduced(terms, _tau_power(coords))


def _tau_power(coords) -> int:
    """The power of 2π in front of the Wronskian of trig coordinates,
    Σⱼ(base_j + j): entry (k, j) carries (2π)^(base_j + k), base_j being
    coordinate j's own power."""
    return sum(fn.tau_power + j for j, fn in enumerate(coords, 1))


def wronskian(curve: CurveSpec, t):
    """W(Γ)(t); exact Fraction for polynomial curves at rational t."""
    if not curve.contains_parameter(t):
        raise DomainError(f"parameter {t} outside domain {curve.domain}")
    return wronskian_symbolic(curve).eval(t)


def certify_nondegenerate(curve: CurveSpec, c0, grid: int) -> NondegeneracyCertificate:
    """Certify |W| > c0 on the whole domain.

    For exact polynomial curves the answer is exact at any c0: |W| > c0 on
    [lo, hi] exactly when |W(lo)| > c0 and neither W − c0 nor W + c0 has a
    root in [lo, hi], which the root kernel ``polys.Roots`` decides.  The
    certificate is then ``certified`` with ``exact=True`` and margin 0, or
    ``failed``.

    Other curves sample |W| on grid+1 equispaced parameters and are
    ``certified`` if the sampled minimum clears the finite-difference
    margin, ``sampled-only`` if it does not.  Every curve fails if a sample
    has |W| ≤ c0.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    c0f = parse_frac(c0) if not isinstance(c0, float) else c0
    if c0f < 0:
        raise ValueError("c0 must be >= 0")
    lo, hi = curve.domain
    w = wronskian_symbolic(curve)
    # t_i = lo + (hi − lo)·i/grid = n_i/q
    L = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (L // lo.denominator), hi.numerator * (L // hi.denominator)
    q = L * grid
    ns = [a * grid + (b - a) * i for i in range(grid + 1)]
    if curve.is_exact:
        # W(t_i) = v_i/scale, all over one denominator
        den, e = w.integer_form
        scale = den * q ** max(len(e) - 1, 0)
        vals = [polys.eval_homogeneous(e, n, q) for n in ns]
    else:
        scale = 1
        vals = [w.eval(n / q) for n in ns]
    min_s = min(abs(v) for v in vals)
    margin = max(abs(v - u) for u, v in zip(vals, vals[1:]))

    def cert(status, exact=False):
        return NondegeneracyCertificate(
            min_sampled_wronskian=min_s / scale,
            claimed_lower_bound=float(c0f),
            grid_resolution=grid,
            margin_estimate=0.0 if exact else margin / scale,
            status=status,
            exact=exact,
        )

    if not curve.is_exact:
        if min_s <= c0f:
            return cert("failed")
        return cert("certified" if min_s - margin > c0f else "sampled-only")
    c = Fraction(c0f)
    if min_s * c.denominator <= c.numerator * scale:
        return cert("failed")
    # the samples include W(lo), with |W(lo)| > c0 ≥ 0, so W ± c0 ≠ 0; the
    # counts read the integers den·c.denominator·(W ∓ c0)
    tail = [x * c.denominator for x in e[1:]]
    clear = all(polys.Roots([e[0] * c.denominator - s * den] + tail).closed(lo, hi) == 0
                for s in {c.numerator, -c.numerator})
    return cert("certified", exact=True) if clear else cert("failed")


# -- bounds and vectorized evaluation ---------------------------------------

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
