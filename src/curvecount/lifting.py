"""Monomial lifts of planar curves.

A monomial set M = {m₁,…,mₙ} of distinct bivariate monomials sends a planar
curve γ = (γ₁, γ₂) to the lifted curve (m₁(γ₁,γ₂),…,mₙ(γ₁,γ₂)) in R^n and a
point p to p^M = (m₁(p),…,mₙ(p)).  The machinery here covers the counting
exponent e(M) = 2/(n(n+1)) · Σ deg mᵢ, the explicit Lipschitz constant
C(M, R)² = Σ deg(mᵢ)² R^(2·deg mᵢ − 2) of the lift on [-R, R]², and the
lattice bijection: 1/N-integer points of the base curve correspond exactly to
lifted points whose i-th coordinate lies in (1/N^{dᵢ})Z.  The bijection is
checked on integers: a lattice point (i/N, j/N) lifts to the integer tuple
(iᵃ·jᵇ) over the denominators N^deg, and a Fraction is built only to name
a point off the lattice; a FiniteSet in integer form, such as an on-curve
count, is lifted from its rows.  Point coordinates are exact rationals read
by ``pointsets.parse_frac``: a float or a bool raises ``InexactNumber``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .curves import CurveSpec, InvalidCurveError, PolyCoord, TrigCoord
from .pointsets import FiniteSet, _decode_row, exact_int, frac_str, parse_frac


class LiftError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Monomial:
    """x^a y^b with a + b >= 1; the exponents are read by ``exact_int``."""
    a: int
    b: int

    def __post_init__(self):
        for name in ("a", "b"):
            object.__setattr__(self, name, exact_int(getattr(self, name),
                                                     "monomial exponent", LiftError))
        if self.a < 0 or self.b < 0:
            raise ValueError("exponents must be nonnegative")
        if self.a + self.b < 1:
            raise ValueError("monomial degree must be >= 1")

    @property
    def degree(self) -> int:
        return self.a + self.b

    def eval(self, x: Fraction, y: Fraction) -> Fraction:
        return x ** self.a * y ** self.b

    def __str__(self):
        parts = []
        if self.a:
            parts.append("x" if self.a == 1 else f"x^{self.a}")
        if self.b:
            parts.append("y" if self.b == 1 else f"y^{self.b}")
        return "*".join(parts)


X = Monomial(1, 0)
Y = Monomial(0, 1)


def _canonical_key(m: Monomial):
    # x first, y second, the rest graded-lexicographic (increasing y-exponent)
    if m == X:
        return (0,)
    if m == Y:
        return (1,)
    return (2, m.degree, m.b)


class MonomialSet:
    """An ordered set of distinct monomials, canonically sorted for
    reproducible lifts and reports."""

    def __init__(self, monomials):
        ms = [m if isinstance(m, Monomial) else Monomial(m[0], m[1]) for m in monomials]
        if len(set(ms)) != len(ms):
            raise LiftError("monomials must be pairwise distinct")
        if not ms:
            raise LiftError("monomial set is empty")
        self.monomials = tuple(sorted(ms, key=_canonical_key))

    @property
    def n(self) -> int:
        return len(self.monomials)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m.degree for m in self.monomials)

    @property
    def contains_x(self) -> bool:
        return X in self.monomials

    @property
    def contains_y(self) -> bool:
        return Y in self.monomials

    def require_xy(self):
        if not (self.contains_x and self.contains_y):
            raise LiftError("operation requires x and y in the monomial set")

    def __iter__(self):
        return iter(self.monomials)

    def __len__(self):
        return len(self.monomials)

    def __eq__(self, other):
        return isinstance(other, MonomialSet) and self.monomials == other.monomials

    def __hash__(self):
        return hash(self.monomials)

    def __repr__(self):
        return "MonomialSet({" + ", ".join(str(m) for m in self.monomials) + "})"


def make_Ms(s: int) -> MonomialSet:
    """All monomials x^i y^j with 1 <= i+j <= s; size (s+1)(s+2)/2 - 1."""
    if s < 1:
        raise LiftError("s must be >= 1")
    ms = [Monomial(i, j) for d in range(1, s + 1)
          for i in range(d + 1) for j in [d - i]]
    return MonomialSet(ms)


def exponent(M: MonomialSet) -> Fraction:
    """The counting exponent e(M) = 2/(n(n+1)) * Σ deg mᵢ, exact."""
    n = M.n
    if n < 2:
        raise LiftError("exponent needs |M| >= 2")
    return Fraction(2, n * (n + 1)) * sum(M.degrees)


def lift_point(p, M: MonomialSet) -> tuple:
    """p^M = (m₁(p),…,mₙ(p)) with exact rational coordinates.  p's
    coordinates are read by ``parse_frac``: a float or a bool raises
    InexactNumber."""
    x, y = (parse_frac(v) for v in p)
    return tuple(m.eval(x, y) for m in M)


def lift_curve(curve: CurveSpec, M: MonomialSet) -> CurveSpec:
    """The lift Γ^M of a planar curve; exact for polynomial base curves."""
    if curve.dimension != 2:
        raise InvalidCurveError("lift_curve needs a planar curve")
    g1, g2 = curve.coords
    coords = []
    if curve.is_exact:
        for m in M:
            c = polys.mul(polys.power(g1.coeffs, m.a), polys.power(g2.coeffs, m.b))
            coords.append(PolyCoord(c))
    else:
        for m in M:
            acc = TrigCoord({(0, 0): 1})
            for _ in range(m.a):
                acc = acc.mul(g1)
            for _ in range(m.b):
                acc = acc.mul(g2)
            coords.append(acc)
    return CurveSpec("lifted", coords, curve.domain, lift_origin=(curve, M))


def lipschitz_constant_squared(M: MonomialSet, R) -> Fraction:
    """C(M, R)² = Σ deg(mᵢ)² R^(2·deg mᵢ − 2), exact for rational R ≥ 1."""
    R = parse_frac(R)
    if R < 1:
        raise LiftError("the Lipschitz bound requires R >= 1")
    return sum(Fraction(m.degree) ** 2 * R ** (2 * m.degree - 2) for m in M)


@dataclass(frozen=True)
class BijectionReport:
    n: int
    degrees: tuple[int, ...]
    exponent: Fraction
    cardinality_base: int
    cardinality_lifted: int
    bijection: bool
    violations: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "degrees": list(self.degrees),
            "exponent": frac_str(self.exponent),
            "cardinality_base": self.cardinality_base,
            "cardinality_lifted": self.cardinality_lifted,
            "bijection": self.bijection,
        }


def _lattice_pairs(points, N: int) -> tuple:
    """(pairs, off): the integer pairs (i, j) = N·p of the 1/N-integer
    points p among ``points``, and the other points.

    A FiniteSet in integer form (L, rows) is read from its rows: p = row/L
    is a 1/N-integer point when N·row ≡ 0 mod L, and only a row off the
    lattice is decoded.  A FiniteSet that holds only its exact points is
    read from them unsorted, and any other iterable as it comes, each
    coordinate by ``parse_frac``."""
    pairs, off = [], []
    if isinstance(points, FiniteSet) and points._integer is not None:
        L, rows = points._integer
        if len(rows) and points.dimension != 2:
            raise LiftError("on-curve points must be planar")
        for x, y in rows.tolist():
            if x * N % L or y * N % L:
                off.append(_decode_row(L, [x, y]))
            else:
                pairs.append((x * N // L, y * N // L))
        return pairs, off
    for p in (points.points if isinstance(points, FiniteSet) else points):
        if len(p) != 2:
            raise LiftError("on-curve points must be planar")
        x, y = (parse_frac(c) for c in p)
        if N % x.denominator or N % y.denominator:
            off.append(p)
        else:
            pairs.append((x.numerator * (N // x.denominator),
                          y.numerator * (N // y.denominator)))
    return pairs, off


def check_lattice_bijection(curve: CurveSpec, M: MonomialSet, N: int,
                            on_curve_points) -> BijectionReport:
    """Verify the lattice bijection for a set of 1/N-integer points on Γ.

    Every lifted point must have its i-th coordinate in (1/N^{dᵢ})Z, and
    lifting must be injective on the input; both cardinalities are reported.
    A violation would indicate an arithmetic bug, never expected mathematics.

    A 1/N-integer point p lifts to the int tuple (iᵃ·jᵇ), (i, j) = N·p,
    over the denominators N^deg: always in the lattice.  The pairs come from
    ``_lattice_pairs``, from a FiniteSet's integer rows when it holds them,
    so a count's set is lifted without decoding a point.  Points off the
    lattice are lifted in Fractions, in sorted order, to name each
    coordinate at fault; as M holds x and y, their lifts differ from the
    lattice points'.
    """
    M.require_xy()
    N = exact_int(N, "N")
    if N < 1:
        raise ValueError("N must be >= 1")
    pairs, off = _lattice_pairs(on_curve_points, N)
    exps = [(m.a, m.b) for m in M]
    lifted = {tuple([i ** a * j ** b for a, b in exps]) for i, j in pairs}
    violations, off_lifted = [], set()
    for p in sorted(off):
        for c in p:
            if N % parse_frac(c).denominator:
                violations.append(f"point {p} is not a 1/N-integer point")
        q = lift_point(p, M)
        for coord, m in zip(q, M):
            if N ** m.degree % coord.denominator:
                violations.append(
                    f"lift of {p}: coordinate {coord} not in (1/N^{m.degree})Z")
        off_lifted.add(q)
    distinct = len(lifted) + len(off_lifted)
    count = len(pairs) + len(off)
    return BijectionReport(
        n=M.n,
        degrees=M.degrees,
        exponent=exponent(M),
        cardinality_base=count,
        cardinality_lifted=distinct,
        bijection=distinct == count and not violations,
        violations=tuple(violations),
    )
