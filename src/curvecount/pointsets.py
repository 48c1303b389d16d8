"""Exact finite point sets: GAPs, sumsets, doubling, additive energy, and the
inequality checkers behind the counting bounds.

Points are tuples of exact rationals (Python ints or Fractions); every count
here is an exact integer and every ratio an exact Fraction.  The additive
m-energy E_m(A) counts ordered 2m-tuples with equal m-fold sums; it is
computed through the representation-count function φ(b) = #{m-tuples summing
to b} as E_m = Σ φ(b)², built by m−1 multiplicity-preserving convolution
steps.  The deduplicated m-fold sumset mA is a separate code path so the two
can cross-check each other.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

ENUMERATION_CAP = 10 ** 7       # points
ENERGY_WORK_CAP = 10 ** 8       # accumulated multiplicity updates


class CapExceeded(RuntimeError):
    pass


class DimensionMismatch(ValueError):
    pass


class SeparationUndefined(ValueError):
    pass


class SubsetViolation(ValueError):
    pass


def exact_coord(x):
    """Normalize one coordinate to an exact int or Fraction (floats rejected)."""
    if isinstance(x, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass Fraction or int")
    return exact_coord(Fraction(x))


def exact_point(p) -> tuple:
    return tuple(exact_coord(c) for c in p)


class FiniteSet:
    """A deduplicated finite set of exact points of one common dimension."""

    __slots__ = ("points", "dimension")

    def __init__(self, points, dimension=None):
        pts = frozenset(exact_point(p) for p in points)
        dims = {len(p) for p in pts}
        if len(dims) > 1:
            raise DimensionMismatch(f"mixed dimensions {sorted(dims)}")
        if dimension is None:
            if not dims:
                raise DimensionMismatch("empty set needs an explicit dimension")
            dimension = dims.pop()
        elif dims and dims.pop() != dimension:
            raise DimensionMismatch("points do not match declared dimension")
        self.points = pts
        self.dimension = dimension

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(sorted(self.points))

    def __contains__(self, p):
        return exact_point(p) in self.points

    def __eq__(self, other):
        return isinstance(other, FiniteSet) and self.points == other.points

    def __le__(self, other):
        return self.points <= other.points

    def __repr__(self):
        return f"FiniteSet({len(self.points)} points, dim={self.dimension})"

    def translate(self, vector) -> "FiniteSet":
        v = exact_point(vector)
        if len(v) != self.dimension:
            raise DimensionMismatch("translation vector dimension mismatch")
        return FiniteSet((_add(p, v) for p in self.points), self.dimension)


def _add(p: tuple, q: tuple) -> tuple:
    return tuple(a + b for a, b in zip(p, q))


@dataclass(frozen=True)
class Gap:
    """Generalized arithmetic progression {v + Σ ℓᵢvᵢ : 1 ≤ ℓᵢ ≤ Nᵢ}."""
    base: tuple
    generators: tuple
    lengths: tuple

    def __post_init__(self):
        object.__setattr__(self, "base", exact_point(self.base))
        object.__setattr__(self, "generators",
                           tuple(exact_point(g) for g in self.generators))
        object.__setattr__(self, "lengths", tuple(int(n) for n in self.lengths))
        if len(self.generators) != len(self.lengths):
            raise ValueError("one length per generator required")
        if not self.generators:
            raise ValueError("a GAP needs at least one generator")
        d = len(self.base)
        if any(len(g) != d for g in self.generators):
            raise DimensionMismatch("generator dimension mismatch")
        if any(n < 1 for n in self.lengths):
            raise ValueError("lengths must be >= 1")

    @property
    def gap_dimension(self) -> int:
        return len(self.generators)

    @property
    def nominal_size(self) -> int:
        return math.prod(self.lengths)


def gap_enumerate(g: Gap, cap: int | None = None) -> FiniteSet:
    """All points v + Σ ℓᵢvᵢ, deduplicated."""
    cap = ENUMERATION_CAP if cap is None else cap
    if g.nominal_size > cap:
        raise CapExceeded(f"GAP nominal size {g.nominal_size} exceeds cap {cap}")
    pts = set()
    for ells in product(*(range(1, n + 1) for n in g.lengths)):
        p = list(g.base)
        for ell, gen in zip(ells, g.generators):
            for i, c in enumerate(gen):
                p[i] += ell * c
        pts.add(tuple(p))
    return FiniteSet(pts, len(g.base))


def is_proper(g: Gap, cap: int | None = None) -> bool:
    """Proper when the enumerated size equals N₁···N_m exactly."""
    return len(gap_enumerate(g, cap)) == g.nominal_size


def min_separation_squared(A: FiniteSet) -> Fraction:
    """Exact minimum of squared pairwise distances."""
    if len(A) < 2:
        raise SeparationUndefined("minimal separation needs at least 2 points")
    pts = sorted(A.points)
    best = None
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            d2 = sum((a - b) ** 2 for a, b in zip(p, q))
            if best is None or d2 < best:
                best = d2
    return Fraction(best)


def min_separation(A: FiniteSet) -> float:
    """sqrt of the exact rational minimum of squared distances."""
    return math.sqrt(min_separation_squared(A))


def sumset(A: FiniteSet, B: FiniteSet) -> FiniteSet:
    if A.dimension != B.dimension:
        raise DimensionMismatch("sumset needs equal dimensions")
    if not A.points or not B.points:
        raise ValueError("sumset of an empty set")
    return FiniteSet({_add(a, b) for a in A.points for b in B.points}, A.dimension)


def doubling(A: FiniteSet) -> Fraction:
    """K = |A+A| / |A|, exact."""
    if not A.points:
        raise ValueError("doubling of an empty set")
    return Fraction(len(sumset(A, A)), len(A))


def m_fold_sumset(A: FiniteSet, m: int, cap: int | None = None) -> FiniteSet:
    """mA = A + ... + A (m times), deduplicated at every step."""
    cap = ENUMERATION_CAP if cap is None else cap
    if m < 1:
        raise ValueError("m must be >= 1")
    out = A
    for _ in range(m - 1):
        if len(out) * len(A) > cap:
            raise CapExceeded("m-fold sumset work exceeds cap")
        out = sumset(out, A)
    return out


def representation_counts(A: FiniteSet, m: int,
                          work_cap: int | None = None) -> Counter:
    """φ over mA: number of ordered m-tuples of A summing to each value.

    Multiplicity-preserving convolution, m−1 steps; distinct from the
    deduplicating m_fold_sumset path by design.
    """
    work_cap = ENERGY_WORK_CAP if work_cap is None else work_cap
    if m < 1:
        raise ValueError("m must be >= 1")
    if not A.points:
        raise ValueError("energy of an empty set")
    phi = Counter({p: 1 for p in A.points})
    work = 0
    for _ in range(m - 1):
        work += len(phi) * len(A)
        if work > work_cap:
            raise CapExceeded("energy work cap exceeded")
        nxt: Counter = Counter()
        for s, c in phi.items():
            for a in A.points:
                nxt[_add(s, a)] += c
        phi = nxt
    return phi


def additive_energy(A: FiniteSet, m: int, work_cap: int | None = None) -> int:
    """E_m(A): ordered 2m-tuples with a₁+…+a_m = a_{m+1}+…+a_{2m}."""
    phi = representation_counts(A, m, work_cap)
    return sum(c * c for c in phi.values())


def energy_bruteforce(A: FiniteSet, m: int, literal_limit: int = 300_000) -> int:
    """Independent oracle for E_m(A) by direct enumeration.

    Enumerates all 2m-tuples literally while |A|^(2m) stays small; beyond
    that, enumerates each side's m-tuples exhaustively (itertools.product,
    no convolution) and joins the two enumerations on the sum value.
    """
    pts = sorted(A.points)
    k = len(pts)
    if k == 0:
        raise ValueError("energy of an empty set")
    if k ** (2 * m) <= literal_limit:
        count = 0
        for tup in product(pts, repeat=2 * m):
            left = tup[:m]
            right = tup[m:]
            ls = tuple(sum(c[i] for c in left) for i in range(A.dimension))
            rs = tuple(sum(c[i] for c in right) for i in range(A.dimension))
            if ls == rs:
                count += 1
        return count
    left_counts: Counter = Counter()
    for tup in product(pts, repeat=m):
        left_counts[tuple(sum(c[i] for c in tup) for i in range(A.dimension))] += 1
    right_counts: Counter = Counter()
    for tup in product(pts, repeat=m):
        right_counts[tuple(sum(c[i] for c in tup) for i in range(A.dimension))] += 1
    return sum(c * right_counts[s] for s, c in left_counts.items())


@dataclass(frozen=True)
class EnergyBoundReport:
    """Lemma check: E_m(B) ≥ |B|^{2m} / (K^m |A|) with K the doubling of A."""
    m: int
    size_a: int
    size_b: int
    doubling_constant: Fraction
    energy: int
    lower_bound: Fraction
    ratio: Fraction
    holds: bool

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "size_a": self.size_a,
            "size_b": self.size_b,
            "doubling": frac_str(self.doubling_constant),
            "energy": self.energy,
            "lower_bound": frac_str(self.lower_bound),
            "ratio": frac_str(self.ratio),
            "ratio_float": float(self.ratio),
            "holds": self.holds,
        }


def frac_str(x) -> str:
    """Exact "numerator/denominator" rendering of a rational."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def check_energy_lower_bound(A: FiniteSet, B: FiniteSet, m: int,
                             work_cap: int | None = None) -> EnergyBoundReport:
    """Exact check of the doubling-to-energy lower bound for B ⊆ A."""
    if not B.points:
        raise ValueError("B must be nonempty")
    if not (B.points <= A.points):
        raise SubsetViolation("B is not a subset of A")
    K = doubling(A)
    e = additive_energy(B, m, work_cap)
    lower = Fraction(len(B) ** (2 * m)) / (K ** m * len(A))
    ratio = Fraction(e) / lower
    return EnergyBoundReport(
        m=m, size_a=len(A), size_b=len(B), doubling_constant=K,
        energy=e, lower_bound=lower, ratio=ratio, holds=ratio >= 1,
    )


@dataclass(frozen=True)
class PlunneckeReport:
    """Sanity check of |mA| ≤ K^m |A| (a theorem; failure means a bug)."""
    m: int
    size_a: int
    size_ma: int
    doubling_constant: Fraction
    bound: Fraction
    holds: bool

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "size_a": self.size_a,
            "size_ma": self.size_ma,
            "doubling": frac_str(self.doubling_constant),
            "bound": frac_str(self.bound),
            "holds": self.holds,
        }


def check_plunnecke(A: FiniteSet, m: int,
                    cap: int | None = None) -> PlunneckeReport:
    K = doubling(A)
    ma = m_fold_sumset(A, m, cap)
    bound = K ** m * len(A)
    return PlunneckeReport(m=m, size_a=len(A), size_ma=len(ma),
                           doubling_constant=K, bound=bound,
                           holds=Fraction(len(ma)) <= bound)
