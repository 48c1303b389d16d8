"""Exact finite point sets: GAPs, sumsets, doubling, additive energy, and the
inequality checkers behind the counting bounds.

Points are tuples of exact rationals (Python ints or Fractions); every count
here is an exact integer and every ratio an exact Fraction.  The additive
m-energy E_m(A) counts ordered 2m-tuples with equal m-fold sums; it is
computed through the representation-count function φ(b) = #{m-tuples summing
to b} as E_m = Σ φ(b)², built by m−1 multiplicity-preserving convolution
steps.  The deduplicated m-fold sumset mA shares those steps without the
multiplicities, and a GAP is enumerated as the sumset
{v} + {ℓv₁ : 1 ≤ ℓ ≤ N₁} + … + {ℓv_m : 1 ≤ ℓ ≤ N_m}.

Every job runs on an integer form of each set, cached on the FiniteSet: a
common denominator L of all coordinates and the points times L as Python
ints.  For sums, each integer point becomes one mixed-radix key in the box of
the final sum (per-coordinate offsets, place values from the widths of that
box), so key(a) + key(b) is the key of a + b; a step is an outer sum of keys
followed by a sort that merges equal keys, and φ accumulates exactly through
np.add.reduceat.  Outer sums are built in row blocks of at most _BLOCK
elements, so memory stays O(result + _BLOCK) even near ENERGY_WORK_CAP.
Squared separations are sums of squared integer differences, taken in the
same blocks.  Each array is int64 when the bound of its values (the key box,
the number of tuples, the squared reach) is below 2⁶³ and an object array
of Python ints otherwise (_dtype); numpy runs the same code on either, so
every path is exact and there is one path per job.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np

ENUMERATION_CAP = 10 ** 7       # points
ENERGY_WORK_CAP = 10 ** 8       # accumulated multiplicity updates

_INT64_LIMIT = 1 << 63          # int64 values stay below this
_BLOCK = 1 << 16                # elements in one block of an outer sum


class CapExceeded(RuntimeError):
    pass


class DimensionMismatch(ValueError):
    pass


class SeparationUndefined(ValueError):
    pass


class SubsetViolation(ValueError):
    pass


class InexactNumber(TypeError, ValueError):
    """A float or a bool where an exact rational is required.  It is a
    TypeError to a caller that passed the wrong type and a ValueError to
    one that parsed a file."""


def parse_frac(x) -> Fraction:
    """x as an exact Fraction: a Fraction, an int, or anything whose string
    is a rational such as "3/4".  A float or a bool raises InexactNumber
    and is never rounded."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise InexactNumber(f"exact rational expected, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x).strip())


def exact_point(p) -> tuple:
    """p's coordinates as exact ints, or Fractions where not integral."""
    return tuple(c if type(c) is int else _lowest(parse_frac(c)) for c in p)


def _lowest(x: Fraction):
    return x.numerator if x.denominator == 1 else x


def exact_int(x, what: str, error=ValueError) -> int:
    """x as an int: a float, string or bool raises ``error``, never truncates."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise error(f"{what} must be an integer, got {x!r}")
    return operator.index(x)


class FiniteSet:
    """A deduplicated finite set of exact points of one common dimension."""

    __slots__ = ("points", "dimension", "_integer")

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
        self._integer = None

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
        object.__setattr__(self, "lengths",
                           tuple(exact_int(n, "GAP length") for n in self.lengths))
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


def _gap_sums(g: Gap, cap: int | None) -> _Sums:
    """{v} + {ℓv₁} + … + {ℓv_m}, 1 ≤ ℓᵢ ≤ Nᵢ, summed."""
    cap = ENUMERATION_CAP if cap is None else cap
    if g.nominal_size > cap:
        raise CapExceeded(f"GAP nominal size {g.nominal_size} exceeds cap {cap}")
    d = len(g.base)
    sums = _Sums(FiniteSet([g.base], d),
                 [FiniteSet([tuple(ell * c for c in v) for ell in range(1, n + 1)], d)
                  for v, n in zip(g.generators, g.lengths)])
    for _ in g.lengths:
        sums.step()
    return sums


def gap_enumerate(g: Gap, cap: int | None = None) -> FiniteSet:
    """All points v + Σ ℓᵢvᵢ, deduplicated."""
    return FiniteSet(_gap_sums(g, cap).points(), len(g.base))


def is_proper(g: Gap, cap: int | None = None) -> bool:
    """Proper when the enumerated size equals N₁···N_m exactly."""
    return len(_gap_sums(g, cap)) == g.nominal_size


def _integer_form(A: FiniteSet) -> tuple:
    """(L, rows): the least common denominator L of the coordinates of A and
    its points times L as tuples of Python ints, computed once per set."""
    if A._integer is None:
        L = math.lcm(*(c.denominator for p in A.points for c in p))
        A._integer = (L, [tuple(c.numerator * (L // c.denominator) for c in p)
                          for p in A.points])
    return A._integer


def _dtype(bound: int):
    """int64 for an array whose values stay within ±bound when that is below
    2⁶³, else object: an array of Python ints, through the same numpy code."""
    return np.int64 if bound < _INT64_LIMIT else object


def least_positive_square(X: np.ndarray, initial):
    """The least positive squared distance between two rows of X, or
    ``initial`` when that is smaller or no two rows differ.  The squares are
    added left to right over the columns, whatever the blocking of the rows,
    so a float X gives the same floats every time and an integer X is exact."""
    step = max(1, _BLOCK // X.size)
    best = initial
    for i in range(0, len(X), step):
        # rows i..i+step against rows i.. (earlier pairs were seen already)
        diff = X[i:i + step, None, :] - X[None, i:, :]
        d2 = reduce(np.add, [c * c for c in np.moveaxis(diff, -1, 0)])
        best = min(best, d2[d2 > 0].min(initial=best))
    return best


def min_separation_squared(A: FiniteSet) -> Fraction:
    """Exact minimum of squared pairwise distances."""
    if len(A) < 2:
        raise SeparationUndefined("minimal separation needs at least 2 points")
    L, rows = _integer_form(A)
    lo = [min(col) for col in zip(*rows)]
    reach = sum((max(col) - low) ** 2 for col, low in zip(zip(*rows), lo))
    X = np.array([[x - low for x, low in zip(p, lo)] for p in rows],
                 dtype=_dtype(reach))
    return Fraction(int(least_positive_square(X, reach)), L * L)


def min_separation(A: FiniteSet) -> float:
    """sqrt of the exact rational minimum of squared distances."""
    return math.sqrt(min_separation_squared(A))


def _merge(parts) -> tuple:
    """Sorted distinct keys of the (keys, counts) parts, with the counts of
    equal keys added, or with counts None when the parts carry none."""
    keys = np.concatenate([k for k, _ in parts])
    if parts[0][1] is None:
        return np.unique(keys), None
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    counts = np.concatenate([c for _, c in parts])[order]
    return keys[starts], np.add.reduceat(counts, starts)


def _outer_sums(left, right, counts) -> tuple:
    """_merge of all left[i] + right[j], each with weight counts[i].

    Outer sums are built _BLOCK elements at a time, and the pending blocks
    are merged into the result once they outgrow it, so the temporaries stay
    O(result + _BLOCK) and each element is sorted O(1) times on average.
    """
    rows = max(1, _BLOCK // len(right))
    done, pending, size = None, [], 0
    for i in range(0, len(left), rows):
        block = np.add.outer(left[i:i + rows], right).ravel()
        weights = (None if counts is None
                   else np.repeat(counts[i:i + rows], len(right)))
        pending.append((block, weights))
        size += len(block)
        if done is None or size > len(done[0]):
            done = _merge(pending if done is None else [done, *pending])
            pending, size = [], 0
    return _merge([done, *pending]) if pending else done


class _Sums:
    """A + B₁ + … + B_k, one summand per step(), kept as keys in the box of
    the whole sum, with the number of ordered tuples behind each key when
    counted.  Keys are int64 when that box, and counts when the number of
    tuples, is below 2⁶³, and Python ints otherwise."""

    def __init__(self, A: FiniteSet, summands: list, counted: bool = False):
        sets = [A, *summands]
        if not all(S.points for S in sets):
            raise ValueError("sumset of an empty set")
        forms = [_integer_form(S) for S in sets]
        L = math.lcm(*(la for la, _ in forms))
        rows = [r if la == L else [tuple(x * (L // la) for x in p) for p in r]
                for la, r in forms]
        los = [[min(col) for col in zip(*r)] for r in rows]
        spans = [[max(col) - low for col, low in zip(zip(*r), lo)]
                 for r, lo in zip(rows, los)]
        widths = [1 + sum(col) for col in zip(*spans)]
        self.place = [math.prod(widths[:j]) for j in range(len(widths) + 1)]
        keys = [np.array([sum((x - low) * pv for x, low, pv in zip(p, lo, self.place))
                          for p in r], dtype=_dtype(self.place[-1]))
                for r, lo in zip(rows, los)]
        self.keys, self.L, self.lo = keys[0], L, los[0]
        self._pending = iter(zip(keys[1:], los[1:]))
        self.counts = (np.ones(len(A), dtype=_dtype(math.prod(map(len, sets))))
                       if counted else None)

    def __len__(self):
        return len(self.keys)

    def step(self):
        right, lo = next(self._pending)
        self.keys, self.counts = _outer_sums(self.keys, right, self.counts)
        self.lo = [a + b for a, b in zip(self.lo, lo)]

    def points(self) -> list:
        """The current sums as exact point tuples, in key order."""
        digits = [(self.keys % high) // place
                  for place, high in zip(self.place, self.place[1:])]
        cols = [[x + low for x in col.tolist()] for col, low in zip(digits, self.lo)]
        pts = list(zip(*cols)) if cols else [()] * len(self.keys)
        if self.L == 1:
            return pts
        return [tuple(_lowest(Fraction(x, self.L)) for x in p) for p in pts]

    def counter(self) -> Counter:
        """φ: each current sum with its number of ordered tuples."""
        return Counter(dict(zip(self.points(), self.counts.tolist())))


def _charge_pairs(A: FiniteSet, B: FiniteSet, cap: int | None):
    """Refuse A + B when its |A|·|B| pairs exceed cap (ENUMERATION_CAP when
    None), before any sum is built."""
    cap = ENUMERATION_CAP if cap is None else cap
    if len(A) * len(B) > cap:
        raise CapExceeded(f"sumset work {len(A) * len(B)} exceeds cap {cap}")


def sumset(A: FiniteSet, B: FiniteSet, cap: int | None = None) -> FiniteSet:
    if A.dimension != B.dimension:
        raise DimensionMismatch("sumset needs equal dimensions")
    if not A.points or not B.points:
        raise ValueError("sumset of an empty set")
    _charge_pairs(A, B, cap)
    sums = _Sums(A, [B])
    sums.step()
    return FiniteSet(sums.points(), A.dimension)


def doubling(A: FiniteSet, cap: int | None = None) -> Fraction:
    """K = |A+A| / |A|, exact."""
    if not A.points:
        raise ValueError("doubling of an empty set")
    _charge_pairs(A, A, cap)
    sums = _Sums(A, [A])
    sums.step()   # counted as keys: A+A is never decoded into points
    return Fraction(len(sums), len(A))


def m_fold_sumset(A: FiniteSet, m: int, cap: int | None = None) -> FiniteSet:
    """mA = A + ... + A (m times), deduplicated at every step."""
    cap = ENUMERATION_CAP if cap is None else cap
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return A
    sums = _Sums(A, [A] * (m - 1))
    for _ in range(m - 1):
        if len(sums) * len(A) > cap:
            raise CapExceeded("m-fold sumset work exceeds cap")
        sums.step()
    return FiniteSet(sums.points(), A.dimension)


def representation_counts(A: FiniteSet, m: int,
                          work_cap: int | None = None) -> Counter:
    """φ over mA: number of ordered m-tuples of A summing to each value.

    Multiplicity-preserving convolution, m−1 steps.
    """
    work_cap = ENERGY_WORK_CAP if work_cap is None else work_cap
    if m < 1:
        raise ValueError("m must be >= 1")
    if not A.points:
        raise ValueError("energy of an empty set")
    sums = _Sums(A, [A] * (m - 1), counted=True)
    work = 0
    for _ in range(m - 1):
        work += len(sums) * len(A)
        if work > work_cap:
            raise CapExceeded("energy work cap exceeded")
        sums.step()
    return sums.counter()


def additive_energy(A: FiniteSet, m: int, work_cap: int | None = None) -> int:
    """E_m(A): ordered 2m-tuples with a₁+…+a_m = a_{m+1}+…+a_{2m}."""
    phi = representation_counts(A, m, work_cap)
    return sum(c * c for c in phi.values())


def energy_bruteforce(A: FiniteSet, m: int) -> int:
    """Independent oracle for E_m(A) by direct enumeration: every m-tuple's
    sum (itertools.product, no convolution), then Σ c² over the number c of
    m-tuples behind each sum, which joins the two sides of the 2m-tuple."""
    if not A.points:
        raise ValueError("energy of an empty set")
    counts = Counter(tuple(map(sum, zip(*tup)))
                     for tup in product(A.points, repeat=m))
    return sum(c * c for c in counts.values())


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
    K = doubling(A, cap)
    ma = m_fold_sumset(A, m, cap)
    bound = K ** m * len(A)
    return PlunneckeReport(m=m, size_a=len(A), size_ma=len(ma),
                           doubling_constant=K, bound=bound,
                           holds=Fraction(len(ma)) <= bound)
