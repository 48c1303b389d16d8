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

A FiniteSet is stored in integer form: the least common denominator L of its
coordinates and an (n, d) array of the points times L, in lexicographic
order.  A set given by exact points also keeps them as a frozenset; each form
is built once from the other, on demand.  Sums, GAPs, separations, subset
tests, the tube counter's floats and the lifts of the lattice bijection run
on the integer form, and Fractions are built only at the boundary:
``points``, iteration, and the points a caller keeps.

For sums, each integer point becomes one mixed-radix key in the box of the
final sum (per-coordinate offsets, place values from the widths of that box,
coordinate 0 the most significant digit), so key(a) + key(b) is the key of
a + b and sorted keys are sorted points.  A step is an outer sum of keys
followed by one sort that merges equal keys, and φ accumulates exactly
through np.add.reduceat.  Outer sums are built in row blocks of at most
_BLOCK elements, so memory stays O(result + _BLOCK) even near
ENERGY_WORK_CAP.  The least squared separation is a sweep over the rows
sorted on their widest axis (Shamos and Hoey, 1975): rows are compared at
growing shifts, and a row leaves once its gap on that axis alone reaches the
best square so far.  Each array is int64 when the bound of
its values (the coordinates, the key box, the number of tuples, the squared
reach) is below 2⁶³ and an object array of Python ints otherwise (_dtype);
numpy runs the same code on either, so every path is exact and there is one
path per job.

Every sum runs through one engine, _Sums, under two cap rules.  A sum of
sets charges its pairs: a call's cap bounds the pairs that all of its steps
form together, charged before each step.  A GAP is checked by its nominal
size N₁···N_m against its cap instead, which bounds each of its steps, so
its steps are not charged.

Both objects are immutable, so each keeps what it costs most to recompute: a
FiniteSet its |A+A|, filled by the first ``doubling``, and a Gap its
enumerated FiniteSet, filled by the first ``gap_enumerate``.  Neither cache
changes a cap rule: ``doubling`` charges |A|² and ``gap_enumerate`` checks
the nominal size against the call's cap on every call, full cache or not.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np

ENUMERATION_CAP = 10 ** 7       # pairs a sum forms, or GAP points
ENERGY_WORK_CAP = 10 ** 8       # pairs the energy's counted steps form

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
    """A deduplicated finite set of exact points of one common dimension.

    It holds the points as a frozenset, the integer form (L, rows) of
    ``_integer_form``, or both; whichever form is missing is built once, on
    demand.  ``FiniteSet(points)`` holds the exact points only;
    ``_from_rows``, which sums, GAPs, lattice boxes and on-curve counts
    return, holds the integer form only, and its length, sums, energies and
    lifts read the rows without decoding a point.  A common denominator of
    arbitrary rationals can have as many digits as all of theirs together,
    so a set given by exact points is ordered by them until it holds its
    integer form, and two such sets are compared by them.  Iteration is in
    sorted order.  ``_doubled`` caches |A+A| for ``doubling``."""

    __slots__ = ("dimension", "_points", "_integer", "_sorted", "_doubled")

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
        self._points = pts
        self.dimension = dimension
        self._integer = self._sorted = self._doubled = None

    @classmethod
    def _from_rows(cls, L: int, rows: np.ndarray) -> FiniteSet:
        """The set of the points rows / L, for distinct rows in lexicographic
        order.  L is reduced to the least common denominator, 1 for no rows,
        so that equal sets have equal integer forms."""
        if not rows.size:
            L = 1
        elif L > 1:
            # the first two rows often show that there is nothing to reduce
            g = math.gcd(L, *rows[:2].ravel().tolist())
            if g > 1:
                g = math.gcd(g, int(np.gcd.reduce(rows, axis=None)))
            if g > 1:   # g is L itself when every row is 0
                L //= g
                rows = rows // g
        out = cls.__new__(cls)
        out._points = out._sorted = out._doubled = None
        out.dimension, out._integer = rows.shape[1], (L, rows)
        return out

    @property
    def points(self) -> frozenset:
        """The exact points; a set built from sums decodes them once."""
        if self._points is None:
            self._points = frozenset(_decode(*self._integer))
        return self._points

    def _point(self, i: int) -> tuple:
        """The i-th point in sorted order; a row is decoded alone."""
        if self._integer is not None:
            L, rows = self._integer
            return _decode_row(L, rows[i].tolist())
        return self._in_order()[i]

    def _points_at(self, ids):
        """The points at the given indices in sorted order, one by one; rows
        are decoded together, when the first point is read."""
        if self._integer is not None:
            yield from _decode(self._integer[0], self._integer[1][ids])
        else:
            yield from map(self._in_order().__getitem__, ids)

    def _in_order(self) -> list:
        """The points in sorted order: the rows decoded, or the exact points
        sorted once.  Sets of rational points sort on ``_order_key``, which
        compares floats first; integer points, which compare fast as they
        are, sort plainly.  The first point the set yields picks the sort: a
        scan of every coordinate would cost an integer set as much as its
        sort, and both sorts give the exact order."""
        if self._integer is not None:
            return _decode(*self._integer)
        if self._sorted is None:
            exact = any(type(c) is not int for c in next(iter(self._points), ()))
            self._sorted = sorted(self._points, key=_order_key if exact else None)
        return self._sorted

    def __len__(self):
        return len(self._integer[1] if self._points is None else self._points)

    def __iter__(self):
        return iter(self._in_order())

    def __contains__(self, p):
        return exact_point(p) in self.points

    def __eq__(self, other):
        if not isinstance(other, FiniteSet) or len(self) != len(other):
            return False
        if not len(self):
            return True
        if self._points is not None and other._points is not None:
            return self._points == other._points
        (la, ra), (lb, rb) = _integer_form(self), _integer_form(other)
        return la == lb and np.array_equal(ra, rb)

    def __le__(self, other):
        if self._points is not None and other._points is not None:
            return self._points <= other._points
        return _is_subset(self, other)

    def __repr__(self):
        return f"FiniteSet({len(self)} points, dim={self.dimension})"


@dataclass(frozen=True)
class Gap:
    """Generalized arithmetic progression {v + Σ ℓᵢvᵢ : 1 ≤ ℓᵢ ≤ Nᵢ}.
    ``_points`` caches its enumeration for ``gap_enumerate``; it takes no
    part in ==, hash or repr."""
    base: tuple
    generators: tuple
    lengths: tuple
    _points: FiniteSet | None = field(default=None, init=False, repr=False,
                                      compare=False)

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


def gap_enumerate(g: Gap, cap: int | None = None) -> FiniteSet:
    """All points v + Σ ℓᵢvᵢ, deduplicated: {v} + {ℓv₁ : 1 ≤ ℓ ≤ N₁} + … +
    {ℓv_m : 1 ≤ ℓ ≤ N_m}, summed once per GAP and kept on it.  Every call
    checks the nominal size N₁···N_m against cap first, so a cached set is
    refused under a smaller cap; the steps it bounds are not charged."""
    cap = ENUMERATION_CAP if cap is None else cap
    if g.nominal_size > cap:
        raise CapExceeded(f"GAP nominal size {g.nominal_size} exceeds cap {cap}")
    if g._points is None:
        d = len(g.base)
        sums = _Sums(FiniteSet([g.base], d),
                     [FiniteSet([tuple(ell * c for c in v) for ell in range(1, n + 1)], d)
                      for v, n in zip(g.generators, g.lengths)], math.inf)
        object.__setattr__(g, "_points", sums.run().finite_set())
    return g._points


def is_proper(g: Gap, cap: int | None = None) -> bool:
    """Proper when the enumerated size equals N₁···N_m exactly."""
    return len(gap_enumerate(g, cap)) == g.nominal_size


def _integer_form(A: FiniteSet) -> tuple:
    """(L, rows): the least common denominator L of the coordinates of A and
    its points times L as the rows of an (n, dimension) integer array, in
    lexicographic order, computed once per set."""
    if A._integer is None:
        L = math.lcm(*(c.denominator for p in A._points for c in p))
        rows = sorted(tuple(c.numerator * (L // c.denominator) for c in p)
                      for p in A._points)
        bound = max((abs(x) for p in rows for x in p), default=0)
        A._integer = (L, np.array(rows, dtype=_dtype(bound))
                      .reshape(len(rows), A.dimension))
    return A._integer


def _order_key(p: tuple) -> list:
    """A sort key that orders exact points as the points themselves: each
    coordinate c becomes the pair (float(c), c).  Rounding is monotone, so
    fl(a) < fl(b) implies a < b, and equal floats fall through to the exact
    comparison.  A coordinate past the float range takes ±inf, which keeps
    the order."""
    return [(_float_or_inf(c), c) for c in p]


def _float_or_inf(c) -> float:
    try:
        return float(c)
    except OverflowError:
        return math.inf if c > 0 else -math.inf


def _decode(L: int, rows: np.ndarray) -> list:
    """The points rows / L as exact tuples, in row order."""
    if L == 1:
        return [tuple(p) for p in rows.tolist()]
    return [_decode_row(L, p) for p in rows.tolist()]


def _decode_row(L: int, row: list) -> tuple:
    """The point row / L, an integral coordinate as an int."""
    return tuple([x // L if not x % L else Fraction(x, L) for x in row])


def _dtype(bound: int):
    """int64 for an array whose values stay within ±bound when that is below
    2⁶³, else object: an array of Python ints, through the same numpy code."""
    return np.int64 if bound < _INT64_LIMIT else object


def _column_bounds(rows: np.ndarray) -> tuple:
    """(least value, max − least) of each column of nonempty rows, as
    Python ints."""
    low = rows.min(axis=0).tolist()
    return low, [h - lo for h, lo in zip(rows.max(axis=0).tolist(), low)]


def _offsets(rows: np.ndarray, low: list, dtype) -> np.ndarray:
    """rows − low, exactly, as an array of dtype, which holds every
    difference."""
    base = rows.astype(object) if dtype is object else rows
    return (base - np.array(low, dtype=base.dtype)).astype(dtype)


def _box(widths: list) -> tuple:
    """(place values, number of keys) of the mixed-radix box with these
    widths, coordinate 0 the most significant digit."""
    place = [math.prod(widths[j + 1:]) for j in range(len(widths))]
    return place, math.prod(widths)


def _encode(rows: np.ndarray, bounds: tuple, scale: int, lo: list,
            place: list, box: int) -> np.ndarray:
    """The keys Σⱼ (scale·rows[:, j] − lo[j])·place[j] of the rows, whose
    column bounds are ``bounds``, in a box of ``box`` keys with corner lo
    and place values ``place`` that holds every scaled row.  The keys are an
    array of _dtype(box) and increase with the rows' lexicographic order."""
    low, span = bounds
    dtype = _dtype(box)
    # a constant column adds a constant, whatever its scale
    mult = np.array([scale * pv if sp else 0 for pv, sp in zip(place, span)],
                    dtype=dtype)
    const = sum((scale * x - c) * pv for x, c, pv in zip(low, lo, place))
    return _offsets(rows, low, dtype) @ mult + const


def _is_subset(B: FiniteSet, A: FiniteSet) -> bool:
    """B ⊆ A, on the integer forms: both sets' keys in the box that holds
    them, where B adds no new key to A's."""
    if not len(B):
        return True
    if len(B) > len(A) or B.dimension != A.dimension:
        return False
    (lb, rb), (la, ra) = _integer_form(B), _integer_form(A)
    if la % lb:   # both denominators are least: B's divides A's
        return False
    scale = la // lb
    bb, ba = _column_bounds(rb), _column_bounds(ra)
    lo = [min(scale * x, y) for x, y in zip(bb[0], ba[0])]
    hi = [max(scale * (x + s), y + t) for x, s, y, t in zip(*bb, *ba)]
    place, box = _box([h - x + 1 for h, x in zip(hi, lo)])
    keys_a = _encode(ra, ba, 1, lo, place, box)
    keys_b = _encode(rb, bb, scale, lo, place, box)
    return len(_merge([(keys_a, None), (keys_b, None)])[0]) == len(A)


def least_positive_square(X: np.ndarray, initial):
    """The least positive squared distance between two rows of X, or
    ``initial`` when that is smaller or no two rows differ.

    A sweep: the rows are sorted on their widest axis a, and row i is
    compared with row i + k for k = 1, 2, … while its gap on a, squared, is
    below the best square so far.  Past that no later row can do better: a
    float difference grows with the row it is taken from, and a float sum of
    non-negative squares is at least its a-term.  A pair's squares are added
    left to right over the columns, as for any pair, so a float X gives the
    same floats every time and an integer X is exact."""
    best = initial
    if len(X) < 2:
        return best
    a = int(np.argmax(X.max(axis=0) - X.min(axis=0)))
    X = X[np.argsort(X[:, a], kind="stable")]
    live, k = np.arange(len(X) - 1), 1
    while True:
        gap = X[live + k, a] - X[live, a]
        live = live[gap * gap < best]
        if not len(live):
            return best
        diff = X[live + k] - X[live]
        d2 = reduce(np.add, [c * c for c in diff.T])
        best = min(best, d2[d2 > 0].min(initial=best))
        k += 1
        live = live[live + k < len(X)]


def min_separation_squared(A: FiniteSet) -> Fraction:
    """Exact minimum of squared pairwise distances."""
    if len(A) < 2:
        raise SeparationUndefined("minimal separation needs at least 2 points")
    L, rows = _integer_form(A)
    low, span = _column_bounds(rows)
    reach = sum(s * s for s in span)
    X = _offsets(rows, low, _dtype(reach))
    return Fraction(int(least_positive_square(X, reach)), L * L)


def min_separation(A: FiniteSet) -> float:
    """sqrt of the exact rational minimum of squared distances."""
    return math.sqrt(min_separation_squared(A))


def _merge(parts) -> tuple:
    """Sorted distinct keys of the (keys, counts) parts, with the counts of
    equal keys added, or with counts None when the parts carry none.  One
    sort, then the first key of each run of equal keys."""
    keys = np.concatenate([k for k, _ in parts])
    counted = parts[0][1] is not None
    if counted:
        order = np.argsort(keys)
        keys = keys[order]
    else:
        keys.sort()   # the concatenation is a fresh array
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    if not counted:
        return keys[first], None
    starts = np.flatnonzero(first)
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


def _charge(work: int, cap) -> None:
    """Raise CapExceeded when a sum's pairs, ``work``, are past cap."""
    if work > cap:
        raise CapExceeded(f"sumset work {work} exceeds cap {cap}")


class _Sums:
    """A + B₁ + … + B_k, one summand per step(), kept as sorted keys in the
    box of the whole sum, with the number of ordered tuples behind each key
    when counted.  Keys are int64 when that box, and counts when the number
    of tuples, is below 2⁶³, and Python ints otherwise.  Each step charges
    its len(keys)·|Bᵢ| pairs to the running ``work`` before forming them, and
    raises CapExceeded past ``cap`` (ENUMERATION_CAP when None)."""

    def __init__(self, A: FiniteSet, summands: list, cap: int | None,
                 counted: bool = False):
        sets = [A, *summands]
        if not all(len(S) for S in sets):
            raise ValueError("sumset of an empty set")
        self.cap, self.work = ENUMERATION_CAP if cap is None else cap, 0
        # each distinct set once (A recurs in mA), by its id
        forms = {id(S): _integer_form(S) for S in sets}
        L = math.lcm(*(la for la, _ in forms.values()))
        scale = {i: L // la for i, (la, _) in forms.items()}
        bounds = {i: _column_bounds(rows) for i, (_, rows) in forms.items()}
        low = {i: [x * scale[i] for x in bounds[i][0]] for i in forms}
        # every summand widens the box of the sum by its scaled spans
        self.widths = [1 + sum(col) for col in zip(*(
            [s * scale[id(S)] for s in bounds[id(S)][1]] for S in sets))]
        self.place, box = _box(self.widths)
        keys = {i: _encode(rows, bounds[i], scale[i], low[i], self.place, box)
                for i, (_, rows) in forms.items()}
        self.keys, self.L, self.lo = keys[id(A)], L, low[id(A)]
        self._pending = [(keys[id(S)], low[id(S)]) for S in reversed(summands)]
        self.counts = (np.ones(len(A), dtype=_dtype(math.prod(map(len, sets))))
                       if counted else None)

    def __len__(self):
        return len(self.keys)

    def step(self):
        right, lo = self._pending.pop()
        self.work += len(self.keys) * len(right)
        _charge(self.work, self.cap)
        self.keys, self.counts = _outer_sums(self.keys, right, self.counts)
        self.lo = [a + b for a, b in zip(self.lo, lo)]

    def run(self) -> _Sums:
        """The remaining steps."""
        while self._pending:
            self.step()
        return self

    def finite_set(self) -> FiniteSet:
        """The current sums in integer form: each key's digits plus the box's
        corner, rows in key order, which is lexicographic."""
        dtype = _dtype(max((abs(x) + w for x, w in zip(self.lo, self.widths)),
                           default=0))
        rows = np.empty((len(self.keys), len(self.lo)), dtype=dtype)
        for j, (pv, w, x) in enumerate(zip(self.place, self.widths, self.lo)):
            rows[:, j] = ((self.keys // pv) % w).astype(dtype) + x
        return FiniteSet._from_rows(self.L, rows)


def _order(m) -> int:
    """The order m of an m-fold sum, an integer ≥ 1."""
    m = exact_int(m, "m")
    if m < 1:
        raise ValueError("m must be >= 1")
    return m


def sumset(A: FiniteSet, B: FiniteSet, cap: int | None = None) -> FiniteSet:
    """A + B; its |A|·|B| pairs are charged against cap."""
    if A.dimension != B.dimension:
        raise DimensionMismatch("sumset needs equal dimensions")
    return _Sums(A, [B], cap).run().finite_set()


def doubling(A: FiniteSet, cap: int | None = None) -> Fraction:
    """K = |A+A| / |A|, exact; its |A|² pairs are charged against cap on
    every call, and A+A is counted as keys, never decoded into points.  The
    first call keeps |A+A| on A, so later calls (the Plünnecke and energy
    checks among them) only charge."""
    if A._doubled is None:
        A._doubled = len(_Sums(A, [A], cap).run())
    else:
        _charge(len(A) ** 2, ENUMERATION_CAP if cap is None else cap)
    return Fraction(A._doubled, len(A))


def m_fold_sumset(A: FiniteSet, m: int, cap: int | None = None) -> FiniteSet:
    """mA = A + ... + A (m times), deduplicated at every step; the pairs of
    all m − 1 steps together, Σ |kA|·|A| over k < m, are charged against
    cap."""
    m = _order(m)
    return A if m == 1 else _Sums(A, [A] * (m - 1), cap).run().finite_set()


def _counted_sums(A: FiniteSet, m: int, work_cap: int | None) -> _Sums:
    """mA with the number of ordered m-tuples behind each sum: m−1
    multiplicity-preserving convolution steps, whose pairs together are
    charged against work_cap (ENERGY_WORK_CAP when None)."""
    return _Sums(A, [A] * (_order(m) - 1),
                 ENERGY_WORK_CAP if work_cap is None else work_cap, counted=True).run()


def representation_counts(A: FiniteSet, m: int,
                          work_cap: int | None = None) -> Counter:
    """φ over mA: number of ordered m-tuples of A summing to each value.
    The pairs of all m − 1 steps together are charged against work_cap."""
    sums = _counted_sums(A, m, work_cap)
    return Counter(dict(zip(sums.finite_set(), sums.counts.tolist())))


def additive_energy(A: FiniteSet, m: int, work_cap: int | None = None) -> int:
    """E_m(A): ordered 2m-tuples with a₁+…+a_m = a_{m+1}+…+a_{2m}, as
    Σ φ(b)² over the counts alone, under representation_counts' cap."""
    counts = _counted_sums(A, m, work_cap).counts
    # Σ φ² ≤ (Σ φ)² = |A|^{2m} bounds every square and partial sum
    counts = counts.astype(_dtype(len(A) ** (2 * m)))
    return int((counts * counts).sum())


def energy_bruteforce(A: FiniteSet, m: int) -> int:
    """Independent oracle for E_m(A) by direct enumeration: every m-tuple's
    sum (itertools.product, no convolution), then Σ c² over the number c of
    m-tuples behind each sum, which joins the two sides of the 2m-tuple."""
    if not len(A):
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
    """Exact check of the doubling-to-energy lower bound for B ⊆ A.
    ``work_cap`` bounds both the |A|² pairs of A + A and the energy work."""
    if not len(B):
        raise ValueError("B must be nonempty")
    if not B <= A:
        raise SubsetViolation("B is not a subset of A")
    K = doubling(A, work_cap)
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
    """|mA| ≤ K^m |A|, with K from ``doubling`` and mA from
    ``m_fold_sumset``, each charging its own pairs against cap."""
    K = doubling(A, cap)
    ma = m_fold_sumset(A, m, cap)
    bound = K ** m * len(A)
    return PlunneckeReport(m=m, size_a=len(A), size_ma=len(ma),
                           doubling_constant=K, bound=bound,
                           holds=Fraction(len(ma)) <= bound)
