"""Counting points of exact finite sets and scaled lattices in the closed
δ-neighborhood of a curve.

Lattice queries on a planar polynomial graph y = f(x) and on the full unit
circle are decided by a column walk (``_walk_graph``, ``_walk_circle``).
Each column x = i/N lists the few j that can be hits from exact bounds and
decides each of them exactly: a vertical witness or a Sturm count on a
graph, integer radii on the circle.  The work is O(N + candidates) and does
not depend on δ.  The columns, and each column's candidates before they are
decided, count against the ``cap`` argument of the count
(``pointsets.ENUMERATION_CAP`` when it is None).  Walked results are
certified and examine no arcs.

Explicit and GAP sources around the full unit circle are decided by the
same rule as its walk, in rationals: (max(0, 1 − δ))² ≤ |p|² ≤ (1 + δ)².

Every other query (explicit and GAP sources, lifted curves, partial arcs
and parametric curves) takes arcs and decides each candidate by one rule.
The parameter interval is cut into segments whose chords follow the cells
and are δ-flat, at most 64 per point, and each segment's box is padded so
that no point within δ falls outside it.  A candidate is a (point, segment)
pair with the point's float coordinates inside the box, generated with
numpy, one block of segments at a time, from integer cell indices:

- a lattice (1/N)Z² is its own index.  Cell i is the point i/N, so each
  box's index range, clipped to the lattice box, lists its candidates
  directly; no point is built until it matches;
- explicit and GAP points are keyed by their cell in a uniform grid over
  the two axes with the most occupied cells, and each box looks its cells
  up in the sorted int64 keys.

Every (segment, cell) pair counts against the cap before it is expanded.
numpy then takes each candidate's float distance d to its chord and a bound
m on its distance from the exact one to the arc.  A point is a clear hit
when some chord has d + m ≤ δ, a clear miss when every one has d − m > δ,
and is decided exactly otherwise: whether |γ(t) − p|² − δ² is ≤ 0 on the
domain, by a Sturm count on it, or on its half-angle form in s = tan πt for
a curve in (cos 2πt, sin 2πt).  Results are certified unless a partial
arc's end cannot be bracketed.

The brute-force oracle is an independent second route on numpy alone: curve
samples at arclength resolution δ/100, the nearest sample among those in the
point's 3×3 cells (sorted int64 keys on the two widest axes), and one
vectorized zoom over every point the sampled distance cannot decide.  The
samples are taken in two passes: the first sample of each block of 100, then
the blocks that have a point within reach of it.  It builds a lattice's
float points from their integer indices and an exact point only for a
match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .curves import (CurveSpec, TrigCoord, circle_arc, derivative_sup_bound,
                     eval_array, half_angle_ranges)
from . import pointsets, polys
from .pointsets import CapExceeded, FiniteSet, Gap, exact_int, gap_enumerate
from .polys import Poly

MAX_SEGMENTS = 4_000_000
MAX_ORACLE_SAMPLES = 40_000_000
# relative ambiguity band of the oracle's float decisions: |d − δ| ≤
# AMBIGUITY_REL·δ clears its `certified`
AMBIGUITY_REL = 1e-9
_U = 2.0 ** -53   # unit roundoff of float64


class InvalidQuery(ValueError):
    pass


@dataclass(frozen=True)
class ExplicitSource:
    points: FiniteSet


@dataclass(frozen=True)
class LatticeSource:
    """(1/N)Z² restricted to a bounded rational box."""
    N: int
    box: tuple  # ((x_lo, x_hi), (y_lo, y_hi)) rationals

    def __post_init__(self):
        object.__setattr__(self, "N", exact_int(self.N, "lattice N", InvalidQuery))
        if self.N < 1:
            raise InvalidQuery("lattice N must be >= 1")
        if self.box is None or len(self.box) != 2:
            raise InvalidQuery("lattice source needs a bounded 2d box")
        for pair in self.box:
            lo, hi = Fraction(pair[0]), Fraction(pair[1])
            if lo > hi:
                raise InvalidQuery("box bounds out of order")

    def index_bounds(self) -> tuple:
        """((i_lo, i_hi), (j_lo, j_hi)): the box holds the points (i/N, j/N)
        with i_lo ≤ i ≤ i_hi and j_lo ≤ j ≤ j_hi (empty when a lo exceeds
        its hi)."""
        return tuple((math.ceil(Fraction(lo) * self.N),
                      math.floor(Fraction(hi) * self.N)) for lo, hi in self.box)


@dataclass(frozen=True)
class GapSource:
    gap: Gap


@dataclass(frozen=True)
class TubeQuery:
    """Closed-neighborhood membership query: distance ≤ delta."""
    curve: CurveSpec
    delta: Fraction | float
    source: ExplicitSource | LatticeSource | GapSource

    def __post_init__(self):
        # the walks take δ as an exact Fraction, which inf and nan have not
        if not 0 < float(self.delta) < math.inf:
            raise InvalidQuery("delta must be positive and finite")
        src = self.source
        if isinstance(src, FiniteSet):
            object.__setattr__(self, "source", ExplicitSource(src))
        elif not isinstance(src, (ExplicitSource, LatticeSource, GapSource)):
            raise InvalidQuery(f"unsupported source {type(src).__name__}")


@dataclass(frozen=True)
class CountResult:
    count: int
    points: tuple | None
    arcs_examined: int
    certified: bool


def _result(points: tuple, arcs: int, certified: bool, keep: bool) -> CountResult:
    return CountResult(len(points), points if keep else None, arcs, certified)


def delta_from_rule(d, N: int, n: int) -> Fraction:
    """Exact neighborhood width δ = d / N^n for the scaling experiments."""
    N, n = exact_int(N, "N", InvalidQuery), exact_int(n, "n", InvalidQuery)
    return Fraction(d) / Fraction(N) ** n


def materialize_source(source, cap: int | None = None):
    """Expand an explicit or GAP source into (sorted exact points, their
    correctly rounded float coordinates as an (n, dimension) array).
    Lattices are never materialized."""
    cap = pointsets.ENUMERATION_CAP if cap is None else cap
    if isinstance(source, ExplicitSource):
        fs = source.points
    elif isinstance(source, GapSource):
        fs = gap_enumerate(source.gap, cap)
    else:
        raise InvalidQuery(f"unsupported source {type(source).__name__}")
    pts = list(fs)   # FiniteSet iterates in sorted order
    floats = np.array([[float(c) for c in p] for p in pts], dtype=float)
    return pts, floats.reshape(len(pts), fs.dimension)


def _graph_numerators(f: Poly, N: int, k_lo: int, k_hi: int):
    """The modulus D·N^d and the integers A_k, k_lo ≤ k ≤ k_hi, with
    f(k/N) = A_k / (D·N^d).

    Write f = P/D with integer coefficients P_i and degree d; then
    A_k = Σ P_i·k^i·N^(d−i), which Horner's rule gives in integers, one
    coefficient at a time for every k.
    """
    f = f or (Fraction(0),)
    D = math.lcm(*(c.denominator for c in f))
    d = len(f) - 1
    weights = [c.numerator * (D // c.denominator) * N ** (d - i)
               for i, c in enumerate(f)][::-1]
    ks = range(k_lo, k_hi + 1)
    values = [weights[0]] * len(ks)
    for w in weights[1:]:
        values = [v * k + w for v, k in zip(values, ks)]
    return D * N ** d, values


def count_on_curve_lattice(graph: CurveSpec, N: int, x_range=None) -> FiniteSet:
    """Exact enumeration of Γ ∩ (1/N Z)² for a polynomial graph y = f(x).

    With f(k/N) = A_k / (D·N^d) (``_graph_numerators``), x = k/N is on the
    curve exactly when N·A_k ≡ 0 mod D·N^d.  The test is a residue of
    integers; a Fraction is built only for a point on the curve, and no
    floating point is involved.
    """
    if graph.dimension != 2 or not graph.is_exact or not graph.is_graph_form:
        raise InvalidQuery("count_on_curve_lattice needs a planar polynomial graph")
    N = exact_int(N, "N")
    if N < 1:
        raise ValueError("N must be >= 1")
    dlo, dhi = graph.domain
    if x_range is None:
        xl, xh = dlo, dhi
    else:
        xl, xh = max(Fraction(x_range[0]), dlo), min(Fraction(x_range[1]), dhi)
    k_lo = math.ceil(xl * N)
    modulus, values = _graph_numerators(graph.coords[1].coeffs, N, k_lo,
                                        math.floor(xh * N))
    return FiniteSet([(Fraction(k, N), Fraction(acc, modulus))
                      for k, acc in enumerate(values, k_lo)
                      if N * acc % modulus == 0], dimension=2)


def _float_separation(pts: np.ndarray) -> float:
    """Least positive distance between two rows of pts in floats, or 0.0
    when every row is the same float point."""
    step = max(1, _SEGMENT_BLOCK // pts.size)
    best = math.inf
    for i in range(0, len(pts), step):
        # rows i..i+step against rows i.. (earlier pairs were seen already)
        d2 = _sum_sq(pts[i:i + step, None, :] - pts[None, i:, :])
        best = min(best, float(d2[d2 > 0].min(initial=math.inf)))
    return math.sqrt(best) if best < math.inf else 0.0


def _grid_cell_side(delta: float, pts: np.ndarray) -> float:
    """The grid's cell side.  Any positive side is sound; the points' least
    separation (up to 1024 points) or their mean spacing keeps few points in
    a cell."""
    if 2 <= len(pts) <= 1024:
        return max(delta, _float_separation(pts))
    if len(pts) >= 2:
        spans = pts.max(axis=0) - pts.min(axis=0)
        area = float(np.prod(np.maximum(spans, 1e-12)))
        density_side = (area / len(pts)) ** (1.0 / pts.shape[1])
        return max(delta, density_side)
    return max(delta, 1.0)


def _least_index(b: np.ndarray, N: int, lo: np.ndarray, hi: np.ndarray):
    """Least integer i in [lo, hi + 1] with i = hi + 1 or float(i/N) ≥ b.

    float(i/N) is monotone in i, so the product b·N, which may round across
    an integer, is corrected one step at a time against the float test
    itself.  Inputs are float64 arrays of exact integers below 2⁵³.
    """
    i = np.clip(np.ceil(b * N), lo, hi + 1)
    while True:
        down = (i > lo) & ((i - 1) / N >= b)
        up = (i <= hi) & (i / N < b)
        if not (down.any() or up.any()):
            return i
        i = i - down + up


class _LatticeCells:
    """A lattice source as its own index: cell (i, j) is the point (i/N, j/N).

    Point ids number the box's points row-major, which is their sorted
    order.
    """
    dim = 2

    def __init__(self, source: LatticeSource):
        self.N = source.N
        self.side = 1 / self.N
        bounds = source.index_bounds()
        self.origin = tuple(lo for lo, _ in bounds)
        self.first = np.array(self.origin, dtype=float)
        self.last = np.array([hi for _, hi in bounds], dtype=float)
        self.rows = bounds[1][1] - bounds[1][0] + 1
        self.empty = any(hi < lo for lo, hi in bounds)
        self.size = 0 if self.empty else math.prod(hi - lo + 1 for lo, hi in bounds)
        # the largest |coordinate| of a point in the box
        self.extent = max(abs(k) for b in bounds for k in b) / self.N

    def ranges(self, bmin, bmax):
        """Index ranges of the lattice points p with bmin ≤ p ≤ bmax."""
        lo = _least_index(bmin, self.N, self.first, self.last)
        hi = -_least_index(-bmax, self.N, -self.last, -self.first)
        return lo.astype(np.int64), hi.astype(np.int64)

    def lookup(self, cell, rows, bmin, bmax):
        i0, j0 = self.origin
        return (cell[:, 0] - i0) * self.rows + cell[:, 1] - j0, rows

    def points(self, pid: np.ndarray) -> np.ndarray:
        """Float coordinates of the points; i / N rounds correctly."""
        i, j = np.divmod(pid, self.rows)
        return np.column_stack([(i + self.origin[0]) / self.N,
                                (j + self.origin[1]) / self.N])

    def exact(self, pid: int) -> tuple:
        i, j = divmod(pid, self.rows)
        return Fraction(i + self.origin[0], self.N), Fraction(j + self.origin[1], self.N)


class _PointCells:
    """Explicit points keyed by their cell in a uniform grid.

    The grid indexes the two axes with the most occupied cells; the box
    test checks every axis.  Along each indexed axis the occupied cell
    coordinates are ranked, and a cell's int64 key is the mixed-radix of its
    ranks; the keys are sorted once.  A box's cell range becomes a rank
    range, so only occupied rows and columns are enumerated.
    """

    def __init__(self, pts_exact: list, pts: np.ndarray, delta: float):
        self.pts_exact = pts_exact
        self.empty = not pts_exact
        if self.empty:
            return
        self.pts = pts
        self.size, self.dim = pts.shape
        self.extent = float(np.abs(pts).max())
        self.side = _grid_cell_side(delta, pts)
        cells = np.floor(pts / self.side).T
        occupied = [np.unique(c) for c in cells]
        self.index = np.sort(np.argsort([-len(ax) for ax in occupied],
                                        kind="stable")[:2])
        self.axes = [occupied[d] for d in self.index]
        self.strides = np.array([len(ax) for ax in self.axes[1:]] + [1])
        keys = np.column_stack([np.searchsorted(occupied[d], cells[d])
                                for d in self.index]) @ self.strides
        self.order = np.argsort(keys, kind="stable")
        self.keys = keys[self.order]

    def ranges(self, bmin, bmax):
        """Rank ranges of the occupied cell coordinates inside the boxes."""
        lo = np.floor(bmin[:, self.index] / self.side).T
        hi = np.floor(bmax[:, self.index] / self.side).T
        return (np.column_stack([np.searchsorted(ax, c, "left")
                                 for ax, c in zip(self.axes, lo)]),
                np.column_stack([np.searchsorted(ax, c, "right") - 1
                                 for ax, c in zip(self.axes, hi)]))

    def lookup(self, cell, rows, bmin, bmax):
        """The points in the given cells that pass their row's box test."""
        keys = cell @ self.strides
        left = np.searchsorted(self.keys, keys, "left")
        owner, offset = _expand(
            np.searchsorted(self.keys, keys, "right") - left)
        pid = self.order[left[owner] + offset]
        rows = rows[owner]
        p = self.pts[pid]
        inside = ((bmin[rows] <= p) & (p <= bmax[rows])).all(axis=1)
        return pid[inside], rows[inside]

    def points(self, pid: np.ndarray) -> np.ndarray:
        return self.pts[pid]

    def exact(self, pid: int) -> tuple:
        return self.pts_exact[pid]


def _expand(counts: np.ndarray):
    """Index of the owner and rank within it of each of sum(counts) items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


_SEGMENT_BLOCK = 1 << 16
_SEGMENTS_PER_POINT = 64   # the grid's cap on segments per point
_PAIR_BLOCK = 1 << 22   # oracle: (point, sample) pairs measured at once
_SAMPLE_BLOCK = 100     # oracle: samples per block, about δ of arc at h = δ/100
_ZOOM_BLOCK = 1 << 14   # oracle: points zoomed at once


def _candidate_pairs(cells, gamma: np.ndarray, pad: float, cap: int):
    """All (point id, segment) pairs with the point inside the segment's
    padded bounding box, sorted by point id, then segment.

    Segments are processed in blocks.  The (segment, cell) pairs of a block
    are counted before any is expanded; their running total is held to cap.
    """
    n_seg = len(gamma) - 1
    work = 0.0
    pids, segs = [], []
    for s0 in range(0, n_seg, _SEGMENT_BLOCK):
        s1 = min(n_seg, s0 + _SEGMENT_BLOCK)
        bmin = np.minimum(gamma[s0:s1], gamma[s0 + 1:s1 + 1]) - pad
        bmax = np.maximum(gamma[s0:s1], gamma[s0 + 1:s1 + 1]) + pad
        lo, hi = cells.ranges(bmin, bmax)
        extent = np.maximum(hi - lo + 1, 0)
        n_cells = np.prod(extent, axis=1, dtype=float)
        work += float(n_cells.sum())
        if work > cap:
            raise CapExceeded(f"tube candidate cells exceed cap {cap}")
        rows, k = _expand(n_cells.astype(np.int64))
        cell = np.empty((len(rows), lo.shape[1]), dtype=np.int64)
        for d in reversed(range(lo.shape[1])):
            e = extent[rows, d]
            cell[:, d] = lo[rows, d] + k % e
            k //= e
        pid, rows = cells.lookup(cell, rows, bmin, bmax)
        pids.append(pid)
        segs.append(rows + s0)
    pid = np.concatenate(pids)
    seg = np.concatenate(segs)
    # blocks arrive in segment order, and no segment meets a point twice
    order = np.argsort(pid, kind="stable")
    return pid[order], seg[order]


_UNIT_CIRCLE = circle_arc()


def _charge(work: int, cap: int) -> int:
    """work, once it is known not to exceed cap."""
    if work > cap:
        raise CapExceeded(f"tube column walk work {work} exceeds cap {cap}")
    return work


def _poly_near(curve: CurveSpec, p: tuple, delta: Fraction) -> bool:
    """Whether dist(p, γ) ≤ δ, exactly, for a polynomial curve γ.

    That is whether D(t) = Σ (γᵢ(t) − pᵢ)² − δ² is ≤ 0 somewhere on a window
    [a, b] of the domain: the domain itself, or on a graph, where γ₁(t) = t,
    the t with |t − p₁| ≤ δ in it.  Either D(a) ≤ 0, or D goes from positive
    to ≤ 0 and so has a root in [a, b], which the Sturm count finds.
    D(a) ≤ 0 also covers D = 0 (a constant curve at distance exactly δ); any
    other D is a nonzero polynomial.
    """
    a, b = curve.domain
    if curve.is_graph_form:
        a, b = max(a, p[0] - delta), min(b, p[0] + delta)
        if a > b:
            return False
    D = (-delta * delta,)
    for fn, x in zip(curve.coords, p):
        g = polys.sub(fn.coeffs, (x,))
        D = polys.add(D, polys.mul(g, g))
    return polys.eval_exact(D, a) <= 0 or polys.count_roots_closed(D, a, b) > 0


def _trig_near(curve: CurveSpec, p: tuple, delta: Fraction) -> bool | None:
    """Whether dist(p, γ) ≤ δ, exactly, for a curve γ in
    (u, v) = (cos 2πt, sin 2πt); None when an end cannot be bracketed.

    D(t) = |γ(t) − p|² − δ² is ≤ 0 somewhere on the domain exactly when it
    is at t = ½ (if the domain holds it), or its half-angle form P vanishes
    at an end of the domain or in one of its open s-ranges
    (``half_angle_ranges``), or is < 0 all over them.
    """
    D = TrigCoord({(0, 0): -delta * delta})
    for fn, x in zip(curve.coords, p):
        g = fn.add(TrigCoord({(0, 0): -x}))
        D = D.add(g.mul(g))
    if D.is_zero():
        return True
    lo, hi = curve.domain
    half = lo <= Fraction(1, 2) <= hi
    if half and D.at_half() <= 0:
        return True
    P, B = D.half_angle()
    ends, ranges, sure = half_angle_ranges(P, B, lo, hi)
    if ends or not sure or any(polys.count_roots_open(P, a, b) for a, b in ranges):
        return True if ends or sure else None
    # P keeps one sign on the range: that of D(½) > 0 when it holds ½
    return not half and polys.eval_exact(P, ranges[0][0]) < 0


def _walk_graph(curve: CurveSpec, delta: Fraction, source: LatticeSource,
                cap: int) -> list:
    """Lattice hits of the tube around a planar polynomial graph y = f(x).

    A hit (x, y) has a witness t in the domain [lo, hi] with |t − x| ≤ δ and
    |f(t) − y| ≤ δ.  So only the columns x = i/N in [lo − δ, hi + δ] hold
    hits, and with xc the clamp of x to the domain and L = Σ k·|c_k|·R^(k−1)
    ≥ |f′| (R = max(|lo|, |hi|)), only the j with
    |f(xc) − j/N| ≤ δ(1 + L).  Each such candidate is a hit when x is in the
    domain and |f(x) − y| ≤ δ, and otherwise as ``_poly_near`` decides.
    """
    N = source.N
    f = curve.coords[1].coeffs
    lo, hi = curve.domain
    R = max(abs(lo), abs(hi))
    reach = delta * (1 + sum(k * abs(c) * R ** (k - 1)
                             for k, c in enumerate(f) if k))
    (ilo, ihi), (jlo, jhi) = source.index_bounds()
    ilo = max(ilo, math.ceil((lo - delta) * N))
    ihi = min(ihi, math.floor((hi + delta) * N))
    _charge(ihi - ilo + 1, cap)
    # columns inside the domain take f(i/N) = A_i / modulus in integers
    klo, khi = max(ilo, math.ceil(lo * N)), min(ihi, math.floor(hi * N))
    modulus, values = _graph_numerators(f, N, klo, khi)
    f_lo, f_hi = polys.eval_exact(f, lo), polys.eval_exact(f, hi)
    hits, work = [], 0
    for i in range(ilo, ihi + 1):
        x = Fraction(i, N)
        inside = klo <= i <= khi
        fx = Fraction(values[i - klo], modulus) if inside else (
            f_lo if x < lo else f_hi)
        j0 = max(jlo, math.ceil((fx - reach) * N))
        j1 = min(jhi, math.floor((fx + reach) * N))
        work = _charge(work + max(0, j1 - j0 + 1), cap)
        for j in range(j0, j1 + 1):
            y = Fraction(j, N)
            if ((inside and abs(fx - y) <= delta)
                    or _poly_near(curve, (x, y), delta)):
                hits.append((x, y))
    return hits


def _walk_circle(curve: CurveSpec, delta: Fraction, source: LatticeSource,
                 cap: int) -> list:
    """Lattice hits of the tube around the full unit circle.

    p = (i, j)/N is a hit exactly when N²·r_in ≤ i² + j² ≤ N²·r_out for the
    squared radii of ``_annulus``, that is when inner ≤ i² + j² ≤ outer for
    the integers inner = ⌈N²·r_in⌉ and outer = ⌊N²·r_out⌋.  In column i the
    hits are the j with j² ≤ outer − i² and j² ≥ inner − i²: one run, or two
    mirrored ones, whose ends ``math.isqrt`` gives.
    """
    N = source.N
    r_in, r_out = _annulus(delta)
    outer = math.floor(N * N * r_out)
    inner = math.ceil(N * N * r_in)
    r = math.isqrt(outer)
    (ilo, ihi), (jlo, jhi) = source.index_bounds()
    ilo, ihi = max(ilo, -r), min(ihi, r)
    _charge(ihi - ilo + 1, cap)
    hits, work = [], 0
    for i in range(ilo, ihi + 1):
        top = math.isqrt(outer - i * i)
        gap = inner - i * i
        low = math.isqrt(gap - 1) + 1 if gap > 0 else 0  # least j ≥ 0, j² ≥ gap
        runs = ((-top, -low), (low, top)) if low else ((-top, top),)
        runs = [(max(a, jlo), min(b, jhi)) for a, b in runs]
        work = _charge(work + sum(max(0, b - a + 1) for a, b in runs), cap)
        x = Fraction(i, N)
        hits += [(x, Fraction(j, N)) for a, b in runs for j in range(a, b + 1)]
    return hits


def _is_unit_circle(curve: CurveSpec) -> bool:
    return (curve.coords, curve.domain) == (_UNIT_CIRCLE.coords, _UNIT_CIRCLE.domain)


def _annulus(delta: Fraction) -> tuple:
    """(max(0, 1 − δ)², (1 + δ)²): since dist(p, circle) = | |p| − 1 |, a
    point is within δ of the unit circle exactly when |p|² lies between
    them."""
    return max(Fraction(0), 1 - delta) ** 2, (1 + delta) ** 2


def _column_walk(curve: CurveSpec):
    """The column walk that decides lattice queries on this curve, or None:
    planar polynomial graphs and the full unit circle have one."""
    if curve.dimension == 2 and curve.is_exact and curve.is_graph_form:
        return _walk_graph
    if _is_unit_circle(curve):
        return _walk_circle
    return None


def _float_below(x: Fraction) -> float:
    """The largest float ≤ x."""
    f = float(x)
    return math.nextafter(f, -math.inf) if f > x else f


def _float_above(x: Fraction) -> float:
    """The least float ≥ x."""
    f = float(x)
    return math.nextafter(f, math.inf) if f < x else f


def count_in_tube(query: TubeQuery, keep_points: bool = True,
                  cap: int | None = None) -> CountResult:
    """Exact-or-certified count of source points with dist(p, Γ) ≤ δ."""
    cap = pointsets.ENUMERATION_CAP if cap is None else cap
    curve = query.curve
    delta_q = Fraction(query.delta)
    delta = float(query.delta)
    if isinstance(query.source, LatticeSource):
        walk = _column_walk(curve)
        if walk is not None:
            # every decision is exact, and no arc is examined
            hits = walk(curve, delta_q, query.source, cap)
            return _result(tuple(hits), 0, True, keep_points)
        cells = _LatticeCells(query.source)
    else:
        pts_exact, pts = materialize_source(query.source, cap)
        if _is_unit_circle(curve) and pts.shape[1] == 2:
            r_in, r_out = _annulus(delta_q)
            hits = (p for p in pts_exact if r_in <= p[0] * p[0] + p[1] * p[1] <= r_out)
            return _result(tuple(hits), 0, True, keep_points)
        cells = _PointCells(pts_exact, pts, delta)
    if cells.empty:
        return _result((), 0, True, keep_points)
    if cells.dim != curve.dimension:
        raise InvalidQuery("source dimension does not match the curve")

    if not curve.is_exact and any(fn.tau_power for fn in curve.coords):
        raise InvalidQuery("a coordinate carries a power of 2π; |γ − p|² is not rational")
    lo, hi = curve.domain
    # float ends inside the domain, so that every float parameter is on it;
    # a domain between two floats gets one point and no clear hit
    lo_f, hi_f = _float_above(lo), _float_below(hi)
    inside = lo_f <= hi_f
    hi_f = max(lo_f, hi_f)
    speed = derivative_sup_bound(curve, 1)
    accel = derivative_sup_bound(curve, 2)

    # chords follow the cells and are δ-flat: a step h ≤ √(2δ/accel) keeps
    # the sagitta accel·h²/8 ≤ δ/4, and a chord is at most speed·h
    length = speed * (hi_f - lo_f)
    flat = speed * math.sqrt(2 * delta / accel) if accel else math.inf
    chord = max(length / (_SEGMENTS_PER_POINT * cells.size),
                min(max(delta, cells.side), flat))
    n_seg = max(1, min(MAX_SEGMENTS, math.ceil(length / chord)))
    ts = np.linspace(lo_f, hi_f, n_seg + 1)
    gamma = eval_array(curve, ts)
    h = float(np.diff(ts).max(initial=0.0)) * (1 + 1e-12)
    sagitta = accel * h * h / 8.0
    # bounds on the float error of each γ(t_k) and of the points'
    # coordinates (half an ulp of the largest), and on the curve over the
    # pieces of the domain outside the float grid, shorter than an ulp of 1
    err = max(fn.error_estimate(lo, hi) for fn in curve.coords) + _U * cells.extent
    ends = speed * math.ulp(1.0)
    # no point within δ (as a float ≥ δ) falls outside its box, whose ends
    # round by two ulps
    pad = (_float_above(delta_q) + sagitta + err + ends) * (1 + 1e-12)
    pad += 2 * math.ulp(float(np.abs(gamma).max()) + pad)
    pid, seg = _candidate_pairs(cells, gamma, pad, cap)

    # The exact distance from a point to the arc over a segment is within
    # `slack` of the float one to the float chord: the sagitta, the errors
    # above, coordinate by coordinate, and the rounding of the chord
    # distance.  Each sum or product below rounds by u.
    d, slack = _chord_bounds(cells.points(pid), gamma[seg], gamma[seg + 1])
    slack += (sagitta + math.sqrt(curve.dimension) * err + ends) * (1 + 1e-12)
    ids, first = np.unique(pid, return_index=True)
    hit = inside & (np.minimum.reduceat(d + slack, first)
                    <= _float_below(delta_q) * (1 - 4 * _U))
    miss = np.minimum.reduceat(d - slack, first) > _float_above(delta_q) * (1 + 4 * _U)
    # every other candidate is decided exactly
    near = _poly_near if curve.is_exact else _trig_near
    todo = np.flatnonzero(~hit & ~miss)
    verdicts = [near(curve, cells.exact(i), delta_q) for i in ids[todo].tolist()]
    hit[todo] = [v is not False for v in verdicts]
    return _result(tuple(cells.exact(i) for i in ids[hit].tolist()), n_seg,
                   None not in verdicts, keep_points)


def _chord_bounds(p: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The float distance d from each point p to its chord [a, b], and a bound
    on |d − dist(p, [a, b])| away from underflow: d = |w − t·v| for
    w = p − a, v = b − a and t = w·v / v·v clipped to [0, 1].  Evaluating
    |w − t·v| rounds by at most (n + 4)·u·(|w| + |v| + d), and t is within
    (2n + 5)·u·|w| / |v| of the exact projection, which moves the distance
    by (2n + 5)·u·|w|; the bound adds room for the rounding of |w| and |v|.
    """
    v, w = b - a, p - a
    vv = _sum_sq(v)
    t = np.divide((w * v).sum(axis=1), vv, out=np.zeros_like(vv), where=vv > 0)
    d = np.sqrt(_sum_sq(w - np.clip(t, 0.0, 1.0)[:, None] * v))
    return d, (3 * p.shape[1] + 10) * _U * (np.sqrt(_sum_sq(w)) + np.sqrt(vv) + d)


def _sum_sq(diff: np.ndarray) -> np.ndarray:
    """Σ diff² over the last axis, added left to right."""
    return reduce(np.add, [c * c for c in np.moveaxis(diff, -1, 0)])


def _nearest_samples(samples: np.ndarray, pts: np.ndarray, upper: float):
    """Squared distance to, and index of, each point's nearest sample closer
    than ``upper`` (inf where there is none; ties go to the lowest index).

    Samples are keyed by their cell on the two widest axes, of side ``upper``
    plus four ulps of max(upper, |sample coordinate|), more than rounding in
    x / side can cross: n-D distances go only to the point's 3×3 cells.
    """
    # per column: a reduction down a column is fast, one across rows is not
    ext = [(col.min(), col.max()) for col in samples.T]
    axes = sorted(np.argsort([lo - hi for lo, hi in ext], kind="stable")[:2])
    side = upper + 4 * math.ulp(max(np.abs(ext).max(), upper))
    keys, pkeys, offsets = 0, 0, np.zeros(1, dtype=np.int64)
    for a in axes:
        # two empty cells on either side of the samples': a clipped point's
        # neighbours, and neighbour keys that wrap a row, meet no sample
        c0 = math.floor(ext[a][0] / side) - 2
        width = math.floor(ext[a][1] / side) - c0 + 3
        keys = keys * width + (np.floor(samples[:, a] / side) - c0).astype(np.int64)
        pkeys = pkeys * width + np.clip(np.floor(pts[:, a] / side) - c0,
                                        0, width - 1).astype(np.int64)
        offsets = (offsets[:, None] * width + np.arange(-1, 2)).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    near = pkeys[:, None] + offsets
    left = np.searchsorted(keys, near, "left")
    counts = np.searchsorted(keys, near, "right") - left
    ends = np.r_[0, np.cumsum(counts.sum(axis=1))]
    d2 = np.full(len(pts), np.inf)
    nearest = np.full(len(pts), len(samples))
    i = 0
    while i < len(pts):
        j = max(i + 1, int(np.searchsorted(ends, ends[i] + _PAIR_BLOCK, "right")) - 1)
        owner, rank = _expand(counts[i:j].ravel())
        pt = owner // len(offsets) + i
        sid = order[left[i:j].ravel()[owner] + rank]
        dist = _sum_sq(samples[sid] - pts[pt])
        np.minimum.at(d2, pt, dist)
        tie = dist == d2[pt]
        np.minimum.at(nearest, pt[tie], sid[tie])
        i = j
    return d2, nearest


def _grid_nearest(curve: CurveSpec, ts: np.ndarray, pts: np.ndarray,
                  upper: float, speed: float):
    """``_nearest_samples(eval_array(curve, ts), pts, upper)`` wherever its
    distance is below ``upper`` (with ``nearest`` an index into ``ts``),
    from only the samples that can be that near.

    ``ts`` is cut into blocks of K = ``_SAMPLE_BLOCK`` samples.  A coarse
    pass evaluates each block's first sample and keeps the block when some
    point lies within ``reach`` of it; the dense pass evaluates the kept
    blocks.  Every sample ĝ_j whose float squared distance to a point p is
    below fl(upper²) is in a kept block, with n the dimension, u the unit
    roundoff and ĝ_k the first sample of j's block:

    - a float sum of n squared differences is within (n + 2)u relative of
      the exact one, so |p − ĝ_j| < upper·(1 + (n + 3)u);
    - |ĝ_j − ĝ_k| ≤ speed·|t_j − t_k| + 2√n·err: speed bounds |γ′| on the
      float grid, and err, the largest ``error_estimate`` of a coordinate,
      bounds each coordinate of both samples;
    - linspace puts each t within 4u(|lo| + |hi|) of lo + i·dt, so
      |t_j − t_k| ≤ (K − 1)·dt + 8u(|lo| + |hi|), and K·dt covers
      (K − 1)·dt and its own rounding;
    - so |p − ĝ_k| is below upper + speed·(K·dt + 8u(|lo| + |hi|)) + 2√n·err
      times 1 + (n + 3)u, and the factor 1 + 4(n + 8)u on ``reach`` covers
      that, the rounding of ĝ_k's squared distance, of reach² and of the
      dozen operations that form it.

    Kept samples are evaluated bit for bit as in one pass, and their indices
    increase, so distances and ties below ``upper`` are the one pass's.
    """
    K, n = _SAMPLE_BLOCK, curve.dimension
    lo, hi = ts[0], ts[-1]
    err = max(fn.error_estimate(*curve.domain) for fn in curve.coords)
    step = K * (hi - lo) / (len(ts) - 1) + 8 * _U * (abs(lo) + abs(hi))
    reach = (upper + speed * step + 2 * math.sqrt(n) * err) * (1 + 4 * (n + 8) * _U)
    near = _nearest_samples(pts, eval_array(curve, ts[::K]), reach)[0] < reach * reach
    kept = (np.flatnonzero(near)[:, None] * K + np.arange(K)).ravel()
    kept = kept[kept < len(ts)]
    if not len(kept):
        return np.full(len(pts), np.inf), np.full(len(pts), len(ts))
    d2, nearest = _nearest_samples(eval_array(curve, ts[kept]), pts, upper)
    return d2, np.append(kept, len(ts))[nearest]


def _zoom(curve: CurveSpec, pts: np.ndarray, centers: np.ndarray, lo: float,
          hi: float, dt: float) -> np.ndarray:
    """Distance from each point to γ near its center parameter: five rounds
    of 65 parameters, each zooming in to ±2 steps around its best."""
    out = np.empty(len(pts))
    for s in range(0, len(pts), _ZOOM_BLOCK):
        e = s + _ZOOM_BLOCK
        a, b = np.maximum(lo, centers[s:e] - dt), np.minimum(hi, centers[s:e] + dt)
        rows = np.arange(len(a))
        for _ in range(5):
            step = (b - a) / 64
            t = a[:, None] + step[:, None] * np.arange(65.0)
            d2 = _sum_sq(eval_array(curve, t) - pts[s:e, None, :])
            best = d2.argmin(axis=1)   # the first of equal minima
            a = np.maximum(lo, t[rows, best] - 2 * step)
            b = np.minimum(hi, t[rows, best] + 2 * step)
        out[s:e] = np.sqrt(d2[rows, best])
    return out


def _check_oracle_size(n: int):
    if n > 10 ** 6:
        raise InvalidQuery("oracle limited to 1e6 source points")


def _oracle_points(source, cap: int | None):
    """The source's points as a float array, in sorted order, and a map
    from a row of it to the exact point.

    A lattice box is built from its integer indices: Python's int division
    rounds i/N correctly, as float(Fraction(i, N)) does, and the only
    Fractions built are those of the points asked for.
    """
    if not isinstance(source, LatticeSource):
        pts_exact, pts = materialize_source(source, cap)
        _check_oracle_size(len(pts_exact))
        return pts, pts_exact.__getitem__
    cap = pointsets.ENUMERATION_CAP if cap is None else cap
    N = source.N
    (ilo, ihi), (jlo, jhi) = source.index_bounds()
    nx, ny = max(0, ihi - ilo + 1), max(0, jhi - jlo + 1)
    if nx * ny > cap:
        raise CapExceeded(f"lattice box holds {nx * ny} points, cap {cap}")
    _check_oracle_size(nx * ny)
    xs = np.array([i / N for i in range(ilo, ihi + 1)], dtype=float)
    ys = np.array([j / N for j in range(jlo, jhi + 1)], dtype=float)
    pts = np.column_stack([np.repeat(xs, ny), np.tile(ys, nx)])

    def exact(row: int) -> tuple:
        i, j = divmod(row, ny)
        return Fraction(ilo + i, N), Fraction(jlo + j, N)
    return pts, exact


def brute_force_tube_oracle(query: TubeQuery, keep_points: bool = True,
                            cap: int | None = None) -> CountResult:
    """Oracle counter: the nearest sample on a grid at arclength resolution
    δ/100, and a vectorized zoom over the points the sampled distance cannot
    decide.  Only the samples that can lie within ``upper`` of a point are
    evaluated (``_grid_nearest``: blocks of 100 samples, kept when a point is
    within upper + speed·100·dt of their first one, plus a margin for the
    evaluation error and rounding); nothing else reads the others."""
    curve = query.curve
    delta = float(query.delta)
    band = AMBIGUITY_REL * delta
    pts, exact = _oracle_points(query.source, cap)
    if not len(pts):
        return _result((), 0, True, keep_points)
    if pts.shape[1] != curve.dimension:
        raise InvalidQuery("source dimension does not match the curve")

    lo, hi = float(curve.domain[0]), float(curve.domain[1])
    width = hi - lo
    speed = max(derivative_sup_bound(curve, 1), 1e-12)
    h_arc = delta / 100.0
    n_samp = max(8, math.ceil(width * speed / h_arc))
    if n_samp > MAX_ORACLE_SAMPLES:
        raise InvalidQuery("oracle sampling budget exceeded; delta too small")
    ts = np.linspace(lo, hi, n_samp + 1)
    slack = h_arc / 2.0
    # with no sample closer than upper, the distance exceeds delta + band
    upper = delta + band + slack + 1e-15
    d2, nearest = _grid_nearest(curve, ts, pts, upper, speed)
    d = np.sqrt(d2)
    # the true distance lies in [d - slack, d]
    near = d2 < upper * upper
    inside = near & (d <= delta - band)
    todo = np.flatnonzero(near & ~inside & ~(d - slack > delta + band))
    d_star = _zoom(curve, pts[todo], ts[nearest[todo]], lo, hi, width / n_samp)
    matched = np.union1d(np.flatnonzero(inside), todo[d_star <= delta])
    return _result(tuple(exact(i) for i in matched.tolist()), n_samp,
                   not (np.abs(d_star - delta) <= band).any(), keep_points)
