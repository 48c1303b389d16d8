"""Counting points of exact finite sets and scaled lattices in the closed
δ-neighborhood of a curve.

One decision stage decides the candidates of two sources.  Lattice queries
on a planar polynomial graph y = f(x) take a column walk (``_walk_graph``):
each column x = i/N lists the few j that can be hits from exact bounds, in
integers over numpy arrays of the columns, and a vertical witness proves
most hits.  The work is O(N + candidates) and does not depend on δ.  The
columns, and each column's candidates before they are listed, count
against the ``cap`` argument of the count (``pointsets.ENUMERATION_CAP``
when it is None).  Every other query (explicit and GAP sources around any
curve, and lattices around lifted curves, partial arcs and parametric
curves) takes arcs, and its candidates are (point, segment) pairs.  The
full unit circle's lattice queries keep their own exact column walk
(``_walk_circle``: integer radii, ``math.isqrt`` runs).  Walked results are
certified and examine no arcs.

The stage takes each candidate's float distance to δ-flat chords of the
curve under a sound error bound (``_float_verdicts``): a clear hit, a clear
miss, or left open for one exact pass per count (``_exact_near``).  A walk
candidate (x, y) has its own chords, over its window [x − δ, x + δ] of the
domain (``_GraphWindows``), which holds every parameter of a curve point
within δ of it.

On the arc route the parameter interval is cut into segments whose chords
follow the cells and are δ-flat, at most 64 per point, and each segment's
box is padded so that no point within δ falls outside it.  A candidate is a
(point, segment) pair with the point's float coordinates inside the box,
generated with numpy, one block of segments at a time, from integer cell
indices:

- a lattice (1/N)Z² is its own index.  Cell i is the point i/N, so each
  box's index range, clipped to the lattice box, lists its candidates
  directly; no point is built until it matches.  The indices are floats, so
  N and the box's indices must be below 2⁵³ (InvalidQuery otherwise);
- explicit and GAP points are keyed by their cell in a uniform grid over
  the two axes with the most occupied cells, and each box looks its cells
  up in the sorted int64 keys.

Every (segment, cell) pair counts against the cap before it is expanded.
numpy then takes each candidate's float distance d to its chord and a bound
m on its distance from the exact one to the arc.  A point is a clear hit
when some chord has d + m ≤ δ, a clear miss when every one has d − m > δ,
and is decided exactly otherwise: whether |γ(t) − p|² − δ² is ≤ 0 on the
domain.  On a polynomial curve an integer certificate from its quadratic
part about the centre of the parameter window decides almost every point,
and a Sturm count of the same integer polynomial the rest; the curve's
integer forms are read once per count (``_PolyNear``).  On a curve in
(cos 2πt, sin 2πt) that function is linear in (|p|² − δ², p, 1), so each
point reads its half-angle form in s = tan πt as one row of the plane
matrix of (γ, |γ|²), built once per count, and ``curves.TrigRoots``
decides it.  Results are certified unless a partial arc's end cannot be
bracketed.

The brute-force oracle is an independent second route on numpy alone: curve
samples at arclength resolution δ/100, each point's nearest sample, and one
vectorized zoom over every point the sampled distance cannot decide.  The
sample grid is addressed by index, as ``np.linspace`` forms it, and never
built whole.  A coarse step evaluates the first sample of each block of 100
and pairs it with the points within reach of it, found by bisection in the
points' floats sorted on their two widest axes: first the columns of equal
first-axis floats near the sample, then the run of each column near it.
Every source's floats are ``materialize_source``'s, a lattice box's listed
as integer rows over N.  A dense step evaluates the paired blocks only and
measures each against its own points.  An exact point is built only for a
match.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .curves import (CurveSpec, PolyCoord, TrigCoord, TrigRoots, _plane_columns,
                     circle_arc, derivative_sup_bound, eval_array)
from . import pointsets, polys
from .pointsets import (CapExceeded, FiniteSet, Gap, exact_int, gap_enumerate,
                        parse_frac)

MAX_SEGMENTS = 4_000_000
MAX_ORACLE_SAMPLES = 40_000_000
# relative ambiguity band of the oracle's float decisions: |d − δ| ≤
# AMBIGUITY_REL·δ clears its `certified`
AMBIGUITY_REL = 1e-9
_U = 2.0 ** -53   # unit roundoff of float64
_FLOAT_EXACT = 1 << 53   # every integer below this is a float


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
        box = tuple((parse_frac(lo), parse_frac(hi)) for lo, hi in self.box)
        if any(lo > hi for lo, hi in box):
            raise InvalidQuery("box bounds out of order")
        object.__setattr__(self, "box", box)

    def index_bounds(self) -> tuple:
        """((i_lo, i_hi), (j_lo, j_hi)): the box holds the points (i/N, j/N)
        with i_lo ≤ i ≤ i_hi and j_lo ≤ j ≤ j_hi (empty when a lo exceeds
        its hi)."""
        return tuple((_ceil_times(lo, self.N), _floor_times(hi, self.N))
                     for lo, hi in self.box)


@dataclass(frozen=True)
class GapSource:
    gap: Gap


@dataclass(frozen=True)
class TubeQuery:
    """Closed-neighborhood membership query: distance ≤ delta."""
    curve: CurveSpec
    delta: Fraction
    source: ExplicitSource | LatticeSource | GapSource

    def __post_init__(self):
        # δ is exact (``parse_frac``): a float or a bool raises InexactNumber
        object.__setattr__(self, "delta", parse_frac(self.delta))
        # the chords and the oracle also take δ as a float
        if not (0 < self.delta <= sys.float_info.max and float(self.delta) > 0):
            raise InvalidQuery("delta must be positive and within the float range")
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


def _result(count: int, points, arcs: int, certified: bool,
            keep: bool) -> CountResult:
    """The result of ``count`` hits; the iterable ``points`` yields them and
    is read only when they are kept."""
    return CountResult(count, tuple(points) if keep else None, arcs, certified)


def delta_from_rule(d, N: int, n: int) -> Fraction:
    """Exact neighborhood width δ = d / N^n for the scaling experiments."""
    N, n = exact_int(N, "N", InvalidQuery), exact_int(n, "n", InvalidQuery)
    return parse_frac(d) / Fraction(N) ** n


def materialize_source(source, cap: int | None = None):
    """Expand a source into (its FiniteSet, the correctly rounded float
    coordinates of its points in sorted order as an (n, dimension) array).
    Row i is the point ``fs._point(i)``.  A lattice box is listed as the
    integer rows (i, j) over N, row-major, which is sorted order; its size,
    like a GAP's, is charged against ``cap`` before any row is built.

    A set that holds its integer form (L, rows), as every GAP and lattice
    does, is ordered by its rows and gives its floats as rows / L: one numpy
    division when every numerator and L are below 2⁵³, so that both are
    exact floats, and Python's int / int otherwise.  Either rounds the
    quotient correctly, as float(Fraction) does, and no point is decoded
    until asked for.  Any other set is sorted as exact points, and float(c)
    rounds each coordinate."""
    cap = pointsets.ENUMERATION_CAP if cap is None else cap
    if isinstance(source, ExplicitSource):
        fs = source.points
    elif isinstance(source, GapSource):
        fs = gap_enumerate(source.gap, cap)
    elif isinstance(source, LatticeSource):
        fs = _lattice_set(source, cap)
    else:
        raise InvalidQuery(f"unsupported source {type(source).__name__}")
    if fs._integer is None:
        floats = np.array([[float(c) for c in p] for p in fs], dtype=float)
        return fs, floats.reshape(len(fs), fs.dimension)
    L, rows = pointsets._integer_form(fs)
    return fs, _quotients(rows, L)


def _quotients(a: np.ndarray, L: int) -> np.ndarray:
    """The floats a / L of an integer array, correctly rounded: one numpy
    division when L and every entry are below 2⁵³, so that both are exact
    floats, and Python's int / int otherwise."""
    if (a.dtype == np.int64 and L < _FLOAT_EXACT
            and (not a.size or np.abs(a).max() < _FLOAT_EXACT)):
        return a / L
    return np.array([x / L for x in a.ravel().tolist()], dtype=float).reshape(a.shape)


def _lattice_set(source: LatticeSource, cap: int) -> FiniteSet:
    """The points of a lattice box as a FiniteSet in integer form: the rows
    (i, j) over N.  An empty box builds neither axis."""
    bounds = source.index_bounds()
    nx, ny = (max(0, hi - lo + 1) for lo, hi in bounds)
    if nx * ny > cap:
        raise CapExceeded(f"lattice box holds {nx * ny} points, cap {cap}")
    dtype = pointsets._dtype(max(abs(k) for b in bounds for k in b))
    i, j = (np.arange(lo, hi + 1 if nx * ny else lo, dtype=dtype) for lo, hi in bounds)
    rows = np.column_stack([np.repeat(i, ny), np.tile(j, nx)])
    return FiniteSet._from_rows(source.N, rows)


def _graph_numerators(f: PolyCoord, N: int, k_lo: int, k_hi: int):
    """The modulus D·N^d and the integers A_k, k_lo ≤ k ≤ k_hi, with
    f(k/N) = A_k / (D·N^d), as a numpy array.

    f = P/D is f's ``integer_form``, of degree d; then
    A_k = Σ P_i·k^i·N^(d−i), which Horner's rule gives over the array of
    every k, one coefficient at a time.  With K = max(1, |k_lo|, |k_hi|),
    every partial sum and product is at most Σ |P_i|·K^i·N^(d−i) in size,
    and N times that bounds N·A_k: the array is int64 when that bound and
    the modulus are below 2⁶³, and holds Python ints otherwise
    (``pointsets._dtype``).
    """
    D, P = f.integer_form
    P = P or (0,)
    d = len(P) - 1
    weights = [c * N ** (d - i) for i, c in enumerate(P)][::-1]
    K = max(1, abs(k_lo), abs(k_hi))
    modulus = D * N ** d
    bound = max(N * sum(abs(w) * K ** (d - i) for i, w in enumerate(weights)),
                modulus)
    ks = np.arange(k_lo, k_hi + 1).astype(pointsets._dtype(bound))
    values = np.full(len(ks), weights[0], dtype=ks.dtype)
    for w in weights[1:]:
        values = values * ks + w
    return modulus, values


def count_on_curve_lattice(graph: CurveSpec, N: int) -> FiniteSet:
    """Exact enumeration of Γ ∩ (1/N Z)² for a polynomial graph y = f(x).

    With f(k/N) = A_k / (D·N^d) (``_graph_numerators``), x = k/N is on the
    curve exactly when N·A_k ≡ 0 mod D·N^d, and then y = j/N with
    j = N·A_k / (D·N^d).  The test is one residue of integer arrays, and
    the set comes back in integer form: the rows (k, j) over N, in the
    dtype of the A_k, which bounds N·A_k.  No Fraction and no floating
    point is involved; the set decodes its points only when it is iterated
    or asked for ``points``.
    """
    if graph.dimension != 2 or not graph.is_exact or not graph.is_graph_form:
        raise InvalidQuery("count_on_curve_lattice needs a planar polynomial graph")
    N = exact_int(N, "N")
    if N < 1:
        raise ValueError("N must be >= 1")
    lo, hi = graph.domain
    k_lo = math.ceil(lo * N)
    modulus, values = _graph_numerators(graph.coords[1], N, k_lo,
                                        math.floor(hi * N))
    scaled = N * values
    on = np.flatnonzero(scaled % modulus == 0)
    rows = np.column_stack([on.astype(values.dtype) + k_lo,
                            scaled[on] // modulus])
    return FiniteSet._from_rows(N, rows)


def _grid_cell_side(delta: float, pts: np.ndarray) -> float:
    """The grid's cell side.  Any positive side is sound; the points' least
    separation (up to 1024 points, by ``pointsets.least_positive_square``'s
    sorted sweep) or their mean spacing keeps few points in a cell."""
    if 2 <= len(pts) <= 1024:
        # the least positive separation, or 0.0 when every point is one float
        best = float(pointsets.least_positive_square(pts, math.inf))
        return max(delta, math.sqrt(best) if best < math.inf else 0.0)
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
    order.  Indices are floats, so N and every index of the box must be
    below 2⁵³: past that, i ± 1 need not move i, and i / N need not round
    correctly.
    """
    dim = 2

    def __init__(self, source: LatticeSource):
        self.N = source.N
        self.side = 1 / self.N
        bounds = source.index_bounds()
        top = max(abs(k) for b in bounds for k in b)
        if max(self.N, top) >= _FLOAT_EXACT:
            raise InvalidQuery("a lattice query that takes arcs needs N and "
                               "the box's indices below 2**53")
        self.origin = tuple(lo for lo, _ in bounds)
        self.first = np.array(self.origin, dtype=float)
        self.last = np.array([hi for _, hi in bounds], dtype=float)
        self.rows = bounds[1][1] - bounds[1][0] + 1
        self.empty = any(hi < lo for lo, hi in bounds)
        self.size = 0 if self.empty else math.prod(hi - lo + 1 for lo, hi in bounds)
        # the largest |coordinate| of a point in the box
        self.extent = top / self.N

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

    def __init__(self, fs: FiniteSet, pts: np.ndarray, delta: float):
        self.fs = fs
        self.empty = not len(fs)
        if self.empty:
            return
        self.pts = pts
        self.size, self.dim = pts.shape
        self.extent = float(np.abs(pts).max())
        self.side = _grid_cell_side(delta, pts)
        cells = np.floor(pts / self.side).T
        occupied = [_distinct(np.sort(c)) for c in cells]
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
        return self.fs._point(pid)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array.  (numpy's plain ``np.unique``
    imports ``numpy.ma`` on its first call.)"""
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _expand(counts: np.ndarray):
    """Index of the owner and rank within it of each of sum(counts) items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


_SEGMENT_BLOCK = 1 << 16
_SEGMENTS_PER_POINT = 64   # the grid's cap on segments per point
_WINDOW_CHORDS = 8         # walk: the cap on chords per candidate window
_PAIR_BLOCK = 1 << 22   # oracle: runs listed, (point, sample) pairs measured at once
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


class _PolyNear:
    """Whether dist(p, γ) ≤ δ, exactly, for points p and a polynomial curve γ.

    That is whether D(t) = Σ (γᵢ(t) − pᵢ)² − δ² is ≤ 0 somewhere on a window
    [a, b] of the domain: the domain itself, or on a graph, where γ₁(t) = t,
    the t with |t − p₁| ≤ δ in it.  Two exact steps decide it, both on the
    integer polynomial E(u) of ``model``, D about a centre of the window: the
    quadratic certificate (``_quadratic_certificate``), which settles almost
    every point, and a Sturm count of E on the window for the rest.  A
    certificate that defers has found E > 0 at a point of the window, so E
    is ≤ 0 somewhere on it exactly when it has a root there.

    One object serves every point of a count: the curve's integer forms and
    degree are read once, and the scaled coefficients, domain ends and δ
    once per common denominator L (``_scaled``).  A point then builds only
    its own numerators.
    """

    def __init__(self, curve: CurveSpec, delta: Fraction):
        self.graph = curve.is_graph_form
        self.forms = [fn.integer_form for fn in curve.coords]
        self.d = max([1, *(len(e) for _, e in self.forms)]) - 1
        self.delta = delta
        self.domain = curve.domain
        lo, hi = curve.domain
        self.base = math.lcm(delta.denominator, lo.denominator, hi.denominator,
                             *(den for den, _ in self.forms))
        self._by_L = {}

    def __call__(self, p: tuple) -> bool:
        model = self.model(p)
        if model is None:
            return False
        verdict = _quadratic_certificate(*model)
        if verdict is not None:
            return verdict
        E, ua, ub = model
        return polys.Roots(E).closed(ua, ub) > 0

    def _scaled(self, L: int) -> tuple:
        """(δ·L, a, b, q, g, c) for the common denominator L: the domain is
        a ≤ t·L ≤ b, q is the window's denominator, g holds each
        coordinate's coefficients times L, of degree d, and c = (δ·L·q^d)².
        On a curve that is no graph the centre is the domain's midpoint, so
        g is stored already shifted to it (``_shift``), with the window's
        ends (u_a, u_b) in place of (a, b)."""
        if L not in self._by_L:
            dl, a, b = (_times(x, L) for x in (self.delta, *self.domain))
            g = [[c * (L // den) for c in e] + [0] * (self.d + 1 - len(e))
                 for den, e in self.forms]
            q = L if self.graph else 2 * L
            if not self.graph:
                g = [_shift(gi, a + b, q) for gi in g]
                a, b = a - b, b - a
            self._by_L[L] = dl, a, b, q, g, (dl * q ** self.d) ** 2
        return self._by_L[L]

    def model(self, p: tuple):
        """(E, u_a, u_b): D as the integer polynomial
        E(u) = (L·q^d)²·D((n₀ + u)/q), and the window a ≤ t ≤ b as the
        integers u_a ≤ u ≤ u_b; None when the window is empty.

        L is the common denominator of the coefficients (of each coordinate's
        ``integer_form``), p, δ and the domain's ends, so L·(γᵢ − pᵢ) has
        integer coefficients, of degree at most d.  The window's ends and
        its centre t₀ = n₀/q are integers over q: on a graph q = L and t₀ is
        p₁ clamped into the window, otherwise q = 2L and t₀ is the domain's
        midpoint.  Each q^d·L·(γᵢ − pᵢ)((n₀ + u)/q) is taken by Horner's
        rule in ℤ[u], then squared; off a graph only its constant term
        depends on p.
        """
        L = math.lcm(self.base, *(x.denominator for x in p))
        dl, a, b, q, g, c = self._scaled(L)
        ps = [_times(x, L) for x in p]
        if self.graph:
            a, b = max(a, ps[0] - dl), min(b, ps[0] + dl)
            if a > b:
                return None
            n0 = min(max(ps[0], a), b)
            G = [_shift([gi[0] - x, *gi[1:]], n0, q) for gi, x in zip(g, ps)]
            a, b = a - n0, b - n0
        else:
            qd = q ** self.d
            G = [[gi[0] - x * qd, *gi[1:]] for gi, x in zip(g, ps)]
        E = [0] * (2 * self.d + 1)
        for Gi in G:
            for i, gi in enumerate(Gi):
                for j, gj in enumerate(Gi):
                    E[i + j] += gi * gj
        E[0] -= c
        return E, a, b


def _shift(g: list, n0: int, q: int) -> list:
    """q^d·g((n₀ + u)/q) in ℤ[u] for g of degree d, by Horner's rule."""
    d = len(g) - 1
    G = [g[d]]
    for k in range(d - 1, -1, -1):
        # G·(n₀ + u) + g_k·q^(d−k)
        G = [n0 * G[0] + g[k] * q ** (d - k)] + [
            n0 * G[j] + G[j - 1] for j in range(1, len(G))] + [G[-1]]
    return G


def _exact_near(curve: CurveSpec, points: list, delta: Fraction) -> list:
    """The exact pass of a count: whether dist(p, γ) ≤ δ for each point p,
    by ``_PolyNear`` on a polynomial curve and ``_trig_near`` on a curve in
    (cos 2πt, sin 2πt); None where a trig end cannot be bracketed."""
    if not points:
        return []
    if curve.is_exact:
        return list(map(_PolyNear(curve, delta), points))
    return _trig_near(curve, points, delta)


def _times(x: Fraction, L: int) -> int:
    """x·L, for L a multiple of x's denominator."""
    return x.numerator * (L // x.denominator)


def _floor_times(x: Fraction, N: int) -> int:
    """⌊x·N⌋, in integers."""
    return x.numerator * N // x.denominator


def _ceil_times(x: Fraction, N: int) -> int:
    """⌈x·N⌉, in integers."""
    return -(-x.numerator * N // x.denominator)


def _coefficient_bound(f: PolyCoord, R: Fraction, order: int) -> tuple:
    """Σ_k k!/(k − order)!·|c_k|·R^(k−order) ≥ sup |f^(order)| on [−R, R]
    for f = Σ c_k t^k, as integers (a, b) with the bound a/b.  Over f's
    ``integer_form`` P/D, of degree d, and R = r/s, a is the sum of
    k!/(k − order)!·|P_k|·r^(k−order)·s^(d−k) and b = D·s^(d−order)."""
    D, P = f.integer_form
    r, s = R.numerator, R.denominator
    d = len(P) - 1
    return (sum(math.perm(k, order) * abs(c) * r ** (k - order) * s ** (d - k)
                for k, c in enumerate(P) if k >= order),
            D * s ** max(0, d - order))


def _quadratic_certificate(E: list, ua: int, ub: int) -> bool | None:
    """Whether E ≤ 0 somewhere on [u_a, u_b], when the quadratic part
    Q = e₀ + e₁u + e₂u² of E decides it; None when it does not.

    u* is where Q is least on the window: the vertex −e₁/2e₂ when e₂ > 0 and
    it lies in the window, else the end where Q is smaller.  With
    r = max(|u_a|, |u_b|), |E − Q| ≤ T = Σ_{k≥3} |e_k|·r^k on the window.
    So E(u*) ≤ 0 proves a hit at u*, and Q(u*) > T proves E > 0 all over
    the window, a miss; at the vertex that is 4e₂e₀ − e₁² > 4e₂T.  Both
    are read off homogeneous integer forms at u* = n/den, den > 0.  A
    quadratic E (a segment) or a constant one is always decided: T = 0.
    """
    e0, e1, e2 = (E + [0, 0])[:3]
    if e2 > 0 and 2 * e2 * ua <= -e1 <= 2 * e2 * ub:
        n, den = -e1, 2 * e2
    else:
        # Q(u_b) − Q(u_a) = (u_b − u_a)·(e₁ + e₂·(u_a + u_b))
        n, den = (ua if e1 + e2 * (ua + ub) >= 0 else ub), 1
    if polys.eval_homogeneous(E, n, den) <= 0:
        return True
    r = max(abs(ua), abs(ub))
    tail = sum(abs(e) * r ** k for k, e in enumerate(E) if k >= 3)
    if (e0 * den + e1 * n) * den + e2 * n * n > tail * den * den:
        return False
    return None


def _trig_near(curve: CurveSpec, points: list, delta: Fraction) -> list:
    """Whether dist(p, γ) ≤ δ, exactly, for each point p and a curve γ in
    (u, v) = (cos 2πt, sin 2πt); None when an end cannot be bracketed.

    That is whether D(t) = |γ(t) − p|² − δ² is ≤ 0 somewhere on the domain.
    L²·D, for L the common denominator of δ and p, is one row of the plane
    matrix of (γ, |γ|²), built once, at the plane's integers
    (L²(δ² − |p|²), −2L²p, L²).  A zero row is D ≡ 0, a hit; ``TrigRoots``
    decides any other.
    """
    if not points:
        return []
    square = reduce(TrigCoord.add, (fn.mul(fn) for fn in curve.coords))
    matrix = _plane_columns((*curve.coords, square), *curve.domain)
    verdicts = []
    for p in points:
        L = math.lcm(delta.denominator, *(x.denominator for x in p))
        ps = [_times(x, L) for x in p]
        plane = (_times(delta * delta, L * L) - sum(x * x for x in ps),
                 *(-2 * L * x for x in ps), L * L)
        row = [sum(map(operator.mul, plane, col)) for col in matrix]
        verdicts.append(not any(row) or TrigRoots(row, *curve.domain).nonpositive())
    return verdicts


def _walk_graph(curve: CurveSpec, delta: Fraction, source: LatticeSource,
                cap: int) -> tuple:
    """Lattice hits of the tube around a planar polynomial graph y = f(x), as
    (count, points): the points in sorted order, built only when read.

    A hit (x, y) has a witness t in the domain [lo, hi] with |t − x| ≤ δ and
    |f(t) − y| ≤ δ.  So only the columns x = i/N in [lo − δ, hi + δ] hold
    hits, and with xc the clamp of x to the domain and L ≥ |f′| on it
    (``_coefficient_bound``), only the j with |f(xc) − j/N| ≤ δ(1 + L).

    This candidate source lists them in integers, over a numpy table with
    one row per column: the ends of its j range and of its witness range.
    In a column x = i/N of the domain f(x) = A_i / M (``_graph_numerators``),
    and |f(x) − j/N| ≤ r exactly when |A_i·n − j·m| ≤ ⌊r·m·N⌋, for m and n
    the modulus M and N over their gcd; so both ranges end at floor
    divisions, and the witness range, r = δ, holds the hits
    |f(x) − y| ≤ δ.  A column outside the domain takes f at the nearer
    end, in Fractions, and has no witness.  The table is int64 when its
    integers stay below 2⁶³ and holds Python ints otherwise
    (``pointsets._dtype``).  The columns, and then every column's
    candidates, are charged against cap before any candidate is listed;
    they are listed and decided ``_SEGMENT_BLOCK`` at a time.

    The candidates the witness leaves go to the chord route's decision
    stage: floats over the δ-flat chords of each one's window
    (``_GraphWindows``, ``_float_verdicts``), then one exact pass
    (``_exact_near``) for those the floats leave open.  Fractions are built
    only for that pass and for the hits that are read.
    """
    N = source.N
    fn = curve.coords[1]
    lo, hi = curve.domain
    # the domain lies in [0, 1], so [−hi, hi] holds it
    num, den = _coefficient_bound(fn, hi, 1)
    reach = delta * (num + den) / den
    (ilo, ihi), (jlo, jhi) = source.index_bounds()
    ilo = max(ilo, _ceil_times(lo - delta, N))
    ihi = min(ihi, _floor_times(hi + delta, N))
    n_cols = max(0, _charge(ihi - ilo + 1, cap))
    # the columns of the domain, and the `left` and `right` ones beside it
    kl, kh = _ceil_times(lo, N), _floor_times(hi, N)
    modulus, values = _graph_numerators(fn, N, max(ilo, kl), min(ihi, kh))
    left, right = (min(n_cols, max(0, k)) for k in (kl - ilo, ihi - kh))
    g = math.gcd(modulus, N)
    m, n = modulus // g, N // g
    r_n, d_n = (r.numerator * m * N // r.denominator for r in (reach, delta))
    # the j ranges of the columns beside the domain, with an empty witness
    sides = [[math.ceil((y - reach) * N), math.floor((y + reach) * N), 1, 0]
             for y in (polys.eval_exact(fn.coeffs, x)
                       for x, c in ((lo, left), (hi, right)) if c)]
    # every entry, and every j of a candidate, is below `top` in size; the
    # table's sums and differences stay below 2·top + 2
    top = max([int(np.abs(values).max(initial=0)) * n + r_n + m,
               *(abs(e) + 1 for ends in sides for e in ends)])
    dtype = pointsets._dtype(2 * top + 2)
    # ⌈(X − r)/m⌉, ⌊(X + r)/m⌋ for r = r_n and d_n, with X = A_i·n
    ends = np.array([m - 1 - r_n, r_n, m - 1 - d_n, d_n], dtype)
    ranges = (values.astype(dtype)[:, None] * n + ends) // m
    if sides:
        # the first row is the left side's when left > 0, the last the
        # right side's when right > 0
        rows = np.array(sides, dtype)
        ranges = np.concatenate([rows[:1].repeat(left, axis=0), ranges,
                                 rows[-1:].repeat(right, axis=0)])
    # the box, its bounds clamped to ±top, which moves no range end
    np.maximum(ranges[:, 0], min(max(jlo, -top), top), out=ranges[:, 0])
    np.minimum(ranges[:, 1], max(min(jhi, top), -top), out=ranges[:, 1])
    counts = np.maximum(ranges[:, 1] - ranges[:, 0] + 1, 0)
    # an int64 sum wraps past 2⁶³, but a float sum of counts is exact below
    # 2⁵³ and at least 2⁵³ otherwise; from there on, Python ints sum them
    total = counts.sum(dtype=float) if counts.dtype == np.int64 else math.inf
    total = _charge(int(total) if total < _FLOAT_EXACT else sum(counts.tolist()), cap)
    counts = counts.astype(np.int64)
    starts = np.cumsum(counts) - counts
    i_dtype = pointsets._dtype(max(abs(ilo), abs(ihi)))
    # per block: the (column, j) of each hit or open candidate, and where
    # the open ones fall among them
    cols, js, open_at, points = [np.zeros(0, np.int64)], [np.zeros(0, dtype)], [], []
    kept, windows = 0, None
    for s in range(0, total, _SEGMENT_BLOCK):
        k = np.arange(s, min(total, s + _SEGMENT_BLOCK))
        col = np.searchsorted(starts, k, "right") - 1
        row = ranges[col]
        j = row[:, 0] + (k - starts[col])
        hit = (row[:, 2] <= j) & (j <= row[:, 3])
        rest = np.flatnonzero(~hit)
        if rest.size:
            windows = windows or _GraphWindows(curve, delta)
            i = col[rest].astype(i_dtype) + ilo
            clear_hit, clear_miss = windows.verdicts(
                np.column_stack([_quotients(i, N), _quotients(j[rest], N)]))
            todo = ~clear_hit & ~clear_miss
            hit[rest[~clear_miss]] = True
            open_at.append(kept + np.cumsum(hit)[rest[todo]] - 1)
            points += [(Fraction(x, N), Fraction(y, N))
                       for x, y in zip(i[todo].tolist(), j[rest[todo]].tolist())]
        where = np.flatnonzero(hit)
        cols.append(col[where])
        js.append(j[where])
        kept += len(where)
    verdicts = _exact_near(curve, points, delta)
    cols, js = np.concatenate(cols), np.concatenate(js)
    if points:
        keep = np.ones(len(cols), dtype=bool)
        keep[np.concatenate(open_at)] = verdicts
        cols, js = cols[keep], js[keep]
    return len(cols), ((Fraction(ilo + c, N), Fraction(y, N))
                       for c, y in zip(cols.tolist(), js.tolist()))


class _GraphWindows:
    """Float verdicts for points near a planar polynomial graph y = f(x), each
    point over the chords of its own window.

    A curve point within δ of p = (x, y) has |t − x| ≤ δ, so its parameter
    lies in the window [x − δ, x + δ] ∩ [lo, hi].  The window is widened
    outward in floats by the rounding of x and δ, kept inside the domain's
    float ends, and cut into ``chords`` equal pieces, at most
    ``_WINDOW_CHORDS``, δ-flat where that suffices: a step h ≤ √(2δ/accel)
    keeps the sagitta accel·h²/8 ≤ δ/4.  The chord route's slack
    (``_chord_slack``) then holds for each point with its own window's
    sagitta, the parameters of the domain outside its float ends included.
    The speed √(1 + f′²) and the acceleration |f″| are bounded from f's
    coefficients (``_coefficient_bound``).  No point gets
    a float verdict when δ is subnormal or the domain holds no float, nor
    when its window is below float resolution, δ ≤ 8u·|x|.
    """

    def __init__(self, curve: CurveSpec, delta: Fraction):
        self.curve, self.delta = curve, delta
        self.lo, self.hi = _float_ends(curve)
        self.up = _float_above(delta)
        # a / b is correctly rounded, so the next float up exceeds it
        slope, bend = (math.nextafter(a / b, math.inf) for a, b in (
            _coefficient_bound(curve.coords[1], curve.domain[1], k) for k in (1, 2)))
        self.speed = math.sqrt(1 + slope * slope) * (1 + 1e-12)
        self.accel = bend
        flat = math.sqrt(2 * self.up / self.accel) if self.accel else math.inf
        self.chords = max(1, min(_WINDOW_CHORDS, math.ceil(2 * self.up / flat)))
        self.clear = self.lo <= self.hi and float(delta) >= sys.float_info.min

    def verdicts(self, pts: np.ndarray):
        """(clear hit, clear miss) of each row (x, y) of pts, the correctly
        rounded floats of an exact point."""
        x, m = pts[:, 0], self.chords
        grow = 4 * _U * (np.abs(x) + self.up)
        a = np.maximum(self.lo, x - self.up - grow)
        b = np.minimum(self.hi, x + self.up + grow)
        t = np.minimum(a[:, None] + ((b - a) / m)[:, None] * np.arange(m + 1), b[:, None])
        t[:, -1] = b
        h = np.diff(t, axis=1).max(axis=1) * (1 + 1e-12)
        gamma = eval_array(self.curve, t)
        slack = _chord_slack(h, _float_error(self.curve, float(np.abs(pts).max())),
                             self.speed, self.accel, 2)
        clear = self.clear & (a <= b) & (self.up > 8 * _U * np.abs(x))
        return _float_verdicts(self.delta, np.repeat(pts, m, axis=0),
                               gamma[:, :-1].reshape(-1, 2), gamma[:, 1:].reshape(-1, 2),
                               np.arange(0, m * len(pts), m), np.repeat(slack, m), clear)


def _walk_circle(curve: CurveSpec, delta: Fraction, source: LatticeSource,
                 cap: int) -> tuple:
    """Lattice hits of the tube around the full unit circle, as (count,
    points).

    Since dist(p, circle) = | |p| − 1 |, p = (i, j)/N is a hit exactly when
    N²·r_in ≤ i² + j² ≤ N²·r_out for r_in = max(0, 1 − δ)² and
    r_out = (1 + δ)², that is when inner ≤ i² + j² ≤ outer for the
    integers inner = ⌈N²·r_in⌉ and outer = ⌊N²·r_out⌋.  In column i the
    hits are the j with j² ≤ outer − i² and j² ≥ inner − i²: one run, or two
    mirrored ones, whose ends ``math.isqrt`` gives.
    """
    N = source.N
    r_in, r_out = max(Fraction(0), 1 - delta) ** 2, (1 + delta) ** 2
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
    return len(hits), hits


def _column_walk(curve: CurveSpec):
    """The column walk that decides lattice queries on this curve, or None:
    planar polynomial graphs and the full unit circle have one."""
    if curve.dimension == 2 and curve.is_exact and curve.is_graph_form:
        return _walk_graph
    if (curve.coords, curve.domain) == (_UNIT_CIRCLE.coords, _UNIT_CIRCLE.domain):
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


def _float_ends(curve: CurveSpec) -> tuple:
    """The least and the largest float of the domain [lo, hi]; the first
    exceeds the second when the domain holds no float.  The domain lies in
    [0, 1], so a parameter of it outside them is within ulp(1) of one."""
    lo, hi = curve.domain
    return _float_above(lo), _float_below(hi)


def count_in_tube(query: TubeQuery, keep_points: bool = True,
                  cap: int | None = None) -> CountResult:
    """Exact-or-certified count of source points with dist(p, Γ) ≤ δ.

    A lattice box around a planar polynomial graph or the full unit circle
    is walked column by column; every other query lists (point, segment)
    candidates over the arcs of δ-flat chords.  The graph walk and the arcs
    feed one decision stage: ``_float_verdicts`` on chords, then one
    ``_exact_near`` pass for what the floats leave open.  ``points`` holds
    the hits in sorted order when ``keep_points``; a walk builds no
    ``Fraction`` for a hit otherwise."""
    cap = pointsets.ENUMERATION_CAP if cap is None else cap
    curve = query.curve
    delta_q = query.delta
    delta = float(delta_q)
    if isinstance(query.source, LatticeSource):
        walk = _column_walk(curve)
        if walk is not None:
            # every verdict is sound, and no arc is examined
            count, hits = walk(curve, delta_q, query.source, cap)
            return _result(count, hits, 0, True, keep_points)
        cells = _LatticeCells(query.source)
    else:
        fs, pts = materialize_source(query.source, cap)
        cells = _PointCells(fs, pts, delta)
    if cells.empty:
        return _result(0, (), 0, True, keep_points)
    if cells.dim != curve.dimension:
        raise InvalidQuery("source dimension does not match the curve")

    if not curve.is_exact and any(fn.tau_power for fn in curve.coords):
        raise InvalidQuery("a coordinate carries a power of 2π; |γ − p|² is not rational")
    # float ends inside the domain, so that every float parameter is on it;
    # a domain between two floats gets one point and no float verdict
    lo_f, hi_f = _float_ends(curve)
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
    err = _float_error(curve, cells.extent)
    # no point within δ (as a float ≥ δ) falls outside its box, whose ends
    # round by two ulps
    pad = _float_above(delta_q) * (1 + 1e-12) + _chord_slack(h, err, speed, accel, 1)
    pad += 2 * math.ulp(float(np.abs(gamma).max()) + pad)
    pid, seg = _candidate_pairs(cells, gamma, pad, cap)
    ids, first = np.unique(pid, return_index=True)
    hit, miss = _float_verdicts(
        delta_q, cells.points(pid), gamma[seg], gamma[seg + 1], first,
        _chord_slack(h, err, speed, accel, curve.dimension), inside)
    todo = np.flatnonzero(~hit & ~miss)
    verdicts = _exact_near(curve, [cells.exact(i) for i in ids[todo].tolist()], delta_q)
    hit[todo] = [v is not False for v in verdicts]
    hits = ids[hit].tolist()
    return _result(len(hits), map(cells.exact, hits), n_seg,
                   None not in verdicts, keep_points)


def _float_verdicts(delta: Fraction, p: np.ndarray, a: np.ndarray, b: np.ndarray,
                    first: np.ndarray, slack, clear):
    """(clear hit, clear miss) of each candidate, in floats; what neither
    marks goes to the exact pass.

    Row r pairs the float point p[r] with a chord [a[r], b[r]]: the float γ
    at two parameters of the domain.  Candidate k owns the rows from
    first[k] to the next candidate's, whose parameter pieces cover every
    curve point within δ of it, apart from the domain's pieces outside its
    float ends.  ``slack`` (per row, or one float; ``_chord_slack``) bounds
    the gap between the exact distance to the arc over a piece and the
    float one to its chord, beyond the rounding of that distance
    (``_chord_bounds``), those end pieces included.  A candidate is a
    clear hit when some chord has d + slack ≤ δ and a clear miss when every
    one has d − slack > δ, with room for the rounding of each sum.  Only
    the candidates ``clear`` marks (per candidate, or one bool) get either.
    """
    d, bound = _chord_bounds(p, a, b)
    bound += slack
    hit = clear & (np.minimum.reduceat(d + bound, first)
                   <= _float_below(delta) * (1 - 4 * _U))
    miss = clear & (np.minimum.reduceat(d - bound, first)
                    > _float_above(delta) * (1 + 4 * _U))
    return hit, miss


def _chord_slack(h, err: float, speed: float, accel: float, dim: int):
    """The slack of ``_float_verdicts`` in dim coordinates, for chords over
    parameter pieces of length ≤ h (one float, or one per row): the
    sagitta accel·h²/8, the float error err of a chord's ends and of the
    point in each coordinate (``_float_error``), and the curve over the
    domain's pieces outside its float ends, shorter than ulp(1), for speed
    and accel bounds on |γ′| and |γ″|; with room for their rounding."""
    return (accel * h * h / 8 + math.sqrt(dim) * err + speed * math.ulp(1.0)) * (1 + 1e-12)


def _float_error(curve: CurveSpec, extent: float) -> float:
    """A bound on the float error of each coordinate of γ(t) at a float t of
    the domain, and of a correctly rounded point's coordinates below extent
    in size (half an ulp of the largest)."""
    return max(fn.error_estimate(*curve.domain) for fn in curve.coords) + _U * extent


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


class _SampleGrid:
    """``np.linspace(lo, hi, n + 1)`` addressed by index, with no array
    built: numpy forms entry i as i·step + lo, for step = (hi − lo)/n, and
    sets the last to hi.  Indices may be negative, as an array's may.  (numpy
    scales i/n by hi − lo instead when the step underflows to 0, which needs
    hi − lo below n·2⁻¹⁰⁷⁴.)"""

    def __init__(self, lo: float, hi: float, n: int):
        self.lo, self.hi, self.n = lo, hi, n
        self.step = (hi - lo) / n

    def __len__(self) -> int:
        return self.n + 1

    def __getitem__(self, i) -> np.ndarray:
        i = np.asarray(i)
        i = np.where(i < 0, i + self.n + 1, i)
        return np.where(i == self.n, self.hi, i * self.step + self.lo)


def _chunks(counts: np.ndarray):
    """``_expand(counts)`` in pieces of about ``_PAIR_BLOCK`` items, each
    owner whole in one piece."""
    ends = np.cumsum(counts)
    starts = ends - counts
    i = 0
    while i < len(counts):
        j = max(i + 1, int(np.searchsorted(ends, starts[i] + _PAIR_BLOCK, "right")))
        owner = np.repeat(np.arange(i, j), counts[i:j])
        yield owner, np.arange(starts[i], ends[j - 1]) - starts[owner]
        i = j


def _reach_pairs(pts: np.ndarray, centers: np.ndarray, reach: float):
    """(row of pts, center) pairs with fl(Σ(p − c)²) < fl(reach²), in center
    order.

    The points are sorted on the keys a + ib of their two widest axes a and
    b (a = 0 and b = n − 1 when n ≤ 2; numpy orders complex numbers
    lexicographically), and a column is a run of equal a-floats.  Float
    rounding is monotone and reach is a float, so a point with
    |p_k − c_k| ≥ reach has |fl(p_k − c_k)| ≥ reach and a float sum of
    squares of at least fl(reach²): a point that passes lies strictly within
    reach of c on each axis, and so between fl(c_k − reach) and
    fl(c_k + reach).  Bisection finds the columns in that range of c_a, and
    then, in the keys, each column's run in that range of c_b.  The
    (center, column) runs, and then their points, are listed about
    ``_PAIR_BLOCK`` at a time.
    """
    widest = np.argsort([x.min() - x.max() for x in pts.T], kind="stable")[:2]
    a, b = int(min(widest)), int(max(widest))
    keys = pts[:, a] + 1j * pts[:, b]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    cols = _distinct(keys.real)
    ca, cb = centers[:, a], centers[:, b]
    first = np.searchsorted(cols, ca - reach, "left")
    pids, cids = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for center, col in _chunks(np.searchsorted(cols, ca + reach, "right") - first):
        col = cols[first[center] + col]
        start = np.searchsorted(keys, col + 1j * (cb[center] - reach), "left")
        count = np.searchsorted(keys, col + 1j * (cb[center] + reach), "right") - start
        for run, rank in _chunks(count):
            pid, cid = order[start[run] + rank], center[run]
            keep = _sum_sq(pts[pid] - centers[cid]) < reach * reach
            pids.append(pid[keep])
            cids.append(cid[keep])
    return np.concatenate(pids), np.concatenate(cids)


def _grid_nearest(curve: CurveSpec, grid: _SampleGrid, pts: np.ndarray,
                  upper: float, speed: float):
    """Squared distance d2 from each row of pts to its nearest sample γ(grid[i]),
    and that sample's index (ties go to the lowest), from only the samples
    that can be closer than ``upper``.  Both are meaningful only where
    d2 < upper²; elsewhere d2 ≥ upper² (inf where no block is paired with
    the point).

    The grid is cut into blocks of K = ``_SAMPLE_BLOCK`` samples.  A coarse
    step evaluates each block's first sample and pairs it with the points
    within ``reach`` of it, by bisection in their sorted floats
    (``_reach_pairs``, every source alike); the dense step evaluates each
    paired block and measures it against its points only.  Every sample ĝ_j
    whose float squared distance to a point p is below fl(upper²) is in a
    block paired with p, with n the dimension, u the unit roundoff and ĝ_k
    the first sample of j's block:

    - a float sum of n squared differences is within (n + 2)u relative of
      the exact one, so |p − ĝ_j| < upper·(1 + (n + 3)u);
    - |ĝ_j − ĝ_k| ≤ speed·|t_j − t_k| + 2√n·err: speed bounds |γ′| on the
      float grid, and err, the largest ``error_estimate`` of a coordinate,
      bounds each coordinate of both samples;
    - the grid forms t_i = fl(fl(i·step) + lo) with step = fl(fl(hi − lo)/n),
      within 4u(|lo| + |hi|) of lo + i·dt, and t_n = hi, so |t_j − t_k| ≤
      (K − 1)·dt + 8u(|lo| + |hi|), and K·dt covers (K − 1)·dt and its own
      rounding;
    - so |p − ĝ_k| is below upper + speed·(K·dt + 8u(|lo| + |hi|)) + 2√n·err
      times 1 + (n + 3)u, and the factor 1 + 4(n + 8)u on ``reach`` covers
      that, the rounding of ĝ_k's squared distance, of reach² and of the
      dozen operations that form it.

    Each sample is evaluated elementwise, bit for bit as in one pass over the
    grid, so distances and ties below ``upper`` are those of every sample.
    """
    K, n = _SAMPLE_BLOCK, curve.dimension
    lo, hi = grid.lo, grid.hi
    err = max(fn.error_estimate(*curve.domain) for fn in curve.coords)
    step = K * (hi - lo) / grid.n + 8 * _U * (abs(lo) + abs(hi))
    reach = (upper + speed * step + 2 * math.sqrt(n) * err) * (1 + 4 * (n + 8) * _U)
    pid, block = _reach_pairs(pts, eval_array(curve, grid[np.arange(0, len(grid), K)]),
                              reach)
    d2 = np.full(len(pts), np.inf)
    nearest = np.full(len(pts), len(grid))
    best = np.empty(len(pid))
    at = np.empty(len(pid), dtype=np.int64)
    per_chunk = max(1, _PAIR_BLOCK // K)
    for s in range(0, len(pid), per_chunk):
        # each block once, however many points it is paired with
        blocks, inv = np.unique(block[s:s + per_chunk], return_inverse=True)
        sid = blocks[:, None] * K + np.arange(K)
        samples = eval_array(curve, grid[np.minimum(sid, grid.n).ravel()])
        samples = samples.reshape(len(blocks), K, n)[inv]
        sid = sid[inv]
        dist = _sum_sq(samples - pts[pid[s:s + per_chunk]][:, None, :])
        dist[sid > grid.n] = np.inf
        first = dist.argmin(axis=1)   # the first of equal minima
        rows = np.arange(len(first))
        best[s:s + per_chunk] = dist[rows, first]
        at[s:s + per_chunk] = sid[rows, first]
    np.minimum.at(d2, pid, best)
    tie = best == d2[pid]
    np.minimum.at(nearest, pid[tie], at[tie])
    return d2, nearest


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


def brute_force_tube_oracle(query: TubeQuery, keep_points: bool = True,
                            cap: int | None = None) -> CountResult:
    """Oracle counter: the nearest sample on a grid at arclength resolution
    δ/100, and a vectorized zoom over the points the sampled distance cannot
    decide.  Only the samples that can lie within ``upper`` of a point are
    evaluated, and only against that point (``_grid_nearest``: blocks of 100
    samples, paired with the points within upper + speed·100·dt of their
    first one, plus a margin for the evaluation error and rounding); nothing
    else reads the others."""
    curve = query.curve
    delta = float(query.delta)
    band = AMBIGUITY_REL * delta
    fs, pts = materialize_source(query.source, cap)
    if not len(pts):
        return _result(0, (), 0, True, keep_points)
    if pts.shape[1] != curve.dimension:
        raise InvalidQuery("source dimension does not match the curve")

    lo, hi = float(curve.domain[0]), float(curve.domain[1])
    width = hi - lo
    speed = max(derivative_sup_bound(curve, 1), 1e-12)
    h_arc = delta / 100.0
    n_samp = max(8, math.ceil(width * speed / h_arc))
    if n_samp > MAX_ORACLE_SAMPLES:
        raise InvalidQuery("oracle sampling budget exceeded; delta too small")
    grid = _SampleGrid(lo, hi, n_samp)
    slack = h_arc / 2.0
    # with no sample closer than upper, the distance exceeds delta + band
    upper = delta + band + slack + 1e-15
    d2, nearest = _grid_nearest(curve, grid, pts, upper, speed)
    d = np.sqrt(d2)
    # the true distance lies in [d - slack, d]
    near = d2 < upper * upper
    inside = near & (d <= delta - band)
    todo = np.flatnonzero(near & ~inside & ~(d - slack > delta + band))
    d_star = _zoom(curve, pts[todo], grid[nearest[todo]], lo, hi,
                   width / n_samp)
    inside[todo[d_star <= delta]] = True
    matched = np.flatnonzero(inside)
    return _result(len(matched), map(fs._point, matched.tolist()), n_samp,
                   not (np.abs(d_star - delta) <= band).any(), keep_points)
