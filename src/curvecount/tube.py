"""Counting points of exact finite sets and scaled lattices in the closed
δ-neighborhood of a curve.

The production counter subdivides the parameter interval into arcs of chord
length ≤ δ (a sup-speed bound sizes the grid; chords are verified and split
further if needed), inflates each arc's bounding box by δ plus a sagitta
bound, gathers candidates from a uniform-grid index over the source points,
and decides each candidate by bisecting the stationarity condition
(γ(t) − p)·γ'(t) = 0 of the squared distance on the candidate arcs.

Distance tests that land inside the relative ambiguity band |d − δ| ≤ 1e-9·δ
are counted by the closed-boundary rule but clear the result's certified
flag: floating point cannot resolve them, and silently guessing is worse
than saying so.

The brute-force oracle is an independent second route: dense curve sampling
at arclength resolution δ/100, nearest-neighbor queries through a k-d tree,
and a zoom refinement for points whose sampled distance cannot already
decide membership.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
from scipy.spatial import cKDTree

from . import polys
from .curves import (CurveSpec, derivative_sup_bound, eval_array, point_fn,
                     velocity_fn)
from . import pointsets
from .pointsets import (CapExceeded, FiniteSet, Gap, gap_enumerate,
                        min_separation)

MAX_SEGMENTS = 4_000_000
MAX_ORACLE_SAMPLES = 40_000_000


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
        if self.N < 1:
            raise InvalidQuery("lattice N must be >= 1")
        if self.box is None or len(self.box) != 2:
            raise InvalidQuery("lattice source needs a bounded 2d box")
        for pair in self.box:
            lo, hi = Fraction(pair[0]), Fraction(pair[1])
            if lo > hi:
                raise InvalidQuery("box bounds out of order")


@dataclass(frozen=True)
class GapSource:
    gap: Gap


@dataclass(frozen=True)
class TubeQuery:
    """Closed-neighborhood membership query: distance ≤ delta."""
    curve: CurveSpec
    delta: Fraction | float
    source: ExplicitSource | LatticeSource | GapSource
    ambiguity_rel: float = 1e-9

    def __post_init__(self):
        if float(self.delta) <= 0:
            raise InvalidQuery("delta must be positive")
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


def delta_from_rule(d, N: int, n: int) -> Fraction:
    """Exact neighborhood width δ = d / N^n for the scaling experiments."""
    return Fraction(d) / Fraction(N) ** n


def materialize_source(source, cap: int | None = None):
    """Expand a source into (sorted exact points, separation hint or None)."""
    cap = pointsets.ENUMERATION_CAP if cap is None else cap
    if isinstance(source, ExplicitSource):
        pts = list(source.points)   # FiniteSet iterates in sorted order
        sep = min_separation(source.points) if 2 <= len(pts) <= 1024 else None
        return pts, sep
    if isinstance(source, LatticeSource):
        (xl, xh), (yl, yh) = ((Fraction(a), Fraction(b)) for a, b in source.box)
        N = source.N
        nx = math.floor(xh * N) - math.ceil(xl * N) + 1
        ny = math.floor(yh * N) - math.ceil(yl * N) + 1
        if nx <= 0 or ny <= 0:
            return [], 1.0 / N
        if nx * ny > cap:
            raise CapExceeded(f"lattice box holds {nx * ny} points, cap {cap}")
        pts = [(Fraction(i, N), Fraction(j, N))
               for i in range(math.ceil(xl * N), math.floor(xh * N) + 1)
               for j in range(math.ceil(yl * N), math.floor(yh * N) + 1)]
        return pts, 1.0 / N
    if isinstance(source, GapSource):
        fs = gap_enumerate(source.gap, cap)
        pts = list(fs)
        sep = min_separation(fs) if 2 <= len(pts) <= 1024 else None
        return pts, sep
    raise InvalidQuery(f"unsupported source {type(source).__name__}")


def count_on_curve_lattice(graph: CurveSpec, N: int, x_range=None) -> FiniteSet:
    """Exact enumeration of Γ ∩ (1/N Z)² for a polynomial graph y = f(x).

    x = k/N is on the curve iff N·f(k/N) is an integer, an exact rational
    test; no floating point is involved.
    """
    if graph.dimension != 2 or not graph.is_exact or not graph.is_graph_form:
        raise InvalidQuery("count_on_curve_lattice needs a planar polynomial graph")
    if N < 1:
        raise ValueError("N must be >= 1")
    dlo, dhi = graph.domain
    if x_range is None:
        xl, xh = dlo, dhi
    else:
        xl, xh = max(Fraction(x_range[0]), dlo), min(Fraction(x_range[1]), dhi)
    f = graph.coords[1].coeffs
    pts = []
    for k in range(math.ceil(xl * N), math.floor(xh * N) + 1):
        x = Fraction(k, N)
        y = polys.eval_exact(f, x)
        if (y * N).denominator == 1:
            pts.append((x, y))
    return FiniteSet(pts, dimension=2)


def _grid_cell_side(delta: float, sep_hint, pts: np.ndarray) -> float:
    if sep_hint:
        return max(delta, float(sep_hint))
    if len(pts) >= 2:
        spans = pts.max(axis=0) - pts.min(axis=0)
        area = float(np.prod(np.maximum(spans, 1e-12)))
        density_side = (area / len(pts)) ** (1.0 / pts.shape[1])
        return max(delta, density_side)
    return max(delta, 1.0)


def _min_dist_sq_on_arc(fp, fv, p, a: float, b: float, nodes: int = 8,
                        bits: int = 52) -> float:
    """Minimum squared distance from p to the arc γ([a, b]).

    Samples the stationarity function g(t) = (γ(t) − p)·γ'(t) and bisects
    every sign change; the arc minimum is attained at an endpoint or a
    stationary point.
    """
    def dist_sq(t: float) -> float:
        q = fp(t)
        return sum((qc - pc) * (qc - pc) for qc, pc in zip(q, p))

    def g(t: float) -> float:
        q = fp(t)
        w = fv(t)
        return sum((qc - pc) * wc for qc, pc, wc in zip(q, p, w))

    if b <= a:
        return dist_sq(a)
    step = (b - a) / nodes
    ts = [a + step * k for k in range(nodes + 1)]
    gs = [g(t) for t in ts]
    best = min(dist_sq(a), dist_sq(b))
    for k in range(nodes):
        g0, g1 = gs[k], gs[k + 1]
        if g0 == 0.0:
            best = min(best, dist_sq(ts[k]))
            continue
        if g0 * g1 < 0.0:
            lo, hi = ts[k], ts[k + 1]
            slo = g0
            for _ in range(bits):
                mid = 0.5 * (lo + hi)
                gm = g(mid)
                if gm == 0.0:
                    lo = hi = mid
                    break
                if (gm > 0.0) == (slo > 0.0):
                    lo, slo = mid, gm
                else:
                    hi = mid
            best = min(best, dist_sq(0.5 * (lo + hi)))
    if gs[-1] == 0.0:
        best = min(best, dist_sq(b))
    return best


def count_in_tube(query: TubeQuery, keep_points: bool = True) -> CountResult:
    """Exact-or-certified count of source points with dist(p, Γ) ≤ δ."""
    curve = query.curve
    delta = float(query.delta)
    band = query.ambiguity_rel * delta
    pts_exact, sep_hint = materialize_source(query.source)
    if not pts_exact:
        return CountResult(0, () if keep_points else None, 0, True)
    if len(pts_exact[0]) != curve.dimension:
        raise InvalidQuery("source dimension does not match the curve")
    pts = np.array([[float(c) for c in p] for p in pts_exact], dtype=float)
    dim = curve.dimension

    lo, hi = float(curve.domain[0]), float(curve.domain[1])
    width = hi - lo
    speed = derivative_sup_bound(curve, 1)
    accel = derivative_sup_bound(curve, 2)

    n_seg = max(1, min(MAX_SEGMENTS, math.ceil(speed * width / delta)))
    while True:
        ts = np.linspace(lo, hi, n_seg + 1)
        gamma = eval_array(curve, ts)
        chord = np.linalg.norm(np.diff(gamma, axis=0), axis=1)
        if n_seg >= MAX_SEGMENTS or (chord <= delta * (1 + 1e-12)).all():
            break
        n_seg = min(MAX_SEGMENTS, n_seg * 2)
    h = width / n_seg
    sagitta = accel * h * h / 8.0
    pad = delta * (1.0 + 3.0 * query.ambiguity_rel) + sagitta + 1e-15

    box_min = np.minimum(gamma[:-1], gamma[1:]) - pad
    box_max = np.maximum(gamma[:-1], gamma[1:]) + pad

    candidate_segs: dict = defaultdict(list)
    sep_val = float(sep_hint) if sep_hint else None
    r_ball = math.sqrt(dim) * (float(chord.max()) + pad) * (1 + 1e-9)
    if n_seg > 200_000 and sep_val and r_ball < sep_val / 2:
        # huge segment counts (δ far below the source separation): a box
        # candidate lies within
        # r_ball of one of the segment's endpoints, and r_ball < s/2 means
        # at most one source point can be that close, so one pruned
        # nearest-neighbor pass over the endpoints finds every pair
        tree = cKDTree(pts)
        d_end, j_end = tree.query(gamma, k=1, distance_upper_bound=r_ball)
        pairs = set()
        for e in np.nonzero(np.isfinite(d_end))[0]:
            pidx = int(j_end[e])
            p = pts[pidx]
            for seg in (int(e) - 1, int(e)):
                if 0 <= seg < n_seg and \
                        all(box_min[seg, d] <= p[d] <= box_max[seg, d]
                            for d in range(dim)):
                    pairs.add((pidx, seg))
        for pidx, seg in sorted(pairs):
            candidate_segs[pidx].append(seg)
    else:
        cell = _grid_cell_side(delta, sep_hint, pts)
        grid: dict = defaultdict(list)
        for idx, key in enumerate(map(tuple,
                                      np.floor(pts / cell).astype(np.int64))):
            grid[key].append(idx)
        lo_cells = np.floor(box_min / cell).astype(np.int64)
        hi_cells = np.floor(box_max / cell).astype(np.int64)
        for i in range(n_seg):
            ranges = [range(lo_cells[i, d], hi_cells[i, d] + 1)
                      for d in range(dim)]
            bmin = box_min[i]
            bmax = box_max[i]
            for key in product(*ranges):
                for idx in grid.get(key, ()):
                    p = pts[idx]
                    inside = True
                    for d in range(dim):
                        if not (bmin[d] <= p[d] <= bmax[d]):
                            inside = False
                            break
                    if inside:
                        segs = candidate_segs[idx]
                        if not segs or segs[-1] != i:
                            segs.append(i)

    fp = point_fn(curve)
    fv = velocity_fn(curve)
    t_nodes = ts.tolist()

    matched = []
    certified = True
    for idx, segs in candidate_segs.items():
        # merge consecutive segments into parameter intervals
        intervals = []
        start = prev = segs[0]
        for s in segs[1:]:
            if s == prev + 1:
                prev = s
            else:
                intervals.append((t_nodes[start], t_nodes[prev + 1]))
                start = prev = s
        intervals.append((t_nodes[start], t_nodes[prev + 1]))

        p = tuple(pts[idx])
        best = min(_min_dist_sq_on_arc(fp, fv, p, a, b) for a, b in intervals)
        dist = math.sqrt(best)
        if abs(dist - delta) <= band:
            certified = False
            if dist <= delta:
                matched.append(idx)
        elif dist <= delta:
            matched.append(idx)

    matched_points = tuple(pts_exact[i] for i in sorted(matched))
    return CountResult(
        count=len(matched_points),
        points=matched_points if keep_points else None,
        arcs_examined=n_seg,
        certified=certified,
    )


def brute_force_tube_oracle(query: TubeQuery, keep_points: bool = True) -> CountResult:
    """Oracle counter: dense sampling at arclength resolution δ/100, nearest
    neighbor via k-d tree, zoom refinement for undecided points."""
    curve = query.curve
    delta = float(query.delta)
    band = query.ambiguity_rel * delta
    pts_exact, _ = materialize_source(query.source)
    if len(pts_exact) > 10 ** 6:
        raise InvalidQuery("oracle limited to 1e6 source points")
    if not pts_exact:
        return CountResult(0, () if keep_points else None, 0, True)
    if len(pts_exact[0]) != curve.dimension:
        raise InvalidQuery("source dimension does not match the curve")
    pts = np.array([[float(c) for c in p] for p in pts_exact], dtype=float)

    lo, hi = float(curve.domain[0]), float(curve.domain[1])
    width = hi - lo
    speed = max(derivative_sup_bound(curve, 1), 1e-12)
    h_arc = delta / 100.0
    n_samp = max(8, math.ceil(width * speed / h_arc))
    if n_samp > MAX_ORACLE_SAMPLES:
        raise InvalidQuery("oracle sampling budget exceeded; delta too small")
    ts = np.linspace(lo, hi, n_samp + 1)
    samples = eval_array(curve, ts)
    tree = cKDTree(samples)
    slack = h_arc / 2.0
    # points whose every sample distance exceeds this bound are certainly
    # outside; the pruning makes the nearest-neighbor pass tractable
    upper = delta + band + slack + 1e-15
    d_hat, nearest = tree.query(pts, k=1, distance_upper_bound=upper)

    fp = point_fn(curve)
    dt = width / n_samp

    def refine(p, t_center: float) -> float:
        a = max(lo, t_center - dt)
        b = min(hi, t_center + dt)
        for _ in range(5):
            k = 64
            step = (b - a) / k
            best_t, best_d2 = a, None
            for j in range(k + 1):
                t = a + step * j
                q = fp(t)
                d2 = sum((qc - pc) * (qc - pc) for qc, pc in zip(q, p))
                if best_d2 is None or d2 < best_d2:
                    best_t, best_d2 = t, d2
            a = max(lo, best_t - 2 * step)
            b = min(hi, best_t + 2 * step)
        return math.sqrt(best_d2)

    matched = []
    certified = True
    for i in range(len(pts)):
        d = float(d_hat[i])
        if not math.isfinite(d):
            # no sample within the pruning bound: min sample distance exceeds
            # delta + band + slack, so the true distance exceeds delta + band
            continue
        if d <= delta - band:
            # sampled distance bounds the true one from above: clearly inside
            matched.append(i)
            continue
        if d - slack > delta + band:
            # true distance is at least d - slack: clearly outside
            continue
        d_star = refine(tuple(pts[i]), float(ts[nearest[i]]))
        if abs(d_star - delta) <= band:
            certified = False
            if d_star <= delta:
                matched.append(i)
        elif d_star <= delta:
            matched.append(i)

    matched_points = tuple(pts_exact[i] for i in sorted(matched))
    return CountResult(
        count=len(matched_points),
        points=matched_points if keep_points else None,
        arcs_examined=n_samp,
        certified=certified,
    )
