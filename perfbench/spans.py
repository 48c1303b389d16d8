"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of ``curvecount`` from the outside: every
module attribute that is the function object (for example both
``curvecount.curves.eval_array`` and ``curvecount.tube.eval_array``, the
name ``tube`` looks up) is replaced by one wrapper, so calls are seen no
matter which module makes them.  Nothing inside ``src/`` is changed, and the
untraced run installs no wrapper at all.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  Work counters are read from the call's arguments and
result when it returns; the one that needs real work (the energy update
count) keeps its arguments and is computed after the pass, outside every
span.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from fractions import Fraction

from curvecount import tube

# span name -> (module path, attribute).  The attribute is read from the
# defining module, then replaced wherever a curvecount module holds it.
TRACED = {
    "tube.materialize_source": ("curvecount.tube", "materialize_source"),
    "tube.count_in_tube": ("curvecount.tube", "count_in_tube"),
    "tube.oracle": ("curvecount.tube", "brute_force_tube_oracle"),
    "tube.count_on_curve_lattice": ("curvecount.tube", "count_on_curve_lattice"),
    "curves.eval_array": ("curvecount.curves", "eval_array"),
    "curves.derivative_sup_bound": ("curvecount.curves", "derivative_sup_bound"),
    "curves.wronskian_symbolic": ("curvecount.curves", "wronskian_symbolic"),
    "curves.certify_nondegenerate": ("curvecount.curves", "certify_nondegenerate"),
    "lifting.lift_curve": ("curvecount.lifting", "lift_curve"),
    "lifting.check_lattice_bijection": ("curvecount.lifting",
                                        "check_lattice_bijection"),
    "polys.isolate_roots": ("curvecount.polys", "isolate_roots"),
    "polys.refine_root": ("curvecount.polys", "refine_root"),
    "hyperplanes.intersect": ("curvecount.hyperplanes", "intersect"),
    "hyperplanes.mvt_consistency": ("curvecount.hyperplanes", "mvt_consistency"),
    "hyperplanes.survey_intersections": ("curvecount.hyperplanes",
                                         "survey_intersections"),
    "pointsets.gap_enumerate": ("curvecount.pointsets", "gap_enumerate"),
    "pointsets.min_separation": ("curvecount.pointsets", "min_separation"),
    "pointsets.sumset": ("curvecount.pointsets", "sumset"),
    "pointsets.doubling": ("curvecount.pointsets", "doubling"),
    "pointsets.m_fold_sumset": ("curvecount.pointsets", "m_fold_sumset"),
    "pointsets.representation_counts": ("curvecount.pointsets",
                                        "representation_counts"),
    "pointsets.check_plunnecke": ("curvecount.pointsets", "check_plunnecke"),
    "pointsets.check_energy_lower_bound": ("curvecount.pointsets",
                                           "check_energy_lower_bound"),
    "experiments.run_inequality_campaign": ("curvecount.experiments",
                                            "run_inequality_campaign"),
    "experiments.run_exponent_experiment": ("curvecount.experiments",
                                            "run_exponent_experiment"),
    "experiments.run_energy_experiment": ("curvecount.experiments",
                                          "run_energy_experiment"),
}

BUSY = ("tube.materialize_source", "tube.count_in_tube", "tube.oracle",
        "tube.count_on_curve_lattice", "curves.eval_array",
        "curves.derivative_sup_bound", "curves.wronskian_symbolic",
        "curves.certify_nondegenerate", "lifting.lift_curve",
        "lifting.check_lattice_bijection", "polys.isolate_roots",
        "polys.refine_root", "hyperplanes.intersect",
        "hyperplanes.mvt_consistency", "hyperplanes.survey_intersections",
        "pointsets.gap_enumerate", "pointsets.min_separation",
        "pointsets.sumset", "pointsets.doubling", "pointsets.m_fold_sumset",
        "pointsets.representation_counts", "pointsets.check_plunnecke",
        "pointsets.check_energy_lower_bound")
SELF = ("tube.count_in_tube", "experiments.run_inequality_campaign",
        "experiments.run_exponent_experiment",
        "experiments.run_energy_experiment")
CALLS = ("polys.isolate_roots", "hyperplanes.intersect")
COUNTERS = ("tube.source_points", "tube.arcs_examined", "tube.segments_capped",
            "tube.hits", "tube.oracle.samples", "tube.on_curve_x_tested",
            "curves.eval_array.points", "lifting.points_checked",
            "hyperplanes.roots", "pointsets.gap_enumerate.points",
            "pointsets.min_separation.pairs", "pointsets.sumset.pairs",
            "pointsets.energy_updates")
# op-level counts, filled in by the runner from the checked results
OP_COUNTERS = ("tube.uncertified", "tube.failed")
RATIOS = ("tube.hit_ratio", "pointsets.sumset.distinct_ratio")


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    units.update({f"{n}.busy_s": "s" for n in BUSY})
    units.update({f"{n}.self_s": "s" for n in SELF})
    units["hyperplanes.self_s"] = "s"
    units.update({f"{n}.calls": "count" for n in CALLS})
    units.update({n: "count" for n in COUNTERS + OP_COUNTERS})
    units.update({n: "ratio" for n in RATIOS})
    units.update({"trace.wall_s": "s", "trace.top_level_busy_s": "s",
                  "trace.bench_own_s": "s", "trace_overhead_ratio": "ratio"})
    return units


def _count_on_curve_x(args, kwargs):
    graph, N = args[0], args[1]
    x_range = args[2] if len(args) > 2 else kwargs.get("x_range")
    lo, hi = graph.domain
    if x_range is not None:
        lo, hi = max(Fraction(x_range[0]), lo), min(Fraction(x_range[1]), hi)
    return max(0, math.floor(hi * N) - math.ceil(lo * N) + 1)


def _energy_updates(args, kwargs):
    # representation_counts makes m-1 convolution steps; step k walks the
    # support of the k-fold counts (the set kA) against A
    A, m = args[0], args[1] if len(args) > 1 else kwargs["m"]
    pts = list(A.points)
    dim = A.dimension
    level, total = set(pts), 0
    for _ in range(m - 1):
        total += len(level) * len(pts)
        level = {tuple(s[i] + a[i] for i in range(dim))
                 for s in level for a in pts}
    return total


class Tracer:
    """Records spans and counters while installed; restores on exit."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._pending: list = []   # (counter name, fn, args, kwargs)
        self.counters: dict = defaultdict(float)
        self._patched: list = []   # (module, attribute, original)

    # -- installation -----------------------------------------------------
    def __enter__(self):
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "curvecount"
                                      or name.startswith("curvecount."))]
        for span_name, (mod_name, attr) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name, original)
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        pending = self._pending
        counter = _AFTER.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if counter is not None:
                parent = spans[stack[-1]][0] if stack else None
                for key, value in counter(args, kwargs, result, parent):
                    if callable(value):   # deferred: value(args, kwargs)
                        pending.append((key, value, args, kwargs))
                    else:
                        counters[key] += value
            return result

        return traced

    # -- counters ---------------------------------------------------------
    def settle(self):
        """Evaluate the deferred counters (outside every span)."""
        for key, fn, args, kwargs in self._pending:
            self.counters[key] += fn(args, kwargs)
        self._pending.clear()


def _after_materialize(args, kwargs, result, parent):
    n = len(result[0])
    out = [("tube.source_points", n)]
    if parent == "tube.count_in_tube":
        out.append(("tube.count_in_tube.source_points", n))
    return out


def _after_count(args, kwargs, result, parent):
    return [("tube.arcs_examined", result.arcs_examined),
            ("tube.segments_capped",
             int(result.arcs_examined >= tube.MAX_SEGMENTS)),
            ("tube.hits", result.count)]


def _after_sumset(args, kwargs, result, parent):
    pairs = len(args[0]) * len(args[1])
    return [("pointsets.sumset.pairs", pairs),
            ("pointsets.sumset.distinct", len(result))]


_AFTER = {
    "tube.materialize_source": _after_materialize,
    "tube.count_in_tube": _after_count,
    "tube.oracle": lambda a, k, r, p: [("tube.oracle.samples", r.arcs_examined)],
    "tube.count_on_curve_lattice": lambda a, k, r, p: [
        ("tube.on_curve_x_tested", _count_on_curve_x(a, k))],
    "curves.eval_array": lambda a, k, r, p: [
        ("curves.eval_array.points", len(r))],
    "lifting.check_lattice_bijection": lambda a, k, r, p: [
        ("lifting.points_checked", r.cardinality_base)],
    "hyperplanes.intersect": lambda a, k, r, p: [("hyperplanes.roots", len(r))],
    "pointsets.gap_enumerate": lambda a, k, r, p: [
        ("pointsets.gap_enumerate.points", len(r))],
    "pointsets.min_separation": lambda a, k, r, p: [
        ("pointsets.min_separation.pairs", len(a[0]) * (len(a[0]) - 1) // 2)],
    "pointsets.sumset": _after_sumset,
    "pointsets.representation_counts": lambda a, k, r, p: [
        ("pointsets.energy_updates", _energy_updates)],
}


def layer_metrics(spans, counters) -> dict:
    """Busy, self and call metrics of one traced pass, plus its counters.

    Busy time of a name is the summed duration of its spans; self time
    subtracts the durations of each span's direct children, which nest
    inside it because every call is synchronous.
    """
    busy = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    for name, start, end, parent in spans:
        busy[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_time = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        self_time[name] += (end - start) - child[i]
    out = {f"{n}.busy_s": busy[n] for n in BUSY}
    out.update({f"{n}.self_s": self_time[n] for n in SELF})
    out["hyperplanes.self_s"] = sum(v for n, v in self_time.items()
                                    if n.startswith("hyperplanes."))
    out.update({f"{n}.calls": calls[n] for n in CALLS})
    out.update({n: counters.get(n, 0) for n in COUNTERS})
    src = counters.get("tube.count_in_tube.source_points", 0)
    out["tube.hit_ratio"] = counters.get("tube.hits", 0) / src if src else 0.0
    pairs = counters.get("pointsets.sumset.pairs", 0)
    out["pointsets.sumset.distinct_ratio"] = (
        counters.get("pointsets.sumset.distinct", 0) / pairs if pairs else 0.0)
    out["trace.top_level_busy_s"] = sum(end - start for _, start, end, parent
                                        in spans if parent < 0)
    return out
