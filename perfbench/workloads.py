"""The three benchmark workloads and the check of every result they produce.

``build(workload, seed, refs)`` returns the fixed list of operations of one
pass.  Each operation calls public ``curvecount`` functions through their
module attribute at call time (so the traced run sees the call) and is
checked against ``references.json``, which ``make_references.py`` writes by
routes independent of the code being timed.

Why these workloads (see NOTES.md for the full table):

* ``tube-sweep`` puts almost all of its work in ``tube``: lattice
  materialization, arc subdivision, candidate indexing, float decisions and
  the brute-force oracle, plus thin rows whose segment count hits the cap
  and the boundary reproduction that ``count_in_tube`` gets wrong today.
* ``gap-energy`` runs the paper's additive chain on random proper planar
  GAPs; ``pointsets`` does most of the work and ``tube`` is reached through
  explicit GAP sources, not lattices.
* ``exact-algebra`` exercises ``polys``, ``curves``, ``lifting``,
  ``hyperplanes`` and the exact on-curve lattice path, with no numpy tube
  code and no convolution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Callable

from curvecount import (curves, experiments, hyperplanes, lifting, pointsets,
                        tube)

WORKLOADS = ("tube-sweep", "gap-energy", "exact-algebra")

# -- tube-sweep -------------------------------------------------------------
# curve -> (lattice box, N values).  The circle's box is [-1, 1]², four times
# the points of the unit box, so its N stops at 64 (N = 128 and 256 alone
# would take about 1.4 s and 3.6 s of every pass).
LATTICE = {
    "parabola": (((0, 1), (0, 1)), (8, 16, 32, 64, 128, 256)),
    "cubic": (((0, 1), (0, 1)), (8, 16, 32, 64, 128, 256)),
    "circle": (((-1, 1), (-1, 1)), (8, 16, 32, 64)),
}
LATTICE_D = (1, 4)             # δ = d / N²
LATTICE_SKIP = {(256, 1)}      # 0.4-1.5 s each; N = 256 keeps its d = 4 row
ORACLE_MAX_N = 32              # oracle rows: the same queries up to this N
THIN_N = (8, 64)               # δ = N⁻⁵ on the parabola; 64 hits MAX_SEGMENTS
BOUNDARY_LENGTH = F(1, 10 ** 6)
BOUNDARY_DELTA = F(1, 10 ** 12)
BOUNDARY_POINTS = 199

# -- gap-energy -------------------------------------------------------------
# slot -> (GAP lengths, m, tube curve, δ).  Each run draws one pooled GAP per
# slot from its seed; sizes are fixed per slot so the cost barely depends on
# the draw.
GAP_SLOTS = (
    ((10, 10), 3, "parabola", F(1, 40)),
    ((12, 12), 2, "cubic", F(1, 40)),
    ((4, 5, 5), 3, "parabola", F(1, 40)),
    ((14, 14), 2, "parabola", F(1, 50)),
    ((8, 12), 3, "cubic", F(1, 40)),
)
ENERGY_SCHEDULE = (8, 16, 32, 64)   # lattice tube δ = 1/N² on the parabola
ENERGY_M = (2, 3)
CAMPAIGNS = (("lemma-2.4", 24, 20), ("plunnecke", 1931, 20),
             ("gap-doubling", 7, 4))   # (kind, fixed seed, trials)

# -- exact-algebra ----------------------------------------------------------
SURVEYS = (("parabola", 400, 2), ("moment3", 250, 3), ("moment4", 150, 4),
           ("moment5", 150, 5), ("circle", 40, 2))  # (curve, trials, max roots)
MVT_TRIALS = (("parabola", 150), ("moment3", 100), ("moment4", 60),
              ("moment5", 40))
MOMENT_N = (2, 3, 4, 5)
LIFT_BASES = ("parabola", "cubic", "circle")
LIFT_S = (1, 2, 3)
CERTIFY_GRID = 256
EXPONENT_M = tuple(range(5, 101, 5))     # on-curve schedule N = M², M ≤ 100
BIJECTION_M = tuple(range(2, 41))        # N = M²
BIJECTION_SETS = ("M2", "xy")


def make_curve(name: str):
    if name == "parabola":
        return curves.parabola()
    if name == "cubic":
        return curves.polynomial_curve([[0, 1], [0, 0, 0, 1]])
    if name == "circle":
        return curves.circle_arc()
    if name.startswith("moment"):
        return curves.moment_curve(int(name[len("moment"):]))
    raise KeyError(name)


def make_monomials(name: str):
    if name == "xy":
        return lifting.MonomialSet([(1, 0), (0, 1), (1, 1)])
    return lifting.make_Ms(int(name[1:]))


def boundary_points():
    """The certified-boundary reproduction: 199 points spread along a segment
    of length 10⁻⁶, each at exact distance δ(1 + k·10⁻⁶) above it, so the
    exact count is 0."""
    return [(BOUNDARY_LENGTH * F(k, BOUNDARY_POINTS + 1),
             F(1, 2) + BOUNDARY_DELTA * (1 + F(k, 10 ** 6)))
            for k in range(1, BOUNDARY_POINTS + 1)]


# ---------------------------------------------------------------------------
# Operations and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    ok: bool                    # agrees with the reference, or says it may not
    flags: tuple = ()           # `certified` flags the result carries
    known_defect: bool = False  # wrong in exactly the recorded way
    detail: str = ""            # what was returned, for the run record


@dataclass
class Op:
    key: str                        # the reference the result is checked against
    call: Callable[[], Any]
    check: Callable[[Any], Verdict]
    tube_result: bool = False       # result is a CountResult (tube counters)


def _point_set(points) -> set:
    return {tuple(F(c) for c in p) for p in points}


def check_count(ref: dict) -> Callable[[Any], Verdict]:
    """A CountResult agrees when count and matched points equal the
    reference.  Disagreement is a failure only when certified=True; a known
    defect is a failure that reproduces the recorded wrong answer exactly."""
    expected = _point_set(ref["points"])

    def check(res) -> Verdict:
        agrees = res.count == ref["count"] and _point_set(res.points) == expected
        known = ref.get("known_defect")
        is_known = (not agrees and known is not None
                    and res.count == known["count"]
                    and res.certified == known["certified"])
        return Verdict(agrees or not res.certified, (res.certified,), is_known,
                       f"count {res.count}, certified={res.certified}, "
                       f"exact count {ref['count']}")
    return check


def _lattice_points(ref: dict, N: int) -> dict:
    """A lattice reference stores hits as integer pairs (i, j) for (i/N, j/N)."""
    return {"count": ref["count"],
            "points": [(F(i, N), F(j, N)) for i, j in ref["points"]]}


# ---------------------------------------------------------------------------
# tube-sweep
# ---------------------------------------------------------------------------

def lattice_keys():
    for name, (box, ns) in LATTICE.items():
        for N in ns:
            for d in LATTICE_D:
                if (N, d) not in LATTICE_SKIP:
                    yield name, box, N, d


def _tube_sweep(rng: random.Random, refs: dict) -> list:
    # the thin rows hold the peak memory (arrays over 4M segments); they run
    # first so the heap they start from, and peak_rss_mb, do not depend on
    # the seeded order of the rest
    thin = []
    for N in THIN_N:
        ref = _lattice_points(refs[f"thin:parabola:N{N}"], N)
        thin.append(Op(f"thin:parabola:N{N}", lambda N=N: tube.count_in_tube(
            tube.TubeQuery(curves.parabola(), tube.delta_from_rule(1, N, 5),
                           tube.LatticeSource(N, ((0, 1), (0, 1))))),
            check_count(ref), tube_result=True))
    ops = []
    for name, box, N, d in lattice_keys():
        ref = _lattice_points(refs[f"lattice:{name}:N{N}:d{d}"], N)

        def query(name=name, box=box, N=N, d=d):
            return tube.TubeQuery(make_curve(name), tube.delta_from_rule(d, N, 2),
                                  tube.LatticeSource(N, box))
        ops.append(Op(f"lattice:{name}:N{N}:d{d}",
                      lambda q=query: tube.count_in_tube(q()),
                      check_count(ref), tube_result=True))
        if N <= ORACLE_MAX_N:
            ops.append(Op(f"oracle:{name}:N{N}:d{d}",
                          lambda q=query: tube.brute_force_tube_oracle(q()),
                          check_count(ref), tube_result=True))
    ops.append(Op("boundary", lambda: tube.count_in_tube(tube.TubeQuery(
        curves.line_segment((0, F(1, 2)), (BOUNDARY_LENGTH, F(1, 2))),
        BOUNDARY_DELTA, pointsets.FiniteSet(boundary_points()))),
        check_count(refs["boundary"]), tube_result=True))
    rng.shuffle(ops)
    return thin + ops


# ---------------------------------------------------------------------------
# gap-energy
# ---------------------------------------------------------------------------

def make_gap(inst: dict):
    return pointsets.Gap([F(c) for c in inst["base"]],
                         [[F(c) for c in g] for g in inst["generators"]],
                         inst["lengths"])


def _equal(expected) -> Callable[[Any], Verdict]:
    return lambda got: Verdict(got == expected)


def _gap_slot(slot: int, inst: dict) -> list:
    lengths, m, curve_name, delta = GAP_SLOTS[slot]
    if tuple(inst["lengths"]) != lengths:
        raise ValueError(f"pool instance does not fit slot {slot}")
    gap = make_gap(inst)
    ctx: dict = {}
    tag = f"gap{slot}"

    def enumerate_gap():
        ctx["A"] = pointsets.gap_enumerate(gap)
        return len(ctx["A"])

    def plunnecke():
        rep = pointsets.check_plunnecke(ctx["A"], m)
        return (rep.size_ma, rep.doubling_constant, rep.holds)

    def count():
        res = tube.count_in_tube(tube.TubeQuery(make_curve(curve_name), delta,
                                                tube.GapSource(gap)))
        ctx["B"] = (pointsets.FiniteSet(res.points, dimension=2)
                    if res.points else None)
        return res

    def energy():
        rep = pointsets.check_energy_lower_bound(ctx["A"], ctx["B"], m)
        return (rep.energy, rep.holds)

    K = F(inst["size_2a"], inst["size"])
    ops = [Op(f"{tag}:enumerate", enumerate_gap, _equal(inst["size"])),
           Op(f"{tag}:doubling", lambda: pointsets.doubling(ctx["A"]),
              _equal(K)),
           Op(f"{tag}:plunnecke", plunnecke,
              _equal((inst["size_ma"], K, True))),
           Op(f"{tag}:tube", count,
              check_count({"count": len(inst["hits"]), "points": inst["hits"]}),
              tube_result=True)]
    if inst["hits"]:   # energy is skipped when the tube holds no GAP point
        ops.append(Op(f"{tag}:energy", energy, _equal((inst["energy"], True))))
    return ops


def _gap_energy(rng: random.Random, refs: dict) -> list:
    pools = refs["gap_pools"]
    if len(pools) != len(GAP_SLOTS):
        raise ValueError("gap pools do not match the slots")
    slots = [(s, pools[s][rng.randrange(len(pools[s]))])
             for s in range(len(GAP_SLOTS))]
    rng.shuffle(slots)
    ops = [op for s, inst in slots for op in _gap_slot(s, inst)]
    for m in ENERGY_M:
        def energy_run(m=m):
            rep = experiments.run_energy_experiment(experiments.ExperimentConfig(
                curve=curves.parabola(), schedule=ENERGY_SCHEDULE, delta_d=1,
                delta_power=2, energy_m=m))
            return [(r["N"], r["size"], r["energy"], r["skipped"])
                    for r in rep.rows]
        expected = [(r["N"], r["size"], r["energy"], False)
                    for r in refs[f"energy_experiment:m{m}"]]
        ops.append(Op(f"energy_experiment:m{m}", energy_run, _equal(expected)))
    for kind, seed, trials in CAMPAIGNS:
        def campaign(kind=kind, seed=seed, trials=trials):
            r = experiments.run_inequality_campaign(kind, seed, trials)
            return r.trials, r.passes, r.ok
        # every checked inequality is a theorem: all trials pass
        ops.append(Op(f"campaign:{kind}", campaign,
                      _equal((trials, trials, True))))
    return ops


# ---------------------------------------------------------------------------
# exact-algebra
# ---------------------------------------------------------------------------

def _random_plane(rng: random.Random, n: int):
    denom = 1 << 24
    while True:
        a = [F(rng.randint(-denom, denom), denom) for _ in range(n + 1)]
        if any(a[1:]):
            return hyperplanes.Hyperplane(a[0], a[1:])


def _check_survey(trials: int, bound: int):
    # closed form: a hyperplane meets a degree-n moment curve (or a line the
    # parabola or the circle) in at most n (resp. 2) points
    def check(s) -> Verdict:
        hist = s.histogram
        return Verdict(sum(hist.values()) == trials and s.trials == trials
                       and max(hist) <= bound and s.max_roots == max(hist))
    return check


def _check_mvt(bound: int):
    def check(res) -> Verdict:
        roots, consistent = res
        return Verdict(len(roots) <= bound and consistent, (roots.certified,))
    return check


def _check_wronskian(ref: dict):
    def check(w) -> Verdict:
        if "coeffs" in ref:
            expected = tuple(F(c) for c in ref["coeffs"])
            return Verdict(isinstance(w, curves.PolyCoord)
                           and w.coeffs == expected)
        expected = {tuple(int(x) for x in k.split(",")): F(v)
                    for k, v in ref["trig"].items()}
        return Verdict(isinstance(w, curves.TrigCoord) and w.terms == expected
                       and (not expected or w.tau_power == ref["tau_power"]))
    return check


def _check_certificate(ref: dict):
    return lambda c: Verdict(c.status == ref["status"] and c.exact == ref["exact"])


def _exact_algebra(rng: random.Random, refs: dict) -> list:
    ops = []
    for name, trials, bound in SURVEYS:
        seed = rng.randrange(1 << 30)
        ops.append(Op(f"survey:{name}",
                      lambda n=name, t=trials, s=seed:
                      hyperplanes.survey_intersections(make_curve(n), t, s),
                      _check_survey(trials, bound)))
    for name, trials in MVT_TRIALS:
        curve = make_curve(name)
        for i in range(trials):
            plane = _random_plane(rng, curve.dimension)

            def mvt(curve=curve, plane=plane):
                roots = hyperplanes.intersect(curve, plane)
                return roots, hyperplanes.mvt_consistency(curve, plane, roots)
            ops.append(Op(f"mvt:{name}", mvt, _check_mvt(curve.dimension)))

    chains = [(f"moment{n}", None) for n in MOMENT_N]
    chains += [(base, f"M{s}") for base in LIFT_BASES for s in LIFT_S]
    for base, mset in chains:
        key = base if mset is None else f"{base}^{mset}"
        ref = refs[f"wronskian:{key}"]
        ctx: dict = {"curve": make_curve(base)}
        if mset is not None:
            def lift(ctx=ctx, mset=mset):
                ctx["curve"] = lifting.lift_curve(ctx["curve"],
                                                  make_monomials(mset))
                return ctx["curve"].dimension, ctx["curve"].kind
            ops.append(Op(f"lift:{key}", lift,
                          _equal((ref["dimension"], "lifted"))))
        ops.append(Op(f"wronskian:{key}",
                      lambda ctx=ctx: curves.wronskian_symbolic(ctx["curve"]),
                      _check_wronskian(ref)))
        ops.append(Op(f"certify:{key}",
                      lambda ctx=ctx: curves.certify_nondegenerate(
                          ctx["curve"], 0, CERTIFY_GRID),
                      _check_certificate(ref)))

    schedule = tuple(M * M for M in EXPONENT_M)

    def exponent_run():
        rep = experiments.run_exponent_experiment(
            experiments.ExperimentConfig(curve=curves.parabola(),
                                         schedule=schedule))
        return rep.rows

    # closed form: y = x² has exactly M + 1 points of (1/M²)Z² on [0, 1]
    ops.append(Op("exponent:on-curve", exponent_run, lambda rows: Verdict(
        [(r["N"], r["count"]) for r in rows]
        == [(M * M, M + 1) for M in EXPONENT_M],
        tuple(r["certified"] for r in rows))))

    parabola = curves.parabola()
    for M in BIJECTION_M:
        N = M * M
        ctx = {}
        expected = {(F(j, M), F(j * j, N)) for j in range(M + 1)}

        def on_curve(ctx=ctx, N=N):
            ctx["pts"] = tube.count_on_curve_lattice(parabola, N)
            return ctx["pts"]
        ops.append(Op(f"on-curve:N{N}", on_curve,
                      lambda pts, e=expected: Verdict(set(pts) == e)))
        for mset in BIJECTION_SETS:
            def bijection(ctx=ctx, N=N, mset=mset):
                r = lifting.check_lattice_bijection(
                    parabola, make_monomials(mset), N, ctx["pts"])
                return r.bijection, r.cardinality_base, r.cardinality_lifted
            ops.append(Op(f"bijection:{mset}:N{N}", bijection,
                          _equal((True, M + 1, M + 1))))
    return ops


def warm_up(workload: str):
    """Small calls that load lazily initialised code before timing starts."""
    if workload == "tube-sweep":
        q = tube.TubeQuery(curves.parabola(), F(1, 64),
                           tube.LatticeSource(8, ((0, 1), (0, 1))))
        tube.count_in_tube(q)
        tube.brute_force_tube_oracle(q)
    elif workload == "gap-energy":
        A = pointsets.gap_enumerate(pointsets.Gap((0, 0), ((1, 0), (0, 1)),
                                                  (3, 3)))
        pointsets.check_plunnecke(A, 2)
        pointsets.check_energy_lower_bound(A, A, 2)
    else:
        hyperplanes.survey_intersections(curves.parabola(), 3, 0)
        curves.certify_nondegenerate(curves.moment_curve(2), 0, 8)


_MAKERS = {"tube-sweep": _tube_sweep, "gap-energy": _gap_energy,
             "exact-algebra": _exact_algebra}


def build(workload: str, seed: int, refs: dict) -> list:
    """The operations of one pass; the same seed gives the same operations."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"), refs[workload])
