"""Experiment orchestration: exponent-scaling runs, energy-scaling runs, and
randomized inequality campaigns.

Exponent runs count lattice points in δ = d/N^n neighborhoods (or exactly on
the curve in the δ=0 mode) over an N schedule and fit the slope of log count
against log N by ordinary least squares.  The fitted slope is compared
against the exact counting exponent e(M) with a fixed reporting margin of
0.1; small-N effects and the theorem's unspecified constants mean the
comparison is a consistency report, never a refutation.

Exponent and energy runs are deterministic and take no seed: canonical JSON
reports are byte-identical across repeated runs of the same config, and
wall-clock timings appear only in the CSV rendering.  Only the inequality
campaigns draw random instances, from the seed they are given.
"""

from __future__ import annotations

import io
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .curves import CurveSpec, graph_curve, parabola
from .lifting import (MonomialSet, check_lattice_bijection, exponent,
                      lift_point, lipschitz_constant_squared, make_Ms)
from .pointsets import (CapExceeded, FiniteSet, Gap, additive_energy,
                        check_energy_lower_bound, check_plunnecke, doubling,
                        exact_int, frac_str, gap_enumerate, parse_frac)
from .tube import (LatticeSource, TubeQuery, count_in_tube,
                   count_on_curve_lattice, delta_from_rule)

REPORTING_MARGIN = 0.1


def squares_schedule(n_max: int) -> tuple[int, ...]:
    """Square values M² ≤ n_max: the parabola lower bound is stated there."""
    return tuple(m * m for m in range(2, math.isqrt(n_max) + 1))


@dataclass(frozen=True)
class ExperimentConfig:
    curve: CurveSpec
    schedule: tuple
    monomials: MonomialSet | None = None
    delta_d: Fraction | None = None     # None -> on-curve (δ = 0) mode
    delta_power: int | None = None
    box: tuple = ((0, 1), (0, 1))
    energy_m: int = 3

    def __post_init__(self):
        sched = tuple(exact_int(n, "schedule N") for n in self.schedule)
        if any(b <= a for a, b in zip(sched, sched[1:])) or not sched:
            raise ValueError("N schedule must be nonempty and strictly increasing")
        object.__setattr__(self, "schedule", sched)
        if (self.delta_d is None) != (self.delta_power is None):
            raise ValueError("delta_d and delta_power go together")
        if self.delta_d is not None:
            object.__setattr__(self, "delta_d", parse_frac(self.delta_d))
            object.__setattr__(self, "delta_power",
                               exact_int(self.delta_power, "delta power"))
        object.__setattr__(self, "box", tuple(
            (parse_frac(lo), parse_frac(hi)) for lo, hi in self.box))
        object.__setattr__(self, "energy_m", exact_int(self.energy_m, "energy_m"))


def fit_loglog(ns, counts) -> tuple[float, float]:
    """OLS slope and residual sum of squares of log count vs log N."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(c) for c in counts]
    k = len(xs)
    xbar = sum(xs) / k
    ybar = sum(ys) / k
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    rss = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return slope, rss


@dataclass(frozen=True)
class CountReport:
    mode: str                     # 'tube' or 'on-curve'
    rows: tuple                   # dicts: N, delta, count, certified, runtime_ms
    fitted_slope: float | None
    residual: float | None
    slope_explanation: str | None
    theoretical_exponent: Fraction | None
    verdict: str | None

    def to_dict(self) -> dict:
        # canonical: no wall-clock fields, deterministic given the config
        rows = [{"N": r["N"], "delta": r["delta"], "count": r["count"],
                 "certified": r["certified"]} for r in self.rows]
        e = self.theoretical_exponent
        return {
            "mode": self.mode,
            "rows": rows,
            "fitted_slope": self.fitted_slope,
            "residual": self.residual,
            "slope_explanation": self.slope_explanation,
            "theoretical_exponent": None if e is None else frac_str(e),
            "theoretical_exponent_float": None if e is None else float(e),
            "reporting_margin": REPORTING_MARGIN,
            "verdict": self.verdict,
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("N,delta,count,certified,runtime_ms\n")
        for r in self.rows:
            out.write(f"{r['N']},{r['delta']},{r['count']},"
                      f"{str(r['certified']).lower()},{r['runtime_ms']:.3f}\n")
        return out.getvalue()


def _lattice_tube(cfg: ExperimentConfig, N: int, cap, keep_points=True):
    """δ = d/N^n and the count of cfg's lattice box (1/N)Z² in that tube."""
    delta = delta_from_rule(cfg.delta_d, N, cfg.delta_power)
    query = TubeQuery(cfg.curve, delta, LatticeSource(N, cfg.box))
    return delta, count_in_tube(query, keep_points, cap)


def run_exponent_experiment(cfg: ExperimentConfig, cap=None) -> CountReport:
    mode = "on-curve" if cfg.delta_d is None else "tube"
    rows = []
    for N in cfg.schedule:
        t0 = time.perf_counter()
        if mode == "on-curve":
            pts = count_on_curve_lattice(cfg.curve, N)
            count, certified, delta = len(pts), True, "0/1"
        else:
            delta_val, res = _lattice_tube(cfg, N, cap, keep_points=False)
            count, certified, delta = res.count, res.certified, frac_str(delta_val)
        rows.append({"N": N, "delta": delta, "count": count,
                     "certified": certified,
                     "runtime_ms": (time.perf_counter() - t0) * 1000.0})

    usable = [(r["N"], r["count"]) for r in rows if r["count"] >= 1]
    slope = residual = None
    explanation = None
    if len(usable) < 3:
        explanation = "fewer than 3 rows with count >= 1; slope omitted"
    elif len({c for _, c in usable}) == 1:
        explanation = "degenerate fit: all counts equal; slope omitted"
    else:
        slope, residual = fit_loglog([n for n, _ in usable],
                                     [c for _, c in usable])

    e = exponent(cfg.monomials) if cfg.monomials is not None else None
    verdict = None
    if e is not None and slope is not None:
        verdict = ("slope-consistent-with-exponent"
                   if slope <= float(e) + REPORTING_MARGIN
                   else "slope-exceeds-exponent-margin")
    return CountReport(mode=mode, rows=tuple(rows), fitted_slope=slope,
                       residual=residual, slope_explanation=explanation,
                       theoretical_exponent=e, verdict=verdict)


@dataclass(frozen=True)
class EnergyReport:
    m: int
    rows: tuple
    trend_slope: float | None

    def to_dict(self) -> dict:
        rows = []
        for r in self.rows:
            rows.append({k: r[k] for k in
                         ("N", "size", "energy", "ratio", "ratio_float",
                          "saturation", "saturation_float", "skipped", "reason")})
        return {"m": self.m, "rows": rows, "trend_slope": self.trend_slope}


def run_energy_experiment(cfg: ExperimentConfig, cap=None) -> EnergyReport:
    """E_m of the lattice points in each scheduled neighborhood.

    Reports the exact ratio E_m(B)/|B|^m (>= 1, the obvious lower bound) and
    the saturation E_m(B)/|B|^(2m-1) (= 1 would be maximal energy).  ``cap``
    bounds the tube counts and the energy work; energy over it skips a row.
    """
    m = cfg.energy_m
    if m < 2:
        raise ValueError("energy runs need m >= 2")
    rows = []
    for N in cfg.schedule:
        if cfg.delta_d is None:
            pts = count_on_curve_lattice(cfg.curve, N)
        else:
            pts = FiniteSet(_lattice_tube(cfg, N, cap)[1].points,
                            dimension=cfg.curve.dimension)
        row = {"N": N, "size": 0, "energy": None, "ratio": None,
               "ratio_float": None, "saturation": None,
               "saturation_float": None, "skipped": True, "reason": None}
        if not pts:
            row["reason"] = "no points in the neighborhood"
            rows.append(row)
            continue
        try:
            e = additive_energy(pts, m, cap)
        except CapExceeded as exc:
            row["size"] = len(pts)
            row["reason"] = f"work cap exceeded: {exc}"
            rows.append(row)
            continue
        b = len(pts)
        ratio = Fraction(e, b ** m)
        saturation = Fraction(e, b ** (2 * m - 1))
        row.update({"size": b, "energy": e, "ratio": frac_str(ratio),
                    "ratio_float": float(ratio),
                    "saturation": frac_str(saturation),
                    "saturation_float": float(saturation), "skipped": False})
        rows.append(row)
    usable = [(r["N"], r["ratio_float"]) for r in rows if not r["skipped"]]
    trend = None
    if len(usable) >= 3 and len({v for _, v in usable}) > 1:
        trend, _ = fit_loglog([n for n, _ in usable], [v for _, v in usable])
    return EnergyReport(m=m, rows=tuple(rows), trend_slope=trend)


# ---------------------------------------------------------------------------
# Randomized inequality campaigns
# ---------------------------------------------------------------------------

CAMPAIGN_KINDS = ("lemma-2.4", "plunnecke", "lipschitz", "bijection",
                  "gap-doubling")


@dataclass(frozen=True)
class CampaignResult:
    kind: str
    trials: int
    passes: int
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return self.passes == self.trials and not self.failures

    def to_dict(self) -> dict:
        return {"kind": self.kind, "trials": self.trials, "passes": self.passes,
                "failures": list(self.failures), "ok": self.ok}


def _random_int_set(rng: random.Random, max_size: int, span: int = 20,
                    dim: int = 2) -> FiniteSet:
    size = rng.randint(2, max_size)
    pts = set()
    while len(pts) < size:
        pts.add(tuple(rng.randint(-span, span) for _ in range(dim)))
    return FiniteSet(pts)


def _random_proper_gap(rng: random.Random, max_product: int = 500,
                       cap=None) -> tuple[Gap, FiniteSet]:
    """A random proper GAP and its points, summed once."""
    m = rng.randint(1, 3)
    lengths = []
    budget = max_product
    for i in range(m):
        top = max(1, int(budget ** (1.0 / (m - i))))
        n = rng.randint(1, top)
        lengths.append(n)
        budget = max(1, budget // n)
    base_span = 9
    for _ in range(50):
        ambient = rng.randint(1, 3)
        gens = [tuple(rng.randint(-base_span, base_span) for _ in range(ambient))
                for _ in range(m)]
        base = tuple(rng.randint(-base_span, base_span) for _ in range(ambient))
        g = Gap(base, gens, lengths)
        pts = gap_enumerate(g, cap)
        if len(pts) == g.nominal_size:   # g is proper
            return g, pts
    # random draws can stay improper for a long time in low ambient
    # dimension; fall back to scaled standard basis vectors, always proper
    gens = [tuple((rng.randint(1, 9) if j == i else 0) for j in range(m))
            for i in range(m)]
    base = tuple(rng.randint(-base_span, base_span) for _ in range(m))
    g = Gap(base, gens, lengths)
    return g, gap_enumerate(g, cap)


def _random_rational(rng: random.Random, denom_max: int = 64) -> Fraction:
    d = rng.randint(1, denom_max)
    return Fraction(rng.randint(-d, d), d)


def run_inequality_campaign(kind: str, seed: int, trials: int,
                            cap=None) -> CampaignResult:
    """Run `trials` randomized instances of one checker; every one of these
    inequalities is a theorem, so any failure is a finding (a bug), reported
    with the serialized counterexample.  ``cap`` bounds each check's work."""
    kind = kind.replace("ü", "u")
    if kind not in CAMPAIGN_KINDS:
        raise ValueError(f"unknown campaign kind {kind!r}; "
                         f"choose from {CAMPAIGN_KINDS}")
    rng = random.Random(seed)
    passes = 0
    failures = []

    for trial in range(trials):
        if kind == "lemma-2.4":
            a = _random_int_set(rng, 30)
            pts = list(a)
            k = rng.randint(1, len(pts))
            b = FiniteSet(rng.sample(pts, k))
            m = rng.choice([2, 3])
            rep = check_energy_lower_bound(a, b, m, cap)
            if rep.holds:
                passes += 1
            else:
                failures.append({"trial": trial, "A": [list(map(str, p)) for p in a],
                                 "B": [list(map(str, p)) for p in b],
                                 "report": rep.to_dict()})
        elif kind == "plunnecke":
            a = _random_int_set(rng, 25, span=30)
            m = rng.choice([2, 3])
            rep = check_plunnecke(a, m, cap)
            if rep.holds:
                passes += 1
            else:
                failures.append({"trial": trial, "A": [list(map(str, p)) for p in a],
                                 "report": rep.to_dict()})
        elif kind == "lipschitz":
            choice = rng.randint(1, 4)
            mset = make_Ms(choice) if choice <= 3 else _random_monomial_set(rng)
            p = (_random_rational(rng), _random_rational(rng))
            q = (_random_rational(rng), _random_rational(rng))
            lhs = sum((x - y) ** 2 for x, y in zip(lift_point(p, mset),
                                                   lift_point(q, mset)))
            rhs = lipschitz_constant_squared(mset, 1) * \
                sum((x - y) ** 2 for x, y in zip(p, q))
            if lhs <= rhs:
                passes += 1
            else:
                failures.append({"trial": trial, "M": str(mset),
                                 "p": list(map(str, p)), "q": list(map(str, q)),
                                 "lhs": str(lhs), "rhs": str(rhs)})
        elif kind == "bijection":
            if rng.random() < 0.5:
                curve = parabola()
            else:
                deg = rng.randint(2, 3)
                coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                          for _ in range(deg + 1)]
                if all(c == 0 for c in coeffs[1:]):
                    coeffs[-1] = Fraction(1)
                curve = graph_curve([coeffs])
            N = rng.randint(2, 24)
            mset = rng.choice([MonomialSet([(1, 0), (0, 1), (1, 1)]), make_Ms(2)])
            pts = count_on_curve_lattice(curve, N)
            rep = check_lattice_bijection(curve, mset, N, pts)
            if rep.bijection:
                passes += 1
            else:
                failures.append({"trial": trial, "N": N, "M": str(mset),
                                 "report": rep.to_dict(),
                                 "violations": list(rep.violations)})
        elif kind == "gap-doubling":
            g, pts = _random_proper_gap(rng, cap=cap)
            k_doubling = doubling(pts, cap)
            bound = Fraction(2) ** g.gap_dimension
            if k_doubling <= bound:
                passes += 1
            else:
                failures.append({"trial": trial,
                                 "gap": {"base": list(map(str, g.base)),
                                         "generators": [list(map(str, v))
                                                        for v in g.generators],
                                         "lengths": list(g.lengths)},
                                 "doubling": str(k_doubling),
                                 "bound": str(bound)})
    return CampaignResult(kind=kind, trials=trials, passes=passes,
                          failures=tuple(failures))


def _random_monomial_set(rng: random.Random) -> MonomialSet:
    from .lifting import Monomial
    exps = {(1, 0), (0, 1)}
    size = rng.randint(3, 7)
    while len(exps) < size:
        a = rng.randint(0, 4)
        b = rng.randint(0, 4 - a)
        if a + b >= 1:
            exps.add((a, b))
    return MonomialSet([Monomial(a, b) for a, b in exps])
