"""JSON (de)serialization for curves, monomial sets, point sets, GAPs, tube
queries and experiment configs.

Every file is JSON; loaders read the keys they know and ignore the rest.
Loaders pass numbers through as read: the constructors they call parse
every exact rational with ``parse_frac`` (a float or a bool is refused, never
rounded) and every integer field (dimensions, exponents, N, lengths) with
``exact_int`` (never truncated).

Rationals travel as decimal-free "numerator/denominator" strings so files
round-trip exactly.  Curve files carry kind, dimension, coefficients and
domain; lifted curves serialize as their base curve plus the monomial list
and are rebuilt by lifting on load, which preserves exactness for both
polynomial and circle-arc bases.  A declared dimension must match the
loaded curve.  A query or experiment names its curve inline or by a path
relative to its own file.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .curves import (CurveSpec, InvalidCurveError, circle_arc, graph_curve,
                     moment_curve, polynomial_curve)
from .experiments import ExperimentConfig, squares_schedule
from .lifting import MonomialSet, lift_curve
from .pointsets import FiniteSet, Gap, exact_int, frac_str, parse_frac
from .tube import (ExplicitSource, GapSource, InvalidQuery, LatticeSource,
                   TubeQuery, delta_from_rule)


# -- curves -----------------------------------------------------------------

def curve_to_dict(curve: CurveSpec) -> dict:
    lo, hi = curve.domain
    base = {"kind": curve.kind, "dimension": curve.dimension,
            "domain": [frac_str(lo), frac_str(hi)]}
    if curve.kind == "lifted":
        if curve.lift_origin is not None:
            base_curve, mset = curve.lift_origin
            base["base"] = curve_to_dict(base_curve)
            base["monomials"] = monomials_to_list(mset)
            return base
        if not curve.is_exact:
            raise InvalidCurveError(
                "a trigonometric curve without its lift provenance has no file form")
        base["kind"] = "polynomial-parametric"
    if curve.kind == "circle-arc" and list(curve.coords) != list(circle_arc().coords):
        raise InvalidCurveError(
            "a circle arc moved off (cos 2πt, sin 2πt) has no file form")
    if curve.kind in ("moment", "circle-arc"):
        return base
    if curve.kind == "polynomial-graph":
        coeffs = [[frac_str(c) for c in fn.coeffs] for fn in curve.coords[1:]]
    else:
        coeffs = [[frac_str(c) for c in fn.coeffs] for fn in curve.coords]
    base["coefficients"] = coeffs
    return base


def curve_from_dict(data: dict) -> CurveSpec:
    kind = data.get("kind")
    domain = tuple(parse_frac(x) for x in data.get("domain", ["0", "1"]))
    if kind == "moment":
        n = exact_int(data["dimension"], "moment dimension", InvalidCurveError)
        c = moment_curve(n)
        curve = c if domain == (0, 1) else CurveSpec("moment", c.coords, domain)
    elif kind == "circle-arc":
        curve = circle_arc(domain[0], domain[1])
    elif kind == "lifted":
        curve = lift_curve(curve_from_dict(data["base"]),
                           monomials_from_list(data["monomials"]))
    elif kind in ("polynomial-graph", "polynomial-parametric"):
        build = graph_curve if kind == "polynomial-graph" else polynomial_curve
        curve = build(data["coefficients"], domain)
    else:
        raise InvalidCurveError(f"unknown curve kind {kind!r}")
    if "dimension" in data and exact_int(data["dimension"], "curve dimension",
                                         InvalidCurveError) != curve.dimension:
        raise InvalidCurveError(f"curve declares dimension {data['dimension']} "
                                f"but has {curve.dimension} coordinates")
    return curve


def load_curve(path) -> CurveSpec:
    return curve_from_dict(json.loads(Path(path).read_text()))


# -- monomial sets ----------------------------------------------------------

def monomials_to_list(mset: MonomialSet) -> list:
    return [[m.a, m.b] for m in mset]


def monomials_from_list(data) -> MonomialSet:
    return MonomialSet([(a, b) for a, b in data])


def load_monomials(path) -> MonomialSet:
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data["monomials"]
    return monomials_from_list(data)


# -- tube queries and experiment configs -------------------------------------

def _curve_field(field, base_dir) -> CurveSpec:
    """A ``"curve"`` field: an inline curve, or a path relative to base_dir."""
    if isinstance(field, str):
        path = Path(field)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return load_curve(path)
    return curve_from_dict(field)


def delta_from_spec(data) -> Fraction:
    if isinstance(data, dict):
        return delta_from_rule(data.get("d", 1), data["N"], data["n"])
    return parse_frac(data)


def source_from_dict(data: dict):
    kind = data.get("type")
    if kind == "lattice":
        return LatticeSource(data["N"], data.get("box"))
    if kind == "points":
        return ExplicitSource(FiniteSet(data["points"]))
    if kind == "gap":
        return GapSource(Gap(data["base"], data["generators"], data["lengths"]))
    raise InvalidQuery(f"unknown source type {kind!r}")


def query_from_dict(data: dict, base_dir=None) -> TubeQuery:
    return TubeQuery(curve=_curve_field(data["curve"], base_dir),
                     delta=delta_from_spec(data["delta"]),
                     source=source_from_dict(data["source"]))


def load_query(path) -> TubeQuery:
    path = Path(path)
    return query_from_dict(json.loads(path.read_text()), base_dir=path.parent)


def load_experiment(path) -> tuple[ExperimentConfig, str]:
    """An experiment config file and its experiment kind (default exponent)."""
    path = Path(path)
    data = json.loads(path.read_text())
    sched = data.get("schedule")
    if isinstance(sched, dict):
        sched = squares_schedule(exact_int(sched["squares_up_to"], "squares_up_to"))
    mons = data.get("monomials")
    delta = data.get("delta", "on-curve")
    on_curve = delta == "on-curve" or delta == 0
    if not (on_curve or isinstance(delta, dict)):
        raise ValueError('experiment "delta" must be "on-curve" or '
                         '{"d": ..., "power": n}')
    cfg = ExperimentConfig(
        curve=_curve_field(data["curve"], path.parent), schedule=tuple(sched),
        monomials=monomials_from_list(mons) if mons else None,
        delta_d=None if on_curve else delta.get("d", 1),
        delta_power=None if on_curve else delta["power"],
        box=data.get("box", ((0, 1), (0, 1))),
        energy_m=data.get("energy_m", ExperimentConfig.energy_m))
    return cfg, data.get("experiment", "exponent")
