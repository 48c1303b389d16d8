"""JSON (de)serialization for curves, monomial sets, point sets, GAPs and
tube queries.

Every file is JSON; loaders read the keys they know and ignore the rest.
Integer fields (dimensions, exponents, N, lengths) must be integers and are
never truncated.

Rationals travel as decimal-free "numerator/denominator" strings so files
round-trip exactly.  Curve files carry kind, dimension, coefficients and
domain; lifted curves serialize as their base curve plus the monomial list
and are rebuilt by lifting on load, which preserves exactness for both
polynomial and circle-arc bases.  A declared dimension must match the
loaded curve.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .curves import (CurveSpec, InvalidCurveError, circle_arc, graph_curve,
                     moment_curve, polynomial_curve)
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
        coeffs = [[parse_frac(c) for c in row] for row in data["coefficients"]]
        build = graph_curve if kind == "polynomial-graph" else polynomial_curve
        curve = build(coeffs, domain)
    else:
        raise InvalidCurveError(f"unknown curve kind {kind!r}")
    if "dimension" in data and exact_int(data["dimension"], "curve dimension",
                                         InvalidCurveError) != curve.dimension:
        raise InvalidCurveError(f"curve declares dimension {data['dimension']} "
                                f"but has {curve.dimension} coordinates")
    return curve


def load_curve(path) -> CurveSpec:
    return curve_from_dict(json.loads(Path(path).read_text()))


def save_curve(curve: CurveSpec, path):
    Path(path).write_text(json.dumps(curve_to_dict(curve), indent=2) + "\n")


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


# -- point sets and GAPs ----------------------------------------------------

def points_to_list(points) -> list:
    return [[frac_str(c) for c in p] for p in sorted(points)]


def points_from_list(data, dimension=None) -> FiniteSet:
    return FiniteSet([tuple(parse_frac(c) for c in row) for row in data],
                     dimension=dimension)


def gap_to_dict(g: Gap) -> dict:
    return {
        "base": [frac_str(c) for c in g.base],
        "generators": [[frac_str(c) for c in v] for v in g.generators],
        "lengths": list(g.lengths),
    }


def gap_from_dict(data: dict) -> Gap:
    return Gap(
        base=tuple(parse_frac(c) for c in data["base"]),
        generators=tuple(tuple(parse_frac(c) for c in v)
                         for v in data["generators"]),
        lengths=data["lengths"],
    )


# -- tube queries -----------------------------------------------------------

def delta_from_spec(data) -> Fraction:
    if isinstance(data, dict):
        return delta_from_rule(parse_frac(data.get("d", 1)), data["N"], data["n"])
    return parse_frac(data)


def source_from_dict(data: dict):
    kind = data.get("type")
    if kind == "lattice":
        box = data.get("box")
        if box is None:
            raise InvalidQuery("lattice source needs a bounded box")
        box = tuple((parse_frac(a), parse_frac(b)) for a, b in box)
        return LatticeSource(data["N"], box)
    if kind == "points":
        return ExplicitSource(points_from_list(data["points"]))
    if kind == "gap":
        return GapSource(gap_from_dict(data))
    raise InvalidQuery(f"unknown source type {kind!r}")


def query_from_dict(data: dict, base_dir=None) -> TubeQuery:
    curve_field = data["curve"]
    if isinstance(curve_field, str):
        path = Path(curve_field)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        curve = load_curve(path)
    else:
        curve = curve_from_dict(curve_field)
    return TubeQuery(curve=curve,
                     delta=delta_from_spec(data["delta"]),
                     source=source_from_dict(data["source"]))


def load_query(path) -> TubeQuery:
    path = Path(path)
    return query_from_dict(json.loads(path.read_text()), base_dir=path.parent)
