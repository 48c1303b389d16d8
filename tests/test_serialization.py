"""Round-trips for every serialized artifact."""

import json
from fractions import Fraction as F

import pytest

from curvecount import (FiniteSet, Gap, circle_arc, graph_curve, lift_curve,
                        make_Ms, moment_curve, parabola, polynomial_curve,
                        wronskian)
from curvecount import serialization as ser
from curvecount.curves import CurveSpec, InvalidCurveError, TrigCoord


def _save(curve, path):
    path.write_text(json.dumps(ser.curve_to_dict(curve)))


def test_frac_strings():
    assert ser.frac_str(F(3, 4)) == "3/4"
    assert ser.frac_str(5) == "5/1"
    assert ser.parse_frac("3/4") == F(3, 4)
    assert ser.parse_frac("-7") == -7
    for bad in (0.5, True):
        with pytest.raises(ValueError):
            ser.parse_frac(bad)


@pytest.mark.parametrize("curve", [
    moment_curve(3),
    parabola(),
    graph_curve([[F(1, 3), 0, 1]], domain=(F(1, 8), F(7, 8))),
    polynomial_curve([[0, 1], [1, F(-1, 2), F(2, 7)]]),
    circle_arc(F(1, 4), F(3, 4)),
])
def test_curve_roundtrip(curve, tmp_path):
    path = tmp_path / "curve.json"
    _save(curve, path)
    loaded = ser.load_curve(path)
    assert loaded.kind == curve.kind
    assert loaded.dimension == curve.dimension
    assert loaded.domain == curve.domain
    t = float(curve.domain[0] + (curve.domain[1] - curve.domain[0]) / 3)
    assert ([fn.evalf(t) for fn in loaded.coords]
            == pytest.approx([fn.evalf(t) for fn in curve.coords]))


def test_lifted_curve_roundtrip(tmp_path):
    lifted = lift_curve(parabola(), make_Ms(2))
    path = tmp_path / "lifted.json"
    _save(lifted, path)
    loaded = ser.load_curve(path)
    assert loaded.kind == "lifted" and loaded.dimension == 5
    for t in (F(0), F(1, 3), F(1)):
        assert wronskian(loaded, t) == wronskian(lifted, t)


def test_lifted_circle_roundtrip(tmp_path):
    lifted = lift_curve(circle_arc(), make_Ms(2))
    path = tmp_path / "lc.json"
    _save(lifted, path)
    loaded = ser.load_curve(path)
    assert loaded.dimension == 5
    assert wronskian(loaded, 0.3) == 0.0


def test_trig_curve_without_lift_provenance_is_rejected():
    moved = CurveSpec("lifted", [TrigCoord({(1, 0): 1, (0, 0): 1}),
                                 TrigCoord({(0, 1): 1})])
    assert not moved.is_exact
    with pytest.raises(InvalidCurveError):
        ser.curve_to_dict(moved)


def test_translated_circle_is_rejected():
    # the kind stays "circle-arc", which used to save no coefficients and
    # reload as the untranslated circle
    moved = CurveSpec("circle-arc", [TrigCoord({(1, 0): 1, (0, 0): 1}),
                                     TrigCoord({(0, 1): 1})])
    assert [fn.eval(0.25) for fn in moved.coords] == pytest.approx((1.0, 1.0))
    with pytest.raises(InvalidCurveError):
        ser.curve_to_dict(moved)


@pytest.mark.parametrize("curve", [moment_curve(3), parabola(), circle_arc()])
def test_unknown_curve_keys_are_ignored(curve):
    # files written with the retired "smoothness_order" key keep loading
    data = ser.curve_to_dict(curve)
    loaded = ser.curve_from_dict({**data, "smoothness_order": 5})
    assert ser.curve_to_dict(loaded) == data
    assert loaded.coords == curve.coords and loaded.domain == curve.domain


def test_monomials_roundtrip():
    ms = make_Ms(3)
    assert ser.monomials_from_list(ser.monomials_to_list(ms)) == ms


def test_curve_and_monomial_integer_fields_are_not_truncated():
    # {y, x^1.5} used to load as {y, x}, and dimension 3.9 as the moment curve n = 3
    with pytest.raises(ValueError, match="must be an integer"):
        ser.monomials_from_list([[0, 1], [1.5, 0]])
    with pytest.raises(ValueError, match="must be an integer"):
        ser.curve_from_dict({"kind": "moment", "dimension": 3.9})


def test_declared_dimension_must_match_the_curve():
    # one coefficient row is a 2-D graph; three monomials lift to 3-D
    graph = {"kind": "polynomial-graph", "dimension": 3, "coefficients": [["0", "0", "1"]]}
    lifted = {"kind": "lifted", "dimension": 2, "monomials": [[1, 0], [0, 1], [1, 1]],
              "base": {"kind": "circle-arc", "dimension": 2}}
    for data in (graph, lifted):
        with pytest.raises(InvalidCurveError, match="dimension"):
            ser.curve_from_dict(data)
    with pytest.raises(InvalidCurveError, match="must be an integer"):
        ser.curve_from_dict(dict(graph, dimension=2.0))
    assert ser.curve_from_dict(dict(graph, dimension=2)).dimension == 2
    assert ser.curve_from_dict(dict(lifted, dimension=3)).dimension == 3


def test_points_roundtrip():
    pts = FiniteSet([(F(1, 3), 2), (0, F(-7, 2))])
    data = [[ser.frac_str(c) for c in p] for p in pts]
    assert ser.source_from_dict({"type": "points", "points": data}).points == pts


def test_gap_roundtrip():
    g = Gap((0, F(1, 2)), [(1, 0), (F(1, 3), 2)], [3, 4])
    data = {"type": "gap", "base": [ser.frac_str(c) for c in g.base],
            "generators": [[ser.frac_str(c) for c in v] for v in g.generators],
            "lengths": list(g.lengths)}
    assert ser.source_from_dict(data).gap == g


def test_query_loading(tmp_path):
    curve_path = tmp_path / "parabola.json"
    _save(parabola(), curve_path)
    q = {"curve": "parabola.json",
         "delta": {"d": "1", "N": 4, "n": 2},
         "source": {"type": "lattice", "N": 4,
                    "box": [["0", "1"], ["0", "1"]]}}
    qpath = tmp_path / "query.json"
    qpath.write_text(json.dumps(q))
    query = ser.load_query(qpath)
    assert query.delta == F(1, 16)
    from curvecount import count_in_tube
    assert count_in_tube(query).count >= 3


@pytest.mark.parametrize("path, value", [
    (("source", "N"), 16.9), (("source", "N"), "16"), (("delta", "N"), 16.9),
    (("delta", "n"), 2.0), (("gap", "lengths"), [30.7, 30]),
])
def test_query_integer_fields_are_not_truncated(path, value):
    gap = {"type": "gap", "base": ["0", "0"],
           "generators": [["1/8", "0"], ["0", "1/8"]], "lengths": [9, 9]}
    lattice = {"type": "lattice", "N": 16, "box": [["0", "1"], ["0", "1"]]}
    q = {"curve": ser.curve_to_dict(parabola()),
         "delta": {"d": "1", "N": 16, "n": 2},
         "source": gap if path[0] == "gap" else lattice}
    q["source" if path[0] == "gap" else path[0]][path[1]] = value
    with pytest.raises(ValueError, match="must be an integer"):
        ser.query_from_dict(q)


def test_query_sources():
    pts = {"type": "points", "points": [["1/2", "1/20"], ["1/2", "1/5"]]}
    src = ser.source_from_dict(pts)
    assert len(src.points) == 2
    gap_src = ser.source_from_dict({"type": "gap",
                                    "base": ["0", "0"],
                                    "generators": [["1", "0"]],
                                    "lengths": [5]})
    assert gap_src.gap.lengths == (5,)
    with pytest.raises(Exception):
        ser.source_from_dict({"type": "mystery"})
