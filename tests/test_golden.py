"""The committed golden answers, recomputed.

``tests/golden/make_pointsets.py`` holds the point-set jobs and wrote
``tests/golden/pointsets.json``; ``tests/golden/make_cli.py`` holds the CLI
runs and wrote ``tests/golden/cli.json``; ``tests/golden/make_oracle.py``
holds the brute-force oracle's queries and wrote ``tests/golden/oracle.json``;
``tests/golden/make_roots.py`` holds ``intersect`` queries and wrote
``tests/golden/roots.json``; ``tests/golden/make_counts.py`` holds survey
histograms, hyperplane counts, MVT verdicts and certificate statuses and
wrote ``tests/golden/counts.json``; ``tests/golden/make_oncurve.py`` holds
on-curve lattice points, on-curve energy rows and lattice-bijection reports
and wrote ``tests/golden/oncurve.json``.  Any difference here is a changed answer,
order, exit code, report byte or float bit."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _generator(name="make_pointsets"):
    spec = importlib.util.spec_from_file_location(name, GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_point_set_jobs_match_the_golden_file():
    expected = json.loads((GOLDEN / "pointsets.json").read_text())
    got = json.loads(json.dumps(_generator().compute(), sort_keys=True))
    for key in expected:
        assert got[key] == expected[key], key
    assert got.keys() == expected.keys()


def _same_keyed_answers(name: str):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    got = json.loads(json.dumps(_generator(f"make_{name}").compute()))
    assert got.keys() == expected.keys()
    for group, rows in expected.items():
        assert got[group] == rows, group


def test_oracle_answers_match_the_golden_file():
    _same_keyed_answers("oracle")


def test_intersect_roots_match_the_golden_file():
    _same_keyed_answers("roots")


def test_root_counts_match_the_golden_file():
    _same_keyed_answers("counts")


def test_on_curve_answers_match_the_golden_file():
    _same_keyed_answers("oncurve")


def test_cli_runs_match_the_golden_file():
    expected = json.loads((GOLDEN / "cli.json").read_text())
    got = _generator("make_cli").compute()
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for row, want in zip(got, expected):
        assert row == want, row["argv"]
