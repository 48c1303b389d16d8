"""The committed golden answers of the point-set jobs, recomputed.

``tests/golden/make_pointsets.py`` holds the jobs and wrote
``tests/golden/pointsets.json``; any difference here is a changed answer,
order or report byte."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_pointsets", GOLDEN / "make_pointsets.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_point_set_jobs_match_the_golden_file():
    expected = json.loads((GOLDEN / "pointsets.json").read_text())
    got = json.loads(json.dumps(_generator().compute(), sort_keys=True))
    for key in expected:
        assert got[key] == expected[key], key
    assert got.keys() == expected.keys()
