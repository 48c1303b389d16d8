"""Every public module-level function and class in ``src/curvecount`` has a
caller in ``src/``.

A name counts as called when a Name or Attribute node anywhere in the
package refers to it, outside its own definition and outside
``__init__.py``, which only re-exports.  A name with no such reference is
public API that nothing in the package uses; it either goes, or it is kept
for a reason listed in ``KEPT``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "curvecount"

KEPT = {
    "isolate_roots": "perfbench/spans.py wraps it by attribute for --trace",
    "refine_root": "perfbench/spans.py wraps it by attribute for --trace",
    "min_separation": "perfbench/spans.py wraps it by attribute for --trace",
    "representation_counts": "perfbench/spans.py wraps it by attribute for --trace",
    "mvt_consistency": "perfbench/spans.py wraps it by attribute for --trace",
    "intersect": "perfbench/spans.py wraps it; the hyperplane roots themselves",
    "sumset": "perfbench/spans.py wraps it; the paper's A + B itself",
    "line_segment": "the benchmark workloads build their segments with it",
    "energy_bruteforce": "the tests' independent oracle for additive energy",
    "is_proper": "the paper's notion of a proper GAP, for callers of the API",
}


def _modules():
    return [ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


def _references(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _uncalled() -> set:
    public, used = set(), set()
    for tree in _modules():
        for stmt in tree.body:
            refs = _references(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    public.add(stmt.name)
                refs.discard(stmt.name)
            used |= refs
    return public - used


def test_every_public_name_has_a_caller():
    assert sorted(_uncalled() - set(KEPT)) == []


def test_every_kept_name_still_exists_and_is_still_uncalled():
    # a kept name that gained a caller, or went, leaves the list
    assert sorted(_uncalled()) == sorted(KEPT)
