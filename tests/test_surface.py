"""Every public module-level function and class in ``src/curvecount`` has a
caller in ``src/``.

A name counts as called only through its own module: a bare reference to it
inside that module, ``from .m import name``, or ``m.name`` where ``m`` is
bound by ``from . import m`` (``as`` aliases included).  References inside
its own definition and in ``__init__.py``, which only re-exports, do not
count.  A name with no such reference is public API that nothing in the
package uses; it either goes, or it is kept for a reason listed in
``KEPT``.
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


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _references(node, module: str, aliases: dict) -> set:
    """The (module, name) pairs that node refers to, with aliases mapping a
    local name to the package module it is bound to."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs.add((module, n.id))
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            if n.value.id in aliases:
                refs.add((aliases[n.value.id], n.attr))
        elif isinstance(n, ast.ImportFrom) and n.level == 1 and n.module:
            refs |= {(n.module, a.name) for a in n.names}
    return refs


def _uncalled() -> set:
    public, used = set(), set()
    for module, tree in _modules().items():
        aliases = {a.asname or a.name: a.name for n in ast.walk(tree)
                   if isinstance(n, ast.ImportFrom) and n.level == 1 and not n.module
                   for a in n.names}
        for stmt in tree.body:
            refs = _references(stmt, module, aliases)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    public.add((module, stmt.name))
                refs.discard((module, stmt.name))
            used |= refs
    return {name for _, name in public - used}


def test_every_public_name_has_a_caller():
    assert sorted(_uncalled() - set(KEPT)) == []


def test_every_kept_name_still_exists_and_is_still_uncalled():
    # a kept name that gained a caller, or went, leaves the list
    assert sorted(_uncalled()) == sorted(KEPT)
