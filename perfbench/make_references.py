"""Write references.json: the expected answer of every benchmark operation.

Run once from the repository root (it takes a few minutes):

    python3 perfbench/make_references.py

Every answer comes from a route independent of the code the benchmark times:

* tube counts: exact rational decisions with sympy.  For a polynomial curve
  γ and a rational point p, dist(p, Γ) ≤ δ holds exactly when
  D(t) = |γ(t) − p|² − δ² is ≤ 0 at an end of the domain or has a real root
  in it (sympy's ``count_roots``).  For the full unit circle the test is
  (1 − δ)² ≤ |p|² ≤ (1 + δ)².  Candidates come from an exact column walk:
  a point (a, b) within δ of the graph y = f(x) has |f(a) − b| ≤ δ(1 + L),
  with L a bound on |f′| over [−δ, 1 + δ];
* GAP sizes, |2A| and |mA|: integer sets after clearing the common
  denominator, not the Fraction-tuple sumsets of ``curvecount.pointsets``;
* energies: ``energy_bruteforce``, the library's literal-enumeration oracle;
* Wronskians of polynomial curves: sympy determinants of the derivative
  rows; circle lifts and all other answers: closed forms stated beside them.

The script also runs the library on each answer and prints where the two
disagree; that output is for the reader and is not stored.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import sympy as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from curvecount import pointsets  # noqa: E402

T = sp.Symbol("t")
GRAPHS = {"parabola": (lambda x: x * x, 2), "cubic": (lambda x: x ** 3, 3)}
# count_in_tube's wrong answer on the boundary reproduction (ROADMAP item 2)
BOUNDARY_KNOWN_DEFECT = {"count": 33, "certified": True}
POOL_SIZE = 12
POOL_SEED = 20220517


def frac_str(x) -> str:
    x = F(x)
    return f"{x.numerator}/{x.denominator}"


def rat(x) -> sp.Rational:
    x = F(x)
    return sp.Rational(x.numerator, x.denominator)


def in_tube_poly(coords, p, delta) -> bool:
    """Exact closed-tube membership for a polynomial curve on [0, 1]."""
    D = sp.Poly(sp.expand(sum((c - rat(pc)) ** 2 for c, pc in zip(coords, p))
                          - rat(delta) ** 2), T)
    if D.eval(0) <= 0 or D.eval(1) <= 0:
        return True
    return D.count_roots(0, 1) > 0


def lipschitz_bound(name: str, delta) -> F:
    # |f′| ≤ deg · (1 + δ)^(deg − 1) on [−δ, 1 + δ] for f = x^deg
    deg = GRAPHS[name][1]
    return deg * (1 + F(delta)) ** (deg - 1)


def graph_hits(name: str, points, delta) -> list:
    """Points within δ of y = f(x), x ∈ [0, 1], decided exactly."""
    f, deg = GRAPHS[name]
    coords = (T, T ** deg)
    r = F(delta) * (1 + lipschitz_bound(name, delta))
    return [p for p in points
            if -delta <= p[0] <= 1 + delta and abs(f(F(p[0])) - p[1]) <= r
            and in_tube_poly(coords, p, delta)]


def lattice_hits(name: str, box, N: int, delta) -> list:
    """Hits of the (1/N)Z² box as integer pairs (i, j) for (i/N, j/N)."""
    (xl, xh), (yl, yh) = box
    ilo, ihi = math.ceil(F(xl) * N), math.floor(F(xh) * N)
    jlo, jhi = math.ceil(F(yl) * N), math.floor(F(yh) * N)
    if name == "circle":
        lo2 = (N * (1 - F(delta))) ** 2
        hi2 = (N * (1 + F(delta))) ** 2
        return [(i, j) for i in range(ilo, ihi + 1) for j in range(jlo, jhi + 1)
                if lo2 <= i * i + j * j <= hi2]
    f, _ = GRAPHS[name]
    r = F(delta) * (1 + lipschitz_bound(name, delta))
    cands = []
    for i in range(max(ilo, math.ceil(-F(delta) * N)),
                   min(ihi, math.floor((1 + F(delta)) * N)) + 1):
        fx = f(F(i, N))
        for j in range(max(jlo, math.ceil((fx - r) * N)),
                       min(jhi, math.floor((fx + r) * N)) + 1):
            cands.append((F(i, N), F(j, N)))
    hits = graph_hits(name, cands, delta)
    return sorted((int(x * N), int(y * N)) for x, y in hits)


def tube_refs() -> dict:
    refs = {}
    for name, box, N, d in W.lattice_keys():
        hits = lattice_hits(name, box, N, F(d, N * N))
        refs[f"lattice:{name}:N{N}:d{d}"] = {"count": len(hits), "points": hits}
        print(f"lattice {name} N={N} d={d}: {len(hits)}", flush=True)
    for N in W.THIN_N:
        hits = lattice_hits("parabola", ((0, 1), (0, 1)), N, F(1, N ** 5))
        refs[f"thin:parabola:N{N}"] = {"count": len(hits), "points": hits}
        print(f"thin N={N}: {len(hits)}", flush=True)
    seg = (T * rat(W.BOUNDARY_LENGTH), sp.Rational(1, 2))
    hits = [p for p in W.boundary_points()
            if in_tube_poly(seg, p, W.BOUNDARY_DELTA)]
    assert not hits, "every boundary point lies strictly outside the tube"
    refs["boundary"] = {"count": 0, "points": [],
                        "known_defect": BOUNDARY_KNOWN_DEFECT}
    return refs


# ---------------------------------------------------------------------------
# gap-energy
# ---------------------------------------------------------------------------

def int_sumset(A: set, B: set) -> set:
    return {(a[0] + b[0], a[1] + b[1]) for a in A for b in B}


def random_instance(rng: random.Random, lengths) -> dict:
    """A planar GAP in the unit box with rational generators sharing one
    denominator Q; generator i leans toward the angle (i + u)/k · 90°."""
    k = len(lengths)
    Q = rng.choice((240, 360, 420, 480, 504, 600, 720))
    base = (F(rng.randint(0, Q // 20), Q), F(rng.randint(0, Q // 20), Q))
    gens = []
    for i, n in enumerate(lengths):
        ang = (i + rng.uniform(0.2, 0.8)) / k * (math.pi / 2)
        step = 0.9 / k / n
        gens.append((F(round(Q * step * math.cos(ang)), Q),
                     F(round(Q * step * math.sin(ang)), Q)))
    return {"base": [frac_str(c) for c in base],
            "generators": [[frac_str(c) for c in g] for g in gens],
            "lengths": list(lengths)}


def gap_points(inst: dict) -> list:
    base = [F(c) for c in inst["base"]]
    gens = [[F(c) for c in g] for g in inst["generators"]]
    pts = [tuple(base)]
    for g, n in zip(gens, inst["lengths"]):
        pts = [(p[0] + ell * g[0], p[1] + ell * g[1])
               for p in pts for ell in range(1, n + 1)]
    return pts


def gap_pool(slot: int, rng: random.Random) -> list:
    lengths, m, curve, delta = W.GAP_SLOTS[slot]
    pool = []
    while len(pool) < POOL_SIZE:
        inst = random_instance(rng, lengths)
        pts = gap_points(inst)
        Q = math.lcm(*(c.denominator for p in pts for c in p))
        A = {(int(x * Q), int(y * Q)) for x, y in pts}
        if len(A) != math.prod(lengths):
            continue                          # not proper
        if not all(0 <= c <= Q for p in A for c in p):
            continue                          # leaves the unit box
        hits = graph_hits(curve, sorted(set(pts)), delta)
        if not 2 <= len(hits) <= 40:
            continue                          # keep the energy step comparable
        A2 = int_sumset(A, A)
        Am = A2
        for _ in range(m - 2):
            Am = int_sumset(Am, A)
        B = pointsets.FiniteSet(hits)
        inst.update(size=len(A), size_2a=len(A2), size_ma=len(Am),
                    hits=[[frac_str(c) for c in p] for p in sorted(hits)],
                    energy=pointsets.energy_bruteforce(B, m))
        pool.append(inst)
        print(f"gap slot {slot}: |A|={len(A)} |2A|={len(A2)} |{m}A|={len(Am)}"
              f" |B|={len(hits)} E={inst['energy']}", flush=True)
    return pool


def gap_refs(lattice: dict) -> dict:
    rng = random.Random(POOL_SEED)
    refs = {"gap_pools": [gap_pool(s, rng) for s in range(len(W.GAP_SLOTS))]}
    for m in W.ENERGY_M:
        rows = []
        for N in W.ENERGY_SCHEDULE:
            hits = lattice[f"lattice:parabola:N{N}:d1"]["points"]
            assert hits, "every scheduled tube holds lattice points"
            B = pointsets.FiniteSet([(F(i, N), F(j, N)) for i, j in hits])
            rows.append({"N": N, "size": len(B),
                         "energy": pointsets.energy_bruteforce(B, m)})
        refs[f"energy_experiment:m{m}"] = rows
    return refs


# ---------------------------------------------------------------------------
# exact-algebra
# ---------------------------------------------------------------------------

def wronskian_poly(coords) -> list:
    n = len(coords)
    rows = [[sp.diff(c, T, k) for c in coords] for k in range(1, n + 1)]
    W_ = sp.Poly(sp.expand(sp.Matrix(rows).det(method="berkowitz")), T)
    return [] if W_.is_zero else [rat_str(c) for c in reversed(W_.all_coeffs())]


def rat_str(c) -> str:
    c = sp.Rational(c)
    return f"{c.p}/{c.q}"


def wronskian_refs() -> dict:
    refs = {}
    bases = {"parabola": (T, T ** 2), "cubic": (T, T ** 3)}
    chains = [(f"moment{n}", tuple(T ** j for j in range(1, n + 1)))
              for n in W.MOMENT_N]
    for base in ("parabola", "cubic"):
        x, y = bases[base]
        for s in W.LIFT_S:
            # coordinate order as the library's canonical monomial order
            mons = W.make_monomials(f"M{s}").monomials
            chains.append((f"{base}^M{s}",
                           tuple(x ** mo.a * y ** mo.b for mo in mons)))
    for key, coords in chains:
        coeffs = wronskian_poly(coords)
        has_root = (not coeffs or sp.Poly(
            [rat(F(c)) for c in reversed(coeffs)], T).count_roots(0, 1) > 0)
        refs[f"wronskian:{key}"] = {
            "dimension": len(coords), "coeffs": coeffs,
            "status": "failed" if has_root else "certified",
            "exact": not has_root}
    # the circle (cos 2πt, sin 2πt): W = (2π)³(sin² + cos²) = (2π)³ for M1;
    # M2 and M3 contain x² and y² with x² + y² = 1, so the derivative rows
    # are linearly dependent and W ≡ 0.  A constant nonzero W passes the
    # sampled certificate (exact=False); W ≡ 0 fails it.
    for s in W.LIFT_S:
        nonzero = s == 1
        refs[f"wronskian:circle^M{s}"] = {
            "dimension": (s + 1) * (s + 2) // 2 - 1,
            "trig": {"0,0": "1/1"} if nonzero else {}, "tau_power": 3,
            "status": "certified" if nonzero else "failed", "exact": False}
    return refs


def compare_with_library(refs: dict):
    """Print where the library disagrees with a reference (not stored)."""
    for wl in W.WORKLOADS:
        for op in W.build(wl, 0, refs):
            try:
                v = op.check(op.call())
            except Exception as exc:  # report and continue
                print(f"  {wl} {op.key}: raised {exc!r}")
                continue
            if not v.ok or v.known_defect:
                print(f"  {wl} {op.key}: failed"
                      + (" (known defect)" if v.known_defect else ""))


def main():
    tube_part = tube_refs()
    refs = {"tube-sweep": tube_part,
            "gap-energy": gap_refs(tube_part),
            "exact-algebra": wronskian_refs()}
    out = HERE / "references.json"
    out.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":"))
                   + "\n")
    print(f"wrote {out}")
    print("library disagreements at seed 0:")
    compare_with_library(refs)


if __name__ == "__main__":
    main()
