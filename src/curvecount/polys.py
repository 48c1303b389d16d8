"""Exact univariate polynomial arithmetic over rationals, with Sturm-based
real root isolation.

Polynomials are dense coefficient tuples, low degree first, trimmed of trailing
zeros; the zero polynomial is the empty tuple.  The polynomial algebra (sums,
products, powers, composition, interpolation) is exact over
``fractions.Fraction``.  Determinants, root counting, isolation and
refinement run on Python integers instead.  A determinant clears each row of
denominators and eliminates by Bareiss.  The square-free part and its Sturm
chain are built once per call as primitive integer polynomials by
pseudo-remainders, and signs at a rational point n/d are read from the
homogeneous integer Σ c_i·n^i·d^(deg−i).  Isolation bisects [a, b] on a
dyadic grid with one shared denominator per depth and counts roots by sign
variations; refinement bisects integer numerators the same way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)


def poly(coeffs: Iterable) -> Poly:
    """Build a trimmed polynomial from any iterable of rational-like values."""
    cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def is_zero(p: Poly) -> bool:
    return not p


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return poly(out)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, tuple(-c for c in q))


def scale(p: Poly, k) -> Poly:
    k = Fraction(k)
    if k == 0:
        return ZERO
    return tuple(c * k for c in p)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def power(p: Poly, k: int) -> Poly:
    if k < 0:
        raise ValueError("negative power")
    out = ONE
    base = p
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base)
        k >>= 1
    return out


def derivative(p: Poly) -> Poly:
    return tuple(c * i for i, c in enumerate(p) if i >= 1)


def eval_exact(p: Poly, t) -> Fraction:
    """Horner evaluation in exact rational arithmetic."""
    t = t if isinstance(t, Fraction) else Fraction(t)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * t + c
    return acc


def compose(p: Poly, q: Poly) -> Poly:
    """p(q(t)), exact (Horner in the polynomial ring)."""
    acc: Poly = ZERO
    for c in reversed(p):
        acc = add(mul(acc, q), poly([c]))
    return acc


# -- root counting, isolation and refinement on integer chains ---------------
# A positive multiple of a polynomial has the same roots and signs, so these
# work on primitive integer coefficient lists (see the module docstring).
# They also take p as a trimmed list of ints, which needs no clearing.

def _ints(p) -> list[int]:
    """Coprime integer coefficients of a positive multiple of p."""
    den = math.lcm(*(c.denominator for c in p))
    return _primitive([c.numerator * (den // c.denominator) for c in p])


def _primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _rem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of a positive multiple of the remainder of a by b."""
    r = list(a)
    lead, db = b[-1], len(b) - 1
    while len(r) > db:
        g = math.gcd(r[-1], lead)
        s, f = lead // g, r[-1] // g
        if s < 0:
            s, f = -s, -f
        shift = len(r) - 1 - db
        r = [c * s for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= f * c
        while r and not r[-1]:
            r.pop()
    return _primitive(r)


def _sturm(a: list[int]) -> list[list[int]]:
    """a, a', then negated remainders down to gcd(a, a'): the Sturm chain
    of a when a is square-free."""
    chain = [a, _primitive(list(derivative(a)))]
    while chain[-1]:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    chain.pop()
    return chain


def _squarefree_chain(p: Poly) -> list[list[int]]:
    """Sturm chain of the square-free part q of p; its head is q."""
    chain = _sturm(_ints(p))
    g = chain[-1]
    if len(g) == 1:
        return chain
    # divide out gcd(p, p'); the quotient is integral because g is primitive
    r, q = list(chain[0]), []
    for shift in range(len(r) - len(g), -1, -1):
        c = r[shift + len(g) - 1] // g[-1]
        q.append(c)
        for i, gi in enumerate(g):
            r[shift + i] -= c * gi
    return _sturm(q[::-1])


def _chain_over(p: Poly, a: Fraction, b: Fraction):
    """D, a·D, b·D for the least common denominator D of a and b, and the
    Sturm chain of p's square-free part with each c_i scaled by D^(m−i)."""
    D = math.lcm(a.denominator, b.denominator)
    chain = [[c * D ** (len(q) - 1 - i) for i, c in enumerate(q)]
             for q in _squarefree_chain(p)]
    return D, a.numerator * (D // a.denominator), b.numerator * (D // b.denominator), chain


def _value(e: list[int], n: int, k: int) -> int:
    """Σ c_i·n^i·(D·2^k)^(m−i) for a member e = [c_i·D^(m−i)] of a chain
    from _chain_over: (D·2^k)^m·c(n / (D·2^k)), which has the sign of c there."""
    m = len(e) - 1
    acc = 0
    for i in range(m, -1, -1):
        acc = acc * n + (e[i] << (k * (m - i)))
    return acc


def _sign_changes(chain: list[list[int]], n: int, k: int) -> tuple[int, bool]:
    """Sign changes of the chain at n / (D·2^k) with zeros dropped, and
    whether its head vanishes there.

    For a square-free head q the count is right-continuous: V(lo) − V(hi)
    is the number of roots of q in (lo, hi].
    """
    vals = [_value(e, n, k) for e in chain]
    signs = [v > 0 for v in vals if v]
    return sum(s != t for s, t in zip(signs, signs[1:])), not vals[0]


def gcd(p: Poly, q: Poly) -> Poly:
    """A greatest common divisor of p and q, by integer pseudo-remainders."""
    a, b = _ints(p), _ints(q)
    while b:
        a, b = b, _rem(a, b)
    return poly(a)


def _counts(p: Poly, a, b) -> tuple[int, bool, bool]:
    """Roots of p in (a, b], and whether p vanishes at a and at b."""
    if is_zero(p):
        raise ValueError("zero polynomial has no root count")
    _, na, nb, chain = _chain_over(p, Fraction(a), Fraction(b))
    (va, za), (vb, zb) = (_sign_changes(chain, n, 0) for n in (na, nb))
    return va - vb, za, zb


def count_roots_open(p: Poly, a, b) -> int:
    """Number of distinct real roots of p in the open interval (a, b)."""
    if is_zero(p):
        raise ValueError("zero polynomial has no root count")
    if not Fraction(a) < Fraction(b):
        return 0
    n, _, zb = _counts(p, a, b)
    return n - zb


def count_roots_closed(p: Poly, a, b) -> int:
    """Number of distinct real roots of p in the closed interval [a, b]."""
    if Fraction(a) > Fraction(b):
        return 0
    n, za, _ = _counts(p, a, b)
    return n + za


def isolate_roots(p: Poly, a, b) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the distinct real roots of p in [a, b].

    Returns a sorted list of rational intervals; degenerate intervals
    (lo == hi) are exact roots.  Each non-degenerate open interval contains
    exactly one simple root of the square-free part.  The Sturm chain is
    built once; each bisection node costs one evaluation of it.
    """
    if is_zero(p):
        raise ValueError("cannot isolate roots of the zero polynomial")
    a, b = Fraction(a), Fraction(b)
    D, na, nb, chain = _chain_over(p, a, b)
    (va, za), (vb, zb) = (_sign_changes(chain, n, 0) for n in (na, nb))
    found: list[tuple[Fraction, Fraction]] = []
    if za:
        found.append((a, a))
    if b != a and zb:
        found.append((b, b))
    # (lo, hi, k, V(lo), V(hi), q(hi) = 0) with ends lo/(D·2^k), hi/(D·2^k)
    stack = [(na, nb, 0, va, vb, zb)] if a < b else []
    while stack:
        lo, hi, k, vlo, vhi, zhi = stack.pop()
        inside = vlo - vhi - zhi
        if inside == 0:
            continue
        if inside == 1:
            found.append((Fraction(lo, D << k), Fraction(hi, D << k)))
            continue
        mid, k = lo + hi, k + 1
        vmid, zmid = _sign_changes(chain, mid, k)
        if zmid:
            x = Fraction(mid, D << k)
            found.append((x, x))
        stack.append((2 * lo, mid, k, vlo, vmid, zmid))
        stack.append((mid, 2 * hi, k, vmid, vhi, zhi))
    found.sort(key=lambda iv: iv[0] + iv[1])
    return found


def refine_root(p: Poly, lo: Fraction, hi: Fraction, bits: int = 60) -> float:
    """Refine an isolating interval to a float root by exact sign bisection
    of the square-free part, on integer numerators over a shared dyadic
    denominator; the float is that of the last midpoint."""
    if lo == hi:
        return float(lo)
    D, L, H, chain = _chain_over(p, Fraction(lo), Fraction(hi))
    e = chain[0]
    slo, shi = _value(e, L, 0), _value(e, H, 0)
    if not slo or not shi:
        # a root at an end takes the sign q has just inside the interval, as
        # it would after dividing that root out; chain[1] is a multiple of q'
        inward = 1 if H > L else -1
        if not slo:
            slo = inward * _value(chain[1], L, 0)
        if not shi:
            shi = -inward * _value(chain[1], H, 0)
    if not slo or not shi or (slo > 0) == (shi > 0):
        raise ArithmeticError("interval does not isolate a simple root")
    k = 0
    for _ in range(bits):
        mid, k = L + H, k + 1
        v = _value(e, mid, k)
        if not v:
            return float(Fraction(mid, D << k))
        if (v > 0) == (slo > 0):
            L, H, slo = mid, 2 * H, v
        else:
            L, H = 2 * L, mid
    return float(Fraction(L + H, D << (k + 1)))


def sup_bound(p: Poly, a, b) -> float:
    """Upper bound for |p(t)| on [a, b]: sum of |c_i| * r^i with r = max |t|."""
    r = max(abs(float(a)), abs(float(b)))
    bound = 0.0
    rad = 1.0
    for c in p:
        bound += abs(float(c)) * rad
        rad *= r
    return bound * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Determinants and interpolation
# ---------------------------------------------------------------------------

def det_fraction(rows) -> Fraction:
    """Exact determinant of a square matrix of ints and Fractions: each row
    times the lcm of its denominators, then fraction-free Bareiss on integers,
    whose entries after step k are minors, so dividing by the last pivot is
    exact."""
    n, m, den = len(rows), [], 1
    for row in rows:
        L = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (L // x.denominator) for x in row])
        den *= L
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return Fraction(0)
            m[k], m[i], sign = m[i], m[k], -sign
        top, pivot = m[k], m[k][k]
        for row in m[k + 1:]:
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - row[k] * top[j]) // prev
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], den)


def interpolate(xs, ys) -> Poly:
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i]),
    by Newton's divided differences; the xs are distinct rationals."""
    c = [Fraction(y) for y in ys]
    for k in range(1, len(c)):
        for i in range(len(c) - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - k])
    p = ZERO
    for x, ci in zip(reversed(xs), reversed(c)):
        p = add(mul(p, poly((-x, 1))), poly((ci,)))
    return p
