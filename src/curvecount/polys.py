"""Exact univariate polynomial arithmetic over rationals, with Sturm-based
real root isolation.

Polynomials are dense coefficient tuples, low degree first, trimmed of trailing
zeros; the zero polynomial is the empty tuple.  All arithmetic is exact over
``fractions.Fraction``.  Root isolation follows the classical recipe: take the
square-free part, strip roots sitting exactly at interval endpoints, then
bisect on Sturm sign-variation counts until each interval holds one root.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence

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


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


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


def divmod_exact(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of p by d over the rationals."""
    if is_zero(d):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dd = degree(d)
    lead = d[-1]
    quot = [Fraction(0)] * max(0, len(p) - dd)
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        shift = len(rem) - 1 - dd
        factor = rem[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(d):
            rem[shift + i] -= factor * c
        rem.pop()
    return poly(quot), poly(rem)


def div_exact(p: Poly, d: Poly) -> Poly:
    q, r = divmod_exact(p, d)
    if not is_zero(r):
        raise ArithmeticError("inexact polynomial division")
    return q


def _primitive(p: Poly) -> Poly:
    """Scale by a positive rational so coefficients are coprime integers.

    Positive scaling preserves signs, hence Sturm sign variations.
    """
    if is_zero(p):
        return p
    den = math.lcm(*(c.denominator for c in p))
    nums = [c.numerator * (den // c.denominator) for c in p]
    g = math.gcd(*(abs(n) for n in nums))
    return tuple(Fraction(n // g) for n in nums)


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic polynomial gcd by the Euclidean algorithm."""
    a, b = _primitive(p), _primitive(q)
    while not is_zero(b):
        _, r = divmod_exact(a, b)
        a, b = b, _primitive(r)
    if is_zero(a):
        return ZERO
    return scale(a, 1 / a[-1])


def squarefree_part(p: Poly) -> Poly:
    if degree(p) <= 1:
        return p
    return div_exact(p, gcd(p, derivative(p)))


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence of a square-free polynomial."""
    chain = [_primitive(p), _primitive(derivative(p))]
    while not is_zero(chain[-1]):
        _, r = divmod_exact(chain[-2], chain[-1])
        chain.append(_primitive(neg(r)))
    chain.pop()
    return chain


def _variations(chain: Sequence[Poly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = eval_exact(q, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def deflate_root(p: Poly, r: Fraction) -> Poly:
    """Divide out a known root r, i.e. exact division by (t - r)."""
    out = []
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    if out[-1] != 0:
        raise ArithmeticError(f"{r} is not a root")
    out.pop()
    return poly(reversed(out))


def count_roots_open(p: Poly, a, b) -> int:
    """Number of distinct real roots of p in the open interval (a, b)."""
    if is_zero(p):
        raise ValueError("zero polynomial has no root count")
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        return 0
    q = squarefree_part(p)
    while not is_zero(q) and eval_exact(q, a) == 0:
        q = deflate_root(q, a)
    while not is_zero(q) and eval_exact(q, b) == 0:
        q = deflate_root(q, b)
    if degree(q) <= 0:
        return 0
    chain = sturm_chain(q)
    return _variations(chain, a) - _variations(chain, b)


def count_roots_closed(p: Poly, a, b) -> int:
    """Number of distinct real roots of p in the closed interval [a, b]."""
    a, b = Fraction(a), Fraction(b)
    if a > b:
        return 0
    q = squarefree_part(p)
    n = count_roots_open(q, a, b)
    if eval_exact(q, a) == 0:
        n += 1
    if b != a and eval_exact(q, b) == 0:
        n += 1
    return n


def isolate_roots(p: Poly, a, b) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the distinct real roots of p in [a, b].

    Returns a sorted list of rational intervals; degenerate intervals
    (lo == hi) are exact roots.  Each non-degenerate open interval contains
    exactly one simple root of the square-free part.
    """
    if is_zero(p):
        raise ValueError("cannot isolate roots of the zero polynomial")
    a, b = Fraction(a), Fraction(b)
    q = squarefree_part(p)
    found: list[tuple[Fraction, Fraction]] = []
    if eval_exact(q, a) == 0:
        found.append((a, a))
    if b != a and eval_exact(q, b) == 0:
        found.append((b, b))
    stack = [(a, b)]
    while stack:
        lo, hi = stack.pop()
        k = count_roots_open(q, lo, hi)
        if k == 0:
            continue
        if k == 1:
            found.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if eval_exact(q, mid) == 0:
            found.append((mid, mid))
        stack.append((lo, mid))
        stack.append((mid, hi))
    found.sort(key=lambda iv: iv[0] + iv[1])
    return found


def refine_root(p: Poly, lo: Fraction, hi: Fraction, bits: int = 60) -> float:
    """Refine an isolating interval to a float root by exact sign bisection."""
    if lo == hi:
        return float(lo)
    q = squarefree_part(p)
    while eval_exact(q, lo) == 0:
        q = deflate_root(q, lo)
    while eval_exact(q, hi) == 0:
        q = deflate_root(q, hi)
    slo = eval_exact(q, lo)
    shi = eval_exact(q, hi)
    if slo == 0 or shi == 0 or (slo > 0) == (shi > 0):
        raise ArithmeticError("interval does not isolate a simple root")
    for _ in range(bits):
        mid = (lo + hi) / 2
        v = eval_exact(q, mid)
        if v == 0:
            return float(mid)
        if (v > 0) == (slo > 0):
            lo, slo = mid, v
        else:
            hi = mid
    return float((lo + hi) / 2)


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
# Determinants over an arbitrary exact coefficient ring
# ---------------------------------------------------------------------------

def det_ring(rows: Sequence[Sequence], zero, radd: Callable, rmul: Callable,
             rneg: Callable):
    """Determinant via Laplace expansion with memoized minors.

    ``rows`` is a square matrix of ring elements; the ring is described by its
    zero element and add/mul/neg callables.  Minors over the leading k rows
    and every k-subset of columns are built bottom-up, so the cost is
    O(n * 2^n) ring multiply-adds instead of n! -- exact in any commutative
    ring, no division needed.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    cur = {1 << j: rows[0][j] for j in range(n)}
    for k in range(2, n + 1):
        nxt = {}
        for cols in combinations(range(n), k):
            mask = 0
            for c in cols:
                mask |= 1 << c
            acc = zero
            # expand along row k-1; sign is (-1)^((k-1) + position)
            for idx, j in enumerate(cols):
                entry = rows[k - 1][j]
                minor = cur[mask ^ (1 << j)]
                term = rmul(entry, minor)
                if (k - 1 + idx) % 2:
                    term = rneg(term)
                acc = radd(acc, term)
            nxt[mask] = acc
        cur = nxt
    return cur[(1 << n) - 1]


def det_poly(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a matrix of rational polynomials."""
    return det_ring(rows, ZERO, add, mul, neg)


def det_fraction(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a rational matrix (fraction-free Bareiss)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    m = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
