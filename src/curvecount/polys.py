"""Exact univariate polynomial arithmetic over rationals, with real root
counting and isolation on integers.

Polynomials are dense coefficient tuples, low degree first, trimmed of trailing
zeros; the zero polynomial is the empty tuple.  The polynomial algebra (sums,
products, powers, interpolation) is exact over
``fractions.Fraction``.  ``integer_form`` clears a polynomial's
denominators once, as its least common denominator and integer numerators;
curve coordinates cache it.  Determinants, root counting, isolation and
refinement run on Python integers instead.  Ranks and determinants take an
integer matrix, whose callers have cleared its denominators, and share one
fraction-free (Bareiss) elimination that scans the columns for pivots; the
determinant is its square case.  Every real-root question goes to
one kernel, ``Roots(p)``, which keeps p's coprime integer coefficients and
decides by certificate first.  On an interval (a, b) the sign variations V
of the coefficients of (1 + x)^m·p((a + b·x)/(1 + x)) bound the roots of p
in (a, b), counted with multiplicity, and have their parity (Descartes'
rule of signs, the test behind Vincent–Collins–Akritas isolation): V = 0
means no root and V = 1 exactly one simple root.  The transform
(``_mobius``) and its sign count (``_sign_changes``) are separate steps:
the transform is linear in p's coefficients, so a polynomial curve's
plane matrix (``curves.CurveSpec.plane_matrix``) holds it for every
hyperplane at once, its rows ``_mobius`` of a basis.  Only V ≥ 2 builds
the Sturm chain of p's square-free part, once, as primitive integer
polynomials by pseudo-remainders, and answers from it.  Signs at a
rational point n/d are read from the homogeneous integer
d^m·e(n/d) = Σ e_i·n^i·d^(m−i) (``eval_homogeneous``).  Isolation bisects
[a, b] on a dyadic grid with one shared denominator per depth and counts
roots by the chain's sign variations.  Refinement returns what bisecting
an isolating interval to a given depth would, the float of the grid cell
that holds the root, or of the root where it is a grid node, but finds
that cell by a guess: float Newton, one exact Newton step in integers,
then two exact signs at the cell's ends, which confirm it.  Bisection
runs only when the guess misses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .pointsets import parse_frac

Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)


def poly(coeffs: Iterable) -> Poly:
    """Build a trimmed polynomial from an iterable of exact rationals, each
    read by ``parse_frac``: a float or a bool raises InexactNumber."""
    cs = [c if isinstance(c, Fraction) else parse_frac(c) for c in coeffs]
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
        k >>= 1
        if k:
            base = mul(base, base)
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


# -- real roots on integer Sturm chains --------------------------------------
# A positive multiple of a polynomial has the same roots and signs, so the
# chains are primitive integer coefficient lists (see the module docstring).
# Roots and gcd also take p as a trimmed list of ints, which needs no clearing.

def integer_form(p) -> tuple[int, list[int]]:
    """(den, e): the least common denominator of p's coefficients and the
    integers e_i = den·p_i, so p = e/den.  p is any sequence of Fractions or
    ints; the form of the zero polynomial is (1, [])."""
    den = math.lcm(*(c.denominator for c in p))
    return den, [c.numerator * (den // c.denominator) for c in p]


def _ints(p) -> list[int]:
    """Coprime integer coefficients of a positive multiple of p."""
    return _primitive(integer_form(p)[1])


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


def _squarefree_chain(a: list[int]) -> list[list[int]]:
    """Sturm chain of the square-free part q of a, a primitive integer
    polynomial; its head is q."""
    chain = _sturm(a)
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


def eval_homogeneous(e: list[int], n: int, d: int) -> int:
    """d^m·e(n/d) = Σ e_i·n^i·d^(m−i) for integer coefficients e of degree
    m, by Horner's rule in integers; for d > 0 it has the sign of e(n/d)."""
    acc, power = 0, 1
    for c in reversed(e):
        acc, power = acc * n + c * power, power * d
    return acc


def _sign_changes(values) -> int:
    """Sign changes along a sequence of integers, zeros dropped."""
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _mobius(e: list[int], na: int, nb: int, D: int) -> list[int]:
    """The coefficients of R(x) = Σ e_i·(na + nb·x)^i·(D(1 + x))^(m−i),
    D^m·(1 + x)^m·e at (a + b·x)/(1 + x) with a = na/D, b = nb/D, D > 0, for
    e of formal degree m = len(e) − 1.

    x ↦ (a + b·x)/(1 + x) maps (0, ∞) onto the open interval between a and
    b.  R is linear in e, and its constant and leading coefficients are the
    homogeneous values D^m·e(a) and D^m·e(b).  R is built by homogeneous
    Horner, as ``eval_homogeneous`` with the linear polynomials na + nb·x
    and D + D·x in place of n and d: step k takes acc to
    acc·(na + nb·x) + c·D^k·(1 + x)^k, whose coefficients are
    c·D^k·C(k, j), in one new list.  acc carries a trailing 0, so that
    acc[j − 1] reads 0 at j = 0 and acc[j] reads 0 at j = k.
    """
    acc, Dk = [0], 1
    for k, c in enumerate(reversed(e)):
        t = c * Dk
        acc = [na * acc[j] + nb * acc[j - 1] + t * math.comb(k, j)
               for j in range(k + 1)]
        acc.append(0)
        Dk *= D
    acc.pop()
    return acc


def _descartes(e: list[int], na: int, nb: int, D: int) -> int:
    """The sign variations V of ``_mobius(e, na, nb, D)``: they bound e's
    roots in the open interval between na/D and nb/D, counted with
    multiplicity, and have their parity."""
    return _sign_changes(_mobius(e, na, nb, D))


def _over(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """D, a·D, b·D for the least common denominator D of a and b."""
    D = math.lcm(a.denominator, b.denominator)
    return D, a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)


def gcd(p: Poly, q: Poly) -> Poly:
    """A greatest common divisor of p and q, by integer pseudo-remainders."""
    a, b = _ints(p), _ints(q)
    while b:
        a, b = b, _rem(a, b)
    return poly(a)


class Roots:
    """The distinct real roots of a nonzero polynomial p.

    ``coeffs`` are p's coprime integer coefficients.  They answer every root
    question about p on any interval: counts on closed and open intervals,
    isolating intervals, and refinement of one of them to a float.  A
    count or an isolation first counts the sign variations V of the
    interval's Möbius transform of p (``_descartes``) and reads the ends'
    signs from ``eval_homogeneous``; V ≤ 1 is the answer on the open
    interval.  Only V ≥ 2 builds ``chain``, the Sturm chain of p's
    square-free part q as primitive integer polynomials, with ``chain[0]``
    = q, once on first use; refinement needs it only when p has a root at
    an end or the same sign at both.
    """

    __slots__ = ("coeffs", "_chain")

    def __init__(self, p):
        if not p:
            raise ValueError("the zero polynomial has no root count")
        self.coeffs = _ints(p)
        self._chain = None

    @property
    def chain(self) -> list[list[int]]:
        if self._chain is None:
            self._chain = _squarefree_chain(self.coeffs)
        return self._chain

    def _variations(self, n: int, d: int) -> tuple[int, bool]:
        """Sign changes of the chain at n/d, d > 0, with zeros dropped, and
        whether q vanishes there.

        For the square-free q the count is right-continuous: V(a) − V(b) is
        the number of roots of q in (a, b].
        """
        vals = [eval_homogeneous(e, n, d) for e in self.chain]
        return _sign_changes(vals), not vals[0]

    def _ends(self, na: int, nb: int, D: int) -> tuple[bool, bool]:
        """Whether p vanishes at na/D and at nb/D."""
        e = self.coeffs
        return not eval_homogeneous(e, na, D), not eval_homogeneous(e, nb, D)

    def _inside(self, na: int, nb: int, D: int) -> int:
        """Number of distinct real roots strictly between na/D < nb/D: V when
        V ≤ 1, and the chain's count otherwise."""
        v = _descartes(self.coeffs, na, nb, D)
        if v < 2:
            return v
        (va, _), (vb, zb) = (self._variations(n, D) for n in (na, nb))
        return va - vb - zb

    def closed(self, a, b) -> int:
        """Number of distinct real roots in the closed interval [a, b]."""
        a, b = Fraction(a), Fraction(b)
        if a > b:
            return 0
        D, na, nb = _over(a, b)
        za, zb = self._ends(na, nb, D)
        if a == b:
            return int(za)
        return za + zb + self._inside(na, nb, D)

    def open(self, a, b) -> int:
        """Number of distinct real roots in the open interval (a, b)."""
        a, b = Fraction(a), Fraction(b)
        if not a < b:
            return 0
        D, na, nb = _over(a, b)
        return self._inside(na, nb, D)

    def isolate(self, a, b) -> list[tuple[Fraction, Fraction]]:
        """Isolating intervals for the distinct real roots in [a, b].

        Returns a sorted list of rational intervals; degenerate intervals
        (lo == hi) are exact roots.  Each non-degenerate open interval holds
        exactly one simple root of q.  (a, b) itself is one when V = 1;
        otherwise bisection runs on a dyadic grid with one shared
        denominator per depth, and each node costs one evaluation of the
        chain.
        """
        a, b = Fraction(a), Fraction(b)
        D, na, nb = _over(a, b)
        za, zb = self._ends(na, nb, D)
        found: list[tuple[Fraction, Fraction]] = []
        if za:
            found.append((a, a))
        if b != a and zb:
            found.append((b, b))
        # (lo, hi, k, V(lo), V(hi), q(hi) = 0) with ends lo/(D·2^k), hi/(D·2^k)
        stack = []
        if a < b:
            v = _descartes(self.coeffs, na, nb, D)
            if v == 1:
                found.append((a, b))
            elif v:
                va, vb = (self._variations(n, D)[0] for n in (na, nb))
                stack.append((na, nb, 0, va, vb, zb))
        while stack:
            lo, hi, k, vlo, vhi, zhi = stack.pop()
            inside = vlo - vhi - zhi
            if inside == 0:
                continue
            if inside == 1:
                found.append((Fraction(lo, D << k), Fraction(hi, D << k)))
                continue
            mid, k = lo + hi, k + 1
            vmid, zmid = self._variations(mid, D << k)
            if zmid:
                x = Fraction(mid, D << k)
                found.append((x, x))
            stack.append((2 * lo, mid, k, vlo, vmid, zmid))
            stack.append((mid, 2 * hi, k, vmid, vhi, zhi))
        found.sort(key=lambda iv: iv[0] + iv[1])
        return found

    def refine(self, lo, hi, bits: int = 60) -> float:
        """Refine an isolating interval to a float root: the float of the
        last midpoint of a ``bits``-step bisection of [lo, hi] by exact
        signs, or the exact dyadic root where a midpoint is one.

        That value depends only on the root r: the float of r when r is a
        node of the depth-``bits`` dyadic grid on [lo, hi], and otherwise of
        the midpoint of the one grid cell j that holds r.  So j is guessed
        (``_newton_cell``: float Newton kept inside [lo, hi], then one exact
        Newton step) and checked by e's signs at the cell's two ends, e(x_j)
        with slo's sign and e(x_{j+1}) with shi's; a miss tries the one
        neighbour the signs point to.  A cell that checks out holds r, so
        the float is the bisection's, bit for bit; the bisection itself
        (``_bisect``) runs only when neither cell checks out or a float
        overflows.

        When p has opposite signs at the ends, e is p itself: its roots are
        those of q, so inside [lo, hi] it vanishes only at r and changes
        sign there, and every sign test above sees p as it sees q.
        Otherwise e is q.
        """
        if lo == hi:
            return float(lo)
        D, L, H = _over(Fraction(lo), Fraction(hi))
        e = self.coeffs
        slo, shi = eval_homogeneous(e, L, D), eval_homogeneous(e, H, D)
        if not (slo and shi and (slo > 0) != (shi > 0)):
            e = self.chain[0]
            slo, shi = eval_homogeneous(e, L, D), eval_homogeneous(e, H, D)
            if not slo or not shi:
                # a root at an end takes the sign q has just inside the
                # interval, as it would after dividing that root out;
                # chain[1] is a multiple of q'
                inward = 1 if H > L else -1
                if not slo:
                    slo = inward * eval_homogeneous(self.chain[1], L, D)
                if not shi:
                    shi = -inward * eval_homogeneous(self.chain[1], H, D)
        if not slo or not shi or (slo > 0) == (shi > 0):
            raise ArithmeticError("interval does not isolate a simple root")
        try:
            j = _newton_cell(e, L, H, D, slo > 0, bits)
        except OverflowError:   # e or its values leave the float range
            return _bisect(e, L, H, D, slo, bits)
        # the grid's nodes x_i = (L·2^bits + i·W)/(D·2^bits), i = 0..2^bits
        last, W, den, base = 1 << bits, H - L, D << bits, L << bits

        def sign(i: int) -> int:
            return slo if i == 0 else shi if i == last else \
                eval_homogeneous(e, base + i * W, den)

        for _ in range(2):
            j = min(max(j, 0), last - 1)
            s, t = sign(j), sign(j + 1)
            if not s:   # the ends' signs are nonzero: r is an inner node
                return (base + j * W) / den
            if not t:
                return (base + (j + 1) * W) / den
            if (s > 0) != (slo > 0):
                j -= 1
            elif (t > 0) == (slo > 0):
                j += 1
            else:
                return (2 * base + (2 * j + 1) * W) / (den << 1)
        return _bisect(e, L, H, D, slo, bits)


_NEWTON_STEPS = 60   # float Newton iterations at most


def _newton_cell(e: list[int], L: int, H: int, D: int, positive: bool,
                 bits: int) -> int:
    """A guess at the cell j of the depth-``bits`` dyadic grid on the
    interval from L/D to H/D that holds e's one root there, e being
    positive on the L side when ``positive``.

    Float Newton from the midpoint, kept inside a float bracket that each
    value's sign narrows (a step that leaves it bisects instead), puts x
    near the root; one exact Newton step from x, in integers, squares its
    error, and j is read from that rational by floor division.  Raises
    OverflowError when e or one of its values leaves the float range.
    """
    f = [float(c) for c in e]
    a, b = L / D, H / D
    x = (a + b) / 2
    for _ in range(_NEWTON_STEPS):
        v = dv = 0.0
        for c in reversed(f):
            v, dv = v * x + c, dv * x + v
        if not abs(v) + abs(dv) < math.inf:
            raise OverflowError("polynomial values past float range")
        if not v:
            break
        if (v > 0) == positive:
            a = x
        else:
            b = x
        y = x - v / dv if dv else x
        if not min(a, b) < y < max(a, b):
            y = (a + b) / 2
        x, step = y, abs(y - x)
        if step <= 1e-15 * abs(x):   # x is now as close as a float gets
            break
    n, d = x.as_integer_ratio()
    v = eval_homogeneous(e, n, d)
    dv = eval_homogeneous([i * c for i, c in enumerate(e)][1:], n, d)
    # x − e(x)/e′(x) = (n·dv − v)/(d·dv): d^m·e(x) = v, d^(m−1)·e′(x) = dv
    num, q = (n * dv - v, d * dv) if dv else (n, d)
    # j = ⌊(num/q − L/D)·2^bits·D/(H − L)⌋
    return ((num * D - L * q) << bits) // (q * (H - L))


def _bisect(e: list[int], L: int, H: int, D: int, slo: int, bits: int) -> float:
    """``bits`` steps of exact sign bisection of the interval from L/D to
    H/D, on integer numerators over the shared denominator D·2^k at depth
    k, for e with the sign of ``slo`` on the L side: the float of the last
    midpoint, or of a midpoint where e vanishes (int / int is correctly
    rounded, as float of a Fraction is)."""
    k = 0
    for _ in range(bits):
        mid, k = L + H, k + 1
        v = eval_homogeneous(e, mid, D << k)
        if not v:
            return mid / (D << k)
        if (v > 0) == (slo > 0):
            L, H, slo = mid, 2 * H, v
        else:
            L, H = 2 * L, mid
    return (L + H) / (D << (k + 1))


def isolate_roots(p: Poly, a, b) -> list[tuple[Fraction, Fraction]]:
    """``Roots(p).isolate(a, b)``, for a polynomial asked about once."""
    return Roots(p).isolate(a, b)


def refine_root(p: Poly, lo: Fraction, hi: Fraction, bits: int = 60) -> float:
    """``Roots(p).refine(lo, hi, bits)``, for a polynomial asked about once."""
    return Roots(p).refine(lo, hi, bits)


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

def _bareiss(rows) -> tuple[int, int, int]:
    """Fraction-free Gaussian elimination (Bareiss) of an integer matrix to
    echelon form: (rank, sign, pivot).

    Columns are scanned left to right; a column with no nonzero entry at or
    below the current row is skipped, and otherwise a row swap (which flips
    ``sign``) brings one up as the next pivot.  After r pivots, in columns
    c₁ < … < c_r, each entry (i, j) below them with j > c_r is the minor of
    the pivot rows and row i on the columns c₁, …, c_r, j (Sylvester's
    identity), so dividing by the previous pivot is exact.  ``pivot`` is
    the last pivot, that minor of order r, and 1 when r = 0."""
    m = [list(row) for row in rows]
    n, width = len(m), len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for k in range(width):
        if rank == n:
            break
        if not m[rank][k]:
            i = next((i for i in range(rank + 1, n) if m[i][k]), None)
            if i is None:
                continue
            m[rank], m[i], sign = m[i], m[rank], -sign
        top, pivot = m[rank], m[rank][k]
        for row in m[rank + 1:]:
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - row[k] * top[j]) // prev
        rank, prev = rank + 1, pivot
    return rank, sign, prev


def rank_int(rows) -> int:
    """The rank of an integer matrix, given as a list of equally long rows
    (``_bareiss``); a matrix with no rows has rank 0."""
    return _bareiss(rows)[0]


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix: the square case of
    ``_bareiss``, whose last pivot at full rank is the determinant up to
    the sign of its row swaps; 0 below full rank, and 1 for the 0×0
    matrix."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("det_int needs a square matrix")
    rank, sign, pivot = _bareiss(rows)
    return sign * pivot if rank == len(rows) else 0


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
