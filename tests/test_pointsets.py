"""Exact point sets: GAPs, sumsets, doubling, energy, and the inequality
checkers.  Brute-force enumerations serve as the oracles throughout."""

import math
import random
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from curvecount import (CapExceeded, ExplicitSource, FiniteSet, Gap, GapSource,
                        SubsetViolation,
                        additive_energy, check_energy_lower_bound,
                        check_plunnecke, doubling, energy_bruteforce,
                        gap_enumerate, is_proper, m_fold_sumset,
                        min_separation, min_separation_squared,
                        representation_counts, sumset)
from curvecount.pointsets import (DimensionMismatch, SeparationUndefined,
                                  _order_key, least_positive_square)
from curvecount.tube import materialize_source


def _tuple_sums(phi: dict, B) -> Counter:
    """One convolution step on point tuples: every s + b for s in φ and b in
    B, carrying the multiplicity φ(s)."""
    out: Counter = Counter()
    for s, c in phi.items():
        for b in B:
            out[tuple(x + y for x, y in zip(s, b))] += c
    return out


def oracle_levels(a, m):
    """φ of A, 2A, …, mA by the tuple loop."""
    phi = Counter(dict.fromkeys(a.points, 1))
    levels = [phi]
    for _ in range(m - 1):
        phi = _tuple_sums(phi, a.points)
        levels.append(phi)
    return levels


def iset(*pts):
    return FiniteSet(pts)


def test_finite_set_dedup_and_dimension():
    a = FiniteSet([(1, 2), (F(2, 2), F(4, 2)), (0, 0)])
    assert len(a) == 2
    with pytest.raises(DimensionMismatch):
        FiniteSet([(1, 2), (1, 2, 3)])
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            FiniteSet([(bad, 1)])


def test_gap_enumerate_examples():
    g = Gap((0, 0), [(1, 0)], [5])
    assert sorted(gap_enumerate(g)) == [(i, 0) for i in range(1, 6)]
    assert is_proper(g)

    g2 = Gap((0, 0), [(1, 0), (2, 0)], [2, 2])
    assert sorted(gap_enumerate(g2)) == [(3, 0), (4, 0), (5, 0), (6, 0)]
    assert is_proper(g2)

    g3 = Gap((0, 0), [(1, 0), (1, 0)], [2, 2])
    assert sorted(gap_enumerate(g3)) == [(2, 0), (3, 0), (4, 0)]
    assert not is_proper(g3)


@pytest.mark.parametrize("lengths", [[30.7, 30], [F(3)], ["3"], [True]])
def test_gap_lengths_must_be_integers(lengths):
    with pytest.raises(ValueError):
        Gap((0, 0), [(1, 0), (0, 1)][:len(lengths)], lengths)


def test_gap_cap():
    g = Gap((0,), [(1,)], [1000])
    with pytest.raises(CapExceeded):
        gap_enumerate(g, cap=100)


def test_min_separation_examples():
    assert min_separation_squared(iset((0, 0), (1, 0), (3, 0))) == 1
    lattice = FiniteSet([(F(i, 10), F(j, 10)) for i in range(11) for j in range(11)])
    assert min_separation_squared(lattice) == F(1, 100)
    assert min_separation(iset((0, 0), (F(3, 5), F(4, 5)))) == 1.0
    with pytest.raises(SeparationUndefined):
        min_separation(iset((1, 1)))


def test_sumset_and_doubling():
    ap = FiniteSet([(i, 0) for i in range(1, 11)])
    assert len(sumset(ap, ap)) == 19
    assert doubling(ap) == F(19, 10)
    square = iset((0, 0), (1, 0), (0, 1), (1, 1))
    assert len(sumset(square, square)) == 9
    assert doubling(square) == F(9, 4)
    with pytest.raises(DimensionMismatch):
        sumset(ap, iset((1,)))


def test_m_fold_sumset():
    a = iset((0,), (1,))
    assert sorted(m_fold_sumset(a, 1)) == [(0,), (1,)]
    assert sorted(m_fold_sumset(a, 3)) == [(0,), (1,), (2,), (3,)]
    b = iset((0,), (1,), (3,))
    assert sorted(m_fold_sumset(b, 2)) == [(0,), (1,), (2,), (3,), (4,), (6,)]
    point = FiniteSet([()])            # dimension 0: no coordinates to key
    assert m_fold_sumset(point, 3) == point
    assert representation_counts(point, 3) == {(): 1}


def test_sums_of_an_empty_set_are_value_errors():
    empty = FiniteSet([], dimension=2)
    for call in (lambda: m_fold_sumset(empty, 2), lambda: sumset(empty, empty),
                 lambda: doubling(empty), lambda: representation_counts(empty, 2)):
        with pytest.raises(ValueError):
            call()
    assert m_fold_sumset(empty, 1) == empty


def test_energy_basics():
    assert additive_energy(iset((0,), (1,), (2,)), 2) == 19
    assert additive_energy(iset((5, 7)), 3) == 1
    rng = random.Random(1)
    for _ in range(10):
        pts = {(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6)}
        a = FiniteSet(pts)
        assert additive_energy(a, 1) == len(a)


def test_energy_matches_bruteforce_paths():
    rng = random.Random(42)
    for _ in range(30):
        size = rng.randint(1, 8)
        pts = set()
        while len(pts) < size:
            pts.add((rng.randint(-6, 6), rng.randint(-6, 6)))
        a = FiniteSet(pts)
        m = rng.choice([2, 3])
        assert additive_energy(a, m) == energy_bruteforce(a, m)


def test_representation_counts_cross_check_mfold():
    rng = random.Random(17)
    for _ in range(20):
        pts = {(rng.randint(-9, 9),) for _ in range(rng.randint(2, 9))}
        a = FiniteSet(pts)
        m = rng.choice([2, 3])
        phi = representation_counts(a, m)
        assert set(phi) == set(m_fold_sumset(a, m).points)
        assert sum(phi.values()) == len(a) ** m
        assert phi == oracle_levels(a, m)[-1]


def test_energy_lower_bounds():
    rng = random.Random(23)
    for _ in range(40):
        size = rng.randint(2, 10)
        pts = set()
        while len(pts) < size:
            pts.add((rng.randint(-15, 15), rng.randint(-15, 15)))
        a = FiniteSet(pts)
        m = rng.choice([2, 3])
        e = additive_energy(a, m)
        assert e >= len(a) ** m                       # obvious lower bound
        assert e * len(m_fold_sumset(a, m)) >= len(a) ** (2 * m)


def test_lemma_bound_on_progression():
    ap = FiniteSet([(i, 0) for i in range(1, 11)])
    rep = check_energy_lower_bound(ap, ap, 2)
    assert rep.holds and rep.doubling_constant == F(19, 10)
    assert rep.ratio >= 1


def test_lemma_bound_singleton():
    a = iset((0, 0), (2, 3), (5, 1))
    rep = check_energy_lower_bound(a, iset((2, 3)), 3)
    assert rep.holds and rep.energy == 1


def test_lemma_bound_subset_violation():
    with pytest.raises(SubsetViolation):
        check_energy_lower_bound(iset((0, 0)), iset((1, 1)), 2)


def test_plunnecke_holds():
    rng = random.Random(31)
    for _ in range(25):
        pts = {(rng.randint(-20, 20), rng.randint(-20, 20))
               for _ in range(rng.randint(2, 15))}
        rep = check_plunnecke(FiniteSet(pts), rng.choice([2, 3]))
        assert rep.holds


def test_translation_invariance_exact():
    rng = random.Random(8)
    for _ in range(15):
        pts = {(rng.randint(-9, 9), rng.randint(-9, 9))
               for _ in range(rng.randint(2, 8))}
        a = FiniteSet(pts)
        shift = (F(rng.randint(-50, 50), 7), F(rng.randint(-50, 50), 11))
        b = FiniteSet((x + shift[0], y + shift[1]) for x, y in pts)
        m = rng.choice([2, 3])
        assert additive_energy(a, m) == additive_energy(b, m)
        assert doubling(a) == doubling(b)


def test_proper_gap_separation_and_doubling():
    rng = random.Random(12)
    checked = 0
    while checked < 15:
        m = rng.randint(1, 3)
        lengths = [rng.randint(1, 6) for _ in range(m)]
        gens = [tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(m)]
        g = Gap((rng.randint(-3, 3), rng.randint(-3, 3)), gens, lengths)
        pts = gap_enumerate(g)
        if not is_proper(g):
            continue
        checked += 1
        if len(pts) >= 2:
            assert min_separation_squared(pts) > 0
        assert doubling(pts) <= F(2) ** m


def test_ap_energy_closed_form():
    for length in range(2, 51):
        ap = FiniteSet([(i,) for i in range(length)])
        assert additive_energy(ap, 2) == (2 * length ** 3 + length) // 3
    # the normalized energy E2 / L^3 = 2/3 + 1/(3L^2) falls to 2/3 from above
    for length in (10, 50):
        ap = FiniteSet([(i,) for i in range(length)])
        ratio = F(additive_energy(ap, 2), length ** 3)
        assert ratio == F(2, 3) + F(1, 3 * length ** 2)


def test_sumset_and_doubling_are_capped():
    # |A|·|B| pairs are charged before any sum is built
    a = FiniteSet([(i, 0) for i in range(1, 11)])
    b = FiniteSet([(0, j) for j in range(5)])
    assert len(sumset(a, b, cap=50)) == 50
    assert doubling(a, cap=100) == F(19, 10)
    for call in (lambda: sumset(a, b, cap=49), lambda: doubling(a, cap=99),
                 lambda: check_plunnecke(a, 1, cap=99)):
        with pytest.raises(CapExceeded):
            call()


def test_energy_work_cap():
    a = FiniteSet([(i,) for i in range(40)])
    with pytest.raises(CapExceeded):
        additive_energy(a, 3, work_cap=10)
    # the lemma check charges A + A against its work cap too; it used to
    # build all |A|² pairs under the default cap, whatever the caller set
    a, b = FiniteSet([(i, 0) for i in range(200)]), FiniteSet([(0, 0)])
    with pytest.raises(CapExceeded, match="sumset work 40000 exceeds cap 10"):
        check_energy_lower_bound(a, b, 2, work_cap=10)
    assert check_energy_lower_bound(a, b, 2).holds


# -- the integer path against the tuple loop ---------------------------------

_small = st.one_of(st.integers(-30, 30),
                   st.builds(F, st.integers(-60, 60), st.integers(1, 12)))
# coordinates near 10**20, denominators near 10**19 and 1-D spans near 2**62
# put the key box on both sides of the int64 limit
_large = st.one_of(_small,
                   st.integers(10 ** 20 - 40, 10 ** 20 + 40),
                   st.builds(F, st.integers(-40, 40),
                             st.integers(10 ** 19, 10 ** 19 + 40)),
                   st.integers(-2 ** 61, 2 ** 61))


@st.composite
def point_set_pairs(draw, max_size=7):
    d = draw(st.integers(1, 3))
    coord = draw(st.sampled_from([_small, _large]))
    point = st.tuples(*[coord] * d)
    a = draw(st.lists(point, min_size=1, max_size=max_size))
    b = draw(st.lists(point, min_size=1, max_size=max_size))
    return FiniteSet(a, d), FiniteSet(b, d)


_HUGE = (FiniteSet([(10 ** 20, F(1, 10 ** 19 + 3)), (-3, F(2, 7)), (0, 0)]),
         FiniteSet([(F(1, 10 ** 19 + 9), 10 ** 20 + 1), (1, 1)]))
_EDGE = (FiniteSet([(0,), (2 ** 61 - 1,), (5,)]), FiniteSet([(-1,), (2 ** 61,)]))
# 3A spans 3·2**62; the squared distance 9·2**62 leaves int64
_WIDE = (FiniteSet([(0,), (2 ** 62,)]), FiniteSet([(1,)]))
_FAR = (FiniteSet([(0,), (3 * 2 ** 31,)]), FiniteSet([(0,)]))


@settings(max_examples=60, deadline=None)
@given(point_set_pairs())
@example(_HUGE)
@example(_EDGE)
def test_sumset_matches_tuple_loop(pair):
    a, b = pair
    expected = FiniteSet(_tuple_sums(dict.fromkeys(a.points, 1), b.points),
                         a.dimension)
    assert sumset(a, b) == expected
    assert doubling(a) == F(len(oracle_levels(a, 2)[-1]), len(a))


@settings(max_examples=60, deadline=None)
@given(point_set_pairs(max_size=6), st.integers(1, 3))
@example(_HUGE, 3)
@example(_EDGE, 2)
@example(_WIDE, 3)
def test_m_fold_and_representation_counts_match_tuple_loop(pair, m):
    a = pair[0]
    phi = oracle_levels(a, m)[-1]
    assert representation_counts(a, m) == phi
    assert m_fold_sumset(a, m) == FiniteSet(phi, a.dimension)
    energy = additive_energy(a, m)
    assert energy == sum(c * c for c in phi.values())
    assert energy == energy_bruteforce(a, m)


def literal_gap(g):
    """{v + Σ ℓᵢvᵢ : 1 ≤ ℓᵢ ≤ Nᵢ} by a loop over every (ℓ₁, …, ℓ_m)."""
    return {tuple(v + sum(ell * gen[i] for ell, gen in zip(ells, g.generators))
                  for i, v in enumerate(g.base))
            for ells in product(*(range(1, n + 1) for n in g.lengths))}


@st.composite
def gaps(draw):
    d = draw(st.integers(1, 3))
    coord = draw(st.sampled_from([_small, _large]))
    # zero generators and repeated ones make improper GAPs
    gen = st.one_of(st.tuples(*[coord] * d), st.just((0,) * d))
    m = draw(st.integers(1, 3))
    return Gap(draw(st.tuples(*[coord] * d)),
               draw(st.lists(gen, min_size=m, max_size=m)),
               draw(st.lists(st.integers(1, 5), min_size=m, max_size=m)))


@settings(max_examples=100, deadline=None)
@given(gaps())
@example(Gap((10 ** 20, F(1, 3)), [(2 ** 64, 0), (0, F(1, 10 ** 19 + 3))], [3, 4]))
@example(Gap((0, 0), [(1, 2), (0, 0), (2, 4)], [3, 2, 2]))
def test_gap_enumerate_and_is_proper_match_the_definition(g):
    points = literal_gap(g)
    assert gap_enumerate(g) == FiniteSet(points, len(g.base))
    assert is_proper(g) == (len(points) == g.nominal_size)


@settings(max_examples=60, deadline=None)
@given(point_set_pairs(max_size=9))
@example(_HUGE)
@example(_EDGE)
@example(_FAR)
def test_min_separation_matches_pairwise_fractions(pair):
    a = FiniteSet(pair[0].points | pair[1].points)
    if len(a) < 2:
        return
    expected = min(sum((x - y) ** 2 for x, y in zip(p, q))
                   for p, q in combinations(a.points, 2))
    assert min_separation_squared(a) == expected


def _all_pairs_least_positive_square(X, initial):
    """The all-pairs kernel that the sweep replaced, verbatim: rows in
    blocks of _BLOCK elements against every later row."""
    _BLOCK = 1 << 16
    step = max(1, _BLOCK // X.size)
    best = initial
    for i in range(0, len(X), step):
        # rows i..i+step against rows i.. (earlier pairs were seen already)
        diff = X[i:i + step, None, :] - X[None, i:, :]
        d2 = reduce(np.add, [c * c for c in np.moveaxis(diff, -1, 0)])
        best = min(best, d2[d2 > 0].min(initial=best))
    return best


# distinct Fractions within 10⁻³⁰ of a float round to that float
_crowded = st.builds(lambda x, j: float(F(x) + F(j, 10 ** 30)),
                     st.sampled_from([0.0, 0.1, -2.5, 1e8]), st.integers(-3, 3))
# below 1 a gap exceeds its square, so the sweep must stop on squares
_float = st.one_of(st.floats(-1e6, 1e6), st.floats(-1, 1))


@st.composite
def separation_rows(draw):
    """(X, initial): float64, int64 or object rows past 2⁶³, of 0 to 14 rows,
    some on one line parallel to an axis, with an initial of inf (or the
    rows' squared reach) or below every distance."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["float", "crowded", "int64", "object"]))
    coord = {"float": st.one_of(_float, _crowded), "crowded": _crowded,
             "int64": st.integers(-2 ** 29, 2 ** 29),
             "object": st.integers(2 ** 63, 2 ** 63 + 2 ** 70)}[kind]
    rows = draw(st.lists(st.tuples(*[coord] * d), max_size=14))
    line = draw(st.none() | st.integers(0, d - 1))
    if line is not None and rows:   # every other coordinate shared
        rows = [tuple(c if j == line else rows[0][j] for j, c in enumerate(r))
                for r in rows]
    dtype = {"int64": np.int64, "object": object}.get(kind, float)
    X = np.array(rows, dtype=dtype).reshape(len(rows), d)
    # inf, or a bound on every squared distance in the rows' dtype
    top = {"int64": 3 * 2 ** 60, "object": 3 * 2 ** 142}.get(kind, math.inf)
    if draw(st.booleans()) or len(X) < 2:
        return X, top
    least = _all_pairs_least_positive_square(X, top)
    return X, draw(st.sampled_from([0, least / 2 if dtype is float else least // 2]))


@settings(max_examples=300, deadline=None)
@given(separation_rows())
@example((np.array([[0.1], [float(F(0.1) + F(1, 10 ** 30))], [0.3]]), math.inf))
# the least square, 0.05², is at shift 2, whose gap 0.05 exceeds shift 1's
# least square 0.0101
@example((np.array([[0, 0], [0.01, 0.1], [0.05, 0], [0.5, 0.05]]), math.inf))
@example((np.array([[1, 5], [1, 2], [1, 9]], dtype=np.int64), 3 * 2 ** 60))
@example((np.array([[2 ** 63, 0], [2 ** 64, 0]], dtype=object), 0))
def test_sweep_matches_the_all_pairs_kernel(case):
    X, initial = case
    got = least_positive_square(X, initial)
    if not len(X):   # the all-pairs kernel's block size divides by X.size
        assert got == initial
        return
    want = _all_pairs_least_positive_square(X, initial)
    if X.dtype == float:
        assert float(got).hex() == float(want).hex()
    else:
        assert got == want


def test_caches_keep_answers_and_cap_rules():
    a = FiniteSet([(i, i * i % 7) for i in range(12)])
    fresh = FiniteSet(a.points)
    for _ in range(2):   # |A|² = 144 pairs are charged, cache empty or full
        with pytest.raises(CapExceeded, match="sumset work 144 exceeds cap 143"):
            doubling(a, cap=len(a) ** 2 - 1)
        assert doubling(a) == doubling(fresh, cap=len(a) ** 2)
    with pytest.raises(CapExceeded):
        check_plunnecke(a, 2, cap=len(a) ** 2 - 1)
    b = FiniteSet(sorted(a.points)[::3])
    for m in (2, 3):
        assert check_plunnecke(a, m) == check_plunnecke(FiniteSet(a.points), m)
        assert check_energy_lower_bound(a, b, m) == \
            check_energy_lower_bound(FiniteSet(a.points), b, m)

    g = Gap((F(1, 3), 0), [(1, F(1, 2)), (0, 1)], [4, 3])
    first = gap_enumerate(g)
    assert gap_enumerate(g) is first and is_proper(g)
    for call in (gap_enumerate, is_proper):
        with pytest.raises(CapExceeded, match="nominal size 12 exceeds cap 11"):
            call(g, cap=g.nominal_size - 1)
    twin = Gap((F(1, 3), 0), [(1, F(1, 2)), (0, 1)], [4, 3])
    assert twin._points is None and g._points is first
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    assert gap_enumerate(twin) == first


def test_multiplicities_beyond_int64_stay_exact():
    # 2**70 ordered tuples: the counts leave int64, so they are Python ints
    a = iset((0,), (1,))
    phi = representation_counts(a, 70)
    assert phi[(35,)] == math.comb(70, 35) > 2 ** 63
    assert sum(phi.values()) == 2 ** 70
    assert len(m_fold_sumset(a, 70)) == 71
    # at m = 40 the counts fit int64 and their squares do not
    assert additive_energy(a, 40) == math.comb(80, 40)
    assert additive_energy(a, 70) == math.comb(140, 70)


@settings(max_examples=60, deadline=None)
@given(point_set_pairs(max_size=6), st.integers(1, 3), st.integers(0, 300))
@example(_HUGE, 3, 20)
def test_caps_fire_on_the_level_sizes(pair, m, cap):
    # a call's cap bounds the pairs all its steps form, Σ |kA|·|A| over the
    # levels k < m; check_plunnecke also charges doubling's |A|² pairs on
    # their own, which matters at m = 1
    a = pair[0]
    work = sum(len(level) * len(a) for level in oracle_levels(a, m)[:-1])
    for call, raises in ((lambda: m_fold_sumset(a, m, cap), work > cap),
                         (lambda: check_plunnecke(a, m, cap),
                          max(work, len(a) ** 2) > cap),
                         (lambda: representation_counts(a, m, cap), work > cap)):
        if raises:
            with pytest.raises(CapExceeded, match="sumset work .* exceeds cap"):
                call()
        else:
            call()


# -- sets in integer form against their Fraction points ----------------------

# numerators in [2**63, 2**64), where numpy left to itself infers uint64 or
# float64, and past 2**64; negative offsets; halves, whose sums can need a
# smaller denominator than their summands
_past_int64 = st.one_of(
    _small,
    st.integers(2 ** 63, 2 ** 64 - 1),
    st.integers(-2 ** 64 - 40, -2 ** 63),
    st.integers(2 ** 64, 2 ** 66),
    st.builds(F, st.integers(2 ** 63, 2 ** 64 - 1), st.integers(1, 6)),
    st.builds(F, st.integers(-30, 30).map(lambda k: 2 * k + 1), st.just(2)))


@st.composite
def integer_form_cases(draw):
    """(kind, arguments) of a set built from sums: a sumset, an m-fold
    sumset or a GAP, in dimension 0 to 3."""
    d = draw(st.integers(0, 3))
    coord = draw(st.sampled_from([_small, _past_int64]))
    point = st.tuples(*[coord] * d)
    kind = draw(st.sampled_from(["sumset", "m_fold", "gap"]))
    if kind == "gap":
        m = draw(st.integers(1, 3))
        return kind, Gap(draw(point), draw(st.lists(point, min_size=m, max_size=m)),
                         draw(st.lists(st.integers(1, 4), min_size=m, max_size=m)))
    a = FiniteSet(draw(st.lists(point, min_size=1, max_size=5)), d)
    if kind == "m_fold":
        return kind, (a, draw(st.integers(2, 3)))
    return kind, (a, FiniteSet(draw(st.lists(point, min_size=1, max_size=5)), d))


def _built_and_expected(kind, args) -> tuple:
    """The set the library builds and its points by a loop over Fractions."""
    if kind == "gap":
        return gap_enumerate(args), literal_gap(args), len(args.base)
    a, other = args
    if kind == "m_fold":
        return m_fold_sumset(a, other), set(oracle_levels(a, other)[-1]), a.dimension
    return sumset(a, other), set(_tuple_sums(dict.fromkeys(a.points, 1),
                                             other.points)), a.dimension


_HALF = FiniteSet([(F(1, 2), F(-3, 2))])


@settings(max_examples=150, deadline=None)
@given(integer_form_cases())
@example(("sumset", (_HALF, _HALF)))   # {1/2} + {1/2} = {1}: L goes 2 → 1
@example(("m_fold", (FiniteSet([(F(1, 2),), (F(3, 2),)]), 2)))
@example(("sumset", (FiniteSet([()]), FiniteSet([()]))))
@example(("gap", Gap((), [(), ()], [2, 3])))
@example(("sumset", (FiniteSet([(2 ** 63, -5), (F(2 ** 64 - 1, 3), 7)]),
                     FiniteSet([(0, 1), (-2 ** 63, F(1, 2))]))))
@example(("gap", Gap((2 ** 63, -1), [(1, 2 ** 64), (F(1, 3), 0)], [3, 2])))
def test_sets_built_from_sums_equal_their_fraction_points(case):
    built, expected, d = _built_and_expected(*case)
    exact = FiniteSet(expected, d)
    ordered = sorted(exact.points)
    # the integer forms first: nothing below decodes `built` before `in`
    assert len(built) == len(exact) == len(expected)
    assert built == exact and exact == built
    assert built <= exact and exact <= built
    assert list(built) == ordered == list(exact)
    # a fresh set of exact points has no integer form: sorted, float(c)
    sources = [ExplicitSource(built), ExplicitSource(FiniteSet(expected, d))]
    if case[0] == "gap":
        sources.append(GapSource(case[1]))
    for source in sources:
        fs, floats = materialize_source(source)
        assert list(fs) == ordered
        assert [fs._point(i) for i in range(len(fs))] == ordered
        # the batch decode, in any index order
        ids = list(range(len(fs)))[::-2]
        assert list(fs._points_at(np.array(ids, dtype=np.int64))) == [ordered[i] for i in ids]
        assert floats.shape == (len(ordered), d)
        assert [[x.hex() for x in row] for row in floats.tolist()] == \
            [[float(c).hex() for c in p] for p in ordered]
    if len(ordered) > 1:
        fewer = FiniteSet(ordered[1:], d)
        assert fewer <= built and not built <= fewer and built != fewer
    if d:
        assert (ordered[-1][0] + 1, *ordered[-1][1:]) not in built
    assert all(p in built for p in ordered)
    assert built.points == exact.points


# coordinates for the exact order: distinct Fractions that round to one float
# (1/3 and its neighbours 10⁻³⁰ apart), negatives, plain ints, and values
# near and past 10³⁰⁸, the edge of the float range
_ORDER_COORDS = (
    st.integers(-5, 5)
    | st.fractions(-3, 3, max_denominator=12)
    | st.builds(lambda k: F(1, 3) + F(k, 10 ** 30), st.integers(-3, 3))
    | st.builds(lambda k: -F(1, 3) + F(k, 10 ** 30), st.integers(-3, 3))
    | st.builds(lambda s, k: s * (10 ** 308 * (1 + k) + F(k, 7)),
                st.sampled_from([-1, 1]), st.integers(0, 3))
    | st.builds(lambda s, k: s * 2 ** 1024 * k, st.sampled_from([-1, 1]),
                st.integers(1, 3)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(*[_ORDER_COORDS] * d), max_size=30)))
def test_exact_points_sort_in_exact_order(pts):
    # the float-first key gives the order of the exact points themselves,
    # on integer-only sets, mixed ones and Fractions one float cannot tell
    # apart alike, and past the float range with no OverflowError; a set
    # sorts on it or plainly as one of its points says, in the same order
    exact = sorted(set(FiniteSet(pts).points)) if pts else []
    assert sorted(reversed(exact), key=_order_key) == exact
    if pts:
        assert list(FiniteSet(pts)) == exact
