"""Closed forms against the definitional code they replaced.

The oracles below are the earlier implementations: the subset
enumeration of ``subset_lcm_table``, the fixed-point gcd/lcm absorption
of ``_invariant_factors``, the summand-by-summand ``product_groups``,
the per-degree enumeration of ``graded_dimensions`` and the linear-loop
power.  Each fast path must agree with its oracle on
the acceptance corpus (every weight vector with n <= 4 and entries
<= 6) and on hypothesis-drawn inputs, including degree 0, factors with
N = 1 and coprime N_a, N_b.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st

from wpscoh.abelian import FgAbGroup, Z, _invariant_factors, cyclic, direct_sum_all
from wpscoh.arith import coprime_base, valuation
from wpscoh.chenruan import CrRing
from wpscoh.kawasaki import KawasakiRing, subset_lcm_table
from wpscoh.kunneth import odd_torsion_witness, product_groups
from wpscoh.orbifold import OrbifoldRing

CORPUS = [
    ms
    for size in range(1, 6)
    for ms in combinations_with_replacement(range(1, 7), size)
]


# -- oracles ------------------------------------------------------------------


def subset_lcm_table_oracle(b):
    """ell_k as the lcm over (k+1)-subsets of prod / gcd."""
    b = tuple(b)
    return tuple(
        math.lcm(*(math.prod(s) // math.gcd(*s) for s in combinations(b, k + 1)))
        for k in range(len(b))
    )


def invariant_factors_oracle(orders):
    """Pairwise gcd/lcm absorption, repeated until nothing changes."""
    factors = [d for d in orders if d > 1]
    changed = True
    while changed:
        changed = False
        factors.sort()
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                if b % a:
                    factors[i] = math.gcd(a, b)
                    factors[j] = math.lcm(a, b)
                    changed = True
        factors = [d for d in factors if d > 1]
    return tuple(sorted(factors))


def product_groups_oracle(a, b, max_degree):
    """{degree: (free rank, torsion)} from every tensor and Tor summand."""
    ra, rb = OrbifoldRing(a), OrbifoldRing(b)
    table = {}
    for d in range(max_degree + 1):
        summands = [
            ra.group_at_degree(i).tensor(rb.group_at_degree(d - i)) for i in range(d + 1)
        ]
        summands += [
            ra.group_at_degree(i).tor(rb.group_at_degree(d + 1 - i)) for i in range(d + 2)
        ]
        orders = [t for g in summands for t in g.torsion]
        table[d] = (sum(g.free_rank for g in summands), invariant_factors_oracle(orders))
    return table


def graded_dimensions_oracle(self, max_degree):
    """CrRing.graded_dimensions as it was: every degree of every nonzero
    sector in Fraction arithmetic, one cyclic group each, then one direct
    sum per degree."""
    max_degree = Fraction(max_degree)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    buckets: dict = {}
    for j in self.nonzero:
        s = self.sector(j)
        m = 0
        while s.degree_shift + 2 * m <= max_degree:
            group = Z if m < s.d else cyclic(s.c)
            if not group.is_zero:
                buckets.setdefault(s.degree_shift + 2 * m, []).append(group)
            m += 1
    return sorted((deg, direct_sum_all(gs)) for deg, gs in buckets.items())


def power_oracle(x, k):
    out = x.ring.one()
    for _ in range(k):
        out = out * x
    return out


def assert_product_groups_match(a, b, max_degree):
    pg = product_groups(a, b, max_degree)
    want = product_groups_oracle(a, b, max_degree)
    for d in range(max_degree + 1):
        group = pg.groups.group(d)
        assert (group.free_rank, group.torsion) == want[d], (a, b, d)
    odd = [d for d in range(1, max_degree + 1, 2) if want[d] != (0, ())]
    assert pg.odd_torsion_witness() == (odd[0] if odd else None)


# -- coprime base ----------------------------------------------------------------


@given(st.lists(st.integers(1, 10_000), max_size=8))
def test_coprime_base_is_coprime_and_spans(xs):
    base = coprime_base(xs)
    assert all(q > 1 for q in base)
    assert all(math.gcd(p, q) == 1 for p, q in combinations(base, 2))
    for x in xs:
        assert math.prod(q ** valuation(x, q) for q in base) == x


# -- subset-lcm table -----------------------------------------------------------------


def test_subset_lcm_table_matches_enumeration_on_corpus():
    for b in CORPUS:
        assert subset_lcm_table(b) == subset_lcm_table_oracle(b), b


@given(st.lists(st.integers(1, 60), min_size=1, max_size=9))
@settings(max_examples=200, deadline=None)
def test_subset_lcm_table_matches_enumeration(b):
    assert subset_lcm_table(b) == subset_lcm_table_oracle(b)


@given(
    st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 16, 27, 36, 64]), min_size=1, max_size=8),
    st.integers(1, 12),
)
@settings(max_examples=100, deadline=None)
def test_subset_lcm_table_matches_enumeration_on_prime_powers(b, scale):
    b = [scale * x for x in b]
    assert subset_lcm_table(b) == subset_lcm_table_oracle(b)


# -- invariant factors ---------------------------------------------------------------------


def test_invariant_factors_examples_against_oracle():
    for orders in ([], [1], [0, 1], [2, 3], [30, 4], [12, 18, 10], [6, 6, 4, 9, 1, 8],
                   [2] * 7 + [3] * 5 + [12], [60, 84, 90, 35, 4, 4]):
        assert _invariant_factors(orders) == invariant_factors_oracle(orders), orders


@given(st.lists(st.integers(0, 400), max_size=10))
@settings(max_examples=300)
def test_invariant_factors_matches_fixed_point(orders):
    assert _invariant_factors(orders) == invariant_factors_oracle(orders)


@given(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 18, 24, 36, 72]), max_size=14))
@settings(max_examples=200)
def test_invariant_factors_matches_fixed_point_on_shared_factors(orders):
    assert _invariant_factors(orders) == invariant_factors_oracle(orders)


@given(st.lists(st.tuples(st.integers(0, 3), st.lists(st.integers(1, 40), max_size=4)),
                max_size=6))
def test_direct_sum_all_matches_pairwise_sums(parts):
    groups = [FgAbGroup(r, t) for r, t in parts]
    folded = FgAbGroup()
    for g in groups:
        folded = folded.direct_sum(g)
    assert direct_sum_all(groups) == folded


# -- Kunneth groups ------------------------------------------------------------------------


def test_product_groups_matches_summands_on_corpus():
    for i, a in enumerate(CORPUS):
        b = CORPUS[(7 * i + 3) % len(CORPUS)]
        assert_product_groups_match(a, b, 14)


def test_product_groups_edge_cases():
    # degree 0 only; N = 1 on one or both sides; coprime N_a, N_b; equal N
    for a, b, d in [
        ((1, 2, 3), (2, 3), 0),
        ((1,), (1,), 9),
        ((1, 1), (2, 3), 20),
        ((1, 1, 1), (1, 1), 20),
        ((2, 5), (3, 7, 1), 30),
        ((4,), (9, 1), 25),
        ((2, 3), (6,), 25),
        ((1, 2, 3), (2, 3, 4), 40),
    ]:
        assert_product_groups_match(a, b, d)


@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=4),
    st.lists(st.integers(1, 8), min_size=1, max_size=4),
    st.integers(0, 30),
)
@settings(max_examples=60, deadline=None)
def test_product_groups_matches_summands(a, b, max_degree):
    assert_product_groups_match(a, b, max_degree)


# every vector of 1 to 3 weights in 1..6, up to order
SMALL = [ms for size in range(1, 4) for ms in combinations_with_replacement(range(1, 7), size)]


def test_product_groups_chains_are_canonical():
    """Each group built from its chain equals the canonicalising
    constructor's group and holds no order below 2, on the whole grid
    of pairs (the all-ones vectors, with N = g = L = 1, included)."""
    assert (1,) in SMALL and (1, 1, 1) in SMALL
    for a in SMALL:
        for b in SMALL:
            top = 2 * (len(a) - 1 + len(b) - 1) + 8
            groups = product_groups(a, b, top).groups
            for d in range(top + 1):
                g = groups.group(d)
                assert g == FgAbGroup(g.free_rank, g.torsion), (a, b, d)
                assert all(t >= 2 for t in g.torsion), (a, b, d)


def scanned_witness(pg):
    """The first odd degree of the listing: the scan that the closed
    form replaced."""
    return next((d for d, _ in pg.groups.items() if d % 2), None)


def test_odd_torsion_witness_reads_the_groups():
    assert odd_torsion_witness((1, 2, 3), (2, 3, 4), 80) == 2 * 2 + 2 * 2 + 3
    assert odd_torsion_witness((2, 5), (3, 7), 80) is None
    assert odd_torsion_witness((1, 2), (1, 2), 6) is None
    for i, a in enumerate(SMALL):
        for b in SMALL[i % 7::7]:
            for max_degree in range(2 * (len(a) + len(b)) + 2):
                pg = product_groups(a, b, max_degree)
                assert pg.odd_torsion_witness() == scanned_witness(pg), (a, b, max_degree)
                assert odd_torsion_witness(a, b, max_degree) == scanned_witness(pg)


# -- Chen-Ruan graded groups -------------------------------------------------------------


def assert_graded_dimensions_match(b, max_degree):
    ring = CrRing(b)
    got = ring.graded_dimensions(max_degree)
    want = graded_dimensions_oracle(ring, max_degree)
    assert got.items() == want, (b, max_degree)
    assert all(type(deg) is Fraction for deg, _ in got.items())
    # the lookup by bisection finds every listed degree
    assert all(got.group(deg) == g for deg, g in want), (b, max_degree)


def test_graded_dimensions_matches_enumeration_on_corpus():
    for b in CORPUS:
        ell = math.lcm(*b)
        # 5 + 1/(2 ell) lies strictly between the degrees 5 and 5 + 1/ell
        between = Fraction(10 * ell + 1, 2 * ell)
        for max_degree in (0, Fraction(7, 2), 2 * (len(b) + 1), 30, between):
            assert_graded_dimensions_match(b, max_degree)


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=4),
    st.integers(0, 120),
    st.integers(1, 12),
)
@settings(max_examples=150, deadline=None)
def test_graded_dimensions_matches_enumeration(b, p, q):
    assert_graded_dimensions_match(b, Fraction(p, q))


def test_graded_dimensions_deep_cases():
    for b, max_degree in (((3, 5), 800), ((3, 4, 2), 1000), ((5, 7, 9), 4000)):
        assert_graded_dimensions_match(b, max_degree)


def test_graded_dimensions_edge_vectors():
    # (1,) and (1, 1): sector 0 has c = 1 and d > 0, so its Z stops and
    # nothing replaces it
    assert CrRing((1, 1)).euler(0) == (1, 2)
    # the gerbe (2, 2): both sectors have shift 0 and share one class
    gerbe = CrRing((2, 2))
    assert [gerbe._shift_units(j) for j in gerbe.nonzero] == [0, 0]
    for b in ((1,), (1, 1), (2, 2), (1, 1, 2)):
        for max_degree in (0, 1, Fraction(7, 2), 4, 9, 40):
            assert_graded_dimensions_match(b, max_degree)
    assert CrRing((1, 1)).graded_dimensions(40).items() == [(0, Z), (2, Z)]


# -- powers -----------------------------------------------------------------------------------


def _sample_elements(b, rng):
    orb, kaw, cr = OrbifoldRing(b), KawasakiRing(b), CrRing(b)
    n = len(b) - 1
    yield orb.element({rng.randint(0, n + 1): rng.randint(-3, 3), 0: rng.randint(-2, 2)})
    yield orb.u() + orb.from_int(rng.randint(1, 4))
    yield kaw.element({rng.randint(0, n): rng.randint(-3, 3), 0: rng.randint(-2, 2)})
    yield kaw.gamma(min(1, n)) + kaw.from_int(rng.randint(1, 4))
    j, j2 = rng.choice(cr.nonzero), rng.randrange(cr.ell)
    yield cr.element({j: {rng.randint(0, 2): rng.randint(1, 3)}, j2: {0: 1}})
    yield cr.symbol_element(f"a{j}") + cr.symbol_element("u")


def test_power_matches_linear_loop_on_corpus():
    rng = random.Random(3)
    for b in CORPUS:
        for x in _sample_elements(b, rng):
            for k in (0, 1, 2, 3, rng.randint(4, 11)):
                assert x**k == power_oracle(x, k), (b, x, k)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=4), st.integers(0, 40), st.integers(0, 999))
@settings(max_examples=60, deadline=None)
def test_power_matches_linear_loop(b, k, seed):
    for x in _sample_elements(b, random.Random(seed)):
        assert x**k == power_oracle(x, k)


# -- scale --------------------------------------------------------------------------------------


def test_product_groups_builds_one_group_per_degree(monkeypatch):
    """Every group built, through either constructor, is counted, and
    none takes the canonicalising path."""
    built, canonicalised = [], []
    init, from_chain = FgAbGroup.__init__, FgAbGroup._from_chain

    def counting_init(self, *args, **kwargs):
        built.append(1)
        canonicalised.append(1)
        init(self, *args, **kwargs)

    def counting_from_chain(free_rank, chain):
        built.append(1)
        return from_chain(free_rank, chain)

    monkeypatch.setattr(FgAbGroup, "__init__", counting_init)
    monkeypatch.setattr(FgAbGroup, "_from_chain", counting_from_chain)
    pg = product_groups((1, 2, 3), (2, 3, 4), 300)
    assert 0 < len(built) <= 301
    assert not canonicalised
    # degree 300 = 2p + 2q: p <= 2 gives Z/24 (3 pairs), q <= 2 gives Z/6
    # (3 pairs), and the 145 pairs above both tops give Z/gcd(6, 24)
    assert pg.groups.group(300) == FgAbGroup(0, [6] * 148 + [24] * 3)


def test_kawasaki_ring_with_forty_weights():
    ring = KawasakiRing(range(1, 41))
    assert ring.ell(1) == math.lcm(*range(1, 41))
    assert ring.ell(39) == math.factorial(40)
    assert all(ring.ell(k) * ring.ell(m) % ring.ell(k + m) == 0
               for k in range(40) for m in range(40 - k))


def _groups_built(monkeypatch, ring, max_degree):
    built = []
    init = FgAbGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(FgAbGroup, "__init__", counting_init)
        ring.graded_dimensions(max_degree)
    return len(built)


def test_graded_dimensions_builds_one_group_per_change_point(monkeypatch):
    for b in ((1,), (2, 2), (1, 2, 2, 3, 3, 3), (4, 9, 14), (7, 8, 15), (5, 7, 9)):
        ring = CrRing(b)
        assert _groups_built(monkeypatch, ring, 200) <= 2 * len(ring.nonzero), b
    ring = CrRing((5, 7, 9))
    assert _groups_built(monkeypatch, ring, 400) == _groups_built(monkeypatch, ring, 4000)
