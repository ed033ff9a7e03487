"""The sparse sector index against the dense construction it replaced.

``DenseSectors`` is the definitional path: the full ell x (n+1) rotation
table, a ``SectorData`` record for every sector, products and reduction
read off those tables, the all-pairs presentation with its "both sides
vanish" filter, and equivalence by brute force over every sector.  The
sparse ``CrRing`` must agree with it on the acceptance corpus (every
weight vector with n <= 4 and entries <= 6) and on two vectors with a
few hundred sectors.
"""

import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from wpscoh.arith import as_weights
from wpscoh.chenruan import CrRing, SectorData

from oracles import sector_groups

CORPUS = [
    ms
    for size in range(1, 6)
    for ms in combinations_with_replacement(range(1, 7), size)
]
WIDE = [(5, 7, 9), (4, 9, 14)]


class DenseSectors:
    """Every sector of the ring, tabulated up front."""

    def __init__(self, weights):
        w = as_weights(weights)
        self.b = w.b
        self.n = w.n
        ell = self.ell = w.ell
        self.rot = [tuple(bk * j % ell for bk in w.b) for j in range(ell)]
        self.sectors = []
        for j, nums in enumerate(self.rot):
            fixed = tuple(k for k, t in enumerate(nums) if t == 0)
            self.sectors.append(
                SectorData(
                    j=j,
                    a=tuple(Fraction(t, ell) for t in nums),
                    fixed=fixed,
                    c=math.prod(w.b[k] for k in fixed),
                    d=len(fixed),
                    degree_shift=Fraction(2 * sum(nums), ell),
                )
            )

    def raw_product(self, i, j):
        ell = self.ell
        t = (i + j) % ell
        coeff, power = 1, 0
        for k, bk in enumerate(self.b):
            excess = self.rot[i][k] + self.rot[j][k] - self.rot[t][k]
            assert excess in (0, ell)
            if excess == ell:
                coeff *= bk
                power += 1
        return coeff, power, t

    def product(self, i, j):
        """Reduced a_i * a_j as {sector: {u-power: coefficient}}."""
        coeff, power, t = self.raw_product(i, j)
        s = self.sectors[t]
        if power >= s.d:
            coeff %= s.c
        return {t: {power: coeff}} if coeff else {}

    def is_zero_generator(self, j):
        s = self.sectors[j]
        return s.c == 1 and s.d == 0

    def presentation(self):
        gens = [("u", Fraction(2))] + [(f"a{s.j}", s.degree_shift) for s in self.sectors[1:]]
        kernel = [(s.j, s.c, s.d) for s in self.sectors]
        products = []
        for i in range(1, self.ell):
            for j in range(i, self.ell):
                rhs = self.product(i, j)
                lhs_zero = self.is_zero_generator(i) or self.is_zero_generator(j)
                if lhs_zero and not rhs:
                    continue
                products.append((i, j, rhs))
        return gens, kernel, products

    def mult_table(self):
        idx = [j for j in range(1, self.ell) if not self.is_zero_generator(j)]
        return {(i, j): self.product(i, j) for i in idx for j in idx if i <= j}

    def equivalent(self, other):
        if self.ell != other.ell or self.n != other.n:
            return False
        ell = self.ell
        for t in (t for t in range(ell) if math.gcd(t, ell) == 1):
            if all(
                (a.c, a.d, a.degree_shift) == (b.c, b.d, b.degree_shift)
                for a, b in ((self.sectors[j], other.sectors[t * j % ell]) for j in range(ell))
            ) and all(
                self.raw_product(i, j)[:2] == other.raw_product(t * i % ell, t * j % ell)[:2]
                for i in range(ell)
                for j in range(i, ell)
            ):
                return True
        return False


def assert_matches_dense(b):
    ring, dense = CrRing(b), DenseSectors(b)
    ell = ring.ell
    assert len(ring.sectors) == ell
    assert list(ring.sectors) == dense.sectors
    assert ring.nonzero == tuple(j for j in range(ell) if not dense.is_zero_generator(j))
    for j in range(ell):
        assert ring.rotations(j) == dense.rot[j]
        assert (j not in ring.nonzero) == dense.is_zero_generator(j)
    for i in range(ell):
        for j in range(ell):
            assert ring._raw_product(i, j) == dense.raw_product(i, j), (b, i, j)

    pres = ring.presentation()
    gens, kernel, products = dense.presentation()
    assert list(pres.generators) == gens
    assert [(r.j, r.coefficient, r.exponent) for r in pres.kernel_relations] == kernel
    assert [(r.i, r.j, r.product.parts) for r in pres.product_relations] == products
    assert {key: x.parts for key, x in ring.mult_table().items()} == dense.mult_table()
    for max_degree in (0, Fraction(7, 2), 2 * (ring.weights.n + 2), 30):
        assert ring.graded_dimensions(max_degree).items() == sector_groups(dense.sectors, max_degree)


def test_sparse_matches_dense_on_corpus():
    for b in CORPUS:
        assert_matches_dense(b)


@pytest.mark.parametrize("b", WIDE)
def test_sparse_matches_dense_on_wide_vectors(b):
    assert_matches_dense(b)


def test_equivalent_matches_dense_on_every_small_vector():
    # every ordered vector of 1 to 3 weights up to 6, against every other
    # with the same ell and length, so permuted vectors meet each other
    vectors = [b for size in range(1, 4) for b in product(range(1, 7), repeat=size)]
    groups = defaultdict(list)
    for b in vectors:
        groups[math.lcm(*b), len(b)].append(b)
    rings = {b: (CrRing(b), DenseSectors(b)) for b in vectors}
    for members in groups.values():
        for a, b in combinations_with_replacement(members, 2):
            (ra, da), (rb, db) = rings[a], rings[b]
            assert ra.equivalent(rb) == da.equivalent(db), (a, b)


def test_equivalent_matches_dense_on_corpus():
    groups = defaultdict(list)
    for b in CORPUS:
        groups[math.lcm(*b), len(b)].append(b)
    rings = {b: (CrRing(b), DenseSectors(b)) for b in CORPUS}
    for members in groups.values():
        for a, b in [*combinations(members, 2), *((a, a) for a in members)]:
            (ra, da), (rb, db) = rings[a], rings[b]
            assert ra.equivalent(rb) == da.equivalent(db), (a, b)
    # a permuted vector is the same ring under another coordinate order
    for b in CORPUS:
        flipped = b[::-1]
        assert CrRing(b).equivalent(CrRing(flipped)) == DenseSectors(b).equivalent(
            DenseSectors(flipped)
        )
