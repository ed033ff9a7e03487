"""Acceptance suite.

One test per criterion, each exact (integer and rational equality, no
tolerances), each printing a PASS line when it completes.  The heavy
corpus checks (criterion 8) run over every weight vector with n <= 4
and entries <= 6, deduplicated to sorted multisets; a dedicated
permutation-invariance check justifies the deduplication, and sampled
element-path products guard the vectorized structure-constant oracle.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
PASS lines directly).
"""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from wpscoh.abelian import FgAbGroup
from wpscoh.chenruan import CrRing
from wpscoh.cli import _fixed_locus_label, _euler_label, main
from wpscoh.kawasaki import KawasakiRing, subset_lcm_table
from wpscoh.kunneth import odd_torsion_witness, product_groups
from wpscoh.orbifold import OrbifoldRing, iso_check

B = (1, 2, 2, 3, 3, 3)

CORPUS = [
    ms
    for size in range(1, 6)
    for ms in combinations_with_replacement(range(1, 7), size)
]


def F(p, q=1):
    return Fraction(p, q)


def done(label):
    print(f"ACCEPTANCE {label}: PASS")


# -- criterion 1: sector chart ------------------------------------------------


def test_01_sector_chart_golden(capsys):
    ring = CrRing(B)

    assert [_fixed_locus_label(ring, j) for j in range(6)] == [
        "C^6", "{0}", "3C_(3)", "2C_(2)", "3C_(3)", "{0}",
    ]
    assert [s.a[0] for s in ring.sectors] == [0, F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6)]
    assert [s.a[1] for s in ring.sectors] == [0, F(1, 3), F(2, 3), 0, F(1, 3), F(2, 3)]
    assert [s.a[2] for s in ring.sectors] == [0, F(1, 3), F(2, 3), 0, F(1, 3), F(2, 3)]
    assert [s.a[3] for s in ring.sectors] == [0, F(1, 2), 0, F(1, 2), 0, F(1, 2)]
    assert [s.degree_shift for s in ring.sectors] == [0, F(14, 3), F(10, 3), 4, F(8, 3), F(22, 3)]
    assert [_euler_label(s.c, s.d) for s in ring.sectors] == [
        "108u^6", "1", "27u^3", "4u^2", "27u^3", "1",
    ]

    # and through the command line, the way a user would ask for it
    code = main(["chenruan", "--weights", "1,2,2,3,3,3", "--sectors"])
    out = capsys.readouterr().out
    assert code == 0
    rows = {line.split()[0]: line.split()[-6:] for line in out.splitlines() if line.strip()}
    assert rows["fixed"] == ["C^6", "{0}", "3C_(3)", "2C_(2)", "3C_(3)", "{0}"]
    assert rows["a_(1)"] == ["0", "1/6", "1/3", "1/2", "2/3", "5/6"]
    assert rows["a_(2)"] == ["0", "1/3", "2/3", "0", "1/3", "2/3"]
    assert rows["a_(3)"] == ["0", "1/2", "0", "1/2", "0", "1/2"]
    assert rows["2*age"] == ["0", "14/3", "10/3", "4", "8/3", "22/3"]
    assert rows["euler"] == ["108u^6", "1", "27u^3", "4u^2", "27u^3", "1"]
    done("1/8 sector chart for weights (1,2,2,3,3,3)")


# -- criterion 2: multiplication table -------------------------------------------


def test_02_multiplication_table_golden():
    ring = CrRing(B)
    table = ring.mult_table()
    assert set(table) == {(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)}
    assert table[(2, 2)] == ring.element({4: {2: 4}})  # 4u^2 a4
    assert table[(2, 3)] == ring.zero()  # a5 = 0
    assert table[(2, 4)] == ring.u(3, 4)  # 4u^3
    assert table[(3, 3)] == ring.u(4, 27)  # 27u^4
    assert table[(3, 4)] == ring.zero()  # u a1 = 0
    assert table[(4, 4)] == ring.element({2: {1: 1}})  # u a2
    assert str(table[(2, 2)]) == "4u^2a4"
    assert str(table[(4, 4)]) == "ua2"
    done("2/8 twisted multiplication table for weights (1,2,2,3,3,3)")


# -- criterion 3: kernel relation list ----------------------------------------------


def test_03_kernel_relations_golden():
    pres = CrRing(B).presentation()
    assert [str(r) for r in pres.kernel_relations] == [
        "108u^6", "a1", "27u^3a2", "4u^2a3", "27u^3a4", "a5",
    ]
    done("3/8 kernel relation list for weights (1,2,2,3,3,3)")


# -- criterion 4: the three rings of the weighted projective line (1,2) ---------------


def test_04_triple_rings_of_the_orbisphere():
    # coarse space: one generator of degree 2 squaring to zero
    kaw = KawasakiRing((1, 2))
    assert (kaw.gamma(1) * kaw.gamma(1)).is_zero
    gg = kaw.groups(6)
    assert gg.items() == [(0, FgAbGroup(1)), (2, FgAbGroup(1))]

    # orbifold ring: Z[u]/<2u^2>
    orb = OrbifoldRing((1, 2))
    assert (orb.N, orb.top) == (2, 2)
    assert orb.u(2, 2).is_zero
    assert not orb.u(2).is_zero
    assert str(orb) == "Z[u]/<2u^2>"

    # sector ring: generators of degree 2 and 1 with relations
    # 2u^2, 2u a1 and a1^2 = u (the degree-2 class is written x in the
    # coarse presentation; here it is u, and the degree-1 class is a1)
    cr = CrRing((1, 2))
    pres = cr.presentation()
    assert pres.generators == (("u", F(2)), ("a1", F(1)))
    assert [str(r) for r in pres.kernel_relations] == ["2u^2", "2ua1"]
    assert len(pres.product_relations) == 1
    rel = pres.product_relations[0]
    assert (rel.i, rel.j) == (1, 1) and rel.product == cr.u()
    done("4/8 coarse, orbifold and sector rings of the (1,2) line")


# -- criterion 5: coarser invariant collapses, finer one does not ----------------------


def test_05_distinguishing_power():
    assert iso_check((2, 2), (4, 1)) is True
    assert OrbifoldRing((2, 2)).N == OrbifoldRing((4, 1)).N == 4
    assert CrRing((2, 2)).equivalent(CrRing((4, 1))) is False
    done("5/8 orbifold rings agree for (2,2) vs (4,1), sector rings differ")


# -- criterion 6: comparison map -------------------------------------------------------


def test_06_comparison_map_multiplicative():
    ring = KawasakiRing(B)
    orb = OrbifoldRing(B)
    assert ring.ell(1) == 6
    assert ring.qstar(ring.gamma(1), orb) == orb.u(1, 6)

    rng = random.Random(1404)
    cases = 0
    while cases < 200:
        n = rng.randint(0, 4)
        b = tuple(rng.randint(1, 10) for _ in range(n + 1))
        kaw = KawasakiRing(b)
        target = OrbifoldRing(b)
        for k in range(n + 1):
            for m in range(n + 1):
                lhs = kaw.qstar(kaw.gamma(k) * kaw.gamma(m), target)
                rhs = kaw.qstar(kaw.gamma(k), target) * kaw.qstar(kaw.gamma(m), target)
                assert lhs == rhs, (b, k, m)
                if k + m > n:
                    assert (kaw.ell(k) * kaw.ell(m)) % kaw.weights.N == 0
        cases += 1
    done("6/8 comparison map sends products to products (200 random vectors)")


# -- criterion 7: product torsion in odd degrees -----------------------------------------


def oracle_factor(b, degree):
    n = len(b) - 1
    if degree % 2 or degree < 0:
        return []
    return [0] if degree // 2 <= n else [math.prod(b)]


def oracle_tensor(xs, ys):
    return [
        y if x == 0 else (x if y == 0 else math.gcd(x, y)) for x in xs for y in ys
    ]


def oracle_tor(xs, ys):
    return [math.gcd(x, y) for x in xs for y in ys if x != 0 and y != 0]


def oracle_product_group(a, b, degree):
    summands = []
    for i in range(degree + 1):
        summands += oracle_tensor(oracle_factor(a, i), oracle_factor(b, degree - i))
    for i in range(degree + 2):
        summands += oracle_tor(oracle_factor(a, i), oracle_factor(b, degree + 1 - i))
    return FgAbGroup(0, summands)


def test_07_product_torsion():
    pg = product_groups((1, 2), (1, 2), 12)
    for d in range(13):
        assert pg.groups.group(d) == oracle_product_group((1, 2), (1, 2), d), d

    witness = odd_torsion_witness((1, 2), (1, 2), 12)
    assert witness is not None and witness % 2 == 1
    group = pg.groups.group(witness)
    assert 2 in group.torsion or any(t % 2 == 0 for t in group.torsion)
    assert witness == 7  # engine-derived, frozen from the oracle
    done("7/8 product of two (1,2) lines has 2-torsion in odd degree 7")


# -- criterion 8: corpus-wide structural properties ----------------------------------------
# Every weight vector with n <= 4 and entries <= 6, as sorted multisets.
# Deduplication is justified by test_08a: all data the checks consume is
# invariant under permuting the weights.


def test_08_corpus_dedup_justified():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(0, 4)
        b = tuple(rng.randint(1, 6) for _ in range(n + 1))
        sb = tuple(sorted(b))
        assert sb in set(CORPUS)
        ring, sring = CrRing(b), CrRing(sb)
        assert ring.ell == sring.ell
        assert subset_lcm_table(b) == subset_lcm_table(sb)
        for j in range(ring.ell):
            s, ss = ring.sectors[j], sring.sectors[j]
            assert (s.c, s.d, s.degree_shift) == (ss.c, ss.d, ss.degree_shift)
            assert sorted(s.a) == sorted(ss.a)
        for i in range(ring.ell):
            for j in range(ring.ell):
                assert ring._raw_product(i, j) == sring._raw_product(i, j)
    done("8/8 prelude: sector data is permutation-invariant (dedup justified)")


def test_08a_rotation_excess_integral_everywhere():
    for b in CORPUS:
        ring = CrRing(b)
        ell = ring.ell
        rot = [ring.rotations(j) for j in range(ell)]
        for i in range(ell):
            ri = rot[i]
            for j in range(ell):
                rj = rot[j]
                rt = rot[(i + j) % ell]
                for k in range(len(b)):
                    assert ri[k] + rj[k] - rt[k] in (0, ell)
        if ell <= 20:
            # cross-check through the exact rational interface
            for i in range(ell):
                for j in range(ell):
                    for k in range(len(b)):
                        excess = (
                            ring.sectors[i].a[k]
                            + ring.sectors[j].a[k]
                            - ring.sectors[(i + j) % ell].a[k]
                        )
                        assert excess in (0, 1)
    done("8a/8 rotation-number excess lies in {0,1} for the whole corpus")


def _np_tables(ring):
    """Structure constants and sector reductions as integer arrays."""
    ell = ring.ell
    rc = np.empty((ell, ell), dtype=np.int64)
    re = np.empty((ell, ell), dtype=np.int64)
    for i in range(ell):
        for j in range(ell):
            c, e, _ = ring._raw_product(i, j)
            rc[i, j] = c
            re[i, j] = e
    cs = np.array([s.c for s in ring.sectors], dtype=np.int64)
    ds = np.array([s.d for s in ring.sectors], dtype=np.int64)
    return rc, re, cs, ds


def _np_reduce(coeff, power, sector, cs, ds):
    out = np.where(power >= ds[sector], coeff % cs[sector], coeff)
    power = np.where(out == 0, -1, power)  # canonical zero
    return np.where(out == 0, 0, out), power


def test_08b_star_associative_all_triples():
    checked = 0
    rng = random.Random(4096)
    for b in CORPUS:
        ring = CrRing(b)
        ell = ring.ell
        rc, re, cs, ds = _np_tables(ring)
        idx = np.arange(ell, dtype=np.int64)
        I = idx[:, None, None]
        J = idx[None, :, None]
        K = idx[None, None, :]
        S = (I + J) % ell  # broadcast pair sums
        T = (J + K) % ell
        W = (I + J + K) % ell

        # left association: reduce(i*j), multiply by k, reduce
        c1, e1 = _np_reduce(rc[I, J], re[I, J], S, cs, ds)
        lc = c1 * rc[S, K]
        le = np.where(c1 == 0, -1, e1 + re[S, K])
        lc, le = _np_reduce(lc, np.maximum(le, 0), W, cs, ds)
        le = np.where(lc == 0, -1, le)

        # right association
        c2, e2 = _np_reduce(rc[J, K], re[J, K], T, cs, ds)
        rcoev = c2 * rc[I, T]
        ree = np.where(c2 == 0, -1, e2 + re[I, T])
        rcoev, ree = _np_reduce(rcoev, np.maximum(ree, 0), W, cs, ds)
        ree = np.where(rcoev == 0, -1, ree)

        assert np.array_equal(lc, rcoev) and np.array_equal(le, ree), b
        checked += ell**3

        # the table algebra must agree with the element path
        gens = [ring.generator(j) for j in range(ell)]
        for _ in range(10):
            i, j, k = (rng.randrange(ell) for _ in range(3))
            left = ring.star(ring.star(gens[i], gens[j]), gens[k])
            right = ring.star(gens[i], ring.star(gens[j], gens[k]))
            assert left == right
            expected_c, expected_e = int(lc[i, j, k]), int(le[i, j, k])
            if expected_c == 0:
                assert left.is_zero
            else:
                assert left.parts == {int(W[i, j, k]): {expected_e: expected_c}}
    done(f"8b/8 twisted product associates on all {checked} sector triples")


def test_08c_grading_additive_everywhere():
    rng = random.Random(11)
    for b in CORPUS:
        ring = CrRing(b)
        ell = ring.ell
        shifts = [s.degree_shift for s in ring.sectors]
        sampled = []
        for i in range(ell):
            for j in range(ell):
                coeff, power, target = ring._raw_product(i, j)
                if power >= ring.sectors[target].d:
                    coeff %= ring.sectors[target].c
                if coeff == 0:
                    continue
                assert shifts[i] + shifts[j] == 2 * power + shifts[target], (b, i, j)
                sampled.append((i, j))
        # spot-check the same fact through element degrees
        for i, j in rng.sample(sampled, min(5, len(sampled))):
            x, y = ring.generator(i), ring.generator(j)
            if x.is_zero or y.is_zero:
                continue
            p = ring.star(x, y)
            if not p.is_zero:
                assert p.degree() == x.degree() + y.degree()
    done("8c/8 degrees add under the twisted product on the whole corpus")


def test_08d_subset_lcm_divisibility_everywhere():
    for b in CORPUS:
        table = subset_lcm_table(b)
        n = len(b) - 1
        for k in range(n + 1):
            for m in range(n + 1 - k):
                assert (table[k] * table[m]) % table[k + m] == 0, (b, k, m)
    done("8d/8 structure-constant integrality holds on the whole corpus")


def test_08e_structure_constants_scale_invariant_everywhere():
    for b in CORPUS:
        base = subset_lcm_table(b)
        n = len(b) - 1
        for c in (2, 3):
            scaled = subset_lcm_table(tuple(c * x for x in b))
            for k in range(n + 1):
                for m in range(n + 1 - k):
                    assert (
                        base[k] * base[m] // base[k + m]
                        == scaled[k] * scaled[m] // scaled[k + m]
                    ), (b, c, k, m)
    done("8e/8 coarse structure constants ignore global weight scaling")


def test_08f_identity_sector_is_the_orbifold_ring_everywhere():
    rng = random.Random(23)
    for b in CORPUS:
        ring = CrRing(b)
        orb = OrbifoldRing(b)
        s0 = ring.sectors[0]
        assert (s0.c, s0.d) == (orb.N, orb.top)
        for _ in range(3):
            pa = {rng.randrange(orb.top + 2): rng.randrange(-9, 10) for _ in range(2)}
            pb = {rng.randrange(orb.top + 2): rng.randrange(-9, 10) for _ in range(2)}
            lhs = ring.star(ring.element({0: pa}), ring.element({0: pb}))
            rhs = orb.element(pa) * orb.element(pb)
            assert lhs.parts.get(0, {}) == rhs.coeffs, b
    done("8f/8 identity-sector arithmetic equals the orbifold ring")
