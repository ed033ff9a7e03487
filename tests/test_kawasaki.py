import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpscoh.arith import WeightVector
from wpscoh.kawasaki import KawasakiRing, subset_lcm_table
from wpscoh.orbifold import OrbifoldRing

weight_vectors = st.lists(st.integers(1, 12), min_size=1, max_size=6)

B = (1, 2, 2, 3, 3, 3)


def brute_force_ell(b, k):
    """Oracle: lcm of product/gcd over all (k+1)-subsets, written out."""
    values = []
    for idx in combinations(range(len(b)), k + 1):
        chosen = [b[i] for i in idx]
        prod = 1
        for x in chosen:
            prod *= x
        g = chosen[0]
        for x in chosen[1:]:
            g = math.gcd(g, x)
        values.append(prod // g)
    out = values[0]
    for v in values[1:]:
        out = out * v // math.gcd(out, v)
    return out


def test_ell_examples():
    ring = KawasakiRing(B)
    assert ring.ell(1) == 6  # lcm of the weights
    assert ring.ell(2) == 36 == brute_force_ell(B, 2)
    assert subset_lcm_table(B) == (1, 6, 36, 108, 108, 108)
    ones = KawasakiRing((1, 1, 1, 1))
    assert all(ones.ell(k) == 1 for k in range(4))


def test_ell_table_matches_oracle():
    for b in [B, (2, 4), (5,), (2, 2), (4, 1), (2, 3, 4), (6, 10, 15)]:
        ring = KawasakiRing(b)
        for k in range(len(b)):
            assert ring.ell(k) == brute_force_ell(b, k)


def test_ell_out_of_range():
    ring = KawasakiRing((1, 2))
    with pytest.raises(ValueError):
        ring.ell(2)
    with pytest.raises(ValueError):
        ring.ell(-1)


def test_gamma_product_examples():
    ring = KawasakiRing(B)
    assert ring.gamma(1) * ring.gamma(1) == ring.gamma(2)  # 36/36 = 1
    assert ring.gamma(0) * ring.gamma(3) == ring.gamma(3)  # unit
    tiny = KawasakiRing((3, 4))
    assert (tiny.gamma(1) * tiny.gamma(1)).is_zero  # degree exceeds 2n


def test_multiply_examples():
    ring = KawasakiRing(B)
    x = ring.gamma(1) * 2
    y = 3 * ring.gamma(1)
    assert x * y == ring.gamma(2) * 6
    assert (x * ring.zero()).is_zero
    assert x * y == y * x
    # bilinearity over a sum
    z = ring.gamma(1) + ring.gamma(2)
    assert z * ring.gamma(1) == ring.gamma(1) * ring.gamma(1) + ring.gamma(2) * ring.gamma(1)


def test_groups():
    ring = KawasakiRing((1, 2))
    gg = ring.groups(8)
    assert str(gg.group(0)) == "Z"
    assert str(gg.group(2)) == "Z"
    assert str(gg.group(3)) == "0"
    assert str(gg.group(4)) == "0"  # 2n + 2 and beyond vanish


def test_qstar_examples():
    ring = KawasakiRing(B)
    orb = OrbifoldRing(B)
    assert ring.qstar(ring.gamma(1), orb) == orb.u(1, 6)
    assert ring.qstar(ring.one(), orb) == orb.one()
    small = KawasakiRing((1, 2))
    image = small.qstar(small.gamma(1))
    assert image == OrbifoldRing((1, 2)).u(1, 2)
    assert (image * image).is_zero  # (2u)^2 = 4u^2 = 0 mod 2u^2


def test_qstar_rejects_mismatched_ring():
    ring = KawasakiRing((1, 2))
    with pytest.raises(ValueError):
        ring.qstar(ring.gamma(1), OrbifoldRing((1, 3)))
    other = KawasakiRing((1, 3))
    with pytest.raises(ValueError):
        ring.multiply(ring.gamma(1), other.gamma(1))


def test_degree_and_str():
    ring = KawasakiRing(B)
    assert ring.gamma(2).degree() == 4
    assert (ring.gamma(1) + ring.gamma(2)).degree() is None
    with pytest.raises(ValueError):
        ring.zero().degree()
    assert str(ring.gamma(2) * 6) == "6g2"
    assert str(ring.one()) == "1"
    assert str(ring.zero()) == "0"
    assert str(ring.gamma(1) - ring.gamma(2)) == "g1 - g2"


def test_presentation_records():
    pres = KawasakiRing(B).presentation()
    assert pres.generators[0] == ("g1", 2)
    assert pres.ell == (1, 6, 36, 108, 108, 108)
    assert pres.g1_power_spans[:3] == (True, True, True)
    assert pres.g1_power_spans[3] is False  # 6^3 = 216 != 108
    first = pres.relations[0]
    assert (first[0], first[1]) == (1, 1)


@given(weight_vectors)
@settings(max_examples=60, deadline=None)
def test_ell_divisibility_property(b):
    ring = KawasakiRing(b)
    n = ring.weights.n
    for k in range(n + 1):
        for m in range(n + 1 - k):
            assert (ring.ell(k) * ring.ell(m)) % ring.ell(k + m) == 0


@given(weight_vectors)
@settings(max_examples=40, deadline=None)
def test_generator_associativity_property(b):
    ring = KawasakiRing(b)
    gens = [ring.gamma(k) for k in range(ring.weights.n + 1)]
    for x in gens:
        for y in gens:
            for z in gens:
                assert (x * y) * z == x * (y * z)


@given(weight_vectors, st.sampled_from([2, 3, 5]))
@settings(max_examples=60, deadline=None)
def test_structure_constants_scale_invariant(b, c):
    base = subset_lcm_table(tuple(b))
    scaled = subset_lcm_table(tuple(c * x for x in b))
    n = len(b) - 1
    for k in range(n + 1):
        for m in range(n + 1 - k):
            assert base[k] * base[m] // base[k + m] == scaled[k] * scaled[m] // scaled[k + m]


@given(weight_vectors)
@settings(max_examples=60, deadline=None)
def test_qstar_is_ring_homomorphism(b):
    ring = KawasakiRing(b)
    orb = OrbifoldRing(b)
    n = ring.weights.n
    for k in range(n + 1):
        for m in range(n + 1):
            lhs = ring.qstar(ring.gamma(k) * ring.gamma(m), orb)
            rhs = ring.qstar(ring.gamma(k), orb) * ring.qstar(ring.gamma(m), orb)
            assert lhs == rhs
            if k + m > n:
                # the vanishing case needs N | l_k l_m
                assert (ring.ell(k) * ring.ell(m)) % ring.weights.N == 0


def test_cross_checks_against_lcm():
    for b in [B, (2, 4, 6), (3, 5), (7,)]:
        ring = KawasakiRing(b)
        w = WeightVector(b)
        if w.n >= 1:
            assert ring.ell(1) == math.lcm(*b)
        assert ring.ell(w.n) == w.N // w.g


def test_table_identities_are_checked_without_assert(monkeypatch):
    from wpscoh import kawasaki

    good = kawasaki.subset_lcm_table
    for broken in (
        lambda b: (2,) + good(b)[1:],
        lambda b: good(b)[:1] + (7,) + good(b)[2:],
        lambda b: good(b)[:-1] + (good(b)[-1] * 5,),
    ):
        monkeypatch.setattr(kawasaki, "subset_lcm_table", broken)
        with pytest.raises(ArithmeticError):
            KawasakiRing((1, 2, 2, 3, 3, 3))


def test_table_identities_survive_python_optimize():
    import os
    import subprocess
    import sys

    from wpscoh import kawasaki

    src = os.path.dirname(os.path.dirname(kawasaki.__file__))
    code = (
        "from wpscoh import kawasaki\n"
        "kawasaki.subset_lcm_table = lambda b: (2,) * len(tuple(b))\n"
        "try:\n"
        "    kawasaki.KawasakiRing((1, 2))\n"
        "except ArithmeticError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == "raised\n", proc.stderr


@given(weight_vectors)
@settings(max_examples=60, deadline=None)
def test_presentation_relations_are_generator_products(b):
    ring = KawasakiRing(b)
    n = ring.weights.n
    pres = ring.presentation()
    assert [(k, m) for k, m, _ in pres.relations] == [
        (k, m) for k in range(1, n + 1) for m in range(k, n + 1)
    ]
    for k, m, product in pres.relations:
        assert product == ring.gamma(k) * ring.gamma(m)
        assert product.parts == ring._normal(product.parts).parts
