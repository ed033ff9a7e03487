from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wpscoh.arith import (
    WeightVector,
    as_weights,
    gcd_all,
    lcm_all,
    rotation_number,
)

weight_vectors = st.lists(st.integers(1, 12), min_size=1, max_size=6)


def test_gcd_all_examples():
    assert gcd_all((1, 2, 2, 3, 3, 3)) == 1
    assert gcd_all((2, 4, 8)) == 2
    assert gcd_all((6, 6)) == 6
    assert gcd_all((7,)) == 7


def test_lcm_all_examples():
    assert lcm_all((1, 2, 2, 3, 3, 3)) == 6
    assert lcm_all((1, 1, 1)) == 1
    assert lcm_all((4, 6)) == 12


@pytest.mark.parametrize("bad", [(), (0,), (-2, 3), (2.5,), ("3",)])
def test_gcd_lcm_reject_bad_input(bad):
    with pytest.raises(ValueError):
        gcd_all(bad)
    with pytest.raises(ValueError):
        lcm_all(bad)


def test_rotation_number_examples():
    assert rotation_number(2, 1, 6) == Fraction(1, 3)
    assert rotation_number(3, 2, 6) == 0
    assert rotation_number(1, 0, 11) == 0
    assert rotation_number(5, 3, 6) == Fraction((5 * 3) % 6, 6)
    assert rotation_number(1, -1, 6) == Fraction(5, 6)
    for bad in ((1, 3, 0), (1, 3, -6), (1, 1.0, 6)):
        with pytest.raises(ValueError):
            rotation_number(*bad)


def test_rotation_number_zero_exactly_when_divisible():
    for ell in range(1, 30):
        for b in range(1, ell + 1):
            for m in range(-ell, 2 * ell):
                value = rotation_number(b, m, ell)
                assert (value == 0) == (b * m % ell == 0)
                assert 0 <= value < 1


def test_rotation_complements_and_periodicity():
    for ell in range(1, 40):
        for b in range(1, ell + 1):
            for m in range(1, ell):
                total = rotation_number(b, m, ell) + rotation_number(b, ell - m, ell)
                assert total in (0, 1)
            for m in range(ell):
                assert rotation_number(b, m + ell, ell) == rotation_number(b, m, ell)


def test_rotation_excess_integrality_exhaustive():
    # a(i) + a(j) - a(i+j) is 0 or 1 for every pair, for every divisor
    # weight of every modulus up to 60
    for ell in range(1, 61):
        for b in range(1, ell + 1):
            if ell % b:
                continue
            nums = [(b * m) % ell for m in range(ell)]
            for i in range(ell):
                for j in range(ell):
                    excess = nums[i] + nums[j] - nums[(i + j) % ell]
                    assert excess in (0, ell)


def test_weight_vector_derived_fields():
    w = WeightVector((1, 2, 2, 3, 3, 3))
    assert (w.n, w.N, w.g, w.ell) == (5, 108, 1, 6)
    assert w.reduced
    assert list(w) == [1, 2, 2, 3, 3, 3]
    assert w[3] == 3 and len(w) == 6


def test_weight_vector_gerbe_base():
    w = WeightVector((2, 4))
    assert not w.reduced
    assert w.g == 2
    assert w.reduced_base() == WeightVector((1, 2))
    assert WeightVector((1, 2)).reduced_base() == WeightVector((1, 2))


@pytest.mark.parametrize("bad", [(), (0, 1), (-1,), (1, 2.5)])
def test_weight_vector_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        WeightVector(bad)


def test_as_weights_passthrough():
    w = WeightVector((1, 2))
    assert as_weights(w) is w
    assert as_weights([1, 2]) == w


@given(weight_vectors)
def test_weight_divisibility_chain(b):
    w = WeightVector(b)
    for bk in w.b:
        assert bk % w.g == 0
        assert w.ell % bk == 0
    assert w.N >= max(w.b)


@given(weight_vectors, st.integers(-50, 50))
def test_rotation_periodicity_property(b, m):
    w = WeightVector(b)
    for bk in w.b:
        assert rotation_number(bk, m, w.ell) == rotation_number(bk, m + w.ell, w.ell)
