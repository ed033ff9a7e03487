"""The shared element algebra.

The three element classes carry no arithmetic, equality, hashing or
printing of their own, and the shared bilinear product, sum and normal
form agree with each ring's definition written out directly: polynomial
multiplication modulo N u^{n+1}, the subset-lcm structure constants,
and the twisted product read off the rotation numbers.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpscoh.algebra import MAX_COEFFICIENT_BITS, Algebra, Element, monomial, u_power
from wpscoh.arith import rotation_number
from wpscoh.chenruan import CrElement, CrRing
from wpscoh.kawasaki import KawasakiElement, KawasakiRing
from wpscoh.orbifold import OrbifoldElement, OrbifoldRing

WEIGHTS = [(1,), (1, 2), (2, 2), (1, 2, 3), (3, 4, 6), (1, 2, 2, 3, 3, 3)]


@pytest.mark.parametrize("cls", [OrbifoldElement, KawasakiElement, CrElement])
def test_element_classes_define_no_arithmetic_of_their_own(cls):
    assert issubclass(cls, Element)
    assert set(vars(cls)) <= {"__module__", "__doc__", "__slots__", "__pow__", "coeffs", "reduced"}
    assert vars(cls)["__pow__"] is Element.__pow__


def test_products_go_through_each_rings_own_entry_point(monkeypatch):
    assert vars(CrRing)["star"] is Algebra.multiply
    assert vars(OrbifoldRing)["multiply"] is Algebra.multiply
    calls = []

    def counting(self, x, y):
        calls.append((x, y))
        return Algebra.multiply(self, x, y)

    monkeypatch.setattr(CrRing, "star", counting)
    ring = CrRing((1, 2))
    assert ring.generator(1) * ring.generator(1) == ring.u()
    assert len(calls) == 1


def test_printing_helpers():
    assert [u_power(m) for m in range(3)] == ["", "u", "u^2"]
    assert u_power(12, latex=True) == "u^{12}"
    assert monomial(1, "") == "1"
    assert monomial(1, "u") == "u"
    assert monomial(7, r"\alpha_{3}") == r"7\alpha_{3}"


# -- direct definitions -------------------------------------------------------


def _clean(parts):
    return {j: {m: c for m, c in p.items() if c} for j, p in parts.items() if any(p.values())}


def orbifold_product(ring, x, y):
    out = {}
    for m1, c1 in x.coeffs.items():
        for m2, c2 in y.coeffs.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c % ring.N if m >= ring.top else c for m, c in out.items()}


def kawasaki_product(ring, x, y):
    ell, n = ring.ell_table, ring.weights.n
    out = {}
    for k, c1 in x.coeffs.items():
        for m, c2 in y.coeffs.items():
            if k + m <= n:
                out[k + m] = out.get(k + m, 0) + c1 * c2 * ell[k] * ell[m] // ell[k + m]
    return out


def sector_product(ring, x, y):
    ell, b = ring.ell, ring.weights.b
    out = {}
    for i, pi in x.parts.items():
        for j, pj in y.parts.items():
            coeff, power = 1, 0
            for bk in b:
                excess = (
                    rotation_number(bk, i, ell)
                    + rotation_number(bk, j, ell)
                    - rotation_number(bk, i + j, ell)
                )
                assert excess in (0, 1)
                if excess:
                    coeff, power = coeff * bk, power + 1
            target = (i + j) % ell
            fixed = [bk for bk in b if bk * target % ell == 0]
            c, d = math.prod(fixed), len(fixed)
            bucket = out.setdefault(target, {})
            for m1, c1 in pi.items():
                for m2, c2 in pj.items():
                    m = m1 + m2 + power
                    bucket[m] = bucket.get(m, 0) + coeff * c1 * c2
            out[target] = {m: (v % c if m >= d else v) for m, v in bucket.items()}
    return _clean(out)


_coeffs = st.integers(-30, 30)


@st.composite
def ring_and_pair(draw):
    w = draw(st.sampled_from(WEIGHTS))
    kind = draw(st.sampled_from(["orbifold", "kawasaki", "chenruan"]))
    if kind == "orbifold":
        ring = OrbifoldRing(w)
        poly = st.dictionaries(st.integers(0, ring.top + 2), _coeffs, max_size=4)
        x, y = ring.element(draw(poly)), ring.element(draw(poly))
    elif kind == "kawasaki":
        ring = KawasakiRing(w)
        poly = st.dictionaries(st.integers(0, ring.weights.n), _coeffs, max_size=4)
        x, y = ring.element(draw(poly)), ring.element(draw(poly))
    else:
        ring = CrRing(w)
        parts = st.dictionaries(
            st.integers(0, ring.ell - 1),
            st.dictionaries(st.integers(0, len(w) + 1), _coeffs, max_size=3),
            max_size=3,
        )
        x, y = ring.element(draw(parts)), ring.element(draw(parts))
    return ring, x, y


@given(ring_and_pair())
@settings(max_examples=300, deadline=None)
def test_product_matches_the_direct_definition(case):
    ring, x, y = case
    if isinstance(ring, OrbifoldRing):
        assert (x * y).coeffs == _clean({0: orbifold_product(ring, x, y)}).get(0, {})
    elif isinstance(ring, KawasakiRing):
        assert (x * y).coeffs == {k: c for k, c in kawasaki_product(ring, x, y).items() if c}
    else:
        assert (x * y).parts == sector_product(ring, x, y)


@given(ring_and_pair())
@settings(max_examples=200, deadline=None)
def test_ring_laws(case):
    ring, x, y = case
    assert x * y == y * x
    assert (x + y) * y == x * y + y * y
    assert (x * y) * y == x * (y * y)
    assert x - x == ring.zero() and (x - x).is_zero
    assert 3 * x == x + x + x == x * 3
    assert x ** 3 == x * x * x and x ** 0 == ring.one()
    assert ring.one() * x == x
    assert hash(x + y) == hash(y + x)
    if isinstance(ring, CrRing):
        assert ring.element((x + y).parts) == x + y


@given(ring_and_pair())
@settings(max_examples=200, deadline=None)
def test_degree_is_the_common_degree_of_the_monomials(case):
    ring, x, _ = case
    if x.is_zero:
        with pytest.raises(ValueError):
            x.degree()
        return
    if isinstance(ring, CrRing):
        degrees = {2 * m + ring.sector(j).degree_shift for j, m, _ in x.monomials()}
    elif isinstance(ring, KawasakiRing):
        degrees = {2 * k for k in x.coeffs}
    else:
        degrees = {2 * m for m in x.coeffs}
    assert x.degree() == (degrees.pop() if len(degrees) == 1 else None)


def test_elements_of_different_rings_do_not_mix():
    a, b = CrRing((1, 2)), CrRing((1, 3))
    orb = OrbifoldRing((1, 2))
    with pytest.raises(ValueError, match="does not belong"):
        a.one() + b.one()
    with pytest.raises(ValueError, match="does not belong"):
        a.one() * orb.one()
    assert a.one() != orb.one()
    assert OrbifoldRing((1, 2)).one() == orb.one()
    with pytest.raises(TypeError):
        Fraction(1, 2) * a.one()


def test_validation_errors_are_kept():
    with pytest.raises(ValueError, match="u-exponents must be non-negative"):
        OrbifoldRing((1, 2)).element({-1: 1})
    with pytest.raises(ValueError, match="generator index 3 out of range 0..1"):
        KawasakiRing((1, 2)).element({3: 1})
    with pytest.raises(ValueError, match="sector index 2 out of range 0..1"):
        CrRing((1, 2)).element({2: {0: 1}})
    with pytest.raises(ValueError, match="exponents must be non-negative integers"):
        CrRing((1, 2)).u() ** -1


def test_product_refuses_a_coefficient_above_the_bit_limit():
    ring = OrbifoldRing((1, 2))
    half = MAX_COEFFICIENT_BITS // 2
    below = ring.from_int(2**half - 1)
    assert (below * below).coeffs[0].bit_length() == MAX_COEFFICIENT_BITS
    assert (-below * below).coeffs[0].bit_length() == MAX_COEFFICIENT_BITS
    with pytest.raises(ValueError, match=f"above the limit of {MAX_COEFFICIENT_BITS} bits"):
        ring.from_int(2**half) * ring.from_int(-(2**half))
    # every coefficient the bound lets through can be printed
    assert len(str(2**MAX_COEFFICIENT_BITS - 1)) <= 4300
    # the bound applies after reduction: mod N = 2 the coefficient stays 1
    assert (ring.u(2, 3) ** 100_000) == ring.u(200_000)
