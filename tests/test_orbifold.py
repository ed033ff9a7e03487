import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpscoh.abelian import ZERO, Z
from wpscoh.kawasaki import KawasakiRing
from wpscoh.orbifold import OrbifoldRing, iso_check

from oracles import cyclic, group_at_degree

weight_vectors = st.lists(st.integers(1, 12), min_size=1, max_size=5)


def elements(ring, size=3):
    return st.builds(
        ring.element,
        st.dictionaries(
            st.integers(0, ring.top + 2), st.integers(-20, 20), max_size=size
        ),
    )


def test_ring_examples():
    r = OrbifoldRing((1, 2))
    assert (r.N, r.top) == (2, 2)
    assert str(r) == "Z[u]/<2u^2>"
    assert str(OrbifoldRing((2, 2))) == "Z[u]/<4u^2>"
    smooth = OrbifoldRing((1, 1, 1))
    assert (smooth.N, smooth.top) == (1, 3)


def test_normal_form_examples():
    r = OrbifoldRing((1, 2))
    assert r.element({2: 4}).is_zero  # 4u^2 = 2 * (2u^2)
    assert r.element({2: 3}) == r.u(2)  # 3u^2 = u^2 mod 2u^2
    assert r.element({1: 7}) == r.u(1, 7)  # below the top exponent: untouched
    assert r.element({0: -5}).coeffs == {0: -5}
    assert r.element({3: -1}) == r.u(3)  # -1 mod 2


def test_multiply_examples():
    r = OrbifoldRing((1, 2))
    assert r.u() * r.u() == r.u(2)
    assert (r.u(1, 2) * r.u()).is_zero
    x = r.element({0: 3, 1: 1})
    assert r.one() * x == x


def test_multiply_rejects_other_ring():
    with pytest.raises(ValueError):
        OrbifoldRing((1, 2)).multiply(OrbifoldRing((1, 2)).u(), OrbifoldRing((1, 3)).u())


def test_group_at_degree_examples():
    r = OrbifoldRing((1, 2))
    assert group_at_degree(r, 2) == Z
    assert group_at_degree(r, 4) == cyclic(2)
    assert group_at_degree(r, 7) == ZERO
    assert group_at_degree(r, 0) == Z
    smooth = OrbifoldRing((1, 1))
    assert group_at_degree(smooth, 4) == ZERO  # Z/1


def test_normal_forms_are_a_transversal_above_top():
    # at exponents >= n+1 the distinct normal forms are exactly 0..N-1
    r = OrbifoldRing((1, 2, 2))
    seen = {r.element({r.top: k}) for k in range(3 * r.N)}
    assert len(seen) == r.N
    for k in range(1, 3 * r.N):
        assert r.u(r.top, k).is_zero == (k % r.N == 0)


def test_iso_check_examples():
    assert iso_check((2, 2), (4, 1)) is True
    assert iso_check((1, 2), (1, 1)) is False
    assert iso_check((1, 2, 3), (1, 2, 3)) is True
    assert iso_check((1, 2), (1, 2, 1)) is False  # dimension differs


def test_element_strings():
    r = OrbifoldRing((1, 2))
    assert str(r.zero()) == "0"
    assert str(r.one()) == "1"
    assert str(r.u(2, 1) + r.u(1, 2)) == "u^2 + 2u"
    assert str(r.u(1, -1)) == "-u"
    assert str(r.element({0: 1, 1: -3})) == "-3u + 1"


def test_degree():
    r = OrbifoldRing((1, 2))
    assert r.u(2).degree() == 4
    assert (r.one() + r.u()).degree() is None
    with pytest.raises(ValueError):
        r.zero().degree()


@given(weight_vectors, st.data())
@settings(max_examples=50, deadline=None)
def test_ring_laws(b, data):
    r = OrbifoldRing(b)
    x = data.draw(elements(r))
    y = data.draw(elements(r))
    z = data.draw(elements(r))
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert r.one() * x == x
    assert x * (y + z) == x * y + x * z


@given(weight_vectors)
@settings(max_examples=60, deadline=None)
def test_qstar_image_nilpotent(b):
    r = OrbifoldRing(b)
    if r.weights.n >= 1:
        ell1 = KawasakiRing(b).ell(1)
        assert (r.u(1, ell1) ** r.top).is_zero


@pytest.mark.parametrize("b", [(1,), (1, 1), (1, 1, 1), (1, 2), (2, 2), (3, 4, 2), (5,)])
def test_groups_list_each_degree_as_group_at_degree(b):
    """groups lists the nonzero group_at_degree of every degree, N = 1
    (nothing above degree 2n) and odd bounds included."""
    r = OrbifoldRing(b)
    for max_degree in range(2 * r.top + 4):
        oracle = [(d, group_at_degree(r, d)) for d in range(max_degree + 1)]
        assert r.groups(max_degree).items() == [(d, g) for d, g in oracle if g != ZERO]


@pytest.mark.parametrize("b", [(1,), (1, 1), (1, 1, 1), (1, 2), (2, 2), (3, 4, 2), (5,)])
def test_coarse_groups_are_z_at_even_degrees_up_to_2n(b):
    """The coarse ring's closed form: Z exactly at the even degrees <= 2n."""
    k = KawasakiRing(b)
    for max_degree in range(2 * k.weights.n + 6):
        listing = k.groups(max_degree)
        assert listing.items() == [(d, Z) for d in range(0, min(max_degree, 2 * k.weights.n) + 1, 2)]
        assert all(listing.group(d) == ZERO for d in range(1, max_degree + 1, 2))
