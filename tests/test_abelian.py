from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wpscoh.abelian import FgAbGroup, GradedGroups, Z, ZERO, cyclic, direct_sum_all

groups = st.builds(
    FgAbGroup,
    st.integers(0, 3),
    st.lists(st.integers(2, 24), max_size=4),
)


def test_canonical_form_examples():
    assert FgAbGroup(0, [2, 3]) == cyclic(6)
    assert FgAbGroup(0, [2, 4]).torsion == (2, 4)
    assert FgAbGroup(0, [30, 4]).torsion == (2, 60)
    assert FgAbGroup(0, [2, 2, 2]).torsion == (2, 2, 2)
    assert FgAbGroup(2, [1, 1]) == FgAbGroup(2)
    assert FgAbGroup(0, [0, 2]) == FgAbGroup(1, [2])


def test_canonical_form_is_divisibility_chain():
    g = FgAbGroup(0, [12, 18, 10])
    chain = g.torsion
    assert all(chain[i + 1] % chain[i] == 0 for i in range(len(chain) - 1))
    # total order is preserved
    assert 12 * 18 * 10 == chain[0] * chain[1] * chain[2]


@given(groups)
def test_canonicalization_idempotent(g):
    again = FgAbGroup(g.free_rank, g.torsion)
    assert again == g
    assert all(b % a == 0 for a, b in zip(g.torsion, g.torsion[1:]))


def test_tensor_examples():
    assert Z.tensor(cyclic(4)) == cyclic(4)
    assert cyclic(2).tensor(cyclic(3)) == ZERO
    # bilinear expansion oracle for (Z + Z/2) tensor (Z + Z/2):
    # Z@Z + Z@Z2 + Z2@Z + Z2@Z2 = Z + Z/2 + Z/2 + Z/2
    expected = direct_sum_all([Z, cyclic(2), cyclic(2), cyclic(2)])
    assert FgAbGroup(1, [2]).tensor(FgAbGroup(1, [2])) == expected
    assert expected == FgAbGroup(1, [2, 2, 2])


def test_tor_examples():
    for g in (ZERO, Z, cyclic(5), FgAbGroup(2, [4, 12])):
        assert Z.tor(g) == ZERO
        assert g.tor(Z) == ZERO
    assert cyclic(2).tor(cyclic(2)) == cyclic(2)
    assert cyclic(4).tor(cyclic(6)) == cyclic(2)


def test_direct_sum_examples():
    assert cyclic(2).direct_sum(cyclic(3)) == cyclic(6)
    assert ZERO.direct_sum(FgAbGroup(1, [4])) == FgAbGroup(1, [4])
    assert cyclic(2).direct_sum(cyclic(4)).torsion == (2, 4)


@given(groups, groups)
def test_tensor_and_sum_commutative(a, b):
    assert a.tensor(b) == b.tensor(a)
    assert a.direct_sum(b) == b.direct_sum(a)
    assert a.tor(b) == b.tor(a)


@given(groups, groups, groups)
def test_tensor_and_sum_associative(a, b, c):
    assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))
    assert a.direct_sum(b).direct_sum(c) == a.direct_sum(b.direct_sum(c))


@given(groups, groups, groups)
def test_tensor_distributes_over_sum(a, b, c):
    assert a.tensor(b.direct_sum(c)) == a.tensor(b).direct_sum(a.tensor(c))


def test_group_strings():
    assert str(ZERO) == "0"
    assert str(Z) == "Z"
    assert str(FgAbGroup(2, [2, 6])) == "Z^2 + Z/2 + Z/6"
    assert FgAbGroup(1, [3]).to_json() == {"free_rank": 1, "torsion": [3]}


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        FgAbGroup(-1)
    with pytest.raises(ValueError):
        FgAbGroup(0, [-2])


def test_graded_groups_lookup():
    gg = GradedGroups(4, {0: Z, 2: cyclic(2), 3: ZERO})
    assert gg.group(0) == Z
    assert gg.group(1) == ZERO
    assert gg.group(3) == ZERO  # zero groups are dropped from the table
    assert gg.items() == [(0, Z), (2, cyclic(2))]
    with pytest.raises(ValueError):
        gg.group(5)
    assert gg.to_json() == [
        {"degree": 0, "group": {"free_rank": 1, "torsion": []}},
        {"degree": 2, "group": {"free_rank": 0, "torsion": [2]}},
    ]
    # a Chen-Ruan style listing, from pairs sorted by Fraction degree
    rational = GradedGroups(Fraction(3), [(Fraction(2), Z), (Fraction(7, 3), cyclic(3))])
    assert rational.group(Fraction(2)) == Z
    assert rational.group(2) == Z
    assert rational.group(Fraction(7, 3)) == cyclic(3)
    assert rational.group(Fraction(5, 2)) == ZERO
    assert rational.group(Fraction(1, 3)) == ZERO
    with pytest.raises(ValueError):
        rational.group(Fraction(10, 3))
    assert rational.to_json() == [
        {"degree": "2", "group": {"free_rank": 1, "torsion": []}},
        {"degree": "7/3", "group": {"free_rank": 0, "torsion": [3]}},
    ]


def test_units_listing_lookup():
    # degrees 0 and 7/3 held as the units 0 and 7 of 1/3
    units = GradedGroups.in_units(Fraction(3), 3, [0, 7], [Z, cyclic(3)])
    assert units.columns() == ([0, 7], [Z, cyclic(3)])
    assert units.group(0) == Z and units.group(Fraction(0)) == Z
    assert units.group(Fraction(7, 3)) == cyclic(3)
    assert units.group(Fraction(5, 2)) == ZERO  # not a multiple of 1/3
    assert units.group(2) == ZERO
    with pytest.raises(ValueError):
        units.group(Fraction(10, 3))
    assert units.items() is units.items()  # built once, then held
    assert units.items() == [(0, Z), (Fraction(7, 3), cyclic(3))]
    assert all(type(d) is Fraction for d, _ in units.items())
    by_hand = GradedGroups(Fraction(3), [(Fraction(0), Z), (Fraction(7, 3), cyclic(3))])
    assert units == by_hand and by_hand.ell is None
    assert units.to_json() == by_hand.to_json()
    assert repr(units) == repr(by_hand)


@given(groups)
def test_runs_and_chain_rebuild_the_group(g):
    runs = g.runs()
    assert [d for d, _ in runs] == sorted(set(g.torsion))
    assert tuple(d for d, k in runs for _ in range(k)) == g.torsion
    assert FgAbGroup._from_chain(g.free_rank, g.torsion) == g
    assert str(FgAbGroup._from_chain(g.free_rank, g.torsion)) == str(g)
    parts = ["Z"] * (g.free_rank == 1) + [f"Z^{g.free_rank}"] * (g.free_rank > 1)
    assert str(g) == (" + ".join(parts + [f"Z/{d}" for d in g.torsion]) or "0")
