from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wpscoh.abelian import FgAbGroup, GradedGroups, Z, ZERO, direct_sum_all

from oracles import cyclic, tensor, tor

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
    assert tensor(Z, cyclic(4)) == cyclic(4)
    assert tensor(cyclic(2), cyclic(3)) == ZERO
    # bilinear expansion oracle for (Z + Z/2) tensor (Z + Z/2):
    # Z@Z + Z@Z2 + Z2@Z + Z2@Z2 = Z + Z/2 + Z/2 + Z/2
    expected = direct_sum_all([Z, cyclic(2), cyclic(2), cyclic(2)])
    assert tensor(FgAbGroup(1, [2]), FgAbGroup(1, [2])) == expected
    assert expected == FgAbGroup(1, [2, 2, 2])


def test_tor_examples():
    for g in (ZERO, Z, cyclic(5), FgAbGroup(2, [4, 12])):
        assert tor(Z, g) == ZERO
        assert tor(g, Z) == ZERO
    assert tor(cyclic(2), cyclic(2)) == cyclic(2)
    assert tor(cyclic(4), cyclic(6)) == cyclic(2)


def test_direct_sum_examples():
    assert direct_sum_all([cyclic(2), cyclic(3)]) == cyclic(6)
    assert direct_sum_all([ZERO, FgAbGroup(1, [4])]) == FgAbGroup(1, [4])
    assert direct_sum_all([cyclic(2), cyclic(4)]).torsion == (2, 4)


@given(groups, groups)
def test_tensor_and_sum_commutative(a, b):
    assert tensor(a, b) == tensor(b, a)
    assert direct_sum_all([a, b]) == direct_sum_all([b, a])
    assert tor(a, b) == tor(b, a)


@given(groups, groups, groups)
def test_tensor_and_sum_associative(a, b, c):
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))
    left, right = direct_sum_all([a, b]), direct_sum_all([b, c])
    assert direct_sum_all([left, c]) == direct_sum_all([a, right])


@given(groups, groups, groups)
def test_tensor_distributes_over_sum(a, b, c):
    assert tensor(a, direct_sum_all([b, c])) == direct_sum_all([tensor(a, b), tensor(a, c)])


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
    gg = GradedGroups(4, [0, 2], [Z, cyclic(2)])
    assert not gg.rational
    assert gg.group(0) == Z
    assert gg.group(1) == ZERO
    assert gg.group(3) == ZERO
    assert gg.items() == [(0, Z), (2, cyclic(2))]
    assert all(type(d) is int for d, _ in gg.items())
    with pytest.raises(ValueError):
        gg.group(5)
    assert gg.to_json() == [
        {"degree": 0, "group": {"free_rank": 1, "torsion": []}},
        {"degree": 2, "group": {"free_rank": 0, "torsion": [2]}},
    ]
    with pytest.raises(ValueError):
        GradedGroups(-1, [], [])


def test_units_listing_lookup():
    # degrees 0 and 7/3 held as the units 0 and 7 of 1/3
    units = GradedGroups(Fraction(3), [0, 7], [Z, cyclic(3)], 3)
    assert units.rational
    assert (units.degrees, units.groups) == ([0, 7], [Z, cyclic(3)])
    assert units.group(0) == Z and units.group(Fraction(0)) == Z
    assert units.group(Fraction(7, 3)) == cyclic(3)
    assert units.group(Fraction(5, 2)) == ZERO  # not a multiple of 1/3
    assert units.group(2) == ZERO
    with pytest.raises(ValueError):
        units.group(Fraction(10, 3))
    assert units.items() == [(0, Z), (Fraction(7, 3), cyclic(3))]
    assert units.items() is not units.items()  # a new list on each call
    assert all(type(d) is Fraction for d, _ in units.items())
    assert units.to_json() == [
        {"degree": "0", "group": {"free_rank": 1, "torsion": []}},
        {"degree": "7/3", "group": {"free_rank": 0, "torsion": [3]}},
    ]
    # the same listing in units of 1/6 is equal, and prints the same
    finer = GradedGroups(Fraction(3), [0, 14], [Z, cyclic(3)], 6)
    assert units == finer and repr(units) == repr(finer)
    assert units.to_json() == finer.to_json()


def test_sweep_of_no_summands_is_empty():
    for max_degree in (0, 5, Fraction(7, 2)):
        listing = GradedGroups.sweep(max_degree, 1, [])
        assert (listing.max_degree, listing.degrees, listing.groups) == (max_degree, [], [])
    with pytest.raises(ValueError):
        GradedGroups.sweep(-1, 1, [])


def test_sweep_with_c_one_ends_the_z_with_nothing():
    listing = GradedGroups.sweep(12, 1, [(0, 1, 3)])
    assert listing.items() == [(0, Z), (2, Z), (4, Z)]
    # an odd shift puts the Z in the odd degrees
    assert GradedGroups.sweep(12, 1, [(3, 1, 2)]).items() == [(3, Z), (5, Z)]


def test_sweep_with_d_zero_starts_at_the_torsion():
    listing = GradedGroups.sweep(7, 1, [(2, 5, 0)])
    assert listing.items() == [(2, cyclic(5)), (4, cyclic(5)), (6, cyclic(5))]
    assert GradedGroups.sweep(7, 1, [(2, 1, 0)]).items() == []


def test_sweep_of_two_summands_meeting_at_one_change_point():
    # the first Z becomes Z/2 at degree 4, where the second Z starts
    listing = GradedGroups.sweep(8, 1, [(0, 2, 2), (4, 3, 1)])
    assert listing.items() == [
        (0, Z), (2, Z), (4, FgAbGroup(1, [2])), (6, FgAbGroup(0, [2, 3])),
        (8, FgAbGroup(0, [2, 3])),
    ]
    assert listing.items() == [(d, direct_sum_all(
        Z if (d - s) // 2 < dd else cyclic(c) for s, c, dd in [(0, 2, 2), (4, 3, 1)] if d >= s
    )) for d in range(0, 9, 2)]


def test_sweep_stops_at_a_fraction_bound_between_two_units():
    # units of 1/3: Z at 0, 2/3 and 2, Z/2 at 8/3 and 4
    summands = [(0, 1, 2), (2, 2, 1)]
    for bound, top in ((Fraction(5, 2), Fraction(2)), (Fraction(3), Fraction(8, 3))):
        listing = GradedGroups.sweep(bound, 3, summands)
        assert listing.max_degree == bound and listing.rational
        assert listing.items()[-1][0] == top
        assert [d for d, _ in listing.items()] == sorted(
            d for d in (Fraction(0), Fraction(2, 3), Fraction(2), Fraction(8, 3)) if d <= bound
        )
        assert listing.degrees == sorted(listing.degrees)
    assert GradedGroups.sweep(Fraction(1, 2), 3, summands).items() == [(0, Z)]


def test_sweep_shares_equal_groups_across_classes():
    # two classes mod 2 ell = 4 list Z, then Z/2: one object per value
    listing = GradedGroups.sweep(Fraction(12), 2, [(0, 2, 1), (1, 2, 2)])
    assert listing.degrees == sorted(listing.degrees)
    assert len({id(g) for g in listing.groups}) == len(set(listing.groups)) == 2


@given(groups)
def test_runs_and_chain_rebuild_the_group(g):
    runs = g.runs()
    assert [d for d, _ in runs] == sorted(set(g.torsion))
    assert tuple(d for d, k in runs for _ in range(k)) == g.torsion
    assert FgAbGroup._from_chain(g.free_rank, g.torsion) == g
    assert str(FgAbGroup._from_chain(g.free_rank, g.torsion)) == str(g)
    parts = ["Z"] * (g.free_rank == 1) + [f"Z^{g.free_rank}"] * (g.free_rank > 1)
    assert str(g) == (" + ".join(parts + [f"Z/{d}" for d in g.torsion]) or "0")
