from hypothesis import given, settings
from hypothesis import strategies as st

from wpscoh.abelian import FgAbGroup, direct_sum_all
from wpscoh.kunneth import odd_torsion_witness, product_groups

from oracles import group_at_degree, kunneth_summands

weight_vectors = st.lists(st.integers(1, 6), min_size=1, max_size=4)


# -- tests ----------------------------------------------------------------------


def test_oracle_agrees_with_engine_up_to_12():
    pg = product_groups((1, 2), (1, 2), 12)
    for d in range(13):
        assert pg.groups.group(d) == direct_sum_all(kunneth_summands((1, 2), (1, 2), d)), d


def test_first_odd_torsion_degree():
    witness = odd_torsion_witness((1, 2), (1, 2), 9)
    assert witness == 7
    group = product_groups((1, 2), (1, 2), 9).groups.group(7)
    assert group == FgAbGroup(0, [2])


def test_no_odd_torsion_for_torsion_free_factors():
    assert odd_torsion_witness((1, 1), (1, 1), 15) is None
    assert odd_torsion_witness((1, 2), (1, 1), 15) is None


def test_degree_zero_is_z():
    assert product_groups((1, 2), (3, 4, 5), 0).groups.group(0) == FgAbGroup(1)


def test_point_factor_recovers_the_other_side():
    pg = product_groups((1,), (1, 2), 10)
    single = product_groups((1, 2), (1,), 10)
    from wpscoh.orbifold import OrbifoldRing

    factor = OrbifoldRing((1, 2))
    for d in range(11):
        assert pg.groups.group(d) == group_at_degree(factor, d)
        assert single.groups.group(d) == group_at_degree(factor, d)


@given(weight_vectors, weight_vectors)
@settings(max_examples=30, deadline=None)
def test_symmetry(a, b):
    lhs = product_groups(a, b, 10)
    rhs = product_groups(b, a, 10)
    for d in range(11):
        assert lhs.groups.group(d) == rhs.groups.group(d)


@given(weight_vectors, weight_vectors)
@settings(max_examples=30, deadline=None)
def test_odd_degrees_are_pure_torsion(a, b):
    pg = product_groups(a, b, 11)
    for d in range(1, 12, 2):
        assert pg.groups.group(d).free_rank == 0


@given(weight_vectors, weight_vectors)
@settings(max_examples=20, deadline=None)
def test_oracle_agreement_property(a, b):
    pg = product_groups(a, b, 8)
    for d in range(9):
        assert pg.groups.group(d) == direct_sum_all(kunneth_summands(a, b, d))
