import copy
import dataclasses
import pickle
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpscoh.abelian import FgAbGroup, Z
from wpscoh.chenruan import CrElement, CrRing, SectorData
from wpscoh.orbifold import OrbifoldRing
from wpscoh.verify import star_associativity_scan

from oracles import cyclic

B = (1, 2, 2, 3, 3, 3)

weight_vectors = st.lists(st.integers(1, 6), min_size=1, max_size=5)


def F(p, q=1):
    return Fraction(p, q)


def test_sector_chart_values():
    ring = CrRing(B)
    assert ring.ell == 6

    s1 = ring.sectors[1]
    assert s1.fixed == ()
    assert (s1.c, s1.d) == (1, 0)
    assert s1.degree_shift == F(14, 3)

    s2 = ring.sectors[2]
    assert s2.fixed == (3, 4, 5)
    assert (s2.c, s2.d) == (27, 3)
    assert s2.degree_shift == F(10, 3)

    # full rotation-number rows for the distinct weights 1, 2, 3
    assert [s.a[0] for s in ring.sectors] == [0, F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(5, 6)]
    assert [s.a[1] for s in ring.sectors] == [0, F(1, 3), F(2, 3), 0, F(1, 3), F(2, 3)]
    assert [s.a[3] for s in ring.sectors] == [0, F(1, 2), 0, F(1, 2), 0, F(1, 2)]
    assert [s.degree_shift for s in ring.sectors] == [0, F(14, 3), F(10, 3), 4, F(8, 3), F(22, 3)]


def test_identity_sector_matches_ambient_data():
    for b in (B, (1, 1), (2, 2), (5,)):
        ring = CrRing(b)
        s0 = ring.sectors[0]
        assert s0.fixed == tuple(range(ring.weights.n + 1))
        assert s0.c == ring.weights.N
        assert s0.d == ring.weights.n + 1
        assert s0.degree_shift == 0


def test_smooth_case_single_sector():
    ring = CrRing((1, 1, 1))
    assert ring.ell == 1
    s0 = ring.sectors[0]
    assert (s0.c, s0.d, s0.degree_shift) == (1, 3, 0)
    assert ring.twisted_generator_indices() == ()


def test_star_generator_examples():
    ring = CrRing(B)
    a = ring.generator
    assert ring.star_generators(2, 2) == ring.element({4: {2: 4}})  # 4u^2 a4
    assert ring.star_generators(3, 4).is_zero  # u a1 = 0
    assert ring.star_generators(0, 0) == ring.one()  # a0 * a0 = a0
    assert ring.star_generators(2, 3).is_zero  # a5 = 0

    small = CrRing((1, 2))
    assert small.star_generators(1, 1) == small.u()  # a1^2 = u

    # u-linearity: (u a2) * a2 = 4u^3 a4
    assert ring.star(ring.u() * a(2), a(2)) == ring.element({4: {3: 4}})


def test_star_bilinearity_and_zero():
    ring = CrRing(B)
    x = ring.generator(2) + ring.u(1, 3)
    assert (x * ring.zero()).is_zero
    y = ring.generator(3) - ring.one() * 2
    lhs = x * y
    rhs = (
        ring.star(ring.generator(2), ring.generator(3))
        + ring.star(ring.generator(2), ring.from_int(-2))
        + ring.star(ring.u(1, 3), ring.generator(3))
        + ring.star(ring.u(1, 3), ring.from_int(-2))
    )
    assert lhs == rhs
    assert x * y == y * x


def test_star_rejects_other_ring():
    with pytest.raises(ValueError):
        CrRing((1, 2)).star(CrRing((1, 2)).one(), CrRing((1, 3)).one())


def test_kernel_relations_reduce_to_zero():
    ring = CrRing(B)
    kernel = ring.presentation().kernel_relations
    assert [str(kernel[j]) for j in (0, 3, 1)] == ["108u^6", "4u^2a3", "a1"]
    for j in range(ring.ell):
        c, d = ring.euler(j)
        assert ring.element({j: {d: c}}).is_zero


def test_degree_examples():
    ring = CrRing(B)
    # the sector-5 monomial sits in degree 22/3 (its generator reduces to
    # zero, so the value lives on the sector record)
    assert ring.sectors[5].degree_shift == F(22, 3)
    assert CrElement(ring, {5: {0: 1}}).degree() == F(22, 3)
    assert ring.u(2).degree() == 4
    assert (ring.generator(2) + ring.u()).degree() is None
    with pytest.raises(ValueError):
        ring.zero().degree()
    assert ring.generator(4).degree() == F(8, 3)


def test_mult_table_golden():
    ring = CrRing(B)
    table = ring.mult_table()
    assert set(table) == {(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)}
    assert table[(2, 2)] == ring.element({4: {2: 4}})
    assert table[(2, 3)].is_zero
    assert table[(2, 4)] == ring.u(3, 4)
    assert table[(3, 3)] == ring.u(4, 27)
    assert table[(3, 4)].is_zero
    assert table[(4, 4)] == ring.element({2: {1: 1}})


def test_presentation_small():
    pres = CrRing((1, 2)).presentation()
    assert pres.generators == (("u", F(2)), ("a1", F(1)))
    assert [str(r) for r in pres.kernel_relations] == ["2u^2", "2ua1"]
    assert len(pres.product_relations) == 1
    rel = pres.product_relations[0]
    assert (rel.i, rel.j) == (1, 1)
    assert rel.product == CrRing((1, 2)).u()
    assert str(rel) == "a1*a1 = u"


def test_presentation_golden_kernel_list():
    pres = CrRing(B).presentation()
    assert [str(r) for r in pres.kernel_relations] == [
        "108u^6",
        "a1",
        "27u^3a2",
        "4u^2a3",
        "27u^3a4",
        "a5",
    ]
    # vacuous product relations (both sides zero) are dropped
    pairs = {(r.i, r.j) for r in pres.product_relations}
    assert (1, 1) not in pairs
    assert (2, 3) in pairs  # a2*a3 = 0 relates nonzero generators


def test_presentation_smooth():
    pres = CrRing((1, 1, 1)).presentation()
    assert pres.generators == (("u", F(2)),)
    assert [str(r) for r in pres.kernel_relations] == ["u^3"]
    assert pres.product_relations == ()


def test_graded_dimensions_examples():
    ring = CrRing((1, 2))
    table = dict(ring.graded_dimensions(5).items())
    assert table[F(0)] == Z
    assert table[F(1)] == Z  # the degree-1 sector generator
    assert table[F(2)] == Z
    assert table[F(3)] == cyclic(2)  # u a1 killed by 2u a1
    assert table[F(4)] == cyclic(2)
    big = dict(CrRing(B).graded_dimensions(4).items())
    assert big[F(8, 3)] == Z
    assert big[F(10, 3)] == Z
    assert big[F(4)] == FgAbGroup(2)  # u^2 and a3


def test_graded_dimensions_match_group_ring_for_gerbe():
    # all rotation numbers vanish for (2,2): two identity-like sectors
    ring = CrRing((2, 2))
    table = dict(ring.graded_dimensions(6).items())
    assert table[F(0)] == FgAbGroup(2)  # 1 and a1 both in degree 0
    assert table[F(2)] == FgAbGroup(2)
    assert table[F(4)] == FgAbGroup(0, [4, 4])


def test_gerbe_group_ring_structure():
    ring = CrRing((2, 2))
    a1 = ring.generator(1)
    assert not a1.is_zero
    assert a1 * a1 == ring.one()
    assert ring.sectors[1].degree_shift == 0
    assert ring.sectors[1].fixed == (0, 1)


def test_identity_sector_multiplication_matches_orbifold():
    ring = CrRing(B)
    orb = OrbifoldRing(B)
    x = ring.element({0: {0: 3, 2: 5, 7: 1}})
    y = ring.element({0: {1: -2, 6: 4}})
    product = ring.star(x, y)
    expected = orb.element({0: 3, 2: 5, 7: 1}) * orb.element({1: -2, 6: 4})
    assert product.parts.get(0, {}) == expected.coeffs


def test_equivalence_examples():
    assert CrRing((2, 2)).equivalent(CrRing((4, 1))) is False
    assert CrRing((1, 2)).equivalent(CrRing((2, 1))) is True
    assert CrRing(B).equivalent(CrRing(B)) is True
    assert CrRing((1, 2)).equivalent(CrRing((1, 2, 2))) is False
    # same lcm, same dimension, different data
    assert CrRing((1, 4)).equivalent(CrRing((4, 4))) is False


def test_element_strings():
    ring = CrRing(B)
    assert str(ring.zero()) == "0"
    assert str(ring.one()) == "1"
    assert str(ring.generator(4) * 3) == "3a4"
    assert str(ring.u(2, 4) * ring.generator(4)) == "4u^2a4"
    assert str(ring.u() - ring.generator(2)) == "u - a2"
    assert str(ring.element({2: {1: 1}})) == "ua2"


def test_pow_and_scalars():
    ring = CrRing((1, 2))
    assert ring.generator(1) ** 2 == ring.u()
    assert ring.generator(1) ** 0 == ring.one()
    assert -2 * ring.u() == ring.u() * -2


def test_sector_index_validation():
    ring = CrRing((1, 2))
    with pytest.raises(ValueError):
        ring.euler(2)
    with pytest.raises(ValueError):
        ring.generator(-1)
    with pytest.raises(ValueError):
        ring.star_generators(0, 5)


@given(weight_vectors)
@settings(max_examples=60, deadline=None)
def test_rotation_excess_integral_property(b):
    ring = CrRing(b)
    ell = ring.ell
    for i in range(ell):
        for j in range(ell):
            coeff, power, target = ring._raw_product(i, j)
            assert target == (i + j) % ell
            assert 0 <= power <= ring.weights.n + 1


@given(weight_vectors)
@settings(max_examples=30, deadline=None)
def test_star_laws_property(b):
    ring = CrRing(b)
    ok, detail = star_associativity_scan(ring)
    assert ok, detail
    gens = [ring.generator(j) for j in range(ring.ell)]
    for x in gens:
        assert ring.star(ring.one(), x) == x
    for i in range(ring.ell):
        for j in range(i, ring.ell):
            assert ring.star(gens[i], gens[j]) == ring.star(gens[j], gens[i])


@given(weight_vectors, st.data())
@settings(max_examples=40, deadline=None)
def test_star_element_associativity_sampled(b, data):
    ring = CrRing(b)
    idx = st.integers(0, ring.ell - 1)
    exp = st.integers(0, ring.weights.n + 1)
    coef = st.integers(-6, 6)
    make = st.builds(
        lambda j, m, c: ring.element({j: {m: c}}),
        idx, exp, coef,
    )
    x = data.draw(make)
    y = data.draw(make)
    z = data.draw(make)
    assert ring.star(ring.star(x, y), z) == ring.star(x, ring.star(y, z))


@given(weight_vectors)
@settings(max_examples=40, deadline=None)
def test_grading_additive_property(b):
    ring = CrRing(b)
    gens = [ring.generator(j) for j in range(ring.ell)]
    for i in range(ring.ell):
        for j in range(ring.ell):
            x, y = gens[i], gens[j]
            if x.is_zero or y.is_zero:
                continue
            p = ring.star(x, y)
            if not p.is_zero:
                assert p.degree() == x.degree() + y.degree()


def test_sectors_sequence_slices_and_negative_indices():
    ring = CrRing((2, 3))
    records = [ring._record(j) for j in range(ring.ell)]
    assert list(ring.sectors) == records
    assert ring.sectors[1:3] == records[1:3]
    for index in (slice(None, None, -1), slice(-2, None), slice(4, 1, -2), slice(9, 20)):
        assert ring.sectors[index] == records[index]
    assert ring.sectors[-1] == records[-1] and ring.sectors[-6] == records[0]
    for j in (6, -7):
        with pytest.raises(IndexError):
            ring.sectors[j]


@given(weight_vectors)
@settings(max_examples=40, deadline=None)
def test_sector_records_from_integers_match_their_fractions(b):
    """A record the ring builds from integers equals the record built
    from its fractions, and iterating gives the records indexing gives."""
    ring = CrRing(b)
    ell = ring.ell
    for j, s in enumerate(ring.sectors):
        rotations = ring.rotations(j)
        assert s == ring.sectors[j] and hash(s) == hash(ring.sectors[j])
        assert ring._shift_units(j) == 2 * sum(rotations) and (s.c, s.d) == ring.euler(j)
        assert s.a == tuple(Fraction(t, ell) for t in rotations)
        assert s.degree_shift == Fraction(ring._shift_units(j), ell) == 2 * sum(s.a)
        built = SectorData(j=j, a=s.a, fixed=s.fixed, c=s.c, d=s.d, degree_shift=s.degree_shift)
        assert built == s and repr(built) == repr(s)


def test_sector_records_are_immutable_values():
    ring = CrRing((4, 9, 14))
    s = ring.sectors[7]
    before = (repr(s), hash(s))
    for field in ("j", "rotations", "ell", "c", "d", "a", "fixed", "degree_shift", "extra"):
        with pytest.raises(AttributeError):
            setattr(s, field, 7)
    for field in ("c", "rotations"):
        with pytest.raises(AttributeError):
            delattr(s, field)
    assert (repr(s), hash(s)) == before == (repr(ring.sectors[7]), hash(ring.sectors[7]))
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and repr(twin) == repr(s) and hash(twin) == hash(s)


def test_iterating_sectors_reads_rotations(monkeypatch):
    """Iteration builds records through ``CrRing.rotations``, as indexing does."""
    monkeypatch.setattr(CrRing, "rotations", lambda ring, j: (j,) * len(ring.weights.b))
    ring = CrRing((2, 3))
    assert [tuple(x * ring.ell for x in s.a) for s in ring.sectors] == [(j, j) for j in range(6)]


def test_sector_records_are_dataclasses():
    s = CrRing((4, 9, 14)).sectors[7]
    fields = ["j", "a", "fixed", "c", "d", "degree_shift"]
    assert [f.name for f in dataclasses.fields(s)] == fields
    assert dataclasses.replace(s) == s
    assert dataclasses.asdict(s) == {name: getattr(s, name) for name in fields}
    assert dataclasses.replace(s, j=8).j == 8
    with pytest.raises(ValueError):
        dataclasses.replace(s, fixed=(0,))


def test_presentation_generator_units_give_the_generator_degrees():
    for b in ((1, 2), B, (4, 9, 14)):
        pres = CrRing(b).presentation()
        ell = pres.ring.ell
        assert pres.generator_units[0] == ("u", 2 * ell)
        assert pres.generators == tuple(
            (name, Fraction(units, ell)) for name, units in pres.generator_units
        )
        assert [name for name, _ in pres.generators] == ["u"] + [f"a{j}" for j in range(1, ell)]


def test_sector_record_fields_must_agree():
    with pytest.raises(ValueError):
        SectorData(j=1, a=(F(1, 2), F(0)), fixed=(), c=3, d=1, degree_shift=F(1))
    with pytest.raises(ValueError):
        SectorData(j=1, a=(F(1, 2), F(0)), fixed=(1,), c=3, d=1, degree_shift=F(2))


def test_mult_table_matches_element_products():
    for b in (B, (4, 9, 14), (2, 2, 6)):
        ring = CrRing(b)
        for (i, j), product in ring.mult_table().items():
            assert product == ring.generator(i) * ring.generator(j)


# every weight vector with n <= 4 and entries <= 6, as in tests/test_acceptance.py
CORPUS = [ms for size in range(1, 6) for ms in combinations_with_replacement(range(1, 7), size)]


def test_product_relations_print_as_their_elements():
    """A product relation's integers print as its element prints, that
    element is the product of the two generators, and the relations make
    up the multiplication table."""
    for b in CORPUS:
        ring = CrRing(b)
        relations = ring.presentation().product_relations
        for rel in relations:
            product = rel.product
            assert rel.render(False) == product.render(False), (b, rel)
            assert rel.render(True) == product.render(True), (b, rel)
            assert product == ring.generator(rel.i) * ring.generator(rel.j), (b, rel)
        assert ring.mult_table() == {(rel.i, rel.j): rel.product for rel in relations}, b


def test_product_relation_holds_the_reduced_monomial():
    relations = {(r.i, r.j): r for r in CrRing(B).presentation().product_relations}
    # a2 a2 = 4u^2 a4; a2 a3 lands in sector 5, which fixes nothing, so it is 0
    square, vanishing = relations[2, 2], relations[2, 3]
    assert (square.coefficient, square.exponent, square.target) == (4, 2, 4)
    assert square.render(latex=True) == r"4u^{2}\alpha_{4}"
    assert vanishing.coefficient == 0 and vanishing.render() == "0"
    assert str(vanishing) == "a2*a3 = 0"
