"""The dense columns of ``CrRing`` against the per-sector readers.

The sector chart and the presentation read whole columns
(``numerator_columns``, ``shift_column``, ``euler_column``,
``generator_names``); sparse callers read one sector at a time
(``rotations``, ``_shift_units``, ``_annihilator``, ``_variable``).
The per-sector readers stay as the oracle: on every sector of the
corpus of ``test_verify`` and of random vectors with ell <= 2000, each
column entry equals what its per-sector reader gives, and each
numerator equals b * j mod ell.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_verify import CORPUS

from wpscoh.chenruan import CrRing, KernelRelation


def assert_columns_match_per_sector_readers(weights):
    ring = CrRing(weights)
    ell = ring.ell
    numerators = ring.numerator_columns()
    assert len(numerators) == len(ring.classes)
    for (b, _, coords), column in zip(ring.classes, numerators):
        assert column == tuple(b * j % ell for j in range(ell)), (weights, b)
        for k in coords:
            assert column == tuple(ring.rotations(j)[k] for j in range(ell)), (weights, b)
    assert ring.shift_column() == tuple(map(ring._shift_units, range(ell))), weights
    assert ring.euler_column() == tuple(map(ring._annihilator, range(ell))), weights
    assert ring.generator_names() == [f"a{j}" for j in range(ell)]

    pres = ring.presentation()
    for latex in (False, True):
        assert pres.kernel_relations.render(latex) == [
            KernelRelation(j, *ring._annihilator(j), ring).render(latex) for j in range(ell)
        ], weights
    names = ["u"] + [ring._variable(j, 0, True) for j in range(1, ell)]
    assert pres.generator_units.names(latex=True) == names
    assert list(pres.generator_units) == [("u", 2 * ell)] + [
        (f"a{j}", ring._shift_units(j)) for j in range(1, ell)
    ]


def test_columns_match_per_sector_readers_on_the_corpus():
    for weights in CORPUS:
        assert_columns_match_per_sector_readers(weights)


@given(st.lists(st.integers(1, 60), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_columns_match_per_sector_readers(weights):
    ring = CrRing(weights)
    assume(ring.ell <= 2000 and len(ring.nonzero) <= 200)
    assert_columns_match_per_sector_readers(weights)


def test_the_columns_read_the_numerator_reader(monkeypatch):
    """The chart prints the numerators through ``CrRing._numerators``,
    the reader that the residue walks of ``check`` read."""
    monkeypatch.setattr(CrRing, "_numerators", lambda ring, bs, js: [b * j for b in bs for j in js])
    ring = CrRing((2, 3, 5))
    assert ring.numerator_columns()[0] == tuple(2 * j for j in range(30))
    assert ring.rotations(7) == (14, 21, 35)


def test_columns_are_built_once_per_ring(monkeypatch):
    calls = []
    numerators = CrRing._numerators
    monkeypatch.setattr(
        CrRing, "_numerators", lambda ring, bs, js: calls.append(bs) or numerators(ring, bs, js)
    )
    ring = CrRing((4, 9, 14))
    for _ in range(2):
        ring.numerator_columns(), ring.shift_column(), ring.euler_column()
    assert calls == [(b,) for b, _, _ in ring.classes]


def test_no_reader_can_edit_the_columns():
    ring = CrRing((7, 8, 15))
    columns = (*ring.numerator_columns(), ring.shift_column(), ring.euler_column())
    assert all(isinstance(column, tuple) for column in columns)
    names = ring.presentation().generator_units.names()
    names[1] = "edited"
    assert ring.presentation().generator_units.names()[1] == "a1"


def test_views_index_like_sequences():
    pres = CrRing((1, 2, 2, 3, 3, 3)).presentation()
    gens, kernel = pres.generator_units, pres.kernel_relations
    assert len(gens) == len(kernel) == 6
    assert gens[0] == ("u", 12) and gens[-1] == ("a5", 44) and gens[1:3] == list(gens)[1:3]
    assert str(kernel[0]) == "108u^6" and [str(r) for r in kernel[-2:]] == ["27u^3a4", "a5"]
    assert list(kernel) == kernel[:]


def test_views_compare_and_hash_as_tuples():
    ring = CrRing((1, 2, 2, 3, 3, 3))
    for view in ("generator_units", "kernel_relations"):
        first, second = (getattr(ring.presentation(), view) for _ in range(2))
        items = tuple(first)
        assert first == second and first == items and items == first and hash(first) == hash(items)
        assert first != list(items) and first != items[:-1] and first != items[:-1] + items[:1]
    same, other = (CrRing(w).presentation() for w in ((1, 2, 2, 3, 3, 3), (1, 1, 2, 3, 3, 3)))
    assert ring.presentation().kernel_relations == same.kernel_relations != other.kernel_relations
    assert ring.sectors == tuple(ring.sectors) != CrRing((1, 2)).sectors


def test_indexing_the_views_builds_no_column(monkeypatch):
    """A presentation may have millions of sectors and few products; an
    item of its views is read off the per-sector readers."""
    ring = CrRing((19, 23, 29, 31, 37))
    pres = ring.presentation()
    monkeypatch.setattr(CrRing, "_dense_columns", lambda ring: 1 / 0)
    j = ring.ell // 19
    assert pres.generator_units[j] == (f"a{j}", ring._shift_units(j))
    assert ring._annihilator(j) == (19, 1) and str(pres.kernel_relations[j]) == f"19ua{j}"
    assert len(pres.generator_units) == len(pres.kernel_relations) == ring.ell
