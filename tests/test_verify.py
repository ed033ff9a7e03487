import math
import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wpscoh import verify
from wpscoh.chenruan import CrRing
from wpscoh.kawasaki import KawasakiRing
from wpscoh.verify import (
    pair_scan,
    run_checks,
    star_associativity_scan,
    zero_sector_lemma,
)


# -- oracles for pair_scan: the ideal scan and the element-path walk -------------


def kernel_ideal_scan(ring: CrRing):
    """Check that the kernel relations span an ideal on the nonzero
    sectors: for all nonzero i and j, a_i times c_j u^{d_j} a_j lies in
    the kernel of sector i+j, that is, c_{i+j} divides coeff(i, j) c_j
    and d_{i+j} <= power(i, j) + d_j.  Returns (ok, detail).
    """
    nz = ring.nonzero
    euler = {j: ring.euler(j) for j in nz}
    for i in nz:
        for j in nz:
            coeff, power, t = ring._raw_product(i, j)
            c, d = euler.get(t) or ring.euler(t)
            cj, dj = euler[j]
            if coeff * cj % c or d > power + dj:
                return False, (
                    f"a{i} * {cj}u^{dj}a{j} = {coeff * cj}u^{power + dj}a{t} "
                    f"is outside the kernel {c}u^{d}a{t}"
                )
    return True, f"exhaustive over {len(nz) ** 2} nonzero pairs"


def element_pair_walk(cr: CrRing):
    """One walk over the unordered pairs of nonzero generators, on the
    element path: commutative, and degrees add when the product survives
    (in units of 1/ell, so the walk stays in integers).  Returns
    (commutes, additive).
    """
    ell = cr.ell
    nz = cr.nonzero
    gens = {j: cr.generator(j) for j in nz}
    shift = {j: cr._shift_units(j) for j in nz}
    commutes = additive = True
    for x, i in enumerate(nz):
        for j in nz[x:]:
            prod = cr.star(gens[i], gens[j])
            commutes = commutes and prod == cr.star(gens[j], gens[i])
            degrees = {2 * m * ell + shift[t] for t, poly in prod.parts.items() for m in poly}
            additive = additive and degrees <= {shift[i] + shift[j]}
    return commutes, additive


def _pair_oracles(ring):
    return kernel_ideal_scan(ring), *element_pair_walk(ring)


@pytest.mark.parametrize(
    "weights",
    [(1, 2, 2, 3, 3, 3), (1, 1, 1), (2, 2), (4, 1), (5,), (2, 3, 4), (6, 10, 15)],
)
def test_all_checks_pass(weights):
    results = run_checks(weights)
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    for r in results:
        if r.name.startswith(("rotation", "sectors", "twisted", "grading", "identity")):
            assert r.detail.startswith("exhaustive over "), r


def test_check_names_are_stable():
    names = [r.name for r in run_checks((1, 2))]
    assert len(names) == len(set(names))
    assert any("associative" in n for n in names)
    assert any("comparison map" in n for n in names)


def test_scan_reports_exhaustive():
    ring = CrRing((1, 2, 3))
    ok, detail = star_associativity_scan(ring)
    assert ok and detail == f"exhaustive over {len(ring.nonzero) ** 3} triples"


IDEAL = "twisted product: associative (kernel relations span an ideal)"
COMMUTES = "twisted product: commutative on generators"
LEMMA = "twisted product: a sector fixing no coordinate kills every product"


@pytest.mark.parametrize("weights", [(5, 7, 9), (7, 9, 11), (4, 9, 14)])
def test_scan_is_exhaustive_over_nonzero_sectors(weights):
    nonzero = len(CrRing(weights).nonzero)
    results = {r.name: r for r in run_checks(weights)}
    scan = results[IDEAL]
    assert scan.passed
    assert scan.detail == f"exhaustive over {nonzero**2} nonzero pairs"


_LISTS = "the presentation and multiplication table list"


@pytest.mark.parametrize(
    "work, what",
    [
        (lambda: CrRing((2, 3, 4)).presentation(), _LISTS),
        (lambda: CrRing((2, 3, 4)).mult_table(), _LISTS),
        (lambda: run_checks((2, 3, 4)), "check forms"),
    ],
    ids=["presentation", "mult_table", "run_checks"],
)
def test_product_work_refuses_itself_above_the_limit(monkeypatch, work, what):
    # (2,3,4) has 5 nonzero twisted sectors
    monkeypatch.setattr("wpscoh.chenruan.PRODUCT_SECTOR_LIMIT", 3)
    with pytest.raises(ValueError) as exc:
        work()
    assert str(exc.value) == (
        f"{what} products of 5 nonzero twisted sectors, more than the limit of 3"
    )


def test_run_checks_draws_no_random_numbers(monkeypatch):
    assert not hasattr(verify, "random")
    for name in ("Random", "choice", "random", "randrange"):
        monkeypatch.setattr(random, name, None)
    assert all(r.passed for r in run_checks((4, 9, 14)))


def test_residue_walks_read_the_rotation_numbers(monkeypatch):
    """The walks read the numerators through ``CrRing._numerators``, the
    reader that the sector chart and ``rotations`` read."""
    numerators = CrRing._numerators

    def off_by_one(ring, bs, js):
        js = list(js)
        first = ring.classes[0][0]
        pairs = [(b, j) for b in bs for j in js]
        return [t + (b == first and j == 1) for (b, j), t in zip(pairs, numerators(ring, bs, js))]

    monkeypatch.setattr(CrRing, "_numerators", off_by_one)
    results = {r.name: r for r in run_checks((2, 3, 5))}
    assert not results["sectors: rotation-number excess lies in {0,1}"].passed
    monkeypatch.undo()

    def unreduced(ring, bs, js):
        return [b * j for b in bs for j in js]

    monkeypatch.setattr(CrRing, "_numerators", unreduced)
    results = {r.name: r for r in run_checks((2, 3, 5))}
    assert not results["rotation numbers: periodic and complement-integral"].passed


def test_check_catches_a_dropped_excess(monkeypatch):
    original = CrRing._raw_product

    def drop_one_excess(ring, i, j):
        coeff, power, target = original(ring, i, j)
        ell = ring.ell
        for bk in ring.weights.b:
            if bk * i % ell + bk * j % ell >= ell:
                return coeff // bk, power - 1, target
        return coeff, power, target

    monkeypatch.setattr(CrRing, "_raw_product", drop_one_excess)
    results = {r.name: r for r in run_checks((1, 2, 2, 3, 3, 3))}
    assert not results[IDEAL].passed
    ring = CrRing((4, 9, 14))
    ok, detail = kernel_ideal_scan(ring)
    assert not ok and "outside the kernel" in detail
    assert pair_scan(ring) == _pair_oracles(ring)


def test_check_catches_an_asymmetric_product(monkeypatch):
    original = CrRing._raw_product

    def asymmetric(ring, i, j):
        coeff, power, target = original(ring, i, j)
        return (2 * coeff if i < j else coeff), power, target

    monkeypatch.setattr(CrRing, "_raw_product", asymmetric)
    for weights in [(1, 2, 2, 3, 3, 3), (4, 9, 14)]:
        results = {r.name: r for r in run_checks(weights)}
        assert not results[COMMUTES].passed, weights
        ring = CrRing(weights)
        assert pair_scan(ring) == _pair_oracles(ring)


def test_check_forms_no_sector_record_and_no_product_per_pair(monkeypatch):
    weights = (4, 9, 14)
    nonzero = len(CrRing(weights).nonzero)
    calls = {"_record": 0, "star": 0}

    def counting(name):
        original = getattr(CrRing, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(CrRing, name, counted)

    counting("_record")
    counting("star")
    assert all(r.passed for r in run_checks(weights))
    assert calls["_record"] == 0
    assert calls["star"] < nonzero * (nonzero + 1) // 2


def test_coarse_associativity_reads_the_structure_constants(monkeypatch):
    name = "coarse ring: generator products associate"
    assert {r.name: r for r in run_checks((1, 2, 3, 4))}[name].passed
    original = KawasakiRing._raw_product

    def doubled(ring, k, m):
        constant = original(ring, k, m)
        return (2 * constant[0], 0, k + m) if (k, m) == (1, 2) else constant

    monkeypatch.setattr(KawasakiRing, "_raw_product", doubled)
    assert not {r.name: r for r in run_checks((1, 2, 3, 4))}[name].passed
    ring = KawasakiRing((1, 2, 3, 4))
    g1 = ring.gamma(1)
    assert (g1 * g1) * g1 != g1 * (g1 * g1)  # the element path agrees


# -- Euler-class mutants ---------------------------------------------------------

def _smallest_prime(c):
    return next(p for p in range(2, c + 1) if c % p == 0)


MUTATIONS = {
    "d+1": lambda c, d: (c, d + 1),
    "d-1": lambda c, d: (c, d - 1),
    "2c": lambda c, d: (2 * c, d),
    "c/p": lambda c, d: (c // _smallest_prime(c), d),
}


def _mutants(weights):
    """(sector, mutation) for each mutation of each nonzero twisted sector's
    Euler class; c/p only where c has a prime factor."""
    ring = CrRing(weights)
    return [
        (t, kind)
        for t in ring.twisted_generator_indices()
        for kind in MUTATIONS
        if kind != "c/p" or ring.euler(t)[0] > 1
    ]


def _mutate(monkeypatch, t, kind):
    # CrRing.euler and every reduction read the Euler class through _annihilator
    original = CrRing._annihilator

    def annihilator(ring, j):
        c, d = original(ring, j)
        return MUTATIONS[kind](c, d) if j == t else (c, d)

    monkeypatch.setattr(CrRing, "_annihilator", annihilator)


MUTANT_VECTORS = [(4, 9, 14), (1, 2, 2, 3, 3, 3), (2, 3, 4), (6, 10, 15), (5, 7, 9)]


def test_check_fails_every_euler_class_mutant():
    killed = 0
    for weights in MUTANT_VECTORS:
        for t, kind in _mutants(weights):
            with pytest.MonkeyPatch.context() as mp:
                _mutate(mp, t, kind)
                results = run_checks(weights)
            assert not all(r.passed for r in results), (weights, t, kind)
            killed += 1
    assert killed == 280


def test_lemma_alone_fails_every_divisor_mutant():
    # c/p and d-1 keep c_t dividing the product of the fixed weights and
    # d_t at most their count, so only equality tells them apart
    lemma_fails = 0
    for weights in MUTANT_VECTORS:
        for t, kind in _mutants(weights):
            if kind not in ("c/p", "d-1"):
                continue
            ring = CrRing(weights)
            fixed = [bk for bk, r in zip(ring.weights.b, ring.rotations(t)) if r == 0]
            c, d = MUTATIONS[kind](*ring.euler(t))
            assert math.prod(fixed) % c == 0 and d <= len(fixed)
            with pytest.MonkeyPatch.context() as mp:
                _mutate(mp, t, kind)
                ok, detail = zero_sector_lemma(CrRing(weights))
            assert not ok, (weights, t, kind)
            assert detail == f"sector {t} fixes {fixed}, but its Euler class is {c}u^{d}"
            lemma_fails += 1
    assert lemma_fails == 140


def _ideal_argument_implies_the_scan(weights, oracles_under_mutants=True):
    """Under each mutant and without one: where the lemma's Euler-class
    part and the ideal check pass, the triple scan passes too.  The
    integer pair walk agrees with its oracles without a mutant, and under
    each one when oracles_under_mutants."""
    for case in [None, *_mutants(weights)]:
        with pytest.MonkeyPatch.context() as mp:
            if case:
                _mutate(mp, *case)
            ring = CrRing(weights)
            if oracles_under_mutants or case is None:
                assert pair_scan(ring) == _pair_oracles(ring), (weights, case)
            if zero_sector_lemma(ring)[0] and kernel_ideal_scan(ring)[0]:
                assert star_associativity_scan(ring)[0], (weights, case)
            else:
                assert case is not None, weights


# every weight vector with n <= 4 and entries <= 6, as in tests/test_acceptance.py
CORPUS = [
    ms for size in range(1, 6) for ms in combinations_with_replacement(range(1, 7), size)
]


def test_ideal_argument_agrees_with_the_scan_on_the_corpus():
    for weights in CORPUS:
        _ideal_argument_implies_the_scan(weights)


@given(st.lists(st.integers(1, 30), min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_ideal_argument_agrees_with_the_scan(weights):
    # the triple scan is exhaustive: |nonzero|^3 triples per mutant
    assume(len(CrRing(weights).nonzero) ** 3 <= 2_000_000)
    # each pair walk costs |nonzero|^2 per mutant, and there are about
    # 4 |nonzero| mutants: tens of seconds at 126 nonzero sectors
    _ideal_argument_implies_the_scan(weights, oracles_under_mutants=False)
