import random
import tracemalloc

import pytest

from wpscoh import verify
from wpscoh.chenruan import CrRing
from wpscoh.verify import run_checks, star_associativity_scan, zero_sector_lemma


@pytest.mark.parametrize(
    "weights",
    [(1, 2, 2, 3, 3, 3), (1, 1, 1), (2, 2), (4, 1), (5,), (2, 3, 4), (6, 10, 15)],
)
def test_all_checks_pass(weights):
    results = run_checks(weights)
    failures = [r for r in results if not r.passed]
    assert not failures, failures


def test_check_names_are_stable():
    names = [r.name for r in run_checks((1, 2))]
    assert len(names) == len(set(names))
    assert any("associative" in n for n in names)
    assert any("comparison map" in n for n in names)


def test_scan_reports_exhaustive_or_sampled():
    ring = CrRing((1, 2, 3))
    ok, detail = star_associativity_scan(ring)
    assert ok and detail.startswith("exhaustive")
    ok, detail = star_associativity_scan(ring, budget=10)
    assert ok and detail.startswith("sampled 10 of")


def test_sampled_scan_does_not_tabulate_all_pairs():
    # every one of the 1009 sectors is nonzero, so a table of all pairs
    # would hold about 10^6 structure constants
    ring = CrRing((1, 1009))
    tracemalloc.start()
    try:
        ok, detail = star_associativity_scan(ring, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and detail == f"sampled 1000 of {1009**3} triples"
    assert peak < 10_000_000


@pytest.mark.parametrize("weights", [(5, 7, 9), (7, 9, 11), (4, 9, 14)])
def test_scan_is_exhaustive_over_nonzero_sectors(weights):
    nonzero = len(CrRing(weights).nonzero)
    results = {r.name: r for r in run_checks(weights)}
    scan = results["twisted product: associative (structure-constant scan)"]
    assert scan.passed
    assert scan.detail == f"exhaustive over {nonzero**3} triples"


def test_zero_sector_lemma_check_catches_a_dropped_excess(monkeypatch):
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
    lemma = results["twisted product: a sector fixing no coordinate kills every product"]
    assert not lemma.passed
    ok, detail = zero_sector_lemma(CrRing((4, 9, 14)))
    assert not ok and "fixing nothing" in detail


@pytest.mark.parametrize("weights, distinct", [((1, 2), 8), ((1, 2, 2, 3, 3, 3), 64)])
def test_element_path_walks_every_triple_when_cheap(monkeypatch, weights, distinct):
    visited = []
    choose = verify.element_path_triples

    def recording(nz, rng):
        triples = choose(nz, rng)
        visited.extend(triples)
        return triples

    monkeypatch.setattr(verify, "element_path_triples", recording)
    results = {r.name: r for r in run_checks(weights)}
    assert results["twisted product: associative (sampled element path)"].passed
    assert len(CrRing(weights).nonzero) ** 3 == distinct
    assert len(visited) == len(set(visited)) == distinct


def test_element_path_samples_above_its_budget():
    nz = CrRing((5, 7, 9)).nonzero  # 19 nonzero sectors, 6859 triples
    triples = verify.element_path_triples(nz, random.Random(1))
    assert len(triples) == 200 and set(map(len, triples)) == {3}
    assert set(x for t in triples for x in t) <= set(nz)
