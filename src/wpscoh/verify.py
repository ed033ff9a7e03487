"""Invariant suite for a given weight vector.

Each check returns a named pass/fail result; the CLI prints one line per
check and exits nonzero on any failure.  The checks are the testable
shadows of the structural facts the rings rely on: integrality of
structure constants, multiplicativity of the comparison map,
associativity and commutativity of the twisted product, agreement of
the identity sector with the orbifold ring, and so on.

Sector checks run over the ring's nonzero sectors, those that fix some
coordinate (see ``chenruan``), and report their coverage:

- The associativity scan runs on plain integer structure constants over
  nonzero^3 (reduction commutes with multiplying by a monomial, so this
  is the same algebra the element path performs).  It is exhaustive when
  len(nonzero)^3 fits its budget of 2M triples and uniformly sampled
  otherwise.  A cross-check through the element path guards the
  equivalence; it walks all of nonzero^3 up to 200 triples and samples
  200 above, and is named "sampled element path" either way.
- The lemma check: a sector that fixes no coordinate times any sector
  reduces to 0, in either order.  So every triple with a zero sector
  has both association orders zero, and with an exhaustive scan
  associativity holds on all ell^3 triples.  It covers every pair whose
  product lands in a nonzero sector (the others reduce to 0 by
  definition), exhaustively up to 100k pairs and sampled beyond.
- Commutativity and grading run over nonzero pairs, exhaustively up to
  100k pairs and sampled beyond.
- The rotation-number excess check runs, for each distinct weight b,
  over residues mod ell / b; it is exhaustive for every ell.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field

from .arith import as_weights, rotation_number
from .chenruan import CrRing
from .kawasaki import KawasakiRing, subset_lcm_table
from .orbifold import OrbifoldRing


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = field(default="")


def _reduce_raw(ring: CrRing, coeff: int, power: int, sector: int):
    """Reduced monomial (coeff, power) in a sector, or None when zero."""
    c, d = ring.euler(sector)
    if power >= d:
        coeff %= c
    return None if coeff == 0 else (coeff, power)


def star_associativity_scan(ring: CrRing, budget: int = 2_000_000, seed: int = 0):
    """Check (a_i * a_j) * a_k == a_i * (a_j * a_k) over triples of
    nonzero sectors.

    Runs on integer structure-constant tables; exhaustive when
    len(nonzero)^3 fits the budget, uniformly sampled otherwise.  The
    triples with a zero sector are the lemma check's (see run_checks).
    Returns (ok, detail).
    """
    ell = ring.ell
    nz = ring.nonzero

    # (raw, reduced) structure constants of a pair.  The cache holds all
    # len(nonzero)^2 pairs when the scan is exhaustive; when it samples,
    # that square may far exceed memory, so the cache is bounded.
    @functools.lru_cache(maxsize=min(len(nz) ** 2, 1 << 16))
    def constants(i, j):
        raw = ring._raw_product(i, j)
        return raw, _reduce_raw(ring, *raw)

    def one_side(first, second_pair, final_sector):
        if first is None:
            return None
        c1, e1 = first
        c2, e2, _ = constants(*second_pair)[0]
        return _reduce_raw(ring, c1 * c2, e1 + e2, final_sector)

    total = len(nz) ** 3
    if total <= budget:
        triples = itertools.product(nz, repeat=3)
        detail = f"exhaustive over {total} triples"
    else:
        rng = random.Random(seed)
        triples = (
            (rng.choice(nz), rng.choice(nz), rng.choice(nz)) for _ in range(budget)
        )
        detail = f"sampled {budget} of {total} triples"

    for i, j, k in triples:
        w = (i + j + k) % ell
        lhs = one_side(constants(i, j)[1], ((i + j) % ell, k), w)
        rhs = one_side(constants(j, k)[1], (i, (j + k) % ell), w)
        if lhs != rhs:
            return False, f"triple ({i},{j},{k}): {lhs} != {rhs}"
    return True, detail


def zero_sector_lemma(ring: CrRing, budget: int = 100_000, seed: int = 0):
    """Check that a_i * a_j and a_j * a_i reduce to 0 whenever sector i
    fixes no coordinate.

    Pairs whose product lands in a zero sector reduce to 0 by
    definition, so the check runs over i outside ``nonzero`` and
    j = t - i for t in ``nonzero``: exhaustive when those pairs fit the
    budget, uniformly sampled otherwise.  Returns (ok, detail).
    """
    ell = ring.ell
    nz = ring.nonzero
    zero = [i for i in range(ell) if ring.is_zero_generator(i)]
    total = len(nz) * len(zero)
    if total <= budget:
        pairs = ((i, (t - i) % ell) for t in nz for i in zero)
        detail = f"exhaustive over {total} pairs"
    else:
        rng = random.Random(seed)
        pairs = (
            (i, (rng.choice(nz) - i) % ell)
            for i in (rng.choice(zero) for _ in range(budget))
        )
        detail = f"sampled {budget} of {total} pairs"
    for i, j in pairs:
        for x, y in ((i, j), (j, i)):
            survivor = _reduce_raw(ring, *ring._raw_product(x, y))
            if survivor is not None:
                return False, f"a{x}*a{y} = {survivor}, not 0, with a{i} fixing nothing"
    return True, detail


def element_path_triples(nz, rng):
    """Triples of sectors for the associativity check through elements:
    all of nz^3 when that is at most 200 triples, else 200 uniform draws."""
    if len(nz) ** 3 <= 200:
        return list(itertools.product(nz, repeat=3))
    return [tuple(rng.choice(nz) for _ in range(3)) for _ in range(200)]


def run_checks(weights, seed: int = 20240601, triple_budget: int = 2_000_000):
    """All invariant checks for one weight vector, as CheckResult records."""
    w = as_weights(weights)
    rng = random.Random(seed)
    kaw = KawasakiRing(w)
    orb = OrbifoldRing(w)
    cr = CrRing(w)
    results = []

    def check(name, passed, detail=""):
        results.append(CheckResult(name, bool(passed), detail))

    # gcd and lcm sandwich every weight
    check(
        "weights: g divides each b_k divides lcm",
        all(bk % w.g == 0 and w.ell % bk == 0 for bk in w.b),
    )

    # rotation numbers: periodic, complements sum to an integer
    ok = all(
        rotation_number(bk, m + w.ell, w.ell) == rotation_number(bk, m, w.ell)
        and rotation_number(bk, m, w.ell) + rotation_number(bk, w.ell - m, w.ell) in (0, 1)
        for bk in w.b
        for m in range(1, w.ell)
    )
    check("rotation numbers: periodic and complement-integral", ok)

    # subset-lcm table divisibility (integer structure constants)
    ok = all(
        (kaw.ell(k) * kaw.ell(m)) % kaw.ell(k + m) == 0
        for k in range(w.n + 1)
        for m in range(w.n + 1 - k)
    )
    check("coarse ring: l_(k+m) divides l_k * l_m", ok)

    # generator products associate
    gens = [kaw.gamma(k) for k in range(w.n + 1)]
    ok = all(
        (x * y) * z == x * (y * z) for x in gens for y in gens for z in gens
    )
    check("coarse ring: generator products associate", ok)

    # structure constants only see the coarse space: invariant under b -> c*b
    for scale in (2, 3):
        scaled = subset_lcm_table(tuple(scale * bk for bk in w.b))
        ok = all(
            scaled[k] * scaled[m] // scaled[k + m]
            == kaw.ell(k) * kaw.ell(m) // kaw.ell(k + m)
            for k in range(w.n + 1)
            for m in range(w.n + 1 - k)
        )
        check(f"coarse ring: structure constants unchanged under b -> {scale}b", ok)

    # comparison map is multiplicative, including the vanishing range
    ok = all(
        kaw.qstar(kaw.gamma(k) * kaw.gamma(m), orb)
        == orb.multiply(kaw.qstar(kaw.gamma(k), orb), kaw.qstar(kaw.gamma(m), orb))
        for k in range(w.n + 1)
        for m in range(w.n + 1)
    )
    check("comparison map: multiplicative on generator pairs", ok)

    # k * u^top vanishes exactly when N divides k
    ks = sorted(set(range(1, min(w.N, 60) + 1)) | {w.N - 1, w.N, w.N + 1, 2 * w.N})
    ok = all(
        orb.u(orb.top, k).is_zero == (k % w.N == 0) for k in ks if k >= 1
    )
    check("orbifold ring: k u^top = 0 exactly when N | k", ok)

    # the image of the degree-2 coarse generator is nilpotent at the top power
    if w.n >= 1:
        check(
            "orbifold ring: (l_1 u)^top = 0",
            (orb.u(1, kaw.ell(1)) ** orb.top).is_zero,
        )
    else:
        check("orbifold ring: (l_1 u)^top = 0", True, "trivial for n = 0")

    # excess of rotation numbers is 0 or 1 on every coordinate.  A weight-b
    # coordinate's numerator b * j mod ell depends on j mod p only, with
    # p = ell / b, and equals b * x on the residues x < p (checked here).
    # So the excess at sectors (i, j) is a function of x + y for their
    # residues x, y, and one residue pair per sum covers all ell^2 pairs.
    ell = cr.ell
    ok = True
    for b in sorted(set(w.b)):
        k, p = w.b.index(b), ell // b
        ok = ok and all(cr.rotations(x)[k] == b * x for x in range(p))
        for total in range(2 * p - 1):
            x = min(total, p - 1)
            excess = (
                cr.rotations(x)[k]
                + cr.rotations(total - x)[k]
                - cr.rotations(total % ell)[k]
            )
            if excess not in (0, ell):
                ok = False
    check(
        "sectors: rotation-number excess lies in {0,1}",
        ok,
        "exhaustive over residues mod ell/b",
    )

    # sector pairs for the pairwise checks: nonzero generators only, as
    # the lemma check below covers every product with a zero generator
    nz = cr.nonzero
    cr_gens = {j: cr.generator(j) for j in nz}
    if len(nz) ** 2 <= 100_000:
        pairs = [(i, j) for x, i in enumerate(nz) for j in nz[x:]]
        pair_detail = f"exhaustive over {len(pairs)} nonzero pairs"
    else:
        pairs = [(rng.choice(nz), rng.choice(nz)) for _ in range(50_000)]
        pair_detail = f"sampled {len(pairs)} nonzero pairs"

    # twisted product: commutative, unital
    check(
        "twisted product: commutative on generators",
        all(cr.star(cr_gens[i], cr_gens[j]) == cr.star(cr_gens[j], cr_gens[i]) for i, j in pairs),
        pair_detail,
    )
    samples = [
        cr.element(
            {
                rng.choice(nz): {rng.randrange(w.n + 2): rng.randrange(-9, 10)}
                for _ in range(3)
            }
        )
        for _ in range(5)
    ]
    check(
        "twisted product: sector-0 generator is the unit",
        all(cr.star(cr.one(), x) == x for x in [*cr_gens.values(), *samples]),
    )

    # associativity: exhaustive on structure constants, sampled on
    # elements; the lemma extends the scan to triples with a zero sector
    ok, detail = star_associativity_scan(cr, budget=triple_budget, seed=seed)
    check("twisted product: associative (structure-constant scan)", ok, detail)
    ok, detail = zero_sector_lemma(cr, seed=seed)
    check("twisted product: a sector fixing no coordinate kills every product", ok, detail)
    ok = True
    for i, j, k in element_path_triples(nz, rng):
        lhs = cr.star(cr.star(cr_gens[i], cr_gens[j]), cr_gens[k])
        rhs = cr.star(cr_gens[i], cr.star(cr_gens[j], cr_gens[k]))
        if lhs != rhs:
            ok = False
    check("twisted product: associative (sampled element path)", ok)

    # degrees add when the product survives
    ok = True
    for i, j in pairs:
        x, y = cr_gens[i], cr_gens[j]
        p = cr.star(x, y)
        if not p.is_zero and p.degree() != x.degree() + y.degree():
            ok = False
    check("grading: additive on surviving generator products", ok, pair_detail)

    # the identity sector is the orbifold ring
    s0 = cr.sector(0)
    ok = s0.c == w.N and s0.d == w.n + 1 and s0.degree_shift == 0
    for _ in range(20):
        pa = {rng.randrange(w.n + 2): rng.randrange(-9, 10) for _ in range(3)}
        pb = {rng.randrange(w.n + 2): rng.randrange(-9, 10) for _ in range(3)}
        lhs = cr.star(cr.element({0: pa}), cr.element({0: pb}))
        rhs = orb.multiply(orb.element(pa), orb.element(pb))
        if lhs.parts.get(0, {}) != rhs.coeffs:
            ok = False
    check("identity sector: agrees with the orbifold ring", ok)

    # sectors acting trivially on every coordinate are exactly the
    # multiples of ell/g, and they look like the identity sector
    global_sectors = [j for j in nz if not any(cr.rotations(j))]
    ok = global_sectors == list(range(0, ell, ell // w.g))
    for j in global_sectors:
        s = cr.sector(j)
        if s.d != w.n + 1 or s.c != w.N or s.degree_shift != 0:
            ok = False
        if cr.generator(j) * cr.generator((ell - j) % ell) != cr.one():
            ok = False
    check(
        "global stabilizer: trivial-action sectors form the expected subgroup",
        ok,
        f"{len(global_sectors)} sector(s)" + (" (gerbe)" if w.g > 1 else ""),
    )

    return results
