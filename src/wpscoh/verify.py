"""Invariant suite for a given weight vector.

Each check returns a named pass/fail result; the CLI prints one line per
check and exits nonzero on any failure.  The checks are the testable
shadows of the structural facts the rings rely on: integrality of
structure constants, multiplicativity of the comparison map,
associativity and commutativity of the twisted product, agreement of
the identity sector with the orbifold ring, and so on.

The twisted product is checked by the argument that makes it
associative.  The sector ring is the unreduced ring, free over Z[u] on
one a_j per sector with a_i a_j = coeff(i, j) u^power(i, j) a_{i+j},
modulo the kernel spanned by the relations c_j u^{d_j} a_j (as in
Goldin, Holm and Knutson, "Orbifold cohomology of torus quotients",
2007).  Two facts about pairs, not triples, then make the quotient
associative:

- The unreduced product associates.  Per coordinate, the excess
  r(i) + r(j) - r(i+j) of the rotation numbers lies in {0, 1} and is a
  coboundary, so both association orders collect the same weights and
  the same power of u.
- The kernel is an ideal: c_{i+j} divides coeff(i, j) c_j and
  d_{i+j} <= power(i, j) + d_j for all sectors i and j.  The ideal check
  tests this on all pairs of nonzero sectors (those that fix some
  coordinate, see ``chenruan``).  For a zero sector j (c_j = 1,
  d_j = 0) the lemma check covers it in two parts: every nonzero sector
  t has c_t equal to the product of the weights t fixes and d_t equal
  to their count; and a coordinate fixed by i+j but not by j sits at
  residues p - x and x with x != 0, mod p = ell / b, so its excess is 1
  and its weight divides coeff(i, j).

So the quotient associates on all ell^3 triples.  Every sector check is
one exhaustive pass:

- The rotation-number checks (periodicity, complements, the excess, and
  the lemma's second part) walk, for each row (b, p, coordinates) of the
  ring's weight-class table, the residues mod p = ell / b on the ring's
  integer numerators, read through ``CrRing._numerators``, the reader
  behind ``rotations`` and the sector chart, so behind every numerator,
  shift and degree that is printed: a weight-b coordinate's numerator
  b * j mod ell depends on j mod p only.
- ``pair_scan`` walks the ordered pairs of nonzero sectors once, on
  integer structure constants, and decides three claims there: the
  ideal, commutativity and grading.
- The unit and identity-sector checks run over the basis monomials
  u^m a_j with m <= d_j; the product is bilinear, and past d_j it only
  shifts exponents, so these cover every case.

The ring builds its Euler data and its structure constants from the
weight-class table, on residues mod p; its rotation numerators and
degree shifts stay per coordinate.  Two checks tie the forms together
on every nonzero sector: the lemma's first part compares the Euler data
with the weights that the rotation numerators fix, and the grading claim
of ``pair_scan`` compares the power of u in each structure constant
with the per-coordinate degree shifts.  ``pair_scan`` stays in
``run_checks`` for that reason: it is the only check that calls
``CrRing._raw_product`` on every pair of nonzero sectors.  A comparison
with the per-coordinate excess on residue pairs would call it on one
sector pair per residue pair, a sample of the sector pairs.

``run_checks`` forms the structure constants of every pair of nonzero
sectors, so it refuses a ring with more than
``chenruan.PRODUCT_SECTOR_LIMIT`` nonzero twisted sectors before any
walk, and before it builds the coarse or orbifold ring.

``star_associativity_scan``, the direct scan over all triples of
nonzero sectors, is kept as the exhaustive test oracle for the ideal
check; it does not sample, and ``run_checks`` does not call it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .arith import as_weights
from .chenruan import CrRing
from .kawasaki import KawasakiRing, subset_lcm_table
from .orbifold import OrbifoldRing


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = field(default="")


def star_associativity_scan(ring: CrRing):
    """Check (a_i * a_j) * a_k == a_i * (a_j * a_k) over all triples of
    nonzero sectors, on integer structure constants.

    The triples with a zero sector are the lemma check's (see
    run_checks).  Returns (ok, detail).
    """
    ell = ring.ell
    nz = ring.nonzero

    @functools.cache
    def constants(i, j):
        """(coeff, power, reduced coeff) of a pair."""
        coeff, power, t = ring._raw_product(i, j)
        return coeff, power, ring._reduce(coeff, power, t)

    def one_side(first_pair, second_pair, final_sector):
        """The first pair's reduced product times the second pair's
        structure constants, reduced in final_sector: (coeff, power), or
        None when zero."""
        _, e1, c1 = constants(*first_pair)
        if not c1:
            return None
        c2, e2, _ = constants(*second_pair)
        coeff = ring._reduce(c1 * c2, e1 + e2, final_sector)
        return (coeff, e1 + e2) if coeff else None

    for i, j, k in itertools.product(nz, repeat=3):
        w = (i + j + k) % ell
        lhs = one_side((i, j), ((i + j) % ell, k), w)
        rhs = one_side((j, k), (i, (j + k) % ell), w)
        if lhs != rhs:
            return False, f"triple ({i},{j},{k}): {lhs} != {rhs}"
    return True, f"exhaustive over {len(nz) ** 3} triples"


def pair_scan(ring: CrRing):
    """One walk over the ordered pairs (i, j) of nonzero sectors, on the
    integer structure constants.  Returns ((ok, detail), commutes,
    additive) for three claims:

    - the kernel is an ideal: a_i times c_j u^{d_j} a_j lies in the
      kernel of sector i+j, that is, c_{i+j} divides coeff(i, j) c_j and
      d_{i+j} <= power(i, j) + d_j; the detail of a failure names the
      first pair that fails, in the order of ``ring.nonzero``;
    - for i <= j, a_i a_j and a_j a_i reduce to the same monomial;
    - for i <= j, a surviving a_i a_j = coeff u^power a_t has degree
      s_i + s_j = s_t + 2 ell power, in units of 1/ell.
    """
    ell = ring.ell
    nz = ring.nonzero
    euler = {j: ring.euler(j) for j in nz}
    shift = {j: ring._shift_units(j) for j in nz}
    ideal, commutes, additive = None, True, True
    for i in nz:
        for j in nz:
            coeff, power, t = ring._raw_product(i, j)
            c, d = euler.get(t) or ring.euler(t)
            cj, dj = euler[j]
            if ideal is None and (coeff * cj % c or d > power + dj):
                ideal = (
                    f"a{i} * {cj}u^{dj}a{j} = {coeff * cj}u^{power + dj}a{t} "
                    f"is outside the kernel {c}u^{d}a{t}"
                )
            if i <= j:
                prod = ring._reduce(coeff, power, t)
                back = ring._raw_product(j, i)
                commutes &= prod == ring._reduce(*back) and (not prod or back[1:] == (power, t))
                additive &= not prod or shift[i] + shift[j] == shift[t] + 2 * ell * power
    detail = f"exhaustive over {len(nz) ** 2} nonzero pairs"
    return (ideal is None, ideal or detail), commutes, additive


def zero_sector_lemma(ring: CrRing):
    """The first part of the lemma: every nonzero sector t has c_t equal
    to the product of the weights t fixes, and d_t equal to their count,
    the fixed weights read off the rotation numerators.  (The second
    part, excess 1 on the coordinates fixed by i+j but not by j, is a
    residue walk in run_checks.)  Returns (ok, detail).
    """
    for t in ring.nonzero:
        fixed = [bk for bk, r in zip(ring.weights.b, ring.rotations(t)) if r == 0]
        c, d = ring.euler(t)
        if (c, d) != (math.prod(fixed), len(fixed)):
            return False, f"sector {t} fixes {fixed}, but its Euler class is {c}u^{d}"
    return True, f"exhaustive over {len(ring.nonzero)} nonzero sectors"


def run_checks(weights):
    """All invariant checks for one weight vector, as CheckResult records.
    More than ``chenruan.PRODUCT_SECTOR_LIMIT`` nonzero twisted sectors
    are refused with a ``ValueError`` before any check runs."""
    w = as_weights(weights)
    cr = CrRing(w)
    cr._require_products("check forms")
    kaw = KawasakiRing(w)
    orb = OrbifoldRing(w)
    ell = cr.ell
    nz = cr.nonzero
    results = []

    def check(name, passed, detail=""):
        results.append(CheckResult(name, bool(passed), detail))

    # gcd and lcm sandwich every weight
    check(
        "weights: g divides each b_k divides lcm",
        all(bk % w.g == 0 and w.ell % bk == 0 for bk in w.b),
    )

    # One walk per weight class (b, p, coordinates) over the residues
    # x mod p = ell / b, on the class's numerators as the sector chart
    # reads them (``CrRing._numerators``).  The weight-b numerator
    # b * j mod ell depends on j mod p only and is b * x on the residues
    # (checked here).  So the excess at sectors (i, j) is a function of
    # x + y for their residues x, y, and one residue pair per sum covers
    # all ell^2 pairs; the sum p is the pair (x, p - x), x != 0, of the
    # lemma's second part.
    periodic = excess_ok = complements = True
    for b, p, _ in cr.classes:
        nums = cr._numerators((b,), range(p))
        excess_ok = excess_ok and nums == [b * x for x in range(p)]
        # the numerators at x + p and at ell - x, for each residue x
        periodic = periodic and nums == cr._numerators((b,), range(p, 2 * p)) and all(
            t + s in (0, ell) for t, s in zip(nums, cr._numerators((b,), range(ell, ell - p, -1)))
        )
        # the numerators at the sums 0 .. 2p - 2, mod ell
        tails = cr._numerators((b,), (total % ell for total in range(p, 2 * p - 1)))
        for total, target in enumerate(itertools.chain(nums, tails)):
            x = min(total, p - 1)
            excess = nums[x] + nums[total - x] - target
            excess_ok = excess_ok and excess in (0, ell)
            complements = complements and (total != p or excess == ell)
    residues = "exhaustive over residues mod ell/b"
    check("rotation numbers: periodic and complement-integral", periodic, residues)

    # subset-lcm table divisibility (integer structure constants)
    ok = all(
        (kaw.ell(k) * kaw.ell(m)) % kaw.ell(k + m) == 0
        for k in range(w.n + 1)
        for m in range(w.n + 1 - k)
    )
    check("coarse ring: l_(k+m) divides l_k * l_m", ok)

    # generator products associate: g_k g_m = C(k, m) g_{k+m}, with C zero
    # above the top, so compare C(k, m) C(k+m, q) with C(m, q) C(k, m+q)
    span = range(2 * w.n + 1)
    const = [[(kaw._raw_product(k, m) or (0,))[0] for m in span] for k in span]
    ok = all(
        const[k][m] * const[k + m][q] == const[m][q] * const[k][m + q]
        for k in range(w.n + 1)
        for m in range(w.n + 1)
        for q in range(w.n + 1)
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
    gammas = [(g, kaw.qstar(g, orb)) for g in map(kaw.gamma, range(w.n + 1))]
    ok = all(
        kaw.qstar(gk * gm, orb) == orb.multiply(qk, qm)
        for gk, qk in gammas
        for gm, qm in gammas
    )
    check("comparison map: multiplicative on generator pairs", ok)

    # k * u^top vanishes exactly when N divides k
    ks = sorted({*range(1, min(w.N, 60) + 1), w.N - 1, w.N, w.N + 1, 2 * w.N})
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

    check("sectors: rotation-number excess lies in {0,1}", excess_ok, residues)

    # one walk over the ordered nonzero pairs: the ideal, commutativity and
    # grading (see pair_scan)
    ideal, commutes, additive = pair_scan(cr)
    pairs = f"exhaustive over {len(nz) * (len(nz) + 1) // 2} nonzero pairs"
    check("twisted product: commutative on generators", commutes, pairs)

    # the unit, on the basis monomials u^m a_j with m <= d_j
    monomials = [cr.element({j: {m: 1}}) for j in nz for m in range(cr.euler(j)[1] + 1)]
    one = cr.one()
    check(
        "twisted product: sector-0 generator is the unit",
        all(cr.star(one, x) == x for x in monomials),
        f"exhaustive over {len(monomials)} basis monomials",
    )

    # associativity: the kernel is an ideal on nonzero pairs, and on pairs
    # with a zero sector by the lemma (see the module docstring)
    check("twisted product: associative (kernel relations span an ideal)", *ideal)
    ok, detail = zero_sector_lemma(cr)
    check(
        "twisted product: a sector fixing no coordinate kills every product",
        ok and complements,
        f"{detail} and residues mod ell/b" if ok else detail,
    )

    check("grading: additive on surviving generator products", additive, pairs)

    # the identity sector is the orbifold ring, on pairs of basis monomials
    ok = cr.euler(0) == (w.N, w.n + 1) and cr._shift_units(0) == 0
    powers = [(cr.u(a), orb.u(a)) for a in range(w.n + 2)]
    for x, x_orb in powers:
        for y, y_orb in powers:
            if cr.star(x, y).parts.get(0, {}) != orb.multiply(x_orb, y_orb).coeffs:
                ok = False
    check(
        "identity sector: agrees with the orbifold ring",
        ok,
        f"exhaustive over {len(powers) ** 2} pairs of basis monomials",
    )

    # sectors acting trivially on every coordinate are exactly the
    # multiples of ell/g, and they look like the identity sector
    global_sectors = [j for j in nz if not any(cr.rotations(j))]
    ok = global_sectors == list(range(0, ell, ell // w.g))
    for j in global_sectors:
        if cr.euler(j) != (w.N, w.n + 1) or cr._shift_units(j) != 0:
            ok = False
        if cr.generator(j) * cr.generator((ell - j) % ell) != cr.one():
            ok = False
    check(
        "global stabilizer: trivial-action sectors form the expected subgroup",
        ok,
        f"{len(global_sectors)} sector(s)" + (" (gerbe)" if w.g > 1 else ""),
    )

    return results
