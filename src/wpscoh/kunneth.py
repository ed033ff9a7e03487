"""Degree-wise integral cohomology of a product of two weighted
projective orbifolds.

For finitely generated torsion groups the short exact sequence splits,
so the degree-d group is the direct sum of the tensor terms at i+j = d
and the Tor terms at i+j = d+1.  Both factors are torsion-free below
the top dimension but carry Z/N in every even degree above it, so the
Tor terms produce torsion in odd degrees of the product, something no
single weighted projective orbifold has.

Each factor group is Z (even degree at most 2n), Z/N (even degree above
2n) or 0, so each degree has a closed form.  With g = gcd(Na, Nb) and
L = lcm(Na, Nb), count the pairs of even degrees (i, j):

* r tensor pairs with i <= 2na and j <= 2nb, each giving Z;
* s tensor pairs with only i <= 2na, each giving Z/Nb;
* t tensor pairs with only j <= 2nb, each giving Z/Na;
* v tensor pairs at i+j = d, plus Tor pairs at i+j = d+1, above both
  tops, each giving Z/g.

Since Z/Na + Z/Nb = Z/g + Z/L, with m = min(s, t) the invariant factors
are g^(v+m), then Na^(t-m) or Nb^(s-m), then L^m.  At most one of the
middle runs is non-empty and g | Na, Nb | L, so once every order 1 is
dropped this is already the canonical chain: each degree's group is
built from it by ``FgAbGroup._from_chain``, with no canonicalisation.
The summand-by-summand construction, from the tensor and Tor rules of
``tests/oracles.py``, is kept as the test oracle in
``tests/test_closed_form_oracle.py``, and the canonicalising
constructor as the oracle of each chain.

Odd degrees hold only the v Tor terms, v >= 1 exactly when
d >= 2(na + nb) + 3, so the first odd degree with a nonzero group is
2(na + nb) + 3 when g > 1 and there is none when g = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .abelian import FgAbGroup, GradedGroups
from .arith import as_weights


@dataclass(frozen=True)
class ProductGroups:
    """Degree-wise groups of a product of two orbifold rings."""

    groups: GradedGroups


def _count(lo: int, hi: int) -> int:
    """How many integers p satisfy lo <= p <= hi."""
    return max(0, hi - lo + 1)


def product_groups(a, b, max_degree: int) -> ProductGroups:
    """Cohomology groups of the product orbifold up to max_degree.

    >>> pg = product_groups((1, 1), (1, 1), 4)
    >>> print(pg.groups.group(2))
    Z^2
    >>> print(pg.groups.group(3))
    0
    >>> print(product_groups((1, 2), (1, 2), 7).groups.group(7))
    Z/2
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    wa, wb = as_weights(a), as_weights(b)
    na, nb = wa.n, wb.n
    g, lcm = math.gcd(wa.N, wb.N), math.lcm(wa.N, wb.N)
    # a run of the order 1 is the trivial group: such orders are left out
    gs, las, lbs, lcms = ((x,) if x > 1 else () for x in (g, wa.N, wb.N, lcm))
    degrees, groups = [], []
    for d in range(max_degree + 1):
        # pairs (2p, 2q) with p + q = h; the factors are torsion for p > na, q > nb
        h = (d + 1) // 2
        if d % 2:  # only Tor terms, nonzero when both factors are torsion
            r = s = t = 0
        else:
            r = _count(max(0, h - nb), min(h, na))
            s = _count(0, min(na, h - nb - 1))
            t = _count(max(na + 1, h - nb), h)
        v = _count(na + 1, h - nb - 1)
        m = min(s, t)
        chain = gs * (v + m) + las * (t - m) + lbs * (s - m) + lcms * m
        if r or chain:
            degrees.append(d)
            groups.append(FgAbGroup._from_chain(r, chain))
    return ProductGroups(GradedGroups(max_degree, degrees, groups))


def odd_torsion_witness(a, b, max_degree: int):
    """Smallest odd degree <= max_degree with a nonzero group, or None.

    >>> odd_torsion_witness((1, 2), (1, 2), 9)
    7
    >>> odd_torsion_witness((1, 1), (1, 1), 9) is None
    True
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    wa, wb = as_weights(a), as_weights(b)
    d = 2 * (wa.n + wb.n) + 3
    return d if d <= max_degree and math.gcd(wa.N, wb.N) > 1 else None
