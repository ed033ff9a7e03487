"""Singular cohomology ring of the coarse space of a weighted projective
quotient.

Additively a copy of Z in each even degree 0, 2, ..., 2n, the
change-point sweep (``abelian.GradedGroups.sweep``) of the one summand
(0, 1, n + 1), but the cup product is twisted: with one generator per
even degree, products carry integer structure constants built from the
subset-lcm table

    ell_k = lcm{ b_{i_0}...b_{i_k} / gcd(b_{i_0},...,b_{i_k}) }

over all (k+1)-element subsets of the weights.  The comparison map into
the orbifold ring sends the degree-2k generator to ell_k * u^k.

The table has a closed form.  For a prime p, the p-part of
prod(S) / gcd(S) is the sum of the v_p(b_i) over S minus their minimum,
that is, the sum of the k largest of them; it is largest when S holds
the k+1 weights of largest v_p.  So v_p(ell_k) is the sum of the k
largest v_p(b_i).  ``subset_lcm_table`` applies this over a coprime base
of the weights (``arith.coprime_base``) in place of the primes, so it
neither factors nor walks the 2^(n+1) subsets.  The subset enumeration
itself is kept as the test oracle in ``tests/test_closed_form_oracle.py``.

In the shape of ``algebra``: a Z[u]-module on the basis g_0 = 1, g_1,
..., g_n with g_k in degree 2k, on which u acts as zero (elements only
use the u-exponent 0), with no annihilator and structure constants
g_k g_m = (ell_k ell_m / ell_{k+m}) g_{k+m}, zero above the top.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import GradedGroups
from .algebra import Algebra, Element
from .arith import as_weights, coprime_base, valuation
from .orbifold import OrbifoldElement, OrbifoldRing


def subset_lcm_table(b) -> tuple[int, ...]:
    """The table ell_0 = 1, ell_1, ..., ell_n.

    Over each element q of a coprime base of the weights, ell_k carries
    q to the sum of the k largest exponents v_q(b_i).

    >>> subset_lcm_table((1, 2, 2, 3, 3, 3))
    (1, 6, 36, 108, 108, 108)
    """
    b = as_weights(b).b
    table = [1] * len(b)
    for q in coprime_base(b):
        exponents = sorted((valuation(x, q) for x in b), reverse=True)
        e = 0
        for k in range(1, len(b)):
            e += exponents[k - 1]
            table[k] *= q**e
    return tuple(table)


class KawasakiElement(Element):
    """Integer combination of the per-degree generators (index 0 = unit);
    ``coeffs`` is {generator index: coefficient}."""

    __slots__ = ()
    __pow__ = Element.__pow__  # its own name, for perfbench/tracing.py

    @property
    def coeffs(self) -> dict:
        return {k: p[0] for k, p in self.parts.items()}


class KawasakiRing(Algebra):
    """The twisted integral cohomology ring of the underlying space.

    >>> R = KawasakiRing((1, 2, 2, 3, 3, 3))
    >>> R.ell(1), R.ell(2)
    (6, 36)
    >>> print(R.gamma(1) * R.gamma(1))
    g2
    """

    __slots__ = ("ell_table",)
    _element_class = KawasakiElement

    def __init__(self, weights):
        w = as_weights(weights)
        self.weights = w
        self.ell_table = subset_lcm_table(w)
        # cheap cross-checks of known identities
        if self.ell_table[0] != 1:
            raise ArithmeticError(f"l_0 = {self.ell_table[0]}, not 1, for {w}")
        if w.n and self.ell_table[1] != w.ell:
            raise ArithmeticError(f"l_1 = {self.ell_table[1]}, not the lcm {w.ell}, for {w}")
        if self.ell_table[w.n] != w.N // w.g:
            raise ArithmeticError(f"l_n = {self.ell_table[w.n]}, not N/g = {w.N // w.g}, for {w}")

    def ell(self, k: int) -> int:
        self._check_basis(k)
        return self.ell_table[k]

    def _raw_product(self, k, m):
        if k + m > self.weights.n:
            return None
        coeff, rem = divmod(self.ell_table[k] * self.ell_table[m], self.ell_table[k + m])
        if rem:  # the subset-lcm table always divides here; a remainder is a bug
            raise ArithmeticError(f"non-integral structure constant at ({k}, {m})")
        return coeff, 0, k + m

    def _shift(self, k):
        return 2 * k

    def _variable(self, k, m, latex):
        if k == 0:
            return ""
        return (r"\gamma_{%d}" if latex else "g%d") % k

    def _check_basis(self, k):
        if not 0 <= k <= self.weights.n:
            raise ValueError(f"generator index {k} out of range 0..{self.weights.n}")

    # -- elements ----------------------------------------------------------

    def element(self, coeffs: dict) -> KawasakiElement:
        """Build an element from {generator index: coefficient}."""
        return self._from_parts({k: {0: c} for k, c in coeffs.items()})

    def gamma(self, k: int) -> KawasakiElement:
        """The generator of degree 2k (index 0 is the unit)."""
        return self.element({k: 1})

    # -- graded structure ----------------------------------------------------

    def groups(self, max_degree: int) -> GradedGroups:
        """Z in each even degree 2k with k <= n, zero otherwise: the
        change-point sweep of the one summand (0, 1, n + 1)."""
        return GradedGroups.sweep(max_degree, 1, [(0, 1, self.weights.n + 1)])

    # -- comparison map into the orbifold ring --------------------------------

    def qstar(self, x: "KawasakiElement", target: OrbifoldRing | None = None) -> OrbifoldElement:
        """Image in the orbifold ring: the degree-2k generator maps to
        ell_k * u^k, extended additively.

        >>> R = KawasakiRing((1, 2))
        >>> print(R.qstar(R.gamma(1)))
        2u
        """
        if target is None:
            target = OrbifoldRing(self.weights)
        elif target.weights != self.weights:
            raise ValueError("orbifold ring built from different weights")
        self._check_element(x)
        return target.element({k: c * self.ell_table[k] for k, c in x.coeffs.items()})

    # -- presentation ----------------------------------------------------------

    def g1_power_spans(self) -> tuple[bool, ...]:
        """Whether the k-th power of the degree-2 generator spans degree 2k.

        Entry k (0 <= k <= n) is True iff ell_1^k == ell_k, i.e. the
        power is a unit multiple of the degree-2k generator.
        """
        return tuple(
            self.ell_table[1] ** k == self.ell_table[k] if self.weights.n else k == 0
            for k in range(self.weights.n + 1)
        )

    def presentation(self) -> "KawasakiPresentation":
        """Generators g1..gn with their degrees, and the product g_k g_m
        for every k <= m, each the monomial
        (ell_k ell_m / ell_{k+m}) g_{k+m} read off ``_raw_product``, or
        zero above the top degree."""
        n = self.weights.n
        gens = tuple((f"g{k}", 2 * k) for k in range(1, n + 1))
        rels = []
        for k in range(1, n + 1):
            for m in range(k, n + 1):
                constant = self._raw_product(k, m)
                parts = {} if constant is None else {constant[2]: {0: constant[0]}}
                rels.append((k, m, KawasakiElement(self, parts)))
        return KawasakiPresentation(self.ell_table, gens, tuple(rels), self.g1_power_spans())

    def symbol_element(self, name: str) -> "KawasakiElement":
        if name.startswith("g"):
            k = int(name[1:])
            if 0 <= k <= self.weights.n:
                return self.gamma(k)
            raise ValueError(
                f"{name} out of range for the coarse-space ring of {self.weights}: "
                f"generators are g0..g{self.weights.n}"
            )
        raise ValueError(
            f"unknown symbol {name!r} for the coarse-space ring of {self.weights}: "
            "use g0..g%d (u and sector generators live in the other rings)" % self.weights.n
        )


@dataclass(frozen=True)
class KawasakiPresentation:
    """Generators, degrees and all pairwise product relations."""

    ell: tuple[int, ...]
    generators: tuple[tuple[str, int], ...]
    relations: tuple[tuple[int, int, "KawasakiElement"], ...]
    g1_power_spans: tuple[bool, ...]
