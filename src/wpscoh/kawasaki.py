"""Singular cohomology ring of the coarse space of a weighted projective
quotient.

Additively a copy of Z in each even degree 0, 2, ..., 2n, but the cup
product is twisted: with one generator per even degree, products carry
integer structure constants built from the subset-lcm table

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import GradedGroups, Z
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


class KawasakiRing:
    """The twisted integral cohomology ring of the underlying space.

    >>> R = KawasakiRing((1, 2, 2, 3, 3, 3))
    >>> R.ell(1), R.ell(2)
    (6, 36)
    >>> print(R.gamma(1) * R.gamma(1))
    g2
    """

    __slots__ = ("weights", "ell_table")

    def __init__(self, weights):
        w = as_weights(weights)
        self.weights = w
        self.ell_table = subset_lcm_table(w.b)
        # cheap cross-checks of known identities
        if self.ell_table[0] != 1:
            raise ArithmeticError(f"l_0 = {self.ell_table[0]}, not 1, for {w}")
        if w.n and self.ell_table[1] != w.ell:
            raise ArithmeticError(f"l_1 = {self.ell_table[1]}, not the lcm {w.ell}, for {w}")
        if self.ell_table[w.n] != w.N // w.g:
            raise ArithmeticError(f"l_n = {self.ell_table[w.n]}, not N/g = {w.N // w.g}, for {w}")

    def ell(self, k: int) -> int:
        if not 0 <= k <= self.weights.n:
            raise ValueError(f"index {k} out of range 0..{self.weights.n}")
        return self.ell_table[k]

    # -- elements ----------------------------------------------------------

    def element(self, coeffs: dict) -> "KawasakiElement":
        out = {}
        for k, c in coeffs.items():
            if not 0 <= k <= self.weights.n:
                raise ValueError(f"generator index {k} out of range 0..{self.weights.n}")
            if c:
                out[k] = out.get(k, 0) + c
        return KawasakiElement(self, {k: c for k, c in out.items() if c})

    def gamma(self, k: int) -> "KawasakiElement":
        """The generator of degree 2k (index 0 is the unit)."""
        return self.element({k: 1})

    def zero(self) -> "KawasakiElement":
        return KawasakiElement(self, {})

    def one(self) -> "KawasakiElement":
        return self.element({0: 1})

    def from_int(self, c: int) -> "KawasakiElement":
        return self.element({0: c})

    def gamma_product(self, k: int, m: int) -> "KawasakiElement":
        """Product of two generators: (ell_k ell_m / ell_{k+m}) times the
        degree-2(k+m) generator, or zero above the top degree."""
        n = self.weights.n
        if not (0 <= k <= n and 0 <= m <= n):
            raise ValueError(f"generator indices must lie in 0..{n}")
        if k + m > n:
            return self.zero()
        num = self.ell_table[k] * self.ell_table[m]
        coeff, rem = divmod(num, self.ell_table[k + m])
        if rem:  # the subset-lcm table always divides here; a remainder is a bug
            raise ArithmeticError(f"non-integral structure constant at ({k}, {m})")
        return self.element({k + m: coeff})

    def multiply(self, x: "KawasakiElement", y: "KawasakiElement") -> "KawasakiElement":
        self._check_element(x)
        self._check_element(y)
        out = self.zero()
        for k, c1 in x.coeffs.items():
            for m, c2 in y.coeffs.items():
                out = out + self.gamma_product(k, m) * (c1 * c2)
        return out

    def _check_element(self, x):
        if not isinstance(x, KawasakiElement) or x.ring.weights != self.weights:
            raise ValueError("element does not belong to this ring")

    # -- graded structure ----------------------------------------------------

    def groups(self, max_degree: int) -> GradedGroups:
        """Z in each even degree 2k with k <= n, zero otherwise."""
        top = min(max_degree, 2 * self.weights.n)
        return GradedGroups(max_degree, {d: Z for d in range(0, top + 1, 2)})

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
        n = self.weights.n
        gens = tuple((f"g{k}", 2 * k) for k in range(1, n + 1))
        rels = tuple(
            (k, m, self.gamma_product(k, m))
            for k in range(1, n + 1)
            for m in range(k, n + 1)
        )
        return KawasakiPresentation(self.ell_table, gens, rels, self.g1_power_spans())

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
            "use g1..g%d (u and sector generators live in the other rings)" % self.weights.n
        )

    def __eq__(self, other):
        if isinstance(other, KawasakiRing):
            return self.weights == other.weights
        return NotImplemented

    def __hash__(self):
        return hash(("kawasaki", self.weights))

    def __repr__(self):
        return f"KawasakiRing({self.weights!r})"


@dataclass(frozen=True)
class KawasakiPresentation:
    """Generators, degrees and all pairwise product relations."""

    ell: tuple[int, ...]
    generators: tuple[tuple[str, int], ...]
    relations: tuple[tuple[int, int, "KawasakiElement"], ...]
    g1_power_spans: tuple[bool, ...]


class KawasakiElement:
    """Integer combination of the per-degree generators (index 0 = unit)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: KawasakiRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """2k when supported on a single generator index k, else None."""
        if self.is_zero:
            raise ValueError("the zero element has no degree")
        degs = {2 * k for k in self.coeffs}
        return degs.pop() if len(degs) == 1 else None

    def __add__(self, other):
        self.ring._check_element(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return self.ring.element(out)

    def __neg__(self):
        return self.ring.element({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.ring.element({k: other * c for k, c in self.coeffs.items()})
        return self.ring.multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        """Square-and-multiply: about 2 log2(k) products."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponents must be non-negative integers")
        out, base = self.ring.one(), self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, KawasakiElement):
            return self.ring.weights == other.ring.weights and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.weights, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return f"<{self} in {self.ring!r}>"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                body = str(abs(c))
            else:
                body = f"g{k}" if abs(c) == 1 else f"{abs(c)}g{k}"
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0]
        first = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([first] + parts[1:])
