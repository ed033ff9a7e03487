"""Finitely generated abelian groups in invariant-factor form.

A group is stored as a free rank together with torsion coefficients
d_1 | d_2 | ... | d_r (each >= 2).  That form is unique, so equality of
groups is equality of fields.

Canonicalisation needs no prime factorisation and no matrix normal
forms.  Orders that already form a divisibility chain are kept as they
are.  Otherwise the orders are split over a coprime base q_1, ..., q_m
(``arith.coprime_base``): by the Chinese remainder theorem each Z/d is
the sum of the Z/q^(v_q(d)), and the i-th largest invariant factor is
the product over q of q raised to the i-th largest exponent v_q(d).
``direct_sum_all`` pools the summands and canonicalises once.  The
older pairwise gcd/lcm absorption, Z/a + Z/b = Z/gcd(a,b) + Z/lcm(a,b)
repeated to a fixed point, is kept as the test oracle in
``tests/test_closed_form_oracle.py``.

A caller that already holds the chain, as ``kunneth.product_groups``
does, builds the group with ``FgAbGroup._from_chain``, which trusts it
and skips validation and canonicalisation; the canonicalising
constructor is its test oracle.  A chain holds few distinct orders
(a Kunneth group at degree D has about D/2 copies of Z/g), so a group
is written from its runs (``FgAbGroup.runs``): each distinct order is
formatted once and its text repeated.

A ``GradedGroups`` listing holds its degrees as given (ints, or
Fractions), or, for the Chen-Ruan grading, as integers in units of
1/ell (``GradedGroups.in_units``), which a writer formats straight from
the integer.  Such a listing builds its ``Fraction`` degrees only when
``items`` or ``to_json`` is called, and ``group`` turns the degree it
is asked for into units.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import repeat

from .arith import coprime_base, valuation


def _invariant_factors(orders) -> tuple[int, ...]:
    """Canonical divisibility chain for a multiset of cyclic orders.

    >>> _invariant_factors([2, 3])
    (6,)
    >>> _invariant_factors([30, 4])
    (2, 60)
    >>> _invariant_factors([])
    ()
    """
    factors = sorted(d for d in orders if d > 1)
    if all(b % a == 0 for a, b in zip(factors, factors[1:])):
        return tuple(factors)
    counts = Counter(factors)
    chain: list[int] = []  # largest invariant factor first
    for q in coprime_base(counts):
        exponents = []
        for d, mult in counts.items():
            e = valuation(d, q)
            if e:
                exponents += [e] * mult
        exponents.sort(reverse=True)
        chain += [1] * (len(exponents) - len(chain))
        for i, e in enumerate(exponents):
            chain[i] *= q**e
    return tuple(reversed(chain))


class FgAbGroup:
    """A finitely generated abelian group Z^r + Z/d_1 + ... + Z/d_k.

    Construct from a free rank and any list of cyclic orders; the orders
    are canonicalised to the invariant-factor chain.  An order of 0 is
    accepted as another free summand, 1 as the trivial summand.

    >>> FgAbGroup(0, [2, 3])
    FgAbGroup(0, (6,))
    >>> FgAbGroup(1, [2, 4])
    FgAbGroup(1, (2, 4))
    >>> print(FgAbGroup(0, [0, 1, 12, 18]))
    Z + Z/6 + Z/36
    >>> FgAbGroup(0, []).is_zero
    True
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int = 0, torsion=()):
        if not isinstance(free_rank, int) or free_rank < 0:
            raise ValueError(f"free rank must be a non-negative integer, got {free_rank!r}")
        orders = []
        for d in torsion:
            if not isinstance(d, int) or d < 0:
                raise ValueError(f"cyclic orders must be non-negative integers, got {d!r}")
            if d == 0:
                free_rank += 1
            else:
                orders.append(d)
        self.free_rank = free_rank
        self.torsion = _invariant_factors(orders)

    @classmethod
    def _from_chain(cls, free_rank: int, chain: tuple) -> "FgAbGroup":
        """The group Z^free_rank + Z/d_1 + ... + Z/d_k for a chain the
        caller knows to be canonical: a tuple d_1 | d_2 | ... | d_k with
        every d_i >= 2.  Nothing is checked or reordered.

        >>> FgAbGroup._from_chain(1, (2, 2, 6)) == FgAbGroup(1, [6, 2, 2])
        True
        """
        group = object.__new__(cls)
        group.free_rank = free_rank
        group.torsion = chain
        return group

    def runs(self) -> list:
        """(order, multiplicity) for each distinct torsion order, smallest
        first: the chain is sorted, so equal orders are adjacent.

        >>> FgAbGroup(0, [2, 2, 6, 6, 6]).runs()
        [(2, 2), (6, 3)]
        """
        chain, out, i = self.torsion, [], 0
        while i < len(chain):
            d = chain[i]
            j = bisect_right(chain, d, i)
            out.append((d, j - i))
            i = j
        return out

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def tensor(self, other: "FgAbGroup") -> "FgAbGroup":
        """Tensor product over Z.

        Z tensor Z/a = Z/a and Z/a tensor Z/b = Z/gcd(a,b), extended
        bilinearly over direct sums.

        >>> Z = FgAbGroup(1)
        >>> print(Z.tensor(FgAbGroup(0, [4])))
        Z/4
        >>> print(FgAbGroup(0, [2]).tensor(FgAbGroup(0, [3])))
        0
        >>> print(FgAbGroup(1, [2]).tensor(FgAbGroup(1, [2])))
        Z + Z/2 + Z/2 + Z/2
        """
        orders = list(other.torsion) * self.free_rank
        orders += list(self.torsion) * other.free_rank
        orders += [math.gcd(a, b) for a in self.torsion for b in other.torsion]
        return FgAbGroup(self.free_rank * other.free_rank, orders)

    def tor(self, other: "FgAbGroup") -> "FgAbGroup":
        """Torsion product: Tor(Z, -) = 0, Tor(Z/a, Z/b) = Z/gcd(a,b).

        >>> print(FgAbGroup(1).tor(FgAbGroup(0, [12])))
        0
        >>> print(FgAbGroup(0, [4]).tor(FgAbGroup(0, [6])))
        Z/2
        """
        return FgAbGroup(0, [math.gcd(a, b) for a in self.torsion for b in other.torsion])

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        """Direct sum, re-canonicalised.

        >>> print(FgAbGroup(0, [2]).direct_sum(FgAbGroup(0, [3])))
        Z/6
        """
        return FgAbGroup(self.free_rank + other.free_rank, self.torsion + other.torsion)

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __eq__(self, other):
        if isinstance(other, FgAbGroup):
            return self.free_rank == other.free_rank and self.torsion == other.torsion
        return NotImplemented

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        return f"FgAbGroup({self.free_rank}, {self.torsion})"

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(" + ".join([f"Z/{d}"] * k) for d, k in self.runs())
        return " + ".join(parts) if parts else "0"


def direct_sum_all(groups) -> FgAbGroup:
    """Direct sum of any number of groups (empty sum is the zero group)."""
    free_rank, orders = 0, []
    for g in groups:
        free_rank += g.free_rank
        orders += g.torsion
    return FgAbGroup(free_rank, orders)


def cyclic(d: int) -> FgAbGroup:
    """The cyclic group Z/d (d = 0 gives Z, d = 1 gives 0)."""
    return FgAbGroup(0, [d])


ZERO = FgAbGroup()
Z = FgAbGroup(1)


class GradedGroups:
    """Degree-indexed abelian groups, complete up to a stated bound.

    Degrees absent from the listing but not exceeding ``max_degree`` are
    the zero group; degrees beyond the bound were never computed and
    asking for them is an error.  groups is a dict {degree: group},
    whose zero groups are dropped and whose degrees are sorted here, or
    (degree, group) pairs that are already sorted by degree and nonzero,
    held as given.  Degrees are ints, or Fractions.

    ``in_units`` builds the Chen-Ruan listing: its degrees are integers
    in units of 1/ell, held with ell and not as Fractions.  Either way
    the listing holds two parallel columns, ``columns()``: the degrees
    (as given, or in units when ``ell`` is set) and the groups.
    ``items``, ``group`` and ``to_json`` take and give degrees as ints
    or Fractions, so a units listing builds its Fractions on the first
    call of ``items`` and keeps them.
    """

    __slots__ = ("max_degree", "ell", "_degrees", "_groups", "_pairs")

    def __init__(self, max_degree, groups=()):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.max_degree = max_degree
        self.ell = None
        if isinstance(groups, dict):
            groups = [(d, groups[d]) for d in sorted(groups) if not groups[d].is_zero]
        self._pairs = list(groups)
        self._degrees = [d for d, _ in self._pairs]
        self._groups = [g for _, g in self._pairs]

    @classmethod
    def in_units(cls, max_degree, ell: int, units: list, groups: list) -> "GradedGroups":
        """The listing with degree units[i] / ell holding groups[i]; units
        are sorted ints and the groups nonzero, held as given.

        >>> GradedGroups.in_units(Fraction(3), 3, [0, 7], [Z, cyclic(3)])
        GradedGroups(max_degree=3, {0: Z, 7/3: Z/3})
        """
        listing = cls(max_degree)
        listing.ell, listing._degrees, listing._groups = ell, units, groups
        listing._pairs = None
        return listing

    def columns(self) -> tuple:
        """(degrees, groups), the held parallel lists of the nonzero
        entries sorted by degree; the degrees are in units of 1/ell when
        ``ell`` is set.  A caller reads them and does not change them."""
        return self._degrees, self._groups

    def group(self, degree) -> FgAbGroup:
        if degree > self.max_degree:
            raise ValueError(f"degree {degree} exceeds the computed bound {self.max_degree}")
        if self.ell is not None:
            degree = Fraction(degree) * self.ell
            if degree.denominator != 1:
                return ZERO
            degree = degree.numerator
        degrees = self._degrees
        i = bisect_left(degrees, degree)
        return self._groups[i] if i < len(degrees) and degrees[i] == degree else ZERO

    def items(self) -> list:
        """Nonzero (degree, group) pairs, sorted by degree: the held
        list itself, which a caller reads and does not change."""
        if self._pairs is None:
            degrees = map(Fraction, self._degrees, repeat(self.ell))
            self._pairs = list(zip(degrees, self._groups))
        return self._pairs

    def to_json(self) -> list:
        return [{"degree": degree_json(d), "group": g.to_json()} for d, g in self.items()]

    def __eq__(self, other):
        if isinstance(other, GradedGroups):
            return self.max_degree == other.max_degree and self.items() == other.items()
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"{d}: {g}" for d, g in self.items())
        return f"GradedGroups(max_degree={self.max_degree}, {{{body}}})"


def degree_json(d):
    """The JSON form of a listing's degree: a Fraction as the string
    ``str(d)`` (``"2"``, ``"7/3"``), an int as the int.

    >>> degree_json(Fraction(7, 3)), degree_json(Fraction(2)), degree_json(2)
    ('7/3', '2', 2)
    """
    return str(d) if isinstance(d, Fraction) else d
