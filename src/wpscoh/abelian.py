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
``tests/test_closed_form_oracle.py``.  No library path forms a tensor
or Tor product: the Kunneth groups have a closed form, and the tensor
and Tor rules they replaced are test oracles in ``tests/oracles.py``.

A caller that already holds the chain, as ``kunneth.product_groups``
does, builds the group with ``FgAbGroup._from_chain``, which trusts it
and skips validation and canonicalisation; the canonicalising
constructor is its test oracle.  A chain holds few distinct orders
(a Kunneth group at degree D has about D/2 copies of Z/g), so a group
is written from its runs (``FgAbGroup.runs``): each distinct order is
formatted once and its text repeated.

A ``GradedGroups`` listing has one form: two parallel lists, the
degrees as sorted integers in units of 1/ell and the nonzero group at
each.  It is rational exactly when its ``max_degree`` is a Fraction (the
Chen-Ruan listing); otherwise ell is 1 and the degrees are the ints.  A
writer formats each degree straight from its integer, ``items`` and
``to_json`` build the degrees (Fractions, in a rational listing) on each
call, and ``group`` turns the degree it is asked for into units.

The three rings' groups have one shape (Chen and Ruan, 2004): each
summand (s, c, d) adds Z in the degrees (s + 2 ell m) / ell for m < d,
then Z/c.  ``GradedGroups.sweep`` builds every such listing from its
change points, one group per point: the Chen-Ruan listing from its
nonzero sectors, the orbifold ring from the identity sector (0, N,
n + 1) and the coarse ring from (0, 1, n + 1).  The Kunneth listing,
which is no sum of such summands, hands in its two lists itself.
"""

from __future__ import annotations

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
    factors = sorted([d for d in orders if d > 1])
    if len(factors) < 2 or all(b % a == 0 for a, b in zip(factors, factors[1:])):
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
        self.torsion = _invariant_factors(orders) if orders else ()

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


ZERO = FgAbGroup()
Z = FgAbGroup(1)


class GradedGroups:
    """Degree-indexed abelian groups, complete up to a stated bound.

    Degrees absent from the listing but not exceeding ``max_degree`` are
    the zero group; degrees beyond the bound were never computed and
    asking for them is an error.  The listing holds two parallel lists:
    ``degrees``, sorted integers in units of 1/ell, and ``groups``, the
    nonzero group at each.  A caller reads them and does not change them.

    One rule decides the degree form (``rational``): a listing is rational
    exactly when its ``max_degree`` is a Fraction, and its degrees are
    then the Fractions units / ell; otherwise ell is 1 and the degrees are
    the ints themselves.

    >>> GradedGroups(Fraction(3), [0, 7], [Z, FgAbGroup(0, [3])], 3)
    GradedGroups(max_degree=3, {0: Z, 7/3: Z/3})
    """

    __slots__ = ("max_degree", "degrees", "groups", "ell")

    def __init__(self, max_degree, degrees: list, groups: list, ell: int = 1):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.max_degree, self.degrees, self.groups, self.ell = max_degree, degrees, groups, ell

    @classmethod
    def sweep(cls, max_degree, ell: int, summands) -> "GradedGroups":
        """The listing up to max_degree of a sum of summands (s, c, d), each
        Z in the degrees (s + 2 ell m) / ell for m < d and Z/c in those for
        m >= d.

        A summand's degrees lie in the class of s mod 2 ell, in units of
        1/ell, so each class is swept on its own.  In a class the group
        changes only at the change points s, where a Z starts, and
        s + 2 ell d, where that Z becomes Z/c.  One group is built per
        change point and shared by every degree up to the next, so the
        cost grows with the summands, not with max_degree.  Equal groups
        are one object, across the classes too, so a listing that renders
        each group object once renders each value once.  The degrees are
        sorted only when there is more than one class.

        >>> GradedGroups.sweep(7, 1, [(0, 2, 2)])
        GradedGroups(max_degree=7, {0: Z, 2: Z, 4: Z/2, 6: Z/2})
        >>> GradedGroups.sweep(Fraction(3), 2, [(0, 2, 1), (1, 1, 1)])
        GradedGroups(max_degree=3, {0: Z, 1/2: Z, 2: Z/2})
        """
        period = 2 * ell
        stop = max_degree.numerator * ell // max_degree.denominator + 1  # past the bound, in units
        classes: dict = {}  # per class mod period: (change point, free-rank step, torsion order)
        for s, c, d in summands:
            classes.setdefault(s % period, []).extend(((s, 1, 1), (s + period * d, -1, c)))
        degrees, groups, shared = [], [], {}
        for points in classes.values():
            points.sort()
            points.append((stop, 0, 1))  # the end of the last run, when it is below the bound
            free, orders = 0, []
            for (x, step, c), (end, _, _) in zip(points, points[1:]):
                if x >= stop:
                    break
                free += step
                if c > 1:
                    orders.append(c)
                if x < end and (free or orders):
                    group = FgAbGroup(free, orders)
                    group = shared.setdefault(group, group)
                    run = range(x, min(end, stop), period)
                    degrees += run
                    groups += [group] * len(run)
        if len(classes) > 1:
            order = sorted(range(len(degrees)), key=degrees.__getitem__)
            degrees = list(map(degrees.__getitem__, order))
            groups = list(map(groups.__getitem__, order))
        return cls(max_degree, degrees, groups, ell)

    @property
    def rational(self) -> bool:
        """Whether the degrees are Fractions: exactly when max_degree is one,
        that is, not an int."""
        return not isinstance(self.max_degree, int)

    def group(self, degree) -> FgAbGroup:
        if degree > self.max_degree:
            raise ValueError(f"degree {degree} exceeds the computed bound {self.max_degree}")
        units = degree * self.ell
        if isinstance(units, Fraction):
            if units.denominator != 1:
                return ZERO
            units = units.numerator
        degrees = self.degrees
        i = bisect_left(degrees, units)
        return self.groups[i] if i < len(degrees) and degrees[i] == units else ZERO

    def items(self) -> list:
        """Nonzero (degree, group) pairs, sorted by degree, as a new list."""
        if self.rational:
            return list(zip(map(Fraction, self.degrees, repeat(self.ell)), self.groups))
        return list(zip(self.degrees, self.groups))

    def to_json(self) -> list:
        """Each entry as {"degree", "group"}: a rational listing's degree as
        the string ``str(d)`` (``"2"``, ``"7/3"``), any other as the int."""
        form = str if self.rational else int
        return [{"degree": form(d), "group": g.to_json()} for d, g in self.items()]

    def __eq__(self, other):
        if isinstance(other, GradedGroups):
            return self.max_degree == other.max_degree and self.items() == other.items()
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"{d}: {g}" for d, g in self.items())
        return f"GradedGroups(max_degree={self.max_degree}, {{{body}}})"
