"""Exact arithmetic helpers for weighted circle actions.

Everything is arbitrary precision: the product of even a modest weight
vector overflows machine words, so plain Python ints are the only safe
representation.  Rational values are ``fractions.Fraction``, which
normalises on construction, so equality is structural.
"""

from __future__ import annotations

import math
from typing import Iterable


def _require_positive(x, what: str) -> int:
    if not isinstance(x, int) or x < 1:
        raise ValueError(f"{what} must be a positive integer, got {x!r}")
    return x


def coprime_base(xs: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 over which every x factors.

    Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 1993):
    whenever a new number shares a factor d = gcd(x, q) with a base
    element q, both are split into d and their cofactors, which are fed
    back in.  Each split divides the product of the pending numbers and
    the base by d > 1, so the loop ends; nothing is ever factored into
    primes.  Every x is then a product of powers of base elements.

    >>> sorted(coprime_base((12, 18)))
    [2, 3]
    >>> sorted(coprime_base((6, 35, 1)))
    [6, 35]
    """
    base: list[int] = []
    todo = [x for x in xs if x > 1]
    while todo:
        x = todo.pop()
        for i, q in enumerate(base):
            d = math.gcd(x, q)
            if d > 1:
                base.pop(i)
                todo += [y for y in (d, q // d, x // d) if y > 1]
                break
        else:
            base.append(x)
    return base


def valuation(x: int, q: int) -> int:
    """Largest e with q^e dividing x, for x >= 1 and q >= 2.

    >>> valuation(72, 6), valuation(72, 2), valuation(5, 3)
    (2, 3, 0)
    """
    e = 0
    while x % q == 0:
        x //= q
        e += 1
    return e


class WeightVector:
    """A validated tuple of positive integer weights (b_0, ..., b_n).

    Carries the derived quantities used everywhere downstream: the
    dimension index ``n``, the product ``N``, the gcd ``g`` and the lcm
    ``ell`` of the weights.

    >>> w = WeightVector((1, 2, 2, 3, 3, 3))
    >>> w.n, w.N, w.g, w.ell
    (5, 108, 1, 6)
    """

    __slots__ = ("b", "n", "N", "g", "ell")

    def __init__(self, weights: Iterable[int]):
        b = tuple(weights)
        if not b:
            raise ValueError("a weight vector needs at least one entry")
        for x in b:
            _require_positive(x, "weight")
        self.b = b
        self.n = len(b) - 1
        self.N = math.prod(b)
        self.g = math.gcd(*b)
        self.ell = math.lcm(*b)

    def __len__(self):
        return len(self.b)

    def __iter__(self):
        return iter(self.b)

    def __getitem__(self, k):
        return self.b[k]

    def __eq__(self, other):
        if isinstance(other, WeightVector):
            return self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash(self.b)

    def __repr__(self):
        return "WeightVector(%s)" % ", ".join(map(str, self.b))

    def __str__(self):
        return "(%s)" % ",".join(map(str, self.b))


def as_weights(w) -> WeightVector:
    """Coerce a WeightVector or any iterable of ints to a WeightVector."""
    return w if isinstance(w, WeightVector) else WeightVector(w)
