"""Definitional helpers that the tests compare the library against.

No library path calls these.  Each is the direct form of something the
library computes another way:

- ``tensor`` and ``tor``, the tensor and Tor products of two groups,
  extended bilinearly over direct sums.  With ``group_at_degree`` they
  give ``kunneth_summands``, every tensor and Tor summand of one degree
  of a product, the oracle of the closed form in
  ``kunneth.product_groups``.
- ``cyclic``, the group Z/d.
- ``sector_groups``, the Chen-Ruan groups summed degree by degree from
  sector records, the oracle of ``CrRing.graded_dimensions``.
- ``rotation_number``, the rotation of a coordinate as a ``Fraction``,
  the oracle of the integer numerators of ``CrRing.rotations``.
- ``group_at_degree``, the orbifold ring's group in one degree, the
  oracle of ``OrbifoldRing.groups``.
- ``unparse``, the printer that inverts ``expr.parse``.
"""

import math
from fractions import Fraction

from wpscoh.abelian import FgAbGroup, Z, ZERO, direct_sum_all
from wpscoh.expr import Add, Lit, Mul, Neg, Pow, Sub, Sym
from wpscoh.orbifold import OrbifoldRing


# -- groups --------------------------------------------------------------------


def cyclic(d: int) -> FgAbGroup:
    """The cyclic group Z/d (d = 0 gives Z, d = 1 gives 0)."""
    return FgAbGroup(0, [d])


def tensor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Tensor product over Z: Z tensor Z/d = Z/d and Z/x tensor Z/y =
    Z/gcd(x, y), extended bilinearly over direct sums."""
    orders = list(b.torsion) * a.free_rank
    orders += list(a.torsion) * b.free_rank
    orders += [math.gcd(x, y) for x in a.torsion for y in b.torsion]
    return FgAbGroup(a.free_rank * b.free_rank, orders)


def tor(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    """Torsion product: Tor(Z, -) = 0 and Tor(Z/x, Z/y) = Z/gcd(x, y)."""
    return FgAbGroup(0, [math.gcd(x, y) for x in a.torsion for y in b.torsion])


def group_at_degree(ring, d: int) -> FgAbGroup:
    """The group of an ``OrbifoldRing`` in degree d >= 0: Z in even
    degrees up to 2n, Z/N in even degrees beyond, zero in odd degrees."""
    if d % 2:
        return ZERO
    return Z if d // 2 <= ring.weights.n else cyclic(ring.N)


def kunneth_summands(a, b, degree: int) -> list:
    """The tensor summands at i + j = degree and the Tor summands at
    i + j = degree + 1 of the orbifold groups of two weight vectors."""
    ra, rb = OrbifoldRing(a), OrbifoldRing(b)
    summands = [tensor(group_at_degree(ra, i), group_at_degree(rb, degree - i))
                for i in range(degree + 1)]
    return summands + [tor(group_at_degree(ra, i), group_at_degree(rb, degree + 1 - i))
                       for i in range(degree + 2)]


def sector_groups(sectors, max_degree) -> list:
    """Sorted (degree, group) pairs up to max_degree from sector records:
    each degree of each sector in Fraction arithmetic, Z while m < d and
    Z/c after, one cyclic group each, then one direct sum per degree."""
    buckets: dict = {}
    for s in sectors:
        m = 0
        while s.degree_shift + 2 * m <= max_degree:
            group = Z if m < s.d else cyclic(s.c)
            if group != ZERO:
                buckets.setdefault(s.degree_shift + 2 * m, []).append(group)
            m += 1
    return sorted((deg, direct_sum_all(gs)) for deg, gs in buckets.items())


# -- rotation numbers ------------------------------------------------------------


def rotation_number(weight: int, m: int, ell: int) -> Fraction:
    """Fractional part of weight * m / ell, in [0, 1): the rotation that
    the m-th power of a primitive ell-th root of unity performs on a
    coordinate carrying the given weight."""
    return Fraction(weight * m % ell, ell)


# -- the expression printer ---------------------------------------------------------

# binding strength of each node; children below the required strength
# get parenthesized so the round trip preserves the tree
_LEVEL = {Add: 1, Sub: 1, Mul: 2, Neg: 3, Pow: 4, Lit: 5, Sym: 5}

# infix text of each binary node: its left operand must bind at least as
# tightly as the node itself, its right operand more tightly
_INFIX = {Add: " + ", Sub: " - ", Mul: "*"}


def _wrap(node, minimum):
    text = unparse(node)
    return f"({text})" if _LEVEL[type(node)] < minimum else text


def unparse(node) -> str:
    """Render an AST so that parse(unparse(t)) == t."""
    # a chain such as x + y - z*w is a left spine: walk it in a loop
    spine = []
    while type(node) in _INFIX:
        spine.append(node)
        node = node.left
        if _LEVEL[type(node)] < _LEVEL[type(spine[-1])]:
            break
    if spine:
        text = _wrap(node, _LEVEL[type(spine[-1])])
        for op in reversed(spine):
            text += _INFIX[type(op)] + _wrap(op.right, _LEVEL[type(op)] + 1)
        return text
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, 3)
    if isinstance(node, Pow):
        return f"{_wrap(node.base, 5)}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")
