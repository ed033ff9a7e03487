"""The integral cohomology ring of a weighted projective orbifold.

For weights (b_0, ..., b_n) this is the quotient Z[u]/<N u^{n+1}> with
N = b_0 ... b_n and deg(u) = 2: a single degree-2 generator whose
(n+1)-st power is killed only after multiplication by N, leaving Z/N in
every even degree above 2n.

In the shape of ``algebra``: a Z[u]-module on the one basis element 1,
in degree 0, with annihilator N u^{n+1} and structure constant 1 * 1 = 1.
"""

from __future__ import annotations

from .abelian import FgAbGroup, GradedGroups, ZERO, Z, cyclic
from .algebra import Algebra, Element, u_power
from .arith import as_weights


class OrbifoldElement(Element):
    """An integer polynomial in u, reduced modulo N u^{n+1}.

    Coefficients at exponents >= n+1 live in [0, N); lower ones are
    arbitrary integers.  ``coeffs`` is {exponent: coefficient}.
    """

    __slots__ = ()
    __pow__ = Element.__pow__  # its own name, for perfbench/tracing.py

    @property
    def coeffs(self) -> dict:
        return self.parts.get(0, {})


class OrbifoldRing(Algebra):
    """Z[u]/<N u^{n+1}> for a weight vector with product N.

    >>> R = OrbifoldRing((1, 2))
    >>> R.N, R.top
    (2, 2)
    >>> print(R.u() * R.u() * 4)
    0
    >>> print(R.element({2: 3}))
    u^2
    """

    __slots__ = ("N", "top")
    _element_class = OrbifoldElement
    _highest_first = True

    def __init__(self, weights):
        self.weights = as_weights(weights)
        self.N = self.weights.N
        self.top = self.weights.n + 1

    def _raw_product(self, i, j):
        return (1, 0, 0)

    def _annihilator(self, j):
        return (self.N, self.top)

    def _variable(self, j, m, latex):
        return u_power(m, latex)

    # -- element construction -------------------------------------------

    def element(self, coeffs: dict) -> OrbifoldElement:
        """Build an element from {exponent: coefficient}: a raw integer
        polynomial in u reduced modulo N u^{n+1}.

        Coefficients at exponents >= n+1 land in [0, N); lower ones are
        untouched.

        >>> OrbifoldRing((1, 2)).element({2: 4, 1: 3})
        <3u in Z[u]/<2u^2>>
        """
        return self._from_parts({0: coeffs})

    def u(self, power: int = 1, coeff: int = 1) -> OrbifoldElement:
        return self.element({power: coeff})

    multiply = Algebra.multiply  # its own name, for perfbench/tracing.py

    # -- graded structure ------------------------------------------------

    def group_at_degree(self, d: int) -> FgAbGroup:
        """The cohomology group in a single degree.

        Z in even degrees up to 2n, Z/N in even degrees beyond, zero in
        odd degrees.

        >>> R = OrbifoldRing((1, 2))
        >>> print(R.group_at_degree(2)); print(R.group_at_degree(4)); print(R.group_at_degree(3))
        Z
        Z/2
        0
        """
        if d < 0:
            raise ValueError("degree must be >= 0")
        if d % 2:
            return ZERO
        return Z if d // 2 <= self.weights.n else cyclic(self.N)

    def groups(self, max_degree: int) -> GradedGroups:
        """The groups up to max_degree: Z in the even degrees up to 2n and
        Z/N in those beyond (none when N = 1), each built once and shared,
        handed to ``GradedGroups`` as sorted nonzero pairs.

        >>> OrbifoldRing((1, 2)).groups(7)
        GradedGroups(max_degree=7, {0: Z, 2: Z, 4: Z/2, 6: Z/2})
        """
        top = cyclic(self.N)
        free = 2 * self.weights.n
        pairs = [(d, Z) for d in range(0, min(free, max_degree) + 1, 2)]
        if not top.is_zero:
            pairs += [(d, top) for d in range(free + 2, max_degree + 1, 2)]
        return GradedGroups(max_degree, pairs)

    # -- misc --------------------------------------------------------------

    def symbol_element(self, name: str) -> "OrbifoldElement":
        if name == "u":
            return self.u()
        raise ValueError(
            f"unknown symbol {name!r} for the orbifold ring of {self.weights}: only u is available"
        )

    def __str__(self):
        return f"Z[u]/<{self.N}u^{self.top}>"


def iso_check(a, b) -> bool:
    """Whether two weight vectors give isomorphic graded orbifold rings.

    The ring is determined by the dimension and the weight product: any
    graded isomorphism sends u to a sign times the other generator, so
    (n, N) is a complete invariant.

    >>> iso_check((2, 2), (4, 1))
    True
    >>> iso_check((1, 2), (1, 1))
    False
    """
    wa, wb = as_weights(a), as_weights(b)
    return wa.n == wb.n and wa.N == wb.N
