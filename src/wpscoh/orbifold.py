"""The integral cohomology ring of a weighted projective orbifold.

For weights (b_0, ..., b_n) this is the quotient Z[u]/<N u^{n+1}> with
N = b_0 ... b_n and deg(u) = 2: a single degree-2 generator whose
(n+1)-st power is killed only after multiplication by N, leaving Z/N in
every even degree above 2n.
"""

from __future__ import annotations

from .abelian import FgAbGroup, GradedGroups, ZERO, Z, cyclic
from .arith import WeightVector, as_weights


class OrbifoldRing:
    """Z[u]/<N u^{n+1}> for a weight vector with product N.

    >>> R = OrbifoldRing((1, 2))
    >>> R.N, R.top
    (2, 2)
    >>> print(R.u() * R.u() * 4)
    0
    >>> print(R.element({2: 3}))
    u^2
    """

    __slots__ = ("weights", "N", "top")

    def __init__(self, weights):
        self.weights = as_weights(weights)
        self.N = self.weights.N
        self.top = self.weights.n + 1

    # -- element construction -------------------------------------------

    def element(self, coeffs: dict) -> "OrbifoldElement":
        """Build an element from {exponent: coefficient}, reduced to normal form."""
        return OrbifoldElement(self, self._normalize(coeffs))

    def normal_form(self, coeffs: dict) -> "OrbifoldElement":
        """Reduce a raw integer polynomial in u modulo N u^{n+1}.

        Coefficients at exponents >= n+1 land in [0, N); lower ones are
        untouched.

        >>> OrbifoldRing((1, 2)).normal_form({2: 4, 1: 3})
        <3u in Z[u]/<2u^2>>
        """
        return self.element(coeffs)

    def _normalize(self, coeffs: dict) -> dict:
        out = {}
        for m, c in coeffs.items():
            if not isinstance(m, int) or m < 0:
                raise ValueError(f"u-exponents must be non-negative integers, got {m!r}")
            if m >= self.top:
                c %= self.N
            if c:
                out[m] = out.get(m, 0) + c
        return {m: c for m, c in out.items() if c}

    def zero(self) -> "OrbifoldElement":
        return OrbifoldElement(self, {})

    def one(self) -> "OrbifoldElement":
        return self.from_int(1)

    def from_int(self, c: int) -> "OrbifoldElement":
        return self.element({0: c})

    def u(self, power: int = 1, coeff: int = 1) -> "OrbifoldElement":
        return self.element({power: coeff})

    def multiply(self, x: "OrbifoldElement", y: "OrbifoldElement") -> "OrbifoldElement":
        self._check_element(x)
        self._check_element(y)
        raw = {}
        for m1, c1 in x.coeffs.items():
            for m2, c2 in y.coeffs.items():
                m = m1 + m2
                raw[m] = raw.get(m, 0) + c1 * c2
        return self.element(raw)

    def _check_element(self, x):
        if not isinstance(x, OrbifoldElement) or x.ring.weights != self.weights:
            raise ValueError("element does not belong to this ring")

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
        return GradedGroups(
            max_degree,
            {d: self.group_at_degree(d) for d in range(0, max_degree + 1, 2)},
        )

    # -- misc --------------------------------------------------------------

    def symbol_element(self, name: str) -> "OrbifoldElement":
        if name == "u":
            return self.u()
        raise ValueError(
            f"unknown symbol {name!r} for the orbifold ring of {self.weights}: only u is available"
        )

    def to_json(self, max_degree: int) -> dict:
        return {
            "weights": list(self.weights.b),
            "relation": {"coefficient": self.N, "exponent": self.top},
            "groups": self.groups(max_degree).to_json(),
        }

    def __eq__(self, other):
        if isinstance(other, OrbifoldRing):
            return self.weights == other.weights
        return NotImplemented

    def __hash__(self):
        return hash(("orbifold", self.weights))

    def __repr__(self):
        return f"OrbifoldRing({self.weights!r})"

    def __str__(self):
        return f"Z[u]/<{self.N}u^{self.top}>"


def make(weights) -> OrbifoldRing:
    """Construct the orbifold cohomology ring for a weight vector."""
    return OrbifoldRing(weights)


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


class OrbifoldElement:
    """An integer polynomial in u, reduced modulo N u^{n+1}.

    Coefficients at exponents >= n+1 live in [0, N); lower ones are
    arbitrary integers.  Value semantics: equal iff same ring and same
    reduced coefficients.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: OrbifoldRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """2 * exponent when homogeneous, None when monomials disagree.

        Raises on the zero element, whose degree is undefined.
        """
        if self.is_zero:
            raise ValueError("the zero element has no degree")
        degs = {2 * m for m in self.coeffs}
        return degs.pop() if len(degs) == 1 else None

    def __add__(self, other):
        self.ring._check_element(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return self.ring.element(out)

    def __neg__(self):
        return self.ring.element({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.ring.element({m: other * c for m, c in self.coeffs.items()})
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
        if isinstance(other, OrbifoldElement):
            return self.ring.weights == other.ring.weights and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.weights, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return f"<{self} in {self.ring}>"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for m in sorted(self.coeffs, reverse=True):
            c = self.coeffs[m]
            if m == 0:
                body = str(abs(c))
            else:
                var = "u" if m == 1 else f"u^{m}"
                body = var if abs(c) == 1 else f"{abs(c)}{var}"
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0]
        first = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([first] + parts[1:])
