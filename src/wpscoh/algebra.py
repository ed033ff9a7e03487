"""The element algebra shared by the three rings.

The source paper builds each ring directly as a quotient of a
polynomial ring over Z, and each has the same shape: a Z[u]-module on a
basis, with

- an annihilator c * u^d per basis element (the relation c u^d e = 0),
- a structure constant per pair of basis elements: e_i e_j is
  coeff * u^power * e_target, or zero,
- a degree shift per basis element, so that u^m e_j sits in degree
  2m + shift(j).

The orbifold ring Z[u]/<N u^{n+1}> has the one basis element 1, with
annihilator N u^{n+1}.  The coarse-space ring has one basis element per
degree 2k, no annihilator and constants ell_k ell_m / ell_{k+m}.  The
sector ring has one basis element per sector j, with annihilator the
Euler class c_j u^{d_j} and constants read off the rotation numbers.

An ``Element`` stores {basis: {u-exponent: coefficient}}; in normal form
each coefficient at an exponent >= d of its annihilator lies in [0, c),
and no zero coefficient or empty basis entry is kept.  Every element a
ring builds is in normal form; the one exception is the sector ring's
kernel relation c_j u^{d_j} a_j, built as it stands so that it prints.
A ring (``Algebra``) supplies the four facts above through
``_raw_product``, ``_annihilator``, ``_shift`` and ``_variable``; the
bilinear product, the normal form, square-and-multiply and the printer
exist here once.
"""

from __future__ import annotations

# A product walks each pair of a monomial of x and a monomial of y whose
# basis elements multiply to nonzero.  A product of more pairs than this,
# about a quarter of a second of work, raises ValueError.  Without it a
# short expression such as (1+u+u^2+u^3)^4000 runs for seconds, and each
# doubling of the exponent makes it four times slower.  A power of one
# monomial, such as u^1000000000000, walks one pair per product.
MAX_PRODUCT_PAIRS = 1_000_000

# A product whose reduced coefficients exceed this many bits raises
# ValueError.  Any integer under it prints in at most 4215 decimal
# digits, within Python's default limit of 4300 for int-to-str.  Without
# it a power of a constant such as 2^30000000 squares its coefficient
# into a 30M-bit integer before anything can print it.  Coefficients
# that a ring reduces stay small: (3u^2)^100000 in Z[u]/<2u^2> is u^200000.
MAX_COEFFICIENT_BITS = 14_000


def u_power(m: int, latex: bool = False) -> str:
    """u^m as it is printed: empty for m = 0, braced exponents in LaTeX."""
    if m == 0:
        return ""
    if m == 1:
        return "u"
    return f"u^{{{m}}}" if latex else f"u^{m}"


def monomial(coeff: int, variable: str) -> str:
    """A positive coefficient times a variable, the coefficient 1 omitted."""
    if not variable:
        return str(coeff)
    return variable if coeff == 1 else f"{coeff}{variable}"


class Algebra:
    """A Z[u]-module on a basis with a bilinear product.

    A ring subclasses it, sets ``_element_class`` to the element subclass
    it builds, and supplies

    - ``_raw_product(i, j)``: (coefficient, u-power, target basis) of
      e_i e_j, or None when the product is zero;
    - ``_variable(j, m, latex)``: u^m e_j without its coefficient, empty
      for the unit.

    It overrides the defaults below where they do not hold.
    ``_highest_first`` prints monomials in decreasing order.
    """

    __slots__ = ("weights",)

    _element_class: type
    _highest_first = False

    def _annihilator(self, j):
        """(c, d) of the relation c u^d e_j = 0, or None when there is none."""
        return None

    def _shift(self, j):
        """Degree of the basis element e_j."""
        return 0

    def _check_basis(self, j) -> None:
        """Raise ValueError when j is not a basis index."""

    # -- elements ----------------------------------------------------------------

    def _from_parts(self, parts: dict) -> "Element":
        """Validate {basis: {u-exponent: coefficient}} and build an element
        in normal form."""
        for j, poly in parts.items():
            self._check_basis(j)
            for m in poly:
                if not isinstance(m, int) or m < 0:
                    raise ValueError(f"u-exponents must be non-negative integers, got {m!r}")
        return self._normal(parts)

    def _normal(self, parts: dict) -> "Element":
        """The element of valid parts, without zero coefficients and with
        each coefficient reduced by its annihilator."""
        out = {}
        for j, poly in parts.items():
            rel = self._annihilator(j)
            q = {}
            for m, c in poly.items():
                if rel is not None and m >= rel[1]:
                    c %= rel[0]
                if c:
                    q[m] = c
            if q:
                out[j] = q
        return self._element_class(self, out)

    def zero(self) -> "Element":
        return self._element_class(self, {})

    def one(self) -> "Element":
        return self.from_int(1)

    def from_int(self, c: int) -> "Element":
        return self._from_parts({0: {0: c}})

    def _check_element(self, x) -> None:
        if not (isinstance(x, Element) and (x.ring is self or x.ring == self)):
            raise ValueError("element does not belong to this ring")

    def multiply(self, x: "Element", y: "Element") -> "Element":
        """Bilinear extension of the basis products; per pair of basis
        elements the u-polynomials are convolved and shifted by the
        structure constant's u-power.  Raises ValueError past
        ``MAX_PRODUCT_PAIRS`` pairs of monomials, or when a reduced
        coefficient has more than ``MAX_COEFFICIENT_BITS`` bits."""
        self._check_element(x)
        self._check_element(y)
        raw: dict = {}
        pairs = 0
        for i, pi in x.parts.items():
            for j, pj in y.parts.items():
                constant = self._raw_product(i, j)
                if constant is None:
                    continue
                pairs += len(pi) * len(pj)
                if pairs > MAX_PRODUCT_PAIRS:
                    sizes = [sum(map(len, z.parts.values())) for z in (x, y)]
                    raise ValueError(
                        "a product of %d by %d monomials is above the limit of %d "
                        "monomial pairs" % (*sizes, MAX_PRODUCT_PAIRS)
                    )
                coeff, power, target = constant
                bucket = raw.setdefault(target, {})
                for m1, c1 in pi.items():
                    for m2, c2 in pj.items():
                        m = m1 + m2 + power
                        bucket[m] = bucket.get(m, 0) + coeff * c1 * c2
        product = self._normal(raw)
        for poly in product.parts.values():
            for c in poly.values():
                if c.bit_length() > MAX_COEFFICIENT_BITS:
                    raise ValueError(
                        "a product has a coefficient of %d bits, above the limit of %d bits"
                        % (c.bit_length(), MAX_COEFFICIENT_BITS)
                    )
        return product

    # -- value semantics ---------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Algebra):
            return type(self) is type(other) and self.weights == other.weights
        return NotImplemented

    def __hash__(self):
        return hash((type(self).__name__, self.weights))

    def __repr__(self):
        return f"{type(self).__name__}({self.weights!r})"


class Element:
    """Finitely supported map basis -> integer polynomial in u, with value
    semantics: equal iff same ring and same parts."""

    __slots__ = ("ring", "parts")

    def __init__(self, ring: Algebra, parts: dict):
        self.ring = ring
        self.parts = parts

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def monomials(self):
        """Sorted (basis, u-exponent, coefficient) triples."""
        return [
            (j, m, self.parts[j][m])
            for j in sorted(self.parts)
            for m in sorted(self.parts[j])
        ]

    def degree(self):
        """Common degree 2m + shift(j) of all monomials u^m e_j, or None
        if they differ; raises on the zero element."""
        if self.is_zero:
            raise ValueError("the zero element has no degree")
        degs = {2 * m + self.ring._shift(j) for j, poly in self.parts.items() for m in poly}
        return degs.pop() if len(degs) == 1 else None

    def __add__(self, other):
        self.ring._check_element(other)
        out = {j: dict(p) for j, p in self.parts.items()}
        for j, poly in other.parts.items():
            bucket = out.setdefault(j, {})
            for m, c in poly.items():
                bucket[m] = bucket.get(m, 0) + c
        return self.ring._normal(out)

    def _scaled(self, k: int):
        return self.ring._normal(
            {j: {m: k * c for m, c in p.items()} for j, p in self.parts.items()}
        )

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        return self.ring.multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
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
        if isinstance(other, Element):
            return self.ring == other.ring and self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, tuple(self.monomials())))

    def render(self, latex: bool = False) -> str:
        """Signed sum of monomials, e.g. ``-3 + 2u^2a4``; ``0`` when zero."""
        terms = self.monomials()
        if not terms:
            return "0"
        if self.ring._highest_first:
            terms.reverse()
        variable = self.ring._variable
        text = " ".join([
            ("- " if c < 0 else "+ ") + monomial(abs(c), variable(j, m, latex))
            for j, m, c in terms
        ])
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<{self} in {self.ring}>"
