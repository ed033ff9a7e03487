"""The inertia-sector cohomology ring of a weighted projective orbifold,
with integer coefficients.

Sectors are indexed by j in {0, ..., ell-1}, one for each ell-th root of
unity, where ell = lcm of the weights.  Sector j carries the rotation
numbers a_k(j) = frac(b_k j / ell), the coordinates it fixes, the Euler
coefficient c_j (product of the fixed weights) with exponent d_j (their
count), and a rational degree shift 2 * sum_k a_k(j).  The shift is
kept as an integer in units of 1/ell, s_j = 2 * sum_k (b_k j mod ell)
(``CrRing._shift_units``).  A ``SectorData`` record, with the
per-coordinate fractions, is built only when a library caller asks for
a sector.

Output of all ell sectors (the sector chart, the presentation's
generators and kernel relations) reads the two indices the maths has.
A weight class's rotation numerators are its numerators on the residues
mod p, ``CrRing._numerators((b,), range(p))``, repeated b times; the
Euler data is (1, 0) except at ``CrRing.nonzero``, read there through
``CrRing._annihilator``.  The one column of all ell sectors the ring
keeps is the shift units (``CrRing.shift_column``), summed from the same
residue lists once per ring, beside the generator names.  The
numerators of the chart, of ``rotations`` and of the residue checks of
``verify`` all come from ``CrRing._numerators``.  The per-sector readers
(``rotations``, ``_shift_units``, ``_annihilator``) serve sparse callers
and stay as the test oracle of dense output.  ``CrPresentation`` holds
its generators and kernel relations as the views ``GeneratorUnits`` and
``KernelRelations``: output reads the shift column, the names and the
nonzero sectors, and an item, by index or in iteration, is built from
the per-sector readers.  The presentation forms each product relation
straight from the structure constants and the Euler class of the target
sector.

The ring is generated over Z by a degree-2 class u and one placeholder
generator per sector.  Generator products twist into the sector [i+j]
with an integer monomial coefficient read off from the rotation numbers;
per sector, the single kernel relation c_j u^{d_j} = 0 reduces every
element to a normal form, namely coefficients in [0, c_j) at u-exponents
at or above d_j.

Every sector fact depends, per distinct weight b, only on the residue
j mod p, where p = ell / b: a weight-b coordinate's rotation numerator
is b * (j mod p), so sector j fixes it exactly when p divides j.
``CrRing.classes`` is the table of these weight classes, one row
(b, p, coordinates carrying b) per distinct weight, in increasing
order.  The ring's Euler data is built by marking, for each row, the
multiples of p with b^m and m for the row's m coordinates; the marked
sectors are the nonzero ones.
The structure constants read the residues too: at sectors i and j a
row's coordinates have excess 1 exactly when i mod p + j mod p >= p.

A sector that fixes nothing has c_j = 1 and d_j = 0, so its generator
is zero.  The ring therefore indexes only the nonzero sectors, as the
source paper indexes twisted sectors by the fractions k / b_i:
``CrRing.nonzero`` holds the multiples of p over all rows, sector 0
first, at most sum(b) of them.  Rotation numbers and sector records are
computed on demand, so a ring costs its nonzero sectors, not ell.
``CrRing.sectors`` is a view of all ell records that exposes its
``ring``.

Two limits bound that cost, and the work they bound refuses itself
with a one-line ``ValueError``.  ``CrRing`` refuses weights whose index bound
min(ell, sum(b)) is above ``DENSE_SECTOR_LIMIT`` before it marks any
sector.  The presentation (so the multiplication table) and
``verify.run_checks`` form one product per pair of nonzero twisted
sectors, and refuse more than ``PRODUCT_SECTOR_LIMIT`` such sectors
before they form any.

In the shape of ``algebra``: a Z[u]-module on one basis element a_j
per sector, in degree 2 * age(j), with annihilator the Euler class
c_j u^{d_j} (c_j = 1, d_j = 0 kills a zero sector outright) and
structure constants a_i a_j = coeff u^power a_{i+j} from
``CrRing._raw_product``.

The graded groups follow from the Euler data alone.  Sector j adds Z in
degrees s_j + 2 ell m (in units of 1/ell) while m < d_j, and Z/c_j in
every such degree after that.  Within one class of degrees mod 2 the
group changes only at those 2 * |nonzero| change points, so
``CrRing.graded_dimensions`` sweeps the integer degrees of each class
and builds one group per change point.

The lemma that lets products, presentations and scans skip the zero
sectors: if sector i fixes no coordinate, every row whose p divides i+j
has i mod p = p - (j mod p) != 0, so its coordinates have excess 1.  The
raw product a_i * a_j then carries c_{i+j} u^{d_{i+j}}, which reduces to
0.  ``verify`` checks the lemma by name.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import add, eq, itemgetter

from .abelian import FgAbGroup
from .algebra import Algebra, Element, monomial, u_power
from .arith import WeightVector, as_weights

# A ring whose index bound, min(ell, sum of the weights), is above this
# is refused before any sector is marked: 1,1000000000 would index 10^9
# nonzero sectors, about 200 GB.  The command line refuses output and
# walks of all ell sectors (the sector chart, the presentation, check)
# above the same number.
DENSE_SECTOR_LIMIT = 100_000

# The presentation and the multiplication table list one product per
# pair of nonzero twisted sectors, and check walks those pairs; more
# sectors than this are refused.
PRODUCT_SECTOR_LIMIT = 1000


@dataclass(frozen=True)
class SectorData:
    """Fixed-point data for one root-of-unity sector.

    ``a`` lists the rotation numbers per coordinate; ``fixed`` the
    indices with rotation number zero; ``c`` and ``d`` the coefficient
    and u-exponent of the sector's Euler class; ``degree_shift`` twice
    the age.  ``fixed`` and ``degree_shift`` must be the ones that ``a``
    gives.  ``CrRing.sector`` builds a record from the ring's integers
    on each call, and records compare and hash by value; output reads
    those integers and builds no record.

    >>> CrRing((1, 2)).sector(1)
    SectorData(j=1, a=(Fraction(1, 2), Fraction(0, 1)), fixed=(1,), c=2, d=1, \
degree_shift=Fraction(1, 1))
    """

    j: int
    a: tuple[Fraction, ...]
    fixed: tuple[int, ...]
    c: int
    d: int
    degree_shift: Fraction

    def __post_init__(self):
        a = self.a
        fixed = tuple(k for k, x in enumerate(a) if not x)
        if (self.fixed, self.degree_shift) != (fixed, 2 * sum(a)):
            raise ValueError(
                f"fixed {self.fixed!r} and degree shift {self.degree_shift} "
                f"do not follow from a = {a}"
            )


class CrElement(Element):
    """Finitely supported map sector -> integer polynomial in u.

    Held in per-sector normal form, except the kernel relations that
    ``CrRing.kernel_relation`` builds as they stand.
    """

    __slots__ = ()
    __pow__ = Element.__pow__  # its own name, for perfbench/tracing.py


def _sector_table(w: WeightVector) -> tuple:
    """The weight-class table of w and the Euler data of its nonzero sectors.

    The table has one row (b, p, coordinates carrying b) per distinct
    weight b, in increasing order, with p = ell / b.  The Euler data maps
    each nonzero sector j to (c_j, d_j).  It is built by marking: each row
    marks the multiples of p, the sectors that fix its m coordinates, with
    b^m and m.  Sectors that no row marks are zero.
    """
    classes = tuple([
        (b, w.ell // b, tuple([k for k, x in enumerate(w.b) if x == b]))
        for b in sorted(set(w.b))
    ])
    euler: dict = {}
    for b, p, coords in classes:
        m = len(coords)
        factor = b**m
        for j in range(0, w.ell, p):
            c, d = euler.get(j, (1, 0))
            euler[j] = (c * factor, d + m)
    return classes, euler


class CrRing(Algebra):
    """Sector-graded cohomology ring with the twisted product.

    >>> R = CrRing((1, 2, 2, 3, 3, 3))
    >>> R.ell, R.nonzero
    (6, (0, 2, 3, 4))
    >>> print(R.star_generators(2, 2))
    4u^2a4
    >>> print(R.star_generators(3, 4))
    0
    """

    __slots__ = ("ell", "classes", "nonzero", "_euler", "_shifts")
    _element_class = CrElement

    def __init__(self, weights):
        self.weights = w = as_weights(weights)
        self.ell = w.ell
        bound = min(w.ell, sum(w.b))
        if bound > DENSE_SECTOR_LIMIT:
            raise ValueError(
                f"the sector ring indexes up to min(ell, sum of the weights) = {bound} "
                f"nonzero sectors, more than the limit of {DENSE_SECTOR_LIMIT}"
            )
        # Euler class (c_j, d_j) of each nonzero sector; zero sectors have (1, 0)
        self.classes, self._euler = _sector_table(w)
        self.nonzero = tuple(sorted(self._euler))
        self._shifts = None  # the shift column, built on first use

    @property
    def sectors(self) -> "_Sectors":
        """All ell sector records, as a read-only sequence built on demand."""
        return _Sectors(self)

    def _check_basis(self, j: int) -> None:
        if not 0 <= j < self.ell:
            raise ValueError(f"sector index {j} out of range 0..{self.ell - 1}")

    def rotations(self, j: int) -> tuple[int, ...]:
        """Numerators of the rotation numbers of sector j over the common
        denominator ell: (b_k * j) mod ell for each coordinate k."""
        return tuple(self._numerators(self.weights.b, (j,)))

    def _numerators(self, bs, js) -> list[int]:
        """The rotation numerators b * j mod ell for each weight b of bs
        and each sector j of js, weight by weight.  Every reader of the
        numerators goes through it: ``rotations``, the shift column, the
        sector chart and the residue checks of ``verify``."""
        ell = self.ell
        return [b * j % ell for b in bs for j in js]

    def shift_column(self) -> tuple[int, ...]:
        """The shift units s_j of all ell sectors, built on first use and
        kept for the life of the ring as a tuple.  Per row (b, p,
        coordinates) of ``classes``, its m coordinates add 2 m times the
        row's numerators on the residues mod p, repeated b times.  For
        dense output only."""
        if self._shifts is None:
            shifts = [0] * self.ell
            for b, p, coords in self.classes:
                twice_m = 2 * len(coords)
                column = [twice_m * t for t in self._numerators((b,), range(p))] * b
                shifts = list(map(add, shifts, column))
            self._shifts = tuple(shifts)
        return self._shifts

    def sector(self, j: int) -> SectorData:
        self._check_basis(j)
        return self._record(j)

    def _record(self, j: int) -> SectorData:
        """The record of sector j, built from the ring's integers."""
        nums, ell = self.rotations(j), self.ell
        a = tuple(Fraction(t, ell) for t in nums)
        fixed = tuple(k for k, t in enumerate(nums) if not t)
        return SectorData(j, a, fixed, *self._annihilator(j), self._shift(j))

    def euler(self, j: int) -> tuple[int, int]:
        """(c_j, d_j) of the sector-j Euler class c_j u^{d_j}."""
        self._check_basis(j)
        return self._annihilator(j)

    def _annihilator(self, j: int) -> tuple[int, int]:
        """``euler`` without the range check, for sectors already in
        range; every reader of the Euler class goes through it, the
        sector chart and the kernel relations included."""
        return self._euler.get(j, (1, 0))

    def twisted_generator_indices(self) -> tuple[int, ...]:
        """Indices of the nonzero twisted-sector generators."""
        return self.nonzero[1:]

    def _require_products(self, what: str) -> None:
        """Refuse to form products of more than ``PRODUCT_SECTOR_LIMIT``
        nonzero twisted sectors; what names the work in the message."""
        twisted = len(self.nonzero) - 1
        if twisted > PRODUCT_SECTOR_LIMIT:
            raise ValueError(
                f"{what} products of {twisted} nonzero twisted sectors, "
                f"more than the limit of {PRODUCT_SECTOR_LIMIT}"
            )

    # -- elements -----------------------------------------------------------

    def element(self, parts: dict) -> CrElement:
        """Build an element in normal form from {sector: {u-exponent:
        coefficient}}."""
        return self._from_parts(parts)

    def u(self, power: int = 1, coeff: int = 1) -> CrElement:
        return self.element({0: {power: coeff}})

    def generator(self, j: int) -> CrElement:
        """The sector-j placeholder generator, in normal form (may be zero)."""
        return self.element({j: {0: 1}})

    def _shift(self, j):
        return Fraction(self._shift_units(j), self.ell)

    def _shift_units(self, j: int) -> int:
        """Degree shift of sector j in units of 1/ell: twice the sum of
        its rotation numerators."""
        return 2 * sum(self.rotations(j))

    @staticmethod
    def _generator_format(latex: bool) -> str:
        """The name of the sector-j generator, as a format for j."""
        return r"\alpha_{%d}" if latex else "a%d"

    def generator_names(self, latex: bool = False) -> list[str]:
        """The generator name a_j of all ell sectors, a0 included.  For
        dense output only."""
        return list(map(self._generator_format(latex).__mod__, range(self.ell)))

    def _variable(self, j, m, latex):
        sector = self._generator_format(latex) % j if j else ""
        return u_power(m, latex) + sector

    # -- the twisted product ---------------------------------------------------

    def _raw_product(self, i: int, j: int) -> tuple[int, int, int]:
        """Unreduced structure constants of a generator product:
        (coefficient, u-power, target sector).

        Per row (b, p, coordinates) of ``classes``, the coordinates have
        excess 1 exactly when i mod p + j mod p >= p, and 0 otherwise;
        the m coordinates of a row with excess 1 contribute b^m to the
        coefficient and u^m.
        """
        coeff, power = 1, 0
        for b, p, coords in self.classes:
            if i % p + j % p >= p:
                m = len(coords)
                coeff *= b**m
                power += m
        return coeff, power, (i + j) % self.ell

    def _reduce(self, coeff: int, power: int, sector: int) -> int:
        """The coefficient of coeff u^power a_sector in normal form:
        reduced mod c once power reaches d, for the Euler class c u^d of
        the sector; 0 when the monomial vanishes."""
        c, d = self._annihilator(sector)
        return coeff % c if power >= d else coeff

    def star_generators(self, i: int, j: int) -> "CrElement":
        """Product of the sector-i and sector-j generators, reduced."""
        self._check_basis(i)
        self._check_basis(j)
        coeff, power, target = self._raw_product(i, j)
        return self._normal({target: {power: coeff}})

    # Bilinear extension of the generator product, under the ring's own
    # name; elements multiply through it, so perfbench/tracing.py's span
    # on CrRing.star sees every product.
    star = Algebra.multiply

    def multiply(self, x: CrElement, y: CrElement) -> CrElement:
        return self.star(x, y)

    # -- relations and presentation ---------------------------------------------

    def kernel_relation(self, j: int) -> "CrElement":
        """The sector-j kernel generator c_j u^{d_j} (times the sector
        generator), before reduction; its normal form is zero."""
        c, d = self.euler(j)
        return CrElement(self, {j: {d: c}})

    def mult_table(self) -> dict:
        """Products of all nonzero twisted generators, keyed by (i, j), i <= j."""
        return {(rel.i, rel.j): rel.product for rel in self.presentation().product_relations}

    def presentation(self) -> "CrPresentation":
        """Generators with degrees, kernel relations in sector order, and
        product relations in lexicographic order.

        Product relations where both sides already vanish are omitted.
        Those are exactly the pairs with a zero generator: by the lemma in
        the module docstring their products reduce to 0.  So the product
        relations run over the nonzero twisted sectors only, each the
        reduced monomial of its structure constants.  The ell generators
        and kernel relations are read off the ring when asked for.  More
        than ``PRODUCT_SECTOR_LIMIT`` nonzero twisted sectors are refused.
        """
        self._require_products("the presentation and multiplication table list")
        idx = self.twisted_generator_indices()
        products = []
        for x, i in enumerate(idx):
            for j in idx[x:]:
                coeff, power, target = self._raw_product(i, j)
                coeff = self._reduce(coeff, power, target)
                products.append(ProductRelation(i, j, coeff, power, target, self))
        return CrPresentation(self, tuple(products))

    # -- grading ------------------------------------------------------------------

    def graded_dimensions(self, max_degree) -> list:
        """Nonzero (degree, group) pairs up to max_degree, sorted.

        Sector j contributes Z at degree shift_j + 2m while m < d_j and
        Z/c_j once m >= d_j; sectors whose generator is zero contribute
        nothing, so only the nonzero sectors are visited.

        The sweep runs in integer units of 1/ell.  A sector's degrees
        s_j + 2 ell m (s_j from ``_shift_units``) lie in the class of
        s_j mod 2 ell, so each class is swept on its own.  In a class
        the group changes only at the change points s_j, where a Z
        starts, and s_j + 2 ell d_j, where that Z becomes Z/c_j.  One
        group is built per change point and shared by every degree up
        to the next, so the cost grows with the nonzero sectors, not
        with max_degree; a degree becomes a Fraction only when emitted.
        Equal groups of different classes are one object, so a listing
        that renders each group object once renders each value once.

        >>> CrRing((1, 2)).graded_dimensions(3)
        [(Fraction(0, 1), FgAbGroup(1, ())), (Fraction(1, 1), FgAbGroup(1, ())), \
(Fraction(2, 1), FgAbGroup(1, ())), (Fraction(3, 1), FgAbGroup(0, (2,)))]
        >>> [(str(deg), str(g)) for deg, g in CrRing((2, 2)).graded_dimensions(4)]
        [('0', 'Z^2'), ('2', 'Z^2'), ('4', 'Z/4 + Z/4')]
        """
        max_degree = Fraction(max_degree)
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        ell = self.ell
        period = 2 * ell
        last = max_degree.numerator * ell // max_degree.denominator  # in units of 1/ell
        # per class mod 2 ell: {change point: [free-rank step, new torsion orders]}
        classes: dict = {}
        for j in self.nonzero:
            s = self._shift_units(j)
            c, d = self._annihilator(j)
            points = classes.setdefault(s % period, {})
            points.setdefault(s, [0, []])[0] += 1
            end = points.setdefault(s + period * d, [0, []])
            end[0] -= 1
            if c > 1:
                end[1].append(c)
        swept = []
        shared = {}  # one object per distinct group, across the classes
        for points in classes.values():
            free, orders = 0, []
            changes = sorted(points)
            for x, stop in zip(changes, changes[1:] + [last + 1]):
                if x > last:
                    break
                step, new = points[x]
                free += step
                orders += new
                if free or orders:
                    group = FgAbGroup(free, orders)
                    group = shared.setdefault(group, group)
                    swept += [(y, group) for y in range(x, min(stop, last + 1), period)]
        swept.sort(key=itemgetter(0))
        return [(Fraction(x, ell), group) for x, group in swept]

    # -- comparison -------------------------------------------------------------------

    def equivalent(self, other: "CrRing") -> bool:
        """Presentation equivalence: some relabelling of the sector group
        by a unit mod ell matches all sector data and all structure
        constants.  This is an equality of presentations, not a general
        graded-isomorphism test.

        It holds exactly when the two weight multisets are equal.  A unit
        relabelling keeps each sector's order o, and the Euler exponent
        d of a sector of order o counts the weights that o divides.  Every
        divisor o of ell is the order of some sector, so matching Euler
        data gives equal counts for every o; as every weight divides ell,
        those counts fix how many weights equal each divisor (Moebius
        inversion over the divisors of ell).  Conversely, equal multisets
        give equal Euler data, shifts and structure constants under the
        identity relabelling.

        >>> CrRing((2, 2)).equivalent(CrRing((4, 1)))
        False
        >>> CrRing((1, 2)).equivalent(CrRing((2, 1)))
        True
        """
        if not isinstance(other, CrRing):
            raise ValueError("can only compare two sector rings")
        return sorted(self.weights.b) == sorted(other.weights.b)

    # -- misc ----------------------------------------------------------------------------

    def symbol_element(self, name: str) -> "CrElement":
        if name == "u":
            return self.u()
        if name.startswith("a"):
            j = int(name[1:])
            if 0 <= j < self.ell:
                return self.generator(j)
            raise ValueError(
                f"{name} out of range for the sector ring of {self.weights}: "
                f"sector indices run 0..{self.ell - 1}"
            )
        raise ValueError(
            f"unknown symbol {name!r} for the sector ring of {self.weights}: "
            "use u and a0..a%d" % (self.ell - 1)
        )


class _SectorView(Sequence):
    """One item per sector of ``ring``, as a read-only sequence; each
    item is built on access by ``_item(j)`` from the per-sector readers.

    An index may be negative, and a slice gives a list of items.  A view
    compares and hashes as the tuple of its items would.  Output builds
    no item.
    """

    __slots__ = ("ring",)

    def __init__(self, ring: CrRing):
        self.ring = ring

    def __len__(self):
        return self.ring.ell

    def __getitem__(self, index):
        ell = self.ring.ell
        if isinstance(index, slice):
            return [self._item(j) for j in range(*index.indices(ell))]
        if not -ell <= index < ell:
            raise IndexError(f"sector index {index} out of range 0..{ell - 1}")
        return self._item(index % ell)

    def __eq__(self, other):
        if isinstance(other, _SectorView):
            if type(other) is type(self) and other.ring is self.ring:
                return True
        elif not isinstance(other, tuple):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self):
        return hash(tuple(self))


class _Sectors(_SectorView):
    """The ell sector records of ``ring``."""

    __slots__ = ()

    def _item(self, j: int) -> SectorData:
        return self.ring._record(j)


# The relations are not frozen: a frozen dataclass's __init__ costs about
# five times as much, and a library caller that walks a presentation's
# kernel relations builds one per sector.  They still compare and hash
# by value.
@dataclass(slots=True, unsafe_hash=True)
class KernelRelation:
    """One per-sector kernel generator c * u^d * (sector generator)."""

    j: int
    coefficient: int
    exponent: int
    ring: CrRing

    @property
    def element(self) -> "CrElement":
        """The relation as an element of the ring, before reduction."""
        return self.ring.kernel_relation(self.j)

    def render(self, latex: bool = False) -> str:
        """The monomial c u^d a_j, e.g. ``4u^2a3``, as its element prints."""
        return monomial(self.coefficient, self.ring._variable(self.j, self.exponent, latex))

    def __str__(self):
        return self.render()


@dataclass(slots=True, unsafe_hash=True)
class ProductRelation:
    """One generator product a_i a_j = c u^e a_t in normal form, as the
    integers (coefficient, exponent, target); coefficient 0 when the
    product vanishes."""

    i: int
    j: int
    coefficient: int
    exponent: int
    target: int
    ring: CrRing

    @property
    def product(self) -> "CrElement":
        """The product as an element of the ring."""
        return self.ring.star_generators(self.i, self.j)

    def render(self, latex: bool = False) -> str:
        """The product, e.g. ``4u^2a4`` or ``0``, as its element prints."""
        if not self.coefficient:
            return "0"
        return monomial(self.coefficient, self.ring._variable(self.target, self.exponent, latex))

    def __str__(self):
        return f"a{self.i}*a{self.j} = {self.render()}"


class GeneratorUnits(_SectorView):
    """The generators of a presentation: u, then a_j for every twisted
    sector j, each as (name, degree in units of 1/ell), with 2 ell for u
    and the shift units s_j for a_j.  ``names`` and ``units`` read the
    ring's generator names and shift column."""

    __slots__ = ()

    def _item(self, j: int) -> tuple[str, int]:
        ring = self.ring
        if j == 0:
            return "u", 2 * ring.ell
        return ring._variable(j, 0, False), ring._shift_units(j)

    def names(self, latex: bool = False) -> list[str]:
        """u, a1, ..., a_{ell-1}."""
        names = self.ring.generator_names(latex)
        names[0] = "u"
        return names

    def units(self) -> list[int]:
        """The degrees of the generators in units of 1/ell."""
        return [2 * self.ring.ell, *self.ring.shift_column()[1:]]


class KernelRelations(_SectorView):
    """The kernel relations c_j u^{d_j} a_j = 0 of all ell sectors, in
    sector order, as ``KernelRelation`` records.  ``render`` reads the
    Euler class of the nonzero sectors only."""

    __slots__ = ()

    def _item(self, j: int) -> KernelRelation:
        return KernelRelation(j, *self.ring._annihilator(j), self.ring)

    def render(self, latex: bool = False) -> list[str]:
        """Each relation's monomial, as ``KernelRelation.render`` writes
        it: the generator a_j for a zero sector (c_j = 1, d_j = 0), and
        c_j u^{d_j} a_j for each nonzero sector."""
        ring = self.ring
        texts = ring.generator_names(latex)
        for j in ring.nonzero:
            c, d = ring._annihilator(j)
            texts[j] = monomial(c, ring._variable(j, d, latex))
        return texts


@dataclass(frozen=True)
class CrPresentation:
    """The presentation of a ring: its product relations, built once, and
    its ell generators and kernel relations as columns of the ring."""

    ring: CrRing
    product_relations: tuple[ProductRelation, ...]

    @property
    def generator_units(self) -> GeneratorUnits:
        """u, then a_j for every twisted sector, each with its degree in
        units of 1/ell: 2 ell for u, the shift units of sector j for a_j."""
        return GeneratorUnits(self.ring)

    @property
    def generators(self) -> tuple[tuple[str, Fraction], ...]:
        """u in degree 2, then a_j in degree 2 age(j) for every twisted sector."""
        ell = self.ring.ell
        return tuple((name, Fraction(units, ell)) for name, units in self.generator_units)

    @property
    def kernel_relations(self) -> KernelRelations:
        """c_j u^{d_j} a_j = 0 for every sector j, in sector order."""
        return KernelRelations(self.ring)
