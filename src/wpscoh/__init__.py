"""Exact cohomology rings of weighted projective quotients over the
integers: the singular ring of the coarse space, the ring of the
orbifold, and the sector-graded (Chen-Ruan) ring, with presentations,
multiplication tables, degree-wise groups and product (Kunneth)
computations.
"""

from .abelian import FgAbGroup, GradedGroups
from .arith import WeightVector, gcd_all, lcm_all, rotation_number
from .chenruan import CrElement, CrRing, SectorData
from .expr import EvalError, ParseError, evaluate, parse, unparse
from .kawasaki import KawasakiElement, KawasakiRing, subset_lcm_table
from .kunneth import ProductGroups, odd_torsion_witness, product_groups
from .orbifold import OrbifoldElement, OrbifoldRing, iso_check
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CrElement",
    "CrRing",
    "EvalError",
    "FgAbGroup",
    "GradedGroups",
    "KawasakiElement",
    "KawasakiRing",
    "OrbifoldElement",
    "OrbifoldRing",
    "ParseError",
    "ProductGroups",
    "SectorData",
    "WeightVector",
    "evaluate",
    "gcd_all",
    "iso_check",
    "lcm_all",
    "odd_torsion_witness",
    "parse",
    "product_groups",
    "rotation_number",
    "run_checks",
    "subset_lcm_table",
    "unparse",
]
