"""The residue form of the sector ring against the per-coordinate forms it
replaced.

``CrRing`` builds its nonzero index and Euler data by marking the
multiples of p = ell / b for each row (b, p, coordinates) of its
weight-class table, and forms its structure constants from the residues
mod p.  The oracles below are the per-coordinate forms as the ring had
them before: the nonzero index as a union of ranges, the Euler loop over
each nonzero sector's fixed weights, and the structure constants from
the rotation numerators of every coordinate, with the check that each
excess is 0 or 1.  They must agree on every ordered pair of nonzero
sectors of the corpus of ``tests/test_verify.py`` and of hypothesis
vectors.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_verify import CORPUS

from wpscoh.arith import as_weights
from wpscoh.chenruan import CrRing, nonzero_sectors


def nonzero_sectors_oracle(weights) -> tuple[int, ...]:
    """The multiples of ell / b_k over all k, as a union of ranges."""
    w = as_weights(weights)
    ell = w.ell
    steps = {ell // bk for bk in w.b}
    return tuple(sorted({j for step in steps for j in range(0, ell, step)}))


def euler_oracle(weights) -> dict:
    """(c_j, d_j) of each nonzero sector, from the weights it fixes."""
    w = as_weights(weights)
    ell = w.ell
    euler = {}
    for j in nonzero_sectors_oracle(w):
        fixed = [bk for bk in w.b if bk * j % ell == 0]
        euler[j] = (math.prod(fixed), len(fixed))
    return euler


def raw_product_oracle(ring: CrRing, i: int, j: int) -> tuple[int, int, int]:
    """Unreduced structure constants of a generator product:
    (coefficient, u-power, target sector).

    Per coordinate, the rotation numbers of sectors i, j and i+j sum
    to an integer excess of 0 or 1; the coordinates with excess 1
    contribute their weight to the coefficient and one power of u.
    """
    ell = ring.ell
    coeff = 1
    power = 0
    for k, bk in enumerate(ring.weights.b):
        t = bk * i % ell + bk * j % ell - bk * (i + j) % ell
        if t == ell:
            coeff *= bk
            power += 1
        elif t != 0:
            raise ArithmeticError(
                f"rotation-number excess {Fraction(t, ell)} outside {{0,1}} "
                f"at sectors ({i},{j}), coordinate {k}: arithmetic bug"
            )
    return coeff, power, (i + j) % ell


def _agree(weights):
    ring = CrRing(weights)
    nz = ring.nonzero
    assert nz == nonzero_sectors(weights) == nonzero_sectors_oracle(weights), weights
    euler = euler_oracle(weights)
    assert {j: ring._annihilator(j) for j in nz} == euler, weights
    for i in nz:
        for j in nz:
            assert ring._raw_product(i, j) == raw_product_oracle(ring, i, j), (weights, i, j)


def test_weight_class_table():
    ring = CrRing((3, 1, 3, 2, 6))
    assert ring.ell == 6
    assert ring.classes == ((1, 6, (1,)), (2, 3, (3,)), (3, 2, (0, 2)), (6, 1, (4,)))


def test_residue_forms_agree_with_the_oracles_on_the_corpus():
    for weights in CORPUS:
        _agree(weights)


def test_zero_sectors_are_unmarked_on_the_corpus():
    # every sector outside the index fixes no coordinate
    for weights in CORPUS:
        ring = CrRing(weights)
        zero = set(range(ring.ell)) - set(ring.nonzero)
        assert all(all(ring.rotations(j)) for j in zero), weights
        assert all(ring._annihilator(j) == (1, 0) for j in zero), weights


@given(st.lists(st.integers(1, 60), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_residue_forms_agree_with_the_oracles(weights):
    assume(len(nonzero_sectors_oracle(weights)) <= 200)
    _agree(weights)
