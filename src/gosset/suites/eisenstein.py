"""The eisenstein suite: Eisenstein integers, the hermitian form and hexaflections.

Identities whose two sides are linear in the test vectors are checked on a
basis, which proves them for every input:

- `conjugation_multiplicative`: both sides of conj(ab) = conj(a) conj(b) are
  Z-bilinear, so {1, omega}^2 decides it.  The norm a conj(a) of
  a = x + y omega is a quadratic form in (x, y), fixed by its values at 1,
  omega and 1 + omega: if all three are 1, its omega part vanishes and its
  integer part is x^2 - xy + y^2, which is positive definite;
- `hermitian_symmetry`: both sides are Z-bilinear, so the Z-basis
  {e_i, omega e_i} decides it;
- `hexaflection_preserves_form`, `hexaflection_order_six`,
  `triflection_order_three`: hexaflections are Z[omega]-linear and the form
  sesquilinear, so e_0..e_3 decide the isometry and the powers that fix
  everything.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from ..eisenstein import OMEGA, ONE, ZERO, EisensteinVector, eis, evec, herm, hexaflection
from . import check

# Null vectors of the hermitian form make bad mirrors; these all have
# self-pairing one.
UNIT_AXES = (
    evec(0, 1, 0, 0),
    evec(0, 0, 0, 1),
    evec(1, 1, 1, 0),
    evec(1, 1, 0, 1),
)
EISENSTEIN_BASIS = tuple(evec(*[int(i == j) for j in range(4)]) for i in range(4))


def _first_fixing_power(step: Callable[[EisensteinVector], EisensteinVector], limit: int) -> int:
    """Least k <= limit with step^k fixing e_0..e_3, else 0; step must be Z[omega]-linear."""
    images = EISENSTEIN_BASIS
    for k in range(1, limit + 1):
        images = tuple(step(v) for v in images)
        if images == EISENSTEIN_BASIS:
            return k
    return 0


@check("eisenstein", "unit_relation")
def _unit_relation(c):
    actual = OMEGA * OMEGA + OMEGA + ONE == ZERO
    return True, actual, "the generator is a primitive cube root of unity"


@check("eisenstein", "conjugation_multiplicative")
def _conjugation_multiplicative(c):
    units = (ONE, OMEGA)
    products = all((a * b).conj() == a.conj() * b.conj() for a in units for b in units)
    norms = [z * z.conj() for z in (ONE, OMEGA, ONE + OMEGA)]
    details = "conjugation respects products on {1, omega}^2; 1, omega, 1 + omega have norm one"
    return True, products and norms == [ONE] * 3, details


@check("eisenstein", "hermitian_symmetry")
def _hermitian_symmetry(c):
    basis = EISENSTEIN_BASIS + tuple(e.scale(OMEGA) for e in EISENSTEIN_BASIS)
    ok = all(herm(u, v) == herm(v, u).conj() for u in basis for v in basis)
    return True, ok, "hermitian symmetry of the signature (3,1) form on the Z-basis e_i, omega e_i"


@check("eisenstein", "hexaflection_preserves_form")
def _hexaflection_preserves_form(c):
    ok = all(
        herm(hexaflection(axis, u), hexaflection(axis, v)) == herm(u, v)
        for axis in UNIT_AXES
        for u in EISENSTEIN_BASIS
        for v in EISENSTEIN_BASIS
    )
    return True, ok, "hexaflections are isometries of the hermitian form on e_0..e_3"


@check("eisenstein", "hexaflection_axis_eigenvalue")
def _hexaflection_axis_eigenvalue(c):
    minus_omega_sq = eis(1, 1)
    ok = all(hexaflection(axis, axis) == axis.scale(minus_omega_sq) for axis in UNIT_AXES)
    return True, ok, "the mirror normal is rotated by a primitive sixth root of unity"


@check("eisenstein", "hexaflection_order_six")
def _hexaflection_order_six(c):
    orders = {_first_fixing_power(partial(hexaflection, axis), 6) for axis in UNIT_AXES}
    return {6}, orders, "sixth power is the first to fix e_0..e_3"


@check("eisenstein", "triflection_order_three")
def _triflection_order_three(c):
    orders = {
        _first_fixing_power(lambda v: hexaflection(axis, hexaflection(axis, v)), 3)
        for axis in UNIT_AXES
    }
    return {3}, orders, "the squared hexaflection has order three on e_0..e_3"
