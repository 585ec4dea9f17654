"""The eisenstein suite: Eisenstein integers, the hermitian form and hexaflections.

Every map here is an integer matrix on rows, so each identity is a matrix
identity, which proves it for every input:

- `unit_relation`: W^2 + W + I = 0 for W = OMEGA;
- `conjugation_multiplicative`: conj(ab) = conj(a) conj(b) for every a is
  the matrix identity M_b CONJ = CONJ M_conj(b), M_z the multiplication by
  z, and both sides are Z-linear in b, so b in {1, omega} decides it.  The
  norm a conj(a) of a = x + y omega is a quadratic form in (x, y), fixed by its values at 1,
  omega and 1 + omega: if all three are 1, its omega part vanishes and its
  integer part is x^2 - xy + y^2, which is positive definite;
- `hermitian_symmetry`: <v, u> = conj <u, v>, with conj(p + q omega) =
  (p - q) - q omega, is P = P^T - Q^T and Q = -Q^T;
- `hexaflection_preserves_form`: H P H^T = P and H Q H^T = Q;
- `hexaflection_axis_eigenvalue`: e H = (1 + omega) e, which is e (I + Omega);
- `hexaflection_order_six`, `triflection_order_three`: the first power of H,
  or of H^2, that is I.
"""

from __future__ import annotations

import numpy as np

from ..eisenstein import CONJ, OMEGA, forms, hexaflection_rows, scalar_rows
from . import check

# Null vectors of the hermitian form make bad mirrors; these all have
# self-pairing one.  Their integer coordinates x are the pairs (x, 0).
UNIT_AXES = np.kron([(0, 1, 0, 0), (0, 0, 0, 1), (1, 1, 1, 0), (1, 1, 0, 1)], (1, 0))


def _first_fixing_power(matrix: np.ndarray, limit: int) -> int:
    """Least k <= limit with matrix^k = I, else 0."""
    power = matrix
    for k in range(1, limit + 1):
        if (power == np.eye(len(matrix), dtype=np.int64)).all():
            return k
        power = power @ matrix
    return 0


@check("eisenstein", "unit_relation")
def _unit_relation(c):
    actual = not (OMEGA @ OMEGA + OMEGA + np.eye(2, dtype=np.int64)).any()
    return True, actual, "the generator is a primitive cube root of unity"


@check("eisenstein", "conjugation_multiplicative")
def _conjugation_multiplicative(c):
    products = all(
        (scalar_rows(b, 1) @ CONJ == CONJ @ scalar_rows(b @ CONJ, 1)).all()
        for b in np.eye(2, dtype=np.int64)
    )
    norms = [(z @ scalar_rows(z @ CONJ, 1)).tolist() for z in np.array([(1, 0), (0, 1), (1, 1)])]
    details = "conjugation respects products on {1, omega}^2; 1, omega, 1 + omega have norm one"
    return True, products and norms == [[1, 0]] * 3, details


@check("eisenstein", "hermitian_symmetry")
def _hermitian_symmetry(c):
    p, q = forms(4)
    ok = bool((p == p.T - q.T).all() and (q == -q.T).all())
    return True, ok, "hermitian symmetry of the signature (3,1) form on the Z-basis e_i, omega e_i"


@check("eisenstein", "hexaflection_preserves_form")
def _hexaflection_preserves_form(c):
    p, q = forms(4)
    ok = all(
        (h @ p @ h.T == p).all() and (h @ q @ h.T == q).all()
        for h in map(hexaflection_rows, UNIT_AXES)
    )
    return True, ok, "hexaflections are isometries of the hermitian form on e_0..e_3"


@check("eisenstein", "hexaflection_axis_eigenvalue")
def _hexaflection_axis_eigenvalue(c):
    ok = all((e @ hexaflection_rows(e) == e @ scalar_rows((1, 1), 4)).all() for e in UNIT_AXES)
    return True, ok, "the mirror normal is rotated by a primitive sixth root of unity"


@check("eisenstein", "hexaflection_order_six")
def _hexaflection_order_six(c):
    orders = {_first_fixing_power(h, 6) for h in map(hexaflection_rows, UNIT_AXES)}
    return {6}, orders, "sixth power is the first to fix e_0..e_3"


@check("eisenstein", "triflection_order_three")
def _triflection_order_three(c):
    orders = {_first_fixing_power(h @ h, 3) for h in map(hexaflection_rows, UNIT_AXES)}
    return {3}, orders, "the squared hexaflection has order three on e_0..e_3"
