"""Eisenstein integers Z[omega] and hexaflections, as integer matrices.

omega is a primitive cube root of unity, so omega^2 = -1 - omega.  The ring
element a + b*omega is the integer row (a, b), and a vector of Z[omega]^d is
the row of its 2d integers.  Multiplication by omega and conjugation act on
rows by OMEGA and CONJ.  The sesquilinear form

    <u, v> = -u_0 conj(v_0) + u_1 conj(v_1) + ... + u_{d-1} conj(v_{d-1})

conjugate-linear in the second slot, is p + q*omega with p = u P v^T and
q = u Q v^T, for the two Gram matrices of forms(d).  A norm-one vector e
defines the hexaflection

    h_e(l) = l - (omega^2 + 1) <l, e> e = l + omega <l, e> e

a unitary map of order exactly six whose square has order three (a
triflection).  On rows it is one rank-two update of the identity, as
e6.reflection_rows is one rank-one update.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# (a + b omega) omega = -b + (a - b) omega, and conj(omega) = omega^2 = -1 - omega.
OMEGA = np.array([[0, 1], [-1, -1]], dtype=np.int64)
CONJ = np.array([[1, 0], [-1, -1]], dtype=np.int64)
OMEGA.flags.writeable = CONJ.flags.writeable = False


def forms(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrices P, Q of the signature (d-1, 1) form on Z[omega]^d.

    table[x, y] is the pair x conj(y) for x, y in {1, omega}: conj(y) is
    row y of CONJ, and omega conj(y) is row y of CONJ OMEGA.  P and Q take
    its omega^0 and omega^1 parts.
    """
    table = np.stack([CONJ, CONJ @ OMEGA])
    signs = np.diag([-1] + [1] * (d - 1))
    return np.kron(signs, table[..., 0]), np.kron(signs, table[..., 1])


def scalar_rows(z: Sequence[int], d: int) -> np.ndarray:
    """Multiplication by the ring element z on Z[omega]^d: I_d (x) (z_0 I + z_1 OMEGA)."""
    return np.kron(np.eye(d, dtype=np.int64), z[0] * np.eye(2, dtype=np.int64) + z[1] * OMEGA)


def hexaflection_rows(e: Sequence[int]) -> np.ndarray:
    """The hexaflection in e on row vectors: I + (P e)(e Omega) + (Q e)(e Omega^2).

    l + omega <l, e> e is l plus p (omega e) + q (omega^2 e), where
    <l, e> = p + q omega = l P e^T + (l Q e^T) omega, and Omega is
    scalar_rows(omega, d).  The dimension d is len(e) / 2.  Raises ValueError
    unless <e, e> = 1.
    """
    e = np.array(e, dtype=np.int64)
    d = len(e) // 2
    p, q = forms(d)
    if (e @ p @ e, e @ q @ e) != (1, 0):
        raise ValueError("hexaflection axis must have norm one")
    omega = scalar_rows((0, 1), d)
    update = np.outer(p @ e, e @ omega) + np.outer(q @ e, e @ omega @ omega)
    return np.eye(2 * d, dtype=np.int64) + update
