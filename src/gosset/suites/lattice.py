"""The lattice suite: simple roots, the chamber, reflections and the congruence kernels.

`reflection_involution_n*` checks on a basis: reflections are linear and the
form bilinear, so the rows R of the images of e_0..e_n decide r(r(u)) = u,
as R^2 = I, and (r u, r v) = (u, v), as R J R^T = J.  Those two, with
r(alpha) = -alpha for each simple root, still pass -I; the fourth test, that
r(e_i) - e_i is a multiple of alpha for every i, rules it out.  All four
together force r = s_alpha: r u = u - f(u) alpha for a linear f, and
(r u, r alpha) = (u, alpha) with r alpha = -alpha gives f(u) = 2 (u, alpha) /
(alpha, alpha).
"""

from __future__ import annotations

import numpy as np

from ..isometry import congruence_intersection_check
from ..lattice import basis, chamber_vertices, gram, inner, norm, reflect, simple_roots
from . import STABILIZER_ORDERS, check

LATTICE_DIMS = tuple(range(2, 9))
CONGRUENCE_DIMS = tuple(range(2, 8))


@check("lattice", "simple_root_norms_n{n}", LATTICE_DIMS)
def _simple_root_norms(c):
    expected = [1, 2, 1] if c.n == 2 else [2] * c.n + [1]
    return expected, [norm(a) for a in simple_roots(c.n)], "norms of the simple mirror normals"


@check("lattice", "chamber_incidence_n{n}", LATTICE_DIMS)
def _chamber_incidence(c):
    roots, verts = simple_roots(c.n), chamber_vertices(c.n)
    off = all(inner(v, a) == 0 for j, v in enumerate(verts) for i, a in enumerate(roots) if i != j)
    diag = [inner(v, roots[j]) for j, v in enumerate(verts)]
    expected = {"off_diagonal_zero": True, "diagonal": [-1] * (c.n + 1)}
    actual = {"off_diagonal_zero": off, "diagonal": diag}
    return expected, actual, "vertex j lies on every wall except wall j"


@check("lattice", "vertex_norms_n{n}", LATTICE_DIMS)
def _vertex_norms(c):
    expected = [-1, 0, -2] + [j - 9 for j in range(3, c.n + 1)]
    actual = [norm(v) for v in chamber_vertices(c.n)]
    return expected, actual, "one ideal vertex, all others interior"


@check("lattice", "reflection_involution_n{n}", LATTICE_DIMS)
def _reflection_involution(c):
    j, identity = gram(c.n + 1), np.eye(c.n + 1, dtype=np.int64)
    ok = True
    for alpha in simple_roots(c.n):
        rows, a = np.array([reflect(alpha, u) for u in basis(c.n)]), np.array(alpha)
        moved = rows - identity  # row i, r(e_i) - e_i, is parallel to alpha iff its wedge is 0
        wedge = moved[:, :, None] * a - a[:, None] * moved[:, None]  # m_ip a_q - a_p m_iq
        ok = ok and reflect(alpha, alpha) == tuple(-a)
        ok = ok and bool((rows @ rows == identity).all() and (rows @ j @ rows.T == j).all())
        ok = ok and not wedge.any()
    return True, ok, "reflections square to one and preserve the form on e_0..e_n"


@check("lattice", "congruence_trivial_n{n}", CONGRUENCE_DIMS, gated=True)
def _congruence_trivial(c):
    result = congruence_intersection_check(c.n)
    expected = {
        "order": STABILIZER_ORDERS[c.n],
        "identity_only_mod2": True,
        "identity_only_mod3": True,
    }
    actual = {
        "order": result.order,
        "identity_only_mod2": result.congruent_mod2 == 1,
        "identity_only_mod3": result.congruent_mod3 == 1,
    }
    return expected, actual, "vertex stabilizer meets both congruence kernels trivially"
