"""The lattice suite: simple roots, the chamber, reflections and the congruence kernels.

`reflection_involution_n*` checks on a basis: reflections are linear and the
form bilinear, so the matrix M of the images of e_0..e_n decides both
r(r(u)) = u, as M^2 = I, and (r u, r v) = (u, v), as M^T J M = J;
r(alpha) = -alpha for each simple root rules out the identity map, which
passes both.
"""

from __future__ import annotations

from ..isometry import Matrix, congruence_intersection_check, lorentz_gram
from ..lattice import basis, chamber_vertices, inner, norm, reflect, simple_roots
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
    vectors, gram, identity = basis(c.n), lorentz_gram(c.n + 1), Matrix.identity(c.n + 1)
    ok = True
    for alpha in simple_roots(c.n):
        columns = tuple(reflect(alpha, u).coords for u in vectors)
        mat = Matrix(tuple(zip(*columns)))
        ok = ok and reflect(alpha, alpha) == -alpha
        ok = ok and mat @ mat == identity and Matrix(columns) @ gram @ mat == gram
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
