"""The E6 root system and its Petersen-labeled root configuration.

Roots live in simple-root coordinates: integer 6-tuples paired by the E6
Cartan matrix, with simple roots labeled so that 1-2-3-4-5 is a chain and
node 6 hangs off node 3.  The orbit of the simple roots under the simple
reflections is all 72 roots.

Ten of those roots, labeled by the Petersen graph nodes, realize the wall
diagram inside E6: their Gram matrix is 2 on the diagonal, 1 on Petersen
edges and 0 on non-edges, the alternating sum around every free hexagon
vanishes, and the ten reflections they define generate the full Weyl group,
of order 51840.  That order is cross-checked elsewhere against coset
enumeration and the mod-3 matrix closure; here it is the size of the orbit,
under left multiplication by the root permutations, of the index tuple of
the six simple roots: they span the root space, so their images fix a group
element.  Both orbits run on orbit() from the isometry module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .isometry import DEFAULT_ELEMENT_BUDGET, memoize, orbit
from .presentation import DiagramGraph, diagram_graph, free_hexagons

RootCoeffs = tuple[int, int, int, int, int, int]

# chain 1-2-3-4-5 with node 6 attached to node 3
E6_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))
SIMPLE_ROOTS = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))


def cartan_matrix() -> tuple[tuple[int, ...], ...]:
    rows = []
    for i in range(1, 7):
        row = []
        for j in range(1, 7):
            if i == j:
                row.append(2)
            elif (i, j) in E6_EDGES or (j, i) in E6_EDGES:
                row.append(-1)
            else:
                row.append(0)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class E6RootSystem:
    """All 72 roots with exact pairing and reflection action."""

    cartan: tuple[tuple[int, ...], ...]
    roots: tuple[RootCoeffs, ...]

    def pairing(self, x: RootCoeffs, y: RootCoeffs) -> int:
        c = self.cartan
        return sum(x[i] * c[i][j] * y[j] for i in range(6) for j in range(6))

    def reflect(self, beta: RootCoeffs, x: RootCoeffs) -> RootCoeffs:
        if self.pairing(beta, beta) != 2:
            raise ValueError("reflections are defined for norm-2 vectors")
        k = self.pairing(x, beta)
        return tuple(a - k * b for a, b in zip(x, beta))

    def root_index(self, x: RootCoeffs) -> int:
        try:
            return self.roots.index(x)
        except ValueError:
            raise ValueError(f"{x} is not a root") from None

    def is_root(self, x: RootCoeffs) -> bool:
        return x in self.roots

    def reflection_permutation(self, beta: RootCoeffs) -> tuple[int, ...]:
        """Index permutation of the 72 roots induced by reflecting in beta."""
        return tuple(self.root_index(self.reflect(beta, r)) for r in self.roots)


@memoize
def root_system() -> E6RootSystem:
    """The orbit of the simple roots under simple reflections; exactly 72 roots.

    On rows, s_j(x) = x - (x, alpha_j) alpha_j = x R_j, R_j[i][k] = delta_ik - C_ij delta_jk.
    """
    cartan = cartan_matrix()
    eye = np.eye(6, dtype=np.int64)
    reflections = eye - np.array(cartan).T[:, :, None] * eye[:, None, :]
    found = orbit(eye, lambda f: f @ reflections, 1000)
    roots = tuple(sorted(map(tuple, found.tolist())))
    if len(roots) != 72:
        raise AssertionError(f"expected 72 roots, closure found {len(roots)}")
    return E6RootSystem(cartan, roots)


def _combo(coeffs: dict[int, int]) -> RootCoeffs:
    return tuple(coeffs.get(i, 0) for i in range(1, 7))


@memoize
def beta_configuration() -> dict[str, RootCoeffs]:
    """The ten roots labeled by Petersen nodes realizing the wall diagram."""
    betas = {
        "13": _combo({1: -1}),
        "1": _combo({2: 1}),
        "14": _combo({3: -1}),
        "4": _combo({4: 1}),
        "34": _combo({5: -1}),
        "23": _combo({6: 1}),
        "3": _combo({1: -1, 2: -1, 3: -1, 4: -1, 5: -1}),
        "24": _combo({2: 1, 3: 2, 4: 2, 5: 1, 6: 1}),
        "2": _combo({1: 1, 2: 2, 3: 3, 4: 2, 5: 1, 6: 2}),
        "12": _combo({1: 1, 2: 2, 3: 2, 4: 1, 6: 1}),
    }
    order = diagram_graph("petersen").nodes
    return {lab: betas[lab] for lab in order}


def verify_membership() -> bool:
    """Every labeled beta is one of the 72 roots, and they are distinct."""
    rs = root_system()
    betas = beta_configuration()
    return len(set(betas.values())) == 10 and all(rs.is_root(b) for b in betas.values())


def verify_petersen_gram() -> bool:
    """Gram of the betas: diagonal 2, edges 1, non-edges 0."""
    rs = root_system()
    g = diagram_graph("petersen")
    betas = beta_configuration()
    for a in g.nodes:
        for b in g.nodes:
            want = 2 if a == b else (1 if g.adjacent(a, b) else 0)
            if rs.pairing(betas[a], betas[b]) != want:
                return False
    return True


def hexagon_alternating_sum(
    hexagon: tuple[str, ...], betas: dict[str, RootCoeffs]
) -> RootCoeffs:
    """beta_a - beta_b + beta_c - beta_d + beta_e - beta_f around a hexagon."""
    if len(hexagon) != 6:
        raise ValueError("hexagon must have six nodes")
    total = (0,) * 6
    for k, lab in enumerate(hexagon):
        sign = 1 if k % 2 == 0 else -1
        total = tuple(t + sign * c for t, c in zip(total, betas[lab]))
    return total


def verify_hexagon_sums() -> bool:
    """The alternating sum vanishes around every free hexagon, any traversal.

    Vanishing for one traversal forces it for all 12 (rotations negate or
    permute the same sum), but the traversals of the first hexagon are all
    checked explicitly anyway.
    """
    g = diagram_graph("petersen")
    betas = beta_configuration()
    hexes = free_hexagons(g)
    zero = (0,) * 6
    for h in hexes:
        if hexagon_alternating_sum(h, betas) != zero:
            return False
    first = list(hexes[0])
    for _ in range(2):
        for r in range(6):
            rotated = tuple(first[r:] + first[:r])
            if hexagon_alternating_sum(rotated, betas) != zero:
                return False
        first.reverse()
    return True


def _inverse_closed(gens: np.ndarray) -> bool:
    """Does the set hold the inverse of each of its permutations?"""
    present = {g.tobytes() for g in gens}
    inverses = np.argsort(gens, axis=1).astype(gens.dtype)
    return all(inv.tobytes() in present for inv in inverses)


def permutation_closure_order(perms: Sequence[Sequence[int]], basis: Sequence[int]) -> int:
    """Order of the group generated by root permutations, as the orbit of a basis.

    The permutations must be induced by linear maps on the span of the roots
    (reflections are), and basis must index roots that span it: a linear map
    that fixes a spanning set is the identity, so the index tuple of the basis
    has a trivial stabilizer, and its orbit under left multiplication, g[F],
    has one point per group element.  Each point is its own key (at most
    eight indices, each below 128; E6 has six simple roots among 72).  The
    generator set must be closed under inversion.  The orbit fails fast past
    DEFAULT_ELEMENT_BUDGET points.
    """
    gens = np.array(perms, dtype=np.uint8)
    if not _inverse_closed(gens):
        raise ValueError("generator set must be closed under inversion")
    seed = np.array([basis], dtype=np.uint8)
    return len(orbit(seed, lambda f: gens[:, f], DEFAULT_ELEMENT_BUDGET))


@memoize
def generation_order() -> int:
    """Order of the group the ten beta reflections generate on the 72 roots.

    Cached: the permutation closure runs once per process.
    """
    rs = root_system()
    perms = [rs.reflection_permutation(b) for b in beta_configuration().values()]
    basis = [rs.root_index(r) for r in SIMPLE_ROOTS]
    return permutation_closure_order(perms, basis)


def verify_reflection_fixed_points() -> bool:
    """Each beta reflection fixes exactly the roots orthogonal to it."""
    rs = root_system()
    for beta in beta_configuration().values():
        perm = rs.reflection_permutation(beta)
        for i, r in enumerate(rs.roots):
            if (perm[i] == i) != (rs.pairing(r, beta) == 0):
                return False
    return True


def verify_singletons_commute() -> bool:
    """Reflections at the singleton labels pairwise commute (Gram 0)."""
    rs = root_system()
    betas = beta_configuration()
    singles = [lab for lab in betas if len(lab) == 1]
    perms = {lab: rs.reflection_permutation(betas[lab]) for lab in singles}
    for i, a in enumerate(singles):
        for b in singles[i + 1 :]:
            pa, pb = perms[a], perms[b]
            ab = tuple(pa[pb[k]] for k in range(72))
            ba = tuple(pb[pa[k]] for k in range(72))
            if ab != ba:
                return False
    return True
