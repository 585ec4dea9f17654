"""The E6 root system and its Petersen-labeled root configuration.

Roots live in simple-root coordinates: integer 6-tuples paired by the E6
Cartan matrix C, with simple roots labeled so that 1-2-3-4-5 is a chain and
node 6 hangs off node 3.  Every reflection here follows one rule,
reflection_rows(beta): on row vectors, s_beta(x) = x - (x, beta) beta is
x (I - (C beta) beta^T).  The orbit of the simple roots under the six simple
reflections is all 72 roots.

Ten of those roots, labeled by the Petersen graph nodes, realize the wall
diagram inside E6: their Gram matrix is 2 on the diagonal, 1 on Petersen
edges and 0 on non-edges, the alternating sum around every free hexagon
vanishes, and the ten reflections they define generate the full Weyl group,
of order 51840.  The ten root permutations are built once, by
beta_permutations(), and the configuration checks read them as integer
identities.  generation_order() orders the group they generate from a
stabilizer chain (Schreier-Sims), with no table.  The verify suite
certifies, with no table of its own (enumeration.verify_labelling), that the
lifted presentation's table is the permutations' on the orbit of the simple
roots' indices.  Both list the generators in label order, so that is an
explicit isomorphism sending each generator to its beta reflection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .isometry import _stabilizer_chain, memoize, orbit
from .presentation import diagram_graph, free_hexagons

RootCoeffs = tuple[int, int, int, int, int, int]

# chain 1-2-3-4-5 with node 6 attached to node 3
E6_EDGES = ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))
SIMPLE_ROOTS = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))


def cartan_matrix() -> tuple[tuple[int, ...], ...]:
    """2I minus the adjacency matrix of the E6 diagram."""
    c = 2 * np.eye(6, dtype=np.int64)
    for i, j in E6_EDGES:
        c[i - 1, j - 1] = c[j - 1, i - 1] = -1
    return tuple(map(tuple, c.tolist()))


def reflection_rows(beta: Sequence[int]) -> np.ndarray:
    """The reflection in beta on row vectors, as the integer matrix I - (C beta) beta^T.

    x - (x, beta) beta = x (I - (C beta) beta^T), since (x, beta) = x C beta.
    Raises ValueError unless (beta, beta) = 2.
    """
    b = np.array(beta, dtype=np.int64)
    c_beta = np.array(cartan_matrix()) @ b
    if c_beta @ b != 2:
        raise ValueError("reflections are defined for norm-2 vectors")
    return np.eye(6, dtype=np.int64) - np.outer(c_beta, b)


@dataclass(frozen=True)
class E6RootSystem:
    """All 72 roots with their exact pairing."""

    cartan: tuple[tuple[int, ...], ...]
    roots: tuple[RootCoeffs, ...]

    def root_index(self, x: RootCoeffs) -> int:
        try:
            return self.roots.index(x)
        except ValueError:
            raise ValueError(f"{x} is not a root") from None

    def is_root(self, x: RootCoeffs) -> bool:
        return x in self.roots

    def reflection_permutation(self, beta: RootCoeffs) -> tuple[int, ...]:
        """Index permutation of the 72 roots induced by reflecting in beta."""
        images = np.array(self.roots) @ reflection_rows(beta)
        return tuple(self.root_index(tuple(r)) for r in images.tolist())


@memoize
def root_system() -> E6RootSystem:
    """The orbit of the simple roots under simple reflections; exactly 72 roots."""
    reflections = np.array([reflection_rows(alpha) for alpha in SIMPLE_ROOTS])
    found = orbit(np.eye(6, dtype=np.int64), lambda f: f @ reflections)
    roots = tuple(sorted(map(tuple, found.tolist())))
    if len(roots) != 72:
        raise AssertionError(f"expected 72 roots, closure found {len(roots)}")
    return E6RootSystem(cartan_matrix(), roots)


@memoize
def beta_configuration() -> dict[str, RootCoeffs]:
    """The ten roots labeled by Petersen nodes realizing the wall diagram."""
    betas = {
        "13": (-1, 0, 0, 0, 0, 0),
        "1": (0, 1, 0, 0, 0, 0),
        "14": (0, 0, -1, 0, 0, 0),
        "4": (0, 0, 0, 1, 0, 0),
        "34": (0, 0, 0, 0, -1, 0),
        "23": (0, 0, 0, 0, 0, 1),
        "3": (-1, -1, -1, -1, -1, 0),
        "24": (0, 1, 2, 2, 1, 1),
        "2": (1, 2, 3, 2, 1, 2),
        "12": (1, 2, 2, 1, 0, 1),
    }
    order = diagram_graph("petersen").nodes
    return {lab: betas[lab] for lab in order}


def verify_membership() -> bool:
    """Every labeled beta is one of the 72 roots, and they are distinct."""
    rs = root_system()
    betas = beta_configuration()
    return len(set(betas.values())) == 10 and all(rs.is_root(b) for b in betas.values())


def verify_petersen_gram() -> bool:
    """Gram of the betas, B C B^T, is 2I plus the adjacency matrix of the Petersen graph."""
    g = diagram_graph("petersen")
    b = np.array(list(beta_configuration().values()))
    adjacency = np.array([[g.adjacent(u, v) for v in g.nodes] for u in g.nodes], dtype=np.int64)
    gram = b @ np.array(cartan_matrix()) @ b.T
    return np.array_equal(gram, 2 * np.eye(10, dtype=np.int64) + adjacency)


def hexagon_alternating_sum(
    hexagon: tuple[str, ...], betas: dict[str, RootCoeffs]
) -> RootCoeffs:
    """beta_a - beta_b + beta_c - beta_d + beta_e - beta_f around a hexagon."""
    if len(hexagon) != 6:
        raise ValueError("hexagon must have six nodes")
    total = np.array((1, -1) * 3) @ np.array([betas[lab] for lab in hexagon])
    return tuple(total.tolist())


def verify_hexagon_sums() -> bool:
    """The alternating sum vanishes around every free hexagon, in any traversal.

    One traversal per hexagon decides all 12: a one-step rotation or a
    reversal moves every node to a position of the other parity (the length
    6 is even), so each negates the sum, and the two generate all traversals.
    """
    betas = beta_configuration()
    hexagons = free_hexagons(diagram_graph("petersen"))
    return all(hexagon_alternating_sum(h, betas) == (0,) * 6 for h in hexagons)


@memoize
def beta_permutations() -> np.ndarray:
    """Root permutations of the ten beta reflections: (10, 72), rows in label order.

    Cached and read-only: every caller shares the one array.
    """
    rs = root_system()
    perms = np.array([rs.reflection_permutation(b) for b in beta_configuration().values()])
    perms.flags.writeable = False
    return perms


@memoize
def generation_order() -> int:
    """Order of the group the ten beta reflections generate on the 72 roots,
    from a stabilizer chain of their permutations."""
    _, order = _stabilizer_chain(beta_permutations())
    return order


def verify_reflection_fixed_points() -> bool:
    """Each beta reflection fixes exactly the roots whose pairing with its beta is 0."""
    rs = root_system()
    b = np.array(list(beta_configuration().values()))
    pairings = b @ np.array(rs.cartan) @ np.array(rs.roots).T
    return np.array_equal(beta_permutations() == np.arange(72), pairings == 0)


def verify_singletons_commute() -> bool:
    """Reflections at the singleton labels pairwise commute (Gram 0): p[q] = q[p]."""
    singles = [k for k, lab in enumerate(beta_configuration()) if len(lab) == 1]
    perms = beta_permutations()[singles]
    composed = perms[:, perms]  # composed[a, b] = perms[a][perms[b]]
    return np.array_equal(composed, composed.swapaxes(0, 1))
