"""Coxeter diagrams of the wall systems and their deflated presentations.

The parallel-wall graphs for n = 2, 3, 4 are the path on three nodes, the
labeled hexagon, and the Petersen graph.  Each diagram yields a Coxeter-like
presentation on involutions t_i: commuting relators (t_i t_j)^2 for
non-edges, braid relators (t_i t_j)^3 for edges, plus one extra "deflation"
relator

    a b c d e f e d c b

for every free hexagon (induced 6-cycle) a-b-c-d-e-f.  Deflation collapses
the infinite Coxeter group onto the finite mod-3 quotient; dropping it is
the negative control.

The braid relator for parallel walls is not a Coxeter relation over Z: it
holds only mod 3, and the module exposes the exact integer obstruction

    (s_b s_a s_b - s_a s_b s_a) lam = 6 (lam, a) a - 6 (lam, b) b

for norm-1 roots with (a, b) = -1, checkable on any vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .lattice import Root, inner, norm, reflection_rows
from .geometry import GossetWallSystem, wall_pair_classification
from .isometry import Matrix, memoize

Word = tuple[str, ...]

DIAGRAM_KINDS = ("a3", "affine_a5", "petersen")


@dataclass(frozen=True)
class DiagramGraph:
    """Finite simple graph with string node labels; edges stored sorted."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if a >= b or a not in self.nodes or b not in self.nodes:
                raise ValueError("edges must be sorted pairs of known nodes")

    def adjacent(self, a: str, b: str) -> bool:
        return tuple(sorted((a, b))) in self.edges

    def neighbors(self, a: str) -> tuple[str, ...]:
        return tuple(b for b in self.nodes if b != a and self.adjacent(a, b))

    def girth(self) -> int:
        """Length of a shortest cycle, by BFS from every node."""
        best = 0
        for start in self.nodes:
            dist = {start: 0}
            parent = {start: None}
            queue = [start]
            while queue:
                v = queue.pop(0)
                for w in self.neighbors(v):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        parent[w] = v
                        queue.append(w)
                    elif parent[v] != w:
                        cycle = dist[v] + dist[w] + 1
                        if best == 0 or cycle < best:
                            best = cycle
        return best

    def to_dot(self, name: str) -> str:
        lines = [f"graph {name} {{"]
        for node in self.nodes:
            lines.append(f'  "{node}";')
        for a, b in sorted(self.edges):
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def diagram_graph(kind: str) -> DiagramGraph:
    """The three wall diagrams: a3 path, labeled hexagon, petersen."""
    if kind == "a3":
        return DiagramGraph(("1", "2", "3"), frozenset({("1", "3"), ("2", "3")}))
    if kind == "affine_a5":
        nodes = tuple(str(i) for i in range(1, 7))
        ring = [("1", "4"), ("4", "2"), ("2", "5"), ("5", "3"), ("3", "6"), ("6", "1")]
        return DiagramGraph(nodes, frozenset(tuple(sorted(e)) for e in ring))
    if kind == "petersen":
        singles = [str(i) for i in range(1, 5)]
        pairs = ["".join(map(str, jk)) for jk in combinations(range(1, 5), 2)]
        nodes = tuple(singles + pairs)
        edges = set()
        for i in singles:
            for jk in pairs:
                if i in jk:
                    edges.add(tuple(sorted((i, jk))))
        for p, q in combinations(pairs, 2):
            if not set(p) & set(q):
                edges.add(tuple(sorted((p, q))))
        return DiagramGraph(nodes, frozenset(edges))
    raise ValueError(f"unknown diagram kind {kind!r}, expected one of {DIAGRAM_KINDS}")


def diagram_from_gram(walls: GossetWallSystem) -> DiagramGraph:
    """Diagram read off the wall pairings: an edge where walls pair to -1."""
    edges = frozenset(tuple(sorted(pair)) for pair in wall_pair_classification(walls).parallel)
    return DiagramGraph(walls.labels, edges)


def diagram_automorphism_order(g: DiagramGraph) -> int:
    """Count graph automorphisms by exhaustive degree-pruned backtracking."""
    nodes = list(g.nodes)
    k = len(nodes)
    adj = [[g.adjacent(a, b) for b in nodes] for a in nodes]
    deg = [sum(row) for row in adj]

    def extend(image: list[int], used: list[bool]) -> int:
        i = len(image)
        if i == k:
            return 1
        total = 0
        for cand in range(k):
            if used[cand] or deg[cand] != deg[i]:
                continue
            if all(adj[i][j] == adj[cand][image[j]] for j in range(i)):
                image.append(cand)
                used[cand] = True
                total += extend(image, used)
                image.pop()
                used[cand] = False
        return total

    return extend([], [False] * k)


def _canonical_cycle(cycle: Sequence[str]) -> tuple[str, ...]:
    seqs = []
    forward = list(cycle)
    backward = list(reversed(forward))
    for base in (forward, backward):
        for r in range(len(base)):
            seqs.append(tuple(base[r:] + base[:r]))
    return min(seqs)


@memoize
def free_hexagons(g: DiagramGraph) -> tuple[tuple[str, ...], ...]:
    """All induced 6-cycles, one canonical traversal each, sorted; cached,
    as it depends on the graph's value alone.

    The canonical form is the lexicographically smallest of the 12 rotations
    and reflections of the cyclic node list.
    """
    adj = {a: set(g.neighbors(a)) for a in g.nodes}
    found: set[tuple[str, ...]] = set()

    def extend(path: tuple[str, ...]) -> None:
        if len(path) == 6:
            if path[0] in adj[path[-1]] and _chordless(path, g):
                found.add(_canonical_cycle(path))
            return
        for nxt in g.nodes:
            if nxt not in path and nxt in adj[path[-1]]:
                extend(path + (nxt,))

    for v in g.nodes:
        extend((v,))
    return tuple(sorted(found))


def deflation_relator(hexagon: Sequence[str], g: DiagramGraph) -> Word:
    """The length-10 word a b c d e f e d c b for a free hexagon a-b-c-d-e-f."""
    hexagon = tuple(hexagon)
    if len(hexagon) != 6 or len(set(hexagon)) != 6:
        raise ValueError("hexagon must list six distinct nodes")
    for i in range(6):
        if not g.adjacent(hexagon[i], hexagon[(i + 1) % 6]):
            raise ValueError("consecutive hexagon nodes must be adjacent")
    if not _chordless(hexagon, g):
        raise ValueError("hexagon must be an induced 6-cycle")
    a, b, c, d, e, f = hexagon
    return (a, b, c, d, e, f, e, d, c, b)


def _chordless(cycle: tuple[str, ...], g: DiagramGraph) -> bool:
    """Whether no two nodes of the 6-cycle are adjacent in g but consecutive
    ones, 0 and 5 included: the cycle is induced."""
    return not any(
        g.adjacent(cycle[i], cycle[j]) for i, j in combinations(range(6), 2) if 1 < j - i < 5
    )


@dataclass(frozen=True)
class Presentation:
    """Involutive generators with relator words over the generator alphabet."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]


def build_presentation(kind: str, deflate: bool = True) -> Presentation:
    """Presentation from a diagram: involutions, commuting and braid relators,
    plus one deflation relator per free hexagon unless deflate=False."""
    g = diagram_graph(kind)
    relators: list[Word] = [(a, a) for a in g.nodes]
    for a, b in combinations(g.nodes, 2):
        if g.adjacent(a, b):
            relators.append((a, b, a, b, a, b))
        else:
            relators.append((a, b, a, b))
    if deflate:
        for hexagon in free_hexagons(g):
            relators.append(deflation_relator(hexagon, g))
    return Presentation(g.nodes, tuple(relators))


def tits_form(g: DiagramGraph, v: Mapping[str, int]) -> int:
    """v^T (2B) v, for the Tits form B of the Coxeter group of g without
    deflation: m = 3 on edges and 2 off them, so 2B = 2I - A(g) is integral.

    A finite Coxeter group has a positive definite Tits form (Humphreys,
    Reflection Groups and Coxeter Groups, section 6.4), so a value <= 0 at
    some v != 0 proves the group infinite.
    """
    return 2 * sum(v[a] ** 2 for a in g.nodes) - 2 * sum(v[a] * v[b] for a, b in g.edges)


def evaluate_word(word: Word, assignment: Mapping[str, Matrix]) -> Matrix:
    """Left-to-right product of the assigned matrices; the empty word is the
    identity of their ring."""
    if not assignment:
        raise ValueError("assignment must cover at least one generator")
    sample = next(iter(assignment.values()))
    out = Matrix.identity(sample.dimension, sample.modulus)
    for letter in word:
        if letter not in assignment:
            raise ValueError(f"word uses unassigned generator {letter!r}")
        out = out @ assignment[letter]
    return out


def braid_identity_check(alpha: Root, beta: Root, lam: Sequence[int]) -> bool:
    """Exact integer identity controlling the mod-3 braid relation.

    For norm-1 roots with (alpha, beta) = -1, applying s_beta s_alpha s_beta
    minus s_alpha s_beta s_alpha to lam must equal
    6 (lam, alpha) alpha - 6 (lam, beta) beta.
    """
    if norm(alpha) != 1 or norm(beta) != 1:
        raise ValueError("braid identity needs norm-1 roots")
    if inner(alpha, beta) != -1:
        raise ValueError("braid identity needs roots pairing to -1")
    s_a, s_b = reflection_rows(alpha), reflection_rows(beta)
    lhs = np.asarray(lam) @ (s_b @ s_a @ s_b - s_a @ s_b @ s_a)
    rhs = 6 * inner(lam, alpha) * np.asarray(alpha) - 6 * inner(lam, beta) * np.asarray(beta)
    return lhs.tolist() == rhs.tolist()


def presentation_to_text(p: Presentation) -> str:
    """One relator per line, letters separated by dots."""
    return "\n".join(".".join(w) for w in p.relators) + "\n"


def presentation_from_text(text: str) -> Presentation:
    """Parse the dotted relator format; generators in order of first appearance."""
    relators: list[Word] = []
    seen: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word = tuple(line.split("."))
        if any(not letter for letter in word):
            raise ValueError(f"malformed relator line {line!r}")
        relators.append(word)
        for letter in word:
            if letter not in seen:
                seen.append(letter)
    return Presentation(tuple(seen), tuple(relators))


def petersen_kneser_check() -> bool:
    """Petersen adjacency is disjointness of 2-subsets of {1..5}.

    Singleton node i maps to {i, 5}; pair node jk maps to {1..4} minus
    {j, k}.  The map must carry edges to disjoint pairs and non-edges to
    meeting pairs.
    """
    g = diagram_graph("petersen")
    image: dict[str, frozenset[int]] = {}
    for node in g.nodes:
        if len(node) == 1:
            image[node] = frozenset({int(node), 5})
        else:
            image[node] = frozenset(range(1, 5)) - {int(c) for c in node}
    if len(set(image.values())) != len(g.nodes):
        return False
    for a, b in combinations(g.nodes, 2):
        if g.adjacent(a, b) != (not image[a] & image[b]):
            return False
    return True
