"""Exact integer arithmetic on the odd unimodular Lorentzian lattice Z^{n,1}.

The lattice has basis e_0, e_1, ..., e_n with pairing

    (e_0, e_0) = -1,    (e_i, e_i) = +1 for i >= 1,    (e_i, e_j) = 0 otherwise.

Vectors are immutable integer coordinate tuples.  Roots are vectors of norm
1 or 2; reflection in a root alpha sends lam to

    lam - 2 (lam, alpha) / (alpha, alpha) * alpha

which is always integral for norms 1 and 2.  The module also knows the
distinguished simple roots of the reflection subgroup of O+(Z^{n,1}) and the
vertices of its fundamental chamber, both needed downstream for walls,
finite stabilizers and tessellations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class LatticeVector:
    """Point of Z^{n,1} as a coordinate tuple (x_0, x_1, ..., x_n)."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) < 2:
            raise ValueError("need at least coordinates (x_0, x_1)")
        if not all(isinstance(c, int) for c in self.coords):
            raise ValueError("coordinates must be integers")

    @property
    def n(self) -> int:
        """Spatial dimension: the lattice is Z^{n,1} with n+1 coordinates."""
        return len(self.coords) - 1

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        _same_dimension(self, other)
        return LatticeVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        _same_dimension(self, other)
        return LatticeVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "LatticeVector":
        if not isinstance(k, int):
            return NotImplemented
        return LatticeVector(tuple(k * a for a in self.coords))

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)


# A Root is a LatticeVector of norm 1 or 2; use root() to build one checked.
Root = LatticeVector


def _same_dimension(u: LatticeVector, v: LatticeVector) -> None:
    if len(u.coords) != len(v.coords):
        raise ValueError("dimension mismatch")


def vector(*coords: int) -> LatticeVector:
    """Build a lattice vector from coordinates (x_0, x_1, ..., x_n)."""
    return LatticeVector(tuple(coords))


def basis_vector(i: int, n: int) -> LatticeVector:
    """The basis vector e_i of Z^{n,1}, 0 <= i <= n."""
    if not 0 <= i <= n:
        raise ValueError(f"basis index {i} out of range for n={n}")
    return LatticeVector(tuple(1 if j == i else 0 for j in range(n + 1)))


def basis(n: int) -> list[LatticeVector]:
    """The basis e_0, ..., e_n of Z^{n,1}."""
    return [basis_vector(i, n) for i in range(n + 1)]


def inner(u: LatticeVector, v: LatticeVector) -> int:
    """Lorentzian pairing -u_0 v_0 + u_1 v_1 + ... + u_n v_n."""
    _same_dimension(u, v)
    s = -u.coords[0] * v.coords[0]
    for a, b in zip(u.coords[1:], v.coords[1:]):
        s += a * b
    return s


def norm(v: LatticeVector) -> int:
    """Self-pairing (v, v)."""
    return inner(v, v)


def root(v: LatticeVector | Sequence[int]) -> Root:
    """Validate that v has norm 1 or 2 and return it as a root."""
    if not isinstance(v, LatticeVector):
        v = LatticeVector(tuple(v))
    if norm(v) not in (1, 2):
        raise ValueError(f"root must have norm 1 or 2, got {norm(v)}")
    return v


def reflect(alpha: Root, lam: LatticeVector) -> LatticeVector:
    """Reflection of lam in the mirror orthogonal to the root alpha.

    For norms 1 and 2 the coefficient 2 (lam, alpha) / (alpha, alpha) is an
    integer, so the reflection preserves the lattice.
    """
    nrm = norm(alpha)
    if nrm not in (1, 2):
        raise ValueError(f"root must have norm 1 or 2, got {nrm}")
    coeff = 2 * inner(lam, alpha) // nrm
    return lam - coeff * alpha


def simple_roots(n: int) -> list[Root]:
    """Simple roots alpha_0, ..., alpha_n of the reflection subgroup of O+(Z^{n,1}).

    alpha_i = e_i - e_{i+1} for 1 <= i <= n-1 and alpha_n = e_n (norm 1);
    alpha_0 is e_0 - e_1 - e_2 - e_3 (norm 2) for n >= 3 and the norm-1 root
    e_0 - e_1 - e_2 for n = 2.
    """
    if not 2 <= n <= 8:
        raise ValueError(f"n must be between 2 and 8, got {n}")
    e = basis(n)
    if n == 2:
        alpha0 = e[0] - e[1] - e[2]
    else:
        alpha0 = e[0] - e[1] - e[2] - e[3]
    roots = [alpha0]
    roots.extend(e[i] - e[i + 1] for i in range(1, n))
    roots.append(e[n])
    return [root(r) for r in roots]


def chamber_vertices(n: int) -> list[LatticeVector]:
    """Vertices v_0, ..., v_n of the fundamental chamber in Z^{n,1}.

    v_0 = e_0, v_1 = e_0 - e_1 (the one ideal vertex, norm 0),
    v_2 = 2 e_0 - e_1 - e_2 and v_j = 3 e_0 - e_1 - ... - e_j for j >= 3.
    Vertex v_i pairs to zero with every simple root alpha_j except j = i.
    """
    if not 2 <= n <= 8:
        raise ValueError(f"n must be between 2 and 8, got {n}")
    e = basis(n)
    verts = [e[0], e[0] - e[1], 2 * e[0] - e[1] - e[2]]
    for j in range(3, n + 1):
        v = 3 * e[0]
        for i in range(1, j + 1):
            v = v - e[i]
        verts.append(v)
    return verts
