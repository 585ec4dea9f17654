"""Exact integer arithmetic on the odd unimodular Lorentzian lattice Z^{n,1}.

The lattice has basis e_0, e_1, ..., e_n and Gram matrix

    J = gram(n + 1) = diag(-1, 1, ..., 1),

so (u, v) = u J v^T.  A vector is a tuple of Python ints (x_0, x_1, ..., x_n),
and matrices act on the right of rows.  Roots are vectors of norm 1 or 2.
The one reflection rule is coroot(alpha), the row c = 2 J alpha / (alpha,
alpha), integral for norms 1 and 2: reflection in alpha sends lam to

    lam - 2 (lam, alpha) / (alpha, alpha) * alpha = lam - (lam . c) alpha,

the rows R = I - c^T alpha of reflection_rows (Humphreys, Reflection Groups
and Coxeter Groups, 5.3).  The module also knows the distinguished simple
roots of the reflection subgroup of O+(Z^{n,1}) and the vertices of its
fundamental chamber, both needed downstream for walls, finite stabilizers
and tessellations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Vector = tuple[int, ...]

# A Root is a Vector of norm 1 or 2; use root() to build one checked.
Root = Vector


def gram(d: int) -> np.ndarray:
    """The Gram matrix J = diag(-1, 1, ..., 1) of Z^{d-1,1}, int64."""
    j = np.eye(d, dtype=np.int64)
    j[0, 0] = -1
    return j


def basis(n: int) -> list[Vector]:
    """The basis e_0, ..., e_n of Z^{n,1}."""
    return [tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)]


def inner(u: Sequence[int], v: Sequence[int]) -> int:
    """Lorentzian pairing u J v^T = -u_0 v_0 + u_1 v_1 + ... + u_n v_n."""
    return int(np.asarray(u) @ gram(len(u)) @ np.asarray(v))


def norm(v: Sequence[int]) -> int:
    """Self-pairing (v, v)."""
    return inner(v, v)


def root(v: Sequence[int]) -> Root:
    """Validate that v has integer coordinates, at least two, and norm 1 or 2."""
    v = tuple(v)
    if len(v) < 2:
        raise ValueError("need at least coordinates (x_0, x_1)")
    if not all(isinstance(c, int) for c in v):
        raise ValueError("coordinates must be integers")
    if norm(v) not in (1, 2):
        raise ValueError(f"root must have norm 1 or 2, got {norm(v)}")
    return v


def coroot(alpha: Sequence[int]) -> np.ndarray:
    """The int64 row c = 2 J alpha / (alpha, alpha), with lam . c = 2 (lam,
    alpha) / (alpha, alpha); ValueError unless (alpha, alpha) is 1 or 2."""
    a = np.asarray(alpha)
    j_alpha = gram(len(a)) @ a
    alpha_norm = int(j_alpha @ a)
    if alpha_norm not in (1, 2):
        raise ValueError(f"root must have norm 1 or 2, got {alpha_norm}")
    return 2 // alpha_norm * j_alpha


def reflection_rows(alpha: Root) -> np.ndarray:
    """The int64 rows R = I - c^T alpha of the reflection in alpha, c its
    coroot: lam R is the reflection of the row lam."""
    return np.eye(len(alpha), dtype=np.int64) - np.outer(coroot(alpha), alpha)


def reflect(alpha: Root, lam: Sequence[int]) -> Vector:
    """Reflection of lam in the mirror orthogonal to the root alpha: lam R,
    summed as lam - (lam . c) alpha."""
    k = int(np.dot(lam, coroot(alpha)))
    return tuple(x - k * a for x, a in zip(lam, alpha))


def simple_roots(n: int) -> list[Root]:
    """Simple roots alpha_0, ..., alpha_n of the reflection subgroup of O+(Z^{n,1}).

    alpha_i = e_i - e_{i+1} for 1 <= i <= n-1 and alpha_n = e_n (norm 1);
    alpha_0 is e_0 - e_1 - e_2 - e_3 (norm 2) for n >= 3 and the norm-1 root
    e_0 - e_1 - e_2 for n = 2.
    """
    if not 2 <= n <= 8:
        raise ValueError(f"n must be between 2 and 8, got {n}")
    e = np.eye(n + 1, dtype=np.int64)
    alpha0 = e[0] - e[1 : 3 if n == 2 else 4].sum(axis=0)
    return [root(r.tolist()) for r in [alpha0, *(e[1:n] - e[2:]), e[n]]]


def chamber_vertices(n: int) -> list[Vector]:
    """Vertices v_0, ..., v_n of the fundamental chamber in Z^{n,1}.

    v_0 = e_0, v_1 = e_0 - e_1 (the one ideal vertex, norm 0),
    v_2 = 2 e_0 - e_1 - e_2 and v_j = 3 e_0 - e_1 - ... - e_j for j >= 3.
    Vertex v_i pairs to zero with every simple root alpha_j except j = i.
    """
    if not 2 <= n <= 8:
        raise ValueError(f"n must be between 2 and 8, got {n}")
    apex = [1, 1, 2] + [3] * (n - 2)
    return [(apex[j],) + (-1,) * j + (0,) * (n - j) for j in range(n + 1)]
