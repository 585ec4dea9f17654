"""Isometries of Z^{n,1} and their congruence quotients.

An isometry is an integer matrix M with M^T J M = J for the Gram matrix
J = diag(-1, 1, ..., 1); we work in the forward subgroup, characterized by
entry (0,0) >= 1, which preserves the positive light cone.  Reductions mod m
land in finite matrix groups over Z/m.  One type, Matrix, holds both: an
integer matrix, or with a modulus its image over Z/m.  Products never mix
the two rings.

Groups are enumerated by exhaustive breadth-first closure under right
multiplication by the generators, one vectorized layer at a time.  The one
layer loop, layered_closure, asks a pick rule which products of the frontier
are new, checks the budget, builds only those, and yields the layer as a
bare block of elements.  Keys belong to the pick rule alone.  On orbits the
rule goes by keys: each product has an int64 key, computed before it is
built, and a layer's candidate keys are deduplicated once and looked up in
the sorted keys of the two layers before it.  Over Z it goes by descents,
for generators that are distinct simple reflections, and keys nothing (see
_descents); each product is an int8 matrix, gathered once into its layer,
in batches of a fixed number of rows, and reflected there in place by a swap
of two columns or a rank-one sum (_reflect).  The other closures stream their
layers, so a stabilizer is bounded by its largest layer, not its order.  The
congruence check closes no group: it counts each stabilizer, up to E7 of
order 2903040, down its chain of parabolic subgroups, by one transversal a
level, 56 + 27 + 16 + 10 + 6 + 2 matrices at n = 7.  Walks fail fast past
DEFAULT_ELEMENT_BUDGET elements, read when each starts, which also stops an
infinite group over Z.
layered_closure also closes orbits of integer rows (orbit(): the E6 roots,
stabilizer orbits), walks integer tables (table_walk(): coset tables, tile
graphs), and runs the one Cayley-table primitive, base_orbit_table():
permutations on the orbit of a base tuple, which builds the tables of W(E6),
the lifted presentation's, the ten beta reflections' on the roots and the
wall matrices'.

No matrix over Z/m is multiplied.  A matrix group mod m acts faithfully on
the row vectors of (Z/m)^d, and a projective one, modulo {I, -I}, on their
classes {v, -v}; point_action turns each matrix into that permutation of
points and picks a base, whose images fix the element (Seress, Permutation
Group Algorithms, ch. 4).  GroupClosure walks the base's orbit
generator-major and keeps it, with its Cayley table: coset spaces read its
columns, and crossings and queries look up the points a matrix moves.  A
projective closure sees only the classes {v, -v}, so callers hand in plain
reductions mod m, of either sign, and never normalise.

memoize() is the package's one caching rule: one entry per argument value.
Each cached group, table or configuration is built once per process, however
its callers spell the call.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .lattice import (
    LatticeVector,
    Root,
    basis_vector,
    inner,
    norm,
    reflect,
    simple_roots,
    vector,
)

DEFAULT_ELEMENT_BUDGET = 10_000_000

Rows = tuple[tuple[int, ...], ...]


class ClosureBudgetExceeded(RuntimeError):
    """Raised when a closure outgrows its element budget."""


def memoize(fn):
    """Cache fn with one entry per argument value, however a call spells it.

    The arguments are bound to fn's signature and its defaults applied before
    the lookup, so f(4), f(4, True) and f(4, projective=True) share one entry
    where a bare lru_cache keeps three.  cache_info and cache_clear are the
    underlying lru_cache's; __wrapped__ is fn itself, uncached.
    """
    signature = inspect.signature(fn)
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def memoized(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return cached(*bound.args, **bound.kwargs)

    memoized.cache_info = cached.cache_info
    memoized.cache_clear = cached.cache_clear
    return memoized


def lorentz_gram(d: int) -> Matrix:
    """Gram matrix diag(-1, 1, ..., 1) of Z^{d-1,1}."""
    return Matrix(
        tuple(tuple((-1 if r == 0 else 1) if r == c else 0 for c in range(d)) for r in range(d))
    )


@dataclass(frozen=True)
class Matrix:
    """Square integer matrix over Z (modulus None) or over Z/m, entries 0 <= x < m.

    Products stay in the ring of their factors, reduced mod m, and refuse
    factors from two rings.  Over Z the trusted constructors are
    lattice_isometry() and reflection_matrix(), which validate the defining
    conditions; products of isometries are again isometries, so composition
    skips revalidation.  reduce(m) gives the image over Z/m.
    """

    entries: Rows
    modulus: int | None = None

    def __post_init__(self) -> None:
        m = self.modulus
        if m is not None:
            if m < 2:
                raise ValueError("modulus must be at least 2")
            if any(not 0 <= x < m for row in self.entries for x in row):
                raise ValueError("entries must be reduced mod m")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.modulus != other.modulus:
            raise ValueError(f"ring mismatch: modulus {self.modulus} and {other.modulus}")
        cols = list(zip(*other.entries))
        rows = ((sum(map(mul, row, col)) for col in cols) for row in self.entries)
        return _over(rows, self.modulus)

    def neg(self) -> Matrix:
        return _over(((-x for x in row) for row in self.entries), self.modulus)

    def reduce(self, m: int) -> Matrix:
        """The image over Z/m of an integer matrix."""
        if self.modulus is not None:
            raise ValueError(f"only an integer matrix reduces mod m, not one mod {self.modulus}")
        return _over(self.entries, m)

    @staticmethod
    def identity(d: int, modulus: int | None = None) -> Matrix:
        return Matrix(tuple(tuple(int(r == c) for c in range(d)) for r in range(d)), modulus)


def _over(rows: Iterable[Iterable[int]], modulus: int | None) -> Matrix:
    """The matrix with these integer rows over Z, or reduced over Z/m."""
    if modulus is None:
        return Matrix(tuple(map(tuple, rows)))
    return Matrix(tuple(tuple(x % modulus for x in row) for row in rows), modulus)


def lattice_isometry(rows: Sequence[Sequence[int]]) -> Matrix:
    """Validated constructor: square, M^T J M = J, forward (entry (0,0) >= 1)."""
    mat = Matrix(tuple(tuple(int(x) for x in r) for r in rows))
    d = mat.dimension
    if any(len(r) != d for r in mat.entries):
        raise ValueError("matrix must be square")
    gram = lorentz_gram(d)
    if Matrix(tuple(zip(*mat.entries))) @ gram @ mat != gram:
        raise ValueError("matrix does not preserve the Lorentzian form")
    if mat.entries[0][0] < 1:
        raise ValueError("matrix reverses the light cone (entry (0,0) < 1)")
    return mat


def reflection_matrix(alpha: Root) -> Matrix:
    """Matrix of the reflection in a root of norm 1 or 2, columns = images of e_i."""
    d = alpha.n + 1
    cols = [reflect(alpha, basis_vector(i, alpha.n)).coords for i in range(d)]
    rows = tuple(tuple(cols[c][r] for c in range(d)) for r in range(d))
    return lattice_isometry(rows)


def chamber_vector(n: int) -> LatticeVector:
    """v = (-(3n-2), n, n-1, ..., 1), which pairs to 1 with every simple root.

    So v lies in the open fundamental chamber of the reflection group W of
    Z^{n,1}, and its stabilizer in W is trivial (Humphreys, Reflection Groups
    and Coxeter Groups, 1.12 for finite W, 5.13 in general): M -> M v is
    injective on W and on every subgroup, finite (the stabilizer of the long
    simple reflections) or not (all simple reflections).
    """
    v = vector(-(3 * n - 2), *range(n, 0, -1))
    if any(inner(a, v) <= 0 for a in simple_roots(n)):
        raise AssertionError("chamber vector fails to pair positively with a simple root")
    return v


def _pack_int8(vecs: np.ndarray) -> np.ndarray:
    """One int64 per row of at most eight integers, each within int8."""
    if vecs.shape[1] > 8:
        raise ValueError(f"closure keys pack at most 8 entries per row, not {vecs.shape[1]}")
    if len(vecs) and np.abs(vecs).max() > 127:
        raise OverflowError("closure key entries exceed int8")
    packed = np.zeros((len(vecs), 8), dtype=np.int8)
    packed[:, : vecs.shape[1]] = vecs
    return packed.view(np.int64).ravel()


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct keys, sorted, the position where each first occurs, the
    sorting permutation, and the mask of the sorted keys that start a run."""
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    return ordered[starts], np.minimum.reduceat(order, np.flatnonzero(starts)), order, starts


def _positions(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of each query in a sorted key array, -1 where it is absent."""
    if not len(sorted_keys):
        return np.full(len(queries), -1)
    pos = np.searchsorted(sorted_keys, queries).clip(max=len(sorted_keys) - 1)
    return np.where(sorted_keys[pos] == queries, pos, -1)


def layered_closure(
    identity: np.ndarray,
    pick: Callable[[np.ndarray], np.ndarray],
    build: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Iterator[np.ndarray]:
    """Breadth-first closure under right multiplication, one layer at a time.

    pick(F) gives the positions of the new products F g of a frontier F,
    sorted, each new element once, in the caller's candidate order (the
    closures' is generator-major; the table walks' is row-major, table_walk's
    and base_orbit_table's); build(F, picks) builds them, after
    DEFAULT_ELEMENT_BUDGET, read when the walk starts, has been checked
    against the count so far.  The pick rule may keep state from one layer
    to the next, keys included, as _fresh_keys and _descents do.

    Yields the elements, one block per layer, the identity layer first.
    Nothing else is kept, so a caller that keeps no block holds at most two
    layers of elements: the one it reads and the frontier the next is built
    from.
    """
    budget = DEFAULT_ELEMENT_BUDGET
    frontier = identity
    count = len(identity)
    yield identity
    while True:
        picks = pick(frontier)
        if not len(picks):
            return
        if count + len(picks) > budget:
            raise ClosureBudgetExceeded(f"closure exceeded element budget {budget}")
        frontier = build(frontier, picks)
        count += len(picks)
        yield frontier


def _fresh_keys(
    candidate_keys: Callable[[np.ndarray], np.ndarray],
    identity_keys: np.ndarray,
    named: list[np.ndarray],
) -> Callable[[np.ndarray], np.ndarray]:
    """The pick rule by keys: the first occurrence of each key not seen yet.

    candidate_keys(F) gives the int64 key of every product F g of a frontier F
    before any product is built; identity_keys, sorted, are the first layer's.
    The keys must be injective on the group, and the generator set closed under
    inversion.  Then the neighbours of layer k lie in layers k-1, k and k+1, so
    each layer's candidate keys are deduplicated once and looked up in the
    sorted keys of the two layers before them.  Each layer appends to named the
    int32 number of every candidate, in order of discovery (the first layer's
    in key order): the walk's steps, read as a table.
    """
    known = [(identity_keys, np.arange(len(identity_keys), dtype=np.int32))]

    def pick(frontier: np.ndarray) -> np.ndarray:
        nonlocal known
        cands = candidate_keys(frontier)
        uniq, first, order, starts = _first_occurrences(cands)
        at = [_positions(keys, uniq) for keys, _ in known]  # neither layer is empty
        fresh = np.logical_and.reduce([found < 0 for found in at])
        picks = np.sort(first[fresh])
        new = np.empty(len(cands), dtype=np.int32)
        new[picks] = np.arange(len(picks)) + known[-1][1].max() + 1
        numbers = new[first]  # right for the fresh keys; the others are looked up
        for (_, known_numbers), found in zip(known, at):
            numbers = np.where(found < 0, numbers, known_numbers[found])
        named.append(np.empty(len(cands), dtype=np.int32))
        named[-1][order] = numbers[np.cumsum(starts) - 1]
        known = known[-1:] + [(uniq[fresh], numbers[fresh])]
        return picks

    return pick


def orbit(seeds: np.ndarray, step: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Breadth-first orbit of integer rows, in discovery order, by layered_closure.

    step(F) gives the images of the frontier rows F under each generator,
    stacked generator-major.  Each row is its own key, packed by _pack_int8:
    at most eight entries, each within int8.  The seeds must be distinct.
    The generator set must be closed under inversion, as reflections are.
    The element budget counts the seeds.  The walk's steps are not kept.
    """
    keys = np.sort(_pack_int8(seeds))
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("orbit seeds must be distinct")
    images = seeds

    def image_keys(frontier: np.ndarray) -> np.ndarray:
        nonlocal images
        images = step(frontier).reshape(-1, seeds.shape[1])
        return _pack_int8(images)

    pick = _fresh_keys(image_keys, keys, [])
    layers = layered_closure(seeds, pick, lambda f, picks: images[picks])
    return np.concatenate(list(layers))


def base_orbit_table(
    columns: np.ndarray, base: Sequence[int], bound: int | None = None
) -> np.ndarray:
    """The table of permutations acting on the orbit of the tuple base.

    columns[x], a permutation of range(n), moves a tuple F to columns[x][F].
    Row i of the read-only int32 table lists the points that orbit point i
    reaches by each generator; point 0 is base.  layered_closure walks the
    orbit, keyed base-n by _fresh_keys, which names every step, point-major:
    new points come in table_walk's order, so the table is standardized.  If
    base has a trivial stabilizer (a base: Seress, Permutation Group
    Algorithms, ch. 4), the action is regular and this is the Cayley table
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 4.4).
    Raises as _tuple_steps does, and RuntimeError past bound points.
    """
    steps, weights = _tuple_steps(columns, len(base))
    k = steps.shape[1]
    weighted = weights[:, None, None] * steps
    seed = np.array([base], dtype=steps.dtype)
    rows: list[np.ndarray] = []

    def candidate_keys(frontier: np.ndarray) -> np.ndarray:
        if bound is not None and sum(map(len, rows)) // k + len(frontier) > bound:
            raise RuntimeError(f"the orbit of {tuple(base)} passes the upper bound {bound}")
        return sum(weighted[j][frontier[:, j]] for j in range(len(base))).ravel()

    def build(frontier: np.ndarray, picks: np.ndarray) -> np.ndarray:
        return steps[frontier[picks // k], picks[:, None] % k]

    for _ in layered_closure(seed, _fresh_keys(candidate_keys, seed @ weights, rows), build):
        pass
    table = np.concatenate(rows).reshape(-1, k)
    table.flags.writeable = False
    return table


def _tuple_steps(columns: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """steps[p, x], point p moved by permutation columns[x], in the narrowest
    unsigned type, and the weights of base-n int64 keys of width points.

    ValueError unless the set is closed under inversion, as _fresh_keys
    needs; OverflowError past int64 keys.
    """
    columns = np.asarray(columns)
    n = columns.shape[1]
    # c[c'] = identity makes c onto, so a permutation, with inverse c'; a
    # column that is no permutation has no inverse in the set.
    inverted = ((0 <= columns) & (columns < n)).all() and (
        (columns[:, columns] == np.arange(n)).all(axis=2).any(axis=1).all()
    )
    if not inverted:
        raise ValueError("generator set must be closed under inversion")
    if n**width >= 2**63:
        raise OverflowError(f"{width} points of {n} overflow an int64 key")
    steps = np.ascontiguousarray(columns.T).astype(np.min_scalar_type(n - 1))
    return steps, n ** np.arange(width, dtype=np.int64)


def point_action(
    mats: Sequence[Matrix], projective: bool
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Matrices over Z/m as permutations of points, and a base.

    The points are the row vectors v of (Z/m)^d, numbered by their base-m
    digits, most significant first; when projective, the classes {v, -v},
    numbered in the order of their smaller member.  columns[x][p] is the
    point p M for M = mats[x], a permutation when M is invertible.  The base
    is e_0, ..., e_{d-1}, whose images are the rows of M, and when projective
    the all-ones row as well: the classes of the rows fix M up to one sign
    per row, and the class of their sum, linearly independent as they are,
    fixes those signs up to one in common.  So the base's images determine M,
    or {M, -M}, and a group acts regularly on its base's orbit.

    ValueError unless mats are square matrices of one size over one ring
    Z/m with m <= 128 and m^(d*d) <= 2^53, which caps the points at 59^3,
    and unless the points to the power of the base's length fit an int64
    key, which the projective base, one point longer, passes for d = 3 and
    48 <= m <= 59.
    """
    m, d = _ring(mats)
    if m is None:
        raise ValueError("a point action needs matrices over Z/m")
    if m > 128 or m ** (d * d) > 2**53:
        raise ValueError("mod-m keys need m <= 128 and m^(d*d) <= 2^53")
    place = m ** np.arange(d - 1, -1, -1)
    vectors = np.arange(m**d)[:, None] // place % m
    members = point = np.arange(m**d)
    if projective:
        members, point = np.unique(np.minimum(point, -vectors % m @ place), return_inverse=True)
    if len(members) ** (d + projective) >= 2**63:
        raise ValueError(f"{d + projective} points of {len(members)} overflow an int64 key")
    images = vectors[members] @ np.array([g.entries for g in mats]) % m @ place
    base = tuple(point[place].tolist()) + ((int(point[place.sum()]),) if projective else ())
    return point[images], base


def table_walk(rows: np.ndarray) -> np.ndarray:
    """The points an integer table reaches from point 0, breadth-first, by layered_closure.

    rows[a, x] is the point reached from a along edge x, -1 for none.  Each
    layer's new points come in the row-major order of their first edge, the
    standard order of a coset table (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, ch. 5).  Points 0 never reaches are left out.
    """
    seen = np.zeros(len(rows), dtype=bool)
    seen[0] = True

    def pick(frontier: np.ndarray) -> np.ndarray:
        ids, first, _, _ = _first_occurrences(rows[frontier].ravel())
        fresh = (ids >= 0) & ~seen[ids]
        seen[ids[fresh]] = True
        return np.sort(first[fresh])

    layers = layered_closure(np.zeros(1, dtype=np.intp), pick, lambda f, p: rows[f].ravel()[p])
    return np.concatenate(list(layers))


# Rows reflected per batch: the temporaries of an integer layer stay this
# many rows long, however long the layer is.
_CHUNK_ROWS = 2**14


def _chunks(stop: int, start: int = 0) -> Iterator[slice]:
    """Consecutive slices of at most _CHUNK_ROWS rows covering range(start, stop)."""
    return (slice(i, min(i + _CHUNK_ROWS, stop)) for i in range(start, stop, _CHUNK_ROWS))


def _ring(generators: Sequence[Matrix]) -> tuple[int | None, int]:
    """The modulus (None over Z) and the size d of square generators of one ring."""
    if not generators:
        raise ValueError("need at least one generator")
    modulus, d = generators[0].modulus, generators[0].dimension
    if any(g.modulus != modulus for g in generators):
        raise ValueError("generators must lie in one ring")
    if any(g.dimension != d or any(len(r) != d for r in g.entries) for g in generators):
        raise ValueError("generators must be square matrices of equal size")
    return modulus, d


def _reflect(mats: np.ndarray, alpha: Root) -> None:
    """Right-multiply int8 matrices M, shape (k, d, d), by s_alpha in place.

    Column j of M s_alpha is M e_j - c_j M alpha, with c_j = 2 (e_j, alpha) /
    (alpha, alpha) (Humphreys, Reflection Groups and Coxeter Groups, 5.3), so
    only the columns in the support of alpha change.  A root e_i - e_j swaps
    columns i and j.  Any other sums its support into the int32 image
    M alpha, exact for entries within int8, and raises OverflowError before
    it stores an entry past +-127.
    """
    support = [j for j, x in enumerate(alpha.coords) if x]
    coords = [alpha.coords[j] for j in support]
    if coords == [1, -1] and support[0]:
        mats[:, :, support] = mats[:, :, support[::-1]]
        return
    image = np.zeros(mats.shape[:2], dtype=np.int32)
    for j, x in zip(support, coords):
        image += x * mats[:, :, j].astype(np.int32)
    for j in support:
        c = 2 * inner(basis_vector(j, alpha.n), alpha) // norm(alpha)
        column = mats[:, :, j] - c * image
        if len(column) and (column.max() > 127 or column.min() < -127):
            raise OverflowError("matrix entries exceed int8 storage")
        mats[:, :, j] = column


def _reflection_layers(roots: Sequence[Root]) -> Iterator[np.ndarray]:
    """The closure of the reflections in distinct simple roots of Z^{n,1},
    in any order, from the identity: one block of int8 matrices a layer.

    Picked by _descents, each batch of _CHUNK_ROWS picked frontier rows is
    gathered once, straight into the layer, and reflected there by _reflect.
    """
    d = roots[0].n + 1

    def build(frontier: np.ndarray, picks: np.ndarray) -> np.ndarray:
        out = np.empty((len(picks), d, d), dtype=np.int8)
        # Sorted, the picks of each generator are one run.
        runs = np.searchsorted(picks, np.arange(len(roots) + 1) * len(frontier))
        for s, alpha in enumerate(roots):
            for chunk in _chunks(runs[s + 1], runs[s]):
                rows = picks[chunk] - s * len(frontier)  # in range: no clip happens
                np.take(frontier, rows, axis=0, out=out[chunk], mode="clip")  # "raise" buffers
                _reflect(out[chunk], alpha)
        return out

    return layered_closure(np.eye(d, dtype=np.int8)[None], _descents(roots), build)


def _descents(roots: Sequence[Root]) -> Callable[[np.ndarray], np.ndarray]:
    """The pick rule by descents, for reflections in distinct simple roots of Z^{n,1}.

    It keeps r[t, j] = (w_j alpha_t, v) for the j-th frontier element w_j
    and the t-th generator's root alpha_t.  w s is new, and first reached
    here, iff s is an ascent of w and no generator t before s is a
    descent of w s: r[s, j] > 0 and r[t, j] - c_ts r[s, j] > 0 for t < s,
    as s(alpha_t) = alpha_t - c_ts alpha_s.
    """
    # cartan[t, s] = c_ts = 2 (alpha_t, alpha_s) / (alpha_s, alpha_s), an integer.
    cartan = np.array([[2 * inner(a, b) // norm(b) for b in roots] for a in roots], np.int32)
    v = chamber_vector(roots[0].n)
    pairings = np.array([[inner(a, v)] for a in roots], dtype=np.int32)

    def pick(frontier: np.ndarray) -> np.ndarray:
        nonlocal pairings
        ascents = pairings > 0
        picks, blocks = [], []
        for s in range(len(roots)):
            new = ascents[s].copy()
            for t in range(s):
                c = cartan[t, s]  # 0 when s and t commute: t keeps its sign
                new &= pairings[t] > c * pairings[s] if c else ascents[t]
            rows = np.flatnonzero(new)
            block = pairings[:, rows]
            r_s = block[s].copy()
            for t in np.flatnonzero(cartan[:, s]):
                block[t] -= cartan[t, s] * r_s
            picks.append(rows + s * pairings.shape[1])
            blocks.append(block)
        pairings = np.concatenate(blocks, axis=1)
        return np.concatenate(picks)

    return pick


class GroupClosure:
    """Finite matrix group over Z/m obtained by exhaustive closure, multiplying no matrix.

    point_action turns each generator g into the permutation p -> p g of the
    points, the rows of (Z/m)^d, or with projective=True their classes
    {v, -v}: then elements are classes {M, -M}, the right model for
    quotients like PGO where -I must be factored out, and generators and
    queries may carry either sign.  Element i is the tuple of points its
    base reaches, images[i], in discovery order (element 0 is the identity).
    layered_closure walks the base's orbit, generator-major, picked by
    _fresh_keys on base-n int64 keys, sorted for lookup once the walk ends,
    and the steps it names are the Cayley table: table[i, x] is the index of
    element i times generator x.  The generator set must be closed under
    inversion (reflections are), which also makes every generator invertible
    mod m.  The closure fails fast past DEFAULT_ELEMENT_BUDGET elements.
    """

    def __init__(self, generators: Sequence[Matrix], projective: bool = False) -> None:
        self.generators = tuple(generators)
        self.projective = projective
        columns, base = point_action(self.generators, projective)
        self.modulus, self.dimension = self.generators[0].modulus, self.generators[0].dimension
        steps, self._weights = _tuple_steps(columns, len(base))
        weighted = self._weights[:, None, None] * steps
        seed = np.array([base], dtype=steps.dtype)
        named: list[np.ndarray] = []

        def candidate_keys(frontier: np.ndarray) -> np.ndarray:
            return sum(weighted[j][frontier[:, j]] for j in range(len(base))).T.ravel()

        def build(frontier: np.ndarray, picks: np.ndarray) -> np.ndarray:
            return steps[frontier[picks % len(frontier)], picks[:, None] // len(frontier)]

        pick = _fresh_keys(candidate_keys, seed @ self._weights, named)
        self.images = np.concatenate(list(layered_closure(seed, pick, build)))
        self.order = len(self.images)
        k = len(self.generators)
        self.table = np.concatenate([block.reshape(k, -1).T for block in named])
        keys = self.images @ self._weights
        self._key_order = np.argsort(keys)
        self._sorted_keys = keys[self._key_order]
        for shared in (self.images, self.table, self._key_order, self._sorted_keys):
            shared.flags.writeable = False  # memoized closures share them

    def _moved(self, images: np.ndarray, mat: Matrix) -> np.ndarray:
        """Index of the element with the points of each row of images moved
        by mat, -1 where there is none."""
        if mat.modulus != self.modulus:
            raise ValueError(f"ring mismatch: modulus {mat.modulus} and {self.modulus}")
        if mat.dimension != self.dimension:
            raise ValueError(f"dimension mismatch: {mat.dimension} and {self.dimension}")
        (column,), _ = point_action([mat], self.projective)
        pos = _positions(self._sorted_keys, column[images] @ self._weights)
        return np.where(pos >= 0, self._key_order[pos], -1)

    def __contains__(self, mat: Matrix) -> bool:
        return bool(self._moved(self.images[:1], mat)[0] >= 0)  # the identity's are the base

    def right_multiply(self, indices: np.ndarray, mat: Matrix) -> np.ndarray:
        """Indices of the products element_i * mat, for an array of element indices."""
        found = self._moved(self.images[indices], mat)
        if (found < 0).any():
            raise KeyError("product not in closure")
        return found

    @property
    def contains_minus_identity(self) -> bool:
        if self.projective:
            return False
        return Matrix.identity(self.dimension, self.modulus).neg() in self


def finite_group_elements(generators: Sequence[Matrix]) -> np.ndarray:
    """All elements of the group generated by simple reflections of Z^{n,1}.

    The elements are int8 matrices, shape (order, d, d), in discovery order.
    The generators, such as the long simple reflections, must be distinct
    reflections in simple roots, which the descent rule walks; each is
    mapped to its root here, before any product.  Exhaustive closure guarded
    by DEFAULT_ELEMENT_BUDGET: a wrong generator set (infinite group) fails
    fast instead of silently grinding.
    """
    modulus, d = _ring(generators)
    if modulus is not None:
        raise ValueError("integer closures need matrices over Z")
    simple = {reflection_matrix(a): a for a in simple_roots(d - 1)}
    roots = [simple.get(g) for g in generators]
    if None in roots or len(set(roots)) < len(roots):
        raise ValueError("integer closures need distinct simple reflections as generators")
    return np.concatenate(list(_reflection_layers(roots)))


@dataclass(frozen=True)
class CongruenceIntersection:
    """Outcome of intersecting a finite isometry group with congruence kernels."""

    n: int
    order: int
    congruent_mod2: int
    congruent_mod3: int


def long_simple_reflections(n: int) -> list[Matrix]:
    """Reflections in the norm-2 simple roots: generators of the finite stabilizer."""
    return [reflection_matrix(a) for a in simple_roots(n) if norm(a) == 2]


def congruence_intersection_check(n: int) -> CongruenceIntersection:
    """Count the elements of the finite stabilizer W over Z that are = I mod 2 and mod 3.

    W meets both congruence kernels trivially exactly when each count is 1.
    W is the Coxeter group of the long simple reflections, and none of its
    elements is built: it is counted down a chain of parabolic subgroups.
    -e_m lies in the closed fundamental chamber, so the stabilizer of e_m is
    the parabolic subgroup of the roots with no e_m coordinate (Humphreys,
    Reflection Groups and Coxeter Groups, 1.10 and 1.12), and those are the
    long simple roots of Z^{m-1,1}: at n = 7 the chain is E7 > E6 > D5 > A4 >
    A2 x A1 > A1 > 1.  _transversal walks each level's cosets, the orbit of
    e_m: 56, 27, 16, 10, 6 and 2 of them for m = 7..2, at m = 6 the 27 lines
    of a marked cubic surface, W(E6)/W(D5).  |W| is their product (Bjorner
    and Brenti, Combinatorics of Coxeter Groups, 2.4), and _chain_counts
    counts the elements = I mod p by recursion down the levels.  The levels
    are cached, so the checks for n = 2..7 walk six transversals in all.
    """
    if not 2 <= n <= 7:
        raise ValueError(f"n must be between 2 and 7, got {n}")
    return CongruenceIntersection(n, *_chain_counts(_parabolic_chain(n)))


def _parabolic_chain(n: int) -> list[np.ndarray]:
    """The transversals of the chain of the long simple roots of Z^{n,1}, from
    the top: level m's roots are those of level m + 1 with no e_{m+1}
    coordinate, cut to Z^{m,1}, down to the level whose stabilizer is trivial."""
    roots = tuple(a for a in simple_roots(n) if norm(a) == 2)
    levels = []
    while roots:
        m = roots[0].n
        levels.append(_transversal(roots))
        roots = tuple(vector(*a.coords[:m]) for a in roots if not a.coords[m])
    return levels


@memoize
def _transversal(roots: tuple[Root, ...]) -> np.ndarray:
    """One x per coset W_J x of the stabilizer W_J of e_n in the group W of the
    reflections in some simple roots of Z^{n,1}: read-only int8 matrices,
    shape (k, d, d), the identity first.

    Row n of x is e_n^T x, which is (u e_n)^T J for u = x^-1, and x, x' lie
    in one coset exactly when their rows n agree.  So layered_closure walks
    the orbit of the row e_n^T under right multiplication, picked by
    _fresh_keys on row n packed by _pack_int8, and the u = x^-1 are one
    representative of each coset u W_J.  Every product of a frontier is
    built, by _reflect, before it is keyed: there are at most 56 x 7.
    """
    d = roots[0].n + 1
    identity = np.eye(d, dtype=np.int8)[None]
    products = identity

    def row_keys(frontier: np.ndarray) -> np.ndarray:
        nonlocal products
        products = np.concatenate([frontier] * len(roots))  # generator-major
        for s, alpha in enumerate(roots):
            _reflect(products[s * len(frontier) : (s + 1) * len(frontier)], alpha)
        return _pack_int8(products[:, -1])

    pick = _fresh_keys(row_keys, _pack_int8(identity[:, -1]), [])
    reps = np.concatenate(list(layered_closure(identity, pick, lambda f, picks: products[picks])))
    reps.flags.writeable = False  # the checks for every n share the levels
    return reps


def _chain_counts(levels: Sequence[np.ndarray]) -> tuple[int, int, int]:
    """The number of products w = x_2 ... x_n, one x_m from each level, and
    the number = I mod 2 and mod 3.

    levels[0] holds the x_n, (n+1) x (n+1) int8 matrices, and each level
    after it is one smaller; a level's x acts on the first coordinates and
    fixes the rest.  Let W_m be the products of the levels from x_m down.
    When the levels are the transversals T_m of a chain, as _parabolic_chain
    gives them, W_m = W_{m-1} T_m, every w once, and w t = I for w = v x
    exactly when x t = v^-1, which fixes e_m.  So Count_m(t), the w in W_m
    with w t = I mod p, sums Count_{m-1} of the top-left m x m block of x t
    over the x whose row m and column m of x t are = e_m mod p; Count_1(t)
    is 1 for t = I mod p, else 0.  From t = I, the targets are walked level
    by level, reduced mod p, exact in int64.
    """
    fixed = []
    for p in (2, 3):
        targets = np.eye(levels[0].shape[1], dtype=np.int64)[None]
        for reps in levels:
            m = reps.shape[1] - 1
            products = (reps.astype(np.int64)[:, None] @ targets % p).reshape(-1, m + 1, m + 1)
            unit = np.arange(m + 1) == m
            keep = (products[:, m] == unit).all(axis=1) & (products[:, :, m] == unit).all(axis=1)
            targets = products[keep, :m, :m]
        fixed.append(int((targets == np.eye(targets.shape[1])).all(axis=(1, 2)).sum()))
    return (math.prod(map(len, levels)), *fixed)


class CosetSpace:
    """Left cosets gH of a subgroup H of a finite group G, read off step columns.

    steps[i, x] is the index of g_i h_x, for the elements g_i of G and the
    generators h_x of H, closed under inversion: the columns of G's table for
    H's generators.  The cosets are the components of the graph g -- g h,
    labelled by their least element index.  Element 0 of G is the identity,
    so the coset labelled 0 is H itself, and its size is |H|.  Coset ids
    follow the order of G's elements; each coset's representative is its
    first element.  Every coset having |H| elements is asserted on
    construction.
    """

    def __init__(self, steps: np.ndarray) -> None:
        labels = np.arange(len(steps))
        while True:
            merged = np.minimum.reduce([labels] + [labels[step] for step in steps.T])
            if np.array_equal(merged, labels):
                break
            labels = merged
        reps, assignment = np.unique(labels, return_inverse=True)
        sizes = np.bincount(assignment)
        if (sizes != sizes[0]).any():
            raise AssertionError("cosets failed to partition the group into |H|-sets")
        self.count = len(reps)
        self.subgroup_order = int(sizes[0])
        self.representative_indices = reps
        self._assignment = assignment.astype(np.int32)
        for shared in (reps, self._assignment):
            shared.flags.writeable = False

    def cosets_of(self, indices: np.ndarray) -> np.ndarray:
        """Coset ids of group elements given by index."""
        return self._assignment[indices]


def coset_space(steps: np.ndarray) -> CosetSpace:
    """Partition a finite group into left cosets of the subgroup whose
    generators step through it by the columns steps."""
    return CosetSpace(steps)
