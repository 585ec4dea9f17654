"""Isometries of Z^{n,1} and their congruence quotients.

An isometry is an integer matrix M with M^T J M = J for the Gram matrix
J = lattice.gram(d) = diag(-1, 1, ..., 1); we work in the forward subgroup,
characterized by entry (0,0) >= 1, which preserves the positive light cone.
Reductions mod m land in finite matrix groups over Z/m.  One type, Matrix,
holds both: an integer matrix, or with a modulus its image over Z/m.
Products never mix the two rings.  Every reflection over Z reads the one
rule of the lattice layer, lattice.coroot: reflection_matrix builds on its
rows, _reflect takes its column coefficients, and _descents its Cartan
integers.

Groups are enumerated by exhaustive breadth-first closure under right
multiplication by the generators, one vectorized layer at a time.  The one
layer loop, layered_closure, asks a pick rule which products of the frontier
are new, checks the budget, builds only those, and yields the layer as a
bare block of elements.  Keys belong to the pick rule alone.  On orbits the
rule goes by keys: each product has a key, computed before it is built (an
int64, or a set's sorted points), and a layer's candidate keys are
deduplicated once and looked up in one sorted array of every key seen, so
any generators of a finite group will do.  Over Z it goes by descents, for
generators that are distinct simple reflections, and keys nothing (see
_descents); each product is an int8 matrix, gathered once into its layer
and reflected there in place by one rank-one sum (_reflect).  The other
closures stream their layers, so a stabilizer is bounded by its largest
layer, not its order.  The congruence check closes no group: it counts each
stabilizer, up to E7 of order 2903040, down its chain of parabolic
subgroups, by one transversal a level, 56 + 27 + 16 + 10 + 6 + 2 matrices
at n = 7.  Walks fail fast past DEFAULT_ELEMENT_BUDGET elements, read when
each starts, which also stops an infinite group over Z.  layered_closure
also closes orbits of integer arrays (orbit(): the E6 roots, stabilizer
orbits, and the congruence transversals, keyed by one row), walks integer
tables (table_walk(): coset tables, tile graphs), and walks the orbit of a
tuple of points (_tuple_orbit): keyed by the tuple, in the one Cayley-table
primitive, base_orbit_table() (the lifted tables of the diagram groups);
keyed by its set, in coset_space().  It also walks the transversals of a
stabilizer chain (_level), picked by a seen-mask.

No matrix over Z/m is multiplied.  A matrix group mod m acts faithfully on
the row vectors of (Z/m)^d, and a projective one, modulo {I, -I}, on their
classes {v, -v}; point_action turns each matrix into that permutation of
points and picks a base, whose images fix the element (Seress, Permutation
Group Algorithms, ch. 4), so the base's orbit is the group's Cayley table.
GroupClosure lists no element: Schreier-Sims builds a stabilizer chain of
the permutations (_stabilizer_chain), whose orbit lengths multiply to the
order, and one sift down it decides whether a matrix is an element.  A
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
from operator import index, mul
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .lattice import Root, Vector, coroot, gram, inner, norm, reflection_rows, simple_roots

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


@dataclass(frozen=True)
class Matrix:
    """Square integer matrix over Z (modulus None) or over Z/m, entries 0 <= x < m.

    Products stay in the ring of their factors, reduced mod m, and refuse
    factors from two rings.  Over Z the trusted constructor is
    lattice_isometry(), which validates the defining conditions, integer
    entries included; reflection_matrix() builds through it.  Products of
    isometries are again isometries, so composition skips revalidation.
    reduce(m) gives the image over Z/m.  A Matrix is hashable: it is the
    generator record of GroupClosure, and its pure-Python product is the
    one evaluate_word uses and the tests' reference.
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
    """Validated constructor: integer entries (operator.index, so numpy ints
    pass and floats or strings do not), square, M^T J M = J for J =
    lattice.gram(d), forward (entry (0,0) >= 1)."""
    try:
        entries = tuple(tuple(map(index, r)) for r in rows)
    except TypeError:
        raise ValueError("matrix entries must be integers") from None
    d = len(entries)
    if any(len(r) != d for r in entries):
        raise ValueError("matrix must be square")
    m, j = np.array(entries, dtype=object), gram(d)
    if not (m.T @ j @ m == j).all():
        raise ValueError("matrix does not preserve the Lorentzian form")
    if entries[0][0] < 1:
        raise ValueError("matrix reverses the light cone (entry (0,0) < 1)")
    return Matrix(entries)


def reflection_matrix(alpha: Root) -> Matrix:
    """Matrix of the reflection in a root of norm 1 or 2, columns = images of
    e_i: the transpose of lattice.reflection_rows."""
    return lattice_isometry(reflection_rows(alpha).T)


def chamber_vector(n: int) -> Vector:
    """v = (-(3n-2), n, n-1, ..., 1), which pairs to 1 with every simple root.

    So v lies in the open fundamental chamber of the reflection group W of
    Z^{n,1}, and its stabilizer in W is trivial (Humphreys, Reflection Groups
    and Coxeter Groups, 1.12 for finite W, 5.13 in general): M -> M v is
    injective on W and on every subgroup, finite (the stabilizer of the long
    simple reflections) or not (all simple reflections).
    """
    v = (-(3 * n - 2), *range(n, 0, -1))
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
    to the next, keys included, as _fresh_keys does.

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

    candidate_keys(F) gives the key of every product F g of a frontier F, an
    int64 or any sortable type, before any product is built; identity_keys,
    sorted, are the first layer's.  The keys must be injective on the group.
    Every key seen so far is kept sorted, beside its int32 number, so each
    layer's candidate keys are deduplicated once and looked up in one sorted
    array, and the fresh ones are inserted into both.  Each layer appends to
    named the number of every candidate, in order of discovery (the first
    layer's in key order): the walk's steps, read as a table.  A layer peaks
    at about 31 bytes per candidate, its int64 keys and sorting permutation
    included (tracemalloc, the widest layer of the E6 roots' walk).
    """
    seen, numbers = identity_keys, np.arange(len(identity_keys), dtype=np.int32)

    def pick(frontier: np.ndarray) -> np.ndarray:
        nonlocal seen, numbers
        uniq, first, order, starts = _first_occurrences(candidate_keys(frontier))
        at = np.searchsorted(seen, uniq)
        near = at.clip(max=len(seen) - 1)  # seen is never empty
        fresh = seen[near] != uniq
        picks = np.sort(first[fresh])
        new = np.empty(len(order), dtype=np.int32)
        new[picks] = np.arange(len(picks)) + len(seen)
        ids = np.where(fresh, new[first], numbers[near])  # the number of each key in uniq
        run = np.cumsum(starts, dtype=np.int32)
        run -= 1  # the run of each sorted candidate: its key's index in uniq
        named.append(np.empty(len(order), dtype=np.int32))
        named[-1][order] = ids[run]
        seen = np.insert(seen, at[fresh], uniq[fresh])
        numbers = np.insert(numbers, at[fresh], ids[fresh])
        return picks

    return pick


def orbit(
    seeds: np.ndarray,
    step: Callable[[np.ndarray], np.ndarray],
    key: Callable[[np.ndarray], np.ndarray] = _pack_int8,
) -> np.ndarray:
    """Breadth-first orbit of integer arrays, in discovery order, by layered_closure.

    step(F) gives the images of the frontier F under each generator, stacked
    generator-major.  key gives one int64 per element, injective on the
    orbit; by default each row is its own key, packed by _pack_int8: at most
    eight entries, each within int8.  The seeds' keys must be distinct.  The
    element budget counts the seeds.  The walk's steps are not kept.
    """
    keys = np.sort(key(seeds))
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("orbit seeds must have distinct keys")
    images = seeds

    def image_keys(frontier: np.ndarray) -> np.ndarray:
        nonlocal images
        images = step(frontier).reshape(-1, *seeds.shape[1:])
        return key(images)

    pick = _fresh_keys(image_keys, keys, [])
    layers = layered_closure(seeds, pick, lambda f, picks: images[picks])
    return np.concatenate(list(layers))


def base_orbit_table(
    columns: np.ndarray, base: Sequence[int], bound: int | None = None
) -> np.ndarray:
    """The table of permutations acting on the orbit of the tuple base.

    columns[x], a permutation of range(n), moves a tuple F to columns[x][F].
    Row i of the read-only int32 table lists the points that orbit point i
    reaches by each generator; point 0 is base.  If base has a trivial
    stabilizer (a base: Seress, Permutation Group Algorithms, ch. 4), the
    action is regular and this is the Cayley table (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 4.4).  Raises as _base_orbit and
    _tuple_orbit do.
    """
    return _base_orbit(columns, base, bound)[1]


def _base_orbit(
    columns: np.ndarray, base: Sequence[int], bound: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """_tuple_orbit on base-n int64 keys: OverflowError past int64, RuntimeError past bound."""
    n = np.shape(columns)[1]
    if n ** len(base) >= 2**63:
        raise OverflowError(f"{len(base)} points of {n} overflow an int64 key")
    weights = n ** np.arange(len(base), dtype=np.int64)
    walked = 0

    def keys(steps: np.ndarray, frontier: np.ndarray) -> np.ndarray:
        nonlocal walked
        walked += len(frontier)
        if bound is not None and walked > bound:
            raise RuntimeError(f"the orbit of {tuple(base)} passes the upper bound {bound}")
        weighted = weights[:, None, None] * steps  # a lookup per place beats a product
        return sum(weighted[j][frontier[:, j]] for j in range(len(base))).ravel()

    return _tuple_orbit(columns, base, keys, np.array([base]) @ weights)


def _set_keys(moved: np.ndarray) -> np.ndarray:
    """One exact key per tuple moved[i, :, x], i-major: its points' int64 bytes, sorted."""
    rows = np.ascontiguousarray(np.sort(moved, axis=1).transpose(0, 2, 1), dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[2]))).ravel()


def _permutations(columns: np.ndarray) -> np.ndarray:
    """The columns as an array; ValueError unless each is a permutation of range(n)."""
    columns = np.asarray(columns)
    if not (np.sort(columns, axis=1) == np.arange(columns.shape[1])).all():
        raise ValueError("generators must be permutations of range(n)")
    return columns


def _tuple_orbit(
    columns: np.ndarray, base: Sequence[int], keys: Callable, base_key: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The orbit of the tuple base, columns[x] moving a tuple F to
    columns[x][F]: its tuples and the int32 table of its steps, read-only.

    keys(steps, F) keys each tuple of F moved by each generator x, i-major,
    injectively on the orbit, where x moves point p to steps[p, x]; base_key
    is base's own.  layered_closure walks the orbit, picked by _fresh_keys,
    which names every step, point-major: new tuples come in table_walk's
    order, so the table is standardized.  ValueError for non-permutations.
    """
    columns = _permutations(columns)
    n, k = columns.shape[1], len(columns)
    steps = np.ascontiguousarray(columns.T).astype(np.min_scalar_type(n - 1))
    rows: list[np.ndarray] = []

    def build(frontier: np.ndarray, picks: np.ndarray) -> np.ndarray:
        return steps[frontier[picks // k], picks[:, None] % k]

    seed = np.array([base], dtype=steps.dtype)
    pick = _fresh_keys(lambda frontier: keys(steps, frontier), base_key, rows)
    tuples = np.concatenate(list(layered_closure(seed, pick, build)))
    table = np.concatenate(rows).reshape(-1, k)
    for shared in (tuples, table):
        shared.flags.writeable = False  # memoized callers share them
    return tuples, table


def numbered_points(m: int, d: int, projective: bool) -> tuple[np.ndarray, Callable]:
    """The points of point_action over Z/m: the vector of each, and
    number(rows), the point of each integer row reduced mod m."""
    place = m ** np.arange(d - 1, -1, -1)
    vectors = np.arange(m**d)[:, None] // place % m
    members = point = np.arange(m**d)
    if projective:
        members, point = np.unique(np.minimum(point, -vectors % m @ place), return_inverse=True)
    return vectors[members], lambda rows: point[np.asarray(rows) % m @ place]


def point_action(
    mats: Sequence[Matrix], projective: bool
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Matrices over Z/m as permutations of points, and a base.

    The points are the row vectors v of (Z/m)^d, numbered by their base-m
    digits, most significant first; when projective, the classes {v, -v},
    numbered in the order of their smaller member (numbered_points).
    columns[x][p] is the point p M for M = mats[x], a permutation when M is
    invertible.  The base
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
    vectors, number = numbered_points(m, d, projective)
    if len(vectors) ** (d + projective) >= 2**63:
        raise ValueError(f"{d + projective} points of {len(vectors)} overflow an int64 key")
    rows = np.eye(d, dtype=np.int64)
    base = number(np.vstack([rows, rows.sum(axis=0)]) if projective else rows)
    return number(vectors @ np.array([g.entries for g in mats])), tuple(base.tolist())


def table_walk(rows: np.ndarray) -> np.ndarray:
    """The points an integer table reaches from point 0, breadth-first, by layered_closure.

    rows[a, x] is the point reached from a along edge x, -1 for none.  Each
    layer's new points come in the row-major order of their first edge, the
    standard order of a coset table (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, ch. 5).  Points 0 never reaches are left out.

    Each layer drops the gaps and the points seen already, then keeps the
    first edge to each point left: owner[p] is the least position of p among
    the layer's candidates.  A point is fresh in one layer only, so owner is
    never reset.
    """
    seen = np.zeros(len(rows), dtype=bool)
    seen[0] = True
    owner = np.full(len(rows), np.iinfo(np.intp).max, dtype=np.intp)

    def pick(frontier: np.ndarray) -> np.ndarray:
        ids = rows[frontier].ravel()
        at = np.flatnonzero(ids >= 0)
        at = at[~seen[ids[at]]]
        ids = ids[at]
        np.minimum.at(owner, ids, at)
        first = owner[ids] == at
        seen[ids[first]] = True
        return at[first]

    layers = layered_closure(np.zeros(1, dtype=np.intp), pick, lambda f, p: rows[f].ravel()[p])
    return np.concatenate(list(layers))


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

    Column j of M s_alpha is M e_j - c_j M alpha, for c = coroot(alpha), the
    coefficients 2 (e_j, alpha) / (alpha, alpha); only the columns in the
    support of alpha change.  The support is summed into the int32 image
    M alpha, exact for entries within int8, and OverflowError is raised
    before an entry past +-127 is stored.
    """
    support, c = [j for j, x in enumerate(alpha) if x], coroot(alpha).tolist()
    image = np.zeros(mats.shape[:2], dtype=np.int32)
    for j in support:
        image += alpha[j] * mats[:, :, j].astype(np.int32)
    for j in support:
        column = mats[:, :, j] - c[j] * image
        if len(column) and (column.max() > 127 or column.min() < -127):
            raise OverflowError("matrix entries exceed int8 storage")
        mats[:, :, j] = column


def _reflection_layers(roots: Sequence[Root]) -> Iterator[np.ndarray]:
    """The closure of the reflections in distinct simple roots of Z^{n,1},
    in any order, from the identity: one block of int8 matrices a layer.

    Picked by _descents, the picked frontier rows are gathered once into the
    layer, and each generator's run of them is reflected there by _reflect.
    """
    d = len(roots[0])

    def build(frontier: np.ndarray, picks: np.ndarray) -> np.ndarray:
        out = frontier[picks % len(frontier)]
        # Sorted, the picks of each generator are one run.
        runs = np.searchsorted(picks, np.arange(len(roots) + 1) * len(frontier))
        for s, alpha in enumerate(roots):
            _reflect(out[runs[s] : runs[s + 1]], alpha)
        return out

    return layered_closure(np.eye(d, dtype=np.int8)[None], _descents(roots), build)


def _descents(roots: Sequence[Root]) -> Callable[[np.ndarray], np.ndarray]:
    """The pick rule by descents, for reflections in distinct simple roots of Z^{n,1}.

    It reads r[t, j] = (w_j alpha_t, v) = alpha_t . (w_j^T J v) off the j-th
    frontier element w_j, for the t-th generator's root alpha_t and the
    chamber vector v.  w s is new, and first reached here, iff s is an
    ascent of w and no generator t before s is a descent of w s: r[s, j] > 0
    and r[t, j] - c_ts r[s, j] > 0 for t < s, as s(alpha_t) = alpha_t - c_ts
    alpha_s.  Nothing is kept from one layer to the next.
    """
    # cartan[t, s] = c_ts = 2 (alpha_t, alpha_s) / (alpha_s, alpha_s), alpha_t . coroot(alpha_s).
    alphas = np.array(roots, dtype=np.int32)
    cartan = alphas @ np.array([coroot(b) for b in roots], dtype=np.int32).T
    d = len(roots[0])
    jv = (gram(d) @ chamber_vector(d - 1)).astype(np.int32)

    def pick(frontier: np.ndarray) -> np.ndarray:
        # w^T J v as int8 rows of w times int32 scalars: no int64 copy of the frontier.
        r = alphas @ sum(frontier[:, a] * x for a, x in enumerate(jv)).T
        ascents = r > 0
        picks = []
        for s in range(len(roots)):
            new = ascents[s].copy()
            for t in range(s):
                c = cartan[t, s]  # 0 when s and t commute: t keeps its sign
                new &= r[t] > c * r[s] if c else ascents[t]
            picks.append(np.flatnonzero(new) + s * len(frontier))
        return np.concatenate(picks)

    return pick


class GroupClosure:
    """Finite matrix group over Z/m, known by a stabilizer chain, multiplying no matrix.

    point_action turns each generator g into the permutation p -> p g of the
    points, the rows of (Z/m)^d, or with projective=True their classes
    {v, -v}: then elements are classes {M, -M}, the right model for
    quotients like PGO where -I must be factored out, and generators may
    carry either sign.  columns, read-only, and base are point_action's.
    _stabilizer_chain gives the order, and membership is one sift; no
    element is listed.  The chain fails fast once its order passes
    DEFAULT_ELEMENT_BUDGET.  The name, the generators, projective, modulus
    and order stay those of the closure this replaced: perfbench/trace.py
    wraps __init__ and reads them.
    """

    def __init__(self, generators: Sequence[Matrix], projective: bool = False) -> None:
        self.generators = tuple(generators)
        self.projective = projective
        self.modulus = self.generators[0].modulus
        self.columns, self.base = point_action(self.generators, projective)
        self.columns.flags.writeable = False
        self._chain, self.order = _stabilizer_chain(self.columns)

    def contains(self, matrix: Matrix) -> bool:
        """Does the matrix's point permutation sift to the identity?"""
        (column,), _ = point_action([matrix], self.projective)
        residue, _ = _sift(self._chain, column[None])
        return bool((residue == np.arange(len(column))).all())

    @property
    def contains_minus_identity(self) -> bool:
        """Is -I an element?  Projectively, -I is the identity."""
        return self.contains(Matrix.identity(self.generators[0].dimension, self.modulus).neg())


def _stabilizer_chain(columns: np.ndarray) -> tuple[list[tuple], int]:
    """A base and strong generating set of the group the permutations columns
    generate, and its order, by deterministic Schreier-Sims (Seress,
    Permutation Group Algorithms, ch. 4; Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 4.4): one _level per base point, from the top.

    A strong generator serves the levels low..depth, where depth is the
    number of base points it fixes first; the columns serve from level 0.
    From the bottom level up, the Schreier generators of level i, of its
    transversal and the strong generators that serve it, are sifted through
    the levels below it, all at once.  The first residue that is not the
    identity serves the levels from i + 1 to the one where it left the sift:
    it lies in the group of level i already, so Schreier's lemma needs it
    only below.  If it passed every level, its first moved point extends
    the base.  The levels it serves are walked again, and the check
    restarts at the last of them.  When no residue is left the chain is
    complete, and the group's order is the product of the orbit lengths.
    ClosureBudgetExceeded once that product passes DEFAULT_ELEMENT_BUDGET,
    read when the chain starts; ValueError for non-permutations.
    """
    budget = DEFAULT_ELEMENT_BUDGET
    columns = _permutations(columns)
    identity = np.arange(columns.shape[1])
    strong = columns[(columns != identity).any(axis=1)]
    strong = strong.astype(np.min_scalar_type(len(identity) - 1))
    base: list[int] = []
    for s in strong:
        if (s[base] == base).all():
            base.append(int(np.argmax(s != identity)))
    depths = np.array([np.argmax(s[base] != base) for s in strong], dtype=int)
    lows = np.zeros(len(strong), dtype=int)

    def level(k: int) -> tuple:
        return _level(strong[(lows <= k) & (depths >= k)], base[k])

    chain = [level(k) for k in range(len(base))]
    i = len(base) - 1
    while i >= 0:
        if math.prod(len(reps) for _, _, reps, _ in chain) > budget:
            raise ClosureBudgetExceeded(f"closure exceeded element budget {budget}")
        gens = strong[(lows <= i) & (depths >= i)]
        residues, left = _sift(chain[i + 1 :], _schreier_generators(chain[i], gens))
        moved = np.flatnonzero((residues != identity).any(axis=1))
        if not len(moved):
            i -= 1
            continue
        h, j = residues[moved[0]], i + 1 + left[moved[0]]
        if j == len(base):
            base.append(int(np.argmax(h != identity)))
            chain.append(None)
        strong = np.vstack([strong, h])
        lows, depths = np.append(lows, i + 1), np.append(depths, j)
        chain[i + 1 : j + 1] = [level(k) for k in range(i + 1, j + 1)]
        i = j
    return chain, math.prod(len(reps) for _, _, reps, _ in chain)


def _level(gens: np.ndarray, point: int) -> tuple:
    """A level of a stabilizer chain: the point; positions, the index of each
    point in the point's orbit under the permutations gens, -1 off it; reps,
    the transversal, one u for each orbit point q, with u[point] = q, the
    identity first; and their inverses.

    layered_closure walks the u, a product u s of a frontier u and a
    generator s being (u s)[p] = s[u[p]].  Its pick rule goes by a seen-mask
    on the images of the point, as table_walk's does: it keeps the first
    product, generator-major, to each image not seen yet.
    """
    seen = np.zeros(gens.shape[1], dtype=bool)
    seen[point] = True

    def pick(frontier: np.ndarray) -> np.ndarray:
        images = gens[:, frontier[:, point]].ravel()
        fresh = np.flatnonzero(~seen[images])
        picks = np.sort(fresh[np.unique(images[fresh], return_index=True)[1]])
        seen[images[picks]] = True
        return picks

    def build(frontier: np.ndarray, picks: np.ndarray) -> np.ndarray:
        return _then(frontier[picks % len(frontier)], gens, picks // len(frontier))

    identity = np.arange(gens.shape[1], dtype=gens.dtype)
    reps = np.concatenate(list(layered_closure(identity[None], pick, build)))
    positions = np.full(len(identity), -1)
    positions[reps[:, point]] = np.arange(len(reps))
    inverses = np.empty_like(reps)
    inverses[np.arange(len(reps))[:, None], reps] = identity
    return point, positions, reps, inverses


def _schreier_generators(level: tuple, gens: np.ndarray) -> np.ndarray:
    """u s v^-1 for every transversal element u of level and generator s,
    where v is the transversal element of the point that u s moves the
    level's point to: one array, generator-major."""
    point, positions, reps, inverses = level
    products = gens[:, reps].reshape(-1, gens.shape[1])
    return _then(products, inverses, positions[products[:, point]])


def _sift(chain: Sequence[tuple], perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sift permutations down the levels of a chain, all at once: the residue
    of each, and the level it left at, len(chain) if it passed them all.  A
    permutation is in the group exactly when its residue is the identity."""
    perms = perms.copy()
    left = np.full(len(perms), len(chain))
    alive = np.arange(len(perms))
    for j, (point, positions, _, inverses) in enumerate(chain):
        at = positions[perms[alive, point]]
        left[alive[at < 0]] = j
        alive, at = alive[at >= 0], at[at >= 0]
        perms[alive] = _then(perms[alive], inverses, at)
    return perms, left


def _then(perms: np.ndarray, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each permutation perms[i] followed by table[rows[i]], as one flat take:
    a broadcast fancy index is slower."""
    return table.ravel().take(rows[:, None] * table.shape[1] + perms)


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
        m = len(roots[0]) - 1
        levels.append(_transversal(roots))
        roots = tuple(a[:m] for a in roots if not a[m])
    return levels


@memoize
def _transversal(roots: tuple[Root, ...]) -> np.ndarray:
    """One x per coset W_J x of the stabilizer W_J of e_n in the group W of the
    reflections in some simple roots of Z^{n,1}: read-only int8 matrices,
    shape (k, d, d), the identity first.

    Row n of x is e_n^T x, which is (u e_n)^T J for u = x^-1, and x, x' lie
    in one coset exactly when their rows n agree.  So orbit() walks the
    orbit of the row e_n^T under right multiplication, keyed by row n, and
    the u = x^-1 are one representative of each coset u W_J.  Every product
    of a frontier is built, by _reflect, before it is keyed: there are at
    most 56 x 7.
    """

    def products(frontier: np.ndarray) -> np.ndarray:
        out = np.concatenate([frontier] * len(roots))  # generator-major
        for s, alpha in enumerate(roots):
            _reflect(out[s * len(frontier) : (s + 1) * len(frontier)], alpha)
        return out

    identity = np.eye(len(roots[0]), dtype=np.int8)[None]
    reps = orbit(identity, products, lambda x: _pack_int8(x[:, -1]))
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
    """The cosets gS of the set stabilizer S of a tuple's points, as the set's orbit:
    tuples[i], read-only, is set i's tuple at its first arrival, set 0 the tuple's own."""

    def __init__(self, tuples: np.ndarray) -> None:
        self.tuples = tuples
        self.count = len(tuples)
        keys = _set_keys(tuples[:, :, None])
        self._order = np.argsort(keys)
        self._keys = keys[self._order]

    def cosets_of(self, tuples: np.ndarray) -> np.ndarray:
        """The coset of the set of each row; KeyError for a set outside the orbit."""
        found = _positions(self._keys, _set_keys(tuples[:, :, None]))
        if (found < 0).any():
            raise KeyError("a set outside the orbit")
        return self._order[found]


def coset_space(columns: np.ndarray, points: Sequence[int]) -> CosetSpace:
    """The cosets of the set stabilizer of points in the group that the permutations
    columns generate: the orbit of the set, by _tuple_orbit."""
    seed_key = _set_keys(np.array([points])[:, :, None])
    return CosetSpace(_tuple_orbit(columns, points, lambda s, f: _set_keys(s[f]), seed_key)[0])
