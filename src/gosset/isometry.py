"""Isometries of Z^{n,1} and their congruence quotients.

An isometry is an integer matrix M with M^T J M = J for the Gram matrix
J = diag(-1, 1, ..., 1); we work in the forward subgroup, characterized by
entry (0,0) >= 1, which preserves the positive light cone.  Reductions mod m
land in finite matrix groups over Z/m.

Groups are enumerated by exhaustive breadth-first closure under right
multiplication by the generators, one vectorized layer at a time.  The one
layer loop, layered_closure, asks a pick rule which products of the frontier
are new, checks the budget, multiplies out only those, as int8 in batches of
a fixed number of rows, and yields the layer as a bare block of elements.
Keys belong to the pick rule alone.  Mod m, and in orbit(), the rule goes by
keys: each product has an int64 key, computed before it is built, and a
layer's candidate keys are deduplicated once and looked up in the sorted
keys of the two layers before it.  Over Z it goes by descents and keys
nothing: the generators are distinct reflections s in simple roots alpha_s,
and for the chamber vector v, l(ws) > l(w) iff (w alpha_s, v) > 0
(Humphreys, Reflection Groups and Coxeter Groups, 5.4), while each element
is first reached, in generator-major order, at its least right descent
(Bjorner and Brenti, Combinatorics of Coxeter Groups, 1.4).  GroupClosure
is the one closure that is kept: it collects the layers of _MatrixProducts
and keys its elements once, for lookup.  finite_group_elements and orbit()
concatenate the layers, and the congruence check counts them and drops
them.  So the largest case in scope, the finite stabilizer for n = 7 (order
2903040), takes about 1.4 s and 68 MB peak RSS, bounded by its largest
layer rather than by the group order.  Matrix closures fail fast past
DEFAULT_ELEMENT_BUDGET elements, which is also what stops an infinite group
over Z; orbits fail past the budget their caller gives.  Everything
downstream (projectivization, coset spaces, the trivial-intersection checks
against congruence subgroups) is built on that engine; layered_closure also
closes orbits of integer rows (orbit(): the E6 roots and root permutations,
stabilizer orbits), and its mod-m products walk coset tables in the
enumeration certificate.

The engine owns the projective quotient: a projective closure keys each
class {M, -M} by the smaller base-m key of its two signs, and that choice,
made in _MatrixProducts, is the only place the package picks a sign.  So
callers hand in plain reductions mod m, of either sign, and never normalise.

memoize() is the package's one caching rule: one entry per argument value.
Each cached group, table or configuration is built once per process, however
its callers spell the call.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache, wraps
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


def lorentz_gram(d: int) -> Rows:
    """Gram matrix diag(-1, 1, ..., 1) of Z^{d-1,1} as integer rows."""
    return tuple(
        tuple((-1 if r == 0 else 1) if r == c else 0 for c in range(d)) for r in range(d)
    )


@dataclass(frozen=True)
class LatticeIsometry:
    """Integer matrix acting on column vectors of Z^{n,1}.

    The trusted constructors are lattice_isometry() and reflection_matrix(),
    which validate the defining conditions; products of isometries are again
    isometries, so composition skips revalidation.
    """

    entries: Rows

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "LatticeIsometry") -> "LatticeIsometry":
        a, b = self.entries, other.entries
        d = len(a)
        cols = list(zip(*b))
        return LatticeIsometry(
            tuple(tuple(sum(ar[k] * bc[k] for k in range(d)) for bc in cols) for ar in a)
        )

    def apply(self, v: LatticeVector) -> LatticeVector:
        if len(v.coords) != self.dimension:
            raise ValueError("dimension mismatch")
        return LatticeVector(
            tuple(sum(row[k] * v.coords[k] for k in range(len(row))) for row in self.entries)
        )

    @staticmethod
    def identity(d: int) -> "LatticeIsometry":
        return LatticeIsometry(tuple(tuple(int(r == c) for c in range(d)) for r in range(d)))


def preserves_form(rows: Rows) -> bool:
    """Does M^T J M = J hold for the Lorentzian Gram matrix?"""
    d = len(rows)
    j = lorentz_gram(d)
    for a in range(d):
        for b in range(d):
            s = 0
            for r in range(d):
                s += rows[r][a] * j[r][r] * rows[r][b]
            if s != j[a][b]:
                return False
    return True


def lattice_isometry(rows: Sequence[Sequence[int]]) -> LatticeIsometry:
    """Validated constructor: form-preserving, forward (entry (0,0) >= 1)."""
    entries = tuple(tuple(int(x) for x in r) for r in rows)
    d = len(entries)
    if any(len(r) != d for r in entries):
        raise ValueError("matrix must be square")
    if not preserves_form(entries):
        raise ValueError("matrix does not preserve the Lorentzian form")
    if entries[0][0] < 1:
        raise ValueError("matrix reverses the light cone (entry (0,0) < 1)")
    return LatticeIsometry(entries)


def reflection_matrix(alpha: Root) -> LatticeIsometry:
    """Matrix of the reflection in a root of norm 1 or 2, columns = images of e_i."""
    d = alpha.n + 1
    cols = [reflect(alpha, basis_vector(i, alpha.n)).coords for i in range(d)]
    rows = tuple(tuple(cols[c][r] for c in range(d)) for r in range(d))
    return lattice_isometry(rows)


@dataclass(frozen=True)
class ModularMatrix:
    """Square matrix over Z/m, entries normalized to 0 <= x < m."""

    entries: Rows
    modulus: int

    def __post_init__(self) -> None:
        m = self.modulus
        if m < 2:
            raise ValueError("modulus must be at least 2")
        if any(not 0 <= x < m for row in self.entries for x in row):
            raise ValueError("entries must be reduced mod m")

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "ModularMatrix") -> "ModularMatrix":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        a, b = self.entries, other.entries
        d = len(a)
        m = self.modulus
        cols = list(zip(*b))
        return ModularMatrix(
            tuple(
                tuple(sum(ar[k] * bc[k] for k in range(d)) % m for bc in cols) for ar in a
            ),
            m,
        )

    def neg(self) -> "ModularMatrix":
        return ModularMatrix(
            tuple(tuple((-x) % self.modulus for x in row) for row in self.entries),
            self.modulus,
        )

    @staticmethod
    def identity(d: int, m: int) -> "ModularMatrix":
        return ModularMatrix(tuple(tuple(int(r == c) for c in range(d)) for r in range(d)), m)


def reduce_mod(mat: LatticeIsometry, m: int) -> ModularMatrix:
    """Entrywise reduction of an integer isometry mod m."""
    return ModularMatrix(tuple(tuple(x % m for x in row) for row in mat.entries), m)


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
    if len(vecs) and np.abs(vecs).max() > 127:
        raise OverflowError("closure key entries exceed int8")
    packed = np.zeros((len(vecs), 8), dtype=np.int8)
    packed[:, : vecs.shape[1]] = vecs
    return packed.view(np.int64).ravel()


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, and the position where each first occurs."""
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    return ordered[starts], np.minimum.reduceat(order, starts)


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
    budget: int,
) -> Iterator[np.ndarray]:
    """Breadth-first closure under right multiplication, one layer at a time.

    pick(F) gives the positions of the new products F g of a frontier F,
    sorted, in generator-major candidate order (position i |F| + j is row j
    times the i-th generator), each new element once; build(F, picks) builds
    them, after the budget has been checked.  The pick rule may keep state
    from one layer to the next, keys included: _fresh_keys and
    _MatrixProducts._descents are the two.

    Yields the elements, one block per layer, the identity layer first.
    Nothing else is kept, so a caller that keeps no block holds at most two
    layers of elements: the one it reads and the frontier the next is built
    from.
    """
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
    candidate_keys: Callable[[np.ndarray], np.ndarray], identity_keys: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """The pick rule by keys: the first occurrence of each key not seen yet.

    candidate_keys(F) gives the int64 key of every product F g of a frontier
    F, generator-major, before any product is built; identity_keys, sorted,
    are the keys of the first layer.  The keys must be injective on the
    group, and the generator set closed under inversion.  Then the
    neighbours of layer k lie in layers k-1, k and k+1, so each layer's
    candidate keys are deduplicated once and looked up in the sorted keys
    of the two layers before them.  The candidate arrays die on return,
    before the next layer's are made.
    """
    before, current = np.empty(0, dtype=np.int64), identity_keys

    def pick(frontier: np.ndarray) -> np.ndarray:
        nonlocal before, current
        cands = candidate_keys(frontier)
        uniq, first = _first_occurrences(cands)
        fresh = (_positions(before, uniq) < 0) & (_positions(current, uniq) < 0)
        before, current = current, uniq[fresh]
        return np.sort(first[fresh])

    return pick


def orbit(seeds: np.ndarray, step: Callable[[np.ndarray], np.ndarray], budget: int) -> np.ndarray:
    """Breadth-first orbit of integer rows, in discovery order, by layered_closure.

    step(F) gives the images of the frontier rows F under each generator,
    stacked generator-major.  Each row is its own key, packed by _pack_int8:
    at most eight entries, each within int8.  The seeds must be distinct.
    The generator set must be closed under inversion, as reflections are.
    The budget counts the seeds.
    """
    keys = np.sort(_pack_int8(seeds))
    if (keys[1:] == keys[:-1]).any():
        raise ValueError("orbit seeds must be distinct")
    images = seeds

    def image_keys(frontier: np.ndarray) -> np.ndarray:
        nonlocal images
        images = step(frontier).reshape(-1, seeds.shape[1])
        return _pack_int8(images)

    pick = _fresh_keys(image_keys, keys)
    layers = layered_closure(seeds, pick, lambda f, picks: images[picks], budget)
    return np.concatenate(list(layers))


# Rows keyed or multiplied per batch: the temporaries of a layer, or of
# GroupClosure.right_multiply, stay this many rows long, however long it is.
_CHUNK_ROWS = 2**14


def _chunks(stop: int, start: int = 0) -> Iterator[slice]:
    """Consecutive slices of at most _CHUNK_ROWS rows covering range(start, stop)."""
    return (slice(i, min(i + _CHUNK_ROWS, stop)) for i in range(start, stop, _CHUNK_ROWS))


class _MatrixProducts:
    """Exact products M g of int8 matrices M by a fixed list of generators g.

    Mod m, every element has an int64 key: the base-m digits of the reduced
    matrix, most significant first.  When projective, the class {M, -M} is
    keyed, and built, by whichever sign has the smaller key, whatever the
    signs of M and the generators.  Products are keyed before they are
    built, and closures pick by keys.  Over Z nothing is keyed: closures
    pick by descents, and the element budget stops an infinite group.

    Products run in float32, which is exact: every entry stays within int8,
    so no partial sum comes near 2^24.
    """

    def __init__(
        self, gen_rows: Sequence[Rows], modulus: int | None, projective: bool
    ) -> None:
        if not gen_rows:
            raise ValueError("need at least one generator")
        if projective and modulus is None:
            raise ValueError("projective closure requires a modulus")
        d = len(gen_rows[0])
        if any(len(g) != d or any(len(r) != d for r in g) for g in gen_rows):
            raise ValueError("generators must be square matrices of equal size")
        self.dimension = d
        self.modulus = modulus
        self.projective = projective

        gens = np.array(gen_rows, dtype=np.int64)
        if modulus is None:
            if np.abs(gens).max() > 127:
                raise OverflowError("matrix entries exceed int8 storage")
        else:
            if modulus > 128 or modulus ** (d * d) > 2**63:
                raise ValueError("mod-m keys need m <= 128 and m^(d*d) <= 2^63")
            gens %= modulus
            # Most significant digit first: keys order like the entries, lexicographically.
            self._powers = modulus ** np.arange(d * d - 1, -1, -1, dtype=np.int64)
            # Products of reduced matrices lie in [0, d (m-1)^2]; reduce them by table.
            self._residue = (np.arange(d * (modulus - 1) ** 2 + 1) % modulus).astype(np.int8)
            self._negated = (-np.arange(modulus) % modulus).astype(np.int8)
        self._gens = gens.astype(np.float32)
        self.identity = np.eye(d, dtype=np.float32)

    def _multiply(self, mats: np.ndarray, gen: np.ndarray) -> np.ndarray:
        """M g for int8 matrices M and a float32 matrix g, as int8 rows of d*d entries.

        Reduced mod m; over Z, checked to fit int8.
        """
        n, d = len(mats), self.dimension
        rows = (mats.reshape(n * d, d).astype(np.float32) @ gen).reshape(n, d * d)
        if self.modulus is not None:
            return self._residue[rows.astype(np.int32)]
        if n and np.abs(rows).max() > 127:
            raise OverflowError("matrix entries exceed int8 storage")
        return rows.astype(np.int8)

    def products(self, mats: np.ndarray, gen: np.ndarray) -> np.ndarray:
        """The products M g as int8 matrices, the smaller of +-M g when projective."""
        flat = self._multiply(mats, gen)
        if self.projective:
            neg = self._negated[flat]
            flat = np.where((self._digits(neg) < self._digits(flat))[:, None], neg, flat)
        return flat.reshape(len(mats), self.dimension, self.dimension)

    def _digits(self, flat: np.ndarray) -> np.ndarray:
        return flat.astype(np.int64) @ self._powers

    def keys(self, mats: np.ndarray) -> np.ndarray:
        """The key of each int8 matrix mod m, in row chunks."""
        keys = np.empty(len(mats), dtype=np.int64)
        for rows in _chunks(len(mats)):
            keys[rows] = self._digits(mats[rows].reshape(-1, self.dimension**2))
        return keys

    def product_keys(self, mats: np.ndarray, gen: np.ndarray) -> np.ndarray:
        """Keys of the products M g of int8 matrices M and a float32 matrix g, mod m."""
        flat = self._multiply(mats, gen)
        keys = self._digits(flat)
        if self.projective:
            np.minimum(keys, self._digits(self._negated[flat]), out=keys)
        return keys

    def candidate_keys(self, frontier: np.ndarray) -> np.ndarray:
        """Keys of every product F g mod m, generator-major, in row chunks of F."""
        keys = np.empty((len(self._gens), len(frontier)), dtype=np.int64)
        for rows in _chunks(len(frontier)):
            for i, g in enumerate(self._gens):
                keys[i, rows] = self.product_keys(frontier[rows], g)
        return keys.ravel()

    def build(self, frontier: np.ndarray, picks: np.ndarray) -> np.ndarray:
        """The products F g at sorted generator-major candidate positions, in chunks of picks."""
        d = self.dimension
        out = np.empty((len(picks), d, d), dtype=np.int8)
        # Sorted, the picks of each generator are one run.
        runs = np.searchsorted(picks, np.arange(len(self._gens) + 1) * len(frontier))
        for i, g in enumerate(self._gens):
            for chunk in _chunks(runs[i + 1], runs[i]):
                out[chunk] = self.products(frontier[picks[chunk] - i * len(frontier)], g)
        return out

    def layers(self, budget: int) -> Iterator[np.ndarray]:
        """The closure from the identity, one block of int8 matrices a layer.

        The generator set must be closed under inversion: each g has a g' in
        the set with g g' = I (+-I when projective).  Over Z it must be a set
        of distinct simple reflections, in any order (see _descents).  Both
        are checked before the first layer.
        """
        ident = self.products(np.eye(self.dimension, dtype=np.int8)[None], self.identity)
        squares = [self.products(self._gens.astype(np.int8), g) == ident for g in self._gens]
        if not np.stack(squares, axis=1).all(axis=(2, 3)).any(axis=1).all():
            raise ValueError("generator set must be closed under inversion")
        if self.modulus is None:
            pick = self._descents()
        else:
            pick = _fresh_keys(self.candidate_keys, self.keys(ident))
        return layered_closure(ident, pick, self.build, budget)

    def _descents(self) -> Callable[[np.ndarray], np.ndarray]:
        """The pick rule by descents, for distinct simple reflections of Z^{d-1,1}.

        It keeps r[t, j] = (w_j alpha_t, v) for the j-th frontier element w_j
        and the t-th generator's root alpha_t.  w s is new, and first reached
        here, iff s is an ascent of w and no generator t before s is a
        descent of w s: r[s, j] > 0 and r[t, j] - c_ts r[s, j] > 0 for t < s,
        as s(alpha_t) = alpha_t - c_ts alpha_s.
        """
        n = self.dimension - 1
        simple = {reflection_matrix(a).entries: a for a in simple_roots(n)}
        roots = [simple.get(tuple(map(tuple, g))) for g in self._gens.astype(int).tolist()]
        if None in roots or len(set(roots)) < len(roots):
            raise ValueError("integer closures need distinct simple reflections as generators")
        # cartan[t, s] = c_ts = 2 (alpha_t, alpha_s) / (alpha_s, alpha_s), an integer.
        cartan = np.array([[2 * inner(a, b) // norm(b) for b in roots] for a in roots], np.int32)
        v = chamber_vector(n)
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


class GroupClosure(_MatrixProducts):
    """Finite matrix group over Z/m obtained by exhaustive closure.

    The layers of _MatrixProducts, kept: the elements as one int8 array, mats,
    in discovery order (element 0 is the identity), and their keys, computed
    once and sorted for lookup.  With projective=True elements are classes
    {M, -M}; that is the right model for quotients like PGO where -I must be
    factored out.  The engine keys and stores each class by the sign with the
    smaller key, for elements, products and queries alike, so generators and
    queries may carry either sign.  The generator set must be closed under
    inversion (reflections are), which also makes every generator invertible
    mod m.  The closure fails fast past DEFAULT_ELEMENT_BUDGET elements.
    """

    def __init__(self, generators: Sequence[ModularMatrix], projective: bool = False) -> None:
        if not generators:
            raise ValueError("need at least one generator")
        m = generators[0].modulus
        if any(g.modulus != m for g in generators):
            raise ValueError("generators must share a modulus")
        self.generators = tuple(generators)
        super().__init__([g.entries for g in generators], m, projective)
        self.mats = np.concatenate(list(self.layers(DEFAULT_ELEMENT_BUDGET)))
        self.order = len(self.mats)
        keys = self.keys(self.mats)
        self._key_order = np.argsort(keys)
        self._sorted_keys = keys[self._key_order]

    def index_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Discovery index of each key, -1 where the key is not in the closure."""
        pos = _positions(self._sorted_keys, keys)
        return np.where(pos >= 0, self._key_order[pos], -1)

    def _entries(self, mat: ModularMatrix) -> Rows:
        if mat.modulus != self.modulus:
            raise ValueError("modulus mismatch")
        return mat.entries

    def __contains__(self, mat: ModularMatrix) -> bool:
        key = self.product_keys(np.array([self._entries(mat)], dtype=np.int8), self.identity)
        return bool(self.index_of_keys(key)[0] >= 0)

    def right_multiply(self, indices: np.ndarray, mat: ModularMatrix) -> np.ndarray:
        """Indices of the products element_i * mat, for an array of element indices."""
        gen = np.array(self._entries(mat), dtype=np.float32)
        keys = np.empty(len(indices), dtype=np.int64)
        for rows in _chunks(len(indices)):
            keys[rows] = self.product_keys(self.mats[indices[rows]], gen)
        found = self.index_of_keys(keys)
        if (found < 0).any():
            raise KeyError("product not in closure")
        return found

    @property
    def contains_minus_identity(self) -> bool:
        if self.projective:
            return False
        return ModularMatrix.identity(self.dimension, self.modulus).neg() in self


def finite_group_elements(generators: Sequence[LatticeIsometry]) -> np.ndarray:
    """All elements of the group generated by simple reflections of Z^{n,1}.

    The elements are int8 matrices, shape (order, d, d), in discovery order.
    The generators, such as the long simple reflections, must be distinct
    reflections in simple roots, which the descent rule walks.  Exhaustive
    closure guarded by DEFAULT_ELEMENT_BUDGET: a wrong generator set
    (infinite group) fails fast instead of silently grinding.
    """
    products = _MatrixProducts([g.entries for g in generators], None, False)
    return np.concatenate(list(products.layers(DEFAULT_ELEMENT_BUDGET)))


@dataclass(frozen=True)
class CongruenceIntersection:
    """Outcome of intersecting a finite isometry group with congruence kernels."""

    n: int
    order: int
    congruent_mod2: int
    congruent_mod3: int


def long_simple_reflections(n: int) -> list[LatticeIsometry]:
    """Reflections in the norm-2 simple roots: generators of the finite stabilizer."""
    return [reflection_matrix(a) for a in simple_roots(n) if norm(a) == 2]


def congruence_intersection_check(n: int) -> CongruenceIntersection:
    """Enumerate the finite stabilizer over Z and count elements = I mod 2 and mod 3.

    The group is trivial-intersection with both congruence kernels exactly
    when each count is 1.  The stabilizer is the Coxeter group of the long
    simple reflections, so the closure walks its descents: w s is new iff
    (w alpha_s, v) > 0 for the chamber vector v (Humphreys, Reflection
    Groups and Coxeter Groups, 5.4), and it is first reached at its least
    right descent (Bjorner and Brenti, Combinatorics of Coxeter Groups,
    1.4), so no element is keyed, sorted or looked up, before it is built or
    after.  The closure is streamed: each layer is counted as it is found
    and dropped, so at most two layers of matrices are held.  n = 7
    enumerates 2903040 matrices in about 1.4 s and 68 MB peak RSS; keep it
    behind an opt-in switch in callers.
    """
    if not 2 <= n <= 7:
        raise ValueError(f"n must be between 2 and 7, got {n}")
    products = _MatrixProducts([g.entries for g in long_simple_reflections(n)], None, False)
    return CongruenceIntersection(n, *_congruence_counts(products.layers(DEFAULT_ELEMENT_BUDGET)))


def _congruence_counts(layers: Iterable[np.ndarray]) -> tuple[int, int, int]:
    """The number of integer matrices in some layers, and of those = I mod 2 and mod 3.

    The layers are counted one at a time and none is kept.  M = I (mod p)
    implies M e_0 = e_0 (mod p), so M - I is reduced only for the elements
    whose first column of M - I vanishes mod p.
    """
    order, fixed = 0, {2: 0, 3: 0}
    for block in layers:
        ident = np.eye(block.shape[1], dtype=np.int8)
        order += len(block)
        moved = block[:, :, 0] - ident[:, 0]
        for p in fixed:
            survivors = block[~(moved % p).any(axis=1)]
            fixed[p] += int((~((survivors - ident) % p).any(axis=(1, 2))).sum())
    return order, fixed[2], fixed[3]


class CosetSpace:
    """Left cosets gH of a subgroup H inside a GroupClosure G.

    H is given by generators that must lie in G; it is read off G, never
    closed on its own.  The cosets are the components of the graph g -- g s
    over the generators s of H, labelled by their least element index.
    Element 0 of G is the identity, so the coset labelled 0 is H itself, and
    its size is |H|.  Coset ids follow the BFS discovery order of G; each
    coset's representative is its first-discovered element.  Every coset
    having |H| elements is asserted on construction.
    """

    def __init__(
        self, group: GroupClosure, subgroup_generators: Sequence[ModularMatrix]
    ) -> None:
        if any(g not in group for g in subgroup_generators):
            raise ValueError("subgroup generators produce elements outside the group")
        self.group = group
        self.subgroup_generators = tuple(subgroup_generators)
        every = np.arange(group.order)
        steps = [group.right_multiply(every, g) for g in self.subgroup_generators]
        labels = every
        while True:
            merged = np.minimum.reduce([labels] + [labels[step] for step in steps])
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

    def cosets_of(self, indices: np.ndarray) -> np.ndarray:
        """Coset ids of group elements given by index."""
        return self._assignment[indices]


def coset_space(
    group: GroupClosure, subgroup_generators: Sequence[ModularMatrix]
) -> CosetSpace:
    """Partition a closed matrix group into left cosets of a subgroup."""
    return CosetSpace(group, subgroup_generators)
