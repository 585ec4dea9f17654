"""Coset enumeration for presentations on involutive generators.

Deduction-driven (Felsch-style) filling: every table assignment alpha·x =
beta is pushed on a deduction stack, and every relator cycle through the new
edge is scanned before the next coset is defined.  Since every generator is
an involution, inverse columns coincide with generator columns, each edge is
stored symmetrically, and the inverse of a word is its reversal.

The scanned words are the cyclic conjugates x·u, starting with x, of the
relators and of their reversals, and they are scanned at alpha only.  That
set is closed under x·u -> x·rev(u), and the cycle x·u read from beta is the
cycle x·rev(u) read from alpha, so a second scan at beta would repeat the
first.  The conjugates (x, x) are not scanned: symmetric storage makes them
hold.  Coincidences are processed with a union-find over coset indices, path
compressed, smaller index surviving; until the first one every coset is its
own representative and the union-find is not consulted.

Enumeration is exact: a closed table reports the subgroup index (the group
order, for the trivial subgroup); hitting the coset budget reports
budget_exceeded and never an order.  Closed tables are renumbered
breadth-first from the subgroup coset, which makes the table canonical and
golden-testable, and can be certified post hoc by replaying every relator at
every coset (verify_table) and against an explicit matrix representation
(verify_action_against_matrices).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from typing import Mapping, Sequence

import numpy as np

from .isometry import ModularMatrix, closure, projective_order
from .presentation import Presentation, Word, build_presentation

DEFAULT_COSET_BUDGET = 200_000

IN_PROGRESS = "in_progress"
CLOSED = "closed"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class CosetTable:
    """Outcome of an enumeration.

    For a closed table, rows are complete, breadth-first standardized, and
    row[x] is the coset reached by generator x.  For budget_exceeded the
    rows are the live part of the partial table (None marks gaps) and no
    order is available.
    """

    generators: tuple[str, ...]
    table: tuple[tuple[int | None, ...], ...]
    status: str
    n_live: int
    cosets_defined: int

    @property
    def order(self) -> int:
        if self.status != CLOSED:
            raise ValueError(f"no order: enumeration status is {self.status}")
        return self.n_live

    def action(self) -> dict[str, tuple[int, ...]]:
        """Permutation of cosets per generator; closed tables only."""
        if self.status != CLOSED:
            raise ValueError("permutation action requires a closed table")
        return {
            g: tuple(row[x] for row in self.table)  # type: ignore[misc]
            for x, g in enumerate(self.generators)
        }

    def dump(self) -> str:
        """Line-oriented dump, cosets and images numbered from 1."""
        lines = []
        for i, row in enumerate(self.table):
            imgs = " ".join("-" if v is None else str(v + 1) for v in row)
            lines.append(f"{i + 1}: {imgs}")
        return "\n".join(lines) + "\n"


class _BudgetHit(Exception):
    pass


class _Enumerator:
    def __init__(self, pres: Presentation, budget: int) -> None:
        self.letters = {g: i for i, g in enumerate(pres.generators)}
        if len(self.letters) != len(pres.generators):
            raise ValueError("duplicate generator labels")
        self.ngens = len(pres.generators)
        self.budget = budget
        self.relators = []
        for w in pres.relators:
            try:
                self.relators.append(tuple(self.letters[a] for a in w))
            except KeyError as bad:
                raise ValueError(f"relator uses unknown generator {bad}") from None
        self.scan_words = self._index_scan_words()
        self.table: list[list[int | None]] = [[None] * self.ngens]
        self.parent = [0]
        self.defined = 1
        self.live = 1
        self.deductions: list[tuple[int, int]] = []

    def _index_scan_words(self) -> list[list[tuple[tuple[int, ...], int]]]:
        """For each generator x, the distinct relator conjugates x·u to scan
        after a deduction alpha·x = beta, each with its last index.

        Involutive generators make the inverse of a word its reversal, so
        reversed conjugates are included too.  Each list is therefore closed
        under x·u -> x·rev(u): a relator cycle that crosses the new edge from
        beta to alpha is the cycle x·rev(u) read from alpha, so scanning at
        alpha alone covers every cycle through the edge.  The words (x, x)
        are left out; the table stores each edge in both directions, so they
        always hold.
        """
        by_first: list[set[tuple[int, ...]]] = [set() for _ in range(self.ngens)]
        for rel in self.relators:
            for base in (rel, tuple(reversed(rel))):
                for r in range(len(base)):
                    conj = base[r:] + base[:r]
                    if conj != (conj[0], conj[0]):
                        by_first[conj[0]].add(conj)
        return [[(w, len(w) - 1) for w in sorted(ws)] for ws in by_first]

    def _find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def _define(self, alpha: int, x: int) -> None:
        if self.defined >= self.budget:
            raise _BudgetHit
        beta = len(self.table)
        self.table.append([None] * self.ngens)
        self.parent.append(beta)
        self.defined += 1
        self.live += 1
        self.table[alpha][x] = beta
        self.table[beta][x] = alpha
        self.deductions.append((alpha, x))

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self._find(a), self._find(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        self.parent[hi] = lo
        self.live -= 1
        queue.append(hi)

    def _coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self._merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            row = self.table[dead]
            for x in range(self.ngens):
                other = row[x]
                if other is None:
                    continue
                self.table[other][x] = None
                self.deductions.append((other, x))
                mu = self._find(dead)
                nu = self._find(other)
                if self.table[mu][x] is not None:
                    self._merge(nu, self.table[mu][x], queue)
                elif self.table[nu][x] is not None:
                    self._merge(mu, self.table[nu][x], queue)
                else:
                    self.table[mu][x] = nu
                    self.table[nu][x] = mu
                    self.deductions.append((mu, x))

    def _process_deductions(self) -> None:
        """Scan the relator cycles through each new edge (alpha, x) at alpha.

        A scan traces the word forwards, from beta = alpha·x when that is
        known, and backwards; a single remaining gap becomes a deduction,
        and a cycle that closes on a different coset is a coincidence.
        """
        table = self.table
        deductions = self.deductions
        scan_words = self.scan_words
        merged = self.live != self.defined
        while deductions:
            a, x = deductions.pop()
            if merged:
                a = self._find(a)
            beta = table[a][x]
            for word, last in scan_words[x]:
                if beta is None:
                    f, i = a, 0
                else:
                    f, i = beta, 1
                while i <= last:
                    nxt = table[f][word[i]]
                    if nxt is None:
                        break
                    f = nxt
                    i += 1
                else:
                    if f != a:
                        self._coincidence(f, a)
                        merged = True
                        a = self._find(a)
                        beta = table[a][x]
                    continue
                b = a
                j = last
                while j >= i:
                    prv = table[b][word[j]]
                    if prv is None:
                        break
                    b = prv
                    j -= 1
                else:
                    self._coincidence(f, b)
                    merged = True
                    a = self._find(a)
                    beta = table[a][x]
                    continue
                if j == i:
                    g = word[i]
                    table[f][g] = b
                    table[b][g] = f
                    deductions.append((f, g))

    def _scan_and_fill(self, word: tuple[int, ...]) -> None:
        """Trace a subgroup word at coset 0, defining cosets to complete it."""
        f = 0
        for x in word:
            if self.table[f][x] is None:
                self._define(f, x)
            nxt = self.table[f][x]
            assert nxt is not None
            f = nxt
        if f != 0:
            self._coincidence(f, 0)

    def run(self, subgroup_words: Sequence[tuple[int, ...]]) -> str:
        try:
            for w in subgroup_words:
                self._scan_and_fill(w)
                self._process_deductions()
            alpha = 0
            while alpha < len(self.table):
                if self.parent[alpha] != alpha:
                    alpha += 1
                    continue
                for x in range(self.ngens):
                    if self.parent[alpha] != alpha:
                        break
                    if self.table[alpha][x] is None:
                        self._define(alpha, x)
                        self._process_deductions()
                alpha += 1
            return CLOSED
        except _BudgetHit:
            return BUDGET_EXCEEDED

    def live_rows(self) -> list[list[int | None]]:
        """Rows of the live cosets.  Coincidence processing redirects every
        edge of a dead coset, so live rows name live cosets only."""
        parent = self.parent
        return [row for a, row in enumerate(self.table) if parent[a] == a]


def _standardize(enum: _Enumerator) -> tuple[tuple[int, ...], ...]:
    """Renumber cosets breadth-first from coset 0 in generator order."""
    old_new: dict[int, int] = {0: 0}
    order = [0]
    qi = 0
    while qi < len(order):
        a = order[qi]
        qi += 1
        for b in enum.table[a]:
            if b is None:
                raise AssertionError("closed table has a gap")
            if b not in old_new:
                old_new[b] = len(order)
                order.append(b)
    if len(order) != enum.live:
        raise AssertionError("coset table action is not transitive")
    return tuple(tuple(old_new[b] for b in enum.table[a]) for a in order)


def todd_coxeter(
    pres: Presentation,
    subgroup_words: Sequence[Word] = (),
    budget: int = DEFAULT_COSET_BUDGET,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by subgroup_words.

    With no subgroup words this enumerates the whole presented group.  The
    budget caps cosets ever defined; exceeding it yields a table with
    status budget_exceeded and no order.
    """
    enum = _Enumerator(pres, budget)
    words = [tuple(enum.letters[a] for a in w) for w in subgroup_words]
    status = enum.run(words)
    if status == CLOSED:
        rows = _standardize(enum)
        return CosetTable(pres.generators, rows, CLOSED, len(rows), enum.defined)
    return CosetTable(
        pres.generators,
        tuple(tuple(row) for row in enum.live_rows()),
        status,
        enum.live,
        enum.defined,
    )


@lru_cache(maxsize=None)
def enumerate_diagram_group(kind: str, budget: int = DEFAULT_COSET_BUDGET) -> CosetTable:
    """Enumerate the deflated diagram presentation; cached because the
    petersen run costs a few seconds and several checks share it."""
    return todd_coxeter(build_presentation(kind), budget=budget)


def verify_table(table: CosetTable, pres: Presentation) -> bool:
    """Replay certificate: every relator fixes every coset, columns are
    involutive permutations, and the action is transitive from coset 0."""
    if table.status != CLOSED:
        raise ValueError("can only certify a closed table")
    if tuple(pres.generators) != table.generators:
        raise ValueError("presentation generators do not match the table")
    n = table.n_live
    rows = np.array(table.table, dtype=np.int64)
    if rows.shape != (n, len(table.generators)):
        return False
    cols = np.ascontiguousarray(rows.T)
    idx = np.arange(n)
    # A map of range(n) into itself that squares to the identity is a
    # permutation.
    if not ((cols >= 0) & (cols < n)).all():
        return False
    if not all((col[col] == idx).all() for col in cols):
        return False
    perms = dict(zip(table.generators, cols))
    for rel in pres.relators:
        cur = idx
        for letter in rel:
            cur = perms[letter][cur]
        if not (cur == idx).all():
            return False
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = idx[:1]
    while frontier.size:
        step = cols[:, frontier].ravel()
        step = step[~reached[step]]
        reached[step] = True
        frontier = np.unique(step)
    return bool(reached.all())


def _permutation_order(perm: np.ndarray) -> int:
    n = len(perm)
    seen = np.zeros(n, dtype=bool)
    out = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        a = start
        while not seen[a]:
            seen[a] = True
            a = int(perm[a])
            length += 1
        out = lcm(out, length)
    return out


def _projective_matrix_order(mat: ModularMatrix) -> int:
    """Smallest k with mat^k scalar (+-identity)."""
    ident = ModularMatrix.identity(mat.dimension, mat.modulus)
    neg = ident.neg()
    power = mat
    k = 1
    while power != ident and power != neg:
        power = power @ mat
        k += 1
        if k > 10_000:
            raise RuntimeError("matrix order runaway; generators likely wrong")
    return k


@dataclass(frozen=True)
class ActionCertificate:
    """Cross-check of an enumeration against a matrix representation."""

    coset_count: int
    matrix_group_order: int
    words_sampled: int
    consistent: bool


def verify_action_against_matrices(
    table: CosetTable,
    assignment: Mapping[str, ModularMatrix],
    seed: int = 0,
    samples: int = 20,
) -> ActionCertificate:
    """Compare a closed full-group table with the matrix group it should be.

    The matrix side is closed exhaustively and counted projectively (scalars
    quotiented; reported by the closure, never assumed).  Element orders of
    seeded random words must agree between the coset action and the matrix
    image; for isomorphic actions they always do.
    """
    if set(assignment) != set(table.generators):
        raise ValueError("assignment must cover exactly the table generators")
    group = closure([assignment[g] for g in table.generators])
    target = projective_order(group)
    perms = {g: np.array(col, dtype=np.int64) for g, col in table.action().items()}
    rng = random.Random(seed)
    ok = table.order == target
    n = table.n_live
    for _ in range(samples):
        word = [rng.choice(table.generators) for _ in range(rng.randint(1, 12))]
        cur = np.arange(n)
        for letter in word:
            cur = perms[letter][cur]
        mat = assignment[word[0]]
        for letter in word[1:]:
            mat = mat @ assignment[letter]
        if _permutation_order(cur) != _projective_matrix_order(mat):
            ok = False
            break
    return ActionCertificate(table.order, target, samples, ok)
