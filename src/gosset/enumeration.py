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
every coset (verify_table).  A closed table of the whole group is its regular
permutation representation, so a map from the cosets to a matrix group that
holds on every edge and is injective is an explicit isomorphism;
verify_action_against_matrices builds that map by walking the table and
checks it, without closing the matrix group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .isometry import ModularMatrix, _first_occurrences, _MatrixProducts, memoize
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


@memoize
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


@dataclass(frozen=True)
class ActionCertificate:
    """Cross-check of an enumeration against a matrix representation."""

    coset_count: int
    matrix_group_order: int
    edges_checked: int
    consistent: bool


def verify_action_against_matrices(
    table: CosetTable, assignment: Mapping[str, ModularMatrix]
) -> ActionCertificate:
    """Certify that a closed full-group table is the regular action of the
    matrix group, by an explicit isomorphism.

    The table is walked breadth-first from coset 0, one layer at a time, with
    phi(0) = I and phi(child) = phi(parent) t_x along the first edge (in
    generator-major order) that reaches each child; the table need not be
    standardized.  Matrices are counted projectively, each class {M, -M}
    keyed by the smaller base-m key.  The certificate checks every edge of
    every column, key(phi(i) t_x) == key(phi(i.x)), and that phi is injective.
    Edge consistency makes the image closed under the generators, so it is
    the whole matrix group and matrix_group_order, the number of distinct
    images, is its exact projective order; injectivity gives |table| =
    |group|.  No closure of the matrix group is needed.  A coset the walk
    never reaches, an entry outside the table, an inconsistent edge or two
    cosets with one image make the certificate inconsistent.
    """
    if table.status != CLOSED:
        raise ValueError("can only certify a closed table")
    if set(assignment) != set(table.generators):
        raise ValueError("assignment must cover exactly the table generators")
    gens = [assignment[g] for g in table.generators]
    modulus = gens[0].modulus
    if any(g.modulus != modulus for g in gens):
        raise ValueError("assignment matrices must share a modulus")
    walker = _MatrixProducts([g.entries for g in gens], modulus, projective=True)
    n, k = table.n_live, len(gens)
    rows = np.array(table.table, dtype=np.int64)
    if rows.shape != (n, k) or not ((rows >= 0) & (rows < n)).all():
        return ActionCertificate(n, 0, 0, False)

    ident = np.eye(walker.dimension, dtype=np.int8)[None]
    mats = walker.products(ident, walker.identity)
    image_keys = np.empty(n, dtype=np.int64)
    image_keys[0] = walker.product_keys(ident, walker.identity)[0]
    edge_keys = np.empty((k, n), dtype=np.int64)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        cands = walker.candidate_keys(mats)
        edge_keys[:, frontier] = cands.reshape(k, -1)
        targets = rows[frontier].T.ravel()
        ids, first = _first_occurrences(targets)
        picks = np.sort(first[~reached[ids]])
        frontier = targets[picks]
        reached[frontier] = True
        image_keys[frontier] = cands[picks]
        mats = walker.build(mats, picks)
    seen = np.flatnonzero(reached)
    edges_hold = bool((edge_keys[:, seen] == image_keys[rows[seen].T]).all())
    images = len(np.unique(image_keys[seen]))
    consistent = len(seen) == n and edges_hold and images == n
    return ActionCertificate(n, images, k * len(seen), consistent)
