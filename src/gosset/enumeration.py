"""Coset enumeration for presentations on involutive generators.

Deduction-driven (Felsch-style) filling: the relator cycles through each new
entry alpha·x = beta are scanned before the next coset is defined, a
definition's at once, the others' off a deduction stack.  Generators are
involutions, so inverse columns coincide with generator columns, each edge
is stored symmetrically, and the inverse of a word is its reversal.

The scanned words are the cyclic conjugates x·u, starting with x, of the
relators and of their reversals, and they are scanned at alpha only.  That
set is closed under x·u -> x·rev(u), and the cycle x·u read from beta is the
cycle x·rev(u) read from alpha, so a second scan at beta would repeat the
first.  The conjugates (x, x) are not scanned: symmetric storage makes them
hold.  The table is stored by columns, one list per generator, doubled in
place up to the budget, and the scans after a deduction alpha·x run in a
scanner for x, which writes and pushes its own deductions.  It walks x's
template (_slot_form), bound to its slots' columns and generators, and
generators whose words differ by a relabelling share one, as all ten of the
undeflated Petersen presentation do.  An enumeration starts on interpreted
scanners, a loop over the template's words, and switches to compiled ones
when its fill loop defines a coset past _COMPILE_PER_LETTER per letter of
its distinct templates: straight-line code with the columns bound as locals
and one branch per gap of each word, compiled once per template.  Neither
the switch nor the word order moves a table.  The deduction stack is
drained before each definition, to the least fixpoint of its deductions and
coincidences, the smaller index surviving, whatever order the scans take;
the next definition is the first gap in row-major order; and the budget is
read only at definitions.  A definition tests one limit, the least of the
budget, the columns' length and the switch point, and only when it is
reached tells them apart.  Compiling pays only in long runs: it takes about
0.08 s for the ten deflated Petersen templates, five times their run over
H, while the compiled scans run the 100,000-coset negative controls in
about half the interpreted time.  A presentation with a word over
_UNROLL_LETTERS letters is never compiled.  Coincidences are processed with
a union-find over coset indices, path compressed, smaller index surviving;
parent[a] is None while coset a is its own representative, so only merged
cosets hold ints.

Enumeration is exact: a closed table reports the subgroup index (the group
order, for the trivial subgroup); hitting the coset budget reports
budget_exceeded, no rows and never an order.  A closed table's rows are
read off the columns once, renumbered breadth-first from the subgroup coset
by isometry.table_walk, which makes the table canonical and golden-testable,
as a read-only int32 array.  The certificates read a table as it was made:
one reader, _standard_rows, takes the rows and their breadth-first tree off
the entries of a standardized table and rejects any other, and no
certificate walks a table.  verify_table replays every relator at every
coset and reads transitivity off the tree.  A closed table of the whole
group is its regular permutation representation, and verify_labelling
certifies it against permutations on the orbit of a base, with no key
lookup and no walk of the orbit: the labels of the tree must be consistent
with every entry and distinct, which is an explicit isomorphism.
verify_action_against_matrices runs it on the projective matrices' point
action, and the e6 suite on the beta reflections' root permutations; their
orders come from a stabilizer chain of the same permutations, so no route
to them reads the presented table.

The diagram groups' tables are lifted from a small subgroup table, which
proves the group order both ways (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, ch. 5): over a pinned subgroup H the
enumeration closes at its index, the relators among H's generators bound
|H|, and the orbit of a pinned tuple of cosets, at most |G| points, reaches
index |H|.  Then G acts regularly on the orbit, and
isometry.base_orbit_table reads it as the standardized Cayley table of G.
A shortfall raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .isometry import GroupClosure, Matrix, base_orbit_table, memoize, table_walk
from .presentation import Presentation, Word, build_presentation

DEFAULT_COSET_BUDGET = 200_000

CLOSED = "closed"
BUDGET_EXCEEDED = "budget_exceeded"

# An enumeration scans with _interpreted_scanner until it has defined this
# many cosets per letter of its distinct templates, then compiles them.
# Compiling costs 45-58 us per template letter, and interpreting 1.2-11 us
# more per coset than the compiled scans (the affine A5 and Petersen
# presentations, deflated or not, fastest of 9 runs on one pinned CPU of a
# 2-vCPU Xeon VM), so the two break even at 5-39 cosets per letter: 30 and
# 37 for the undeflated Petersen and affine A5 templates.  Switching near
# there, as one rents skis until the rent paid would have bought them,
# keeps any enumeration within about four times the cheaper of the two,
# however long it runs: the other runs of verify all define at most 3
# cosets per letter and compile nothing, the 100,000-coset controls switch
# after 384 and 672, at one template of 24 and of 42 letters.
_COMPILE_PER_LETTER = 16

# The longest scan word that is compiled.  A compiled scan is one branch per
# gap position, each with its own backward trace, so its source grows with
# the square of the length: 3.6 KB for 12 letters, 19 KB for 32 and about
# 130 MB for 3,000.  A presentation with a longer word scans interpreted from
# its first coset to its last.  The diagram presentations' words have at most
# 10.
_UNROLL_LETTERS = 12

# The pins of each diagram group's lift: the generators of the subgroup H,
# and the base tuple B of cosets of H whose orbit is the group.  Each B was
# taken by a greedy pass over the cosets in order.  Index, |H| bound and
# orbit: 6, 4, 24; 90, 8, 720; 540, 96, 51840.
LIFT_PINS = {
    "a3": (("1", "2"), (0, 1)),
    "affine_a5": (("1", "2", "3"), (0, 1, 2)),
    "petersen": (("1", "2", "3", "4", "12"), (0, 1, 2, 3, 5)),
}


@dataclass(frozen=True, eq=False)
class CosetTable:
    """Outcome of an enumeration.

    table[a, x] is the coset reached from coset a by generator x, in an
    (n_live, generators) int32 array, read-only as enumerate_diagram_group
    shares it.  A closed table is complete and breadth-first standardized.
    A budget_exceeded run keeps no rows, table is None, and has no order:
    a negative control reads only the status and the counts.
    """

    generators: tuple[str, ...]
    table: np.ndarray | None
    status: str
    n_live: int
    cosets_defined: int

    @property
    def order(self) -> int:
        if self.status != CLOSED:
            raise ValueError(f"no order: enumeration status is {self.status}")
        return self.n_live


Template = tuple[tuple[int, ...], ...]


def _slot_form(x: int, words: Sequence[tuple[int, ...]]) -> tuple[Template, tuple[int, ...]]:
    """x's scan words as a template over slots, and the generator in each
    slot: x is slot 0, the words are sorted by length and letter pattern, and
    every other letter takes the next slot where it first appears."""

    def relabel(word: tuple[int, ...], slots: dict[int, int]) -> tuple[int, ...]:
        return tuple(slots.setdefault(g, len(slots)) for g in word)

    slots = {x: 0}
    ordered = sorted(words, key=lambda w: (len(w), relabel(w, {})))
    return tuple(relabel(w, slots) for w in ordered), tuple(slots)


def _scanner_source(template: Template) -> str:
    """Source of bind(cols, ids, push, rescan), which returns scan(a): the
    scans of every word of the template at a, unrolled, in the template's
    order, the walk of _interpreted_scanner.  cols are the columns of the
    slots' generators, slot 0's first, and ids those generators.

    Each word is one if/elif chain that traces forwards from beta = a·x, one
    branch per gap position i.  Each branch holds its own backward trace of b
    from a, one walrus per letter past i, which stops at a gap; if it reaches
    i, an entry closes the cycle on a second coset, a coincidence, and a gap
    is a deduction, written both ways and pushed.  The last branch meets no
    gap: the cycle closes, a coincidence if it ends off a.

    beta is always known: a scan starts at a deduction alpha·x = beta, and a
    coincidence gives every edge it clears a new value before a scan reads
    it, so a broken invariant fails loudly, indexing by None.  The columns
    and ids are default arguments, read as locals; after a coincidence,
    rescan gives the representative of a and its neighbour in column c0.
    """
    slots = range(1 + max((s for word in template for s in word), default=0))
    cols = ", ".join(f"c{s}" for s in slots)
    ids = ", ".join(f"g{s}" for s in slots)
    defaults = ", ".join(f"{v}{s}={v}{s}" for v in "cg" for s in slots)
    lines = [
        "def bind(cols, ids, push, rescan):",
        f"    {cols}, = cols",
        f"    {ids}, = ids",
        f"    def scan(a, {defaults}, push=push, rescan=rescan):",
        "        beta = c0[a]",
    ]
    for word in template:
        f = "beta"
        for i, s in enumerate(word[1:], 1):
            back, b = [], "a"
            for h in reversed(word[i + 1 :]):
                back.append(f"(b := c{h}[{b}]) is not None")
                b = "b"
            gap = [
                f"if (e := c{s}[{b}]) is None: c{s}[{f}] = {b}; c{s}[{b}] = {f}; push(({f}, g{s}))",
                f"else: a, beta = rescan({f}, e, a, c0)",
            ]
            if back:
                gap = [f"if {' and '.join(back)}:"] + ["    " + line for line in gap]
            lines.append(f"        {'if' if i == 1 else 'elif'} (f{i} := c{s}[{f}]) is None:")
            lines += ["            " + line for line in gap]
            f = f"f{i}"
        closed = f"{f} != a: a, beta = rescan({f}, a, a, c0)"
        lines.append(f"        {'if' if f == 'beta' else 'elif'} {closed}")
    lines += ["    return scan", ""]
    return "\n".join(lines)


@memoize
def _compile_scanner(template: Template) -> Callable:
    """The bind function of one template, compiled once and bound to the
    columns of every generator whose slot form it is."""
    namespace: dict = {}
    exec(compile(_scanner_source(template), "<scanner>", "exec"), namespace)
    return namespace["bind"]


class _Prefix:
    """The first n backward-trace columns of a long word, sliced off each
    time a scan reads them: stored as tuples, one per letter, they would
    grow with the square of the word's length."""

    __slots__ = ("back", "n")

    def __init__(self, back: tuple, n: int) -> None:
        self.back, self.n = back, n

    def __iter__(self):
        return iter(self.back[: self.n])


def _interpreted_scanner(
    template: Template, cols: Sequence[list], ids: Sequence[int], push: Callable, rescan: Callable
) -> Callable[[int], None]:
    """scan(a): the walk of _scanner_source's code, word by word, with the
    same writes, pushes and rescans.  Each letter of a word is held with its
    column, its generator and the columns of the letters after it, last
    first, which the backward trace reads: a tuple built here, so a scan
    slices nothing, or a _Prefix for a word over _UNROLL_LETTERS letters."""
    plans = []
    for word in template:
        back = tuple(cols[s] for s in reversed(word[1:]))
        short = len(word) <= _UNROLL_LETTERS
        steps = []
        for i, s in enumerate(word[1:], 1):
            after = len(back) - i
            steps.append((cols[s], ids[s], back[:after] if short else _Prefix(back, after)))
        plans.append(tuple(steps))
    cx = cols[0]

    def scan(a):
        beta = cx[a]
        for steps in plans:
            f = beta
            for c, g, back in steps:
                if (step := c[f]) is None:
                    break
                f = step
            else:
                if f != a:
                    a, beta = rescan(f, a, a, cx)
                continue
            b = a
            for d in back:
                if (b := d[b]) is None:
                    break
            else:
                if (e := c[b]) is None:
                    c[f] = b
                    c[b] = f
                    push((f, g))
                else:
                    a, beta = rescan(f, e, a, cx)

    return scan


def _require_involutions(pres: Presentation) -> None:
    """ValueError naming each generator x whose square (x, x) is not a
    relator: the enumerator stores every generator as an involution."""
    relators = {tuple(r) for r in pres.relators}
    if missing := [g for g in pres.generators if (g, g) not in relators]:
        raise ValueError(f"generators with no relator (x, x): {', '.join(missing)}")


def _indexed(letters: Mapping[str, int], word: Word, kind: str) -> tuple[int, ...]:
    """The word as generator indices; ValueError names a letter that is not a generator."""
    try:
        return tuple(letters[a] for a in word)
    except KeyError as bad:
        raise ValueError(f"{kind} uses unknown generator {bad}") from None


class _Enumerator:
    def __init__(self, pres: Presentation, budget: int) -> None:
        self.letters = {g: i for i, g in enumerate(pres.generators)}
        if len(self.letters) != len(pres.generators):
            raise ValueError("duplicate generator labels")
        if budget < 1:
            raise ValueError(f"the coset budget must be at least 1, not {budget}")
        _require_involutions(pres)
        self.ngens = len(pres.generators)
        self.budget = budget
        self.relators = [self.indexed(w, "relator") for w in pres.relators]
        self.forms = self._slot_forms()
        self.cols: list[list[int | None]] = [[None] for _ in range(self.ngens)]
        self.parent: list[int | None] = [None]
        self.defined = 1
        self.live = 1
        self.deductions: list[tuple[int, int]] = []

    def indexed(self, word: Word, kind: str) -> tuple[int, ...]:
        return _indexed(self.letters, word, kind)

    def _slot_forms(self) -> tuple[tuple[Template, tuple[int, ...]], ...]:
        """For each generator x, the slot form of its scan words: the distinct
        conjugates x·u of the relators and of their reversals, less the words
        (x, x), to scan after a deduction alpha·x = beta, at alpha alone."""
        by_first: list[set[tuple[int, ...]]] = [set() for _ in range(self.ngens)]
        for rel in self.relators:
            for base in (rel, tuple(reversed(rel))):
                for r in range(len(base)):
                    conj = base[r:] + base[:r]
                    if conj != (conj[0], conj[0]):
                        by_first[conj[0]].add(conj)
        return tuple(_slot_form(x, sorted(ws)) for x, ws in enumerate(by_first))

    def _find(self, a: int) -> int:
        parent = self.parent
        root = a
        while (up := parent[root]) is not None:
            root = up
        while a != root:
            parent[a], a = root, parent[a]
        return root

    def _grow(self) -> None:
        """Double the columns, which the scanners hold, and parent in place,
        to at most budget slots, as no coset past the budget is defined."""
        gaps = [None] * min(len(self.parent), self.budget - len(self.parent))
        for col in (*self.cols, self.parent):
            col.extend(gaps)

    def _rescan(self, f: int, b: int, a: int, col: list) -> tuple[int, int | None]:
        """Process the coincidence f = b met scanning at a, then give the
        representative of a and its entry in col, the scanner's column."""
        self._coincidence(f, b)
        a = self._find(a)
        return a, col[a]

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
            for x, col in enumerate(self.cols):
                other = col[dead]
                if other is None:
                    continue
                col[other] = None
                self.deductions.append((other, x))
                mu = self._find(dead)
                nu = self._find(other)
                if col[mu] is not None:
                    self._merge(nu, col[mu], queue)
                elif col[nu] is not None:
                    self._merge(mu, col[nu], queue)
                else:
                    col[mu] = nu
                    col[nu] = mu
                    self.deductions.append((mu, x))

    def _scanners(self, compiled: bool) -> list:
        """One scan(a) per generator, its template compiled or interpreted,
        bound to its slots' columns and generators, the deduction stack and
        _rescan."""
        return [
            (_compile_scanner(t) if compiled else partial(_interpreted_scanner, t))(
                [self.cols[g] for g in ids], ids, self.deductions.append, self._rescan
            )
            for t, ids in self.forms
        ]

    def run(self, subgroup_words: Sequence[tuple[int, ...]]) -> str:
        # A local list: the scanners hold bound methods, so keeping them on
        # self would make a cycle that outlives the call with the table.
        cols, parent, deductions = self.cols, self.parent, self.deductions
        pop, find, budget = deductions.pop, self._find, self.budget
        start = defined = self.defined
        lengths = [len(w) for t in {t for t, _ in self.forms} for w in t]
        long_word = max(lengths, default=0) > _UNROLL_LETTERS
        compile_at = math.inf if long_word else _COMPILE_PER_LETTER * sum(lengths)
        scanners = self._scanners(compiled=False)
        # A definition tests the least of its three limits alone: the budget,
        # the columns' length and the switch to compiled scans, which only
        # the fill loop makes.
        limit = min(budget, len(parent), compile_at)
        try:
            # Trace each subgroup word at coset 0, defining cosets to complete
            # it, then scan each deduction (alpha, x) at alpha with x's scanner.
            for word in subgroup_words:
                f = 0
                for x in word:
                    col = cols[x]
                    if col[f] is None:
                        if defined >= limit:
                            if defined >= budget:
                                return BUDGET_EXCEEDED
                            if defined == len(parent):
                                self._grow()
                            limit = min(budget, len(parent), compile_at)
                        col[f], col[defined] = defined, f
                        deductions.append((f, x))
                        defined += 1
                    f = col[f]
                if f != 0:
                    self._coincidence(f, 0)
                while deductions:
                    a, y = pop()
                    scanners[y](a if parent[a] is None else find(a))
            # Fill row by row, scanning each new edge alpha·x at once: with the
            # deduction stack empty, that is the scan a push and pop would make.
            alpha = 0
            columns = tuple(enumerate(cols))
            while alpha < defined:
                if parent[alpha] is None:
                    for x, col in columns:
                        if col[alpha] is None:
                            if defined >= limit:
                                if defined >= budget:
                                    return BUDGET_EXCEEDED
                                if defined == len(parent):
                                    self._grow()
                                if defined >= compile_at:
                                    compile_at, scanners = math.inf, self._scanners(compiled=True)
                                limit = min(budget, len(parent), compile_at)
                            col[alpha], col[defined] = defined, alpha
                            defined += 1
                            scanners[x](alpha)
                            while deductions:
                                a, y = pop()
                                scanners[y](a if parent[a] is None else find(a))
                            # Only a definition's scans can merge alpha.
                            if parent[alpha] is not None:
                                break
                alpha += 1
            return CLOSED
        finally:
            self.live += defined - start
            self.defined = defined


def _live_table(enum: _Enumerator) -> np.ndarray:
    """The live rows of a closed run as a read-only int32 array, each live
    coset renumbered to its row in table_walk order, which standardizes it.
    Coincidences redirect every edge, so an entry naming a dead or undefined
    coset raises AssertionError, as does a gap or an intransitive action."""
    rows = np.empty((enum.defined, enum.ngens), dtype=np.int32)
    for x, col in enumerate(enum.cols):
        rows[:, x] = [-1 if b is None else b for b in col[: enum.defined]]
    if (rows >= enum.defined).any():
        raise AssertionError("a live row names a dead coset")
    order = table_walk(rows)
    table = _renumbered(rows, order)
    table.flags.writeable = False
    if len(order) != enum.live or (table < 0).any():
        raise AssertionError("closed table has a gap or an intransitive action")
    return table


def _renumbered(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The rows listed in order, as int32, each listed point renumbered to its
    position and every other entry, a gap (-1, which reads the last slot)
    included, to -1.  With order = table_walk(rows) this standardizes a table."""
    renumber = np.full(len(rows) + 1, -1, dtype=np.int32)
    renumber[order] = np.arange(len(order))
    return renumber[rows[order]]


def todd_coxeter(
    pres: Presentation,
    subgroup_words: Sequence[Word] = (),
    budget: int = DEFAULT_COSET_BUDGET,
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by subgroup_words.

    With no subgroup words this enumerates the whole presented group.  The
    budget caps cosets ever defined; exceeding it yields status
    budget_exceeded, no rows and no order.  ValueError for a budget below 1
    or a generator whose square is not a relator.
    """
    enum = _Enumerator(pres, budget)
    words = [enum.indexed(w, "subgroup word") for w in subgroup_words]
    status = enum.run(words)
    table = _live_table(enum) if status == CLOSED else None
    return CosetTable(pres.generators, table, status, enum.live, enum.defined)


@memoize
def enumerate_diagram_group(kind: str) -> CosetTable:
    """The standardized table of the deflated diagram presentation, lifted
    from the table of the subgroup H in LIFT_PINS; cached, as checks share it.

    |G| <= index |H|, as the relators among H's generators present a group
    onto H.  The replayed table of H is an action of G, so the orbit of the
    base tuple has at most |G| points; with index |H| it is regular, and its
    table is the Cayley table.  RuntimeError if an enumeration does not
    close, the table of H breaks a relator or the orbit misses the bound.
    The table counts one coset defined per orbit point.
    """
    pres = build_presentation(kind)
    generators, base = LIFT_PINS[kind]
    cosets = todd_coxeter(pres, [(g,) for g in generators])
    among = tuple(r for r in pres.relators if set(r) <= set(generators))
    subgroup = todd_coxeter(Presentation(generators, among))
    runs = (("the cosets of H", cosets), ("the relators among H's generators", subgroup))
    for what, table in runs:
        if table.status != CLOSED:
            raise RuntimeError(f"{what}: enumeration {table.status}")
    if not verify_table(cosets, pres):
        raise RuntimeError("the coset table of H breaks a relator")
    bound = cosets.order * subgroup.order
    table = base_orbit_table(cosets.table.T, base, bound)
    if len(table) != bound:
        raise RuntimeError(f"the orbit of {base} has {len(table)} points, the bound is {bound}")
    return CosetTable(pres.generators, table, CLOSED, len(table), len(table))


def _standard_rows(table: CosetTable) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows of a table, not copied, and their breadth-first tree: the
    row-major position of the first entry naming each coset j > 0, where the
    running maximum of the entries rises.  None unless the rows are an
    (n_live, generators) integer array with entries in range(n_live), and
    standardized: the first entry naming j comes before the first naming
    j + 1, in a row before row j, so the tree reaches every coset from 0."""
    n, k = table.n_live, len(table.generators)
    try:
        rows = np.asarray(table.table)
    except ValueError:  # ragged rows
        return None
    # None entries make an object array, and floats are no coset numbers.
    shaped = rows.dtype.kind in "iu" and rows.shape == (n, k)
    if not shaped or not ((rows >= 0) & (rows < n)).all():
        return None
    peak = np.maximum.accumulate(np.r_[0, rows.ravel()])
    firsts = np.flatnonzero(peak[1:] != peak[:-1])
    # n - 1 rises to at most n - 1 are steps of one, to 1, 2, ..., n - 1.
    if len(firsts) != n - 1 or (firsts // k >= np.arange(1, n)).any():
        return None
    return rows, firsts


def verify_table(table: CosetTable, pres: Presentation) -> bool:
    """Replay certificate: every relator fixes every coset, columns are
    involutive permutations, and the tree of a standardized table
    (_standard_rows) reaches every coset from 0; any other numbering fails.
    A relator u^m, u primitive, is replayed as the permutation of u applied
    m times, and the squares (x, x) are proved by the involution check.
    ValueError for an open table, other generators, a relator letter that is
    not a generator, or a generator whose square is not a relator: the
    certificate checks involutive columns."""
    if table.status != CLOSED:
        raise ValueError("can only certify a closed table")
    if tuple(pres.generators) != table.generators:
        raise ValueError("presentation generators do not match the table")
    _require_involutions(pres)
    letters = {g: i for i, g in enumerate(table.generators)}
    relators = [_indexed(letters, rel, "relator") for rel in pres.relators]
    if (standard := _standard_rows(table)) is None:
        return False
    cols = np.ascontiguousarray(standard[0].T, dtype=np.intp)  # an intp index gathers fastest
    idx = np.arange(table.n_live)
    # A map of range(n) into itself that squares to the identity is a
    # permutation.
    if not all((col[col] == idx).all() for col in cols):
        return False
    for rel in relators:
        if not rel or len(rel) == 2 and rel[0] == rel[1]:
            continue
        root, m = _primitive_root(rel)
        step = cols[root[0]]
        for letter in root[1:]:
            step = cols[letter][step]
        cur = step
        for _ in range(m - 1):
            cur = step[cur]
        if not (cur == idx).all():
            return False
    return True


def _primitive_root(word: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(root, m) with the word, not empty, root^m and m as large as it can be."""
    n = len(word)
    p = next(p for p in range(1, n + 1) if n % p == 0 and word == word[:p] * (n // p))
    return word[:p], n // p


@dataclass(frozen=True)
class ActionCertificate:
    """Cross-check of an enumeration against a matrix representation."""

    coset_count: int
    matrix_group_order: int
    edges_checked: int
    consistent: bool


def verify_action_against_matrices(
    table: CosetTable, assignment: Mapping[str, Matrix]
) -> ActionCertificate:
    """Certify that a closed full-group table is the regular action of the
    matrix group, by an explicit isomorphism.

    The matrices, in the table's generator order, act on the points of
    their projective_action, and verify_labelling labels every coset with
    the images of its base: a consistent, injective labelling matches each
    coset with the matrix the same word reaches, edge by edge, so the
    matrix group's order, matrix_group_order, which the projective_action
    takes from a stabilizer chain, is the number of cosets.  edges_checked
    counts the table's entries, which a consistent certificate has checked.
    A malformed or unstandardized table is rejected before any matrix is
    read; generators that are not invertible raise ValueError.
    """
    if table.status != CLOSED:
        raise ValueError("can only certify a closed table")
    if set(assignment) != set(table.generators):
        raise ValueError("assignment must cover exactly the table generators")
    n, k = table.n_live, len(table.generators)
    if _standard_rows(table) is None:
        return ActionCertificate(n, 0, 0, False)
    group = projective_action(tuple(assignment[g] for g in table.generators))
    consistent = verify_labelling(table, group.columns, group.base)
    return ActionCertificate(n, group.order, k * n, consistent)


@memoize
def projective_action(generators: tuple[Matrix, ...]) -> GroupClosure:
    """The projective GroupClosure of the generators, with its point action
    and order: built once per generator tuple, as the matrix cross-check and
    triple_agreement share the walls'."""
    return GroupClosure(generators, projective=True)


def verify_labelling(table: CosetTable, columns: np.ndarray, base: Sequence[int]) -> bool:
    """Keyless certificate that a closed table is the table of the
    permutations columns acting on the orbit of the tuple base, table
    generator x as columns[x]: the table base_orbit_table would walk,
    checked with no key lookup and no walk of the orbit.

    Coset 0 is labelled F_0 = base, and every other coset j along the
    table's breadth-first tree: F_j = columns[x][F_i] for the first entry
    (i, x), in row-major order, that names j.  Every entry (i, x) must then
    satisfy columns[x][F_i] == F_{table[i, x]}, compared as base-n int64
    keys, and the labels must be distinct, by one sort of their keys.  Such
    a labelling is an equivariant bijection onto the orbit of base, so it
    exists exactly when the two standardized tables are equal (McConnell,
    Mehlhorn, Naher and Schweitzer, Certifying algorithms, Comput. Sci. Rev.
    5(2), 2011).  The tree is read off the entries of a standardized table
    (_standard_rows); a malformed table, or one in any other numbering,
    fails the certificate.  ValueError for an open table, a column count
    other than the table's generators' or a base point outside the columns'
    points, OverflowError for keys past int64.
    """
    if table.status != CLOSED:
        raise ValueError("can only certify a closed table")
    columns = np.asarray(columns)
    if len(columns) != len(table.generators):
        raise ValueError(f"{len(columns)} columns for {len(table.generators)} generators")
    points = columns.shape[1]
    if not all(0 <= p < points for p in base):
        raise ValueError(f"a base point outside range({points}): {[int(p) for p in base]}")
    if points ** len(base) >= 2**63:
        raise OverflowError(f"{len(base)} points of {points} overflow an int64 key")
    if (standard := _standard_rows(table)) is None:
        return False
    rows, firsts = standard
    n, k = rows.shape
    parents, gens = np.divmod(firsts, k)
    # One place of the labels a row, each coset's parent labelled before it:
    # a breadth-first layer at a time, the cosets whose parents are done.
    labels = np.empty((len(base), n), dtype=columns.dtype)
    labels[:, 0] = base
    flat = columns.ravel()
    done = 1
    while done < n:
        end = 1 + np.searchsorted(parents, done)
        offsets, up = gens[done - 1 : end - 1] * points, parents[done - 1 : end - 1]
        for place in labels:
            place[done:end] = flat.take(offsets + place.take(up))
        done = end
    weights = points ** np.arange(len(base), dtype=np.int64)
    keys = weights @ labels
    for x, column in enumerate(columns):
        moved = sum((w * column).take(place) for w, place in zip(weights, labels))
        if not (moved == keys.take(rows[:, x])).all():
            return False
    keys.sort()
    return bool((keys[1:] != keys[:-1]).all())

