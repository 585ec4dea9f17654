"""Integer isometries, matrix closures, and the congruence checks."""

import hashlib
import inspect
import random

import numpy as np
import pytest

from gosset.isometry import (
    ClosureBudgetExceeded,
    CongruenceIntersection,
    GroupClosure,
    Matrix,
    base_orbit_table,
    chamber_vector,
    congruence_intersection_check,
    coset_space,
    finite_group_elements,
    lattice_isometry,
    long_simple_reflections,
    memoize,
    lorentz_gram,
    orbit,
    point_action,
    reflection_matrix,
    table_walk,
    _chain_counts,
    _parabolic_chain,
    _reflect,
    _reflection_layers,
    _transversal,
)
from gosset import isometry
from gosset.e6 import SIMPLE_ROOTS, beta_configuration, cartan_matrix, reflection_rows, root_system
from gosset.enumeration import enumerate_diagram_group, matrix_cayley_table
from gosset.geometry import (
    build_tessellation,
    reflection_image_mod3,
    stabilizer_generators_mod3,
    wall_reflections_mod3,
)
from gosset.lattice import inner, norm, reflect, simple_roots, vector


def test_reflection_matrix_agrees_with_reflect():
    rng = random.Random(10)
    for n in (2, 3, 4):
        for a in simple_roots(n):
            m = reflection_matrix(a)
            for _ in range(20):
                v = vector(*[rng.randint(-9, 9) for _ in range(n + 1)])
                assert (np.array(m.entries) @ v.coords).tolist() == list(reflect(a, v).coords)


def test_reflection_matrices_are_involutive_isometries():
    for n in (2, 3, 4):
        for a in simple_roots(n):
            m = reflection_matrix(a)
            transpose = Matrix(tuple(zip(*m.entries)))
            assert transpose @ lorentz_gram(n + 1) @ m == lorentz_gram(n + 1)
            assert m @ m == Matrix.identity(n + 1)


def test_reflection_matrices_have_determinant_minus_one():
    sympy = pytest.importorskip("sympy")
    for n in (2, 3, 4):
        for a in simple_roots(n):
            assert sympy.Matrix(reflection_matrix(a).entries).det() == -1


def test_isometry_factory_rejects_junk():
    with pytest.raises(ValueError):
        lattice_isometry(((1, 0), (0, 1), (0, 0)))
    # A permutation moving the time axis does not preserve the form.
    with pytest.raises(ValueError):
        lattice_isometry(((0, 1, 0), (1, 0, 0), (0, 0, 1)))


def test_reduce_wraps_entries():
    m = Matrix.identity(3).reduce(3)
    assert m.modulus == 3
    assert m == Matrix.identity(3, 3)
    assert m != Matrix.identity(3)
    neg = reflection_matrix(simple_roots(2)[2]).reduce(2)
    assert all(0 <= e < 2 for row in neg.entries for e in row)
    with pytest.raises(ValueError, match="only an integer matrix"):
        Matrix.identity(3, 3).reduce(3)


def test_products_refuse_factors_from_two_rings():
    s = reflection_matrix(simple_roots(2)[0])
    with pytest.raises(ValueError, match="ring mismatch"):
        s @ s.reduce(3)
    with pytest.raises(ValueError, match="ring mismatch"):
        s.reduce(3) @ s
    with pytest.raises(ValueError, match="ring mismatch"):
        s.reduce(3) @ s.reduce(5)
    assert (s @ s).modulus is None
    assert s.reduce(3) @ s.reduce(3) == Matrix.identity(3, 3)


def test_neg_stays_in_its_ring():
    s = reflection_matrix(simple_roots(2)[0])
    assert s.neg().entries == tuple(tuple(-x for x in row) for row in s.entries)
    assert s.neg().modulus is None and s.neg().neg() == s
    minus = Matrix.identity(3, 3).neg()
    assert minus == Matrix(((2, 0, 0), (0, 2, 0), (0, 0, 2)), 3)
    assert s.reduce(3).neg() == s.neg().reduce(3)
    assert minus @ minus == Matrix.identity(3, 3)


def test_matrix_products_reject_generators_from_mixed_rings():
    s = long_simple_reflections(3)
    with pytest.raises(ValueError, match="one ring"):
        finite_group_elements([s[0], s[1].reduce(3)])
    with pytest.raises(ValueError, match="one ring"):
        GroupClosure([s[0].reduce(3), s[1].reduce(5)], projective=True)
    with pytest.raises(ValueError, match="one ring"):
        GroupClosure([s[0].reduce(3), s[1]])
    with pytest.raises(ValueError, match="over Z/m"):
        GroupClosure(s)
    with pytest.raises(ValueError, match="over Z"):
        finite_group_elements([g.reduce(3) for g in s])


def test_group_closure_rejects_an_integer_query():
    g = GroupClosure(stabilizer_generators_mod3(3))
    s = long_simple_reflections(3)[0]
    assert s.reduce(3) in g
    with pytest.raises(ValueError, match="ring mismatch"):
        s in g
    with pytest.raises(ValueError, match="ring mismatch"):
        g.right_multiply(np.array([0]), s)
    with pytest.raises(ValueError, match="ring mismatch"):
        g.right_multiply(np.array([0]), s.reduce(5))


def test_group_closure_rejects_a_query_of_another_dimension():
    g = reflection_image_mod3(4)
    wrong = Matrix.identity(g.dimension - 1, 3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        wrong in g
    with pytest.raises(ValueError, match="dimension mismatch"):
        g.right_multiply(np.array([0]), wrong)


def test_right_multiplying_out_of_the_closure_raises():
    # The stabilizer at n = 3, order 12, holds none of the wall reflections.
    g = GroupClosure(stabilizer_generators_mod3(3))
    (t, *_) = wall_reflections_mod3(3).values()
    assert g.order == 12 and t not in g
    with pytest.raises(KeyError, match="not in closure"):
        g.right_multiply(np.arange(g.order), t)
    with pytest.raises(KeyError, match="not in closure"):
        g.right_multiply(np.array([0]), t)


def test_stabilizer_closure_orders():
    # The vertex stabilizer injects mod 3 (checked below), so closing its
    # mod-3 image recovers the stabilizer order.
    for n, expected in ((2, 2), (3, 12), (4, 120)):
        g = GroupClosure(stabilizer_generators_mod3(n))
        assert g.order == expected


def test_long_simple_reflections_pick_norm_two_roots():
    assert len(long_simple_reflections(2)) == 1
    assert len(long_simple_reflections(3)) == 3
    assert len(long_simple_reflections(4)) == 4


def test_projective_versus_linear_closure():
    walls = tuple(wall_reflections_mod3(2).values())
    linear = GroupClosure(walls)
    proj = GroupClosure(walls, projective=True)
    assert linear.order == 24
    assert proj.order == 24
    assert not linear.contains_minus_identity


def test_closure_budget_raises(monkeypatch):
    monkeypatch.setattr(isometry, "DEFAULT_ELEMENT_BUDGET", 100)
    gens = tuple(wall_reflections_mod3(3).values())
    with pytest.raises(ClosureBudgetExceeded):
        GroupClosure(gens)


def test_group_membership_and_indexing():
    g = GroupClosure(stabilizer_generators_mod3(3))
    for m in g.generators:
        assert m in g
        (i,) = g.right_multiply(np.array([0]), m)  # element 0 is the identity
        assert tuple(map(tuple, _matrices(g)[i].tolist())) == m.entries
    assert Matrix.identity(4, 3) in g
    # A projective closure answers for -M as for M.
    proj = reflection_image_mod3(4)
    every = np.arange(proj.order)
    for m in wall_reflections_mod3(4).values():
        assert m in proj and m.neg() in proj
        assert (proj.right_multiply(every, m.neg()) == proj.right_multiply(every, m)).all()


def test_coset_space_against_lagrange(stabilizer_steps):
    cs = coset_space(stabilizer_steps(reflection_image_mod3(2), 2))
    assert cs.count == 12
    assert cs.subgroup_order == 2
    assert (cs.cosets_of(cs.representative_indices) == np.arange(cs.count)).all()


def test_mod_m_closures_multiply_no_matrix(monkeypatch, stabilizer_steps):
    # Only build_tessellation's check of the stabilizer order closes integer
    # matrices; the mod-3 images, their coset spaces and crossings and the
    # wall tables move points.
    calls = []
    reflect = isometry._reflect

    def counting(mats, alpha):
        calls.append(len(mats))
        reflect(mats, alpha)

    monkeypatch.setattr(isometry, "_reflect", counting)
    for cached in (reflection_image_mod3, build_tessellation, matrix_cayley_table):
        cached.cache_clear()
    for n in (2, 3, 4):
        finite_group_elements(long_simple_reflections(n))
        assert calls  # the spy sees products
        stabilizer = len(calls)
        calls.clear()
        for projective in (True, False):
            reflection_image_mod3(n, projective)
        matrix_cayley_table(tuple(wall_reflections_mod3(n).values()))
        assert coset_space(stabilizer_steps(reflection_image_mod3(n), n)).count > 1
        assert calls == [], n
        build_tessellation(n)
        assert len(calls) == stabilizer, n
        calls.clear()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("projective", [True, False])
def test_closure_table_columns_are_right_multiplications(n, projective):
    group = reflection_image_mod3(n, projective)
    every = np.arange(group.order)
    assert group.table.shape == (group.order, n + 1)
    assert group.table.dtype == np.int32
    for x, g in enumerate(group.generators):
        assert np.array_equal(group.table[:, x], group.right_multiply(every, g)), x
    if projective:  # either sign of a generator names the same steps
        negated = GroupClosure([g.neg() for g in group.generators], projective=True)
        assert np.array_equal(negated.table, group.table)


def test_the_wall_closure_table_columns_are_right_multiplications():
    walls = tuple(wall_reflections_mod3(4).values())
    group = GroupClosure(walls, projective=True)
    assert group.order == 51840
    every = np.arange(group.order)
    for x, g in enumerate(walls):
        assert np.array_equal(group.table[:, x], group.right_multiply(every, g)), x


def test_cached_closure_and_coset_arrays_are_read_only(stabilizer_steps):
    group = reflection_image_mod3(2)
    space = coset_space(stabilizer_steps(group, 2))
    shared = [group.images, group.table, group._sorted_keys, group._key_order]
    for array in shared + [space._assignment, space.representative_indices]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]
    assert tuple(group.images[0].tolist()) == point_action(group.generators, True)[1]


def test_table_walk_gives_the_standard_order_and_omits_unreached_points():
    # From 0: layer 1 is 2 (edge 0 of 0), 1 (edge 1 of 0); layer 2 reads
    # row 2 before row 1, so 4 comes before 3.  Points 5 and 6 only reach
    # each other, and -1 is a gap.
    rows = np.array([[2, 1], [3, 0], [0, 4], [-1, 1], [2, -1], [6, 6], [5, 5]])
    assert table_walk(rows).tolist() == [0, 2, 1, 4, 3]
    assert table_walk(rows[5:] - 5).tolist() == [0, 1]
    assert table_walk(np.array([[-1, -1]])).tolist() == [0]


def test_memoize_keys_on_argument_values():
    calls = []

    @memoize
    def f(a, b=2, *, c=3):
        calls.append((a, b, c))
        return object()

    assert f(1) is f(1, 2) is f(a=1, b=2) is f(1, c=3)
    assert f(1, 3) is not f(1)
    assert calls == [(1, 2, 3), (1, 3, 3)]
    assert f.cache_info().misses == 2
    assert inspect.signature(f) == inspect.signature(f.__wrapped__)
    assert f.__wrapped__(1) is not f(1)


def _one_object(fn, *calls):
    """Is every (args, kwargs) spelling of the call answered by one object?"""
    results = [fn(*args, **kwargs) for args, kwargs in calls]
    return all(r is results[0] for r in results)


def test_memoized_spellings_of_one_call_return_one_object():
    for n in (2, 3, 4):
        assert _one_object(
            reflection_image_mod3,
            ((n,), {}), ((n, True), {}), ((n,), {"projective": True}), ((), {"n": n}),
        )
        assert _one_object(
            reflection_image_mod3,
            ((n, False), {}), ((n,), {"projective": False}), ((), {"projective": False, "n": n}),
        )
        assert reflection_image_mod3(n) is not reflection_image_mod3(n, False)
    assert _one_object(enumerate_diagram_group, (("a3",), {}), ((), {"kind": "a3"}))
    assert _one_object(build_tessellation, ((2,), {}), ((), {"n": 2}))


def test_congruence_intersection_trivial_small():
    for n, order in ((2, 2), (3, 12), (4, 120)):
        result = congruence_intersection_check(n)
        assert result.order == order
        assert result.congruent_mod2 == 1
        assert result.congruent_mod3 == 1


def _long_roots(n):
    """The norm-2 simple roots, whose reflections generate the stabilizer."""
    return tuple(a for a in simple_roots(n) if norm(a) == 2)


def _matrices(group):
    """The matrices of a linear closure mod m, read off each element's rows:
    the base's images are the points of the rows, numbered by their base-m
    digits, most significant first."""
    m, d = group.modulus, group.dimension
    return (group.images[:, :, None] // m ** np.arange(d - 1, -1, -1) % m).astype(np.int8)


def _sha256(array, dtype):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


# sha256 of the element sequences in discovery order, taken from the
# per-element dict engine that the layered one replaced; coset ids, tile ids
# and DOT exports all follow this order.  A linear mod-3 image is pinned by
# its matrices, read off its elements' rows.  A projective one is pinned by
# its Cayley table, as the engine that picked a sign of each {M, -M} made it.
INTEGER_CLOSURE_SHA256 = {
    2: "520f883f208f1d26c05098c716024d9e477c4eb63da076086e010c4faa4d9383",
    3: "acaa17c2d096febf5ccb33eae1e960452312d078bdc693a192f010d690774b90",
    4: "423872c9e585c65d7b9f1953b34a261a31c5ba51cdcfdb3ea5a2ff0c044ac128",
    5: "ff44e37a77a047fe9c9211c883759e1922317c793ad66a1fd1db7b1925dd25c2",
    6: "71de2022e8a1a1aa40dc50c7440277765f4926c77541629a0263ae14c1d31c0c",
}
MOD3_CLOSURE_SHA256 = {
    (2, True): "003dba4961067f5105344b2c9a679dce80ba03536a96cccb9264c10133db98a7",
    (2, False): "3e3abfd23cbeadf12a2511b0135fd79c8f869e9f7ab3efaa3b785a3341bd192a",
    (3, True): "112e9be9a2f543dc856a905ddd810d6ae0badaba6105a37eb43bcb96cbc82143",
    (3, False): "2ceb572738319a5147f5296219f244aa792dd923e4bf8bbe716d66f3443b8f00",
    (4, True): "0f374a5cd8eebefacadcd44e2a932c7af25844f5bd115a4d86a482befeb2d3c1",
    (4, False): "e5693a7cd0ad132454b9dc84859001a57df674e6b590aacc0e0ddbb50f3e1508",
}
COSET_ASSIGNMENT_N4_SHA256 = "93428cf1a139bcc07f447e8cdfb9e6e9c7c8871b2a23271a6fc50b692ef0c3c7"


def _assert_integer_closures_match_pins():
    for n, digest in INTEGER_CLOSURE_SHA256.items():
        mats = finite_group_elements(long_simple_reflections(n))
        assert _sha256(mats, np.int8) == digest, n


def test_closure_order_is_pinned(stabilizer_steps):
    # The pinned mod-3 images, and the pinned cosets of the stabilizer, read
    # off the n = 4 image's columns and off those of its closure from
    # negated generators.
    _assert_integer_closures_match_pins()
    closures = {}
    for (n, projective), digest in MOD3_CLOSURE_SHA256.items():
        group = closures[n, projective] = reflection_image_mod3(n, projective)
        if projective:  # nothing normalises signs before the engine does
            assert _sha256(group.table, np.int32) == digest, (n, projective)
            negated = GroupClosure([g.neg() for g in group.generators], projective=True)
            closures[n, "negated"] = negated
            assert _sha256(negated.table, np.int32) == digest, (n, "negated")
        else:
            assert _sha256(_matrices(group), np.int8) == digest, (n, projective)
    for group in (closures[4, True], closures[4, "negated"]):
        space = coset_space(stabilizer_steps(group, 4))
        assert space.count == 432
        assert _sha256(space._assignment, np.int32) == COSET_ASSIGNMENT_N4_SHA256


def test_row_chunk_boundaries_change_no_closure(monkeypatch):
    # Every layer at n <= 6 fits in one default chunk.  Five rows a chunk
    # split the integer layers at positions no generator count divides.
    monkeypatch.setattr(isometry, "_CHUNK_ROWS", 5)
    _assert_integer_closures_match_pins()
    for n, order in ((2, 2), (3, 12), (4, 120), (5, 1920), (6, 51840)):
        assert congruence_intersection_check(n) == CongruenceIntersection(n, order, 1, 1)


def _materialised_counts(mats):
    """Order and elements = I mod 2 and mod 3 of a whole group, kept."""
    mats = mats.astype(np.int64)
    diff = mats - np.eye(mats.shape[1], dtype=np.int64)
    return (len(mats), *(int((~(diff % p).any(axis=(1, 2))).sum()) for p in (2, 3)))


def _identity_targets(d):
    """The targets under which congruence_counts counts the matrices = I mod 2 and 3."""
    return {p: np.eye(d, dtype=np.int8)[None] for p in (2, 3)}


def test_streamed_congruence_counts_find_minus_identity(congruence_counts):
    # -I is = I mod 2 but not mod 3: a positive control for the first-entry
    # prefilter, which must keep every element whose entry (0, 0) is = 1 mod p.
    # <W, -I> is W and -W, fed to the counts as W's layers and then -W's.
    # The whole closure is the reference for the check's counts down the
    # chain up to n = 6; the n = 7 guard in tests/test_acceptance.py runs
    # E7's once.
    for n, order in ((2, 2), (3, 12), (4, 120), (5, 1920), (6, 51840)):
        layers = list(_reflection_layers(_long_roots(n)))
        mats = np.concatenate(layers)
        targets = _identity_targets(n + 1)
        assert congruence_counts(layers, targets) == _materialised_counts(mats) == (order, 1, 1)
        assert congruence_intersection_check(n) == CongruenceIntersection(n, order, 1, 1)
        negated = [-block for block in layers]
        expected = (2 * order, 2, 1)
        assert congruence_counts(layers + negated, targets) == expected, n
        assert _materialised_counts(np.concatenate([mats, -mats])) == expected, n


def test_congruence_counts_read_every_entry(congruence_counts):
    # Planted: I, -I, I + 3 E_01, I + 2 E_last and I with its last entry 0.
    # = I mod 2: I, -I, I + 2 E_last.  = I mod 3: I, I + 3 E_01.  The last
    # two differ from I only in the last entry, which a filter must read.
    # = -I mod 3: -I alone, and mod 2 the same three as I.
    for d in range(2, 10):
        ident = np.eye(d, dtype=np.int8)
        shifted, doubled, zeroed = ident.copy(), ident.copy(), ident.copy()
        shifted[0, 1] = 3
        doubled[-1, -1] = 3
        zeroed[-1, -1] = 0
        block = np.stack([ident, -ident, shifted, doubled, zeroed])
        targets = _identity_targets(d)
        assert congruence_counts([block], targets) == (5, 3, 2), d
        assert congruence_counts([block[:2], block[2:3], block[3:]], targets) == (5, 3, 2), d
        assert congruence_counts([block[4:], block[:0]], targets) == (1, 0, 0), d
        # Any target, and every pair of a matrix and a target counts.
        minus = {p: -ident[None] for p in (2, 3)}
        assert congruence_counts([block], minus) == (5, 3, 1), d
        both = {p: np.stack([ident, -ident]) for p in (2, 3)}
        assert congruence_counts([block], both) == (5, 6, 3), d
        assert congruence_counts([block], {2: block[4:], 3: block[:0]}) == (5, 1, 0), d


# The number of cosets of W_J, the orbit of e_n, for n = 2..7: at n = 6 the
# 27 lines of a cubic surface, at n = 7 the 56 images of e_7.
COSET_COUNTS = {2: 2, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56}
STABILIZER_ORDERS = {2: 2, 3: 12, 4: 120, 5: 1920, 6: 51840, 7: 2903040}


def test_transversal_is_the_orbit_of_e_n():
    # Row n of each x is (x^-1 e_n)^T J.  The images of e_n are norm-1 vectors
    # pairing to (e_n, v_n) = -1 with the W-fixed v_n = 3 e_0 - e_1 - ... - e_n:
    # a box search finds exactly the orbit, 27 lines at n = 6 and 56 at n = 7.
    for n, count in COSET_COUNTS.items():
        reps = _transversal(_long_roots(n))
        assert len(reps) == count, n
        assert (reps[0] == np.eye(n + 1)).all()
        assert not reps.flags.writeable  # the checks for every n share it
        points = reps[:, n].astype(np.int64) * np.r_[-1, np.ones(n, dtype=np.int64)]
        assert len({tuple(p) for p in points.tolist()}) == count, n
        if n >= 6:
            box = np.stack(
                np.meshgrid(range(4), *[range(-2, 2)] * n, indexing="ij"), axis=-1
            ).reshape(-1, n + 1)
            gram = np.diag(np.r_[-1, np.ones(n, dtype=np.int64)])
            vertex = np.r_[3, -np.ones(n, dtype=np.int64)]
            norms = np.einsum("ij,jk,ik->i", box, gram, box)
            lines = box[(norms == 1) & (box @ gram @ vertex == -1)]
            assert sorted(map(tuple, lines.tolist())) == sorted(map(tuple, points.tolist())), n


def test_parabolic_chain_runs_down_to_the_trivial_group():
    # Each level's roots are the last's with no e_m coordinate: the long
    # simple roots one rank down, so the levels of n are those of n - 1
    # below its top, one cached array each.
    for n in range(2, 8):
        levels = _parabolic_chain(n)
        assert [len(reps) for reps in levels] == [COSET_COUNTS[m] for m in range(n, 1, -1)]
        assert [reps.shape[1] for reps in levels] == list(range(n + 1, 2, -1))
        if n > 2:
            assert all(a is b for a, b in zip(levels[1:], _parabolic_chain(n - 1)))


def _chain_elements(levels):
    """Every product x_2 ... x_n of one x from each level, kept: the reference
    the recursion of _chain_counts is measured against."""
    d = levels[0].shape[1]
    elements = np.eye(d, dtype=np.int64)[None]
    for reps in reversed(levels):
        m = reps.shape[1]
        embedded = np.tile(np.eye(d, dtype=np.int64), (len(reps), 1, 1))
        embedded[:, :m, :m] = reps
        elements = (elements[:, None] @ embedded[None]).reshape(-1, d, d)
    return elements


def _assert_chain_mutants(mutate, expected):
    """_chain_counts, and up to n = 5 the products themselves, count
    expected(order, len(level)) for the chain with mutate(level) in place of
    one level, for every level of every n."""
    for n in range(2, 8):
        levels, order = _parabolic_chain(n), STABILIZER_ORDERS[n]
        assert _chain_counts(levels) == (order, 1, 1), n
        for k, reps in enumerate(levels):
            chain = levels[:k] + [mutate(reps)] + levels[k + 1 :]
            counts = expected(order, len(reps))
            assert _chain_counts(chain) == counts, (n, k)
            if n <= 5:
                assert _materialised_counts(_chain_elements(chain)) == counts, (n, k)


def test_chain_counts_fail_on_a_wrong_transversal():
    # One coset dropped: the order falls by that level's factor; the
    # identity's coset holds I, the one element = I mod 2 and mod 3.
    _assert_chain_mutants(lambda reps: reps[:-1], lambda order, k: (order - order // k, 1, 1))
    # Without the identity no product is I, nor = I mod 2 or mod 3.
    _assert_chain_mutants(lambda reps: reps[1:], lambda order, k: (order - order // k, 0, 0))

    # One more x, I with entry (0, m) = 1: row m is e_m, column m is not, so
    # no v x is I, though a filter on row m alone would count its block, I.
    def sheared(reps):
        extra = np.eye(reps.shape[1], dtype=reps.dtype)
        extra[0, -1] = 1
        return np.concatenate([reps, extra[None]])

    _assert_chain_mutants(sheared, lambda order, k: (order + order // k, 1, 1))


def test_chain_counts_follow_representatives_moved_in_their_cosets():
    # g x, for g in the level below, represents the coset of x as well, so
    # the products are the same set; but the x = I of that level now passes
    # down the target g, not I, and only v = g^-1 meets it.
    for n in range(3, 8):
        levels = _parabolic_chain(n)
        for k in range(len(levels) - 1):
            below = levels[k + 1]
            g = np.eye(len(levels[k][0]), dtype=np.int64)
            g[:-1, :-1] = below[len(below) // 2]
            chain = levels[:k] + [g @ levels[k]] + levels[k + 1 :]
            assert _chain_counts(chain) == (STABILIZER_ORDERS[n], 1, 1), (n, k)
            if n <= 5:
                assert _materialised_counts(_chain_elements(chain)) == (STABILIZER_ORDERS[n], 1, 1)


def test_chain_counts_keep_minus_identity():
    # The positive control for the e_m filter: with the reps +-x at one level
    # the products are W and D W, D = -1 on that level's coordinates and 1 on
    # the rest (at the top, D = -I).  D = I mod 2, and D moves the W-fixed
    # vertex v_n mod 3, so D W holds one more element = I mod 2 and none mod 3.
    signed = lambda reps: np.concatenate([reps, -reps])
    _assert_chain_mutants(signed, lambda order, k: (2 * order, 2, 1))


def test_chain_elements_are_the_whole_closure():
    # The products of the levels are the stabilizer itself, as a set.
    def key(mats):
        return sorted(map(bytes, mats.astype(np.int8)))

    for n in range(2, 6):
        closure = finite_group_elements(long_simple_reflections(n))
        assert key(_chain_elements(_parabolic_chain(n))) == key(closure), n


def test_the_checks_for_every_n_share_six_transversal_walks(monkeypatch):
    # n = 2..7 in one process: one walk per level of E7's chain, and no
    # integer closure.
    walks = []
    closure = isometry.layered_closure

    def counting(identity, pick, build):
        walks.append(identity.shape)
        return closure(identity, pick, build)

    def refused(roots):
        raise AssertionError("the congruence check closed a group")

    monkeypatch.setattr(isometry, "layered_closure", counting)
    monkeypatch.setattr(isometry, "_reflection_layers", refused)
    _transversal.cache_clear()
    for n in range(2, 8):
        assert congruence_intersection_check(n) == CongruenceIntersection(
            n, STABILIZER_ORDERS[n], 1, 1
        )
    assert walks == [(1, d, d) for d in (3, 4, 5, 6, 7, 8)]
    assert _transversal.cache_info().misses == 6


# Degrees of the stabilizers, the Coxeter groups A1, A2 x A1, A4, D5 and E6 of
# the long simple reflections (Humphreys, Reflection Groups and Coxeter
# Groups, 3.7).  n = 7, E7, runs in the opt-in memory guard.
STABILIZER_DEGREES = {
    2: (2,),
    3: (2, 3, 2),
    4: (2, 3, 4, 5),
    5: (2, 4, 5, 6, 8),
    6: (2, 5, 6, 8, 9, 12),
}


def test_integer_closure_layers_count_the_elements_of_each_length(poincare_coefficients):
    for n, degrees in STABILIZER_DEGREES.items():
        sizes = [len(block) for block in _reflection_layers(_long_roots(n))]
        assert sizes == poincare_coefficients(degrees), n


def _oracle_closure(generators, modulus, projective):
    """Reference BFS on tuples: layer by layer, generator-major, a dict of
    seen.  Gives the elements, a sign of each {M, -M} when projective, and
    the Cayley table in their order."""
    gens = [g.entries for g in generators]

    def normal(rows):
        if modulus is not None:
            rows = tuple(tuple(x % modulus for x in r) for r in rows)
        if projective:
            rows = min(rows, tuple(tuple(-x % modulus for x in r) for r in rows))
        return rows

    def times(f, g):
        return normal(tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in zip(*g)) for r in f))

    d = len(gens[0])
    seen = {normal(tuple(tuple(int(i == j) for j in range(d)) for i in range(d))): None}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in gens:
            for f in frontier:
                p = times(f, g)
                if p not in seen:
                    seen[p] = None
                    nxt.append(p)
        frontier = nxt
    index = {e: i for i, e in enumerate(seen)}
    return list(seen), [[index[times(e, g)] for g in gens] for e in seen]


def test_closure_matches_tuple_oracle():
    # Integer closures give the oracle's matrices, mod-3 closures its table,
    # and linear ones its matrices too, read off their elements' rows.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30)
    @hypothesis.given(
        st.one_of(
            st.tuples(st.sampled_from([2, 3]), st.booleans()),
            st.tuples(st.sampled_from([2, 3, 4, 5]), st.none()),
        ),
        st.data(),
    )
    def same_sequence(case, data):
        n, projective = case
        if projective is None:
            pool = long_simple_reflections(n)
        else:
            pool = list(wall_reflections_mod3(n).values())
        order = data.draw(st.permutations(range(len(pool))))
        size = data.draw(st.integers(1, len(pool)))
        gens = [pool[i] for i in order[:size]]
        elements, table = _oracle_closure(gens, gens[0].modulus, bool(projective))
        if projective is None:
            mats = finite_group_elements(gens)
        else:
            group = GroupClosure(gens, projective)
            assert group.table.tolist() == table
            if projective:
                return
            mats = _matrices(group)
        assert [tuple(map(tuple, m)) for m in mats.tolist()] == elements

    same_sequence()


def test_chamber_vector_pairs_to_one_with_every_simple_root():
    for n in range(2, 8):
        v = chamber_vector(n)
        assert v.coords == (-(3 * n - 2), *range(n, 0, -1))
        assert {inner(a, v) for a in simple_roots(n)} == {1}


def test_closure_budget_fails_before_building_the_layer(layer_builds, monkeypatch):
    from gosset.geometry import simple_reflection_matrices

    monkeypatch.setattr(isometry, "DEFAULT_ELEMENT_BUDGET", 1000)
    with pytest.raises(ClosureBudgetExceeded):
        finite_group_elements(simple_reflection_matrices(4))  # an infinite group
    assert layer_builds and 1 + sum(layer_builds) <= 1000


def test_infinite_integer_closure_stops_at_the_budget(layer_builds, monkeypatch):
    # At n = 8 the long simple reflections generate the affine Weyl group of
    # E8, an infinite group: only the element budget stops its walk.
    monkeypatch.setattr(isometry, "DEFAULT_ELEMENT_BUDGET", 10**5)
    with pytest.raises(ClosureBudgetExceeded):
        finite_group_elements(long_simple_reflections(8))
    assert layer_builds and 1 + sum(layer_builds) <= 10**5


def test_closure_requires_inverse_closed_generators(layer_builds):
    s = long_simple_reflections(3)
    rotation = s[1] @ s[2]  # order 3: its inverse s[2] s[1] is not in the set
    with pytest.raises(ValueError, match="inversion"):
        GroupClosure([rotation.reduce(3)])
    # The same check rejects a singular generator mod m: no g' has g g' = +-I.
    singular = Matrix(((0, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
    for projective in (False, True):
        with pytest.raises(ValueError, match="inversion"):
            GroupClosure([singular], projective=projective)
    # With its inverse added the set is closed: a cyclic group of order 3.
    inverse = rotation @ rotation
    assert GroupClosure([rotation.reduce(3), inverse.reduce(3)]).order == 3
    # An integer closure walks descents and takes only distinct simple
    # reflections, which are involutions: the rotation, -I, a repeated
    # generator and the reflection s[1] s[2] s[1] in the root e_1 - e_3 fail
    # before any layer.
    minus = Matrix.identity(4).neg()
    reflection = s[1] @ s[2] @ s[1]
    layer_builds.clear()
    for gens in ([rotation], [minus], [s[0], s[0]], [s[0], reflection]):
        with pytest.raises(ValueError, match="distinct simple reflections"):
            finite_group_elements(gens)
    assert layer_builds == []


def test_integer_closure_overflow_raises():
    from gosset.geometry import simple_reflection_matrices

    # All simple reflections generate an infinite group, whose entries pass
    # int8 mid-walk; at n = 3 that comes well before the budget.
    with pytest.raises(OverflowError):
        finite_group_elements(simple_reflection_matrices(3))
    # A generator with an entry past int8 is no simple reflection: refused
    # before any product.
    big = Matrix(((200, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="distinct simple reflections"):
        finite_group_elements([Matrix.identity(3), big])


def _assert_reflects_exactly(alpha, mats):
    """_reflect gives M s_alpha exactly, or raises OverflowError exactly when
    an entry of the product passes +-127: for M and for -M, whose products
    have the opposite signs."""
    s = np.array(reflection_matrix(alpha).entries)
    for block in (mats, -mats):
        want = block.astype(np.int64) @ s
        got = block.copy()
        if len(block) and np.abs(want).max() > 127:
            with pytest.raises(OverflowError):
                _reflect(got, alpha)
        else:
            _reflect(got, alpha)
            assert got.dtype == np.int8 and (got == want).all()


def test_column_kernel_matches_exact_products():
    # _reflect, on every simple root of Z^{n,1} for n = 2..8.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    roots = [a for n in range(2, 9) for a in simple_roots(n)]

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(
        st.sampled_from(roots), st.integers(0, 6), st.sampled_from([1, 2, 20, 127]), st.data()
    )
    def exact(alpha, k, bound, data):
        d = alpha.n + 1
        entries = st.lists(st.integers(-bound, bound), min_size=k * d * d, max_size=k * d * d)
        mats = np.array(data.draw(entries), dtype=np.int8).reshape(k, d, d)
        _assert_reflects_exactly(alpha, mats)

    exact()


@pytest.mark.parametrize("d", range(3, 10))
def test_integer_product_overflows_past_127_either_sign(d):
    # alpha_0 of Z^{d-1,1} sums its support (e_0 - e_1 - e_2, or
    # e_0 - e_1 - e_2 - e_3 from d = 4 on).  Of the matrices whose last row is
    # a e_0 + b e_1, one with a product entry of exactly +-127 and one with
    # +-128 are checked.
    n = d - 1
    alpha = simple_roots(n)[0]
    a, b = (x.ravel() for x in np.meshgrid(np.arange(-127, 128), np.arange(-127, 128)))
    rows = np.zeros((len(a), n + 1), dtype=np.int64)
    rows[:, 0], rows[:, 1] = a, b
    top = np.abs(rows @ np.array(reflection_matrix(alpha).entries)).max(axis=1)
    for edge in (127, 128):
        mats = np.zeros((1, n + 1, n + 1), dtype=np.int8)
        mats[0, -1] = rows[np.flatnonzero(top == edge)[0]]
        _assert_reflects_exactly(alpha, mats)


def test_group_closure_refuses_rings_past_two_to_the_53():
    # 59^9 < 2^53 < 3^36 < 5^25 < 2^64: the points of d = 3 mod 59, 59^3 of
    # them, are the most a closure builds, and d = 6 mod 3, d = 5 mod 5 and
    # d = 8 mod 2 are refused before any point is.
    for d, modulus in ((6, 3), (5, 5), (8, 2)):
        for projective in (False, True):
            with pytest.raises(ValueError, match="2\\^53"):
                GroupClosure([Matrix.identity(d, modulus)], projective)
    for d, modulus in ((5, 3), (7, 2), (4, 7), (3, 59)):
        assert GroupClosure([Matrix.identity(d, modulus)]).order == 1
    # The projective base adds the all-ones point: 4 points of the 102690
    # classes of d = 3 mod 59 pass an int64 key, and so from m = 48 on, 55300
    # classes; point_action refuses them before any closure starts.
    for modulus in (48, 59):
        with pytest.raises(ValueError, match="int64 key"):
            GroupClosure([Matrix.identity(3, modulus)], projective=True)
    assert GroupClosure([Matrix.identity(3, 47)], projective=True).order == 1


def test_point_permutations_generate_the_closures():
    # sympy's Schreier-Sims orders the groups the point permutations generate.
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def order(mats, projective):
        columns, _ = point_action(mats, projective)
        perms = [combinatorics.Permutation(c.tolist()) for c in columns]
        return combinatorics.PermutationGroup(perms).order()

    for n in (2, 3, 4):
        for projective in (True, False):
            group = reflection_image_mod3(n, projective)
            assert order(group.generators, projective) == group.order, (n, projective)
        walls = tuple(wall_reflections_mod3(n).values())
        assert order(walls, True) == len(matrix_cayley_table(walls)), n


@pytest.mark.parametrize("n, order", [(2, 24), (3, 720), (4, 51840)])
def test_a_short_base_falls_short(n, order):
    # Without the all-ones point, the classes of the rows fix {M, -M} only up
    # to a sign per row; without a row, the other rows of an isometry fix it
    # only up to a sign.  Either way the orbit is no longer regular.
    projective, linear = reflection_image_mod3(n), reflection_image_mod3(n, False)
    assert (projective.order, linear.order) == (order, 2 * order)
    columns, base = point_action(projective.generators, True)
    assert len(base_orbit_table(columns, base)) == order
    assert len(base_orbit_table(columns, base[:-1])) == {2: 6, 3: 90, 4: 3240}[n]
    columns, base = point_action(linear.generators, False)
    assert len(base_orbit_table(columns, base)) == 2 * order
    assert len(base_orbit_table(columns, base[1:])) == order


def _oracle_orbit(seeds, actions):
    """Reference BFS on tuples: layer by layer, generator-major, a dict of seen."""
    seen = dict.fromkeys(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for act in actions:
            for f in frontier:
                p = act(f)
                if p not in seen:
                    seen[p] = None
                    nxt.append(p)
        frontier = nxt
    return list(seen)


def _lattice_action(n, picks):
    """Long simple reflections of Z^{n,1} on rows: numpy step and tuple actions."""
    roots = _long_roots(n)
    mats = [long_simple_reflections(n)[i] for i in picks]
    transposed = np.array([m.entries for m in mats]).transpose(0, 2, 1)
    actions = [lambda u, a=roots[i]: reflect(a, vector(*u)).coords for i in picks]
    return (lambda f: f @ transposed), actions


def _e6_reflect(beta, x):
    """Reference tuple reflection x - (x, beta) beta, in simple-root coordinates."""
    c = cartan_matrix()
    k = sum(x[i] * c[i][j] * beta[j] for i in range(6) for j in range(6))
    return tuple(a - k * b for a, b in zip(x, beta))


def _e6_action(picks):
    """E6 simple reflections on rows of simple-root coordinates."""
    simples = [SIMPLE_ROOTS[i] for i in picks]
    mats = np.array([reflection_rows(b) for b in simples])
    actions = [lambda x, b=b: _e6_reflect(b, x) for b in simples]
    return (lambda f: f @ mats), actions


def _beta_action(labels):
    """Beta reflections as root permutations, acting on index tuples on the left."""
    rs = root_system()
    betas = beta_configuration()
    perms = [rs.reflection_permutation(betas[lab]) for lab in labels]
    gens = np.array(perms, dtype=np.uint8)
    actions = [lambda f, g=g: tuple(g[i] for i in f) for g in perms]
    return (lambda f: gens[:, f]), actions


def test_orbit_matches_set_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def subset(data, size, max_size=None):
        order = data.draw(st.permutations(range(size)))
        return order[: data.draw(st.integers(1, max_size or size))]

    def distinct(element):
        return st.lists(element, min_size=1, max_size=3, unique=True)

    @hypothesis.settings(max_examples=60)
    @hypothesis.given(st.sampled_from(["lattice", "e6", "beta"]), st.data())
    def same_orbit(family, data):
        if family == "lattice":
            n = data.draw(st.integers(2, 4))
            step, actions = _lattice_action(n, subset(data, len(long_simple_reflections(n))))
            seeds = data.draw(distinct(st.tuples(*[st.integers(-2, 2)] * (n + 1))))
        elif family == "e6":
            step, actions = _e6_action(subset(data, 6))
            seeds = data.draw(distinct(st.sampled_from(root_system().roots)))
        else:
            # At most five reflections keep the oracle's groups small (rank <= 5).
            labels = sorted(beta_configuration())
            step, actions = _beta_action([labels[i] for i in subset(data, 10, 5)])
            width = data.draw(st.integers(1, 6))
            seeds = data.draw(distinct(st.tuples(*[st.integers(0, 71)] * width)))
        found = orbit(np.array(seeds), step)
        assert [tuple(row) for row in found.tolist()] == _oracle_orbit(seeds, actions)

    same_orbit()


def test_orbit_takes_seeds_in_unsorted_key_order():
    seeds = SIMPLE_ROOTS[::-1]  # e_5, ..., e_0: their packed keys descend
    step, actions = _e6_action(range(6))
    found = orbit(np.array(seeds), step)
    assert [tuple(row) for row in found.tolist()] == _oracle_orbit(seeds, actions)
    assert len(found) == 72 and [tuple(row) for row in found[:6].tolist()] == list(seeds)


def test_orbit_budget_fails_before_building_the_layer(layer_builds, monkeypatch):
    step, _ = _e6_action(range(6))
    monkeypatch.setattr(isometry, "DEFAULT_ELEMENT_BUDGET", 72)
    assert len(orbit(np.eye(6, dtype=np.int64), step)) == 72
    layer_builds.clear()
    monkeypatch.setattr(isometry, "DEFAULT_ELEMENT_BUDGET", 71)
    with pytest.raises(ClosureBudgetExceeded):
        orbit(np.eye(6, dtype=np.int64), step)
    assert layer_builds and 6 + sum(layer_builds) <= 71


def test_orbit_rejects_int8_overflow_and_duplicate_seeds():
    from gosset.geometry import simple_reflection_matrices

    mats = np.array([m.entries for m in simple_reflection_matrices(4)]).transpose(0, 2, 1)
    apex = np.array([[1, 0, 0, 0, 0]])
    with pytest.raises(OverflowError):  # all simple reflections: an infinite orbit
        orbit(apex, lambda f: f @ mats)
    with pytest.raises(OverflowError):
        orbit(np.array([[200, 0]]), lambda f: f[None])
    with pytest.raises(ValueError, match="distinct"):
        orbit(np.array([[1, 0], [0, 1], [1, 0]]), lambda f: f[None])
    with pytest.raises(ValueError, match="at most 8 entries"):
        orbit(np.eye(9, dtype=np.int64), lambda f: f[None])
