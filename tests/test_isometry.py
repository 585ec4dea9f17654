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
    LatticeIsometry,
    ModularMatrix,
    chamber_vector,
    congruence_intersection_check,
    coset_space,
    lattice_isometry,
    long_simple_reflections,
    memoize,
    orbit,
    preserves_form,
    reduce_mod,
    reflection_matrix,
    _MatrixProducts,
    _congruence_counts,
)
from gosset import isometry
from gosset.e6 import SIMPLE_ROOTS, beta_configuration, root_system
from gosset.enumeration import DEFAULT_COSET_BUDGET, enumerate_diagram_group
from gosset.geometry import (
    build_tessellation,
    reflection_image_mod3,
    stabilizer_generators_mod3,
    wall_reflections_mod3,
)
from gosset.lattice import inner, reflect, simple_roots, vector


def test_reflection_matrix_agrees_with_reflect():
    rng = random.Random(10)
    for n in (2, 3, 4):
        for a in simple_roots(n):
            m = reflection_matrix(a)
            for _ in range(20):
                v = vector(*[rng.randint(-9, 9) for _ in range(n + 1)])
                assert m.apply(v) == reflect(a, v)


def test_reflection_matrices_are_involutive_isometries():
    for n in (2, 3, 4):
        for a in simple_roots(n):
            m = reflection_matrix(a)
            assert preserves_form(m.entries)
            assert m @ m == LatticeIsometry.identity(n + 1)


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


def test_reduce_mod_wraps_entries():
    m = reduce_mod(LatticeIsometry.identity(3), 3)
    assert isinstance(m, ModularMatrix)
    assert m == ModularMatrix.identity(3, 3)
    neg = reduce_mod(reflection_matrix(simple_roots(2)[2]), 2)
    assert all(0 <= e < 2 for row in neg.entries for e in row)


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
        assert tuple(map(tuple, g.mats[i].tolist())) == m.entries
    assert ModularMatrix.identity(4, 3) in g
    # A projective closure answers for -M as for M.
    proj = reflection_image_mod3(4)
    every = np.arange(proj.order)
    for m in wall_reflections_mod3(4).values():
        assert m in proj and m.neg() in proj
        assert (proj.right_multiply(every, m.neg()) == proj.right_multiply(every, m)).all()


def test_coset_space_against_lagrange():
    group = reflection_image_mod3(2)
    sub = stabilizer_generators_mod3(2)
    cs = coset_space(group, sub)
    assert cs.count == 12
    assert cs.subgroup_order == 2
    assert (cs.cosets_of(cs.representative_indices) == np.arange(cs.count)).all()


def test_coset_space_rejects_a_subgroup_generator_outside_the_group():
    shear = ModularMatrix(((1, 1, 0), (0, 1, 0), (0, 0, 1)), 3)  # moves diag(-1, 1, 1)
    with pytest.raises(ValueError, match="outside the group"):
        coset_space(reflection_image_mod3(2), [shear])


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
    budget = DEFAULT_COSET_BUDGET
    assert _one_object(
        enumerate_diagram_group, (("a3",), {}), (("a3", budget), {}), (("a3",), {"budget": budget})
    )
    assert _one_object(build_tessellation, ((2,), {}), ((), {"n": 2}))


def test_congruence_intersection_trivial_small():
    for n, order in ((2, 2), (3, 12), (4, 120)):
        result = congruence_intersection_check(n)
        assert result.order == order
        assert result.congruent_mod2 == 1
        assert result.congruent_mod3 == 1


def _closure(gen_rows, modulus=None, projective=False, budget=10**6):
    """The elements of a closure in discovery order, from its layers."""
    return np.concatenate(list(_MatrixProducts(gen_rows, modulus, projective).layers(budget)))


def _sha256(array, dtype):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


# sha256 of the element sequences in discovery order, taken from the
# per-element dict engine that the layered one replaced; coset ids, tile ids
# and DOT exports all follow this order.
INTEGER_CLOSURE_SHA256 = {
    2: "520f883f208f1d26c05098c716024d9e477c4eb63da076086e010c4faa4d9383",
    3: "acaa17c2d096febf5ccb33eae1e960452312d078bdc693a192f010d690774b90",
    4: "423872c9e585c65d7b9f1953b34a261a31c5ba51cdcfdb3ea5a2ff0c044ac128",
    5: "ff44e37a77a047fe9c9211c883759e1922317c793ad66a1fd1db7b1925dd25c2",
    6: "71de2022e8a1a1aa40dc50c7440277765f4926c77541629a0263ae14c1d31c0c",
}
MOD3_CLOSURE_SHA256 = {
    (2, True): "9aea2af67fbcf3c3e49058c84a3d956af81bde59cc1544019d77fbb6d6332f43",
    (2, False): "3e3abfd23cbeadf12a2511b0135fd79c8f869e9f7ab3efaa3b785a3341bd192a",
    (3, True): "1826bb1626899b261d5fa6da12f3bb1192706ecb0c2b984cedfe2d3f4e31618c",
    (3, False): "2ceb572738319a5147f5296219f244aa792dd923e4bf8bbe716d66f3443b8f00",
    (4, True): "cebfa03de740ac919ffbbc8120b9c88581ac46412940afbc19b2ae31b14ad644",
    (4, False): "e5693a7cd0ad132454b9dc84859001a57df674e6b590aacc0e0ddbb50f3e1508",
}
COSET_ASSIGNMENT_N4_SHA256 = "93428cf1a139bcc07f447e8cdfb9e6e9c7c8871b2a23271a6fc50b692ef0c3c7"


def _assert_integer_closures_match_pins():
    for n, digest in INTEGER_CLOSURE_SHA256.items():
        mats = _closure([g.entries for g in long_simple_reflections(n)])
        assert _sha256(mats, np.int8) == digest, n


def _assert_mod3_closures_match_pins(image):
    """The pinned sequences of the mod-3 images closed by image(n, projective)."""
    for (n, projective), digest in MOD3_CLOSURE_SHA256.items():
        group = image(n, projective)
        assert _sha256(group.mats, np.int8) == digest, (n, projective)
        if projective:  # nothing normalises signs before the engine does
            negated = GroupClosure([g.neg() for g in group.generators], projective=True)
            assert _sha256(negated.mats, np.int8) == digest, (n, "negated")
    group = image(4, True)
    stabilizer = stabilizer_generators_mod3(4)
    for subgroup_generators in (stabilizer, [g.neg() for g in stabilizer]):
        space = coset_space(group, subgroup_generators)
        assert space.count == 432
        assert _sha256(space._assignment, np.int32) == COSET_ASSIGNMENT_N4_SHA256


def test_closure_order_is_pinned():
    _assert_integer_closures_match_pins()
    _assert_mod3_closures_match_pins(reflection_image_mod3)


def test_row_chunk_boundaries_change_no_closure(monkeypatch):
    # Every layer at n <= 6 fits in one default chunk.  Five rows a chunk
    # split the integer layers at positions no generator count divides.
    monkeypatch.setattr(isometry, "_CHUNK_ROWS", 5)
    _assert_integer_closures_match_pins()
    for n, order in ((2, 2), (3, 12), (4, 120), (5, 1920), (6, 51840)):
        assert congruence_intersection_check(n) == CongruenceIntersection(n, order, 1, 1)
    # 37 rows still split every mod-3 layer longer than that; the n = 4
    # images, 51840 and 103680 elements, take seconds at five.
    monkeypatch.setattr(isometry, "_CHUNK_ROWS", 37)
    _assert_mod3_closures_match_pins(reflection_image_mod3.__wrapped__)


def _materialised_counts(mats):
    """Order and elements = I mod 2 and mod 3 of a whole group, kept."""
    mats = mats.astype(np.int64)
    diff = mats - np.eye(mats.shape[1], dtype=np.int64)
    return (len(mats), *(int((~(diff % p).any(axis=(1, 2))).sum()) for p in (2, 3)))


def test_streamed_congruence_counts_find_minus_identity():
    # -I is = I mod 2 but not mod 3: a positive control for the first-column
    # prefilter, which must keep every element whose M e_0 = e_0 mod p.
    # <W, -I> is W and -W, fed to the counts as W's layers and then -W's.
    for n, order in ((2, 2), (3, 12), (4, 120), (5, 1920), (6, 51840)):
        products = _MatrixProducts([g.entries for g in long_simple_reflections(n)], None, False)
        layers = list(products.layers(10**6))
        mats = np.concatenate(layers)
        assert _congruence_counts(layers) == _materialised_counts(mats) == (order, 1, 1)
        negated = [-block for block in layers]
        expected = (2 * order, 2, 1)
        assert _congruence_counts(layers + negated) == expected, n
        assert _materialised_counts(np.concatenate([mats, -mats])) == expected, n


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
        gens = [g.entries for g in long_simple_reflections(n)]
        sizes = [len(block) for block in _MatrixProducts(gens, None, False).layers(10**6)]
        assert sizes == poincare_coefficients(degrees), n


def _oracle_closure(gens, modulus, projective):
    """Reference BFS on tuples: layer by layer, generator-major, a dict of seen."""

    def normal(rows):
        if modulus is not None:
            rows = tuple(tuple(x % modulus for x in r) for r in rows)
        if projective:
            rows = min(rows, tuple(tuple(-x % modulus for x in r) for r in rows))
        return rows

    d = len(gens[0])
    seen = {normal(tuple(tuple(int(i == j) for j in range(d)) for i in range(d))): None}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in gens:
            for f in frontier:
                prod = tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in zip(*g)) for r in f)
                p = normal(prod)
                if p not in seen:
                    seen[p] = None
                    nxt.append(p)
        frontier = nxt
    return list(seen)


def test_closure_matches_tuple_oracle():
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
            pool = [g.entries for g in long_simple_reflections(n)]
            modulus = None
        else:
            pool = [g.entries for g in wall_reflections_mod3(n).values()]
            modulus = 3
        order = data.draw(st.permutations(range(len(pool))))
        size = data.draw(st.integers(1, len(pool)))
        gens = [pool[i] for i in order[:size]]
        mats = _closure(gens, modulus, bool(projective))
        assert [tuple(map(tuple, m)) for m in mats.tolist()] == _oracle_closure(
            gens, modulus, bool(projective)
        )

    same_sequence()


def test_chamber_vector_pairs_to_one_with_every_simple_root():
    for n in range(2, 8):
        v = chamber_vector(n)
        assert v.coords == (-(3 * n - 2), *range(n, 0, -1))
        assert {inner(a, v) for a in simple_roots(n)} == {1}


def test_closure_budget_fails_before_building_the_layer(layer_builds):
    from gosset.geometry import simple_reflection_matrices

    gens = [g.entries for g in simple_reflection_matrices(4)]  # an infinite group
    with pytest.raises(ClosureBudgetExceeded):
        _closure(gens, budget=1000)
    assert layer_builds and 1 + sum(layer_builds) <= 1000


def test_infinite_integer_closure_stops_at_the_budget(layer_builds):
    # At n = 8 the long simple reflections generate the affine Weyl group of
    # E8, an infinite group: only the element budget stops its walk.
    gens = [g.entries for g in long_simple_reflections(8)]
    with pytest.raises(ClosureBudgetExceeded):
        list(_MatrixProducts(gens, None, False).layers(10**5))
    assert layer_builds and 1 + sum(layer_builds) <= 10**5


def test_closure_requires_inverse_closed_generators(layer_builds):
    s = long_simple_reflections(3)
    rotation = s[1] @ s[2]  # order 3: its inverse s[2] s[1] is not in the set
    with pytest.raises(ValueError, match="inversion"):
        _closure([rotation.entries])
    with pytest.raises(ValueError, match="inversion"):
        GroupClosure([reduce_mod(rotation, 3)])
    # The same check rejects a singular generator mod m: no g' has g g' = +-I.
    singular = ModularMatrix(((0, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
    for projective in (False, True):
        with pytest.raises(ValueError, match="inversion"):
            GroupClosure([singular], projective=projective)
    # With its inverse added the set is closed: a cyclic group of order 3.
    inverse = rotation @ rotation
    assert GroupClosure([reduce_mod(rotation, 3), reduce_mod(inverse, 3)]).order == 3
    # Involutions pass that check, but an integer closure walks descents and
    # takes only distinct simple reflections: -I, a repeated generator and the
    # reflection s[1] s[2] s[1] in the root e_1 - e_3 fail before any layer.
    minus = tuple(tuple(-int(r == c) for c in range(4)) for r in range(4))
    reflection = (s[1] @ s[2] @ s[1]).entries
    layer_builds.clear()
    for gens in ([minus], [s[0].entries, s[0].entries], [s[0].entries, reflection]):
        with pytest.raises(ValueError, match="distinct simple reflections"):
            _MatrixProducts(gens, None, False).layers(10**6)
    assert layer_builds == []


def test_integer_closure_overflow_raises():
    from gosset.geometry import simple_reflection_matrices

    # All simple reflections generate an infinite group, whose entries pass
    # int8 mid-walk; at n = 3 that comes well before the budget.
    gens = [g.entries for g in simple_reflection_matrices(3)]
    with pytest.raises(OverflowError):
        _closure(gens)
    big = ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((200, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(OverflowError):
        _closure(list(big))


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
    mats = [long_simple_reflections(n)[i] for i in picks]
    transposed = np.array([m.entries for m in mats]).transpose(0, 2, 1)
    actions = [lambda u, m=m: m.apply(vector(*u)).coords for m in mats]
    return (lambda f: f @ transposed), actions


def _e6_action(picks):
    """E6 simple reflections on rows of simple-root coordinates."""
    rs = root_system()
    simples = [SIMPLE_ROOTS[i] for i in picks]
    mats = np.array([[rs.reflect(b, e) for e in SIMPLE_ROOTS] for b in simples])
    actions = [lambda x, b=b: rs.reflect(b, x) for b in simples]
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
        found = orbit(np.array(seeds), step, 10**6)
        assert [tuple(row) for row in found.tolist()] == _oracle_orbit(seeds, actions)

    same_orbit()


def test_orbit_takes_seeds_in_unsorted_key_order():
    seeds = SIMPLE_ROOTS[::-1]  # e_5, ..., e_0: their packed keys descend
    step, actions = _e6_action(range(6))
    found = orbit(np.array(seeds), step, 1000)
    assert [tuple(row) for row in found.tolist()] == _oracle_orbit(seeds, actions)
    assert len(found) == 72 and [tuple(row) for row in found[:6].tolist()] == list(seeds)


def test_orbit_budget_fails_before_building_the_layer(layer_builds):
    step, _ = _e6_action(range(6))
    assert len(orbit(np.eye(6, dtype=np.int64), step, 72)) == 72
    layer_builds.clear()
    with pytest.raises(ClosureBudgetExceeded):
        orbit(np.eye(6, dtype=np.int64), step, 71)
    assert layer_builds and 6 + sum(layer_builds) <= 71


def test_orbit_rejects_int8_overflow_and_duplicate_seeds():
    from gosset.geometry import simple_reflection_matrices

    mats = np.array([m.entries for m in simple_reflection_matrices(4)]).transpose(0, 2, 1)
    apex = np.array([[1, 0, 0, 0, 0]])
    with pytest.raises(OverflowError):  # all simple reflections: an infinite orbit
        orbit(apex, lambda f: f @ mats, 10**6)
    with pytest.raises(OverflowError):
        orbit(np.array([[200, 0]]), lambda f: f[None], 10)
    with pytest.raises(ValueError, match="distinct"):
        orbit(np.array([[1, 0], [0, 1], [1, 0]]), lambda f: f[None], 10)
