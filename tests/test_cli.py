"""The verify CLI: suites, report format, exit codes, DOT export."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from gosset import cli, enumeration, geometry, isometry
from gosset.cli import Options, main, run_suite
from gosset.eisenstein import OMEGA, forms, scalar_rows
from gosset.geometry import gosset_walls, point_reflections_mod3
from gosset.lattice import basis, chamber_vertices, inner, reflect
from gosset.presentation import DiagramGraph, build_presentation
from gosset.report import CheckReport, exit_code, reports_to_json, run_check
from gosset.suites import eisenstein as eisenstein_rows
from gosset.suites import enumeration as enumeration_rows
from gosset.suites import lattice as lattice_rows
from gosset.suites import presentation as presentation_rows
from gosset.suites import rows
from gosset.suites import tessellation as tessellation_rows


def _strip_runtimes(text):
    doc = json.loads(text)
    for c in doc["checks"]:
        c["runtime_ms"] = 0
    return doc


def test_run_suite_diagrams_all_pass():
    reports = run_suite("diagrams")
    assert reports
    assert all(r.status == "pass" for r in reports)


def test_run_suite_respects_dimension_filter():
    reports = run_suite("diagrams", Options(n=3))
    assert reports
    assert all(r.n == 3 for r in reports)


def test_lattice_suite_skips_large_dimension_by_default():
    reports = run_suite("lattice", Options(max_n=5))
    by_status = {r.check_id: r.status for r in reports}
    assert by_status["congruence_trivial_n5"] == "pass"
    assert by_status["congruence_trivial_n6"] == "skipped"
    assert by_status["congruence_trivial_n7"] == "skipped"


def test_default_run_skips_n7_with_the_flag_that_enables_it():
    # The skip text names the flag only; the cost estimate lives in --help.
    (row,) = [r for r in run_suite("lattice") if r.check_id == "congruence_trivial_n7"]
    assert (row.status, row.details) == ("skipped", "pass --max-n 7 to enable")


def test_exit_code_logic():
    ok = CheckReport("a", None, "pass", 1, 1, 0, "")
    bad = CheckReport("b", None, "fail", 1, 2, 0, "")
    boom = CheckReport("c", None, "error", None, None, 0, "x")
    skip = CheckReport("d", None, "skipped", None, None, 0, "")
    assert exit_code([ok, skip]) == 0
    assert exit_code([ok, bad]) == 1
    assert exit_code([ok, bad, boom]) == 3


def test_json_report_shape():
    text = reports_to_json("0.1.0", "demo", [CheckReport("a", 2, "pass", 1, 1, 5, "d")])
    doc = json.loads(text)
    assert list(doc) == ["version", "suite", "checks"]
    assert list(doc["checks"][0]) == [
        "check_id", "n", "status", "expected", "actual", "runtime_ms", "details",
    ]


def test_main_writes_deterministic_json(tmp_path):
    out1 = tmp_path / "one.json"
    out2 = tmp_path / "two.json"
    assert main(["diagrams", "--out", str(out1)]) == 0
    assert main(["diagrams", "--out", str(out2)]) == 0
    assert _strip_runtimes(out1.read_text()) == _strip_runtimes(out2.read_text())


def test_main_prints_json_to_stdout(capsys):
    assert main(["eisenstein"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["suite"] == "eisenstein"
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_main_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_main_rejects_bad_dimension():
    with pytest.raises(SystemExit) as exc:
        main(["diagrams", "--n", "5"])
    assert exc.value.code == 2


def test_main_has_no_budget_flag():
    with pytest.raises(SystemExit) as exc:
        main(["all", "--budget", "5"])
    assert exc.value.code == 2


def test_dot_export_diagrams(tmp_path):
    assert main(["diagrams", "--format", "dot", "--out", str(tmp_path)]) == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["diagrams_2.dot", "diagrams_3.dot", "diagrams_4.dot"]
    text = (tmp_path / "diagrams_4.dot").read_text()
    assert text.startswith("graph diagram_n4 {")
    assert text.count("--") == 15
    again = tmp_path / "again"
    assert main(["diagrams", "--format", "dot", "--out", str(again)]) == 0
    assert (again / "diagrams_4.dot").read_text() == text


def test_dot_export_tessellation_single_dimension(tmp_path):
    assert main(["tessellation", "--format", "dot", "--n", "2", "--out", str(tmp_path)]) == 0
    files = [p.name for p in tmp_path.iterdir()]
    assert files == ["tessellation_2.dot"]
    assert (tmp_path / "tessellation_2.dot").read_text().count("--") == 18


def test_dot_export_rejected_for_non_graph_suite(tmp_path, capsys):
    assert main(["eisenstein", "--format", "dot", "--out", str(tmp_path)]) == 2
    assert "no DOT export" in capsys.readouterr().err


def test_tessellation_build_failure_is_an_error_record(monkeypatch):
    def broken(n):
        raise AssertionError(f"tessellation {n} failed to build")

    monkeypatch.setattr(tessellation_rows, "build_tessellation", broken)
    reports = run_suite("tessellation", Options(n=2))
    by_id = {r.check_id: r.status for r in reports}
    assert list(by_id) == [
        "tile_count_n2", "boundary_slots_n2", "connected_n2",
        "self_loop_count_n2", "lagrange_n2", "sign_quotient_n2",
    ]
    assert {k for k, v in by_id.items() if v == "error"} == set(list(by_id)[:5])
    assert by_id["sign_quotient_n2"] == "pass"


def test_boundary_slots_fail_when_the_dot_export_drops_an_edge(monkeypatch):
    from gosset.geometry import TileGraph

    def status():
        return {r.check_id: r.status for r in run_suite("tessellation", Options(n=4))}

    assert status()["boundary_slots_n4"] == "pass"
    to_dot = TileGraph.to_dot

    def dropping_one_edge(graph):
        lines = to_dot(graph).splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if " -- " in line)
        return "".join(lines[:first] + lines[first + 1 :])

    monkeypatch.setattr(TileGraph, "to_dot", dropping_one_edge)
    assert status()["boundary_slots_n4"] == "fail"


def test_relator_shuffles_compile_no_scanner(fresh_scanners):
    # 24 and 720 cosets, at most 3 per letter of the scan words: each
    # shuffle scans interpreted from start to end.
    for n in (2, 3):
        enumeration_rows._relator_order_invariance(cli.Case(n, Options()))
        info = fresh_scanners.cache_info()
        assert (info.misses, info.hits) == (0, 0)


def _control_forms(kind):
    """The slot forms of the undeflated presentation's generators."""
    return enumeration._Enumerator(build_presentation(kind, deflate=False), 1).forms


def test_the_enumeration_suite_compiles_only_the_controls(monkeypatch, fresh_scanners):
    # The lifts, their H-relator runs and the shuffles are too short to pay
    # for a compile.  The two 100,000-coset controls compile one template
    # each, shared by all their generators: 6 + 10 binds of 2 compiles.
    bound = []

    def spy(template):
        bound.append(template)
        return fresh_scanners(template)

    monkeypatch.setattr(enumeration, "_compile_scanner", spy)
    enumeration.enumerate_diagram_group.cache_clear()
    assert {r.status for r in run_suite("enumeration")} == {"pass"}
    controls = [t for kind in ("affine_a5", "petersen") for t, _ in _control_forms(kind)]
    assert sorted(bound) == sorted(controls)
    info = fresh_scanners.cache_info()
    assert (info.misses, info.hits) == (2, 14)


def test_only_the_controls_switch_to_compiled_scans_at_16_cosets_a_letter(monkeypatch):
    # Every enumeration of the suite starts interpreted.  The fill loop's one
    # switch point is reached by the two 100,000-coset controls alone, at 16
    # cosets per letter of their one template.
    runs = []  # each enumeration's scanner kinds, with the cosets defined at each
    scanners = enumeration._Enumerator._scanners

    def spy(enum, compiled):
        defined = sys._getframe(1).f_locals["defined"]  # _Enumerator.run's count
        if not compiled:
            runs.append((enum.forms, []))
        runs[-1][1].append(("compiled" if compiled else "interpreted", defined))
        return scanners(enum, compiled)

    monkeypatch.setattr(enumeration._Enumerator, "_scanners", spy)
    enumeration.enumerate_diagram_group.cache_clear()
    assert {r.status for r in run_suite("enumeration")} == {"pass"}
    switch_at = {}
    for kind, letters, at in (("affine_a5", 24, 384), ("petersen", 42, 672)):
        forms = _control_forms(kind)
        (template,) = {t for t, _ in forms}
        assert sum(map(len, template)) == letters
        switch_at[forms] = at
    assert sum(forms in switch_at for forms, _ in runs) == 2
    for forms, kinds in runs:
        expected = [("interpreted", 1)]
        if forms in switch_at:
            expected.append(("compiled", switch_at[forms]))
        assert kinds == expected


def test_an_erroring_check_ends_its_details_with_the_exception():
    def broken():
        raise ValueError("no wall crosses here")

    report = run_check("broken", None, broken)
    assert (report.status, report.expected, report.actual) == ("error", None, None)
    assert report.details.startswith("Traceback (most recent call last):")
    assert report.details.splitlines()[-1] == "ValueError: no wall crosses here"
    # The traceback module loads only for an error: a bare import skips it.
    assert "traceback" not in _imported(["-c", "import gosset.cli"])


def _imported(args):
    """The modules a fresh `python -X importtime args` imports."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


def test_cli_import_compiles_no_scanner(tmp_path):
    # A bare `import gosset.cli` loads no layer, not numpy and not
    # dataclasses, which would pull in inspect.  The lattice suite, run as
    # the congruence benchmark runs it, never loads the layers it does not
    # call, so it compiles no scanner and builds no W(E6) table.
    bare = _imported(["-c", "import gosset.cli"])
    assert {m for m in bare if m.startswith("gosset")} == {
        "gosset", "gosset.cli", "gosset.report", "gosset.suites"
    }
    assert not {"numpy", "dataclasses"} & bare
    out = tmp_path / "lattice.json"
    loaded = _imported(["-m", "gosset.cli", "lattice", "--max-n", "7", "--out", str(out)])
    assert {"gosset.isometry", "gosset.lattice", "numpy"} <= loaded
    never = {f"gosset.{m}" for m in ("e6", "eisenstein", "enumeration", "geometry", "presentation")}
    assert not never & loaded
    pinned = json.loads((GOLDEN.parent / "congruence_n7.json").read_text())["lattice"]
    got = json.loads(out.read_text())["checks"]
    assert [(c["check_id"], c["status"]) for c in got] == [
        (c["check_id"], c["status"]) for c in pinned
    ]
    assert len(got) == 34
    # Nor does it build a GroupClosure, at any level of the congruence chain:
    # the spy runs in a fresh process, where no level is cached yet.
    code = (
        "import sys; from gosset import cli, isometry; "
        "built = []; init = isometry.GroupClosure.__init__; "
        "isometry.GroupClosure.__init__ = lambda *a, **k: built.append(1) or init(*a, **k); "
        "code = cli.main(['lattice', '--max-n', '7', '--out', sys.argv[1]]); "
        "print(code, len(built))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "spied.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-2:] == ["0", "0"]


@pytest.mark.parametrize(
    "suite, broken, failing",
    [
        (
            "diagrams",
            "gosset_walls",
            {"wall_count_n2", "wall_norms_n2", "wall_pair_split_n2", "gram_diagram_match_n2"},
        ),
        (
            "presentation",
            "build_presentation",
            {"relator_profile_a3", "relators_mod3_a3", "presentation_roundtrip_a3"},
        ),
    ],
)
def test_a_broken_layer_function_fails_only_its_checks(monkeypatch, suite, broken, failing):
    def raise_error(*args, **kwargs):
        raise RuntimeError(f"{broken} is broken")

    monkeypatch.setattr(import_module(f"gosset.suites.{suite}"), broken, raise_error)
    statuses = {r.check_id: r.status for r in run_suite(suite, Options(n=2))}
    assert {k for k, v in statuses.items() if v == "error"} == failing
    # automorphism_order_n2 and braid_identity_fixed among them
    assert all(v == "pass" for k, v in statuses.items() if k not in failing)


def _reflect_with_coefficient_one(alpha, lam):
    return tuple(x - inner(lam, alpha) * a for x, a in zip(lam, alpha))


def _braid_with_coefficient_three(alpha, beta, lam):
    lhs = np.subtract(
        reflect(beta, reflect(alpha, reflect(beta, lam))),
        reflect(alpha, reflect(beta, reflect(alpha, lam))),
    )
    rhs = 3 * inner(lam, alpha) * np.array(alpha) - 3 * inner(lam, beta) * np.array(beta)
    return lhs.tolist() == rhs.tolist()


def _forms_without_conjugation(d):
    """The Gram matrices from the tables of x y, where forms has x conj(y)."""
    table = np.stack([np.eye(2, dtype=np.int64), OMEGA])
    signs = np.diag([-1] + [1] * (d - 1))
    return np.kron(signs, table[..., 0]), np.kron(signs, table[..., 1])


def _hexaflection_with_coefficient(c):
    """The rows of l + c <l, e> e, for the ring element c; c = omega is hexaflection_rows."""

    def rows(e):
        e = np.array(e)
        d = len(e) // 2
        p, q = forms(d)
        c_e = e @ scalar_rows(c, d)
        update = np.outer(p @ e, c_e) + np.outer(q @ e, c_e @ scalar_rows((0, 1), d))
        return np.eye(2 * d, dtype=np.int64) + update

    return rows


# The rows lived in gosset.cli before each suite had a module; the ids stay.
@pytest.mark.parametrize(
    "owner, name, fake, suite, failing",
    [
        pytest.param(
            lattice_rows, "reflect", _reflect_with_coefficient_one, "lattice",
            ["reflection_involution_n2"],
            id="gosset.cli-reflect-_reflect_with_coefficient_one-lattice-failing0",
        ),
        pytest.param(
            presentation_rows, "braid_identity_check", _braid_with_coefficient_three,
            "presentation", ["braid_identity_random_n2"],
            id="gosset.cli-braid_identity_check-_braid_with_coefficient_three-presentation-failing1",
        ),
        # a - b omega breaks conj(omega^2) = conj(omega)^2; the identity map is
        # multiplicative but gives omega the norm omega^2.
        pytest.param(
            eisenstein_rows, "CONJ", np.array([[1, 0], [0, -1]]), "eisenstein",
            ["conjugation_multiplicative"],
            id="CONJ-_conj_a_minus_b_omega-eisenstein-failing2",
        ),
        pytest.param(
            eisenstein_rows, "CONJ", np.eye(2, dtype=np.int64), "eisenstein",
            ["conjugation_multiplicative"],
            id="CONJ-_conj_identity-eisenstein-failing3",
        ),
        pytest.param(
            eisenstein_rows, "forms", _forms_without_conjugation, "eisenstein",
            ["hermitian_symmetry"],
            id="forms-_forms_without_conjugation-eisenstein-failing4",
        ),
        pytest.param(
            eisenstein_rows, "hexaflection_rows", _hexaflection_with_coefficient((0, -1)),
            "eisenstein",
            ["hexaflection_preserves_form", "hexaflection_order_six", "triflection_order_three"],
            id="hexaflection_rows-_coefficient_minus_omega-eisenstein-failing5",
        ),
        # The identity map squares to one and preserves the form, but fixes alpha.
        pytest.param(
            lattice_rows, "reflect", lambda alpha, lam: lam, "lattice",
            ["reflection_involution_n2"],
            id="gosset.cli-reflect-<lambda>-lattice-failing6",
        ),
        # -I also negates alpha, but moves e_i by -2 e_i, not by a multiple of alpha.
        pytest.param(
            lattice_rows, "reflect", lambda alpha, lam: tuple(-x for x in lam), "lattice",
            ["reflection_involution_n2"],
            id="reflect-_minus_identity-lattice-failing9",
        ),
        # I + W is a primitive sixth root of unity, not a cube root.
        pytest.param(
            eisenstein_rows, "OMEGA", np.eye(2, dtype=np.int64) + OMEGA, "eisenstein",
            ["unit_relation"],
            id="OMEGA-_sixth_root-eisenstein-failing7",
        ),
        # The inverse hexaflection, H^5, has coefficient omega^2: it preserves the form and
        # has the same orders, and only the axis eigenvalue tells it from H.
        pytest.param(
            eisenstein_rows, "hexaflection_rows", _hexaflection_with_coefficient((-1, -1)),
            "eisenstein", ["hexaflection_axis_eigenvalue"],
            id="hexaflection_rows-_coefficient_omega_squared-eisenstein-failing8",
        ),
    ],
)
def test_basis_checks_fail_on_a_broken_identity(monkeypatch, owner, name, fake, suite, failing):
    options = Options(n=2, max_n=2)
    statuses = {r.check_id: r.status for r in run_suite(suite, options)}
    assert all(statuses[c] == "pass" for c in failing)
    monkeypatch.setattr(owner, name, fake)
    statuses = {r.check_id: r.status for r in run_suite(suite, options)}
    assert {c: statuses[c] for c in failing} == {c: "fail" for c in failing}


_TESSELLATION = ("tile_count", "boundary_slots", "connected", "self_loop_count", "lagrange")
_N234 = ("n2", "n3", "n4")


def _ids(names, dims):
    return {f"{name}_{d}" for name in names for d in dims}


# lattice.coroot, the one reflection rule over Z, mutated before any layer
# imports it: (fake coroot, checks that fail, checks that error).
_RULE_MUTATIONS = {
    # c = J alpha drops the factor 2 / (alpha, alpha): only norm-1 roots change.
    "no_factor": (
        "lambda alpha: lattice.gram(len(alpha)) @ alpha",
        {"braid_identity_fixed"} | _ids(["braid_identity_random"], _N234)
        | _ids(["reflection_involution"], [f"n{n}" for n in range(2, 9)]),
        _ids(_TESSELLATION + ("sign_quotient", "generator_words"), _N234)
        | _ids(["relators_mod3", "matrix_cross_check"], ["a3", "affine_a5", "petersen"])
        | {"deflation_integer_nonidentity", "triple_agreement"},
    ),
    # c = 2 J alpha forces the factor to 2: only norm-2 roots change.
    "factor_two": (
        "lambda alpha: 2 * lattice.gram(len(alpha)) @ alpha",
        _ids(["reflection_involution"], [f"n{n}" for n in range(2, 9)]),
        _ids(_TESSELLATION + ("sign_quotient", "generator_words", "vertex_orbits"), _N234)
        | _ids(["congruence_trivial"], [f"n{n}" for n in range(2, 8)]),
    ),
}


@pytest.mark.parametrize("mutation", sorted(_RULE_MUTATIONS))
def test_every_integer_route_reads_the_one_reflection_rule(tmp_path, mutation):
    # Every check not listed passes: no route over Z keeps a coefficient of its own.
    fake, failing, erroring = _RULE_MUTATIONS[mutation]
    code = (
        "import sys; from gosset import lattice; "
        f"lattice.coroot = {fake}; "
        "from gosset import cli; cli.main(['all', '--max-n', '7', '--out', sys.argv[1]])"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / f"{mutation}.json"
    done = subprocess.run(
        [sys.executable, "-c", code, str(out)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    statuses = {c["check_id"]: c["status"] for c in json.loads(out.read_text())["checks"]}
    assert {c for c, s in statuses.items() if s == "fail"} == failing
    assert {c for c, s in statuses.items() if s == "error"} == erroring
    assert {s for c, s in statuses.items() if c not in failing | erroring} == {"pass"}


def _walls_with_a_stray_mirror(n):
    """The first wall with x_0 = 1 becomes e_0 + e_1 + e_2: norm 1, but not a wall."""
    walls = gosset_walls(n)
    first = next(i for i, r in enumerate(walls.roots) if r[0] == 1)
    roots = list(walls.roots)
    roots[first] = (1, 1, 1) + (0,) * (n - 2)
    return replace(walls, roots=tuple(roots))


def _vertices_with_a_moved_center(n):
    """v_n becomes e_1, which the stabilizer moves."""
    return chamber_vertices(n)[:n] + [basis(n)[1]]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize(
    "name, fake, check",
    [
        ("gosset_walls", _walls_with_a_stray_mirror, "generator_words"),
        ("chamber_vertices", _vertices_with_a_moved_center, "vertex_orbits"),
    ],
)
def test_orbit_checks_fail_on_a_broken_input(monkeypatch, n, name, fake, check):
    check_id = f"{check}_n{n}"
    options = Options(n=n)
    assert {r.check_id: r.status for r in run_suite("diagrams", options)}[check_id] == "pass"
    monkeypatch.setattr(geometry, name, fake)
    assert {r.check_id: r.status for r in run_suite("diagrams", options)}[check_id] == "fail"


def _walls_without_the_first(n):
    """The wall system with wall "1", e_1, dropped."""
    walls = gosset_walls(n)
    return replace(walls, labels=walls.labels[1:], roots=walls.roots[1:])


def _point_reflections_with_a_wrong_entry(n):
    """The reflection in wall 1's point sends wall 2's point to wall 3's."""
    reflections, points = point_reflections_mod3(n)
    first, second, third = points(gosset_walls(n).roots)[:3]
    wrong = reflections.copy()
    wrong[first, second] = third
    return wrong, points


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("fake", [_walls_with_a_stray_mirror, _walls_without_the_first])
def test_tessellation_build_fails_on_a_wrong_wall_set(monkeypatch, n, fake):
    # The orbit of the wrong set has 360 tiles at n = 3, and 12960 (stray
    # mirror) or 4320 (a wall dropped) at n = 4: not |G| / |H|.
    geometry.build_tessellation.__wrapped__(n)
    monkeypatch.setattr(geometry, "gosset_walls", fake)
    with pytest.raises(AssertionError, match="stabilizer"):
        geometry.build_tessellation.__wrapped__(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tessellation_build_fails_on_a_wrong_point_reflection(monkeypatch, n):
    # The crossing of wall 1 from tile 0 meets a set outside the orbit.
    geometry.build_tessellation.__wrapped__(n)
    monkeypatch.setattr(geometry, "point_reflections_mod3", _point_reflections_with_a_wrong_entry)
    with pytest.raises(KeyError, match="outside the orbit"):
        geometry.build_tessellation.__wrapped__(n)


def test_a_wrong_wall_set_keeps_twelve_tiles_at_n2(monkeypatch):
    # At n = 2 both wrong sets keep the 12 tiles.  The stray mirror even keeps
    # the tile graph, so every tessellation check passes and only the
    # diagrams suite's generator_words_n2 fails (see above).  Without wall 1,
    # two slots a tile are left, and they do not join the tiles up.
    uncached = geometry.build_tessellation.__wrapped__
    monkeypatch.setattr(tessellation_rows, "build_tessellation", uncached)
    failing = {}
    for fake in (_walls_with_a_stray_mirror, _walls_without_the_first):
        monkeypatch.setattr(geometry, "gosset_walls", fake)
        assert uncached(2).tile_count == 12
        reports = run_suite("tessellation", Options(n=2))
        failing[fake] = {r.check_id for r in reports if r.status != "pass"}
    assert failing == {
        _walls_with_a_stray_mirror: set(),
        _walls_without_the_first: {"boundary_slots_n2", "connected_n2"},
    }


def test_lagrange_fails_on_a_wrong_stabilizer_order(monkeypatch):
    options = Options(n=2)
    real = tessellation_rows.congruence_intersection_check

    def lagrange_status():
        return {r.check_id: r.status for r in run_suite("tessellation", options)}["lagrange_n2"]

    assert lagrange_status() == "pass"
    monkeypatch.setattr(
        tessellation_rows,
        "congruence_intersection_check",
        lambda n: replace(real(n), order=2 * real(n).order),
    )
    assert lagrange_status() == "fail"


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "verify_all.json"
# details by check id, from `verify all --seed 1`: the golden file pins the
# other fields, and the north star pins every field apart from runtime_ms.
DETAILS = ROOT / "tests" / "golden_details.json"


@pytest.mark.parametrize(
    "argv, rows",
    [
        (
            ["diagrams", "--n", "4"],
            {
                "cli.suite.diagrams",
                "geometry.verify_generator_words.n4",
                "geometry.vertex_orbits.n4",
            },
        ),
        (
            ["tessellation", "--n", "2"],
            {
                "cli.suite.tessellation",
                "geometry.build_tessellation.n2",
                "geometry.reflection_image_mod3.n2_projective",
                "isometry.coset_space",
                "isometry.finite_group_elements",
            },
        ),
        (
            # The open control run is traced by its counts, not its rows.
            ["enumeration", "--n", "3"],
            {
                "enumeration.todd_coxeter.budget_exceeded.affine_a5",
                "enumeration.verify_table.affine_a5",
                "enumeration.verify_action_against_matrices.affine_a5",
            },
        ),
    ],
)
def test_trace_spans_reach_the_suite_runners_and_layers(tmp_path, argv, rows):
    assert rows <= set(_trace_rows(tmp_path, argv))


def _trace_rows(tmp_path, argv):
    """The span rows of `verify argv` traced in a fresh process."""
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace.py"), str(out), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())["rows"]


def test_the_enumeration_report_does_not_depend_on_the_hash_seed(tmp_path):
    # The lift's walk and every certificate order by sorted keys, never by a
    # hash: two hash seeds give one report, apart from runtime_ms.
    reports = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / f"enumeration_{hash_seed}.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-m", "gosset.cli", "enumeration", "--seed", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        reports.append(_strip_runtimes(out.read_text()))
    assert reports[0] == reports[1]
    assert reports[0]["checks"]


def test_tessellation_closes_each_mod3_group_once(tmp_path):
    # The projective and linear images for n = 2, 3, 4; the stabilizer is read off them.
    rows = _trace_rows(tmp_path, ["tessellation"])
    assert rows["isometry.closure"]["calls"] == 6
    assert rows["geometry.reflection_image_mod3"]["misses"] == 6


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_import_pins_blas_threads_unless_set(preset):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env.update(dict.fromkeys(names, preset) if preset else {}, PYTHONPATH=str(ROOT / "src"))
    code = "import os, gosset.cli; print(*(os.environ[k] for k in %r))" % (names,)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [preset or "1"] * 2


@pytest.mark.parametrize("suite", cli.SUITES)
def test_suite_matches_pinned_outputs(suite):
    # As perfbench's gate_report: every pinned check matches exactly, in one
    # contiguous run of the golden ids, and every new check passes.  details
    # match too, for every check that has pinned details.
    fields = ("check_id", "status", "expected", "actual")
    golden = json.loads(GOLDEN.read_text())["all"]
    pinned = {c["check_id"]: c for c in golden}
    details = json.loads(DETAILS.read_text())
    assert set(pinned) <= set(details)
    got = json.loads(reports_to_json("0", suite, run_suite(suite)))["checks"]
    kept = [c for c in got if c["check_id"] in pinned]
    ids = [c["check_id"] for c in golden]
    start = ids.index(kept[0]["check_id"])
    assert ids[start : start + len(kept)] == [c["check_id"] for c in kept]
    for check in kept:
        assert {f: check[f] for f in fields} == {f: pinned[check["check_id"]][f] for f in fields}
    assert all(c["status"] == "pass" for c in got if c["check_id"] not in pinned)
    for check in got:
        if check["check_id"] in details:
            assert check["details"] == details[check["check_id"]], check["check_id"]


def test_every_pinned_check_is_still_a_row():
    golden = {c["check_id"] for c in json.loads(GOLDEN.read_text())["all"]}
    ids = {
        row.template.format(n=n, kind=cli.KIND_BY_N.get(n))
        for row in rows()
        for n in ((None,) if row.dims is None else row.dims)
    }
    assert golden <= ids


@pytest.mark.parametrize("suite", ["diagrams", "tessellation"])
def test_dot_exports_match_the_goldens(tmp_path, suite):
    # As perfbench's gate_dot, byte for byte.  Tile ids follow the order of
    # the mod-3 closure's elements, so a change of that order fails here.
    assert main([suite, "--format", "dot", "--out", str(tmp_path)]) == 0
    for n in (2, 3, 4):
        name = f"{suite}_{n}.dot"
        assert (tmp_path / name).read_bytes() == (GOLDEN.parent / name).read_bytes(), name


A4_PATH = DiagramGraph(("1", "2", "3", "4"), frozenset({("1", "2"), ("2", "3"), ("3", "4")}))


@pytest.mark.parametrize("n", [3, 4])
def test_tits_form_check_fails_on_a_positive_definite_diagram(monkeypatch, row_report, n):
    assert row_report("no_deflation_indefinite_{kind}", n).status == "pass"
    monkeypatch.setattr(enumeration_rows, "diagram_graph", lambda kind: A4_PATH)
    assert row_report("no_deflation_indefinite_{kind}", n).status == "fail"


def test_verify_all_never_enumerates_the_petersen_group_over_the_trivial_subgroup(monkeypatch):
    # The lift replaced that 51,840-coset Felsch run; this keeps it out.
    deflated = build_presentation("petersen")
    real = enumeration.todd_coxeter
    petersen_subgroups = []

    def spy(pres, subgroup_words=(), budget=enumeration.DEFAULT_COSET_BUDGET):
        if pres == deflated:
            petersen_subgroups.append(tuple(subgroup_words))
        return real(pres, subgroup_words, budget)

    for module in (enumeration, enumeration_rows):
        monkeypatch.setattr(module, "todd_coxeter", spy)
    enumeration.enumerate_diagram_group.cache_clear()
    reports = run_suite("all")
    assert {r.status for r in reports} == {"pass", "skipped"}
    assert petersen_subgroups and all(petersen_subgroups)


def test_verify_all_closes_each_generator_set_once(monkeypatch):
    # Nine GroupClosures, each of its own generator set: the six mod-3
    # images, and the projective_action of the walls for each n = 2, 3, 4,
    # which the Petersen cross-check and triple_agreement share; and one
    # keyed walk of a Cayley table for each lift, none for the roots or the
    # walls, whose tables are certified, not walked.
    closures, walks = [], []
    init = isometry.GroupClosure.__init__
    base_orbit = isometry._base_orbit

    def spy(self, generators, projective=False):
        closures.append((tuple(generators), projective))
        init(self, generators, projective)

    def walk_spy(columns, base, bound=None):
        walks.append(bound)
        return base_orbit(columns, base, bound)

    monkeypatch.setattr(isometry.GroupClosure, "__init__", spy)
    monkeypatch.setattr(isometry, "_base_orbit", walk_spy)
    for cached in (geometry.reflection_image_mod3, geometry.build_tessellation):
        cached.cache_clear()
    for cached in (enumeration.projective_action, enumeration.enumerate_diagram_group):
        cached.cache_clear()
    reports = run_suite("all")
    assert {r.status for r in reports} == {"pass", "skipped"}
    assert len(closures) == len(set(closures)) == 9
    walls = {frozenset(geometry.wall_reflections_mod3(n).values()) for n in (2, 3, 4)}
    assert len(walls & {frozenset(gens) for gens, projective in closures if projective}) == 3
    assert enumeration.projective_action.cache_info().misses == 3
    assert sorted(walks) == [24, 720, 51840]  # the lifts' bounds, index times |H|


def test_verify_all_streams_only_the_small_integer_closures(monkeypatch):
    # The integer closure serves build_tessellation's check of the stabilizer
    # order alone: W of order 2, 12 and 120, 134 matrices in all.  The
    # lattice suite counts down the parabolic chain, n = 7 included, and
    # streams none.
    streamed = []
    reflection_layers = isometry._reflection_layers

    def spy(roots):
        streamed.append(0)
        for block in reflection_layers(roots):
            streamed[-1] += len(block)
            yield block

    monkeypatch.setattr(isometry, "_reflection_layers", spy)
    geometry.build_tessellation.cache_clear()
    assert {r.status for r in run_suite("all")} == {"pass", "skipped"}
    assert sorted(streamed) == [2, 12, 120]
    streamed.clear()
    isometry._transversal.cache_clear()
    assert {r.status for r in run_suite("lattice", Options(max_n=7))} == {"pass"}
    assert streamed == []
