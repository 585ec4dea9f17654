"""The verify CLI: suites, report format, exit codes, DOT export."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gosset import cli, enumeration, geometry, isometry
from gosset.cli import Options, main, run_suite
from gosset.eisenstein import OMEGA, EisensteinInteger, herm
from gosset.geometry import gosset_walls
from gosset.lattice import basis_vector, chamber_vertices, inner, reflect
from gosset.presentation import DiagramGraph, build_presentation
from gosset.report import CheckReport, exit_code, reports_to_json


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

    monkeypatch.setattr(cli, "build_tessellation", broken)
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


def test_relator_shuffles_compile_their_scanners_once():
    from gosset.enumeration import _compile_scanners

    for n in (2, 3):
        _compile_scanners.cache_clear()
        cli._relator_order_invariance(cli.Case(n, Options()))
        info = _compile_scanners.cache_info()
        assert (info.misses, info.hits) == (1, 2)


def test_cli_import_compiles_no_scanner():
    # Nor does it, or the lattice suite, build a W(E6) table or a GroupClosure:
    # the lattice suite runs alone in the congruence benchmark.
    code = (
        "import gosset.cli as cli; from gosset import e6, enumeration, isometry; "
        "built = []; init = isometry.GroupClosure.__init__; "
        "isometry.GroupClosure.__init__ = lambda *a, **k: built.append(1) or init(*a, **k); "
        "work = lambda: (enumeration._compile_scanners.cache_info().currsize, "
        "e6.cayley_table.cache_info().misses, "
        "enumeration.enumerate_diagram_group.cache_info().misses, len(built)); "
        "print(*work()); cli.run_suite('lattice'); print(*work())"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"] * 8


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

    monkeypatch.setattr(cli, broken, raise_error)
    statuses = {r.check_id: r.status for r in run_suite(suite, Options(n=2))}
    assert {k for k, v in statuses.items() if v == "error"} == failing
    # automorphism_order_n2 and braid_identity_fixed among them
    assert all(v == "pass" for k, v in statuses.items() if k not in failing)


def _reflect_with_coefficient_one(alpha, lam):
    return lam - inner(lam, alpha) * alpha


def _braid_with_coefficient_three(alpha, beta, lam):
    lhs = reflect(beta, reflect(alpha, reflect(beta, lam))) - reflect(
        alpha, reflect(beta, reflect(alpha, lam))
    )
    return lhs == (3 * inner(lam, alpha)) * alpha - (3 * inner(lam, beta)) * beta


def _herm_without_conjugation(u, v):
    s = -(u.coords[0] * v.coords[0])
    for a, b in zip(u.coords[1:], v.coords[1:]):
        s = s + a * b
    return s


def _hexaflection_with_coefficient_omega(e, lam):
    return lam - e.scale(OMEGA * herm(lam, e))


@pytest.mark.parametrize(
    "owner, name, fake, suite, failing",
    [
        (cli, "reflect", _reflect_with_coefficient_one, "lattice", ["reflection_involution_n2"]),
        (
            cli, "braid_identity_check", _braid_with_coefficient_three,
            "presentation", ["braid_identity_random_n2"],
        ),
        # a - b omega breaks conj(omega^2) = conj(omega)^2; the identity map is
        # multiplicative but gives omega the norm omega^2.
        (
            EisensteinInteger, "conj", lambda z: EisensteinInteger(z.a, -z.b),
            "eisenstein", ["conjugation_multiplicative"],
        ),
        (EisensteinInteger, "conj", lambda z: z, "eisenstein", ["conjugation_multiplicative"]),
        (cli, "herm", _herm_without_conjugation, "eisenstein", ["hermitian_symmetry"]),
        (
            cli, "hexaflection", _hexaflection_with_coefficient_omega, "eisenstein",
            ["hexaflection_preserves_form", "hexaflection_order_six", "triflection_order_three"],
        ),
        # The identity map squares to one and preserves the form, but fixes alpha.
        (cli, "reflect", lambda alpha, lam: lam, "lattice", ["reflection_involution_n2"]),
    ],
)
def test_basis_checks_fail_on_a_broken_identity(monkeypatch, owner, name, fake, suite, failing):
    options = Options(n=2, max_n=2)
    statuses = {r.check_id: r.status for r in run_suite(suite, options)}
    assert all(statuses[c] == "pass" for c in failing)
    monkeypatch.setattr(owner, name, fake)
    statuses = {r.check_id: r.status for r in run_suite(suite, options)}
    assert {c: statuses[c] for c in failing} == {c: "fail" for c in failing}


def _walls_with_a_stray_mirror(n):
    """The first wall with x_0 = 1 becomes e_0 + e_1 + e_2: norm 1, but not a wall."""
    walls = gosset_walls(n)
    first = next(i for i, r in enumerate(walls.roots) if r.coords[0] == 1)
    e = [basis_vector(i, n) for i in range(n + 1)]
    roots = list(walls.roots)
    roots[first] = e[0] + e[1] + e[2]
    return replace(walls, roots=tuple(roots))


def _vertices_with_a_moved_center(n):
    """v_n becomes e_1, which the stabilizer moves."""
    return chamber_vertices(n)[:n] + [basis_vector(1, n)]


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


def test_lagrange_fails_on_a_wrong_stabilizer_order(monkeypatch):
    options = Options(n=2)
    real = cli.congruence_intersection_check

    def lagrange_status():
        return {r.check_id: r.status for r in run_suite("tessellation", options)}["lagrange_n2"]

    assert lagrange_status() == "pass"
    monkeypatch.setattr(
        cli, "congruence_intersection_check", lambda n: replace(real(n), order=2 * real(n).order)
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
        for row in cli.TABLE
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
    monkeypatch.setattr(cli, "diagram_graph", lambda kind: A4_PATH)
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

    for module in (enumeration, cli):
        monkeypatch.setattr(module, "todd_coxeter", spy)
    enumeration.enumerate_diagram_group.cache_clear()
    reports = run_suite("all")
    assert {r.status for r in reports} == {"pass", "skipped"}
    assert petersen_subgroups and all(petersen_subgroups)


def test_verify_all_closes_each_generator_set_once(monkeypatch):
    # Six GroupClosures, the mod-3 images, and one table of the walls for
    # each n = 2, 3, 4, which the Petersen cross-check and triple_agreement
    # share.
    closures, wall_tables = [], []
    init = isometry.GroupClosure.__init__
    point_action = enumeration.point_action

    def spy(self, generators, projective=False):
        closures.append((tuple(generators), projective))
        init(self, generators, projective)

    def wall_spy(mats, projective):
        wall_tables.append(tuple(mats))
        return point_action(mats, projective)

    monkeypatch.setattr(isometry.GroupClosure, "__init__", spy)
    monkeypatch.setattr(enumeration, "point_action", wall_spy)
    for cached in (geometry.reflection_image_mod3, geometry.build_tessellation):
        cached.cache_clear()
    enumeration.matrix_cayley_table.cache_clear()
    reports = run_suite("all")
    assert {r.status for r in reports} == {"pass", "skipped"}
    assert len(closures) == 6
    assert len(set(closures)) == len(closures)
    assert len(wall_tables) == 3 == enumeration.matrix_cayley_table.cache_info().misses
    assert len(set(wall_tables)) == len(wall_tables)
