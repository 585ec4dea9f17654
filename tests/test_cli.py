"""The verify CLI: suites, report format, exit codes, DOT export."""

import json
from pathlib import Path

import pytest

from gosset import cli
from gosset.cli import Options, main, run_suite
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


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "verify_all.json"


@pytest.mark.parametrize("suite", ["enumeration", "e6"])
def test_suite_matches_pinned_outputs(suite):
    fields = ("check_id", "status", "expected", "actual")
    golden = json.loads(GOLDEN.read_text())["all"]
    pinned = {c["check_id"]: c for c in golden}
    got = json.loads(reports_to_json("0", suite, run_suite(suite)))["checks"]
    ids = [c["check_id"] for c in golden]
    start = ids.index(got[0]["check_id"])
    assert ids[start : start + len(got)] == [c["check_id"] for c in got]
    for check in got:
        assert {f: check[f] for f in fields} == {f: pinned[check["check_id"]][f] for f in fields}
