"""Check reports: the uniform result records behind the verify CLI.

A check compares a frozen expected value against a freshly computed actual
value; status is pass exactly when they are equal.  Reports serialize to
JSON deterministically (fixed key order, stable check order); runtime_ms is
the one field golden comparisons must ignore.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
ERROR = "error"


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    n: int | None
    status: str
    expected: object
    actual: object
    runtime_ms: int
    details: str

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "n": self.n,
            "status": self.status,
            "expected": _plain(self.expected),
            "actual": _plain(self.actual),
            "runtime_ms": self.runtime_ms,
            "details": self.details,
        }


def _plain(value: object) -> object:
    """Coerce values to JSON-stable types (tuples to lists, sets sorted)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(v) for v in value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def run_check(
    check_id: str, n: int | None, run: Callable[[], tuple[object, object, str]]
) -> CheckReport:
    """Run one check; run() returns (expected, actual, details)."""
    start = time.perf_counter()
    try:
        expected, actual, details = run()
        status = PASS if _plain(expected) == _plain(actual) else FAIL
    except Exception:
        expected, actual = None, None
        details = traceback.format_exc(limit=3).strip()
        status = ERROR
    ms = int((time.perf_counter() - start) * 1000)
    return CheckReport(check_id, n, status, expected, actual, ms, details)


def skipped_check(check_id: str, n: int | None, details: str) -> CheckReport:
    return CheckReport(check_id, n, SKIPPED, None, None, 0, details)


def reports_to_json(version: str, suite: str, reports: Sequence[CheckReport]) -> str:
    doc = {
        "version": version,
        "suite": suite,
        "checks": [r.to_dict() for r in reports],
    }
    return json.dumps(doc, indent=2) + "\n"


def exit_code(reports: Sequence[CheckReport]) -> int:
    """0 iff every non-skipped check passes; 1 on failures; 3 on errors."""
    statuses = {r.status for r in reports}
    if ERROR in statuses:
        return 3
    if FAIL in statuses:
        return 1
    return 0
