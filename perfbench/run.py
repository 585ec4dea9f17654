"""The gosset benchmark: `verify` workloads end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

Run it from anywhere; it finds the source tree next to this directory and
runs `python3 -m gosset.cli` children from `src/`, nothing installed.  Each
workload is a closed loop with one client: the children run one at a time,
back to back.  A pass is one run of a workload's children.  A run measures
whole passes until `--seconds` is used up, and always at least one.  Every
report is checked against the golden copy in `golden/`, taken at the seed
commit.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
makes one untraced pass and one traced pass (through trace.py) and reports
the per-layer metrics.  The last line of stdout is one JSON object; the
lines above it are for people.  A record of the run, traced rows included,
is written to `.perfbench_runs/` in the checkout.

Every time reported is scaled to a reference CPU speed by a speed probe that
runs beside the children on their CPU (see SpeedProbe); the raw times are
printed and recorded as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
RUNS = ROOT / ".perfbench_runs"

SUITES = ("lattice", "diagrams", "presentation", "enumeration", "tessellation", "e6", "eisenstein")
DOT_SUITES = ("diagrams", "tessellation")
COMPARED = ("check_id", "status", "expected", "actual")
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
# Imports timed before and after the passes, so that the samples straddle
# the slow swings in CPU speed that other tenants of the host cause.
SETUP_SAMPLES = 3
# A pass needs this many times the workload's recorded peak RSS to be free.
MEMORY_HEADROOM = 2
# On a shared VM (2-vCPU Intel Xeon, where the benchmark was defined) the host
# moves the CPUs between a fast and a slow state, about 1.4x apart and lasting
# seconds to minutes, as other tenants load it.  That moves a pass's time by up
# to 40%, more than a regression worth catching, so every time is scaled to a
# reference speed measured beside it (see SpeedProbe).
PROBE_INTERVAL_S = 0.1
# A probe sample that takes this long is the reference speed: about the fast
# state of the 2-vCPU Intel Xeon VM the benchmark was defined on.
PROBE_REF_S = 7.0e-4
# Samples this close to either end of an interval also count towards it, so
# that a 0.25 s import is scaled by about a dozen samples.
PROBE_PAD_S = 0.5


@dataclass(frozen=True)
class Step:
    """One verify child: its arguments, and what its output is checked against."""

    args: tuple[str, ...]
    golden: str  # a key of the workload's golden report, or "dot"

    @property
    def timed(self) -> bool:
        """DOT exports are checked byte for byte but neither timed nor traced."""
        return self.golden != "dot"


# Why each workload exists is in README.md.
WORKLOADS = {
    "verify_all": (
        Step(("all",), "all"),
        *(Step((suite, "--format", "dot"), "dot") for suite in DOT_SUITES),
    ),
    "congruence_n7": (Step(("lattice", "--max-n", "7"), "lattice"),),
}


class RunFailed(Exception):
    """The run cannot go on; it counts as failed, never as skipped."""


class SpeedProbe:
    """Samples the speed of the CPU that the workload's children run on.

    Entering pins this process, and so every child it spawns, to one CPU and
    starts a thread that every PROBE_INTERVAL_S times a fixed piece of
    interpreter work: integer arithmetic, which alone follows the host's speed
    states less than the program does, then a walk over a table of lists,
    which alone follows them more.  Each sample is the best of three, so that
    one the child's time slice cuts into is dropped.  The thread takes about
    2% of the CPU.
    """

    def __init__(self) -> None:
        self._table = [[i & 255] * 8 for i in range(32768)]
        self._samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _work(self) -> float:
        table, acc, j = self._table, 0, 1
        start = perf_counter()
        for i in range(6000):
            acc += i * i
        for i in range(1000):
            j = (j * 1103515245 + 12345) & 0x7FFFFFFF
            row = table[j & 32767]
            acc += row[i & 7]
            row[(i + 3) & 7] = acc & 255
        return perf_counter() - start

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            best = min(self._work() for _ in range(3))
            self._samples.append((perf_counter(), best))

    def scale(self, start: float, end: float) -> float:
        """Mean of PROBE_REF_S / sample over [start, end], padded by PROBE_PAD_S.

        A time measured over the interval, multiplied by this, is the time it
        would have taken at the reference speed.
        """
        speeds = [
            PROBE_REF_S / took
            for at, took in list(self._samples)
            if start - PROBE_PAD_S <= at <= end + PROBE_PAD_S
        ]
        if not speeds:
            raise RunFailed("the speed probe took no sample while a child ran")
        return statistics.fmean(speeds)


@dataclass
class Pass:
    wall_s: float  # scaled to the reference speed, as is cpu_s
    cpu_s: float
    raw_wall_s: float
    raw_cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    traces: list[dict] = field(default_factory=list)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)


def spawn(argv: list[str]) -> tuple[int, float, float]:
    """Run one child to its end: (exit code, user+system CPU s, peak RSS MB)."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL
    )
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def gate_report(path: Path, code: int, golden: list[dict]) -> tuple[int, int]:
    """(attempted, failed) checks of one report against its golden checks.

    A golden check that is missing or differs in status, expected or actual
    value fails; a new check id must pass; a nonzero exit fails every check.
    """
    try:
        checks = json.loads(path.read_text())["checks"]
    except (OSError, ValueError, KeyError):
        return len(golden), len(golden)
    got = {c.get("check_id"): c for c in checks}
    known = {g["check_id"] for g in golden}
    new = [c for c in checks if c.get("check_id") not in known]
    attempted = len(golden) + len(new)
    if code != 0:
        return attempted, attempted
    failed = sum(
        any(got.get(g["check_id"], {}).get(k, object()) != g[k] for k in COMPARED)
        for g in golden
    )
    failed += sum(c.get("status") != "pass" for c in new)
    return attempted, failed


def gate_dot(out_dir: Path, code: int, suite: str) -> tuple[int, int]:
    """(attempted, failed) DOT files, compared byte for byte with the goldens."""
    names = [f"{suite}_{n}.dot" for n in (2, 3, 4)]
    failed = sum(
        code != 0
        or not (out_dir / name).is_file()
        or (out_dir / name).read_bytes() != (GOLDEN / name).read_bytes()
        for name in names
    )
    return len(names), failed


def mem_available_mb() -> float:
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) / 1024
    raise RunFailed("MemAvailable is missing from /proc/meminfo")


def guard_memory(workload: str) -> None:
    """Fail fast rather than risk an out-of-memory kill of the machine."""
    peaks = json.loads((BENCH / "baseline.json").read_text())["peak_rss_mb"]
    need = MEMORY_HEADROOM * peaks[workload]
    have = mem_available_mb()
    if have < need:
        raise RunFailed(
            f"{workload} needs {need:.0f} MB available ({MEMORY_HEADROOM} x its recorded "
            f"peak RSS) but MemAvailable is {have:.0f} MB; not starting it"
        )


def run_pass(workload: str, seed: int, work: Path, traced: bool, probe: SpeedProbe) -> Pass:
    """Run the workload's children back to back, then check their outputs."""
    guard_memory(workload)
    work.mkdir()
    steps = WORKLOADS[workload]
    results = []
    spans = []
    cpus = []
    rss = 0.0
    for i, step in enumerate(steps):
        out = work / str(i)
        verify = list(step.args)
        if step.golden != "dot":
            verify += ["--seed", str(seed)]
        verify += ["--out", str(out)]
        if traced and step.timed:
            argv = [sys.executable, str(BENCH / "trace.py"), str(work / f"{i}.trace"), *verify]
        else:
            argv = [sys.executable, "-m", "gosset.cli", *verify]
        child_start = perf_counter()
        code, child_cpu, child_rss = spawn(argv)
        results.append(code)
        if step.timed:
            spans.append((child_start, perf_counter()))
            cpus.append(child_cpu)
            rss = max(rss, child_rss)
    wall = spans[-1][1] - spans[0][0]
    scales = [probe.scale(t0, t1) for t0, t1 in spans]
    scaled_wall = sum((t1 - t0) * k for (t0, t1), k in zip(spans, scales))
    scaled_cpu = sum(c * k for c, k in zip(cpus, scales))

    golden = json.loads((GOLDEN / f"{workload}.json").read_text())
    attempted = failed = 0
    for i, (step, code) in enumerate(zip(steps, results)):
        if step.golden == "dot":
            a, f = gate_dot(work / str(i), code, step.args[0])
        else:
            a, f = gate_report(work / str(i), code, golden[step.golden])
        attempted += a
        failed += f
    traces = []
    if traced:
        for i in (i for i, step in enumerate(steps) if step.timed):
            path = work / f"{i}.trace"
            if not path.is_file():
                raise RunFailed(f"traced child {i} of {workload} wrote no trace")
            traces.append(json.loads(path.read_text()))
    return Pass(scaled_wall, scaled_cpu, wall, sum(cpus), rss, attempted, failed, traces)


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(start, end) of a fresh interpreter running `import gosset.cli`, once per sample."""
    spans = []
    for _ in range(samples):
        start = perf_counter()
        code, _, _ = spawn([sys.executable, "-c", "import gosset.cli"])
        if code != 0:
            raise RunFailed(f"import gosset.cli exited with {code}")
        spans.append((start, perf_counter()))
    return spans


def merge_traces(traces: list[dict]) -> tuple[dict[str, dict[str, float]], int]:
    """Sum the span rows of all children; distinct closure keys add up per child."""
    rows: dict[str, dict[str, float]] = {}
    keys = 0
    for trace in traces:
        keys += trace["closure_distinct_keys"]
        for name, row in trace["rows"].items():
            into = rows.setdefault(name, {})
            for counter, value in row.items():
                into[counter] = into.get(counter, 0.0) + value
    return rows, keys


COUNTERS = ("calls", "self_s", "total_s", "misses", "cosets_defined", "elements", "cosets", "tiles")


def layer_metrics(names: list[str], rows: dict, closure_keys: int, overhead: float) -> dict:
    """Per-layer metric values by name, from the merged span rows."""

    def get(row: str, counter: str) -> float:
        return rows.get(row, {}).get(counter, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    derived = {
        "enumeration.todd_coxeter.closed.live_ratio": lambda: ratio(
            get("enumeration.todd_coxeter.closed", "n_live"),
            get("enumeration.todd_coxeter.closed", "cosets_defined"),
        ),
        "enumeration.cosets_per_s": lambda: ratio(
            get("enumeration.todd_coxeter", "cosets_defined"),
            get("enumeration.todd_coxeter", "self_s"),
        ),
        "enumeration.enumerate_diagram_group.miss_ratio": lambda: ratio(
            get("enumeration.enumerate_diagram_group", "misses"),
            get("enumeration.enumerate_diagram_group", "calls"),
        ),
        "isometry.closure.distinct_keys": lambda: closure_keys,
        "isometry.closure.distinct_keys_per_call": lambda: ratio(
            closure_keys, get("isometry.closure", "calls")
        ),
        "isometry.closure.elements_per_s": lambda: ratio(
            get("isometry.closure", "elements"), get("isometry.closure", "self_s")
        ),
        "isometry.congruence_intersection_check.elements_per_s": lambda: ratio(
            get("isometry.congruence_intersection_check", "elements"),
            get("isometry.congruence_intersection_check", "self_s"),
        ),
        "e6.generation_order.per_call_s": lambda: ratio(
            get("e6.generation_order", "self_s"), get("e6.generation_order", "calls")
        ),
        "cli.untimed_s": lambda: get("cli.suite", "total_s") - get("cli.suite", "checks_s"),
        "trace.overhead_frac": lambda: overhead,
    }
    for suite in SUITES:
        derived[f"cli.suite.{suite}.s"] = lambda suite=suite: get(f"cli.suite.{suite}", "total_s")

    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]()
            continue
        row, counter = name.rsplit(".", 1)
        if counter not in COUNTERS:
            raise ValueError(f"per-layer metric {name!r} names no known counter")
        values[name] = get(row, counter)
    return values


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record(args: argparse.Namespace) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "mem_available_mb": round(mem_available_mb()),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "child_thread_env": THREAD_ENV,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(args: argparse.Namespace, work: Path, probe: SpeedProbe) -> tuple[list[Pass], dict]:
    measure_setup(1)  # warms the byte-code cache
    setup = measure_setup(SETUP_SAMPLES)
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(args.workload, args.seed, work / f"pass{len(passes)}", False, probe))
        typical = statistics.median(p.raw_wall_s for p in passes)
        if perf_counter() - start + typical > args.seconds:
            break
    setup += measure_setup(SETUP_SAMPLES)
    raw_setup = [t1 - t0 for t0, t1 in setup]
    scaled_setup = [(t1 - t0) * probe.scale(t0, t1) for t0, t1 in setup]
    for label, walls in (("raw", [p.raw_wall_s for p in passes]), ("scaled", [p.wall_s for p in passes])):
        q1, q2, q3 = quartiles(walls)
        print(f"{label} wall_s over {len(walls)} pass(es): median {q2:.4f} s, quartiles {q1:.4f} / {q3:.4f} s")
    print(f"raw cpu_s median {statistics.median(p.raw_cpu_s for p in passes):.4f} s")
    print(
        f"setup_s over {len(setup)} imports: raw median {statistics.median(raw_setup):.4f} s, "
        f"scaled median {statistics.median(scaled_setup):.4f} s"
    )
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(scaled_setup),
    }
    return passes, metrics


def traced(
    args: argparse.Namespace, work: Path, names: list[str], probe: SpeedProbe
) -> tuple[list[Pass], dict, dict]:
    plain = run_pass(args.workload, args.seed, work / "plain", False, probe)
    spans = run_pass(args.workload, args.seed, work / "traced", True, probe)
    overhead = (spans.wall_s - plain.wall_s) / plain.wall_s
    print(f"scaled wall: untraced pass {plain.wall_s:.4f} s, traced pass {spans.wall_s:.4f} s")
    rows, keys = merge_traces(spans.traces)
    return [plain, spans], layer_metrics(names, rows, keys, overhead), rows


def print_baseline(metrics: dict, workload: str) -> None:
    rows = [r for r in json.loads((BENCH / "baseline.json").read_text())["rows"] if r["workload"] == workload]
    if rows:
        print("roadmap baseline rows (s): roadmap / seed commit / this run")
    for r in rows:
        now = metrics.get(r["metric"])
        shown = "-" if now is None else f"{now:.4f}"
        print(f"  {r['row']:<48} {r['roadmap_s']} / {r['seed_commit_s']} / {shown}  [{r['metric']}]")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed, passed as verify --seed")
    parser.add_argument("--seconds", type=int, default=30, help="measure whole passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so spawn() stops its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "gosset" / "cli.py").is_file():
        print(f"run.py: no gosset source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    record = machine_record(args)
    print("run record: " + json.dumps(record))
    RUNS.mkdir(exist_ok=True)
    try:
        with SpeedProbe() as probe, tempfile.TemporaryDirectory(dir=RUNS) as tmp:
            if args.trace:
                passes, metrics, rows = traced(args, Path(tmp), list(units), probe)
            else:
                passes, metrics = end_to_end(args, Path(tmp), probe)
                rows = {}
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"checks_failed_frac {failed / attempted:.4f} ratio ({failed} of {attempted} checks)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    if args.trace:
        print_baseline(metrics, args.workload)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    passes_out = [dict(asdict(p), traces=len(p.traces)) for p in passes]
    (RUNS / name).write_text(
        json.dumps({"record": record, "passes": passes_out, "result": result, "rows": rows}, indent=1)
        + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
