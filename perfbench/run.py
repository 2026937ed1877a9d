"""Benchmark of the dpg-lock convergence-study command.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds `src/dpglock`.  Every study
is a fresh Python process (child.py) that imports `dpglock` and calls
`dpglock.study_cli.main(argv)`, as the `dpg-lock` command does; one process
runs at a time, with BLAS capped at `nproc` threads.  A repetition runs the
workload's studies in turn; repetitions continue while the next one is
expected to end within `--seconds`, and at least one runs.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics (END_TO_END).  With `--trace 1` each repetition runs the
workload untraced and then traced, and the object holds the per-layer
metrics (PER_LAYER); the merged spans go to `.perfbench-out/`.

A study fails when it exits nonzero, overruns its time budget (it is then
killed) or writes CSV rows that leave the reference recorded at the seed
commit (reference.json, see `check_csv`).  The run exits 2 without a result
when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import study_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SWEEP = (
    "--problem poisson --r1 1 --r2 1 --norm standard --levels 5",
    "--problem poisson --r1 100 --r2 100 --norm standard --levels 5",
    "--problem poisson --r1 100 --r2 100 --norm scaled --levels 5",
    "--problem poisson --gamma 1 --r1 100 --r2 100 --norm standard --levels 5",
    "--problem poisson --r1 10 --r2 1 --bc mixed --ny0 1 --norm standard --levels 5",
    "--problem plate --r1 1 --r2 1 --norm scaled --levels 4",
    "--problem plate --r1 10 --r2 10 --norm standard --levels 4",
    "--problem plate --r1 10 --r2 10 --norm scaled --levels 4",
    "--problem plate --r1 10 --r2 1 --bc mixed --norm scaled --levels 3",
)

# workload -> (studies, time budget of one study in seconds); the budgets are
# about five times the studies' wall time at the seed commit.  BENCHMARK.json
# lists poisson-R100 and plate-R10 only: on a shared 2-core machine the
# sweep's wall time spread by 0.31 of its median (quartile distance over ten
# 40-second runs), too wide to hold a regression bound.
WORKLOADS = {
    "poisson-R100": (("--problem poisson --r1 100 --r2 100 --norm scaled --levels 7",), 90.0),
    "plate-R10": (("--problem plate --r1 10 --r2 10 --norm scaled --levels 6",), 120.0),
    "sweep": (SWEEP, 30.0),
}

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

PER_LAYER = {
    "study_cli.run_study_s": "s",
    "study_cli.condense_self_s": "s",
    "study_cli.errors_self_s": "s",
    "fem_core.map_affine_s": "s",
    "fem_core.map_affine_calls": "count",
    "uw.load_s": "s",
    "uw.load_calls": "count",
    "uw.gram_s": "s",
    "uw.gram_calls": "count",
    "uw.b_s": "s",
    "uw.dofmap_s": "s",
    "uw.n_free": "count",
    "solver.condense_local_s": "s",
    "solver.condense_rhs_s": "s",
    "solver.assemble_s": "s",
    "solver.solve_s": "s",
    "solver.solve_top_s": "s",
    "solver.nnz": "count",
    "solver.eta_s": "s",
    "solver.eta_calls": "count",
    "solver.rel_residual_max": "ratio",
    "solver.backward_error_max": "ratio",
    "mesh.refine_s": "s",
    "mesh.triangles": "count",
    "csv.errsigma_over_err_min": "ratio",
    "csv.errsigma_over_err_max": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
# per-layer metrics that are maxima over a workload's studies; the others add up
MAX_METRICS = ("solver.rel_residual_max", "solver.backward_error_max")

CSV_HEADER = "dofDPG,errU,errSigma,err"
# Relative tolerance on errU, errSigma and err.  The plate systems are
# singular (clamped) or ill-conditioned (mixed strip), so their field errors
# depend on the elimination order: solving a randomly permuted system moved
# errU by up to 5e-6 at the seed commit.
RTOL = 1e-4
SETUP_PROBES = 3        # import-only processes per run, after one warm-up import
PROBE_BUDGET_S = 60.0
RUN_DEADLINE_S = 150.0  # nothing runs past this, so a run ends within 180 s


@dataclass
class Proc:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    timed_out: bool
    limit_s: float
    result: dict | None
    csv: str | None
    stderr: str


@dataclass
class Pass:
    """One run of all of a workload's studies, traced or not."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    imports: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    csv_rows: dict = field(default_factory=dict)  # study -> parsed rows
    traces: dict = field(default_factory=dict)    # study -> child result


def check_csv(text: str, ref: dict, study: str) -> str | None:
    """None when the CSV matches the reference, else the reason it does not.

    Same comment and header lines, same number of rows, dofDPG equal and the
    three errors within RTOL.  On clamped plates dofDPG may also be one
    less: pinning the twisting-moment kernel removes one unknown.
    """
    lines = text.splitlines()
    if lines[:2] != [ref["comment"], CSV_HEADER]:
        return f"comment/header {lines[:2]!r} differ from the reference"
    try:
        rows = [(int(a), float(b), float(c), float(d))
                for a, b, c, d in (line.split(",") for line in lines[2:])]
    except ValueError as exc:
        return f"malformed CSV row: {exc}"
    if len(rows) != len(ref["rows"]):
        return f"{len(rows)} rows, reference has {len(ref['rows'])}"
    args = study.split()
    clamped_plate = args[args.index("--problem") + 1] == "plate" and "mixed" not in args
    for level, (row, want) in enumerate(zip(rows, ref["rows"])):
        allowed = (want[0], want[0] - 1) if clamped_plate else (want[0],)
        if row[0] not in allowed:
            return f"level {level}: dofDPG {row[0]}, reference {want[0]}"
        for name, got, expected in zip(("errU", "errSigma", "err"), row[1:], want[1:]):
            if not abs(got - expected) <= RTOL * abs(expected):
                return f"level {level}: {name} {got!r}, reference {expected!r}"
    return None


def parse_rows(text: str):
    return [[float(v) for v in line.split(",")] for line in text.splitlines()[2:]]


def child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS=threads,
                OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


def wait_or_kill(proc: subprocess.Popen, limit_s: float):
    """Wait for `proc`, killing it after `limit_s` seconds; returns
    (timed_out, resource usage).  The process is always reaped."""
    fd = os.pidfd_open(proc.pid)
    try:
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        timed_out = not poller.poll(max(limit_s, 0.0) * 1000.0)
        if timed_out:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return timed_out, usage


class Bench:
    """Spawns the child processes of one benchmark run into `work`."""

    def __init__(self, work: Path, deadline: float, reference: dict):
        self.work = work
        self.deadline = deadline
        self.reference = reference
        self.env = child_env()
        self.count = 0

    def spawn(self, study: str | None, trace: bool, budget_s: float) -> Proc:
        self.count += 1
        stem = self.work / str(self.count)
        result_path, csv_path = stem.with_suffix(".json"), stem.with_suffix(".csv")
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path), str(int(trace))]
        if study is not None:
            cmd += [*study.split(), "--out", str(csv_path)]
        limit = min(budget_s, self.deadline - time.perf_counter())
        with open(stem.with_suffix(".out"), "wb") as out, \
                open(stem.with_suffix(".err"), "wb+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timed_out, usage = wait_or_kill(proc, limit)
            wall = time.perf_counter() - start
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        csv = csv_path.read_text() if csv_path.exists() else None
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode, timed_out, limit, result, csv, stderr)

    def failure(self, study: str, p: Proc) -> str | None:
        if p.timed_out:
            return f"killed after its {p.limit_s:.1f} s budget"
        if p.rc != 0 or p.result is None or p.csv is None:
            last = p.stderr.strip().splitlines()[-1:] or ["no output"]
            return f"exit code {p.rc}: {last[0]}"
        return check_csv(p.csv, self.reference[study], study)

    def run_pass(self, studies, budget_s: float, trace: bool) -> Pass:
        result = Pass(attempted=len(studies))
        start = time.perf_counter()
        for study in studies:
            if time.perf_counter() >= self.deadline:
                result.failures.append((study, "not started: run deadline passed"))
                continue
            p = self.spawn(study, trace, budget_s)
            result.cpu_s += p.cpu_s
            result.rss_mb = max(result.rss_mb, p.rss_mb)
            reason = self.failure(study, p)
            if reason is not None:
                result.failures.append((study, reason))
                continue
            result.imports.append(p.result["import_s"])
            result.csv_rows[study] = parse_rows(p.csv)
            if trace:
                result.traces[study] = p.result
        result.wall_s = time.perf_counter() - start
        return result


def layer_metrics(reps) -> dict:
    """Per-layer metrics from (untraced pass, traced pass) repetitions:
    times are medians over the traced passes, counts come from the first."""
    per_pass = []
    for _, traced in reps:
        summed = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
        for record in traced.traces.values():
            for name, value in study_metrics(record).items():
                if name in MAX_METRICS:
                    summed[name] = max(summed[name], value)
                else:
                    summed[name] = summed.get(name, 0.0) + value
        per_pass.append(summed)
    out = {name: statistics.median(p[name] for p in per_pass)
           if PER_LAYER[name] != "count" else per_pass[0][name]
           for name in PER_LAYER}
    run_s = sum(p["study_cli.run_study_s"] for p in per_pass)
    out["trace.coverage"] = sum(p["trace.covered_s"] for p in per_pass) / run_s if run_s else 0.0
    out["trace.overhead_s"] = (statistics.median(t.wall_s for _, t in reps)
                               - statistics.median(u.wall_s for u, _ in reps))
    ratios = [rows[-1][2] / rows[-1][3] for rows in reps[0][0].csv_rows.values()]
    out["csv.errsigma_over_err_min"] = min(ratios, default=0.0)
    out["csv.errsigma_over_err_max"] = max(ratios, default=0.0)
    return out


def write_trace(workload: str, reps) -> Path:
    """Merged spans of the last traced pass, one record per study."""
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}.json"
    studies = [{"study": i, "argv": study, "spans": record["spans"],
                "sizes": record["sizes"], "certs": record["certs"],
                "missing": record["missing"]}
               for i, (study, record) in enumerate(reps[-1][1].traces.items())]
    path.write_text(json.dumps(studies))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dpglock" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'dpglock'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    studies, budget_s = WORKLOADS[args.workload]
    studies = list(studies)
    random.Random(args.seed).shuffle(studies)  # the seed orders the sweep only

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        bench = Bench(Path(work), start + RUN_DEADLINE_S, reference)
        warm = bench.spawn(None, False, PROBE_BUDGET_S)  # also fills the bytecode cache
        if warm.rc != 0 or warm.result is None:
            print(f"perfbench: cannot import dpglock:\n{warm.stderr}", file=sys.stderr)
            return 2
        probes = [bench.spawn(None, False, PROBE_BUDGET_S) for _ in range(SETUP_PROBES)]
        if any(p.result is None for p in probes):
            print("perfbench: an import-only process failed", file=sys.stderr)
            return 2
        imports = [p.result["import_s"] for p in probes]
        reps, durations = [], []
        while True:
            began = time.perf_counter()
            plain = bench.run_pass(studies, budget_s, trace=False)
            traced = bench.run_pass(studies, budget_s, trace=True) if args.trace else None
            reps.append((plain, traced))
            imports += plain.imports
            durations.append(time.perf_counter() - began)
            expected_end = time.perf_counter() + statistics.median(durations)
            if expected_end - start > args.seconds or expected_end > bench.deadline:
                break

    passes = [p for rep in reps for p in rep if p is not None]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for study, reason in failures:
        print(f"FAIL {study}: {reason}")
    versions = warm.result["versions"]
    print(f"env: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"blas_threads={bench.env['OPENBLAS_NUM_THREADS']} "
          f"python={sys.version.split()[0]} numpy={versions['numpy']} "
          f"scipy={versions['scipy']}")
    print(f"workload {args.workload}: {len(reps)} repetition(s) of {len(studies)} "
          f"stud{'y' if len(studies) == 1 else 'ies'}, {len(imports)} imports timed; "
          f"untraced walls {[p.wall_s for p, _ in reps]}")

    if args.trace:
        for study, rows in reps[0][0].csv_rows.items():
            print(f"errSigma/err at the top level {rows[-1][2] / rows[-1][3]!r}: {study}")
        ok = [rep for rep in reps if rep[1].traces]
        values = layer_metrics(ok) if ok else dict.fromkeys(PER_LAYER, 0.0)
        if ok:
            print(f"trace: {write_trace(args.workload, ok).relative_to(ROOT)}")
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p, _ in reps),
            "setup_s": statistics.median(imports),
            "cpu_s": statistics.median(p.cpu_s for p, _ in reps),
            "peak_rss_mb": max(p.rss_mb for p, _ in reps),
            "pass_ratio": (attempted - len(failures)) / attempted,
        }
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name:28s} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
