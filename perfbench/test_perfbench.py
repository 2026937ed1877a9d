"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run studies through the same child processes as the benchmark and
write only to temporary directories at the root of the checkout.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from run import (END_TO_END, HERE, PER_LAYER, ROOT, SWEEP, WORKLOADS, Bench, check_csv,
                 layer_metrics)

REFERENCE = json.loads((HERE / "reference.json").read_text())
CLAMPED_PLATE = "--problem plate --r1 1 --r2 1 --norm scaled --levels 4"
POISSON = "--problem poisson --r1 1 --r2 1 --norm standard --levels 5"
PLATE_STRIP = "--problem plate --r1 10 --r2 1 --bc mixed --norm scaled --levels 3"
# per-layer metrics that must repeat exactly between traced runs
EXACT_COUNTS = ("mesh.triangles", "uw.n_free", "solver.nnz", "uw.gram_calls",
                "solver.eta_calls", "fem_core.map_affine_calls")


@pytest.fixture
def work():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as path:
        yield Path(path)


def csv_text(study, dof_shift=0, factor=1.0, drop_last=False):
    ref = REFERENCE[study]
    rows = ref["rows"][:-1] if drop_last else ref["rows"]
    lines = [ref["comment"], "dofDPG,errU,errSigma,err"]
    lines += [",".join([str(r[0] + dof_shift)] + [repr(v * factor) for v in r[1:]])
              for r in rows]
    return "\n".join(lines) + "\n"


def test_gate_passes_the_planned_changes():
    for study in (CLAMPED_PLATE, POISSON):
        assert check_csv(csv_text(study), REFERENCE[study], study) is None
        # ordering-dependent round-off on the plate systems (up to 5e-6 measured)
        assert check_csv(csv_text(study, factor=1 + 1e-5), REFERENCE[study], study) is None
    # pinning the twisting-moment kernel drops one unknown on clamped plates
    assert check_csv(csv_text(CLAMPED_PLATE, dof_shift=-1),
                     REFERENCE[CLAMPED_PLATE], CLAMPED_PLATE) is None


@pytest.mark.parametrize("study, kwargs", [
    (CLAMPED_PLATE, dict(factor=1 + 1e-3)),
    (CLAMPED_PLATE, dict(factor=math.nan)),
    (CLAMPED_PLATE, dict(dof_shift=-2)),
    (PLATE_STRIP, dict(dof_shift=-1)),
    (POISSON, dict(dof_shift=-1)),
    (POISSON, dict(drop_last=True)),
])
def test_gate_rejects_changed_rows(study, kwargs):
    assert check_csv(csv_text(study, **kwargs), REFERENCE[study], study) is not None


def test_gate_rejects_changed_header():
    text = csv_text(POISSON).replace("dofDPG,errU", "dofs,errU")
    assert check_csv(text, REFERENCE[POISSON], POISSON) is not None


def test_every_study_has_a_reference():
    assert {s for studies, _ in WORKLOADS.values() for s in studies} == set(REFERENCE)
    assert len(SWEEP) == 9


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_traced_counts_repeat_and_cover_the_study(work):
    bench = Bench(work, time.perf_counter() + 150.0, REFERENCE)
    studies = [POISSON, PLATE_STRIP]
    reps = [(bench.run_pass(studies, 30.0, trace=False),
             bench.run_pass(studies, 30.0, trace=True)) for _ in range(2)]
    for plain, traced in reps:
        assert not plain.failures and not traced.failures
        assert all(not r["missing"] for r in traced.traces.values())
    first, second = (layer_metrics([rep]) for rep in reps)
    for name in EXACT_COUNTS:
        assert first[name] == second[name] > 0, name
    for metrics in (first, second):
        assert 0.97 <= metrics["trace.coverage"] <= 1.0
        assert metrics["solver.backward_error_max"] < 1e-14
        assert metrics["solver.eta_calls"] > 0


def test_a_study_over_budget_is_killed(work):
    bench = Bench(work, time.perf_counter() + 150.0, REFERENCE)
    study = WORKLOADS["poisson-R100"][0][0]
    start = time.perf_counter()
    proc = bench.spawn(study, trace=False, budget_s=1.0)
    assert time.perf_counter() - start < 10.0
    assert proc.timed_out and proc.rc < 0
    assert "killed" in bench.failure(study, proc)


def test_without_the_program_it_exits_nonzero_and_prints_nothing(work):
    shutil.copy(ROOT / "BENCHMARK.json", work)
    shutil.copytree(HERE, work / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = subprocess.run([*spec["command"], "--workload", "sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=work, capture_output=True, text=True, timeout=180)
    assert run.returncode != 0
    assert run.stdout == ""


def test_one_run_prints_every_end_to_end_metric():
    run = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "sweep",
                          "--seed", "7", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 9
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
