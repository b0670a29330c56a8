"""Checks of the benchmark itself.

Run from the root of the checkout with ``python -m pytest perfbench/selftest.py``.
The file name keeps these checks out of the repository's default ``pytest``
collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from measure import Speed, run_harness, run_points, tail  # noqa: E402
from tracing import trace_workload  # noqa: E402
from workloads import POINT_WORKLOADS  # noqa: E402

COUNTS = (
    "quadrature.evals_per_integral",
    "quadrature.subdivisions_per_integral",
    "quadrature.near_pole_integrals",
    "quadrature.near_pole_share",
    "quadrature.unconverged",
    "representation.segments_per_point",
)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170, check=False,
    )


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_tail_takes_the_highest_percentile_with_ten_beyond():
    assert tail([float(i) for i in range(1000)]) == ("p99", 989.0)
    assert tail([float(i) for i in range(10000)])[0] == "p99.9"
    assert tail([float(i) for i in range(99)]) == ("max", 98.0)


def test_point_check_catches_scaled_density():
    _, outcome = run_points(POINT_WORKLOADS["corpus-grid"], 3, 0.0, Speed(), density_scale=1 + 1e-6)
    assert outcome.fail_frac > 0.0


def test_harness_check_catches_perturbed_density():
    _, outcome, _ = run_harness(0.0, Speed(), cases=5, perturb_density=1e-6)
    assert outcome.attempted == outcome.failed == 1


def test_traced_counts_repeat_exactly():
    first, _, _ = trace_workload("near-cut", 7, 0.0)
    second, _, _ = trace_workload("near-cut", 7, 0.0)
    assert {k: first[k]["value"] for k in COUNTS} == {k: second[k]["value"] for k in COUNTS}
    assert first["quadrature.evals_per_integral"]["value"] > 0


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_last_line_reports_every_metric(trace, names):
    proc = _bench("--workload", "near-cut", "--seed", "2", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: m["unit"] for k, m in line["metrics"].items()} == names


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "corpus-grid", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
