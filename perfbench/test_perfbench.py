"""The benchmark's own tests: its smoke mode, its contract, its failure path.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def bench(*args: str, cwd: str = ROOT, script: str = RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: int, seed: int = 3, seconds: str = "2"):
    completed = bench("--workload", workload, "--seed", str(seed),
                      "--seconds", seconds, "--trace", str(trace), "--smoke")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    digest = next(line.split(":")[1].strip() for line in lines
                  if "determinism digest" in line)
    return json.loads(lines[-1]), digest


def expected_names(trace: int) -> set[str]:
    return set(spec.names("per_layer" if trace else "end_to_end"))


def test_benchmark_json_keeps_its_format():
    document = spec.benchmark()
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in document[key]]
    assert len(names) == len(set(names))
    assert set(spec.DEFINITIONS) == set(spec.units())
    assert set(spec.WORKLOAD_DETAILS) == set(spec.names("workloads"))
    assert all(0 < row["bound"] <= 0.25 for row in document["end_to_end"])
    setup = next(row for row in document["end_to_end"]
                 if row["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(row["bound"]
                                  for row in document["end_to_end"])}
    assert set(spec.describe()["layer_map"]) >= {
        "core.encoder", "sat.totalizer", "sat.preprocess", "sat.solver",
        "core.descent", "sat.drat", "core.annealing", "hardware",
        "store.cache", "encodings.serialization"}


@pytest.mark.parametrize("workload,trace", [
    ("proof-4", 0), ("proof-4", 1), ("ladder-6", 0), ("ladder-6", 1),
    ("service-mixed", 0),
])
def test_smoke_run_is_correct_and_complete(workload, trace):
    result, _ = smoke(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == expected_names(trace)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == spec.units()[name]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_same_seed_gives_identical_work():
    _, first = smoke("ladder-6", 0, seed=5)
    _, second = smoke("ladder-6", 0, seed=5)
    assert first == second


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench("--workload", "proof-4", "--seed", "1", "--seconds",
                      "1", "--trace", "0", cwd=str(tmp_path),
                      script=str(tmp_path / "perfbench" / "run.py"))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
