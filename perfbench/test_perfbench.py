"""Tests of the benchmark itself, on smoke-sized inputs.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def result(lines):
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    rc, lines = bench("--workload", workload, "--trace", str(trace),
                      "--smoke")
    assert rc == 0, lines
    out = result(lines)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    assert all(isinstance(m["value"], (int, float))
               for m in out["metrics"].values())
    report = json.loads(lines[-2])["report"]
    assert report["failed_frac"] == 0
    assert report["wall_s"]["n"] == len(report["wall_s"]["samples"]) >= 1
    assert {"git_revision", "python", "nproc", "numpy", "workers", "seed",
            "loadavg_start", "cpu_probe_ms"} <= set(report["provenance"])
    assert ("moduli_per_s" in report) == workload.startswith("pairs-")
    if trace:
        assert out["metrics"]["trace.overhead_frac"]["value"] > -1
        assert report["untraced_patch_points"] == []
    else:
        assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_caught(workload):
    rc, lines = bench("--workload", workload, "--smoke", "--corrupt")
    assert rc == 1
    out = result(lines)
    assert not out["correct"] and out["failed"] == out["attempted"]
    assert json.loads(lines[-2])["report"]["failed_frac"] == 1


def test_fails_without_the_package_source():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = bench("--workload", WORKLOADS[0], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert rc != 0
    assert lines == []
