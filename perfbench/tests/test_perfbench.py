"""Tests of the benchmark itself, on tiny inputs.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
Each run uses two benchmarks at ``--scale 2`` and the two-pass minimum,
so the whole module takes well under a minute.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--benchmarks", "compress,go", "--scale", "2", "--seconds", "1"]


def bench(workload, *extra, trace=0, cwd=ROOT, script=None):
    command = [
        sys.executable,
        str(script or ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "7", "--trace", str(trace),
        *TINY, *extra,
    ]
    proc = subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=600
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = next(
        (line.split()[1] for line in lines if line.startswith("rows_digest ")),
        None,
    )
    return proc, result, digest


@pytest.fixture(scope="module")
def runs():
    """Untraced and traced tiny run of every workload, made once."""
    return {
        (workload, trace): bench(workload, trace=trace)
        for workload in WORKLOADS
        for trace in (0, 1)
    }


def assert_reports(proc, result, declared):
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    for name, unit in got.items():
        assert any(
            line.startswith(f"{name} = ") and line.endswith(f" {unit}")
            for line in proc.stdout.splitlines()
        ), name
    assert "failed_frac 0.0" in proc.stdout.splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(runs, workload):
    proc, result, _ = runs[workload, 0]
    assert_reports(proc, result, SPEC["end_to_end"])
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert "env REPRO_KERNEL=kernel" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_and_adds_up(runs, workload):
    proc, result, _ = runs[workload, 1]
    assert_reports(proc, result, SPEC["per_layer"])
    values = {n: m["value"] for n, m in result["metrics"].items()}
    self_total = sum(v for n, v in values.items() if n.endswith(".self_s"))
    assert math.isclose(self_total, values["trace.wall_s"], rel_tol=1e-9)
    assert values["store.get.calls"] > 0
    trace_file = ROOT / ".perfbench" / f"trace-{workload}-seed7.json"
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert events and {"name", "ts", "dur", "args"} <= set(events[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_rows_agree(runs, workload):
    untraced = runs[workload, 0][2]
    traced = runs[workload, 1][2]
    assert untraced is not None and untraced == traced


def test_layers_hit_by_each_workload(runs):
    def layers(workload):
        return {
            n: m["value"] for n, m in runs[workload, 1][1]["metrics"].items()
        }

    cold, warm, sweep = (layers(w) for w in WORKLOADS)
    for name in ("compiler", "emulator", "compression", "fetch.sweep",
                 "analysis.freq", "analysis.cachebound", "store.put"):
        assert cold[f"{name}.calls"] > 0, name
    for name in ("compiler", "emulator", "compression", "store.put"):
        assert warm[f"{name}.calls"] == 0, name
    assert warm["store.get.hit_ratio"] == 1.0
    for name in ("compiler", "emulator", "compression", "analysis.freq",
                 "analysis.cachebound"):
        assert sweep[f"{name}.calls"] == 0, name
    assert sweep["store.put.calls"] == sweep["fetch.configs"]
    assert sweep["store.entries"] == sweep["fetch.configs"]


def test_corrupted_oracle_expectation_counts_as_failure():
    proc, result, _ = bench("paper-cold", "--inject", "checksum")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "checksum mismatch" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc, result, _ = bench(
        "paper-cold", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py"
    )
    assert proc.returncode != 0
    assert result is None
