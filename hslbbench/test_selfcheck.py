"""Self-check of the benchmark on very short runs.

    python3 -m pytest hslbbench/test_selfcheck.py -q

Asserts that one command prints every metric ``BENCHMARK.json`` names,
each with its declared unit; that a deliberately corrupted answer is
caught (counted in ``failed`` and ``error_ratio``, no numbers reported);
that per-operation B&B node counts repeat across runs of one seed; and
that the benchmark fails cleanly where there is no program to run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, *extra: str, cwd: Path = ROOT, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, "hslbbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines: list) -> dict:
    return json.loads(lines[-1])


def summary_field(lines: list, name: str) -> str:
    return re.search(rf"{name}=(\S+)", "\n".join(lines[:-1])).group(1)


def assert_metrics(result: dict, declared: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]


@pytest.fixture(scope="module")
def clean_runs() -> dict:
    return {w: run(w) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(clean_runs, workload):
    proc, lines = clean_runs[workload]
    assert proc.returncode == 0, proc.stderr
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])
    assert float(summary_field(lines, "error_ratio")) == 0.0


def test_per_layer_metrics_printed_with_units():
    proc, lines = run("tune", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = result_of(lines)
    assert result["correct"]
    assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["minlp.nodes"]["value"] > 0
    assert result["metrics"]["fitting.lm_iterations"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_is_counted(clean_runs, workload):
    proc, lines = run(workload, "--corrupt")
    assert proc.returncode == 1
    result = result_of(lines)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"] == {}
    assert float(summary_field(lines, "error_ratio")) > 0.0
    # Same seed as the clean run: the node counts must repeat exactly.
    clean_digest = summary_field(clean_runs[workload][1], "nodes_digest")
    assert summary_field(lines, "nodes_digest") == clean_digest


def test_fails_without_the_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "hslbbench", bare / "hslbbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc, lines = run("tune", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
