"""Checks of the benchmark itself (not part of the repository's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/determinism_check.py

Each workload runs twice untraced and once traced with the same seed; the
exact counters (index and section bytes, rule, run and node counts, rank
calls per character) must be identical across all three.  The metric and
workload lists in BENCHMARK.json must match what run.py prints, and the
benchmark must refuse to run without the gfi sources beside it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, stamp_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert result["correct"] and result["failed"] == 0
    return json.loads(stamp_line), result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counters_repeat(workload):
    first, result0 = _run(workload, DEFAULT_SEED, 0)
    second, _ = _run(workload, DEFAULT_SEED, 0)
    traced, result1 = _run(workload, DEFAULT_SEED, 1)
    assert first["exact"] == second["exact"]
    assert first["exact"] == traced["exact"]
    for name, value in traced["exact"].items():
        if name in result1["metrics"]:
            assert result1["metrics"][name]["value"] == value
    assert result0["metrics"]["index_bytes"]["value"] == first["exact"]["index_bytes"]
    assert traced["stamp"]["seed"] == DEFAULT_SEED


def test_benchmark_json_matches_run_py():
    import measure

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER_UNITS
    assert DEFAULT_SEED != HELD_OUT_SEED


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = _bench("--workload", "art-long", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
