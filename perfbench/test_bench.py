"""The benchmark's own test.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py

One traced sample per workload must pass its output checks and record
calls to every wrapped name the layer-to-metric map says the workload
exercises; a wrapper installed under the wrong name records zero calls.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(layers.DOMINATED))
def test_traced_sample_reaches_dominated_layers(workload):
    sample = run.Runner(workload, seed=1).sample(workload, trace=True)
    assert sample["failures"] == {} and sample["sample_error"] is None
    metrics, problems = run.layer_metrics(workload, [sample])
    assert problems == []
    assert set(metrics) == {spec["name"] for spec in layers.metric_specs()}


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert spec["per_layer"] == layers.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(layers.DOMINATED)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
