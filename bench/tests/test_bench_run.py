"""The runner's guards: a hung or over-budget pass ends and counts as
failed, and the benchmark refuses to run without the program's sources.
BENCHMARK.json agrees with the metric and workload tables."""

import json
import os
import shutil
import subprocess
import sys

import metrics
import run
import workloads
from conftest import BENCH

REPO = os.path.dirname(BENCH)


def _client(tmp_path, monkeypatch, timeout):
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SRC", os.path.join(REPO, "src"))
    monkeypatch.setattr(run, "PASS_TIMEOUT_S", timeout)
    return run.Client(1, str(tmp_path))


def _tasks(tmp_path, tasks):
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps(tasks))
    return str(path)


def test_hung_pass_is_killed_and_counted_failed(tmp_path, monkeypatch):
    client = _client(tmp_path, monkeypatch, timeout=5)
    matrix = tmp_path / "infinite.json"
    matrix.write_text("[[0, 2], [-3, 0]]")  # infinite type: exploration never closes
    tasks = [
        {"name": "mutate infinite", "argv": ["mutate", "--matrix-file", str(matrix)],
         "check": {"kind": "mutate", "type": "A3"}},
        {"name": "verify", "argv": ["verify"], "check": {"kind": "verify"}},
    ]
    result = client.run_pass(_tasks(tmp_path, tasks), tasks, traced=False)
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert any("ended early" in problem for problem in result["problems"])
    assert result["outer_s"] < 15


def test_budget_exit_ends_the_pass(tmp_path, monkeypatch):
    client = _client(tmp_path, monkeypatch, timeout=60)
    tasks = [
        {"name": "mutate A3", "argv": ["mutate", "--type", "A3", "--budget-seeds", "3"],
         "check": {"kind": "mutate", "type": "A3"}},
        {"name": "mutate A3 again", "argv": ["mutate", "--type", "A3"],
         "check": {"kind": "mutate", "type": "A3"}},
    ]
    result = client.run_pass(_tasks(tmp_path, tasks), tasks, traced=False)
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert result["problems"] == ["mutate A3: exit code 3"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exchange", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_tables():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"], m["bound"]) for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert all(m["better"] == "lower" for m in doc["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, metrics.better(name)) for name, unit, _, _ in metrics.PER_LAYER
    ]
