"""Tests of the benchmark itself, on the quick (tiny) inputs.

    python3 -m pytest perfbench

They run ``run.py`` as the driver does, from the root of the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, last


def _result(last: str) -> dict:
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _record(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(ROOT, ".perfbench_out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_run_emits_every_metric_with_its_unit(workload):
    proc, last = _bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and metric["value"] > 0, name
    env = _record(workload, 2, 0)["env"]
    for key in ("nproc", "python", "numpy", "scipy", "seed", "params"):
        assert env[key] is not None, key


def test_quick_traced_run_emits_every_layer_metric():
    proc, last = _bench("--workload", "multifloor-cli", "--seed", "2", "--seconds", "1", "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(last)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    # the file workload exercises every layer
    for name, value in layers.items():
        if name not in ("association.relaxed.calls", "trace.overhead_s"):
            assert value > 0, name
    # the layer spans under the detect stage cover most of its wall time
    spans_path = os.path.join(ROOT, ".perfbench_out", "spans-multifloor-cli-seed2-trace1.jsonl")
    with open(spans_path, "r", encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert spans[0][:4] == ["simulate", 1, 0, "stage.simulate"]
    (root,) = [s for s in spans if s[0] == "detect" and s[3] == "stage.detect"]
    children = [s for s in spans if s[0] == "detect" and s[2] == root[1]]
    assert {s[3] for s in children} == {
        "logio.read_log", "entities.extract_entities", "loop_closure.process_frame", "logio.write_log",
    }
    covered = sum(s[6] - s[5] for s in children)
    assert 0.75 * (root[6] - root[5]) < covered < root[6] - root[5]
    assert 0 < layers["stage.detect.self_s"] < 0.25 * layers["stage.detect.s"]


def test_in_memory_replay_matches_run_detector_and_repeats():
    from textloop.cli import run_detector
    from textloop.config import load_config
    from textloop.simulator import simulate
    from workloads import DEMO_INI

    digests = []
    for _ in range(2):
        proc, last = _bench("--workload", "corridor-long", "--seed", "4", "--seconds", "1", "--trace", "0", "--quick")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        digests.append(_record("corridor-long", 4, 0)["passes"][0]["info"]["loops_digest"])
    assert digests[0] == digests[1]

    ini = os.path.join(ROOT, ".perfbench_out", "test-demo.ini")
    with open(ini, "w", encoding="utf-8") as handle:
        handle.write(DEMO_INI)
    config = load_config(ini, environ={})
    world, route = build_inputs("corridor-long", 4, quick=True)
    result = simulate(world, route, config.rig(), noise=config.noise_model(), seed=4)
    constraints = run_detector(result, config).constraints
    h = hashlib.sha256()
    for c in constraints:
        h.update(json.dumps(c.to_json(), separators=(",", ":")).encode("utf-8") + b"\n")
    assert h.hexdigest() == digests[0]


def test_fails_without_the_package():
    # a directory holding only BENCHMARK.json and the benchmark's own files
    bare = os.path.join(ROOT, ".perfbench_work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
        proc, _ = _bench("--workload", "signdense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "error:" in proc.stderr
