"""The benchmark command's output, the bare-directory failure, and the tracer's restore.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _command(cwd, workload, trace, seconds=0.5):
    args = SPEC["command"] + ["--workload", workload, "--seed", "5", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_output_carries_every_metric_with_its_unit(workload, trace):
    proc = _command(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _command(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_counts_one_image_and_restores_every_name():
    prog = run.import_program()
    modules = [m for n, m in sys.modules.items() if n.startswith("rmanet.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    model = prog.model.Model.init(prog.model.ModelConfig(n_classes=run.N_CLASSES), seed=0)
    with Tracer() as tracer:
        model.predict(np.zeros((3, 32, 32), dtype=np.float32))
    seconds, calls = tracer.snapshot()
    # one image: 3 conv blocks, K+1 = 6 LSTM steps of 9 matmuls, 6 trunk + 6 transform + 5 score heads
    assert calls["tensor.conv2d.fwd"] == 3 and calls["tensor.maxpool2d.fwd"] == 3
    assert calls["attention.lstm_step.fwd"] == 6 and calls["tensor.matmul.fwd"] == 6 * 9 + 6 + 6 + 5
    assert calls["tensor.nodes"] > calls["tensor.matmul.fwd"] and seconds["backbone.encode.fwd"] > 0
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    assert importlib.import_module("rmanet.tensor").Tensor.backward.__qualname__ == "Tensor.backward"
