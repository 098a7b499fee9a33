"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs for about a second with ``--smoke`` (tiny sample counts;
the 3d oracle case left out), traced and untraced, and the printed result is
checked against ``BENCHMARK.json``: every metric name present exactly once,
with its unit, and the raw times and ungated per-unit latencies present in
the details.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = list(SPEC["command"]) + ["--workload", workload, "--seed", "1",
                                  "--seconds", "1", "--trace", str(trace), "--smoke"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    assert set(detail["env"]) >= {"python", "numpy", "nproc", "cpu_model", "threads_env"}
    if not trace:
        assert detail["wall_raw_s"]["unit"] == "s" and len(detail["setup_raw_s"]) == 5
        assert detail["latency_p50_ms"]["unit"] == "ms"
        assert detail["latency_tail_ms"]["unit"] == "ms"
        assert detail["latency_tail_ms"]["samples"] == result["attempted"]
        assert detail["fail_ratio"]["value"] == result["failed"] / result["attempted"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, rel), tmp_path / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_percentile_keeps_ten_beyond():
    from run import tail

    t = tail([float(k) for k in range(100)])
    assert t["value"] == 89.0 and t["beyond"] == 10 and t["percentile"] == 90.0
    few = tail([float(k) for k in range(48, -1, -1)])
    assert few["value"] == 48.0 and few["beyond"] == 0


def test_self_time_subtracts_children():
    from spans import Tracer

    tr = Tracer()
    tr._id("outer")
    tr._id("inner")
    # outer [0, 10] with children [1, 3] and [4, 8]
    for nid, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 3.0), (1, 0, 4.0, 8.0)):
        tr.name.append(nid)
        tr.parent.append(parent)
        tr.start.append(start)
        tr.end.append(end)
        tr.outermost.append(True)
    _, _, dur, self_time, _ = tr.span_table()
    assert list(dur) == [10.0, 2.0, 4.0]
    assert list(self_time) == [4.0, 2.0, 4.0]
