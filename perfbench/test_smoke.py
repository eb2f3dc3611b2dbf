"""Smoke test of the benchmark itself; run with ``python -m pytest perfbench``.

Every workload runs at minimum length (one pass, or one Spark run) in
both modes, and must print every metric of ``BENCHMARK.json`` with its
unit. A raising executor must count as a failed unit.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import common, simwork, sparkwork  # noqa: E402
from perfbench.tracer import layer_metric_specs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(args, cwd=ROOT):
    env = {**os.environ, "SPARK_DRIVER_MEM": "2g"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def test_manifest_matches_code():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(common.END_TO_END)
    per_layer = layer_metric_specs() + list(common.SPARK_LAYER) + list(common.RUN_LAYER)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == per_layer


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    p = _run(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, p.stdout
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
    else:
        assert result["metrics"]["failed_frac"]["value"] == 0.0
        assert "prediction 1:" in p.stdout


def test_raising_executor_counts_as_failed(monkeypatch):
    from repro.execmodel.sim_exec import SimulatedClusterExecutor

    def boom(self, conf, ds, queries=None):
        raise RuntimeError("injected executor fault")

    monkeypatch.setattr(SimulatedClusterExecutor, "run", boom)
    outcome = common.Outcome()
    simwork.timed_loop("dac-qtune-sim", 0, 1, outcome)
    assert outcome.attempted == 1 and outcome.failed == 1
    assert outcome.failed_frac == 1.0


def test_raising_spark_executor_counts_as_failed():
    class Raising:
        def run(self, conf, sf):
            raise RuntimeError("injected executor fault")

    class NoCounters:
        def full_gc(self):
            pass

        def read(self):
            return (0, 0, 0)

    outcome = common.Outcome()
    sparkwork.replay(Raising(), [{}], NoCounters(), outcome, 2, common.SpeedProbe())
    assert (outcome.attempted, outcome.failed) == (2, 2)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(["--workload", "locat-sim", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
