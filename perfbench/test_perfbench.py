"""Smoke tests of the benchmark harness at tiny sizes.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace,seed", [(0, 0), (1, 1)])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace, seed):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        if m["unit"] == "s" or "bound" in m:
            assert got["value"] > 0, m["name"]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--smoke",
                     cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode not in (0, 1)
    assert proc.stdout == ""


def test_tracer_uninstall_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import survcontrast.cli
    from survcontrast import data, model, trainer

    import tracing

    before = (data.corrupt, trainer.corrupt, survcontrast.cli.prepare, model.ACTIVATIONS["relu"],
              trainer.Adam.step, model.HazardModel.__dict__["load"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert trainer.corrupt is data.corrupt is not before[0]
        assert model.ACTIVATIONS["relu"] is not before[3]
    finally:
        tracer.uninstall()
    after = (data.corrupt, trainer.corrupt, survcontrast.cli.prepare, model.ACTIVATIONS["relu"],
             trainer.Adam.step, model.HazardModel.__dict__["load"])
    assert all(a is b for a, b in zip(before, after))


def test_failed_check_in_traced_run_still_prints_its_result(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    def fail(self, result):
        raise AssertionError("injected check failure")

    for var in run.BLAS_ENV:
        monkeypatch.setenv(var, str(run.BLAS_THREADS))
    monkeypatch.setattr(workloads.EvaluateOracle, "check", fail)
    code = run.main(["--workload", "evaluate-oracle", "--trace", "1", "--smoke"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert "injected check failure" in captured.err
