"""Smoke test of the benchmark itself: desk at minimum length.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

END_TO_END = {"run_s", "peak_rss_mb", "setup_s", "miou"}
PER_LAYER = {
    "temporal.warp.calls", "temporal.warp.s", "temporal.warp.peak_mb",
    "temporal.cost_volume.calls", "temporal.cost_volume.s",
    "temporal.cost_volume.peak_mb", "temporal.rescale.s", "temporal.stack.s",
    "tensorio.read.calls", "tensorio.read.s", "tensorio.read.mb",
    "tensorio.read.peak_mb", "tensorio.write.calls", "tensorio.write.s",
    "tensorio.write.mb", "postprocess.deaugment.s", "postprocess.ensemble.s",
    "postprocess.threshold.s", "postprocess.ensemble.peak_mb",
    "lift_splat.index.s", "lift_splat.lift.s", "lift_splat.softmax.s",
    "lift_splat.index.entries", "lift_splat.lift.peak_mb", "geometry.s",
    "gt_multiscale.pyramid.s", "losses.bce.s", "losses.focal.s",
    "losses.depth.s", "losses.weights.s", "metrics.accumulate.s",
    "pipeline.self_s", "fixtures.make_scene.s", "fixtures.raymarch.s",
    "pipeline.emit_inputs.s", "trace.coverage", "trace.overhead", "error_rate",
}


def run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind,required",
                         [(0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER)])
def test_desk_reports_every_metric(trace, kind, required):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    assert required <= set(declared)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:
        assert f"{name} = " in proc.stdout
    if trace == 0:
        assert "error_rate = 0.0 1" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
