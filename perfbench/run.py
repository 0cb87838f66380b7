"""Benchmark of `msocc.pipeline.run_pipeline` on the workloads in workloads.py.

    python3 perfbench/run.py --workload {desk,paper,stereo} --seed N \\
        --seconds S --trace {0,1}

Inputs are generated from the seed into a scratch directory inside the
checkout (.perfbench_work/, deleted at exit; the benchmark touches no file
outside the checkout), so each invocation measures the fixtures of the code
it runs. Every pipeline call runs in a fresh
process (worker.py), one at a time, and is checked: mIoU must be exactly
1.0 (the inputs are oracles) and the output-tree sha256 must equal that of
the first call. A call that raises or fails a check counts as failed; none
is dropped.

--trace 0 generates the inputs, calls the pipeline until S/2 seconds have
passed, generates the inputs again, calls the pipeline for another S/2
seconds and generates the inputs a third time (each generation step runs
at least once and for at least 1.5 s), then reports end-to-end metrics;
setup_s is the median generation time. --trace 1 generates the inputs once under spans, spends S/2
seconds on untraced calls and the rest on traced calls, and reports
per-layer metrics (medians over traced calls); a traced call on paper or
stereo whose named spans cover less than 0.95 of its wall time fails.

Lines before the last list the machine, each call and every metric with
its unit; the last line is the JSON result. MB means 2**20 bytes.
A smoke test: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from spans import MB, SETUP_SPANS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

# The calls run in two halves, with set-up before, between and after them
# (each time at least once and for at least SETUP_SECONDS). On a shared
# machine speed drifts over tens of seconds; spreading both samples over the
# whole invocation makes their medians steadier.
SETUP_SECONDS = 1.5
DEADLINE_S = 170  # an invocation must end within 180 s
# desk is exempt: at its scale the Python between spans is a larger share
MIN_COVERAGE = {"paper": 0.95, "stereo": 0.95}

END_TO_END = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "miou": "1"}

# "<span>.<field>" metrics read from the traced calls' span summaries.
SPAN_METRICS = [
    "temporal.warp.calls", "temporal.warp.s", "temporal.warp.peak_mb",
    "temporal.warp.share",
    "temporal.cost_volume.calls", "temporal.cost_volume.s",
    "temporal.cost_volume.peak_mb", "temporal.cost_volume.share",
    "temporal.rescale.s", "temporal.stack.s",
    "tensorio.read.calls", "tensorio.read.s", "tensorio.read.mb",
    "tensorio.read.peak_mb", "tensorio.read.share",
    "tensorio.write.calls", "tensorio.write.s", "tensorio.write.mb",
    "tensorio.write.share",
    "postprocess.deaugment.s", "postprocess.ensemble.s",
    "postprocess.threshold.s", "postprocess.ensemble.peak_mb",
    "postprocess.ensemble.share",
    "lift_splat.index.s", "lift_splat.lift.s", "lift_splat.softmax.s",
    "lift_splat.index.entries", "lift_splat.lift.peak_mb",
    "lift_splat.lift.share",
    "gt_multiscale.pyramid.s",
    "losses.bce.s", "losses.focal.s", "losses.depth.s", "losses.weights.s",
    "metrics.accumulate.s",
]
# The same, from the traced set-up.
SETUP_METRICS = [
    "fixtures.make_scene.s", "fixtures.raymarch.s", "pipeline.emit_inputs.s",
    "setup.tensorio.write.s", "setup.tensorio.write.mb",
]
UNITS = {"calls": "count", "entries": "count", "s": "s", "self_s": "s",
         "peak_mb": "MB", "mb": "MB", "share": "1", "coverage": "1",
         "overhead": "1", "error_rate": "1"}


def span_value(summary: dict, metric: str, wall: float) -> float:
    span, field = metric.rsplit(".", 1)
    d = summary[span]
    if field == "mb":
        return d["amount"] / MB
    if field == "entries":
        return d["amount"]
    if field == "share":
        return d["s"] / wall
    return d[field]


def git_commit(root: str):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(root: str) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(root),
        "loadavg": os.getloadavg(),
    }


def call_pipeline(inp: str, out: str, trace: bool, deadline: float) -> dict:
    """One run_pipeline call in a fresh worker process, killed at `deadline`
    (a time.monotonic value); its output tree is deleted afterwards."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), inp, out]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            return {"error": f"worker exit {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}"}
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        return {"error": "worker killed at the invocation's deadline"}
    finally:
        shutil.rmtree(out, ignore_errors=True)


def calls_for(inp: str, out: str, seconds: float, trace: bool,
              deadline: float) -> list:
    """Pipeline calls, one after another, until `seconds` have passed; at
    least one."""
    calls = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        calls.append(call_pipeline(inp, out, trace, deadline) | {"traced": trace})
    return calls


def failure(call: dict, first_digest: str | None, min_coverage: float):
    """Why a call failed, or None if it passed."""
    if call.get("error"):
        return call["error"]
    if call["miou"] != 1.0:
        return f"mIoU {call['miou']!r} != 1.0"
    if call["digest"] != first_digest:
        return "output tree differs from the first call"
    if call["traced"] and call["top_level_s"] / call["wall_s"] < min_coverage:
        return f"trace coverage below {min_coverage}"
    return None


def generate(workload: str, seed: int, path: str, tracer=None) -> float:
    """Generate the workload's inputs into `path`; returns the wall time."""
    if tracer is not None:
        tracer.install(SETUP_SPANS)
    start = time.perf_counter()
    try:
        make_inputs(workload, seed, path)
    finally:
        if tracer is not None:
            tracer.restore()
    return time.perf_counter() - start


def set_up(workload: str, seed: int, path: str) -> list:
    """Generate the inputs into `path` at least once and for at least
    SETUP_SECONDS; the last generation stays."""
    times = []
    while sum(times) < SETUP_SECONDS:
        shutil.rmtree(path, ignore_errors=True)
        times.append(generate(workload, seed, path))
    return times


def end_to_end(done: list, setup_times: list) -> dict:
    return {
        "run_s": statistics.median(c["wall_s"] for c in done),
        "peak_rss_mb": statistics.median(c["maxrss_mb"] for c in done),
        "setup_s": statistics.median(setup_times),
        "miou": min(c["miou"] for c in done),
    }


def per_layer(done: list, setup_spans: list, error_rate: float) -> dict:
    traced = [c for c in done if c["traced"]]
    plain = [c for c in done if not c["traced"]]
    per_call = []
    for c in traced:
        wall = c["wall_s"]
        m = {name: span_value(c["spans"], name, wall) for name in SPAN_METRICS}
        m["geometry.s"] = c["geometry_s"]
        m["pipeline.self_s"] = wall - c["top_level_s"]
        m["trace.coverage"] = c["top_level_s"] / wall
        per_call.append(m)
    metrics = {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
    setup_summary = summarize(setup_spans)
    for name in SETUP_METRICS:
        metrics[name] = span_value(setup_summary, name, 1.0)
    metrics["trace.overhead"] = (statistics.median(c["wall_s"] for c in traced)
                                 / statistics.median(c["wall_s"] for c in plain)
                                 - 1.0)
    metrics["error_rate"] = error_rate
    return metrics


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or UNITS[name.rsplit(".", 1)[-1]]


def print_span_table(call: dict) -> None:
    wall = call["wall_s"]
    print(f"spans of one traced call ({wall:.4f} s wall):")
    print(f"  {'span':<30} {'calls':>6} {'busy_s':>9} {'self_s':>9} "
          f"{'share':>6} {'peak_MB':>8}")
    for name, d in sorted(call["spans"].items(), key=lambda kv: -kv[1]["s"]):
        print(f"  {name:<30} {d['calls']:>6} {d['s']:>9.4f} {d['self_s']:>9.4f} "
              f"{d['s'] / wall:>6.3f} {d['peak_mb']:>8.1f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S

    print("machine: " + json.dumps(machine_info(ROOT)))
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    trace = bool(args.trace)
    tracer = Tracer()
    inp, out = os.path.join(work, "inputs"), os.path.join(work, "out")
    try:
        if trace:
            generate(args.workload, args.seed, inp, tracer)
            calls = (calls_for(inp, out, args.seconds / 2, False, deadline)
                     + calls_for(inp, out, args.seconds / 2, True, deadline))
        else:
            setup_times = set_up(args.workload, args.seed, inp)
            calls = []
            for _ in range(2):
                calls += calls_for(inp, out, args.seconds / 2, False, deadline)
                setup_times += set_up(args.workload, args.seed,
                                      os.path.join(work, "again"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another invocation still uses it

    first = next((c["digest"] for c in calls if "digest" in c), None)
    min_coverage = MIN_COVERAGE.get(args.workload, 0.0)
    failed = 0
    for i, c in enumerate(calls):
        why = failure(c, first, min_coverage)
        failed += why is not None
        print(f"call {i}: traced={int(c['traced'])} wall_s={c.get('wall_s', 0):.4f} "
              f"maxrss_mb={c.get('maxrss_mb', 0):.1f} miou={c.get('miou')} "
              f"digest={str(c.get('digest'))[:16]} "
              f"{'FAILED: ' + why if why else 'ok'}")
    done = [c for c in calls if not c.get("error")]
    if {c["traced"] for c in done} != {False, trace}:
        print("no pipeline call of each kind completed; nothing to report",
              file=sys.stderr)
        return 1

    error_rate = failed / len(calls)
    if trace:
        print_span_table(next(c for c in done if c["traced"]))
        metrics = per_layer(done, tracer.spans, error_rate)
    else:
        metrics = end_to_end(done, setup_times)
        print(f"setup_s samples: {[round(t, 4) for t in setup_times]}")
        print(f"error_rate = {error_rate} 1")
    for name, value in metrics.items():
        print(f"{name} = {value} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
