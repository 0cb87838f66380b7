"""Every function the benchmark traces still exists, and a run calls it.

`perfbench/spans.py` names each traced function by module and attribute
("Class.method" for a method), and `Tracer.install` looks each one up, so a
renamed or deleted target fails every traced benchmark call. A span that a
run never enters, or an amount that cannot be read from a call's arguments,
fails `perfbench/run.py --trace 1` too. This checks both here, where tier-1
sees it, on the golden scene.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from msocc.cli import main
from msocc.pipeline import run_pipeline
from msocc.tensorio import read_tensor

from test_golden import SCENE

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_metrics() -> list:
    """run.py's SPAN_METRICS, read from its source: importing run.py would
    put perfbench/ on sys.path."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["SPAN_METRICS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("run.py assigns no SPAN_METRICS")


SPANS = load_spans()
TARGETS = {**SPANS.RUN_SPANS, **SPANS.SETUP_SPANS}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_span_target_resolves(name):
    module, attr, _ = TARGETS[name]
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """The spans of one golden-scene run under RUN_SPANS, and its output."""
    root = tmp_path_factory.mktemp("traced")
    assert main(["synth", "--out", str(root / "inputs"), *SCENE]) == 0
    tracer = SPANS.Tracer()
    tracer.install(SPANS.RUN_SPANS)
    try:  # an amount that does not resolve raises out of its traced call
        run_pipeline(str(root / "inputs"), str(root / "outputs"))
    finally:
        tracer.restore()
    return tracer.spans, root / "outputs"


def test_every_benchmark_span_is_entered(traced_run):
    spans, _ = traced_run
    wanted = {metric.rsplit(".", 1)[0] for metric in span_metrics()}
    assert wanted <= set(SPANS.RUN_SPANS)
    assert not wanted - {s.name for s in spans}


def test_write_amounts_sum_the_payloads_written(traced_run):
    spans, out = traced_run
    written = [s.amount for s in spans if s.name == "tensorio.write"]
    files = sorted(out.rglob("*.msoc"))
    assert len(written) == len(files)
    assert sum(written) == sum(read_tensor(p).nbytes for p in files)
