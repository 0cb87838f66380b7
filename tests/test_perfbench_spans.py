"""Every function the benchmark traces still exists.

`perfbench/spans.py` names each traced function by module and attribute
("Class.method" for a method), and `Tracer.install` looks each one up, so a
renamed or deleted target fails every traced benchmark call. This checks the
tables here, where tier-1 sees it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
TARGETS = {**SPANS.RUN_SPANS, **SPANS.SETUP_SPANS}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_span_target_resolves(name):
    module, attr, _ = TARGETS[name]
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
