"""The error set: three exception classes, one per exit code, and `cli.main`
picks the code from the type of the failure or of a stage failure's cause.
"""

import ast
from pathlib import Path

import pytest

from msocc import cli
from msocc.checks import NumericalError
from msocc.pipeline import PipelineStageError
from msocc.tensorio import TensorIOError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "msocc"


def exception_classes(tree):
    """Classes of `tree` with a base whose name ends in Error or
    Exception."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = [getattr(b, "id", getattr(b, "attr", "")) for b in node.bases]
            if any(b.endswith(("Error", "Exception")) for b in bases):
                found.add(node.name)
    return found


def test_package_defines_three_exception_classes():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= exception_classes(ast.parse(path.read_text()))
    assert found == {"NumericalError", "TensorIOError", "PipelineStageError"}


@pytest.mark.parametrize("exc, code", [
    (NumericalError("x: 1 NaN, 0 inf"), 3),
    (TensorIOError("x: bad magic"), 4),
    (FileNotFoundError(2, "No such file"), 4),
    (ValueError("shape mismatch"), 2),
    (KeyError("cameras"), 2),
], ids=["numerical", "tensor_io", "os", "value", "key"])
@pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "stage"])
def test_exit_code_follows_the_cause(monkeypatch, capsys, exc, code, wrapped):
    raised = PipelineStageError("loss", "heads/x.msoc", exc) if wrapped else exc

    def fail(args):
        raise raised

    monkeypatch.setattr(cli, "cmd_tta_enumerate", fail)
    assert cli.main(["tta-enumerate"]) == code
    err = capsys.readouterr().err
    assert err == f"error: {raised}\n"
    if wrapped:
        assert err.startswith("error: stage 'loss' failed on heads/x.msoc: ")
