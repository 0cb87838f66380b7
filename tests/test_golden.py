"""Golden sha256 digests of every file that `msocc synth` writes and every
output of `msocc run`, for one small scene, so a change that moves a byte
fails tier-1 and names the files it moved.

A change that moves bytes on purpose rewrites the table in the same commit
(`PYTHONPATH=src python tests/test_golden.py`), lists the moved files and
the largest change, and never drops a file. The bytes depend on numpy and
its BLAS (`RigidTransform.apply`'s matmul, the cost volume's einsum), so
the table records both, and a failure prints the recorded and the current
versions; a version mismatch is no reason to skip.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from msocc.cli import main

TABLE = Path(__file__).with_name("golden_digests.json")
SCENE = ["--seed", "3", "--cameras", "2", "--boxes", "4", "--frames", "4"]


def numeric_stack() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def synth_and_run(tmp: Path) -> dict:
    """{"inputs/<path>" or "outputs/<path>": sha256} of the scene's trees."""
    inp, out = tmp / "inputs", tmp / "outputs"
    assert main(["synth", "--out", str(inp), *SCENE]) == 0
    assert main(["run", "--input", str(inp), "--output", str(out)]) == 0
    return {p.relative_to(tmp).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp.rglob("*")) if p.is_file()}


def test_golden_digests(tmp_path):
    table = json.loads(TABLE.read_text())
    assert table["scene"] == SCENE
    got = synth_and_run(tmp_path)
    moved = sorted(p for p in table["files"].keys() | got.keys()
                   if table["files"].get(p) != got.get(p))
    assert not moved, "\n".join(
        [f"{len(moved)} file(s) moved; their new digest lines:"]
        + [f'  "{p}": {json.dumps(got.get(p))},' for p in moved]
        + [f"recorded on {table['numpy']!r} numpy, {table['blas']!r} BLAS",
           f"this run on {np.__version__!r} numpy, "
           f"{numeric_stack()['blas']!r} BLAS"])


if __name__ == "__main__":  # rewrite the table from this tree
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = synth_and_run(Path(tmp))
    TABLE.write_text(json.dumps({**numeric_stack(), "scene": SCENE,
                                 "files": files}, indent=1) + "\n")
