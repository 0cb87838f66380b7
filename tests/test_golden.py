"""Golden sha256 digests of every file that `msocc synth` writes and every
output of `msocc run`, for one small scene, so a change that moves a byte
fails tier-1 and names the files it moved.

A change that moves bytes on purpose rewrites the table in the same commit
(`PYTHONPATH=src python tests/test_golden.py`, which prints each path it
adds, drops or moves), lists the moved files and the largest change, and
never drops a file, with one exception: a file may be dropped only when the
change shows that its bytes survive in a recorded file, as each camera's
cost volume survives as a slice of its frame's camera stack. The bytes
depend on numpy and its BLAS (`RigidTransform.apply`'s matmul, the cost
volume's einsum), so the table records both, and a failure prints the
recorded and the current versions; a version mismatch is no reason to skip.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from msocc import pipeline
from msocc.cli import main

from test_parts import cpus, recorded_parts  # noqa: F401 (a fixture)

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
    assert_unmoved(synth_and_run(tmp_path))


def test_golden_digests_on_threads(tmp_path, cpus, monkeypatch):
    # parts of 64 voxels, so the warp and the ensemble split this scene
    seen = recorded_parts(monkeypatch)
    assert_unmoved(synth_and_run(tmp_path))
    assert any(a > 0 for a, _ in seen) == (cpus > 1)


def test_run_reads_exactly_its_inputs_headers_first(tmp_path, monkeypatch):
    # every input tensor but frame 0's lift-stride files, each header
    # checked once by its handle and all before the first write
    inp = tmp_path / "inputs"
    assert main(["synth", "--out", str(inp), *SCENE]) == 0
    events = []  # (kind, path) of each header check, read and write

    def recorded(kind, fn, at):  # `at`: the path's argument position
        def wrapper(*args):
            events.append((kind, Path(args[at])))
            return fn(*args)
        return wrapper

    for kind, name, at in (("header", "read_header", 1),
                           ("read", "read_tensor", 0),
                           ("write", "write_tensor", 0)):
        monkeypatch.setattr(pipeline, name,
                            recorded(kind, getattr(pipeline, name), at))
    assert main(["run", "--input", str(inp), "--output",
                 str(tmp_path / "outputs")]) == 0
    unread = {f"{kind}/frame00_stride{s}.msoc" for s in (8, 16, 32)
              for kind in ("features", "depth_logits")}
    want = sorted(p.relative_to(inp).as_posix() for p in inp.rglob("*.msoc")
                  if p.relative_to(inp).as_posix() not in unread)

    def inputs(kind):
        return sorted(p.relative_to(inp).as_posix() for k, p in events
                      if k == kind)

    assert inputs("header") == want
    assert sorted(set(inputs("read"))) == want
    first_write = next(i for i, (kind, _) in enumerate(events)
                       if kind == "write")
    assert all(kind != "header" for kind, _ in events[first_write:])


def assert_unmoved(got: dict) -> None:
    table = json.loads(TABLE.read_text())
    assert table["scene"] == SCENE
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
    old = json.loads(TABLE.read_text())["files"]
    for word, paths in (("added", files.keys() - old),
                        ("dropped", old.keys() - files),
                        ("moved", {p for p in files.keys() & old
                                   if files[p] != old[p]})):
        for p in sorted(paths):
            print(word, p)
    TABLE.write_text(json.dumps({**numeric_stack(), "scene": SCENE,
                                 "files": files}, indent=1) + "\n")
