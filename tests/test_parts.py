"""The warp and the ensemble split into parts on threads: the bytes do not
depend on the parts, failures name what they named before, and no thread
outlives a call."""

import ast
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from msocc import geometry as geo
from msocc import parts, postprocess, temporal
from msocc.checks import NumericalError
from msocc.pipeline import PipelineConfig, PipelineStageError, load_prediction_sets

from test_postprocess import expression_ensemble, write_prediction_sets
from test_temporal import eight_corner_warp, random_motion

WEIGHTS = PipelineConfig().ensemble_weights


@pytest.fixture(params=[1, 2, 3], ids=["1cpu", "2cpus", "3cpus"])
def cpus(request, monkeypatch):
    """Up to this many parts of at least 64 voxels each, whatever this
    machine's CPUs."""
    monkeypatch.setattr(parts, "MIN_VOXELS", 64)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(request.param)))
    return request.param


def recorded_parts(monkeypatch):
    """The (start, stop) of every part `in_parts` runs from now on."""
    seen = []
    in_parts = parts.in_parts

    def recording(n, work, unit=1):
        def part(a, b):
            seen.append((a, b))
            work(a, b)
        in_parts(n, part, unit)

    for module in (temporal, postprocess):
        monkeypatch.setattr(module, "in_parts", recording)
    return seen


def test_parts_cover_the_range_in_order(cpus):
    # 200 indices of 2 voxels: parts of at least 32 indices, up to 6
    for n, unit in ((200, 2), (7, 64), (5, 13), (0, 1)):
        seen = []
        lock = threading.Lock()

        def work(a, b):
            with lock:
                seen.append((a, b))

        parts.in_parts(n, work, unit)
        seen.sort()
        assert [a for a, _ in seen] == [0] + [b for _, b in seen[:-1]]
        assert seen[-1][1] == n
        # 5 x 13 voxels make only one part of 64
        assert len(seen) == (1 if n * unit < 128 else cpus)
        assert all((b - a) * unit >= 64 for a, b in seen) or len(seen) == 1


def test_first_failure_in_part_order_raises(monkeypatch):
    monkeypatch.setattr(parts, "MIN_VOXELS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    done = []

    def work(a, b):
        if a == 0:
            done.append(a)
            return
        if a == 1:  # so that part 2 fails first
            time.sleep(0.05)
        raise ValueError(f"part {a}")

    with pytest.raises(ValueError, match="part 1"):
        parts.in_parts(3, work)
    assert done == [0]


def test_one_part_runs_inline_and_imports_no_pool():
    # a 40x40x8 grid of 16 channels and its ensemble, as at desk scale
    code = """if True:
        import sys, threading
        import numpy as np
        from msocc import geometry, postprocess, temporal
        g = geometry.VoxelGridSpec(40, 40, 8)
        a = np.ones((16, *g.shape), np.float32)
        temporal.warp_voxel_grid(a, geometry.RigidTransform.from_yaw(0.1), g)
        e = (a[0], a[:3])
        postprocess.ensemble([e], [e], (0.45, 0.55))
        print("concurrent.futures" in sys.modules, threading.active_count())
    """
    env = dict(os.environ, PYTHONPATH=str(Path(parts.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["False", "1"]


@pytest.mark.parametrize("mode", ["nearest", "trilinear"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
def test_warp_matches_eight_corner_loop(cpus, monkeypatch, mode, dtype):
    # 1000-voxel blocks, so every part holds several blocks and a partial
    # one; nx = 23 and 9,361 voxels split evenly into neither
    monkeypatch.setattr(temporal, "WARP_BLOCK", 1000)
    seen = recorded_parts(monkeypatch)
    rng = np.random.default_rng(40)
    g = geo.VoxelGridSpec(23, 37, 11, origin=rng.uniform(-3.0, 0.0, 3),
                          voxel_size=rng.uniform(0.2, 0.8, 3))
    for shape in ((3, *g.shape), g.shape):
        a = (rng.standard_normal(shape) * 50).astype(dtype)
        rel = random_motion(rng)
        got = temporal.warp_voxel_grid(a, rel, g, mode=mode)
        want = eight_corner_warp(a, rel, g, mode)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert len(seen) == 2 * cpus


def test_apply_runs_only_on_the_calling_thread(cpus, monkeypatch):
    callers = []
    apply = geo.RigidTransform.apply

    def recording(self, points):
        callers.append(threading.get_ident())
        return apply(self, points)

    monkeypatch.setattr(geo.RigidTransform, "apply", recording)
    g = geo.VoxelGridSpec(13, 7, 5)
    a = np.random.default_rng(41).standard_normal((2, *g.shape))
    temporal.warp_voxel_grid(a, geo.RigidTransform.from_yaw(0.1, (0.3, 0, 0)), g)
    assert callers and set(callers) == {threading.get_ident()}


def random_entries(rng, n, shape, dtype):
    tags = postprocess.enumerate_tta()
    return [postprocess.deaugment(tags[j % 8],
                                  rng.random(shape[1:]).astype(dtype),
                                  rng.random(shape).astype(dtype))
            for j in range(n)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ensemble_matches_expression(cpus, monkeypatch, dtype):
    seen = recorded_parts(monkeypatch)
    rng = np.random.default_rng(42)
    # x-slabs of 40 voxels, so parts of at least 2 of nx = 7, which splits
    # evenly into no part count above 1
    a, b = (random_entries(rng, n, (5, 7, 8, 5), dtype) for n in (5, 3))
    occ, label = postprocess.ensemble(a, b, WEIGHTS)
    want_occ, want_label = expression_ensemble(a, b, *WEIGHTS)
    assert occ.tobytes() == want_occ.tobytes()
    assert label.tobytes() == want_label.tobytes()
    assert len(seen) == 6 * cpus  # the occupancy, then 5 class rows


@pytest.mark.parametrize("dtypes", [(np.float32, np.float32),
                                    (np.float32, np.float64)],
                         ids=["f32", "f32_f64"])
def test_file_backed_ensemble_matches_expression(tmp_path, cpus, monkeypatch,
                                                 dtypes):
    # all 8 tags, K = 17 and odd nx, so a slab mirrored off by one shows
    seen = recorded_parts(monkeypatch)
    a, b = write_prediction_sets(tmp_path, (17, 7, 8, 5), dtypes, seed=43)
    occ, label = postprocess.ensemble(*load_prediction_sets(str(tmp_path)),
                                      WEIGHTS)
    want_occ, want_label = expression_ensemble(a, b, *WEIGHTS)
    assert occ.tobytes() == want_occ.tobytes()
    assert label.tobytes() == want_label.tobytes()
    assert len(seen) == 18 * cpus


def test_damaged_entry_fails_on_that_entry(tmp_path, cpus):
    write_prediction_sets(tmp_path, (17, 7, 8, 5), (np.float32,) * 2, seed=44)
    sets = load_prediction_sets(str(tmp_path))
    bad = tmp_path / "model_b_entry5_sem.msoc"
    bad.write_bytes(bad.read_bytes()[:-1])  # truncated after loading
    with pytest.raises(PipelineStageError) as e:
        postprocess.ensemble(*sets, WEIGHTS)
    assert (e.value.stage, e.value.path) == ("postprocess", str(bad))


@pytest.mark.parametrize("part", [0, 1], ids=["occ", "sem"])
def test_nonfinite_entry_raises_as_before(cpus, part):
    rng = np.random.default_rng(45)
    a = random_entries(rng, 3, (4, 7, 8, 5), np.float64)
    a[1][part][(1, 6, 2, 4)[-a[1][part].ndim:]] = np.nan
    with pytest.raises(NumericalError,
                       match=f"ensembled {('occupancy', 'semantics')[part]}: 1 NaN"):
        postprocess.ensemble(a, a[:1], WEIGHTS)


def test_no_thread_outlives_a_call(cpus):
    before = threading.active_count()
    rng = np.random.default_rng(46)
    g = geo.VoxelGridSpec(9, 8, 7)
    temporal.warp_voxel_grid(rng.standard_normal((2, *g.shape)),
                             random_motion(rng), g)
    assert threading.active_count() == before
    a = random_entries(rng, 2, (3, 9, 8, 7), np.float32)
    postprocess.ensemble(a, a, WEIGHTS)
    assert threading.active_count() == before


def test_more_parts_than_cpus_with_fast_switching(monkeypatch):
    # 8 parts on a machine of fewer CPUs, threads switched every microsecond:
    # a part that wrote outside its slice, or a lost update to a shared sum,
    # would change bytes
    monkeypatch.setattr(parts, "MIN_VOXELS", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(temporal, "WARP_BLOCK", 100)
    rng = np.random.default_rng(48)
    g = geo.VoxelGridSpec(17, 11, 9)
    a = rng.standard_normal((4, *g.shape)).astype(np.float32)
    rel = random_motion(rng)
    entries = random_entries(rng, 4, (3, 17, 11, 9), np.float32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert (temporal.warp_voxel_grid(a, rel, g).tobytes()
                    == eight_corner_warp(a, rel, g, "trilinear").tobytes())
            got = postprocess.ensemble(entries[:2], entries[2:], WEIGHTS)
            want = expression_ensemble(entries[:2], entries[2:], *WEIGHTS)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
    finally:
        sys.setswitchinterval(interval)


def test_split_ensemble_memory(tmp_path, monkeypatch):
    # 128 x-slabs of 1,024 voxels: two parts of 2 ** 16 voxels each
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    seen = recorded_parts(monkeypatch)
    shape = (17, 128, 64, 16)
    tags = postprocess.enumerate_tta()[:2]
    write_prediction_sets(tmp_path, shape, (np.float32,) * 2, seed=47,
                          tags=tags)
    sets = load_prediction_sets(str(tmp_path))
    row = np.prod(shape[1:]) * 8  # one occupancy-sized float64 row
    # the 4.25 rows of TestEnsembleBytes.test_memory; the float32 slabs the
    # two parts read at once, half a row; numpy's 64 KiB casting buffer, one
    # per part; and a fixed 128 KiB, as in
    # test_ensemble_holds_one_prediction_entry, for the entry files'
    # handles, the pool and its threads
    bound = 4.25 * row + 0.5 * row + 2 * 2 ** 16 + 2 ** 17
    tracemalloc.start()
    try:
        postprocess.ensemble(*sets, WEIGHTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seen) == 2 * (1 + shape[0])
    assert peak <= bound


def test_only_parts_imports_threads():
    # every thread msocc starts comes from parts.in_parts, which joins it
    package = Path(parts.__file__).parent
    found = {path.name for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             for name in (
                 [a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom)
                 else [])
             if name and name.split(".")[0] in ("concurrent", "threading")}
    assert found == {"parts.py"}
