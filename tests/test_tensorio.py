import ast
import math
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msocc import pipeline, tensorio


def test_f32_roundtrip(tmp_path):
    a = np.random.default_rng(0).standard_normal((3, 4, 5)).astype(np.float32)
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, a)
    b = tensorio.read_tensor(p)
    assert b.dtype == np.float32
    assert np.array_equal(a, b)
    tensorio.write_tensor(tmp_path / "t2.msoc", b)
    assert (tmp_path / "t.msoc").read_bytes() == (tmp_path / "t2.msoc").read_bytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8, np.int32])
def test_all_dtypes(tmp_path, dtype):
    a = (np.arange(24).reshape(2, 3, 4) % 5).astype(dtype)
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, a)
    assert np.array_equal(tensorio.read_tensor(p), a)


@pytest.mark.parametrize("dims", [(5,), (3, 7), (5, 3, 7)])
@pytest.mark.parametrize("dtype", ["<f4", "<f8", "u1", "<i4"])
def test_row_read_is_that_row_of_the_whole_read(tmp_path, dtype, dims):
    a = (np.random.default_rng(5).random(dims) * 250).astype(dtype)
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, a)
    whole = tensorio.read_tensor(p)
    for k in range(dims[0]):
        row = tensorio.read_tensor(p, row=k)
        assert row.dtype == a.dtype and row.shape == dims[1:]
        assert row.tobytes() == whole[k].tobytes()


@pytest.mark.parametrize("dtype", ["<f4", "<f8", "u1", "<i4"])
def test_0d_roundtrip_keeps_no_dims(tmp_path, dtype):
    a = np.array(7, dtype=dtype)
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, a)
    assert p.read_bytes() == file_bytes(a)
    b = tensorio.read_tensor(p)
    assert b.shape == () and b.dtype == a.dtype and b == a


@pytest.mark.parametrize("dims", [(7,), (5, 3), (6, 3, 2), (4, 3, 2, 2)])
@pytest.mark.parametrize("dtype", ["<f4", "<f8", "u1", "<i4"])
def test_slab_read_is_that_slice_of_the_whole_read(tmp_path, dtype, dims):
    a = (np.random.default_rng(6).random(dims) * 250).astype(dtype)
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, a)
    whole = tensorio.read_tensor(p)
    rows = [None, *range(dims[0])] if len(dims) > 1 else [None]
    for row in rows:
        part = whole if row is None else whole[row]
        for lo in range(len(part) + 1):
            for hi in range(lo, len(part) + 1):
                got = tensorio.read_tensor(p, row, (lo, hi))
                assert got.dtype == a.dtype and got.shape == part[lo:hi].shape
                assert got.tobytes() == part[lo:hi].tobytes()


@pytest.mark.parametrize("slab", [(-1, 2), (2, 1), (0, 5), (5, 5)])
def test_slab_outside_the_axis_raises(tmp_path, slab):
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, np.zeros((3, 4, 2), np.float32))
    with pytest.raises(tensorio.TensorIOError,
                       match=f"slab {slab[0]}:{slab[1]} outside dims"):
        tensorio.read_tensor(p, 1, slab)
    with pytest.raises(tensorio.TensorIOError, match="outside dims"):
        tensorio.read_tensor(p, slab=(0, 4))
    assert tensorio.read_tensor(p, slab=(1, 3)).shape == (2, 4, 2)


@pytest.mark.parametrize("dims, row", [((3, 4), -1), ((3, 4), 3), ((), 0),
                                       ((0, 4), 0)],
                         ids=["negative", "past_the_axis", "0d", "empty_axis"])
def test_row_outside_the_first_axis_raises(tmp_path, dims, row):
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, np.zeros(dims, np.float32))
    assert tensorio.read_tensor(p).shape == dims
    with pytest.raises(tensorio.TensorIOError, match=f"row {row} outside"):
        tensorio.read_tensor(p, row=row)


def test_row_read_checks_the_header(tmp_path):
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, np.zeros((4, 4), dtype=np.float32))
    p.write_bytes(p.read_bytes()[:-16])  # the last row cut off
    with pytest.raises(tensorio.TensorIOError,
                       match="payload 48 bytes, expected 64"):
        tensorio.read_tensor(p, row=0)


def test_only_tensorio_seeks_or_reads_into_buffers():
    # every payload read goes through read_tensor, so no other module needs
    # the payload's offsets
    package = Path(tensorio.__file__).parent
    found = {path.name for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr in ("seek", "readinto")}
    assert found == {"tensorio.py"}


def file_bytes(array):
    """The tensor file of `array`: header, then the little-endian C-order
    payload."""
    a = np.asarray(array, order="C").astype(array.dtype.newbyteorder("<"))
    code = {"f4": 0, "f8": 1, "u1": 2, "i4": 3}[a.dtype.str[1:]]
    return (b"MSOC" + struct.pack("<HBB", 1, code, a.ndim)
            + struct.pack(f"<{a.ndim}Q", *a.shape) + a.tobytes())


@pytest.mark.parametrize("a", [
    *((np.arange(60).reshape(3, 4, 5) * 7 % 11).astype(dt)
      for dt in ("<f4", "<f8", "u1", "<i4")),
    (np.arange(24).reshape(2, 3, 4) / 3).astype(">f4"),
    np.arange(24, dtype=">i4").reshape(4, 6),
    np.arange(120, dtype=np.float64).reshape(4, 5, 6)[::2, :, 1::2],
    np.flip(np.arange(24, dtype=np.float32).reshape(2, 12), axis=1),
    np.zeros((3, 0, 2), dtype=np.float32),
], ids=["f4", "f8", "u1", "i4", "big_f4", "big_i4", "strided", "flipped",
        "empty"])
def test_file_is_header_then_payload(tmp_path, a):
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, a)
    assert p.read_bytes() == file_bytes(a)
    assert np.array_equal(tensorio.read_tensor(p), a)


def test_write_copies_no_payload(tmp_path):
    a = np.random.default_rng(2).standard_normal(1 << 19)  # 4 MB
    tracemalloc.start()
    try:
        tensorio.write_tensor(tmp_path / "t.msoc", a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * a.nbytes


class _FailsMidPayload:
    """A file whose second write, the payload after a tensor's header or a
    chunk inside a JSON document, stores half its bytes and then raises."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes < 2:
            return self.fh.write(data)
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        self.fh.write(data[:len(data) // 2])
        raise OSError("No space left on device")


@pytest.mark.parametrize("old", [None, b"old bytes"], ids=["absent", "present"])
@pytest.mark.parametrize("write", [
    lambda path: tensorio.write_tensor(path, np.arange(1000.0)),
    lambda path: pipeline.write_json(path, {"rows": list(range(100))}),
], ids=["tensor", "json"])
def test_failed_write_leaves_the_target(tmp_path, monkeypatch, old, write):
    target = tmp_path / "target"
    if old is not None:
        target.write_bytes(old)
    monkeypatch.setattr(tensorio, "open", lambda path, mode: _FailsMidPayload(
        open(path, mode)), raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        write(target)
    # no temporary file is left, and the target keeps its bytes or absence
    assert sorted(os.listdir(tmp_path)) == ([] if old is None else ["target"])
    if old is not None:
        assert target.read_bytes() == old
    monkeypatch.undo()
    write(target)  # a write that completes replaces the target
    assert os.listdir(tmp_path) == ["target"]
    assert target.read_bytes() != old


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.msoc"
    p.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(tensorio.TensorIOError, match="bad magic"):
        tensorio.read_tensor(p)


def test_header_arithmetic(tmp_path):
    a = np.zeros((2, 3), dtype=np.uint8)
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, a)
    assert p.stat().st_size == 4 + 2 + 1 + 1 + 16 + 6  # 30 bytes


def test_truncated_payload(tmp_path):
    a = np.zeros((4, 4), dtype=np.float32)
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, a)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(tensorio.TensorIOError,
                       match="payload 56 bytes, expected 64"):
        tensorio.read_tensor(p)


def test_future_version_rejected(tmp_path):
    a = np.zeros(3, dtype=np.uint8)
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, a)
    raw = bytearray(p.read_bytes())
    for version in (tensorio.VERSION + 1, 99):  # the first newer one, too
        raw[4:6] = struct.pack("<H", version)
        p.write_bytes(bytes(raw))
        with pytest.raises(tensorio.TensorIOError,
                           match=f"version {version} is newer than supported 1"):
            tensorio.read_tensor(p)


def test_dtype_outside_the_format(tmp_path):
    p = tmp_path / "t.msoc"
    with pytest.raises(tensorio.TensorIOError, match="unsupported dtype int64"):
        tensorio.write_tensor(p, np.zeros(3, dtype=np.int64))
    tensorio.write_tensor(p, np.zeros(3, dtype=np.uint8))
    raw = bytearray(p.read_bytes())
    raw[6] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(tensorio.TensorIOError, match="unknown dtype code 9"):
        tensorio.read_tensor(p)


def test_little_endian_on_disk(tmp_path):
    a = np.array([1], dtype=np.int32)
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, a)
    assert p.read_bytes()[-4:] == b"\x01\x00\x00\x00"


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, np.zeros((4, 4), dtype=np.float32))
    p.write_bytes(p.read_bytes() + b"\x00" * 4)
    with pytest.raises(tensorio.TensorIOError,
                       match="payload 68 bytes, expected 64"):
        tensorio.read_tensor(p)


def test_truncated_dims(tmp_path):
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, np.zeros((2, 3, 4), dtype=np.uint8))
    p.write_bytes(p.read_bytes()[:8 + 12])  # cut inside the second dim
    with pytest.raises(tensorio.TensorIOError, match="truncated dims"):
        tensorio.read_tensor(p)


def test_file_shorter_than_header(tmp_path):
    p = tmp_path / "t.msoc"
    p.write_bytes(b"MSOC\x01")
    with pytest.raises(tensorio.TensorIOError, match="shorter than header"):
        tensorio.read_tensor(p)


def test_read_holds_one_payload(tmp_path):
    a = np.random.default_rng(1).standard_normal(1 << 19)  # 4 MB
    p = tmp_path / "t.msoc"
    tensorio.write_tensor(p, a)
    tracemalloc.start()
    try:
        b = tensorio.read_tensor(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(a, b)
    assert peak <= 1.2 * a.nbytes


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(version=st.integers(0, 2 ** 16 - 1), code=st.integers(0, 255),
       dims=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2 ** 64 - 1)),
                     max_size=70),
       ndim_offset=st.integers(-1, 1),
       payload=st.one_of(st.none(), st.integers(0, 64)))
# dims whose int64 product wraps to 0 bytes, or overflows with a warning
@example(version=1, code=0, dims=[2 ** 32, 2 ** 32], ndim_offset=0,
         payload=0)
@example(version=1, code=1, dims=[2 ** 63, 2], ndim_offset=0, payload=0)
@example(version=1, code=2, dims=[0, 2 ** 63], ndim_offset=0, payload=0)
@example(version=1, code=2, dims=[1] * 65, ndim_offset=0, payload=None)
def test_any_header_reads_or_raises_tensor_io_error(
        tmp_path_factory, version, code, dims, ndim_offset, payload):
    """Any header after a valid magic reads or raises a TensorIOError.
    `payload` None writes the payload the dims ask for, when it is small."""
    ndim = min(max(len(dims) + ndim_offset, 0), 255)
    if payload is None:
        itemsize = {0: 4, 1: 8, 2: 1, 3: 4}.get(code, 1)
        size = math.prod(dims) * itemsize
        payload = size if size <= 4096 else 0
    p = tmp_path_factory.getbasetemp() / "fuzzed.msoc"
    p.write_bytes(b"MSOC" + struct.pack("<HBB", version, code, ndim)
                  + struct.pack(f"<{len(dims)}Q", *dims) + b"\x07" * payload)
    try:
        a = tensorio.read_tensor(p)
    except tensorio.TensorIOError:
        return
    assert a.ndim == ndim and 8 + 8 * ndim + a.nbytes == p.stat().st_size
