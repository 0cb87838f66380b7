"""Binary tensor file format.

Layout (all multi-byte fields little-endian):

    magic    4 bytes  b"MSOC"
    version  u16      currently 1
    dtype    u8       0 = f32, 1 = f64, 2 = u8, 3 = i32
    ndim     u8
    dims     ndim x u64
    payload  row-major, densely packed

A 2x3 u8 tensor file is therefore 4 + 2 + 1 + 1 + 16 + 6 = 30 bytes.

`write_tensor` writes through `atomic_open`: a temporary file beside the
target, renamed over it once complete, so a failed write leaves the target
as it was.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager, suppress

import numpy as np

MAGIC = b"MSOC"
VERSION = 1

_DTYPE_CODES = {
    np.dtype("<f4"): 0,
    np.dtype("<f8"): 1,
    np.dtype("u1"): 2,
    np.dtype("<i4"): 3,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class TensorIOError(Exception):
    """A tensor file that cannot be read or written (exit code 4 at the
    CLI); the message names the fault."""


@contextmanager
def atomic_open(path, mode: str = "wb"):
    """A file opened in `mode` under a temporary name beside `path`, which
    replaces `path` once the block ends without an error. On an error the
    temporary file is removed, so `path` keeps its old bytes, or stays
    absent."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def write_tensor(path, array: np.ndarray) -> None:
    """Write `array` as a tensor file, by `atomic_open`. A C-contiguous
    little-endian array's own buffer is written as the payload, with no
    bytes copy; any other array is first made into one."""
    a = np.asarray(array, order="C")
    dt = a.dtype.newbyteorder("<") if a.dtype.byteorder == ">" else a.dtype
    a = a.astype(dt, copy=False)
    if a.dtype not in _DTYPE_CODES:
        raise TensorIOError(f"unsupported dtype {a.dtype}")
    header = MAGIC + struct.pack("<HBB", VERSION, _DTYPE_CODES[a.dtype], a.ndim)
    header += struct.pack(f"<{a.ndim}Q", *a.shape)
    with atomic_open(path) as fh:
        fh.write(header)
        fh.write(a.data)


def read_header(fh, path):
    """(dtype, dims) of the tensor file open as `fh`, its header checked
    against the file size; `fh` is left at the payload, none of it read."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(8)
    if len(head) < 8:
        raise TensorIOError(f"{path}: file shorter than header")
    if head[:4] != MAGIC:
        raise TensorIOError(f"{path}: bad magic {head[:4]!r}")
    version, code, ndim = struct.unpack("<HBB", head[4:8])
    if version > VERSION:
        raise TensorIOError(
            f"{path}: file version {version} is newer than supported {VERSION}")
    if code not in _CODE_DTYPES:
        raise TensorIOError(f"{path}: unknown dtype code {code}")
    raw_dims = fh.read(8 * ndim)
    if len(raw_dims) < 8 * ndim:
        raise TensorIOError(f"{path}: truncated dims")
    dims = struct.unpack(f"<{ndim}Q", raw_dims)
    dtype = _CODE_DTYPES[code]
    # Python ints: a product of u64 dims would overflow int64
    expected = math.prod(dims) * dtype.itemsize
    payload = size - 8 - 8 * ndim
    if payload != expected:
        raise TensorIOError(
            f"{path}: payload {payload} bytes, expected {expected}")
    try:  # a zero-stride view allocates nothing
        np.broadcast_to(np.empty((), dtype), dims)
    except ValueError as e:  # too many dims, or a zero-sized giant
        raise TensorIOError(f"{path}: dims {dims}: {e}") from e
    return dtype, dims


def read_tensor(path, row: int | None = None,
                slab: tuple[int, int] | None = None) -> np.ndarray:
    """Read a tensor file, or one contiguous run of it: row `row` of its
    first axis, then [a:b] of the first axis left for `slab` (a, b). The
    header is checked either way, a row or slab outside the dims raises
    before a payload byte is read, and the payload is read straight into
    the result, so a part holds the bytes of that slice of a whole read."""
    with open(path, "rb") as fh:
        dtype, dims = read_header(fh, path)
        start = 0  # elements before the part
        if row is not None:
            if not (dims and 0 <= row < dims[0]):
                raise TensorIOError(f"{path}: row {row} outside dims {dims}")
            dims = dims[1:]
            start = row * math.prod(dims)
        if slab is not None:
            a, b = slab
            if not (dims and 0 <= a <= b <= dims[0]):
                raise TensorIOError(f"{path}: slab {a}:{b} outside dims {dims}")
            start += a * math.prod(dims[1:])
            dims = (b - a, *dims[1:])
        fh.seek(start * dtype.itemsize, os.SEEK_CUR)
        arr = np.empty(dims, dtype)
        if (got := fh.readinto(arr)) != arr.nbytes:
            raise TensorIOError(
                f"{path}: payload {got} bytes, expected {arr.nbytes}")
    return arr
