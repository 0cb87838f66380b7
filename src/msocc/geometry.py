"""Camera models, rigid transforms, frustum lattices and voxel-grid coordinates.

Conventions used throughout the package:

* Camera frame: x right, y down, z forward (pinhole, no distortion).
* Pixel centers sit at integer + 0.5; a frustum sample for feature pixel
  (u, v) is unprojected at (u + 0.5, v + 0.5) in stride coordinates.
* Voxel binning is half-open [lo, hi) per axis; a point exactly on the max
  boundary is outside.
* Flat voxel indices are C row-major over (ix, iy, iz), i.e.
  flat = (ix * ny + iy) * nz + iz, matching numpy arrays of shape
  (nx, ny, nz).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "Intrinsics",
    "RigidTransform",
    "CameraRig",
    "FrustumSpec",
    "VoxelGridSpec",
    "unproject",
    "project",
    "compose",
    "invert",
    "relative_ego_motion",
    "pixel_centers",
    "frustum_points",
    "voxel_indices",
]

# Points per matmul in RigidTransform.apply. OpenBLAS 0.3.31 runs a
# (rows, 3) x (3, 3) product on one thread up to about 60,000 rows.
_APPLY_BLOCK_ROWS = 16384


def _require_finite(**values) -> None:
    """Raise ValueError naming the first value holding a NaN or an inf."""
    for name, v in values.items():
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got {v}")


def _require_ints(**values) -> None:
    """Raise ValueError naming the first value that is not an int (a bool
    or a float such as JSON's 40.0 is not)."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an int, got {v!r}")


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        _require_finite(fx=self.fx, fy=self.fy, cx=self.cx, cy=self.cy)
        _require_ints(width=self.width, height=self.height)
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")

    def scaled(self, stride: int) -> "Intrinsics":
        """Intrinsics for a feature map downsampled by `stride`."""
        if stride < 1:
            raise ValueError(f"stride must be at least 1, got {stride}")
        return Intrinsics(
            fx=self.fx / stride,
            fy=self.fy / stride,
            cx=self.cx / stride,
            cy=self.cy / stride,
            width=self.width // stride,
            height=self.height // stride,
        )

    @classmethod
    def from_dict(cls, d: dict) -> "Intrinsics":
        return cls(fx=d["fx"], fy=d["fy"], cx=d["cx"], cy=d["cy"],
                   width=d["width"], height=d["height"])


@dataclass(frozen=True)
class RigidTransform:
    """rotation is 3x3 orthonormal with det +1; translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        _require_finite(translation=t)
        if not np.allclose(r.T @ r, np.eye(3), atol=1e-8):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-8:
            raise ValueError("rotation determinant is not +1")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_translation(cls, t) -> "RigidTransform":
        return cls(np.eye(3), np.asarray(t, dtype=np.float64))

    @classmethod
    def from_yaw(cls, yaw: float, t=(0.0, 0.0, 0.0)) -> "RigidTransform":
        c, s = math.cos(yaw), math.sin(yaw)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(r, np.asarray(t, dtype=np.float64))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to points of shape (..., 3); returns a C-ordered array
        whose bytes `test_apply_matches_matmul_bytes` pins to `p @ R.T + t`.

        The product runs in blocks of _APPLY_BLOCK_ROWS points, each small
        enough that OpenBLAS keeps it on one thread: a 2-thread small-K
        product leaves its worker thread spinning, and when the process
        gets only one CPU a lattice-sized call then stalls (0.26 s instead
        of 0.013 s for 664,576 points, measured on a shared 2-CPU VM).
        """
        p = np.asarray(points, dtype=np.float64)
        if p.shape[-1:] != (3,):
            raise ValueError(f"points must have shape (..., 3), got {p.shape}")
        q = p.reshape(-1, 3)
        out = np.empty_like(q)
        rt = self.rotation.T
        for i in range(0, len(q), _APPLY_BLOCK_ROWS):
            block = slice(i, i + _APPLY_BLOCK_ROWS)
            np.matmul(q[block], rt, out=out[block])
        out += self.translation
        return out.reshape(p.shape)

    def to_dict(self) -> dict:
        return {
            "rotation": [float(x) for x in self.rotation.reshape(9)],
            "translation": [float(x) for x in self.translation],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RigidTransform":
        return cls(np.asarray(d["rotation"], dtype=np.float64).reshape(3, 3),
                   np.asarray(d["translation"], dtype=np.float64))


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """(a o b)(x) = a(b(x))."""
    return RigidTransform(a.rotation @ b.rotation,
                          a.rotation @ b.translation + a.translation)


def invert(t: RigidTransform) -> RigidTransform:
    rt = t.rotation.T
    return RigidTransform(rt, -rt @ t.translation)


def relative_ego_motion(pose_prev: RigidTransform,
                        pose_cur: RigidTransform) -> RigidTransform:
    """Transform taking previous-ego coordinates to current-ego coordinates.

    Both poses map ego to the global frame; the result is
    invert(pose_cur) o pose_prev.
    """
    return compose(invert(pose_cur), pose_prev)


@dataclass(frozen=True)
class CameraRig:
    """Per-camera intrinsics plus camera-to-ego rigid transforms."""

    cameras: tuple  # of (Intrinsics, RigidTransform)

    def __post_init__(self):
        cams = tuple(self.cameras)
        if len(cams) < 1:
            raise ValueError("rig needs at least one camera")
        if len({(k.width, k.height) for k, _ in cams}) > 1:
            raise ValueError("rig cameras differ in image size")
        object.__setattr__(self, "cameras", cams)

    def __len__(self) -> int:
        return len(self.cameras)

    def to_json(self) -> str:
        return json.dumps({
            "cameras": [
                {"intrinsics": asdict(k), "cam_to_ego": t.to_dict()}
                for k, t in self.cameras
            ]
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CameraRig":
        d = json.loads(text)
        return cls(tuple(
            (Intrinsics.from_dict(c["intrinsics"]),
             RigidTransform.from_dict(c["cam_to_ego"]))
            for c in d["cameras"]
        ))


@dataclass(frozen=True)
class FrustumSpec:
    """Depth bins; the pixel lattice is the stride-scaled Intrinsics'."""
    depth_min: float
    depth_max: float
    depth_step: float = 1.0

    def __post_init__(self):
        _require_finite(depth_min=self.depth_min, depth_max=self.depth_max,
                        depth_step=self.depth_step)
        if self.depth_min <= 0:
            raise ValueError("depth_min must be positive")
        if self.depth_step <= 0:
            raise ValueError("depth_step must be positive")
        if self.num_bins < 1:
            raise ValueError("frustum needs at least one depth bin")

    @property
    def num_bins(self) -> int:
        return int(math.ceil((self.depth_max - self.depth_min) / self.depth_step))

    def bin_centers(self) -> np.ndarray:
        d = self.num_bins
        return self.depth_min + (np.arange(d) + 0.5) * self.depth_step

    def bin_of(self, depth: np.ndarray) -> np.ndarray:
        """Bin index containing each depth; caller checks range."""
        return np.floor((np.asarray(depth) - self.depth_min) / self.depth_step).astype(np.int64)

    def in_range(self, depth: np.ndarray) -> np.ndarray:
        """Mask of the finite depths in [depth_min, depth_max), the ones with a bin."""
        return np.isfinite(depth) & (depth >= self.depth_min) & (depth < self.depth_max)


@dataclass(frozen=True)
class VoxelGridSpec:
    nx: int
    ny: int
    nz: int
    origin: np.ndarray = field(default_factory=lambda: np.array([-40.0, -40.0, -1.0]))
    voxel_size: np.ndarray = field(default_factory=lambda: np.array([0.4, 0.4, 0.4]))

    def __post_init__(self):
        _require_ints(nx=self.nx, ny=self.ny, nz=self.nz)
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("grid dims must be >= 1")
        o = np.asarray(self.origin, dtype=np.float64).reshape(3)
        v = np.asarray(self.voxel_size, dtype=np.float64).reshape(3)
        _require_finite(origin=o, voxel_size=v)
        if np.any(v <= 0):
            raise ValueError("voxel_size must be positive")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "voxel_size", v)

    @property
    def shape(self) -> tuple:
        return (self.nx, self.ny, self.nz)

    @property
    def num_voxels(self) -> int:
        return self.nx * self.ny * self.nz

    def cell_centers(self) -> np.ndarray:
        """(nx, ny, nz, 3) ego-frame centers, each axis's coordinates
        broadcast into the one output array."""
        out = np.empty((*self.shape, 3))
        for a, n in enumerate(self.shape):
            axis = self.origin[a] + (np.arange(n) + 0.5) * self.voxel_size[a]
            out[..., a] = axis.reshape([-1 if b == a else 1 for b in range(3)])
        return out

    def to_json(self) -> str:
        return json.dumps({
            "nx": self.nx, "ny": self.ny, "nz": self.nz,
            "origin": [float(x) for x in self.origin],
            "voxel_size": [float(x) for x in self.voxel_size],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "VoxelGridSpec":
        d = json.loads(text)
        return cls(nx=d["nx"], ny=d["ny"], nz=d["nz"],
                   origin=np.asarray(d["origin"]),
                   voxel_size=np.asarray(d["voxel_size"]))


def unproject(u, v, d, k: Intrinsics) -> np.ndarray:
    """Pixel (u, v) at depth d (meters) to a camera-frame point.

    Returns ((u - cx) * d / fx, (v - cy) * d / fy, d). Depth must be positive.
    """
    d = np.asarray(d, dtype=np.float64)
    if np.any(d <= 0):
        raise ValueError("depth must be positive")
    x = (np.asarray(u, dtype=np.float64) - k.cx) * d / k.fx
    y = (np.asarray(v, dtype=np.float64) - k.cy) * d / k.fy
    return np.stack(np.broadcast_arrays(x, y, d), axis=-1)


def project(p: np.ndarray, k: Intrinsics) -> tuple:
    """Camera-frame points (..., 3) to pixel coordinates (u, v, depth)."""
    p = np.asarray(p, dtype=np.float64)
    z = p[..., 2]
    u = p[..., 0] / z * k.fx + k.cx
    v = p[..., 1] / z * k.fy + k.cy
    return u, v, z


def pixel_centers(k: Intrinsics) -> tuple:
    """Pixel centers of camera `k`: u of shape (width,) and v of shape
    (height, 1), which broadcast to the (height, width) lattice."""
    return np.arange(k.width) + 0.5, (np.arange(k.height) + 0.5)[:, None]


def frustum_points(k: Intrinsics, f: FrustumSpec,
                   cam_to_ego: RigidTransform) -> np.ndarray:
    """Ego-frame lattice of the camera view volume.

    Returns (D * k.height * k.width, 3) with row-major ordering over
    (d, v, u): depth bin slowest, u fastest. Each point is the unprojection
    of pixel center (u + 0.5, v + 0.5) at the bin-center depth, mapped
    through cam_to_ego. `k` is scaled to the stride of the feature map.
    """
    u, v = pixel_centers(k)
    return cam_to_ego.apply(
        unproject(u, v, f.bin_centers()[:, None, None], k).reshape(-1, 3))


def voxel_indices(points: np.ndarray, g: VoxelGridSpec) -> np.ndarray:
    """Flat voxel index per point of shape (..., 3); -1 where outside."""
    p = np.asarray(points, dtype=np.float64)
    cell = np.floor((p - g.origin) / g.voxel_size).astype(np.int64)
    inside = ((cell >= 0) & (cell < np.array([g.nx, g.ny, g.nz]))).all(axis=-1)
    flat = (cell[..., 0] * g.ny + cell[..., 1]) * g.nz + cell[..., 2]
    return np.where(inside, flat, -1)

