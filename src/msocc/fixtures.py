"""Deterministic synthetic scenes for desk-scale verification.

Everything here is seeded and reproducible byte-for-byte: textures come
from an integer hash (no shared RNG state across platforms), scene layout
from numpy's seeded Generator, and depth from integer grid traversal of the
occupancy grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gt_multiscale import CLASS_NAMES, FREE
from .geometry import (CameraRig, Intrinsics, RigidTransform, VoxelGridSpec,
                       invert, pixel_centers, project, unproject)

__all__ = [
    "SyntheticScene",
    "make_scene",
    "textured_plane_features",
    "value_noise",
    "raymarch",
    "oracle_predictions",
    "oracle_logits",
]

_GROUND_CLASS = CLASS_NAMES.index("Driveable Surface")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    z = x
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hash_unit(seed: int, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Hash lattice cell (ix, iy) under `seed` to a float in [-1, 1)."""
    key = (_splitmix64(np.asarray(ix, dtype=np.int64).astype(np.uint64))
           ^ _splitmix64(np.asarray(iy, dtype=np.int64).astype(np.uint64)
                         + np.uint64(0x6A09E667F3BCC909))
           ^ _splitmix64(np.full(1, seed, dtype=np.uint64)))
    h = _splitmix64(key)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53) * 2.0 - 1.0


def value_noise(seed: int, x: np.ndarray, y: np.ndarray,
                scale: float = 0.2) -> np.ndarray:
    """Bilinear value noise over a `scale`-meter lattice; C0-continuous and
    exactly evaluable at any point."""
    gx = np.asarray(x, dtype=np.float64) / scale
    gy = np.asarray(y, dtype=np.float64) / scale
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    fx = gx - x0
    fy = gy - y0
    v00 = _hash_unit(seed, x0, y0)
    v10 = _hash_unit(seed, x0 + 1, y0)
    v01 = _hash_unit(seed, x0, y0 + 1)
    v11 = _hash_unit(seed, x0 + 1, y0 + 1)
    return (v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy)
            + v01 * (1 - fx) * fy + v11 * fx * fy)


def textured_plane_features(d_star: float, k: Intrinsics, channels: int = 32,
                            baseline: float = 2.0, seed: int = 0,
                            texture_scale: float = 0.15):
    """Two views of a fronto-parallel textured plane at depth d_star.

    The previous camera sits at (baseline, 0, 0) in the current frame with
    the same orientation, so the plane maps between the views by a pure
    pixel shift of fx * baseline / d_star. Both feature maps sample the same
    continuous texture exactly. Returns (cur, prev, rel) where rel maps
    previous-ego to current-ego coordinates (identity cam_to_ego assumed).
    """
    px, py, _ = np.moveaxis(unproject(*pixel_centers(k), d_star, k), -1, 0)
    cur = np.stack([value_noise(seed * 1013 + c, px, py, texture_scale)
                    for c in range(channels)])
    prev = np.stack([value_noise(seed * 1013 + c, px + baseline, py, texture_scale)
                     for c in range(channels)])
    return cur, prev, RigidTransform.from_translation([baseline, 0.0, 0.0])


# Rays are marched this many at a time, so a step's work and the working
# memory are those of one chunk's live rays, whatever the ray count (the
# size is chosen in CHANGES.md, from time and peak memory).
RAY_CHUNK = 1 << 12


def raymarch(occ: np.ndarray, grid: VoxelGridSpec, origins: np.ndarray,
             dirs: np.ndarray) -> np.ndarray:
    """First-hit parameter t along rays p = origin + t * dir through an
    occupancy grid, via integer grid traversal (Amanatides-Woo). Returns
    inf where a ray hits nothing within t = 100.

    dirs need not be unit length; t is in units of |dir|.

    The rays are marched RAY_CHUNK at a time, and each step touches only
    the chunk's live rays: a ray is dropped once it hits or leaves the
    grid, and only rays that enter the grid get a start cell. Each ray
    still gets the float operations, in the same order, of a walk that
    steps every ray (the crossed axis is the first whose next boundary is
    nearest, argmin's tie rule), so t is the same to the byte.
    """
    o = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    d = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    o, d = np.broadcast_arrays(o, d)
    # occupancy padded by a cell on each side: 0 free, 1 occupied,
    # 2 outside, so one lookup tells a step's hit from its exit
    code = np.full(np.array(grid.shape) + 2, 2, dtype=np.uint8)
    code[1:-1, 1:-1, 1:-1] = np.asarray(occ).astype(bool).reshape(grid.shape)
    code = code.reshape(-1)
    t_hit = np.full(len(o), np.inf)
    for s in range(0, len(o), RAY_CHUNK):
        chunk = slice(s, s + RAY_CHUNK)
        _march(code, grid, np.ascontiguousarray(o[chunk].T),
               np.ascontiguousarray(d[chunk].T), t_hit[chunk])
    return t_hit


def _march(code: np.ndarray, grid: VoxelGridSpec, o: np.ndarray,
           d: np.ndarray, t_hit: np.ndarray) -> None:
    """raymarch on one chunk: (3, m) origins and directions, one row per
    axis, so each per-ray sum, min or max over the axes is a row-wise
    ufunc. Writes the first hits into t_hit."""
    nx, ny, nz = grid.shape
    n = np.array([[nx], [ny], [nz]])
    vs = grid.voxel_size[:, None]
    org = grid.origin[:, None]

    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (org - o) / d
        t_hi = (org + n * vs - o) / d
    t1 = np.where(np.isnan(t_lo), -np.inf, np.minimum(t_lo, t_hi))
    t2 = np.where(np.isnan(t_hi), np.inf, np.maximum(t_lo, t_hi))
    # axes with zero direction: inside the slab or never
    zero = d == 0
    inside_slab = (o >= org) & (o < org + n * vs)
    t1 = np.where(zero, np.where(inside_slab, -np.inf, np.inf), t1)
    t2 = np.where(zero, np.where(inside_slab, np.inf, -np.inf), t2)
    t_enter = np.maximum(t1.max(axis=0), 0.0)
    t_exit = np.minimum(t2.min(axis=0), 100.0)

    ray = np.flatnonzero(t_enter < t_exit)
    o, d, entry_t = o[:, ray], d[:, ray], t_enter[ray]
    eps = 1e-9
    cell = np.floor((o + (entry_t + eps) * d - org) / vs).astype(np.int64)
    cell = np.clip(cell, 0, n - 1)
    step = np.sign(d).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(d != 0, np.abs(vs / d), np.inf)
        next_bound = org + (cell + (step > 0)) * vs
        t_next = np.where(d != 0, (next_bound - o) / d, np.inf)

    # live-ray state, one row per quantity and axis: t_next xyz, delta xyz
    # and t_exit in f; the flat index into code, its step xyz and the ray
    # in i. A step crosses axis a of live ray r at column r of row a, so
    # its reads and writes are gathers and scatters at a * m + r
    strides = np.array([[(ny + 2) * (nz + 2)], [nz + 2], [1]])
    f = np.empty((7, len(ray)))
    f[0:3], f[3:6], f[6] = t_next, delta, t_exit[ray]
    i = np.empty((5, len(ray)), dtype=np.int64)
    i[0], i[1:4], i[4] = ((cell + 1) * strides).sum(axis=0), step * strides, ray
    state = code[i[0]]
    cols = np.arange(len(ray))

    max_steps = nx + ny + nz + 4
    for _ in range(max_steps):
        past = entry_t > f[6]
        hit = (state == 1) & ~past
        t_hit[i[4, hit]] = entry_t[hit]
        live = np.flatnonzero((state == 0) & ~past)
        m = len(live)
        if not m:
            break
        if m < f.shape[1]:
            f, i = f.take(live, axis=1), i.take(live, axis=1)
        # cross the first axis whose t_next is the nearest
        tx, ty, tz = f[0:3]
        nearest = np.minimum(np.minimum(tx, ty), tz)
        not_x = tx != nearest
        k = cols[:m] + m * not_x
        k += m * (not_x & (ty != nearest))
        f_flat = f.reshape(-1)
        entry_t = f_flat[k]
        f_flat[k] = entry_t + f_flat[k + 3 * m]
        i[0] += i.reshape(-1)[k + m]
        state = code[i[0]]


@dataclass(frozen=True)
class SyntheticScene:
    grid: VoxelGridSpec
    gt_occ: np.ndarray        # (nx, ny, nz) uint8
    gt_sem: np.ndarray        # (nx, ny, nz) uint8, FREE where unoccupied
    mask: np.ndarray          # (nx, ny, nz) bool
    rig: CameraRig
    poses: tuple              # per-frame ego -> global
    gt_depth: np.ndarray      # (N, H, W) z-depth in meters, inf = no hit


def _default_rig(num_cameras: int, width: int, height: int,
                 focal: float, cam_height: float) -> CameraRig:
    cams = []
    for i in range(num_cameras):
        yaw = 2 * math.pi * i / num_cameras
        c, s = math.cos(yaw), math.sin(yaw)
        # camera: x right, y down, z forward; forward = ego (cos, sin, 0)
        r = np.array([[s, 0.0, c],
                      [-c, 0.0, s],
                      [0.0, -1.0, 0.0]])
        k = Intrinsics(fx=focal, fy=focal, cx=width / 2, cy=height / 2,
                       width=width, height=height)
        cams.append((k, RigidTransform(r, np.array([0.0, 0.0, cam_height]))))
    return CameraRig(tuple(cams))


def make_scene(grid: VoxelGridSpec | None = None, num_cameras: int = 6,
               num_frames: int = 9, num_boxes: int = 8, seed: int = 0,
               image_width: int = 64, image_height: int = 48,
               focal: float = 40.0) -> SyntheticScene:
    """Boxes on a ground plane, a surround-view rig, smooth ego motion, and
    ray-marched per-camera depth. Identical arguments give byte-identical
    output."""
    if grid is None:
        grid = VoxelGridSpec(40, 40, 8, origin=np.array([-8.0, -8.0, -1.0]),
                             voxel_size=np.array([0.4, 0.4, 0.4]))
    if num_frames < 1 or num_boxes < 0:
        raise ValueError("degenerate scene configuration")
    rng = np.random.default_rng(seed)

    sem = np.full(grid.shape, FREE, dtype=np.uint8)
    sem[:, :, 0] = _GROUND_CLASS
    for _ in range(num_boxes):
        size = rng.integers(2, 6, size=3)
        size[2] = min(size[2], grid.nz - 1)
        lo = np.array([rng.integers(0, grid.nx - size[0]),
                       rng.integers(0, grid.ny - size[1]),
                       1 + rng.integers(0, max(grid.nz - 1 - size[2], 1))])
        label = int(rng.integers(0, len(CLASS_NAMES)))
        sem[lo[0]:lo[0] + size[0], lo[1]:lo[1] + size[1],
            lo[2]:lo[2] + size[2]] = label
    occ = (sem != FREE).astype(np.uint8)

    rig = _default_rig(num_cameras, image_width, image_height, focal,
                       cam_height=0.8)

    speed = 0.5
    yaw_rate = 0.02
    poses = tuple(
        RigidTransform.from_yaw(yaw_rate * t, (speed * t, 0.0, 0.0))
        for t in range(num_frames)
    )

    # per-camera z-depth by grid traversal at the current (last) frame
    depths = []
    for k, cam_to_ego in rig.cameras:
        # the pixel-center rays at depth 1, in the ego frame
        dirs = unproject(*pixel_centers(k), 1.0, k).reshape(-1, 3)
        t_hit = raymarch(occ, grid, cam_to_ego.translation[None, :],
                         dirs @ cam_to_ego.rotation.T)
        depths.append(t_hit.reshape(k.height, k.width))
    gt_depth = np.stack(depths)

    # visibility: voxel centers that project into any camera image
    centers = grid.cell_centers().reshape(-1, 3)
    mask = np.zeros(len(centers), dtype=bool)
    for k, cam_to_ego in rig.cameras:
        u, v, z = project(invert(cam_to_ego).apply(centers), k)
        mask |= (z > 0.1) & (u >= 0) & (u < k.width) & (v >= 0) & (v < k.height)
    mask = mask.reshape(grid.shape)

    return SyntheticScene(grid, occ, sem, mask, rig, poses, gt_depth)


def _one_hot(sem: np.ndarray) -> np.ndarray:
    """C-ordered boolean (K, ...) one-hot of labels, class 0 on FREE."""
    labels = np.where(sem == FREE, 0, sem)
    return np.arange(len(CLASS_NAMES)).reshape(-1, *[1] * sem.ndim) == labels


def oracle_predictions(scene: SyntheticScene):
    """C-ordered float32 volumes, as prediction files hold them, that
    reproduce the ground truth exactly: occ_prob = occupancy, sem_prob =
    one-hot semantics (class 0 on FREE voxels, which thresholding removes
    via occ_prob = 0)."""
    return (scene.gt_occ.astype(np.float32),
            _one_hot(scene.gt_sem).astype(np.float32))


def oracle_logits(occ: np.ndarray, sem: np.ndarray):
    """Saturated float64 head logits of magnitude 10 matching an occupancy
    grid and its semantics (FREE where unoccupied), for loss-stack runs."""
    return np.where(occ == 1, 10.0, -10.0), np.where(_one_hot(sem), 10.0, -10.0)
