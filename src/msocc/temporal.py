"""Plane-sweep cost volumes between adjacent frames and ego-motion alignment.

The matching cost is the channel-mean dot product between the current
feature and the previous feature bilinearly sampled at the reprojection of
each depth hypothesis. Hypotheses reprojecting outside the previous image
score zero.
"""

from __future__ import annotations

import numpy as np

from .geometry import (FrustumSpec, Intrinsics, RigidTransform, compose,
                       invert, project, unproject)

__all__ = [
    "bilinear_sample",
    "build_cost_volume",
    "rescale_cost_volume",
    "warp_voxel_grid",
    "stack_temporal",
]


def bilinear_sample(image: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample (C, H, W) at continuous pixel coords; centers at integer + 0.5.

    Out-of-bounds samples (where the footprint would leave the image) return 0.
    Returns (C, ...) matching the shape of u.
    """
    c, h, w = image.shape
    x = np.asarray(u, dtype=np.float64) - 0.5
    y = np.asarray(v, dtype=np.float64) - 0.5
    # valid inside the convex hull of pixel centers; outside scores 0
    # (epsilon absorbs roundoff from reprojection chains at the border)
    eps = 1e-9
    valid = (x >= -eps) & (x <= w - 1 + eps) & (y >= -eps) & (y <= h - 1 + eps)
    x = np.clip(x, 0.0, w - 1.0)
    y = np.clip(y, 0.0, h - 1.0)
    x0c = np.clip(np.floor(x).astype(np.int64), 0, max(w - 2, 0))
    y0c = np.clip(np.floor(y).astype(np.int64), 0, max(h - 2, 0))
    fx = x - x0c
    fy = y - y0c
    img = image.reshape(c, -1)
    base = y0c * w + x0c
    last = h * w - 1  # degenerate 1-pixel axes carry zero weight anyway
    s = (img[:, base] * (1 - fx) * (1 - fy)
         + img[:, np.minimum(base + 1, last)] * fx * (1 - fy)
         + img[:, np.minimum(base + w, last)] * (1 - fx) * fy
         + img[:, np.minimum(base + w + 1, last)] * fx * fy)
    return s * valid


def build_cost_volume(cur: np.ndarray, prev: np.ndarray,
                      rel: RigidTransform, k: Intrinsics, f: FrustumSpec,
                      cam_to_ego: RigidTransform | None = None) -> np.ndarray:
    """Plane-sweep matching cost between two frames of one camera.

    cur, prev: (C, H, W) feature maps at the same stride; k scaled to that
    stride. rel maps previous-ego to current-ego coordinates; cam_to_ego
    (default identity) is the camera extrinsic shared by both frames.

    cost[d, v, u] = <cur[:, v, u], bilinear_sample(prev, reproject(u, v, depth_d))> / C
    """
    if cur.shape != prev.shape:
        raise ValueError(f"feature shapes differ: {cur.shape} vs {prev.shape}")
    c, h, w = cur.shape
    if (h, w) != (f.feat_height, f.feat_width):
        raise ValueError("frustum spec does not match feature shape")
    if cam_to_ego is None:
        cam_to_ego = RigidTransform.identity()
    # current camera -> previous camera
    cur_cam_to_prev_cam = compose(invert(cam_to_ego),
                                  compose(invert(rel), cam_to_ego))

    us = np.arange(w) + 0.5
    vs = np.arange(h) + 0.5
    ds = f.bin_centers()
    dd, vv, uu = np.meshgrid(ds, vs, us, indexing="ij")
    cam_pts = unproject(uu, vv, dd, k)
    prev_pts = cur_cam_to_prev_cam.apply(cam_pts)
    pu, pv, pz = project(prev_pts, k)
    behind = pz <= 0
    pu = np.where(behind, -1.0, pu)  # forces out-of-bounds zeros

    sampled = bilinear_sample(prev, pu, pv)          # (C, D, H, W)
    cost = np.einsum("chw,cdhw->dhw", cur.astype(np.float64),
                     sampled.astype(np.float64)) / c
    return cost


def rescale_cost_volume(cv: np.ndarray, target_stride: int,
                        source_stride: int = 4) -> np.ndarray:
    """Average-pool the spatial axes of (D, H, W) down to target_stride."""
    if target_stride % source_stride != 0:
        raise ValueError("target stride must be a multiple of the source stride")
    factor = target_stride // source_stride
    d, h, w = cv.shape
    if h % factor or w % factor:
        raise ValueError(f"spatial dims {(h, w)} not divisible by {factor}")
    return cv.reshape(d, h // factor, factor, w // factor, factor).mean(axis=(2, 4))


def warp_voxel_grid(prev: np.ndarray, rel: RigidTransform, grid,
                    mode: str = "trilinear") -> np.ndarray:
    """Resample a (C, nx, ny, nz) grid from the previous ego frame into the
    current one.

    For each current cell center x, the source location is invert(rel)(x) in
    continuous cell coordinates of `prev`; out-of-grid samples are zero.
    mode: "nearest" (exact copy under identity motion, suitable for labels)
    or "trilinear" (feature grids).
    """
    if mode not in ("nearest", "trilinear"):
        raise ValueError(f"unknown warp mode {mode!r}")
    prev = np.asarray(prev)
    squeeze = prev.ndim == 3
    if squeeze:
        prev = prev[None]
    c = prev.shape[0]
    if prev.shape[1:] != grid.shape:
        raise ValueError("grid spec does not match array shape")

    centers = grid.cell_centers().reshape(-1, 3)
    src = invert(rel).apply(centers)
    # continuous cell coords: cell i's center sits at i + 0.5
    cc = (src - grid.origin) / grid.voxel_size - 0.5
    n = np.array(grid.shape)

    flat_prev = prev.reshape(c, -1)
    strides = np.array([grid.ny * grid.nz, grid.nz, 1])

    if mode == "nearest":
        cell = np.rint(cc).astype(np.int64)
        inside = ((cell >= 0) & (cell < n)).all(axis=-1)
        cellc = np.clip(cell, 0, n - 1)
        out = flat_prev[:, cellc @ strides] * inside
    else:
        lo = np.floor(cc).astype(np.int64)
        frac = cc - lo
        out = np.zeros((c, len(cc)), dtype=np.float64)
        for corner in range(8):
            off = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
            cell = lo + off
            inside = ((cell >= 0) & (cell < n)).all(axis=-1)
            wgt = np.prod(np.where(off == 1, frac, 1.0 - frac), axis=-1)
            cellc = np.clip(cell, 0, n - 1)
            out += flat_prev[:, cellc @ strides] * (wgt * inside)
    out = np.asarray(out).reshape(c, *grid.shape).astype(prev.dtype, copy=False)
    return out[0] if squeeze else out


def stack_temporal(grids: list) -> np.ndarray:
    """Concatenate K aligned (C, nx, ny, nz) grids along channels, oldest first."""
    if not grids:
        raise ValueError("need at least one grid")
    shape = grids[0].shape
    for g in grids:
        if g.shape != shape:
            raise ValueError("all grids must share shape")
    return np.concatenate(grids, axis=0)
