"""Plane-sweep cost volumes between adjacent frames and ego-motion alignment.

The matching cost is the channel-mean dot product between the current
feature and the previous feature bilinearly sampled at the reprojection of
each depth hypothesis, one depth plane at a time. Each of the four corners
is gathered from a channel-last copy of `prev` and dotted with `cur`, so the
(C, H, W) sample is never built. A pixel's four corner dots depend only
on its corner base, which most pixels keep from one plane to the next, so
they are kept and recomputed only where the base moved. The einsum
computes each row's dot from that row alone, so which other rows share the
call does not change its bytes. Hypotheses reprojecting outside the
previous image score +0.0. `test_matches_corner_dot_formula` pins the
cost volume's bytes and `test_matches_eight_corner_loop` the voxel warp's.
"""

from __future__ import annotations

import itertools

import numpy as np

from .geometry import (FrustumSpec, Intrinsics, RigidTransform, compose,
                       frustum_points, invert, project)

__all__ = [
    "COST_STRIDE",
    "build_cost_volume",
    "rescale_cost_volume",
    "warp_voxel_grid",
    "stack_temporal",
]

COST_STRIDE = 4  # the image stride of the cost volumes; coarser ones pool it


def build_cost_volume(cur: np.ndarray, prev: np.ndarray,
                      rel: RigidTransform, k: Intrinsics, f: FrustumSpec,
                      cam_to_ego: RigidTransform | None = None) -> np.ndarray:
    """Plane-sweep matching cost between two frames of one camera.

    cur, prev: (C, H, W) feature maps at the same stride; k scaled to that
    stride. rel maps previous-ego to current-ego coordinates; cam_to_ego
    (default identity) is the camera extrinsic shared by both frames.

    cost[d, v, u] = sum of (wx * wy) * <cur[:, v, u], prev[:, corner]> / C
    over the four pixel centers of prev around the reprojection of (u, v)
    at depth_d, in the order (base, gx, gy), (base+1, fx, gy), (base+w, gx,
    fy), (base+w+1, fx, fy). A reprojection outside the hull of pixel
    centers, or behind the camera, scores +0.0. Memory grows with C * H * W,
    not with the number of depth bins.

    The four dots of a pixel are kept from the last plane that computed
    them and recomputed only on planes where its base moved (every pixel
    on plane 0). The weights stay per plane, and the einsum computes each
    row's dot from that row alone, so the bytes equal those of a sweep that
    recomputes every dot on every plane. `test_matches_corner_dot_formula`
    pins this order byte for byte and `TestCornerDotReuse` each way of
    recomputing; `test_matches_all_planes_formula` bounds it against the
    four-term sample.
    """
    if cur.shape != prev.shape:
        raise ValueError(f"feature shapes differ: {cur.shape} vs {prev.shape}")
    c, h, w = cur.shape
    if (h, w) != (k.height, k.width):
        raise ValueError(f"features {h}x{w} vs camera {k.height}x{k.width}")
    if cam_to_ego is None:
        cam_to_ego = RigidTransform.identity()
    # current camera -> previous camera
    cur_cam_to_prev_cam = compose(invert(cam_to_ego),
                                  compose(invert(rel), cam_to_ego))
    prev_pts = frustum_points(k, f, cur_cam_to_prev_cam)
    pu, pv, pz = project(prev_pts.reshape(f.num_bins, -1, 3), k)
    pu = np.where(pz <= 0, -1.0, pu)  # behind the camera: forced out of bounds
    n = h * w
    # channel-last float64 rows, so each corner is one row gather
    cur_t = np.ascontiguousarray(cur.reshape(c, n).T, dtype=np.float64)
    prev_t = np.ascontiguousarray(prev.reshape(c, n).T, dtype=np.float64)
    g = np.empty((n, c))
    # dots[j, p] = <cur[:, p], prev[:, corner j of p]>, kept from the last
    # plane on which p's corner base moved
    dots = np.empty((4, n))
    last = np.full(n, -1)
    cost = np.zeros((f.num_bins, n))
    # pixel centers sit at integer + 0.5; eps absorbs reprojection roundoff
    eps = 1e-9
    for u, v, acc in zip(pu, pv, cost):
        x, y = u - 0.5, v - 0.5
        valid = (x >= -eps) & (x <= w - 1 + eps) & (y >= -eps) & (y <= h - 1 + eps)
        x = np.clip(x, 0.0, w - 1.0)
        y = np.clip(y, 0.0, h - 1.0)
        x0c = np.clip(np.floor(x).astype(np.int64), 0, max(w - 2, 0))
        y0c = np.clip(np.floor(y).astype(np.int64), 0, max(h - 2, 0))
        fx = x - x0c
        fy = y - y0c
        gx = 1 - fx
        gy = 1 - fy
        base = y0c * w + x0c
        moved = np.flatnonzero(base != last)
        last = base
        m = len(moved)
        if m > n // 2:  # recompute every row against cur_t itself
            rows, cur_m, g_m, at = base, cur_t, g, slice(None)
        else:
            # the moved rows of cur go to g's tail, which g[:m] never reaches
            rows, cur_m, g_m, at = base[moved], g[n - m:], g[:m], moved
            np.take(cur_t, moved, axis=0, out=cur_m)
        # take's "clip" clamps the corners past a degenerate 1-pixel axis,
        # which carry zero weight, and lets it write into g without a copy
        for j, offset in enumerate((0, 1, w, w + 1)):
            np.take(prev_t, rows + offset, axis=0, out=g_m, mode="clip")
            dots[j, at] = np.einsum("pc,pc->p", cur_m, g_m)
        for dot, wx, wy in zip(dots, (gx, fx, gx, fx), (gy, gy, fy, fy)):
            acc += (wx * wy) * dot
        np.copyto(acc, 0.0, where=~valid)
    return cost.reshape(f.num_bins, h, w) / c


def rescale_cost_volume(cv: np.ndarray, target_stride: int,
                        source_stride: int = COST_STRIDE) -> np.ndarray:
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
    """Resample a (C, nx, ny, nz) or (nx, ny, nz) grid from the previous ego
    frame into the current one.

    For each current cell center x, the source location is invert(rel)(x) in
    continuous cell coordinates of `prev`; out-of-grid samples are zero.
    mode: "nearest" (exact copy under identity motion, suitable for labels)
    or "trilinear" (feature grids). The corner order and weight grouping
    are fixed; `test_matches_eight_corner_loop` pins them. The sums run in
    float64, and the result takes the input's dtype.
    """
    if mode not in ("nearest", "trilinear"):
        raise ValueError(f"unknown warp mode {mode!r}")
    prev = np.asarray(prev)
    squeeze = prev.ndim == 3
    if squeeze:
        prev = prev[None]
    if prev.shape[1:] != grid.shape:
        raise ValueError("grid spec does not match array shape")
    # the sums come back with every corner array freed, so the cast to a
    # narrower dtype allocates on top of the sums alone
    out = _corner_sums(prev, rel, grid, mode)
    out = out.reshape(prev.shape).astype(prev.dtype, copy=False)
    return out[0] if squeeze else out


def _corner_sums(prev, rel, grid, mode):
    """The float64 (C, nx * ny * nz) sums of `warp_voxel_grid`."""
    src = invert(rel).apply(grid.cell_centers().reshape(-1, 3))
    # continuous cell coords: cell i's center sits at i + 0.5
    cc = (src - grid.origin) / grid.voxel_size - 0.5
    del src
    # per axis, the (clamped source index, weight * in-range) options
    axes = []
    for a, n in enumerate(grid.shape):
        if mode == "nearest":
            cells = [(np.rint(cc[:, a]).astype(np.int64), 1.0)]
        else:
            lo = np.floor(cc[:, a]).astype(np.int64)
            frac = cc[:, a] - lo
            cells = [(lo, 1.0 - frac), (lo + 1, frac)]
        axes.append([(np.clip(i, 0, n - 1), w * ((i >= 0) & (i < n)))
                     for i, w in cells])
    del cc

    _, ny, nz = grid.shape
    flat_prev = prev.reshape(len(prev), -1)
    out = np.zeros(flat_prev.shape)
    got = np.empty(flat_prev.shape[1], flat_prev.dtype)
    buf = np.empty(flat_prev.shape[1])
    # corners in x-major order, z fastest
    for (ix, wx), (iy, wy), (iz, wz) in itertools.product(*axes):
        idx = (ix * ny + iy) * nz + iz
        w = wx * wy * wz
        for row, acc in zip(flat_prev, out):
            # "clip" lets take write into got without a temporary; the
            # multiply widens got, so the grid is never widened whole
            np.take(row, idx, out=got, mode="clip")
            acc += np.multiply(got, w, out=buf)
    return out


def stack_temporal(grids: list) -> np.ndarray:
    """Concatenate K aligned (C, nx, ny, nz) grids along channels, oldest first."""
    if not grids:
        raise ValueError("need at least one grid")
    shape = grids[0].shape
    for g in grids:
        if g.shape != shape:
            raise ValueError("all grids must share shape")
    return np.concatenate(grids, axis=0)
