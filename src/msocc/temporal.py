"""Plane-sweep cost volumes between adjacent frames and ego-motion alignment.

The matching cost is the channel-mean dot product between the current
feature and the previous feature bilinearly sampled at the reprojection of
each depth hypothesis, one depth plane at a time. Hypotheses reprojecting
outside the previous image score zero. Both feature maps are cast to
float64 once per call. The sampler gathers each of a plane's four corners
into one of two reused (C, H, W) buffers, weights it in place by its x and
then its y weight, and adds it to the sum in a fixed corner order; that
operation order is the rounding of the four-term bilinear formula, so the
cost volume's bytes do not depend on how the buffers are reused. The voxel
warp builds, per axis, the (clamped source index, weight) options of every
cell once, then streams each corner of their product channel by channel
through one reused float64 row, so warping a float64 grid allocates one
full-size array, the (C, N) sum; its corner order and weight product are
fixed likewise.
"""

from __future__ import annotations

import itertools

import numpy as np

from .geometry import (FrustumSpec, Intrinsics, RigidTransform, compose,
                       frustum_points, invert, project)

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
    Returns float64 (C, ...) matching the shape of u.

    The image is cast to float64 once (a no-op for a float64 image). Each
    corner is gathered into one of two (C, ...) buffers and weighted in
    place, first by its x weight and then by its y weight; the corners are
    added in the order (x0, y0), (x1, y0), (x0, y1), (x1, y1). That is the
    rounding of `sample * wx * wy` summed left to right, so the order is
    fixed: a folded weight `wx * wy` or another corner order changes bytes.
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
    gx = 1 - fx
    gy = 1 - fy
    img = image.reshape(c, -1).astype(np.float64, copy=False)
    base = y0c * w + x0c
    last = h * w - 1  # degenerate 1-pixel axes carry zero weight anyway
    corners = ((base, gx, gy), (np.minimum(base + 1, last), fx, gy),
               (np.minimum(base + w, last), gx, fy),
               (np.minimum(base + w + 1, last), fx, fy))
    s = np.empty((c, *x.shape))
    buf = np.empty_like(s)
    for i, (idx, wx, wy) in enumerate(corners):
        dst = buf if i else s
        # indices are clamped already; "clip" also lets take write into dst
        # without a temporary
        np.take(img, idx, axis=1, out=dst, mode="clip")
        dst *= wx
        dst *= wy
        if i:
            s += buf
    s *= valid
    return s


def build_cost_volume(cur: np.ndarray, prev: np.ndarray,
                      rel: RigidTransform, k: Intrinsics, f: FrustumSpec,
                      cam_to_ego: RigidTransform | None = None) -> np.ndarray:
    """Plane-sweep matching cost between two frames of one camera.

    cur, prev: (C, H, W) feature maps at the same stride; k scaled to that
    stride. rel maps previous-ego to current-ego coordinates; cam_to_ego
    (default identity) is the camera extrinsic shared by both frames.

    cost[d, v, u] = <cur[:, v, u], bilinear_sample(prev, reproject(u, v, depth_d))> / C

    `prev` is sampled one depth plane at a time, so memory grows with
    C * H * W, not with the number of depth bins.
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
    prev_pts = frustum_points(k, f, cur_cam_to_prev_cam)
    pu, pv, pz = project(prev_pts.reshape(f.num_bins, h, w, 3), k)
    pu = np.where(pz <= 0, -1.0, pu)  # behind the camera: forced out of bounds
    # einsum over mixed float32/float64 operands sums in another order;
    # prev is cast here once, not per plane inside the sampler
    cur = cur.astype(np.float64, copy=False)
    prev = prev.astype(np.float64, copy=False)
    cost = np.stack([np.einsum("chw,chw->hw", cur, bilinear_sample(prev, u, v))
                     for u, v in zip(pu, pv)])
    return cost / c


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
    """Resample a (C, nx, ny, nz) or (nx, ny, nz) grid from the previous ego
    frame into the current one.

    For each current cell center x, the source location is invert(rel)(x) in
    continuous cell coordinates of `prev`; out-of-grid samples are zero.
    mode: "nearest" (exact copy under identity motion, suitable for labels)
    or "trilinear" (feature grids). Each axis gets its options once:
    (clamped source index, weight * in-range), one of weight 1 for nearest,
    (lo, 1 - frac) and (lo + 1, frac) for trilinear. The corners are the
    product of the three axes' options, z fastest. Each corner's flat source
    index and weight `wx * wy * wz` are computed once; then, channel by
    channel, the corner is gathered into one reused float64 row, weighted in
    place and added to that channel's sum. Splitting the work by channel
    keeps the bytes; another corner order or weight grouping changes them.
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
    flat_prev = prev.reshape(c, -1).astype(np.float64, copy=False)
    out = np.zeros(flat_prev.shape)
    buf = np.empty(flat_prev.shape[1])
    # corners in x-major order, z fastest
    for (ix, wx), (iy, wy), (iz, wz) in itertools.product(*axes):
        idx = (ix * ny + iy) * nz + iz
        w = wx * wy * wz
        for row, acc in zip(flat_prev, out):
            # indices are clamped already; "clip" also lets take write into
            # buf without a temporary
            np.take(row, idx, out=buf, mode="clip")
            buf *= w
            acc += buf
    del idx, w, buf  # before the cast to a narrower dtype allocates
    out = out.reshape(c, *grid.shape).astype(prev.dtype, copy=False)
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
