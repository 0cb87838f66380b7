"""Lift 2D features through depth distributions into ego-frame voxel grids.

The pooling index is precomputed once per (rig, frustum, grid) triple: every
in-bounds frustum point is stored as (camera id, point offset, target voxel),
so lifting is a gather of depth-weighted features followed by a per-channel
scatter-add (`np.bincount`) into the voxels. The full C x (H*W*D) lifted
tensor is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraRig, FrustumSpec, VoxelGridSpec, frustum_points, voxel_indices

__all__ = [
    "PoolingIndex",
    "normalize_depth_logits",
    "build_pooling_index",
    "lift_and_pool",
]


def normalize_depth_logits(logits: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the depth axis of a (D, H, W) logit array."""
    z = np.asarray(logits, dtype=np.float64)
    if np.isnan(z).any():
        raise ValueError("depth logits contain NaN")
    z = z - z.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


@dataclass(frozen=True)
class PoolingIndex:
    """Scatter plan from frustum points to voxels: entry i adds the point
    `point_offsets[i]` of camera `cam_ids[i]` to voxel `target_vox[i]`.

    Entries are sorted by target voxel id, ties broken by (camera id, point
    offset), so the scatter-add sums each voxel in a fixed order. Point
    offsets index the (d, v, u) row-major frustum lattice:
    offset = (d * H + v) * W + u.
    """

    cam_ids: np.ndarray      # (n_entries,) int32
    point_offsets: np.ndarray  # (n_entries,) int64
    target_vox: np.ndarray   # (n_entries,) int64 flat voxel ids, ascending
    frustum: FrustumSpec
    grid: VoxelGridSpec
    num_cameras: int

    @property
    def num_entries(self) -> int:
        return len(self.cam_ids)


def build_pooling_index(rig: CameraRig, f: FrustumSpec,
                        g: VoxelGridSpec) -> PoolingIndex:
    """Precompute the in-bounds frustum-point -> voxel scatter plan.

    Intrinsics in the rig must already be scaled to f.stride.
    """
    cams, offs, targets = [], [], []
    for cam_id, (k, cam_to_ego) in enumerate(rig.cameras):
        pts = frustum_points(k, f, cam_to_ego)
        vox = voxel_indices(pts, g)
        keep = vox >= 0
        cams.append(np.full(int(keep.sum()), cam_id, dtype=np.int32))
        offs.append(np.nonzero(keep)[0].astype(np.int64))
        targets.append(vox[keep])
    cam_ids = np.concatenate(cams)
    point_offsets = np.concatenate(offs)
    target_vox = np.concatenate(targets)

    # entries are generated in (camera, offset) order, so a stable sort on
    # the voxel id alone breaks ties by (camera, offset)
    order = np.argsort(target_vox, kind="stable")
    return PoolingIndex(cam_ids[order], point_offsets[order], target_vox[order],
                        f, g, len(rig))


def lift_and_pool(features: np.ndarray, depths: np.ndarray,
                  idx: PoolingIndex) -> np.ndarray:
    """Depth-weighted scatter-sum of camera features into the voxel grid.

    features: (N, C, H, W); depths: (N, D, H, W) per-pixel categorical
    distributions. Returns (C, nx, ny, nz). Accumulation runs in f64 and the
    result is cast back to the feature dtype.

    out[c, v] = sum over entries (cam, p) -> v of
                depths[cam, d_p, y_p, x_p] * features[cam, c, y_p, x_p]
    """
    features = np.asarray(features)
    depths = np.asarray(depths)
    f = idx.frustum
    d_bins, h, w = f.num_bins, f.feat_height, f.feat_width
    if features.ndim != 4 or features.shape[0] != idx.num_cameras \
            or features.shape[2:] != (h, w):
        raise ValueError(f"features shape {features.shape} inconsistent with index")
    if depths.shape != (idx.num_cameras, d_bins, h, w):
        raise ValueError(f"depths shape {depths.shape} inconsistent with index")

    n_vox = idx.grid.num_voxels
    c_chan = features.shape[1]
    depth_flat = depths.reshape(idx.num_cameras, -1).astype(np.float64)
    weights = depth_flat[idx.cam_ids, idx.point_offsets]
    pixel_offsets = idx.point_offsets % (h * w)

    feat_flat = features.reshape(idx.num_cameras, c_chan, h * w).astype(np.float64)
    out = np.zeros((c_chan, n_vox), dtype=np.float64)
    for c in range(c_chan):
        contrib = weights * feat_flat[idx.cam_ids, c, pixel_offsets]
        out[c] = np.bincount(idx.target_vox, weights=contrib, minlength=n_vox)
    return out.reshape(c_chan, *idx.grid.shape).astype(features.dtype)
