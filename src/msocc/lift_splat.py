"""Lift 2D features through depth distributions into ego-frame voxel grids.

The pooling index is precomputed once per (rig, frustum, grid) triple: every
in-bounds frustum point is stored as (depth-weight index, pixel index,
target voxel), so lifting is a gather of depth-weighted features followed by
a per-channel scatter-add (`np.bincount`) into the voxels. The full
C x (H*W*D) lifted tensor is never materialized.
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
    """Per-pixel softmax over the depth axis (-3) of (..., D, H, W) logits."""
    z = np.array(logits, dtype=np.float64)
    z -= z.max(axis=-3, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-3, keepdims=True)
    return z


@dataclass(frozen=True)
class PoolingIndex:
    """Scatter plan from frustum points to voxels: entry i adds the depth
    weight `depths.flat[depth_index[i]]` times the features of pixel
    `pixel_index[i]` to voxel `target_vox[i]`, where depths is (N, D, H, W)
    and the pixels are (N, H, W), both flattened row-major.

    Entries are in frustum order: camera, then the (d, v, u) row-major
    lattice of `frustum_points`, so `depth_index` is strictly increasing.
    `np.bincount` adds each voxel's weights in input order, so every voxel
    sums its entries in that fixed order and the result is reproducible.
    """

    target_vox: np.ndarray   # (n_entries,) int64 flat voxel ids
    depth_index: np.ndarray  # (n_entries,) int64 into the flat depths
    pixel_index: np.ndarray  # (n_entries,) int64 into the flat pixels
    frustum: FrustumSpec
    grid: VoxelGridSpec
    num_cameras: int

    @property
    def num_entries(self) -> int:
        return len(self.target_vox)


def build_pooling_index(rig: CameraRig, f: FrustumSpec,
                        g: VoxelGridSpec) -> PoolingIndex:
    """Precompute the in-bounds frustum-point -> voxel scatter plan.

    Intrinsics in the rig must already be scaled to f.stride.
    """
    n_pix = f.feat_height * f.feat_width
    n_pts = f.num_bins * n_pix
    targets, depth_idx, pixel_idx = [], [], []
    for cam_id, (k, cam_to_ego) in enumerate(rig.cameras):
        vox = voxel_indices(frustum_points(k, f, cam_to_ego), g)
        offsets = np.nonzero(vox >= 0)[0]
        targets.append(vox[offsets])
        depth_idx.append(cam_id * n_pts + offsets)
        pixel_idx.append(cam_id * n_pix + offsets % n_pix)
    return PoolingIndex(np.concatenate(targets), np.concatenate(depth_idx),
                        np.concatenate(pixel_idx), f, g, len(rig))


def lift_and_pool(features: np.ndarray, depths: np.ndarray,
                  idx: PoolingIndex) -> np.ndarray:
    """Depth-weighted scatter-sum of camera features into the voxel grid.

    features: (N, C, H, W); depths: (N, D, H, W) per-pixel categorical
    distributions. Returns the float64 (C, nx, ny, nz) accumulator, whatever
    the feature dtype: products and sums run in float64.

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
    weights = depths.reshape(-1)[idx.depth_index].astype(np.float64, copy=False)
    feat = np.moveaxis(features, 1, 0).reshape(c_chan, -1)  # (C, N*H*W)
    out = np.empty((c_chan, n_vox))
    for c in range(c_chan):
        out[c] = np.bincount(idx.target_vox, weights=weights * feat[c, idx.pixel_index],
                             minlength=n_vox)
    return out.reshape(c_chan, *idx.grid.shape)
