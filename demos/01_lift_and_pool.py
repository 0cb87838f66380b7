"""Lift camera features into a voxel grid with a precomputed pooling index.

The index is built once per rig/frustum/grid combination; lifting is then a
gather plus a per-channel scatter-add into the voxels, never materialising
the dense frustum tensor.
"""

import numpy as np

from msocc import geometry as geo
from msocc.lift_splat import (build_pooling_index, lift_and_pool,
                              normalize_depth_logits)

rng = np.random.default_rng(0)

k = geo.Intrinsics(fx=40.0, fy=40.0, cx=32.0, cy=24.0, width=64, height=48)


def looking_along(yaw):
    # camera axes: x right, y down, z forward; forward = ego (cos, sin, 0)
    c, s = np.cos(yaw), np.sin(yaw)
    r = np.array([[s, 0.0, c], [-c, 0.0, s], [0.0, -1.0, 0.0]])
    return geo.RigidTransform(r, np.array([0.0, 0.0, 0.8]))


rig = geo.CameraRig(((k, looking_along(0.0)), (k, looking_along(np.pi))))
frustum = geo.FrustumSpec(64, 48, 1, depth_min=1.0, depth_max=13.0,
                          depth_step=1.0)
grid = geo.VoxelGridSpec(40, 40, 8, origin=np.array([-8.0, -8.0, -1.0]),
                         voxel_size=np.array([0.4, 0.4, 0.4]))

index = build_pooling_index(rig, frustum, grid)
print(f"pooling index: {index.num_entries} in-grid contributions, "
      f"{len(np.unique(index.target_vox))} occupied voxels")

features = rng.standard_normal((2, 16, 48, 64))
depths = normalize_depth_logits(
    rng.standard_normal((2, frustum.num_bins, 48, 64)))

volume = lift_and_pool(features, depths, index)
print(f"voxel volume shape: {volume.shape}")

# sanity: total pooled mass equals the sum of every in-grid contribution
cam, d, v, u = np.unravel_index(index.depth_index, depths.shape)
mass = (depths[cam, d, v, u] * features[cam, :, v, u].sum(axis=1)).sum()
print(f"mass conservation: pooled {volume.sum():.6f} vs contributed {mass:.6f}")
