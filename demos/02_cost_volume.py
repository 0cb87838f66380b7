"""Recover scene depth from a two-frame plane-sweep cost volume.

A textured fronto-parallel plane at a known depth is rendered from two
camera positions; the argmax over depth hypotheses should land on the true
depth bin almost everywhere the reprojection stays inside the image.
"""

import numpy as np

from msocc import fixtures, temporal
from msocc import geometry as geo

k = geo.Intrinsics(fx=50.0, fy=50.0, cx=24.0, cy=16.0, width=48, height=32)
frustum = geo.FrustumSpec(depth_min=6.5, depth_max=14.5,
                          depth_step=1.0)
true_depth = 10.0

cur, prev, rel = fixtures.textured_plane_features(true_depth, k)
cost = temporal.build_cost_volume(cur, prev, rel, k, frustum)
print(f"cost volume shape: {cost.shape} (depth bins, H, W)")

best = np.argmax(cost, axis=0)
true_bin = int(np.argmin(np.abs(frustum.bin_centers() - true_depth)))

# exclude the strip where the reprojection leaves the previous image
max_shift = int(np.ceil(k.fx * 2.0 / frustum.bin_centers().min())) + 1
interior = best[:, max_shift:]
hit = (interior == true_bin).mean()
print(f"true bin {true_bin}, argmax hit rate over interior: {hit:.3f}")

coarse = temporal.rescale_cost_volume(cost, target_stride=8)
print(f"rescaled to stride 8: {coarse.shape}")
