"""Build a multi-scale ground-truth pyramid and evaluate the loss stack.

Coarser scales use block max for occupancy, majority vote for semantics and
block OR for camera masks. Losses come with exact analytic gradients; the
per-scale terms are combined with weights 1, 0.5, 0.25.
"""

import numpy as np

from msocc import fixtures, losses
from msocc.gt_multiscale import CLASS_NAMES, build_pyramid

scene = fixtures.make_scene(seed=0, num_cameras=2, num_boxes=4)
pyramid = build_pyramid(scene.gt_occ, scene.gt_sem, scene.mask)
for i, occ in enumerate(pyramid.occ):
    print(f"scale {i}: grid {occ.shape}, occupied {int(occ.sum())}")

freq_w = losses.class_frequency_weights(scene.gt_sem, scene.gt_occ,
                                        scene.mask)
print(f"occupancy weights (inverse frequency): {freq_w.w_occ.round(3)}")
# absent classes dominate inverse-frequency normalisation on a toy scene,
# so score the random logits with uniform weights for a readable demo
weights = losses.ClassWeights.uniform(len(CLASS_NAMES))

per_scale = []
rng = np.random.default_rng(1)
for occ, sem, mask in zip(pyramid.occ, pyramid.sem, pyramid.mask):
    occ_logits = rng.standard_normal(occ.shape)
    sem_logits = rng.standard_normal((len(CLASS_NAMES), *occ.shape))
    l_occ, g_occ = losses.bce_occ_loss(occ_logits, occ, mask, weights)
    l_sem, _ = losses.focal_sem_loss(sem_logits, sem, occ, mask, weights,
                                     gamma=2.0)
    per_scale.append((l_occ, l_sem))
    print(f"  bce {l_occ:.4f}  focal {l_sem:.4f}  "
          f"|grad| {np.abs(g_occ).max():.4f}")

report = losses.total_loss([a for a, _ in per_scale],
                           [b for _, b in per_scale],
                           [0.0, 0.0, 0.0])
alphas = [row["alpha"] for row in report["scales"]]
print(f"weighted total: {report['total']:.4f} (alphas {alphas})")
