"""Fuse augmented prediction sets from two models and score the result.

The test-time augmentation group has 8 members (image h-flip and two voxel
flips). Each member's volume is mapped back to canonical orientation, the
two model families are blended 0.45/0.55, per-class occupancy thresholds
decide free space, and masked mIoU scores the final labels.
"""

import numpy as np

from msocc import fixtures, metrics, pipeline, postprocess
from msocc.gt_multiscale import CLASS_NAMES, FREE

scene = fixtures.make_scene(seed=3, num_cameras=2, num_boxes=4)
occ_prob, sem_prob = fixtures.oracle_predictions(scene)

tags = postprocess.enumerate_tta()
print(f"TTA group size: {len(tags)}")

entries_a, entries_b = [], []
for tag in tags:
    # the flips are involutions, so deaugment doubles as the augmenter
    occ_aug, sem_aug = postprocess.deaugment(tag, occ_prob, sem_prob)
    entries_a.append(postprocess.deaugment(tag, occ_aug, sem_aug))
    entries_b.append(postprocess.deaugment(tag, occ_aug, sem_aug))

fused_occ, fused_sem = postprocess.ensemble(
    entries_a, entries_b, pipeline.PipelineConfig().ensemble_weights)
labels = postprocess.apply_thresholds(fused_occ, fused_sem,
                                      postprocess.DEFAULT_THRESHOLDS)

gt = np.where(scene.gt_occ == 1, scene.gt_sem, FREE).astype(np.uint8)
per_class, mean = metrics.miou(metrics.accumulate(labels, gt, scene.mask))
print(f"oracle mIoU: {mean:.3f}")
for cls, iou in per_class.items():
    print(f"  {CLASS_NAMES[cls]}: {iou:.3f}")
