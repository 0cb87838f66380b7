"""TTA flip group, prediction de-augmentation, two-model weighted
ensembling, and class-wise occupancy thresholding.

The flip group has 8 members: image horizontal flip plus voxel-space flips
along the two BEV axes. The image flip diversifies the network input but
needs no volume-space inverse; only the voxel flips are undone here. The
flips are involutions, so `deaugment` also augments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .checks import check_finite
from .gt_multiscale import CLASS_NAMES, FREE

__all__ = [
    "AugmentationTag",
    "DEFAULT_THRESHOLDS",
    "enumerate_tta",
    "deaugment",
    "ensemble",
    "apply_thresholds",
    "load_threshold_table",
]

# per-class occupancy thresholds in CLASS_NAMES order, so the class names
# have one home; test_criterion_9_postprocess_constants pins each pair
DEFAULT_THRESHOLDS = dict(zip(CLASS_NAMES, (
    0.92, 0.94, 0.94, 0.94, 0.93, 0.93, 0.91, 0.91, 0.91, 0.93, 0.93, 0.96,
    0.95, 0.95, 0.95, 0.93, 0.92), strict=True))


@dataclass(frozen=True)
class AugmentationTag:
    img_hflip: bool
    vox_flip_x: bool
    vox_flip_y: bool


def enumerate_tta():
    """The 8 flip combinations, binary counting over (img, x, y)."""
    return [AugmentationTag(bool(i >> 2 & 1), bool(i >> 1 & 1), bool(i & 1))
            for i in range(8)]


def deaugment(tag: AugmentationTag, occ_prob: np.ndarray,
              sem_prob: np.ndarray):
    """Undo the voxel-space flips of one TTA entry.

    occ_prob: (nx, ny, nz); sem_prob: (K, nx, ny, nz). Flips are
    involutions, so applying the tag's flips again restores the canonical
    frame; img_hflip needs no correction. Returns views of the inputs.
    """
    axes = [a for a, f in ((-3, tag.vox_flip_x), (-2, tag.vox_flip_y)) if f]
    return np.flip(occ_prob, axes), np.flip(sem_prob, axes)


def ensemble(entries_a, entries_b, weights):
    """Fusion of two models' de-augmented prediction sets by (a, b) weights.

    Each entry is (occ_prob, sem_prob) with sem_prob.shape[1:] ==
    occ_prob.shape; the sets may be any iterables and are consumed one
    entry at a time. The weighted sums are normalized by the weighted entry
    count so occ stays a probability (the paper-style raw sums rescaled to
    [0, 1]); sem is the argmax of the identically normalized semantic sum,
    ties to the smallest class id. `TestEnsembleBytes` pins the operation
    order and the memory peak. A NaN or inf in an entry raises
    NumericalError.
    """
    if len(weights) != 2 or not all(0 < w < np.inf for w in weights):
        raise ValueError(f"need two positive finite ensemble weights: {weights}")
    occ_sum = sem_sum = buf = None
    counts = []
    for weight, entries in zip(weights, (entries_a, entries_b)):
        n = 0
        for n, (occ, sem) in enumerate(entries, 1):
            if occ_sum is None:
                if sem.shape[1:] != occ.shape:
                    raise ValueError("mismatched prediction shapes")
                occ_sum = np.zeros(occ.shape, dtype=np.float64)
                sem_sum = np.zeros(sem.shape, dtype=np.float64)
                buf = np.empty(occ.shape, dtype=np.float64)
            elif occ.shape != occ_sum.shape or sem.shape != sem_sum.shape:
                raise ValueError("mismatched prediction shapes")
            occ_sum += np.multiply(occ, weight, out=buf, dtype=np.float64)
            for k in range(len(sem)):
                sem_sum[k] += np.multiply(sem[k], weight, out=buf,
                                          dtype=np.float64)
        if n == 0:
            raise ValueError("both prediction sets must be non-empty")
        counts.append(n)
    del occ, sem, buf  # the last entry is not needed for the argmax
    norm = weights[0] * counts[0] + weights[1] * counts[1]
    occ_sum /= norm
    sem_sum /= norm
    check_finite("ensembled occupancy", occ_sum)
    check_finite("ensembled semantics", sem_sum)
    # a running max over class rows, in place of argmax over axis 0, which
    # copies sem_sum; strict > keeps ties on the smallest class id
    best = sem_sum[0]
    label = np.zeros(occ_sum.shape, dtype=np.uint8)
    m = np.empty(occ_sum.shape, dtype=bool)
    for k in range(1, len(sem_sum)):
        np.greater(sem_sum[k], best, out=m)
        np.copyto(label, k, where=m)
        np.maximum(best, sem_sum[k], out=best)
    return occ_sum, label


def apply_thresholds(occ_prob: np.ndarray, sem_label: np.ndarray,
                     table: dict) -> np.ndarray:
    """Voxels whose occupancy probability falls below their class threshold
    become FREE; the rest keep their semantic label."""
    if occ_prob.shape != sem_label.shape:
        raise ValueError("shape mismatch")
    if sem_label.max(initial=0) >= len(CLASS_NAMES):
        raise ValueError("semantic label outside the class set")
    thresh = np.array([table[name] for name in CLASS_NAMES])
    out = np.where(occ_prob < thresh[sem_label], FREE, sem_label)
    return out.astype(np.uint8)


def load_threshold_table(path) -> dict:
    """Read a class-name -> threshold JSON table, validating completeness
    and the (0, 1) range; no path gives DEFAULT_THRESHOLDS."""
    if not path:
        return DEFAULT_THRESHOLDS
    with open(path) as fh:
        table = json.load(fh)
    missing = [n for n in CLASS_NAMES if n not in table]
    if missing:
        raise ValueError(f"threshold table missing classes: {missing}")
    for name in CLASS_NAMES:
        t = table[name]
        if not isinstance(t, (int, float)) or not (0.0 < t < 1.0):
            raise ValueError(f"threshold for {name!r} must be in (0, 1), got {t!r}")
    return {n: float(table[n]) for n in CLASS_NAMES}
