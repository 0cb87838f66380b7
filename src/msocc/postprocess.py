"""TTA flip group, prediction de-augmentation, two-model weighted
ensembling, and class-wise occupancy thresholding.

The flip group has 8 members: image horizontal flip plus voxel-space flips
along the two BEV axes. The image flip diversifies the network input but
needs no volume-space inverse; only the voxel flips are undone here. The
flips are involutions, so `deaugment` also augments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .checks import check_finite
from .gt_multiscale import CLASS_NAMES, FREE, check_labels
from .parts import in_parts

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


def deaugment(tag: AugmentationTag, *volumes: np.ndarray):
    """Undo the voxel-space flips of one TTA entry.

    Each volume is an (nx, ny, nz) occupancy, a (K, nx, ny, nz) class stack
    or one class row of it. Flips are involutions, so applying the tag's
    flips again restores the canonical frame; img_hflip needs no
    correction. Returns views of the volumes, in order.
    """
    axes = [a for a, f in ((-3, tag.vox_flip_x), (-2, tag.vox_flip_y)) if f]
    return tuple(np.flip(v, axes) for v in volumes)


def ensemble(entries_a, entries_b, weights):
    """Fusion of two models' de-augmented prediction sets by (a, b) weights.

    The sets may be any iterables of entries (occ, sem): occ has an
    (nx, ny, nz) `.shape` and its x-slab at [a:b], and sem has a
    (K, nx, ny, nz) `.shape` and x-slab [a:b] of class row k at [k, a:b].
    Arrays qualify, as do `pipeline.load_prediction_sets`'s file-backed
    entries. occ is the weighted sum over the weighted entry count, so it
    stays a probability; sem is the argmax of the same normalized semantic
    sum, ties to the smallest class id, fused class-major: row k of every
    entry (model a's in order, then b's) is summed from zero in float64,
    normalized, checked and folded into a running argmax, so no (K, ...)
    sum is held.

    Each sum is split into x-slabs by `parts.in_parts`: a part adds its
    slab of every entry, and once the parts have joined the calling thread
    normalizes, checks and folds the whole row. A voxel sums the same
    entries in the same order in any part, so the bytes do not depend on
    the parts. `TestEnsembleBytes` and `test_file_backed_entries_match_expression` pin
    bytes and peak. A NaN or inf in an entry raises NumericalError.
    """
    if len(weights) != 2 or not all(0 < w < np.inf for w in weights):
        raise ValueError(f"need two positive finite ensemble weights: {weights}")
    sets = [list(entries_a), list(entries_b)]
    if not (sets[0] and sets[1]):
        raise ValueError("both prediction sets must be non-empty")
    weighted = [(w, e) for w, entries in zip(weights, sets) for e in entries]
    sem_shape = sets[0][0][1].shape
    shape = sem_shape[1:]
    if any(o.shape != shape or s.shape != sem_shape for _, (o, s) in weighted):
        raise ValueError("mismatched prediction shapes")
    norm = weights[0] * len(sets[0]) + weights[1] * len(sets[1])
    buf = np.empty(shape)

    def fuse(total, slab):  # total = weighted sum of each entry's slab(...)
        def part(a, b):
            acc, out = total[a:b], buf[a:b]
            acc.fill(0.0)
            for w, entry in weighted:
                acc += np.multiply(slab(entry, a, b), w, out=out,
                                   dtype=np.float64)
        in_parts(shape[0], part, math.prod(shape[1:]))

    occ_sum = np.empty(shape)
    fuse(occ_sum, lambda entry, a, b: entry[0][a:b])
    occ_sum /= norm
    check_finite("ensembled occupancy", occ_sum)
    # a running max over the (finite) class rows; strict > keeps ties on
    # the smallest class id
    row, best = np.empty(shape), np.full(shape, -np.inf)
    label, m = np.zeros(shape, dtype=np.uint8), np.empty(shape, dtype=bool)
    for k in range(sem_shape[0]):
        fuse(row, lambda entry, a, b: entry[1][k, a:b])
        row /= norm
        check_finite("ensembled semantics", row)
        np.greater(row, best, out=m)
        np.copyto(label, k, where=m)
        np.maximum(best, row, out=best)
    return occ_sum, label


def apply_thresholds(occ_prob: np.ndarray, sem_label: np.ndarray,
                     table: dict) -> np.ndarray:
    """Voxels whose occupancy probability falls below their class threshold
    become FREE; the rest keep their semantic label. Every label must be a
    class id, so FREE is rejected too."""
    if occ_prob.shape != sem_label.shape:
        raise ValueError("shape mismatch")
    check_labels(sem_label)
    if (sem_label == FREE).any():
        raise ValueError(f"semantic label {FREE} (FREE) is not a class id")
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
    if not isinstance(table, dict):
        raise ValueError(f"threshold table is not a JSON object: {table!r}")
    missing = [n for n in CLASS_NAMES if n not in table]
    if missing:
        raise ValueError(f"threshold table missing classes: {missing}")
    for name in CLASS_NAMES:
        t = table[name]
        if not isinstance(t, (int, float)) or not (0.0 < t < 1.0):
            raise ValueError(f"threshold for {name!r} must be in (0, 1), got {t!r}")
    return {n: float(table[n]) for n in CLASS_NAMES}
