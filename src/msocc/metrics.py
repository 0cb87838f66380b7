"""One confusion matrix and masked per-class IoU / mIoU.

`accumulate` counts one frame's masked voxels in a (K+1, K+1) matrix, K =
len(CLASS_NAMES), with the ground-truth label on the rows and the predicted
label on the columns; the matrices of several frames add with `+`. Class
ids 0..K-1 keep their index and FREE maps to index K. FREE is not a scored
class: a FREE prediction on an occupied ground-truth voxel counts as a
false negative for the ground-truth class, and classes with a zero
denominator are excluded from the mean rather than scored 0.
"""

from __future__ import annotations

import numpy as np

from .gt_multiscale import CLASS_NAMES, FREE, check_labels

__all__ = ["accumulate", "miou"]


def _matrix_index(labels: np.ndarray) -> np.ndarray:
    """Labels as matrix indices, FREE at index K; `check_labels` decides
    which labels are valid."""
    check_labels(labels)
    idx = labels.astype(np.int64)
    idx[idx == FREE] = len(CLASS_NAMES)
    return idx


def accumulate(pred: np.ndarray, gt: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
    """The int64 (K+1, K+1) confusion matrix of one frame's masked voxels."""
    if pred.shape != gt.shape or pred.shape != mask.shape:
        raise ValueError("shape mismatch")
    m = np.asarray(mask, dtype=bool)
    n = len(CLASS_NAMES) + 1
    p = _matrix_index(np.asarray(pred)[m])
    g = _matrix_index(np.asarray(gt)[m])
    return np.bincount(g * n + p, minlength=n * n).reshape(n, n)


def miou(matrix: np.ndarray, include_free: bool = False):
    """Per-class IoU and the mean over classes with a non-zero denominator,
    for the K classes of a (K+1, K+1) confusion matrix.

    include_free adds a FREE-vs-rest IoU, read from row and column K, as an
    extra entry in the mean.
    """
    k = len(matrix) - 1
    tp = matrix.diagonal()
    denom = matrix.sum(axis=0) + matrix.sum(axis=1) - tp
    if not (denom[:k] > 0).any():
        raise ValueError("no class has any support in the matrix")
    scored = [c for c in range(k + 1 if include_free else k) if denom[c] > 0]
    iou = tp[scored] / denom[scored]
    per_class = {FREE if c == k else c: float(v) for c, v in zip(scored, iou)}
    return per_class, float(np.mean(iou))
