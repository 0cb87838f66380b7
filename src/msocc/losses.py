"""Loss stack: masked BCE occupancy loss, masked multi-class focal semantic
loss, binned depth cross-entropy, inverse class-frequency weights, and the
alpha-weighted multi-scale total. Every loss returns (scalar, exact analytic
gradient w.r.t. its logits).

Reduction is the mean over contributing voxels/pixels, so per-scale losses
stay comparable across grids whose voxel counts differ by 64x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gt_multiscale import CLASS_NAMES

__all__ = [
    "ClassWeights",
    "class_frequency_weights",
    "bce_occ_loss",
    "focal_sem_loss",
    "depth_loss",
    "total_loss",
]

_EPS = 1e-6


@dataclass(frozen=True)
class ClassWeights:
    w_occ: np.ndarray  # (2,) for {unoccupied, occupied}
    w_sem: np.ndarray  # (K,)

    @classmethod
    def uniform(cls, num_classes: int) -> "ClassWeights":
        return cls(np.ones(2), np.ones(num_classes))


def _inverse_freq(counts: np.ndarray) -> np.ndarray:
    total = counts.sum()
    freq = counts / total
    raw = 1.0 / np.maximum(freq, _EPS)
    return raw / raw.mean()


def class_frequency_weights(sem: np.ndarray, occ: np.ndarray,
                            mask: np.ndarray,
                            num_classes: int = len(CLASS_NAMES)) -> ClassWeights:
    """Inverse class-frequency weights over masked voxels, normalized to
    mean 1. Semantic frequencies are taken over masked occupied voxels;
    absent classes get the 1/eps ceiling before normalization."""
    m = np.asarray(mask, dtype=bool)
    if np.shape(sem) != m.shape or np.shape(occ) != m.shape:
        raise ValueError("shape mismatch")
    if not m.any():
        raise ValueError("empty visibility mask")
    occ_m = np.asarray(occ)[m]
    occ_counts = np.array([(occ_m == 0).sum(), (occ_m == 1).sum()], dtype=np.float64)
    sem_m = np.asarray(sem)[m & (np.asarray(occ) == 1)]
    sem_counts = (sem_m[:, None] == np.arange(num_classes)).sum(axis=0).astype(np.float64)
    return ClassWeights(_inverse_freq(occ_counts), _inverse_freq(sem_counts))


def _softplus(z: np.ndarray) -> np.ndarray:
    # log(1 + e^z) without overflow
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def bce_occ_loss(occ_logits: np.ndarray, gt: np.ndarray, mask: np.ndarray,
                 w: ClassWeights):
    """Class-weighted binary cross-entropy over masked voxels.

    Returns (mean loss, dL/dz with zeros outside the mask).
    """
    z = np.asarray(occ_logits, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    if z.shape != g.shape or z.shape != m.shape:
        raise ValueError("shape mismatch")
    if not m.any():
        raise ValueError("empty visibility mask")
    n = m.sum()
    wv = np.where(g == 1, w.w_occ[1], w.w_occ[0])
    per_voxel = wv * (g * _softplus(-z) + (1.0 - g) * _softplus(z))
    loss = per_voxel[m].sum() / n
    sig = 1.0 / (1.0 + np.exp(-z))
    grad = np.where(m, wv * (sig - g) / n, 0.0)
    return float(loss), grad


def focal_sem_loss(sem_logits: np.ndarray, gt: np.ndarray,
                   occ_gt: np.ndarray, mask: np.ndarray, w: ClassWeights,
                   gamma: float = 2.0):
    """Class-weighted multi-class focal loss over masked occupied voxels.

    sem_logits: (K, ...) raw logits; gt holds labels in 0..K-1 with FREE
    exactly where occ_gt is 0. Returns (mean loss, dL/dz of shape (K, ...)).
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    z = np.asarray(sem_logits, dtype=np.float64)
    k = z.shape[0]
    if len({z.shape[1:], np.shape(gt), np.shape(occ_gt), np.shape(mask)}) > 1:
        raise ValueError("shape mismatch")
    if len(w.w_sem) != k:
        raise ValueError(f"{len(w.w_sem)} class weights for {k} logit rows")
    contrib = np.asarray(mask, dtype=bool) & (np.asarray(occ_gt) == 1)
    if not contrib.any():
        raise ValueError("no masked occupied voxels")
    n = contrib.sum()

    zc = z[:, contrib]                       # (K, n)
    labels = np.asarray(gt)[contrib].astype(np.int64)
    zc = zc - zc.max(axis=0, keepdims=True)
    p = np.exp(zc)
    p /= p.sum(axis=0, keepdims=True)
    pt = p[labels, np.arange(n)]
    wt = w.w_sem[labels]

    one_minus = 1.0 - pt
    with np.errstate(divide="ignore"):  # a p that underflows to 0 costs inf
        log_pt = np.log(pt)
    loss = (wt * one_minus ** gamma * (-log_pt)).sum() / n

    # dL/dz = wt * dg/dp * p * (one_hot - p) / n for g = (1-p)^gamma (-log p);
    # dg/dp * p is -1 at gamma = 0, and tends to -1 where p underflows to 0
    coeff = -wt / n                          # (n,)
    if gamma != 0:
        s = pt > 0
        dg_dp = (gamma * one_minus[s] ** (gamma - 1.0) * log_pt[s]
                 - one_minus[s] ** gamma / pt[s])
        coeff[s] = wt[s] * dg_dp * pt[s] / n
    grad_c = coeff * (np.eye(k)[:, labels] - p)
    grad = np.zeros_like(z)
    grad[:, contrib] = grad_c
    return float(loss), grad


def depth_loss(depth_logits: np.ndarray, gt_depth: np.ndarray,
               valid: np.ndarray, f):
    """Cross-entropy between the per-pixel depth softmax and the one-hot bin
    containing the ground-truth depth, averaged over valid pixels: the
    unweighted focal loss at gamma 0, one class per depth bin. Only the
    valid pixels' depths are binned."""
    z = np.asarray(depth_logits, dtype=np.float64)
    d = z.shape[0]
    v = np.asarray(valid, dtype=bool)
    if z.shape[1:] != v.shape or np.shape(gt_depth) != v.shape:
        raise ValueError("shape mismatch")
    if d != f.num_bins:
        raise ValueError(f"{d} depth logits for {f.num_bins} depth bins")
    if not v.any():
        raise ValueError("no valid depth pixels")
    bins = np.zeros(v.shape, dtype=np.int64)
    bins[v] = f.bin_of(np.asarray(gt_depth)[v])
    if ((bins < 0) | (bins >= d)).any():
        raise ValueError("valid gt depth outside the bin range")
    return focal_sem_loss(z, bins, v, v, ClassWeights.uniform(d), gamma=0.0)


def total_loss(occ_losses, sem_losses, depth_losses) -> dict:
    """Total = sum_i alpha_i * (L_occ,i + L_sem,i + L_depth,i) with
    alpha_i = 1 / 2^i, scale 0 the finest; returns the report with one row
    per scale (its components, their unweighted sum `total` and its alpha)
    and the total."""
    if not len(occ_losses) == len(sem_losses) == len(depth_losses):
        raise ValueError("per-scale component counts differ")
    alphas = [2.0 ** -i for i in range(len(occ_losses))]
    per = [o + s + d for o, s, d in zip(occ_losses, sem_losses, depth_losses)]
    return {
        "scales": [
            {"occ": o, "sem": s, "depth": d, "total": t, "alpha": a}
            for o, s, d, t, a in zip(occ_losses, sem_losses, depth_losses,
                                     per, alphas)
        ],
        "total": float(sum(a * l for a, l in zip(alphas, per))),
    }
