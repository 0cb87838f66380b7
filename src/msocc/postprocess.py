"""TTA flip group, prediction de-augmentation, two-model weighted
ensembling, and class-wise occupancy thresholding.

The flip group has 8 members: image horizontal flip plus voxel-space flips
along the two BEV axes. The image flip diversifies the network input but
needs no volume-space inverse; only the voxel flips are undone here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .gt_multiscale import FREE

__all__ = [
    "AugmentationTag",
    "EnsembleConfig",
    "CLASS_NAMES",
    "DEFAULT_THRESHOLDS",
    "enumerate_tta",
    "deaugment",
    "apply_flips",
    "ensemble",
    "apply_thresholds",
    "load_threshold_table",
]

CLASS_NAMES = (
    "Others", "Barrier", "Bicycle", "Bus", "Car", "Construction Vehicle",
    "Motorcycle", "Pedestrian", "Traffic Cone", "Trailer", "Truck",
    "Driveable Surface", "Other Flat", "Sidewalk", "Terrain", "Manmade",
    "Vegetation",
)

DEFAULT_THRESHOLDS = {
    "Others": 0.92,
    "Barrier": 0.94,
    "Bicycle": 0.94,
    "Bus": 0.94,
    "Car": 0.93,
    "Construction Vehicle": 0.93,
    "Motorcycle": 0.91,
    "Pedestrian": 0.91,
    "Traffic Cone": 0.91,
    "Trailer": 0.93,
    "Truck": 0.93,
    "Driveable Surface": 0.96,
    "Other Flat": 0.95,
    "Sidewalk": 0.95,
    "Terrain": 0.95,
    "Manmade": 0.93,
    "Vegetation": 0.92,
}


@dataclass(frozen=True)
class AugmentationTag:
    img_hflip: bool
    vox_flip_x: bool
    vox_flip_y: bool


@dataclass(frozen=True)
class EnsembleConfig:
    weight_a: float = 0.45
    weight_b: float = 0.55

    def __post_init__(self):
        if self.weight_a <= 0 or self.weight_b <= 0:
            raise ValueError("ensemble weights must be positive")


def enumerate_tta():
    """The 8 flip combinations, binary counting over (img, x, y)."""
    return [AugmentationTag(bool(i >> 2 & 1), bool(i >> 1 & 1), bool(i & 1))
            for i in range(8)]


def apply_flips(volume: np.ndarray, tag: AugmentationTag) -> np.ndarray:
    """The tag's voxel flips of a (..., nx, ny, nz) volume, as a view."""
    out = volume
    if tag.vox_flip_x:
        out = np.flip(out, axis=-3)
    if tag.vox_flip_y:
        out = np.flip(out, axis=-2)
    return out


def deaugment(tag: AugmentationTag, occ_prob: np.ndarray,
              sem_prob: np.ndarray):
    """Undo the voxel-space flips of one TTA entry.

    occ_prob: (nx, ny, nz); sem_prob: (K, nx, ny, nz). Flips are
    involutions, so applying the tag's flips again restores the canonical
    frame; img_hflip needs no correction. Returns views of the inputs.
    """
    return apply_flips(occ_prob, tag), apply_flips(sem_prob, tag)


def ensemble(entries_a, entries_b, cfg: EnsembleConfig = EnsembleConfig()):
    """Weighted fusion of two models' de-augmented prediction sets.

    Each entry is (occ_prob, sem_prob). The sets may be any iterables; they
    are consumed one entry at a time, so only that entry and the running
    sums are held. The weighted sums are normalized by the weighted entry
    count so occ stays a probability (the paper-style raw sums rescaled to
    [0, 1]); sem is the argmax of the identically normalized semantic sum,
    ties to the smallest class id.
    """
    occ_sum = sem_sum = None
    counts = []
    for weight, entries in ((cfg.weight_a, entries_a),
                            (cfg.weight_b, entries_b)):
        n = 0
        for n, (occ, sem) in enumerate(entries, 1):
            if occ_sum is None:
                occ_sum = np.zeros(occ.shape, dtype=np.float64)
                sem_sum = np.zeros(sem.shape, dtype=np.float64)
            elif occ.shape != occ_sum.shape or sem.shape != sem_sum.shape:
                raise ValueError("mismatched prediction shapes")
            occ_sum += weight * occ.astype(np.float64)
            sem_sum += weight * sem.astype(np.float64)
        if n == 0:
            raise ValueError("both prediction sets must be non-empty")
        counts.append(n)
    norm = cfg.weight_a * counts[0] + cfg.weight_b * counts[1]
    occ_prob = occ_sum / norm
    sem_label = np.argmax(sem_sum / norm, axis=0).astype(np.uint8)
    return occ_prob, sem_label


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
    and the (0, 1) range."""
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
