"""Per-scale ground truth: max-pooled occupancy, majority-vote semantics,
OR-reduced visibility masks.

Scale 0 is the finest grid (200x200x16 in the full pipeline); each level
halves every axis. FREE is encoded as 255 in uint8 label grids. Label k
names CLASS_NAMES[k], one of the K = len(CLASS_NAMES) classes of the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FREE = 255

CLASS_NAMES = (
    "Others", "Barrier", "Bicycle", "Bus", "Car", "Construction Vehicle",
    "Motorcycle", "Pedestrian", "Traffic Cone", "Trailer", "Truck",
    "Driveable Surface", "Other Flat", "Sidewalk", "Terrain", "Manmade",
    "Vegetation",
)

__all__ = [
    "FREE",
    "CLASS_NAMES",
    "MultiScaleGT",
    "downsample_occ",
    "downsample_sem",
    "downsample_mask",
    "check_labels",
    "check_gt",
    "build_pyramid",
]


def _blocks(a: np.ndarray) -> np.ndarray:
    """(nx, ny, nz) -> (nx/2, ny/2, nz/2, 8) view of 2x2x2 blocks."""
    nx, ny, nz = a.shape
    if nx % 2 or ny % 2 or nz % 2:
        raise ValueError(f"dimensions {a.shape} must be even")
    return (a.reshape(nx // 2, 2, ny // 2, 2, nz // 2, 2)
             .transpose(0, 2, 4, 1, 3, 5)
             .reshape(nx // 2, ny // 2, nz // 2, 8))


def downsample_occ(occ: np.ndarray) -> np.ndarray:
    """Max pooling over 2x2x2 blocks of a {0,1} grid."""
    return _blocks(occ).max(axis=-1)


def downsample_mask(mask: np.ndarray) -> np.ndarray:
    """Logical OR over 2x2x2 blocks: supervise a coarse cell if any child
    was observable."""
    return _blocks(mask.astype(bool)).any(axis=-1)


def downsample_sem(sem: np.ndarray, occ_coarse: np.ndarray) -> np.ndarray:
    """Majority vote over 2x2x2 blocks, counting only non-FREE labels.

    Cells unoccupied at the coarse scale become FREE; occupied cells take the
    most frequent non-FREE child label, ties broken by the smallest label id.
    """
    blk = _blocks(sem)
    counts = (blk[..., None] == np.arange(len(CLASS_NAMES))).sum(axis=-2)
    out = np.argmax(counts, axis=-1).astype(sem.dtype)  # argmax ties -> smallest id
    occupied = occ_coarse.astype(bool)
    if not (counts.sum(axis=-1)[occupied] > 0).all():
        raise AssertionError("occupied coarse cell has no non-FREE child label")
    return np.where(occupied, out, np.array(FREE, dtype=sem.dtype))


def check_labels(sem: np.ndarray) -> None:
    """Raise ValueError if a label of `sem` is neither FREE nor a class id
    in [0, K)."""
    labels = sem[sem != FREE]
    bad = (labels < 0) | (labels >= len(CLASS_NAMES))
    if bad.any():
        raise ValueError(f"semantic label {labels[bad][0]} is neither a class "
                         f"id below {len(CLASS_NAMES)} nor FREE ({FREE})")


def check_gt(occ: np.ndarray, sem: np.ndarray, mask: np.ndarray) -> None:
    """Raise ValueError unless occ, sem and mask share one shape, occ is 0
    or 1, sem is FREE exactly where occ is 0, and sem passes check_labels."""
    if not np.shape(occ) == np.shape(sem) == np.shape(mask):
        raise ValueError("shape mismatch")
    if ((occ != 0) & (occ != 1)).any():
        raise ValueError("occupancy must be 0 or 1")
    if ((sem == FREE) != (occ == 0)).any():
        raise ValueError("semantics must be FREE exactly where occupancy is 0")
    check_labels(sem)


@dataclass(frozen=True)
class MultiScaleGT:
    occ: tuple    # level i grids, i = 0 finest
    sem: tuple
    mask: tuple


def build_pyramid(occ: np.ndarray, sem: np.ndarray, mask: np.ndarray,
                  levels: int = 3) -> MultiScaleGT:
    """Ground-truth pyramid with `levels` scales, level 0 the input itself."""
    if levels < 1:
        raise ValueError(f"need at least 1 pyramid level, got {levels}")
    check_gt(occ, sem, mask)
    occs, sems, masks = [occ], [sem], [mask]
    for _ in range(levels - 1):
        occ = downsample_occ(occs[-1])
        sems.append(downsample_sem(sems[-1], occ))
        occs.append(occ)
        masks.append(downsample_mask(masks[-1]))
    return MultiScaleGT(tuple(occs), tuple(sems), tuple(masks))
