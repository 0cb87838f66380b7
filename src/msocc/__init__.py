"""msocc: deterministic core of a multi-scale, temporally fused 3D
occupancy prediction pipeline."""

from . import (checks, fixtures, geometry, gt_multiscale, lift_splat, losses,
               metrics, pipeline, postprocess, temporal, tensorio)
from .gt_multiscale import FREE

__version__ = "0.1.0"
__all__ = [
    "FREE", "geometry", "lift_splat", "temporal", "gt_multiscale", "losses",
    "postprocess", "metrics", "fixtures", "tensorio", "pipeline", "checks",
    "cli",
]
