"""NaN and inf checks shared by the pipeline stages."""

from __future__ import annotations

import numpy as np

__all__ = ["NumericalError", "check_finite"]


class NumericalError(Exception):
    """NaN or inf detected in a pipeline tensor (exit code 3 at the CLI)."""


def check_finite(name: str, arr) -> None:
    """Raise NumericalError if `arr` holds a NaN or an inf.

    A NaN makes the minimum and the maximum NaN and an inf makes one of
    them infinite, so two reductions decide it without a full-size boolean
    temporary; NaN and inf are counted only to report a failure.
    """
    arr = np.asarray(arr)
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NumericalError(f"{name}: {int(np.isnan(arr).sum())} NaN, "
                             f"{int(np.isinf(arr).sum())} inf")
