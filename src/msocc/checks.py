"""NaN and inf checks shared by the pipeline stages."""

from __future__ import annotations

import numpy as np

__all__ = ["NumericalError", "check_finite"]


class NumericalError(Exception):
    """NaN or inf detected in a pipeline tensor (exit code 3 at the CLI)."""


def check_finite(name: str, arr) -> None:
    """Raise NumericalError if `arr` holds a NaN or an inf. Two reductions
    decide it with no full-size boolean temporary; `test_any_position_fails`
    pins that they see every NaN and inf."""
    arr = np.asarray(arr)
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NumericalError(f"{name}: {int(np.isnan(arr).sum())} NaN, "
                             f"{int(np.isinf(arr).sum())} inf")
